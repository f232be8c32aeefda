//! `repeat`: two alternating sets of N full runs of the same code, and
//! whether they agree within the benchmark's own bounds.
//!
//! For every metric × workload it prints both set medians and
//! quartiles, each set's spread by the driver's rule (interquartile
//! distance over the median), the gap between the medians against the
//! metric's bound, the widest distance of a single run from its set
//! median, and — for the exact-count metrics — whether every run
//! repeated bit for bit.
//! The same numbers go to `benchmark/out/repeat.json`.

use std::collections::BTreeMap;
use std::io::Write;

use crate::json::{self, Json};
use crate::measure::RunOptions;
use crate::spec::Spec;
use crate::stats::{median, quartiles_exclusive, spread};
use crate::workload::WORKLOADS;

/// Units whose metrics are counts made by the program over fixed work:
/// they must repeat exactly.
const EXACT_UNITS: [&str; 3] = ["count", "units", "B"];

type Key = (String, String);

/// `|v - m|` as a share of `m` (absolute when `m` is 0).
fn distance(v: f64, m: f64) -> f64 {
    if m == 0.0 {
        (v - m).abs()
    } else {
        (v - m).abs() / m.abs()
    }
}

pub fn run(spec: &Spec, opts: &RunOptions, n: usize) -> Result<(), String> {
    if n < 2 {
        return Err("--n must be at least 2: quartiles need two runs per set".into());
    }
    let mut values: BTreeMap<Key, [Vec<f64>; 2]> = BTreeMap::new();
    let (mut attempted, mut failed) = (0.0, 0.0);
    for round in 0..n {
        for set in 0..2 {
            for w in &WORKLOADS {
                for traced in [false, true] {
                    eprintln!(
                        "repeat: round {}/{n}, set {}, {} {}",
                        round + 1,
                        ["A", "B"][set],
                        w.name,
                        if traced { "traced" } else { "measured" }
                    );
                    let stdout = crate::spawn_run(w.name, opts, traced)?;
                    let line = stdout.lines().last().ok_or("run printed nothing")?;
                    let doc = Json::parse(line).map_err(|e| format!("bad result line: {e}"))?;
                    attempted += doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
                    failed += doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
                        eprintln!("repeat: that run reported incorrect outputs");
                    }
                    let metrics = doc
                        .get("metrics")
                        .and_then(Json::as_obj)
                        .ok_or("result line without metrics")?;
                    for (name, m) in metrics {
                        let v = m
                            .get("value")
                            .and_then(Json::as_f64)
                            .ok_or("metric without value")?;
                        values
                            .entry((w.name.to_string(), name.clone()))
                            .or_default()[set]
                            .push(v);
                    }
                }
            }
        }
    }

    println!(
        "# repeat: 2 sets x {n} runs, seed {}, {:.0} s windows; {attempted:.0} ops attempted, {failed:.0} failed",
        opts.seed, opts.seconds
    );
    println!(
        "{:<12} {:<34} {:>6} {:>12} {:>12} {:>12} {:>8} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6} {:>8}  verdict",
        "workload", "metric", "unit", "A.q1", "A.median", "A.q3", "A.spread", "B.q1", "B.median", "B.q3", "B.spread", "gap", "bound", "max.dev"
    );
    let mut rows = Vec::new();
    let mut all_within = true;
    let mut all_exact = true;
    for ((workload, name), sets) in &values {
        let declared = spec
            .end_to_end
            .get(name)
            .or_else(|| spec.per_layer.get(name));
        let unit = declared.map_or("", |d| d.unit.as_str());
        let bound = declared.and_then(|d| d.bound);
        let (a, b) = (quartiles_exclusive(&sets[0]), quartiles_exclusive(&sets[1]));
        let (ma, mb) = (median(&sets[0]), median(&sets[1]));
        let gap = distance(mb, ma);
        // Widest distance of one run from its own set's median.
        let max_dev = sets
            .iter()
            .zip([ma, mb])
            .flat_map(|(vals, m)| vals.iter().map(move |v| distance(*v, m)))
            .fold(0.0, f64::max);
        let exact = EXACT_UNITS.contains(&unit) && bound.is_none();
        let repeats = sets.iter().flatten().all(|v| *v == sets[0][0]);
        let verdict = match (bound, exact) {
            (Some(bd), _) if gap <= bd => "within",
            (Some(_), _) => {
                all_within = false;
                "OUTSIDE"
            }
            (None, true) if repeats => "exact",
            (None, true) => {
                all_exact = false;
                "DIFFERS"
            }
            (None, false) => "-",
        };
        println!(
            "{workload:<12} {name:<34} {unit:>6} {:>12.5} {:>12.5} {:>12.5} {:>8.4} {:>12.5} {:>12.5} {:>12.5} {:>8.4} {:>8.4} {:>6} {:>8.4}  {verdict}",
            a[0], ma, a[2], spread(&sets[0]), b[0], mb, b[2], spread(&sets[1]), gap,
            bound.map_or("-".to_string(), |b| format!("{b}")),
            max_dev
        );
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| json::num(*x))
                .collect::<Vec<_>>()
                .join(", ")
        };
        rows.push(format!(
            "{{\"workload\": \"{workload}\", \"metric\": \"{name}\", \"unit\": \"{unit}\", \"a\": [{}], \"b\": [{}], \"a_median\": {}, \"b_median\": {}, \"a_spread\": {}, \"b_spread\": {}, \"gap\": {}, \"bound\": {}, \"max_dev\": {}, \"verdict\": \"{verdict}\"}}",
            list(&sets[0]),
            list(&sets[1]),
            json::num(ma),
            json::num(mb),
            json::num(spread(&sets[0])),
            json::num(spread(&sets[1])),
            json::num(gap),
            bound.map_or("null".to_string(), json::num),
            json::num(max_dev),
        ));
    }
    println!(
        "# end-to-end medians within their bounds: {all_within}; exact-count metrics identical in all runs: {all_exact}; failed ops: {failed:.0}"
    );

    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join("repeat.json");
    let mut f = std::fs::File::create(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    writeln!(
        f,
        "{{\"runs_per_set\": {n}, \"seed\": {}, \"seconds\": {}, \"failed\": {failed}, \"all_within_bounds\": {all_within}, \"all_exact_counts_repeat\": {all_exact}, \"rows\": [\n{}\n]}}",
        opts.seed,
        json::num(opts.seconds),
        rows.join(",\n")
    )
    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    if all_within && all_exact && failed == 0.0 {
        Ok(())
    } else {
        Err("the two sets disagree beyond the benchmark's bounds".into())
    }
}
