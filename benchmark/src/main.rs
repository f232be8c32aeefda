//! `sj-benchmark`: the repository's one end-to-end benchmark.
//!
//! ```text
//! sj-benchmark --workload W --seed N --seconds T --trace 0|1   one run, result JSON on the last line
//! sj-benchmark [--seed N] [--seconds T]                        every workload, both runs
//! sj-benchmark --quick                                         3 cycles per workload and run, every code path
//! sj-benchmark check --workload W --seed N                     the check pass (run.sh never calls it; runs do)
//! sj-benchmark repeat [--n N] [--seed S] [--seconds T]         two alternating sets of N full runs
//! ```
//!
//! Run it through `benchmark/run.sh`, from the root of the checkout:
//! `BENCHMARK.json` is read from, and `benchmark/out/` written to, the
//! working directory.

mod awake;
mod check;
mod driver;
mod json;
mod layers;
mod measure;
mod repeat;
mod rng;
mod spec;
mod stats;
mod trace;
mod traced;
mod workload;

use std::process::{Command, ExitCode};

use check::CycleDigests;
use measure::{RunOptions, RunOutput};
use spec::Spec;
use workload::{Workload, CHECK_CYCLES, WORKLOADS};

/// Cold starts behind `setup_s`.
const SETUP_BUILDS: usize = 8;

#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<u8>,
    n: Option<usize>,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().cloned();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|_| "bad --seed".to_string())?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "bad --seconds".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => 0,
                    "1" => 1,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--n" => {
                args.n = Some(
                    value("a number")?
                        .parse()
                        .map_err(|_| "bad --n".to_string())?,
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn workload_named(name: &str) -> Result<&'static Workload, String> {
    Workload::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })
}

/// Runs the check pass in its own process and returns its digests.
fn check_in_subprocess(w: &Workload, opts: &RunOptions) -> Result<CycleDigests, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "check",
            "--workload",
            w.name,
            "--seed",
            &opts.seed.to_string(),
        ])
        .args(opts.quick.then_some("--quick"))
        .output()
        .map_err(|e| format!("cannot start the check pass: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "check pass failed for {}: {}",
            w.name,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let digests = check::parse(&String::from_utf8_lossy(&out.stdout))?;
    let want = if opts.quick { 1 } else { CHECK_CYCLES };
    if digests.len() != want {
        return Err(format!(
            "check pass covered {} cycles of {}, expected {}",
            digests.len(),
            w.name,
            want
        ));
    }
    Ok(digests)
}

/// One run as the contract defines it: check, measure, validate. The
/// result line is returned, never printed, unless everything held.
pub fn one_run(
    spec: &Spec,
    w: &Workload,
    opts: &RunOptions,
    traced: bool,
) -> Result<(RunOutput, String), String> {
    let expected = check_in_subprocess(w, opts)?;
    // Set-up, window and probes all run with the cores kept awake, so
    // a wake-up costs the same on every op of every run.
    let _awake = awake::KeepAwake::start();
    let out = if traced {
        traced::run(w, opts, &expected)?
    } else {
        measure::run(w, opts, &expected)
    };
    spec.validate(traced, &out.metrics)?;
    let line = spec::result_line(out.failed == 0, out.attempted, out.failed, &out.metrics);
    Ok((out, line))
}

fn print_run(w: &Workload, opts: &RunOptions, traced: bool, out: &RunOutput, line: &str) {
    println!(
        "# {} seed {} {} run, {:.0} s window: {} ops attempted, {} failed",
        w.name,
        opts.seed,
        if traced { "traced" } else { "measured" },
        opts.seconds,
        out.attempted,
        out.failed
    );
    for l in &out.report {
        println!("{l}");
    }
    println!("{line}");
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;

    if args.command.as_deref() == Some("check") {
        let w = workload_named(args.workload.as_deref().ok_or("check needs --workload")?)?;
        let cycles = if args.quick { 1 } else { CHECK_CYCLES };
        let digests = check::run(w, args.seed.unwrap_or(42), cycles)?;
        print!("{}", check::render(&digests));
        return Ok(());
    }

    let spec = Spec::load()?;
    let declared: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if spec.workloads != declared {
        return Err(format!(
            "BENCHMARK.json declares workloads {:?}, the harness runs {declared:?}",
            spec.workloads
        ));
    }
    let opts = RunOptions {
        seed: args.seed.unwrap_or(42),
        seconds: args.seconds.unwrap_or(if args.quick {
            1.0
        } else {
            spec.run_seconds as f64
        }),
        quick: args.quick,
        setup_builds: if args.quick { 2 } else { SETUP_BUILDS },
    };

    match (args.command.as_deref(), &args.workload, args.trace) {
        (Some("repeat"), _, _) => repeat::run(&spec, &opts, args.n.unwrap_or(5)),
        (Some(other), _, _) => Err(format!("unknown command {other}")),
        // The contract's invocation: one workload, one run, in this process.
        (None, Some(name), Some(trace)) => {
            let w = workload_named(name)?;
            let traced = trace == 1;
            let (out, line) = one_run(&spec, w, &opts, traced)?;
            print_run(w, &opts, traced, &out, &line);
            Ok(())
        }
        // Anything less specific fans out, one process per run, so that
        // `rss_peak_mb` is always one workload's own peak.
        (None, name, trace) => {
            let workloads: Vec<&Workload> = match name {
                Some(name) => vec![workload_named(name)?],
                None => WORKLOADS.iter().collect(),
            };
            let modes: Vec<bool> = match trace {
                Some(t) => vec![t == 1],
                None => vec![false, true],
            };
            for w in workloads {
                for &traced in &modes {
                    print!("{}", spawn_run(w.name, &opts, traced)?);
                }
            }
            Ok(())
        }
    }
}

/// One run in a process of its own; returns its stdout (the result
/// line last) or the reason it failed.
pub fn spawn_run(workload: &str, opts: &RunOptions, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a run of {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "run of {workload} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("run of {workload} printed non-UTF-8: {e}"))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sj-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
