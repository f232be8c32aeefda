//! `geom.*`: the kernels under every join, on the workload's own MBRs
//! and its first 100 000 candidate pairs. Pins `sweep_candidates`,
//! `SweepItem`, `ThetaOp::{eval, filter_radius}`, `QGeometry::quantize`,
//! `margin_eval` and the `codec` record functions.

use std::hint::black_box;

use sj_geom::{
    codec, margin_eval, sweep_candidates, Bounded, Geometry, QGeometry, SweepItem, ThetaOp,
};

use crate::layers::{probe, ratio};
use crate::spec::Metric;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::workload::Dataset;

const CANDIDATE_PAIRS: usize = 100_000;
const DECODE_RECORDS: usize = 20_000;
/// Repetitions each kernel's time is the median of.
pub const REPS: usize = 5;

pub fn run(
    data: &Dataset,
    theta: ThetaOp,
    record_size: usize,
    reps: usize,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    // The sweep filter over every MBR of both relations, R expanded by
    // the operator's filter radius exactly as the executors prepare it.
    let eps = theta.filter_radius().unwrap_or(0.0);
    let left: Vec<SweepItem> = data
        .r
        .iter()
        .enumerate()
        .map(|(i, (_, g))| SweepItem::expanded(i as u32, g.mbr(), eps))
        .collect();
    let right: Vec<SweepItem> = data
        .s
        .iter()
        .enumerate()
        .map(|(i, (_, g))| SweepItem::new(i as u32, g.mbr()))
        .collect();
    let mut sweep_ms = Vec::with_capacity(reps);
    let mut comparisons = 0u64;
    let mut candidates: Vec<(u32, u32)> = Vec::new();
    for _ in 0..reps {
        let (mut l, mut r) = (left.clone(), right.clone());
        candidates.clear();
        let (cmp, secs) = probe(tracer, "probe.geom.sweep", || {
            sweep_candidates(&mut l, &mut r, theta, &mut |a, b| candidates.push((a, b)))
        });
        comparisons = cmp;
        sweep_ms.push(secs * 1e3);
    }
    candidates.truncate(CANDIDATE_PAIRS);
    let sweep_s = median(&sweep_ms) / 1e3;

    // Exact θ and the three-valued margin test on the same pairs.
    let pair_count = candidates.len().max(1) as f64;
    let mut theta_ns = Vec::with_capacity(reps);
    let mut margin_ns = Vec::with_capacity(reps);
    let quantized = |tuples: &[(u64, Geometry)]| -> Vec<QGeometry> {
        tuples.iter().map(|(_, g)| QGeometry::quantize(g)).collect()
    };
    let (rq, sq) = (quantized(&data.r), quantized(&data.s));
    for _ in 0..reps {
        let (hits, secs) = probe(tracer, "probe.geom.theta_eval", || {
            candidates
                .iter()
                .filter(|(a, b)| theta.eval(&data.r[*a as usize].1, &data.s[*b as usize].1))
                .count()
        });
        black_box(hits);
        theta_ns.push(secs * 1e9 / pair_count);
        let (verdicts, secs) = probe(tracer, "probe.geom.margin_eval", || {
            candidates
                .iter()
                .map(|(a, b)| margin_eval(&theta, &rq[*a as usize], &sq[*b as usize]) as usize)
                .sum::<usize>()
        });
        black_box(verdicts);
        margin_ns.push(secs * 1e9 / pair_count);
    }

    // Decoding exact records: what a `MustDecode` verdict costs.
    let records: Vec<Vec<u8>> = data
        .s
        .iter()
        .chain(data.r.iter())
        .take(DECODE_RECORDS)
        .map(|(id, g)| codec::encode_record(*id, g, record_size))
        .collect();
    let mut decode_ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (ok, secs) = probe(tracer, "probe.geom.decode", || {
            records
                .iter()
                .filter(|bytes| codec::try_decode_record(bytes).is_ok())
                .count()
        });
        assert_eq!(ok, records.len(), "every encoded record decodes");
        decode_ns.push(secs * 1e9 / records.len().max(1) as f64);
    }

    let all = || data.r.iter().chain(data.s.iter());
    let v1: Vec<f64> = all().map(|(_, g)| codec::encoded_len(g) as f64).collect();
    let v2: Vec<f64> = all().map(|(_, g)| codec::encoded_qlen(g) as f64).collect();
    vec![
        Metric::new("geom.sweep_ms", median(&sweep_ms), "ms"),
        Metric::new(
            "geom.sweep_mcmp_per_s",
            ratio(comparisons as f64 / 1e6, sweep_s),
            "M/s",
        ),
        Metric::new("geom.theta_eval_ns", median(&theta_ns), "ns"),
        Metric::new("geom.margin_eval_ns", median(&margin_ns), "ns"),
        Metric::new("geom.decode_ns", median(&decode_ns), "ns"),
        Metric::new("geom.bytes_per_record_v1", mean(&v1), "B"),
        Metric::new("geom.bytes_per_record_v2", mean(&v2), "B"),
    ]
}
