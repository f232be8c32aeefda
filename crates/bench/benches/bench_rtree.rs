//! R-tree micro-benchmarks: incremental insertion vs STR bulk load, both
//! split heuristics, and SELECT throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sj_gentree::rtree::{RTree, RTreeConfig, SplitStrategy};
use sj_gentree::select::select_flat;
use sj_geom::{Geometry, Point, Rect, ThetaOp};
use std::hint::black_box;

fn grid_entries(n: usize) -> Vec<(u64, Geometry)> {
    let side = (n as f64).sqrt().ceil() as usize;
    (0..n)
        .map(|i| {
            let x = (i % side) as f64 * 10.0;
            let y = (i / side) as f64 * 10.0;
            (
                i as u64,
                Geometry::Rect(Rect::from_bounds(x, y, x + 7.0, y + 7.0)),
            )
        })
        .collect()
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree_build");
    group.sample_size(10);
    for &n in &[1_000usize, 10_000] {
        let entries = grid_entries(n);
        for (label, split) in [
            ("insert_linear", SplitStrategy::Linear),
            ("insert_quadratic", SplitStrategy::Quadratic),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &entries, |b, entries| {
                b.iter(|| {
                    let mut rt = RTree::new(RTreeConfig {
                        max_entries: 10,
                        min_entries: 4,
                        split,
                    });
                    for (id, g) in entries {
                        rt.insert(*id, g.clone());
                    }
                    black_box(rt.len())
                });
            });
        }
        group.bench_with_input(
            BenchmarkId::new("bulk_load_str", n),
            &entries,
            |b, entries| {
                b.iter(|| {
                    let rt = RTree::bulk_load(RTreeConfig::with_fanout(10), entries.clone());
                    black_box(rt.len())
                });
            },
        );
    }
    group.finish();
}

fn bench_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree_select");
    for &n in &[1_000usize, 10_000, 100_000] {
        let rt = RTree::bulk_load(RTreeConfig::with_fanout(10), grid_entries(n));
        let side = (n as f64).sqrt().ceil() * 10.0;
        let probe = Geometry::Point(Point::new(side / 2.0, side / 2.0));
        group.bench_with_input(BenchmarkId::new("within_distance", n), &rt, |b, rt| {
            b.iter(|| {
                black_box(select_flat(
                    rt.tree(),
                    None,
                    &probe,
                    ThetaOp::WithinDistance(25.0),
                    |_| {},
                ))
            });
        });
    }
    group.finish();
}

/// Short measurement windows: these benches compare executors whose
/// differences are orders of magnitude, so tight confidence intervals are
/// not worth minutes of wall-clock per target.
fn fast_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(700))
}

criterion_group!(
    name = benches;
    config = fast_config();
    targets = bench_build, bench_select
);
criterion_main!(benches);
