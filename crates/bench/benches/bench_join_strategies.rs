//! Wall-clock comparison of the executable join strategies — the measured
//! counterpart of the paper's Figures 11–13 at laptop scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sj_core::workload::{generate, GeometryKind, Placement, WorkloadSpec};
use sj_gentree::rtree::{RTree, RTreeConfig};
use sj_geom::{Geometry, Rect, ThetaOp};
use sj_joins::grid::{grid_join, GridConfig};
use sj_joins::nested_loop::nested_loop_join;
use sj_joins::sort_merge::zorder_overlap_join;
use sj_joins::tree_join::tree_join;
use sj_joins::{JoinIndex, Parallelism, StoredRelation, TraceSink, TreeRelation};
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};
use sj_zorder::ZGrid;
use std::hint::black_box;

const WORLD: f64 = 1000.0;

fn workload(n: usize, seed: u64, id0: u64) -> Vec<(u64, Geometry)> {
    generate(
        &WorkloadSpec {
            count: n,
            world: Rect::from_bounds(0.0, 0.0, WORLD, WORLD),
            kind: GeometryKind::Rect,
            placement: Placement::Uniform,
            max_extent: 6.0,
            seed,
        },
        id0,
    )
}

fn pool() -> BufferPool {
    BufferPool::new(Disk::new(DiskConfig::paper()), 256)
}

fn bench_join_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_strategies_overlaps");
    group.sample_size(10);
    let theta = ThetaOp::Overlaps;
    for &n in &[500usize, 2_000] {
        let r_tuples = workload(n, 1, 0);
        let s_tuples = workload(n, 2, 1_000_000);

        group.bench_with_input(BenchmarkId::new("I_nested_loop", n), &n, |b, _| {
            let mut p = pool();
            let r = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
            let s = StoredRelation::build(&mut p, &s_tuples, 300, Layout::Clustered);
            b.iter(|| {
                black_box(
                    nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null)
                        .unwrap()
                        .pairs
                        .len(),
                )
            });
        });

        group.bench_with_input(BenchmarkId::new("II_tree_join", n), &n, |b, _| {
            let mut p = pool();
            let tr = TreeRelation::new(
                &mut p,
                RTree::bulk_load(RTreeConfig::with_fanout(10), r_tuples.clone())
                    .tree()
                    .clone(),
                300,
                Layout::Clustered,
            );
            let ts = TreeRelation::new(
                &mut p,
                RTree::bulk_load(RTreeConfig::with_fanout(10), s_tuples.clone())
                    .tree()
                    .clone(),
                300,
                Layout::Clustered,
            );
            b.iter(|| {
                black_box(
                    tree_join(
                        &mut p,
                        &tr,
                        &ts,
                        theta,
                        Parallelism::sequential(),
                        &mut TraceSink::Null,
                    )
                    .unwrap()
                    .pairs
                    .len(),
                )
            });
        });

        group.bench_with_input(BenchmarkId::new("III_join_index_query", n), &n, |b, _| {
            let mut p = pool();
            let r = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
            let s = StoredRelation::build(&mut p, &s_tuples, 300, Layout::Clustered);
            let (idx, _) = JoinIndex::build(&mut p, &r, &s, theta, 100);
            b.iter(|| {
                black_box(
                    idx.join(&mut p, &r, &s, &mut TraceSink::Null)
                        .unwrap()
                        .pairs
                        .len(),
                )
            });
        });

        group.bench_with_input(BenchmarkId::new("zorder_sort_merge", n), &n, |b, _| {
            let mut p = pool();
            let r = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
            let s = StoredRelation::build(&mut p, &s_tuples, 300, Layout::Clustered);
            let grid = ZGrid::new(Rect::from_bounds(0.0, 0.0, WORLD, WORLD), 7);
            b.iter(|| {
                black_box(
                    zorder_overlap_join(&mut p, &r, &s, &grid, theta, &mut TraceSink::Null)
                        .unwrap()
                        .pairs
                        .len(),
                )
            });
        });

        group.bench_with_input(BenchmarkId::new("grid_file", n), &n, |b, _| {
            let mut p = pool();
            let r = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
            let s = StoredRelation::build(&mut p, &s_tuples, 300, Layout::Clustered);
            let cfg = GridConfig {
                world: Rect::from_bounds(0.0, 0.0, WORLD, WORLD),
                nx: 32,
                ny: 32,
            };
            b.iter(|| {
                black_box(
                    grid_join(&mut p, &r, &s, cfg, theta, &mut TraceSink::Null)
                        .unwrap()
                        .pairs
                        .len(),
                )
            });
        });
    }
    group.finish();
}

fn bench_join_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_index_build");
    group.sample_size(10);
    for &n in &[500usize, 1_000] {
        let r_tuples = workload(n, 1, 0);
        let s_tuples = workload(n, 2, 1_000_000);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut p = pool();
            let r = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
            let s = StoredRelation::build(&mut p, &s_tuples, 300, Layout::Clustered);
            b.iter(|| {
                let (idx, _) = JoinIndex::build(&mut p, &r, &s, ThetaOp::Overlaps, 100);
                black_box(idx.len())
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
    targets = bench_join_strategies, bench_join_index_build
);
criterion_main!(benches);
