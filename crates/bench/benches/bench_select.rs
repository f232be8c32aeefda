//! Selection-strategy wall-clock: exhaustive scan (I) vs Algorithm SELECT
//! over the R-tree (II) vs the z-value index.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sj_core::workload::{generate, GeometryKind, Placement, WorkloadSpec};
use sj_gentree::rtree::{RTree, RTreeConfig};
use sj_geom::{Geometry, Rect, ThetaOp};
use sj_joins::nested_loop::exhaustive_select;
use sj_joins::tree_join::{tree_select, TraversalOrder};
use sj_joins::{StoredRelation, TreeRelation, ZIndex};
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};
use sj_zorder::ZGrid;
use std::hint::black_box;

const WORLD: f64 = 1000.0;

fn bench_select_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_strategies");
    for &n in &[1_000usize, 10_000] {
        let tuples = generate(
            &WorkloadSpec {
                count: n,
                world: Rect::from_bounds(0.0, 0.0, WORLD, WORLD),
                kind: GeometryKind::Rect,
                placement: Placement::Uniform,
                max_extent: 5.0,
                seed: 3,
            },
            0,
        );
        let window = Geometry::Rect(Rect::from_bounds(400.0, 400.0, 480.0, 480.0));
        let theta = ThetaOp::Overlaps;

        group.bench_with_input(BenchmarkId::new("I_exhaustive", n), &n, |b, _| {
            let mut p = BufferPool::new(Disk::new(DiskConfig::paper()), 10_000);
            let rel = StoredRelation::build(&mut p, &tuples, 300, Layout::Clustered);
            b.iter(|| {
                black_box(
                    exhaustive_select(&mut p, &rel, &window, theta)
                        .unwrap()
                        .matches
                        .len(),
                )
            });
        });

        group.bench_with_input(BenchmarkId::new("II_tree_select", n), &n, |b, _| {
            let mut p = BufferPool::new(Disk::new(DiskConfig::paper()), 10_000);
            let tr = TreeRelation::new(
                &mut p,
                RTree::bulk_load(RTreeConfig::with_fanout(10), tuples.clone())
                    .tree()
                    .clone(),
                300,
                Layout::Clustered,
            );
            b.iter(|| {
                black_box(
                    tree_select(&mut p, &tr, &window, theta, TraversalOrder::BreadthFirst)
                        .unwrap()
                        .matches
                        .len(),
                )
            });
        });

        group.bench_with_input(BenchmarkId::new("zvalue_index", n), &n, |b, _| {
            let mut p = BufferPool::new(Disk::new(DiskConfig::paper()), 10_000);
            let rel = StoredRelation::build(&mut p, &tuples, 300, Layout::Clustered);
            let idx = ZIndex::build(
                &mut p,
                &rel,
                ZGrid::new(Rect::from_bounds(0.0, 0.0, WORLD, WORLD), 8),
                100,
            );
            b.iter(|| {
                black_box(
                    idx.select(&mut p, &rel, &window, theta)
                        .unwrap()
                        .matches
                        .len(),
                )
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
    targets = bench_select_strategies
);
criterion_main!(benches);
