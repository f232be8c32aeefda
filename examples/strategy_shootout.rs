//! Strategy shoot-out: all five executable join strategies on the same
//! workload, reporting work in the cost model's units (θ/Θ-evaluations and
//! physical page I/O) — the measured counterpart of the paper's §4.5.
//!
//! Run with: `cargo run --release --example strategy_shootout`

use spatial_joins::core::workload::{generate, GeometryKind, Placement, WorkloadSpec};
use spatial_joins::core::{
    BufferPool, Disk, DiskConfig, JoinIndex, Layout, Rect, StoredRelation, ThetaOp, TreeRelation,
    ZGrid,
};
use spatial_joins::gentree::rtree::{RTree, RTreeConfig};
use spatial_joins::joins::grid::{grid_join, GridConfig};
use spatial_joins::joins::nested_loop::nested_loop_join;
use spatial_joins::joins::sort_merge::zorder_overlap_join;
use spatial_joins::joins::tree_join::tree_join;
use spatial_joins::joins::{ExecStats, TraceSink};

const WORLD: f64 = 1000.0;
const MEM_PAGES: usize = 64;
const RECORD: usize = 300;

fn pool() -> BufferPool {
    BufferPool::new(Disk::new(DiskConfig::paper()), MEM_PAGES)
}

fn row(label: &str, pairs: usize, s: &ExecStats) {
    println!(
        "{label:<28} {:>8} {:>12} {:>12} {:>10} {:>14.0}",
        pairs,
        s.theta_evals,
        s.filter_evals,
        s.physical_reads,
        s.cost(1.0, 1000.0)
    );
}

fn main() {
    let world = Rect::from_bounds(0.0, 0.0, WORLD, WORLD);
    let r_tuples = generate(
        &WorkloadSpec {
            count: 3000,
            world,
            kind: GeometryKind::Rect,
            placement: Placement::Clustered {
                clusters: 12,
                sigma: 70.0,
            },
            max_extent: 8.0,
            seed: 11,
        },
        0,
    );
    let s_tuples = generate(
        &WorkloadSpec {
            count: 3000,
            world,
            kind: GeometryKind::Rect,
            placement: Placement::Uniform,
            max_extent: 8.0,
            seed: 12,
        },
        100_000,
    );
    let theta = ThetaOp::Overlaps;
    println!("workload: |R| = |S| = 3000 rectangles, θ = overlaps, M = {MEM_PAGES} pages\n");
    println!(
        "{:<28} {:>8} {:>12} {:>12} {:>10} {:>14}",
        "strategy", "pairs", "θ evals", "Θ evals", "reads", "model cost"
    );

    // Strategy I.
    let mut p = pool();
    let r = StoredRelation::build(&mut p, &r_tuples, RECORD, Layout::Clustered);
    let s = StoredRelation::build(&mut p, &s_tuples, RECORD, Layout::Clustered);
    p.clear();
    p.reset_stats();
    let nl = nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null)
        .expect("in-memory disk cannot fault");
    row("I   nested loop", nl.pairs.len(), &nl.stats);
    let reference = {
        let mut v = nl.pairs.clone();
        v.sort_unstable();
        v
    };

    // Strategy II, unclustered and clustered tree storage.
    for (label, layout) in [
        (
            "IIa gen-tree (unclustered)",
            Layout::Unclustered { seed: 5 },
        ),
        ("IIb gen-tree (clustered)", Layout::Clustered),
    ] {
        let mut p = pool();
        let tr = TreeRelation::new(
            &mut p,
            RTree::bulk_load(RTreeConfig::with_fanout(10), r_tuples.clone())
                .tree()
                .clone(),
            RECORD,
            layout,
        );
        let ts = TreeRelation::new(
            &mut p,
            RTree::bulk_load(RTreeConfig::with_fanout(10), s_tuples.clone())
                .tree()
                .clone(),
            RECORD,
            layout,
        );
        p.clear();
        p.reset_stats();
        let run = tree_join(&mut p, &tr, &ts, theta, &mut TraceSink::Null)
            .expect("in-memory disk cannot fault");
        assert_eq!(sorted(&run.pairs), reference);
        row(label, run.pairs.len(), &run.stats);
    }

    // Strategy III: the join itself after the index exists (its build cost
    // is reported separately — that is the paper's trade-off).
    let mut p = pool();
    let r = StoredRelation::build(&mut p, &r_tuples, RECORD, Layout::Clustered);
    let s = StoredRelation::build(&mut p, &s_tuples, RECORD, Layout::Clustered);
    let (idx, build) =
        JoinIndex::try_build(&mut p, &r, &s, theta, 100).expect("in-memory disk cannot fault");
    p.clear();
    p.reset_stats();
    let run = idx
        .join(&mut p, &r, &s, &mut TraceSink::Null)
        .expect("in-memory disk cannot fault");
    assert_eq!(sorted(&run.pairs), reference);
    row("III join index (query)", run.pairs.len(), &run.stats);
    println!(
        "    └ index build cost: {} θ evals, {} reads, {} writes",
        build.theta_evals, build.physical_reads, build.physical_writes
    );

    // Z-order sort-merge (θ = overlaps is exactly its supported case).
    let mut p = pool();
    let r = StoredRelation::build(&mut p, &r_tuples, RECORD, Layout::Clustered);
    let s = StoredRelation::build(&mut p, &s_tuples, RECORD, Layout::Clustered);
    p.clear();
    p.reset_stats();
    let grid = ZGrid::new(world, 7);
    let run = zorder_overlap_join(&mut p, &r, &s, &grid, theta, &mut TraceSink::Null)
        .expect("in-memory disk cannot fault");
    assert_eq!(sorted(&run.pairs), reference);
    row("    z-order sort-merge", run.pairs.len(), &run.stats);

    // Grid-file join.
    let mut p = pool();
    let r = StoredRelation::build(&mut p, &r_tuples, RECORD, Layout::Clustered);
    let s = StoredRelation::build(&mut p, &s_tuples, RECORD, Layout::Clustered);
    p.clear();
    p.reset_stats();
    let run = grid_join(
        &mut p,
        &r,
        &s,
        GridConfig {
            world,
            nx: 32,
            ny: 32,
        },
        theta,
        &mut TraceSink::Null,
    )
    .expect("in-memory disk cannot fault");
    assert_eq!(sorted(&run.pairs), reference);
    row("    grid file", run.pairs.len(), &run.stats);

    println!("\nall strategies returned identical result sets ✓");
}

fn sorted(pairs: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut v = pairs.to_vec();
    v.sort_unstable();
    v
}
