//! Ablation: **local join indices** — the paper's §5 future-work proposal
//! ("a mixture between the pure generalization trees and pure join
//! indices... we expect one of those mixed strategies to be the one that
//! is optimal in terms of average performance").
//!
//! Sweeps the anchor level L from 0 (= one global join index, pure
//! strategy III) towards the leaves (→ pure strategy II behaviour) and
//! reports precomputation cost, maintenance cost, and query cost.
//!
//! Run: `cargo run --release -p sj-bench --bin ablation_local_index`

use sj_core::workload::{generate, GeometryKind, Placement, WorkloadSpec};
use sj_gentree::rtree::{RTree, RTreeConfig};
use sj_geom::{Geometry, Point, Rect, ThetaOp};
use sj_joins::local_index::LocalJoinIndex;
use sj_joins::{TraceSink, TreeRelation};
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};

fn main() {
    let world = Rect::from_bounds(0.0, 0.0, 1000.0, 1000.0);
    let spec = |seed| WorkloadSpec {
        count: 2_000,
        world,
        kind: GeometryKind::Point,
        placement: Placement::Uniform,
        max_extent: 0.0,
        seed,
    };
    let r_tuples = generate(&spec(1), 0);
    let s_tuples = generate(&spec(2), 1_000_000);
    let theta = ThetaOp::WithinDistance(8.0);

    let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 512);
    let r = TreeRelation::new(
        &mut pool,
        RTree::bulk_load(RTreeConfig::with_fanout(10), r_tuples.clone())
            .tree()
            .clone(),
        300,
        Layout::Clustered,
    );
    let s = TreeRelation::new(
        &mut pool,
        RTree::bulk_load(RTreeConfig::with_fanout(10), s_tuples.clone())
            .tree()
            .clone(),
        300,
        Layout::Clustered,
    );

    println!("# Local join indices: anchor-level sweep");
    println!(
        "# |R| = |S| = 2000 points, θ = within 8, tree height = {}\n",
        r.tree.height()
    );
    println!(
        "{:>5} {:>11} {:>12} {:>12} {:>12} {:>13} {:>12} {:>12}",
        "L", "partitions", "build Θ", "build θ", "index pages", "maint θ", "query reads", "pairs"
    );

    let probe = Geometry::Point(Point::new(512.0, 512.0));
    let mut reference: Option<Vec<(u64, u64)>> = None;
    for level in 0..=r.tree.height() {
        let (mut idx, build) = LocalJoinIndex::try_build(&mut pool, &r, &s, theta, level, 100)
            .expect("in-memory disk cannot fault");
        let maint = {
            // Measure one maintenance insertion, then discard its effect by
            // rebuilding below on the next iteration (each level rebuilds).
            idx.maintain_insert_r(&r.tree, &s.tree, 42_4242, &probe)
        };
        // Rebuild for the query so the extra tuple does not pollute it.
        let (idx, _) = LocalJoinIndex::try_build(&mut pool, &r, &s, theta, level, 100)
            .expect("in-memory disk cannot fault");
        let run = idx
            .join(&mut pool, &mut TraceSink::Null)
            .expect("in-memory disk cannot fault");
        match &reference {
            Some(want) => assert_eq!(&run.pairs, want, "level {level} result differs"),
            None => reference = Some(run.pairs.clone()),
        }
        println!(
            "{:>5} {:>11} {:>12} {:>12} {:>12} {:>13} {:>12} {:>12}",
            level,
            idx.partition_count(),
            build.filter_evals,
            build.theta_evals,
            idx.node_count(),
            maint.theta_evals,
            run.stats.physical_reads,
            run.pairs.len()
        );
    }
    println!("\n(L = 0 is a single global join index: N² build, |S| maintenance.");
    println!(" Deeper anchors cut both, at the price of more index fragments —");
    println!(" the mixed-strategy trade-off the paper anticipated. Note the Θ-filter");
    println!(" work on anchor pairs growing as k^(2L): the optimum is interior.)");
}
