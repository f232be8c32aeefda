//! Ablation: R-tree split heuristics. The paper treats the R-tree as a
//! given generalization tree; its query cost in strategy II depends on how
//! well the splits localize — this binary compares Guttman's linear and
//! quadratic splits, the (post-paper) R* split, and STR bulk loading on
//! query work for the same data.
//!
//! Run: `cargo run --release -p sj-bench --bin ablation_splits`

use sj_core::workload::{generate, GeometryKind, Placement, WorkloadSpec};
use sj_gentree::rtree::{RTree, RTreeConfig, SplitStrategy};
use sj_gentree::select::select_flat;
use sj_geom::{Geometry, Point, Rect, ThetaOp};

fn main() {
    let world = Rect::from_bounds(0.0, 0.0, 1000.0, 1000.0);
    let tuples = generate(
        &WorkloadSpec {
            count: 5_000,
            world,
            kind: GeometryKind::Rect,
            placement: Placement::Clustered {
                clusters: 15,
                sigma: 60.0,
            },
            max_extent: 12.0,
            seed: 17,
        },
        0,
    );
    println!("# R-tree construction ablation: 5000 clustered rectangles, fan-out 10\n");
    println!(
        "{:<22} {:>8} {:>10} {:>14} {:>16} {:>14}",
        "construction", "height", "nodes", "dir overlap", "select visits", "select Θ"
    );

    let builds: Vec<(&str, RTree)> = vec![
        ("insert linear", build(SplitStrategy::Linear, &tuples)),
        ("insert quadratic", build(SplitStrategy::Quadratic, &tuples)),
        ("insert R*", build(SplitStrategy::RStar, &tuples)),
        (
            "STR bulk load",
            RTree::bulk_load(RTreeConfig::with_fanout(10), tuples.clone()),
        ),
    ];
    let probes: Vec<Geometry> = (0..50)
        .map(|i| Geometry::Point(Point::new((i * 97 % 1000) as f64, (i * 131 % 1000) as f64)))
        .collect();
    for (label, rt) in &builds {
        rt.check_invariants();
        let tree = rt.tree();
        // Directory overlap: total pairwise intersection area among
        // siblings (the quality metric splits try to minimize).
        let mut overlap = 0.0;
        for level in tree.levels() {
            for (i, &a) in level.iter().enumerate() {
                for &b in &level[i + 1..] {
                    if tree.parent(a) == tree.parent(b) {
                        if let Some(x) = tree.mbr(a).intersection(&tree.mbr(b)) {
                            overlap += x.area();
                        }
                    }
                }
            }
        }
        let (mut visits, mut filters) = (0u64, 0u64);
        for probe in &probes {
            let out = select_flat(tree, None, probe, ThetaOp::WithinDistance(20.0), |_| {});
            visits += out.stats.nodes_visited;
            filters += out.stats.filter_evals;
        }
        println!(
            "{label:<22} {:>8} {:>10} {:>14.0} {:>16} {:>14}",
            tree.height(),
            tree.node_count(),
            overlap,
            visits,
            filters
        );
    }
    println!("\n(Lower directory overlap → fewer subtrees qualify per query →");
    println!(" fewer node visits in Algorithm SELECT. STR benefits from seeing");
    println!(" all the data; among incremental splits, R* localizes best.)");
}

fn build(split: SplitStrategy, tuples: &[(u64, Geometry)]) -> RTree {
    let mut rt = RTree::new(RTreeConfig {
        max_entries: 10,
        min_entries: 4,
        split,
    });
    for (id, g) in tuples {
        rt.insert(*id, g.clone());
    }
    rt
}
