//! Reproduces Figure 2: an R-tree as a generalization tree — builds a
//! small R-tree over rectangles and prints its nested-MBR structure, then
//! verifies the generalization-tree invariants at a larger scale.
//!
//! Run: `cargo run --release -p sj-bench --bin fig02_rtree`

use sj_gentree::rtree::{RTree, RTreeConfig, SplitStrategy};
use sj_gentree::{GenTree, NodeId};
use sj_geom::{Geometry, Rect};

fn print_subtree(tree: &GenTree, node: NodeId, depth: usize) {
    let mbr = tree.mbr(node);
    let label = match tree.entry(node) {
        Some(e) => format!("object {}", e.id),
        None => "directory".to_string(),
    };
    println!(
        "{:indent$}[{:5.1},{:5.1}]x[{:5.1},{:5.1}]  {label}",
        "",
        mbr.lo.x,
        mbr.hi.x,
        mbr.lo.y,
        mbr.hi.y,
        indent = depth * 2
    );
    for c in tree.children(node) {
        print_subtree(tree, c, depth + 1);
    }
}

fn main() {
    println!("# Figure 2: an R-tree (a hierarchy of nested rectangles)\n");
    let mut rt = RTree::new(RTreeConfig {
        max_entries: 4,
        min_entries: 2,
        split: SplitStrategy::Quadratic,
    });
    // A handful of rectangles reminiscent of the figure.
    let rects = [
        (2.0, 2.0, 12.0, 10.0),
        (14.0, 3.0, 22.0, 9.0),
        (4.0, 14.0, 10.0, 22.0),
        (13.0, 13.0, 21.0, 20.0),
        (24.0, 14.0, 30.0, 24.0),
        (25.0, 2.0, 31.0, 8.0),
        (6.0, 25.0, 14.0, 31.0),
        (18.0, 25.0, 26.0, 31.0),
        (1.0, 1.0, 5.0, 4.0),
        (28.0, 28.0, 31.0, 31.0),
    ];
    for (i, &(x0, y0, x1, y1)) in rects.iter().enumerate() {
        rt.insert(i as u64, Geometry::Rect(Rect::from_bounds(x0, y0, x1, y1)));
    }
    print_subtree(rt.tree(), rt.tree().root(), 0);

    println!("\n# Generalization-tree properties at scale (10,000 rectangles):");
    let entries: Vec<(u64, Geometry)> = (0..10_000u64)
        .map(|i| {
            let x = (i % 100) as f64 * 10.0;
            let y = (i / 100) as f64 * 10.0;
            (i, Geometry::Rect(Rect::from_bounds(x, y, x + 8.0, y + 8.0)))
        })
        .collect();
    let big = RTree::bulk_load(RTreeConfig::with_fanout(10), entries);
    big.check_invariants();
    let levels = big.tree().levels();
    println!("  height: {}", big.tree().height());
    for (i, lvl) in levels.iter().enumerate() {
        println!("  level {i}: {} nodes", lvl.len());
    }
    println!("  PART-OF invariant verified: every child MBR nests in its parent ✓");
}
