//! Reproduces Figure 1: a spatial grid with a z-ordering (Peano curve),
//! demonstrating that spatially adjacent cells can be far apart in the
//! z-sequence — and that a windowed sort-merge consequently misses
//! `adjacent` matches, while the z-element approach stays complete for
//! `overlaps`.
//!
//! Run: `cargo run --release -p sj-bench --bin fig01_zorder`

use sj_geom::{Geometry, Rect, ThetaOp};
use sj_joins::nested_loop::nested_loop_join;
use sj_joins::sort_merge::naive_zvalue_sort_merge;
use sj_joins::{StoredRelation, TraceSink};
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};
use sj_zorder::{interleave, ZGrid};

fn main() {
    println!("# Figure 1: an 8x8 grid in z-order (cell label = z-value)\n");
    for row in (0..8u32).rev() {
        for col in 0..8u32 {
            print!("{:>4}", interleave(col, row));
        }
        println!();
    }

    println!("\n# Spatially adjacent cell pairs with large z-distance:");
    type AdjacentPair = (u64, (u32, u32), (u32, u32));
    let mut worst: Vec<AdjacentPair> = Vec::new();
    for y in 0..8u32 {
        for x in 0..7u32 {
            let gap = interleave(x, y).abs_diff(interleave(x + 1, y));
            worst.push((gap, (x, y), (x + 1, y)));
        }
    }
    worst.sort_by_key(|w| std::cmp::Reverse(w.0));
    for (gap, a, b) in worst.iter().take(5) {
        println!("  cells {a:?} and {b:?}: z-distance {gap}");
    }

    // The sort-merge failure (the paper's (o3, o9) example): adjacent
    // squares across the major quadrant boundary.
    println!("\n# Sort-merge on single z-values misses adjacent pairs:");
    let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 64);
    let grid = ZGrid::new(Rect::from_bounds(0.0, 0.0, 8.0, 8.0), 3);
    let cells = |coords: &[(f64, f64)], id0: u64, pool: &mut BufferPool| {
        let tuples: Vec<(u64, Geometry)> = coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| {
                (
                    id0 + i as u64,
                    Geometry::Rect(Rect::from_bounds(x, y, x + 1.0, y + 1.0)),
                )
            })
            .collect();
        StoredRelation::build(pool, &tuples, 300, Layout::Clustered)
    };
    let r = cells(
        &[(3.0, 0.0), (3.0, 2.0), (3.0, 5.0), (1.0, 1.0)],
        0,
        &mut pool,
    );
    let s = cells(
        &[(4.0, 0.0), (4.0, 2.0), (4.0, 5.0), (2.0, 1.0)],
        100,
        &mut pool,
    );
    let complete = nested_loop_join(&mut pool, &r, &s, ThetaOp::Adjacent, &mut TraceSink::Null)
        .expect("in-memory disk cannot fault");
    for window in [1usize, 2, 4, 1000] {
        let naive = naive_zvalue_sort_merge(&mut pool, &r, &s, &grid, ThetaOp::Adjacent, window)
            .expect("in-memory disk cannot fault");
        println!(
            "  merge window {window:>4}: {} of {} adjacent pairs found{}",
            naive.pairs.len(),
            complete.pairs.len(),
            if naive.pairs.len() < complete.pairs.len() {
                "  ← matches MISSED"
            } else {
                ""
            }
        );
    }
    println!("\n(The paper's conclusion: no total spatial order preserves proximity;");
    println!(" sort-merge is sound for spatial θ-joins only via the z-element");
    println!(" decomposition, and only for overlap-family operators.)");
}
