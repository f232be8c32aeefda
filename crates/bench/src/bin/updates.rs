//! Reproduces the update-cost comparison discussed alongside Figures 8–13
//! (§4.2 and §4.5): analytic `U_I`, `U_IIa`, `U_IIb`, `U_III` at the
//! Table 3 parameters, a sensitivity sweep over the fan-out `k`, and a
//! measured maintenance comparison on the executors.
//!
//! Run: `cargo run --release -p sj-bench --bin updates`

use sj_costmodel::{update, ModelParams};
use sj_geom::{Geometry, Point, ThetaOp};
use sj_joins::{JoinIndex, StoredRelation};
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};

fn main() {
    let params = ModelParams::paper();
    sj_bench::print_params(&params);
    println!("\n# Analytic insertion costs (model units):");
    println!(
        "  U_I    = {:>14.0}   (nested loop: no structure to maintain)",
        update::u_i(&params)
    );
    println!(
        "  U_IIa  = {:>14.0}   (unclustered generalization tree)",
        update::u_iia(&params)
    );
    println!(
        "  U_IIb  = {:>14.0}   (clustered generalization tree)",
        update::u_iib(&params)
    );
    println!(
        "  U_III  = {:>14.0}   (join index, T = N)",
        update::u_iii(&params)
    );
    println!(
        "  → join-index maintenance is {:.0}× the clustered tree's",
        update::u_iii(&params) / update::u_iib(&params)
    );

    println!("\n# Sensitivity to the fan-out k (n adjusted to keep N ≈ 10⁶):");
    println!(
        "  {:>3} {:>3} {:>12} {:>14} {:>14} {:>14}",
        "k", "n", "N", "U_IIa", "U_IIb", "U_III"
    );
    for (k, n) in [(4usize, 10usize), (10, 6), (32, 4), (100, 3)] {
        let mut p = ModelParams {
            k,
            n,
            h: n,
            ..params
        };
        p.t = p.n_tuples();
        println!(
            "  {:>3} {:>3} {:>12.0} {:>14.0} {:>14.0} {:>14.0}",
            k,
            n,
            p.n_tuples(),
            update::u_iia(&p),
            update::u_iib(&p),
            update::u_iii(&p)
        );
    }

    println!("\n# Measured maintenance (reduced scale, 2,000-tuple relations):");
    let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 128);
    let tuples = |id0: u64| -> Vec<(u64, Geometry)> {
        (0..2000u64)
            .map(|i| {
                (
                    id0 + i,
                    Geometry::Point(Point::new((i % 50) as f64, (i / 50) as f64)),
                )
            })
            .collect()
    };
    let r = StoredRelation::build(&mut pool, &tuples(0), 300, Layout::Clustered);
    let s = StoredRelation::build(&mut pool, &tuples(100_000), 300, Layout::Clustered);
    let theta = ThetaOp::WithinDistance(1.1);
    let (mut idx, build) =
        JoinIndex::try_build(&mut pool, &r, &s, theta, 100).expect("in-memory disk cannot fault");
    println!(
        "  join-index build: {} θ-evals, {} reads, {} writes; {} entries, height {}",
        build.theta_evals,
        build.physical_reads,
        build.physical_writes,
        idx.len(),
        idx.height()
    );
    pool.clear();
    pool.reset_stats();
    let maint = idx
        .maintain_insert_r(
            &mut pool,
            999_999,
            &Geometry::Point(Point::new(25.0, 25.0)),
            &s,
        )
        .expect("in-memory disk cannot fault");
    println!(
        "  one insertion with a join index: {} θ-evals (= |S|), {} page reads",
        maint.theta_evals, maint.physical_reads
    );
    println!("  one insertion into an R-tree: O(height·k) comparisons — measured below");

    use sj_gentree::rtree::{RTree, RTreeConfig};
    let mut rt = RTree::bulk_load(RTreeConfig::with_fanout(10), tuples(0));
    let t0 = std::time::Instant::now();
    rt.insert(999_999, Geometry::Point(Point::new(25.0, 25.0)));
    println!(
        "  (R-tree insert touched a height-{} path in {:?})",
        rt.tree().height(),
        t0.elapsed()
    );
}
