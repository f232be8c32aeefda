//! The strategy advisor: estimate a workload's join selectivity by
//! sampling, then let the §4 cost model recommend a strategy under
//! different update rates — the paper's §5 decision rule, end to end.
//!
//! Run with: `cargo run --release --example advisor`

use spatial_joins::core::advisor::{
    recommend, try_estimate_selectivity, Operation, WorkloadProfile,
};
use spatial_joins::core::workload::{generate, GeometryKind, Placement, WorkloadSpec};
use spatial_joins::core::{
    BufferPool, Disk, DiskConfig, Distribution, Layout, ModelParams, Rect, StoredRelation, ThetaOp,
};

fn main() {
    // A concrete workload to profile.
    let world = Rect::from_bounds(0.0, 0.0, 1000.0, 1000.0);
    let spec = |seed| WorkloadSpec {
        count: 5_000,
        world,
        kind: GeometryKind::Point,
        placement: Placement::Uniform,
        max_extent: 0.0,
        seed,
    };
    let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 256);
    let r = StoredRelation::build(&mut pool, &generate(&spec(1), 0), 300, Layout::Clustered);
    let s = StoredRelation::build(
        &mut pool,
        &generate(&spec(2), 1_000_000),
        300,
        Layout::Clustered,
    );
    let theta = ThetaOp::WithinDistance(5.0);

    let p_hat = try_estimate_selectivity(&mut pool, &r, &s, theta, 50_000, 7)
        .expect("in-memory disk cannot fault");
    println!("sampled selectivity for θ = within 5 km: p̂ = {p_hat:.2e}");
    println!("(analytically, two uniform points in 1000² match with p = π·25/10⁶ ≈ 7.9e-5)\n");

    println!(
        "{:>22} {:>10} | {:<26} {:>14}",
        "update rate", "op", "recommended strategy", "total cost"
    );
    for (updates, label) in [
        (0.0, "archival (no updates)"),
        (1e-4, "rare updates"),
        (0.1, "1 insert / 10 queries"),
        (10.0, "update-heavy"),
    ] {
        for op in [Operation::Join, Operation::Selection] {
            let profile = WorkloadProfile {
                params: ModelParams::paper(),
                distribution: Distribution::Uniform,
                selectivity: p_hat.max(1e-12),
                updates_per_query: updates,
                operation: op,
            };
            let (best, scores) = recommend(&profile);
            let total = scores
                .iter()
                .find(|sc| sc.candidate == best)
                .expect("winner is scored")
                .total(updates);
            println!(
                "{label:>22} {:>10} | {:<26} {total:>14.4e}",
                match op {
                    Operation::Join => "join",
                    Operation::Selection => "select",
                },
                best.label()
            );
        }
    }
    // The selectivity axis: with no updates, the join index takes over
    // once matches become scarce enough (Figure 11's crossover).
    println!("\nselectivity sweep (join, UNIFORM, no updates):");
    for sel in [1e-6, 1e-8, 1e-9, 1e-10, 1e-11] {
        let profile = WorkloadProfile {
            params: ModelParams::paper(),
            distribution: Distribution::Uniform,
            selectivity: sel,
            updates_per_query: 0.0,
            operation: Operation::Join,
        };
        let (best, _) = recommend(&profile);
        println!("  p = {sel:>8.0e} → {}", best.label());
    }
    println!("\n(The §5 rule emerges: join indices only while updates are rare");
    println!(" and matches scarce; generalization trees everywhere else.)");
}
