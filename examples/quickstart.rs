//! Quickstart: the paper's motivating query (2) —
//! *"Find all houses within 10 kilometers from a lake"* —
//! executed end-to-end through the extended-relational layer.
//!
//! Run with: `cargo run --release --example quickstart`

use spatial_joins::core::workload;
use spatial_joins::core::{Database, DbError, Strategy, ThetaOp, TraversalOrder, Value};

fn main() -> Result<(), DbError> {
    // A database on the simulated disk (2000-byte pages, 75% utilization,
    // LRU buffer pool) with the house(hid, hprice, hlocation) and
    // lake(lid, name, larea) relations of the paper's §2.2.
    let mut db = Database::in_memory();
    workload::load_house_lake(&mut db, 2_000, 40, 7)?;
    println!(
        "loaded {} houses and {} lakes",
        db.row_count("house")?,
        db.row_count("lake")?
    );

    // Every spatial column keeps an R-tree from creation on, maintained
    // by each write (strategy II traverses it). Re-lay both in one bulk
    // load at fan-out 10, clustered — a one-off cost, like any index
    // creation.
    use spatial_joins::core::Layout;
    db.create_spatial_index("house", "hlocation", 10, Layout::Clustered)?;
    db.create_spatial_index("lake", "larea", 10, Layout::Clustered)?;

    // The spatial join via the generalization-tree strategy (II).
    db.drop_caches();
    db.reset_io();
    let theta = ThetaOp::WithinDistance(10.0);
    let pairs = db.spatial_join("house", "hlocation", "lake", "larea", theta, Strategy::Tree)?;
    let io = db.io_stats();
    println!(
        "\n{} house-lake pairs within 10 km  ({} physical page reads)",
        pairs.len(),
        io.physical_reads
    );

    // Show a few results, projected onto the interesting columns.
    for (house, lake) in pairs.iter().take(5) {
        println!(
            "  house {} (price {:.0}) at {}  ~  {}",
            house[0],
            house[1].as_float().unwrap_or(0.0),
            house[2],
            lake[1]
        );
    }

    // The same join through strategy I (nested loop) returns the same set
    // at a very different cost — the heart of the paper's comparison.
    db.drop_caches();
    db.reset_io();
    let nl_pairs = db.spatial_join(
        "house",
        "hlocation",
        "lake",
        "larea",
        theta,
        Strategy::NestedLoop,
    )?;
    let nl_io = db.io_stats();
    assert_eq!(sorted(&pairs), sorted(&nl_pairs));
    println!(
        "\nnested loop finds the identical {} pairs, but θ-tests every pair:",
        nl_pairs.len(),
    );
    println!(
        "  strategy I:  {} θ-evaluations, {} page reads",
        db.row_count("house")? * db.row_count("lake")?,
        nl_io.physical_reads
    );
    println!(
        "  strategy II: hierarchical pruning via Θ-filters, {} page reads",
        io.physical_reads
    );

    // A degenerate spatial join — the paper's query (1) — is a spatial
    // *selection*: one object against a relation.
    let tahoe = db.geometry("lake", "larea", 0)?.expect("lake 0 is live");
    db.drop_caches();
    db.reset_io();
    let near = db.spatial_select(
        "house",
        "hlocation",
        &tahoe,
        ThetaOp::WithinDistance(25.0),
        TraversalOrder::BreadthFirst,
    )?;
    println!(
        "\nspatial selection: {} houses within 25 km of lake 0 ({} page reads)",
        near.len(),
        db.io_stats().physical_reads
    );
    for (_, h) in near.iter().take(3) {
        println!("  house {} at {}", h[0], h[2]);
    }
    Ok(())
}

fn sorted(pairs: &[(Vec<Value>, Vec<Value>)]) -> Vec<(i64, i64)> {
    let mut v: Vec<(i64, i64)> = pairs
        .iter()
        .map(|(a, b)| (a[0].as_int().unwrap(), b[0].as_int().unwrap()))
        .collect();
    v.sort_unstable();
    v
}
