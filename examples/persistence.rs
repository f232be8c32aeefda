//! Persistence: build a spatial database, save it to disk, reopen it in a
//! "new process" (new Database value), and query it — indices are derived
//! data: opening re-applies the saved rows, which maintains each spatial
//! column's R-tree at its saved fan-out and layout.
//!
//! Run with: `cargo run --release --example persistence`

use spatial_joins::core::workload::load_house_lake;
use spatial_joins::core::{Database, Strategy, ThetaOp};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut path = std::env::temp_dir();
    path.push(format!("sj_example_db_{}.sjdb", std::process::id()));

    // Session 1: create, populate, save.
    {
        let mut db = Database::in_memory();
        load_house_lake(&mut db, 1_000, 25, 3)?;
        db.save(&path)?;
        println!(
            "saved {} houses and {} lakes to {}",
            db.row_count("house")?,
            db.row_count("lake")?,
            path.display()
        );
    }

    // Session 2: reopen and query.
    let mut db = Database::open(&path)?;
    println!(
        "reopened: {} houses, {} lakes",
        db.row_count("house")?,
        db.row_count("lake")?
    );
    let theta = ThetaOp::WithinDistance(12.0);
    let pairs = db.spatial_join("house", "hlocation", "lake", "larea", theta, Strategy::Tree)?;
    println!(
        "{} house-lake pairs within 12 km (R-trees maintained since open)",
        pairs.len()
    );

    // The reopened database is fully writable.
    use spatial_joins::geom::{Geometry, Point};
    use spatial_joins::rel::Value;
    db.insert(
        "house",
        vec![
            Value::Int(1_000_000),
            Value::Float(1.0),
            Value::Spatial(Geometry::Point(Point::new(500.0, 500.0))),
        ],
    )?;
    println!(
        "inserted one more house; now {} rows",
        db.row_count("house")?
    );

    std::fs::remove_file(&path)?;
    Ok(())
}
