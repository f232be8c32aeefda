//! Integration: persistence and automatic planning across the full stack.

use spatial_joins::core::workload::load_house_lake;
use spatial_joins::core::{Database, Strategy, ThetaOp};
use spatial_joins::rel::planner::PlannerConfig;

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sj_it_{}_{name}.sjdb", std::process::id()));
    p
}

fn cleanup(path: &std::path::Path) {
    std::fs::remove_file(path).ok();
}

#[test]
fn saved_database_answers_identically_after_reopen() {
    let path = temp_path("house_lake");
    let theta = ThetaOp::WithinDistance(15.0);
    let strategies = [
        Strategy::NestedLoop,
        Strategy::Sweep,
        Strategy::Tree,
        Strategy::JoinIndex,
        Strategy::Partition,
        Strategy::Auto,
    ];
    let join = |db: &mut Database, strategy| {
        db.spatial_join_ids("house", "hlocation", "lake", "larea", theta, strategy)
            .unwrap()
    };
    let mut saved = Database::in_memory();
    load_house_lake(&mut saved, 400, 12, 5).unwrap();
    saved.save(&path).expect("save");
    let mut expected = join(&mut saved, Strategy::NestedLoop);
    expected.sort_unstable();

    let mut db = Database::open(&path).expect("open");
    for strategy in strategies {
        // The same pairs in the same order as the saved database.
        let got = join(&mut db, strategy);
        assert_eq!(got, join(&mut saved, strategy), "{strategy:?}");
        let mut got = got;
        got.sort_unstable();
        assert_eq!(got, expected, "{strategy:?}");
    }
    cleanup(&path);
}

#[test]
fn planner_runs_end_to_end_on_house_lake() {
    let mut db = Database::in_memory();
    load_house_lake(&mut db, 500, 10, 8).unwrap();
    let theta = ThetaOp::WithinDistance(20.0);
    let reference = {
        let v = db.spatial_join_ids(
            "house",
            "hlocation",
            "lake",
            "larea",
            theta,
            Strategy::NestedLoop,
        );
        let mut v = v.unwrap();
        v.sort_unstable();
        v
    };
    let (plan, mut pairs) = db
        .spatial_join_auto(
            "house",
            "hlocation",
            "lake",
            "larea",
            theta,
            PlannerConfig::default(),
        )
        .unwrap();
    pairs.sort_unstable();
    assert_eq!(pairs, reference);
    assert!(plan.cost.is_finite() && plan.cost > 0.0);
}

#[test]
fn save_reopen_save_is_stable() {
    // Two generations of save/open: the second image must serve the same
    // data (exercises tombstones, directory stability, catalog rewrite).
    let p1 = temp_path("gen1");
    let p2 = temp_path("gen2");
    {
        let mut db = Database::in_memory();
        load_house_lake(&mut db, 200, 6, 2).unwrap();
        db.save(&p1).expect("first save");
    }
    let rows = {
        let mut db = Database::open(&p1).expect("first open");
        db.insert(
            "house",
            vec![
                spatial_joins::rel::Value::Int(777),
                spatial_joins::rel::Value::Float(1.0),
                spatial_joins::rel::Value::Spatial(spatial_joins::geom::Geometry::Point(
                    spatial_joins::geom::Point::new(1.0, 2.0),
                )),
            ],
        )
        .unwrap();
        db.save(&p2).expect("second save");
        db.row_count("house").unwrap()
    };
    let mut db = Database::open(&p2).expect("second open");
    assert_eq!(db.row_count("house"), Ok(rows));
    let last = db.get("house", rows as u64 - 1).unwrap().unwrap();
    assert_eq!(last[0], spatial_joins::rel::Value::Int(777));
    // Saving what was opened writes the same file again.
    let p3 = temp_path("gen3");
    db.save(&p3).expect("third save");
    assert_eq!(std::fs::read(&p3).unwrap(), std::fs::read(&p2).unwrap());
    cleanup(&p1);
    cleanup(&p2);
    cleanup(&p3);
}
