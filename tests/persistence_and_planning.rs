//! Integration: persistence and automatic planning across the full stack.

use spatial_joins::core::workload::load_house_lake;
use spatial_joins::core::{Database, Strategy, ThetaOp};
use spatial_joins::rel::planner::PlannerConfig;

fn temp_prefix(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sj_it_{}_{name}", std::process::id()));
    p
}

fn cleanup(prefix: &std::path::Path) {
    for ext in ["disk", "cat"] {
        let mut p = prefix.to_path_buf();
        p.set_file_name(format!(
            "{}.{ext}",
            prefix.file_name().unwrap().to_string_lossy()
        ));
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn saved_database_answers_identically_after_reopen() {
    let prefix = temp_prefix("house_lake");
    let theta = ThetaOp::WithinDistance(15.0);
    let expected = {
        let mut db = Database::in_memory();
        load_house_lake(&mut db, 400, 12, 5).unwrap();
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
        db.save(&prefix).expect("save");
        v
    };

    let mut db = Database::open(&prefix).expect("open");
    for strategy in [Strategy::NestedLoop, Strategy::Tree] {
        let got = db.spatial_join_ids("house", "hlocation", "lake", "larea", theta, strategy);
        let mut got = got.unwrap();
        got.sort_unstable();
        assert_eq!(got, expected);
    }
    cleanup(&prefix);
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
    assert!(plan.estimated_cost.is_finite() && plan.estimated_cost > 0.0);
}

#[test]
fn save_reopen_save_is_stable() {
    // Two generations of save/open: the second image must serve the same
    // data (exercises tombstones, directory stability, catalog rewrite).
    let p1 = temp_prefix("gen1");
    let p2 = temp_prefix("gen2");
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
    cleanup(&p1);
    cleanup(&p2);
}
