//! End-to-end integration: the paper's running example ("houses within 10
//! km from a lake") through the full stack — relational layer, storage
//! simulator, R-tree indices, and every join strategy.

use spatial_joins::core::workload::load_house_lake;
use spatial_joins::core::{Database, DbError, Geometry, Layout, Strategy, ThetaOp, Value};
use spatial_joins::core::{TraversalOrder, Tuple};

fn build_db() -> Database {
    let mut db = Database::in_memory();
    load_house_lake(&mut db, 600, 20, 31).unwrap();
    db
}

fn ids(pairs: &[(Vec<Value>, Vec<Value>)]) -> Vec<(i64, i64)> {
    let mut v: Vec<(i64, i64)> = pairs
        .iter()
        .map(|(a, b)| (a[0].as_int().unwrap(), b[0].as_int().unwrap()))
        .collect();
    v.sort_unstable();
    v
}

fn house_lake(
    db: &mut Database,
    theta: ThetaOp,
    strategy: Strategy,
) -> Result<Vec<(Tuple, Tuple)>, DbError> {
    db.spatial_join("house", "hlocation", "lake", "larea", theta, strategy)
}

#[test]
fn all_join_strategies_agree_on_house_lake() -> Result<(), DbError> {
    let mut db = build_db();
    let theta = ThetaOp::WithinDistance(15.0);
    let reference = ids(&house_lake(&mut db, theta, Strategy::NestedLoop)?);
    assert!(!reference.is_empty(), "the workload should produce matches");

    db.create_spatial_index("house", "hlocation", 8, Layout::Clustered)?;
    db.create_spatial_index("lake", "larea", 4, Layout::Unclustered { seed: 2 })?;
    let tree = ids(&house_lake(&mut db, theta, Strategy::Tree)?);
    assert_eq!(tree, reference);

    db.create_join_index("house", "hlocation", "lake", "larea", theta)?;
    let ji = ids(&house_lake(&mut db, theta, Strategy::JoinIndex)?);
    assert_eq!(ji, reference);

    let partition = ids(&house_lake(&mut db, theta, Strategy::Partition)?);
    assert_eq!(partition, reference);
    Ok(())
}

#[test]
fn join_results_actually_satisfy_theta() {
    let mut db = build_db();
    let theta = ThetaOp::WithinDistance(12.0);
    let pairs = house_lake(&mut db, theta, Strategy::NestedLoop).unwrap();
    for (house, lake) in pairs {
        let h = house[2].as_spatial().expect("spatial column");
        let l = lake[2].as_spatial().expect("spatial column");
        assert!(
            h.distance(l) <= 12.0 + 1e-9,
            "reported pair violates θ: {h:?} vs {l:?}"
        );
    }
}

#[test]
fn selection_pipeline_with_scalar_predicates() {
    // The paper's §2.1 pattern: scalar selection, then (spatial) join,
    // then projection.
    let mut db = build_db();
    // "Expensive houses" — scalar σ.
    let expensive = db.select("house", |row| row[1].as_float().unwrap() > 1_500_000.0);
    let expensive = expensive.unwrap();
    assert!(!expensive.is_empty());
    // Spatial σ for each: lakes near the house.
    let (hid, house) = &expensive[0];
    let loc = house[2].as_spatial().unwrap().clone();
    let theta = ThetaOp::WithinDistance(300.0);
    let lakes_near = db.spatial_select("lake", "larea", &loc, theta, TraversalOrder::BreadthFirst);
    let lakes_near = lakes_near.unwrap();
    // The exhaustive oracle: θ as a scalar predicate over every row.
    let lakes_near_exh = db.select("lake", |row| theta.eval(&loc, row[2].as_spatial().unwrap()));
    let lakes_near_exh = lakes_near_exh.unwrap();
    let mut a: Vec<u64> = lakes_near.iter().map(|(id, _)| *id).collect();
    let mut b: Vec<u64> = lakes_near_exh.iter().map(|(id, _)| *id).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "house {hid}: tree and exhaustive selection differ");

    // π: project the lake rows onto (lid, name).
    let schema = db.schema("lake").unwrap().clone();
    let rows: Vec<Vec<Value>> = lakes_near.into_iter().map(|(_, t)| t).collect();
    let (ps, projected) = Database::project(&schema, &rows, &["lid", "name"]).unwrap();
    assert_eq!(ps.names(), vec!["lid", "name"]);
    for row in &projected {
        assert_eq!(row.len(), 2);
        assert!(matches!(row[1], Value::Str(_)));
    }
}

#[test]
fn spatial_selection_follows_inserts() {
    // Indices are rebuilt transparently after new rows arrive.
    let mut db = build_db();
    db.create_spatial_index("house", "hlocation", 8, Layout::Clustered)
        .unwrap();
    let probe = Geometry::Point(spatial_joins::geom::Point::new(500.0, 500.0));
    let (theta, order) = (ThetaOp::WithinDistance(1.0), TraversalOrder::BreadthFirst);
    let near = |db: &mut Database| {
        let hits = db.spatial_select("house", "hlocation", &probe, theta, order);
        hits.unwrap().len()
    };
    let before = near(&mut db);
    db.insert(
        "house",
        vec![
            Value::Int(99_999),
            Value::Float(1.0),
            Value::Spatial(probe.clone()),
        ],
    )
    .unwrap();
    let after = near(&mut db);
    assert_eq!(after, before + 1);
}

#[test]
fn join_index_pays_off_at_query_time_but_not_at_update_time() {
    let mut db = build_db();
    let theta = ThetaOp::WithinDistance(15.0);
    db.create_join_index("house", "hlocation", "lake", "larea", theta)
        .unwrap();

    // Query through the index: zero θ-evaluations (checked by strategy
    // internals), modest I/O.
    let mut cold_reads = |strategy| {
        db.drop_caches();
        db.reset_io();
        let join = db.spatial_join_ids("house", "hlocation", "lake", "larea", theta, strategy);
        join.unwrap();
        db.io_stats().physical_reads
    };
    let index_reads = cold_reads(Strategy::JoinIndex);
    let nl_reads = cold_reads(Strategy::NestedLoop);
    assert!(
        index_reads <= nl_reads,
        "join-index query I/O ({index_reads}) should not exceed nested loop ({nl_reads})"
    );
}

#[test]
fn polyline_workloads_join_consistently() {
    // Roads (polylines) joined with lakes-style rectangles: strategies
    // must agree on mixed-dimensional geometry too.
    use spatial_joins::core::workload::{generate, GeometryKind, Placement, WorkloadSpec};
    use spatial_joins::core::{BufferPool, Disk, DiskConfig, Rect, StoredRelation, TreeRelation};
    use spatial_joins::gentree::rtree::{RTree, RTreeConfig};
    use spatial_joins::joins::nested_loop::nested_loop_join;
    use spatial_joins::joins::tree_join::tree_join;
    use spatial_joins::joins::TraceSink;

    let world = Rect::from_bounds(0.0, 0.0, 500.0, 500.0);
    let roads = generate(
        &WorkloadSpec {
            count: 200,
            world,
            kind: GeometryKind::Polyline,
            placement: Placement::Uniform,
            max_extent: 40.0,
            seed: 21,
        },
        0,
    );
    let zones = generate(
        &WorkloadSpec {
            count: 150,
            world,
            kind: GeometryKind::Rect,
            placement: Placement::Uniform,
            max_extent: 25.0,
            seed: 22,
        },
        100_000,
    );
    let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 128);
    let r = StoredRelation::build(
        &mut pool,
        &roads,
        300,
        spatial_joins::storage::Layout::Clustered,
    );
    let s = StoredRelation::build(
        &mut pool,
        &zones,
        300,
        spatial_joins::storage::Layout::Clustered,
    );
    let theta = ThetaOp::WithinDistance(3.0);
    let mut reference = nested_loop_join(&mut pool, &r, &s, theta, &mut TraceSink::Null)
        .unwrap()
        .pairs;
    reference.sort_unstable();
    assert!(!reference.is_empty(), "roads should pass near zones");

    let tr = TreeRelation::new(
        &mut pool,
        RTree::bulk_load(RTreeConfig::with_fanout(8), roads)
            .tree()
            .clone(),
        300,
        spatial_joins::storage::Layout::Clustered,
    );
    let ts = TreeRelation::new(
        &mut pool,
        RTree::bulk_load(RTreeConfig::with_fanout(8), zones)
            .tree()
            .clone(),
        300,
        spatial_joins::storage::Layout::Clustered,
    );
    let mut got = tree_join(&mut pool, &tr, &ts, theta, &mut TraceSink::Null)
        .unwrap()
        .pairs;
    got.sort_unstable();
    assert_eq!(got, reference);
}
