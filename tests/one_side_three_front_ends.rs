//! One maintained side, three front ends: an `sj-rel` [`Database`]
//! (tables `r` and `s`), a [`SpatialService`] and a [`ShardRouter`]
//! take one seeded stream of insert/upsert/delete batches. After every
//! batch each front end's per-op outcomes, its SELECT answers and its
//! join answers — all five strategies and `Auto`, under three θ, one of
//! them directional — must equal a nested loop over the live tuples.
//!
//! The geometries come from `sj_core::workload::generate`; each
//! generated tuple's own coordinates pick its side, target id and
//! operation, so the stream holds duplicate inserts, deletes of absent
//! ids, upserts that replace and upserts that insert. Every fourth batch
//! also upserts a polygon too wide for any front end's records.

use std::collections::BTreeMap;

use sj_core::workload::{generate, GeometryKind, Placement, WorkloadSpec};
use sj_geom::{codec, Bounded, Direction, Geometry, Point, Polygon, Rect, ThetaOp};
use sj_joins::Strategy;
use sj_rel::{Column, Database, Schema, TraversalOrder, Value, ValueType};
use sj_service::{
    Mutation, MutationOutcome, Reply, Request, ServiceConfig, Side, SpatialService, WriteBatch,
};
use sj_shard::{ShardConfig, ShardRouter};

const THETAS: [ThetaOp; 3] = [
    ThetaOp::Overlaps,
    ThetaOp::WithinDistance(4.0),
    ThetaOp::DirectionOf(Direction::North),
];

const RECORD_SIZE: usize = 300;

type Live = BTreeMap<u64, Geometry>;

fn world() -> Rect {
    Rect::from_bounds(0.0, 0.0, 64.0, 64.0)
}

fn tuples(kind: GeometryKind, count: usize, seed: u64, id0: u64) -> Vec<(u64, Geometry)> {
    let spec = WorkloadSpec {
        count,
        world: world(),
        kind,
        placement: Placement::Uniform,
        max_extent: 6.0,
        seed,
    };
    generate(&spec, id0)
}

/// Batch `b`: six generated tuples turned into ops by their coordinates,
/// plus, every fourth batch, an oversized upsert.
fn batch(b: u64) -> WriteBatch {
    let kinds = [
        GeometryKind::Point,
        GeometryKind::Rect,
        GeometryKind::Polygon,
    ];
    let mut batch = WriteBatch::new();
    for (i, g) in tuples(kinds[b as usize % 3], 6, 100 + b, 0) {
        let lo = g.mbr().lo;
        let (x, y) = (lo.x as u64, lo.y as u64);
        let side = [Side::R, Side::S][((y + i) % 2) as usize];
        let id = (7 * x + y) % 40;
        batch = match (x + i) % 3 {
            0 => batch.insert(side, id, g),
            1 => batch.upsert(side, id, g),
            _ => batch.delete(side, id),
        };
    }
    if b % 4 == 3 {
        let wide = Polygon::regular(Point::new(30.0, 30.0), 5.0, 40);
        batch = batch.upsert(Side::S, b % 40, Geometry::Polygon(wide));
    }
    batch
}

/// The oracle's rule, written out: an insert of a live id is a
/// duplicate, a delete of an absent one is missing, and only then is an
/// insert or upsert size-tested.
fn model_apply(live: &mut Live, op: &Mutation) -> MutationOutcome {
    let present = live.contains_key(&op.id());
    match op {
        Mutation::Insert { .. } if present => MutationOutcome::DuplicateId,
        Mutation::Delete { id } => match live.remove(id) {
            Some(_) => MutationOutcome::Deleted,
            None => MutationOutcome::MissingId,
        },
        Mutation::Insert { value, .. } | Mutation::Upsert { value, .. }
            if codec::encoded_len(value) > RECORD_SIZE =>
        {
            MutationOutcome::TooLarge
        }
        Mutation::Insert { id, value } => {
            live.insert(*id, value.clone());
            MutationOutcome::Inserted
        }
        Mutation::Upsert { id, value } => {
            live.insert(*id, value.clone());
            MutationOutcome::Upserted { replaced: present }
        }
    }
}

fn table(side: Side) -> &'static str {
    match side {
        Side::R => "r",
        Side::S => "s",
    }
}

/// `op` over rows `(id, g)` of an `sj-rel` table.
fn row_op(op: &Mutation) -> Mutation<Vec<Value>> {
    let row = |id: u64, g: &Geometry| vec![Value::Int(id as i64), Value::Spatial(g.clone())];
    match op {
        Mutation::Insert { id, value } => Mutation::Insert {
            id: *id,
            value: row(*id, value),
        },
        Mutation::Upsert { id, value } => Mutation::Upsert {
            id: *id,
            value: row(*id, value),
        },
        Mutation::Delete { id } => Mutation::Delete { id: *id },
    }
}

/// Applies `batch` to the database one table at a time, each table's
/// ops in batch order, and returns the outcomes in batch order.
fn apply_rows(db: &mut Database, batch: &WriteBatch) -> Vec<MutationOutcome> {
    let mut outcomes = vec![None; batch.len()];
    for side in [Side::R, Side::S] {
        let (at, ops): (Vec<usize>, Vec<_>) = batch
            .ops
            .iter()
            .enumerate()
            .filter(|(_, (sd, _))| *sd == side)
            .map(|(i, (_, op))| (i, row_op(op)))
            .unzip();
        let got = db.apply(table(side), &ops).expect("no faults armed");
        for (i, outcome) in at.into_iter().zip(got) {
            outcomes[i] = Some(outcome);
        }
    }
    outcomes.into_iter().map(|o| o.expect("every op")).collect()
}

fn matches(reply: &Reply) -> Vec<u64> {
    match reply {
        Reply::Select { matches } => matches.as_ref().clone(),
        other => panic!("select reply expected, got {other:?}"),
    }
}

fn pairs(reply: &Reply) -> Vec<(u64, u64)> {
    match reply {
        Reply::Join { pairs, .. } => pairs.as_ref().clone(),
        other => panic!("join reply expected, got {other:?}"),
    }
}

#[test]
fn one_write_stream_reaches_every_front_end_exactly() {
    let r0 = tuples(GeometryKind::Point, 30, 1, 0);
    let mut s0 = tuples(GeometryKind::Polygon, 15, 2, 0);
    s0.extend(tuples(GeometryKind::Rect, 15, 3, 15));

    let mut db = Database::in_memory();
    let config = ServiceConfig {
        record_size: RECORD_SIZE,
        ..ServiceConfig::default()
    };
    let service = SpatialService::start(config, &r0, &s0, world());
    let shard = ShardConfig {
        shards: 4,
        halo: 8.0,
        service: config,
        ..ShardConfig::default()
    };
    let router = ShardRouter::start(shard, &r0, &s0);
    let (mut r, mut s): (Live, Live) = (r0.iter().cloned().collect(), s0.iter().cloned().collect());
    let mut load = WriteBatch::new();
    for (side, seed) in [(Side::R, &r0), (Side::S, &s0)] {
        let schema = Schema::new(vec![
            Column::new("id", ValueType::Int),
            Column::new("g", ValueType::Spatial),
        ]);
        db.create_table(table(side), schema, RECORD_SIZE).unwrap();
        for (id, g) in seed {
            load = load.insert(side, *id, g.clone());
        }
    }
    assert!(apply_rows(&mut db, &load).iter().all(|o| o.applied()));

    let mut seen = BTreeMap::new();
    for b in 0..12 {
        let batch = batch(b);
        let want: Vec<_> = batch
            .ops
            .iter()
            .map(|(side, op)| match side {
                Side::R => model_apply(&mut r, op),
                Side::S => model_apply(&mut s, op),
            })
            .collect();
        for outcome in &want {
            *seen.entry(format!("{outcome:?}")).or_insert(0) += 1;
        }
        let ctx = format!("batch {b}: {batch:?}");
        assert_eq!(apply_rows(&mut db, &batch), want, "sj-rel, {ctx}");
        let receipt = service.commit(&batch).expect("service commit");
        assert_eq!(receipt.outcomes, want, "service, {ctx}");
        let receipt = router.commit(&batch).expect("router commit");
        assert_eq!(receipt.outcomes, want, "router, {ctx}");

        for (side, live) in [(Side::R, &r), (Side::S, &s)] {
            let probe = Geometry::Rect(Rect::from_bounds(20.0, 20.0, 40.0, 36.0));
            for theta in THETAS {
                let want: Vec<u64> = live
                    .iter()
                    .filter(|(_, g)| theta.eval(&probe, g))
                    .map(|(&id, _)| id)
                    .collect();
                let order = TraversalOrder::BreadthFirst;
                let rows = db
                    .spatial_select(table(side), "g", &probe, theta, order)
                    .unwrap();
                let rows: Vec<u64> = rows.into_iter().map(|(id, _)| id).collect();
                assert_eq!(
                    rows, want,
                    "sj-rel select {side:?} {theta:?} after batch {b}"
                );
                let req = Request::select(side, probe.clone(), theta);
                let got = service.call(req.clone()).expect("service select").reply;
                assert_eq!(
                    matches(&got),
                    want,
                    "service select {theta:?} after batch {b}"
                );
                let got = router.call(req).expect("router select").reply;
                assert_eq!(
                    matches(&got),
                    want,
                    "router select {theta:?} after batch {b}"
                );
            }
        }
        for theta in THETAS {
            let want: Vec<(u64, u64)> = r
                .iter()
                .flat_map(|(&a, ga)| {
                    let hits = s.iter().filter(move |(_, gb)| theta.eval(ga, gb));
                    hits.map(move |(&b, _)| (a, b))
                })
                .collect();
            for strategy in Strategy::ALL.into_iter().chain([Strategy::Auto]) {
                let ctx = format!("{strategy:?} {theta:?} after batch {b}");
                let got = db.spatial_join_ids("r", "g", "s", "g", theta, strategy);
                assert_eq!(got.unwrap(), want, "sj-rel join {ctx}");
                let req = Request::join(strategy, theta);
                let got = service.call(req.clone()).expect("service join").reply;
                assert_eq!(pairs(&got), want, "service join {ctx}");
                let got = router.call(req).expect("router join").reply;
                assert_eq!(pairs(&got), want, "router join {ctx}");
            }
        }
    }
    // The stream exercised every outcome the write path can report.
    for outcome in [
        "Inserted",
        "Deleted",
        "DuplicateId",
        "MissingId",
        "TooLarge",
    ] {
        assert!(seen.contains_key(outcome), "no {outcome} in {seen:?}");
    }
    for replaced in [true, false] {
        let upserted = format!("{:?}", MutationOutcome::Upserted { replaced });
        assert!(seen.contains_key(&upserted), "no {upserted} in {seen:?}");
    }
}
