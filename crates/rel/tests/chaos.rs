//! Chaos: a seeded read/write/alloc fault injector armed on a `Database`.
//! Every spatial select (both traversal orders), every spatial join (the
//! five strategies plus `Auto`, under all eight θ) and every `apply`
//! either answers exactly — equal to a nested loop over a fault-free
//! model — or returns a typed error. None panics, and a fault never
//! leaves rows behind that differ from the model.

use std::collections::{BTreeMap, BTreeSet};

use sj_geom::{Direction, Geometry, Point, Polygon, Rect, ThetaOp};
use sj_joins::tree_join::TraversalOrder;
use sj_joins::{Mutation, MutationOutcome, Strategy};
use sj_rel::{Column, Database, DbError, Schema, Tuple, Value, ValueType};
use sj_storage::{DiskConfig, FaultConfig, FaultInjector};

const THETAS: [ThetaOp; 8] = [
    ThetaOp::WithinCenterDistance(9.0),
    ThetaOp::WithinDistance(4.0),
    ThetaOp::Overlaps,
    ThetaOp::Includes,
    ThetaOp::ContainedIn,
    ThetaOp::DirectionOf(Direction::NorthWest),
    ThetaOp::ReachableWithin {
        minutes: 3.0,
        speed: 2.0,
    },
    ThetaOp::Adjacent,
];

const STRATEGIES: [Strategy; 6] = [
    Strategy::NestedLoop,
    Strategy::Sweep,
    Strategy::Tree,
    Strategy::JoinIndex,
    Strategy::Partition,
    Strategy::Auto,
];

/// splitmix64: the test's own seeded stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A point (table `r`) or a polygon or rectangle (table `s`) in a 60×60
/// world, so joins refine exact geometries and reads reach polygons.
fn geometry(rng: &mut Rng, table: &str) -> Geometry {
    let (x, y) = (rng.below(60) as f64, rng.below(60) as f64);
    match (table, rng.below(2)) {
        ("r", _) => Geometry::Point(Point::new(x, y)),
        (_, 0) => Geometry::Polygon(Polygon::regular(Point::new(x, y), 3.0, 5)),
        _ => Geometry::Rect(Rect::from_bounds(x, y, x + 4.0, y + 2.5)),
    }
}

fn row(id: u64, g: Geometry) -> Tuple {
    vec![Value::Int(id as i64), Value::Spatial(g)]
}

/// The fault-free model: rowid → row, per table.
type Model = BTreeMap<&'static str, BTreeMap<u64, Tuple>>;

fn spatial(row: &Tuple) -> &Geometry {
    row[1].as_spatial().expect("column 1 is spatial")
}

/// A pool smaller than the data, so reads keep going to disk.
fn seeded_db(rng: &mut Rng) -> (Database, Model) {
    let mut db = Database::new(DiskConfig::paper(), 16);
    let mut model = Model::new();
    for table in ["r", "s"] {
        let schema = Schema::new(vec![
            Column::new("id", ValueType::Int),
            Column::new("g", ValueType::Spatial),
        ]);
        db.create_table(table, schema, 300).unwrap();
        let rows = model.entry(table).or_default();
        for id in 0..30 {
            let r = row(id, geometry(rng, table));
            db.insert(table, r.clone()).unwrap();
            rows.insert(id, r);
        }
    }
    (db, model)
}

/// What the model says an op does: its outcome, and the model after it.
fn model_apply(rows: &mut BTreeMap<u64, Tuple>, op: &Mutation<Tuple>) -> MutationOutcome {
    let live = rows.contains_key(&op.id());
    match op {
        Mutation::Insert { .. } if live => MutationOutcome::DuplicateId,
        Mutation::Delete { .. } if !live => MutationOutcome::MissingId,
        Mutation::Insert { id, value } => {
            rows.insert(*id, value.clone());
            MutationOutcome::Inserted
        }
        Mutation::Upsert { id, value } => {
            rows.insert(*id, value.clone());
            MutationOutcome::Upserted { replaced: live }
        }
        Mutation::Delete { id } => {
            rows.remove(id);
            MutationOutcome::Deleted
        }
    }
}

/// Where each fault landed and how many answers were checked exact.
#[derive(Debug, Default, PartialEq)]
struct Report {
    /// `DbError::Storage::during`, in the order the faults surfaced.
    trace: Vec<&'static str>,
    exact_joins: BTreeMap<&'static str, usize>,
    exact_selects: usize,
    exact_applies: usize,
    poisoned: bool,
}

impl Report {
    /// A typed error is fine; record where a storage fault landed.
    fn failed(&mut self, err: DbError) {
        match err {
            DbError::Storage { during, .. } => self.trace.push(during),
            DbError::Poisoned => assert!(self.poisoned, "poisoned without a half-applied batch"),
            other => panic!("only storage faults are injected, got {other:?}"),
        }
    }
}

/// One seeded run: rounds of every join, both selects and a few
/// single-op batches, under an injector drawing from `seed`.
fn run(seed: u64) -> Report {
    let mut rng = Rng(seed);
    let (mut db, mut model) = seeded_db(&mut rng);
    db.set_fault_injector(Some(FaultInjector::new(FaultConfig {
        seed,
        read_prob: 0.01,
        write_prob: 0.05,
        alloc_prob: 0.05,
        ..FaultConfig::default()
    })));
    let mut report = Report::default();
    for _ in 0..4 {
        for theta in THETAS {
            let want: BTreeSet<(u64, u64)> = model["r"]
                .iter()
                .flat_map(|(&a, ra)| {
                    let s = &model["s"];
                    s.iter()
                        .filter(move |(_, sb)| theta.eval(spatial(ra), spatial(sb)))
                        .map(move |(&b, _)| (a, b))
                })
                .collect();
            for strategy in STRATEGIES {
                if rng.below(3) == 0 {
                    db.drop_caches(); // a cold pool reads, so faults land
                }
                match db.spatial_join_ids("r", "g", "s", "g", theta, strategy) {
                    Ok(pairs) => {
                        let got: BTreeSet<_> = pairs.iter().copied().collect();
                        assert_eq!(got.len(), pairs.len(), "{strategy:?} {theta:?}: duplicates");
                        assert_eq!(got, want, "{strategy:?} under {theta:?}");
                        *report.exact_joins.entry(strategy.name()).or_default() += 1;
                    }
                    Err(e) => report.failed(e),
                }
            }
        }
        let probe = geometry(&mut rng, "s");
        for (order, theta) in [
            (TraversalOrder::BreadthFirst, ThetaOp::Overlaps),
            (TraversalOrder::DepthFirst, ThetaOp::WithinDistance(10.0)),
        ] {
            let want: Vec<(u64, Tuple)> = model["r"]
                .iter()
                .filter(|(_, r)| theta.eval(&probe, spatial(r)))
                .map(|(&id, r)| (id, r.clone()))
                .collect();
            match db.spatial_select("r", "g", &probe, theta, order) {
                Ok(mut got) => {
                    got.sort_unstable_by_key(|(id, _)| *id);
                    assert_eq!(got, want, "{order:?} select under {theta:?}");
                    report.exact_selects += 1;
                }
                Err(e) => report.failed(e),
            }
        }
        for _ in 0..6 {
            let table = ["r", "s"][rng.below(2) as usize];
            let id = rng.below(40);
            let op = match rng.below(3) {
                0 => Mutation::Insert {
                    id,
                    value: row(id, geometry(&mut rng, table)),
                },
                1 => Mutation::Upsert {
                    id,
                    value: row(id, geometry(&mut rng, table)),
                },
                _ => Mutation::Delete { id },
            };
            let rows = model.get_mut(table).expect("both tables are modelled");
            let mut after = rows.clone();
            let want = model_apply(&mut after, &op);
            match db.apply(table, std::slice::from_ref(&op)) {
                Ok(outcomes) => {
                    assert_eq!(outcomes, vec![want], "{op:?}");
                    *rows = after;
                    report.exact_applies += 1;
                }
                Err(e) => {
                    // The model stays as it was: a fault either changed
                    // nothing or poisoned the database.
                    report.poisoned |= db.row_count(table) == Err(DbError::Poisoned);
                    report.failed(e);
                }
            }
        }
        if report.poisoned {
            assert_eq!(db.scan("r"), Err(DbError::Poisoned));
            let join = db.spatial_join_ids("r", "g", "s", "g", THETAS[2], Strategy::Sweep);
            assert_eq!(join, Err(DbError::Poisoned));
            return report;
        }
        // Each row the database returns is the model's row.
        for table in ["r", "s"] {
            match db.scan(table) {
                Ok(rows) => assert!(rows.into_iter().eq(model[table].clone()), "{table} scan"),
                Err(e) => report.failed(e),
            }
        }
    }
    report
}

#[test]
fn every_call_under_faults_answers_exactly_or_fails_typed() {
    let mut landed = BTreeSet::new();
    let mut exact_joins = BTreeMap::new();
    let (mut exact_selects, mut exact_applies) = (0, 0);
    for seed in 0..8 {
        let report = run(seed);
        landed.extend(report.trace.iter().copied());
        for (strategy, n) in report.exact_joins {
            *exact_joins.entry(strategy).or_insert(0) += n;
        }
        exact_selects += report.exact_selects;
        exact_applies += report.exact_applies;
    }
    for step in ["sampling", "R-tree update", "join-index build", "apply"] {
        assert!(
            landed.contains(step),
            "no fault landed in {step}: {landed:?}"
        );
    }
    for strategy in STRATEGIES {
        let n = exact_joins.get(strategy.name()).copied().unwrap_or(0);
        assert!(
            n > 0,
            "{strategy:?} never answered under faults: {exact_joins:?}"
        );
    }
    assert!(exact_selects > 0 && exact_applies > 0);
}

#[test]
fn the_fault_trace_replays_for_a_seed() {
    assert_eq!(run(3), run(3));
}
