//! Read-your-writes linearizability of the durable mutation API.
//!
//! A random script interleaves [`WriteBatch`] commits — inserts, deletes
//! (some deliberately targeting absent ids), and upserts — with SELECT
//! and JOIN queries (including `Strategy::Auto`, whose resolution samples
//! the relations and is therefore sensitive to tuple *order*). After
//! every step the live incremental service must agree byte-for-byte with
//! a sequential oracle: an in-memory replica of both relations mutated
//! by the same position-preserving discipline, rebuilt into a fresh
//! single-threaded service at the reply's reported version.
//!
//! This is the tentpole's contract: incremental tree maintenance and
//! fine-grained cache invalidation are pure optimizations — no
//! interleaving of writes and reads can produce a reply that a full
//! sequential rebuild would not.

use proptest::prelude::*;
use sj_geom::{Geometry, Point, Rect, ThetaOp};
use sj_joins::Strategy;
use sj_service::{
    Mutation, MutationOutcome, Reply, Request, ServiceConfig, Side, SpatialService, WriteBatch,
};

fn grid_tuples(n: usize, step: f64, id0: u64) -> Vec<(u64, Geometry)> {
    (0..n * n)
        .map(|i| {
            (
                id0 + i as u64,
                Geometry::Point(Point::new((i % n) as f64 * step, (i / n) as f64 * step)),
            )
        })
        .collect()
}

fn world() -> Rect {
    Rect::from_bounds(0.0, 0.0, 64.0, 64.0)
}

fn service(cache_capacity: usize) -> SpatialService {
    let config = ServiceConfig {
        cache_capacity,
        queue_depth: 128,
        ..ServiceConfig::default()
    };
    SpatialService::start(
        config,
        &grid_tuples(4, 8.0, 0),
        &grid_tuples(4, 8.0, 500),
        world(),
    )
}

/// The oracle's replica of one relation side, mutated with exactly the
/// position discipline the service uses: append on insert, order-
/// preserving remove on delete, in-place replace on upsert. Tuple order
/// determines `Strategy::Auto`'s sampling, so the discipline is part of
/// the spec, not an implementation detail.
fn apply_oracle(tuples: &mut Vec<(u64, Geometry)>, op: &Mutation) -> MutationOutcome {
    match op {
        Mutation::Insert { id, value } => {
            if tuples.iter().any(|(i, _)| i == id) {
                MutationOutcome::DuplicateId
            } else {
                tuples.push((*id, value.clone()));
                MutationOutcome::Inserted
            }
        }
        Mutation::Delete { id } => match tuples.iter().position(|(i, _)| i == id) {
            Some(pos) => {
                tuples.remove(pos);
                MutationOutcome::Deleted
            }
            None => MutationOutcome::MissingId,
        },
        Mutation::Upsert { id, value } => {
            let replaced = match tuples.iter().position(|(i, _)| i == id) {
                Some(pos) => {
                    tuples[pos] = (*id, value.clone());
                    true
                }
                None => {
                    tuples.push((*id, value.clone()));
                    false
                }
            };
            MutationOutcome::Upserted { replaced }
        }
    }
}

enum Step {
    Commit(WriteBatch),
    Query(Request),
}

const QUERY_THETAS: [ThetaOp; 4] = [
    ThetaOp::WithinDistance(7.5),
    ThetaOp::WithinCenterDistance(9.0),
    ThetaOp::Overlaps,
    ThetaOp::Adjacent,
];

/// Decodes one step from a 4-byte chunk. Mutations target the id space
/// the script itself populates (`10_000..`) plus the seed grid, so
/// duplicate inserts, real deletes, and missing-id deletes all occur.
fn decode(chunk: &[u8], next_id: &mut u64) -> Step {
    let (a, b, c, d) = (chunk[0], chunk[1], chunk[2], chunk[3]);
    let side = if b.is_multiple_of(2) {
        Side::R
    } else {
        Side::S
    };
    let point = |v: u8| {
        Geometry::Point(Point::new(
            (v % 16) as f64 * 4.0,
            ((v / 16) % 16) as f64 * 4.0,
        ))
    };
    match a % 6 {
        0 | 1 => {
            // A write batch of 1–3 ops against both sides.
            let mut batch = WriteBatch::new();
            for (i, v) in [c, d, c ^ d].iter().enumerate().take(1 + (d % 3) as usize) {
                let side = if (b as usize + i).is_multiple_of(2) {
                    Side::R
                } else {
                    Side::S
                };
                match v % 4 {
                    0 => {
                        batch = batch.insert(side, 10_000 + *next_id, point(*v));
                        *next_id += 1;
                    }
                    1 => {
                        // Sometimes live (script-inserted or seed grid),
                        // sometimes absent — both outcomes are typed.
                        let id = if v.is_multiple_of(2) {
                            10_000 + u64::from(*v) % (*next_id).max(1)
                        } else {
                            u64::from(*v)
                        };
                        batch = batch.delete(side, id);
                    }
                    2 => {
                        batch = batch.upsert(side, u64::from(*v) % 16, point(v.wrapping_add(7)));
                    }
                    _ => {
                        batch = batch.insert(side, 10_000 + *next_id, point(v.wrapping_mul(3)));
                        *next_id += 1;
                    }
                }
            }
            Step::Commit(batch)
        }
        2 | 3 => {
            let probe = point(c);
            Step::Query(Request::select(side, probe, QUERY_THETAS[(d % 4) as usize]))
        }
        _ => {
            let strat = [Strategy::Auto, Strategy::Sweep, Strategy::Tree][(b % 3) as usize];
            Step::Query(Request::join(strat, QUERY_THETAS[(c % 4) as usize]))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any interleaving of commits and queries is indistinguishable from
    /// the sequential history: replies (including `Auto` strategy
    /// resolution), per-op outcomes, and reported versions all match the
    /// oracle exactly.
    #[test]
    fn interleaved_writes_and_reads_linearize(
        script in prop::collection::vec(0u8..=255, 0..48),
    ) {
        let live = service(32);
        let mut r: Vec<(u64, Geometry)> = grid_tuples(4, 8.0, 0);
        let mut s: Vec<(u64, Geometry)> = grid_tuples(4, 8.0, 500);
        let oracle_config = ServiceConfig {
            cache_capacity: 0,
            queue_depth: 128,
            ..ServiceConfig::default()
        };
        let mut version = 0u64;
        let mut next_id = 0u64;
        for chunk in script.chunks(4) {
            if chunk.len() < 4 {
                break;
            }
            match decode(chunk, &mut next_id) {
                Step::Commit(batch) => {
                    // A delete must never empty a side: the advisor
                    // samples live tuples. Skip batches that would.
                    let deletes = |side: Side| {
                        batch.ops.iter().filter(|(sd, op)| {
                            *sd == side && matches!(op, Mutation::Delete { .. })
                        }).count()
                    };
                    if deletes(Side::R) + 1 >= r.len() || deletes(Side::S) + 1 >= s.len() {
                        continue;
                    }
                    let want: Vec<MutationOutcome> = batch
                        .ops
                        .iter()
                        .map(|(side, op)| match side {
                            Side::R => apply_oracle(&mut r, op),
                            Side::S => apply_oracle(&mut s, op),
                        })
                        .collect();
                    let receipt = live.commit(&batch).expect("commit succeeds");
                    version += 1;
                    prop_assert_eq!(receipt.version, version, "versions count commits");
                    prop_assert_eq!(&receipt.outcomes, &want, "typed outcomes match the oracle");
                }
                Step::Query(req) => {
                    let resp = live.call(req.clone()).expect("idle service never sheds");
                    prop_assert_eq!(resp.version, version, "read-your-writes: replies report the committed version");
                    let oracle = SpatialService::start(oracle_config, &r, &s, world());
                    let want = oracle.execute_reference(&req);
                    prop_assert_eq!(&resp.reply, &want, "reply diverged from the sequential rebuild at version {}", version);
                }
            }
        }
        // Closing sweep: every θ as SELECT and as an Auto JOIN against
        // the final state, so every case ends with full coverage.
        let oracle = SpatialService::start(oracle_config, &r, &s, world());
        for theta in QUERY_THETAS {
            let sel = Request::select(Side::R, Geometry::Point(Point::new(8.0, 8.0)), theta);
            let a = live.call(sel.clone()).expect("ok");
            prop_assert_eq!(&a.reply, &oracle.execute_reference(&sel));
            let join = Request::join(Strategy::Auto, theta);
            let a = live.call(join.clone()).expect("ok");
            let Reply::Join { pairs: got, resolved, .. } = &a.reply else {
                panic!("join reply expected");
            };
            let Reply::Join { pairs: want, resolved: want_resolved, .. } =
                oracle.execute_reference(&join)
            else {
                panic!("join reply expected");
            };
            prop_assert_eq!(got, &want, "Auto pairs under {:?}", theta);
            prop_assert_eq!(resolved, &want_resolved, "Auto must resolve identically under {:?}", theta);
        }
    }
}
