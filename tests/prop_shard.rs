//! Scatter-gather correctness property: a [`ShardRouter`] returns
//! byte-identical replies to a single whole-data [`SpatialService`] —
//! across all eight θ-operators, shard counts {1, 2, 4}, uniform and
//! skewed datasets (the skewed one engages recursive quad-splitting),
//! with `WriteBatch` commits interleaved between queries (global
//! read-your-writes).
//!
//! Concrete strategies compare the full `Reply` (pairs *and* resolved
//! strategy); `Auto` compares the pair set only, since shards resolve
//! it adaptively and may legitimately diverge from the single node's
//! static pick.

use proptest::prelude::*;
use sj_geom::{Bounded, Direction, Geometry, Point, Rect, ThetaOp};
use sj_joins::Strategy;
use sj_service::{Reply, Request, ServiceConfig, Side, SpatialService, WriteBatch};
use sj_shard::{RouterResponse, ShardConfig, ShardRouter};

const ALL_THETAS: [ThetaOp; 8] = [
    ThetaOp::WithinCenterDistance(9.0),
    ThetaOp::WithinDistance(6.0),
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

/// Strategies that support all eight operators, so every decoded
/// combination is admissible.
const JOIN_STRATEGIES: [Strategy; 3] = [Strategy::NestedLoop, Strategy::Tree, Strategy::Auto];

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Uniform: an n×n lattice over [0, 64]². Skewed: the same tuple count
/// crammed into the [0, 8]² corner, plus two outliers pinning the world
/// to [0, 64]² so the shard grid still covers the full extent.
fn dataset(skewed: bool, n: usize, id0: u64) -> Vec<(u64, Geometry)> {
    let mut tuples: Vec<(u64, Geometry)> = (0..n * n)
        .map(|i| {
            let (x, y) = if skewed {
                (
                    (i % n) as f64 * 8.0 / n as f64,
                    (i / n) as f64 * 8.0 / n as f64,
                )
            } else {
                ((i % n) as f64 * 8.0, (i / n) as f64 * 8.0)
            };
            (id0 + i as u64, Geometry::Point(Point::new(x, y)))
        })
        .collect();
    if skewed {
        tuples.push((id0 + 900, Geometry::Point(Point::new(64.0, 64.0))));
        tuples.push((id0 + 901, Geometry::Point(Point::new(56.0, 8.0))));
    }
    tuples
}

fn world_of(r: &[(u64, Geometry)], s: &[(u64, Geometry)]) -> Rect {
    r.iter()
        .chain(s.iter())
        .map(|(_, g)| g.mbr())
        .reduce(|a, b| a.union(&b))
        .expect("non-empty dataset")
}

fn pairs_of(reply: &Reply) -> Vec<(u64, u64)> {
    match reply {
        Reply::Join { pairs, .. } => pairs.as_ref().clone(),
        _ => panic!("expected a join reply"),
    }
}

enum Op {
    Query(Request),
    Mutate(WriteBatch),
}

/// Decodes one operation from a 3-byte chunk: mutations (insert /
/// delete / upsert on either side) interleave with SELECTs and JOINs.
fn decode(chunk: &[u8], next_id: &mut u64) -> Op {
    let (a, b, c) = (chunk[0], chunk[1], chunk[2]);
    let side = if b % 2 == 0 { Side::R } else { Side::S };
    let g = Geometry::Point(Point::new(
        (c % 16) as f64 * 4.25,
        ((c / 16) % 16) as f64 * 4.25,
    ));
    match a % 6 {
        0 => {
            *next_id += 1;
            Op::Mutate(WriteBatch::new().insert(side, *next_id, g))
        }
        1 => {
            // Half target decoded-script ids (real deletes after the
            // matching insert ran), half base-dataset ids.
            let id = if c % 2 == 0 {
                50_000 + (c as u64 % 8)
            } else {
                (c as u64) % 40
            };
            Op::Mutate(WriteBatch::new().delete(side, id))
        }
        2 => {
            let id = (c as u64) % 40;
            Op::Mutate(WriteBatch::new().upsert(side, id, g))
        }
        3 | 4 => Op::Query(Request::select(side, g, ALL_THETAS[(b % 8) as usize])),
        _ => Op::Query(Request::join(
            JOIN_STRATEGIES[(b % 3) as usize],
            ALL_THETAS[(c % 8) as usize],
        )),
    }
}

fn shard_config(shards: usize, split_threshold: usize) -> ShardConfig {
    ShardConfig {
        shards,
        halo: 8.0,
        split_threshold,
        max_split_depth: 4,
        service: ServiceConfig {
            workers: 2,
            queue_depth: 256,
            cache_capacity: 32,
            ..ServiceConfig::default()
        },
    }
}

/// One router reply vs. the single-node oracle; hands the reply back.
fn assert_identical(
    router: &ShardRouter,
    single: &SpatialService,
    req: &Request,
    ctx: &str,
) -> RouterResponse {
    let got = router
        .call(req.clone())
        .unwrap_or_else(|rej| panic!("{ctx}: router rejected {req:?}: {rej:?}"));
    let want = single.execute_reference(req);
    let auto = matches!(
        req.kind,
        sj_service::QueryKind::Join {
            strategy: Strategy::Auto
        }
    );
    if auto {
        assert_eq!(
            pairs_of(&got.reply),
            pairs_of(&want),
            "{ctx}: Auto join pair set diverged for {req:?}"
        );
    } else {
        assert_eq!(got.reply, want, "{ctx}: reply diverged for {req:?}");
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole property: for every shard count and both data
    /// shapes, an interleaved script of mutations and queries never
    /// distinguishes the sharded deployment from a single node, and a
    /// deterministic closing sweep exercises all eight θ-operators as
    /// both SELECT and JOIN on the final (mutated) dataset.
    #[test]
    fn scatter_gather_is_byte_identical_to_single_node(
        script in prop::collection::vec(0u8..=255, 0..27),
        skew_byte in 0u8..=1,
    ) {
        let skewed = skew_byte == 1;
        for &shards in &SHARD_COUNTS {
            let r = dataset(skewed, 6, 0);
            let s = dataset(skewed, 6, 500);
            let world = world_of(&r, &s);
            let single = SpatialService::start(
                ServiceConfig {
                    workers: 2,
                    queue_depth: 256,
                    cache_capacity: 32,
                    ..ServiceConfig::default()
                },
                &r,
                &s,
                world,
            );
            // A low split threshold so the skewed corner actually
            // triggers recursive quad-splitting at shards > 1.
            let router = ShardRouter::start(shard_config(shards, 24), &r, &s);
            if skewed && shards > 1 {
                prop_assert!(
                    router.plan().splits() > 0,
                    "skewed data must engage the quad-split ({} shards)",
                    shards
                );
            }

            let mut next_id = 50_000u64;
            for chunk in script.chunks(3) {
                if chunk.len() < 3 {
                    break;
                }
                match decode(chunk, &mut next_id) {
                    Op::Mutate(batch) => {
                        let got = router.commit(&batch).expect("router commit");
                        let want = single.commit(&batch).expect("single commit");
                        assert_eq!(
                            got.outcomes, want.outcomes,
                            "commit outcomes diverged for {batch:?}"
                        );
                        // Read-your-writes: a query straight after the
                        // commit observes it on every shard.
                        assert_identical(
                            &router,
                            &single,
                            &Request::join(Strategy::Tree, ThetaOp::Overlaps),
                            "post-commit",
                        );
                    }
                    Op::Query(req) => {
                        assert_identical(&router, &single, &req, "scripted");
                    }
                }
            }

            // Deterministic closing sweep: all eight θ-operators.
            for theta in ALL_THETAS {
                for strategy in JOIN_STRATEGIES {
                    assert_identical(
                        &router,
                        &single,
                        &Request::join(strategy, theta),
                        "sweep join",
                    );
                }
                for side in [Side::R, Side::S] {
                    let select =
                        Request::select(side, Geometry::Point(Point::new(6.0, 6.0)), theta);
                    let first = assert_identical(&router, &single, &select, "sweep select");
                    // Repeated, every target shard answers from its cache
                    // inside `submit`: nothing queues.
                    let again = router.call(select).expect("repeat accepted");
                    prop_assert!(again.cached && again.queue_us == 0, "{:?}", again);
                    prop_assert_eq!(again.reply, first.reply);
                }
            }
            single.close();
        }
    }
}
