//! Service-level correctness properties:
//!
//! (a) a cache-enabled service returns byte-identical match sets to a
//!     cache-disabled one across all eight θ-operators, with updates
//!     interleaved arbitrarily between queries;
//! (b) responses are invariant under worker count and equal the
//!     sequential reference execution.
//!
//! Random scripts are decoded from plain byte vectors so the vendored
//! proptest shim needs nothing beyond `vec` + integer strategies.

use proptest::prelude::*;
use sj_geom::{Direction, Geometry, Point, Rect, ThetaOp};
use sj_joins::Strategy;
use sj_service::{Reply, Request, ServiceConfig, Side, SpatialService, WriteBatch};

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

const ALL_THETAS: [ThetaOp; 8] = [
    ThetaOp::WithinCenterDistance(9.0),
    ThetaOp::WithinDistance(7.5),
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

/// Join strategies that support all eight operators (so any decoded
/// combination is submittable).
const JOIN_STRATEGIES: [Strategy; 4] = [
    Strategy::Auto,
    Strategy::NestedLoop,
    Strategy::Sweep,
    Strategy::Tree,
];

enum Op {
    Query(Request),
    Insert(Side, Geometry),
}

/// Decodes one operation from a 3-byte chunk.
fn decode(chunk: &[u8]) -> Op {
    let (a, b, c) = (chunk[0], chunk[1], chunk[2]);
    if a % 5 == 0 {
        let side = if b % 2 == 0 { Side::R } else { Side::S };
        let g = Geometry::Point(Point::new(
            (c % 16) as f64 * 4.0,
            ((c / 16) % 16) as f64 * 4.0,
        ));
        Op::Insert(side, g)
    } else if a % 2 == 0 {
        let side = if b % 2 == 0 { Side::R } else { Side::S };
        let probe = Geometry::Point(Point::new((c % 8) as f64 * 8.0, ((c / 8) % 8) as f64 * 8.0));
        Op::Query(Request::select(side, probe, ALL_THETAS[(b % 8) as usize]))
    } else {
        Op::Query(Request::join(
            JOIN_STRATEGIES[(b % 4) as usize],
            ALL_THETAS[(c % 8) as usize],
        ))
    }
}

fn service(cache_capacity: usize, workers: usize) -> SpatialService {
    let config = ServiceConfig {
        cache_capacity,
        workers,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property (a): caching is semantically invisible. The script
    /// interleaves inserts with queries; after it, a deterministic
    /// sweep queries every θ-operator as both SELECT and JOIN so all
    /// eight are exercised on every case.
    #[test]
    fn cache_on_and_off_are_byte_identical(
        script in prop::collection::vec(0u8..=255, 0..36),
    ) {
        let cached = service(64, 2);
        let uncached = service(0, 2);
        let mut next_id = 10_000u64;
        for chunk in script.chunks(3) {
            if chunk.len() < 3 {
                break;
            }
            match decode(chunk) {
                Op::Insert(side, g) => {
                    let batch = WriteBatch::new().insert(side, next_id, g);
                    cached.commit(&batch).expect("commit succeeds");
                    uncached.commit(&batch).expect("commit succeeds");
                    next_id += 1;
                }
                Op::Query(req) => {
                    let a = cached.call(req.clone()).expect("idle service never sheds");
                    let b = uncached.call(req).expect("idle service never sheds");
                    prop_assert_eq!(a.reply, b.reply);
                }
            }
        }
        for theta in ALL_THETAS {
            let probe = Geometry::Point(Point::new(8.0, 8.0));
            let sel = Request::select(Side::R, probe, theta);
            let a = cached.call(sel.clone()).expect("ok");
            let b = uncached.call(sel).expect("ok");
            prop_assert_eq!(a.reply, b.reply, "select under {:?}", theta);
            let join = Request::join(Strategy::Auto, theta);
            let a = cached.call(join.clone()).expect("ok");
            let b = uncached.call(join).expect("ok");
            prop_assert_eq!(a.reply, b.reply, "join under {:?}", theta);
        }
        let (hits, _, _) = uncached.cache_stats();
        prop_assert_eq!(hits, 0, "a disabled cache must never hit");
    }

    /// Property (b): worker count cannot change any answer. All
    /// requests are submitted before any response is collected, so
    /// multi-worker runs genuinely interleave.
    #[test]
    fn responses_are_invariant_under_worker_count(
        script in prop::collection::vec(0u8..=255, 0..30),
    ) {
        let requests: Vec<Request> = script
            .chunks(3)
            .filter(|c| c.len() == 3)
            .filter_map(|c| match decode(c) {
                Op::Query(req) => Some(req),
                Op::Insert(..) => None,
            })
            .collect();

        let reference_svc = service(0, 1);
        let reference: Vec<Reply> = requests
            .iter()
            .map(|req| reference_svc.execute_reference(req))
            .collect();

        for workers in [1usize, 2, 4] {
            let svc = service(32, workers);
            let pending: Vec<_> = requests
                .iter()
                .map(|req| svc.submit(req.clone()).expect("queue_depth covers the batch"))
                .collect();
            for (i, answer) in pending.into_iter().enumerate() {
                let resp = answer.wait().expect("no deadline, no shedding");
                prop_assert_eq!(
                    &resp.reply, &reference[i],
                    "request {} diverged at {} workers", i, workers
                );
            }
        }
    }
}

/// Satellite of the fail-stop work: a stale record id is a typed
/// [`StorageError::DanglingRecord`] at the storage boundary, and the
/// *service-level* recovery from staleness is structural — a cached
/// reply is keyed by dataset version, so an update makes it
/// unreachable and the recomputation runs against the rebuilt trees'
/// fresh rids instead of ever probing stale ones.
#[test]
fn stale_rid_probe_recovers_via_version_bump() {
    use sj_storage::{BufferPool, Disk, DiskConfig, HeapFile, Layout, RecordId, StorageError};

    // Storage half: probing an emptied/out-of-range slot stops with a
    // typed error instead of panicking (the bug this PR fixes), and the
    // pool keeps serving valid rids afterwards.
    let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 8);
    let file = HeapFile::bulk_load(&mut pool, 300, 3, Layout::Clustered).unwrap();
    let stale = RecordId {
        page: file.rid(0).page,
        slot: 99,
    };
    assert!(matches!(
        pool.try_read_record(&file, stale),
        Err(StorageError::DanglingRecord { slot: 99, .. })
    ));
    assert_eq!(pool.try_read_record(&file, file.rid(1)).unwrap().len(), 300);

    // Service half: warm the cache, then commit a write inside the
    // cached query's region. The invalidation drops the stale reply, so
    // the follow-up recomputes on the evolved trees — fresh rids, no
    // stale probe — and reports the new version.
    let svc = service(64, 1);
    let req = Request::select(
        Side::R,
        Geometry::Point(Point::new(8.0, 8.0)),
        ThetaOp::WithinDistance(10.0),
    );
    let cold = svc.call(req.clone()).expect("computes");
    let warm = svc.call(req.clone()).expect("cache serves");
    assert!(!cold.cached && warm.cached, "second call must be a hit");
    let new_version = svc
        .commit(&WriteBatch::new().insert(Side::R, 9_000, Geometry::Point(Point::new(8.5, 8.0))))
        .expect("commit succeeds")
        .version;
    let fresh = svc.call(req).expect("recomputes");
    assert!(
        !fresh.cached,
        "version bump must invalidate the stale cached reply"
    );
    assert_eq!(fresh.version, new_version);
    assert_eq!(
        fresh.reply.len(),
        cold.reply.len() + 1,
        "recomputation must see the inserted tuple"
    );
}
