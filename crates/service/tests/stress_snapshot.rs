//! Snapshot-swap stress: reader threads JOIN continuously while a
//! writer streams update batches through the service. Every successful
//! response reports the dataset version it was computed against; the
//! test replays each one on a sequentially rebuilt service holding
//! exactly that version's tuples and demands byte-identical results.
//!
//! This pins down the tentpole's core correctness claim: publishing a
//! new snapshot never tears an in-flight request — a request computes
//! entirely against one version and says which.
//!
//! Its sibling does the same with SELECTs from a small hot set, most of
//! them answered by the cache probe in `call` while commits purge and
//! re-stamp the entries under it.
//!
//! A third streams fifty commits of upserts, deletes and inserts under a
//! SELECT and all three join strategies: successive snapshots share their
//! arena, flat-view, directory and page-table chunks, and every commit
//! writes — so copies — chunks the snapshot a reader holds still shares.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sj_geom::{Geometry, Point, Rect, ThetaOp};
use sj_joins::Strategy;
use sj_service::{Rejection, Reply, Request, ServiceConfig, Side, SpatialService, WriteBatch};

/// One recorded response: (dataset version, θ-slot, sorted join pairs).
type Observation = (u64, usize, Vec<(u64, u64)>);

/// One update batch: inserts of `(side, id, geometry)`.
type Inserts = Vec<(Side, u64, Geometry)>;

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

fn write_batch(batch: &Inserts) -> WriteBatch {
    batch.iter().fold(WriteBatch::new(), |wb, (side, id, g)| {
        wb.insert(*side, *id, g.clone())
    })
}

/// A cache-less service holding exactly `version`'s
/// tuples, rebuilt sequentially from the update history.
fn rebuilt(
    config: ServiceConfig,
    r0: &[(u64, Geometry)],
    s0: &[(u64, Geometry)],
    batches: &[Inserts],
    version: u64,
) -> SpatialService {
    let (mut r, mut s, mut w) = (r0.to_vec(), s0.to_vec(), world());
    for (side, id, g) in batches.iter().take(version as usize).flatten() {
        w = w.union(&sj_geom::Bounded::mbr(g));
        match side {
            Side::R => r.push((*id, g.clone())),
            Side::S => s.push((*id, g.clone())),
        }
    }
    let config = ServiceConfig {
        cache_capacity: 0,
        ..config
    };
    SpatialService::start(config, &r, &s, w)
}

/// The request stream both the live run and the replay use: a few
/// distinct θ-distances so the cache serves some repeats while others
/// compute.
fn request_for(slot: usize) -> Request {
    let d = 4.0 + (slot % 8) as f64 * 0.9;
    Request::join(Strategy::Sweep, ThetaOp::WithinDistance(d))
}

#[test]
fn concurrent_joins_match_sequential_replay_of_their_reported_version() {
    let config = ServiceConfig {
        queue_depth: 256,
        cache_capacity: 64,
        ..ServiceConfig::default()
    };
    let r0 = grid_tuples(6, 8.0, 0);
    let s0 = grid_tuples(6, 8.0, 1000);
    let svc = Arc::new(SpatialService::start(config, &r0, &s0, world()));

    // The update stream: each batch drops one fresh point per side into
    // the middle of the grid, where the θ-distances above will see it.
    let batches: Vec<Inserts> = (0..5u64)
        .map(|b| {
            let x = 10.0 + b as f64 * 3.0;
            vec![
                (Side::R, 5000 + b, Geometry::Point(Point::new(x, 12.0))),
                (Side::S, 6000 + b, Geometry::Point(Point::new(12.0, x))),
            ]
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4usize)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen: Vec<Observation> = Vec::new();
                let mut k = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let slot = t * 3 + k;
                    k += 1;
                    match svc.call(request_for(slot)) {
                        Ok(resp) => {
                            let Reply::Join { pairs, .. } = &resp.reply else {
                                panic!("join reply expected");
                            };
                            seen.push((resp.version, slot % 8, pairs.to_vec()));
                        }
                        // Overload shedding is fine under stress.
                        Err(Rejection::QueueFull) => continue,
                        Err(other) => panic!("unexpected rejection {other:?}"),
                    }
                }
                seen
            })
        })
        .collect();

    // Stream the updates while the readers hammer the service.
    for batch in &batches {
        std::thread::sleep(Duration::from_millis(30));
        svc.commit(&write_batch(batch))
            .expect("stress commits must succeed");
    }
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);
    let mut responses: Vec<Observation> = Vec::new();
    for reader in readers {
        responses.extend(reader.join().expect("reader thread must not panic"));
    }
    assert!(!responses.is_empty(), "the stress run must answer requests");

    let observed: std::collections::BTreeSet<u64> = responses.iter().map(|(v, _, _)| *v).collect();
    assert!(
        observed.len() >= 2,
        "the run must span multiple snapshot versions, saw {observed:?}"
    );
    assert!(
        *observed.iter().max().unwrap() as usize <= batches.len(),
        "versions beyond the update stream are impossible"
    );

    // Sequential replay: rebuild every observed version from the update
    // history and demand each response equals the fault-free reference
    // of exactly the version it reported.
    for &version in &observed {
        let reference = rebuilt(config, &r0, &s0, &batches, version);
        for slot in 0..8 {
            let Reply::Join { pairs: want, .. } = reference.execute_reference(&request_for(slot))
            else {
                panic!("join reply expected");
            };
            for (_, got_slot, got) in responses
                .iter()
                .filter(|(v, sl, _)| *v == version && *sl == slot)
            {
                assert_eq!(
                    got, &*want,
                    "slot {got_slot} at version {version} diverged from sequential replay"
                );
            }
        }
    }

    // Updates landed mid-traffic and never blocked the readers into
    // starvation: responses exist from before and after publishes.
    let m = svc.metrics();
    assert_eq!(m.completed, responses.len() as u64);
}

/// The hot set: SELECTs on R within 5 of a point. The commit stream
/// alternates between the neighbourhoods of the first two, so their
/// entries are purged by every other commit; the rest are far from
/// every write, so each commit re-stamps them.
const HOT: [(f64, f64); 6] = [
    (10.0, 12.0),
    (50.0, 50.0),
    (56.0, 0.0),
    (0.0, 56.0),
    (32.0, 32.0),
    (56.0, 24.0),
];

fn hot_select(slot: usize) -> Request {
    let (x, y) = HOT[slot % HOT.len()];
    Request::select(
        Side::R,
        Geometry::Point(Point::new(x, y)),
        ThetaOp::WithinDistance(5.0),
    )
}

#[test]
fn concurrent_selects_probing_at_submit_match_sequential_replay_while_commits_purge() {
    let config = ServiceConfig {
        queue_depth: 256,
        cache_capacity: 64,
        ..ServiceConfig::default()
    };
    let r0 = grid_tuples(6, 8.0, 0);
    let s0 = grid_tuples(6, 8.0, 1000);
    let svc = Arc::new(SpatialService::start(config, &r0, &s0, world()));

    // Even batches write next to HOT[0], odd ones next to HOT[1]; the
    // S-side insert sits on a far probe and must not disturb an R SELECT.
    let batches: Vec<Inserts> = (0..8u64)
        .map(|b| {
            let (x, y) = HOT[(b % 2) as usize];
            let near = Point::new(x + (b / 2) as f64, y + 1.0);
            vec![
                (Side::R, 5000 + b, Geometry::Point(near)),
                (Side::S, 6000 + b, Geometry::Point(Point::new(32.0, 32.0))),
            ]
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let answered = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..4usize)
        .map(|t| {
            let (svc, stop, answered) = (svc.clone(), stop.clone(), answered.clone());
            std::thread::spawn(move || {
                // (version, slot, cached, matches)
                let mut seen: Vec<(u64, usize, bool, Vec<u64>)> = Vec::new();
                let mut slot = t;
                while !stop.load(Ordering::Relaxed) {
                    slot = (slot + 1) % HOT.len();
                    match svc.call(hot_select(slot)) {
                        Ok(resp) => {
                            let Reply::Select { matches } = &resp.reply else {
                                panic!("select reply expected");
                            };
                            seen.push((resp.version, slot, resp.cached, matches.to_vec()));
                            answered.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(Rejection::QueueFull) => continue,
                        Err(other) => panic!("unexpected rejection {other:?}"),
                    }
                }
                seen
            })
        })
        .collect();

    // Each commit waits for the readers to answer a few hundred more
    // requests, so every version serves traffic before the next purge.
    // Readers that all stopped (panicked) end the wait; joining them
    // below surfaces the panic.
    let await_traffic = || {
        let target = answered.load(Ordering::Relaxed) + 300;
        while answered.load(Ordering::Relaxed) < target && !readers.iter().all(|r| r.is_finished())
        {
            std::thread::yield_now();
        }
    };
    for batch in &batches {
        await_traffic();
        svc.commit(&write_batch(batch))
            .expect("stress commits must succeed");
    }
    await_traffic();
    stop.store(true, Ordering::Relaxed);
    let mut responses = Vec::new();
    for reader in readers {
        responses.extend(reader.join().expect("reader thread must not panic"));
    }

    let versions = |cached_only: bool| -> std::collections::BTreeSet<u64> {
        let kept = responses.iter().filter(|(_, _, c, _)| *c || !cached_only);
        kept.map(|(v, ..)| *v).collect()
    };
    assert!(
        versions(true).len() >= 2,
        "hits must be served on several versions, saw {:?} of {:?}",
        versions(true),
        versions(false)
    );
    for version in versions(false) {
        assert!(version as usize <= batches.len());
        let reference = rebuilt(config, &r0, &s0, &batches, version);
        for slot in 0..HOT.len() {
            let Reply::Select { matches: want } = reference.execute_reference(&hot_select(slot))
            else {
                panic!("select reply expected");
            };
            for (_, _, cached, got) in responses
                .iter()
                .filter(|(v, sl, ..)| *v == version && *sl == slot)
            {
                assert_eq!(
                    got, &*want,
                    "slot {slot} at version {version} (cached: {cached}) diverged from replay"
                );
            }
        }
    }
    assert_eq!(svc.metrics().completed, responses.len() as u64);
}

/// The third test's request mix: a SELECT on R and one JOIN per strategy.
fn mixed_request(slot: usize) -> Request {
    let theta = ThetaOp::WithinDistance(6.0);
    match slot % 4 {
        0 => Request::select(Side::R, Geometry::Point(Point::new(30.0, 30.0)), theta),
        1 => Request::join(Strategy::Sweep, theta),
        2 => Request::join(Strategy::Partition, theta),
        _ => Request::join(Strategy::Tree, theta),
    }
}

#[test]
fn readers_of_chunk_shared_snapshots_match_replay_across_fifty_commits() {
    let config = ServiceConfig {
        queue_depth: 256,
        cache_capacity: 0,
        ..ServiceConfig::default()
    };
    let r0 = grid_tuples(12, 5.0, 0);
    let s0 = grid_tuples(12, 5.0, 1000);
    let svc = Arc::new(SpatialService::start(config, &r0, &s0, world()));

    // Commit `b` moves four tuples per side across the grid (upserts of
    // ids the seed holds), deletes one seed tuple per side and inserts one
    // fresh one: leaves, their ancestors, both directories and the pages
    // under them are rewritten all over both trees, fifty times.
    type Op = (Side, u64, Option<Geometry>);
    let batches: Vec<Vec<Op>> = (0..50u64)
        .map(|b| {
            let at = |k: u64| {
                Point::new(
                    (b * 7 + k * 13) as f64 % 60.0,
                    (b * 11 + k * 5) as f64 % 60.0,
                )
            };
            let mut ops: Vec<Op> = Vec::new();
            for (side, id0) in [(Side::R, 0), (Side::S, 1000)] {
                for k in 0..4 {
                    let id = id0 + 50 + (b * 4 + k) % 90;
                    ops.push((side, id, Some(Geometry::Point(at(k)))));
                }
                ops.push((side, id0 + b % 50, None));
                ops.push((side, id0 + 500 + b, Some(Geometry::Point(at(9)))));
            }
            ops
        })
        .collect();
    let write = |ops: &[Op]| {
        ops.iter()
            .fold(WriteBatch::new(), |wb, (side, id, g)| match g {
                Some(g) => wb.upsert(*side, *id, g.clone()),
                None => wb.delete(*side, *id),
            })
    };
    // The tuples of each version, by sequential replay of the stream.
    let mut versions = vec![(r0.clone(), s0.clone())];
    for ops in &batches {
        let (mut r, mut s) = versions.last().expect("seed version").clone();
        for (side, id, g) in ops {
            let rel = if *side == Side::R { &mut r } else { &mut s };
            rel.retain(|(have, _)| have != id);
            rel.extend(g.clone().map(|g| (*id, g)));
        }
        versions.push((r, s));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let answered = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..3usize)
        .map(|t| {
            let (svc, stop, answered) = (svc.clone(), stop.clone(), answered.clone());
            std::thread::spawn(move || {
                let mut seen: Vec<(u64, usize, Reply)> = Vec::new();
                let mut slot = t;
                while !stop.load(Ordering::Relaxed) {
                    slot += 1;
                    match svc.call(mixed_request(slot)) {
                        Ok(resp) => {
                            seen.push((resp.version, slot % 4, resp.reply));
                            answered.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(Rejection::QueueFull) => continue,
                        Err(other) => panic!("unexpected rejection {other:?}"),
                    }
                }
                seen
            })
        })
        .collect();
    // Every version serves a few requests before the next commit lands;
    // readers that all stopped (panicked) end the wait, and joining them
    // below surfaces the panic.
    let await_traffic = || {
        let target = answered.load(Ordering::Relaxed) + 6;
        while answered.load(Ordering::Relaxed) < target && !readers.iter().all(|r| r.is_finished())
        {
            std::thread::yield_now();
        }
    };
    for ops in &batches {
        await_traffic();
        svc.commit(&write(ops))
            .expect("stress commits must succeed");
    }
    await_traffic();
    stop.store(true, Ordering::Relaxed);
    let mut responses = Vec::new();
    for reader in readers {
        responses.extend(reader.join().expect("reader thread must not panic"));
    }

    let observed: std::collections::BTreeSet<u64> = responses.iter().map(|(v, ..)| *v).collect();
    assert!(
        observed.len() >= 10 && observed.contains(&50),
        "the run must span the commit stream, saw {observed:?}"
    );
    for &version in &observed {
        let (r, s) = &versions[version as usize];
        let reference = SpatialService::start(config, r, s, world());
        for (_, slot, got) in responses.iter().filter(|(v, ..)| *v == version) {
            assert_eq!(
                got,
                &reference.execute_reference(&mixed_request(*slot)),
                "request {slot} at version {version} diverged from sequential replay"
            );
        }
    }
}
