//! WAL crash-recovery chaos: kill the log at every fsync boundary and
//! demand the recovered service is *exactly* the durable prefix of the
//! history — or a typed error. Never a wrong answer.
//!
//! The fault injector targets sync attempt `k` (the WAL consults
//! `FaultOp::Write` on `PageId(k)` for its `k`-th fsync, 0-based), so
//! one run per `k` simulates a crash at each commit point in turn: the
//! failed commit aborts (state and version unchanged), every other
//! commit lands, and recovery from the surviving durable image rebuilds
//! precisely the successful history. Corrupting any byte of the image
//! makes recovery fail-stop with [`StorageError::WalCorrupt`].

use std::collections::HashSet;

use sj_geom::{Geometry, Point, Rect, ThetaOp};
use sj_joins::Strategy;
use sj_service::{Rejection, Request, ServiceConfig, Side, SpatialService, WriteBatch};
use sj_storage::{FaultConfig, FaultInjector, PageId, StorageError};

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

fn config() -> ServiceConfig {
    ServiceConfig {
        cache_capacity: 16,
        queue_depth: 64,
        ..ServiceConfig::default()
    }
}

/// The commit history every run replays: five small batches mixing
/// inserts, an upsert-rewrite, and a delete.
fn history() -> Vec<WriteBatch> {
    (0..5u64)
        .map(|k| {
            let x = 10.0 + k as f64 * 5.0;
            let mut batch = WriteBatch::new()
                .insert(Side::R, 7_000 + k, Geometry::Point(Point::new(x, 12.0)))
                .insert(Side::S, 8_000 + k, Geometry::Point(Point::new(12.0, x)));
            if k >= 2 {
                // Rewrite batch k-2's R insert and drop its S insert.
                batch = batch
                    .upsert(Side::R, 7_000 + k - 2, Geometry::Point(Point::new(x, 40.0)))
                    .delete(Side::S, 8_000 + k - 2);
            }
            batch
        })
        .collect()
}

/// Fault injector whose `write_prob: 1.0` fires only on the targeted
/// sync attempt.
fn sync_killer(attempt: u32) -> FaultInjector {
    FaultInjector::new(FaultConfig {
        seed: 7,
        read_prob: 0.0,
        write_prob: 1.0,
        alloc_prob: 0.0,
        target_pages: Some(HashSet::from([PageId(attempt)])),
        budget: None,
    })
}

fn probes() -> Vec<Request> {
    vec![
        Request::select(
            Side::R,
            Geometry::Point(Point::new(12.0, 12.0)),
            ThetaOp::WithinDistance(9.0),
        ),
        Request::select(
            Side::S,
            Geometry::Point(Point::new(12.0, 20.0)),
            ThetaOp::WithinCenterDistance(12.0),
        ),
        Request::join(Strategy::Auto, ThetaOp::WithinDistance(7.5)),
        Request::join(Strategy::Tree, ThetaOp::Adjacent),
    ]
}

#[test]
fn crash_at_every_fsync_boundary_recovers_the_durable_prefix() {
    let r0 = grid_tuples(5, 8.0, 0);
    let s0 = grid_tuples(5, 8.0, 500);
    let batches = history();

    for fail_at in 0..batches.len() {
        let svc = SpatialService::start(config(), &r0, &s0, world());
        svc.set_wal_fault_injector(Some(sync_killer(fail_at as u32)));

        // Sequential reference over the batches that actually land.
        let reference = SpatialService::start(config(), &r0, &s0, world());
        let mut committed = 0u64;
        for (k, batch) in batches.iter().enumerate() {
            match svc.commit(batch) {
                Ok(receipt) => {
                    reference.commit(batch).expect("reference has no injector");
                    committed += 1;
                    assert_eq!(
                        receipt.version, committed,
                        "crash run {fail_at}: surviving commits renumber densely"
                    );
                }
                Err(Rejection::Failed(e)) => {
                    assert_eq!(k, fail_at, "crash run {fail_at}: only the armed sync fails");
                    assert_eq!(e.kind(), "injected_fault");
                }
                Err(other) => panic!("crash run {fail_at}: unexpected rejection {other:?}"),
            }
        }
        assert_eq!(committed, batches.len() as u64 - 1);
        assert_eq!(
            svc.write_metrics().aborted_commits(),
            1,
            "crash run {fail_at}: exactly one abort"
        );

        // Recover from the durable image: the recovered service must be
        // indistinguishable from the sequential reference.
        let recovered = SpatialService::recover(config(), &r0, &s0, &svc.wal_image())
            .expect("the durable image is well-formed");
        assert_eq!(recovered.version(), committed, "crash run {fail_at}");
        for req in probes() {
            assert_eq!(
                recovered.execute_reference(&req),
                reference.execute_reference(&req),
                "crash run {fail_at}: recovered state diverged on {req:?}"
            );
        }

        // Fail-stop on corruption: flipping any sampled byte of the
        // image must yield a typed WalCorrupt, never a wrong answer.
        let image = svc.wal_image();
        for pos in (0..image.len()).step_by(image.len() / 16 + 1) {
            let mut bad = image.clone();
            bad[pos] ^= 0x40;
            match SpatialService::recover(config(), &r0, &s0, &bad) {
                Err(StorageError::WalCorrupt { .. }) => {}
                Err(other) => panic!("crash run {fail_at}: wrong error kind {other:?}"),
                Ok(recovered) => {
                    // A flip past the last sync marker only touches the
                    // discarded volatile tail — recovery may legally
                    // succeed, but then it must still equal the prefix.
                    for req in probes() {
                        assert_eq!(
                            recovered.execute_reference(&req),
                            reference.execute_reference(&req),
                            "crash run {fail_at}: corrupt-tail recovery diverged"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn retry_after_a_failed_sync_commits_cleanly() {
    let r0 = grid_tuples(4, 8.0, 0);
    let s0 = grid_tuples(4, 8.0, 500);
    let svc = SpatialService::start(config(), &r0, &s0, world());
    svc.set_wal_fault_injector(Some(sync_killer(0)));

    let batch = WriteBatch::new().insert(Side::R, 9_001, Geometry::Point(Point::new(9.0, 9.0)));
    let err = svc.commit(&batch).expect_err("armed sync must fail");
    assert!(matches!(err, Rejection::Failed(_)));
    assert_eq!(svc.version(), 0, "aborted commit leaves no trace");

    // The WAL rolled its volatile tail back, so the retry re-appends the
    // batch and lands at version 1 — and recovery sees it exactly once.
    let receipt = svc.commit(&batch).expect("sync attempt 1 is unarmed");
    assert_eq!(receipt.version, 1);
    let recovered = SpatialService::recover(config(), &r0, &s0, &svc.wal_image())
        .expect("durable image recovers");
    assert_eq!(recovered.version(), 1);
    let probe = Request::select(
        Side::R,
        Geometry::Point(Point::new(9.0, 9.0)),
        ThetaOp::WithinDistance(2.0),
    );
    assert_eq!(
        recovered.execute_reference(&probe),
        svc.execute_reference(&probe),
        "the retried write is durable exactly once"
    );
}
