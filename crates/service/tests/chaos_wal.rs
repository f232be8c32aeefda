//! WAL crash-recovery chaos: kill the log at every fsync boundary and
//! demand the recovered service is *exactly* the durable prefix of the
//! history — or a typed error. Never a wrong answer.
//!
//! Recovery reads a checkpoint image plus the WAL written after it; a
//! version-0 checkpoint taken right after `start` stands in for the
//! seed data. The checkpoint tests pair every image with every log a
//! crash can leave behind: before or after the truncation that follows
//! a checkpoint, and damaged ones.
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

/// Takes a checkpoint and returns the image it stored.
fn checkpoint(svc: &SpatialService) -> Vec<u8> {
    svc.checkpoint().expect("no injector on the snapshot");
    svc.checkpoint_image()
        .expect("a checkpoint stores an image")
}

/// `recovered` answers every probe as `reference` does, at its version.
fn assert_same(recovered: &SpatialService, reference: &SpatialService, what: &str) {
    assert_eq!(recovered.version(), reference.version(), "{what}: version");
    for req in probes() {
        assert_eq!(
            recovered.execute_reference(&req),
            reference.execute_reference(&req),
            "{what}: diverged on {req:?}"
        );
    }
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
        let image = checkpoint(&svc);
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
        let recovered = SpatialService::recover(config(), &image, &svc.wal_image())
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
        let log = svc.wal_image();
        for pos in (0..log.len()).step_by(log.len() / 16 + 1) {
            let mut bad = log.clone();
            bad[pos] ^= 0x40;
            match SpatialService::recover(config(), &image, &bad) {
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
    let image = checkpoint(&svc);
    svc.set_wal_fault_injector(Some(sync_killer(0)));

    let batch = WriteBatch::new().insert(Side::R, 9_001, Geometry::Point(Point::new(9.0, 9.0)));
    let err = svc.commit(&batch).expect_err("armed sync must fail");
    assert!(matches!(err, Rejection::Failed(_)));
    assert_eq!(svc.version(), 0, "aborted commit leaves no trace");

    // The WAL rolled its volatile tail back, so the retry re-appends the
    // batch and lands at version 1 — and recovery sees it exactly once.
    let receipt = svc.commit(&batch).expect("sync attempt 1 is unarmed");
    assert_eq!(receipt.version, 1);
    let recovered = SpatialService::recover(config(), &image, &svc.wal_image())
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

/// The images and logs a checkpoint in the middle of the history can
/// leave behind, with the sequential reference at each point.
struct Checkpointed {
    /// Version-0 image, and the log before the second checkpoint.
    old_image: Vec<u8>,
    full_wal: Vec<u8>,
    /// The image after two batches, and the log it truncated once two
    /// more batches landed.
    new_image: Vec<u8>,
    truncated_wal: Vec<u8>,
    /// References at version 2 (the new image) and version 4 (the end).
    at_image: SpatialService,
    at_end: SpatialService,
}

fn checkpointed() -> Checkpointed {
    let r0 = grid_tuples(5, 8.0, 0);
    let s0 = grid_tuples(5, 8.0, 500);
    let batches = history();
    let svc = SpatialService::start(config(), &r0, &s0, world());
    let at_image = SpatialService::start(config(), &r0, &s0, world());
    let at_end = SpatialService::start(config(), &r0, &s0, world());
    let commit = |batch| {
        svc.commit(batch).expect("no injector armed");
        at_end.commit(batch).expect("no injector armed");
    };
    let old_image = checkpoint(&svc);
    for batch in &batches[..2] {
        commit(batch);
        at_image.commit(batch).expect("no injector armed");
    }
    let full_wal = svc.wal_image();
    let new_image = checkpoint(&svc);
    assert_eq!(
        new_image,
        checkpoint(&svc),
        "a second checkpoint changes nothing"
    );
    for batch in &batches[2..4] {
        commit(batch);
    }
    Checkpointed {
        old_image,
        full_wal,
        new_image,
        truncated_wal: svc.wal_image(),
        at_image,
        at_end,
    }
}

#[test]
fn recovery_after_a_checkpoint_replays_only_the_log_after_it() {
    let c = checkpointed();
    let recovered = SpatialService::recover(config(), &c.new_image, &c.truncated_wal)
        .expect("image and the log after it");
    assert_same(&recovered, &c.at_end, "new image, truncated log");
    // The recovered service goes on committing, checkpointing and
    // recovering like the original.
    let batch = history().remove(4);
    recovered.commit(&batch).unwrap();
    c.at_end.commit(&batch).unwrap();
    let again = SpatialService::recover(config(), &c.new_image, &recovered.wal_image()).unwrap();
    assert_same(&again, &c.at_end, "after one more commit");
    let image = checkpoint(&recovered);
    let from_latest = SpatialService::recover(config(), &image, &recovered.wal_image()).unwrap();
    assert_same(&from_latest, &c.at_end, "latest image, empty log");
}

/// A crash between storing the new image and truncating the log leaves
/// the new image beside the whole log; the old image beside the whole
/// log is what a crash while writing the new image leaves.
#[test]
fn every_image_recovers_beside_the_log_it_was_taken_from() {
    let c = checkpointed();
    let killed = SpatialService::recover(config(), &c.new_image, &c.full_wal).unwrap();
    assert_same(&killed, &c.at_image, "new image, log before truncation");
    let old = SpatialService::recover(config(), &c.old_image, &c.full_wal).unwrap();
    assert_same(&old, &c.at_image, "old image, full log");
}

#[test]
fn an_image_the_log_does_not_continue_is_a_typed_gap() {
    let c = checkpointed();
    let gap = SpatialService::recover(config(), &c.old_image, &c.truncated_wal);
    assert!(
        matches!(gap, Err(StorageError::LogGap { image_lsn: 0, .. })),
        "old image, truncated log: {:?}",
        gap.err()
    );
    // A log older than the image cannot be the one that continues it.
    let empty = SpatialService::start(config(), &[], &[], world()).wal_image();
    let behind = SpatialService::recover(config(), &c.new_image, &empty);
    assert!(matches!(
        behind,
        Err(StorageError::LogGap { log_end: 0, .. })
    ));
}

#[test]
fn every_bit_flip_in_an_image_is_a_typed_error() {
    let r0 = grid_tuples(3, 8.0, 0);
    let s0 = grid_tuples(3, 8.0, 500);
    let svc = SpatialService::start(config(), &r0, &s0, world());
    svc.commit(&history()[0]).unwrap();
    let image = checkpoint(&svc);
    let wal = svc.wal_image();
    for bit in 0..image.len() * 8 {
        let mut bad = image.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        match SpatialService::recover(config(), &bad, &wal) {
            Err(StorageError::WalCorrupt { .. }) => {}
            Err(other) => panic!("bit {bit}: wrong error kind {other:?}"),
            Ok(_) => panic!("bit {bit}: a damaged image recovered"),
        }
    }
}

#[test]
fn a_log_passed_as_the_image_is_a_typed_error() {
    let c = checkpointed();
    for (what, log) in [("full", &c.full_wal), ("truncated", &c.truncated_wal)] {
        let got = SpatialService::recover(config(), log, log);
        assert!(
            matches!(got, Err(StorageError::WalCorrupt { .. })),
            "{what} log as the image: {:?}",
            got.err()
        );
    }
}
