//! `storage.*`: the buffer pool under a paged SELECT, the space the
//! stored relations take, and the WAL's commit point. Pins
//! `BufferPool::{fork_view, stats, disk, config}`, `IoStats`,
//! `PagedTree::try_touch_io`, `try_select_flat` and
//! `WriteAheadLog::{append, sync}`.

use std::time::Instant;

use sj_gentree::select::try_select_flat;
use sj_geom::{codec, Geometry, ThetaOp};
use sj_service::WriteBatch;
use sj_storage::{IoStats, WriteAheadLog};

use crate::layers::{ratio, Stored};
use crate::spec::Metric;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::Dataset;

const WAL_COMMITS: usize = 2_000;

pub fn run(
    stored: &Stored,
    data: &Dataset,
    shard_capacity: usize,
    probes: &[Geometry],
    batches: &[WriteBatch],
    tracer: &mut Tracer,
) -> Vec<Metric> {
    // Every probe runs on its own cold fork, as a service worker's
    // request does; hits are re-references within one traversal.
    let tree = &stored.r_tree;
    let mut io = IoStats::default();
    let span_start = tracer.now();
    for p in probes {
        let mut shard = stored.pool.fork_view(shard_capacity);
        try_select_flat(&tree.tree, Some(&tree.flat), p, ThetaOp::Overlaps, |node| {
            tree.paged.try_touch_io(&mut shard, node)
        })
        .expect("no fault injector is armed");
        io.merge(&shard.stats());
    }
    let span_end = tracer.now();
    tracer.record(None, 0, "probe.storage.paged_select", span_start, span_end);

    let disk_bytes = stored.pool.disk().page_count() * stored.pool.config().page_size;
    let user_bytes: usize = data
        .r
        .iter()
        .chain(data.s.iter())
        .map(|(_, g)| codec::encoded_len(g))
        .sum();

    let payloads: Vec<Vec<u8>> = batches.iter().map(WriteBatch::encode).collect();
    let mut wal = WriteAheadLog::new();
    let mut commit_us = Vec::with_capacity(WAL_COMMITS);
    let span_start = tracer.now();
    for i in 0..WAL_COMMITS {
        let payload = &payloads[i % payloads.len()];
        let started = Instant::now();
        wal.append(payload);
        wal.sync().expect("no fault injector is armed");
        commit_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let span_end = tracer.now();
    tracer.record(None, 0, "probe.storage.wal_commit", span_start, span_end);

    vec![
        Metric::new(
            "storage.pool_hit_frac",
            ratio(io.hits() as f64, io.logical_reads as f64),
            "frac",
        ),
        Metric::new(
            "storage.bytes_per_user_byte",
            ratio(disk_bytes as f64, user_bytes as f64),
            "ratio",
        ),
        Metric::new("storage.wal_commit_us_p50", median(&commit_us), "us"),
    ]
}
