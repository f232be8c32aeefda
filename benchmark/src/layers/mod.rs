//! Per-layer probes (layer = crate). Each module times calls into one
//! layer's existing public functions and nothing else; the imports at
//! the top of each file are the signatures the benchmark pins there.

pub mod core;
pub mod gentree;
pub mod geom;
pub mod joins;
pub mod service;
pub mod shard;
pub mod storage;

use std::time::Instant;

use sj_gentree::rtree::{RTree, RTreeConfig};
use sj_geom::{Geometry, Rect};
use sj_joins::{StoredRelation, TreeRelation};
use sj_obs::TraceSink;
use sj_service::ServiceConfig;
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};

use crate::trace::Tracer;

/// Both relations stored the way a service stores them — flat heap
/// files plus clustered paged generalization trees on one pool — built
/// by the harness from the layers' public constructors, so executor
/// and tree probes run over exactly what a request would see.
pub struct Stored {
    pub pool: BufferPool,
    pub r: StoredRelation,
    pub s: StoredRelation,
    pub r_index: RTree,
    pub r_tree: TreeRelation,
    pub s_tree: TreeRelation,
    pub world: Rect,
}

impl Stored {
    pub fn build(
        config: &ServiceConfig,
        r_tuples: &[(u64, Geometry)],
        s_tuples: &[(u64, Geometry)],
        world: Rect,
    ) -> Stored {
        let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), config.pool_capacity);
        let flat = |pool: &mut BufferPool, tuples: &[(u64, Geometry)]| {
            if config.compress_geometry {
                let qsize =
                    StoredRelation::quant_record_size_for(tuples).max(config.quant_record_size);
                StoredRelation::build_compressed(
                    pool,
                    tuples,
                    config.record_size,
                    qsize,
                    Layout::Clustered,
                )
            } else {
                StoredRelation::build(pool, tuples, config.record_size, Layout::Clustered)
            }
        };
        let r = flat(&mut pool, r_tuples);
        let s = flat(&mut pool, s_tuples);
        let tree = |pool: &mut BufferPool, tuples: &[(u64, Geometry)]| {
            let index = RTree::bulk_load(RTreeConfig::with_fanout(config.fanout), tuples.to_vec());
            let paged = if config.compress_geometry {
                TreeRelation::new_compressed(
                    pool,
                    index.tree().clone(),
                    config.quant_record_size,
                    Layout::Clustered,
                )
            } else {
                TreeRelation::new(
                    pool,
                    index.tree().clone(),
                    config.record_size,
                    Layout::Clustered,
                )
            };
            (index, paged)
        };
        let (r_index, r_tree) = tree(&mut pool, r_tuples);
        let (_, s_tree) = tree(&mut pool, s_tuples);
        Stored {
            pool,
            r,
            s,
            r_index,
            r_tree,
            s_tree,
            world,
        }
    }
}

/// Times one call into a layer and records it as a root span.
pub fn probe<T>(tracer: &mut Tracer, name: &str, call: impl FnOnce() -> T) -> (T, f64) {
    let start_ns = tracer.now();
    let started = Instant::now();
    let out = call();
    let secs = started.elapsed().as_secs_f64();
    let end_ns = tracer.now();
    tracer.record(None, 0, name, start_ns, end_ns);
    (out, secs)
}

/// One counter of one span in an `emit_metrics` event stream (0 when
/// the span or the counter is absent).
pub fn counter(sink: &TraceSink, span: &str, name: &str) -> f64 {
    sink.events()
        .iter()
        .find(|e| e.span == span)
        .and_then(|e| e.counters.iter().find(|(k, _)| *k == name))
        .map_or(0.0, |(_, v)| *v as f64)
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
