//! `gentree.*`: Algorithm SELECT and R-tree maintenance in memory, no
//! page I/O. Pins `select_flat`, `SelectOutcome::stats`,
//! `RTree::{bulk_load, insert}` and `RTreeConfig::with_fanout`.

use std::hint::black_box;
use std::time::Instant;

use sj_gentree::rtree::{RTree, RTreeConfig};
use sj_gentree::select_flat;
use sj_geom::{Geometry, ThetaOp};

use crate::layers::{probe, Stored};
use crate::spec::Metric;
use crate::stats::{mean, median};
use crate::trace::Tracer;

const BUILD_REPS: usize = 3;

/// `probes` are selects against R's tree; `inserts` are fresh R tuples.
pub fn run(
    stored: &Stored,
    fanout: usize,
    r_tuples: &[(u64, Geometry)],
    probes: &[Geometry],
    inserts: &[(u64, Geometry)],
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let mut build_ms = Vec::with_capacity(BUILD_REPS);
    for _ in 0..BUILD_REPS {
        let entries = r_tuples.to_vec();
        let (tree, secs) = probe(tracer, "probe.gentree.build", || {
            RTree::bulk_load(RTreeConfig::with_fanout(fanout), entries)
        });
        black_box(tree.len());
        build_ms.push(secs * 1e3);
    }

    let tree = &stored.r_tree;
    let mut select_us = Vec::with_capacity(probes.len());
    let mut nodes = Vec::with_capacity(probes.len());
    let span_start = tracer.now();
    for p in probes {
        let started = Instant::now();
        let out = select_flat(&tree.tree, Some(&tree.flat), p, ThetaOp::Overlaps, |_| {});
        select_us.push(started.elapsed().as_secs_f64() * 1e6);
        nodes.push(out.stats.nodes_visited as f64);
        black_box(out.matches.len());
    }
    let span_end = tracer.now();
    tracer.record(None, 0, "probe.gentree.select", span_start, span_end);

    let mut index = stored.r_index.clone();
    let mut insert_us = Vec::with_capacity(inserts.len());
    let span_start = tracer.now();
    for (id, g) in inserts {
        let g = g.clone();
        let started = Instant::now();
        index.insert(*id, g);
        insert_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let span_end = tracer.now();
    tracer.record(None, 0, "probe.gentree.insert", span_start, span_end);

    vec![
        Metric::new("gentree.select_us_p50", median(&select_us), "us"),
        Metric::new("gentree.select_nodes_per_query", mean(&nodes), "count"),
        Metric::new("gentree.build_ms", median(&build_ms), "ms"),
        Metric::new("gentree.insert_us_p50", median(&insert_us), "us"),
    ]
}
