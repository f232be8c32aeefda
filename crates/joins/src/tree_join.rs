//! Strategy II: hierarchical SELECT / JOIN over stored generalization
//! trees. The IIa/IIb distinction is purely the [`Layout`] the
//! [`TreeRelation`] was stored with.
//!
//! [`Layout`]: sj_storage::Layout

use sj_gentree::{join, select};
use sj_geom::{Geometry, ThetaOp};
use sj_obs::{Phase, PhaseTimer, TraceSink};
use sj_storage::{BufferPool, StorageError};

use crate::paged_tree::TreeRelation;
use crate::stats::{ExecStats, JoinRun, SelectRun};

/// Traversal order for the stored SELECT executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraversalOrder {
    /// The paper's Algorithm SELECT (level by level).
    BreadthFirst,
    /// The §3.2 alternative.
    DepthFirst,
}

/// Algorithm SELECT over a stored tree, charging one record read per node
/// visit. Fail-stop: the first faulted node touch aborts the run with a
/// typed error (no partial match set).
pub fn tree_select(
    pool: &mut BufferPool,
    r: &TreeRelation,
    o: &Geometry,
    theta: ThetaOp,
    order: TraversalOrder,
) -> Result<SelectRun, StorageError> {
    let before = pool.stats();
    let touch = |node| r.paged.try_touch_io(pool, node);
    let outcome = match order {
        TraversalOrder::BreadthFirst => select::try_select_flat(&r.tree, None, o, theta, touch)?,
        TraversalOrder::DepthFirst => select::try_select_dfs_flat(&r.tree, o, theta, touch)?,
    };
    let mut run = SelectRun {
        matches: outcome.matches,
        stats: Default::default(),
    };
    run.stats.theta_evals = outcome.stats.theta_evals;
    run.stats.filter_evals = outcome.stats.filter_evals;
    run.stats.passes = 1;
    run.stats.add_io(pool.stats().since(&before));
    Ok(run)
}

/// Algorithm JOIN over two stored trees, charging record reads per node
/// visit on both sides. Re-visits that hit the buffer pool are free, which
/// is exactly the role the paper's memory-pass argument plays in `D_II`.
/// The traversal is the level-synchronized Algorithm JOIN of §3.3
/// ([`join::try_join_flat`]).
///
/// Node touches (the stored tree's record I/O) are the `index-probe`
/// phase, Θ-filter work the `filter` phase, θ-evaluations the `refine`
/// phase. With an observing sink the run emits one
/// `tree_join/level:<depth>` span per tree level (the traversal's
/// per-level visit and comparison histograms).
///
/// Fail-stop: the first faulted node touch aborts the run with a typed
/// error.
pub fn tree_join(
    pool: &mut BufferPool,
    r: &TreeRelation,
    s: &TreeRelation,
    theta: ThetaOp,
    trace: &mut TraceSink,
) -> Result<JoinRun, StorageError> {
    let mut timer = PhaseTimer::for_sink(trace);
    timer.enter(Phase::IndexProbe);
    let window = pool.stats();
    // Both visitor callbacks need the pool; a local RefCell arbitrates the
    // (strictly alternating, single-threaded) accesses.
    let pool_cell = std::cell::RefCell::new(&mut *pool);
    let outcome = join::try_join_flat(
        &r.tree,
        &s.tree,
        theta,
        |node| r.paged.try_touch_io(&mut pool_cell.borrow_mut(), node),
        |node| s.paged.try_touch_io(&mut pool_cell.borrow_mut(), node),
    )?;
    timer.stop();
    let mut run = JoinRun {
        pairs: outcome.pairs,
        ..Default::default()
    };
    let mut probe = ExecStats {
        passes: 1,
        ..Default::default()
    };
    probe.add_io(pool.stats().since(&window));
    run.phases.record(Phase::IndexProbe, probe);
    run.phases.record(
        Phase::Filter,
        ExecStats {
            filter_evals: outcome.stats.filter_evals,
            ..Default::default()
        },
    );
    run.phases.record(
        Phase::Refine,
        ExecStats {
            theta_evals: outcome.stats.theta_evals,
            ..Default::default()
        },
    );
    if trace.is_enabled() {
        for (depth, &visits) in outcome.stats.visited_per_level.iter().enumerate() {
            let evals = outcome
                .stats
                .evals_per_level
                .get(depth)
                .copied()
                .unwrap_or(0);
            trace.emit(
                &format!("tree_join/level:{depth}"),
                0,
                &[("nodes_visited", visits), ("comparisons", evals)],
            );
        }
    }
    run.seal("tree_join", &timer, trace);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_gentree::rtree::{RTree, RTreeConfig};
    use sj_geom::{Point, Rect};
    use sj_storage::{Disk, DiskConfig, Layout};

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(Disk::new(DiskConfig::paper()), frames)
    }

    fn grid_tree(
        pool: &mut BufferPool,
        n: usize,
        step: f64,
        id0: u64,
        layout: Layout,
    ) -> TreeRelation {
        let entries: Vec<(u64, Geometry)> = (0..n * n)
            .map(|i| {
                (
                    id0 + i as u64,
                    Geometry::Point(Point::new((i % n) as f64 * step, (i / n) as f64 * step)),
                )
            })
            .collect();
        let rt = RTree::bulk_load(RTreeConfig::with_fanout(5), entries);
        TreeRelation::new(pool, rt.tree().clone(), 300, layout)
    }

    #[test]
    fn select_bfs_and_dfs_agree() {
        let mut p = pool(64);
        let r = grid_tree(&mut p, 8, 10.0, 0, Layout::Clustered);
        let o = Geometry::Point(Point::new(35.0, 35.0));
        let theta = ThetaOp::WithinDistance(12.0);
        let mut bfs = tree_select(&mut p, &r, &o, theta, TraversalOrder::BreadthFirst)
            .unwrap()
            .matches;
        let mut dfs = tree_select(&mut p, &r, &o, theta, TraversalOrder::DepthFirst)
            .unwrap()
            .matches;
        bfs.sort_unstable();
        dfs.sort_unstable();
        assert_eq!(bfs, dfs);
        assert!(!bfs.is_empty());
    }

    #[test]
    fn clustered_layout_reads_fewer_pages_than_unclustered() {
        // Small pool so scattered placement hurts.
        let mut pc = pool(8);
        let rc = grid_tree(&mut pc, 12, 5.0, 0, Layout::Clustered);
        let mut pu = pool(8);
        let ru = grid_tree(&mut pu, 12, 5.0, 0, Layout::Unclustered { seed: 3 });

        let o = Geometry::Rect(Rect::from_bounds(10.0, 10.0, 40.0, 40.0));
        let theta = ThetaOp::Overlaps;

        pc.clear();
        pc.reset_stats();
        let run_c = tree_select(&mut pc, &rc, &o, theta, TraversalOrder::BreadthFirst).unwrap();
        pu.clear();
        pu.reset_stats();
        let run_u = tree_select(&mut pu, &ru, &o, theta, TraversalOrder::BreadthFirst).unwrap();

        assert_eq!(
            {
                let mut a = run_c.matches.clone();
                a.sort_unstable();
                a
            },
            {
                let mut b = run_u.matches.clone();
                b.sort_unstable();
                b
            }
        );
        assert!(
            run_c.stats.physical_reads <= run_u.stats.physical_reads,
            "clustered {} vs unclustered {}",
            run_c.stats.physical_reads,
            run_u.stats.physical_reads
        );
    }

    #[test]
    fn join_matches_nested_loop_reference() {
        let mut p = pool(64);
        let r = grid_tree(&mut p, 6, 10.0, 0, Layout::Clustered);
        let s = grid_tree(&mut p, 6, 10.0, 1000, Layout::Clustered);
        let theta = ThetaOp::WithinDistance(10.5);
        p.clear();
        p.reset_stats();
        let run = tree_join(&mut p, &r, &s, theta, &mut TraceSink::Null).unwrap();
        let mut got = run.pairs.clone();
        got.sort_unstable();
        let mut want = sj_gentree::join::join_exhaustive(&r.tree, &s.tree, theta).pairs;
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(run.stats.physical_reads > 0);
        assert!(
            run.stats.theta_evals < (36 * 36) as u64,
            "pruning must help"
        );
    }
}
