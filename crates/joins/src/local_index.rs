//! Local join indices — the paper's §5 future-work proposal, implemented.
//!
//! > "Furthermore, we want to explore the concept of so-called *local join
//! > indices* between objects that are indexed by the same generalization
//! > tree and have some ancestor in common. This extension can be viewed
//! > as a mixture between the pure generalization trees (strategy II) and
//! > pure join indices (strategy III), and we expect one of those mixed
//! > strategies to be the one that is optimal in terms of average
//! > performance."
//!
//! This module realizes the mixture for a pair of generalization trees:
//! both trees are partitioned at an *anchor level* `L`; for every pair of
//! anchor subtrees whose MBRs pass the Θ-filter, a small **local** join
//! index of the θ-matching entry pairs between the two subtrees is
//! precomputed. The global join is the union of the local indices.
//!
//! The trade-off the paper anticipated falls out directly:
//!
//! * `L = 0` degenerates to a single global join index (pure strategy III):
//!   cheapest queries, `O(N)` θ-work per maintenance insert.
//! * Large `L` approaches pure strategy II: little precomputation, but
//!   query work returns.
//! * Intermediate `L` bounds maintenance to the entries of the Θ-matching
//!   partner subtrees — usually a small fraction of `N` — while queries
//!   remain index lookups.

use std::collections::HashMap;

use sj_btree::BPlusTree;
use sj_gentree::{GenTree, NodeId};
use sj_geom::{Bounded, Geometry, ThetaOp};
use sj_obs::{Phase, PhaseTimer, TraceSink};
use sj_storage::{BufferPool, StorageError};

use crate::paged_tree::TreeRelation;
use crate::stats::{ExecStats, JoinRun};

/// One partition's key: the anchor nodes in `R`'s and `S`'s trees.
type AnchorPair = (NodeId, NodeId);

/// A local-join-index structure over two tree-stored relations.
#[derive(Debug)]
pub struct LocalJoinIndex {
    theta: ThetaOp,
    level: usize,
    /// Anchor nodes (level-`L` roots) of each tree.
    r_anchors: Vec<NodeId>,
    s_anchors: Vec<NodeId>,
    /// Θ-qualifying anchor pairs and their local indices.
    partitions: HashMap<AnchorPair, BPlusTree<(u64, u64), ()>>,
    /// Entry lists per anchor (ids + geometries), used for maintenance.
    r_entries: HashMap<NodeId, Vec<(u64, Geometry)>>,
    s_entries: HashMap<NodeId, Vec<(u64, Geometry)>>,
}

/// The nodes at depth `min(level, height)` of a tree.
fn anchors_at(tree: &GenTree, level: usize) -> Vec<NodeId> {
    let levels = tree.levels();
    let idx = level.min(levels.len() - 1);
    levels[idx].clone()
}

/// All application entries in the subtree rooted at `n`.
fn subtree_entries(tree: &GenTree, n: NodeId) -> Vec<(u64, Geometry)> {
    let mut out = Vec::new();
    let mut stack = vec![n];
    while let Some(cur) = stack.pop() {
        if let Some(e) = tree.entry(cur) {
            out.push((e.id, e.geometry.clone()));
        }
        stack.extend_from_slice(tree.children(cur));
    }
    out
}

impl LocalJoinIndex {
    /// Builds the local indices: Θ-filters all anchor pairs, then runs a
    /// nested loop *within* each qualifying pair only. The returned stats
    /// carry the Θ- and θ-evaluation counts (contrast with a global
    /// index's `N²`). Entry records are read through the pool (charged);
    /// the first faulted node touch during the build sweeps aborts with a
    /// typed error (no partially built index).
    pub fn try_build(
        pool: &mut BufferPool,
        r: &TreeRelation,
        s: &TreeRelation,
        theta: ThetaOp,
        level: usize,
        z: usize,
    ) -> Result<(Self, ExecStats), StorageError> {
        let before = pool.stats();
        let mut stats = ExecStats::default();

        let r_anchors = anchors_at(&r.tree, level);
        let s_anchors = anchors_at(&s.tree, level);

        // Touch every stored record once (the build's scan), gathering the
        // per-anchor entry lists.
        let mut r_entries = HashMap::new();
        for &a in &r_anchors {
            // Charge I/O for the subtree sweep.
            let mut stack = vec![a];
            while let Some(cur) = stack.pop() {
                r.paged.try_touch_io(pool, cur)?;
                stack.extend_from_slice(r.tree.children(cur));
            }
            r_entries.insert(a, subtree_entries(&r.tree, a));
        }
        let mut s_entries = HashMap::new();
        for &b in &s_anchors {
            let mut stack = vec![b];
            while let Some(cur) = stack.pop() {
                s.paged.try_touch_io(pool, cur)?;
                stack.extend_from_slice(s.tree.children(cur));
            }
            s_entries.insert(b, subtree_entries(&s.tree, b));
        }

        let mut partitions = HashMap::new();
        for &a in &r_anchors {
            let a_mbr = r.tree.mbr(a);
            for &b in &s_anchors {
                stats.filter_evals += 1;
                if !theta.filter(&a_mbr, &s.tree.mbr(b)) {
                    continue;
                }
                let mut local = BPlusTree::new(z);
                for (r_id, r_geom) in &r_entries[&a] {
                    for (s_id, s_geom) in &s_entries[&b] {
                        stats.theta_evals += 1;
                        if theta.eval(r_geom, s_geom) {
                            local.insert((*r_id, *s_id), ());
                        }
                    }
                }
                stats.physical_writes += local.node_count() as u64;
                local.reset_accesses();
                partitions.insert((a, b), local);
            }
        }
        stats.add_io(pool.stats().since(&before));
        Ok((
            LocalJoinIndex {
                theta,
                level,
                r_anchors,
                s_anchors,
                partitions,
                r_entries,
                s_entries,
            },
            stats,
        ))
    }

    /// The anchor level `L`.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Number of Θ-qualifying partitions (local indices kept).
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Total entries across all local indices.
    pub fn len(&self) -> usize {
        self.partitions.values().map(|t| t.len()).sum()
    }

    /// True if no pairs are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total index nodes ("pages") across partitions.
    pub fn node_count(&self) -> usize {
        self.partitions.values().map(|t| t.node_count()).sum()
    }

    /// The full join: unions all local indices, charging one simulated
    /// page read per B⁺-tree node visited.
    ///
    /// The whole union is `index-probe` work. It reads only in-memory
    /// index nodes, so the pool window normally contributes nothing and
    /// the run cannot fault today; the pool parameter and the fallible
    /// signature keep the executor surface uniform (and cover any future
    /// spill of local indices to heap pages).
    pub fn join(
        &self,
        pool: &mut BufferPool,
        trace: &mut TraceSink,
    ) -> Result<JoinRun, StorageError> {
        let mut timer = PhaseTimer::for_sink(trace);
        timer.enter(Phase::IndexProbe);
        let window = pool.stats();
        let mut run = JoinRun::default();
        let mut probe = ExecStats {
            passes: 1,
            ..Default::default()
        };
        for local in self.partitions.values() {
            local.reset_accesses();
            for (pair, ()) in local.iter_all() {
                run.pairs.push(pair);
            }
            probe.physical_reads += local.accesses();
        }
        run.pairs.sort_unstable();
        run.pairs.dedup(); // overlapping subtrees can duplicate pairs
        probe.add_io(pool.stats().since(&window));
        timer.stop();
        run.phases.record(Phase::IndexProbe, probe);
        run.seal("local_index", &timer, trace);
        Ok(run)
    }

    /// Maintenance for inserting `(id, geom)` into `R`: the new entry is
    /// assigned to the anchor whose MBR needs least enlargement, and
    /// θ-checked **only** against the entries of Θ-matching `S` subtrees —
    /// the locality pay-off over `U_III`'s full `T` scan.
    pub fn maintain_insert_r(
        &mut self,
        r_tree: &GenTree,
        s_tree: &GenTree,
        id: u64,
        geom: &Geometry,
    ) -> ExecStats {
        let mut stats = ExecStats::default();
        let mbr = geom.mbr();
        let anchor = self
            .r_anchors
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let ea = r_tree.mbr(a).enlargement(&mbr);
                let eb = r_tree.mbr(b).enlargement(&mbr);
                ea.partial_cmp(&eb).expect("finite areas") // PANIC-OK: invariant
            })
            .expect("at least the root anchor exists"); // PANIC-OK: invariant
        self.r_entries
            .get_mut(&anchor)
            .expect("anchor registered at build") // PANIC-OK: invariant
            .push((id, geom.clone()));

        let anchor_mbr = r_tree.mbr(anchor).union(&mbr);
        for &b in &self.s_anchors {
            stats.filter_evals += 1;
            if !self.theta.filter(&anchor_mbr, &s_tree.mbr(b)) {
                continue;
            }
            let local = self
                .partitions
                .entry((anchor, b))
                .or_insert_with(|| BPlusTree::new(100));
            local.reset_accesses();
            for (s_id, s_geom) in &self.s_entries[&b] {
                stats.theta_evals += 1;
                if self.theta.eval(geom, s_geom) {
                    local.insert((id, *s_id), ());
                }
            }
            stats.physical_writes += local.accesses();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join_index::JoinIndex;
    use crate::nested_loop::nested_loop_join;
    use crate::relation::StoredRelation;
    use sj_gentree::rtree::{RTree, RTreeConfig};
    use sj_geom::{Point, Rect};
    use sj_storage::{Disk, DiskConfig, Layout};

    fn pool() -> BufferPool {
        BufferPool::new(Disk::new(DiskConfig::paper()), 256)
    }

    fn grid_tuples(n: usize, step: f64, offset: f64, id0: u64) -> Vec<(u64, Geometry)> {
        (0..n * n)
            .map(|i| {
                (
                    id0 + i as u64,
                    Geometry::Point(Point::new(
                        (i % n) as f64 * step + offset,
                        (i / n) as f64 * step + offset,
                    )),
                )
            })
            .collect()
    }

    fn tree_rel(pool: &mut BufferPool, tuples: Vec<(u64, Geometry)>) -> TreeRelation {
        let rt = RTree::bulk_load(RTreeConfig::with_fanout(5), tuples);
        TreeRelation::new(pool, rt.tree().clone(), 300, Layout::Clustered)
    }

    #[test]
    fn local_join_equals_global_join_at_every_level() {
        let mut p = pool();
        let r_tuples = grid_tuples(8, 10.0, 0.0, 0);
        let s_tuples = grid_tuples(8, 10.0, 0.5, 1000);
        let r = tree_rel(&mut p, r_tuples.clone());
        let s = tree_rel(&mut p, s_tuples.clone());
        let theta = ThetaOp::WithinDistance(1.0);

        let flat_r = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
        let flat_s = StoredRelation::build(&mut p, &s_tuples, 300, Layout::Clustered);
        let mut reference = nested_loop_join(&mut p, &flat_r, &flat_s, theta, &mut TraceSink::Null)
            .unwrap()
            .pairs;
        reference.sort_unstable();
        assert_eq!(reference.len(), 64);

        for level in 0..=3 {
            let (idx, _) = LocalJoinIndex::try_build(&mut p, &r, &s, theta, level, 16).unwrap();
            let got = idx.join(&mut p, &mut TraceSink::Null).unwrap().pairs;
            assert_eq!(got, reference, "level {level}");
        }
    }

    #[test]
    fn deeper_anchors_cut_build_theta_work() {
        let mut p = pool();
        let r = tree_rel(&mut p, grid_tuples(10, 10.0, 0.0, 0));
        let s = tree_rel(&mut p, grid_tuples(10, 10.0, 0.5, 1000));
        let theta = ThetaOp::WithinDistance(1.0);
        let (_, stats0) = LocalJoinIndex::try_build(&mut p, &r, &s, theta, 0, 16).unwrap();
        let (_, stats2) = LocalJoinIndex::try_build(&mut p, &r, &s, theta, 2, 16).unwrap();
        // Level 0 is the full N² nested loop; deeper anchors prune.
        assert_eq!(stats0.theta_evals, 100 * 100);
        assert!(
            stats2.theta_evals < stats0.theta_evals / 2,
            "anchored build should θ-test far fewer pairs: {} vs {}",
            stats2.theta_evals,
            stats0.theta_evals
        );
    }

    #[test]
    fn maintenance_is_local() {
        let mut p = pool();
        let r = tree_rel(&mut p, grid_tuples(10, 10.0, 0.0, 0));
        let s = tree_rel(&mut p, grid_tuples(10, 10.0, 0.5, 1000));
        let theta = ThetaOp::WithinDistance(1.0);

        // Global index maintenance θ-checks all |S| = 100 tuples.
        let flat_r = StoredRelation::build(
            &mut p,
            &grid_tuples(10, 10.0, 0.0, 0),
            300,
            Layout::Clustered,
        );
        let flat_s = StoredRelation::build(
            &mut p,
            &grid_tuples(10, 10.0, 0.5, 1000),
            300,
            Layout::Clustered,
        );
        let (mut global, _) = JoinIndex::try_build(&mut p, &flat_r, &flat_s, theta, 16).unwrap();
        // Right on top of S tuple 1044 at (40.5, 40.5).
        let g = Geometry::Point(Point::new(40.6, 40.5));
        let global_maint = global.maintain_insert_r(&mut p, 9999, &g, &flat_s).unwrap();
        assert_eq!(global_maint.theta_evals, 100);

        // Local index maintenance only touches Θ-matching subtrees.
        let (mut local, _) = LocalJoinIndex::try_build(&mut p, &r, &s, theta, 2, 16).unwrap();
        let local_maint = local.maintain_insert_r(&r.tree, &s.tree, 9999, &g);
        assert!(
            local_maint.theta_evals < 100,
            "local maintenance should beat the |S| scan: {}",
            local_maint.theta_evals
        );
        // And the resulting join includes the new match.
        let joined = local.join(&mut p, &mut TraceSink::Null).unwrap().pairs;
        assert!(joined.contains(&(9999, 1044)));
    }

    #[test]
    fn maintenance_result_matches_rebuild() {
        let mut p = pool();
        let r_tuples = grid_tuples(6, 10.0, 0.0, 0);
        let s_tuples = grid_tuples(6, 10.0, 0.5, 1000);
        let r = tree_rel(&mut p, r_tuples.clone());
        let s = tree_rel(&mut p, s_tuples.clone());
        let theta = ThetaOp::WithinDistance(1.0);
        let (mut idx, _) = LocalJoinIndex::try_build(&mut p, &r, &s, theta, 1, 16).unwrap();

        let new_geom = Geometry::Point(Point::new(20.5, 30.5)); // on top of an S point
        idx.maintain_insert_r(&r.tree, &s.tree, 777, &new_geom);
        let mut incremental = idx.join(&mut p, &mut TraceSink::Null).unwrap().pairs;
        incremental.sort_unstable();

        // Rebuild from scratch with the extra R tuple.
        let mut r_all = r_tuples.clone();
        r_all.push((777, new_geom));
        let r2 = tree_rel(&mut p, r_all.clone());
        let (fresh, _) = LocalJoinIndex::try_build(&mut p, &r2, &s, theta, 1, 16).unwrap();
        let mut rebuilt = fresh.join(&mut p, &mut TraceSink::Null).unwrap().pairs;
        rebuilt.sort_unstable();
        assert_eq!(incremental, rebuilt);
        assert!(incremental.iter().any(|&(a, _)| a == 777));
    }

    #[test]
    fn partition_counts_shrink_with_selective_theta() {
        let mut p = pool();
        let r = tree_rel(&mut p, grid_tuples(8, 20.0, 0.0, 0));
        let s = tree_rel(&mut p, grid_tuples(8, 20.0, 100.0, 1000)); // far away
        let theta = ThetaOp::WithinDistance(5.0);
        let (idx, _) = LocalJoinIndex::try_build(&mut p, &r, &s, theta, 2, 16).unwrap();
        let all_pairs = anchors_at(&r.tree, 2).len() * anchors_at(&s.tree, 2).len();
        assert!(
            idx.partition_count() < all_pairs,
            "Θ-filter should prune anchor pairs: {} of {all_pairs}",
            idx.partition_count()
        );
    }

    #[test]
    fn rect_geometry_workload() {
        let mut p = pool();
        let mk = |offset: f64, id0: u64| -> Vec<(u64, Geometry)> {
            (0..49)
                .map(|i| {
                    let x = (i % 7) as f64 * 12.0 + offset;
                    let y = (i / 7) as f64 * 12.0;
                    (
                        id0 + i as u64,
                        Geometry::Rect(Rect::from_bounds(x, y, x + 10.0, y + 10.0)),
                    )
                })
                .collect()
        };
        let r = tree_rel(&mut p, mk(0.0, 0));
        let s = tree_rel(&mut p, mk(5.0, 1000));
        let theta = ThetaOp::Overlaps;
        let flat_r = StoredRelation::build(&mut p, &mk(0.0, 0), 300, Layout::Clustered);
        let flat_s = StoredRelation::build(&mut p, &mk(5.0, 1000), 300, Layout::Clustered);
        let mut want = nested_loop_join(&mut p, &flat_r, &flat_s, theta, &mut TraceSink::Null)
            .unwrap()
            .pairs;
        want.sort_unstable();
        let (idx, _) = LocalJoinIndex::try_build(&mut p, &r, &s, theta, 1, 16).unwrap();
        assert_eq!(idx.join(&mut p, &mut TraceSink::Null).unwrap().pairs, want);
    }
}
