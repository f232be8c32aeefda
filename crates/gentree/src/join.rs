//! Algorithm JOIN (paper §3.3): general spatial join of two relations via
//! their generalization trees.
//!
//! The algorithm keeps a list `QualPairs[j]` of node pairs at tree height
//! `j` whose MBRs pass the Θ-filter. For each qualifying pair `(a, b)` it
//! (JOIN3) θ-tests the pair itself, (JOIN4) runs Algorithm SELECT twice to
//! find cross-height matches — `a` against the strict descendants of `b`
//! and `b` against the strict descendants of `a` — and seeds
//! `QualPairs[j+1]` with the Θ-qualifying combinations of direct children.
//!
//! [`join_flat`] is the level-synchronized formulation, with one deviation
//! from the paper's letter: for bounded-filter operators the child cross
//! product `qual_a × qual_b` is seeded through a forward-scan plane
//! sweep over the child MBRs ([`sj_geom::sweep`]) instead of a double
//! loop, which prunes filter-failing pairs before they are ever visited
//! (see `seed_child_pairs`). It returns the match set of
//! [`join_exhaustive`] — a property-tested invariant.
//!
//! ## Batched child filtering
//!
//! The traversal needs the Θ-filter verdict of each child of a node
//! against a fixed probe MBR. It reads them from the arena's lane groups
//! ([`GenTree`]): one branch-free SoA mask call ([`sj_geom::soa`]) per
//! group of children, θ's oriented scalar filter over the same lanes for
//! the directional operators, which have no compiled mask form. Verdicts
//! are precomputed at parent-expansion time but *charged*
//! (`filter_evals`, per-level histogram) when the child is visited.

use sj_geom::sweep::{sweep_candidates, SweepItem};
use sj_geom::{Geometry, ThetaOp};

use crate::stats::TraversalStats;
use crate::tree::{ChildProbe, GenTree, NodeId};

/// Result of a JOIN run: matching `(r_id, s_id)` tuple pairs plus work
/// counters for both trees combined.
#[derive(Debug, Clone, Default)]
pub struct JoinOutcome {
    /// Tuple-id pairs `(a, b)` with `a θ b`, `a` from `R`, `b` from `S`.
    pub pairs: Vec<(u64, u64)>,
    /// Combined traversal work.
    pub stats: TraversalStats,
}

/// One JOIN4 selection: the fixed object `o` against a subtree of
/// `tree`, `o` on the θ side `probe.probe_is_left` names.
struct SubtreeSelect<'a> {
    tree: &'a GenTree,
    o: &'a Geometry,
    probe: ChildProbe,
}

impl SubtreeSelect<'_> {
    /// SELECT over the subtree rooted at `start`. The subtree root itself
    /// is visited and filtered but never reported — the caller (JOIN3)
    /// handles the `(a, b)` pair itself.
    ///
    /// Children are expanded with their filter verdicts precomputed; each
    /// verdict is charged at the child's visit. `stack` is the caller's
    /// reused buffer, empty on entry and on return.
    fn run(
        &self,
        stack: &mut Vec<(NodeId, usize, bool, bool)>,
        start: NodeId,
        start_depth: usize,
        stats: &mut TraversalStats,
        on_visit: &mut dyn FnMut(NodeId),
        mut report: impl FnMut(u64),
    ) {
        let (tree, probe) = (self.tree, &self.probe);
        // Children are pushed in child order; the LIFO pop therefore
        // visits them in reverse child order.
        stack.push((start, start_depth, true, probe.test(&tree.mbr(start))));
        while let Some((node, depth, is_start, passes)) = stack.pop() {
            on_visit(node);
            stats.visit(depth);
            stats.filter_evals += 1;
            stats.eval_at(depth, 1);
            if !passes {
                continue;
            }
            if !is_start {
                if let Some(entry) = tree.entry(node) {
                    stats.theta_evals += 1;
                    stats.eval_at(depth, 1);
                    let matched = if probe.probe_is_left {
                        probe.theta.eval(self.o, &entry.geometry)
                    } else {
                        probe.theta.eval(&entry.geometry, self.o)
                    };
                    if matched {
                        report(entry.id);
                    }
                }
            }
            tree.expand_children(node, probe, &mut |c, v| {
                stack.push((c, depth + 1, false, v));
            });
        }
    }
}

/// Algorithm JOIN, level-synchronized exactly as stated in the paper.
///
/// `on_visit_r` / `on_visit_s` fire once per node visit in the respective
/// tree (a node may be visited several times — the paper's algorithm
/// re-touches subtrees across SELECT passes, which is precisely why its
/// I/O model uses memory-resident passes; executors charge I/O per visit
/// through their buffer pool, which absorbs re-visits that hit the cache).
///
/// Child MBRs are probed through either tree's lane groups.
pub fn join_flat(
    tree_r: &GenTree,
    tree_s: &GenTree,
    theta: ThetaOp,
    mut on_visit_r: impl FnMut(NodeId),
    mut on_visit_s: impl FnMut(NodeId),
) -> JoinOutcome {
    let mut out = JoinOutcome::default();
    let mask = theta.mask_filter();
    let probe = |mbr, probe_is_left| ChildProbe {
        mbr,
        theta,
        mask,
        probe_is_left,
    };
    // Buffers reused by every node pair, cleared for each use.
    let mut scratch = Scratch::default();

    // JOIN1 [Initialization].
    let mut qual_pairs: Vec<(NodeId, NodeId)> = vec![(tree_r.root(), tree_s.root())];
    let mut next: Vec<(NodeId, NodeId)> = Vec::new();
    let mut depth = 0usize;

    // JOIN2 [Tree Search].
    while !qual_pairs.is_empty() {
        for &(a, b) in &qual_pairs {
            on_visit_r(a);
            on_visit_s(b);
            out.stats.visit(depth);
            out.stats.filter_evals += 1;
            out.stats.eval_at(depth, 1);
            // The pair's own filter, and the probes its children meet.
            let (a_probe, b_probe) = (probe(tree_r.mbr(a), true), probe(tree_s.mbr(b), false));
            if !a_probe.test(&b_probe.mbr) {
                continue;
            }

            // JOIN3 [Check for θ-match].
            if let (Some(ea), Some(eb)) = (tree_r.entry(a), tree_s.entry(b)) {
                out.stats.theta_evals += 1;
                out.stats.eval_at(depth, 1);
                if theta.eval(&ea.geometry, &eb.geometry) {
                    out.pairs.push((ea.id, eb.id));
                }
            }

            // JOIN4 [Spatial Selections]: cross-height matches.
            if let Some(ea) = tree_r.entry(a) {
                let select = SubtreeSelect {
                    tree: tree_s,
                    o: &ea.geometry,
                    probe: a_probe,
                };
                let (stats, pairs) = (&mut out.stats, &mut out.pairs);
                select.run(
                    &mut scratch.stack,
                    b,
                    depth,
                    stats,
                    &mut on_visit_s,
                    |s_id| pairs.push((ea.id, s_id)),
                );
            }
            if let Some(eb) = tree_s.entry(b) {
                let select = SubtreeSelect {
                    tree: tree_r,
                    o: &eb.geometry,
                    probe: b_probe,
                };
                let (stats, pairs) = (&mut out.stats, &mut out.pairs);
                select.run(
                    &mut scratch.stack,
                    a,
                    depth,
                    stats,
                    &mut on_visit_r,
                    |r_id| pairs.push((r_id, eb.id)),
                );
            }

            // Seed QualPairs[j+1] with qualifying child combinations:
            // children a'' of a with a'' Θ b, children b'' of b with a Θ b''.
            // One batched probe per side replaces the per-child scalar
            // filters; each verdict is still charged individually.
            let Scratch { qual_a, qual_b, .. } = &mut scratch;
            qual_a.clear();
            tree_r.expand_children(a, &b_probe, &mut |a2, v| {
                out.stats.filter_evals += 1;
                out.stats.eval_at(depth, 1);
                if v {
                    qual_a.push(a2);
                }
            });
            qual_b.clear();
            tree_s.expand_children(b, &a_probe, &mut |b2, v| {
                out.stats.filter_evals += 1;
                out.stats.eval_at(depth, 1);
                if v {
                    qual_b.push(b2);
                }
            });
            seed_child_pairs(
                tree_r,
                tree_s,
                &mut scratch,
                theta,
                depth,
                &mut out,
                &mut next,
            );
        }
        std::mem::swap(&mut qual_pairs, &mut next);
        next.clear();
        depth += 1;
    }
    out
}

/// [`join_flat`]'s per-node-pair buffers, allocated once per join.
#[derive(Default)]
struct Scratch {
    /// [`SubtreeSelect::run`]'s traversal stack.
    stack: Vec<(NodeId, usize, bool, bool)>,
    /// The individually-qualifying children of the current pair's sides.
    qual_a: Vec<NodeId>,
    qual_b: Vec<NodeId>,
    /// [`seed_child_pairs`]'s sweep items over `qual_a` and `qual_b`.
    left: Vec<SweepItem>,
    right: Vec<SweepItem>,
}

/// Seeds the next level's QualPairs from the individually-qualifying
/// children of a node pair.
///
/// The paper's formulation pushes the full cross product `qual_a ×
/// qual_b` and lets the next level's Θ-filter discard non-qualifying
/// pairs — quadratic in the fanout at every interior node pair. For
/// operators with a bounded filter region ([`ThetaOp::filter_radius`])
/// the same surviving set is produced by a forward-scan plane sweep over
/// the child MBRs ([`sj_geom::sweep`]): only pairs passing the exact
/// Θ-filter are seeded, so the next level skips the visits and filter
/// evaluations the cross product would have wasted on them (sweep
/// comparisons are charged to `filter_evals` in their place). Since a
/// pair failing the Θ-filter contributes nothing downstream, the match
/// set is unchanged. Directional predicates have unbounded filter
/// regions and keep the verbatim cross product. Sweep comparisons are
/// charged at the parent pair's `depth` in the per-level histogram.
fn seed_child_pairs(
    tree_r: &GenTree,
    tree_s: &GenTree,
    scratch: &mut Scratch,
    theta: ThetaOp,
    depth: usize,
    out: &mut JoinOutcome,
    next: &mut Vec<(NodeId, NodeId)>,
) {
    let Scratch {
        qual_a,
        qual_b,
        left,
        right,
        ..
    } = scratch;
    match theta.filter_radius() {
        Some(eps) => {
            left.clear();
            let item =
                |(i, &a2): (usize, &NodeId)| SweepItem::expanded(i as u32, tree_r.mbr(a2), eps);
            left.extend(qual_a.iter().enumerate().map(item));
            right.clear();
            let item = |(j, &b2): (usize, &NodeId)| SweepItem::new(j as u32, tree_s.mbr(b2));
            right.extend(qual_b.iter().enumerate().map(item));
            let swept = sweep_candidates(left, right, theta, &mut |i, j| {
                next.push((qual_a[i as usize], qual_b[j as usize]));
            });
            out.stats.filter_evals += swept;
            out.stats.eval_at(depth, swept);
        }
        None => {
            for &a2 in qual_a.iter() {
                for &b2 in qual_b.iter() {
                    next.push((a2, b2));
                }
            }
        }
    }
}

/// [`join_flat`] with fallible visitors: the first visitor error (from
/// either side) suppresses all later visitor calls (no further I/O), the
/// in-memory traversal finishes, and the outcome fails — fail-stop, never
/// a partial pair set.
pub fn try_join_flat<E>(
    tree_r: &GenTree,
    tree_s: &GenTree,
    theta: ThetaOp,
    mut on_visit_r: impl FnMut(NodeId) -> Result<(), E>,
    mut on_visit_s: impl FnMut(NodeId) -> Result<(), E>,
) -> Result<JoinOutcome, E> {
    let first_err = std::cell::RefCell::new(None::<E>);
    let out = join_flat(
        tree_r,
        tree_s,
        theta,
        |node| {
            let mut slot = first_err.borrow_mut();
            if slot.is_none() {
                *slot = on_visit_r(node).err();
            }
        },
        |node| {
            let mut slot = first_err.borrow_mut();
            if slot.is_none() {
                *slot = on_visit_s(node).err();
            }
        },
    );
    match first_err.into_inner() {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Reference nested-loop join over the trees' entries: the oracle the
/// tree join is tested against. Only tests call it.
pub fn join_exhaustive(tree_r: &GenTree, tree_s: &GenTree, theta: ThetaOp) -> JoinOutcome {
    let mut out = JoinOutcome::default();
    let r_entries = tree_r.entry_nodes();
    let s_entries = tree_s.entry_nodes();
    for &ra in &r_entries {
        let ea = tree_r.entry(ra).expect("entry node");
        for &sb in &s_entries {
            let eb = tree_s.entry(sb).expect("entry node");
            out.stats.theta_evals += 1;
            if theta.eval(&ea.geometry, &eb.geometry) {
                out.pairs.push((ea.id, eb.id));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Entry;
    use sj_geom::{Point, Rect};

    fn point_tree(points: &[(u64, f64, f64)], world: Rect, fanout: usize) -> GenTree {
        // A simple two-level tree: directory nodes over chunks of points.
        let mut t = GenTree::new(world, None);
        for chunk in points.chunks(fanout) {
            let mbr = Rect::bounding(chunk.iter().map(|&(_, x, y)| Point::new(x, y)))
                .expect("non-empty chunk");
            let dir = t.add_child(t.root(), mbr, None);
            for &(id, x, y) in chunk {
                t.add_child(
                    dir,
                    Rect::from_point(Point::new(x, y)),
                    Some(Entry {
                        id,
                        geometry: Geometry::Point(Point::new(x, y)),
                    }),
                );
            }
        }
        t.check_invariants();
        t
    }

    fn sorted(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        v.sort_unstable();
        v
    }

    #[test]
    fn join_matches_nested_loop_on_grids() {
        let world = Rect::from_bounds(0.0, 0.0, 100.0, 100.0);
        let r_pts: Vec<(u64, f64, f64)> = (0..25)
            .map(|i| (i, (i % 5) as f64 * 20.0, (i / 5) as f64 * 20.0))
            .collect();
        let s_pts: Vec<(u64, f64, f64)> = (0..25)
            .map(|i| (i + 100, (i % 5) as f64 * 20.0 + 3.0, (i / 5) as f64 * 20.0))
            .collect();
        let tr = point_tree(&r_pts, world, 4);
        let ts = point_tree(&s_pts, world, 6);
        for theta in [
            ThetaOp::WithinDistance(5.0),
            ThetaOp::WithinDistance(25.0),
            ThetaOp::DirectionOf(sj_geom::Direction::NorthWest),
            ThetaOp::Overlaps,
        ] {
            let reference = sorted(join_exhaustive(&tr, &ts, theta).pairs);
            let level_sync = sorted(join_flat(&tr, &ts, theta, |_| {}, |_| {}).pairs);
            assert_eq!(
                level_sync, reference,
                "level-sync vs reference for {theta:?}"
            );
        }
    }

    #[test]
    fn join_reports_no_duplicates() {
        let world = Rect::from_bounds(0.0, 0.0, 10.0, 10.0);
        let pts: Vec<(u64, f64, f64)> = (0..9)
            .map(|i| (i, (i % 3) as f64 * 5.0, (i / 3) as f64 * 5.0))
            .collect();
        let tr = point_tree(&pts, world, 3);
        let ts = point_tree(&pts, world, 3);
        let out = join_flat(&tr, &ts, ThetaOp::WithinDistance(100.0), |_| {}, |_| {});
        let mut pairs = out.pairs.clone();
        let before = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), before, "JOIN must not emit duplicate pairs");
        assert_eq!(before, 81); // everything matches everything
    }

    #[test]
    fn join_with_interior_application_objects() {
        // Cartographic setting: states containing cities, joined against a
        // set of probe points; matches must include state-level matches.
        let mut tr = GenTree::new(Rect::from_bounds(0.0, 0.0, 10.0, 10.0), None);
        let state = tr.add_child(
            tr.root(),
            Rect::from_bounds(0.0, 0.0, 6.0, 6.0),
            Some(Entry {
                id: 1,
                geometry: Geometry::Rect(Rect::from_bounds(0.0, 0.0, 6.0, 6.0)),
            }),
        );
        tr.add_child(
            state,
            Rect::from_point(Point::new(2.0, 2.0)),
            Some(Entry {
                id: 2,
                geometry: Geometry::Point(Point::new(2.0, 2.0)),
            }),
        );

        let ts = point_tree(
            &[(10, 2.0, 2.0), (11, 9.0, 9.0)],
            Rect::from_bounds(0.0, 0.0, 10.0, 10.0),
            2,
        );

        let got = sorted(join_flat(&tr, &ts, ThetaOp::Overlaps, |_| {}, |_| {}).pairs);
        // state (id 1) overlaps probe 10; city (id 2) coincides with probe 10.
        assert_eq!(got, vec![(1, 10), (2, 10)]);
    }

    #[test]
    fn unequal_tree_heights() {
        // R is a flat tree (entries directly under the root), S is two
        // levels deep; all cross-height matches must still be found.
        let world = Rect::from_bounds(0.0, 0.0, 10.0, 10.0);
        let mut tr = GenTree::new(world, None);
        for i in 0..4u64 {
            let p = Point::new(i as f64 * 3.0, i as f64 * 3.0);
            tr.add_child(
                tr.root(),
                Rect::from_point(p),
                Some(Entry {
                    id: i,
                    geometry: Geometry::Point(p),
                }),
            );
        }
        let s_pts: Vec<(u64, f64, f64)> = (0..4)
            .map(|i| (i + 50, i as f64 * 3.0, i as f64 * 3.0))
            .collect();
        let ts = point_tree(&s_pts, world, 2);
        assert_ne!(tr.height(), ts.height());
        let theta = ThetaOp::WithinDistance(0.5);
        let reference = sorted(join_exhaustive(&tr, &ts, theta).pairs);
        assert_eq!(reference.len(), 4);
        assert_eq!(
            sorted(join_flat(&tr, &ts, theta, |_| {}, |_| {}).pairs),
            reference
        );
    }

    #[test]
    fn asymmetric_operator_orientation() {
        // R's big rect includes S's small point, but not vice versa.
        let world = Rect::from_bounds(0.0, 0.0, 10.0, 10.0);
        let mut tr = GenTree::new(world, None);
        tr.add_child(
            tr.root(),
            Rect::from_bounds(1.0, 1.0, 5.0, 5.0),
            Some(Entry {
                id: 1,
                geometry: Geometry::Rect(Rect::from_bounds(1.0, 1.0, 5.0, 5.0)),
            }),
        );
        let ts = point_tree(&[(9, 3.0, 3.0)], world, 1);
        let inc = join_flat(&tr, &ts, ThetaOp::Includes, |_| {}, |_| {}).pairs;
        assert_eq!(inc, vec![(1, 9)]);
        let cont = join_flat(&tr, &ts, ThetaOp::ContainedIn, |_| {}, |_| {}).pairs;
        assert!(cont.is_empty());
    }

    #[test]
    fn per_level_evals_sum_to_comparisons() {
        let world = Rect::from_bounds(0.0, 0.0, 100.0, 100.0);
        let r_pts: Vec<(u64, f64, f64)> = (0..25)
            .map(|i| (i, (i % 5) as f64 * 20.0, (i / 5) as f64 * 20.0))
            .collect();
        let s_pts: Vec<(u64, f64, f64)> = (0..25)
            .map(|i| (i + 100, (i % 5) as f64 * 20.0 + 3.0, (i / 5) as f64 * 20.0))
            .collect();
        let tr = point_tree(&r_pts, world, 4);
        let ts = point_tree(&s_pts, world, 6);
        for theta in [
            ThetaOp::WithinDistance(5.0),
            ThetaOp::DirectionOf(sj_geom::Direction::NorthWest),
            ThetaOp::Overlaps,
        ] {
            let out = join_flat(&tr, &ts, theta, |_| {}, |_| {});
            assert_eq!(
                out.stats.evals_per_level.iter().sum::<u64>(),
                out.stats.comparisons(),
                "per-level eval histogram must cover all comparisons ({theta:?})"
            );
        }
    }

    #[test]
    fn pruning_beats_exhaustive_in_theta_evals() {
        let world = Rect::from_bounds(0.0, 0.0, 1000.0, 1000.0);
        let r_pts: Vec<(u64, f64, f64)> = (0..64)
            .map(|i| (i, (i % 8) as f64 * 125.0, (i / 8) as f64 * 125.0))
            .collect();
        let s_pts: Vec<(u64, f64, f64)> = (0..64)
            .map(|i| {
                (
                    i + 500,
                    (i % 8) as f64 * 125.0 + 1.0,
                    (i / 8) as f64 * 125.0,
                )
            })
            .collect();
        let tr = point_tree(&r_pts, world, 8);
        let ts = point_tree(&s_pts, world, 8);
        let theta = ThetaOp::WithinDistance(2.0);
        let tree_join = join_flat(&tr, &ts, theta, |_| {}, |_| {});
        let reference = join_exhaustive(&tr, &ts, theta);
        assert_eq!(sorted(tree_join.pairs), sorted(reference.pairs));
        assert!(
            tree_join.stats.theta_evals < reference.stats.theta_evals / 2,
            "tree join should θ-test far fewer pairs: {} vs {}",
            tree_join.stats.theta_evals,
            reference.stats.theta_evals
        );
    }
}
