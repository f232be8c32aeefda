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
//! (see [`seed_child_pairs`]). It returns the match set of
//! [`join_exhaustive`] — a property-tested invariant.
//!
//! ## Batched child filtering
//!
//! The traversal needs the Θ-filter verdict of each child of a node
//! against a fixed probe MBR. It accepts optional
//! [`FlatChildren`] snapshots and routes those verdict computations
//! through the branch-free SoA mask kernels ([`sj_geom::soa`]) via
//! [`expand_children`] — one mask call per chunk instead of a scalar
//! filter per child. Verdicts are precomputed at parent-expansion time
//! but *charged* (`filter_evals`, per-level histogram) when the child is
//! visited, so every counter, visit order, and match order is
//! byte-identical to the scalar formulation. Directional operators have
//! no compiled mask form and fall back to the oriented scalar filter.

use sj_geom::sweep::{sweep_candidates, SweepItem};
use sj_geom::{Geometry, MaskFilter, Rect, ThetaOp};

use crate::flat::{expand_children, FlatChildren};
use crate::stats::TraversalStats;
use crate::tree::{GenTree, NodeId};

/// Result of a JOIN run: matching `(r_id, s_id)` tuple pairs plus work
/// counters for both trees combined.
#[derive(Debug, Clone, Default)]
pub struct JoinOutcome {
    /// Tuple-id pairs `(a, b)` with `a θ b`, `a` from `R`, `b` from `S`.
    pub pairs: Vec<(u64, u64)>,
    /// Combined traversal work.
    pub stats: TraversalStats,
}

/// Evaluates the Θ-filter of `(left, right)` through the compiled
/// [`MaskFilter`] when one exists (hoisting the per-pair derivation of
/// e.g. `ReachableWithin`'s radius out of the loop), falling back to the
/// raw operator otherwise. Bit-identical to `theta.filter(left, right)`.
#[inline]
fn pair_filter(mf: Option<MaskFilter>, theta: ThetaOp, left: &Rect, right: &Rect) -> bool {
    match mf {
        Some(m) => m.eval(left, right),
        None => theta.filter(left, right),
    }
}

/// SELECT over the subtree rooted at `start`, matching the fixed object `o`
/// (which plays the θ-operand side indicated by `o_is_left`). The subtree
/// root itself is visited and filtered but never reported — the caller
/// (JOIN3) handles the `(a, b)` pair itself.
///
/// Children are expanded with their filter verdicts precomputed (batched
/// when `flat`/`mf` allow); each verdict is charged at the child's visit.
#[allow(clippy::too_many_arguments)]
fn select_subtree(
    tree: &GenTree,
    flat: Option<&FlatChildren>,
    mf: Option<MaskFilter>,
    start: NodeId,
    start_depth: usize,
    o: &Geometry,
    o_mbr: &Rect,
    theta: ThetaOp,
    o_is_left: bool,
    stats: &mut TraversalStats,
    on_visit: &mut dyn FnMut(NodeId),
    mut report: impl FnMut(u64),
) {
    let start_passes = {
        let node_mbr = tree.mbr(start);
        if o_is_left {
            pair_filter(mf, theta, o_mbr, &node_mbr)
        } else {
            pair_filter(mf, theta, &node_mbr, o_mbr)
        }
    };
    // Children are pushed in child order; the LIFO pop therefore visits
    // them in reverse child order — the same order as before verdicts
    // were precomputed.
    let mut stack: Vec<(NodeId, usize, bool, bool)> =
        vec![(start, start_depth, true, start_passes)];
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
                let matched = if o_is_left {
                    theta.eval(o, &entry.geometry)
                } else {
                    theta.eval(&entry.geometry, o)
                };
                if matched {
                    report(entry.id);
                }
            }
        }
        expand_children(
            tree,
            flat,
            mf,
            theta,
            o_mbr,
            o_is_left,
            node,
            &mut |c, v| {
                stack.push((c, depth + 1, false, v));
            },
        );
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
/// Child MBRs are probed through optional [`FlatChildren`] snapshots of
/// either tree. Pairs, visit sequences, and [`TraversalStats`] are
/// byte-identical for any combination of `None`/`Some` — the snapshots
/// only change *how* child filter verdicts are computed, never which
/// ones or when they are charged; `None` is the scalar reference the
/// property suites compare against.
pub fn join_flat(
    tree_r: &GenTree,
    flat_r: Option<&FlatChildren>,
    tree_s: &GenTree,
    flat_s: Option<&FlatChildren>,
    theta: ThetaOp,
    mut on_visit_r: impl FnMut(NodeId),
    mut on_visit_s: impl FnMut(NodeId),
) -> JoinOutcome {
    let mut out = JoinOutcome::default();
    let mf = theta.mask_filter();

    // JOIN1 [Initialization].
    let mut qual_pairs: Vec<(NodeId, NodeId)> = vec![(tree_r.root(), tree_s.root())];
    let mut depth = 0usize;

    // JOIN2 [Tree Search].
    while !qual_pairs.is_empty() {
        let mut next: Vec<(NodeId, NodeId)> = Vec::new();
        for &(a, b) in &qual_pairs {
            on_visit_r(a);
            on_visit_s(b);
            out.stats.visit(depth);
            out.stats.filter_evals += 1;
            out.stats.eval_at(depth, 1);
            let (a_mbr, b_mbr) = (tree_r.mbr(a), tree_s.mbr(b));
            if !pair_filter(mf, theta, &a_mbr, &b_mbr) {
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
                let ea_id = ea.id;
                let ea_mbr = a_mbr;
                select_subtree(
                    tree_s,
                    flat_s,
                    mf,
                    b,
                    depth,
                    &ea.geometry,
                    &ea_mbr,
                    theta,
                    true,
                    &mut out.stats,
                    &mut on_visit_s,
                    |s_id| out.pairs.push((ea_id, s_id)),
                );
            }
            if let Some(eb) = tree_s.entry(b) {
                let eb_id = eb.id;
                let eb_mbr = b_mbr;
                select_subtree(
                    tree_r,
                    flat_r,
                    mf,
                    a,
                    depth,
                    &eb.geometry,
                    &eb_mbr,
                    theta,
                    false,
                    &mut out.stats,
                    &mut on_visit_r,
                    |r_id| out.pairs.push((r_id, eb_id)),
                );
            }

            // Seed QualPairs[j+1] with qualifying child combinations:
            // children a'' of a with a'' Θ b, children b'' of b with a Θ b''.
            // One batched probe per side replaces the per-child scalar
            // filters; each verdict is still charged individually.
            let mut qual_a: Vec<NodeId> = Vec::new();
            expand_children(tree_r, flat_r, mf, theta, &b_mbr, false, a, &mut |a2, v| {
                out.stats.filter_evals += 1;
                out.stats.eval_at(depth, 1);
                if v {
                    qual_a.push(a2);
                }
            });
            let mut qual_b: Vec<NodeId> = Vec::new();
            expand_children(tree_s, flat_s, mf, theta, &a_mbr, true, b, &mut |b2, v| {
                out.stats.filter_evals += 1;
                out.stats.eval_at(depth, 1);
                if v {
                    qual_b.push(b2);
                }
            });
            seed_child_pairs(
                tree_r, tree_s, &qual_a, &qual_b, theta, depth, &mut out, &mut next,
            );
        }
        qual_pairs = next;
        depth += 1;
    }
    out
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
#[allow(clippy::too_many_arguments)]
fn seed_child_pairs(
    tree_r: &GenTree,
    tree_s: &GenTree,
    qual_a: &[NodeId],
    qual_b: &[NodeId],
    theta: ThetaOp,
    depth: usize,
    out: &mut JoinOutcome,
    next: &mut Vec<(NodeId, NodeId)>,
) {
    match theta.filter_radius() {
        Some(eps) => {
            let mut left: Vec<SweepItem> = qual_a
                .iter()
                .enumerate()
                .map(|(i, &a2)| SweepItem::expanded(i as u32, tree_r.mbr(a2), eps))
                .collect();
            let mut right: Vec<SweepItem> = qual_b
                .iter()
                .enumerate()
                .map(|(j, &b2)| SweepItem::new(j as u32, tree_s.mbr(b2)))
                .collect();
            let swept = sweep_candidates(&mut left, &mut right, theta, &mut |i, j| {
                next.push((qual_a[i as usize], qual_b[j as usize]));
            });
            out.stats.filter_evals += swept;
            out.stats.eval_at(depth, swept);
        }
        None => {
            for &a2 in qual_a {
                for &b2 in qual_b {
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
    flat_r: Option<&FlatChildren>,
    tree_s: &GenTree,
    flat_s: Option<&FlatChildren>,
    theta: ThetaOp,
    mut on_visit_r: impl FnMut(NodeId) -> Result<(), E>,
    mut on_visit_s: impl FnMut(NodeId) -> Result<(), E>,
) -> Result<JoinOutcome, E> {
    let first_err = std::cell::RefCell::new(None::<E>);
    let out = join_flat(
        tree_r,
        flat_r,
        tree_s,
        flat_s,
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
    use crate::rtree::{RTree, RTreeConfig};
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
            let level_sync = sorted(join_flat(&tr, None, &ts, None, theta, |_| {}, |_| {}).pairs);
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
        let out = join_flat(
            &tr,
            None,
            &ts,
            None,
            ThetaOp::WithinDistance(100.0),
            |_| {},
            |_| {},
        );
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

        let got = sorted(join_flat(&tr, None, &ts, None, ThetaOp::Overlaps, |_| {}, |_| {}).pairs);
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
            sorted(join_flat(&tr, None, &ts, None, theta, |_| {}, |_| {}).pairs),
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
        let inc = join_flat(&tr, None, &ts, None, ThetaOp::Includes, |_| {}, |_| {}).pairs;
        assert_eq!(inc, vec![(1, 9)]);
        let cont = join_flat(&tr, None, &ts, None, ThetaOp::ContainedIn, |_| {}, |_| {}).pairs;
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
            let out = join_flat(&tr, None, &ts, None, theta, |_| {}, |_| {});
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
        let tree_join = join_flat(&tr, None, &ts, None, theta, |_| {}, |_| {});
        let reference = join_exhaustive(&tr, &ts, theta);
        assert_eq!(sorted(tree_join.pairs), sorted(reference.pairs));
        assert!(
            tree_join.stats.theta_evals < reference.stats.theta_evals / 2,
            "tree join should θ-test far fewer pairs: {} vs {}",
            tree_join.stats.theta_evals,
            reference.stats.theta_evals
        );
    }

    fn soup_entries(n: usize, salt: u64) -> Vec<(u64, Geometry)> {
        (0..n)
            .map(|i| {
                let k = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(salt);
                let x = (k % 997) as f64 / 997.0 * 100.0;
                let y = (k / 997 % 997) as f64 / 997.0 * 100.0;
                (i as u64, Geometry::Point(Point::new(x, y)))
            })
            .collect()
    }

    /// Flat-probed joins must be byte-identical to the scalar joins on
    /// real R-trees: same pair order, same visit sequences, same stats —
    /// for every operator family (batched-capable and directional).
    #[test]
    fn flat_probed_join_is_byte_identical_to_scalar() {
        let rt_r = RTree::bulk_load(RTreeConfig::with_fanout(7), soup_entries(180, 5));
        let rt_s = RTree::bulk_load(RTreeConfig::with_fanout(5), soup_entries(140, 11));
        let (tr, ts) = (rt_r.tree(), rt_s.tree());
        let (fr, fs) = (FlatChildren::build(tr), FlatChildren::build(ts));
        for theta in [
            ThetaOp::Overlaps,
            ThetaOp::WithinDistance(6.0),
            ThetaOp::Adjacent,
            ThetaOp::DirectionOf(sj_geom::Direction::East),
        ] {
            let mut sv = (Vec::new(), Vec::new());
            let scalar = join_flat(
                tr,
                None,
                ts,
                None,
                theta,
                |n| sv.0.push(n),
                |n| sv.1.push(n),
            );
            let mut fv = (Vec::new(), Vec::new());
            let flat = join_flat(
                tr,
                Some(&fr),
                ts,
                Some(&fs),
                theta,
                |n| fv.0.push(n),
                |n| fv.1.push(n),
            );
            assert_eq!(flat.pairs, scalar.pairs, "level-sync pairs {theta:?}");
            assert_eq!(flat.stats, scalar.stats, "level-sync stats {theta:?}");
            assert_eq!(fv, sv, "level-sync visit sequences {theta:?}");
        }
    }
}
