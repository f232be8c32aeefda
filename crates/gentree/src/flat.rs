//! Flattened child-MBR arrays for batched tree probes.
//!
//! The arena tree ([`GenTree`]) stores each node's children as a
//! `Vec<NodeId>`; a traversal that Θ-filters the children of a node
//! loads every child's [`Node`](crate::tree) individually — one pointer
//! chase and one branchy scalar filter per child. [`FlatChildren`]
//! rearranges the *child MBRs* of every node into one contiguous
//! [`RectChunks`] store (chunk-aligned run per parent), so a descent can
//! evaluate the Θ-filter of a whole fanout with one branch-free mask
//! call per [`LANES`]-wide chunk and touch only the `NodeId`s that
//! matter.
//!
//! The view is a **snapshot**: it is built from an immutable tree and is
//! invalidated by any structural mutation (insert, delete, rebalance).
//! Owners that mutate must rebuild — a [`TreeRelation`](../../sj_joins)
//! value never changes, and `TreeRelation::try_evolve` builds the view
//! of the mutated tree anew for the relation it returns.
//!
//! Batched probing is only available for operators with a compiled
//! [`MaskFilter`] form (symmetric bounded filters). Directional
//! operators keep the orientation-sensitive scalar
//! [`ThetaOp::filter`] — [`expand_children`] folds that dispatch into
//! one call site shared by SELECT and JOIN.

use crate::tree::{GenTree, NodeId};
use sj_geom::soa::{RectChunks, LANES};
use sj_geom::{MaskFilter, Rect, ThetaOp};

/// Where a node's child run lives in the flattened store.
#[derive(Debug, Clone, Copy, Default)]
struct ChildRun {
    /// First chunk of the run (runs are chunk-aligned).
    first_chunk: u32,
    /// Number of children (the run occupies `ceil(count / LANES)` chunks).
    count: u32,
}

/// A flattened snapshot of every node's child MBRs, probed via the SoA
/// mask kernels instead of per-child pointer chasing.
#[derive(Debug, Clone)]
pub struct FlatChildren {
    /// Indexed by arena slot (`NodeId::index`); childless and dead slots
    /// hold an empty run.
    runs: Vec<ChildRun>,
    /// Child MBRs, one chunk-aligned run per parent, in child order.
    mbrs: RectChunks,
    /// Lane-aligned child ids (`ids[chunk * LANES + lane]`); padding
    /// lanes hold a sentinel that is never visited.
    ids: Vec<NodeId>,
}

impl FlatChildren {
    /// Builds the flattened view of `tree`'s current structure in one
    /// pass over the live nodes.
    pub fn build(tree: &GenTree) -> Self {
        let slots = tree
            .iter_live()
            .map(|n| n.index())
            .max()
            .map_or(0, |m| m + 1);
        let mut runs = vec![ChildRun::default(); slots];
        let mut mbrs = RectChunks::new();
        let mut ids: Vec<NodeId> = Vec::new();
        for node in tree.iter_live() {
            let children = tree.children(node);
            if children.is_empty() {
                continue;
            }
            let first_chunk = mbrs.next_chunk() as u32;
            for &c in children {
                mbrs.push(&tree.mbr(c));
                ids.push(c);
            }
            mbrs.align();
            // Keep ids lane-aligned with the chunk store; the sentinel
            // is unreachable (visits stop at `count`).
            ids.resize(mbrs.num_chunks() * LANES, NodeId(u32::MAX));
            runs[node.index()] = ChildRun {
                first_chunk,
                count: children.len() as u32,
            };
        }
        FlatChildren { runs, mbrs, ids }
    }

    /// Evaluates `filter` between `probe` and every child of `node` with
    /// one mask call per chunk, invoking `visit(child, passes)` for each
    /// child **in child order** (the traversal order of the scalar
    /// loops). Both compiled filters are symmetric, so the verdict is
    /// identical for either argument orientation of the scalar filter it
    /// replaces.
    #[inline]
    pub fn probe_children(
        &self,
        node: NodeId,
        probe: &Rect,
        filter: MaskFilter,
        mut visit: impl FnMut(NodeId, bool),
    ) {
        let run = self.runs[node.index()];
        let mut remaining = run.count as usize;
        let mut chunk = run.first_chunk as usize;
        let mut base = chunk * LANES;
        while remaining > 0 {
            let mask = self.mbrs.filter_mask(probe, filter, chunk);
            let lanes = remaining.min(LANES);
            for lane in 0..lanes {
                visit(self.ids[base + lane], mask >> lane & 1 == 1);
            }
            remaining -= lanes;
            chunk += 1;
            base += LANES;
        }
    }
}

/// Computes the Θ-filter verdict of every child of `node` against
/// `probe`, in child order: batched mask calls when a flat view and a
/// compiled [`MaskFilter`] are both available, the scalar per-child loop
/// otherwise. `probe_is_left` fixes the argument order of the scalar
/// fallback — directional filters are orientation-sensitive, while
/// compiled mask filters are symmetric so orientation is irrelevant on
/// the batched path. This is the single dispatch point the SELECT and
/// JOIN traversals share.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn expand_children(
    tree: &GenTree,
    flat: Option<&FlatChildren>,
    mask: Option<MaskFilter>,
    theta: ThetaOp,
    probe: &Rect,
    probe_is_left: bool,
    node: NodeId,
    visit: &mut impl FnMut(NodeId, bool),
) {
    match (flat, mask) {
        (Some(f), Some(m)) => f.probe_children(node, probe, m, &mut *visit),
        _ => {
            for &c in tree.children(node) {
                let child = tree.mbr(c);
                let v = if probe_is_left {
                    theta.filter(probe, &child)
                } else {
                    theta.filter(&child, probe)
                };
                visit(c, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtree::{RTree, RTreeConfig};
    use sj_geom::{Geometry, Point};

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::from_bounds(x0, y0, x1, y1)
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

    /// The flat probe must agree with the scalar child loop on every
    /// node of a real R-tree, for both compiled filter kinds, and visit
    /// children in child order.
    #[test]
    fn probe_matches_scalar_child_loop_on_rtree() {
        let rt = RTree::bulk_load(RTreeConfig::with_fanout(6), soup_entries(300, 9));
        let tree = rt.tree();
        let flat = FlatChildren::build(tree);
        let probes = [
            rect(10.0, 10.0, 40.0, 40.0),
            rect(0.0, 0.0, 100.0, 100.0),
            rect(95.0, 95.0, 99.0, 99.0),
        ];
        for theta in [ThetaOp::Overlaps, ThetaOp::WithinDistance(7.0)] {
            let m = theta.mask_filter().unwrap();
            for probe in probes {
                for node in tree.iter_live() {
                    let want: Vec<(NodeId, bool)> = tree
                        .children(node)
                        .iter()
                        .map(|&c| (c, theta.filter(&probe, &tree.mbr(c))))
                        .collect();
                    let mut got = Vec::new();
                    flat.probe_children(node, &probe, m, |c, v| got.push((c, v)));
                    assert_eq!(got, want, "{theta:?} node {node:?}");
                    assert_eq!(flat.runs[node.index()].count as usize, want.len());
                }
            }
        }
    }

    /// `expand_children` must fall back to the oriented scalar filter
    /// for directional operators even when a flat view is present.
    #[test]
    fn expand_respects_directional_orientation() {
        let rt = RTree::bulk_load(RTreeConfig::with_fanout(4), soup_entries(60, 3));
        let tree = rt.tree();
        let flat = FlatChildren::build(tree);
        let theta = ThetaOp::DirectionOf(sj_geom::Direction::NorthWest);
        let probe = rect(20.0, 20.0, 60.0, 60.0);
        for node in tree.iter_live() {
            for probe_is_left in [true, false] {
                let want: Vec<(NodeId, bool)> = tree
                    .children(node)
                    .iter()
                    .map(|&c| {
                        let child = tree.mbr(c);
                        let v = if probe_is_left {
                            theta.filter(&probe, &child)
                        } else {
                            theta.filter(&child, &probe)
                        };
                        (c, v)
                    })
                    .collect();
                let mut got = Vec::new();
                expand_children(
                    tree,
                    Some(&flat),
                    theta.mask_filter(),
                    theta,
                    &probe,
                    probe_is_left,
                    node,
                    &mut |c, v| got.push((c, v)),
                );
                assert_eq!(got, want, "probe_is_left={probe_is_left}");
            }
        }
    }
}
