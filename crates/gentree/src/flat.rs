//! Flattened child-MBR arrays for batched tree probes.
//!
//! The arena tree ([`GenTree`]) stores each node's children as a
//! `Vec<NodeId>`; a traversal that Θ-filters the children of a node
//! loads every child's [`Node`](crate::tree) individually — one pointer
//! chase and one branchy scalar filter per child. [`FlatChildren`]
//! rearranges the *child MBRs* of every node into runs of SoA lane
//! groups ([`RectLanes`] plus the ids, lane for lane), so a descent
//! evaluates the Θ-filter of a whole fanout with one branch-free mask
//! call per [`LANES`] children and touches only the `NodeId`s that matter.
//!
//! The view is a **snapshot** of one tree state and shares its chunks
//! with the view it was cloned from ([`CowVec`]): `TreeRelation::try_evolve`
//! clones it and [`FlatChildren::patch`]es the clone from the arena slots
//! the mutation wrote, copying only the chunks that hold a rewritten run.
//!
//! Batched probing is only available for operators with a compiled
//! [`MaskFilter`] form (symmetric bounded filters). Directional
//! operators keep the orientation-sensitive scalar
//! [`ThetaOp::filter`] — [`expand_children`] folds that dispatch into
//! one call site shared by SELECT and JOIN.

use crate::tree::{GenTree, NodeId};
use sj_geom::soa::{RectLanes, LANES};
use sj_geom::{MaskFilter, Rect, ThetaOp};
use sj_storage::CowVec;

/// Where a node's child run lives in the flattened store.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ChildRun {
    /// First lane group of the run.
    first: u32,
    /// Number of children (the first `ceil(count / LANES)` groups).
    count: u32,
    /// Lane groups reserved at `first`: what the run can grow to in place.
    groups: u32,
}

/// [`LANES`] children of one parent — what one mask call and its visits
/// read. Padding lanes fail every mask and are never visited.
#[derive(Debug, Clone, PartialEq)]
struct LaneGroup {
    mbrs: RectLanes,
    ids: [NodeId; LANES],
}

/// A flattened snapshot of every node's child MBRs, probed via the SoA
/// mask kernels instead of per-child pointer chasing.
#[derive(Debug, Clone, Default)]
pub struct FlatChildren {
    /// Indexed by arena slot (`NodeId::index`); childless and dead slots
    /// hold an empty run.
    runs: CowVec<ChildRun, 128>,
    /// One run of lane groups per parent, in child order.
    groups: CowVec<LaneGroup, 16>,
}

impl FlatChildren {
    /// Builds the flattened view of `tree`'s current structure in one
    /// pass over the live nodes.
    pub fn build(tree: &GenTree) -> Self {
        let mut flat = FlatChildren::default();
        for node in tree.iter_live() {
            flat.rewrite(tree, node);
        }
        flat
    }

    /// Brings a view of an earlier state of `tree` up to date from the
    /// slots written since (`GenTree::take_dirty`: ascending). A written
    /// node's run is rewritten — in place while its children fit the lane
    /// groups reserved there, at the end of the store otherwise — and so is
    /// its parent's, which holds the node's own MBR.
    pub fn patch(&mut self, tree: &GenTree, dirty: &[NodeId]) {
        for &node in dirty {
            self.rewrite(tree, node);
            let parent = tree.is_live(node).then(|| tree.parent(node)).flatten();
            if let Some(p) = parent.filter(|p| dirty.binary_search(p).is_err()) {
                self.rewrite(tree, p);
            }
        }
    }

    fn rewrite(&mut self, tree: &GenTree, node: NodeId) {
        let children = if tree.is_live(node) {
            tree.children(node)
        } else {
            &[]
        };
        while self.runs.len() <= node.index() {
            self.runs.push(ChildRun::default());
        }
        let mut run = self.runs[node.index()];
        let needed = children.len().div_ceil(LANES) as u32;
        if needed > run.groups {
            run.first = self.groups.len() as u32;
            run.groups = needed;
        }
        run.count = children.len() as u32;
        for (at, members) in (run.first as usize..).zip(children.chunks(LANES)) {
            let mut group = LaneGroup {
                mbrs: RectLanes::EMPTY,
                ids: [NodeId(u32::MAX); LANES],
            };
            for (lane, &c) in members.iter().enumerate() {
                group.mbrs.set(lane, &tree.mbr(c));
                group.ids[lane] = c;
            }
            if at == self.groups.len() {
                self.groups.push(group);
            } else if self.groups[at] != group {
                *self.groups.get_mut(at) = group;
            }
        }
        if self.runs[node.index()] != run {
            *self.runs.get_mut(node.index()) = run;
        }
    }

    /// Evaluates `filter` between `probe` and every child of `node` with
    /// one mask call per lane group, invoking `visit(child, passes)` for
    /// each child **in child order** (the traversal order of the scalar
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
        let mut at = run.first as usize;
        while remaining > 0 {
            let group = &self.groups[at];
            let mask = group.mbrs.filter_mask(probe, filter);
            let lanes = remaining.min(LANES);
            for lane in 0..lanes {
                visit(group.ids[lane], mask >> lane & 1 == 1);
            }
            remaining -= lanes;
            at += 1;
        }
    }

    #[doc(hidden)]
    pub fn copied_chunks(&self, since: &FlatChildren) -> usize {
        self.runs.copied_chunks(&since.runs) + self.groups.copied_chunks(&since.groups)
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
