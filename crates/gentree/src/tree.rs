//! The arena representation shared by all generalization trees.
//!
//! A node's children live in its *child run*: consecutive lane groups of
//! the arena's one child store, each holding [`LANES`] child MBRs in SoA
//! form ([`RectLanes`]) with the child ids beside them, lane for lane. A
//! node's MBR is stored once, in its parent's lane (the root's in the
//! tree), so expanding a node Θ-filters its whole fanout with one mask
//! call per lane group (`GenTree::expand_children`) and touches only the
//! children it visits.

use sj_geom::soa::{RectLanes, LANES};
use sj_geom::{Bounded, Geometry, MaskFilter, Rect, ThetaOp};
use sj_storage::CowVec;

/// Index of a node within a [`GenTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The id a padding lane holds.
const NO_NODE: NodeId = NodeId(u32::MAX);

/// An application object attached to a tree node: the tuple it stands for
/// plus its exact geometry. Directory nodes of abstract indices (R-tree
/// interior nodes) carry no entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The tuple identifier in the owning relation.
    pub id: u64,
    /// The exact spatial object, used for θ-evaluation.
    pub geometry: Geometry,
}

#[derive(Debug, Clone)]
struct Node {
    entry: Option<Entry>,
    parent: Option<NodeId>,
    /// The child-store lane holding the node's MBR, in its parent's run
    /// (unused at the root and while detached).
    lane: u32,
    run: ChildRun,
    /// Tombstone marker for recycled arena slots (a dead slot's `parent`
    /// is the next free slot).
    live: bool,
}

/// Where a node's children live in the child store.
#[derive(Debug, Clone, Copy, Default)]
struct ChildRun {
    /// First lane group of the run.
    first: u32,
    /// Number of children (the first `ceil(count / LANES)` groups).
    count: u32,
    /// Lane groups reserved at `first`: what the run can grow to in place.
    groups: u32,
}

impl ChildRun {
    /// The lanes of the run's children, in child order.
    #[inline]
    fn lanes(self) -> std::ops::Range<u32> {
        let first = self.first * LANES as u32;
        first..first + self.count
    }
}

/// The lane group and the lane within it of child-store lane `lane`.
#[inline]
fn group_of(lane: u32) -> (usize, usize) {
    (lane as usize / LANES, lane as usize % LANES)
}

/// [`LANES`] children of one parent — what one mask call and its visits
/// read. Padding lanes hold [`RectLanes::EMPTY`]'s lanes and `NO_NODE`.
#[derive(Debug, Clone)]
struct LaneGroup {
    mbrs: RectLanes,
    ids: [NodeId; LANES],
}

const EMPTY_GROUP: LaneGroup = LaneGroup {
    mbrs: RectLanes::EMPTY,
    ids: [NO_NODE; LANES],
};

/// A Θ-filter against one fixed probe MBR: what a traversal tests every
/// child of an expanded node with. `probe_is_left` fixes the argument
/// order of θ's filter; the compiled [`MaskFilter`] (every θ but the
/// directional ones) is symmetric, so orientation only matters without it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChildProbe {
    pub(crate) mbr: Rect,
    pub(crate) theta: ThetaOp,
    pub(crate) mask: Option<MaskFilter>,
    pub(crate) probe_is_left: bool,
}

impl ChildProbe {
    pub(crate) fn new(mbr: Rect, theta: ThetaOp, probe_is_left: bool) -> Self {
        let mask = theta.mask_filter();
        ChildProbe {
            mbr,
            theta,
            mask,
            probe_is_left,
        }
    }

    /// The verdict on one MBR, bit-identical to `theta.filter` in the
    /// probe's orientation.
    #[inline]
    pub(crate) fn test(&self, other: &Rect) -> bool {
        let (left, right) = match self.probe_is_left {
            true => (&self.mbr, other),
            false => (other, &self.mbr),
        };
        match self.mask {
            Some(m) => m.eval(left, right),
            None => self.theta.filter(left, right),
        }
    }
}

/// A generalization tree: every node has a bounding rectangle; each
/// non-root node's rectangle is contained in its parent's rectangle
/// (the PART-OF invariant, checked by [`GenTree::check_invariants`]).
///
/// The arena and the child store are [`CowVec`]s: a clone shares every
/// chunk and a mutation copies the chunks it writes.
#[derive(Debug, Clone)]
pub struct GenTree {
    nodes: CowVec<Node, ARENA_CHUNK>,
    /// One run of lane groups per parent, in child order. A run outgrowing
    /// its reservation moves to the end; a dead slot keeps its reservation
    /// for the slot's next tenant.
    groups: CowVec<LaneGroup, 16>,
    /// The last slot released: dead slots form a stack linked through
    /// their `parent`, reused last-released first.
    free: Option<NodeId>,
    free_len: usize,
    root: NodeId,
    root_mbr: Rect,
    /// One bit per arena slot written (`node_mut`, `alloc`) since the last
    /// [`GenTree::take_dirty`]: sorted, duplicate-free, bounded undrained.
    dirty: Vec<u64>,
}

/// Arena slots per copy-on-write chunk (measured: DESIGN.md §5i).
const ARENA_CHUNK: usize = 64;

impl GenTree {
    /// Creates a tree with a root covering `mbr`, optionally carrying an
    /// application entry.
    pub fn new(mbr: Rect, entry: Option<Entry>) -> Self {
        let root = Node {
            entry,
            parent: None,
            lane: 0,
            run: ChildRun::default(),
            live: true,
        };
        GenTree {
            nodes: std::iter::once(root).collect(),
            groups: CowVec::new(),
            free: None,
            free_len: 0,
            root: NodeId(0),
            root_mbr: mbr,
            dirty: Vec::new(),
        }
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free_len
    }

    /// Bounding rectangle of a node: its lane in its parent's run.
    #[inline]
    pub fn mbr(&self, id: NodeId) -> Rect {
        let n = self.node(id);
        if n.parent.is_none() {
            debug_assert_eq!(id, self.root, "a detached node has no MBR");
            return self.root_mbr;
        }
        let (g, lane) = group_of(n.lane);
        self.groups[g].mbrs.get(lane)
    }

    /// The node's application entry, if it corresponds to a user object.
    #[inline]
    pub fn entry(&self, id: NodeId) -> Option<&Entry> {
        self.node(id).entry.as_ref()
    }

    /// Children of a node, in child order.
    #[inline]
    pub fn children(
        &self,
        id: NodeId,
    ) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + '_ {
        self.child_lanes(id).map(|(c, _)| c)
    }

    /// Children of a node with their MBRs, read from its lanes.
    #[inline]
    pub(crate) fn child_lanes(
        &self,
        id: NodeId,
    ) -> impl DoubleEndedIterator<Item = (NodeId, Rect)> + ExactSizeIterator + '_ {
        self.node(id).run.lanes().map(move |lane| {
            let (g, lane) = group_of(lane);
            let group = &self.groups[g];
            (group.ids[lane], group.mbrs.get(lane))
        })
    }

    /// Parent of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// True if the node has no children.
    #[inline]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.node(id).run.count == 0
    }

    /// Depth of `id` below the root (root = 0) — the paper's node *height*
    /// (the paper counts "the root of a tree at height 0").
    pub fn depth_of(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.node(cur).parent {
            d += 1;
            cur = p;
        }
        d
    }

    /// Tree height: the maximum node depth (a lone root has height 0) —
    /// the paper's `n`.
    pub fn height(&self) -> usize {
        self.levels().len() - 1
    }

    /// All live node ids in breadth-first order (the clustering order of
    /// strategy IIb).
    pub fn bfs_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.node_count());
        let mut queue = std::collections::VecDeque::from([self.root]);
        while let Some(id) = queue.pop_front() {
            out.push(id);
            queue.extend(self.children(id));
        }
        out
    }

    /// All live node ids in depth-first (pre-order) order — the natural
    /// clustering order for depth-first traversals (§3.2 notes that the
    /// BFS/DFS choice should follow the physical clustering).
    pub fn dfs_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.node_count());
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            out.push(id);
            // Push in reverse so children emerge left-to-right.
            stack.extend(self.children(id).rev());
        }
        out
    }

    /// Live node ids grouped by depth: `levels()[d]` holds the nodes at
    /// depth `d`.
    pub fn levels(&self) -> Vec<Vec<NodeId>> {
        let mut levels: Vec<Vec<NodeId>> = Vec::new();
        let mut frontier = vec![self.root];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &id in &frontier {
                next.extend(self.children(id));
            }
            levels.push(std::mem::replace(&mut frontier, next));
        }
        levels
    }

    /// Ids of all entry-bearing nodes, in breadth-first order.
    pub fn entry_nodes(&self) -> Vec<NodeId> {
        self.bfs_order()
            .into_iter()
            .filter(|&id| self.node(id).entry.is_some())
            .collect()
    }

    /// True if `id` names an allocated, live arena slot.
    pub fn is_live(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).is_some_and(|n| n.live)
    }

    /// Drains the written slots, ascending: every slot whose liveness,
    /// entry or MBR changed since the last call, and some that did not.
    pub fn take_dirty(&mut self) -> Vec<NodeId> {
        let words = std::mem::take(&mut self.dirty);
        let mut slots = Vec::new();
        for (base, mut word) in (0u32..).step_by(64).zip(words) {
            while word != 0 {
                slots.push(NodeId(base + word.trailing_zeros()));
                word &= word - 1;
            }
        }
        slots
    }

    #[doc(hidden)]
    pub fn copied_chunks(&self, since: &GenTree) -> usize {
        self.nodes.copied_chunks(&since.nodes) + self.groups.copied_chunks(&since.groups)
    }

    /// Iterates over all live nodes in arena order (no particular tree
    /// order); useful for whole-tree statistics.
    pub fn iter_live(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.live)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Θ-filters every child of `node` against `probe` with one mask call
    /// per lane group — θ's oriented scalar filter over the same lanes
    /// when it has no compiled mask — and calls `visit(child, passes)` for
    /// each child in child order. The one child probe SELECT and JOIN
    /// share.
    #[inline]
    pub(crate) fn expand_children(
        &self,
        node: NodeId,
        probe: &ChildProbe,
        visit: &mut impl FnMut(NodeId, bool),
    ) {
        let run = self.node(node).run;
        let (first, count) = (run.first as usize, run.count as usize);
        for g in 0..count.div_ceil(LANES) {
            let group = &self.groups[first + g];
            let lanes = (count - g * LANES).min(LANES);
            let mask = match probe.mask {
                Some(m) => group.mbrs.filter_mask(&probe.mbr, m),
                None => (0..lanes).fold(0, |mask, lane| {
                    mask | u16::from(probe.test(&group.mbrs.get(lane))) << lane
                }),
            };
            for lane in 0..lanes {
                visit(group.ids[lane], mask >> lane & 1 == 1);
            }
        }
    }

    // ----- mutation (used by builders and the R-tree) ------------------

    /// Adds a child under `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not live.
    pub fn add_child(&mut self, parent: NodeId, mbr: Rect, entry: Option<Entry>) -> NodeId {
        assert!(self.node(parent).live, "parent is not live");
        let id = self.alloc(entry, Some(parent));
        self.push_lane(parent, id, &mbr);
        id
    }

    /// Updates a node's bounding rectangle.
    pub(crate) fn set_mbr(&mut self, id: NodeId, mbr: Rect) {
        self.mark_dirty(id);
        if self.mbr(id) == mbr {
            return;
        }
        let n = self.node(id);
        match n.parent {
            Some(_) => {
                let (g, lane) = group_of(n.lane);
                self.groups.get_mut(g).mbrs.set(lane, &mbr);
            }
            None => self.root_mbr = mbr,
        }
    }

    /// Detaches `child` from its parent by swap-remove (the node and its
    /// subtree stay allocated; the caller re-attaches or releases them)
    /// and returns the MBR its parent's lane held.
    ///
    /// # Panics
    ///
    /// Panics if `child` has no parent.
    pub(crate) fn detach(&mut self, child: NodeId) -> Rect {
        let n = self.node(child);
        let (p, hole) = (n.parent.expect("detach needs a parent"), n.lane);
        let mbr = self.mbr(child);
        let mut run = self.node(p).run;
        run.count -= 1;
        let last = run.lanes().end;
        let (g, lane) = group_of(last);
        let (moved, moved_mbr) = (self.groups[g].ids[lane], self.groups[g].mbrs.get(lane));
        let group = self.groups.get_mut(g);
        group.mbrs.clear(lane);
        group.ids[lane] = NO_NODE;
        if hole != last {
            self.write_lane(hole, moved, &moved_mbr);
        }
        self.node_mut(p).run = run;
        self.node_mut(child).parent = None;
        mbr
    }

    /// Attaches a detached node under `parent` with bounding rectangle `mbr`.
    pub(crate) fn attach(&mut self, parent: NodeId, child: NodeId, mbr: Rect) {
        debug_assert!(
            self.node(child).parent.is_none(),
            "attach requires a detached node"
        );
        self.node_mut(child).parent = Some(parent);
        self.push_lane(parent, child, &mbr);
    }

    /// Releases a detached, childless node back to the arena; the slot
    /// keeps its lane groups for its next tenant.
    pub(crate) fn release(&mut self, id: NodeId) {
        debug_assert!(self.node(id).parent.is_none());
        debug_assert!(self.is_leaf(id));
        let next = self.free.replace(id);
        let n = self.node_mut(id);
        n.live = false;
        n.parent = next;
        self.free_len += 1;
    }

    /// Installs a brand-new root above the current one (R-tree root split).
    pub(crate) fn grow_root(&mut self, mbr: Rect) -> NodeId {
        let (old_root, old_mbr) = (self.root, self.root_mbr);
        let new_root = self.alloc(None, None);
        self.root = new_root;
        self.root_mbr = mbr;
        self.node_mut(old_root).parent = Some(new_root);
        self.push_lane(new_root, old_root, &old_mbr);
        new_root
    }

    /// Replaces the root with its only child (R-tree root collapse).
    pub(crate) fn shrink_root(&mut self) {
        let old_root = self.root;
        assert_eq!(
            self.children(old_root).len(),
            1,
            "shrink needs a single child"
        );
        let child = self.children(old_root).next().expect("one child");
        self.root_mbr = self.detach(child);
        self.root = child;
        self.release(old_root);
    }

    /// A fresh node in a free slot (keeping the slot's lane groups) or a
    /// new one. Its `lane` is set by the `push_lane` that follows.
    fn alloc(&mut self, entry: Option<Entry>, parent: Option<NodeId>) -> NodeId {
        let mut node = Node {
            entry,
            parent,
            lane: 0,
            run: ChildRun::default(),
            live: true,
        };
        let id = if let Some(id) = self.free {
            let slot = self.nodes.get_mut(id.index());
            self.free = slot.parent;
            self.free_len -= 1;
            node.run = ChildRun {
                count: 0,
                ..slot.run
            };
            *slot = node;
            id
        } else {
            self.nodes.push(node);
            NodeId((self.nodes.len() - 1) as u32)
        };
        self.mark_dirty(id);
        id
    }

    /// Appends `child` with `mbr` to `parent`'s run, moving the run (and
    /// its children's lanes) to the end of the store when it outgrows its
    /// reservation.
    fn push_lane(&mut self, parent: NodeId, child: NodeId, mbr: &Rect) {
        let mut run = self.node(parent).run;
        let needed = (run.count as usize + 1).div_ceil(LANES) as u32;
        if needed > run.groups {
            let moved: Vec<(NodeId, Rect)> = self.child_lanes(parent).collect();
            run.first = self.groups.len() as u32;
            run.groups = needed;
            for _ in 0..needed {
                self.groups.push(EMPTY_GROUP);
            }
            for (lane, (c, c_mbr)) in run.lanes().zip(moved) {
                self.write_lane(lane, c, &c_mbr);
            }
        }
        run.count += 1;
        self.write_lane(run.lanes().end - 1, child, mbr);
        self.node_mut(parent).run = run;
    }

    /// Stores `child` and its MBR in `lane` and points the child at it —
    /// not a dirty write of the child: its content does not change.
    fn write_lane(&mut self, lane: u32, child: NodeId, mbr: &Rect) {
        let (g, l) = group_of(lane);
        let group = self.groups.get_mut(g);
        group.mbrs.set(l, mbr);
        group.ids[l] = child;
        self.nodes.get_mut(child.index()).lane = lane;
    }

    fn mark_dirty(&mut self, id: NodeId) {
        let word = id.index() / 64;
        if word >= self.dirty.len() {
            self.dirty.resize(word + 1, 0);
        }
        self.dirty[word] |= 1 << (id.index() % 64);
    }

    #[inline]
    fn node(&self, id: NodeId) -> &Node {
        let n = &self.nodes[id.index()];
        debug_assert!(n.live, "accessing a dead node");
        n
    }

    #[inline]
    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.mark_dirty(id);
        let n = self.nodes.get_mut(id.index());
        debug_assert!(n.live, "accessing a dead node");
        n
    }

    /// Verifies the PART-OF invariant (every child MBR inside its parent
    /// MBR, within epsilon), that entry geometries lie within their node
    /// MBRs, and the child store: each lane of a run holds a child whose
    /// parent link and lane point back, and every other lane reserved for
    /// the run is padding. Panics on violation.
    pub fn check_invariants(&self) {
        let mut seen = 0usize;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            seen += 1;
            let (n, mbr) = (self.node(id), self.mbr(id));
            if let Some(e) = &n.entry {
                assert!(
                    mbr.expand(1e-9).contains_rect(&e.geometry.mbr()),
                    "entry geometry escapes its node MBR at {id:?}"
                );
            }
            let reserved = n.run.lanes().start..(n.run.first + n.run.groups) * LANES as u32;
            for at in reserved {
                let (g, lane) = group_of(at);
                let (c, c_mbr) = (self.groups[g].ids[lane], self.groups[g].mbrs.get(lane));
                if at >= n.run.lanes().end {
                    assert_eq!(c, NO_NODE, "a padding lane of {id:?} names a node");
                    assert_eq!(c_mbr, RectLanes::EMPTY.get(lane), "padding lane of {id:?}");
                    continue;
                }
                let cn = self.node(c);
                assert_eq!(cn.parent, Some(id), "broken parent link at {c:?}");
                assert_eq!(cn.lane, at, "{c:?} is not where its lane is");
                assert!(
                    mbr.expand(1e-9).contains_rect(&c_mbr),
                    "PART-OF violation: child {c:?} MBR {c_mbr:?} escapes parent {id:?} MBR {mbr:?}",
                );
                stack.push(c);
            }
        }
        assert_eq!(seen, self.node_count(), "unreachable live nodes exist");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geom::Point;

    fn entry(id: u64, x: f64, y: f64) -> Entry {
        Entry {
            id,
            geometry: Geometry::Point(Point::new(x, y)),
        }
    }

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::from_bounds(x0, y0, x1, y1)
    }

    #[test]
    fn build_and_navigate() {
        let mut t = GenTree::new(rect(0.0, 0.0, 10.0, 10.0), None);
        let a = t.add_child(t.root(), rect(0.0, 0.0, 5.0, 5.0), Some(entry(1, 1.0, 1.0)));
        let b = t.add_child(t.root(), rect(5.0, 5.0, 10.0, 10.0), None);
        let c = t.add_child(b, rect(6.0, 6.0, 8.0, 8.0), Some(entry(2, 7.0, 7.0)));
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.height(), 2);
        assert_eq!(t.depth_of(c), 2);
        assert_eq!(t.parent(c), Some(b));
        assert!(t.is_leaf(a) && t.is_leaf(c) && !t.is_leaf(b));
        assert_eq!(t.children(t.root()).collect::<Vec<_>>(), [a, b]);
        assert_eq!(t.entry(a).unwrap().id, 1);
        assert!(t.entry(b).is_none());
        t.check_invariants();
    }

    #[test]
    fn dfs_order_is_preorder() {
        let mut t = GenTree::new(rect(0.0, 0.0, 8.0, 8.0), None);
        let a = t.add_child(t.root(), rect(0.0, 0.0, 4.0, 4.0), None);
        let b = t.add_child(t.root(), rect(4.0, 0.0, 8.0, 4.0), None);
        let c = t.add_child(a, rect(1.0, 1.0, 2.0, 2.0), None);
        let d = t.add_child(a, rect(2.0, 2.0, 3.0, 3.0), None);
        assert_eq!(t.dfs_order(), vec![t.root(), a, c, d, b]);
    }

    #[test]
    fn bfs_and_levels() {
        let mut t = GenTree::new(rect(0.0, 0.0, 8.0, 8.0), None);
        let a = t.add_child(t.root(), rect(0.0, 0.0, 4.0, 4.0), None);
        let b = t.add_child(t.root(), rect(4.0, 0.0, 8.0, 4.0), None);
        let c = t.add_child(a, rect(1.0, 1.0, 2.0, 2.0), None);
        let order = t.bfs_order();
        assert_eq!(order, vec![t.root(), a, b, c]);
        let levels = t.levels();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0], vec![t.root()]);
        assert_eq!(levels[1], vec![a, b]);
        assert_eq!(levels[2], vec![c]);
    }

    #[test]
    #[should_panic(expected = "PART-OF violation")]
    fn invariant_catches_escaping_child() {
        let mut t = GenTree::new(rect(0.0, 0.0, 4.0, 4.0), None);
        t.add_child(t.root(), rect(2.0, 2.0, 6.0, 6.0), None);
        t.check_invariants();
    }

    #[test]
    fn detach_attach_release_cycle() {
        let mut t = GenTree::new(rect(0.0, 0.0, 10.0, 10.0), None);
        let a = t.add_child(t.root(), rect(0.0, 0.0, 5.0, 5.0), None);
        let b = t.add_child(t.root(), rect(5.0, 5.0, 10.0, 10.0), None);
        let a_mbr = t.detach(a);
        assert_eq!(a_mbr, rect(0.0, 0.0, 5.0, 5.0));
        assert_eq!(t.children(t.root()).collect::<Vec<_>>(), [b]);
        t.attach(b, a, a_mbr);
        // a's MBR must be adjusted by the caller for the invariant; do so.
        t.set_mbr(b, rect(0.0, 0.0, 10.0, 10.0));
        assert_eq!(t.parent(a), Some(b));
        t.check_invariants();
        let count = t.node_count();
        t.detach(a);
        t.release(a);
        assert_eq!(t.node_count(), count - 1);
    }

    #[test]
    fn grow_and_shrink_root() {
        let mut t = GenTree::new(rect(0.0, 0.0, 4.0, 4.0), None);
        let old = t.root();
        let new_root = t.grow_root(rect(0.0, 0.0, 4.0, 4.0));
        assert_eq!(t.root(), new_root);
        assert_eq!(t.parent(old), Some(new_root));
        assert_eq!(t.height(), 1);
        t.shrink_root();
        assert_eq!(t.root(), old);
        assert_eq!(t.height(), 0);
        t.check_invariants();
    }

    #[test]
    fn entry_nodes_filtering() {
        let mut t = GenTree::new(rect(0.0, 0.0, 10.0, 10.0), None);
        let a = t.add_child(t.root(), rect(1.0, 1.0, 2.0, 2.0), Some(entry(7, 1.5, 1.5)));
        t.add_child(t.root(), rect(3.0, 3.0, 4.0, 4.0), None);
        assert_eq!(t.entry_nodes(), vec![a]);
    }

    #[test]
    fn arena_slot_reuse() {
        let mut t = GenTree::new(rect(0.0, 0.0, 10.0, 10.0), None);
        let a = t.add_child(t.root(), rect(0.0, 0.0, 1.0, 1.0), None);
        t.detach(a);
        t.release(a);
        let b = t.add_child(t.root(), rect(1.0, 1.0, 2.0, 2.0), None);
        // The freed slot is recycled.
        assert_eq!(a.index(), b.index());
        t.check_invariants();
    }
    /// The oracle the traversals stand on: on R-trees after seeded random
    /// insert/remove chains, each live node's lane probe gives, child by
    /// child and in child order, what `ThetaOp::filter` gives on the
    /// child's MBR — for the compiled mask filters and for both
    /// orientations of the directional ones — and an entry's lane holds
    /// its geometry's MBR.
    #[test]
    fn lane_probe_equals_theta_filter_in_child_order() {
        use crate::rtree::{RTree, RTreeConfig};
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use sj_geom::Direction;

        let thetas = [
            ThetaOp::Overlaps,
            ThetaOp::Includes,
            ThetaOp::WithinDistance(7.0),
            ThetaOp::WithinDistance(-1.0),
            ThetaOp::Adjacent,
            ThetaOp::DirectionOf(Direction::NorthWest),
            ThetaOp::DirectionOf(Direction::South),
        ];
        let probes = [
            rect(10.0, 10.0, 40.0, 40.0),
            rect(0.0, 0.0, 100.0, 100.0),
            rect(95.0, 95.0, 99.0, 99.0),
        ];
        // Fan-outs 4, 8 and 12: runs of one lane group and of two.
        for (seed, fanout) in [(1u64, 4), (2, 8), (3, 12)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rt = RTree::new(RTreeConfig::with_fanout(fanout));
            let (mut live, mut next_id) = (Vec::new(), 0u64);
            for _ in 0..600 {
                if live.len() > 40 && rng.random_range(0..3) == 0 {
                    assert!(rt.remove(live.swap_remove(rng.random_range(0..live.len()))));
                } else {
                    let (x, y) = (rng.random_range(0.0..98.0), rng.random_range(0.0..98.0));
                    let g = match rng.random_range(0..2) {
                        0 => Geometry::Point(Point::new(x, y)),
                        _ => Geometry::Rect(rect(x, y, x + 2.0, y + 1.5)),
                    };
                    rt.insert(next_id, g);
                    live.push(next_id);
                    next_id += 1;
                }
            }
            rt.check_invariants();
            let tree = rt.tree();
            for node in tree.iter_live() {
                if let Some(e) = tree.entry(node) {
                    assert_eq!(tree.mbr(node), e.geometry.mbr(), "lane of {node:?}");
                }
            }
            for (theta, probe) in thetas.iter().flat_map(|&t| probes.map(|p| (t, p))) {
                for probe_is_left in [true, false] {
                    let mask = theta.mask_filter();
                    let cp = ChildProbe {
                        mbr: probe,
                        theta,
                        mask,
                        probe_is_left,
                    };
                    for node in tree.iter_live() {
                        let want: Vec<(NodeId, bool)> = tree
                            .children(node)
                            .map(|c| {
                                let m = tree.mbr(c);
                                let v = match probe_is_left {
                                    true => theta.filter(&probe, &m),
                                    false => theta.filter(&m, &probe),
                                };
                                (c, v)
                            })
                            .collect();
                        let mut got = Vec::new();
                        tree.expand_children(node, &cp, &mut |c, v| got.push((c, v)));
                        assert_eq!(got, want, "{theta:?} left={probe_is_left} at {node:?}");
                    }
                }
            }
        }
    }
}
