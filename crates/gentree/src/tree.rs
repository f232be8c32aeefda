//! The arena representation shared by all generalization trees.

use sj_geom::{Bounded, Geometry, Rect};
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
pub(crate) struct Node {
    pub(crate) mbr: Rect,
    pub(crate) entry: Option<Entry>,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
    /// Tombstone marker for recycled arena slots.
    pub(crate) live: bool,
}

/// A generalization tree: every node has a bounding rectangle; each
/// non-root node's rectangle is contained in its parent's rectangle
/// (the PART-OF invariant, checked by [`GenTree::check_invariants`]).
///
/// The arena is a [`CowVec`]: a clone shares every chunk of nodes and a
/// mutation copies the chunks it writes.
#[derive(Debug, Clone)]
pub struct GenTree {
    nodes: CowVec<Node, ARENA_CHUNK>,
    free: Vec<NodeId>,
    root: NodeId,
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
            mbr,
            entry,
            parent: None,
            children: Vec::new(),
            live: true,
        };
        GenTree {
            nodes: std::iter::once(root).collect(),
            free: Vec::new(),
            root: NodeId(0),
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
        self.nodes.len() - self.free.len()
    }

    /// Bounding rectangle of a node.
    #[inline]
    pub fn mbr(&self, id: NodeId) -> Rect {
        self.node(id).mbr
    }

    /// The node's application entry, if it corresponds to a user object.
    #[inline]
    pub fn entry(&self, id: NodeId) -> Option<&Entry> {
        self.node(id).entry.as_ref()
    }

    /// Children of a node.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).children
    }

    /// Parent of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// True if the node has no children.
    #[inline]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.node(id).children.is_empty()
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
        let mut max = 0;
        let mut stack = vec![(self.root, 0usize)];
        while let Some((id, d)) = stack.pop() {
            max = max.max(d);
            for &c in &self.node(id).children {
                stack.push((c, d + 1));
            }
        }
        max
    }

    /// All live node ids in breadth-first order (the clustering order of
    /// strategy IIb).
    pub fn bfs_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.node_count());
        let mut queue = std::collections::VecDeque::from([self.root]);
        while let Some(id) = queue.pop_front() {
            out.push(id);
            queue.extend(self.node(id).children.iter().copied());
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
            for &c in self.node(id).children.iter().rev() {
                stack.push(c);
            }
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
                next.extend(self.node(id).children.iter().copied());
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
        self.nodes.copied_chunks(&since.nodes)
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

    // ----- mutation (used by builders and the R-tree) ------------------

    /// Adds a child under `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not live.
    pub fn add_child(&mut self, parent: NodeId, mbr: Rect, entry: Option<Entry>) -> NodeId {
        assert!(self.node(parent).live, "parent is not live");
        let id = self.alloc(Node {
            mbr,
            entry,
            parent: Some(parent),
            children: Vec::new(),
            live: true,
        });
        self.node_mut(parent).children.push(id);
        id
    }

    /// Updates a node's bounding rectangle.
    pub(crate) fn set_mbr(&mut self, id: NodeId, mbr: Rect) {
        self.node_mut(id).mbr = mbr;
    }

    /// Detaches `child` from its parent (the node and its subtree stay
    /// allocated; the caller re-attaches or releases them).
    pub(crate) fn detach(&mut self, child: NodeId) {
        if let Some(p) = self.node(child).parent {
            let children = &mut self.node_mut(p).children;
            let pos = children
                .iter()
                .position(|&c| c == child)
                .expect("child listed under its parent");
            children.swap_remove(pos);
        }
        self.node_mut(child).parent = None;
    }

    /// Attaches a detached node under `parent`.
    pub(crate) fn attach(&mut self, parent: NodeId, child: NodeId) {
        debug_assert!(
            self.node(child).parent.is_none(),
            "attach requires a detached node"
        );
        self.node_mut(child).parent = Some(parent);
        self.node_mut(parent).children.push(child);
    }

    /// Releases a detached, childless node back to the arena.
    pub(crate) fn release(&mut self, id: NodeId) {
        debug_assert!(self.node(id).parent.is_none());
        debug_assert!(self.node(id).children.is_empty());
        self.node_mut(id).live = false;
        self.free.push(id);
    }

    /// Installs a brand-new root above the current one (R-tree root split).
    pub(crate) fn grow_root(&mut self, mbr: Rect) -> NodeId {
        let old_root = self.root;
        let new_root = self.alloc(Node {
            mbr,
            entry: None,
            parent: None,
            children: Vec::new(),
            live: true,
        });
        self.root = new_root;
        self.node_mut(old_root).parent = Some(new_root);
        self.node_mut(new_root).children.push(old_root);
        new_root
    }

    /// Replaces the root with its only child (R-tree root collapse).
    pub(crate) fn shrink_root(&mut self) {
        let old_root = self.root;
        assert_eq!(
            self.node(old_root).children.len(),
            1,
            "shrink needs a single child"
        );
        let child = self.node(old_root).children[0];
        self.node_mut(old_root).children.clear();
        self.node_mut(child).parent = None;
        self.root = child;
        self.release(old_root);
    }

    pub(crate) fn alloc(&mut self, node: Node) -> NodeId {
        let id = if let Some(id) = self.free.pop() {
            *self.nodes.get_mut(id.index()) = node;
            id
        } else {
            self.nodes.push(node);
            NodeId((self.nodes.len() - 1) as u32)
        };
        self.mark_dirty(id);
        id
    }

    fn mark_dirty(&mut self, id: NodeId) {
        let word = id.index() / 64;
        if word >= self.dirty.len() {
            self.dirty.resize(word + 1, 0);
        }
        self.dirty[word] |= 1 << (id.index() % 64);
    }

    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> &Node {
        let n = &self.nodes[id.index()];
        debug_assert!(n.live, "accessing a dead node");
        n
    }

    #[inline]
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.mark_dirty(id);
        let n = self.nodes.get_mut(id.index());
        debug_assert!(n.live, "accessing a dead node");
        n
    }

    /// Verifies the PART-OF invariant (every child MBR inside its parent
    /// MBR, within epsilon), parent/child link consistency, and that entry
    /// geometries lie within their node MBRs. Panics on violation.
    pub fn check_invariants(&self) {
        let mut seen = 0usize;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            seen += 1;
            let n = self.node(id);
            if let Some(e) = &n.entry {
                assert!(
                    n.mbr.expand(1e-9).contains_rect(&e.geometry.mbr()),
                    "entry geometry escapes its node MBR at {id:?}"
                );
            }
            for &c in &n.children {
                let cn = self.node(c);
                assert_eq!(cn.parent, Some(id), "broken parent link at {c:?}");
                assert!(
                    n.mbr.expand(1e-9).contains_rect(&cn.mbr),
                    "PART-OF violation: child {c:?} MBR {:?} escapes parent {id:?} MBR {:?}",
                    cn.mbr,
                    n.mbr
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
        assert_eq!(t.children(t.root()), &[a, b]);
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
        t.detach(a);
        assert_eq!(t.children(t.root()), &[b]);
        t.attach(b, a);
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
}
