//! Guttman's R-tree (1984) as a generalization tree — the paper's Figure 2.
//!
//! The R-tree is the prototypical *abstract* generalization tree: interior
//! nodes are "technical entities that are of no interest to the user"
//! (§3.1) — here, directory nodes with `entry = None` — while every data
//! object is a leaf node carrying an [`Entry`]. All entries live at a
//! uniform depth (`leaf_level + 1`), directory fan-out is bounded by
//! `[min_entries, max_entries]`, and child MBRs nest inside parent MBRs,
//! so the structure satisfies the generalization-tree PART-OF invariant by
//! construction and the SELECT/JOIN algorithms of this crate apply
//! unchanged.
//!
//! Implemented: ChooseLeaf/AdjustTree insertion with **linear** or
//! **quadratic** node splitting, deletion with subtree condensation and
//! entry reinsertion, and **Sort-Tile-Recursive (STR)** bulk loading.

use std::sync::Arc;

use sj_geom::{Bounded, Geometry, Rect};
use sj_storage::IdMap;

use crate::tree::{Entry, GenTree, NodeId};

/// Node-splitting heuristic (Guttman §3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStrategy {
    /// Linear-cost seed picking, remaining children assigned by least
    /// enlargement.
    Linear,
    /// Quadratic-cost seed picking (maximal dead area) with preference-
    /// driven assignment.
    Quadratic,
    /// The R*-tree split (Beckmann et al. 1990): axis chosen by minimal
    /// margin sum, distribution by minimal overlap — a post-paper
    /// refinement included for ablation.
    RStar,
}

/// R-tree tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct RTreeConfig {
    /// Maximum children per directory node (the generalization-tree
    /// fan-out `k`).
    pub max_entries: usize,
    /// Minimum children per non-root directory node.
    pub min_entries: usize,
    /// Split heuristic.
    pub split: SplitStrategy,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        RTreeConfig {
            max_entries: 8,
            min_entries: 3,
            split: SplitStrategy::Quadratic,
        }
    }
}

impl RTreeConfig {
    /// A configuration with fan-out `k` (min = 40% of max, Guttman's
    /// recommendation) — convenient for matching the model's `k`.
    pub fn with_fanout(k: usize) -> Self {
        assert!(k >= 2, "fan-out must be at least 2");
        RTreeConfig {
            max_entries: k,
            min_entries: (k * 2 / 5).max(1),
            split: SplitStrategy::Quadratic,
        }
    }

    fn validate(&self) {
        assert!(self.max_entries >= 2, "max_entries must be ≥ 2");
        assert!(
            self.min_entries >= 1 && self.min_entries <= self.max_entries / 2,
            "min_entries must be in 1..=max_entries/2 (got {} for max {})",
            self.min_entries,
            self.max_entries
        );
    }
}

/// An R-tree over [`Geometry`] values keyed by `u64` tuple ids.
#[derive(Debug, Clone)]
pub struct RTree {
    /// Copied by the first mutation after [`RTree::shared_tree`] lent it.
    tree: Arc<GenTree>,
    config: RTreeConfig,
    id_map: IdMap<NodeId>,
    /// Depth of the directory nodes whose children are data entries.
    leaf_level: usize,
}

impl RTree {
    /// Creates an empty R-tree.
    pub fn new(config: RTreeConfig) -> Self {
        config.validate();
        RTree {
            tree: Arc::new(GenTree::new(Rect::from_bounds(0.0, 0.0, 0.0, 0.0), None)),
            config,
            id_map: IdMap::new(),
            leaf_level: 0,
        }
    }

    /// The underlying generalization tree (input to SELECT / JOIN).
    #[inline]
    pub fn tree(&self) -> &GenTree {
        &self.tree
    }

    /// The tree as a shared handle: what a stored copy of the index holds.
    pub fn shared_tree(&self) -> &Arc<GenTree> {
        &self.tree
    }

    /// Drains the arena slots written since the last call (or since
    /// `bulk_load`), ascending — see [`GenTree::take_dirty`].
    pub fn take_dirty(&mut self) -> Vec<NodeId> {
        self.tree_mut().take_dirty()
    }

    fn tree_mut(&mut self) -> &mut GenTree {
        Arc::make_mut(&mut self.tree)
    }

    /// Configuration in use.
    #[inline]
    pub fn config(&self) -> RTreeConfig {
        self.config
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.id_map.len()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.id_map.is_empty()
    }

    /// Geometry stored under `id`, if present.
    pub fn get(&self, id: u64) -> Option<&Geometry> {
        self.id_map
            .get(id)
            .map(|&n| &self.tree.entry(n).expect("entry node").geometry)
    }

    /// Inserts `(id, geometry)`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already present (R-tree keys are unique; use
    /// [`RTree::remove`] first to replace).
    pub fn insert(&mut self, id: u64, geometry: Geometry) {
        assert!(self.id_map.get(id).is_none(), "duplicate R-tree id {id}");
        let mbr = geometry.mbr();
        // I1: ChooseLeaf.
        let leaf = self.choose_leaf(&mbr);
        // I2: add the record.
        let entry = Some(Entry { id, geometry });
        let node = self.tree_mut().add_child(leaf, mbr, entry);
        self.id_map.insert(id, node);
        // I3/I4: AdjustTree with splits as needed.
        self.adjust_upward(leaf);
    }

    /// Removes `id`, returning true if it was present.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(node) = self.id_map.remove(id) else {
            return false;
        };
        let parent = self
            .tree
            .parent(node)
            .expect("entries always have a parent");
        self.tree_mut().detach(node);
        self.tree_mut().release(node);
        self.condense(parent);
        // D4: shorten the tree while the root has a single directory child.
        while self.leaf_level > 0 && self.tree.children(self.tree.root()).len() == 1 {
            self.tree_mut().shrink_root();
            self.leaf_level -= 1;
        }
        true
    }

    /// Sort-Tile-Recursive bulk load: packs entries into full leaves and
    /// recursively packs directory levels. Produces a tree with near-100%
    /// node utilization, the standard construction for static data sets.
    pub fn bulk_load(config: RTreeConfig, entries: Vec<(u64, Geometry)>) -> Self {
        config.validate();
        if entries.is_empty() {
            return RTree::new(config);
        }
        let cap = config.max_entries;

        // Pack the entry level.
        let mut items: Vec<(Rect, Entry)> = entries
            .into_iter()
            .map(|(id, geometry)| (geometry.mbr(), Entry { id, geometry }))
            .collect();
        let groups = str_pack(&mut items, cap, config.min_entries);

        // `level` holds (group mbr, group members) for the level being
        // packed; members are fully-built subtrees represented as
        // (mbr, Subtree).
        enum Sub {
            Leaf(Vec<(Rect, Entry)>),
            Dir(Vec<(Rect, Sub)>),
        }
        let mut level: Vec<(Rect, Sub)> = groups
            .into_iter()
            .map(|g| (mbr_of(g.iter().map(|(r, _)| *r)), Sub::Leaf(g)))
            .collect();
        let mut depth_below = 1usize; // directory levels below the current one
        while level.len() > 1 {
            let mut items: Vec<(Rect, Sub)> = std::mem::take(&mut level);
            let groups = str_pack(&mut items, cap, config.min_entries);
            level = groups
                .into_iter()
                .map(|g| (mbr_of(g.iter().map(|(r, _)| *r)), Sub::Dir(g)))
                .collect();
            depth_below += 1;
        }

        // Materialize into a GenTree.
        let (root_mbr, root_sub) = level.pop().expect("non-empty");
        let mut tree = GenTree::new(root_mbr, None);
        let mut homes = Vec::new();
        fn build(tree: &mut GenTree, homes: &mut Vec<(u64, NodeId)>, parent: NodeId, sub: Sub) {
            match sub {
                Sub::Leaf(entries) => {
                    for (mbr, e) in entries {
                        let id = e.id;
                        let n = tree.add_child(parent, mbr, Some(e));
                        homes.push((id, n));
                    }
                }
                Sub::Dir(children) => {
                    for (mbr, s) in children {
                        let n = tree.add_child(parent, mbr, None);
                        build(tree, homes, n, s);
                    }
                }
            }
        }
        let root = tree.root();
        build(&mut tree, &mut homes, root, root_sub);
        tree.take_dirty(); // a freshly loaded tree is clean
        let rt = RTree {
            tree: Arc::new(tree),
            config,
            id_map: homes.into_iter().collect(),
            leaf_level: depth_below - 1,
        };
        debug_assert!({
            rt.check_invariants();
            true
        });
        rt
    }

    /// ChooseLeaf (Guttman I1/CL1-4): descend picking the child needing
    /// least enlargement to cover `mbr`, breaking ties by smaller area.
    fn choose_leaf(&self, mbr: &Rect) -> NodeId {
        let mut node = self.tree.root();
        for _ in 0..self.leaf_level {
            let best = self
                .tree
                .children(node)
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let (ra, rb) = (self.tree.mbr(a), self.tree.mbr(b));
                    let (ea, eb) = (ra.enlargement(mbr), rb.enlargement(mbr));
                    ea.partial_cmp(&eb)
                        .expect("finite areas")
                        .then(ra.area().partial_cmp(&rb.area()).expect("finite areas"))
                })
                .expect("directory levels above leaf_level are never empty");
            node = best;
        }
        node
    }

    /// AdjustTree: recompute MBRs from `node` to the root, splitting any
    /// overflowing directory on the way.
    fn adjust_upward(&mut self, mut node: NodeId) {
        loop {
            self.recompute_mbr(node);
            if self.tree.children(node).len() > self.config.max_entries {
                self.split_node(node);
            }
            match self.tree.parent(node) {
                Some(p) => node = p,
                None => break,
            }
        }
        // The root itself may have been split inside split_node (which
        // grows a new root); its MBR is recomputed there.
    }

    fn recompute_mbr(&mut self, node: NodeId) {
        let children = self.tree.children(node);
        if children.is_empty() {
            return;
        }
        let mbr = mbr_of(children.iter().map(|&c| self.tree.mbr(c)));
        self.tree_mut().set_mbr(node, mbr);
    }

    /// SplitNode: partition an overflowing node's children into two groups
    /// and install the second group in a new sibling.
    fn split_node(&mut self, node: NodeId) {
        let children: Vec<NodeId> = self.tree.children(node).to_vec();
        let mbrs: Vec<Rect> = children.iter().map(|&c| self.tree.mbr(c)).collect();
        let (ga, gb) = match self.config.split {
            SplitStrategy::Linear => linear_split(&mbrs, self.config.min_entries),
            SplitStrategy::Quadratic => quadratic_split(&mbrs, self.config.min_entries),
            SplitStrategy::RStar => rstar_split(&mbrs, self.config.min_entries),
        };

        // Ensure `node` has a parent; splitting the root grows the tree.
        let node_mbr = self.tree.mbr(node);
        let parent = match self.tree.parent(node) {
            Some(p) => p,
            None => {
                self.leaf_level += 1;
                self.tree_mut().grow_root(node_mbr)
            }
        };

        let tree = self.tree_mut();
        let sibling = tree.add_child(parent, node_mbr, None);
        for &idx in &gb {
            tree.detach(children[idx]);
            tree.attach(sibling, children[idx]);
        }
        debug_assert_eq!(self.tree.children(node).len(), ga.len());
        self.recompute_mbr(node);
        self.recompute_mbr(sibling);
        self.recompute_mbr(parent);
    }

    /// CondenseTree: walking up from `node`, dissolve underfull directory
    /// nodes and reinsert the entries of their subtrees.
    fn condense(&mut self, mut node: NodeId) {
        let mut orphans: Vec<Entry> = Vec::new();
        loop {
            let parent = self.tree.parent(node);
            let underfull = self.tree.children(node).len() < self.config.min_entries;
            match parent {
                Some(p) if underfull => {
                    // Dissolve `node`: collect every entry beneath it.
                    self.tree_mut().detach(node);
                    self.collect_entries(node, &mut orphans);
                    node = p;
                }
                _ => {
                    self.recompute_mbr(node);
                    match parent {
                        Some(p) => node = p,
                        None => break,
                    }
                }
            }
        }
        for e in orphans {
            self.id_map.remove(e.id);
            self.insert(e.id, e.geometry);
        }
    }

    /// Detached-subtree teardown: releases all nodes, harvesting entries.
    fn collect_entries(&mut self, node: NodeId, out: &mut Vec<Entry>) {
        let children: Vec<NodeId> = self.tree.children(node).to_vec();
        for c in children {
            self.tree_mut().detach(c);
            self.collect_entries(c, out);
        }
        if let Some(e) = self.tree.entry(node) {
            out.push(e.clone());
        }
        self.tree_mut().release(node);
    }

    /// Structural self-check: generalization-tree invariants plus R-tree
    /// specifics (uniform entry depth, fan-out bounds, id-map consistency).
    pub fn check_invariants(&self) {
        if self.is_empty() {
            return;
        }
        self.tree.check_invariants();
        let entry_depth = self.leaf_level + 1;
        for (id, &n) in self.id_map.iter() {
            assert_eq!(self.tree.entry(n).map(|e| e.id), Some(id), "id map desync");
            assert_eq!(
                self.tree.depth_of(n),
                entry_depth,
                "entry {id} at wrong depth"
            );
            assert!(self.tree.is_leaf(n), "entry {id} has children");
        }
        assert_eq!(
            self.id_map.len(),
            self.tree.entry_nodes().len(),
            "stray entries in tree"
        );
        // Fan-out bounds on directory nodes.
        let mut stack = vec![(self.tree.root(), 0usize)];
        while let Some((n, depth)) = stack.pop() {
            if depth <= self.leaf_level {
                let fanout = self.tree.children(n).len();
                assert!(
                    fanout <= self.config.max_entries,
                    "node {n:?} overflows: {fanout}"
                );
                if depth > 0 {
                    assert!(
                        fanout >= self.config.min_entries,
                        "node {n:?} underfull: {fanout}"
                    );
                }
                for &c in self.tree.children(n) {
                    stack.push((c, depth + 1));
                }
            }
        }
    }
}

/// Union of an MBR iterator (must be non-empty).
fn mbr_of(mut rects: impl Iterator<Item = Rect>) -> Rect {
    let first = rects.next().expect("mbr_of needs at least one rect");
    rects.fold(first, |acc, r| acc.union(&r))
}

/// Guttman's quadratic split: seeds maximize dead area; remaining items go
/// to the group whose MBR needs the smaller enlargement, with min-fill
/// enforcement. Returns index sets (group A keeps the original node).
fn quadratic_split(mbrs: &[Rect], min: usize) -> (Vec<usize>, Vec<usize>) {
    let n = mbrs.len();
    debug_assert!(n >= 2);
    // PickSeeds: the pair wasting the most area.
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..n {
        for j in (i + 1)..n {
            let waste = mbrs[i].union(&mbrs[j]).area() - mbrs[i].area() - mbrs[j].area();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    let mut ga = vec![s1];
    let mut gb = vec![s2];
    let mut ra = mbrs[s1];
    let mut rb = mbrs[s2];
    let mut rest: Vec<usize> = (0..n).filter(|&i| i != s1 && i != s2).collect();

    while !rest.is_empty() {
        // Min-fill enforcement: if one group must take everything left.
        if ga.len() + rest.len() == min {
            for i in rest.drain(..) {
                ra = ra.union(&mbrs[i]);
                ga.push(i);
            }
            break;
        }
        if gb.len() + rest.len() == min {
            for i in rest.drain(..) {
                rb = rb.union(&mbrs[i]);
                gb.push(i);
            }
            break;
        }
        // PickNext: the item with the strongest preference.
        let (pos, _) = rest
            .iter()
            .enumerate()
            .max_by(|(_, &i), (_, &j)| {
                let di = (ra.enlargement(&mbrs[i]) - rb.enlargement(&mbrs[i])).abs();
                let dj = (ra.enlargement(&mbrs[j]) - rb.enlargement(&mbrs[j])).abs();
                di.partial_cmp(&dj).expect("finite areas")
            })
            .expect("rest is non-empty");
        let i = rest.swap_remove(pos);
        let (ea, eb) = (ra.enlargement(&mbrs[i]), rb.enlargement(&mbrs[i]));
        let to_a = match ea.partial_cmp(&eb).expect("finite") {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => {
                // Ties: smaller area, then fewer members.
                (ra.area(), ga.len()) <= (rb.area(), gb.len())
            }
        };
        if to_a {
            ra = ra.union(&mbrs[i]);
            ga.push(i);
        } else {
            rb = rb.union(&mbrs[i]);
            gb.push(i);
        }
    }
    (ga, gb)
}

/// Guttman's linear split: seeds with the greatest normalized separation
/// along either axis; remaining items assigned by least enlargement with
/// min-fill enforcement.
fn linear_split(mbrs: &[Rect], min: usize) -> (Vec<usize>, Vec<usize>) {
    let n = mbrs.len();
    debug_assert!(n >= 2);
    // LPS1-3: per dimension, the entry with the highest low side and the
    // one with the lowest high side; normalize by the overall extent.
    let all = mbr_of(mbrs.iter().copied());
    let mut best: Option<(f64, usize, usize)> = None;
    for dim in 0..2 {
        let lo = |r: &Rect| if dim == 0 { r.lo.x } else { r.lo.y };
        let hi = |r: &Rect| if dim == 0 { r.hi.x } else { r.hi.y };
        let width = (hi(&all) - lo(&all)).max(f64::MIN_POSITIVE);
        let max_lo = (0..n)
            .max_by(|&i, &j| lo(&mbrs[i]).partial_cmp(&lo(&mbrs[j])).expect("finite"))
            .expect("non-empty");
        let min_hi = (0..n)
            .min_by(|&i, &j| hi(&mbrs[i]).partial_cmp(&hi(&mbrs[j])).expect("finite"))
            .expect("non-empty");
        let sep = (lo(&mbrs[max_lo]) - hi(&mbrs[min_hi])) / width;
        if best.is_none_or(|(s, _, _)| sep > s) && max_lo != min_hi {
            best = Some((sep, max_lo, min_hi));
        }
    }
    let (s1, s2) = match best {
        Some((_, a, b)) => (a, b),
        // All entries identical along both axes: any distinct pair works.
        None => (0, 1),
    };

    let mut ga = vec![s1];
    let mut gb = vec![s2];
    let mut ra = mbrs[s1];
    let mut rb = mbrs[s2];
    #[allow(clippy::needless_range_loop)] // index used for seed comparison and `remaining`
    for i in 0..n {
        if i == s1 || i == s2 {
            continue;
        }
        let remaining = n - i - 1;
        if ga.len() + remaining + 1 == min {
            ga.push(i);
            ra = ra.union(&mbrs[i]);
            continue;
        }
        if gb.len() + remaining + 1 == min {
            gb.push(i);
            rb = rb.union(&mbrs[i]);
            continue;
        }
        if ra.enlargement(&mbrs[i]) <= rb.enlargement(&mbrs[i]) {
            ra = ra.union(&mbrs[i]);
            ga.push(i);
        } else {
            rb = rb.union(&mbrs[i]);
            gb.push(i);
        }
    }
    // Guarantee min fill (identical rectangles can starve a group).
    while ga.len() < min {
        let moved = gb.pop().expect("enough items overall");
        ga.push(moved);
    }
    while gb.len() < min {
        let moved = ga.pop().expect("enough items overall");
        gb.push(moved);
    }
    (ga, gb)
}

/// The R*-tree split: for each axis, entries are sorted by lower then by
/// upper MBR edge and every legal distribution (first `k` vs rest,
/// `min ≤ k ≤ len − min`) is enumerated. The split axis minimizes the sum
/// of group margins over its distributions; the distribution on that axis
/// minimizes group-MBR overlap area (ties: total area).
fn rstar_split(mbrs: &[Rect], min: usize) -> (Vec<usize>, Vec<usize>) {
    let n = mbrs.len();
    debug_assert!(n >= 2);
    let min = min.min(n / 2).max(1);

    // Candidate orders per axis: by lo and by hi.
    let order_by = |key: fn(&Rect) -> f64| {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| key(&mbrs[a]).partial_cmp(&key(&mbrs[b])).expect("finite"));
        idx
    };
    let axes: [[Vec<usize>; 2]; 2] = [
        [order_by(|r| r.lo.x), order_by(|r| r.hi.x)],
        [order_by(|r| r.lo.y), order_by(|r| r.hi.y)],
    ];

    let group_mbr = |ids: &[usize]| mbr_of(ids.iter().map(|&i| mbrs[i]));
    let distributions = || -> std::ops::RangeInclusive<usize> { min..=n - min };

    // Pick the axis with the smallest margin sum.
    let mut best_axis = 0usize;
    let mut best_margin = f64::INFINITY;
    for (axis, orders) in axes.iter().enumerate() {
        let mut margin_sum = 0.0;
        for order in orders {
            for k in distributions() {
                margin_sum += group_mbr(&order[..k]).margin() + group_mbr(&order[k..]).margin();
            }
        }
        if margin_sum < best_margin {
            best_margin = margin_sum;
            best_axis = axis;
        }
    }

    // On the chosen axis, pick the distribution with minimal overlap.
    let mut best: Option<(f64, f64, Vec<usize>, Vec<usize>)> = None;
    for order in &axes[best_axis] {
        for k in distributions() {
            let (ga, gb) = (order[..k].to_vec(), order[k..].to_vec());
            let (ra, rb) = (group_mbr(&ga), group_mbr(&gb));
            let overlap = ra.intersection(&rb).map(|i| i.area()).unwrap_or(0.0);
            let area = ra.area() + rb.area();
            let better = match &best {
                None => true,
                Some((bo, ba, _, _)) => overlap < *bo || (overlap == *bo && area < *ba),
            };
            if better {
                best = Some((overlap, area, ga, gb));
            }
        }
    }
    let (_, _, ga, gb) = best.expect("at least one distribution exists");
    (ga, gb)
}

/// Sort-Tile-Recursive packing of `(mbr, payload)` items into groups of at
/// most `cap` and (whenever the input allows) at least `min` items, tiling
/// by x then y. Tail groups are balanced against their predecessor so the
/// R-tree's min-fill invariant holds for every packed node.
fn str_pack<T>(items: &mut Vec<(Rect, T)>, cap: usize, min: usize) -> Vec<Vec<(Rect, T)>> {
    let n = items.len();
    let group_count = n.div_ceil(cap);
    let slice_count = (group_count as f64).sqrt().ceil() as usize;
    let per_slice = slice_count * cap;

    // Take `want` items but never strand a non-empty remainder smaller
    // than `floor`. Requires cap ≥ 2·min (enforced by RTreeConfig).
    fn balanced_take(len: usize, want: usize, floor: usize) -> usize {
        let take = want.min(len);
        let rest = len - take;
        if rest > 0 && rest < floor {
            take - (floor - rest)
        } else {
            take
        }
    }

    items.sort_by(|a, b| {
        a.0.center()
            .x
            .partial_cmp(&b.0.center().x)
            .expect("finite coordinates")
    });
    let mut groups = Vec::with_capacity(group_count);
    let mut rest: Vec<(Rect, T)> = std::mem::take(items);
    while !rest.is_empty() {
        let take = balanced_take(rest.len(), per_slice, min);
        let mut slice: Vec<(Rect, T)> = rest.drain(..take).collect();
        slice.sort_by(|a, b| {
            a.0.center()
                .y
                .partial_cmp(&b.0.center().y)
                .expect("finite coordinates")
        });
        while !slice.is_empty() {
            let take = balanced_take(slice.len(), cap, min);
            groups.push(slice.drain(..take).collect());
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{select_exhaustive, select_flat};
    use sj_geom::{Point, ThetaOp};

    fn pt(x: f64, y: f64) -> Geometry {
        Geometry::Point(Point::new(x, y))
    }

    fn grid_points(n: usize, step: f64) -> Vec<(u64, Geometry)> {
        (0..n * n)
            .map(|i| (i as u64, pt((i % n) as f64 * step, (i / n) as f64 * step)))
            .collect()
    }

    #[test]
    fn insert_and_search_small() {
        let mut rt = RTree::new(RTreeConfig::default());
        for (id, g) in grid_points(5, 10.0) {
            rt.insert(id, g);
            rt.check_invariants();
        }
        assert_eq!(rt.len(), 25);
        let probe = pt(20.0, 20.0);
        let out = select_flat(
            rt.tree(),
            None,
            &probe,
            ThetaOp::WithinDistance(0.5),
            |_| {},
        );
        assert_eq!(out.matches, vec![12]);
    }

    #[test]
    fn splits_keep_entries_at_uniform_depth() {
        for strategy in [SplitStrategy::Linear, SplitStrategy::Quadratic] {
            let mut rt = RTree::new(RTreeConfig {
                max_entries: 4,
                min_entries: 2,
                split: strategy,
            });
            for (id, g) in grid_points(8, 5.0) {
                rt.insert(id, g);
                rt.check_invariants();
            }
            assert_eq!(rt.len(), 64);
            assert!(
                rt.tree().height() >= 3,
                "{strategy:?} should deepen the tree"
            );
        }
    }

    #[test]
    fn select_equals_exhaustive_after_heavy_inserts() {
        let mut rt = RTree::new(RTreeConfig {
            max_entries: 5,
            min_entries: 2,
            split: SplitStrategy::Quadratic,
        });
        for (id, g) in grid_points(10, 7.0) {
            rt.insert(id, g);
        }
        for probe in [pt(0.0, 0.0), pt(35.0, 35.0), pt(63.0, 0.0)] {
            for theta in [ThetaOp::WithinDistance(10.0), ThetaOp::Overlaps] {
                let mut a = select_flat(rt.tree(), None, &probe, theta, |_| {}).matches;
                let mut b = select_exhaustive(rt.tree(), &probe, theta).matches;
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn remove_returns_presence_and_shrinks() {
        let mut rt = RTree::new(RTreeConfig {
            max_entries: 4,
            min_entries: 2,
            split: SplitStrategy::Quadratic,
        });
        for (id, g) in grid_points(6, 3.0) {
            rt.insert(id, g);
        }
        assert!(rt.remove(17));
        assert!(!rt.remove(17));
        assert_eq!(rt.len(), 35);
        rt.check_invariants();
        // Remove everything; tree must stay consistent throughout.
        for id in 0..36u64 {
            rt.remove(id);
            rt.check_invariants();
        }
        assert!(rt.is_empty());
    }

    #[test]
    fn removed_entries_are_unfindable() {
        let mut rt = RTree::new(RTreeConfig::default());
        for (id, g) in grid_points(5, 10.0) {
            rt.insert(id, g);
        }
        rt.remove(12);
        let probe = pt(20.0, 20.0);
        let out = select_flat(
            rt.tree(),
            None,
            &probe,
            ThetaOp::WithinDistance(0.5),
            |_| {},
        );
        assert!(out.matches.is_empty());
        assert_eq!(rt.get(12), None);
        assert!(rt.get(13).is_some());
    }

    #[test]
    fn bulk_load_str_builds_packed_tree() {
        let entries = grid_points(20, 4.0);
        let rt = RTree::bulk_load(RTreeConfig::with_fanout(10), entries);
        assert_eq!(rt.len(), 400);
        rt.check_invariants();
        // STR packs ~100% full: 400 entries at fan-out 10 → 40 leaves,
        // 4 directories, 1 root → height 3.
        assert_eq!(rt.tree().height(), 3);
        // Search correctness.
        let probe = pt(40.0, 40.0);
        let mut got = select_flat(
            rt.tree(),
            None,
            &probe,
            ThetaOp::WithinDistance(4.0),
            |_| {},
        )
        .matches;
        got.sort_unstable();
        let mut want = select_exhaustive(rt.tree(), &probe, ThetaOp::WithinDistance(4.0)).matches;
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(got.len(), 5); // center + 4 axis neighbours
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let rt = RTree::bulk_load(RTreeConfig::default(), vec![]);
        assert!(rt.is_empty());
        let rt = RTree::bulk_load(RTreeConfig::default(), vec![(7, pt(1.0, 2.0))]);
        assert_eq!(rt.len(), 1);
        assert_eq!(rt.get(7), Some(&pt(1.0, 2.0)));
        rt.check_invariants();
    }

    #[test]
    #[should_panic(expected = "duplicate R-tree id")]
    fn duplicate_ids_rejected() {
        let mut rt = RTree::new(RTreeConfig::default());
        rt.insert(1, pt(0.0, 0.0));
        rt.insert(1, pt(1.0, 1.0));
    }

    #[test]
    fn rect_geometries_and_mixed_sizes() {
        let mut rt = RTree::new(RTreeConfig {
            max_entries: 4,
            min_entries: 2,
            split: SplitStrategy::Linear,
        });
        for i in 0..50u64 {
            let x = (i % 10) as f64 * 10.0;
            let y = (i / 10) as f64 * 10.0;
            let w = 1.0 + (i % 7) as f64;
            rt.insert(i, Geometry::Rect(Rect::from_bounds(x, y, x + w, y + w)));
            rt.check_invariants();
        }
        let probe = Geometry::Rect(Rect::from_bounds(15.0, 15.0, 25.0, 25.0));
        let mut got = select_flat(rt.tree(), None, &probe, ThetaOp::Overlaps, |_| {}).matches;
        got.sort_unstable();
        let mut want = select_exhaustive(rt.tree(), &probe, ThetaOp::Overlaps).matches;
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn split_helpers_respect_min_fill() {
        let mbrs: Vec<Rect> = (0..9)
            .map(|i| {
                let x = (i % 3) as f64;
                let y = (i / 3) as f64;
                Rect::from_bounds(x, y, x + 0.5, y + 0.5)
            })
            .collect();
        for min in 1..=4 {
            let (a, b) = quadratic_split(&mbrs, min);
            assert_eq!(a.len() + b.len(), 9);
            assert!(a.len() >= min && b.len() >= min, "quadratic min {min}");
            let (a, b) = linear_split(&mbrs, min);
            assert_eq!(a.len() + b.len(), 9);
            assert!(a.len() >= min && b.len() >= min, "linear min {min}");
        }
    }

    #[test]
    fn rstar_split_respects_min_fill_and_partitions() {
        let mbrs: Vec<Rect> = (0..11)
            .map(|i| {
                let x = (i % 4) as f64 * 3.0;
                let y = (i / 4) as f64 * 3.0;
                Rect::from_bounds(x, y, x + 2.0, y + 2.0)
            })
            .collect();
        for min in 1..=5 {
            let (a, b) = rstar_split(&mbrs, min);
            let mut all: Vec<usize> = a.iter().chain(&b).copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..11).collect::<Vec<_>>(), "partition at min {min}");
            assert!(a.len() >= min && b.len() >= min, "min-fill at {min}");
        }
    }

    #[test]
    fn rstar_tree_stays_correct_under_inserts_and_deletes() {
        let mut rt = RTree::new(RTreeConfig {
            max_entries: 6,
            min_entries: 2,
            split: SplitStrategy::RStar,
        });
        for (id, g) in grid_points(9, 4.0) {
            rt.insert(id, g);
            rt.check_invariants();
        }
        // Search equivalence.
        let probe = pt(16.0, 16.0);
        let mut got = select_flat(
            rt.tree(),
            None,
            &probe,
            ThetaOp::WithinDistance(6.0),
            |_| {},
        )
        .matches;
        got.sort_unstable();
        let mut want = select_exhaustive(rt.tree(), &probe, ThetaOp::WithinDistance(6.0)).matches;
        want.sort_unstable();
        assert_eq!(got, want);
        for id in 0..40u64 {
            rt.remove(id);
            rt.check_invariants();
        }
        assert_eq!(rt.len(), 81 - 40);
    }

    #[test]
    fn rstar_split_produces_lower_overlap_than_linear() {
        // Two interleaved stripes of rectangles: margin-driven axis choice
        // separates them cleanly; linear seeds often do not.
        let mut mbrs = Vec::new();
        for i in 0..6 {
            mbrs.push(Rect::from_bounds(i as f64, 0.0, i as f64 + 0.8, 1.0));
            mbrs.push(Rect::from_bounds(i as f64, 10.0, i as f64 + 0.8, 11.0));
        }
        let overlap = |(a, b): &(Vec<usize>, Vec<usize>)| {
            let ra = mbr_of(a.iter().map(|&i| mbrs[i]));
            let rb = mbr_of(b.iter().map(|&i| mbrs[i]));
            ra.intersection(&rb).map(|r| r.area()).unwrap_or(0.0)
        };
        let rstar = rstar_split(&mbrs, 3);
        assert_eq!(overlap(&rstar), 0.0, "R* should find the disjoint split");
    }

    /// `(entry, mbr)` of every arena slot up to the highest live one
    /// (`None` for a dead slot) — what a stored copy of the tree holds.
    fn slot_contents(tree: &GenTree) -> Vec<Option<(Option<Entry>, Rect)>> {
        let bound = tree.iter_live().map(|n| n.index() + 1).max().unwrap_or(0);
        (0..bound as u32)
            .map(NodeId)
            .map(|n| {
                tree.is_live(n)
                    .then(|| (tree.entry(n).cloned(), tree.mbr(n)))
            })
            .collect()
    }

    /// The dirty record is what an incremental consumer is allowed to
    /// look at instead of the whole tree: after any mutation sequence it
    /// must name every slot whose liveness, entry or MBR changed — through
    /// slot recycling, root split and collapse, and condense-and-reinsert.
    #[test]
    fn take_dirty_names_every_changed_slot() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let config = RTreeConfig {
            max_entries: 4,
            min_entries: 2,
            split: SplitStrategy::Quadratic,
        };
        let mut rt = RTree::bulk_load(config, grid_points(6, 5.0));
        assert!(rt.take_dirty().is_empty(), "a fresh bulk load is clean");
        let mut rng = StdRng::seed_from_u64(0xD1127);
        let mut live: Vec<u64> = (0..36).collect();
        let mut next_id = 1_000u64;
        let (mut grew, mut shrank, mut recycled, mut reinserted) = (false, false, false, false);
        // Shrink to a handful of entries, grow past the start, shrink again.
        for (rounds, insert_share) in [(30, 1), (60, 9), (40, 2)] {
            for _ in 0..rounds {
                let before = slot_contents(rt.tree());
                let (height, nodes) = (rt.tree().height(), rt.tree().node_count());
                for _ in 0..rng.random_range(1..4usize) {
                    if live.is_empty() || rng.random_range(0..10) < insert_share {
                        let at = pt(rng.random_range(0.0..40.0), rng.random_range(0.0..40.0));
                        rt.insert(next_id, at);
                        live.push(next_id);
                        next_id += 1;
                    } else {
                        let id = live.swap_remove(rng.random_range(0..live.len()));
                        let homes = rt.id_map.clone();
                        assert!(rt.remove(id));
                        // Guttman D3: orphans of a dissolved node come back
                        // as new nodes.
                        reinserted |= rt
                            .id_map
                            .iter()
                            .any(|(id, node)| homes.get(id) != Some(node));
                    }
                }
                rt.check_invariants();
                let after = slot_contents(rt.tree());
                grew |= rt.tree().height() > height;
                shrank |= rt.tree().height() < height;
                recycled |= rt.tree().node_count() > nodes && after.len() <= before.len();

                let dirty = rt.take_dirty();
                assert!(
                    dirty.windows(2).all(|w| w[0] < w[1]),
                    "ascending, no repeats"
                );
                for slot in 0..before.len().max(after.len()) {
                    let held = |slots: &[Option<_>]| slots.get(slot).cloned().flatten();
                    let changed = held(&before) != held(&after);
                    assert!(
                        !changed || dirty.contains(&NodeId(slot as u32)),
                        "slot {slot} changed but is not in the dirty record"
                    );
                }
                assert!(rt.take_dirty().is_empty(), "a drain empties the record");
            }
        }
        assert!(
            grew && shrank && recycled && reinserted,
            "the sequence must cover every case"
        );
    }

    #[test]
    fn split_handles_identical_rectangles() {
        let mbrs = vec![Rect::from_bounds(0.0, 0.0, 1.0, 1.0); 6];
        let (a, b) = linear_split(&mbrs, 2);
        assert!(a.len() >= 2 && b.len() >= 2);
        let (a, b) = quadratic_split(&mbrs, 2);
        assert!(a.len() >= 2 && b.len() >= 2);
    }
}
