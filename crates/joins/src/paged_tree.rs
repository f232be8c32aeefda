//! Storage mapping for generalization trees.
//!
//! §4.1: "the tree nodes contain the complete tuples that correspond to
//! the spatial object represented in that node" — i.e. the tree *is* the
//! relation's storage, and visiting a node costs the I/O of its tuple
//! record. [`PagedTree`] assigns every tree node a record slot on a
//! heap file, in breadth-first order under [`Layout::Clustered`]
//! (strategy IIb) or scattered under [`Layout::Unclustered`]
//! (strategy IIa), and charges a record read per visit.

use std::sync::Arc;

use sj_gentree::{FlatChildren, GenTree, NodeId};
use sj_geom::{codec, Geometry};
use sj_storage::{BufferPool, CowVec, HeapFile, Layout, RecordId, StorageError};

/// Sentinel id for directory nodes (R-tree interiors), which carry no
/// application tuple but still occupy a stored record.
const DIRECTORY_ID: u64 = u64::MAX;

/// Record encoding used for the stored tree nodes.
///
/// [`CodecMode::Quantized`] stores entry geometries as v2 quantized
/// frames ([`codec::encode_qrecord`]): polygon/polyline vertices become
/// fixed-point grid cells, so node records shrink, more nodes share a
/// page, and every traversal pays fewer physical reads. θ-evaluation in
/// the tree executors runs on the in-memory [`GenTree`] — the stored
/// record is only the paper's per-node I/O charge — so the match set is
/// unchanged byte for byte (tested).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodecMode {
    /// Lossless v1 records (the default).
    #[default]
    Exact,
    /// Quantized v2 records (smaller pages, conservative content).
    Quantized,
}

/// Logical node order used for clustered placement — §3.2's observation
/// that the efficiency of depth-first vs. breadth-first traversal depends
/// on the physical clustering of the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusterOrder {
    /// Level-by-level (the paper's default for strategy IIb).
    #[default]
    BreadthFirst,
    /// Pre-order.
    DepthFirst,
}

/// The node→record mapping for one generalization tree.
#[derive(Debug, Clone)]
pub struct PagedTree {
    file: HeapFile,
    /// `record[n.index()]` = the record that stores node `n`. Indexed by
    /// arena slot; only slots for live nodes are meaningful.
    record: CowVec<RecordId, 128>,
    mode: CodecMode,
}

impl PagedTree {
    /// Lays the tree's nodes out on a heap file in `cluster` logical
    /// order, placed per `layout` and encoded per `mode`. With
    /// [`CodecMode::Quantized`] pass a `record_size` sized for the v2
    /// frames (see [`PagedTree::quant_record_size`]).
    ///
    /// The first storage fault aborts the load with a typed error.
    ///
    /// # Panics
    ///
    /// Panics on a node that does not fit `record_size`.
    pub fn try_build(
        pool: &mut BufferPool,
        tree: &GenTree,
        record_size: usize,
        layout: Layout,
        cluster: ClusterOrder,
        mode: CodecMode,
    ) -> Result<Self, StorageError> {
        let order = match cluster {
            ClusterOrder::BreadthFirst => tree.bfs_order(),
            ClusterOrder::DepthFirst => tree.dfs_order(),
        };
        let max_slot = order.iter().map(|n| n.index()).max().unwrap_or(0);
        let file = HeapFile::bulk_load_with(pool, record_size, order.len(), layout, |i| {
            encode_node(tree, order[i], record_size, mode)
        })?;
        let mut record = vec![file.rid(0); max_slot + 1];
        for (i, node) in order.iter().enumerate() {
            record[node.index()] = file.rid(i);
        }
        let record = record.into_iter().collect();
        Ok(PagedTree { file, record, mode })
    }

    /// The smallest record size that fits every node of `tree` as a v2
    /// quantized frame (directory nodes are rects — lossless v1 frames
    /// inside the v2 file).
    pub fn quant_record_size(tree: &GenTree) -> usize {
        tree.bfs_order()
            .iter()
            .map(|&n| match tree.entry(n) {
                Some(e) => codec::encoded_qlen(&e.geometry),
                None => codec::encoded_len(&Geometry::Rect(tree.mbr(n))),
            })
            .max()
            .unwrap_or(codec::QHEADER_LEN)
            .max(codec::QHEADER_LEN)
    }

    /// Charges the I/O of visiting `node` (a logical read, a physical one
    /// on a miss) through [`BufferPool::try_touch`], reading no byte of
    /// the record — the hot path for the tree executors, whose θ runs on
    /// the in-memory [`GenTree`]; the stored record is only the paper's
    /// per-node I/O charge. A dead record is a debug assertion.
    pub fn try_touch_io(&self, pool: &mut BufferPool, node: NodeId) -> Result<(), StorageError> {
        let rid = self.record[node.index()];
        pool.try_touch(rid.page)?;
        debug_assert!(pool.holds_record(rid), "node mapped to a dead record");
        Ok(())
    }

    /// Pages occupied by the stored tree.
    pub fn page_count(&self) -> usize {
        self.file.page_count()
    }

    #[doc(hidden)]
    pub fn copied_chunks(&self, since: &PagedTree) -> usize {
        self.record.copied_chunks(&since.record) + self.file.copied_chunks(&since.file)
    }
}

/// One node's stored record under the given codec. Directory nodes store
/// their MBR as a rect in both modes (rect frames are lossless either
/// way).
fn encode_node(tree: &GenTree, node: NodeId, record_size: usize, mode: CodecMode) -> Vec<u8> {
    match tree.entry(node) {
        Some(e) => match mode {
            CodecMode::Exact => codec::encode_record(e.id, &e.geometry, record_size),
            CodecMode::Quantized => codec::encode_qrecord(e.id, &e.geometry, record_size),
        },
        None => codec::encode_record(DIRECTORY_ID, &Geometry::Rect(tree.mbr(node)), record_size),
    }
}

/// A relation stored *as* its generalization tree: the operand type of the
/// strategy-II executors.
#[derive(Debug, Clone)]
pub struct TreeRelation {
    /// The generalization tree (R-tree, cartographic hierarchy, balanced
    /// k-ary tree, …), shared with the `RTree` that maintains it, if any.
    pub tree: Arc<GenTree>,
    /// Its storage mapping.
    pub paged: PagedTree,
    /// Flattened child-MBR snapshot for batched mask probes. Built
    /// together with the tree — a `TreeRelation` value is immutable, so
    /// the snapshot never goes stale; incremental maintenance produces a
    /// *new* `TreeRelation` via [`TreeRelation::try_evolve`].
    pub flat: FlatChildren,
}

impl TreeRelation {
    /// Stores `tree` with the given record size and layout.
    ///
    /// # Panics
    ///
    /// Panics on a storage fault during the load — this constructor and
    /// [`TreeRelation::new_compressed`] run on a pool the caller has just
    /// created, before any injector is armed. A build that must survive
    /// faults assembles the relation from [`PagedTree::try_build`].
    pub fn new(
        pool: &mut BufferPool,
        tree: impl Into<Arc<GenTree>>,
        record_size: usize,
        layout: Layout,
    ) -> Self {
        Self::store(pool, tree.into(), record_size, layout, CodecMode::Exact)
    }

    /// Stores `tree` with v2 quantized node records sized to the tree's
    /// own maximum frame ([`PagedTree::quant_record_size`]), but never
    /// below `min_record_size` (pass 0 for pure auto-sizing; services
    /// that evolve the tree pass their mutation-guard bound so appended
    /// nodes always fit): same match sets from every tree executor,
    /// fewer pages and physical reads per traversal. Panics as
    /// [`TreeRelation::new`] does.
    pub fn new_compressed(
        pool: &mut BufferPool,
        tree: impl Into<Arc<GenTree>>,
        min_record_size: usize,
        layout: Layout,
    ) -> Self {
        let tree = tree.into();
        let record_size = PagedTree::quant_record_size(&tree).max(min_record_size);
        Self::store(pool, tree, record_size, layout, CodecMode::Quantized)
    }

    fn store(
        pool: &mut BufferPool,
        tree: Arc<GenTree>,
        record_size: usize,
        layout: Layout,
        mode: CodecMode,
    ) -> Self {
        let cluster = ClusterOrder::BreadthFirst;
        let paged = PagedTree::try_build(pool, &tree, record_size, layout, cluster, mode)
            .unwrap_or_else(|e| panic!("stored tree build failed: {e}")); // PANIC-OK: see new
        let flat = FlatChildren::build(&tree);
        TreeRelation { tree, paged, flat }
    }

    /// True when node records are stored as v2 quantized frames.
    pub fn is_compressed(&self) -> bool {
        self.paged.mode == CodecMode::Quantized
    }

    /// Produces the storage mapping of `next` — the same tree after a
    /// batch of incremental inserts/deletes — from `dirty`, the arena
    /// slots the batch wrote (`RTree::take_dirty`: ascending, a superset
    /// of the slots that changed), instead of rebuilding the file or
    /// walking either tree. Arena slots are stable across R-tree
    /// mutations, so each dirty slot is one of four cases, told apart
    /// against this relation's tree (storage was laid out from it):
    ///
    /// * live here, dead in `next` → the record's page slot is cleared
    ///   (one charged write),
    /// * live in both with identical logical content (same entry, or
    ///   same directory MBR) → written, not changed: zero I/O,
    /// * live in both but changed → rewritten in place (one charged
    ///   write; a frame fits its slot width, so in-place is always legal),
    /// * new in `next` → appended to the file.
    ///
    /// I/O and CPU are O(`dirty`): directories and flat snapshot are
    /// cloned chunk-shared and patched at the dirty slots; `next` is shared
    /// with the caller, not copied. Slots are visited in ascending order,
    /// so the page touch sequence is a function of the two trees alone.
    /// On error the underlying pool may have absorbed partial writes —
    /// callers commit against a forked view and discard it on failure.
    pub fn try_evolve(
        &self,
        pool: &mut BufferPool,
        next: Arc<GenTree>,
        dirty: &[NodeId],
    ) -> Result<TreeRelation, StorageError> {
        let mut file = self.paged.file.clone();
        let mut record = self.paged.record.clone();
        let mode = self.paged.mode;
        // Rewritten and appended frames must fit the file's own slot
        // width (for a compressed tree that width was derived from the
        // tree at build).
        let record_size = self.paged.file.record_size();
        // Evolution preserves the relation's codec mode record for record.
        let encode = |node: NodeId| encode_node(&next, node, record_size, mode);

        for &node in dirty {
            let slot = node.index();
            match (self.tree.is_live(node), next.is_live(node)) {
                // Died: clear the record.
                (true, false) => {
                    let rid = record[slot];
                    pool.try_update(rid.page, |p| p.remove(rid.slot))?;
                }
                // New: append.
                (false, true) => {
                    let idx = file.try_append(pool, encode(node))?;
                    while slot >= record.len() {
                        record.push(file.rid(0));
                    }
                    *record.get_mut(slot) = file.rid(idx);
                }
                (true, true) => {
                    let unchanged = match (self.tree.entry(node), next.entry(node)) {
                        (Some(a), Some(b)) => a == b,
                        (None, None) => self.tree.mbr(node) == next.mbr(node),
                        _ => false,
                    };
                    if !unchanged {
                        let rid = record[slot];
                        pool.try_update(rid.page, |p| p.update(rid.slot, encode(node)))?;
                    }
                }
                // Allocated and released inside the batch: never stored.
                (false, false) => {}
            }
        }

        let mut flat = self.flat.clone();
        flat.patch(&next, dirty);
        Ok(TreeRelation {
            flat,
            paged: PagedTree { file, record, mode },
            tree: next,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_gentree::balanced::build_balanced;
    use sj_geom::{Point, QKind, Rect};
    use sj_obs::TraceSink;
    use sj_storage::{Disk, DiskConfig};

    fn pool() -> BufferPool {
        BufferPool::new(Disk::new(DiskConfig::paper()), 64)
    }

    /// Exact records in breadth-first order.
    fn build(p: &mut BufferPool, tree: &GenTree, layout: Layout) -> PagedTree {
        let (cluster, mode) = (ClusterOrder::BreadthFirst, CodecMode::Exact);
        PagedTree::try_build(p, tree, 300, layout, cluster, mode).unwrap()
    }

    /// The round trip of a stored node: a charged record read through
    /// the pool, decoded. Under [`CodecMode::Quantized`], extended
    /// geometries come back as their MBR ([`Geometry::Rect`]) — the
    /// conservative content of the v2 frame; exact content lives in the
    /// in-memory tree.
    fn touch(pt: &PagedTree, pool: &mut BufferPool, node: NodeId) -> (u64, Geometry) {
        let bytes = pool
            .try_read_record(&pt.file, pt.record[node.index()])
            .unwrap();
        match pt.mode {
            CodecMode::Exact => codec::try_decode_record(bytes).unwrap(),
            CodecMode::Quantized => {
                let (id, q) = codec::try_decode_qrecord(bytes).unwrap();
                let g = match q.kind() {
                    QKind::Point => Geometry::Point(q.rect().lo),
                    _ => Geometry::Rect(q.rect()),
                };
                (id, g)
            }
        }
    }

    #[test]
    fn roundtrips_node_contents() {
        let mut p = pool();
        let tree = build_balanced(3, 2, Rect::from_bounds(0.0, 0.0, 9.0, 9.0));
        let pt = build(&mut p, &tree, Layout::Clustered);
        for node in tree.bfs_order() {
            let (id, g) = touch(&pt, &mut p, node);
            let e = tree
                .entry(node)
                .expect("balanced trees have entries everywhere");
            assert_eq!(id, e.id);
            assert_eq!(&g, &e.geometry);
        }
    }

    #[test]
    fn clustered_bfs_sweep_is_sequential() {
        let mut p = pool();
        let tree = build_balanced(4, 3, Rect::from_bounds(0.0, 0.0, 64.0, 64.0));
        let pt = build(&mut p, &tree, Layout::Clustered);
        p.clear();
        p.reset_stats();
        for node in tree.bfs_order() {
            touch(&pt, &mut p, node);
        }
        // A BFS sweep over a clustered tree touches each page exactly once.
        assert_eq!(p.stats().physical_reads as usize, pt.page_count());
    }

    #[test]
    fn unclustered_bfs_sweep_thrashes_with_tiny_pool() {
        let tree = build_balanced(4, 3, Rect::from_bounds(0.0, 0.0, 64.0, 64.0));
        let mut p = BufferPool::new(Disk::new(DiskConfig::paper()), 4);
        let pt = build(&mut p, &tree, Layout::Unclustered { seed: 11 });
        p.clear();
        p.reset_stats();
        for node in tree.bfs_order() {
            touch(&pt, &mut p, node);
        }
        assert!(
            p.stats().physical_reads as usize > pt.page_count(),
            "random placement with a tiny pool must exceed one read per page"
        );
    }

    #[test]
    fn dfs_clustering_favors_dfs_sweeps() {
        let tree = build_balanced(4, 4, Rect::from_bounds(0.0, 0.0, 256.0, 256.0));
        // Tiny pool: only matching traversal order stays sequential.
        let mut p = BufferPool::new(Disk::new(DiskConfig::paper()), 2);
        let (cluster, mode) = (ClusterOrder::DepthFirst, CodecMode::Exact);
        let pt =
            PagedTree::try_build(&mut p, &tree, 300, Layout::Clustered, cluster, mode).unwrap();
        p.clear();
        p.reset_stats();
        for node in tree.dfs_order() {
            touch(&pt, &mut p, node);
        }
        let dfs_reads = p.stats().physical_reads;
        assert_eq!(
            dfs_reads as usize,
            pt.page_count(),
            "DFS sweep is sequential"
        );

        p.clear();
        p.reset_stats();
        for node in tree.bfs_order() {
            touch(&pt, &mut p, node);
        }
        let bfs_reads = p.stats().physical_reads;
        assert!(
            bfs_reads > dfs_reads,
            "BFS over DFS-clustered storage must thrash: {bfs_reads} vs {dfs_reads}"
        );
    }

    #[test]
    fn evolve_matches_fresh_build_with_batch_bounded_io() {
        use sj_gentree::rtree::{RTree, RTreeConfig};

        let mut p = pool();
        let entries: Vec<(u64, Geometry)> = (0..200u64)
            .map(|i| {
                let x = (i % 20) as f64 * 3.0;
                let y = (i / 20) as f64 * 3.0;
                (i, Geometry::Point(Point::new(x, y)))
            })
            .collect();
        let mut rt = RTree::bulk_load(RTreeConfig::with_fanout(8), entries);
        let rel = TreeRelation::new(&mut p, rt.shared_tree().clone(), 300, Layout::Clustered);

        // A small batch of structural mutations.
        rt.insert(500, Geometry::Point(Point::new(1.5, 1.5)));
        rt.remove(7);
        rt.remove(8);
        rt.insert(501, Geometry::Point(Point::new(40.0, 2.0)));
        rt.check_invariants();

        let before = p.stats();
        let dirty = rt.take_dirty();
        let evolved = rel
            .try_evolve(&mut p, rt.shared_tree().clone(), &dirty)
            .unwrap();
        let delta = p.stats().since(&before);
        assert!(Arc::ptr_eq(&evolved.tree, rt.shared_tree()), "one GenTree");

        // Every live node of the new tree round-trips through storage.
        for node in rt.tree().iter_live() {
            let (id, g) = touch(&evolved.paged, &mut p, node);
            match rt.tree().entry(node) {
                Some(e) => {
                    assert_eq!(id, e.id);
                    assert_eq!(&g, &e.geometry);
                }
                None => {
                    assert_eq!(id, DIRECTORY_ID);
                    assert_eq!(g, Geometry::Rect(rt.tree().mbr(node)));
                }
            }
        }
        assert_eq!(evolved.tree.entry_nodes().len(), 200);
        // The diff touches O(batch · height) records, nowhere near the
        // ~229 writes a fresh build pays.
        assert!(
            delta.physical_writes < 60,
            "evolve wrote {} pages/records, expected a batch-bounded diff",
            delta.physical_writes
        );
    }

    /// The evolve visits the dirty slots in ascending order, so the
    /// sequence of page touches — and, on a pool too small to hold them
    /// all, every I/O counter — is a function of the two trees alone.
    #[test]
    fn evolve_io_is_deterministic() {
        use sj_gentree::rtree::{RTree, RTreeConfig};

        let mut p = pool();
        let entries: Vec<(u64, Geometry)> = (0..300u64)
            .map(|i| {
                let (x, y) = ((i % 20) as f64 * 3.0, (i / 20) as f64 * 3.0);
                (i, Geometry::Point(Point::new(x, y)))
            })
            .collect();
        let mut rt = RTree::bulk_load(RTreeConfig::with_fanout(6), entries);
        let rel = TreeRelation::new(&mut p, rt.shared_tree().clone(), 300, Layout::Clustered);
        for i in 0..40u64 {
            rt.remove(i * 7);
            let at = Point::new((i * 13 % 60) as f64 + 0.5, (i * 29 % 45) as f64 + 0.5);
            rt.insert(1_000 + i, Geometry::Point(at));
        }

        let dirty = rt.take_dirty();
        let runs: Vec<_> = (0..8)
            .map(|_| {
                let mut view = p.fork_view(4);
                rel.try_evolve(&mut view, rt.shared_tree().clone(), &dirty)
                    .unwrap();
                view.stats()
            })
            .collect();
        assert!(runs[0].physical_writes > 0);
        assert!(
            runs.iter().all(|io| *io == runs[0]),
            "same trees, same pool, different I/O: {runs:?}"
        );
    }

    /// What a node's stored record must decode to under `mode`.
    fn stored_content(tree: &GenTree, node: NodeId, mode: CodecMode) -> (u64, Geometry) {
        match tree.entry(node) {
            None => (DIRECTORY_ID, Geometry::Rect(tree.mbr(node))),
            Some(e) => match (&e.geometry, mode) {
                (Geometry::Point(_), _) | (_, CodecMode::Exact) => (e.id, e.geometry.clone()),
                (g, CodecMode::Quantized) => (e.id, Geometry::Rect(sj_geom::Bounded::mbr(g))),
            },
        }
    }

    /// Chains of random batches, each evolved from the R-tree's dirty
    /// slots alone, on exact and quantized trees: storage, flat snapshot
    /// and charged writes must be what a look at every slot would give.
    #[test]
    fn evolve_from_dirty_slots_matches_a_whole_tree_diff() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use sj_gentree::rtree::{RTree, RTreeConfig};
        use sj_geom::{MaskFilter, Polygon};

        for mode in [CodecMode::Exact, CodecMode::Quantized] {
            let mut rng = StdRng::seed_from_u64(0xE701);
            let shape = |rng: &mut StdRng| {
                let c = Point::new(rng.random_range(0.0..60.0), rng.random_range(0.0..60.0));
                match rng.random_range(0..3) {
                    0 => Geometry::Point(c),
                    _ => Geometry::Polygon(Polygon::regular(c, rng.random_range(0.5..2.0), 6)),
                }
            };
            let mut p = pool();
            let mut live: Vec<u64> = (0..150).collect();
            let entries = live.iter().map(|&id| (id, shape(&mut rng))).collect();
            let mut rt = RTree::bulk_load(RTreeConfig::with_fanout(5), entries);
            let tree = rt.shared_tree().clone();
            let mut rel = match mode {
                CodecMode::Exact => TreeRelation::new(&mut p, tree, 300, Layout::Clustered),
                CodecMode::Quantized => {
                    TreeRelation::new_compressed(&mut p, tree, 160, Layout::Clustered)
                }
            };
            let mut next_id = 1_000;
            for round in 0..12 {
                for _ in 0..rng.random_range(1..9usize) {
                    // Rounds alternate between shrinking and growing so
                    // slots die, are recycled and are appended.
                    if live.len() > 20 && rng.random_range(0..3) < 1 + round % 2 {
                        rt.remove(live.swap_remove(rng.random_range(0..live.len())));
                    } else {
                        rt.insert(next_id, shape(&mut rng));
                        live.push(next_id);
                        next_id += 1;
                    }
                }
                let dirty = rt.take_dirty();
                let next = rt.shared_tree().clone();
                // Every slot live in either tree, looked at one by one.
                let mut slots: Vec<NodeId> = rel.tree.iter_live().chain(next.iter_live()).collect();
                slots.sort_unstable();
                slots.dedup();
                let logical = |t: &GenTree, n| (t.entry(n).cloned(), t.mbr(n));
                let changed = slots
                    .iter()
                    .filter(|&&n| match (rel.tree.is_live(n), next.is_live(n)) {
                        (true, true) => logical(&rel.tree, n) != logical(&next, n),
                        (old, new) => old != new,
                    })
                    .count();

                let before = p.stats();
                let evolved = rel.try_evolve(&mut p, next.clone(), &dirty).unwrap();
                let writes = p.stats().since(&before).physical_writes;
                assert_eq!(
                    writes as usize, changed,
                    "{mode:?} round {round}: charged writes"
                );
                // Records are stored at their frame length: the pages
                // hold exactly the live nodes' frames.
                let frame_len = |n| match (next.entry(n), mode) {
                    (Some(e), CodecMode::Exact) => codec::encoded_len(&e.geometry),
                    (Some(e), CodecMode::Quantized) => codec::encoded_qlen(&e.geometry),
                    (None, _) => codec::encoded_len(&Geometry::Rect(next.mbr(n))),
                };
                assert_eq!(
                    crate::relation::stored_bytes(&mut p, &evolved.paged.file),
                    next.iter_live().map(frame_len).sum::<usize>(),
                    "{mode:?} round {round}: resident bytes"
                );
                assert!(
                    changed > 0 && dirty.len() < slots.len() / 2,
                    "a batch, not the tree"
                );

                let fresh = FlatChildren::build(&next);
                let probe = Rect::from_bounds(10.0, 10.0, 45.0, 40.0);
                for node in next.iter_live() {
                    assert_eq!(
                        touch(&evolved.paged, &mut p, node),
                        stored_content(&next, node, mode)
                    );
                    let verdicts = |flat: &FlatChildren| {
                        let mut out = Vec::new();
                        flat.probe_children(node, &probe, MaskFilter::Overlap, |c, v| {
                            out.push((c, v))
                        });
                        out
                    };
                    assert_eq!(verdicts(&evolved.flat), verdicts(&fresh));
                }
                rel = evolved;
            }
        }
    }

    #[test]
    fn quantized_tree_shrinks_storage_and_preserves_join_results() {
        use crate::tree_join::tree_join;
        use sj_gentree::rtree::{RTree, RTreeConfig};
        use sj_geom::{Polygon, ThetaOp};

        let mk = |off: f64, id0: u64| -> Vec<(u64, Geometry)> {
            (0..90u64)
                .map(|i| {
                    let c = Point::new((i % 10) as f64 * 4.0 + off, (i / 10) as f64 * 4.0);
                    (id0 + i, Geometry::Polygon(Polygon::regular(c, 1.5, 16)))
                })
                .collect()
        };
        let mut p = pool();
        let rt = RTree::bulk_load(RTreeConfig::with_fanout(8), mk(0.0, 0));
        let st = RTree::bulk_load(RTreeConfig::with_fanout(8), mk(1.3, 1_000));

        let re = TreeRelation::new(&mut p, rt.tree().clone(), 300, Layout::Clustered);
        let se = TreeRelation::new(&mut p, st.tree().clone(), 300, Layout::Clustered);
        let rq = TreeRelation::new_compressed(&mut p, rt.tree().clone(), 0, Layout::Clustered);
        let sq = TreeRelation::new_compressed(&mut p, st.tree().clone(), 0, Layout::Clustered);
        assert!(rq.is_compressed() && !re.is_compressed());
        assert!(
            rq.paged.page_count() < re.paged.page_count(),
            "quantized frames must shrink the stored tree: {} vs {}",
            rq.paged.page_count(),
            re.paged.page_count()
        );

        // Quantized touch: same id, conservative (MBR) content.
        for node in rt.tree().bfs_order() {
            let (id, g) = touch(&rq.paged, &mut p, node);
            match rt.tree().entry(node) {
                Some(e) => {
                    assert_eq!(id, e.id);
                    assert_eq!(g, Geometry::Rect(sj_geom::Bounded::mbr(&e.geometry)));
                }
                None => assert_eq!(id, DIRECTORY_ID),
            }
        }

        // Identical match sets; the compressed traversal reads fewer
        // pages (clustered BFS touches each page once).
        let theta = ThetaOp::WithinDistance(1.0);
        p.clear();
        p.reset_stats();
        let exact = tree_join(&mut p, &re, &se, theta, &mut TraceSink::Null).unwrap();
        p.clear();
        p.reset_stats();
        let quant = tree_join(&mut p, &rq, &sq, theta, &mut TraceSink::Null).unwrap();
        let (mut a, mut b) = (exact.pairs.clone(), quant.pairs.clone());
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert_eq!(exact.stats.theta_evals, quant.stats.theta_evals);
        assert!(
            quant.stats.physical_reads < exact.stats.physical_reads,
            "compressed tree pages must cut traversal I/O: {} vs {}",
            quant.stats.physical_reads,
            exact.stats.physical_reads
        );
    }

    #[test]
    fn directory_nodes_store_their_mbr() {
        let mut p = pool();
        let mut tree = GenTree::new(Rect::from_bounds(0.0, 0.0, 10.0, 10.0), None);
        tree.add_child(
            tree.root(),
            Rect::from_point(Point::new(1.0, 1.0)),
            Some(sj_gentree::Entry {
                id: 3,
                geometry: Geometry::Point(Point::new(1.0, 1.0)),
            }),
        );
        let pt = build(&mut p, &tree, Layout::Clustered);
        let (id, g) = touch(&pt, &mut p, tree.root());
        assert_eq!(id, u64::MAX);
        assert_eq!(g, Geometry::Rect(Rect::from_bounds(0.0, 0.0, 10.0, 10.0)));
    }
}
