//! A maintained spatial side: a relation, its R-tree and the paged tree
//! over the R-tree's `GenTree`, changed in one order — strategy II keeps
//! its tree maintained under updates (§4.2's `U_II`). `sj-service`'s
//! snapshots and `sj-rel`'s spatial columns both hold their sides as an
//! [`IndexedRelation`].

use std::sync::Arc;

use sj_gentree::rtree::{RTree, RTreeConfig};
use sj_geom::{Bounded, Geometry, Rect};
use sj_storage::{BufferPool, Layout, StorageError};

use crate::mutation::{Mutation, MutationOutcome};
use crate::paged_tree::{ClusterOrder, CodecMode, PagedTree, TreeRelation};
use crate::relation::StoredRelation;

/// One side of a spatial join that takes writes: built once
/// ([`try_build`](Self::try_build)), written per mutation
/// ([`try_apply`](Self::try_apply)), its paged tree brought up to date
/// once per batch ([`try_publish`](Self::try_publish)).
#[derive(Debug, Clone)]
pub struct IndexedRelation {
    rel: StoredRelation,
    /// The live-id authority; it shares its `GenTree` with `tree`.
    index: RTree,
    /// Behind an `Arc`, so copying a side copies none of its directories.
    tree: Arc<TreeRelation>,
    /// Union MBR of the old and new extents applied since the last publish.
    touched: Option<Rect>,
}

impl IndexedRelation {
    /// Lays `tuples` out as [`StoredRelation::build`] (clustered),
    /// [`RTree::bulk_load`] (fan-out `fanout`) and [`TreeRelation::new`]
    /// (placed per `layout`) do — or [`TreeRelation::new_compressed`] with
    /// `quantized: Some(least v2 record size)` — but returns the first
    /// storage fault, and panics only where `StoredRelation::build` does.
    pub fn try_build(
        pool: &mut BufferPool,
        tuples: &[(u64, Geometry)],
        record_size: usize,
        fanout: usize,
        layout: Layout,
        quantized: Option<usize>,
    ) -> Result<Self, StorageError> {
        let rel = StoredRelation::try_load(pool, tuples, record_size, Layout::Clustered)?;
        let index = RTree::bulk_load(RTreeConfig::with_fanout(fanout), tuples.to_vec());
        let tree = Arc::clone(index.shared_tree());
        let least_v2 = quantized.map(|v2| PagedTree::quant_record_size(&tree).max(v2));
        let (size, mode) = match least_v2 {
            Some(v2) => (v2, CodecMode::Quantized),
            None => (record_size, CodecMode::Exact),
        };
        let bfs = ClusterOrder::BreadthFirst;
        let tree = TreeRelation::try_store(pool, tree, size, layout, bfs, mode)?;
        Ok(IndexedRelation {
            rel,
            index,
            tree: Arc::new(tree),
            touched: None,
        })
    }

    /// The relation the flat strategies scan.
    pub fn rel(&self) -> &StoredRelation {
        &self.rel
    }

    /// The paged tree the tree strategies traverse, as of the last publish.
    pub fn tree(&self) -> &TreeRelation {
        &self.tree
    }

    /// The old and new extents applied since the last publish, if any.
    pub fn touched(&self) -> Option<Rect> {
        self.touched
    }

    /// Applies `op` unless [`Mutation::outcome`] rejects it (presence is
    /// the R-tree's, `too_large` the caller's size test): the relation is
    /// written first — an append, an order-preserving delete, or an
    /// in-place replace for an upsert of a live id — then the R-tree
    /// (remove the old entry, insert the new). A fault leaves the side
    /// unchanged.
    pub fn try_apply(
        &mut self,
        pool: &mut BufferPool,
        op: &Mutation,
        too_large: bool,
    ) -> Result<MutationOutcome, StorageError> {
        let id = op.id();
        let old = self.index.get(id).map(Bounded::mbr);
        let outcome = op.outcome(old.is_some(), too_large);
        if !outcome.applied() {
            return Ok(outcome);
        }
        match (op.value(), old) {
            (None, _) => self.rel.try_delete(pool, id).map(drop)?,
            (Some(value), Some(_)) => self.rel.try_replace(pool, id, value)?,
            (Some(value), None) => self.rel.try_insert(pool, id, value)?,
        }
        if old.is_some() {
            self.index.remove(id);
        }
        let new = op.value().map(|value| {
            self.index.insert(id, value.clone());
            value.mbr()
        });
        let extents = [self.touched, old, new].into_iter().flatten();
        self.touched = extents.reduce(|a, b| a.union(&b));
        Ok(outcome)
    }

    /// Evolves the paged tree from the arena slots the R-tree wrote since
    /// the last publish ([`RTree::take_dirty`],
    /// [`TreeRelation::try_evolve`]) and returns how many it examined; a
    /// side nothing changed does nothing. After a fault the side is
    /// half-published, for its holder to discard.
    pub fn try_publish(&mut self, pool: &mut BufferPool) -> Result<usize, StorageError> {
        if self.touched.take().is_none() {
            return Ok(0);
        }
        let dirty = self.index.take_dirty();
        let next = Arc::clone(self.index.shared_tree());
        self.tree = Arc::new(self.tree.try_evolve(pool, next, &dirty)?);
        Ok(dirty.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree_join::{tree_select, TraversalOrder};
    use sj_geom::{Point, ThetaOp};
    use sj_storage::{Disk, DiskConfig};

    fn pool() -> BufferPool {
        BufferPool::new(Disk::new(DiskConfig::paper()), 64)
    }

    fn point(x: f64, y: f64) -> Geometry {
        Geometry::Point(Point::new(x, y))
    }

    fn side(pool: &mut BufferPool, n: u64) -> IndexedRelation {
        let tuples: Vec<_> = (0..n).map(|i| (i, point(i as f64, 0.0))).collect();
        IndexedRelation::try_build(pool, &tuples, 300, 4, Layout::Clustered, None).unwrap()
    }

    /// What a side answers: its relation's tuples in position order and
    /// the ids a tree SELECT of everything reaches.
    fn contents(pool: &mut BufferPool, side: &IndexedRelation) -> (Vec<(u64, Geometry)>, Vec<u64>) {
        let everything = ThetaOp::WithinDistance(1e6);
        let order = TraversalOrder::BreadthFirst;
        let hits = tree_select(pool, side.tree(), &point(0.0, 0.0), everything, order);
        let mut hits = hits.unwrap().matches;
        hits.sort_unstable();
        (side.rel().try_scan(pool).unwrap(), hits)
    }

    #[test]
    fn a_published_batch_reaches_relation_and_tree() {
        let mut p = pool();
        let mut side = side(&mut p, 20);
        // One `GenTree` per side: the paged tree holds the R-tree's, at
        // build and after every publish.
        assert!(Arc::ptr_eq(side.index.shared_tree(), &side.tree().tree));
        let ops = [
            Mutation::Insert {
                id: 50,
                value: point(3.5, 1.0),
            },
            Mutation::Delete { id: 4 },
            Mutation::Upsert {
                id: 7,
                value: point(9.0, 9.0),
            },
            Mutation::Upsert {
                id: 60,
                value: point(-1.0, 2.0),
            },
        ];
        let outcomes: Vec<_> = ops
            .iter()
            .map(|op| side.try_apply(&mut p, op, false).unwrap())
            .collect();
        assert_eq!(
            outcomes,
            [
                MutationOutcome::Inserted,
                MutationOutcome::Deleted,
                MutationOutcome::Upserted { replaced: true },
                MutationOutcome::Upserted { replaced: false },
            ]
        );
        let touched = Rect::from_bounds(-1.0, 0.0, 9.0, 9.0);
        assert_eq!(side.touched(), Some(touched), "old and new extents");
        assert!(side.try_publish(&mut p).unwrap() > 0);
        assert_eq!(side.touched(), None);
        assert!(Arc::ptr_eq(side.index.shared_tree(), &side.tree().tree));

        let mut want: Vec<_> = (0..20)
            .filter(|&i| i != 4)
            .map(|i| (i, point(i as f64, 0.0)))
            .collect();
        want[6].1 = point(9.0, 9.0);
        want.extend([(50, point(3.5, 1.0)), (60, point(-1.0, 2.0))]);
        let mut ids: Vec<_> = want.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        assert_eq!(contents(&mut p, &side), (want, ids));
    }

    /// A rejected op writes nothing, and a side nothing changed publishes
    /// nothing: its paged tree is the same `Arc`.
    #[test]
    fn rejected_ops_write_nothing_and_publish_nothing() {
        let mut p = pool();
        let mut side = side(&mut p, 10);
        let before = (p.stats(), Arc::clone(&side.tree));
        let rejected = [
            (
                Mutation::Insert {
                    id: 3,
                    value: point(0.0, 0.0),
                },
                false,
            ),
            (Mutation::Delete { id: 99 }, false),
            (
                Mutation::Upsert {
                    id: 3,
                    value: point(0.0, 0.0),
                },
                true,
            ),
        ];
        for (op, too_large) in &rejected {
            assert!(!side.try_apply(&mut p, op, *too_large).unwrap().applied());
        }
        assert_eq!(side.touched(), None);
        assert_eq!(side.try_publish(&mut p).unwrap(), 0);
        assert_eq!(p.stats(), before.0, "no page touched");
        assert!(Arc::ptr_eq(&side.tree, &before.1));
    }
}
