//! Strategy III: join indices (Valduriez 1987) on a B⁺-tree.
//!
//! A join index is "a two-column relation that stores the tuple IDs of
//! matching tuples" (§2.1). Building it precomputes the full θ-join;
//! afterwards a join is a scan of the index plus tuple fetches, and a
//! selection is a prefix range-scan. The price is maintenance: every
//! insertion into either relation must be θ-checked against the entire
//! other relation (`U_III`, §4.2).
//!
//! Index pages are modelled by the B⁺-tree's nodes (order `z`, the model's
//! entries-per-page); every node visit is charged as one page read.

use sj_btree::BPlusTree;
use sj_geom::{Geometry, ThetaOp};
use sj_obs::{Phase, PhaseTimer, TraceSink};
use sj_storage::{BufferPool, StorageError};

use crate::relation::StoredRelation;
use crate::stats::{ExecStats, JoinRun};

/// A persistent, incrementally maintained join index for `R ⋈_θ S`.
#[derive(Debug)]
pub struct JoinIndex {
    /// `(r_id, s_id)` pairs in lexicographic order.
    forward: BPlusTree<(u64, u64), ()>,
    theta: ThetaOp,
}

impl JoinIndex {
    /// Precomputes the join index by θ-testing all pairs. Returns the
    /// index and the (substantial) build cost: a nested-loop pass priced
    /// in θ-evaluations, data-page reads, and index-page writes. The
    /// first storage fault during the build scans aborts with a typed
    /// error (no partially built index).
    pub fn try_build(
        pool: &mut BufferPool,
        r: &StoredRelation,
        s: &StoredRelation,
        theta: ThetaOp,
        z: usize,
    ) -> Result<(Self, ExecStats), StorageError> {
        let before = pool.stats();
        let mut stats = ExecStats::default();
        let mut forward = BPlusTree::new(z);
        let r_rows = r.try_scan(pool)?;
        let s_rows = s.try_scan(pool)?;
        for (r_id, r_geom) in &r_rows {
            for (s_id, s_geom) in &s_rows {
                stats.theta_evals += 1;
                if theta.eval(r_geom, s_geom) {
                    forward.insert((*r_id, *s_id), ());
                }
            }
        }
        stats.add_io(pool.stats().since(&before));
        // Index construction I/O: one write per node built.
        stats.physical_writes += forward.node_count() as u64;
        forward.reset_accesses();
        Ok((JoinIndex { forward, theta }, stats))
    }

    /// Number of index entries (the model's `J`).
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True if no pairs are indexed.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Height of the underlying B⁺-tree (the model's `d`).
    pub fn height(&self) -> usize {
        self.forward.height()
    }

    /// The θ-operator this index materializes.
    pub fn theta(&self) -> ThetaOp {
        self.theta
    }

    /// Computes the full join from the index: read the index (leaf chain)
    /// and fetch every matching tuple pair through the pool.
    ///
    /// Index node accesses are the `index-probe` phase, tuple fetches the
    /// `refine` phase (strategy III does zero comparison work at query
    /// time). Fail-stop: the first storage fault aborts the run with a
    /// typed error.
    pub fn join(
        &self,
        pool: &mut BufferPool,
        r: &StoredRelation,
        s: &StoredRelation,
        trace: &mut TraceSink,
    ) -> Result<JoinRun, StorageError> {
        let mut timer = PhaseTimer::for_sink(trace);
        timer.enter(Phase::IndexProbe);
        let window = pool.stats();
        self.forward.reset_accesses();
        let mut run = JoinRun::default();
        timer.enter(Phase::Refine);
        let mut refine = ExecStats::default();
        for ((r_id, s_id), ()) in self.forward.iter_all() {
            // Fetch the joined tuples — the buffer pool plays the role of
            // the model's (M − 10)-page memory window.
            let _ = r.try_read_by_id(pool, r_id)?;
            let _ = s.try_read_by_id(pool, s_id)?;
            run.pairs.push((r_id, s_id));
        }
        refine.add_io(pool.stats().since(&window));
        timer.stop();
        run.phases.record(
            Phase::IndexProbe,
            ExecStats {
                physical_reads: self.forward.accesses(),
                passes: 1,
                ..Default::default()
            },
        );
        run.phases.record(Phase::Refine, refine);
        run.seal("join_index", &timer, trace);
        Ok(run)
    }

    /// Maintenance for an insertion into `R`: the new tuple must be
    /// θ-checked against every tuple of `S` (`U_III` with `T = |S|`). A
    /// storage fault during the scan of `S` leaves the index unchanged.
    pub fn maintain_insert_r(
        &mut self,
        pool: &mut BufferPool,
        r_id: u64,
        r_geom: &Geometry,
        s: &StoredRelation,
    ) -> Result<ExecStats, StorageError> {
        let before = pool.stats();
        let mut stats = ExecStats::default();
        self.forward.reset_accesses();
        let mut inserts = 0u64;
        for (s_id, s_geom) in s.try_scan(pool)? {
            stats.theta_evals += 1;
            if self.theta.eval(r_geom, &s_geom) {
                self.forward.insert((r_id, s_id), ());
                inserts += 1;
            }
        }
        stats.add_io(pool.stats().since(&before));
        // Index-page writes: approximate one write per touched node.
        stats.physical_writes += self.forward.accesses().min(inserts * self.height() as u64);
        Ok(stats)
    }

    /// Maintenance for a deletion from `R`: drop all pairs with this id.
    pub fn maintain_delete_r(&mut self, r_id: u64) -> usize {
        let doomed: Vec<(u64, u64)> = self
            .forward
            .range(&(r_id, 0), &(r_id, u64::MAX))
            .into_iter()
            .map(|(k, ())| k)
            .collect();
        for k in &doomed {
            self.forward.remove(k);
        }
        doomed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested_loop::nested_loop_join;
    use sj_geom::Point;
    use sj_storage::{Disk, DiskConfig, Layout};

    fn pool() -> BufferPool {
        BufferPool::new(Disk::new(DiskConfig::paper()), 64)
    }

    fn grid_rel(pool: &mut BufferPool, n: usize, step: f64, id0: u64) -> StoredRelation {
        let tuples: Vec<(u64, Geometry)> = (0..n * n)
            .map(|i| {
                (
                    id0 + i as u64,
                    Geometry::Point(Point::new((i % n) as f64 * step, (i / n) as f64 * step)),
                )
            })
            .collect();
        StoredRelation::build(pool, &tuples, 300, Layout::Clustered)
    }

    /// The `S` ids the index pairs with `r_id`, read through the join.
    fn partners_of(
        idx: &JoinIndex,
        p: &mut BufferPool,
        r: &StoredRelation,
        s: &StoredRelation,
        r_id: u64,
    ) -> Vec<u64> {
        let run = idx.join(p, r, s, &mut TraceSink::Null).unwrap();
        let of_r = run.pairs.iter().filter(|(a, _)| *a == r_id);
        of_r.map(|(_, b)| *b).collect()
    }

    #[test]
    fn indexed_join_equals_nested_loop() {
        let mut p = pool();
        let r = grid_rel(&mut p, 6, 10.0, 0);
        let s = grid_rel(&mut p, 6, 10.0, 500);
        let theta = ThetaOp::WithinDistance(10.5);
        let (idx, build_stats) = JoinIndex::try_build(&mut p, &r, &s, theta, 16).unwrap();
        assert_eq!(build_stats.theta_evals, 36 * 36);

        let mut got = idx
            .join(&mut p, &r, &s, &mut TraceSink::Null)
            .unwrap()
            .pairs;
        got.sort_unstable();
        let mut want = nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null)
            .unwrap()
            .pairs;
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn join_from_index_needs_no_theta_evals() {
        let mut p = pool();
        let r = grid_rel(&mut p, 5, 10.0, 0);
        let s = grid_rel(&mut p, 5, 10.0, 500);
        let (idx, _) =
            JoinIndex::try_build(&mut p, &r, &s, ThetaOp::WithinDistance(10.5), 16).unwrap();
        let run = idx.join(&mut p, &r, &s, &mut TraceSink::Null).unwrap();
        assert_eq!(
            run.stats.theta_evals, 0,
            "strategy III does no θ work at query time"
        );
        assert!(run.stats.physical_reads > 0);
    }

    #[test]
    fn maintenance_insert_updates_index() {
        let mut p = pool();
        let mut r = grid_rel(&mut p, 4, 10.0, 0);
        let s = grid_rel(&mut p, 4, 10.0, 500);
        let theta = ThetaOp::WithinDistance(0.5);
        let (mut idx, _) = JoinIndex::try_build(&mut p, &r, &s, theta, 8).unwrap();
        let before_len = idx.len();
        // A new R tuple exactly on top of S tuple 505 (grid cell (1, 1)).
        let g = Geometry::Point(Point::new(10.0, 10.0));
        r.try_insert(&mut p, 99, &g).unwrap();
        let stats = idx.maintain_insert_r(&mut p, 99, &g, &s).unwrap();
        assert_eq!(stats.theta_evals, 16, "must θ-check all of S");
        assert_eq!(idx.len(), before_len + 1);
        assert_eq!(partners_of(&idx, &mut p, &r, &s, 99), vec![505]);
    }

    #[test]
    fn maintenance_delete_removes_pairs() {
        let mut p = pool();
        let r = grid_rel(&mut p, 4, 10.0, 0);
        let s = grid_rel(&mut p, 4, 10.0, 500);
        let (mut idx, _) =
            JoinIndex::try_build(&mut p, &r, &s, ThetaOp::WithinDistance(10.5), 8).unwrap();
        let victim = 5u64;
        let had = partners_of(&idx, &mut p, &r, &s, victim).len();
        assert!(had > 0);
        assert_eq!(idx.maintain_delete_r(victim), had);
        assert!(partners_of(&idx, &mut p, &r, &s, victim).is_empty());
    }

    #[test]
    fn build_bears_all_theta_cost() {
        // The §4 trade-off in miniature: precomputation is a full nested
        // loop; the query does zero comparison work and touches at most
        // the index plus the data pages of the matching tuples.
        let mut p = pool();
        let r = grid_rel(&mut p, 6, 10.0, 0);
        let s = grid_rel(&mut p, 6, 10.0, 500);
        let (idx, build) =
            JoinIndex::try_build(&mut p, &r, &s, ThetaOp::WithinDistance(0.5), 16).unwrap();
        p.clear();
        p.reset_stats();
        let query = idx.join(&mut p, &r, &s, &mut TraceSink::Null).unwrap();
        assert_eq!(build.theta_evals, 36 * 36);
        assert_eq!(query.stats.theta_evals, 0);
        let data_pages = (r.page_count() + s.page_count()) as u64;
        let index_pages = idx.len().div_ceil(16) as u64 + idx.height() as u64;
        assert!(
            query.stats.physical_reads <= data_pages + index_pages + 2,
            "query reads {} exceed data {} + index {}",
            query.stats.physical_reads,
            data_pages,
            index_pages
        );
    }
}
