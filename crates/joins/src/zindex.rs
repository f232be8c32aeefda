//! A z-value B⁺-tree index (UB-tree style) — the *index* half of
//! Orenstein's z-ordering machinery from §2.2: each object's MBR is
//! decomposed into z-elements, one `(z, id)` B⁺-tree entry per element;
//! a window query decomposes the window the same way and turns into plain
//! one-dimensional range scans.
//!
//! This rounds out the index-supported-join picture: the paper's
//! strategy II uses tree-structured *spatial* indices; this is the
//! corresponding strategy over a *one-dimensional* index on a space-
//! filling curve, the approach relational systems without spatial access
//! methods actually used.

use std::collections::HashSet;

use sj_btree::BPlusTree;
use sj_geom::{Bounded, Geometry, Rect, ThetaOp};
use sj_obs::{Phase, PhaseTimer, TraceSink};
use sj_storage::{BufferPool, StorageError};
use sj_zorder::ZGrid;

use crate::relation::StoredRelation;
use crate::stats::{ExecStats, JoinRun, SelectRun};

/// A secondary index mapping z-elements to tuple ids.
#[derive(Debug)]
pub struct ZIndex {
    grid: ZGrid,
    /// `(z_lo, id)` for each z-element; the element's `hi` is the value.
    tree: BPlusTree<(u64, u64), u64>,
    entries: usize,
}

impl ZIndex {
    /// Builds the index by scanning `rel` once and decomposing every
    /// object's MBR on `grid`. The first storage fault during the build
    /// scan aborts with a typed error (no partially built index).
    pub fn try_build(
        pool: &mut BufferPool,
        rel: &StoredRelation,
        grid: ZGrid,
        z: usize,
    ) -> Result<Self, StorageError> {
        let mut tree = BPlusTree::new(z);
        let mut entries = 0;
        for (id, g) in rel.try_scan(pool)? {
            // Aligned (uncoalesced) blocks: the candidate lookup's prefix
            // enumeration is only complete for aligned element ranges.
            for range in grid.decompose_aligned(&g.mbr()) {
                tree.insert((range.lo, id), range.hi);
                entries += 1;
            }
        }
        tree.reset_accesses();
        Ok(ZIndex {
            grid,
            tree,
            entries,
        })
    }

    /// Number of `(z-element, id)` entries (objects spanning several
    /// elements appear several times — the §2.2 duplication).
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Index height (the B⁺-tree's `d`).
    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// Candidate tuple ids whose z-elements intersect `window`'s
    /// decomposition — a superset of the ids whose MBR overlaps the
    /// window (complete by the z-element soundness property).
    pub fn candidates(&self, window: &Rect) -> Vec<u64> {
        let mut out = HashSet::new();
        let ranges = self.grid.decompose(window);
        if ranges.is_empty() {
            return Vec::new();
        }
        // An element [lo, hi] overlaps a query range [qlo, qhi] iff
        // lo ≤ qhi and hi ≥ qlo. Elements are keyed by lo; elements with
        // lo < qlo can still overlap, but only if they are *ancestral*
        // blocks containing qlo — and every aligned block containing qlo
        // has its own lo among qlo's block prefixes. Scan the key range
        // [prefix-min, qhi] which covers both cases cheaply.
        for q in &ranges {
            // Aligned ancestor blocks of q.lo start at prefixes of q.lo;
            // the smallest possible start of a block containing q.lo is 0,
            // but only blocks whose lo is one of the ⌊log₄⌋ prefixes can
            // contain it. Enumerate those exact starts.
            let mut starts: Vec<u64> = Vec::new();
            let mut size = 1u64;
            let total = self.grid.cell_count();
            while size <= total {
                starts.push(q.lo / size * size);
                size *= 4;
            }
            starts.sort_unstable();
            starts.dedup();
            for &s in &starts {
                if s == q.lo {
                    continue; // covered by the main range scan below
                }
                for ((_, id), hi) in self.tree.range(&(s, 0), &(s, u64::MAX)) {
                    if hi >= q.lo {
                        out.insert(id);
                    }
                }
            }
            // Elements starting inside the query range.
            for ((_, id), _) in self.tree.range(&(q.lo, 0), &(q.hi, u64::MAX)) {
                out.insert(id);
            }
        }
        let mut v: Vec<u64> = out.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Window selection with exact refinement: all tuples of `rel` whose
    /// geometry satisfies `o θ tuple`, for overlap-family operators whose
    /// Θ-filter is MBR overlap. Fail-stop: the first storage fault aborts
    /// the run with a typed error.
    ///
    /// # Panics
    ///
    /// Panics for non-overlap-family operators (use the generalization
    /// tree for those).
    pub fn select(
        &self,
        pool: &mut BufferPool,
        rel: &StoredRelation,
        o: &Geometry,
        theta: ThetaOp,
    ) -> Result<SelectRun, StorageError> {
        assert!(
            crate::sort_merge::supported_by_zorder(theta),
            "z-index selection supports overlap-family operators only, got {theta:?}"
        );
        let before = pool.stats();
        self.tree.reset_accesses();
        let mut run = SelectRun::default();
        for id in self.candidates(&o.mbr()) {
            let (_, g) = rel.try_read_by_id(pool, id)?;
            run.stats.theta_evals += 1;
            if theta.eval(o, &g) {
                run.matches.push(id);
            }
        }
        run.stats.add_io(pool.stats().since(&before));
        run.stats.physical_reads += self.tree.accesses();
        Ok(run)
    }

    /// Index-supported join (§2.1's "scan the other relation and use the
    /// index to find matching tuples"): scans `s`, probing this index
    /// (built on `r`) per tuple.
    ///
    /// The S-scan is the `partition` phase, B⁺-tree node accesses the
    /// `index-probe` phase, candidate fetches plus θ-tests the `refine`
    /// phase. Fail-stop: the first storage fault aborts the run with a
    /// typed error.
    ///
    /// # Panics
    ///
    /// Panics for non-overlap-family operators, like [`ZIndex::select`].
    pub fn join(
        &self,
        pool: &mut BufferPool,
        r: &StoredRelation,
        s: &StoredRelation,
        theta: ThetaOp,
        trace: &mut TraceSink,
    ) -> Result<JoinRun, StorageError> {
        assert!(
            crate::sort_merge::supported_by_zorder(theta),
            "z-index join supports overlap-family operators only, got {theta:?}"
        );
        let mut timer = PhaseTimer::for_sink(trace);
        timer.enter(Phase::Partition);
        let window = pool.stats();
        self.tree.reset_accesses();
        let mut run = JoinRun::default();
        let mut partition = ExecStats::default();
        let s_rows = s.try_scan(pool)?;
        partition.add_io(pool.stats().since(&window));

        timer.enter(Phase::Refine);
        let window = pool.stats();
        let mut refine = ExecStats::default();
        for (s_id, s_geom) in s_rows {
            for r_id in self.candidates(&s_geom.mbr()) {
                let (_, r_geom) = r.try_read_by_id(pool, r_id)?;
                refine.theta_evals += 1;
                if theta.eval(&r_geom, &s_geom) {
                    run.pairs.push((r_id, s_id));
                }
            }
        }
        run.pairs.sort_unstable();
        refine.add_io(pool.stats().since(&window));
        timer.stop();

        run.phases.record(Phase::Partition, partition);
        run.phases.record(
            Phase::IndexProbe,
            ExecStats {
                physical_reads: self.tree.accesses(),
                passes: 1,
                ..Default::default()
            },
        );
        run.phases.record(Phase::Refine, refine);
        run.seal("zindex", &timer, trace);
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested_loop::{exhaustive_select, nested_loop_join};
    use sj_geom::Point;
    use sj_storage::{Disk, DiskConfig, Layout};

    fn pool() -> BufferPool {
        BufferPool::new(Disk::new(DiskConfig::paper()), 64)
    }

    fn world() -> Rect {
        Rect::from_bounds(0.0, 0.0, 64.0, 64.0)
    }

    fn mixed_rel(pool: &mut BufferPool, id0: u64, shift: f64) -> StoredRelation {
        let mut tuples: Vec<(u64, Geometry)> = Vec::new();
        for i in 0..40u64 {
            let x = (i % 8) as f64 * 8.0 + shift;
            let y = (i / 8) as f64 * 8.0 + shift;
            if i % 3 == 0 {
                tuples.push((
                    id0 + i,
                    Geometry::Rect(Rect::from_bounds(
                        x,
                        y,
                        (x + 6.0).min(64.0),
                        (y + 6.0).min(64.0),
                    )),
                ));
            } else {
                tuples.push((
                    id0 + i,
                    Geometry::Point(Point::new(x.min(63.9), y.min(63.9))),
                ));
            }
        }
        StoredRelation::build(pool, &tuples, 300, Layout::Clustered)
    }

    #[test]
    fn select_equals_exhaustive() {
        let mut p = pool();
        let rel = mixed_rel(&mut p, 0, 0.3);
        let idx = ZIndex::try_build(&mut p, &rel, ZGrid::new(world(), 5), 16).unwrap();
        for (x0, y0, x1, y1) in [
            (0.0, 0.0, 10.0, 10.0),
            (20.0, 20.0, 45.0, 30.0),
            (0.0, 0.0, 64.0, 64.0),
            (63.0, 63.0, 64.0, 64.0),
        ] {
            let o = Geometry::Rect(Rect::from_bounds(x0, y0, x1, y1));
            let mut got = idx
                .select(&mut p, &rel, &o, ThetaOp::Overlaps)
                .unwrap()
                .matches;
            got.sort_unstable();
            let mut want = exhaustive_select(&mut p, &rel, &o, ThetaOp::Overlaps)
                .unwrap()
                .matches;
            want.sort_unstable();
            assert_eq!(got, want, "window ({x0},{y0})-({x1},{y1})");
        }
    }

    #[test]
    fn join_equals_nested_loop() {
        let mut p = pool();
        let r = mixed_rel(&mut p, 0, 0.0);
        let s = mixed_rel(&mut p, 1000, 3.0);
        let idx = ZIndex::try_build(&mut p, &r, ZGrid::new(world(), 5), 16).unwrap();
        for theta in [ThetaOp::Overlaps, ThetaOp::Includes, ThetaOp::ContainedIn] {
            let got = idx
                .join(&mut p, &r, &s, theta, &mut TraceSink::Null)
                .unwrap()
                .pairs;
            let mut want = nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null)
                .unwrap()
                .pairs;
            want.sort_unstable();
            assert_eq!(got, want, "{theta:?}");
        }
    }

    #[test]
    fn large_object_spanning_many_cells_is_found_once() {
        let mut p = pool();
        let rel = StoredRelation::build(
            &mut p,
            &[(7, Geometry::Rect(Rect::from_bounds(1.0, 1.0, 60.0, 60.0)))],
            300,
            Layout::Clustered,
        );
        let idx = ZIndex::try_build(&mut p, &rel, ZGrid::new(world(), 5), 16).unwrap();
        assert!(idx.len() > 1, "big rect spans many z-elements");
        let o = Geometry::Rect(Rect::from_bounds(30.0, 30.0, 31.0, 31.0));
        let run = idx.select(&mut p, &rel, &o, ThetaOp::Overlaps).unwrap();
        assert_eq!(run.matches, vec![7]);
        assert_eq!(run.stats.theta_evals, 1, "candidates must be deduplicated");
    }

    #[test]
    fn probe_outside_world_matches_nothing() {
        let mut p = pool();
        let rel = mixed_rel(&mut p, 0, 0.0);
        let idx = ZIndex::try_build(&mut p, &rel, ZGrid::new(world(), 5), 16).unwrap();
        let o = Geometry::Rect(Rect::from_bounds(100.0, 100.0, 110.0, 110.0));
        assert!(idx
            .select(&mut p, &rel, &o, ThetaOp::Overlaps)
            .unwrap()
            .matches
            .is_empty());
    }

    #[test]
    fn candidate_set_prunes_vs_full_scan() {
        let mut p = pool();
        let rel = mixed_rel(&mut p, 0, 0.0);
        let idx = ZIndex::try_build(&mut p, &rel, ZGrid::new(world(), 5), 16).unwrap();
        let o = Geometry::Rect(Rect::from_bounds(0.0, 0.0, 9.0, 9.0));
        let run = idx.select(&mut p, &rel, &o, ThetaOp::Overlaps).unwrap();
        assert!(
            run.stats.theta_evals < rel.len() as u64 / 2,
            "z-index should prune: {} of {}",
            run.stats.theta_evals,
            rel.len()
        );
    }

    #[test]
    #[should_panic(expected = "overlap-family")]
    fn distance_operator_rejected() {
        let mut p = pool();
        let rel = mixed_rel(&mut p, 0, 0.0);
        let idx = ZIndex::try_build(&mut p, &rel, ZGrid::new(world(), 5), 16).unwrap();
        let o = Geometry::Point(Point::new(1.0, 1.0));
        let _ = idx
            .select(&mut p, &rel, &o, ThetaOp::WithinDistance(3.0))
            .unwrap();
    }
}
