//! Sort-merge strategies on z-order (§2.2).
//!
//! Two executors, reproducing both halves of the paper's argument:
//!
//! * [`zorder_overlap_join`] — the **positive exception**: for θ-operators
//!   whose Θ-filter is MBR overlap (`overlaps`, `includes`,
//!   `contained in`), decomposing each object into z-elements (Orenstein
//!   1986) and sort-merging the element lists yields a complete candidate
//!   set. "Any overlap is likely to be reported more than once" — the
//!   executor counts and deduplicates those repeats before refinement.
//! * [`naive_zvalue_sort_merge`] — the **negative result**: sorting
//!   objects by a single z-value and merging with a bounded window, the
//!   way one would for one-dimensional attributes, *misses* matches for
//!   operators like `adjacent`. This executor exists to demonstrate §2.2's
//!   counterexample (the paper's `(o3, o9)` pair) and is deliberately
//!   incomplete — never use it for real queries.

use std::collections::BTreeSet;
use std::collections::HashSet;

use sj_geom::{Bounded, Geometry, ThetaOp};
use sj_obs::{Phase, PhaseTimer, TraceSink};
use sj_storage::{BufferPool, StorageError};
use sj_zorder::ZGrid;

use crate::relation::StoredRelation;
use crate::stats::{ExecStats, JoinRun};

/// True if `theta`'s Θ-filter is plain MBR overlap, which makes the
/// z-element candidate set complete for it.
pub fn supported_by_zorder(theta: ThetaOp) -> bool {
    matches!(
        theta,
        ThetaOp::Overlaps | ThetaOp::Includes | ThetaOp::ContainedIn
    )
}

/// Orenstein's sort-merge overlap join over z-element decompositions.
///
/// The scans, z-decomposition, and sort are the `partition` phase; the
/// merge sweep (whose duplicate reports land in `passes`) the `filter`
/// phase; exact θ-tests on deduplicated candidates the `refine` phase.
/// Fail-stop: the first storage fault aborts the run with a typed error.
///
/// # Panics
///
/// Panics if `theta` is not [`supported_by_zorder`] — the whole point of
/// §2.2 is that this strategy exists *only* for overlap-family operators;
/// an unsupported operator is a logic error, not a storage fault.
pub fn zorder_overlap_join(
    pool: &mut BufferPool,
    r: &StoredRelation,
    s: &StoredRelation,
    grid: &ZGrid,
    theta: ThetaOp,
    trace: &mut TraceSink,
) -> Result<JoinRun, StorageError> {
    assert!(
        supported_by_zorder(theta),
        "sort-merge on z-order only supports overlap-family operators, got {theta:?}"
    );
    let mut timer = PhaseTimer::for_sink(trace);
    timer.enter(Phase::Partition);
    let window = pool.stats();
    let mut run = JoinRun::default();
    let mut partition = ExecStats::default();

    // Scan both relations and decompose every object's MBR into
    // z-elements. (The scans are the strategy's "sort phase" input; the
    // element lists are assumed to fit in memory, as in the paper's
    // sort-merge discussion.)
    let r_rows = r.try_scan(pool)?;
    let s_rows = s.try_scan(pool)?;

    #[derive(Debug, Clone, Copy)]
    struct Elem {
        lo: u64,
        hi: u64,
        idx: usize,
        from_r: bool,
    }
    let mut elems: Vec<Elem> = Vec::new();
    for (idx, (_, g)) in r_rows.iter().enumerate() {
        for z in grid.decompose(&g.mbr()) {
            elems.push(Elem {
                lo: z.lo,
                hi: z.hi,
                idx,
                from_r: true,
            });
        }
    }
    for (idx, (_, g)) in s_rows.iter().enumerate() {
        for z in grid.decompose(&g.mbr()) {
            elems.push(Elem {
                lo: z.lo,
                hi: z.hi,
                idx,
                from_r: false,
            });
        }
    }
    // Sort phase (by z-interval start).
    elems.sort_by_key(|e| (e.lo, e.hi));
    partition.add_io(pool.stats().since(&window));
    run.phases.record(Phase::Partition, partition);

    // Merge phase: sweep with two active sets ordered by interval end.
    timer.enter(Phase::Filter);
    let mut active_r: BTreeSet<(u64, usize, usize)> = BTreeSet::new(); // (hi, idx, seq)
    let mut active_s: BTreeSet<(u64, usize, usize)> = BTreeSet::new();
    let mut candidates: HashSet<(usize, usize)> = HashSet::new();
    let mut reported = 0u64; // with duplicates, as the paper describes
    for (seq, e) in elems.iter().enumerate() {
        // Expire opposite-side intervals ending before this start.
        let expire = |set: &mut BTreeSet<(u64, usize, usize)>, lo: u64| {
            while let Some(&(hi, idx, s)) = set.iter().next() {
                if hi < lo {
                    set.remove(&(hi, idx, s));
                } else {
                    break;
                }
            }
        };
        expire(&mut active_r, e.lo);
        expire(&mut active_s, e.lo);
        let (own, opposite) = if e.from_r {
            (&mut active_r, &active_s)
        } else {
            (&mut active_s, &active_r)
        };
        for &(_, other_idx, _) in opposite.iter() {
            reported += 1;
            let pair = if e.from_r {
                (e.idx, other_idx)
            } else {
                (other_idx, e.idx)
            };
            candidates.insert(pair);
        }
        own.insert((e.hi, e.idx, seq));
    }
    run.phases.record(
        Phase::Filter,
        ExecStats {
            passes: reported, // exposed as "reports incl. duplicates"
            ..Default::default()
        },
    );

    // Refinement: exact θ on the deduplicated candidates.
    timer.enter(Phase::Refine);
    let mut refine = ExecStats::default();
    let mut pairs: Vec<(usize, usize)> = candidates.into_iter().collect();
    pairs.sort_unstable();
    for (ri, si) in pairs {
        refine.theta_evals += 1;
        let (r_id, r_geom) = &r_rows[ri];
        let (s_id, s_geom) = &s_rows[si];
        if theta.eval(r_geom, s_geom) {
            run.pairs.push((*r_id, *s_id));
        }
    }
    timer.stop();
    run.phases.record(Phase::Refine, refine);
    run.seal("zorder_merge", &timer, trace);
    Ok(run)
}

/// The doomed "one-dimensional" sort-merge of §2.2: each object is reduced
/// to the single z-value of its centre cell; both relations are sorted by
/// it and merged, θ-testing only objects whose z-values fall within
/// `window` positions of each other in the merged order. Matching pairs
/// that are spatially close but z-distant are silently **missed** — that
/// is the point.
pub fn naive_zvalue_sort_merge(
    pool: &mut BufferPool,
    r: &StoredRelation,
    s: &StoredRelation,
    grid: &ZGrid,
    theta: ThetaOp,
    window: usize,
) -> Result<JoinRun, StorageError> {
    let before = pool.stats();
    let mut run = JoinRun::default();
    let mut z_tagged = |rel: &StoredRelation| -> Result<Vec<(u64, Geometry, u64)>, StorageError> {
        let rows = rel.try_scan(pool)?.into_iter();
        Ok(rows
            .map(|(id, g)| {
                let z = grid.z_of_point(&g.centerpoint());
                (id, g, z)
            })
            .collect())
    };
    let mut r_rows = z_tagged(r)?;
    let mut s_rows = z_tagged(s)?;
    r_rows.sort_by_key(|(_, _, z)| *z);
    s_rows.sort_by_key(|(_, _, z)| *z);

    // Merge: for each r, θ-test only the s tuples within `window` merge
    // positions around r's insertion point.
    for (r_id, r_geom, z) in &r_rows {
        let pos = s_rows.partition_point(|(_, _, sz)| sz < z);
        let lo = pos.saturating_sub(window);
        let hi = (pos + window).min(s_rows.len());
        for (s_id, s_geom, _) in &s_rows[lo..hi] {
            run.stats.theta_evals += 1;
            if theta.eval(r_geom, s_geom) {
                run.pairs.push((*r_id, *s_id));
            }
        }
    }
    run.stats.add_io(pool.stats().since(&before));
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested_loop::nested_loop_join;
    use sj_geom::Rect;
    use sj_storage::{Disk, DiskConfig, Layout};

    fn pool() -> BufferPool {
        BufferPool::new(Disk::new(DiskConfig::paper()), 64)
    }

    fn rect_rel(pool: &mut BufferPool, rects: &[(f64, f64, f64, f64)], id0: u64) -> StoredRelation {
        let tuples: Vec<(u64, Geometry)> = rects
            .iter()
            .enumerate()
            .map(|(i, &(x0, y0, x1, y1))| {
                (
                    id0 + i as u64,
                    Geometry::Rect(Rect::from_bounds(x0, y0, x1, y1)),
                )
            })
            .collect();
        StoredRelation::build(pool, &tuples, 300, Layout::Clustered)
    }

    fn world_grid() -> ZGrid {
        ZGrid::new(Rect::from_bounds(0.0, 0.0, 64.0, 64.0), 6)
    }

    #[test]
    fn overlap_join_equals_nested_loop() {
        let mut p = pool();
        let r = rect_rel(
            &mut p,
            &[
                (0.0, 0.0, 10.0, 10.0),
                (20.0, 20.0, 30.0, 30.0),
                (5.0, 5.0, 25.0, 25.0),
                (40.0, 40.0, 50.0, 50.0),
            ],
            0,
        );
        let s = rect_rel(
            &mut p,
            &[
                (8.0, 8.0, 12.0, 12.0),
                (29.0, 29.0, 41.0, 41.0),
                (60.0, 60.0, 63.0, 63.0),
            ],
            100,
        );
        let grid = world_grid();
        let mut got = zorder_overlap_join(
            &mut p,
            &r,
            &s,
            &grid,
            ThetaOp::Overlaps,
            &mut TraceSink::Null,
        )
        .unwrap()
        .pairs;
        got.sort_unstable();
        let mut want = nested_loop_join(&mut p, &r, &s, ThetaOp::Overlaps, &mut TraceSink::Null)
            .unwrap()
            .pairs;
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn duplicates_are_reported_then_deduplicated() {
        let mut p = pool();
        // Two large overlapping rectangles spanning many common cells.
        let r = rect_rel(&mut p, &[(0.0, 0.0, 33.0, 33.0)], 0);
        let s = rect_rel(&mut p, &[(10.0, 10.0, 40.0, 40.0)], 100);
        let grid = world_grid();
        let run = zorder_overlap_join(
            &mut p,
            &r,
            &s,
            &grid,
            ThetaOp::Overlaps,
            &mut TraceSink::Null,
        )
        .unwrap();
        assert_eq!(run.pairs, vec![(0, 100)]);
        // The raw merge reported the overlap many times (once per shared
        // z-element pairing), exactly as the paper warns.
        assert!(
            run.stats.passes > 1,
            "expected duplicate reports, got {}",
            run.stats.passes
        );
        assert_eq!(run.stats.theta_evals, 1, "but only one refinement test");
    }

    #[test]
    fn includes_and_contained_in_supported() {
        let mut p = pool();
        let r = rect_rel(&mut p, &[(0.0, 0.0, 20.0, 20.0)], 0);
        let s = rect_rel(
            &mut p,
            &[(5.0, 5.0, 10.0, 10.0), (30.0, 30.0, 31.0, 31.0)],
            100,
        );
        let grid = world_grid();
        let inc = zorder_overlap_join(
            &mut p,
            &r,
            &s,
            &grid,
            ThetaOp::Includes,
            &mut TraceSink::Null,
        )
        .unwrap();
        assert_eq!(inc.pairs, vec![(0, 100)]);
        let cont = zorder_overlap_join(
            &mut p,
            &r,
            &s,
            &grid,
            ThetaOp::ContainedIn,
            &mut TraceSink::Null,
        )
        .unwrap();
        assert!(cont.pairs.is_empty());
    }

    #[test]
    #[should_panic(expected = "overlap-family")]
    fn distance_theta_rejected() {
        let mut p = pool();
        let r = rect_rel(&mut p, &[(0.0, 0.0, 1.0, 1.0)], 0);
        let s = rect_rel(&mut p, &[(2.0, 2.0, 3.0, 3.0)], 100);
        let grid = world_grid();
        let _ = zorder_overlap_join(
            &mut p,
            &r,
            &s,
            &grid,
            ThetaOp::WithinDistance(5.0),
            &mut TraceSink::Null,
        )
        .unwrap();
    }

    #[test]
    fn naive_sort_merge_misses_adjacent_pairs() {
        // The §2.2 counterexample, concretely: squares on an 8x8 grid
        // whose adjacency crosses the top-level quadrant boundary are far
        // apart in z-order and fall outside any small merge window.
        let mut p = pool();
        // R: unit cells at (3,0), (3,3); S: unit cells at (4,0), (4,3) —
        // each R cell is adjacent to the S cell at the same row, across
        // the x = 4·8 boundary of the 64-unit world (cells are 1 unit here
        // scaled by 8: use an 8x8 world with bits = 3).
        let grid = ZGrid::new(Rect::from_bounds(0.0, 0.0, 8.0, 8.0), 3);
        let r = rect_rel(&mut p, &[(3.0, 0.0, 4.0, 1.0), (3.0, 3.0, 4.0, 4.0)], 0);
        let s = rect_rel(
            &mut p,
            &[
                (4.0, 0.0, 5.0, 1.0),
                (4.0, 3.0, 5.0, 4.0),
                (3.0, 1.0, 4.0, 2.0),
            ],
            100,
        );
        let theta = ThetaOp::Adjacent;
        let complete = nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null)
            .unwrap()
            .pairs;
        let naive = naive_zvalue_sort_merge(&mut p, &r, &s, &grid, theta, 1)
            .unwrap()
            .pairs;
        assert!(
            naive.len() < complete.len(),
            "the naive merge must miss matches: {} vs {}",
            naive.len(),
            complete.len()
        );
    }

    #[test]
    fn naive_sort_merge_with_huge_window_degenerates_to_nested_loop() {
        let mut p = pool();
        let grid = ZGrid::new(Rect::from_bounds(0.0, 0.0, 8.0, 8.0), 3);
        let r = rect_rel(&mut p, &[(3.0, 0.0, 4.0, 1.0), (3.0, 3.0, 4.0, 4.0)], 0);
        let s = rect_rel(&mut p, &[(4.0, 0.0, 5.0, 1.0), (4.0, 3.0, 5.0, 4.0)], 100);
        let theta = ThetaOp::Adjacent;
        let mut complete = nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null)
            .unwrap()
            .pairs;
        complete.sort_unstable();
        let mut windowed = naive_zvalue_sort_merge(&mut p, &r, &s, &grid, theta, 1000)
            .unwrap()
            .pairs;
        windowed.sort_unstable();
        assert_eq!(
            windowed, complete,
            "an unbounded window recovers completeness"
        );
    }
}
