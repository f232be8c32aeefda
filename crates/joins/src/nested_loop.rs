//! Strategy I: (block) nested loop.
//!
//! "The simple nested loop strategy checks each tuple in R against each
//! tuple in S" (§2.1), with the memory-utilization refinement of §4.4:
//! fill most of main memory (`M − 10` pages worth of tuples) with a chunk
//! of `R`, scan `S` once per chunk.

use sj_geom::{Geometry, ThetaOp};
use sj_obs::{Phase, PhaseTimer, TraceSink};
use sj_storage::{BufferPool, StorageError};

use crate::relation::StoredRelation;
use crate::stats::{ExecStats, JoinRun, SelectRun};

/// Block nested-loop join `R ⋈_θ S`. The chunk size is
/// `(pool capacity − 10) · m` tuples, mirroring `m · (M − 10)` in `D_I`.
///
/// Chunk loads are the `partition` phase, the S-scan with its θ-tests
/// the `refine` phase. Fail-stop: the first storage fault aborts the run
/// with a typed error.
pub fn nested_loop_join(
    pool: &mut BufferPool,
    r: &StoredRelation,
    s: &StoredRelation,
    theta: ThetaOp,
    trace: &mut TraceSink,
) -> Result<JoinRun, StorageError> {
    let mut timer = PhaseTimer::for_sink(trace);
    let mut run = JoinRun::default();
    let mut partition = ExecStats::default();
    let mut refine = ExecStats::default();

    let m = r.tuples_per_page();
    let chunk_tuples = (pool.capacity().saturating_sub(10)).max(1) * m;

    let mut start = 0;
    while start < r.len() {
        let end = (start + chunk_tuples).min(r.len());
        // Load the R chunk into (executor) memory.
        timer.enter(Phase::Partition);
        let window = pool.stats();
        let chunk: Vec<(u64, Geometry)> = (start..end)
            .map(|i| r.try_read_at(pool, i))
            .collect::<Result<_, _>>()?;
        partition.add_io(pool.stats().since(&window));
        partition.passes += 1;
        // Scan all of S against the resident chunk.
        timer.enter(Phase::Refine);
        let window = pool.stats();
        for j in 0..s.len() {
            let (s_id, s_geom) = s.try_read_at(pool, j)?;
            for (r_id, r_geom) in &chunk {
                refine.theta_evals += 1;
                if theta.eval(r_geom, &s_geom) {
                    run.pairs.push((*r_id, s_id));
                }
            }
        }
        refine.add_io(pool.stats().since(&window));
        start = end;
    }
    timer.stop();
    run.phases.record(Phase::Partition, partition);
    run.phases.record(Phase::Refine, refine);
    run.seal("nested_loop", &timer, trace);
    Ok(run)
}

/// Strategy I for spatial selection: exhaustive scan of `R`, θ-testing
/// every tuple against the selector `o` (`C_I` in §4.3).
pub fn exhaustive_select(
    pool: &mut BufferPool,
    r: &StoredRelation,
    o: &Geometry,
    theta: ThetaOp,
) -> Result<SelectRun, StorageError> {
    let before = pool.stats();
    let mut run = SelectRun::default();
    for (id, g) in r.try_scan(pool)? {
        run.stats.theta_evals += 1;
        if theta.eval(o, &g) {
            run.matches.push(id);
        }
    }
    run.stats.passes = 1;
    run.stats.add_io(pool.stats().since(&before));
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geom::Point;
    use sj_storage::{Disk, DiskConfig, Layout};

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(Disk::new(DiskConfig::paper()), frames)
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

    #[test]
    fn self_join_within_zero_matches_each_tuple_once() {
        let mut p = pool(32);
        let r = grid_rel(&mut p, 5, 10.0, 0);
        let s = grid_rel(&mut p, 5, 10.0, 100);
        let run = nested_loop_join(
            &mut p,
            &r,
            &s,
            ThetaOp::WithinDistance(0.1),
            &mut TraceSink::Null,
        )
        .unwrap();
        assert_eq!(run.pairs.len(), 25);
        assert_eq!(run.stats.theta_evals, 25 * 25);
        for (a, b) in run.pairs {
            assert_eq!(a + 100, b);
        }
    }

    #[test]
    fn single_pass_when_r_fits_in_memory() {
        let mut p = pool(32); // 22 usable pages · 5 tuples ≫ 25 tuples
        let r = grid_rel(&mut p, 5, 10.0, 0);
        let s = grid_rel(&mut p, 5, 10.0, 100);
        p.clear();
        p.reset_stats();
        let run = nested_loop_join(
            &mut p,
            &r,
            &s,
            ThetaOp::WithinDistance(0.1),
            &mut TraceSink::Null,
        )
        .unwrap();
        assert_eq!(run.stats.passes, 1);
        // One cold scan of each relation: 5 + 5 pages.
        assert_eq!(run.stats.physical_reads, 10);
    }

    #[test]
    fn multiple_passes_rescan_s() {
        // 12 frames → chunk = 2·5 = 10 tuples → 7 passes over 64 R tuples;
        // S (13 pages) cannot stay resident in 12 frames, so every pass
        // rereads it — the D_I memory-pass behaviour.
        let mut p = pool(12);
        let r = grid_rel(&mut p, 8, 10.0, 0);
        let s = grid_rel(&mut p, 8, 10.0, 100);
        p.clear();
        p.reset_stats();
        let run = nested_loop_join(
            &mut p,
            &r,
            &s,
            ThetaOp::WithinDistance(0.1),
            &mut TraceSink::Null,
        )
        .unwrap();
        assert_eq!(run.stats.passes, 7);
        // Model: (passes + 1)·⌈N/m⌉ = 8·13 = 104 reads; the pool can shave
        // a little via residual caching but must stay in that regime.
        assert!(
            run.stats.physical_reads >= 80 && run.stats.physical_reads <= 104,
            "got {}",
            run.stats.physical_reads
        );
        assert_eq!(run.pairs.len(), 64);
        assert_eq!(run.stats.theta_evals, 64 * 64);
    }

    #[test]
    fn exhaustive_select_scans_once() {
        let mut p = pool(32);
        let r = grid_rel(&mut p, 5, 10.0, 0);
        p.clear();
        p.reset_stats();
        let o = Geometry::Point(Point::new(20.0, 20.0));
        let run = exhaustive_select(&mut p, &r, &o, ThetaOp::WithinDistance(10.5)).unwrap();
        let mut got = run.matches.clone();
        got.sort_unstable();
        assert_eq!(got, vec![7, 11, 12, 13, 17]);
        assert_eq!(run.stats.theta_evals, 25);
        assert_eq!(run.stats.physical_reads as usize, r.page_count());
    }

    #[test]
    fn empty_inputs() {
        let mut p = pool(16);
        let empty = StoredRelation::build(&mut p, &[], 300, Layout::Clustered);
        let r = grid_rel(&mut p, 3, 1.0, 0);
        assert!(
            nested_loop_join(&mut p, &empty, &r, ThetaOp::Overlaps, &mut TraceSink::Null)
                .unwrap()
                .pairs
                .is_empty()
        );
        assert!(
            nested_loop_join(&mut p, &r, &empty, ThetaOp::Overlaps, &mut TraceSink::Null)
                .unwrap()
                .pairs
                .is_empty()
        );
    }
}
