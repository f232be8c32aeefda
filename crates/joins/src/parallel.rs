//! Data-parallel join execution: PBSM-style partition-parallel
//! filter-and-refine over `std::thread::scope`.
//!
//! [`partition_join`] grid-partitions both relations' MBRs into tiles,
//! fans tiles out to worker threads, runs Θ-filter + θ-refine per tile,
//! and deduplicates pairs that share several tiles with the
//! *reference-point rule*: a candidate pair is refined only in the tile
//! containing the lower-left corner of the intersection of its (expanded)
//! MBRs. The per-tile Θ-filter is a forward-scan plane sweep
//! ([`sj_geom::sweep`]) rather than an all-pairs loop, so tile filter
//! cost is `O(n log n + k)` in the tile size. [`split_tree_join`] is the
//! worker fan-out of [`tree_join`](crate::tree_join::tree_join):
//! Algorithm JOIN split at the top-level subtrees of the R
//! generalization tree.
//!
//! Cost-model accounting under concurrency:
//!
//! * Every worker runs over a private [`BufferPool`] shard
//!   ([`BufferPool::fork_view`]) whose counters are merged into the run's
//!   [`ExecStats`] afterwards, so physical/logical I/O stays exact.
//! * Comparison counts (`filter_evals` — sweep comparisons since the
//!   plane-sweep filter landed — and `theta_evals`) depend only on the
//!   tile decomposition, which is a function of the data — **not** of the
//!   thread count — so `threads = N` reports exactly the comparison
//!   totals of `threads = 1` (a tested invariant). I/O counts may differ
//!   with the thread count because each worker shard has its own cold
//!   LRU state.
//! * `threads = 1` never spawns and runs every tile on the calling
//!   thread against the caller's own pool — the model-validation mode,
//!   directly comparable with the sequential executors.

use std::thread;
use std::time::Instant;

use sj_gentree::NodeId;
use sj_geom::sweep::{sweep_candidates, SweepItem};
use sj_geom::{Bounded, Geometry, Point, Rect, ThetaOp};
use sj_obs::{Phase, PhaseTimer, TraceSink};
use sj_storage::{BufferPool, StorageError};

use crate::paged_tree::TreeRelation;
use crate::refine::MarginRefiner;
use crate::relation::StoredRelation;
use crate::stats::{ExecStats, JoinRun};

/// Degree of parallelism for the executors in this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Number of worker threads (≥ 1). `1` means: run sequentially on the
    /// calling thread, with no pool sharding.
    pub threads: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

impl Parallelism {
    /// One worker per available hardware core (≥ 1).
    pub fn auto() -> Self {
        let threads = thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Parallelism { threads }
    }

    /// Strictly sequential execution on the calling thread.
    pub fn sequential() -> Self {
        Parallelism { threads: 1 }
    }

    /// An explicit worker count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "parallelism needs at least one thread");
        Parallelism { threads }
    }
}

/// A uniform grid over the data's bounding box. Tile membership is
/// computed with the monotone maps [`TileGrid::tile_x_of`] /
/// [`TileGrid::tile_y_of`] applied to rectangle corners, so a rectangle's
/// tile range and any interior point's tile are always consistent — the
/// property the reference-point rule relies on (no floating-point
/// boundary disagreements).
///
/// The boundary convention is **half-open with a saturating last tile**:
/// tile `k` along an axis covers `[origin + k·w, origin + (k+1)·w)`, so a
/// coordinate exactly on the edge shared by tiles `k-1` and `k` belongs
/// to `k` — except the world's max edge, which saturates into the last
/// tile (and so do coordinates beyond the world, in either direction).
/// Every coordinate therefore maps to exactly one tile; a reference
/// point landing exactly on a shared tile edge is owned by exactly one
/// tile under both the threaded and the sharded execution paths. Pinned
/// by `tile_boundary_convention_is_half_open` below.
///
/// `pub` because the shard router (`sj-shard`) reuses the same grid and
/// the same convention for its tile-shard decomposition — the two layers
/// must agree on ownership or boundary pairs get duplicated or lost.
#[derive(Debug, Clone, Copy)]
pub struct TileGrid {
    origin: Point,
    tile_w: f64,
    tile_h: f64,
    tiles_x: usize,
    tiles_y: usize,
}

impl TileGrid {
    /// Grid of `tiles_x × tiles_y` tiles covering `world`.
    pub fn new(world: Rect, tiles_x: usize, tiles_y: usize) -> Self {
        let tile_w = (world.hi.x - world.lo.x) / tiles_x as f64;
        let tile_h = (world.hi.y - world.lo.y) / tiles_y as f64;
        TileGrid {
            origin: world.lo,
            tile_w,
            tile_h,
            tiles_x,
            tiles_y,
        }
    }

    /// Total number of tiles.
    pub fn len(&self) -> usize {
        self.tiles_x * self.tiles_y
    }

    /// True for a degenerate zero-tile grid (never produced by `new`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tiles along x.
    pub fn tiles_x(&self) -> usize {
        self.tiles_x
    }

    /// Tiles along y.
    pub fn tiles_y(&self) -> usize {
        self.tiles_y
    }

    /// Column of `x` under the half-open convention (see type docs).
    pub fn tile_x_of(&self, x: f64) -> usize {
        if self.tile_w <= 0.0 {
            return 0;
        }
        let t = ((x - self.origin.x) / self.tile_w).floor();
        // `as usize` saturates negatives and NaN to 0.
        (t as usize).min(self.tiles_x - 1)
    }

    /// Row of `y` under the half-open convention (see type docs).
    pub fn tile_y_of(&self, y: f64) -> usize {
        if self.tile_h <= 0.0 {
            return 0;
        }
        let t = ((y - self.origin.y) / self.tile_h).floor();
        (t as usize).min(self.tiles_y - 1)
    }

    /// The unique tile owning `p` (row-major index).
    pub fn tile_of_point(&self, p: Point) -> usize {
        self.tile_y_of(p.y) * self.tiles_x + self.tile_x_of(p.x)
    }

    /// The closed rectangle of tile `t` (row-major). Adjacent tiles share
    /// their edges; ownership of shared edges follows the half-open maps
    /// above, not this rectangle.
    pub fn tile_rect(&self, t: usize) -> Rect {
        assert!(t < self.len(), "tile index {t} out of range");
        let tx = (t % self.tiles_x) as f64;
        let ty = (t / self.tiles_x) as f64;
        Rect::from_bounds(
            self.origin.x + tx * self.tile_w,
            self.origin.y + ty * self.tile_h,
            self.origin.x + (tx + 1.0) * self.tile_w,
            self.origin.y + (ty + 1.0) * self.tile_h,
        )
    }

    /// Indices of every tile the rectangle overlaps.
    pub fn tiles_overlapping(&self, r: &Rect) -> impl Iterator<Item = usize> + '_ {
        let x0 = self.tile_x_of(r.lo.x);
        let x1 = self.tile_x_of(r.hi.x);
        let y0 = self.tile_y_of(r.lo.y);
        let y1 = self.tile_y_of(r.hi.y);
        (y0..=y1).flat_map(move |y| (x0..=x1).map(move |x| y * self.tiles_x + x))
    }
}

/// Tiles per axis, scaled to the input size so that tiles hold on the
/// order of five hundred tuples on average — deep enough per-tile runs
/// for the batched SoA sweep to walk multi-chunk scans and amortize its
/// chunk builds, while a tile's SoA working set stays cache-resident.
/// Depends only on the data — never on the thread count — which keeps
/// comparison totals invariant under parallelism.
///
/// Clamped to `[2, 64]`: tiny inputs (including zero tuples) still get a
/// 2×2 grid rather than a degenerate 1-tile or n×1 decomposition, and
/// huge inputs stop at 64×64 tiles. The clamp bounds the *count* only —
/// a skewed dataset can still concentrate every tuple in one tile, which
/// this static heuristic cannot see. Occupancy-driven skew handling is
/// deliberately NOT done here: the shard router (`sj-shard`) recursively
/// quad-splits overfull tiles from observed occupancy instead, keeping
/// this function a pure, data-size-only map (pinned by
/// `tiles_per_axis_is_clamped_and_monotone`).
pub fn tiles_per_axis(total_tuples: usize) -> usize {
    ((total_tuples as f64 / 512.0).sqrt().ceil() as usize).clamp(2, 64)
}

/// Matches and comparison counters produced by one tile (or one
/// nested-loop chunk). `dur_us` is the tile's wall-clock span, measured
/// only when a trace sink is attached — with [`TraceSink::Null`] no
/// clock is ever read. The margin counters are nonzero only when both
/// relations are compressed (see [`crate::refine`]).
#[derive(Default)]
struct TileOut {
    pairs: Vec<(u64, u64)>,
    filter_evals: u64,
    theta_evals: u64,
    decoded_exact: u64,
    margin_hits: u64,
    margin_misses: u64,
    dur_us: u64,
}

/// PBSM-style parallel spatial join `R ⋈_θ S`.
///
/// Returns exactly the match set of
/// [`nested_loop_join`](crate::nested_loop::nested_loop_join) (as a set;
/// pair order follows tile order) for every `theta`, at any thread
/// count. See the module docs for the accounting guarantees.
///
/// The MBR scans and tile decomposition are the `partition` phase; the
/// fanned-out Θ-filter sweeps are the `filter` phase; exact θ-tests plus
/// lazy geometry fetches (worker-shard I/O included) are the `refine`
/// phase. When the sink is live, each tile additionally emits a
/// `partition_join/tile:<t>` span and each worker a
/// `partition_join/worker:<w>` span, in deterministic tile/worker order
/// regardless of the thread count.
///
/// Fail-stop: the first storage fault — on the coordinator or any
/// worker shard — aborts the run with a typed error. Workers stop at
/// their first fault; the coordinator merges worker results in
/// deterministic chunk order and reports the first chunk's error, so the
/// surfaced error does not depend on thread scheduling.
pub fn partition_join(
    pool: &mut BufferPool,
    r: &StoredRelation,
    s: &StoredRelation,
    theta: ThetaOp,
    par: Parallelism,
    trace: &mut TraceSink,
) -> Result<JoinRun, StorageError> {
    match theta.filter_radius() {
        Some(eps) => pbsm_join(pool, r, s, theta, par, eps, trace),
        None => chunked_nested_loop(pool, r, s, theta, par, trace),
    }
}

fn pbsm_join(
    pool: &mut BufferPool,
    r: &StoredRelation,
    s: &StoredRelation,
    theta: ThetaOp,
    par: Parallelism,
    eps: f64,
    trace: &mut TraceSink,
) -> Result<JoinRun, StorageError> {
    let mut timer = PhaseTimer::for_sink(trace);
    let timed = trace.is_enabled();
    timer.enter(Phase::Partition);
    let window = pool.stats();
    let mut run = JoinRun::default();
    let mut partition = ExecStats {
        passes: 1,
        ..Default::default()
    };

    // Phase 1 (sequential): one scan per relation to extract MBRs. These
    // stay in executor memory for the filter step; geometries are
    // re-fetched lazily during refinement (the filter/refine I/O split).
    let r_mbrs: Vec<(u64, Rect)> = (0..r.len())
        .map(|i| {
            let (id, g) = r.try_read_at(pool, i)?;
            Ok((id, g.mbr()))
        })
        .collect::<Result<_, StorageError>>()?;
    let s_mbrs: Vec<(u64, Rect)> = (0..s.len())
        .map(|j| {
            let (id, g) = s.try_read_at(pool, j)?;
            Ok((id, g.mbr()))
        })
        .collect::<Result<_, StorageError>>()?;
    if r_mbrs.is_empty() || s_mbrs.is_empty() {
        partition.add_io(pool.stats().since(&window));
        timer.stop();
        run.phases.record(Phase::Partition, partition);
        run.seal("partition_join", &timer, trace);
        return Ok(run);
    }

    // Phase 2: tile decomposition with multi-assignment. R-side MBRs are
    // expanded by the filter radius so every Θ-qualifying pair shares at
    // least one tile.
    let world = r_mbrs
        .iter()
        .chain(s_mbrs.iter())
        .map(|(_, m)| *m)
        .reduce(|a, b| a.union(&b))
        .expect("non-empty inputs"); // PANIC-OK: both sides checked above
    let axis = tiles_per_axis(r_mbrs.len() + s_mbrs.len());
    let grid = TileGrid::new(world, axis, axis);

    let mut r_tiles: Vec<Vec<u32>> = vec![Vec::new(); grid.len()];
    for (i, (_, mbr)) in r_mbrs.iter().enumerate() {
        for t in grid.tiles_overlapping(&mbr.expand(eps)) {
            r_tiles[t].push(i as u32);
        }
    }
    let mut s_tiles: Vec<Vec<u32>> = vec![Vec::new(); grid.len()];
    for (j, (_, mbr)) in s_mbrs.iter().enumerate() {
        for t in grid.tiles_overlapping(mbr) {
            s_tiles[t].push(j as u32);
        }
    }
    let tasks: Vec<usize> = (0..grid.len())
        .filter(|&t| !r_tiles[t].is_empty() && !s_tiles[t].is_empty())
        .collect();

    partition.add_io(pool.stats().since(&window));
    run.phases.record(Phase::Partition, partition);

    // Phase 3: filter + refine per tile, fanned out to workers. Tiles are
    // assigned to workers in contiguous chunks and results concatenated
    // in tile order, so the output is identical at every thread count.
    // Tile-local Θ-filtering and θ-refinement are interleaved inside
    // `process_tile`; the coordinator attributes the whole fan-out's
    // wall-clock to the `filter` phase and books counters per phase.
    timer.enter(Phase::Filter);
    let window = pool.stats();
    let mut refine = ExecStats::default();
    let tile_outs: Vec<TileOut> = if par.threads <= 1 {
        tasks
            .iter()
            .map(|&t| {
                process_tile(
                    t,
                    &grid,
                    eps,
                    theta,
                    r,
                    s,
                    &r_mbrs,
                    &s_mbrs,
                    &r_tiles[t],
                    &s_tiles[t],
                    pool,
                    timed,
                )
            })
            .collect::<Result<_, _>>()?
    } else {
        let shard_cap = (pool.capacity() / par.threads).max(4);
        let chunk_len = tasks.len().div_ceil(par.threads).max(1);
        let mut outs: Vec<TileOut> = Vec::with_capacity(tasks.len());
        let chunk_results = thread::scope(|scope| {
            let handles: Vec<_> = tasks
                .chunks(chunk_len)
                .map(|chunk| {
                    let mut shard = pool.fork_view(shard_cap);
                    let (r_mbrs, s_mbrs) = (&r_mbrs, &s_mbrs);
                    let (r_tiles, s_tiles) = (&r_tiles, &s_tiles);
                    let grid = &grid;
                    scope.spawn(move || {
                        // Stop at the worker's first fault; the partial
                        // tile list is discarded by the coordinator.
                        let mut outs: Vec<TileOut> = Vec::with_capacity(chunk.len());
                        let mut err: Option<StorageError> = None;
                        for &t in chunk {
                            match process_tile(
                                t,
                                grid,
                                eps,
                                theta,
                                r,
                                s,
                                r_mbrs,
                                s_mbrs,
                                &r_tiles[t],
                                &s_tiles[t],
                                &mut shard,
                                timed,
                            ) {
                                Ok(o) => outs.push(o),
                                Err(e) => {
                                    err = Some(e);
                                    break;
                                }
                            }
                        }
                        (outs, err, shard.stats())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("partition worker panicked")) // PANIC-OK: propagates a worker panic
                .collect::<Vec<_>>()
        });
        // Worker merge happens on the coordinator in spawn (= chunk)
        // order, so span emission, stats totals, and the surfaced error
        // are deterministic.
        let mut first_err: Option<StorageError> = None;
        for (w, (chunk_outs, err, io)) in chunk_results.into_iter().enumerate() {
            if trace.is_enabled() {
                let mut ws = ExecStats::default();
                ws.add_io(io);
                let dur: u64 = chunk_outs.iter().map(|o| o.dur_us).sum();
                trace.emit(&format!("partition_join/worker:{w}"), dur, &ws.counters());
            }
            outs.extend(chunk_outs);
            refine.add_io(io);
            if first_err.is_none() {
                first_err = err;
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        outs
    };

    timer.enter(Phase::Refine);
    let mut filter = ExecStats::default();
    if trace.is_enabled() {
        for (&t, out) in tasks.iter().zip(tile_outs.iter()) {
            trace.emit(
                &format!("partition_join/tile:{t}"),
                out.dur_us,
                &[
                    ("filter_evals", out.filter_evals),
                    ("theta_evals", out.theta_evals),
                    ("decoded_exact", out.decoded_exact),
                    ("pairs", out.pairs.len() as u64),
                ],
            );
        }
    }
    for out in tile_outs {
        run.pairs.extend(out.pairs);
        filter.filter_evals += out.filter_evals;
        refine.theta_evals += out.theta_evals;
        refine.decoded_exact += out.decoded_exact;
        refine.margin_hits += out.margin_hits;
        refine.margin_misses += out.margin_misses;
    }
    refine.add_io(pool.stats().since(&window));
    // The decode-on-demand span: how much of the refine phase actually
    // reached exact geometry (compressed runs only; on exact runs the
    // margin counters stay zero and no span is emitted).
    if trace.is_enabled() && refine.decoded_exact + refine.margin_hits + refine.margin_misses > 0 {
        trace.emit(
            "refine/decode",
            0,
            &[
                ("decoded_exact", refine.decoded_exact),
                ("margin_hits", refine.margin_hits),
                ("margin_misses", refine.margin_misses),
            ],
        );
    }
    timer.stop();
    run.phases.record(Phase::Filter, filter);
    run.phases.record(Phase::Refine, refine);
    run.seal("partition_join", &timer, trace);
    Ok(run)
}

/// Filter + refine for one tile. The Θ-filter runs as a forward-scan
/// plane sweep ([`sweep_candidates`]) over the tile's MBR lists instead
/// of an all-pairs loop, so `filter_evals` counts sweep comparisons —
/// still a pure function of the tile contents, hence thread-invariant
/// (the kernel is auto-picked by tile size: batched SoA masks once both
/// lists clear the chunk threshold).
/// Geometries are fetched through `pool` only when a candidate survives
/// the Θ-filter *and* the reference-point rule, and are cached per tile
/// so each tuple is read at most once per tile it participates in.
#[allow(clippy::too_many_arguments)]
fn process_tile(
    tile: usize,
    grid: &TileGrid,
    eps: f64,
    theta: ThetaOp,
    r: &StoredRelation,
    s: &StoredRelation,
    r_mbrs: &[(u64, Rect)],
    s_mbrs: &[(u64, Rect)],
    r_list: &[u32],
    s_list: &[u32],
    pool: &mut BufferPool,
    timed: bool,
) -> Result<TileOut, StorageError> {
    let t0 = timed.then(Instant::now);
    let mut out = TileOut::default();
    // Expanded R-side MBRs, computed once per tile list: they drive both
    // the sweep intervals and the reference-point rule, and must be the
    // exact same rectangles used for tile assignment in `pbsm_join`.
    let r_expanded: Vec<Rect> = r_list
        .iter()
        .map(|&i| r_mbrs[i as usize].1.expand(eps))
        .collect();
    let mut sweep_r: Vec<SweepItem> = r_list
        .iter()
        .enumerate()
        .map(|(pos, &i)| {
            SweepItem::with_sweep_rect(pos as u32, r_expanded[pos], r_mbrs[i as usize].1)
        })
        .collect();
    let mut sweep_s: Vec<SweepItem> = s_list
        .iter()
        .enumerate()
        .map(|(pos, &j)| SweepItem::new(pos as u32, s_mbrs[j as usize].1))
        .collect();

    // Per-tile refinement engine: exact decodes on uncompressed
    // relations, the margin-governed path when both sides carry a
    // quantized sidecar. Caches live per tile, exactly as the previous
    // per-tile geometry maps did.
    let mut refiner = MarginRefiner::new(r, s);
    let mut rstats = ExecStats::default();
    // Capture the first fault raised inside the sweep callback; once
    // set, no further geometry fetches are attempted and the tile's
    // outcome is discarded below (fail-stop, never a partial tile).
    let mut first_err: Option<StorageError> = None;
    let mut emit = |pi: u32, pj: u32| {
        if first_err.is_some() {
            return;
        }
        let i = r_list[pi as usize];
        let j = s_list[pj as usize];
        let (r_id, _) = r_mbrs[i as usize];
        let (s_id, s_mbr) = s_mbrs[j as usize];
        // Reference-point rule: of all tiles this candidate pair shares,
        // only the one containing the lower-left corner of the
        // expanded-MBR intersection refines it. The intersection is
        // non-empty whenever the filter passes (Euclidean min-distance
        // ≤ eps bounds both axis gaps by eps); if floating-point rounding
        // ever disagrees, the pair cannot be a true match either, so
        // skipping it is sound.
        let Some(inter) = r_expanded[pi as usize].intersection(&s_mbr) else {
            return;
        };
        if grid.tile_of_point(inter.lo) != tile {
            return;
        }
        match refiner.refine(pool, &theta, i, j, &mut rstats) {
            Ok(true) => out.pairs.push((r_id, s_id)),
            Ok(false) => {}
            Err(e) => first_err = Some(e),
        }
    };
    let comparisons = sweep_candidates(&mut sweep_r, &mut sweep_s, theta, &mut emit);
    if let Some(e) = first_err {
        return Err(e);
    }
    out.filter_evals = comparisons;
    out.theta_evals = rstats.theta_evals;
    out.decoded_exact = rstats.decoded_exact;
    out.margin_hits = rstats.margin_hits;
    out.margin_misses = rstats.margin_misses;
    if let Some(t0) = t0 {
        out.dur_us = t0.elapsed().as_micros() as u64;
    }
    Ok(out)
}

/// Fallback for operators with unbounded Θ-filter regions (directional
/// predicates): a block-nested-loop join whose R chunks are processed in
/// parallel. Each R tuple belongs to exactly one chunk, so no
/// deduplication is needed; `theta_evals` totals `|R|·|S|` at every
/// thread count. With one thread this is exactly
/// [`nested_loop_join`](crate::nested_loop::nested_loop_join).
fn chunked_nested_loop(
    pool: &mut BufferPool,
    r: &StoredRelation,
    s: &StoredRelation,
    theta: ThetaOp,
    par: Parallelism,
    trace: &mut TraceSink,
) -> Result<JoinRun, StorageError> {
    if par.threads <= 1 {
        return crate::nested_loop::nested_loop_join(pool, r, s, theta, trace);
    }
    let mut timer = PhaseTimer::for_sink(trace);
    let timed = trace.is_enabled();
    timer.enter(Phase::Partition);
    let window = pool.stats();
    let mut run = JoinRun::default();
    if r.is_empty() || s.is_empty() {
        let mut partition = ExecStats::default();
        partition.add_io(pool.stats().since(&window));
        timer.stop();
        run.phases.record(Phase::Partition, partition);
        run.seal("partition_join", &timer, trace);
        return Ok(run);
    }
    let shard_cap = (pool.capacity() / par.threads).max(4);
    let chunk_tuples = r.len().div_ceil(par.threads).max(1);
    let bounds: Vec<(usize, usize)> = (0..r.len())
        .step_by(chunk_tuples)
        .map(|lo| (lo, (lo + chunk_tuples).min(r.len())))
        .collect();
    // One pass per chunk, as in the sequential block-nested loop: the
    // chunk decomposition is the `partition` phase, the scans plus exact
    // θ-tests (all worker I/O included) the `refine` phase.
    let mut partition = ExecStats::default();
    timer.enter(Phase::Refine);
    let mut refine = ExecStats::default();
    let results = thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(lo, hi)| {
                let mut shard = pool.fork_view(shard_cap);
                scope.spawn(move || {
                    let mut work = || -> Result<TileOut, StorageError> {
                        let t0 = timed.then(Instant::now);
                        let mut out = TileOut::default();
                        let chunk: Vec<(u64, Geometry)> = (lo..hi)
                            .map(|i| r.try_read_at(&mut shard, i))
                            .collect::<Result<_, _>>()?;
                        for j in 0..s.len() {
                            let (s_id, s_geom) = s.try_read_at(&mut shard, j)?;
                            for (r_id, r_geom) in &chunk {
                                out.theta_evals += 1;
                                if theta.eval(r_geom, &s_geom) {
                                    out.pairs.push((*r_id, s_id));
                                }
                            }
                        }
                        if let Some(t0) = t0 {
                            out.dur_us = t0.elapsed().as_micros() as u64;
                        }
                        Ok(out)
                    };
                    let result = work();
                    (result, shard.stats())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("nested-loop worker panicked")) // PANIC-OK: propagates a worker panic
            .collect::<Vec<_>>()
    });
    // Coordinator-side merge in worker order: the first chunk's error
    // wins deterministically, independent of thread scheduling.
    let mut first_err: Option<StorageError> = None;
    for (w, (result, io)) in results.into_iter().enumerate() {
        refine.add_io(io);
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
                continue;
            }
        };
        if trace.is_enabled() {
            let mut ws = ExecStats {
                theta_evals: out.theta_evals,
                ..Default::default()
            };
            ws.add_io(io);
            trace.emit(
                &format!("partition_join/worker:{w}"),
                out.dur_us,
                &ws.counters(),
            );
        }
        run.pairs.extend(out.pairs);
        refine.theta_evals += out.theta_evals;
        partition.passes += 1;
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    refine.add_io(pool.stats().since(&window));
    timer.stop();
    run.phases.record(Phase::Partition, partition);
    run.phases.record(Phase::Refine, refine);
    run.seal("partition_join", &timer, trace);
    Ok(run)
}

/// The worker fan-out of [`tree_join`](crate::tree_join::tree_join):
/// the independent subproblems `subtree(aᵢ) × subtree(root_S)` — one per
/// top-level subtree `aᵢ ∈ top` of R — run on `par.threads` worker
/// threads via [`sj_gentree::join::try_join_pair_flat`], each charging
/// record-touch I/O to its own pool shard, with the same deterministic
/// first-chunk-wins merge as [`partition_join`]. The caller has checked
/// that neither root carries an application object, so only the filter
/// gate remains for the root pair itself.
pub(crate) fn split_tree_join(
    pool: &mut BufferPool,
    r: &TreeRelation,
    s: &TreeRelation,
    theta: ThetaOp,
    par: Parallelism,
    top: &[NodeId],
    trace: &mut TraceSink,
) -> Result<JoinRun, StorageError> {
    let (root_r, root_s) = (r.tree.root(), s.tree.root());
    let mut timer = PhaseTimer::for_sink(trace);
    let timed = trace.is_enabled();
    timer.enter(Phase::IndexProbe);
    let window = pool.stats();
    let mut run = JoinRun::default();
    let mut probe = ExecStats {
        passes: 1,
        ..Default::default()
    };
    let mut filter = ExecStats::default();
    let mut refine = ExecStats::default();

    // The root pair itself is handled on the calling thread.
    r.paged.try_touch_io(pool, root_r)?;
    s.paged.try_touch_io(pool, root_s)?;
    filter.filter_evals += 1;
    if theta.filter(&r.tree.mbr(root_r), &s.tree.mbr(root_s)) {
        timer.enter(Phase::Filter);
        let shard_cap = (pool.capacity() / par.threads).max(4);
        let chunk_len = top.len().div_ceil(par.threads).max(1);
        let results = thread::scope(|scope| {
            let handles: Vec<_> = top
                .chunks(chunk_len)
                .map(|chunk| {
                    let shard = pool.fork_view(shard_cap);
                    scope.spawn(move || {
                        let t0 = timed.then(Instant::now);
                        let shard_cell = std::cell::RefCell::new(shard);
                        let mut pairs = Vec::new();
                        let mut filter_evals = 0u64;
                        let mut theta_evals = 0u64;
                        // Stop at the worker's first fault; partial
                        // results are discarded by the coordinator.
                        let mut err: Option<StorageError> = None;
                        for &a in chunk {
                            match sj_gentree::join::try_join_pair_flat(
                                &r.tree,
                                Some(&r.flat),
                                &s.tree,
                                Some(&s.flat),
                                a,
                                root_s,
                                1,
                                theta,
                                |node| {
                                    r.paged
                                        .try_touch_io(&mut shard_cell.borrow_mut(), node)
                                        .map(|_| ())
                                },
                                |node| {
                                    s.paged
                                        .try_touch_io(&mut shard_cell.borrow_mut(), node)
                                        .map(|_| ())
                                },
                            ) {
                                Ok(outcome) => {
                                    pairs.extend(outcome.pairs);
                                    filter_evals += outcome.stats.filter_evals;
                                    theta_evals += outcome.stats.theta_evals;
                                }
                                Err(e) => {
                                    err = Some(e);
                                    break;
                                }
                            }
                        }
                        (
                            pairs,
                            filter_evals,
                            theta_evals,
                            err,
                            shard_cell.into_inner().stats(),
                            t0.map(|t| t.elapsed().as_micros() as u64).unwrap_or(0),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("tree-join worker panicked")) // PANIC-OK: propagates a worker panic
                .collect::<Vec<_>>()
        });
        // Coordinator-side merge in spawn (= chunk) order keeps the
        // stats totals, the span stream, and the surfaced error
        // deterministic.
        let mut first_err: Option<StorageError> = None;
        for (w, (pairs, filter_evals, theta_evals, err, io, dur_us)) in
            results.into_iter().enumerate()
        {
            if trace.is_enabled() {
                let mut ws = ExecStats {
                    filter_evals,
                    theta_evals,
                    ..Default::default()
                };
                ws.add_io(io);
                trace.emit(
                    &format!("parallel_tree_join/worker:{w}"),
                    dur_us,
                    &ws.counters(),
                );
            }
            run.pairs.extend(pairs);
            filter.filter_evals += filter_evals;
            refine.theta_evals += theta_evals;
            probe.add_io(io);
            if first_err.is_none() {
                first_err = err;
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
    }
    probe.add_io(pool.stats().since(&window));
    timer.stop();
    run.phases.record(Phase::IndexProbe, probe);
    run.phases.record(Phase::Filter, filter);
    run.phases.record(Phase::Refine, refine);
    run.seal("parallel_tree_join", &timer, trace);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested_loop::nested_loop_join;
    use crate::tree_join::tree_join;
    use sj_gentree::rtree::{RTree, RTreeConfig};
    use sj_geom::Direction;
    use sj_storage::{Disk, DiskConfig, Layout};

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(Disk::new(DiskConfig::paper()), frames)
    }

    fn sorted(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        v.sort_unstable();
        v
    }

    /// Deterministic mixed point/rect workload spread over the world.
    fn mixed_rel(pool: &mut BufferPool, n: usize, id0: u64, salt: u64) -> StoredRelation {
        let tuples: Vec<(u64, Geometry)> = (0..n)
            .map(|i| {
                let k = (i as u64).wrapping_mul(2654435761).wrapping_add(salt);
                let x = (k % 1000) as f64;
                let y = (k / 1000 % 1000) as f64;
                let g = if i % 3 == 0 {
                    Geometry::Point(Point::new(x, y))
                } else {
                    let w = (k % 23) as f64;
                    let h = (k % 17) as f64;
                    Geometry::Rect(Rect::from_bounds(x, y, x + w, y + h))
                };
                (id0 + i as u64, g)
            })
            .collect();
        StoredRelation::build(pool, &tuples, 300, Layout::Clustered)
    }

    #[test]
    fn partition_join_matches_nested_loop_across_operators() {
        let mut p = pool(64);
        let r = mixed_rel(&mut p, 120, 0, 7);
        let s = mixed_rel(&mut p, 140, 10_000, 99);
        for theta in [
            ThetaOp::WithinDistance(25.0),
            ThetaOp::WithinCenterDistance(40.0),
            ThetaOp::Overlaps,
            ThetaOp::Includes,
            ThetaOp::ContainedIn,
            ThetaOp::Adjacent,
            ThetaOp::ReachableWithin {
                minutes: 10.0,
                speed: 3.0,
            },
            ThetaOp::DirectionOf(Direction::NorthWest),
        ] {
            let want = sorted(
                nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null)
                    .unwrap()
                    .pairs,
            );
            for threads in [1, 2, 3, 8] {
                let got = sorted(
                    partition_join(
                        &mut p,
                        &r,
                        &s,
                        theta,
                        Parallelism::with_threads(threads),
                        &mut TraceSink::Null,
                    )
                    .unwrap()
                    .pairs,
                );
                assert_eq!(got, want, "theta {theta:?} with {threads} threads");
            }
        }
    }

    #[test]
    fn comparison_totals_are_thread_invariant() {
        let mut p = pool(64);
        let r = mixed_rel(&mut p, 150, 0, 3);
        let s = mixed_rel(&mut p, 150, 5_000, 11);
        let theta = ThetaOp::WithinDistance(15.0);
        let seq = partition_join(
            &mut p,
            &r,
            &s,
            theta,
            Parallelism::sequential(),
            &mut TraceSink::Null,
        )
        .unwrap();
        for threads in [2, 4, 8] {
            let par = partition_join(
                &mut p,
                &r,
                &s,
                theta,
                Parallelism::with_threads(threads),
                &mut TraceSink::Null,
            )
            .unwrap();
            assert_eq!(
                par.stats.comparisons(),
                seq.stats.comparisons(),
                "{threads} threads"
            );
            assert_eq!(par.stats.filter_evals, seq.stats.filter_evals);
            assert_eq!(par.stats.theta_evals, seq.stats.theta_evals);
            // Identical tile order means identical pair order, too.
            assert_eq!(par.pairs, seq.pairs);
        }
    }

    #[test]
    fn reference_point_rule_handles_tile_border_duplicates() {
        // Large rectangles spanning many tiles joined against each other:
        // every candidate pair shares many tiles and must be reported
        // exactly once.
        let mut p = pool(64);
        let r_tuples: Vec<(u64, Geometry)> = (0..40)
            .map(|i| {
                let x = (i % 8) as f64 * 120.0;
                let y = (i / 8) as f64 * 190.0;
                (
                    i as u64,
                    Geometry::Rect(Rect::from_bounds(x, y, x + 400.0, y + 350.0)),
                )
            })
            .collect();
        let s_tuples: Vec<(u64, Geometry)> = (0..40)
            .map(|i| {
                let x = (i % 5) as f64 * 170.0 + 60.0;
                let y = (i / 5) as f64 * 110.0 + 45.0;
                (
                    1_000 + i as u64,
                    Geometry::Rect(Rect::from_bounds(x, y, x + 380.0, y + 300.0)),
                )
            })
            .collect();
        let r = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
        let s = StoredRelation::build(&mut p, &s_tuples, 300, Layout::Clustered);
        let theta = ThetaOp::Overlaps;
        let want = sorted(
            nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null)
                .unwrap()
                .pairs,
        );
        for threads in [1, 4] {
            let run = partition_join(
                &mut p,
                &r,
                &s,
                theta,
                Parallelism::with_threads(threads),
                &mut TraceSink::Null,
            )
            .unwrap();
            let mut got = run.pairs.clone();
            let n_raw = got.len();
            got.sort_unstable();
            got.dedup();
            assert_eq!(got.len(), n_raw, "duplicate pairs emitted");
            assert_eq!(got, want);
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut p = pool(16);
        let empty = StoredRelation::build(&mut p, &[], 300, Layout::Clustered);
        let r = mixed_rel(&mut p, 10, 0, 1);
        for threads in [1, 4] {
            let par = Parallelism::with_threads(threads);
            assert!(partition_join(
                &mut p,
                &empty,
                &r,
                ThetaOp::Overlaps,
                par,
                &mut TraceSink::Null
            )
            .unwrap()
            .pairs
            .is_empty());
            assert!(partition_join(
                &mut p,
                &r,
                &empty,
                ThetaOp::Overlaps,
                par,
                &mut TraceSink::Null
            )
            .unwrap()
            .pairs
            .is_empty());
        }
    }

    fn grid_tree(pool: &mut BufferPool, n: usize, step: f64, id0: u64) -> TreeRelation {
        let entries: Vec<(u64, Geometry)> = (0..n * n)
            .map(|i| {
                (
                    id0 + i as u64,
                    Geometry::Point(Point::new((i % n) as f64 * step, (i / n) as f64 * step)),
                )
            })
            .collect();
        let rt = RTree::bulk_load(RTreeConfig::with_fanout(5), entries);
        TreeRelation::new(pool, rt.tree().clone(), 300, Layout::Clustered)
    }

    #[test]
    fn parallel_tree_join_matches_sequential() {
        let mut p = pool(128);
        let r = grid_tree(&mut p, 7, 10.0, 0);
        let s = grid_tree(&mut p, 7, 10.0, 1_000);
        for theta in [ThetaOp::WithinDistance(10.5), ThetaOp::Overlaps] {
            let want = sorted(
                tree_join(
                    &mut p,
                    &r,
                    &s,
                    theta,
                    Parallelism::sequential(),
                    &mut TraceSink::Null,
                )
                .unwrap()
                .pairs,
            );
            for threads in [1, 2, 4] {
                let got = sorted(
                    tree_join(
                        &mut p,
                        &r,
                        &s,
                        theta,
                        Parallelism::with_threads(threads),
                        &mut TraceSink::Null,
                    )
                    .unwrap()
                    .pairs,
                );
                assert_eq!(got, want, "theta {theta:?} with {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_tree_join_charges_io() {
        let mut p = pool(128);
        let r = grid_tree(&mut p, 6, 10.0, 0);
        let s = grid_tree(&mut p, 6, 10.0, 1_000);
        p.clear();
        p.reset_stats();
        let run = tree_join(
            &mut p,
            &r,
            &s,
            ThetaOp::WithinDistance(10.5),
            Parallelism::with_threads(4),
            &mut TraceSink::Null,
        )
        .unwrap();
        assert!(!run.pairs.is_empty());
        assert!(run.stats.physical_reads > 0);
        assert!(run.stats.theta_evals > 0);
        assert!(run.stats.filter_evals > 0);
    }

    #[test]
    fn parallelism_constructors() {
        assert_eq!(Parallelism::sequential().threads, 1);
        assert!(Parallelism::auto().threads >= 1);
        assert_eq!(Parallelism::with_threads(6).threads, 6);
        assert!(Parallelism::default().threads >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = Parallelism::with_threads(0);
    }

    #[test]
    fn tile_grid_maps_are_consistent_on_borders() {
        let grid = TileGrid::new(Rect::from_bounds(0.0, 0.0, 100.0, 100.0), 10, 10);
        // A rect ending exactly on a tile border and a point on that
        // border must agree about which tile the border belongs to.
        let r = Rect::from_bounds(5.0, 5.0, 30.0, 30.0);
        let tiles: Vec<usize> = grid.tiles_overlapping(&r).collect();
        assert!(tiles.contains(&grid.tile_of_point(Point::new(30.0, 30.0))));
        assert!(tiles.contains(&grid.tile_of_point(Point::new(5.0, 5.0))));
        // Degenerate world: everything maps to tile 0.
        let flat = TileGrid::new(Rect::from_bounds(3.0, 4.0, 3.0, 4.0), 4, 4);
        assert_eq!(flat.tile_of_point(Point::new(3.0, 4.0)), 0);
        assert_eq!(
            flat.tiles_overlapping(&Rect::from_bounds(3.0, 4.0, 3.0, 4.0))
                .collect::<Vec<_>>(),
            vec![0]
        );
    }

    /// Satellite audit: the boundary convention is half-open — a
    /// coordinate exactly on the edge shared by tiles k-1 and k belongs
    /// to tile k, except the world's max edge which saturates into the
    /// last tile. This is the convention the reference-point rule and the
    /// shard router both rely on for single-ownership of boundary pairs.
    #[test]
    fn tile_boundary_convention_is_half_open() {
        let grid = TileGrid::new(Rect::from_bounds(0.0, 0.0, 100.0, 100.0), 10, 10);
        // Interior shared edge x = 30 belongs to the higher tile (3).
        assert_eq!(grid.tile_x_of(30.0), 3);
        assert_eq!(grid.tile_x_of(30.0 - 1e-9), 2);
        assert_eq!(grid.tile_y_of(70.0), 7);
        assert_eq!(grid.tile_y_of(70.0 - 1e-9), 6);
        // The world's min edge opens the first tile.
        assert_eq!(grid.tile_x_of(0.0), 0);
        // The world's max edge has no higher tile: it saturates into the
        // last one instead of falling off the grid.
        assert_eq!(grid.tile_x_of(100.0), 9);
        assert_eq!(grid.tile_y_of(100.0), 9);
        // Out-of-world coordinates clamp to the border tiles.
        assert_eq!(grid.tile_x_of(-5.0), 0);
        assert_eq!(grid.tile_x_of(250.0), 9);
        assert_eq!(grid.tile_y_of(f64::NAN), 0);
    }

    /// A reference point landing exactly on a shared tile edge (or
    /// corner) is owned by exactly one tile, and that tile is always in
    /// the overlap range of any rect containing the point — so exactly
    /// one worker/shard emits the pair.
    #[test]
    fn boundary_reference_point_has_exactly_one_owner() {
        let grid = TileGrid::new(Rect::from_bounds(0.0, 0.0, 100.0, 100.0), 10, 10);
        for p in [
            Point::new(30.0, 50.0),   // on a vertical shared edge
            Point::new(50.0, 30.0),   // on a horizontal shared edge
            Point::new(30.0, 30.0),   // on a shared corner
            Point::new(0.0, 0.0),     // world min corner
            Point::new(100.0, 100.0), // world max corner
            Point::new(100.0, 40.0),  // world max edge, interior row
        ] {
            let owner = grid.tile_of_point(p);
            // Every tile whose closed rect contains p must include the
            // owner in its overlap set; counting owners across the whole
            // grid via tile_of_point yields exactly one by construction,
            // so instead verify consistency: any rect touching p covers
            // the owner tile.
            let probe = Rect::from_bounds(p.x, p.y, p.x, p.y);
            let covering: Vec<usize> = grid.tiles_overlapping(&probe).collect();
            assert_eq!(covering, vec![owner], "point {p:?}");
        }
    }

    /// Reference points engineered to land exactly on shared tile edges:
    /// the parallel join must still match nested loop with no duplicates.
    /// With 16 tuples total, `tiles_per_axis` clamps to 2, so the grid
    /// lines of the union world [0,100]² sit at x = 50 / y = 50; the S
    /// rects start exactly there, putting each intersection's lo corner
    /// (the reference point) exactly on a shared edge or corner.
    #[test]
    fn partition_join_exact_on_boundary_reference_points() {
        let mut p = pool(64);
        let r_rects = [
            (0.0, 0.0, 50.0, 50.0), // the four quadrants pin the world to [0,100]²
            (50.0, 0.0, 100.0, 50.0),
            (0.0, 50.0, 50.0, 100.0),
            (50.0, 50.0, 100.0, 100.0),
            (25.0, 25.0, 50.0, 50.0), // hi corner exactly on the grid cross
            (0.0, 25.0, 50.0, 75.0),
            (25.0, 50.0, 75.0, 100.0),
            (50.0, 25.0, 100.0, 75.0),
        ];
        let s_rects = [
            (50.0, 50.0, 60.0, 60.0), // lo corner exactly on the grid cross
            (50.0, 0.0, 60.0, 10.0),
            (0.0, 50.0, 10.0, 60.0),
            (50.0, 25.0, 100.0, 75.0),
            (25.0, 50.0, 75.0, 100.0),
            (50.0, 50.0, 100.0, 100.0),
            (40.0, 50.0, 60.0, 70.0),
            (50.0, 40.0, 70.0, 60.0),
        ];
        let r_tuples: Vec<(u64, Geometry)> = r_rects
            .iter()
            .enumerate()
            .map(|(i, &(a, b, c, d))| (i as u64, Geometry::Rect(Rect::from_bounds(a, b, c, d))))
            .collect();
        let s_tuples: Vec<(u64, Geometry)> = s_rects
            .iter()
            .enumerate()
            .map(|(i, &(a, b, c, d))| {
                (
                    1_000 + i as u64,
                    Geometry::Rect(Rect::from_bounds(a, b, c, d)),
                )
            })
            .collect();
        let r = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
        let s = StoredRelation::build(&mut p, &s_tuples, 300, Layout::Clustered);
        for theta in [ThetaOp::Overlaps, ThetaOp::WithinDistance(5.0)] {
            let want = sorted(
                nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null)
                    .unwrap()
                    .pairs,
            );
            for threads in [1, 2, 4] {
                let run = partition_join(
                    &mut p,
                    &r,
                    &s,
                    theta,
                    Parallelism::with_threads(threads),
                    &mut TraceSink::Null,
                )
                .unwrap();
                let mut got = run.pairs.clone();
                let n_raw = got.len();
                got.sort_unstable();
                got.dedup();
                assert_eq!(got.len(), n_raw, "boundary pair emitted twice ({theta:?})");
                assert_eq!(got, want, "theta {theta:?} with {threads} threads");
            }
        }
    }

    /// Satellite fix: `tiles_per_axis` is clamped so tiny inputs never
    /// degenerate to a single tile and huge inputs stop at 64 per axis.
    #[test]
    fn tiles_per_axis_is_clamped_and_monotone() {
        assert_eq!(tiles_per_axis(0), 2);
        assert_eq!(tiles_per_axis(1), 2);
        assert_eq!(tiles_per_axis(511), 2);
        assert_eq!(tiles_per_axis(usize::MAX / 2), 64);
        let mut prev = 0;
        for n in [0, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000] {
            let t = tiles_per_axis(n);
            assert!((2..=64).contains(&t), "tiles_per_axis({n}) = {t}");
            assert!(t >= prev, "tiles_per_axis not monotone at {n}");
            prev = t;
        }
    }
}
