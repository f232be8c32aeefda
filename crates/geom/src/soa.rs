//! Structure-of-arrays MBR chunks and branch-free batched filter masks.
//!
//! Every Θ-filter hot path in this workspace ultimately evaluates one of
//! two rectangle predicates against a stream of candidate MBRs:
//! rectangle intersection ([`Rect::intersects`]) or an ε-threshold on the
//! closest-point distance ([`Rect::min_distance`]` <= ε`). Evaluated one
//! rectangle at a time over `Vec<Rect>`, each test is a short chain of
//! compares with data-dependent branches — the CPU mispredicts on
//! irregular data and the loads gather `lo.x, lo.y, hi.x, hi.y` from
//! interleaved 32-byte structs.
//!
//! [`RectChunks`] transposes the storage: the four rectangle coordinates
//! live in four contiguous `f64` arrays, grouped in fixed-width chunks of
//! [`LANES`] rectangles. The mask kernels ([`RectChunks::overlap_mask`],
//! [`RectChunks::within_mask`]) evaluate one probe rectangle against a
//! whole chunk with **straight-line min/max/compare arithmetic** — no
//! early-exit branches, one result bit per lane — which LLVM
//! auto-vectorizes into SIMD compares over the lane arrays. A batched
//! caller tests [`LANES`] candidates per call and then iterates the
//! surviving bits, so branches move from "per rectangle comparison" to
//! "per surviving candidate".
//!
//! ## Padding contract
//!
//! Chunk storage is always a whole number of chunks. Lanes that carry no
//! rectangle (the ragged tail of a run, or the gap created by
//! [`RectChunks::align`]) hold the *empty rectangle* `lo = +∞, hi = -∞`,
//! chosen so that every mask kernel reports `0` for them with no special
//! casing: `+∞ <= x` is false for every finite `x` (overlap and x-reach
//! fail), and the padded lane's axis gaps evaluate to `+∞` (the distance
//! test fails for every finite ε). Callers therefore never need a
//! tail-length branch inside the kernel.
//!
//! ## Exactness contract
//!
//! The kernels replicate the *exact* floating-point expressions of the
//! scalar predicates — [`within_mask`](RectChunks::within_mask) computes
//! `max(b.lo - a.hi, a.lo - b.hi, 0)` per axis and `sqrt(dx² + dy²) <= ε`
//! in the same operation order as [`Rect::min_distance`] — so a mask bit
//! is `1` **iff** the scalar predicate returns `true`, bit for bit, on
//! every input including negative ε and degenerate rectangles. Both
//! predicates are symmetric in their arguments, which is what lets one
//! probe-vs-lanes kernel serve filters written in either orientation.
//! This equivalence is property-tested (see the tests below and
//! `crates/joins/tests/prop_sweep.rs`).

use crate::rect::Rect;
use crate::theta::MaskFilter;

/// Rectangles per chunk. Eight `f64` lanes fill two AVX2 vectors (four
/// AVX-512 lanes each) per coordinate array and keep the result mask in
/// the low byte of a `u16`.
pub const LANES: usize = 8;

/// All-lanes mask: the low [`LANES`] bits set.
pub const FULL_MASK: u16 = (1u16 << LANES) - 1;

/// One chunk's four coordinate arrays `(lo_x, lo_y, hi_x, hi_y)`: what
/// every mask kernel reads.
type LaneRefs<'a> = (
    &'a [f64; LANES],
    &'a [f64; LANES],
    &'a [f64; LANES],
    &'a [f64; LANES],
);

/// One free-standing chunk of [`LANES`] MBRs under the padding contract
/// of the module docs — the unit a store that is not one contiguous
/// [`RectChunks`] (a tree's child runs, copied chunk by chunk) keeps its
/// lanes in, probed by the same kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RectLanes {
    lo_x: [f64; LANES],
    lo_y: [f64; LANES],
    hi_x: [f64; LANES],
    hi_y: [f64; LANES],
}

impl RectLanes {
    /// Every lane padding: all masks read `0`.
    pub const EMPTY: RectLanes = RectLanes {
        lo_x: [f64::INFINITY; LANES],
        lo_y: [f64::INFINITY; LANES],
        hi_x: [f64::NEG_INFINITY; LANES],
        hi_y: [f64::NEG_INFINITY; LANES],
    };

    /// Stores `r` in `lane`.
    pub fn set(&mut self, lane: usize, r: &Rect) {
        self.lo_x[lane] = r.lo.x;
        self.lo_y[lane] = r.lo.y;
        self.hi_x[lane] = r.hi.x;
        self.hi_y[lane] = r.hi.y;
    }

    /// [`RectChunks::filter_mask`] over this chunk.
    #[inline]
    pub fn filter_mask(&self, probe: &Rect, filter: MaskFilter) -> u16 {
        filter_lanes(
            (&self.lo_x, &self.lo_y, &self.hi_x, &self.hi_y),
            probe,
            filter,
        )
    }
}

/// MBRs stored as four contiguous coordinate arrays in fixed-width
/// chunks of [`LANES`], with ±∞ padding lanes (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct RectChunks {
    lo_x: Vec<f64>,
    lo_y: Vec<f64>,
    hi_x: Vec<f64>,
    hi_y: Vec<f64>,
    /// Rectangles actually pushed (padding lanes excluded).
    len: usize,
    /// Next write position in the lane arrays (padding lanes included).
    cursor: usize,
}

impl RectChunks {
    /// An empty chunk store.
    pub fn new() -> Self {
        RectChunks::default()
    }

    /// An empty store with capacity for `n` rectangles.
    pub fn with_capacity(n: usize) -> Self {
        let cap = n.div_ceil(LANES) * LANES;
        RectChunks {
            lo_x: Vec::with_capacity(cap),
            lo_y: Vec::with_capacity(cap),
            hi_x: Vec::with_capacity(cap),
            hi_y: Vec::with_capacity(cap),
            len: 0,
            cursor: 0,
        }
    }

    /// Builds a store holding `rects` in order, one contiguous run.
    pub fn from_rects(rects: &[Rect]) -> Self {
        let mut c = RectChunks::with_capacity(rects.len());
        for r in rects {
            c.push(r);
        }
        c
    }

    /// Number of rectangles pushed (padding lanes excluded).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rectangle has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of whole chunks in storage (including final padding).
    pub fn num_chunks(&self) -> usize {
        self.lo_x.len() / LANES
    }

    /// Removes all rectangles, retaining the allocation.
    pub fn clear(&mut self) {
        self.lo_x.clear();
        self.lo_y.clear();
        self.hi_x.clear();
        self.hi_y.clear();
        self.len = 0;
        self.cursor = 0;
    }

    /// Appends a rectangle at the next lane, growing storage by a whole
    /// padded chunk when the current one is full.
    pub fn push(&mut self, r: &Rect) {
        if self.cursor == self.lo_x.len() {
            self.lo_x.extend([f64::INFINITY; LANES]);
            self.lo_y.extend([f64::INFINITY; LANES]);
            self.hi_x.extend([f64::NEG_INFINITY; LANES]);
            self.hi_y.extend([f64::NEG_INFINITY; LANES]);
        }
        self.lo_x[self.cursor] = r.lo.x;
        self.lo_y[self.cursor] = r.lo.y;
        self.hi_x[self.cursor] = r.hi.x;
        self.hi_y[self.cursor] = r.hi.y;
        self.cursor += 1;
        self.len += 1;
    }

    /// Seals the current chunk: the next [`push`](RectChunks::push)
    /// starts a fresh chunk, leaving the remaining lanes of the current
    /// one as padding. Used to store many independent runs (e.g. one per
    /// tree node) that must each start chunk-aligned.
    pub fn align(&mut self) {
        self.cursor = self.lo_x.len();
    }

    /// The chunk index the next push writes into (valid only directly
    /// after [`align`](RectChunks::align) or on a fresh store).
    pub fn next_chunk(&self) -> usize {
        debug_assert_eq!(self.cursor % LANES, 0, "call align() first");
        self.cursor / LANES
    }

    /// The lane coordinates of `chunk` as four fixed-size arrays
    /// `(lo_x, lo_y, hi_x, hi_y)`.
    #[inline]
    fn lanes(&self, chunk: usize) -> LaneRefs<'_> {
        let base = chunk * LANES;
        let lx: &[f64; LANES] = self.lo_x[base..base + LANES]
            .try_into()
            .expect("chunk-aligned storage");
        let ly: &[f64; LANES] = self.lo_y[base..base + LANES]
            .try_into()
            .expect("chunk-aligned storage");
        let hx: &[f64; LANES] = self.hi_x[base..base + LANES]
            .try_into()
            .expect("chunk-aligned storage");
        let hy: &[f64; LANES] = self.hi_y[base..base + LANES]
            .try_into()
            .expect("chunk-aligned storage");
        (lx, ly, hx, hy)
    }

    // mask-kernel-begin -- straight-line lane arithmetic only: no
    // early-exit branches and no allocation (CI greps this region).

    /// Lanes whose rectangle intersects `probe` (closed-interval
    /// semantics, exactly [`Rect::intersects`] per lane). Bit `l` of the
    /// result is lane `l` of `chunk`; padding lanes are always `0`.
    #[inline]
    pub fn overlap_mask(&self, probe: &Rect, chunk: usize) -> u16 {
        overlap_lanes(self.lanes(chunk), probe)
    }

    /// Lanes whose closest-point distance to `probe` is `<= eps` — the
    /// ε-expanded variant backing [`crate::theta::ThetaOp::filter_radius`]
    /// operators. Replicates [`Rect::min_distance`]'s exact expression
    /// order (`max(b.lo - a.hi, a.lo - b.hi, 0)` per axis, then
    /// `sqrt(dx² + dy²)`), so the bit equals the scalar
    /// `probe.min_distance(lane) <= eps` for every input, including
    /// negative `eps`. Padding lanes are always `0`.
    #[inline]
    pub fn within_mask(&self, probe: &Rect, eps: f64, chunk: usize) -> u16 {
        within_lanes(self.lanes(chunk), probe, eps)
    }

    /// Lanes with `lo.x <= hi_x` — the forward-scan reach test. Within a
    /// run sorted by `lo.x` the result is always a prefix of the chunk,
    /// so a partial mask means every later lane (and chunk) fails too.
    /// Padding lanes are always `0`.
    #[inline]
    pub fn x_reach_mask(&self, hi_x: f64, chunk: usize) -> u16 {
        let (lx, _, _, _) = self.lanes(chunk);
        let mut mask = 0u16;
        for (lane, lo) in lx.iter().enumerate() {
            mask |= ((*lo <= hi_x) as u16) << lane;
        }
        mask
    }

    /// Lanes whose y-interval overlaps `probe`'s (the sweep's inline
    /// y-precheck). Padding lanes are always `0`.
    #[inline]
    pub fn y_overlap_mask(&self, probe: &Rect, chunk: usize) -> u16 {
        let (_, ly, _, hy) = self.lanes(chunk);
        let mut mask = 0u16;
        for lane in 0..LANES {
            let hit = (ly[lane] <= probe.hi.y) & (probe.lo.y <= hy[lane]);
            mask |= (hit as u16) << lane;
        }
        mask
    }

    /// Dispatches to the mask kernel matching a precompiled
    /// [`MaskFilter`]: [`overlap_mask`](RectChunks::overlap_mask) for
    /// [`MaskFilter::Overlap`], [`within_mask`](RectChunks::within_mask)
    /// for [`MaskFilter::Within`]. Bit `l` equals
    /// `filter.eval(&probe, &lane_l)` (both predicates are symmetric).
    #[inline]
    pub fn filter_mask(&self, probe: &Rect, filter: MaskFilter, chunk: usize) -> u16 {
        filter_lanes(self.lanes(chunk), probe, filter)
    }
}

#[inline]
fn filter_lanes(lanes: LaneRefs<'_>, probe: &Rect, filter: MaskFilter) -> u16 {
    match filter {
        MaskFilter::Overlap => overlap_lanes(lanes, probe),
        MaskFilter::Within(eps) => within_lanes(lanes, probe, eps),
    }
}

#[inline]
fn overlap_lanes((lx, ly, hx, hy): LaneRefs<'_>, probe: &Rect) -> u16 {
    let mut mask = 0u16;
    for lane in 0..LANES {
        let hit = (lx[lane] <= probe.hi.x)
            & (probe.lo.x <= hx[lane])
            & (ly[lane] <= probe.hi.y)
            & (probe.lo.y <= hy[lane]);
        mask |= (hit as u16) << lane;
    }
    mask
}

#[inline]
fn within_lanes((lx, ly, hx, hy): LaneRefs<'_>, probe: &Rect, eps: f64) -> u16 {
    let mut mask = 0u16;
    for lane in 0..LANES {
        let dx = (lx[lane] - probe.hi.x).max(probe.lo.x - hx[lane]).max(0.0);
        let dy = (ly[lane] - probe.hi.y).max(probe.lo.y - hy[lane]).max(0.0);
        let hit = (dx * dx + dy * dy).sqrt() <= eps;
        mask |= (hit as u16) << lane;
    }
    mask
}

// mask-kernel-end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theta::ThetaOp;
    use crate::EPSILON;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::from_bounds(x0, y0, x1, y1)
    }

    /// Pseudo-random but deterministic rectangle soup (includes
    /// degenerate point-rects via zero widths).
    fn soup(n: usize, salt: u64) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let k = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(salt);
                let x = (k % 997) as f64 / 997.0 * 100.0;
                let y = (k / 997 % 997) as f64 / 997.0 * 100.0;
                let w = (k % 31) as f64;
                let h = (k % 13) as f64;
                rect(x, y, x + w, y + h)
            })
            .collect()
    }

    /// Collects the mask kernel's verdict for every stored rectangle of a
    /// single contiguous run.
    fn mask_bits(chunks: &RectChunks, probe: &Rect, f: MaskFilter) -> Vec<bool> {
        (0..chunks.len())
            .map(|i| chunks.filter_mask(probe, f, i / LANES) >> (i % LANES) & 1 == 1)
            .collect()
    }

    #[test]
    fn overlap_mask_equals_scalar_intersects_for_all_lane_counts() {
        // Every ragged-tail shape from empty through four full chunks.
        for n in 0..=(4 * LANES + 1) {
            let rects = soup(n, 7);
            let chunks = RectChunks::from_rects(&rects);
            assert_eq!(chunks.len(), n);
            assert_eq!(chunks.num_chunks(), n.div_ceil(LANES));
            for probe in soup(17, 1234) {
                let want: Vec<bool> = rects.iter().map(|r| probe.intersects(r)).collect();
                let got = mask_bits(&chunks, &probe, MaskFilter::Overlap);
                assert_eq!(got, want, "n={n} probe={probe:?}");
                // Padding lanes beyond the tail must stay clear.
                if n % LANES != 0 {
                    let tail = chunks.filter_mask(&probe, MaskFilter::Overlap, n / LANES);
                    assert_eq!(tail >> (n % LANES), 0, "padding lanes set at n={n}");
                }
            }
        }
    }

    #[test]
    fn within_mask_equals_scalar_min_distance_for_all_lane_counts() {
        for n in [0, 1, LANES - 1, LANES, LANES + 1, 3 * LANES - 2] {
            let rects = soup(n, 99);
            let chunks = RectChunks::from_rects(&rects);
            for probe in soup(11, 5) {
                for eps in [-1.0, 0.0, EPSILON, 2.5, 40.0] {
                    let want: Vec<bool> =
                        rects.iter().map(|r| probe.min_distance(r) <= eps).collect();
                    let got = mask_bits(&chunks, &probe, MaskFilter::Within(eps));
                    assert_eq!(got, want, "n={n} eps={eps} probe={probe:?}");
                }
            }
        }
    }

    #[test]
    fn within_mask_agrees_with_symmetric_argument_order() {
        // min_distance is symmetric in exact floating point (the per-axis
        // max just swaps operands), which the one-probe kernel relies on.
        let rects = soup(25, 3);
        let chunks = RectChunks::from_rects(&rects);
        for probe in soup(9, 77) {
            for eps in [0.0, 3.0, 17.5] {
                for (i, r) in rects.iter().enumerate() {
                    let bit = chunks.within_mask(&probe, eps, i / LANES) >> (i % LANES) & 1 == 1;
                    assert_eq!(bit, r.min_distance(&probe) <= eps, "lane order swapped");
                }
            }
        }
    }

    #[test]
    fn x_reach_is_a_prefix_on_sorted_runs() {
        let mut rects = soup(30, 42);
        rects.sort_by(|a, b| a.lo.x.partial_cmp(&b.lo.x).unwrap());
        let chunks = RectChunks::from_rects(&rects);
        for hi_x in [-1.0, 10.0, 55.0, 120.0, 1e9] {
            for c in 0..chunks.num_chunks() {
                let m = chunks.x_reach_mask(hi_x, c);
                // A prefix mask has no set bit above a clear bit.
                assert_eq!(m & (m + 1) & FULL_MASK, 0, "non-prefix mask {m:#x}");
                for lane in 0..LANES {
                    let i = c * LANES + lane;
                    let want = i < rects.len() && rects[i].lo.x <= hi_x;
                    assert_eq!(m >> lane & 1 == 1, want);
                }
            }
        }
    }

    #[test]
    fn y_overlap_mask_matches_scalar_intervals() {
        let rects = soup(21, 8);
        let chunks = RectChunks::from_rects(&rects);
        for probe in soup(9, 13) {
            for (i, r) in rects.iter().enumerate() {
                let bit = chunks.y_overlap_mask(&probe, i / LANES) >> (i % LANES) & 1 == 1;
                assert_eq!(bit, r.lo.y <= probe.hi.y && probe.lo.y <= r.hi.y);
            }
        }
    }

    #[test]
    fn aligned_runs_keep_interior_padding_clear() {
        // Two runs sealed with align(): a 3-rect run and a 5-rect run,
        // each starting its own chunk.
        let mut chunks = RectChunks::new();
        let run_a = soup(3, 1);
        let run_b = soup(5, 2);
        assert_eq!(chunks.next_chunk(), 0);
        for r in &run_a {
            chunks.push(r);
        }
        chunks.align();
        assert_eq!(chunks.next_chunk(), 1);
        for r in &run_b {
            chunks.push(r);
        }
        chunks.align();
        assert_eq!(chunks.num_chunks(), 2);
        assert_eq!(chunks.len(), 8);

        let everything = rect(-1e6, -1e6, 1e6, 1e6);
        let m0 = chunks.overlap_mask(&everything, 0);
        let m1 = chunks.overlap_mask(&everything, 1);
        assert_eq!(m0, 0b0000_0111, "run A occupies lanes 0..3 of chunk 0");
        assert_eq!(m1, 0b0001_1111, "run B occupies lanes 0..5 of chunk 1");
    }

    /// A free-standing lane group answers exactly as the same rectangles
    /// in a `RectChunks` chunk do, padding lanes included.
    #[test]
    fn rect_lanes_answer_as_a_rect_chunks_chunk_does() {
        for n in [0, 1, 5, LANES] {
            let rects = soup(n, 11);
            let chunks = RectChunks::from_rects(&rects);
            let mut lanes = RectLanes::EMPTY;
            for (lane, r) in rects.iter().enumerate() {
                lanes.set(lane, r);
            }
            for probe in soup(9, 5) {
                for f in [MaskFilter::Overlap, MaskFilter::Within(4.5)] {
                    let want = if n == 0 {
                        0
                    } else {
                        chunks.filter_mask(&probe, f, 0)
                    };
                    assert_eq!(lanes.filter_mask(&probe, f), want, "n={n} {f:?}");
                }
            }
        }
    }

    #[test]
    fn mask_filter_dispatch_matches_theta_filter() {
        let rects = soup(19, 4);
        let chunks = RectChunks::from_rects(&rects);
        for theta in [
            ThetaOp::Overlaps,
            ThetaOp::Includes,
            ThetaOp::ContainedIn,
            ThetaOp::Adjacent,
            ThetaOp::WithinDistance(6.0),
            ThetaOp::WithinCenterDistance(-2.0),
            ThetaOp::ReachableWithin {
                minutes: 3.0,
                speed: 1.5,
            },
        ] {
            let mf = theta.mask_filter().expect("bounded operator");
            for probe in soup(7, 21) {
                for (i, r) in rects.iter().enumerate() {
                    let bit = chunks.filter_mask(&probe, mf, i / LANES) >> (i % LANES) & 1 == 1;
                    assert_eq!(bit, theta.filter(&probe, r), "{theta:?}");
                    assert_eq!(bit, theta.filter(r, &probe), "{theta:?} swapped");
                }
            }
        }
    }

    #[test]
    fn clear_retains_capacity_and_resets_state() {
        let mut chunks = RectChunks::from_rects(&soup(20, 6));
        assert!(!chunks.is_empty());
        chunks.clear();
        assert!(chunks.is_empty());
        assert_eq!(chunks.len(), 0);
        assert_eq!(chunks.num_chunks(), 0);
        chunks.push(&rect(0.0, 0.0, 1.0, 1.0));
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks.num_chunks(), 1);
        assert_eq!(chunks.overlap_mask(&rect(0.5, 0.5, 2.0, 2.0), 0), 1);
    }
}
