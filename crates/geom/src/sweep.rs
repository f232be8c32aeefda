//! Forward-scan plane-sweep kernel for Θ-filter candidate generation.
//!
//! Every filter step in a spatial join ultimately asks the same question:
//! *which pairs of MBRs pass the conservative Θ-filter of the operator?*
//! Answering it with a nested loop costs `|L|·|R|` Θ-evaluations. For the
//! operators whose Θ-filter region is **bounded** — an ε-expanded
//! rectangle intersection, see [`ThetaOp::filter_radius`] — a plane sweep
//! answers it in `O(n log n + k)` where `k` is the number of pairs whose
//! x-intervals actually overlap:
//!
//! 1. expand the left-hand MBRs by the operator's filter radius ε (the
//!    **ε-gap rule**: `Θ(a, b)` implies `a.expand(ε)` intersects `b`, so
//!    no qualifying pair is lost by looking only at expanded overlaps);
//! 2. sort both sides by the low x-coordinate of their sweep rectangles;
//! 3. merge the two sorted lists: whichever side owns the next smallest
//!    `lo.x` forward-scans the other list while `other.lo.x ≤ self.hi.x`,
//!    so each x-overlapping pair is examined exactly once;
//! 4. check y-overlap inline and confirm with the operator's *exact*
//!    Θ-filter (Table 1 semantics — e.g. Euclidean corner gaps for the
//!    distance operators, which the L∞ expansion over-approximates).
//!
//! The emitted candidate set is therefore **identical** to the quadratic
//! filter's (a property-tested invariant), only cheaper to compute.
//! Directional predicates ([`ThetaOp::DirectionOf`]) have half-plane
//! filter regions that no bounded expansion covers; callers must keep a
//! nested-loop fallback for them (`filter_radius` returns `None`).
//!
//! Coordinates are assumed finite (no NaN), which every generator and
//! codec in this workspace guarantees.

use crate::rect::Rect;
use crate::soa::{RectChunks, FULL_MASK, LANES};
use crate::theta::{MaskFilter, ThetaOp};

/// One MBR prepared for the sweep: `key` is an opaque caller-side handle
/// (an index into the caller's tuple list), `sweep` the ε-expanded
/// rectangle whose x/y intervals drive the scan, and `mbr` the original
/// rectangle the exact Θ-filter is evaluated on.
#[derive(Debug, Clone, Copy)]
pub struct SweepItem {
    /// Caller-side handle, passed back through the emit callback.
    pub key: u32,
    /// Interval source for the scan (possibly ε-expanded).
    pub sweep: Rect,
    /// Original MBR, used for the exact Θ-filter evaluation.
    pub mbr: Rect,
}

impl SweepItem {
    /// An item whose sweep rectangle is the MBR itself (ε = 0 side).
    pub fn new(key: u32, mbr: Rect) -> Self {
        SweepItem {
            key,
            sweep: mbr,
            mbr,
        }
    }

    /// An item swept with the ε-expanded MBR (the left/R side of a
    /// bounded-filter operator).
    pub fn expanded(key: u32, mbr: Rect, eps: f64) -> Self {
        SweepItem {
            key,
            sweep: mbr.expand(eps),
            mbr,
        }
    }
}

/// Which filter kernel executes the inner forward scans of
/// [`sweep_candidates_with`].
///
/// Both kernels produce the **same comparison count and the same
/// emission sequence** on every input (a property-tested invariant);
/// they differ only in how the per-candidate arithmetic is laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// One candidate per iteration: branchy compares over the
    /// array-of-structs `SweepItem` slice. The reference semantics.
    Scalar,
    /// Structure-of-arrays chunks ([`crate::soa::RectChunks`]): each
    /// forward scan tests [`LANES`] candidates per branch-free mask
    /// call and iterates only the surviving bits. Falls back to the
    /// scalar inner loop for directional operators (no
    /// [`ThetaOp::mask_filter`] form).
    Batched,
}

/// Below this many items per side the auto-selected kernel stays
/// scalar: transposing into chunks costs more than the masks save.
pub const BATCH_MIN: usize = 2 * LANES;

/// Forward-scan plane sweep over two prepared MBR lists.
///
/// Calls `emit(l.key, r.key)` exactly once for every pair that passes the
/// exact Θ-filter `theta.filter(&l.mbr, &r.mbr)` — the same candidate set
/// a quadratic double loop over `left × right` would produce, provided
/// the sweep rectangles cover the filter region (left side expanded by
/// [`ThetaOp::filter_radius`], the contract of the ε-gap rule).
///
/// Both slices are sorted in place by `(sweep.lo.x, key)`; the tie-break
/// on `key` makes the examination *and emission order deterministic* for
/// a given input set, independent of the input order, so a join's pair
/// order and counters depend on the data alone.
///
/// Picks the batched kernel for inputs large enough to amortize the
/// chunk transposition (see [`BATCH_MIN`]); the result is identical
/// either way. Returns the number of pairs examined by the scan
/// (x-interval overlaps), the sweep's measure of Θ-filter work.
pub fn sweep_candidates(
    left: &mut [SweepItem],
    right: &mut [SweepItem],
    theta: ThetaOp,
    emit: &mut impl FnMut(u32, u32),
) -> u64 {
    let kernel = if left.len().min(right.len()) < BATCH_MIN {
        Kernel::Scalar
    } else {
        Kernel::Batched
    };
    sweep_candidates_with(left, right, theta, kernel, emit)
}

/// [`sweep_candidates`] with an explicit kernel choice (no size
/// heuristic). `Kernel::Batched` engages the mask kernel whenever the
/// operator has a [`ThetaOp::mask_filter`] form, even for tiny inputs —
/// which is what lets equivalence tests cover the batched path on
/// arbitrary sizes including ragged tails.
pub fn sweep_candidates_with(
    left: &mut [SweepItem],
    right: &mut [SweepItem],
    theta: ThetaOp,
    kernel: Kernel,
    emit: &mut impl FnMut(u32, u32),
) -> u64 {
    if left.is_empty() || right.is_empty() {
        return 0;
    }
    let by_lo_x =
        |a: &SweepItem, b: &SweepItem| (a.sweep.lo.x, a.key).partial_cmp(&(b.sweep.lo.x, b.key));
    left.sort_unstable_by(|a, b| by_lo_x(a, b).expect("finite coordinates"));
    right.sort_unstable_by(|a, b| by_lo_x(a, b).expect("finite coordinates"));

    // The Θ-filter constant (ε, minutes·speed, …) is folded exactly once
    // per sweep — never per pair — on both kernel paths.
    match (kernel, theta.mask_filter()) {
        (Kernel::Batched, Some(mf)) => merge_batched(left, right, mf, emit),
        (_, Some(mf)) => merge_scalar(left, right, &|a, b| mf.eval(a, b), emit),
        // Directional operators keep the orientation-sensitive filter.
        (_, None) => merge_scalar(left, right, &|a, b| theta.filter(a, b), emit),
    }
}

/// The reference merge: scalar forward scans, one candidate at a time.
fn merge_scalar(
    left: &[SweepItem],
    right: &[SweepItem],
    filter: &impl Fn(&Rect, &Rect) -> bool,
    emit: &mut impl FnMut(u32, u32),
) -> u64 {
    let mut comparisons = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        if left[i].sweep.lo.x <= right[j].sweep.lo.x {
            let l = &left[i];
            for r in &right[j..] {
                if r.sweep.lo.x > l.sweep.hi.x {
                    break;
                }
                comparisons += 1;
                if check(l, r, filter) {
                    emit(l.key, r.key);
                }
            }
            i += 1;
        } else {
            let r = &right[j];
            for l in &left[i..] {
                if l.sweep.lo.x > r.sweep.hi.x {
                    break;
                }
                comparisons += 1;
                if check(l, r, filter) {
                    emit(l.key, r.key);
                }
            }
            j += 1;
        }
    }
    comparisons
}

/// Inline y-overlap pre-check on the sweep rectangles, then the exact
/// Θ-filter on the original MBRs.
#[inline]
fn check(l: &SweepItem, r: &SweepItem, filter: &impl Fn(&Rect, &Rect) -> bool) -> bool {
    l.sweep.lo.y <= r.sweep.hi.y && r.sweep.lo.y <= l.sweep.hi.y && filter(&l.mbr, &r.mbr)
}

/// One sorted side transposed into SoA chunks: sweep rectangles drive
/// the x-reach and y-overlap masks, original MBRs the Θ-filter mask,
/// and `keys` maps surviving lanes back to caller handles.
#[derive(Default)]
struct ChunkedSide {
    sweep: RectChunks,
    mbr: RectChunks,
    keys: Vec<u32>,
}

impl ChunkedSide {
    /// Re-transposes `items` into this side, keeping prior allocations.
    fn refill(&mut self, items: &[SweepItem]) {
        self.sweep.clear();
        self.mbr.clear();
        self.keys.clear();
        for it in items {
            self.sweep.push(&it.sweep);
            self.mbr.push(&it.mbr);
            self.keys.push(it.key);
        }
    }
}

std::thread_local! {
    /// Per-thread chunk scratch, reused across sweeps. Tile-grained
    /// callers (PBSM runs one sweep per tile) would otherwise pay a
    /// fresh round of lane-array allocations per tile, which at a few
    /// hundred tuples per tile is comparable to the mask savings.
    static CHUNK_SCRATCH: std::cell::Cell<Option<Box<(ChunkedSide, ChunkedSide)>>> =
        const { std::cell::Cell::new(None) };
}

/// The batched merge: same outer structure as [`merge_scalar`], but each
/// inner forward scan walks whole chunks, testing [`LANES`] candidates
/// per mask call.
fn merge_batched(
    left: &[SweepItem],
    right: &[SweepItem],
    mf: MaskFilter,
    emit: &mut impl FnMut(u32, u32),
) -> u64 {
    // Take the scratch out for the duration of the merge; a reentrant
    // sweep from inside `emit` simply finds the slot empty and pays for
    // its own transient pair.
    let mut scratch = CHUNK_SCRATCH.with(|s| s.take()).unwrap_or_default();
    let (lc, rc) = &mut *scratch;
    lc.refill(left);
    rc.refill(right);
    let mut comparisons = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        if left[i].sweep.lo.x <= right[j].sweep.lo.x {
            let l = &left[i];
            comparisons += scan_chunked(rc, j, l, mf, &mut |k| emit(l.key, k));
            i += 1;
        } else {
            let r = &right[j];
            comparisons += scan_chunked(lc, i, r, mf, &mut |k| emit(k, r.key));
            j += 1;
        }
    }
    CHUNK_SCRATCH.with(|s| s.set(Some(scratch)));
    comparisons
}

/// One chunked forward scan: examines the candidates from index `start`
/// whose `sweep.lo.x` reaches back into the probe's x-interval, exactly
/// the pairs the scalar scan counts.
///
/// Because the side is sorted by `lo.x`, the x-reach mask is always a
/// prefix of the chunk; a partial mask therefore proves every later
/// chunk fails too (padding lanes at the tail fail it by construction),
/// so the scan never over- or under-counts relative to the scalar
/// break. Survivors are emitted in ascending lane order — the scalar
/// emission order.
#[inline]
fn scan_chunked(
    side: &ChunkedSide,
    start: usize,
    probe: &SweepItem,
    mf: MaskFilter,
    emit_key: &mut impl FnMut(u32),
) -> u64 {
    let mut comparisons = 0u64;
    let mut chunk = start / LANES;
    // Lanes before `start` in the first chunk are already behind the
    // merge frontier and must not be re-examined.
    let mut live: u16 = FULL_MASK << (start % LANES) & FULL_MASK;
    let num_chunks = side.sweep.num_chunks();
    while chunk < num_chunks {
        let reach = side.sweep.x_reach_mask(probe.sweep.hi.x, chunk);
        let scan = reach & live;
        comparisons += u64::from(scan.count_ones());
        if scan != 0 {
            let pre = scan & side.sweep.y_overlap_mask(&probe.sweep, chunk);
            if pre != 0 {
                let mut hits = pre & side.mbr.filter_mask(&probe.mbr, mf, chunk);
                while hits != 0 {
                    let lane = hits.trailing_zeros() as usize;
                    emit_key(side.keys[chunk * LANES + lane]);
                    hits &= hits - 1;
                }
            }
        }
        if reach != FULL_MASK {
            break;
        }
        live = FULL_MASK;
        chunk += 1;
    }
    comparisons
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theta::Direction;
    use crate::EPSILON;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::from_bounds(x0, y0, x1, y1)
    }

    /// Pseudo-random but deterministic rectangle soup.
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

    fn quadratic(l: &[Rect], r: &[Rect], theta: ThetaOp) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (i, a) in l.iter().enumerate() {
            for (j, b) in r.iter().enumerate() {
                if theta.filter(a, b) {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn swept(l: &[Rect], r: &[Rect], theta: ThetaOp, eps: f64) -> (Vec<(u32, u32)>, u64) {
        let mut left: Vec<SweepItem> = l
            .iter()
            .enumerate()
            .map(|(i, m)| SweepItem::expanded(i as u32, *m, eps))
            .collect();
        let mut right: Vec<SweepItem> = r
            .iter()
            .enumerate()
            .map(|(j, m)| SweepItem::new(j as u32, *m))
            .collect();
        let mut pairs = Vec::new();
        let cmp = sweep_candidates(&mut left, &mut right, theta, &mut |a, b| pairs.push((a, b)));
        pairs.sort_unstable();
        (pairs, cmp)
    }

    #[test]
    fn matches_quadratic_filter_on_all_bounded_operators() {
        let l = soup(60, 7);
        let r = soup(70, 1234);
        for theta in [
            ThetaOp::Overlaps,
            ThetaOp::Includes,
            ThetaOp::ContainedIn,
            ThetaOp::Adjacent,
            ThetaOp::WithinDistance(8.0),
            ThetaOp::WithinCenterDistance(11.0),
            ThetaOp::ReachableWithin {
                minutes: 3.0,
                speed: 2.0,
            },
        ] {
            let eps = theta.filter_radius().expect("bounded operator");
            let (got, _) = swept(&l, &r, theta, eps);
            assert_eq!(got, quadratic(&l, &r, theta), "{theta:?}");
        }
    }

    #[test]
    fn emits_each_pair_exactly_once_under_heavy_overlap() {
        // Everything overlaps everything: k = n·m, no duplicates allowed.
        let l: Vec<Rect> = (0..20).map(|i| rect(i as f64, 0.0, 100.0, 50.0)).collect();
        let r: Vec<Rect> = (0..20).map(|i| rect(0.0, i as f64, 90.0, 60.0)).collect();
        let (got, cmp) = swept(&l, &r, ThetaOp::Overlaps, 0.0);
        assert_eq!(got.len(), 400);
        assert_eq!(cmp, 400);
        let mut dedup = got.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), got.len());
    }

    #[test]
    fn spread_data_examines_far_fewer_pairs_than_quadratic() {
        let l: Vec<Rect> = (0..200)
            .map(|i| rect(i as f64 * 10.0, 0.0, i as f64 * 10.0 + 1.0, 1.0))
            .collect();
        let r = l.clone();
        let (got, cmp) = swept(&l, &r, ThetaOp::Overlaps, 0.0);
        assert_eq!(got.len(), 200); // only the diagonal
        assert!(cmp < 1_000, "sweep examined {cmp} pairs (quadratic: 40000)");
    }

    #[test]
    fn epsilon_gap_rule_finds_distance_pairs_across_a_gap() {
        // Two columns 5 apart; within-distance 6 must pair them up.
        let l: Vec<Rect> = (0..10)
            .map(|i| rect(0.0, i as f64 * 20.0, 1.0, i as f64 * 20.0 + 1.0))
            .collect();
        let r: Vec<Rect> = (0..10)
            .map(|i| rect(6.0, i as f64 * 20.0, 7.0, i as f64 * 20.0 + 1.0))
            .collect();
        let theta = ThetaOp::WithinDistance(6.0);
        let (got, _) = swept(&l, &r, theta, theta.filter_radius().unwrap());
        assert_eq!(got, quadratic(&l, &r, theta));
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn exact_filter_rejects_l_infinity_corner_artifacts() {
        // Axis gaps of 4 each ⇒ L∞ gap 4 ≤ 5 (sweep examines the pair) but
        // Euclidean corner distance √32 > 5 (filter must reject it).
        let l = vec![rect(0.0, 0.0, 1.0, 1.0)];
        let r = vec![rect(5.0, 5.0, 6.0, 6.0)];
        let theta = ThetaOp::WithinDistance(5.0);
        let (got, cmp) = swept(&l, &r, theta, 5.0);
        assert!(got.is_empty());
        assert_eq!(cmp, 1);
        assert_eq!(got, quadratic(&l, &r, theta));
    }

    #[test]
    fn empty_sides_are_fine() {
        let some = vec![rect(0.0, 0.0, 1.0, 1.0)];
        let (got, cmp) = swept(&[], &some, ThetaOp::Overlaps, 0.0);
        assert!(got.is_empty());
        assert_eq!(cmp, 0);
        let (got, cmp) = swept(&some, &[], ThetaOp::Overlaps, 0.0);
        assert!(got.is_empty());
        assert_eq!(cmp, 0);
    }

    #[test]
    fn shared_borders_and_degenerate_rects() {
        // Closed-interval semantics: touching rectangles overlap; points
        // (degenerate rects) participate like everything else.
        let l = vec![rect(0.0, 0.0, 1.0, 1.0), rect(3.0, 3.0, 3.0, 3.0)];
        let r = vec![rect(1.0, 1.0, 2.0, 2.0), rect(3.0, 3.0, 3.0, 3.0)];
        for theta in [ThetaOp::Overlaps, ThetaOp::Adjacent] {
            let eps = theta.filter_radius().unwrap();
            let (got, _) = swept(&l, &r, theta, eps);
            assert_eq!(got, quadratic(&l, &r, theta), "{theta:?}");
        }
    }

    /// Runs one kernel end to end, returning the **raw** emission
    /// sequence (order-sensitive) and the comparison count.
    fn run_kernel(
        l: &[Rect],
        r: &[Rect],
        theta: ThetaOp,
        eps: f64,
        kernel: Kernel,
    ) -> (Vec<(u32, u32)>, u64) {
        let mut left: Vec<SweepItem> = l
            .iter()
            .enumerate()
            .map(|(i, m)| SweepItem::expanded(i as u32, *m, eps))
            .collect();
        let mut right: Vec<SweepItem> = r
            .iter()
            .enumerate()
            .map(|(j, m)| SweepItem::new(j as u32, *m))
            .collect();
        let mut pairs = Vec::new();
        let cmp = sweep_candidates_with(&mut left, &mut right, theta, kernel, &mut |a, b| {
            pairs.push((a, b))
        });
        (pairs, cmp)
    }

    #[test]
    fn batched_kernel_is_byte_identical_to_scalar() {
        // Every size class around the chunk width (ragged tails, exactly
        // full chunks, multi-chunk runs, and asymmetric sides), for every
        // bounded operator: the emission *sequence* and the comparison
        // count must match the scalar kernel exactly.
        let ops = [
            ThetaOp::Overlaps,
            ThetaOp::Includes,
            ThetaOp::ContainedIn,
            ThetaOp::Adjacent,
            ThetaOp::WithinDistance(8.0),
            ThetaOp::WithinCenterDistance(11.0),
            ThetaOp::ReachableWithin {
                minutes: 3.0,
                speed: 2.0,
            },
        ];
        for (nl, nr) in [(1, 1), (3, 9), (7, 8), (8, 8), (9, 17), (33, 40), (60, 70)] {
            let l = soup(nl, 7);
            let r = soup(nr, 1234);
            for theta in ops {
                let eps = theta.filter_radius().expect("bounded operator");
                let scalar = run_kernel(&l, &r, theta, eps, Kernel::Scalar);
                let batched = run_kernel(&l, &r, theta, eps, Kernel::Batched);
                assert_eq!(batched, scalar, "{theta:?} nl={nl} nr={nr}");
            }
        }
    }

    #[test]
    fn directional_operators_fall_back_identically_on_both_kernels() {
        let l = soup(40, 3);
        let r = soup(40, 5);
        let theta = ThetaOp::DirectionOf(Direction::NorthWest);
        // No bounded radius: sweep with the raw MBRs on both sides (the
        // executors use a nested loop instead, but the kernel contract
        // must still hold for whoever calls it directly).
        let scalar = run_kernel(&l, &r, theta, 0.0, Kernel::Scalar);
        let batched = run_kernel(&l, &r, theta, 0.0, Kernel::Batched);
        assert_eq!(batched, scalar);
    }

    #[test]
    fn auto_kernel_matches_forced_kernels() {
        let l = soup(50, 21);
        let r = soup(50, 22);
        let theta = ThetaOp::WithinDistance(6.0);
        let eps = theta.filter_radius().unwrap();
        let mut left: Vec<SweepItem> = l
            .iter()
            .enumerate()
            .map(|(i, m)| SweepItem::expanded(i as u32, *m, eps))
            .collect();
        let mut right: Vec<SweepItem> = r
            .iter()
            .enumerate()
            .map(|(j, m)| SweepItem::new(j as u32, *m))
            .collect();
        let mut auto_pairs = Vec::new();
        let auto_cmp = sweep_candidates(&mut left, &mut right, theta, &mut |a, b| {
            auto_pairs.push((a, b))
        });
        assert_eq!(
            (auto_pairs, auto_cmp),
            run_kernel(&l, &r, theta, eps, Kernel::Scalar)
        );
    }

    #[test]
    fn filter_radius_covers_table_1() {
        assert_eq!(ThetaOp::Overlaps.filter_radius(), Some(0.0));
        assert_eq!(ThetaOp::Includes.filter_radius(), Some(0.0));
        assert_eq!(ThetaOp::ContainedIn.filter_radius(), Some(0.0));
        assert_eq!(ThetaOp::WithinDistance(4.0).filter_radius(), Some(4.0));
        assert_eq!(
            ThetaOp::WithinCenterDistance(-1.0).filter_radius(),
            Some(0.0)
        );
        assert_eq!(
            ThetaOp::ReachableWithin {
                minutes: 2.0,
                speed: 3.0
            }
            .filter_radius(),
            Some(6.0)
        );
        assert_eq!(ThetaOp::Adjacent.filter_radius(), Some(EPSILON));
        assert_eq!(
            ThetaOp::DirectionOf(Direction::NorthWest).filter_radius(),
            None
        );
    }
}
