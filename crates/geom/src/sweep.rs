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
//! filter regions that no bounded expansion covers (`filter_radius`
//! returns `None`): [`theta_candidates`], the Θ-filter over two
//! in-memory MBR lists, tests all pairs for them, and sweeps otherwise.
//!
//! The radius ε may be `+∞` (`WithinDistance(∞)`): the left side's sweep
//! rectangles then have `±∞` bounds and every pair is examined. MBR
//! coordinates are finite (`Point::new` rejects anything else); a NaN
//! sweep bound panics.
//!
//! The kernel sorts private state, never the caller's slices. The
//! batched path sorts compact `(lo.x bits, key, index)` triples and
//! gathers the items once, in that order, into SoA chunks; the scalar
//! reference sorts a copy of the items under `partial_cmp`. Both orders
//! are `(sweep.lo.x, key)`, and their buffers are thread-local scratch
//! reused across calls, so a sweep allocates nothing once warm.

use std::borrow::Borrow;

use crate::geometry::{Bounded, Geometry};
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
/// [`ThetaOp::filter_radius`], the contract of the ε-gap rule). The
/// radius may be `+∞` (`WithinDistance(∞)`): every pair is then
/// examined.
///
/// The caller's slices are not reordered. Both sides are scanned in
/// `(sweep.lo.x, key)` order, a private sorted copy; the tie-break on
/// `key` makes the examination *and emission order deterministic* for
/// a given input set, independent of the input order, so a join's pair
/// order and counters depend on the data alone.
///
/// Picks the batched kernel for inputs large enough to amortize the
/// chunk transposition (see [`BATCH_MIN`]); the result is identical
/// either way. Returns the number of pairs examined by the scan
/// (x-interval overlaps), the sweep's measure of Θ-filter work.
pub fn sweep_candidates(
    left: &[SweepItem],
    right: &[SweepItem],
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

/// θ's Θ-candidates between two in-memory MBR lists, for every θ: calls
/// `emit(i, j)` exactly once for each pair with
/// `theta.filter(&left[i], &right[j])`. A bounded filter region
/// ([`ThetaOp::filter_radius`]) runs [`sweep_candidates`] over
/// ε-expanded left items; a directional θ, whose region no expansion
/// covers, tests all pairs. Callers θ-test the candidates themselves.
/// Returns the pairs examined: the sweep's comparisons, or
/// `|left|·|right|`.
pub fn theta_candidates(
    left: &[Rect],
    right: &[Rect],
    theta: ThetaOp,
    emit: &mut impl FnMut(u32, u32),
) -> u64 {
    let Some(eps) = theta.filter_radius() else {
        for (i, l) in left.iter().enumerate() {
            for (j, r) in right.iter().enumerate() {
                if theta.filter(l, r) {
                    emit(i as u32, j as u32);
                }
            }
        }
        return (left.len() * right.len()) as u64;
    };
    let items = |rects: &[Rect], eps: f64| -> Vec<SweepItem> {
        let item = |(k, mbr): (usize, &Rect)| SweepItem::expanded(k as u32, *mbr, eps);
        rects.iter().enumerate().map(item).collect()
    };
    sweep_candidates(&items(left, eps), &items(right, 0.0), theta, emit)
}

/// The exact θ-join of two in-memory tuple lists: θ on each of
/// [`theta_candidates`]' candidates, as sorted `(r id, s id)` pairs — the
/// pair set every join strategy yields over the same tuples.
pub fn theta_join<G: Borrow<Geometry>>(
    r: &[(u64, G)],
    s: &[(u64, G)],
    theta: ThetaOp,
) -> Vec<(u64, u64)> {
    let mbrs = |side: &[(u64, G)]| side.iter().map(|t| t.1.borrow().mbr()).collect::<Vec<_>>();
    let mut pairs = Vec::new();
    theta_candidates(&mbrs(r), &mbrs(s), theta, &mut |i, j| {
        let ((r_id, r_geom), (s_id, s_geom)) = (&r[i as usize], &s[j as usize]);
        if theta.eval(r_geom.borrow(), s_geom.borrow()) {
            pairs.push((*r_id, *s_id));
        }
    });
    pairs.sort_unstable();
    pairs
}

/// [`sweep_candidates`] with an explicit kernel choice (no size
/// heuristic). `Kernel::Batched` engages the mask kernel whenever the
/// operator has a [`ThetaOp::mask_filter`] form, even for tiny inputs —
/// which is what lets equivalence tests cover the batched path on
/// arbitrary sizes including ragged tails.
pub fn sweep_candidates_with(
    left: &[SweepItem],
    right: &[SweepItem],
    theta: ThetaOp,
    kernel: Kernel,
    emit: &mut impl FnMut(u32, u32),
) -> u64 {
    if left.is_empty() || right.is_empty() {
        return 0;
    }
    // Take the scratch out for the duration of the sweep; a reentrant
    // sweep from inside `emit` simply finds the slot empty and pays for
    // its own transient pair.
    let mut scratch = SCRATCH.with(|s| s.take()).unwrap_or_default();
    let (ls, rs) = &mut *scratch;
    // The Θ-filter constant (ε, minutes·speed, …) is folded exactly once
    // per sweep — never per pair — on both kernel paths.
    let comparisons = match (kernel, theta.mask_filter()) {
        (Kernel::Batched, Some(mf)) => {
            ls.gather(left);
            rs.gather(right);
            merge_batched(ls, rs, mf, emit)
        }
        (_, filter) => {
            let (l, r) = (ls.sorted_copy(left), rs.sorted_copy(right));
            match filter {
                Some(mf) => merge_scalar(l, r, &|a, b| mf.eval(a, b), emit),
                // Directional operators keep the orientation-sensitive filter.
                None => merge_scalar(l, r, &|a, b| theta.filter(a, b), emit),
            }
        }
    };
    SCRATCH.with(|s| s.set(Some(scratch)));
    comparisons
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

/// One side's sweep order and SoA chunks, reused across sweeps.
#[derive(Default)]
struct ChunkedSide {
    /// The scalar kernel's sorted copy of the items.
    items: Vec<SweepItem>,
    /// The batched kernel's order: `(order_bits(sweep.lo.x), key, index
    /// into the caller's slice)`, sorted.
    order: Vec<(u64, u32, u32)>,
    /// Sweep rectangles in `order`: the x-reach and y-overlap lanes.
    sweep: RectChunks,
    /// Original MBRs in `order`: the Θ-filter lanes.
    mbr: RectChunks,
}

impl ChunkedSide {
    /// The scalar kernel's ordering: a copy of `items` sorted by
    /// `(sweep.lo.x, key)` under `partial_cmp`.
    fn sorted_copy(&mut self, items: &[SweepItem]) -> &[SweepItem] {
        self.items.clear();
        self.items.extend_from_slice(items);
        let by_lo_x = |a: &SweepItem, b: &SweepItem| {
            let ord = (a.sweep.lo.x, a.key).partial_cmp(&(b.sweep.lo.x, b.key));
            ord.expect("finite coordinates")
        };
        self.items.sort_unstable_by(by_lo_x);
        &self.items
    }

    /// The batched kernel's ordering: sorts compact keys instead of
    /// items, then transposes `items` into the chunks once, in that
    /// order. `order_bits` compares as `f64` does, so this is the
    /// scalar kernel's order.
    fn gather(&mut self, items: &[SweepItem]) {
        self.order.clear();
        let key = |(i, it): (usize, &SweepItem)| (order_bits(it.sweep.lo.x), it.key, i as u32);
        self.order.extend(items.iter().enumerate().map(key));
        self.order.sort_unstable();
        self.sweep.clear();
        self.mbr.clear();
        for &(_, _, i) in &self.order {
            let it = &items[i as usize];
            self.sweep.push(&it.sweep);
            self.mbr.push(&it.mbr);
        }
    }

    /// The gathered item at sorted position `pos` as a probe: its sweep
    /// rectangle and MBR.
    #[inline]
    fn probe(&self, pos: usize) -> (Rect, Rect) {
        (self.sweep.rect_at(pos), self.mbr.rect_at(pos))
    }
}

/// Maps `x` to a `u64` whose unsigned order is `x`'s `f64` order. `-0.0`
/// is folded to `+0.0` first (`partial_cmp` calls them equal, and the
/// tie then falls to `key`). Panics on NaN, as `partial_cmp` does.
#[inline]
fn order_bits(x: f64) -> u64 {
    assert!(!x.is_nan(), "finite coordinates");
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

std::thread_local! {
    /// Per-thread sweep scratch, reused across sweeps. Tile-grained
    /// callers (PBSM runs one sweep per tile) and the tree join (one
    /// sweep per qualifying node pair) would otherwise pay a fresh round
    /// of allocations per call, comparable to the sweep itself at a few
    /// hundred items or fewer.
    static SCRATCH: std::cell::Cell<Option<Box<(ChunkedSide, ChunkedSide)>>> =
        const { std::cell::Cell::new(None) };
}

/// The batched merge: same outer structure as [`merge_scalar`], but each
/// inner forward scan walks whole chunks, testing [`LANES`] candidates
/// per mask call. Probes are read from the chunks too, in sorted order,
/// so the merge never goes back to the caller's slices.
fn merge_batched(
    lc: &ChunkedSide,
    rc: &ChunkedSide,
    mf: MaskFilter,
    emit: &mut impl FnMut(u32, u32),
) -> u64 {
    let mut comparisons = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < lc.order.len() && j < rc.order.len() {
        let ((l_lo, l_key, _), (r_lo, r_key, _)) = (lc.order[i], rc.order[j]);
        if l_lo <= r_lo {
            comparisons += scan_chunked(rc, j, lc.probe(i), mf, &mut |k| emit(l_key, k));
            i += 1;
        } else {
            comparisons += scan_chunked(lc, i, rc.probe(j), mf, &mut |k| emit(k, r_key));
            j += 1;
        }
    }
    comparisons
}

/// One chunked forward scan: examines the candidates from position
/// `start` whose `sweep.lo.x` reaches back into the probe's x-interval,
/// exactly the pairs the scalar scan counts.
///
/// Because the side is sorted by `lo.x`, the x-reach mask is always a
/// prefix of the chunk; a partial mask therefore proves every later
/// chunk fails too, so the scan never over- or under-counts relative to
/// the scalar break, and the examined lanes are counted from that
/// prefix. The last chunk's padding lanes are masked off explicitly: a
/// probe whose `sweep.hi.x` is `+∞` reaches them. Survivors are emitted
/// in ascending lane order — the scalar emission order.
#[inline]
fn scan_chunked(
    side: &ChunkedSide,
    start: usize,
    (probe_sweep, probe_mbr): (Rect, Rect),
    mf: MaskFilter,
    emit_key: &mut impl FnMut(u32),
) -> u64 {
    let mut comparisons = 0u64;
    let mut chunk = start / LANES;
    let num_chunks = side.sweep.num_chunks();
    let tail = FULL_MASK >> (num_chunks * LANES - side.order.len());
    // Lanes before `start` in the first chunk are already behind the
    // merge frontier and must not be re-examined.
    let mut live: u16 = FULL_MASK << (start % LANES) & FULL_MASK;
    while chunk < num_chunks {
        if chunk + 1 == num_chunks {
            live &= tail;
        }
        let (reach, reach_y) = side.sweep.reach_y_mask(&probe_sweep, chunk);
        comparisons += u64::from(((reach & live) >> live.trailing_zeros()).trailing_ones());
        let pre = reach_y & live;
        if pre != 0 {
            let mut hits = pre & side.mbr.filter_mask(&probe_mbr, mf, chunk);
            while hits != 0 {
                let lane = hits.trailing_zeros() as usize;
                emit_key(side.order[chunk * LANES + lane].1);
                hits &= hits - 1;
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
        let left: Vec<SweepItem> = l
            .iter()
            .enumerate()
            .map(|(i, m)| SweepItem::expanded(i as u32, *m, eps))
            .collect();
        let right: Vec<SweepItem> = r
            .iter()
            .enumerate()
            .map(|(j, m)| SweepItem::new(j as u32, *m))
            .collect();
        let mut pairs = Vec::new();
        let cmp = sweep_candidates(&left, &right, theta, &mut |a, b| pairs.push((a, b)));
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
            ThetaOp::WithinDistance(f64::INFINITY),
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
        let left: Vec<SweepItem> = l
            .iter()
            .enumerate()
            .map(|(i, m)| SweepItem::expanded(i as u32, *m, eps))
            .collect();
        let right: Vec<SweepItem> = r
            .iter()
            .enumerate()
            .map(|(j, m)| SweepItem::new(j as u32, *m))
            .collect();
        let mut pairs = Vec::new();
        let cmp =
            sweep_candidates_with(&left, &right, theta, kernel, &mut |a, b| pairs.push((a, b)));
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
            ThetaOp::WithinDistance(f64::INFINITY),
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
        let left: Vec<SweepItem> = l
            .iter()
            .enumerate()
            .map(|(i, m)| SweepItem::expanded(i as u32, *m, eps))
            .collect();
        let right: Vec<SweepItem> = r
            .iter()
            .enumerate()
            .map(|(j, m)| SweepItem::new(j as u32, *m))
            .collect();
        let mut auto_pairs = Vec::new();
        let auto_cmp = sweep_candidates(&left, &right, theta, &mut |a, b| auto_pairs.push((a, b)));
        assert_eq!(
            (auto_pairs, auto_cmp),
            run_kernel(&l, &r, theta, eps, Kernel::Scalar)
        );
        // Neither kernel reorders the caller's slices.
        assert!(left.iter().map(|it| it.key).eq(0..50));
        assert!(right.iter().map(|it| it.key).eq(0..50));
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

    /// The in-memory θ-join is the exact nested-loop pair set, sorted,
    /// for bounded and directional θ alike, with ids that are not
    /// positions.
    #[test]
    fn theta_join_is_the_sorted_nested_loop_pair_set() {
        let tuples = |n, salt, id0: u64| -> Vec<(u64, Geometry)> {
            let ids = (0..n as u64).rev().map(|i| id0 + 3 * i);
            ids.zip(soup(n, salt))
                .map(|(id, r)| (id, Geometry::Rect(r)))
                .collect()
        };
        let (r, s) = (tuples(60, 1, 500), tuples(50, 2, 9_000));
        for theta in [
            ThetaOp::WithinDistance(4.0),
            ThetaOp::Overlaps,
            ThetaOp::WithinCenterDistance(6.0),
            ThetaOp::DirectionOf(Direction::NorthWest),
        ] {
            let mut want = Vec::new();
            for (r_id, rg) in &r {
                for (s_id, sg) in &s {
                    if theta.eval(rg, sg) {
                        want.push((*r_id, *s_id));
                    }
                }
            }
            want.sort_unstable();
            assert!(!want.is_empty(), "{theta:?}");
            assert_eq!(theta_join(&r, &s, theta), want, "{theta:?}");
        }
    }
}
