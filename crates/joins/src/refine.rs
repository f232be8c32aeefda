//! Shared refinement engine for the candidate pairs a filter produces.
//!
//! Every filter-and-refine executor funnels its candidate pairs through
//! [`MarginRefiner::refine`], which it builds over the two relations and
//! their MBR scans. On an uncompressed relation pair this is exactly the
//! classic path: take both exact geometries and evaluate θ. A point or a
//! rectangle is rebuilt from its [`ScanEntry`] — its MBR *is* the record
//! — so it is never hashed or fetched; a polygon or polyline is decoded
//! on first use (cached per side at one integer hash per candidate,
//! charged I/O): holding every polygon would break the `M`-page bound
//! that §4 prices. When **both** relations carry a compressed sidecar
//! ([`StoredRelation::is_compressed`]), the refiner first reads the
//! quantized records (smaller pages → fewer I/Os, the paper's `v`-byte
//! term) and consults the three-valued [`sj_geom::margin_eval`]; exact
//! geometries are taken and evaluated only on [`MarginVerdict::MustDecode`].
//!
//! Counter contract: every candidate pair charges `theta_evals += 1`
//! (the refinement decision), identically on both paths and for every
//! record kind — so compressed and exact runs of the same join report
//! the same `theta_evals` and the savings show up where they belong, in
//! `physical_reads` and wall clock. Margin outcomes additionally tick
//! `margin_hits`, `margin_misses`, or `decoded_exact`; the decode
//! fraction of a run is `decoded_exact / theta_evals`.

use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};

use sj_geom::{margin_eval, Geometry, MarginVerdict, QGeometry, ThetaOp};
use sj_obs::TraceSink;
use sj_storage::hash::IntHashBuilder;
use sj_storage::{BufferPool, StorageError};

use crate::relation::{ScanEntry, StoredRelation};
use crate::stats::ExecStats;

/// One relation's MBR scan plus its decode caches: one for fetched
/// polygons and polylines, one for quantized sidecar records. Keyed by
/// logical position, matching the candidate indices the sweep/partition
/// filters hand over.
struct RefineSide<'a> {
    rel: &'a StoredRelation,
    scan: &'a [ScanEntry],
    exact: HashMap<u32, Geometry, IntHashBuilder>,
    quant: HashMap<u32, QGeometry, IntHashBuilder>,
}

impl<'a> RefineSide<'a> {
    fn new(rel: &'a StoredRelation, scan: &'a [ScanEntry]) -> Self {
        debug_assert_eq!(rel.len(), scan.len(), "scan of another relation");
        RefineSide {
            rel,
            scan,
            exact: HashMap::default(),
            quant: HashMap::default(),
        }
    }

    /// The exact geometry at position `i`: rebuilt from the scan for a
    /// point or rectangle, else fetched once and cached.
    fn exact_at(
        &mut self,
        pool: &mut BufferPool,
        i: u32,
    ) -> Result<Cow<'_, Geometry>, StorageError> {
        if let Some(g) = self.scan[i as usize].as_box() {
            return Ok(Cow::Owned(g));
        }
        Ok(Cow::Borrowed(match self.exact.entry(i) {
            Entry::Occupied(hit) => hit.into_mut(),
            Entry::Vacant(miss) => miss.insert(self.rel.try_read_at(pool, i as usize)?.1),
        }))
    }

    fn quant_at(&mut self, pool: &mut BufferPool, i: u32) -> Result<&QGeometry, StorageError> {
        Ok(match self.quant.entry(i) {
            Entry::Occupied(hit) => hit.into_mut(),
            Entry::Vacant(miss) => miss.insert(self.rel.try_read_quant_at(pool, i as usize)?.1),
        })
    }
}

/// Refinement engine for one executor run (or one tile of a partition
/// join): owns the per-side decoded-geometry caches, the box-vs-fetch
/// dispatch and the margin-vs-exact dispatch.
pub struct MarginRefiner<'a> {
    r: RefineSide<'a>,
    s: RefineSide<'a>,
    margin: bool,
}

impl<'a> MarginRefiner<'a> {
    /// Builds a refiner over the two relations and their
    /// [`StoredRelation::try_scan_mbrs`] results, which must be in
    /// position order. The margin path engages only when *both* sides
    /// are compressed; otherwise every candidate takes the exact path.
    pub fn new(
        r: &'a StoredRelation,
        s: &'a StoredRelation,
        r_scan: &'a [ScanEntry],
        s_scan: &'a [ScanEntry],
    ) -> Self {
        let margin = r.is_compressed() && s.is_compressed();
        MarginRefiner {
            r: RefineSide::new(r, r_scan),
            s: RefineSide::new(s, s_scan),
            margin,
        }
    }

    /// Refines one candidate pair given by logical positions `(ri, si)`:
    /// returns whether θ holds for the exact geometries, or the first
    /// storage fault. Charges `theta_evals` once per call plus the
    /// margin counters described at module level.
    pub fn refine(
        &mut self,
        pool: &mut BufferPool,
        theta: &ThetaOp,
        ri: u32,
        si: u32,
        stats: &mut ExecStats,
    ) -> Result<bool, StorageError> {
        stats.theta_evals += 1;
        if self.margin {
            let verdict = {
                let qr = self.r.quant_at(pool, ri)?;
                // Two-phase borrow: sides are distinct fields.
                let qs = self.s.quant_at(pool, si)?;
                margin_eval(theta, qr, qs)
            };
            match verdict {
                MarginVerdict::Hit => {
                    stats.margin_hits += 1;
                    return Ok(true);
                }
                MarginVerdict::Miss => {
                    stats.margin_misses += 1;
                    return Ok(false);
                }
                MarginVerdict::MustDecode => stats.decoded_exact += 1,
            }
        }
        let rg = self.r.exact_at(pool, ri)?;
        let sg = self.s.exact_at(pool, si)?;
        Ok(theta.eval(&rg, &sg))
    }
}

/// Emits the decode-on-demand span of a compressed run: how many of the
/// `refine` phase's decisions needed the exact record vs. the margin test
/// alone. Exact runs keep the margin counters at zero and emit no span.
pub(crate) fn emit_decode_span(trace: &mut TraceSink, refine: &ExecStats) {
    if refine.decoded_exact + refine.margin_hits + refine.margin_misses > 0 {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geom::{Point, Polygon, Rect};
    use sj_storage::{Disk, DiskConfig, Layout};

    fn pool() -> BufferPool {
        BufferPool::new(Disk::new(DiskConfig::paper()), 64)
    }

    fn polys(n: usize, off: f64) -> Vec<(u64, Geometry)> {
        (0..n)
            .map(|i| {
                let c = Point::new(i as f64 * 3.0 + off, (i % 4) as f64 * 3.0);
                (i as u64, Geometry::Polygon(Polygon::regular(c, 1.2, 10)))
            })
            .collect()
    }

    fn build_pair(p: &mut BufferPool, compressed: bool) -> (StoredRelation, StoredRelation) {
        let (tr, ts) = (polys(12, 0.0), polys(12, 1.1));
        if compressed {
            let qr = StoredRelation::quant_record_size_for(&tr);
            let qs = StoredRelation::quant_record_size_for(&ts);
            (
                StoredRelation::build_compressed(p, &tr, 300, qr, Layout::Clustered),
                StoredRelation::build_compressed(p, &ts, 300, qs, Layout::Clustered),
            )
        } else {
            (
                StoredRelation::build(p, &tr, 300, Layout::Clustered),
                StoredRelation::build(p, &ts, 300, Layout::Clustered),
            )
        }
    }

    #[test]
    fn margin_and_exact_paths_agree_and_charge_identical_theta_evals() {
        let mut pe = pool();
        let (re, se) = build_pair(&mut pe, false);
        let mut pm = pool();
        let (rm, sm) = build_pair(&mut pm, true);
        let (res, ses) = (
            re.try_scan_mbrs(&mut pe).unwrap(),
            se.try_scan_mbrs(&mut pe).unwrap(),
        );
        let (rms, sms) = (
            rm.try_scan_mbrs(&mut pm).unwrap(),
            sm.try_scan_mbrs(&mut pm).unwrap(),
        );

        for theta in [
            ThetaOp::WithinDistance(1.0),
            ThetaOp::Overlaps,
            ThetaOp::Adjacent,
            ThetaOp::WithinCenterDistance(4.0),
        ] {
            let mut exact_ref = MarginRefiner::new(&re, &se, &res, &ses);
            let mut margin_ref = MarginRefiner::new(&rm, &sm, &rms, &sms);
            let (mut es, mut ms) = (ExecStats::default(), ExecStats::default());
            for ri in 0..12u32 {
                for si in 0..12u32 {
                    let a = exact_ref.refine(&mut pe, &theta, ri, si, &mut es).unwrap();
                    let b = margin_ref.refine(&mut pm, &theta, ri, si, &mut ms).unwrap();
                    assert_eq!(a, b, "{theta:?} diverged at ({ri},{si})");
                }
            }
            assert_eq!(es.theta_evals, 144);
            assert_eq!(ms.theta_evals, 144, "same charge on both paths");
            assert_eq!(
                es.margin_hits + es.margin_misses + es.decoded_exact,
                0,
                "the exact path never consults the margin predicate"
            );
            assert_eq!(
                ms.margin_hits + ms.margin_misses + ms.decoded_exact,
                144,
                "every margin candidate is classified"
            );
        }
    }

    #[test]
    fn margin_path_decodes_fewer_exact_records() {
        let mut pm = pool();
        let (rm, sm) = build_pair(&mut pm, true);
        let theta = ThetaOp::WithinDistance(0.5);
        let (rms, sms) = (
            rm.try_scan_mbrs(&mut pm).unwrap(),
            sm.try_scan_mbrs(&mut pm).unwrap(),
        );
        let mut refiner = MarginRefiner::new(&rm, &sm, &rms, &sms);
        let mut st = ExecStats::default();
        for ri in 0..12u32 {
            for si in 0..12u32 {
                refiner.refine(&mut pm, &theta, ri, si, &mut st).unwrap();
            }
        }
        assert!(
            st.decoded_exact < st.theta_evals,
            "margin test must resolve some pairs: {st:?}"
        );
        assert!(st.margin_misses > 0, "distant pairs resolve as misses");
    }

    /// Refine-phase reads of a sweep and a partition run under a θ whose
    /// filter passes every pair: `[sweep, partition]`.
    fn refine_reads(p: &mut BufferPool, r: &StoredRelation, s: &StoredRelation) -> [u64; 2] {
        let theta = ThetaOp::WithinDistance(1_000.0);
        let null = &mut TraceSink::Null;
        let sweep = crate::sweep::sweep_join(p, r, s, theta, null).unwrap();
        let part = crate::partition::partition_join(p, r, s, theta, null).unwrap();
        assert_eq!(sweep.pairs.len(), r.len() * s.len());
        assert_eq!(part.pairs.len(), r.len() * s.len());
        [sweep, part].map(|run| run.phases.get(sj_obs::Phase::Refine).logical_reads)
    }

    #[test]
    fn boxes_are_never_read_in_refine_and_polygons_once_each() {
        let mut p = pool();
        let points: Vec<(u64, Geometry)> = (0..30)
            .map(|i| {
                (
                    i,
                    Geometry::Point(Point::new((i % 6) as f64 * 7.0, (i / 6) as f64 * 9.0)),
                )
            })
            .collect();
        let rects: Vec<(u64, Geometry)> = (0..20)
            .map(|i| {
                let (x, y) = ((i % 5) as f64 * 8.0, (i / 5) as f64 * 10.0);
                let rect = Rect::from_bounds(x, y, x + 3.0, y + 2.0);
                (100 + i, Geometry::Rect(rect))
            })
            .collect();
        let r = StoredRelation::build(&mut p, &points, 300, Layout::Clustered);
        let s = StoredRelation::build(&mut p, &rects, 300, Layout::Clustered);
        assert_eq!(refine_reads(&mut p, &r, &s), [0, 0], "points × rects");
        assert_eq!(refine_reads(&mut p, &s, &r), [0, 0], "rects × points");

        // Every polygon is refined against every point, yet read once:
        // the sweep caches it per run, and every pair of it lands in the
        // tile of its MBR's lower-left corner. The points are never read.
        let polygons = StoredRelation::build(&mut p, &polys(12, 0.5), 300, Layout::Clustered);
        assert_eq!(
            refine_reads(&mut p, &r, &polygons),
            [12, 12],
            "points × polygons"
        );
    }
}
