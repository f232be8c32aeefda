//! Shared refinement engine for the candidate pairs a filter produces.
//!
//! Every filter-and-refine executor funnels its candidate pairs through
//! [`MarginRefiner::refine`]. On an uncompressed relation pair this is
//! exactly the classic path: decode both exact geometries (cached per
//! side at one integer hash per candidate, charged I/O) and evaluate θ.
//! When **both** relations carry a compressed sidecar
//! ([`StoredRelation::is_compressed`]), the refiner first reads the
//! quantized records (smaller pages → fewer I/Os, the paper's `v`-byte
//! term) and consults the three-valued [`sj_geom::margin_eval`]; exact
//! records are fetched and evaluated only on [`MarginVerdict::MustDecode`].
//!
//! Counter contract: every candidate pair charges `theta_evals += 1`
//! (the refinement decision), identically on both paths — so compressed
//! and exact runs of the same join report the same `theta_evals` and the
//! savings show up where they belong, in `physical_reads` and wall
//! clock. Margin outcomes additionally tick `margin_hits`,
//! `margin_misses`, or `decoded_exact`; the decode fraction of a run is
//! `decoded_exact / theta_evals`.

use std::collections::hash_map::{Entry, HashMap};

use sj_geom::{margin_eval, Geometry, MarginVerdict, QGeometry, ThetaOp};
use sj_obs::TraceSink;
use sj_storage::hash::IntHashBuilder;
use sj_storage::{BufferPool, StorageError};

use crate::relation::StoredRelation;
use crate::stats::ExecStats;

/// Per-relation decode caches: one for exact geometries, one for
/// quantized sidecar records. Keyed by logical position, matching the
/// candidate indices the sweep/partition filters hand over.
struct RefineSide<'a> {
    rel: &'a StoredRelation,
    exact: HashMap<u32, Geometry, IntHashBuilder>,
    quant: HashMap<u32, QGeometry, IntHashBuilder>,
}

impl<'a> RefineSide<'a> {
    fn new(rel: &'a StoredRelation) -> Self {
        RefineSide {
            rel,
            exact: HashMap::default(),
            quant: HashMap::default(),
        }
    }

    fn exact_at(&mut self, pool: &mut BufferPool, i: u32) -> Result<&Geometry, StorageError> {
        Ok(match self.exact.entry(i) {
            Entry::Occupied(hit) => hit.into_mut(),
            Entry::Vacant(miss) => miss.insert(self.rel.try_read_at(pool, i as usize)?.1),
        })
    }

    fn quant_at(&mut self, pool: &mut BufferPool, i: u32) -> Result<&QGeometry, StorageError> {
        Ok(match self.quant.entry(i) {
            Entry::Occupied(hit) => hit.into_mut(),
            Entry::Vacant(miss) => miss.insert(self.rel.try_read_quant_at(pool, i as usize)?.1),
        })
    }
}

/// Refinement engine for one executor run (or one tile of a partition
/// join): owns the per-side decoded-geometry caches and the
/// margin-vs-exact dispatch.
pub struct MarginRefiner<'a> {
    r: RefineSide<'a>,
    s: RefineSide<'a>,
    margin: bool,
}

impl<'a> MarginRefiner<'a> {
    /// Builds a refiner over the two relations. The margin path engages
    /// only when *both* sides are compressed; otherwise every candidate
    /// takes the exact path and the run is byte- and counter-identical
    /// to the pre-compression executors.
    pub fn new(r: &'a StoredRelation, s: &'a StoredRelation) -> Self {
        let margin = r.is_compressed() && s.is_compressed();
        MarginRefiner {
            r: RefineSide::new(r),
            s: RefineSide::new(s),
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
        Ok(theta.eval(rg, sg))
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
    use sj_geom::{Point, Polygon};
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

        for theta in [
            ThetaOp::WithinDistance(1.0),
            ThetaOp::Overlaps,
            ThetaOp::Adjacent,
            ThetaOp::WithinCenterDistance(4.0),
        ] {
            let mut exact_ref = MarginRefiner::new(&re, &se);
            let mut margin_ref = MarginRefiner::new(&rm, &sm);
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
        let mut refiner = MarginRefiner::new(&rm, &sm);
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
}
