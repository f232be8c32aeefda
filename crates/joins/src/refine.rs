//! Shared refinement engine for the candidate pairs a filter produces.
//!
//! Every filter-and-refine executor funnels its candidate pairs through
//! [`Refiner::refine`], which it builds over the two relations and their
//! MBR scans: take both exact geometries and evaluate θ. A point or a
//! rectangle is rebuilt from its [`ScanEntry`] — its MBR *is* the record
//! — so it is never hashed or fetched; a polygon or polyline is decoded
//! on first use (cached per side at one integer hash per candidate,
//! charged I/O): holding every polygon would break the `M`-page bound
//! that §4 prices. That decode verifies the record checksum and skips
//! the polygon ring check, so a fetch costs its I/O, a checksum and a
//! vertex copy, not n² orientations.
//!
//! Counter contract: every candidate pair charges `theta_evals += 1`
//! (the refinement decision), for every record kind.

use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};

use sj_geom::{Geometry, ThetaOp};
use sj_storage::hash::IntHashBuilder;
use sj_storage::{BufferPool, StorageError};

use crate::relation::{ScanEntry, StoredRelation};
use crate::stats::ExecStats;

/// One relation's MBR scan plus its cache of fetched polygons and
/// polylines. Keyed by logical position, matching the candidate indices
/// the sweep/partition filters hand over.
struct RefineSide<'a> {
    rel: &'a StoredRelation,
    scan: &'a [ScanEntry],
    exact: HashMap<u32, Geometry, IntHashBuilder>,
}

impl<'a> RefineSide<'a> {
    fn new(rel: &'a StoredRelation, scan: &'a [ScanEntry]) -> Self {
        debug_assert_eq!(rel.len(), scan.len(), "scan of another relation");
        RefineSide {
            rel,
            scan,
            exact: HashMap::default(),
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
}

/// Refinement engine for one executor run (or one tile of a partition
/// join): owns the per-side geometry caches and the box-vs-fetch
/// dispatch.
pub struct Refiner<'a> {
    r: RefineSide<'a>,
    s: RefineSide<'a>,
}

impl<'a> Refiner<'a> {
    /// Builds a refiner over the two relations and their
    /// [`StoredRelation::try_scan_mbrs`] results, which must be in
    /// position order.
    pub fn new(
        r: &'a StoredRelation,
        s: &'a StoredRelation,
        r_scan: &'a [ScanEntry],
        s_scan: &'a [ScanEntry],
    ) -> Self {
        Refiner {
            r: RefineSide::new(r, r_scan),
            s: RefineSide::new(s, s_scan),
        }
    }

    /// Refines one candidate pair given by logical positions `(ri, si)`:
    /// returns whether θ holds for the exact geometries, or the first
    /// storage fault. Charges `theta_evals` once per call.
    pub fn refine(
        &mut self,
        pool: &mut BufferPool,
        theta: &ThetaOp,
        ri: u32,
        si: u32,
        stats: &mut ExecStats,
    ) -> Result<bool, StorageError> {
        stats.theta_evals += 1;
        let rg = self.r.exact_at(pool, ri)?;
        let sg = self.s.exact_at(pool, si)?;
        Ok(theta.eval(&rg, &sg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geom::{Point, Polygon, Rect};
    use sj_obs::TraceSink;
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
