//! The versioned LRU result cache.
//!
//! Keys are `(dataset_version, θ-operator, query fingerprint)`. Updates
//! bump the dataset version, so entries computed against stale data can
//! never be served again — invalidation is structural, not scanned.
//! Commits are surgical about what they drop: every entry carries the
//! [`QueryRegion`] its reply depends on, and
//! [`ResultCache::purge_region`] drops only entries whose region
//! intersects the commit's touched MBRs, re-stamping the disjoint
//! survivors to the new version so they keep serving hits.
//!
//! The service keeps one [`ResultCache`] behind one mutex — the only
//! lock the cache-hit path takes (see `service.rs`) — and never takes it
//! when its capacity is 0.

use std::collections::{BTreeMap, HashMap};

use sj_geom::{codec, Bounded, Rect, ThetaOp};

use crate::request::{QueryKind, Reply, Request, Side};
use sj_joins::TouchedRegions;

/// θ-operator as hashable bits: discriminant plus parameter payloads
/// (`f64::to_bits`, so `ThetaOp`'s non-`Eq` floats become exact keys).
fn theta_bits(theta: ThetaOp) -> [u64; 3] {
    match theta {
        ThetaOp::WithinCenterDistance(d) => [0, d.to_bits(), 0],
        ThetaOp::WithinDistance(d) => [1, d.to_bits(), 0],
        ThetaOp::Overlaps => [2, 0, 0],
        ThetaOp::Includes => [3, 0, 0],
        ThetaOp::ContainedIn => [4, 0, 0],
        ThetaOp::DirectionOf(dir) => [5, dir as u64, 0],
        ThetaOp::ReachableWithin { minutes, speed } => [6, minutes.to_bits(), speed.to_bits()],
        ThetaOp::Adjacent => [7, 0, 0],
    }
}

/// The query part of a cache key: the probe geometry's exact encoding
/// for SELECTs (two probes collide only if they are the same geometry,
/// not merely MBR-equal), the strategy name for JOINs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Fingerprint {
    Select { side: &'static str, probe: Vec<u8> },
    Join { strategy: &'static str },
}

/// The spatial footprint a cached reply depends on — the unit of
/// fine-grained invalidation. A commit must drop an entry exactly when
/// a touched tuple could have changed its reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryRegion {
    /// The reply depends on the whole dataset (every JOIN, and any
    /// SELECT whose θ-operator admits no distance bound): any write
    /// invalidates it.
    All,
    /// The reply depends only on `side`-tuples whose MBR intersects
    /// `rect` (the probe MBR expanded by the θ-operator's
    /// [`filter_radius`](ThetaOp::filter_radius)): writes outside it —
    /// or to the other side — leave the reply exact.
    Select {
        /// Relation the SELECT probed.
        side: Side,
        /// Conservative dependency rectangle.
        rect: Rect,
    },
}

impl QueryRegion {
    /// True when a commit touching `touched` could change a reply with
    /// this region — i.e. when the entry must be invalidated.
    pub fn intersects(&self, touched: &TouchedRegions) -> bool {
        match self {
            QueryRegion::All => touched.r.is_some() || touched.s.is_some(),
            QueryRegion::Select { side, rect } => {
                touched.of(*side).is_some_and(|t| rect.intersects(t))
            }
        }
    }
}

/// Cache key: dataset version, θ-operator bits, query fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    version: u64,
    theta: [u64; 3],
    query: Fingerprint,
}

impl CacheKey {
    /// The key `req` would hit at dataset version `version`.
    pub fn for_request(version: u64, req: &Request) -> CacheKey {
        let query = match &req.kind {
            QueryKind::Select { side, probe } => Fingerprint::Select {
                side: side.name(),
                probe: codec::encode_record(0, probe, codec::encoded_len(probe)),
            },
            QueryKind::Join { strategy } => Fingerprint::Join {
                strategy: strategy.name(),
            },
        };
        CacheKey {
            version,
            theta: theta_bits(req.theta),
            query,
        }
    }

    /// The [`QueryRegion`] of `req`'s reply: joins depend on everything;
    /// a SELECT whose θ-operator has a finite filter radius depends only
    /// on its side within the probe MBR expanded by that radius.
    pub fn region_for_request(req: &Request) -> QueryRegion {
        match &req.kind {
            QueryKind::Select { side, probe } => match req.theta.filter_radius() {
                Some(r) => QueryRegion::Select {
                    side: *side,
                    rect: probe.mbr().expand(r),
                },
                None => QueryRegion::All,
            },
            QueryKind::Join { .. } => QueryRegion::All,
        }
    }

    /// The same logical key re-stamped to `version` — how region-disjoint
    /// survivors of a commit stay reachable after the version bump.
    pub(crate) fn at_version(mut self, version: u64) -> CacheKey {
        self.version = version;
        self
    }

    /// A stable 64-bit digest of the key. The service mixes it into
    /// per-attempt fault-injection seeds, so two different requests
    /// against the same dataset version draw from different fault
    /// streams while identical requests replay identically.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// Exact-LRU cache from [`CacheKey`] to [`Reply`]. Replies are
/// `Arc`-backed, so hits are O(1) clones of the shared result.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    /// key → (recency sequence, value, dependency region).
    map: HashMap<CacheKey, (u64, Reply, QueryRegion)>,
    /// recency sequence → key; the smallest sequence is the LRU victim.
    order: BTreeMap<u64, CacheKey>,
    next_seq: u64,
    hits: u64,
    misses: u64,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` replies; 0 caches
    /// nothing (every lookup misses, every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            map: HashMap::new(),
            order: BTreeMap::new(),
            next_seq: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks `key` up, refreshing its recency on a hit: the key `order`
    /// already owns moves to the newest sequence, so a hit copies no key.
    pub fn get(&mut self, key: &CacheKey) -> Option<Reply> {
        match self.map.get_mut(key) {
            Some((seq, reply, _)) => {
                self.hits += 1;
                if let Some(owned) = self.order.remove(seq) {
                    self.order.insert(self.next_seq, owned);
                }
                *seq = self.next_seq;
                self.next_seq += 1;
                Some(reply.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key` with the [`QueryRegion`] its reply
    /// depends on, evicting the least recently used entry when over
    /// capacity.
    pub fn insert(&mut self, key: CacheKey, reply: Reply, region: QueryRegion) {
        if self.capacity == 0 {
            return;
        }
        if let Some((seq, ..)) = self.map.remove(&key) {
            self.order.remove(&seq);
        }
        self.map.insert(key.clone(), (self.next_seq, reply, region));
        self.order.insert(self.next_seq, key);
        self.next_seq += 1;
        while self.map.len() > self.capacity {
            let Some((&victim_seq, _)) = self.order.iter().next() else {
                break;
            };
            if let Some(victim) = self.order.remove(&victim_seq) {
                self.map.remove(&victim);
            }
        }
    }

    /// Fine-grained invalidation for the commit publishing
    /// `new_version`: drops every entry whose [`QueryRegion`] intersects
    /// the commit's `touched` MBRs, and every entry older than the
    /// version being replaced (a caller that pinned its snapshot before
    /// an earlier commit inserted it after that commit's purge, which
    /// never tested it). The rest are re-stamped to `new_version` in
    /// place, recency kept, so each keeps serving hits. Returns
    /// `(purged, retained)`; every retained entry is resident.
    pub fn purge_region(&mut self, new_version: u64, touched: &TouchedRegions) -> (usize, usize) {
        let before = self.map.len();
        self.order.clear();
        let survivors: Vec<_> = self
            .map
            .drain()
            .filter(|(key, (.., region))| {
                key.version + 1 >= new_version && !region.intersects(touched)
            })
            .collect();
        for (key, (seq, reply, region)) in survivors {
            let key = key.at_version(new_version);
            self.order.insert(seq, key.clone());
            self.map.insert(key, (seq, reply, region));
        }
        (before - self.map.len(), self.map.len())
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use sj_geom::{Geometry, Point, Polygon, Rect};
    use sj_joins::Strategy;

    use crate::request::{Request, Side};
    use crate::service::{ServiceConfig, SpatialService};

    fn select_req(x: f64) -> Request {
        Request::select(
            Side::R,
            Geometry::Point(Point::new(x, 0.0)),
            ThetaOp::WithinDistance(1.0),
        )
    }

    fn reply(ids: &[u64]) -> Reply {
        Reply::Select {
            matches: Arc::new(ids.to_vec()),
        }
    }

    #[test]
    fn keys_distinguish_version_theta_and_query() {
        let req = select_req(1.0);
        let k = CacheKey::for_request(3, &req);
        assert_eq!(k, CacheKey::for_request(3, &req));
        assert_ne!(k, CacheKey::for_request(4, &req));
        assert_ne!(k, CacheKey::for_request(3, &select_req(2.0)));
        let mut other_theta = select_req(1.0);
        other_theta.theta = ThetaOp::WithinDistance(2.0);
        assert_ne!(k, CacheKey::for_request(3, &other_theta));
        let join = Request::join(Strategy::Auto, ThetaOp::WithinDistance(1.0));
        assert_ne!(k, CacheKey::for_request(3, &join));
    }

    #[test]
    fn mbr_equal_probes_do_not_collide() {
        // A rect probe and a point probe can share an MBR; the
        // fingerprint must still tell them apart.
        let pt = Request::select(
            Side::R,
            Geometry::Point(Point::new(1.0, 1.0)),
            ThetaOp::Overlaps,
        );
        let rect = Request::select(
            Side::R,
            Geometry::Rect(Rect::from_bounds(1.0, 1.0, 1.0, 1.0)),
            ThetaOp::Overlaps,
        );
        assert_ne!(
            CacheKey::for_request(0, &pt),
            CacheKey::for_request(0, &rect)
        );
    }

    /// A probe is keyed at its own frame length, so no probe is too
    /// large to key: a 40-gon needs 659 bytes.
    #[test]
    fn large_probes_key_distinctly() {
        let probe = |r: f64| {
            let ring = Polygon::regular(Point::new(0.0, 0.0), r, 40);
            Request::select(Side::R, Geometry::Polygon(ring), ThetaOp::Overlaps)
        };
        let key = |r: f64| CacheKey::for_request(0, &probe(r));
        assert_eq!(key(1.0), key(1.0));
        assert_ne!(key(1.0), key(2.0));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ResultCache::new(2);
        let ka = CacheKey::for_request(0, &select_req(1.0));
        let kb = CacheKey::for_request(0, &select_req(2.0));
        let kc = CacheKey::for_request(0, &select_req(3.0));
        c.insert(ka.clone(), reply(&[1]), QueryRegion::All);
        c.insert(kb.clone(), reply(&[2]), QueryRegion::All);
        assert!(c.get(&ka).is_some(), "refresh a");
        c.insert(kc.clone(), reply(&[3]), QueryRegion::All);
        assert_eq!(c.len(), 2);
        assert!(c.get(&kb).is_none(), "b was LRU and must be gone");
        assert!(c.get(&ka).is_some());
        assert!(c.get(&kc).is_some());
        assert_eq!(c.hits(), 3);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultCache::new(0);
        let k = CacheKey::for_request(0, &select_req(1.0));
        c.insert(k.clone(), reply(&[1]), QueryRegion::All);
        assert!(c.is_empty());
        assert!(c.get(&k).is_none());
    }

    /// A service with `cache_capacity: 0` never consults its cache: a
    /// repeated request is computed again and no lookup is counted.
    #[test]
    fn zero_capacity_shards_disable_caching() {
        let tuples: Vec<(u64, Geometry)> = (0..4u32)
            .map(|i| (u64::from(i), Geometry::Point(Point::new(f64::from(i), 0.0))))
            .collect();
        let config = ServiceConfig {
            cache_capacity: 0,
            ..ServiceConfig::default()
        };
        let svc = SpatialService::start(
            config,
            &tuples,
            &tuples,
            Rect::from_bounds(0.0, 0.0, 4.0, 4.0),
        );
        for _ in 0..2 {
            let resp = svc.call(select_req(2.0)).expect("no shedding at idle");
            assert!(!resp.cached, "a disabled cache serves no hit");
        }
        assert_eq!(svc.cache_stats(), (0, 0, 0));
    }

    #[test]
    fn regions_classify_selects_and_joins() {
        // Distance-bounded SELECT: probe MBR expanded by the radius.
        let sel = select_req(3.0); // WithinDistance(1.0) at (3, 0)
        match CacheKey::region_for_request(&sel) {
            QueryRegion::Select { side, rect } => {
                assert_eq!(side, Side::R);
                assert_eq!(rect, Rect::from_bounds(2.0, -1.0, 4.0, 1.0));
            }
            QueryRegion::All => panic!("distance select must have a bounded region"),
        }
        // Unbounded θ (DirectionOf has no filter radius) and joins
        // depend on everything.
        let mut unbounded = select_req(3.0);
        unbounded.theta = ThetaOp::DirectionOf(sj_geom::Direction::North);
        assert_eq!(CacheKey::region_for_request(&unbounded), QueryRegion::All);
        let join = Request::join(Strategy::Auto, ThetaOp::Overlaps);
        assert_eq!(CacheKey::region_for_request(&join), QueryRegion::All);
    }

    /// A batch that touched the point `(x, 0)` on `side` only.
    fn on(side: Side, x: f64) -> TouchedRegions {
        let at = Some(Rect::from_bounds(x, 0.0, x, 0.0));
        match side {
            Side::R => TouchedRegions { r: at, s: None },
            Side::S => TouchedRegions { r: None, s: at },
        }
    }

    #[test]
    fn region_purge_drops_intersecting_and_restamps_disjoint() {
        let mut cache = ResultCache::new(64);
        // A SELECT around x=1 and a SELECT around x=100, plus a join.
        let near = select_req(1.0);
        let far = select_req(100.0);
        let join = Request::join(Strategy::Auto, ThetaOp::WithinDistance(1.0));
        for req in [&near, &far, &join] {
            let k = CacheKey::for_request(0, req);
            cache.insert(k, reply(&[7]), CacheKey::region_for_request(req));
        }
        assert_eq!(cache.len(), 3);

        // Write at (2, 0) on side R: intersects `near`'s region
        // (x ∈ [0, 2]), misses `far`'s (x ∈ [99, 101]), kills the join.
        let touched = on(Side::R, 2.0);
        let (purged, retained) = cache.purge_region(1, &touched);
        assert_eq!((purged, retained), (2, 1));
        assert_eq!(cache.len(), retained);

        // The survivor serves hits at the NEW version; old keys miss.
        let far_new = CacheKey::for_request(1, &far);
        assert_eq!(cache.get(&far_new), Some(reply(&[7])));
        let far_old = CacheKey::for_request(0, &far);
        assert!(cache.get(&far_old).is_none());
        let near_new = CacheKey::for_request(1, &near);
        assert!(cache.get(&near_new).is_none());
    }

    #[test]
    fn region_purge_drops_entries_a_late_worker_inserted_at_an_older_version() {
        let mut cache = ResultCache::new(8);
        let req = select_req(1.0);
        assert_eq!(cache.purge_region(1, &on(Side::R, 1.0)), (0, 0));
        // A caller that pinned version 0 before that commit finishes now:
        // its entry was never tested against the commit's regions.
        let k = CacheKey::for_request(0, &req);
        cache.insert(k, reply(&[1]), CacheKey::region_for_request(&req));
        assert_eq!(cache.purge_region(2, &on(Side::R, 90.0)), (1, 0));
        assert!(cache.get(&CacheKey::for_request(2, &req)).is_none());
    }

    #[test]
    fn region_purge_ignores_the_untouched_side() {
        let mut cache = ResultCache::new(8);
        let req = select_req(1.0); // side R
        let k = CacheKey::for_request(0, &req);
        cache.insert(k, reply(&[1]), CacheKey::region_for_request(&req));

        // An S-side write exactly on the probe cannot affect an R SELECT.
        assert_eq!(cache.purge_region(1, &on(Side::S, 1.0)), (0, 1));

        // An R-side write there kills it.
        assert_eq!(cache.purge_region(2, &on(Side::R, 1.0)), (1, 0));
        assert!(cache.is_empty());
    }
}
