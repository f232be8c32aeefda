//! The shard router: scatter-gather coordination with exact merges.
//!
//! See the crate docs for the coverage/exactness argument. The router
//! owns the [`ShardPlan`], an authority copy of both relations' id →
//! geometry maps (for mutation routing), one
//! [`AdaptiveAdvisor`](sj_core::advisor::AdaptiveAdvisor) per shard,
//! and the in-process shard services themselves.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use sj_core::advisor::AdaptiveAdvisor;
use sj_geom::{codec, Bounded, Geometry, Rect, ThetaOp};
use sj_joins::{Mutation, MutationOutcome, Side, Strategy, WriteBatch};
use sj_obs::TraceSink;
use sj_service::{
    QueryKind, Rejection, Reply, Request, Response, ServiceConfig, ServiceMetrics, ServiceResult,
    SpatialService,
};
use sj_storage::IoStats;

use crate::plan::{ShardPlan, ShardPlanConfig};

/// Router configuration.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Target shard count (base grid size before skew splitting).
    pub shards: usize,
    /// The R-side assignment margin. Joins whose θ filter radius is
    /// ≤ `halo` scatter across shards exactly; larger radii (and
    /// directional operators, whose qualifying region is unbounded)
    /// route to the whole-world fallback shard. `0.0` means auto:
    /// 1/16 of the world's larger extent.
    pub halo: f64,
    /// Quad-split a tile whose assigned tuple count exceeds this.
    pub split_threshold: usize,
    /// Recursion bound for skew splitting.
    pub max_split_depth: usize,
    /// Configuration for every per-shard service instance.
    pub service: ServiceConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            halo: 0.0,
            split_threshold: 8 * 1024,
            max_split_depth: 4,
            service: ServiceConfig::default(),
        }
    }
}

/// A merged scatter-gather response.
#[derive(Debug, Clone)]
pub struct RouterResponse {
    /// The merged reply — byte-identical to the single-node reply for
    /// the same request (for `Auto` joins, the pair set is identical;
    /// `resolved` reflects the per-shard adaptive choices).
    pub reply: Reply,
    /// Shards this request was scattered to.
    pub shards_queried: usize,
    /// True when every shard reply was served from its result cache.
    pub cached: bool,
    /// Highest shard dataset version among the replies.
    pub version: u64,
    /// Max per-shard queue wait (µs) — the admission critical path.
    pub queue_us: u64,
    /// Max per-shard execution time (µs) — the compute critical path;
    /// the gather is bounded by the slowest shard, not the sum.
    pub exec_us: u64,
    /// Cross-shard duplicate results removed by the merge (the price of
    /// halo multi-assignment; always 0 for single-shard requests).
    pub duplicates: u64,
    /// True when any shard served via its degraded fallback path.
    pub degraded: bool,
}

/// What a routed request yields.
pub type RouterResult = Result<RouterResponse, Rejection>;

/// A merged commit receipt: per-shard WAL durability has happened for
/// every routed sub-batch by the time this is returned.
#[derive(Debug, Clone)]
pub struct RouterReceipt {
    /// Router-level commit sequence number (1-based).
    pub version: u64,
    /// Per-operation outcomes in batch order, computed against the
    /// router's global authority state — so `DuplicateId` / `MissingId`
    /// / `Upserted{replaced}` have whole-dataset semantics even when an
    /// operation only touched some shards.
    pub outcomes: Vec<MutationOutcome>,
    /// Physical apply I/O summed over all shard commits.
    pub io: IoStats,
    /// Cache entries purged, summed over shards.
    pub cache_purged: usize,
    /// Cache entries retained across the version bump, summed.
    pub cache_retained: usize,
    /// How many shards received a non-empty sub-batch.
    pub shard_commits: usize,
}

impl RouterReceipt {
    /// True when at least one operation changed state.
    pub fn changed(&self) -> bool {
        self.outcomes.iter().any(MutationOutcome::applied)
    }
}

/// The scatter-gather coordinator over tile shards.
pub struct ShardRouter {
    config: ShardConfig,
    halo: f64,
    plan: ShardPlan,
    /// One in-process service per plan leaf, in leaf order, then the
    /// fallback (if any). Submissions are asynchronous — `submit`
    /// returns a receiver, so a request fans out to every target shard
    /// *before* the router blocks on any reply — and commits are
    /// synchronous: the shard's WAL sync has happened by the time
    /// `commit` returns, which is what makes the router's global
    /// read-your-writes guarantee compose from per-shard guarantees.
    services: Vec<SpatialService>,
    /// Index of the whole-world fallback shard (present when
    /// the plan has more than one leaf; it serves predicates no spatial
    /// partition can localize).
    fallback: Option<usize>,
    advisors: Mutex<Vec<AdaptiveAdvisor>>,
    r_geoms: Mutex<HashMap<u64, Geometry>>,
    s_geoms: Mutex<HashMap<u64, Geometry>>,
    commits: AtomicU64,
    queries: AtomicU64,
    fallback_queries: AtomicU64,
    duplicates_removed: AtomicU64,
}

/// The union of every tuple MBR on both sides — the router's world.
/// With no tuples at all, a unit square keeps the plan non-degenerate.
fn world_of(r_tuples: &[(u64, Geometry)], s_tuples: &[(u64, Geometry)]) -> Rect {
    let mut world: Option<Rect> = None;
    for (_, g) in r_tuples.iter().chain(s_tuples.iter()) {
        let mbr = g.mbr();
        world = Some(match world {
            Some(w) => w.union(&mbr),
            None => mbr,
        });
    }
    world.unwrap_or_else(|| Rect::from_bounds(0.0, 0.0, 1.0, 1.0))
}

/// Takes a router lock, recovering from poisoning the way `sj-service`
/// does: a request that panicked while holding the lock must not turn
/// every later `call`/`commit` into a panic. Each update under these
/// locks is a single map/advisor operation, so the data a panicking
/// holder leaves behind is valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn clamp_to(world: &Rect, r: &Rect) -> Rect {
    Rect::from_bounds(
        r.lo.x.clamp(world.lo.x, world.hi.x),
        r.lo.y.clamp(world.lo.y, world.hi.y),
        r.hi.x.clamp(world.lo.x, world.hi.x),
        r.hi.y.clamp(world.lo.y, world.hi.y),
    )
}

impl ShardRouter {
    /// Partitions the relations, starts one service per shard (plus the
    /// whole-world fallback when there is more than one shard), and
    /// returns the router. The world is computed as the union of both
    /// relations' MBRs — never a configured guess, so no tuple starts
    /// outside it (out-of-world *inserts* are clamped to border shards
    /// later).
    pub fn start(
        config: ShardConfig,
        r_tuples: &[(u64, Geometry)],
        s_tuples: &[(u64, Geometry)],
    ) -> Self {
        let world = world_of(r_tuples, s_tuples);
        let halo = if config.halo > 0.0 {
            config.halo
        } else {
            world.width().max(world.height()) / 16.0
        };
        let plan_cfg = ShardPlanConfig {
            shards: config.shards,
            split_threshold: config.split_threshold,
            max_split_depth: config.max_split_depth,
        };
        let occupancy = |leaf: &Rect| {
            let r_n = r_tuples
                .iter()
                .filter(|(_, g)| clamp_to(&world, &g.mbr().expand(halo)).intersects(leaf))
                .count();
            let s_n = s_tuples
                .iter()
                .filter(|(_, g)| clamp_to(&world, &g.mbr()).intersects(leaf))
                .count();
            r_n + s_n
        };
        let plan = ShardPlan::build(world, &plan_cfg, &occupancy);

        let mut services = Vec::with_capacity(plan.len() + 1);
        for leaf in plan.leaves() {
            let r_slice: Vec<(u64, Geometry)> = r_tuples
                .iter()
                .filter(|(_, g)| clamp_to(&world, &g.mbr().expand(halo)).intersects(leaf))
                .cloned()
                .collect();
            let s_slice: Vec<(u64, Geometry)> = s_tuples
                .iter()
                .filter(|(_, g)| clamp_to(&world, &g.mbr()).intersects(leaf))
                .cloned()
                .collect();
            // The shard's own world covers its leaf plus everything it
            // holds (halo tuples poke past the leaf).
            let shard_world = r_slice
                .iter()
                .chain(s_slice.iter())
                .fold(*leaf, |w, (_, g)| w.union(&g.mbr()));
            services.push(SpatialService::start(
                config.service,
                &r_slice,
                &s_slice,
                shard_world,
            ));
        }
        let fallback = if plan.len() > 1 {
            services.push(SpatialService::start(
                config.service,
                r_tuples,
                s_tuples,
                world,
            ));
            Some(plan.len())
        } else {
            None
        };
        let advisors = services
            .iter()
            .map(|_| AdaptiveAdvisor::new(config.service.profile))
            .collect();
        ShardRouter {
            config,
            halo,
            plan,
            services,
            fallback,
            advisors: Mutex::new(advisors),
            r_geoms: Mutex::new(r_tuples.iter().map(|(id, g)| (*id, g.clone())).collect()),
            s_geoms: Mutex::new(s_tuples.iter().map(|(id, g)| (*id, g.clone())).collect()),
            commits: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            fallback_queries: AtomicU64::new(0),
            duplicates_removed: AtomicU64::new(0),
        }
    }

    /// The shard decomposition.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of tile shards (excluding the fallback).
    pub fn shard_count(&self) -> usize {
        self.plan.len()
    }

    /// The resolved R-side assignment margin.
    pub fn halo(&self) -> f64 {
        self.halo
    }

    /// Whether a whole-world fallback shard exists.
    pub fn has_fallback(&self) -> bool {
        self.fallback.is_some()
    }

    /// Router-level commit count (the version space of
    /// [`RouterReceipt::version`]).
    pub fn version(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Adaptive-advisor observation count for one shard and θ-family
    /// (test/inspection hook).
    pub fn advisor_observations(&self, shard: usize, theta: ThetaOp) -> u64 {
        lock(&self.advisors)[shard].observations(theta)
    }

    /// Which shard services a request scatters to.
    fn targets(&self, req: &Request) -> Result<Vec<usize>, Rejection> {
        match &req.kind {
            QueryKind::Select { probe, .. } => Ok(match req.theta.filter_radius() {
                // A matching tuple's MBR intersects the probe MBR
                // expanded by the filter radius (Θ-filter guarantee),
                // so only shards overlapping that region can hold
                // matches.
                Some(eps) => self.plan.shards_overlapping(&probe.mbr().expand(eps)),
                // Unbounded predicate: matches can live anywhere, and
                // every tuple lives in ≥ 1 shard — broadcast is exact.
                None => (0..self.plan.len()).collect(),
            }),
            QueryKind::Join { strategy } => {
                // Mirror service admission so unsupported operators are
                // rejected before any scatter.
                if *strategy != Strategy::Auto && !strategy.supports(req.theta) {
                    return Err(Rejection::UnsupportedTheta);
                }
                match req.theta.filter_radius() {
                    Some(eps) if eps <= self.halo => Ok((0..self.plan.len()).collect()),
                    // Radius beyond the halo (or unbounded): the tile
                    // coverage proof no longer applies; route to the
                    // whole-world shard — the same reason grid_join
                    // rejects directional θ.
                    _ => {
                        self.fallback_queries.fetch_add(1, Ordering::Relaxed);
                        Ok(vec![self.fallback.unwrap_or(0)])
                    }
                }
            }
        }
    }

    /// Scatter a request to its target shards, gather, and merge.
    /// Blocking; the gather is bounded by the slowest targeted shard.
    pub fn call(&self, req: Request) -> RouterResult {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let targets = self.targets(&req)?;
        let auto_join = matches!(
            req.kind,
            QueryKind::Join {
                strategy: Strategy::Auto
            }
        );

        // Rewrite Auto joins to each shard's adaptive choice, so the
        // feedback loop can attribute the observed cost to a concrete
        // strategy.
        let subs: Vec<(usize, Request)> = {
            let advisors = lock(&self.advisors);
            targets
                .iter()
                .map(|&t| {
                    let mut sub = req.clone();
                    if auto_join {
                        sub.kind = QueryKind::Join {
                            strategy: advisors[t].choose(req.theta),
                        };
                    }
                    (t, sub)
                })
                .collect()
        };

        // Scatter first, gather second: every shard computes in
        // parallel with the others.
        let mut pending: Vec<(usize, Receiver<ServiceResult>)> = Vec::with_capacity(subs.len());
        let mut first_err = None;
        for (t, sub) in &subs {
            match self.services[*t].submit(sub.clone()) {
                Ok(rx) => pending.push((*t, rx)),
                Err(rej) => {
                    first_err.get_or_insert(rej);
                    break;
                }
            }
        }
        let mut responses: Vec<(usize, Response)> = Vec::with_capacity(pending.len());
        for (t, rx) in pending {
            match rx.recv() {
                Ok(Ok(resp)) => responses.push((t, resp)),
                Ok(Err(rej)) => {
                    first_err.get_or_insert(rej);
                }
                Err(_) => {
                    first_err.get_or_insert(Rejection::WorkerPanicked);
                }
            }
        }
        if let Some(rej) = first_err {
            return Err(rej);
        }

        // Feed observed execution cost back into the per-shard advisors
        // (cache hits carry no compute signal and are skipped).
        if auto_join {
            let mut advisors = lock(&self.advisors);
            for ((t, sub), (_, resp)) in subs.iter().zip(responses.iter()) {
                if !resp.cached {
                    if let QueryKind::Join { strategy } = sub.kind {
                        advisors[*t].observe(req.theta, strategy, resp.exec_us.max(1));
                    }
                }
            }
        }

        Ok(self.merge(&req, &responses))
    }

    /// Concat + sort + dedup merge. Exactness: every shard result is a
    /// true match (shards run exact executors), coverage guarantees
    /// every true match appears in ≥ 1 shard, and duplicates only arise
    /// from halo multi-assignment — so dedup restores the single-node
    /// result precisely.
    fn merge(&self, req: &Request, responses: &[(usize, Response)]) -> RouterResponse {
        let mut cached = !responses.is_empty();
        let mut degraded = false;
        let mut version = 0;
        let mut queue_us = 0;
        let mut exec_us = 0;
        for (_, resp) in responses {
            cached &= resp.cached;
            degraded |= resp.degraded;
            version = version.max(resp.version);
            queue_us = queue_us.max(resp.queue_us);
            exec_us = exec_us.max(resp.exec_us);
        }

        let duplicates: u64;
        let reply = match &req.kind {
            QueryKind::Select { .. } => {
                let mut matches: Vec<u64> = Vec::new();
                for (_, resp) in responses {
                    if let Reply::Select { matches: m } = &resp.reply {
                        matches.extend(m.iter().copied());
                    }
                }
                matches.sort_unstable();
                let before = matches.len();
                matches.dedup();
                duplicates = (before - matches.len()) as u64;
                Reply::Select {
                    matches: Arc::new(matches),
                }
            }
            QueryKind::Join { strategy } => {
                let mut pairs: Vec<(u64, u64)> = Vec::new();
                let mut resolutions: Vec<Strategy> = Vec::new();
                for (_, resp) in responses {
                    if let Reply::Join { pairs: p, resolved } = &resp.reply {
                        pairs.extend(p.iter().copied());
                        resolutions.push(*resolved);
                    }
                }
                pairs.sort_unstable();
                let before = pairs.len();
                pairs.dedup();
                duplicates = (before - pairs.len()) as u64;
                // Concrete strategies resolve to themselves on every
                // shard; Auto reports the shards' unanimous choice, or
                // stays Auto when the adaptive picks diverged.
                let resolved = if *strategy != Strategy::Auto {
                    *strategy
                } else if !resolutions.is_empty()
                    && resolutions.iter().all(|s| *s == resolutions[0])
                {
                    resolutions[0]
                } else {
                    Strategy::Auto
                };
                Reply::Join {
                    pairs: Arc::new(pairs),
                    resolved,
                }
            }
        };
        self.duplicates_removed
            .fetch_add(duplicates, Ordering::Relaxed);
        RouterResponse {
            reply,
            shards_queried: responses.len(),
            cached,
            version,
            queue_us,
            exec_us,
            duplicates,
            degraded,
        }
    }

    /// Which shards own a tuple with this MBR: R-side assignment is
    /// halo-expanded (so cross-tile joins stay local), S-side is exact.
    fn owners(&self, side: Side, mbr: &Rect) -> Vec<usize> {
        match side {
            Side::R => self.plan.shards_overlapping(&mbr.expand(self.halo)),
            Side::S => self.plan.shards_overlapping(mbr),
        }
    }

    /// Mirror of the service's record-size admission bound, so the
    /// router can compute `TooLarge` outcomes without a round-trip.
    fn too_large(&self, g: &Geometry) -> bool {
        codec::encoded_len(g) > self.config.service.record_size
            || (self.config.service.compress_geometry
                && codec::encoded_qlen(g) > self.config.service.quant_record_size)
    }

    /// Routes a write batch to the shards owning each touched region
    /// and commits the per-shard sub-batches (each durably, through
    /// that shard's own WAL). The fallback shard receives the batch
    /// verbatim. Global read-your-writes holds once this returns: every
    /// shard a future query can target has published the new snapshot.
    ///
    /// Outcomes are computed against the router's authority maps, so
    /// they carry whole-dataset semantics; an upsert that moves a tuple
    /// across shards turns into upserts at the new owners plus deletes
    /// at the vacated ones.
    pub fn commit(&self, batch: &WriteBatch) -> Result<RouterReceipt, Rejection> {
        let mut r_geoms = lock(&self.r_geoms);
        let mut s_geoms = lock(&self.s_geoms);
        let mut subs: Vec<WriteBatch> = self.services.iter().map(|_| WriteBatch::new()).collect();
        let mut outcomes = Vec::with_capacity(batch.len());

        for (side, op) in &batch.ops {
            let geoms = match side {
                Side::R => &mut *r_geoms,
                Side::S => &mut *s_geoms,
            };
            match op {
                Mutation::Insert { id, value } => {
                    if geoms.contains_key(id) {
                        outcomes.push(MutationOutcome::DuplicateId);
                        continue;
                    }
                    if self.too_large(value) {
                        outcomes.push(MutationOutcome::TooLarge);
                        continue;
                    }
                    for t in self.owners(*side, &value.mbr()) {
                        subs[t].ops.push((*side, op.clone()));
                    }
                    geoms.insert(*id, value.clone());
                    outcomes.push(MutationOutcome::Inserted);
                }
                Mutation::Delete { id } => {
                    let Some(old) = geoms.get(id).map(Bounded::mbr) else {
                        outcomes.push(MutationOutcome::MissingId);
                        continue;
                    };
                    for t in self.owners(*side, &old) {
                        subs[t].ops.push((*side, op.clone()));
                    }
                    geoms.remove(id);
                    outcomes.push(MutationOutcome::Deleted);
                }
                Mutation::Upsert { id, value } => {
                    if self.too_large(value) {
                        outcomes.push(MutationOutcome::TooLarge);
                        continue;
                    }
                    let old = geoms.get(id).map(Bounded::mbr);
                    let new_owners = self.owners(*side, &value.mbr());
                    for &t in &new_owners {
                        subs[t].ops.push((*side, op.clone()));
                    }
                    if let Some(old) = old {
                        // Vacated shards must drop their stale copy or
                        // they would keep reporting matches for the
                        // tuple's old position.
                        for t in self.owners(*side, &old) {
                            if !new_owners.contains(&t) {
                                subs[t].ops.push((*side, Mutation::Delete { id: *id }));
                            }
                        }
                    }
                    let replaced = geoms.insert(*id, value.clone()).is_some();
                    outcomes.push(MutationOutcome::Upserted { replaced });
                }
            }
        }
        drop(r_geoms);
        drop(s_geoms);

        // The fallback holds the full dataset: it applies the original
        // batch unmodified and independently derives the same outcomes
        // — a continuous consistency check on the routing logic.
        if let Some(fb) = self.fallback {
            subs[fb] = batch.clone();
        }

        let mut io = IoStats::default();
        let mut cache_purged = 0;
        let mut cache_retained = 0;
        let mut shard_commits = 0;
        for (t, sub) in subs.iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            let receipt = self.services[t].commit(sub)?;
            io.merge(&receipt.io);
            cache_purged += receipt.cache_purged;
            cache_retained += receipt.cache_retained;
            shard_commits += 1;
            if Some(t) == self.fallback {
                debug_assert_eq!(
                    receipt.outcomes, outcomes,
                    "fallback outcomes diverged from router-computed outcomes"
                );
            }
        }
        let version = self.commits.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(RouterReceipt {
            version,
            outcomes,
            io,
            cache_purged,
            cache_retained,
            shard_commits,
        })
    }

    /// Fault-free sequential oracle over the full dataset (the fallback
    /// shard, or shard 0 when the plan has a single leaf — either holds
    /// everything). Used by benches and tests to assert zero divergence
    /// between scatter-gather and single-node execution.
    pub fn execute_reference(&self, req: &Request) -> Reply {
        self.services[self.fallback.unwrap_or(0)].execute_reference(req)
    }

    /// Per-shard metrics merged into one snapshot (histograms merge
    /// bucket-wise; counters sum).
    pub fn metrics(&self) -> ServiceMetrics {
        let mut total = ServiceMetrics::new();
        for service in &self.services {
            total.merge(&service.metrics());
        }
        total
    }

    /// Emits every shard's metric spans namespaced as `shard:<i>/…`
    /// (`shard:fallback/…` for the fallback) plus a `router/summary`
    /// span with the router's own counters — one merged trace stream
    /// that still attributes every phase to the shard that ran it.
    pub fn emit_metrics(&self, sink: &mut TraceSink) {
        if !sink.is_enabled() {
            return;
        }
        for t in 0..self.plan.len() {
            let mut shard_sink = TraceSink::vec();
            self.services[t].emit_metrics(&mut shard_sink);
            sink.absorb(&format!("shard:{t}"), shard_sink.events());
        }
        if let Some(fb) = self.fallback {
            let mut shard_sink = TraceSink::vec();
            self.services[fb].emit_metrics(&mut shard_sink);
            sink.absorb("shard:fallback", shard_sink.events());
        }
        sink.emit(
            "router/summary",
            0,
            &[
                ("shards", self.plan.len() as u64),
                ("splits", self.plan.splits() as u64),
                ("queries", self.queries.load(Ordering::Relaxed)),
                (
                    "fallback_queries",
                    self.fallback_queries.load(Ordering::Relaxed),
                ),
                (
                    "duplicates_removed",
                    self.duplicates_removed.load(Ordering::Relaxed),
                ),
                ("commits", self.commits.load(Ordering::Relaxed)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geom::{Direction, Point, Polygon};

    const ALL_THETAS: [ThetaOp; 8] = [
        ThetaOp::WithinCenterDistance(9.0),
        ThetaOp::WithinDistance(6.5),
        ThetaOp::Overlaps,
        ThetaOp::Includes,
        ThetaOp::ContainedIn,
        ThetaOp::DirectionOf(Direction::NorthWest),
        ThetaOp::ReachableWithin {
            minutes: 3.0,
            speed: 2.0,
        },
        ThetaOp::Adjacent,
    ];

    fn grid_tuples(n: usize, step: f64, id0: u64) -> Vec<(u64, Geometry)> {
        (0..n * n)
            .map(|i| {
                (
                    id0 + i as u64,
                    Geometry::Point(Point::new((i % n) as f64 * step, (i / n) as f64 * step)),
                )
            })
            .collect()
    }

    fn config(shards: usize) -> ShardConfig {
        ShardConfig {
            shards,
            halo: 8.0,
            service: ServiceConfig {
                workers: 2,
                queue_depth: 128,
                cache_capacity: 0,
                ..ServiceConfig::default()
            },
            ..ShardConfig::default()
        }
    }

    fn router(shards: usize) -> ShardRouter {
        ShardRouter::start(
            config(shards),
            &grid_tuples(8, 8.0, 0),
            &grid_tuples(8, 8.0, 500),
        )
    }

    fn pairs_of(reply: &Reply) -> Vec<(u64, u64)> {
        match reply {
            Reply::Join { pairs, .. } => pairs.as_ref().clone(),
            _ => panic!("expected a join reply"),
        }
    }

    /// Scatter-gather equals the single-node oracle for every θ-op and
    /// shard count, for both SELECT and JOIN, including the operators
    /// that must route to the fallback (DirectionOf; distance beyond
    /// the halo).
    #[test]
    fn scatter_gather_matches_reference_for_all_thetas() {
        for shards in [1, 2, 4] {
            let router = router(shards);
            for theta in ALL_THETAS {
                let join = Request::join(Strategy::Tree, theta);
                let got = router.call(join.clone()).expect("join accepted");
                assert_eq!(
                    got.reply,
                    router.execute_reference(&join),
                    "join {theta:?} diverged at {shards} shards"
                );
                for probe in [
                    Geometry::Point(Point::new(28.0, 28.0)),
                    Geometry::Rect(Rect::from_bounds(20.0, 20.0, 36.0, 44.0)),
                ] {
                    let select = Request::select(Side::S, probe, theta);
                    let got = router.call(select.clone()).expect("select accepted");
                    assert_eq!(
                        got.reply,
                        router.execute_reference(&select),
                        "select {theta:?} diverged at {shards} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn bounded_joins_scatter_and_unbounded_route_to_fallback() {
        let router = router(4);
        assert!(router.has_fallback());
        let scattered = router
            .call(Request::join(Strategy::Tree, ThetaOp::Overlaps))
            .unwrap();
        assert_eq!(scattered.shards_queried, router.shard_count());
        let unbounded = router
            .call(Request::join(
                Strategy::Tree,
                ThetaOp::DirectionOf(Direction::NorthWest),
            ))
            .unwrap();
        assert_eq!(unbounded.shards_queried, 1, "unbounded θ uses the fallback");
        // Distance beyond the halo cannot rely on tile coverage either.
        let wide = router
            .call(Request::join(Strategy::Tree, ThetaOp::WithinDistance(50.0)))
            .unwrap();
        assert_eq!(wide.shards_queried, 1);
    }

    #[test]
    fn bounded_selects_target_only_overlapping_shards() {
        let router = router(4);
        let near_corner = Request::select(
            Side::R,
            Geometry::Point(Point::new(1.0, 1.0)),
            ThetaOp::Overlaps,
        );
        let got = router.call(near_corner).unwrap();
        assert!(
            got.shards_queried < router.shard_count(),
            "a corner probe with radius 0 must not broadcast"
        );
        let unbounded = Request::select(
            Side::R,
            Geometry::Point(Point::new(1.0, 1.0)),
            ThetaOp::DirectionOf(Direction::NorthWest),
        );
        let got = router.call(unbounded).unwrap();
        assert_eq!(got.shards_queried, router.shard_count());
    }

    /// Commits route to owning shards, reads observe them immediately
    /// (global read-your-writes), and an out-of-world insert is clamped
    /// into border shards rather than lost.
    #[test]
    fn commit_routes_writes_and_reads_observe_them() {
        let router = router(2);
        let batch = WriteBatch::new()
            .insert(Side::S, 9_000, Geometry::Point(Point::new(33.0, 17.0)))
            .insert(Side::S, 9_001, Geometry::Point(Point::new(200.0, 200.0)));
        let receipt = router.commit(&batch).expect("commit accepted");
        assert_eq!(
            receipt.outcomes,
            vec![MutationOutcome::Inserted, MutationOutcome::Inserted]
        );
        assert!(receipt.shard_commits >= 2, "data shard + fallback");
        assert_eq!(receipt.version, 1);

        let in_world = Request::select(
            Side::S,
            Geometry::Point(Point::new(33.0, 17.0)),
            ThetaOp::Overlaps,
        );
        let got = router.call(in_world.clone()).unwrap();
        assert_eq!(got.reply, router.execute_reference(&in_world));
        match got.reply {
            Reply::Select { matches } => assert!(matches.contains(&9_000)),
            _ => panic!("expected select reply"),
        }

        // The stray tuple is queryable via a probe near the border it
        // clamped to (WithinDistance reaches out-of-world positions).
        let near_border = Request::select(
            Side::S,
            Geometry::Point(Point::new(56.0, 56.0)),
            ThetaOp::WithinCenterDistance(300.0),
        );
        let got = router.call(near_border.clone()).unwrap();
        assert_eq!(got.reply, router.execute_reference(&near_border));
        match got.reply {
            Reply::Select { matches } => assert!(matches.contains(&9_001)),
            _ => panic!("expected select reply"),
        }
    }

    /// An upsert that moves a tuple across shards deletes the stale
    /// copy at the vacated owner — otherwise the scattered join would
    /// keep reporting the old position.
    #[test]
    fn upsert_move_across_shards_deletes_stale_copy() {
        let router = router(2);
        let moved = WriteBatch::new().upsert(
            Side::S,
            500, // originally at (0, 0)
            Geometry::Point(Point::new(56.0, 0.0)),
        );
        let receipt = router.commit(&moved).expect("commit accepted");
        assert_eq!(
            receipt.outcomes,
            vec![MutationOutcome::Upserted { replaced: true }]
        );
        for theta in [ThetaOp::Overlaps, ThetaOp::WithinDistance(4.0)] {
            let join = Request::join(Strategy::Tree, theta);
            let got = router.call(join.clone()).unwrap();
            let want = router.execute_reference(&join);
            assert_eq!(got.reply, want, "{theta:?} after cross-shard move");
            let pairs = pairs_of(&got.reply);
            assert!(
                !pairs.contains(&(0, 500)),
                "stale copy at the old position must be gone"
            );
            assert!(
                pairs.contains(&(7, 500)),
                "tuple must match at its new position (r id 7 is at (56, 0))"
            );
        }
    }

    /// Router-computed outcomes carry whole-dataset semantics.
    #[test]
    fn mutation_outcomes_are_global() {
        let router = router(2);
        let huge = Geometry::Polygon(
            Polygon::new(
                (0..64)
                    .map(|i| {
                        let a = i as f64 * std::f64::consts::TAU / 64.0;
                        Point::new(30.0 + 10.0 * a.cos(), 30.0 + 10.0 * a.sin())
                    })
                    .collect(),
            )
            .expect("valid polygon"),
        );
        let batch = WriteBatch::new()
            .insert(Side::R, 0, Geometry::Point(Point::new(1.0, 1.0)))
            .insert(Side::R, 9_100, huge)
            .delete(Side::R, 77_777)
            .delete(Side::R, 63)
            .upsert(Side::R, 9_200, Geometry::Point(Point::new(2.0, 2.0)));
        let receipt = router.commit(&batch).expect("commit accepted");
        assert_eq!(
            receipt.outcomes,
            vec![
                MutationOutcome::DuplicateId,
                MutationOutcome::TooLarge,
                MutationOutcome::MissingId,
                MutationOutcome::Deleted,
                MutationOutcome::Upserted { replaced: false },
            ]
        );
    }

    /// `Auto` joins feed per-shard observations back into the advisors
    /// while every reply stays correct (pair-set comparison: the oracle
    /// resolves `Auto` with the static model, shards adaptively).
    #[test]
    fn adaptive_auto_accumulates_observations_and_stays_exact() {
        let router = router(2);
        let theta = ThetaOp::WithinDistance(5.0);
        let req = Request::join(Strategy::Auto, theta);
        let want = pairs_of(&router.execute_reference(&req));
        for _ in 0..6 {
            let got = router.call(req.clone()).expect("join accepted");
            assert_eq!(pairs_of(&got.reply), want);
        }
        for shard in 0..router.shard_count() {
            assert!(
                router.advisor_observations(shard, theta) >= 4,
                "shard {shard} advisor must be learning"
            );
        }
    }

    #[test]
    fn metrics_merge_and_traces_are_namespaced_per_shard() {
        let router = router(2);
        let req = Request::join(Strategy::Tree, ThetaOp::Overlaps);
        router.call(req.clone()).unwrap();
        router.call(req).unwrap();
        let merged = router.metrics();
        assert!(
            merged.completed >= 2 * router.shard_count() as u64,
            "merged completions must count every shard sub-request"
        );

        let mut sink = TraceSink::vec();
        router.emit_metrics(&mut sink);
        let spans: Vec<&str> = sink.events().iter().map(|e| e.span.as_str()).collect();
        assert!(spans.iter().any(|s| s.starts_with("shard:0/")));
        assert!(spans.iter().any(|s| s.starts_with("shard:1/")));
        assert!(spans.iter().any(|s| s.starts_with("shard:fallback/")));
        assert!(spans.contains(&"router/summary"));
        // A Null sink stays silent.
        let mut null = TraceSink::Null;
        router.emit_metrics(&mut null);
    }

    /// Regression: the router used to take its locks with `expect`, so
    /// one panic while holding either turned every later `call` and
    /// `commit` into a panic. Each lock is poisoned from a panicking
    /// thread; the router must keep answering correctly.
    #[test]
    fn poisoned_locks_do_not_take_the_router_down() {
        let router = router(2);
        let poison = |hold: &(dyn Fn() + Sync)| {
            let panicked = std::thread::scope(|scope| scope.spawn(hold).join().is_err());
            assert!(panicked, "the holder thread must panic");
        };
        poison(&|| {
            let _guard = router.advisors.lock().unwrap();
            panic!("poison the advisor lock");
        });
        poison(&|| {
            let _guard = router.r_geoms.lock().unwrap();
            panic!("poison the R authority lock");
        });
        poison(&|| {
            let _guard = router.s_geoms.lock().unwrap();
            panic!("poison the S authority lock");
        });
        assert!(router.advisors.is_poisoned());
        assert!(router.r_geoms.is_poisoned() && router.s_geoms.is_poisoned());

        // An Auto join reads and then updates the advisors.
        let theta = ThetaOp::WithinDistance(5.0);
        let auto = Request::join(Strategy::Auto, theta);
        let got = router.call(auto.clone()).expect("call survives poisoning");
        assert_eq!(
            pairs_of(&got.reply),
            pairs_of(&router.execute_reference(&auto))
        );
        assert!(router.advisor_observations(0, theta) >= 1);

        // A commit walks both authority maps, and reads observe it.
        let batch = WriteBatch::new()
            .insert(Side::R, 9_000, Geometry::Point(Point::new(9.0, 9.0)))
            .insert(Side::S, 9_001, Geometry::Point(Point::new(9.0, 9.0)));
        let receipt = router.commit(&batch).expect("commit survives poisoning");
        assert_eq!(
            receipt.outcomes,
            vec![MutationOutcome::Inserted, MutationOutcome::Inserted]
        );
        let join = Request::join(Strategy::Tree, ThetaOp::Overlaps);
        let got = router.call(join.clone()).expect("join accepted");
        assert_eq!(got.reply, router.execute_reference(&join));
        assert!(pairs_of(&got.reply).contains(&(9_000, 9_001)));
    }

    #[test]
    fn unsupported_strategy_theta_combination_is_rejected_before_scatter() {
        let router = router(2);
        let req = Request::join(Strategy::Grid, ThetaOp::DirectionOf(Direction::NorthWest));
        assert!(matches!(router.call(req), Err(Rejection::UnsupportedTheta)));
    }

    #[test]
    fn single_shard_plan_has_no_fallback_but_serves_everything() {
        let router = router(1);
        assert!(!router.has_fallback());
        let req = Request::join(Strategy::Tree, ThetaOp::DirectionOf(Direction::South));
        let got = router.call(req.clone()).unwrap();
        assert_eq!(got.reply, router.execute_reference(&req));
    }
}
