//! The shard router: scatter-gather coordination with exact merges.
//!
//! See the crate docs for the coverage/exactness argument. The router
//! owns the [`ShardPlan`], one authority copy of both relations' id →
//! geometry maps, one
//! [`AdaptiveAdvisor`](sj_joins::advisor::AdaptiveAdvisor) per shard,
//! and the in-process shard services themselves — exactly one per plan
//! leaf. The authority maps are the only whole-data structure: mutation
//! routing needs them to know where a tuple lives, and the joins no
//! tile grid can localise (unbounded Θ-filter region, or a radius
//! beyond the halo) are answered from them at the router.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use sj_geom::{sweep_candidates, Bounded, Geometry, Rect, SweepItem, ThetaOp};
use sj_joins::advisor::AdaptiveAdvisor;
use sj_joins::{Mutation, MutationOutcome, Side, Strategy, WriteBatch};
use sj_obs::TraceSink;
use sj_service::{
    CommitReceipt, QueryKind, Rejection, Reply, Request, Response, ServiceConfig, ServiceMetrics,
    SpatialService,
};
use sj_storage::IoStats;

use crate::plan::{clamp, ShardPlan, ShardPlanConfig};

/// Router configuration.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Target shard count (base grid size before skew splitting).
    pub shards: usize,
    /// The R-side assignment margin. Joins whose θ filter radius is
    /// ≤ `halo` scatter across shards exactly; larger radii (and
    /// directional operators, whose qualifying region is unbounded)
    /// are answered at the router from its authority maps. `0.0` means
    /// auto: 1/16 of the world's larger extent.
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
    /// `resolved` reflects the per-shard adaptive choices, or is the
    /// requested strategy when the router answered the join itself).
    pub reply: Reply,
    /// Shards this request was scattered to (0 for a join answered at
    /// the router).
    pub shards_queried: usize,
    /// True when every shard reply was served from its result cache.
    pub cached: bool,
    /// Highest shard dataset version among the replies; the router's
    /// own commit count for a join answered at the router.
    pub version: u64,
    /// Max per-shard queue wait (µs) — the admission critical path. For
    /// a join answered at the router, the wait for the authority maps.
    pub queue_us: u64,
    /// Max per-shard execution time (µs) — the compute critical path;
    /// the gather is bounded by the slowest shard, not the sum.
    pub exec_us: u64,
    /// Cross-shard duplicate results removed by the merge (the price of
    /// halo multi-assignment; always 0 for single-shard requests).
    pub duplicates: u64,
    /// True when any shard served via its degraded nested-loop path.
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

/// The scatter-gather coordinator over tile shards.
pub struct ShardRouter {
    config: ShardConfig,
    halo: f64,
    plan: ShardPlan,
    /// One in-process service per plan leaf, in leaf order.
    /// Submissions are asynchronous — `submit` returns the answer or a
    /// handle to wait on, so a request fans out to every target shard
    /// *before* the router blocks on any reply — and commits are
    /// synchronous: the shard's WAL sync has happened by the time
    /// `commit` returns, which is what makes the router's global
    /// read-your-writes guarantee compose from per-shard guarantees.
    services: Vec<SpatialService>,
    advisors: Mutex<Vec<AdaptiveAdvisor>>,
    /// The authority maps. Lock order is R then S; `commit` holds both
    /// until its last shard sub-batch has committed, so a join answered
    /// from them sees a batch entirely or not at all.
    r_geoms: Mutex<HashMap<u64, Geometry>>,
    s_geoms: Mutex<HashMap<u64, Geometry>>,
    commits: AtomicU64,
    queries: AtomicU64,
    router_joins: AtomicU64,
    duplicates_removed: AtomicU64,
    /// Test hook: runs after each shard sub-batch has committed, with
    /// the shard's index, while `commit` still holds the map guards.
    #[cfg(test)]
    after_shard_commit: Option<Box<dyn Fn(usize) + Send + Sync>>,
}

/// The union of every tuple MBR on both sides — the router's world.
/// With no tuples at all, a unit square keeps the plan non-degenerate.
fn world_of(r_tuples: &[(u64, Geometry)], s_tuples: &[(u64, Geometry)]) -> Rect {
    let mbrs = r_tuples.iter().chain(s_tuples).map(|(_, g)| g.mbr());
    mbrs.reduce(|a, b| a.union(&b))
        .unwrap_or_else(|| Rect::from_bounds(0.0, 0.0, 1.0, 1.0))
}

/// Takes a router lock, recovering from poisoning the way `sj-service`
/// does: a request that panicked while holding the lock must not turn
/// every later `call`/`commit` into a panic. Each update under these
/// locks is a single map/advisor operation, so the data a panicking
/// holder leaves behind is valid (a `commit` that panics part-way
/// leaves the maps ahead of the shards it had not reached).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The rectangle that decides which shards own a tuple: R-side
/// assignment is halo-expanded (so cross-tile joins stay local), S-side
/// is exact.
fn assignment_rect(side: Side, mbr: &Rect, halo: f64) -> Rect {
    match side {
        Side::R => mbr.expand(halo),
        Side::S => *mbr,
    }
}

/// Merges the shards' replies — each sorted, as every service reply is —
/// into their sorted duplicate-free union, in one output sized to their
/// total, and counts the duplicates dropped. An unsorted reply would be
/// sorted with the rest, never merged wrongly.
fn merge_runs<T: Ord + Copy>(mut runs: Vec<&[T]>) -> (Arc<Vec<T>>, u64) {
    let total: usize = runs.iter().map(|run| run.len()).sum();
    let mut out: Vec<T> = Vec::with_capacity(total);
    runs.retain(|run| !run.is_empty());
    // The least head's run gives all it has up to the others' least head.
    while let Some(least) = (0..runs.len()).min_by_key(|&i| runs[i][0]) {
        let run = runs[least];
        let bound = (0..runs.len()).filter(|&i| i != least).map(|i| runs[i][0]);
        let upto = bound.min().and_then(|b| run.iter().position(|v| *v > b));
        let (piece, rest) = run.split_at(upto.unwrap_or(run.len()).max(1));
        out.extend_from_slice(piece);
        runs[least] = rest;
        runs.retain(|run| !run.is_empty());
    }
    // Equal values from different runs sit side by side now.
    if !out.is_sorted() {
        out.sort();
    }
    out.dedup();
    let duplicates = (total - out.len()) as u64;
    (Arc::new(out), duplicates)
}

/// One shard's reply *is* the answer (sorted and duplicate-free, as every
/// service reply is) and is shared, not copied; several are merged.
fn gather<T: Ord + Copy>(runs: &[&Arc<Vec<T>>]) -> (Arc<Vec<T>>, u64) {
    match runs {
        [only] => (Arc::clone(only), 0),
        _ => merge_runs(runs.iter().map(|run| run.as_slice()).collect()),
    }
}

impl ShardRouter {
    /// Partitions the relations, starts one service per shard, and
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
        // Each tuple's clamped assignment rect, computed once: a leaf
        // holds the tuple iff it intersects that rect — the same rule
        // `owners` applies to a routed mutation.
        let assign = |side: Side, tuples: &[(u64, Geometry)]| -> Vec<Rect> {
            tuples
                .iter()
                .map(|(_, g)| clamp(&world, &assignment_rect(side, &g.mbr(), halo)))
                .collect()
        };
        let (r_rects, s_rects) = (assign(Side::R, r_tuples), assign(Side::S, s_tuples));
        let occupancy = |leaf: &Rect| {
            let held = |rects: &[Rect]| rects.iter().filter(|a| a.intersects(leaf)).count();
            held(&r_rects) + held(&s_rects)
        };
        let plan = ShardPlan::build(world, &plan_cfg, &occupancy);

        let slice = |tuples: &[(u64, Geometry)], rects: &[Rect], leaf: &Rect| {
            let held = tuples.iter().zip(rects).filter(|(_, a)| a.intersects(leaf));
            held.map(|(t, _)| t.clone()).collect::<Vec<_>>()
        };
        let mut services = Vec::with_capacity(plan.len());
        for leaf in plan.leaves() {
            let r_slice = slice(r_tuples, &r_rects, leaf);
            let s_slice = slice(s_tuples, &s_rects, leaf);
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
        let advisors = services
            .iter()
            .map(|_| AdaptiveAdvisor::new(config.service.profile))
            .collect();
        ShardRouter {
            config,
            halo,
            plan,
            services,
            advisors: Mutex::new(advisors),
            r_geoms: Mutex::new(r_tuples.iter().map(|(id, g)| (*id, g.clone())).collect()),
            s_geoms: Mutex::new(s_tuples.iter().map(|(id, g)| (*id, g.clone())).collect()),
            commits: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            router_joins: AtomicU64::new(0),
            duplicates_removed: AtomicU64::new(0),
            #[cfg(test)]
            after_shard_commit: None,
        }
    }

    /// The shard decomposition.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The resolved R-side assignment margin.
    pub fn halo(&self) -> f64 {
        self.halo
    }

    /// Router-level commit count (the version space of
    /// [`RouterReceipt::version`]).
    pub fn version(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Scatter a request to its target shards, gather, and merge.
    /// Blocking; the gather is bounded by the slowest targeted shard.
    /// A join whose Θ-filter region no tile grid can bound is answered
    /// here instead ([`Self::join_at_router`]).
    pub fn call(&self, req: Request) -> RouterResult {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let theta = req.theta;
        let join = match req.kind {
            QueryKind::Join { strategy } => Some(strategy),
            QueryKind::Select { .. } => None,
        };
        if let Some(strategy) = join {
            // Mirror service admission so unsupported operators are
            // rejected before any work.
            if !strategy.supports(theta) {
                return Err(Rejection::UnsupportedTheta);
            }
            // Radius beyond the halo (or unbounded): the tile coverage
            // proof no longer applies — the same reason grid_join
            // rejects directional θ.
            if !theta.filter_radius().is_some_and(|e| e <= self.halo) {
                return Ok(self.join_at_router(strategy, theta));
            }
        }
        let targets: Vec<usize> = match (&req.kind, theta.filter_radius()) {
            // A matching tuple's MBR intersects the probe MBR expanded
            // by the filter radius (Θ-filter guarantee), so only shards
            // overlapping that region can hold matches.
            (QueryKind::Select { probe, .. }, Some(eps)) => {
                self.plan.shards_overlapping(&probe.mbr().expand(eps))
            }
            // A select with an unbounded predicate: matches can live
            // anywhere, and every tuple lives in ≥ 1 shard — broadcast
            // is exact. A join with ε ≤ halo: every shard joins its
            // slice (the coverage argument in the crate docs).
            _ => (0..self.plan.len()).collect(),
        };
        let auto_join = join == Some(Strategy::Auto);

        // Rewrite Auto joins to each shard's adaptive choice, so the
        // feedback loop can attribute the observed cost to a concrete
        // strategy. Nothing else takes the advisors' lock.
        let mut choices = Vec::new();
        if auto_join {
            let advisors = lock(&self.advisors);
            choices.extend(targets.iter().map(|&t| advisors[t].choose(theta)));
        }

        // Scatter first, gather second: every shard computes in parallel
        // with the others (one holding the reply in its cache answers
        // inside `submit`). The last target takes the request itself.
        let mut pending = Vec::with_capacity(targets.len());
        let mut first_err = None;
        for (i, mut sub) in std::iter::repeat_n(req, targets.len()).enumerate() {
            if auto_join {
                sub.kind = QueryKind::Join {
                    strategy: choices[i],
                };
            }
            match self.services[targets[i]].submit(sub) {
                Ok(answer) => pending.push(answer),
                Err(rej) => {
                    first_err.get_or_insert(rej);
                    break;
                }
            }
        }
        let mut responses: Vec<Response> = Vec::with_capacity(pending.len());
        for answer in pending {
            match answer.wait() {
                Ok(resp) => responses.push(resp),
                Err(rej) => {
                    first_err.get_or_insert(rej);
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
            for ((&t, &strategy), resp) in targets.iter().zip(&choices).zip(&responses) {
                if !resp.cached {
                    advisors[t].observe(theta, strategy, resp.exec_us.max(1));
                }
            }
        }

        Ok(self.merge(join, &responses))
    }

    /// Answers a join from the authority maps by the paper's
    /// filter-then-refine over one flat copy: the plane sweep over
    /// ε-expanded MBRs when the Θ-filter radius is bounded (so the join
    /// stays O(n log n + k)), all pairs under the Θ-filter when it is
    /// not (strategy I, output-optimal there since the result is
    /// Θ(|R|·|S|)), then the exact θ on the survivors. Every strategy
    /// yields this pair set on a single node, so `resolved` is the one
    /// requested.
    fn join_at_router(&self, strategy: Strategy, theta: ThetaOp) -> RouterResponse {
        self.router_joins.fetch_add(1, Ordering::Relaxed);
        let asked = Instant::now();
        let (r_geoms, s_geoms) = (lock(&self.r_geoms), lock(&self.s_geoms));
        let queue_us = asked.elapsed().as_micros() as u64;
        let r: Vec<(&u64, &Geometry)> = r_geoms.iter().collect();
        let s: Vec<(&u64, &Geometry)> = s_geoms.iter().collect();
        // One sweep item per tuple: its MBR and, as key, its index.
        let items = |side: &[(&u64, &Geometry)], eps: f64| -> Vec<SweepItem> {
            let item = |k: usize| SweepItem::expanded(k as u32, side[k].1.mbr(), eps);
            (0..side.len()).map(item).collect()
        };
        let eps = theta.filter_radius();
        let (mut left, mut right) = (items(&r, eps.unwrap_or(0.0)), items(&s, 0.0));
        let mut pairs = Vec::new();
        let mut refine = |i: u32, j: u32| {
            let ((r_id, r_geom), (s_id, s_geom)) = (r[i as usize], s[j as usize]);
            if theta.eval(r_geom, s_geom) {
                pairs.push((*r_id, *s_id));
            }
        };
        if eps.is_some() {
            sweep_candidates(&mut left, &mut right, theta, &mut refine);
        } else {
            for l in &left {
                for r in right.iter().filter(|r| theta.filter(&l.mbr, &r.mbr)) {
                    refine(l.key, r.key);
                }
            }
        }
        pairs.sort_unstable();
        RouterResponse {
            reply: Reply::Join {
                pairs: Arc::new(pairs),
                resolved: strategy,
            },
            shards_queried: 0,
            cached: false,
            version: self.commits.load(Ordering::Relaxed),
            queue_us,
            exec_us: asked.elapsed().as_micros() as u64 - queue_us,
            duplicates: 0,
            degraded: false,
        }
    }

    /// Sorted-run merge with dedup. Exactness: every shard result is a
    /// true match (shards run exact executors), coverage guarantees
    /// every true match appears in ≥ 1 shard, and duplicates only arise
    /// from halo multi-assignment — so dedup restores the single-node
    /// result precisely. `join`: the strategy named, `None` for a select.
    fn merge(&self, join: Option<Strategy>, responses: &[Response]) -> RouterResponse {
        let mut cached = !responses.is_empty();
        let mut degraded = false;
        let mut version = 0;
        let mut queue_us = 0;
        let mut exec_us = 0;
        for resp in responses {
            cached &= resp.cached;
            degraded |= resp.degraded;
            version = version.max(resp.version);
            queue_us = queue_us.max(resp.queue_us);
            exec_us = exec_us.max(resp.exec_us);
        }

        let (reply, duplicates) = match join {
            None => {
                let mut runs = Vec::new();
                for resp in responses {
                    if let Reply::Select { matches: m } = &resp.reply {
                        runs.push(m);
                    }
                }
                let (matches, duplicates) = gather(&runs);
                (Reply::Select { matches }, duplicates)
            }
            Some(strategy) => {
                let mut runs = Vec::new();
                let mut resolutions: Vec<Strategy> = Vec::new();
                for resp in responses {
                    if let Reply::Join { pairs: p, resolved } = &resp.reply {
                        runs.push(p);
                        resolutions.push(*resolved);
                    }
                }
                let (pairs, duplicates) = gather(&runs);
                // Concrete strategies resolve to themselves on every
                // shard; Auto reports the shards' unanimous choice, or
                // stays Auto when the adaptive picks diverged.
                let resolved = if strategy != Strategy::Auto {
                    strategy
                } else if !resolutions.is_empty()
                    && resolutions.iter().all(|s| *s == resolutions[0])
                {
                    resolutions[0]
                } else {
                    Strategy::Auto
                };
                (Reply::Join { pairs, resolved }, duplicates)
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

    /// Which shards own a tuple with this MBR.
    fn owners(&self, side: Side, mbr: &Rect) -> Vec<usize> {
        self.plan
            .shards_overlapping(&assignment_rect(side, mbr, self.halo))
    }

    /// Routes a write batch to the shards owning each touched region
    /// and commits the per-shard sub-batches (each durably, through
    /// that shard's own WAL). Global read-your-writes holds once this
    /// returns: every shard a future query can target has published the
    /// new snapshot.
    ///
    /// Outcomes are computed against the router's authority maps, so
    /// they carry whole-dataset semantics; an upsert that moves a tuple
    /// across shards turns into upserts at the new owners plus deletes
    /// at the vacated ones.
    ///
    /// The non-empty sub-batches commit side by side (shards share
    /// nothing): the first on the calling thread, each further one on a
    /// scoped thread. Both map guards are held for the whole call, so two
    /// commits never interleave at a shard and a join answered from the
    /// maps sees the batch entirely or not at all. Any failed shard commit
    /// restores the maps and returns the first rejection in shard order,
    /// which makes the batch retryable; shards whose sub-batch did commit
    /// stay ahead until then (atomicity across shards is ROADMAP item 18b).
    pub fn commit(&self, batch: &WriteBatch) -> Result<RouterReceipt, Rejection> {
        let mut r_geoms = lock(&self.r_geoms);
        let mut s_geoms = lock(&self.s_geoms);
        let mut subs: Vec<WriteBatch> = self.services.iter().map(|_| WriteBatch::new()).collect();
        let mut outcomes = Vec::with_capacity(batch.len());
        // What each touched id held before this batch, in apply order.
        let mut undo: Vec<(Side, u64, Option<Geometry>)> = Vec::new();

        for (side, op) in &batch.ops {
            let geoms = match side {
                Side::R => &mut *r_geoms,
                Side::S => &mut *s_geoms,
            };
            let id = op.id();
            let new = match op {
                Mutation::Insert { value, .. } | Mutation::Upsert { value, .. } => Some(value),
                Mutation::Delete { .. } => None,
            };
            let present = geoms.contains_key(&id);
            let outcome = match op {
                Mutation::Insert { .. } if present => MutationOutcome::DuplicateId,
                Mutation::Delete { .. } if !present => MutationOutcome::MissingId,
                _ if new.is_some_and(|v| self.config.service.too_large(v)) => {
                    MutationOutcome::TooLarge
                }
                Mutation::Insert { .. } => MutationOutcome::Inserted,
                Mutation::Delete { .. } => MutationOutcome::Deleted,
                Mutation::Upsert { .. } => MutationOutcome::Upserted { replaced: present },
            };
            outcomes.push(outcome);
            if !outcome.applied() {
                continue;
            }
            // The op goes to the shards owning the new value. Shards the
            // tuple vacates (every owner, for a delete) must drop their
            // stale copy or they would keep reporting matches for the
            // tuple's old position.
            let new_owners = new.map_or_else(Vec::new, |v| self.owners(*side, &v.mbr()));
            for &t in &new_owners {
                subs[t].ops.push((*side, op.clone()));
            }
            let old = match new {
                Some(value) => geoms.insert(id, value.clone()),
                None => geoms.remove(&id),
            };
            if let Some(old) = &old {
                for t in self.owners(*side, &old.mbr()) {
                    if !new_owners.contains(&t) {
                        subs[t].ops.push((*side, Mutation::Delete { id }));
                    }
                }
            }
            undo.push((*side, id, old));
        }

        let commit_shard = |t: usize| {
            let receipt = self.services[t].commit(&subs[t]);
            #[cfg(test)]
            if let (Ok(_), Some(hook)) = (&receipt, &self.after_shard_commit) {
                hook(t);
            }
            receipt
        };
        let mut named = (0..subs.len()).filter(|&t| !subs[t].is_empty());
        let first = named.next();
        let receipts: Vec<Result<CommitReceipt, Rejection>> = std::thread::scope(|scope| {
            let rest: Vec<_> = named
                .map(|t| scope.spawn(move || commit_shard(t)))
                .collect();
            let joined = rest
                .into_iter()
                .map(|handle| handle.join().unwrap_or(Err(Rejection::WorkerPanicked)));
            first.map(commit_shard).into_iter().chain(joined).collect()
        });
        let receipts = match receipts.into_iter().collect::<Result<Vec<_>, _>>() {
            Ok(receipts) => receipts,
            Err(rejection) => {
                for (side, id, old) in undo.into_iter().rev() {
                    let geoms = match side {
                        Side::R => &mut *r_geoms,
                        Side::S => &mut *s_geoms,
                    };
                    match old {
                        Some(g) => geoms.insert(id, g),
                        None => geoms.remove(&id),
                    };
                }
                return Err(rejection);
            }
        };
        let mut io = IoStats::default();
        receipts.iter().for_each(|receipt| io.merge(&receipt.io));
        Ok(RouterReceipt {
            version: self.commits.fetch_add(1, Ordering::Relaxed) + 1,
            outcomes,
            io,
            cache_purged: receipts.iter().map(|receipt| receipt.cache_purged).sum(),
            cache_retained: receipts.iter().map(|receipt| receipt.cache_retained).sum(),
            shard_commits: receipts.len(),
        })
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
    /// plus a `router/summary` span with the router's own counters —
    /// one merged trace stream that still attributes every phase to the
    /// shard that ran it.
    pub fn emit_metrics(&self, sink: &mut TraceSink) {
        if !sink.is_enabled() {
            return;
        }
        for (t, service) in self.services.iter().enumerate() {
            let mut shard_sink = TraceSink::vec();
            service.emit_metrics(&mut shard_sink);
            sink.absorb(&format!("shard:{t}"), shard_sink.events());
        }
        sink.emit(
            "router/summary",
            0,
            &[
                ("shards", self.plan.len() as u64),
                ("splits", self.plan.splits() as u64),
                ("queries", self.queries.load(Ordering::Relaxed)),
                // Joins answered at the router (the key predates that).
                (
                    "fallback_queries",
                    self.router_joins.load(Ordering::Relaxed),
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
    use sj_storage::{FaultConfig, FaultInjector, PageId};
    use std::collections::HashSet;
    use std::sync::Barrier;

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

    /// The one-pass merge is concat + sort + dedup, duplicate count
    /// included, for any k ≤ 4 sorted replies that share pairs — and
    /// still is when a reply arrives unsorted.
    #[test]
    fn merge_runs_equals_concat_sort_dedup() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x3E26E);
        for round in 0..600 {
            let k = rng.random_range(0..=4usize);
            let mut replies: Vec<Vec<(u64, u64)>> = (0..k)
                .map(|_| {
                    let len = rng.random_range(0..40usize);
                    // A narrow id range, so lists repeat each other.
                    let mut reply: Vec<(u64, u64)> = (0..len)
                        .map(|_| (rng.random_range(0..12), rng.random_range(0..6)))
                        .collect();
                    reply.sort_unstable();
                    reply.dedup();
                    reply
                })
                .collect();
            if round % 10 == 9 {
                replies.iter_mut().for_each(|reply| reply.reverse());
            }
            let mut want = replies.concat();
            want.sort_unstable();
            let before = want.len();
            want.dedup();
            let runs: Vec<&[(u64, u64)]> = replies.iter().map(Vec::as_slice).collect();
            let (got, duplicates) = merge_runs(runs);
            assert_eq!(*got, want, "round {round}: {replies:?}");
            assert_eq!(duplicates, (before - want.len()) as u64);
            assert!(got.capacity() <= before, "no buffer beyond the total");
        }
        let (ids, duplicates) = merge_runs(vec![&[1u64, 4, 9][..], &[4, 5, 9, 12], &[], &[9]]);
        assert_eq!((&ids[..], duplicates), (&[1, 4, 5, 9, 12][..], 3));
    }

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

    /// A router over `r`/`s` and the oracle every test compares it
    /// with: one whole-data [`SpatialService`] on the same tuples and
    /// service configuration, fed the same commits ([`commit_both`]).
    fn router_and_oracle(
        shards: usize,
        r: &[(u64, Geometry)],
        s: &[(u64, Geometry)],
    ) -> (ShardRouter, SpatialService) {
        let cfg = config(shards);
        (
            ShardRouter::start(cfg, r, s),
            SpatialService::start(cfg.service, r, s, world_of(r, s)),
        )
    }

    /// The default data: two 8×8 point lattices over [0, 56]².
    fn router(shards: usize) -> (ShardRouter, SpatialService) {
        router_and_oracle(shards, &grid_tuples(8, 8.0, 0), &grid_tuples(8, 8.0, 500))
    }

    /// Commits `batch` to both and checks the router's whole-dataset
    /// outcomes against the single node's.
    fn commit_both(
        router: &ShardRouter,
        oracle: &SpatialService,
        batch: &WriteBatch,
    ) -> RouterReceipt {
        let receipt = router.commit(batch).expect("router commit accepted");
        let want = oracle.commit(batch).expect("oracle commit accepted");
        assert_eq!(receipt.outcomes, want.outcomes, "outcomes for {batch:?}");
        receipt
    }

    fn pairs_of(reply: &Reply) -> Vec<(u64, u64)> {
        match reply {
            Reply::Join { pairs, .. } => pairs.as_ref().clone(),
            _ => panic!("expected a join reply"),
        }
    }

    /// Faults the next WAL sync of `service` (sync attempt ids count
    /// from 0 per injector), as `sj-service`'s own WAL-fault test does.
    fn fault_next_wal_sync(service: &SpatialService) {
        service.set_wal_fault_injector(Some(FaultInjector::new(FaultConfig {
            write_prob: 1.0,
            target_pages: Some(HashSet::from([PageId(0)])),
            ..FaultConfig::default()
        })));
    }

    /// Scatter-gather equals the single-node oracle for every θ-op and
    /// shard count, for both SELECT and JOIN, including the operators
    /// the router answers itself (DirectionOf; distance beyond the
    /// halo).
    #[test]
    fn scatter_gather_matches_reference_for_all_thetas() {
        for shards in [1, 2, 4] {
            let (router, oracle) = router(shards);
            for theta in ALL_THETAS {
                let join = Request::join(Strategy::Tree, theta);
                let got = router.call(join.clone()).expect("join accepted");
                assert_eq!(
                    got.reply,
                    oracle.execute_reference(&join),
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
                        oracle.execute_reference(&select),
                        "select {theta:?} diverged at {shards} shards"
                    );
                }
            }
        }
    }

    /// Adaptive-advisor observation count for one shard and θ-family.
    fn advisor_observations(router: &ShardRouter, shard: usize, theta: ThetaOp) -> u64 {
        lock(&router.advisors)[shard].observations(theta)
    }

    fn summary_counter(router: &ShardRouter, key: &str) -> u64 {
        let mut sink = TraceSink::vec();
        router.emit_metrics(&mut sink);
        let summary = sink.events().iter().find(|e| e.span == "router/summary");
        let counters = &summary.expect("router/summary emitted").counters;
        counters.iter().find(|(k, _)| *k == key).expect("key").1
    }

    #[test]
    fn bounded_joins_scatter_and_unbounded_are_answered_at_the_router() {
        let (router, oracle) = router(4);
        let scattered = router
            .call(Request::join(Strategy::Tree, ThetaOp::Overlaps))
            .unwrap();
        assert_eq!(scattered.shards_queried, router.plan().len());
        assert_eq!(summary_counter(&router, "fallback_queries"), 0);
        // An unbounded θ, and a distance beyond the halo: tile coverage
        // cannot be relied on, so no shard is asked.
        let unlocalisable = [
            ThetaOp::DirectionOf(Direction::NorthWest),
            ThetaOp::WithinDistance(50.0),
        ];
        for (n, theta) in unlocalisable.into_iter().enumerate() {
            let join = Request::join(Strategy::Tree, theta);
            let got = router.call(join.clone()).unwrap();
            assert_eq!(got.shards_queried, 0, "{theta:?} uses no shard");
            assert_eq!(got.reply, oracle.execute_reference(&join), "{theta:?}");
            assert!(!pairs_of(&got.reply).is_empty(), "{theta:?} must match");
            assert_eq!(summary_counter(&router, "fallback_queries"), n as u64 + 1);
        }
    }

    /// The router path on the batched sweep kernel: both sides hold at
    /// least `BATCH_MIN` tuples and the radius (9) exceeds the halo
    /// (8). The rects are 6 wide on an 8-step lattice, so the Θ-filter
    /// (MBR gap ≤ 9) admits many pairs the exact centre-distance θ
    /// rejects — filter and refine both do work.
    #[test]
    fn wide_radius_join_runs_the_batched_sweep_at_the_router() {
        let rects = |id0: u64, shift: f64| -> Vec<(u64, Geometry)> {
            let cell = |i: u64| ((i % 6) as f64 * 8.0 + shift, (i / 6) as f64 * 8.0 + shift);
            let rect = |(x, y): (f64, f64)| Rect::from_bounds(x, y, x + 6.0, y + 6.0);
            (0..36)
                .map(|i| (id0 + i, Geometry::Rect(rect(cell(i)))))
                .collect()
        };
        let (r, s) = (rects(0, 0.0), rects(500, 3.0));
        assert!(r.len().min(s.len()) >= sj_geom::BATCH_MIN);
        let (router, oracle) = router_and_oracle(4, &r, &s);
        let theta = ThetaOp::WithinCenterDistance(9.0);
        assert!(theta.filter_radius().unwrap() > router.halo());
        for strategy in [Strategy::NestedLoop, Strategy::Sweep, Strategy::Tree] {
            let join = Request::join(strategy, theta);
            let got = router.call(join.clone()).unwrap();
            assert_eq!(got.shards_queried, 0);
            assert_eq!(got.reply, oracle.execute_reference(&join), "{strategy:?}");
        }
        let candidates = r
            .iter()
            .flat_map(|(_, a)| s.iter().map(move |(_, b)| theta.filter(&a.mbr(), &b.mbr())))
            .filter(|passes| *passes)
            .count();
        let join = Request::join(Strategy::Sweep, theta);
        let matches = pairs_of(&router.call(join).unwrap().reply).len();
        assert!(
            0 < matches && matches < candidates,
            "refinement must reject"
        );
    }

    #[test]
    fn bounded_selects_target_only_overlapping_shards() {
        let (router, _) = router(4);
        let near_corner = Request::select(
            Side::R,
            Geometry::Point(Point::new(1.0, 1.0)),
            ThetaOp::Overlaps,
        );
        let got = router.call(near_corner).unwrap();
        assert!(
            got.shards_queried < router.plan().len(),
            "a corner probe with radius 0 must not broadcast"
        );
        let unbounded = Request::select(
            Side::R,
            Geometry::Point(Point::new(1.0, 1.0)),
            ThetaOp::DirectionOf(Direction::NorthWest),
        );
        let got = router.call(unbounded).unwrap();
        assert_eq!(got.shards_queried, router.plan().len());
    }

    /// Commits route to owning shards, reads observe them immediately
    /// (global read-your-writes), and an out-of-world insert is clamped
    /// into border shards rather than lost.
    #[test]
    fn commit_routes_writes_and_reads_observe_them() {
        let (router, oracle) = router(2);
        // Two tiles split at x = 28: (33, 17) lies in the right one
        // only, and (200, 200) clamps to the world's max corner, also in
        // the right one — one owning tile, one shard commit.
        let batch = WriteBatch::new()
            .insert(Side::S, 9_000, Geometry::Point(Point::new(33.0, 17.0)))
            .insert(Side::S, 9_001, Geometry::Point(Point::new(200.0, 200.0)));
        let receipt = commit_both(&router, &oracle, &batch);
        assert_eq!(
            receipt.outcomes,
            vec![MutationOutcome::Inserted, MutationOutcome::Inserted]
        );
        assert_eq!(receipt.shard_commits, 1, "only the owning tile commits");
        assert_eq!(receipt.version, 1);
        // An R tuple whose halo crosses the split is owned by both.
        let straddling =
            WriteBatch::new().insert(Side::R, 9_002, Geometry::Point(Point::new(30.0, 10.0)));
        let receipt = commit_both(&router, &oracle, &straddling);
        assert_eq!(receipt.shard_commits, 2, "both owning tiles commit");

        let in_world = Request::select(
            Side::S,
            Geometry::Point(Point::new(33.0, 17.0)),
            ThetaOp::Overlaps,
        );
        let got = router.call(in_world.clone()).unwrap();
        assert_eq!(got.reply, oracle.execute_reference(&in_world));
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
        assert_eq!(got.reply, oracle.execute_reference(&near_border));
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
        let (router, oracle) = router(2);
        let moved = WriteBatch::new().upsert(
            Side::S,
            500, // originally at (0, 0)
            Geometry::Point(Point::new(56.0, 0.0)),
        );
        let receipt = commit_both(&router, &oracle, &moved);
        assert_eq!(
            receipt.outcomes,
            vec![MutationOutcome::Upserted { replaced: true }]
        );
        for theta in [ThetaOp::Overlaps, ThetaOp::WithinDistance(4.0)] {
            let join = Request::join(Strategy::Tree, theta);
            let got = router.call(join.clone()).unwrap();
            let want = oracle.execute_reference(&join);
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
        let (router, oracle) = router(2);
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
        let receipt = commit_both(&router, &oracle, &batch);
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

    /// A batch touching both tiles and both sides: R 9_000 straddles
    /// the x = 28 split (halo 8), S 9_001 lies in the right tile, S 531
    /// (at (24, 24)) is deleted from the left one.
    fn two_tile_batch() -> WriteBatch {
        WriteBatch::new()
            .insert(Side::R, 9_000, Geometry::Point(Point::new(30.0, 10.0)))
            .insert(Side::S, 9_001, Geometry::Point(Point::new(31.0, 10.0)))
            .delete(Side::S, 531)
    }

    /// Regression: `commit` used to update the authority maps, drop
    /// their guards and then commit the sub-batches with `?`, so one
    /// failed shard commit left the maps ahead of the shards for good —
    /// a retry of the same insert answered `DuplicateId` and was never
    /// routed. Sub-batches commit side by side, so whichever named shard
    /// fails — the first or the last — the other has applied its
    /// sub-batch when the error returns.
    #[test]
    fn failed_shard_commit_leaves_the_authority_maps_untouched_and_is_retryable() {
        for failing in [0, 1] {
            failed_commit_is_undone_and_retryable(failing);
        }
    }

    fn failed_commit_is_undone_and_retryable(failing: usize) {
        let (router, oracle) = router(2);
        let batch = two_tile_batch();
        let wide = Request::join(Strategy::Tree, ThetaOp::WithinDistance(50.0));
        let before = router.call(wide.clone()).unwrap().reply;

        fault_next_wal_sync(&router.services[failing]);
        let err = router.commit(&batch).expect_err("the sync fault aborts");
        assert!(matches!(err, Rejection::Failed(_)), "got {err:?}");
        assert_eq!(router.version(), 0, "a failed commit takes no version");
        assert_eq!(
            router.call(wide.clone()).unwrap().reply,
            before,
            "the authority maps must be as before the failed commit"
        );

        // The same batch again (the injector targeted one sync only).
        let receipt = commit_both(&router, &oracle, &batch);
        assert_eq!(
            receipt.outcomes,
            vec![
                MutationOutcome::Inserted,
                MutationOutcome::Inserted,
                MutationOutcome::Deleted
            ]
        );
        for theta in [ThetaOp::WithinDistance(2.0), ThetaOp::WithinDistance(50.0)] {
            let join = Request::join(Strategy::Tree, theta);
            let got = router.call(join.clone()).unwrap().reply;
            assert_eq!(
                got,
                oracle.execute_reference(&join),
                "{theta:?} after retry"
            );
            assert!(pairs_of(&got).contains(&(9_000, 9_001)));
        }
        let select = Request::select(
            Side::S,
            Geometry::Point(Point::new(24.0, 24.0)),
            ThetaOp::WithinDistance(9.0),
        );
        let got = router.call(select.clone()).unwrap().reply;
        assert_eq!(got, oracle.execute_reference(&select));
    }

    /// A join answered from the authority maps, issued from a second
    /// thread while a two-shard commit has one shard committed and still
    /// holds the guards (the hook parks whichever thread committed shard
    /// 0), sees that batch entirely (the commit succeeds) or not at all
    /// (its other shard commit fails) — never the half that is already in
    /// the maps and on one shard.
    #[test]
    fn a_router_join_during_a_multi_shard_commit_sees_the_batch_entirely_or_not_at_all() {
        let (mut router, oracle) = router(2);
        let wide = Request::join(Strategy::Tree, ThetaOp::WithinDistance(50.0));
        // The commit thread parks on this barrier twice after shard 0
        // has committed: once to say so, once to be released.
        let mid_commit = Arc::new(Barrier::new(2));
        let parked = Arc::clone(&mid_commit);
        router.after_shard_commit = Some(Box::new(move |t| {
            if t == 0 {
                parked.wait();
                parked.wait();
            }
        }));
        let router = &router;
        let issued = Barrier::new(2);
        let join_during_commit = |batch: &WriteBatch| {
            std::thread::scope(|scope| {
                let commit = scope.spawn(|| router.commit(batch));
                mid_commit.wait();
                assert!(
                    router.r_geoms.try_lock().is_err() && router.s_geoms.try_lock().is_err(),
                    "commit holds both map guards between shard commits"
                );
                let join = scope.spawn(|| {
                    issued.wait();
                    router.call(wide.clone()).unwrap().reply
                });
                issued.wait();
                mid_commit.wait();
                (commit.join().unwrap(), join.join().unwrap())
            })
        };

        let before = oracle.execute_reference(&wide);
        fault_next_wal_sync(&router.services[1]);
        let (committed, seen) = join_during_commit(&two_tile_batch());
        assert!(committed.is_err(), "the second shard commit fails");
        assert_eq!(seen, before, "nothing of a failed batch is visible");

        let (committed, seen) = join_during_commit(&two_tile_batch());
        assert!(committed.is_ok(), "the retry commits");
        oracle.commit(&two_tile_batch()).unwrap();
        assert_eq!(seen, oracle.execute_reference(&wide), "all of it");
        assert_ne!(seen, before);
    }

    /// Sub-batches commit side by side, but a thread is spent only where
    /// there is a second sub-batch to run beside the first.
    #[test]
    fn a_single_shard_batch_commits_on_the_calling_thread() {
        let (mut router, oracle) = router(2);
        let committers = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&committers);
        router.after_shard_commit = Some(Box::new(move |t| {
            lock(&seen).push((t, std::thread::current().id()));
        }));
        let me = std::thread::current().id();

        let left_only =
            WriteBatch::new().insert(Side::S, 9_100, Geometry::Point(Point::new(2.0, 2.0)));
        assert_eq!(commit_both(&router, &oracle, &left_only).shard_commits, 1);
        assert_eq!(*lock(&committers), [(0, me)]);

        lock(&committers).clear();
        assert_eq!(
            commit_both(&router, &oracle, &two_tile_batch()).shard_commits,
            2
        );
        let mut both = lock(&committers).clone();
        both.sort_by_key(|&(t, _)| t);
        assert_eq!(
            both[0],
            (0, me),
            "the first named shard stays on the caller"
        );
        assert!(
            both[1].0 == 1 && both[1].1 != me,
            "the second runs beside it"
        );
    }

    /// `Auto` joins feed per-shard observations back into the advisors
    /// while every reply stays correct (pair-set comparison: the oracle
    /// resolves `Auto` with the static model, shards adaptively).
    #[test]
    fn adaptive_auto_accumulates_observations_and_stays_exact() {
        let (router, oracle) = router(2);
        let theta = ThetaOp::WithinDistance(5.0);
        let req = Request::join(Strategy::Auto, theta);
        let want = pairs_of(&oracle.execute_reference(&req));
        for _ in 0..6 {
            let got = router.call(req.clone()).expect("join accepted");
            assert_eq!(pairs_of(&got.reply), want);
        }
        for shard in 0..router.plan().len() {
            assert!(
                advisor_observations(&router, shard, theta) >= 4,
                "shard {shard} advisor must be learning"
            );
        }
    }

    #[test]
    fn metrics_merge_and_traces_are_namespaced_per_shard() {
        let (router, _) = router(2);
        let req = Request::join(Strategy::Tree, ThetaOp::Overlaps);
        router.call(req.clone()).unwrap();
        router.call(req).unwrap();
        let merged = router.metrics();
        assert!(
            merged.completed >= 2 * router.plan().len() as u64,
            "merged completions must count every shard sub-request"
        );

        let mut sink = TraceSink::vec();
        router.emit_metrics(&mut sink);
        let spans: Vec<&str> = sink.events().iter().map(|e| e.span.as_str()).collect();
        assert!(spans.iter().any(|s| s.starts_with("shard:0/")));
        assert!(spans.iter().any(|s| s.starts_with("shard:1/")));
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
        let (router, oracle) = router(2);
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
            pairs_of(&oracle.execute_reference(&auto))
        );
        assert!(advisor_observations(&router, 0, theta) >= 1);

        // A commit walks both authority maps, and reads observe it —
        // through the shards and through the maps themselves.
        let batch = WriteBatch::new()
            .insert(Side::R, 9_000, Geometry::Point(Point::new(9.0, 9.0)))
            .insert(Side::S, 9_001, Geometry::Point(Point::new(9.0, 9.0)));
        let receipt = commit_both(&router, &oracle, &batch);
        assert_eq!(
            receipt.outcomes,
            vec![MutationOutcome::Inserted, MutationOutcome::Inserted]
        );
        for theta in [ThetaOp::Overlaps, ThetaOp::WithinDistance(50.0)] {
            let join = Request::join(Strategy::Tree, theta);
            let got = router.call(join.clone()).expect("join accepted");
            assert_eq!(got.reply, oracle.execute_reference(&join));
            assert!(pairs_of(&got.reply).contains(&(9_000, 9_001)));
        }
    }

    #[test]
    fn unsupported_strategy_theta_combination_is_rejected_before_scatter() {
        let (router, _) = router(2);
        let req = Request::join(Strategy::Grid, ThetaOp::DirectionOf(Direction::NorthWest));
        assert!(matches!(router.call(req), Err(Rejection::UnsupportedTheta)));
    }

    /// One rule for every plan size: a single tile holds everything,
    /// and the router still answers the directional join itself.
    #[test]
    fn single_shard_plan_has_no_fallback_but_serves_everything() {
        let (router, oracle) = router(1);
        let req = Request::join(Strategy::Tree, ThetaOp::DirectionOf(Direction::South));
        let got = router.call(req.clone()).unwrap();
        assert_eq!(got.shards_queried, 0);
        assert_eq!(got.reply, oracle.execute_reference(&req));
    }
}
