//! Strategy advisor: the paper's conclusions (§4.5/§5), operationalized.
//!
//! > "In summary, we find that join indices are only efficient if update
//! > ratios are very low and if join selectivities are comparatively low.
//! > Otherwise, the generalization tree is the superior approach."
//!
//! Given a workload profile — operation type, match distribution,
//! selectivity `p`, and the expected number of updates per query — the
//! advisor totals `query cost + updates·update cost` from the §4 formulas
//! and recommends a strategy. A Monte-Carlo selectivity estimator supplies
//! `p` when only the data is known.
//!
//! The workspace's one optimizer: the service's `Auto` ([`auto_chooser`]),
//! the router's feedback loop ([`AdaptiveAdvisor`]) and `sj-rel`'s planner
//! all choose through [`choose_join_strategy`] and sample through
//! [`try_estimate_selectivity`].

use std::cmp::Ordering;
use std::collections::HashMap;
use std::mem::{discriminant, Discriminant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sj_costmodel::{join, select, update, Distribution, ModelParams};
use sj_geom::ThetaOp;
use sj_storage::{BufferPool, StorageError};

use crate::executor::Strategy;
use crate::relation::StoredRelation;

/// What the query mix does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operation {
    /// Spatial selections (§4.3).
    Selection,
    /// General spatial joins (§4.4).
    Join,
}

/// A candidate strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Candidate {
    NestedLoop,
    TreeUnclustered,
    TreeClustered,
    JoinIndex,
}

impl Candidate {
    pub const ALL: [Candidate; 4] = [
        Candidate::NestedLoop,
        Candidate::TreeUnclustered,
        Candidate::TreeClustered,
        Candidate::JoinIndex,
    ];

    /// The paper's roman-numeral label.
    pub fn label(&self) -> &'static str {
        match self {
            Candidate::NestedLoop => "I (nested loop)",
            Candidate::TreeUnclustered => "IIa (unclustered tree)",
            Candidate::TreeClustered => "IIb (clustered tree)",
            Candidate::JoinIndex => "III (join index)",
        }
    }

    /// The executor strategy implementing this candidate.
    ///
    /// The model scores the paper's four §4 strategies; the executor layer
    /// has more (sweep, z-order, grid, partition), but those are outside
    /// the §4 cost formulas, so `Auto` dispatch only ever names these
    /// three.
    pub fn strategy(self) -> Strategy {
        match self {
            Candidate::NestedLoop => Strategy::NestedLoop,
            Candidate::TreeUnclustered | Candidate::TreeClustered => Strategy::Tree,
            Candidate::JoinIndex => Strategy::JoinIndex,
        }
    }
}

/// The workload description the advisor consumes.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadProfile {
    pub params: ModelParams,
    pub distribution: Distribution,
    /// Join selectivity `p`.
    pub selectivity: f64,
    /// Expected insertions per query — the "update ratio" of §5.
    pub updates_per_query: f64,
    pub operation: Operation,
}

/// One scored candidate.
#[derive(Debug, Clone, Copy)]
pub struct Scored {
    pub candidate: Candidate,
    pub query_cost: f64,
    pub update_cost: f64,
}

impl Scored {
    /// Query cost plus amortized maintenance.
    pub fn total(&self, updates_per_query: f64) -> f64 {
        self.query_cost + updates_per_query * self.update_cost
    }
}

/// Scores all four strategies for the profile (query and per-insert
/// update costs, in model units), in [`Candidate::ALL`] order. The
/// profile is caller-supplied (`ServiceConfig::profile`): one outside the
/// model's domain ([`ModelParams::validate`], a selectivity outside
/// `[0, 1]`) is unpriced — every cost NaN — rather than handed to
/// formulas that assert on it.
pub fn score(profile: &WorkloadProfile) -> [Scored; 4] {
    let p = &profile.params;
    let d = profile.distribution;
    let sel = profile.selectivity;
    let priced = p.validate().is_ok() && (0.0..=1.0).contains(&sel);
    Candidate::ALL.map(|candidate| {
        if !priced {
            return Scored {
                candidate,
                query_cost: f64::NAN,
                update_cost: f64::NAN,
            };
        }
        let query_cost = match (profile.operation, candidate) {
            (Operation::Selection, Candidate::NestedLoop) => select::c_i(p),
            (Operation::Selection, Candidate::TreeUnclustered) => select::c_iia(p, d, sel),
            (Operation::Selection, Candidate::TreeClustered) => select::c_iib(p, d, sel),
            (Operation::Selection, Candidate::JoinIndex) => select::c_iii(p, d, sel),
            (Operation::Join, Candidate::NestedLoop) => join::d_i(p),
            (Operation::Join, Candidate::TreeUnclustered) => join::d_iia(p, d, sel),
            (Operation::Join, Candidate::TreeClustered) => join::d_iib(p, d, sel),
            (Operation::Join, Candidate::JoinIndex) => join::d_iii(p, d, sel),
        };
        let update_cost = match candidate {
            Candidate::NestedLoop => update::u_i(p),
            Candidate::TreeUnclustered => update::u_iia(p),
            Candidate::TreeClustered => update::u_iib(p),
            Candidate::JoinIndex => update::u_iii(p),
        };
        Scored {
            candidate,
            query_cost,
            update_cost,
        }
    })
}

/// Ascending cost order with NaN last: a cost the model could not price
/// (an unpriced profile, `∞ · 0` from an infinite update ratio) demotes
/// its candidate instead of panicking a worker.
fn by_cost(a: f64, b: f64) -> Ordering {
    a.is_nan().cmp(&b.is_nan()).then(a.total_cmp(&b))
}

/// The scoreboard ranked cheapest-first (query cost plus amortized update
/// cost; ties keep [`Candidate::ALL`] order), with its head: the
/// strategy the §4 model recommends for the profile.
pub fn recommend(profile: &WorkloadProfile) -> (Candidate, [Scored; 4]) {
    let u = profile.updates_per_query;
    let mut ranked = score(profile);
    ranked.sort_by(|a, b| by_cost(a.total(u), b.total(u)));
    (ranked[0].candidate, ranked)
}

/// Picks the executor [`Strategy`] for a join with operator `theta`
/// under `profile`: walks [`recommend`]'s ranking cheapest-first and
/// returns the first candidate whose executor strategy
/// [`supports`](Strategy::supports) the operator — so `Auto` never
/// dispatches an inapplicable strategy.
pub fn choose_join_strategy(profile: &WorkloadProfile, theta: ThetaOp) -> Strategy {
    let (_, ranked) = recommend(profile);
    ranked
        .iter()
        .map(|s| s.candidate.strategy())
        .find(|strategy| strategy.supports(theta))
        // All three mapped strategies handle all eight operators today;
        // the fallback guards against a future restricted candidate.
        .unwrap_or(Strategy::NestedLoop)
}

/// Builds the closure for
/// [`JoinOperands::with_chooser`](crate::JoinOperands::with_chooser):
/// per request it estimates the operator's selectivity by seeded
/// sampling over `(r, s)` — charged through the pool like any other I/O
/// — then scores the §4 candidates via [`choose_join_strategy`].
/// Deterministic for a fixed seed, so repeated identical requests
/// resolve identically. Because sampling performs real page reads, the
/// chooser is fallible: a storage fault during estimation surfaces as a
/// typed error rather than a bogus recommendation.
pub fn auto_chooser<'a>(
    base: WorkloadProfile,
    r: &'a StoredRelation,
    s: &'a StoredRelation,
    samples: usize,
    seed: u64,
) -> impl Fn(ThetaOp, &mut BufferPool) -> Result<Strategy, StorageError> + 'a {
    move |theta, pool| {
        if r.is_empty() || s.is_empty() {
            // An empty operand makes every join empty — dispatch the
            // universally-applicable strategy I without estimating or
            // scoring. Empty operands are routine under sharding, where a
            // shard may own no slice of one side.
            return Ok(Strategy::NestedLoop);
        }
        let mut profile = base;
        profile.operation = Operation::Join;
        profile.selectivity = try_estimate_selectivity(pool, r, s, theta, samples, seed)?;
        Ok(choose_join_strategy(&profile, theta))
    }
}

/// Online feedback for `Strategy::Auto`: the §4 cost model predicts, the
/// observed phase totals correct.
///
/// The static scoreboard assumes the model's data distribution; a skewed
/// shard can make its prediction arbitrarily wrong. `AdaptiveAdvisor`
/// keeps a per-(θ-family, strategy) running mean of observed execution
/// cost (microseconds of sj-obs phase wall-clock, or any monotone cost
/// proxy) and chooses with a deterministic explore-then-exploit policy:
///
/// 1. the static model's pick runs first (no observations yet);
/// 2. while any supporting candidate is unobserved, the first unobserved
///    one (in [`CANDIDATES`](Self::CANDIDATES) order) runs next;
/// 3. once every candidate has been observed, the one with the lowest
///    mean observed cost wins (ties break in candidate order).
///
/// Repeated requests against a shard where the model mispredicts thus
/// migrate off the mispredicted strategy after at most
/// `CANDIDATES.len()` requests, without any wall-clock dependence in the
/// decision itself — the policy is a pure function of the observation
/// history, so replays are deterministic.
#[derive(Debug, Clone)]
pub struct AdaptiveAdvisor {
    profile: WorkloadProfile,
    /// Running (mean cost, observation count) per θ-family × strategy. A
    /// family is the operator with its parameters ignored: two
    /// `WithinDistance` bounds exercise the same executor paths, so
    /// their costs pool.
    observed: HashMap<(Discriminant<ThetaOp>, Strategy), (f64, u64)>,
}

impl AdaptiveAdvisor {
    /// The strategies the feedback loop arbitrates between: the three §4
    /// executor strategies the static model can name, plus the
    /// partition executor, which the §4 formulas do not score but which
    /// shard-local skew often favors.
    pub const CANDIDATES: [Strategy; 4] = [
        Strategy::Tree,
        Strategy::JoinIndex,
        Strategy::Partition,
        Strategy::NestedLoop,
    ];

    /// A fresh advisor with no observations; `profile` seeds the static
    /// model used for the very first pick of each θ-family.
    pub fn new(profile: WorkloadProfile) -> Self {
        AdaptiveAdvisor {
            profile,
            observed: HashMap::new(),
        }
    }

    /// Record an observed execution cost for `strategy` on `theta`'s
    /// family. `cost_us` is typically the sj-obs phase total (or
    /// `Response::exec_us`) of a completed run.
    pub fn observe(&mut self, theta: ThetaOp, strategy: Strategy, cost_us: u64) {
        let entry = self
            .observed
            .entry((discriminant(&theta), strategy))
            .or_insert((0.0, 0));
        entry.1 += 1;
        entry.0 += (cost_us as f64 - entry.0) / entry.1 as f64;
    }

    /// Total observations recorded for `theta`'s family.
    pub fn observations(&self, theta: ThetaOp) -> u64 {
        Self::CANDIDATES
            .iter()
            .filter_map(|s| self.observed.get(&(discriminant(&theta), *s)))
            .map(|(_, n)| n)
            .sum()
    }

    /// The concrete strategy `Auto` should dispatch for `theta` given
    /// the history so far (see the type docs for the policy). Always
    /// returns a strategy that [`supports`](Strategy::supports)
    /// the operator.
    pub fn choose(&self, theta: ThetaOp) -> Strategy {
        let key = discriminant(&theta);
        let supported: Vec<Strategy> = Self::CANDIDATES
            .iter()
            .copied()
            .filter(|s| s.supports(theta))
            .collect();
        let static_pick = choose_join_strategy(&self.profile, theta);
        // Phase 1: trust the model until it has been measured once.
        if supported.contains(&static_pick) && !self.observed.contains_key(&(key, static_pick)) {
            return static_pick;
        }
        // Phase 2: measure the remaining candidates.
        if let Some(unexplored) = supported
            .iter()
            .find(|s| !self.observed.contains_key(&(key, **s)))
        {
            return *unexplored;
        }
        // Phase 3: exploit the lowest observed mean.
        supported
            .iter()
            .copied()
            .min_by(|a, b| {
                let ca = self.observed[&(key, *a)].0;
                let cb = self.observed[&(key, *b)].0;
                by_cost(ca, cb)
            })
            .unwrap_or(Strategy::NestedLoop)
    }
}

/// Monte-Carlo selectivity estimation: θ-tests `samples` random tuple
/// pairs (at least one) and returns the matching fraction — the `p` to
/// feed the model when only the data is known; `0.0` when either operand
/// is empty, since nothing can match. The first faulted sample read
/// aborts the estimate with a typed error (no estimate from a partial
/// sample).
pub fn try_estimate_selectivity(
    pool: &mut BufferPool,
    r: &StoredRelation,
    s: &StoredRelation,
    theta: ThetaOp,
    samples: usize,
    seed: u64,
) -> Result<f64, StorageError> {
    if r.is_empty() || s.is_empty() {
        return Ok(0.0);
    }
    let samples = samples.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hits = 0usize;
    for _ in 0..samples {
        let i = rng.random_range(0..r.len());
        let j = rng.random_range(0..s.len());
        let (_, rg) = r.try_read_at(pool, i)?;
        let (_, sg) = s.try_read_at(pool, j)?;
        if theta.eval(&rg, &sg) {
            hits += 1;
        }
    }
    Ok(hits as f64 / samples as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geom::{Geometry, Point};
    use sj_storage::{Disk, DiskConfig, Layout};

    fn profile(
        operation: Operation,
        distribution: Distribution,
        selectivity: f64,
        updates_per_query: f64,
    ) -> WorkloadProfile {
        WorkloadProfile {
            params: ModelParams::paper(),
            distribution,
            selectivity,
            updates_per_query,
            operation,
        }
    }

    #[test]
    fn join_index_wins_static_low_selectivity_joins() {
        // §5: join indices pay off when updates are rare AND selectivity
        // is very low.
        let (best, _) = recommend(&profile(Operation::Join, Distribution::Uniform, 1e-11, 0.0));
        assert_eq!(best, Candidate::JoinIndex);
    }

    #[test]
    fn tree_wins_once_updates_matter() {
        // The same workload with one insert per query flips to the tree:
        // U_III is prohibitive.
        let (best, _) = recommend(&profile(Operation::Join, Distribution::Uniform, 1e-11, 1.0));
        assert!(
            matches!(best, Candidate::TreeClustered | Candidate::TreeUnclustered),
            "got {best:?}"
        );
    }

    #[test]
    fn tree_wins_high_selectivity_joins() {
        // §4.5: at higher selectivities the generalization tree is the
        // better option; the clustered/unclustered difference is
        // "usually negligible", so accept either variant.
        let (best, _) = recommend(&profile(Operation::Join, Distribution::Uniform, 1e-6, 0.0));
        assert!(
            matches!(best, Candidate::TreeClustered | Candidate::TreeUnclustered),
            "got {best:?}"
        );
    }

    #[test]
    fn clustered_tree_wins_selections() {
        // §5: "for the spatial selection operation, clustered
        // generalization trees clearly seem to be the most efficient
        // strategy".
        for d in Distribution::ALL {
            let (best, _) = recommend(&profile(Operation::Selection, d, 1e-2, 0.1));
            assert_eq!(best, Candidate::TreeClustered, "{d:?}");
        }
    }

    #[test]
    fn nested_loop_never_recommended() {
        for op in [Operation::Selection, Operation::Join] {
            for d in Distribution::ALL {
                for sel in [1e-10, 1e-6, 1e-2] {
                    for upd in [0.0, 0.5] {
                        let (best, _) = recommend(&profile(op, d, sel, upd));
                        assert_ne!(best, Candidate::NestedLoop);
                    }
                }
            }
        }
    }

    #[test]
    fn scoreboard_is_complete_and_finite() {
        let scores = score(&profile(Operation::Join, Distribution::HiLoc, 1e-8, 0.25));
        assert_eq!(scores.len(), 4);
        for s in scores {
            assert!(s.query_cost.is_finite() && s.query_cost >= 0.0);
            assert!(s.update_cost.is_finite() && s.update_cost >= 0.0);
            assert!(s.total(0.25) >= s.query_cost);
        }
    }

    #[test]
    fn unpriceable_costs_rank_last_instead_of_panicking() {
        // x86 produces a *negative* NaN for 0/0, which `total_cmp` alone
        // would rank first.
        let mut costs = [f64::NAN, 3.0, -f64::NAN, f64::INFINITY, 1.0];
        costs.sort_by(|a, b| by_cost(*a, *b));
        assert_eq!(costs[..3], [1.0, 3.0, f64::INFINITY]);
        assert!(costs[3].is_nan() && costs[4].is_nan());

        // k = 1 makes N 0/0; v > l·s makes m zero.
        let degenerate = [
            ModelParams {
                k: 1,
                ..ModelParams::paper()
            },
            ModelParams {
                v: 5_000.0,
                ..ModelParams::paper()
            },
        ];
        for params in degenerate {
            let p = WorkloadProfile {
                params,
                ..profile(Operation::Join, Distribution::Uniform, 1e-6, 0.5)
            };
            let (best, ranked) = recommend(&p);
            assert_eq!(best, ranked[0].candidate);
            assert!(ranked.iter().all(|s| s.total(0.5).is_nan()));
            let theta = ThetaOp::DirectionOf(sj_geom::Direction::NorthWest);
            assert!(choose_join_strategy(&p, theta).supports(theta));
            assert!(AdaptiveAdvisor::new(p).choose(theta).supports(theta));
        }
    }

    #[test]
    fn choose_join_strategy_tracks_the_recommendation() {
        // Static low-selectivity joins → join index; add updates → tree.
        let static_low = profile(Operation::Join, Distribution::Uniform, 1e-11, 0.0);
        assert_eq!(
            choose_join_strategy(&static_low, ThetaOp::Overlaps),
            Strategy::JoinIndex
        );
        let updating = profile(Operation::Join, Distribution::Uniform, 1e-11, 1.0);
        assert_eq!(
            choose_join_strategy(&updating, ThetaOp::Overlaps),
            Strategy::Tree
        );
    }

    #[test]
    fn chosen_strategy_always_supports_the_operator() {
        let thetas = [
            ThetaOp::WithinCenterDistance(2.0),
            ThetaOp::WithinDistance(2.0),
            ThetaOp::Overlaps,
            ThetaOp::Includes,
            ThetaOp::ContainedIn,
            ThetaOp::DirectionOf(sj_geom::Direction::NorthWest),
            ThetaOp::ReachableWithin {
                minutes: 5.0,
                speed: 1.0,
            },
            ThetaOp::Adjacent,
        ];
        for d in Distribution::ALL {
            for sel in [1e-11, 1e-6, 1e-2] {
                for upd in [0.0, 1.0] {
                    let p = profile(Operation::Join, d, sel, upd);
                    for theta in thetas {
                        let s = choose_join_strategy(&p, theta);
                        assert!(s.supports(theta), "{s:?} cannot run {theta:?}");
                        assert_ne!(s, Strategy::Auto);
                    }
                }
            }
        }
    }

    #[test]
    fn auto_chooser_drives_the_auto_executor() {
        use crate::{JoinOperands, JoinRequest};

        let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 128);
        let mk = |id0: u64| -> Vec<(u64, Geometry)> {
            (0..100)
                .map(|i| {
                    (
                        id0 + i as u64,
                        Geometry::Point(Point::new((i % 10) as f64, (i / 10) as f64)),
                    )
                })
                .collect()
        };
        let r = StoredRelation::build(&mut pool, &mk(0), 300, Layout::Clustered);
        let s = StoredRelation::build(&mut pool, &mk(1000), 300, Layout::Clustered);
        let base = profile(Operation::Join, Distribution::Uniform, 0.0, 0.0);
        let chooser = auto_chooser(base, &r, &s, 200, 42);
        let world = sj_geom::Rect::from_bounds(0.0, 0.0, 16.0, 16.0);
        let ops = JoinOperands::flat(&r, &s, world).with_chooser(&chooser);
        let theta = ThetaOp::WithinDistance(1.1);

        let mut want = Strategy::NestedLoop
            .executor(&ops)
            .unwrap()
            .execute(&JoinRequest::new(theta), &mut pool)
            .pairs;
        want.sort_unstable();

        let mut exec = Strategy::Auto.executor(&ops).expect("chooser attached");
        let mut got = exec.execute(&JoinRequest::new(theta), &mut pool).pairs;
        got.sort_unstable();
        assert_eq!(got, want, "auto dispatch must preserve the join result");
        let resolved = exec.resolved_strategy();
        assert_ne!(resolved, Strategy::Auto);
        assert!(resolved.supports(theta));
    }

    #[test]
    fn auto_chooser_handles_empty_relations() {
        let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 16);
        let empty = StoredRelation::build(&mut pool, &[], 300, Layout::Clustered);
        let full = StoredRelation::build(
            &mut pool,
            &[(1, Geometry::Point(Point::new(1.0, 2.0)))],
            300,
            Layout::Clustered,
        );
        let base = profile(Operation::Join, Distribution::Uniform, 0.0, 0.0);
        for (r, s) in [(&empty, &full), (&full, &empty), (&empty, &empty)] {
            let chooser = auto_chooser(base, r, s, 64, 1);
            let got = chooser(ThetaOp::Overlaps, &mut pool).unwrap();
            assert_eq!(got, Strategy::NestedLoop);
        }
    }

    #[test]
    fn adaptive_advisor_starts_from_the_static_model() {
        // Static low-selectivity joins pick the join index; with no
        // observations the adaptive advisor must agree.
        let adv = AdaptiveAdvisor::new(profile(Operation::Join, Distribution::Uniform, 1e-11, 0.0));
        assert_eq!(adv.choose(ThetaOp::Overlaps), Strategy::JoinIndex);
        assert_eq!(adv.observations(ThetaOp::Overlaps), 0);
    }

    #[test]
    fn adaptive_advisor_migrates_off_a_mispredicted_strategy() {
        // The model insists on the join index; observations say the tree
        // is 10× cheaper. After the exploration round the advisor must
        // settle on the tree and stay there.
        let p = profile(Operation::Join, Distribution::Uniform, 1e-11, 0.0);
        let mut adv = AdaptiveAdvisor::new(p);
        let theta = ThetaOp::Overlaps;
        assert_eq!(adv.choose(theta), Strategy::JoinIndex);
        // Feed deterministic synthetic costs: run whatever it picks,
        // observe JoinIndex as expensive and everything else per table.
        let cost = |s: Strategy| match s {
            Strategy::JoinIndex => 10_000,
            Strategy::Tree => 1_000,
            Strategy::Partition => 4_000,
            Strategy::NestedLoop => 8_000,
            _ => unreachable!("not a candidate"),
        };
        for _ in 0..AdaptiveAdvisor::CANDIDATES.len() {
            let pick = adv.choose(theta);
            adv.observe(theta, pick, cost(pick));
        }
        // Exploration visited every candidate exactly once…
        assert_eq!(
            adv.observations(theta),
            AdaptiveAdvisor::CANDIDATES.len() as u64
        );
        // …and exploitation now prefers the empirically cheapest.
        assert_eq!(adv.choose(theta), Strategy::Tree);
        // More consistent observations do not destabilize the choice.
        adv.observe(theta, Strategy::Tree, 1_100);
        adv.observe(theta, Strategy::JoinIndex, 9_000);
        assert_eq!(adv.choose(theta), Strategy::Tree);
    }

    #[test]
    fn adaptive_advisor_keys_by_theta_family() {
        let p = profile(Operation::Join, Distribution::Uniform, 1e-6, 0.0);
        let mut adv = AdaptiveAdvisor::new(p);
        // Observations under within-distance(5) pool with
        // within-distance(50)…
        adv.observe(ThetaOp::WithinDistance(5.0), Strategy::Tree, 100);
        assert_eq!(adv.observations(ThetaOp::WithinDistance(50.0)), 1);
        // …but not with a different operator family.
        assert_eq!(adv.observations(ThetaOp::Overlaps), 0);
    }

    #[test]
    fn adaptive_advisor_respects_operator_support() {
        // DirectionOf is unsupported by some executors; whatever the
        // history, the choice must support the operator.
        let p = profile(Operation::Join, Distribution::Uniform, 1e-2, 0.0);
        let mut adv = AdaptiveAdvisor::new(p);
        let theta = ThetaOp::DirectionOf(sj_geom::Direction::NorthWest);
        for _ in 0..8 {
            let pick = adv.choose(theta);
            assert!(pick.supports(theta), "{pick:?} cannot run {theta:?}");
            adv.observe(theta, pick, 500);
        }
    }

    #[test]
    fn selectivity_estimator_converges() {
        let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 128);
        // 50x50 grid vs itself shifted by half a step under within-0.6:
        // each R tuple matches the S tuples half a step to either side.
        let mk = |offset: f64, id0: u64| -> Vec<(u64, Geometry)> {
            (0..2500)
                .map(|i| {
                    (
                        id0 + i as u64,
                        Geometry::Point(Point::new((i % 50) as f64 + offset, (i / 50) as f64)),
                    )
                })
                .collect()
        };
        let r = StoredRelation::build(&mut pool, &mk(0.0, 0), 300, Layout::Clustered);
        let s = StoredRelation::build(&mut pool, &mk(0.5, 10_000), 300, Layout::Clustered);
        let theta = ThetaOp::WithinDistance(0.6);
        let est = try_estimate_selectivity(&mut pool, &r, &s, theta, 20_000, 7).unwrap();
        // Ground truth by exhaustive counting.
        let matches = crate::nested_loop::nested_loop_join(
            &mut pool,
            &r,
            &s,
            theta,
            &mut crate::TraceSink::Null,
        )
        .unwrap()
        .pairs
        .len() as f64;
        let truth = matches / (2500.0 * 2500.0);
        assert!(
            (est - truth).abs() < 0.5 * truth,
            "estimate {est} too far from {truth}"
        );
    }
}
