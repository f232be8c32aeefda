//! Strategy advisor: the paper's conclusions (§4.5/§5), operationalized.
//!
//! > "In summary, we find that join indices are only efficient if update
//! > ratios are very low and if join selectivities are comparatively low.
//! > Otherwise, the generalization tree is the superior approach."
//!
//! Given a workload profile — operation type, match distribution,
//! selectivity `p`, and the expected number of updates per query — the
//! advisor totals `query cost + updates·update cost` from the §4 formulas
//! and recommends a strategy.
//!
//! The workspace's one optimizer: the service's `Auto` ([`auto_chooser`])
//! and `sj-rel`'s planner price and pick through [`try_pick`], the one
//! place that turns operands into §4 inputs, at the selectivity
//! [`try_estimate_selectivity`] measures. The shard router forwards `Auto`
//! unchanged, so each shard's service picks through [`try_pick`] on its
//! own slice of the data.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sj_costmodel::{join, select, update, Distribution, ModelParams};
use sj_geom::{theta_candidates, Bounded, ThetaOp};
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
    /// has two more (sweep, partition), but those are outside the §4 cost
    /// formulas, so `Auto` dispatch only ever names these three.
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

/// What [`try_pick`] chose for one join, and the numbers it chose by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pick {
    /// The scoreboard head's executor strategy.
    pub strategy: Strategy,
    /// The estimated selectivity the scoreboard was priced at.
    pub selectivity: f64,
    /// The head's model cost: query plus amortized update cost.
    pub cost: f64,
    /// The §4 parameters the scoreboard was priced under.
    pub params: ModelParams,
}

/// The one derive-estimate-score-pick step behind `Auto`. It derives
/// the §4 inputs for `(r, s)`: the model prices two relations of N
/// tuples, so N is the geometric mean of |R| and |S|, n = h = ⌈log_k N⌉
/// at the fan-out `base.params.k` of the caller's trees, T is the
/// model's N, v the wider slot width and M the frames of `pool`; the
/// other parameters are the caller's system constants. It prices them at
/// [`try_estimate_selectivity`]'s estimate (charged through the pool like
/// any other I/O) and picks the head of [`recommend`]'s scoreboard. An
/// empty operand makes every join empty, so it picks strategy I without
/// sampling or scoring (cost 0); empty operands are routine under
/// sharding, where a shard may own no slice of one side. Deterministic
/// for a fixed seed. A storage fault while sampling surfaces as a typed
/// error, never as a bogus pick.
pub fn try_pick(
    pool: &mut BufferPool,
    base: WorkloadProfile,
    (r, s): (&StoredRelation, &StoredRelation),
    theta: ThetaOp,
    samples: usize,
    seed: u64,
) -> Result<Pick, StorageError> {
    let tuples = (r.len() as f64 * s.len() as f64).sqrt().max(2.0);
    let n = (tuples.ln() / (base.params.k as f64).ln()).ceil().max(1.0) as usize;
    let mut params = ModelParams {
        n,
        h: n,
        v: r.record_size().max(s.record_size()) as f64,
        m_mem: pool.capacity() as f64,
        ..base.params
    };
    params.t = params.n_tuples();
    if r.is_empty() || s.is_empty() {
        return Ok(Pick {
            strategy: Strategy::NestedLoop,
            selectivity: 0.0,
            cost: 0.0,
            params,
        });
    }
    let profile = WorkloadProfile {
        params,
        selectivity: try_estimate_selectivity(pool, r, s, theta, samples, seed)?,
        operation: Operation::Join,
        ..base
    };
    let (best, ranked) = recommend(&profile);
    Ok(Pick {
        strategy: best.strategy(),
        selectivity: profile.selectivity,
        cost: ranked[0].total(profile.updates_per_query),
        params,
    })
}

/// Builds the closure for
/// [`JoinOperands::with_chooser`](crate::JoinOperands::with_chooser):
/// per request it names [`try_pick`]'s strategy for the operator over
/// `(r, s)`, so repeated identical requests resolve identically.
pub fn auto_chooser<'a>(
    base: WorkloadProfile,
    r: &'a StoredRelation,
    s: &'a StoredRelation,
    samples: usize,
    seed: u64,
) -> impl Fn(ThetaOp, &mut BufferPool) -> Result<Strategy, StorageError> + 'a {
    move |theta, pool| Ok(try_pick(pool, base, (r, s), theta, samples, seed)?.strategy)
}

/// Selectivity estimation over whole rows of the join: reads `samples`
/// distinct R tuples (at least one; all of R, so exactly, once `samples ≥
/// |R|`), θ-tests their Θ-candidates among S's MBR scan
/// ([`theta_candidates`]) and returns p̂ = matches / (samples · |S|). A
/// sparse join that random pairs would read as 0 is still seen.
/// Deterministic per seed; `0.0` when either operand is empty. The first
/// faulted read aborts the estimate with a typed error.
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
    // Floyd's algorithm: a uniform `take`-subset of R's positions, read
    // in ascending (page) order.
    let take = samples.clamp(1, r.len());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = BTreeSet::new();
    for j in r.len() - take..r.len() {
        let i = rng.random_range(0..=j);
        if !rows.insert(i) {
            rows.insert(j);
        }
    }
    let sampled = rows
        .into_iter()
        .map(|i| r.try_read_at(pool, i))
        .collect::<Result<Vec<_>, _>>()?;
    let s_scan = s.try_scan_mbrs(pool)?;
    let left: Vec<_> = sampled.iter().map(|(_, g)| g.mbr()).collect();
    let right: Vec<_> = s_scan.iter().map(|e| e.mbr).collect();
    let mut candidates = Vec::new();
    theta_candidates(&left, &right, theta, &mut |i, j| candidates.push((i, j)));
    let mut matches = 0usize;
    for (i, j) in candidates {
        let sg = match s_scan[j as usize].as_box() {
            Some(g) => g,
            None => s.try_read_at(pool, j as usize)?.1,
        };
        matches += usize::from(theta.eval(&sampled[i as usize].1, &sg));
    }
    Ok(matches as f64 / (take as f64 * s.len() as f64))
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
            assert_eq!(recommend(&p).0.strategy(), best.strategy());
        }
    }

    #[test]
    fn join_pick_tracks_the_recommendation() {
        // Static low-selectivity joins → join index; add updates → tree.
        let static_low = profile(Operation::Join, Distribution::Uniform, 1e-11, 0.0);
        assert_eq!(recommend(&static_low).0.strategy(), Strategy::JoinIndex);
        let updating = profile(Operation::Join, Distribution::Uniform, 1e-11, 1.0);
        assert_eq!(recommend(&updating).0.strategy(), Strategy::Tree);
    }

    /// Whatever the profile, the pick is a concrete strategy, and it runs
    /// every operator exactly: there is no applicability matrix to walk.
    #[test]
    fn chosen_strategy_always_supports_the_operator() {
        use crate::{JoinOperands, JoinRequest, TreeRelation};
        use sj_gentree::rtree::{RTree, RTreeConfig};

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
        let mut picks = Vec::new();
        for d in Distribution::ALL {
            for sel in [1e-11, 1e-6, 1e-2] {
                for upd in [0.0, 1.0] {
                    let s = recommend(&profile(Operation::Join, d, sel, upd))
                        .0
                        .strategy();
                    assert_ne!(s, Strategy::Auto);
                    if !picks.contains(&s) {
                        picks.push(s);
                    }
                }
            }
        }

        let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 64);
        let tuples = |id0: u64, shift: f64| -> Vec<(u64, Geometry)> {
            let at = |i: u64| Point::new((i % 6) as f64 * 1.5 + shift, (i / 6) as f64 * 1.5);
            (0..36).map(|i| (id0 + i, Geometry::Point(at(i)))).collect()
        };
        let (r_tuples, s_tuples) = (tuples(0, 0.0), tuples(100, 0.5));
        let r = StoredRelation::build(&mut pool, &r_tuples, 300, Layout::Clustered);
        let s = StoredRelation::build(&mut pool, &s_tuples, 300, Layout::Clustered);
        let tree = |pool: &mut BufferPool, tuples: Vec<(u64, Geometry)>| {
            let rtree = RTree::bulk_load(RTreeConfig::with_fanout(4), tuples);
            TreeRelation::new(pool, rtree.tree().clone(), 300, Layout::Clustered)
        };
        let (tr, ts) = (tree(&mut pool, r_tuples), tree(&mut pool, s_tuples));
        let world = sj_geom::Rect::from_bounds(0.0, 0.0, 16.0, 16.0);
        let ops = JoinOperands::flat(&r, &s, world).with_trees(&tr, &ts);
        for theta in thetas {
            let req = JoinRequest::new(theta);
            let mut run = |strategy: Strategy| {
                let mut pairs = strategy
                    .executor(&ops)
                    .unwrap()
                    .execute(&req, &mut pool)
                    .pairs;
                pairs.sort_unstable();
                pairs
            };
            let want = run(Strategy::NestedLoop);
            for &strategy in &picks {
                assert_eq!(run(strategy), want, "{strategy:?} under {theta:?}");
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
        assert_ne!(exec.resolved_strategy(), Strategy::Auto);
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

    /// A 50×50 lattice against itself shifted half a step under
    /// within-0.6: each R tuple matches the S tuples half a step to either
    /// side. With the pool the grids were built on.
    fn shifted_grids() -> (BufferPool, StoredRelation, StoredRelation, ThetaOp) {
        let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 128);
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
        (pool, r, s, ThetaOp::WithinDistance(0.6))
    }

    /// The estimate converges to the exact p: it is exact once it reads
    /// all of R.
    #[test]
    fn selectivity_estimator_converges() {
        let (mut pool, r, s, theta) = shifted_grids();
        let matches = crate::nested_loop::nested_loop_join(
            &mut pool,
            &r,
            &s,
            theta,
            &mut crate::TraceSink::Null,
        )
        .unwrap()
        .pairs
        .len();
        let exact = matches as f64 / (2500.0 * 2500.0);
        for samples in [2500, 20_000] {
            let est = try_estimate_selectivity(&mut pool, &r, &s, theta, samples, 7).unwrap();
            assert_eq!(est, exact, "{samples} samples");
        }
    }

    #[test]
    fn estimate_is_deterministic_per_seed_and_sees_a_sparse_join() {
        let (mut pool, r, s, theta) = shifted_grids();
        // p ≈ 7.9e-4: 64 random pairs would read 0 with probability 0.95.
        let est = |pool: &mut BufferPool, seed| {
            let mut cold = pool.fork_view(8);
            try_estimate_selectivity(&mut cold, &r, &s, theta, 64, seed).unwrap()
        };
        for seed in [1, 2, 3] {
            let first = est(&mut pool, seed);
            assert!(first > 0.0, "seed {seed}");
            assert_eq!(est(&mut pool, seed), first, "seed {seed}");
        }
    }

    #[test]
    fn estimate_is_zero_for_an_empty_operand() {
        let (mut pool, r, _, theta) = shifted_grids();
        let empty = StoredRelation::build(&mut pool, &[], 300, Layout::Clustered);
        for (a, b) in [(&empty, &r), (&r, &empty), (&empty, &empty)] {
            assert_eq!(
                try_estimate_selectivity(&mut pool, a, b, theta, 64, 1),
                Ok(0.0)
            );
        }
    }

    #[test]
    fn a_faulting_pool_gives_a_typed_error_not_an_estimate() {
        use sj_storage::{FaultConfig, FaultInjector};

        let (pool, r, s, theta) = shifted_grids();
        for samples in [1, 64, 5_000] {
            let mut faulty = pool.fork_view(8);
            faulty.set_fault_injector(Some(FaultInjector::new(FaultConfig {
                seed: 3,
                read_prob: 1.0,
                ..FaultConfig::default()
            })));
            let got = try_estimate_selectivity(&mut faulty, &r, &s, theta, samples, 1);
            assert!(
                matches!(got, Err(StorageError::InjectedFault { .. })),
                "{samples} samples: {got:?}"
            );
        }
    }
}
