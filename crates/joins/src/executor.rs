//! The unified executor API: one [`JoinExecutor`] trait and one
//! [`Strategy`] enum covering the five join strategies a request can
//! name, so callers (service, experiment harness, tests) dispatch
//! through a single surface. Each of the five runs all eight
//! θ-operators; there is no applicability matrix.
//!
//! A [`JoinRequest`] carries everything that parameterizes a run —
//! θ-operator and an optional trace sink — while
//! the operands (stored relations, tree relations) live
//! in [`JoinOperands`]. [`Strategy::executor`] turns a strategy plus
//! operands into a boxed executor, or `None` when the operands a
//! strategy needs are absent (the tree join needs [`TreeRelation`]s,
//! the flat strategies need [`StoredRelation`]s).
//!
//! One private executor type implements the trait for every strategy.
//! Its [`JoinExecutor::try_execute`] resolves [`Strategy::Auto`] through
//! the operands' chooser, then `match`es the concrete strategy onto that
//! strategy's one function — `nested_loop_join`, `sweep_join`,
//! `tree_join`, `partition_join`, or [`JoinIndex::try_build`] and
//! [`JoinIndex::join`] — handing it the request's θ and trace sink.
//! [`JoinExecutor::execute`] is the single infallible convenience.
//!
//! The executor holds operand references and the last `Auto`
//! resolution, nothing else: no index and no state between requests. A
//! join-index request builds its index through the partition join and
//! answers from it; the build's cost is *never* folded into the returned
//! [`JoinRun`], it is the paper's precomputation, not the query. A join
//! index that outlives one request is its caller's to keep.

use std::cell::RefCell;

use sj_geom::{Rect, ThetaOp};
use sj_obs::TraceSink;
use sj_storage::{BufferPool, StorageError};

use crate::join_index::JoinIndex;
use crate::nested_loop::nested_loop_join;
use crate::paged_tree::TreeRelation;
use crate::partition::partition_join;
use crate::relation::StoredRelation;
use crate::stats::JoinRun;
use crate::sweep::sweep_join;
use crate::tree_join::tree_join;

/// B⁺-tree order of the join index built per request (the model's `z`).
const DEFAULT_Z: usize = 16;

/// Everything that parameterizes one join run, independent of the
/// strategy executing it.
///
/// The trace sink lives in a [`RefCell`] so that executors — which only
/// receive `&JoinRequest` — can still write spans into it; after the run
/// completes, recover the sink (and its buffered events, for
/// [`TraceSink::Vec`]) with [`JoinRequest::take_trace`].
#[derive(Debug)]
pub struct JoinRequest {
    /// The θ-operator to evaluate.
    pub theta: ThetaOp,
    /// Structured-trace destination; [`TraceSink::Null`] (the default)
    /// compiles the instrumentation down to plain counter arithmetic.
    pub trace: RefCell<TraceSink>,
}

impl JoinRequest {
    /// An untraced request for `theta`.
    pub fn new(theta: ThetaOp) -> Self {
        JoinRequest {
            theta,
            trace: RefCell::new(TraceSink::Null),
        }
    }

    /// Attaches a trace sink.
    pub fn with_trace(self, sink: TraceSink) -> Self {
        *self.trace.borrow_mut() = sink;
        self
    }

    /// Takes the trace sink out of the request (leaving
    /// [`TraceSink::Null`] behind), e.g. to inspect buffered
    /// [`TraceSink::Vec`] events or flush a file sink.
    pub fn take_trace(&self) -> TraceSink {
        std::mem::take(&mut self.trace.borrow_mut())
    }
}

/// A join strategy over operand references, executing [`JoinRequest`]s.
/// [`Strategy::executor`] builds its one implementation.
pub trait JoinExecutor {
    /// Which strategy this executor was built for.
    fn strategy(&self) -> Strategy;

    /// The concrete strategy the *last* [`JoinExecutor::execute`] call
    /// dispatched to. A concrete strategy always reads itself;
    /// [`Strategy::Auto`] reads `Auto` until its first run and the
    /// chooser's last resolution after it.
    fn resolved_strategy(&self) -> Strategy;

    /// Runs the join, charging all I/O through `pool` and writing spans
    /// into `req.trace` when it is live. The first storage fault aborts
    /// the run with a typed error; an `Ok` run is always the complete,
    /// exact match set (fail-stop, never fail-wrong).
    fn try_execute(
        &mut self,
        req: &JoinRequest,
        pool: &mut BufferPool,
    ) -> Result<JoinRun, StorageError>;

    /// Infallible [`JoinExecutor::try_execute`]: panics on a storage
    /// fault. With no fault injector armed and a healthy disk, storage
    /// never faults, so this behaves exactly like the historical API.
    fn execute(&mut self, req: &JoinRequest, pool: &mut BufferPool) -> JoinRun {
        self.try_execute(req, pool)
            .unwrap_or_else(|e| panic!("join execution failed: {e}")) // PANIC-OK: the documented infallible convenience
    }
}

/// Per-request strategy chooser consulted by [`Strategy::Auto`]: given
/// the θ-operator and the pool (for sampling-based selectivity
/// estimation, charged like any other I/O), name a concrete strategy.
/// Because estimation performs real page reads, a chooser can itself hit
/// a storage fault — hence the fallible signature.
/// [`advisor::auto_chooser`](crate::advisor::auto_chooser) is the
/// cost-model-backed implementation; it stays a hook because it closes
/// over the operands it samples, and tests substitute fixed, hostile and
/// faulting choosers of their own.
pub type StrategyChooser<'a> =
    &'a (dyn Fn(ThetaOp, &mut BufferPool) -> Result<Strategy, StorageError> + 'a);

/// The five concrete join strategies a request can name, plus
/// [`Strategy::Auto`], which resolves to one of them per request via a
/// cost-model chooser (see [`StrategyChooser`]). Each runs all eight
/// θ-operators. The crate's other joins — the grid file, local join
/// indices — are library functions called directly, as are the z-order
/// joins in `sj-zorder`: no cost model prices them, so `Auto` could never
/// choose them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Strategy I: block-nested loop with memory passes.
    NestedLoop,
    /// Forward-scan plane-sweep filter with exact refinement.
    Sweep,
    /// Strategy II: generalization-tree join (Algorithm JOIN).
    Tree,
    /// Strategy III: precomputed join index on a B⁺-tree.
    JoinIndex,
    /// PBSM-style grid-partitioned filter-and-refine.
    Partition,
    /// Per-request cost-model dispatch: consult the operands' chooser
    /// ([`JoinOperands::with_chooser`]), fall back to a concrete
    /// strategy whose operands are present if the chooser names `Auto`
    /// or one whose operands are absent.
    Auto,
}

impl Strategy {
    /// Every strategy, in a stable display order.
    pub const ALL: [Strategy; 5] = [
        Strategy::NestedLoop,
        Strategy::Sweep,
        Strategy::Tree,
        Strategy::JoinIndex,
        Strategy::Partition,
    ];

    /// Stable snake-case name (used in traces, bench output, CLIs).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::NestedLoop => "nested_loop",
            Strategy::Sweep => "sweep",
            Strategy::Tree => "tree",
            Strategy::JoinIndex => "join_index",
            Strategy::Partition => "partition",
            Strategy::Auto => "auto",
        }
    }

    /// Builds the executor for this strategy over `ops`, or `None` when
    /// the operands it needs are absent: [`Strategy::Tree`] needs tree
    /// relations, the other concrete strategies flat ones, and
    /// [`Strategy::Auto`] a chooser and either kind.
    pub fn executor<'a>(self, ops: &JoinOperands<'a>) -> Option<Box<dyn JoinExecutor + 'a>> {
        let present = match self {
            Strategy::Auto => ops.chooser.is_some() && (ops.flat.is_some() || ops.trees.is_some()),
            concrete => concrete.runs_over(ops),
        };
        let exec = Executor {
            strategy: self,
            ops: *ops,
            resolved: None,
        };
        present.then(|| Box::new(exec) as Box<dyn JoinExecutor + 'a>)
    }

    /// Whether `ops` hold the relations this concrete strategy reads;
    /// `false` for [`Strategy::Auto`], which runs none itself.
    fn runs_over(self, ops: &JoinOperands<'_>) -> bool {
        match self {
            Strategy::Auto => false,
            Strategy::Tree => ops.trees.is_some(),
            _ => ops.flat.is_some(),
        }
    }
}

/// The data a join runs over: flat stored relations, generalization-tree
/// relations, or both.
#[derive(Clone, Copy)]
pub struct JoinOperands<'a> {
    /// `(R, S)` as flat stored relations, for the tuple-at-a-time
    /// strategies.
    pub flat: Option<(&'a StoredRelation, &'a StoredRelation)>,
    /// `(R, S)` as stored generalization trees, for strategy II.
    pub trees: Option<(&'a TreeRelation, &'a TreeRelation)>,
    /// Cost-model hook for [`Strategy::Auto`]; `None` disables `Auto`
    /// (its [`Strategy::executor`] returns `None`).
    pub chooser: Option<StrategyChooser<'a>>,
}

impl<'a> JoinOperands<'a> {
    /// Operands with flat relations only.
    ///
    /// `_world` is ignored: no strategy reads one. It stays only because
    /// the benchmark harness calls this three-argument form; ROADMAP item
    /// 25(a) drops it.
    pub fn flat(r: &'a StoredRelation, s: &'a StoredRelation, _world: Rect) -> Self {
        JoinOperands {
            flat: Some((r, s)),
            trees: None,
            chooser: None,
        }
    }

    /// Operands with tree relations only.
    pub fn trees(r: &'a TreeRelation, s: &'a TreeRelation) -> Self {
        JoinOperands {
            flat: None,
            trees: Some((r, s)),
            chooser: None,
        }
    }

    /// Adds tree relations to flat operands (or vice versa), so one
    /// operand set can serve all five strategies.
    pub fn with_trees(mut self, r: &'a TreeRelation, s: &'a TreeRelation) -> Self {
        self.trees = Some((r, s));
        self
    }

    /// Attaches a per-request strategy chooser, enabling
    /// [`Strategy::Auto`].
    /// [`advisor::auto_chooser`](crate::advisor::auto_chooser) builds one
    /// from the cost model of §4.
    pub fn with_chooser(mut self, chooser: StrategyChooser<'a>) -> Self {
        self.chooser = Some(chooser);
        self
    }
}

/// The one [`JoinExecutor`]: the strategy asked for, its operands, and
/// the strategy the last [`Strategy::Auto`] run resolved to.
struct Executor<'a> {
    strategy: Strategy,
    ops: JoinOperands<'a>,
    resolved: Option<Strategy>,
}

impl JoinExecutor for Executor<'_> {
    fn strategy(&self) -> Strategy {
        self.strategy
    }

    fn resolved_strategy(&self) -> Strategy {
        self.resolved.unwrap_or(self.strategy)
    }

    fn try_execute(
        &mut self,
        req: &JoinRequest,
        pool: &mut BufferPool,
    ) -> Result<JoinRun, StorageError> {
        let theta = req.theta;
        let mut strategy = self.strategy;
        if let (Strategy::Auto, Some(chooser)) = (strategy, self.ops.chooser) {
            // The chooser's pick when its operands are present; if it
            // names `Auto` itself or a strategy whose operands are absent,
            // strategy I over flat operands, else the tree join.
            let pick = chooser(theta, pool)?;
            strategy = if pick.runs_over(&self.ops) {
                pick
            } else if self.ops.flat.is_some() {
                Strategy::NestedLoop
            } else {
                Strategy::Tree
            };
            self.resolved = Some(strategy);
            let span = format!("auto/choose:{}", strategy.name());
            req.trace.borrow_mut().emit(&span, 0, &[]);
        }
        let trace = &mut *req.trace.borrow_mut();
        match (strategy, self.ops.flat, self.ops.trees) {
            (Strategy::NestedLoop, Some((r, s)), _) => nested_loop_join(pool, r, s, theta, trace),
            (Strategy::Sweep, Some((r, s)), _) => sweep_join(pool, r, s, theta, trace),
            (Strategy::Tree, _, Some((r, s))) => tree_join(pool, r, s, theta, trace),
            (Strategy::JoinIndex, Some((r, s)), _) => {
                let (idx, _build_cost) = JoinIndex::try_build(pool, r, s, theta, DEFAULT_Z)?;
                idx.join(pool, r, s, trace)
            }
            (Strategy::Partition, Some((r, s)), _) => partition_join(pool, r, s, theta, trace),
            // `executor` checked the operands, and `Auto` resolved above.
            _ => unreachable!("operands checked at construction"), // PANIC-OK: invariant
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_gentree::rtree::{RTree, RTreeConfig};
    use sj_geom::{Geometry, Point};
    use sj_storage::{Disk, DiskConfig, Layout};
    use std::cell::Cell;

    fn pool() -> BufferPool {
        BufferPool::new(Disk::new(DiskConfig::paper()), 64)
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

    fn grid_rel(pool: &mut BufferPool, n: usize, step: f64, id0: u64) -> StoredRelation {
        StoredRelation::build(pool, &grid_tuples(n, step, id0), 300, Layout::Clustered)
    }

    #[test]
    fn auto_requires_a_chooser() {
        let mut p = pool();
        let r = grid_rel(&mut p, 4, 10.0, 0);
        let s = grid_rel(&mut p, 4, 10.0, 500);
        let world = Rect::from_bounds(0.0, 0.0, 64.0, 64.0);
        let ops = JoinOperands::flat(&r, &s, world);
        assert!(Strategy::Auto.executor(&ops).is_none());
    }

    #[test]
    fn auto_delegates_to_the_chosen_strategy() {
        let mut p = pool();
        let r = grid_rel(&mut p, 5, 10.0, 0);
        let s = grid_rel(&mut p, 5, 10.0, 500);
        let world = Rect::from_bounds(0.0, 0.0, 64.0, 64.0);
        let chooser = |_: ThetaOp, _: &mut BufferPool| -> Result<Strategy, StorageError> {
            Ok(Strategy::Sweep)
        };
        let ops = JoinOperands::flat(&r, &s, world).with_chooser(&chooser);
        let theta = ThetaOp::Overlaps;

        let mut want = Strategy::NestedLoop
            .executor(&JoinOperands::flat(&r, &s, world))
            .unwrap()
            .execute(&JoinRequest::new(theta), &mut p)
            .pairs;
        want.sort_unstable();

        let mut exec = Strategy::Auto.executor(&ops).expect("chooser attached");
        assert_eq!(exec.strategy(), Strategy::Auto);
        let req = JoinRequest::new(theta).with_trace(TraceSink::vec());
        let mut got = exec.execute(&req, &mut p).pairs;
        got.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(exec.resolved_strategy(), Strategy::Sweep);
        let sink = req.take_trace();
        assert!(
            sink.events().iter().any(|e| e.span == "auto/choose:sweep"),
            "auto must trace its choice"
        );
    }

    #[test]
    fn one_auto_executor_follows_a_changing_pick() {
        let mut p = pool();
        let r = grid_rel(&mut p, 5, 10.0, 0);
        let s = grid_rel(&mut p, 5, 10.0, 500);
        let tree = |p: &mut BufferPool, id0| {
            let rt = RTree::bulk_load(RTreeConfig::with_fanout(4), grid_tuples(5, 10.0, id0));
            TreeRelation::new(p, rt.tree().clone(), 300, Layout::Clustered)
        };
        let (tr, ts) = (tree(&mut p, 0), tree(&mut p, 500));
        let world = Rect::from_bounds(0.0, 0.0, 64.0, 64.0);
        // The chooser names a different strategy on each call.
        let picks = [
            Strategy::Sweep,
            Strategy::Tree,
            Strategy::JoinIndex,
            Strategy::Partition,
            Strategy::NestedLoop,
            Strategy::Tree,
        ];
        let calls = Cell::new(0);
        let chooser = |_: ThetaOp, _: &mut BufferPool| -> Result<Strategy, StorageError> {
            calls.set(calls.get() + 1);
            Ok(picks[calls.get() - 1])
        };
        let ops = JoinOperands::flat(&r, &s, world)
            .with_trees(&tr, &ts)
            .with_chooser(&chooser);
        let theta = ThetaOp::WithinDistance(10.5);
        let mut want = nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null)
            .unwrap()
            .pairs;
        want.sort_unstable();

        let mut exec = Strategy::Auto.executor(&ops).expect("chooser attached");
        assert_eq!(exec.resolved_strategy(), Strategy::Auto);
        for pick in picks {
            let req = JoinRequest::new(theta).with_trace(TraceSink::vec());
            let mut got = exec.execute(&req, &mut p).pairs;
            got.sort_unstable();
            assert_eq!(got, want, "auto resolved to {}", pick.name());
            assert_eq!(exec.strategy(), Strategy::Auto);
            assert_eq!(exec.resolved_strategy(), pick);
            let sink = req.take_trace();
            let chosen: Vec<&str> = sink
                .events()
                .iter()
                .filter(|e| e.span.starts_with("auto/choose:"))
                .map(|e| e.span.as_str())
                .collect();
            assert_eq!(chosen, [format!("auto/choose:{}", pick.name())]);
        }
        assert_eq!(calls.get(), picks.len());
    }

    #[test]
    fn auto_never_picks_an_inapplicable_strategy() {
        let mut p = pool();
        let r = grid_rel(&mut p, 5, 10.0, 0);
        let s = grid_rel(&mut p, 5, 10.0, 500);
        let world = Rect::from_bounds(0.0, 0.0, 64.0, 64.0);
        // A hostile chooser that names Auto itself — Auto must fall back
        // to a concrete strategy, not recurse, crash or return garbage.
        let chooser = |_: ThetaOp, _: &mut BufferPool| -> Result<Strategy, StorageError> {
            Ok(Strategy::Auto)
        };
        let ops = JoinOperands::flat(&r, &s, world).with_chooser(&chooser);
        let theta = ThetaOp::DirectionOf(sj_geom::Direction::NorthWest);

        let mut want = Strategy::NestedLoop
            .executor(&JoinOperands::flat(&r, &s, world))
            .unwrap()
            .execute(&JoinRequest::new(theta), &mut p)
            .pairs;
        want.sort_unstable();

        let mut exec = Strategy::Auto.executor(&ops).unwrap();
        let mut got = exec.execute(&JoinRequest::new(theta), &mut p).pairs;
        got.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(exec.resolved_strategy(), Strategy::NestedLoop);
    }

    #[test]
    fn auto_falls_back_when_operands_are_missing() {
        let mut p = pool();
        let r = grid_rel(&mut p, 4, 10.0, 0);
        let s = grid_rel(&mut p, 4, 10.0, 500);
        let world = Rect::from_bounds(0.0, 0.0, 64.0, 64.0);
        // Tree needs TreeRelations, which flat-only operands lack.
        let chooser = |_: ThetaOp, _: &mut BufferPool| -> Result<Strategy, StorageError> {
            Ok(Strategy::Tree)
        };
        let ops = JoinOperands::flat(&r, &s, world).with_chooser(&chooser);
        let mut exec = Strategy::Auto.executor(&ops).unwrap();
        let run = exec.execute(&JoinRequest::new(ThetaOp::Overlaps), &mut p);
        assert!(!run.pairs.is_empty());
        assert_eq!(exec.resolved_strategy(), Strategy::NestedLoop);
    }

    #[test]
    fn flat_strategies_dispatch_and_agree() {
        let mut p = pool();
        let r = grid_rel(&mut p, 6, 10.0, 0);
        let s = grid_rel(&mut p, 6, 10.0, 500);
        let world = Rect::from_bounds(0.0, 0.0, 64.0, 64.0);
        let ops = JoinOperands::flat(&r, &s, world);
        let theta = ThetaOp::Overlaps;
        let req = JoinRequest::new(theta);

        let mut want = Strategy::NestedLoop
            .executor(&ops)
            .expect("flat operands present")
            .execute(&req, &mut p)
            .pairs;
        want.sort_unstable();
        for strat in Strategy::ALL {
            let Some(mut exec) = strat.executor(&ops) else {
                assert_eq!(
                    strat,
                    Strategy::Tree,
                    "{} should only need flat operands",
                    strat.name()
                );
                continue;
            };
            assert_eq!(exec.strategy(), strat);
            let mut got = exec.execute(&req, &mut p).pairs;
            got.sort_unstable();
            assert_eq!(got, want, "{} diverges", strat.name());
        }
    }

    #[test]
    fn join_index_answers_each_request_for_its_theta() {
        let mut p = pool();
        let r = grid_rel(&mut p, 5, 10.0, 0);
        let s = grid_rel(&mut p, 5, 10.0, 500);
        let world = Rect::from_bounds(0.0, 0.0, 64.0, 64.0);
        let ops = JoinOperands::flat(&r, &s, world);
        let mut exec = Strategy::JoinIndex.executor(&ops).unwrap();
        let a = exec.execute(&JoinRequest::new(ThetaOp::WithinDistance(10.5)), &mut p);
        let b = exec.execute(&JoinRequest::new(ThetaOp::Overlaps), &mut p);
        let a2 = exec.execute(&JoinRequest::new(ThetaOp::WithinDistance(10.5)), &mut p);
        assert_ne!(a.pairs.len(), b.pairs.len());
        let mut x = a.pairs.clone();
        let mut y = a2.pairs.clone();
        x.sort_unstable();
        y.sort_unstable();
        assert_eq!(x, y, "a rebuild for the same θ must reproduce the join");
    }

    #[test]
    fn request_builders_and_trace_recovery() {
        let mut p = pool();
        let r = grid_rel(&mut p, 4, 10.0, 0);
        let s = grid_rel(&mut p, 4, 10.0, 500);
        let world = Rect::from_bounds(0.0, 0.0, 64.0, 64.0);
        let ops = JoinOperands::flat(&r, &s, world);
        let req = JoinRequest::new(ThetaOp::Overlaps).with_trace(TraceSink::vec());
        let run = Strategy::Partition
            .executor(&ops)
            .unwrap()
            .execute(&req, &mut p);
        assert_eq!(run.stats, run.phases.total());
        let sink = req.take_trace();
        let events = sink.events();
        assert!(!events.is_empty(), "traced run must emit spans");
        assert!(events.iter().any(|e| e.span.starts_with("partition_join/")));
        assert!(matches!(&*req.trace.borrow(), TraceSink::Null));
    }
}
