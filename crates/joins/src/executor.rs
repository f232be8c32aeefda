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
//! An executor holds only operand references: it keeps no index and no
//! state between requests. The join-index executor builds its index for
//! each request through the partition join ([`JoinIndex::try_build`]) and
//! answers from it; the build's cost is *never* folded into the returned
//! [`JoinRun`], it is the paper's precomputation, not the query. A join
//! index that outlives one request is its caller's to keep.
//!
//! The free functions (`nested_loop_join`, `sweep_join`, …) and index
//! methods are the implementations the executors call: each strategy has
//! exactly one — fallible and traced — and every executor here is a thin
//! shim handing it the request's θ and trace sink.
//! [`JoinExecutor::execute`] is the single infallible convenience.

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
pub trait JoinExecutor {
    /// Which strategy this executor implements.
    fn strategy(&self) -> Strategy;

    /// The concrete strategy the *last* [`JoinExecutor::execute`] call
    /// dispatched to. Identical to [`JoinExecutor::strategy`] for every
    /// concrete executor; [`Strategy::Auto`] overrides it to report the
    /// per-request advisor choice.
    fn resolved_strategy(&self) -> Strategy {
        self.strategy()
    }

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

    /// Parses [`Strategy::name`] back into a strategy.
    pub fn from_name(name: &str) -> Option<Strategy> {
        if name == Strategy::Auto.name() {
            return Some(Strategy::Auto);
        }
        Strategy::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Builds an executor for this strategy over `ops`, or `None` when
    /// the operands the strategy requires are absent.
    pub fn executor<'a>(self, ops: &JoinOperands<'a>) -> Option<Box<dyn JoinExecutor + 'a>> {
        match self {
            Strategy::NestedLoop => {
                let (r, s) = ops.flat?;
                Some(Box::new(NestedLoopExec { r, s }))
            }
            Strategy::Sweep => {
                let (r, s) = ops.flat?;
                Some(Box::new(SweepExec { r, s }))
            }
            Strategy::Tree => {
                let (r, s) = ops.trees?;
                Some(Box::new(TreeExec { r, s }))
            }
            Strategy::JoinIndex => {
                let (r, s) = ops.flat?;
                Some(Box::new(JoinIndexExec { r, s }))
            }
            Strategy::Partition => {
                let (r, s) = ops.flat?;
                Some(Box::new(PartitionExec { r, s }))
            }
            Strategy::Auto => {
                let chooser = ops.chooser?;
                if ops.flat.is_none() && ops.trees.is_none() {
                    return None;
                }
                Some(Box::new(AutoExec {
                    ops: *ops,
                    chooser,
                    resolved: None,
                }))
            }
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

struct NestedLoopExec<'a> {
    r: &'a StoredRelation,
    s: &'a StoredRelation,
}

impl JoinExecutor for NestedLoopExec<'_> {
    fn strategy(&self) -> Strategy {
        Strategy::NestedLoop
    }

    fn try_execute(
        &mut self,
        req: &JoinRequest,
        pool: &mut BufferPool,
    ) -> Result<JoinRun, StorageError> {
        nested_loop_join(pool, self.r, self.s, req.theta, &mut req.trace.borrow_mut())
    }
}

struct SweepExec<'a> {
    r: &'a StoredRelation,
    s: &'a StoredRelation,
}

impl JoinExecutor for SweepExec<'_> {
    fn strategy(&self) -> Strategy {
        Strategy::Sweep
    }

    fn try_execute(
        &mut self,
        req: &JoinRequest,
        pool: &mut BufferPool,
    ) -> Result<JoinRun, StorageError> {
        sweep_join(pool, self.r, self.s, req.theta, &mut req.trace.borrow_mut())
    }
}

struct TreeExec<'a> {
    r: &'a TreeRelation,
    s: &'a TreeRelation,
}

impl JoinExecutor for TreeExec<'_> {
    fn strategy(&self) -> Strategy {
        Strategy::Tree
    }

    fn try_execute(
        &mut self,
        req: &JoinRequest,
        pool: &mut BufferPool,
    ) -> Result<JoinRun, StorageError> {
        tree_join(pool, self.r, self.s, req.theta, &mut req.trace.borrow_mut())
    }
}

struct JoinIndexExec<'a> {
    r: &'a StoredRelation,
    s: &'a StoredRelation,
}

impl JoinExecutor for JoinIndexExec<'_> {
    fn strategy(&self) -> Strategy {
        Strategy::JoinIndex
    }

    fn try_execute(
        &mut self,
        req: &JoinRequest,
        pool: &mut BufferPool,
    ) -> Result<JoinRun, StorageError> {
        let (idx, _build_cost) = JoinIndex::try_build(pool, self.r, self.s, req.theta, DEFAULT_Z)?;
        idx.join(pool, self.r, self.s, &mut req.trace.borrow_mut())
    }
}

struct PartitionExec<'a> {
    r: &'a StoredRelation,
    s: &'a StoredRelation,
}

impl JoinExecutor for PartitionExec<'_> {
    fn strategy(&self) -> Strategy {
        Strategy::Partition
    }

    fn try_execute(
        &mut self,
        req: &JoinRequest,
        pool: &mut BufferPool,
    ) -> Result<JoinRun, StorageError> {
        partition_join(pool, self.r, self.s, req.theta, &mut req.trace.borrow_mut())
    }
}

/// [`Strategy::Auto`]: asks the operands' chooser for a concrete
/// strategy per request, guards the answer with operand availability,
/// and delegates to that strategy's executor, built for the request.
/// It keeps only the last resolution, for
/// [`JoinExecutor::resolved_strategy`].
struct AutoExec<'a> {
    ops: JoinOperands<'a>,
    chooser: StrategyChooser<'a>,
    resolved: Option<Strategy>,
}

impl<'a> AutoExec<'a> {
    /// The chooser's pick and its executor.
    fn resolve(
        &self,
        theta: ThetaOp,
        pool: &mut BufferPool,
    ) -> Result<(Strategy, Box<dyn JoinExecutor + 'a>), StorageError> {
        let pick = (self.chooser)(theta, pool)?;
        if pick != Strategy::Auto {
            if let Some(exec) = pick.executor(&self.ops) {
                return Ok((pick, exec));
            }
        }
        // The chooser named Auto itself, or a strategy whose operands are
        // absent: fall back to strategy I over flat operands, else to the
        // tree join — executor construction checked one kind is present.
        let fallback = if self.ops.flat.is_some() {
            Strategy::NestedLoop
        } else {
            Strategy::Tree
        };
        let exec = fallback.executor(&self.ops);
        Ok((fallback, exec.expect("one operand kind is present"))) // PANIC-OK: invariant
    }
}

impl JoinExecutor for AutoExec<'_> {
    fn strategy(&self) -> Strategy {
        Strategy::Auto
    }

    fn resolved_strategy(&self) -> Strategy {
        self.resolved.unwrap_or(Strategy::Auto)
    }

    fn try_execute(
        &mut self,
        req: &JoinRequest,
        pool: &mut BufferPool,
    ) -> Result<JoinRun, StorageError> {
        let (chosen, mut exec) = self.resolve(req.theta, pool)?;
        self.resolved = Some(chosen);
        req.trace
            .borrow_mut()
            .emit(&format!("auto/choose:{}", chosen.name()), 0, &[]);
        exec.try_execute(req, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geom::{Geometry, Point};
    use sj_storage::{Disk, DiskConfig, Layout};

    fn pool() -> BufferPool {
        BufferPool::new(Disk::new(DiskConfig::paper()), 64)
    }

    fn grid_rel(pool: &mut BufferPool, n: usize, step: f64, id0: u64) -> StoredRelation {
        let tuples: Vec<(u64, Geometry)> = (0..n * n)
            .map(|i| {
                (
                    id0 + i as u64,
                    Geometry::Point(Point::new((i % n) as f64 * step, (i / n) as f64 * step)),
                )
            })
            .collect();
        StoredRelation::build(pool, &tuples, 300, Layout::Clustered)
    }

    #[test]
    fn names_round_trip() {
        for s in Strategy::ALL {
            assert_eq!(Strategy::from_name(s.name()), Some(s));
        }
        assert_eq!(Strategy::from_name("auto"), Some(Strategy::Auto));
        assert_eq!(Strategy::from_name("bogus"), None);
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
