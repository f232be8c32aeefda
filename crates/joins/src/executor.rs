//! The unified executor API: one [`JoinExecutor`] trait and one
//! [`Strategy`] enum covering all nine join strategies, so callers
//! (experiment harness, benchmark bins, tests) dispatch through a single
//! surface instead of nine differently-shaped entry points.
//!
//! A [`JoinRequest`] carries everything that parameterizes a run —
//! θ-operator and an optional trace sink — while
//! the operands (stored relations, tree relations, world rectangle) live
//! in [`JoinOperands`]. [`Strategy::executor`] turns a strategy plus
//! operands into a boxed executor, or `None` when the operands a
//! strategy needs are absent (tree strategies need [`TreeRelation`]s,
//! flat strategies need [`StoredRelation`]s).
//!
//! Index-backed strategies (join index, local join index, z-value index)
//! build their index lazily on first [`JoinExecutor::execute`] and cache
//! it — keyed by θ where the index materializes a θ-join — so repeated
//! runs measure pure query cost. Build cost is *never* folded into the
//! returned [`JoinRun`]; it is the paper's precomputation, not the
//! query.
//!
//! The free functions (`nested_loop_join`, `sweep_join`, …) and index
//! methods are the implementations the executors call: each strategy has
//! exactly one — fallible and traced — and every executor here is a thin
//! stateful shim handing it the request's θ and trace sink.
//! [`JoinExecutor::execute`] is the single infallible convenience.

use std::cell::RefCell;

use sj_geom::{Rect, ThetaOp};
use sj_obs::TraceSink;
use sj_storage::{BufferPool, StorageError};
use sj_zorder::ZGrid;

use crate::grid::{grid_join, GridConfig};
use crate::join_index::JoinIndex;
use crate::local_index::LocalJoinIndex;
use crate::nested_loop::nested_loop_join;
use crate::paged_tree::TreeRelation;
use crate::partition::partition_join;
use crate::relation::StoredRelation;
use crate::sort_merge::{supported_by_zorder, zorder_overlap_join};
use crate::stats::JoinRun;
use crate::sweep::sweep_join;
use crate::tree_join::tree_join;
use crate::zindex::ZIndex;

/// Default B⁺-tree order for lazily built indices (the model's `z`).
const DEFAULT_Z: usize = 16;
/// Default generalization-tree level for local join indices.
const DEFAULT_LOCAL_LEVEL: usize = 1;
/// Default z-order grid resolution (`2^bits` cells per axis).
const DEFAULT_Z_BITS: u8 = 5;
/// Default uniform-grid resolution per axis.
const DEFAULT_GRID_CELLS: u32 = 16;

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

/// A join strategy with whatever state it needs (lazily built indices,
/// operand references) to execute [`JoinRequest`]s.
pub trait JoinExecutor {
    /// Which strategy this executor implements.
    fn strategy(&self) -> Strategy;

    /// Whether the strategy can evaluate `theta` at all (some index
    /// structures only support the overlap family, the grid cannot
    /// localize directional predicates).
    fn supports(&self, theta: ThetaOp) -> bool {
        self.strategy().supports(theta)
    }

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

/// The nine concrete join strategies of this crate as data, plus
/// [`Strategy::Auto`], which resolves to one of them per request via a
/// cost-model chooser (see [`StrategyChooser`]).
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
    /// §5's local join indices over tree partitions.
    LocalIndex,
    /// Orenstein's z-order sort-merge overlap join.
    ZOrderMerge,
    /// Z-value B⁺-tree index probe join.
    ZIndex,
    /// Rotem's grid-file join.
    Grid,
    /// PBSM-style grid-partitioned filter-and-refine.
    Partition,
    /// Per-request cost-model dispatch: consult the operands' chooser
    /// ([`JoinOperands::with_chooser`]), fall back to the first
    /// applicable concrete strategy if the choice cannot run the
    /// request's θ-operator or lacks operands.
    Auto,
}

impl Strategy {
    /// Every strategy, in a stable display order.
    pub const ALL: [Strategy; 9] = [
        Strategy::NestedLoop,
        Strategy::Sweep,
        Strategy::Tree,
        Strategy::JoinIndex,
        Strategy::LocalIndex,
        Strategy::ZOrderMerge,
        Strategy::ZIndex,
        Strategy::Grid,
        Strategy::Partition,
    ];

    /// Stable snake-case name (used in traces, bench output, CLIs).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::NestedLoop => "nested_loop",
            Strategy::Sweep => "sweep",
            Strategy::Tree => "tree",
            Strategy::JoinIndex => "join_index",
            Strategy::LocalIndex => "local_index",
            Strategy::ZOrderMerge => "zorder_merge",
            Strategy::ZIndex => "zindex",
            Strategy::Grid => "grid",
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

    /// Whether the strategy can evaluate `theta`. Z-order strategies are
    /// complete only for the overlap family; the grid cannot localize
    /// directional half-planes. Everything else handles all eight
    /// operators; `Auto` resolves to a concrete strategy that does.
    pub fn supports(self, theta: ThetaOp) -> bool {
        match self {
            Strategy::ZOrderMerge | Strategy::ZIndex => supported_by_zorder(theta),
            Strategy::Grid => !matches!(theta, ThetaOp::DirectionOf(_)),
            Strategy::Auto => Strategy::ALL.into_iter().any(|s| s.supports(theta)),
            _ => true,
        }
    }

    /// Whether the strategy decomposes [`JoinOperands::world`] into grid
    /// or z-order cells; the others never read it.
    pub fn partitions_space(self) -> bool {
        matches!(
            self,
            Strategy::ZOrderMerge | Strategy::ZIndex | Strategy::Grid
        )
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
                Some(Box::new(JoinIndexExec { r, s, cache: None }))
            }
            Strategy::LocalIndex => {
                let (r, s) = ops.trees?;
                Some(Box::new(LocalIndexExec { r, s, cache: None }))
            }
            Strategy::ZOrderMerge => {
                let (r, s) = ops.flat?;
                let grid = ZGrid::new(ops.world, DEFAULT_Z_BITS);
                Some(Box::new(ZOrderMergeExec { r, s, grid }))
            }
            Strategy::ZIndex => {
                let (r, s) = ops.flat?;
                let grid = ZGrid::new(ops.world, DEFAULT_Z_BITS);
                Some(Box::new(ZIndexExec {
                    r,
                    s,
                    grid,
                    cache: None,
                }))
            }
            Strategy::Grid => {
                let (r, s) = ops.flat?;
                let config = GridConfig {
                    world: ops.world,
                    nx: DEFAULT_GRID_CELLS,
                    ny: DEFAULT_GRID_CELLS,
                };
                Some(Box::new(GridExec { r, s, config }))
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
                    cache: Vec::new(),
                    resolved: None,
                }))
            }
        }
    }
}

/// The data a join runs over: flat stored relations, generalization-tree
/// relations, or both, plus the world rectangle that space-partitioning
/// strategies (grid, z-order) decompose.
#[derive(Clone, Copy)]
pub struct JoinOperands<'a> {
    /// `(R, S)` as flat stored relations, for the tuple-at-a-time
    /// strategies.
    pub flat: Option<(&'a StoredRelation, &'a StoredRelation)>,
    /// `(R, S)` as stored generalization trees, for strategy II and the
    /// local join indices.
    pub trees: Option<(&'a TreeRelation, &'a TreeRelation)>,
    /// World rectangle enclosing all data.
    pub world: Rect,
    /// Cost-model hook for [`Strategy::Auto`]; `None` disables `Auto`
    /// (its [`Strategy::executor`] returns `None`).
    pub chooser: Option<StrategyChooser<'a>>,
}

impl<'a> JoinOperands<'a> {
    /// Operands with flat relations only.
    pub fn flat(r: &'a StoredRelation, s: &'a StoredRelation, world: Rect) -> Self {
        JoinOperands {
            flat: Some((r, s)),
            trees: None,
            world,
            chooser: None,
        }
    }

    /// Operands with tree relations only.
    pub fn trees(r: &'a TreeRelation, s: &'a TreeRelation, world: Rect) -> Self {
        JoinOperands {
            flat: None,
            trees: Some((r, s)),
            world,
            chooser: None,
        }
    }

    /// Adds tree relations to flat operands (or vice versa), so one
    /// operand set can serve all nine strategies.
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
    /// The index materializes one θ-join, so the cache is keyed by θ.
    cache: Option<(ThetaOp, JoinIndex)>,
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
        let rebuild = !matches!(&self.cache, Some((t, _)) if *t == req.theta);
        if rebuild {
            // Only a *successful* build is cached: a build aborted by a
            // fault leaves the previous cache (if any) intact.
            let (idx, _build_cost) =
                JoinIndex::try_build(pool, self.r, self.s, req.theta, DEFAULT_Z)?;
            self.cache = Some((req.theta, idx));
        }
        let (_, idx) = self.cache.as_ref().expect("cache was just populated"); // PANIC-OK: invariant
        idx.join(pool, self.r, self.s, &mut req.trace.borrow_mut())
    }
}

struct LocalIndexExec<'a> {
    r: &'a TreeRelation,
    s: &'a TreeRelation,
    cache: Option<(ThetaOp, LocalJoinIndex)>,
}

impl JoinExecutor for LocalIndexExec<'_> {
    fn strategy(&self) -> Strategy {
        Strategy::LocalIndex
    }

    fn try_execute(
        &mut self,
        req: &JoinRequest,
        pool: &mut BufferPool,
    ) -> Result<JoinRun, StorageError> {
        let rebuild = !matches!(&self.cache, Some((t, _)) if *t == req.theta);
        if rebuild {
            let (idx, _build_cost) = LocalJoinIndex::try_build(
                pool,
                self.r,
                self.s,
                req.theta,
                DEFAULT_LOCAL_LEVEL,
                DEFAULT_Z,
            )?;
            self.cache = Some((req.theta, idx));
        }
        let (_, idx) = self.cache.as_ref().expect("cache was just populated"); // PANIC-OK: invariant
        idx.join(pool, &mut req.trace.borrow_mut())
    }
}

struct ZOrderMergeExec<'a> {
    r: &'a StoredRelation,
    s: &'a StoredRelation,
    grid: ZGrid,
}

impl JoinExecutor for ZOrderMergeExec<'_> {
    fn strategy(&self) -> Strategy {
        Strategy::ZOrderMerge
    }

    fn try_execute(
        &mut self,
        req: &JoinRequest,
        pool: &mut BufferPool,
    ) -> Result<JoinRun, StorageError> {
        zorder_overlap_join(
            pool,
            self.r,
            self.s,
            &self.grid,
            req.theta,
            &mut req.trace.borrow_mut(),
        )
    }
}

struct ZIndexExec<'a> {
    r: &'a StoredRelation,
    s: &'a StoredRelation,
    grid: ZGrid,
    /// The z-value index is θ-independent (it indexes R's geometry), so
    /// one build serves every supported operator.
    cache: Option<ZIndex>,
}

impl JoinExecutor for ZIndexExec<'_> {
    fn strategy(&self) -> Strategy {
        Strategy::ZIndex
    }

    fn try_execute(
        &mut self,
        req: &JoinRequest,
        pool: &mut BufferPool,
    ) -> Result<JoinRun, StorageError> {
        if self.cache.is_none() {
            self.cache = Some(ZIndex::try_build(pool, self.r, self.grid, DEFAULT_Z)?);
        }
        let idx = self.cache.as_ref().expect("cache was just populated"); // PANIC-OK: invariant
        idx.join(pool, self.r, self.s, req.theta, &mut req.trace.borrow_mut())
    }
}

struct GridExec<'a> {
    r: &'a StoredRelation,
    s: &'a StoredRelation,
    config: GridConfig,
}

impl JoinExecutor for GridExec<'_> {
    fn strategy(&self) -> Strategy {
        Strategy::Grid
    }

    fn try_execute(
        &mut self,
        req: &JoinRequest,
        pool: &mut BufferPool,
    ) -> Result<JoinRun, StorageError> {
        grid_join(
            pool,
            self.r,
            self.s,
            self.config,
            req.theta,
            &mut req.trace.borrow_mut(),
        )
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
/// strategy per request, guards the answer with [`Strategy::supports`]
/// and operand availability, and delegates. Concrete executors are
/// cached per strategy so their lazily built indices survive across
/// requests that resolve the same way.
struct AutoExec<'a> {
    ops: JoinOperands<'a>,
    chooser: StrategyChooser<'a>,
    cache: Vec<(Strategy, Box<dyn JoinExecutor + 'a>)>,
    resolved: Option<Strategy>,
}

impl<'a> AutoExec<'a> {
    fn resolve(&self, theta: ThetaOp, pool: &mut BufferPool) -> Result<Strategy, StorageError> {
        let pick = (self.chooser)(theta, pool)?;
        if pick != Strategy::Auto && pick.supports(theta) && pick.executor(&self.ops).is_some() {
            return Ok(pick);
        }
        // The chooser named Auto itself, an inapplicable strategy for
        // this θ, or one whose operands are absent: fall back to the
        // first concrete strategy that can run. NestedLoop (flat) and
        // Tree (trees) support all eight operators, so with operands
        // present — checked at executor construction — this never fails.
        Ok(Strategy::ALL
            .into_iter()
            .find(|s| s.supports(theta) && s.executor(&self.ops).is_some())
            .expect("a universal strategy exists for the available operands")) // PANIC-OK: invariant
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
        let chosen = self.resolve(req.theta, pool)?;
        self.resolved = Some(chosen);
        req.trace
            .borrow_mut()
            .emit(&format!("auto/choose:{}", chosen.name()), 0, &[]);
        if !self.cache.iter().any(|(s, _)| *s == chosen) {
            let exec = chosen
                .executor(&self.ops)
                .expect("resolve() verified operand availability"); // PANIC-OK: invariant
            self.cache.push((chosen, exec));
        }
        let (_, exec) = self
            .cache
            .iter_mut()
            .find(|(s, _)| *s == chosen)
            .expect("cache entry was just ensured"); // PANIC-OK: invariant
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
        // A hostile chooser that always names Grid, which cannot run
        // directional predicates — Auto must fall back, not crash or
        // return garbage.
        let chooser = |_: ThetaOp, _: &mut BufferPool| -> Result<Strategy, StorageError> {
            Ok(Strategy::Grid)
        };
        let ops = JoinOperands::flat(&r, &s, world).with_chooser(&chooser);
        let theta = ThetaOp::DirectionOf(sj_geom::Direction::NorthWest);
        assert!(Strategy::Auto.supports(theta));

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
        let resolved = exec.resolved_strategy();
        assert_ne!(resolved, Strategy::Grid);
        assert!(resolved.supports(theta));
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
        assert!(matches!(
            exec.resolved_strategy(),
            Strategy::NestedLoop | Strategy::Sweep
        ));
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
                assert!(
                    matches!(strat, Strategy::Tree | Strategy::LocalIndex),
                    "{} should only need flat operands",
                    strat.name()
                );
                continue;
            };
            assert_eq!(exec.strategy(), strat);
            assert!(exec.supports(theta));
            let mut got = exec.execute(&req, &mut p).pairs;
            got.sort_unstable();
            assert_eq!(got, want, "{} diverges", strat.name());
        }
    }

    #[test]
    fn unsupported_operators_are_reported() {
        let theta = ThetaOp::DirectionOf(sj_geom::Direction::NorthWest);
        assert!(!Strategy::Grid.supports(theta));
        assert!(!Strategy::ZOrderMerge.supports(theta));
        assert!(!Strategy::ZIndex.supports(theta));
        assert!(Strategy::Partition.supports(theta));
        assert!(!Strategy::ZIndex.supports(ThetaOp::WithinDistance(2.0)));
        assert!(Strategy::Grid.supports(ThetaOp::WithinDistance(2.0)));
    }

    #[test]
    fn index_cache_is_keyed_by_theta() {
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
        assert_eq!(x, y, "rebuild for the same θ must reproduce the join");
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
