//! Chaos property suite: every join strategy, under every θ-operator,
//! with deterministic fault injection armed, is **fail-stop** — the five
//! [`Strategy`] executors plus `Auto`, and the library joins called
//! directly (the grid-file join, local join indices):
//!
//! - `Ok(run)` carries *exactly* the fault-free match set — a fault can
//!   abort a run but can never corrupt one;
//! - `Err(e)` is a typed [`StorageError`] — no panic ever escapes the
//!   executor boundary;
//! - the same injector seed over the same operation sequence replays
//!   the identical fault trace (the determinism property the service's
//!   retry layer depends on).

use sj_geom::{Direction, Geometry, Point, Rect, ThetaOp};
use sj_joins::executor::JoinOperands;
use sj_joins::grid::{grid_join, GridConfig};
use sj_joins::{JoinRequest, LocalJoinIndex, StoredRelation, Strategy, TraceSink, TreeRelation};
use sj_storage::{BufferPool, Disk, DiskConfig, FaultConfig, FaultInjector, Layout, StorageError};

const THETAS: [ThetaOp; 8] = [
    ThetaOp::WithinCenterDistance(10.5),
    ThetaOp::WithinDistance(10.5),
    ThetaOp::Overlaps,
    ThetaOp::Includes,
    ThetaOp::ContainedIn,
    ThetaOp::DirectionOf(Direction::NorthWest),
    ThetaOp::ReachableWithin {
        minutes: 5.0,
        speed: 2.0,
    },
    ThetaOp::Adjacent,
];

fn pool() -> BufferPool {
    BufferPool::new(Disk::new(DiskConfig::paper()), 128)
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

struct World {
    r: StoredRelation,
    s: StoredRelation,
    r_tree: TreeRelation,
    s_tree: TreeRelation,
    world: Rect,
}

fn build_world(pool: &mut BufferPool) -> World {
    let r_tuples = grid_tuples(5, 10.0, 0);
    let s_tuples = grid_tuples(5, 10.0, 500);
    let r = StoredRelation::build(pool, &r_tuples, 300, Layout::Clustered);
    let s = StoredRelation::build(pool, &s_tuples, 300, Layout::Clustered);
    let fan = sj_gentree::rtree::RTreeConfig::with_fanout(5);
    let r_rt = sj_gentree::rtree::RTree::bulk_load(fan, r_tuples);
    let s_rt = sj_gentree::rtree::RTree::bulk_load(fan, s_tuples);
    let r_tree = TreeRelation::new(pool, r_rt.tree().clone(), 300, Layout::Clustered);
    let s_tree = TreeRelation::new(pool, s_rt.tree().clone(), 300, Layout::Clustered);
    World {
        r,
        s,
        r_tree,
        s_tree,
        world: Rect::from_bounds(0.0, 0.0, 64.0, 64.0),
    }
}

fn sweep_chooser(_: ThetaOp, _: &mut BufferPool) -> Result<Strategy, StorageError> {
    Ok(Strategy::Sweep)
}

fn operands(w: &World) -> JoinOperands<'_> {
    JoinOperands::flat(&w.r, &w.s, w.world)
        .with_trees(&w.r_tree, &w.s_tree)
        .with_chooser(&sweep_chooser)
}

/// A join under test: runs against the pool it is given, sorted pairs
/// or the first storage fault.
type Join<'a> = Box<dyn Fn(&mut BufferPool) -> Result<Vec<(u64, u64)>, StorageError> + 'a>;

/// Runs every `(label, join)` fault-free for its reference, then under
/// injected faults at two rates × three seeds: an `Ok` run must equal the
/// reference, an `Err` must be typed. Returns `(faulted, survived)`.
fn assert_fail_stop(pool: &mut BufferPool, joins: &[(String, Join<'_>)]) -> (u64, u64) {
    let (mut faulted, mut survived) = (0u64, 0u64);
    // Salt every run's injector seed with the combination index:
    // strategies that replay the identical page-read sequence would
    // otherwise share the identical fault stream, collapsing hundreds
    // of runs into a handful of distinct draws.
    let mut combo = 0u64;
    for (label, join) in joins {
        pool.set_fault_injector(None);
        let want = join(pool).expect("no injector armed");
        for rate in [0.02, 0.08] {
            for seed in [1u64, 2, 3] {
                combo += 1;
                pool.set_fault_injector(Some(FaultInjector::new(FaultConfig::uniform(
                    seed.wrapping_add(combo.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    rate,
                ))));
                // Evict everything so the run performs physical
                // reads — resident pages never consult the injector.
                pool.clear();
                match join(pool) {
                    Ok(got) => {
                        survived += 1;
                        assert_eq!(
                            got, want,
                            "{label} at rate {rate} seed {seed}: an Ok run \
                             must be byte-identical to the fault-free reference"
                        );
                    }
                    Err(e) => {
                        faulted += 1;
                        assert!(!e.kind().is_empty(), "errors must be typed, got {e:?}");
                    }
                }
                pool.set_fault_injector(None);
            }
        }
    }
    (faulted, survived)
}

fn sorted(mut pairs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    pairs.sort_unstable();
    pairs
}

#[test]
fn every_strategy_is_fail_stop_under_injected_faults() {
    let mut pool = pool();
    let w = build_world(&mut pool);
    let mut joins: Vec<(String, Join<'_>)> = Vec::new();
    for theta in THETAS {
        for strategy in Strategy::ALL.into_iter().chain([Strategy::Auto]) {
            let w = &w;
            let join = move |pool: &mut BufferPool| {
                let ops = operands(w);
                let mut exec = strategy.executor(&ops).expect("operands cover everything");
                let run = exec.try_execute(&JoinRequest::new(theta), pool)?;
                Ok(sorted(run.pairs))
            };
            joins.push((
                format!("{} under {theta:?}", strategy.name()),
                Box::new(join),
            ));
        }
    }
    let (faulted, survived) = assert_fail_stop(&mut pool, &joins);
    assert!(faulted > 0, "injection rates must actually abort some runs");
    assert!(survived > 0, "low rates must let some runs complete");
}

/// The joins no request can name, through their library functions: the
/// grid-file join on every θ with a bounded filter region (it panics on
/// directional θ by contract), local join indices — build and probe — on
/// all eight.
#[test]
fn library_joins_are_fail_stop_under_injected_faults() {
    let mut pool = pool();
    let w = build_world(&mut pool);
    let config = GridConfig {
        world: w.world,
        nx: 16,
        ny: 16,
    };
    let mut joins: Vec<(String, Join<'_>)> = Vec::new();
    for theta in THETAS {
        let w = &w;
        if theta.filter_radius().is_some() {
            let join = move |pool: &mut BufferPool| {
                let run = grid_join(pool, &w.r, &w.s, config, theta, &mut TraceSink::Null)?;
                Ok(sorted(run.pairs))
            };
            joins.push((format!("grid_join under {theta:?}"), Box::new(join)));
        }
        let join = move |pool: &mut BufferPool| {
            let (idx, _) = LocalJoinIndex::try_build(pool, &w.r_tree, &w.s_tree, theta, 1, 16)?;
            Ok(sorted(idx.join(pool, &mut TraceSink::Null)?.pairs))
        };
        joins.push((format!("local join index under {theta:?}"), Box::new(join)));
    }
    assert_eq!(joins.len(), 7 + 8);
    let (faulted, survived) = assert_fail_stop(&mut pool, &joins);
    assert!(faulted > 0, "injection rates must actually abort some runs");
    assert!(survived > 0, "low rates must let some runs complete");
}

#[test]
fn select_paths_are_fail_stop_too() {
    let mut pool = pool();
    let w = build_world(&mut pool);
    let probe = Geometry::Point(Point::new(20.0, 20.0));
    let theta = ThetaOp::WithinDistance(15.0);

    pool.set_fault_injector(None);
    let mut want = sj_joins::tree_join::tree_select(
        &mut pool,
        &w.r_tree,
        &probe,
        theta,
        sj_joins::tree_join::TraversalOrder::BreadthFirst,
    )
    .unwrap()
    .matches;
    want.sort_unstable();

    for seed in 0u64..10 {
        pool.set_fault_injector(Some(FaultInjector::new(FaultConfig::uniform(seed, 0.05))));
        pool.clear();
        match sj_joins::tree_join::tree_select(
            &mut pool,
            &w.r_tree,
            &probe,
            theta,
            sj_joins::tree_join::TraversalOrder::BreadthFirst,
        ) {
            Ok(run) => {
                let mut got = run.matches;
                got.sort_unstable();
                assert_eq!(got, want, "seed {seed}");
            }
            Err(e) => assert_eq!(e.kind(), "injected_fault"),
        }
        pool.set_fault_injector(None);
    }
}

#[test]
fn same_seed_replays_the_same_fault_trace() {
    let run = |seed: u64| {
        let mut pool = pool();
        let w = build_world(&mut pool);
        pool.set_fault_injector(Some(FaultInjector::new(FaultConfig::uniform(seed, 0.05))));
        pool.clear();
        let ops = operands(&w);
        let mut exec = Strategy::Sweep.executor(&ops).expect("flat operands");
        let outcome = exec
            .try_execute(&JoinRequest::new(ThetaOp::Overlaps), &mut pool)
            .map(|run| {
                let mut pairs = run.pairs;
                pairs.sort_unstable();
                pairs
            });
        let trace = pool
            .fault_injector()
            .expect("injector still armed")
            .trace()
            .to_vec();
        (outcome, trace)
    };
    let (outcome_a, trace_a) = run(0xDEAD);
    let (outcome_b, trace_b) = run(0xDEAD);
    assert_eq!(outcome_a, outcome_b, "same seed, same outcome");
    assert_eq!(trace_a, trace_b, "same seed, same fault trace");
    let (outcome_c, trace_c) = run(0xBEEF);
    // Different seeds draw different streams (the traces may coincide
    // only if neither run faulted at all).
    if !(trace_a.is_empty() && trace_c.is_empty()) {
        assert!(
            trace_a != trace_c || outcome_a == outcome_c,
            "distinct seeds should not replay the same non-empty trace by construction"
        );
    }
}
