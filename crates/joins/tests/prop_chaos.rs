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
//!
//! The shared world is points × points, which a sweep or partition run
//! refines from its MBR scans without a read; a points × polygons world
//! on a small pool keeps their refine-phase fetches under fire.

use sj_geom::{Direction, Geometry, Point, Polygon, Rect, ThetaOp};
use sj_joins::executor::JoinOperands;
use sj_joins::grid::{grid_join, GridConfig};
use sj_joins::{JoinRequest, LocalJoinIndex, StoredRelation, Strategy, TraceSink, TreeRelation};
use sj_storage::{
    BufferPool, Disk, DiskConfig, FaultConfig, FaultInjector, Layout, PageId, StorageError,
};

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

/// Sweep and partition re-read polygon pages in refine once a 4-frame
/// pool has evicted them after the MBR scans. A run that faults after
/// the scans' physical reads faulted in refine; at least one must, and
/// every run stays fail-stop.
#[test]
fn refine_phase_faults_are_fail_stop() {
    let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 4);
    let points = grid_tuples(8, 8.0, 0);
    let polygons: Vec<(u64, Geometry)> = (0..64u64)
        .map(|i| {
            let c = Point::new((i % 8) as f64 * 8.0 + 3.0, (i / 8) as f64 * 8.0 + 3.0);
            (500 + i, Geometry::Polygon(Polygon::regular(c, 2.5, 8)))
        })
        .collect();
    let r = StoredRelation::build(&mut pool, &points, 300, Layout::Clustered);
    let s = StoredRelation::build(&mut pool, &polygons, 300, Layout::Clustered);
    pool.clear();
    let before = pool.stats().physical_reads;
    r.try_scan_mbrs(&mut pool).unwrap();
    s.try_scan_mbrs(&mut pool).unwrap();
    let scan_reads = pool.stats().physical_reads - before;

    let ops = JoinOperands::flat(&r, &s, Rect::from_bounds(0.0, 0.0, 64.0, 64.0));
    let mut late = 0;
    for strategy in [Strategy::Sweep, Strategy::Partition] {
        for theta in THETAS.into_iter().filter(|t| t.filter_radius().is_some()) {
            let run = |pool: &mut BufferPool| {
                let mut exec = strategy.executor(&ops).expect("flat operands");
                exec.try_execute(&JoinRequest::new(theta), pool)
                    .map(|run| sorted(run.pairs))
            };
            let want = run(&mut pool).unwrap();
            for seed in 0u64..8 {
                pool.set_fault_injector(Some(FaultInjector::new(FaultConfig::uniform(seed, 0.05))));
                pool.clear();
                let before = pool.stats().physical_reads;
                let got = run(&mut pool);
                let faulted = !pool.fault_injector().unwrap().trace().is_empty();
                if faulted && pool.stats().physical_reads - before >= scan_reads {
                    late += 1;
                }
                match got {
                    Ok(got) => assert_eq!(got, want, "{strategy:?} under {theta:?}"),
                    Err(e) => assert_eq!(e.kind(), "injected_fault"),
                }
                pool.set_fault_injector(None);
            }
        }
    }
    assert!(late > 0, "no fault landed after the MBR scans");
}

/// Media damage: each bit of one stored polygon record and one stored
/// point record is flipped in turn, in place through the pool. Under
/// every flip, every strategy and `Auto` under all eight θ returns
/// `PageCorrupt` or the nested-loop answer on the undamaged data: the
/// record checksum turns damage into a typed error, never a different
/// geometry. Every bit of each stored frame is flipped: a record is
/// stored at its frame length, so there is no padding to leave out.
#[test]
fn flipped_bits_are_page_corrupt_or_the_exact_answer() {
    let mut pool = pool();
    let polygons: Vec<(u64, Geometry)> = (0..4u64)
        .map(|i| {
            let c = Point::new((i % 2) as f64 * 10.0 + 5.0, (i / 2) as f64 * 10.0 + 5.0);
            (i, Geometry::Polygon(Polygon::regular(c, 6.0, 4)))
        })
        .collect();
    let points = grid_tuples(3, 10.0, 500);
    // A tight slot for the 4-gons; the point frames are shorter.
    let record_size = sj_geom::codec::encoded_len(&polygons[0].1);
    // One polygon and one point are damaged; their frame lengths.
    let damaged = [1u64, 504].map(|id| {
        let (_, g) = polygons.iter().chain(&points).find(|t| t.0 == id).unwrap();
        (id, sj_geom::codec::encoded_len(g))
    });
    assert!(damaged[1].1 < record_size);
    let r = StoredRelation::build(&mut pool, &polygons, record_size, Layout::Clustered);
    let s = StoredRelation::build(&mut pool, &points, record_size, Layout::Clustered);
    let heap_pages = (r.page_count() + s.page_count()) as u32;
    let fan = sj_gentree::rtree::RTreeConfig::with_fanout(3);
    let r_tree = sj_gentree::rtree::RTree::bulk_load(fan, polygons)
        .tree()
        .clone();
    let s_tree = sj_gentree::rtree::RTree::bulk_load(fan, points)
        .tree()
        .clone();
    let w = World {
        r_tree: TreeRelation::new(&mut pool, r_tree, record_size, Layout::Clustered),
        s_tree: TreeRelation::new(&mut pool, s_tree, record_size, Layout::Clustered),
        r,
        s,
        world: Rect::from_bounds(0.0, 0.0, 64.0, 64.0),
    };
    let run = |pool: &mut BufferPool, strategy: Strategy, theta: ThetaOp| {
        let ops = operands(&w);
        let mut exec = strategy.executor(&ops).expect("operands cover everything");
        exec.try_execute(&JoinRequest::new(theta), pool)
            .map(|run| sorted(run.pairs))
    };
    let want: Vec<_> = THETAS
        .map(|theta| run(&mut pool, Strategy::NestedLoop, theta).unwrap())
        .to_vec();
    assert!(want.iter().any(|pairs| !pairs.is_empty()));

    let (mut corrupt, mut exact) = (0, 0);
    for (id, want_len) in damaged {
        // The relations' heap pages come first on the fresh disk.
        let (page, slot, frame_len) = (0..heap_pages)
            .map(PageId)
            .find_map(|page| {
                let pg = pool.try_fetch(page).unwrap();
                let slots = 0..pg.slot_count() as u16;
                let mut hit = slots.filter_map(|s| {
                    let frame = pg.get(s).filter(|b| b[..8] == id.to_le_bytes())?;
                    Some((page, s, frame.len()))
                });
                hit.next()
            })
            .expect("the record is on a heap page");
        let flip = |pool: &mut BufferPool, bit: usize| {
            pool.try_update(page, |pg| {
                let mut bytes = pg.get(slot).expect("live record").to_vec();
                bytes[bit / 8] ^= 1 << (bit % 8);
                pg.update(slot, bytes);
            })
            .unwrap();
        };
        assert_eq!(frame_len, want_len, "record {id} at its frame length");
        for bit in 0..frame_len * 8 {
            flip(&mut pool, bit);
            for (theta, want) in THETAS.into_iter().zip(&want) {
                for strategy in Strategy::ALL.into_iter().chain([Strategy::Auto]) {
                    match run(&mut pool, strategy, theta) {
                        Ok(got) => {
                            assert_eq!(&got, want, "{strategy:?} under {theta:?}, bit {bit}");
                            exact += 1;
                        }
                        Err(StorageError::PageCorrupt { page: p }) if p == page => corrupt += 1,
                        Err(e) => panic!("{strategy:?} under {theta:?}, bit {bit}: {e:?}"),
                    }
                }
            }
            flip(&mut pool, bit);
        }
    }
    assert!(corrupt > 0 && exact > 0, "{corrupt} corrupt, {exact} exact");
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
