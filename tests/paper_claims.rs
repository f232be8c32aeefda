//! Integration tests tying the implementation back to the paper's explicit
//! claims, section by section.

use spatial_joins::core::{Bounded, Geometry, Layout, Rect, StoredRelation, ThetaOp};
use spatial_joins::costmodel::series::crossover;
use spatial_joins::costmodel::{
    join as djoin, select as dselect, update, Distribution, ModelParams,
};
use spatial_joins::joins::nested_loop::nested_loop_join;
use spatial_joins::joins::sort_merge::{naive_zvalue_sort_merge, zorder_overlap_join};
use spatial_joins::joins::TraceSink;
use spatial_joins::storage::{BufferPool, Disk, DiskConfig};
use spatial_joins::zorder::{interleave, ZGrid};

fn pool() -> BufferPool {
    BufferPool::new(Disk::new(DiskConfig::paper()), 64)
}

/// §2.2 / Figure 1: "There is no total ordering among spatial objects that
/// preserves spatial proximity" — adjacent grid cells can be far apart in
/// the Peano sequence, so a windowed sort-merge misses `adjacent` matches.
#[test]
fn section_2_2_sort_merge_misses_adjacent_matches() {
    // Grid cells straddling the top-level quadrant boundary of an 8×8 grid.
    assert!(interleave(3, 0).abs_diff(interleave(4, 0)) > 8);

    let mut p = pool();
    let grid = ZGrid::new(Rect::from_bounds(0.0, 0.0, 8.0, 8.0), 3);
    let mk = |cells: &[(f64, f64)], id0: u64, p: &mut BufferPool| {
        let tuples: Vec<(u64, Geometry)> = cells
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| {
                (
                    id0 + i as u64,
                    Geometry::Rect(Rect::from_bounds(x, y, x + 1.0, y + 1.0)),
                )
            })
            .collect();
        StoredRelation::build(p, &tuples, 300, Layout::Clustered)
    };
    // R holds cells in the left quadrants, S their right-side neighbours.
    let r = mk(&[(3.0, 0.0), (3.0, 2.0), (3.0, 5.0)], 0, &mut p);
    let s = mk(&[(4.0, 0.0), (4.0, 2.0), (4.0, 5.0)], 100, &mut p);
    let complete = nested_loop_join(&mut p, &r, &s, ThetaOp::Adjacent, &mut TraceSink::Null)
        .unwrap()
        .pairs;
    assert_eq!(complete.len(), 3, "each pair of row-neighbours is adjacent");
    let naive = naive_zvalue_sort_merge(&mut p, &r, &s, &grid, ThetaOp::Adjacent, 1)
        .unwrap()
        .pairs;
    assert!(
        naive.len() < complete.len(),
        "the naive z-sort-merge must miss matches ({} vs {})",
        naive.len(),
        complete.len()
    );
}

/// §2.2: "One notable exception … is the θ-operator overlaps" — the
/// z-element sort-merge is complete for it, though "any overlap is likely
/// to be reported more than once".
#[test]
fn section_2_2_overlaps_exception_is_complete_with_duplicates() {
    let mut p = pool();
    let grid = ZGrid::new(Rect::from_bounds(0.0, 0.0, 64.0, 64.0), 6);
    let tuples_r: Vec<(u64, Geometry)> = (0..20)
        .map(|i| {
            let x = (i % 5) as f64 * 12.0;
            let y = (i / 5) as f64 * 12.0;
            (
                i,
                Geometry::Rect(Rect::from_bounds(x, y, x + 10.0, y + 10.0)),
            )
        })
        .collect();
    let tuples_s: Vec<(u64, Geometry)> = (0..20)
        .map(|i| {
            let x = (i % 5) as f64 * 12.0 + 5.0;
            let y = (i / 5) as f64 * 12.0 + 5.0;
            (
                100 + i,
                Geometry::Rect(Rect::from_bounds(x, y, x + 10.0, y + 10.0)),
            )
        })
        .collect();
    let r = StoredRelation::build(&mut p, &tuples_r, 300, Layout::Clustered);
    let s = StoredRelation::build(&mut p, &tuples_s, 300, Layout::Clustered);
    let run = zorder_overlap_join(
        &mut p,
        &r,
        &s,
        &grid,
        ThetaOp::Overlaps,
        &mut TraceSink::Null,
    )
    .unwrap();
    let mut got = run.pairs.clone();
    got.sort_unstable();
    let mut want = nested_loop_join(&mut p, &r, &s, ThetaOp::Overlaps, &mut TraceSink::Null)
        .unwrap()
        .pairs;
    want.sort_unstable();
    assert_eq!(got, want, "completeness");
    assert!(
        run.stats.passes > got.len() as u64,
        "overlaps are reported more than once before deduplication"
    );
}

/// Table 3: the derived variables of the parameter table.
#[test]
fn table_3_derived_variables() {
    let p = ModelParams::paper();
    assert_eq!(p.n_tuples(), 1_111_111.0);
    assert_eq!(p.m(), 5.0);
    assert_eq!(p.d, 4.0);
}

/// §4.5 on Figures 8–10: orderings of the selection strategies.
#[test]
fn section_4_5_selection_orderings() {
    let p = ModelParams::paper();
    // UNIFORM: join index ≈ unclustered tree; clustered tree up to an
    // order of magnitude better; exhaustive never competitive.
    for &sel in &[1e-4, 1e-3, 1e-2] {
        let iia = dselect::c_iia(&p, Distribution::Uniform, sel);
        let iib = dselect::c_iib(&p, Distribution::Uniform, sel);
        let iii = dselect::c_iii(&p, Distribution::Uniform, sel);
        assert!(iii / iia > 0.2 && iii / iia < 5.0);
        assert!(iib < iia);
        assert!(dselect::c_i(&p) > iia);
    }
    // NO-LOC: below p ≈ 0.08 the join index becomes the worst strategy.
    let lo = 0.01;
    assert!(
        dselect::c_iii(&p, Distribution::NoLoc, lo) > dselect::c_iia(&p, Distribution::NoLoc, lo)
    );
}

/// §4.5 on Figures 11–13: join crossovers — "for UNIFORM the crossover
/// point is at a join selectivity of about 10⁻⁹, for NO-LOC at about
/// 10⁻⁸, and for HI-LOC there is a tie".
#[test]
fn section_4_5_join_crossovers() {
    let p = ModelParams::paper();
    let c_uniform = crossover(
        1e-12,
        1e-4,
        |x| djoin::d_iii(&p, Distribution::Uniform, x),
        |x| djoin::d_iib(&p, Distribution::Uniform, x),
    )
    .expect("UNIFORM crossover exists");
    assert!(
        (1e-11..1e-7).contains(&c_uniform),
        "UNIFORM crossover at {c_uniform:.2e}"
    );

    let c_noloc = crossover(
        1e-12,
        1e-3,
        |x| djoin::d_iii(&p, Distribution::NoLoc, x),
        |x| djoin::d_iib(&p, Distribution::NoLoc, x),
    )
    .expect("NO-LOC crossover exists");
    // Our D_III is reconstructed from prose (the printed formula is
    // unreadable); the crossover lands within two orders of the paper's
    // ≈10⁻⁸ with the ordering preserved (see EXPERIMENTS.md).
    assert!(
        (1e-10..1e-4).contains(&c_noloc),
        "NO-LOC crossover at {c_noloc:.2e}"
    );
    assert!(c_uniform < c_noloc, "NO-LOC crossover sits above UNIFORM's");

    // HI-LOC: all three within ~an order of magnitude everywhere sensible.
    for &x in &[1e-9, 1e-7, 1e-5] {
        let a = djoin::d_iia(&p, Distribution::HiLoc, x);
        let b = djoin::d_iib(&p, Distribution::HiLoc, x);
        let i = djoin::d_iii(&p, Distribution::HiLoc, x);
        let spread = a.max(b).max(i) / a.min(b).min(i);
        assert!(spread < 30.0, "HI-LOC spread {spread} at p={x}");
    }
}

/// §4.5 / §5: "update costs of join indices are again prohibitively high,
/// and generalization trees remain the best overall strategy if update
/// rates are significant"; "the nested loop strategy is never really
/// competitive".
#[test]
fn section_4_5_updates_and_nested_loop() {
    let p = ModelParams::paper();
    assert_eq!(update::u_i(&p), 0.0);
    assert!(update::u_iii(&p) > 1000.0 * update::u_iib(&p));
    assert!(update::u_iia(&p) > update::u_iib(&p));
    for d in Distribution::ALL {
        for &x in &[1e-10, 1e-8, 1e-6] {
            assert!(djoin::d_i(&p) > djoin::d_iib(&p, d, x));
            assert!(dselect::c_i(&p) > dselect::c_iib(&p, d, x));
        }
    }
}

/// Table 1 / §3: Θ-soundness on concrete geometry — every θ-match between
/// application objects implies a Θ-match between any enclosing MBRs.
#[test]
fn table_1_theta_soundness_on_carto_data() {
    use spatial_joins::gentree::carto::{generate_carto, CartoParams};
    let map = generate_carto(5, CartoParams::default());
    let nodes = map.entry_nodes();
    let ops = [
        ThetaOp::Overlaps,
        ThetaOp::Includes,
        ThetaOp::ContainedIn,
        ThetaOp::WithinCenterDistance(120.0),
        ThetaOp::WithinDistance(50.0),
        ThetaOp::DirectionOf(spatial_joins::geom::Direction::NorthWest),
    ];
    for (i, &a) in nodes.iter().enumerate().step_by(7) {
        for &b in nodes.iter().skip(i % 13).step_by(11) {
            let ga = &map.entry(a).unwrap().geometry;
            let gb = &map.entry(b).unwrap().geometry;
            for op in ops {
                if op.eval(ga, gb) {
                    // Θ must hold on the nodes' MBRs and on every
                    // ancestor pair's MBRs.
                    assert!(op.filter(&ga.mbr(), &gb.mbr()), "{op:?}");
                    let (mut pa, mut pb) = (Some(a), Some(b));
                    while let (Some(na), Some(nb)) = (pa, pb) {
                        assert!(
                            op.filter(&map.mbr(na), &map.mbr(nb)),
                            "{op:?} fails on ancestors"
                        );
                        pa = map.parent(na);
                        pb = map.parent(nb);
                    }
                }
            }
        }
    }
}
