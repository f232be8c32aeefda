//! Analytic-vs-measured validation.
//!
//! The paper's §4.5 comparison is purely analytic. This harness closes the
//! loop: it materializes the model's assumptions (balanced k-ary
//! generalization trees, S1/S2; clustered or random record placement;
//! an LRU memory of M pages) in the storage simulator, runs the *real*
//! SELECT/JOIN executors, and compares measured page reads and comparison
//! counts against the §4.3/§4.4 formulas evaluated with *empirical*
//! match probabilities (the per-level Θ-match fractions actually observed,
//! substituted for π). Agreement therefore validates the model's
//! *structure* — the per-level accounting and the Yao I/O estimates —
//! independently of any distributional assumption.

use std::collections::HashSet;
use std::fmt;

use sj_costmodel::yao::yao;
use sj_gentree::balanced::build_balanced;
use sj_gentree::{join as gt_join, select as gt_select};
use sj_geom::{Geometry, Rect, ThetaOp};
use sj_joins::tree_join::{tree_select, TraversalOrder};
use sj_joins::{JoinOperands, JoinRequest, StoredRelation, Strategy, TreeRelation};
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};

/// One predicted/measured pair.
#[derive(Debug, Clone)]
pub struct ValRow {
    pub quantity: String,
    pub predicted: f64,
    pub measured: f64,
}

impl ValRow {
    /// measured / predicted.
    pub fn ratio(&self) -> f64 {
        if self.predicted == 0.0 {
            if self.measured == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.measured / self.predicted
        }
    }
}

/// A validation run's report.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    pub title: String,
    pub rows: Vec<ValRow>,
}

impl ValidationReport {
    fn push(&mut self, quantity: impl Into<String>, predicted: f64, measured: f64) {
        self.rows.push(ValRow {
            quantity: quantity.into(),
            predicted,
            measured,
        });
    }

    /// True if every row's measured/predicted ratio lies within
    /// `[1/tolerance, tolerance]`.
    pub fn within(&self, tolerance: f64) -> bool {
        self.rows
            .iter()
            .all(|r| r.ratio() >= 1.0 / tolerance && r.ratio() <= tolerance)
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        writeln!(
            f,
            "{:<38} {:>14} {:>14} {:>8}",
            "quantity", "predicted", "measured", "ratio"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<38} {:>14.2} {:>14.2} {:>8.3}",
                r.quantity,
                r.predicted,
                r.measured,
                r.ratio()
            )?;
        }
        Ok(())
    }
}

const RECORD_SIZE: usize = 300; // the paper's v

fn fresh_pool(mem_pages: usize) -> BufferPool {
    BufferPool::new(Disk::new(DiskConfig::paper()), mem_pages)
}

/// Validates the SELECT cost structure (§4.3) on a balanced k-ary tree of
/// height `n`: strategy I, IIa, and IIb page reads and comparison counts,
/// predicted from the observed per-level Θ-match counts.
pub fn validate_select(k: usize, n: usize, radius: f64, seed: u64) -> ValidationReport {
    let world = Rect::from_bounds(0.0, 0.0, 1024.0, 1024.0);
    let tree = build_balanced(k, n, world);
    let total_nodes = tree.node_count() as f64;
    let m = DiskConfig::paper().records_per_page(RECORD_SIZE) as f64;
    let pages = (total_nodes / m).ceil();

    // Selector: a point near the middle of the world, θ = within `radius`
    // of closest points.
    let o = Geometry::Point(sj_geom::Point::new(512.0 + seed as f64 % 97.0, 512.0));
    let theta = ThetaOp::WithinDistance(radius);

    // Dry traversal to observe per-level Θ-match counts (the empirical π̂·kⁱ).
    let outcome = gt_select::select_flat(&tree, None, &o, theta, |_| {});
    let visited = &outcome.stats.visited_per_level;

    let mut report = ValidationReport {
        title: format!("SELECT validation: k={k}, n={n}, radius={radius}"),
        ..Default::default()
    };

    // --- comparisons -----------------------------------------------------
    // Model: C_II^Θ/C_Θ = 1 + Σ (Θ-matches at level i)·k  — which equals
    // the total visited count; measured = filter evals.
    let predicted_comparisons: f64 = visited.iter().map(|&v| v as f64).sum();
    report.push(
        "II: Θ-filter evaluations",
        predicted_comparisons,
        outcome.stats.filter_evals as f64,
    );

    // --- strategy I ------------------------------------------------------
    let mut pool = fresh_pool(10_000);
    let items: Vec<(u64, Geometry)> = tree
        .entry_nodes()
        .iter()
        .map(|&nid| {
            let e = tree.entry(nid).expect("entry");
            (e.id, e.geometry.clone())
        })
        .collect();
    let flat = StoredRelation::build(&mut pool, &items, RECORD_SIZE, Layout::Clustered);
    pool.clear();
    pool.reset_stats();
    let exh = sj_joins::nested_loop::exhaustive_select(&mut pool, &flat, &o, theta)
        .expect("fresh in-memory pool cannot fault");
    report.push(
        "I: page reads (⌈N/m⌉)",
        pages,
        exh.stats.physical_reads as f64,
    );
    report.push(
        "I: θ evaluations (N)",
        total_nodes,
        exh.stats.theta_evals as f64,
    );

    // --- strategy IIa (unclustered) ---------------------------------------
    // Model: Σ_i Y(visited_{i+1}, ⌈N/m⌉, N) + 1 root page.
    let predicted_iia: f64 = 1.0
        + visited
            .iter()
            .skip(1)
            .map(|&v| yao(v as f64, pages, total_nodes))
            .sum::<f64>();
    let mut pool = fresh_pool(10_000);
    let tr = TreeRelation::new(
        &mut pool,
        tree.clone(),
        RECORD_SIZE,
        Layout::Unclustered { seed },
    );
    pool.clear();
    pool.reset_stats();
    let run_a = tree_select(&mut pool, &tr, &o, theta, TraversalOrder::BreadthFirst)
        .expect("fresh in-memory pool cannot fault");
    report.push(
        "IIa: page reads (Σ Yao per level)",
        predicted_iia,
        run_a.stats.physical_reads as f64,
    );

    // --- strategy IIb (clustered) ------------------------------------------
    // Model: Σ_i Y(matches_i, ⌈k^{i+1}/m⌉, k^i) + 1 root page; matches_i =
    // visited_{i+1} / k.
    let kf = k as f64;
    let predicted_iib: f64 = 1.0
        + (0..n)
            .map(|i| {
                let matches_i = visited.get(i + 1).copied().unwrap_or(0) as f64 / kf;
                yao(
                    matches_i,
                    (kf.powi(i as i32 + 1) / m).ceil(),
                    kf.powi(i as i32),
                )
            })
            .sum::<f64>();
    let mut pool = fresh_pool(10_000);
    let tr = TreeRelation::new(&mut pool, tree.clone(), RECORD_SIZE, Layout::Clustered);
    pool.clear();
    pool.reset_stats();
    let run_b = tree_select(&mut pool, &tr, &o, theta, TraversalOrder::BreadthFirst)
        .expect("fresh in-memory pool cannot fault");
    report.push(
        "IIb: page reads (clustered Yao)",
        predicted_iib,
        run_b.stats.physical_reads as f64,
    );

    // Sanity: both tree runs find the same matches as the exhaustive scan.
    let mut a = run_a.matches.clone();
    let mut b = run_b.matches.clone();
    let mut e = exh.matches.clone();
    a.sort_unstable();
    b.sort_unstable();
    e.sort_unstable();
    assert_eq!(a, e, "IIa result must equal exhaustive result");
    assert_eq!(b, e, "IIb result must equal exhaustive result");
    report
}

/// Validates the JOIN cost structure (§4.4) on two balanced k-ary trees:
/// measured strategy-I and strategy-II costs against their formula
/// predictions with empirical per-level participation counts.
pub fn validate_join(k: usize, n: usize, radius: f64, seed: u64) -> ValidationReport {
    let world = Rect::from_bounds(0.0, 0.0, 1024.0, 1024.0);
    // Two trees over slightly shifted subdivisions so matches are sparse.
    let tree_r = build_balanced(k, n, world);
    let tree_s = build_balanced(k, n, Rect::from_bounds(3.0, 3.0, 1027.0, 1027.0));
    let total_nodes = tree_r.node_count() as f64;
    let m = DiskConfig::paper().records_per_page(RECORD_SIZE) as f64;
    let pages = (total_nodes / m).ceil();
    let theta = ThetaOp::WithinDistance(radius);

    let mut report = ValidationReport {
        title: format!("JOIN validation: k={k}, n={n}, radius={radius}"),
        ..Default::default()
    };

    // Dry run to collect distinct nodes visited per level on each side.
    let mut seen_r: Vec<HashSet<sj_gentree::NodeId>> = vec![HashSet::new(); n + 1];
    let mut seen_s: Vec<HashSet<sj_gentree::NodeId>> = vec![HashSet::new(); n + 1];
    let dry = {
        let depth_r: std::collections::HashMap<_, _> = tree_r
            .levels()
            .into_iter()
            .enumerate()
            .flat_map(|(d, nodes)| nodes.into_iter().map(move |nd| (nd, d)))
            .collect();
        let depth_s: std::collections::HashMap<_, _> = tree_s
            .levels()
            .into_iter()
            .enumerate()
            .flat_map(|(d, nodes)| nodes.into_iter().map(move |nd| (nd, d)))
            .collect();
        gt_join::join_flat(
            &tree_r,
            None,
            &tree_s,
            None,
            theta,
            |nd| {
                seen_r[depth_r[&nd]].insert(nd);
            },
            |nd| {
                seen_s[depth_s[&nd]].insert(nd);
            },
        )
    };

    // --- strategy I ---------------------------------------------------------
    let items = |tree: &sj_gentree::GenTree, offset: u64| -> Vec<(u64, Geometry)> {
        tree.entry_nodes()
            .iter()
            .map(|&nid| {
                let e = tree.entry(nid).expect("entry");
                (offset + e.id, e.geometry.clone())
            })
            .collect()
    };
    let mem_pages = 64usize;
    let mut pool = fresh_pool(mem_pages);
    let r_flat = StoredRelation::build(
        &mut pool,
        &items(&tree_r, 0),
        RECORD_SIZE,
        Layout::Clustered,
    );
    let s_flat = StoredRelation::build(
        &mut pool,
        &items(&tree_s, 1_000_000),
        RECORD_SIZE,
        Layout::Clustered,
    );
    pool.clear();
    pool.reset_stats();
    // All executors below dispatch through the unified Strategy surface;
    // with a sequential, untraced request each is exactly its legacy
    // free-function twin.
    let flat_ops = JoinOperands::flat(&r_flat, &s_flat, world);
    let nl = Strategy::NestedLoop
        .executor(&flat_ops)
        .expect("flat operands present")
        .execute(&JoinRequest::new(theta), &mut pool);
    let passes = (total_nodes / (m * (mem_pages as f64 - 10.0))).ceil();
    report.push(
        "I: page reads ((passes+1)·⌈N/m⌉)",
        (passes + 1.0) * pages,
        nl.stats.physical_reads as f64,
    );
    report.push(
        "I: θ evaluations (N²)",
        total_nodes * total_nodes,
        nl.stats.theta_evals as f64,
    );

    // --- strategy II ----------------------------------------------------------
    // Predicted I/O: one Yao term per level per side over the *distinct*
    // participating nodes (the model's per-level participation counts).
    let predict = |seen: &[HashSet<sj_gentree::NodeId>], clustered: bool| -> f64 {
        let kf = k as f64;
        seen.iter()
            .enumerate()
            .map(|(lvl, nodes)| {
                let x = nodes.len() as f64;
                if clustered {
                    if lvl == 0 {
                        // Root record.
                        1.0
                    } else {
                        let records = kf.powi(lvl as i32 - 1).max(1.0);
                        yao(
                            (x / kf).max(if x > 0.0 { 1.0 } else { 0.0 }),
                            (kf.powi(lvl as i32) / m).ceil(),
                            records,
                        )
                    }
                } else {
                    yao(x, pages, total_nodes)
                }
            })
            .sum()
    };
    for (layout, clustered, label) in [
        (Layout::Unclustered { seed }, false, "IIa"),
        (Layout::Clustered, true, "IIb"),
    ] {
        let mut pool = fresh_pool(10_000);
        let tr = TreeRelation::new(&mut pool, tree_r.clone(), RECORD_SIZE, layout);
        let ts = TreeRelation::new(&mut pool, tree_s.clone(), RECORD_SIZE, layout);
        pool.clear();
        pool.reset_stats();
        let run = Strategy::Tree
            .executor(&JoinOperands::trees(&tr, &ts, world))
            .expect("tree operands present")
            .execute(&JoinRequest::new(theta), &mut pool);
        let predicted = predict(&seen_r, clustered) + predict(&seen_s, clustered);
        report.push(
            format!("{label}: page reads (Σ Yao per level)"),
            predicted,
            run.stats.physical_reads as f64,
        );
        // Result correctness against strategy I (ids offset on the S side).
        let mut got = run.pairs.clone();
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> = nl.pairs.iter().map(|&(a, b)| (a, b - 1_000_000)).collect();
        want.sort_unstable();
        assert_eq!(got, want, "{label} join result must equal nested loop");
    }

    // Comparison-count cross-check: the dry (in-memory) run of Algorithm
    // JOIN and the stored executor must perform identical Θ+θ work — the
    // storage layer may only change I/O, never the algorithm.
    let mut stored_pool = fresh_pool(10_000);
    let tr = TreeRelation::new(
        &mut stored_pool,
        tree_r.clone(),
        RECORD_SIZE,
        Layout::Clustered,
    );
    let ts = TreeRelation::new(
        &mut stored_pool,
        tree_s.clone(),
        RECORD_SIZE,
        Layout::Clustered,
    );
    let stored = Strategy::Tree
        .executor(&JoinOperands::trees(&tr, &ts, world))
        .expect("tree operands present")
        .execute(&JoinRequest::new(theta), &mut stored_pool);
    report.push(
        "II: Θ+θ comparisons (dry vs stored)",
        (dry.stats.filter_evals + dry.stats.theta_evals) as f64,
        (stored.stats.filter_evals + stored.stats.theta_evals) as f64,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_validation_within_tolerance() {
        let report = validate_select(4, 4, 40.0, 7);
        // Yao-based I/O predictions land close to measurement; comparison
        // counts match exactly by construction.
        assert!(
            report.within(2.0),
            "predictions off by more than 2x:\n{report}"
        );
    }

    #[test]
    fn select_validation_other_shape() {
        let report = validate_select(6, 3, 100.0, 13);
        assert!(report.within(2.0), "{report}");
    }

    #[test]
    fn join_validation_within_tolerance() {
        let report = validate_join(4, 3, 6.0, 21);
        assert!(
            report.within(2.5),
            "predictions off by more than 2.5x:\n{report}"
        );
    }

    #[test]
    fn reports_render() {
        let report = validate_select(3, 3, 60.0, 1);
        let text = report.to_string();
        assert!(text.contains("SELECT validation"));
        assert!(text.contains("IIa"));
    }
}
