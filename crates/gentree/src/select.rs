//! Algorithm SELECT (paper §3.2): spatial selection over a generalization
//! tree.
//!
//! Given a selector object `o`, a θ-operator, and a generalization tree
//! indexing relation `R`, find all tuples `a` in `R` with `o θ a`. The
//! algorithm walks the tree breadth-first, expanding only nodes whose MBR
//! passes the conservative Θ-filter, and θ-testing every visited node that
//! carries an application entry (the paper explicitly allows interior
//! nodes to qualify for the solution).

use sj_geom::{Bounded, Geometry, ThetaOp};

use crate::flat::{expand_children, FlatChildren};
use crate::stats::TraversalStats;
use crate::tree::{GenTree, NodeId};

/// Result of a SELECT run: matching tuple ids plus work counters.
#[derive(Debug, Clone, Default)]
pub struct SelectOutcome {
    /// Tuple ids `a` with `o θ a`, in tree-visit order.
    pub matches: Vec<u64>,
    /// Work performed.
    pub stats: TraversalStats,
}

/// Algorithm SELECT, breadth-first exactly as stated in the paper
/// (the `QualNodes[j]` lists): finds all entries `a` with `o θ a`.
///
/// `on_visit` is invoked once per visited node *in visit order*; executors
/// use it to charge page I/O against the storage layer.
///
/// With a [`FlatChildren`] view (and an operator that has a compiled
/// mask filter), each node expansion Θ-filters the whole fanout through
/// the batched SoA mask kernel; with `None` it runs the per-child scalar
/// tests — the reference the property suites compare against. Visit
/// order, match set, and every work counter are identical either way —
/// the Θ-verdict of a node is merely *computed* at parent-expansion time
/// and still *charged* when the node is visited.
pub fn select_flat(
    tree: &GenTree,
    flat: Option<&FlatChildren>,
    o: &Geometry,
    theta: ThetaOp,
    mut on_visit: impl FnMut(NodeId),
) -> SelectOutcome {
    let mut out = SelectOutcome::default();
    let o_mbr = o.mbr();
    let mask = theta.mask_filter();

    // SELECT1 [Initialization]: QualNodes[0] = [root]. The root has no
    // parent to batch under; its verdict is the one scalar filter call.
    let root = tree.root();
    let mut qual_nodes: Vec<(NodeId, bool)> = vec![(root, theta.filter(&o_mbr, &tree.mbr(root)))];
    let mut depth = 0usize;

    // SELECT2 [Tree Search], one iteration per height level.
    while !qual_nodes.is_empty() {
        let mut next_level: Vec<(NodeId, bool)> = Vec::new();
        for &(a, qualifies) in &qual_nodes {
            on_visit(a);
            out.stats.visit(depth);
            // Check o Θ a on the node's MBR (batched at expansion time).
            out.stats.filter_evals += 1;
            if qualifies {
                // Descend: children become qualifying nodes at depth+1,
                // their Θ-verdicts computed one chunk-mask at a time.
                expand_children(tree, flat, mask, theta, &o_mbr, true, a, &mut |c, v| {
                    next_level.push((c, v))
                });
                // Check o θ a exactly, if a is an application object.
                if let Some(entry) = tree.entry(a) {
                    out.stats.theta_evals += 1;
                    if theta.eval(o, &entry.geometry) {
                        out.matches.push(entry.id);
                    }
                }
            }
        }
        qual_nodes = next_level;
        depth += 1;
    }
    out
}

/// Depth-first variant of SELECT (mentioned in §3.2: "a depth-first search
/// algorithm would also have been possible"; which is faster depends on the
/// physical clustering of the tree). Returns the same match set as
/// [`select_flat`], in depth-first order, with the same `flat`
/// semantics.
pub fn select_dfs_flat(
    tree: &GenTree,
    flat: Option<&FlatChildren>,
    o: &Geometry,
    theta: ThetaOp,
    mut on_visit: impl FnMut(NodeId),
) -> SelectOutcome {
    let mut out = SelectOutcome::default();
    let o_mbr = o.mbr();
    let mask = theta.mask_filter();
    let root = tree.root();
    let mut stack: Vec<(NodeId, usize, bool)> =
        vec![(root, 0, theta.filter(&o_mbr, &tree.mbr(root)))];
    let mut scratch: Vec<(NodeId, bool)> = Vec::new();
    while let Some((a, depth, qualifies)) = stack.pop() {
        on_visit(a);
        out.stats.visit(depth);
        out.stats.filter_evals += 1;
        if qualifies {
            if let Some(entry) = tree.entry(a) {
                out.stats.theta_evals += 1;
                if theta.eval(o, &entry.geometry) {
                    out.matches.push(entry.id);
                }
            }
            // Batch the children's Θ-verdicts, then push in reverse so
            // they are visited left-to-right.
            scratch.clear();
            expand_children(tree, flat, mask, theta, &o_mbr, true, a, &mut |c, v| {
                scratch.push((c, v))
            });
            for &(c, v) in scratch.iter().rev() {
                stack.push((c, depth + 1, v));
            }
        }
    }
    out
}

/// Fallible-visitor adapter: capture the visitor's first error, skip
/// every later visitor call (no further I/O is attempted), and let the
/// in-memory traversal run to completion. A fault therefore discards the
/// whole outcome — fail-stop — rather than returning a partial match set.
fn capture_first<E>(
    mut on_visit: impl FnMut(NodeId) -> Result<(), E>,
    run: impl FnOnce(&mut dyn FnMut(NodeId)) -> SelectOutcome,
) -> Result<SelectOutcome, E> {
    let mut first_err: Option<E> = None;
    let out = run(&mut |node| {
        if first_err.is_none() {
            if let Err(e) = on_visit(node) {
                first_err = Some(e);
            }
        }
    });
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// [`select_flat`] with a fallible visitor: the first visitor error
/// aborts the outcome (the traversal's I/O charging stops immediately).
pub fn try_select_flat<E>(
    tree: &GenTree,
    flat: Option<&FlatChildren>,
    o: &Geometry,
    theta: ThetaOp,
    on_visit: impl FnMut(NodeId) -> Result<(), E>,
) -> Result<SelectOutcome, E> {
    capture_first(on_visit, |visit| select_flat(tree, flat, o, theta, visit))
}

/// [`select_dfs_flat`] with a fallible visitor; see [`try_select_flat`].
pub fn try_select_dfs_flat<E>(
    tree: &GenTree,
    flat: Option<&FlatChildren>,
    o: &Geometry,
    theta: ThetaOp,
    on_visit: impl FnMut(NodeId) -> Result<(), E>,
) -> Result<SelectOutcome, E> {
    capture_first(on_visit, |visit| {
        select_dfs_flat(tree, flat, o, theta, visit)
    })
}

/// Reference implementation: exhaustively θ-tests every entry in the tree
/// (the nested-loop / strategy-I behaviour). The oracle the tree
/// algorithms are tested against, and the `cartography` example's
/// baseline; no executor calls it.
pub fn select_exhaustive(tree: &GenTree, o: &Geometry, theta: ThetaOp) -> SelectOutcome {
    let mut out = SelectOutcome::default();
    for id in tree.entry_nodes() {
        let entry = tree.entry(id).expect("entry node");
        out.stats.theta_evals += 1;
        if theta.eval(o, &entry.geometry) {
            out.matches.push(entry.id);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Entry;
    use sj_geom::{Point, Rect};

    /// A two-level tree over points 0..=8 on a 3x3 lattice with directory
    /// nodes per column.
    fn lattice_tree() -> GenTree {
        let mut t = GenTree::new(Rect::from_bounds(0.0, 0.0, 21.0, 21.0), None);
        for col in 0..3 {
            let x = col as f64 * 10.0;
            let dir = t.add_child(t.root(), Rect::from_bounds(x, 0.0, x + 0.1, 20.0), None);
            for row in 0..3 {
                let y = row as f64 * 10.0;
                let id = (col * 3 + row) as u64;
                t.add_child(
                    dir,
                    Rect::from_point(Point::new(x, y)),
                    Some(Entry {
                        id,
                        geometry: Geometry::Point(Point::new(x, y)),
                    }),
                );
            }
        }
        t.check_invariants();
        t
    }

    #[test]
    fn select_finds_points_within_distance() {
        let t = lattice_tree();
        let o = Geometry::Point(Point::new(0.0, 0.0));
        let out = select_flat(&t, None, &o, ThetaOp::WithinDistance(10.5), |_| {});
        let mut got = out.matches.clone();
        got.sort_unstable();
        // Points within 10.5 of the origin: (0,0), (0,10), (10,0).
        assert_eq!(got, vec![0, 1, 3]);
    }

    #[test]
    fn select_agrees_with_exhaustive_and_dfs() {
        let t = lattice_tree();
        for (ox, oy) in [(0.0, 0.0), (10.0, 10.0), (25.0, 25.0), (5.0, 15.0)] {
            let o = Geometry::Point(Point::new(ox, oy));
            for theta in [
                ThetaOp::WithinDistance(12.0),
                ThetaOp::WithinCenterDistance(9.0),
                ThetaOp::Overlaps,
                ThetaOp::DirectionOf(sj_geom::Direction::NorthWest),
            ] {
                let mut bfs = select_flat(&t, None, &o, theta, |_| {}).matches;
                let mut dfs = select_dfs_flat(&t, None, &o, theta, |_| {}).matches;
                let mut exh = select_exhaustive(&t, &o, theta).matches;
                bfs.sort_unstable();
                dfs.sort_unstable();
                exh.sort_unstable();
                assert_eq!(bfs, exh, "BFS vs exhaustive for {theta:?} at ({ox},{oy})");
                assert_eq!(dfs, exh, "DFS vs exhaustive for {theta:?} at ({ox},{oy})");
            }
        }
    }

    #[test]
    fn pruning_reduces_work() {
        let t = lattice_tree();
        // A selector far to the left touches only the first column's
        // directory subtree.
        let o = Geometry::Point(Point::new(0.0, 0.0));
        let out = select_flat(&t, None, &o, ThetaOp::WithinDistance(2.0), |_| {});
        // Visits: root + 3 directories + only the 3 nodes of column 0.
        assert_eq!(out.stats.nodes_visited, 7);
        assert_eq!(out.matches, vec![0]);
        // Exhaustive would θ-test all 9 entries.
        let exh = select_exhaustive(&t, &o, ThetaOp::WithinDistance(2.0));
        assert!(out.stats.theta_evals < exh.stats.theta_evals);
    }

    #[test]
    fn interior_application_nodes_can_match() {
        // A cartographic-style tree where the directory node itself is an
        // application object (a "state" containing a "city").
        let mut t = GenTree::new(Rect::from_bounds(0.0, 0.0, 10.0, 10.0), None);
        let state_geom = Geometry::Rect(Rect::from_bounds(0.0, 0.0, 10.0, 10.0));
        let state = t.add_child(
            t.root(),
            Rect::from_bounds(0.0, 0.0, 10.0, 10.0),
            Some(Entry {
                id: 100,
                geometry: state_geom,
            }),
        );
        t.add_child(
            state,
            Rect::from_point(Point::new(5.0, 5.0)),
            Some(Entry {
                id: 200,
                geometry: Geometry::Point(Point::new(5.0, 5.0)),
            }),
        );
        let o = Geometry::Point(Point::new(5.0, 5.0));
        let mut got = select_flat(&t, None, &o, ThetaOp::Overlaps, |_| {}).matches;
        got.sort_unstable();
        assert_eq!(got, vec![100, 200]);
    }

    #[test]
    fn on_visit_sees_every_visited_node() {
        let t = lattice_tree();
        let o = Geometry::Point(Point::new(0.0, 0.0));
        let mut visited = Vec::new();
        let out = select_flat(&t, None, &o, ThetaOp::WithinDistance(2.0), |id| {
            visited.push(id)
        });
        assert_eq!(visited.len() as u64, out.stats.nodes_visited);
        assert_eq!(visited[0], t.root());
    }

    #[test]
    fn flat_probed_select_is_byte_identical_to_scalar() {
        use crate::flat::FlatChildren;
        use crate::rtree::{RTree, RTreeConfig};

        let entries: Vec<(u64, Geometry)> = (0..250)
            .map(|i| {
                let k = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                let x = (k % 997) as f64 / 997.0 * 100.0;
                let y = (k / 997 % 997) as f64 / 997.0 * 100.0;
                (i as u64, Geometry::Point(Point::new(x, y)))
            })
            .collect();
        let rt = RTree::bulk_load(RTreeConfig::with_fanout(7), entries);
        let trees = [lattice_tree(), rt.tree().clone()];
        for t in &trees {
            let flat = FlatChildren::build(t);
            for theta in [
                ThetaOp::Overlaps,
                ThetaOp::WithinDistance(8.0),
                ThetaOp::Adjacent,
                ThetaOp::DirectionOf(sj_geom::Direction::East),
            ] {
                for (ox, oy) in [(0.0, 0.0), (50.0, 50.0), (200.0, 200.0)] {
                    let o = Geometry::Point(Point::new(ox, oy));
                    // Match sequence, stats, and visit sequence must all
                    // be identical — not just the match *set*.
                    let mut visits_scalar = Vec::new();
                    let mut visits_flat = Vec::new();
                    let want = select_flat(t, None, &o, theta, |id| visits_scalar.push(id));
                    let got = select_flat(t, Some(&flat), &o, theta, |id| visits_flat.push(id));
                    assert_eq!(got.matches, want.matches, "{theta:?}");
                    assert_eq!(got.stats, want.stats, "{theta:?}");
                    assert_eq!(visits_flat, visits_scalar, "{theta:?}");

                    let mut dfs_visits_scalar = Vec::new();
                    let mut dfs_visits_flat = Vec::new();
                    let want = select_dfs_flat(t, None, &o, theta, |id| dfs_visits_scalar.push(id));
                    let got =
                        select_dfs_flat(t, Some(&flat), &o, theta, |id| dfs_visits_flat.push(id));
                    assert_eq!(got.matches, want.matches, "dfs {theta:?}");
                    assert_eq!(got.stats, want.stats, "dfs {theta:?}");
                    assert_eq!(dfs_visits_flat, dfs_visits_scalar, "dfs {theta:?}");
                }
            }
        }
    }

    #[test]
    fn level_accounting_matches_tree_shape() {
        let t = lattice_tree();
        let o = Geometry::Point(Point::new(10.0, 10.0));
        let out = select_flat(&t, None, &o, ThetaOp::WithinDistance(1000.0), |_| {});
        // Everything qualifies: 1 root + 3 directories + 9 leaves.
        assert_eq!(out.stats.visited_per_level, vec![1, 3, 9]);
    }
}
