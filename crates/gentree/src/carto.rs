//! Application-specific generalization trees: cartographic PART-OF
//! hierarchies (the paper's Figure 3), where **every** node — map, country,
//! state, city — is an application object relevant to the user.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sj_geom::{Bounded, Geometry, Point, Rect};

use crate::tree::{Entry, GenTree, NodeId};

/// Incremental builder for application hierarchies with containment
/// validation: each added object must lie within its parent object's MBR
/// (the generalization-tree invariant).
#[derive(Debug)]
pub struct CartoBuilder {
    tree: GenTree,
}

impl CartoBuilder {
    /// Starts a hierarchy from a root object (e.g. the whole map).
    pub fn new(root_id: u64, root_geometry: Geometry) -> Self {
        let mbr = root_geometry.mbr();
        CartoBuilder {
            tree: GenTree::new(
                mbr,
                Some(Entry {
                    id: root_id,
                    geometry: root_geometry,
                }),
            ),
        }
    }

    /// Adds an object under `parent`.
    ///
    /// # Panics
    ///
    /// Panics if the object's MBR escapes the parent's MBR — such an object
    /// violates the PART-OF containment the algorithms rely on.
    pub fn add(&mut self, parent: NodeId, id: u64, geometry: Geometry) -> NodeId {
        let mbr = geometry.mbr();
        assert!(
            self.tree.mbr(parent).expand(1e-9).contains_rect(&mbr),
            "object {id} escapes its parent's region"
        );
        self.tree
            .add_child(parent, mbr, Some(Entry { id, geometry }))
    }

    /// The root node, for use as an `add` parent.
    pub fn root(&self) -> NodeId {
        self.tree.root()
    }

    /// Finishes the build.
    pub fn build(self) -> GenTree {
        self.tree.check_invariants();
        self.tree
    }
}

/// Parameters for the synthetic map generator.
#[derive(Debug, Clone, Copy)]
pub struct CartoParams {
    /// Countries per map (arranged in a grid of disjoint regions, like the
    /// paper's Figure 3).
    pub countries: usize,
    /// States per country.
    pub states_per_country: usize,
    /// Cities (points) per state.
    pub cities_per_state: usize,
    /// World extent (a square of this side length).
    pub world_side: f64,
}

impl Default for CartoParams {
    fn default() -> Self {
        CartoParams {
            countries: 9,
            states_per_country: 4,
            cities_per_state: 5,
            world_side: 1000.0,
        }
    }
}

/// Generates a three-level cartographic hierarchy
/// (map → countries → states → cities) with deterministic randomness.
/// Node ids are assigned in insertion (breadth-ish) order starting at 0 for
/// the map itself.
pub fn generate_carto(seed: u64, params: CartoParams) -> GenTree {
    assert!(params.countries >= 1 && params.states_per_country >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let world = Rect::from_bounds(0.0, 0.0, params.world_side, params.world_side);
    let mut next_id = 0u64;
    let mut fresh = || {
        let id = next_id;
        next_id += 1;
        id
    };

    let mut b = CartoBuilder::new(fresh(), Geometry::Rect(world));
    let map = b.root();

    for country_rect in grid_split(&world, params.countries) {
        let country = b.add(map, fresh(), Geometry::Rect(country_rect));
        for state_rect in grid_split(&country_rect, params.states_per_country) {
            let state = b.add(country, fresh(), Geometry::Rect(state_rect));
            for _ in 0..params.cities_per_state {
                let x = rng.random_range(state_rect.lo.x..=state_rect.hi.x);
                let y = rng.random_range(state_rect.lo.y..=state_rect.hi.y);
                b.add(state, fresh(), Geometry::Point(Point::new(x, y)));
            }
        }
    }
    b.build()
}

/// Splits `region` into `parts` disjoint cells arranged in a near-square
/// grid (row-major order). The cells tile the region exactly.
pub fn grid_split(region: &Rect, parts: usize) -> Vec<Rect> {
    assert!(parts >= 1);
    let cols = (parts as f64).sqrt().ceil() as usize;
    let rows = parts.div_ceil(cols);
    let w = region.width() / cols as f64;
    let h = region.height() / rows as f64;
    (0..parts)
        .map(|i| {
            let (cx, cy) = (i % cols, i / cols);
            let x0 = region.lo.x + cx as f64 * w;
            let y0 = region.lo.y + cy as f64 * h;
            Rect::from_bounds(x0, y0, x0 + w, y0 + h)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::select_flat;
    use sj_geom::ThetaOp;

    #[test]
    fn grid_split_tiles_exactly() {
        let r = Rect::from_bounds(0.0, 0.0, 12.0, 6.0);
        for parts in [1, 2, 3, 4, 6, 9] {
            let cells = grid_split(&r, parts);
            assert_eq!(cells.len(), parts);
            for c in &cells {
                assert!(r.contains_rect(c));
            }
            // Disjoint interiors.
            for i in 0..cells.len() {
                for j in (i + 1)..cells.len() {
                    assert!(
                        !cells[i].interiors_intersect(&cells[j]),
                        "{parts} parts: cells {i} and {j} overlap"
                    );
                }
            }
        }
    }

    #[test]
    fn generated_hierarchy_has_expected_shape() {
        let p = CartoParams {
            countries: 4,
            states_per_country: 4,
            cities_per_state: 3,
            world_side: 100.0,
        };
        let t = generate_carto(42, p);
        // 1 map + 4 countries + 16 states + 48 cities.
        assert_eq!(t.node_count(), 1 + 4 + 16 + 48);
        assert_eq!(t.height(), 3);
        // Every node is an application object.
        assert_eq!(t.entry_nodes().len(), t.node_count());
        t.check_invariants();
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_carto(7, CartoParams::default());
        let b = generate_carto(7, CartoParams::default());
        assert_eq!(a.node_count(), b.node_count());
        let ea: Vec<_> = a
            .entry_nodes()
            .iter()
            .map(|&n| a.entry(n).unwrap().clone())
            .collect();
        let eb: Vec<_> = b
            .entry_nodes()
            .iter()
            .map(|&n| b.entry(n).unwrap().clone())
            .collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn select_on_carto_finds_containing_regions() {
        let t = generate_carto(1, CartoParams::default());
        // A probe point overlaps the map, exactly one country, one state,
        // and possibly some cities.
        let probe = Geometry::Point(Point::new(123.0, 456.0));
        let out = select_flat(&t, None, &probe, ThetaOp::Overlaps, |_| {});
        // Map + country + state at least; cities only if coincident.
        assert!(out.matches.len() >= 3, "got {:?}", out.matches);
        assert!(out.matches.contains(&0)); // the map itself
    }

    #[test]
    #[should_panic(expected = "escapes its parent")]
    fn builder_rejects_escaping_child() {
        let mut b = CartoBuilder::new(0, Geometry::Rect(Rect::from_bounds(0.0, 0.0, 10.0, 10.0)));
        let root = b.root();
        b.add(root, 1, Geometry::Point(Point::new(20.0, 20.0)));
    }
}
