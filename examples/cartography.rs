//! Cartographic hierarchies (the paper's Figure 3): a generalization tree
//! whose *every* node is an application object — map, countries, states,
//! cities — queried hierarchically, including the paper's query (1)
//! pattern "find all X to the Northwest of Y".
//!
//! Run with: `cargo run --release --example cartography`

use spatial_joins::core::{Direction, Geometry, Point, ThetaOp};
use spatial_joins::gentree::carto::{generate_carto, CartoParams};
use spatial_joins::gentree::join::join_flat;
use spatial_joins::gentree::select::{select_exhaustive, select_flat};

fn main() {
    // A synthetic map: 9 countries × 6 states × 8 cities.
    let params = CartoParams {
        countries: 9,
        states_per_country: 6,
        cities_per_state: 8,
        world_side: 900.0,
    };
    let map = generate_carto(2024, params);
    println!(
        "cartographic hierarchy: {} objects, height {} (map → country → state → city)",
        map.node_count(),
        map.height()
    );

    // --- Spatial selection with interior matches -------------------------
    // "Which objects contain / touch the point (123, 456)?" — the map, one
    // country, one state, and any coincident cities all qualify; the
    // hierarchical SELECT finds them while visiting a fraction of the tree.
    let probe = Geometry::Point(Point::new(123.0, 456.0));
    let out = select_flat(&map, None, &probe, ThetaOp::Overlaps, |_| {});
    println!("\nobjects overlapping (123, 456): {:?}", out.matches);
    println!(
        "  visited {} of {} nodes; {} Θ-filter + {} θ evaluations",
        out.stats.nodes_visited,
        map.node_count(),
        out.stats.filter_evals,
        out.stats.theta_evals
    );
    let exhaustive = select_exhaustive(&map, &probe, ThetaOp::Overlaps);
    println!(
        "  (exhaustive search needs {} θ evaluations for the same answer)",
        exhaustive.stats.theta_evals
    );

    // --- Directional selection -------------------------------------------
    // Query (1) pattern: all cities to the NorthWest of a reference city.
    // City entries are the level-3 nodes; pick one in the middle.
    let levels = map.levels();
    let reference_node = levels[3][levels[3].len() / 2];
    let reference = map.entry(reference_node).expect("city").clone();
    let nw = select_flat(
        &map,
        None,
        &reference.geometry,
        // select_flat() evaluates o θ a, so "a is NW of o" uses the swapped
        // operator: o SE-of a ⇔ a NW-of o.
        ThetaOp::DirectionOf(Direction::SouthEast),
        |_| {},
    );
    let cities_only: Vec<u64> = nw
        .matches
        .iter()
        .copied()
        .filter(|&id| {
            levels[3]
                .iter()
                .any(|&n| map.entry(n).map(|e| e.id) == Some(id))
        })
        .collect();
    println!(
        "\ncities to the NorthWest of city {} at {}: {} of {}",
        reference.id,
        reference.geometry.centerpoint(),
        cities_only.len(),
        levels[3].len()
    );

    // --- Hierarchy-to-hierarchy join ---------------------------------------
    // Two maps of different vintages: which objects of one overlap which
    // objects of the other? Algorithm JOIN walks both hierarchies in sync.
    let other = generate_carto(
        4096,
        CartoParams {
            countries: 4,
            states_per_country: 4,
            cities_per_state: 4,
            world_side: 900.0,
        },
    );
    let joined = join_flat(&map, &other, ThetaOp::Overlaps, |_| {}, |_| {});
    println!(
        "\njoin of the two hierarchies: {} overlapping object pairs",
        joined.pairs.len()
    );
    println!(
        "  {} Θ-filter + {} θ evaluations (vs {} for nested loop)",
        joined.stats.filter_evals,
        joined.stats.theta_evals,
        map.node_count() * other.node_count()
    );
}
