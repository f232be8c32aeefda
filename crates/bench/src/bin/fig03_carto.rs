//! Reproduces Figure 3: a generalization tree representing a cartographic
//! hierarchy (map → countries → states/regions → cities), where every node
//! is an application object.
//!
//! Run: `cargo run --release -p sj-bench --bin fig03_carto`

use sj_gentree::carto::{generate_carto, CartoParams};
use sj_gentree::select::select_flat;
use sj_geom::{Geometry, Point, ThetaOp};

fn main() {
    println!("# Figure 3: a cartographic PART-OF hierarchy\n");
    let params = CartoParams {
        countries: 4,
        states_per_country: 3,
        cities_per_state: 3,
        world_side: 100.0,
    };
    let map = generate_carto(1993, params);
    let levels = map.levels();
    let names = ["map", "country", "state", "city"];
    for (depth, nodes) in levels.iter().enumerate() {
        println!(
            "level {depth} ({}): {} objects",
            names[depth.min(3)],
            nodes.len()
        );
        for &n in nodes.iter().take(4) {
            let e = map.entry(n).expect("all nodes are application objects");
            let m = map.mbr(n);
            println!(
                "  id {:>3}  region [{:5.1},{:5.1}]x[{:5.1},{:5.1}]",
                e.id, m.lo.x, m.hi.x, m.lo.y, m.hi.y
            );
        }
        if nodes.len() > 4 {
            println!("  … and {} more", nodes.len() - 4);
        }
    }

    // The defining feature vs. an R-tree: interior nodes can qualify for
    // query answers.
    let probe = Geometry::Point(Point::new(30.0, 70.0));
    let out = select_flat(&map, None, &probe, ThetaOp::Overlaps, |_| {});
    println!("\nobjects containing the point (30, 70): {:?}", out.matches);
    println!("(note: the map itself, a country, and a state all qualify —");
    println!(" the SELECT algorithm reports interior application objects too)");
    println!(
        "\nwork: visited {}/{} nodes, {} Θ + {} θ evaluations",
        out.stats.nodes_visited,
        map.node_count(),
        out.stats.filter_evals,
        out.stats.theta_evals
    );
}
