//! Ablation: traversal order × clustering order (§3.2: "The efficiency of
//! depth-first vs. breadth-first depends on the physical clustering
//! properties of the underlying generalization tree").
//!
//! Runs Algorithm SELECT in both traversal orders over trees stored in
//! both clustering orders (and unclustered), with a small buffer pool so
//! the order mismatch actually costs I/O.
//!
//! Run: `cargo run --release -p sj-bench --bin ablation_clustering`

use sj_gentree::balanced::build_balanced;
use sj_geom::{Geometry, Point, Rect, ThetaOp};
use sj_joins::paged_tree::{ClusterOrder, CodecMode};
use sj_joins::tree_join::{tree_select, TraversalOrder};
use sj_joins::TreeRelation;
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};

fn main() {
    let world = Rect::from_bounds(0.0, 0.0, 1024.0, 1024.0);
    let tree = std::sync::Arc::new(build_balanced(4, 5, world)); // 1365 nodes
    let theta = ThetaOp::WithinDistance(120.0);
    let probe = Geometry::Point(Point::new(512.0, 512.0));

    println!("# SELECT I/O: traversal order × physical clustering");
    println!(
        "# balanced tree k=4 n=5 ({} nodes), θ = within 120, pool = 4 pages\n",
        tree.node_count()
    );
    println!(
        "{:>28} {:>14} {:>14}",
        "clustering \\ traversal", "breadth-first", "depth-first"
    );

    let storages: [(&str, Layout, ClusterOrder); 3] = [
        (
            "clustered breadth-first",
            Layout::Clustered,
            ClusterOrder::BreadthFirst,
        ),
        (
            "clustered depth-first",
            Layout::Clustered,
            ClusterOrder::DepthFirst,
        ),
        (
            "unclustered (random)",
            Layout::Unclustered { seed: 9 },
            ClusterOrder::BreadthFirst,
        ),
    ];
    for (label, layout, cluster) in storages {
        let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 4);
        let rel = TreeRelation::try_store(
            &mut pool,
            tree.clone(),
            300,
            layout,
            cluster,
            CodecMode::Exact,
        )
        .expect("no injector is armed");
        let mut reads = Vec::new();
        for order in [TraversalOrder::BreadthFirst, TraversalOrder::DepthFirst] {
            pool.clear();
            pool.reset_stats();
            let run = tree_select(&mut pool, &rel, &probe, theta, order)
                .expect("in-memory disk cannot fault");
            reads.push((run.stats.physical_reads, run.matches.len()));
        }
        assert_eq!(
            reads[0].1, reads[1].1,
            "both traversals find the same matches"
        );
        println!("{label:>28} {:>14} {:>14}", reads[0].0, reads[1].0);
    }
    println!("\n(Matching the traversal to the clustering minimizes page reads;");
    println!(" with random placement the choice barely matters — exactly the");
    println!(" dependence §3.2 and §4.1 describe.)");
}
