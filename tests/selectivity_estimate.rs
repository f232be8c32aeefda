//! The selectivity `Auto` prices, on the end-to-end benchmark's data
//! shapes: uniform R against S in eight Gaussian clusters (σ = 40) over a
//! 1000² world — 36 000 points against 12 000 rectangles under
//! `WithinDistance(5)` (`join_mbr`, p ≈ 2e-4), and 9 000 against 3 000
//! polygons under `Overlaps` (`join_poly`, p ≈ 1e-3). At these p, 64
//! random tuple *pairs* almost never hold a match, so a pair sampler
//! prices p̂ = 0 and the model then prices the join index at nothing.
//! The estimator instead counts each sampled R tuple's matches in all of
//! S, which lands within [0.5, 2]× the exact p on every seed at the
//! service's default sample count, on the cold pool a request runs on.

use spatial_joins::core::workload::{generate, GeometryKind, Placement, WorkloadSpec};
use spatial_joins::geom::{theta_join, Geometry, Rect, ThetaOp};
use spatial_joins::joins::advisor::try_estimate_selectivity;
use spatial_joins::joins::StoredRelation;
use spatial_joins::service::ServiceConfig;
use spatial_joins::storage::{BufferPool, Disk, DiskConfig, Layout};

type Tuples = Vec<(u64, Geometry)>;

/// `join_mbr`'s shape (`poly = false`) or `join_poly`'s, and its θ.
fn shape(poly: bool, seed: u64) -> (Tuples, Tuples, ThetaOp) {
    let spec = |count, kind, placement, max_extent, seed| WorkloadSpec {
        count,
        world: Rect::from_bounds(0.0, 0.0, 1000.0, 1000.0),
        kind,
        placement,
        max_extent,
        seed,
    };
    let clusters = Placement::Clustered {
        clusters: 8,
        sigma: 40.0,
    };
    let (r_kind, s_kind, extent, (r_n, s_n), theta) = if poly {
        let kind = GeometryKind::Polygon;
        (kind, kind, 28.0, (9_000, 3_000), ThetaOp::Overlaps)
    } else {
        let within = ThetaOp::WithinDistance(5.0);
        (
            GeometryKind::Point,
            GeometryKind::Rect,
            12.0,
            (36_000, 12_000),
            within,
        )
    };
    let r = generate(&spec(r_n, r_kind, Placement::Uniform, extent, seed), 0);
    let s = generate(
        &spec(s_n, s_kind, clusters, extent, seed + 1_000),
        1_000_000,
    );
    (r, s, theta)
}

/// Every data seed's p̂ at the service's defaults against the exact p.
fn assert_within_a_factor_of_two(poly: bool) {
    let config = ServiceConfig::default();
    for seed in 1..=20 {
        let (r, s, theta) = shape(poly, seed);
        let pairs = theta_join(&r, &s, theta).len();
        let exact = pairs as f64 / (r.len() * s.len()) as f64;
        let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 256);
        let r = StoredRelation::build(&mut pool, &r, config.record_size, Layout::Clustered);
        let s = StoredRelation::build(&mut pool, &s, config.record_size, Layout::Clustered);
        let mut cold = pool.fork_view(config.shard_capacity);
        let samples = config.selectivity_samples;
        let p_hat =
            try_estimate_selectivity(&mut cold, &r, &s, theta, samples, config.seed).unwrap();
        assert!(
            (0.5..=2.0).contains(&(p_hat / exact)),
            "{theta:?}, data seed {seed}: p̂ = {p_hat:.3e} against p = {exact:.3e}"
        );
    }
}

#[test]
fn estimate_is_within_a_factor_of_two_on_the_join_mbr_shape() {
    assert_within_a_factor_of_two(false);
}

#[test]
fn estimate_is_within_a_factor_of_two_on_the_join_poly_shape() {
    assert_within_a_factor_of_two(true);
}
