//! Seeded synthetic workload generators.
//!
//! The paper evaluates analytically; to run the *executors* we need data.
//! These generators produce the standard synthetic spatial workloads
//! (uniform, Gaussian-clustered) plus the paper's own motivating scenario —
//! houses (points) and lakes (polygons) — with deterministic seeds so
//! every experiment is reproducible.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sj_geom::{Geometry, Point, Polygon, Polyline, Rect};
use sj_rel::{Column, Database, DbError, Schema, Value, ValueType};

/// Shape of generated geometries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryKind {
    Point,
    /// Axis-aligned rectangles with sides up to `max_extent`.
    Rect,
    /// Regular polygons (5–8 vertices) with circumradius up to
    /// `max_extent / 2`.
    Polygon,
    /// Open polylines (roads/rivers) of 3–6 segments, total span up to
    /// `max_extent`.
    Polyline,
}

/// Placement of generated geometries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// Uniform over the world rectangle.
    Uniform,
    /// A mixture of `clusters` Gaussian blobs with the given standard
    /// deviation (skewed data — the hard case for uniform grids).
    Clustered { clusters: usize, sigma: f64 },
}

/// A complete workload specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    pub count: usize,
    pub world: Rect,
    pub kind: GeometryKind,
    pub placement: Placement,
    /// Maximum object extent (ignored for points).
    pub max_extent: f64,
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            count: 1000,
            world: Rect::from_bounds(0.0, 0.0, 1000.0, 1000.0),
            kind: GeometryKind::Point,
            placement: Placement::Uniform,
            max_extent: 10.0,
            seed: 42,
        }
    }
}

/// Generates `(id, geometry)` tuples per the spec, ids starting at `id0`.
pub fn generate(spec: &WorkloadSpec, id0: u64) -> Vec<(u64, Geometry)> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let centers: Vec<Point> = match spec.placement {
        Placement::Uniform => Vec::new(),
        Placement::Clustered { clusters, .. } => (0..clusters.max(1))
            .map(|_| random_point(&mut rng, &spec.world))
            .collect(),
    };
    (0..spec.count)
        .map(|i| {
            let center = match spec.placement {
                Placement::Uniform => random_point(&mut rng, &spec.world),
                Placement::Clustered { sigma, .. } => {
                    let c = centers[rng.random_range(0..centers.len())];
                    // Box–Muller Gaussian displacement, clamped to world.
                    let (u1, u2): (f64, f64) =
                        (rng.random_range(1e-12..1.0), rng.random_range(0.0..1.0));
                    let r = sigma * (-2.0 * u1.ln()).sqrt();
                    let a = 2.0 * std::f64::consts::PI * u2;
                    Point::new(
                        (c.x + r * a.cos()).clamp(spec.world.lo.x, spec.world.hi.x),
                        (c.y + r * a.sin()).clamp(spec.world.lo.y, spec.world.hi.y),
                    )
                }
            };
            let g = match spec.kind {
                GeometryKind::Point => Geometry::Point(center),
                GeometryKind::Rect => {
                    let w = rng.random_range(0.01..spec.max_extent.max(0.02));
                    let h = rng.random_range(0.01..spec.max_extent.max(0.02));
                    let x0 = (center.x - w / 2.0).max(spec.world.lo.x);
                    let y0 = (center.y - h / 2.0).max(spec.world.lo.y);
                    let x1 = (x0 + w).min(spec.world.hi.x);
                    let y1 = (y0 + h).min(spec.world.hi.y);
                    Geometry::Rect(Rect::from_bounds(x0, y0, x1.max(x0), y1.max(y0)))
                }
                GeometryKind::Polyline => {
                    let segs = rng.random_range(3..=6);
                    let step = (spec.max_extent / segs as f64).max(0.02);
                    let mut pts = vec![center];
                    let mut cur = center;
                    for _ in 0..segs {
                        cur = Point::new(
                            (cur.x + rng.random_range(-step..step))
                                .clamp(spec.world.lo.x, spec.world.hi.x),
                            (cur.y + rng.random_range(-step..step))
                                .clamp(spec.world.lo.y, spec.world.hi.y),
                        );
                        pts.push(cur);
                    }
                    Geometry::Polyline(Polyline::new(pts).expect("≥2 vertices"))
                }
                GeometryKind::Polygon => {
                    let r = rng.random_range(0.05..(spec.max_extent / 2.0).max(0.1));
                    let sides = rng.random_range(5..=8);
                    // Keep the polygon inside the world by nudging the
                    // center inward.
                    let cx = center.x.clamp(spec.world.lo.x + r, spec.world.hi.x - r);
                    let cy = center.y.clamp(spec.world.lo.y + r, spec.world.hi.y - r);
                    Geometry::Polygon(Polygon::regular(Point::new(cx, cy), r, sides))
                }
            };
            (id0 + i as u64, g)
        })
        .collect()
}

fn random_point(rng: &mut StdRng, world: &Rect) -> Point {
    Point::new(
        rng.random_range(world.lo.x..=world.hi.x),
        rng.random_range(world.lo.y..=world.hi.y),
    )
}

/// Loads the paper's `house(hid, hprice, hlocation)` and
/// `lake(lid, name, larea)` relations into `db`, with `houses` point
/// locations and `lakes` polygonal areas in a 1000×1000 km world.
pub fn load_house_lake(
    db: &mut Database,
    houses: usize,
    lakes: usize,
    seed: u64,
) -> Result<(), DbError> {
    db.create_table(
        "house",
        Schema::new(vec![
            Column::new("hid", ValueType::Int),
            Column::new("hprice", ValueType::Float),
            Column::new("hlocation", ValueType::Spatial),
        ]),
        300,
    )?;
    db.create_table(
        "lake",
        Schema::new(vec![
            Column::new("lid", ValueType::Int),
            Column::new("name", ValueType::Str),
            Column::new("larea", ValueType::Spatial),
        ]),
        300,
    )?;
    let world = Rect::from_bounds(0.0, 0.0, 1000.0, 1000.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let house_geoms = generate(
        &WorkloadSpec {
            count: houses,
            world,
            kind: GeometryKind::Point,
            placement: Placement::Clustered {
                clusters: 8,
                sigma: 60.0,
            },
            max_extent: 0.0,
            seed,
        },
        0,
    );
    for (i, (_, g)) in house_geoms.into_iter().enumerate() {
        let price = rng.random_range(50_000.0..2_000_000.0f64);
        db.insert(
            "house",
            vec![Value::Int(i as i64), Value::Float(price), Value::Spatial(g)],
        )?;
    }
    let lake_geoms = generate(
        &WorkloadSpec {
            count: lakes,
            world,
            kind: GeometryKind::Polygon,
            placement: Placement::Uniform,
            max_extent: 80.0,
            seed: seed.wrapping_add(1),
        },
        0,
    );
    for (i, (_, g)) in lake_geoms.into_iter().enumerate() {
        db.insert(
            "lake",
            vec![
                Value::Int(i as i64),
                Value::Str(format!("Lake {i}")),
                Value::Spatial(g),
            ],
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geom::Bounded;

    #[test]
    fn generation_is_deterministic_and_sized() {
        let spec = WorkloadSpec::default();
        let a = generate(&spec, 0);
        let b = generate(&spec, 0);
        assert_eq!(a.len(), 1000);
        assert_eq!(a, b);
        let c = generate(&WorkloadSpec { seed: 43, ..spec }, 0);
        assert_ne!(a, c);
    }

    #[test]
    fn geometries_stay_in_world() {
        for kind in [
            GeometryKind::Point,
            GeometryKind::Rect,
            GeometryKind::Polygon,
        ] {
            for placement in [
                Placement::Uniform,
                Placement::Clustered {
                    clusters: 4,
                    sigma: 30.0,
                },
            ] {
                let spec = WorkloadSpec {
                    count: 200,
                    kind,
                    placement,
                    ..WorkloadSpec::default()
                };
                let world = spec.world.expand(1e-6);
                for (_, g) in generate(&spec, 0) {
                    assert!(
                        world.contains_rect(&g.mbr()),
                        "{kind:?}/{placement:?}: {g:?} escapes the world"
                    );
                }
            }
        }
    }

    #[test]
    fn clustered_placement_is_skewed() {
        // Clustered data should concentrate mass: the densest 10% of a
        // 10×10 histogram must hold far more than 10% of the points.
        let spec = WorkloadSpec {
            count: 2000,
            placement: Placement::Clustered {
                clusters: 3,
                sigma: 25.0,
            },
            ..WorkloadSpec::default()
        };
        let mut hist = [0usize; 100];
        for (_, g) in generate(&spec, 0) {
            let c = g.centerpoint();
            let cx = ((c.x / 100.0) as usize).min(9);
            let cy = ((c.y / 100.0) as usize).min(9);
            hist[cy * 10 + cx] += 1;
        }
        let mut sorted = hist;
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = sorted[..10].iter().sum();
        assert!(top10 > 2000 / 3, "top-10 cells hold only {top10} points");
    }

    #[test]
    fn house_lake_scenario_loads() {
        let mut db = Database::in_memory();
        load_house_lake(&mut db, 50, 4, 9).unwrap();
        assert_eq!(db.row_count("house"), Ok(50));
        assert_eq!(db.row_count("lake"), Ok(4));
        // Lakes are polygons, houses are points.
        let lake_row = db.get("lake", 0).unwrap().unwrap();
        assert!(matches!(lake_row[2], Value::Spatial(Geometry::Polygon(_))));
        let house_row = db.get("house", 0).unwrap().unwrap();
        assert!(matches!(house_row[2], Value::Spatial(Geometry::Point(_))));
    }
}
