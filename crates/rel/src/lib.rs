//! # sj-rel — a minimal extended-relational substrate
//!
//! The paper frames spatial joins inside "a relational data model that is
//! extended by spatial data types and operators" (§1, citing POSTGRES and
//! DASDBS). This crate provides exactly that frame:
//!
//! * typed schemas with scalar **and spatial** columns ([`Schema`],
//!   [`Value`]),
//! * disk-backed tables of tuple records in fixed-width slots ([`Database`]),
//! * per spatial column one maintained side (a column file and an R-tree
//!   generalization tree, [`sj_joins::IndexedRelation`]),
//! * the query operators the paper's examples need — scalar selection,
//!   projection, **spatial selection** in a [`TraversalOrder`] and
//!   **spatial join** under any [`Strategy`] of `sj-joins`.
//!
//! Every call that touches pages or names a table or column answers
//! exactly or returns a typed [`DbError`].
//!
//! ## The paper's running example
//!
//! ```
//! use sj_geom::{Geometry, Point, Polygon, Rect, ThetaOp};
//! use sj_rel::{Column, Database, Schema, Strategy, Value, ValueType};
//!
//! let (int, float, spatial) = (ValueType::Int, ValueType::Float, ValueType::Spatial);
//! let mut db = Database::in_memory();
//! let cols = [("hid", int), ("hprice", float), ("hlocation", spatial)];
//! db.create_table("house", Schema::new(cols.map(|(n, t)| Column::new(n, t)).into()), 300)?;
//! let home = Value::Spatial(Geometry::Point(Point::new(3.0, 4.0)));
//! db.insert("house", vec![Value::Int(1), Value::Float(250_000.0), home])?;
//! let cols = [("lid", int), ("name", ValueType::Str), ("larea", spatial)];
//! db.create_table("lake", Schema::new(cols.map(|(n, t)| Column::new(n, t)).into()), 300)?;
//! let tahoe = Polygon::from_rect(&Rect::from_bounds(0.0, 0.0, 2.0, 2.0))?;
//! let (name, area) = (Value::Str("Lake Tahoe".into()), Geometry::Polygon(tahoe));
//! db.insert("lake", vec![Value::Int(10), name, Value::Spatial(area)])?;
//!
//! // "Find all houses within 10 kilometers from a lake."
//! let theta = ThetaOp::WithinDistance(10.0);
//! let pairs = db.spatial_join("house", "hlocation", "lake", "larea", theta, Strategy::NestedLoop)?;
//! assert_eq!(pairs.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod db;
pub mod error;
pub mod persist;
pub mod planner;
pub mod query;
pub mod schema;
pub mod tuple;
pub mod value;

pub use db::Database;
pub use error::DbError;
pub use planner::PlannerConfig;
pub use schema::{Column, Schema};
pub use sj_joins::tree_join::TraversalOrder;
pub use sj_joins::{Mutation, MutationOutcome, Strategy, WriteBatch};
pub use tuple::Tuple;
pub use value::{Value, ValueType};
