//! Table schemas.

use crate::error::{DbError, Result};
use crate::value::{Value, ValueType};

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub ty: ValueType,
}

impl Column {
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Creates a schema.
    ///
    /// # Panics
    ///
    /// Panics on duplicate column names or an empty column list.
    pub fn new(columns: Vec<Column>) -> Self {
        assert!(!columns.is_empty(), "a schema needs at least one column");
        for (i, c) in columns.iter().enumerate() {
            assert!(
                !columns[..i].iter().any(|d| d.name == c.name),
                "duplicate column name {:?}",
                c.name
            );
        }
        Schema { columns }
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The position of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The position of a column, or [`DbError::UnknownColumn`].
    pub fn column(&self, name: &str) -> Result<usize> {
        let found = self.index_of(name);
        found.ok_or_else(|| DbError::UnknownColumn(name.into()))
    }

    /// All column names.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Validates a row against the schema: a
    /// [`DbError::SchemaMismatch`] on an arity or type mismatch.
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            let (got, want) = (row.len(), self.columns.len());
            let why = format!("row arity {got} does not match schema arity {want}");
            return Err(DbError::SchemaMismatch(why));
        }
        for (v, c) in row.iter().zip(&self.columns) {
            let (name, want, got) = (&c.name, c.ty, v.value_type());
            if got != want {
                let why =
                    format!("type mismatch in column {name:?}: expected {want:?}, got {got:?}");
                return Err(DbError::SchemaMismatch(why));
            }
        }
        Ok(())
    }

    /// Restriction of the schema to the named columns (projection): a
    /// [`DbError::UnknownColumn`] for a name it lacks, a
    /// [`DbError::SchemaMismatch`] for no names or a repeated one.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        if names.is_empty() || (1..names.len()).any(|i| names[..i].contains(&names[i])) {
            let why = format!("a projection needs distinct columns, got {names:?}");
            return Err(DbError::SchemaMismatch(why));
        }
        let columns = names
            .iter()
            .map(|n| Ok(self.columns[self.column(n)?].clone()));
        Ok(Schema::new(columns.collect::<Result<_>>()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geom::{Geometry, Point};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", ValueType::Int),
            Column::new("name", ValueType::Str),
            Column::new("loc", ValueType::Spatial),
        ])
    }

    #[test]
    fn lookup_and_names() {
        let s = schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.index_of("name"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.names(), vec!["id", "name", "loc"]);
    }

    #[test]
    fn check_row_accepts_valid() {
        let row = [
            Value::Int(1),
            Value::Str("a".into()),
            Value::Spatial(Geometry::Point(Point::new(0.0, 0.0))),
        ];
        assert_eq!(schema().check_row(&row), Ok(()));
    }

    #[test]
    fn check_row_rejects_wrong_type() {
        let row = [
            Value::Int(1),
            Value::Int(2),
            Value::Spatial(Geometry::Point(Point::new(0.0, 0.0))),
        ];
        let err = schema().check_row(&row).unwrap_err();
        assert!(matches!(&err, DbError::SchemaMismatch(m) if m.contains("type mismatch")));
    }

    #[test]
    fn check_row_rejects_wrong_arity() {
        let err = schema().check_row(&[Value::Int(1)]).unwrap_err();
        assert!(matches!(&err, DbError::SchemaMismatch(m) if m.contains("arity")));
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_names_rejected() {
        Schema::new(vec![
            Column::new("x", ValueType::Int),
            Column::new("x", ValueType::Int),
        ]);
    }

    #[test]
    fn projection() {
        let p = schema().project(&["loc", "id"]).unwrap();
        assert_eq!(p.names(), vec!["loc", "id"]);
        assert_eq!(p.columns()[0].ty, ValueType::Spatial);
        let missing = schema().project(&["loc", "nope"]);
        assert_eq!(missing.unwrap_err(), DbError::UnknownColumn("nope".into()));
        let twice = schema().project(&["id", "id"]);
        assert!(matches!(twice, Err(DbError::SchemaMismatch(_))));
    }
}
