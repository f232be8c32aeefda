//! The database's typed error.

use std::fmt;

use sj_storage::StorageError;

/// What every [`Database`](crate::Database) call that touches pages or
/// names a table or column returns.
pub type Result<T, E = DbError> = std::result::Result<T, E>;

/// Why a [`Database`](crate::Database) call gave no answer. Every variant
/// but [`DbError::Poisoned`] leaves the database as it was before the
/// call.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// A storage fault, and the step it stopped.
    Storage {
        during: &'static str,
        error: StorageError,
    },
    /// No table of this name.
    UnknownTable(String),
    /// No column of this name (`table.column` when the table is known).
    UnknownColumn(String),
    /// A row, projection, table or index definition the schema or the
    /// disk cannot hold.
    SchemaMismatch(String),
    /// A stored row that does not decode.
    Corrupt(String),
    /// An earlier `apply` faulted after part of its batch had landed, so
    /// the row file and the spatial column files may disagree: every
    /// call from then on returns this.
    Poisoned,
}

impl DbError {
    /// Wraps a storage fault that stopped `during`.
    pub(crate) fn during(during: &'static str) -> impl Fn(StorageError) -> DbError {
        move |error| DbError::Storage { during, error }
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Storage { during, error } => write!(f, "{during}: {error}"),
            DbError::UnknownTable(t) => write!(f, "no table named {t:?}"),
            DbError::UnknownColumn(c) => write!(f, "no column named {c:?}"),
            DbError::SchemaMismatch(why) => write!(f, "schema mismatch: {why}"),
            DbError::Corrupt(why) => write!(f, "corrupt stored row: {why}"),
            DbError::Poisoned => write!(f, "database poisoned by a half-applied batch"),
        }
    }
}

impl std::error::Error for DbError {}
