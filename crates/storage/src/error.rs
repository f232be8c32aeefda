//! The storage layer's typed error taxonomy.
//!
//! Günther's cost model (§4.1) treats the disk as an infallible page
//! server; a production-shaped server cannot. Every exceptional storage
//! path that used to unwind now surfaces one of these variants, so a
//! fault *stops* the failing operation with a typed error instead of
//! unwinding through (and poisoning) whatever locks the caller holds —
//! fail-stop, never fail-wrong.

use crate::fault::FaultOp;
use crate::page::PageId;

/// A typed storage fault. `Clone + PartialEq + Eq` so replies and
/// rejections carrying errors stay comparable in tests and ledgers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StorageError {
    /// Page allocation failed: the disk's page-id space (or an explicit
    /// page limit) is exhausted.
    DiskFull,
    /// A page id referenced storage that does not exist — the on-disk
    /// image is structurally inconsistent.
    PageCorrupt {
        /// The page that could not be resolved.
        page: PageId,
    },
    /// A record id pointed at a missing or emptied slot (e.g. a stale rid
    /// probed after an update).
    DanglingRecord {
        /// Page of the dangling record id.
        page: PageId,
        /// Slot of the dangling record id.
        slot: u16,
    },
    /// A deterministic fault injected by [`crate::FaultInjector`] — the
    /// simulator's stand-in for a failed physical I/O.
    InjectedFault {
        /// The faulted operation class.
        op: FaultOp,
        /// The page the operation targeted.
        page: PageId,
    },
    /// A write-ahead-log image failed structural validation during
    /// recovery (bad magic, truncated frame, or checksum mismatch) —
    /// recovery stops rather than replaying a possibly-wrong history.
    WalCorrupt {
        /// Byte offset of the first frame that failed validation.
        offset: usize,
        /// What the validator rejected.
        reason: &'static str,
    },
    /// A log that does not continue a checkpoint image: it starts after
    /// the image's LSN (records are missing) or ends before it (older).
    LogGap {
        /// The last LSN the image covers.
        image_lsn: u64,
        /// The LSN the log's durable history starts after.
        log_base: u64,
        /// The LSN of the log's last sync marker.
        log_end: u64,
    },
    /// Any other I/O-shaped failure, with a human-readable reason.
    Io(String),
}

impl StorageError {
    /// Stable lowercase kind name, used in metrics and trace spans.
    pub fn kind(&self) -> &'static str {
        match self {
            StorageError::DiskFull => "disk_full",
            StorageError::PageCorrupt { .. } => "page_corrupt",
            StorageError::DanglingRecord { .. } => "dangling_record",
            StorageError::InjectedFault { .. } => "injected_fault",
            StorageError::WalCorrupt { .. } => "wal_corrupt",
            StorageError::LogGap { .. } => "log_gap",
            StorageError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::DiskFull => write!(f, "disk full: page-id space exhausted"),
            StorageError::PageCorrupt { page } => {
                write!(f, "page {page:?} is corrupt or does not exist")
            }
            StorageError::DanglingRecord { page, slot } => {
                write!(f, "dangling record id at page {page:?} slot {slot}")
            }
            StorageError::InjectedFault { op, page } => {
                write!(f, "injected {} fault on page {page:?}", op.name())
            }
            StorageError::WalCorrupt { offset, reason } => {
                write!(f, "write-ahead log corrupt at byte {offset}: {reason}")
            }
            StorageError::LogGap { .. } => write!(f, "log does not continue the image: {self:?}"),
            StorageError::Io(msg) => write!(f, "storage i/o error: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_kind_are_stable() {
        let cases: Vec<(StorageError, &str)> = vec![
            (StorageError::DiskFull, "disk_full"),
            (
                StorageError::PageCorrupt { page: PageId(3) },
                "page_corrupt",
            ),
            (
                StorageError::DanglingRecord {
                    page: PageId(1),
                    slot: 4,
                },
                "dangling_record",
            ),
            (
                StorageError::InjectedFault {
                    op: FaultOp::Read,
                    page: PageId(9),
                },
                "injected_fault",
            ),
            (
                StorageError::WalCorrupt {
                    offset: 8,
                    reason: "checksum mismatch",
                },
                "wal_corrupt",
            ),
            (
                StorageError::LogGap {
                    image_lsn: 4,
                    log_base: 6,
                    log_end: 8,
                },
                "log_gap",
            ),
            (StorageError::Io("boom".into()), "io"),
        ];
        for (err, kind) in cases {
            assert_eq!(err.kind(), kind);
            assert!(!err.to_string().is_empty());
            assert_eq!(err.clone(), err);
        }
    }
}
