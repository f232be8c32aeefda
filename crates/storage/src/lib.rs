//! # sj-storage — paged storage simulator with exact I/O accounting
//!
//! Günther's cost model (ICDE 1993, §4.1) charges `C_IO` per disk-page
//! access against a database stored on pages of size `s` bytes with average
//! space utilization `l`, accessed through a main memory of `M` pages.
//! This crate simulates exactly that environment:
//!
//! * [`Disk`] — an array of byte-capacity [`Page`]s with physical-I/O
//!   counters,
//! * [`BufferPool`] — an LRU page cache of configurable capacity (the
//!   model's `M`); only misses reach the disk counters,
//! * [`HeapFile`] — a record file with *clustered* or *unclustered*
//!   placement ([`Layout`]), the distinction between the paper's
//!   strategies IIa and IIb,
//! * [`IoStats`] — the measurement interface every join-strategy executor
//!   reports through,
//! * [`CowVec`] — the copy-on-write chunked vector under the page table,
//!   the heap-file directories and, in the crates above, every other array
//!   a snapshot shares with its successor ([`IdMap`]: id directories).
//!
//! Every paged operation has one shape: fallible (`try_*`, returning
//! [`StorageError`]) and charged through the pool. There is no panicking
//! twin — a caller that knows no [`FaultInjector`] is armed unwraps at its
//! own edge.
//!
//! The simulator models a single query stream per pool, which is what lets
//! the test-suite compare measured I/O counts against the analytic
//! formulas. For the serving layer's workers and commits,
//! [`Disk::read_view`] and [`BufferPool::fork_view`] hand out a private
//! pool shard over a copy-on-write snapshot of the disk (the page table
//! is shared until a side writes — and then chunk by chunk — so a fork is
//! O(1); a buffer frame holds a page id and `try_read_record` lends the
//! disk view's bytes, so no read copies any). Shards start with zeroed
//! [`IoStats`], combined via `merge`/`+=`.
//!
//! ## Example
//!
//! ```
//! use sj_storage::{BufferPool, Disk, DiskConfig, HeapFile, Layout};
//!
//! // Pages of 2000 bytes at 75% utilization hold m = 5 records of 300 bytes
//! // (the paper's Table 3 parameters).
//! let config = DiskConfig { page_size: 2000, utilization: 0.75 };
//! let mut pool = BufferPool::new(Disk::new(config), 8);
//! let file = HeapFile::bulk_load(&mut pool, 300, 100, Layout::Clustered)?;
//! assert_eq!(file.records_per_page(), 5);
//! assert_eq!(file.page_count(), 20);
//!
//! // Scanning the whole file through a cold pool costs one read per page.
//! pool.reset_stats();
//! for i in 0..file.len() {
//!     pool.try_read_record(&file, file.rid(i))?;
//! }
//! assert_eq!(pool.stats().physical_reads, 20);
//! # Ok::<(), sj_storage::StorageError>(())
//! ```

pub mod buffer;
pub mod cow;
pub mod disk;
pub mod error;
pub mod fault;
pub mod hash;
pub mod heap;
pub mod page;
pub mod stats;
pub mod wal;

pub use buffer::BufferPool;
pub use cow::{CowVec, IdMap};
pub use disk::{Disk, DiskConfig};
pub use error::StorageError;
pub use fault::{FaultConfig, FaultEvent, FaultInjector, FaultOp};
pub use heap::{HeapFile, Layout, RecordId};
pub use page::{Page, PageId};
pub use stats::IoStats;
pub use wal::WriteAheadLog;
