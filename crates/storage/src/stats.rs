//! I/O and computation counters — the measurement units of the cost model.

/// Counters for the quantities the paper's cost model prices:
/// physical page I/O (`C_IO` each) and record accesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages fetched from disk (buffer-pool misses).
    pub physical_reads: u64,
    /// Pages written back to disk.
    pub physical_writes: u64,
    /// Page requests served from the buffer pool (hits + misses).
    pub logical_reads: u64,
}

impl IoStats {
    /// Buffer-pool hits.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.logical_reads - self.physical_reads
    }

    /// Total physical page transfers in either direction.
    #[inline]
    pub fn physical_total(&self) -> u64 {
        self.physical_reads + self.physical_writes
    }

    /// Component-wise difference `self - earlier`, for windowed measurement.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            physical_reads: self.physical_reads - earlier.physical_reads,
            physical_writes: self.physical_writes - earlier.physical_writes,
            logical_reads: self.logical_reads - earlier.logical_reads,
        }
    }

    /// Folds another counter set into this one (alias for `+=`, usable in
    /// iterator folds without importing the operator trait).
    pub fn merge(&mut self, other: &IoStats) {
        *self += *other;
    }
}

/// Component-wise accumulation, the merge operation for per-shard
/// counters.
impl std::ops::AddAssign for IoStats {
    fn add_assign(&mut self, rhs: IoStats) {
        self.physical_reads += rhs.physical_reads;
        self.physical_writes += rhs.physical_writes;
        self.logical_reads += rhs.logical_reads;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_totals() {
        let s = IoStats {
            physical_reads: 3,
            physical_writes: 2,
            logical_reads: 10,
        };
        assert_eq!(s.hits(), 7);
        assert_eq!(s.physical_total(), 5);
    }

    #[test]
    fn add_assign_is_field_wise_sum() {
        let mut a = IoStats {
            physical_reads: 3,
            physical_writes: 2,
            logical_reads: 10,
        };
        let b = IoStats {
            physical_reads: 5,
            physical_writes: 1,
            logical_reads: 20,
        };
        a += b;
        assert_eq!(
            a,
            IoStats {
                physical_reads: 8,
                physical_writes: 3,
                logical_reads: 30,
            }
        );
        let mut c = IoStats::default();
        c.merge(&a);
        c.merge(&b);
        assert_eq!(c.physical_reads, 13);
        assert_eq!(c.physical_writes, 4);
        assert_eq!(c.logical_reads, 50);
    }

    #[test]
    fn since_subtracts() {
        let a = IoStats {
            physical_reads: 1,
            physical_writes: 1,
            logical_reads: 2,
        };
        let b = IoStats {
            physical_reads: 4,
            physical_writes: 1,
            logical_reads: 9,
        };
        assert_eq!(
            b.since(&a),
            IoStats {
                physical_reads: 3,
                physical_writes: 0,
                logical_reads: 7,
            }
        );
    }
}
