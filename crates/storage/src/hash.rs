//! One multiplicative hash for the small integer keys this program makes
//! itself and looks up per page touch and per candidate ([`crate::PageId`]s,
//! record positions). Not for keys from outside: unlike the default
//! SipHash it does nothing against crafted collisions.

use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci hashing: one multiply by 2⁶⁴/φ per integer written.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

/// [`std::collections::HashMap`]'s third parameter for integer-keyed maps.
pub type IntHashBuilder = BuildHasherDefault<IntHasher>;

impl Hasher for IntHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    /// Any other key shape: correct, byte by byte, not the fast path.
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    /// A multiply mixes upward only and the table takes its bucket from
    /// the low bits: swap the halves so strided keys spread too.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageId;
    use std::collections::HashMap;
    use std::hash::{BuildHasher, Hash};

    /// Largest number of keys sharing one of 2²⁰ buckets, taken from the
    /// low bits as the standard table does — the probe length's bound.
    fn worst_bucket(keys: impl Iterator<Item = u32>) -> u32 {
        let mut load = vec![0u32; 1 << 20];
        for k in keys {
            let bucket = IntHashBuilder::default().hash_one(k) as usize & ((1 << 20) - 1);
            load[bucket] += 1;
        }
        load.into_iter().max().unwrap()
    }

    #[test]
    fn sequential_and_strided_keys_do_not_degenerate() {
        const N: u32 = 1_000_000;
        for stride in [1u32, 5, 1 << 10] {
            let keys = || (0..N).map(move |i| i * stride);
            assert!(
                worst_bucket(keys()) <= 8,
                "stride {stride} piles {} keys on one bucket",
                worst_bucket(keys())
            );
            // …and the real table inserts and probes them all.
            let mut map: HashMap<u32, u32, IntHashBuilder> = HashMap::default();
            map.extend(keys().map(|k| (k, !k)));
            assert_eq!(map.len(), N as usize);
            assert!(keys().all(|k| map.get(&k) == Some(&!k)));
            assert_eq!(map.get(&(N * stride + 1)), None);
        }
    }

    #[test]
    fn page_id_hashes_through_write_u32() {
        /// Records which `Hasher` entry point a key reaches.
        #[derive(Default)]
        struct Spy {
            u32_writes: Vec<u32>,
            byte_writes: usize,
        }
        impl Hasher for Spy {
            fn write(&mut self, _: &[u8]) {
                self.byte_writes += 1;
            }
            fn write_u32(&mut self, n: u32) {
                self.u32_writes.push(n);
            }
            fn finish(&self) -> u64 {
                0
            }
        }
        let mut spy = Spy::default();
        PageId(77).hash(&mut spy);
        assert_eq!((spy.u32_writes, spy.byte_writes), (vec![77], 0));
        // The one-multiply path and the generic path are both usable.
        let one = |k: u32| IntHashBuilder::default().hash_one(k);
        assert_ne!(one(1), one(2));
        assert_ne!(
            IntHashBuilder::default().hash_one([1u8, 2]),
            IntHashBuilder::default().hash_one([2u8, 1])
        );
    }
}
