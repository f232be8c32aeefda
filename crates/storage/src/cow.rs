//! A copy-on-write chunked vector: the container under every array a
//! snapshot shares with its successor (the tree arena, the flat child
//! view, the heap-file directories, the page table, the id directories).
//!
//! Elements live in full chunks of `CHUNK` (a power of two) behind one
//! [`Arc`] each, reached through a spine `Vec`; the last, partial chunk
//! is a plain private `Vec`, so building by `push` costs what a `Vec`
//! costs. A [`Clone`] copies the spine — one pointer and one reference
//! count per chunk — and the partial chunk, and a write copies only the
//! chunk it lands in, and only while that chunk is still shared. A commit
//! that writes 118 of 22 000 slots so pays for the few dozen chunks
//! holding them, not for the array.

use std::collections::HashMap;
use std::ops::Index;
use std::sync::Arc;

/// A growable array of `T` in [`Arc`]-shared chunks of `CHUNK` elements.
/// Append-only in length; any element may be overwritten.
#[derive(Debug, Clone)]
pub struct CowVec<T, const CHUNK: usize> {
    /// The full chunks, each exactly `CHUNK` long, shared with clones.
    spine: Vec<Arc<[T]>>,
    /// The elements after the last full chunk: fewer than `CHUNK`.
    tail: Vec<T>,
}

impl<T, const CHUNK: usize> CowVec<T, CHUNK> {
    const SHIFT: u32 = {
        assert!(CHUNK.is_power_of_two(), "chunk size must be a power of two");
        CHUNK.trailing_zeros()
    };

    /// An empty vector.
    pub fn new() -> Self {
        CowVec {
            spine: Vec::new(),
            tail: Vec::new(),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        (self.spine.len() << Self::SHIFT) + self.tail.len()
    }

    /// True if no element has been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spine.is_empty() && self.tail.is_empty()
    }

    /// The element at `i`, or `None` past the end: one shift and one mask
    /// on top of a `Vec`'s indexation.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        match self.spine.get(i >> Self::SHIFT) {
            Some(chunk) => chunk.get(i & (CHUNK - 1)),
            None => self.tail.get(i - (self.spine.len() << Self::SHIFT)),
        }
    }

    /// The last element, if any.
    pub fn last(&self) -> Option<&T> {
        self.get(self.len().wrapping_sub(1))
    }

    /// The elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.spine.iter().flat_map(|c| c.iter()).chain(&self.tail)
    }

    /// Appends `value`; a chunk it fills moves behind its own `Arc`.
    pub fn push(&mut self, value: T) {
        self.tail.push(value);
        if self.tail.len() == CHUNK {
            self.spine.push(self.tail.drain(..).collect());
        }
    }

    /// Chunks of `self` that a clone taken at `since` does not share:
    /// full chunks that are not the same allocation as the chunk at the
    /// same place in `since`, plus the partial chunk, which is always a
    /// private copy — what the writes between the two copied.
    pub fn copied_chunks(&self, since: &Self) -> usize {
        let shared = self.spine.iter().zip(&since.spine);
        self.spine.len() - shared.filter(|(a, b)| Arc::ptr_eq(a, b)).count()
            + usize::from(!self.tail.is_empty())
    }
}

impl<T: Clone, const CHUNK: usize> CowVec<T, CHUNK> {
    /// The element at `i` for writing; copies its chunk first if a clone
    /// of this vector still shares it.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        let full = self.spine.len() << Self::SHIFT;
        match self.spine.get_mut(i >> Self::SHIFT) {
            Some(chunk) => &mut Arc::make_mut(chunk)[i & (CHUNK - 1)],
            None => &mut self.tail[i - full],
        }
    }
}

impl<T, const CHUNK: usize> Default for CowVec<T, CHUNK> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const CHUNK: usize> Index<usize> for CowVec<T, CHUNK> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        match self.spine.get(i >> Self::SHIFT) {
            Some(chunk) => &chunk[i & (CHUNK - 1)],
            None => &self.tail[i - (self.spine.len() << Self::SHIFT)],
        }
    }
}

impl<T, const CHUNK: usize> FromIterator<T> for CowVec<T, CHUNK> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = CowVec::new();
        iter.into_iter().for_each(|value| out.push(value));
        out
    }
}

/// A `u64` id → `V` directory in 256 copy-on-write shards, chosen by a
/// multiplicative hash of the id: a clone shares every shard and a write
/// copies the one it lands in (1/256 of the entries), where one `HashMap`
/// would be copied whole by a snapshot's first write.
#[derive(Debug, Clone)]
pub struct IdMap<V> {
    shards: CowVec<HashMap<u64, V>, 1>,
    len: usize,
}

impl<V: Clone> IdMap<V> {
    /// An empty directory.
    pub fn new() -> Self {
        std::iter::empty().collect()
    }

    fn shard(id: u64) -> usize {
        (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no id is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value under `id`.
    pub fn get(&self, id: u64) -> Option<&V> {
        self.shards[Self::shard(id)].get(&id)
    }

    /// Stores `value` under `id`, returning what it replaces.
    pub fn insert(&mut self, id: u64, value: V) -> Option<V> {
        let old = self.shards.get_mut(Self::shard(id)).insert(id, value);
        self.len += usize::from(old.is_none());
        old
    }

    /// Removes `id`, returning its value; an absent id copies nothing.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        self.get(id)?;
        self.len -= 1;
        self.shards.get_mut(Self::shard(id)).remove(&id)
    }

    /// Every `(id, value)`, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.shards.iter().flatten().map(|(&id, v)| (id, v))
    }
}

impl<V: Clone> Default for IdMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone> FromIterator<(u64, V)> for IdMap<V> {
    /// A later pair replaces an earlier one with the same id.
    fn from_iter<I: IntoIterator<Item = (u64, V)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        // Sized for an even spread plus a quarter, so a bulk load rehashes
        // few shards.
        let per_shard = iter.size_hint().0 / 256 * 5 / 4;
        let mut shards = vec![HashMap::with_capacity(per_shard); 256];
        for (id, value) in iter {
            shards[Self::shard(id)].insert(id, value);
        }
        IdMap {
            len: shards.iter().map(HashMap::len).sum(),
            shards: shards.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_what_was_pushed_across_chunk_edges() {
        for n in [0usize, 1, 3, 4, 5, 8, 9] {
            let v: CowVec<usize, 4> = (0..n).collect();
            assert_eq!((v.len(), v.is_empty()), (n, n == 0));
            assert_eq!(
                v.iter().copied().collect::<Vec<_>>(),
                (0..n).collect::<Vec<_>>()
            );
            assert_eq!(v.last().copied(), n.checked_sub(1));
            assert_eq!((v.get(n), v.get(n + 64)), (None, None));
            assert!((0..n).all(|i| v[i] == i));
        }
    }

    #[test]
    fn a_write_copies_the_one_chunk_it_lands_in() {
        let parent: CowVec<u32, 4> = (0..10).collect();
        let mut child = parent.clone();
        assert_eq!(child.copied_chunks(&parent), 1, "the partial chunk only");
        *child.get_mut(5) = 50;
        *child.get_mut(6) = 60; // same chunk: already private
        assert_eq!(child.copied_chunks(&parent), 2);
        assert_eq!((parent[5], child[5], child[6]), (5, 50, 60));
        *child.get_mut(9) = 90; // the partial chunk is private from the start
        child.push(10);
        child.push(11); // fills the third chunk
        child.push(12);
        assert_eq!(child.copied_chunks(&parent), 3);
        assert_eq!(
            (parent.len(), child.len(), parent[9], child[9]),
            (10, 13, 9, 90)
        );
        assert_eq!(parent.get(10), None);
        // A vector nobody shares with writes in place.
        drop(parent);
        let before = Arc::as_ptr(&child.spine[0]);
        *child.get_mut(0) = 7;
        assert_eq!(Arc::as_ptr(&child.spine[0]), before);
    }

    #[test]
    fn id_map_is_a_map_whose_clone_shares_untouched_shards() {
        let mut parent = IdMap::new();
        for id in 0..1000u64 {
            assert_eq!(parent.insert(id * 7, id), None);
        }
        assert_eq!(parent.insert(7, 100), Some(1));
        assert_eq!(
            (parent.len(), parent.get(7), parent.get(8)),
            (1000, Some(&100), None)
        );
        let mut child = parent.clone();
        assert_eq!(child.remove(8), None);
        assert_eq!(
            child.shards.copied_chunks(&parent.shards),
            0,
            "a miss copies nothing"
        );
        assert_eq!(child.remove(14), Some(2));
        child.insert(5, 55);
        assert!(child.shards.copied_chunks(&parent.shards) <= 2);
        assert_eq!(
            (parent.get(14), child.get(14), child.len()),
            (Some(&2), None, 1000)
        );
        let mut all: Vec<u64> = child.iter().map(|(id, _)| id).collect();
        all.sort_unstable();
        assert_eq!(all.len(), 1000);
        assert!(all.contains(&5) && !all.contains(&14));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_past_the_end_panics() {
        let v: CowVec<u8, 8> = (0..11).collect();
        let _ = v[11];
    }
}
