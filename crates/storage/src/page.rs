//! Fixed-capacity slotted pages.

/// Identifier of a page on the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A slotted page holding variable-length byte records up to an *effective*
/// byte capacity (page size × utilization, per the model's `l` parameter).
#[derive(Debug, Clone)]
pub struct Page {
    capacity: usize,
    used: usize,
    slots: Vec<Vec<u8>>,
}

impl Page {
    /// Creates an empty page with the given effective byte capacity.
    pub fn new(capacity: usize) -> Self {
        Page {
            capacity,
            used: 0,
            slots: Vec::new(),
        }
    }

    /// Effective byte capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently used by records.
    #[inline]
    pub fn used(&self) -> usize {
        self.used
    }

    /// Remaining byte capacity.
    #[inline]
    pub fn free(&self) -> usize {
        self.capacity - self.used
    }

    /// Number of record slots (including none — slots are append-only here;
    /// deleted records leave empty slots to keep record ids stable).
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// True if a record of `len` bytes fits.
    #[inline]
    pub fn fits(&self, len: usize) -> bool {
        self.used + len <= self.capacity
    }

    /// Appends a record, returning its slot number.
    ///
    /// # Panics
    ///
    /// Panics if the record does not fit; callers must check [`Page::fits`].
    pub fn push(&mut self, record: Vec<u8>) -> u16 {
        assert!(
            self.fits(record.len()),
            "record of {} bytes does not fit in page with {} free bytes",
            record.len(),
            self.free()
        );
        self.used += record.len();
        self.slots.push(record);
        u16::try_from(self.slots.len() - 1).expect("slot count exceeds u16") // PANIC-OK: capacity bounds slots far below u16::MAX
    }

    /// Returns the record in `slot`, or `None` for an out-of-range or
    /// emptied slot.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        let r = self.slots.get(slot as usize)?;
        if r.is_empty() {
            None
        } else {
            Some(r.as_slice())
        }
    }

    /// Overwrites the record in `slot` with a same-or-smaller record.
    ///
    /// # Panics
    ///
    /// Panics if the slot does not exist or the new record is larger than
    /// the old one (in-place updates only).
    pub fn update(&mut self, slot: u16, record: Vec<u8>) {
        let old = &mut self.slots[slot as usize];
        assert!(
            record.len() <= old.len(),
            "in-place update must not grow the record"
        );
        self.used -= old.len() - record.len();
        *old = record;
    }

    /// Removes the record in `slot`, freeing its bytes. The slot itself
    /// remains (record ids stay stable).
    pub fn remove(&mut self, slot: u16) {
        if let Some(r) = self.slots.get_mut(slot as usize) {
            self.used -= r.len();
            r.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let mut p = Page::new(100);
        let s0 = p.push(vec![1, 2, 3]);
        let s1 = p.push(vec![4, 5]);
        assert_eq!(p.get(s0), Some(&[1u8, 2, 3][..]));
        assert_eq!(p.get(s1), Some(&[4u8, 5][..]));
        assert_eq!(p.used(), 5);
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut p = Page::new(10);
        assert!(p.fits(10));
        p.push(vec![0; 10]);
        assert!(!p.fits(1));
        assert_eq!(p.free(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overfull_push_panics() {
        let mut p = Page::new(4);
        p.push(vec![0; 5]);
    }

    #[test]
    fn remove_frees_bytes_keeps_slots() {
        let mut p = Page::new(100);
        let s0 = p.push(vec![1; 10]);
        let s1 = p.push(vec![2; 10]);
        p.remove(s0);
        assert_eq!(p.get(s0), None);
        assert_eq!(p.get(s1), Some(&[2u8; 10][..]));
        assert_eq!(p.used(), 10);
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn update_in_place() {
        let mut p = Page::new(100);
        let s = p.push(vec![9; 8]);
        p.update(s, vec![7; 4]);
        assert_eq!(p.get(s), Some(&[7u8; 4][..]));
        assert_eq!(p.used(), 4);
    }

    #[test]
    fn out_of_range_get_is_none() {
        let p = Page::new(10);
        assert_eq!(p.get(3), None);
    }
}
