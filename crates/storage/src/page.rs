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
///
/// The live records sit back to back in one byte buffer, in slot order,
/// each at its own length; a slot is an (offset, length) entry into that
/// buffer, and length 0 marks an emptied slot. A page is thus two
/// allocations whatever its record count, and copying it (a commit's
/// copy-on-write) is two `memcpy`s.
#[derive(Debug, Clone)]
pub struct Page {
    capacity: usize,
    /// The live records, back to back: `bytes.len()` is the bytes used.
    bytes: Vec<u8>,
    slots: Vec<Slot>,
}

/// Where a slot's record sits in [`Page::bytes`]. Offsets follow slot
/// order: slot `i` starts where slot `i - 1` ends.
#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: u32,
    len: u32,
}

impl Page {
    /// Creates an empty page with the given effective byte capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds `u32::MAX` (slot offsets are `u32`).
    pub fn new(capacity: usize) -> Self {
        assert!(
            u32::try_from(capacity).is_ok(),
            "page capacity {capacity} exceeds u32 offsets"
        );
        Page {
            capacity,
            bytes: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Effective byte capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently used by records: the sum of the live records'
    /// lengths.
    #[inline]
    pub fn used(&self) -> usize {
        self.bytes.len()
    }

    /// Remaining byte capacity.
    #[inline]
    pub fn free(&self) -> usize {
        self.capacity - self.used()
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
        self.used() + len <= self.capacity
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
        // Both fit in u32: they are at most the capacity (see `new`).
        let (offset, len) = (self.bytes.len() as u32, record.len() as u32);
        self.bytes.reserve_exact(record.len());
        self.bytes.extend_from_slice(&record);
        self.slots.push(Slot { offset, len });
        u16::try_from(self.slots.len() - 1).expect("slot count exceeds u16") // PANIC-OK: capacity bounds slots far below u16::MAX
    }

    /// Returns the record in `slot`, or `None` for an out-of-range or
    /// emptied slot.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        let Slot { offset, len } = *self.slots.get(slot as usize)?;
        if len == 0 {
            None
        } else {
            Some(&self.bytes[offset as usize..(offset + len) as usize])
        }
    }

    /// Overwrites the record in `slot`, which may grow or shrink it (or
    /// refill an emptied slot); the records behind it move up or down.
    ///
    /// # Panics
    ///
    /// Panics if the slot does not exist or the page's capacity cannot
    /// hold the new record in place of the old one.
    pub fn update(&mut self, slot: u16, record: Vec<u8>) {
        let Slot { offset, len } = self.slots[slot as usize];
        let (at, old, new) = (offset as usize, len as usize, record.len());
        assert!(
            self.used() - old + new <= self.capacity,
            "update of slot {slot} to {new} bytes does not fit in page with {} free bytes",
            self.free() + old
        );
        self.bytes.reserve_exact(new.saturating_sub(old));
        self.bytes.splice(at..at + old, record);
        self.set_len(slot, new);
    }

    /// Removes the record in `slot`, freeing its bytes. The slot itself
    /// remains (record ids stay stable).
    pub fn remove(&mut self, slot: u16) {
        if let Some(&Slot { offset, len }) = self.slots.get(slot as usize) {
            self.bytes.drain(offset as usize..(offset + len) as usize);
            self.set_len(slot, 0);
        }
    }

    /// Records `slot`'s new length and moves the offsets of the slots
    /// behind it by the difference.
    fn set_len(&mut self, slot: u16, len: usize) {
        let slots = &mut self.slots[slot as usize..];
        let old = slots[0].len;
        slots[0].len = len as u32;
        for s in &mut slots[1..] {
            s.offset = s.offset - old + len as u32;
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

    /// Three records of distinct lengths and contents, for the mid-page
    /// resizes below.
    fn three() -> Page {
        let mut p = Page::new(100);
        p.push(vec![1; 10]);
        p.push(vec![2; 20]);
        p.push(vec![3; 30]);
        p
    }

    /// `used` is the sum of the live records' lengths.
    fn live_bytes(p: &Page) -> usize {
        (0..p.slot_count() as u16)
            .filter_map(|s| p.get(s))
            .map(<[u8]>::len)
            .sum()
    }

    #[test]
    fn grow_a_record_mid_page() {
        let mut p = three();
        p.update(1, vec![7; 45]);
        assert_eq!(p.get(0), Some(&[1u8; 10][..]));
        assert_eq!(p.get(1), Some(&[7u8; 45][..]));
        assert_eq!(p.get(2), Some(&[3u8; 30][..]));
        assert_eq!(p.used(), 85);
        assert_eq!(p.used(), live_bytes(&p));
    }

    #[test]
    fn shrink_a_record_mid_page() {
        let mut p = three();
        p.update(1, vec![7; 5]);
        assert_eq!(p.get(0), Some(&[1u8; 10][..]));
        assert_eq!(p.get(1), Some(&[7u8; 5][..]));
        assert_eq!(p.get(2), Some(&[3u8; 30][..]));
        assert_eq!(p.used(), 45);
        assert_eq!(p.used(), live_bytes(&p));
    }

    #[test]
    fn remove_a_record_mid_page_then_refill_it() {
        let mut p = three();
        p.remove(1);
        assert_eq!(p.get(0), Some(&[1u8; 10][..]));
        assert_eq!(p.get(1), None);
        assert_eq!(p.get(2), Some(&[3u8; 30][..]));
        assert_eq!(p.used(), 40);
        assert_eq!(p.used(), live_bytes(&p));
        p.update(1, vec![8; 12]);
        assert_eq!(p.get(1), Some(&[8u8; 12][..]));
        assert_eq!(p.get(2), Some(&[3u8; 30][..]));
        assert_eq!(p.used(), 52);
        assert_eq!(p.used(), live_bytes(&p));
    }

    #[test]
    fn an_update_to_the_full_capacity_fits() {
        let mut p = three();
        p.update(0, vec![4; 50]);
        assert_eq!(p.free(), 0);
        assert_eq!(p.get(2), Some(&[3u8; 30][..]));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn an_update_past_capacity_panics() {
        let mut p = three();
        p.update(0, vec![4; 51]);
    }

    #[test]
    fn out_of_range_get_is_none() {
        let p = Page::new(10);
        assert_eq!(p.get(3), None);
    }
}
