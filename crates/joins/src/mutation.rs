//! The typed mutation vocabulary of the write path.
//!
//! Reads speak `sj-service`'s `Request`/`Reply`; writes speak
//! [`WriteBatch`] — an ordered list of [`Mutation`]s against the two
//! relation sides, committed atomically by the service's `commit`.
//! The same types thread through `sj-rel::db` (over decoded tuples
//! instead of geometries — [`Mutation`] is generic over its value), so
//! the service and the relational layer share one wire vocabulary.
//! They live in this crate — below both consumers — because `sj-rel`
//! and `sj-service` sit on different branches of the crate graph.
//!
//! A batch also has a canonical byte encoding ([`WriteBatch::encode`] /
//! [`WriteBatch::decode`]) — the redo-record payload written to the
//! [write-ahead log](sj_storage::wal) and replayed by crash recovery.
//! Per-op results are [`MutationOutcome`]s: rejected operations (a
//! duplicate insert, a delete of a missing id) report typed outcomes
//! instead of silently succeeding, and because the outcome is a pure
//! function of the pre-state and the batch, replaying the log
//! reproduces them exactly.

use sj_geom::codec::{encode_record, encoded_len, try_decode_untrusted, CodecError};
use sj_geom::{Bounded, Geometry, Rect};
use sj_storage::StorageError;

/// Which operand relation a mutation or SELECT targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    R,
    S,
}

impl Side {
    /// Stable name, used in traces and cache keys.
    pub fn name(self) -> &'static str {
        match self {
            Side::R => "r",
            Side::S => "s",
        }
    }
}

/// One typed write against a relation side. Generic over the stored
/// value so the service (geometries) and `sj-rel` (decoded tuples) share
/// the shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation<G = Geometry> {
    /// Add a new tuple; rejected with [`MutationOutcome::DuplicateId`]
    /// if the id is already live.
    Insert {
        /// Tuple id, unique within its side.
        id: u64,
        /// The stored value.
        value: G,
    },
    /// Remove a tuple; rejected with [`MutationOutcome::MissingId`] if
    /// the id is not live.
    Delete {
        /// Id of the tuple to remove.
        id: u64,
    },
    /// Insert-or-replace: replaces in place when the id is live,
    /// inserts otherwise. Never rejected for presence reasons.
    Upsert {
        /// Tuple id.
        id: u64,
        /// The new stored value.
        value: G,
    },
}

impl<G> Mutation<G> {
    /// The id this mutation targets.
    pub fn id(&self) -> u64 {
        match self {
            Mutation::Insert { id, .. } | Mutation::Delete { id } | Mutation::Upsert { id, .. } => {
                *id
            }
        }
    }
}

/// An ordered, atomically-committed list of mutations. Application
/// order is batch order; a later op observes the effects of earlier ops
/// in the same batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WriteBatch {
    /// The operations, in application order.
    pub ops: Vec<(Side, Mutation)>,
}

/// Wire tags of [`WriteBatch::encode`].
const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_UPSERT: u8 = 3;

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Appends an insert (builder style).
    pub fn insert(mut self, side: Side, id: u64, value: Geometry) -> Self {
        self.ops.push((side, Mutation::Insert { id, value }));
        self
    }

    /// Appends a delete (builder style).
    pub fn delete(mut self, side: Side, id: u64) -> Self {
        self.ops.push((side, Mutation::Delete { id }));
        self
    }

    /// Appends an upsert (builder style).
    pub fn upsert(mut self, side: Side, id: u64, value: Geometry) -> Self {
        self.ops.push((side, Mutation::Upsert { id, value }));
        self
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Canonical byte encoding — the WAL redo-record payload. Each
    /// geometry is encoded at its tight [`encoded_len`], so the payload
    /// carries no fixed-record padding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        for (side, op) in &self.ops {
            out.push(match side {
                Side::R => 0,
                Side::S => 1,
            });
            match op {
                Mutation::Insert { id, value } => {
                    out.push(TAG_INSERT);
                    push_geometry(&mut out, *id, value);
                }
                Mutation::Delete { id } => {
                    out.push(TAG_DELETE);
                    out.extend_from_slice(&id.to_le_bytes());
                }
                Mutation::Upsert { id, value } => {
                    out.push(TAG_UPSERT);
                    push_geometry(&mut out, *id, value);
                }
            }
        }
        out
    }

    /// Decodes a payload produced by [`encode`](Self::encode). Malformed
    /// bytes are a typed [`StorageError::WalCorrupt`] — a checksummed
    /// WAL record that fails to decode means the history cannot be
    /// trusted, so replay fail-stops.
    pub fn decode(bytes: &[u8]) -> Result<WriteBatch, StorageError> {
        let corrupt =
            |offset: usize, reason: &'static str| StorageError::WalCorrupt { offset, reason };
        let count_bytes: [u8; 4] = bytes
            .get(..4)
            .and_then(|b| b.try_into().ok())
            .ok_or_else(|| corrupt(0, "batch payload shorter than its header"))?;
        let count = u32::from_le_bytes(count_bytes) as usize;
        let mut pos = 4usize;
        let mut ops = Vec::with_capacity(count);
        for _ in 0..count {
            let &side_byte = bytes
                .get(pos)
                .ok_or_else(|| corrupt(pos, "truncated mutation side"))?;
            let side = match side_byte {
                0 => Side::R,
                1 => Side::S,
                _ => return Err(corrupt(pos, "unknown mutation side")),
            };
            let &tag = bytes
                .get(pos + 1)
                .ok_or_else(|| corrupt(pos, "truncated mutation tag"))?;
            pos += 2;
            let op = match tag {
                TAG_DELETE => {
                    let id_bytes: [u8; 8] = bytes
                        .get(pos..pos + 8)
                        .and_then(|b| b.try_into().ok())
                        .ok_or_else(|| corrupt(pos, "truncated delete id"))?;
                    pos += 8;
                    Mutation::Delete {
                        id: u64::from_le_bytes(id_bytes),
                    }
                }
                TAG_INSERT | TAG_UPSERT => {
                    let (id, value, read) = read_geometry(bytes, pos)?;
                    pos += read;
                    if tag == TAG_INSERT {
                        Mutation::Insert { id, value }
                    } else {
                        Mutation::Upsert { id, value }
                    }
                }
                _ => return Err(corrupt(pos - 1, "unknown mutation tag")),
            };
            ops.push((side, op));
        }
        if pos != bytes.len() {
            return Err(corrupt(pos, "trailing bytes after last mutation"));
        }
        Ok(WriteBatch { ops })
    }
}

fn push_geometry(out: &mut Vec<u8>, id: u64, g: &Geometry) {
    let record = encode_record(id, g, encoded_len(g));
    out.extend_from_slice(&(record.len() as u32).to_le_bytes());
    out.extend_from_slice(&record);
}

fn read_geometry(bytes: &[u8], pos: usize) -> Result<(u64, Geometry, usize), StorageError> {
    let len_bytes: [u8; 4] = bytes
        .get(pos..pos + 4)
        .and_then(|b| b.try_into().ok())
        .ok_or(StorageError::WalCorrupt {
            offset: pos,
            reason: "truncated geometry length",
        })?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    let record = bytes
        .get(pos + 4..pos + 4 + len)
        .ok_or(StorageError::WalCorrupt {
            offset: pos,
            reason: "truncated geometry record",
        })?;
    // A checksum-valid frame can still hold a geometry the codec rejects
    // (the checksums cover the bytes, not their meaning): log bytes come
    // from outside the process, so a polygon's ring is checked again.
    let (id, value) = try_decode_untrusted(record).map_err(|e| StorageError::WalCorrupt {
        offset: pos + 4,
        reason: match e {
            CodecError::Truncated { .. } => "geometry record shorter than its frame",
            CodecError::UnknownTag(_) => "unknown geometry tag",
            CodecError::ChecksumMismatch => "geometry record checksum mismatch",
            CodecError::InvalidGeometry(why) => why,
        },
    })?;
    Ok((id, value, 4 + len))
}

/// The per-operation result of applying a [`WriteBatch`]. Outcomes are
/// deterministic in the pre-state and the batch, so WAL replay
/// reproduces them exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationOutcome {
    /// A new tuple was added.
    Inserted,
    /// A live tuple was removed.
    Deleted,
    /// An upsert ran; `replaced` tells whether it overwrote a live
    /// tuple or fell through to an insert.
    Upserted {
        /// True when the id was live and its value was replaced.
        replaced: bool,
    },
    /// Insert rejected: the id is already live.
    DuplicateId,
    /// Delete rejected: the id is not live.
    MissingId,
    /// Insert/upsert rejected: the encoded geometry exceeds the
    /// relation's fixed record size.
    TooLarge,
}

impl MutationOutcome {
    /// True when the operation changed state.
    pub fn applied(&self) -> bool {
        matches!(
            self,
            MutationOutcome::Inserted | MutationOutcome::Deleted | MutationOutcome::Upserted { .. }
        )
    }
}

/// Union MBR of the tuples a committed batch touched, per side — the
/// fine-grained cache-invalidation footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TouchedRegions {
    /// Union MBR of touched `R` tuples (old and new extents).
    pub r: Option<Rect>,
    /// Union MBR of touched `S` tuples (old and new extents).
    pub s: Option<Rect>,
}

impl TouchedRegions {
    /// Grows the side's region to cover `rect`.
    pub fn touch(&mut self, side: Side, rect: &Rect) {
        let slot = match side {
            Side::R => &mut self.r,
            Side::S => &mut self.s,
        };
        *slot = Some(match slot {
            Some(r) => r.union(rect),
            None => *rect,
        });
    }

    /// Grows the side's region to cover a geometry's MBR.
    pub fn touch_geometry(&mut self, side: Side, g: &Geometry) {
        self.touch(side, &g.mbr());
    }

    /// The side's touched region, if any tuple there was touched.
    pub fn of(&self, side: Side) -> Option<&Rect> {
        match side {
            Side::R => self.r.as_ref(),
            Side::S => self.s.as_ref(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geom::Point;

    fn point(x: f64, y: f64) -> Geometry {
        Geometry::Point(Point::new(x, y))
    }

    #[test]
    fn encode_decode_round_trips() {
        let batch = WriteBatch::new()
            .insert(Side::R, 7, point(1.0, 2.0))
            .delete(Side::S, 9)
            .upsert(Side::S, 11, point(-3.5, 4.25))
            .insert(
                Side::S,
                12,
                Geometry::Rect(Rect::from_bounds(0.0, 0.0, 5.0, 5.0)),
            );
        let decoded = WriteBatch::decode(&batch.encode()).unwrap();
        assert_eq!(decoded, batch);
        assert_eq!(decoded.len(), 4);
    }

    #[test]
    fn empty_batch_round_trips() {
        let batch = WriteBatch::new();
        assert!(batch.is_empty());
        assert_eq!(WriteBatch::decode(&batch.encode()).unwrap(), batch);
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        let good = WriteBatch::new()
            .insert(Side::R, 1, point(0.0, 0.0))
            .encode();
        for bad in [
            &good[..2],               // truncated header
            &good[..good.len() - 1],  // truncated record
            &good[..good.len() - 10], // truncated geometry
        ] {
            assert!(
                matches!(
                    WriteBatch::decode(bad),
                    Err(StorageError::WalCorrupt { .. })
                ),
                "len {}",
                bad.len()
            );
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            WriteBatch::decode(&trailing),
            Err(StorageError::WalCorrupt {
                reason: "trailing bytes after last mutation",
                ..
            })
        ));
        let mut bad_side = good.clone();
        bad_side[4] = 9;
        assert!(matches!(
            WriteBatch::decode(&bad_side),
            Err(StorageError::WalCorrupt {
                reason: "unknown mutation side",
                ..
            })
        ));
    }

    /// A log is read from outside the process: a geometry frame forged
    /// around a self-intersecting ring is refused even when its record
    /// checksum matches.
    #[test]
    fn a_sealed_self_intersecting_ring_is_wal_corrupt() {
        let square = sj_geom::Polygon::from_rect(&Rect::from_bounds(0.0, 0.0, 4.0, 4.0)).unwrap();
        let mut payload = WriteBatch::new()
            .insert(Side::R, 1, Geometry::Polygon(square))
            .encode();
        let frame = &mut payload[4 + 2 + 4..];
        let bowtie = [0.0, 0.0, 4.0, 0.0, 0.0, 4.0, 3.0, 5.0];
        for (i, c) in bowtie.into_iter().enumerate() {
            let at = sj_geom::codec::HEADER_LEN + 8 * i;
            frame[at..at + 8].copy_from_slice(&f64::to_le_bytes(c));
        }
        let reason = |payload: &[u8]| match WriteBatch::decode(payload) {
            Err(StorageError::WalCorrupt { reason, .. }) => reason,
            other => panic!("expected WalCorrupt, got {other:?}"),
        };
        assert_eq!(reason(&payload), "geometry record checksum mismatch");
        sj_geom::codec::seal_record(&mut payload[4 + 2 + 4..]);
        assert_eq!(reason(&payload), "bad polygon ring");
    }

    #[test]
    fn touched_regions_union_per_side() {
        let mut t = TouchedRegions::default();
        assert!(t.of(Side::R).is_none());
        t.touch_geometry(Side::R, &point(1.0, 1.0));
        t.touch_geometry(Side::R, &point(5.0, -2.0));
        let r = *t.of(Side::R).unwrap();
        assert_eq!(r, Rect::from_bounds(1.0, -2.0, 5.0, 1.0));
        assert!(t.of(Side::S).is_none());
    }

    #[test]
    fn outcome_applied_classification() {
        assert!(MutationOutcome::Inserted.applied());
        assert!(MutationOutcome::Deleted.applied());
        assert!(MutationOutcome::Upserted { replaced: true }.applied());
        assert!(!MutationOutcome::DuplicateId.applied());
        assert!(!MutationOutcome::MissingId.applied());
        assert!(!MutationOutcome::TooLarge.applied());
    }
}
