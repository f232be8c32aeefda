//! Write-ahead log with checksummed records and explicit fsync points.
//!
//! The cost model treats updates as in-place page writes; a durable
//! service cannot. [`WriteAheadLog`] gives the write path the classic
//! commit protocol: append the batch's redo record, *then* [`sync`]
//! (the commit point), *then* publish the new snapshot. The log models
//! durability as two byte buffers:
//!
//! * `durable` — bytes that survived a crash (what [`durable_image`]
//!   returns and [`recover`] replays),
//! * `tail` — appended frames not yet synced; a crash (or an injected
//!   sync fault) loses them, and that is *correct*: their commits never
//!   reported success.
//!
//! Every frame is `[kind u8][lsn u64][len u32][crc u64][payload]` with
//! an FNV-1a 64 checksum over kind + lsn + payload. A sync appends a
//! marker frame and promotes the tail to `durable` atomically — so a
//! recovered image is always frame-complete, and any structural damage
//! (bad magic, truncated frame, checksum mismatch) is a hard
//! [`StorageError::WalCorrupt`]: recovery fail-stops rather than
//! replaying a possibly-wrong history. Records after the final marker
//! are uncommitted by definition and are dropped silently.
//!
//! [`truncate`] drops a history an image covers but its last sync marker,
//! the log's [`base_lsn`]. The frames are the one durable format: an
//! image (a checkpoint, a saved database) is a log of records, one sync.
//!
//! Sync faults are injected through the same [`FaultInjector`] the
//! buffer pool uses: sync attempt `k` consults `FaultOp::Write` on
//! `PageId(k)`, so a chaos harness can kill the log at *every* fsync
//! boundary deterministically.
//!
//! [`sync`]: WriteAheadLog::sync
//! [`truncate`]: WriteAheadLog::truncate
//! [`base_lsn`]: WriteAheadLog::base_lsn
//! [`durable_image`]: WriteAheadLog::durable_image
//! [`recover`]: WriteAheadLog::recover

use crate::error::StorageError;
use crate::fault::{FaultInjector, FaultOp};
use crate::page::PageId;

/// Magic prefix of a serialized log image (format version 1).
pub const WAL_MAGIC: &[u8; 8] = b"SJWAL001";

/// Frame kind tags.
const KIND_RECORD: u8 = 1;
const KIND_SYNC: u8 = 2;

/// Fixed byte overhead of one frame header.
const FRAME_HEADER: usize = 1 + 8 + 4 + 8;

/// FNV-1a 64 over the frame's integrity-relevant bytes.
fn checksum(kind: u8, lsn: u64, payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    };
    eat(kind);
    for b in lsn.to_le_bytes() {
        eat(b);
    }
    for &b in payload {
        eat(b);
    }
    h
}

fn push_frame(buf: &mut Vec<u8>, kind: u8, lsn: u64, payload: &[u8]) {
    buf.push(kind);
    buf.extend_from_slice(&lsn.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&checksum(kind, lsn, payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// A committed record: its LSN and its payload.
pub type Record = (u64, Vec<u8>);

/// A write-ahead log: append redo records, sync to commit, replay after
/// a crash. See the module docs for the durability model.
#[derive(Debug, Clone, Default)]
pub struct WriteAheadLog {
    /// Frames that survived the last successful sync.
    durable: Vec<u8>,
    /// Appended-but-unsynced frames; lost on crash or sync fault.
    tail: Vec<u8>,
    /// LSN handed to the next appended frame.
    next_lsn: u64,
    /// `next_lsn` as of the last successful sync (rollback target).
    synced_next_lsn: u64,
    /// The LSN the durable history starts after (0 if never truncated).
    base_lsn: u64,
    /// Total sync *attempts* (successful or not) — the deterministic
    /// coordinate the fault injector keys on.
    sync_attempts: u64,
    syncs: u64,
    sync_failures: u64,
    records: u64,
    injector: Option<FaultInjector>,
}

impl WriteAheadLog {
    /// An empty log with no durable history.
    pub fn new() -> Self {
        WriteAheadLog {
            next_lsn: 1,
            synced_next_lsn: 1,
            ..WriteAheadLog::default()
        }
    }

    /// Arms (or disarms) deterministic sync-fault injection. Sync
    /// attempt `k` (0-based) consults `FaultOp::Write` on `PageId(k)`.
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.injector = injector;
    }

    /// Appends one redo record to the unsynced tail and returns its LSN.
    /// The record is **not** durable until the next successful
    /// [`sync`](Self::sync).
    pub fn append(&mut self, payload: &[u8]) -> u64 {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.records += 1;
        push_frame(&mut self.tail, KIND_RECORD, lsn, payload);
        lsn
    }

    /// Discards the unsynced tail (an aborted commit) and rewinds the
    /// LSN counter to the last synced position.
    pub fn rollback_tail(&mut self) {
        self.records -= self.pending_records();
        self.tail.clear();
        self.next_lsn = self.synced_next_lsn;
    }

    /// Number of appended records awaiting the next sync.
    fn pending_records(&self) -> u64 {
        self.next_lsn - self.synced_next_lsn
    }

    /// The commit point: promotes the tail to durable storage behind a
    /// sync marker. On an injected sync fault the tail is *lost* (the
    /// batch never committed) and the typed error propagates — the
    /// caller must not publish. Returns the marker's LSN on success.
    pub fn sync(&mut self) -> Result<u64, StorageError> {
        let attempt = self.sync_attempts;
        self.sync_attempts += 1;
        if let Some(injector) = self.injector.as_mut() {
            if let Err(e) = injector.check(FaultOp::Write, PageId(attempt as u32)) {
                self.sync_failures += 1;
                self.rollback_tail();
                return Err(e);
            }
        }
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        push_frame(&mut self.tail, KIND_SYNC, lsn, &[]);
        self.durable.append(&mut self.tail);
        self.synced_next_lsn = self.next_lsn;
        self.syncs += 1;
        Ok(lsn)
    }

    /// The byte image a crash would leave behind: magic header plus all
    /// frames up to and including the last successful sync marker.
    pub fn durable_image(&self) -> Vec<u8> {
        let mut image = Vec::with_capacity(WAL_MAGIC.len() + self.durable.len());
        image.extend_from_slice(WAL_MAGIC);
        image.extend_from_slice(&self.durable);
        image
    }

    /// LSN of the last successful sync marker (0 before the first).
    pub fn synced_lsn(&self) -> u64 {
        self.synced_next_lsn - 1
    }

    /// The LSN the durable history starts after: every committed record
    /// with a larger LSN is in [`durable_image`](Self::durable_image).
    pub fn base_lsn(&self) -> u64 {
        self.base_lsn
    }

    /// Drops the durable history, once an image covers it, but its last
    /// sync marker: that stays as the [`base_lsn`](Self::base_lsn) a
    /// recovered log reports, and LSNs go on from there.
    pub fn truncate(&mut self) {
        self.durable.clear();
        self.base_lsn = self.synced_lsn();
        if self.base_lsn > 0 {
            push_frame(&mut self.durable, KIND_SYNC, self.base_lsn, &[]);
        }
    }

    /// Bytes of durable log (excluding the magic header).
    pub fn durable_bytes(&self) -> usize {
        self.durable.len()
    }

    /// Total redo records appended (durable + pending).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Successful syncs (committed fsync points).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Syncs lost to injected faults.
    pub fn sync_failures(&self) -> u64 {
        self.sync_failures
    }

    /// Rebuilds a log from a crash image and returns it together with
    /// every *committed* redo record as `(lsn, payload)`, in LSN order.
    /// Records after the final sync marker never committed and are
    /// dropped. Any structural damage is a typed
    /// [`StorageError::WalCorrupt`].
    pub fn recover(image: &[u8]) -> Result<(WriteAheadLog, Vec<Record>), StorageError> {
        let body = match image.strip_prefix(WAL_MAGIC.as_slice()) {
            Some(body) => body,
            None => {
                return Err(StorageError::WalCorrupt {
                    offset: 0,
                    reason: "bad magic header",
                })
            }
        };
        let mut committed: Vec<Record> = Vec::new();
        let mut pending: Vec<Record> = Vec::new();
        let mut records: u64 = 0;
        let mut durable_end = 0usize;
        let mut max_lsn = 0u64;
        let mut synced_lsn = 0u64;
        let mut base_lsn = 0u64;
        let mut pos = 0usize;
        while pos < body.len() {
            let offset = WAL_MAGIC.len() + pos;
            let Some(header) = body.get(pos..pos + FRAME_HEADER) else {
                return Err(StorageError::WalCorrupt {
                    offset,
                    reason: "truncated frame header",
                });
            };
            let kind = header[0];
            let mut lsn_bytes = [0u8; 8];
            lsn_bytes.copy_from_slice(&header[1..9]);
            let lsn = u64::from_le_bytes(lsn_bytes);
            let mut len_bytes = [0u8; 4];
            len_bytes.copy_from_slice(&header[9..13]);
            let len = u32::from_le_bytes(len_bytes) as usize;
            let mut crc_bytes = [0u8; 8];
            crc_bytes.copy_from_slice(&header[13..21]);
            let crc = u64::from_le_bytes(crc_bytes);
            let Some(payload) = body.get(pos + FRAME_HEADER..pos + FRAME_HEADER + len) else {
                return Err(StorageError::WalCorrupt {
                    offset,
                    reason: "truncated frame payload",
                });
            };
            if checksum(kind, lsn, payload) != crc {
                return Err(StorageError::WalCorrupt {
                    offset,
                    reason: "checksum mismatch",
                });
            }
            if lsn <= max_lsn {
                return Err(StorageError::WalCorrupt {
                    offset,
                    reason: "non-monotonic lsn",
                });
            }
            if pos == 0 {
                // A truncated log starts at the sync marker it kept.
                base_lsn = lsn - u64::from(kind == KIND_RECORD);
            }
            max_lsn = lsn;
            match kind {
                KIND_RECORD => pending.push((lsn, payload.to_vec())),
                KIND_SYNC => {
                    if len != 0 {
                        return Err(StorageError::WalCorrupt {
                            offset,
                            reason: "sync marker carries a payload",
                        });
                    }
                    records += pending.len() as u64;
                    committed.append(&mut pending);
                    synced_lsn = lsn;
                    durable_end = pos + FRAME_HEADER;
                }
                _ => {
                    return Err(StorageError::WalCorrupt {
                        offset,
                        reason: "unknown frame kind",
                    });
                }
            }
            pos += FRAME_HEADER + len;
        }
        let next_lsn = synced_lsn + 1;
        let log = WriteAheadLog {
            durable: body[..durable_end].to_vec(),
            tail: Vec::new(),
            next_lsn,
            synced_next_lsn: next_lsn,
            base_lsn,
            sync_attempts: 0,
            syncs: 0,
            sync_failures: 0,
            records,
            injector: None,
        };
        Ok((log, committed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;

    /// The committed payloads of `image`, without their LSNs.
    fn payloads(image: &[u8]) -> Vec<Vec<u8>> {
        let (_, records) = WriteAheadLog::recover(image).unwrap();
        records.into_iter().map(|(_, payload)| payload).collect()
    }

    #[test]
    fn append_sync_recover_round_trips() {
        let mut wal = WriteAheadLog::new();
        wal.append(b"alpha");
        wal.append(b"beta");
        wal.sync().unwrap();
        wal.append(b"gamma");
        wal.sync().unwrap();
        assert_eq!(wal.records(), 3);
        assert_eq!(wal.syncs(), 2);

        let (recovered, records) = WriteAheadLog::recover(&wal.durable_image()).unwrap();
        assert_eq!(
            records,
            vec![
                (1, b"alpha".to_vec()),
                (2, b"beta".to_vec()),
                (4, b"gamma".to_vec())
            ]
        );
        assert_eq!(recovered.records(), 3);
        assert_eq!(recovered.durable_bytes(), wal.durable_bytes());
        // The recovered log keeps accepting writes past the old history.
        let mut recovered = recovered;
        recovered.append(b"delta");
        recovered.sync().unwrap();
        assert_eq!(payloads(&recovered.durable_image()).len(), 4);
    }

    #[test]
    fn unsynced_tail_never_reaches_the_image() {
        let mut wal = WriteAheadLog::new();
        wal.append(b"committed");
        wal.sync().unwrap();
        wal.append(b"lost");
        assert_eq!(payloads(&wal.durable_image()), vec![b"committed".to_vec()]);
    }

    #[test]
    fn rollback_tail_rewinds_lsns() {
        let mut wal = WriteAheadLog::new();
        let first = wal.append(b"a");
        wal.sync().unwrap();
        let aborted = wal.append(b"b");
        wal.rollback_tail();
        let retried = wal.append(b"b2");
        assert_eq!(aborted, retried);
        assert!(first < retried);
        wal.sync().unwrap();
        assert_eq!(
            payloads(&wal.durable_image()),
            vec![b"a".to_vec(), b"b2".to_vec()]
        );
    }

    #[test]
    fn injected_sync_fault_loses_only_the_tail() {
        let mut wal = WriteAheadLog::new();
        wal.append(b"safe");
        wal.sync().unwrap();
        // Fault exactly the second sync attempt (PageId(1)).
        let config = FaultConfig {
            write_prob: 1.0,
            target_pages: Some([PageId(1)].into_iter().collect()),
            ..FaultConfig::uniform(7, 0.0)
        };
        wal.set_fault_injector(Some(FaultInjector::new(config)));
        wal.append(b"doomed");
        let err = wal.sync().unwrap_err();
        assert_eq!(err.kind(), "injected_fault");
        assert_eq!(wal.sync_failures(), 1);
        // The doomed record is gone; the next commit reuses its LSN and
        // the durable history stays exactly the committed prefix.
        wal.append(b"next");
        wal.sync().unwrap();
        assert_eq!(
            payloads(&wal.durable_image()),
            vec![b"safe".to_vec(), b"next".to_vec()]
        );
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let mut wal = WriteAheadLog::new();
        wal.append(b"payload");
        wal.sync().unwrap();
        let image = wal.durable_image();

        // Bad magic.
        let mut bad = image.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            WriteAheadLog::recover(&bad),
            Err(StorageError::WalCorrupt {
                reason: "bad magic header",
                ..
            })
        ));

        // Flipped payload byte → checksum mismatch.
        let mut flipped = image.clone();
        let payload_at = WAL_MAGIC.len() + FRAME_HEADER;
        flipped[payload_at] ^= 0xFF;
        assert!(matches!(
            WriteAheadLog::recover(&flipped),
            Err(StorageError::WalCorrupt {
                reason: "checksum mismatch",
                ..
            })
        ));

        // Truncated mid-frame.
        let truncated = &image[..image.len() - 3];
        assert!(matches!(
            WriteAheadLog::recover(truncated),
            Err(StorageError::WalCorrupt { .. })
        ));
    }

    #[test]
    fn empty_image_recovers_to_an_empty_log() {
        let wal = WriteAheadLog::new();
        let (recovered, records) = WriteAheadLog::recover(&wal.durable_image()).unwrap();
        assert!(records.is_empty());
        assert_eq!((recovered.base_lsn(), recovered.synced_lsn()), (0, 0));
        assert_eq!(recovered.records(), 0);
        assert_eq!(recovered.durable_bytes(), 0);
    }

    #[test]
    fn truncate_keeps_the_base_and_lsns_go_on() {
        let mut wal = WriteAheadLog::new();
        wal.append(b"covered");
        assert_eq!(wal.sync(), Ok(2));
        wal.truncate();
        assert_eq!((wal.base_lsn(), wal.synced_lsn()), (2, 2));
        let (recovered, records) = WriteAheadLog::recover(&wal.durable_image()).unwrap();
        assert!(records.is_empty());
        assert_eq!((recovered.base_lsn(), recovered.synced_lsn()), (2, 2));

        wal.append(b"after");
        wal.sync().unwrap();
        let (recovered, records) = WriteAheadLog::recover(&wal.durable_image()).unwrap();
        assert_eq!(records, vec![(3, b"after".to_vec())]);
        assert_eq!((recovered.base_lsn(), recovered.synced_lsn()), (2, 4));
    }
}
