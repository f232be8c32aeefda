//! Disk-image persistence: snapshot a simulated [`Disk`] to a real file
//! and reload it later.
//!
//! The simulator's page array serializes to a compact, versioned binary
//! image (everything little-endian):
//!
//! ```text
//! [ magic: 8 bytes "SJDISK01" ]
//! [ page_size: u32 ][ utilization: f64 ][ page_count: u32 ]
//! per page: [ capacity: u32 ][ slot_count: u32 ]
//!           per slot: [ len: u32 ][ bytes... ]
//! ```
//!
//! Deleted slots persist as zero-length records, so [`crate::RecordId`]s
//! remain valid across a save/load cycle.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use crate::disk::{Disk, DiskConfig};
use crate::page::Page;

const MAGIC: &[u8; 8] = b"SJDISK01";

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Disk {
    /// Writes the disk image to `path` (atomically not guaranteed; write
    /// to a temp file and rename for crash safety if required).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(MAGIC)?;
        let config = self.config();
        write_u32(
            &mut w,
            u32::try_from(config.page_size).map_err(|_| bad("page size exceeds u32"))?,
        )?;
        w.write_all(&config.utilization.to_le_bytes())?;
        write_u32(
            &mut w,
            u32::try_from(self.page_count()).map_err(|_| bad("page count exceeds u32"))?,
        )?;
        for i in 0..self.page_count() {
            let page = self.peek(crate::PageId(i as u32));
            write_u32(
                &mut w,
                u32::try_from(page.capacity()).map_err(|_| bad("page capacity exceeds u32"))?,
            )?;
            write_u32(
                &mut w,
                u32::try_from(page.slot_count()).map_err(|_| bad("slot count exceeds u32"))?,
            )?;
            let mut next_slot = 0u16;
            for (slot, bytes) in page.records() {
                // Emit tombstones for removed slots so ids stay stable.
                while next_slot < slot {
                    write_u32(&mut w, 0)?;
                    next_slot += 1;
                }
                write_u32(
                    &mut w,
                    u32::try_from(bytes.len()).map_err(|_| bad("record length exceeds u32"))?,
                )?;
                w.write_all(bytes)?;
                next_slot = slot + 1;
            }
            while (next_slot as usize) < page.slot_count() {
                write_u32(&mut w, 0)?;
                next_slot += 1;
            }
        }
        w.flush()
    }

    /// Loads a disk image previously written by [`Disk::save`].
    pub fn load(path: impl AsRef<Path>) -> io::Result<Disk> {
        let mut r = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a spatial-joins disk image"));
        }
        let page_size = read_u32(&mut r)? as usize;
        let mut util = [0u8; 8];
        r.read_exact(&mut util)?;
        let utilization = f64::from_le_bytes(util);
        if !(0.0..=1.0).contains(&utilization) || utilization == 0.0 {
            return Err(bad("corrupt utilization"));
        }
        let config = DiskConfig {
            page_size,
            utilization,
        };
        let mut disk = Disk::new(config);
        let pages = read_u32(&mut r)? as usize;
        for _ in 0..pages {
            let capacity = read_u32(&mut r)? as usize;
            if capacity != config.effective_capacity() {
                return Err(bad("page capacity disagrees with the header geometry"));
            }
            let slots = read_u32(&mut r)? as usize;
            let mut page = Page::new(capacity);
            for _ in 0..slots {
                let len = read_u32(&mut r)? as usize;
                if len > capacity {
                    return Err(bad("record longer than page capacity"));
                }
                let mut rec = vec![0u8; len];
                r.read_exact(&mut rec)?;
                let slot = page.push(rec);
                if len == 0 {
                    // Tombstone: occupy the slot, keep it logically empty.
                    page.remove(slot);
                }
            }
            let id = disk.try_allocate().map_err(io::Error::other)?;
            disk.try_write_shared(id, Arc::new(page))
                .map_err(io::Error::other)?;
        }
        disk.reset_stats();
        // Reject trailing garbage.
        let mut probe = [0u8; 1];
        match r.read(&mut probe)? {
            0 => Ok(disk),
            _ => Err(bad("trailing bytes after the last page")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::heap::{HeapFile, Layout};
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sj_storage_test_{}_{name}.img", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_records_and_ids() {
        let path = temp_path("roundtrip");
        let file;
        {
            let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 64);
            file = HeapFile::bulk_load_with(
                &mut pool,
                300,
                37,
                Layout::Unclustered { seed: 5 },
                |i| {
                    let mut rec = vec![0u8; 300];
                    rec[..8].copy_from_slice(&(i as u64).to_le_bytes());
                    rec
                },
            )
            .unwrap();
            pool.disk().save(&path).expect("save");
        }
        let disk = Disk::load(&path).expect("load");
        let mut pool = BufferPool::new(disk, 64);
        for i in 0..37 {
            let bytes = pool.try_read_record(&file, file.rid(i)).unwrap();
            let id = u64::from_le_bytes(bytes[..8].try_into().unwrap());
            assert_eq!(id as usize, i);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tombstones_survive() {
        let path = temp_path("tombstones");
        let mut disk = Disk::new(DiskConfig::paper());
        let id = disk.try_allocate().unwrap();
        let mut page = (*disk.try_read_shared(id).unwrap()).clone();
        let s0 = page.push(vec![1; 10]);
        let s1 = page.push(vec![2; 10]);
        page.remove(s0);
        disk.try_write_shared(id, Arc::new(page)).unwrap();
        disk.save(&path).expect("save");

        let loaded = Disk::load(&path).expect("load");
        let p = loaded.peek(crate::PageId(0));
        assert_eq!(p.get(s0), None, "tombstone stays empty");
        assert_eq!(p.get(s1), Some(&[2u8; 10][..]));
        assert_eq!(p.slot_count(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"definitely not a disk image").unwrap();
        assert!(Disk::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncation() {
        let path = temp_path("truncated");
        let mut disk = Disk::new(DiskConfig::paper());
        let id = disk.try_allocate().unwrap();
        let mut page = (*disk.try_read_shared(id).unwrap()).clone();
        page.push(vec![7; 100]);
        disk.try_write_shared(id, Arc::new(page)).unwrap();
        disk.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(Disk::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_disk_roundtrips() {
        let path = temp_path("empty");
        Disk::new(DiskConfig::paper()).save(&path).unwrap();
        let d = Disk::load(&path).unwrap();
        assert_eq!(d.page_count(), 0);
        std::fs::remove_file(&path).ok();
    }
}
