//! The append buffer.
//!
//! Merge outputs (up-to-date chunks) are buffered in memory and appended to
//! the end of the MRBGraph file with large sequential writes; obsolete chunk
//! versions stay in the file until offline compaction (paper §3.4,
//! "Incremental Storage of MRBGraph Changes").

use i2mr_common::error::Result;
use i2mr_common::metrics::IoStats;
use std::fs::File;
use std::io::{Seek, SeekFrom, Write};

/// Default flush threshold: 256 KiB of buffered chunk bytes.
pub const DEFAULT_APPEND_CAPACITY: usize = 256 * 1024;

/// In-memory buffer of pending appends for one MRBGraph file.
#[derive(Debug)]
pub struct AppendBuffer {
    buf: Vec<u8>,
    capacity: usize,
    /// File offset the first buffered byte will land at.
    base_offset: u64,
}

impl AppendBuffer {
    /// Buffer that flushes once `capacity` bytes accumulate.
    pub fn new(capacity: usize, file_len: u64) -> Self {
        AppendBuffer {
            buf: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            base_offset: file_len,
        }
    }

    /// File offset the *next* appended byte will occupy.
    pub fn next_offset(&self) -> u64 {
        self.base_offset + self.buf.len() as u64
    }

    /// Queue `bytes`; returns the file offset they will occupy. Flushes to
    /// `file` when the buffer is full.
    pub fn append(&mut self, bytes: &[u8], file: &mut File, io: &mut IoStats) -> Result<u64> {
        let at = self.next_offset();
        self.buf.extend_from_slice(bytes);
        if self.buf.len() >= self.capacity {
            self.flush(file, io)?;
        }
        Ok(at)
    }

    /// Write all buffered bytes to the end of `file` as one sequential I/O.
    pub fn flush(&mut self, file: &mut File, io: &mut IoStats) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        file.seek(SeekFrom::Start(self.base_offset))?;
        file.write_all(&self.buf)?;
        io.record_write(self.buf.len() as u64);
        self.base_offset += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Flush, then `sync_all` (counted in [`IoStats::syncs`]).
    ///
    /// [`AppendBuffer::flush`] only hands bytes to the page cache; a crash
    /// after it can still tear the batch. Appends and merges stop there —
    /// their bytes are synced by the store's next commit, before the index
    /// that references them is written. Compaction calls this for the
    /// file it reconstructs, before the rename that makes it the data
    /// file. The capacity-triggered mid-batch flushes stay cheap.
    pub fn flush_durable(&mut self, file: &mut File, io: &mut IoStats) -> Result<()> {
        self.flush(file, io)?;
        file.sync_all()?;
        io.record_sync();
        Ok(())
    }

    /// Bytes currently waiting to be flushed.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn tmpfile(tag: &str) -> (std::path::PathBuf, File) {
        let p = std::env::temp_dir().join(format!(
            "i2mr-append-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        let f = File::options()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&p)
            .unwrap();
        (p, f)
    }

    #[test]
    fn offsets_are_assigned_before_flush() {
        let (_p, mut f) = tmpfile("off");
        let mut io = IoStats::default();
        let mut ab = AppendBuffer::new(1024, 0);
        assert_eq!(ab.append(b"aaaa", &mut f, &mut io).unwrap(), 0);
        assert_eq!(ab.append(b"bb", &mut f, &mut io).unwrap(), 4);
        assert_eq!(ab.next_offset(), 6);
        assert_eq!(io.writes, 0, "below capacity: nothing flushed yet");
        assert_eq!(ab.pending(), 6);
    }

    #[test]
    fn auto_flush_at_capacity_is_one_sequential_write() {
        let (p, mut f) = tmpfile("auto");
        let mut io = IoStats::default();
        let mut ab = AppendBuffer::new(8, 0);
        ab.append(b"12345", &mut f, &mut io).unwrap();
        ab.append(b"6789", &mut f, &mut io).unwrap(); // crosses capacity
        assert_eq!(io.writes, 1);
        assert_eq!(io.bytes_written, 9);
        assert_eq!(ab.pending(), 0);
        let mut content = String::new();
        File::open(&p)
            .unwrap()
            .read_to_string(&mut content)
            .unwrap();
        assert_eq!(content, "123456789");
    }

    #[test]
    fn explicit_flush_and_continue() {
        let (p, mut f) = tmpfile("cont");
        let mut io = IoStats::default();
        let mut ab = AppendBuffer::new(1024, 0);
        ab.append(b"first", &mut f, &mut io).unwrap();
        ab.flush(&mut f, &mut io).unwrap();
        let at = ab.append(b"second", &mut f, &mut io).unwrap();
        assert_eq!(at, 5);
        ab.flush(&mut f, &mut io).unwrap();
        assert_eq!(io.writes, 2);
        let mut content = String::new();
        File::open(&p)
            .unwrap()
            .read_to_string(&mut content)
            .unwrap();
        assert_eq!(content, "firstsecond");
    }

    #[test]
    fn flush_durable_writes_and_keeps_counters() {
        let (p, mut f) = tmpfile("durable");
        let mut io = IoStats::default();
        let mut ab = AppendBuffer::new(1024, 0);
        ab.append(b"persist-me", &mut f, &mut io).unwrap();
        ab.flush_durable(&mut f, &mut io).unwrap();
        assert_eq!(io.writes, 1, "fsync is not a counted write");
        assert_eq!(io.bytes_written, 10);
        assert_eq!(io.syncs, 1);
        let mut content = String::new();
        File::open(&p)
            .unwrap()
            .read_to_string(&mut content)
            .unwrap();
        assert_eq!(content, "persist-me");
    }

    #[test]
    fn flush_on_empty_is_noop() {
        let (_p, mut f) = tmpfile("noop");
        let mut io = IoStats::default();
        let mut ab = AppendBuffer::new(8, 0);
        ab.flush(&mut f, &mut io).unwrap();
        assert_eq!(io.writes, 0);
    }

    #[test]
    fn starts_at_existing_file_length() {
        let (_p, mut f) = tmpfile("resume");
        f.write_all(b"existing").unwrap();
        let mut io = IoStats::default();
        let mut ab = AppendBuffer::new(8, 8);
        assert_eq!(ab.append(b"x", &mut f, &mut io).unwrap(), 8);
    }
}
