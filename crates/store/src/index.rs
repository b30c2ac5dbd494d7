//! The chunk index: K2 → latest chunk position.
//!
//! "Given a K2, the index returns the chunk position in the MRBGraph file.
//! As only point lookup is required, we employ a hash-based implementation.
//! The index is stored in an index file and is preloaded into memory before
//! Reduce computation." (paper §3.4)
//!
//! Because the store appends updated chunks instead of rewriting in place,
//! a key may have several versions in the file; the index always points to
//! the **latest** one (paper §5.2). Batches — contiguous regions of sorted
//! chunks produced by one merge pass — are tracked in a [`BatchInfo`] table
//! for the multi-window query strategies.

use i2mr_common::codec::{read_varint, write_varint};
use i2mr_common::error::{Error, Result};
use i2mr_common::hash::StableHashBuilder;
use std::collections::HashMap;

/// Location of a chunk's latest version inside the MRBGraph file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkLoc {
    /// Absolute file offset of the chunk's first byte.
    pub offset: u64,
    /// Encoded length in bytes.
    pub len: u32,
    /// Which batch of sorted chunks the version lives in.
    pub batch: u32,
}

/// One contiguous region of sorted chunks (one merge pass's output).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchInfo {
    /// First byte of the batch in the file.
    pub start: u64,
    /// One past the last byte of the batch.
    pub end: u64,
}

/// In-memory hash index plus the batch table; persisted to an index file.
#[derive(Debug, Default)]
pub struct ChunkIndex {
    map: HashMap<Vec<u8>, ChunkLoc, StableHashBuilder>,
    batches: Vec<BatchInfo>,
    /// Running sum of `len` over `map` — the compaction policy reads it
    /// per shard per iteration, so it must not be a scan.
    live_bytes: u64,
}

impl ChunkIndex {
    /// Fresh, empty index.
    pub fn new() -> Self {
        ChunkIndex {
            map: HashMap::with_hasher(StableHashBuilder),
            batches: Vec::new(),
            live_bytes: 0,
        }
    }

    /// Latest location for `key`, if preserved.
    pub fn get(&self, key: &[u8]) -> Option<ChunkLoc> {
        self.map.get(key).copied()
    }

    /// Point the key at a new latest version.
    pub fn put(&mut self, key: Vec<u8>, loc: ChunkLoc) {
        self.live_bytes += loc.len as u64;
        if let Some(old) = self.map.insert(key, loc) {
            self.live_bytes -= old.len as u64;
        }
    }

    /// Drop a key entirely (its Reduce instance vanished).
    pub fn remove(&mut self, key: &[u8]) -> bool {
        match self.map.remove(key) {
            Some(old) => {
                self.live_bytes -= old.len as u64;
                true
            }
            None => false,
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no key is preserved.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate live `(key, loc)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<u8>, &ChunkLoc)> {
        self.map.iter()
    }

    /// Record a new batch; returns its id.
    pub fn push_batch(&mut self, info: BatchInfo) -> u32 {
        self.batches.push(info);
        (self.batches.len() - 1) as u32
    }

    /// The batch table.
    pub fn batches(&self) -> &[BatchInfo] {
        &self.batches
    }

    /// Total bytes of live chunks (what compaction would retain).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Live `(key, location)` pairs in canonical (byte-lexicographic key)
    /// order, locations patchable in place — compaction plans its read
    /// pass from these and re-points them afterwards without cloning a key
    /// or touching the hash table. Callers must leave `len` alone (the
    /// running [`ChunkIndex::live_bytes`] total does not see the write).
    pub(crate) fn sorted_mut(&mut self) -> Vec<(&[u8], &mut ChunkLoc)> {
        let mut live: Vec<(&[u8], &mut ChunkLoc)> = self
            .map
            .iter_mut()
            .map(|(k, loc)| (k.as_slice(), loc))
            .collect();
        live.sort_unstable_by(|a, b| a.0.cmp(b.0));
        live
    }

    /// Replace the batch table (compaction collapses it to one batch).
    pub(crate) fn set_batches(&mut self, batches: Vec<BatchInfo>) {
        self.batches = batches;
    }

    // ------------------------------------------------------------------
    // persistence
    // ------------------------------------------------------------------

    /// Serialize the index (batch table + entries).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + self.map.len() * 32);
        // Deterministic order for byte-identical re-serialization.
        let mut pairs: Vec<(&Vec<u8>, &ChunkLoc)> = self.map.iter().collect();
        pairs.sort_by_key(|(_, loc)| loc.offset);
        write_index(
            &self.batches,
            pairs.into_iter().map(|(k, loc)| (k.as_slice(), *loc)),
            &mut buf,
        );
        buf
    }

    /// Append to `buf` the serialized index of the compacted image of
    /// `live` — the live `(key, frame length)` pairs in canonical order,
    /// laid out back to back from offset 0 as one batch — without building
    /// that index. In the image, key order is offset order, so the bytes
    /// equal what [`ChunkIndex::to_bytes`] gives for the index a
    /// compaction of the same pairs leaves behind.
    pub(crate) fn write_compacted<'k>(
        live: impl ExactSizeIterator<Item = (&'k [u8], u32)> + Clone,
        buf: &mut Vec<u8>,
    ) {
        let end = live.clone().map(|(_, len)| len as u64).sum();
        let mut offset = 0;
        let entries = live.map(|(key, len)| {
            let at = ChunkLoc {
                offset,
                len,
                batch: 0,
            };
            offset += len as u64;
            (key, at)
        });
        write_index(&[BatchInfo { start: 0, end }], entries, buf);
    }

    /// Deserialize an index produced by [`ChunkIndex::to_bytes`].
    pub fn from_bytes(mut input: &[u8]) -> Result<Self> {
        let cur = &mut input;
        let nb = read_varint(cur)? as usize;
        let mut batches = Vec::with_capacity(nb.min(4096));
        for _ in 0..nb {
            let start = read_varint(cur)?;
            let end = read_varint(cur)?;
            batches.push(BatchInfo { start, end });
        }
        let n = read_varint(cur)? as usize;
        let mut map = HashMap::with_capacity_and_hasher(n.min(1 << 20), StableHashBuilder);
        for _ in 0..n {
            let klen = read_varint(cur)? as usize;
            if cur.len() < klen {
                return Err(Error::codec("index: truncated key"));
            }
            let (k, rest) = cur.split_at(klen);
            *cur = rest;
            let offset = read_varint(cur)?;
            let len = read_varint(cur)? as u32;
            let batch = read_varint(cur)? as u32;
            map.insert(k.to_vec(), ChunkLoc { offset, len, batch });
        }
        if !cur.is_empty() {
            return Err(Error::codec("index: trailing bytes"));
        }
        let live_bytes = map.values().map(|l| l.len as u64).sum();
        Ok(ChunkIndex {
            map,
            batches,
            live_bytes,
        })
    }
}

/// The index-file encoding: the batch table, then `entries` (already in
/// offset order) each as `key_len ‖ key ‖ offset ‖ len ‖ batch`.
fn write_index<'k>(
    batches: &[BatchInfo],
    entries: impl ExactSizeIterator<Item = (&'k [u8], ChunkLoc)>,
    buf: &mut Vec<u8>,
) {
    write_varint(batches.len() as u64, buf);
    for b in batches {
        write_varint(b.start, buf);
        write_varint(b.end, buf);
    }
    write_varint(entries.len() as u64, buf);
    for (k, loc) in entries {
        write_varint(k.len() as u64, buf);
        buf.extend_from_slice(k);
        write_varint(loc.offset, buf);
        write_varint(loc.len as u64, buf);
        write_varint(loc.batch as u64, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(offset: u64, len: u32, batch: u32) -> ChunkLoc {
        ChunkLoc { offset, len, batch }
    }

    #[test]
    fn put_get_remove() {
        let mut idx = ChunkIndex::new();
        assert!(idx.is_empty());
        idx.put(b"a".to_vec(), loc(0, 10, 0));
        idx.put(b"b".to_vec(), loc(10, 5, 0));
        assert_eq!(idx.get(b"a"), Some(loc(0, 10, 0)));
        assert_eq!(idx.len(), 2);
        // Updating points at the newest version.
        idx.put(b"a".to_vec(), loc(15, 12, 1));
        assert_eq!(idx.get(b"a"), Some(loc(15, 12, 1)));
        assert!(idx.remove(b"a"));
        assert!(!idx.remove(b"a"));
        assert_eq!(idx.get(b"a"), None);
    }

    #[test]
    fn persistence_roundtrip() {
        let mut idx = ChunkIndex::new();
        idx.push_batch(BatchInfo { start: 0, end: 100 });
        idx.push_batch(BatchInfo {
            start: 100,
            end: 250,
        });
        idx.put(b"k1".to_vec(), loc(0, 40, 0));
        idx.put(b"k2".to_vec(), loc(40, 60, 0));
        idx.put(b"k1-v2".to_vec(), loc(100, 50, 1));
        let bytes = idx.to_bytes();
        let loaded = ChunkIndex::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded.get(b"k2"), Some(loc(40, 60, 0)));
        assert_eq!(loaded.batches(), idx.batches());
        // Deterministic serialization.
        assert_eq!(loaded.to_bytes(), bytes);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(ChunkIndex::from_bytes(&[0xFF]).is_err());
        let mut good = ChunkIndex::new();
        good.put(b"k".to_vec(), loc(0, 1, 0));
        let mut bytes = good.to_bytes();
        bytes.push(0); // trailing byte
        assert!(ChunkIndex::from_bytes(&bytes).is_err());
    }

    #[test]
    fn live_bytes_sums_latest_versions_only() {
        let mut idx = ChunkIndex::new();
        idx.put(b"a".to_vec(), loc(0, 10, 0));
        idx.put(b"a".to_vec(), loc(20, 30, 1)); // replaces
        idx.put(b"b".to_vec(), loc(10, 10, 0));
        assert_eq!(idx.live_bytes(), 40);
    }

    #[test]
    fn sorted_mut_is_canonical_and_patches_in_place() {
        let mut idx = ChunkIndex::new();
        idx.put(b"b".to_vec(), loc(0, 7, 0));
        idx.put(b"a".to_vec(), loc(7, 5, 1));
        idx.put(b"ab".to_vec(), loc(12, 3, 1));
        let mut off = 0;
        for (_, l) in idx.sorted_mut() {
            *l = loc(off, l.len, 0);
            off += l.len as u64;
        }
        assert_eq!(idx.get(b"a"), Some(loc(0, 5, 0)));
        assert_eq!(idx.get(b"ab"), Some(loc(5, 3, 0)));
        assert_eq!(idx.get(b"b"), Some(loc(8, 7, 0)));
        assert_eq!(idx.live_bytes(), 15);
    }

    #[test]
    fn batch_ids_are_sequential() {
        let mut idx = ChunkIndex::new();
        assert_eq!(idx.push_batch(BatchInfo { start: 0, end: 1 }), 0);
        assert_eq!(idx.push_batch(BatchInfo { start: 1, end: 2 }), 1);
        assert_eq!(idx.batches().len(), 2);
    }
}
