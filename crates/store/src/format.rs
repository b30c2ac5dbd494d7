//! Chunk file format.
//!
//! A *chunk* holds every preserved MRBGraph edge of one Reduce instance
//! (one K2): `(K2, {(MK, V2)})`. Chunks are the basic unit — the store
//! "always reads, writes, and operates on entire chunks" (paper §3.4).
//!
//! On-disk layout of one chunk (workspace codec primitives):
//!
//! ```text
//! key_len   varint
//! key       key_len bytes
//! n_entries varint
//! n × { mk: 16 bytes LE, v_len: varint, v: v_len bytes }
//! ```
//!
//! Entries are kept sorted by MK. The shuffle emits `(K2, MK)`-sorted runs,
//! so initial chunks arrive sorted for free; merges maintain the invariant.

use i2mr_common::codec::{read_varint, write_varint};
use i2mr_common::error::{Error, Result};
use i2mr_common::hash::{stable_hash64, MapKey};

/// Bytes of frame header (little-endian checksum) prepended to every chunk
/// written to an MRBGraph file. A *frame* is `checksum ‖ chunk-encoding`;
/// [`crate::index::ChunkLoc::len`] covers the whole frame.
pub const FRAME_OVERHEAD: usize = 4;

/// Checksum over one chunk's encoded bytes (low 32 bits of the workspace's
/// stable xxhash64, so frames are byte-identical across process runs).
pub fn frame_checksum(chunk_bytes: &[u8]) -> u32 {
    stable_hash64(chunk_bytes) as u32
}

/// Append `chunk` to `buf` as one checksummed frame.
pub fn encode_framed(chunk: &Chunk, buf: &mut Vec<u8>) {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; FRAME_OVERHEAD]);
    chunk.encode(buf);
    let crc = frame_checksum(&buf[start + FRAME_OVERHEAD..]);
    buf[start..start + FRAME_OVERHEAD].copy_from_slice(&crc.to_le_bytes());
}

/// Decode one checksummed frame from the front of `input`, advancing it.
///
/// Fails on truncation *or* checksum mismatch — a torn or bit-flipped
/// chunk can never decode into plausible-but-wrong edges.
pub fn decode_framed(input: &mut &[u8]) -> Result<Chunk> {
    if input.len() < FRAME_OVERHEAD {
        return Err(Error::codec("chunk frame: truncated checksum"));
    }
    let (crc_bytes, rest) = input.split_at(FRAME_OVERHEAD);
    let expect = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    let mut cur = rest;
    let chunk = Chunk::decode(&mut cur)?;
    let consumed = rest.len() - cur.len();
    if frame_checksum(&rest[..consumed]) != expect {
        return Err(Error::corrupt("chunk frame checksum mismatch"));
    }
    *input = cur;
    Ok(chunk)
}

/// Verify one whole frame for `key` on its raw bytes, without decoding it.
///
/// `frame` must be exactly one frame (a [`crate::index::ChunkLoc`]'s
/// `len` bytes). The checksum is recomputed over everything after the
/// header, and the chunk encoding must open with `key` — the same two
/// conditions a [`decode_framed`] plus key comparison enforces, so a
/// consumer that copies verified frames verbatim (compaction) trusts
/// exactly the bytes a decoding reader would have trusted.
pub fn verify_frame(frame: &[u8], key: &[u8]) -> Result<()> {
    if frame.len() < FRAME_OVERHEAD {
        return Err(Error::codec("chunk frame: truncated checksum"));
    }
    let (crc_bytes, body) = frame.split_at(FRAME_OVERHEAD);
    let expect = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if frame_checksum(body) != expect {
        return Err(Error::corrupt("chunk frame checksum mismatch"));
    }
    let mut cur = body;
    let key_len = read_varint(&mut cur)? as usize;
    if cur.get(..key_len) != Some(key) {
        return Err(Error::corrupt(
            "index points at a chunk for a different key",
        ));
    }
    Ok(())
}

/// Length in bytes of the valid frame prefix of `tail` — crash salvage.
///
/// Frames are self-delimiting, so a crashed writer's file tail can be
/// walked frame by frame; the first frame that fails to decode or
/// checksum marks the torn point. Bytes before it are intact appends
/// (e.g. a deferred merge whose index write never happened) and must be
/// preserved; bytes from it on are garbage to truncate.
pub fn valid_frame_prefix(tail: &[u8]) -> u64 {
    let mut cur = tail;
    loop {
        if cur.is_empty() {
            return tail.len() as u64;
        }
        let before = cur;
        let mut probe = cur;
        match decode_framed(&mut probe) {
            Ok(_) => cur = probe,
            Err(_) => return (tail.len() - before.len()) as u64,
        }
    }
}

/// One MRBGraph edge payload inside a chunk: the source map instance and
/// the intermediate value it contributed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Source Map instance (paper: edge = source MK, destination K2, value V2).
    pub mk: MapKey,
    /// Encoded V2 bytes.
    pub value: Vec<u8>,
}

/// All preserved edges of one Reduce instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// Encoded K2 bytes.
    pub key: Vec<u8>,
    /// Edges sorted by MK.
    pub entries: Vec<ChunkEntry>,
}

impl Chunk {
    /// Build a chunk, sorting entries by MK (last write wins on duplicates).
    pub fn new(key: Vec<u8>, mut entries: Vec<ChunkEntry>) -> Self {
        entries.sort_by_key(|e| e.mk);
        entries.dedup_by(|later, earlier| {
            if later.mk == earlier.mk {
                // keep the later element's value: overwrite `earlier`
                std::mem::swap(&mut earlier.value, &mut later.value);
                true
            } else {
                false
            }
        });
        Chunk { key, entries }
    }

    /// Serialized byte size of this chunk.
    pub fn encoded_len(&self) -> usize {
        let mut n = varint_len(self.key.len() as u64) + self.key.len();
        n += varint_len(self.entries.len() as u64);
        for e in &self.entries {
            n += 16 + varint_len(e.value.len() as u64) + e.value.len();
        }
        n
    }

    /// Append the chunk's encoding to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(self.key.len() as u64, buf);
        buf.extend_from_slice(&self.key);
        write_varint(self.entries.len() as u64, buf);
        for e in &self.entries {
            buf.extend_from_slice(&e.mk.to_bytes());
            write_varint(e.value.len() as u64, buf);
            buf.extend_from_slice(&e.value);
        }
    }

    /// Decode one chunk from the front of `input`.
    pub fn decode(input: &mut &[u8]) -> Result<Chunk> {
        let key_len = read_varint(input)? as usize;
        if input.len() < key_len {
            return Err(Error::codec("chunk: truncated key"));
        }
        let (key, rest) = input.split_at(key_len);
        *input = rest;
        let n = read_varint(input)? as usize;
        let mut entries = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            if input.len() < 16 {
                return Err(Error::codec("chunk: truncated mk"));
            }
            let (mk_bytes, rest) = input.split_at(16);
            *input = rest;
            let mk = MapKey::from_bytes(mk_bytes.try_into().unwrap());
            let v_len = read_varint(input)? as usize;
            if input.len() < v_len {
                return Err(Error::codec("chunk: truncated value"));
            }
            let (v, rest) = input.split_at(v_len);
            *input = rest;
            entries.push(ChunkEntry {
                mk,
                value: v.to_vec(),
            });
        }
        Ok(Chunk {
            key: key.to_vec(),
            entries,
        })
    }

    /// Values in MK order — the Reduce input list `{V2}`.
    pub fn values(&self) -> Vec<Vec<u8>> {
        self.entries.iter().map(|e| e.value.clone()).collect()
    }

    /// Find an entry by MK (entries are MK-sorted).
    pub fn find(&self, mk: MapKey) -> Option<&ChunkEntry> {
        self.entries
            .binary_search_by_key(&mk, |e| e.mk)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Insert or update the entry for `mk` (maintains MK order).
    pub fn upsert(&mut self, mk: MapKey, value: Vec<u8>) {
        match self.entries.binary_search_by_key(&mk, |e| e.mk) {
            Ok(i) => self.entries[i].value = value,
            Err(i) => self.entries.insert(i, ChunkEntry { mk, value }),
        }
    }

    /// Remove the entry for `mk`; returns whether it existed.
    pub fn remove(&mut self, mk: MapKey) -> bool {
        match self.entries.binary_search_by_key(&mk, |e| e.mk) {
            Ok(i) => {
                self.entries.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// True when the chunk has no live edges (the Reduce instance vanished).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Byte length of a varint encoding of `v`.
pub fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(mk: u128, v: &[u8]) -> ChunkEntry {
        ChunkEntry {
            mk: MapKey(mk),
            value: v.to_vec(),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = Chunk::new(
            b"vertex-7".to_vec(),
            vec![entry(3, b"0.25"), entry(1, b"0.5"), entry(2, b"")],
        );
        let mut buf = Vec::new();
        c.encode(&mut buf);
        assert_eq!(buf.len(), c.encoded_len());
        let mut cur = buf.as_slice();
        let d = Chunk::decode(&mut cur).unwrap();
        assert!(cur.is_empty());
        assert_eq!(d, c);
        // Entries sorted by MK after construction.
        let mks: Vec<u128> = d.entries.iter().map(|e| e.mk.0).collect();
        assert_eq!(mks, vec![1, 2, 3]);
    }

    #[test]
    fn new_dedups_by_mk_last_wins() {
        let c = Chunk::new(
            b"k".to_vec(),
            vec![entry(1, b"old"), entry(2, b"x"), entry(1, b"new")],
        );
        assert_eq!(c.entries.len(), 2);
        assert_eq!(c.find(MapKey(1)).unwrap().value, b"new");
    }

    #[test]
    fn upsert_and_remove_maintain_order() {
        let mut c = Chunk::new(b"k".to_vec(), vec![entry(5, b"e"), entry(1, b"a")]);
        c.upsert(MapKey(3), b"c".to_vec());
        c.upsert(MapKey(5), b"E".to_vec());
        let mks: Vec<u128> = c.entries.iter().map(|e| e.mk.0).collect();
        assert_eq!(mks, vec![1, 3, 5]);
        assert_eq!(c.find(MapKey(5)).unwrap().value, b"E");
        assert!(c.remove(MapKey(1)));
        assert!(!c.remove(MapKey(1)));
        assert_eq!(c.entries.len(), 2);
        assert!(!c.is_empty());
        c.remove(MapKey(3));
        c.remove(MapKey(5));
        assert!(c.is_empty());
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let c = Chunk::new(b"key".to_vec(), vec![entry(1, b"value")]);
        let mut buf = Vec::new();
        c.encode(&mut buf);
        for cut in 1..buf.len() {
            let mut cur = &buf[..cut];
            assert!(Chunk::decode(&mut cur).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn empty_chunk_roundtrip() {
        let c = Chunk::new(b"".to_vec(), vec![]);
        let mut buf = Vec::new();
        c.encode(&mut buf);
        let mut cur = buf.as_slice();
        assert_eq!(Chunk::decode(&mut cur).unwrap(), c);
    }

    #[test]
    fn varint_len_matches_encoding() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            assert_eq!(buf.len(), varint_len(v));
        }
    }

    #[test]
    fn values_in_mk_order() {
        let c = Chunk::new(b"k".to_vec(), vec![entry(9, b"z"), entry(2, b"a")]);
        assert_eq!(c.values(), vec![b"a".to_vec(), b"z".to_vec()]);
    }

    #[test]
    fn framed_roundtrip_and_len() {
        let c = Chunk::new(b"key".to_vec(), vec![entry(1, b"value")]);
        let mut buf = Vec::new();
        encode_framed(&c, &mut buf);
        assert_eq!(buf.len(), c.encoded_len() + FRAME_OVERHEAD);
        let mut cur = buf.as_slice();
        assert_eq!(decode_framed(&mut cur).unwrap(), c);
        assert!(cur.is_empty());
    }

    #[test]
    fn framed_decode_rejects_any_bit_flip() {
        let c = Chunk::new(b"key".to_vec(), vec![entry(1, b"value")]);
        let mut buf = Vec::new();
        encode_framed(&c, &mut buf);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            let mut cur = bad.as_slice();
            // Either the decode structure breaks or the checksum catches it;
            // a flipped frame must never decode as the original chunk.
            if let Ok(d) = decode_framed(&mut cur) {
                assert_ne!(d, c, "bit flip at {i} went undetected");
            }
        }
    }

    #[test]
    fn verify_frame_rejects_wrong_keys_tears_and_every_bit_flip() {
        let c = Chunk::new(b"key".to_vec(), vec![entry(1, b"value"), entry(2, b"")]);
        let mut buf = Vec::new();
        encode_framed(&c, &mut buf);
        verify_frame(&buf, b"key").unwrap();
        assert!(verify_frame(&buf, b"kez").is_err(), "wrong key");
        assert!(
            verify_frame(&buf, b"ke").is_err(),
            "key prefix is not the key"
        );
        assert!(verify_frame(&buf[..buf.len() - 1], b"key").is_err(), "torn");
        assert!(verify_frame(&buf[..3], b"key").is_err(), "torn header");
        for i in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    verify_frame(&bad, b"key").is_err(),
                    "flip of bit {bit} at byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn valid_frame_prefix_stops_at_torn_frame() {
        let a = Chunk::new(b"a".to_vec(), vec![entry(1, b"first")]);
        let b = Chunk::new(b"b".to_vec(), vec![entry(2, b"second")]);
        let mut buf = Vec::new();
        encode_framed(&a, &mut buf);
        let first_len = buf.len() as u64;
        encode_framed(&b, &mut buf);
        let full_len = buf.len() as u64;
        assert_eq!(valid_frame_prefix(&buf), full_len, "intact tail keeps all");
        // Tear the second frame anywhere: only the first frame survives.
        for cut in (first_len as usize + 1)..buf.len() {
            assert_eq!(valid_frame_prefix(&buf[..cut]), first_len, "cut at {cut}");
        }
        assert_eq!(valid_frame_prefix(&[]), 0);
    }
}
