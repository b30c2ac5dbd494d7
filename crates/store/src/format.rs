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

/// Walk one frame's entries in place, without decoding it into a
/// [`Chunk`]: each item borrows its `(MK, value)` straight from `frame`.
///
/// `frame` is exactly one frame, header included. Only the key and entry
/// count are parsed here; the checksum is **not** checked — a frame read
/// from disk goes through [`verify_frame`] first. The merge walks stored
/// frames this way, and Reduce reads merged values out of them.
pub fn frame_entries(frame: &[u8]) -> Result<FrameEntries<'_>> {
    let body = frame
        .get(FRAME_OVERHEAD..)
        .ok_or_else(|| Error::codec("chunk frame: truncated checksum"))?;
    Ok(chunk_header(body)?.1)
}

/// The key and the (unwalked) entries of the chunk encoding at the front
/// of `input`.
fn chunk_header(input: &[u8]) -> Result<(&[u8], FrameEntries<'_>)> {
    let mut cur = input;
    let key_len = read_varint(&mut cur)? as usize;
    if cur.len() < key_len {
        return Err(Error::codec("chunk: truncated key"));
    }
    let (key, mut cur) = cur.split_at(key_len);
    let left = read_varint(&mut cur)? as usize;
    Ok((key, FrameEntries { rest: cur, left }))
}

/// Iterator over one frame's entries (see [`frame_entries`]), in the
/// frame's MK order.
#[derive(Clone, Debug, Default)]
pub struct FrameEntries<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> FrameEntries<'a> {
    /// The encoded entries not yet walked. Two of these bound a run of
    /// entries, which the merge copies verbatim.
    pub(crate) fn rest(&self) -> &'a [u8] {
        self.rest
    }

    fn read(&mut self) -> Result<(MapKey, &'a [u8])> {
        let (mk_bytes, mut cur) = self
            .rest
            .split_first_chunk::<16>()
            .ok_or_else(|| Error::codec("chunk: truncated mk"))?;
        let v_len = read_varint(&mut cur)? as usize;
        if cur.len() < v_len {
            return Err(Error::codec("chunk: truncated value"));
        }
        let (value, rest) = cur.split_at(v_len);
        self.rest = rest;
        Ok((MapKey::from_bytes(*mk_bytes), value))
    }
}

impl<'a> Iterator for FrameEntries<'a> {
    type Item = Result<(MapKey, &'a [u8])>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        let entry = self.read();
        // A malformed entry ends the walk: its error is the last item.
        self.left = if entry.is_ok() { self.left - 1 } else { 0 };
        Some(entry)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for FrameEntries<'_> {}

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
        let (key, mut walk) = chunk_header(input)?;
        let mut entries = Vec::with_capacity(walk.len().min(4096));
        for entry in walk.by_ref() {
            let (mk, value) = entry?;
            entries.push(ChunkEntry {
                mk,
                value: value.to_vec(),
            });
        }
        *input = walk.rest();
        Ok(Chunk {
            key: key.to_vec(),
            entries,
        })
    }

    /// Find an entry by MK (entries are MK-sorted).
    pub fn find(&self, mk: MapKey) -> Option<&ChunkEntry> {
        self.entries
            .binary_search_by_key(&mk, |e| e.mk)
            .ok()
            .map(|i| &self.entries[i])
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
        let mut buf = Vec::new();
        encode_framed(&c, &mut buf);
        let entries = frame_entries(&buf).unwrap();
        assert_eq!(entries.len(), 2);
        let got: Vec<(MapKey, &[u8])> = entries.map(Result::unwrap).collect();
        assert_eq!(got, vec![(MapKey(2), &b"a"[..]), (MapKey(9), &b"z"[..])]);
    }

    #[test]
    fn frame_entries_borrow_in_place_and_reject_truncation() {
        let c = Chunk::new(
            b"key".to_vec(),
            vec![entry(1, b""), entry(7, &[0xAB; 200]), entry(9, b"v")],
        );
        let mut buf = Vec::new();
        encode_framed(&c, &mut buf);
        let walked: Vec<ChunkEntry> = frame_entries(&buf)
            .unwrap()
            .map(|e| {
                let (mk, value) = e.unwrap();
                ChunkEntry {
                    mk,
                    value: value.to_vec(),
                }
            })
            .collect();
        assert_eq!(walked, c.entries);
        let mut all = frame_entries(&buf).unwrap();
        all.by_ref().for_each(drop);
        assert!(all.rest().is_empty(), "the walk ends at the frame's end");
        // A torn frame yields an error (once), never a short clean walk.
        for cut in 0..buf.len() {
            let walk = frame_entries(&buf[..cut]).and_then(|es| es.collect::<Result<Vec<_>>>());
            assert!(walk.is_err(), "cut at {cut}");
            if let Ok(es) = frame_entries(&buf[..cut]) {
                assert_eq!(es.filter(Result::is_err).count(), 1, "cut at {cut}");
            }
        }
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
