//! Merging a delta MRBGraph into the preserved MRBGraph.
//!
//! "The merging of the delta MRBGraph with the MRBGraph file in the
//! MRBG-Store is essentially a join operation using K2 as the join key...
//! we apply the index nested loop join" (paper §3.4). The join over keys
//! lives in [`crate::store::MrbgStore::merge_apply`]; this module defines
//! the delta record types, the per-chunk application rule (paper §3.3)
//! and the frame-level merge that applies it:
//!
//! * `(K2, MK, '-')` — delete the preserved edge `(K2, MK)`;
//! * `(K2, MK, V2')` — insert the edge, or update it if `(K2, MK)` exists.
//!
//! Deletions are applied before insertions within one merge: an *update* in
//! the Map input is represented as a deletion followed by an insertion of
//! the same `(K2, MK)` (possibly produced by different map tasks, so arrival
//! order is not reliable), and delete-then-insert is the only composition
//! that realizes update semantics. Of several insertions of one `(K2, MK)`,
//! the last in emission order wins. A record genuinely inserted *and*
//! deleted within one delta cannot occur: a delta describes a set
//! difference.
//!
//! The merge never builds a [`crate::format::Chunk`]. It walks the stored
//! frame's entries as borrowed `(MK, value)` slices, joins them with the
//! delta's net operation per MK, and writes the merged frame straight into
//! the pass's [`MergedBatch`]: runs of untouched entries are copied
//! verbatim, and the result is byte-identical to decoding the chunk,
//! applying the rule and re-encoding it.

use crate::format::{frame_checksum, frame_entries, varint_len, FrameEntries, FRAME_OVERHEAD};
use i2mr_common::codec::write_varint;
use i2mr_common::error::{Error, Result};
use i2mr_common::hash::MapKey;
use std::ops::Range;

/// One edge change produced by incremental Map computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaEntry {
    /// Insert or update the edge `(K2, MK)` with a new V2.
    Insert(MapKey, Vec<u8>),
    /// Delete the edge `(K2, MK)`.
    Delete(MapKey),
}

impl DeltaEntry {
    /// The map instance this change originates from.
    pub fn mk(&self) -> MapKey {
        match self {
            DeltaEntry::Insert(mk, _) | DeltaEntry::Delete(mk) => *mk,
        }
    }
}

/// All edge changes targeting one Reduce instance (one K2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaChunk {
    /// Encoded K2 bytes.
    pub key: Vec<u8>,
    /// Changes in emission order.
    pub entries: Vec<DeltaEntry>,
}

/// The output of one merge pass over one store: the merged frames back to
/// back, exactly as they were appended to the file, and one outcome per
/// delta key in canonical key order.
///
/// An outcome is the merged frame of a Reduce instance that still has
/// edges — its up-to-date input `{(MK, V2)}`, read through
/// [`crate::format::frame_entries`] — or `None` when all its edges were
/// deleted (the instance and its former output vanished).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct MergedBatch {
    bytes: Vec<u8>,
    outcomes: Vec<(Vec<u8>, Option<Range<usize>>)>,
}

impl MergedBatch {
    /// Number of outcomes (one per merged delta chunk).
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// True when the pass merged nothing.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// `(key, merged frame)` per outcome, in canonical key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[u8], Option<&[u8]>)> + '_ {
        self.outcomes
            .iter()
            .map(|(key, span)| (key.as_slice(), span.clone().map(|s| &self.bytes[s])))
    }

    /// The appended batch: every merged frame, in outcome order.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    pub(crate) fn new(bytes: Vec<u8>, outcomes: Vec<(Vec<u8>, Option<Range<usize>>)>) -> Self {
        MergedBatch { bytes, outcomes }
    }
}

/// One MK's net change within a delta chunk: the value it ends up with,
/// or `None` for a deletion.
pub(crate) type NetOp<'d> = (MapKey, Option<&'d [u8]>);

/// Merge `delta` into its stored frame and append the merged frame to
/// `out`. `stored` must be a [verified](crate::format::verify_frame) frame
/// for `delta.key`; `ops` is scratch reused across calls. Returns the
/// merged frame's span in `out`, or `None` — with `out` unchanged — when
/// no edge survives.
pub(crate) fn merge_frame<'d>(
    stored: Option<&[u8]>,
    delta: &'d DeltaChunk,
    ops: &mut Vec<NetOp<'d>>,
    out: &mut Vec<u8>,
) -> Result<Option<Range<usize>>> {
    // The net operation per MK, in MK order. The sort is stable, so equal
    // MKs keep emission order: the last insertion wins, and a deletion
    // only survives where no insertion follows or precedes it. (Shuffled
    // deltas arrive MK-sorted already.)
    ops.clear();
    ops.extend(delta.entries.iter().map(|e| match e {
        DeltaEntry::Insert(mk, v) => (*mk, Some(v.as_slice())),
        DeltaEntry::Delete(mk) => (*mk, None),
    }));
    if ops.windows(2).any(|w| w[0].0 > w[1].0) {
        ops.sort_by_key(|op| op.0);
    }
    ops.dedup_by(|later, kept| {
        if later.0 != kept.0 {
            return false;
        }
        if later.1.is_some() {
            kept.1 = later.1;
        }
        true
    });

    let mut stored = match stored {
        Some(frame) => frame_entries(frame)?,
        None => FrameEntries::default(),
    };
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_OVERHEAD]);
    write_varint(delta.key.len() as u64, out);
    out.extend_from_slice(&delta.key);
    // The entry count is known only after the join: reserve its largest
    // possible width now and close the gap afterwards.
    let upper = stored.len() + ops.iter().filter(|op| op.1.is_some()).count();
    let count_at = out.len();
    let reserved = varint_len(upper as u64);
    out.resize(count_at + reserved, 0);

    let mut count = 0u64;
    let mut ops = ops.iter().peekable();
    // The run of untouched stored entries not yet copied starts here.
    let mut run = stored.rest();
    let mut prev: Option<MapKey> = None;
    loop {
        let before = stored.rest();
        let Some(entry) = stored.next() else { break };
        let (mk, _) = entry?;
        if prev >= Some(mk) {
            return Err(Error::corrupt("stored chunk entries out of MK order"));
        }
        prev = Some(mk);
        // Inserts of MKs this entry precedes land before it; deleting an
        // absent MK is a no-op.
        let mut replaced = false;
        while let Some(&&(op_mk, value)) = ops.peek() {
            if op_mk > mk {
                break;
            }
            ops.next();
            replaced = op_mk == mk;
            if let Some(value) = value {
                out.extend_from_slice(&run[..run.len() - before.len()]);
                run = before;
                write_entry(op_mk, value, out);
                count += 1;
            }
        }
        if replaced {
            out.extend_from_slice(&run[..run.len() - before.len()]);
            run = stored.rest();
        } else {
            count += 1;
        }
    }
    if !stored.rest().is_empty() {
        return Err(Error::corrupt("stored chunk frame has trailing bytes"));
    }
    out.extend_from_slice(run);
    for &(mk, value) in ops {
        if let Some(value) = value {
            write_entry(mk, value, out);
            count += 1;
        }
    }

    if count == 0 {
        out.truncate(start);
        return Ok(None);
    }
    let width = varint_len(count);
    if width < reserved {
        out.copy_within(count_at + reserved.., count_at + width);
        out.truncate(out.len() - (reserved - width));
    }
    put_varint(count, &mut out[count_at..count_at + width]);
    let crc = frame_checksum(&out[start + FRAME_OVERHEAD..]);
    out[start..start + FRAME_OVERHEAD].copy_from_slice(&crc.to_le_bytes());
    #[cfg(debug_assertions)]
    debug_check_merged(&out[start..], &delta.key, count);
    Ok(Some(start..out.len()))
}

/// Append one encoded entry (the chunk format's `mk ‖ v_len ‖ v`).
fn write_entry(mk: MapKey, value: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&mk.to_bytes());
    write_varint(value.len() as u64, out);
    out.extend_from_slice(value);
}

/// [`write_varint`] into a slice of exactly the varint's width.
fn put_varint(mut v: u64, dst: &mut [u8]) {
    for b in dst.iter_mut() {
        *b = (v & 0x7F) as u8 | if v >= 0x80 { 0x80 } else { 0 };
        v >>= 7;
    }
    debug_assert_eq!(v, 0, "varint wider than its slot");
}

/// A merged frame verifies, and its entries are exactly `count`, in
/// strictly ascending MK order.
#[cfg(debug_assertions)]
fn debug_check_merged(frame: &[u8], key: &[u8], count: u64) {
    crate::format::verify_frame(frame, key).expect("merged frame fails verification");
    let mut entries = frame_entries(frame).expect("merged frame header");
    assert_eq!(entries.len() as u64, count, "merged entry count");
    let mut prev = None;
    for entry in entries.by_ref() {
        let (mk, _) = entry.expect("merged entry");
        assert!(prev < Some(mk), "merged MKs not strictly ascending");
        prev = Some(mk);
    }
    assert!(entries.rest().is_empty(), "merged frame has trailing bytes");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{decode_framed, encode_framed, Chunk, ChunkEntry};

    fn chunk(key: &[u8], entries: &[(u128, &[u8])]) -> Chunk {
        Chunk::new(
            key.to_vec(),
            entries
                .iter()
                .map(|(mk, v)| ChunkEntry {
                    mk: MapKey(*mk),
                    value: v.to_vec(),
                })
                .collect(),
        )
    }

    fn delta(key: &[u8], entries: Vec<DeltaEntry>) -> DeltaChunk {
        DeltaChunk {
            key: key.to_vec(),
            entries,
        }
    }

    /// Merge `d` into `stored` on frames; the merged chunk, or `None` when
    /// the instance was removed.
    fn apply(stored: Option<&Chunk>, d: &DeltaChunk) -> Option<Chunk> {
        let mut frame = Vec::new();
        if let Some(c) = stored {
            encode_framed(c, &mut frame);
        }
        let mut out = b"prefix".to_vec();
        let span = merge_frame(stored.map(|_| &frame[..]), d, &mut Vec::new(), &mut out).unwrap();
        let Some(span) = span else {
            assert_eq!(out, b"prefix", "a removal writes nothing");
            return None;
        };
        assert_eq!(span, 6..out.len(), "the merged frame is appended");
        let mut cur = &out[span];
        let merged = decode_framed(&mut cur).unwrap();
        let mut reencoded = Vec::new();
        encode_framed(&merged, &mut reencoded);
        assert_eq!(reencoded, out[6..], "merged frame is canonical");
        Some(merged)
    }

    #[test]
    fn insert_into_missing_chunk_creates_it() {
        let d = delta(b"k", vec![DeltaEntry::Insert(MapKey(1), b"v".to_vec())]);
        let c = apply(None, &d).expect("created");
        assert_eq!(c.key, b"k");
        assert_eq!(c.entries.len(), 1);
    }

    #[test]
    fn delete_of_missing_edge_is_noop_and_may_remove_chunk() {
        let d = delta(b"k", vec![DeltaEntry::Delete(MapKey(9))]);
        assert_eq!(apply(None, &d), None);
        let stored = chunk(b"k", &[(1, b"a")]);
        assert_eq!(apply(Some(&stored), &d), Some(stored));
        assert_eq!(apply(None, &delta(b"k", Vec::new())), None);
    }

    #[test]
    fn update_semantics_delete_then_insert_same_mk() {
        let stored = chunk(b"2", &[(0, b"0.3"), (7, b"0.1")]);
        // Update of edge (2, MK=0): delete + insert, possibly out of order.
        for order in [
            vec![
                DeltaEntry::Delete(MapKey(0)),
                DeltaEntry::Insert(MapKey(0), b"0.6".to_vec()),
            ],
            vec![
                DeltaEntry::Insert(MapKey(0), b"0.6".to_vec()),
                DeltaEntry::Delete(MapKey(0)),
            ],
        ] {
            let c = apply(Some(&stored), &delta(b"2", order)).expect("updated");
            assert_eq!(c.find(MapKey(0)).unwrap().value, b"0.6");
            assert_eq!(c.entries.len(), 2);
        }
    }

    #[test]
    fn last_insert_of_an_mk_wins() {
        let stored = chunk(b"k", &[(1, b"old")]);
        let d = delta(
            b"k",
            vec![
                DeltaEntry::Insert(MapKey(1), b"first".to_vec()),
                DeltaEntry::Delete(MapKey(1)),
                DeltaEntry::Insert(MapKey(1), b"last".to_vec()),
            ],
        );
        assert_eq!(apply(Some(&stored), &d), Some(chunk(b"k", &[(1, b"last")])));
    }

    #[test]
    fn deleting_all_edges_removes_the_instance() {
        let stored = chunk(b"k", &[(1, b"a"), (2, b"b")]);
        let d = delta(
            b"k",
            vec![DeltaEntry::Delete(MapKey(1)), DeltaEntry::Delete(MapKey(2))],
        );
        assert_eq!(apply(Some(&stored), &d), None);
    }

    #[test]
    fn untouched_edges_survive() {
        let stored = chunk(b"k", &[(1, b"keep"), (2, b"gone")]);
        let d = delta(
            b"k",
            vec![
                DeltaEntry::Delete(MapKey(2)),
                DeltaEntry::Insert(MapKey(3), b"new".to_vec()),
            ],
        );
        let c = apply(Some(&stored), &d).expect("updated");
        assert_eq!(c.find(MapKey(1)).unwrap().value, b"keep");
        assert!(c.find(MapKey(2)).is_none());
        assert_eq!(c.find(MapKey(3)).unwrap().value, b"new");
    }

    #[test]
    fn upsert_and_remove_maintain_order() {
        let stored = chunk(b"k", &[(5, b"e"), (1, b"a"), (9, b"i")]);
        let d = delta(
            b"k",
            vec![
                DeltaEntry::Insert(MapKey(3), b"c".to_vec()),
                DeltaEntry::Insert(MapKey(5), b"E".to_vec()),
                DeltaEntry::Delete(MapKey(1)),
                DeltaEntry::Insert(MapKey(0), b"z".to_vec()),
                DeltaEntry::Insert(MapKey(12), b"l".to_vec()),
            ],
        );
        let c = apply(Some(&stored), &d).expect("updated");
        let mks: Vec<u128> = c.entries.iter().map(|e| e.mk.0).collect();
        assert_eq!(mks, vec![0, 3, 5, 9, 12]);
        assert_eq!(c.find(MapKey(5)).unwrap().value, b"E");
    }

    #[test]
    fn entry_count_narrowing_below_its_reserved_width() {
        // 128 entries need a two-byte count; after one delete, 127 fit in
        // one byte, so the body shifts down over the reserved gap.
        let values: Vec<(u128, Vec<u8>)> = (0..128).map(|i| (i, vec![i as u8; 3])).collect();
        let entries: Vec<(u128, &[u8])> = values.iter().map(|(mk, v)| (*mk, &v[..])).collect();
        let stored = chunk(b"wide", &entries);
        let d = delta(b"wide", vec![DeltaEntry::Delete(MapKey(64))]);
        let c = apply(Some(&stored), &d).expect("updated");
        assert_eq!(c.entries.len(), 127);
        // And the other way: an insert that needs a wider count than stored.
        let stored = chunk(b"wide", &entries[..127]);
        let d = delta(b"wide", vec![DeltaEntry::Insert(MapKey(500), vec![7; 200])]);
        assert_eq!(
            apply(Some(&stored), &d).expect("updated").entries.len(),
            128
        );
    }

    #[test]
    fn stored_entries_out_of_mk_order_fail_the_merge() {
        let bad = Chunk {
            key: b"k".to_vec(),
            entries: vec![
                ChunkEntry {
                    mk: MapKey(2),
                    value: b"b".to_vec(),
                },
                ChunkEntry {
                    mk: MapKey(1),
                    value: b"a".to_vec(),
                },
            ],
        };
        let mut frame = Vec::new();
        encode_framed(&bad, &mut frame);
        let d = delta(b"k", vec![DeltaEntry::Delete(MapKey(9))]);
        let mut out = Vec::new();
        assert!(merge_frame(Some(&frame), &d, &mut Vec::new(), &mut out).is_err());
    }

    #[test]
    fn outcome_values_accessor() {
        let d = delta(b"k", vec![DeltaEntry::Insert(MapKey(5), b"x".to_vec())]);
        let mut bytes = Vec::new();
        let span = merge_frame(None, &d, &mut Vec::new(), &mut bytes).unwrap();
        let batch = MergedBatch::new(bytes, vec![(b"k".to_vec(), span), (b"gone".to_vec(), None)]);
        assert_eq!(batch.len(), 2);
        let outcomes: Vec<(&[u8], Option<&[u8]>)> = batch.iter().collect();
        assert_eq!(outcomes[0].1, Some(batch.bytes()));
        let values: Vec<&[u8]> = frame_entries(outcomes[0].1.unwrap())
            .unwrap()
            .map(|e| e.unwrap().1)
            .collect();
        assert_eq!(values, vec![&b"x"[..]]);
        assert_eq!(outcomes[1], (&b"gone"[..], None));
    }
}
