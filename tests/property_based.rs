//! Property-based tests (proptest) on the core invariants.
//!
//! * **Store model-checking**: an `MrbgStore` driven by arbitrary
//!   insert/delete/update/compact sequences behaves exactly like an
//!   in-memory `HashMap<key, BTreeMap<mk, value>>` model.
//! * **Commit protocol**: under arbitrary sequences of deferred merges,
//!   commits, appends, compactions and crashes (drop without commit, with
//!   or without a torn tail), a reopened store is exactly the model at the
//!   last commit.
//! * **Deferred commits**: a store that commits once at the end reads
//!   exactly like one that commits after every merge, through every read
//!   path, across compactions, and reopens to the same live set.
//! * **Frame merge**: merging a delta into stored frames yields, per key,
//!   exactly the framed chunk of an independent BTreeMap model — or a
//!   removal when the model is empty.
//! * **Delta application**: `Delta::apply_to` yields the multiset — and the
//!   documented order — of applying the records one at a time.
//! * **Incremental ≡ recompute**: for arbitrary datasets and arbitrary
//!   valid deltas, the one-step incremental engine's refreshed output
//!   equals a from-scratch re-computation.
//! * **Codec round-trips** for composite kv types.
//! * **Partitioning co-location**: arbitrary structure keys always land in
//!   their projected state key's partition.
//! * **Full-pass shuffle plans**: planned full passes equal a plain loop
//!   bit for bit when keys change under equal counts, when the emission
//!   grows (SSSP from scratch), and across a rewind inside a planned pass.

use i2mapreduce::common::codec::{decode_exact, encode_to};
use i2mapreduce::common::hash::MapKey;
use i2mapreduce::core::Op as DeltaOp;
use i2mapreduce::prelude::*;
use i2mapreduce::store::{
    encode_framed, frame_entries, Chunk, ChunkEntry, ChunkIndex, ChunkLoc, DeltaChunk, DeltaEntry,
    MrbgStore, StoreReader,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

fn scratch(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "i2mr-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

// ---------------------------------------------------------------------------
// Store model checking
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum StoreOp {
    /// Merge a batch of per-key edge changes.
    Merge(Vec<(u8, Vec<(u8, Option<u8>)>)>),
    /// Offline compaction.
    Compact,
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        4 => proptest::collection::vec(
            (
                0u8..12,
                proptest::collection::vec((0u8..6, proptest::option::of(any::<u8>())), 1..4),
            ),
            1..6,
        )
        .prop_map(StoreOp::Merge),
        1 => Just(StoreOp::Compact),
    ]
}

/// The reference model: live key → (MK → value).
type Model = HashMap<Vec<u8>, BTreeMap<u128, Vec<u8>>>;
/// One merge batch's edge changes, per distinct key.
type KeyedChanges = BTreeMap<Vec<u8>, Vec<(u8, Option<u8>)>>;

/// Turn generated per-key edge changes into one merge batch, collapsing
/// duplicate keys (the engine's shuffle grouping guarantees distinct keys).
fn merge_deltas(groups: Vec<(u8, Vec<(u8, Option<u8>)>)>) -> (Vec<DeltaChunk>, KeyedChanges) {
    let mut by_key = KeyedChanges::new();
    for (k, entries) in groups {
        by_key.entry(vec![k]).or_default().extend(entries);
    }
    let deltas = by_key
        .iter()
        .map(|(key, entries)| DeltaChunk {
            key: key.clone(),
            entries: entries
                .iter()
                .map(|(mk, v)| match v {
                    Some(b) => DeltaEntry::Insert(MapKey(*mk as u128), vec![*b]),
                    None => DeltaEntry::Delete(MapKey(*mk as u128)),
                })
                .collect(),
        })
        .collect();
    (deltas, by_key)
}

/// Apply a merge batch to the model with the store's semantics: deletes
/// first, then upserts, per key; a key left without edges vanishes.
fn apply_to_model(model: &mut Model, by_key: KeyedChanges) {
    for (key, entries) in by_key {
        let slot = model.entry(key.clone()).or_default();
        for (mk, v) in &entries {
            if v.is_none() {
                slot.remove(&(*mk as u128));
            }
        }
        for (mk, v) in &entries {
            if let Some(b) = v {
                slot.insert(*mk as u128, vec![*b]);
            }
        }
        if slot.is_empty() {
            model.remove(&key);
        }
    }
}

/// The model's live chunks in canonical key order — what
/// `MrbgStore::all_chunks` must return.
fn model_chunks(model: &Model) -> Vec<Chunk> {
    let mut keys: Vec<&Vec<u8>> = model.keys().collect();
    keys.sort();
    keys.into_iter()
        .map(|key| Chunk {
            key: key.clone(),
            entries: model[key]
                .iter()
                .map(|(mk, value)| ChunkEntry {
                    mk: MapKey(*mk),
                    value: value.clone(),
                })
                .collect(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Commit protocol
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum CommitOp {
    /// `merge_apply_deferred`: frames to the pending set (and, past its
    /// bound, written back to the page cache), no commit.
    DeferredMerge(Vec<(u8, Vec<(u8, Option<u8>)>)>),
    /// `persist_index`.
    Commit,
    /// `append_batch` of whole chunks (replacing any live version).
    Append(Vec<(u8, Vec<(u8, u8)>)>),
    /// `compact`.
    Compact,
    /// Drop without commit, reopen.
    Crash,
    /// Drop without commit, cut the data file somewhere in the
    /// uncommitted tail (`indexed_end + seed % (tail + 1)`), reopen.
    TornCrash(u32),
}

/// The pending-set bound of `reopened_store_is_the_last_commit`.
const COMMIT_TEST_PENDING_CAP: u64 = 256;

/// A store's pending set as the commit test sees it: per touched key, its
/// merged frame's length, or `None` for a removal.
type PendingModel = BTreeMap<Vec<u8>, Option<u64>>;

fn pending_bytes(pending: &PendingModel) -> u64 {
    pending.values().flatten().sum()
}

/// A write-back: the pending frames land back to back from `at`, in key
/// order, as frames of the uncommitted tail.
fn write_back(pending: &mut PendingModel, at: &mut u64, frame_ends: &mut Vec<u64>) {
    for len in std::mem::take(pending).into_values().flatten() {
        *at += len;
        frame_ends.push(*at);
    }
}

fn commit_op() -> impl Strategy<Value = CommitOp> {
    let edges = proptest::collection::vec((0u8..6, proptest::option::of(any::<u8>())), 1..4);
    let chunk = proptest::collection::vec((0u8..6, any::<u8>()), 1..4);
    prop_oneof![
        6 => proptest::collection::vec((0u8..12, edges), 1..6).prop_map(CommitOp::DeferredMerge),
        2 => Just(CommitOp::Commit),
        1 => proptest::collection::vec((0u8..12, chunk), 1..4).prop_map(CommitOp::Append),
        1 => Just(CommitOp::Compact),
        1 => Just(CommitOp::Crash),
        3 => any::<u32>().prop_map(CommitOp::TornCrash),
    ]
}

// ---------------------------------------------------------------------------
// Deferred commits
// ---------------------------------------------------------------------------

/// The pending-set bound of `deferring_the_commit_is_invisible`: a few
/// merges of values ≥ 128 B cross it.
const DEFER_TEST_PENDING_CAP: u64 = 1024;

#[derive(Clone, Debug)]
enum DeferOp {
    /// Per-key changes over a five-MK domain; `true` instead deletes
    /// every MK, removing the key's chunk.
    Merge(Vec<(u8, Vec<(u8, Option<Vec<u8>>)>, bool)>),
    /// `compact` the deferring store (a commit of its own).
    Compact,
}

fn defer_op() -> impl Strategy<Value = DeferOp> {
    let changes = proptest::collection::vec((0u8..5, proptest::option::of(edge_value())), 1..5);
    let wipe = prop_oneof![5 => Just(false), 1 => Just(true)];
    prop_oneof![
        6 => proptest::collection::vec((0u8..16, changes, wipe), 1..8).prop_map(DeferOp::Merge),
        1 => Just(DeferOp::Compact),
    ]
}

/// One merge's delta chunks, one per distinct key in key order.
fn defer_deltas(groups: Vec<(u8, Vec<(u8, Option<Vec<u8>>)>, bool)>) -> Vec<DeltaChunk> {
    let mut by_key: BTreeMap<u8, Vec<DeltaEntry>> = BTreeMap::new();
    for (key, changes, wipe) in groups {
        let entries = by_key.entry(key).or_default();
        if wipe {
            entries.extend((0..5).map(|mk| DeltaEntry::Delete(MapKey(mk))));
        } else {
            entries.extend(changes.into_iter().map(|(mk, value)| match value {
                Some(v) => DeltaEntry::Insert(MapKey(mk as u128), v),
                None => DeltaEntry::Delete(MapKey(mk as u128)),
            }));
        }
    }
    by_key
        .into_iter()
        .map(|(key, entries)| DeltaChunk {
            key: vec![key],
            entries,
        })
        .collect()
}

/// Every read path of `a` and `b` returns the same: `len`, `live_bytes`,
/// `keys_in_range`, `get` and `get_with` of every key, `chunks_iter`, and
/// the `export` payload bytes.
fn assert_same_reads(
    a: &mut MrbgStore,
    b: &mut MrbgStore,
    readers: &mut (StoreReader, StoreReader),
    (lo, hi): (u8, u8),
) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.live_bytes(), b.live_bytes());
    assert_eq!(a.keys_in_range(&[lo], &[hi]), b.keys_in_range(&[lo], &[hi]));
    for key in 0..16u8 {
        let got = a.get(&[key]).unwrap();
        assert_eq!(got, b.get(&[key]).unwrap(), "get {key}");
        assert_eq!(
            a.get_with(&mut readers.0, &[key]).unwrap(),
            got,
            "get_with {key}"
        );
        assert_eq!(
            b.get_with(&mut readers.1, &[key]).unwrap(),
            got,
            "get_with {key}"
        );
    }
    let chunks = |s: &mut MrbgStore| s.chunks_iter().collect::<Result<Vec<Chunk>, _>>().unwrap();
    assert_eq!(chunks(a), chunks(b));
    assert_eq!(a.export().unwrap(), b.export().unwrap());
}

// ---------------------------------------------------------------------------
// Frame merge
// ---------------------------------------------------------------------------

/// An edge value: empty, short, or long enough for a two-byte length
/// varint, with content that differs per seed.
fn edge_value() -> impl Strategy<Value = Vec<u8>> {
    (
        prop_oneof![1 => Just(0usize), 3 => 1usize..6, 1 => 128usize..160],
        any::<u8>(),
    )
        .prop_map(|(len, seed)| (0..len).map(|i| seed.wrapping_add(i as u8)).collect())
}

/// One key's merge case: its stored edges (none = no stored chunk), its
/// delta changes over a five-MK domain (so they collide with each other
/// and with the stored edges), and whether the delta also deletes every
/// stored edge and the absent MK 9.
type FrameCase = (Option<Vec<(u8, Vec<u8>)>>, Vec<(u8, Option<Vec<u8>>)>, bool);

fn frame_case() -> impl Strategy<Value = FrameCase> {
    (
        proptest::option::of(proptest::collection::vec((0u8..5, edge_value()), 1..6)),
        proptest::collection::vec((0u8..5, proptest::option::of(edge_value())), 0..7),
        prop_oneof![4 => Just(false), 1 => Just(true)],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn store_matches_reference_model(ops in proptest::collection::vec(store_op(), 1..12), tag in 0u64..u64::MAX) {
        let mut store = MrbgStore::create(scratch(&format!("model-{tag}")), StoreConfig::default()).unwrap();
        let mut model = Model::new();

        for op in ops {
            match op {
                StoreOp::Merge(groups) => {
                    let (deltas, by_key) = merge_deltas(groups);
                    store.merge_apply(deltas).unwrap();
                    apply_to_model(&mut model, by_key);
                }
                StoreOp::Compact => {
                    let before: Vec<Chunk> =
                        store.all_chunks().unwrap();
                    let stats = store.compact().unwrap();
                    // Compaction preserves the exact chunk set (same keys,
                    // same entries, canonical order), collapses the file to
                    // one batch, and is idempotent: a second pass finds
                    // nothing to reclaim and exports byte-identically.
                    prop_assert_eq!(&store.all_chunks().unwrap(), &before);
                    prop_assert_eq!(store.n_batches(), 1);
                    prop_assert_eq!(stats.live_chunks as usize, before.len());
                    let exported = store.export().unwrap();
                    let again = store.compact().unwrap();
                    prop_assert_eq!(again.reclaimed(), 0);
                    prop_assert_eq!(again.batches_before, 1);
                    prop_assert_eq!(store.export().unwrap(), exported);
                }
            }

            // Invariant: live key set and every chunk's contents match,
            // through both read paths (exclusive `get` and the detached
            // split-read `get_with`).
            prop_assert_eq!(store.len(), model.len());
            let mut reader = store.reader().unwrap();
            for (key, want) in &model {
                let chunk = store.get(key).unwrap().expect("model key missing in store");
                let got: BTreeMap<u128, Vec<u8>> = chunk
                    .entries
                    .iter()
                    .map(|e| (e.mk.0, e.value.clone()))
                    .collect();
                prop_assert_eq!(&got, want);
                let via_reader = store
                    .get_with(&mut reader, key)
                    .unwrap()
                    .expect("split read path missed a live key");
                prop_assert_eq!(via_reader, chunk);
            }
            // Streaming chunks_iter yields the exact live set in canonical
            // (lexicographic) key order.
            let streamed: Vec<Chunk> = store.chunks_iter().collect::<Result<_, _>>().unwrap();
            prop_assert_eq!(streamed.len(), model.len());
            let mut want_keys: Vec<Vec<u8>> = model.keys().cloned().collect();
            want_keys.sort();
            let got_keys: Vec<Vec<u8>> = streamed.iter().map(|c| c.key.clone()).collect();
            prop_assert_eq!(got_keys, want_keys);
        }
    }

    #[test]
    fn reopened_store_is_the_last_commit(ops in proptest::collection::vec(commit_op(), 1..24), tag in 0u64..u64::MAX) {
        let dir = scratch(&format!("commit-{tag}"));
        let data = dir.join("mrbg.data");
        // A pending-set bound a few merges fill, so deferred merges also
        // write back — and crashes tear — uncommitted tails.
        let config = StoreConfig { cache_capacity: COMMIT_TEST_PENDING_CAP, ..StoreConfig::default() };
        let mut store = MrbgStore::create(&dir, config).unwrap();
        // `live` follows the in-memory store, `committed` the last commit.
        let mut live = Model::new();
        let mut committed = Model::new();
        // The store's pending set: each touched key's merged frame length
        // (`None` a removal) since the last write-back.
        let mut pending = PendingModel::new();
        // Where a reopen starts walking the tail: the end of the last
        // batch in the index file (`disk_end`) — and the same for the
        // in-memory index (`mem_end`), which becomes `disk_end` at the
        // next commit. `frame_ends`: every frame boundary past `disk_end`.
        let mut disk_end = store.file_len();
        let mut mem_end;
        let mut frame_ends: Vec<u64> = Vec::new();

        // The ops, then one last crash so every sequence ends in a reopen.
        for op in ops.into_iter().chain([CommitOp::Crash]) {
            let mut commits = false;
            match op {
                CommitOp::DeferredMerge(groups) => {
                    let (deltas, by_key) = merge_deltas(groups);
                    let mut at = store.file_len();
                    for (key, frame) in store.merge_apply_deferred(deltas).unwrap().iter() {
                        pending.insert(key.to_vec(), frame.map(|f| f.len() as u64));
                    }
                    // Past the bound, the merge writes the whole pending
                    // set back as one batch; below it the file is unchanged.
                    if pending_bytes(&pending) > COMMIT_TEST_PENDING_CAP {
                        write_back(&mut pending, &mut at, &mut frame_ends);
                    }
                    prop_assert_eq!(at, store.file_len());
                    prop_assert_eq!(store.pending_bytes(), pending_bytes(&pending));
                    prop_assert!(store.is_dirty());
                    mem_end = at;
                    apply_to_model(&mut live, by_key);
                }
                CommitOp::Commit => {
                    // The commit grows the file by exactly the pending frames.
                    let mut at = store.file_len();
                    write_back(&mut pending, &mut at, &mut frame_ends);
                    store.persist_index().unwrap();
                    prop_assert_eq!(at, store.file_len());
                    mem_end = at;
                    commits = true;
                }
                CommitOp::Append(chunks) => {
                    let batch: Model = chunks
                        .into_iter()
                        .map(|(k, es)| {
                            (vec![k], es.into_iter().map(|(mk, v)| (mk as u128, vec![v])).collect())
                        })
                        .collect();
                    store.append_batch(model_chunks(&batch)).unwrap();
                    pending.clear();
                    live.extend(batch);
                    mem_end = store.file_len();
                    commits = true;
                }
                CommitOp::Compact => {
                    store.compact().unwrap();
                    pending.clear();
                    prop_assert_eq!(store.live_bytes(), store.file_len());
                    // A new file: nothing of the old tail is left.
                    frame_ends.clear();
                    mem_end = store.file_len();
                    commits = true;
                }
                CommitOp::Crash | CommitOp::TornCrash(_) => {
                    let full = store.file_len();
                    drop(store);
                    pending.clear();
                    let mut torn = 0;
                    if let CommitOp::TornCrash(seed) = op {
                        let cut = disk_end + seed as u64 % (full - disk_end + 1);
                        std::fs::OpenOptions::new()
                            .write(true)
                            .open(&data)
                            .unwrap()
                            .set_len(cut)
                            .unwrap();
                        // Whole frames before the cut survive (unindexed,
                        // harmless); only the torn remainder is salvage.
                        frame_ends.retain(|&end| end <= cut);
                        torn = cut - frame_ends.last().copied().unwrap_or(disk_end);
                    }
                    store = MrbgStore::open(&dir, config).unwrap();
                    prop_assert_eq!(store.take_salvaged_bytes(), torn);
                    prop_assert_eq!(
                        store.file_len(),
                        frame_ends.last().copied().unwrap_or(disk_end)
                    );
                    prop_assert_eq!(std::fs::metadata(&data).unwrap().len(), store.file_len());
                    mem_end = disk_end;
                    live = committed.clone();
                }
            }
            if commits {
                prop_assert!(!store.is_dirty());
                committed = live.clone();
                disk_end = mem_end;
                frame_ends.retain(|&end| end > disk_end);
            }
            // In memory the store is `live` — after a reopen, that is the
            // model at the last commit — through the decoding read paths,
            // which verify every frame they return.
            prop_assert_eq!(store.len(), live.len());
            prop_assert_eq!(store.all_chunks().unwrap(), model_chunks(&live));
            for chunk in model_chunks(&live) {
                prop_assert_eq!(store.get(&chunk.key).unwrap().as_ref(), Some(&chunk));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frame_merge_equals_an_independent_model(cases in proptest::collection::vec(frame_case(), 1..6), tag in 0u64..u64::MAX) {
        let mut store = MrbgStore::create(scratch(&format!("frames-{tag}")), StoreConfig::default()).unwrap();
        let mut model = Model::new();
        for (k, (stored, _, _)) in cases.iter().enumerate() {
            if let Some(edges) = stored {
                let slot = model.entry(vec![k as u8]).or_default();
                for (mk, value) in edges {
                    slot.insert(*mk as u128, value.clone());
                }
            }
        }
        store.append_batch(model_chunks(&model)).unwrap();

        // Each key's delta, and the model after it: deletes first, then
        // inserts in emission order (the last insert of an MK wins).
        let mut deltas = Vec::new();
        for (k, (stored, changes, wipe)) in cases.iter().enumerate() {
            let mut entries: Vec<DeltaEntry> = changes
                .iter()
                .map(|(mk, value)| match value {
                    Some(v) => DeltaEntry::Insert(MapKey(*mk as u128), v.clone()),
                    None => DeltaEntry::Delete(MapKey(*mk as u128)),
                })
                .collect();
            if *wipe {
                let stored_mks = stored.iter().flatten().map(|(mk, _)| *mk as u128);
                entries.extend(stored_mks.chain([9]).map(|mk| DeltaEntry::Delete(MapKey(mk))));
            }
            let slot = model.entry(vec![k as u8]).or_default();
            for e in &entries {
                if let DeltaEntry::Delete(mk) = e {
                    slot.remove(&mk.0);
                }
            }
            for e in &entries {
                if let DeltaEntry::Insert(mk, v) = e {
                    slot.insert(mk.0, v.clone());
                }
            }
            if slot.is_empty() {
                model.remove(&vec![k as u8]);
            }
            deltas.push(DeltaChunk { key: vec![k as u8], entries });
        }
        // Reverse the key order: the merge sorts its input.
        deltas.reverse();

        let file_before = store.file_len();
        let merged = store.merge_apply_deferred(deltas).unwrap();
        prop_assert_eq!(merged.len(), cases.len());
        // The merged frames wait in the pending set: the file grows only
        // at the write-back, by exactly those frames.
        prop_assert_eq!(store.file_len(), file_before);
        prop_assert_eq!(store.pending_bytes(), merged.bytes().len() as u64);
        let want: BTreeMap<Vec<u8>, Chunk> =
            model_chunks(&model).into_iter().map(|c| (c.key.clone(), c)).collect();
        let mut appended = Vec::new();
        for (k, (key, frame)) in merged.iter().enumerate() {
            prop_assert_eq!(key, &[k as u8][..]);
            match (frame, want.get(key)) {
                (Some(frame), Some(chunk)) => {
                    let mut framed = Vec::new();
                    encode_framed(chunk, &mut framed);
                    prop_assert_eq!(frame, &framed[..]);
                    let values: Vec<&[u8]> =
                        frame_entries(frame).unwrap().map(|e| e.unwrap().1).collect();
                    let model_values: Vec<&[u8]> =
                        chunk.entries.iter().map(|e| e.value.as_slice()).collect();
                    prop_assert_eq!(values, model_values);
                    appended.extend_from_slice(frame);
                }
                (None, None) => {}
                (frame, chunk) => prop_assert!(
                    false,
                    "key {key:?}: merged {:?} but the model holds {chunk:?}",
                    frame.map(<[u8]>::len)
                ),
            }
            prop_assert_eq!(store.get(key).unwrap().as_ref(), want.get(key));
        }
        prop_assert_eq!(merged.bytes(), &appended[..]);
        prop_assert_eq!(store.all_chunks().unwrap(), model_chunks(&model));
        store.persist_index().unwrap();
        let data = std::fs::read(store.dir().join("mrbg.data")).unwrap();
        prop_assert_eq!(&data[file_before as usize..], merged.bytes());
        prop_assert_eq!(store.all_chunks().unwrap(), model_chunks(&model));
    }

    #[test]
    fn deferring_the_commit_is_invisible(ops in proptest::collection::vec(defer_op(), 1..16), range in (0u8..16, 0u8..16), tag in 0u64..u64::MAX) {
        // One store commits after every merge, the other only at the end
        // (and at its compactions): every read must agree after every step.
        let config = StoreConfig { cache_capacity: DEFER_TEST_PENDING_CAP, ..StoreConfig::default() };
        let dirs = (scratch(&format!("eager-{tag}")), scratch(&format!("deferred-{tag}")));
        let mut eager = MrbgStore::create(&dirs.0, config).unwrap();
        let mut deferred = MrbgStore::create(&dirs.1, config).unwrap();
        let initial: Vec<Chunk> = (0..8u8)
            .map(|k| Chunk::new(vec![k], (0..2).map(|mk| ChunkEntry {
                mk: MapKey(mk),
                value: vec![k; 130 * (k as usize % 2)],
            }).collect()))
            .collect();
        eager.append_batch(initial.clone()).unwrap();
        deferred.append_batch(initial).unwrap();
        // Detached before any merge: they must chase the pending set and
        // every compaction of the file under them.
        let mut readers = (eager.reader().unwrap(), deferred.reader().unwrap());
        assert_same_reads(&mut eager, &mut deferred, &mut readers, range);
        for op in ops {
            match op {
                DeferOp::Merge(groups) => {
                    let deltas = defer_deltas(groups);
                    let merged = eager.merge_apply(deltas.clone()).unwrap();
                    prop_assert_eq!(deferred.merge_apply_deferred(deltas).unwrap(), merged);
                    prop_assert!(deferred.pending_bytes() <= DEFER_TEST_PENDING_CAP);
                    prop_assert!(!eager.is_dirty());
                }
                DeferOp::Compact => {
                    deferred.compact().unwrap();
                    prop_assert_eq!(deferred.pending_bytes(), 0);
                }
            }
            assert_same_reads(&mut eager, &mut deferred, &mut readers, range);
        }
        deferred.persist_index().unwrap();
        prop_assert!(!deferred.is_dirty());
        let live = eager.all_chunks().unwrap();
        drop((eager, deferred));
        let mut reopened = (
            MrbgStore::open(&dirs.0, config).unwrap(),
            MrbgStore::open(&dirs.1, config).unwrap(),
        );
        prop_assert_eq!(reopened.0.all_chunks().unwrap(), live.clone());
        prop_assert_eq!(reopened.1.all_chunks().unwrap(), live);
        let _ = std::fs::remove_dir_all(&dirs.0);
        let _ = std::fs::remove_dir_all(&dirs.1);
    }

    #[test]
    fn index_live_bytes_total_equals_the_scan(ops in proptest::collection::vec(
        (any::<bool>(), 0u8..16, 0u32..5000),
        1..40,
    )) {
        let loc = |len: u32| ChunkLoc { offset: 0, len, batch: 0 };
        let mut idx = ChunkIndex::new();
        for (put, key, len) in ops {
            if put {
                idx.put(vec![key], loc(len));
            } else {
                idx.remove(&[key]);
            }
            let scan: u64 = idx.iter().map(|(_, l)| l.len as u64).sum();
            prop_assert_eq!(idx.live_bytes(), scan);
            prop_assert_eq!(ChunkIndex::from_bytes(&idx.to_bytes()).unwrap().live_bytes(), scan);
        }
    }

    #[test]
    fn chunk_codec_roundtrips(key in proptest::collection::vec(any::<u8>(), 0..24),
                              entries in proptest::collection::vec((any::<u128>(), proptest::collection::vec(any::<u8>(), 0..16)), 0..8)) {
        let chunk = Chunk::new(
            key,
            entries
                .into_iter()
                .map(|(mk, value)| ChunkEntry { mk: MapKey(mk), value })
                .collect(),
        );
        let mut buf = Vec::new();
        chunk.encode(&mut buf);
        prop_assert_eq!(buf.len(), chunk.encoded_len());
        let mut cur = buf.as_slice();
        let decoded = Chunk::decode(&mut cur).unwrap();
        prop_assert!(cur.is_empty());
        prop_assert_eq!(decoded, chunk);
    }

    #[test]
    fn composite_codec_roundtrips(pairs in proptest::collection::vec((any::<u64>(), any::<f64>(), ".{0,12}"), 0..16)) {
        let value: Vec<(u64, f64, String)> = pairs;
        let encoded = encode_to(&value);
        let decoded: Vec<(u64, f64, String)> = decode_exact(&encoded).unwrap();
        prop_assert_eq!(decoded.len(), value.len());
        for ((a1, b1, c1), (a2, b2, c2)) in decoded.iter().zip(&value) {
            prop_assert_eq!(a1, a2);
            prop_assert!((b1 == b2) || (b1.is_nan() && b2.is_nan()));
            prop_assert_eq!(c1, c2);
        }
    }

    #[test]
    fn projected_partitioning_co_locates(sks in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..64), n in 1usize..9) {
        // Structure keys (i, j) projecting to j must land where state key j
        // lands, for any partition count.
        use i2mapreduce::mapred::Partitioner;
        for (i, j) in sks {
            let state_partition = Partitioner::partition(&HashPartitioner, &j, n);
            let proj = encode_to(&j);
            let structure_partition =
                i2mapreduce::mapred::HashPartitioner::partition_bytes(&proj, n);
            prop_assert_eq!(state_partition, structure_partition, "({}, {})", i, j);
        }
    }
}

// ---------------------------------------------------------------------------
// Delta::apply_to ≡ the sequential per-record loop
// ---------------------------------------------------------------------------

/// `Delta::apply_to` as it was before it indexed the deleted keys: apply
/// the records one by one, each delete scanning for its first live match.
/// With `swap_remove` this is that loop verbatim (the multiset reference);
/// with `remove` the same loop keeps the documented order — surviving base
/// records in base order, then surviving inserts in delta order.
fn apply_sequentially(
    base: &[(u64, u8)],
    delta: &Delta<u64, u8>,
    remove: fn(&mut Vec<(u64, u8)>, usize),
) -> Vec<(u64, u8)> {
    let mut out = base.to_vec();
    for r in delta.records() {
        match r.op {
            DeltaOp::Delete => {
                if let Some(pos) = out.iter().position(|(k, v)| *k == r.key && *v == r.value) {
                    remove(&mut out, pos);
                }
            }
            DeltaOp::Insert => out.push((r.key, r.value)),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Keys and values come from tiny domains, so bases hold duplicate keys
    /// and duplicate whole records, and deltas hold matching deletes,
    /// value-mismatched deletes (value 3), deletes of absent keys (key 6),
    /// delete → re-insert and insert → delete of one record, and more
    /// deletes than there are copies.
    #[test]
    fn delta_apply_matches_the_sequential_loop(
        base in proptest::collection::vec((0u64..6, 0u8..3), 0..30),
        ops in proptest::collection::vec((any::<bool>(), 0u64..7, 0u8..4), 0..40),
    ) {
        let mut delta = Delta::new();
        for (delete, key, value) in ops {
            if delete {
                delta.delete(key, value);
            } else {
                delta.insert(key, value);
            }
        }
        let got = delta.apply_to(&base);
        prop_assert_eq!(&got, &apply_sequentially(&base, &delta, |v, i| { v.remove(i); }));
        let mut want = apply_sequentially(&base, &delta, |v, i| { v.swap_remove(i); });
        let mut got = got;
        want.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, want);
    }
}

// ---------------------------------------------------------------------------
// Incremental ≡ recompute, property-based
// ---------------------------------------------------------------------------

/// Arbitrary dataset: records (key, set of (dst, weight)) — the in-edge-sum
/// application of paper Fig. 3.
fn dataset() -> impl Strategy<Value = Vec<(u64, String)>> {
    // Destinations are map keys: a record never lists the same destination
    // twice ((K2, MK) identifies an MRBGraph edge, so a map instance emits
    // one value per key — paper §3.2).
    proptest::collection::vec(
        proptest::collection::btree_map(0u64..30, 1u32..100, 0..4),
        1..40,
    )
    .prop_map(|records| {
        records
            .into_iter()
            .enumerate()
            .map(|(i, edges)| {
                let adj: Vec<String> = edges
                    .into_iter()
                    .map(|(dst, w)| format!("{dst}:{}", w as f64 / 10.0))
                    .collect();
                (i as u64, adj.join(";"))
            })
            .collect()
    })
}

fn edge_mapper(_src: &u64, adj: &String, out: &mut Emitter<u64, f64>) {
    for part in adj.split(';').filter(|s| !s.is_empty()) {
        let (dst, w) = part.split_once(':').unwrap();
        out.emit(dst.parse().unwrap(), w.parse().unwrap());
    }
}

fn sum_reducer(k: &u64, vs: Values<u64, f64>, out: &mut Emitter<u64, f64>) {
    out.emit(*k, vs.iter().sum());
}

fn oracle(input: &[(u64, String)]) -> Vec<(u64, f64)> {
    let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
    let mut e = Emitter::new();
    for (k, v) in input {
        edge_mapper(k, v, &mut e);
    }
    for (dst, w) in e.into_pairs() {
        *sums.entry(dst).or_insert(0.0) += w;
    }
    sums.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn onestep_incremental_equals_recompute(
        base in dataset(),
        choices in proptest::collection::vec((0u64..40, 0u8..3, proptest::collection::btree_map(0u64..30, 1u32..100, 0..3)), 0..8),
        tag in 0u64..u64::MAX,
    ) {
        let pool = WorkerPool::new(2);
        let mut engine: OneStepEngine<u64, String, u64, f64, u64, f64> = OneStepEngine::create(
            &pool,
            scratch(&format!("prop-eq-{tag}")),
            JobConfig::symmetric(2),
            StoreConfig::default(),
        )
        .unwrap();
        engine
            .initial(&base, &edge_mapper, &HashPartitioner, &sum_reducer)
            .unwrap();

        // Build a *valid* delta from arbitrary choices: a delta is a set
        // difference, so deletes/updates may only reference records that
        // existed before the delta (a record inserted by this delta cannot
        // also be deleted by it), and each pre-existing record is touched
        // at most once.
        let mut live: BTreeMap<u64, String> = base.iter().cloned().collect();
        let mut untouched: BTreeMap<u64, String> = live.clone();
        let mut delta: Delta<u64, String> = Delta::new();
        let mut next_fresh = 1000u64;
        for (pick, op, edges) in choices {
            let adj: Vec<String> = edges
                .into_iter()
                .map(|(dst, w)| format!("{dst}:{}", w as f64 / 10.0))
                .collect();
            let adj = adj.join(";");
            match op {
                0 => {
                    // insert fresh record
                    delta.insert(next_fresh, adj.clone());
                    live.insert(next_fresh, adj);
                    next_fresh += 1;
                }
                1 => {
                    // delete a pre-existing, untouched record (if any)
                    if untouched.is_empty() {
                        continue;
                    }
                    let &k = untouched
                        .keys()
                        .nth(pick as usize % untouched.len())
                        .unwrap();
                    let old = untouched.remove(&k).unwrap();
                    live.remove(&k);
                    delta.delete(k, old);
                }
                _ => {
                    // update a pre-existing, untouched record (if any)
                    if untouched.is_empty() {
                        continue;
                    }
                    let &k = untouched
                        .keys()
                        .nth(pick as usize % untouched.len())
                        .unwrap();
                    let old = untouched.remove(&k).unwrap();
                    live.insert(k, adj.clone());
                    delta.update(k, old, adj);
                }
            }
        }

        engine
            .incremental(&delta, &edge_mapper, &HashPartitioner, &sum_reducer)
            .unwrap();

        let updated: Vec<(u64, String)> = live.into_iter().collect();
        let want = oracle(&updated);
        let got = engine.output();
        prop_assert_eq!(got.len(), want.len(), "key sets differ");
        for ((ka, va), (kb, vb)) in got.iter().zip(&want) {
            prop_assert_eq!(ka, kb);
            prop_assert!((va - vb).abs() < 1e-9, "key {}: {} vs {}", ka, va, vb);
        }
    }
}

// ---------------------------------------------------------------------------
// Sized codecs: encoded_len() == encode_to().len(), exactly, for every impl
// ---------------------------------------------------------------------------

/// The contract `metered_size` relies on: pricing a record must agree with
/// what serializing it would have produced, byte for byte.
fn prop_sized<T: i2mapreduce::common::codec::Codec>(v: &T) {
    assert_eq!(
        v.encoded_len(),
        encode_to(v).len(),
        "encoded_len drifted from encode"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn encoded_len_matches_encoding_unsigned(a in any::<u8>(), b in any::<u16>(), c in any::<u32>(), d in any::<u64>(), e in any::<usize>(), f in any::<u128>()) {
        prop_sized(&a);
        prop_sized(&b);
        prop_sized(&c);
        prop_sized(&d);
        prop_sized(&e);
        prop_sized(&f);
        // Varint boundaries get deliberate coverage beyond random draws.
        for v in [0u64, 127, 128, 16383, 16384, (1 << 63) - 1, u64::MAX] {
            prop_sized(&v);
        }
    }

    #[test]
    fn encoded_len_matches_encoding_signed(a in any::<i8>(), b in any::<i16>(), c in any::<i32>(), d in any::<i64>(), e in any::<isize>()) {
        prop_sized(&a);
        prop_sized(&b);
        prop_sized(&c);
        prop_sized(&d);
        prop_sized(&e);
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            prop_sized(&v);
        }
    }

    #[test]
    fn encoded_len_matches_encoding_floats_bool_unit(x in any::<f32>(), y in any::<f64>(), b in any::<bool>()) {
        prop_sized(&x);
        prop_sized(&y);
        prop_sized(&b);
        prop_sized(&());
    }

    #[test]
    fn encoded_len_matches_encoding_strings_and_vecs(s in ".{0,40}", v in proptest::collection::vec(any::<u64>(), 0..32)) {
        prop_sized(&s);
        prop_sized(&v);
        prop_sized(&Some(s.clone()));
        prop_sized(&Option::<String>::None);
        prop_sized(&vec![s.clone(); 3]);
    }

    #[test]
    fn encoded_len_matches_encoding_composites(pairs in proptest::collection::vec((any::<u64>(), any::<f64>(), ".{0,12}"), 0..16), tag in any::<u8>()) {
        // Tuples of every supported arity, nested options and vecs.
        prop_sized(&(tag,));
        prop_sized(&(tag, pairs.len() as u64));
        prop_sized(&(tag, pairs.len() as u64, 0.5f32));
        prop_sized(&(tag, pairs.len() as u64, 0.5f32, true));
        prop_sized(&pairs);
        prop_sized(&Some(vec![Some(1u32), None]));
    }

    #[test]
    fn encoded_len_matches_encoding_downstream_impls(
        blocks in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<f64>()), 0..12),
        vecv in proptest::collection::vec(any::<f64>(), 0..12),
        name in ".{0,16}",
        len in any::<u64>(),
        ids in proptest::collection::vec((any::<u64>(), any::<u64>(), 0usize..8), 0..6),
    ) {
        // The two Codec impls outside i2mr-common must honor the same law.
        prop_sized(&i2mapreduce::algos::gimv::GimvMsg::Block(blocks));
        prop_sized(&i2mapreduce::algos::gimv::GimvMsg::Vector(vecv));
        let meta = i2mapreduce::dfs::FileMeta {
            name,
            len,
            blocks: ids
                .into_iter()
                .map(|(id, blen, worker)| i2mapreduce::dfs::BlockMeta {
                    id: i2mapreduce::dfs::BlockId(id),
                    len: blen,
                    home_worker: worker,
                })
                .collect(),
        };
        prop_sized(&meta);
    }
}

// ---------------------------------------------------------------------------
// Workset contract (delta-iteration engine)
// ---------------------------------------------------------------------------
//
// The delta-iteration engine's scheduling contract, model-checked over
// random graphs and deltas:
//
// * workset emptiness ⇔ fixed point: the engine reports convergence
//   exactly when an iteration emits nothing, and each iteration's workset
//   is the previous iteration's emissions;
// * a retraction followed by re-insertion of the same record converges
//   back to the original solution set;
// * an empty-delta refresh terminates in one (empty-workset) iteration
//   without perturbing a single state bit.

use i2mapreduce::core::iterative::DependencyKind;
use i2mapreduce::store::StoreManager;

/// PageRank-like retractable spec for the workset properties.
struct PropRank;

impl IterativeSpec for PropRank {
    type SK = u64;
    type SV = Vec<u64>;
    type DK = u64;
    type DV = f64;
    type V2 = f64;

    fn project(&self, sk: &u64) -> u64 {
        *sk
    }
    fn map(&self, _sk: &u64, sv: &Vec<u64>, _dk: &u64, dv: &f64, out: &mut Emitter<u64, f64>) {
        if sv.is_empty() {
            return;
        }
        let share = dv / sv.len() as f64;
        for j in sv {
            out.emit(*j, share);
        }
    }
    fn reduce(&self, _dk: &u64, _prev: &f64, values: Values<'_, u64, f64>) -> f64 {
        0.15 + 0.85 * values.iter().sum::<f64>()
    }
    fn init(&self, _dk: &u64) -> f64 {
        1.0
    }
    fn difference(&self, curr: &f64, prev: &f64) -> f64 {
        (curr - prev).abs()
    }
    fn dependency(&self) -> DependencyKind {
        DependencyKind::OneToOne
    }
}

impl DeltaIterativeSpec for PropRank {
    fn contract(&self) -> UpdateContract {
        UpdateContract::Retractable
    }
}

const WS_PARTS: usize = 2;

fn ws_graph(n: u64, stride: u64) -> Vec<(u64, Vec<u64>)> {
    (0..n)
        .map(|i| {
            let mut out = vec![(i + 1) % n];
            if i % 3 == 0 {
                let chord = (i + stride) % n;
                if !out.contains(&chord) {
                    out.push(chord);
                }
            }
            out.sort_unstable();
            (i, out)
        })
        .collect()
}

fn ws_converge(
    graph: Vec<(u64, Vec<u64>)>,
    pool: &WorkerPool,
    tag: &str,
) -> (
    i2mapreduce::core::PartitionedData<u64, Vec<u64>, u64, f64>,
    StoreManager,
) {
    let stores = StoreManager::create(
        pool,
        scratch(&format!("ws-{tag}")),
        WS_PARTS,
        Default::default(),
    )
    .unwrap();
    let session = RunBuilder::new(&PropRank)
        .pool(pool)
        .job(JobConfig::symmetric(WS_PARTS))
        .iter(IterParams {
            max_iterations: 200,
            epsilon: 1e-12,
            preserve: PreserveMode::FinalOnly,
        })
        .stores_ref(&stores)
        .build()
        .unwrap();
    let mut data = i2mapreduce::core::build_partitioned(&PropRank, WS_PARTS, graph);
    assert!(session.run_initial(&mut data).unwrap().converged);
    drop(session);
    (data, stores)
}

fn ws_session<'s>(pool: &WorkerPool, stores: &'s StoreManager) -> RunSession<'s, PropRank> {
    RunBuilder::new(&PropRank)
        .pool(pool)
        .job(JobConfig::symmetric(WS_PARTS))
        .incr(IncrParams {
            max_iterations: 300,
            // Keep every iteration workset-scheduled: these properties
            // are about the delta loop, not the P∆ fallback.
            pdelta_threshold: 2.0,
            ..Default::default()
        })
        .stores_ref(stores)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn workset_empty_iff_fixed_point(
        n in 12u64..32,
        stride in 2u64..7,
        v in 0u64..12,
        t in 0u64..32,
    ) {
        let pool = WorkerPool::new(WS_PARTS);
        let graph = ws_graph(n, stride);
        let (mut data, stores) = ws_converge(graph.clone(), &pool, "iff");

        // Rewire vertex v's out-list to a single (possibly new) target.
        let target = t % n;
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[v as usize].1.clone();
        let mut new = vec![if target == v { (v + 1) % n } else { target }];
        if new == old {
            // Guarantee a real change: widen the out-list instead.
            new.push((new[0] + 1) % n);
            new.sort_unstable();
            new.dedup();
        }
        delta.update(v, old, new);

        let report = ws_session(&pool, &stores).run_delta(&mut data, &delta).unwrap();

        // Convergence ⇔ the final iteration emitted an empty workset.
        let last_emitted = report.iterations.last().unwrap().changed_keys;
        prop_assert_eq!(report.converged, last_emitted == 0);
        // Every iteration's workset is the previous iteration's emissions,
        // and a non-final iteration always carries a non-empty workset.
        prop_assert_eq!(report.worksets[0], delta.records().len() as u64);
        for i in 1..report.worksets.len() {
            prop_assert_eq!(report.worksets[i], report.iterations[i - 1].changed_keys);
            prop_assert!(report.worksets[i] > 0, "empty workset must have stopped the run");
        }
    }

    #[test]
    fn retraction_then_reinsertion_restores_the_solution_set(
        n in 12u64..32,
        stride in 2u64..7,
        v in 0u64..12,
    ) {
        let pool = WorkerPool::new(WS_PARTS);
        let graph = ws_graph(n, stride);
        let (mut data, stores) = ws_converge(graph.clone(), &pool, "retract");
        let baseline = data.state_snapshot();

        let record = graph[v as usize].clone();
        let session = ws_session(&pool, &stores);

        // Retract the record, converge, then re-insert it and converge.
        let mut retract: Delta<u64, Vec<u64>> = Delta::new();
        retract.delete(record.0, record.1.clone());
        let rep = session.run_delta(&mut data, &retract).unwrap();
        prop_assert!(rep.converged);

        let mut reinsert: Delta<u64, Vec<u64>> = Delta::new();
        reinsert.insert(record.0, record.1.clone());
        let rep = session.run_delta(&mut data, &reinsert).unwrap();
        prop_assert!(rep.converged);

        // Same solution set: identical keys, values back at the original
        // fixed point (numerically — the walk back re-approaches it).
        let restored = data.state_snapshot();
        prop_assert_eq!(
            baseline.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            restored.iter().map(|(k, _)| *k).collect::<Vec<_>>()
        );
        for ((k, a), (_, b)) in baseline.iter().zip(&restored) {
            prop_assert!((a - b).abs() < 1e-4, "key {}: {} vs {}", k, a, b);
        }
    }

    #[test]
    fn empty_delta_refresh_terminates_in_one_iteration(
        n in 12u64..32,
        stride in 2u64..7,
    ) {
        let pool = WorkerPool::new(WS_PARTS);
        let graph = ws_graph(n, stride);
        let (mut data, stores) = ws_converge(graph, &pool, "noop");
        let before = data.state_snapshot();

        let delta: Delta<u64, Vec<u64>> = Delta::new();
        let report = ws_session(&pool, &stores).run_delta(&mut data, &delta).unwrap();
        prop_assert!(report.converged);
        prop_assert_eq!(report.iterations.len(), 1);
        prop_assert_eq!(report.iterations[0].changed_keys, 0);
        prop_assert_eq!(&report.worksets, &vec![0]);
        // Not a single state bit moved.
        prop_assert_eq!(data.state_snapshot(), before);
    }
}

// ---------------------------------------------------------------------------
// Full-pass shuffle plans
// ---------------------------------------------------------------------------
//
// Once two consecutive full passes emit the same K2 sequence, later passes
// replay a shuffle plan instead of partitioning and sorting (planned passes
// run no Sort task). Each test compares the engine against a plain loop
// with no spec substrate, so a plan that misroutes a value, survives a
// change of emission, or outlives a rewind shows as a wrong bit.

use i2mapreduce::common::codec::Codec;
use i2mapreduce::common::failpoint::{FailAction, FailSite, FailpointRegistry};
use i2mapreduce::common::telemetry::{EventKind, TelemetryConfig, TelemetryMode, TraceLog};
use i2mapreduce::mapred::pool::PoolConfig;
use std::sync::Arc;

/// One emission per record, whose K2 follows the state: every vertex hops
/// to the next of its three targets each third pass, so the K2 sequence
/// holds for three passes and then changes while every count stays put.
struct Hop;

/// `Hop`'s pick among a record's targets at `step`.
fn hop_target(targets: &[u64], step: u64) -> u64 {
    targets[(step / 3) as usize % targets.len()]
}

/// `Hop`'s value for a record emitted from state `acc`.
fn hop_value(sk: u64, acc: u64) -> u64 {
    acc.wrapping_mul(31).wrapping_add(sk)
}

/// `Hop`'s reduce over a state and the wrapping sum of its values.
fn hop_next((step, acc): (u64, u64), sum: u64) -> (u64, u64) {
    (step + 1, acc.wrapping_mul(3).wrapping_add(sum))
}

impl IterativeSpec for Hop {
    type SK = u64;
    type SV = Vec<u64>;
    type DK = u64;
    type DV = (u64, u64);
    type V2 = u64;

    fn project(&self, sk: &u64) -> u64 {
        *sk
    }
    fn map(
        &self,
        sk: &u64,
        sv: &Vec<u64>,
        _dk: &u64,
        dv: &(u64, u64),
        out: &mut Emitter<u64, u64>,
    ) {
        out.emit(hop_target(sv, dv.0), hop_value(*sk, dv.1));
    }
    fn reduce(&self, _dk: &u64, prev: &(u64, u64), values: Values<'_, u64, u64>) -> (u64, u64) {
        hop_next(*prev, values.iter().fold(0, |a, v| a.wrapping_add(*v)))
    }
    fn init(&self, dk: &u64) -> (u64, u64) {
        (0, *dk)
    }
    fn difference(&self, curr: &(u64, u64), prev: &(u64, u64)) -> f64 {
        f64::from(u8::from(curr != prev))
    }
    fn dependency(&self) -> DependencyKind {
        DependencyKind::OneToOne
    }
}

fn hop_graph(n: u64) -> Vec<(u64, Vec<u64>)> {
    (0..n)
        .map(|i| (i, vec![(i * 7 + 1) % n, (i * 13 + 5) % n, (i + n / 2) % n]))
        .collect()
}

/// Iterations in `1..=last` that ran no Sort task: the planned passes.
fn planned_passes(trace: &TraceLog, last: u64) -> Vec<u64> {
    assert_eq!(trace.dropped(), 0, "the trace must be complete");
    let sorted: std::collections::BTreeSet<u64> = trace
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::TaskStart { task, .. } if task.kind == "sort" => Some(task.iteration),
            _ => None,
        })
        .collect();
    (1..=last).filter(|i| !sorted.contains(i)).collect()
}

/// What an engine run of full passes left behind, for comparison with a
/// plain loop.
struct FullPassRun<DK, DV> {
    state: Vec<(DK, DV)>,
    /// `(shuffled_records, shuffled_bytes)` per pass.
    metered: Vec<(u64, u64)>,
    /// Every shard's live chunks, ascending by key; empty unless preserving.
    live: Vec<Chunk>,
    /// The passes that ran no Sort task.
    planned: Vec<u64>,
}

/// Run exactly `passes` full passes of `spec` over `graph` on three
/// partitions, preserving into a fresh store under `EveryIteration`.
fn run_full_passes<S: IterativeSpec>(
    spec: &S,
    graph: Vec<(S::SK, S::SV)>,
    passes: u64,
    preserve: PreserveMode,
    tag: &str,
) -> FullPassRun<S::DK, S::DV> {
    let pool = WorkerPool::new(3);
    let stores = StoreManager::create(
        &pool,
        scratch(&format!("{tag}-{preserve:?}")),
        3,
        Default::default(),
    )
    .unwrap();
    let mut builder = RunBuilder::new(spec)
        .pool(&pool)
        .job(JobConfig::symmetric(3))
        .iter(IterParams {
            max_iterations: passes,
            epsilon: 0.0,
            preserve,
        })
        .telemetry(TelemetryConfig::with_mode(TelemetryMode::Full));
    if preserve == PreserveMode::EveryIteration {
        builder = builder.stores_ref(&stores);
    }
    let session = builder.build().unwrap();
    let mut data = i2mapreduce::core::build_partitioned(spec, 3, graph);
    let report = session.run_initial(&mut data).unwrap();
    assert_eq!(report.n_iterations(), passes);
    let trace = session.finish().unwrap().trace.expect("Full trace");
    let mut live = Vec::new();
    if preserve == PreserveMode::EveryIteration {
        for p in 0..3 {
            live.extend(stores.with_store(p, |s| s.all_chunks()).unwrap());
        }
        live.sort_by(|a, b| a.key.cmp(&b.key));
    }
    FullPassRun {
        state: data.state_snapshot(),
        metered: report
            .per_iteration
            .iter()
            .map(|m| (m.shuffled_records, m.shuffled_bytes))
            .collect(),
        live,
        planned: planned_passes(&trace, passes),
    }
}

/// A K2's preserved chunk holding `entries` in MK order.
fn plain_chunk(k2: u64, entries: &[(MapKey, u64)]) -> Chunk {
    let entries = entries
        .iter()
        .map(|(mk, v)| ChunkEntry {
            mk: *mk,
            value: encode_to(v),
        })
        .collect();
    Chunk::new(encode_to(&k2), entries)
}

/// Plans were used, and a pass whose emission moved ran plan-less again.
fn assert_plans_dropped(planned: &[u64], passes: u64, what: &str) {
    assert!(!planned.is_empty(), "{what}: no pass was planned");
    assert!(
        (planned[0]..=passes).any(|i| !planned.contains(&i)),
        "{what}: a changed emission must drop the plan ({planned:?})"
    );
}

#[test]
fn planned_full_passes_follow_keys_that_change_under_equal_counts() {
    const N: u64 = 90;
    const PASSES: u64 = 12;
    for preserve in [PreserveMode::None, PreserveMode::EveryIteration] {
        let graph = hop_graph(N);
        // The plain loop: state, shuffle metering and — when preserving —
        // the live MRBGraph (each K2's latest chunk) after every pass.
        let mut state: BTreeMap<u64, (u64, u64)> = (0..N).map(|v| (v, Hop.init(&v))).collect();
        let mut chunks: BTreeMap<Vec<u8>, Chunk> = BTreeMap::new();
        let mut metered = Vec::new();
        for _ in 0..PASSES {
            let mut groups: BTreeMap<u64, Vec<(MapKey, u64)>> = BTreeMap::new();
            let mut bytes = 0u64;
            for (sk, targets) in &graph {
                let (step, acc) = state[sk];
                let (k2, v2) = (hop_target(targets, step), hop_value(*sk, acc));
                bytes += (k2.encoded_len() + v2.encoded_len()) as u64;
                let mk = MapKey::for_structure(&encode_to(sk));
                groups.entry(k2).or_default().push((mk, v2));
            }
            if preserve == PreserveMode::EveryIteration {
                bytes += 2 * graph.len() as u64; // MK wire bytes
            }
            metered.push((graph.len() as u64, bytes));
            for (v, s) in state.iter_mut() {
                let sum = groups
                    .get(v)
                    .map_or(0, |g| g.iter().fold(0u64, |a, (_, x)| a.wrapping_add(*x)));
                *s = hop_next(*s, sum);
            }
            for (k2, mut entries) in groups {
                entries.sort_unstable();
                chunks.insert(encode_to(&k2), plain_chunk(k2, &entries));
            }
        }

        let got = run_full_passes(&Hop, graph, PASSES, preserve, "plan-hop");
        assert_eq!(got.state, state.into_iter().collect::<Vec<_>>());
        assert_eq!(got.metered, metered, "{preserve:?}: shuffle metering");
        if preserve == PreserveMode::EveryIteration {
            assert_eq!(got.live, chunks.into_values().collect::<Vec<_>>());
        }
        assert_plans_dropped(&got.planned, PASSES, &format!("{preserve:?}"));
    }
}

/// Two records per vertex, `(v, 0)` and `(v, 1)`, both pointing at one
/// target; they take turns emitting to it, swapping every third pass. Each
/// map task's K2 sequence and emission count never change, but the MK of
/// every emission does, and with it each group's `(K2, MK)` order — which
/// the reduce's order-sensitive fold reads.
struct Turns;

/// Whether record `side` of a vertex emits at `step`.
fn turns_active(side: u64, step: u64) -> bool {
    side == (step / 3) % 2
}

/// `Turns`'s value for record `(v, side)` emitted from state `acc`.
fn turns_value((v, side): (u64, u64), acc: u64) -> u64 {
    acc.wrapping_mul(31).wrapping_add(2 * v + side)
}

/// `Turns`'s reduce over a state and its values in `(K2, MK)` order.
fn turns_next((step, acc): (u64, u64), values: impl Iterator<Item = u64>) -> (u64, u64) {
    let acc = values.fold(acc.wrapping_mul(3), |a, v| {
        a.wrapping_mul(1_000_003).wrapping_add(v)
    });
    (step + 1, acc)
}

impl IterativeSpec for Turns {
    type SK = (u64, u64);
    type SV = u64;
    type DK = u64;
    type DV = (u64, u64);
    type V2 = u64;

    fn project(&self, sk: &(u64, u64)) -> u64 {
        sk.0
    }
    fn map(
        &self,
        sk: &(u64, u64),
        target: &u64,
        _dk: &u64,
        dv: &(u64, u64),
        out: &mut Emitter<u64, u64>,
    ) {
        if turns_active(sk.1, dv.0) {
            out.emit(*target, turns_value(*sk, dv.1));
        }
    }
    fn reduce(&self, _dk: &u64, prev: &(u64, u64), values: Values<'_, u64, u64>) -> (u64, u64) {
        turns_next(*prev, values.iter().copied())
    }
    fn init(&self, dk: &u64) -> (u64, u64) {
        (0, *dk)
    }
    fn difference(&self, curr: &(u64, u64), prev: &(u64, u64)) -> f64 {
        f64::from(u8::from(curr != prev))
    }
    fn dependency(&self) -> DependencyKind {
        DependencyKind::OneToOne
    }
}

#[test]
fn planned_full_passes_follow_emissions_that_move_between_records() {
    const N: u64 = 60;
    const PASSES: u64 = 12;
    // About six vertices share each target, so every group holds values
    // from several records of several tasks.
    let graph: Vec<((u64, u64), u64)> = (0..N)
        .flat_map(|v| [0, 1].map(|side| ((v, side), (v * 7 + 1) % (N / 6))))
        .collect();
    for preserve in [PreserveMode::None, PreserveMode::EveryIteration] {
        let mut state: BTreeMap<u64, (u64, u64)> = (0..N).map(|v| (v, Turns.init(&v))).collect();
        let mut chunks: BTreeMap<Vec<u8>, Chunk> = BTreeMap::new();
        for _ in 0..PASSES {
            let mut groups: BTreeMap<u64, Vec<(MapKey, u64)>> = BTreeMap::new();
            for (sk, target) in &graph {
                let (step, acc) = state[&sk.0];
                if turns_active(sk.1, step) {
                    let mk = MapKey::for_structure(&encode_to(sk));
                    groups
                        .entry(*target)
                        .or_default()
                        .push((mk, turns_value(*sk, acc)));
                }
            }
            for entries in groups.values_mut() {
                entries.sort_unstable();
            }
            for (v, s) in state.iter_mut() {
                let values = groups.get(v).into_iter().flatten().map(|(_, x)| *x);
                *s = turns_next(*s, values);
            }
            for (k2, entries) in groups {
                chunks.insert(encode_to(&k2), plain_chunk(k2, &entries));
            }
        }

        let got = run_full_passes(&Turns, graph.clone(), PASSES, preserve, "plan-turns");
        assert_eq!(got.state, state.into_iter().collect::<Vec<_>>());
        if preserve == PreserveMode::EveryIteration {
            assert_eq!(got.live, chunks.into_values().collect::<Vec<_>>());
        }
        assert_plans_dropped(&got.planned, PASSES, &format!("{preserve:?}"));
    }
}

#[test]
fn sssp_from_scratch_with_growing_emission_matches_bellman_ford() {
    let spec = i2mapreduce::algos::sssp::Sssp { source: 0 };
    let n = 300u64;
    let mut rng = 0x5eed_u64;
    let mut next = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        rng >> 33
    };
    // Integral weights: every path sum is exact, so the comparison is
    // bit for bit.
    let graph: Vec<(u64, Vec<(u64, f64)>)> = (0..n)
        .map(|v| {
            let edges = (0..next() % 4)
                .map(|_| (next() % n, (1 + next() % 9) as f64))
                .collect();
            (v, edges)
        })
        .collect();

    let mut dist: BTreeMap<u64, f64> = (0..n).map(|v| (v, spec.init(&v))).collect();
    loop {
        let mut best: BTreeMap<u64, f64> = BTreeMap::new();
        for (u, edges) in &graph {
            if dist[u].is_finite() {
                for (v, w) in edges {
                    let d = best.entry(*v).or_insert(f64::INFINITY);
                    *d = d.min(dist[u] + w);
                }
            }
        }
        let relaxed: BTreeMap<u64, f64> = dist
            .keys()
            .map(|&v| {
                (
                    v,
                    if v == 0 {
                        0.0
                    } else {
                        best.get(&v).copied().unwrap_or(f64::INFINITY)
                    },
                )
            })
            .collect();
        if relaxed == dist {
            break;
        }
        dist = relaxed;
    }

    let pool = WorkerPool::new(3);
    let session = RunBuilder::new(&spec)
        .pool(&pool)
        .job(JobConfig::symmetric(3))
        .iter(IterParams {
            max_iterations: 400,
            epsilon: 1e-12,
            preserve: PreserveMode::None,
        })
        .build()
        .unwrap();
    let mut data = i2mapreduce::core::build_partitioned(&spec, 3, graph);
    assert!(session.run_initial(&mut data).unwrap().converged);
    let got: Vec<(u64, u64)> = data
        .state_snapshot()
        .into_iter()
        .map(|(v, d)| (v, d.to_bits()))
        .collect();
    let want: Vec<(u64, u64)> = dist.into_iter().map(|(v, d)| (v, d.to_bits())).collect();
    assert_eq!(got, want);
    assert!(want.iter().any(|(_, d)| f64::from_bits(*d).is_infinite()));
    assert!(
        want.iter()
            .filter(|(_, d)| f64::from_bits(*d).is_finite())
            .count()
            > 10
    );
}

#[test]
fn rewind_inside_a_planned_pass_replays_bit_identically() {
    // Stride 5 makes the in-shares uneven: the ranks move off 1.0.
    let graph = ws_graph(60, 5);
    let iter = IterParams {
        max_iterations: 200,
        epsilon: 1e-12,
        preserve: PreserveMode::None,
    };
    let run = |pool: &WorkerPool, tag: &str| {
        let dfs = i2mapreduce::dfs::MiniDfs::open_with(scratch(tag), 1 << 20, 2).unwrap();
        let session = RunBuilder::new(&PropRank)
            .pool(pool)
            .job(JobConfig::symmetric(3))
            .iter(iter)
            .checkpoint(&dfs, tag)
            .telemetry(TelemetryConfig::with_mode(TelemetryMode::Full))
            .build()
            .unwrap();
        let mut data = i2mapreduce::core::build_partitioned(&PropRank, 3, graph.clone());
        let report = session.run_initial(&mut data).unwrap();
        let trace = session.finish().unwrap().trace.expect("Full trace");
        (data, report, trace)
    };

    let (want, clean, trace) = run(&WorkerPool::new(3), "plan-rewind-clean");
    assert!(clean.converged);
    let last = clean.n_iterations();
    let first_planned = planned_passes(&trace, last)[0];
    // Task attempts are the failpoint's hits; those of the plan-less
    // passes come first.
    let attempts = |pred: &dyn Fn(u64) -> bool| {
        trace
            .iter()
            .filter(
                |e| matches!(&e.kind, EventKind::TaskStart { task, .. } if pred(task.iteration)),
            )
            .count() as u64
    };
    let before = attempts(&|i| i < first_planned);
    let total = attempts(&|_| true);
    assert!(total > before + 12, "the run must plan for several passes");

    // A seed whose single fault lands on a task of a planned pass.
    let armed = |seed: u64| {
        FailpointRegistry::seeded(seed, 1).arm(FailSite::TaskRun, 0.02, FailAction::Error)
    };
    let seed = (0..10_000u64)
        .find(|&seed| {
            let probe = armed(seed);
            let first = (0..total).find(|_| probe.hit(FailSite::TaskRun).is_some());
            first.is_some_and(|k| k >= before && k + 6 < total)
        })
        .expect("a seed that faults a planned pass");
    let fp = Arc::new(armed(seed));
    let faulty = WorkerPool::with_config(PoolConfig {
        max_attempts: 1,
        failpoints: Arc::clone(&fp),
        ..PoolConfig::new(3)
    });
    let (got, report, trace) = run(&faulty, "plan-rewind-faulty");
    assert_eq!(fp.fired(), 1);
    let failed: Vec<u64> = trace
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::TaskEnd {
                task, ok: false, ..
            } => Some(task.iteration),
            _ => None,
        })
        .collect();
    assert_eq!(failed.len(), 1);
    assert!(
        failed[0] >= first_planned,
        "the fault must hit a planned pass"
    );
    assert!(
        report.total_metrics().recovery_ms > 0,
        "the run must have rewound"
    );
    assert!(report.converged);
    assert_eq!(report.n_iterations(), last);
    let bits = |d: &i2mapreduce::core::PartitionedData<u64, Vec<u64>, u64, f64>| {
        d.state_snapshot()
            .into_iter()
            .map(|(k, v)| (k, v.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&got), bits(&want));
}
