//! [`MrbgStore`] — the per-reduce-task MRBG-Store facade (paper Fig. 4).
//!
//! One store instance manages one reduce task's MRBGraph file plus its
//! index file. The two requirements from §3.4:
//!
//! 1. **Incremental storage** — updated chunks are appended as a new
//!    batch; obsolete versions linger until [`MrbgStore::compact`]. A
//!    deferred merge keeps its merged frames in memory (the *pending set*)
//!    until the commit, so a refresh appends each touched chunk once, not
//!    once per iteration.
//! 2. **Efficient retrieval** — point lookups go through the preloaded hash
//!    index; merge passes use the configured [`QueryStrategy`] with read
//!    windows, and merge each verified frame in place
//!    ([`crate::merge`]): no chunk is decoded on a merge.
//!
//! # Canonical batch order
//!
//! Every batch is written in **byte-lexicographic order of the encoded K2**,
//! and merge passes visit keys in that same order. This gives each batch the
//! "sorted chunks" property the window algorithms rely on, independent of
//! the engine's typed key ordering. (`merge_apply` sorts its input
//! defensively, so engines may pass deltas in any order; it rejects two
//! delta chunks for one key.)
//!
//! # Crash consistency: commit points
//!
//! The store has one durability protocol. A **commit**
//! ([`MrbgStore::persist_index`]) makes the in-memory state the on-disk
//! state in three ordered steps: write the pending set back (append it as
//! one batch), `sync_all` the data file, then write the index to a temp
//! file, `sync_all` it and rename it over the index file. It is the only
//! place either file is synced, which is what enforces the invariant *an
//! index file never references bytes that were not fsynced before it*.
//! [`MrbgStore::append_batch`], the eager [`MrbgStore::merge_apply`] and
//! [`MrbgStore::compact`] end in a commit;
//! [`MrbgStore::merge_apply_deferred`] does not — it leaves its merged
//! frames in the pending set, marks the store [dirty](MrbgStore::is_dirty)
//! and leaves the commit to the caller (the runtime commits once per
//! refresh, at settle, instead of once per iteration). The pending set
//! reaches the file earlier only as a write-back without a sync: when it
//! outgrows [`StoreConfig::cache_capacity`], or before `compact` or
//! `append_batch` writes the file.
//!
//! What is durable when: exactly the state of the last commit. A crash
//! between commits loses the pending set and leaves the last committed
//! index file plus a data file whose tail, past the last indexed byte, is
//! whatever the kernel got around to writing of the write-backs since.
//! [`MrbgStore::open`] walks that tail frame by frame
//! ([`crate::format::valid_frame_prefix`]): intact frames are kept (they
//! are unreferenced, so harmless, and the next compaction drops them), the
//! first torn or corrupt frame and everything after it is truncated away
//! and counted ([`MrbgStore::take_salvaged_bytes`]). Either way the
//! reopened store *is* the last commit — deferred merges since then are
//! gone. (The engines commit at refresh boundaries, the only point they
//! could resume from anyway: their iterating state lives in memory, and a
//! mid-refresh resume goes through their own checkpoints.) Every chunk
//! is a checksummed *frame* ([`crate::format::encode_framed`]) verified on
//! every read from the file, so corruption inside the committed region is
//! *detectable* and the runtime can quarantine and rebuild the shard
//! instead of computing on garbage.
//!
//! Compaction is a commit of its own because it *replaces* the data file:
//! the pending set is written back, the reconstruction is written to a
//! temp file and synced, renamed over the data file, and then the
//! re-pointed index is committed. It never
//! needs the old file synced (every byte it keeps was just rewritten and
//! synced), so compacting a dirty store commits it. The two renames are
//! not atomic together: a crash between them leaves the old index over the
//! new file, which the frame checksums turn into detected corruption
//! (quarantine and rebuild), never into wrong data.
//! [`MrbgStore::import`] is *not* a commit — it restores from a
//! checkpoint, which stays the durable copy — and a store it replaces
//! takes its pending set with it.
//!
//! # Checkpoint payload
//!
//! [`MrbgStore::export`] is a verified copy, like compaction: the live
//! frames stream out of one windowed read pass in canonical key order,
//! each checked for its checksum and key on the raw bytes and appended
//! verbatim, with the pending frames spliced in by key (an export does not
//! write the pending set back). The payload is the store's compacted image
//! in a layout this module owns, `varint(data_len) ‖ data ‖ index`: `data`
//! is exactly what [`MrbgStore::compact`] would write and `index` is that
//! file's index.
//! [`MrbgStore::import`] slices the payload into the two files and opens
//! them; nothing is decoded on either side.

use crate::append::{AppendBuffer, DEFAULT_APPEND_CAPACITY};
use crate::compact::CompactionStats;
use crate::format::{decode_framed, encode_framed, valid_frame_prefix, verify_frame, Chunk};
use crate::index::{BatchInfo, ChunkIndex, ChunkLoc};
use crate::merge::{merge_frame, DeltaChunk, MergedBatch};
use crate::query::{FramePass, QueryStrategy};
use i2mr_common::codec::{read_varint, varint_len, write_varint};
use i2mr_common::error::{Error, Result};
use i2mr_common::metrics::IoStats;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Tunables for one store instance.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Chunk retrieval strategy for merge passes.
    pub strategy: QueryStrategy,
    /// Read-cache capacity bounding each read window (paper: read cache).
    /// It also bounds the store's pending set: once deferred merges hold
    /// more merged-frame bytes than this, they are written back to the
    /// data file (see [`MrbgStore::merge_apply_deferred`]).
    pub cache_capacity: u64,
    /// Append-buffer flush threshold.
    pub append_capacity: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            strategy: QueryStrategy::default(),
            cache_capacity: 4 * 1024 * 1024,
            append_capacity: DEFAULT_APPEND_CAPACITY,
        }
    }
}

/// One reduce task's MRBG-Store. See module docs.
pub struct MrbgStore {
    dir: PathBuf,
    file: File,
    file_len: u64,
    index: ChunkIndex,
    config: StoreConfig,
    io: IoStats,
    /// Persistent scratch for point/window reads: every [`MrbgStore::get`]
    /// used to allocate a fresh `Vec<u8>`; now the buffer is reused and
    /// only grows when a chunk exceeds all previous reads.
    /// [`IoStats::scratch_reuses`] counts the allocations this avoids.
    read_scratch: Vec<u8>,
    /// Bumped whenever the data file is *replaced* (compaction). Detached
    /// [`StoreReader`]s compare their own generation against this and
    /// reopen the file when stale — appends never bump it (same inode).
    generation: u64,
    /// Torn-tail bytes truncated by crash salvage on open; drained into
    /// [`i2mr_common::metrics::JobMetrics::salvaged_bytes`] by the runtime.
    salvaged: u64,
    /// The data file holds appended bytes no `sync_all` has covered yet.
    data_unsynced: bool,
    /// The in-memory index is ahead of the index file: the store is
    /// *dirty* until the next commit.
    index_stale: bool,
    /// Merged frames no write-back has appended yet (see [`Pending`]).
    pending: Pending,
}

/// The store's **pending set**: for each key a deferred merge touched since
/// the last write-back, its latest merged frame — or `None`, a removal —
/// in canonical key order. It shadows the index: every read consults it
/// first, and a later merge of the same key merges into the pending frame
/// instead of re-reading and re-appending the stored one. A write-back —
/// at the commit, past [`StoreConfig::cache_capacity`], or before
/// `compact` or `append_batch` writes the file — appends it to the data
/// file as one batch.
#[derive(Debug, Default)]
struct Pending {
    frames: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// Sum of the frame lengths: exactly what a write-back appends.
    bytes: u64,
}

impl Pending {
    fn frame_len(frame: &Option<Vec<u8>>) -> u64 {
        frame.as_ref().map_or(0, |f| f.len() as u64)
    }

    /// Make `frame` the latest version of `key`, reusing the buffer of the
    /// frame it replaces.
    fn set(&mut self, key: &[u8], frame: Option<&[u8]>) {
        if !self.frames.contains_key(key) {
            self.frames.insert(key.to_vec(), None);
        }
        let slot = self.frames.get_mut(key).expect("just inserted");
        self.bytes -= Self::frame_len(slot);
        match frame {
            Some(frame) => {
                let buf = slot.get_or_insert_with(Vec::new);
                buf.clear();
                buf.extend_from_slice(frame);
                self.bytes += frame.len() as u64;
            }
            None => *slot = None,
        }
    }
}

/// A detached read handle for the split read path.
///
/// Point lookups used to require `&mut MrbgStore`, so every read serialized
/// on the store's exclusive lock even though reads never conflict with each
/// other. A `StoreReader` owns its own file handle and scratch buffer;
/// [`MrbgStore::get_with`] takes the store by `&self`, so any number of
/// readers can look up chunks concurrently (under a shared/read lock) while
/// only merges and compactions need exclusive access. Each reader keeps its
/// own [`IoStats`] for the runtime layer to aggregate.
#[derive(Debug)]
pub struct StoreReader {
    file: File,
    generation: u64,
    scratch: Vec<u8>,
    io: IoStats,
}

impl StoreReader {
    /// I/O performed through this reader so far.
    pub fn io_stats(&self) -> IoStats {
        self.io
    }

    /// Take (and reset) this reader's I/O counters.
    pub fn take_io_stats(&mut self) -> IoStats {
        std::mem::take(&mut self.io)
    }
}

/// Streaming iterator over a store's live chunks in canonical key order.
///
/// Produced by [`MrbgStore::chunks_iter`]: a planned [`FramePass`] over
/// the stored frames, so retrieval uses the store's configured window
/// strategy, with the pending set's frames spliced in by key. Holding one
/// borrows the store mutably for the duration of the scan.
pub struct ChunksIter<'a> {
    frames: FramePass<'a>,
    /// The live keys in canonical order, each with its pending frame if
    /// the pending set holds one.
    keys: std::vec::IntoIter<(Vec<u8>, Option<&'a [u8]>)>,
}

impl Iterator for ChunksIter<'_> {
    type Item = Result<Chunk>;

    fn next(&mut self) -> Option<Result<Chunk>> {
        let (key, pending) = self.keys.next()?;
        Some(self.frames.next_frame().and_then(|stored| {
            let frame = match pending {
                Some(frame) => frame,
                None => stored.ok_or_else(|| Error::corrupt("indexed chunk disappeared"))?,
            };
            decode_checked(frame, &key)
        }))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.keys.size_hint()
    }
}

impl MrbgStore {
    fn data_path(dir: &Path) -> PathBuf {
        dir.join("mrbg.data")
    }

    fn index_path(dir: &Path) -> PathBuf {
        dir.join("mrbg.index")
    }

    /// Create a fresh (empty) store in `dir`, truncating any existing one.
    pub fn create(dir: impl AsRef<Path>, config: StoreConfig) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let file = File::options()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(Self::data_path(&dir))?;
        let mut store = MrbgStore {
            dir,
            file,
            file_len: 0,
            index: ChunkIndex::new(),
            config,
            io: IoStats::default(),
            read_scratch: Vec::new(),
            generation: 0,
            salvaged: 0,
            data_unsynced: false,
            index_stale: true,
            pending: Pending::default(),
        };
        store.persist_index()?;
        Ok(store)
    }

    /// Open an existing store, preloading its index file into memory
    /// (paper §3.4: the index is preloaded before Reduce computation).
    ///
    /// Crash salvage: any bytes past the last indexed batch — appends no
    /// commit described — are walked frame by frame. Intact frames are
    /// kept (unreferenced, so harmless; a still-running writer of the same
    /// directory may yet commit an index that references them). The first
    /// torn or corrupt frame and everything after it is truncated away;
    /// the discarded byte count is reported by
    /// [`MrbgStore::take_salvaged_bytes`]. The result is the state of the
    /// last commit.
    ///
    /// An index entry that reaches past the end of the (salvaged) data
    /// file fails the open with [`Error::Corrupt`]: the committed region
    /// itself was lost, and no read could serve that chunk.
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let mut file = File::options()
            .read(true)
            .write(true)
            .open(Self::data_path(&dir))
            .map_err(|_| Error::NotFound(format!("MRBGraph file in {}", dir.display())))?;
        let mut file_len = file.metadata()?.len();
        let index_bytes = std::fs::read(Self::index_path(&dir))?;
        let index = ChunkIndex::from_bytes(&index_bytes)?;
        let indexed_end = index.batches().iter().map(|b| b.end).max().unwrap_or(0);
        let mut salvaged = 0;
        let mut io = IoStats::default();
        if file_len > indexed_end {
            let mut tail = vec![0u8; (file_len - indexed_end) as usize];
            file.seek(SeekFrom::Start(indexed_end))?;
            file.read_exact(&mut tail)?;
            let keep = valid_frame_prefix(&tail);
            if keep < tail.len() as u64 {
                salvaged = tail.len() as u64 - keep;
                file.set_len(indexed_end + keep)?;
                file.sync_all()?;
                io.record_sync();
                file_len = indexed_end + keep;
            }
        }
        if let Some((key, loc)) = index
            .iter()
            .find(|(_, loc)| loc.offset > file_len || loc.len as u64 > file_len - loc.offset)
        {
            return Err(Error::corrupt(format!(
                "index entry for {:?} ends at {} past the {file_len}-byte data file",
                String::from_utf8_lossy(key),
                loc.offset.saturating_add(loc.len as u64)
            )));
        }
        Ok(MrbgStore {
            dir,
            file,
            file_len,
            index,
            config,
            io,
            read_scratch: Vec::new(),
            generation: 0,
            salvaged,
            data_unsynced: false,
            index_stale: false,
            pending: Pending::default(),
        })
    }

    /// Torn-tail bytes discarded by crash salvage on open (consumed).
    pub fn take_salvaged_bytes(&mut self) -> u64 {
        std::mem::take(&mut self.salvaged)
    }

    /// Directory holding the data and index files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Change the retrieval strategy (Table 4 experiments flip this).
    pub fn set_strategy(&mut self, strategy: QueryStrategy) {
        self.config.strategy = strategy;
    }

    /// Number of live Reduce instances preserved (pending set included).
    pub fn len(&self) -> usize {
        let (keys, _) = self.pending_effect();
        (self.index.len() as i64 + keys) as usize
    }

    /// True when nothing is preserved.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// What the pending set changes against the index: live keys gained
    /// and live bytes gained (either may be negative).
    fn pending_effect(&self) -> (i64, i64) {
        let (mut keys, mut bytes) = (0, 0);
        for (key, frame) in &self.pending.frames {
            if let Some(loc) = self.index.get(key) {
                keys -= 1;
                bytes -= loc.len as i64;
            }
            if let Some(frame) = frame {
                keys += 1;
                bytes += frame.len() as i64;
            }
        }
        (keys, bytes)
    }

    /// Current MRBGraph file size (live + obsolete versions). Pending
    /// frames are not in the file yet.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Number of batches of sorted chunks in the file.
    pub fn n_batches(&self) -> usize {
        self.index.batches().len()
    }

    /// Bytes of live (latest-version) chunks — what compaction would keep,
    /// pending frames included.
    pub fn live_bytes(&self) -> u64 {
        let (_, bytes) = self.pending_effect();
        (self.index.live_bytes() as i64 + bytes) as u64
    }

    /// Bytes of the frames the index points at — the live share of the
    /// data file as it is now, which the compaction policy weighs against
    /// [`MrbgStore::file_len`].
    pub(crate) fn file_live_bytes(&self) -> u64 {
        self.index.live_bytes()
    }

    /// Bytes of merged frames waiting in the pending set — what the next
    /// write-back appends. Never above [`StoreConfig::cache_capacity`]
    /// once a merge has returned.
    pub fn pending_bytes(&self) -> u64 {
        self.pending.bytes
    }

    /// Accumulated I/O counters (Table 4 columns).
    pub fn io_stats(&self) -> IoStats {
        self.io
    }

    /// Reset the I/O counters.
    pub fn reset_io_stats(&mut self) {
        self.io = IoStats::default();
    }

    /// True when the in-memory state is ahead of the last commit (a
    /// deferred merge has run since). Reads are unaffected — every read
    /// path consults the pending set and the in-memory index; only a
    /// reopen would observe the older committed state.
    pub fn is_dirty(&self) -> bool {
        self.index_stale || !self.pending.frames.is_empty()
    }

    /// **Commit**: make the in-memory state the durable state (see the
    /// module docs). The pending set is written back first, as one batch.
    /// Then data — `sync_all` the data file if it holds unsynced appends —
    /// then the index: temp file, `sync_all`, atomic rename. A crash can
    /// leave the old index or the new one, never a torn one, and because
    /// this is the only place an index file is written, an index on disk
    /// never references data the kernel might not have written. Each step
    /// clears its state only once it succeeded (a failed write-back keeps
    /// the pending set), so a failed commit can simply be retried.
    pub fn persist_index(&mut self) -> Result<()> {
        self.write_back()?;
        if self.data_unsynced {
            self.file.sync_all()?;
            self.io.record_sync();
            self.data_unsynced = false;
        }
        let tmp = Self::index_path(&self.dir).with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            std::io::Write::write_all(&mut f, &self.index.to_bytes())?;
            f.sync_all()?;
            self.io.record_sync();
        }
        std::fs::rename(&tmp, Self::index_path(&self.dir))?;
        self.index_stale = false;
        Ok(())
    }

    /// Append `chunks` as one new batch (initial MRBGraph preservation).
    ///
    /// Chunks are written in canonical (lexicographic key) order; the index
    /// is updated and the batch committed. Pending frames are written back
    /// first, so the appended chunks are the latest versions.
    pub fn append_batch(&mut self, mut chunks: Vec<Chunk>) -> Result<()> {
        self.write_back()?;
        chunks.sort_by(|a, b| a.key.cmp(&b.key));
        // Canonical batch order (paper §3.4): one chunk per Reduce
        // instance, strictly ascending byte-lexicographic keys. The
        // shuffle's per-run sort is *unstable* over the `(K2, MK)` edge
        // identity, which is only safe because a well-formed batch never
        // carries two chunks for one K2 — assert it so a violation cannot
        // silently scramble the window algorithms.
        debug_assert!(
            chunks.windows(2).all(|w| w[0].key < w[1].key),
            "MRBGraph batch violates canonical batch order: duplicate chunk key"
        );
        let batch_id = self.index.batches().len() as u32;
        let start = self.file_len;
        let mut append = AppendBuffer::new(self.config.append_capacity, self.file_len);
        let mut buf = Vec::with_capacity(4096);
        let mut locs = Vec::with_capacity(chunks.len());
        for chunk in &chunks {
            buf.clear();
            encode_framed(chunk, &mut buf);
            let offset = append.append(&buf, &mut self.file, &mut self.io)?;
            locs.push((
                chunk.key.clone(),
                ChunkLoc {
                    offset,
                    len: buf.len() as u32,
                    batch: batch_id,
                },
            ));
        }
        append.flush(&mut self.file, &mut self.io)?;
        self.data_unsynced = true;
        self.index_stale = true;
        self.file_len = append.next_offset();
        self.index.push_batch(BatchInfo {
            start,
            end: self.file_len,
        });
        for (key, loc) in locs {
            self.index.put(key, loc);
        }
        self.persist_index()
    }

    /// Merge a delta MRBGraph into the store (paper §3.3–3.4).
    ///
    /// For every delta chunk: retrieve the preserved frame with the
    /// configured strategy, verify it, merge the delta into it (deletions
    /// first, then insertions) and append the up-to-date frame to a new
    /// batch. Returns the merged frames with one outcome per delta key in
    /// canonical key order — the outcomes carry the merged Reduce inputs.
    /// Eager: [`MrbgStore::merge_apply_deferred`] followed by a commit.
    pub fn merge_apply(&mut self, deltas: Vec<DeltaChunk>) -> Result<MergedBatch> {
        let merged = self.merge_apply_deferred(deltas)?;
        self.persist_index()?;
        Ok(merged)
    }

    /// [`MrbgStore::merge_apply`] with the write and the commit deferred.
    ///
    /// The merged frames go to the store's **pending set**, not to the
    /// data file: each key keeps its latest frame (or a removal) in memory
    /// until a write-back appends the whole set as one batch in canonical
    /// key order. A later merge of the same key merges into its pending
    /// frame — no file read, no re-append, no garbage — so a refresh
    /// writes each touched chunk once instead of once per iteration. The
    /// write-back happens at the commit ([`MrbgStore::persist_index`]),
    /// when a merge leaves more than [`StoreConfig::cache_capacity`]
    /// pending bytes, and before a writer that needs the file view
    /// ([`MrbgStore::compact`], [`MrbgStore::append_batch`]). The store is
    /// [dirty](MrbgStore::is_dirty) until the commit; every read path
    /// (`get`, `get_with`, `keys`, `len`, `chunks_iter`, `export`) sees
    /// the pending set, and only a reopen would observe the last committed
    /// state instead.
    ///
    /// Copy, do not decode: each stored frame is verified on its raw
    /// bytes ([`verify_frame`]) and merged entry by entry into the batch
    /// buffer ([`crate::merge`]); no [`Chunk`] is built. Every frame is
    /// read, verified and merged before anything changes, and a write-back
    /// installs the index only after its last byte was written, so a
    /// corrupt or wrong-key frame, two delta chunks for one key, or a
    /// failed write-back fails the merge with the pending set, the file
    /// length, the index and the dirty flag as they were.
    pub fn merge_apply_deferred(&mut self, mut deltas: Vec<DeltaChunk>) -> Result<MergedBatch> {
        deltas.sort_by(|a, b| a.key.cmp(&b.key));
        if let Some(w) = deltas.windows(2).find(|w| w[0].key == w[1].key) {
            // Both would merge against the same stored chunk and the later
            // index entry would silently drop the other's edges.
            return Err(Error::corrupt(format!(
                "merge: two delta chunks for key {:?}",
                String::from_utf8_lossy(&w[0].key)
            )));
        }

        // Phase 1: one planned read pass over the keys the pending set
        // does not hold; each frame, pending or verified stored, is merged
        // into the batch buffer.
        let mut bytes = Vec::new();
        let mut spans = Vec::with_capacity(deltas.len());
        {
            let pending = &self.pending.frames;
            let mut pass = FramePass::new(
                &mut self.file,
                self.file_len,
                &mut self.io,
                self.config.strategy,
                self.config.cache_capacity,
                deltas
                    .iter()
                    .map(|d| match pending.contains_key(&d.key) {
                        true => None,
                        false => self.index.get(&d.key),
                    })
                    .collect(),
            );
            let mut ops = Vec::new();
            for d in &deltas {
                let stored = pass.next_frame()?;
                let base = match pending.get(&d.key) {
                    Some(frame) => frame.as_deref(),
                    None => {
                        if let Some(frame) = stored {
                            verify_frame(frame, &d.key)?;
                        }
                        stored
                    }
                };
                spans.push(merge_frame(base, d, &mut ops, &mut bytes)?);
            }
        }

        // Phase 2: the merged frames become the keys' pending versions —
        // or, past the pending-set bound, are written back with it.
        let merged = deltas
            .iter()
            .zip(&spans)
            .map(|(d, span)| (d.key.as_slice(), span.clone().map(|s| &bytes[s])));
        let replaced: u64 = deltas
            .iter()
            .filter_map(|d| self.pending.frames.get(&d.key))
            .map(Pending::frame_len)
            .sum();
        let after = self.pending.bytes - replaced + bytes.len() as u64;
        if after > self.config.cache_capacity {
            let pending = std::mem::take(&mut self.pending);
            let mut all: BTreeMap<&[u8], Option<&[u8]>> = pending
                .frames
                .iter()
                .map(|(key, frame)| (key.as_slice(), frame.as_deref()))
                .collect();
            all.extend(merged);
            if let Err(e) = self.append_frames(all) {
                self.pending = pending;
                return Err(e);
            }
        } else {
            for (key, frame) in merged {
                self.pending.set(key, frame);
            }
        }
        let outcomes = deltas.into_iter().map(|d| d.key).zip(spans).collect();
        Ok(MergedBatch::new(bytes, outcomes))
    }

    /// Write the pending set back: append it to the data file as one
    /// batch ([`MrbgStore::append_frames`]) and empty it. On failure the
    /// pending set is kept, so a retry writes the same batch.
    fn write_back(&mut self) -> Result<()> {
        if self.pending.frames.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut self.pending);
        let frames = pending
            .frames
            .iter()
            .map(|(key, frame)| (key.as_slice(), frame.as_deref()));
        if let Err(e) = self.append_frames(frames) {
            self.pending = pending;
            return Err(e);
        }
        Ok(())
    }

    /// Append `frames` — in canonical key order, `None` for a removal — as
    /// one new batch, frame by frame through the [`AppendBuffer`] (so it
    /// flushes exactly where a frame-at-a-time writer would), and point
    /// the index at them. Page cache only: the next commit syncs these
    /// bytes before it writes the index that references them. The index
    /// and the file length change only after the last byte was written; a
    /// failure leaves them as they were, and the next append overwrites
    /// whatever reached the file past its length.
    fn append_frames<'f>(
        &mut self,
        frames: impl IntoIterator<Item = (&'f [u8], Option<&'f [u8]>)>,
    ) -> Result<()> {
        let batch_id = self.index.batches().len() as u32;
        let start = self.file_len;
        let mut append = AppendBuffer::new(self.config.append_capacity, self.file_len);
        let mut locs = Vec::new();
        for (key, frame) in frames {
            let loc = match frame {
                Some(frame) => Some(ChunkLoc {
                    offset: append.append(frame, &mut self.file, &mut self.io)?,
                    len: frame.len() as u32,
                    batch: batch_id,
                }),
                None => None,
            };
            locs.push((key, loc));
        }
        append.flush(&mut self.file, &mut self.io)?;
        self.data_unsynced = true;
        self.index_stale = true;
        self.file_len = append.next_offset();
        self.index.push_batch(BatchInfo {
            start,
            end: self.file_len,
        });
        for (key, loc) in locs {
            match loc {
                Some(loc) => self.index.put(key.to_vec(), loc),
                None => {
                    self.index.remove(key);
                }
            }
        }
        Ok(())
    }

    /// Point lookup of one preserved chunk: the pending frame if the
    /// pending set holds the key, else one index-only read.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Chunk>> {
        if let Some(frame) = self.pending.frames.get(key) {
            return frame.as_deref().map(|f| decode_checked(f, key)).transpose();
        }
        let loc = match self.index.get(key) {
            Some(loc) => loc,
            None => return Ok(None),
        };
        let frame = self.read_region(loc.offset, loc.len as u64)?;
        decode_checked(frame, key).map(Some)
    }

    /// Detach a read handle for the split read path (see [`StoreReader`]).
    pub fn reader(&self) -> Result<StoreReader> {
        Ok(StoreReader {
            file: File::open(Self::data_path(&self.dir))?,
            generation: self.generation,
            scratch: Vec::new(),
            io: IoStats::default(),
        })
    }

    /// Point lookup through a detached [`StoreReader`] — shared access.
    ///
    /// Takes the store by `&self`: only the in-memory index is consulted;
    /// all file I/O goes through the reader's own handle and scratch, so
    /// concurrent lookups (same or different partitions) never serialize on
    /// the store's write lock. If the data file was replaced by a
    /// compaction since the reader was created, the reader transparently
    /// reopens it.
    pub fn get_with(&self, reader: &mut StoreReader, key: &[u8]) -> Result<Option<Chunk>> {
        if let Some(frame) = self.pending.frames.get(key) {
            return frame.as_deref().map(|f| decode_checked(f, key)).transpose();
        }
        if reader.generation != self.generation {
            reader.file = File::open(Self::data_path(&self.dir))?;
            reader.generation = self.generation;
        }
        let loc = match self.index.get(key) {
            Some(loc) => loc,
            None => return Ok(None),
        };
        let len = loc.len as usize;
        if reader.scratch.capacity() >= len {
            reader.io.record_scratch_reuse();
        }
        reader.scratch.resize(len, 0);
        reader.file.seek(SeekFrom::Start(loc.offset))?;
        reader.file.read_exact(&mut reader.scratch[..len])?;
        reader.io.record_read(len as u64);
        decode_checked(&reader.scratch[..len], key).map(Some)
    }

    /// Live keys in canonical (lexicographic) order.
    pub fn keys(&self) -> Vec<Vec<u8>> {
        self.keys_where(|_| true)
    }

    /// Live keys in `lo..=hi` (inclusive both ends), in canonical order.
    /// The serving plane's window lookups resolve the key set through this
    /// under a shared lock, then read each chunk through a detached
    /// [`StoreReader`].
    pub fn keys_in_range(&self, lo: &[u8], hi: &[u8]) -> Vec<Vec<u8>> {
        self.keys_where(|k| k >= lo && k <= hi)
    }

    /// Live keys passing `keep`, pending set included, in canonical order.
    fn keys_where(&self, keep: impl Fn(&[u8]) -> bool) -> Vec<Vec<u8>> {
        let pending = &self.pending.frames;
        let mut keys: Vec<Vec<u8>> = self
            .index
            .iter()
            .filter(|(k, _)| keep(k) && !pending.contains_key(k.as_slice()))
            .map(|(k, _)| k.clone())
            .collect();
        keys.extend(
            pending
                .iter()
                .filter(|(k, frame)| frame.is_some() && keep(k))
                .map(|(k, _)| k.clone()),
        );
        keys.sort_unstable();
        keys
    }

    /// Stream all live chunks in canonical (lexicographic key) order.
    ///
    /// Replaces the old "materialize the whole store into a `Vec<Chunk>`"
    /// pattern: chunks are decoded one at a time out of a [`FramePass`]
    /// running the store's configured strategy, so peak memory is bounded
    /// by one read window plus one chunk regardless of store size. Pending
    /// frames are decoded from memory in their key's place.
    pub fn chunks_iter(&mut self) -> ChunksIter<'_> {
        let pending = &self.pending.frames;
        let keys: Vec<(Vec<u8>, Option<&[u8]>)> = self
            .keys()
            .into_iter()
            .map(|key| {
                let frame = pending.get(&key).and_then(Option::as_deref);
                (key, frame)
            })
            .collect();
        let plan = keys
            .iter()
            .map(|(key, frame)| match frame {
                Some(_) => None,
                None => self.index.get(key),
            })
            .collect();
        ChunksIter {
            frames: FramePass::new(
                &mut self.file,
                self.file_len,
                &mut self.io,
                self.config.strategy,
                self.config.cache_capacity,
                plan,
            ),
            keys: keys.into_iter(),
        }
    }

    /// All live chunks in canonical (lexicographic key) order.
    ///
    /// Convenience for tests and small equivalence checks — materializes
    /// the whole live set. Production passes stream through
    /// [`MrbgStore::chunks_iter`] instead, or (compaction, export) copy
    /// the raw frames without decoding them.
    pub fn all_chunks(&mut self) -> Result<Vec<Chunk>> {
        self.chunks_iter().collect()
    }

    /// Offline reconstruction: rewrite live chunks as a single batch,
    /// dropping every obsolete version (paper §3.4). A commit of its own —
    /// see the module docs. The pending set is written back first.
    ///
    /// Copy-only: live frames stream out of a windowed read pass in
    /// canonical key order and are appended to the temp file *verbatim*.
    /// Frames are deterministic, so the result is byte-identical to
    /// decoding and re-encoding every chunk, without materialising any.
    /// Each frame's checksum and key are verified on the raw bytes first:
    /// a corrupt live frame fails the compaction (leaving the original
    /// file and index in place) and is never laundered into the new file.
    pub fn compact(&mut self) -> Result<CompactionStats> {
        self.write_back()?;
        let before_bytes = self.file_len;
        let batches_before = self.index.batches().len() as u32;

        // Rewrite into a temp file, then swap. Write-side I/O goes to a
        // local accumulator because the read pass holds `&mut self.io`.
        let tmp_path = Self::data_path(&self.dir).with_extension("compact");
        let mut tmp = File::options()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&tmp_path)?;
        let mut write_io = IoStats::default();
        let mut append = AppendBuffer::new(self.config.append_capacity, 0);
        let mut live = self.index.sorted_mut();
        let frames: Vec<(&[u8], LiveFrame<'_>)> = live
            .iter()
            .map(|(key, loc)| (*key, LiveFrame::Stored(**loc)))
            .collect();
        copy_live_frames(
            &mut self.file,
            self.file_len,
            &mut self.io,
            self.config,
            &frames,
            |frame| append.append(frame, &mut tmp, &mut write_io).map(drop),
        )?;
        // Fsync the reconstruction before the rename makes it visible.
        append.flush_durable(&mut tmp, &mut write_io)?;
        self.io += write_io;
        let after_bytes = append.next_offset();
        let live_chunks = live.len() as u64;
        drop(tmp);
        std::fs::rename(&tmp_path, Self::data_path(&self.dir))?;

        self.file = File::options()
            .read(true)
            .write(true)
            .open(Self::data_path(&self.dir))?;
        self.file_len = after_bytes;
        self.generation += 1;
        // Every byte of the new file is synced; only the index is behind.
        self.data_unsynced = false;
        self.index_stale = true;
        // Re-point the live keys at their new consecutive positions.
        let mut offset = 0;
        for (_, loc) in &mut live {
            loc.offset = offset;
            loc.batch = 0;
            offset += loc.len as u64;
        }
        drop(live);
        self.index.set_batches(vec![BatchInfo {
            start: 0,
            end: after_bytes,
        }]);
        self.persist_index()?;
        Ok(CompactionStats {
            before_bytes,
            after_bytes,
            live_chunks,
            batches_before,
        })
    }

    /// Serialize the store for checkpointing (§6.1).
    ///
    /// The payload is the store's *compacted image*: the live frames in
    /// canonical key order, back to back from offset 0, plus the index of
    /// that one-batch file. Obsolete versions are not shipped, so a
    /// checkpoint costs live bytes rather than file bytes, and two stores
    /// with identical live content export byte-identical payloads
    /// regardless of their on-disk batch history. Layout:
    ///
    /// ```text
    /// data_len  varint
    /// data      data_len bytes — the live frames, verbatim
    /// index     the rest — the index file of that image
    /// ```
    ///
    /// Like [`MrbgStore::compact`], export is a verified copy: the frames
    /// stream out of the same windowed read pass, each checked for its
    /// checksum and key on the raw bytes and appended without decoding.
    /// A corrupt live frame fails the export instead of being laundered
    /// into a checkpoint. The index is written straight from the sorted
    /// live list, since key order is offset order in the image.
    pub fn export(&mut self) -> Result<Vec<u8>> {
        // The live set: the stored frames the pending set does not shadow,
        // plus the pending frames, in canonical key order.
        let pending = &self.pending.frames;
        let mut live: Vec<(&[u8], LiveFrame<'_>)> = self
            .index
            .sorted_mut()
            .into_iter()
            .filter(|(key, _)| !pending.contains_key(*key))
            .map(|(key, loc)| (key, LiveFrame::Stored(*loc)))
            .collect();
        if !pending.is_empty() {
            live.extend(pending.iter().filter_map(|(key, frame)| {
                Some((key.as_slice(), LiveFrame::Pending(frame.as_deref()?)))
            }));
            live.sort_unstable_by(|a, b| a.0.cmp(b.0));
        }
        let data_len: u64 = live.iter().map(|(_, f)| f.len() as u64).sum();
        let mut payload =
            Vec::with_capacity(varint_len(data_len) + data_len as usize + 16 + live.len() * 32);
        write_varint(data_len, &mut payload);
        copy_live_frames(
            &mut self.file,
            self.file_len,
            &mut self.io,
            self.config,
            &live,
            |frame| {
                payload.extend_from_slice(frame);
                Ok(())
            },
        )?;
        ChunkIndex::write_compacted(live.iter().map(|(key, f)| (*key, f.len())), &mut payload);
        Ok(payload)
    }

    /// Restore a store from an [`MrbgStore::export`] payload into `dir`.
    ///
    /// The payload is sliced, not decoded: its data region becomes the
    /// data file and the rest the index file, then the store is opened as
    /// usual. The opened index must describe exactly what an export
    /// writes — one batch whose live frames, in canonical key order, tile
    /// the data file from offset 0 — or the import fails with
    /// [`Error::Corrupt`]. Frames are checksum-verified on every read, so
    /// a payload either fails or restores exactly the exported chunks.
    pub fn import(dir: impl AsRef<Path>, payload: &[u8], config: StoreConfig) -> Result<Self> {
        let mut rest = payload;
        let data_len = read_varint(&mut rest)?;
        if data_len > rest.len() as u64 {
            return Err(Error::corrupt(format!(
                "store payload: {data_len}-byte data region in {} bytes",
                rest.len()
            )));
        }
        let (data, index_bytes) = rest.split_at(data_len as usize);
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        std::fs::write(Self::data_path(&dir), data)?;
        std::fs::write(Self::index_path(&dir), index_bytes)?;
        let mut store = Self::open(dir, config)?;
        let end = store.file_len;
        let mut next = 0;
        let tiles = store.index.batches() == [BatchInfo { start: 0, end }]
            && store.index.sorted_mut().iter().all(|(_, loc)| {
                let at = loc.offset == next && loc.batch == 0;
                next += loc.len as u64;
                at
            })
            && next == end;
        if !tiles {
            return Err(Error::corrupt(
                "store payload: index does not tile its data region",
            ));
        }
        Ok(store)
    }

    /// Read `len` bytes at `offset` into the persistent scratch buffer and
    /// return them. The buffer is reused across calls (its capacity only
    /// ever grows), so steady-state point reads allocate nothing.
    fn read_region(&mut self, offset: u64, len: u64) -> Result<&[u8]> {
        self.file.seek(SeekFrom::Start(offset))?;
        let len = len as usize;
        if self.read_scratch.capacity() >= len {
            self.io.record_scratch_reuse();
        }
        self.read_scratch.resize(len, 0);
        self.file.read_exact(&mut self.read_scratch[..len])?;
        self.io.record_read(len as u64);
        Ok(&self.read_scratch[..len])
    }
}

/// Where a live chunk's latest frame is: in the data file, or in the
/// pending set.
#[derive(Clone, Copy)]
enum LiveFrame<'a> {
    Stored(ChunkLoc),
    Pending(&'a [u8]),
}

impl LiveFrame<'_> {
    fn len(&self) -> u32 {
        match self {
            LiveFrame::Stored(loc) => loc.len,
            LiveFrame::Pending(frame) => frame.len() as u32,
        }
    }
}

/// Decode a frame the index or the pending set holds for `key`, verifying
/// its checksum and its key.
fn decode_checked(mut frame: &[u8], key: &[u8]) -> Result<Chunk> {
    let chunk = decode_framed(&mut frame)?;
    if chunk.key != key {
        return Err(Error::corrupt(
            "index points at a chunk for a different key",
        ));
    }
    Ok(chunk)
}

/// The loop [`MrbgStore::compact`] and [`MrbgStore::export`] share: plan a
/// [`FramePass`] over the stored frames of `live` (canonical key order),
/// verify each raw frame's checksum and key, and hand it — or the pending
/// frame in its place — to `sink` verbatim.
fn copy_live_frames(
    file: &mut File,
    file_len: u64,
    io: &mut IoStats,
    config: StoreConfig,
    live: &[(&[u8], LiveFrame<'_>)],
    mut sink: impl FnMut(&[u8]) -> Result<()>,
) -> Result<()> {
    let mut pass = FramePass::new(
        file,
        file_len,
        io,
        config.strategy,
        config.cache_capacity,
        live.iter()
            .map(|(_, frame)| match frame {
                LiveFrame::Stored(loc) => Some(*loc),
                LiveFrame::Pending(_) => None,
            })
            .collect(),
    );
    for (key, live_frame) in live {
        let stored = pass.next_frame()?;
        let frame = match live_frame {
            LiveFrame::Pending(frame) => frame,
            LiveFrame::Stored(_) => {
                let frame = stored.ok_or_else(|| Error::corrupt("indexed chunk disappeared"))?;
                verify_frame(frame, key)?;
                frame
            }
        };
        sink(frame)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ChunkEntry;
    use crate::merge::DeltaEntry;
    use i2mr_common::hash::MapKey;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "i2mr-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn chunk(key: &str, entries: &[(u128, &str)]) -> Chunk {
        Chunk::new(
            key.as_bytes().to_vec(),
            entries
                .iter()
                .map(|(mk, v)| ChunkEntry {
                    mk: MapKey(*mk),
                    value: v.as_bytes().to_vec(),
                })
                .collect(),
        )
    }

    #[test]
    fn create_append_get_roundtrip() {
        let mut s = MrbgStore::create(tmpdir("rt"), StoreConfig::default()).unwrap();
        s.append_batch(vec![chunk("b", &[(1, "x")]), chunk("a", &[(2, "y")])])
            .unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.n_batches(), 1);
        let a = s.get(b"a").unwrap().unwrap();
        assert_eq!(a.entries[0].value, b"y");
        assert!(s.get(b"missing").unwrap().is_none());
    }

    #[test]
    fn open_preloads_persisted_index() {
        let dir = tmpdir("open");
        {
            let mut s = MrbgStore::create(&dir, StoreConfig::default()).unwrap();
            s.append_batch(vec![chunk("k", &[(1, "v")])]).unwrap();
        }
        let mut s = MrbgStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(b"k").unwrap().unwrap().entries[0].value, b"v");
    }

    #[test]
    fn merge_apply_updates_deletes_and_creates() {
        let mut s = MrbgStore::create(tmpdir("merge"), StoreConfig::default()).unwrap();
        s.append_batch(vec![
            chunk("a", &[(1, "a1"), (2, "a2")]),
            chunk("b", &[(1, "b1")]),
        ])
        .unwrap();

        let outcomes = s
            .merge_apply(vec![
                DeltaChunk {
                    key: b"c".to_vec(),
                    entries: vec![DeltaEntry::Insert(MapKey(9), b"c9".to_vec())],
                },
                DeltaChunk {
                    key: b"a".to_vec(),
                    entries: vec![
                        DeltaEntry::Delete(MapKey(1)),
                        DeltaEntry::Insert(MapKey(3), b"a3".to_vec()),
                    ],
                },
                DeltaChunk {
                    key: b"b".to_vec(),
                    entries: vec![DeltaEntry::Delete(MapKey(1))],
                },
            ])
            .unwrap();

        // Outcomes in canonical key order: a, b, c.
        let values = |frame: Option<&[u8]>| -> Option<Vec<Vec<u8>>> {
            let entries = crate::format::frame_entries(frame?).unwrap();
            Some(entries.map(|e| e.unwrap().1.to_vec()).collect())
        };
        let outcomes: Vec<(&[u8], Option<&[u8]>)> = outcomes.iter().collect();
        assert_eq!(outcomes[0].0, b"a");
        assert_eq!(
            values(outcomes[0].1).unwrap(),
            vec![b"a2".to_vec(), b"a3".to_vec()]
        );
        assert_eq!(outcomes[1], (&b"b"[..], None));
        assert_eq!(values(outcomes[2].1).unwrap(), vec![b"c9".to_vec()]);

        // Store state reflects the merge.
        assert_eq!(s.len(), 2); // a and c; b removed
        assert!(s.get(b"b").unwrap().is_none());
        assert_eq!(s.get(b"a").unwrap().unwrap().entries.len(), 2);
        assert_eq!(s.n_batches(), 2);
    }

    #[test]
    fn merged_state_survives_reopen() {
        let dir = tmpdir("reopen-merge");
        {
            let mut s = MrbgStore::create(&dir, StoreConfig::default()).unwrap();
            s.append_batch(vec![chunk("k", &[(1, "old")])]).unwrap();
            s.merge_apply(vec![DeltaChunk {
                key: b"k".to_vec(),
                entries: vec![
                    DeltaEntry::Delete(MapKey(1)),
                    DeltaEntry::Insert(MapKey(1), b"new".to_vec()),
                ],
            }])
            .unwrap();
        }
        let mut s = MrbgStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(s.get(b"k").unwrap().unwrap().entries[0].value, b"new");
    }

    #[test]
    fn obsolete_versions_accumulate_then_compaction_reclaims() {
        let mut s = MrbgStore::create(tmpdir("compact"), StoreConfig::default()).unwrap();
        s.append_batch(vec![chunk("a", &[(1, "v0")]), chunk("b", &[(1, "v0")])])
            .unwrap();
        for round in 1..=3 {
            s.merge_apply(vec![DeltaChunk {
                key: b"a".to_vec(),
                entries: vec![
                    DeltaEntry::Delete(MapKey(1)),
                    DeltaEntry::Insert(MapKey(1), format!("v{round}").into_bytes()),
                ],
            }])
            .unwrap();
        }
        assert_eq!(s.n_batches(), 4);
        let file_before = s.file_len();
        let stats = s.compact().unwrap();
        assert_eq!(stats.before_bytes, file_before);
        assert_eq!(stats.live_chunks, 2);
        assert_eq!(stats.batches_before, 4);
        assert!(stats.reclaimed() > 0);
        assert_eq!(s.n_batches(), 1);
        // Data intact after compaction.
        assert_eq!(s.get(b"a").unwrap().unwrap().entries[0].value, b"v3");
        assert_eq!(s.get(b"b").unwrap().unwrap().entries[0].value, b"v0");
    }

    #[test]
    fn all_chunks_in_canonical_order() {
        let mut s = MrbgStore::create(tmpdir("all"), StoreConfig::default()).unwrap();
        s.append_batch(vec![
            chunk("z", &[(1, "1")]),
            chunk("a", &[(1, "1")]),
            chunk("m", &[(1, "1")]),
        ])
        .unwrap();
        let keys: Vec<Vec<u8>> = s.all_chunks().unwrap().into_iter().map(|c| c.key).collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"m".to_vec(), b"z".to_vec()]);
    }

    #[test]
    fn export_import_roundtrip() {
        let mut s = MrbgStore::create(tmpdir("exp"), StoreConfig::default()).unwrap();
        s.append_batch(vec![chunk("a", &[(1, "x"), (2, "y")])])
            .unwrap();
        let payload = s.export().unwrap();
        let mut restored =
            MrbgStore::import(tmpdir("imp"), &payload, StoreConfig::default()).unwrap();
        assert_eq!(restored.len(), 1);
        let c = restored.get(b"a").unwrap().unwrap();
        assert_eq!(c.entries.len(), 2);
    }

    #[test]
    fn point_reads_reuse_the_scratch_buffer() {
        let mut s = MrbgStore::create(tmpdir("scratch"), StoreConfig::default()).unwrap();
        s.append_batch(vec![
            chunk("big", &[(1, "a-rather-long-value-payload")]),
            chunk("sml", &[(2, "v")]),
        ])
        .unwrap();
        s.reset_io_stats();

        // First read allocates (empty scratch), every following read whose
        // chunk fits in the grown buffer is allocation-free.
        s.get(b"big").unwrap().unwrap();
        let after_first = s.io_stats().scratch_reuses;
        assert_eq!(after_first, 0, "first read must grow the scratch");
        for _ in 0..5 {
            s.get(b"big").unwrap().unwrap();
            s.get(b"sml").unwrap().unwrap();
        }
        let io = s.io_stats();
        assert_eq!(io.scratch_reuses, 10, "all later reads reuse the buffer");
        assert_eq!(io.reads, 11);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "canonical batch order")]
    fn duplicate_chunk_keys_in_one_batch_are_rejected() {
        let mut s = MrbgStore::create(tmpdir("dupkeys"), StoreConfig::default()).unwrap();
        s.append_batch(vec![chunk("k", &[(1, "a")]), chunk("k", &[(2, "b")])])
            .unwrap();
    }

    #[test]
    fn deferred_merge_is_committed_by_persist_index() {
        let dir = tmpdir("deferred");
        let mut s = MrbgStore::create(&dir, StoreConfig::default()).unwrap();
        s.append_batch(vec![chunk("a", &[(1, "v0")])]).unwrap();
        assert!(!s.is_dirty(), "append_batch ends in a commit");
        let syncs_before = s.io_stats().syncs;
        s.merge_apply_deferred(vec![DeltaChunk {
            key: b"a".to_vec(),
            entries: vec![
                DeltaEntry::Delete(MapKey(1)),
                DeltaEntry::Insert(MapKey(1), b"v1".to_vec()),
            ],
        }])
        .unwrap();
        assert!(s.is_dirty());
        assert_eq!(
            s.io_stats().syncs,
            syncs_before,
            "a deferred merge syncs nothing"
        );
        // Every in-memory read path sees the merge immediately.
        assert_eq!(s.get(b"a").unwrap().unwrap().entries[0].value, b"v1");
        let mut r = s.reader().unwrap();
        assert_eq!(
            s.get_with(&mut r, b"a").unwrap().unwrap().entries[0].value,
            b"v1"
        );
        // But the index *file* still describes the last commit: a reopen
        // at this point is the pre-merge store.
        let mut stale = MrbgStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(stale.get(b"a").unwrap().unwrap().entries[0].value, b"v0");
        // The commit — data sync, then index sync — makes the merge
        // durable for reopen.
        s.persist_index().unwrap();
        assert!(!s.is_dirty());
        assert_eq!(
            s.io_stats().syncs,
            syncs_before + 2,
            "one commit, two syncs"
        );
        let mut fresh = MrbgStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(fresh.get(b"a").unwrap().unwrap().entries[0].value, b"v1");
        // And the deferred path produced the same live content the eager
        // path would have.
        assert_eq!(s.export().unwrap(), fresh.export().unwrap());
    }

    #[test]
    fn eager_merge_and_compaction_are_commits() {
        let dir = tmpdir("commits");
        let mut s = MrbgStore::create(&dir, StoreConfig::default()).unwrap();
        s.append_batch(vec![chunk("a", &[(1, "v0")]), chunk("b", &[(1, "v0")])])
            .unwrap();
        let upsert = |v: &str| {
            vec![DeltaChunk {
                key: b"a".to_vec(),
                entries: vec![DeltaEntry::Insert(MapKey(1), v.as_bytes().to_vec())],
            }]
        };
        let before = s.io_stats().syncs;
        s.merge_apply(upsert("v1")).unwrap();
        assert!(!s.is_dirty());
        assert_eq!(s.io_stats().syncs, before + 2);
        // Compacting a dirty store commits it: two syncs (reconstructed
        // file, index), never a third for the file it replaces.
        s.merge_apply_deferred(upsert("v2")).unwrap();
        let before = s.io_stats().syncs;
        s.compact().unwrap();
        assert!(!s.is_dirty());
        assert_eq!(s.io_stats().syncs, before + 2);
        let mut reopened = MrbgStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(reopened.get(b"a").unwrap().unwrap().entries[0].value, b"v2");
        assert_eq!(reopened.n_batches(), 1);
    }

    /// A store with garbage: an initial batch of 40 chunks, then two
    /// merges that each rewrite a third of them and remove one.
    fn churned(dir: &Path) -> MrbgStore {
        let mut s = MrbgStore::create(dir, StoreConfig::default()).unwrap();
        let all: Vec<Chunk> = (0..40)
            .map(|i| chunk(&format!("k{i:02}"), &[(1, "v0"), (2, "padding-padding")]))
            .collect();
        s.append_batch(all).unwrap();
        for round in 1..=2u32 {
            let mut deltas: Vec<DeltaChunk> = (0..40)
                .filter(|i| i % 3 == round as usize)
                .map(|i| DeltaChunk {
                    key: format!("k{i:02}").into_bytes(),
                    entries: vec![DeltaEntry::Insert(
                        MapKey(1),
                        format!("v{round}").into_bytes(),
                    )],
                })
                .collect();
            deltas.push(DeltaChunk {
                key: format!("k{:02}", 30 + 3 * round).into_bytes(),
                entries: vec![DeltaEntry::Delete(MapKey(1)), DeltaEntry::Delete(MapKey(2))],
            });
            s.merge_apply(deltas).unwrap();
        }
        s
    }

    #[test]
    fn copy_only_compaction_is_byte_identical_to_a_fresh_store() {
        let dir = tmpdir("copy-compact");
        let mut s = churned(&dir);
        let live = s.all_chunks().unwrap();
        let stats = s.compact().unwrap();
        assert_eq!(stats.live_chunks as usize, live.len());
        assert!(stats.reclaimed() > 0);
        assert_eq!(s.live_bytes(), s.file_len(), "nothing but live frames");

        // The reference: a fresh store preserving the same chunks in one
        // batch — what decode + re-encode compaction used to produce.
        let fresh_dir = tmpdir("copy-compact-fresh");
        let mut fresh = MrbgStore::create(&fresh_dir, StoreConfig::default()).unwrap();
        fresh.append_batch(live.clone()).unwrap();
        for name in ["mrbg.data", "mrbg.index"] {
            assert_eq!(
                std::fs::read(dir.join(name)).unwrap(),
                std::fs::read(fresh_dir.join(name)).unwrap(),
                "{name} differs from the fresh store's"
            );
        }
        // The in-memory index was patched in place to the same state.
        assert_eq!(s.all_chunks().unwrap(), live);
        assert_eq!(s.export().unwrap(), fresh.export().unwrap());
    }

    #[test]
    fn compaction_refuses_to_launder_a_corrupt_live_frame() {
        let dir = tmpdir("compact-corrupt");
        let mut s = churned(&dir);
        let data = MrbgStore::data_path(&dir);
        let index = MrbgStore::index_path(&dir);
        let loc = s.index.get(b"k07").unwrap();
        {
            let mut f = File::options().read(true).write(true).open(&data).unwrap();
            let at = loc.offset + loc.len as u64 / 2;
            f.seek(SeekFrom::Start(at)).unwrap();
            let mut b = [0u8; 1];
            f.read_exact(&mut b).unwrap();
            f.seek(SeekFrom::Start(at)).unwrap();
            std::io::Write::write_all(&mut f, &[b[0] ^ 0x01]).unwrap();
        }
        let data_before = std::fs::read(&data).unwrap();
        let index_before = std::fs::read(&index).unwrap();
        let (len_before, batches_before) = (s.file_len(), s.n_batches());

        let err = s.compact().unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "got: {err}");
        // The original file and index are still in place, on disk and in
        // memory: every other chunk still reads, the bad one still fails.
        assert_eq!(std::fs::read(&data).unwrap(), data_before);
        assert_eq!(std::fs::read(&index).unwrap(), index_before);
        assert_eq!((s.file_len(), s.n_batches()), (len_before, batches_before));
        assert_eq!(s.get(b"k08").unwrap().unwrap().entries[0].value, b"v2");
        assert!(s.get(b"k07").is_err());
    }

    #[test]
    fn export_refuses_to_launder_a_corrupt_live_frame() {
        let dir = tmpdir("export-corrupt");
        let mut s = churned(&dir);
        let loc = s.index.get(b"k07").unwrap();
        {
            let mut f = File::options()
                .read(true)
                .write(true)
                .open(MrbgStore::data_path(&dir))
                .unwrap();
            let at = loc.offset + loc.len as u64 / 2;
            f.seek(SeekFrom::Start(at)).unwrap();
            let mut b = [0u8; 1];
            f.read_exact(&mut b).unwrap();
            f.seek(SeekFrom::Start(at)).unwrap();
            std::io::Write::write_all(&mut f, &[b[0] ^ 0x01]).unwrap();
        }
        let err = s.export().unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "got: {err}");
    }

    #[test]
    fn export_payload_is_the_compacted_image() {
        let dir = tmpdir("export-image");
        let mut s = churned(&dir);
        let live = s.all_chunks().unwrap();
        let payload = s.export().unwrap();

        // varint(data_len) ‖ data ‖ index, where data and index are the
        // files of a fresh store preserving the live chunks in one batch.
        let fresh_dir = tmpdir("export-image-fresh");
        let mut fresh = MrbgStore::create(&fresh_dir, StoreConfig::default()).unwrap();
        fresh.append_batch(live.clone()).unwrap();
        let data = std::fs::read(fresh_dir.join("mrbg.data")).unwrap();
        let mut want = Vec::new();
        write_varint(data.len() as u64, &mut want);
        want.extend_from_slice(&data);
        want.extend_from_slice(&std::fs::read(fresh_dir.join("mrbg.index")).unwrap());
        assert_eq!(payload, want);

        let mut restored =
            MrbgStore::import(tmpdir("export-image-imp"), &payload, StoreConfig::default())
                .unwrap();
        assert_eq!(restored.all_chunks().unwrap(), live);
        assert_eq!(restored.export().unwrap(), payload);

        // An empty store exports an empty image that imports as empty.
        let mut empty = MrbgStore::create(tmpdir("export-empty"), StoreConfig::default()).unwrap();
        let payload = empty.export().unwrap();
        let mut restored =
            MrbgStore::import(tmpdir("export-empty-imp"), &payload, StoreConfig::default())
                .unwrap();
        assert!(restored.is_empty());
        assert_eq!(restored.export().unwrap(), payload);
    }

    /// Every truncation and every single-bit flip of one checkpoint
    /// payload either fails the import or its read-back, or restores
    /// exactly the exported chunks — never a panic, never other content.
    #[test]
    fn corrupt_or_truncated_payloads_fail_or_restore_exactly() {
        let mut s = churned(&tmpdir("enum-src"));
        let want = s.all_chunks().unwrap();
        let payload = s.export().unwrap();
        let dir = tmpdir("enum-imp");
        let restore = |bytes: &[u8]| -> Result<Vec<Chunk>> {
            MrbgStore::import(&dir, bytes, StoreConfig::default())?.all_chunks()
        };
        assert_eq!(restore(&payload).unwrap(), want);
        for cut in 0..payload.len() {
            if let Ok(got) = restore(&payload[..cut]) {
                assert_eq!(got, want, "truncated to {cut} bytes");
            }
        }
        for i in 0..payload.len() {
            let mut bad = payload.clone();
            bad[i] ^= 1 << (i % 8);
            if let Ok(got) = restore(&bad) {
                assert_eq!(got, want, "bit {} of byte {i} flipped", i % 8);
            }
        }
    }

    #[test]
    fn open_rejects_an_index_past_the_end_of_the_data_file() {
        let dir = tmpdir("short-data");
        {
            let mut s = MrbgStore::create(&dir, StoreConfig::default()).unwrap();
            let all: Vec<Chunk> = (0..40)
                .map(|i| chunk(&format!("k{i:02}"), &[(1, "v0")]))
                .collect();
            s.append_batch(all).unwrap();
        }
        let data = MrbgStore::data_path(&dir);
        let len = std::fs::metadata(&data).unwrap().len();
        File::options()
            .write(true)
            .open(&data)
            .unwrap()
            .set_len(len - 10)
            .unwrap();
        let err = MrbgStore::open(&dir, StoreConfig::default())
            .err()
            .expect("open must refuse a data file shorter than its index");
        assert!(matches!(err, Error::Corrupt(_)), "got: {err}");

        // The same shape as a checkpoint payload: a data region cut short
        // under an index that still describes all of it.
        let mut s = churned(&tmpdir("short-payload-src"));
        let payload = s.export().unwrap();
        let mut rest = payload.as_slice();
        let data_len = read_varint(&mut rest).unwrap() as usize;
        let mut short = Vec::new();
        write_varint(data_len as u64 - 10, &mut short);
        short.extend_from_slice(&rest[..data_len - 10]);
        short.extend_from_slice(&rest[data_len..]);
        let err = MrbgStore::import(tmpdir("short-payload"), &short, StoreConfig::default())
            .err()
            .expect("import must refuse a payload whose index reaches past its data");
        assert!(matches!(err, Error::Corrupt(_)), "got: {err}");
    }

    #[test]
    fn torn_tail_is_salvaged_on_open() {
        use std::io::Write;
        let dir = tmpdir("torn");
        {
            let mut s = MrbgStore::create(&dir, StoreConfig::default()).unwrap();
            s.append_batch(vec![chunk("a", &[(1, "keep-me")])]).unwrap();
        }
        // Simulate a crash mid-append: garbage bytes past the indexed end,
        // never described by any index file.
        let data = MrbgStore::data_path(dir.as_path());
        let intact = std::fs::metadata(&data).unwrap().len();
        {
            let mut f = File::options().append(true).open(&data).unwrap();
            f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01]).unwrap();
        }
        let mut s = MrbgStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(s.take_salvaged_bytes(), 5, "torn tail truncated");
        assert_eq!(s.take_salvaged_bytes(), 0, "counter is consumed");
        assert_eq!(s.file_len(), intact);
        assert_eq!(std::fs::metadata(&data).unwrap().len(), intact);
        // The store still works: reads and further appends are clean.
        assert_eq!(s.get(b"a").unwrap().unwrap().entries[0].value, b"keep-me");
        s.append_batch(vec![chunk("b", &[(2, "post-salvage")])])
            .unwrap();
        assert_eq!(
            s.get(b"b").unwrap().unwrap().entries[0].value,
            b"post-salvage"
        );
    }

    #[test]
    fn salvage_preserves_intact_unindexed_frames() {
        // A deferred merge whose frames all reached the file, but whose
        // commit never ran, leaves valid frames past the indexed end. Open
        // must keep them byte-for-byte: a writer still holding the store
        // may yet commit an index that references them.
        let dir = tmpdir("keepvalid");
        let mut s = MrbgStore::create(&dir, StoreConfig::default()).unwrap();
        s.append_batch(vec![chunk("a", &[(1, "v0")])]).unwrap();
        s.merge_apply_deferred(vec![DeltaChunk {
            key: b"a".to_vec(),
            entries: vec![
                DeltaEntry::Delete(MapKey(1)),
                DeltaEntry::Insert(MapKey(1), b"v1".to_vec()),
            ],
        }])
        .unwrap();
        let full = s.file_len();
        // Reopen without persisting the index — the merged batch is an
        // intact unindexed tail and must survive.
        let mut reopened = MrbgStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(reopened.take_salvaged_bytes(), 0, "valid frames kept");
        assert_eq!(
            std::fs::metadata(MrbgStore::data_path(dir.as_path()))
                .unwrap()
                .len(),
            full
        );
        // Committing the original afterwards makes the deferred merge
        // fully durable, exactly as before.
        s.persist_index().unwrap();
        let mut fresh = MrbgStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(fresh.get(b"a").unwrap().unwrap().entries[0].value, b"v1");
    }

    #[test]
    fn corrupted_chunk_is_detected_on_read() {
        let dir = tmpdir("bitrot");
        let mut s = MrbgStore::create(&dir, StoreConfig::default()).unwrap();
        s.append_batch(vec![chunk("a", &[(1, "precious-bytes")])])
            .unwrap();
        let loc = s.index.get(b"a").unwrap();
        // Flip one payload bit on disk (past the frame header and the key).
        {
            let mut f = File::options()
                .read(true)
                .write(true)
                .open(MrbgStore::data_path(dir.as_path()))
                .unwrap();
            f.seek(SeekFrom::Start(loc.offset + loc.len as u64 - 3))
                .unwrap();
            let mut b = [0u8; 1];
            f.read_exact(&mut b).unwrap();
            f.seek(SeekFrom::Start(loc.offset + loc.len as u64 - 3))
                .unwrap();
            std::io::Write::write_all(&mut f, &[b[0] ^ 0x20]).unwrap();
        }
        let err = s.get(b"a").unwrap_err();
        assert!(err.to_string().contains("checksum"), "got: {err}");
        // The split read path detects it too.
        let mut r = s.reader().unwrap();
        assert!(s.get_with(&mut r, b"a").is_err());
    }

    /// Everything a failed merge must leave as it was: the file length
    /// (in memory and on disk), the index with its batch table, and the
    /// dirty flag.
    fn merge_visible_state(
        s: &MrbgStore,
    ) -> (
        u64,
        u64,
        std::collections::BTreeMap<Vec<u8>, ChunkLoc>,
        Vec<BatchInfo>,
        bool,
    ) {
        (
            s.file_len(),
            s.file.metadata().unwrap().len(),
            s.index.iter().map(|(k, loc)| (k.clone(), *loc)).collect(),
            s.index.batches().to_vec(),
            s.is_dirty(),
        )
    }

    #[test]
    fn two_delta_chunks_for_one_key_are_rejected_untouched() {
        let mut s = MrbgStore::create(tmpdir("dupdelta"), StoreConfig::default()).unwrap();
        s.append_batch(vec![chunk("k", &[(1, "a")]), chunk("z", &[(1, "z")])])
            .unwrap();
        let before = merge_visible_state(&s);
        let insert = |key: &str, mk: u128| DeltaChunk {
            key: key.as_bytes().to_vec(),
            entries: vec![DeltaEntry::Insert(MapKey(mk), b"v".to_vec())],
        };
        let err = s
            .merge_apply_deferred(vec![insert("k", 2), insert("z", 5), insert("k", 3)])
            .unwrap_err();
        assert!(err.to_string().contains("two delta chunks"), "got: {err}");
        assert_eq!(merge_visible_state(&s), before);
        // One chunk per key is the contract: merged as one, both edges land.
        s.merge_apply(vec![DeltaChunk {
            key: b"k".to_vec(),
            entries: vec![
                DeltaEntry::Insert(MapKey(2), b"v".to_vec()),
                DeltaEntry::Insert(MapKey(3), b"v".to_vec()),
            ],
        }])
        .unwrap();
        let mks: Vec<u128> = s
            .get(b"k")
            .unwrap()
            .unwrap()
            .entries
            .iter()
            .map(|e| e.mk.0)
            .collect();
        assert_eq!(mks, vec![1, 2, 3]);
    }

    #[test]
    fn corrupt_stored_frames_fail_the_merge_untouched() {
        for strategy in [QueryStrategy::default(), QueryStrategy::IndexOnly] {
            let dir = tmpdir("mergerot");
            let config = StoreConfig {
                strategy,
                ..StoreConfig::default()
            };
            let mut s = MrbgStore::create(&dir, config).unwrap();
            s.append_batch(vec![
                chunk("a", &[(1, "first"), (2, "")]),
                chunk("b", &[(7, "second")]),
            ])
            .unwrap();
            let touch_a = || {
                vec![DeltaChunk {
                    key: b"a".to_vec(),
                    entries: vec![
                        DeltaEntry::Delete(MapKey(1)),
                        DeltaEntry::Insert(MapKey(3), b"third".to_vec()),
                    ],
                }]
            };
            let before = merge_visible_state(&s);
            let loc = s.index.get(b"a").unwrap();
            let mut f = File::options()
                .read(true)
                .write(true)
                .open(MrbgStore::data_path(&dir))
                .unwrap();
            let mut flip = |at: u64, bit: u32| {
                let mut b = [0u8; 1];
                f.seek(SeekFrom::Start(at)).unwrap();
                f.read_exact(&mut b).unwrap();
                f.seek(SeekFrom::Start(at)).unwrap();
                std::io::Write::write_all(&mut f, &[b[0] ^ (1 << bit)]).unwrap();
            };
            for i in 0..loc.len as u64 {
                let bit = (i % 8) as u32;
                flip(loc.offset + i, bit);
                assert!(
                    s.merge_apply_deferred(touch_a()).is_err(),
                    "{strategy:?}: flip of bit {bit} at frame byte {i} merged"
                );
                assert_eq!(merge_visible_state(&s), before, "{strategy:?}: byte {i}");
                flip(loc.offset + i, bit);
            }
            // An index entry pointing at another key's (intact) frame.
            s.index.put(b"a".to_vec(), s.index.get(b"b").unwrap());
            let misdirected = merge_visible_state(&s);
            let err = s.merge_apply_deferred(touch_a()).unwrap_err();
            assert!(err.to_string().contains("different key"), "got: {err}");
            assert_eq!(merge_visible_state(&s), misdirected);
            // Restored, the same merge goes through.
            s.index.put(b"a".to_vec(), loc);
            s.merge_apply_deferred(touch_a()).unwrap();
            assert_eq!(
                s.get(b"a").unwrap().unwrap(),
                chunk("a", &[(2, ""), (3, "third")])
            );
        }
    }

    #[test]
    fn io_stats_track_merge_reads() {
        let mut s = MrbgStore::create(tmpdir("io"), StoreConfig::default()).unwrap();
        s.append_batch(vec![chunk("a", &[(1, "x")])]).unwrap();
        s.reset_io_stats();
        s.merge_apply(vec![DeltaChunk {
            key: b"a".to_vec(),
            entries: vec![DeltaEntry::Insert(MapKey(2), b"y".to_vec())],
        }])
        .unwrap();
        let io = s.io_stats();
        assert!(io.reads >= 1);
        assert!(io.bytes_read > 0);
        assert!(io.writes >= 1);
    }

    #[test]
    fn multiple_merges_build_multiple_batches_and_query_latest() {
        let mut s = MrbgStore::create(tmpdir("multi"), StoreConfig::default()).unwrap();
        let all: Vec<Chunk> = (0..20)
            .map(|i| chunk(&format!("k{i:02}"), &[(1, "v0")]))
            .collect();
        s.append_batch(all).unwrap();
        // Three merge rounds touching alternating halves.
        for round in 1..=3u32 {
            let deltas: Vec<DeltaChunk> = (0..20)
                .filter(|i| i % 2 == (round % 2) as usize)
                .map(|i| DeltaChunk {
                    key: format!("k{i:02}").into_bytes(),
                    entries: vec![
                        DeltaEntry::Delete(MapKey(1)),
                        DeltaEntry::Insert(MapKey(1), format!("v{round}").into_bytes()),
                    ],
                })
                .collect();
            s.merge_apply(deltas).unwrap();
        }
        assert_eq!(s.n_batches(), 4);
        // Evens last updated in round 2, odds in round 3.
        assert_eq!(s.get(b"k04").unwrap().unwrap().entries[0].value, b"v2");
        assert_eq!(s.get(b"k05").unwrap().unwrap().entries[0].value, b"v3");
        assert_eq!(s.len(), 20);
    }
}
