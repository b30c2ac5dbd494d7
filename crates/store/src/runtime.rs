//! The store runtime layer: [`StoreManager`] owns every partition's
//! [`MrbgStore`] and schedules store work on a handle to the shared
//! persistent [`WorkerPool`] executor.
//!
//! Before this layer, engines reached into per-partition stores through
//! `&mut MrbgStore` behind per-partition mutexes: merges ran inside reduce
//! tasks, point reads took the same exclusive lock as writes, and
//! [`MrbgStore::compact`] was a stop-the-world pass a caller had to invoke
//! by hand. The manager makes the store plane a scheduled, observable
//! subsystem of its own:
//!
//! * **A handle, not a borrow.** The manager is constructed with (a clone
//!   of) the shared executor and schedules all shard work on it — callers
//!   no longer thread a pool through every store operation, and background
//!   tasks submitted by the manager keep running after the submitting call
//!   returns.
//! * **Sharded, partition-affine merges** — [`StoreManager::merge_apply_all`]
//!   runs each partition's delta merge as a first-class
//!   [`TaskKind::StoreMerge`] task pinned to the partition's preferred
//!   worker (the same affinity rule map/reduce/sort tasks use), so merge
//!   work is scheduled, retried, and traced like any other task.
//! * **Group commit** — merges are *deferred*
//!   ([`MrbgStore::merge_apply_deferred`]): their merged frames wait in
//!   each shard's pending set, so no shard is appended to, fsynced or
//!   index-rewritten per merge. [`StoreManager::flush_indexes`] commits
//!   every dirty shard once, the shards concurrently — at
//!   [`StoreManager::settle_into`], or wherever an engine returns a
//!   merged plane to its caller.
//! * **Split read path** — point lookups go through a per-partition
//!   [`StoreReader`] under a *shared* lock ([`StoreManager::get`]), so
//!   lookups never serialize on a shard's write lock: reads on different
//!   shards are fully concurrent, and reads on one shard proceed while
//!   that shard merges. (Lookups on the *same* shard share its one
//!   reader; only merges, appends, and compactions take the write lock.)
//! * **Cross-iteration overlapped compaction** —
//!   [`StoreManager::schedule_compactions`] consults the
//!   [`CompactionPolicy`] (garbage-ratio, batch-count and file-size
//!   thresholds) and submits
//!   [`TaskKind::Compact`] tasks as *detached background work* on the
//!   executor, tagged with a fence epoch. Engines call it at the end of an
//!   iteration: the compactions then run concurrently with the **next**
//!   iteration's map phase and are fenced
//!   ([`StoreManager::fence_compactions`]) only when the next merge needs
//!   the shards quiescent — the cross-iteration overlap the paper's
//!   "reconstruction happens while the worker is idle" (§3.4) only
//!   approximated with the between-iteration tail. The synchronous
//!   [`StoreManager::maybe_compact`] (schedule + immediate fence) remains
//!   for callers without a following phase to overlap.
//! * **Aggregated observability** — [`StoreManager::drain_metrics`] folds
//!   every shard's [`IoStats`] (store + detached readers) and the
//!   compaction counters into a [`JobMetrics`]. It deliberately does *not*
//!   fence: stats of still-running background compactions are drained by a
//!   later call (engines fence once at end of run).
//!
//! `parallel: false` in [`StoreRuntimeConfig`] degrades every scheduled
//! operation to an inline loop on the caller thread — the *serial plane* —
//! which the equivalence suite and the `micro_store` bench use as the
//! baseline the sharded plane must match byte-for-byte.
//!
//! Ordering note: a background compaction and a following merge on the
//! same shard are serialized by the shard's `RwLock`, and compaction never
//! changes live content, so overlapping it with the next map phase cannot
//! change what any merge or export observes — `tests/store_equivalence.rs`
//! proves the planes byte-identical with the overlap enabled.

use crate::compact::{CompactionPolicy, CompactionStats};
use crate::format::Chunk;
use crate::merge::{DeltaChunk, MergedBatch};
use crate::query::QueryStrategy;
use crate::store::{MrbgStore, StoreConfig, StoreReader};
use i2mr_common::error::{Error, Result};
use i2mr_common::metrics::{IoStats, JobMetrics};
use i2mr_common::telemetry::{EventKind, StoreOpKind, TraceRecorder};
use i2mr_mapred::fault::{FailSite, FailpointRegistry, TaskId, TaskKind};
use i2mr_mapred::pool::{Lane, TaskSpec, WorkerPool};
use parking_lot::{Mutex, RwLock};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tunables of the store runtime (per-shard [`StoreConfig`] plus the
/// plane-level knobs).
#[derive(Clone, Copy, Debug)]
pub struct StoreRuntimeConfig {
    /// Per-shard store configuration.
    pub store: StoreConfig,
    /// When to schedule background compactions.
    pub policy: CompactionPolicy,
    /// Schedule shard operations on the worker pool (`true`, the sharded
    /// plane) or run them inline on the caller thread (`false`, the serial
    /// baseline plane).
    pub parallel: bool,
}

impl Default for StoreRuntimeConfig {
    fn default() -> Self {
        StoreRuntimeConfig {
            store: StoreConfig::default(),
            policy: CompactionPolicy::default(),
            parallel: true,
        }
    }
}

impl StoreRuntimeConfig {
    /// The serial baseline plane: inline operations, no background
    /// compaction. Equivalence tests pit this against the default.
    pub fn serial() -> Self {
        StoreRuntimeConfig {
            store: StoreConfig::default(),
            policy: CompactionPolicy::never(),
            parallel: false,
        }
    }
}

/// One partition's store plus its detached read handle. `Arc`-shared so
/// detached background compaction tasks can own their shard.
struct Shard {
    store: RwLock<MrbgStore>,
    reader: Mutex<StoreReader>,
    /// True while a background compaction for this shard is in flight —
    /// keeps the policy from piling up duplicate reconstructions.
    compacting: AtomicBool,
    /// True when the shard is fenced off after detected corruption or
    /// retry exhaustion — reads fail fast until
    /// [`StoreManager::rebuild_shard`] restores it from a checkpoint.
    quarantined: AtomicBool,
    /// Monotonic content version, bumped whenever live content changes
    /// (merge, append, rebuild). Compaction does **not** bump it —
    /// reconstruction never changes live chunks, so serving-plane cache
    /// entries stamped with this version stay valid across generation
    /// bumps (the detached readers chase generations independently).
    data_version: AtomicU64,
}

impl Shard {
    fn new(store: MrbgStore) -> Result<Arc<Self>> {
        let reader = store.reader()?;
        Ok(Arc::new(Shard {
            store: RwLock::new(store),
            reader: Mutex::new(reader),
            compacting: AtomicBool::new(false),
            quarantined: AtomicBool::new(false),
            data_version: AtomicU64::new(0),
        }))
    }

    /// Publish a content change (release-pairs with serving-plane loads).
    fn bump_version(&self) {
        self.data_version.fetch_add(1, Ordering::Release);
    }
}

/// Plane-level counters drained into [`JobMetrics`].
#[derive(Clone, Copy, Debug, Default)]
struct RuntimeStats {
    compactions: u64,
    bytes_reclaimed: u64,
    rebuilt_shards: u64,
}

/// Owner and scheduler of all per-partition MRBG stores. See module docs.
pub struct StoreManager {
    pool: WorkerPool,
    shards: Vec<Arc<Shard>>,
    config: StoreRuntimeConfig,
    stats: Arc<Mutex<RuntimeStats>>,
    /// Fence epochs this manager has scheduled compactions at and not yet
    /// fenced, with the shards each epoch covers. Epochs are the
    /// executor's error-ownership boundary, so the manager fences exactly
    /// its own epochs and can never consume (or miss) failures belonging
    /// to another submitter on the shared pool; the shard lists let a
    /// fence clear exactly the in-flight flags it settled (a concurrent
    /// `schedule_compactions`'s newer flags stay up).
    scheduled_epochs: Mutex<Vec<(u64, Vec<usize>)>>,
    /// Chaos-injection sites for the store plane ([`FailSite::StoreRead`],
    /// [`FailSite::StoreAppend`], [`FailSite::StoreCompact`]); disarmed by
    /// default. Checks fire inside the scheduled task bodies, *before* any
    /// shard state is touched, so an injected failure is always a clean
    /// retryable task failure rather than a half-applied mutation.
    failpoints: Arc<FailpointRegistry>,
    /// Telemetry recorder for store-op spans ([`StoreOpKind`]) and the
    /// exact [`EventKind::StoreIoSample`] drained into `JobMetrics`.
    /// `None` (the default) emits nothing. Store-op spans are emitted from
    /// the recorder's driver slot — worker attribution for scheduled shard
    /// work already comes from the executor's own task spans
    /// (`store-merge-{p}` / `compact-{p}`).
    recorder: Mutex<Option<Arc<TraceRecorder>>>,
}

/// Emit one store-op span if a recorder is installed (free function so
/// detached task bodies can use an owned clone of the recorder handle).
fn emit_store_op(
    rec: &Option<Arc<TraceRecorder>>,
    op: StoreOpKind,
    shard: usize,
    nanos: u64,
    bytes: u64,
) {
    if let Some(r) = rec {
        r.emit_driver(EventKind::StoreOp {
            op,
            shard: shard as u64,
            nanos,
            bytes,
        });
    }
}

impl StoreManager {
    fn shard_dir(dir: &Path, p: usize) -> PathBuf {
        dir.join(format!("shard-{p}"))
    }

    fn assemble(
        pool: &WorkerPool,
        shards: Vec<Arc<Shard>>,
        config: StoreRuntimeConfig,
    ) -> StoreManager {
        StoreManager {
            pool: pool.clone(),
            shards,
            config,
            stats: Arc::new(Mutex::new(RuntimeStats::default())),
            scheduled_epochs: Mutex::new(Vec::new()),
            failpoints: Arc::new(FailpointRegistry::disarmed()),
            recorder: Mutex::new(None),
        }
    }

    /// Install (or with `None`, remove) the telemetry recorder store-op
    /// spans and drained-I/O samples are emitted to.
    pub fn set_recorder(&self, recorder: Option<Arc<TraceRecorder>>) {
        *self.recorder.lock() = recorder;
    }

    /// The currently installed telemetry recorder, if any.
    pub fn recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.recorder.lock().clone()
    }

    /// Arm the store plane's chaos-injection sites. [`StoreRuntimeConfig`]
    /// is `Copy`, so the registry travels beside it rather than inside it.
    pub fn set_failpoints(&mut self, failpoints: Arc<FailpointRegistry>) {
        self.failpoints = failpoints;
    }

    /// Create `n` fresh shards under `dir` (`dir/shard-{p}` each),
    /// scheduling their work on (a clone of) `pool`.
    pub fn create(
        pool: &WorkerPool,
        dir: impl AsRef<Path>,
        n: usize,
        config: StoreRuntimeConfig,
    ) -> Result<Self> {
        let dir = dir.as_ref();
        let shards = (0..n)
            .map(|p| Shard::new(MrbgStore::create(Self::shard_dir(dir, p), config.store)?))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self::assemble(pool, shards, config))
    }

    /// Open `n` existing shards under `dir`. On the parallel plane the
    /// index preloads run as concurrent [`TaskKind::StoreMerge`] tasks on
    /// the executor (paper §3.4: the index is preloaded before Reduce
    /// computation — here all partitions preload at once); the serial
    /// plane loads inline.
    pub fn open(
        pool: &WorkerPool,
        dir: impl AsRef<Path>,
        n: usize,
        config: StoreRuntimeConfig,
    ) -> Result<Self> {
        let dir = dir.as_ref();
        let shards = if config.parallel {
            let tasks: Vec<TaskSpec<'_, MrbgStore>> = (0..n)
                .map(|p| {
                    TaskSpec::pinned(
                        TaskId {
                            kind: TaskKind::StoreMerge,
                            index: p,
                            iteration: 0,
                        },
                        p % pool.n_workers(),
                        move |_| MrbgStore::open(Self::shard_dir(dir, p), config.store),
                    )
                })
                .collect();
            pool.run_tasks(tasks)?
                .into_iter()
                .map(Shard::new)
                .collect::<Result<Vec<_>>>()?
        } else {
            (0..n)
                .map(|p| Shard::new(MrbgStore::open(Self::shard_dir(dir, p), config.store)?))
                .collect::<Result<Vec<_>>>()?
        };
        Ok(Self::assemble(pool, shards, config))
    }

    /// Wrap already-constructed stores (checkpoint restore, tests).
    pub fn from_stores(
        pool: &WorkerPool,
        stores: Vec<MrbgStore>,
        config: StoreRuntimeConfig,
    ) -> Result<Self> {
        let shards = stores
            .into_iter()
            .map(Shard::new)
            .collect::<Result<Vec<_>>>()?;
        Ok(Self::assemble(pool, shards, config))
    }

    /// Number of shards (= reduce partitions).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The runtime configuration.
    pub fn config(&self) -> &StoreRuntimeConfig {
        &self.config
    }

    /// The shared executor handle this manager schedules on.
    pub fn executor(&self) -> &WorkerPool {
        &self.pool
    }

    /// Run `f` with exclusive access to shard `p`'s store.
    pub fn with_store<R>(&self, p: usize, f: impl FnOnce(&mut MrbgStore) -> R) -> R {
        f(&mut self.shards[p].store.write())
    }

    /// Run `f` with shared access to shard `p`'s store.
    pub fn with_store_ref<R>(&self, p: usize, f: impl FnOnce(&MrbgStore) -> R) -> R {
        f(&self.shards[p].store.read())
    }

    /// Point lookup on shard `p` through the split read path: shared store
    /// access plus the shard's detached [`StoreReader`], so concurrent
    /// lookups (same shard or different shards) never take a write lock.
    pub fn get(&self, p: usize, key: &[u8]) -> Result<Option<Chunk>> {
        let shard = &self.shards[p];
        if shard.quarantined.load(Ordering::Acquire) {
            return Err(Error::corrupt("shard quarantined pending rebuild"));
        }
        self.failpoints.check(FailSite::StoreRead, "point-get")?;
        let store = shard.store.read();
        let mut reader = shard.reader.lock();
        store.get_with(&mut reader, key)
    }

    /// Shard `p`'s monotonic content version: bumped on every merge,
    /// append, and rebuild (not on compaction, which never changes live
    /// content). The serving plane stamps cache entries with this and
    /// treats any mismatch as an invalidation.
    pub fn data_version(&self, p: usize) -> u64 {
        self.shards[p].data_version.load(Ordering::Acquire)
    }

    /// Detach a fresh [`StoreReader`] for shard `p`. Serving-plane callers
    /// pool these so concurrent lookups on one shard don't serialize on
    /// the shard's single built-in reader.
    pub fn new_reader(&self, p: usize) -> Result<StoreReader> {
        self.shards[p].store.read().reader()
    }

    /// Point lookup on shard `p` through a caller-owned [`StoreReader`]
    /// (quarantine check + failpoint + shared store access, like
    /// [`StoreManager::get`], but without contending on the shard's
    /// built-in reader lock). The reader transparently reopens if a
    /// compaction replaced the data file since it was created.
    pub fn read_with(
        &self,
        p: usize,
        reader: &mut StoreReader,
        key: &[u8],
    ) -> Result<Option<Chunk>> {
        let shard = &self.shards[p];
        if shard.quarantined.load(Ordering::Acquire) {
            return Err(Error::corrupt("shard quarantined pending rebuild"));
        }
        self.failpoints.check(FailSite::StoreRead, "serve-get")?;
        shard.store.read().get_with(reader, key)
    }

    /// Live keys of shard `p` in `lo..=hi`, canonical order (serving-plane
    /// window lookups resolve their key set through this).
    pub fn keys_in_range(&self, p: usize, lo: &[u8], hi: &[u8]) -> Result<Vec<Vec<u8>>> {
        let shard = &self.shards[p];
        if shard.quarantined.load(Ordering::Acquire) {
            return Err(Error::corrupt("shard quarantined pending rebuild"));
        }
        Ok(shard.store.read().keys_in_range(lo, hi))
    }

    /// Fence shard `p` off after detected corruption or retry exhaustion:
    /// every read fails fast until [`StoreManager::rebuild_shard`] restores
    /// it. Idempotent.
    pub fn quarantine_shard(&self, p: usize) {
        self.shards[p].quarantined.store(true, Ordering::Release);
    }

    /// True while shard `p` is fenced off.
    pub fn is_quarantined(&self, p: usize) -> bool {
        self.shards[p].quarantined.load(Ordering::Acquire)
    }

    /// Rebuild shard `p` in place from an [`MrbgStore::export`] payload
    /// (the §6.1 checkpoint artifact): reimport into the shard's
    /// directory, refresh the detached reader, and lift the quarantine.
    /// Counts into [`JobMetrics::rebuilt_shards`] at the next drain.
    pub fn rebuild_shard(&self, p: usize, payload: &[u8]) -> Result<()> {
        let t = Instant::now();
        let shard = &self.shards[p];
        let mut store = shard.store.write();
        let dir = store.dir().to_path_buf();
        *store = MrbgStore::import(dir, payload, self.config.store)?;
        *shard.reader.lock() = store.reader()?;
        shard.quarantined.store(false, Ordering::Release);
        shard.bump_version();
        drop(store);
        self.stats.lock().rebuilt_shards += 1;
        emit_store_op(
            &self.recorder(),
            StoreOpKind::Rebuild,
            p,
            t.elapsed().as_nanos() as u64,
            payload.len() as u64,
        );
        Ok(())
    }

    /// Switch every shard's chunk retrieval strategy (Table 4 sweeps).
    pub fn set_strategy(&self, strategy: QueryStrategy) {
        for shard in &self.shards {
            shard.store.write().set_strategy(strategy);
        }
    }

    /// Total live Reduce instances across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.store.read().len()).sum()
    }

    /// True when no shard preserves anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total MRBGraph file bytes across shards (live + obsolete).
    pub fn file_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.store.read().file_len()).sum()
    }

    /// Merge per-partition delta MRBGraphs into their shards:
    /// [`StoreManager::merge_apply_touched`] over every shard. A partition
    /// whose delta list is empty is skipped without touching its store —
    /// no empty batch is appended and the shard stays clean.
    /// Returns each partition's [`MergedBatch`].
    pub fn merge_apply_all<F>(&self, iteration: u64, deltas_of: F) -> Result<Vec<MergedBatch>>
    where
        F: Fn(usize) -> Result<Vec<DeltaChunk>> + Sync,
    {
        let all: Vec<usize> = (0..self.shards.len()).collect();
        self.merge_apply_touched(iteration, &all, deltas_of)
    }

    /// Merge delta MRBGraphs into exactly the `touched` shards, one
    /// [`TaskKind::StoreMerge`] task per *touched* partition (inline loop
    /// on the serial plane) — untouched shards get no task and no lock
    /// traffic. `deltas_of(p)` builds partition `p`'s delta chunks; it may
    /// be re-invoked on retry and must be idempotent.
    ///
    /// The write and the commit are deferred
    /// ([`MrbgStore::merge_apply_deferred`]): the merged frames stay in
    /// each shard's pending set, where every read sees them and the next
    /// merge of the same key merges into them, but nothing is appended,
    /// fsynced or indexed on disk until [`StoreManager::flush_indexes`] /
    /// [`StoreManager::settle_into`] commits the dirty shards — once per
    /// refresh instead of once per iteration. (A shard whose pending set
    /// outgrows [`StoreConfig::cache_capacity`] writes it back to the page
    /// cache early.) A caller that hands the merged plane back to user
    /// code without a settle must call `flush_indexes` itself. Overlapped
    /// background compactions are fenced first, so every merge observes
    /// fully reconstructed shards.
    ///
    /// Returns one [`MergedBatch`] per shard (empty for untouched
    /// partitions), indexed by partition.
    pub fn merge_apply_touched<F>(
        &self,
        iteration: u64,
        touched: &[usize],
        deltas_of: F,
    ) -> Result<Vec<MergedBatch>>
    where
        F: Fn(usize) -> Result<Vec<DeltaChunk>> + Sync,
    {
        self.fence_compactions()?;
        let rec = self.recorder();
        let merge_one = |p: usize| -> Result<MergedBatch> {
            let t = Instant::now();
            let deltas = deltas_of(p)?;
            let mut out = MergedBatch::default();
            if !deltas.is_empty() {
                // Fire before the write lock: an injected failure leaves
                // the shard untouched (and clean), so the rescheduled
                // attempt merges cleanly.
                self.failpoints.check(FailSite::StoreAppend, "merge")?;
                let shard = &self.shards[p];
                out = shard.store.write().merge_apply_deferred(deltas)?;
                shard.bump_version();
            }
            emit_store_op(
                &rec,
                StoreOpKind::Merge,
                p,
                t.elapsed().as_nanos() as u64,
                0,
            );
            Ok(out)
        };
        let mut out: Vec<MergedBatch> = (0..self.shards.len())
            .map(|_| MergedBatch::default())
            .collect();
        if !self.config.parallel {
            for &p in touched {
                out[p] = merge_one(p)?;
            }
            return Ok(out);
        }
        let merge_one = &merge_one;
        let tasks: Vec<TaskSpec<'_, MergedBatch>> = touched
            .iter()
            .map(|&p| {
                TaskSpec::pinned(
                    TaskId {
                        kind: TaskKind::StoreMerge,
                        index: p,
                        iteration,
                    },
                    p % self.pool.n_workers(),
                    move |_| merge_one(p),
                )
            })
            .collect();
        for (&p, merged) in touched.iter().zip(self.pool.run_tasks(tasks)?) {
            out[p] = merged;
        }
        Ok(out)
    }

    /// Commit every dirty shard ([`MrbgStore::persist_index`]: write back
    /// the pending frames as one batch, data `sync_all`, then index temp
    /// file + `sync_all` + rename) — once per shard however many deferred
    /// merges it absorbed. This is where a refresh's merged bytes reach
    /// the data file, so the dirty shards commit concurrently: one pinned
    /// [`TaskKind::StoreMerge`] task each on the executor (an inline loop
    /// on the serial plane, and after the executor's shutdown). Each
    /// commit fires [`FailSite::StoreAppend`] (`"commit"`) before its
    /// write-back and emits one [`StoreOpKind::Commit`] span carrying the
    /// bytes it wrote back. A failed commit leaves its shard dirty with
    /// its pending frames readable; a retry, a later flush or the
    /// manager's drop writes them.
    ///
    /// Folded into [`StoreManager::settle_into`], so no settle path can
    /// leave an uncommitted shard behind; engines that return a merged
    /// plane without settling call it before returning. Clean shards are
    /// not locked for writing.
    pub fn flush_indexes(&self) -> Result<()> {
        let dirty: Vec<usize> = (0..self.shards.len())
            .filter(|&p| self.shards[p].store.read().is_dirty())
            .collect();
        let rec = self.recorder();
        let commit_one = |p: usize| -> Result<()> {
            self.failpoints.check(FailSite::StoreAppend, "commit")?;
            let t = Instant::now();
            let mut store = self.shards[p].store.write();
            let bytes = store.pending_bytes();
            store.persist_index()?;
            drop(store);
            emit_store_op(
                &rec,
                StoreOpKind::Commit,
                p,
                t.elapsed().as_nanos() as u64,
                bytes,
            );
            Ok(())
        };
        if !self.config.parallel {
            return dirty.into_iter().try_for_each(commit_one);
        }
        let commit_one = &commit_one;
        let tasks: Vec<TaskSpec<'_, ()>> = dirty
            .into_iter()
            .map(|p| {
                TaskSpec::pinned(
                    TaskId {
                        kind: TaskKind::StoreMerge,
                        index: p,
                        iteration: 0,
                    },
                    p % self.pool.n_workers(),
                    move |_| commit_one(p),
                )
            })
            .collect();
        self.pool.run_tasks(tasks).map(drop)
    }

    /// Append one batch of chunks per shard (initial preservation), one
    /// [`TaskKind::StoreMerge`] task per partition. Each batch is consumed
    /// by its first executed attempt; a retry after a mid-append I/O
    /// failure cannot replay it and surfaces the loss as a task error
    /// (fault-injection retries fire *before* the first execution and are
    /// unaffected). Fences overlapped compactions first.
    pub fn append_batch_all(&self, iteration: u64, batches: Vec<Vec<Chunk>>) -> Result<()> {
        if batches.len() != self.shards.len() {
            return Err(Error::config(format!(
                "append_batch_all: {} batches for {} shards",
                batches.len(),
                self.shards.len()
            )));
        }
        self.fence_compactions()?;
        let rec = self.recorder();
        if !self.config.parallel {
            for (p, (shard, batch)) in self.shards.iter().zip(batches).enumerate() {
                self.failpoints.check(FailSite::StoreAppend, "append")?;
                let t = Instant::now();
                shard.store.write().append_batch(batch)?;
                shard.bump_version();
                emit_store_op(
                    &rec,
                    StoreOpKind::Append,
                    p,
                    t.elapsed().as_nanos() as u64,
                    0,
                );
            }
            return Ok(());
        }
        let cells: Vec<Mutex<Option<Vec<Chunk>>>> =
            batches.into_iter().map(|b| Mutex::new(Some(b))).collect();
        let fp = &self.failpoints;
        let rec = &rec;
        let tasks: Vec<TaskSpec<'_, ()>> = cells
            .iter()
            .enumerate()
            .map(|(p, cell)| {
                let shard = &self.shards[p];
                TaskSpec::pinned(
                    TaskId {
                        kind: TaskKind::StoreMerge,
                        index: p,
                        iteration,
                    },
                    p % self.pool.n_workers(),
                    move |_| {
                        // Fire before the one-shot cell is consumed so an
                        // injected failure leaves the batch intact for the
                        // rescheduled attempt; only a genuine mid-append
                        // loss routes to the consumed-cell error below.
                        fp.check(FailSite::StoreAppend, "append")?;
                        let batch = cell.lock().take().ok_or_else(|| {
                            Error::corrupt("store batch consumed by a failed earlier attempt")
                        })?;
                        let t = Instant::now();
                        shard.store.write().append_batch(batch)?;
                        shard.bump_version();
                        emit_store_op(
                            rec,
                            StoreOpKind::Append,
                            p,
                            t.elapsed().as_nanos() as u64,
                            0,
                        );
                        Ok(())
                    },
                )
            })
            .collect();
        self.pool.run_tasks(tasks).map(|_| ())
    }

    /// Shards whose garbage currently crosses the policy thresholds and
    /// that have no compaction already in flight.
    fn due_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, shard)| {
                if shard.compacting.load(Ordering::Acquire) {
                    return false;
                }
                let s = shard.store.read();
                self.config
                    .policy
                    .should_compact(s.file_len(), s.file_live_bytes(), s.n_batches())
            })
            .map(|(p, _)| p)
            .collect()
    }

    /// Consult the compaction policy and submit [`TaskKind::Compact`]
    /// tasks for exactly the garbage-heavy shards as *detached background
    /// work* on the executor, returning immediately with the number of
    /// compactions scheduled. Engines call this at the end of an
    /// iteration; the tasks then overlap the next iteration's map phase
    /// and are fenced before the next merge touches the shards
    /// ([`StoreManager::fence_compactions`], called by
    /// [`StoreManager::merge_apply_all`] / [`StoreManager::append_batch_all`]).
    ///
    /// On the serial plane this degrades to the inline synchronous pass.
    /// Compaction is idempotent, so retries are safe.
    pub fn schedule_compactions(&self, iteration: u64) -> Result<usize> {
        if !self.config.parallel {
            return self.maybe_compact(iteration).map(|v| v.len());
        }
        let due = self.due_shards();
        let n = due.len();
        if n == 0 {
            return Ok(0);
        }
        let epoch = self.pool.next_epoch();
        self.scheduled_epochs.lock().push((epoch, due.clone()));
        let rec = self.recorder();
        for p in due {
            let shard = Arc::clone(&self.shards[p]);
            shard.compacting.store(true, Ordering::Release);
            let stats = Arc::clone(&self.stats);
            let fp = Arc::clone(&self.failpoints);
            let rec = rec.clone();
            self.pool.submit_at(
                epoch,
                TaskSpec::pinned(
                    TaskId {
                        kind: TaskKind::Compact,
                        index: p,
                        iteration,
                    },
                    p % self.pool.n_workers(),
                    move |_| {
                        // The `compacting` flag is cleared by the next
                        // fence, not here: a task that fails terminally
                        // without running (injected fault) or panics must
                        // not leave the shard excluded forever.
                        fp.check(FailSite::StoreCompact, "background-compact")?;
                        let t = Instant::now();
                        let s = shard.store.write().compact()?;
                        emit_store_op(
                            &rec,
                            StoreOpKind::Compact,
                            p,
                            t.elapsed().as_nanos() as u64,
                            s.reclaimed(),
                        );
                        let mut rt = stats.lock();
                        rt.compactions += 1;
                        rt.bytes_reclaimed += s.reclaimed();
                        Ok(())
                    },
                )
                .on_lane(Lane::Compact),
            );
        }
        Ok(n)
    }

    /// Block until every background compaction this manager scheduled has
    /// drained, surfacing the first terminal error among *this manager's*
    /// epochs only. (Waiting covers the executor's epochs up to the
    /// manager's latest — a pool-wide barrier that is conservative but
    /// never misses this manager's work; error retrieval is exact-epoch,
    /// so co-tenant submitters' failures are neither consumed nor
    /// misattributed.) Once drained, every shard's in-flight flag is
    /// cleared — including after a failed or panicked compaction, so no
    /// shard is ever permanently excluded from the policy.
    pub fn fence_compactions(&self) -> Result<()> {
        let epochs: Vec<(u64, Vec<usize>)> = std::mem::take(&mut *self.scheduled_epochs.lock());
        if epochs.is_empty() {
            return Ok(());
        }
        let mut first_err = None;
        for (e, shards) in epochs {
            if let Err(err) = self.pool.fence(e) {
                first_err.get_or_insert(err);
            }
            // Clear exactly the flags this epoch raised — a concurrent
            // schedule_compactions's newer in-flight shards stay flagged.
            for p in shards {
                self.shards[p].compacting.store(false, Ordering::Release);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// End-of-run settle: fence outstanding background compactions,
    /// commit every dirty shard, then fold the plane's trailing counters
    /// into `metrics`. The one settle discipline every engine shares —
    /// change it here, not per engine.
    pub fn settle_into(&self, metrics: &mut JobMetrics) -> Result<()> {
        self.fence_compactions()?;
        self.flush_indexes()?;
        self.drain_metrics(metrics);
        Ok(())
    }

    /// Synchronous policy-driven compaction: consult the policy,
    /// reconstruct exactly the shards whose garbage crossed the
    /// thresholds, and wait for the results. Callers with a following map
    /// phase to overlap should prefer [`StoreManager::schedule_compactions`].
    pub fn maybe_compact(&self, iteration: u64) -> Result<Vec<(usize, CompactionStats)>> {
        self.fence_compactions()?;
        let due = self.due_shards();
        self.compact_shards(iteration, due)
    }

    /// Unconditionally compact every shard (offline reconstruction of the
    /// whole plane). Returns total reclaimed bytes.
    pub fn compact_all(&self, iteration: u64) -> Result<u64> {
        self.fence_compactions()?;
        let all: Vec<usize> = (0..self.shards.len()).collect();
        let stats = self.compact_shards(iteration, all)?;
        Ok(stats.iter().map(|(_, s)| s.reclaimed()).sum())
    }

    fn compact_shards(
        &self,
        iteration: u64,
        shards: Vec<usize>,
    ) -> Result<Vec<(usize, CompactionStats)>> {
        if shards.is_empty() {
            return Ok(Vec::new());
        }
        let fp = &self.failpoints;
        let rec = self.recorder();
        let rec = &rec;
        let stats: Vec<CompactionStats> = if self.config.parallel {
            let tasks: Vec<TaskSpec<'_, CompactionStats>> = shards
                .iter()
                .map(|&p| {
                    let shard = &self.shards[p];
                    TaskSpec::pinned(
                        TaskId {
                            kind: TaskKind::Compact,
                            index: p,
                            iteration,
                        },
                        p % self.pool.n_workers(),
                        move |_| {
                            fp.check(FailSite::StoreCompact, "compact")?;
                            let t = Instant::now();
                            let s = shard.store.write().compact()?;
                            emit_store_op(
                                rec,
                                StoreOpKind::Compact,
                                p,
                                t.elapsed().as_nanos() as u64,
                                s.reclaimed(),
                            );
                            Ok(s)
                        },
                    )
                    .on_lane(Lane::Compact)
                })
                .collect();
            self.pool.run_tasks(tasks)?
        } else {
            shards
                .iter()
                .map(|&p| {
                    fp.check(FailSite::StoreCompact, "compact")?;
                    let t = Instant::now();
                    let s = self.shards[p].store.write().compact()?;
                    emit_store_op(
                        rec,
                        StoreOpKind::Compact,
                        p,
                        t.elapsed().as_nanos() as u64,
                        s.reclaimed(),
                    );
                    Ok(s)
                })
                .collect::<Result<_>>()?
        };
        let out: Vec<(usize, CompactionStats)> = shards.into_iter().zip(stats).collect();
        let mut rt = self.stats.lock();
        for (_, s) in &out {
            rt.compactions += 1;
            rt.bytes_reclaimed += s.reclaimed();
        }
        Ok(out)
    }

    /// Aggregate I/O across shards and readers without resetting.
    pub fn io_stats(&self) -> IoStats {
        let mut io = IoStats::default();
        for shard in &self.shards {
            io += shard.store.read().io_stats();
            io += shard.reader.lock().io_stats();
        }
        io
    }

    /// Reset every shard's and reader's I/O counters.
    pub fn reset_io_stats(&self) {
        for shard in &self.shards {
            shard.store.write().reset_io_stats();
            shard.reader.lock().take_io_stats();
        }
    }

    /// Drain the plane's accumulated observability into `metrics`: shard +
    /// reader [`IoStats`] (reset afterwards) and the compaction counters.
    ///
    /// Does not fence: counters of still-running background compactions
    /// land in a later drain (engines fence once at end of run and fold
    /// the remainder into the final iteration's metrics).
    pub fn drain_metrics(&self, metrics: &mut JobMetrics) {
        let rec = self.recorder();
        // Accumulate the drained delta separately so the telemetry
        // `StoreIoSample` carries *exactly* the values folded into
        // `metrics.store_io` — the `table4` extractor's sum over a complete
        // trace must equal the drained counters bit-for-bit.
        let mut delta = IoStats::default();
        for (p, shard) in self.shards.iter().enumerate() {
            let mut store = shard.store.write();
            delta += store.io_stats();
            store.reset_io_stats();
            let salvaged = store.take_salvaged_bytes();
            metrics.salvaged_bytes += salvaged;
            if salvaged > 0 {
                emit_store_op(&rec, StoreOpKind::Salvage, p, 0, salvaged);
            }
            delta += shard.reader.lock().take_io_stats();
        }
        metrics.store_io += delta;
        if let Some(r) = &rec {
            if delta != IoStats::default() {
                r.emit_driver(EventKind::StoreIoSample {
                    reads: delta.reads,
                    bytes_read: delta.bytes_read,
                    writes: delta.writes,
                    bytes_written: delta.bytes_written,
                    scratch_reuses: delta.scratch_reuses,
                    syncs: delta.syncs,
                });
            }
        }
        let mut rt = self.stats.lock();
        metrics.store_compactions += rt.compactions;
        metrics.store_bytes_reclaimed += rt.bytes_reclaimed;
        metrics.rebuilt_shards += rt.rebuilt_shards;
        *rt = RuntimeStats::default();
    }

    /// Serialize shard `p` for checkpointing (live chunks only; see
    /// [`MrbgStore::export`]). Safe while compactions are in flight: the
    /// shard lock serializes them, and compaction never changes live
    /// content, so the canonical export bytes are unaffected.
    pub fn export(&self, p: usize) -> Result<Vec<u8>> {
        self.shards[p].store.write().export()
    }
}

impl Drop for StoreManager {
    /// Settle outstanding background compactions when the manager goes
    /// away: waits for them to drain and pops this manager's fence-table
    /// entries from the shared executor, so epochs nobody would ever fence
    /// again cannot accumulate there. A terminal compaction error at this
    /// point has no caller left to report to — callers that must observe
    /// it call [`StoreManager::fence_compactions`] before dropping; the
    /// work itself is never lost either way (executor shutdown drains).
    /// Then commits whatever deferred merges are still uncommitted, so a
    /// manager that goes away without a settle (an error return, a test)
    /// still leaves the state it held on disk; callers that must observe
    /// a commit error call [`StoreManager::flush_indexes`] themselves.
    fn drop(&mut self) {
        let _ = self.fence_compactions();
        let _ = self.flush_indexes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ChunkEntry;
    use crate::merge::DeltaEntry;
    use i2mr_common::hash::MapKey;

    const N: usize = 4;

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "i2mr-runtime-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn chunk(key: &str, val: &str) -> Chunk {
        Chunk::new(
            key.as_bytes().to_vec(),
            vec![ChunkEntry {
                mk: MapKey(1),
                value: val.as_bytes().to_vec(),
            }],
        )
    }

    fn seed(mgr: &StoreManager) {
        let batches: Vec<Vec<Chunk>> = (0..N)
            .map(|p| (0..8).map(|i| chunk(&format!("k{p}-{i}"), "v0")).collect())
            .collect();
        mgr.append_batch_all(0, batches).unwrap();
    }

    /// A delta that churns every key of shard `target`.
    fn churn(target: usize, round: u64) -> impl Fn(usize) -> Result<Vec<DeltaChunk>> {
        move |p| {
            if p != target {
                return Ok(Vec::new());
            }
            Ok((0..8)
                .map(|i| DeltaChunk {
                    key: format!("k{target}-{i}").into_bytes(),
                    entries: vec![
                        DeltaEntry::Delete(MapKey(1)),
                        DeltaEntry::Insert(MapKey(1), format!("v{round}").into_bytes()),
                    ],
                })
                .collect())
        }
    }

    #[test]
    fn sharded_and_serial_planes_agree() {
        let pool = WorkerPool::new(2);
        let par =
            StoreManager::create(&pool, scratch("par"), N, StoreRuntimeConfig::default()).unwrap();
        let ser =
            StoreManager::create(&pool, scratch("ser"), N, StoreRuntimeConfig::serial()).unwrap();
        for mgr in [&par, &ser] {
            seed(mgr);
            for round in 1..=3u64 {
                let outcomes = mgr
                    .merge_apply_all(round, |p| {
                        Ok(vec![DeltaChunk {
                            key: format!("k{p}-0").into_bytes(),
                            entries: vec![
                                DeltaEntry::Delete(MapKey(1)),
                                DeltaEntry::Insert(MapKey(1), format!("v{round}").into_bytes()),
                            ],
                        }])
                    })
                    .unwrap();
                assert_eq!(outcomes.len(), N);
            }
        }
        for p in 0..N {
            assert_eq!(par.export(p).unwrap(), ser.export(p).unwrap());
        }
    }

    #[test]
    fn touched_merge_matches_full_merge_byte_for_byte() {
        // The workset path (touched shards only) must leave every shard
        // byte-identical to the full-fanout path, on both planes.
        let pool = WorkerPool::new(2);
        let full =
            StoreManager::create(&pool, scratch("full"), N, StoreRuntimeConfig::default()).unwrap();
        let par = StoreManager::create(
            &pool,
            scratch("touch-par"),
            N,
            StoreRuntimeConfig::default(),
        )
        .unwrap();
        let ser =
            StoreManager::create(&pool, scratch("touch-ser"), N, StoreRuntimeConfig::serial())
                .unwrap();
        seed(&full);
        seed(&par);
        seed(&ser);
        for round in 1..=3u64 {
            let target = (round as usize) % N;
            let full_out = full.merge_apply_all(round, churn(target, round)).unwrap();
            let par_out = par
                .merge_apply_touched(round, &[target], churn(target, round))
                .unwrap();
            let ser_out = ser
                .merge_apply_touched(round, &[target], churn(target, round))
                .unwrap();
            assert_eq!(full_out, par_out);
            assert_eq!(full_out, ser_out);
        }
        let mut m = JobMetrics::default();
        par.settle_into(&mut m).unwrap();
        ser.settle_into(&mut m).unwrap();
        for p in 0..N {
            assert_eq!(full.export(p).unwrap(), par.export(p).unwrap());
            assert_eq!(full.export(p).unwrap(), ser.export(p).unwrap());
        }
    }

    #[test]
    fn settle_flushes_deferred_indexes_for_reopen() {
        let pool = WorkerPool::new(2);
        let dir = scratch("flush");
        {
            let mgr = StoreManager::create(&pool, &dir, N, StoreRuntimeConfig::default()).unwrap();
            seed(&mgr);
            mgr.merge_apply_touched(1, &[0], churn(0, 1)).unwrap();
            let mut m = JobMetrics::default();
            mgr.settle_into(&mut m).unwrap();
        }
        // Reopen reads the flushed index file: the merge is durable.
        let mgr = StoreManager::open(&pool, &dir, N, StoreRuntimeConfig::default()).unwrap();
        assert_eq!(
            mgr.get(0, b"k0-3").unwrap().unwrap().entries[0].value,
            b"v1"
        );
    }

    #[test]
    fn group_commit_is_two_syncs_per_dirty_shard() {
        let pool = WorkerPool::new(2);
        for config in [StoreRuntimeConfig::default(), StoreRuntimeConfig::serial()] {
            let dir = scratch("group-commit");
            let mgr = StoreManager::create(&pool, &dir, N, config).unwrap();
            seed(&mgr);
            mgr.reset_io_stats();
            // Three "iterations" of merges over shards 0 and 2: nothing is
            // synced, however many merges a shard absorbs.
            for round in 1..=3u64 {
                mgr.merge_apply_all(round, churn(0, round)).unwrap();
                mgr.merge_apply_touched(round, &[2], churn(2, round))
                    .unwrap();
            }
            assert_eq!(mgr.io_stats().syncs, 0);
            // A second manager on the same directory is the last commit.
            let stale = StoreManager::open(&pool, &dir, N, config).unwrap();
            assert_eq!(
                stale.get(0, b"k0-3").unwrap().unwrap().entries[0].value,
                b"v0"
            );
            drop(stale);
            // One commit: data + index sync for each of the two dirty
            // shards, none for the clean ones; a second flush is free.
            mgr.flush_indexes().unwrap();
            assert_eq!(mgr.io_stats().syncs, 4);
            mgr.flush_indexes().unwrap();
            assert_eq!(mgr.io_stats().syncs, 4);
            let fresh = StoreManager::open(&pool, &dir, N, config).unwrap();
            for p in [0, 2] {
                assert_eq!(
                    fresh
                        .get(p, format!("k{p}-3").as_bytes())
                        .unwrap()
                        .unwrap()
                        .entries[0]
                        .value,
                    b"v3"
                );
            }
        }
    }

    #[test]
    fn settle_emits_one_commit_span_per_dirty_shard() {
        use i2mr_common::telemetry::{TelemetryMode, TraceRecorder};
        let pool = WorkerPool::new(2);
        for config in [StoreRuntimeConfig::default(), StoreRuntimeConfig::serial()] {
            let mgr = StoreManager::create(&pool, scratch("commit-span"), N, config).unwrap();
            seed(&mgr);
            let rec = Arc::new(TraceRecorder::new(TelemetryMode::Full, 1, 4096));
            mgr.set_recorder(Some(Arc::clone(&rec)));
            // Three dirty shards; shard 3 stays clean.
            for round in 1..=2u64 {
                for p in 0..3 {
                    mgr.merge_apply_touched(round, &[p], churn(p, round))
                        .unwrap();
                }
            }
            mgr.reset_io_stats();
            let mut m = JobMetrics::default();
            mgr.settle_into(&mut m).unwrap();
            let appended = m.store_io.bytes_written;
            assert!(appended > 0);
            let log = rec.take();
            let commits: Vec<(u64, u64)> = log
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::StoreOp {
                        op: StoreOpKind::Commit,
                        shard,
                        bytes,
                        ..
                    } => Some((shard, bytes)),
                    _ => None,
                })
                .collect();
            let mut shards: Vec<u64> = commits.iter().map(|c| c.0).collect();
            shards.sort_unstable();
            assert_eq!(shards, vec![0, 1, 2]);
            assert_eq!(commits.iter().map(|c| c.1).sum::<u64>(), appended);
        }
    }

    /// Fault the k-th commit of a three-round run: a transient fault is
    /// retried and appends each pending frame once; a terminal one (or any
    /// fault on the serial plane, which does not retry) surfaces as `Err`
    /// with the pending frames still readable, and a later commit — or the
    /// manager's drop — still writes them.
    #[test]
    fn commit_faults_retry_or_keep_the_pending_frames() {
        use i2mr_mapred::fault::{FailAction, FailpointRegistry};
        const ROUNDS: u64 = 3;
        let pool = WorkerPool::new(2);
        let churn_all = |round: u64| move |p: usize| churn(p, round)(p);
        let value = |mgr: &StoreManager, p: usize| {
            let chunk = mgr.get(p, format!("k{p}-3").as_bytes()).unwrap().unwrap();
            chunk.entries[0].value.clone()
        };
        for config in [StoreRuntimeConfig::default(), StoreRuntimeConfig::serial()] {
            for k in 1..=ROUNDS {
                for terminal in [false, true] {
                    let dir = scratch("commit-fault");
                    let mut mgr = StoreManager::create(&pool, &dir, N, config).unwrap();
                    seed(&mgr);
                    for round in 1..=ROUNDS {
                        let want = format!("v{round}").into_bytes();
                        mgr.merge_apply_all(round, churn_all(round)).unwrap();
                        if round != k {
                            mgr.flush_indexes().unwrap();
                            continue;
                        }
                        let pending: u64 = (0..N)
                            .map(|p| mgr.with_store_ref(p, |s| s.pending_bytes()))
                            .sum();
                        assert!(pending > 0);
                        let written = mgr.io_stats().bytes_written;
                        let budget = if terminal { u32::MAX } else { 1 };
                        let fp = Arc::new(FailpointRegistry::seeded(k, budget).arm(
                            FailSite::StoreAppend,
                            1.0,
                            FailAction::Error,
                        ));
                        mgr.set_failpoints(Arc::clone(&fp));
                        let committed = mgr.flush_indexes();
                        mgr.set_failpoints(Arc::new(FailpointRegistry::disarmed()));
                        assert!(fp.fired() >= 1);
                        if config.parallel && !terminal {
                            committed.unwrap();
                            assert_eq!(mgr.io_stats().bytes_written - written, pending);
                            let reopened = StoreManager::open(&pool, &dir, N, config).unwrap();
                            for p in 0..N {
                                assert_eq!(value(&reopened, p), want);
                            }
                            continue;
                        }
                        assert!(committed.is_err(), "k={k}: the fault did not surface");
                        // The fault fired before any write-back: the frames
                        // are still pending, and every read sees them.
                        assert_eq!(mgr.io_stats().bytes_written, written);
                        for p in 0..N {
                            assert_eq!(value(&mgr, p), want);
                        }
                        if k % 2 == 1 {
                            mgr.flush_indexes().unwrap();
                            assert_eq!(mgr.io_stats().bytes_written - written, pending);
                        } else {
                            drop(mgr);
                            let reopened = StoreManager::open(&pool, &dir, N, config).unwrap();
                            for p in 0..N {
                                assert_eq!(value(&reopened, p), want);
                            }
                            break;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dropping_the_manager_commits_dirty_shards() {
        let pool = WorkerPool::new(2);
        let dir = scratch("drop-commit");
        {
            let mgr = StoreManager::create(&pool, &dir, N, StoreRuntimeConfig::default()).unwrap();
            seed(&mgr);
            mgr.merge_apply_all(1, churn(1, 1)).unwrap();
            // No settle, no flush: an error return or a test going away.
        }
        let mgr = StoreManager::open(&pool, &dir, N, StoreRuntimeConfig::default()).unwrap();
        assert_eq!(
            mgr.get(1, b"k1-3").unwrap().unwrap().entries[0].value,
            b"v1"
        );
    }

    #[test]
    fn dropping_the_manager_after_shutdown_commits_dirty_shards() {
        // The drop's commit runs inline once the executor is shut down.
        let dir = scratch("drop-after-shutdown");
        {
            let pool = WorkerPool::new(2);
            let mgr = StoreManager::create(&pool, &dir, N, StoreRuntimeConfig::default()).unwrap();
            seed(&mgr);
            mgr.merge_apply_all(1, churn(1, 1)).unwrap();
            pool.shutdown();
        }
        let pool = WorkerPool::new(2);
        let mgr = StoreManager::open(&pool, &dir, N, StoreRuntimeConfig::default()).unwrap();
        assert_eq!(
            mgr.get(1, b"k1-3").unwrap().unwrap().entries[0].value,
            b"v1"
        );
    }

    #[test]
    fn split_read_path_sees_merged_state() {
        let pool = WorkerPool::new(2);
        let mgr =
            StoreManager::create(&pool, scratch("read"), N, StoreRuntimeConfig::default()).unwrap();
        seed(&mgr);
        let c = mgr.get(1, b"k1-3").unwrap().unwrap();
        assert_eq!(c.entries[0].value, b"v0");
        assert!(mgr.get(1, b"missing").unwrap().is_none());
        // Reads after compaction (file replaced) still resolve.
        mgr.compact_all(1).unwrap();
        let c = mgr.get(1, b"k1-3").unwrap().unwrap();
        assert_eq!(c.entries[0].value, b"v0");
        // Reader I/O is accounted.
        assert!(mgr.io_stats().reads >= 2);
    }

    fn eager_policy() -> StoreRuntimeConfig {
        StoreRuntimeConfig {
            policy: CompactionPolicy {
                min_garbage_ratio: 0.3,
                min_batches: 3,
                min_file_bytes: 0,
            },
            ..Default::default()
        }
    }

    #[test]
    fn policy_compacts_only_garbage_heavy_shards() {
        let pool = WorkerPool::new(2);
        let mgr = StoreManager::create(&pool, scratch("policy"), N, eager_policy()).unwrap();
        seed(&mgr);
        // Churn only shard 0 so only it accumulates obsolete versions (each
        // commit writes its pending frames back to the file).
        for round in 1..=6u64 {
            mgr.merge_apply_all(round, churn(0, round)).unwrap();
            mgr.flush_indexes().unwrap();
        }
        let compacted = mgr.maybe_compact(7).unwrap();
        assert_eq!(compacted.len(), 1, "only shard 0 is garbage-heavy");
        assert_eq!(compacted[0].0, 0);
        assert!(compacted[0].1.reclaimed() > 0);
        assert!(mgr.maybe_compact(8).unwrap().is_empty());

        let mut m = JobMetrics::default();
        mgr.drain_metrics(&mut m);
        assert_eq!(m.store_compactions, 1);
        assert!(m.store_bytes_reclaimed > 0);
        assert!(m.store_io.reads > 0);
        // Drained: a second drain starts from zero.
        let mut m2 = JobMetrics::default();
        mgr.drain_metrics(&mut m2);
        assert_eq!(m2.store_compactions, 0);
        assert_eq!(m2.store_io.reads, 0);
    }

    #[test]
    fn scheduled_compactions_overlap_and_fence() {
        let pool = WorkerPool::new(2);
        let mgr = StoreManager::create(&pool, scratch("sched"), N, eager_policy()).unwrap();
        seed(&mgr);
        for round in 1..=6u64 {
            mgr.merge_apply_all(round, churn(0, round)).unwrap();
            mgr.flush_indexes().unwrap();
        }
        let garbage_before = mgr.file_bytes();
        let scheduled = mgr.schedule_compactions(7).unwrap();
        assert_eq!(scheduled, 1, "only shard 0 crossed the thresholds");
        // While the compaction drains in the background, reads still work
        // (split read path + shard lock).
        assert!(mgr.get(0, b"k0-3").unwrap().is_some());
        mgr.fence_compactions().unwrap();
        assert!(mgr.file_bytes() < garbage_before, "garbage not reclaimed");
        let mut m = JobMetrics::default();
        mgr.drain_metrics(&mut m);
        assert_eq!(m.store_compactions, 1);
        assert!(m.store_bytes_reclaimed > 0);
        // Nothing left due afterwards.
        assert_eq!(mgr.schedule_compactions(8).unwrap(), 0);
    }

    #[test]
    fn merge_fences_pending_compactions_first() {
        // Schedule a background compaction, then immediately merge the
        // same shard: the merge must observe the reconstructed store and
        // the final contents must equal the serial plane's.
        let pool = WorkerPool::new(2);
        let par = StoreManager::create(&pool, scratch("fence-par"), N, eager_policy()).unwrap();
        let ser =
            StoreManager::create(&pool, scratch("fence-ser"), N, StoreRuntimeConfig::serial())
                .unwrap();
        for mgr in [&par, &ser] {
            seed(mgr);
            for round in 1..=6u64 {
                mgr.merge_apply_all(round, churn(0, round)).unwrap();
                // Background on the parallel plane, inline on the serial one.
                mgr.schedule_compactions(round).unwrap();
            }
            mgr.fence_compactions().unwrap();
        }
        par.compact_all(7).unwrap();
        ser.compact_all(7).unwrap();
        for p in 0..N {
            assert_eq!(par.export(p).unwrap(), ser.export(p).unwrap());
        }
    }

    #[test]
    fn shutdown_drains_scheduled_compactions() {
        // The executor's graceful shutdown drains queued compactions even
        // when nobody fences: the satellite "shutdown drains queued
        // compactions" contract. The manager is kept alive across the
        // shutdown — dropping it first would settle the work through
        // StoreManager::drop's own fence and prove nothing about shutdown.
        let pool = WorkerPool::new(1);
        let dir = scratch("shutdown-drain");
        let mgr = StoreManager::create(&pool, &dir, N, eager_policy()).unwrap();
        seed(&mgr);
        for round in 1..=6u64 {
            mgr.merge_apply_all(round, churn(0, round)).unwrap();
            mgr.flush_indexes().unwrap();
        }
        let before = mgr.file_bytes();
        assert_eq!(mgr.schedule_compactions(7).unwrap(), 1);
        pool.shutdown(); // graceful: drains the queued Compact task
        assert!(
            mgr.file_bytes() < before,
            "queued compaction was dropped, not drained"
        );
    }

    #[test]
    fn open_parallel_preloads_all_indexes() {
        let pool = WorkerPool::new(2);
        let dir = scratch("reopen");
        {
            let mgr = StoreManager::create(&pool, &dir, N, StoreRuntimeConfig::default()).unwrap();
            seed(&mgr);
        }
        let mgr = StoreManager::open(&pool, &dir, N, StoreRuntimeConfig::default()).unwrap();
        assert_eq!(mgr.len(), N * 8);
        assert_eq!(
            mgr.get(2, b"k2-5").unwrap().unwrap().entries[0].value,
            b"v0"
        );
    }

    #[test]
    fn quarantine_gates_reads_until_rebuild() {
        let pool = WorkerPool::new(2);
        let mgr =
            StoreManager::create(&pool, scratch("quar"), N, StoreRuntimeConfig::default()).unwrap();
        seed(&mgr);
        // Snapshot shard 1, then quarantine it.
        let payload = mgr.export(1).unwrap();
        mgr.quarantine_shard(1);
        assert!(mgr.is_quarantined(1));
        let err = mgr.get(1, b"k1-3").unwrap_err();
        assert!(err.to_string().contains("quarantined"), "got: {err}");
        // Other shards are unaffected.
        assert!(mgr.get(0, b"k0-3").unwrap().is_some());
        // Rebuild restores content and lifts the fence.
        mgr.rebuild_shard(1, &payload).unwrap();
        assert!(!mgr.is_quarantined(1));
        assert_eq!(
            mgr.get(1, b"k1-3").unwrap().unwrap().entries[0].value,
            b"v0"
        );
        let mut m = JobMetrics::default();
        mgr.drain_metrics(&mut m);
        assert_eq!(m.rebuilt_shards, 1);
    }

    #[test]
    fn rebuild_replaces_corrupted_shard_content() {
        let pool = WorkerPool::new(2);
        let dir = scratch("rebuild");
        let mgr = StoreManager::create(&pool, &dir, N, StoreRuntimeConfig::default()).unwrap();
        seed(&mgr);
        let payload = mgr.export(2).unwrap();
        // Corrupt shard 2's data file on disk, then force reads through it.
        let data = dir.join("shard-2").join("mrbg.data");
        let bytes = std::fs::read(&data).unwrap();
        let flipped: Vec<u8> = bytes.iter().map(|b| b ^ 0xFF).collect();
        std::fs::write(&data, flipped).unwrap();
        // The shard's in-memory handle still reads the (now corrupt) file.
        assert!(mgr.get(2, b"k2-0").is_err(), "corruption must be detected");
        mgr.quarantine_shard(2);
        mgr.rebuild_shard(2, &payload).unwrap();
        assert_eq!(
            mgr.get(2, b"k2-0").unwrap().unwrap().entries[0].value,
            b"v0"
        );
        assert_eq!(mgr.export(2).unwrap(), payload, "rebuild is byte-exact");
    }

    #[test]
    fn store_merge_failpoint_recovers_via_reschedule() {
        use i2mr_mapred::fault::{FailAction, FailpointRegistry};
        let pool = WorkerPool::new(2);
        let mut mgr =
            StoreManager::create(&pool, scratch("fp-merge"), N, StoreRuntimeConfig::default())
                .unwrap();
        seed(&mgr);
        let fp = Arc::new(FailpointRegistry::seeded(3, 1).arm(
            FailSite::StoreAppend,
            1.0,
            FailAction::Error,
        ));
        mgr.set_failpoints(Arc::clone(&fp));
        // One injected failure strikes some merge task's first attempt; the
        // retry merges cleanly because the failpoint fired before any state
        // was touched.
        mgr.merge_apply_all(1, churn(0, 1)).unwrap();
        assert_eq!(fp.fired(), 1);
        assert_eq!(
            mgr.get(0, b"k0-5").unwrap().unwrap().entries[0].value,
            b"v1"
        );
        assert_eq!(pool.drain_recovery(), 1);
    }

    #[test]
    fn append_failpoint_preserves_the_one_shot_batch() {
        use i2mr_mapred::fault::{FailAction, FailpointRegistry};
        let pool = WorkerPool::new(2);
        let mut mgr = StoreManager::create(
            &pool,
            scratch("fp-append"),
            N,
            StoreRuntimeConfig::default(),
        )
        .unwrap();
        let fp = Arc::new(FailpointRegistry::seeded(8, 2).arm(
            FailSite::StoreAppend,
            1.0,
            FailAction::Error,
        ));
        mgr.set_failpoints(fp);
        // Two injected failures land on first attempts; because the check
        // fires before the batch cell is consumed, the rescheduled attempts
        // find their batches intact and the initial preservation completes.
        seed(&mgr);
        assert_eq!(mgr.len(), N * 8);
        assert_eq!(
            mgr.get(3, b"k3-7").unwrap().unwrap().entries[0].value,
            b"v0"
        );
    }

    #[test]
    fn mismatched_batch_count_is_rejected() {
        let pool = WorkerPool::new(1);
        let mgr =
            StoreManager::create(&pool, scratch("mismatch"), N, StoreRuntimeConfig::default())
                .unwrap();
        assert!(mgr.append_batch_all(0, vec![Vec::new()]).is_err());
    }
}
