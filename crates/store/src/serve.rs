//! The serving plane: concurrent point/window lookups of live results.
//!
//! The paper's MRBG-Store exists so refreshed mining results can be
//! *queried* cheaply, but until this module the repo only exposed
//! end-of-run exports plus [`StoreManager::get`], which funnels every
//! lookup on a shard through that shard's single built-in reader lock. A
//! [`ServeHandle`] turns the store plane into a query surface that stays
//! fast while the engines keep refreshing it:
//!
//! * **Per-shard reader pools** — each lookup borrows a detached
//!   [`StoreReader`] from the shard's pool (creating one when the pool is
//!   dry), so concurrent lookups on the *same* shard read the data file
//!   through independent handles instead of serializing on one reader.
//!   Readers chase compaction generations transparently
//!   ([`crate::store::MrbgStore::get_with`] reopens when the data file was replaced), so
//!   a pooled reader from before a compaction is still valid after it.
//! * **Hot-key LRU cache, invalidated by content version** — every shard
//!   carries a monotonic [`StoreManager::data_version`] bumped on merge /
//!   append / rebuild (NOT on compaction, which never changes live
//!   content). Cache entries are stamped with the version read *before*
//!   the data read; a stamp mismatch on lookup evicts the entry and falls
//!   through to the store. Stamping with the pre-read version makes the
//!   race with a concurrent merge safe in the only direction that matters:
//!   a merge landing between the version read and the data read leaves a
//!   too-*old* stamp on fresh data, costing one redundant re-read later —
//!   never a stale chunk served as current.
//! * **Read-your-writes across generations** — a lookup issued after
//!   `merge_apply_*` returns observes the merged value: the merge bumped
//!   the content version (killing any cached ancestor) and the store read
//!   path reads the post-merge index under the shard's shared lock, even
//!   if a compaction has bumped the file generation since.
//! * **Serve-lane fan-out** — [`ServeHandle::multi_get`] fans large
//!   batches out as [`TaskKind::ServeRead`] tasks on the executor's
//!   [`Lane::Serve`], the highest-priority lane: queued serving reads are
//!   dispatched before data-plane work, compactions included
//!   (`mapred::pool` module docs), which is what keeps tail latency flat
//!   while an incremental merge is running (the `micro_serve` bench gates
//!   p99-under-merge ≤ 3× idle p99).
//!
//! The handle borrows the [`StoreManager`] immutably, so any number of
//! serving threads can share one `ServeHandle` (`&self` methods
//! throughout) while the engines merge and compact through the same
//! manager.

use crate::format::Chunk;
use crate::runtime::StoreManager;
use crate::store::StoreReader;
use i2mr_common::error::Result;
use i2mr_common::metrics::JobMetrics;
use i2mr_common::telemetry::LatencyHistogram;
use i2mr_mapred::fault::{TaskId, TaskKind};
use i2mr_mapred::pool::{Lane, TaskSpec};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Serving-plane tunables, passed to [`StoreManager::serve`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Hot-key cache capacity in entries *per shard* (`0` disables the
    /// cache entirely — every lookup goes to the store).
    pub cache_capacity: usize,
    /// `multi_get` batches with at least this many keys fan out as
    /// [`TaskKind::ServeRead`] tasks on the executor's Serve lane; smaller
    /// batches loop inline on the caller thread.
    pub fanout_threshold: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_capacity: 1024,
            fanout_threshold: 8,
        }
    }
}

/// One cached point-lookup result, stamped with the shard content version
/// in effect when the read started. `None` caches a miss (absent keys are
/// as hot as present ones under skewed query loads).
struct CacheEntry {
    version: u64,
    tick: u64,
    chunk: Option<Chunk>,
}

/// A tiny exact-LRU: `by_tick` orders keys by last touch, entries carry
/// their tick for O(log n) re-touch. No shim dependency and no unsafe;
/// serving batches are small enough that the BTreeMap constant is noise
/// next to the file read it saves.
#[derive(Default)]
struct HotCache {
    entries: HashMap<Vec<u8>, CacheEntry>,
    by_tick: BTreeMap<u64, Vec<u8>>,
    tick: u64,
}

enum CacheLookup {
    Hit(Option<Chunk>),
    Miss,
    /// Entry existed but its version stamp no longer matches the shard.
    Stale,
}

impl HotCache {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn lookup(&mut self, key: &[u8], version: u64) -> CacheLookup {
        let tick = self.next_tick();
        match self.entries.get_mut(key) {
            None => CacheLookup::Miss,
            Some(e) if e.version == version => {
                self.by_tick.remove(&e.tick);
                e.tick = tick;
                self.by_tick.insert(tick, key.to_vec());
                CacheLookup::Hit(e.chunk.clone())
            }
            Some(_) => {
                let e = self.entries.remove(key).expect("entry just matched");
                self.by_tick.remove(&e.tick);
                CacheLookup::Stale
            }
        }
    }

    fn insert(&mut self, key: Vec<u8>, version: u64, chunk: Option<Chunk>, cap: usize) {
        if cap == 0 {
            return;
        }
        let tick = self.next_tick();
        if let Some(old) = self.entries.insert(
            key.clone(),
            CacheEntry {
                version,
                tick,
                chunk,
            },
        ) {
            self.by_tick.remove(&old.tick);
        }
        self.by_tick.insert(tick, key);
        while self.entries.len() > cap {
            let (_, coldest) = self.by_tick.pop_first().expect("len > cap > 0");
            self.entries.remove(&coldest);
        }
    }
}

/// Per-shard serving state: a pool of detached readers plus the hot-key
/// cache. Both under their own mutex so lookups on different shards never
/// contend, and a cache probe never holds the reader pool.
#[derive(Default)]
struct ShardServe {
    readers: Mutex<Vec<StoreReader>>,
    cache: Mutex<HotCache>,
}

/// Counters snapshot (see [`ServeHandle::metrics`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Lookups answered from the hot-key cache.
    pub hits: u64,
    /// Lookups that read the store (cold key or disabled cache).
    pub misses: u64,
    /// Cache entries evicted because a merge bumped the shard's content
    /// version under them (the read-your-writes invalidations).
    pub stale_evictions: u64,
    /// Upper-bound estimate of the point-lookup latency p99 in
    /// nanoseconds since the last drain (log2-bucketed; `0` when no
    /// lookups were recorded): the serving lane's tail latency, which the
    /// `micro_serve` bench gates under a concurrent merge.
    pub p99_nanos: u64,
}

/// Shared serving front over a [`StoreManager`]. See module docs.
pub struct ServeHandle<'a> {
    mgr: &'a StoreManager,
    shards: Vec<ShardServe>,
    cfg: ServeConfig,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    /// Point-lookup latency samples, reset by [`ServeHandle::drain_into`].
    latency: LatencyHistogram,
}

impl StoreManager {
    /// Open a serving front over this manager's shards. Cheap: allocates
    /// empty per-shard reader pools and caches; readers are created lazily
    /// on first use.
    pub fn serve(&self, cfg: ServeConfig) -> ServeHandle<'_> {
        ServeHandle {
            mgr: self,
            shards: (0..self.n_shards())
                .map(|_| ShardServe::default())
                .collect(),
            cfg,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        }
    }
}

impl ServeHandle<'_> {
    /// Borrow a reader from shard `p`'s pool (creating one when dry), run
    /// `f`, and return the reader for the next lookup. The reader is NOT
    /// returned if `f` failed — a reader mid-error is cheap to discard and
    /// recreating one is safer than pooling unknown state.
    fn with_reader<R>(&self, p: usize, f: impl FnOnce(&mut StoreReader) -> Result<R>) -> Result<R> {
        let mut reader = match self.shards[p].readers.lock().pop() {
            Some(r) => r,
            None => self.mgr.new_reader(p)?,
        };
        let out = f(&mut reader)?;
        self.shards[p].readers.lock().push(reader);
        Ok(out)
    }

    /// Point lookup of key `key` on shard `p`.
    ///
    /// The shard's content version is read *before* the data read and
    /// stamped onto the cached entry — see the module docs for why that
    /// ordering is the safe direction under concurrent merges.
    pub fn get(&self, p: usize, key: &[u8]) -> Result<Option<Chunk>> {
        let started = Instant::now();
        let out = self.get_untimed(p, key);
        self.latency
            .record(started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        out
    }

    fn get_untimed(&self, p: usize, key: &[u8]) -> Result<Option<Chunk>> {
        let version = self.mgr.data_version(p);
        if self.cfg.cache_capacity > 0 {
            match self.shards[p].cache.lock().lookup(key, version) {
                CacheLookup::Hit(chunk) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(chunk);
                }
                CacheLookup::Stale => {
                    self.stale.fetch_add(1, Ordering::Relaxed);
                }
                CacheLookup::Miss => {}
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let chunk = self.with_reader(p, |r| self.mgr.read_with(p, r, key))?;
        if self.cfg.cache_capacity > 0 {
            self.shards[p].cache.lock().insert(
                key.to_vec(),
                version,
                chunk.clone(),
                self.cfg.cache_capacity,
            );
        }
        Ok(chunk)
    }

    /// Window lookup: every live chunk of shard `p` with key in
    /// `lo..=hi`, in canonical key order. Windows bypass the hot-key
    /// cache (a scan would flush it) and stream through one pooled
    /// reader.
    pub fn window(&self, p: usize, lo: &[u8], hi: &[u8]) -> Result<Vec<Chunk>> {
        let keys = self.mgr.keys_in_range(p, lo, hi)?;
        self.with_reader(p, |r| {
            let mut out = Vec::with_capacity(keys.len());
            for key in &keys {
                if let Some(c) = self.mgr.read_with(p, r, key)? {
                    out.push(c);
                }
            }
            Ok(out)
        })
    }

    /// Batched point lookups, results in input order. Batches of at least
    /// [`ServeConfig::fanout_threshold`] keys fan out one
    /// [`TaskKind::ServeRead`] task per touched shard on the executor's
    /// Serve lane (preempting queued data-plane and compaction work);
    /// smaller batches loop inline.
    pub fn multi_get(&self, keys: &[(usize, Vec<u8>)]) -> Result<Vec<Option<Chunk>>> {
        if keys.len() < self.cfg.fanout_threshold {
            return keys.iter().map(|(p, k)| self.get(*p, k)).collect();
        }
        let mut by_shard: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, (p, _)) in keys.iter().enumerate() {
            by_shard.entry(*p).or_default().push(i);
        }
        let tasks: Vec<TaskSpec<'_, Vec<(usize, Option<Chunk>)>>> = by_shard
            .into_iter()
            .map(|(p, idxs)| {
                TaskSpec::new(
                    TaskId {
                        kind: TaskKind::ServeRead,
                        index: p,
                        iteration: 0,
                    },
                    move |_| {
                        idxs.iter()
                            .map(|&i| Ok((i, self.get(p, &keys[i].1)?)))
                            .collect()
                    },
                )
                .on_lane(Lane::Serve)
            })
            .collect();
        let mut out = vec![None; keys.len()];
        for found in self.mgr.executor().run_tasks(tasks)? {
            for (i, chunk) in found {
                out[i] = chunk;
            }
        }
        Ok(out)
    }

    /// Snapshot the counters without resetting.
    pub fn metrics(&self) -> ServeMetrics {
        ServeMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale_evictions: self.stale.load(Ordering::Relaxed),
            p99_nanos: self.latency.p99(),
        }
    }

    /// Drain the counters into `metrics` (resets them, including the
    /// latency histogram; stale evictions fold into `serve_misses` — each
    /// one also re-read the store).
    pub fn drain_into(&self, metrics: &mut JobMetrics) {
        metrics.serve_hits += self.hits.swap(0, Ordering::Relaxed);
        metrics.serve_misses += self.misses.swap(0, Ordering::Relaxed);
        self.stale.swap(0, Ordering::Relaxed);
        self.latency.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ChunkEntry;
    use crate::merge::{DeltaChunk, DeltaEntry};
    use crate::runtime::StoreRuntimeConfig;
    use i2mr_common::hash::MapKey;
    use i2mr_mapred::pool::WorkerPool;
    use std::path::PathBuf;

    const N: usize = 4;

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "i2mr-serve-{tag}-{}-{:?}",
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

    fn seeded(pool: &WorkerPool, tag: &str) -> StoreManager {
        let mgr =
            StoreManager::create(pool, scratch(tag), N, StoreRuntimeConfig::default()).unwrap();
        let batches: Vec<Vec<Chunk>> = (0..N)
            .map(|p| (0..8).map(|i| chunk(&format!("k{p}-{i}"), "v0")).collect())
            .collect();
        mgr.append_batch_all(0, batches).unwrap();
        mgr
    }

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
    fn hot_key_cache_hits_after_first_read() {
        let pool = WorkerPool::new(2);
        let mgr = seeded(&pool, "cache");
        let serve = mgr.serve(ServeConfig::default());
        for _ in 0..3 {
            let c = serve.get(1, b"k1-3").unwrap().unwrap();
            assert_eq!(c.entries[0].value, b"v0");
        }
        assert!(serve.get(1, b"absent").unwrap().is_none());
        assert!(serve.get(1, b"absent").unwrap().is_none(), "miss is cached");
        let m = serve.metrics();
        assert_eq!(m.misses, 2, "one store read per distinct key");
        assert_eq!(m.hits, 3);
        let mut jm = JobMetrics::default();
        serve.drain_into(&mut jm);
        assert_eq!((jm.serve_hits, jm.serve_misses), (3, 2));
        assert_eq!(serve.metrics(), ServeMetrics::default(), "drained");
    }

    #[test]
    fn generation_chase_counts_into_registry() {
        let pool = WorkerPool::new(2);
        let mgr = seeded(&pool, "chase");
        let serve = mgr.serve(ServeConfig::default());
        serve.get(0, b"k0-5").unwrap().unwrap();
        mgr.merge_apply_all(1, churn(0, 1)).unwrap();
        serve.get(0, b"k0-5").unwrap().unwrap();
        // The chase also re-read the store, so it counts as a miss too
        // (mirroring how the fence counters fold).
        assert!(matches!(
            serve.metrics(),
            ServeMetrics {
                stale_evictions: 1,
                misses: 2,
                ..
            }
        ));
    }

    #[test]
    fn merge_invalidates_cached_keys_read_your_writes() {
        let pool = WorkerPool::new(2);
        let mgr = seeded(&pool, "ryw");
        let serve = mgr.serve(ServeConfig::default());
        assert_eq!(
            serve.get(0, b"k0-5").unwrap().unwrap().entries[0].value,
            b"v0"
        );
        assert_eq!(
            serve.get(0, b"k0-5").unwrap().unwrap().entries[0].value,
            b"v0"
        );
        mgr.merge_apply_all(1, churn(0, 1)).unwrap();
        // The cached v0 must not survive the merge's version bump.
        assert_eq!(
            serve.get(0, b"k0-5").unwrap().unwrap().entries[0].value,
            b"v1"
        );
        let m = serve.metrics();
        assert_eq!(m.stale_evictions, 1);
        // Untouched shards keep their cache.
        serve.get(2, b"k2-0").unwrap();
        serve.get(2, b"k2-0").unwrap();
        assert_eq!(serve.metrics().hits, m.hits + 1);
    }

    #[test]
    fn reads_survive_compaction_generation_bump() {
        // A pooled reader created before compact_all must chase the new
        // generation; cached entries stay valid (content unchanged).
        let pool = WorkerPool::new(2);
        let mgr = seeded(&pool, "gen");
        let serve = mgr.serve(ServeConfig::default());
        assert!(serve.get(3, b"k3-1").unwrap().is_some());
        for round in 1..=3 {
            mgr.merge_apply_all(round, churn(3, round)).unwrap();
        }
        mgr.compact_all(4).unwrap();
        let c = serve.get(3, b"k3-1").unwrap().unwrap();
        assert_eq!(c.entries[0].value, b"v3");
        // Second read of the post-compaction value is a cache hit:
        // compaction alone must not invalidate.
        let before = serve.metrics().hits;
        serve.get(3, b"k3-1").unwrap();
        assert_eq!(serve.metrics().hits, before + 1);
    }

    #[test]
    fn window_returns_range_in_canonical_order() {
        let pool = WorkerPool::new(2);
        let mgr = seeded(&pool, "window");
        let serve = mgr.serve(ServeConfig::default());
        let win = serve.window(2, b"k2-2", b"k2-5").unwrap();
        let keys: Vec<&[u8]> = win.iter().map(|c| c.key.as_slice()).collect();
        assert_eq!(keys, vec![&b"k2-2"[..], b"k2-3", b"k2-4", b"k2-5"]);
        assert!(serve.window(2, b"x", b"y").unwrap().is_empty());
    }

    #[test]
    fn multi_get_fans_out_and_preserves_input_order() {
        let pool = WorkerPool::new(2);
        let mgr = seeded(&pool, "fanout");
        let serve = mgr.serve(ServeConfig {
            fanout_threshold: 4,
            ..Default::default()
        });
        let keys: Vec<(usize, Vec<u8>)> = (0..N)
            .flat_map(|p| {
                [
                    (p, format!("k{p}-0").into_bytes()),
                    (p, b"absent".to_vec()),
                    (p, format!("k{p}-7").into_bytes()),
                ]
            })
            .collect();
        let out = serve.multi_get(&keys).unwrap();
        assert_eq!(out.len(), keys.len());
        for (i, (_, key)) in keys.iter().enumerate() {
            match &out[i] {
                Some(c) => assert_eq!(&c.key, key),
                None => assert_eq!(key, b"absent"),
            }
        }
        // Below the threshold the inline path gives the same answers.
        let small = &keys[..3];
        assert_eq!(serve.multi_get(small).unwrap(), out[..3].to_vec());
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let pool = WorkerPool::new(2);
        let mgr = seeded(&pool, "nocache");
        let serve = mgr.serve(ServeConfig {
            cache_capacity: 0,
            ..Default::default()
        });
        serve.get(0, b"k0-0").unwrap();
        serve.get(0, b"k0-0").unwrap();
        let m = serve.metrics();
        assert_eq!((m.hits, m.misses), (0, 2));
    }

    #[test]
    fn lru_evicts_coldest_key_at_capacity() {
        let pool = WorkerPool::new(2);
        let mgr = seeded(&pool, "lru");
        let serve = mgr.serve(ServeConfig {
            cache_capacity: 2,
            ..Default::default()
        });
        serve.get(0, b"k0-0").unwrap(); // miss, cached
        serve.get(0, b"k0-1").unwrap(); // miss, cached
        serve.get(0, b"k0-0").unwrap(); // hit — k0-1 is now coldest
        serve.get(0, b"k0-2").unwrap(); // miss, evicts k0-1
        serve.get(0, b"k0-0").unwrap(); // still cached
        serve.get(0, b"k0-1").unwrap(); // evicted: miss again
        let m = serve.metrics();
        assert_eq!(m.hits, 2);
        assert_eq!(m.misses, 4);
    }
}
