//! Task-level incremental processing — the Incoop-style baseline.
//!
//! Incoop (paper §1) "saves and reuses states at the granularity of
//! individual Map and Reduce tasks. … If Incoop detects any data changes in
//! the input of a task, it will rerun the entire task." The authors could
//! not compare against it (not publicly available) but observed that
//! "without careful data partition, almost all tasks see changes in the
//! experiments, making task-level incremental processing less effective"
//! (§8.1.1). This module reproduces that baseline so the claim becomes a
//! measurable ablation (`ablation_grain` bench).
//!
//! Mechanics: memoize each map task's output keyed by a fingerprint of its
//! input split, and each reduce task's output keyed by a fingerprint of its
//! (sorted) input partition. On refresh, the caller supplies the *complete
//! new input*; any task whose fingerprint is unchanged reuses its memo, any
//! other task re-runs in full.
//!
//! # Durable memos
//!
//! Incoop's memoization server persists task results to stable storage so
//! reuse survives restarts. [`TaskLevelEngine::attach_store`] reproduces
//! that through the store runtime: each memo lives as one chunk in a
//! [`StoreManager`] shard (`m:{task}` / `r:{partition}` keys), loaded over
//! the split read path on attach and upserted as [`TaskKind::StoreMerge`]
//! merges after each run — only the memos that actually changed are
//! rewritten, so persistence cost tracks the delta, not the input.

use i2mr_common::codec::{decode_exact, encode_to, Codec};
use i2mr_common::error::Result;
use i2mr_common::hash::{stable_hash64, MapKey};
use i2mr_common::metrics::{JobMetrics, Stage};
use i2mr_mapred::config::JobConfig;
use i2mr_mapred::fault::{TaskId, TaskKind};
use i2mr_mapred::partition::Partitioner;
use i2mr_mapred::pool::{TaskSpec, WorkerPool};
use i2mr_mapred::shuffle::{groups, sort_runs, RunPool, ShuffleRecord};
use i2mr_mapred::types::{Emitter, KeyData, Mapper, Reducer, ValueData, Values};
use i2mr_store::merge::{DeltaChunk, DeltaEntry};
use i2mr_store::runtime::StoreManager;
use std::collections::BTreeMap;
use std::time::Instant;

/// Memoized task outputs plus reuse counters for the last refresh.
pub struct TaskLevelEngine<K1, V1, K2, V2, K3, V3> {
    config: JobConfig,
    /// Per map-task: (input fingerprint, emitted records).
    map_memo: Vec<(u64, Vec<(K2, MapKey, V2)>)>,
    /// Per reduce-partition: (input fingerprint, output pairs).
    reduce_memo: Vec<(u64, Vec<(K3, V3)>)>,
    /// Durable memo store (Incoop's memoization server), when attached.
    persist: Option<StoreManager>,
    /// Recycler for the per-refresh shuffle runs: buffers are taken per
    /// run and recycled (cleared, capacity kept) once the reduce phase has
    /// consumed them, so repeated refreshes allocate nothing on this path
    /// (the same take/recycle discipline the other engines use).
    shuffle_pool: RunPool<K2, V2>,
    /// Memo counts currently persisted (for deleting stale tail entries).
    persisted: (usize, usize),
    /// Statistics of the last run.
    pub last_stats: ReuseStats,
    _types: std::marker::PhantomData<fn(K1, V1)>,
}

/// How much task-level memoization actually saved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReuseStats {
    pub map_tasks_total: u64,
    pub map_tasks_reused: u64,
    pub reduce_tasks_total: u64,
    pub reduce_tasks_reused: u64,
}

impl<K1, V1, K2, V2, K3, V3> TaskLevelEngine<K1, V1, K2, V2, K3, V3>
where
    K1: KeyData,
    V1: ValueData,
    K2: KeyData,
    V2: ValueData,
    K3: KeyData,
    V3: ValueData,
{
    /// Build an engine with empty memos.
    pub fn new(config: JobConfig) -> Result<Self> {
        config.validate()?;
        Ok(TaskLevelEngine {
            config,
            map_memo: Vec::new(),
            reduce_memo: Vec::new(),
            persist: None,
            shuffle_pool: RunPool::new(),
            persisted: (0, 0),
            last_stats: ReuseStats::default(),
            _types: std::marker::PhantomData,
        })
    }

    /// Attach a durable memo store, loading any memos it already holds.
    ///
    /// Memos are read through the manager's split read path (shared locks,
    /// per-partition readers); after every [`TaskLevelEngine::run`], the
    /// memos that changed are upserted as per-shard `StoreMerge` merges.
    pub fn attach_store(&mut self, stores: StoreManager) -> Result<()> {
        let mut maps: BTreeMap<usize, (u64, Vec<(K2, MapKey, V2)>)> = BTreeMap::new();
        let mut reduces: BTreeMap<usize, (u64, Vec<(K3, V3)>)> = BTreeMap::new();
        for p in 0..stores.n_shards() {
            for key in stores.with_store_ref(p, |s| s.keys()) {
                let chunk = stores
                    .get(p, &key)?
                    .ok_or_else(|| i2mr_common::error::Error::corrupt("memo chunk vanished"))?;
                let payload = &chunk.entries[0].value;
                let label = String::from_utf8_lossy(&key).into_owned();
                if let Some(i) = label.strip_prefix("m:").and_then(|n| n.parse().ok()) {
                    let (fp, recs): (u64, Vec<(K2, u128, V2)>) = decode_exact(payload)?;
                    let recs = recs
                        .into_iter()
                        .map(|(k2, mk, v2)| (k2, MapKey(mk), v2))
                        .collect();
                    maps.insert(i, (fp, recs));
                } else if let Some(pn) = label.strip_prefix("r:").and_then(|n| n.parse().ok()) {
                    let memo: (u64, Vec<(K3, V3)>) = decode_exact(payload)?;
                    reduces.insert(pn, memo);
                }
            }
        }
        // Memos are only usable as contiguous prefixes (task i's identity
        // is its position in the deterministic split layout).
        self.map_memo = (0..maps.len()).map_while(|i| maps.remove(&i)).collect();
        self.reduce_memo = (0..reduces.len())
            .map_while(|p| reduces.remove(&p))
            .collect();
        self.persisted = (self.map_memo.len(), self.reduce_memo.len());
        self.persist = Some(stores);
        Ok(())
    }

    /// The attached durable memo store, if any.
    pub fn store_manager(&self) -> Option<&StoreManager> {
        self.persist.as_ref()
    }

    /// Upsert changed memos (and delete stale tail entries) into the
    /// attached store as per-shard StoreMerge merges.
    fn persist_memos(&mut self, fresh_map: &[usize], fresh_reduce: &[usize]) -> Result<()> {
        let Some(stores) = &self.persist else {
            return Ok(());
        };
        let n = stores.n_shards();
        let mut per_shard: Vec<Vec<DeltaChunk>> = (0..n).map(|_| Vec::new()).collect();
        let upsert = |key: String, payload: Vec<u8>| DeltaChunk {
            key: key.into_bytes(),
            entries: vec![DeltaEntry::Insert(MapKey(0), payload)],
        };
        let delete = |key: String| DeltaChunk {
            key: key.into_bytes(),
            entries: vec![DeltaEntry::Delete(MapKey(0))],
        };
        for &i in fresh_map {
            let (fp, recs) = &self.map_memo[i];
            let recs: Vec<(K2, u128, V2)> = recs
                .iter()
                .map(|(k2, mk, v2)| (k2.clone(), mk.0, v2.clone()))
                .collect();
            per_shard[i % n].push(upsert(format!("m:{i:08}"), encode_to(&(*fp, recs))));
        }
        for i in self.map_memo.len()..self.persisted.0 {
            per_shard[i % n].push(delete(format!("m:{i:08}")));
        }
        for &p in fresh_reduce {
            per_shard[p % n].push(upsert(format!("r:{p:08}"), encode_to(&self.reduce_memo[p])));
        }
        for p in self.reduce_memo.len()..self.persisted.1 {
            per_shard[p % n].push(delete(format!("r:{p:08}")));
        }
        // Hand each shard's delta list to its merge task by take, not by
        // clone — the encoded payloads were already copied once building
        // them. A retry after a consumed first attempt merges nothing
        // (same contract as StoreManager::append_batch_all; injected
        // fault retries fire before the first execution and are fine).
        let cells: Vec<parking_lot::Mutex<Option<Vec<DeltaChunk>>>> = per_shard
            .into_iter()
            .map(|d| parking_lot::Mutex::new(Some(d)))
            .collect();
        stores.merge_apply_all(0, |p| Ok(cells[p].lock().take().unwrap_or_default()))?;
        stores.maybe_compact(0)?;
        // Memos must survive a restart once `run` returns: commit the
        // (deferred) merges a compaction did not already commit.
        stores.flush_indexes()?;
        self.persisted = (self.map_memo.len(), self.reduce_memo.len());
        Ok(())
    }

    /// Run the computation over the *complete* input, reusing memoized
    /// map/reduce task results whose inputs are unchanged. Returns the
    /// complete output and this run's metrics.
    ///
    /// The split layout is deterministic (contiguous chunks), mirroring
    /// Incoop's content-based stability assumption in its simplest form: a
    /// record change invalidates its split's map task; any change in a
    /// reduce partition's intermediate data invalidates that reduce task.
    pub fn run(
        &mut self,
        pool: &WorkerPool,
        input: &[(K1, V1)],
        mapper: &(impl Mapper<K1, V1, K2, V2> + ?Sized),
        partitioner: &(impl Partitioner<K2> + ?Sized),
        reducer: &(impl Reducer<K2, V2, K3, V3> + ?Sized),
    ) -> Result<(Vec<(K3, V3)>, JobMetrics)> {
        let n_reduce = self.config.n_reduce;
        let mut metrics = JobMetrics {
            jobs_started: 1,
            ..Default::default()
        };
        let mut stats = ReuseStats::default();

        // ---- Map phase with per-split memoization ----
        let t = Instant::now();
        let split_len = input.len().div_ceil(self.config.n_map).max(1);
        let splits: Vec<&[(K1, V1)]> = input.chunks(split_len).collect();
        stats.map_tasks_total = splits.len() as u64;

        let fingerprints: Vec<u64> = splits.iter().map(|s| fingerprint_records(s)).collect();
        let map_tasks: Vec<TaskSpec<'_, Option<(Vec<(K2, MapKey, V2)>, u64)>>> = splits
            .iter()
            .enumerate()
            .map(|(i, split)| {
                let split: &[(K1, V1)] = split;
                let reusable = self
                    .map_memo
                    .get(i)
                    .is_some_and(|(fp, _)| *fp == fingerprints[i]);
                TaskSpec::new(
                    TaskId {
                        kind: TaskKind::Map,
                        index: i,
                        iteration: 0,
                    },
                    move |_| {
                        if reusable {
                            return Ok(None); // memo hit: no work
                        }
                        let mut emitted = Vec::new();
                        let mut emitter = Emitter::new();
                        let (mut kbuf, mut vbuf) = (Vec::new(), Vec::new());
                        for (k1, v1) in split {
                            kbuf.clear();
                            k1.encode(&mut kbuf);
                            vbuf.clear();
                            v1.encode(&mut vbuf);
                            let mk = MapKey::for_record(&kbuf, &vbuf);
                            mapper.map(k1, v1, &mut emitter);
                            for (k2, v2) in emitter.drain() {
                                emitted.push((k2, mk, v2));
                            }
                        }
                        Ok(Some((emitted, split.len() as u64)))
                    },
                )
            })
            .collect();
        let map_results = pool.run_tasks(map_tasks)?;
        metrics.stages.add(Stage::Map, t.elapsed());

        // Update memos and gather all (memoized + fresh) map outputs.
        let mut fresh_map: Vec<usize> = Vec::new();
        self.map_memo.truncate(splits.len());
        for (i, result) in map_results.into_iter().enumerate() {
            match result {
                Some((emitted, invocations)) => {
                    metrics.map_invocations += invocations;
                    fresh_map.push(i);
                    if i < self.map_memo.len() {
                        self.map_memo[i] = (fingerprints[i], emitted);
                    } else {
                        self.map_memo.push((fingerprints[i], emitted));
                    }
                }
                None => stats.map_tasks_reused += 1,
            }
        }

        // ---- Shuffle + sort (all records: even reused maps feed reduce) ----
        // Run buffers come from the engine's RunPool instead of fresh
        // allocations; the records themselves are cloned out of the memos,
        // which must stay resident for the next refresh's reuse check.
        let t = Instant::now();
        let mut runs: Vec<Vec<ShuffleRecord<K2, V2>>> =
            (0..n_reduce).map(|_| self.shuffle_pool.take()).collect();
        for (_, emitted) in &self.map_memo {
            for (k2, mk, v2) in emitted {
                let p = partitioner.partition(k2, n_reduce);
                metrics.shuffled_records += 1;
                metrics.shuffled_bytes += i2mr_mapred::shuffle::metered_size(k2, v2);
                runs[p].push((k2.clone(), *mk, v2.clone()));
            }
        }
        metrics.stages.add(Stage::Shuffle, t.elapsed());

        let t = Instant::now();
        sort_runs(pool, &mut runs, 0)?;
        metrics.stages.add(Stage::Sort, t.elapsed());

        // ---- Reduce phase with per-partition memoization ----
        let t = Instant::now();
        stats.reduce_tasks_total = n_reduce as u64;
        let reduce_fps: Vec<u64> = runs.iter().map(|r| fingerprint_run(r)).collect();
        let reduce_tasks: Vec<TaskSpec<'_, Option<(Vec<(K3, V3)>, u64)>>> = runs
            .iter()
            .enumerate()
            .map(|(p, run)| {
                let run: &[ShuffleRecord<K2, V2>] = run;
                let reusable = self
                    .reduce_memo
                    .get(p)
                    .is_some_and(|(fp, _)| *fp == reduce_fps[p]);
                TaskSpec::new(
                    TaskId {
                        kind: TaskKind::Reduce,
                        index: p,
                        iteration: 0,
                    },
                    move |_| {
                        if reusable {
                            return Ok(None);
                        }
                        let mut out = Emitter::new();
                        let mut invocations = 0u64;
                        for group in groups(run) {
                            reducer.reduce(&group[0].0, Values::group(group), &mut out);
                            invocations += 1;
                        }
                        Ok(Some((out.into_pairs(), invocations)))
                    },
                )
            })
            .collect();
        let reduce_results = pool.run_tasks(reduce_tasks)?;
        metrics.stages.add(Stage::Reduce, t.elapsed());

        let mut fresh_reduce: Vec<usize> = Vec::new();
        self.reduce_memo.truncate(n_reduce);
        for (p, result) in reduce_results.into_iter().enumerate() {
            match result {
                Some((pairs, invocations)) => {
                    metrics.reduce_invocations += invocations;
                    fresh_reduce.push(p);
                    if p < self.reduce_memo.len() {
                        self.reduce_memo[p] = (reduce_fps[p], pairs);
                    } else {
                        self.reduce_memo.push((reduce_fps[p], pairs));
                    }
                }
                None => stats.reduce_tasks_reused += 1,
            }
        }
        // Reduce (and its fingerprints) are done with the sorted runs:
        // park the buffers for the next refresh.
        self.shuffle_pool.recycle_all(runs);
        self.persist_memos(&fresh_map, &fresh_reduce)?;

        self.last_stats = stats;
        let mut output: Vec<(K3, V3)> = self
            .reduce_memo
            .iter()
            .flat_map(|(_, pairs)| pairs.iter().cloned())
            .collect();
        output.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| encode_to(&a.1).cmp(&encode_to(&b.1)))
        });
        Ok((output, metrics))
    }
}

fn fingerprint_records<K: Codec, V: Codec>(records: &[(K, V)]) -> u64 {
    let mut buf = Vec::new();
    for (k, v) in records {
        k.encode(&mut buf);
        v.encode(&mut buf);
    }
    stable_hash64(&buf)
}

fn fingerprint_run<K2: Codec, V2: Codec>(run: &[ShuffleRecord<K2, V2>]) -> u64 {
    let mut buf = Vec::new();
    for (k2, mk, v2) in run {
        k2.encode(&mut buf);
        buf.extend_from_slice(&mk.to_bytes());
        v2.encode(&mut buf);
    }
    stable_hash64(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2mr_mapred::partition::HashPartitioner;

    fn wc_mapper(_k: &u64, text: &String, out: &mut Emitter<String, u64>) {
        for w in text.split_whitespace() {
            out.emit(w.to_string(), 1);
        }
    }

    fn wc_reducer(k: &String, vs: Values<String, u64>, out: &mut Emitter<String, u64>) {
        out.emit(k.clone(), vs.iter().sum());
    }

    fn engine() -> TaskLevelEngine<u64, String, String, u64, String, u64> {
        TaskLevelEngine::new(JobConfig {
            n_map: 8,
            n_reduce: 4,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn identical_rerun_reuses_every_task() {
        let input: Vec<(u64, String)> =
            (0..64).map(|i| (i, format!("w{} common", i % 9))).collect();
        let mut eng = engine();
        let pool = WorkerPool::new(4);
        let (out1, m1) = eng
            .run(&pool, &input, &wc_mapper, &HashPartitioner, &wc_reducer)
            .unwrap();
        assert_eq!(m1.map_invocations, 64);

        let (out2, m2) = eng
            .run(&pool, &input, &wc_mapper, &HashPartitioner, &wc_reducer)
            .unwrap();
        assert_eq!(out1, out2);
        assert_eq!(m2.map_invocations, 0, "all map tasks reused");
        assert_eq!(m2.reduce_invocations, 0, "all reduce tasks reused");
        assert_eq!(
            eng.last_stats.map_tasks_reused,
            eng.last_stats.map_tasks_total
        );
        assert_eq!(
            eng.last_stats.reduce_tasks_reused,
            eng.last_stats.reduce_tasks_total
        );
    }

    #[test]
    fn localized_change_reruns_one_map_task() {
        let input: Vec<(u64, String)> = (0..64).map(|i| (i, format!("only{i}"))).collect();
        let mut eng = engine();
        let pool = WorkerPool::new(4);
        eng.run(&pool, &input, &wc_mapper, &HashPartitioner, &wc_reducer)
            .unwrap();

        // Change a single record: exactly one 8-record split is dirtied.
        let mut changed = input.clone();
        changed[3].1 = "changed3".to_string();
        let (out, m) = eng
            .run(&pool, &changed, &wc_mapper, &HashPartitioner, &wc_reducer)
            .unwrap();
        assert_eq!(eng.last_stats.map_tasks_reused, 7);
        assert_eq!(m.map_invocations, 8, "one split of 8 records re-mapped");
        assert!(out.iter().any(|(w, _)| w == "changed3"));
        assert!(out.iter().all(|(w, _)| w != "only3"));
    }

    #[test]
    fn scattered_changes_defeat_task_level_reuse() {
        // The paper's §8.1.1 observation: spread changes across every split
        // and no map task can be reused.
        let input: Vec<(u64, String)> = (0..64).map(|i| (i, format!("w{i}"))).collect();
        let mut eng = engine();
        let pool = WorkerPool::new(4);
        eng.run(&pool, &input, &wc_mapper, &HashPartitioner, &wc_reducer)
            .unwrap();

        let mut changed = input.clone();
        for i in (0..64).step_by(8) {
            changed[i].1 = format!("mut{i}");
        }
        let (_, m) = eng
            .run(&pool, &changed, &wc_mapper, &HashPartitioner, &wc_reducer)
            .unwrap();
        assert_eq!(eng.last_stats.map_tasks_reused, 0);
        assert_eq!(m.map_invocations, 64, "every task re-ran in full");
    }

    #[test]
    fn memos_survive_restart_through_the_store_plane() {
        use i2mr_store::runtime::{StoreManager, StoreRuntimeConfig};
        let dir = std::env::temp_dir().join(format!(
            "i2mr-tasklevel-persist-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let input: Vec<(u64, String)> =
            (0..64).map(|i| (i, format!("w{} common", i % 9))).collect();
        let pool = WorkerPool::new(4);

        let mut eng = engine();
        eng.attach_store(
            StoreManager::create(&pool, &dir, 4, StoreRuntimeConfig::default()).unwrap(),
        )
        .unwrap();
        let (out1, m1) = eng
            .run(&pool, &input, &wc_mapper, &HashPartitioner, &wc_reducer)
            .unwrap();
        assert_eq!(m1.map_invocations, 64);
        drop(eng);

        // A fresh engine (fresh process) reloads the memos from the store
        // and reuses every task on the identical input.
        let mut eng2 = engine();
        eng2.attach_store(
            StoreManager::open(&pool, &dir, 4, StoreRuntimeConfig::default()).unwrap(),
        )
        .unwrap();
        let (out2, m2) = eng2
            .run(&pool, &input, &wc_mapper, &HashPartitioner, &wc_reducer)
            .unwrap();
        assert_eq!(out1, out2);
        assert_eq!(m2.map_invocations, 0, "all map tasks reused after restart");
        assert_eq!(m2.reduce_invocations, 0);

        // A localized change after restart re-runs only one split — and
        // persists only that split's memo (incremental persistence).
        let mut changed = input.clone();
        changed[3].1 = "changed3".to_string();
        let (_, m3) = eng2
            .run(&pool, &changed, &wc_mapper, &HashPartitioner, &wc_reducer)
            .unwrap();
        assert_eq!(m3.map_invocations, 8, "one split re-mapped");
        assert!(eng2.store_manager().is_some());
    }

    #[test]
    fn output_matches_plain_recompute_byte_identically() {
        // The RunPool take/recycle shuffle path must be invisible in the
        // output: every refresh through recycled buffers is byte-identical
        // (canonical encoding) to a fresh engine recomputing from scratch.
        let input: Vec<(u64, String)> = (0..40)
            .map(|i| (i, format!("a{} b{} c", i % 3, i % 5)))
            .collect();
        let mut eng = engine();
        let pool = WorkerPool::new(4);

        eng.run(&pool, &input, &wc_mapper, &HashPartitioner, &wc_reducer)
            .unwrap();
        let mut cur = input;
        for round in 0..3u64 {
            // Several refreshes so the shuffle runs really are recycled
            // buffers, not first-use allocations.
            cur[(7 + round as usize * 3) % 40].1 = format!("a0 z{round}");
            cur.push((100 + round, format!("fresh{round}")));
            let (incr_out, _) = eng
                .run(&pool, &cur, &wc_mapper, &HashPartitioner, &wc_reducer)
                .unwrap();

            let mut fresh = engine();
            let (full_out, _) = fresh
                .run(&pool, &cur, &wc_mapper, &HashPartitioner, &wc_reducer)
                .unwrap();
            assert_eq!(incr_out, full_out, "round {round}: outputs diverged");
            assert_eq!(
                encode_to(&incr_out),
                encode_to(&full_out),
                "round {round}: canonical encodings diverged"
            );
        }
    }
}
