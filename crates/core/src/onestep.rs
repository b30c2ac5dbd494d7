//! Fine-grain incremental processing for one-step computation (paper §3).
//!
//! The engine runs a MapReduce computation twice (or more):
//!
//! * [`OneStepEngine::initial`] — a normal MapReduce job that additionally
//!   preserves the MRBGraph edges `(K2, MK, V2)` in a per-reduce-task
//!   MRBG-Store shard (owned by the engine's [`StoreManager`]) and the
//!   final output in a [`ResultStore`] (Fig. 3a).
//! * [`OneStepEngine::incremental`] — given delta input, invokes Map only
//!   for the changed records, shuffles only the delta MRBGraph, merges it
//!   with the preserved MRBGraph, and re-invokes Reduce only for affected
//!   K2 groups (Fig. 3b-d). The result store is patched in place, so the
//!   refreshed complete output is available afterwards.
//!
//! Correctness hinges on the deterministic MK: re-running Map on a deleted
//! record reproduces the MKs of its original edges, so tombstones cancel
//! exactly those edges (see `i2mr-common::hash`).

use crate::delta::{Delta, Op};
use crate::output::ResultStore;
use i2mr_common::codec::{decode_exact, encode_to};
use i2mr_common::error::{Error, Result};
use i2mr_common::hash::MapKey;
use i2mr_common::metrics::{JobMetrics, Stage};
use i2mr_mapred::config::JobConfig;
use i2mr_mapred::fault::{TaskId, TaskKind};
use i2mr_mapred::partition::Partitioner;
use i2mr_mapred::pool::{TaskSpec, WorkerPool};
use i2mr_mapred::shuffle::{groups, sort_runs, transpose_pooled, RunPool, ShuffleBuffers};
use i2mr_mapred::types::{Emitter, KeyData, Mapper, Reducer, ValueData, Values};
use i2mr_store::format::{frame_entries, Chunk, ChunkEntry};
use i2mr_store::merge::{DeltaChunk, DeltaEntry};
use i2mr_store::runtime::{StoreManager, StoreRuntimeConfig};
use i2mr_store::store::StoreConfig;
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The fine-grain incremental one-step engine. See module docs.
pub struct OneStepEngine<K1, V1, K2, V2, K3, V3> {
    config: JobConfig,
    dir: PathBuf,
    /// Handle to the shared persistent executor; all compute phases and
    /// the store plane schedule on it.
    pool: WorkerPool,
    stores: StoreManager,
    results: Vec<Mutex<ResultStore<K3, V3>>>,
    initialized: bool,
    /// Recyclers keeping shuffle-plane buffers alive across runs: the
    /// initial run ships plain values, incremental runs ship upsert /
    /// tombstone options, hence two pools.
    run_pool: RunPool<K2, V2>,
    delta_pool: RunPool<K2, Option<V2>>,
    _types: PhantomData<fn(K1, V1, K2, V2) -> (K3, V3)>,
}

impl<K1, V1, K2, V2, K3, V3> OneStepEngine<K1, V1, K2, V2, K3, V3>
where
    K1: KeyData,
    V1: ValueData,
    K2: KeyData,
    V2: ValueData,
    K3: KeyData,
    V3: ValueData,
{
    /// Create an engine whose preserved state lives under `dir`,
    /// scheduling all work on (a clone of) the shared executor `pool`.
    pub fn create(
        pool: &WorkerPool,
        dir: impl AsRef<Path>,
        config: JobConfig,
        store_config: StoreConfig,
    ) -> Result<Self> {
        Self::create_with_runtime(
            pool,
            dir,
            config,
            StoreRuntimeConfig {
                store: store_config,
                ..Default::default()
            },
        )
    }

    /// Create an engine with full control over the store runtime (plane
    /// mode + compaction policy).
    pub fn create_with_runtime(
        pool: &WorkerPool,
        dir: impl AsRef<Path>,
        config: JobConfig,
        runtime: StoreRuntimeConfig,
    ) -> Result<Self> {
        config.validate()?;
        let dir = dir.as_ref().to_path_buf();
        let stores = StoreManager::create(pool, &dir, config.n_reduce, runtime)?;
        let results = (0..config.n_reduce)
            .map(|_| Mutex::new(ResultStore::new()))
            .collect();
        Ok(OneStepEngine {
            config,
            dir,
            pool: pool.clone(),
            stores,
            results,
            initialized: false,
            run_pool: RunPool::new(),
            delta_pool: RunPool::new(),
            _types: PhantomData,
        })
    }

    /// The store runtime owning the preserved MRBGraph shards.
    pub fn store_manager(&self) -> &StoreManager {
        &self.stores
    }

    /// The engine's job configuration.
    pub fn config(&self) -> &JobConfig {
        &self.config
    }

    /// Switch the chunk retrieval strategy on every partition's store
    /// (Table 4 experiments).
    pub fn set_store_strategy(&mut self, strategy: i2mr_store::query::QueryStrategy) {
        self.stores.set_strategy(strategy);
    }

    /// Aggregate store I/O counters across partitions.
    pub fn store_io(&self) -> i2mr_common::metrics::IoStats {
        self.stores.io_stats()
    }

    /// Reset store I/O counters on every partition.
    pub fn reset_store_io(&self) {
        self.stores.reset_io_stats();
    }

    /// Total MRBGraph file bytes across partitions (live + obsolete).
    pub fn store_file_bytes(&self) -> u64 {
        self.stores.file_bytes()
    }

    /// Run offline compaction on every shard, scheduled on the executor.
    pub fn compact_stores(&self) -> Result<u64> {
        self.stores.compact_all(0)
    }

    /// The complete (refreshed) output, sorted deterministically.
    pub fn output(&self) -> Vec<(K3, V3)> {
        let mut out = Vec::new();
        for r in &self.results {
            out.extend(r.lock().snapshot());
        }
        out.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| encode_to(&a.1).cmp(&encode_to(&b.1)))
        });
        out
    }

    /// Initial run (job `A`): normal MapReduce plus MRBGraph preservation.
    pub fn initial(
        &mut self,
        input: &[(K1, V1)],
        mapper: &(impl Mapper<K1, V1, K2, V2> + ?Sized),
        partitioner: &(impl Partitioner<K2> + ?Sized),
        reducer: &(impl Reducer<K2, V2, K3, V3> + ?Sized),
    ) -> Result<JobMetrics> {
        let n_reduce = self.config.n_reduce;
        let mut metrics = JobMetrics {
            jobs_started: 1,
            ..Default::default()
        };

        // Map phase: every record, with deterministic MK.
        let t = Instant::now();
        let split_len = input.len().div_ceil(self.config.n_map).max(1);
        let splits: Vec<&[(K1, V1)]> = input.chunks(split_len).collect();
        let run_pool = &self.run_pool;
        let map_tasks: Vec<TaskSpec<'_, (ShuffleBuffers<K2, V2>, u64)>> = splits
            .iter()
            .enumerate()
            .map(|(i, split)| {
                let split: &[(K1, V1)] = split;
                TaskSpec::new(
                    TaskId {
                        kind: TaskKind::Map,
                        index: i,
                        iteration: 0,
                    },
                    move |_| {
                        let mut buffers = ShuffleBuffers::with_pool(n_reduce, run_pool);
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
                                buffers.push(k2, mk, v2, partitioner);
                            }
                        }
                        Ok((buffers, split.len() as u64))
                    },
                )
            })
            .collect();
        let map_results = self.pool.run_tasks(map_tasks)?;
        metrics.stages.add(Stage::Map, t.elapsed());
        let mut map_outputs = Vec::with_capacity(map_results.len());
        for (buffers, records) in map_results {
            metrics.map_invocations += records;
            map_outputs.push(buffers);
        }

        // Shuffle (MK travels with the kv-pair in i2MapReduce, §3.3).
        let t = Instant::now();
        let (mut runs, records, bytes) = transpose_pooled(map_outputs, n_reduce, true, run_pool);
        metrics.shuffled_records = records;
        metrics.shuffled_bytes = bytes;
        metrics.stages.add(Stage::Shuffle, t.elapsed());

        // Sort.
        let t = Instant::now();
        sort_runs(&self.pool, &mut runs, 0)?;
        metrics.stages.add(Stage::Sort, t.elapsed());

        // Reduce + result store; MRBGraph preservation is handed to the
        // store runtime as one StoreMerge append task per shard.
        let t = Instant::now();
        let results = &self.results;
        let reduce_tasks: Vec<TaskSpec<'_, (u64, Vec<Chunk>)>> = runs
            .iter()
            .enumerate()
            .map(|(p, run)| {
                let run: &[(K2, MapKey, V2)] = run;
                TaskSpec::new(
                    TaskId {
                        kind: TaskKind::Reduce,
                        index: p,
                        iteration: 0,
                    },
                    move |_| {
                        let mut out = Emitter::new();
                        let mut chunks: Vec<Chunk> = Vec::new();
                        let mut invocations = 0u64;
                        let mut result_store = results[p].lock();
                        for group in groups(run) {
                            let k2 = &group[0].0;
                            reducer.reduce(k2, Values::group(group), &mut out);
                            invocations += 1;
                            let key_bytes = encode_to(k2);
                            chunks.push(Chunk::new(
                                key_bytes.clone(),
                                group
                                    .iter()
                                    .map(|(_, mk, v)| ChunkEntry {
                                        mk: *mk,
                                        value: encode_to(v),
                                    })
                                    .collect(),
                            ));
                            result_store.put_bytes(&key_bytes, out.drain().collect());
                        }
                        Ok((invocations, chunks))
                    },
                )
            })
            .collect();
        let reduce_results = self.pool.run_tasks(reduce_tasks)?;
        let mut batches = Vec::with_capacity(reduce_results.len());
        for (invocations, chunks) in reduce_results {
            metrics.reduce_invocations += invocations;
            batches.push(chunks);
        }
        self.stores.append_batch_all(0, batches)?;
        metrics.stages.add(Stage::Reduce, t.elapsed());
        self.stores.drain_metrics(&mut metrics);
        self.run_pool.recycle_all(runs);

        self.initialized = true;
        Ok(metrics)
    }

    /// Incremental run (job `A'`): fine-grain re-computation from delta
    /// input. The mapper/reducer must be the same computation the initial
    /// run used.
    pub fn incremental(
        &mut self,
        delta: &Delta<K1, V1>,
        mapper: &(impl Mapper<K1, V1, K2, V2> + ?Sized),
        partitioner: &(impl Partitioner<K2> + ?Sized),
        reducer: &(impl Reducer<K2, V2, K3, V3> + ?Sized),
    ) -> Result<JobMetrics> {
        if !self.initialized {
            return Err(Error::config(
                "incremental run requires a completed initial run",
            ));
        }
        let n_reduce = self.config.n_reduce;
        self.reset_store_io();
        let mut metrics = JobMetrics {
            jobs_started: 1,
            ..Default::default()
        };

        // Incremental Map: only delta records. Insertions yield edge
        // values; deletions yield tombstones carrying the original MK.
        let t = Instant::now();
        let records = delta.records();
        let split_len = records.len().div_ceil(self.config.n_map).max(1);
        let splits: Vec<&[crate::delta::DeltaRecord<K1, V1>]> = records.chunks(split_len).collect();
        let delta_pool = &self.delta_pool;
        let map_tasks: Vec<TaskSpec<'_, (ShuffleBuffers<K2, Option<V2>>, u64)>> = splits
            .iter()
            .enumerate()
            .map(|(i, split)| {
                let split: &[crate::delta::DeltaRecord<K1, V1>] = split;
                TaskSpec::new(
                    TaskId {
                        kind: TaskKind::Map,
                        index: i,
                        iteration: 0,
                    },
                    move |_| {
                        let mut buffers = ShuffleBuffers::with_pool(n_reduce, delta_pool);
                        let mut emitter = Emitter::new();
                        let (mut kbuf, mut vbuf) = (Vec::new(), Vec::new());
                        for rec in split {
                            kbuf.clear();
                            rec.key.encode(&mut kbuf);
                            vbuf.clear();
                            rec.value.encode(&mut vbuf);
                            let mk = MapKey::for_record(&kbuf, &vbuf);
                            mapper.map(&rec.key, &rec.value, &mut emitter);
                            for (k2, v2) in emitter.drain() {
                                let payload = match rec.op {
                                    Op::Insert => Some(v2),
                                    Op::Delete => None,
                                };
                                buffers.push(k2, mk, payload, partitioner);
                            }
                        }
                        Ok((buffers, split.len() as u64))
                    },
                )
            })
            .collect();
        let map_results = self.pool.run_tasks(map_tasks)?;
        metrics.stages.add(Stage::Map, t.elapsed());
        let mut map_outputs = Vec::with_capacity(map_results.len());
        for (buffers, n) in map_results {
            metrics.map_invocations += n;
            map_outputs.push(buffers);
        }

        // Shuffle the delta MRBGraph.
        let t = Instant::now();
        let (mut runs, records, bytes) = transpose_pooled(map_outputs, n_reduce, true, delta_pool);
        metrics.shuffled_records = records;
        metrics.shuffled_bytes = bytes;
        metrics.stages.add(Stage::Shuffle, t.elapsed());

        // Sort the delta MRBGraph by (K2, MK).
        let t = Instant::now();
        sort_runs(&self.pool, &mut runs, 0)?;
        metrics.stages.add(Stage::Sort, t.elapsed());

        // MRBGraph merge on the store plane: one StoreMerge task per
        // partition joins the delta MRBGraph with the preserved one.
        let t = Instant::now();
        let runs_ref = &runs;
        let outcomes_per_p = self.stores.merge_apply_all(0, |p| {
            let run: &[(K2, MapKey, Option<V2>)] = &runs_ref[p];
            let mut deltas: Vec<DeltaChunk> = Vec::new();
            for group in groups(run) {
                let key = encode_to(&group[0].0);
                let entries = group
                    .iter()
                    .map(|(_, mk, v)| match v {
                        Some(v2) => DeltaEntry::Insert(*mk, encode_to(v2)),
                        None => DeltaEntry::Delete(*mk),
                    })
                    .collect();
                deltas.push(DeltaChunk { key, entries });
            }
            Ok(deltas)
        })?;

        // Incremental Reduce: re-invoke Reduce only for affected K2 groups
        // (paper §3.3), consuming the merge outcomes.
        let results = &self.results;
        let reduce_tasks: Vec<TaskSpec<'_, u64>> = outcomes_per_p
            .iter()
            .enumerate()
            .map(|(p, merged)| {
                TaskSpec::new(
                    TaskId {
                        kind: TaskKind::Reduce,
                        index: p,
                        iteration: 0,
                    },
                    move |_| {
                        let mut out = Emitter::new();
                        let mut result_store = results[p].lock();
                        let mut invocations = 0u64;
                        // Values decoded straight out of the merged frames;
                        // the buffer is reused across affected groups.
                        let mut values: Vec<V2> = Vec::new();
                        for (key_bytes, frame) in merged.iter() {
                            let Some(frame) = frame else {
                                result_store.remove_bytes(key_bytes);
                                continue;
                            };
                            let k2: K2 = decode_exact(key_bytes)?;
                            let entries = frame_entries(frame)?;
                            values.clear();
                            values.reserve(entries.len());
                            for entry in entries {
                                values.push(decode_exact(entry?.1)?);
                            }
                            reducer.reduce(&k2, Values::slice(&values), &mut out);
                            invocations += 1;
                            result_store.put_bytes(key_bytes, out.drain().collect());
                        }
                        Ok(invocations)
                    },
                )
            })
            .collect();
        let reduce_results = self.pool.run_tasks(reduce_tasks)?;
        metrics.stages.add(Stage::Reduce, t.elapsed());
        metrics.reduce_invocations = reduce_results.iter().sum();
        self.delta_pool.recycle_all(runs);

        // The refreshed plane goes back to the caller without a settle:
        // commit the merged shards (the merge itself is deferred). Then
        // fold the store plane's counters into this run's metrics first
        // (the drain takes shard write locks and must not queue behind the
        // compactions below), then schedule policy-driven compaction as
        // detached background work — it overlaps whatever the caller does
        // next; the following refresh's merge fences it. Stats of a
        // still-running compaction are drained by the next refresh.
        self.stores.flush_indexes()?;
        self.stores.drain_metrics(&mut metrics);
        self.stores.schedule_compactions(0)?;
        Ok(metrics)
    }

    /// Directory holding the preserved state.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2mr_mapred::partition::HashPartitioner;

    /// The paper's running example (Fig. 3): sum of in-edge weights per
    /// vertex. Input: (src, "dst:weight;dst:weight"), output: (dst, sum).
    fn edge_mapper(_src: &u64, adj: &String, out: &mut Emitter<u64, f64>) {
        for part in adj.split(';').filter(|s| !s.is_empty()) {
            let (dst, w) = part.split_once(':').expect("dst:weight");
            out.emit(dst.parse().unwrap(), w.parse().unwrap());
        }
    }

    fn sum_reducer(k: &u64, vs: Values<u64, f64>, out: &mut Emitter<u64, f64>) {
        out.emit(*k, vs.iter().sum());
    }

    fn engine(pool: &WorkerPool, tag: &str) -> OneStepEngine<u64, String, u64, f64, u64, f64> {
        let dir = std::env::temp_dir().join(format!(
            "i2mr-onestep-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        OneStepEngine::create(pool, dir, JobConfig::symmetric(3), StoreConfig::default()).unwrap()
    }

    /// Re-computation oracle for equivalence checks.
    fn recompute(input: &[(u64, String)]) -> Vec<(u64, f64)> {
        use std::collections::BTreeMap;
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

    fn assert_outputs_close(a: &[(u64, f64)], b: &[(u64, f64)]) {
        assert_eq!(a.len(), b.len(), "{a:?} vs {b:?}");
        for ((ka, va), (kb, vb)) in a.iter().zip(b) {
            assert_eq!(ka, kb);
            assert!((va - vb).abs() < 1e-9, "key {ka}: {va} vs {vb}");
        }
    }

    #[test]
    fn paper_fig3_example_end_to_end() {
        // Initial graph: 0 -> {1:0.3, 2:0.3}, 1 -> {2:0.4}, 2 -> {0:0.2}.
        let input = vec![
            (0u64, "1:0.3;2:0.3".to_string()),
            (1, "2:0.4".to_string()),
            (2, "0:0.2".to_string()),
        ];
        let pool = WorkerPool::new(3);
        let mut eng = engine(&pool, "fig3");
        eng.initial(&input, &edge_mapper, &HashPartitioner, &sum_reducer)
            .unwrap();
        assert_outputs_close(&eng.output(), &recompute(&input));

        // Delta (paper Fig. 3b): delete vertex 1's record, insert vertex
        // 3's record, modify vertex 0's record.
        let mut delta = Delta::new();
        delta.delete(1, "2:0.4".to_string());
        delta.insert(3, "0:0.1".to_string());
        delta.update(0, "1:0.3;2:0.3".to_string(), "2:0.6".to_string());
        let metrics = eng
            .incremental(&delta, &edge_mapper, &HashPartitioner, &sum_reducer)
            .unwrap();

        let new_input = delta.apply_to(&input);
        assert_outputs_close(&eng.output(), &recompute(&new_input));
        // Vertex 1 lost all in-edges (0's modification removed 1:0.3):
        // its reduce instance must vanish from the output.
        assert!(eng.output().iter().all(|(k, _)| *k != 1));
        // Only delta records were mapped.
        assert_eq!(metrics.map_invocations, 4);
    }

    #[test]
    fn incremental_equals_recompute_on_random_graph() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let n = 120u64;
        let input: Vec<(u64, String)> = (0..n)
            .map(|i| {
                let degree = rng.gen_range(1..6u64);
                // Distinct destinations: a map instance emits one value per
                // K2 ((K2, MK) identifies an MRBGraph edge, paper §3.2).
                let adj: Vec<String> = (0..degree)
                    .map(|d| format!("{}:{:.2}", (i + 7 * d + 1) % n, rng.gen_range(0.01..1.0)))
                    .collect();
                (i, adj.join(";"))
            })
            .collect();

        let pool = WorkerPool::new(4);
        let mut eng = engine(&pool, "rand");
        eng.initial(&input, &edge_mapper, &HashPartitioner, &sum_reducer)
            .unwrap();

        // Random delta: ~10% updates, some inserts, some deletes.
        let mut delta = Delta::new();
        for i in 0..n {
            if rng.gen_bool(0.05) {
                delta.delete(i, input[i as usize].1.clone());
            } else if rng.gen_bool(0.05) {
                delta.update(
                    i,
                    input[i as usize].1.clone(),
                    format!("{}:{:.2}", rng.gen_range(0..n), rng.gen_range(0.01..1.0)),
                );
            }
        }
        for j in n..n + 6 {
            delta.insert(j, format!("{}:0.5", rng.gen_range(0..n)));
        }
        eng.incremental(&delta, &edge_mapper, &HashPartitioner, &sum_reducer)
            .unwrap();
        assert_outputs_close(&eng.output(), &recompute(&delta.apply_to(&input)));
    }

    #[test]
    fn second_incremental_run_stacks_on_first() {
        let input = vec![(0u64, "1:1.0".to_string()), (1, "0:2.0".to_string())];
        let pool = WorkerPool::new(2);
        let mut eng = engine(&pool, "stack");
        eng.initial(&input, &edge_mapper, &HashPartitioner, &sum_reducer)
            .unwrap();

        let mut d1 = Delta::new();
        d1.insert(2, "1:5.0".to_string());
        eng.incremental(&d1, &edge_mapper, &HashPartitioner, &sum_reducer)
            .unwrap();
        let after_d1 = d1.apply_to(&input);
        assert_outputs_close(&eng.output(), &recompute(&after_d1));

        let mut d2 = Delta::new();
        d2.delete(2, "1:5.0".to_string());
        d2.update(0, "1:1.0".to_string(), "1:3.0".to_string());
        eng.incremental(&d2, &edge_mapper, &HashPartitioner, &sum_reducer)
            .unwrap();
        assert_outputs_close(&eng.output(), &recompute(&d2.apply_to(&after_d1)));
    }

    #[test]
    fn incremental_does_less_map_work() {
        let input: Vec<(u64, String)> = (0..200u64)
            .map(|i| (i, format!("{}:1.0", (i + 1) % 200)))
            .collect();
        let pool = WorkerPool::new(4);
        let mut eng = engine(&pool, "lessmap");
        let init = eng
            .initial(&input, &edge_mapper, &HashPartitioner, &sum_reducer)
            .unwrap();
        let mut delta = Delta::new();
        delta.update(0, "1:1.0".to_string(), "1:2.0".to_string());
        let incr = eng
            .incremental(&delta, &edge_mapper, &HashPartitioner, &sum_reducer)
            .unwrap();
        assert_eq!(init.map_invocations, 200);
        assert_eq!(incr.map_invocations, 2);
        assert_eq!(incr.reduce_invocations, 1, "only vertex 1 affected");
        assert!(incr.shuffled_records < init.shuffled_records / 10);
    }

    #[test]
    fn incremental_before_initial_is_rejected() {
        let pool = WorkerPool::new(2);
        let mut eng = engine(&pool, "noinit");
        let delta: Delta<u64, String> = Delta::new();
        assert!(eng
            .incremental(&delta, &edge_mapper, &HashPartitioner, &sum_reducer)
            .is_err());
    }

    #[test]
    fn compaction_preserves_incremental_correctness() {
        let input: Vec<(u64, String)> = (0..50u64)
            .map(|i| (i, format!("{}:1.0", (i + 1) % 50)))
            .collect();
        let pool = WorkerPool::new(2);
        let mut eng = engine(&pool, "compact");
        eng.initial(&input, &edge_mapper, &HashPartitioner, &sum_reducer)
            .unwrap();
        let mut cur = input.clone();
        for round in 0..3 {
            let mut delta = Delta::new();
            let k = round * 7 % 50;
            delta.update(
                k,
                cur[k as usize].1.clone(),
                format!("{}:9.0", (k + 2) % 50),
            );
            eng.incremental(&delta, &edge_mapper, &HashPartitioner, &sum_reducer)
                .unwrap();
            cur = delta.apply_to(&cur);
            cur.sort_unstable();
            if round == 1 {
                eng.compact_stores().unwrap();
            }
            assert_outputs_close(&eng.output(), &recompute(&cur));
        }
    }
}
