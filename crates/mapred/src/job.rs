//! The vanilla MapReduce engine — the paper's `plainMR` baseline.
//!
//! One [`MapReduceJob::run`] call executes the classic four phases
//! (paper §2) with real data movement:
//!
//! 1. **Map** — input split into `n_map` contiguous splits; each split is a
//!    map task on the worker pool; every record gets a deterministic
//!    [`MapKey`] and its emissions are routed by the partitioner.
//! 2. **Shuffle** — per-map-task buffers are transposed into per-reduce
//!    runs; records/bytes are metered (MK bytes excluded: vanilla Hadoop
//!    does not transfer MK).
//! 3. **Sort** — each run is sorted by `(K2, MK)` in parallel.
//! 4. **Reduce** — each run is grouped by K2 and fed to the user reducer as
//!    a reduce task on the pool.
//!
//! Iterative algorithms on plain MapReduce simply call `run` once (or twice,
//! for two-job-per-iteration formulations like GIM-V / HaLoop-PageRank) per
//! iteration — each call counts a fresh `jobs_started`, which is exactly the
//! startup overhead the paper's iterMR optimization removes (§4.2).

use crate::config::JobConfig;
use crate::fault::{TaskId, TaskKind};
use crate::partition::Partitioner;
use crate::pool::{TaskSpec, WorkerPool};
use crate::shuffle::{groups, sort_runs, transpose, ShuffleBuffers};
use crate::types::{Emitter, KeyData, Mapper, Reducer, ValueData, Values};
use i2mr_common::error::Result;
use i2mr_common::hash::MapKey;
use i2mr_common::metrics::{JobMetrics, Stage};
use std::time::Instant;

/// Result of one vanilla MapReduce job.
#[derive(Debug)]
pub struct JobRun<K3, V3> {
    /// Final output pairs, per reduce partition, in sorted K2 order within
    /// each partition.
    pub outputs: Vec<Vec<(K3, V3)>>,
    /// Metrics for this job alone.
    pub metrics: JobMetrics,
}

impl<K3, V3> JobRun<K3, V3> {
    /// Flatten outputs across partitions (partition order, then key order).
    pub fn flat_output(self) -> Vec<(K3, V3)> {
        self.outputs.into_iter().flatten().collect()
    }
}

/// A configured vanilla MapReduce job (see module docs).
pub struct MapReduceJob<'a, K1, V1, K2, V2, K3, V3> {
    config: &'a JobConfig,
    mapper: &'a dyn Mapper<K1, V1, K2, V2>,
    reducer: &'a dyn Reducer<K2, V2, K3, V3>,
    partitioner: &'a dyn Partitioner<K2>,
}

impl<'a, K1, V1, K2, V2, K3, V3> MapReduceJob<'a, K1, V1, K2, V2, K3, V3>
where
    K1: KeyData,
    V1: ValueData,
    K2: KeyData,
    V2: ValueData,
    K3: KeyData,
    V3: ValueData,
{
    /// Assemble a job from its parts.
    pub fn new(
        config: &'a JobConfig,
        mapper: &'a dyn Mapper<K1, V1, K2, V2>,
        reducer: &'a dyn Reducer<K2, V2, K3, V3>,
        partitioner: &'a dyn Partitioner<K2>,
    ) -> Self {
        MapReduceJob {
            config,
            mapper,
            reducer,
            partitioner,
        }
    }

    /// Execute the job over `input` on `pool`.
    ///
    /// `iteration` tags task ids for fault matching and trace events; one-step
    /// jobs pass 0.
    pub fn run(
        &self,
        pool: &WorkerPool,
        input: &[(K1, V1)],
        iteration: u64,
    ) -> Result<JobRun<K3, V3>> {
        self.config.validate()?;
        let n_reduce = self.config.n_reduce;
        let mut metrics = JobMetrics {
            jobs_started: 1,
            ..Default::default()
        };

        // A vanilla job reads and parses its whole input from the DFS —
        // the per-iteration cost that structure caching eliminates
        // (paper §4.2). Metered here so the cost model can charge it.
        {
            let mut input_bytes = 0u64;
            for (k, v) in input {
                input_bytes += crate::shuffle::metered_size(k, v);
            }
            metrics.dfs_io.record_read(input_bytes);
        }

        // ------------------------------------------------------------------
        // Map phase
        // ------------------------------------------------------------------
        let split_len = input.len().div_ceil(self.config.n_map).max(1);
        let splits: Vec<&[(K1, V1)]> = input.chunks(split_len).collect();

        let t = Instant::now();
        let mapper = self.mapper;
        let partitioner = self.partitioner;
        let map_tasks: Vec<TaskSpec<'_, (ShuffleBuffers<K2, V2>, u64)>> = splits
            .iter()
            .enumerate()
            .map(|(i, split)| {
                let split: &[(K1, V1)] = split;
                TaskSpec::new(
                    TaskId {
                        kind: TaskKind::Map,
                        index: i,
                        iteration,
                    },
                    move |_attempt| {
                        let mut buffers = ShuffleBuffers::new(n_reduce);
                        let mut emitter = Emitter::new();
                        let mut kbuf = Vec::with_capacity(32);
                        let mut vbuf = Vec::with_capacity(64);
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
        let map_results = pool.run_tasks(map_tasks)?;
        metrics.stages.add(Stage::Map, t.elapsed());

        let mut map_outputs = Vec::with_capacity(map_results.len());
        for (buffers, records) in map_results {
            metrics.map_invocations += records;
            map_outputs.push(buffers);
        }

        // ------------------------------------------------------------------
        // Shuffle phase (transpose + byte metering; MK not on the wire)
        // ------------------------------------------------------------------
        let t = Instant::now();
        let (mut runs, records, bytes) = transpose(map_outputs, n_reduce, false);
        metrics.shuffled_records = records;
        metrics.shuffled_bytes = bytes;
        metrics.stages.add(Stage::Shuffle, t.elapsed());

        // ------------------------------------------------------------------
        // Sort phase (parallel, one pool-scheduled sort task per partition)
        // ------------------------------------------------------------------
        let t = Instant::now();
        sort_runs(pool, &mut runs, iteration)?;
        metrics.stages.add(Stage::Sort, t.elapsed());

        // ------------------------------------------------------------------
        // Reduce phase
        // ------------------------------------------------------------------
        let t = Instant::now();
        let reducer = self.reducer;
        let reduce_tasks: Vec<TaskSpec<'_, (Vec<(K3, V3)>, u64)>> = runs
            .iter()
            .enumerate()
            .map(|(p, run)| {
                let run: &[(K2, MapKey, V2)] = run;
                TaskSpec::new(
                    TaskId {
                        kind: TaskKind::Reduce,
                        index: p,
                        iteration,
                    },
                    move |_attempt| {
                        let mut out = Emitter::new();
                        let mut invocations = 0u64;
                        for group in groups(run) {
                            reducer.reduce(&group[0].0, Values::group(group), &mut out);
                            invocations += 1;
                        }
                        Ok((out.into_pairs(), invocations))
                    },
                )
            })
            .collect();
        let reduce_results = pool.run_tasks(reduce_tasks)?;
        metrics.stages.add(Stage::Reduce, t.elapsed());

        let mut outputs = Vec::with_capacity(reduce_results.len());
        for (pairs, invocations) in reduce_results {
            metrics.reduce_invocations += invocations;
            outputs.push(pairs);
        }

        Ok(JobRun { outputs, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::HashPartitioner;
    use std::collections::HashMap;

    /// Classic word count over (doc id, text) records.
    fn word_count(input: &[(u64, String)]) -> HashMap<String, u64> {
        let cfg = JobConfig::symmetric(4);
        let pool = WorkerPool::new(4);
        let mapper = |_k: &u64, text: &String, out: &mut Emitter<String, u64>| {
            for w in text.split_whitespace() {
                out.emit(w.to_string(), 1);
            }
        };
        let reducer = |k: &String, vs: Values<String, u64>, out: &mut Emitter<String, u64>| {
            out.emit(k.clone(), vs.iter().sum());
        };
        let job = MapReduceJob::new(&cfg, &mapper, &reducer, &HashPartitioner);
        let run = job.run(&pool, input, 0).unwrap();
        run.flat_output().into_iter().collect()
    }

    #[test]
    fn word_count_end_to_end() {
        let input = vec![
            (0u64, "a b a".to_string()),
            (1, "b c".to_string()),
            (2, "a".to_string()),
        ];
        let counts = word_count(&input);
        assert_eq!(counts["a"], 3);
        assert_eq!(counts["b"], 2);
        assert_eq!(counts["c"], 1);
        assert_eq!(counts.len(), 3);
    }

    #[test]
    fn metrics_count_work() {
        let cfg = JobConfig::symmetric(2);
        let pool = WorkerPool::new(2);
        let mapper = |k: &u64, v: &u64, out: &mut Emitter<u64, u64>| {
            out.emit(k % 3, *v);
            out.emit(k % 3, v + 1);
        };
        let reducer = |k: &u64, vs: Values<u64, u64>, out: &mut Emitter<u64, u64>| {
            out.emit(*k, vs.iter().sum())
        };
        let job = MapReduceJob::new(&cfg, &mapper, &reducer, &HashPartitioner);
        let input: Vec<(u64, u64)> = (0..10).map(|i| (i, i)).collect();
        let run = job.run(&pool, &input, 0).unwrap();
        assert_eq!(run.metrics.jobs_started, 1);
        assert_eq!(run.metrics.map_invocations, 10);
        assert_eq!(run.metrics.shuffled_records, 20);
        assert!(run.metrics.shuffled_bytes > 0);
        assert_eq!(run.metrics.reduce_invocations, 3); // keys 0,1,2
        assert!(run.metrics.stages.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn output_within_partition_is_key_sorted() {
        let cfg = JobConfig {
            n_map: 3,
            n_reduce: 2,
            ..Default::default()
        };
        let pool = WorkerPool::new(2);
        let mapper = |k: &u64, _v: &u64, out: &mut Emitter<u64, u64>| out.emit(*k, 1);
        let reducer = |k: &u64, vs: Values<u64, u64>, out: &mut Emitter<u64, u64>| {
            out.emit(*k, vs.len() as u64)
        };
        let job = MapReduceJob::new(&cfg, &mapper, &reducer, &HashPartitioner);
        let input: Vec<(u64, u64)> = (0..50).rev().map(|i| (i % 17, i)).collect();
        let run = job.run(&pool, &input, 0).unwrap();
        for part in &run.outputs {
            let keys: Vec<u64> = part.iter().map(|(k, _)| *k).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(keys, sorted);
        }
    }

    #[test]
    fn empty_input_runs_cleanly() {
        let cfg = JobConfig::symmetric(2);
        let pool = WorkerPool::new(2);
        let mapper = |_: &u64, _: &u64, _: &mut Emitter<u64, u64>| {};
        let reducer = |_: &u64, _: Values<u64, u64>, _: &mut Emitter<u64, u64>| {};
        let job = MapReduceJob::new(&cfg, &mapper, &reducer, &HashPartitioner);
        let run = job.run(&pool, &[], 0).unwrap();
        assert!(run.outputs.iter().all(Vec::is_empty));
        assert_eq!(run.metrics.map_invocations, 0);
    }

    #[test]
    fn all_values_for_a_key_reach_one_reducer_call() {
        // 200 records all mapping to one key: the reducer must see all 200
        // values in a single invocation regardless of how many map tasks ran.
        let cfg = JobConfig {
            n_map: 8,
            n_reduce: 4,
            ..Default::default()
        };
        let pool = WorkerPool::new(4);
        let mapper = |_k: &u64, v: &u64, out: &mut Emitter<String, u64>| {
            out.emit("only".to_string(), *v);
        };
        let reducer = |k: &String, vs: Values<String, u64>, out: &mut Emitter<String, u64>| {
            out.emit(k.clone(), vs.len() as u64);
        };
        let job = MapReduceJob::new(&cfg, &mapper, &reducer, &HashPartitioner);
        let input: Vec<(u64, u64)> = (0..200).map(|i| (i, i)).collect();
        let run = job.run(&pool, &input, 0).unwrap();
        let out = run.flat_output();
        assert_eq!(out, vec![("only".to_string(), 200)]);
    }

    #[test]
    fn results_identical_across_task_count_choices() {
        let input: Vec<(u64, String)> = (0..40)
            .map(|i| (i, format!("w{} w{} shared", i % 5, i % 7)))
            .collect();
        let a = word_count(&input);
        // Same computation with a radically different layout must agree.
        let cfg = JobConfig {
            n_map: 1,
            n_reduce: 7,
            ..Default::default()
        };
        let pool = WorkerPool::new(2);
        let mapper = |_k: &u64, text: &String, out: &mut Emitter<String, u64>| {
            for w in text.split_whitespace() {
                out.emit(w.to_string(), 1);
            }
        };
        let reducer = |k: &String, vs: Values<String, u64>, out: &mut Emitter<String, u64>| {
            out.emit(k.clone(), vs.iter().sum());
        };
        let job = MapReduceJob::new(&cfg, &mapper, &reducer, &HashPartitioner);
        let b: HashMap<String, u64> = job
            .run(&pool, &input, 0)
            .unwrap()
            .flat_output()
            .into_iter()
            .collect();
        assert_eq!(a, b);
    }
}
