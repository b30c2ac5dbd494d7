//! The general-purpose iterative engine (paper §4.2–4.3).
//!
//! This is "iterMR" in the paper's experiments: MapReduce enhanced with
//!
//! * **job reuse** — one job spans all iterations (one `jobs_started`),
//! * **structure caching** — structure data is partitioned once and stays
//!   local; only state flows through shuffle,
//! * **dependency-aware co-partitioning** — `hash(project(SK)) mod n` for
//!   structure, `hash(DK) mod n` for state, the same hash for the prime
//!   reduce shuffle, so reduce task *i*'s output *is* map task *i*'s next
//!   state file (zero backward transfer),
//! * optional **MRBGraph preservation** per iteration, which upgrades the
//!   run into the "initial run" an incremental job can continue from.
//!
//! This module holds the partitioned data, the [`RunReport`] every run
//! returns, the small-state engine, and the *full pass* step kind of the
//! fixed-point driver (`crate::driver`). Full passes with
//! [`PreserveMode::None`](crate::iterative::PreserveMode::None) are the
//! fair re-computation baseline; with preservation they are i2MapReduce's
//! job `A_{i-1}`.

use crate::driver::Driver;
use crate::iterative::{IterParams, IterationStats, IterativeSpec, SmallStateSpec};
use i2mr_common::codec::encode_to;
use i2mr_common::error::Result;
use i2mr_common::hash::MapKey;
use i2mr_common::metrics::{JobMetrics, Stage};
use i2mr_mapred::config::JobConfig;
use i2mr_mapred::fault::{TaskId, TaskKind};
use i2mr_mapred::partition::{HashPartitioner, Partitioner};
use i2mr_mapred::pool::{TaskSpec, WorkerPool};
use i2mr_mapred::shuffle::{
    groups, sort_run, sort_runs, transpose_pooled, RunPool, ShuffleBuffers, ShuffleRecord,
};
use i2mr_mapred::types::{Emitter, Values};
use i2mr_store::format::{Chunk, ChunkEntry};
use i2mr_store::runtime::StoreManager;
use std::collections::BTreeMap;
use std::time::Instant;

/// Structure records sharing one projected state key.
#[derive(Clone, Debug)]
pub struct StructGroup<SK, SV, DK> {
    /// The interdependent state key (`project(SK)` of every record).
    pub dk: DK,
    /// Records, sorted by SK.
    pub records: Vec<(SK, SV)>,
}

/// Co-partitioned structure and state data (paper §4.3).
///
/// Invariants:
/// * partition `i` holds exactly the groups/state keys with
///   `hash(DK) mod n == i`;
/// * groups and state entries are sorted by DK within each partition;
/// * the state key set equals the structure group key set.
#[derive(Clone, Debug)]
pub struct PartitionedData<SK, SV, DK, DV> {
    /// `[partition][group]`, sorted by DK.
    pub structure: Vec<Vec<StructGroup<SK, SV, DK>>>,
    /// `[partition][(DK, DV)]`, sorted by DK.
    pub state: Vec<Vec<(DK, DV)>>,
}

impl<SK, SV, DK, DV> PartitionedData<SK, SV, DK, DV>
where
    SK: i2mr_mapred::types::KeyData,
    SV: i2mr_mapred::types::ValueData,
    DK: i2mr_mapred::types::KeyData,
    DV: i2mr_mapred::types::ValueData,
{
    /// Number of partitions.
    pub fn n_partitions(&self) -> usize {
        self.structure.len()
    }

    /// Total number of state kv-pairs.
    pub fn state_len(&self) -> usize {
        self.state.iter().map(Vec::len).sum()
    }

    /// Total number of structure records.
    pub fn structure_len(&self) -> usize {
        self.structure
            .iter()
            .flat_map(|p| p.iter().map(|g| g.records.len()))
            .sum()
    }

    /// Flattened, DK-sorted snapshot of the whole state.
    pub fn state_snapshot(&self) -> Vec<(DK, DV)> {
        let mut out: Vec<(DK, DV)> = self.state.iter().flatten().cloned().collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Look up a state value.
    pub fn state_get(&self, n: usize, dk: &DK) -> Option<&DV> {
        let p = HashPartitioner.partition(dk, n);
        let part = &self.state[p];
        part.binary_search_by(|(k, _)| k.cmp(dk))
            .ok()
            .map(|i| &part[i].1)
    }
}

/// Partition structure records by `hash(project(SK)) mod n`, grouping by DK
/// (the preprocessing step before an iterative job, paper §4.3).
pub fn partition_structure<S: IterativeSpec>(
    spec: &S,
    n: usize,
    structure: Vec<(S::SK, S::SV)>,
) -> Vec<Vec<StructGroup<S::SK, S::SV, S::DK>>> {
    let mut parts: Vec<Vec<(S::DK, S::SK, S::SV)>> = (0..n).map(|_| Vec::new()).collect();
    for (sk, sv) in structure {
        let dk = spec.project(&sk);
        let p = HashPartitioner.partition(&dk, n);
        parts[p].push((dk, sk, sv));
    }
    parts
        .into_iter()
        .map(|mut part| {
            part.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            let mut groups: Vec<StructGroup<S::SK, S::SV, S::DK>> = Vec::new();
            for (dk, sk, sv) in part {
                match groups.last_mut() {
                    Some(g) if g.dk == dk => g.records.push((sk, sv)),
                    _ => groups.push(StructGroup {
                        dk,
                        records: vec![(sk, sv)],
                    }),
                }
            }
            groups
        })
        .collect()
}

/// Make the state key set equal the structure group key set: new groups get
/// `init(DK)`, orphaned state entries are dropped (their vertex vanished).
pub fn sync_state<S: IterativeSpec>(
    spec: &S,
    structure: &[Vec<StructGroup<S::SK, S::SV, S::DK>>],
    prev_state: Vec<Vec<(S::DK, S::DV)>>,
) -> Vec<Vec<(S::DK, S::DV)>> {
    structure
        .iter()
        .enumerate()
        .map(|(p, groups)| {
            let prev = prev_state.get(p).map(|v| v.as_slice()).unwrap_or(&[]);
            let mut out = Vec::with_capacity(groups.len());
            for g in groups {
                let dv = prev
                    .binary_search_by(|(k, _)| k.cmp(&g.dk))
                    .ok()
                    .map(|i| prev[i].1.clone())
                    .unwrap_or_else(|| spec.init(&g.dk));
                out.push((g.dk.clone(), dv));
            }
            out
        })
        .collect()
}

/// Build co-partitioned data from raw structure records with initial state.
pub fn build_partitioned<S: IterativeSpec>(
    spec: &S,
    n: usize,
    structure: Vec<(S::SK, S::SV)>,
) -> PartitionedData<S::SK, S::SV, S::DK, S::DV> {
    let structure = partition_structure(spec, n, structure);
    let state = sync_state(spec, &structure, Vec::new());
    PartitionedData { structure, state }
}

/// Report of an iterative run: initial, incremental or delta refresh, or
/// small-state.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Per-iteration progress (`changed_keys` = changed state kv-pairs; in
    /// a refresh's MRBG passes, the propagated ones — the Fig. 11a series).
    pub iterations: Vec<IterationStats>,
    /// Per-iteration engine metrics. A `FinalOnly` initial run appends one
    /// slot for its MRBGraph materialisation pass.
    pub per_iteration: Vec<JobMetrics>,
    /// Whether the run converged (`epsilon` reached, or the workset
    /// drained) within the budget.
    pub converged: bool,
    /// Iteration after which the P∆ monitor switched a refresh from MRBG
    /// passes to full passes, if it did.
    pub mrbg_turned_off_at: Option<u64>,
    /// Workset size entering each MRBG pass (the Fig. 11a series measured
    /// at the scheduler).
    pub worksets: Vec<u64>,
}

impl RunReport {
    /// Sum of all iterations' metrics.
    pub fn total_metrics(&self) -> JobMetrics {
        let mut total = JobMetrics::default();
        for m in &self.per_iteration {
            total.merge(m);
        }
        total
    }

    /// Total wall time across iterations.
    pub fn total_wall(&self) -> std::time::Duration {
        self.iterations.iter().map(|i| i.wall).sum()
    }

    /// Number of iterations executed.
    pub fn n_iterations(&self) -> u64 {
        self.iterations.len() as u64
    }
}

impl<S: IterativeSpec> Driver<'_, S> {
    /// A full pass: prime Map → shuffle → sort → prime Reduce over every
    /// key, appending the pass's MRBGraph to `stores` when given.
    pub(crate) fn full_pass(
        &self,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        iteration: u64,
        stores: Option<&StoreManager>,
        metrics: &mut JobMetrics,
    ) -> Result<IterationStats> {
        let spec = self.spec;
        // MK bytes only travel when the MRBGraph is maintained.
        let (runs, invocations) = self.map_sort(data, iteration, stores.is_some(), metrics)?;
        metrics.map_invocations += invocations;

        // Prime Reduce, co-located with the next pass's prime Map: reduce
        // task p writes state partition p directly.
        let t = Instant::now();
        let state_parts = &data.state;
        type ReduceOut<S> = (
            Vec<(<S as IterativeSpec>::DK, <S as IterativeSpec>::DV)>,
            f64,
            u64,
            u64,
            Vec<Chunk>,
        );
        let reduce_tasks: Vec<TaskSpec<'_, ReduceOut<S>>> = runs
            .iter()
            .enumerate()
            .map(|(p, run)| {
                let run: &[(S::DK, MapKey, S::V2)] = run;
                let state = &state_parts[p];
                TaskSpec::pinned(
                    TaskId {
                        kind: TaskKind::Reduce,
                        index: p,
                        iteration,
                    },
                    p % self.pool.n_workers(),
                    move |_| {
                        let mut new_state = Vec::with_capacity(state.len());
                        let mut chunks: Vec<Chunk> = Vec::new();
                        let mut max_diff = 0.0f64;
                        let mut changed = 0u64;
                        let mut invocations = 0u64;
                        let mut group_iter = groups(run).peekable();
                        for (dk, prev) in state {
                            // Advance group cursor to this dk; groups for
                            // unknown dks (no state entry) are preserved but
                            // produce no state update.
                            let mut matched: Option<&[(S::DK, MapKey, S::V2)]> = None;
                            while let Some(g) = group_iter.peek() {
                                match g[0].0.cmp(dk) {
                                    std::cmp::Ordering::Less => {
                                        let g = group_iter.next().expect("peeked group");
                                        if stores.is_some() {
                                            chunks.push(chunk_of::<S>(g));
                                        }
                                    }
                                    std::cmp::Ordering::Equal => {
                                        matched = Some(group_iter.next().expect("peeked group"));
                                        break;
                                    }
                                    std::cmp::Ordering::Greater => break,
                                }
                            }
                            let values = match matched {
                                Some(g) => {
                                    if stores.is_some() {
                                        chunks.push(chunk_of::<S>(g));
                                    }
                                    Values::group(g)
                                }
                                None => Values::empty(),
                            };
                            let next = spec.reduce(dk, prev, values);
                            invocations += 1;
                            let diff = spec.difference(&next, prev);
                            if diff > 0.0 {
                                changed += 1;
                            }
                            max_diff = max_diff.max(diff);
                            new_state.push((dk.clone(), next));
                        }
                        // Preserve trailing groups beyond the last state key.
                        if stores.is_some() {
                            for g in group_iter {
                                chunks.push(chunk_of::<S>(g));
                            }
                        }
                        Ok((new_state, max_diff, changed, invocations, chunks))
                    },
                )
            })
            .collect();
        let reduce_results = self.pool.run_tasks(reduce_tasks)?;

        let mut max_diff = 0.0f64;
        let mut changed = 0u64;
        let mut batches: Vec<Vec<Chunk>> =
            Vec::with_capacity(if stores.is_some() { self.n } else { 0 });
        for (p, (new_state, part_max, part_changed, invocations, chunks)) in
            reduce_results.into_iter().enumerate()
        {
            metrics.reduce_invocations += invocations;
            max_diff = max_diff.max(part_max);
            changed += part_changed;
            // Co-location: reduce output p becomes state partition p with no
            // backward transfer.
            data.state[p] = new_state;
            if stores.is_some() {
                batches.push(chunks);
            }
        }
        if let Some(stores) = stores {
            // Preservation: one batch per shard, appended as concurrent
            // StoreMerge tasks driven by the store runtime. (The append
            // fences the previous pass's overlapped compactions.)
            stores.append_batch_all(iteration, batches)?;
        }
        self.stage(metrics, Stage::Reduce, iteration, t);
        // Reduce is done with the sorted runs: park them for the next pass
        // instead of dropping the allocations.
        self.full_runs.recycle_all(runs);
        Ok(IterationStats {
            iteration,
            max_diff,
            changed_keys: changed,
            wall: Default::default(),
        })
    }

    /// Map + preserve pass against the *current* state, used by
    /// `PreserveMode::FinalOnly` to materialize the converged MRBGraph
    /// (iteration `u64::MAX` in task ids and stage samples).
    pub(crate) fn materialize_mrbg(
        &self,
        data: &PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        stores: &StoreManager,
        metrics: &mut JobMetrics,
    ) -> Result<()> {
        // Its map invocations are not counted: the pass re-derives the
        // edges of the state the last counted pass produced.
        let (runs, _) = self.map_sort(data, u64::MAX, true, metrics)?;
        let t = Instant::now();
        // Chunk construction stays a Reduce-kind task per partition; the
        // appends themselves run as the store runtime's StoreMerge tasks.
        let build_tasks: Vec<TaskSpec<'_, Vec<Chunk>>> = runs
            .iter()
            .enumerate()
            .map(|(p, run)| {
                let run: &[(S::DK, MapKey, S::V2)] = run;
                TaskSpec::new(
                    TaskId {
                        kind: TaskKind::Reduce,
                        index: p,
                        iteration: u64::MAX,
                    },
                    move |_| Ok(groups(run).map(|g| chunk_of::<S>(g)).collect()),
                )
            })
            .collect();
        let batches = self.pool.run_tasks(build_tasks)?;
        stores.append_batch_all(u64::MAX, batches)?;
        self.stage(metrics, Stage::Reduce, u64::MAX, t);
        stores.drain_metrics(metrics);
        self.full_runs.recycle_all(runs);
        Ok(())
    }

    /// The prime Map → shuffle → sort prefix of a full pass: structure
    /// groups merge-joined with their co-located state, one Map task per
    /// partition. Returns the sorted runs and the map invocations.
    fn map_sort(
        &self,
        data: &PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        iteration: u64,
        with_mk: bool,
        metrics: &mut JobMetrics,
    ) -> Result<(Vec<Vec<ShuffleRecord<S::DK, S::V2>>>, u64)> {
        let spec = self.spec;
        let t = Instant::now();
        let inputs: Vec<_> = data.structure.iter().zip(&data.state).enumerate().collect();
        let (map_outputs, invocations) = self.map_stage(
            iteration,
            &self.full_runs,
            &inputs,
            |(structure, state), emitter, buffers| {
                debug_assert_eq!(structure.len(), state.len());
                let mut invocations = 0u64;
                for (g, (dk, dv)) in structure.iter().zip(state.iter()) {
                    debug_assert!(g.dk == *dk, "structure/state misaligned");
                    for (sk, sv) in &g.records {
                        let mk = MapKey::for_structure(&encode_to(sk));
                        spec.map(sk, sv, dk, dv, emitter);
                        invocations += 1;
                        for (k2, v2) in emitter.drain() {
                            buffers.push(k2, mk, v2, &HashPartitioner);
                        }
                    }
                }
                invocations
            },
        )?;
        self.stage(metrics, Stage::Map, iteration, t);

        let t = Instant::now();
        let (mut runs, recs, bytes) =
            transpose_pooled(map_outputs, self.n, with_mk, &self.full_runs);
        metrics.shuffled_records += recs;
        metrics.shuffled_bytes += bytes;
        self.stage(metrics, Stage::Shuffle, iteration, t);

        // Sort (pool-scheduled, unstable, one task per non-empty run).
        let t = Instant::now();
        sort_runs(self.pool, &mut runs, iteration)?;
        self.stage(metrics, Stage::Sort, iteration, t);
        Ok((runs, invocations))
    }
}

/// Build the preserved chunk for one sorted (K2, MK, V2) group.
fn chunk_of<S: IterativeSpec>(group: &[(S::DK, MapKey, S::V2)]) -> Chunk {
    Chunk::new(
        encode_to(&group[0].0),
        group
            .iter()
            .map(|(_, mk, v)| ChunkEntry {
                mk: *mk,
                value: encode_to(v),
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Small-state engine (Kmeans-style all-to-one dependency)
// ---------------------------------------------------------------------------

/// Structure partitions plus the replicated state (paper §4.3, small state).
#[derive(Clone, Debug)]
pub struct SmallStateData<SK, SV, State> {
    /// `[partition][record]` — default-partitioned structure records.
    pub structure: Vec<Vec<(SK, SV)>>,
    /// The single replicated state value.
    pub state: State,
}

impl<SK, SV, State> SmallStateData<SK, SV, State> {
    /// Total structure records.
    pub fn structure_len(&self) -> usize {
        self.structure.iter().map(Vec::len).sum()
    }
}

/// Partition structure records for a small-state computation.
pub fn build_small_state<S: SmallStateSpec>(
    n: usize,
    structure: Vec<(S::SK, S::SV)>,
    initial_state: S::State,
) -> SmallStateData<S::SK, S::SV, S::State> {
    let mut parts: Vec<Vec<(S::SK, S::SV)>> = (0..n).map(|_| Vec::new()).collect();
    for (sk, sv) in structure {
        let p = HashPartitioner.partition(&sk, n);
        parts[p].push((sk, sv));
    }
    for part in &mut parts {
        part.sort_by(|a, b| a.0.cmp(&b.0));
    }
    SmallStateData {
        structure: parts,
        state: initial_state,
    }
}

/// Values a map task buffers per K2 before folding them into one partial
/// with the spec's own `reduce`: large enough to amortise the call, small
/// enough that a task never holds more than `|K2| × COMBINE_BUFFER` values.
const COMBINE_BUFFER: usize = 64;

/// Iterative engine for replicated small state (Kmeans).
///
/// The structure is partitioned once ([`build_small_state`]) and never moves.
/// Each pass, a map task combines in the mapper: it folds the values its
/// records emit per K2 through [`SmallStateSpec::reduce`] and ships one
/// partial per K2, so shuffle, sort and reduce handle at most
/// `n_map × |K2|` records however large the structure is. The reduce side
/// folds those partials with the same `reduce`, once per K2, and
/// [`SmallStateSpec::assemble`] builds the next replicated state.
///
/// `JobMetrics::reduce_invocations` counts the reduce-side calls only (one
/// per distinct K2 per pass); the map-side folds are not counted, and their
/// time is part of the map stage.
pub struct SmallStateIterEngine<'s, S: SmallStateSpec> {
    spec: &'s S,
    config: JobConfig,
    params: IterParams,
    recycler: RunPool<S::K2, S::V2>,
}

impl<'s, S: SmallStateSpec> SmallStateIterEngine<'s, S> {
    /// Build an engine.
    pub fn new(spec: &'s S, config: JobConfig, params: IterParams) -> Result<Self> {
        config.validate()?;
        Ok(SmallStateIterEngine {
            spec,
            config,
            params,
            recycler: RunPool::new(),
        })
    }

    /// Run iterations until convergence or budget. The MRBGraph is never
    /// maintained here: any input change invalidates the whole state
    /// (P∆ = 100 %), so preservation would be pure overhead (paper §5.2).
    pub fn run(
        &self,
        pool: &WorkerPool,
        data: &mut SmallStateData<S::SK, S::SV, S::State>,
    ) -> Result<RunReport> {
        let n = self.config.n_reduce;
        let spec = self.spec;
        let recycler = &self.recycler;
        let mut report = RunReport::default();

        for iteration in 1..=self.params.max_iterations {
            let started = Instant::now();
            let mut metrics = JobMetrics {
                jobs_started: u64::from(iteration == 1),
                ..Default::default()
            };

            // Prime Map over structure with the replicated state; each task
            // ships one partial per K2.
            let t = Instant::now();
            let state = &data.state;
            let map_tasks: Vec<TaskSpec<'_, (ShuffleBuffers<S::K2, S::V2>, u64)>> = (0..n)
                .map(|p| {
                    let part = &data.structure[p];
                    TaskSpec::pinned(
                        TaskId {
                            kind: TaskKind::Map,
                            index: p,
                            iteration,
                        },
                        p % pool.n_workers(),
                        move |_| {
                            // Combine in the mapper: a K2's full buffer
                            // is folded into one partial.
                            let mut pending: BTreeMap<S::K2, Vec<S::V2>> = BTreeMap::new();
                            let mut emitter = Emitter::new();
                            for (sk, sv) in part {
                                spec.map(sk, sv, state, &mut emitter);
                                for (k2, v2) in emitter.drain() {
                                    let Some(values) = pending.get_mut(&k2) else {
                                        pending.insert(k2, vec![v2]);
                                        continue;
                                    };
                                    values.push(v2);
                                    if values.len() == COMBINE_BUFFER {
                                        let partial = spec.reduce(&k2, Values::slice(values));
                                        values.clear();
                                        values.push(partial);
                                    }
                                }
                            }
                            // One partial per K2 leaves the task.
                            let mut buffers = ShuffleBuffers::with_pool(n, recycler);
                            for (k2, values) in pending {
                                let partial = spec.reduce(&k2, Values::slice(&values));
                                buffers.push(k2, MapKey(0), partial, &HashPartitioner);
                            }
                            Ok((buffers, part.len() as u64))
                        },
                    )
                })
                .collect();
            let map_results = pool.run_tasks(map_tasks)?;
            metrics.stages.add(Stage::Map, t.elapsed());
            let mut map_outputs = Vec::with_capacity(map_results.len());
            for (buffers, inv) in map_results {
                metrics.map_invocations += inv;
                map_outputs.push(buffers);
            }

            let t = Instant::now();
            let (mut runs, recs, bytes) = transpose_pooled(map_outputs, n, false, recycler);
            metrics.shuffled_records += recs;
            metrics.shuffled_bytes += bytes;
            metrics.stages.add(Stage::Shuffle, t.elapsed());

            let t = Instant::now();
            // At most `n_map × |K2|` partials in all: sorting them here is
            // cheaper than a fence of Sort tasks.
            runs.iter_mut().for_each(|run| sort_run(run));
            metrics.stages.add(Stage::Sort, t.elapsed());

            // Prime Reduce: fold each key's map-side partials, then assemble
            // the new replicated state (the cheap backward broadcast, §4.3).
            let t = Instant::now();
            let reduce_tasks: Vec<TaskSpec<'_, (Vec<(S::K2, S::V2)>, u64)>> = runs
                .iter()
                .enumerate()
                .map(|(p, run)| {
                    let run: &[(S::K2, MapKey, S::V2)] = run;
                    TaskSpec::pinned(
                        TaskId {
                            kind: TaskKind::Reduce,
                            index: p,
                            iteration,
                        },
                        p % pool.n_workers(),
                        move |_| {
                            let mut parts = Vec::new();
                            let mut invocations = 0u64;
                            for g in groups(run) {
                                parts
                                    .push((g[0].0.clone(), spec.reduce(&g[0].0, Values::group(g))));
                                invocations += 1;
                            }
                            Ok((parts, invocations))
                        },
                    )
                })
                .collect();
            let reduce_results = pool.run_tasks(reduce_tasks)?;
            metrics.stages.add(Stage::Reduce, t.elapsed());

            self.recycler.recycle_all(runs);
            let mut parts = Vec::new();
            for (p, inv) in reduce_results {
                metrics.reduce_invocations += inv;
                parts.extend(p);
            }
            parts.sort_by(|a, b| a.0.cmp(&b.0));
            let new_state = spec.assemble(&data.state, &parts);
            let diff = spec.difference(&new_state, &data.state);
            data.state = new_state;

            report.iterations.push(IterationStats {
                iteration,
                max_diff: diff,
                changed_keys: u64::from(diff > 0.0),
                wall: started.elapsed(),
            });
            report.per_iteration.push(metrics);
            if diff < self.params.epsilon {
                report.converged = true;
                break;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterative::{DependencyKind, PreserveMode};

    /// Toy spec: state values converge to the average of their in-neighbor
    /// values (a contraction, so it converges quickly).
    struct Averager;

    impl IterativeSpec for Averager {
        type SK = u64;
        type SV = Vec<u64>; // out-neighbors
        type DK = u64;
        type DV = f64;
        type V2 = f64;

        fn project(&self, sk: &u64) -> u64 {
            *sk
        }
        fn map(&self, _sk: &u64, sv: &Vec<u64>, _dk: &u64, dv: &f64, out: &mut Emitter<u64, f64>) {
            for j in sv {
                out.emit(*j, dv * 0.5);
            }
        }
        fn reduce(&self, _dk: &u64, _prev: &f64, values: Values<'_, u64, f64>) -> f64 {
            0.1 + values.iter().sum::<f64>()
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

    fn ring(n: u64) -> Vec<(u64, Vec<u64>)> {
        (0..n).map(|i| (i, vec![(i + 1) % n])).collect()
    }

    /// `run_initial` of an `Averager` session on `pool` with `n`
    /// partitions, preserving into `stores` and checkpointing to `ck` when
    /// given.
    fn run_initial(
        pool: &WorkerPool,
        n: usize,
        params: IterParams,
        stores: Option<&StoreManager>,
        ck: Option<&crate::checkpoint::IterCheckpointer>,
        data: &mut PartitionedData<u64, Vec<u64>, u64, f64>,
    ) -> Result<RunReport> {
        let mut builder = crate::run::RunBuilder::new(&Averager)
            .pool(pool)
            .job(JobConfig::symmetric(n))
            .iter(params);
        if let Some(stores) = stores {
            builder = builder.stores_ref(stores);
        }
        if let Some(ck) = ck {
            builder = builder.checkpointer_ref(ck);
        }
        builder.build()?.run_initial(data)
    }

    #[test]
    fn partitioning_groups_and_aligns_state() {
        let data = build_partitioned(&Averager, 4, ring(100));
        assert_eq!(data.state_len(), 100);
        assert_eq!(data.structure_len(), 100);
        for p in 0..4 {
            assert_eq!(data.structure[p].len(), data.state[p].len());
            for (g, (dk, dv)) in data.structure[p].iter().zip(&data.state[p]) {
                assert_eq!(g.dk, *dk);
                assert_eq!(*dv, 1.0);
                assert_eq!(HashPartitioner.partition(dk, 4), p);
            }
            // Sorted by DK.
            let dks: Vec<u64> = data.structure[p].iter().map(|g| g.dk).collect();
            let mut sorted = dks.clone();
            sorted.sort_unstable();
            assert_eq!(dks, sorted);
        }
    }

    #[test]
    fn full_run_converges_to_fixed_point() {
        let params = IterParams {
            max_iterations: 100,
            epsilon: 1e-12,
            preserve: PreserveMode::None,
        };
        let pool = WorkerPool::new(3);
        let mut data = build_partitioned(&Averager, 3, ring(30));
        let report = run_initial(&pool, 3, params, None, None, &mut data).unwrap();
        assert!(report.converged);
        // Fixed point of x = 0.1 + 0.5x is 0.2.
        for (_, v) in data.state_snapshot() {
            assert!((v - 0.2).abs() < 1e-9, "got {v}");
        }
        // Job reuse: exactly one job started across all iterations.
        assert_eq!(report.total_metrics().jobs_started, 1);
        assert!(report.n_iterations() > 3);
    }

    #[test]
    fn mismatched_map_reduce_counts_rejected() {
        let cfg = JobConfig {
            n_map: 2,
            n_reduce: 3,
            ..Default::default()
        };
        assert!(crate::run::RunBuilder::new(&Averager)
            .job(cfg)
            .build()
            .is_err());
    }

    #[test]
    fn preserve_every_iteration_builds_batches() {
        let params = IterParams {
            max_iterations: 5,
            epsilon: 0.0, // never converge: run all 5
            preserve: PreserveMode::EveryIteration,
        };
        let pool = WorkerPool::new(2);
        let mut data = build_partitioned(&Averager, 2, ring(16));
        let dir = std::env::temp_dir().join(format!(
            "i2mr-iter-preserve-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let stores = StoreManager::create(&pool, &dir, 2, Default::default()).unwrap();
        run_initial(&pool, 2, params, Some(&stores), None, &mut data).unwrap();
        for p in 0..2 {
            stores.with_store_ref(p, |s| {
                assert_eq!(s.n_batches(), 5, "one batch per iteration");
                assert!(!s.is_empty());
            });
        }
    }

    #[test]
    fn preserve_final_only_builds_one_batch() {
        let params = IterParams {
            max_iterations: 50,
            epsilon: 1e-10,
            preserve: PreserveMode::FinalOnly,
        };
        let pool = WorkerPool::new(2);
        let mut data = build_partitioned(&Averager, 2, ring(16));
        let dir = std::env::temp_dir().join(format!(
            "i2mr-iter-final-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let stores = StoreManager::create(&pool, &dir, 2, Default::default()).unwrap();
        let report = run_initial(&pool, 2, params, Some(&stores), None, &mut data).unwrap();
        assert!(report.converged);
        for p in 0..2 {
            let n = stores.with_store_ref(p, |s| s.n_batches());
            assert_eq!(n, 1, "only the converged iteration");
        }
    }

    #[test]
    fn run_checkpointed_resumes_after_worker_faults() {
        use crate::checkpoint::IterCheckpointer;
        use i2mr_common::failpoint::{FailAction, FailSite, FailpointRegistry};
        use i2mr_mapred::pool::PoolConfig;
        use std::sync::Arc;

        let params = IterParams {
            max_iterations: 100,
            epsilon: 1e-12,
            preserve: PreserveMode::None,
        };

        // Fault-free reference run.
        let clean = WorkerPool::new(3);
        let mut want = build_partitioned(&Averager, 3, ring(30));
        let report = run_initial(&clean, 3, params, None, None, &mut want).unwrap();
        assert!(report.converged);

        // Faulty pool: every task attempt fails while the budget lasts and
        // the executor gets no retries, so failures escape to the engine.
        let fp = Arc::new(FailpointRegistry::seeded(17, 2).arm(
            FailSite::TaskRun,
            1.0,
            FailAction::Error,
        ));
        let faulty = WorkerPool::with_config(PoolConfig {
            max_attempts: 1,
            failpoints: Arc::clone(&fp),
            ..PoolConfig::new(3)
        });
        let dir = std::env::temp_dir().join(format!(
            "i2mr-iter-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let dfs = i2mr_dfs::MiniDfs::open_with(dir.join("dfs"), 1 << 20, 2).unwrap();
        let ck = IterCheckpointer::new(&dfs, "avg-resume", 3);

        let mut data = build_partitioned(&Averager, 3, ring(30));
        let report = run_initial(&faulty, 3, params, None, Some(&ck), &mut data).unwrap();
        assert!(report.converged);
        assert!(fp.fired() >= 1, "faults must actually have been injected");
        let total = report.total_metrics();
        assert!(total.recovery_ms > 0, "recovery cost must be accounted");
        // Bit-identical fixed point despite the mid-run rewinds.
        assert_eq!(data.state, want.state);
    }

    #[test]
    fn state_get_finds_values() {
        let data = build_partitioned(&Averager, 3, ring(10));
        for i in 0..10u64 {
            assert_eq!(data.state_get(3, &i), Some(&1.0));
        }
        assert_eq!(data.state_get(3, &99), None);
    }

    // ------------------------------------------------------------------
    // Small-state engine: 1-D 2-means.
    // ------------------------------------------------------------------

    struct TinyKmeans;

    impl SmallStateSpec for TinyKmeans {
        type SK = u64;
        type SV = f64; // 1-D point
        type State = Vec<(u32, f64)>; // (cid, centroid)
        type K2 = u32;
        type V2 = (f64, u64); // (sum, count)

        fn map(&self, _sk: &u64, x: &f64, state: &Self::State, out: &mut Emitter<u32, (f64, u64)>) {
            let (cid, _) = state
                .iter()
                .min_by(|a, b| (a.1 - x).abs().partial_cmp(&(b.1 - x).abs()).unwrap())
                .unwrap();
            out.emit(*cid, (*x, 1));
        }
        fn reduce(&self, _k2: &u32, values: Values<'_, u32, (f64, u64)>) -> (f64, u64) {
            let sum: f64 = values.iter().map(|(s, _)| s).sum();
            let count: u64 = values.iter().map(|(_, c)| c).sum();
            (sum, count)
        }
        fn assemble(&self, prev: &Self::State, parts: &[(u32, (f64, u64))]) -> Self::State {
            let mut next = prev.clone();
            for (cid, (sum, count)) in parts {
                if *count > 0 {
                    if let Some(c) = next.iter_mut().find(|(id, _)| id == cid) {
                        c.1 = sum / *count as f64;
                    }
                }
            }
            next
        }
        fn difference(&self, curr: &Self::State, prev: &Self::State) -> f64 {
            curr.iter()
                .zip(prev)
                .map(|(a, b)| (a.1 - b.1).abs())
                .fold(0.0, f64::max)
        }
    }

    #[test]
    fn small_state_kmeans_converges_to_cluster_means() {
        // Two tight clusters around 0.0 and 10.0.
        let points: Vec<(u64, f64)> = (0..40u64)
            .map(|i| {
                if i % 2 == 0 {
                    (i, (i % 5) as f64 * 0.01)
                } else {
                    (i, 10.0 + (i % 5) as f64 * 0.01)
                }
            })
            .collect();
        let spec = TinyKmeans;
        let engine = SmallStateIterEngine::new(
            &spec,
            JobConfig::symmetric(3),
            IterParams {
                max_iterations: 30,
                epsilon: 1e-9,
                preserve: PreserveMode::None,
            },
        )
        .unwrap();
        let pool = WorkerPool::new(3);
        let mut data = build_small_state::<TinyKmeans>(3, points, vec![(0, -1.0), (1, 11.0)]);
        let report = engine.run(&pool, &mut data).unwrap();
        assert!(report.converged);
        let c0 = data.state[0].1;
        let c1 = data.state[1].1;
        assert!((c0 - 0.02).abs() < 0.1, "centroid 0 at {c0}");
        assert!((c1 - 10.02).abs() < 0.1, "centroid 1 at {c1}");
        assert_eq!(report.total_metrics().jobs_started, 1);
    }

    /// One Lloyd pass over 1-D points with no spec, emitter, shuffle or
    /// pool: the substrate-free oracle. Returns the next centroids and how
    /// many clusters received a point.
    fn lloyd_pass(points: &[f64], centroids: &[(u32, f64)]) -> (Vec<(u32, f64)>, u64) {
        let mut sums: BTreeMap<u32, (f64, u64)> = BTreeMap::new();
        for x in points {
            let mut best = centroids[0];
            for c in &centroids[1..] {
                if (c.1 - x).abs() < (best.1 - x).abs() {
                    best = *c;
                }
            }
            let sum = sums.entry(best.0).or_insert((0.0, 0));
            sum.0 += x;
            sum.1 += 1;
        }
        let next = centroids.iter().map(|(cid, c)| match sums.get(cid) {
            Some((sum, count)) => (*cid, sum / *count as f64),
            None => (*cid, *c),
        });
        (next.collect(), sums.len() as u64)
    }

    #[test]
    fn small_state_combining_matches_a_plain_loop_bit_for_bit() {
        // Integral points: every partial sum is an exact integer, so the
        // grouping of the folds cannot show in the result.
        let crowded: Vec<(u64, f64)> = (0..300u64)
            .map(|i| match i % 3 {
                2 => (i, 100.0 + (i % 5) as f64),
                _ => (i, (i % 7) as f64),
            })
            .collect();
        let sparse: Vec<(u64, f64)> = vec![(300, 48.0), (301, 55.0), (302, 2.0), (303, 101.0)];
        // Partition 0 folds cluster 0's buffer more than once; partition 1
        // emits nothing.
        assert!(crowded.iter().filter(|(_, x)| *x < 10.0).count() > 2 * COMBINE_BUFFER);
        let structure = vec![crowded, Vec::new(), sparse];
        let points: Vec<f64> = structure.iter().flatten().map(|(_, x)| *x).collect();
        let mut data = SmallStateData {
            structure,
            state: vec![(0, 1.0), (1, 60.0), (2, 90.0), (3, 1e6)],
        };

        let spec = TinyKmeans;
        let one_pass = IterParams {
            max_iterations: 1,
            epsilon: 0.0,
            preserve: PreserveMode::None,
        };
        let engine = SmallStateIterEngine::new(&spec, JobConfig::symmetric(3), one_pass).unwrap();
        let pool = WorkerPool::new(3);
        for pass in 1..=5 {
            let (want, distinct) = lloyd_pass(&points, &data.state);
            assert_eq!(distinct, 3, "cluster 3 never receives a point");
            let report = engine.run(&pool, &mut data).unwrap();
            let bits =
                |s: &[(u32, f64)]| s.iter().map(|c| (c.0, c.1.to_bits())).collect::<Vec<_>>();
            assert_eq!(bits(&data.state), bits(&want), "pass {pass}");
            let m = &report.per_iteration[0];
            assert_eq!(m.map_invocations, points.len() as u64);
            assert_eq!(m.reduce_invocations, distinct);
            assert!(m.shuffled_records >= distinct && m.shuffled_records <= 3 * distinct);
        }
    }
}
