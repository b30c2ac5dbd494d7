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
//!
//! Structure caching also fixes most of the shuffle. A pass's map output
//! is determined by the structure *and* the state, but on PageRank only
//! the values follow the state: every pass routes and sorts the same K2
//! sequence. So the loop-invariant side is processed once per run (Ewen
//! et al.'s bulk iterations): a plan-less pass records each map task's
//! routes, per-record emission ends and a K2-sequence signature, and once
//! two consecutive passes agree it builds a `ShufflePlan` — per reduce
//! partition, the sorted group keys and which map emission fills each
//! slot. A planned pass maps values only, checks every emitted K2 and
//! every record's emission count against the plan, and reduces
//! through [`Values::gather`]; any disagreement drops the plan and re-runs
//! the pass plan-less from the map. The driver drops the plan at every
//! MRBG pass and every rewind.

use crate::driver::Driver;
use crate::iterative::{IterParams, IterationStats, IterativeSpec, SmallStateSpec};
use i2mr_common::codec::{encode_to, with_encoding, Codec};
use i2mr_common::error::Result;
use i2mr_common::hash::MapKey;
use i2mr_common::metrics::{JobMetrics, Stage};
use i2mr_mapred::config::JobConfig;
use i2mr_mapred::fault::{TaskId, TaskKind};
use i2mr_mapred::partition::{HashPartitioner, Partitioner};
use i2mr_mapred::pool::{TaskSpec, WorkerPool};
use i2mr_mapred::shuffle::{
    groups, sort_run, sort_runs, transpose_pooled, RunPool, ShuffleBuffers, ShuffleRecord,
    MK_WIRE_BYTES,
};
use i2mr_mapred::types::{Emitter, KeyData, ValueData, Values};
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
fn partition_structure<S: IterativeSpec>(
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

/// Build co-partitioned data from raw structure records with initial state.
pub fn build_partitioned<S: IterativeSpec>(
    spec: &S,
    n: usize,
    structure: Vec<(S::SK, S::SV)>,
) -> PartitionedData<S::SK, S::SV, S::DK, S::DV> {
    let structure = partition_structure(spec, n, structure);
    let state = structure
        .iter()
        .map(|groups| {
            groups
                .iter()
                .map(|g| (g.dk.clone(), spec.init(&g.dk)))
                .collect()
        })
        .collect();
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

    /// Number of iterations executed.
    pub fn n_iterations(&self) -> u64 {
        self.iterations.len() as u64
    }
}

/// A group the prime Reduce consumes: its K2, its values in `(K2, MK)`
/// order, and its preserved chunk when the pass maintains the MRBGraph.
type ReduceGroup<'g, S> = (
    &'g <S as IterativeSpec>::DK,
    Values<'g, <S as IterativeSpec>::DK, <S as IterativeSpec>::V2>,
    Option<Chunk>,
);

/// One reduce partition of a [`ShufflePlan`].
struct PlanPart<K> {
    /// Group keys, strictly ascending.
    keys: Vec<K>,
    /// `ends[g]` is one past group `g`'s last slot.
    ends: Vec<u32>,
    /// The `(map partition, emission index)` filling each slot, in
    /// `(K2, MK)` order.
    slots: Vec<(u32, u32)>,
    /// Each slot's MK; empty unless the planning pass preserved.
    mks: Vec<MapKey>,
}

impl<K: KeyData> PlanPart<K> {
    /// The partition's groups over this pass's map values.
    fn groups<'g, V: ValueData>(
        &'g self,
        values: &'g [Vec<V>],
        with_mk: bool,
    ) -> impl Iterator<Item = (&'g K, Values<'g, K, V>, Option<Chunk>)> + 'g {
        let mut start = 0;
        self.keys.iter().zip(&self.ends).map(move |(key, &end)| {
            let range = start..end as usize;
            start = end as usize;
            let group = Values::gather(values, &self.slots[range.clone()]);
            let chunk = with_mk.then(|| chunk_of(key, self.mks[range].iter().copied().zip(group)));
            (key, group, chunk)
        })
    }
}

/// The loop-invariant shuffle of a run's full passes: where every map
/// emission lands and in which order reduce reads it. With a plan, a full
/// pass keeps each map task's values in emission order and reduce gathers
/// them per group — no MK hashing, partitioning, transpose or sort.
pub(crate) struct ShufflePlan<K> {
    parts: Vec<PlanPart<K>>,
    /// `[map partition][emission index]` → `(reduce partition, group)`:
    /// the K2 each emission must carry.
    emits: Vec<Vec<(u32, u32)>>,
    /// `[map partition][record]` → one past the record's last emission:
    /// which record each emission must come from (its MK, and so its
    /// place in the `(K2, MK)` order).
    record_ends: Vec<Vec<u32>>,
    /// Encoded K2 bytes summed over every slot (shuffle byte metering).
    key_bytes: u64,
    /// Whether the slots carry MKs (the planning pass preserved).
    with_mk: bool,
}

impl<K: KeyData> ShufflePlan<K> {
    /// Plan a pass from its unsorted runs, the reduce partition each map
    /// task sent each of its emissions to, and each task's per-record
    /// emission ends. Slots follow `(K2, MK)`; equal pairs keep emission
    /// order.
    fn build<V>(
        runs: &[Vec<ShuffleRecord<K, V>>],
        routes: &[Vec<u32>],
        record_ends: Vec<Vec<u32>>,
        with_mk: bool,
    ) -> Self {
        const UNSET: (u32, u32) = (u32::MAX, u32::MAX);
        // Run r holds map task 0's emissions to r, then task 1's, …, each
        // in emission order (`transpose`).
        let mut origins: Vec<Vec<(u32, u32)>> = runs
            .iter()
            .map(|run| Vec::with_capacity(run.len()))
            .collect();
        for (m, route) in routes.iter().enumerate() {
            for (i, &r) in route.iter().enumerate() {
                origins[r as usize].push((m as u32, i as u32));
            }
        }
        let mut emits: Vec<Vec<(u32, u32)>> = routes
            .iter()
            .map(|route| vec![UNSET; route.len()])
            .collect();
        let mut key_bytes = 0u64;
        let mut order: Vec<u32> = Vec::new();
        let mut parts = Vec::with_capacity(runs.len());
        for (r, (run, origin)) in runs.iter().zip(origins).enumerate() {
            debug_assert_eq!(run.len(), origin.len(), "routes disagree with run {r}");
            order.clear();
            order.extend(0..run.len() as u32);
            // Position breaks ties: a total order, so the sort is stable.
            order.sort_unstable_by(|&a, &b| {
                let (x, y) = (&run[a as usize], &run[b as usize]);
                x.0.cmp(&y.0).then(x.1.cmp(&y.1)).then(a.cmp(&b))
            });
            let mut part = PlanPart {
                keys: Vec::new(),
                ends: Vec::new(),
                slots: Vec::with_capacity(run.len()),
                mks: Vec::with_capacity(if with_mk { run.len() } else { 0 }),
            };
            for &pos in &order {
                let (k2, mk, _) = &run[pos as usize];
                if part.keys.last() != Some(k2) {
                    debug_assert!(part.keys.last() < Some(k2), "group keys must ascend");
                    if !part.keys.is_empty() {
                        part.ends.push(part.slots.len() as u32);
                    }
                    part.keys.push(k2.clone());
                }
                let (m, i) = origin[pos as usize];
                let emit = &mut emits[m as usize][i as usize];
                debug_assert_eq!(*emit, UNSET, "emission planned twice");
                *emit = (r as u32, part.keys.len() as u32 - 1);
                part.slots.push((m, i));
                if with_mk {
                    part.mks.push(*mk);
                }
                key_bytes += k2.encoded_len() as u64;
            }
            if !part.keys.is_empty() {
                part.ends.push(part.slots.len() as u32);
            }
            parts.push(part);
        }
        debug_assert!(
            emits.iter().flatten().all(|e| *e != UNSET),
            "every emission fills exactly one slot"
        );
        ShufflePlan {
            parts,
            emits,
            record_ends,
            key_bytes,
            with_mk,
        }
    }
}

/// What a run's full passes know about their shuffle: the emission
/// signature of the last plan-less pass — `(emissions, hash of the K2
/// sequence and record boundaries)` per map task — and the plan built once
/// two consecutive passes agreed.
/// The driver resets it whenever the structure may have changed.
pub(crate) struct FullShuffle<K> {
    last: Option<Vec<(u64, u64)>>,
    plan: Option<ShufflePlan<K>>,
}

impl<K> Default for FullShuffle<K> {
    fn default() -> Self {
        FullShuffle {
            last: None,
            plan: None,
        }
    }
}

impl<K> FullShuffle<K> {
    /// Forget the signature and the plan.
    pub(crate) fn reset(&mut self) {
        *self = FullShuffle::default();
    }
}

impl<S: IterativeSpec> Driver<'_, S> {
    /// A full pass: prime Map → shuffle → sort → prime Reduce over every
    /// key, appending the pass's MRBGraph to `stores` when given. With a
    /// plan in `shuffle`, Map keeps values only and Reduce gathers them
    /// (module docs); an emission that leaves the plan drops it and the
    /// pass re-runs plan-less.
    pub(crate) fn full_pass(
        &self,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        iteration: u64,
        stores: Option<&StoreManager>,
        shuffle: &mut FullShuffle<S::DK>,
        metrics: &mut JobMetrics,
    ) -> Result<IterationStats> {
        // MK bytes only travel when the MRBGraph is maintained.
        let with_mk = stores.is_some();
        if let Some(plan) = &shuffle.plan {
            // A run's full passes all preserve, or none do.
            debug_assert_eq!(plan.with_mk, with_mk);
            if let Some(values) = self.map_planned(data, iteration, plan, metrics)? {
                let values = &values;
                return self.reduce_stage(data, iteration, stores, metrics, |p| {
                    plan.parts[p].groups(values, with_mk)
                });
            }
            shuffle.plan = None;
        }
        let (runs, invocations) =
            self.map_sort(data, iteration, with_mk, Some(shuffle), metrics)?;
        metrics.map_invocations += invocations;
        let stats = self.reduce_stage(data, iteration, stores, metrics, |p| {
            groups(&runs[p]).map(move |g| {
                let chunk = with_mk.then(|| run_chunk(g));
                (&g[0].0, Values::group(g), chunk)
            })
        })?;
        // Park the runs for the next plan-less pass; a planned run does
        // not need their memory again.
        if shuffle.plan.is_none() {
            self.full_runs.recycle_all(runs);
        }
        Ok(stats)
    }

    /// Prime Reduce, co-located with the next pass's prime Map: reduce
    /// task p merge-joins state partition p with the K2-ascending groups
    /// `groups(p)` yields and writes the new state partition directly.
    /// Every group's chunk is appended to `stores`, when given.
    fn reduce_stage<'g, I>(
        &self,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        iteration: u64,
        stores: Option<&StoreManager>,
        metrics: &mut JobMetrics,
        groups: impl Fn(usize) -> I + Sync,
    ) -> Result<IterationStats>
    where
        I: Iterator<Item = ReduceGroup<'g, S>>,
    {
        let spec = self.spec;
        let t = Instant::now();
        let (state_parts, groups) = (&data.state, &groups);
        type ReduceOut<S> = (
            Vec<(<S as IterativeSpec>::DK, <S as IterativeSpec>::DV)>,
            f64,
            u64,
            u64,
            Vec<Chunk>,
        );
        let reduce_tasks: Vec<TaskSpec<'_, ReduceOut<S>>> = state_parts
            .iter()
            .enumerate()
            .map(|(p, state)| {
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
                        let mut group_iter = groups(p).peekable();
                        for (dk, prev) in state {
                            // Advance the group cursor to this dk; groups for
                            // unknown dks (no state entry) are preserved but
                            // produce no state update.
                            let mut values = Values::empty();
                            while let Some((key, _, _)) = group_iter.peek() {
                                match (*key).cmp(dk) {
                                    std::cmp::Ordering::Less => {
                                        let (_, _, chunk) = group_iter.next().expect("peeked");
                                        chunks.extend(chunk);
                                    }
                                    std::cmp::Ordering::Equal => {
                                        let (_, group, chunk) = group_iter.next().expect("peeked");
                                        chunks.extend(chunk);
                                        values = group;
                                        break;
                                    }
                                    std::cmp::Ordering::Greater => break,
                                }
                            }
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
                        chunks.extend(group_iter.filter_map(|(_, _, chunk)| chunk));
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
            // StoreMerge tasks driven by the store runtime.
            stores.append_batch_all(iteration, batches)?;
        }
        self.stage(metrics, Stage::Reduce, iteration, t);
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
        let (runs, _) = self.map_sort(data, u64::MAX, true, None, metrics)?;
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
                    move |_| Ok(groups(run).map(run_chunk).collect()),
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

    /// The prime Map → shuffle → sort prefix of a plan-less full pass:
    /// structure groups merge-joined with their co-located state, one Map
    /// task per partition. Returns the sorted runs and the map invocations.
    /// With `shuffle`, each task also records its emissions' routes, its
    /// records' emission ends and their hash; when they match the previous
    /// pass's, the pass builds the plan.
    fn map_sort(
        &self,
        data: &PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        iteration: u64,
        with_mk: bool,
        shuffle: Option<&mut FullShuffle<S::DK>>,
        metrics: &mut JobMetrics,
    ) -> Result<(Vec<Vec<ShuffleRecord<S::DK, S::V2>>>, u64)> {
        let (n, spec) = (self.n, self.spec);
        let t = Instant::now();
        let inputs: Vec<_> = data.structure.iter().zip(&data.state).enumerate().collect();
        let (outputs, invocations) =
            self.map_stage(iteration, &inputs, |(structure, state), emitter| {
                debug_assert_eq!(structure.len(), state.len());
                let mut buffers = ShuffleBuffers::with_pool(n, &self.full_runs);
                let mut route: Vec<u32> = Vec::new();
                let mut ends: Vec<u32> = Vec::with_capacity(structure.len());
                let mut k2_hash = 0u64;
                let mut invocations = 0u64;
                for (g, (dk, dv)) in structure.iter().zip(state.iter()) {
                    debug_assert!(g.dk == *dk, "structure/state misaligned");
                    for (sk, sv) in &g.records {
                        let mk = with_encoding(sk, MapKey::for_structure);
                        spec.map(sk, sv, dk, dv, emitter);
                        invocations += 1;
                        for (k2, v2) in emitter.drain() {
                            let h = HashPartitioner::key_hash(&k2);
                            let p = (h % n as u64) as usize;
                            k2_hash = (k2_hash ^ h).wrapping_mul(0x0100_0000_01b3);
                            route.push(p as u32);
                            buffers.push_at(p, k2, mk, v2);
                        }
                        ends.push(route.len() as u32);
                        k2_hash = (k2_hash ^ route.len() as u64).wrapping_mul(0x0100_0000_01b3);
                    }
                }
                ((buffers, route, ends, k2_hash), invocations)
            })?;
        self.stage(metrics, Stage::Map, iteration, t);

        let t = Instant::now();
        let mut map_outputs = Vec::with_capacity(n);
        let mut routes = Vec::with_capacity(n);
        let mut record_ends = Vec::with_capacity(n);
        let mut signature = Vec::with_capacity(n);
        for (buffers, route, ends, k2_hash) in outputs {
            signature.push((route.len() as u64, k2_hash));
            map_outputs.push(buffers);
            routes.push(route);
            record_ends.push(ends);
        }
        let (mut runs, recs, bytes) = transpose_pooled(map_outputs, n, with_mk, &self.full_runs);
        metrics.shuffled_records += recs;
        metrics.shuffled_bytes += bytes;
        self.stage(metrics, Stage::Shuffle, iteration, t);

        // Sort (pool-scheduled, unstable, one task per non-empty run),
        // after planning from the unsorted runs when the emission repeats.
        let t = Instant::now();
        if let Some(shuffle) = shuffle {
            // Slot indices are u32: plan only what they can address.
            let addressable = signature.iter().map(|s| s.0).sum::<u64>() < u64::from(u32::MAX);
            if addressable && shuffle.last.as_ref() == Some(&signature) {
                // Planned passes draw nothing from the pool.
                self.full_runs.release();
                shuffle.plan = Some(ShufflePlan::build(&runs, &routes, record_ends, with_mk));
            }
            shuffle.last = Some(signature);
        }
        drop(routes);
        sort_runs(self.pool, &mut runs, iteration)?;
        self.stage(metrics, Stage::Sort, iteration, t);
        Ok((runs, invocations))
    }

    /// The Map stage of a planned pass: each task keeps only its values, in
    /// emission order, and checks every emitted K2 and every record's
    /// emission count against the plan. `None` when some task's emission
    /// left the plan (nothing is metered then).
    fn map_planned(
        &self,
        data: &PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        iteration: u64,
        plan: &ShufflePlan<S::DK>,
        metrics: &mut JobMetrics,
    ) -> Result<Option<Vec<Vec<S::V2>>>> {
        let spec = self.spec;
        let t = Instant::now();
        let inputs: Vec<_> = data
            .structure
            .iter()
            .zip(&data.state)
            .zip(plan.emits.iter().zip(&plan.record_ends))
            .enumerate()
            .collect();
        let (outputs, invocations) = self.map_stage(
            iteration,
            &inputs,
            |((structure, state), (emits, ends)), emitter| {
                let mut values = Vec::with_capacity(emits.len());
                let mut value_bytes = 0u64;
                let mut invocations = 0u64;
                let mut ends = ends.iter();
                for (g, (dk, dv)) in structure.iter().zip(state.iter()) {
                    for (sk, sv) in &g.records {
                        spec.map(sk, sv, dk, dv, emitter);
                        invocations += 1;
                        for (k2, v2) in emitter.drain() {
                            match emits.get(values.len()) {
                                Some(&(r, gi))
                                    if plan.parts[r as usize].keys[gi as usize] == k2 => {}
                                _ => return (None, invocations),
                            }
                            value_bytes += v2.encoded_len() as u64;
                            values.push(v2);
                        }
                        // The slot's MK is the planning record's: another
                        // record emitting the same K2 must miss.
                        if ends.next() != Some(&(values.len() as u32)) {
                            return (None, invocations);
                        }
                    }
                }
                let complete = ends.next().is_none() && values.len() == emits.len();
                (complete.then_some((values, value_bytes)), invocations)
            },
        )?;
        self.stage(metrics, Stage::Map, iteration, t);
        let Some(outputs) = outputs.into_iter().collect::<Option<Vec<_>>>() else {
            return Ok(None);
        };
        metrics.map_invocations += invocations;

        // The shuffle is the plan; meter the records it moves exactly as
        // `transpose` meters them.
        let t = Instant::now();
        let records: u64 = outputs.iter().map(|(v, _)| v.len() as u64).sum();
        let value_bytes: u64 = outputs.iter().map(|(_, b)| b).sum();
        let mk_bytes = if plan.with_mk {
            records * MK_WIRE_BYTES
        } else {
            0
        };
        metrics.shuffled_records += records;
        metrics.shuffled_bytes += plan.key_bytes + value_bytes + mk_bytes;
        self.stage(metrics, Stage::Shuffle, iteration, t);
        Ok(Some(
            outputs.into_iter().map(|(values, _)| values).collect(),
        ))
    }
}

/// The preserved chunk of one group: its key and `(MK, value)` entries.
fn chunk_of<'v, K: Codec, V: Codec + 'v>(
    key: &K,
    entries: impl Iterator<Item = (MapKey, &'v V)>,
) -> Chunk {
    Chunk::new(
        encode_to(key),
        entries
            .map(|(mk, v)| ChunkEntry {
                mk,
                value: encode_to(v),
            })
            .collect(),
    )
}

/// The preserved chunk of one sorted `(K2, MK, V2)` run group.
fn run_chunk<K: Codec, V: Codec>(group: &[ShuffleRecord<K, V>]) -> Chunk {
    chunk_of(&group[0].0, group.iter().map(|(_, mk, v)| (*mk, v)))
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

    /// Matrix blocks `(i, j)` sharing vector block `j` (GIM-V's shape);
    /// only `project` matters to partitioning.
    struct Columns;

    impl IterativeSpec for Columns {
        type SK = (u64, u64);
        type SV = f64;
        type DK = u64;
        type DV = f64;
        type V2 = f64;

        fn project(&self, sk: &(u64, u64)) -> u64 {
            sk.1
        }
        fn map(&self, _sk: &(u64, u64), sv: &f64, dk: &u64, dv: &f64, out: &mut Emitter<u64, f64>) {
            out.emit(*dk, sv * dv);
        }
        fn reduce(&self, _dk: &u64, _prev: &f64, values: Values<'_, u64, f64>) -> f64 {
            values.iter().sum()
        }
        fn init(&self, _dk: &u64) -> f64 {
            1.0
        }
        fn difference(&self, curr: &f64, prev: &f64) -> f64 {
            (curr - prev).abs()
        }
        fn dependency(&self) -> DependencyKind {
            DependencyKind::ManyToOne
        }
    }

    #[test]
    fn projected_structure_co_locates_with_its_state() {
        // Paper Eq. 2: block (i, j) lands in hash(project(i, j)) mod n =
        // hash(j) mod n, the partition that holds state key j.
        let blocks = (0..20u64)
            .flat_map(|i| (0..20u64).map(move |j| ((i, j), 1.0)))
            .collect();
        let data = build_partitioned(&Columns, 5, blocks);
        assert_eq!(data.structure_len(), 400);
        assert_eq!(data.state_len(), 20);
        for p in 0..5 {
            assert_eq!(data.structure[p].len(), data.state[p].len());
            for (g, (dk, _)) in data.structure[p].iter().zip(&data.state[p]) {
                assert_eq!(g.dk, *dk);
                assert_eq!(HashPartitioner.partition(dk, 5), p);
                assert_eq!(g.records.len(), 20);
                for ((i, j), _) in &g.records {
                    assert_eq!(
                        j, dk,
                        "block ({i},{j}) must co-locate with vector block {j}"
                    );
                }
            }
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
