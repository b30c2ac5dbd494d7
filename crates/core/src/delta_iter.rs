//! Delta-iteration engine: workset-driven incremental fixed point.
//!
//! [`crate::incr_iter`] refreshes an iterative result by re-running map and
//! reduce over *changed* inputs, but its data plane is still scheduled
//! full-width: every partition gets a Map task, every run a Sort task and
//! every shard a merge task, however few keys changed. This module
//! generalizes the change-propagation idea (paper §5.3) from a post-hoc
//! threshold filter into real change-propagation *scheduling*, in the
//! workset/solution-set model of delta iterations:
//!
//! * the **solution set** is the converged state plus the preserved
//!   MRBGraph in the sharded [`StoreManager`] plane;
//! * the **workset** is the set of changed keys flowing into an iteration —
//!   the delta structure records on iteration 1, the emitted state deltas
//!   `ΔD_{j-1}` afterwards.
//!
//! Each iteration maps, shuffles, and reduces **only workset keys**: Map
//! tasks are scheduled only for partitions holding workset entries, Sort
//! tasks only for non-empty runs, MRBGraph point merges only for touched
//! shards ([`StoreManager::merge_apply_touched`], committed once at
//! end-of-run settle), and Reduce tasks only for partitions
//! with merge outcomes. The reduce outputs that survive the CPC judgment
//! become the next workset; an empty workset **is** the fixed point.
//!
//! The arithmetic — map/reduce invocation order, CPC judgment, state
//! application order — is kept *identical* to [`crate::incr_iter`], so the
//! two engines produce bit-identical state and byte-identical store
//! exports; only the scheduling differs. The equivalence suite in
//! `tests/` pins this down.
//!
//! # Update contract
//!
//! Specs declare how their updates compose via [`UpdateContract`]:
//!
//! * [`Monotonic`](UpdateContract::Monotonic) — reduce outputs only ever
//!   *improve* (move toward the fixed point along an improvement order,
//!   e.g. min-plus shortest paths). A key leaves the workset the moment its
//!   value stops improving; [`DeltaIterativeSpec::admissible`] is
//!   debug-asserted on every reduce output.
//! * [`Retractable`](UpdateContract::Retractable) — updates may replace a
//!   value in either direction (e.g. PageRank mass redistribution). The
//!   MRBGraph upsert path retracts a map instance's previous contribution
//!   (delete + insert of the same `(K2, MK)` edge) before the new one
//!   lands, so re-reduction always sees a consistent edge set.

use crate::checkpoint::IterCheckpointer;
use crate::cpc::{ChangePropagation, Verdict};
use crate::delta::{Delta, Op};
use crate::incr_iter::{apply_structure_delta, IncrParams, StepOutcome};
use crate::iter_engine::{PartitionedData, PartitionedIterEngine, RunReport};
use crate::iterative::{IterParams, IterationStats, IterativeSpec, PreserveMode};
use crate::trace::{add_stage, emit_checkpoint_restore, emit_checkpoint_save};
use crate::tuning::EngineTuner;
use i2mr_common::codec::{decode_exact, encode_to};
use i2mr_common::error::Result;
use i2mr_common::hash::MapKey;
use i2mr_common::metrics::{JobMetrics, Stage};
use i2mr_common::telemetry::TraceRecorder;
use i2mr_common::tuner::TuningDecision;
use i2mr_mapred::config::JobConfig;
use i2mr_mapred::fault::{TaskId, TaskKind};
use i2mr_mapred::partition::{HashPartitioner, Partitioner};
use i2mr_mapred::pool::{TaskSpec, WorkerPool};
use i2mr_mapred::shuffle::{groups, sort_runs_adaptive, transpose_pooled, RunPool, ShuffleBuffers};
use i2mr_mapred::types::{Emitter, Values};
use i2mr_store::merge::{DeltaChunk, DeltaEntry, MergeOutcome};
use i2mr_store::runtime::StoreManager;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// How a spec's reduce outputs compose across delta iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateContract {
    /// Updates only ever improve (min-plus shortest paths, reachability):
    /// an emitted value never needs to be retracted.
    Monotonic,
    /// Updates may move a value in either direction (PageRank): prior
    /// contributions are retracted through MRBGraph edge upserts.
    Retractable,
}

/// An [`IterativeSpec`] that additionally declares its update contract,
/// making it eligible for workset-driven delta iteration.
pub trait DeltaIterativeSpec: IterativeSpec {
    /// The contract this spec's updates obey.
    fn contract(&self) -> UpdateContract;

    /// Whether `candidate` is a legal successor of `prev` under the
    /// contract. Debug-asserted on every reduce output when the contract
    /// is [`UpdateContract::Monotonic`]; a violation means the workset
    /// scheduling assumptions don't hold and convergence is unspecified.
    fn admissible(&self, _candidate: &Self::DV, _prev: &Self::DV) -> bool {
        true
    }
}

/// Report of a delta-iteration run.
#[derive(Debug, Default)]
pub struct DeltaRunReport {
    /// Per-iteration progress (`changed_keys` = emitted workset entries).
    pub iterations: Vec<IterationStats>,
    /// Per-iteration engine metrics (workset counters included).
    pub per_iteration: Vec<JobMetrics>,
    /// Workset size entering each iteration (the Fig. 11a series measured
    /// at the scheduler, not post-hoc).
    pub worksets: Vec<u64>,
    /// Iteration after which MRBGraph maintenance was switched off by the
    /// P∆ monitor, if it was.
    pub mrbg_turned_off_at: Option<u64>,
    /// Whether the run converged (workset drained / fallback converged).
    pub converged: bool,
    /// Per-fence tuner decisions (empty when tuning is off; see
    /// [`crate::tuning::EngineTuner`]).
    pub tuning: Vec<TuningDecision>,
}

impl DeltaRunReport {
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
}

/// The workset-driven delta-iteration engine. See module docs.
pub struct DeltaIterEngine<'s, S: DeltaIterativeSpec> {
    spec: &'s S,
    config: JobConfig,
    params: IncrParams,
    /// Parameters for the full-iteration fallback after MRBG turn-off.
    fallback: IterParams,
    /// Recycler for delta shuffle runs across iterations.
    recycler: RunPool<S::DK, Option<S::V2>>,
    /// Optional online controller ticked at every iteration fence.
    tuner: Option<Arc<EngineTuner>>,
    /// Optional telemetry recorder (stage samples, checkpoint spans).
    recorder: Option<Arc<TraceRecorder>>,
}

impl<'s, S: DeltaIterativeSpec> DeltaIterEngine<'s, S> {
    /// Build an engine; `fallback` configures the plain iterative engine
    /// used after a P∆-triggered MRBG turn-off. Shares [`IncrParams`] with
    /// the incremental engine so a (full, delta) pair judges changes with
    /// identical thresholds.
    #[deprecated(note = "construct runs through i2mr_core::run::RunBuilder")]
    pub fn new(
        spec: &'s S,
        config: JobConfig,
        params: IncrParams,
        fallback: IterParams,
    ) -> Result<Self> {
        Self::assemble(spec, config, params, fallback)
    }

    /// The constructor behind both [`crate::run::RunBuilder`] and the
    /// deprecated [`Self::new`] shim.
    pub(crate) fn assemble(
        spec: &'s S,
        config: JobConfig,
        params: IncrParams,
        fallback: IterParams,
    ) -> Result<Self> {
        config.validate()?;
        if config.n_map != config.n_reduce {
            return Err(i2mr_common::error::Error::config(
                "delta-iteration engine requires n_map == n_reduce",
            ));
        }
        Ok(DeltaIterEngine {
            spec,
            config,
            params,
            fallback,
            recycler: RunPool::new(),
            tuner: None,
            recorder: None,
        })
    }

    /// Attach (or detach) the session's online tuner. Engines built through
    /// the deprecated direct constructors run untuned.
    pub(crate) fn with_tuner(mut self, tuner: Option<Arc<EngineTuner>>) -> Self {
        self.tuner = tuner;
        self
    }

    /// Attach (or detach) the session's telemetry recorder. Engines built
    /// through the deprecated direct constructors run untraced.
    pub(crate) fn with_recorder(mut self, recorder: Option<Arc<TraceRecorder>>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Fold any decisions the tuner accumulated into the report (called at
    /// every terminal return so no fence's decisions are dropped).
    fn collect_tuning(&self, report: &mut DeltaRunReport) {
        if let Some(t) = &self.tuner {
            report.tuning.extend(t.drain_decisions());
        }
    }

    /// Run a workset-driven incremental refresh.
    ///
    /// Same contract as [`crate::incr_iter::IncrIterEngine::run`]: `data`
    /// is the previous job's converged structure + state (mutated in place
    /// toward the new fixed point), `stores` holds the preserved MRBGraph,
    /// `delta` is the delta structure input, `ckpt` optionally checkpoints
    /// each iteration.
    pub fn run(
        &self,
        pool: &WorkerPool,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        stores: &StoreManager,
        delta: &Delta<S::SK, S::SV>,
        ckpt: Option<&IterCheckpointer>,
    ) -> Result<DeltaRunReport> {
        let n = self.config.n_reduce;
        let spec = self.spec;
        let mut report = DeltaRunReport::default();

        if !self.params.mrbg_enabled {
            apply_structure_delta(spec, n, data, delta);
            report.mrbg_turned_off_at = Some(0);
            let fb = self.run_fallback(pool, data, 0)?;
            merge_fallback(&mut report, fb);
            if let Some(ck) = ckpt {
                let t = Instant::now();
                let it = report.iterations.len() as u64;
                ck.save_iteration(it, &data.state, Some(stores))?;
                emit_checkpoint_save(self.recorder.as_ref(), it, t);
            }
            settle_store_plane(stores, &mut report)?;
            self.collect_tuning(&mut report);
            return Ok(report);
        }

        // The workset flowing between iterations (ΔD_j).
        let mut workset: Vec<(S::DK, S::DV)> = Vec::new();

        // Mid-run resume bookkeeping — same scheme as the incremental
        // engine: pristine entry data for replaying the (non-idempotent)
        // structure delta, an iteration-0 baseline, and a rewind budget.
        let pristine = ckpt.map(|_| data.clone());
        if let Some(ck) = ckpt {
            let t = Instant::now();
            ck.save_iteration(0, &data.state, Some(stores))?;
            ck.save_aux(0, &encode_to(&workset))?;
            emit_checkpoint_save(self.recorder.as_ref(), 0, t);
        }
        let mut recoveries_left = crate::checkpoint::MAX_RECOVERIES;
        let mut pending_recovery_ms = 0u64;

        let mut iteration = 1u64;
        while iteration <= self.params.max_iterations {
            let step = self.step(
                pool,
                data,
                stores,
                delta,
                &mut workset,
                iteration,
                ckpt,
                &mut report,
                &mut pending_recovery_ms,
            );
            match step {
                Ok(StepOutcome::Continue) => iteration += 1,
                Ok(StepOutcome::Converged) => {
                    report.converged = true;
                    settle_store_plane(stores, &mut report)?;
                    self.collect_tuning(&mut report);
                    return Ok(report);
                }
                Ok(StepOutcome::PdeltaExceeded) => {
                    report.mrbg_turned_off_at = Some(iteration);
                    let fb = self.run_fallback(pool, data, iteration)?;
                    merge_fallback(&mut report, fb);
                    settle_store_plane(stores, &mut report)?;
                    if let Some(ck) = ckpt {
                        let t = Instant::now();
                        let it = report.iterations.len() as u64;
                        ck.save_iteration(it, &data.state, Some(stores))?;
                        emit_checkpoint_save(self.recorder.as_ref(), it, t);
                    }
                    self.collect_tuning(&mut report);
                    return Ok(report);
                }
                Err(e) => {
                    let resume = match (ckpt, pristine.as_ref()) {
                        (Some(ck), Some(pristine)) if recoveries_left > 0 => ck
                            .latest_resumable(true)
                            .map(|latest| (ck, pristine, latest)),
                        _ => None,
                    };
                    let Some((ck, pristine, latest)) = resume else {
                        return Err(e);
                    };
                    recoveries_left -= 1;
                    let t = Instant::now();
                    *data = pristine.clone();
                    if latest >= 1 {
                        apply_structure_delta(spec, n, data, delta);
                    }
                    data.state = ck.load_state(latest)?;
                    for p in 0..stores.n_shards() {
                        let payload = ck.load_store_payload(latest, p)?;
                        stores.rebuild_shard(p, &payload)?;
                    }
                    workset = decode_exact(&ck.load_aux(latest)?)?;
                    let d = t.elapsed();
                    emit_checkpoint_restore(self.recorder.as_ref(), latest, d);
                    report.iterations.truncate(latest as usize);
                    report.per_iteration.truncate(latest as usize);
                    report.worksets.truncate(latest as usize);
                    pending_recovery_ms += (d.as_millis() as u64).max(1);
                    iteration = latest + 1;
                }
            }
        }
        settle_store_plane(stores, &mut report)?;
        self.collect_tuning(&mut report);
        Ok(report)
    }

    /// One workset iteration: map workset keys, shuffle, point-merge
    /// touched shards, reduce affected instances, checkpoint.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        pool: &WorkerPool,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        stores: &StoreManager,
        delta: &Delta<S::SK, S::SV>,
        workset: &mut Vec<(S::DK, S::DV)>,
        iteration: u64,
        ckpt: Option<&IterCheckpointer>,
        report: &mut DeltaRunReport,
        pending_recovery_ms: &mut u64,
    ) -> Result<StepOutcome> {
        let n = self.config.n_reduce;
        let spec = self.spec;
        {
            let started = Instant::now();
            let workset_len = if iteration == 1 {
                delta.records().len() as u64
            } else {
                workset.len() as u64
            };
            let mut metrics = JobMetrics {
                jobs_started: u64::from(iteration == 1),
                workset_keys: workset_len,
                delta_iterations: 1,
                ..Default::default()
            };

            // ---------------- workset Map ----------------
            // Map tasks are scheduled only for partitions that hold
            // workset entries; untouched partitions never enter the plane.
            let t = Instant::now();
            let (map_outputs, new_dks, map_invocations) = if iteration == 1 {
                self.map_structure_delta(pool, data, delta)?
            } else {
                self.map_state_delta(pool, data, std::mem::take(workset), iteration)?
            };
            metrics.map_invocations = map_invocations;
            add_stage(
                self.recorder.as_ref(),
                &mut metrics,
                Stage::Map,
                iteration,
                t.elapsed(),
            );

            // ---------------- shuffle + sort ----------------
            let t = Instant::now();
            let (mut runs, recs, bytes) = transpose_pooled(map_outputs, n, true, &self.recycler);
            metrics.shuffled_records = recs;
            metrics.shuffled_bytes = bytes;
            add_stage(
                self.recorder.as_ref(),
                &mut metrics,
                Stage::Shuffle,
                iteration,
                t.elapsed(),
            );

            let t = Instant::now();
            let inline_below = self.tuner.as_ref().map_or(0, |t| t.sort_inline_threshold());
            sort_runs_adaptive(pool, &mut runs, iteration, inline_below, true)?;
            add_stage(
                self.recorder.as_ref(),
                &mut metrics,
                Stage::Sort,
                iteration,
                t.elapsed(),
            );

            // ---------------- MRBGraph point merge ----------------
            // Only shards whose run (or new-key set) is non-empty get a
            // StoreMerge task; the commit is deferred shard-locally and
            // happens once at end-of-run settle.
            let t = Instant::now();
            let touched: Vec<usize> = (0..n)
                .filter(|&p| !runs[p].is_empty() || !new_dks[p].is_empty())
                .collect();
            let runs_ref = &runs;
            let new_dks_ref = &new_dks;
            let outcomes_per_p = stores.merge_apply_touched(iteration, &touched, |p| {
                let run: &[(S::DK, MapKey, Option<S::V2>)] = &runs_ref[p];
                let mut deltas: Vec<DeltaChunk> = Vec::new();
                let mut pending: Vec<&Vec<u8>> = new_dks_ref[p].iter().collect();
                for group in groups(run) {
                    let key = encode_to(&group[0].0);
                    if let Ok(i) = pending.binary_search_by(|k| k.as_slice().cmp(&key)) {
                        pending.remove(i);
                    }
                    let entries = group
                        .iter()
                        .map(|(_, mk, v)| match v {
                            Some(v2) => DeltaEntry::Insert(*mk, encode_to(v2)),
                            None => DeltaEntry::Delete(*mk),
                        })
                        .collect();
                    deltas.push(DeltaChunk { key, entries });
                }
                // Newly inserted state keys must be reduced even if no
                // edges arrived (a vertex with no in-edges still settles
                // to its no-input value).
                for key in pending {
                    deltas.push(DeltaChunk {
                        key: key.clone(),
                        entries: Vec::new(),
                    });
                }
                Ok(deltas)
            })?;

            // ---------------- workset Reduce ----------------
            // Reduce tasks only for partitions with merge outcomes; each
            // task's CPC verdicts decide the next workset. The inner loop
            // is arithmetic-identical to incr_iter's.
            let state_parts = &data.state;
            let effective_threshold = self.params.effective_threshold();
            let reduce_parts: Vec<usize> =
                (0..n).filter(|&p| !outcomes_per_p[p].is_empty()).collect();
            let outcome_cells = crate::incr_iter::outcome_cells(outcomes_per_p);
            let reduce_tasks: Vec<TaskSpec<'_, (Vec<(S::DK, S::DV)>, u64, u64)>> = reduce_parts
                .iter()
                .map(|&p| {
                    let cell = &outcome_cells[p];
                    let state = &state_parts[p];
                    TaskSpec::pinned(
                        TaskId {
                            kind: TaskKind::Reduce,
                            index: p,
                            iteration,
                        },
                        p % pool.n_workers(),
                        move |_| {
                            let mut cpc = ChangePropagation::with_threshold(effective_threshold);
                            let mut emitted: Vec<(S::DK, S::DV)> = Vec::new();
                            let mut invocations = 0u64;
                            let mut values: Vec<S::V2> = Vec::new();
                            let mut slot = cell.lock();
                            for (key_bytes, outcome) in crate::incr_iter::outcomes_in(&slot)? {
                                let dk: S::DK = decode_exact(key_bytes)?;
                                let Ok(idx) = state.binary_search_by(|(k, _)| k.cmp(&dk)) else {
                                    continue;
                                };
                                let prev = &state[idx].1;
                                values.clear();
                                if let MergeOutcome::Updated(chunk) = outcome {
                                    values.reserve(chunk.entries.len());
                                    for e in &chunk.entries {
                                        values.push(decode_exact(&e.value)?);
                                    }
                                }
                                let candidate = spec.reduce(&dk, prev, Values::slice(&values));
                                invocations += 1;
                                if spec.contract() == UpdateContract::Monotonic {
                                    debug_assert!(
                                        spec.admissible(&candidate, prev),
                                        "monotonic update contract violated"
                                    );
                                }
                                let acc_diff = spec.difference(&candidate, prev);
                                if cpc.judge(acc_diff) == Verdict::Emit {
                                    emitted.push((dk, candidate));
                                }
                            }
                            *slot = None;
                            Ok((emitted, invocations, cpc.filtered()))
                        },
                    )
                })
                .collect();
            let reduce_results = pool.run_tasks(reduce_tasks)?;
            add_stage(
                self.recorder.as_ref(),
                &mut metrics,
                Stage::Reduce,
                iteration,
                t.elapsed(),
            );
            self.recycler.recycle_all(runs);

            // Apply emitted updates in ascending partition order (task
            // order == reduce_parts order) and gather the next workset.
            let mut emitted_total = 0u64;
            let mut next_workset: Vec<(S::DK, S::DV)> = Vec::new();
            for (&p, (emitted, invocations, filtered)) in reduce_parts.iter().zip(reduce_results) {
                metrics.reduce_invocations += invocations;
                metrics.workset_skipped += filtered;
                emitted_total += emitted.len() as u64;
                let part = &mut data.state[p];
                for (dk, dv) in &emitted {
                    if let Ok(idx) = part.binary_search_by(|(k, _)| k.cmp(dk)) {
                        part[idx].1 = dv.clone();
                    }
                }
                next_workset.extend(emitted);
            }
            // Fault-recovery accounting (same as the incremental engine).
            let (retries, respeculations) = pool.drain_recovery();
            metrics.retries += retries;
            metrics.respeculations += respeculations;
            metrics.recovery_ms += std::mem::take(pending_recovery_ms);
            stores.drain_metrics(&mut metrics);
            if let Some(tuner) = &self.tuner {
                // Iteration fence: fold this iteration's signals into
                // bounded policy moves *before* scheduling, so an updated
                // per-shard policy shapes this fence's due-shard scan.
                tuner.tick(iteration, Some(stores), pool, n, &mut metrics);
            }

            report.iterations.push(IterationStats {
                iteration,
                max_diff: 0.0,
                changed_keys: emitted_total,
                wall: started.elapsed(),
            });
            report.worksets.push(workset_len);
            report.per_iteration.push(metrics);

            *workset = next_workset;
            if let Some(ck) = ckpt {
                let t = Instant::now();
                ck.save_iteration(iteration, &data.state, Some(stores))?;
                // Aux last: its presence seals the iteration as resumable.
                ck.save_aux(iteration, &encode_to(workset))?;
                emit_checkpoint_save(self.recorder.as_ref(), iteration, t);
            }

            stores.schedule_compactions(iteration)?;

            // Workset emptiness IS the fixed point.
            if emitted_total == 0 {
                return Ok(StepOutcome::Converged);
            }

            // ---------------- P∆ monitor (§5.2) ----------------
            let p_delta = emitted_total as f64 / data.state_len().max(1) as f64;
            if p_delta > self.params.pdelta_threshold {
                return Ok(StepOutcome::PdeltaExceeded);
            }

            Ok(StepOutcome::Continue)
        }
    }

    /// Iteration 1 map phase over the delta structure records. Identical
    /// arithmetic to the incremental engine's, but Map tasks are scheduled
    /// only for partitions holding delta records.
    #[allow(clippy::type_complexity)]
    fn map_structure_delta(
        &self,
        pool: &WorkerPool,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        delta: &Delta<S::SK, S::SV>,
    ) -> Result<(
        Vec<ShuffleBuffers<S::DK, Option<S::V2>>>,
        Vec<BTreeSet<Vec<u8>>>,
        u64,
    )> {
        let n = self.config.n_reduce;
        let spec = self.spec;

        let mut per_part: Vec<Vec<(S::DK, &crate::delta::DeltaRecord<S::SK, S::SV>)>> =
            (0..n).map(|_| Vec::new()).collect();
        for rec in delta.records() {
            let dk = spec.project(&rec.key);
            let p = HashPartitioner.partition(&dk, n);
            per_part[p].push((dk, rec));
        }

        let state_parts = &data.state;
        let recycler = &self.recycler;
        let map_tasks: Vec<TaskSpec<'_, (ShuffleBuffers<S::DK, Option<S::V2>>, u64)>> = per_part
            .iter()
            .enumerate()
            .filter(|(_, records)| !records.is_empty())
            .map(|(p, records)| {
                let records: &[(S::DK, &crate::delta::DeltaRecord<S::SK, S::SV>)] = records;
                let state = &state_parts[p];
                TaskSpec::pinned(
                    TaskId {
                        kind: TaskKind::Map,
                        index: p,
                        iteration: 1,
                    },
                    p % pool.n_workers(),
                    move |_| {
                        let mut buffers = ShuffleBuffers::with_pool(n, recycler);
                        let mut emitter = Emitter::new();
                        let mut invocations = 0u64;
                        for (dk, rec) in records {
                            let dv = state
                                .binary_search_by(|(k, _)| k.cmp(dk))
                                .ok()
                                .map(|i| state[i].1.clone())
                                .unwrap_or_else(|| spec.init(dk));
                            let mk = MapKey::for_structure(&encode_to(&rec.key));
                            spec.map(&rec.key, &rec.value, dk, &dv, &mut emitter);
                            invocations += 1;
                            for (k2, v2) in emitter.drain() {
                                let payload = match rec.op {
                                    Op::Insert => Some(v2),
                                    Op::Delete => None,
                                };
                                buffers.push(k2, mk, payload, &HashPartitioner);
                            }
                        }
                        Ok((buffers, invocations))
                    },
                )
            })
            .collect();
        let results = pool.run_tasks(map_tasks)?;
        let mut outputs = Vec::with_capacity(results.len());
        let mut invocations = 0u64;
        for (buffers, inv) in results {
            invocations += inv;
            outputs.push(buffers);
        }

        let new_dks = apply_structure_delta(spec, n, data, delta);
        Ok((outputs, new_dks, invocations))
    }

    /// Iteration j ≥ 2 map phase: re-run the map instances of structure
    /// records depending on workset keys. Map tasks only for partitions
    /// with workset entries.
    #[allow(clippy::type_complexity)]
    fn map_state_delta(
        &self,
        pool: &WorkerPool,
        data: &PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        workset: Vec<(S::DK, S::DV)>,
        iteration: u64,
    ) -> Result<(
        Vec<ShuffleBuffers<S::DK, Option<S::V2>>>,
        Vec<BTreeSet<Vec<u8>>>,
        u64,
    )> {
        let n = self.config.n_reduce;
        let spec = self.spec;

        let mut per_part: Vec<Vec<(S::DK, S::DV)>> = (0..n).map(|_| Vec::new()).collect();
        for (dk, dv) in workset {
            let p = HashPartitioner.partition(&dk, n);
            per_part[p].push((dk, dv));
        }

        let structure = &data.structure;
        let recycler = &self.recycler;
        let map_tasks: Vec<TaskSpec<'_, (ShuffleBuffers<S::DK, Option<S::V2>>, u64)>> = per_part
            .iter()
            .enumerate()
            .filter(|(_, changes)| !changes.is_empty())
            .map(|(p, changes)| {
                let changes: &[(S::DK, S::DV)] = changes;
                let groups = &structure[p];
                TaskSpec::pinned(
                    TaskId {
                        kind: TaskKind::Map,
                        index: p,
                        iteration,
                    },
                    p % pool.n_workers(),
                    move |_| {
                        let mut buffers = ShuffleBuffers::with_pool(n, recycler);
                        let mut emitter = Emitter::new();
                        let mut invocations = 0u64;
                        for (dk, dv) in changes {
                            let Ok(gi) = groups.binary_search_by(|g| g.dk.cmp(dk)) else {
                                continue; // workset key with no dependents
                            };
                            for (sk, sv) in &groups[gi].records {
                                let mk = MapKey::for_structure(&encode_to(sk));
                                spec.map(sk, sv, dk, dv, &mut emitter);
                                invocations += 1;
                                for (k2, v2) in emitter.drain() {
                                    buffers.push(k2, mk, Some(v2), &HashPartitioner);
                                }
                            }
                        }
                        Ok((buffers, invocations))
                    },
                )
            })
            .collect();
        let results = pool.run_tasks(map_tasks)?;
        let mut outputs = Vec::with_capacity(results.len());
        let mut invocations = 0u64;
        for (buffers, inv) in results {
            invocations += inv;
            outputs.push(buffers);
        }
        Ok((
            outputs,
            (0..n).map(|_| BTreeSet::new()).collect(),
            invocations,
        ))
    }

    /// Plain iterative processing from the current state (MRBG off).
    fn run_fallback(
        &self,
        pool: &WorkerPool,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        after_iteration: u64,
    ) -> Result<RunReport> {
        let remaining = self
            .params
            .max_iterations
            .saturating_sub(after_iteration)
            .max(1);
        let engine = PartitionedIterEngine::assemble(
            self.spec,
            self.config.clone(),
            IterParams {
                max_iterations: remaining,
                epsilon: self.fallback.epsilon,
                preserve: PreserveMode::None,
            },
        )?
        .with_tuner(self.tuner.clone())
        .with_recorder(self.recorder.clone());
        engine.run(pool, data, None)
    }
}

/// Settle the store plane at the end of a run: fence compactions, flush
/// deferred shard indexes, and fold trailing store counters into the last
/// iteration's metrics (or a fresh slot if none was recorded).
fn settle_store_plane(stores: &StoreManager, report: &mut DeltaRunReport) -> Result<()> {
    crate::run::settle_trailing(stores, &mut report.per_iteration)
}

/// Merge a fallback run's report into the delta report, renumbering
/// iterations to continue the sequence. Fallback iterations process the
/// full state, so their workset entries are the full state width — the
/// series honestly records that delta scheduling ended.
fn merge_fallback(report: &mut DeltaRunReport, fb: RunReport) {
    let offset = report.iterations.len() as u64;
    for (mut stats, metrics) in fb.iterations.into_iter().zip(fb.per_iteration) {
        stats.iteration += offset;
        report.iterations.push(stats);
        report.per_iteration.push(metrics);
    }
    report.tuning.extend(fb.tuning);
    report.converged = fb.converged;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incr_iter::{IncrIterEngine, IncrRunReport};
    use crate::iter_engine::build_partitioned;
    use crate::iterative::DependencyKind;

    /// PageRank-like spec (same arithmetic as incr_iter's test spec).
    struct MiniRank;

    impl IterativeSpec for MiniRank {
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

    impl DeltaIterativeSpec for MiniRank {
        fn contract(&self) -> UpdateContract {
            UpdateContract::Retractable
        }
    }

    const N: usize = 3;

    fn stores(pool: &WorkerPool, tag: &str) -> StoreManager {
        let dir = std::env::temp_dir().join(format!(
            "i2mr-delta-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        StoreManager::create(pool, &dir, N, Default::default()).unwrap()
    }

    fn converge_initial(
        graph: Vec<(u64, Vec<u64>)>,
        stores: &StoreManager,
        pool: &WorkerPool,
    ) -> PartitionedData<u64, Vec<u64>, u64, f64> {
        let engine = PartitionedIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IterParams {
                max_iterations: 200,
                epsilon: 1e-12,
                preserve: PreserveMode::FinalOnly,
            },
        )
        .unwrap();
        let mut data = build_partitioned(&MiniRank, N, graph);
        let report = engine.run(pool, &mut data, Some(stores)).unwrap();
        assert!(report.converged);
        data
    }

    fn ring_with_chords(n: u64) -> Vec<(u64, Vec<u64>)> {
        (0..n)
            .map(|i| {
                let mut out = vec![(i + 1) % n];
                if i % 3 == 0 {
                    out.push((i + 5) % n);
                }
                (i, out)
            })
            .collect()
    }

    fn incr_params() -> IncrParams {
        IncrParams {
            max_iterations: 400,
            ..Default::default()
        }
    }

    /// Run the same refresh through both engines on independent stores and
    /// return (incr report, delta report) with both states / exports
    /// asserted bit-identical.
    fn run_both(
        graph: Vec<(u64, Vec<u64>)>,
        delta: &Delta<u64, Vec<u64>>,
        params: IncrParams,
        tag: &str,
    ) -> (IncrRunReport, DeltaRunReport) {
        let pool = WorkerPool::new(N);
        let st_full = stores(&pool, &format!("{tag}-full"));
        let mut data_full = converge_initial(graph.clone(), &st_full, &pool);
        let st_delta = stores(&pool, &format!("{tag}-delta"));
        let mut data_delta = converge_initial(graph, &st_delta, &pool);

        let full = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            params,
            IterParams::default(),
        )
        .unwrap();
        let full_rep = full
            .run(&pool, &mut data_full, &st_full, delta, None)
            .unwrap();

        let engine = DeltaIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            params,
            IterParams::default(),
        )
        .unwrap();
        let delta_rep = engine
            .run(&pool, &mut data_delta, &st_delta, delta, None)
            .unwrap();

        // Bit-identical state (f64 equality, not tolerance).
        assert_eq!(data_full.state, data_delta.state, "state diverged");
        // Byte-identical preserved MRBGraph per shard.
        for p in 0..N {
            assert_eq!(
                st_full.export(p).unwrap(),
                st_delta.export(p).unwrap(),
                "shard {p} export diverged"
            );
        }
        (full_rep, delta_rep)
    }

    #[test]
    fn matches_incremental_engine_bitwise_on_edge_update() {
        let graph = ring_with_chords(40);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[7].1.clone();
        let mut new = old.clone();
        new.push(20);
        delta.update(7, old, new);

        let (full_rep, delta_rep) = run_both(graph, &delta, incr_params(), "edge");
        assert!(full_rep.converged && delta_rep.converged);
        assert_eq!(
            full_rep
                .iterations
                .iter()
                .map(|i| i.changed_keys)
                .collect::<Vec<_>>(),
            delta_rep
                .iterations
                .iter()
                .map(|i| i.changed_keys)
                .collect::<Vec<_>>(),
            "propagation series diverged"
        );
    }

    #[test]
    fn matches_incremental_engine_bitwise_on_vertex_churn() {
        let graph = ring_with_chords(30);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        delta.insert(100, vec![3]);
        delta.delete(11, graph[11].1.clone());

        let (full_rep, delta_rep) = run_both(graph, &delta, incr_params(), "vtx");
        assert!(full_rep.converged && delta_rep.converged);
    }

    #[test]
    fn matches_incremental_engine_with_cpc_threshold() {
        let graph = ring_with_chords(60);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[0].1.clone();
        delta.update(0, old, vec![30]);

        let params = IncrParams {
            filter_threshold: Some(0.001),
            max_iterations: 200,
            ..Default::default()
        };
        let (_, delta_rep) = run_both(graph, &delta, params, "cpc");
        // CPC verdicts below threshold are the pruned workset entries.
        let total = delta_rep.total_metrics();
        assert!(
            total.workset_skipped > 0,
            "threshold 0.001 must prune something"
        );
    }

    #[test]
    fn matches_incremental_engine_through_pdelta_fallback() {
        let graph = ring_with_chords(20);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        for i in 0..14u64 {
            let old = graph[i as usize].1.clone();
            delta.update(i, old, vec![(i + 9) % 20]);
        }

        let params = IncrParams {
            max_iterations: 300,
            ..Default::default()
        };
        let (full_rep, delta_rep) = run_both(graph, &delta, params, "pdelta");
        assert_eq!(
            full_rep.mrbg_turned_off_at, delta_rep.mrbg_turned_off_at,
            "P∆ must trigger identically"
        );
        assert!(delta_rep.mrbg_turned_off_at.is_some());
    }

    #[test]
    fn empty_workset_is_the_fixed_point() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(15);
        let st = stores(&pool, "empty");
        let mut data = converge_initial(graph, &st, &pool);
        let before = data.state_snapshot();

        let engine = DeltaIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams::default(),
            IterParams::default(),
        )
        .unwrap();
        let delta: Delta<u64, Vec<u64>> = Delta::new();
        let report = engine.run(&pool, &mut data, &st, &delta, None).unwrap();
        assert!(report.converged);
        assert_eq!(report.iterations.len(), 1, "one probing iteration");
        assert_eq!(report.worksets, vec![0]);
        let total = report.total_metrics();
        assert_eq!(total.workset_keys, 0);
        assert_eq!(total.delta_iterations, 1);
        assert_eq!(data.state_snapshot(), before);
    }

    #[test]
    fn workset_metrics_track_keys_processed() {
        let graph = ring_with_chords(90);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[7].1.clone();
        let mut new = old.clone();
        new.push(40);
        delta.update(7, old, new);

        let (_, delta_rep) = run_both(graph, &delta, incr_params(), "metrics");
        let total = delta_rep.total_metrics();
        assert_eq!(total.delta_iterations, delta_rep.iterations.len() as u64);
        assert_eq!(
            delta_rep.worksets.iter().sum::<u64>(),
            total.workset_keys,
            "workset series and counter must agree"
        );
        // Low churn: the workset — not the state width — drives reduce
        // work. Each workset key touches a handful of dependents (ring +
        // chord out-degree ≤ 2), so keys processed stays within a small
        // factor of the summed workset, far below full-width re-reduction.
        assert!(
            total.reduce_invocations <= 4 * total.workset_keys.max(1),
            "reduce invocations {} not workset-bound (workset {})",
            total.reduce_invocations,
            total.workset_keys
        );
        // Exact propagation keeps a decaying wavefront circulating, so
        // the per-iteration workset is the wavefront (~a third of this
        // small ring), not the state width.
        let full_width = 90 * delta_rep.iterations.len() as u64;
        assert!(
            total.reduce_invocations < full_width / 2,
            "reduce invocations {} ~ full width {}",
            total.reduce_invocations,
            full_width
        );
    }

    #[test]
    fn store_merge_faults_during_workset_merges_recover_via_reschedule() {
        use i2mr_common::failpoint::{FailAction, FailSite, FailpointRegistry};
        use std::sync::Arc;

        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(40);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[7].1.clone();
        let mut new = old.clone();
        new.push(20);
        delta.update(7, old, new);

        let engine = DeltaIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            incr_params(),
            IterParams::default(),
        )
        .unwrap();

        // Fault-free reference.
        let st_ref = stores(&pool, "mergefault-ref");
        let mut data_ref = converge_initial(graph.clone(), &st_ref, &pool);
        assert!(
            engine
                .run(&pool, &mut data_ref, &st_ref, &delta, None)
                .unwrap()
                .converged
        );

        // Faulted run: the workset-scoped StoreMerge tasks die on their
        // first attempts; the executor reschedules them cross-worker. The
        // failpoint fires *before* the shard lock, so the deferred-index
        // merge path sees each delta exactly once and the end-of-run
        // settle persists a consistent index.
        let mut st = stores(&pool, "mergefault");
        let mut data = converge_initial(graph, &st, &pool);
        let fp = Arc::new(FailpointRegistry::seeded(9, 2).arm(
            FailSite::StoreAppend,
            1.0,
            FailAction::Error,
        ));
        st.set_failpoints(Arc::clone(&fp));
        let report = engine.run(&pool, &mut data, &st, &delta, None).unwrap();
        assert!(report.converged);
        assert_eq!(fp.fired(), 2, "both budgeted merge faults must fire");
        assert!(
            report.total_metrics().retries >= 1,
            "rescheduled merge attempts must be accounted"
        );

        // Bit-identical state, byte-identical shards after settle — the
        // rescheduled merges neither lost nor double-applied deltas.
        assert_eq!(data_ref.state, data.state);
        for p in 0..N {
            assert_eq!(st_ref.export(p).unwrap(), st.export(p).unwrap());
        }
    }

    #[test]
    fn resumes_mid_run_after_worker_faults_bit_identical() {
        use i2mr_common::failpoint::{FailAction, FailSite, FailpointRegistry};
        use i2mr_mapred::pool::PoolConfig;
        use i2mr_store::store::MrbgStore;
        use std::sync::Arc;

        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(30);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        delta.insert(100, vec![3]);
        delta.delete(11, graph[11].1.clone());

        let engine = DeltaIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            incr_params(),
            IterParams::default(),
        )
        .unwrap();

        let st_ref = stores(&pool, "dresume-ref");
        let mut data_ref = converge_initial(graph.clone(), &st_ref, &pool);
        assert!(
            engine
                .run(&pool, &mut data_ref, &st_ref, &delta, None)
                .unwrap()
                .converged
        );

        let st_seed = stores(&pool, "dresume-seed");
        let mut data = converge_initial(graph.clone(), &st_seed, &pool);
        let payloads: Vec<Vec<u8>> = (0..N).map(|p| st_seed.export(p).unwrap()).collect();
        drop(st_seed);

        let fp = Arc::new(FailpointRegistry::seeded(33, 3).arm(
            FailSite::TaskRun,
            1.0,
            FailAction::Error,
        ));
        let faulty = WorkerPool::with_config(PoolConfig {
            max_attempts: 1,
            failpoints: Arc::clone(&fp),
            ..PoolConfig::new(N)
        });
        let dir = std::env::temp_dir().join(format!(
            "i2mr-delta-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let shards = payloads
            .iter()
            .enumerate()
            .map(|(p, payload)| {
                MrbgStore::import(dir.join(format!("shard-{p}")), payload, Default::default())
                    .unwrap()
            })
            .collect();
        let st = StoreManager::from_stores(&faulty, shards, Default::default()).unwrap();
        let dfs = i2mr_dfs::MiniDfs::open_with(dir.join("dfs"), 1 << 20, 2).unwrap();
        let ck = IterCheckpointer::new(&dfs, "dresume", N);

        let report = engine
            .run(&faulty, &mut data, &st, &delta, Some(&ck))
            .unwrap();
        assert!(report.converged);
        assert!(fp.fired() >= 1);
        let total = report.total_metrics();
        assert!(total.recovery_ms > 0);
        assert_eq!(data_ref.state, data.state);
        for p in 0..N {
            assert_eq!(st_ref.export(p).unwrap(), st.export(p).unwrap());
        }
    }

    #[test]
    fn mrbg_disabled_up_front_falls_back() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(20);
        let st = stores(&pool, "nomrbg");
        let mut data = converge_initial(graph.clone(), &st, &pool);

        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[4].1.clone();
        delta.update(4, old, vec![9]);

        let engine = DeltaIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams {
                mrbg_enabled: false,
                max_iterations: 300,
                ..Default::default()
            },
            IterParams {
                epsilon: 1e-12,
                ..Default::default()
            },
        )
        .unwrap();
        let report = engine.run(&pool, &mut data, &st, &delta, None).unwrap();
        assert_eq!(report.mrbg_turned_off_at, Some(0));
        assert!(report.converged);
        assert!(report.worksets.is_empty(), "no delta iterations ran");
    }
}
