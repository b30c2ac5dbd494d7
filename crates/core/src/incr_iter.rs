//! Incremental iterative processing (paper §5).
//!
//! A sequence of jobs `A_1 … A_i` refreshes an iterative mining result as
//! the structure data evolves. Job `A_i` starts from job `A_{i-1}`'s
//! **converged state** `D_{i-1}` and **converged MRBGraph** (both much
//! closer to the new fixed point than a fresh initialization), then runs
//! incremental one-step iterations:
//!
//! * **Iteration 1** — the delta input is the *delta structure data*:
//!   deleted records cancel their MRBGraph edges via tombstones, inserted
//!   records add edges; only affected Reduce instances re-run.
//! * **Iteration j ≥ 2** — the delta input is the *delta state data*
//!   `ΔD_{j-1}`: for each changed state key, the map instances of its
//!   dependent structure records re-run and upsert their edges.
//!
//! Two §5 mechanisms bound the work:
//!
//! * **Change propagation control** (§5.3, [`crate::cpc`]): recomputed state
//!   values whose accumulated change is below the filter threshold are not
//!   emitted; asymmetric convergence makes most keys settle in a few hops.
//! * **P∆ monitoring** (§5.2): when the delta state covers more than
//!   `pdelta_threshold` (default 50 %) of all state kv-pairs, maintaining
//!   the MRBGraph costs more than it saves; the engine turns it off and
//!   finishes with plain iterative processing from the current state.

use crate::checkpoint::IterCheckpointer;
use crate::cpc::{ChangePropagation, Verdict};
use crate::delta::{Delta, Op};
use crate::iter_engine::{PartitionedData, PartitionedIterEngine, RunReport, StructGroup};
use crate::iterative::{IterParams, IterationStats, IterativeSpec, PreserveMode};
use crate::trace::{add_stage, emit_checkpoint_restore, emit_checkpoint_save};
use crate::tuning::EngineTuner;
use i2mr_common::codec::{decode_exact, encode_to};
use i2mr_common::error::{Error, Result};
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
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Knobs of an incremental iterative run.
#[derive(Clone, Copy, Debug)]
pub struct IncrParams {
    /// CPC filter threshold (paper: `job.setFilterThresh`); `None` = CPC
    /// disabled ("w/o CPC"): every change above the numerical
    /// `convergence_epsilon` propagates.
    pub filter_threshold: Option<f64>,
    /// Numerical convergence floor. Floating-point fixed points are only
    /// ever approached, so even "exact" propagation needs an epsilon below
    /// which a change counts as converged rather than propagatable.
    pub convergence_epsilon: f64,
    /// Turn MRBGraph maintenance off when `|ΔD| / |D|` exceeds this
    /// (paper default 50 %).
    pub pdelta_threshold: f64,
    /// Iteration budget.
    pub max_iterations: u64,
    /// Whether MRBGraph maintenance starts enabled (the user may turn it
    /// off a priori for Kmeans-like computations, §5.2).
    pub mrbg_enabled: bool,
}

impl Default for IncrParams {
    fn default() -> Self {
        IncrParams {
            filter_threshold: None,
            convergence_epsilon: 1e-9,
            pdelta_threshold: 0.5,
            max_iterations: 50,
            mrbg_enabled: true,
        }
    }
}

impl IncrParams {
    /// The threshold CPC actually applies: the filter threshold when set,
    /// otherwise the numerical convergence floor.
    pub fn effective_threshold(&self) -> f64 {
        self.filter_threshold.unwrap_or(self.convergence_epsilon)
    }
}

/// What one incremental iteration decided about the run's control flow.
pub(crate) enum StepOutcome {
    /// Changes propagated and P∆ stayed small: keep iterating.
    Continue,
    /// No changes propagated: the refresh reached its fixed point.
    Converged,
    /// P∆ blew past the threshold: switch to the full-iteration fallback.
    PdeltaExceeded,
}

/// Report of an incremental iterative run.
#[derive(Debug, Default)]
pub struct IncrRunReport {
    /// Per-iteration progress (`changed_keys` = propagated kv-pairs, the
    /// Fig. 11a series).
    pub iterations: Vec<IterationStats>,
    /// Per-iteration engine metrics.
    pub per_iteration: Vec<JobMetrics>,
    /// Iteration after which MRBGraph maintenance was switched off by the
    /// P∆ monitor, if it was.
    pub mrbg_turned_off_at: Option<u64>,
    /// Whether the run converged (no propagated changes / epsilon reached).
    pub converged: bool,
    /// Per-fence tuner decisions (empty when tuning is off; see
    /// [`crate::tuning::EngineTuner`]).
    pub tuning: Vec<TuningDecision>,
}

impl IncrRunReport {
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

/// The incremental iterative engine. See module docs.
pub struct IncrIterEngine<'s, S: IterativeSpec> {
    spec: &'s S,
    config: JobConfig,
    params: IncrParams,
    /// Parameters for the full-iteration fallback after MRBG turn-off.
    fallback: IterParams,
    /// Recycler for delta shuffle runs across incremental iterations.
    recycler: RunPool<S::DK, Option<S::V2>>,
    /// Optional online controller ticked at every iteration fence.
    tuner: Option<Arc<EngineTuner>>,
    /// Optional telemetry recorder (stage samples, checkpoint spans).
    recorder: Option<Arc<TraceRecorder>>,
}

impl<'s, S: IterativeSpec> IncrIterEngine<'s, S> {
    /// Build an engine; `fallback` configures the plain iterative engine
    /// used after a P∆-triggered MRBG turn-off.
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
            return Err(Error::config(
                "incremental iterative engine requires n_map == n_reduce",
            ));
        }
        Ok(IncrIterEngine {
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
    fn collect_tuning(&self, report: &mut IncrRunReport) {
        if let Some(t) = &self.tuner {
            report.tuning.extend(t.drain_decisions());
        }
    }

    /// Run an incremental refresh.
    ///
    /// * `data` — the previous job's converged structure + state (mutated
    ///   in place toward the new fixed point).
    /// * `stores` — the store runtime holding the preserved MRBGraph, one
    ///   shard per partition.
    /// * `delta` — the delta structure input.
    /// * `ckpt` — optional per-iteration checkpointing (paper §6.1).
    pub fn run(
        &self,
        pool: &WorkerPool,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        stores: &StoreManager,
        delta: &Delta<S::SK, S::SV>,
        ckpt: Option<&IterCheckpointer>,
    ) -> Result<IncrRunReport> {
        let n = self.config.n_reduce;
        let spec = self.spec;
        let mut report = IncrRunReport::default();

        if !self.params.mrbg_enabled {
            // User declared MRBG maintenance wasteful (Kmeans-like): apply
            // the delta and re-iterate from the converged state.
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

        // Delta state flowing between iterations (ΔD_j).
        let mut delta_state: Vec<(S::DK, S::DV)> = Vec::new();

        // Mid-run resume bookkeeping (paper §6.1 / Fig. 13).
        // `apply_structure_delta` is not idempotent, so a rewind restores a
        // pristine copy of the entry data and replays the delta when the
        // resume point is past iteration 1.
        let pristine = ckpt.map(|_| data.clone());
        if let Some(ck) = ckpt {
            // Iteration-0 baseline: a fault during iteration 1 rewinds
            // here. Written before any mutation, so a baseline failure
            // leaves the caller's data untouched and the run retryable.
            let t = Instant::now();
            ck.save_iteration(0, &data.state, Some(stores))?;
            ck.save_aux(0, &encode_to(&delta_state))?;
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
                &mut delta_state,
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
                    // Settle first so the final checkpoint export below does
                    // not queue behind still-running compactions.
                    settle_store_plane(stores, &mut report)?;
                    // The fallback iterations mutated the state without
                    // checkpointing; persist the final state so recovery
                    // sees the completed refresh (paper §6.1).
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
                    // A worker-loss / store / checkpoint fault escaped the
                    // pool's own retries. Rewind to the last complete
                    // checkpoint and resume from there.
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
                    delta_state = decode_exact(&ck.load_aux(latest)?)?;
                    let d = t.elapsed();
                    emit_checkpoint_restore(self.recorder.as_ref(), latest, d);
                    report.iterations.truncate(latest as usize);
                    report.per_iteration.truncate(latest as usize);
                    pending_recovery_ms += (d.as_millis() as u64).max(1);
                    iteration = latest + 1;
                }
            }
        }
        settle_store_plane(stores, &mut report)?;
        self.collect_tuning(&mut report);
        Ok(report)
    }

    /// One incremental iteration: map the delta, shuffle, merge the delta
    /// MRBGraph, reduce affected instances, apply updates, checkpoint.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        pool: &WorkerPool,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        stores: &StoreManager,
        delta: &Delta<S::SK, S::SV>,
        delta_state: &mut Vec<(S::DK, S::DV)>,
        iteration: u64,
        ckpt: Option<&IterCheckpointer>,
        report: &mut IncrRunReport,
        pending_recovery_ms: &mut u64,
    ) -> Result<StepOutcome> {
        let n = self.config.n_reduce;
        let spec = self.spec;
        {
            let started = Instant::now();
            let mut metrics = JobMetrics {
                jobs_started: u64::from(iteration == 1),
                ..Default::default()
            };

            // ---------------- incremental Map ----------------
            let t = Instant::now();
            let (map_outputs, new_dks, map_invocations) = if iteration == 1 {
                self.map_structure_delta(pool, data, delta)?
            } else {
                self.map_state_delta(pool, data, std::mem::take(delta_state), iteration)?
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
            sort_runs_adaptive(pool, &mut runs, iteration, inline_below, false)?;
            add_stage(
                self.recorder.as_ref(),
                &mut metrics,
                Stage::Sort,
                iteration,
                t.elapsed(),
            );

            // ---------------- MRBGraph merge (store plane) ----------------
            // Each partition's delta merge runs as a first-class StoreMerge
            // task on the store runtime, fully overlapped across shards and
            // decoupled from the Reduce compute below.
            let t = Instant::now();
            let runs_ref = &runs;
            let new_dks_ref = &new_dks;
            let outcomes_per_p = stores.merge_apply_all(iteration, |p| {
                let run: &[(S::DK, MapKey, Option<S::V2>)] = &runs_ref[p];
                // Delta MRBGraph chunks for this partition. The changed-key
                // map is the borrowed `pending` list (newly inserted state
                // keys not yet seen in the run), checked off in place — the
                // old shape cloned every group's encoded key into a `seen`
                // set even on iterations whose new-key set was empty.
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
                // edges arrived (e.g. a vertex with no in-edges must still
                // settle to its no-input value).
                for key in pending {
                    deltas.push(DeltaChunk {
                        key: key.clone(),
                        entries: Vec::new(),
                    });
                }
                Ok(deltas)
            })?;

            // ---------------- incremental Reduce ----------------
            let state_parts = &data.state;
            let effective_threshold = self.params.effective_threshold();
            let outcome_cells = outcome_cells(outcomes_per_p);
            let reduce_tasks: Vec<TaskSpec<'_, (Vec<(S::DK, S::DV)>, u64)>> = outcome_cells
                .iter()
                .enumerate()
                .map(|(p, cell)| {
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
                            // The merged chunk owns freshly decoded values,
                            // so this path borrows them as a plain slice;
                            // `values` is reused across groups.
                            let mut slot = cell.lock();
                            for (key_bytes, outcome) in outcomes_in(&slot)? {
                                let dk: S::DK = decode_exact(key_bytes)?;
                                // Deleted vertices / dangling targets have no
                                // state entry: their chunk was maintained but
                                // no state update applies.
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
                                let acc_diff = spec.difference(&candidate, prev);
                                if cpc.judge(acc_diff) == Verdict::Emit {
                                    emitted.push((dk, candidate));
                                }
                            }
                            *slot = None;
                            Ok((emitted, invocations))
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

            // Apply emitted updates to the state (reduce task p's output is
            // partition p's state — co-location) and gather ΔD_{j}.
            let mut emitted_total = 0u64;
            let mut next_delta: Vec<(S::DK, S::DV)> = Vec::new();
            for (p, (emitted, invocations)) in reduce_results.into_iter().enumerate() {
                metrics.reduce_invocations += invocations;
                emitted_total += emitted.len() as u64;
                let part = &mut data.state[p];
                for (dk, dv) in &emitted {
                    if let Ok(idx) = part.binary_search_by(|(k, _)| k.cmp(dk)) {
                        part[idx].1 = dv.clone();
                    }
                }
                next_delta.extend(emitted);
            }
            // Fault-recovery accounting: pool-level retries / speculative
            // re-executions since the last drain, plus the rewind cost of
            // any recovery that led into this iteration.
            let (retries, respeculations) = pool.drain_recovery();
            metrics.retries += retries;
            metrics.respeculations += respeculations;
            metrics.recovery_ms += std::mem::take(pending_recovery_ms);
            // Fold the store plane's I/O and compaction counters into this
            // iteration's metrics, and checkpoint, *before* scheduling
            // background compactions: both take shard write locks and
            // would otherwise stall behind the compactions they are meant
            // to overlap with.
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
            report.per_iteration.push(metrics);

            *delta_state = next_delta;
            if let Some(ck) = ckpt {
                let t = Instant::now();
                ck.save_iteration(iteration, &data.state, Some(stores))?;
                // Aux last: its presence seals the iteration as resumable.
                ck.save_aux(iteration, &encode_to(delta_state))?;
                emit_checkpoint_save(self.recorder.as_ref(), iteration, t);
            }

            // End of iteration: schedule policy-driven compaction of
            // garbage-heavy shards as detached background work — it
            // overlaps the next iteration's map phase and is fenced
            // before the next merge.
            stores.schedule_compactions(iteration)?;

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

    /// Iteration 1 map phase: run Map over the delta structure records
    /// against the pre-delta state, then apply the delta to the partitioned
    /// data. Returns shuffle buffers, per-partition newly created state
    /// keys, and the number of map invocations.
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

        // Partition delta records by hash(project(SK)).
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

    /// Iteration j ≥ 2 map phase: re-run the map instances of the structure
    /// records that depend on the changed state keys; all outputs are edge
    /// upserts.
    #[allow(clippy::type_complexity)]
    fn map_state_delta(
        &self,
        pool: &WorkerPool,
        data: &PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        delta_state: Vec<(S::DK, S::DV)>,
        iteration: u64,
    ) -> Result<(
        Vec<ShuffleBuffers<S::DK, Option<S::V2>>>,
        Vec<BTreeSet<Vec<u8>>>,
        u64,
    )> {
        let n = self.config.n_reduce;
        let spec = self.spec;

        let mut per_part: Vec<Vec<(S::DK, S::DV)>> = (0..n).map(|_| Vec::new()).collect();
        for (dk, dv) in delta_state {
            let p = HashPartitioner.partition(&dk, n);
            per_part[p].push((dk, dv));
        }

        let structure = &data.structure;
        let recycler = &self.recycler;
        let map_tasks: Vec<TaskSpec<'_, (ShuffleBuffers<S::DK, Option<S::V2>>, u64)>> = per_part
            .iter()
            .enumerate()
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
                                continue; // state key with no dependents
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

/// Settle the store plane at the end of an incremental run: fence any
/// compactions still overlapping and fold the trailing store counters into
/// the last iteration's metrics, so per-run totals are complete.
///
/// Even with no recorded iterations the end-of-run fence may retire
/// compactions whose counters a bare `fence_compactions` would leave to be
/// silently dropped by the manager's destructor — settle into a fresh slot
/// instead and keep it if it carries anything.
fn settle_store_plane(stores: &StoreManager, report: &mut IncrRunReport) -> Result<()> {
    crate::run::settle_trailing(stores, &mut report.per_iteration)
}

/// One partition's merge outcomes, handed to its Reduce task through a
/// one-shot cell.
pub(crate) type OutcomeCell = Mutex<Option<Vec<(Vec<u8>, MergeOutcome)>>>;

/// Wrap each partition's merge outcomes for its Reduce task. The merged
/// chunks are the largest per-iteration allocation (every value of every
/// re-reduced instance); freed by the driver they cost a serial pass over
/// millions of small allocations *after* the stage timers stopped. Each
/// Reduce task instead empties its own cell as its last act, so the
/// partitions are freed on the workers, in parallel, inside the Reduce
/// stage's wall time.
pub(crate) fn outcome_cells(per_p: Vec<Vec<(Vec<u8>, MergeOutcome)>>) -> Vec<OutcomeCell> {
    per_p.into_iter().map(|o| Mutex::new(Some(o))).collect()
}

/// The outcomes a Reduce attempt works on. The cell is emptied only by an
/// attempt that *succeeded*, so a retry after a failed attempt still finds
/// them; an empty cell means a duplicate attempt ran after the winner.
pub(crate) fn outcomes_in(
    slot: &Option<Vec<(Vec<u8>, MergeOutcome)>>,
) -> Result<&[(Vec<u8>, MergeOutcome)]> {
    slot.as_deref()
        .ok_or_else(|| Error::corrupt("merge outcomes consumed by an earlier reduce attempt"))
}

/// Merge a fallback run's report into the incremental report, renumbering
/// iterations to continue the sequence.
fn merge_fallback(report: &mut IncrRunReport, fb: RunReport) {
    let offset = report.iterations.len() as u64;
    for (mut stats, metrics) in fb.iterations.into_iter().zip(fb.per_iteration) {
        stats.iteration += offset;
        report.iterations.push(stats);
        report.per_iteration.push(metrics);
    }
    report.tuning.extend(fb.tuning);
    report.converged = fb.converged;
}

/// Apply a structure delta to partitioned data, maintaining the invariants
/// (grouping, sorting, state/structure key alignment). Returns the encoded
/// DKs of newly created state keys, per partition.
pub fn apply_structure_delta<S: IterativeSpec>(
    spec: &S,
    n: usize,
    data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
    delta: &Delta<S::SK, S::SV>,
) -> Vec<BTreeSet<Vec<u8>>> {
    let mut new_dks: Vec<BTreeSet<Vec<u8>>> = (0..n).map(|_| BTreeSet::new()).collect();
    for rec in delta.records() {
        let dk = spec.project(&rec.key);
        let p = HashPartitioner.partition(&dk, n);
        let groups = &mut data.structure[p];
        let state = &mut data.state[p];
        match rec.op {
            Op::Insert => match groups.binary_search_by(|g| g.dk.cmp(&dk)) {
                Ok(gi) => {
                    let records = &mut groups[gi].records;
                    let pos = records
                        .binary_search_by(|(sk, _)| sk.cmp(&rec.key))
                        .unwrap_or_else(|e| e);
                    records.insert(pos, (rec.key.clone(), rec.value.clone()));
                }
                Err(gi) => {
                    groups.insert(
                        gi,
                        StructGroup {
                            dk: dk.clone(),
                            records: vec![(rec.key.clone(), rec.value.clone())],
                        },
                    );
                    let si = state
                        .binary_search_by(|(k, _)| k.cmp(&dk))
                        .unwrap_or_else(|e| e);
                    state.insert(si, (dk.clone(), spec.init(&dk)));
                    new_dks[p].insert(encode_to(&dk));
                }
            },
            Op::Delete => {
                if let Ok(gi) = groups.binary_search_by(|g| g.dk.cmp(&dk)) {
                    let records = &mut groups[gi].records;
                    if let Some(pos) = records
                        .iter()
                        .position(|(sk, sv)| *sk == rec.key && format_eq(sv, &rec.value))
                    {
                        records.remove(pos);
                    }
                    if records.is_empty() {
                        groups.remove(gi);
                        if let Ok(si) = state.binary_search_by(|(k, _)| k.cmp(&dk)) {
                            state.remove(si);
                        }
                        new_dks[p].remove(&encode_to(&dk));
                    }
                }
            }
        }
    }
    new_dks
}

/// Value equality via canonical encoding (SV: ValueData has no PartialEq
/// bound; the canonical byte encoding is the identity that matters).
fn format_eq<V: i2mr_common::codec::Codec>(a: &V, b: &V) -> bool {
    encode_to(a) == encode_to(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter_engine::build_partitioned;
    use crate::iterative::DependencyKind;

    /// PageRank-like spec used across incremental tests.
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

    const N: usize = 3;

    fn stores(pool: &WorkerPool, tag: &str) -> StoreManager {
        let dir = std::env::temp_dir().join(format!(
            "i2mr-incr-{tag}-{}-{:?}",
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

    /// Oracle: converge from scratch on the updated graph.
    fn oracle(graph: Vec<(u64, Vec<u64>)>, pool: &WorkerPool) -> Vec<(u64, f64)> {
        let engine = PartitionedIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IterParams {
                max_iterations: 300,
                epsilon: 1e-12,
                preserve: PreserveMode::None,
            },
        )
        .unwrap();
        let mut data = build_partitioned(&MiniRank, N, graph);
        assert!(engine.run(pool, &mut data, None).unwrap().converged);
        data.state_snapshot()
    }

    fn assert_states_close(a: &[(u64, f64)], b: &[(u64, f64)], tol: f64) {
        assert_eq!(
            a.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            b.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            "key sets differ"
        );
        for ((k, va), (_, vb)) in a.iter().zip(b) {
            assert!((va - vb).abs() < tol, "key {k}: {va} vs {vb}");
        }
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

    #[test]
    fn incremental_matches_recompute_after_edge_insertions() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(40);
        let st = stores(&pool, "ins");
        let mut data = converge_initial(graph.clone(), &st, &pool);

        // Insert a chord on vertex 7: update its record.
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[7].1.clone();
        let mut new = old.clone();
        new.push(20);
        delta.update(7, old, new.clone());

        let engine = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams {
                max_iterations: 400,
                ..Default::default()
            },
            IterParams::default(),
        )
        .unwrap();
        let report = engine.run(&pool, &mut data, &st, &delta, None).unwrap();
        assert!(report.converged);
        assert!(
            report.mrbg_turned_off_at.is_none(),
            "1 change of 40: P∆ small"
        );

        let mut updated = graph;
        updated[7].1 = new;
        let want = oracle(updated, &pool);
        assert_states_close(&data.state_snapshot(), &want, 2e-5);
    }

    #[test]
    fn incremental_matches_recompute_after_vertex_insert_and_delete() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(30);
        let st = stores(&pool, "vtx");
        let mut data = converge_initial(graph.clone(), &st, &pool);

        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        // New vertex 100 pointing at 3 (and nothing pointing at it).
        delta.insert(100, vec![3]);
        // Delete vertex 11 (its record; in-edges from 10 remain via ring —
        // contributions to a deleted vertex are dropped).
        delta.delete(11, graph[11].1.clone());

        let engine = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams {
                max_iterations: 400,
                ..Default::default()
            },
            IterParams::default(),
        )
        .unwrap();
        let report = engine.run(&pool, &mut data, &st, &delta, None).unwrap();
        assert!(report.converged);

        let mut updated = graph;
        updated.retain(|(k, _)| *k != 11);
        updated.push((100, vec![3]));
        let want = oracle(updated, &pool);
        assert_states_close(&data.state_snapshot(), &want, 2e-5);

        // Vertex 100 (no in-edges) must have settled at 0.15, not init 1.0.
        let v100 = data.state_get(N, &100).copied().unwrap();
        assert!((v100 - 0.15).abs() < 1e-9, "got {v100}");
    }

    #[test]
    fn cpc_threshold_reduces_propagation_but_bounds_error() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(60);
        let st_exact = stores(&pool, "cpc-exact");
        let mut data_exact = converge_initial(graph.clone(), &st_exact, &pool);
        let st_cpc = stores(&pool, "cpc-filt");
        let mut data_cpc = converge_initial(graph.clone(), &st_cpc, &pool);

        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[0].1.clone();
        delta.update(0, old.clone(), vec![30]);

        let exact_engine = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams {
                filter_threshold: None,
                max_iterations: 200,
                ..Default::default()
            },
            IterParams::default(),
        )
        .unwrap();
        let exact_rep = exact_engine
            .run(&pool, &mut data_exact, &st_exact, &delta, None)
            .unwrap();

        let cpc_engine = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams {
                filter_threshold: Some(0.001),
                max_iterations: 200,
                ..Default::default()
            },
            IterParams::default(),
        )
        .unwrap();
        let cpc_rep = cpc_engine
            .run(&pool, &mut data_cpc, &st_cpc, &delta, None)
            .unwrap();

        let exact_prop: u64 = exact_rep.iterations.iter().map(|i| i.changed_keys).sum();
        let cpc_prop: u64 = cpc_rep.iterations.iter().map(|i| i.changed_keys).sum();
        assert!(
            cpc_prop < exact_prop,
            "CPC must propagate fewer kv-pairs ({cpc_prop} vs {exact_prop})"
        );

        // Error vs the exact refresh stays small (threshold-bounded).
        let exact = data_exact.state_snapshot();
        let approx = data_cpc.state_snapshot();
        let mean_err: f64 = exact
            .iter()
            .zip(&approx)
            .map(|((_, a), (_, b))| ((a - b) / a).abs())
            .sum::<f64>()
            / exact.len() as f64;
        assert!(mean_err < 0.01, "mean error {mean_err}");
    }

    #[test]
    fn pdelta_monitor_turns_off_mrbg_on_big_deltas() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(20);
        let st = stores(&pool, "pdelta");
        let mut data = converge_initial(graph.clone(), &st, &pool);

        // Rewire more than half of all vertices: P∆ blows past 50 %.
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let mut updated = graph.clone();
        for i in 0..14u64 {
            let old = graph[i as usize].1.clone();
            let new = vec![(i + 9) % 20];
            delta.update(i, old, new.clone());
            updated[i as usize].1 = new;
        }

        let engine = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams {
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
        assert!(report.mrbg_turned_off_at.is_some(), "P∆ must trigger");
        assert!(report.converged);

        let want = oracle(updated, &pool);
        assert_states_close(&data.state_snapshot(), &want, 2e-5);
    }

    #[test]
    fn mrbg_disabled_up_front_falls_back_to_iterative() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(20);
        let st = stores(&pool, "nomrbg");
        let mut data = converge_initial(graph.clone(), &st, &pool);

        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[4].1.clone();
        delta.update(4, old, vec![9]);

        let engine = IncrIterEngine::assemble(
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

        let mut updated = graph;
        updated[4].1 = vec![9];
        let want = oracle(updated, &pool);
        assert_states_close(&data.state_snapshot(), &want, 2e-5);
    }

    #[test]
    fn empty_delta_converges_immediately() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(15);
        let st = stores(&pool, "empty");
        let mut data = converge_initial(graph, &st, &pool);
        let before = data.state_snapshot();

        let engine = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams::default(),
            IterParams::default(),
        )
        .unwrap();
        let delta: Delta<u64, Vec<u64>> = Delta::new();
        let report = engine.run(&pool, &mut data, &st, &delta, None).unwrap();
        assert!(report.converged);
        assert_eq!(report.iterations.len(), 1);
        assert_eq!(report.iterations[0].changed_keys, 0);
        assert_eq!(data.state_snapshot(), before);
    }

    #[test]
    fn resumes_mid_run_after_worker_faults_bit_identical() {
        use i2mr_common::failpoint::{FailAction, FailSite, FailpointRegistry};
        use i2mr_mapred::pool::PoolConfig;
        use i2mr_store::store::MrbgStore;
        use std::sync::Arc;

        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(40);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[7].1.clone();
        let mut new = old.clone();
        new.push(20);
        delta.update(7, old, new);

        let engine = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams {
                max_iterations: 400,
                ..Default::default()
            },
            IterParams::default(),
        )
        .unwrap();

        // Fault-free reference refresh.
        let st_ref = stores(&pool, "resume-ref");
        let mut data_ref = converge_initial(graph.clone(), &st_ref, &pool);
        assert!(
            engine
                .run(&pool, &mut data_ref, &st_ref, &delta, None)
                .unwrap()
                .converged
        );

        // Faulty refresh: converge on the clean pool, move the preserved
        // shards to a pool whose every task attempt dies while the fault
        // budget lasts (no executor retries — failures escape to the
        // engine's rewind path).
        let st_seed = stores(&pool, "resume-seed");
        let mut data = converge_initial(graph.clone(), &st_seed, &pool);
        let payloads: Vec<Vec<u8>> = (0..N).map(|p| st_seed.export(p).unwrap()).collect();
        drop(st_seed);

        let fp = Arc::new(FailpointRegistry::seeded(21, 3).arm(
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
            "i2mr-incr-resume-{}-{:?}",
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
        let ck = IterCheckpointer::new(&dfs, "resume", N);

        let report = engine
            .run(&faulty, &mut data, &st, &delta, Some(&ck))
            .unwrap();
        assert!(report.converged);
        assert!(fp.fired() >= 1, "faults must actually have been injected");
        let total = report.total_metrics();
        assert!(total.recovery_ms > 0, "rewind cost must be accounted");
        assert!(
            total.rebuilt_shards >= N as u64,
            "every shard rebuilds on rewind (got {})",
            total.rebuilt_shards
        );

        // Bit-identical fixed point and byte-identical preserved MRBGraph.
        assert_eq!(data_ref.state, data.state);
        for p in 0..N {
            assert_eq!(st_ref.export(p).unwrap(), st.export(p).unwrap());
        }
    }

    #[test]
    fn checkpoints_written_and_restorable() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(24);
        let st = stores(&pool, "ckpt");
        let mut data = converge_initial(graph.clone(), &st, &pool);

        let dfs_dir = std::env::temp_dir().join(format!(
            "i2mr-incr-ckpt-dfs-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dfs_dir);
        let dfs = i2mr_dfs::MiniDfs::open_with(&dfs_dir, 1 << 20, 2).unwrap();
        let ck = IterCheckpointer::new(&dfs, "minirank", N);

        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[2].1.clone();
        delta.update(2, old, vec![13]);

        let engine = IncrIterEngine::assemble(
            &MiniRank,
            JobConfig::symmetric(N),
            IncrParams {
                max_iterations: 400,
                ..Default::default()
            },
            IterParams::default(),
        )
        .unwrap();
        let report = engine
            .run(&pool, &mut data, &st, &delta, Some(&ck))
            .unwrap();
        assert!(report.converged);

        let latest = ck.latest_complete(true).expect("checkpoints exist");
        let restored: Vec<Vec<(u64, f64)>> = ck.load_state(latest).unwrap();
        assert_eq!(restored, data.state);
    }
}
