//! The one fixed-point driver behind every partitioned run (paper §4–§6).
//!
//! [`crate::run::RunSession::run_initial`], `run_incremental` and
//! `run_delta` all run [`Driver::iterate`]: a single loop whose passes are
//! one of two step kinds.
//!
//! * A **full pass** (`Driver::full_pass`, in [`crate::iter_engine`]):
//!   prime Map over every structure record against its co-located state,
//!   shuffle, sort, and prime Reduce of every state key, preserving the
//!   MRBGraph when the run's [`PreserveMode`] asks for it.
//! * An **MRBG pass** (`Driver::mrbg_pass`, in [`crate::incr_iter`]): Map
//!   only the workset — the delta structure on iteration 1, the state
//!   changes of the previous pass after that — merge the delta MRBGraph
//!   into the touched shards, and re-reduce the affected keys under change
//!   propagation control (§5.3).
//!
//! An initial run is full passes until `epsilon`. A refresh is MRBG passes
//! until the workset drains; when the P∆ monitor (§5.2) finds a pass's
//! changes covering more than `pdelta_threshold` of the state, the loop
//! switches its step kind to full passes from the current state (budget
//! `max_iterations − k`, at least one pass, converging at `iter.epsilon`).
//!
//! Around every pass the driver runs the same fence — executor recovery
//! counters, store-plane counters, the checkpoint, policy-driven
//! compaction — and when a fault escapes the executor it rewinds to the
//! last sealed checkpoint and resumes (§6.1). Checkpoints are the
//! iteration-0 baseline, every pass of an initial run (with the stores
//! when they are preserved every iteration), and every MRBG pass (with the
//! stores and the workset); full passes after the P∆ switch write none.
//! When the last pass wrote no checkpoint (after a P∆ switch, or off the
//! checkpoint cadence), one save after the final settle records the
//! completed run, whatever the cadence. A rewind keeps a P∆ switch taken
//! at or before the resume point, so it re-enters full passes.

use crate::checkpoint::{IterCheckpointer, MAX_RECOVERIES};
use crate::delta::Delta;
use crate::incr_iter::{apply_structure_delta, IncrParams};
use crate::iter_engine::{FullShuffle, PartitionedData, RunReport};
use crate::iterative::{IterParams, IterationStats, IterativeSpec, PreserveMode};
use crate::trace::{add_stage, emit_checkpoint_restore, emit_checkpoint_save};
use i2mr_common::codec::{decode_exact, encode_to};
use i2mr_common::error::{Error, Result};
use i2mr_common::metrics::{IoStats, JobMetrics, Stage};
use i2mr_common::telemetry::TraceRecorder;
use i2mr_mapred::fault::{TaskId, TaskKind};
use i2mr_mapred::pool::{TaskSpec, WorkerPool};
use i2mr_mapred::shuffle::RunPool;
use i2mr_mapred::types::Emitter;
use i2mr_store::runtime::StoreManager;
use std::sync::Arc;
use std::time::Instant;

/// The reduce-side check `run_delta` arms for a
/// [`Monotonic`](crate::delta_iter::UpdateContract::Monotonic) spec.
pub(crate) type Admissible<'a, S> =
    dyn Fn(&<S as IterativeSpec>::DV, &<S as IterativeSpec>::DV) -> bool + Sync + 'a;

/// What a refresh adds to a run: the delta, its knobs, the store plane
/// holding the preserved MRBGraph, and the optional `Monotonic` check.
pub(crate) struct Refresh<'a, S: IterativeSpec> {
    pub(crate) delta: &'a Delta<S::SK, S::SV>,
    pub(crate) params: IncrParams,
    pub(crate) stores: &'a StoreManager,
    pub(crate) admissible: Option<&'a Admissible<'a, S>>,
}

/// One run's borrowed subsystems plus its iteration-scoped recyclers.
pub(crate) struct Driver<'r, S: IterativeSpec> {
    pub(crate) spec: &'r S,
    /// Partitions (`n_map == n_reduce`: map task i and reduce task i share
    /// state partition i).
    pub(crate) n: usize,
    pub(crate) pool: &'r WorkerPool,
    pub(crate) stores: Option<&'r StoreManager>,
    pub(crate) ckpt: Option<&'r IterCheckpointer>,
    pub(crate) recorder: Option<&'r Arc<TraceRecorder>>,
    /// Shuffle runs and map-side buffers of full passes, reused across
    /// iterations instead of reallocated.
    pub(crate) full_runs: RunPool<S::DK, S::V2>,
    /// The same for MRBG passes (`None` values are edge deletions).
    pub(crate) delta_runs: RunPool<S::DK, Option<S::V2>>,
}

impl<'r, S: IterativeSpec> Driver<'r, S> {
    pub(crate) fn new(
        spec: &'r S,
        n: usize,
        pool: &'r WorkerPool,
        stores: Option<&'r StoreManager>,
        ckpt: Option<&'r IterCheckpointer>,
        recorder: Option<&'r Arc<TraceRecorder>>,
    ) -> Self {
        Driver {
            spec,
            n,
            pool,
            stores,
            ckpt,
            recorder,
            full_runs: RunPool::new(),
            delta_runs: RunPool::new(),
        }
    }

    /// Run passes until the fixed point or the budget (see module docs):
    /// full passes per `iter` without `refresh`, a refresh against
    /// `refresh.delta` with it (`iter.max_iterations` is then the refresh
    /// budget and `iter.epsilon` the full-pass convergence threshold).
    pub(crate) fn iterate(
        &self,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        iter: IterParams,
        refresh: Option<Refresh<'_, S>>,
    ) -> Result<RunReport> {
        if iter.preserve != PreserveMode::None && self.stores.is_none() {
            return Err(Error::config(
                "MRBGraph preservation requested but no stores supplied",
            ));
        }
        // Full passes write the stores only when preserving every
        // iteration; MRBG passes always do, and checkpoint them.
        let full_stores = self
            .stores
            .filter(|_| iter.preserve == PreserveMode::EveryIteration);
        let mrbg_stores = refresh.as_ref().map(|r| r.stores);
        let ckpt_stores = mrbg_stores.or(full_stores);
        // `apply_structure_delta` is not idempotent: a rewind past
        // iteration 1 replays the delta onto a pristine copy.
        let pristine = match (&refresh, self.ckpt) {
            (Some(_), Some(_)) => Some(data.clone()),
            _ => None,
        };
        // The workset (ΔD_j) flowing between MRBG passes; a refresh
        // checkpoints it as the aux artifact, an initial run writes none.
        let mut workset: Vec<(S::DK, S::DV)> = Vec::new();
        let is_refresh = refresh.is_some();
        let aux = |workset: &Vec<(S::DK, S::DV)>| {
            if is_refresh {
                encode_to(workset)
            } else {
                Vec::new()
            }
        };
        if let Some(ck) = self.ckpt {
            // Iteration-0 baseline, written before any mutation: a failed
            // baseline leaves the caller's data untouched and retryable.
            let t = Instant::now();
            ck.save_iteration(0, &data.state, ckpt_stores)?;
            ck.save_aux(0, &aux(&workset))?;
            emit_checkpoint_save(self.recorder, 0, t);
        }

        // The full passes' shuffle plan lives while the structure stands
        // still: every MRBG pass and every rewind drops it.
        let mut shuffle = FullShuffle::default();
        let mut report = RunReport::default();
        let mut recoveries_left = MAX_RECOVERIES;
        let mut pending_recovery_ms = 0u64;
        let mut iteration = 1u64;
        loop {
            let last = match report.mrbg_turned_off_at {
                Some(k) => iter.max_iterations.max(k + 1),
                None => iter.max_iterations,
            };
            if iteration > last {
                break;
            }
            let mrbg = is_refresh && report.mrbg_turned_off_at.is_none();
            let stores = if mrbg { mrbg_stores } else { full_stores };
            let checkpoint = self.ckpt.filter(|_| mrbg || !is_refresh);
            let started = Instant::now();
            let mut metrics = JobMetrics {
                // Job reuse: one job spans every pass of the run.
                jobs_started: u64::from(iteration == 1),
                ..Default::default()
            };
            let pass = match &refresh {
                Some(r) if mrbg => {
                    shuffle.reset();
                    self.mrbg_pass(data, r, &mut workset, iteration, &mut metrics)
                }
                _ => self.full_pass(data, iteration, full_stores, &mut shuffle, &mut metrics),
            };
            let pass = pass.and_then(|stats| {
                metrics.retries += self.pool.drain_recovery();
                metrics.recovery_ms += std::mem::take(&mut pending_recovery_ms);
                if let Some(stores) = stores {
                    stores.drain_metrics(&mut metrics);
                }
                if let Some(ck) = checkpoint {
                    let t = Instant::now();
                    ck.save_iteration(iteration, &data.state, ckpt_stores)?;
                    // Aux last: its presence seals the iteration.
                    ck.save_aux(iteration, &aux(&workset))?;
                    emit_checkpoint_save(self.recorder, iteration, t);
                }
                if let Some(stores) = stores {
                    // §3.4's off-line reconstruction: its wall time is the
                    // Compact stage, its counters land in the next drain.
                    let t = Instant::now();
                    stores.maybe_compact(iteration)?;
                    self.stage(&mut metrics, Stage::Compact, iteration, t);
                }
                Ok(stats)
            });
            match pass {
                Ok(stats) => {
                    let stats = IterationStats {
                        iteration,
                        wall: started.elapsed(),
                        ..stats
                    };
                    // An empty workset is the fixed point; P∆ (§5.2) is the
                    // share of the state the pass changed.
                    let (converged, switch) = match &refresh {
                        Some(r) if mrbg => (
                            stats.changed_keys == 0,
                            stats.changed_keys as f64 / data.state_len().max(1) as f64
                                > r.params.pdelta_threshold,
                        ),
                        _ => (stats.max_diff < iter.epsilon, false),
                    };
                    if mrbg {
                        report.worksets.push(metrics.workset_keys);
                    }
                    report.iterations.push(stats);
                    report.per_iteration.push(metrics);
                    if converged {
                        report.converged = true;
                        break;
                    }
                    if switch {
                        report.mrbg_turned_off_at = Some(iteration);
                    }
                    iteration += 1;
                }
                Err(e) => {
                    // A worker-loss / store / checkpoint fault escaped the
                    // executor's own retries: rewind to the last sealed
                    // checkpoint and resume from there.
                    let resume = match self.ckpt {
                        Some(ck) if recoveries_left > 0 => ck
                            .latest_resumable(ckpt_stores.is_some())
                            .map(|latest| (ck, latest)),
                        _ => None,
                    };
                    let Some((ck, latest)) = resume else {
                        return Err(e);
                    };
                    recoveries_left -= 1;
                    shuffle.reset();
                    let t = Instant::now();
                    if let (Some(r), Some(pristine)) = (&refresh, &pristine) {
                        *data = pristine.clone();
                        if latest >= 1 {
                            apply_structure_delta(self.spec, self.n, data, r.delta);
                        }
                        workset = decode_exact(&ck.load_aux(latest)?)?;
                    }
                    data.state = ck.load_state(latest)?;
                    if let Some(stores) = ckpt_stores {
                        for p in 0..stores.n_shards() {
                            stores.rebuild_shard(p, &ck.load_store_payload(latest, p)?)?;
                        }
                    }
                    let d = t.elapsed();
                    emit_checkpoint_restore(self.recorder, latest, d);
                    report.iterations.truncate(latest as usize);
                    report.per_iteration.truncate(latest as usize);
                    report.worksets.truncate(latest as usize);
                    // A P∆ switch at or before the resume point stands.
                    if report.mrbg_turned_off_at.is_some_and(|k| k > latest) {
                        report.mrbg_turned_off_at = None;
                    }
                    pending_recovery_ms += (d.as_millis() as u64).max(1);
                    iteration = latest + 1;
                }
            }
        }

        if let (PreserveMode::FinalOnly, Some(stores)) = (iter.preserve, self.stores) {
            let mut metrics = JobMetrics::default();
            self.materialize_mrbg(data, stores, &mut metrics)?;
            report.per_iteration.push(metrics);
        }
        if let Some(stores) = self.stores {
            settle_trailing(stores, &mut report.per_iteration)?;
        }
        // Record the completed run when its last pass wrote no checkpoint:
        // full passes after the P∆ switch write none, and an off-cadence
        // save is a no-op.
        let it = report.iterations.len() as u64;
        let unsaved = |ck: &&IterCheckpointer| {
            it > 0 && (report.mrbg_turned_off_at.is_some() || !ck.on_cadence(it))
        };
        if let Some(ck) = self.ckpt.filter(unsaved) {
            let t = Instant::now();
            ck.save_final(it, &data.state, ckpt_stores)?;
            emit_checkpoint_save(self.recorder, it, t);
        }
        Ok(report)
    }

    /// One pinned Map task per `(partition, input)` pair, each running
    /// `map_part` with a fresh emitter. Returns the tasks' outputs in input
    /// order and the summed map invocations `map_part` reported.
    pub(crate) fn map_stage<I: Sync, T: Send>(
        &self,
        iteration: u64,
        inputs: &[(usize, I)],
        map_part: impl Fn(&I, &mut Emitter<S::DK, S::V2>) -> (T, u64) + Sync,
    ) -> Result<(Vec<T>, u64)> {
        let map_part = &map_part;
        let tasks: Vec<TaskSpec<'_, (T, u64)>> = inputs
            .iter()
            .map(|(p, input)| {
                let id = TaskId {
                    kind: TaskKind::Map,
                    index: *p,
                    iteration,
                };
                TaskSpec::pinned(id, p % self.pool.n_workers(), move |_| {
                    Ok(map_part(input, &mut Emitter::new()))
                })
            })
            .collect();
        let mut invocations = 0;
        let outputs = self
            .pool
            .run_tasks(tasks)?
            .into_iter()
            .map(|(output, inv)| {
                invocations += inv;
                output
            })
            .collect();
        Ok((outputs, invocations))
    }

    /// Record one stage's wall time since `t` (metrics and trace alike).
    pub(crate) fn stage(&self, metrics: &mut JobMetrics, stage: Stage, iteration: u64, t: Instant) {
        add_stage(self.recorder, metrics, stage, iteration, t.elapsed());
    }
}

/// Fold the trailing store-plane counters of a finished run into its
/// per-iteration metrics: settle into the last iteration's slot, or — with
/// no recorded iteration — into a fresh slot kept only if it carries
/// anything.
fn settle_trailing(stores: &StoreManager, per_iteration: &mut Vec<JobMetrics>) -> Result<()> {
    match per_iteration.last_mut() {
        Some(last) => stores.settle_into(last),
        None => {
            let mut trailing = JobMetrics::default();
            stores.settle_into(&mut trailing)?;
            if trailing.store_compactions > 0
                || trailing.store_bytes_reclaimed > 0
                || trailing.store_io != IoStats::default()
            {
                per_iteration.push(trailing);
            }
            Ok(())
        }
    }
}
