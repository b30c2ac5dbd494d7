//! The adapter: the only file that calls into the program under test.
//!
//! Everything goes through the front door — `RunBuilder` →
//! `RunSession::{run_initial, run_incremental, run_delta, finish}`, the
//! reports' `total_metrics()` / `iterations`, `StoreManager`, `WorkerPool`,
//! `mapred::shuffle`, `IterCheckpointer`, `MiniDfs`, the `algos` spec
//! types — and never through the `#[deprecated]` engine constructors, so
//! the engines can be merged behind `RunBuilder` without touching the
//! benchmark. The layer probes that call single public functions directly
//! live in `probes.rs`; they reach the program only through the handles
//! this file hands out.

use crate::spans::{SpanId, Spans};
use i2mr_algos::kmeans::{self, Centroids};
use i2mr_common::error::{Error, Result};
use i2mr_common::metrics::JobMetrics;
use i2mr_common::telemetry::{TelemetryConfig, TelemetryMode};
use i2mr_core::delta::Delta;
use i2mr_core::delta_iter::DeltaIterativeSpec;
use i2mr_core::incr_iter::IncrParams;
use i2mr_core::iter_engine::{build_partitioned, PartitionedData};
use i2mr_core::iterative::{IterParams, IterationStats, IterativeSpec, PreserveMode};
use i2mr_core::run::RunBuilder;
use i2mr_dfs::MiniDfs;
use i2mr_mapred::{JobConfig, WorkerPool};
use i2mr_store::runtime::StoreManager;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Worker threads of the shared executor (the box has two cores).
pub const WORKERS: usize = 2;
/// Map/reduce partitions and store shards.
pub const PARTITIONS: usize = 4;

/// The executor and job shape every workload shares. One pool per
/// process, as a long-lived deployment would have.
pub struct Env {
    pub pool: WorkerPool,
    pub job: JobConfig,
}

impl Env {
    pub fn new() -> Self {
        Env {
            pool: WorkerPool::new(WORKERS),
            job: JobConfig::symmetric(PARTITIONS),
        }
    }
}

/// What one call into the program reported about itself, summed over the
/// sessions the call needed.
#[derive(Clone, Debug, Default)]
pub struct OpStats {
    /// Engine iterations executed.
    pub iterations: u64,
    /// Sum of the per-iteration walls the engine reported.
    pub iter_wall: Duration,
    /// State kv-pairs changed / propagated, summed over iterations.
    pub changed_keys: u64,
    /// `total_metrics()` of every report plus the sessions' trailing
    /// store-plane counters.
    pub metrics: JobMetrics,
    /// Refreshes in which the P∆ monitor turned the MRBGraph off.
    pub fallbacks: u64,
    /// Events the program's own tracer dropped (traced rounds only).
    pub trace_dropped: u64,
}

impl OpStats {
    fn add_report(&mut self, iterations: &[IterationStats], metrics: JobMetrics) {
        self.iterations += iterations.len() as u64;
        self.iter_wall += iterations.iter().map(|i| i.wall).sum::<Duration>();
        self.changed_keys += iterations.iter().map(|i| i.changed_keys).sum::<u64>();
        self.metrics.merge(&metrics);
    }

    /// Fold another call's report into this one.
    pub fn absorb(&mut self, other: &OpStats) {
        self.iterations += other.iterations;
        self.iter_wall += other.iter_wall;
        self.changed_keys += other.changed_keys;
        self.metrics.merge(&other.metrics);
        self.fallbacks += other.fallbacks;
        self.trace_dropped += other.trace_dropped;
    }
}

/// One system under test, driven through one round: `initial`, a stream
/// of `refresh`es, `finish`, then `recompute` on the final input. Each
/// method opens child spans (`build`, `run`, `finish`) under `parent`.
pub trait Sut {
    /// Value type of an input record `(u64, V)`.
    type V;
    /// The computed result, in a canonical order.
    type Out;

    fn initial(
        &mut self,
        input: &[(u64, Self::V)],
        spans: &Spans,
        parent: SpanId,
    ) -> Result<OpStats>;

    fn refresh(
        &mut self,
        delta: &Delta<u64, Self::V>,
        spans: &Spans,
        parent: SpanId,
    ) -> Result<OpStats>;

    /// Untimed bookkeeping after a refresh returned (the harness calls it
    /// outside every span).
    fn note_applied(&mut self, _delta: &Delta<u64, Self::V>) {}

    /// End of the stream: bytes of preserved state on disk.
    fn finish(&mut self) -> u64;

    /// `(writes, bytes_written)` of the system's checkpoint DFS so far.
    fn dfs_writes(&self) -> (u64, u64) {
        (0, 0)
    }

    fn result(&self) -> Self::Out;

    /// The paper's baseline: iterMR from scratch on `input`.
    fn recompute(
        &self,
        input: &[(u64, Self::V)],
        spans: &Spans,
        parent: SpanId,
    ) -> Result<(OpStats, Self::Out)>;
}

/// Partitioned structure and state of a graph workload (vertex ids for
/// keys, one `f64` of state per vertex).
pub type GraphData<S> = PartitionedData<u64, <S as IterativeSpec>::SV, u64, f64>;

/// How a graph workload drives the engines.
#[derive(Clone, Copy, Debug)]
pub struct GraphPlan {
    /// Initial-run and recompute knobs (`preserve` is set per call).
    pub iter: IterParams,
    /// Refresh knobs; `refresh_iter` is what the P∆ fallback runs with.
    pub incr: IncrParams,
    pub refresh_iter: IterParams,
    /// `run_delta` (workset engine) instead of `run_incremental`.
    pub workset: bool,
    /// Checkpoint every refresh iteration to a `MiniDfs`.
    pub checkpoint: bool,
}

/// PageRank / SSSP through `RunBuilder`, one session per call as the
/// `algos` drivers do: the initial session owns a fresh store directory
/// and hands the settled plane back from `finish`; every refresh session
/// borrows it (`stores_ref`), so checkpoint job names are unique per
/// refresh as `IterCheckpointer` requires.
pub struct GraphSut<'e, S: DeltaIterativeSpec> {
    spec: S,
    env: &'e Env,
    plan: GraphPlan,
    telemetry: TelemetryMode,
    dir: PathBuf,
    dfs: Option<MiniDfs>,
    data: Option<GraphData<S>>,
    stores: Option<StoreManager>,
    store_generation: u32,
    refreshes: u32,
}

impl<'e, S> GraphSut<'e, S>
where
    S: DeltaIterativeSpec<SK = u64, DK = u64, DV = f64>,
{
    /// A system rooted at the (fresh) scratch directory `dir`.
    pub fn new(
        spec: S,
        env: &'e Env,
        plan: GraphPlan,
        telemetry: TelemetryMode,
        dir: &Path,
    ) -> Result<Self> {
        let dfs = match plan.checkpoint {
            true => Some(MiniDfs::open(dir.join("dfs"))?),
            false => None,
        };
        Ok(GraphSut {
            spec,
            env,
            plan,
            telemetry,
            dir: dir.to_path_buf(),
            dfs,
            data: None,
            stores: None,
            store_generation: 0,
            refreshes: 0,
        })
    }

    fn builder(&self, iter: IterParams) -> RunBuilder<'_, S> {
        RunBuilder::new(&self.spec)
            .pool(&self.env.pool)
            .job(self.env.job.clone())
            .iter(iter)
            .incr(self.plan.incr)
            .telemetry(TelemetryConfig::with_mode(self.telemetry))
    }

    /// One full run over `data` that (re)creates the preserved MRBGraph in
    /// a fresh store directory.
    fn preserving_run(
        &mut self,
        data: &mut GraphData<S>,
        iter: IterParams,
        spans: &Spans,
        parent: SpanId,
    ) -> Result<OpStats> {
        self.store_generation += 1;
        let dir = self.dir.join(format!("stores-{}", self.store_generation));
        let (session, _) = spans.time("build", Some(parent), |_| {
            self.builder(iter).store_dir(dir).build()
        });
        let session = session?;
        let (report, _) = spans.time("run", Some(parent), |_| session.run_initial(data));
        let report = report?;
        let (fin, _) = spans.time("finish", Some(parent), |_| session.finish());
        let fin = fin?;
        let mut stats = OpStats::default();
        stats.add_report(&report.iterations, report.total_metrics());
        stats.metrics.merge(&fin.trailing);
        stats.trace_dropped = fin.trace.map_or(0, |t| t.dropped());
        self.stores = Some(fin.stores.ok_or_else(|| {
            Error::config("benchmark: the initial session did not hand its stores back")
        })?);
        Ok(stats)
    }

    /// The converged data and settled store plane, for the layer probes.
    pub fn parts(&self) -> Option<(&GraphData<S>, &StoreManager)> {
        Some((self.data.as_ref()?, self.stores.as_ref()?))
    }

    /// The spec under test.
    pub fn spec(&self) -> &S {
        &self.spec
    }
}

impl<S> Sut for GraphSut<'_, S>
where
    S: DeltaIterativeSpec<SK = u64, DK = u64, DV = f64>,
{
    type V = S::SV;
    type Out = Vec<(u64, f64)>;

    fn initial(
        &mut self,
        input: &[(u64, S::SV)],
        spans: &Spans,
        parent: SpanId,
    ) -> Result<OpStats> {
        let (mut data, _) = spans.time("partition", Some(parent), |_| {
            build_partitioned(&self.spec, self.env.job.n_reduce, input.to_vec())
        });
        let iter = IterParams {
            preserve: PreserveMode::FinalOnly,
            ..self.plan.iter
        };
        let stats = self.preserving_run(&mut data, iter, spans, parent)?;
        self.data = Some(data);
        Ok(stats)
    }

    fn refresh(
        &mut self,
        delta: &Delta<u64, S::SV>,
        spans: &Spans,
        parent: SpanId,
    ) -> Result<OpStats> {
        self.refreshes += 1;
        let mut data = self
            .data
            .take()
            .ok_or_else(|| Error::config("benchmark: refresh before initial"))?;
        let mut stats = OpStats::default();
        let fell_back = {
            let stores = self
                .stores
                .as_ref()
                .ok_or_else(|| Error::config("benchmark: refresh before initial"))?;
            let (session, _) = spans.time("build", Some(parent), |_| {
                let mut b = self.builder(self.plan.refresh_iter).stores_ref(stores);
                if let Some(dfs) = &self.dfs {
                    b = b.checkpoint(dfs, format!("refresh-{}", self.refreshes));
                }
                b.build()
            });
            let session = session?;
            let fell_back = if self.plan.workset {
                let (report, _) =
                    spans.time("run", Some(parent), |_| session.run_delta(&mut data, delta));
                let report = report?;
                stats.add_report(&report.iterations, report.total_metrics());
                report.mrbg_turned_off_at.is_some()
            } else {
                let (report, _) = spans.time("run", Some(parent), |_| {
                    session.run_incremental(&mut data, delta)
                });
                let report = report?;
                stats.add_report(&report.iterations, report.total_metrics());
                report.mrbg_turned_off_at.is_some()
            };
            let (fin, _) = spans.time("finish", Some(parent), |_| session.finish());
            let fin = fin?;
            stats.metrics.merge(&fin.trailing);
            stats.trace_dropped = fin.trace.map_or(0, |t| t.dropped());
            fell_back
        };
        if fell_back {
            // The P∆ fallback finishes with plain iterations and leaves the
            // preserved MRBGraph behind the state. The next refresh needs
            // it current, so re-preserve now — in a fresh directory, since
            // a batch appended to the old shards would leave stale chunks
            // for keys that lost their last in-edge. One preserving pass
            // from the converged state; its cost is part of this refresh.
            stats.fallbacks += 1;
            let iter = IterParams {
                max_iterations: 1,
                preserve: PreserveMode::EveryIteration,
                ..self.plan.refresh_iter
            };
            let (again, _) = spans.time("re-preserve", Some(parent), |id| {
                self.preserving_run(&mut data, iter, spans, id)
            });
            stats.absorb(&again?);
        }
        self.data = Some(data);
        Ok(stats)
    }

    fn finish(&mut self) -> u64 {
        self.stores.as_ref().map_or(0, StoreManager::file_bytes)
    }

    /// `JobMetrics::dfs_io` is never filled by `core`; the DFS's own
    /// counters are the only record of checkpoint traffic.
    fn dfs_writes(&self) -> (u64, u64) {
        self.dfs.as_ref().map_or((0, 0), |dfs| {
            let io = dfs.io_stats();
            (io.writes, io.bytes_written)
        })
    }

    fn result(&self) -> Vec<(u64, f64)> {
        self.data
            .as_ref()
            .map(PartitionedData::state_snapshot)
            .unwrap_or_default()
    }

    fn recompute(
        &self,
        input: &[(u64, S::SV)],
        spans: &Spans,
        parent: SpanId,
    ) -> Result<(OpStats, Vec<(u64, f64)>)> {
        let (mut data, _) = spans.time("partition", Some(parent), |_| {
            build_partitioned(&self.spec, self.env.job.n_reduce, input.to_vec())
        });
        let iter = IterParams {
            preserve: PreserveMode::None,
            ..self.plan.iter
        };
        let (session, _) = spans.time("build", Some(parent), |_| self.builder(iter).build());
        let session = session?;
        let (report, _) = spans.time("run", Some(parent), |_| session.run_initial(&mut data));
        let report = report?;
        let (fin, _) = spans.time("finish", Some(parent), |_| session.finish());
        let fin = fin?;
        let mut stats = OpStats::default();
        stats.add_report(&report.iterations, report.total_metrics());
        stats.trace_dropped = fin.trace.map_or(0, |t| t.dropped());
        Ok((stats, data.state_snapshot()))
    }
}

/// Kmeans through the `algos::kmeans` drivers (the small-state engine has
/// no `RunBuilder` surface): MRBGraph off, no store, no checkpoint.
pub struct KmeansSut<'e> {
    env: &'e Env,
    /// Iteration budgets of a from-scratch run and of a refresh.
    scratch_iterations: u64,
    refresh_iterations: u64,
    epsilon: f64,
    seed_centroids: Centroids,
    points: Vec<(u64, Vec<f64>)>,
    centroids: Centroids,
}

impl<'e> KmeansSut<'e> {
    pub fn new(
        env: &'e Env,
        seed_centroids: Centroids,
        scratch_iterations: u64,
        refresh_iterations: u64,
        epsilon: f64,
    ) -> Self {
        KmeansSut {
            env,
            scratch_iterations,
            refresh_iterations,
            epsilon,
            seed_centroids,
            points: Vec::new(),
            centroids: Vec::new(),
        }
    }

    /// The current points and converged centroids, for the layer probes.
    pub fn parts(&self) -> (&[(u64, Vec<f64>)], &Centroids) {
        (&self.points, &self.centroids)
    }

    fn stats(run: &i2mr_algos::report::EngineRun) -> OpStats {
        OpStats {
            iterations: run.iterations,
            // The drivers report one wall for the whole computation.
            iter_wall: run.wall,
            changed_keys: run.iterations,
            metrics: run.metrics.clone(),
            ..Default::default()
        }
    }
}

impl Sut for KmeansSut<'_> {
    type V = Vec<f64>;
    type Out = Centroids;

    fn initial(
        &mut self,
        input: &[(u64, Vec<f64>)],
        spans: &Spans,
        parent: SpanId,
    ) -> Result<OpStats> {
        self.points = input.to_vec();
        let (out, _) = spans.time("run", Some(parent), |_| {
            kmeans::itermr(
                &self.env.pool,
                &self.env.job,
                input,
                self.seed_centroids.clone(),
                self.scratch_iterations,
                self.epsilon,
            )
        });
        let (data, run) = out?;
        self.centroids = data.state;
        Ok(Self::stats(&run))
    }

    fn refresh(
        &mut self,
        delta: &Delta<u64, Vec<f64>>,
        spans: &Spans,
        parent: SpanId,
    ) -> Result<OpStats> {
        let (out, _) = spans.time("run", Some(parent), |_| {
            kmeans::i2mr_incremental(
                &self.env.pool,
                &self.env.job,
                &self.points,
                self.centroids.clone(),
                delta,
                self.refresh_iterations,
                self.epsilon,
            )
        });
        let (centroids, run) = out?;
        self.centroids = centroids;
        Ok(Self::stats(&run))
    }

    /// The driver applies the delta to a private copy and drops it, so the
    /// caller has to keep the evolving point set itself.
    fn note_applied(&mut self, delta: &Delta<u64, Vec<f64>>) {
        crate::workloads::apply_in_place(&mut self.points, delta);
    }

    fn finish(&mut self) -> u64 {
        0
    }

    fn result(&self) -> Centroids {
        self.centroids.clone()
    }

    fn recompute(
        &self,
        input: &[(u64, Vec<f64>)],
        spans: &Spans,
        parent: SpanId,
    ) -> Result<(OpStats, Centroids)> {
        let (out, _) = spans.time("run", Some(parent), |_| {
            kmeans::itermr(
                &self.env.pool,
                &self.env.job,
                input,
                self.seed_centroids.clone(),
                self.scratch_iterations,
                self.epsilon,
            )
        });
        let (data, run) = out?;
        Ok((Self::stats(&run), data.state))
    }
}
