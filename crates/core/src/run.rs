//! The engine front door: [`RunBuilder`] → [`RunSession`].
//!
//! A run needs a worker pool, usually a [`StoreManager`] over a directory,
//! optionally an [`IterCheckpointer`], and an end-of-run settle of the
//! store plane. The builder assembles all of it from one validated
//! [`EngineConfig`]:
//!
//! ```text
//! RunBuilder::new(&spec)          // what to compute
//!     .config(EngineConfig {..})  // every knob in one validated struct
//!     .pool(&pool)                // share an executor (or omit: one is made)
//!     .store_dir(dir)             // store plane (omit for the iterMR baseline)
//!     .checkpoint(&dfs, "job")    // optional fault tolerance, cadenced
//!     .build()?                   // -> RunSession
//! ```
//!
//! The session exposes the run modes as methods —
//! [`RunSession::run_initial`], [`RunSession::run_incremental`],
//! [`RunSession::run_delta`], all one fixed-point driver returning a
//! [`RunReport`] — and a single [`RunSession::finish`] that settles the
//! store plane (commit dirty shards, drain trailing counters) exactly
//! once and hands the stores back.
//! `tests/builder_equivalence.rs` pins seeded runs of all three modes to
//! fingerprints of their state, live store chunks and checkpoint writes.

use crate::checkpoint::IterCheckpointer;
use crate::delta::Delta;
use crate::delta_iter::{DeltaIterativeSpec, UpdateContract};
use crate::driver::{Admissible, Driver, Refresh};
use crate::incr_iter::IncrParams;
use crate::iter_engine::{PartitionedData, RunReport};
use crate::iterative::{IterParams, IterativeSpec, PreserveMode};
use crate::trace::Telemetry;
use i2mr_common::error::{Error, Result};
use i2mr_common::metrics::JobMetrics;
use i2mr_common::telemetry::{MetricsSnapshot, TelemetryConfig, TraceLog};
use i2mr_dfs::MiniDfs;
use i2mr_mapred::{JobConfig, WorkerPool};
use i2mr_store::runtime::{StoreManager, StoreRuntimeConfig};
use std::path::PathBuf;

/// Every knob of an engine run, consolidated.
///
/// One struct replaces the loose `(JobConfig, IterParams, IncrParams,
/// StoreRuntimeConfig, ...)` tuples the legacy constructors took, with one
/// [`EngineConfig::validate`] enforcing the cross-field invariants the
/// engines used to re-check individually.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Task/worker counts and retry budget.
    pub job: JobConfig,
    /// Full-run iteration knobs; `epsilon` is also where a refresh's full
    /// passes converge after a P∆-triggered switch.
    pub iter: IterParams,
    /// Incremental-run knobs (CPC thresholds, P∆ monitor, budget).
    pub incr: IncrParams,
    /// Store plane tunables (per-shard config, compaction policy, plane).
    pub store: StoreRuntimeConfig,
    /// Checkpoint every `n`-th iteration (1 = every iteration, the paper's
    /// §6.1 default). Iteration 0 — the pre-mutation baseline — is always
    /// written. Larger cadences trade re-execution distance on recovery
    /// for checkpoint I/O.
    pub checkpoint_every: u64,
    /// Telemetry plane: `Off` (default — no recorder, bit-identical to
    /// the untraced engine), `Counters` (per-kind atomic counters only),
    /// or `Full` (typed spans into per-worker rings, exportable as Chrome
    /// trace / JSONL). See DESIGN.md §10.
    pub telemetry: TelemetryConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            job: JobConfig::default(),
            iter: IterParams::default(),
            incr: IncrParams::default(),
            store: StoreRuntimeConfig::default(),
            checkpoint_every: 1,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl EngineConfig {
    /// Validate every invariant the engines rely on, in one place.
    pub fn validate(&self) -> Result<()> {
        self.job.validate()?;
        if self.job.n_map != self.job.n_reduce {
            return Err(Error::config(
                "iterative engines require n_map == n_reduce (prime task co-location)",
            ));
        }
        if self.iter.max_iterations == 0 || self.incr.max_iterations == 0 {
            return Err(Error::config("max_iterations must be > 0"));
        }
        if !self.iter.epsilon.is_finite() || self.iter.epsilon < 0.0 {
            return Err(Error::config("iter.epsilon must be finite and >= 0"));
        }
        if !self.incr.convergence_epsilon.is_finite() || self.incr.convergence_epsilon < 0.0 {
            return Err(Error::config(
                "incr.convergence_epsilon must be finite and >= 0",
            ));
        }
        if !self.incr.pdelta_threshold.is_finite() || self.incr.pdelta_threshold <= 0.0 {
            return Err(Error::config("incr.pdelta_threshold must be > 0"));
        }
        if let Some(t) = self.incr.filter_threshold {
            if !t.is_finite() || t < 0.0 {
                return Err(Error::config(
                    "incr.filter_threshold must be finite and >= 0",
                ));
            }
        }
        if self.checkpoint_every == 0 {
            return Err(Error::config("checkpoint_every must be >= 1"));
        }
        if !self.telemetry.is_valid() {
            return Err(Error::config(
                "telemetry.ring_capacity must be > 0 for Full tracing",
            ));
        }
        Ok(())
    }
}

/// Where the session's store plane comes from.
enum StorePlan<'s> {
    /// No store plane (pure iterMR baseline runs only).
    None,
    /// Create fresh shards under this directory.
    Create(PathBuf),
    /// Adopt an already-constructed manager.
    Adopt(StoreManager),
    /// Borrow a caller-owned manager (shared with other sessions).
    Borrow(&'s StoreManager),
}

/// Owned-or-borrowed, for subsystems a session may share with its caller.
enum MaybeOwned<'s, T> {
    Owned(T),
    Borrowed(&'s T),
}

impl<T> MaybeOwned<'_, T> {
    fn get(&self) -> &T {
        match self {
            MaybeOwned::Owned(t) => t,
            MaybeOwned::Borrowed(t) => t,
        }
    }
}

/// Builder for a [`RunSession`] — the single way to construct engines.
pub struct RunBuilder<'s, S: IterativeSpec> {
    spec: &'s S,
    config: EngineConfig,
    pool: Option<WorkerPool>,
    store_plan: StorePlan<'s>,
    checkpointer: Option<MaybeOwned<'s, IterCheckpointer>>,
}

impl<'s, S: IterativeSpec> RunBuilder<'s, S> {
    /// Start a builder for `spec` with default configuration.
    pub fn new(spec: &'s S) -> Self {
        RunBuilder {
            spec,
            config: EngineConfig::default(),
            pool: None,
            store_plan: StorePlan::None,
            checkpointer: None,
        }
    }

    /// Replace the whole configuration.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the job shape (task/worker counts, retry budget).
    pub fn job(mut self, job: JobConfig) -> Self {
        self.config.job = job;
        self
    }

    /// Set the full-run iteration knobs (also the incremental fallback).
    pub fn iter(mut self, iter: IterParams) -> Self {
        self.config.iter = iter;
        self
    }

    /// Set the incremental-run knobs.
    pub fn incr(mut self, incr: IncrParams) -> Self {
        self.config.incr = incr;
        self
    }

    /// Set the store plane tunables (used when the session creates its
    /// stores; ignored for [`RunBuilder::stores`]).
    pub fn store_runtime(mut self, store: StoreRuntimeConfig) -> Self {
        self.config.store = store;
        self
    }

    /// Configure the telemetry plane (span tracing, live event counters,
    /// trace exporters). Off by default; `Off` runs are bit-identical to
    /// a build without telemetry wired at all.
    ///
    /// ```
    /// use i2mr_core::run::RunBuilder;
    /// # use i2mr_core::iterative::{DependencyKind, IterativeSpec};
    /// # use i2mr_mapred::types::{Emitter, Values};
    /// use i2mr_common::telemetry::{TelemetryConfig, TelemetryMode};
    /// # struct Noop;
    /// # impl IterativeSpec for Noop {
    /// #     type SK = u64; type SV = u64; type DK = u64; type DV = f64; type V2 = f64;
    /// #     fn project(&self, sk: &u64) -> u64 { *sk }
    /// #     fn map(&self, _s: &u64, _v: &u64, dk: &u64, dv: &f64, out: &mut Emitter<u64, f64>) {
    /// #         out.emit(*dk, *dv);
    /// #     }
    /// #     fn reduce(&self, _k: &u64, _p: &f64, vs: Values<'_, u64, f64>) -> f64 {
    /// #         vs.iter().sum()
    /// #     }
    /// #     fn init(&self, _k: &u64) -> f64 { 0.0 }
    /// #     fn difference(&self, c: &f64, p: &f64) -> f64 { (c - p).abs() }
    /// #     fn dependency(&self) -> DependencyKind { DependencyKind::OneToOne }
    /// # }
    /// # let spec = Noop;
    /// let session = RunBuilder::new(&spec)
    ///     .telemetry(TelemetryConfig::with_mode(TelemetryMode::Full))
    ///     .build()
    ///     .unwrap();
    /// // Live counters are visible mid-run, no drain needed:
    /// let snap = session.metrics_snapshot();
    /// assert_eq!(snap.counter("trace.task_start"), 0); // nothing ran yet
    /// ```
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Share an executor with other subsystems (cloning is cheap — the
    /// clone is a handle to the same worker threads). Without this, the
    /// session creates its own pool of `job.n_workers` workers.
    pub fn pool(mut self, pool: &WorkerPool) -> Self {
        self.pool = Some(pool.clone());
        self
    }

    /// Create a fresh store plane under `dir` (one shard per partition).
    pub fn store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_plan = StorePlan::Create(dir.into());
        self
    }

    /// Adopt an already-constructed store manager (e.g. one restored from
    /// a checkpoint via [`IterCheckpointer::load_stores`]).
    pub fn stores(mut self, stores: StoreManager) -> Self {
        self.store_plan = StorePlan::Adopt(stores);
        self
    }

    /// Borrow a caller-owned store manager. The caller keeps ownership —
    /// [`RunSession::finish`] settles it but returns `stores: None`.
    pub fn stores_ref(mut self, stores: &'s StoreManager) -> Self {
        self.store_plan = StorePlan::Borrow(stores);
        self
    }

    /// Enable per-iteration checkpointing under `job` on `dfs`. Job names
    /// must be unique per refresh (see [`IterCheckpointer`]). The cadence
    /// comes from [`EngineConfig::checkpoint_every`].
    pub fn checkpoint(mut self, dfs: &MiniDfs, job: impl Into<String>) -> Self {
        // n_partitions is stamped at build() time so the call order of
        // .job() and .checkpoint() doesn't matter.
        self.checkpointer = Some(MaybeOwned::Owned(IterCheckpointer::new(dfs, job, 0)));
        self
    }

    /// Borrow a caller-owned checkpointer. Its own partition count and
    /// cadence are trusted as-is — the caller configured it.
    pub fn checkpointer_ref(mut self, ck: &'s IterCheckpointer) -> Self {
        self.checkpointer = Some(MaybeOwned::Borrowed(ck));
        self
    }

    /// Validate the configuration and assemble the session.
    pub fn build(self) -> Result<RunSession<'s, S>> {
        self.config.validate()?;
        let pool = match self.pool {
            Some(p) => p,
            None => WorkerPool::new(self.config.job.n_workers),
        };
        let n = self.config.job.n_reduce;
        let stores = match self.store_plan {
            StorePlan::None => None,
            StorePlan::Create(dir) => Some(MaybeOwned::Owned(StoreManager::create(
                &pool,
                dir,
                n,
                self.config.store,
            )?)),
            StorePlan::Adopt(stores) => {
                if stores.n_shards() != n {
                    return Err(Error::config(
                        "adopted store plane's shard count does not match job.n_reduce",
                    ));
                }
                Some(MaybeOwned::Owned(stores))
            }
            StorePlan::Borrow(stores) => {
                if stores.n_shards() != n {
                    return Err(Error::config(
                        "borrowed store plane's shard count does not match job.n_reduce",
                    ));
                }
                Some(MaybeOwned::Borrowed(stores))
            }
        };
        let checkpointer = self.checkpointer.map(|ck| match ck {
            MaybeOwned::Owned(ck) => MaybeOwned::Owned(
                ck.with_partitions(n)
                    .with_cadence(self.config.checkpoint_every),
            ),
            borrowed => borrowed,
        });
        // Telemetry plane: one recorder sized to the pool (plus its driver
        // slot), installed on every subsystem that emits. With mode `Off`
        // there is no recorder and every install is a no-op `None`.
        let telemetry = Telemetry::new(self.config.telemetry.clone(), pool.n_workers());
        pool.set_recorder(telemetry.recorder_handle());
        if let Some(stores) = &stores {
            stores.get().set_recorder(telemetry.recorder_handle());
        }
        Ok(RunSession {
            spec: self.spec,
            config: self.config,
            pool,
            stores,
            checkpointer,
            telemetry,
        })
    }
}

/// A configured engine session: one spec, one executor, one (optional)
/// store plane, one (optional) checkpointer — and every refresh mode as a
/// method. Construct through [`RunBuilder`].
pub struct RunSession<'s, S: IterativeSpec> {
    spec: &'s S,
    config: EngineConfig,
    pool: WorkerPool,
    stores: Option<MaybeOwned<'s, StoreManager>>,
    checkpointer: Option<MaybeOwned<'s, IterCheckpointer>>,
    /// The session's telemetry plane (configuration + span recorder).
    /// The recorder handle is installed on the pool and stores at build
    /// time and detached by [`RunSession::finish`].
    telemetry: Telemetry,
}

/// What [`RunSession::finish`] hands back: the settled store plane (for
/// reuse by a later session or a checkpoint export) and the trailing
/// store-plane counters drained by the final settle.
pub struct SessionFinish {
    /// The settled store plane, if the session had one.
    pub stores: Option<StoreManager>,
    /// Counters of store work (compactions, reclaimed bytes, I/O) done
    /// after the last run settled.
    pub trailing: JobMetrics,
    /// The session's accumulated trace (`None` when telemetry was `Off`).
    /// Taken after the final settle, so trailing store-plane spans are
    /// included; the configured Chrome-trace / JSONL sinks have already
    /// been written from exactly this log.
    pub trace: Option<TraceLog>,
}

impl<'s, S: IterativeSpec> RunSession<'s, S> {
    /// The spec driving this session.
    pub fn spec(&self) -> &S {
        self.spec
    }

    /// The session's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The session's executor handle.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The session's store plane, if configured.
    pub fn stores(&self) -> Option<&StoreManager> {
        self.stores.as_ref().map(MaybeOwned::get)
    }

    /// The session's checkpointer, if configured.
    pub fn checkpointer(&self) -> Option<&IterCheckpointer> {
        self.checkpointer.as_ref().map(MaybeOwned::get)
    }

    /// The session's telemetry plane.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// A cheap point-in-time snapshot of the recorder's per-kind event
    /// counters and drop counter — callable mid-run from any thread, no
    /// drain or fence required (see
    /// [`crate::trace::Telemetry::snapshot`]).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.telemetry.snapshot()
    }

    /// Render the human-readable run report for `per_iteration` metrics
    /// (any run's `report.per_iteration`), including the telemetry section.
    pub fn render_report(&self, per_iteration: &[JobMetrics]) -> String {
        crate::trace::render_report(per_iteration, Some(&self.telemetry))
    }

    /// Run a full iterative computation (`config.iter`) until convergence
    /// or the iteration budget. Preservation (per `config.iter.preserve`)
    /// writes the session's store plane; checkpointing is on iff the
    /// builder configured a checkpointer.
    pub fn run_initial(
        &self,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
    ) -> Result<RunReport> {
        self.driver().iterate(data, self.config.iter, None)
    }

    /// Run an incremental refresh (`config.incr`) of a previously
    /// converged computation against `delta`: workset-driven MRBG passes,
    /// switching to full passes if the P∆ monitor trips. Requires a store
    /// plane.
    pub fn run_incremental(
        &self,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        delta: &Delta<S::SK, S::SV>,
    ) -> Result<RunReport> {
        self.refresh("run_incremental", data, delta, None)
    }

    /// [`RunSession::run_incremental`] for a spec that declares its update
    /// contract: the same refresh, with [`DeltaIterativeSpec::admissible`]
    /// debug-asserted on every reduce output of a `Monotonic` spec.
    pub fn run_delta(
        &self,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        delta: &Delta<S::SK, S::SV>,
    ) -> Result<RunReport>
    where
        S: DeltaIterativeSpec,
    {
        let spec = self.spec;
        let admissible = move |candidate: &S::DV, prev: &S::DV| spec.admissible(candidate, prev);
        let monotonic = spec.contract() == UpdateContract::Monotonic;
        self.refresh("run_delta", data, delta, monotonic.then_some(&admissible))
    }

    fn refresh(
        &self,
        what: &str,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        delta: &Delta<S::SK, S::SV>,
        admissible: Option<&Admissible<'_, S>>,
    ) -> Result<RunReport> {
        let refresh = Refresh {
            delta,
            params: self.config.incr,
            stores: self.stores_required(what)?,
            admissible,
        };
        let iter = IterParams {
            max_iterations: self.config.incr.max_iterations,
            epsilon: self.config.iter.epsilon,
            preserve: PreserveMode::None,
        };
        self.driver().iterate(data, iter, Some(refresh))
    }

    fn driver(&self) -> Driver<'_, S> {
        Driver::new(
            self.spec,
            self.config.job.n_reduce,
            &self.pool,
            self.stores(),
            self.checkpointer(),
            self.telemetry.recorder(),
        )
    }

    /// Settle the store plane exactly once — commit dirty shards, drain
    /// trailing counters — and hand the stores back. This is the
    /// *session-level* settle point: individual runs still settle their
    /// own reports, `finish` catches any store work done after the last
    /// run returned.
    pub fn finish(self) -> Result<SessionFinish> {
        let mut trailing = JobMetrics::default();
        if let Some(stores) = &self.stores {
            stores.get().settle_into(&mut trailing)?;
        }
        // Take the trace *after* the settle so trailing store-plane spans
        // are in the log, then write the configured sinks and detach the
        // recorder from every subsystem (the session's emitters outlive
        // the session only as inert handles).
        let trace = self.telemetry.export()?;
        self.pool.set_recorder(None);
        if let Some(stores) = &self.stores {
            stores.get().set_recorder(None);
        }
        let stores = match self.stores {
            Some(MaybeOwned::Owned(stores)) => Some(stores),
            // Borrowed planes stay with their owner (already settled).
            Some(MaybeOwned::Borrowed(_)) | None => None,
        };
        Ok(SessionFinish {
            stores,
            trailing,
            trace,
        })
    }

    fn stores_required(&self, what: &str) -> Result<&StoreManager> {
        self.stores().ok_or_else(|| {
            Error::config(format!(
                "{what} requires a store plane — configure RunBuilder::store_dir / stores"
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iter_engine::build_partitioned;
    use crate::iterative::{DependencyKind, PreserveMode};
    use i2mr_mapred::types::{Emitter, Values};

    /// Same toy contraction the engine tests use: x = 0.1 + 0.5x → 0.2.
    struct Averager;

    impl IterativeSpec for Averager {
        type SK = u64;
        type SV = Vec<u64>;
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

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "i2mr-run-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn default_config_is_valid() {
        EngineConfig::default().validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let mut c = EngineConfig::default();
        c.job.n_map = 2;
        c.job.n_reduce = 3;
        assert!(c.validate().is_err());

        let c = EngineConfig {
            checkpoint_every: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let mut c = EngineConfig::default();
        c.incr.pdelta_threshold = 0.0;
        assert!(c.validate().is_err());

        let mut c = EngineConfig::default();
        c.iter.epsilon = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_runs_the_initial_computation() {
        let spec = Averager;
        let session = RunBuilder::new(&spec)
            .job(JobConfig::symmetric(3))
            .iter(IterParams {
                max_iterations: 100,
                epsilon: 1e-12,
                preserve: PreserveMode::None,
            })
            .build()
            .unwrap();
        let mut data = build_partitioned(&spec, 3, ring(30));
        let report = session.run_initial(&mut data).unwrap();
        assert!(report.converged);
        for (_, v) in data.state_snapshot() {
            assert!((v - 0.2).abs() < 1e-9, "got {v}");
        }
        let fin = session.finish().unwrap();
        assert!(fin.stores.is_none());
    }

    #[test]
    fn builder_creates_and_returns_the_store_plane() {
        let spec = Averager;
        let dir = tmp("stores");
        let session = RunBuilder::new(&spec)
            .job(JobConfig::symmetric(2))
            .iter(IterParams {
                max_iterations: 5,
                epsilon: 0.0,
                preserve: PreserveMode::EveryIteration,
            })
            .store_dir(&dir)
            .build()
            .unwrap();
        let mut data = build_partitioned(&spec, 2, ring(16));
        session.run_initial(&mut data).unwrap();
        let fin = session.finish().unwrap();
        let stores = fin.stores.expect("session owned a store plane");
        for p in 0..2 {
            assert!(stores.get(p, &[]).is_ok(), "shard {p} is live");
        }
    }

    #[test]
    fn incremental_without_stores_is_a_config_error() {
        let spec = Averager;
        let session = RunBuilder::new(&spec)
            .job(JobConfig::symmetric(2))
            .build()
            .unwrap();
        let mut data = build_partitioned(&spec, 2, ring(8));
        let delta = Delta::new();
        assert!(session.run_incremental(&mut data, &delta).is_err());
    }

    #[test]
    fn adopted_stores_must_match_partitions() {
        let spec = Averager;
        let dir = tmp("mismatch");
        let pool = WorkerPool::new(2);
        let stores = StoreManager::create(&pool, &dir, 3, Default::default()).unwrap();
        let err = RunBuilder::new(&spec)
            .job(JobConfig::symmetric(2))
            .pool(&pool)
            .stores(stores)
            .build();
        assert!(err.is_err());
    }
}
