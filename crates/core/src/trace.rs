//! The engine-side telemetry wiring: one [`Telemetry`] plane per
//! [`crate::run::RunSession`].
//!
//! The recording machinery itself lives in [`i2mr_common::telemetry`] (span
//! recorder, metrics registry, exporters, fig9/table4 extractors); this
//! module owns the *lifecycle*:
//!
//! 1. `Telemetry::new` sizes a [`TraceRecorder`] to the session's worker
//!    pool (`n_workers` slots plus the driver slot for coordinator /
//!    store-plane / serving emissions) and allocates the session's
//!    [`MetricsRegistry`].
//! 2. `RunSession::build` installs the recorder on the executor and the
//!    store plane; the ingestion front and the engines emit through the
//!    same handle.
//! 3. Mid-run, [`Telemetry::snapshot`] folds the recorder's per-kind
//!    counters and drop counter into a cheap point-in-time
//!    [`MetricsSnapshot`] — live visibility, replacing the old
//!    drain-only-at-fence model. The recorder is the executor's only
//!    record of task attempts; nothing else buffers them.
//! 4. `RunSession::finish` takes the accumulated [`TraceLog`], writes the
//!    configured Chrome-trace / JSONL sinks, and detaches the recorder
//!    from every subsystem.
//!
//! With [`TelemetryMode::Off`] (the default) no recorder exists and every
//! emission site is a skipped `if let` on `None` — runs are bit-identical
//! to the pre-telemetry engine (`tests/trace_equivalence.rs` proves it).

use i2mr_common::error::{Error, Result};
use i2mr_common::metrics::{JobMetrics, Stage};
use i2mr_common::telemetry::{
    EventKind, MetricsRegistry, MetricsSnapshot, TelemetryConfig, TelemetryMode, TraceLog,
    TraceRecorder,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A session's telemetry plane: configuration, the shared span recorder
/// (absent when the mode is [`TelemetryMode::Off`]), and the live metrics
/// registry.
pub struct Telemetry {
    config: TelemetryConfig,
    recorder: Option<Arc<TraceRecorder>>,
    registry: Arc<MetricsRegistry>,
}

impl Telemetry {
    /// Build the plane for a pool of `n_workers`. `Counters` and `Full`
    /// modes allocate a recorder (the recorder itself keeps `Counters`
    /// cheap — per-kind atomics only, no ring writes); `Off` allocates
    /// nothing.
    pub(crate) fn new(config: TelemetryConfig, n_workers: usize) -> Self {
        let recorder =
            match config.mode {
                TelemetryMode::Off => None,
                TelemetryMode::Counters | TelemetryMode::Full => Some(Arc::new(
                    TraceRecorder::new(config.mode, n_workers, config.ring_capacity),
                )),
            };
        Telemetry {
            config,
            recorder,
            registry: Arc::new(MetricsRegistry::new()),
        }
    }

    /// The configuration this plane runs under.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// The shared span recorder (`None` when the mode is `Off`).
    pub fn recorder(&self) -> Option<&Arc<TraceRecorder>> {
        self.recorder.as_ref()
    }

    /// A cloned recorder handle, for installing on subsystems.
    pub(crate) fn recorder_handle(&self) -> Option<Arc<TraceRecorder>> {
        self.recorder.clone()
    }

    /// The session's live metrics registry (shared with serving handles).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// A cheap point-in-time snapshot of everything live: registry
    /// counters/gauges/histograms, the recorder's per-kind event counters
    /// (`trace.*`) and drop counter (`trace.dropped_events`) — callable
    /// mid-run, no drains.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.registry.snapshot();
        if let Some(rec) = &self.recorder {
            for (name, count) in rec.kind_counts() {
                snap.counters.insert(format!("trace.{name}"), count);
            }
            snap.counters
                .insert("trace.dropped_events".to_string(), rec.dropped_events());
        }
        snap
    }

    /// Take the accumulated trace and write the configured sinks. Returns
    /// the log so the caller can hand it to the [`crate::run::SessionFinish`].
    /// With no recorder this is `None` and nothing is written.
    pub(crate) fn export(&self) -> Result<Option<TraceLog>> {
        let Some(rec) = &self.recorder else {
            return Ok(None);
        };
        let log = rec.take();
        if let Some(path) = &self.config.chrome_trace_path {
            std::fs::write(path, log.to_chrome_json()).map_err(|e| {
                Error::config(format!("telemetry: writing {}: {e}", path.display()))
            })?;
        }
        if let Some(path) = &self.config.jsonl_path {
            std::fs::write(path, log.to_jsonl()).map_err(|e| {
                Error::config(format!("telemetry: writing {}: {e}", path.display()))
            })?;
        }
        Ok(Some(log))
    }
}

/// Fold one stage's elapsed wall time into `metrics.stages` *and* emit the
/// same reading as a [`EventKind::StageSample`].
///
/// The single `elapsed` value feeds both sinks, so
/// [`i2mr_common::telemetry::fig9`] reconstructed from a trace equals the
/// drained `JobMetrics::stages` accumulator exactly — not approximately.
pub(crate) fn add_stage(
    rec: Option<&Arc<TraceRecorder>>,
    metrics: &mut JobMetrics,
    stage: Stage,
    iteration: u64,
    elapsed: Duration,
) {
    metrics.stages.add(stage, elapsed);
    if let Some(r) = rec {
        r.emit_driver(EventKind::StageSample {
            stage,
            iteration,
            nanos: elapsed.as_nanos() as u64,
        });
    }
}

/// Emit a [`EventKind::CheckpointSave`] span for an iteration checkpoint
/// that started at `t`.
pub(crate) fn emit_checkpoint_save(rec: Option<&Arc<TraceRecorder>>, iteration: u64, t: Instant) {
    if let Some(r) = rec {
        r.emit_driver(EventKind::CheckpointSave {
            iteration,
            nanos: t.elapsed().as_nanos() as u64,
        });
    }
}

/// Emit a [`EventKind::CheckpointRestore`] span for a rewind to
/// `iteration` that took `elapsed`.
pub(crate) fn emit_checkpoint_restore(
    rec: Option<&Arc<TraceRecorder>>,
    iteration: u64,
    elapsed: Duration,
) {
    if let Some(r) = rec {
        r.emit_driver(EventKind::CheckpointRestore {
            iteration,
            nanos: elapsed.as_nanos() as u64,
        });
    }
}

/// Render the human-readable run report: one line per iteration (stage
/// wall times and headline counters), a totals section covering **every**
/// [`JobMetrics`] counter (via the drift-proof
/// [`JobMetrics::report_lines`]), and a telemetry section with per-kind
/// event counts and the recorder's drop counter — surfaced here so a
/// truncated trace is never mistaken for a complete one.
pub fn render_report(per_iteration: &[JobMetrics], telemetry: Option<&Telemetry>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "run report ({} iterations)\n",
        per_iteration.len()
    ));
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    for (i, m) in per_iteration.iter().enumerate() {
        out.push_str(&format!(
            "  iter {:>3}: map {:.2}ms shuffle {:.2}ms sort {:.2}ms reduce {:.2}ms \
             | shuffled {} rec | retries {}\n",
            i + 1,
            ms(m.stages.get(Stage::Map)),
            ms(m.stages.get(Stage::Shuffle)),
            ms(m.stages.get(Stage::Sort)),
            ms(m.stages.get(Stage::Reduce)),
            m.shuffled_records,
            m.retries,
        ));
    }
    let mut total = JobMetrics::default();
    for m in per_iteration {
        total.merge(m);
    }
    out.push_str("totals:\n");
    for line in total.report_lines() {
        out.push_str(&format!("  {line}\n"));
    }
    out.push_str("telemetry:\n");
    match telemetry.and_then(Telemetry::recorder) {
        Some(rec) => {
            for (name, count) in rec.kind_counts() {
                if count > 0 {
                    out.push_str(&format!("  trace.{name} {count}\n"));
                }
            }
            out.push_str(&format!(
                "  trace.dropped_events {}\n",
                rec.dropped_events()
            ));
        }
        None => out.push_str("  (tracing off)\n"),
    }
    out
}
