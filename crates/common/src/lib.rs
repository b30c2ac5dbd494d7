//! Shared kernel for the i2MapReduce reproduction.
//!
//! This crate deliberately has no knowledge of MapReduce itself. It provides
//! the low-level building blocks every other crate relies on:
//!
//! * [`hash`] — a stable, seedable xxhash64 implementation plus the 128-bit
//!   `MK` (map-instance key) derivation the incremental engine depends on.
//!   Stability across process runs matters because MRBGraph files written by
//!   job `A` are read back and merged by job `A'`.
//! * [`codec`] — a hand-rolled, length-prefixed binary codec used for all
//!   at-rest data (MRBGraph chunks, state files, checkpoints). Keeping the
//!   format in-repo means the on-disk layout is fully specified here.
//! * [`error`] — the common error type.
//! * [`metrics`] — per-stage timing, I/O counters, and job metrics matching
//!   the breakdowns reported in the paper's Fig. 9 and Table 4.
//! * [`costmodel`] — the additive cluster cost model used to translate
//!   single-machine measurements into cluster-shaped runtimes (see
//!   `DESIGN.md` §1: substitutions).
//! * [`failpoint`] — seeded, deterministic fault-injection sites used by the
//!   chaos suites to strike inside store I/O, DFS reads, checkpoint writes,
//!   and task bodies (paper §8.8 / Fig. 13).
//! * [`telemetry`] — the telemetry plane: a lock-light span/event
//!   [`telemetry::TraceRecorder`] with per-worker ring buffers and explicit
//!   drop counters, a live [`telemetry::MetricsRegistry`] with its
//!   [`telemetry::LatencyHistogram`]s, Chrome/JSONL trace exporters, and
//!   the paper-table extractors [`telemetry::fig9`] / [`telemetry::table4`]
//!   (see DESIGN.md §10).

#![warn(missing_docs)]

pub mod codec;
pub mod costmodel;
pub mod error;
pub mod failpoint;
pub mod hash;
pub mod metrics;
pub mod telemetry;

pub use codec::{decode_from, encode_to, Codec};
pub use error::{Error, Result};
pub use failpoint::{FailAction, FailSite, FailpointRegistry};
pub use hash::{stable_hash128, stable_hash64, MapKey};
pub use metrics::{IoStats, JobMetrics, Stage, StageTimes};
pub use telemetry::{
    EventKind, HistogramSnapshot, LatencyHistogram, MetricsRegistry, MetricsSnapshot, ServeOutcome,
    StoreOpKind, TaskRef, TelemetryConfig, TelemetryMode, TraceEvent, TraceLog, TraceRecorder,
    WorkerTrace,
};
