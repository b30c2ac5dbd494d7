//! # i2mr-core — the i2MapReduce engines
//!
//! This crate implements the paper's contribution on top of the substrates
//! (`i2mr-mapred`, `i2mr-store`, `i2mr-dfs`):
//!
//! * [`onestep`] — fine-grain incremental processing for one-step
//!   computation using the MRBGraph abstraction (paper §3).
//! * [`accumulator`] — the accumulator-Reduce fast path that skips the
//!   MRBGraph entirely for distributive aggregations (paper §3.5).
//! * [`iterative`] / [`iter_engine`] — the general-purpose iterative model
//!   with structure/state separation, the Project API, dependency-aware
//!   co-partitioning, and prime task co-location (paper §4), plus the
//!   small-state engine. Every partitioned run — initial, incremental or
//!   delta — is one fixed-point driver whose passes are of two kinds: a
//!   *full pass* over every key ([`iter_engine`]; with preservation off
//!   this is the `iterMR` baseline, with it on the initial run an
//!   incremental job continues from) or an *MRBG pass* over the workset.
//! * [`incr_iter`] — incremental iterative processing (paper §5): the MRBG
//!   pass, which maps, shuffles and reduces **only changed keys** against
//!   the converged state and the MRBGraph preserved in the store plane,
//!   with change propagation control; the P∆ monitor switches a refresh
//!   to full passes when the workset grows past its threshold.
//! * [`delta_iter`] — the update contracts ([`UpdateContract`]) a spec
//!   declares to run through [`run::RunSession::run_delta`].
//! * [`run`] — the single construction surface: a validated
//!   [`run::EngineConfig`] behind a [`run::RunBuilder`] that assembles a
//!   [`run::RunSession`] (initial/incremental/delta runs, serving
//!   handles, settled teardown).
//! * [`ingest`] — cursor-based ingestion: partitioned, sequence-numbered
//!   feeds consumed through high-water-mark [`ingest::IngestCursor`]s,
//!   with config/schema versioning and invalidations that trigger
//!   targeted recomputation via the delta engine.
//! * [`cpc`] — the change propagation filter (paper §5.3).
//! * [`checkpoint`] — per-iteration state/MRBGraph checkpoints (paper §6.1).
//! * [`delta`] — the `+`/`−` delta input representation (paper §3.3).
//! * [`output`] — maintained final outputs for patching refreshed results.
//! * [`tasklevel`] — an Incoop-style task-grain incremental baseline used
//!   by the grain ablation (paper §1, §8.1.1).
//! * [`trace`] — the session telemetry plane: the span recorder / metrics
//!   registry lifecycle ([`i2mr_common::telemetry`] holds the machinery),
//!   mid-run [`trace::Telemetry::snapshot`], exporter wiring, and the
//!   human-readable [`trace::render_report`].
//!
//! ## Quick example
//!
//! ```
//! use i2mr_core::delta::Delta;
//! use i2mr_core::onestep::OneStepEngine;
//! use i2mr_mapred::types::Values;
//! use i2mr_mapred::{Emitter, HashPartitioner, JobConfig, WorkerPool};
//!
//! // Sum of in-edge weights per vertex (the paper's Fig. 3 example).
//! let mapper = |_src: &u64, adj: &String, out: &mut Emitter<u64, f64>| {
//!     for e in adj.split(';').filter(|s| !s.is_empty()) {
//!         let (dst, w) = e.split_once(':').unwrap();
//!         out.emit(dst.parse().unwrap(), w.parse().unwrap());
//!     }
//! };
//! // `Values` borrows the group straight from the sorted shuffle run.
//! let reducer = |k: &u64, vs: Values<u64, f64>, out: &mut Emitter<u64, f64>| {
//!     out.emit(*k, vs.iter().sum());
//! };
//!
//! let dir = std::env::temp_dir().join("i2mr-doc-example");
//! let _ = std::fs::remove_dir_all(&dir);
//! // One persistent executor serves the engine's compute phases and its
//! // store plane alike.
//! let pool = WorkerPool::new(2);
//! let mut engine: OneStepEngine<u64, String, u64, f64, u64, f64> =
//!     OneStepEngine::create(&pool, dir, JobConfig::symmetric(2), Default::default()).unwrap();
//!
//! let input = vec![(0u64, "1:0.3;2:0.3".to_string()), (1, "2:0.4".to_string())];
//! engine.initial(&input, &mapper, &HashPartitioner, &reducer).unwrap();
//!
//! let mut delta = Delta::new();
//! delta.insert(3, "2:0.5".to_string());
//! engine.incremental(&delta, &mapper, &HashPartitioner, &reducer).unwrap();
//!
//! let out = engine.output();
//! let v2 = out.iter().find(|(k, _)| *k == 2).unwrap().1;
//! assert!((v2 - 1.2).abs() < 1e-9); // 0.3 + 0.4 + 0.5
//! ```

pub mod accumulator;
pub mod checkpoint;
pub mod cpc;
pub mod delta;
pub mod delta_iter;
mod driver;
pub mod incr_iter;
pub mod ingest;
pub mod iter_engine;
pub mod iterative;
pub mod onestep;
pub mod output;
pub mod run;
pub mod tasklevel;
pub mod trace;

pub use accumulator::{Accumulator, AccumulatorEngine};
pub use checkpoint::IterCheckpointer;
pub use cpc::{ChangePropagation, Verdict};
pub use delta::{Delta, DeltaRecord, Op};
pub use delta_iter::{DeltaIterativeSpec, UpdateContract};
pub use incr_iter::IncrParams;
pub use ingest::{FeedItem, IngestBatch, IngestCursor, IngestSource, MemSource};
pub use iter_engine::{
    build_partitioned, build_small_state, PartitionedData, RunReport, SmallStateData,
    SmallStateIterEngine,
};
pub use iterative::{
    DependencyKind, IterParams, IterationStats, IterativeSpec, PreserveMode, SmallStateSpec,
};
pub use onestep::OneStepEngine;
pub use output::ResultStore;
pub use run::{EngineConfig, RunBuilder, RunSession, SessionFinish};
pub use tasklevel::{ReuseStats, TaskLevelEngine};
pub use trace::{render_report, Telemetry};
