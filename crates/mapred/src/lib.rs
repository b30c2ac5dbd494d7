//! A multi-threaded MapReduce engine standing in for Hadoop.
//!
//! This crate is the *substrate* the paper modifies: a classic MapReduce
//! runtime with real map, shuffle, sort, and reduce phases (paper §2). It
//! provides:
//!
//! * [`types`] — `Mapper` / `Reducer` traits and the `Emitter` collection
//!   context, with blanket impls for closures.
//! * [`partition`] — the `Partitioner` abstraction plus the stable
//!   [`partition::HashPartitioner`] every engine shares. Stability across
//!   jobs is what lets job `A'` find the MRBG-Store chunks job `A` wrote.
//! * [`pool`] — a worker-thread pool with task affinity and
//!   retry-on-failure; every attempt is traced as `TaskStart`/`TaskEnd`
//!   events to the installed recorder (the Fig. 13 reproduction reads its
//!   recoveries from there).
//! * [`fault`] — deterministic fault injection plans.
//! * [`shuffle`] — partitioning, byte metering, sorting, and key-grouping
//!   helpers shared by the vanilla engine and the i2MapReduce engines.
//! * [`job`] — the **vanilla engine**: the `plainMR` baseline in the paper's
//!   experiments, also reused by the HaLoop-style baseline driver.
//!
//! The i2MapReduce-specific engines (fine-grain incremental one-step,
//! general-purpose iterative, incremental iterative) live in `i2mr-core` and
//! are built from these pieces, mirroring how the original system was built
//! by modifying Hadoop-1.0.3 (paper §7).

pub mod config;
pub mod fault;
pub mod job;
pub mod partition;
pub mod pool;
pub mod shuffle;
pub mod types;

pub use config::JobConfig;
pub use fault::{FaultPlan, FaultSpec, TaskId, TaskKind};
pub use job::{JobRun, MapReduceJob};
pub use partition::{HashPartitioner, Partitioner};
pub use pool::{TaskSpec, WorkerPool};
pub use shuffle::RunPool;
pub use types::{Emitter, KeyData, Mapper, Reducer, ValueData, Values};
