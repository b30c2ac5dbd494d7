//! # i2mapreduce — incremental MapReduce for mining evolving big data
//!
//! A from-scratch Rust reproduction of *i2MapReduce: Incremental MapReduce
//! for Mining Evolving Big Data* (Zhang, Chen, Wang, Yu — ICDE 2016).
//!
//! As new data arrives, the results of big-data mining computations go
//! stale. i2MapReduce refreshes them **incrementally** instead of
//! re-computing from scratch, by
//!
//! * preserving the kv-pair-level data flow of a MapReduce job (the
//!   **MRBGraph**) in an I/O-optimized store ([`store`]),
//! * re-invoking Map only for changed records and Reduce only for affected
//!   intermediate keys (`core::onestep`),
//! * supporting general-purpose **iterative** computation with
//!   structure/state separation and the Project API (`core::iterative`),
//! * refreshing iterative results from the previous converged state with
//!   **change propagation control**, scheduling **only changed keys**
//!   through the data plane (`core::incr_iter`).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`common`] | `i2mr-common` | codec, stable hashing, metrics, cost model |
//! | [`dfs`] | `i2mr-dfs` | mini block filesystem + checkpoints |
//! | [`mapred`] | `i2mr-mapred` | MapReduce engine substrate |
//! | [`store`] | `i2mr-store` | the MRBG-Store |
//! | [`core`] | `i2mr-core` | the i2MapReduce engines |
//! | [`memflow`] | `i2mr-memflow` | Spark-like in-memory comparator |
//! | [`datagen`] | `i2mr-datagen` | synthetic workloads and deltas |
//! | [`algos`] | `i2mr-algos` | PageRank, SSSP, Kmeans, GIM-V, APriori |
//!
//! Start with `examples/quickstart.rs`, then `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for the paper-reproduction results.

pub use i2mr_algos as algos;
pub use i2mr_common as common;
pub use i2mr_core as core;
pub use i2mr_datagen as datagen;
pub use i2mr_dfs as dfs;
pub use i2mr_mapred as mapred;
pub use i2mr_memflow as memflow;
pub use i2mr_store as store;

/// Convenience prelude for applications.
pub mod prelude {
    pub use i2mr_core::{
        Accumulator, AccumulatorEngine, Delta, DeltaIterativeSpec, EngineConfig, IncrParams,
        IterParams, IterativeSpec, OneStepEngine, PreserveMode, RunBuilder, RunReport, RunSession,
        SmallStateSpec, UpdateContract,
    };
    pub use i2mr_mapred::{
        Emitter, HashPartitioner, JobConfig, Mapper, Reducer, Values, WorkerPool,
    };
    pub use i2mr_store::{MrbgStore, QueryStrategy, StoreConfig};
}
