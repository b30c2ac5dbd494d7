//! MRBG-Store: preservation and retrieval of fine-grain MRBGraph states.
//!
//! The MRBGraph (paper §3.2) models the kv-pair level data flow of a
//! MapReduce job as a bipartite graph; its edges `(K2, MK, V2)` are the
//! fine-grain state that incremental processing re-uses. This crate is the
//! storage engine for those edges (paper §3.4, §5.2):
//!
//! * [`mod@format`] — the chunk file format: all edges with the same K2 are
//!   stored contiguously as a *chunk*, the unit of every read and write.
//! * [`index`] — the hash index mapping K2 → chunk position, persisted to an
//!   index file and preloaded before incremental reduce.
//! * [`append`] — the append buffer: merge outputs are appended in batches
//!   of sorted chunks; obsolete chunks are *not* eagerly removed.
//! * [`window`] — the dynamic read-window size computation (Algorithm 1)
//!   and its multi-batch extension (multi-dynamic-window, §5.2 / Fig. 7).
//! * [`query`] — the four query strategies compared in Table 4:
//!   index-only, single-fix-window, multi-fix-window, multi-dynamic-window.
//! * [`merge`] — the index nested-loop join of a delta MRBGraph with the
//!   stored MRBGraph (deletions first, then upserts), done on raw frames:
//!   stored entries are walked as borrowed slices and merged straight
//!   into one batch buffer, which Reduce then reads in place.
//! * [`compact`] — offline reconstruction dropping obsolete chunks, plus
//!   the [`CompactionPolicy`] deciding when it pays off.
//! * [`store`] — [`MrbgStore`], the per-reduce-task facade tying it
//!   together; deferred merges keep their frames in a pending set that
//!   the commit writes back once per refresh.
//! * [`runtime`] — [`StoreManager`], the store runtime layer owning all
//!   per-partition stores: sharded partition-affine merges on the worker
//!   pool, a split read path, and policy-driven compaction at the pass
//!   fence.
//! * [`serve`] — [`ServeHandle`], the serving plane: concurrent
//!   point/window lookups of live results over per-shard reader pools
//!   with a version-invalidated hot-key cache, fanned out on the
//!   executor's Serve lane.
//!
//! # Keys are opaque bytes
//!
//! The store works on encoded key/value bytes ("bytes at rest, types in
//! flight", DESIGN.md §6). It never orders keys itself: chunks are written
//! in the order the engine appends them (the shuffle's K2 sort order), and
//! query passes promise to request keys in that same order — which is what
//! makes forward-only read windows correct.
//!
//! # Unix only
//!
//! Every read of a data file is one positional read
//! ([`std::os::unix::fs::FileExt::read_exact_at`], a single `pread`) that
//! leaves the file cursor alone, so the store builds on unix targets only.

pub mod append;
pub mod compact;
pub mod format;
pub mod index;
pub mod merge;
pub mod query;
pub mod runtime;
pub mod serve;
pub mod store;
pub mod window;

pub use compact::{CompactionPolicy, CompactionStats};
pub use format::{
    decode_framed, encode_framed, frame_checksum, frame_entries, valid_frame_prefix, Chunk,
    ChunkEntry, FRAME_OVERHEAD,
};
pub use index::{BatchInfo, ChunkIndex, ChunkLoc};
pub use merge::{DeltaChunk, DeltaEntry, MergedBatch};
pub use query::QueryStrategy;
pub use runtime::{StoreManager, StoreRuntimeConfig};
pub use serve::{ServeConfig, ServeHandle, ServeMetrics};
pub use store::{ChunksIter, MrbgStore, StoreConfig, StoreReader};
