//! Store-plane equivalence: the sharded, policy-compacting store runtime
//! on a many-worker pool must be **byte-identical** to the same runtime on
//! a one-worker pool that never compacts.
//!
//! The store runtime changes *where* and *when* store work happens —
//! merges as concurrent partition-affine pool tasks, compaction run by
//! policy at each pass fence — but must never change *what* the store
//! holds. These tests drive a seeded incremental PageRank refresh through
//! both planes and compare: final state bit-for-bit, and every shard's
//! canonical export byte-for-byte after a closing compaction.
//!
//! CI runs this file under the `ci` profile (release + debug assertions),
//! so `append_batch`'s canonical-batch-order debug-asserts are armed.

use i2mapreduce::algos::pagerank::{self, PageRank};
use i2mapreduce::core::incr_iter::IncrParams;
use i2mapreduce::core::iterative::PreserveMode;
use i2mapreduce::datagen::delta::{graph_delta, DeltaSpec};
use i2mapreduce::datagen::graph::GraphGen;
use i2mapreduce::prelude::*;
use i2mapreduce::store::{CompactionPolicy, StoreManager, StoreRuntimeConfig};

const N: usize = 4;

fn scratch(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("i2mr-store-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Run the full seeded PageRank lifecycle — preserved initial convergence
/// plus two incremental delta refreshes — on a pool of `workers` threads.
/// Returns the final state snapshot, the manager, and the compaction count
/// the engines recorded along the way.
fn run_lifecycle(
    tag: &str,
    workers: usize,
    runtime: StoreRuntimeConfig,
) -> (Vec<(u64, f64)>, StoreManager, u64) {
    let cfg = JobConfig::symmetric(N);
    let pool = WorkerPool::new(workers);
    let spec = PageRank::default();
    let graph = GraphGen::new(300, 2100, 0x5EED).generate();

    // EveryIteration preservation piles up one batch per iteration, so the
    // sharded plane's compaction policy genuinely fires mid-run.
    let (mut data, stores, initial_run) = pagerank::i2mr_initial(
        &pool,
        &cfg,
        &graph,
        &spec,
        &scratch(tag),
        runtime,
        300,
        1e-10,
        PreserveMode::EveryIteration,
    )
    .unwrap();

    let mut compactions = initial_run.metrics.store_compactions;
    let mut cur = graph;
    for round in 0..2u64 {
        let delta = graph_delta(
            &cur,
            DeltaSpec {
                change_fraction: 0.08,
                delete_fraction: 0.1,
                insert_fraction: 0.02,
                seed: 0xACE + round,
            },
        );
        let (report, run) = pagerank::i2mr_incremental(
            &pool,
            &cfg,
            &mut data,
            &stores,
            &spec,
            &delta,
            IncrParams {
                max_iterations: 400,
                convergence_epsilon: 1e-9,
                ..Default::default()
            },
            None,
        )
        .unwrap();
        assert!(report.converged, "{tag}: round {round} did not converge");
        compactions += run.metrics.store_compactions;
        cur = delta.apply_to(&cur);
    }
    (data.state_snapshot(), stores, compactions)
}

/// An eager policy so compaction provably fires between the run's passes
/// even at test-sized stores.
fn eager_sharded() -> StoreRuntimeConfig {
    StoreRuntimeConfig {
        policy: CompactionPolicy {
            min_garbage_ratio: 0.2,
            min_batches: 3,
            min_file_bytes: 0,
        },
        ..Default::default()
    }
}

/// The reference plane's runtime, run on one worker: no policy-driven
/// compaction.
fn never_compacting() -> StoreRuntimeConfig {
    StoreRuntimeConfig {
        policy: CompactionPolicy::never(),
        ..Default::default()
    }
}

#[test]
fn sharded_compaction_plane_is_byte_identical_to_one_worker_plane() {
    let (serial_state, serial_mgr, serial_compactions) =
        run_lifecycle("serial", 1, never_compacting());
    let (sharded_state, sharded_mgr, sharded_compactions) =
        run_lifecycle("sharded", N, eager_sharded());

    // The planes must actually differ in behavior for this test to prove
    // anything: the one-worker plane never compacts, the sharded plane's
    // policy fires during the run.
    assert_eq!(serial_compactions, 0, "one-worker plane must never compact");
    assert!(
        sharded_compactions > 0,
        "sharded plane's compaction policy never fired mid-run"
    );

    // State: exactly equal, not merely close — the planes run the same
    // per-partition computation in the same order.
    assert_eq!(serial_state, sharded_state, "state snapshots diverged");

    // Stores: after a closing compaction, every shard's canonical export
    // (live chunks, lexicographic order, fresh offsets) must match
    // byte-for-byte, regardless of how differently the two planes batched
    // and reclaimed along the way. (Each manager schedules on its own
    // executor handle now — no pool to thread through.)
    serial_mgr.compact_all(u64::MAX).unwrap();
    sharded_mgr.compact_all(u64::MAX).unwrap();
    for p in 0..N {
        assert_eq!(
            serial_mgr.export(p).unwrap(),
            sharded_mgr.export(p).unwrap(),
            "shard {p}: one-worker and sharded store contents diverged"
        );
    }
}

#[test]
fn compaction_is_idempotent_on_a_real_run() {
    let (_, mgr, _) = run_lifecycle("idem", N, eager_sharded());

    mgr.compact_all(1).unwrap();
    let exports: Vec<Vec<u8>> = (0..N).map(|p| mgr.export(p).unwrap()).collect();
    let reclaimed_again = mgr.compact_all(2).unwrap();
    assert_eq!(reclaimed_again, 0, "second compaction must reclaim nothing");
    for (p, want) in exports.iter().enumerate() {
        assert_eq!(
            &mgr.export(p).unwrap(),
            want,
            "shard {p}: compaction is not idempotent"
        );
        mgr.with_store_ref(p, |s| assert_eq!(s.n_batches(), 1));
    }
}
