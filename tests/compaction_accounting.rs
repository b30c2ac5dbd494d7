//! Compaction accounting is deterministic.
//!
//! Policy-driven compaction runs synchronously at each pass fence, after
//! the pass's store counters are drained, so its counters land in the
//! next drain (or the run's settle) — the same slot on every run of the
//! same seeded inputs. Two identical eager-policy lifecycles must report
//! identical per-iteration `store_compactions`, and the reported total
//! must equal the `StoreOp { op: Compact }` spans in the trace.

use i2mapreduce::algos::pagerank::PageRank;
use i2mapreduce::common::telemetry::{
    EventKind, StoreOpKind, TelemetryConfig, TelemetryMode, TraceLog,
};
use i2mapreduce::core::build_partitioned;
use i2mapreduce::datagen::delta::{graph_delta, DeltaSpec};
use i2mapreduce::datagen::graph::GraphGen;
use i2mapreduce::prelude::*;
use i2mapreduce::store::{CompactionPolicy, StoreRuntimeConfig};

const N: usize = 4;

fn scratch(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "i2mr-compact-acct-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A seeded PageRank lifecycle on one traced session: an initial run
/// preserving every iteration (one batch per pass, so the eager policy
/// fires mid-run) plus two incremental refreshes. Returns every
/// iteration's `store_compactions` in run order (the session's trailing
/// settle last) and the session's trace.
fn lifecycle(tag: &str) -> (Vec<u64>, TraceLog) {
    let spec = PageRank::default();
    let graph = GraphGen::new(200, 1400, 0xC0A7).generate();
    let session = RunBuilder::new(&spec)
        .pool(&WorkerPool::new(N))
        .job(JobConfig::symmetric(N))
        .iter(IterParams {
            max_iterations: 40,
            epsilon: 1e-9,
            preserve: PreserveMode::EveryIteration,
        })
        .incr(IncrParams {
            max_iterations: 80,
            convergence_epsilon: 1e-9,
            ..Default::default()
        })
        .store_runtime(StoreRuntimeConfig {
            policy: CompactionPolicy {
                min_garbage_ratio: 0.2,
                min_batches: 3,
                min_file_bytes: 0,
            },
            ..Default::default()
        })
        .telemetry(TelemetryConfig::with_mode(TelemetryMode::Full))
        .store_dir(scratch(tag))
        .build()
        .unwrap();
    let mut data = build_partitioned(&spec, N, graph.clone());
    let mut reports = vec![session.run_initial(&mut data).unwrap()];
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
        reports.push(session.run_incremental(&mut data, &delta).unwrap());
        cur = delta.apply_to(&cur);
    }
    let fin = session.finish().unwrap();
    let mut compactions: Vec<u64> = reports
        .iter()
        .flat_map(|r| r.per_iteration.iter().map(|m| m.store_compactions))
        .collect();
    compactions.push(fin.trailing.store_compactions);
    (compactions, fin.trace.expect("Full mode keeps a trace"))
}

#[test]
fn compaction_counts_land_in_the_same_iterations_every_run() {
    let (first, first_log) = lifecycle("a");
    let (second, second_log) = lifecycle("b");
    assert!(
        first.iter().sum::<u64>() > 0,
        "the eager policy never fired — test is vacuous"
    );
    assert_eq!(
        first, second,
        "per-iteration store_compactions differ between identical runs"
    );
    for (counts, log) in [(&first, &first_log), (&second, &second_log)] {
        assert_eq!(log.dropped(), 0, "events dropped");
        let spans = log
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::StoreOp {
                        op: StoreOpKind::Compact,
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(
            counts.iter().sum::<u64>(),
            spans,
            "reported compactions != Compact spans in the trace"
        );
    }
}
