//! Fig. 13: fault recovery progress.
//!
//! The paper runs PageRank with 64 prime map + 64 prime reduce tasks over
//! 7 iterations, randomly injects 3 task errors, and plots per-task
//! execution progress: all failed tasks recover within ~12 s (heartbeat
//! detection + relaunch) and failures that finish before the iteration
//! barrier do not prolong the computation.
//!
//! Here the same 7-iteration PageRank job runs with the paper's 3 task
//! errors at a 40 ms detection delay, traced in `TelemetryMode::Full`, and
//! the figure's data is read off that trace: exactly 3 attempts fail, each
//! failed task restarts within a bounded window past the detection delay,
//! and the faulty run's ranks are bit-exact against a clean run. This is a
//! printing target: at this scale a faulted-vs-clean wall-time ratio is
//! within run-to-run noise, so no timing is gated.

use i2mr_algos::pagerank::PageRank;
use i2mr_bench::{banner, sized};
use i2mr_common::telemetry::{
    recovery_latencies, EventKind, TelemetryConfig, TelemetryMode, TraceLog,
};
use i2mr_core::iter_engine::build_partitioned;
use i2mr_core::iterative::{IterParams, PreserveMode};
use i2mr_core::run::RunBuilder;
use i2mr_datagen::graph::GraphGen;
use i2mr_mapred::fault::{FaultPlan, FaultSpec, TaskKind};
use i2mr_mapred::{JobConfig, WorkerPool};
use std::sync::Arc;
use std::time::Duration;

const N_TASKS: usize = 16;
const N_WORKERS: usize = 8;
const ITERS: u64 = 7;

/// The paper's three errors: map task in iteration 3, reduce task in
/// iteration 6, map task in iteration 7 (all on their first attempt).
fn paper_faults() -> Arc<FaultPlan> {
    Arc::new(FaultPlan::new(vec![
        FaultSpec {
            kind: TaskKind::Map,
            index: 7 % N_TASKS,
            iteration: Some(3),
            attempt: 1,
        },
        FaultSpec {
            kind: TaskKind::Reduce,
            index: 11 % N_TASKS,
            iteration: Some(6),
            attempt: 1,
        },
        FaultSpec {
            kind: TaskKind::Map,
            index: 14 % N_TASKS,
            iteration: Some(7),
            attempt: 1,
        },
    ]))
}

/// One full 7-iteration PageRank job on `pool`, traced in `Full` mode;
/// returns the final ranks and the session's trace.
fn run_job(pool: &WorkerPool) -> (Vec<(u64, f64)>, TraceLog) {
    let spec = PageRank::default();
    let graph = GraphGen::new(sized(3000), sized(24_000), 0xF13).generate();
    let session = RunBuilder::new(&spec)
        .pool(pool)
        .job(JobConfig {
            n_map: N_TASKS,
            n_reduce: N_TASKS,
            n_workers: N_WORKERS,
        })
        .iter(IterParams {
            max_iterations: ITERS,
            epsilon: 0.0,
            preserve: PreserveMode::None,
        })
        .telemetry(TelemetryConfig::with_mode(TelemetryMode::Full))
        .build()
        .unwrap();
    let mut data = build_partitioned(&spec, N_TASKS, graph);
    let report = session.run_initial(&mut data).expect("run");
    assert_eq!(report.iterations.len(), ITERS as usize);
    let trace = session.finish().expect("finish").trace.expect("Full trace");
    (data.state_snapshot(), trace)
}

/// Figure shape at the paper-faithful 40 ms detection delay: 3 failures,
/// each recovered within a bounded window, result bit-exact vs clean.
fn summarize() {
    let detection = Duration::from_millis(40);
    banner(
        "Fig. 13",
        "fault recovery: 3 injected task errors, recoveries read from the trace",
        &format!(
            "{}-vertex PageRank, {N_TASKS} prime map/reduce tasks, {ITERS} iterations, \
             {} ms detection delay",
            sized(3000),
            detection.as_millis()
        ),
    );
    let faulty_pool = WorkerPool::with_faults(N_WORKERS, 3, detection, paper_faults());
    let (faulted, trace) = run_job(&faulty_pool);
    let (clean, _) = run_job(&WorkerPool::new(N_WORKERS));

    let max_diff = faulted
        .iter()
        .zip(&clean)
        .map(|((_, x), (_, y))| (x - y).abs())
        .fold(0.0, f64::max);

    let failures = trace.count_matching(|k| matches!(k, EventKind::TaskEnd { ok: false, .. }));
    let recoveries = recovery_latencies(&trace);
    for (task, latency) in &recoveries {
        println!(
            "   {}-{}@iter-{} recovered in {:.1} ms (paper: within 12 s)",
            task.kind,
            task.index,
            task.iteration,
            latency.as_secs_f64() * 1e3
        );
    }

    let mut ok = true;
    let mut shape = |cond: bool, msg: &str| {
        println!("shape: {msg} .. {}", if cond { "OK" } else { "MISMATCH" });
        ok &= cond;
    };
    shape(failures == 3, "exactly 3 injected failures fired");
    shape(recoveries.len() == 3, "every failure has a recovery");
    shape(
        recoveries
            .iter()
            .all(|(_, l)| *l >= detection && *l < detection * 20),
        "recovery latency = detection delay + relaunch (bounded)",
    );
    shape(
        max_diff < 1e-12,
        "failures do not change the computed result",
    );
    assert!(ok, "Fig. 13 shape checks failed");
}

fn main() {
    summarize();
}
