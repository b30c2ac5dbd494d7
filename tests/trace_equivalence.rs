//! The telemetry plane's core contracts:
//!
//! 1. **Observability never changes results.** A `TelemetryMode::Full` run
//!    must produce f64-bitwise-identical state and byte-identical store
//!    exports to an `Off` run from the same seeded inputs — tracing reads
//!    the computation, it never steers it.
//! 2. **The trace is exact, not approximate.** Under a chaos-soak schedule
//!    (seeded failpoints killing workers mid-task), retry spans in the
//!    trace match the drained `JobMetrics` counters exactly — both are
//!    emitted at the same executor sites.
//! 3. **The paper's tables fall out of a trace file.** `fig9` (per-stage
//!    wall time) and `table4` (store I/O) extracted from the exported
//!    JSONL equal the drained metrics, because stage samples and store-I/O
//!    deltas carry the one reading that fed the accumulators.
//! 4. **The trace is well-formed**: balanced start/end spans, strictly
//!    monotone per-worker sequence numbers, zero dropped events on these
//!    fixture sizes.

use i2mapreduce::algos::pagerank::PageRank;
use i2mapreduce::common::metrics::{IoStats, Stage, StageTimes};
use i2mapreduce::common::telemetry::{
    fig9, fig9_from_jsonl, table4, table4_from_jsonl, EventKind, TelemetryConfig, TelemetryMode,
    TraceLog,
};
use i2mapreduce::core::build_partitioned;
use i2mapreduce::datagen::delta::{graph_delta, DeltaSpec};
use i2mapreduce::datagen::graph::GraphGen;
use i2mapreduce::mapred::fault::{FailAction, FailSite, FailpointRegistry};
use i2mapreduce::mapred::pool::PoolConfig;
use i2mapreduce::prelude::*;
use i2mapreduce::store::runtime::StoreManager;
use std::sync::Arc;

const N: usize = 4;

fn scratch(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "i2mr-trace-eq-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn exports(stores: &StoreManager) -> Vec<Vec<u8>> {
    (0..stores.n_shards())
        .map(|p| stores.export(p).unwrap())
        .collect()
}

/// Seeded PageRank: initial run with preservation, then an incremental
/// refresh, under the given telemetry config. Returns the final state,
/// the store exports, and the traces both sessions accumulated.
fn run_pagerank(
    tag: &str,
    telemetry: TelemetryConfig,
) -> (Vec<(u64, f64)>, Vec<Vec<u8>>, Vec<Option<TraceLog>>) {
    let cfg = JobConfig::symmetric(N);
    let pool = WorkerPool::new(N);
    let spec = PageRank::default();
    let graph = GraphGen::new(300, 2100, 0x7ACE).generate();
    let delta = graph_delta(&graph, DeltaSpec::ten_percent(0x7ACE));

    let session = RunBuilder::new(&spec)
        .pool(&pool)
        .job(cfg.clone())
        .iter(IterParams {
            max_iterations: 80,
            epsilon: 1e-9,
            preserve: PreserveMode::FinalOnly,
        })
        .telemetry(telemetry.clone())
        .store_dir(scratch(tag))
        .build()
        .unwrap();
    let mut data = build_partitioned(&spec, N, graph);
    session.run_initial(&mut data).unwrap();
    let fin = session.finish().unwrap();
    let stores = fin.stores.expect("session-owned");
    let mut traces = vec![fin.trace];

    let refresh = RunBuilder::new(&spec)
        .pool(&pool)
        .job(cfg)
        .incr(IncrParams {
            convergence_epsilon: 1e-9,
            max_iterations: 80,
            ..Default::default()
        })
        .telemetry(telemetry)
        .stores_ref(&stores)
        .build()
        .unwrap();
    refresh.run_incremental(&mut data, &delta).unwrap();
    traces.push(refresh.finish().unwrap().trace);

    (data.state_snapshot(), exports(&stores), traces)
}

/// Contract 1: `Full` ≡ `Off`, bit for bit — and the traced run really
/// recorded spans (the equivalence is not vacuous).
#[test]
fn full_tracing_is_bitwise_identical_to_off() {
    let (state_off, stores_off, traces_off) = run_pagerank("off", TelemetryConfig::default());
    let (state_on, stores_on, traces_on) =
        run_pagerank("full", TelemetryConfig::with_mode(TelemetryMode::Full));

    assert!(
        traces_off.iter().all(Option::is_none),
        "Off must not allocate a recorder"
    );
    for (i, trace) in traces_on.iter().enumerate() {
        let log = trace.as_ref().expect("Full must hand back a trace");
        assert!(
            log.count_matching(|k| matches!(k, EventKind::TaskStart { .. })) > 0,
            "session {i}: no task spans recorded"
        );
        log.validate().unwrap();
        assert_eq!(log.dropped(), 0, "session {i}: events dropped");
    }

    assert_eq!(state_off.len(), state_on.len());
    for ((k_off, v_off), (k_on, v_on)) in state_off.iter().zip(&state_on) {
        assert_eq!(k_off, k_on);
        assert_eq!(
            v_off.to_bits(),
            v_on.to_bits(),
            "key {k_off}: Full tracing diverged from Off"
        );
    }
    assert_eq!(
        stores_off, stores_on,
        "store exports must be byte-identical"
    );
}

/// Contract 2: chaos-soak schedule replay. Workers die mid-task (seeded
/// `Panic` failpoints); the trace's retry spans must equal the drained
/// `JobMetrics::retries` exactly — both are emitted at the executor's
/// counter-increment site.
#[test]
fn chaos_replay_trace_matches_recovery_counters() {
    let cfg = JobConfig::symmetric(N);
    let spec = PageRank::default();
    let graph = GraphGen::new(300, 2100, 0xC4A0).generate();
    let delta = graph_delta(&graph, DeltaSpec::ten_percent(0xC4A0));

    // Fault-free initial run on a clean pool.
    let clean = WorkerPool::new(N);
    let init = RunBuilder::new(&spec)
        .pool(&clean)
        .job(cfg.clone())
        .iter(IterParams {
            max_iterations: 80,
            epsilon: 1e-9,
            preserve: PreserveMode::FinalOnly,
        })
        .store_dir(scratch("chaos"))
        .build()
        .unwrap();
    let mut data = build_partitioned(&spec, N, graph);
    init.run_initial(&mut data).unwrap();
    let stores = init.finish().unwrap().stores.expect("session-owned");

    let mut total_fired = 0u64;
    for r in 0..4u64 {
        // Refresh on a pool whose workers panic mid-task while the seeded
        // budget lasts; Full tracing on.
        let fp = Arc::new(FailpointRegistry::seeded(0xF00D + r, 2).arm(
            FailSite::TaskRun,
            0.5,
            FailAction::Panic,
        ));
        let chaos = WorkerPool::with_config(PoolConfig {
            failpoints: Arc::clone(&fp),
            ..PoolConfig::new(N)
        });
        let refresh = RunBuilder::new(&spec)
            .pool(&chaos)
            .job(cfg.clone())
            .incr(IncrParams {
                convergence_epsilon: 1e-9,
                max_iterations: 80,
                ..Default::default()
            })
            .telemetry(TelemetryConfig::with_mode(TelemetryMode::Full))
            .stores_ref(&stores)
            .build()
            .unwrap();
        let mut round_data = data.clone();
        let report = refresh.run_incremental(&mut round_data, &delta).unwrap();
        assert!(
            report.converged,
            "round {r}: faulted refresh did not converge"
        );
        total_fired += fp.fired();

        let log = refresh.finish().unwrap().trace.expect("Full trace");
        log.validate().unwrap();
        assert_eq!(log.dropped(), 0, "round {r}: events dropped");
        let retries: u64 = report.per_iteration.iter().map(|m| m.retries).sum();
        assert_eq!(
            log.count_matching(|k| matches!(k, EventKind::Retry { .. })),
            retries,
            "round {r}: trace retry spans != drained JobMetrics::retries"
        );
        // Every failed attempt shows up as an unsuccessful TaskEnd too.
        assert!(
            log.count_matching(|k| matches!(k, EventKind::TaskEnd { ok: false, .. }))
                >= fp.fired().min(retries),
            "round {r}: failed attempts missing from trace"
        );
    }
    // Rate 0.5, budget 2, four rounds: the soak must actually have fired.
    assert!(total_fired > 0, "failpoints never fired — test is vacuous");
}

/// Contracts 3 + 4: the paper's tables extracted from the exported JSONL
/// file equal the drained metrics, the Chrome export is written, and the
/// mid-run registry snapshot is live without any drain.
#[test]
fn exported_trace_reproduces_fig9_and_table4() {
    let dir = scratch("export");
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("run.trace.jsonl");
    let chrome = dir.join("run.trace.json");

    let spec = PageRank::default();
    let graph = GraphGen::new(200, 1400, 0xF19).generate();
    let mut telemetry = TelemetryConfig::with_mode(TelemetryMode::Full);
    telemetry.jsonl_path = Some(jsonl.clone());
    telemetry.chrome_trace_path = Some(chrome.clone());

    let session = RunBuilder::new(&spec)
        .job(JobConfig::symmetric(N))
        .iter(IterParams {
            max_iterations: 40,
            epsilon: 1e-9,
            preserve: PreserveMode::EveryIteration,
        })
        .telemetry(telemetry)
        .store_dir(dir.join("stores"))
        .build()
        .unwrap();
    let mut data = build_partitioned(&spec, N, graph);
    let report = session.run_initial(&mut data).unwrap();

    // Live mid-session visibility: counters without a drain or a fence.
    let snap = session.metrics_snapshot();
    assert!(snap.counter("trace.task_start") > 0, "registry not live");
    assert_eq!(
        snap.counter("trace.task_start"),
        snap.counter("trace.task_end"),
        "spans unbalanced in live counters"
    );

    // The drained ground truth: every iteration's stage times and store
    // I/O, plus the trailing store work the final settle retires.
    let fin = session.finish().unwrap();
    let mut want_stages = StageTimes::default();
    let mut want_io = IoStats::default();
    for m in &report.per_iteration {
        for s in Stage::ALL {
            want_stages.add(s, m.stages.get(s));
        }
        want_io += m.store_io;
    }
    want_io += fin.trailing.store_io;

    let log = fin.trace.expect("Full trace");
    log.validate().unwrap();
    assert_eq!(log.dropped(), 0);
    assert_eq!(fig9(&log), want_stages, "fig9 from trace != drained stages");
    assert_eq!(
        table4(&log),
        want_io,
        "table4 from trace != drained store I/O"
    );

    // The file exporters carry the same tables.
    let text = std::fs::read_to_string(&jsonl).unwrap();
    assert_eq!(fig9_from_jsonl(&text), want_stages, "fig9 from JSONL file");
    assert_eq!(table4_from_jsonl(&text), want_io, "table4 from JSONL file");
    // JSONL re-rendered from the same log is byte-identical to the file.
    assert_eq!(text, log.to_jsonl(), "JSONL sink != in-memory export");

    let chrome_text = std::fs::read_to_string(&chrome).unwrap();
    assert!(chrome_text.starts_with('[') && chrome_text.trim_end().ends_with(']'));
    assert_eq!(chrome_text, log.to_chrome_json(), "Chrome sink != export");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `Counters` mode: per-kind counts stay live, no spans are buffered, and
/// the run report renders the telemetry section.
#[test]
fn counters_mode_counts_without_buffering() {
    let spec = PageRank::default();
    let graph = GraphGen::new(120, 700, 0xC0DE).generate();
    let session = RunBuilder::new(&spec)
        .job(JobConfig::symmetric(2))
        .iter(IterParams {
            max_iterations: 30,
            epsilon: 1e-9,
            preserve: PreserveMode::None,
        })
        .telemetry(TelemetryConfig::with_mode(TelemetryMode::Counters))
        .build()
        .unwrap();
    let mut data = build_partitioned(&spec, 2, graph);
    let report = session.run_initial(&mut data).unwrap();

    let snap = session.metrics_snapshot();
    assert!(snap.counter("trace.task_start") > 0);
    assert!(snap.counter("trace.stage") > 0);

    let rendered = session.render_report(&report.per_iteration);
    assert!(rendered.contains("run report"));
    assert!(rendered.contains("trace.task_start"));

    let log = session.finish().unwrap().trace.expect("recorder exists");
    assert_eq!(
        log.workers.iter().map(|w| w.events.len()).sum::<usize>(),
        0,
        "Counters mode must not buffer spans"
    );
}
