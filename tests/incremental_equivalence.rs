//! Cross-crate integration tests: the core correctness contract.
//!
//! Every incremental refresh must be equivalent to re-computing from
//! scratch on the updated input ("results generated from this incremental
//! computation are logically the same as the results from completely
//! re-computing A'", paper §3.1). These tests drive the full public API
//! through the `i2mapreduce` facade.

use i2mapreduce::algos::{apriori, gimv, pagerank, sssp};
use i2mapreduce::core::incr_iter::IncrParams;
use i2mapreduce::core::iterative::PreserveMode;
use i2mapreduce::datagen::delta::{
    graph_delta, matrix_delta, tweets_append, weighted_graph_delta, DeltaSpec,
};
use i2mapreduce::datagen::graph::GraphGen;
use i2mapreduce::datagen::matrix::MatrixGen;
use i2mapreduce::datagen::text::TweetGen;
use i2mapreduce::prelude::*;

fn scratch(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("i2mr-itest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn pagerank_incremental_chain_tracks_recompute() {
    // Three consecutive delta batches; the refreshed state must track a
    // from-scratch recompute after every batch.
    let cfg = JobConfig::symmetric(3);
    let pool = WorkerPool::new(3);
    let spec = pagerank::PageRank::default();
    let mut graph = GraphGen::new(400, 2800, 0xC0FFEE).generate();

    let (mut data, stores, _) = pagerank::i2mr_initial(
        &pool,
        &cfg,
        &graph,
        &spec,
        &scratch("pr-chain"),
        Default::default(),
        300,
        1e-11,
        PreserveMode::FinalOnly,
    )
    .unwrap();

    for round in 0..3u64 {
        let delta = graph_delta(
            &graph,
            DeltaSpec {
                change_fraction: 0.04,
                delete_fraction: 0.1,
                insert_fraction: 0.01,
                seed: 0xBEEF + round,
            },
        );
        let (report, _) = pagerank::i2mr_incremental(
            &pool,
            &cfg,
            &mut data,
            &stores,
            &spec,
            &delta,
            IncrParams {
                max_iterations: 500,
                convergence_epsilon: 1e-9,
                ..Default::default()
            },
            None,
        )
        .unwrap();
        assert!(report.converged, "round {round} did not converge");

        graph = delta.apply_to(&graph);
        let (oracle, _) = pagerank::itermr(&pool, &cfg, &graph, &spec, 500, 1e-11).unwrap();
        let got = data.state_snapshot();
        let want = oracle.state_snapshot();
        assert_eq!(
            got.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            want.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            "round {round}: key sets diverged"
        );
        for ((k, a), (_, b)) in got.iter().zip(&want) {
            assert!(
                (a - b).abs() < 5e-4,
                "round {round}, vertex {k}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn sssp_incremental_is_exact_with_ft0() {
    let cfg = JobConfig::symmetric(3);
    let pool = WorkerPool::new(3);
    let graph = GraphGen::new(300, 2000, 0x5555).weighted();
    let (mut data, stores, _) = sssp::i2mr_initial(
        &pool,
        &cfg,
        &graph,
        0,
        &scratch("sssp-x"),
        Default::default(),
        300,
    )
    .unwrap();

    let delta = weighted_graph_delta(&graph, DeltaSpec::ten_percent(0xAB));
    let (report, _) =
        sssp::i2mr_incremental(&pool, &cfg, &mut data, &stores, 0, &delta, 300).unwrap();
    assert!(report.converged);

    let updated = delta.apply_to(&graph);
    let (oracle, _) = sssp::itermr(&pool, &cfg, &updated, 0, 300).unwrap();
    for ((k, a), (_, b)) in data
        .state_snapshot()
        .iter()
        .zip(oracle.state_snapshot().iter())
    {
        match (a.is_finite(), b.is_finite()) {
            (true, true) => assert!((a - b).abs() < 1e-9, "vertex {k}: {a} vs {b}"),
            (false, false) => {}
            _ => panic!("vertex {k}: {a} vs {b}"),
        }
    }
}

#[test]
fn gimv_incremental_matches_recompute() {
    let cfg = JobConfig::symmetric(2);
    let pool = WorkerPool::new(2);
    let blocks = MatrixGen::new(48, 8, 900, 0x99).blocks();
    let spec = gimv::Gimv {
        block_size: 8,
        damping: 0.85,
    };
    let (mut data, stores, _) = gimv::i2mr_initial(
        &pool,
        &cfg,
        &blocks,
        &spec,
        &scratch("gimv-x"),
        Default::default(),
        300,
        1e-11,
    )
    .unwrap();
    let delta = matrix_delta(&blocks, DeltaSpec::ten_percent(0x44));
    let (report, _) =
        gimv::i2mr_incremental(&pool, &cfg, &mut data, &stores, &spec, &delta, 500, 1e-10).unwrap();
    assert!(report.converged);

    let updated = delta.apply_to(&blocks);
    let (oracle, _) = gimv::itermr(&pool, &cfg, &updated, &spec, 500, 1e-12).unwrap();
    for ((i, a), (_, b)) in data
        .state_snapshot()
        .iter()
        .zip(oracle.state_snapshot().iter())
    {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-5, "block {i}: {x} vs {y}");
        }
    }
}

#[test]
fn apriori_incremental_equals_plain_recount() {
    let cfg = JobConfig::symmetric(3);
    let pool = WorkerPool::new(3);
    let gen = TweetGen::new(400, 0x77);
    let corpus = gen.generate(0, 1200);
    let candidates = apriori::Candidates::generate(&corpus, 10);

    let mut engine = apriori::AprioriEngine::new(cfg.clone(), candidates.clone()).unwrap();
    engine.initial(&pool, &corpus).unwrap();

    // Two successive append batches.
    let d1 = tweets_append(&gen, 1200, 0.079);
    engine.incremental(&pool, &d1).unwrap();
    let after1 = d1.apply_to(&corpus);
    let d2 = tweets_append(&gen, after1.len() as u64, 0.05);
    engine.incremental(&pool, &d2).unwrap();

    let full = d2.apply_to(&after1);
    let (want, _) = apriori::plainmr(&pool, &cfg, &full, &candidates).unwrap();
    assert_eq!(engine.counts(), want);
}

#[test]
fn onestep_engine_survives_compaction_and_strategy_changes() {
    // The refreshed output must be invariant to store internals: query
    // strategy choice and offline compaction timing.
    use i2mapreduce::store::QueryStrategy;

    let mapper = |_k: &u64, adj: &String, out: &mut Emitter<u64, f64>| {
        for part in adj.split(';').filter(|s| !s.is_empty()) {
            let (dst, w) = part.split_once(':').unwrap();
            out.emit(dst.parse().unwrap(), w.parse().unwrap());
        }
    };
    let reducer =
        |k: &u64, vs: Values<u64, f64>, out: &mut Emitter<u64, f64>| out.emit(*k, vs.iter().sum());

    let input: Vec<(u64, String)> = (0..80u64)
        .map(|i| (i, format!("{}:1.5;{}:0.5", (i + 1) % 80, (i + 7) % 80)))
        .collect();

    let strategies = [
        QueryStrategy::IndexOnly,
        QueryStrategy::SingleFixWindow { window: 4096 },
        QueryStrategy::MultiFixWindow { window: 4096 },
        QueryStrategy::MultiDynamicWindow {
            gap_threshold: 1024,
        },
    ];
    let mut outputs = Vec::new();
    for (si, strategy) in strategies.iter().enumerate() {
        let pool = WorkerPool::new(3);
        let mut eng: OneStepEngine<u64, String, u64, f64, u64, f64> = OneStepEngine::create(
            &pool,
            scratch(&format!("strat-{si}")),
            JobConfig::symmetric(3),
            StoreConfig::default(),
        )
        .unwrap();
        eng.set_store_strategy(*strategy);
        eng.initial(&input, &mapper, &HashPartitioner, &reducer)
            .unwrap();
        for round in 0..3u64 {
            let mut delta = Delta::new();
            let k = (round * 13) % 80;
            delta.update(
                k,
                input[k as usize].1.clone(),
                format!("{}:9.0", (k + 3) % 80),
            );
            // NB: rounds after the first re-update the same key, so give
            // apply_to-compatible old values only on round 0; afterwards
            // update from the current record. Simplest: distinct keys.
            let _ = &delta;
            eng.incremental(&delta, &mapper, &HashPartitioner, &reducer)
                .unwrap();
            if round == 1 {
                eng.compact_stores().unwrap();
            }
        }
        outputs.push(eng.output());
    }
    for o in &outputs[1..] {
        assert_eq!(o, &outputs[0], "output depends on store strategy");
    }
}

#[test]
fn fault_injected_iterative_run_equals_clean_run() {
    use i2mapreduce::common::telemetry::{
        recovery_latencies, EventKind, TelemetryConfig, TelemetryMode,
    };
    use i2mapreduce::mapred::fault::{FaultPlan, FaultSpec, TaskKind};
    use std::sync::Arc;

    let spec = pagerank::PageRank::default();
    let cfg = JobConfig {
        n_map: 6,
        n_reduce: 6,
        n_workers: 3,
    };
    let graph = GraphGen::new(200, 1400, 0xFA).generate();

    let plan = Arc::new(FaultPlan::new(vec![
        FaultSpec {
            kind: TaskKind::Map,
            index: 2,
            iteration: Some(2),
            attempt: 1,
        },
        FaultSpec {
            kind: TaskKind::Reduce,
            index: 4,
            iteration: Some(3),
            attempt: 1,
        },
    ]));
    let faulty_pool = WorkerPool::with_faults(3, 3, std::time::Duration::ZERO, plan);
    let config = EngineConfig {
        job: cfg.clone(),
        iter: IterParams {
            max_iterations: 8,
            epsilon: 0.0,
            preserve: PreserveMode::None,
        },
        ..Default::default()
    };
    let mut faulty = i2mapreduce::core::build_partitioned(&spec, 6, graph.clone());
    let session = RunBuilder::new(&spec)
        .config(config.clone())
        .pool(&faulty_pool)
        .telemetry(TelemetryConfig::with_mode(TelemetryMode::Full))
        .build()
        .unwrap();
    session.run_initial(&mut faulty).unwrap();
    let trace = session.finish().unwrap().trace.expect("Full trace");

    let clean_pool = WorkerPool::new(3);
    let mut clean = i2mapreduce::core::build_partitioned(&spec, 6, graph);
    RunBuilder::new(&spec)
        .config(config)
        .pool(&clean_pool)
        .build()
        .unwrap()
        .run_initial(&mut clean)
        .unwrap();

    assert_eq!(faulty.state_snapshot(), clean.state_snapshot());
    assert_eq!(
        trace.count_matching(|k| matches!(k, EventKind::TaskEnd { ok: false, .. })),
        2,
        "both faults must have fired"
    );
    let recovered: Vec<_> = recovery_latencies(&trace)
        .iter()
        .map(|(task, _)| (task.kind, task.index, task.iteration))
        .collect();
    assert_eq!(
        recovered,
        vec![("map", 2, 2), ("reduce", 4, 3)],
        "both failed tasks must have restarted"
    );
}

#[test]
fn checkpoint_recovery_resumes_incremental_run() {
    // Cadence 3 leaves most passes unsaved: the completed refresh must
    // still be the latest complete checkpoint.
    for cadence in [1, 3] {
        checkpoint_recovery_resumes_incremental_run_at(cadence);
    }
}

fn checkpoint_recovery_resumes_incremental_run_at(cadence: u64) {
    use i2mapreduce::core::IterCheckpointer;
    use i2mapreduce::store::StoreManager;

    let cfg = JobConfig::symmetric(2);
    let pool = WorkerPool::new(2);
    let spec = pagerank::PageRank::default();
    let graph = GraphGen::new(150, 1000, 0xCE).generate();
    let dir = scratch(&format!("ckpt-resume-{cadence}"));

    let (mut data, stores, _) = pagerank::i2mr_initial(
        &pool,
        &cfg,
        &graph,
        &spec,
        &dir.join("stores"),
        Default::default(),
        300,
        1e-11,
        PreserveMode::FinalOnly,
    )
    .unwrap();

    let dfs = i2mapreduce::dfs::MiniDfs::open_with(dir.join("dfs"), 1 << 20, 2).unwrap();
    let ck = IterCheckpointer::new(&dfs, "resume-test", 2).with_cadence(cadence);

    let delta = graph_delta(&graph, DeltaSpec::ten_percent(0xD1));
    let (report, _) = pagerank::i2mr_incremental(
        &pool,
        &cfg,
        &mut data,
        &stores,
        &spec,
        &delta,
        IncrParams {
            max_iterations: 400,
            ..Default::default()
        },
        Some(&ck),
    )
    .unwrap();
    assert!(report.converged);

    // "Crash" after the run: a new process restores the latest complete
    // checkpoint and must see exactly the final state and stores.
    let latest = ck.latest_complete(true).expect("checkpoints written");
    let restored_state: Vec<Vec<(u64, f64)>> = ck.load_state(latest).unwrap();
    assert_eq!(restored_state, data.state);
    let restored_stores: StoreManager = ck
        .load_stores(&pool, latest, dir.join("restored"), Default::default())
        .unwrap();
    assert_eq!(restored_stores.len(), stores.len());
    // Restored shards are byte-identical to the live ones (live-chunk
    // canonical export), partition by partition.
    for p in 0..stores.n_shards() {
        assert_eq!(
            stores.export(p).unwrap(),
            restored_stores.export(p).unwrap()
        );
    }
}
