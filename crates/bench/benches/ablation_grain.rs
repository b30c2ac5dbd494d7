//! Ablation benches for design choices DESIGN.md calls out.
//!
//! 1. **Grain**: kv-pair-level (i2MR) vs task-level (Incoop-style)
//!    incremental processing under scattered changes — the paper's §8.1.1
//!    claim that "without careful data partition, almost all tasks see
//!    changes, making task-level incremental processing less effective".
//! 2. **Preservation policy**: MRBGraph preserved every iteration vs
//!    re-materialized once at convergence (`PreserveMode` ablation).
//! 3. **Accumulator fast path**: accumulator Reduce vs the general
//!    MRBG-Store path on the same aggregation workload.

use i2mr_algos::pagerank::PageRank;
use i2mr_bench::{banner, scratch, sized};
use i2mr_core::accumulator::AccumulatorEngine;
use i2mr_core::delta::Delta;
use i2mr_core::iter_engine::build_partitioned;
use i2mr_core::iterative::{IterParams, PreserveMode};
use i2mr_core::onestep::OneStepEngine;
use i2mr_core::run::RunBuilder;
use i2mr_core::tasklevel::TaskLevelEngine;
use i2mr_datagen::graph::GraphGen;
use i2mr_datagen::text::TweetGen;
use i2mr_mapred::partition::HashPartitioner;
use i2mr_mapred::types::{Emitter, Values};
use i2mr_mapred::{JobConfig, WorkerPool};
use i2mr_store::runtime::StoreManager;
use std::time::Instant;

fn wc_mapper(_k: &u64, text: &String, out: &mut Emitter<String, u64>) {
    for w in text.split_whitespace() {
        out.emit(w.to_string(), 1);
    }
}

fn wc_reducer(k: &String, vs: Values<String, u64>, out: &mut Emitter<String, u64>) {
    out.emit(k.clone(), vs.iter().sum());
}

/// Word count with per-record pre-aggregation: one emission per distinct
/// word per record. Required by the MRBGraph path, where `(K2, MK)`
/// identifies an edge — a map instance must emit one value per key
/// (paper section 3.2; the usual in-mapper-combiner formulation).
fn wc_mapper_distinct(_k: &u64, text: &String, out: &mut Emitter<String, u64>) {
    let mut counts: std::collections::BTreeMap<&str, u64> = Default::default();
    for w in text.split_whitespace() {
        *counts.entry(w).or_insert(0) += 1;
    }
    for (w, n) in counts {
        out.emit(w.to_string(), n);
    }
}

fn main() {
    banner(
        "Ablations",
        "grain (kv vs task), preservation policy, accumulator fast path",
        "word counting + PageRank workloads",
    );
    let cfg = JobConfig {
        n_map: 16,
        n_reduce: 8,
        ..Default::default()
    };
    let pool = WorkerPool::new(8);
    let mut ok = true;
    let mut shape = |cond: bool, msg: &str| {
        println!("   shape: {msg} : {}", if cond { "OK" } else { "MISMATCH" });
        ok &= cond;
    };

    // ------------------------------------------------------------------
    // 1. kv-grain vs task-grain under scattered updates
    // ------------------------------------------------------------------
    {
        let corpus = TweetGen::new(2000, 0xAB).generate(0, sized(8000));
        // Scattered delta: one record updated in every split.
        let split = corpus.len() / cfg.n_map;
        let mut delta = Delta::new();
        let mut updated = corpus.clone();
        for s in 0..cfg.n_map {
            let idx = s * split;
            let new_text = format!("{} scattered", corpus[idx].1);
            delta.update(corpus[idx].0, corpus[idx].1.clone(), new_text.clone());
            updated[idx].1 = new_text;
        }

        // kv-grain: fine-grain one-step engine.
        let mut fine: OneStepEngine<u64, String, String, u64, String, u64> =
            OneStepEngine::create(&pool, scratch("abl-fine"), cfg.clone(), Default::default())
                .unwrap();
        fine.initial(&corpus, &wc_mapper, &HashPartitioner, &wc_reducer)
            .unwrap();
        let m_fine = fine
            .incremental(&delta, &wc_mapper, &HashPartitioner, &wc_reducer)
            .unwrap();

        // task-grain: Incoop-style memoization over the complete input.
        let mut coarse: TaskLevelEngine<u64, String, String, u64, String, u64> =
            TaskLevelEngine::new(cfg.clone()).unwrap();
        coarse
            .run(&pool, &corpus, &wc_mapper, &HashPartitioner, &wc_reducer)
            .unwrap();
        let (_, m_coarse) = coarse
            .run(&pool, &updated, &wc_mapper, &HashPartitioner, &wc_reducer)
            .unwrap();

        println!("\n -- grain ablation: scattered updates (1 record per split) --");
        println!(
            "   kv-grain   : {:>8} map invocations, {:>8} reduce invocations",
            m_fine.map_invocations, m_fine.reduce_invocations
        );
        println!(
            "   task-grain : {:>8} map invocations, {:>8} reduce invocations (reused {}/{} map tasks)",
            m_coarse.map_invocations,
            m_coarse.reduce_invocations,
            coarse.last_stats.map_tasks_reused,
            coarse.last_stats.map_tasks_total
        );
        shape(
            coarse.last_stats.map_tasks_reused == 0,
            "scattered changes dirty every task (task-level reuse = 0)",
        );
        shape(
            m_fine.map_invocations * 10 < m_coarse.map_invocations,
            "kv-grain re-maps >10x fewer records than task-grain",
        );
    }

    // ------------------------------------------------------------------
    // 2. preservation policy: every iteration vs final only
    // ------------------------------------------------------------------
    {
        let graph = GraphGen::new(sized(2000), sized(16_000), 0xCD).generate();
        let spec = PageRank::default();
        // The iterative engine co-locates prime map/reduce pairs: n_map must
        // equal n_reduce.
        let cfg = JobConfig::symmetric(8);
        let mut results = Vec::new();
        for (label, mode) in [
            ("preserve-every-iteration", PreserveMode::EveryIteration),
            ("preserve-final-only", PreserveMode::FinalOnly),
        ] {
            let dir = scratch(&format!("abl-{label}"));
            let stores =
                StoreManager::create(&pool, &dir, cfg.n_reduce, Default::default()).unwrap();
            let session = RunBuilder::new(&spec)
                .pool(&pool)
                .job(cfg.clone())
                .iter(IterParams {
                    max_iterations: 30,
                    epsilon: 1e-8,
                    preserve: mode,
                })
                .stores_ref(&stores)
                .build()
                .unwrap();
            let mut data = build_partitioned(&spec, cfg.n_reduce, graph.clone());
            let t = Instant::now();
            let report = session.run_initial(&mut data).unwrap();
            let wall = t.elapsed();
            let file_bytes: u64 = stores.file_bytes();
            // Engine iterations drain shard I/O into the per-iteration
            // metrics, so the write totals live in the report now.
            let written: u64 = report.total_metrics().store_io.bytes_written;
            results.push((label, wall, file_bytes, written));
        }
        println!("\n -- preservation policy ablation (initial PageRank run) --");
        for (label, wall, file, written) in &results {
            println!(
                "   {:<26} wall {:>8.1}ms  MRBG file {:>10.1}KB  written {:>10.1}KB",
                label,
                wall.as_secs_f64() * 1e3,
                *file as f64 / 1024.0,
                *written as f64 / 1024.0
            );
        }
        shape(
            results[1].2 < results[0].2,
            "final-only leaves a far smaller MRBGraph file after the initial run",
        );
    }

    // ------------------------------------------------------------------
    // 3. accumulator fast path vs general MRBG path
    // ------------------------------------------------------------------
    {
        let corpus = TweetGen::new(2000, 0xEF).generate(0, sized(8000));
        let mut delta = Delta::new();
        for (id, text) in TweetGen::new(2000, 0xEF).generate(corpus.len() as u64, 400) {
            delta.insert(id, text);
        }

        // General path (preserves the full MRBGraph).
        let mut general: OneStepEngine<u64, String, String, u64, String, u64> =
            OneStepEngine::create(&pool, scratch("abl-gen"), cfg.clone(), Default::default())
                .unwrap();
        general
            .initial(&corpus, &wc_mapper_distinct, &HashPartitioner, &wc_reducer)
            .unwrap();
        let t = Instant::now();
        general
            .incremental(&delta, &wc_mapper_distinct, &HashPartitioner, &wc_reducer)
            .unwrap();
        let t_general = t.elapsed();
        let general_store_bytes = general.store_file_bytes();

        // Accumulator path (preserves only the output kv-pairs).
        let mut acc: AccumulatorEngine<u64, String, String, u64> =
            AccumulatorEngine::create(cfg.clone()).unwrap();
        let sum = |a: &u64, b: &u64| a + b;
        acc.initial(&pool, &corpus, &wc_mapper_distinct, &HashPartitioner, &sum)
            .unwrap();
        let t = Instant::now();
        acc.incremental(&pool, &delta, &wc_mapper_distinct, &HashPartitioner, &sum)
            .unwrap();
        let t_acc = t.elapsed();

        // Same refreshed answer.
        let mut a: Vec<(String, u64)> = general.output().into_iter().collect();
        a.sort();
        let mut b = acc.output();
        b.sort();
        assert_eq!(a, b, "both paths must produce identical counts");

        println!("\n -- accumulator fast path ablation (insert-only WordCount delta) --");
        println!(
            "   general MRBG path : {:>8.1}ms refresh, {:>10.1}KB MRBGraph files",
            t_general.as_secs_f64() * 1e3,
            general_store_bytes as f64 / 1024.0
        );
        println!(
            "   accumulator path  : {:>8.1}ms refresh, 0KB preserved state beyond outputs",
            t_acc.as_secs_f64() * 1e3
        );
        shape(
            general_store_bytes > 0,
            "general path pays MRBGraph storage the accumulator path avoids",
        );
    }

    println!();
    assert!(ok, "ablation shape checks failed");
    println!("Ablations complete: all shape checks OK");
}
