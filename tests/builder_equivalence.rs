//! The `RunBuilder` surface end to end:
//!
//! * **Pinned fingerprints**: seeded runs of every mode — a checkpointed
//!   PageRank refresh through the P∆ switch, an SSSP `run_delta`, a
//!   PageRank initial run preserving and checkpointing every iteration —
//!   hash their state bits, live store chunks and checkpoint write counts
//!   to recorded constants, so a change to the fixed-point driver that
//!   alters any result or any preserved edge fails here. The two
//!   checkpointed runs also pin the bytes they wrote to the DFS, which
//!   moves only when the checkpoint payload layout does.
//! * **Read-your-writes through serving**: a `ServeHandle` opened on a
//!   session's store plane observes an incremental refresh's writes,
//!   across a forced compaction generation bump.

use i2mapreduce::algos::{pagerank::PageRank, sssp::Sssp};
use i2mapreduce::core::build_partitioned;
use i2mapreduce::datagen::delta::{graph_delta, weighted_graph_delta, DeltaSpec};
use i2mapreduce::datagen::graph::GraphGen;
use i2mapreduce::dfs::MiniDfs;
use i2mapreduce::prelude::*;
use i2mapreduce::store::runtime::StoreManager;
use i2mapreduce::store::{Chunk, ServeConfig};

const N: usize = 4;

fn scratch(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "i2mr-builder-eq-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// FNV-1a (64-bit) over what a run leaves behind: the state's keys and
/// `f64` bits, every shard's live chunks (key, then each entry's `MapKey`
/// bytes and value) and the checkpoint DFS's write count. Two engines that
/// do the same work give the same value. It hashes content, not encodings,
/// so a change to the checkpoint payload layout leaves it alone; the bytes
/// a checkpointed run writes are pinned separately by
/// [`assert_checkpoint_bytes`].
fn fingerprint(state: &[(u64, f64)], stores: &StoreManager, dfs: Option<&MiniDfs>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (k, v) in state {
        feed(&k.to_le_bytes());
        feed(&v.to_bits().to_le_bytes());
    }
    for p in 0..stores.n_shards() {
        for chunk in stores.with_store(p, |s| s.all_chunks()).unwrap() {
            feed(&chunk.key);
            for entry in &chunk.entries {
                feed(&entry.mk.to_bytes());
                feed(&entry.value);
            }
        }
    }
    if let Some(dfs) = dfs {
        feed(&dfs.io_stats().writes.to_le_bytes());
    }
    h
}

/// Assert the bytes a checkpointed run wrote to its DFS, printing the
/// observed value so a pinned constant can be read off a failing run.
fn assert_checkpoint_bytes(what: &str, dfs: &MiniDfs, want: u64) {
    let got = dfs.io_stats().bytes_written;
    println!("{what}: checkpoint bytes_written {got}");
    assert_eq!(got, want, "{what}: checkpoint bytes_written");
}

/// Assert a run's fingerprint, printing the observed value so a pinned
/// constant can be read off a failing run.
fn assert_fingerprint(what: &str, got: u64, want: u64) {
    println!("{what}: fingerprint {got:#018x}");
    assert_eq!(got, want, "{what}: fingerprint {got:#018x} != {want:#018x}");
}

/// PageRank: initial run (`FinalOnly`), then a checkpointed incremental
/// refresh at 10 % churn whose P∆ monitor switches to full passes.
#[test]
fn fingerprint_pagerank_checkpointed_refresh_through_pdelta() {
    let cfg = JobConfig::symmetric(N);
    let pool = WorkerPool::new(2);
    let spec = PageRank::default();
    let graph = GraphGen::new(300, 2100, 0xF1A6).generate();
    let delta = graph_delta(&graph, DeltaSpec::ten_percent(0xF1A6));
    let session = RunBuilder::new(&spec)
        .pool(&pool)
        .job(cfg.clone())
        .iter(IterParams {
            max_iterations: 80,
            epsilon: 1e-9,
            preserve: PreserveMode::FinalOnly,
        })
        .store_dir(scratch("fp-pr-initial"))
        .build()
        .unwrap();
    let mut data = build_partitioned(&spec, N, graph);
    assert!(session.run_initial(&mut data).unwrap().converged);
    let stores = session.finish().unwrap().stores.expect("session-owned");

    let dfs = MiniDfs::open_with(scratch("fp-pr-dfs"), 1 << 20, 2).unwrap();
    let refresh = RunBuilder::new(&spec)
        .pool(&pool)
        .job(cfg)
        .iter(IterParams {
            epsilon: 1e-9,
            ..Default::default()
        })
        .incr(IncrParams {
            convergence_epsilon: 1e-9,
            max_iterations: 80,
            ..Default::default()
        })
        .stores_ref(&stores)
        .checkpoint(&dfs, "fp-pr-refresh")
        .build()
        .unwrap();
    let report = refresh.run_incremental(&mut data, &delta).unwrap();
    refresh.finish().unwrap();
    assert!(report.converged);
    assert!(report.mrbg_turned_off_at.is_some(), "P∆ must trip");
    let got = fingerprint(&data.state_snapshot(), &stores, Some(&dfs));
    assert_fingerprint("pagerank refresh", got, 0xd276_b396_3c2f_f9b6);
    assert_checkpoint_bytes("pagerank refresh", &dfs, 288_741);
}

/// SSSP: initial run (`FinalOnly`), then a workset-driven delta refresh.
#[test]
fn fingerprint_sssp_delta_refresh() {
    let cfg = JobConfig::symmetric(N);
    let pool = WorkerPool::new(2);
    let spec = Sssp { source: 0 };
    let graph = GraphGen::new(400, 2400, 0xF155).weighted();
    let delta = weighted_graph_delta(
        &graph,
        DeltaSpec {
            change_fraction: 0.05,
            delete_fraction: 0.0,
            insert_fraction: 0.01,
            seed: 0xF155,
        },
    );
    let session = RunBuilder::new(&spec)
        .pool(&pool)
        .job(cfg.clone())
        .iter(IterParams {
            max_iterations: 300,
            epsilon: 1e-12,
            preserve: PreserveMode::FinalOnly,
        })
        .store_dir(scratch("fp-sssp"))
        .build()
        .unwrap();
    let mut data = build_partitioned(&spec, N, graph);
    assert!(session.run_initial(&mut data).unwrap().converged);
    let stores = session.finish().unwrap().stores.expect("session-owned");

    let refresh = RunBuilder::new(&spec)
        .pool(&pool)
        .job(cfg)
        .incr(IncrParams {
            filter_threshold: Some(0.0),
            convergence_epsilon: 1e-12,
            max_iterations: 300,
            ..Default::default()
        })
        .stores_ref(&stores)
        .build()
        .unwrap();
    let report = refresh.run_delta(&mut data, &delta).unwrap();
    refresh.finish().unwrap();
    assert!(report.converged);
    let got = fingerprint(&data.state_snapshot(), &stores, None);
    assert_fingerprint("sssp delta refresh", got, 0x2bf0_99d8_2c42_ecaf);
}

/// PageRank: an initial run that preserves every iteration and
/// checkpoints state and stores every iteration.
#[test]
fn fingerprint_pagerank_initial_every_iteration_checkpointed() {
    let spec = PageRank::default();
    let graph = GraphGen::new(200, 1400, 0xF1E1).generate();
    let dir = scratch("fp-pr-every");
    let dfs = MiniDfs::open_with(dir.join("dfs"), 1 << 20, 2).unwrap();
    let session = RunBuilder::new(&spec)
        .pool(&WorkerPool::new(2))
        .job(JobConfig::symmetric(N))
        .iter(IterParams {
            max_iterations: 40,
            epsilon: 1e-9,
            preserve: PreserveMode::EveryIteration,
        })
        .store_dir(dir.join("stores"))
        .checkpoint(&dfs, "fp-pr-every")
        .build()
        .unwrap();
    let mut data = build_partitioned(&spec, N, graph);
    assert!(session.run_initial(&mut data).unwrap().converged);
    let stores = session.finish().unwrap().stores.expect("session-owned");
    let got = fingerprint(&data.state_snapshot(), &stores, Some(&dfs));
    assert_fingerprint(
        "pagerank every-iteration initial",
        got,
        0xefc7_dda5_17c7_837f,
    );
    assert_checkpoint_bytes("pagerank every-iteration initial", &dfs, 854_207);
}

/// A serving handle on a session's store plane sees the writes of an
/// incremental refresh, and keeps answering identically across a forced
/// compaction of every shard (file generation bump under live readers).
#[test]
fn serve_reads_your_writes_across_forced_compaction() {
    let cfg = JobConfig::symmetric(N);
    let pool = WorkerPool::new(N);
    let spec = PageRank::default();
    let graph = GraphGen::new(200, 1400, 0x5E4E).generate();

    let session = RunBuilder::new(&spec)
        .pool(&pool)
        .job(cfg.clone())
        .iter(IterParams {
            max_iterations: 80,
            epsilon: 1e-9,
            preserve: PreserveMode::FinalOnly,
        })
        .incr(IncrParams {
            convergence_epsilon: 1e-9,
            max_iterations: 80,
            ..Default::default()
        })
        .store_dir(scratch("serve-ryw"))
        .build()
        .unwrap();
    let mut data = build_partitioned(&spec, N, graph.clone());
    session.run_initial(&mut data).unwrap();
    let stores = session.stores().expect("session owns a store plane");

    // Pin down every live chunk through the serving plane.
    let serve = stores.serve(ServeConfig::default());
    let mut live: Vec<(usize, Chunk)> = Vec::new();
    for p in 0..stores.n_shards() {
        for chunk in stores.with_store(p, |s| s.all_chunks()).unwrap() {
            assert_eq!(
                serve.get(p, &chunk.key).unwrap().as_ref(),
                Some(&chunk),
                "serving plane disagrees with the exclusive read path"
            );
            live.push((p, chunk));
        }
    }
    assert!(!live.is_empty());

    // Refresh through the same session while the handle stays open: the
    // merge bumps shard data versions, so cached entries must refetch.
    let delta = graph_delta(&graph, DeltaSpec::ten_percent(0x5E4E));
    session.run_incremental(&mut data, &delta).unwrap();
    for p in 0..stores.n_shards() {
        for chunk in stores.with_store(p, |s| s.all_chunks()).unwrap() {
            assert_eq!(serve.get(p, &chunk.key).unwrap(), Some(chunk));
        }
    }

    // Force an offline compaction of every shard: live data is unchanged
    // but every data file is rewritten (reader generation bump). The
    // handle's pooled readers must chase the new files transparently.
    stores.compact_all(u64::MAX).unwrap();
    for p in 0..stores.n_shards() {
        for chunk in stores.with_store(p, |s| s.all_chunks()).unwrap() {
            assert_eq!(serve.get(p, &chunk.key).unwrap(), Some(chunk));
        }
    }
    let metrics = serve.metrics();
    assert!(metrics.hits + metrics.misses > 0);
}
