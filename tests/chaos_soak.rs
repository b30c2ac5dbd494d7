//! Seeded chaos soak: the fault-tolerance plane must make injected faults
//! **invisible in the results**. Each scenario fixes one workload (graph +
//! delta + engine path), computes its fault-free reference once, then
//! replays the refresh under `I2MR_CHAOS_ROUNDS` (default 50) distinct
//! seeded fault schedules. Every faulted run must
//!
//! * return `Ok` (no escaped panic, no process abort),
//! * converge to the **bit-identical** state fixed point, and
//! * leave **byte-identical** per-shard MRBG-Store exports.
//!
//! Four scenarios × 50 rounds = 200 schedules:
//!
//! 1. task-level `Error` faults with **no executor retries** — failures
//!    escape to the engine's checkpoint-rewind path (PageRank, incr),
//! 2. worker **panics** absorbed by cross-worker rescheduling (PageRank,
//!    incr),
//! 3. store-plane I/O faults absorbed by task retries (SSSP, delta-iter),
//! 4. **torn tails** tampered onto shard chunk files, salvaged on reopen
//!    (SSSP, delta-iter).
//!
//! A fifth scenario replays scenario 1 on a delta that trips the P∆
//! monitor, so faults land in the full passes after the switch (PageRank,
//! both `run_incremental` and `run_delta`).
//!
//! A sixth fails checkpoint artifact writes on that same refresh. There a
//! fault may legitimately surface: a failed baseline or post-switch save
//! has no sealed checkpoint behind it to rewind to. Each of its rounds
//! must end either as above or in an `Err` naming the injected fault.

use i2mapreduce::algos::{pagerank, sssp};
use i2mapreduce::core::checkpoint::IterCheckpointer;
use i2mapreduce::core::incr_iter::IncrParams;
use i2mapreduce::core::iterative::PreserveMode;
use i2mapreduce::datagen::delta::{graph_delta, weighted_graph_delta, DeltaSpec};
use i2mapreduce::datagen::graph::GraphGen;
use i2mapreduce::dfs::MiniDfs;
use i2mapreduce::mapred::fault::{FailAction, FailSite, FailpointRegistry};
use i2mapreduce::mapred::pool::PoolConfig;
use i2mapreduce::prelude::*;
use i2mapreduce::store::runtime::StoreManager;
use std::sync::Arc;

const N: usize = 3;

fn rounds() -> u64 {
    std::env::var("I2MR_CHAOS_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50)
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("i2mr-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Rebuild a store plane from checkpoint-format payloads under `dir`,
/// scheduling on `pool`. Unlike [`StoreManager::open`] this runs no pool
/// tasks, so an armed `TaskRun` budget is spent by the engine, not setup.
fn import_stores(pool: &WorkerPool, dir: &std::path::Path, payloads: &[Vec<u8>]) -> StoreManager {
    let shards = payloads
        .iter()
        .enumerate()
        .map(|(p, payload)| {
            MrbgStore::import(dir.join(format!("shard-{p}")), payload, Default::default()).unwrap()
        })
        .collect();
    StoreManager::from_stores(pool, shards, Default::default()).unwrap()
}

/// PageRank refresh params: exact propagation with the P∆ monitor
/// disabled, so the whole soak exercises the incremental path (the
/// fallback engine has its own recovery test in scenario 2, where faults
/// are absorbed below it).
fn pr_params() -> IncrParams {
    IncrParams {
        max_iterations: 400,
        pdelta_threshold: 2.0,
        ..Default::default()
    }
}

/// The PageRank delta of scenarios 1 and 2.
const PR_DELTA: DeltaSpec = DeltaSpec {
    change_fraction: 0.08,
    delete_fraction: 0.1,
    insert_fraction: 0.02,
    seed: 0xFACE,
};

/// Converged PageRank workload refreshed by `delta` under `params`: (data,
/// shard payloads, delta, reference state, reference exports).
#[allow(clippy::type_complexity)]
fn pagerank_workload(
    tag: &str,
    delta: DeltaSpec,
    params: IncrParams,
) -> (
    i2mapreduce::core::iter_engine::PartitionedData<u64, Vec<u64>, u64, f64>,
    Vec<Vec<u8>>,
    i2mapreduce::core::Delta<u64, Vec<u64>>,
    Vec<Vec<(u64, f64)>>,
    Vec<Vec<u8>>,
) {
    let cfg = JobConfig::symmetric(N);
    let pool = WorkerPool::new(N);
    let spec = pagerank::PageRank::default();
    let graph = GraphGen::new(48, 200, 0xC0A5).generate();
    let (data0, st0, _) = pagerank::i2mr_initial(
        &pool,
        &cfg,
        &graph,
        &spec,
        &scratch(&format!("pr-{tag}-seed")),
        Default::default(),
        300,
        1e-11,
        PreserveMode::FinalOnly,
    )
    .unwrap();
    let payloads: Vec<Vec<u8>> = (0..N).map(|p| st0.export(p).unwrap()).collect();
    drop(st0);

    let delta = graph_delta(&graph, delta);

    // Fault-free reference on a clean pool.
    let dir = scratch(&format!("pr-{tag}-ref"));
    let st = import_stores(&pool, &dir, &payloads);
    let mut data = data0.clone();
    let (rep, _) =
        pagerank::i2mr_incremental(&pool, &cfg, &mut data, &st, &spec, &delta, params, None)
            .unwrap();
    assert!(rep.converged, "{tag}: reference refresh did not converge");
    let exports: Vec<Vec<u8>> = (0..N).map(|p| st.export(p).unwrap()).collect();
    drop(st);
    let _ = std::fs::remove_dir_all(&dir);
    (data0, payloads, delta, data.state, exports)
}

/// Converged SSSP workload, same shape as [`pagerank_workload`].
#[allow(clippy::type_complexity)]
fn sssp_workload(
    tag: &str,
) -> (
    i2mapreduce::core::iter_engine::PartitionedData<u64, Vec<(u64, f64)>, u64, f64>,
    Vec<Vec<u8>>,
    i2mapreduce::core::Delta<u64, Vec<(u64, f64)>>,
    Vec<Vec<(u64, f64)>>,
    Vec<Vec<u8>>,
) {
    let cfg = JobConfig::symmetric(N);
    let pool = WorkerPool::new(N);
    let graph = GraphGen::new(48, 200, 0x55E0).weighted();
    let (data0, st0, _) = sssp::i2mr_initial(
        &pool,
        &cfg,
        &graph,
        0,
        &scratch(&format!("sssp-{tag}-seed")),
        Default::default(),
        300,
    )
    .unwrap();
    let payloads: Vec<Vec<u8>> = (0..N).map(|p| st0.export(p).unwrap()).collect();
    drop(st0);

    let delta = weighted_graph_delta(
        &graph,
        DeltaSpec {
            change_fraction: 0.08,
            delete_fraction: 0.0,
            insert_fraction: 0.02,
            seed: 0xABBA,
        },
    );

    let dir = scratch(&format!("sssp-{tag}-ref"));
    let st = import_stores(&pool, &dir, &payloads);
    let mut data = data0.clone();
    let (rep, _) = sssp::i2mr_delta(&pool, &cfg, &mut data, &st, 0, &delta, 300).unwrap();
    assert!(rep.converged, "{tag}: reference refresh did not converge");
    let exports: Vec<Vec<u8>> = (0..N).map(|p| st.export(p).unwrap()).collect();
    drop(st);
    let _ = std::fs::remove_dir_all(&dir);
    (data0, payloads, delta, data.state, exports)
}

/// Scenario 1: every task attempt dies (`Error`, rate 1.0) while the fault
/// budget lasts and the executor is forbidden to retry — each failure
/// escapes to the engine, which rewinds to the last sealed checkpoint and
/// resumes. Result must be bit-identical to the fault-free run, every
/// round, for budgets 1–3.
#[test]
fn task_faults_escape_to_checkpoint_rewind() {
    let cfg = JobConfig::symmetric(N);
    let spec = pagerank::PageRank::default();
    let (data0, payloads, delta, want_state, want_exports) =
        pagerank_workload("rewind", PR_DELTA, pr_params());

    for r in 0..rounds() {
        let budget = 1 + (r % 3) as u32;
        let fp = Arc::new(FailpointRegistry::seeded(0x11D0 + r, budget).arm(
            FailSite::TaskRun,
            1.0,
            FailAction::Error,
        ));
        let pool = WorkerPool::with_config(PoolConfig {
            max_attempts: 1,
            failpoints: Arc::clone(&fp),
            ..PoolConfig::new(N)
        });
        let dir = scratch(&format!("rewind-{r}"));
        let st = import_stores(&pool, &dir, &payloads);
        let dfs = MiniDfs::open_with(dir.join("dfs"), 1 << 20, 2).unwrap();
        let ck = IterCheckpointer::new(&dfs, format!("chaos-rewind-{r}"), N);
        let mut data = data0.clone();

        let (rep, _) = pagerank::i2mr_incremental(
            &pool,
            &cfg,
            &mut data,
            &st,
            &spec,
            &delta,
            pr_params(),
            Some(&ck),
        )
        .unwrap();
        assert!(rep.converged, "round {r}: faulted refresh did not converge");
        assert_eq!(fp.fired(), budget as u64, "round {r}: budget not consumed");
        let total = rep.total_metrics();
        assert!(total.recovery_ms > 0, "round {r}: rewind cost unaccounted");
        assert!(
            total.rebuilt_shards >= N as u64,
            "round {r}: shards not rebuilt on rewind"
        );
        assert_eq!(want_state, data.state, "round {r}: state diverged");
        for (p, want) in want_exports.iter().enumerate() {
            assert_eq!(
                *want,
                st.export(p).unwrap(),
                "round {r}: shard {p} export diverged"
            );
        }
        drop(st);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Scenario 2: workers die mid-task (`Panic`, rate 0.5). Panic isolation
/// turns the death into a task failure and the executor reschedules the
/// attempt on a surviving worker; with budget ≤ 2 and 3 attempts the
/// faults never escape the pool, and no panic ever escapes the process.
#[test]
fn worker_deaths_absorbed_by_rescheduling() {
    let cfg = JobConfig::symmetric(N);
    let spec = pagerank::PageRank::default();
    let (data0, payloads, delta, want_state, want_exports) =
        pagerank_workload("panic", PR_DELTA, pr_params());

    let mut total_fired = 0u64;
    let mut total_retries = 0u64;
    for r in 0..rounds() {
        let budget = 1 + (r % 2) as u32;
        let fp = Arc::new(FailpointRegistry::seeded(0xDEAD + r, budget).arm(
            FailSite::TaskRun,
            0.5,
            FailAction::Panic,
        ));
        let pool = WorkerPool::with_config(PoolConfig {
            failpoints: Arc::clone(&fp),
            ..PoolConfig::new(N)
        });
        let dir = scratch(&format!("panic-{r}"));
        let st = import_stores(&pool, &dir, &payloads);
        let mut data = data0.clone();

        let (rep, _) = pagerank::i2mr_incremental(
            &pool,
            &cfg,
            &mut data,
            &st,
            &spec,
            &delta,
            pr_params(),
            None,
        )
        .unwrap();
        assert!(rep.converged, "round {r}: faulted refresh did not converge");
        total_fired += fp.fired();
        total_retries += rep.total_metrics().retries;
        assert_eq!(want_state, data.state, "round {r}: state diverged");
        for (p, want) in want_exports.iter().enumerate() {
            assert_eq!(
                *want,
                st.export(p).unwrap(),
                "round {r}: shard {p} export diverged"
            );
        }
        drop(st);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Rate 0.5 over dozens of task launches per round: the soak as a whole
    // must actually have killed workers and rescheduled their tasks.
    assert!(
        total_fired > rounds() / 2,
        "panics barely fired: {total_fired}"
    );
    assert!(
        total_retries >= total_fired,
        "retries {total_retries} < deaths {total_fired}"
    );
}

/// Scenario 3: the store plane's read and merge paths throw I/O errors
/// (rate 0.7, budget 2). The failpoints fire before any shard lock or
/// one-shot state is taken, so the executor's cross-worker retries absorb
/// them without double-applying merges — pinned by byte-identical exports.
#[test]
fn store_io_faults_absorbed_by_task_retries() {
    let cfg = JobConfig::symmetric(N);
    let (data0, payloads, delta, want_state, want_exports) = sssp_workload("storeio");

    let pool = WorkerPool::new(N);
    let mut total_fired = 0u64;
    for r in 0..rounds() {
        let fp = Arc::new(
            FailpointRegistry::seeded(0x10A + r, 2)
                .arm(FailSite::StoreRead, 0.7, FailAction::Error)
                .arm(FailSite::StoreAppend, 0.7, FailAction::Error),
        );
        let dir = scratch(&format!("storeio-{r}"));
        let mut st = import_stores(&pool, &dir, &payloads);
        st.set_failpoints(Arc::clone(&fp));
        let mut data = data0.clone();

        let (rep, _) = sssp::i2mr_delta(&pool, &cfg, &mut data, &st, 0, &delta, 300).unwrap();
        assert!(rep.converged, "round {r}: faulted refresh did not converge");
        total_fired += fp.fired();
        assert_eq!(want_state, data.state, "round {r}: state diverged");
        for (p, want) in want_exports.iter().enumerate() {
            assert_eq!(
                *want,
                st.export(p).unwrap(),
                "round {r}: shard {p} export diverged"
            );
        }
        drop(st);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        total_fired > rounds(),
        "store faults barely fired: {total_fired}"
    );
}

/// Scenario 4: a crash left a torn tail on one shard's chunk file. Reopen
/// must salvage (truncate the tail, count the bytes) and the refresh must
/// still land on the bit-identical fixed point.
#[test]
fn torn_tails_salvaged_on_reopen() {
    let cfg = JobConfig::symmetric(N);
    let (data0, payloads, delta, want_state, want_exports) = sssp_workload("torn");

    let pool = WorkerPool::new(N);
    for r in 0..rounds() {
        let dir = scratch(&format!("torn-{r}"));
        // Materialize the shards on disk, then simulate the crash: append
        // a partial frame of garbage to one shard's chunk file.
        drop(import_stores(&pool, &dir, &payloads));
        let victim = (r as usize) % N;
        let torn = vec![0xAB; 5 + (r as usize % 32)];
        let chunk_file = dir.join(format!("shard-{victim}")).join("mrbg.data");
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&chunk_file)
                .unwrap();
            f.write_all(&torn).unwrap();
        }

        let st = StoreManager::open(&pool, &dir, N, Default::default()).unwrap();
        let mut data = data0.clone();
        let (rep, _) = sssp::i2mr_delta(&pool, &cfg, &mut data, &st, 0, &delta, 300).unwrap();
        assert!(rep.converged, "round {r}: refresh did not converge");
        assert_eq!(
            rep.total_metrics().salvaged_bytes,
            torn.len() as u64,
            "round {r}: torn tail not salvaged"
        );
        assert_eq!(want_state, data.state, "round {r}: state diverged");
        for (p, want) in want_exports.iter().enumerate() {
            assert_eq!(
                *want,
                st.export(p).unwrap(),
                "round {r}: shard {p} export diverged"
            );
        }
        drop(st);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Scenario 5: scenario 1's no-retry task faults on a delta that trips the
/// P∆ monitor after iteration 1, at a rate low enough that faults land in
/// the full passes after the switch. The rewind resumes from the last MRBG
/// pass's checkpoint and re-enters full passes; the result must be
/// bit-identical to the fault-free run, on both refresh entry points.
fn faults_after_pdelta_switch(delta_iter: bool) {
    let cfg = JobConfig::symmetric(N);
    let spec = pagerank::PageRank::default();
    let params = IncrParams {
        max_iterations: 400,
        ..Default::default()
    };
    let big = DeltaSpec {
        change_fraction: 0.5,
        ..PR_DELTA
    };
    let tag = if delta_iter {
        "switch-delta"
    } else {
        "switch-incr"
    };
    let (data0, payloads, delta, want_state, want_exports) = pagerank_workload(tag, big, params);

    let mut faults_after_switch = 0;
    for r in 0..rounds().min(8) {
        let budget = 1 + (r % 2) as u32;
        let fp = Arc::new(FailpointRegistry::seeded(0x5A17 + r, budget).arm(
            FailSite::TaskRun,
            0.05,
            FailAction::Error,
        ));
        let pool = WorkerPool::with_config(PoolConfig {
            max_attempts: 1,
            failpoints: Arc::clone(&fp),
            ..PoolConfig::new(N)
        });
        let dir = scratch(&format!("{tag}-{r}"));
        let st = import_stores(&pool, &dir, &payloads);
        let dfs = MiniDfs::open_with(dir.join("dfs"), 1 << 20, 2).unwrap();
        let ck = IterCheckpointer::new(&dfs, format!("chaos-{tag}-{r}"), N);
        let mut data = data0.clone();

        let (rep, _) = if delta_iter {
            pagerank::i2mr_delta(
                &pool,
                &cfg,
                &mut data,
                &st,
                &spec,
                &delta,
                params,
                Some(&ck),
            )
        } else {
            pagerank::i2mr_incremental(
                &pool,
                &cfg,
                &mut data,
                &st,
                &spec,
                &delta,
                params,
                Some(&ck),
            )
        }
        .unwrap();
        assert!(rep.converged, "round {r}: faulted refresh did not converge");
        assert_eq!(rep.mrbg_turned_off_at, Some(1), "round {r}: P∆ must trip");
        // A rewind charges its cost to the pass it resumes with; any pass
        // after the first resumed from a fault after the switch.
        if rep.per_iteration[1..].iter().any(|m| m.recovery_ms > 0) {
            faults_after_switch += 1;
        }
        assert_eq!(want_state, data.state, "round {r}: state diverged");
        for (p, want) in want_exports.iter().enumerate() {
            assert_eq!(
                *want,
                st.export(p).unwrap(),
                "round {r}: shard {p} export diverged"
            );
        }
        drop(st);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        faults_after_switch > 0,
        "no fault landed after the P∆ switch — test is vacuous"
    );
}

#[test]
fn faults_after_pdelta_switch_rewind_bit_identical_incremental() {
    faults_after_pdelta_switch(false);
}

#[test]
fn faults_after_pdelta_switch_rewind_bit_identical_delta() {
    faults_after_pdelta_switch(true);
}

/// Scenario 6: checkpoint artifact writes fail (`Error`, seeded rate and
/// budget) during a checkpointed PageRank refresh through the P∆ switch.
/// A failed save after an MRBG pass escapes to the engine, which rewinds
/// to the last sealed checkpoint; a failed iteration-0 baseline or
/// post-switch record save has nothing to rewind to and surfaces. Every
/// round ends either `Ok` — bit-identical state, byte-identical exports —
/// or in an `Err` naming the injected checkpoint-write fault.
#[test]
fn checkpoint_write_faults_rewind_or_surface() {
    let cfg = JobConfig::symmetric(N);
    let spec = pagerank::PageRank::default();
    let params = IncrParams {
        max_iterations: 400,
        ..Default::default()
    };
    let big = DeltaSpec {
        change_fraction: 0.5,
        ..PR_DELTA
    };
    let (data0, payloads, delta, want_state, want_exports) =
        pagerank_workload("ckpt-write", big, params);

    let pool = WorkerPool::new(N);
    let (mut rewound, mut clean, mut surfaced, mut total_fired) = (0u64, 0u64, 0u64, 0u64);
    for r in 0..rounds() {
        let budget = 1 + (r % 3) as u32;
        let fp = Arc::new(FailpointRegistry::seeded(0xC4E7 + r, budget).arm(
            FailSite::CheckpointWrite,
            0.05,
            FailAction::Error,
        ));
        let dir = scratch(&format!("ckpt-write-{r}"));
        let st = import_stores(&pool, &dir, &payloads);
        let dfs = MiniDfs::open_with(dir.join("dfs"), 1 << 20, 2).unwrap();
        dfs.set_failpoints(Arc::clone(&fp));
        let ck = IterCheckpointer::new(&dfs, format!("chaos-ckpt-write-{r}"), N);
        let mut data = data0.clone();

        let run = pagerank::i2mr_incremental(
            &pool,
            &cfg,
            &mut data,
            &st,
            &spec,
            &delta,
            params,
            Some(&ck),
        );
        total_fired += fp.fired();
        match run {
            Ok((rep, _)) => {
                assert!(rep.converged, "round {r}: faulted refresh did not converge");
                assert_eq!(rep.mrbg_turned_off_at, Some(1), "round {r}: P∆ must trip");
                assert_eq!(want_state, data.state, "round {r}: state diverged");
                for (p, want) in want_exports.iter().enumerate() {
                    assert_eq!(
                        *want,
                        st.export(p).unwrap(),
                        "round {r}: shard {p} export diverged"
                    );
                }
                if fp.fired() > 0 {
                    assert!(
                        rep.total_metrics().recovery_ms > 0,
                        "round {r}: a fault fired and was absorbed without a rewind"
                    );
                    rewound += 1;
                } else {
                    clean += 1;
                }
            }
            Err(e) => {
                assert!(fp.fired() > 0, "round {r}: error without a fault: {e}");
                assert!(
                    e.to_string().contains(FailSite::CheckpointWrite.name()),
                    "round {r}: surfaced error does not name the fault: {e}"
                );
                surfaced += 1;
            }
        }
        drop(st);
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!(
        "checkpoint-write faults: {} rounds, {total_fired} faults; \
         {rewound} rewound to Ok, {clean} fault-free Ok, {surfaced} surfaced as Err",
        rounds()
    );
    assert!(
        total_fired > 0,
        "no checkpoint write ever failed — test is vacuous"
    );
}
