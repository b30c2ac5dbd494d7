//! Executor soak + interleaving stress: the CI scheduler job.
//!
//! The persistent work-stealing executor replaced spawn-per-call
//! scheduling, so its failure modes are now *races*: a fence that misses a
//! task, a steal that loses or duplicates work, a shutdown that drops
//! queued background compactions, batches from concurrent callers
//! corrupting each other's result slots. This suite hunts those loudly:
//!
//! * `soak_*` — seeded randomized task DAGs (chained batches whose inputs
//!   are the previous stage's outputs) interleaved with background
//!   epoch-tagged submissions and random fences, across many
//!   pool-size/seed combinations, with every result checked exactly.
//!   CI runs this under the `ci` profile (release codegen + debug
//!   assertions armed). `I2MR_SOAK_ROUNDS` scales the round count.
//! * `interleave_*` — a thread-interleaving stress smoke: many caller
//!   threads hammer one executor with overlapping batches and background
//!   work at once.
//!
//! The fence-semantics property ("a fence observes every task submitted
//! at or before its epoch and none after; shutdown drains what was
//! queued") is asserted both deterministically (gate-blocked later
//! epochs) and under the randomized soak.

use i2mapreduce::mapred::fault::{TaskId, TaskKind};
use i2mapreduce::mapred::pool::TaskSpec;
use i2mapreduce::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tid(kind: TaskKind, index: usize, iteration: u64) -> TaskId {
    TaskId {
        kind,
        index,
        iteration,
    }
}

fn soak_rounds(default: u64) -> u64 {
    std::env::var("I2MR_SOAK_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One soak round: a randomized staged DAG on a fresh pool.
///
/// Stage `s` is a batch of tasks; task `t` of stage `s` reads the full
/// output vector of stage `s-1` (the DAG edge set), so any lost, stale,
/// or misdelivered result changes a checked value. Background tasks are
/// submitted between stages at monotonically increasing epochs; every
/// `fence(e)` asserts exactly the tasks at epochs `<= e` have run.
fn soak_round(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_workers = rng.gen_range(1..5usize);
    let pool = WorkerPool::new(n_workers);

    // Background bookkeeping: per-epoch expected and completed counts.
    let mut expected: BTreeMap<u64, u64> = BTreeMap::new();
    let completed: Arc<parking_lot::Mutex<BTreeMap<u64, u64>>> =
        Arc::new(parking_lot::Mutex::new(BTreeMap::new()));

    let n_stages = rng.gen_range(1..6usize);
    let mut prev: Arc<Vec<u64>> = Arc::new((0..8u64).collect());
    for stage in 0..n_stages {
        // Background burst before the stage.
        if rng.gen_bool(0.7) {
            let epoch = pool.next_epoch();
            let n_bg = rng.gen_range(1..10u64);
            *expected.entry(epoch).or_insert(0) += n_bg;
            for i in 0..n_bg {
                let completed = Arc::clone(&completed);
                let sleep_us = rng.gen_range(0..300u64);
                pool.submit_at(
                    epoch,
                    TaskSpec::new(tid(TaskKind::Compact, i as usize, epoch), move |_| {
                        if sleep_us > 0 {
                            std::thread::sleep(Duration::from_micros(sleep_us));
                        }
                        *completed.lock().entry(epoch).or_insert(0) += 1;
                        Ok(())
                    }),
                );
            }
        }

        // The stage batch: each task folds the previous stage's outputs.
        let n_tasks = rng.gen_range(1..12usize);
        let inputs = Arc::clone(&prev);
        let tasks: Vec<TaskSpec<u64>> = (0..n_tasks)
            .map(|t| {
                let inputs = Arc::clone(&inputs);
                let pin = rng.gen_bool(0.5).then(|| rng.gen_range(0..n_workers));
                let sleep_us = rng.gen_range(0..200u64);
                let run = move |_attempt: u32| {
                    if sleep_us > 0 {
                        std::thread::sleep(Duration::from_micros(sleep_us));
                    }
                    Ok(inputs.iter().sum::<u64>() + t as u64)
                };
                match pin {
                    Some(w) => TaskSpec::pinned(tid(TaskKind::Map, t, stage as u64), w, run),
                    None => TaskSpec::new(tid(TaskKind::Map, t, stage as u64), run),
                }
            })
            .collect();
        let out = pool.run_tasks(tasks).unwrap();
        let base: u64 = prev.iter().sum();
        assert_eq!(
            out,
            (0..n_tasks as u64).map(|t| base + t).collect::<Vec<_>>(),
            "stage {stage}: batch results corrupted (seed {seed})"
        );
        prev = Arc::new(out);

        // Random fence: everything at or before the fenced epoch must have
        // completed; nothing later is required to.
        if rng.gen_bool(0.5) {
            if let Some((&e, _)) = expected.iter().next_back() {
                pool.fence(e).unwrap();
                let done = completed.lock();
                for (epoch, want) in expected.range(..=e) {
                    assert_eq!(
                        done.get(epoch),
                        Some(want),
                        "fence({e}) missed epoch {epoch} (seed {seed})"
                    );
                }
            }
        }
    }

    // Dropping the pool is a graceful shutdown: queued background work
    // must drain, never be dropped.
    drop(pool);
    let done = completed.lock();
    assert_eq!(
        *done, expected,
        "shutdown dropped queued background tasks (seed {seed})"
    );
}

#[test]
fn soak_randomized_task_dags_with_fences() {
    let rounds = soak_rounds(40);
    let base = std::env::var("I2MR_SOAK_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FFEE_u64);
    for r in 0..rounds {
        soak_round(base.wrapping_add(r));
    }
}

#[test]
fn soak_fence_sees_all_prior_tasks_and_none_after() {
    // Deterministic fence-semantics property: a fence at epoch e returns
    // after every epoch-<=e task and does NOT wait for epoch-(e+1) tasks,
    // proven with gate-blocked later tasks.
    for pre in [0usize, 1, 3, 9] {
        for post in [1usize, 4] {
            let pool = WorkerPool::new(2);
            let done_pre = Arc::new(AtomicU64::new(0));
            let e1 = pool.next_epoch();
            for i in 0..pre {
                let c = Arc::clone(&done_pre);
                pool.submit_at(
                    e1,
                    TaskSpec::new(tid(TaskKind::Compact, i, 1), move |_| {
                        std::thread::sleep(Duration::from_micros(200));
                        c.fetch_add(1, Ordering::SeqCst);
                        Ok(())
                    }),
                );
            }
            let gate = Arc::new(AtomicBool::new(false));
            let e2 = pool.next_epoch();
            for i in 0..post {
                let gate = Arc::clone(&gate);
                pool.submit_at(
                    e2,
                    TaskSpec::new(tid(TaskKind::Compact, i, 2), move |_| {
                        while !gate.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_micros(50));
                        }
                        Ok(())
                    }),
                );
            }
            pool.fence(e1).unwrap();
            assert_eq!(done_pre.load(Ordering::SeqCst), pre as u64);
            assert!(
                pool.pending_at_or_before(e2) > 0,
                "fence({e1}) waited for epoch {e2} tasks it must not observe"
            );
            gate.store(true, Ordering::SeqCst);
            pool.fence(e2).unwrap();
            assert_eq!(pool.pending_at_or_before(e2), 0);
        }
    }
}

#[test]
fn soak_shutdown_drains_queued_compactions() {
    // The real store plane: schedule policy-driven background compactions,
    // then shut down without fencing — the reclamation must still happen.
    use i2mapreduce::store::{CompactionPolicy, StoreManager, StoreRuntimeConfig};
    let dir = std::env::temp_dir().join(format!("i2mr-soak-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreRuntimeConfig {
        policy: CompactionPolicy {
            min_garbage_ratio: 0.2,
            min_batches: 2,
            min_file_bytes: 0,
        },
        ..Default::default()
    };

    let pool = WorkerPool::new(1);
    let before;
    {
        let mgr = StoreManager::create(&pool, &dir, 2, cfg).unwrap();
        use i2mapreduce::store::{Chunk, ChunkEntry};
        use i2mr_common::hash::MapKey;
        let batch = |v: u64| {
            (0..2)
                .map(|p| {
                    (0..16)
                        .map(|i| {
                            Chunk::new(
                                format!("k{p}-{i:03}").into_bytes(),
                                vec![ChunkEntry {
                                    mk: MapKey(v as u128),
                                    value: vec![v as u8; 64],
                                }],
                            )
                        })
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        mgr.append_batch_all(0, batch(0)).unwrap();
        for round in 1..=4u64 {
            mgr.merge_apply_all(round, |p| {
                use i2mapreduce::store::{DeltaChunk, DeltaEntry};
                Ok((0..16)
                    .map(|i| DeltaChunk {
                        key: format!("k{p}-{i:03}").into_bytes(),
                        entries: vec![
                            DeltaEntry::Delete(MapKey(round as u128 - 1)),
                            DeltaEntry::Insert(MapKey(round as u128), vec![round as u8; 64]),
                        ],
                    })
                    .collect())
            })
            .unwrap();
            // The commit writes the round's pending frames back, so the
            // obsolete versions reach the file.
            mgr.flush_indexes().unwrap();
        }
        before = mgr.file_bytes();
        assert!(mgr.schedule_compactions(5).unwrap() > 0, "nothing was due");
        // No fence and no drop (StoreManager::drop would settle the work
        // itself): shutdown alone must drain the queued Compact tasks.
        pool.shutdown();
        assert!(
            mgr.file_bytes() < before,
            "shutdown dropped queued compactions instead of draining them"
        );
    }
}

#[test]
fn interleave_concurrent_batches_stress() {
    // Many caller threads share one executor; every batch's results must
    // come back intact and in submission order.
    let pool = WorkerPool::new(3);
    let rounds = soak_rounds(30);
    std::thread::scope(|scope| {
        for caller in 0..8u64 {
            let pool = pool.clone();
            scope.spawn(move || {
                for round in 0..rounds {
                    let n = 1 + ((caller + round) % 9) as usize;
                    let tasks: Vec<TaskSpec<u64>> = (0..n)
                        .map(|t| {
                            let v = caller * 10_000 + round * 100 + t as u64;
                            TaskSpec::new(tid(TaskKind::Map, t, round), move |_| Ok(v))
                        })
                        .collect();
                    let out = pool.run_tasks(tasks).unwrap();
                    let want: Vec<u64> = (0..n as u64)
                        .map(|t| caller * 10_000 + round * 100 + t)
                        .collect();
                    assert_eq!(out, want, "caller {caller} round {round}");
                }
            });
        }
    });
}

#[test]
fn interleave_background_work_with_batches() {
    // Background epoch work keeps flowing while batches run; fences from a
    // second thread stay correct throughout.
    let pool = WorkerPool::new(2);
    let counter = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        {
            let pool = pool.clone();
            let counter = Arc::clone(&counter);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut submitted = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let e = pool.next_epoch();
                    for i in 0..4 {
                        let c = Arc::clone(&counter);
                        pool.submit_at(
                            e,
                            TaskSpec::new(tid(TaskKind::Compact, i, e), move |_| {
                                c.fetch_add(1, Ordering::SeqCst);
                                Ok(())
                            }),
                        );
                    }
                    submitted += 4;
                    pool.fence(e).unwrap();
                    assert_eq!(counter.load(Ordering::SeqCst), submitted);
                }
            });
        }
        for round in 0..soak_rounds(40) {
            let tasks: Vec<TaskSpec<u64>> = (0..6)
                .map(|t| TaskSpec::new(tid(TaskKind::Map, t, round), move |_| Ok(round + t as u64)))
                .collect();
            let out = pool.run_tasks(tasks).unwrap();
            assert_eq!(out, (0..6).map(|t| round + t).collect::<Vec<_>>());
        }
        stop.store(true, Ordering::SeqCst);
    });
}
