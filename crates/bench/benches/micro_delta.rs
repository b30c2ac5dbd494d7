//! Microbench of workset-driven refreshes: **full-pass incremental
//! refresh vs workset-driven delta iteration** on SSSP, across 0.1%, 1%
//! and 10% structural churn (the fig. 11 propagation-control shape).
//!
//! Both variants refresh the *same* converged shortest-path computation
//! from the *same* seeded improvement-only weight delta, and — because
//! min-plus propagation under the monotonic contract is exact (FT = 0) —
//! both land on the **bit-identical** fixed point (`summarize` asserts
//! it). What differs is how much work reaching it takes:
//!
//! * **full** — full-pass incremental refresh: apply the structure delta,
//!   then re-run the plain iterative engine **warm-started from the
//!   converged state**. Every pass shuffles every edge and reduces every
//!   vertex until nothing moves, then re-preserves the MRBGraph so the
//!   computation stays refreshable — the refresh story before workset
//!   scheduling existed.
//! * **delta** — `RunSession::run_delta`: the changed records seed a workset,
//!   each iteration maps/shuffles/reduces **only workset keys**, point
//!   merges hit only touched shards of the preserved MRBG-Store, and
//!   reduce-output deltas seed the next workset until it drains.
//!
//! The delta store plane is tuned for the sparse-workset access pattern:
//! point reads (`QueryStrategy::IndexOnly` — windowed scans would drag in
//! most of the file for a scattered workset) and reclamation deferred to
//! between refreshes (`CompactionPolicy::never()` for the run — the full
//! variant's rebuilt store carries no garbage to reclaim either, so
//! neither side pays compaction inside the timed window).
//!
//! Speedup decays as churn grows — at 10% the workset covers most of the
//! graph and the two variants converge on the same cost, which is exactly
//! the fig. 11 story. The headline `micro_delta/churn1pct` ratio is gated
//! ≥ 3× by `scripts/bench_check.sh` (full-size mode; quick mode leaves
//! less full-pass work to skip). The snapshot lands in `BENCH_delta.json`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use i2mr_bench::sized;
use i2mr_core::incr_iter::apply_structure_delta;
use i2mr_core::iterative::{IterParams, PreserveMode};
use i2mr_core::run::RunBuilder;
use i2mr_core::{Delta, PartitionedData};
use i2mr_datagen::delta::{weighted_graph_delta, DeltaSpec};
use i2mr_datagen::graph::GraphGen;
use i2mr_mapred::{JobConfig, WorkerPool};
use i2mr_store::compact::CompactionPolicy;
use i2mr_store::query::QueryStrategy;
use i2mr_store::runtime::{StoreManager, StoreRuntimeConfig};
use std::path::{Path, PathBuf};

use i2mr_algos::sssp::{self, Sssp};

const N_PARTS: usize = 4;
const SOURCE: u64 = 0;
const MAX_ITERS: u64 = 500;

/// Churn levels and their group tags (fig. 11 x-axis).
const CHURNS: [(f64, &str); 3] = [(0.001, "0.1pct"), (0.01, "1pct"), (0.1, "10pct")];

fn n_vertices() -> u64 {
    sized(16_000)
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("i2mr-micro-delta-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Recursive dir copy: restores a pristine converged store per sample.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

type SsspData = PartitionedData<u64, Vec<(u64, f64)>, u64, f64>;

/// One converged SSSP computation: the pristine state + store dir both
/// refresh variants restore from, and the seeded delta they replay.
struct Converged {
    data: SsspData,
    pristine: PathBuf,
    delta: Delta<u64, Vec<(u64, f64)>>,
}

fn converge(pool: &WorkerPool, cfg: &JobConfig, churn: f64, tag: &str) -> Converged {
    let v = n_vertices();
    let graph = GraphGen::new(v, v * 6, 0xF1611).weighted();
    let pristine = scratch(&format!("pristine-{tag}"));
    let (data, stores, _) = sssp::i2mr_initial(
        pool,
        cfg,
        &graph,
        SOURCE,
        &pristine,
        StoreRuntimeConfig::default(),
        MAX_ITERS,
    )
    .unwrap();
    // Flush everything so the pristine dir is a complete, reopenable image.
    drop(stores);
    // Improvement-only weight churn: the monotonic contract's native delta
    // shape (weights only decrease, so distances only improve).
    let delta = weighted_graph_delta(
        &graph,
        DeltaSpec {
            change_fraction: churn,
            delete_fraction: 0.0,
            insert_fraction: 0.01,
            seed: 0xFEED,
        },
    );
    Converged {
        data,
        pristine,
        delta,
    }
}

/// Full-pass incremental refresh: apply the delta, warm-restart the plain
/// engine from the converged state, preserve the final MRBGraph into a
/// fresh store (a full pass rebuilds the preserved graph; it cannot patch
/// the old image).
fn run_full(pool: &WorkerPool, cfg: &JobConfig, conv: &Converged, tag: &str) -> SsspData {
    let mut data = conv.data.clone();
    let spec = Sssp { source: SOURCE };
    apply_structure_delta(&spec, N_PARTS, &mut data, &conv.delta);
    let stores = StoreManager::create(
        pool,
        scratch(&format!("full-{tag}")),
        N_PARTS,
        StoreRuntimeConfig::default(),
    )
    .unwrap();
    let session = RunBuilder::new(&spec)
        .pool(pool)
        .job(cfg.clone())
        .iter(IterParams {
            max_iterations: MAX_ITERS,
            epsilon: 1e-12,
            preserve: PreserveMode::FinalOnly,
        })
        .stores_ref(&stores)
        .build()
        .unwrap();
    let report = session.run_initial(&mut data).unwrap();
    assert!(report.converged, "full-pass refresh did not converge");
    data
}

/// Workset-driven refresh against a restored pristine store image.
fn run_delta(
    pool: &WorkerPool,
    cfg: &JobConfig,
    conv: &Converged,
    stores: &StoreManager,
) -> SsspData {
    let mut data = conv.data.clone();
    let (rep, _) =
        sssp::i2mr_delta(pool, cfg, &mut data, stores, SOURCE, &conv.delta, MAX_ITERS).unwrap();
    assert!(rep.converged, "delta refresh did not converge");
    data
}

/// Untimed restore of the pristine store image for the delta variant: a
/// live incremental system has its store plane open already, so the copy +
/// open + index preload are setup, not refresh latency.
fn restore(pool: &WorkerPool, conv: &Converged, tag: &str) -> StoreManager {
    let dir = scratch(&format!("work-{tag}"));
    copy_dir(&conv.pristine, &dir);
    let stores = StoreManager::open(
        pool,
        &dir,
        N_PARTS,
        StoreRuntimeConfig {
            policy: CompactionPolicy::never(),
            ..Default::default()
        },
    )
    .unwrap();
    stores.set_strategy(QueryStrategy::IndexOnly);
    stores
}

fn bench_refresh(c: &mut Criterion) {
    let pool = WorkerPool::new(N_PARTS);
    let cfg = JobConfig::symmetric(N_PARTS);
    for (churn, tag) in CHURNS {
        let conv = converge(&pool, &cfg, churn, tag);
        let mut g = c.benchmark_group(format!("micro_delta/churn{tag}"));
        g.bench_function(BenchmarkId::new("full", N_PARTS), |b| {
            b.iter_batched(
                || (),
                |()| run_full(&pool, &cfg, &conv, tag),
                BatchSize::LargeInput,
            )
        });
        g.bench_function(BenchmarkId::new("delta", N_PARTS), |b| {
            b.iter_batched(
                || restore(&pool, &conv, tag),
                |stores| run_delta(&pool, &cfg, &conv, &stores),
                BatchSize::LargeInput,
            )
        });
        g.finish();
    }
}

/// Shape + equivalence: one refresh through each variant from the same
/// pristine image must land on the **bit-identical** fixed point (min-plus
/// under the monotonic contract is exact — no CPC approximation), and the
/// 1%-churn speedup clears the ≥ 3× target `scripts/bench_check.sh` gates
/// on.
fn summarize(_c: &mut Criterion) {
    let pool = WorkerPool::new(N_PARTS);
    let cfg = JobConfig::symmetric(N_PARTS);
    let conv = converge(&pool, &cfg, 0.01, "eq");

    let full = run_full(&pool, &cfg, &conv, "eq-full");
    let stores = restore(&pool, &conv, "eq-delta");
    let delta = run_delta(&pool, &cfg, &conv, &stores);
    assert_eq!(
        full.state, delta.state,
        "refresh variants diverged: scheduling must not change the fixed point"
    );

    let recs = criterion::completed_records();
    let median = |id: &str| recs.iter().find(|r| r.id == id).map(|r| r.median_ns as f64);
    let f = median(&format!("micro_delta/churn1pct/full/{N_PARTS}"));
    let d = median(&format!("micro_delta/churn1pct/delta/{N_PARTS}"));
    match (f, d) {
        (Some(f), Some(d)) if d > 0.0 => {
            let speedup = f / d;
            let ok = if speedup >= 3.0 { "OK" } else { "MISMATCH" };
            println!(
                "shape: SSSP refresh at {} vertices, 1% churn: workset-driven delta iteration \
                 {speedup:.2}x faster than full-pass incremental (target >= 3x) .. {ok}",
                n_vertices()
            );
        }
        _ => println!("shape: churn1pct medians missing .. SKIPPED"),
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_refresh, summarize
}
criterion_main!(benches);
