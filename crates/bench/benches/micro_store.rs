//! Microbench of the MRBG-Store plane: chunk codec, point lookups, merge
//! strategies — and the headline **serial vs. sharded merge+compact**
//! comparison on a PageRank-shaped MRBGraph at 8 partitions.
//!
//! The plane comparison pits two configurations of the same
//! [`StoreManager`] against each other over identical seeded shards and
//! identical delta rounds:
//!
//! * **serial** — the pre-runtime behavior: every partition's merge runs
//!   on a one-worker pool, one shard after another, and reclamation is a
//!   stop-the-world `compact_all` after every refresh round (the only
//!   cadence available before the policy existed).
//! * **sharded** — the store runtime: merges scheduled as partition-affine
//!   `StoreMerge` tasks on a worker pool, and compaction driven by the
//!   default [`CompactionPolicy`] between rounds, so only shards whose
//!   garbage crossed the thresholds pay the rewrite.
//!
//! `summarize` asserts the two planes are **byte-identical** after a final
//! full compaction (the same invariant `tests/store_equivalence.rs` proves
//! on a real incremental PageRank run) and prints the speedup against the
//! ≥1.5× target. `scripts/bench_snapshot.sh micro_store` snapshots all
//! timings into `BENCH_store.json`; `scripts/bench_check.sh` gates CI on
//! the recorded serial→sharded speedup ratios.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use i2mr_bench::sized;
use i2mr_common::hash::MapKey;
use i2mr_mapred::WorkerPool;
use i2mr_store::compact::CompactionPolicy;
use i2mr_store::format::{Chunk, ChunkEntry};
use i2mr_store::merge::{DeltaChunk, DeltaEntry};
use i2mr_store::query::QueryStrategy;
use i2mr_store::runtime::{StoreManager, StoreRuntimeConfig};
use i2mr_store::store::{MrbgStore, StoreConfig};

const N_SHARDS: usize = 8;
const ROUNDS: u64 = 6;

fn chunk(k: u64, entries: usize) -> Chunk {
    Chunk::new(
        format!("key-{k:08}").into_bytes(),
        (0..entries as u128)
            .map(|m| ChunkEntry {
                mk: MapKey(m),
                value: vec![7u8; 48],
            })
            .collect(),
    )
}

fn bench_chunk_codec(c: &mut Criterion) {
    let ch = chunk(1, 16);
    let mut buf = Vec::new();
    ch.encode(&mut buf);
    c.bench_function("store/chunk_encode_16x48B", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(buf.len());
            ch.encode(&mut out);
            out
        })
    });
    c.bench_function("store/chunk_decode_16x48B", |b| {
        b.iter(|| {
            let mut cur = buf.as_slice();
            Chunk::decode(&mut cur).unwrap()
        })
    });
}

fn build_store(tag: &str, n: u64) -> MrbgStore {
    let dir = std::env::temp_dir().join(format!("i2mr-micro-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut s = MrbgStore::create(dir, StoreConfig::default()).unwrap();
    s.append_batch((0..n).map(|k| chunk(k, 8)).collect())
        .unwrap();
    s
}

fn bench_point_get(c: &mut Criterion) {
    let mut s = build_store("get", 2000);
    let mut k = 0u64;
    c.bench_function("store/point_get", |b| {
        b.iter(|| {
            k = (k + 7) % 2000;
            s.get(format!("key-{k:08}").as_bytes()).unwrap()
        })
    });
    // The split read path: same lookups through a detached reader + `&self`.
    let mut reader = s.reader().unwrap();
    c.bench_function("store/point_get_reader", |b| {
        b.iter(|| {
            k = (k + 7) % 2000;
            s.get_with(&mut reader, format!("key-{k:08}").as_bytes())
                .unwrap()
        })
    });
}

fn bench_merge_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("store/merge_500_of_2000");
    for (name, strategy) in [
        ("index_only", QueryStrategy::IndexOnly),
        (
            "multi_dynamic",
            QueryStrategy::MultiDynamicWindow {
                gap_threshold: 4096,
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &strategy, |b, strat| {
            b.iter_batched(
                || {
                    let mut s = build_store(&format!("merge-{name}"), 2000);
                    s.set_strategy(*strat);
                    let deltas: Vec<DeltaChunk> = (0..2000u64)
                        .step_by(4)
                        .map(|k| DeltaChunk {
                            key: format!("key-{k:08}").into_bytes(),
                            entries: vec![DeltaEntry::Insert(MapKey(999), vec![1u8; 48])],
                        })
                        .collect();
                    (s, deltas)
                },
                |(mut s, deltas)| s.merge_apply(deltas).unwrap(),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// Serial vs. sharded store plane on a PageRank-shaped MRBGraph.
// ---------------------------------------------------------------------------

/// Number of preserved Reduce instances (vertices) per shard.
fn chunks_per_shard() -> u64 {
    sized(1200)
}

/// The sharded plane's policy, with the absolute-size floor removed: the
/// default `min_file_bytes` exists to spare real deployments pointless
/// tiny-store swaps, but here it would make quick mode (8× smaller shards)
/// measure a different compaction cadence than full mode — and the
/// regression gate compares the two runs' speedup *ratios*, which must
/// therefore be size-invariant. Ratio/batch thresholds stay at defaults.
fn sharded_runtime() -> StoreRuntimeConfig {
    StoreRuntimeConfig {
        policy: CompactionPolicy {
            min_file_bytes: 0,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// PageRank-shaped chunk: vertex key, ~8 in-edges, 8-byte rank shares.
fn pr_chunk(p: usize, v: u64) -> Chunk {
    Chunk::new(
        format!("v{p}:{v:08}").into_bytes(),
        (0..8u128)
            .map(|src| ChunkEntry {
                mk: MapKey(src * 1000 + v as u128),
                value: (0.85f64 / 8.0).to_le_bytes().to_vec(),
            })
            .collect(),
    )
}

/// The serial plane's pool and runtime: one worker, no policy-driven
/// compaction.
fn serial_plane() -> (WorkerPool, StoreRuntimeConfig) {
    let cfg = StoreRuntimeConfig {
        policy: CompactionPolicy::never(),
        ..Default::default()
    };
    (WorkerPool::new(1), cfg)
}

/// Fresh manager with every shard seeded with the initial MRBGraph batch.
/// Seeding is identical for both planes (inline appends), so the measured
/// routine contains only merge + reclamation work.
fn seeded_manager(pool: &WorkerPool, tag: &str, cfg: StoreRuntimeConfig) -> StoreManager {
    let dir = std::env::temp_dir().join(format!(
        "i2mr-micro-plane-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mgr = StoreManager::create(pool, &dir, N_SHARDS, cfg).unwrap();
    let n = chunks_per_shard();
    for p in 0..N_SHARDS {
        let batch: Vec<Chunk> = (0..n).map(|v| pr_chunk(p, v)).collect();
        mgr.with_store(p, |s| s.append_batch(batch)).unwrap();
    }
    mgr
}

/// Round `r`'s delta for shard `p`: upsert one in-edge on every 4th vertex
/// (the rank of a changed source propagating to its targets — exactly the
/// shape an incremental PageRank iteration merges).
fn round_deltas(p: usize, r: u64) -> Vec<DeltaChunk> {
    (0..chunks_per_shard())
        .step_by(4)
        .map(|v| DeltaChunk {
            key: format!("v{p}:{v:08}").into_bytes(),
            entries: vec![DeltaEntry::Insert(
                MapKey((r as u128) * 1_000_000 + v as u128),
                (0.85f64 / (8 + r) as f64).to_le_bytes().to_vec(),
            )],
        })
        .collect()
}

/// Drive `ROUNDS` refresh rounds of merge + reclamation on one plane.
fn run_plane(mgr: &StoreManager, stop_the_world: bool) {
    for r in 1..=ROUNDS {
        mgr.merge_apply_all(r, |p| Ok(round_deltas(p, r))).unwrap();
        if stop_the_world {
            mgr.compact_all(r).unwrap();
        } else {
            mgr.maybe_compact(r).unwrap();
        }
    }
}

/// Merges only — isolates the scheduling difference without reclamation.
fn run_merges(mgr: &StoreManager) {
    for r in 1..=ROUNDS {
        mgr.merge_apply_all(r, |p| Ok(round_deltas(p, r))).unwrap();
    }
}

fn bench_merge_plane(c: &mut Criterion) {
    let pool = WorkerPool::new(N_SHARDS);
    let (one, serial) = serial_plane();
    let mut g = c.benchmark_group("micro_store/merge");
    g.bench_function(BenchmarkId::new("serial", N_SHARDS), |b| {
        b.iter_batched(
            || seeded_manager(&one, "m-ser", serial),
            |mgr| run_merges(&mgr),
            BatchSize::LargeInput,
        )
    });
    g.bench_function(BenchmarkId::new("sharded", N_SHARDS), |b| {
        b.iter_batched(
            || seeded_manager(&pool, "m-shd", sharded_runtime()),
            |mgr| run_merges(&mgr),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_mergephase(c: &mut Criterion) {
    let pool = WorkerPool::new(N_SHARDS);
    let (one, serial) = serial_plane();
    let mut g = c.benchmark_group("micro_store/mergephase");
    g.bench_function(BenchmarkId::new("serial", N_SHARDS), |b| {
        b.iter_batched(
            || seeded_manager(&one, "p-ser", serial),
            |mgr| run_plane(&mgr, true),
            BatchSize::LargeInput,
        )
    });
    g.bench_function(BenchmarkId::new("sharded", N_SHARDS), |b| {
        b.iter_batched(
            || seeded_manager(&pool, "p-shd", sharded_runtime()),
            |mgr| run_plane(&mgr, false),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Sanity + shape: both planes end byte-identical, and the sharded
/// merge+compact phase beats stop-the-world serial by the target margin.
fn summarize(_c: &mut Criterion) {
    // Correctness cross-check, independent of timing: identical seed +
    // identical rounds through each plane, then a final full compaction on
    // both — every shard's canonical export must match byte-for-byte.
    let pool = WorkerPool::new(N_SHARDS);
    let (one, serial) = serial_plane();
    let ser = seeded_manager(&one, "eq-ser", serial);
    let shd = seeded_manager(&pool, "eq-shd", sharded_runtime());
    run_plane(&ser, true);
    run_plane(&shd, false);
    shd.compact_all(ROUNDS + 1).unwrap();
    ser.compact_all(ROUNDS + 1).unwrap();
    for p in 0..N_SHARDS {
        assert_eq!(
            ser.export(p).unwrap(),
            shd.export(p).unwrap(),
            "shard {p}: serial and sharded planes diverged"
        );
    }

    let recs = criterion::completed_records();
    let median = |id: &str| recs.iter().find(|r| r.id == id).map(|r| r.median_ns as f64);
    let base = median(&format!("micro_store/mergephase/serial/{N_SHARDS}"));
    let shard = median(&format!("micro_store/mergephase/sharded/{N_SHARDS}"));
    match (base, shard) {
        (Some(base), Some(shard)) if shard > 0.0 => {
            let speedup = base / shard;
            let ok = if speedup >= 1.5 { "OK" } else { "MISMATCH" };
            println!(
                "shape: merge+compact phase at {N_SHARDS} partitions: sharded plane {speedup:.2}x \
                 faster than stop-the-world serial (target >= 1.5x) .. {ok}"
            );
        }
        _ => println!("shape: mergephase medians missing .. SKIPPED"),
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_chunk_codec, bench_point_get, bench_merge_strategies,
              bench_merge_plane, bench_mergephase, summarize
}
criterion_main!(benches);
