//! Serving-plane tail latency: point lookups through a [`ServeHandle`]
//! while the store plane is idle vs. while an incremental merge+compact
//! churn runs against the same shards.
//!
//! The serving split read path exists so that online point lookups never
//! wait behind the data plane's exclusive writers: pooled readers chase
//! compaction generations, the hot-key cache rides shard data versions,
//! and merge work runs on the executor's Data lane below Serve-priority
//! work. This bench measures what that buys at the tail — the p99 of a
//! `get` under write churn must stay within **3×** of the idle p99
//! (`scripts/bench_check.sh micro_serve` gates the ratio; the committed
//! snapshot lives in `BENCH_serve.json`).
//!
//! The headline records are externally-measured quantiles, so they are
//! registered via `criterion::record_external` with the p99 in the
//! `median_ns` field the snapshot/gate scripts read:
//!
//!   micro_serve/lookup/idle/p99
//!   micro_serve/lookup/merging/p99

use criterion::{criterion_group, criterion_main, record_external, BenchRecord, Criterion};
use i2mr_bench::{scratch, sized};
use i2mr_common::hash::MapKey;
use i2mr_mapred::WorkerPool;
use i2mr_store::format::{Chunk, ChunkEntry};
use i2mr_store::merge::{DeltaChunk, DeltaEntry};
use i2mr_store::runtime::{StoreManager, StoreRuntimeConfig};
use i2mr_store::serve::ServeConfig;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const N_SHARDS: usize = 4;

fn key(p: usize, i: u64) -> Vec<u8> {
    format!("k{p}-{i:06}").into_bytes()
}

fn seeded_plane(pool: &WorkerPool, tag: &str, keys_per_shard: u64) -> StoreManager {
    let mgr = StoreManager::create(
        pool,
        scratch(&format!("serve-{tag}")),
        N_SHARDS,
        StoreRuntimeConfig::default(),
    )
    .unwrap();
    let batches: Vec<Vec<Chunk>> = (0..N_SHARDS)
        .map(|p| {
            (0..keys_per_shard)
                .map(|i| {
                    Chunk::new(
                        key(p, i),
                        (0..4u128)
                            .map(|m| ChunkEntry {
                                mk: MapKey(m),
                                value: vec![0xA5; 48],
                            })
                            .collect(),
                    )
                })
                .collect()
        })
        .collect();
    mgr.append_batch_all(0, batches).unwrap();
    mgr
}

/// Measure `lookups` point gets over a uniform key sweep; returns sorted
/// per-lookup latencies.
fn measure(mgr: &StoreManager, keys_per_shard: u64, lookups: u64) -> Vec<Duration> {
    let serve = mgr.serve(ServeConfig::default());
    let mut rng: u64 = 0x5EED_CAFE;
    let mut samples = Vec::with_capacity(lookups as usize);
    for _ in 0..lookups {
        // xorshift64: cheap, deterministic key choice.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let p = (rng % N_SHARDS as u64) as usize;
        let k = key(p, (rng >> 8) % keys_per_shard);
        let start = Instant::now();
        let got = serve.get(p, &k).unwrap();
        samples.push(start.elapsed());
        assert!(got.is_some(), "seeded key must stay live through churn");
    }
    samples.sort_unstable();
    samples
}

fn quantile(sorted: &[Duration], q: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

fn record(variant: &str, sorted: &[Duration]) {
    let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
    println!(
        "   {variant:<8} p50 {:>9.3?}  p99 {:>9.3?}  mean {:>9.3?}  ({} lookups)",
        quantile(sorted, 0.50),
        quantile(sorted, 0.99),
        mean,
        sorted.len()
    );
    record_external(BenchRecord {
        id: format!("micro_serve/lookup/{variant}/p99"),
        min_ns: sorted[0].as_nanos(),
        median_ns: quantile(sorted, 0.99).as_nanos(),
        mean_ns: mean.as_nanos(),
        samples: sorted.len(),
    });
}

fn bench_serve_under_merge(c: &mut Criterion) {
    let _ = c; // measurement is hand-rolled: the headline is a quantile
    let keys_per_shard = sized(2000);
    let lookups = if criterion::is_test_mode() {
        64
    } else {
        sized(20_000)
    };
    let pool = WorkerPool::new(N_SHARDS);

    println!();
    println!("== micro_serve: point-lookup tail latency, idle vs. under merge churn ==");
    println!("   {N_SHARDS} shards x {keys_per_shard} keys, {lookups} lookups per variant");

    // Idle plane: no writers anywhere.
    let idle = seeded_plane(&pool, "idle", keys_per_shard);
    let idle_samples = measure(&idle, keys_per_shard, lookups);
    record("idle", &idle_samples);

    // Churning plane: a background thread runs merge rounds (delete +
    // re-insert sweeps, one shard per round) with policy-driven
    // compaction between rounds, for the whole measurement window.
    let merging = seeded_plane(&pool, "merging", keys_per_shard);
    let stop = AtomicBool::new(false);
    let rounds = AtomicU64::new(0);
    let merging_samples = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut round: u64 = 1;
            while !stop.load(Ordering::Relaxed) {
                let target = (round as usize) % N_SHARDS;
                merging
                    .merge_apply_all(round, |p| {
                        if p != target {
                            return Ok(Vec::new());
                        }
                        Ok((0..keys_per_shard)
                            .map(|i| DeltaChunk {
                                key: key(p, i),
                                entries: vec![
                                    DeltaEntry::Delete(MapKey(1)),
                                    DeltaEntry::Insert(MapKey(1), vec![round as u8; 48]),
                                ],
                            })
                            .collect())
                    })
                    .unwrap();
                merging.maybe_compact(round).unwrap();
                round += 1;
            }
            rounds.store(round - 1, Ordering::Relaxed);
        });
        let samples = measure(&merging, keys_per_shard, lookups);
        stop.store(true, Ordering::Relaxed);
        samples
    });
    println!(
        "   churn: {} merge rounds completed during the merging window",
        rounds.load(Ordering::Relaxed)
    );
    record("merging", &merging_samples);

    let idle_p99 = quantile(&idle_samples, 0.99).as_nanos() as f64;
    let merge_p99 = quantile(&merging_samples, 0.99).as_nanos() as f64;
    println!(
        "   p99 under merge = {:.2}x idle p99 (gate: <= 3x)",
        merge_p99 / idle_p99
    );
}

criterion_group!(benches, bench_serve_under_merge);
criterion_main!(benches);
