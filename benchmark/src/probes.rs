//! Layer probes: the benchmark times direct calls into each layer's
//! public functions, on data taken from the workload that just ran — the
//! converged partitions, the real chunks read back from the settled
//! store, the workload's own intermediate records. One caller, `REPS`
//! repetitions, median. Every repetition is a `probe:<metric>` span.
//!
//! Probes run only in traced runs, after the rounds that feed any
//! reported timing, and they are free to dirty the store they are given.

use crate::spans::{SpanId, Spans};
use crate::stats::median;
use crate::sut::{Env, GraphSut, KmeansSut};
use i2mr_algos::kmeans::Kmeans;
use i2mr_common::codec::{decode_exact, encode_to, Codec};
use i2mr_common::error::Result;
use i2mr_common::hash::MapKey;
use i2mr_core::checkpoint::IterCheckpointer;
use i2mr_core::delta_iter::DeltaIterativeSpec;
use i2mr_core::iterative::SmallStateSpec;
use i2mr_datagen::zipf::Zipf;
use i2mr_dfs::MiniDfs;
use i2mr_mapred::shuffle::{groups, sort_runs, transpose_pooled, ShuffleBuffers, ShuffleRecord};
use i2mr_mapred::{
    Emitter, HashPartitioner, KeyData, MapReduceJob, RunPool, TaskId, TaskKind, TaskSpec,
    ValueData, Values,
};
use i2mr_store::{Chunk, DeltaChunk, DeltaEntry, ServeConfig, StoreManager};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;

/// Repetitions per probe.
const REPS: usize = 10;

/// Where a probe runs and records.
pub struct ProbeCtx<'a> {
    pub env: &'a Env,
    pub spans: &'a Spans,
    pub parent: SpanId,
    pub seed: u64,
    /// An empty scratch directory the probes may fill.
    pub dir: &'a Path,
}

impl ProbeCtx<'_> {
    /// Median seconds of `REPS` runs of `run`, each on a fresh input from
    /// the untimed `prep(rep)`.
    fn median<I, T>(
        &self,
        metric: &str,
        mut prep: impl FnMut(usize) -> Result<I>,
        mut run: impl FnMut(I) -> Result<T>,
    ) -> Result<f64> {
        let name = format!("probe:{metric}");
        let mut secs = Vec::with_capacity(REPS);
        for rep in 0..REPS {
            let input = prep(rep)?;
            let (out, d) = self.spans.time(&name, Some(self.parent), |_| run(input));
            black_box(out?);
            secs.push(d.as_secs_f64());
        }
        Ok(median(&secs))
    }
}

type Metrics = Vec<(&'static str, f64)>;

fn per(secs: f64, n: usize, unit: f64) -> f64 {
    secs * unit / n.max(1) as f64
}

const NS: f64 = 1e9;
const US: f64 = 1e6;
const MS: f64 = 1e3;

/// Executor overheads: dispatch cost per task, background round trip.
fn pool(ctx: &ProbeCtx<'_>, out: &mut Metrics) -> Result<()> {
    const TASKS: usize = 1_000;
    let pool = &ctx.env.pool;
    let noop = |index: usize| TaskId {
        kind: TaskKind::Map,
        index,
        iteration: 0,
    };
    let secs = ctx.median(
        "mapred.pool.dispatch_us_per_task",
        |_| Ok(()),
        |()| {
            let tasks: Vec<TaskSpec<'_, ()>> = (0..TASKS)
                .map(|i| TaskSpec::new(noop(i), |_| Ok(())))
                .collect();
            pool.run_tasks(tasks)
        },
    )?;
    out.push(("mapred.pool.dispatch_us_per_task", per(secs, TASKS, US)));
    let secs = ctx.median(
        "mapred.pool.fence_us",
        |_| Ok(()),
        |()| {
            let epoch = pool.next_epoch();
            pool.submit_at(epoch, TaskSpec::new(noop(0), |_| Ok(())));
            pool.fence(epoch)
        },
    )?;
    out.push(("mapred.pool.fence_us", secs * US));
    Ok(())
}

/// The shuffle path and the codec over one full pass of map output.
fn data_plane<K2: KeyData, V2: ValueData>(
    ctx: &ProbeCtx<'_>,
    records: &[ShuffleRecord<K2, V2>],
    out: &mut Metrics,
) -> Result<()> {
    let n_parts = ctx.env.job.n_reduce;
    let n = records.len();
    let recycler: RunPool<K2, V2> = RunPool::new();

    let secs = ctx.median(
        "mapred.shuffle.push_ns_per_rec",
        |_| Ok(records.to_vec()),
        |recs| {
            let mut buffers = ShuffleBuffers::with_pool(n_parts, &recycler);
            for (k, mk, v) in recs {
                buffers.push(k, mk, v, &HashPartitioner);
            }
            Ok(buffers.total_records())
        },
    )?;
    out.push(("mapred.shuffle.push_ns_per_rec", per(secs, n, NS)));

    // Map output as `n_parts` map tasks would leave it.
    let map_outputs = || {
        let mut outputs: Vec<ShuffleBuffers<K2, V2>> =
            (0..n_parts).map(|_| ShuffleBuffers::new(n_parts)).collect();
        let split = n.div_ceil(n_parts).max(1);
        for (i, (k, mk, v)) in records.iter().enumerate() {
            outputs[i / split].push(k.clone(), *mk, v.clone(), &HashPartitioner);
        }
        outputs
    };
    let secs = ctx.median(
        "mapred.shuffle.transpose_ns_per_rec",
        |_| Ok(map_outputs()),
        |outputs| Ok(transpose_pooled(outputs, n_parts, true, &recycler)),
    )?;
    out.push(("mapred.shuffle.transpose_ns_per_rec", per(secs, n, NS)));

    let unsorted = || transpose_pooled(map_outputs(), n_parts, true, &recycler).0;
    let secs = ctx.median(
        "mapred.shuffle.sort_ns_per_rec",
        |_| Ok(unsorted()),
        |mut runs| {
            sort_runs(&ctx.env.pool, &mut runs, 0)?;
            Ok(runs)
        },
    )?;
    out.push(("mapred.shuffle.sort_ns_per_rec", per(secs, n, NS)));

    let mut runs = unsorted();
    sort_runs(&ctx.env.pool, &mut runs, 0)?;
    let secs = ctx.median(
        "mapred.shuffle.group_ns_per_rec",
        |_| Ok(()),
        |()| {
            let mut n_groups = 0usize;
            for run in &runs {
                for g in groups(run) {
                    n_groups += black_box(g).len().min(1);
                }
            }
            Ok(n_groups)
        },
    )?;
    out.push(("mapred.shuffle.group_ns_per_rec", per(secs, n, NS)));

    let secs = ctx.median(
        "common.codec.encode_ns_per_rec",
        |_| Ok(()),
        |()| {
            let mut bytes = 0usize;
            for (k, _, v) in records {
                bytes += black_box(encode_to(k)).len() + black_box(encode_to(v)).len();
            }
            Ok(bytes)
        },
    )?;
    out.push(("common.codec.encode_ns_per_rec", per(secs, n, NS)));
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = records
        .iter()
        .map(|(k, _, v)| (encode_to(k), encode_to(v)))
        .collect();
    let secs = ctx.median(
        "common.codec.decode_ns_per_rec",
        |_| Ok(()),
        |()| {
            for (k, v) in &encoded {
                black_box(decode_exact::<K2>(k)?);
                black_box(decode_exact::<V2>(v)?);
            }
            Ok(())
        },
    )?;
    out.push(("common.codec.decode_ns_per_rec", per(secs, n, NS)));
    Ok(())
}

/// Sorted, grouped runs of `records`, for the reduce probes.
fn sorted_runs<K2: KeyData, V2: ValueData>(
    ctx: &ProbeCtx<'_>,
    records: &[ShuffleRecord<K2, V2>],
) -> Result<Vec<Vec<ShuffleRecord<K2, V2>>>> {
    let n_parts = ctx.env.job.n_reduce;
    let mut buffers = ShuffleBuffers::new(n_parts);
    for (k, mk, v) in records {
        buffers.push(k.clone(), *mk, v.clone(), &HashPartitioner);
    }
    let mut runs = buffers.into_parts();
    sort_runs(&ctx.env.pool, &mut runs, 0)?;
    Ok(runs)
}

/// DFS throughput on one checkpoint-sized blob.
fn dfs(ctx: &ProbeCtx<'_>, dfs: &MiniDfs, blob: &[u8], out: &mut Metrics) -> Result<()> {
    let mb = blob.len() as f64 / 1e6;
    let secs = ctx.median(
        "dfs.write_mb_per_s",
        |_| Ok(()),
        |()| dfs.write_file("probe/blob", blob),
    )?;
    out.push(("dfs.write_mb_per_s", mb / secs.max(f64::MIN_POSITIVE)));
    let secs = ctx.median(
        "dfs.read_mb_per_s",
        |_| Ok(()),
        |()| dfs.read_file("probe/blob"),
    )?;
    out.push(("dfs.read_mb_per_s", mb / secs.max(f64::MIN_POSITIVE)));
    Ok(())
}

/// A delta that deletes and re-inserts the first entry of a seeded
/// `fraction` of the real chunks: real merge work, unchanged content.
fn self_replacing_deltas(
    images: &[Vec<Chunk>],
    fraction: f64,
    rng: &mut StdRng,
) -> Vec<Vec<DeltaChunk>> {
    images
        .iter()
        .map(|chunks| {
            chunks
                .iter()
                .filter(|c| !c.entries.is_empty() && rng.gen_bool(fraction))
                .map(|c| {
                    let e = &c.entries[0];
                    DeltaChunk {
                        key: c.key.clone(),
                        entries: vec![
                            DeltaEntry::Delete(e.mk),
                            DeltaEntry::Insert(e.mk, e.value.clone()),
                        ],
                    }
                })
                .collect()
        })
        .collect()
}

/// The MRBG-Store plane: merge, point read, index flush, append,
/// compaction, export, open, and the serving front.
fn store(ctx: &ProbeCtx<'_>, stores: &StoreManager, out: &mut Metrics) -> Result<()> {
    let n = stores.n_shards();
    let pool = &ctx.env.pool;
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x7072_6f62);
    let images: Vec<Vec<Chunk>> = (0..n)
        .map(|p| stores.with_store(p, |s| s.chunks_iter().collect::<Result<Vec<Chunk>>>()))
        .collect::<Result<_>>()?;
    let keys: Vec<(usize, &[u8])> = images
        .iter()
        .enumerate()
        .flat_map(|(p, chunks)| chunks.iter().map(move |c| (p, c.key.as_slice())))
        .collect();

    let secs = ctx.median(
        "store.merge_apply_all_ms",
        |_| Ok(self_replacing_deltas(&images, 0.01, &mut rng)),
        |deltas| stores.merge_apply_all(1, |p| Ok(deltas[p].clone())),
    )?;
    out.push(("store.merge_apply_all_ms", secs * MS));

    // A point merge defers its index write; the flush that follows it is
    // timed as a span of its own.
    let (mut merge_secs, mut flush_secs) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let deltas = self_replacing_deltas(&images, 0.001, &mut rng);
        let touched: Vec<usize> = (0..n).filter(|p| !deltas[*p].is_empty()).collect();
        let (merged, d) = ctx.spans.time(
            "probe:store.merge_apply_touched_ms",
            Some(ctx.parent),
            |_| stores.merge_apply_touched(1, &touched, |p| Ok(deltas[p].clone())),
        );
        black_box(merged?);
        merge_secs.push(d.as_secs_f64());
        let (flushed, d) = ctx
            .spans
            .time("probe:store.flush_indexes_ms", Some(ctx.parent), |_| {
                stores.flush_indexes()
            });
        flushed?;
        flush_secs.push(d.as_secs_f64());
    }
    out.push(("store.merge_apply_touched_ms", median(&merge_secs) * MS));
    out.push(("store.flush_indexes_ms", median(&flush_secs) * MS));

    const GETS: usize = 2_000;
    let secs = ctx.median(
        "store.get_ns",
        |_| {
            Ok((0..GETS)
                .map(|_| keys[rng.gen_range(0..keys.len())])
                .collect::<Vec<_>>())
        },
        |picks| {
            for (p, key) in picks {
                black_box(stores.get(p, key)?);
            }
            Ok(())
        },
    )?;
    out.push(("store.get_ns", per(secs, GETS, NS)));

    let secs = ctx.median(
        "store.compact_all_ms",
        |_| Ok(()),
        |()| stores.compact_all(1),
    )?;
    out.push(("store.compact_all_ms", secs * MS));

    let secs = ctx.median(
        "store.export_ms",
        |_| Ok(()),
        |()| (0..n).map(|p| stores.export(p)).collect::<Result<Vec<_>>>(),
    )?;
    out.push(("store.export_ms", secs * MS));

    // Re-append the whole image into a fresh plane, then reopen that plane.
    let fresh_dir = ctx.dir.join("probe-append");
    let secs = ctx.median(
        "store.append_batch_all_ms",
        |_| {
            let _ = std::fs::remove_dir_all(&fresh_dir);
            let fresh = StoreManager::create(pool, &fresh_dir, n, *stores.config())?;
            Ok((fresh, images.clone()))
        },
        |(fresh, batches)| {
            fresh.append_batch_all(1, batches)?;
            Ok(fresh)
        },
    )?;
    out.push(("store.append_batch_all_ms", secs * MS));
    let secs = ctx.median(
        "store.open_ms",
        |_| Ok(()),
        |()| StoreManager::open(pool, &fresh_dir, n, *stores.config()),
    )?;
    out.push(("store.open_ms", secs * MS));

    serve(ctx, stores, &keys, &mut rng, out)
}

/// The serving front, idle plane, one thread: the miss path (cache off),
/// the hit path (a pre-warmed hot set), and the hit ratio of Zipf traffic.
fn serve(
    ctx: &ProbeCtx<'_>,
    stores: &StoreManager,
    keys: &[(usize, &[u8])],
    rng: &mut StdRng,
    out: &mut Metrics,
) -> Result<()> {
    const LOOKUPS: usize = 10_000;
    let zipf = Zipf::new(keys.len(), 1.0);
    // Popularity rank -> key, decorrelated from shard and key order.
    let mut by_rank: Vec<usize> = (0..keys.len()).collect();
    by_rank.sort_by_key(|i| {
        (*i as u64 ^ ctx.seed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31)
    });
    let draw = |rng: &mut StdRng| keys[by_rank[zipf.sample(rng)]];

    let uncached = stores.serve(ServeConfig {
        cache_capacity: 0,
        ..Default::default()
    });
    let secs = ctx.median(
        "store.serve.get_miss_ns",
        |_| Ok((0..LOOKUPS).map(|_| draw(rng)).collect::<Vec<_>>()),
        |picks| {
            for (p, key) in picks {
                black_box(uncached.get(p, key)?);
            }
            Ok(())
        },
    )?;
    out.push(("store.serve.get_miss_ns", per(secs, LOOKUPS, NS)));

    let cached = stores.serve(ServeConfig::default());
    let hot: Vec<(usize, &[u8])> = by_rank
        .iter()
        .take(ServeConfig::default().cache_capacity.min(keys.len()))
        .map(|i| keys[*i])
        .collect();
    for (p, key) in &hot {
        cached.get(*p, key)?;
    }
    let secs = ctx.median(
        "store.serve.get_hit_ns",
        |_| Ok(()),
        |()| {
            for i in 0..LOOKUPS {
                let (p, key) = hot[i % hot.len()];
                black_box(cached.get(p, key)?);
            }
            Ok(())
        },
    )?;
    out.push(("store.serve.get_hit_ns", per(secs, LOOKUPS, NS)));

    let zipfed = stores.serve(ServeConfig::default());
    let ((), _) = ctx
        .spans
        .time("probe:store.serve.hit_ratio", Some(ctx.parent), |_| {
            for _ in 0..REPS * LOOKUPS {
                let (p, key) = draw(rng);
                let _ = black_box(zipfed.get(p, key));
            }
        });
    let m = zipfed.metrics();
    out.push((
        "store.serve.hit_ratio",
        m.hits as f64 / (m.hits + m.misses).max(1) as f64,
    ));
    Ok(())
}

/// Checkpoint save and restore of the converged state plus store plane.
fn checkpoint<DV: Codec>(
    ctx: &ProbeCtx<'_>,
    dfs: &MiniDfs,
    state: &[Vec<(u64, DV)>],
    stores: &StoreManager,
    out: &mut Metrics,
) -> Result<()> {
    let ck = IterCheckpointer::new(dfs, "probe", stores.n_shards());
    let secs = ctx.median(
        "core.checkpoint.save_ms",
        |rep| Ok(rep as u64 + 1),
        |iteration| ck.save_iteration(iteration, state, Some(stores)),
    )?;
    out.push(("core.checkpoint.save_ms", secs * MS));
    let restore_dir = ctx.dir.join("probe-restore");
    let secs = ctx.median(
        "core.checkpoint.load_ms",
        |rep| {
            let _ = std::fs::remove_dir_all(&restore_dir);
            Ok(rep as u64 + 1)
        },
        |iteration| {
            let state = ck.load_state::<u64, DV>(iteration)?;
            let stores =
                ck.load_stores(&ctx.env.pool, iteration, &restore_dir, *stores.config())?;
            Ok((state, stores))
        },
    )?;
    out.push(("core.checkpoint.load_ms", secs * MS));
    Ok(())
}

/// Every probe of a graph workload (PageRank, SSSP).
pub fn graph<S>(sys: &GraphSut<'_, S>, ctx: &ProbeCtx<'_>) -> Result<Metrics>
where
    S: DeltaIterativeSpec<SK = u64, DK = u64, DV = f64>,
{
    let mut out = Metrics::new();
    let Some((data, stores)) = sys.parts() else {
        return Ok(out);
    };
    let spec = sys.spec();
    pool(ctx, &mut out)?;

    // One full map pass over the converged data, single thread.
    let pairs: Vec<(&u64, &S::SV, &u64, &f64)> =
        data.structure
            .iter()
            .zip(&data.state)
            .flat_map(|(groups, state)| {
                groups.iter().zip(state).flat_map(|(g, (dk, dv))| {
                    g.records.iter().map(move |(sk, sv)| (sk, sv, dk, dv))
                })
            })
            .collect();
    let secs = ctx.median(
        "algos.map_ns_per_rec",
        |_| Ok(()),
        |()| {
            let mut emitter = Emitter::new();
            let mut emitted = 0usize;
            for (sk, sv, dk, dv) in &pairs {
                spec.map(sk, sv, dk, dv, &mut emitter);
                emitted += emitter.drain().count();
            }
            Ok(emitted)
        },
    )?;
    out.push(("algos.map_ns_per_rec", per(secs, pairs.len(), NS)));

    let mut records: Vec<ShuffleRecord<u64, S::V2>> = Vec::new();
    let mut emitter = Emitter::new();
    for (sk, sv, dk, dv) in &pairs {
        let mk = MapKey::for_structure(&encode_to(*sk));
        spec.map(sk, sv, dk, dv, &mut emitter);
        records.extend(emitter.drain().map(|(k2, v2)| (k2, mk, v2)));
    }
    data_plane(ctx, &records, &mut out)?;

    let runs = sorted_runs(ctx, &records)?;
    let n_groups: usize = runs.iter().map(|r| groups(r).count()).sum();
    let secs = ctx.median(
        "algos.reduce_ns_per_group",
        |_| Ok(()),
        |()| {
            let mut acc = 0.0f64;
            for run in &runs {
                for g in groups(run) {
                    acc += spec.reduce(&g[0].0, &0.0, Values::group(g));
                }
            }
            Ok(acc)
        },
    )?;
    out.push(("algos.reduce_ns_per_group", per(secs, n_groups, NS)));

    // One plain MapReduce pass over (structure, state) records.
    let input: Vec<(u64, (S::SV, f64))> = pairs
        .iter()
        .map(|(sk, sv, _, dv)| (**sk, ((*sv).clone(), **dv)))
        .collect();
    let mapper = |k: &u64, rec: &(S::SV, f64), e: &mut Emitter<u64, S::V2>| {
        spec.map(k, &rec.0, k, &rec.1, e)
    };
    let reducer = |k: &u64, vs: Values<u64, S::V2>, e: &mut Emitter<u64, f64>| {
        e.emit(*k, spec.reduce(k, &0.0, vs))
    };
    let job = MapReduceJob::new(&ctx.env.job, &mapper, &reducer, &HashPartitioner);
    let secs = ctx.median(
        "mapred.job.pass_ms",
        |_| Ok(()),
        |()| job.run(&ctx.env.pool, &input, 0),
    )?;
    out.push(("mapred.job.pass_ms", secs * MS));

    let probe_dfs = MiniDfs::open(ctx.dir.join("probe-dfs"))?;
    dfs(ctx, &probe_dfs, &stores.export(0)?, &mut out)?;
    checkpoint(ctx, &probe_dfs, &data.state, stores, &mut out)?;
    store(ctx, stores, &mut out)?;
    Ok(out)
}

/// Every probe of the Kmeans workload. It has no store plane and no
/// checkpointer, so those layers' probes do not apply (reported as 0).
pub fn kmeans(sys: &KmeansSut<'_>, ctx: &ProbeCtx<'_>) -> Result<Metrics> {
    let mut out = Metrics::new();
    let (points, centroids) = sys.parts();
    let spec = Kmeans;
    pool(ctx, &mut out)?;

    let secs = ctx.median(
        "algos.map_ns_per_rec",
        |_| Ok(()),
        |()| {
            let mut emitter = Emitter::new();
            let mut emitted = 0usize;
            for (id, p) in points {
                spec.map(id, p, centroids, &mut emitter);
                emitted += emitter.drain().count();
            }
            Ok(emitted)
        },
    )?;
    out.push(("algos.map_ns_per_rec", per(secs, points.len(), NS)));

    let mut records: Vec<ShuffleRecord<u32, (Vec<f64>, u64)>> = Vec::new();
    let mut emitter = Emitter::new();
    for (id, p) in points {
        spec.map(id, p, centroids, &mut emitter);
        records.extend(emitter.drain().map(|(k2, v2)| (k2, MapKey(0), v2)));
    }
    data_plane(ctx, &records, &mut out)?;

    let runs = sorted_runs(ctx, &records)?;
    let n_groups: usize = runs.iter().map(|r| groups(r).count()).sum();
    let secs = ctx.median(
        "algos.reduce_ns_per_group",
        |_| Ok(()),
        |()| {
            let mut count = 0u64;
            for run in &runs {
                for g in groups(run) {
                    count += spec.reduce(&g[0].0, Values::group(g)).1;
                }
            }
            Ok(count)
        },
    )?;
    out.push(("algos.reduce_ns_per_group", per(secs, n_groups, NS)));

    let mapper = |id: &u64, p: &Vec<f64>, e: &mut Emitter<u32, (Vec<f64>, u64)>| {
        spec.map(id, p, centroids, e)
    };
    let reducer =
        |cid: &u32, vs: Values<u32, (Vec<f64>, u64)>, e: &mut Emitter<u32, (Vec<f64>, u64)>| {
            e.emit(*cid, spec.reduce(cid, vs))
        };
    let job = MapReduceJob::new(&ctx.env.job, &mapper, &reducer, &HashPartitioner);
    let secs = ctx.median(
        "mapred.job.pass_ms",
        |_| Ok(()),
        |()| job.run(&ctx.env.pool, points, 0),
    )?;
    out.push(("mapred.job.pass_ms", secs * MS));

    let probe_dfs = MiniDfs::open(ctx.dir.join("probe-dfs"))?;
    dfs(ctx, &probe_dfs, &encode_to(&points.to_vec()), &mut out)?;
    Ok(out)
}
