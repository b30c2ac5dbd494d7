//! PageRank (paper Algorithm 2) — one-to-one dependency.
//!
//! Drivers:
//!
//! * [`plainmr`] — vanilla MapReduce, one job per iteration, structure data
//!   (the out-link lists) shuffled every iteration (Algorithm 2 emits
//!   `<i, Ni>` from Map).
//! * [`haloop`] — the HaLoop formulation (Algorithm 5): a reduce-side
//!   structure cache built once, then **two** jobs per iteration (join +
//!   aggregate) — the extra job that makes HaLoop lose to plainMR at this
//!   structure size (Fig. 8 discussion).
//! * [`itermr`] — the iterative engine, no preservation.
//! * [`i2mr_initial`] / [`i2mr_incremental`] — the i2MapReduce pipeline.
//! * [`memflow`] — the Spark-like comparator (§8.7).

use crate::report::EngineRun;
use i2mr_common::error::Result;
use i2mr_common::metrics::JobMetrics;
use i2mr_core::checkpoint::IterCheckpointer;
use i2mr_core::delta::Delta;
use i2mr_core::delta_iter::{DeltaIterativeSpec, UpdateContract};
use i2mr_core::incr_iter::IncrParams;
use i2mr_core::iter_engine::{build_partitioned, PartitionedData, RunReport};
use i2mr_core::iterative::{DependencyKind, IterParams, IterativeSpec, PreserveMode};
use i2mr_core::run::RunBuilder;
use i2mr_mapred::config::JobConfig;
use i2mr_mapred::job::MapReduceJob;
use i2mr_mapred::partition::HashPartitioner;
use i2mr_mapred::pool::WorkerPool;
use i2mr_mapred::types::{Emitter, Values};
use i2mr_store::runtime::{StoreManager, StoreRuntimeConfig};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The PageRank spec for the iterative engines.
#[derive(Clone, Copy, Debug)]
pub struct PageRank {
    /// Damping factor `d` (paper uses the classic 0.85).
    pub damping: f64,
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank { damping: 0.85 }
    }
}

impl IterativeSpec for PageRank {
    type SK = u64;
    type SV = Vec<u64>;
    type DK = u64;
    type DV = f64;
    type V2 = f64;

    fn project(&self, sk: &u64) -> u64 {
        *sk
    }

    fn map(&self, _sk: &u64, sv: &Vec<u64>, _dk: &u64, dv: &f64, out: &mut Emitter<u64, f64>) {
        if sv.is_empty() {
            return;
        }
        let share = dv / sv.len() as f64;
        for j in sv {
            out.emit(*j, share);
        }
    }

    fn reduce(&self, _dk: &u64, _prev: &f64, values: Values<'_, u64, f64>) -> f64 {
        (1.0 - self.damping) + self.damping * values.iter().sum::<f64>()
    }

    fn init(&self, _dk: &u64) -> f64 {
        1.0
    }

    fn difference(&self, curr: &f64, prev: &f64) -> f64 {
        (curr - prev).abs()
    }

    fn dependency(&self) -> DependencyKind {
        DependencyKind::OneToOne
    }
}

impl DeltaIterativeSpec for PageRank {
    /// Rank mass moves in both directions as edges rewire: a vertex's
    /// share shrinks when its out-degree grows, so prior contributions
    /// must be retracted through the MRBGraph upsert path.
    fn contract(&self) -> UpdateContract {
        UpdateContract::Retractable
    }
}

/// Run PageRank on vanilla MapReduce: Algorithm 2 verbatim, one job per
/// iteration, structure re-shuffled every time.
pub fn plainmr(
    pool: &WorkerPool,
    cfg: &JobConfig,
    graph: &[(u64, Vec<u64>)],
    damping: f64,
    max_iterations: u64,
    epsilon: f64,
) -> Result<(Vec<(u64, f64)>, EngineRun)> {
    let started = Instant::now();
    let mut metrics = JobMetrics::default();
    // Map input <i, Ni|Ri>.
    let mut input: Vec<(u64, (Vec<u64>, f64))> =
        graph.iter().map(|(i, n)| (*i, (n.clone(), 1.0))).collect();

    let mapper = move |i: &u64, rec: &(Vec<u64>, f64), out: &mut Emitter<u64, (Vec<u64>, f64)>| {
        let (links, rank) = rec;
        // output <i, Ni> — the structure travels through the shuffle.
        out.emit(*i, (links.clone(), f64::NAN));
        if !links.is_empty() {
            let share = rank / links.len() as f64;
            for j in links {
                // output <j, R_{i,j}>.
                out.emit(*j, (Vec::new(), share));
            }
        }
    };
    let reducer = move |j: &u64,
                        vs: Values<u64, (Vec<u64>, f64)>,
                        out: &mut Emitter<u64, (Vec<u64>, f64)>| {
        let mut links: Vec<u64> = Vec::new();
        let mut sum = 0.0;
        for (l, share) in &vs {
            if share.is_nan() {
                links = l.clone();
            } else {
                sum += share;
            }
        }
        out.emit(*j, (links, (1.0 - damping) + damping * sum));
    };

    let mut iterations = 0;
    for _ in 0..max_iterations {
        iterations += 1;
        let job = MapReduceJob::new(cfg, &mapper, &reducer, &HashPartitioner);
        let run = job.run(pool, &input, iterations)?;
        metrics.merge(&run.metrics);
        let mut next = run.flat_output();
        next.sort_by_key(|(k, _)| *k);
        let max_diff = max_rank_diff(&input, &next);
        input = next;
        if max_diff < epsilon {
            break;
        }
    }

    let ranks: Vec<(u64, f64)> = input.iter().map(|(k, (_, r))| (*k, *r)).collect();
    let run = EngineRun::new("PlainMR recomp", metrics, started.elapsed(), iterations);
    Ok((ranks, run))
}

fn max_rank_diff(a: &[(u64, (Vec<u64>, f64))], b: &[(u64, (Vec<u64>, f64))]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|((_, (_, ra)), (_, (_, rb)))| (ra - rb).abs())
        .fold(0.0, f64::max)
}

/// Run PageRank the HaLoop way (paper Algorithm 5): reduce-side structure
/// cache plus two MapReduce jobs per iteration.
pub fn haloop(
    pool: &WorkerPool,
    cfg: &JobConfig,
    graph: &[(u64, Vec<u64>)],
    damping: f64,
    max_iterations: u64,
    epsilon: f64,
) -> Result<(Vec<(u64, f64)>, EngineRun)> {
    let started = Instant::now();
    let mut metrics = JobMetrics::default();

    // Cache-building pass: ship the structure once into the reduce-side
    // cache (HaLoop's "caching mechanism for the structure data in Reduce
    // Phase 1").
    let identity_map =
        |i: &u64, links: &Vec<u64>, out: &mut Emitter<u64, Vec<u64>>| out.emit(*i, links.clone());
    let identity_red = |i: &u64, vs: Values<u64, Vec<u64>>, out: &mut Emitter<u64, Vec<u64>>| {
        out.emit(*i, vs[0].clone())
    };
    let cache_job = MapReduceJob::new(cfg, &identity_map, &identity_red, &HashPartitioner);
    let structure: Vec<(u64, Vec<u64>)> = graph.to_vec();
    let cache_run = cache_job.run(pool, &structure, 0)?;
    metrics.merge(&cache_run.metrics);
    let cache: Arc<HashMap<u64, Vec<u64>>> =
        Arc::new(cache_run.flat_output().into_iter().collect());

    let mut ranks: Vec<(u64, f64)> = graph.iter().map(|(i, _)| (*i, 1.0)).collect();
    let all_vertices: Vec<u64> = ranks.iter().map(|(k, _)| *k).collect();

    // Job 1 (join): shuffle ranks to their structure, emit contributions.
    let cache1 = Arc::clone(&cache);
    let join_map = |i: &u64, r: &f64, out: &mut Emitter<u64, f64>| out.emit(*i, *r);
    let join_red = move |i: &u64, vs: Values<u64, f64>, out: &mut Emitter<u64, f64>| {
        if let Some(links) = cache1.get(i) {
            if !links.is_empty() {
                let share = vs[0] / links.len() as f64;
                for j in links {
                    out.emit(*j, share);
                }
            }
        }
    };
    // Job 2 (aggregate): sum contributions, apply damping.
    let agg_map = |j: &u64, c: &f64, out: &mut Emitter<u64, f64>| out.emit(*j, *c);
    let agg_red = move |j: &u64, vs: Values<u64, f64>, out: &mut Emitter<u64, f64>| {
        out.emit(*j, (1.0 - damping) + damping * vs.iter().sum::<f64>());
    };

    let mut iterations = 0;
    for _ in 0..max_iterations {
        iterations += 1;
        let job1 = MapReduceJob::new(cfg, &join_map, &join_red, &HashPartitioner);
        let run1 = job1.run(pool, &ranks, iterations)?;
        metrics.merge(&run1.metrics);
        let contribs = run1.flat_output();

        let job2 = MapReduceJob::new(cfg, &agg_map, &agg_red, &HashPartitioner);
        let run2 = job2.run(pool, &contribs, iterations)?;
        metrics.merge(&run2.metrics);
        let summed: HashMap<u64, f64> = run2.flat_output().into_iter().collect();

        // Vertices with no in-edges received nothing: they settle at 1-d.
        let mut next: Vec<(u64, f64)> = all_vertices
            .iter()
            .map(|v| (*v, summed.get(v).copied().unwrap_or(1.0 - damping)))
            .collect();
        next.sort_by_key(|(k, _)| *k);
        let max_diff = ranks
            .iter()
            .zip(&next)
            .map(|((_, a), (_, b))| (a - b).abs())
            .fold(0.0, f64::max);
        ranks = next;
        if max_diff < epsilon {
            break;
        }
    }

    let run = EngineRun::new("HaLoop recomp", metrics, started.elapsed(), iterations);
    Ok((ranks, run))
}

/// Run PageRank on the iterative engine (the `iterMR` baseline).
pub fn itermr(
    pool: &WorkerPool,
    cfg: &JobConfig,
    graph: &[(u64, Vec<u64>)],
    spec: &PageRank,
    max_iterations: u64,
    epsilon: f64,
) -> Result<(PartitionedData<u64, Vec<u64>, u64, f64>, EngineRun)> {
    let started = Instant::now();
    let session = RunBuilder::new(spec)
        .pool(pool)
        .job(cfg.clone())
        .iter(IterParams {
            max_iterations,
            epsilon,
            preserve: PreserveMode::None,
        })
        .build()?;
    let mut data = build_partitioned(spec, cfg.n_reduce, graph.to_vec());
    let report = session.run_initial(&mut data)?;
    let run = EngineRun::new(
        "IterMR recomp",
        report.total_metrics(),
        started.elapsed(),
        report.n_iterations(),
    );
    Ok((data, run))
}

/// i2MapReduce initial run: converge while preserving the MRBGraph, so an
/// incremental job can continue. Returns the converged data and the stores.
#[allow(clippy::too_many_arguments)]
pub fn i2mr_initial(
    pool: &WorkerPool,
    cfg: &JobConfig,
    graph: &[(u64, Vec<u64>)],
    spec: &PageRank,
    store_dir: &Path,
    store_runtime: StoreRuntimeConfig,
    max_iterations: u64,
    epsilon: f64,
    preserve: PreserveMode,
) -> Result<(
    PartitionedData<u64, Vec<u64>, u64, f64>,
    StoreManager,
    EngineRun,
)> {
    let started = Instant::now();
    let session = RunBuilder::new(spec)
        .pool(pool)
        .job(cfg.clone())
        .iter(IterParams {
            max_iterations,
            epsilon,
            preserve,
        })
        .store_runtime(store_runtime)
        .store_dir(store_dir)
        .build()?;
    let mut data = build_partitioned(spec, cfg.n_reduce, graph.to_vec());
    let report = session.run_initial(&mut data)?;
    let run = EngineRun::new(
        "i2MR initial",
        report.total_metrics(),
        started.elapsed(),
        report.n_iterations(),
    );
    let stores = session.finish()?.stores.expect("session owns the stores");
    Ok((data, stores, run))
}

/// i2MapReduce incremental refresh from a converged run.
#[allow(clippy::too_many_arguments)]
pub fn i2mr_incremental(
    pool: &WorkerPool,
    cfg: &JobConfig,
    data: &mut PartitionedData<u64, Vec<u64>, u64, f64>,
    stores: &StoreManager,
    spec: &PageRank,
    delta: &Delta<u64, Vec<u64>>,
    params: IncrParams,
    ckpt: Option<&IterCheckpointer>,
) -> Result<(RunReport, EngineRun)> {
    let started = Instant::now();
    let mut builder = RunBuilder::new(spec)
        .pool(pool)
        .job(cfg.clone())
        .incr(params)
        .iter(IterParams {
            epsilon: params.convergence_epsilon,
            max_iterations: params.max_iterations,
            preserve: PreserveMode::None,
        })
        .stores_ref(stores);
    if let Some(ck) = ckpt {
        builder = builder.checkpointer_ref(ck);
    }
    let session = builder.build()?;
    let report = session.run_incremental(data, delta)?;
    let name = match params.filter_threshold {
        Some(_) => "i2MR w/ CPC",
        None => "i2MR w/o CPC",
    };
    let run = EngineRun::new(
        name,
        report.total_metrics(),
        started.elapsed(),
        report.iterations.len() as u64,
    );
    Ok((report, run))
}

/// [`i2mr_incremental`] through `run_delta` (PageRank's contract is
/// retractable, so nothing extra is checked): bit-identical results.
#[allow(clippy::too_many_arguments)]
pub fn i2mr_delta(
    pool: &WorkerPool,
    cfg: &JobConfig,
    data: &mut PartitionedData<u64, Vec<u64>, u64, f64>,
    stores: &StoreManager,
    spec: &PageRank,
    delta: &Delta<u64, Vec<u64>>,
    params: IncrParams,
    ckpt: Option<&IterCheckpointer>,
) -> Result<(RunReport, EngineRun)> {
    let started = Instant::now();
    let mut builder = RunBuilder::new(spec)
        .pool(pool)
        .job(cfg.clone())
        .incr(params)
        .iter(IterParams {
            epsilon: params.convergence_epsilon,
            max_iterations: params.max_iterations,
            preserve: PreserveMode::None,
        })
        .stores_ref(stores);
    if let Some(ck) = ckpt {
        builder = builder.checkpointer_ref(ck);
    }
    let session = builder.build()?;
    let report = session.run_delta(data, delta)?;
    let run = EngineRun::new(
        "i2MR delta-iter",
        report.total_metrics(),
        started.elapsed(),
        report.iterations.len() as u64,
    );
    Ok((report, run))
}

/// Run PageRank on the memflow (Spark-like) comparator (§8.7).
pub fn memflow(
    ctx: &i2mr_memflow::MemFlowCtx,
    graph: &[(u64, Vec<u64>)],
    n_partitions: usize,
    damping: f64,
    iterations: u64,
) -> Result<(Vec<(u64, f64)>, EngineRun)> {
    let started = Instant::now();
    let links = i2mr_memflow::Dataset::from_vec(ctx, n_partitions, graph.to_vec())?;
    let mut ranks = links.map_values(|_, _| 1.0f64)?;
    for _ in 0..iterations {
        let contribs = links
            .join(&ranks)?
            .flat_map(n_partitions, |_, (outs, rank)| {
                if outs.is_empty() {
                    Vec::new()
                } else {
                    let share = rank / outs.len() as f64;
                    outs.iter().map(|&o| (o, share)).collect()
                }
            })?;
        ranks = contribs
            .reduce_by_key(|a, b| a + b)?
            .map_values(|_, sum| (1.0 - damping) + damping * sum)?;
    }
    let mut out = ranks.collect()?;
    out.sort_by_key(|(k, _)| *k);
    // Translate spill activity into the shared metrics vocabulary.
    let fm = ctx.metrics();
    let metrics = JobMetrics {
        jobs_started: 1, // Spark runs one driver program
        shuffled_bytes: fm.spill_bytes + fm.load_bytes,
        ..Default::default()
    };
    let run = EngineRun::new("Spark (memflow)", metrics, started.elapsed(), iterations);
    Ok((out, run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2mr_datagen::graph::GraphGen;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "i2mr-pr-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn graph() -> Vec<(u64, Vec<u64>)> {
        GraphGen::new(120, 700, 42).generate()
    }

    fn assert_ranks_close(a: &[(u64, f64)], b: &[(u64, f64)], tol: f64) {
        assert_eq!(a.len(), b.len());
        for ((ka, va), (kb, vb)) in a.iter().zip(b) {
            assert_eq!(ka, kb);
            assert!((va - vb).abs() < tol, "vertex {ka}: {va} vs {vb}");
        }
    }

    #[test]
    fn all_engines_agree_on_converged_ranks() {
        let g = graph();
        let cfg = JobConfig::symmetric(3);
        let pool = WorkerPool::new(3);
        let spec = PageRank::default();

        let (plain, plain_run) = plainmr(&pool, &cfg, &g, 0.85, 100, 1e-10).unwrap();
        let (hal, hal_run) = haloop(&pool, &cfg, &g, 0.85, 100, 1e-10).unwrap();
        let (iter_data, iter_run) = itermr(&pool, &cfg, &g, &spec, 100, 1e-10).unwrap();
        let (i2_data, _stores, _) = i2mr_initial(
            &pool,
            &cfg,
            &g,
            &spec,
            &tmp("agree"),
            Default::default(),
            100,
            1e-10,
            PreserveMode::FinalOnly,
        )
        .unwrap();

        let iter_ranks = iter_data.state_snapshot();
        assert_ranks_close(&plain, &iter_ranks, 1e-6);
        assert_ranks_close(&hal, &iter_ranks, 1e-6);
        assert_ranks_close(&i2_data.state_snapshot(), &iter_ranks, 1e-9);

        // Job accounting: plainMR one job per iteration, HaLoop two (plus
        // the cache build), iterMR exactly one overall.
        assert_eq!(plain_run.metrics.jobs_started, plain_run.iterations);
        assert_eq!(hal_run.metrics.jobs_started, 2 * hal_run.iterations + 1);
        assert_eq!(iter_run.metrics.jobs_started, 1);

        // Structure caching: iterMR shuffles strictly fewer bytes than
        // plainMR (the margin grows with structure size; the paper inflates
        // ClueWeb node ids to long strings, the Fig. 9 bench does the same).
        assert!(iter_run.metrics.shuffled_bytes < plain_run.metrics.shuffled_bytes);
    }

    #[test]
    fn memflow_matches_itermr_on_fixed_iterations() {
        // Ring: every vertex has an in-edge, so the Spark-style "vertices
        // without contributions drop out" subtlety does not bite.
        let g: Vec<(u64, Vec<u64>)> = (0..50u64).map(|i| (i, vec![(i + 1) % 50])).collect();
        let ctx = i2mr_memflow::MemFlowCtx::new(usize::MAX >> 1, tmp("mf")).unwrap();
        let (mf, _) = memflow(&ctx, &g, 3, 0.85, 30).unwrap();
        let cfg = JobConfig::symmetric(3);
        let pool = WorkerPool::new(3);
        let (data, _) = itermr(&pool, &cfg, &g, &PageRank::default(), 30, 0.0).unwrap();
        assert_ranks_close(&mf, &data.state_snapshot(), 1e-9);
    }

    #[test]
    fn incremental_refresh_matches_recompute() {
        let g = graph();
        let cfg = JobConfig::symmetric(3);
        let pool = WorkerPool::new(3);
        let spec = PageRank::default();
        let (mut data, stores, _) = i2mr_initial(
            &pool,
            &cfg,
            &g,
            &spec,
            &tmp("incr"),
            Default::default(),
            200,
            1e-11,
            PreserveMode::FinalOnly,
        )
        .unwrap();

        let delta = i2mr_datagen::delta::graph_delta(
            &g,
            i2mr_datagen::delta::DeltaSpec {
                change_fraction: 0.05,
                ..Default::default()
            },
        );
        let (report, run) = i2mr_incremental(
            &pool,
            &cfg,
            &mut data,
            &stores,
            &spec,
            &delta,
            IncrParams {
                max_iterations: 400,
                convergence_epsilon: 1e-9,
                ..Default::default()
            },
            None,
        )
        .unwrap();
        assert!(report.converged);
        assert_eq!(run.name, "i2MR w/o CPC");

        let updated = delta.apply_to(&g);
        let (want, _) = itermr(&pool, &cfg, &updated, &spec, 400, 1e-11).unwrap();
        assert_ranks_close(&data.state_snapshot(), &want.state_snapshot(), 1e-4);
    }

    #[test]
    fn delta_refresh_is_bitwise_identical_to_incremental() {
        let g = graph();
        let cfg = JobConfig::symmetric(3);
        let pool = WorkerPool::new(3);
        let spec = PageRank::default();
        let init = |tag: &str| {
            i2mr_initial(
                &pool,
                &cfg,
                &g,
                &spec,
                &tmp(tag),
                Default::default(),
                200,
                1e-11,
                PreserveMode::FinalOnly,
            )
            .unwrap()
        };
        let (mut data_full, st_full, _) = init("dfull");
        let (mut data_delta, st_delta, _) = init("ddelta");

        let delta = i2mr_datagen::delta::graph_delta(
            &g,
            i2mr_datagen::delta::DeltaSpec {
                change_fraction: 0.02,
                ..Default::default()
            },
        );
        let params = IncrParams {
            max_iterations: 400,
            convergence_epsilon: 1e-9,
            ..Default::default()
        };
        let (full_rep, _) = i2mr_incremental(
            &pool,
            &cfg,
            &mut data_full,
            &st_full,
            &spec,
            &delta,
            params,
            None,
        )
        .unwrap();
        let (delta_rep, run) = i2mr_delta(
            &pool,
            &cfg,
            &mut data_delta,
            &st_delta,
            &spec,
            &delta,
            params,
            None,
        )
        .unwrap();
        assert!(full_rep.converged && delta_rep.converged);
        assert_eq!(run.name, "i2MR delta-iter");
        assert_eq!(data_full.state, data_delta.state, "state diverged");
        for p in 0..cfg.n_reduce {
            assert_eq!(
                st_full.export(p).unwrap(),
                st_delta.export(p).unwrap(),
                "shard {p} export diverged"
            );
        }
    }
}
