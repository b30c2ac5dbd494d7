//! Single-Source Shortest Paths — one-to-one dependency (paper §8.1.3).
//!
//! Bellman-Ford-style iteration: each vertex's distance is the minimum of
//! its in-neighbors' distances plus edge weights. "We set the filter
//! threshold to 0 in the change propagation control … Therefore, unlike
//! PageRank, the SSSP results with CPC are precise" (§8.2).
//!
//! Incremental deltas are restricted to weight *decreases* and edge
//! insertions (see `i2mr-datagen::delta::weighted_graph_delta`): min-plus
//! iteration from a converged state refreshes those exactly, while edge
//! deletions would require distance re-initialization (a known limitation
//! of monotone incremental shortest paths, documented in DESIGN.md).

use crate::report::EngineRun;
use i2mr_common::error::Result;
use i2mr_common::metrics::JobMetrics;
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
use std::path::Path;
use std::time::Instant;

/// SSSP spec: distances from `source` over weighted out-edges.
#[derive(Clone, Copy, Debug)]
pub struct Sssp {
    /// The source vertex (distance 0).
    pub source: u64,
}

impl IterativeSpec for Sssp {
    type SK = u64;
    type SV = Vec<(u64, f64)>;
    type DK = u64;
    type DV = f64;
    type V2 = f64;

    fn project(&self, sk: &u64) -> u64 {
        *sk
    }

    fn map(
        &self,
        _sk: &u64,
        sv: &Vec<(u64, f64)>,
        _dk: &u64,
        dv: &f64,
        out: &mut Emitter<u64, f64>,
    ) {
        if dv.is_finite() {
            for (j, w) in sv {
                out.emit(*j, dv + w);
            }
        }
    }

    fn reduce(&self, dk: &u64, _prev: &f64, values: Values<'_, u64, f64>) -> f64 {
        let best = values.iter().copied().fold(f64::INFINITY, f64::min);
        if *dk == self.source {
            0.0
        } else {
            best
        }
    }

    fn init(&self, dk: &u64) -> f64 {
        if *dk == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn difference(&self, curr: &f64, prev: &f64) -> f64 {
        match (curr.is_finite(), prev.is_finite()) {
            (true, true) => (curr - prev).abs(),
            (false, false) => 0.0,
            _ => f64::INFINITY,
        }
    }

    fn dependency(&self) -> DependencyKind {
        DependencyKind::OneToOne
    }
}

impl DeltaIterativeSpec for Sssp {
    /// Min-plus relaxation from a converged state with improvement-only
    /// deltas (weight decreases / edge insertions) only ever shortens
    /// distances: an emitted distance never needs to be retracted.
    fn contract(&self) -> UpdateContract {
        UpdateContract::Monotonic
    }

    /// A successor distance is admissible when it does not regress: it
    /// improves, ties, or resolves a previously unreachable vertex.
    fn admissible(&self, candidate: &f64, prev: &f64) -> bool {
        !prev.is_finite() || candidate <= prev
    }
}

/// Tagged shuffle value for the plainMR formulation (<j, {dist, Nj}>).
type PlainRec = (Vec<(u64, f64)>, f64);

/// SSSP on vanilla MapReduce: one job per iteration, adjacency re-shuffled
/// every iteration.
pub fn plainmr(
    pool: &WorkerPool,
    cfg: &JobConfig,
    graph: &[(u64, Vec<(u64, f64)>)],
    source: u64,
    max_iterations: u64,
) -> Result<(Vec<(u64, f64)>, EngineRun)> {
    let started = Instant::now();
    let mut metrics = JobMetrics::default();
    let mut input: Vec<(u64, PlainRec)> = graph
        .iter()
        .map(|(i, adj)| {
            let d = if *i == source { 0.0 } else { f64::INFINITY };
            (*i, (adj.clone(), d))
        })
        .collect();

    let mapper = move |i: &u64, rec: &PlainRec, out: &mut Emitter<u64, PlainRec>| {
        let (adj, dist) = rec;
        out.emit(*i, (adj.clone(), f64::NAN)); // structure marker
        if dist.is_finite() {
            for (j, w) in adj {
                out.emit(*j, (Vec::new(), dist + w));
            }
        }
    };
    let reducer = move |j: &u64, vs: Values<u64, PlainRec>, out: &mut Emitter<u64, PlainRec>| {
        let mut adj: Vec<(u64, f64)> = Vec::new();
        let mut best = f64::INFINITY;
        for (a, d) in &vs {
            if d.is_nan() {
                adj = a.clone();
            } else {
                best = best.min(*d);
            }
        }
        let dist = if *j == source { 0.0 } else { best };
        out.emit(*j, (adj, dist));
    };

    let mut iterations = 0;
    for _ in 0..max_iterations {
        iterations += 1;
        let job = MapReduceJob::new(cfg, &mapper, &reducer, &HashPartitioner);
        let run = job.run(pool, &input, iterations)?;
        metrics.merge(&run.metrics);
        let mut next = run.flat_output();
        next.sort_by_key(|(k, _)| *k);
        let changed = input
            .iter()
            .zip(&next)
            .any(|((_, (_, a)), (_, (_, b)))| different_dist(*a, *b));
        input = next;
        if !changed {
            break;
        }
    }

    let dists = input.iter().map(|(k, (_, d))| (*k, *d)).collect();
    Ok((
        dists,
        EngineRun::new("PlainMR recomp", metrics, started.elapsed(), iterations),
    ))
}

fn different_dist(a: f64, b: f64) -> bool {
    match (a.is_finite(), b.is_finite()) {
        (true, true) => (a - b).abs() > 1e-12,
        (false, false) => false,
        _ => true,
    }
}

/// SSSP the HaLoop way: reduce-side adjacency cache plus two jobs per
/// iteration (join distances to cached adjacency, then min-aggregate) —
/// the same 2-job pattern as HaLoop PageRank (paper Algorithm 5).
pub fn haloop(
    pool: &WorkerPool,
    cfg: &JobConfig,
    graph: &[(u64, Vec<(u64, f64)>)],
    source: u64,
    max_iterations: u64,
) -> Result<(Vec<(u64, f64)>, EngineRun)> {
    use std::collections::HashMap;
    use std::sync::Arc;

    let started = Instant::now();
    let mut metrics = JobMetrics::default();

    // Cache-building pass: ship the adjacency once into the reduce cache.
    let id_map = |i: &u64, adj: &Vec<(u64, f64)>, out: &mut Emitter<u64, Vec<(u64, f64)>>| {
        out.emit(*i, adj.clone())
    };
    let id_red =
        |i: &u64, vs: Values<u64, Vec<(u64, f64)>>, out: &mut Emitter<u64, Vec<(u64, f64)>>| {
            out.emit(*i, vs[0].clone())
        };
    let cache_job = MapReduceJob::new(cfg, &id_map, &id_red, &HashPartitioner);
    let cache_run = cache_job.run(pool, graph, 0)?;
    metrics.merge(&cache_run.metrics);
    let cache: Arc<HashMap<u64, Vec<(u64, f64)>>> =
        Arc::new(cache_run.flat_output().into_iter().collect());

    let mut dists: Vec<(u64, f64)> = graph
        .iter()
        .map(|(i, _)| (*i, if *i == source { 0.0 } else { f64::INFINITY }))
        .collect();
    dists.sort_by_key(|(k, _)| *k);
    let all_vertices: Vec<u64> = dists.iter().map(|(k, _)| *k).collect();

    // Job 1 (join): relax the cached out-edges of each finite vertex.
    // Infinite distances are encoded as NaN-free sentinels via is_finite.
    let cache1 = Arc::clone(&cache);
    let join_map = |i: &u64, d: &f64, out: &mut Emitter<u64, f64>| {
        if d.is_finite() {
            out.emit(*i, *d);
        }
    };
    let join_red = move |i: &u64, vs: Values<u64, f64>, out: &mut Emitter<u64, f64>| {
        if let Some(adj) = cache1.get(i) {
            for (j, w) in adj {
                out.emit(*j, vs[0] + w);
            }
        }
    };
    // Job 2 (aggregate): min per vertex.
    let agg_map = |j: &u64, c: &f64, out: &mut Emitter<u64, f64>| out.emit(*j, *c);
    let agg_red = move |j: &u64, vs: Values<u64, f64>, out: &mut Emitter<u64, f64>| {
        out.emit(*j, vs.iter().copied().fold(f64::INFINITY, f64::min));
    };

    let mut iterations = 0;
    for _ in 0..max_iterations {
        iterations += 1;
        let job1 = MapReduceJob::new(cfg, &join_map, &join_red, &HashPartitioner);
        let run1 = job1.run(pool, &dists, iterations)?;
        metrics.merge(&run1.metrics);
        let contribs = run1.flat_output();

        let job2 = MapReduceJob::new(cfg, &agg_map, &agg_red, &HashPartitioner);
        let run2 = job2.run(pool, &contribs, iterations)?;
        metrics.merge(&run2.metrics);
        let relaxed: HashMap<u64, f64> = run2.flat_output().into_iter().collect();

        let mut next: Vec<(u64, f64)> = all_vertices
            .iter()
            .map(|v| {
                let relaxed_d = relaxed.get(v).copied().unwrap_or(f64::INFINITY);
                let prev = dists
                    .binary_search_by(|(k, _)| k.cmp(v))
                    .map(|idx| dists[idx].1)
                    .unwrap_or(f64::INFINITY);
                let d = if *v == source {
                    0.0
                } else {
                    relaxed_d.min(prev)
                };
                (*v, d)
            })
            .collect();
        next.sort_by_key(|(k, _)| *k);
        let changed = dists
            .iter()
            .zip(&next)
            .any(|((_, a), (_, b))| different_dist(*a, *b));
        dists = next;
        if !changed {
            break;
        }
    }
    Ok((
        dists,
        EngineRun::new("HaLoop recomp", metrics, started.elapsed(), iterations),
    ))
}

/// SSSP on the iterative engine (iterMR baseline).
pub fn itermr(
    pool: &WorkerPool,
    cfg: &JobConfig,
    graph: &[(u64, Vec<(u64, f64)>)],
    source: u64,
    max_iterations: u64,
) -> Result<(PartitionedData<u64, Vec<(u64, f64)>, u64, f64>, EngineRun)> {
    let started = Instant::now();
    let spec = Sssp { source };
    let session = RunBuilder::new(&spec)
        .pool(pool)
        .job(cfg.clone())
        .iter(IterParams {
            max_iterations,
            epsilon: 1e-12,
            preserve: PreserveMode::None,
        })
        .build()?;
    let mut data = build_partitioned(&spec, cfg.n_reduce, graph.to_vec());
    let report = session.run_initial(&mut data)?;
    Ok((
        data,
        EngineRun::new(
            "IterMR recomp",
            report.total_metrics(),
            started.elapsed(),
            report.n_iterations(),
        ),
    ))
}

/// i2MapReduce initial converged run with MRBGraph preservation.
pub fn i2mr_initial(
    pool: &WorkerPool,
    cfg: &JobConfig,
    graph: &[(u64, Vec<(u64, f64)>)],
    source: u64,
    store_dir: &Path,
    store_runtime: StoreRuntimeConfig,
    max_iterations: u64,
) -> Result<(
    PartitionedData<u64, Vec<(u64, f64)>, u64, f64>,
    StoreManager,
    EngineRun,
)> {
    let started = Instant::now();
    let spec = Sssp { source };
    let session = RunBuilder::new(&spec)
        .pool(pool)
        .job(cfg.clone())
        .iter(IterParams {
            max_iterations,
            epsilon: 1e-12,
            preserve: PreserveMode::FinalOnly,
        })
        .store_runtime(store_runtime)
        .store_dir(store_dir)
        .build()?;
    let mut data = build_partitioned(&spec, cfg.n_reduce, graph.to_vec());
    let report = session.run_initial(&mut data)?;
    let stores = session.finish()?.stores.expect("session owns the stores");
    Ok((
        data,
        stores,
        EngineRun::new(
            "i2MR initial",
            report.total_metrics(),
            started.elapsed(),
            report.n_iterations(),
        ),
    ))
}

/// Incremental refresh with FT = 0 (exact, §8.2).
pub fn i2mr_incremental(
    pool: &WorkerPool,
    cfg: &JobConfig,
    data: &mut PartitionedData<u64, Vec<(u64, f64)>, u64, f64>,
    stores: &StoreManager,
    source: u64,
    delta: &Delta<u64, Vec<(u64, f64)>>,
    max_iterations: u64,
) -> Result<(RunReport, EngineRun)> {
    let started = Instant::now();
    let spec = Sssp { source };
    let session = RunBuilder::new(&spec)
        .pool(pool)
        .job(cfg.clone())
        .incr(IncrParams {
            // FT = 0: "nodes without any changes will be filtered out".
            filter_threshold: Some(0.0),
            convergence_epsilon: 1e-12,
            max_iterations,
            ..Default::default()
        })
        .iter(IterParams {
            epsilon: 1e-12,
            max_iterations,
            preserve: PreserveMode::None,
        })
        .stores_ref(stores)
        .build()?;
    let report = session.run_incremental(data, delta)?;
    let run = EngineRun::new(
        "i2MR (FT=0)",
        report.total_metrics(),
        started.elapsed(),
        report.iterations.len() as u64,
    );
    Ok((report, run))
}

/// [`i2mr_incremental`] through `run_delta`: the same refresh, with the
/// monotone min-plus contract debug-asserted.
pub fn i2mr_delta(
    pool: &WorkerPool,
    cfg: &JobConfig,
    data: &mut PartitionedData<u64, Vec<(u64, f64)>, u64, f64>,
    stores: &StoreManager,
    source: u64,
    delta: &Delta<u64, Vec<(u64, f64)>>,
    max_iterations: u64,
) -> Result<(RunReport, EngineRun)> {
    let started = Instant::now();
    let spec = Sssp { source };
    let session = RunBuilder::new(&spec)
        .pool(pool)
        .job(cfg.clone())
        .incr(IncrParams {
            filter_threshold: Some(0.0),
            convergence_epsilon: 1e-12,
            max_iterations,
            ..Default::default()
        })
        .iter(IterParams {
            epsilon: 1e-12,
            max_iterations,
            preserve: PreserveMode::None,
        })
        .stores_ref(stores)
        .build()?;
    let report = session.run_delta(data, delta)?;
    let run = EngineRun::new(
        "i2MR delta-iter (FT=0)",
        report.total_metrics(),
        started.elapsed(),
        report.iterations.len() as u64,
    );
    Ok((report, run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2mr_datagen::delta::{weighted_graph_delta, DeltaSpec};
    use i2mr_datagen::graph::GraphGen;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "i2mr-sssp-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Dijkstra oracle.
    fn dijkstra(graph: &[(u64, Vec<(u64, f64)>)], source: u64) -> Vec<(u64, f64)> {
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashMap};
        let adj: HashMap<u64, &Vec<(u64, f64)>> = graph.iter().map(|(k, v)| (*k, v)).collect();
        let mut dist: HashMap<u64, f64> = graph.iter().map(|(k, _)| (*k, f64::INFINITY)).collect();
        dist.insert(source, 0.0);
        let mut heap: BinaryHeap<(Reverse<u64>, u64)> = BinaryHeap::new();
        // Distances scaled to integers for the heap ordering (weights > 0).
        let scale = 1e9;
        heap.push((Reverse(0), source));
        let mut done: std::collections::HashSet<u64> = Default::default();
        while let Some((_, u)) = heap.pop() {
            if !done.insert(u) {
                continue;
            }
            let du = dist[&u];
            if let Some(outs) = adj.get(&u) {
                for (v, w) in outs.iter() {
                    if !dist.contains_key(v) {
                        continue; // edge to a vertex without a record
                    }
                    let nd = du + w;
                    if nd < dist[v] {
                        dist.insert(*v, nd);
                        heap.push((Reverse((nd * scale) as u64), *v));
                    }
                }
            }
        }
        let mut out: Vec<(u64, f64)> = dist.into_iter().collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    fn assert_dists_equal(a: &[(u64, f64)], b: &[(u64, f64)]) {
        assert_eq!(a.len(), b.len());
        for ((ka, va), (kb, vb)) in a.iter().zip(b) {
            assert_eq!(ka, kb);
            match (va.is_finite(), vb.is_finite()) {
                (true, true) => assert!((va - vb).abs() < 1e-9, "vertex {ka}: {va} vs {vb}"),
                (false, false) => {}
                _ => panic!("vertex {ka}: {va} vs {vb}"),
            }
        }
    }

    #[test]
    fn engines_match_dijkstra() {
        let g = GraphGen::new(150, 900, 17).weighted();
        let want = dijkstra(&g, 0);
        let cfg = JobConfig::symmetric(3);
        let pool = WorkerPool::new(3);

        let (plain, plain_run) = plainmr(&pool, &cfg, &g, 0, 300).unwrap();
        assert_dists_equal(&plain, &want);

        let (data, iter_run) = itermr(&pool, &cfg, &g, 0, 300).unwrap();
        assert_dists_equal(&data.state_snapshot(), &want);

        assert_eq!(iter_run.metrics.jobs_started, 1);
        assert!(plain_run.metrics.jobs_started > 1);
    }

    #[test]
    fn haloop_matches_dijkstra() {
        let g = GraphGen::new(100, 700, 31).weighted();
        let cfg = JobConfig::symmetric(2);
        let pool = WorkerPool::new(2);
        let (hal, run) = haloop(&pool, &cfg, &g, 0, 200).unwrap();
        assert_dists_equal(&hal, &dijkstra(&g, 0));
        // Cache job + two jobs per iteration.
        assert_eq!(run.metrics.jobs_started, 2 * run.iterations + 1);
    }

    #[test]
    fn incremental_ft0_is_exact_after_improvements() {
        let g = GraphGen::new(120, 800, 23).weighted();
        let cfg = JobConfig::symmetric(3);
        let pool = WorkerPool::new(3);
        let (mut data, stores, _) =
            i2mr_initial(&pool, &cfg, &g, 0, &tmp("exact"), Default::default(), 300).unwrap();
        assert_dists_equal(&data.state_snapshot(), &dijkstra(&g, 0));

        // Improvement-only delta (weight decreases / edge insertions).
        let delta = weighted_graph_delta(&g, DeltaSpec::ten_percent(31));
        let (report, _) =
            i2mr_incremental(&pool, &cfg, &mut data, &stores, 0, &delta, 300).unwrap();
        assert!(report.converged);

        let updated = delta.apply_to(&g);
        assert_dists_equal(&data.state_snapshot(), &dijkstra(&updated, 0));
    }

    #[test]
    fn delta_refresh_is_bitwise_identical_to_incremental() {
        let g = GraphGen::new(120, 800, 23).weighted();
        let cfg = JobConfig::symmetric(3);
        let pool = WorkerPool::new(3);
        let (mut data_full, st_full, _) =
            i2mr_initial(&pool, &cfg, &g, 0, &tmp("dfull"), Default::default(), 300).unwrap();
        let (mut data_delta, st_delta, _) =
            i2mr_initial(&pool, &cfg, &g, 0, &tmp("ddelta"), Default::default(), 300).unwrap();

        let delta = weighted_graph_delta(&g, DeltaSpec::ten_percent(47));
        let (full_rep, _) =
            i2mr_incremental(&pool, &cfg, &mut data_full, &st_full, 0, &delta, 300).unwrap();
        let (delta_rep, _) =
            i2mr_delta(&pool, &cfg, &mut data_delta, &st_delta, 0, &delta, 300).unwrap();
        assert!(full_rep.converged && delta_rep.converged);
        assert_eq!(data_full.state, data_delta.state, "state diverged");
        for p in 0..cfg.n_reduce {
            assert_eq!(
                st_full.export(p).unwrap(),
                st_delta.export(p).unwrap(),
                "shard {p} export diverged"
            );
        }
        // FT = 0 propagates exactly the improved keys; the exact refresh
        // matches Dijkstra on the updated graph.
        let updated = delta.apply_to(&g);
        assert_dists_equal(&data_delta.state_snapshot(), &dijkstra(&updated, 0));
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        // Two components: 0-1-2 reachable, 10-11 not.
        let g: Vec<(u64, Vec<(u64, f64)>)> = vec![
            (0, vec![(1, 1.0)]),
            (1, vec![(2, 2.0)]),
            (2, vec![]),
            (10, vec![(11, 1.0)]),
            (11, vec![]),
        ];
        let cfg = JobConfig::symmetric(2);
        let pool = WorkerPool::new(2);
        let (data, _) = itermr(&pool, &cfg, &g, 0, 50).unwrap();
        let snapshot = data.state_snapshot();
        let d: std::collections::HashMap<u64, f64> = snapshot.into_iter().collect();
        assert_eq!(d[&0], 0.0);
        assert_eq!(d[&1], 1.0);
        assert_eq!(d[&2], 3.0);
        assert!(d[&10].is_infinite());
        assert!(d[&11].is_infinite());
    }
}
