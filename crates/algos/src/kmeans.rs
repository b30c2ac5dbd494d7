//! Kmeans (paper Algorithm 3) — all-to-one dependency.
//!
//! Every map instance needs the full centroid set, so the state is one
//! small kv-pair replicated to all partitions (paper §4.3). Any input
//! change moves centroids, which changes the state value that *every* map
//! instance depends on: P∆ = 100 %, so MRBGraph maintenance is turned off
//! and i2MapReduce "falls back to iterMR recomp" (paper §8.2, Fig. 8) —
//! still winning over plainMR through structure caching and job reuse, and
//! over cold re-clustering by starting from the converged centroids.
//!
//! That win holds in wall time because a refresh costs its passes and
//! little else: the point delta is applied in one linear pass
//! ([`Delta::apply_to`]) and handed to the engine by value, and the
//! small-state engine combines in the mapper, so a pass ships
//! `n_map × k` partial `(sum, count)` pairs instead of one record per
//! point ([`SmallStateIterEngine`]). [`plainmr`] stays the vanilla baseline
//! that shuffles every point every pass.

use crate::report::EngineRun;
use i2mr_common::error::Result;
use i2mr_common::metrics::JobMetrics;
use i2mr_core::delta::Delta;
use i2mr_core::iter_engine::{build_small_state, SmallStateData, SmallStateIterEngine};
use i2mr_core::iterative::{IterParams, PreserveMode, SmallStateSpec};
use i2mr_mapred::config::JobConfig;
use i2mr_mapred::job::MapReduceJob;
use i2mr_mapred::partition::HashPartitioner;
use i2mr_mapred::pool::WorkerPool;
use i2mr_mapred::types::{Emitter, Values};
use std::sync::Arc;
use std::time::Instant;

/// The centroid set: `(cid, coordinates)`.
pub type Centroids = Vec<(u32, Vec<f64>)>;

/// Kmeans spec for the small-state iterative engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct Kmeans;

/// Squared Euclidean distance.
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Id of the nearest centroid; of equidistant ones, the earliest in
/// `centroids`. Each distance is evaluated once. Panics on a NaN distance.
pub fn nearest(centroids: &Centroids, p: &[f64]) -> u32 {
    centroids
        .iter()
        .map(|(cid, c)| (*cid, dist2(c, p)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN coordinates"))
        .expect("at least one centroid")
        .0
}

impl SmallStateSpec for Kmeans {
    type SK = u64;
    type SV = Vec<f64>;
    type State = Centroids;
    type K2 = u32;
    type V2 = (Vec<f64>, u64); // (coordinate sums, count)

    fn map(
        &self,
        _sk: &u64,
        p: &Vec<f64>,
        state: &Centroids,
        out: &mut Emitter<u32, (Vec<f64>, u64)>,
    ) {
        out.emit(nearest(state, p), (p.clone(), 1));
    }

    fn reduce(&self, _k2: &u32, values: Values<'_, u32, (Vec<f64>, u64)>) -> (Vec<f64>, u64) {
        let dims = values[0].0.len();
        let mut sum = vec![0.0; dims];
        let mut count = 0u64;
        for (s, c) in &values {
            for (acc, x) in sum.iter_mut().zip(s) {
                *acc += x;
            }
            count += c;
        }
        (sum, count)
    }

    fn assemble(&self, prev: &Centroids, parts: &[(u32, (Vec<f64>, u64))]) -> Centroids {
        let mut next = prev.clone();
        for (cid, (sum, count)) in parts {
            if *count == 0 {
                continue;
            }
            if let Some(c) = next.iter_mut().find(|(id, _)| id == cid) {
                c.1 = sum.iter().map(|s| s / *count as f64).collect();
            }
        }
        next
    }

    fn difference(&self, curr: &Centroids, prev: &Centroids) -> f64 {
        curr.iter()
            .zip(prev)
            .map(|((_, a), (_, b))| dist2(a, b).sqrt())
            .fold(0.0, f64::max)
    }
}

/// Kmeans on vanilla MapReduce: one job per iteration, all points shuffled
/// every iteration (Algorithm 3's `<cid, pval>` intermediate pairs).
pub fn plainmr(
    pool: &WorkerPool,
    cfg: &JobConfig,
    points: &[(u64, Vec<f64>)],
    initial: Centroids,
    max_iterations: u64,
    epsilon: f64,
) -> Result<(Centroids, EngineRun)> {
    let started = Instant::now();
    let mut metrics = JobMetrics::default();
    let spec = Kmeans;
    let mut centroids = initial;
    let mut iterations = 0;

    for _ in 0..max_iterations {
        iterations += 1;
        let current = Arc::new(centroids.clone());
        let mapper = {
            let current = Arc::clone(&current);
            move |_pid: &u64, p: &Vec<f64>, out: &mut Emitter<u32, (Vec<f64>, u64)>| {
                out.emit(nearest(&current, p), (p.clone(), 1));
            }
        };
        let reducer = |cid: &u32,
                       vs: Values<u32, (Vec<f64>, u64)>,
                       out: &mut Emitter<u32, (Vec<f64>, u64)>| {
            out.emit(*cid, Kmeans.reduce(cid, vs));
        };
        let job = MapReduceJob::new(cfg, &mapper, &reducer, &HashPartitioner);
        let run = job.run(pool, points, iterations)?;
        metrics.merge(&run.metrics);
        let parts: Vec<(u32, (Vec<f64>, u64))> = run.flat_output();
        let next = spec.assemble(&centroids, &parts);
        let diff = spec.difference(&next, &centroids);
        centroids = next;
        if diff < epsilon {
            break;
        }
    }
    Ok((
        centroids,
        EngineRun::new("PlainMR recomp", metrics, started.elapsed(), iterations),
    ))
}

/// Kmeans on the small-state iterative engine (iterMR): points partitioned
/// once, centroid set replicated, one job overall.
pub fn itermr(
    pool: &WorkerPool,
    cfg: &JobConfig,
    points: &[(u64, Vec<f64>)],
    initial: Centroids,
    max_iterations: u64,
    epsilon: f64,
) -> Result<(SmallStateData<u64, Vec<f64>, Centroids>, EngineRun)> {
    itermr_owned(pool, cfg, points.to_vec(), initial, max_iterations, epsilon)
}

/// [`itermr`] over a point set the caller no longer needs.
fn itermr_owned(
    pool: &WorkerPool,
    cfg: &JobConfig,
    points: Vec<(u64, Vec<f64>)>,
    initial: Centroids,
    max_iterations: u64,
    epsilon: f64,
) -> Result<(SmallStateData<u64, Vec<f64>, Centroids>, EngineRun)> {
    let started = Instant::now();
    let spec = Kmeans;
    let engine = SmallStateIterEngine::new(
        &spec,
        cfg.clone(),
        IterParams {
            max_iterations,
            epsilon,
            preserve: PreserveMode::None,
        },
    )?;
    let mut data = build_small_state::<Kmeans>(cfg.n_reduce, points, initial);
    let report = engine.run(pool, &mut data)?;
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

/// HaLoop-style Kmeans: structure cached like iterMR, but a fresh MapReduce
/// job is scheduled per iteration (HaLoop reuses caches, not jobs). The
/// paper finds HaLoop ≈ iterMR here (Fig. 8): same data movement, the only
/// difference is per-iteration job startup.
pub fn haloop(
    pool: &WorkerPool,
    cfg: &JobConfig,
    points: &[(u64, Vec<f64>)],
    initial: Centroids,
    max_iterations: u64,
    epsilon: f64,
) -> Result<(Centroids, EngineRun)> {
    let (data, mut run) = itermr(pool, cfg, points, initial, max_iterations, epsilon)?;
    run.name = "HaLoop recomp".into();
    // One job launch per iteration instead of one overall.
    run.metrics.jobs_started = run.iterations;
    Ok((data.state, run))
}

/// i2MapReduce incremental Kmeans: apply the point delta, then re-iterate
/// from the previous converged centroids with MRBGraph off (P∆ = 100 %).
pub fn i2mr_incremental(
    pool: &WorkerPool,
    cfg: &JobConfig,
    points: &[(u64, Vec<f64>)],
    converged: Centroids,
    delta: &Delta<u64, Vec<f64>>,
    max_iterations: u64,
    epsilon: f64,
) -> Result<(Centroids, EngineRun)> {
    let updated = delta.apply_to(points);
    let (data, mut run) = itermr_owned(pool, cfg, updated, converged, max_iterations, epsilon)?;
    run.name = "i2MR (MRBG off)".into();
    Ok((data.state, run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2mr_datagen::points::PointsGen;

    fn centroids_close(a: &Centroids, b: &Centroids, tol: f64) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|((ia, ca), (ib, cb))| ia == ib && dist2(ca, cb).sqrt() < tol)
    }

    #[test]
    fn nearest_gives_a_tie_to_the_earlier_centroid() {
        // Listed out of id order so that "earlier" cannot mean "smaller id".
        let centroids: Centroids = vec![
            (7, vec![2.0, 0.0]),
            (3, vec![0.0, 2.0]),
            (5, vec![9.0, 9.0]),
        ];
        assert_eq!(
            nearest(&centroids, &[1.0, 1.0]),
            7,
            "equidistant: first wins"
        );
        assert_eq!(nearest(&centroids, &[0.5, 1.5]), 3);
        assert_eq!(nearest(&centroids, &[8.0, 8.0]), 5);
        let mirrored: Centroids = centroids.iter().rev().cloned().collect();
        assert_eq!(nearest(&mirrored, &[1.0, 1.0]), 3);
    }

    #[test]
    #[should_panic(expected = "no NaN coordinates")]
    fn nearest_panics_on_nan() {
        let centroids: Centroids = vec![(0, vec![0.0]), (1, vec![1.0])];
        nearest(&centroids, &[f64::NAN]);
    }

    #[test]
    fn plainmr_and_itermr_agree() {
        let gen = PointsGen::new(400, 4, 4, 77);
        let points = gen.all();
        let init = gen.initial_centroids(4);
        let cfg = JobConfig::symmetric(3);
        let pool = WorkerPool::new(3);

        let (plain, plain_run) = plainmr(&pool, &cfg, &points, init.clone(), 50, 1e-9).unwrap();
        let (iter_data, iter_run) = itermr(&pool, &cfg, &points, init, 50, 1e-9).unwrap();
        assert!(centroids_close(&plain, &iter_data.state, 1e-6));
        assert_eq!(iter_run.metrics.jobs_started, 1);
        assert_eq!(plain_run.metrics.jobs_started, plain_run.iterations);
    }

    #[test]
    fn converged_centroids_sit_on_cluster_means() {
        let gen = PointsGen::new(600, 3, 3, 5);
        let points = gen.all();
        // Start near the true centers so label assignment is stable.
        let init: Centroids = gen
            .true_centers()
            .into_iter()
            .enumerate()
            .map(|(i, mut c)| {
                c[0] += 0.3;
                (i as u32, c)
            })
            .collect();
        let cfg = JobConfig::symmetric(2);
        let pool = WorkerPool::new(2);
        let (data, _) = itermr(&pool, &cfg, &points, init, 60, 1e-10).unwrap();
        for (cid, c) in &data.state {
            let truth = &gen.true_centers()[*cid as usize];
            assert!(dist2(c, truth).sqrt() < 1.0, "centroid {cid} drifted");
        }
    }

    #[test]
    fn incremental_matches_recompute_from_scratch_clusters() {
        let gen = PointsGen::new(500, 3, 4, 21);
        let points = gen.all();
        let init = gen.initial_centroids(4);
        let cfg = JobConfig::symmetric(3);
        let pool = WorkerPool::new(3);
        let (data, _) = itermr(&pool, &cfg, &points, init.clone(), 80, 1e-10).unwrap();

        let delta = i2mr_datagen::delta::points_delta(
            &points,
            i2mr_datagen::delta::DeltaSpec::ten_percent(3),
        );
        let (incr, incr_run) =
            i2mr_incremental(&pool, &cfg, &points, data.state.clone(), &delta, 80, 1e-10).unwrap();

        // Kmeans is non-convex: warm and cold starts may settle in
        // different (equally valid) local optima, so compare quality, not
        // coordinates. The incremental result must (a) be a fixed point of
        // the updated data and (b) cluster it about as well as a cold rerun.
        let updated = delta.apply_to(&points);
        let (refine, _) = itermr(&pool, &cfg, &updated, incr.clone(), 2, 1e-12).unwrap();
        assert!(
            Kmeans.difference(&refine.state, &incr) < 1e-6,
            "incremental result is not a fixed point"
        );
        let (oracle, oracle_run) = itermr(&pool, &cfg, &updated, init, 200, 1e-10).unwrap();
        let cost_incr = clustering_cost(&updated, &incr);
        let cost_oracle = clustering_cost(&updated, &oracle.state);
        assert!(
            cost_incr <= cost_oracle * 1.1,
            "incremental cost {cost_incr} vs oracle {cost_oracle}"
        );
        // Warm start converges in fewer iterations than cold start.
        assert!(incr_run.iterations <= oracle_run.iterations);
    }

    /// Sum of squared distances to the nearest centroid.
    fn clustering_cost(points: &[(u64, Vec<f64>)], centroids: &Centroids) -> f64 {
        points
            .iter()
            .map(|(_, p)| {
                centroids
                    .iter()
                    .map(|(_, c)| dist2(c, p))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }

    #[test]
    fn haloop_charges_a_job_per_iteration() {
        let gen = PointsGen::new(200, 2, 2, 9);
        let points = gen.all();
        let init = gen.initial_centroids(2);
        let cfg = JobConfig::symmetric(2);
        let pool = WorkerPool::new(2);
        let (_, run) = haloop(&pool, &cfg, &points, init, 30, 1e-9).unwrap();
        assert_eq!(run.metrics.jobs_started, run.iterations);
    }
}
