//! GIM-V — Generalized Iterated Matrix-Vector multiplication (paper
//! Algorithm 4), many-to-one dependency.
//!
//! Structure kv-pairs are matrix blocks `((i, j), m_{i,j})`; state kv-pairs
//! are vector blocks `(j, v_j)`; `project((i, j)) = j` — every block of
//! column `j` depends on vector block `j`.
//!
//! The concrete instance is PageRank-via-GIM-V over a row-normalized
//! matrix: `combine2 = block product`, `combineAll = (1-d)·1 + d·Σ`,
//! `assign(v_i, v'_i) = v'_i` — a contraction, so it converges from any
//! state (which incremental refresh needs).
//!
//! On vanilla MapReduce this takes **two jobs per iteration** — the first
//! joins vector blocks to matrix blocks, the second aggregates — whereas
//! the iterative engines' Project-based co-partitioning does it in one
//! (the §8.2 GIM-V discussion: "our general-purpose iterative support
//! removes the need for this extra job").

use crate::report::EngineRun;
use i2mr_common::codec::Codec;
use i2mr_common::error::{Error, Result};
use i2mr_common::metrics::JobMetrics;
use i2mr_core::delta::Delta;
use i2mr_core::incr_iter::IncrParams;
use i2mr_core::iter_engine::{build_partitioned, PartitionedData, RunReport};
use i2mr_core::iterative::{DependencyKind, IterParams, IterativeSpec, PreserveMode};
use i2mr_core::run::RunBuilder;
use i2mr_datagen::matrix::Block;
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

/// GIM-V spec (PageRank-style instance; see module docs).
#[derive(Clone, Copy, Debug)]
pub struct Gimv {
    /// Vector-block edge length.
    pub block_size: usize,
    /// Damping factor of the PageRank-style combineAll.
    pub damping: f64,
}

impl Gimv {
    /// `combine2(m_{i,j}, v_j)`: block-local matrix-vector product.
    pub fn combine2(&self, block: &Block, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.block_size];
        for (r, c, val) in block {
            out[*r as usize] += val * v[*c as usize];
        }
        out
    }

    /// `combineAll({mv_{i,j}})` with the damping offset. Accepts any
    /// borrowing iterator so both owned slices and the zero-copy
    /// [`Values`] view feed it directly.
    pub fn combine_all<'a>(&self, partials: impl IntoIterator<Item = &'a Vec<f64>>) -> Vec<f64> {
        let mut out = vec![1.0 - self.damping; self.block_size];
        for p in partials {
            for (acc, x) in out.iter_mut().zip(p) {
                *acc += self.damping * x;
            }
        }
        out
    }
}

impl IterativeSpec for Gimv {
    type SK = (u64, u64);
    type SV = Block;
    type DK = u64;
    type DV = Vec<f64>;
    type V2 = Vec<f64>;

    fn project(&self, sk: &(u64, u64)) -> u64 {
        sk.1 // column block index
    }

    fn map(
        &self,
        sk: &(u64, u64),
        block: &Block,
        _dk: &u64,
        v: &Vec<f64>,
        out: &mut Emitter<u64, Vec<f64>>,
    ) {
        out.emit(sk.0, self.combine2(block, v));
    }

    fn reduce(&self, _dk: &u64, _prev: &Vec<f64>, values: Values<'_, u64, Vec<f64>>) -> Vec<f64> {
        self.combine_all(values)
    }

    fn init(&self, _dk: &u64) -> Vec<f64> {
        vec![1.0; self.block_size]
    }

    fn difference(&self, curr: &Vec<f64>, prev: &Vec<f64>) -> f64 {
        if curr.len() != prev.len() {
            return f64::INFINITY;
        }
        curr.iter()
            .zip(prev)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    fn dependency(&self) -> DependencyKind {
        DependencyKind::ManyToOne
    }
}

/// Tagged value for the plainMR two-job formulation.
#[derive(Clone, Debug, PartialEq)]
pub enum GimvMsg {
    /// A matrix block on its way to the join.
    Block(Block),
    /// A vector block replicated to its column's blocks.
    Vector(Vec<f64>),
}

impl Codec for GimvMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            GimvMsg::Block(b) => {
                buf.push(0);
                b.encode(buf);
            }
            GimvMsg::Vector(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> i2mr_common::error::Result<Self> {
        let (&tag, rest) = input
            .split_first()
            .ok_or_else(|| Error::codec("GimvMsg: empty"))?;
        *input = rest;
        match tag {
            0 => Ok(GimvMsg::Block(Block::decode(input)?)),
            1 => Ok(GimvMsg::Vector(Vec::<f64>::decode(input)?)),
            t => Err(Error::codec(format!("GimvMsg: bad tag {t}"))),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            GimvMsg::Block(b) => b.encoded_len(),
            GimvMsg::Vector(v) => v.encoded_len(),
        }
    }
}

/// GIM-V on vanilla MapReduce: Algorithm 4's two jobs per iteration.
pub fn plainmr(
    pool: &WorkerPool,
    cfg: &JobConfig,
    blocks: &[((u64, u64), Block)],
    spec: &Gimv,
    max_iterations: u64,
    epsilon: f64,
) -> Result<(Vec<(u64, Vec<f64>)>, EngineRun)> {
    let started = Instant::now();
    let mut metrics = JobMetrics::default();
    // Which row-blocks exist in each column (for vector replication).
    let mut rows_of_col: HashMap<u64, Vec<u64>> = HashMap::new();
    for ((i, j), _) in blocks {
        rows_of_col.entry(*j).or_default().push(*i);
    }
    let rows_of_col = Arc::new(rows_of_col);

    // Vector blocks exist for every column that has matrix blocks.
    let mut vector: Vec<(u64, Vec<f64>)> = rows_of_col
        .keys()
        .map(|j| (*j, vec![1.0; spec.block_size]))
        .collect();
    vector.sort_by_key(|(j, _)| *j);

    // Job 1: join vector blocks onto matrix blocks keyed by (i, j).
    let rows1 = Arc::clone(&rows_of_col);
    let join_map =
        move |k: &(u64, u64), msg: &GimvMsg, out: &mut Emitter<(u64, u64), GimvMsg>| match msg {
            GimvMsg::Block(_) => out.emit(*k, msg.clone()),
            GimvMsg::Vector(v) => {
                let j = k.0;
                if let Some(rows) = rows1.get(&j) {
                    for i in rows {
                        out.emit((*i, j), GimvMsg::Vector(v.clone()));
                    }
                }
            }
        };
    let spec1 = *spec;
    let join_red =
        move |k: &(u64, u64), vs: Values<(u64, u64), GimvMsg>, out: &mut Emitter<u64, GimvMsg>| {
            let mut block: Option<&Block> = None;
            let mut vec_block: Option<&Vec<f64>> = None;
            for m in vs {
                match m {
                    GimvMsg::Block(b) => block = Some(b),
                    GimvMsg::Vector(v) => vec_block = Some(v),
                }
            }
            if let (Some(b), Some(v)) = (block, vec_block) {
                out.emit(k.0, GimvMsg::Block(mv_as_block(&spec1.combine2(b, v))));
            }
        };
    // Job 2: aggregate the partial products per row block.
    let spec2 = *spec;
    let agg_map = |i: &u64, m: &GimvMsg, out: &mut Emitter<u64, GimvMsg>| out.emit(*i, m.clone());
    let agg_red = move |i: &u64, vs: Values<u64, GimvMsg>, out: &mut Emitter<u64, GimvMsg>| {
        let partials: Vec<Vec<f64>> = vs
            .iter()
            .map(|m| match m {
                GimvMsg::Block(b) => block_as_mv(b, spec2.block_size),
                GimvMsg::Vector(v) => v.clone(),
            })
            .collect();
        out.emit(*i, GimvMsg::Vector(spec2.combine_all(&partials)));
    };

    let mut iterations = 0;
    for _ in 0..max_iterations {
        iterations += 1;
        // Assemble job-1 input: all matrix blocks + current vector.
        let mut input: Vec<((u64, u64), GimvMsg)> = blocks
            .iter()
            .map(|(k, b)| (*k, GimvMsg::Block(b.clone())))
            .collect();
        for (j, v) in &vector {
            input.push(((*j, u64::MAX), GimvMsg::Vector(v.clone())));
        }

        let job1 = MapReduceJob::new(cfg, &join_map, &join_red, &HashPartitioner);
        let run1 = job1.run(pool, &input, iterations)?;
        metrics.merge(&run1.metrics);
        let mid = run1.flat_output();

        let job2 = MapReduceJob::new(cfg, &agg_map, &agg_red, &HashPartitioner);
        let run2 = job2.run(pool, &mid, iterations)?;
        metrics.merge(&run2.metrics);

        let mut next: Vec<(u64, Vec<f64>)> = run2
            .flat_output()
            .into_iter()
            .map(|(i, m)| match m {
                GimvMsg::Vector(v) => (i, v),
                GimvMsg::Block(b) => (i, block_as_mv(&b, spec.block_size)),
            })
            .collect();
        // Row blocks receiving no products settle at the damping offset;
        // keep the key set equal to the column-block set.
        let have: HashMap<u64, usize> = next
            .iter()
            .enumerate()
            .map(|(idx, (i, _))| (*i, idx))
            .collect();
        let mut complete: Vec<(u64, Vec<f64>)> = vector
            .iter()
            .map(|(j, _)| match have.get(j) {
                Some(idx) => (*j, next[*idx].1.clone()),
                None => (*j, vec![1.0 - spec.damping; spec.block_size]),
            })
            .collect();
        complete.sort_by_key(|(j, _)| *j);
        next = complete;

        let max_diff = vector
            .iter()
            .zip(&next)
            .map(|((_, a), (_, b))| spec.difference(b, a))
            .fold(0.0, f64::max);
        vector = next;
        if max_diff < epsilon {
            break;
        }
    }

    Ok((
        vector,
        EngineRun::new("PlainMR recomp", metrics, started.elapsed(), iterations),
    ))
}

/// Dense vector → sparse block triples (column 0).
fn mv_as_block(v: &[f64]) -> Block {
    v.iter()
        .enumerate()
        .map(|(r, &x)| (r as u32, 0, x))
        .collect()
}

/// Sparse column-0 block back to a dense vector.
fn block_as_mv(b: &Block, size: usize) -> Vec<f64> {
    let mut v = vec![0.0; size];
    for (r, _, x) in b {
        v[*r as usize] = *x;
    }
    v
}

/// GIM-V the HaLoop way: matrix blocks cached reduce-side after one
/// shipping pass, but still **two jobs per iteration** (join + aggregate).
/// The caching removes the per-iteration matrix shuffle — HaLoop's big win
/// over plainMR here — while the extra job and the vector replication
/// remain (the gap i2MapReduce's single-job model closes, §8.2).
pub fn haloop(
    pool: &WorkerPool,
    cfg: &JobConfig,
    blocks: &[((u64, u64), Block)],
    spec: &Gimv,
    max_iterations: u64,
    epsilon: f64,
) -> Result<(Vec<(u64, Vec<f64>)>, EngineRun)> {
    let started = Instant::now();
    let mut metrics = JobMetrics::default();
    let mut rows_of_col: HashMap<u64, Vec<u64>> = HashMap::new();
    for ((i, j), _) in blocks {
        rows_of_col.entry(*j).or_default().push(*i);
    }
    let rows_of_col = Arc::new(rows_of_col);

    // Cache-building pass: ship the matrix once into the reduce-side cache.
    let id_map =
        |k: &(u64, u64), b: &Block, out: &mut Emitter<(u64, u64), Block>| out.emit(*k, b.clone());
    let id_red =
        |k: &(u64, u64), vs: Values<(u64, u64), Block>, out: &mut Emitter<(u64, u64), Block>| {
            out.emit(*k, vs[0].clone())
        };
    let cache_job = MapReduceJob::new(cfg, &id_map, &id_red, &HashPartitioner);
    let cache_run = cache_job.run(pool, blocks, 0)?;
    metrics.merge(&cache_run.metrics);
    let cache: Arc<HashMap<(u64, u64), Block>> =
        Arc::new(cache_run.flat_output().into_iter().collect());

    let mut vector: Vec<(u64, Vec<f64>)> = rows_of_col
        .keys()
        .map(|j| (*j, vec![1.0; spec.block_size]))
        .collect();
    vector.sort_by_key(|(j, _)| *j);

    // Job 1: replicate vector blocks to their column's (i, j) keys; the
    // reducer joins against the cached matrix block.
    let rows1 = Arc::clone(&rows_of_col);
    let join_map = move |j: &u64, v: &Vec<f64>, out: &mut Emitter<(u64, u64), Vec<f64>>| {
        if let Some(rows) = rows1.get(j) {
            for i in rows {
                out.emit((*i, *j), v.clone());
            }
        }
    };
    let spec1 = *spec;
    let cache1 = Arc::clone(&cache);
    let join_red = move |k: &(u64, u64),
                         vs: Values<(u64, u64), Vec<f64>>,
                         out: &mut Emitter<u64, Vec<f64>>| {
        if let Some(block) = cache1.get(k) {
            out.emit(k.0, spec1.combine2(block, &vs[0]));
        }
    };
    let spec2 = *spec;
    let agg_map = |i: &u64, p: &Vec<f64>, out: &mut Emitter<u64, Vec<f64>>| out.emit(*i, p.clone());
    let agg_red = move |i: &u64, vs: Values<u64, Vec<f64>>, out: &mut Emitter<u64, Vec<f64>>| {
        out.emit(*i, spec2.combine_all(vs));
    };

    let mut iterations = 0;
    for _ in 0..max_iterations {
        iterations += 1;
        let job1 = MapReduceJob::new(cfg, &join_map, &join_red, &HashPartitioner);
        let run1 = job1.run(pool, &vector, iterations)?;
        metrics.merge(&run1.metrics);
        let mid = run1.flat_output();
        let job2 = MapReduceJob::new(cfg, &agg_map, &agg_red, &HashPartitioner);
        let run2 = job2.run(pool, &mid, iterations)?;
        metrics.merge(&run2.metrics);
        let summed: HashMap<u64, Vec<f64>> = run2.flat_output().into_iter().collect();
        let mut next: Vec<(u64, Vec<f64>)> = vector
            .iter()
            .map(|(j, _)| match summed.get(j) {
                Some(v) => (*j, v.clone()),
                None => (*j, vec![1.0 - spec.damping; spec.block_size]),
            })
            .collect();
        next.sort_by_key(|(j, _)| *j);
        let max_diff = vector
            .iter()
            .zip(&next)
            .map(|((_, a), (_, b))| spec.difference(b, a))
            .fold(0.0, f64::max);
        vector = next;
        if max_diff < epsilon {
            break;
        }
    }
    Ok((
        vector,
        EngineRun::new("HaLoop recomp", metrics, started.elapsed(), iterations),
    ))
}

/// GIM-V on the iterative engine: one job per iteration.
pub fn itermr(
    pool: &WorkerPool,
    cfg: &JobConfig,
    blocks: &[((u64, u64), Block)],
    spec: &Gimv,
    max_iterations: u64,
    epsilon: f64,
) -> Result<(PartitionedData<(u64, u64), Block, u64, Vec<f64>>, EngineRun)> {
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
    let mut data = build_partitioned(spec, cfg.n_reduce, blocks.to_vec());
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
#[allow(clippy::too_many_arguments)]
pub fn i2mr_initial(
    pool: &WorkerPool,
    cfg: &JobConfig,
    blocks: &[((u64, u64), Block)],
    spec: &Gimv,
    store_dir: &Path,
    store_runtime: StoreRuntimeConfig,
    max_iterations: u64,
    epsilon: f64,
) -> Result<(
    PartitionedData<(u64, u64), Block, u64, Vec<f64>>,
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
            preserve: PreserveMode::FinalOnly,
        })
        .store_runtime(store_runtime)
        .store_dir(store_dir)
        .build()?;
    let mut data = build_partitioned(spec, cfg.n_reduce, blocks.to_vec());
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

/// Incremental GIM-V refresh after matrix-block updates (exact mode).
#[allow(clippy::too_many_arguments)]
pub fn i2mr_incremental(
    pool: &WorkerPool,
    cfg: &JobConfig,
    data: &mut PartitionedData<(u64, u64), Block, u64, Vec<f64>>,
    stores: &StoreManager,
    spec: &Gimv,
    delta: &Delta<(u64, u64), Block>,
    max_iterations: u64,
    convergence_epsilon: f64,
) -> Result<(RunReport, EngineRun)> {
    i2mr_incremental_cpc(
        pool,
        cfg,
        data,
        stores,
        spec,
        delta,
        max_iterations,
        convergence_epsilon,
        None,
    )
}

/// Incremental GIM-V refresh with an explicit CPC filter threshold.
#[allow(clippy::too_many_arguments)]
pub fn i2mr_incremental_cpc(
    pool: &WorkerPool,
    cfg: &JobConfig,
    data: &mut PartitionedData<(u64, u64), Block, u64, Vec<f64>>,
    stores: &StoreManager,
    spec: &Gimv,
    delta: &Delta<(u64, u64), Block>,
    max_iterations: u64,
    convergence_epsilon: f64,
    filter_threshold: Option<f64>,
) -> Result<(RunReport, EngineRun)> {
    let started = Instant::now();
    let session = RunBuilder::new(spec)
        .pool(pool)
        .job(cfg.clone())
        .incr(IncrParams {
            filter_threshold,
            convergence_epsilon,
            max_iterations,
            ..Default::default()
        })
        .iter(IterParams {
            epsilon: convergence_epsilon,
            max_iterations,
            preserve: PreserveMode::None,
        })
        .stores_ref(stores)
        .build()?;
    let report = session.run_incremental(data, delta)?;
    let run = EngineRun::new(
        "i2MR",
        report.total_metrics(),
        started.elapsed(),
        report.iterations.len() as u64,
    );
    Ok((report, run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2mr_datagen::matrix::MatrixGen;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "i2mr-gimv-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn vectors_close(a: &[(u64, Vec<f64>)], b: &[(u64, Vec<f64>)], tol: f64) {
        assert_eq!(a.len(), b.len());
        for ((ka, va), (kb, vb)) in a.iter().zip(b) {
            assert_eq!(ka, kb);
            for (x, y) in va.iter().zip(vb) {
                assert!((x - y).abs() < tol, "block {ka}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn plainmr_and_itermr_agree() {
        // Dense-ish so every block row/column exists.
        let gen = MatrixGen::new(32, 8, 600, 3);
        let blocks = gen.blocks();
        let spec = Gimv {
            block_size: 8,
            damping: 0.85,
        };
        let cfg = JobConfig::symmetric(2);
        let pool = WorkerPool::new(2);
        let (plain, plain_run) = plainmr(&pool, &cfg, &blocks, &spec, 100, 1e-10).unwrap();
        let (iter_data, iter_run) = itermr(&pool, &cfg, &blocks, &spec, 100, 1e-10).unwrap();
        vectors_close(&plain, &iter_data.state_snapshot(), 1e-8);
        // Two jobs per iteration vs one overall.
        assert_eq!(plain_run.metrics.jobs_started, 2 * plain_run.iterations);
        assert_eq!(iter_run.metrics.jobs_started, 1);
    }

    #[test]
    fn incremental_matches_recompute_after_block_updates() {
        let gen = MatrixGen::new(32, 8, 600, 7);
        let blocks = gen.blocks();
        let spec = Gimv {
            block_size: 8,
            damping: 0.85,
        };
        let cfg = JobConfig::symmetric(2);
        let pool = WorkerPool::new(2);
        let (mut data, stores, _) = i2mr_initial(
            &pool,
            &cfg,
            &blocks,
            &spec,
            &tmp("incr"),
            Default::default(),
            200,
            1e-11,
        )
        .unwrap();

        let delta = i2mr_datagen::delta::matrix_delta(
            &blocks,
            i2mr_datagen::delta::DeltaSpec::ten_percent(13),
        );
        assert!(!delta.is_empty());
        let (report, _) =
            i2mr_incremental(&pool, &cfg, &mut data, &stores, &spec, &delta, 400, 1e-10).unwrap();
        assert!(report.converged);

        let updated = delta.apply_to(&blocks);
        let (oracle, _) = itermr(&pool, &cfg, &updated, &spec, 400, 1e-12).unwrap();
        vectors_close(&data.state_snapshot(), &oracle.state_snapshot(), 1e-5);
    }

    #[test]
    fn combine2_is_block_matvec() {
        let spec = Gimv {
            block_size: 3,
            damping: 0.85,
        };
        // Block [[0, .5, 0], [0, 0, .25], [0, 0, 0]] × [1, 2, 4].
        let block: Block = vec![(0, 1, 0.5), (1, 2, 0.25)];
        let out = spec.combine2(&block, &[1.0, 2.0, 4.0]);
        assert_eq!(out, vec![1.0, 1.0, 0.0]);
    }

    #[test]
    fn gimv_msg_codec_roundtrip() {
        for msg in [
            GimvMsg::Block(vec![(1, 2, 0.5)]),
            GimvMsg::Vector(vec![1.0, -2.5]),
        ] {
            let enc = i2mr_common::codec::encode_to(&msg);
            let dec: GimvMsg = i2mr_common::codec::decode_exact(&enc).unwrap();
            assert_eq!(dec, msg);
        }
        assert!(i2mr_common::codec::decode_exact::<GimvMsg>(&[9]).is_err());
    }
}
