//! Update contracts for workset-driven refreshes.
//!
//! Every refresh runs on the fixed-point driver (`crate::driver`): its MRBG
//! passes map, shuffle and reduce **only workset keys** against the
//! solution set — the converged state plus the preserved MRBGraph in the
//! sharded store plane — so change propagation (paper §5.3) is scheduling,
//! not a post-hoc filter ([`crate::incr_iter`] has the pass itself).
//! [`crate::run::RunSession::run_delta`] is the same refresh as
//! `run_incremental` for a spec that also declares how its updates compose
//! ([`DeltaIterativeSpec`]); the two produce bit-identical state and
//! byte-identical store exports.
//!
//! # Update contract
//!
//! * [`Monotonic`](UpdateContract::Monotonic) — reduce outputs only ever
//!   *improve* (move toward the fixed point along an improvement order,
//!   e.g. min-plus shortest paths). A key leaves the workset the moment its
//!   value stops improving; `run_delta` debug-asserts
//!   [`DeltaIterativeSpec::admissible`] on every reduce output.
//! * [`Retractable`](UpdateContract::Retractable) — updates may replace a
//!   value in either direction (e.g. PageRank mass redistribution). The
//!   MRBGraph upsert path retracts a map instance's previous contribution
//!   (delete + insert of the same `(K2, MK)` edge) before the new one
//!   lands, so re-reduction always sees a consistent edge set.

use crate::iterative::IterativeSpec;

/// How a spec's reduce outputs compose across delta iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateContract {
    /// Updates only ever improve (min-plus shortest paths, reachability):
    /// an emitted value never needs to be retracted.
    Monotonic,
    /// Updates may move a value in either direction (PageRank): prior
    /// contributions are retracted through MRBGraph edge upserts.
    Retractable,
}

/// An [`IterativeSpec`] that additionally declares its update contract,
/// making it eligible for [`crate::run::RunSession::run_delta`].
pub trait DeltaIterativeSpec: IterativeSpec {
    /// The contract this spec's updates obey.
    fn contract(&self) -> UpdateContract;

    /// Whether `candidate` is a legal successor of `prev` under the
    /// contract. Debug-asserted on every reduce output when the contract
    /// is [`UpdateContract::Monotonic`]; a violation means the workset
    /// scheduling assumptions don't hold and convergence is unspecified.
    fn admissible(&self, _candidate: &Self::DV, _prev: &Self::DV) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::IterCheckpointer;
    use crate::delta::Delta;
    use crate::incr_iter::IncrParams;
    use crate::iter_engine::{build_partitioned, PartitionedData, RunReport};
    use crate::iterative::{DependencyKind, IterParams, PreserveMode};
    use crate::run::{RunBuilder, RunSession};
    use i2mr_mapred::types::{Emitter, Values};
    use i2mr_mapred::WorkerPool;
    use i2mr_store::runtime::StoreManager;

    /// PageRank-like spec (same arithmetic as incr_iter's test spec).
    struct MiniRank;

    impl IterativeSpec for MiniRank {
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
            0.15 + 0.85 * values.iter().sum::<f64>()
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

    impl DeltaIterativeSpec for MiniRank {
        fn contract(&self) -> UpdateContract {
            UpdateContract::Retractable
        }
    }

    const N: usize = 3;

    fn stores(pool: &WorkerPool, tag: &str) -> StoreManager {
        let dir = std::env::temp_dir().join(format!(
            "i2mr-delta-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        StoreManager::create(pool, &dir, N, Default::default()).unwrap()
    }

    /// A MiniRank session on `pool` over `stores`, refreshing with `incr`.
    fn session<'s>(
        pool: &WorkerPool,
        incr: IncrParams,
        stores: &'s StoreManager,
        ck: Option<&'s IterCheckpointer>,
    ) -> RunSession<'s, MiniRank> {
        let mut builder = RunBuilder::new(&MiniRank)
            .pool(pool)
            .job(i2mr_mapred::JobConfig::symmetric(N))
            .iter(IterParams {
                max_iterations: 200,
                epsilon: 1e-12,
                preserve: PreserveMode::FinalOnly,
            })
            .incr(incr)
            .stores_ref(stores);
        if let Some(ck) = ck {
            builder = builder.checkpointer_ref(ck);
        }
        builder.build().unwrap()
    }

    fn converge_initial(
        graph: Vec<(u64, Vec<u64>)>,
        stores: &StoreManager,
        pool: &WorkerPool,
    ) -> PartitionedData<u64, Vec<u64>, u64, f64> {
        let mut data = build_partitioned(&MiniRank, N, graph);
        let report = session(pool, IncrParams::default(), stores, None)
            .run_initial(&mut data)
            .unwrap();
        assert!(report.converged);
        data
    }

    /// `run_delta` of `delta` on `data`.
    fn run_delta(
        pool: &WorkerPool,
        stores: &StoreManager,
        incr: IncrParams,
        data: &mut PartitionedData<u64, Vec<u64>, u64, f64>,
        delta: &Delta<u64, Vec<u64>>,
        ck: Option<&IterCheckpointer>,
    ) -> RunReport {
        session(pool, incr, stores, ck)
            .run_delta(data, delta)
            .unwrap()
    }

    fn ring_with_chords(n: u64) -> Vec<(u64, Vec<u64>)> {
        (0..n)
            .map(|i| {
                let mut out = vec![(i + 1) % n];
                if i % 3 == 0 {
                    out.push((i + 5) % n);
                }
                (i, out)
            })
            .collect()
    }

    fn incr_params() -> IncrParams {
        IncrParams {
            max_iterations: 400,
            ..Default::default()
        }
    }

    /// Run the same refresh through `run_incremental` and `run_delta` on
    /// independent stores and return (incremental report, delta report)
    /// with both states / exports asserted bit-identical.
    fn run_both(
        graph: Vec<(u64, Vec<u64>)>,
        delta: &Delta<u64, Vec<u64>>,
        params: IncrParams,
        tag: &str,
    ) -> (RunReport, RunReport) {
        let pool = WorkerPool::new(N);
        let st_full = stores(&pool, &format!("{tag}-full"));
        let mut data_full = converge_initial(graph.clone(), &st_full, &pool);
        let st_delta = stores(&pool, &format!("{tag}-delta"));
        let mut data_delta = converge_initial(graph, &st_delta, &pool);

        let full_rep = session(&pool, params, &st_full, None)
            .run_incremental(&mut data_full, delta)
            .unwrap();
        let delta_rep = run_delta(&pool, &st_delta, params, &mut data_delta, delta, None);

        // Bit-identical state (f64 equality, not tolerance).
        assert_eq!(data_full.state, data_delta.state, "state diverged");
        // Byte-identical preserved MRBGraph per shard.
        for p in 0..N {
            assert_eq!(
                st_full.export(p).unwrap(),
                st_delta.export(p).unwrap(),
                "shard {p} export diverged"
            );
        }
        (full_rep, delta_rep)
    }

    #[test]
    fn matches_incremental_engine_bitwise_on_edge_update() {
        let graph = ring_with_chords(40);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[7].1.clone();
        let mut new = old.clone();
        new.push(20);
        delta.update(7, old, new);

        let (full_rep, delta_rep) = run_both(graph, &delta, incr_params(), "edge");
        assert!(full_rep.converged && delta_rep.converged);
        assert_eq!(
            full_rep
                .iterations
                .iter()
                .map(|i| i.changed_keys)
                .collect::<Vec<_>>(),
            delta_rep
                .iterations
                .iter()
                .map(|i| i.changed_keys)
                .collect::<Vec<_>>(),
            "propagation series diverged"
        );
    }

    #[test]
    fn matches_incremental_engine_bitwise_on_vertex_churn() {
        let graph = ring_with_chords(30);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        delta.insert(100, vec![3]);
        delta.delete(11, graph[11].1.clone());

        let (full_rep, delta_rep) = run_both(graph, &delta, incr_params(), "vtx");
        assert!(full_rep.converged && delta_rep.converged);
    }

    #[test]
    fn matches_incremental_engine_with_cpc_threshold() {
        let graph = ring_with_chords(60);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[0].1.clone();
        delta.update(0, old, vec![30]);

        let params = IncrParams {
            filter_threshold: Some(0.001),
            max_iterations: 200,
            ..Default::default()
        };
        let (_, delta_rep) = run_both(graph, &delta, params, "cpc");
        // CPC verdicts below threshold are the pruned workset entries.
        let total = delta_rep.total_metrics();
        assert!(
            total.workset_skipped > 0,
            "threshold 0.001 must prune something"
        );
    }

    #[test]
    fn matches_incremental_engine_through_pdelta_fallback() {
        let graph = ring_with_chords(20);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        for i in 0..14u64 {
            let old = graph[i as usize].1.clone();
            delta.update(i, old, vec![(i + 9) % 20]);
        }

        let params = IncrParams {
            max_iterations: 300,
            ..Default::default()
        };
        let (full_rep, delta_rep) = run_both(graph, &delta, params, "pdelta");
        assert_eq!(
            full_rep.mrbg_turned_off_at, delta_rep.mrbg_turned_off_at,
            "P∆ must trigger identically"
        );
        assert!(delta_rep.mrbg_turned_off_at.is_some());
    }

    #[test]
    fn empty_workset_is_the_fixed_point() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(15);
        let st = stores(&pool, "empty");
        let mut data = converge_initial(graph, &st, &pool);
        let before = data.state_snapshot();

        let delta: Delta<u64, Vec<u64>> = Delta::new();
        let report = run_delta(&pool, &st, IncrParams::default(), &mut data, &delta, None);
        assert!(report.converged);
        assert_eq!(report.iterations.len(), 1, "one probing iteration");
        assert_eq!(report.worksets, vec![0]);
        let total = report.total_metrics();
        assert_eq!(total.workset_keys, 0);
        assert_eq!(total.delta_iterations, 1);
        assert_eq!(data.state_snapshot(), before);
    }

    #[test]
    fn workset_metrics_track_keys_processed() {
        let graph = ring_with_chords(90);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[7].1.clone();
        let mut new = old.clone();
        new.push(40);
        delta.update(7, old, new);

        let (_, delta_rep) = run_both(graph, &delta, incr_params(), "metrics");
        let total = delta_rep.total_metrics();
        assert_eq!(total.delta_iterations, delta_rep.iterations.len() as u64);
        assert_eq!(
            delta_rep.worksets.iter().sum::<u64>(),
            total.workset_keys,
            "workset series and counter must agree"
        );
        // Low churn: the workset — not the state width — drives reduce
        // work. Each workset key touches a handful of dependents (ring +
        // chord out-degree ≤ 2), so keys processed stays within a small
        // factor of the summed workset, far below full-width re-reduction.
        assert!(
            total.reduce_invocations <= 4 * total.workset_keys.max(1),
            "reduce invocations {} not workset-bound (workset {})",
            total.reduce_invocations,
            total.workset_keys
        );
        // Exact propagation keeps a decaying wavefront circulating, so
        // the per-iteration workset is the wavefront (~a third of this
        // small ring), not the state width.
        let full_width = 90 * delta_rep.iterations.len() as u64;
        assert!(
            total.reduce_invocations < full_width / 2,
            "reduce invocations {} ~ full width {}",
            total.reduce_invocations,
            full_width
        );
    }

    #[test]
    fn store_merge_faults_during_workset_merges_recover_via_reschedule() {
        use i2mr_common::failpoint::{FailAction, FailSite, FailpointRegistry};
        use std::sync::Arc;

        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(40);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[7].1.clone();
        let mut new = old.clone();
        new.push(20);
        delta.update(7, old, new);

        // Fault-free reference.
        let st_ref = stores(&pool, "mergefault-ref");
        let mut data_ref = converge_initial(graph.clone(), &st_ref, &pool);
        assert!(run_delta(&pool, &st_ref, incr_params(), &mut data_ref, &delta, None).converged);

        // Faulted run: the workset-scoped StoreMerge tasks die on their
        // first attempts; the executor reschedules them cross-worker. The
        // failpoint fires *before* the shard lock, so the deferred-index
        // merge path sees each delta exactly once and the end-of-run
        // settle persists a consistent index.
        let mut st = stores(&pool, "mergefault");
        let mut data = converge_initial(graph, &st, &pool);
        let fp = Arc::new(FailpointRegistry::seeded(9, 2).arm(
            FailSite::StoreAppend,
            1.0,
            FailAction::Error,
        ));
        st.set_failpoints(Arc::clone(&fp));
        let report = run_delta(&pool, &st, incr_params(), &mut data, &delta, None);
        assert!(report.converged);
        assert_eq!(fp.fired(), 2, "both budgeted merge faults must fire");
        assert!(
            report.total_metrics().retries >= 1,
            "rescheduled merge attempts must be accounted"
        );

        // Bit-identical state, byte-identical shards after settle — the
        // rescheduled merges neither lost nor double-applied deltas.
        assert_eq!(data_ref.state, data.state);
        for p in 0..N {
            assert_eq!(st_ref.export(p).unwrap(), st.export(p).unwrap());
        }
    }

    #[test]
    fn resumes_mid_run_after_worker_faults_bit_identical() {
        use i2mr_common::failpoint::{FailAction, FailSite, FailpointRegistry};
        use i2mr_mapred::pool::PoolConfig;
        use i2mr_store::store::MrbgStore;
        use std::sync::Arc;

        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(30);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        delta.insert(100, vec![3]);
        delta.delete(11, graph[11].1.clone());

        let st_ref = stores(&pool, "dresume-ref");
        let mut data_ref = converge_initial(graph.clone(), &st_ref, &pool);
        assert!(run_delta(&pool, &st_ref, incr_params(), &mut data_ref, &delta, None).converged);

        let st_seed = stores(&pool, "dresume-seed");
        let mut data = converge_initial(graph.clone(), &st_seed, &pool);
        let payloads: Vec<Vec<u8>> = (0..N).map(|p| st_seed.export(p).unwrap()).collect();
        drop(st_seed);

        let fp = Arc::new(FailpointRegistry::seeded(33, 3).arm(
            FailSite::TaskRun,
            1.0,
            FailAction::Error,
        ));
        let faulty = WorkerPool::with_config(PoolConfig {
            max_attempts: 1,
            failpoints: Arc::clone(&fp),
            ..PoolConfig::new(N)
        });
        let dir = std::env::temp_dir().join(format!(
            "i2mr-delta-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let shards = payloads
            .iter()
            .enumerate()
            .map(|(p, payload)| {
                MrbgStore::import(dir.join(format!("shard-{p}")), payload, Default::default())
                    .unwrap()
            })
            .collect();
        let st = StoreManager::from_stores(&faulty, shards, Default::default()).unwrap();
        let dfs = i2mr_dfs::MiniDfs::open_with(dir.join("dfs"), 1 << 20, 2).unwrap();
        let ck = IterCheckpointer::new(&dfs, "dresume", N);

        let report = run_delta(&faulty, &st, incr_params(), &mut data, &delta, Some(&ck));
        assert!(report.converged);
        assert!(fp.fired() >= 1);
        let total = report.total_metrics();
        assert!(total.recovery_ms > 0);
        assert_eq!(data_ref.state, data.state);
        for p in 0..N {
            assert_eq!(st_ref.export(p).unwrap(), st.export(p).unwrap());
        }
    }
}
