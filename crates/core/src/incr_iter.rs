//! Incremental iterative processing (paper §5): the *MRBG pass* step kind
//! of the fixed-point driver (`crate::driver`).
//!
//! A sequence of jobs `A_1 … A_i` refreshes an iterative mining result as
//! the structure data evolves. Job `A_i` starts from job `A_{i-1}`'s
//! **converged state** `D_{i-1}` and **converged MRBGraph** (both much
//! closer to the new fixed point than a fresh initialization), then runs
//! incremental one-step iterations over a **workset** of changed keys:
//!
//! * **Iteration 1** — the workset is the *delta structure data*: deleted
//!   records cancel their MRBGraph edges via tombstones, inserted records
//!   add edges; only affected Reduce instances re-run.
//! * **Iteration j ≥ 2** — the workset is the *delta state data*
//!   `ΔD_{j-1}`: for each changed state key, the map instances of its
//!   dependent structure records re-run and upsert their edges.
//!
//! Only workset keys enter the data plane: Map tasks only for partitions
//! holding workset entries, Sort tasks only for non-empty runs, MRBGraph
//! point merges only for touched shards
//! ([`i2mr_store::runtime::StoreManager::merge_apply_touched`], committed once at the
//! end-of-run settle), Reduce tasks only for partitions with merge
//! outcomes. The reduce outputs that survive the CPC judgment become the
//! next workset; an empty workset **is** the fixed point.
//!
//! Two §5 mechanisms bound the work:
//!
//! * **Change propagation control** (§5.3, [`crate::cpc`]): recomputed state
//!   values whose accumulated change is below the filter threshold are not
//!   emitted; asymmetric convergence makes most keys settle in a few hops.
//! * **P∆ monitoring** (§5.2): when the delta state covers more than
//!   `pdelta_threshold` (default 50 %) of all state kv-pairs, maintaining
//!   the MRBGraph costs more than it saves; the driver switches to full
//!   passes from the current state.

use crate::cpc::{ChangePropagation, Verdict};
use crate::delta::{Delta, DeltaRecord, Op};
use crate::driver::{Driver, Refresh};
use crate::iter_engine::{PartitionedData, StructGroup};
use crate::iterative::{IterationStats, IterativeSpec};
use i2mr_common::codec::{decode_exact, encode_to, with_encoding};
use i2mr_common::error::Result;
use i2mr_common::hash::MapKey;
use i2mr_common::metrics::{JobMetrics, Stage};
use i2mr_mapred::fault::{TaskId, TaskKind};
use i2mr_mapred::partition::{HashPartitioner, Partitioner};
use i2mr_mapred::pool::TaskSpec;
use i2mr_mapred::shuffle::{groups, sort_runs, transpose_pooled, ShuffleBuffers};
use i2mr_mapred::types::Values;
use i2mr_store::format::frame_entries;
use i2mr_store::merge::{DeltaChunk, DeltaEntry};
use std::collections::BTreeSet;
use std::time::Instant;

/// Knobs of an incremental iterative run.
#[derive(Clone, Copy, Debug)]
pub struct IncrParams {
    /// CPC filter threshold (paper: `job.setFilterThresh`); `None` = CPC
    /// disabled ("w/o CPC"): every change above the numerical
    /// `convergence_epsilon` propagates.
    pub filter_threshold: Option<f64>,
    /// Numerical convergence floor. Floating-point fixed points are only
    /// ever approached, so even "exact" propagation needs an epsilon below
    /// which a change counts as converged rather than propagatable.
    pub convergence_epsilon: f64,
    /// Switch from MRBG passes to full passes when `|ΔD| / |D|` exceeds
    /// this (paper default 50 %).
    pub pdelta_threshold: f64,
    /// Iteration budget.
    pub max_iterations: u64,
}

impl Default for IncrParams {
    fn default() -> Self {
        IncrParams {
            filter_threshold: None,
            convergence_epsilon: 1e-9,
            pdelta_threshold: 0.5,
            max_iterations: 50,
        }
    }
}

impl IncrParams {
    /// The threshold CPC actually applies: the filter threshold when set,
    /// otherwise the numerical convergence floor.
    pub fn effective_threshold(&self) -> f64 {
        self.filter_threshold.unwrap_or(self.convergence_epsilon)
    }
}

/// A shuffle buffer of MRBG edge changes (`None` deletes the edge).
type DeltaBuffers<S> = ShuffleBuffers<<S as IterativeSpec>::DK, Option<<S as IterativeSpec>::V2>>;

impl<S: IterativeSpec> Driver<'_, S> {
    /// One MRBG pass: Map the workset, shuffle, merge the delta MRBGraph
    /// into the touched shards, re-reduce the affected instances, apply the
    /// changes CPC lets through — which become the next workset.
    pub(crate) fn mrbg_pass(
        &self,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        refresh: &Refresh<'_, S>,
        workset: &mut Vec<(S::DK, S::DV)>,
        iteration: u64,
        metrics: &mut JobMetrics,
    ) -> Result<IterationStats> {
        let (n, spec) = (self.n, self.spec);
        metrics.workset_keys = match iteration {
            1 => refresh.delta.records().len() as u64,
            _ => workset.len() as u64,
        };
        metrics.delta_iterations = 1;

        // Map: the delta structure against the pre-delta state (then the
        // delta is applied), or the previous pass's state changes.
        let t = Instant::now();
        let (map_outputs, new_dks) = if iteration == 1 {
            let outputs = self.map_structure_delta(data, refresh.delta, metrics)?;
            (outputs, apply_structure_delta(spec, n, data, refresh.delta))
        } else {
            let outputs =
                self.map_state_delta(data, std::mem::take(workset), iteration, metrics)?;
            (outputs, (0..n).map(|_| BTreeSet::new()).collect())
        };
        self.stage(metrics, Stage::Map, iteration, t);

        let t = Instant::now();
        let (mut runs, recs, bytes) = transpose_pooled(map_outputs, n, true, &self.delta_runs);
        metrics.shuffled_records += recs;
        metrics.shuffled_bytes += bytes;
        self.stage(metrics, Stage::Shuffle, iteration, t);

        let t = Instant::now();
        sort_runs(self.pool, &mut runs, iteration)?;
        self.stage(metrics, Stage::Sort, iteration, t);

        // MRBGraph point merge: one StoreMerge task per shard whose run (or
        // new-key set) is non-empty; the commit is deferred to the settle.
        let t = Instant::now();
        let touched: Vec<usize> = (0..n)
            .filter(|&p| !runs[p].is_empty() || !new_dks[p].is_empty())
            .collect();
        let outcomes = refresh
            .stores
            .merge_apply_touched(iteration, &touched, |p| {
                Ok(delta_chunks::<S>(&runs[p], &new_dks[p]))
            })?;

        // Reduce: one task per partition with merge outcomes; its CPC
        // verdicts decide the next workset.
        let state_parts = &data.state;
        let threshold = refresh.params.effective_threshold();
        let admissible = refresh.admissible;
        let reduce_parts: Vec<usize> = (0..n).filter(|&p| !outcomes[p].is_empty()).collect();
        let reduce_tasks: Vec<TaskSpec<'_, (Vec<(S::DK, S::DV)>, u64, u64)>> = reduce_parts
            .iter()
            .map(|&p| {
                let (merged, state) = (&outcomes[p], &state_parts[p]);
                TaskSpec::pinned(
                    TaskId {
                        kind: TaskKind::Reduce,
                        index: p,
                        iteration,
                    },
                    p % self.pool.n_workers(),
                    move |_| {
                        let mut cpc = ChangePropagation::with_threshold(threshold);
                        let mut emitted: Vec<(S::DK, S::DV)> = Vec::new();
                        let mut invocations = 0u64;
                        // Values are decoded straight out of the merged
                        // frames; `values` is reused across groups.
                        let mut values: Vec<S::V2> = Vec::new();
                        for (key_bytes, frame) in merged.iter() {
                            let dk: S::DK = decode_exact(key_bytes)?;
                            // Deleted vertices / dangling targets have no
                            // state entry: their chunk was maintained but
                            // no state update applies.
                            let Ok(idx) = state.binary_search_by(|(k, _)| k.cmp(&dk)) else {
                                continue;
                            };
                            let prev = &state[idx].1;
                            values.clear();
                            if let Some(frame) = frame {
                                let entries = frame_entries(frame)?;
                                values.reserve(entries.len());
                                for entry in entries {
                                    values.push(decode_exact(entry?.1)?);
                                }
                            }
                            let candidate = spec.reduce(&dk, prev, Values::slice(&values));
                            invocations += 1;
                            if let Some(admissible) = admissible {
                                debug_assert!(
                                    admissible(&candidate, prev),
                                    "monotonic update contract violated"
                                );
                            }
                            if cpc.judge(spec.difference(&candidate, prev)) == Verdict::Emit {
                                emitted.push((dk, candidate));
                            }
                        }
                        Ok((emitted, invocations, cpc.filtered()))
                    },
                )
            })
            .collect();
        let reduce_results = self.pool.run_tasks(reduce_tasks)?;
        // One batch buffer and one key per outcome: freed here, inside
        // the Reduce stage's wall time.
        drop(outcomes);
        self.stage(metrics, Stage::Reduce, iteration, t);
        self.delta_runs.recycle_all(runs);

        // Apply emitted updates in ascending partition order (reduce task p
        // writes state partition p — co-location) and gather ΔD_j.
        let mut next: Vec<(S::DK, S::DV)> = Vec::new();
        for (&p, (emitted, invocations, filtered)) in reduce_parts.iter().zip(reduce_results) {
            metrics.reduce_invocations += invocations;
            metrics.workset_skipped += filtered;
            let part = &mut data.state[p];
            for (dk, dv) in &emitted {
                if let Ok(idx) = part.binary_search_by(|(k, _)| k.cmp(dk)) {
                    part[idx].1 = dv.clone();
                }
            }
            next.extend(emitted);
        }
        let changed_keys = next.len() as u64;
        *workset = next;
        Ok(IterationStats {
            iteration,
            max_diff: 0.0,
            changed_keys,
            wall: Default::default(),
        })
    }

    /// Iteration 1 map phase: Map over the delta structure records against
    /// the pre-delta state; deletions become edge tombstones.
    fn map_structure_delta(
        &self,
        data: &PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        delta: &Delta<S::SK, S::SV>,
        metrics: &mut JobMetrics,
    ) -> Result<Vec<DeltaBuffers<S>>> {
        let (n, spec) = (self.n, self.spec);
        let mut per_part: Vec<Vec<(S::DK, &DeltaRecord<S::SK, S::SV>)>> =
            (0..n).map(|_| Vec::new()).collect();
        for rec in delta.records() {
            let dk = spec.project(&rec.key);
            per_part[HashPartitioner.partition(&dk, n)].push((dk, rec));
        }
        let inputs: Vec<_> = per_part
            .iter()
            .zip(&data.state)
            .enumerate()
            .filter(|(_, (records, _))| !records.is_empty())
            .collect();
        let (outputs, invocations) = self.map_stage(1, &inputs, |(records, state), emitter| {
            let mut buffers = ShuffleBuffers::with_pool(n, &self.delta_runs);
            for (dk, rec) in records.iter() {
                let dv = state
                    .binary_search_by(|(k, _)| k.cmp(dk))
                    .ok()
                    .map(|i| state[i].1.clone())
                    .unwrap_or_else(|| spec.init(dk));
                let mk = with_encoding(&rec.key, MapKey::for_structure);
                spec.map(&rec.key, &rec.value, dk, &dv, emitter);
                for (k2, v2) in emitter.drain() {
                    let payload = match rec.op {
                        Op::Insert => Some(v2),
                        Op::Delete => None,
                    };
                    buffers.push(k2, mk, payload, &HashPartitioner);
                }
            }
            (buffers, records.len() as u64)
        })?;
        metrics.map_invocations += invocations;
        Ok(outputs)
    }

    /// Iteration j ≥ 2 map phase: re-run the map instances of the structure
    /// records that depend on the changed state keys; every output is an
    /// edge upsert.
    fn map_state_delta(
        &self,
        data: &PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        workset: Vec<(S::DK, S::DV)>,
        iteration: u64,
        metrics: &mut JobMetrics,
    ) -> Result<Vec<DeltaBuffers<S>>> {
        let (n, spec) = (self.n, self.spec);
        let mut per_part: Vec<Vec<(S::DK, S::DV)>> = (0..n).map(|_| Vec::new()).collect();
        for (dk, dv) in workset {
            per_part[HashPartitioner.partition(&dk, n)].push((dk, dv));
        }
        let inputs: Vec<_> = per_part
            .iter()
            .zip(&data.structure)
            .enumerate()
            .filter(|(_, (changes, _))| !changes.is_empty())
            .collect();
        let (outputs, invocations) =
            self.map_stage(iteration, &inputs, |(changes, groups), emitter| {
                let mut buffers = ShuffleBuffers::with_pool(n, &self.delta_runs);
                let mut invocations = 0u64;
                for (dk, dv) in changes.iter() {
                    let Ok(gi) = groups.binary_search_by(|g| g.dk.cmp(dk)) else {
                        continue; // state key with no dependents
                    };
                    for (sk, sv) in &groups[gi].records {
                        let mk = with_encoding(sk, MapKey::for_structure);
                        spec.map(sk, sv, dk, dv, emitter);
                        invocations += 1;
                        for (k2, v2) in emitter.drain() {
                            buffers.push(k2, mk, Some(v2), &HashPartitioner);
                        }
                    }
                }
                (buffers, invocations)
            })?;
        metrics.map_invocations += invocations;
        Ok(outputs)
    }
}

/// One partition's delta MRBGraph: a chunk per sorted K2 group of its run,
/// plus an empty chunk for every newly inserted state key no edge reached
/// (a vertex with no in-edges must still settle to its no-input value).
fn delta_chunks<S: IterativeSpec>(
    run: &[(S::DK, MapKey, Option<S::V2>)],
    new_dks: &BTreeSet<Vec<u8>>,
) -> Vec<DeltaChunk> {
    let mut deltas: Vec<DeltaChunk> = Vec::new();
    // The new keys not yet seen in the run, checked off in place.
    let mut pending: Vec<&Vec<u8>> = new_dks.iter().collect();
    for group in groups(run) {
        let key = encode_to(&group[0].0);
        if let Ok(i) = pending.binary_search_by(|k| k.as_slice().cmp(&key)) {
            pending.remove(i);
        }
        let entries = group
            .iter()
            .map(|(_, mk, v)| match v {
                Some(v2) => DeltaEntry::Insert(*mk, encode_to(v2)),
                None => DeltaEntry::Delete(*mk),
            })
            .collect();
        deltas.push(DeltaChunk { key, entries });
    }
    for key in pending {
        deltas.push(DeltaChunk {
            key: key.clone(),
            entries: Vec::new(),
        });
    }
    deltas
}

/// Apply a structure delta to partitioned data, maintaining the invariants
/// (grouping, sorting, state/structure key alignment). Returns the encoded
/// DKs of newly created state keys, per partition.
pub fn apply_structure_delta<S: IterativeSpec>(
    spec: &S,
    n: usize,
    data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
    delta: &Delta<S::SK, S::SV>,
) -> Vec<BTreeSet<Vec<u8>>> {
    let mut new_dks: Vec<BTreeSet<Vec<u8>>> = (0..n).map(|_| BTreeSet::new()).collect();
    for rec in delta.records() {
        let dk = spec.project(&rec.key);
        let p = HashPartitioner.partition(&dk, n);
        let groups = &mut data.structure[p];
        let state = &mut data.state[p];
        match rec.op {
            Op::Insert => match groups.binary_search_by(|g| g.dk.cmp(&dk)) {
                Ok(gi) => {
                    let records = &mut groups[gi].records;
                    let pos = records
                        .binary_search_by(|(sk, _)| sk.cmp(&rec.key))
                        .unwrap_or_else(|e| e);
                    records.insert(pos, (rec.key.clone(), rec.value.clone()));
                }
                Err(gi) => {
                    groups.insert(
                        gi,
                        StructGroup {
                            dk: dk.clone(),
                            records: vec![(rec.key.clone(), rec.value.clone())],
                        },
                    );
                    let si = state
                        .binary_search_by(|(k, _)| k.cmp(&dk))
                        .unwrap_or_else(|e| e);
                    state.insert(si, (dk.clone(), spec.init(&dk)));
                    new_dks[p].insert(encode_to(&dk));
                }
            },
            Op::Delete => {
                if let Ok(gi) = groups.binary_search_by(|g| g.dk.cmp(&dk)) {
                    let records = &mut groups[gi].records;
                    if let Some(pos) = records
                        .iter()
                        .position(|(sk, sv)| *sk == rec.key && format_eq(sv, &rec.value))
                    {
                        records.remove(pos);
                    }
                    if records.is_empty() {
                        groups.remove(gi);
                        if let Ok(si) = state.binary_search_by(|(k, _)| k.cmp(&dk)) {
                            state.remove(si);
                        }
                        new_dks[p].remove(&encode_to(&dk));
                    }
                }
            }
        }
    }
    new_dks
}

/// Value equality via canonical encoding (SV: ValueData has no PartialEq
/// bound; the canonical byte encoding is the identity that matters).
fn format_eq<V: i2mr_common::codec::Codec>(a: &V, b: &V) -> bool {
    encode_to(a) == encode_to(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::IterCheckpointer;
    use crate::iter_engine::{build_partitioned, RunReport};
    use crate::iterative::{DependencyKind, IterParams, PreserveMode};
    use crate::run::{RunBuilder, RunSession};
    use i2mr_mapred::types::Emitter;
    use i2mr_mapred::{JobConfig, WorkerPool};
    use i2mr_store::runtime::StoreManager;

    /// PageRank-like spec used across incremental tests.
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

    const N: usize = 3;

    fn stores(pool: &WorkerPool, tag: &str) -> StoreManager {
        let dir = std::env::temp_dir().join(format!(
            "i2mr-incr-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        StoreManager::create(pool, &dir, N, Default::default()).unwrap()
    }

    /// A MiniRank session on `pool`: `iter` drives initial runs and the
    /// full passes after a P∆ switch, `incr` drives refreshes.
    fn session<'s>(
        pool: &WorkerPool,
        iter: IterParams,
        incr: IncrParams,
        stores: Option<&'s StoreManager>,
        ck: Option<&'s IterCheckpointer>,
    ) -> RunSession<'s, MiniRank> {
        let mut builder = RunBuilder::new(&MiniRank)
            .pool(pool)
            .job(JobConfig::symmetric(N))
            .iter(iter)
            .incr(incr);
        if let Some(stores) = stores {
            builder = builder.stores_ref(stores);
        }
        if let Some(ck) = ck {
            builder = builder.checkpointer_ref(ck);
        }
        builder.build().unwrap()
    }

    /// `run_incremental` of `delta` on `data` with `incr`; `iter` is for
    /// the full passes after a P∆ switch.
    fn refresh(
        pool: &WorkerPool,
        stores: &StoreManager,
        incr: IncrParams,
        iter: IterParams,
        data: &mut PartitionedData<u64, Vec<u64>, u64, f64>,
        delta: &Delta<u64, Vec<u64>>,
        ck: Option<&IterCheckpointer>,
    ) -> RunReport {
        session(pool, iter, incr, Some(stores), ck)
            .run_incremental(data, delta)
            .unwrap()
    }

    fn converge_initial(
        graph: Vec<(u64, Vec<u64>)>,
        stores: &StoreManager,
        pool: &WorkerPool,
    ) -> PartitionedData<u64, Vec<u64>, u64, f64> {
        let iter = IterParams {
            max_iterations: 200,
            epsilon: 1e-12,
            preserve: PreserveMode::FinalOnly,
        };
        let mut data = build_partitioned(&MiniRank, N, graph);
        let report = session(pool, iter, IncrParams::default(), Some(stores), None)
            .run_initial(&mut data)
            .unwrap();
        assert!(report.converged);
        data
    }

    /// Oracle: converge from scratch on the updated graph.
    fn oracle(graph: Vec<(u64, Vec<u64>)>, pool: &WorkerPool) -> Vec<(u64, f64)> {
        let iter = IterParams {
            max_iterations: 300,
            epsilon: 1e-12,
            preserve: PreserveMode::None,
        };
        let mut data = build_partitioned(&MiniRank, N, graph);
        let report = session(pool, iter, IncrParams::default(), None, None)
            .run_initial(&mut data)
            .unwrap();
        assert!(report.converged);
        data.state_snapshot()
    }

    fn assert_states_close(a: &[(u64, f64)], b: &[(u64, f64)], tol: f64) {
        assert_eq!(
            a.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            b.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            "key sets differ"
        );
        for ((k, va), (_, vb)) in a.iter().zip(b) {
            assert!((va - vb).abs() < tol, "key {k}: {va} vs {vb}");
        }
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

    /// Exact propagation with a generous budget.
    fn exact_params(max_iterations: u64) -> IncrParams {
        IncrParams {
            max_iterations,
            ..Default::default()
        }
    }

    #[test]
    fn incremental_matches_recompute_after_edge_insertions() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(40);
        let st = stores(&pool, "ins");
        let mut data = converge_initial(graph.clone(), &st, &pool);

        // Insert a chord on vertex 7: update its record.
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[7].1.clone();
        let mut new = old.clone();
        new.push(20);
        delta.update(7, old, new.clone());

        let iter = IterParams::default();
        let report = refresh(&pool, &st, exact_params(400), iter, &mut data, &delta, None);
        assert!(report.converged);
        assert!(
            report.mrbg_turned_off_at.is_none(),
            "1 change of 40: P∆ small"
        );

        let mut updated = graph;
        updated[7].1 = new;
        let want = oracle(updated, &pool);
        assert_states_close(&data.state_snapshot(), &want, 2e-5);
    }

    #[test]
    fn incremental_matches_recompute_after_vertex_insert_and_delete() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(30);
        let st = stores(&pool, "vtx");
        let mut data = converge_initial(graph.clone(), &st, &pool);

        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        // New vertex 100 pointing at 3 (and nothing pointing at it).
        delta.insert(100, vec![3]);
        // Delete vertex 11 (its record; in-edges from 10 remain via ring —
        // contributions to a deleted vertex are dropped).
        delta.delete(11, graph[11].1.clone());

        let iter = IterParams::default();
        let report = refresh(&pool, &st, exact_params(400), iter, &mut data, &delta, None);
        assert!(report.converged);

        let mut updated = graph;
        updated.retain(|(k, _)| *k != 11);
        updated.push((100, vec![3]));
        let want = oracle(updated, &pool);
        assert_states_close(&data.state_snapshot(), &want, 2e-5);

        // Vertex 100 (no in-edges) must have settled at 0.15, not init 1.0.
        let v100 = data.state_get(N, &100).copied().unwrap();
        assert!((v100 - 0.15).abs() < 1e-9, "got {v100}");
    }

    #[test]
    fn cpc_threshold_reduces_propagation_but_bounds_error() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(60);
        let st_exact = stores(&pool, "cpc-exact");
        let mut data_exact = converge_initial(graph.clone(), &st_exact, &pool);
        let st_cpc = stores(&pool, "cpc-filt");
        let mut data_cpc = converge_initial(graph.clone(), &st_cpc, &pool);

        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[0].1.clone();
        delta.update(0, old.clone(), vec![30]);

        let iter = IterParams::default();
        let exact_rep = refresh(
            &pool,
            &st_exact,
            exact_params(200),
            iter,
            &mut data_exact,
            &delta,
            None,
        );
        let cpc = IncrParams {
            filter_threshold: Some(0.001),
            ..exact_params(200)
        };
        let cpc_rep = refresh(&pool, &st_cpc, cpc, iter, &mut data_cpc, &delta, None);

        let exact_prop: u64 = exact_rep.iterations.iter().map(|i| i.changed_keys).sum();
        let cpc_prop: u64 = cpc_rep.iterations.iter().map(|i| i.changed_keys).sum();
        assert!(
            cpc_prop < exact_prop,
            "CPC must propagate fewer kv-pairs ({cpc_prop} vs {exact_prop})"
        );

        // Error vs the exact refresh stays small (threshold-bounded).
        let exact = data_exact.state_snapshot();
        let approx = data_cpc.state_snapshot();
        let mean_err: f64 = exact
            .iter()
            .zip(&approx)
            .map(|((_, a), (_, b))| ((a - b) / a).abs())
            .sum::<f64>()
            / exact.len() as f64;
        assert!(mean_err < 0.01, "mean error {mean_err}");
    }

    #[test]
    fn pdelta_monitor_turns_off_mrbg_on_big_deltas() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(20);
        let st = stores(&pool, "pdelta");
        let mut data = converge_initial(graph.clone(), &st, &pool);

        // Rewire more than half of all vertices: P∆ blows past 50 %.
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let mut updated = graph.clone();
        for i in 0..14u64 {
            let old = graph[i as usize].1.clone();
            let new = vec![(i + 9) % 20];
            delta.update(i, old, new.clone());
            updated[i as usize].1 = new;
        }

        let iter = IterParams {
            epsilon: 1e-12,
            ..Default::default()
        };
        let report = refresh(&pool, &st, exact_params(300), iter, &mut data, &delta, None);
        assert!(report.mrbg_turned_off_at.is_some(), "P∆ must trigger");
        assert!(report.converged);

        let want = oracle(updated, &pool);
        assert_states_close(&data.state_snapshot(), &want, 2e-5);
    }

    #[test]
    fn empty_delta_converges_immediately() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(15);
        let st = stores(&pool, "empty");
        let mut data = converge_initial(graph, &st, &pool);
        let before = data.state_snapshot();

        let delta: Delta<u64, Vec<u64>> = Delta::new();
        let (incr, iter) = (IncrParams::default(), IterParams::default());
        let report = refresh(&pool, &st, incr, iter, &mut data, &delta, None);
        assert!(report.converged);
        assert_eq!(report.iterations.len(), 1);
        assert_eq!(report.iterations[0].changed_keys, 0);
        assert_eq!(data.state_snapshot(), before);
    }

    #[test]
    fn resumes_mid_run_after_worker_faults_bit_identical() {
        use i2mr_common::failpoint::{FailAction, FailSite, FailpointRegistry};
        use i2mr_mapred::pool::PoolConfig;
        use i2mr_store::store::MrbgStore;
        use std::sync::Arc;

        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(40);
        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[7].1.clone();
        let mut new = old.clone();
        new.push(20);
        delta.update(7, old, new);
        let iter = IterParams::default();

        // Fault-free reference refresh.
        let st_ref = stores(&pool, "resume-ref");
        let mut data_ref = converge_initial(graph.clone(), &st_ref, &pool);
        assert!(
            refresh(
                &pool,
                &st_ref,
                exact_params(400),
                iter,
                &mut data_ref,
                &delta,
                None
            )
            .converged
        );

        // Faulty refresh: converge on the clean pool, move the preserved
        // shards to a pool whose every task attempt dies while the fault
        // budget lasts (no executor retries — failures escape to the
        // driver's rewind path).
        let st_seed = stores(&pool, "resume-seed");
        let mut data = converge_initial(graph.clone(), &st_seed, &pool);
        let payloads: Vec<Vec<u8>> = (0..N).map(|p| st_seed.export(p).unwrap()).collect();
        drop(st_seed);

        let fp = Arc::new(FailpointRegistry::seeded(21, 3).arm(
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
            "i2mr-incr-resume-{}-{:?}",
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
        let ck = IterCheckpointer::new(&dfs, "resume", N);

        let report = refresh(
            &faulty,
            &st,
            exact_params(400),
            iter,
            &mut data,
            &delta,
            Some(&ck),
        );
        assert!(report.converged);
        assert!(fp.fired() >= 1, "faults must actually have been injected");
        let total = report.total_metrics();
        assert!(total.recovery_ms > 0, "rewind cost must be accounted");
        assert!(
            total.rebuilt_shards >= N as u64,
            "every shard rebuilds on rewind (got {})",
            total.rebuilt_shards
        );

        // Bit-identical fixed point and byte-identical preserved MRBGraph.
        assert_eq!(data_ref.state, data.state);
        for p in 0..N {
            assert_eq!(st_ref.export(p).unwrap(), st.export(p).unwrap());
        }
    }

    #[test]
    fn checkpoints_written_and_restorable() {
        let pool = WorkerPool::new(N);
        let graph = ring_with_chords(24);
        let st = stores(&pool, "ckpt");
        let mut data = converge_initial(graph.clone(), &st, &pool);

        let dfs_dir = std::env::temp_dir().join(format!(
            "i2mr-incr-ckpt-dfs-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dfs_dir);
        let dfs = i2mr_dfs::MiniDfs::open_with(&dfs_dir, 1 << 20, 2).unwrap();
        let ck = IterCheckpointer::new(&dfs, "minirank", N);

        let mut delta: Delta<u64, Vec<u64>> = Delta::new();
        let old = graph[2].1.clone();
        delta.update(2, old, vec![13]);

        let iter = IterParams::default();
        let report = refresh(
            &pool,
            &st,
            exact_params(400),
            iter,
            &mut data,
            &delta,
            Some(&ck),
        );
        assert!(report.converged);

        let latest = ck.latest_complete(true).expect("checkpoints exist");
        let restored: Vec<Vec<(u64, f64)>> = ck.load_state(latest).unwrap();
        assert_eq!(restored, data.state);
    }
}
