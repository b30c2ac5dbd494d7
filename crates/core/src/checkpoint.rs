//! Per-iteration checkpointing of state data and MRBGraph files (paper §6.1).
//!
//! "i2MapReduce checkpoints the prime Reduce task's output state data and
//! MRBGraph file on HDFS in every iteration." Recovery reloads the latest
//! *complete* iteration — a checkpoint is complete only when every
//! partition's state and store payload is present, which the atomic-rename
//! [`CheckpointStore`] guarantees per artifact and
//! [`IterCheckpointer::latest_complete`] verifies across artifacts.

use i2mr_common::codec::{decode_exact, encode_to, Codec};
use i2mr_common::error::Result;
use i2mr_dfs::{CheckpointStore, MiniDfs};
use i2mr_mapred::fault::{TaskId, TaskKind};
use i2mr_mapred::pool::{TaskSpec, WorkerPool};
use i2mr_store::runtime::{StoreManager, StoreRuntimeConfig};
use i2mr_store::store::MrbgStore;
use std::path::Path;

/// Upper bound on mid-run rewinds before an engine gives up and surfaces
/// the error. Failpoint budgets are finite and real fault bursts are
/// short; a run that needs more rewinds than this is not making progress.
pub(crate) const MAX_RECOVERIES: u32 = 8;

/// Checkpoint writer/reader for one iterative job.
///
/// Job names must be unique per refresh: a resuming engine trusts every
/// artifact found under its job name, so reusing a name across runs with
/// different inputs would splice a stale fixed point into recovery.
pub struct IterCheckpointer {
    store: CheckpointStore,
    job: String,
    n_partitions: usize,
    /// Save every `n`-th iteration (1 = every iteration). Iteration 0 —
    /// the pre-mutation baseline — always saves.
    every: u64,
}

impl IterCheckpointer {
    /// Checkpointer for `job` with `n_partitions` prime reduce tasks,
    /// backed by `dfs`. Saves every iteration; see
    /// [`IterCheckpointer::with_cadence`] to thin that out.
    pub fn new(dfs: &MiniDfs, job: impl Into<String>, n_partitions: usize) -> Self {
        IterCheckpointer {
            store: dfs.checkpoints(),
            job: job.into(),
            n_partitions,
            every: 1,
        }
    }

    /// Save only every `n`-th iteration (clamped to at least 1). Off-
    /// cadence [`Self::save_iteration`] / [`Self::save_aux`] calls become
    /// no-ops, so recovery rewinds to the last cadence multiple — a longer
    /// re-execution in exchange for proportionally less checkpoint I/O.
    /// A completed run's last state is still recorded ([`Self::save_final`]).
    #[must_use]
    pub fn with_cadence(mut self, every: u64) -> Self {
        self.every = every.max(1);
        self
    }

    /// Replace the partition count (used by [`crate::run::RunBuilder`],
    /// which learns the final job shape only at build time).
    #[must_use]
    pub fn with_partitions(mut self, n_partitions: usize) -> Self {
        self.n_partitions = n_partitions;
        self
    }

    /// Whether `iteration` is on the save cadence.
    pub fn on_cadence(&self, iteration: u64) -> bool {
        iteration % self.every == 0
    }

    fn state_task(p: usize) -> String {
        format!("state-{p}")
    }

    fn mrbg_task(p: usize) -> String {
        format!("mrbg-{p}")
    }

    fn aux_task() -> String {
        "aux".to_string()
    }

    /// Save one iteration's state partitions (and stores, when maintained).
    pub fn save_iteration<DK: Codec, DV: Codec>(
        &self,
        iteration: u64,
        state: &[Vec<(DK, DV)>],
        stores: Option<&StoreManager>,
    ) -> Result<()> {
        if !self.on_cadence(iteration) {
            return Ok(());
        }
        self.save_final(iteration, state, stores)
    }

    /// [`Self::save_iteration`] regardless of the cadence: the record of a
    /// completed run, which recovery must find whatever its iteration.
    pub fn save_final<DK: Codec, DV: Codec>(
        &self,
        iteration: u64,
        state: &[Vec<(DK, DV)>],
        stores: Option<&StoreManager>,
    ) -> Result<()> {
        for (p, part) in state.iter().enumerate() {
            self.store
                .save(&self.job, iteration, &Self::state_task(p), &encode_to(part))?;
        }
        if let Some(stores) = stores {
            for p in 0..stores.n_shards() {
                let payload = stores.export(p)?;
                self.store
                    .save(&self.job, iteration, &Self::mrbg_task(p), &payload)?;
            }
        }
        Ok(())
    }

    /// Latest iteration for which every partition's state checkpoint exists
    /// (and, if `with_stores`, every store checkpoint too).
    pub fn latest_complete(&self, with_stores: bool) -> Option<u64> {
        let mut tasks: Vec<String> = (0..self.n_partitions).map(Self::state_task).collect();
        if with_stores {
            tasks.extend((0..self.n_partitions).map(Self::mrbg_task));
        }
        self.store.latest_complete_iteration(&self.job, &tasks)
    }

    /// Save the auxiliary inter-iteration artifact (the incremental
    /// engine's delta state / the delta engine's workset) for `iteration`.
    ///
    /// Engines write it *after* the state and store artifacts, so its
    /// presence marks the iteration as resumable — which is exactly what
    /// [`Self::latest_resumable`] keys on.
    pub fn save_aux(&self, iteration: u64, data: &[u8]) -> Result<()> {
        if !self.on_cadence(iteration) {
            return Ok(());
        }
        self.store
            .save(&self.job, iteration, &Self::aux_task(), data)
    }

    /// Load the auxiliary artifact checkpointed at `iteration`.
    pub fn load_aux(&self, iteration: u64) -> Result<Vec<u8>> {
        self.store.load(&self.job, iteration, &Self::aux_task())
    }

    /// Latest iteration a mid-run recovery can rewind to: every partition's
    /// state (and, if `with_stores`, store payload) plus the aux artifact
    /// that seals the iteration.
    pub fn latest_resumable(&self, with_stores: bool) -> Option<u64> {
        let mut tasks: Vec<String> = (0..self.n_partitions).map(Self::state_task).collect();
        if with_stores {
            tasks.extend((0..self.n_partitions).map(Self::mrbg_task));
        }
        tasks.push(Self::aux_task());
        self.store.latest_complete_iteration(&self.job, &tasks)
    }

    /// Load one shard's raw store payload checkpointed at `iteration`
    /// (the [`i2mr_store::store::MrbgStore::export`] encoding), for
    /// rebuilding a live shard in place via
    /// [`StoreManager::rebuild_shard`].
    pub fn load_store_payload(&self, iteration: u64, p: usize) -> Result<Vec<u8>> {
        self.store.load(&self.job, iteration, &Self::mrbg_task(p))
    }

    /// Load the state partitions checkpointed at `iteration`.
    pub fn load_state<DK: Codec, DV: Codec>(&self, iteration: u64) -> Result<Vec<Vec<(DK, DV)>>> {
        let mut out = Vec::with_capacity(self.n_partitions);
        for p in 0..self.n_partitions {
            let bytes = self
                .store
                .load(&self.job, iteration, &Self::state_task(p))?;
            out.push(decode_exact(&bytes)?);
        }
        Ok(out)
    }

    /// Restore the MRBG stores checkpointed at `iteration` into fresh
    /// directories under `dir`, wrapped in a ready-to-run [`StoreManager`].
    ///
    /// The per-shard imports fan out as concurrent [`TaskKind::StoreMerge`]
    /// tasks on the executor (recovery mirrors `StoreManager::open`'s
    /// concurrent index preload). Any pool size produces byte-identical
    /// shards — see the `many_worker_restore_equals_one_worker_restore`
    /// test.
    pub fn load_stores(
        &self,
        pool: &WorkerPool,
        iteration: u64,
        dir: impl AsRef<Path>,
        config: StoreRuntimeConfig,
    ) -> Result<StoreManager> {
        let dir = dir.as_ref();
        let tasks: Vec<TaskSpec<'_, MrbgStore>> = (0..self.n_partitions)
            .map(|p| {
                TaskSpec::pinned(
                    TaskId {
                        kind: TaskKind::StoreMerge,
                        index: p,
                        iteration,
                    },
                    p % pool.n_workers(),
                    move |_| {
                        let payload = self.store.load(&self.job, iteration, &Self::mrbg_task(p))?;
                        // Import truncates its target, so a retried
                        // attempt reproduces the same shard.
                        MrbgStore::import(dir.join(format!("restored-{p}")), &payload, config.store)
                    },
                )
            })
            .collect();
        StoreManager::from_stores(pool, pool.run_tasks(tasks)?, config)
    }

    /// Drop checkpoints older than `keep_from` (space reclamation).
    pub fn prune(&self, keep_from: u64) -> Result<usize> {
        self.store.prune(&self.job, keep_from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2mr_common::hash::MapKey;
    use i2mr_store::format::{Chunk, ChunkEntry};

    fn setup(tag: &str) -> (MiniDfs, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "i2mr-ckpt-iter-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let dfs = MiniDfs::open_with(dir.join("dfs"), 1 << 20, 2).unwrap();
        (dfs, dir)
    }

    #[test]
    fn state_roundtrip_across_iterations() {
        let (dfs, _dir) = setup("state");
        let ck = IterCheckpointer::new(&dfs, "pagerank", 2);
        let state_v1: Vec<Vec<(u64, f64)>> = vec![vec![(0, 1.0)], vec![(1, 2.0)]];
        let state_v2: Vec<Vec<(u64, f64)>> = vec![vec![(0, 1.5)], vec![(1, 2.5)]];
        ck.save_iteration(1, &state_v1, None).unwrap();
        ck.save_iteration(2, &state_v2, None).unwrap();
        assert_eq!(ck.latest_complete(false), Some(2));
        assert_eq!(ck.load_state::<u64, f64>(1).unwrap(), state_v1);
        assert_eq!(ck.load_state::<u64, f64>(2).unwrap(), state_v2);
    }

    #[test]
    fn incomplete_iteration_is_not_latest() {
        let (dfs, _dir) = setup("incomplete");
        let ck = IterCheckpointer::new(&dfs, "j", 3);
        let full: Vec<Vec<(u64, f64)>> = vec![vec![(0, 1.0)], vec![], vec![(2, 3.0)]];
        ck.save_iteration(1, &full, None).unwrap();
        // Simulate a crash mid-checkpoint: only 2 of 3 partitions at iter 2.
        let partial = &full[..2];
        for (p, part) in partial.iter().enumerate() {
            dfs.checkpoints()
                .save("j", 2, &format!("state-{p}"), &encode_to(part))
                .unwrap();
        }
        assert_eq!(ck.latest_complete(false), Some(1));
    }

    #[test]
    fn stores_roundtrip() {
        let (dfs, dir) = setup("stores");
        let pool = WorkerPool::new(2);
        let ck = IterCheckpointer::new(&dfs, "j", 1);
        let mut store = MrbgStore::create(dir.join("orig"), Default::default()).unwrap();
        store
            .append_batch(vec![Chunk::new(
                b"k".to_vec(),
                vec![ChunkEntry {
                    mk: MapKey(7),
                    value: b"v".to_vec(),
                }],
            )])
            .unwrap();
        let stores = StoreManager::from_stores(&pool, vec![store], Default::default()).unwrap();
        let state: Vec<Vec<(u64, f64)>> = vec![vec![(0, 0.5)]];
        ck.save_iteration(3, &state, Some(&stores)).unwrap();
        assert_eq!(ck.latest_complete(true), Some(3));

        let restored = ck
            .load_stores(&pool, 3, dir.join("rest"), Default::default())
            .unwrap();
        let chunk = restored.get(0, b"k").unwrap().unwrap();
        assert_eq!(chunk.entries[0].value, b"v");
    }

    #[test]
    fn many_worker_restore_equals_one_worker_restore() {
        // Restore-equivalence: fanning shard imports out on three workers
        // must reproduce exactly the stores a one-worker restore produces.
        let (dfs, dir) = setup("par-restore");
        let pool = WorkerPool::new(3);
        let n = 5;
        let ck = IterCheckpointer::new(&dfs, "j", n);
        let stores = {
            let per_shard = (0..n)
                .map(|p| {
                    let mut s =
                        MrbgStore::create(dir.join(format!("orig-{p}")), Default::default())
                            .unwrap();
                    s.append_batch(
                        (0..20u64)
                            .map(|i| {
                                Chunk::new(
                                    format!("k{p}-{i:04}").into_bytes(),
                                    vec![ChunkEntry {
                                        mk: MapKey(i as u128),
                                        value: format!("v{i}").into_bytes(),
                                    }],
                                )
                            })
                            .collect(),
                    )
                    .unwrap();
                    s
                })
                .collect();
            StoreManager::from_stores(&pool, per_shard, Default::default()).unwrap()
        };
        let state: Vec<Vec<(u64, f64)>> = (0..n).map(|p| vec![(p as u64, 1.0)]).collect();
        ck.save_iteration(1, &state, Some(&stores)).unwrap();

        let par = ck
            .load_stores(&pool, 1, dir.join("rest-par"), Default::default())
            .unwrap();
        let ser = ck
            .load_stores(
                &WorkerPool::new(1),
                1,
                dir.join("rest-ser"),
                Default::default(),
            )
            .unwrap();
        assert_eq!(par.len(), ser.len());
        for p in 0..n {
            assert_eq!(
                par.export(p).unwrap(),
                ser.export(p).unwrap(),
                "shard {p}: three- and one-worker restores diverged"
            );
            assert_eq!(stores.export(p).unwrap(), par.export(p).unwrap());
        }
    }

    #[test]
    fn aux_artifact_seals_resumability() {
        let (dfs, _dir) = setup("aux");
        let ck = IterCheckpointer::new(&dfs, "j", 2);
        let state: Vec<Vec<(u64, f64)>> = vec![vec![(0, 1.0)], vec![(1, 2.0)]];
        ck.save_iteration(1, &state, None).unwrap();
        // State alone is complete but not resumable: the aux artifact is
        // written last and marks the iteration as sealed.
        assert_eq!(ck.latest_complete(false), Some(1));
        assert_eq!(ck.latest_resumable(false), None);
        ck.save_aux(1, b"workset-bytes").unwrap();
        assert_eq!(ck.latest_resumable(false), Some(1));
        assert_eq!(ck.load_aux(1).unwrap(), b"workset-bytes");
    }

    #[test]
    fn store_payloads_loadable_per_shard() {
        let (dfs, dir) = setup("payload");
        let pool = WorkerPool::new(2);
        let ck = IterCheckpointer::new(&dfs, "j", 1);
        let mut store = MrbgStore::create(dir.join("orig"), Default::default()).unwrap();
        store
            .append_batch(vec![Chunk::new(
                b"k".to_vec(),
                vec![ChunkEntry {
                    mk: MapKey(9),
                    value: b"v".to_vec(),
                }],
            )])
            .unwrap();
        let stores = StoreManager::from_stores(&pool, vec![store], Default::default()).unwrap();
        let state: Vec<Vec<(u64, f64)>> = vec![vec![(0, 0.5)]];
        ck.save_iteration(2, &state, Some(&stores)).unwrap();
        // The raw payload round-trips through rebuild_shard: corrupt the
        // live shard, rebuild from the checkpoint, reads come back.
        let payload = ck.load_store_payload(2, 0).unwrap();
        assert_eq!(payload, stores.export(0).unwrap());
        let data = dir.join("orig").join("mrbg.data");
        let flipped: Vec<u8> = std::fs::read(&data)
            .unwrap()
            .iter()
            .map(|b| b ^ 0xFF)
            .collect();
        std::fs::write(&data, flipped).unwrap();
        assert!(stores.get(0, b"k").is_err());
        stores.rebuild_shard(0, &payload).unwrap();
        assert_eq!(stores.get(0, b"k").unwrap().unwrap().entries[0].value, b"v");
    }

    #[test]
    fn with_stores_flag_requires_store_artifacts() {
        let (dfs, _dir) = setup("flag");
        let ck = IterCheckpointer::new(&dfs, "j", 1);
        let state: Vec<Vec<(u64, f64)>> = vec![vec![(0, 0.5)]];
        ck.save_iteration(1, &state, None).unwrap();
        assert_eq!(ck.latest_complete(false), Some(1));
        assert_eq!(ck.latest_complete(true), None);
    }

    #[test]
    fn cadence_skips_off_cadence_iterations() {
        let (dfs, _dir) = setup("cadence");
        let ck = IterCheckpointer::new(&dfs, "j", 1).with_cadence(3);
        let state: Vec<Vec<(u64, f64)>> = vec![vec![(0, 0.5)]];
        for i in 0..=7 {
            ck.save_iteration(i, &state, None).unwrap();
            ck.save_aux(i, b"aux").unwrap();
        }
        // Only the multiples of the cadence (and the iteration-0
        // baseline) hit disk; recovery rewinds to the last sealed one.
        assert_eq!(ck.latest_resumable(false), Some(6));
        assert!(ck.load_state::<u64, f64>(5).is_err());
        assert!(ck.load_state::<u64, f64>(3).is_ok());
        assert!(
            ck.load_state::<u64, f64>(0).is_ok(),
            "baseline always saved"
        );
    }

    #[test]
    fn prune_drops_old_iterations() {
        let (dfs, _dir) = setup("prune");
        let ck = IterCheckpointer::new(&dfs, "j", 1);
        let state: Vec<Vec<(u64, f64)>> = vec![vec![(0, 0.5)]];
        for i in 1..=4 {
            ck.save_iteration(i, &state, None).unwrap();
        }
        ck.prune(3).unwrap();
        assert!(ck.load_state::<u64, f64>(2).is_err());
        assert!(ck.load_state::<u64, f64>(3).is_ok());
        assert_eq!(ck.latest_complete(false), Some(4));
    }
}
