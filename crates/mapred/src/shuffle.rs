//! Shuffle machinery: partitioning, byte metering, sorting, grouping.
//!
//! The vanilla engine and all i2MapReduce engines share these helpers so
//! that every engine's "shuffled bytes" and "sort" numbers are computed the
//! same way — a prerequisite for the Fig. 8/9 comparisons to be fair.
//!
//! Intermediate records always travel as `(K2, MK, V2)` triples:
//! i2MapReduce transfers the globally unique map key MK along with the
//! kv-pair during shuffle (paper §3.3). For plain jobs the MK is simply
//! unused baggage of 16 bytes, which we *do not* count toward the
//! plain engine's shuffle bytes (vanilla Hadoop would not send it).
//!
//! # Zero-copy data plane
//!
//! The shuffle→sort→group→reduce path performs **no serialization and no
//! per-record allocation** (see `DESIGN.md`):
//!
//! * byte metering uses [`Codec::encoded_len`] instead of encoding into a
//!   scratch buffer;
//! * per-run sorts are `sort_unstable_by` tasks scheduled on the
//!   [`WorkerPool`] like any map/reduce task;
//! * reducers see groups through the borrowed
//!   [`Values`](crate::types::Values) view instead of a cloned `Vec<V2>`;
//! * engines recycle run/partition buffers across iterations through a
//!   [`RunPool`].

use crate::fault::{TaskId, TaskKind};
use crate::partition::Partitioner;
use crate::pool::{TaskSpec, WorkerPool};
use crate::types::{KeyData, ValueData};
use i2mr_common::codec::Codec;
use i2mr_common::error::Result;
use i2mr_common::hash::MapKey;
use parking_lot::Mutex;

/// One intermediate record in flight between map and reduce.
pub type ShuffleRecord<K2, V2> = (K2, MapKey, V2);

/// Recycler for the data plane's `Vec<ShuffleRecord>` allocations.
///
/// Iterative engines own one pool per run: each iteration's shuffle runs
/// and map-side partition buffers are [`RunPool::take`]n from it and
/// [`RunPool::recycle`]d (cleared, capacity kept) once the reduce phase is
/// done, so steady-state iterations allocate nothing on this path.
pub struct RunPool<K2, V2> {
    free: Mutex<Vec<Vec<ShuffleRecord<K2, V2>>>>,
}

impl<K2, V2> RunPool<K2, V2> {
    /// An empty pool.
    pub fn new() -> Self {
        RunPool {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Take a cleared buffer, reusing a recycled one when available.
    pub fn take(&self) -> Vec<ShuffleRecord<K2, V2>> {
        self.free.lock().pop().unwrap_or_default()
    }

    /// Return a buffer to the pool; its contents are dropped, its
    /// capacity survives for the next [`RunPool::take`].
    pub fn recycle(&self, mut buf: Vec<ShuffleRecord<K2, V2>>) {
        buf.clear();
        self.free.lock().push(buf);
    }

    /// Recycle a whole batch of buffers (an iteration's runs).
    pub fn recycle_all(&self, bufs: impl IntoIterator<Item = Vec<ShuffleRecord<K2, V2>>>) {
        let mut free = self.free.lock();
        for mut buf in bufs {
            buf.clear();
            free.push(buf);
        }
    }

    /// Drop every idle buffer and its capacity (an engine that stops using
    /// the pool gives the memory back).
    pub fn release(&self) {
        self.free.lock().clear();
    }

    /// Number of idle buffers currently pooled.
    pub fn idle(&self) -> usize {
        self.free.lock().len()
    }
}

impl<K2, V2> Default for RunPool<K2, V2> {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-reduce-partition buffers of intermediate records.
pub struct ShuffleBuffers<K2, V2> {
    parts: Vec<Vec<ShuffleRecord<K2, V2>>>,
}

impl<K2: KeyData, V2: ValueData> ShuffleBuffers<K2, V2> {
    /// Buffers for `n_reduce` partitions.
    pub fn new(n_reduce: usize) -> Self {
        ShuffleBuffers {
            parts: (0..n_reduce).map(|_| Vec::new()).collect(),
        }
    }

    /// Buffers for `n_reduce` partitions, drawing capacity from `pool`.
    pub fn with_pool(n_reduce: usize, pool: &RunPool<K2, V2>) -> Self {
        ShuffleBuffers {
            parts: (0..n_reduce).map(|_| pool.take()).collect(),
        }
    }

    /// Route one record to its partition.
    #[inline]
    pub fn push(
        &mut self,
        key: K2,
        mk: MapKey,
        value: V2,
        partitioner: &(impl Partitioner<K2> + ?Sized),
    ) {
        let p = partitioner.partition(&key, self.parts.len());
        self.parts[p].push((key, mk, value));
    }

    /// Route one record to partition `p`, already decided by the caller.
    #[inline]
    pub fn push_at(&mut self, p: usize, key: K2, mk: MapKey, value: V2) {
        self.parts[p].push((key, mk, value));
    }

    /// Number of partitions.
    pub fn n_parts(&self) -> usize {
        self.parts.len()
    }

    /// Total records across all partitions.
    pub fn total_records(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    /// Consume into the per-partition vectors.
    pub fn into_parts(self) -> Vec<Vec<ShuffleRecord<K2, V2>>> {
        self.parts
    }
}

/// Byte size of `(k, v)` in the canonical wire encoding, excluding MK.
///
/// Computed from [`Codec::encoded_len`]: no serialization, no scratch
/// buffer. The codec property suite guarantees this equals what encoding
/// would have produced.
#[inline]
pub fn metered_size<K: Codec, V: Codec>(k: &K, v: &V) -> u64 {
    (k.encoded_len() + v.encoded_len()) as u64
}

/// Wire cost charged per record for transferring MK during shuffle.
///
/// In-memory MKs are 16 bytes, but the paper's records are ~100+ bytes
/// (long string ids) while ours are ~10, so charging the raw 16 bytes
/// would make MK overhead 10× the paper's MK:record ratio. The scaled
/// 2-byte charge preserves that ratio (documented in DESIGN.md §1).
pub const MK_WIRE_BYTES: u64 = 2;

/// Transpose per-map-task buffers into per-reduce-partition runs and meter
/// shuffled records/bytes. Returns `(runs, records, bytes)`.
///
/// `count_mk_bytes` adds [`MK_WIRE_BYTES`] per record for engines that
/// transfer MK over the wire (i2MapReduce does; vanilla Hadoop does not).
pub fn transpose<K2: KeyData, V2: ValueData>(
    map_outputs: Vec<ShuffleBuffers<K2, V2>>,
    n_reduce: usize,
    count_mk_bytes: bool,
) -> (Vec<Vec<ShuffleRecord<K2, V2>>>, u64, u64) {
    transpose_impl(map_outputs, n_reduce, count_mk_bytes, None)
}

/// [`transpose`] drawing run buffers from — and recycling the drained
/// map-side partition buffers into — `pool`.
pub fn transpose_pooled<K2: KeyData, V2: ValueData>(
    map_outputs: Vec<ShuffleBuffers<K2, V2>>,
    n_reduce: usize,
    count_mk_bytes: bool,
    pool: &RunPool<K2, V2>,
) -> (Vec<Vec<ShuffleRecord<K2, V2>>>, u64, u64) {
    transpose_impl(map_outputs, n_reduce, count_mk_bytes, Some(pool))
}

fn transpose_impl<K2: KeyData, V2: ValueData>(
    map_outputs: Vec<ShuffleBuffers<K2, V2>>,
    n_reduce: usize,
    count_mk_bytes: bool,
    pool: Option<&RunPool<K2, V2>>,
) -> (Vec<Vec<ShuffleRecord<K2, V2>>>, u64, u64) {
    let mut runs: Vec<Vec<ShuffleRecord<K2, V2>>> = (0..n_reduce)
        .map(|_| pool.map_or_else(Vec::new, RunPool::take))
        .collect();
    let mut records = 0u64;
    let mut bytes = 0u64;
    for buffers in map_outputs {
        for (p, mut part) in buffers.into_parts().into_iter().enumerate() {
            records += part.len() as u64;
            for (k, _mk, v) in &part {
                bytes += metered_size(k, v);
                if count_mk_bytes {
                    bytes += MK_WIRE_BYTES;
                }
            }
            runs[p].append(&mut part);
            if let Some(pool) = pool {
                pool.recycle(part);
            }
        }
    }
    (runs, records, bytes)
}

/// Sort one partition's run by `(K2, MK)` — the order the MRBGraph file
/// inherits from the shuffle (paper §3.4).
///
/// The sort is **unstable**. On the i2MapReduce engines `(K2, MK)` is the
/// MRBGraph's edge identity (paper §3.2: a map instance emits one value
/// per K2), so those runs carry no duplicate sort keys and stability buys
/// nothing; `MrbgStore::append_batch` debug-asserts the batch order that
/// results. The vanilla path *may* carry duplicate `(K2, MK)` pairs (one
/// input record emitting a key twice, e.g. word count) — their relative
/// order is **unspecified**, exactly as Hadoop leaves reduce values order
/// unspecified, and the [`Reducer`](crate::types::Reducer) contract
/// requires insensitivity to it. The value *multiset* per group is always
/// preserved.
pub fn sort_run<K2: Ord, V2>(run: &mut [ShuffleRecord<K2, V2>]) {
    run.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
}

/// Sort every run in parallel, one [`TaskKind::Sort`] task per non-empty
/// run on the worker pool, so sort work is scheduled, retried, and
/// traced like any other task. Empty runs never get a task: a
/// workset-driven pass routinely leaves most partitions' runs empty, and
/// sorting one would still pay scheduling and tracing. Task ids
/// keep the run's partition index.
pub fn sort_runs<K2, V2>(
    pool: &WorkerPool,
    runs: &mut [Vec<ShuffleRecord<K2, V2>>],
    iteration: u64,
) -> Result<()>
where
    K2: Ord + Send,
    V2: Send,
{
    let scheduled: Vec<(usize, Mutex<&mut Vec<ShuffleRecord<K2, V2>>>)> = runs
        .iter_mut()
        .enumerate()
        .filter(|(_, run)| !run.is_empty())
        .map(|(i, run)| (i, Mutex::new(run)))
        .collect();
    if scheduled.is_empty() {
        return Ok(());
    }
    let tasks: Vec<TaskSpec<'_, ()>> = scheduled
        .iter()
        .map(|(i, cell)| {
            TaskSpec::new(
                TaskId {
                    kind: TaskKind::Sort,
                    index: *i,
                    iteration,
                },
                move |_| {
                    // Idempotent under retry: re-sorting sorted data is a no-op.
                    sort_run(cell.lock().as_mut_slice());
                    Ok(())
                },
            )
        })
        .collect();
    pool.run_tasks(tasks).map(|_| ())
}

/// Iterate groups of equal K2 over a run sorted by [`sort_run`].
///
/// Each group is a contiguous `(K2, MK)`-sorted slice; within a group the
/// records ascend by MK, which is exactly the entry order
/// `MrbgStore::append_batch` preserves per chunk (paper §3.4 stores each
/// Reduce instance's input as one chunk; byte-lexicographic *chunk* order
/// within a batch is the store's own canonicalization and is re-asserted
/// there, not here).
pub fn groups<K2: Eq, V2>(
    sorted: &[ShuffleRecord<K2, V2>],
) -> impl Iterator<Item = &[ShuffleRecord<K2, V2>]> {
    sorted.chunk_by(|a, b| a.0 == b.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::HashPartitioner;
    use crate::types::Values;
    use i2mr_common::codec::encode_to;
    use i2mr_common::telemetry::{EventKind, TelemetryMode, TraceRecorder};
    use std::sync::Arc;

    fn mk(n: u128) -> MapKey {
        MapKey(n)
    }

    /// `(index, iteration)` of every traced sort-task start.
    fn sort_starts(rec: &TraceRecorder) -> Vec<(u64, u64)> {
        rec.take()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::TaskStart { task, .. } if task.kind == TaskKind::Sort.name() => {
                    Some((task.index, task.iteration))
                }
                _ => None,
            })
            .collect()
    }

    /// A pool of `n` workers with a `Full` recorder installed.
    fn traced_pool(n: usize) -> (WorkerPool, Arc<TraceRecorder>) {
        let wp = WorkerPool::new(n);
        let rec = Arc::new(TraceRecorder::new(TelemetryMode::Full, n, 1 << 10));
        wp.set_recorder(Some(Arc::clone(&rec)));
        (wp, rec)
    }

    #[test]
    fn buffers_route_by_partitioner() {
        let mut b: ShuffleBuffers<u64, u64> = ShuffleBuffers::new(4);
        let p = HashPartitioner;
        for k in 0u64..100 {
            b.push(k, mk(0), k, &p);
        }
        assert_eq!(b.total_records(), 100);
        let parts = b.into_parts();
        assert_eq!(parts.len(), 4);
        for (i, part) in parts.iter().enumerate() {
            for (k, _, _) in part {
                assert_eq!(Partitioner::partition(&p, k, 4), i);
            }
        }
    }

    #[test]
    fn transpose_merges_and_meters() {
        let p = HashPartitioner;
        let mut m0: ShuffleBuffers<u64, u64> = ShuffleBuffers::new(2);
        let mut m1: ShuffleBuffers<u64, u64> = ShuffleBuffers::new(2);
        m0.push(1, mk(1), 10, &p);
        m1.push(1, mk(2), 20, &p);
        m1.push(2, mk(3), 30, &p);
        let (runs, records, bytes) = transpose(vec![m0, m1], 2, false);
        assert_eq!(records, 3);
        // Each record is 2 varint bytes here (small k + small v).
        assert_eq!(bytes, 6);
        assert_eq!(runs.iter().map(Vec::len).sum::<usize>(), 3);

        // All records for key 1 are in the same run.
        let run_for_1 = Partitioner::partition(&p, &1u64, 2);
        assert_eq!(runs[run_for_1].iter().filter(|r| r.0 == 1).count(), 2);
    }

    #[test]
    fn transpose_mk_bytes_toggle() {
        let p = HashPartitioner;
        let mut m: ShuffleBuffers<u64, u64> = ShuffleBuffers::new(1);
        m.push(1, mk(1), 1, &p);
        let (_, _, without) = transpose::<u64, u64>(vec![], 1, false);
        assert_eq!(without, 0);
        let (_, _, with) = transpose(vec![m], 1, true);
        assert_eq!(with, 2 + MK_WIRE_BYTES);
    }

    #[test]
    fn sort_orders_by_key_then_mk() {
        let mut run = vec![(2u64, mk(0), "c"), (1, mk(5), "b"), (1, mk(1), "a")];
        sort_run(&mut run);
        assert_eq!(
            run.iter().map(|r| (r.0, r.1 .0, r.2)).collect::<Vec<_>>(),
            vec![(1, 1, "a"), (1, 5, "b"), (2, 0, "c")]
        );
    }

    #[test]
    fn groups_split_on_key_boundaries() {
        let run = vec![
            (1u64, mk(0), 10u32),
            (1, mk(1), 11),
            (3, mk(0), 30),
            (7, mk(0), 70),
            (7, mk(9), 71),
        ];
        let gs: Vec<_> = groups(&run).collect();
        assert_eq!(gs.len(), 3);
        assert_eq!(gs[0].len(), 2);
        assert_eq!(gs[1].len(), 1);
        assert_eq!(gs[2].len(), 2);

        let vals = Values::group(gs[2]);
        assert_eq!(gs[2][0].0, 7);
        assert_eq!(vals.iter().copied().collect::<Vec<_>>(), vec![70, 71]);
    }

    #[test]
    fn metered_size_matches_encoding_without_serializing() {
        let k = "ab".to_string();
        let v = 1u64;
        // "ab" encodes to 1 len byte + 2 payload; 1u64 to 1 varint byte.
        assert_eq!(metered_size(&k, &v), 4);
        let mut wire = encode_to(&k);
        wire.extend(encode_to(&v));
        assert_eq!(metered_size(&k, &v), wire.len() as u64);
    }

    #[test]
    fn run_pool_recycles_capacity() {
        let pool: RunPool<u64, u64> = RunPool::new();
        let mut a = pool.take();
        a.reserve(1000);
        let cap = a.capacity();
        a.push((1, mk(1), 1));
        pool.recycle(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.take();
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert_eq!(b.capacity(), cap, "recycled buffers keep their capacity");
        assert_eq!(pool.idle(), 0);
        pool.recycle(b);
        pool.release();
        assert_eq!(pool.idle(), 0, "release drops the idle buffers");
        assert_eq!(pool.take().capacity(), 0);
    }

    #[test]
    fn transpose_pooled_recycles_map_buffers_and_reuses_runs() {
        let pool: RunPool<u64, u64> = RunPool::new();
        let p = HashPartitioner;
        // First "iteration".
        let mut m: ShuffleBuffers<u64, u64> = ShuffleBuffers::with_pool(2, &pool);
        for k in 0..10u64 {
            m.push(k, mk(k as u128), k, &p);
        }
        let (runs, records, _) = transpose_pooled(vec![m], 2, false, &pool);
        assert_eq!(records, 10);
        // The map task's 2 partition buffers were drained and recycled.
        assert_eq!(pool.idle(), 2);
        pool.recycle_all(runs);
        assert_eq!(pool.idle(), 4);

        // Second "iteration" draws everything from the pool.
        let m: ShuffleBuffers<u64, u64> = ShuffleBuffers::with_pool(2, &pool);
        assert_eq!(pool.idle(), 2);
        let (runs, _, _) = transpose_pooled(vec![m], 2, false, &pool);
        assert_eq!(runs.len(), 2);
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn sort_runs_sorts_every_run_on_the_pool() {
        let (wp, rec) = traced_pool(3);
        let mut runs: Vec<Vec<ShuffleRecord<u64, u64>>> = (0..5)
            .map(|r| {
                (0..50u64)
                    .rev()
                    .map(|i| ((i * 7 + r) % 23, mk(i as u128), i))
                    .collect()
            })
            .collect();
        sort_runs(&wp, &mut runs, 4).unwrap();
        for run in &runs {
            assert!(run
                .windows(2)
                .all(|w| (&w[0].0, w[0].1) <= (&w[1].0, w[1].1)));
        }
        // Sort tasks are first-class: they appear in the executor's trace.
        assert!(sort_starts(&rec)
            .iter()
            .any(|&(_, iteration)| iteration == 4));
    }

    #[test]
    fn sort_runs_schedules_only_non_empty_runs() {
        let (wp, rec) = traced_pool(2);
        let non_empty = [1usize, 2, 5];
        let mut runs: Vec<Vec<ShuffleRecord<u64, u64>>> = (0..7)
            .map(|r| {
                if non_empty.contains(&r) {
                    (0..20u64)
                        .rev()
                        .map(|i| (i % 7, mk(i as u128), i))
                        .collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        sort_runs(&wp, &mut runs, 1).unwrap();
        for run in &runs {
            assert!(run
                .windows(2)
                .all(|w| (&w[0].0, w[0].1) <= (&w[1].0, w[1].1)));
        }
        let mut sorted: Vec<u64> = sort_starts(&rec).iter().map(|&(index, _)| index).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, non_empty.map(|r| r as u64));
    }
}
