//! Per-stage timing, I/O counters, and job metrics.
//!
//! The paper's evaluation reports three kinds of numbers this module must be
//! able to produce:
//!
//! * **Fig. 9**: wall time of the individual MapReduce stages (map, shuffle,
//!   sort, reduce) summed across all iterations → [`StageTimes`].
//! * **Table 4**: number of I/O reads and bytes read by the MRBG-Store's
//!   query algorithm → [`IoStats`].
//! * **Fig. 8/10/11/12**: end-to-end runtimes per engine → [`JobMetrics`],
//!   optionally passed through the cluster cost model (see [`crate::costmodel`]).
//!
//! All counters are plain data; thread-safe accumulation is done by the
//! engines with `parking_lot` locks around these structs.

use std::ops::AddAssign;
use std::time::Duration;

/// One of the four MapReduce stages the paper's Fig. 9 breaks time into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Running user Map functions over input / delta records.
    Map,
    /// Moving intermediate kv-pairs from map tasks to reduce partitions.
    Shuffle,
    /// Sorting intermediate kv-pairs within each reduce partition.
    Sort,
    /// Running user Reduce functions (including MRBG-Store access in i2MR).
    Reduce,
}

impl Stage {
    /// All stages in the paper's Fig. 9 presentation order.
    pub const ALL: [Stage; 4] = [Stage::Map, Stage::Shuffle, Stage::Sort, Stage::Reduce];

    /// Lowercase display name used by the bench harness.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Map => "map",
            Stage::Shuffle => "shuffle",
            Stage::Sort => "sort",
            Stage::Reduce => "reduce",
        }
    }
}

/// Accumulated wall time per stage.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTimes {
    /// Wall time in user Map functions.
    pub map: Duration,
    /// Wall time moving intermediate kv-pairs to reduce partitions.
    pub shuffle: Duration,
    /// Wall time sorting intermediate kv-pairs within partitions.
    pub sort: Duration,
    /// Wall time in user Reduce functions (incl. MRBG-Store access).
    pub reduce: Duration,
}

impl StageTimes {
    /// Add `d` to the accumulator for `stage`.
    pub fn add(&mut self, stage: Stage, d: Duration) {
        match stage {
            Stage::Map => self.map += d,
            Stage::Shuffle => self.shuffle += d,
            Stage::Sort => self.sort += d,
            Stage::Reduce => self.reduce += d,
        }
    }

    /// Read the accumulator for `stage`.
    pub fn get(&self, stage: Stage) -> Duration {
        match stage {
            Stage::Map => self.map,
            Stage::Shuffle => self.shuffle,
            Stage::Sort => self.sort,
            Stage::Reduce => self.reduce,
        }
    }

    /// Total across all four stages.
    pub fn total(&self) -> Duration {
        self.map + self.shuffle + self.sort + self.reduce
    }
}

impl AddAssign for StageTimes {
    fn add_assign(&mut self, rhs: Self) {
        self.map += rhs.map;
        self.shuffle += rhs.shuffle;
        self.sort += rhs.sort;
        self.reduce += rhs.reduce;
    }
}

/// I/O counters in the shape of the paper's Table 4 columns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Number of distinct read syscall-equivalents issued (likely disk seeks).
    pub reads: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Number of write calls issued.
    pub writes: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Reads served from a reused scratch buffer instead of a fresh
    /// heap allocation (the MRBG-Store's window/point reads recycle one
    /// persistent buffer; this counts the allocations avoided).
    pub scratch_reuses: u64,
    /// `sync_all` calls issued: a store commit syncs the data file, then
    /// the index file; a compaction syncs its reconstructed file, then the
    /// index. Not a data-volume counter — it is what a group commit saves.
    pub syncs: u64,
}

impl IoStats {
    /// Record one read of `bytes` bytes.
    pub fn record_read(&mut self, bytes: u64) {
        self.reads += 1;
        self.bytes_read += bytes;
    }

    /// Record one write of `bytes` bytes.
    pub fn record_write(&mut self, bytes: u64) {
        self.writes += 1;
        self.bytes_written += bytes;
    }

    /// Record one read that reused existing scratch capacity.
    pub fn record_scratch_reuse(&mut self) {
        self.scratch_reuses += 1;
    }

    /// Record one `sync_all`.
    pub fn record_sync(&mut self) {
        self.syncs += 1;
    }
}

impl AddAssign for IoStats {
    fn add_assign(&mut self, rhs: Self) {
        self.reads += rhs.reads;
        self.bytes_read += rhs.bytes_read;
        self.writes += rhs.writes;
        self.bytes_written += rhs.bytes_written;
        self.scratch_reuses += rhs.scratch_reuses;
        self.syncs += rhs.syncs;
    }
}

/// End-to-end metrics for one job (or one iteration of an iterative job).
#[derive(Clone, Debug, Default)]
pub struct JobMetrics {
    /// Number of MapReduce jobs launched (plainMR PageRank: 1/iteration;
    /// HaLoop PageRank: 2/iteration; iterMR/i2MR: jobs are reused → counted
    /// once per computation).
    pub jobs_started: u64,
    /// Wall time per stage (measured, single machine).
    pub stages: StageTimes,
    /// Intermediate kv-pairs moved between map and reduce tasks.
    pub shuffled_records: u64,
    /// Bytes of intermediate data moved between map and reduce tasks.
    pub shuffled_bytes: u64,
    /// Map function call instances actually executed.
    pub map_invocations: u64,
    /// Reduce function call instances actually executed.
    pub reduce_invocations: u64,
    /// MRBG-Store I/O (zero for engines that do not maintain the store).
    pub store_io: IoStats,
    /// Background store compactions scheduled by the compaction policy.
    pub store_compactions: u64,
    /// Obsolete MRBGraph bytes those compactions reclaimed.
    pub store_bytes_reclaimed: u64,
    /// Checkpoint / DFS I/O.
    pub dfs_io: IoStats,
    /// Keys carried in the delta-iteration workset (summed across
    /// iterations; zero for full-pass engines).
    pub workset_keys: u64,
    /// Keys the change-propagation contract pruned from the next workset
    /// (reduce ran but the update was below the emission threshold).
    pub workset_skipped: u64,
    /// Delta-iteration depth: number of workset-driven iterations executed
    /// before the workset drained.
    pub delta_iterations: u64,
    /// Failed task attempts that were rescheduled onto another worker
    /// (paper §8.8: re-execution after a task failure).
    pub retries: u64,
    /// Bytes of torn store-file tail discarded by crash salvage on open.
    pub salvaged_bytes: u64,
    /// Store shards rebuilt in place from the latest complete checkpoint.
    pub rebuilt_shards: u64,
    /// Wall milliseconds spent in mid-run recovery (checkpoint restore +
    /// shard rebuild), excluded from the per-stage timings above.
    pub recovery_ms: u64,
    /// Serving-plane point lookups answered from the hot-key cache.
    pub serve_hits: u64,
    /// Serving-plane point lookups that went to the store's read path
    /// (cache miss or stale-version invalidation).
    pub serve_misses: u64,
    /// Records pulled through the ingestion cursor since the last drain.
    pub ingested_records: u64,
    /// MRBG-Store keys targeted for recomputation by ingestion
    /// invalidations (corrections/reorgs; see `core::ingest`).
    pub invalidated_keys: u64,
}

impl JobMetrics {
    /// Measured wall time across all stages.
    pub fn measured(&self) -> Duration {
        self.stages.total()
    }

    /// Merge another job's metrics into this one (used to sum iterations).
    ///
    /// The exhaustive (no `..`) destructuring is deliberate: adding a field
    /// to `JobMetrics` without updating this merge — historically a
    /// silently-dropped counter — is now a compile error. Keep
    /// [`JobMetrics::report_lines`] exhaustive for the same reason.
    pub fn merge(&mut self, other: &JobMetrics) {
        let JobMetrics {
            jobs_started,
            stages,
            shuffled_records,
            shuffled_bytes,
            map_invocations,
            reduce_invocations,
            store_io,
            store_compactions,
            store_bytes_reclaimed,
            dfs_io,
            workset_keys,
            workset_skipped,
            delta_iterations,
            retries,
            salvaged_bytes,
            rebuilt_shards,
            recovery_ms,
            serve_hits,
            serve_misses,
            ingested_records,
            invalidated_keys,
        } = other;
        self.jobs_started += jobs_started;
        self.stages += *stages;
        self.shuffled_records += shuffled_records;
        self.shuffled_bytes += shuffled_bytes;
        self.map_invocations += map_invocations;
        self.reduce_invocations += reduce_invocations;
        self.store_io += *store_io;
        self.store_compactions += store_compactions;
        self.store_bytes_reclaimed += store_bytes_reclaimed;
        self.dfs_io += *dfs_io;
        self.workset_keys += workset_keys;
        self.workset_skipped += workset_skipped;
        self.delta_iterations += delta_iterations;
        self.retries += retries;
        self.salvaged_bytes += salvaged_bytes;
        self.rebuilt_shards += rebuilt_shards;
        self.recovery_ms += recovery_ms;
        self.serve_hits += serve_hits;
        self.serve_misses += serve_misses;
        self.ingested_records += ingested_records;
        self.invalidated_keys += invalidated_keys;
    }

    /// Every counter as `name value` report lines, in declaration order.
    ///
    /// Exhaustively destructured like [`JobMetrics::merge`]: a new field
    /// missing from the report is a compile error, not an invisible number.
    pub fn report_lines(&self) -> Vec<String> {
        let JobMetrics {
            jobs_started,
            stages,
            shuffled_records,
            shuffled_bytes,
            map_invocations,
            reduce_invocations,
            store_io,
            store_compactions,
            store_bytes_reclaimed,
            dfs_io,
            workset_keys,
            workset_skipped,
            delta_iterations,
            retries,
            salvaged_bytes,
            rebuilt_shards,
            recovery_ms,
            serve_hits,
            serve_misses,
            ingested_records,
            invalidated_keys,
        } = self;
        let mut out = vec![format!("jobs_started {jobs_started}")];
        for stage in Stage::ALL {
            out.push(format!(
                "stage_{}_ms {}",
                stage.name(),
                stages.get(stage).as_millis()
            ));
        }
        let io = |prefix: &str, io: &IoStats, out: &mut Vec<String>| {
            out.push(format!("{prefix}_reads {}", io.reads));
            out.push(format!("{prefix}_bytes_read {}", io.bytes_read));
            out.push(format!("{prefix}_writes {}", io.writes));
            out.push(format!("{prefix}_bytes_written {}", io.bytes_written));
            out.push(format!("{prefix}_scratch_reuses {}", io.scratch_reuses));
            out.push(format!("{prefix}_syncs {}", io.syncs));
        };
        out.push(format!("shuffled_records {shuffled_records}"));
        out.push(format!("shuffled_bytes {shuffled_bytes}"));
        out.push(format!("map_invocations {map_invocations}"));
        out.push(format!("reduce_invocations {reduce_invocations}"));
        io("store_io", store_io, &mut out);
        out.push(format!("store_compactions {store_compactions}"));
        out.push(format!("store_bytes_reclaimed {store_bytes_reclaimed}"));
        io("dfs_io", dfs_io, &mut out);
        out.push(format!("workset_keys {workset_keys}"));
        out.push(format!("workset_skipped {workset_skipped}"));
        out.push(format!("delta_iterations {delta_iterations}"));
        out.push(format!("retries {retries}"));
        out.push(format!("salvaged_bytes {salvaged_bytes}"));
        out.push(format!("rebuilt_shards {rebuilt_shards}"));
        out.push(format!("recovery_ms {recovery_ms}"));
        out.push(format!("serve_hits {serve_hits}"));
        out.push(format!("serve_misses {serve_misses}"));
        out.push(format!("ingested_records {ingested_records}"));
        out.push(format!("invalidated_keys {invalidated_keys}"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_times_accumulate_and_total() {
        let mut st = StageTimes::default();
        st.add(Stage::Map, Duration::from_millis(10));
        st.add(Stage::Map, Duration::from_millis(5));
        st.add(Stage::Reduce, Duration::from_millis(20));
        assert_eq!(st.get(Stage::Map), Duration::from_millis(15));
        assert_eq!(st.get(Stage::Shuffle), Duration::ZERO);
        assert_eq!(st.total(), Duration::from_millis(35));
    }

    #[test]
    fn stage_times_add_assign() {
        let mut a = StageTimes::default();
        a.add(Stage::Sort, Duration::from_millis(1));
        let mut b = StageTimes::default();
        b.add(Stage::Sort, Duration::from_millis(2));
        b.add(Stage::Shuffle, Duration::from_millis(3));
        a += b;
        assert_eq!(a.get(Stage::Sort), Duration::from_millis(3));
        assert_eq!(a.get(Stage::Shuffle), Duration::from_millis(3));
    }

    #[test]
    fn io_stats_record_and_merge() {
        let mut io = IoStats::default();
        io.record_read(100);
        io.record_read(50);
        io.record_write(7);
        assert_eq!(io.reads, 2);
        assert_eq!(io.bytes_read, 150);
        assert_eq!(io.writes, 1);
        let mut other = IoStats::default();
        other.record_read(1);
        io += other;
        assert_eq!(io.reads, 3);
        assert_eq!(io.bytes_read, 151);
    }

    #[test]
    fn job_metrics_merge_sums_everything() {
        let mut a = JobMetrics {
            jobs_started: 1,
            shuffled_records: 10,
            shuffled_bytes: 100,
            map_invocations: 5,
            reduce_invocations: 3,
            ..Default::default()
        };
        a.stages.add(Stage::Map, Duration::from_millis(4));
        let mut b = JobMetrics {
            jobs_started: 2,
            shuffled_records: 1,
            shuffled_bytes: 2,
            map_invocations: 1,
            reduce_invocations: 1,
            store_compactions: 2,
            store_bytes_reclaimed: 512,
            workset_keys: 40,
            workset_skipped: 4,
            delta_iterations: 2,
            retries: 3,
            salvaged_bytes: 64,
            rebuilt_shards: 2,
            recovery_ms: 17,
            serve_hits: 6,
            serve_misses: 2,
            ingested_records: 30,
            invalidated_keys: 5,
            ..Default::default()
        };
        b.store_io.record_read(9);
        a.merge(&b);
        assert_eq!(a.jobs_started, 3);
        assert_eq!(a.shuffled_records, 11);
        assert_eq!(a.shuffled_bytes, 102);
        assert_eq!(a.map_invocations, 6);
        assert_eq!(a.reduce_invocations, 4);
        assert_eq!(a.store_io.reads, 1);
        assert_eq!(a.store_compactions, 2);
        assert_eq!(a.store_bytes_reclaimed, 512);
        assert_eq!(a.workset_keys, 40);
        assert_eq!(a.workset_skipped, 4);
        assert_eq!(a.delta_iterations, 2);
        assert_eq!(a.retries, 3);
        assert_eq!(a.salvaged_bytes, 64);
        assert_eq!(a.rebuilt_shards, 2);
        assert_eq!(a.recovery_ms, 17);
        assert_eq!(a.serve_hits, 6);
        assert_eq!(a.serve_misses, 2);
        assert_eq!(a.ingested_records, 30);
        assert_eq!(a.invalidated_keys, 5);
        assert_eq!(a.measured(), Duration::from_millis(4));
    }

    #[test]
    fn report_lines_cover_every_counter() {
        let mut m = JobMetrics {
            serve_hits: 7,
            invalidated_keys: 3,
            ..Default::default()
        };
        m.store_io.record_read(100);
        let lines = m.report_lines();
        assert!(lines.contains(&"serve_hits 7".to_string()));
        assert!(lines.contains(&"invalidated_keys 3".to_string()));
        assert!(lines.contains(&"store_io_bytes_read 100".to_string()));
        m.store_io.record_sync();
        assert!(m.report_lines().contains(&"store_io_syncs 1".to_string()));
        // 1 jobs + 4 stages + 2*6 io blocks + 17 scalar counters.
        assert_eq!(lines.len(), 34);
    }

    #[test]
    fn stage_names_match_paper() {
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["map", "shuffle", "sort", "reduce"]);
    }
}
