//! Compaction policy and statistics.
//!
//! "Obsolete chunks are NOT immediately updated in the file (or removed from
//! the file) for I/O efficiency. The MRBGraph file is reconstructed off-line
//! when the worker is idle." (paper §3.4). The reconstruction itself is
//! [`crate::store::MrbgStore::compact`]; this module holds its report type
//! plus the [`CompactionPolicy`] that decides *when* a partition's store is
//! reconstructed, which the store runtime ([`crate::runtime`]) applies
//! synchronously at each pass fence, once the pass's counters are drained
//! and its checkpoint is written.
//!
//! The policy is a space bound. Merge reads size their windows so they do
//! not read over gaps ([`crate::window::DEFAULT_GAP_THRESHOLD`]), so
//! obsolete versions between live frames cost disk space, not merge bytes;
//! a compaction buys back that space and nothing a refresh reads.

/// When a partition's offline reconstruction is due: a bound on how far
/// the file may outgrow its live bytes.
///
/// A compaction reads every live chunk and rewrites it, so it costs roughly
/// `file_bytes + live_bytes` of disk traffic plus two fsyncs. It does not
/// make merges cheaper: their windows stop at gaps of
/// [`crate::window::DEFAULT_GAP_THRESHOLD`], so the obsolete versions in
/// those gaps are never read. What it buys is disk space, so the default
/// lets a shard's file grow to 4× its live bytes (75 % garbage) before
/// reconstructing it. All three thresholds must hold.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompactionPolicy {
    /// Minimum garbage fraction `(file_bytes - live_bytes) / file_bytes`.
    pub min_garbage_ratio: f64,
    /// Minimum number of batches (a single-batch store has no obsolete
    /// versions by construction and its windows are already contiguous).
    pub min_batches: usize,
    /// Minimum file size in bytes — tiny stores are never worth the swap.
    pub min_file_bytes: u64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            min_garbage_ratio: 0.75,
            min_batches: 4,
            min_file_bytes: 64 * 1024,
        }
    }
}

impl CompactionPolicy {
    /// A policy that never triggers (serial-baseline / ablation mode).
    pub fn never() -> Self {
        CompactionPolicy {
            min_garbage_ratio: f64::INFINITY,
            min_batches: usize::MAX,
            min_file_bytes: u64::MAX,
        }
    }

    /// A policy that triggers whenever any obsolete version exists — the
    /// stop-the-world cadence the pre-runtime engines effectively had.
    pub fn always() -> Self {
        CompactionPolicy {
            min_garbage_ratio: 0.0,
            min_batches: 2,
            min_file_bytes: 0,
        }
    }

    /// Should a store with these vitals be compacted?
    pub fn should_compact(&self, file_bytes: u64, live_bytes: u64, n_batches: usize) -> bool {
        if file_bytes < self.min_file_bytes || n_batches < self.min_batches {
            return false;
        }
        let garbage = file_bytes.saturating_sub(live_bytes) as f64;
        garbage / file_bytes.max(1) as f64 >= self.min_garbage_ratio
    }
}

/// What a compaction accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// File bytes before compaction (live + obsolete versions).
    pub before_bytes: u64,
    /// File bytes after compaction (live chunks only).
    pub after_bytes: u64,
    /// Number of live chunks retained.
    pub live_chunks: u64,
    /// Number of batches collapsed into one.
    pub batches_before: u32,
}

impl CompactionStats {
    /// Bytes of obsolete chunk versions that were dropped.
    pub fn reclaimed(&self) -> u64 {
        self.before_bytes.saturating_sub(self.after_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reclaimed_is_difference() {
        let s = CompactionStats {
            before_bytes: 1000,
            after_bytes: 400,
            live_chunks: 10,
            batches_before: 5,
        };
        assert_eq!(s.reclaimed(), 600);
    }

    #[test]
    fn reclaimed_saturates() {
        let s = CompactionStats {
            before_bytes: 10,
            after_bytes: 20,
            ..Default::default()
        };
        assert_eq!(s.reclaimed(), 0);
    }
    #[test]
    fn policy_default_thresholds() {
        let p = CompactionPolicy::default();
        // Below min size: never.
        assert!(!p.should_compact(1024, 0, 10));
        // Big file, enough batches, 80% garbage: compact.
        assert!(p.should_compact(5 << 20, 1 << 20, 5));
        // Exactly 4x the live bytes (75% garbage): compact.
        assert!(p.should_compact(4 << 20, 1 << 20, 5));
        // 50% garbage is within the space bound: no longer compacts.
        assert!(!p.should_compact(1 << 20, 1 << 19, 5));
        // Too few batches.
        assert!(!p.should_compact(5 << 20, 1 << 20, 2));
        // Not enough garbage.
        assert!(!p.should_compact(1 << 20, (1 << 20) - 1024, 5));
    }

    #[test]
    fn policy_never_and_always() {
        assert!(!CompactionPolicy::never().should_compact(u64::MAX, 0, usize::MAX));
        assert!(CompactionPolicy::always().should_compact(10, 9, 2));
        // always() still skips a fresh single-batch store (no garbage
        // possible, nothing to collapse).
        assert!(!CompactionPolicy::always().should_compact(10, 10, 1));
    }
}
