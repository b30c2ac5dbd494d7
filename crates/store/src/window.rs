//! Dynamic read windows — Algorithm 1 and the multi-window extension.
//!
//! Given a sequence of chunk retrievals in file order, there are two ways to
//! read: one small I/O per chunk (many seeks) or one large I/O covering
//! several chunks (wasted bytes for the gaps). Because the engine knows the
//! sorted list of keys it is about to query, it can *plan*: extend the
//! window over the next chunk whenever the gap to it is below a threshold
//! `T`, stopping at the read-cache capacity (paper §3.4, Algorithm 1).
//!
//! In iterative incremental jobs the file holds multiple batches of sorted
//! chunks and consecutive queried chunks may live in different batches; one
//! window per batch, each sliding forward independently, handles this
//! (multi-dynamic-window, paper §5.2 / Fig. 7). The window computation here
//! therefore *skips* plan entries that reside in other batches — exactly the
//! "only difference" the paper describes.

use crate::index::ChunkLoc;

/// Default gap threshold `T`: 8 KiB, about the gap whose copy costs as
/// much as one more read from the page cache.
///
/// The paper sets `T` = 100 KB, sized for HDFS disk seeks: there a gap is
/// cheaper to read over than to seek past. A store that sits in the page
/// cache pays no seek, so copying a 100 KB gap costs far more than one more
/// `pread`; a window that reads over such gaps turns a sparse merge into a
/// scan of the batch. At 8 KiB a sparse merge reads about the frames it
/// asks for, and a dense one still coalesces neighbours into one read.
pub const DEFAULT_GAP_THRESHOLD: u64 = 8 * 1024;

/// Compute the read-window size in bytes for a miss at `plan[i]`.
///
/// `plan` holds the file locations of *upcoming* queried chunks in query
/// order (entries for keys in other batches or without preserved chunks are
/// skipped). Only entries with `batch == target_batch` participate. The
/// returned window always covers at least the missed chunk, even if that
/// chunk alone exceeds `cache_capacity` (a chunk must be readable whole).
pub fn dynamic_window_size(
    plan: &[Option<ChunkLoc>],
    i: usize,
    target_batch: u32,
    gap_threshold: u64,
    cache_capacity: u64,
) -> u64 {
    let first = plan[i].expect("window planning requires a preserved chunk at the miss position");
    debug_assert_eq!(first.batch, target_batch);

    let mut w = first.len as u64;
    let mut last_end = first.offset + first.len as u64;

    for loc in plan[i + 1..].iter().flatten() {
        // Multi-window extension: chunks in other batches are served by
        // their own window; they neither extend nor break this one.
        if loc.batch != target_batch {
            continue;
        }
        // Within a batch, query order equals file order, so offsets are
        // non-decreasing; a duplicate/earlier offset would be a planner bug.
        debug_assert!(
            loc.offset >= last_end,
            "plan not in file order within batch"
        );
        let gap = loc.offset - last_end;
        if gap >= gap_threshold {
            break;
        }
        let extended = w + gap + loc.len as u64;
        if extended > cache_capacity {
            break;
        }
        w = extended;
        last_end = loc.offset + loc.len as u64;
    }
    w
}

/// One in-memory read window over a contiguous file region of one batch.
#[derive(Debug)]
pub struct Window {
    /// Batch this window serves.
    pub batch: u32,
    /// Absolute file offset of `buf[0]`.
    pub file_start: u64,
    /// Cached bytes.
    pub buf: Vec<u8>,
}

impl Window {
    /// An empty window for `batch`.
    pub fn empty(batch: u32) -> Self {
        Window {
            batch,
            file_start: 0,
            buf: Vec::new(),
        }
    }

    /// Whether the window fully contains the chunk at `loc`.
    pub fn contains(&self, loc: ChunkLoc) -> bool {
        loc.offset >= self.file_start
            && loc.offset + loc.len as u64 <= self.file_start + self.buf.len() as u64
    }

    /// Borrow the cached bytes of the chunk at `loc` (must be contained).
    pub fn slice(&self, loc: ChunkLoc) -> &[u8] {
        let start = (loc.offset - self.file_start) as usize;
        &self.buf[start..start + loc.len as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(offset: u64, len: u32, batch: u32) -> Option<ChunkLoc> {
        Some(ChunkLoc { offset, len, batch })
    }

    #[test]
    fn window_covers_single_chunk_when_alone() {
        let plan = vec![loc(100, 50, 0)];
        assert_eq!(dynamic_window_size(&plan, 0, 0, 100, 1000), 50);
    }

    #[test]
    fn window_extends_over_small_gaps() {
        // chunks at 0..10, 12..22, 30..40 — gaps 2 and 8, threshold 5:
        // extends over the first gap only.
        let plan = vec![loc(0, 10, 0), loc(12, 10, 0), loc(30, 10, 0)];
        assert_eq!(dynamic_window_size(&plan, 0, 0, 5, 1000), 22);
    }

    #[test]
    fn window_stops_at_gap_threshold() {
        let plan = vec![loc(0, 10, 0), loc(200, 10, 0)];
        assert_eq!(dynamic_window_size(&plan, 0, 0, 100, 1000), 10);
        // Raising the threshold above the gap extends the window.
        assert_eq!(dynamic_window_size(&plan, 0, 0, 191, 1000), 210);
    }

    #[test]
    fn default_threshold_never_reads_over_a_gap_of_its_size() {
        let t = DEFAULT_GAP_THRESHOLD;
        let cap = 1 << 30;
        for gap in [t, t + 1, 100 * 1024] {
            let plan = vec![loc(0, 10, 0), loc(10 + gap, 10, 0)];
            assert_eq!(dynamic_window_size(&plan, 0, 0, t, cap), 10, "gap {gap}");
        }
        // Just below the threshold the window still coalesces the two.
        let plan = vec![loc(0, 10, 0), loc(10 + t - 1, 10, 0)];
        assert_eq!(dynamic_window_size(&plan, 0, 0, t, cap), 10 + t - 1 + 10);
    }

    #[test]
    fn window_respects_cache_capacity() {
        let plan = vec![loc(0, 10, 0), loc(10, 10, 0), loc(20, 10, 0)];
        // Capacity 25 fits two chunks but not three.
        assert_eq!(dynamic_window_size(&plan, 0, 0, 100, 25), 20);
    }

    #[test]
    fn oversized_chunk_still_covered() {
        let plan = vec![loc(0, 500, 0)];
        assert_eq!(dynamic_window_size(&plan, 0, 0, 100, 64), 500);
    }

    #[test]
    fn other_batches_are_skipped_not_blocking() {
        // Next plan entry is in batch 1 far away; the one after is batch 0
        // adjacent — the window must skip the foreign entry and extend.
        let plan = vec![loc(0, 10, 0), loc(100_000, 10, 1), loc(11, 10, 0)];
        assert_eq!(dynamic_window_size(&plan, 0, 0, 5, 1000), 21);
    }

    #[test]
    fn missing_chunks_in_plan_are_skipped() {
        let plan = vec![loc(0, 10, 0), None, loc(12, 10, 0)];
        assert_eq!(dynamic_window_size(&plan, 0, 0, 5, 1000), 22);
    }

    #[test]
    fn planning_from_middle_of_plan() {
        let plan = vec![loc(0, 10, 0), loc(12, 10, 0), loc(24, 10, 0)];
        assert_eq!(dynamic_window_size(&plan, 1, 0, 5, 1000), 22);
    }

    #[test]
    fn window_contains_and_slice() {
        let w = Window {
            batch: 0,
            file_start: 100,
            buf: (0..50).collect(),
        };
        let inside = ChunkLoc {
            offset: 110,
            len: 5,
            batch: 0,
        };
        assert!(w.contains(inside));
        assert_eq!(w.slice(inside), &[10, 11, 12, 13, 14]);
        let before = ChunkLoc {
            offset: 95,
            len: 5,
            batch: 0,
        };
        let past_end = ChunkLoc {
            offset: 148,
            len: 5,
            batch: 0,
        };
        assert!(!w.contains(before));
        assert!(!w.contains(past_end));
        assert!(!Window::empty(0).contains(inside));
    }
}
