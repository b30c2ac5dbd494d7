//! Query strategies and the planned frame pass that executes them.
//!
//! Table 4 of the paper compares four ways to retrieve the chunks a merge
//! needs; all four are implemented behind [`QueryStrategy`]:
//!
//! * **IndexOnly** — one exact I/O per chunk: smallest bytes read, most
//!   seeks.
//! * **SingleFixWindow** — one fixed-size window shared by all batches:
//!   pathological for iterative jobs because consecutive requests alternate
//!   between batches and thrash the window (the paper measured *10 TB* read).
//! * **MultiFixWindow** — one fixed-size window per batch.
//! * **MultiDynamicWindow** — one window per batch, each sized by
//!   Algorithm 1 using the known positions of upcoming requests; the
//!   paper's (and our) default.
//!
//! A [`FramePass`] is planned per merge, compaction or export with the
//! locations of every chunk it will retrieve, in query order, and then
//! serves each planned location's raw frame bytes in exactly that order.
//! Callers check each frame ([`crate::format::verify_frame`]) or decode it
//! ([`crate::format::decode_framed`]) themselves.

use crate::index::ChunkLoc;
use crate::window::{dynamic_window_size, Window, DEFAULT_GAP_THRESHOLD};
use i2mr_common::error::{Error, Result};
use i2mr_common::metrics::IoStats;
use std::fs::File;
use std::os::unix::fs::FileExt;

/// Chunk retrieval strategy (see module docs / paper Table 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryStrategy {
    /// One exact read per chunk.
    IndexOnly,
    /// One shared fixed-size window.
    SingleFixWindow {
        /// Window size in bytes.
        window: u64,
    },
    /// One fixed-size window per batch.
    MultiFixWindow {
        /// Window size in bytes.
        window: u64,
    },
    /// One dynamically-sized window per batch (Algorithm 1).
    MultiDynamicWindow {
        /// Gap threshold `T`.
        gap_threshold: u64,
    },
}

impl Default for QueryStrategy {
    fn default() -> Self {
        QueryStrategy::MultiDynamicWindow {
            gap_threshold: DEFAULT_GAP_THRESHOLD,
        }
    }
}

/// Sentinel batch id for the shared single window.
const SHARED_WINDOW: u32 = u32::MAX;

/// A planned, windowed read over a sequence of chunk locations, serving
/// each planned location as its raw frame bytes. Merges verify each frame
/// against its key; compaction and export copy frames verbatim.
pub struct FramePass<'a> {
    file: &'a File,
    file_len: u64,
    io: &'a mut IoStats,
    strategy: QueryStrategy,
    cache_capacity: u64,
    /// Location per planned position (`None` = nothing preserved there).
    plan: Vec<Option<ChunkLoc>>,
    next: usize,
    windows: Vec<Window>,
    /// Persistent scratch for index-only reads: one buffer reused across
    /// the whole pass instead of one fresh allocation per chunk.
    scratch: Vec<u8>,
}

impl<'a> FramePass<'a> {
    /// Plan a pass over `plan`, the locations in query order. Within one
    /// batch, query order must equal file order (canonical key order does).
    pub fn new(
        file: &'a File,
        file_len: u64,
        io: &'a mut IoStats,
        strategy: QueryStrategy,
        cache_capacity: u64,
        plan: Vec<Option<ChunkLoc>>,
    ) -> Self {
        FramePass {
            file,
            file_len,
            io,
            strategy,
            cache_capacity,
            plan,
            next: 0,
            windows: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The bytes of the next planned frame, exactly `ChunkLoc::len` of
    /// them and **unverified** — the caller decodes
    /// ([`crate::format::decode_framed`]) or checks
    /// ([`crate::format::verify_frame`]) them. `None` when that position
    /// has no preserved chunk. A frame the index places past the end of
    /// the file is [`Error::Corrupt`] under every strategy.
    ///
    /// The slice points straight into the window (or scratch) buffer —
    /// retrieval copies each chunk's bytes exactly once, from the kernel
    /// into the reused buffer.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>> {
        let i = self.next;
        if i >= self.plan.len() {
            return Err(Error::corrupt("read pass advanced past its plan"));
        }
        self.next += 1;
        let loc = match self.plan[i] {
            Some(loc) => loc,
            None => return Ok(None),
        };

        Ok(Some(match self.strategy {
            QueryStrategy::IndexOnly => {
                let len = loc.len as usize;
                if loc.offset.saturating_add(len as u64) > self.file_len {
                    return Err(past_the_end(loc, self.file_len));
                }
                self.scratch.resize(len, 0);
                self.file
                    .read_exact_at(&mut self.scratch[..len], loc.offset)?;
                self.io.record_read(len as u64);
                &self.scratch[..len]
            }
            QueryStrategy::SingleFixWindow { window } => {
                let wi = self.find_window(SHARED_WINDOW);
                if !self.windows[wi].contains(loc) {
                    self.slide_window(wi, loc, window.max(loc.len as u64))?;
                }
                self.windows[wi].slice(loc)
            }
            QueryStrategy::MultiFixWindow { window } => {
                let wi = self.find_window(loc.batch);
                if !self.windows[wi].contains(loc) {
                    self.slide_window(wi, loc, window.max(loc.len as u64))?;
                }
                self.windows[wi].slice(loc)
            }
            QueryStrategy::MultiDynamicWindow { gap_threshold } => {
                // Plan a window size only on a miss: a hit's size would be
                // discarded anyway, and the plan scan is O(remaining plan),
                // so computing it per frame makes a dense pass (compaction,
                // whole-file merge) quadratic in the live-chunk count.
                // Sizing at the miss position reads exactly the same bytes.
                let wi = self.find_window(loc.batch);
                if !self.windows[wi].contains(loc) {
                    let w = dynamic_window_size(
                        &self.plan,
                        i,
                        loc.batch,
                        gap_threshold,
                        self.cache_capacity,
                    );
                    self.slide_window(wi, loc, w)?;
                }
                self.windows[wi].slice(loc)
            }
        }))
    }

    /// Number of planned positions not yet retrieved.
    pub fn remaining(&self) -> usize {
        self.plan.len() - self.next
    }

    /// Position of the window serving `window_tag` in `self.windows`,
    /// creating an empty one on first use.
    fn find_window(&mut self, window_tag: u32) -> usize {
        match self.windows.iter().position(|w| w.batch == window_tag) {
            Some(wi) => wi,
            None => {
                self.windows.push(Window::empty(window_tag));
                self.windows.len() - 1
            }
        }
    }

    /// Slide window `wi` to cover `loc` with one large I/O of up to `size`
    /// bytes. The window's buffer is reused across slides (capacity kept),
    /// so a steady pass allocates per *growth*, not per slide.
    ///
    /// The window is clipped to the end of the file; if the clipped window
    /// still does not cover `loc`, the index points past the data and the
    /// slide fails with [`Error::Corrupt`].
    fn slide_window(&mut self, wi: usize, loc: ChunkLoc, size: u64) -> Result<()> {
        let len = size.min(self.file_len.saturating_sub(loc.offset)) as usize;
        let w = &mut self.windows[wi];
        w.file_start = loc.offset;
        w.buf.resize(len, 0);
        self.file.read_exact_at(&mut w.buf[..len], loc.offset)?;
        self.io.record_read(len as u64);
        if !w.contains(loc) {
            return Err(past_the_end(loc, self.file_len));
        }
        Ok(())
    }
}

/// The index places a frame at `loc` that the `file_len`-byte data file
/// does not hold in full.
fn past_the_end(loc: ChunkLoc, file_len: u64) -> Error {
    Error::corrupt(format!(
        "indexed chunk at {}+{} reaches past the {}-byte data file",
        loc.offset, loc.len, file_len
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{decode_framed, encode_framed, verify_frame, Chunk, ChunkEntry};
    use crate::index::{BatchInfo, ChunkIndex};
    use i2mr_common::hash::MapKey;
    use std::io::Write;

    /// Write chunks for keys k0..k{n-1} as one batch; returns file + index.
    fn build_store(tag: &str, batches: &[Vec<(&str, &[u8])>]) -> (File, u64, ChunkIndex) {
        let p = std::env::temp_dir().join(format!(
            "i2mr-query-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        let mut f = File::options()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&p)
            .unwrap();
        let mut index = ChunkIndex::new();
        let mut offset = 0u64;
        for batch in batches {
            let start = offset;
            let bid = index.batches().len() as u32;
            for (key, value) in batch {
                let c = Chunk::new(
                    key.as_bytes().to_vec(),
                    vec![ChunkEntry {
                        mk: MapKey(1),
                        value: value.to_vec(),
                    }],
                );
                let mut buf = Vec::new();
                encode_framed(&c, &mut buf);
                f.write_all(&buf).unwrap();
                index.put(
                    key.as_bytes().to_vec(),
                    ChunkLoc {
                        offset,
                        len: buf.len() as u32,
                        batch: bid,
                    },
                );
                offset += buf.len() as u64;
            }
            index.push_batch(BatchInfo { start, end: offset });
        }
        (f, offset, index)
    }

    /// The locations of `ks` in query order (a merge's plan).
    fn plan(index: &ChunkIndex, ks: &[&str]) -> Vec<Option<ChunkLoc>> {
        ks.iter().map(|k| index.get(k.as_bytes())).collect()
    }

    /// The next planned chunk, checked to hold `key` the way a merge
    /// checks it, then decoded. `None` when nothing is preserved there.
    fn get(pass: &mut FramePass<'_>, key: &str) -> Result<Option<Chunk>> {
        let Some(mut frame) = pass.next_frame()? else {
            return Ok(None);
        };
        verify_frame(frame, key.as_bytes())?;
        decode_framed(&mut frame).map(Some)
    }

    #[test]
    fn index_only_reads_each_chunk_exactly() {
        let (f, len, index) =
            build_store("idxonly", &[vec![("a", b"1"), ("b", b"2"), ("c", b"3")]]);
        let mut io = IoStats::default();
        let mut pass = FramePass::new(
            &f,
            len,
            &mut io,
            QueryStrategy::IndexOnly,
            1 << 20,
            plan(&index, &["a", "b", "c"]),
        );
        for k in ["a", "b", "c"] {
            let c = get(&mut pass, k).unwrap().unwrap();
            assert_eq!(c.key, k.as_bytes());
        }
        assert_eq!(io.reads, 3);
        assert_eq!(io.bytes_read, len, "exact chunks only");
    }

    #[test]
    fn dynamic_window_batches_adjacent_chunks_into_one_read() {
        let (f, len, index) = build_store("dyn", &[vec![("a", b"1"), ("b", b"2"), ("c", b"3")]]);
        let mut io = IoStats::default();
        let mut pass = FramePass::new(
            &f,
            len,
            &mut io,
            QueryStrategy::MultiDynamicWindow { gap_threshold: 64 },
            1 << 20,
            plan(&index, &["a", "b", "c"]),
        );
        for k in ["a", "b", "c"] {
            assert!(get(&mut pass, k).unwrap().is_some());
        }
        assert_eq!(io.reads, 1, "adjacent chunks: one large I/O");
        assert_eq!(io.bytes_read, len);
    }

    #[test]
    fn dynamic_window_skips_unqueried_gaps() {
        // Query only a and z of a..z with tiny threshold: two reads, and far
        // fewer bytes than the whole file.
        let all: Vec<(String, Vec<u8>)> = (b'a'..=b'z')
            .map(|c| ((c as char).to_string(), vec![c; 64]))
            .collect();
        let batch: Vec<(&str, &[u8])> = all
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_slice()))
            .collect();
        let (f, len, index) = build_store("gap", &[batch]);
        let mut io = IoStats::default();
        let mut pass = FramePass::new(
            &f,
            len,
            &mut io,
            QueryStrategy::MultiDynamicWindow { gap_threshold: 8 },
            1 << 20,
            plan(&index, &["a", "z"]),
        );
        assert!(get(&mut pass, "a").unwrap().is_some());
        assert!(get(&mut pass, "z").unwrap().is_some());
        assert_eq!(io.reads, 2);
        assert!(io.bytes_read < len / 4, "read {} of {}", io.bytes_read, len);
    }

    #[test]
    fn single_fix_window_thrashes_across_batches() {
        // Two batches; requests alternate between them in key order: a
        // (batch1 latest), b (batch0), c (batch1), d (batch0).
        let (f, len, index) = build_store(
            "thrash",
            &[
                vec![("b", b"old-b"), ("d", b"old-d")],
                vec![("a", b"new-a"), ("c", b"new-c")],
            ],
        );
        let mut io_single = IoStats::default();
        let mut pass = FramePass::new(
            &f,
            len,
            &mut io_single,
            QueryStrategy::SingleFixWindow { window: 64 },
            1 << 20,
            plan(&index, &["a", "b", "c", "d"]),
        );
        for k in ["a", "b", "c", "d"] {
            assert!(get(&mut pass, k).unwrap().is_some());
        }
        drop(pass);

        let mut io_multi = IoStats::default();
        let mut pass = FramePass::new(
            &f,
            len,
            &mut io_multi,
            QueryStrategy::MultiFixWindow { window: 64 },
            1 << 20,
            plan(&index, &["a", "b", "c", "d"]),
        );
        for k in ["a", "b", "c", "d"] {
            assert!(get(&mut pass, k).unwrap().is_some());
        }
        assert!(
            io_multi.reads < io_single.reads,
            "multi ({}) must beat single ({}) across batches",
            io_multi.reads,
            io_single.reads
        );
    }

    #[test]
    fn unpreserved_keys_return_none_without_io() {
        let (f, len, index) = build_store("none", &[vec![("a", b"1")]]);
        let mut io = IoStats::default();
        let mut pass = FramePass::new(
            &f,
            len,
            &mut io,
            QueryStrategy::default(),
            1 << 20,
            plan(&index, &["0-new-key", "a"]),
        );
        assert!(get(&mut pass, "0-new-key").unwrap().is_none());
        assert!(get(&mut pass, "a").unwrap().is_some());
        assert_eq!(io.reads, 1);
    }

    #[test]
    fn out_of_order_get_is_rejected() {
        let (f, len, index) = build_store("order", &[vec![("a", b"1"), ("b", b"2")]]);
        let mut io = IoStats::default();
        let mut pass = FramePass::new(
            &f,
            len,
            &mut io,
            QueryStrategy::default(),
            1 << 20,
            plan(&index, &["a", "b"]),
        );
        // Asking the pass for "b" first: the frame it serves is "a"'s,
        // and the merge's key check refuses it.
        assert!(matches!(get(&mut pass, "b"), Err(Error::Corrupt(_))));
        assert!(get(&mut pass, "b").unwrap().is_some());
        // A pass serves its plan and nothing past it.
        assert!(matches!(pass.next_frame(), Err(Error::Corrupt(_))));
    }

    #[test]
    fn a_frame_past_the_end_of_the_file_errs_instead_of_panicking() {
        let all: Vec<(String, Vec<u8>)> = (0..40).map(|i| (format!("k{i:02}"), vec![7])).collect();
        let batch: Vec<(&str, &[u8])> = all
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_slice()))
            .collect();
        let (f, len, index) = build_store("short", &[batch]);
        // The index still describes 40 frames; the file lost 10 bytes.
        f.set_len(len - 10).unwrap();
        let plan: Vec<Option<ChunkLoc>> =
            all.iter().map(|(k, _)| index.get(k.as_bytes())).collect();
        for strategy in [
            QueryStrategy::IndexOnly,
            QueryStrategy::SingleFixWindow { window: 64 },
            QueryStrategy::MultiFixWindow { window: 64 },
            QueryStrategy::default(),
        ] {
            let mut io = IoStats::default();
            let mut pass = FramePass::new(&f, len - 10, &mut io, strategy, 1 << 20, plan.clone());
            let err = (0..plan.len())
                .find_map(|_| pass.next_frame().err())
                .unwrap_or_else(|| panic!("{strategy:?}: read past the end of the file"));
            assert!(matches!(err, Error::Corrupt(_)), "{strategy:?}: {err}");
        }
    }

    #[test]
    fn latest_version_wins_across_batches() {
        let (f, len, index) = build_store(
            "latest",
            &[vec![("k", b"version-1")], vec![("k", b"version-2")]],
        );
        let mut io = IoStats::default();
        let mut pass = FramePass::new(
            &f,
            len,
            &mut io,
            QueryStrategy::default(),
            1 << 20,
            plan(&index, &["k"]),
        );
        let c = get(&mut pass, "k").unwrap().unwrap();
        assert_eq!(c.entries[0].value, b"version-2");
    }
}
