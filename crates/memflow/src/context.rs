//! The memflow context: memory budget accounting and spill bookkeeping.

use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Counters describing how a memflow computation interacted with memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowMetrics {
    /// Partitions written to disk because the budget was exhausted.
    pub spills: u64,
    /// Bytes written to spill files.
    pub spill_bytes: u64,
    /// Spilled-partition loads (each pays file I/O + decode).
    pub loads: u64,
    /// Bytes read back from spill files.
    pub load_bytes: u64,
    /// High-water mark of in-memory bytes.
    pub peak_memory: u64,
}

/// Shared engine context. Cheap to clone.
#[derive(Clone)]
pub struct MemFlowCtx {
    inner: Arc<CtxInner>,
}

pub(crate) struct CtxInner {
    pub budget: usize,
    pub spill_dir: PathBuf,
    pub used: AtomicUsize,
    pub next_spill_id: AtomicU64,
    pub metrics: Mutex<FlowMetrics>,
}

impl MemFlowCtx {
    /// Context with `budget` bytes of "cluster memory"; spill files go under
    /// `spill_dir`.
    pub fn new(budget: usize, spill_dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let spill_dir = spill_dir.into();
        std::fs::create_dir_all(&spill_dir)?;
        Ok(MemFlowCtx {
            inner: Arc::new(CtxInner {
                budget,
                spill_dir,
                used: AtomicUsize::new(0),
                next_spill_id: AtomicU64::new(0),
                metrics: Mutex::new(FlowMetrics::default()),
            }),
        })
    }

    /// Bytes currently held in memory by live datasets.
    pub fn used(&self) -> usize {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// The configured memory budget.
    pub fn budget(&self) -> usize {
        self.inner.budget
    }

    /// Snapshot of the metrics.
    pub fn metrics(&self) -> FlowMetrics {
        *self.inner.metrics.lock()
    }

    /// Try to reserve `bytes`; returns false when the budget would overflow
    /// (caller must spill instead).
    pub(crate) fn try_reserve(&self, bytes: usize) -> bool {
        let mut cur = self.inner.used.load(Ordering::Relaxed);
        loop {
            if cur + bytes > self.inner.budget {
                return false;
            }
            match self.inner.used.compare_exchange_weak(
                cur,
                cur + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    let mut m = self.inner.metrics.lock();
                    m.peak_memory = m.peak_memory.max((cur + bytes) as u64);
                    return true;
                }
                Err(actual) => cur = actual,
            }
        }
    }

    pub(crate) fn release(&self, bytes: usize) {
        self.inner.used.fetch_sub(bytes, Ordering::Relaxed);
    }

    pub(crate) fn spill_path(&self) -> PathBuf {
        let id = self.inner.next_spill_id.fetch_add(1, Ordering::Relaxed);
        self.inner.spill_dir.join(format!("spill-{id:08}.bin"))
    }

    pub(crate) fn note_spill(&self, bytes: u64) {
        let mut m = self.inner.metrics.lock();
        m.spills += 1;
        m.spill_bytes += bytes;
    }

    pub(crate) fn note_load(&self, bytes: u64) {
        let mut m = self.inner.metrics.lock();
        m.loads += 1;
        m.load_bytes += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(budget: usize) -> MemFlowCtx {
        let dir = std::env::temp_dir().join(format!(
            "i2mr-memflow-ctx-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        MemFlowCtx::new(budget, dir).unwrap()
    }

    #[test]
    fn reserve_until_budget_then_fail() {
        let c = ctx(100);
        assert!(c.try_reserve(60));
        assert!(c.try_reserve(40));
        assert!(!c.try_reserve(1));
        c.release(50);
        assert!(c.try_reserve(50));
        assert_eq!(c.used(), 100);
    }

    #[test]
    fn peak_memory_tracks_high_water() {
        let c = ctx(1000);
        c.try_reserve(700);
        c.release(700);
        c.try_reserve(100);
        assert_eq!(c.metrics().peak_memory, 700);
    }

    #[test]
    fn spill_paths_are_unique() {
        let c = ctx(10);
        assert_ne!(c.spill_path(), c.spill_path());
    }
}
