//! Mini-DFS: a block-based filesystem simulation standing in for HDFS.
//!
//! The paper's system reads job input from HDFS, writes final results to
//! HDFS, and checkpoints per-iteration state data and MRBGraph files to HDFS
//! for fault tolerance (§6.1). This crate provides those capabilities on the
//! local filesystem with the same *shape*:
//!
//! * files are split into fixed-size **blocks** (default 4 MiB here vs
//!   Hadoop's 64 MB — scaled with the datasets),
//! * a **namenode** keeps an in-memory manifest (file → block list) that is
//!   also persisted so a "restarted cluster" can recover,
//! * block reads/writes are counted in [`IoStats`] so engines can report
//!   DFS traffic,
//! * **checkpoints** are atomic: written to a temp name then renamed, so a
//!   crash mid-checkpoint never corrupts the previous one.
//!
//! Locality (the JobTracker placing map tasks next to their blocks) is
//! simulated by exposing a deterministic `home_worker` per block; the
//! scheduler in `i2mr-mapred` uses it for assignment decisions.

mod block;
mod checkpoint;
mod namenode;

pub use block::{BlockId, BlockMeta};
pub use checkpoint::CheckpointStore;
pub use namenode::{FileMeta, Namenode};

use i2mr_common::error::{Error, Result};
use i2mr_common::failpoint::{FailSite, FailpointRegistry};
use i2mr_common::metrics::IoStats;
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default block size: 4 MiB (HDFS used 64 MB; scaled ~16× down with data).
pub const DEFAULT_BLOCK_SIZE: usize = 4 * 1024 * 1024;

/// Handle to a mini-DFS instance rooted at a local directory.
///
/// Cloning is cheap; all clones share the namenode and I/O counters.
#[derive(Clone)]
pub struct MiniDfs {
    inner: Arc<DfsInner>,
}

struct DfsInner {
    root: PathBuf,
    block_size: usize,
    namenode: Mutex<Namenode>,
    io: Mutex<IoStats>,
    /// Number of simulated worker nodes used for block placement.
    workers: usize,
    /// Chaos-injection sites for the DFS plane ([`FailSite::DfsBlockRead`],
    /// [`FailSite::CheckpointWrite`]); disarmed by default. Behind a mutex
    /// (not a config field) because all clones share one instance and the
    /// chaos suites arm it after the DFS is built.
    failpoints: Mutex<Arc<FailpointRegistry>>,
}

impl MiniDfs {
    /// Create (or reopen) a DFS rooted at `root` with the default block size.
    pub fn open(root: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(root, DEFAULT_BLOCK_SIZE, 4)
    }

    /// Create (or reopen) a DFS with explicit block size and worker count.
    pub fn open_with(root: impl AsRef<Path>, block_size: usize, workers: usize) -> Result<Self> {
        if block_size == 0 {
            return Err(Error::config("block_size must be > 0"));
        }
        if workers == 0 {
            return Err(Error::config("workers must be > 0"));
        }
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(root.join("blocks"))?;
        std::fs::create_dir_all(root.join("checkpoints"))?;
        let namenode = Namenode::load_or_new(&root)?;
        Ok(MiniDfs {
            inner: Arc::new(DfsInner {
                root,
                block_size,
                namenode: Mutex::new(namenode),
                io: Mutex::new(IoStats::default()),
                workers,
                failpoints: Mutex::new(Arc::new(FailpointRegistry::disarmed())),
            }),
        })
    }

    /// Arm the DFS plane's chaos-injection sites (shared by all clones).
    pub fn set_failpoints(&self, failpoints: Arc<FailpointRegistry>) {
        *self.inner.failpoints.lock() = failpoints;
    }

    pub(crate) fn failpoints(&self) -> Arc<FailpointRegistry> {
        Arc::clone(&self.inner.failpoints.lock())
    }

    /// The configured block size in bytes.
    pub fn block_size(&self) -> usize {
        self.inner.block_size
    }

    /// Number of simulated worker nodes (for block placement).
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Root directory on the host filesystem.
    pub fn root(&self) -> &Path {
        &self.inner.root
    }

    /// Snapshot of the accumulated I/O counters.
    pub fn io_stats(&self) -> IoStats {
        *self.inner.io.lock()
    }

    /// Reset the I/O counters (used between experiment phases).
    pub fn reset_io_stats(&self) {
        *self.inner.io.lock() = IoStats::default();
    }

    fn block_path(&self, id: BlockId) -> PathBuf {
        self.inner
            .root
            .join("blocks")
            .join(format!("blk_{:016x}", id.0))
    }

    /// Write `data` as DFS file `name`, splitting it into blocks.
    ///
    /// Overwrites any existing file of the same name (old blocks are
    /// garbage-collected).
    pub fn write_file(&self, name: &str, data: &[u8]) -> Result<FileMeta> {
        let mut nn = self.inner.namenode.lock();
        // Free old blocks first so repeated writes do not leak disk.
        if let Some(old) = nn.remove(name) {
            for b in &old.blocks {
                let _ = std::fs::remove_file(self.block_path(b.id));
            }
        }
        let mut blocks = Vec::new();
        let chunks: Vec<&[u8]> = if data.is_empty() {
            vec![&[][..]]
        } else {
            data.chunks(self.inner.block_size).collect()
        };
        for (i, chunk) in chunks.into_iter().enumerate() {
            let id = nn.next_block_id();
            let path = self.block_path(id);
            let mut f = std::fs::File::create(&path)?;
            f.write_all(chunk)?;
            self.inner.io.lock().record_write(chunk.len() as u64);
            blocks.push(BlockMeta {
                id,
                len: chunk.len() as u64,
                home_worker: (i + name.len()) % self.inner.workers,
            });
        }
        let meta = FileMeta {
            name: name.to_string(),
            len: data.len() as u64,
            blocks,
        };
        nn.insert(meta.clone());
        nn.persist(&self.inner.root)?;
        Ok(meta)
    }

    /// Read the whole DFS file `name`.
    pub fn read_file(&self, name: &str) -> Result<Vec<u8>> {
        let meta = self
            .stat(name)?
            .ok_or_else(|| Error::NotFound(format!("dfs file {name}")))?;
        let mut out = Vec::with_capacity(meta.len as usize);
        for b in &meta.blocks {
            out.extend_from_slice(&self.read_block(b.id)?);
        }
        Ok(out)
    }

    /// Read a single block's payload.
    fn read_block(&self, id: BlockId) -> Result<Vec<u8>> {
        self.failpoints()
            .check(FailSite::DfsBlockRead, "read-block")?;
        let path = self.block_path(id);
        let mut f = std::fs::File::open(&path)
            .map_err(|_| Error::NotFound(format!("block {:016x}", id.0)))?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        self.inner.io.lock().record_read(buf.len() as u64);
        Ok(buf)
    }

    /// File metadata, or `None` if the file does not exist.
    fn stat(&self, name: &str) -> Result<Option<FileMeta>> {
        Ok(self.inner.namenode.lock().get(name).cloned())
    }

    /// Whether the file exists.
    pub fn exists(&self, name: &str) -> bool {
        self.inner.namenode.lock().get(name).is_some()
    }

    /// Delete a DFS file; returns whether it existed.
    pub fn delete(&self, name: &str) -> Result<bool> {
        let mut nn = self.inner.namenode.lock();
        match nn.remove(name) {
            Some(meta) => {
                for b in &meta.blocks {
                    let _ = std::fs::remove_file(self.block_path(b.id));
                }
                nn.persist(&self.inner.root)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// List all files, sorted by name.
    pub fn list(&self) -> Vec<FileMeta> {
        let nn = self.inner.namenode.lock();
        let mut v: Vec<FileMeta> = nn.files().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Atomic-rename checkpoint store rooted inside this DFS.
    pub fn checkpoints(&self) -> CheckpointStore {
        CheckpointStore::new(self.inner.root.join("checkpoints"), self.clone())
    }

    pub(crate) fn record_checkpoint_write(&self, bytes: u64) {
        self.inner.io.lock().record_write(bytes);
    }

    pub(crate) fn record_checkpoint_read(&self, bytes: u64) {
        self.inner.io.lock().record_read(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "i2mr-dfs-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn write_read_roundtrip_multi_block() {
        let dfs = MiniDfs::open_with(tmpdir("rt"), 8, 4).unwrap();
        let data: Vec<u8> = (0..100u8).collect();
        let meta = dfs.write_file("input/part-0", &data).unwrap();
        assert_eq!(meta.len, 100);
        assert_eq!(meta.blocks.len(), 13); // ceil(100/8)
        assert_eq!(dfs.read_file("input/part-0").unwrap(), data);
    }

    #[test]
    fn empty_file_has_one_empty_block() {
        let dfs = MiniDfs::open_with(tmpdir("empty"), 8, 2).unwrap();
        let meta = dfs.write_file("empty", &[]).unwrap();
        assert_eq!(meta.blocks.len(), 1);
        assert_eq!(dfs.read_file("empty").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn overwrite_garbage_collects_old_blocks() {
        let dir = tmpdir("gc");
        let dfs = MiniDfs::open_with(&dir, 4, 2).unwrap();
        dfs.write_file("f", &[0u8; 40]).unwrap();
        let blocks_before = std::fs::read_dir(dir.join("blocks")).unwrap().count();
        assert_eq!(blocks_before, 10);
        dfs.write_file("f", &[1u8; 8]).unwrap();
        let blocks_after = std::fs::read_dir(dir.join("blocks")).unwrap().count();
        assert_eq!(blocks_after, 2);
        assert_eq!(dfs.read_file("f").unwrap(), vec![1u8; 8]);
    }

    #[test]
    fn delete_removes_file_and_blocks() {
        let dir = tmpdir("del");
        let dfs = MiniDfs::open_with(&dir, 4, 2).unwrap();
        dfs.write_file("f", &[7u8; 10]).unwrap();
        assert!(dfs.delete("f").unwrap());
        assert!(!dfs.exists("f"));
        assert!(!dfs.delete("f").unwrap());
        assert_eq!(std::fs::read_dir(dir.join("blocks")).unwrap().count(), 0);
        assert!(matches!(dfs.read_file("f"), Err(Error::NotFound(_))));
    }

    #[test]
    fn manifest_survives_reopen() {
        let dir = tmpdir("reopen");
        {
            let dfs = MiniDfs::open_with(&dir, 16, 2).unwrap();
            dfs.write_file("persisted", b"hello world").unwrap();
        }
        let dfs = MiniDfs::open_with(&dir, 16, 2).unwrap();
        assert_eq!(dfs.read_file("persisted").unwrap(), b"hello world");
        let files = dfs.list();
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].name, "persisted");
    }

    #[test]
    fn io_stats_count_reads_and_writes() {
        let dfs = MiniDfs::open_with(tmpdir("io"), 8, 2).unwrap();
        dfs.write_file("f", &[0u8; 20]).unwrap();
        let st = dfs.io_stats();
        assert_eq!(st.writes, 3); // 8+8+4
        assert_eq!(st.bytes_written, 20);
        dfs.read_file("f").unwrap();
        let st = dfs.io_stats();
        assert_eq!(st.reads, 3);
        assert_eq!(st.bytes_read, 20);
        dfs.reset_io_stats();
        assert_eq!(dfs.io_stats(), IoStats::default());
    }

    #[test]
    fn block_placement_is_deterministic_and_bounded() {
        let dfs = MiniDfs::open_with(tmpdir("place"), 4, 3).unwrap();
        let meta = dfs.write_file("g", &[0u8; 20]).unwrap();
        for b in &meta.blocks {
            assert!(b.home_worker < 3);
        }
        // Same file re-written: same placement.
        let meta2 = dfs.write_file("g", &[0u8; 20]).unwrap();
        let homes1: Vec<_> = meta.blocks.iter().map(|b| b.home_worker).collect();
        let homes2: Vec<_> = meta2.blocks.iter().map(|b| b.home_worker).collect();
        assert_eq!(homes1, homes2);
    }

    #[test]
    fn zero_config_rejected() {
        assert!(MiniDfs::open_with(tmpdir("bad1"), 0, 2).is_err());
        assert!(MiniDfs::open_with(tmpdir("bad2"), 8, 0).is_err());
    }

    #[test]
    fn list_is_sorted() {
        let dfs = MiniDfs::open_with(tmpdir("sort"), 64, 2).unwrap();
        dfs.write_file("b", b"1").unwrap();
        dfs.write_file("a", b"2").unwrap();
        dfs.write_file("c", b"3").unwrap();
        let names: Vec<_> = dfs.list().into_iter().map(|f| f.name).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn block_read_failpoint_surfaces_and_is_bounded() {
        use i2mr_common::failpoint::FailAction;
        let dfs = MiniDfs::open_with(tmpdir("fp-read"), 8, 2).unwrap();
        dfs.write_file("f", &[7u8; 20]).unwrap();
        let fp = Arc::new(FailpointRegistry::seeded(11, 1).arm(
            FailSite::DfsBlockRead,
            1.0,
            FailAction::Error,
        ));
        dfs.set_failpoints(Arc::clone(&fp));
        // Budget of one: the first read fails, the retry goes through —
        // the data underneath was never touched.
        let err = dfs.read_file("f").unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        assert_eq!(fp.fired(), 1);
        assert_eq!(dfs.read_file("f").unwrap(), vec![7u8; 20]);
    }

    #[test]
    fn checkpoint_write_failpoint_leaves_prior_checkpoint_intact() {
        use i2mr_common::failpoint::FailAction;
        let dfs = MiniDfs::open_with(tmpdir("fp-ckpt"), 64, 2).unwrap();
        let ck = dfs.checkpoints();
        ck.save("j", 1, "t", b"good").unwrap();
        dfs.set_failpoints(Arc::new(FailpointRegistry::seeded(5, 1).arm(
            FailSite::CheckpointWrite,
            1.0,
            FailAction::Error,
        )));
        let err = ck.save("j", 2, "t", b"next").unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        // The failed save is invisible: iteration 1 remains the latest
        // complete checkpoint and its payload is unchanged.
        assert!(!ck.exists("j", 2, "t"));
        assert_eq!(
            ck.latest_complete_iteration("j", &["t".to_string()]),
            Some(1)
        );
        assert_eq!(ck.load("j", 1, "t").unwrap(), b"good");
        // Budget exhausted: the retried save succeeds.
        ck.save("j", 2, "t", b"next").unwrap();
        assert_eq!(ck.load("j", 2, "t").unwrap(), b"next");
    }
}
