//! Cursor-based ingestion front: continuous change feeds instead of
//! precomputed delta files.
//!
//! The paper assumes the delta input `ΔD` arrives as a file the
//! data-acquisition layer prepared (§3.3). A long-running deployment sees
//! a *feed* instead: an ordered stream of inserts/deletes per source
//! partition, plus occasional **invalidations** — "this key's derived
//! state can no longer be trusted, recompute it" (upstream corrections,
//! reorgs, manual fixes). This module adapts such feeds to the delta
//! engines:
//!
//! * [`IngestSource`] — the feed abstraction: per-partition sequences of
//!   [`FeedItem`]s, each stamped with a monotonically increasing sequence
//!   number, plus a config hash and a schema hash describing the producer.
//! * [`IngestCursor`] — the consumer's durable position: one high-water
//!   mark per source partition and the (source-config, source-schema,
//!   engine-config) hashes captured when the cursor was begun. A cursor
//!   whose hashes no longer match is **stale** — the producer or the
//!   engine changed shape — and every staging call fails until the caller
//!   re-begins it, rather than silently splicing incompatible changes.
//! * [`RunSession::refresh_from`] — drain everything past the high-water
//!   marks, turn invalidations into *targeted recomputation* (a
//!   delete+re-insert of the key's current structure record, which remaps
//!   exactly that record and upserts exactly the MRBG-Store chunks it
//!   feeds), run a workset-driven delta refresh, and only then commit the
//!   cursor — a failed refresh leaves the high-water marks untouched, so
//!   the next call replays the same batch.
//!
//! The shape follows production incremental pipelines (SNIPPETS.md §2:
//! `dataset_cursors` high-water marks, `partition_versions.config_hash` /
//! `schema_hash`, and a `data_invalidations` ledger drained by jobs).

use crate::delta::{Delta, DeltaRecord};
use crate::delta_iter::DeltaIterativeSpec;
use crate::iter_engine::{PartitionedData, RunReport};
use crate::iterative::IterativeSpec;
use crate::run::RunSession;
use i2mr_common::error::{Error, Result};
use i2mr_common::metrics::JobMetrics;
use i2mr_common::telemetry::EventKind;
use i2mr_mapred::partition::{HashPartitioner, Partitioner};
use i2mr_mapred::types::{KeyData, ValueData};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// One item of a change feed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FeedItem<K, V> {
    /// A structure change: an insert or delete, exactly as a delta file
    /// would carry it.
    Record(DeltaRecord<K, V>),
    /// The derived state of `key` can no longer be trusted — recompute it
    /// from the current structure (reorg, upstream correction, manual fix).
    Invalidate {
        /// The structure key whose derived chunks must be recomputed.
        key: K,
    },
}

/// A change feed the engine can consume incrementally.
///
/// Sequence numbers are per-partition, strictly increasing, and stable
/// across polls: re-polling with the same `after_seq` returns the same
/// items (at-least-once delivery; the cursor's high-water marks provide
/// the exactly-once consumption on top).
pub trait IngestSource<K: KeyData, V: ValueData>: Send + Sync {
    /// Number of source partitions (independent of the engine's).
    fn n_partitions(&self) -> usize;

    /// All items of partition `p` with sequence number `> after_seq`, in
    /// sequence order.
    fn poll(&self, p: usize, after_seq: u64) -> Result<Vec<(u64, FeedItem<K, V>)>>;

    /// Fingerprint of the producer's configuration. A change means the
    /// feed's semantics may have changed; open cursors go stale.
    fn config_hash(&self) -> u64;

    /// Fingerprint of the data shape (key/value encoding). A change means
    /// existing high-water marks point into an incompatible stream.
    fn schema_hash(&self) -> u64;
}

/// A staged (not yet committed) batch drained from a source.
pub struct IngestBatch<K, V> {
    /// The structure delta assembled from `Record` items, in feed order
    /// (partition-major).
    pub delta: Delta<K, V>,
    /// Keys flagged for targeted recomputation by `Invalidate` items.
    pub invalidations: Vec<K>,
    /// Number of `Record` items staged.
    pub records: u64,
    /// High-water marks to commit once the batch is applied.
    next_hwm: Vec<u64>,
}

impl<K, V> IngestBatch<K, V> {
    /// Whether the batch carries no work at all.
    pub fn is_empty(&self) -> bool {
        self.records == 0 && self.invalidations.is_empty()
    }
}

/// The consumer's position in a feed: per-partition high-water marks plus
/// the version hashes captured at [`IngestCursor::begin`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IngestCursor {
    hwm: Vec<u64>,
    source_config: u64,
    source_schema: u64,
    engine_config: u64,
}

impl IngestCursor {
    /// Start a cursor at the head of `source` (nothing consumed yet),
    /// versioned against the source's hashes and `engine_config`
    /// ([`crate::run::EngineConfig::config_hash`]).
    pub fn begin<K: KeyData, V: ValueData>(
        source: &impl IngestSource<K, V>,
        engine_config: u64,
    ) -> Self {
        IngestCursor {
            hwm: vec![0; source.n_partitions()],
            source_config: source.config_hash(),
            source_schema: source.schema_hash(),
            engine_config,
        }
    }

    /// The high-water mark of source partition `p`.
    pub fn high_water(&self, p: usize) -> u64 {
        self.hwm[p]
    }

    /// Check this cursor is still valid for `source` under
    /// `engine_config`; a mismatch anywhere makes it stale.
    pub fn ensure_fresh<K: KeyData, V: ValueData>(
        &self,
        source: &impl IngestSource<K, V>,
        engine_config: u64,
    ) -> Result<()> {
        if source.n_partitions() != self.hwm.len() {
            return Err(Error::config(
                "stale ingest cursor: source partition count changed",
            ));
        }
        if source.config_hash() != self.source_config {
            return Err(Error::config(
                "stale ingest cursor: source config hash changed — re-begin the cursor",
            ));
        }
        if source.schema_hash() != self.source_schema {
            return Err(Error::config(
                "stale ingest cursor: source schema hash changed — re-begin the cursor",
            ));
        }
        if engine_config != self.engine_config {
            return Err(Error::config(
                "stale ingest cursor: engine config hash changed — re-begin the cursor",
            ));
        }
        Ok(())
    }

    /// Drain every item past the high-water marks into a staged batch.
    /// Does **not** move the cursor — call [`IngestCursor::commit`] after
    /// the batch has been durably applied, so a failed refresh replays.
    pub fn stage<K: KeyData, V: ValueData>(
        &self,
        source: &impl IngestSource<K, V>,
    ) -> Result<IngestBatch<K, V>> {
        let mut delta = Delta::new();
        let mut invalidations = Vec::new();
        let mut records = 0u64;
        let mut next_hwm = self.hwm.clone();
        for (p, watermark) in next_hwm.iter_mut().enumerate() {
            for (seq, item) in source.poll(p, *watermark)? {
                if seq <= *watermark {
                    return Err(Error::config(
                        "ingest source replayed a sequence number at or below the high-water mark",
                    ));
                }
                *watermark = seq;
                match item {
                    FeedItem::Record(r) => {
                        records += 1;
                        match r.op {
                            crate::delta::Op::Insert => delta.insert(r.key, r.value),
                            crate::delta::Op::Delete => delta.delete(r.key, r.value),
                        }
                    }
                    FeedItem::Invalidate { key } => invalidations.push(key),
                }
            }
        }
        Ok(IngestBatch {
            delta,
            invalidations,
            records,
            next_hwm,
        })
    }

    /// Advance the high-water marks to a staged batch's frontier.
    pub fn commit<K, V>(&mut self, batch: &IngestBatch<K, V>) {
        self.hwm.clone_from(&batch.next_hwm);
    }
}

/// An in-memory feed for tests, examples, and benches: push items in,
/// poll them back out, flip the hashes to simulate producer changes.
pub struct MemSource<K, V> {
    parts: Vec<Mutex<PartFeed<K, V>>>,
    config_hash: AtomicU64,
    schema_hash: AtomicU64,
}

struct PartFeed<K, V> {
    next_seq: u64,
    items: Vec<(u64, FeedItem<K, V>)>,
}

impl<K: KeyData, V: ValueData> MemSource<K, V> {
    /// A source with `n` partitions and default hashes.
    pub fn new(n: usize) -> Self {
        MemSource {
            parts: (0..n)
                .map(|_| {
                    Mutex::new(PartFeed {
                        next_seq: 0,
                        items: Vec::new(),
                    })
                })
                .collect(),
            config_hash: AtomicU64::new(1),
            schema_hash: AtomicU64::new(1),
        }
    }

    /// Append an item to partition `p`; returns its sequence number.
    pub fn push(&self, p: usize, item: FeedItem<K, V>) -> u64 {
        let mut part = self.parts[p].lock();
        part.next_seq += 1;
        let seq = part.next_seq;
        part.items.push((seq, item));
        seq
    }

    /// Append an insert record.
    pub fn push_insert(&self, p: usize, key: K, value: V) -> u64 {
        self.push(
            p,
            FeedItem::Record(DeltaRecord {
                key,
                value,
                op: crate::delta::Op::Insert,
            }),
        )
    }

    /// Append a delete record (must match an existing record exactly).
    pub fn push_delete(&self, p: usize, key: K, value: V) -> u64 {
        self.push(
            p,
            FeedItem::Record(DeltaRecord {
                key,
                value,
                op: crate::delta::Op::Delete,
            }),
        )
    }

    /// Append an invalidation for `key`.
    pub fn push_invalidate(&self, p: usize, key: K) -> u64 {
        self.push(p, FeedItem::Invalidate { key })
    }

    /// Simulate a producer config change (stales every open cursor).
    pub fn bump_config(&self) {
        self.config_hash.fetch_add(1, Ordering::Relaxed);
    }

    /// Simulate a schema change (stales every open cursor).
    pub fn bump_schema(&self) {
        self.schema_hash.fetch_add(1, Ordering::Relaxed);
    }
}

impl<K: KeyData, V: ValueData> IngestSource<K, V> for MemSource<K, V> {
    fn n_partitions(&self) -> usize {
        self.parts.len()
    }

    fn poll(&self, p: usize, after_seq: u64) -> Result<Vec<(u64, FeedItem<K, V>)>> {
        Ok(self.parts[p]
            .lock()
            .items
            .iter()
            .filter(|(seq, _)| *seq > after_seq)
            .cloned()
            .collect())
    }

    fn config_hash(&self) -> u64 {
        self.config_hash.load(Ordering::Relaxed)
    }

    fn schema_hash(&self) -> u64 {
        self.schema_hash.load(Ordering::Relaxed)
    }
}

/// The current structure value of `sk`, if present.
fn current_structure_value<S: IterativeSpec>(
    spec: &S,
    data: &PartitionedData<S::SK, S::SV, S::DK, S::DV>,
    sk: &S::SK,
) -> Option<S::SV> {
    let dk = spec.project(sk);
    let p = HashPartitioner.partition(&dk, data.n_partitions());
    let groups = &data.structure[p];
    let gi = groups.binary_search_by(|g| g.dk.cmp(&dk)).ok()?;
    groups[gi]
        .records
        .iter()
        .find(|(k, _)| k == sk)
        .map(|(_, v)| v.clone())
}

impl<'s, S: IterativeSpec> RunSession<'s, S> {
    /// Drain `source` past `cursor`'s high-water marks and refresh the
    /// computation with a workset-driven delta run.
    ///
    /// * `Record` items become the structure delta, exactly as a delta
    ///   file would.
    /// * `Invalidate { key }` items become a delete+re-insert of the
    ///   key's *current* structure record: the delta engine then remaps
    ///   exactly that record, upserts exactly the MRBG-Store chunks it
    ///   feeds, and seeds the workset with exactly the state keys it
    ///   touches — targeted recomputation, not a full rebuild.
    ///   Invalidations of keys absent from the structure are counted but
    ///   produce no work.
    /// * The cursor commits only after the refresh succeeds; on error the
    ///   high-water marks are untouched and the next call replays the
    ///   batch.
    ///
    /// An empty batch returns an empty, converged report without running
    /// the engine. Ingestion counters land in the report's first
    /// iteration slot (`ingested_records` / `invalidated_keys`).
    pub fn refresh_from<Src>(
        &self,
        data: &mut PartitionedData<S::SK, S::SV, S::DK, S::DV>,
        cursor: &mut IngestCursor,
        source: &Src,
    ) -> Result<RunReport>
    where
        S: DeltaIterativeSpec,
        Src: IngestSource<S::SK, S::SV>,
    {
        let engine_hash = self.config().config_hash();
        cursor.ensure_fresh(source, engine_hash)?;
        let batch = cursor.stage(source)?;
        let rec = self.telemetry().recorder().cloned();
        if let Some(r) = &rec {
            r.emit_driver(EventKind::IngestPoll {
                records: batch.records,
                invalidations: batch.invalidations.len() as u64,
            });
        }
        if batch.is_empty() {
            cursor.commit(&batch);
            if let Some(r) = &rec {
                r.emit_driver(EventKind::IngestCommit {
                    records: batch.records,
                });
            }
            return Ok(RunReport {
                converged: true,
                ..Default::default()
            });
        }

        let mut delta = batch.delta.clone();
        let mut invalidated_keys = 0u64;
        for key in &batch.invalidations {
            invalidated_keys += 1;
            if let Some(sv) = current_structure_value(self.spec(), data, key) {
                delta.update(key.clone(), sv.clone(), sv);
            }
        }

        let mut report = self.run_delta(data, &delta)?;
        let counters = JobMetrics {
            ingested_records: batch.records,
            invalidated_keys,
            ..Default::default()
        };
        match report.per_iteration.first_mut() {
            Some(first) => first.merge(&counters),
            None => report.per_iteration.push(counters),
        }
        cursor.commit(&batch);
        if let Some(r) = &rec {
            r.emit_driver(EventKind::IngestCommit {
                records: batch.records,
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Op;

    #[test]
    fn cursor_stages_past_high_water_only() {
        let src: MemSource<u64, String> = MemSource::new(2);
        src.push_insert(0, 1, "a".into());
        src.push_insert(1, 2, "b".into());
        let mut cursor = IngestCursor::begin(&src, 7);
        let batch = cursor.stage(&src).unwrap();
        assert_eq!(batch.records, 2);
        cursor.commit(&batch);
        assert_eq!((cursor.high_water(0), cursor.high_water(1)), (1, 1));

        // Nothing new: empty batch, marks unchanged.
        let batch = cursor.stage(&src).unwrap();
        assert!(batch.is_empty());

        // One new item on partition 1 only.
        src.push_delete(1, 2, "b".into());
        let batch = cursor.stage(&src).unwrap();
        assert_eq!(batch.records, 1);
        assert_eq!(batch.delta.records()[0].op, Op::Delete);
        cursor.commit(&batch);
        assert_eq!((cursor.high_water(0), cursor.high_water(1)), (1, 2));
    }

    #[test]
    fn staging_without_commit_replays() {
        let src: MemSource<u64, String> = MemSource::new(1);
        src.push_insert(0, 1, "a".into());
        let cursor = IngestCursor::begin(&src, 0);
        let b1 = cursor.stage(&src).unwrap();
        let b2 = cursor.stage(&src).unwrap();
        assert_eq!(b1.records, b2.records);
        assert_eq!(b1.delta.records(), b2.delta.records());
    }

    #[test]
    fn hash_changes_stale_the_cursor() {
        let src: MemSource<u64, String> = MemSource::new(1);
        let cursor = IngestCursor::begin(&src, 42);
        cursor.ensure_fresh(&src, 42).unwrap();
        assert!(cursor.ensure_fresh(&src, 43).is_err(), "engine config");
        src.bump_config();
        assert!(cursor.ensure_fresh(&src, 42).is_err(), "source config");
        let cursor = IngestCursor::begin(&src, 42);
        src.bump_schema();
        assert!(cursor.ensure_fresh(&src, 42).is_err(), "source schema");
    }

    #[test]
    fn invalidations_are_separated_from_records() {
        let src: MemSource<u64, String> = MemSource::new(1);
        src.push_insert(0, 1, "a".into());
        src.push_invalidate(0, 9);
        src.push_invalidate(0, 10);
        let cursor = IngestCursor::begin(&src, 0);
        let batch = cursor.stage(&src).unwrap();
        assert_eq!(batch.records, 1);
        assert_eq!(batch.invalidations, vec![9, 10]);
        assert!(!batch.is_empty());
    }

    #[test]
    fn non_monotonic_source_is_rejected() {
        struct Bad;
        impl IngestSource<u64, String> for Bad {
            fn n_partitions(&self) -> usize {
                1
            }
            fn poll(&self, _p: usize, _after: u64) -> Result<Vec<(u64, FeedItem<u64, String>)>> {
                Ok(vec![(
                    0, // violates seq > after_seq for after_seq = 0
                    FeedItem::Invalidate { key: 1 },
                )])
            }
            fn config_hash(&self) -> u64 {
                1
            }
            fn schema_hash(&self) -> u64 {
                1
            }
        }
        let cursor = IngestCursor::begin(&Bad, 0);
        assert!(cursor.stage(&Bad).is_err());
    }
}
