//! Telemetry plane: a lock-light span/event recorder, a live metrics
//! registry, and exporters for run timelines (see DESIGN.md §10).
//!
//! The runtime has five interacting planes (executor lanes, sharded store,
//! serving, ingestion, fault recovery); until this module the only windows
//! into a run were end-of-run [`crate::metrics::JobMetrics`] aggregates.
//! The telemetry plane adds the per-task / per-shard / per-lookup record
//! needed to reconstruct *why* a run behaved the way it did — and it is
//! the executor's only record of task attempts:
//!
//! * [`TraceRecorder`] — per-worker ring buffers of sequence-stamped,
//!   typed [`TraceEvent`]s. Each worker (plus one *driver* slot for the
//!   coordinating thread, helpers, and the serving front) appends to its
//!   own rarely-contended buffer; memory is bounded by an explicit
//!   capacity and overflow increments a **drop counter** — a truncated
//!   trace always says so, it never silently looks complete.
//! * [`MetricsRegistry`] — named counters / gauges /
//!   [`LatencyHistogram`]s with a cheap point-in-time
//!   [`MetricsRegistry::snapshot`] callable mid-run, replacing
//!   drain-only-at-fence visibility.
//! * Exporters — Chrome `chrome://tracing` trace-event JSON
//!   ([`TraceLog::to_chrome_json`]), a line-per-event JSONL sink
//!   ([`TraceLog::to_jsonl`]), and the paper-table extractors
//!   [`fig9`] / [`table4`] (plus `*_from_jsonl` variants that reproduce
//!   the tables directly from a trace file) and the Fig. 13 query
//!   [`recovery_latencies`].
//!
//! # Exactness contract
//!
//! The [`EventKind::StageSample`] and [`EventKind::StoreIoSample`] events
//! carry the *same values* the engines fold into `JobMetrics` (the exact
//! `Instant::elapsed` duration, the exact drained [`IoStats`] delta), so
//! [`fig9`] / [`table4`] over a complete trace equal the drained metrics
//! bit-for-bit — enforced by `tests/trace_equivalence.rs`.
//!
//! # Overhead model
//!
//! `Off` records nothing and is never consulted on hot paths (subsystems
//! hold `Option<Arc<TraceRecorder>>`; `Off` sessions install `None`).
//! `Counters` bumps one relaxed atomic per event. `Full` additionally
//! takes one per-slot mutex (uncontended: each worker owns its slot) and
//! appends ~100 bytes. Events fire at *task/op* granularity — per attempt,
//! per shard op, per lookup — never per record, which keeps `Full` within
//! 5% of `Off` on the shuffle data plane (`micro_trace` bench, gated).

use crate::metrics::{IoStats, Stage, StageTimes};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Lock a mutex, transparently recovering from poisoning (the workspace's
/// no-poisoning contract; `i2mr-common` has no parking_lot dependency).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// How much telemetry a session records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TelemetryMode {
    /// No recorder installed anywhere: bit-identical to a build without
    /// the telemetry plane (the default).
    #[default]
    Off,
    /// Per-kind event counters only (one relaxed atomic add per event);
    /// no spans are retained, so memory cost is a fixed array.
    Counters,
    /// Counters plus full span/event retention in per-worker rings.
    Full,
}

/// Telemetry knobs, carried on `EngineConfig` / `RunBuilder`.
///
/// Deliberately **excluded** from `EngineConfig::config_hash`: observability
/// must never invalidate ingestion cursors or change engine semantics —
/// `Off` and `Full` runs are bit-identical in state and store exports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Recording mode (see [`TelemetryMode`]).
    pub mode: TelemetryMode,
    /// Per-worker ring capacity in events; past it, new events are dropped
    /// and counted (never silently). ~100 bytes/event retained.
    pub ring_capacity: usize,
    /// When set, `RunSession::finish` writes the accumulated trace as
    /// Chrome trace-event JSON (load in `chrome://tracing` / Perfetto).
    pub chrome_trace_path: Option<PathBuf>,
    /// When set, `RunSession::finish` writes the accumulated trace as
    /// JSONL, one event per line — the input format of
    /// [`fig9_from_jsonl`] / [`table4_from_jsonl`].
    pub jsonl_path: Option<PathBuf>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            mode: TelemetryMode::Off,
            ring_capacity: 1 << 16,
            chrome_trace_path: None,
            jsonl_path: None,
        }
    }
}

impl TelemetryConfig {
    /// A config with `mode` and default capacity/sinks.
    pub fn with_mode(mode: TelemetryMode) -> Self {
        TelemetryConfig {
            mode,
            ..Default::default()
        }
    }

    /// Whether the knobs are coherent (a `Full` recorder needs a ring).
    pub fn is_valid(&self) -> bool {
        self.mode != TelemetryMode::Full || self.ring_capacity > 0
    }
}

/// Identity of a task referenced by a span, mirroring the executor's
/// task id without depending on it (`i2mr-common` sits below the executor).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskRef {
    /// Task kind name (`"map"`, `"sort"`, `"store-merge"`, ...).
    pub kind: &'static str,
    /// Task index within its phase (partition / shard number).
    pub index: u64,
    /// Iteration the task belongs to.
    pub iteration: u64,
}

/// Which store-plane operation a [`EventKind::StoreOp`] span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreOpKind {
    /// In-place merge of delta chunks into a shard.
    Merge,
    /// Append of fresh chunks to a shard.
    Append,
    /// Background compaction of a shard.
    Compact,
    /// Torn-tail salvage observed on a shard (bytes discarded on open).
    Salvage,
    /// Shard rebuilt in place from a checkpoint payload.
    Rebuild,
}

impl StoreOpKind {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            StoreOpKind::Merge => "merge",
            StoreOpKind::Append => "append",
            StoreOpKind::Compact => "compact",
            StoreOpKind::Salvage => "salvage",
            StoreOpKind::Rebuild => "rebuild",
        }
    }
}

/// Outcome of one serving-plane point lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeOutcome {
    /// Answered from the hot-key cache.
    Hit,
    /// Key absent from the cache; went to the store read path.
    Miss,
    /// Cached value was stamped with an older shard generation — the
    /// lookup chased the current generation through the store.
    GenerationChase,
}

impl ServeOutcome {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            ServeOutcome::Hit => "hit",
            ServeOutcome::Miss => "miss",
            ServeOutcome::GenerationChase => "generation-chase",
        }
    }
}

/// The typed payload of one trace event.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A task attempt began executing on a worker.
    TaskStart {
        /// Which task.
        task: TaskRef,
        /// Scheduling lane index (0 = serve, 1 = data, 2 = compact).
        lane: u8,
        /// 1-based attempt number. Only the failure of attempt `a` mints
        /// attempt `a + 1` (see [`EventKind::Retry`]), so a task's attempt
        /// numbers form one chain.
        attempt: u32,
    },
    /// The same attempt finished (`ok`) or failed / panicked (`!ok`).
    TaskEnd {
        /// Which task.
        task: TaskRef,
        /// The attempt that ended.
        attempt: u32,
        /// Whether the attempt completed successfully.
        ok: bool,
    },
    /// A failed attempt was rescheduled onto another worker. Emitted at
    /// exactly the executor's retry-counter increment sites, so the trace
    /// count equals `JobMetrics::retries`.
    Retry {
        /// The task being retried.
        task: TaskRef,
        /// The attempt number the rescheduled attempt will carry.
        next_attempt: u32,
    },
    /// One store-plane operation on one shard.
    StoreOp {
        /// Operation kind.
        op: StoreOpKind,
        /// Shard index.
        shard: u64,
        /// Wall nanoseconds the operation took (0 when not timed, e.g.
        /// salvage observed after the fact).
        nanos: u64,
        /// Bytes the operation reclaimed/salvaged/imported (op-specific).
        bytes: u64,
    },
    /// One serving-plane point lookup.
    ServeLookup {
        /// Cache outcome.
        outcome: ServeOutcome,
        /// End-to-end lookup wall nanoseconds.
        nanos: u64,
    },
    /// An ingestion cursor staged a batch from its source.
    IngestPoll {
        /// Structure records staged.
        records: u64,
        /// Invalidated keys staged.
        invalidations: u64,
    },
    /// An ingestion cursor committed a staged batch's high-water marks.
    IngestCommit {
        /// Structure records committed.
        records: u64,
    },
    /// One iteration's checkpoint was written.
    CheckpointSave {
        /// The iteration checkpointed.
        iteration: u64,
        /// Wall nanoseconds the save took.
        nanos: u64,
    },
    /// A mid-run recovery restored state from a checkpoint.
    CheckpointRestore {
        /// The iteration rewound to.
        iteration: u64,
        /// Wall nanoseconds the restore took.
        nanos: u64,
    },
    /// The exact duration an engine added to its per-stage wall-time
    /// accumulator — [`fig9`] sums these.
    StageSample {
        /// Which stage.
        stage: Stage,
        /// Iteration the sample belongs to.
        iteration: u64,
        /// The exact `Instant::elapsed` nanoseconds folded into
        /// `JobMetrics::stages`.
        nanos: u64,
    },
    /// The exact store-I/O delta a `drain_metrics` folded into
    /// `JobMetrics::store_io` — [`table4`] sums these.
    StoreIoSample {
        /// Read calls.
        reads: u64,
        /// Bytes read.
        bytes_read: u64,
        /// Write calls.
        writes: u64,
        /// Bytes written.
        bytes_written: u64,
        /// Reads served from reused scratch buffers.
        scratch_reuses: u64,
        /// `sync_all` calls (commits and compactions).
        syncs: u64,
    },
}

/// Number of distinct [`EventKind`] variants (per-kind counter array size).
const N_KINDS: usize = 11;

/// Stable per-kind names, indexed by [`kind_index`]. Used for registry
/// snapshots and the JSONL `type` field.
const KIND_NAMES: [&str; N_KINDS] = [
    "task_start",
    "task_end",
    "retry",
    "store_op",
    "serve_lookup",
    "ingest_poll",
    "ingest_commit",
    "checkpoint_save",
    "checkpoint_restore",
    "stage",
    "store_io",
];

fn kind_index(kind: &EventKind) -> usize {
    match kind {
        EventKind::TaskStart { .. } => 0,
        EventKind::TaskEnd { .. } => 1,
        EventKind::Retry { .. } => 2,
        EventKind::StoreOp { .. } => 3,
        EventKind::ServeLookup { .. } => 4,
        EventKind::IngestPoll { .. } => 5,
        EventKind::IngestCommit { .. } => 6,
        EventKind::CheckpointSave { .. } => 7,
        EventKind::CheckpointRestore { .. } => 8,
        EventKind::StageSample { .. } => 9,
        EventKind::StoreIoSample { .. } => 10,
    }
}

/// One recorded event: a per-slot sequence stamp, a recorder-epoch
/// timestamp, the emitting slot, and the typed payload.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Strictly increasing per slot (the trace-validity invariant).
    pub seq: u64,
    /// Nanoseconds since the recorder was created.
    pub at_nanos: u64,
    /// Emitting slot: worker index, or [`TraceRecorder::driver_slot`] for
    /// the coordinating thread / helpers / serving front.
    pub worker: u32,
    /// The payload.
    pub kind: EventKind,
}

/// One slot's ring: events plus its drop counter. `next_seq` survives
/// drains so sequence numbers stay monotone across multiple takes.
struct SlotBuf {
    next_seq: u64,
    events: Vec<TraceEvent>,
    dropped: u64,
}

/// Lock-light span/event recorder. See module docs for the overhead model.
pub struct TraceRecorder {
    mode: TelemetryMode,
    epoch: Instant,
    capacity: usize,
    slots: Vec<Mutex<SlotBuf>>,
    counts: [AtomicU64; N_KINDS],
    dropped_total: AtomicU64,
}

impl TraceRecorder {
    /// Recorder for `n_workers` executor threads plus one driver slot,
    /// retaining at most `ring_capacity` events per slot in `Full` mode.
    pub fn new(mode: TelemetryMode, n_workers: usize, ring_capacity: usize) -> Self {
        TraceRecorder {
            mode,
            epoch: Instant::now(),
            capacity: ring_capacity.max(1),
            slots: (0..n_workers + 1)
                .map(|_| {
                    Mutex::new(SlotBuf {
                        next_seq: 0,
                        events: Vec::new(),
                        dropped: 0,
                    })
                })
                .collect(),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            dropped_total: AtomicU64::new(0),
        }
    }

    /// The recording mode this recorder was created with.
    pub fn mode(&self) -> TelemetryMode {
        self.mode
    }

    /// Whether full span retention is on (vs. counters only).
    pub fn is_full(&self) -> bool {
        self.mode == TelemetryMode::Full
    }

    /// The slot index for non-worker threads (driver, helpers, serving).
    pub fn driver_slot(&self) -> usize {
        self.slots.len() - 1
    }

    /// Record one event from `worker` (indices past the driver slot are
    /// clamped onto it — the executor's virtual helper worker lands there).
    pub fn emit(&self, worker: usize, kind: EventKind) {
        self.counts[kind_index(&kind)].fetch_add(1, Ordering::Relaxed);
        if self.mode != TelemetryMode::Full {
            return;
        }
        let slot = worker.min(self.slots.len() - 1);
        let at_nanos = self.epoch.elapsed().as_nanos() as u64;
        let mut buf = lock(&self.slots[slot]);
        if buf.events.len() >= self.capacity {
            buf.dropped += 1;
            self.dropped_total.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let seq = buf.next_seq;
        buf.next_seq += 1;
        buf.events.push(TraceEvent {
            seq,
            at_nanos,
            worker: slot as u32,
            kind,
        });
    }

    /// Record one event from the driver slot.
    pub fn emit_driver(&self, kind: EventKind) {
        self.emit(self.driver_slot(), kind);
    }

    /// Events dropped (all slots) since creation. Drains do **not** reset
    /// this: a trace assembled from multiple takes stays honest about
    /// every event it ever lost.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_total.load(Ordering::Relaxed)
    }

    /// Per-kind event counts since creation (live in `Counters` and
    /// `Full` mode; all zero in `Off`).
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        KIND_NAMES
            .iter()
            .zip(self.counts.iter())
            .map(|(name, c)| (*name, c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Drain every slot's retained events into a [`TraceLog`], re-arming
    /// the rings. Sequence counters keep running, so a log merged from
    /// several takes still validates.
    pub fn take(&self) -> TraceLog {
        self.collect(true)
    }

    /// Copy every slot's retained events without draining.
    pub fn capture(&self) -> TraceLog {
        self.collect(false)
    }

    fn collect(&self, drain: bool) -> TraceLog {
        let workers = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let mut buf = lock(slot);
                let events = if drain {
                    std::mem::take(&mut buf.events)
                } else {
                    buf.events.clone()
                };
                let dropped = buf.dropped;
                if drain {
                    buf.dropped = 0;
                }
                WorkerTrace {
                    worker: i as u32,
                    events,
                    dropped,
                }
            })
            .collect();
        TraceLog { workers }
    }
}

/// One slot's share of a [`TraceLog`].
#[derive(Clone, Debug, Default)]
pub struct WorkerTrace {
    /// Slot index (worker index, or the driver slot).
    pub worker: u32,
    /// Events in recording order (sequence-stamped).
    pub events: Vec<TraceEvent>,
    /// Events this slot dropped at capacity during the covered window.
    pub dropped: u64,
}

/// A collected trace: per-slot event streams plus drop counters.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// One stream per recorder slot.
    pub workers: Vec<WorkerTrace>,
}

impl TraceLog {
    /// Total retained events.
    pub fn len(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    /// Whether no events were retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events dropped at ring capacity over the covered window.
    pub fn dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.dropped).sum()
    }

    /// Iterate all events (slot-major, recording order within a slot).
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.workers.iter().flat_map(|w| w.events.iter())
    }

    /// Append another take's events (e.g. periodic mid-run drains)
    /// slot-by-slot, accumulating drop counters.
    pub fn merge(&mut self, other: TraceLog) {
        if self.workers.len() < other.workers.len() {
            self.workers
                .resize_with(other.workers.len(), Default::default);
            for (i, w) in self.workers.iter_mut().enumerate() {
                w.worker = i as u32;
            }
        }
        for (slot, mut theirs) in other.workers.into_iter().enumerate() {
            let ours = &mut self.workers[slot];
            ours.events.append(&mut theirs.events);
            ours.dropped += theirs.dropped;
        }
    }

    /// Validate the trace-wide invariants:
    ///
    /// * per slot, sequence numbers are **strictly increasing**;
    /// * per slot, task spans are **balanced** — every `TaskStart` has a
    ///   matching later `TaskEnd` for the same `(task, attempt)` and no
    ///   `TaskEnd` arrives unopened (concurrent helpers may interleave
    ///   distinct spans in the driver slot, so balance is per-key, not a
    ///   strict stack).
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> std::result::Result<(), String> {
        for w in &self.workers {
            let mut last_seq: Option<u64> = None;
            let mut open: BTreeMap<(String, u32), u64> = BTreeMap::new();
            for e in &w.events {
                if let Some(prev) = last_seq {
                    if e.seq <= prev {
                        return Err(format!(
                            "slot {}: sequence not strictly increasing ({} after {})",
                            w.worker, e.seq, prev
                        ));
                    }
                }
                last_seq = Some(e.seq);
                match &e.kind {
                    EventKind::TaskStart { task, attempt, .. } => {
                        *open.entry((task_key(task), *attempt)).or_insert(0) += 1;
                    }
                    EventKind::TaskEnd { task, attempt, .. } => {
                        let key = (task_key(task), *attempt);
                        match open.get_mut(&key) {
                            Some(n) if *n > 0 => {
                                *n -= 1;
                                if *n == 0 {
                                    open.remove(&key);
                                }
                            }
                            _ => {
                                return Err(format!(
                                    "slot {}: TaskEnd without open TaskStart for {} attempt {}",
                                    w.worker, key.0, key.1
                                ))
                            }
                        }
                    }
                    _ => {}
                }
            }
            if let Some(((task, attempt), _)) = open.iter().next() {
                return Err(format!(
                    "slot {}: unbalanced span — {task} attempt {attempt} never ended",
                    w.worker
                ));
            }
        }
        Ok(())
    }

    /// Count events matching `pred`.
    pub fn count_matching(&self, pred: impl Fn(&EventKind) -> bool) -> u64 {
        self.iter().filter(|e| pred(&e.kind)).count() as u64
    }

    /// Export as Chrome trace-event JSON (an array of `ph:"X"` complete
    /// spans and `ph:"i"` instants; load in `chrome://tracing`/Perfetto).
    /// Timestamps are microseconds since the recorder epoch; `tid` is the
    /// recorder slot.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        let push = |s: String, out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(&s);
        };
        for w in &self.workers {
            // Open spans per (task, attempt): concurrent helpers can
            // interleave distinct spans within the driver slot.
            let mut open: BTreeMap<(String, u32), Vec<&TraceEvent>> = BTreeMap::new();
            for e in &w.events {
                let tid = e.worker;
                let ts = e.at_nanos as f64 / 1_000.0;
                match &e.kind {
                    EventKind::TaskStart { task, attempt, .. } => {
                        open.entry((task_key(task), *attempt)).or_default().push(e);
                    }
                    EventKind::TaskEnd { task, attempt, ok } => {
                        let key = (task_key(task), *attempt);
                        if let Some(start) = open.get_mut(&key).and_then(Vec::pop) {
                            let (lane, dur) = match &start.kind {
                                EventKind::TaskStart { lane, .. } => {
                                    (*lane, (e.at_nanos - start.at_nanos) as f64 / 1_000.0)
                                }
                                _ => unreachable!("open map only holds TaskStart"),
                            };
                            push(
                                format!(
                                    "{{\"name\":\"{}\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":{:.3},\
                                     \"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"attempt\":{},\
                                     \"lane\":{},\"ok\":{}}}}}",
                                    key.0,
                                    start.at_nanos as f64 / 1_000.0,
                                    dur,
                                    tid,
                                    attempt,
                                    lane,
                                    ok
                                ),
                                &mut out,
                                &mut first,
                            );
                        }
                    }
                    EventKind::StoreOp {
                        op,
                        shard,
                        nanos,
                        bytes,
                    } => push(
                        format!(
                            "{{\"name\":\"store-{}-{}\",\"cat\":\"store\",\"ph\":\"X\",\
                             \"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                             \"args\":{{\"bytes\":{}}}}}",
                            op.name(),
                            shard,
                            (e.at_nanos.saturating_sub(*nanos)) as f64 / 1_000.0,
                            *nanos as f64 / 1_000.0,
                            tid,
                            bytes
                        ),
                        &mut out,
                        &mut first,
                    ),
                    EventKind::ServeLookup { outcome, nanos } => push(
                        format!(
                            "{{\"name\":\"serve-{}\",\"cat\":\"serve\",\"ph\":\"X\",\"ts\":{:.3},\
                             \"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{}}}}",
                            outcome.name(),
                            (e.at_nanos.saturating_sub(*nanos)) as f64 / 1_000.0,
                            *nanos as f64 / 1_000.0,
                            tid
                        ),
                        &mut out,
                        &mut first,
                    ),
                    other => push(
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":{ts:.3},\
                             \"s\":\"t\",\"pid\":1,\"tid\":{tid},\"args\":{{}}}}",
                            KIND_NAMES[kind_index(other)]
                        ),
                        &mut out,
                        &mut first,
                    ),
                }
            }
        }
        out.push_str("\n]\n");
        out
    }

    /// Export as JSONL: one self-contained JSON object per event, in a
    /// fixed field order the [`fig9_from_jsonl`] / [`table4_from_jsonl`]
    /// extractors parse back without a JSON library.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for w in &self.workers {
            for e in &w.events {
                let _ = write!(
                    out,
                    "{{\"worker\":{},\"seq\":{},\"at\":{},\"type\":\"{}\"",
                    e.worker,
                    e.seq,
                    e.at_nanos,
                    KIND_NAMES[kind_index(&e.kind)]
                );
                match &e.kind {
                    EventKind::TaskStart {
                        task,
                        lane,
                        attempt,
                    } => {
                        let _ = write!(
                            out,
                            ",\"kind\":\"{}\",\"index\":{},\"iteration\":{},\"lane\":{},\
                             \"attempt\":{}",
                            task.kind, task.index, task.iteration, lane, attempt
                        );
                    }
                    EventKind::TaskEnd { task, attempt, ok } => {
                        let _ = write!(
                            out,
                            ",\"kind\":\"{}\",\"index\":{},\"iteration\":{},\"attempt\":{},\
                             \"ok\":{}",
                            task.kind, task.index, task.iteration, attempt, ok
                        );
                    }
                    EventKind::Retry { task, next_attempt } => {
                        let _ = write!(
                            out,
                            ",\"kind\":\"{}\",\"index\":{},\"iteration\":{},\"next_attempt\":{}",
                            task.kind, task.index, task.iteration, next_attempt
                        );
                    }
                    EventKind::StoreOp {
                        op,
                        shard,
                        nanos,
                        bytes,
                    } => {
                        let _ = write!(
                            out,
                            ",\"op\":\"{}\",\"shard\":{},\"nanos\":{},\"bytes\":{}",
                            op.name(),
                            shard,
                            nanos,
                            bytes
                        );
                    }
                    EventKind::ServeLookup { outcome, nanos } => {
                        let _ = write!(
                            out,
                            ",\"outcome\":\"{}\",\"nanos\":{}",
                            outcome.name(),
                            nanos
                        );
                    }
                    EventKind::IngestPoll {
                        records,
                        invalidations,
                    } => {
                        let _ = write!(
                            out,
                            ",\"records\":{records},\"invalidations\":{invalidations}"
                        );
                    }
                    EventKind::IngestCommit { records } => {
                        let _ = write!(out, ",\"records\":{records}");
                    }
                    EventKind::CheckpointSave { iteration, nanos }
                    | EventKind::CheckpointRestore { iteration, nanos } => {
                        let _ = write!(out, ",\"iteration\":{iteration},\"nanos\":{nanos}");
                    }
                    EventKind::StageSample {
                        stage,
                        iteration,
                        nanos,
                    } => {
                        let _ = write!(
                            out,
                            ",\"stage\":\"{}\",\"iteration\":{},\"nanos\":{}",
                            stage.name(),
                            iteration,
                            nanos
                        );
                    }
                    EventKind::StoreIoSample {
                        reads,
                        bytes_read,
                        writes,
                        bytes_written,
                        scratch_reuses,
                        syncs,
                    } => {
                        let _ = write!(
                            out,
                            ",\"reads\":{reads},\"bytes_read\":{bytes_read},\"writes\":{writes},\
                             \"bytes_written\":{bytes_written},\"scratch_reuses\":{scratch_reuses},\
                             \"syncs\":{syncs}"
                        );
                    }
                }
                out.push_str("}\n");
            }
        }
        out
    }
}

fn task_key(task: &TaskRef) -> String {
    format!("{}-{}@{}", task.kind, task.index, task.iteration)
}

/// Reproduce the paper's Fig. 9 per-stage wall-time breakdown from a
/// trace: the sum of every [`EventKind::StageSample`]. Over a complete
/// trace this equals the drained `JobMetrics::stages` exactly (the samples
/// carry the exact durations the engines accumulated).
pub fn fig9(log: &TraceLog) -> StageTimes {
    let mut st = StageTimes::default();
    for e in log.iter() {
        if let EventKind::StageSample { stage, nanos, .. } = &e.kind {
            st.add(*stage, Duration::from_nanos(*nanos));
        }
    }
    st
}

/// Reproduce the paper's Table 4 store-I/O counters from a trace: the sum
/// of every [`EventKind::StoreIoSample`]. Over a complete trace this
/// equals the drained `JobMetrics::store_io` exactly.
pub fn table4(log: &TraceLog) -> IoStats {
    let mut io = IoStats::default();
    for e in log.iter() {
        if let EventKind::StoreIoSample {
            reads,
            bytes_read,
            writes,
            bytes_written,
            scratch_reuses,
            syncs,
        } = &e.kind
        {
            io += IoStats {
                reads: *reads,
                bytes_read: *bytes_read,
                writes: *writes,
                bytes_written: *bytes_written,
                scratch_reuses: *scratch_reuses,
                syncs: *syncs,
            };
        }
    }
    io
}

/// Reproduce the paper's Fig. 13 recovery latencies from a trace: for each
/// failed attempt (`TaskEnd { ok: false }` of attempt `a`), the time until
/// the `TaskStart` of attempt `a + 1` of the same task — detection delay
/// plus relaunch. Only a failure mints the next attempt, so the restart is
/// found by key, not by position: slots are not globally ordered, and a
/// restart may sit in an earlier slot than its failure. When a rewind
/// replays an iteration, the same key recurs; a failure pairs with the
/// first matching start at or after it. Unrecovered failures (attempt
/// budget exhausted) report nothing. Sorted by failure time.
pub fn recovery_latencies(log: &TraceLog) -> Vec<(TaskRef, Duration)> {
    let key = |t: &TaskRef, attempt: u32| (t.kind, t.index, t.iteration, attempt);
    let mut starts: BTreeMap<_, Vec<u64>> = BTreeMap::new();
    for e in log.iter() {
        if let EventKind::TaskStart { task, attempt, .. } = &e.kind {
            starts
                .entry(key(task, *attempt))
                .or_default()
                .push(e.at_nanos);
        }
    }
    let mut out: Vec<(u64, TaskRef, Duration)> = log
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::TaskEnd {
                task,
                attempt,
                ok: false,
            } => {
                let failed = e.at_nanos;
                let restart = starts
                    .get(&key(task, attempt + 1))?
                    .iter()
                    .copied()
                    .filter(|&s| s >= failed)
                    .min()?;
                Some((failed, *task, Duration::from_nanos(restart - failed)))
            }
            _ => None,
        })
        .collect();
    out.sort_by_key(|(failed, ..)| *failed);
    out.into_iter().map(|(_, task, lat)| (task, lat)).collect()
}

/// Extract one unsigned-integer JSON field from a [`TraceLog::to_jsonl`]
/// line. The format is produced in-repo with a fixed field order and no
/// string escapes, so a positional scan is exact.
fn jsonl_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract one string JSON field from a [`TraceLog::to_jsonl`] line.
fn jsonl_str<'l>(line: &'l str, key: &str) -> Option<&'l str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// [`fig9`] over a JSONL trace **file's** contents — the paper table
/// reproduced from the exported artifact alone.
pub fn fig9_from_jsonl(text: &str) -> StageTimes {
    let mut st = StageTimes::default();
    for line in text.lines() {
        if !line.contains("\"type\":\"stage\"") {
            continue;
        }
        let (Some(stage), Some(nanos)) = (jsonl_str(line, "stage"), jsonl_u64(line, "nanos"))
        else {
            continue;
        };
        if let Some(stage) = Stage::ALL.iter().find(|s| s.name() == stage) {
            st.add(*stage, Duration::from_nanos(nanos));
        }
    }
    st
}

/// [`table4`] over a JSONL trace **file's** contents.
pub fn table4_from_jsonl(text: &str) -> IoStats {
    let mut io = IoStats::default();
    for line in text.lines() {
        if !line.contains("\"type\":\"store_io\"") {
            continue;
        }
        io.reads += jsonl_u64(line, "reads").unwrap_or(0);
        io.bytes_read += jsonl_u64(line, "bytes_read").unwrap_or(0);
        io.writes += jsonl_u64(line, "writes").unwrap_or(0);
        io.bytes_written += jsonl_u64(line, "bytes_written").unwrap_or(0);
        io.scratch_reuses += jsonl_u64(line, "scratch_reuses").unwrap_or(0);
        io.syncs += jsonl_u64(line, "syncs").unwrap_or(0);
    }
    io
}

/// Number of power-of-two latency buckets tracked by [`LatencyHistogram`].
const HIST_BUCKETS: usize = 64;

/// A lock-free log2-bucketed latency histogram.
///
/// Recording is one relaxed atomic increment, cheap enough for the serving
/// plane's per-lookup read path. Bucket `i` holds samples with
/// `floor(log2(nanos)) == i`, so a quantile estimate is an upper bound
/// within 2× of the true value — the resolution a tail-latency dashboard
/// or [`MetricsRegistry::snapshot`] needs.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample of `nanos` nanoseconds.
    pub fn record(&self, nanos: u64) {
        let b = (64 - nanos.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[b.min(HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Upper-bound estimate of the 99th-percentile sample in nanoseconds.
    /// Returns `0` for an empty histogram.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Upper-bound estimate of quantile `q ∈ [0, 1]` in nanoseconds.
    /// Returns `0` for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper edge of bucket i: 2^(i+1) - 1.
                return if i + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        unreachable!("rank <= total")
    }

    /// Reset every bucket to zero (used when metrics are drained).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Point-in-time view of a [`LatencyHistogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Median upper bound (log2-bucket edge).
    pub p50: u64,
    /// 99th-percentile upper bound (log2-bucket edge).
    pub p99: u64,
}

/// Point-in-time view of a [`MetricsRegistry`]: every named instrument's
/// current value. Cheap to take mid-run (relaxed atomic loads under three
/// short map locks).
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, u64>,
    /// Latency histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Render as sorted `name value` lines (dashboard / log friendly).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {k} {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge {k} {v}");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {k} count={} p50<={} p99<={}",
                h.count, h.p50, h.p99
            );
        }
        out
    }
}

/// Registry of named counters / gauges / latency histograms.
///
/// Instruments are created on first use and live for the registry's
/// lifetime as `Arc`-shared atomics: holders update them with relaxed
/// stores off the registry's locks, so the per-event cost is one atomic.
/// Unlike `JobMetrics` drains, registry values are **never reset** — a
/// dashboard polling [`MetricsRegistry::snapshot`] between fences sees
/// live, monotone values.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<LatencyHistogram>>>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        Arc::clone(
            lock(&self.counters)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<AtomicU64> {
        Arc::clone(
            lock(&self.gauges)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Set the gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.gauge(name).store(value, Ordering::Relaxed);
    }

    /// Get or create the latency histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        Arc::clone(
            lock(&self.histograms)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(LatencyHistogram::new())),
        )
    }

    /// Register `hist` under `name`, replacing any prior instrument —
    /// used to surface an existing shared sink (e.g. the serving plane's
    /// latency histogram) without double-recording.
    pub fn register_histogram(&self, name: &str, hist: Arc<LatencyHistogram>) {
        lock(&self.histograms).insert(name.to_string(), hist);
    }

    /// Point-in-time snapshot of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = lock(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = lock(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = lock(&self.histograms)
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        count: h.count(),
                        p50: h.quantile(0.50),
                        p99: h.quantile(0.99),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(i: u64) -> TaskRef {
        TaskRef {
            kind: "map",
            index: i,
            iteration: 0,
        }
    }

    #[test]
    fn off_and_counters_retain_no_events() {
        for mode in [TelemetryMode::Off, TelemetryMode::Counters] {
            let r = TraceRecorder::new(mode, 2, 16);
            r.emit(
                0,
                EventKind::TaskStart {
                    task: task(0),
                    lane: 1,
                    attempt: 1,
                },
            );
            assert!(r.take().is_empty());
        }
        let counters = TraceRecorder::new(TelemetryMode::Counters, 2, 16);
        counters.emit(
            0,
            EventKind::Retry {
                task: task(0),
                next_attempt: 2,
            },
        );
        assert_eq!(
            counters
                .kind_counts()
                .iter()
                .find(|(n, _)| *n == "retry")
                .unwrap()
                .1,
            1
        );
    }

    #[test]
    fn full_records_with_monotone_seq_and_balanced_spans() {
        let r = TraceRecorder::new(TelemetryMode::Full, 2, 1024);
        for i in 0..5u64 {
            r.emit(
                (i % 2) as usize,
                EventKind::TaskStart {
                    task: task(i),
                    lane: 1,
                    attempt: 1,
                },
            );
            r.emit(
                (i % 2) as usize,
                EventKind::TaskEnd {
                    task: task(i),
                    attempt: 1,
                    ok: true,
                },
            );
        }
        let log = r.take();
        assert_eq!(log.len(), 10);
        log.validate().unwrap();
    }

    #[test]
    fn validation_flags_unbalanced_and_non_monotone() {
        let mut log = TraceLog::default();
        log.workers.push(WorkerTrace {
            worker: 0,
            events: vec![TraceEvent {
                seq: 0,
                at_nanos: 1,
                worker: 0,
                kind: EventKind::TaskStart {
                    task: task(0),
                    lane: 1,
                    attempt: 1,
                },
            }],
            dropped: 0,
        });
        assert!(log.validate().unwrap_err().contains("unbalanced"));

        let end = TraceEvent {
            seq: 0, // duplicate seq
            at_nanos: 2,
            worker: 0,
            kind: EventKind::TaskEnd {
                task: task(0),
                attempt: 1,
                ok: true,
            },
        };
        log.workers[0].events.push(end);
        assert!(log.validate().unwrap_err().contains("strictly increasing"));
    }

    #[test]
    fn drops_are_counted_never_silent() {
        let r = TraceRecorder::new(TelemetryMode::Full, 1, 2);
        for i in 0..5u64 {
            r.emit(0, EventKind::IngestCommit { records: i });
        }
        assert_eq!(r.dropped_events(), 3);
        let log = r.take();
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        // Dropped-total survives the take (honest across assembled logs).
        assert_eq!(r.dropped_events(), 3);
        // The ring re-arms after a take.
        r.emit(0, EventKind::IngestCommit { records: 9 });
        assert_eq!(r.take().len(), 1);
    }

    #[test]
    fn seq_stays_monotone_across_takes() {
        let r = TraceRecorder::new(TelemetryMode::Full, 1, 64);
        r.emit(0, EventKind::IngestCommit { records: 1 });
        let mut log = r.take();
        r.emit(0, EventKind::IngestCommit { records: 2 });
        log.merge(r.take());
        log.validate().unwrap();
        let seqs: Vec<u64> = log.workers[0].events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn fig9_and_table4_roundtrip_through_jsonl() {
        let r = TraceRecorder::new(TelemetryMode::Full, 1, 64);
        r.emit_driver(EventKind::StageSample {
            stage: Stage::Map,
            iteration: 0,
            nanos: 1_000,
        });
        r.emit_driver(EventKind::StageSample {
            stage: Stage::Map,
            iteration: 1,
            nanos: 500,
        });
        r.emit_driver(EventKind::StageSample {
            stage: Stage::Reduce,
            iteration: 1,
            nanos: 2_000,
        });
        r.emit_driver(EventKind::StoreIoSample {
            reads: 3,
            bytes_read: 300,
            writes: 2,
            bytes_written: 200,
            scratch_reuses: 1,
            syncs: 4,
        });
        r.emit_driver(EventKind::StoreIoSample {
            reads: 1,
            bytes_read: 7,
            writes: 0,
            bytes_written: 0,
            scratch_reuses: 0,
            syncs: 2,
        });
        let log = r.take();
        let st = fig9(&log);
        assert_eq!(st.get(Stage::Map), Duration::from_nanos(1_500));
        assert_eq!(st.get(Stage::Reduce), Duration::from_nanos(2_000));
        let io = table4(&log);
        assert_eq!((io.reads, io.bytes_read), (4, 307));
        assert_eq!(
            (io.writes, io.bytes_written, io.scratch_reuses, io.syncs),
            (2, 200, 1, 6)
        );

        let jsonl = log.to_jsonl();
        assert_eq!(fig9_from_jsonl(&jsonl), st);
        assert_eq!(table4_from_jsonl(&jsonl), io);
    }

    #[test]
    fn chrome_export_is_wellformed_and_pairs_spans() {
        let r = TraceRecorder::new(TelemetryMode::Full, 1, 64);
        r.emit(
            0,
            EventKind::TaskStart {
                task: task(3),
                lane: 1,
                attempt: 1,
            },
        );
        r.emit(
            0,
            EventKind::TaskEnd {
                task: task(3),
                attempt: 1,
                ok: true,
            },
        );
        r.emit_driver(EventKind::ServeLookup {
            outcome: ServeOutcome::Hit,
            nanos: 250,
        });
        let json = r.take().to_chrome_json();
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""), "paired span present");
        assert!(json.contains("map-3@0"));
        assert!(json.contains("serve-hit"));
        // Balanced braces/brackets (cheap well-formedness proxy — the
        // format has no nested strings with braces).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn registry_snapshot_is_live_and_monotone() {
        let reg = MetricsRegistry::new();
        let hits = reg.counter("serve.hits");
        hits.fetch_add(3, Ordering::Relaxed);
        reg.histogram("serve.latency").record(1_000);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.hits"), 3);
        assert_eq!(snap.histograms["serve.latency"].count, 1);
        assert_eq!(snap.counter("absent"), 0);
        // Counters are shared handles, not copies.
        hits.fetch_add(1, Ordering::Relaxed);
        assert_eq!(reg.snapshot().counter("serve.hits"), 4);
        assert!(snap.render().contains("counter serve.hits 3"));
    }

    /// One trace event on `slot` at `ms` milliseconds.
    fn at(slot: u32, seq: u64, ms: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            at_nanos: ms * 1_000_000,
            worker: slot,
            kind,
        }
    }

    fn start(t: TaskRef, attempt: u32) -> EventKind {
        EventKind::TaskStart {
            task: t,
            lane: 1,
            attempt,
        }
    }

    fn end(t: TaskRef, attempt: u32, ok: bool) -> EventKind {
        EventKind::TaskEnd {
            task: t,
            attempt,
            ok,
        }
    }

    fn one_slot(events: Vec<TraceEvent>) -> TraceLog {
        TraceLog {
            workers: vec![WorkerTrace {
                worker: 0,
                events,
                dropped: 0,
            }],
        }
    }

    #[test]
    fn recovery_latency_measures_fail_to_restart() {
        let t = task(1);
        let log = one_slot(vec![
            at(0, 0, 10, start(t, 1)),
            at(0, 1, 20, end(t, 1, false)),
            at(0, 2, 32, start(t, 2)),
            at(0, 3, 50, end(t, 2, true)),
        ]);
        assert_eq!(
            recovery_latencies(&log),
            vec![(t, Duration::from_millis(12))]
        );
        // An unrecovered failure (budget exhausted) reports nothing.
        let log = one_slot(vec![
            at(0, 0, 5, start(t, 1)),
            at(0, 1, 9, end(t, 1, false)),
        ]);
        assert!(recovery_latencies(&log).is_empty());
    }

    #[test]
    fn recovery_latency_attributes_to_the_matching_attempt() {
        // Attempt 1 fails on slot 1; the restart runs on slot 0, which the
        // log lists first — slot-major order puts the restart *before*
        // its failure. An unrelated task's attempt 2 on slot 0 must not be
        // paired with it, and neither may the restart of an earlier batch
        // that reused the same task id (fail at 2 ms, restart at 4 ms).
        let t = TaskRef {
            kind: "reduce",
            index: 4,
            iteration: 2,
        };
        let log = TraceLog {
            workers: vec![
                WorkerTrace {
                    worker: 0,
                    events: vec![
                        at(0, 0, 4, start(t, 2)),
                        at(0, 1, 6, end(t, 2, true)),
                        at(0, 2, 22, start(task(4), 2)),
                        at(0, 3, 23, end(task(4), 2, true)),
                        at(0, 4, 32, start(t, 2)),
                        at(0, 5, 40, end(t, 2, true)),
                    ],
                    dropped: 0,
                },
                WorkerTrace {
                    worker: 1,
                    events: vec![
                        at(1, 0, 1, start(t, 1)),
                        at(1, 1, 2, end(t, 1, false)),
                        at(1, 2, 10, start(t, 1)),
                        at(1, 3, 20, end(t, 1, false)),
                    ],
                    dropped: 0,
                },
            ],
        };
        log.validate().unwrap();
        assert_eq!(
            recovery_latencies(&log),
            vec![
                (t, Duration::from_millis(2)),
                (t, Duration::from_millis(12))
            ]
        );
    }

    #[test]
    fn histogram_p99_and_reset() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p99(), 0);
        for _ in 0..99 {
            h.record(100); // bucket 6, upper edge 127
        }
        h.record(100_000); // bucket 16, upper edge 131071
        assert_eq!(h.count(), 100);
        assert_eq!(h.p99(), 127);
        assert_eq!(h.quantile(1.0), 131_071);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn histogram_zero_nanos_goes_to_bucket_zero() {
        let h = LatencyHistogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(1.0), 1);
    }

    #[test]
    fn config_validation() {
        assert!(TelemetryConfig::default().is_valid());
        let bad = TelemetryConfig {
            mode: TelemetryMode::Full,
            ring_capacity: 0,
            ..Default::default()
        };
        assert!(!bad.is_valid());
        assert!(TelemetryConfig::with_mode(TelemetryMode::Counters).is_valid());
    }
}
