//! Persistent work-stealing executor with task affinity, cross-worker
//! recovery, and epochs.
//!
//! The pool plays the role of the cluster's TaskTrackers plus the
//! JobTracker's scheduling loop (paper §2, §6.1), but unlike the original
//! spawn-per-call design it keeps its worker threads alive for the whole
//! job sequence — the HaLoop-style loop-aware scheduler that turns
//! per-iteration savings into end-to-end speedup:
//!
//! * **Long-lived workers.** `WorkerPool::new` spawns the threads once;
//!   every `run_tasks` call and every background submission reuses them.
//!   The handle is cheaply cloneable (`Arc` inside), so subsystems such as
//!   the store runtime keep their own handle to the *shared* executor
//!   instead of borrowing a pool per call.
//! * **Per-worker deques + global injector.** Tasks with a placement
//!   preference (block locality for map tasks; the co-location rule for
//!   prime map/reduce pairs, §4.3; partition affinity for store
//!   merges/compactions) land on their worker's own deque. A worker always
//!   drains its own deque first, then the injector, and only *steals* from
//!   the back of a peer's deque when it is otherwise idle and the peer is
//!   busy executing — so affinity is a hint that yields under load but is
//!   deterministic when the preferred worker is free.
//! * **Priority lanes.** Every queue (per-worker deques and the injector)
//!   is split into three [`Lane`]s: `Serve` (serving-plane point reads)
//!   preempts `Data` (map/sort/merge/reduce), which preempts `Compact`
//!   (background store reconstruction). Workers and thieves always drain
//!   higher lanes first, so a flood of queued compactions can never sit in
//!   front of a latency-sensitive lookup — the scheduling half of the
//!   serving plane's p99 story. Preemption is at job granularity (a
//!   running compaction is never interrupted), which bounds the added
//!   latency at one task body.
//! * **Helping fences.** A thread blocked in [`WorkerPool::fence`] (or the
//!   `run_tasks` coordinator waiting out its batch) does not just park: it
//!   *helps*, repeatedly claiming queued jobs it is already waiting on and
//!   running them inline as the virtual worker `n_workers`. Helpers only
//!   ever take work gated by their own fence — background jobs at epochs
//!   at or before the fenced epoch, or jobs of the coordinator's own batch
//!   — so helping can shorten a fence but never entangle it with work that
//!   might outlive it (a gate-blocked later-epoch task must not capture
//!   the fencing thread). Helpers follow the thief's placement rule:
//!   pinned jobs are taken only from *busy* victims, so idle-placement
//!   determinism is unchanged.
//! * **Epoch/fence API.** [`WorkerPool::submit_at`] enqueues detached
//!   background work (store compactions) tagged with an epoch from
//!   [`WorkerPool::next_epoch`]; [`WorkerPool::fence`] blocks until every
//!   task at or before that epoch has drained, surfacing the first error.
//!   Engines use this to let the previous iteration's compactions overlap
//!   the next iteration's map phase, fencing only before the merge that
//!   needs the shards quiescent.
//! * **Cross-worker recovery.** A failed attempt is *rescheduled onto a
//!   different worker* with exponential backoff (base = the configured
//!   detection delay, doubling per failed attempt) until the attempt
//!   budget is exhausted — the paper's same-TaskTracker retry cannot
//!   survive a lost worker, which the ROADMAP's distributed tier requires.
//!   A panicking task body is caught and isolated into an attempt failure
//!   (a dying worker fails the *task*, never the run). Only a failed
//!   attempt `a` mints attempt `a + 1`, so a task has at most one live
//!   attempt. Every attempt's start and end is emitted as a
//!   `TaskStart`/`TaskEnd` event to the installed [`TraceRecorder`] —
//!   the executor keeps no record of its own; Fig. 13 reads recoveries off
//!   the trace (`i2mr_common::telemetry::recovery_latencies`).
//! * **Seeded failpoints.** Beyond the targeted one-shot [`FaultPlan`],
//!   an armed [`FailpointRegistry`] fires inside task bodies
//!   ([`FailSite::TaskRun`]) as injected errors or simulated worker death
//!   (panics), driving the chaos-soak suites.
//! * **Graceful shutdown.** Dropping the last handle (or calling
//!   [`WorkerPool::shutdown`]) drains every queued task — including
//!   pending background compactions — before joining the workers.
//!
//! # Re-entrancy
//!
//! `run_tasks` and `fence` block until *other* pool threads make
//! progress, so they must not be called from inside a task running on the
//! same pool — on a saturated (or 1-worker) pool the nested call's work
//! queues behind the blocked caller forever. Debug builds assert this.
//!
//! # Soundness of borrowed batches
//!
//! [`WorkerPool::run_tasks`] accepts tasks that borrow job-local data
//! (`'a`), yet workers are `'static` threads. The lifetime is erased with
//! a well-fenced `transmute`: every job of a batch (initial attempts and
//! retries — both minted by the coordinating `run_tasks` call itself,
//! never by workers) borrows state
//! owned by the `run_tasks` stack frame and holds a guard whose drop
//! releases the batch fence. `run_tasks` returns only once every guard has
//! been released *and* no retry ticket is outstanding, so no borrow
//! outlives the call — the same discipline scoped-thread libraries use.

use crate::fault::{FailSite, FailpointRegistry, FaultPlan, TaskId};
use i2mr_common::error::{Error, Result};
use i2mr_common::telemetry::{self, TaskRef, TraceRecorder};
use parking_lot::Mutex as PlMutex;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduling priority lane. Workers drain lanes strictly in priority
/// order (own deque, then injector, then steals — higher lanes first at
/// every step), so queued lower-lane work never delays a higher-lane job
/// by more than the one task body already executing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Serving-plane reads: preempt everything queued.
    Serve,
    /// Data-plane tasks (map/sort/store-merge/reduce) — the default.
    #[default]
    Data,
    /// Background compactions: run only when nothing else is queued.
    Compact,
}

/// Number of scheduling lanes.
const N_LANES: usize = 3;

impl Lane {
    fn idx(self) -> usize {
        match self {
            Lane::Serve => 0,
            Lane::Data => 1,
            Lane::Compact => 2,
        }
    }
}

/// One schedulable unit of work producing a `T`.
///
/// The lifetime `'a` lets tasks borrow job-local data (input splits, sorted
/// runs) instead of cloning it per task.
pub struct TaskSpec<'a, T> {
    /// Logical identity (kind, index, iteration) — used for fault matching
    /// and trace events.
    pub id: TaskId,
    /// Preferred worker index; `None` lets the pool round-robin.
    pub preferred_worker: Option<usize>,
    /// Scheduling priority lane ([`Lane::Data`] unless overridden).
    pub lane: Lane,
    /// The work. Receives the attempt number (1-based); may be invoked
    /// multiple times on retry, each time from whichever worker runs the
    /// attempt (hence `Sync`), so it must be idempotent.
    pub run: Box<dyn Fn(u32) -> Result<T> + Send + Sync + 'a>,
}

impl<'a, T> TaskSpec<'a, T> {
    /// Build a task with no placement preference.
    pub fn new(id: TaskId, run: impl Fn(u32) -> Result<T> + Send + Sync + 'a) -> Self {
        TaskSpec {
            id,
            preferred_worker: None,
            lane: Lane::Data,
            run: Box::new(run),
        }
    }

    /// Build a task pinned to prefer `worker`.
    pub fn pinned(
        id: TaskId,
        worker: usize,
        run: impl Fn(u32) -> Result<T> + Send + Sync + 'a,
    ) -> Self {
        TaskSpec {
            id,
            preferred_worker: Some(worker),
            lane: Lane::Data,
            run: Box::new(run),
        }
    }

    /// Same task, scheduled on `lane`.
    pub fn on_lane(mut self, lane: Lane) -> Self {
        self.lane = lane;
        self
    }
}

/// Executor construction knobs (see [`WorkerPool::with_config`]).
pub struct PoolConfig {
    /// Number of persistent worker threads.
    pub n_workers: usize,
    /// Attempt budget per task (1 = no retries).
    pub max_attempts: u32,
    /// Simulated heartbeat-based failure-detection delay: the backoff base
    /// between a failed attempt and its rescheduled successor (doubling per
    /// failed attempt, capped at 32x).
    pub detection_delay: Duration,
    /// Targeted one-shot task faults (Fig. 13 reproduction).
    pub fault_plan: Arc<FaultPlan>,
    /// Seeded chaos failpoints; [`FailSite::TaskRun`] fires inside task
    /// bodies.
    pub failpoints: Arc<FailpointRegistry>,
}

impl PoolConfig {
    /// Defaults matching [`WorkerPool::new`]: 3 attempts, zero detection
    /// delay, no faults.
    pub fn new(n_workers: usize) -> Self {
        PoolConfig {
            n_workers,
            max_attempts: 3,
            detection_delay: Duration::ZERO,
            fault_plan: Arc::new(FaultPlan::none()),
            failpoints: Arc::new(FailpointRegistry::disarmed()),
        }
    }
}

/// A type-erased job: receives the executing worker's index.
type Job = Box<dyn FnOnce(usize) + Send + 'static>;

/// What a queued job's completion gates — the unit a blocked fence is
/// allowed to *help* with. A fence caller may only run jobs whose scope it
/// is already waiting on: anything else (a gate-blocked later-epoch task,
/// another caller's batch) could capture the helping thread past its own
/// fence and deadlock it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum HelpScope {
    /// Background submission tagged with this fence epoch.
    Epoch(u64),
    /// Job of the `run_tasks` batch with this token (coordinator-stack
    /// address — unique while the batch is alive).
    Batch(usize),
}

/// A job queued in the scheduler, with the metadata helpers filter on.
struct QueuedJob {
    scope: HelpScope,
    job: Job,
}

std::thread_local! {
    /// True on threads that are workers of *some* pool. `run_tasks` and
    /// `fence` block until other pool threads make progress, so calling
    /// them from inside a task can deadlock (a 1-worker pool always does);
    /// the debug assertion makes that failure loud instead of a hang.
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Lock a std mutex, transparently recovering from poisoning (matching the
/// no-poisoning contract the rest of the workspace gets from parking_lot).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn wait<'g, T>(cv: &Condvar, guard: MutexGuard<'g, T>) -> MutexGuard<'g, T> {
    cv.wait(guard).unwrap_or_else(|p| p.into_inner())
}

fn wait_timeout<'g, T>(cv: &Condvar, guard: MutexGuard<'g, T>, d: Duration) -> MutexGuard<'g, T> {
    cv.wait_timeout(guard, d)
        .map(|(g, _)| g)
        .unwrap_or_else(|p| p.into_inner().0)
}

/// Exponential backoff before the attempt following `failed_attempt`:
/// `base * 2^(failed_attempt - 1)`, capped at 32x.
fn backoff_for(base: Duration, failed_attempt: u32) -> Duration {
    if base.is_zero() {
        return Duration::ZERO;
    }
    base * (1u32 << failed_attempt.saturating_sub(1).min(5))
}

/// Scheduler state: the global injector plus one deque per worker, each
/// split into [`N_LANES`] priority lanes.
struct Sched {
    injectors: [VecDeque<QueuedJob>; N_LANES],
    locals: Vec<[VecDeque<QueuedJob>; N_LANES]>,
    /// True while worker `i` is executing a job — the steal predicate.
    busy: Vec<bool>,
    shutdown: bool,
}

/// Epoch bookkeeping for background submissions.
#[derive(Default)]
struct FenceTable {
    /// Outstanding task count per epoch.
    pending: BTreeMap<u64, usize>,
    /// First terminal error recorded per epoch.
    errors: BTreeMap<u64, Error>,
}

/// Shared executor state; workers hold only this (never a `WorkerPool`
/// handle), so the last external handle's drop can join them.
struct Core {
    n_workers: usize,
    max_attempts: u32,
    detection_delay: Duration,
    fault_plan: Arc<FaultPlan>,
    failpoints: Arc<FailpointRegistry>,
    sched: Mutex<Sched>,
    work: Condvar,
    fences: Mutex<FenceTable>,
    fence_done: Condvar,
    epoch_counter: AtomicU64,
    /// Failed attempts rescheduled onto another worker since last drain.
    retries: AtomicU64,
    /// Telemetry-plane recorder (see `i2mr_common::telemetry`). `None`
    /// unless a session installed one via [`WorkerPool::set_recorder`] —
    /// the `Off` path never allocates or emits.
    recorder: PlMutex<Option<Arc<TraceRecorder>>>,
}

/// The executor's `TaskId` rendered as a telemetry task reference.
fn task_ref(id: TaskId) -> TaskRef {
    TaskRef {
        kind: id.kind.name(),
        index: id.index as u64,
        iteration: id.iteration,
    }
}

impl Core {
    /// Emit one telemetry event from `worker` if a recorder is installed.
    fn emit(&self, worker: usize, kind: telemetry::EventKind) {
        if let Some(r) = &*self.recorder.lock() {
            r.emit(worker, kind);
        }
    }

    /// Execute exactly one attempt of a task on `worker`: fault-plan and
    /// failpoint injection, trace events, and panic isolation — a panic
    /// inside the body (injected worker death or a real bug) is caught and
    /// converted into an attempt failure, so a dying worker can only ever
    /// fail the task, never abort the run.
    fn run_one_attempt<T>(
        &self,
        worker: usize,
        id: TaskId,
        attempt: u32,
        lane: Lane,
        run: &(dyn Fn(u32) -> Result<T> + Send + Sync + '_),
    ) -> Result<T> {
        self.emit(
            worker,
            telemetry::EventKind::TaskStart {
                task: task_ref(id),
                lane: lane.idx() as u8,
                attempt,
            },
        );
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if self.fault_plan.should_fail(id, attempt) {
                return Err(Error::TaskFailed {
                    task: id.label(),
                    attempts: attempt,
                    reason: "injected fault".into(),
                });
            }
            self.failpoints.check(FailSite::TaskRun, &id.label())?;
            run(attempt)
        }));
        self.emit(
            worker,
            telemetry::EventKind::TaskEnd {
                task: task_ref(id),
                attempt,
                ok: matches!(outcome, Ok(Ok(_))),
            },
        );
        match outcome {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) => Err(e),
            Err(_payload) => Err(Error::TaskFailed {
                task: id.label(),
                attempts: attempt,
                reason: "attempt panicked (worker lost)".into(),
            }),
        }
    }

    /// Enqueue a job, preferring `preferred`'s deque (injector otherwise).
    /// After shutdown the job runs inline on the caller so no work — and no
    /// fence — is ever lost.
    fn submit(&self, preferred: Option<usize>, lane: Lane, scope: HelpScope, job: Job) {
        self.submit_jobs(std::iter::once((preferred, lane, scope, job)));
    }

    /// Enqueue a whole batch under one scheduler-lock acquisition and a
    /// single wakeup — `run_tasks` is the hottest scheduling path (every
    /// map/sort/merge phase of every iteration), so per-task lock+notify
    /// round-trips would be O(batch × workers) spurious wakeups.
    fn submit_jobs(&self, jobs: impl Iterator<Item = (Option<usize>, Lane, HelpScope, Job)>) {
        let mut leftover: Vec<(Option<usize>, Lane, HelpScope, Job)> = Vec::new();
        {
            let mut s = lock(&self.sched);
            if !s.shutdown {
                for (preferred, lane, scope, job) in jobs {
                    let q = QueuedJob { scope, job };
                    match preferred {
                        Some(w) => {
                            let w = w % self.n_workers;
                            s.locals[w][lane.idx()].push_back(q);
                        }
                        None => s.injectors[lane.idx()].push_back(q),
                    }
                }
                drop(s);
                self.work.notify_all();
                return;
            }
            leftover.extend(jobs);
        }
        for (preferred, _lane, _scope, job) in leftover {
            job(preferred.unwrap_or(0) % self.n_workers);
        }
    }

    /// Pop the next job for `me`, highest lane first at every step: own
    /// deque front, then injector, then steal from the *back* of a busy
    /// peer's deque. Idle peers are never stolen from — they will wake and
    /// honor their own affinity.
    fn next_job(s: &mut Sched, me: usize) -> Option<QueuedJob> {
        for lane in 0..N_LANES {
            if let Some(j) = s.locals[me][lane].pop_front() {
                return Some(j);
            }
            if let Some(j) = s.injectors[lane].pop_front() {
                return Some(j);
            }
        }
        let n = s.locals.len();
        for lane in 0..N_LANES {
            for off in 1..n {
                let victim = (me + off) % n;
                if s.busy[victim] {
                    if let Some(j) = s.locals[victim][lane].pop_back() {
                        return Some(j);
                    }
                }
            }
        }
        None
    }

    /// Claim one queued job whose [`HelpScope`] satisfies `want`, for a
    /// blocked fence to run inline. Follows the thief's placement rule —
    /// injectors freely, pinned jobs only off *busy* victims' backs — so
    /// helping never perturbs idle-placement determinism.
    fn next_help(s: &mut Sched, want: &dyn Fn(HelpScope) -> bool) -> Option<QueuedJob> {
        for lane in 0..N_LANES {
            if let Some(pos) = s.injectors[lane].iter().position(|q| want(q.scope)) {
                return s.injectors[lane].remove(pos);
            }
        }
        let n = s.locals.len();
        for lane in 0..N_LANES {
            for victim in 0..n {
                if s.busy[victim] {
                    if let Some(pos) = s.locals[victim][lane].iter().rposition(|q| want(q.scope)) {
                        return s.locals[victim][lane].remove(pos);
                    }
                }
            }
        }
        None
    }

    /// Help once: claim a queued job matching `want` and run it on the
    /// calling thread as the virtual worker `n_workers`. Returns `false`
    /// when no matching job is queued (it is either executing on a real
    /// worker or not yet submitted). The caller thread is marked as a pool
    /// worker for the job's duration so nested-blocking misuse inside a
    /// helped body trips the same debug assertions a real worker would.
    fn help_one(&self, want: &dyn Fn(HelpScope) -> bool) -> bool {
        let claimed = {
            let mut s = lock(&self.sched);
            Core::next_help(&mut s, want)
        };
        match claimed {
            Some(q) => {
                let was = IS_POOL_WORKER.with(|w| w.replace(true));
                let _ = catch_unwind(AssertUnwindSafe(|| (q.job)(self.n_workers)));
                IS_POOL_WORKER.with(|w| w.set(was));
                true
            }
            None => false,
        }
    }

    fn worker_loop(self: &Arc<Core>, me: usize) {
        IS_POOL_WORKER.with(|w| w.set(true));
        loop {
            let (job, stealable_left) = {
                let mut s = lock(&self.sched);
                loop {
                    if let Some(j) = Core::next_job(&mut s, me) {
                        s.busy[me] = true;
                        break (Some(j), s.locals[me].iter().any(|d| !d.is_empty()));
                    }
                    if s.shutdown {
                        break (None, false);
                    }
                    s = wait(&self.work, s);
                }
            };
            let Some(q) = job else { return };
            // This worker just went busy: if its deque still holds jobs
            // they only now became stealable, so idle peers must re-scan.
            // (Going idle again never creates work, so job completion
            // needs no wakeup.)
            if stealable_left {
                self.work.notify_all();
            }
            // Jobs built by this pool catch panics internally and route the
            // outcome to their batch; this outer catch is a last line of
            // defense keeping the worker alive for raw submissions.
            let _ = catch_unwind(AssertUnwindSafe(|| (q.job)(me)));
            lock(&self.sched).busy[me] = false;
        }
    }
}

/// One background attempt chain link: executes the attempt and, on a
/// non-terminal failure, re-submits the *next* attempt on a different
/// worker after the exponential-backoff delay, carrying the `EpochGuard`
/// through the chain so the fence only releases when the chain terminates.
fn submit_bg_attempt(
    core: Arc<Core>,
    epoch: u64,
    guard: EpochGuard,
    task: Arc<TaskSpec<'static, ()>>,
    attempt: u32,
    preferred: Option<usize>,
    delay: Duration,
) {
    let job_core = Arc::clone(&core);
    let lane = task.lane;
    let job: Job = Box::new(move |worker: usize| {
        let guard = guard;
        // Backoff runs on the retry worker: detached background work has no
        // coordinator thread to park the delay on, and compaction retries
        // are rare enough that briefly occupying one worker is acceptable.
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        match job_core.run_one_attempt(worker, task.id, attempt, task.lane, &*task.run) {
            Ok(()) => drop(guard),
            Err(e) => {
                if attempt >= job_core.max_attempts {
                    let terminal = Error::TaskFailed {
                        task: task.id.label(),
                        attempts: attempt,
                        reason: e.to_string(),
                    };
                    let mut t = lock(&job_core.fences);
                    t.errors.entry(epoch).or_insert(terminal);
                    drop(t);
                    drop(guard);
                } else {
                    job_core.retries.fetch_add(1, Ordering::Relaxed);
                    job_core.emit(
                        worker,
                        telemetry::EventKind::Retry {
                            task: task_ref(task.id),
                            next_attempt: attempt + 1,
                        },
                    );
                    let next_pref = Some((worker + 1) % job_core.n_workers);
                    let backoff = backoff_for(job_core.detection_delay, attempt);
                    submit_bg_attempt(
                        Arc::clone(&job_core),
                        epoch,
                        guard,
                        Arc::clone(&task),
                        attempt + 1,
                        next_pref,
                        backoff,
                    );
                }
            }
        }
    });
    core.submit(preferred, lane, HelpScope::Epoch(epoch), job);
}

/// Owns the worker threads; dropping the last [`WorkerPool`] handle drains
/// the queues and joins the threads.
struct PoolShared {
    core: Arc<Core>,
    threads: PlMutex<Vec<JoinHandle<()>>>,
}

impl PoolShared {
    fn shutdown_and_join(&self) {
        {
            let mut s = lock(&self.core.sched);
            s.shutdown = true;
        }
        self.core.work.notify_all();
        let handles: Vec<JoinHandle<()>> = self.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for PoolShared {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Persistent work-stealing worker pool. See module docs.
///
/// Cloning is cheap and shares the same executor; the worker threads stop
/// (after draining all queued work) when the last clone is dropped.
#[derive(Clone)]
pub struct WorkerPool {
    shared: Arc<PoolShared>,
}

/// A retry minted by a failed attempt, claimed and launched by the batch
/// coordinator once `not_before` passes.
#[derive(Clone, Copy)]
struct RetryTicket {
    attempt: u32,
    not_before: Instant,
    /// Cross-worker placement: the worker after the one that failed.
    preferred: Option<usize>,
}

/// Per-task recovery state for one `run_tasks` batch. Owned by the
/// coordinator's stack frame; jobs borrow it.
struct TaskState<'a, T> {
    spec: TaskSpec<'a, T>,
    slot: usize,
    /// Set by a failed attempt with budget left; drained by the coordinator.
    pending_retry: PlMutex<Option<RetryTicket>>,
}

/// One `run_tasks` batch: result slots plus the completion fence.
struct Batch<T> {
    slots: PlMutex<Vec<Option<T>>>,
    /// Live job guards (initial attempts + retries). The fence requires
    /// this to reach zero.
    remaining: Mutex<usize>,
    done: Condvar,
    abort: AtomicBool,
    first_err: PlMutex<Option<Error>>,
}

/// Decrements the batch's live-job count on drop — every submitted job
/// releases the fence exactly once, on success, error, or abort. Always
/// notifies: the coordinator also wakes to claim retry tickets.
struct BatchGuard<'b, T> {
    batch: &'b Batch<T>,
}

impl<T> Drop for BatchGuard<'_, T> {
    fn drop(&mut self) {
        let mut r = lock(&self.batch.remaining);
        *r -= 1;
        // Notify while still holding the lock: the coordinator may observe
        // `remaining == 0` and destroy the batch the instant we unlock (it
        // does not need the notification if it is blocked on the mutex
        // itself), so the unlock below must be this guard's *last* touch of
        // the batch — a notify after unlock would race with destruction.
        self.batch.done.notify_all();
        drop(r);
    }
}

/// Releases one epoch slot in the fence table on drop.
struct EpochGuard {
    core: Arc<Core>,
    epoch: u64,
}

impl Drop for EpochGuard {
    fn drop(&mut self) {
        let mut t = lock(&self.core.fences);
        if let Some(c) = t.pending.get_mut(&self.epoch) {
            *c -= 1;
            if *c == 0 {
                self.core.fence_done.notify_all();
            }
        }
    }
}

impl WorkerPool {
    /// Pool with `n_workers` persistent threads and no fault plan.
    pub fn new(n_workers: usize) -> Self {
        Self::with_config(PoolConfig::new(n_workers))
    }

    /// Pool with explicit retry budget, detection delay, and fault plan.
    pub fn with_faults(
        n_workers: usize,
        max_attempts: u32,
        detection_delay: Duration,
        fault_plan: Arc<FaultPlan>,
    ) -> Self {
        Self::with_config(PoolConfig {
            max_attempts,
            detection_delay,
            fault_plan,
            ..PoolConfig::new(n_workers)
        })
    }

    /// Pool with the full set of construction knobs.
    pub fn with_config(config: PoolConfig) -> Self {
        let PoolConfig {
            n_workers,
            max_attempts,
            detection_delay,
            fault_plan,
            failpoints,
        } = config;
        assert!(n_workers > 0, "pool needs at least one worker");
        assert!(max_attempts > 0, "tasks need at least one attempt");
        let core = Arc::new(Core {
            n_workers,
            max_attempts,
            detection_delay,
            fault_plan,
            failpoints,
            sched: Mutex::new(Sched {
                injectors: std::array::from_fn(|_| VecDeque::new()),
                locals: (0..n_workers)
                    .map(|_| std::array::from_fn(|_| VecDeque::new()))
                    .collect(),
                busy: vec![false; n_workers],
                shutdown: false,
            }),
            work: Condvar::new(),
            fences: Mutex::new(FenceTable::default()),
            fence_done: Condvar::new(),
            epoch_counter: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            recorder: PlMutex::new(None),
        });
        let threads = (0..n_workers)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("i2mr-worker-{i}"))
                    .spawn(move || core.worker_loop(i))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared: Arc::new(PoolShared {
                core,
                threads: PlMutex::new(threads),
            }),
        }
    }

    /// Number of worker threads.
    pub fn n_workers(&self) -> usize {
        self.shared.core.n_workers
    }

    /// Install (or with `None`, remove) the telemetry recorder that task
    /// spans, retry lineage, and per-kind counters are emitted to — the
    /// only record of task attempts the executor produces.
    ///
    /// The recorder must have been created for at least
    /// [`WorkerPool::n_workers`] workers — the coordinator / inline path
    /// emits as the virtual worker `n_workers`, which the recorder's
    /// driver slot absorbs. Sessions sharing one pool should clear the
    /// recorder (`None`) when they finish so a borrowed executor does not
    /// keep feeding a finished session's rings.
    pub fn set_recorder(&self, recorder: Option<Arc<TraceRecorder>>) {
        *self.shared.core.recorder.lock() = recorder;
    }

    /// The currently installed telemetry recorder, if any.
    pub fn recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.shared.core.recorder.lock().clone()
    }

    /// Take and reset the number of failed attempts rescheduled onto
    /// another worker since the last call. Engines drain it into
    /// `JobMetrics::retries` per iteration.
    pub fn drain_recovery(&self) -> u64 {
        self.shared.core.retries.swap(0, Ordering::Relaxed)
    }

    /// Run all tasks to completion, in parallel on the persistent workers,
    /// and return their results in submission order.
    ///
    /// Fails with [`Error::TaskFailed`] if any task exhausts its attempts;
    /// remaining queued tasks of the batch are then abandoned (the
    /// JobTracker kills the job). The call blocks until every job of the
    /// batch has drained, so tasks may freely borrow caller-local data.
    ///
    /// The calling thread doubles as the batch *coordinator*: failed
    /// attempts park a retry ticket and the coordinator launches the
    /// rescheduled attempt on a different worker once the backoff expires.
    pub fn run_tasks<'a, T: Send>(&self, tasks: Vec<TaskSpec<'a, T>>) -> Result<Vec<T>> {
        debug_assert!(
            !IS_POOL_WORKER.with(|w| w.get()),
            "run_tasks called from inside a pool task: the nested batch \
             would wait on workers this task is blocking (deadlock on a \
             saturated pool) — restructure to submit from the driver thread"
        );
        let n = tasks.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let core = &self.shared.core;
        let batch: Batch<T> = Batch {
            slots: PlMutex::new((0..n).map(|_| None).collect()),
            remaining: Mutex::new(0),
            done: Condvar::new(),
            abort: AtomicBool::new(false),
            first_err: PlMutex::new(None),
        };
        let states: Vec<TaskState<'a, T>> = tasks
            .into_iter()
            .enumerate()
            .map(|(slot, spec)| TaskState {
                spec,
                slot,
                pending_retry: PlMutex::new(None),
            })
            .collect();

        let batch_ref = &batch;
        // Help-scope token for this batch: the coordinator may run its own
        // queued jobs inline, and only its own (see [`HelpScope`]).
        let token = batch_ref as *const Batch<T> as usize;
        let core_ref: &Core = core;
        let states_ref = &states;
        // Mint one attempt job. All jobs — initial and retry — come from
        // here, on the coordinator thread, inside this frame.
        let make_job = |idx: usize, attempt: u32| -> Job {
            let job: Box<dyn FnOnce(usize) + Send + '_> = Box::new(move |worker: usize| {
                // Declared first so it drops *last*: the fence is released
                // only after every borrow in this body is dead.
                let _signal = BatchGuard { batch: batch_ref };
                let ts = &states_ref[idx];
                if batch_ref.abort.load(Ordering::Relaxed) {
                    return;
                }
                let outcome = core_ref.run_one_attempt(
                    worker,
                    ts.spec.id,
                    attempt,
                    ts.spec.lane,
                    &*ts.spec.run,
                );
                match outcome {
                    Ok(v) => batch_ref.slots.lock()[ts.slot] = Some(v),
                    Err(e) => {
                        if batch_ref.abort.load(Ordering::Relaxed) {
                            return;
                        }
                        if attempt >= core_ref.max_attempts {
                            let mut first = batch_ref.first_err.lock();
                            if first.is_none() {
                                *first = Some(Error::TaskFailed {
                                    task: ts.spec.id.label(),
                                    attempts: attempt,
                                    reason: e.to_string(),
                                });
                            }
                            batch_ref.abort.store(true, Ordering::Relaxed);
                        } else {
                            core_ref.retries.fetch_add(1, Ordering::Relaxed);
                            let next = attempt + 1;
                            core_ref.emit(
                                worker,
                                telemetry::EventKind::Retry {
                                    task: task_ref(ts.spec.id),
                                    next_attempt: next,
                                },
                            );
                            // Cross-worker rescheduling with exponential
                            // backoff; the coordinator launches it when due.
                            *ts.pending_retry.lock() = Some(RetryTicket {
                                attempt: next,
                                not_before: Instant::now()
                                    + backoff_for(core_ref.detection_delay, attempt),
                                preferred: Some((worker + 1) % core_ref.n_workers),
                            });
                        }
                    }
                }
            });
            // SAFETY: the job borrows `batch`/`states` (this stack frame)
            // and the tasks' `'a` data. The coordinator loop below returns
            // only once the live-job count is zero AND no retry ticket is
            // outstanding, i.e. after every job has run (or been
            // drop-skipped on abort) and released its BatchGuard — after
            // which no worker touches the borrowed state again. Jobs are
            // never leaked: workers drain all queues before exiting, and
            // post-shutdown submissions run inline.
            unsafe { std::mem::transmute::<Box<dyn FnOnce(usize) + Send + '_>, Job>(job) }
        };

        // Initial attempts: honor explicit preferences; round-robin the
        // rest across the per-worker deques (stealing rebalances skew).
        {
            let mut remaining = lock(&batch.remaining);
            *remaining += n;
        }
        let jobs = states.iter().enumerate().map(|(i, ts)| {
            (
                Some(ts.spec.preferred_worker.unwrap_or(i)),
                ts.spec.lane,
                HelpScope::Batch(token),
                make_job(i, 1),
            )
        });
        core.submit_jobs(jobs);

        // Coordinator loop: wait for the fence while claiming due retry
        // tickets.
        let mut remaining = lock(&batch.remaining);
        loop {
            let now = Instant::now();
            let aborting = batch.abort.load(Ordering::Relaxed);
            let mut to_spawn: Vec<(usize, u32, Option<usize>)> = Vec::new();
            // Nearest future instant we must wake at without being notified.
            let mut next_deadline: Option<Instant> = None;
            for (i, ts) in states.iter().enumerate() {
                let mut ticket = ts.pending_retry.lock();
                if let Some(t) = *ticket {
                    if aborting {
                        *ticket = None;
                    } else if t.not_before <= now {
                        *ticket = None;
                        to_spawn.push((i, t.attempt, t.preferred));
                    } else {
                        next_deadline =
                            Some(next_deadline.map_or(t.not_before, |d| d.min(t.not_before)));
                    }
                }
            }
            if !to_spawn.is_empty() {
                *remaining += to_spawn.len();
                drop(remaining);
                core.submit_jobs(to_spawn.into_iter().map(|(i, attempt, pref)| {
                    (
                        pref,
                        states[i].spec.lane,
                        HelpScope::Batch(token),
                        make_job(i, attempt),
                    )
                }));
                remaining = lock(&batch.remaining);
                continue;
            }
            if *remaining == 0 && next_deadline.is_none() {
                break;
            }
            remaining = match next_deadline {
                // Wake at the next backoff expiry even if no job signals;
                // tickets parked after our scan are always followed by a
                // guard drop that notifies.
                Some(d) => wait_timeout(
                    &batch.done,
                    remaining,
                    d.saturating_duration_since(now)
                        .max(Duration::from_micros(100)),
                ),
                // No deadline to honor: help instead of parking. The
                // coordinator claims one of its *own* queued jobs and runs
                // it inline — the batch fence is waiting on it regardless,
                // so helping can only shorten the wait. Park only when
                // nothing of ours is queued (all attempts are executing).
                None => {
                    drop(remaining);
                    let helped = core.help_one(&|s| s == HelpScope::Batch(token));
                    let guard = lock(&batch.remaining);
                    if !helped && *guard > 0 {
                        wait(&batch.done, guard)
                    } else {
                        guard
                    }
                }
            };
        }
        drop(remaining);

        if let Some(e) = batch.first_err.lock().take() {
            return Err(e);
        }
        let collected: Option<Vec<T>> = batch.slots.into_inner().into_iter().collect();
        collected.ok_or_else(|| Error::corrupt("task result missing without error"))
    }

    /// Allocate the next background epoch (monotonic, pool-global).
    pub fn next_epoch(&self) -> u64 {
        self.shared
            .core
            .epoch_counter
            .fetch_add(1, Ordering::SeqCst)
            + 1
    }

    /// Submit detached background work tagged with `epoch`. The task runs
    /// with the full retry/fault machinery — failed attempts are
    /// rescheduled onto the next worker with exponential backoff — and a
    /// terminal error is held until the next [`WorkerPool::fence`]
    /// covering its epoch. A panicking attempt is isolated into an attempt
    /// failure like any other.
    ///
    /// Background tasks must own their data (`'static`): they outlive the
    /// submitting call by design and are only synchronized via `fence`.
    pub fn submit_at(&self, epoch: u64, task: TaskSpec<'static, ()>) {
        let core = Arc::clone(&self.shared.core);
        {
            let mut t = lock(&core.fences);
            *t.pending.entry(epoch).or_insert(0) += 1;
        }
        let guard = EpochGuard {
            core: Arc::clone(&core),
            epoch,
        };
        let preferred = task.preferred_worker;
        submit_bg_attempt(
            core,
            epoch,
            guard,
            Arc::new(task),
            1,
            preferred,
            Duration::ZERO,
        );
    }

    /// Block until every background task submitted at or before `epoch`
    /// has drained; surface the first terminal error recorded at *exactly*
    /// this epoch.
    ///
    /// Tasks submitted at later epochs are not waited for. Errors from
    /// *earlier* epochs stay put until their own epoch is fenced — epochs
    /// are the error-ownership boundary, so independent submitters sharing
    /// one executor (several `StoreManager`s, say) never consume each
    /// other's failures: each fences the epochs it allocated.
    ///
    /// The caller does not just park: while fenced work is still *queued*
    /// (as opposed to executing), it claims those jobs and runs them
    /// inline — a fence over a pile of scheduled compactions drains it as
    /// an extra worker instead of idling behind a saturated pool. Helping
    /// is scoped to epochs at or before `epoch`: jobs the fence is already
    /// waiting on, never work that could outlive it.
    pub fn fence(&self, epoch: u64) -> Result<()> {
        debug_assert!(
            !IS_POOL_WORKER.with(|w| w.get()),
            "fence called from inside a pool task: the fenced work may be \
             queued behind this very task (deadlock on a saturated pool)"
        );
        let core = &self.shared.core;
        loop {
            {
                let mut t = lock(&core.fences);
                let outstanding = t.pending.range(..=epoch).any(|(_, c)| *c > 0);
                if !outstanding {
                    let settled: Vec<u64> = t.pending.range(..=epoch).map(|(k, _)| *k).collect();
                    for k in settled {
                        t.pending.remove(&k);
                    }
                    if let Some(e) = t.errors.remove(&epoch) {
                        return Err(e);
                    }
                    return Ok(());
                }
            }
            if core.help_one(&|s| matches!(s, HelpScope::Epoch(e) if e <= epoch)) {
                continue;
            }
            // Nothing of ours is queued — the remaining fenced work is
            // executing on real workers (or is a backoff-delayed retry not
            // yet resubmitted, which no notification covers: hence the
            // timed wait instead of an unbounded park).
            let t = lock(&core.fences);
            if t.pending.range(..=epoch).any(|(_, c)| *c > 0) {
                drop(wait_timeout(&core.fence_done, t, Duration::from_millis(1)));
            }
        }
    }

    /// Number of background tasks still outstanding at or before `epoch`.
    pub fn pending_at_or_before(&self, epoch: u64) -> usize {
        lock(&self.shared.core.fences)
            .pending
            .range(..=epoch)
            .map(|(_, c)| *c)
            .sum()
    }

    /// Gracefully stop the executor: drain every queued task (including
    /// background compactions), then join the worker threads. Idempotent;
    /// also invoked when the last handle drops. Subsequent submissions run
    /// inline on the caller.
    pub fn shutdown(&self) {
        self.shared.shutdown_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FailAction, FaultSpec, TaskKind};
    use i2mr_common::telemetry::{
        recovery_latencies, EventKind as Ek, TelemetryMode, TraceLog, TraceRecorder,
    };
    use std::sync::atomic::AtomicU64;

    fn tid(index: usize) -> TaskId {
        TaskId {
            kind: TaskKind::Map,
            index,
            iteration: 0,
        }
    }

    /// Install a `Full` recorder on `pool`: the trace is the executor's
    /// only record of task attempts.
    fn traced(pool: &WorkerPool) -> Arc<TraceRecorder> {
        let rec = Arc::new(TraceRecorder::new(
            TelemetryMode::Full,
            pool.n_workers(),
            1 << 12,
        ));
        pool.set_recorder(Some(Arc::clone(&rec)));
        rec
    }

    /// Failed attempts in the trace.
    fn failures(log: &TraceLog) -> u64 {
        log.count_matching(|k| matches!(k, Ek::TaskEnd { ok: false, .. }))
    }

    /// `(slot, attempt, outcome)` of each traced span event of `id`, in
    /// attempt order: `None` for its `TaskStart`, `Some(ok)` for its
    /// `TaskEnd`.
    fn attempts_of(log: &TraceLog, id: TaskId) -> Vec<(u32, u32, Option<bool>)> {
        let want = task_ref(id);
        let mut evs: Vec<_> = log
            .iter()
            .filter_map(|e| match &e.kind {
                Ek::TaskStart { task, attempt, .. } if *task == want => {
                    Some((e.worker, *attempt, None))
                }
                Ek::TaskEnd { task, attempt, ok } if *task == want => {
                    Some((e.worker, *attempt, Some(*ok)))
                }
                _ => None,
            })
            .collect();
        evs.sort_by_key(|&(_, attempt, end)| (attempt, end.is_some()));
        evs
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<TaskSpec<usize>> = (0..16)
            .map(|i| TaskSpec::new(tid(i), move |_| Ok(i * 10)))
            .collect();
        let out = pool.run_tasks(tasks).unwrap();
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_task_list_is_fine() {
        let pool = WorkerPool::new(2);
        let out: Vec<u32> = pool.run_tasks(Vec::new()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn workers_persist_across_batches() {
        // The same threads serve many run_tasks calls: the recorded worker
        // indices stay within range and the trace accumulates. Index
        // `n_workers` (= 2 here) is the *virtual caller*: the coordinator
        // helping with its own queued jobs instead of parking.
        let pool = WorkerPool::new(2);
        let rec = traced(&pool);
        for round in 0..20 {
            let tasks: Vec<TaskSpec<usize>> = (0..6)
                .map(|i| TaskSpec::new(tid(i), move |_| Ok(i + round)))
                .collect();
            let out = pool.run_tasks(tasks).unwrap();
            assert_eq!(out, (0..6).map(|i| i + round).collect::<Vec<_>>());
        }
        let log = rec.take();
        assert_eq!(log.len(), 20 * 6 * 2, "start+end per task");
        assert!(log.iter().all(|e| e.worker <= 2));
    }

    #[test]
    fn injected_fault_reschedules_on_another_worker_and_succeeds() {
        let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
            kind: TaskKind::Map,
            index: 2,
            iteration: Some(0),
            attempt: 1,
        }]));
        let pool = WorkerPool::with_faults(3, 3, Duration::ZERO, plan);
        let rec = traced(&pool);
        // A single task keeps placement deterministic: nothing else runs,
        // so no busy victim exists for the steal path to reroute the retry.
        let tasks: Vec<TaskSpec<usize>> = vec![TaskSpec::pinned(tid(2), 2, |_| Ok(42))];
        let out = pool.run_tasks(tasks).unwrap();
        assert_eq!(out, vec![42]);
        assert_eq!(pool.drain_recovery(), 1);

        let evs = attempts_of(&rec.take(), tid(2));
        let outcomes: Vec<_> = evs
            .iter()
            .map(|&(_, attempt, end)| (attempt, end))
            .collect();
        assert_eq!(
            outcomes,
            vec![(1, None), (1, Some(false)), (2, None), (2, Some(true))]
        );
        // Cross-worker rescheduling: the retry must NOT land on the worker
        // that just failed (it may be dead) — unlike the paper's
        // same-TaskTracker reassignment.
        assert_ne!(evs[2].0, evs[1].0, "retry must move to a different worker");
    }

    #[test]
    fn recorder_captures_spans_and_retry_lineage() {
        let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
            kind: TaskKind::Map,
            index: 2,
            iteration: Some(0),
            attempt: 1,
        }]));
        let pool = WorkerPool::with_faults(3, 3, Duration::ZERO, plan);
        let rec = traced(&pool);
        let tasks: Vec<TaskSpec<usize>> = (0..4)
            .map(|i| TaskSpec::pinned(tid(i), i % 3, move |_| Ok(i)))
            .collect();
        let out = pool.run_tasks(tasks).unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
        let log = rec.take();
        log.validate().unwrap();
        // 4 tasks, one of which fails once: 5 starts, 5 ends, 1 retry.
        assert_eq!(log.count_matching(|k| matches!(k, Ek::TaskStart { .. })), 5);
        assert_eq!(log.count_matching(|k| matches!(k, Ek::TaskEnd { .. })), 5);
        assert_eq!(
            log.count_matching(|k| matches!(k, Ek::Retry { .. })),
            pool.drain_recovery()
        );
        assert_eq!(failures(&log), 1);
        assert_eq!(log.dropped(), 0);
        // Clearing the recorder stops emission.
        pool.set_recorder(None);
        pool.run_tasks(
            (0..2)
                .map(|i| TaskSpec::new(tid(i), move |_| Ok(i)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(rec.take().is_empty());
    }

    #[test]
    fn exhausted_attempts_fail_the_job() {
        let plan = Arc::new(FaultPlan::new(vec![
            FaultSpec {
                kind: TaskKind::Map,
                index: 0,
                iteration: Some(0),
                attempt: 1,
            },
            FaultSpec {
                kind: TaskKind::Map,
                index: 0,
                iteration: Some(0),
                attempt: 2,
            },
        ]));
        let pool = WorkerPool::with_faults(2, 2, Duration::ZERO, plan);
        let tasks: Vec<TaskSpec<u32>> = vec![TaskSpec::new(tid(0), |_| Ok(1))];
        let err = pool.run_tasks(tasks).unwrap_err();
        assert!(matches!(err, Error::TaskFailed { attempts: 2, .. }));
    }

    #[test]
    fn real_task_errors_are_retried_too() {
        // Task fails on attempt 1 by itself (not injected), succeeds after.
        let pool = WorkerPool::new(1);
        let tasks: Vec<TaskSpec<u32>> = vec![TaskSpec::new(tid(0), |attempt| {
            if attempt == 1 {
                Err(Error::corrupt("transient"))
            } else {
                Ok(99)
            }
        })];
        assert_eq!(pool.run_tasks(tasks).unwrap(), vec![99]);
    }

    #[test]
    fn panicking_task_fails_the_task_not_the_run() {
        // Attempt 1 panics (simulated worker death); the rescheduled
        // attempt succeeds and the batch completes normally.
        let pool = WorkerPool::new(2);
        let rec = traced(&pool);
        let tasks: Vec<TaskSpec<u32>> = vec![
            TaskSpec::new(tid(0), |attempt| {
                if attempt == 1 {
                    panic!("worker dies mid-task");
                }
                Ok(5)
            }),
            TaskSpec::new(tid(1), |_| Ok(6)),
        ];
        assert_eq!(pool.run_tasks(tasks).unwrap(), vec![5, 6]);
        assert_eq!(failures(&rec.take()), 1, "panic traced as a failed attempt");
    }

    #[test]
    fn terminal_panic_surfaces_as_task_failed_error() {
        // Even with the budget exhausted, a panicking task produces an
        // Err — the run itself must never unwind.
        let plan = Arc::new(FaultPlan::none());
        let pool = WorkerPool::with_faults(2, 1, Duration::ZERO, plan);
        let tasks: Vec<TaskSpec<u32>> =
            vec![TaskSpec::new(tid(0), |_| -> Result<u32> { panic!("boom") })];
        let err = pool.run_tasks(tasks).unwrap_err();
        match err {
            Error::TaskFailed {
                attempts, reason, ..
            } => {
                assert_eq!(attempts, 1);
                assert!(reason.contains("panicked"), "reason: {reason}");
            }
            other => panic!("expected TaskFailed, got {other}"),
        }
    }

    #[test]
    fn taskrun_failpoints_inject_and_recover() {
        // A seeded failpoint fires once inside a task body; the reschedule
        // succeeds because the budget is exhausted afterwards.
        let mut cfg = PoolConfig::new(2);
        cfg.failpoints = Arc::new(FailpointRegistry::seeded(11, 1).arm(
            FailSite::TaskRun,
            1.0,
            FailAction::Error,
        ));
        let pool = WorkerPool::with_config(cfg);
        let rec = traced(&pool);
        let tasks: Vec<TaskSpec<usize>> = (0..4)
            .map(|i| TaskSpec::new(tid(i), move |_| Ok(i)))
            .collect();
        assert_eq!(pool.run_tasks(tasks).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(failures(&rec.take()), 1);
        assert_eq!(pool.drain_recovery(), 1);
    }

    #[test]
    fn taskrun_failpoint_panics_are_isolated() {
        // Panic-action failpoints simulate worker death; the run completes.
        let mut cfg = PoolConfig::new(2);
        cfg.failpoints = Arc::new(FailpointRegistry::seeded(5, 2).arm(
            FailSite::TaskRun,
            1.0,
            FailAction::Panic,
        ));
        let pool = WorkerPool::with_config(cfg);
        let rec = traced(&pool);
        let tasks: Vec<TaskSpec<usize>> = (0..6)
            .map(|i| TaskSpec::new(tid(i), move |_| Ok(i)))
            .collect();
        assert_eq!(pool.run_tasks(tasks).unwrap(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(failures(&rec.take()), 2);
    }

    #[test]
    fn backoff_doubles_per_failed_attempt() {
        // Two consecutive failures: the first restart waits >= base, the
        // second >= 2x base.
        let pool =
            WorkerPool::with_faults(2, 3, Duration::from_millis(10), Arc::new(FaultPlan::none()));
        let rec = traced(&pool);
        let tasks: Vec<TaskSpec<u32>> = vec![TaskSpec::new(tid(0), |attempt| {
            if attempt <= 2 {
                Err(Error::corrupt("transient"))
            } else {
                Ok(1)
            }
        })];
        assert_eq!(pool.run_tasks(tasks).unwrap(), vec![1]);
        let lat = recovery_latencies(&rec.take());
        assert_eq!(lat.len(), 2);
        assert!(
            lat[0].1 >= Duration::from_millis(10),
            "first: {:?}",
            lat[0].1
        );
        assert!(
            lat[1].1 >= Duration::from_millis(20),
            "second: {:?}",
            lat[1].1
        );
    }

    #[test]
    fn pinned_tasks_run_on_their_idle_preferred_worker() {
        // One task per worker, submitted while all workers are idle: no
        // steal predicate can fire (idle peers are never victims), so
        // placement is deterministic.
        let pool = WorkerPool::new(4);
        let rec = traced(&pool);
        let tasks: Vec<TaskSpec<()>> = (0..4)
            .map(|i| {
                TaskSpec::pinned(tid(i), i, |_| {
                    std::thread::sleep(Duration::from_millis(5));
                    Ok(())
                })
            })
            .collect();
        pool.run_tasks(tasks).unwrap();
        let log = rec.take();
        assert_eq!(log.len(), 8);
        for ev in log.iter() {
            let (Ek::TaskStart { task, .. } | Ek::TaskEnd { task, .. }) = &ev.kind else {
                panic!("unexpected event {:?}", ev.kind);
            };
            assert_eq!(u64::from(ev.worker), task.index % 4);
        }
    }

    #[test]
    fn idle_workers_steal_from_an_overloaded_one() {
        // 8 sleepy tasks all pinned to worker 0: thieves must take over
        // once worker 0 is busy, so wall clock beats the serial 8 * 20 ms
        // and more than one worker appears in the trace.
        let pool = WorkerPool::new(4);
        let rec = traced(&pool);
        let tasks: Vec<TaskSpec<()>> = (0..8)
            .map(|i| {
                TaskSpec::pinned(tid(i), 0, |_| {
                    std::thread::sleep(Duration::from_millis(20));
                    Ok(())
                })
            })
            .collect();
        let start = Instant::now();
        pool.run_tasks(tasks).unwrap();
        assert!(start.elapsed() < Duration::from_millis(120));
        let log = rec.take();
        let workers: std::collections::HashSet<_> = log.iter().map(|e| e.worker).collect();
        assert!(workers.len() > 1, "no stealing happened");
    }

    #[test]
    fn detection_delay_separates_fail_and_restart() {
        let plan = Arc::new(FaultPlan::new(vec![FaultSpec {
            kind: TaskKind::Map,
            index: 0,
            iteration: Some(0),
            attempt: 1,
        }]));
        let pool = WorkerPool::with_faults(1, 2, Duration::from_millis(20), plan);
        let rec = traced(&pool);
        let tasks: Vec<TaskSpec<u32>> = vec![TaskSpec::new(tid(0), |_| Ok(7))];
        pool.run_tasks(tasks).unwrap();
        let lat = recovery_latencies(&rec.take());
        assert_eq!(lat.len(), 1);
        assert!(lat[0].1 >= Duration::from_millis(20));
    }

    #[test]
    fn parallelism_actually_happens() {
        // 4 tasks, 4 workers, each sleeping 30 ms: wall clock must be well
        // under the serial 120 ms.
        let pool = WorkerPool::new(4);
        let tasks: Vec<TaskSpec<()>> = (0..4)
            .map(|i| {
                TaskSpec::new(tid(i), |_| {
                    std::thread::sleep(Duration::from_millis(30));
                    Ok(())
                })
            })
            .collect();
        let start = Instant::now();
        pool.run_tasks(tasks).unwrap();
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn concurrent_batches_from_cloned_handles() {
        // Two caller threads share one executor through cloned handles;
        // both batches complete with their own results.
        let pool = WorkerPool::new(3);
        let p2 = pool.clone();
        let h = std::thread::spawn(move || {
            let tasks: Vec<TaskSpec<usize>> = (0..32)
                .map(|i| TaskSpec::new(tid(i), move |_| Ok(i * 2)))
                .collect();
            p2.run_tasks(tasks).unwrap()
        });
        let tasks: Vec<TaskSpec<usize>> = (0..32)
            .map(|i| TaskSpec::new(tid(i), move |_| Ok(i * 3)))
            .collect();
        let mine = pool.run_tasks(tasks).unwrap();
        let theirs = h.join().unwrap();
        assert_eq!(mine, (0..32).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(theirs, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn fence_waits_for_its_epoch_only() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        let e1 = pool.next_epoch();
        for i in 0..8 {
            let c = Arc::clone(&counter);
            pool.submit_at(
                e1,
                TaskSpec::new(tid(i), move |_| {
                    std::thread::sleep(Duration::from_millis(2));
                    c.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
            );
        }
        // A later-epoch task that blocks until we allow it to finish.
        let gate = Arc::new(AtomicBool::new(false));
        let e2 = pool.next_epoch();
        {
            let gate = Arc::clone(&gate);
            pool.submit_at(
                e2,
                TaskSpec::new(tid(99), move |_| {
                    while !gate.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok(())
                }),
            );
        }
        // fence(e1) sees all eight epoch-1 tasks, and returns even though
        // the epoch-2 task is still blocked on the gate.
        pool.fence(e1).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 8);
        assert!(pool.pending_at_or_before(e2) > 0);
        gate.store(true, Ordering::SeqCst);
        pool.fence(e2).unwrap();
        assert_eq!(pool.pending_at_or_before(e2), 0);
    }

    #[test]
    fn fence_surfaces_background_errors() {
        let pool = WorkerPool::with_faults(2, 1, Duration::ZERO, Arc::new(FaultPlan::none()));
        let e = pool.next_epoch();
        pool.submit_at(
            e,
            TaskSpec::new(tid(0), |_| Err(Error::corrupt("background boom"))),
        );
        let err = pool.fence(e).unwrap_err();
        assert!(matches!(err, Error::TaskFailed { .. }));
        // The error is consumed: a second fence is clean.
        pool.fence(e).unwrap();
    }

    #[test]
    fn background_retries_move_across_workers() {
        // A background task failing its first attempt is rescheduled on a
        // different worker and completes; the fence is clean.
        let pool = WorkerPool::new(2);
        let rec = traced(&pool);
        let e = pool.next_epoch();
        pool.submit_at(
            e,
            TaskSpec::pinned(tid(3), 0, |attempt| {
                if attempt == 1 {
                    Err(Error::corrupt("transient"))
                } else {
                    Ok(())
                }
            }),
        );
        pool.fence(e).unwrap();
        assert_eq!(pool.drain_recovery(), 1);
        let evs = attempts_of(&rec.take(), tid(3));
        assert_eq!((evs[1].1, evs[1].2), (1, Some(false)));
        assert_eq!((evs[2].1, evs[2].2), (2, None));
        assert_ne!(evs[2].0, evs[1].0, "retry must move to a different worker");
    }

    #[test]
    fn background_panics_are_contained_and_retried() {
        let pool = WorkerPool::new(2);
        let e = pool.next_epoch();
        pool.submit_at(
            e,
            TaskSpec::new(tid(0), |attempt| {
                if attempt == 1 {
                    panic!("background worker dies");
                }
                Ok(())
            }),
        );
        pool.fence(e).unwrap();
        // Terminal panic: surfaces as a TaskFailed error on the fence.
        let pool1 = WorkerPool::with_faults(2, 1, Duration::ZERO, Arc::new(FaultPlan::none()));
        let e1 = pool1.next_epoch();
        pool1.submit_at(
            e1,
            TaskSpec::new(tid(1), |_| -> Result<()> { panic!("always dies") }),
        );
        let err = pool1.fence(e1).unwrap_err();
        assert!(matches!(err, Error::TaskFailed { .. }));
    }

    #[test]
    fn fence_scopes_errors_to_their_own_epoch() {
        // Independent submitters sharing one executor fence their own
        // epochs; a fence must never consume another epoch's failure.
        let pool = WorkerPool::with_faults(2, 1, Duration::ZERO, Arc::new(FaultPlan::none()));
        let e1 = pool.next_epoch();
        pool.submit_at(
            e1,
            TaskSpec::new(tid(0), |_| Err(Error::corrupt("epoch-1 boom"))),
        );
        let e2 = pool.next_epoch();
        pool.submit_at(e2, TaskSpec::new(tid(1), |_| Ok(())));
        // The later fence waits for both epochs but reports only its own
        // (clean) outcome…
        pool.fence(e2).unwrap();
        // …leaving epoch 1's error for its owner.
        let err = pool.fence(e1).unwrap_err();
        assert!(matches!(err, Error::TaskFailed { .. }));
        pool.fence(e1).unwrap();
    }

    #[test]
    fn shutdown_drains_queued_background_work() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = WorkerPool::new(1);
            let e = pool.next_epoch();
            for i in 0..16 {
                let c = Arc::clone(&counter);
                pool.submit_at(
                    e,
                    TaskSpec::new(tid(i), move |_| {
                        std::thread::sleep(Duration::from_millis(1));
                        c.fetch_add(1, Ordering::SeqCst);
                        Ok(())
                    }),
                );
            }
            // Drop without fencing: shutdown must still drain all 16.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn serve_lane_preempts_queued_data_and_compact_work() {
        // Saturate the single worker, then queue one job per lane while it
        // is blocked. Release order must be Serve, Data, Compact regardless
        // of submission order (Compact first, Serve last).
        let pool = WorkerPool::new(1);
        let gate = Arc::new(AtomicBool::new(false));
        let order = Arc::new(parking_lot::Mutex::new(Vec::<&'static str>::new()));
        let e = pool.next_epoch();
        {
            let gate = Arc::clone(&gate);
            pool.submit_at(
                e,
                TaskSpec::new(tid(0), move |_| {
                    while !gate.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    Ok(())
                }),
            );
        }
        // Wait until the blocker is actually executing so the lane jobs
        // all sit queued behind it.
        while pool.pending_at_or_before(e) == 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
        std::thread::sleep(Duration::from_millis(2));
        let e2 = pool.next_epoch();
        for (lane, tag) in [
            (Lane::Compact, "compact"),
            (Lane::Data, "data"),
            (Lane::Serve, "serve"),
        ] {
            let order = Arc::clone(&order);
            pool.submit_at(
                e2,
                TaskSpec::new(tid(1), move |_| {
                    order.lock().push(tag);
                    Ok(())
                })
                .on_lane(lane),
            );
        }
        gate.store(true, Ordering::SeqCst);
        pool.fence(e2).unwrap();
        assert_eq!(*order.lock(), vec!["serve", "data", "compact"]);
    }

    #[test]
    fn fence_helps_drain_queued_epoch_work() {
        // One worker, blocked on a gated epoch-1 task; eight epoch-1 tasks
        // queue behind it. The fencing thread must help: all queued tasks
        // complete even though the only real worker stays blocked until
        // the fence has drained everything else.
        let pool = WorkerPool::new(1);
        let rec = traced(&pool);
        let e = pool.next_epoch();
        let gate = Arc::new(AtomicBool::new(false));
        let helped = Arc::new(AtomicU64::new(0));
        {
            let gate = Arc::clone(&gate);
            let helped = Arc::clone(&helped);
            pool.submit_at(
                e,
                TaskSpec::new(tid(0), move |_| {
                    // Release the gate only once every sibling has run —
                    // which can only happen if the fencer helps.
                    while helped.load(Ordering::SeqCst) < 8 && !gate.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    Ok(())
                }),
            );
        }
        for i in 1..=8 {
            let helped = Arc::clone(&helped);
            pool.submit_at(
                e,
                TaskSpec::new(tid(i), move |_| {
                    helped.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }),
            );
        }
        pool.fence(e).unwrap();
        assert_eq!(helped.load(Ordering::SeqCst), 8);
        // The helper is recorded as the virtual worker `n_workers`.
        assert!(rec.take().iter().any(|ev| ev.worker == 1));
    }

    #[test]
    fn fence_helper_never_takes_later_epoch_work() {
        // A gate-blocked epoch-2 task sits queued while fence(e1) drains
        // epoch-1 work on a single saturated worker. The helper must skip
        // the epoch-2 job (running it would block the fencer on a gate
        // only released after the fence returns).
        let pool = WorkerPool::new(1);
        let e1 = pool.next_epoch();
        let e2 = pool.next_epoch();
        let gate = Arc::new(AtomicBool::new(false));
        let busy = Arc::new(AtomicBool::new(false));
        {
            let busy = Arc::clone(&busy);
            pool.submit_at(
                e1,
                TaskSpec::new(tid(0), move |_| {
                    busy.store(true, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(10));
                    Ok(())
                }),
            );
        }
        while !busy.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(50));
        }
        {
            let gate = Arc::clone(&gate);
            pool.submit_at(
                e2,
                TaskSpec::new(tid(9), move |_| {
                    while !gate.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    Ok(())
                }),
            );
        }
        for i in 1..=4 {
            pool.submit_at(e1, TaskSpec::new(tid(i), |_| Ok(())));
        }
        // Returns only if the helper leaves the epoch-2 gate job alone.
        pool.fence(e1).unwrap();
        gate.store(true, Ordering::SeqCst);
        pool.fence(e2).unwrap();
    }

    #[test]
    fn submissions_after_shutdown_run_inline() {
        let pool = WorkerPool::new(2);
        pool.shutdown();
        let e = pool.next_epoch();
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        pool.submit_at(
            e,
            TaskSpec::new(tid(0), move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
        );
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        pool.fence(e).unwrap();
        // Batches still complete too (inline execution).
        let out = pool
            .run_tasks(
                (0..4)
                    .map(|i| TaskSpec::new(tid(i), move |_| Ok(i)))
                    .collect(),
            )
            .unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
    }
}
