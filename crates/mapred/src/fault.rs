//! Deterministic fault injection and task timelines.
//!
//! The paper's §8.8 experiment (Fig. 13) manually injects errors into
//! running map/reduce tasks and plots per-task execution progress including
//! recovery. [`FaultPlan`] reproduces the injection deterministically;
//! [`Timeline`] records exactly the events the figure plots.
//!
//! Targeted one-shot task faults are only half the story: the seeded
//! [`FailpointRegistry`] (re-exported from `i2mr-common` so the store and
//! DFS planes can share it without a dependency cycle) generalizes
//! injection to chaos *schedules* that also strike inside store I/O, DFS
//! block reads, and checkpoint writes, and that can kill a worker mid-task
//! ([`FailAction::Panic`]).

pub use i2mr_common::failpoint::{FailAction, FailSite, FailpointRegistry};
use parking_lot::Mutex;
use std::time::Duration;

/// Which phase a schedulable task belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskKind {
    Map,
    /// Per-run shuffle sort (scheduled on the pool like map/reduce work).
    Sort,
    /// Per-partition MRBG-Store work (delta merges, batch appends, index
    /// loads) scheduled by the store runtime as first-class pool tasks.
    StoreMerge,
    Reduce,
    /// Background per-partition store compaction (policy-driven, runs
    /// between iterations at the tail of the schedule).
    Compact,
    /// Serving-plane point/window lookups fanned out by the serve module
    /// (scheduled on the executor's highest-priority lane).
    ServeRead,
}

impl TaskKind {
    /// Display name used in timelines and error messages.
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::Map => "map",
            TaskKind::Sort => "sort",
            TaskKind::StoreMerge => "store-merge",
            TaskKind::Reduce => "reduce",
            TaskKind::Compact => "compact",
            TaskKind::ServeRead => "serve-read",
        }
    }
}

/// Identity of one logical task within one iteration of a computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId {
    /// Map or Reduce.
    pub kind: TaskKind,
    /// Task index within its phase (e.g. reduce partition number).
    pub index: usize,
    /// Iteration number for iterative jobs; 0 for one-step jobs.
    pub iteration: u64,
}

impl TaskId {
    /// `map-3@iter-2`-style label.
    pub fn label(&self) -> String {
        format!(
            "{}-{}@iter-{}",
            self.kind.name(),
            self.index,
            self.iteration
        )
    }
}

/// One planned failure: fail `attempt` of the matching task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    pub kind: TaskKind,
    pub index: usize,
    /// `None` matches any iteration (first execution consumed).
    pub iteration: Option<u64>,
    /// Which attempt to fail; 1 is the first execution.
    pub attempt: u32,
}

/// A consumable set of planned failures.
///
/// Each spec fires at most once: the paper injects each error once and the
/// rescheduled attempt then succeeds.
#[derive(Debug, Default)]
pub struct FaultPlan {
    specs: Mutex<Vec<FaultSpec>>,
}

impl FaultPlan {
    /// Plan with no failures.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Plan with the given failures.
    pub fn new(specs: Vec<FaultSpec>) -> Self {
        FaultPlan {
            specs: Mutex::new(specs),
        }
    }

    /// Number of failures still pending.
    pub fn pending(&self) -> usize {
        self.specs.lock().len()
    }

    /// Check whether `task`/`attempt` should fail; consumes the spec if so.
    pub fn should_fail(&self, task: TaskId, attempt: u32) -> bool {
        let mut specs = self.specs.lock();
        if let Some(pos) = specs.iter().position(|s| {
            s.kind == task.kind
                && s.index == task.index
                && s.attempt == attempt
                && s.iteration.map_or(true, |it| it == task.iteration)
        }) {
            specs.swap_remove(pos);
            true
        } else {
            false
        }
    }
}

/// What happened to a task attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskEventKind {
    /// Attempt started executing on a worker.
    Start,
    /// Attempt finished successfully.
    Finish,
    /// Attempt failed (injected or real); a retry follows if budget remains.
    Fail,
}

/// One timeline entry.
#[derive(Clone, Copy, Debug)]
pub struct TaskEvent {
    /// Offset from the pool's epoch.
    pub at: Duration,
    /// Worker thread index that executed the attempt.
    pub worker: usize,
    pub task: TaskId,
    pub attempt: u32,
    pub kind: TaskEventKind,
}

/// Recorded sequence of task events (Fig. 13's raw data).
#[derive(Debug, Default)]
pub struct Timeline {
    events: Vec<TaskEvent>,
}

impl Timeline {
    /// Append one event.
    pub fn record(&mut self, ev: TaskEvent) {
        self.events.push(ev);
    }

    /// All events in record order.
    pub fn events(&self) -> &[TaskEvent] {
        &self.events
    }

    /// Events for one specific task, in record order.
    pub fn for_task(&self, task: TaskId) -> Vec<TaskEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.task == task)
            .collect()
    }

    /// All recorded failures.
    pub fn failures(&self) -> Vec<TaskEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.kind == TaskEventKind::Fail)
            .collect()
    }

    /// Recovery latency per failure: time from the `Fail` of attempt `a` to
    /// the `Start` of attempt `a + 1` of the same task (the rescheduled
    /// attempt). A single linear pass over the timeline: each `Fail` parks
    /// its timestamp keyed by `(task, a + 1)` and the matching restart
    /// claims it, so a `Fail` is never paired with an unrelated later
    /// `Start` (e.g. a speculative duplicate of an earlier attempt).
    pub fn recovery_latencies(&self) -> Vec<(TaskId, Duration)> {
        let mut pending: std::collections::HashMap<(TaskId, u32), Duration> =
            std::collections::HashMap::new();
        let mut out = Vec::new();
        for ev in &self.events {
            match ev.kind {
                TaskEventKind::Fail => {
                    pending.insert((ev.task, ev.attempt + 1), ev.at);
                }
                TaskEventKind::Start => {
                    if let Some(failed_at) = pending.remove(&(ev.task, ev.attempt)) {
                        out.push((ev.task, ev.at.saturating_sub(failed_at)));
                    }
                }
                TaskEventKind::Finish => {}
            }
        }
        out
    }

    /// Merge another timeline (e.g. per-iteration timelines) into this one.
    pub fn extend(&mut self, other: Timeline) {
        self.events.extend(other.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(kind: TaskKind, index: usize, iteration: u64) -> TaskId {
        TaskId {
            kind,
            index,
            iteration,
        }
    }

    #[test]
    fn fault_spec_fires_once() {
        let plan = FaultPlan::new(vec![FaultSpec {
            kind: TaskKind::Map,
            index: 7,
            iteration: Some(3),
            attempt: 1,
        }]);
        let t = tid(TaskKind::Map, 7, 3);
        assert!(plan.should_fail(t, 1));
        assert!(!plan.should_fail(t, 1), "spec must be consumed");
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn fault_spec_matches_kind_index_iteration_attempt() {
        let plan = FaultPlan::new(vec![FaultSpec {
            kind: TaskKind::Reduce,
            index: 39,
            iteration: Some(6),
            attempt: 1,
        }]);
        assert!(!plan.should_fail(tid(TaskKind::Map, 39, 6), 1));
        assert!(!plan.should_fail(tid(TaskKind::Reduce, 38, 6), 1));
        assert!(!plan.should_fail(tid(TaskKind::Reduce, 39, 5), 1));
        assert!(!plan.should_fail(tid(TaskKind::Reduce, 39, 6), 2));
        assert!(plan.should_fail(tid(TaskKind::Reduce, 39, 6), 1));
    }

    #[test]
    fn wildcard_iteration_matches_any() {
        let plan = FaultPlan::new(vec![FaultSpec {
            kind: TaskKind::Map,
            index: 0,
            iteration: None,
            attempt: 1,
        }]);
        assert!(plan.should_fail(tid(TaskKind::Map, 0, 99), 1));
    }

    #[test]
    fn recovery_latency_measures_fail_to_restart() {
        let mut tl = Timeline::default();
        let t = tid(TaskKind::Map, 1, 0);
        tl.record(TaskEvent {
            at: Duration::from_millis(10),
            worker: 0,
            task: t,
            attempt: 1,
            kind: TaskEventKind::Start,
        });
        tl.record(TaskEvent {
            at: Duration::from_millis(20),
            worker: 0,
            task: t,
            attempt: 1,
            kind: TaskEventKind::Fail,
        });
        tl.record(TaskEvent {
            at: Duration::from_millis(32),
            worker: 0,
            task: t,
            attempt: 2,
            kind: TaskEventKind::Start,
        });
        tl.record(TaskEvent {
            at: Duration::from_millis(50),
            worker: 0,
            task: t,
            attempt: 2,
            kind: TaskEventKind::Finish,
        });
        let lat = tl.recovery_latencies();
        assert_eq!(lat.len(), 1);
        assert_eq!(lat[0].1, Duration::from_millis(12));
        assert_eq!(tl.failures().len(), 1);
        assert_eq!(tl.for_task(t).len(), 4);
    }

    #[test]
    fn recovery_latency_attributes_to_the_matching_attempt() {
        // A speculative duplicate of attempt 1 starts AFTER attempt 1's
        // failure; the old "next Start of the same task" pairing would
        // blame the failure on the speculative start (2ms). Only the
        // genuine attempt-2 restart (12ms) may be counted.
        let mut tl = Timeline::default();
        let t = tid(TaskKind::Reduce, 4, 2);
        let ev = |ms, attempt, kind| TaskEvent {
            at: Duration::from_millis(ms),
            worker: 0,
            task: t,
            attempt,
            kind,
        };
        tl.record(ev(10, 1, TaskEventKind::Start));
        tl.record(ev(20, 1, TaskEventKind::Fail));
        tl.record(ev(22, 1, TaskEventKind::Start)); // speculative duplicate of attempt 1
        tl.record(ev(32, 2, TaskEventKind::Start)); // the rescheduled attempt
        tl.record(ev(40, 2, TaskEventKind::Finish));
        let lat = tl.recovery_latencies();
        assert_eq!(lat.len(), 1);
        assert_eq!(lat[0].1, Duration::from_millis(12));
        // An unrecovered failure (budget exhausted) reports nothing.
        let mut tl2 = Timeline::default();
        tl2.record(ev(5, 1, TaskEventKind::Start));
        tl2.record(ev(9, 1, TaskEventKind::Fail));
        assert!(tl2.recovery_latencies().is_empty());
    }

    #[test]
    fn task_label_format() {
        assert_eq!(tid(TaskKind::Reduce, 39, 6).label(), "reduce-39@iter-6");
    }
}
