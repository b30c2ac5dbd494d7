//! Deterministic fault injection.
//!
//! The paper's §8.8 experiment (Fig. 13) manually injects errors into
//! running map/reduce tasks and plots per-task execution progress including
//! recovery. [`FaultPlan`] reproduces the injection deterministically; the
//! executor's `TaskStart`/`TaskEnd` trace events carry the progress, and
//! `i2mr_common::telemetry::recovery_latencies` reads the recoveries off
//! the trace.
//!
//! Targeted one-shot task faults are only half the story: the seeded
//! [`FailpointRegistry`] (re-exported from `i2mr-common` so the store and
//! DFS planes can share it without a dependency cycle) generalizes
//! injection to chaos *schedules* that also strike inside store I/O, DFS
//! block reads, and checkpoint writes, and that can kill a worker mid-task
//! ([`FailAction::Panic`]).

pub use i2mr_common::failpoint::{FailAction, FailSite, FailpointRegistry};
use parking_lot::Mutex;

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
    /// Display name used in trace events and error messages.
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
    fn task_label_format() {
        assert_eq!(tid(TaskKind::Reduce, 39, 6).label(), "reduce-39@iter-6");
    }
}
