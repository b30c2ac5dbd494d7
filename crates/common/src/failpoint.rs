//! Seeded, deterministic failpoints for chaos testing (paper §8.8).
//!
//! [`crate::error::Error`]-level fault injection used to exist only as the
//! executor's one-shot `FaultPlan` (fail attempt N of task X). Real faults
//! do not respect task boundaries: they strike inside store I/O, DFS block
//! reads, and checkpoint writes, and they kill workers mid-task. The
//! [`FailpointRegistry`] generalizes injection to *sites*: every
//! instrumented operation calls [`FailpointRegistry::check`] with its
//! [`FailSite`], and an armed registry decides — **deterministically from
//! the seed and the per-site hit index** — whether that particular hit
//! fires, and whether it fires as an injected error or as a panic
//! (simulating the worker thread dying at that instruction).
//!
//! Determinism is the point: a chaos schedule is `(seed, rates, budget)`,
//! so a failing soak round can be replayed bit-for-bit. The total number
//! of fires is bounded by the `budget`, which guarantees every schedule
//! eventually goes quiet and the run under test can converge.
//!
//! The default registry is disarmed: the hot-path cost of an instrumented
//! operation is one relaxed atomic load.

use crate::error::{Error, Result};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Instrumented operations a failpoint can fire inside.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FailSite {
    /// A scheduled task attempt's body (executor worker running user code).
    TaskRun,
    /// MRBG-Store chunk-region read.
    StoreRead,
    /// MRBG-Store batch append / merge write path.
    StoreAppend,
    /// MRBG-Store compaction pass.
    StoreCompact,
    /// DFS block read.
    DfsBlockRead,
    /// Checkpoint artifact write.
    CheckpointWrite,
}

impl FailSite {
    /// All sites, index-aligned with the registry's internal tables.
    pub const ALL: [FailSite; 6] = [
        FailSite::TaskRun,
        FailSite::StoreRead,
        FailSite::StoreAppend,
        FailSite::StoreCompact,
        FailSite::DfsBlockRead,
        FailSite::CheckpointWrite,
    ];

    /// Display name used in injected error messages.
    pub fn name(self) -> &'static str {
        match self {
            FailSite::TaskRun => "task-run",
            FailSite::StoreRead => "store-read",
            FailSite::StoreAppend => "store-append",
            FailSite::StoreCompact => "store-compact",
            FailSite::DfsBlockRead => "dfs-block-read",
            FailSite::CheckpointWrite => "checkpoint-write",
        }
    }

    fn slot(self) -> usize {
        match self {
            FailSite::TaskRun => 0,
            FailSite::StoreRead => 1,
            FailSite::StoreAppend => 2,
            FailSite::StoreCompact => 3,
            FailSite::DfsBlockRead => 4,
            FailSite::CheckpointWrite => 5,
        }
    }

    /// Per-site hash salt so the same seed produces independent fire
    /// patterns at different sites.
    fn salt(self) -> u64 {
        0x9E37_79B9_7F4A_7C15u64.wrapping_mul(self.slot() as u64 + 1)
    }
}

/// What an armed failpoint does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailAction {
    /// The instrumented operation returns an injected error.
    Error,
    /// The instrumented operation panics — simulating the worker dying at
    /// that point. The executor must isolate this into a task failure.
    Panic,
}

/// SplitMix64: tiny, high-quality, dependency-free mixing function. The
/// registry derives every fire decision from
/// `splitmix64(seed ^ site_salt ^ hit_index)`, so decisions are a pure
/// function of the schedule, independent of thread interleaving *given*
/// the per-site hit order.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const N_SITES: usize = FailSite::ALL.len();

/// A seeded registry of armed fail sites. See module docs.
///
/// Immutable after construction (builder-style [`FailpointRegistry::arm`]),
/// so checks take no locks.
#[derive(Debug)]
pub struct FailpointRegistry {
    seed: u64,
    /// `(fire_threshold, action)` per site; `None` = site disarmed.
    rules: [Option<(u64, FailAction)>; N_SITES],
    /// Monotonic hit counter per site — the deterministic "time" axis.
    hits: [AtomicU64; N_SITES],
    /// Remaining total fires across all sites; at most this many faults
    /// are ever injected, so every schedule goes quiet.
    budget: AtomicI64,
    /// Total fires so far (observability for soak assertions).
    fired: AtomicU64,
    armed: bool,
}

impl Default for FailpointRegistry {
    fn default() -> Self {
        Self::disarmed()
    }
}

impl FailpointRegistry {
    /// A registry that never fires (the production default).
    pub fn disarmed() -> Self {
        FailpointRegistry {
            seed: 0,
            rules: [None; N_SITES],
            hits: Default::default(),
            budget: AtomicI64::new(0),
            fired: AtomicU64::new(0),
            armed: false,
        }
    }

    /// A seeded registry allowed to fire at most `budget` times in total.
    pub fn seeded(seed: u64, budget: u32) -> Self {
        FailpointRegistry {
            seed,
            rules: [None; N_SITES],
            hits: Default::default(),
            budget: AtomicI64::new(i64::from(budget)),
            fired: AtomicU64::new(0),
            armed: false,
        }
    }

    /// Arm `site` to fire with probability `rate` (clamped to `[0, 1]`)
    /// per hit, performing `action` when it does.
    pub fn arm(mut self, site: FailSite, rate: f64, action: FailAction) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        // Map the probability onto the full u64 range; rate 1.0 must fire
        // on every hit, so saturate rather than round down.
        let threshold = if rate >= 1.0 {
            u64::MAX
        } else {
            (rate * u64::MAX as f64) as u64
        };
        self.rules[site.slot()] = Some((threshold, action));
        self.armed = true;
        self
    }

    /// Total faults injected so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Register one hit of `site`; returns the action to perform if the
    /// failpoint fires. Never fires when disarmed or out of budget.
    pub fn hit(&self, site: FailSite) -> Option<FailAction> {
        if !self.armed {
            return None;
        }
        let (threshold, action) = self.rules[site.slot()]?;
        let index = self.hits[site.slot()].fetch_add(1, Ordering::Relaxed);
        if threshold != u64::MAX && splitmix64(self.seed ^ site.salt() ^ index) > threshold {
            return None;
        }
        // The budget is the fence against runaway schedules: claim a slot
        // before firing, and put it back if someone else drained it first.
        if self.budget.fetch_sub(1, Ordering::AcqRel) <= 0 {
            self.budget.fetch_add(1, Ordering::AcqRel);
            return None;
        }
        self.fired.fetch_add(1, Ordering::Relaxed);
        Some(action)
    }

    /// Hit `site`; on a fired [`FailAction::Error`] return an injected
    /// error naming the site and `what`, on [`FailAction::Panic`] panic
    /// (simulated worker death — the executor isolates it).
    pub fn check(&self, site: FailSite, what: &str) -> Result<()> {
        match self.hit(site) {
            None => Ok(()),
            Some(FailAction::Error) => Err(Error::corrupt(format!(
                "injected fault at {} ({what})",
                site.name()
            ))),
            Some(FailAction::Panic) => {
                panic!("injected worker death at {} ({what})", site.name())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_registry_never_fires() {
        let fp = FailpointRegistry::disarmed();
        for _ in 0..1000 {
            assert!(fp.hit(FailSite::StoreRead).is_none());
        }
        assert_eq!(fp.fired(), 0);
    }

    #[test]
    fn rate_one_fires_until_budget_exhausted() {
        let fp = FailpointRegistry::seeded(7, 3).arm(FailSite::TaskRun, 1.0, FailAction::Error);
        let fires = (0..10)
            .filter(|_| fp.hit(FailSite::TaskRun).is_some())
            .count();
        assert_eq!(fires, 3, "budget bounds total fires");
        assert_eq!(fp.fired(), 3);
    }

    #[test]
    fn fires_are_deterministic_in_hit_order() {
        let pattern = |seed: u64| -> Vec<bool> {
            let fp = FailpointRegistry::seeded(seed, 1000).arm(
                FailSite::StoreAppend,
                0.3,
                FailAction::Error,
            );
            (0..64)
                .map(|_| fp.hit(FailSite::StoreAppend).is_some())
                .collect()
        };
        assert_eq!(pattern(42), pattern(42), "same seed, same schedule");
        assert_ne!(pattern(42), pattern(43), "different seeds diverge");
    }

    #[test]
    fn sites_fire_independently() {
        let fp = FailpointRegistry::seeded(9, 1000)
            .arm(FailSite::StoreRead, 0.5, FailAction::Error)
            .arm(FailSite::DfsBlockRead, 0.5, FailAction::Error);
        let a: Vec<bool> = (0..64)
            .map(|_| fp.hit(FailSite::StoreRead).is_some())
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|_| fp.hit(FailSite::DfsBlockRead).is_some())
            .collect();
        assert_ne!(a, b, "site salts decorrelate the streams");
        // Unarmed site stays silent even on an armed registry.
        assert!(fp.hit(FailSite::StoreCompact).is_none());
    }

    #[test]
    fn check_translates_error_action() {
        let fp =
            FailpointRegistry::seeded(1, 10).arm(FailSite::CheckpointWrite, 1.0, FailAction::Error);
        let err = fp.check(FailSite::CheckpointWrite, "state-0").unwrap_err();
        assert!(err.to_string().contains("checkpoint-write"));
        assert!(err.to_string().contains("state-0"));
    }

    #[test]
    fn check_panics_on_panic_action() {
        let fp = FailpointRegistry::seeded(1, 10).arm(FailSite::TaskRun, 1.0, FailAction::Panic);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = fp.check(FailSite::TaskRun, "map-0");
        }));
        assert!(r.is_err());
    }

    #[test]
    fn mid_rate_fires_some_but_not_all() {
        let fp = FailpointRegistry::seeded(123, 10_000).arm(
            FailSite::StoreRead,
            0.25,
            FailAction::Error,
        );
        let fires = (0..1000)
            .filter(|_| fp.hit(FailSite::StoreRead).is_some())
            .count();
        assert!(fires > 100 && fires < 450, "got {fires} fires at rate 0.25");
    }
}
