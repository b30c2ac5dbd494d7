//! The general-purpose iterative MapReduce model (paper §4).
//!
//! Iterative algorithms separate **loop-invariant structure data**
//! `(SK, SV)` from **loop-variant state data** `(DK, DV)` (paper Table 1).
//! i2MapReduce's enhanced APIs (paper Table 2) map to Rust as follows:
//!
//! | paper | here |
//! |---|---|
//! | `project(SK) -> DK` | [`IterativeSpec::project`] |
//! | `map(SK, SV, DK, DV) -> [(K2, V2)]` | [`IterativeSpec::map`] (K2 = DK) |
//! | `reduce(K2, {V2}) -> (K3, V3)` | [`IterativeSpec::reduce`] → new DV |
//! | `init(DK) -> DV` | [`IterativeSpec::init`] |
//! | `difference(DV_curr, DV_prev)` | [`IterativeSpec::difference`] |
//! | `setProjectType(...)` | [`DependencyKind`] |
//!
//! After the one-to-many/many-to-many → one-to-one/many-to-one conversion
//! the paper describes (Fig. 5), every structure kv-pair is interdependent
//! with exactly one state kv-pair, so the prime Reduce's output key space
//! equals the state key space: this engine fixes `K2 = DK`.
//!
//! Applications whose state is a single small kv-pair (Kmeans' centroid set,
//! dependency "all-to-one") replicate the state instead of partitioning it
//! and implement [`SmallStateSpec`] (paper §4.3, "Supporting Smaller Number
//! of State kv-pairs").

use i2mr_mapred::types::{Emitter, KeyData, ValueData, Values};

/// Dependency between structure and state kv-pairs (paper Fig. 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DependencyKind {
    /// Every structure kv-pair depends on its own state kv-pair (PageRank,
    /// SSSP).
    OneToOne,
    /// Several structure kv-pairs share one state kv-pair (GIM-V: all
    /// blocks `m_{i,j}` of column `j` share vector block `v_j`).
    ManyToOne,
}

/// Spec of a partitioned iterative computation (K2 = DK).
///
/// # Engine requirements
///
/// * `project` must be a pure function.
/// * The set of K2s `map` emits must depend only on `(SK, SV)` — not on the
///   state value — so that a delta-state re-execution upserts exactly the
///   edges of the original execution (MRBGraph edge identity is `(K2, MK)`
///   with `MK = hash(SK)`).
/// * `reduce` must be a pure function of its arguments; it receives the
///   previous state value (`prev`) for algorithms like GIM-V's
///   `assign(v_i, v'_i)`, and an *empty* [`Values`] view when no
///   intermediate values arrived for the key this iteration. The view
///   borrows straight from the sorted shuffle run (or the merged
///   MRBG-Store chunk), so implementations must not assume ownership.
pub trait IterativeSpec: Send + Sync {
    /// Structure key.
    type SK: KeyData;
    /// Structure value.
    type SV: ValueData;
    /// State key (also the intermediate key K2).
    type DK: KeyData;
    /// State value.
    type DV: ValueData;
    /// Intermediate value.
    type V2: ValueData;

    /// The interdependent state key of a structure kv-pair.
    fn project(&self, sk: &Self::SK) -> Self::DK;

    /// The prime Map: one call per interdependent (structure, state) pair.
    fn map(
        &self,
        sk: &Self::SK,
        sv: &Self::SV,
        dk: &Self::DK,
        dv: &Self::DV,
        out: &mut Emitter<Self::DK, Self::V2>,
    );

    /// The prime Reduce: fold the intermediate values for `dk` into the new
    /// state value. `prev` is the state value from the previous iteration.
    fn reduce(
        &self,
        dk: &Self::DK,
        prev: &Self::DV,
        values: Values<'_, Self::DK, Self::V2>,
    ) -> Self::DV;

    /// Initial state value for a key (paper: `init(DK) -> DV`).
    fn init(&self, dk: &Self::DK) -> Self::DV;

    /// Magnitude of change between two state values; drives convergence
    /// detection and change propagation control.
    fn difference(&self, curr: &Self::DV, prev: &Self::DV) -> f64;

    /// Declared dependency type (paper: `setProjectType`).
    fn dependency(&self) -> DependencyKind;
}

/// Spec of an iterative computation whose state is one small kv-pair,
/// replicated to every partition (Kmeans).
pub trait SmallStateSpec: Send + Sync {
    /// Structure key (e.g. point id).
    type SK: KeyData;
    /// Structure value (e.g. point coordinates).
    type SV: ValueData;
    /// The whole replicated state (e.g. the centroid set).
    type State: ValueData;
    /// Intermediate key (e.g. centroid id).
    type K2: KeyData;
    /// Intermediate value (e.g. partial (sum, count)).
    type V2: ValueData;

    /// The prime Map: sees the full replicated state.
    fn map(
        &self,
        sk: &Self::SK,
        sv: &Self::SV,
        state: &Self::State,
        out: &mut Emitter<Self::K2, Self::V2>,
    );

    /// The prime Reduce: fold one intermediate group into a partial result.
    ///
    /// Must be an associative and commutative *partial* fold (the paper's
    /// §3.5 distributive property, `f(D ∪ ΔD) = f(D) ⊕ f(ΔD)`): folding any
    /// split of a group and then folding the partials gives the result of
    /// folding the whole group, in any order. The engine relies on it — map
    /// tasks combine the values they emit through this function before the
    /// shuffle, the reduce side folds the per-task partials with it again,
    /// and the order of values within a group is not defined. Floating-point
    /// sums may differ in the last bits between groupings; nothing else may.
    fn reduce(&self, k2: &Self::K2, values: Values<'_, Self::K2, Self::V2>) -> Self::V2;

    /// Assemble the next replicated state from all partial results.
    fn assemble(&self, prev: &Self::State, parts: &[(Self::K2, Self::V2)]) -> Self::State;

    /// Magnitude of change between two states.
    fn difference(&self, curr: &Self::State, prev: &Self::State) -> f64;
}

/// When (if at all) the engine preserves the MRBGraph during a full
/// iterative run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PreserveMode {
    /// No preservation — this is the `iterMR` re-computation baseline.
    None,
    /// Refresh the MRBGraph every iteration (paper §5.1/§6.1 default; the
    /// file accrues one batch per iteration until compaction).
    EveryIteration,
    /// Skip preservation during the run, then replay the final converged
    /// iteration once with preservation on (ablation; DESIGN.md §6).
    FinalOnly,
}

/// Knobs of an iterative run.
#[derive(Clone, Copy, Debug)]
pub struct IterParams {
    /// Max iterations (safety bound; the paper typically runs ~10).
    pub max_iterations: u64,
    /// Converged when the max per-key `difference` falls below this.
    pub epsilon: f64,
    /// MRBGraph preservation during full runs.
    pub preserve: PreserveMode,
}

impl Default for IterParams {
    fn default() -> Self {
        IterParams {
            max_iterations: 50,
            epsilon: 1e-6,
            preserve: PreserveMode::None,
        }
    }
}

/// Per-iteration progress report of an iterative run.
#[derive(Clone, Debug, Default)]
pub struct IterationStats {
    /// 1-based iteration number.
    pub iteration: u64,
    /// Max per-key `difference` this iteration.
    pub max_diff: f64,
    /// State kv-pairs whose value changed (or, incrementally: propagated).
    pub changed_keys: u64,
    /// Wall time of this iteration.
    pub wall: std::time::Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_are_sane() {
        let p = IterParams::default();
        assert!(p.max_iterations > 0);
        assert!(p.epsilon > 0.0);
        assert_eq!(p.preserve, PreserveMode::None);
    }

    #[test]
    fn dependency_kinds_are_distinct() {
        assert_ne!(DependencyKind::OneToOne, DependencyKind::ManyToOne);
    }
}
