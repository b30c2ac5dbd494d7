//! The four workloads: seeded input + delta-stream generation, the
//! system each one drives, and the oracle each result is held to.
//!
//! Sizes are the full-size defaults; `--quick` divides the data by 8.
//! Every engine knob not named here stays at its `Default`.

use crate::oracle;
use crate::probes::{self, ProbeCtx};
use crate::sut::{Env, GraphPlan, GraphSut, KmeansSut, Sut};
use i2mr_algos::kmeans::Centroids;
use i2mr_algos::pagerank::PageRank;
use i2mr_algos::sssp::Sssp;
use i2mr_common::error::Result;
use i2mr_common::telemetry::TelemetryMode;
use i2mr_core::delta::{Delta, Op};
use i2mr_core::incr_iter::IncrParams;
use i2mr_core::iterative::IterParams;
use i2mr_datagen::delta::{graph_delta, points_delta, weighted_graph_delta, DeltaSpec};
use i2mr_datagen::graph::GraphGen;
use i2mr_datagen::points::PointsGen;
use i2mr_mapred::ValueData;
use std::path::Path;

/// Workload names, in reporting order.
pub const NAMES: [&str; 4] = [
    "pagerank_incr_1pct",
    "sssp_delta_0.1pct",
    "pagerank_incr_10pct_ckpt",
    "kmeans_full_10pct",
];

/// PageRank with CPC is approximate by design: a change below the filter
/// threshold (1e-3) is not propagated, and the residue accumulates over a
/// refresh stream. Worst relative error tolerated against the oracle.
pub const PAGERANK_TOLERANCE: f64 = 2e-2;
/// Largest L2 distance tolerated between an engine centroid and the oracle's.
pub const KMEANS_TOLERANCE: f64 = 1e-6;

/// One round's delta stream over an input, each delta drawn against the
/// input as the previous deltas left it.
pub struct Stream<V> {
    pub deltas: Vec<Delta<u64, V>>,
    /// The input after the first delta, and after the whole stream.
    pub after_first: Vec<(u64, V)>,
    pub after_last: Vec<(u64, V)>,
    /// Stable hash of the input and every delta record, so a change to the
    /// generators that silently changes the load shows in a result diff.
    pub fingerprint: u64,
}

impl<V> Stream<V> {
    /// The input after the first `upto` deltas (`upto` is 1 or the stream
    /// length — the two points the oracle checks).
    fn after(&self, upto: usize) -> &[(u64, V)] {
        match upto {
            1 => &self.after_first,
            _ => &self.after_last,
        }
    }
}

/// Apply `delta` to `base`, which is sorted by key with unique keys (every
/// generator here keeps that). An update — a delete and an insert of the
/// same key, adjacent in either order — replaces the value in place.
pub fn apply_in_place<V: ValueData + PartialEq>(base: &mut Vec<(u64, V)>, delta: &Delta<u64, V>) {
    let recs = delta.records();
    let mut i = 0;
    while i < recs.len() {
        let r = &recs[i];
        let at = base.binary_search_by_key(&r.key, |e| e.0);
        match (r.op, at) {
            (Op::Delete, Ok(pos)) if base[pos].1 == r.value => match recs.get(i + 1) {
                Some(next) if next.op == Op::Insert && next.key == r.key => {
                    base[pos].1 = next.value.clone();
                    i += 1;
                }
                _ => {
                    base.remove(pos);
                }
            },
            (Op::Insert, Err(pos)) => base.insert(pos, (r.key, r.value.clone())),
            (Op::Insert, Ok(pos)) => base[pos].1 = r.value.clone(),
            (Op::Delete, _) => {}
        }
        i += 1;
    }
}

/// Bytes of a record value, for the fingerprint.
pub trait Hashed {
    fn feed(&self, h: &mut Fnv);
}

impl Hashed for Vec<u64> {
    fn feed(&self, h: &mut Fnv) {
        h.u64(self.len() as u64);
        self.iter().for_each(|x| h.u64(*x));
    }
}

impl Hashed for Vec<f64> {
    fn feed(&self, h: &mut Fnv) {
        h.u64(self.len() as u64);
        self.iter().for_each(|x| h.u64(x.to_bits()));
    }
}

impl Hashed for Vec<(u64, f64)> {
    fn feed(&self, h: &mut Fnv) {
        h.u64(self.len() as u64);
        for (t, w) in self {
            h.u64(*t);
            h.u64(w.to_bits());
        }
    }
}

/// FNV-1a, 64 bit.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A seed derived from `seed` for step `step` (SplitMix64 finalizer).
fn step_seed(seed: u64, step: u64) -> u64 {
    let mut z = seed
        .wrapping_add(step.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build round `round`'s stream of `refreshes` deltas over `input`;
/// `next(current, seed)` draws one delta against the current input. Every
/// round of a run starts from the same input and gets its own deltas, so a
/// run's refresh timings cover `rounds x refreshes` distinct deltas.
fn stream_of<V: ValueData + PartialEq + Hashed>(
    input: &[(u64, V)],
    refreshes: usize,
    seed: u64,
    round: u32,
    next: impl Fn(&[(u64, V)], u64) -> Delta<u64, V>,
) -> Stream<V> {
    let seed = step_seed(seed, u64::from(round) << 32);
    let mut h = Fnv::new();
    h.u64(input.len() as u64);
    for (k, v) in input {
        h.u64(*k);
        v.feed(&mut h);
    }
    let mut current = input.to_vec();
    let mut deltas = Vec::with_capacity(refreshes);
    let mut after_first = Vec::new();
    for i in 0..refreshes {
        let delta = next(&current, step_seed(seed, i as u64 + 1));
        h.u64(delta.len() as u64);
        for r in delta.records() {
            h.u64(r.key);
            h.u64(u64::from(r.op == Op::Insert));
            r.value.feed(&mut h);
        }
        apply_in_place(&mut current, &delta);
        if i == 0 {
            after_first = current.clone();
        }
        deltas.push(delta);
    }
    Stream {
        deltas,
        after_first,
        after_last: current,
        fingerprint: h.finish(),
    }
}

/// One workload: its load, its system, its oracle, its probes.
pub trait Case {
    type V: ValueData + PartialEq;
    type Out;
    type Sys<'e>: Sut<V = Self::V, Out = Self::Out>;

    /// The initial input from the seed: the same seed gives the same input.
    fn input(&self, seed: u64) -> Vec<(u64, Self::V)>;

    /// Round `round`'s delta stream over `input`, from the seed.
    fn stream(&self, input: &[(u64, Self::V)], seed: u64, round: u32) -> Stream<Self::V>;

    /// A fresh system rooted at the empty directory `dir`.
    fn system<'e>(
        &self,
        env: &'e Env,
        seed: u64,
        telemetry: TelemetryMode,
        dir: &Path,
    ) -> Result<Self::Sys<'e>>;

    /// The oracle's result after the first `upto` deltas of the stream
    /// (`upto` is 1 or the stream length).
    fn expected(
        &self,
        input: &[(u64, Self::V)],
        stream: &Stream<Self::V>,
        seed: u64,
        upto: usize,
    ) -> Self::Out;

    /// The oracle's result for a from-scratch computation on the final
    /// input, when that is not the same thing as `expected` after the
    /// last delta.
    fn expected_recompute(&self, _stream: &Stream<Self::V>, _seed: u64) -> Option<Self::Out> {
        None
    }

    /// Distance of `got` from the oracle's `want`, in the workload's error
    /// measure; `Err` when it is beyond the workload's tolerance.
    fn error(&self, want: &Self::Out, got: &Self::Out) -> std::result::Result<f64, String>;

    /// Time direct calls into each layer on this workload's own data.
    fn probe(&self, sys: &Self::Sys<'_>, ctx: &ProbeCtx<'_>) -> Result<Vec<(&'static str, f64)>>;
}

fn churn(fraction: f64, seed: u64) -> DeltaSpec {
    DeltaSpec {
        change_fraction: fraction,
        delete_fraction: 0.0,
        insert_fraction: 0.0,
        seed,
    }
}

/// Present each update as insert-then-delete instead of the generator's
/// delete-then-insert. A delta is a set difference, so the order carries
/// no meaning — but `core::incr_iter::apply_structure_delta` drops a
/// vertex's state when the delete empties its group and re-creates it at
/// `init` (rank 1.0) on the insert. CPC then judges the vertex's new rank
/// against 1.0 instead of its last propagated rank, and when the new rank
/// lands within the filter threshold of 1.0 the change is never propagated:
/// its out-edges keep the old share (seed 2, third stream: vertex 16039
/// goes 0.2518 -> 0.9998, vertex 18935 ends 15 % low). About one run in
/// ten trips it. Insert-first keeps the group non-empty, so the state
/// survives and the refresh is exact up to CPC; see README, first findings.
fn insert_first<V: ValueData>(delta: Delta<u64, V>) -> Delta<u64, V> {
    let mut records = delta.records().to_vec();
    for pair in records.chunks_exact_mut(2) {
        if pair[0].op == Op::Delete && pair[1].op == Op::Insert && pair[0].key == pair[1].key {
            pair.swap(0, 1);
        }
    }
    Delta::from_records(records)
}

/// Incremental PageRank with CPC (`filter_threshold = 1e-3`) over a
/// stream of link rewires.
pub struct PageRankCase {
    pub vertices: u64,
    pub edges: u64,
    pub churn: f64,
    pub refreshes: usize,
    pub checkpoint: bool,
}

impl PageRankCase {
    fn plan(&self) -> GraphPlan {
        GraphPlan {
            // A fixed number of passes from scratch, as the paper's
            // recompute baselines run: the passes a convergence test needs
            // vary 42..76 with the seed's graph, which would make
            // `initial_s` and `recompute_s` measure the seed. 0.85^60 leaves
            // a residue of 6e-5, well under the CPC threshold.
            iter: IterParams {
                max_iterations: 60,
                epsilon: 0.0,
                ..Default::default()
            },
            incr: IncrParams {
                filter_threshold: Some(1e-3),
                ..Default::default()
            },
            refresh_iter: IterParams::default(),
            workset: false,
            checkpoint: self.checkpoint,
        }
    }
}

impl Case for PageRankCase {
    type V = Vec<u64>;
    type Out = Vec<(u64, f64)>;
    type Sys<'e> = GraphSut<'e, PageRank>;

    fn input(&self, seed: u64) -> Vec<(u64, Vec<u64>)> {
        GraphGen::new(self.vertices, self.edges, seed).generate()
    }

    fn stream(&self, input: &[(u64, Vec<u64>)], seed: u64, round: u32) -> Stream<Vec<u64>> {
        stream_of(input, self.refreshes, seed, round, |g, s| {
            insert_first(graph_delta(g, churn(self.churn, s)))
        })
    }

    fn system<'e>(
        &self,
        env: &'e Env,
        _seed: u64,
        telemetry: TelemetryMode,
        dir: &Path,
    ) -> Result<GraphSut<'e, PageRank>> {
        GraphSut::new(PageRank::default(), env, self.plan(), telemetry, dir)
    }

    fn expected(
        &self,
        _input: &[(u64, Vec<u64>)],
        stream: &Stream<Vec<u64>>,
        _seed: u64,
        upto: usize,
    ) -> Vec<(u64, f64)> {
        oracle::pagerank(stream.after(upto), PageRank::default().damping, 1e-10)
    }

    fn error(
        &self,
        want: &Vec<(u64, f64)>,
        got: &Vec<(u64, f64)>,
    ) -> std::result::Result<f64, String> {
        let (err, key) = oracle::max_rel_err(want, got)?;
        if err > PAGERANK_TOLERANCE {
            return Err(format!(
                "worst relative rank error {err:.3e} (vertex {key}) exceeds {PAGERANK_TOLERANCE:.0e}"
            ));
        }
        Ok(err)
    }

    fn probe(
        &self,
        sys: &GraphSut<'_, PageRank>,
        ctx: &ProbeCtx<'_>,
    ) -> Result<Vec<(&'static str, f64)>> {
        probes::graph(sys, ctx)
    }
}

/// SSSP on the workset (delta-iteration) engine over a stream of
/// improvement-only changes (weight decreases, edge insertions).
pub struct SsspCase {
    pub vertices: u64,
    pub edges: u64,
    pub churn: f64,
    pub refreshes: usize,
}

impl Case for SsspCase {
    type V = Vec<(u64, f64)>;
    type Out = Vec<(u64, f64)>;
    type Sys<'e> = GraphSut<'e, Sssp>;

    fn input(&self, seed: u64) -> Vec<(u64, Vec<(u64, f64)>)> {
        GraphGen::new(self.vertices, self.edges, seed).weighted()
    }

    fn stream(
        &self,
        input: &[(u64, Vec<(u64, f64)>)],
        seed: u64,
        round: u32,
    ) -> Stream<Vec<(u64, f64)>> {
        stream_of(input, self.refreshes, seed, round, |g, s| {
            weighted_graph_delta(g, churn(self.churn, s))
        })
    }

    fn system<'e>(
        &self,
        env: &'e Env,
        _seed: u64,
        telemetry: TelemetryMode,
        dir: &Path,
    ) -> Result<GraphSut<'e, Sssp>> {
        // FT = 0 and a 1e-12 floor, as `algos::sssp` runs it: exact results.
        let iter = IterParams {
            max_iterations: 500,
            epsilon: 1e-12,
            ..Default::default()
        };
        let plan = GraphPlan {
            iter,
            refresh_iter: iter,
            incr: IncrParams {
                filter_threshold: Some(0.0),
                convergence_epsilon: 1e-12,
                max_iterations: 500,
                ..Default::default()
            },
            workset: true,
            checkpoint: false,
        };
        GraphSut::new(Sssp { source: 0 }, env, plan, telemetry, dir)
    }

    fn expected(
        &self,
        _input: &[(u64, Vec<(u64, f64)>)],
        stream: &Stream<Vec<(u64, f64)>>,
        _seed: u64,
        upto: usize,
    ) -> Vec<(u64, f64)> {
        oracle::dijkstra(stream.after(upto), 0)
    }

    fn error(
        &self,
        want: &Vec<(u64, f64)>,
        got: &Vec<(u64, f64)>,
    ) -> std::result::Result<f64, String> {
        match oracle::bit_mismatches(want, got)? {
            0 => Ok(0.0),
            n => Err(format!("{n} distances differ from Dijkstra's")),
        }
    }

    fn probe(
        &self,
        sys: &GraphSut<'_, Sssp>,
        ctx: &ProbeCtx<'_>,
    ) -> Result<Vec<(&'static str, f64)>> {
        probes::graph(sys, ctx)
    }
}

/// Kmeans (all-to-one dependency, MRBGraph off): every refresh re-iterates
/// over all points from the previous centroids.
pub struct KmeansCase {
    pub points: u64,
    pub dims: usize,
    pub k: usize,
    pub churn: f64,
    pub refreshes: usize,
}

impl KmeansCase {
    /// Fixed pass counts (epsilon 0 never stops early), as the paper's
    /// Kmeans runs: the passes a convergence test needs swing 5..100 with
    /// where the seed drops the initial centroids.
    const SCRATCH_ITERATIONS: u64 = 20;
    const REFRESH_ITERATIONS: u64 = 10;
    const EPSILON: f64 = 0.0;

    fn gen(&self, seed: u64) -> PointsGen {
        PointsGen::new(self.points, self.dims, self.k, seed)
    }
}

impl Case for KmeansCase {
    type V = Vec<f64>;
    type Out = Centroids;
    type Sys<'e> = KmeansSut<'e>;

    fn input(&self, seed: u64) -> Vec<(u64, Vec<f64>)> {
        self.gen(seed).all()
    }

    fn stream(&self, input: &[(u64, Vec<f64>)], seed: u64, round: u32) -> Stream<Vec<f64>> {
        stream_of(input, self.refreshes, seed, round, |p, s| {
            points_delta(p, churn(self.churn, s))
        })
    }

    fn system<'e>(
        &self,
        env: &'e Env,
        seed: u64,
        _telemetry: TelemetryMode,
        _dir: &Path,
    ) -> Result<KmeansSut<'e>> {
        Ok(KmeansSut::new(
            env,
            self.gen(seed).initial_centroids(self.k),
            Self::SCRATCH_ITERATIONS,
            Self::REFRESH_ITERATIONS,
            Self::EPSILON,
        ))
    }

    /// The oracle replays the chain the engine went through: Lloyd's on
    /// the initial points, then on from the previous centroids after each
    /// delta.
    fn expected(
        &self,
        input: &[(u64, Vec<f64>)],
        stream: &Stream<Vec<f64>>,
        seed: u64,
        upto: usize,
    ) -> Centroids {
        let mut points = input.to_vec();
        let mut centroids = oracle::lloyd(
            &points,
            self.gen(seed).initial_centroids(self.k),
            Self::SCRATCH_ITERATIONS,
            Self::EPSILON,
        );
        for delta in &stream.deltas[..upto] {
            apply_in_place(&mut points, delta);
            centroids = oracle::lloyd(&points, centroids, Self::REFRESH_ITERATIONS, Self::EPSILON);
        }
        centroids
    }

    /// From scratch there is no chain: Lloyd's from the seeded centroids.
    fn expected_recompute(&self, stream: &Stream<Vec<f64>>, seed: u64) -> Option<Centroids> {
        Some(oracle::lloyd(
            &stream.after_last,
            self.gen(seed).initial_centroids(self.k),
            Self::SCRATCH_ITERATIONS,
            Self::EPSILON,
        ))
    }

    fn error(&self, want: &Centroids, got: &Centroids) -> std::result::Result<f64, String> {
        let err = oracle::max_centroid_dist(want, got)?;
        if err > KMEANS_TOLERANCE {
            return Err(format!(
                "a centroid is {err:.3e} from the oracle's, beyond {KMEANS_TOLERANCE:.0e}"
            ));
        }
        Ok(err)
    }

    fn probe(&self, sys: &KmeansSut<'_>, ctx: &ProbeCtx<'_>) -> Result<Vec<(&'static str, f64)>> {
        probes::kmeans(sys, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PageRankCase {
        PageRankCase {
            vertices: 300,
            edges: 2_000,
            churn: 0.05,
            refreshes: 3,
            checkpoint: false,
        }
    }

    fn generate<C: Case>(case: &C, seed: u64, round: u32) -> Stream<C::V> {
        case.stream(&case.input(seed), seed, round)
    }

    #[test]
    fn same_seed_same_fingerprint_different_seed_different() {
        let a = generate(&tiny(), 7, 1);
        let b = generate(&tiny(), 7, 1);
        let c = generate(&tiny(), 8, 1);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.deltas, b.deltas);
        assert_ne!(a.fingerprint, c.fingerprint);
        assert_eq!(a.deltas.len(), 3);
        assert!(a.deltas.iter().all(|d| !d.is_empty()));
        // Each round of a run draws its own deltas over the same input.
        let next_round = generate(&tiny(), 7, 2);
        assert_ne!(a.deltas, next_round.deltas);
    }

    #[test]
    fn fingerprint_covers_the_delta_stream_and_every_generator() {
        let mut longer = tiny();
        longer.refreshes = 4;
        assert_ne!(
            generate(&tiny(), 7, 1).fingerprint,
            generate(&longer, 7, 1).fingerprint
        );
        let sssp = SsspCase {
            vertices: 300,
            edges: 2_000,
            churn: 0.05,
            refreshes: 2,
        };
        assert_eq!(
            generate(&sssp, 3, 1).fingerprint,
            generate(&sssp, 3, 1).fingerprint
        );
        assert_ne!(
            generate(&sssp, 3, 1).fingerprint,
            generate(&sssp, 4, 1).fingerprint
        );
        let km = KmeansCase {
            points: 200,
            dims: 3,
            k: 3,
            churn: 0.1,
            refreshes: 2,
        };
        assert_eq!(
            generate(&km, 3, 1).fingerprint,
            generate(&km, 3, 1).fingerprint
        );
        assert_ne!(
            generate(&km, 3, 1).fingerprint,
            generate(&km, 4, 1).fingerprint
        );
    }

    #[test]
    fn apply_in_place_agrees_with_the_library_apply() {
        let input = tiny().input(11);
        let s = tiny().stream(&input, 11, 1);
        let mut want = input.clone();
        for d in &s.deltas {
            want = d.apply_to(&want);
        }
        want.sort_by_key(|e| e.0);
        assert_eq!(s.after_last, want);
        let mut first = s.deltas[0].apply_to(&input);
        first.sort_by_key(|e| e.0);
        assert_eq!(s.after_first, first);
    }

    #[test]
    fn apply_in_place_handles_bare_inserts_and_deletes() {
        let mut base = vec![(1u64, vec![1u64]), (3, vec![3])];
        let mut d = Delta::new();
        d.insert(2, vec![2]);
        d.delete(3, vec![3]);
        d.delete(1, vec![9]); // value mismatch: ignored, as in `apply_to`
        apply_in_place(&mut base, &d);
        assert_eq!(base, vec![(1, vec![1]), (2, vec![2])]);
    }
}
