//! One workload, one process: set up, run rounds, check, report.
//!
//! A *round* is a fresh system taken through `initial` (converge +
//! preserve), a whole refresh stream — closed loop, each refresh issued
//! only after the previous one returned — `finish`, the oracle checks
//! (outside every timed span) and a timed recompute of the final input
//! from scratch. Every round starts from the same seeded input.
//!
//! Untraced runs (`--trace 0`) measure rounds until `--seconds` are used
//! up, each round on its own seeded delta stream, and report the
//! end-to-end metrics. Traced runs (`--trace 1`) alternate untraced and
//! traced rounds (`TelemetryMode::Full`) on one stream, check that every
//! count repeats exactly between them, then run the layer probes and
//! report the per-layer metrics; nothing timed in a traced run feeds an
//! end-to-end number.

use crate::json::Json;
use crate::probes::ProbeCtx;
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::sut::{Env, OpStats, Sut, PARTITIONS, WORKERS};
use crate::workloads::{Case, KmeansCase, PageRankCase, SsspCase, Stream};
use i2mr_common::telemetry::TelemetryMode;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// End-to-end metrics, as `BENCHMARK.json` lists them: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("initial_s", "s"),
    ("refresh_total_s", "s"),
    ("refresh_p50_ms", "ms"),
    ("refresh_p90_ms", "ms"),
    ("recompute_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("core.iterations", "count"),
    ("core.iter_wall_ms", "ms"),
    ("core.changed_keys", "count"),
    ("core.workset_keys", "count"),
    ("core.map_invocations", "count"),
    ("core.reduce_invocations", "count"),
    ("core.pdelta_fallbacks", "count"),
    ("core.stage_map_ms", "ms"),
    ("core.stage_shuffle_ms", "ms"),
    ("core.stage_sort_ms", "ms"),
    ("core.stage_reduce_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.session_build_ms", "ms"),
    ("core.finish_ms", "ms"),
    ("core.checkpoint.save_ms", "ms"),
    ("core.checkpoint.load_ms", "ms"),
    ("core.result_max_rel_err", "ratio"),
    ("mapred.shuffled_records", "count"),
    ("mapred.shuffled_bytes", "bytes"),
    ("mapred.retries", "count"),
    ("mapred.pool.dispatch_us_per_task", "us"),
    ("mapred.pool.fence_us", "us"),
    ("mapred.shuffle.push_ns_per_rec", "ns"),
    ("mapred.shuffle.transpose_ns_per_rec", "ns"),
    ("mapred.shuffle.sort_ns_per_rec", "ns"),
    ("mapred.shuffle.group_ns_per_rec", "ns"),
    ("mapred.job.pass_ms", "ms"),
    ("store.reads", "count"),
    ("store.bytes_read", "bytes"),
    ("store.writes", "count"),
    ("store.bytes_written", "bytes"),
    ("store.compactions", "count"),
    ("store.bytes_reclaimed", "bytes"),
    ("store.file_bytes_final", "bytes"),
    ("store.read_kb_per_changed_key", "KB"),
    ("store.write_kb_per_changed_key", "KB"),
    ("store.merge_apply_all_ms", "ms"),
    ("store.merge_apply_touched_ms", "ms"),
    ("store.get_ns", "ns"),
    ("store.flush_indexes_ms", "ms"),
    ("store.append_batch_all_ms", "ms"),
    ("store.compact_all_ms", "ms"),
    ("store.export_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.serve.get_hit_ns", "ns"),
    ("store.serve.get_miss_ns", "ns"),
    ("store.serve.hit_ratio", "ratio"),
    ("dfs.writes", "count"),
    ("dfs.bytes_written", "bytes"),
    ("dfs.write_mb_per_s", "MB/s"),
    ("dfs.read_mb_per_s", "MB/s"),
    ("common.codec.encode_ns_per_rec", "ns"),
    ("common.codec.decode_ns_per_rec", "ns"),
    ("common.telemetry.full_overhead_pct", "%"),
    ("common.telemetry.dropped_events", "count"),
    ("algos.map_ns_per_rec", "ns"),
    ("algos.reduce_ns_per_group", "ns"),
];

/// Times the set-up is repeated within a run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Refreshes in the discarded warm-up round.
const WARMUP_REFRESHES: usize = 2;
/// Untraced/traced round pairs in a traced run.
const TRACE_PAIRS: usize = 2;

/// One run's parameters.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Measure exactly this many rounds instead of filling `seconds`.
    pub rounds: Option<usize>,
    /// `benchmark/out`: result files, span files, scratch.
    pub out_dir: PathBuf,
}

/// What a run hands back: the contract's result line and its exit status.
pub struct Outcome {
    pub line: Json,
    pub correct: bool,
}

/// A scratch directory removed when dropped — on normal exit and on panic.
struct Scratch(PathBuf);

impl Scratch {
    fn create(path: PathBuf) -> std::io::Result<Scratch> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Scratch(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Timings, reports and verdicts of one round.
#[derive(Default)]
struct Round {
    initial_s: f64,
    refresh_ms: Vec<f64>,
    finish_s: f64,
    recompute_s: f64,
    store_file_bytes: u64,
    initial: OpStats,
    refresh: OpStats,
    recompute: OpStats,
    /// `build` / `finish` spans under the refreshes, summed.
    build_ms: f64,
    session_finish_ms: f64,
    dfs_writes: u64,
    dfs_bytes_written: u64,
    max_err: f64,
    attempted: u64,
    failed: u64,
}

impl Round {
    fn refresh_total_s(&self) -> f64 {
        self.refresh_ms.iter().sum::<f64>() / 1e3 + self.finish_s
    }

    /// Counts that must repeat exactly for one seed.
    fn counts(&self) -> Vec<(&'static str, u64)> {
        let m = &self.refresh.metrics;
        vec![
            ("core.iterations", self.refresh.iterations),
            ("core.changed_keys", self.refresh.changed_keys),
            ("core.workset_keys", m.workset_keys),
            ("core.map_invocations", m.map_invocations),
            ("core.reduce_invocations", m.reduce_invocations),
            ("core.pdelta_fallbacks", self.refresh.fallbacks),
            ("mapred.shuffled_records", m.shuffled_records),
            ("mapred.shuffled_bytes", m.shuffled_bytes),
            ("store.reads", m.store_io.reads),
            ("store.bytes_read", m.store_io.bytes_read),
            ("store.writes", m.store_io.writes),
            ("store.bytes_written", m.store_io.bytes_written),
            ("store.compactions", m.store_compactions),
            ("store.bytes_reclaimed", m.store_bytes_reclaimed),
            ("store.file_bytes_final", self.store_file_bytes),
            ("dfs.writes", self.dfs_writes),
            ("dfs.bytes_written", self.dfs_bytes_written),
            ("initial.iterations", self.initial.iterations),
            ("recompute.iterations", self.recompute.iterations),
        ]
    }
}

/// The oracle's results after the first and after the last refresh, and
/// for the recompute when that differs from `last`.
struct Expected<O> {
    first: O,
    last: O,
    recompute: Option<O>,
}

/// Run one round in the empty directory `dir`. Returns the round and, when
/// nothing failed, the system as the stream left it (for the probes).
#[allow(clippy::too_many_arguments)]
fn run_round<'e, C: Case>(
    case: &C,
    env: &'e Env,
    input: &[(u64, C::V)],
    stream: &Stream<C::V>,
    expected: &Expected<C::Out>,
    seed: u64,
    telemetry: TelemetryMode,
    refreshes: usize,
    spans: &Spans,
    round_id: u32,
    dir: &Path,
) -> (Round, Option<C::Sys<'e>>) {
    spans.set_round(round_id);
    let mut r = Round::default();
    let full = refreshes == stream.deltas.len();
    let (sys, _) = spans.time("round", None, |round| {
        // Any `Err` ends the round: the operations after it have nothing
        // valid to run on.
        macro_rules! attempt {
            ($what:expr, $result:expr) => {{
                r.attempted += 1;
                match $result {
                    Ok(v) => v,
                    Err(e) => {
                        r.failed += 1;
                        eprintln!("FAILED {} (round {round_id}): {e}", $what);
                        return None;
                    }
                }
            }};
        }
        let check = |r: &mut Round, what: &str, want: &C::Out, got: &C::Out| {
            let (verdict, _) = spans.time("oracle", Some(round), |_| case.error(want, got));
            match verdict {
                Ok(err) => r.max_err = r.max_err.max(err),
                Err(e) => {
                    r.failed += 1;
                    eprintln!("ORACLE MISS {what} (round {round_id}): {e}");
                }
            }
        };

        let mut sys = match case.system(env, seed, telemetry, dir) {
            Ok(sys) => sys,
            Err(e) => {
                r.attempted += 1;
                r.failed += 1;
                eprintln!("FAILED system (round {round_id}): {e}");
                return None;
            }
        };
        let (out, d) = spans.time("initial", Some(round), |id| sys.initial(input, spans, id));
        r.initial = attempt!("initial", out);
        r.initial_s = d.as_secs_f64();

        let dfs_before = sys.dfs_writes();
        for (i, delta) in stream.deltas[..refreshes].iter().enumerate() {
            let (out, d) = spans.time("refresh", Some(round), |id| sys.refresh(delta, spans, id));
            let stats = attempt!(format!("refresh {}", i + 1), out);
            r.refresh.absorb(&stats);
            r.refresh_ms.push(d.as_secs_f64() * 1e3);
            sys.note_applied(delta);
            if i == 0 {
                check(
                    &mut r,
                    "after first refresh",
                    &expected.first,
                    &sys.result(),
                );
            }
            if i + 1 == stream.deltas.len() {
                check(&mut r, "after last refresh", &expected.last, &sys.result());
            }
        }
        let (bytes, d) = spans.time("end-of-stream", Some(round), |_| sys.finish());
        r.store_file_bytes = bytes;
        r.finish_s = d.as_secs_f64();
        let dfs_after = sys.dfs_writes();
        r.dfs_writes = dfs_after.0 - dfs_before.0;
        r.dfs_bytes_written = dfs_after.1 - dfs_before.1;

        let (out, d) = spans.time("recompute", Some(round), |id| {
            sys.recompute(&stream.after_last, spans, id)
        });
        let (stats, result) = attempt!("recompute", out);
        r.recompute = stats;
        r.recompute_s = d.as_secs_f64();
        if full {
            let want = expected.recompute.as_ref().unwrap_or(&expected.last);
            check(&mut r, "recompute", want, &result);
        }
        Some(sys)
    });
    let refresh_child_ms = |name| spans.total_under(name, "refresh", round_id).as_secs_f64() * 1e3;
    r.build_ms = refresh_child_ms("build");
    r.session_finish_ms = refresh_child_ms("finish");
    let clean = r.failed == 0;
    (r, sys.filter(|_| clean))
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine line stamped into every result.
pub fn machine() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env_or = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("workers", Json::Num(WORKERS as f64)),
        ("partitions", Json::Num(PARTITIONS as f64)),
        ("rustc", Json::str(env_or("I2MR_BENCH_RUSTC"))),
        ("commit", Json::str(env_or("I2MR_BENCH_COMMIT"))),
    ])
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Run `opts.workload`; `Err` for an unknown name or an unusable machine.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    if nproc < WORKERS {
        return Err(format!(
            "{nproc} hardware thread(s) for {WORKERS} workers: timings would measure oversubscription"
        ));
    }
    let scale = if opts.quick { 8 } else { 1 };
    match opts.workload.as_str() {
        "pagerank_incr_1pct" => run_case(
            &PageRankCase {
                vertices: 20_000 / scale,
                edges: 160_000 / scale,
                churn: 0.01,
                refreshes: 10,
                checkpoint: false,
            },
            opts,
        ),
        "sssp_delta_0.1pct" => run_case(
            &SsspCase {
                vertices: 120_000 / scale,
                edges: 720_000 / scale,
                churn: 0.001,
                refreshes: 15,
            },
            opts,
        ),
        "pagerank_incr_10pct_ckpt" => run_case(
            &PageRankCase {
                vertices: 20_000 / scale,
                edges: 160_000 / scale,
                churn: 0.10,
                refreshes: 3,
                checkpoint: true,
            },
            opts,
        ),
        "kmeans_full_10pct" => run_case(
            &KmeansCase {
                points: 80_000 / scale,
                dims: 8,
                k: 8,
                churn: 0.10,
                refreshes: 6,
            },
            opts,
        ),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// What every round of a run shares, and what the rounds add up to.
struct Harness<'a, C: Case> {
    case: &'a C,
    env: &'a Env,
    spans: &'a Spans,
    scratch: &'a Path,
    seed: u64,
    input: Vec<(u64, C::V)>,
    /// Refreshes in a full round.
    refreshes: usize,
    rounds_run: u32,
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
}

impl<'a, C: Case> Harness<'a, C> {
    fn expect(&self, stream: &Stream<C::V>) -> Expected<C::Out> {
        let (expected, _) = self.spans.time("oracle:expected", None, |_| Expected {
            first: self.case.expected(&self.input, stream, self.seed, 1),
            last: self
                .case
                .expected(&self.input, stream, self.seed, self.refreshes),
            recompute: self.case.expected_recompute(stream, self.seed),
        });
        expected
    }

    /// Run the next round in a scratch directory of its own, which the
    /// caller removes once it is done with the returned system.
    fn round(
        &mut self,
        stream: &Stream<C::V>,
        expected: &Expected<C::Out>,
        telemetry: TelemetryMode,
        refreshes: usize,
    ) -> (Round, Option<C::Sys<'a>>, PathBuf) {
        self.rounds_run += 1;
        let dir = self.scratch.join(format!("round-{}", self.rounds_run));
        std::fs::create_dir_all(&dir).expect("round scratch directory");
        let (r, sys) = run_round(
            self.case,
            self.env,
            &self.input,
            stream,
            expected,
            self.seed,
            telemetry,
            refreshes,
            self.spans,
            self.rounds_run,
            &dir,
        );
        self.attempted += r.attempted;
        self.failed += r.failed;
        (r, sys, dir)
    }

    /// Measure untraced rounds until `opts.seconds` are used up; returns
    /// the end-to-end metrics as `(name, value, per-round samples)`.
    fn untraced(
        &mut self,
        first: (Stream<C::V>, Expected<C::Out>),
        opts: &Opts,
        detail: &mut Vec<(String, Json)>,
    ) -> Vec<(&'static str, f64, Vec<f64>)> {
        let mut rounds: Vec<Round> = Vec::new();
        let started = Instant::now();
        // Round 1 runs the stream the set-up generated; each later round
        // draws its own, so the refresh samples are all distinct deltas.
        let mut load = Some(first);
        loop {
            let (stream, expected) = load.take().unwrap_or_else(|| {
                let stream = self
                    .case
                    .stream(&self.input, self.seed, rounds.len() as u32 + 1);
                let expected = self.expect(&stream);
                (stream, expected)
            });
            let (r, sys, dir) = self.round(&stream, &expected, TelemetryMode::Off, self.refreshes);
            drop(sys);
            let _ = std::fs::remove_dir_all(dir);
            rounds.push(r);
            let elapsed = started.elapsed().as_secs_f64();
            let done = match opts.rounds {
                Some(k) => rounds.len() >= k,
                // Stop when another round would overshoot the budget by
                // more than the current shortfall.
                None => elapsed + 0.5 * elapsed / rounds.len() as f64 >= opts.seconds,
            };
            if done || self.failed > 0 {
                break;
            }
        }
        // Every round converges the same input: those counts must repeat.
        for r in &rounds[1..] {
            if r.initial.iterations != rounds[0].initial.iterations {
                self.mismatches.push(format!(
                    "initial.iterations: {} vs {} (between measured rounds)",
                    rounds[0].initial.iterations, r.initial.iterations
                ));
            }
        }
        let of = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
        let pooled: Vec<f64> = rounds.iter().flat_map(|r| r.refresh_ms.clone()).collect();
        let (initial, total, recompute) = (
            of(|r| r.initial_s),
            of(Round::refresh_total_s),
            of(|r| r.recompute_s),
        );
        let speedup = median(&recompute)
            / (median(&total) / self.refreshes.max(1) as f64).max(f64::MIN_POSITIVE);
        detail.extend([
            ("rounds".into(), Json::Num(rounds.len() as f64)),
            ("refresh_samples".into(), Json::Num(pooled.len() as f64)),
            (
                "store_file_mb".into(),
                Json::Num(rounds[0].store_file_bytes as f64 / 1e6),
            ),
            (
                "speedup_recompute_s_over_refresh_s".into(),
                Json::Num(speedup),
            ),
            (
                "result_max_err".into(),
                Json::Num(rounds.iter().map(|r| r.max_err).fold(0.0, f64::max)),
            ),
            (
                "counts".into(),
                Json::obj(
                    rounds[0]
                        .counts()
                        .into_iter()
                        .map(|(k, v)| (k, Json::Num(v as f64))),
                ),
            ),
        ]);
        // The percentiles are taken over the pooled refreshes; their
        // per-round values are kept as the samples `compare` judges spread by.
        vec![
            ("initial_s", median(&initial), initial),
            ("refresh_total_s", median(&total), total),
            (
                "refresh_p50_ms",
                percentile(&pooled, 50.0),
                of(|r| percentile(&r.refresh_ms, 50.0)),
            ),
            (
                "refresh_p90_ms",
                percentile(&pooled, 90.0),
                of(|r| percentile(&r.refresh_ms, 90.0)),
            ),
            ("recompute_s", median(&recompute), recompute),
            ("peak_rss_mb", peak_rss_mb(), vec![peak_rss_mb()]),
        ]
    }

    /// Alternate untraced and traced rounds on `stream`, run the layer
    /// probes on the last round's system, and return the per-layer values.
    fn traced(
        &mut self,
        stream: &Stream<C::V>,
        expected: &Expected<C::Out>,
        detail: &mut Vec<(String, Json)>,
    ) -> Vec<(&'static str, f64)> {
        // Alternating puts slow drift of the machine on both sides of the
        // overhead ratio.
        let mut walls = [0.0f64; 2];
        let mut first_counts = None;
        let mut last: Option<(Round, Option<C::Sys<'a>>, PathBuf)> = None;
        for i in 0..2 * TRACE_PAIRS {
            if let Some((_, sys, dir)) = last.take() {
                drop(sys);
                let _ = std::fs::remove_dir_all(dir);
            }
            let telemetry = [TelemetryMode::Off, TelemetryMode::Full][i % 2];
            let (r, sys, dir) = self.round(stream, expected, telemetry, self.refreshes);
            walls[i % 2] += r.refresh_total_s();
            let first = first_counts.get_or_insert_with(|| r.counts());
            for ((name, x), (_, y)) in first.iter().zip(r.counts()) {
                if *x != y {
                    self.mismatches
                        .push(format!("{name}: {x} vs {y} (round 1 vs round {})", i + 1));
                }
            }
            last = Some((r, sys, dir));
        }
        let (t, sys, dir) = last.expect("at least one traced round");

        let mut values: Vec<(&'static str, f64)> = Vec::new();
        if let Some(sys) = &sys {
            let (probed, _) = self.spans.time("probes", None, |parent| {
                self.case.probe(
                    sys,
                    &ProbeCtx {
                        env: self.env,
                        spans: self.spans,
                        parent,
                        seed: self.seed,
                        dir: &dir,
                    },
                )
            });
            match probed {
                Ok(v) => values = v,
                Err(e) => {
                    self.failed += 1;
                    eprintln!("FAILED probes: {e}");
                }
            }
        }
        drop(sys);
        let _ = std::fs::remove_dir_all(dir);

        let m = &t.refresh.metrics;
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let wall_ms: f64 = t.refresh_ms.iter().sum();
        let unattributed_ms = wall_ms - ms(m.stages.total());
        // SSSP's workset is the set of keys the refresh had to touch; the
        // full-pass engines report propagated (changed) keys instead.
        let useful_keys = match m.workset_keys {
            0 => t.refresh.changed_keys,
            w => w,
        }
        .max(1) as f64;
        values.extend([
            ("core.iterations", t.refresh.iterations as f64),
            (
                "core.iter_wall_ms",
                ms(t.refresh.iter_wall) / t.refresh.iterations.max(1) as f64,
            ),
            ("core.changed_keys", t.refresh.changed_keys as f64),
            ("core.workset_keys", m.workset_keys as f64),
            ("core.map_invocations", m.map_invocations as f64),
            ("core.reduce_invocations", m.reduce_invocations as f64),
            ("core.pdelta_fallbacks", t.refresh.fallbacks as f64),
            ("core.stage_map_ms", ms(m.stages.map)),
            ("core.stage_shuffle_ms", ms(m.stages.shuffle)),
            ("core.stage_sort_ms", ms(m.stages.sort)),
            ("core.stage_reduce_ms", ms(m.stages.reduce)),
            ("core.unattributed_ms", unattributed_ms),
            ("core.session_build_ms", t.build_ms),
            ("core.finish_ms", t.session_finish_ms),
            ("core.result_max_rel_err", t.max_err),
            ("mapred.shuffled_records", m.shuffled_records as f64),
            ("mapred.shuffled_bytes", m.shuffled_bytes as f64),
            ("mapred.retries", m.retries as f64),
            ("store.reads", m.store_io.reads as f64),
            ("store.bytes_read", m.store_io.bytes_read as f64),
            ("store.writes", m.store_io.writes as f64),
            ("store.bytes_written", m.store_io.bytes_written as f64),
            ("store.compactions", m.store_compactions as f64),
            ("store.bytes_reclaimed", m.store_bytes_reclaimed as f64),
            ("store.file_bytes_final", t.store_file_bytes as f64),
            (
                "store.read_kb_per_changed_key",
                m.store_io.bytes_read as f64 / 1024.0 / useful_keys,
            ),
            (
                "store.write_kb_per_changed_key",
                m.store_io.bytes_written as f64 / 1024.0 / useful_keys,
            ),
            ("dfs.writes", t.dfs_writes as f64),
            ("dfs.bytes_written", t.dfs_bytes_written as f64),
            (
                "common.telemetry.full_overhead_pct",
                (walls[1] / walls[0].max(f64::MIN_POSITIVE) - 1.0) * 100.0,
            ),
            (
                "common.telemetry.dropped_events",
                (t.initial.trace_dropped + t.refresh.trace_dropped + t.recompute.trace_dropped)
                    as f64,
            ),
        ]);
        detail.push((
            "stage_share_of_refresh_wall".into(),
            Json::obj([
                ("map", Json::Num(ms(m.stages.map) / wall_ms)),
                ("shuffle", Json::Num(ms(m.stages.shuffle) / wall_ms)),
                ("sort", Json::Num(ms(m.stages.sort) / wall_ms)),
                ("reduce", Json::Num(ms(m.stages.reduce) / wall_ms)),
                ("unattributed", Json::Num(unattributed_ms / wall_ms)),
            ]),
        ));
        values
    }
}

fn run_case<C: Case>(case: &C, opts: &Opts) -> Result<Outcome, String> {
    let spans = Spans::new();
    let scratch = Scratch::create(opts.out_dir.join(format!("scratch-{}", std::process::id())))
        .map_err(|e| format!("scratch directory: {e}"))?;
    let env = Env::new();

    // Set-up: generate the input and a round's delta stream from the seed.
    let mut setup_s = Vec::new();
    let mut generated = None;
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    for _ in 0..reps {
        let (g, d) = spans.time("setup", None, |_| {
            let input = case.input(opts.seed);
            let stream = case.stream(&input, opts.seed, 1);
            (input, stream)
        });
        setup_s.push(d.as_secs_f64());
        generated = Some(g);
    }
    let (input, stream) = generated.expect("at least one set-up");
    let mut h = Harness {
        case,
        env: &env,
        spans: &spans,
        scratch: &scratch.0,
        seed: opts.seed,
        input,
        refreshes: stream.deltas.len(),
        rounds_run: 0,
        attempted: 0,
        failed: 0,
        mismatches: Vec::new(),
    };
    let expected = h.expect(&stream);

    // Warm-up: page in the code, warm the allocator and the page cache.
    let (_, sys, dir) = h.round(
        &stream,
        &expected,
        TelemetryMode::Off,
        WARMUP_REFRESHES.min(h.refreshes),
    );
    drop(sys);
    let _ = std::fs::remove_dir_all(dir);

    let mut detail: Vec<(String, Json)> = vec![
        ("workload".into(), Json::str(opts.workload.clone())),
        ("seed".into(), Json::Num(opts.seed as f64)),
        ("comparable".into(), Json::Bool(!opts.quick)),
        ("machine".into(), machine()),
        (
            "input_fingerprint".into(),
            Json::str(format!("{:016x}", stream.fingerprint)),
        ),
        ("refreshes_per_round".into(), Json::Num(h.refreshes as f64)),
    ];
    let metrics = if opts.trace {
        let values = h.traced(&stream, &expected, &mut detail);
        let spans_path = opts.out_dir.join(format!("{}.spans.jsonl", opts.workload));
        if let Err(e) = spans.write_jsonl(&spans_path) {
            eprintln!("could not write {}: {e}", spans_path.display());
        }
        // A layer a workload does not have (Kmeans has no store plane)
        // reports 0 for that layer's probes.
        Json::obj(PER_LAYER.iter().map(|(name, unit)| {
            let v = values
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0.0, |(_, v)| *v);
            (*name, metric(v, unit))
        }))
    } else {
        let mut measured = h.untraced((stream, expected), opts, &mut detail);
        measured.insert(0, ("setup_s", median(&setup_s), setup_s));
        let unit = |name: &str| {
            END_TO_END
                .iter()
                .find(|(n, _)| *n == name)
                .expect("a listed metric")
                .1
        };
        // The result file keeps each metric's per-round samples next to
        // its value, so `compare` can judge a change against their spread.
        detail.push((
            "end_to_end".into(),
            Json::obj(measured.iter().map(|(name, value, samples)| {
                let mut m = metric(*value, unit(name));
                if let Json::Obj(fields) = &mut m {
                    fields.push(("samples".into(), Json::nums(samples)));
                }
                (*name, m)
            })),
        ));
        Json::obj(
            measured
                .iter()
                .map(|(name, value, _)| (*name, metric(*value, unit(name)))),
        )
    };

    for m in &h.mismatches {
        eprintln!("COUNT MISMATCH {m}");
    }
    let correct = h.failed == 0;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(h.attempted as f64)),
        ("failed", Json::Num(h.failed as f64)),
        ("metrics", metrics),
    ]);
    detail.push((
        "count_mismatches".into(),
        Json::Arr(h.mismatches.iter().cloned().map(Json::Str).collect()),
    ));
    detail.push(("result".into(), line.clone()));
    let kind = if opts.trace { "traced" } else { "untraced" };
    let detail_path = opts.out_dir.join(format!("{}.{kind}.json", opts.workload));
    if let Err(e) = std::fs::write(&detail_path, Json::Obj(detail).render() + "\n") {
        eprintln!("could not write {}: {e}", detail_path.display());
    }
    Ok(Outcome { line, correct })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above must name the same metrics
    /// with the same units, and the file must have the contract's shape.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let listed = |section: &str| -> Vec<(String, String)> {
            doc.get(section)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
        for m in doc.get("end_to_end").unwrap().as_arr().unwrap() {
            let bound = m.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn result_line_round_trips_with_exactly_the_contract_keys() {
        let line = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(23.0)),
            ("failed", Json::Num(0.0)),
            (
                "metrics",
                Json::obj(END_TO_END.iter().map(|(n, u)| (*n, metric(1.5, u)))),
            ),
        ]);
        let back = Json::parse(&line.render()).unwrap();
        assert_eq!(back, line);
        let metrics = back.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(metrics
            .iter()
            .all(|(_, m)| m.get("value").is_some() && m.get("unit").is_some()));
    }

    #[test]
    fn scratch_is_removed_on_drop_and_on_panic() {
        let root = std::env::temp_dir().join(format!("i2mr-benchmark-test-{}", std::process::id()));
        let path = root.join("scratch");
        {
            let s = Scratch::create(path.clone()).unwrap();
            std::fs::write(s.0.join("f"), b"x").unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists());
        let p2 = path.clone();
        let panicked = std::panic::catch_unwind(move || {
            let _s = Scratch::create(p2).unwrap();
            panic!("boom");
        });
        assert!(panicked.is_err());
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(root);
    }
}
