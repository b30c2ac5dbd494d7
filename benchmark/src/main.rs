//! The end-to-end refresh benchmark of the i2MapReduce workspace.
//!
//! ```text
//! i2mr-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick] [--rounds K]
//!     one run of one workload; the last line of stdout is the result object
//! i2mr-benchmark [--workload W] [--seed N] [--seconds S] [--rounds K] [--traced] [--quick]
//!     every workload (or W), each in a fresh child process; prints every
//!     metric by name with its unit and writes benchmark/out/result.json
//! i2mr-benchmark compare A.json B.json
//!     verdict table of two result.json files against BENCHMARK.json's bounds
//! ```
//!
//! See `benchmark/README.md` for the metric glossary.

mod bench;
mod compare;
mod json;
mod oracle;
mod probes;
mod spans;
mod stats;
mod sut;
mod workloads;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Result files, span files and scratch live here (git-ignored).
const OUT_DIR: &str = "benchmark/out";
const BENCHMARK_JSON: &str = "BENCHMARK.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    traced: bool,
    quick: bool,
    rounds: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        traced: false,
        quick: false,
        rounds: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            "--rounds" => {
                let k: usize = value("a number")?
                    .parse()
                    .map_err(|_| "--rounds needs a whole number")?;
                if k == 0 {
                    return Err("--rounds must be at least 1".into());
                }
                a.rounds = Some(k);
            }
            "--traced" => a.traced = true,
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `run_seconds` of `BENCHMARK.json`, the run length everything is
/// compared at.
fn default_seconds() -> f64 {
    read_json(Path::new(BENCHMARK_JSON))
        .ok()
        .and_then(|b| b.get("run_seconds").and_then(Json::as_f64))
        .unwrap_or(20.0)
}

/// One run of one workload in this process.
fn single(a: &Args, workload: &str, trace: bool) -> ExitCode {
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let opts = bench::Opts {
        workload: workload.to_string(),
        seed: a.seed,
        seconds: a.seconds.unwrap_or_else(default_seconds),
        trace,
        quick: a.quick,
        // A quick run is one round by definition.
        rounds: a.rounds.or(a.quick.then_some(1)),
        out_dir,
    };
    match bench::run(&opts) {
        Ok(outcome) => {
            println!("{}", outcome.line.render());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("i2mr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run `workload` in a fresh child process; returns its result line.
fn child(a: &Args, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &a.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(s) = a.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if let Some(k) = a.rounds {
        cmd.args(["--rounds", &k.to_string()]);
    }
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result (exit {:?})", out.status.code()))?;
    Json::parse(line).map_err(|e| format!("{workload}: unreadable result line: {e}"))
}

fn print_metrics(metrics: &Json) {
    for (name, m) in metrics.as_obj().unwrap_or_default() {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {name:<38} {value:>18.4} {unit}");
    }
}

/// Every workload (or the one named), each in a fresh child process.
fn all(a: &Args) -> ExitCode {
    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let out_dir = PathBuf::from(OUT_DIR);
    let mut ok = true;
    let mut per_workload: Vec<(String, Json)> = Vec::new();
    for name in names {
        println!("== {name}");
        let mut entry: Vec<(String, Json)> = Vec::new();
        match child(a, name, false) {
            Ok(line) => {
                let detail =
                    read_json(&out_dir.join(format!("{name}.untraced.json"))).unwrap_or(Json::Null);
                let get = |k: &str| detail.get(k).cloned().unwrap_or(Json::Null);
                ok &= line.get("correct") == Some(&Json::Bool(true));
                for k in ["correct", "attempted", "failed"] {
                    entry.push((k.into(), line.get(k).cloned().unwrap_or(Json::Null)));
                }
                let metrics = line.get("metrics").cloned().unwrap_or(Json::Null);
                print_metrics(&metrics);
                let num = |k: &str| get(k).as_f64().unwrap_or(f64::NAN);
                println!(
                    "  {:<38} {:>18.4} MB",
                    "store_file_mb",
                    num("store_file_mb")
                );
                println!(
                    "  {:<38} {:>18} count",
                    "ops_attempted",
                    line.get("attempted").and_then(Json::as_f64).unwrap_or(0.0)
                );
                println!(
                    "  {:<38} {:>18} count",
                    "ops_failed",
                    line.get("failed").and_then(Json::as_f64).unwrap_or(0.0)
                );
                println!(
                    "  speed-up over recompute = recompute_s / (refresh_total_s / {} refreshes) = {:.2}x",
                    num("refreshes_per_round"),
                    num("speedup_recompute_s_over_refresh_s")
                );
                println!(
                    "  rounds {}  refresh samples {}  input_fingerprint {}",
                    num("rounds"),
                    num("refresh_samples"),
                    get("input_fingerprint").as_str().unwrap_or("?")
                );
                // `end_to_end` carries the per-round samples `compare` needs.
                for k in [
                    "end_to_end",
                    "input_fingerprint",
                    "rounds",
                    "refreshes_per_round",
                    "store_file_mb",
                    "speedup_recompute_s_over_refresh_s",
                    "result_max_err",
                    "counts",
                    "count_mismatches",
                ] {
                    entry.push((k.into(), get(k)));
                }
            }
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
        if a.traced {
            match child(a, name, true) {
                Ok(line) => {
                    ok &= line.get("correct") == Some(&Json::Bool(true));
                    let metrics = line.get("metrics").cloned().unwrap_or(Json::Null);
                    println!("  -- per layer (traced run)");
                    print_metrics(&metrics);
                    entry.push(("per_layer".into(), metrics));
                    let detail = read_json(&out_dir.join(format!("{name}.traced.json")))
                        .unwrap_or(Json::Null);
                    if let Some(shares) = detail.get("stage_share_of_refresh_wall") {
                        entry.push(("stage_share_of_refresh_wall".into(), shares.clone()));
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        per_workload.push((name.to_string(), Json::Obj(entry)));
    }
    let result = Json::obj([
        ("comparable", Json::Bool(!a.quick)),
        ("seed", Json::Num(a.seed as f64)),
        ("machine", bench::machine()),
        ("workloads", Json::Obj(per_workload)),
    ]);
    let path = out_dir.join("result.json");
    match std::fs::write(&path, result.render() + "\n") {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: at least one operation failed or missed its oracle");
        ExitCode::from(1)
    }
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let loaded = (|| {
        let benchmark = read_json(Path::new(BENCHMARK_JSON))?;
        compare::render(
            &read_json(Path::new(a))?,
            &read_json(Path::new(b))?,
            &benchmark,
        )
    })();
    match loaded {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => compare_files(a, b),
            _ => {
                eprintln!("usage: compare A.json B.json");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("i2mr-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.trace) {
        (Some(w), Some(trace)) => single(&args, &w.clone(), trace),
        (None, Some(_)) => {
            eprintln!("i2mr-benchmark: --trace needs --workload");
            ExitCode::from(2)
        }
        (_, None) => all(&args),
    }
}
