//! `compare A.json B.json`: the table a performance change pastes.
//!
//! `A` and `B` are result files written by a full run (`out/result.json`).
//! One row per workload × end-to-end metric: both values with their
//! quartiles, the ratio with its base, and a verdict against the bound in
//! `BENCHMARK.json`. A second table lists per-layer deltas when both files
//! carry a traced run.
//!
//! The verdict is a screen, not a claim: a gain still needs the paired
//! runs the choosing-metrics guide asks for.

use crate::json::Json;
use crate::stats::{quartiles, spread};
use std::fmt::Write as _;

/// How one metric moved between `A` and `B`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The spread between A's own samples exceeds the bound: the metric
    /// cannot resolve a change of the size the bound guards against.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against `a`. `spread_a` is the interquartile range of A's own
/// samples as a share of their median (`None` with fewer than two
/// samples); `bound` the tolerated worsening. Worse by more than the bound
/// is a regression; better by more than A's own spread — or, when that is
/// unknown, by more than the bound — is an improvement.
pub fn verdict(
    a: f64,
    b: f64,
    lower_is_better: bool,
    spread_a: Option<f64>,
    bound: f64,
) -> Verdict {
    let spread_a = spread_a.unwrap_or(bound);
    if spread_a > bound {
        return Verdict::Unresolved;
    }
    if a == 0.0 {
        return Verdict::Unchanged;
    }
    let worse = if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    };
    if worse > bound {
        Verdict::Regressed
    } else if -worse > spread_a {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) != Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

fn quartile_text(samples: &[f64]) -> String {
    match quartiles(samples) {
        Some((q1, q3)) => format!("[{q1:.4}, {q3:.4}]"),
        None => "[n/a]".to_string(),
    }
}

/// Render the comparison of result files `a` and `b`.
pub fn render(a: &Json, b: &Json, benchmark: &Json) -> Result<String, String> {
    let bounds = bounds(benchmark)?;
    let workloads_a = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("A has no workloads (is it an out/result.json?)")?;
    let mut out = String::new();
    for side in [("A", a), ("B", b)] {
        if side.1.get("comparable") == Some(&Json::Bool(false)) {
            let _ = writeln!(out, "WARNING: {} is a --quick run, not comparable", side.0);
        }
    }
    let _ = writeln!(
        out,
        "{:<26} {:<16} {:>12} {:>20} {:>12} {:>20} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "A q1,q3", "B", "B q1,q3", "B/A", "bound"
    );
    for (workload, wa) in workloads_a {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            let _ = writeln!(out, "{workload:<26} missing from B");
            continue;
        };
        for bound in &bounds {
            let pick = |w: &Json| -> Option<(f64, Vec<f64>)> {
                let m = w.get("end_to_end")?.get(&bound.name)?;
                Some((
                    m.get("value")?.as_f64()?,
                    m.get("samples").map(Json::as_f64_vec).unwrap_or_default(),
                ))
            };
            let (Some((va, sa)), Some((vb, sb))) = (pick(wa), pick(wb)) else {
                continue;
            };
            let spread_a = (sa.len() >= 2).then(|| spread(&sa));
            let v = verdict(va, vb, bound.lower_is_better, spread_a, bound.bound);
            let _ = writeln!(
                out,
                "{:<26} {:<16} {:>12.4} {:>20} {:>12.4} {:>20} {:>9.4} {:>6.0}%  {}",
                workload,
                bound.name,
                va,
                quartile_text(&sa),
                vb,
                quartile_text(&sb),
                if va != 0.0 { vb / va } else { f64::NAN },
                bound.bound * 100.0,
                v.name()
            );
        }
    }
    let _ = writeln!(out, "(B/A: ratio of B's value to A's, base A)");

    let mut header = false;
    for (workload, wa) in workloads_a {
        let (Some(la), Some(lb)) = (
            wa.get("per_layer").and_then(Json::as_obj),
            b.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("per_layer")),
        ) else {
            continue;
        };
        if !header {
            let _ = writeln!(
                out,
                "\n{:<26} {:<38} {:>16} {:>16} {:>9}",
                "workload", "per-layer metric", "A", "B", "B/A"
            );
            header = true;
        }
        for (name, ma) in la {
            let (Some(va), Some(vb)) = (
                ma.get("value").and_then(Json::as_f64),
                lb.get(name)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64),
            ) else {
                continue;
            };
            let ratio = if va != 0.0 {
                format!("{:.4}", vb / va)
            } else {
                "n/a".to_string()
            };
            let _ = writeln!(
                out,
                "{workload:<26} {name:<38} {va:>16.4} {vb:>16.4} {ratio:>9}"
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(1.0, 1.2, true, Some(0.02), 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(1.0, 1.05, true, Some(0.02), 0.10),
            Verdict::Unchanged
        );
        assert_eq!(verdict(1.0, 0.8, true, Some(0.02), 0.10), Verdict::Improved);
        assert_eq!(
            verdict(1.0, 0.97, true, Some(0.05), 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(1.0, 0.5, true, Some(0.15), 0.10),
            Verdict::Unresolved
        );
        // One sample: only a move beyond the bound counts either way.
        assert_eq!(verdict(1.0, 0.95, true, None, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(1.0, 0.85, true, None, 0.10), Verdict::Improved);
        // Higher is better.
        assert_eq!(
            verdict(10.0, 8.0, false, Some(0.0), 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(10.0, 12.0, false, Some(0.0), 0.10),
            Verdict::Improved
        );
    }

    #[test]
    fn render_prints_one_row_per_metric_with_base_and_verdict() {
        let benchmark = Json::parse(
            r#"{"end_to_end": [{"name": "initial_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let file = |v: f64| {
            Json::parse(&format!(
                r#"{{"comparable": true, "workloads": {{"w": {{"end_to_end": {{"initial_s":
                {{"value": {v}, "unit": "s", "samples": [{v}, {v}, {v}]}}}},
                "per_layer": {{"store.reads": {{"value": {v}, "unit": "count"}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let text = render(&file(1.0), &file(1.5), &benchmark).unwrap();
        assert!(text.contains("regressed"), "{text}");
        assert!(text.contains("base A"), "{text}");
        assert!(text.contains("store.reads"), "{text}");
        assert!(text.contains("1.5000"), "{text}");
    }
}
