//! The benchmark's own span log: one span around every call it makes into
//! the program (build, initial, each refresh, finish, oracle, recompute,
//! each probe). Every timing the benchmark reports is a span's duration,
//! so the numbers and the trace cannot disagree. Spans stay in memory; a
//! traced run writes them as JSONL when it ends.

use crate::json::Json;
use std::cell::RefCell;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span in the log; passed back as the parent of child spans.
pub type SpanId = usize;

struct Span {
    name: String,
    parent: Option<SpanId>,
    round: u32,
    start: Duration,
    end: Duration,
}

/// In-memory span log. Single-threaded by design: the benchmark is one
/// closed-loop driver thread.
pub struct Spans {
    origin: Instant,
    round: RefCell<u32>,
    rows: RefCell<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            round: RefCell::new(0),
            rows: RefCell::new(Vec::new()),
        }
    }

    /// Set the round id stamped on the spans that follow.
    pub fn set_round(&self, round: u32) {
        *self.round.borrow_mut() = round;
    }

    /// Run `f` inside a span named `name` under `parent`; returns `f`'s
    /// result and the span's duration. `f` receives the new span's id so it
    /// can open child spans.
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, Duration) {
        let id = {
            let mut rows = self.rows.borrow_mut();
            let start = self.origin.elapsed();
            rows.push(Span {
                name: name.to_string(),
                parent,
                round: *self.round.borrow(),
                start,
                end: start,
            });
            rows.len() - 1
        };
        let out = f(id);
        let mut rows = self.rows.borrow_mut();
        let end = self.origin.elapsed();
        rows[id].end = end;
        (out, end - rows[id].start)
    }

    /// Total duration, within round `round`, of the spans called `name`
    /// that lie under a span called `ancestor`.
    pub fn total_under(&self, name: &str, ancestor: &str, round: u32) -> Duration {
        let rows = self.rows.borrow();
        let under = |span: &Span| {
            let mut parent = span.parent;
            while let Some(p) = parent {
                if rows[p].name == ancestor {
                    return true;
                }
                parent = rows[p].parent;
            }
            false
        };
        rows.iter()
            .filter(|s| s.round == round && s.name == name && under(s))
            .map(|s| s.end - s.start)
            .sum()
    }

    /// One JSON object per span: id, name, parent, round, start/end in
    /// microseconds since the benchmark process started measuring.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.rows.borrow().iter().enumerate() {
            let row = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name.clone())),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("round", Json::Num(f64::from(s.round))),
                ("start_us", Json::Num(s.start.as_secs_f64() * 1e6)),
                ("end_us", Json::Num(s.end.as_secs_f64() * 1e6)),
            ]);
            out.push_str(&row.render());
            out.push('\n');
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let spans = Spans::new();
        spans.set_round(3);
        let ((), outer) = spans.time("refresh", None, |id| {
            let (x, _) = spans.time("build", Some(id), |_| {
                std::thread::sleep(Duration::from_millis(1));
                7
            });
            assert_eq!(x, 7);
        });
        assert!(outer >= spans.total_under("build", "refresh", 3));
        assert!(spans.total_under("build", "refresh", 3) > Duration::ZERO);
        assert_eq!(spans.total_under("build", "refresh", 2), Duration::ZERO);
        assert_eq!(spans.total_under("build", "initial", 3), Duration::ZERO);
        let text = spans.to_jsonl();
        let rows: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("name").unwrap().as_str(), Some("refresh"));
        assert_eq!(rows[0].get("parent"), Some(&Json::Null));
        assert_eq!(rows[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(rows[1].get("round").unwrap().as_f64(), Some(3.0));
        let (s0, e0) = (
            rows[0].get("start_us").unwrap().as_f64().unwrap(),
            rows[0].get("end_us").unwrap().as_f64().unwrap(),
        );
        let (s1, e1) = (
            rows[1].get("start_us").unwrap().as_f64().unwrap(),
            rows[1].get("end_us").unwrap().as_f64().unwrap(),
        );
        assert!(s0 <= s1 && e1 <= e0, "child span lies inside its parent");
    }
}
