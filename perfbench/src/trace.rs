//! Span recorder for the traced run.
//!
//! Every span wraps one call from the benchmark into a layer's public
//! function. Spans are kept in memory and written out once, when the run
//! ends. A layer's self time is its spans' duration minus the part covered
//! by their child spans.

use crate::Ctx;
use selcache_core::json::Json;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `ir.trace`.
    pub name: &'static str,
    /// The job, program, grid or request the call served.
    pub id: String,
    /// Seconds since the recorder started.
    pub start: f64,
    /// Seconds since the recorder started.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, id: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span { name, id: id.to_string(), start, end: start, parent });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.t0.elapsed().as_secs_f64();
        out
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).fold(0.0, |t, s| t + (s.end - s.start))
    }

    /// Summed self time of every span called `name`.
    pub fn self_time(&self, name: &str) -> f64 {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |t, (s, c)| t + (s.end - s.start - c).max(0.0))
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Every span as a JSON array, in opening order.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("id", Json::str(s.id.clone())),
                        ("start_s", Json::Num(s.start)),
                        ("end_s", Json::Num(s.end)),
                        ("parent", s.parent.map_or(Json::Bool(false), |p| Json::UInt(p as u64))),
                    ])
                })
                .collect(),
        )
    }

    /// Writes every span to `.perfbench_out/<workload>-seed<n>-spans.json`.
    pub fn write(&self, ctx: &Ctx, workload: &str) {
        let dir = Path::new(".perfbench_out");
        let path = dir.join(format!("{workload}-seed{}-spans.json", ctx.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, self.to_json().to_string() + "\n"));
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: f64) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < d {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::default();
        tr.span("outer", "a", |tr| {
            spin(0.004);
            tr.span("inner", "a", |_| spin(0.006));
        });
        let (outer, inner) = (tr.total("outer"), tr.total("inner"));
        assert!(outer >= inner + 0.004);
        let own = tr.self_time("outer");
        assert!((own - (outer - inner)).abs() < 1e-9);
        assert_eq!(tr.count("inner"), 1);
        assert_eq!(tr.to_json().as_arr().map(<[Json]>::len), Some(2));
    }
}
