//! The harness's own span recorder.
//!
//! Spans are recorded around the harness's calls into each layer (spans
//! inside the program are a later change). They stay in memory and are
//! written to `out/trace.json` when the run ends. A disabled tracer
//! records nothing, so the untraced pass runs the same code.

use crate::json::Json;
use std::cell::RefCell;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub workload: String,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    workload: String,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool, workload: &str) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = self.push(name, self.now(), f64::NAN);
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end = self.now();
        out
    }

    /// Add child spans of known length to the span that just closed as
    /// `parent_name` — how `construct`/`correct`, which the engine reports
    /// as durations, are laid out back to back under `try_run_files`.
    pub fn synthesize_children(&self, parent_name: &str, children: &[(&str, f64)]) {
        if !self.enabled {
            return;
        }
        let parent = self.spans.borrow().iter().rposition(|s| s.name == parent_name);
        let Some(parent) = parent else { return };
        let mut cursor = self.spans.borrow()[parent].start;
        for (name, secs) in children {
            let index = self.push(name, cursor, cursor + secs);
            self.spans.borrow_mut()[index].parent = Some(parent);
            cursor += secs;
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn push(&self, name: &str, start: f64, end: f64) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name: name.to_string(),
            workload: self.workload.clone(),
            parent: self.open.borrow().last().copied(),
            start,
            end,
        });
        spans.len() - 1
    }

    /// Share of the root span's time that its direct children cover. A low
    /// value means time the trace cannot attribute to any layer.
    pub fn coverage(&self) -> f64 {
        let spans = self.spans.borrow();
        let Some(root) = spans.iter().position(|s| s.parent.is_none()) else { return 0.0 };
        let covered: f64 =
            spans.iter().filter(|s| s.parent == Some(root)).map(|s| s.end - s.start).sum();
        covered / (spans[root].end - spans[root].start)
    }

    pub fn take(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// The trace file: a flat list, parents by index into the list.
pub fn render(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(&s.name)),
                    ("workload", Json::str(&s.workload)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("start_s", Json::Num(s.start)),
                    ("end_s", Json::Num(s.end)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_cover() {
        let t = Tracer::new(true, "w");
        t.span("root", || {
            t.span("a", || std::thread::sleep(std::time::Duration::from_millis(5)));
            t.span("b", || {
                t.span("b.inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
            });
        });
        t.synthesize_children("b", &[("x", 0.001), ("y", 0.002)]);
        let coverage = t.coverage();
        let spans = t.take();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["root", "a", "b", "b.inner", "x", "y"]);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].parent, Some(2));
        assert!((spans[5].start - spans[4].end).abs() < 1e-12, "synthesized spans abut");
        assert!(spans.iter().all(|s| s.end >= s.start && s.workload == "w"));
        assert!(coverage > 0.9 && coverage <= 1.0, "coverage {coverage}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, "w");
        assert_eq!(t.span("root", || 7), 7);
        t.synthesize_children("root", &[("x", 1.0)]);
        assert!(t.take().is_empty());
    }
}
