//! The benchmark's own span recorder.
//!
//! Spans wrap the calls the benchmark makes into the system's public
//! functions — nothing inside the program is instrumented. Every span is
//! timed whether or not the recorder is on (the end-to-end metrics need the
//! same clock reads); switching it on only adds a `Vec` push per span, kept
//! in memory and written out when the process ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// Spans of one repetition (or one replay) share a run identifier.
    pub run: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
    counters: Vec<(String, f64)>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    /// Starts a new run identifier for the spans that follow.
    pub fn next_run(&self) {
        self.inner.borrow_mut().run += 1;
    }

    /// Runs `f` inside a span named `name`; returns its result and its
    /// duration in milliseconds.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.enabled {
            let start = Instant::now();
            let result = f();
            return (result, start.elapsed().as_secs_f64() * 1e3);
        }
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.spans.len() as u32;
            let span = Span {
                id,
                parent: inner.open.last().copied(),
                run: inner.run,
                name: name.to_string(),
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
            };
            inner.spans.push(span);
            inner.open.push(id);
            id
        };
        let result = f();
        let mut inner = self.inner.borrow_mut();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        inner.open.pop();
        let span = &mut inner.spans[id as usize];
        span.end_ns = end_ns;
        let ms = (end_ns - span.start_ns) as f64 / 1e6;
        (result, ms)
    }

    /// Records a count measured at a layer boundary.
    pub fn count(&self, name: &str, value: f64) {
        if self.enabled {
            self.inner
                .borrow_mut()
                .counters
                .push((name.to_string(), value));
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Writes one JSON object per line: every span, then every counter.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let inner = self.inner.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &inner.spans {
            let line = Value::object([
                ("id", Value::Num(f64::from(span.id))),
                (
                    "parent",
                    span.parent
                        .map_or(Value::Null, |p| Value::Num(f64::from(p))),
                ),
                ("run", Value::Num(f64::from(span.run))),
                ("name", Value::Str(span.name.clone())),
                ("start_ns", Value::Num(span.start_ns as f64)),
                ("end_ns", Value::Num(span.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        for (name, value) in &inner.counters {
            let line = Value::object([
                ("counter", Value::Str(name.clone())),
                ("value", Value::Num(*value)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Each span's self time in nanoseconds: its duration minus the part of its
/// interval that its child spans cover. Children may overlap one another
/// (their union is subtracted once) and are clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut intervals = children.remove(&span.id).unwrap_or_default();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// The layer a span belongs to: its name without the final `.call` segment
/// or `[index]` (`core.merging.build` → `core.merging`, `moe.evaluate` →
/// `moe`, `round[3]` → `round`).
pub fn layer_of(name: &str) -> &str {
    let name = name.split_once('[').map_or(name, |(stem, _)| stem);
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Self time per layer, in milliseconds, over the spans of one run.
pub fn self_ms_by_layer(spans: &[Span], run: u32) -> BTreeMap<String, f64> {
    let mut by_layer = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        if span.run == run {
            *by_layer
                .entry(layer_of(&span.name).to_string())
                .or_insert(0.0) += self_ns as f64 / 1e6;
        }
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name: name.to_string(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let spans = [
            span(0, None, "round", 0, 100),
            span(1, Some(0), "core.driver.start_round", 10, 70),
            span(2, Some(1), "moe.batch_gradients", 20, 50),
            span(3, Some(0), "core.driver.finish_round", 70, 95),
        ];
        // round: 100 - (60 + 25); start_round: 60 - 30; leaves keep all.
        assert_eq!(self_times(&spans), vec![15, 30, 30, 25]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        let spans = [
            span(0, None, "parent", 100, 200),
            span(1, Some(0), "a.x", 110, 150),
            span(2, Some(0), "b.x", 130, 170),
            // Starts inside, ends past the parent: clipped at 200.
            span(3, Some(0), "c.x", 190, 240),
            // Entirely inside an earlier child: adds nothing.
            span(4, Some(0), "d.x", 120, 140),
        ];
        // Union covers [110, 170] and [190, 200] = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_spans_and_is_silent_when_off() {
        let rec = Recorder::new(true);
        let ((), outer_ms) = rec.span("outer.call", || {
            rec.span("inner.call", || std::hint::black_box(())).0
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns && outer_ms >= 0.0);
        rec.next_run();
        rec.span("later.call", || ());
        assert_eq!(rec.spans()[2].run, 1);
        assert_eq!(rec.spans()[2].parent, None);

        let off = Recorder::new(false);
        let (value, ms) = off.span("outer.call", || 7);
        assert_eq!(value, 7);
        assert!(ms >= 0.0);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn layers_group_by_name_prefix() {
        assert_eq!(layer_of("core.merging.build"), "core.merging");
        assert_eq!(layer_of("moe.evaluate"), "moe");
        assert_eq!(layer_of("run"), "run");
        assert_eq!(layer_of("round[11]"), "round");
        let spans = [
            span(0, None, "moe.a", 0, 2_000_000),
            span(1, None, "moe.b", 2_000_000, 3_000_000),
            span(2, None, "fl.store.snapshot", 3_000_000, 3_500_000),
        ];
        let by_layer = self_ms_by_layer(&spans, 0);
        assert_eq!(by_layer["moe"], 3.0);
        assert_eq!(by_layer["fl.store"], 0.5);
    }
}
