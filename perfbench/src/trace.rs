//! The benchmark's own span recorder.
//!
//! Spans are opened and closed from the benchmark's files around each
//! call into a layer. Each span records its name, start and end on one
//! monotonic clock, the span that was open when it started (its
//! parent), and the unit it belongs to. Time the program measures
//! itself — its `scan` span and the `fetch.wall_nanos` /
//! `classify.wall_nanos` histograms — enters as *measured* child spans:
//! their duration is exact but their position inside the parent is not
//! known, so they are laid out from the parent's start.
//!
//! A layer's self time is its span's duration minus the part its child
//! spans cover. Children of one span never overlap (stages run one
//! after another, and a fetch never runs inside a classification), so
//! the covered part is the sum of the children's durations.
//!
//! A disabled tracer records nothing: every method returns after one
//! branch, so untraced runs pay no tracing cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span; [`SpanId::NONE`] when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The id a disabled tracer hands out; closing it is a no-op.
    pub const NONE: SpanId = SpanId(usize::MAX);
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, such as `identify` or `fetch`.
    pub name: &'static str,
    /// Unit the span belongs to (0 for spans outside any unit).
    pub unit: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Whether the program measured this span itself (duration exact,
    /// interval laid out from the parent's start).
    pub measured: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of self times (duration minus children), nanoseconds.
    pub self_ns: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    unit: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            unit: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag every span opened from now on with `unit`.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit: self.unit,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            measured: false,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Close a span opened by [`Tracer::open`]. Spans close innermost
    /// first.
    pub fn close(&mut self, id: SpanId) {
        if !self.enabled || id == SpanId::NONE {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Record `nanos` the program measured inside the closed span
    /// `parent` as a child span named `name`.
    pub fn measured(&mut self, parent: SpanId, name: &'static str, nanos: u64) {
        if !self.enabled || parent == SpanId::NONE || nanos == 0 {
            return;
        }
        let p = &self.spans[parent.0];
        let span = Span {
            name,
            unit: p.unit,
            parent: Some(parent.0),
            start_ns: p.start_ns,
            end_ns: p.start_ns + nanos,
            measured: true,
        };
        self.spans.push(span);
    }

    /// Record a span that ran from `start` to `end` under `parent`: a
    /// call the benchmark timed but could not open live, such as a
    /// stage the orchestrator called into.
    pub fn record(
        &mut self,
        parent: SpanId,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled || parent == SpanId::NONE {
            return SpanId::NONE;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            name,
            unit: self.spans[parent.0].unit,
            parent: Some(parent.0),
            start_ns: ns(start),
            end_ns: ns(end),
            measured: false,
        };
        self.spans.push(span);
        SpanId(self.spans.len() - 1)
    }

    /// Duration and self time summed per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let layer = layers.entry(span.name).or_default();
            layer.total_ns += span.duration_ns();
            layer.self_ns += span.duration_ns().saturating_sub(covered);
        }
        layers
    }

    /// The spans as tab-separated lines: index, parent, unit, name,
    /// start, end, and `measured` for spans the program timed itself.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tunit\tname\tstart_ns\tend_ns\tsource\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map(|p| p.to_string()).unwrap_or_default();
            let source = if span.measured { "measured" } else { "span" };
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{source}",
                span.unit, span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::on();
        let root = tr.open("unit");
        let child = tr.open("confirm.retest");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.close(child);
        tr.measured(child, "fetch", 1_000_000);
        tr.close(root);
        let layers = tr.layer_times();
        let retest = layers["confirm.retest"];
        assert_eq!(retest.self_ns, retest.total_ns - 1_000_000);
        assert_eq!(layers["fetch"].total_ns, 1_000_000);
        let unit = layers["unit"];
        assert_eq!(unit.self_ns, unit.total_ns - retest.total_ns);
        assert_eq!(tr.to_tsv().lines().count(), 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let id = tr.open("unit");
        assert_eq!(id, SpanId::NONE);
        tr.measured(id, "fetch", 10);
        tr.close(id);
        assert!(tr.layer_times().is_empty());
    }
}
