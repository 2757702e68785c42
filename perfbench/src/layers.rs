//! What the program itself records about its layers, read through the
//! telemetry snapshot it already keeps: the `scan` span's wall time,
//! the `fetch.wall_nanos` and `classify.wall_nanos` histograms, and the
//! work counters.

use filterwatch_measure::MeasurementQuality;
use filterwatch_telemetry::{stage as tstage, Snapshot, TelemetryHandle};

use crate::trace::{SpanId, Tracer};

/// Wall time the program measured inside itself, cumulative since its
/// telemetry collector was created.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgramClock {
    scan_ns: u64,
    fetch_ns: f64,
    classify_ns: f64,
}

impl ProgramClock {
    /// Read the clock from a collector (zero when it is disabled).
    pub fn read(telemetry: &TelemetryHandle) -> ProgramClock {
        let snap = telemetry.snapshot();
        ProgramClock {
            scan_ns: snap
                .spans_staged(tstage::SCAN)
                .iter()
                .map(|s| s.wall_nanos)
                .sum(),
            fetch_ns: histogram(&snap, "fetch.wall_nanos").0,
            classify_ns: histogram(&snap, "classify.wall_nanos").0,
        }
    }

    /// Record the program time between `self` and the later reading
    /// `after` as measured children of `span`.
    pub fn record_since(&self, after: &ProgramClock, tr: &mut Tracer, span: SpanId) {
        tr.measured(span, "scan", after.scan_ns.saturating_sub(self.scan_ns));
        tr.measured(span, "fetch", (after.fetch_ns - self.fetch_ns) as u64);
        tr.measured(
            span,
            "classify",
            (after.classify_ns - self.classify_ns) as u64,
        );
    }
}

/// Run `f` inside a span named `name`, then attach the scan, fetch and
/// classify time the program recorded on `telemetry` meanwhile as the
/// span's measured children. The telemetry reads sit outside the span.
pub fn stage<T>(
    tr: &mut Tracer,
    telemetry: &TelemetryHandle,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    if !tr.enabled() {
        return f();
    }
    let before = ProgramClock::read(telemetry);
    let id = tr.open(name);
    let out = f();
    tr.close(id);
    before.record_since(&ProgramClock::read(telemetry), tr, id);
    out
}

/// `(sum, total)` over every label of a histogram.
fn histogram(snap: &Snapshot, name: &str) -> (f64, u64) {
    snap.histograms
        .iter()
        .filter(|h| h.name == name)
        .fold((0.0, 0), |(sum, total), h| (sum + h.sum, total + h.total))
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters_named(name).iter().map(|(_, v)| v).sum()
}

/// Fetch dispositions that are neither a normal origin response nor a
/// middlebox verdict (interception, drop or reset): the faults the
/// simulated network injected, and fetches a breaker skipped.
const NOT_FAULTS: [&str; 4] = ["origin", "intercepted", "dropped", "reset"];

/// Per-unit work counts, summed over every campaign of a unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// `scan.probes` counter.
    pub scan_probes: u64,
    /// `scan.banners` counter.
    pub scan_banners: u64,
    /// `fingerprint.profiled` counter.
    pub fingerprint_profiled: u64,
    /// Installations the identify stage validated.
    pub installations: u64,
    /// Keyword candidates the identify stage fingerprinted.
    pub candidates: u64,
    /// `identify.sweep_cache` hits.
    pub sweep_hits: u64,
    /// `identify.sweep_cache` misses.
    pub sweep_misses: u64,
    /// Calls recorded in `classify.wall_nanos`.
    pub classify_calls: u64,
    /// Calls recorded in `fetch.wall_nanos`.
    pub fetch_calls: u64,
    /// Sum of the `middlebox.verdict` counters.
    pub middlebox_verdicts: u64,
    /// `fetch.disposition` counts outside [`NOT_FAULTS`].
    pub fetch_faulted: u64,
    /// Checkpoint lines the orchestrator wrote.
    pub checkpoint_lines: u64,
    /// Bytes in those checkpoint lines.
    pub checkpoint_bytes: u64,
    /// Aggregate measurement quality of the unit's campaigns.
    pub quality: MeasurementQuality,
}

impl Counts {
    /// Add the telemetry counters of one collector's snapshot.
    pub fn absorb_snapshot(&mut self, snap: &Snapshot) {
        self.scan_probes += counter(snap, "scan.probes");
        self.scan_banners += counter(snap, "scan.banners");
        self.fingerprint_profiled += counter(snap, "fingerprint.profiled");
        for (label, v) in snap.counters_named("identify.sweep_cache") {
            match label {
                "hit" => self.sweep_hits += v,
                _ => self.sweep_misses += v,
            }
        }
        self.classify_calls += histogram(snap, "classify.wall_nanos").1;
        self.fetch_calls += histogram(snap, "fetch.wall_nanos").1;
        self.middlebox_verdicts += counter(snap, "middlebox.verdict");
        self.fetch_faulted += snap
            .counters_named("fetch.disposition")
            .iter()
            .filter(|(label, _)| !NOT_FAULTS.contains(label))
            .map(|(_, v)| v)
            .sum::<u64>();
    }
}
