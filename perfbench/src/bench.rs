//! The closed measurement loop shared by every workload, and the
//! metrics computed from its samples.
//!
//! One client runs units back to back in this process. Each unit first
//! builds its world(s) — timed on its own as set-up — then runs, timed
//! as the unit, then has its output checked, untimed. The loop stops
//! once `seconds` have passed and at least `min_units` units ran.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::layers::Counts;
use crate::trace::Tracer;

/// The percentile `campaign_ms.tail` reports. It is fixed, so runs of
/// different length compare like with like; every workload's default
/// minimum of 100 units leaves at least ten units beyond it.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// What a checked unit reports.
#[derive(Debug, Clone, Default)]
pub struct UnitReport {
    /// Whether the unit's output passed its check.
    pub ok: bool,
    /// Work counts that must repeat exactly from unit to unit.
    pub work: Vec<(&'static str, u64)>,
    /// Virtual days the unit's campaign(s) took.
    pub vdays: f64,
    /// Work counts the program recorded.
    pub counts: Counts,
}

/// One workload: how to build a unit's world, run the unit, and check
/// what it produced.
pub trait Workload {
    /// The world(s) one unit runs on.
    type Prepared;
    /// What one unit produces.
    type Output;

    /// Build one unit's world(s). `traced` turns on program telemetry
    /// where the entry point leaves it off by default.
    fn prepare(&self, traced: bool) -> Self::Prepared;

    /// Run one unit, recording spans on `tr`.
    fn run(&self, prepared: Self::Prepared, tr: &mut Tracer) -> Self::Output;

    /// Check one unit's output and read its counts.
    fn inspect(&self, output: Self::Output) -> UnitReport;
}

/// How long to measure.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Wall-clock seconds the loop runs for, at least.
    pub seconds: f64,
    /// Units the loop runs, at least.
    pub min_units: usize,
    /// Interleave traced units with untraced ones.
    pub trace: bool,
}

/// Everything the loop measured.
#[derive(Debug)]
pub struct Samples {
    /// World construction time per unit, nanoseconds.
    pub setup_ns: Vec<u64>,
    /// Untraced unit wall time, nanoseconds.
    pub unit_ns: Vec<u64>,
    /// Traced unit wall time, nanoseconds.
    pub traced_unit_ns: Vec<u64>,
    /// Units run.
    pub attempted: u64,
    /// Units whose output check failed.
    pub failed: u64,
    /// Σ inconclusive verdicts over every unit.
    pub inconclusive: u64,
    /// Σ verdicts over every unit.
    pub verdicts: u64,
    /// The first unit's report (work counts, virtual days).
    pub first: UnitReport,
    /// The last traced unit's counts (telemetry is on there).
    pub traced_counts: Counts,
    /// Spans of the traced units.
    pub tracer: Tracer,
}

/// Run the closed loop. One unit is run first as a warm-up, unmeasured
/// and unchecked, so lazy initialisation does not land in the first
/// sample.
pub fn measure<W: Workload>(workload: &W, plan: &Plan) -> Samples {
    let mut off = Tracer::off();
    let warm = workload.prepare(false);
    drop(workload.run(warm, &mut off));

    let mut samples = Samples {
        setup_ns: Vec::new(),
        unit_ns: Vec::new(),
        traced_unit_ns: Vec::new(),
        attempted: 0,
        failed: 0,
        inconclusive: 0,
        verdicts: 0,
        first: UnitReport::default(),
        traced_counts: Counts::default(),
        tracer: if plan.trace {
            Tracer::on()
        } else {
            Tracer::off()
        },
    };
    // A traced run needs at least one untraced and one traced unit.
    let min_units = if plan.trace {
        plan.min_units.max(2)
    } else {
        plan.min_units
    };
    let started = Instant::now();
    let mut unit: u32 = 0;
    while (unit as usize) < min_units || started.elapsed().as_secs_f64() < plan.seconds {
        unit += 1;
        let traced = plan.trace && unit.is_multiple_of(2);
        let tr = if traced {
            &mut samples.tracer
        } else {
            &mut off
        };
        tr.set_unit(unit);

        let t = Instant::now();
        let build = tr.open("world.build");
        let prepared = workload.prepare(traced);
        tr.close(build);
        samples.setup_ns.push(t.elapsed().as_nanos() as u64);

        let t = Instant::now();
        let root = tr.open("unit");
        let output = workload.run(prepared, tr);
        tr.close(root);
        let elapsed = t.elapsed().as_nanos() as u64;
        if traced {
            samples.traced_unit_ns.push(elapsed);
        } else {
            samples.unit_ns.push(elapsed);
        }

        let mut report = workload.inspect(output);
        if unit == 1 {
            samples.first = report.clone();
        } else if report.work != samples.first.work {
            report.ok = false;
        }
        samples.attempted += 1;
        samples.failed += u64::from(!report.ok);
        samples.inconclusive += report.counts.quality.inconclusive;
        samples.verdicts += report.counts.quality.verdicts;
        if traced {
            samples.traced_counts = report.counts;
        }
    }
    samples
}

/// Nearest-rank percentile of `values` (`p` in 0..=100).
pub fn percentile(values: &[u64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median (lower middle for even counts, like the nearest rank).
pub fn median(values: &[u64]) -> f64 {
    percentile(values, 50.0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A metric value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Metrics by name.
pub type Metrics = BTreeMap<&'static str, Metric>;

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(samples: &Samples, peak_rss_mib: f64) -> Metrics {
    let ms = |ns: f64| ns / 1e6;
    let busy_s: f64 = samples.unit_ns.iter().map(|&ns| ns as f64 / 1e9).sum();
    let mut m = Metrics::new();
    let mut put = |name, value, unit| {
        m.insert(name, Metric { value, unit });
    };
    put("setup_s", median(&samples.setup_ns) / 1e9, "s");
    put("campaign_ms.p50", ms(median(&samples.unit_ns)), "ms");
    put(
        "campaign_ms.tail",
        ms(percentile(&samples.unit_ns, TAIL_PERCENTILE)),
        "ms",
    );
    put(
        "campaigns_per_s",
        samples.unit_ns.len() as f64 / busy_s,
        "1/s",
    );
    put("peak_rss_mb", peak_rss_mib, "MiB");
    m
}

/// The per-layer metrics of a traced run.
pub fn per_layer(samples: &Samples) -> Metrics {
    let layers = samples.tracer.layer_times();
    let units = samples.traced_unit_ns.len().max(1) as f64;
    let total = |name: &str| layers.get(name).map_or(0, |l| l.total_ns) as f64;
    let own = |name: &str| layers.get(name).map_or(0, |l| l.self_ns) as f64;
    let per_unit_ms = |ns: f64| ns / units / 1e6;
    let c = &samples.traced_counts;
    let q = &c.quality;

    let unit_ns = total("unit");
    // Tracing's own reads inside a layer span count as unattributed,
    // like the reads between spans that land in the unit's self time.
    let unattributed_ns = own("unit") + total("trace.bookkeeping");
    let classify_ns = total("classify");
    let fetch_ns = total("fetch");
    let measure_self_ns = [
        "confirm.baseline",
        "confirm.submit",
        "confirm.retest",
        "characterize",
    ]
    .iter()
    .map(|n| own(n))
    .sum::<f64>();

    let mut m = Metrics::new();
    let mut put = |name, value, unit| {
        m.insert(name, Metric { value, unit });
    };
    put("world.build_ms", per_unit_ms(total("world.build")), "ms");
    put("identify.busy_ms", per_unit_ms(total("identify")), "ms");
    put("scan.busy_ms", per_unit_ms(total("scan")), "ms");
    put("scan.probes", c.scan_probes as f64, "count");
    put("scan.banners", c.scan_banners as f64, "count");
    put("identify.validate_ms", per_unit_ms(own("identify")), "ms");
    put(
        "fingerprint.profiled",
        c.fingerprint_profiled as f64,
        "count",
    );
    put(
        "fingerprint.hit_ratio",
        ratio(c.installations as f64, c.candidates as f64),
        "ratio",
    );
    put(
        "sweep.cache_hit_ratio",
        ratio(c.sweep_hits as f64, (c.sweep_hits + c.sweep_misses) as f64),
        "ratio",
    );
    put(
        "confirm.baseline_ms",
        per_unit_ms(total("confirm.baseline")),
        "ms",
    );
    put(
        "confirm.submit_ms",
        per_unit_ms(total("confirm.submit")),
        "ms",
    );
    put(
        "confirm.retest_ms",
        per_unit_ms(total("confirm.retest")),
        "ms",
    );
    put(
        "characterize.busy_ms",
        per_unit_ms(total("characterize")),
        "ms",
    );
    put("classify.calls", c.classify_calls as f64, "count");
    put("classify.busy_ms", per_unit_ms(classify_ns), "ms");
    put(
        "classify.mean_us",
        ratio(classify_ns / units / 1e3, c.classify_calls as f64),
        "us",
    );
    put("fetch.calls", c.fetch_calls as f64, "count");
    put("fetch.busy_ms", per_unit_ms(fetch_ns), "ms");
    put(
        "fetch.mean_us",
        ratio(fetch_ns / units / 1e3, c.fetch_calls as f64),
        "us",
    );
    put("middlebox.verdicts", c.middlebox_verdicts as f64, "count");
    put("fetch.faulted", c.fetch_faulted as f64, "count");
    put("measure.other_ms", per_unit_ms(measure_self_ns), "ms");
    put("retry.attempts", q.retries as f64, "count");
    put("quorum.trials", q.quorum_trials as f64, "count");
    put("breaker.skips", q.breaker_skips as f64, "count");
    put(
        "fetch.useful_ratio",
        1.0 - ratio(q.retries as f64, q.fetch_attempts as f64),
        "ratio",
    );
    put(
        "orchestrator.self_ms",
        per_unit_ms(own("orchestrator")),
        "ms",
    );
    put("checkpoint.lines", c.checkpoint_lines as f64, "count");
    put("checkpoint.bytes", c.checkpoint_bytes as f64, "bytes");
    put(
        "report.render_ms",
        per_unit_ms(total("report.render")),
        "ms",
    );
    put(
        "trace.coverage",
        ratio(unit_ns - unattributed_ns, unit_ns),
        "ratio",
    );
    put("unattributed_ms", per_unit_ms(unattributed_ns), "ms");
    put(
        "trace.overhead_ratio",
        ratio(median(&samples.traced_unit_ns), median(&samples.unit_ns)),
        "ratio",
    );
    put("campaign_vdays", samples.first.vdays, "days");
    put(
        "failed_ratio",
        ratio(samples.failed as f64, samples.attempted as f64),
        "ratio",
    );
    put(
        "inconclusive_ratio",
        ratio(samples.inconclusive as f64, samples.verdicts as f64),
        "ratio",
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7], 90.0), 7.0);
        // Ten samples lie beyond the 90th percentile of 100.
        assert_eq!(
            v.iter()
                .filter(|&&x| x as f64 > percentile(&v, 90.0))
                .count(),
            10
        );
    }
}
