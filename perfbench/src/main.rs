//! Whole-campaign benchmark for filterwatch.
//!
//! Drives the production pipeline only through its public entry points
//! (`CampaignRun`'s stage methods, `IdentifyPipeline`, `World::synthetic`
//! and `Orchestrator`), checks every unit's output, and prints the
//! metrics as one JSON object on the last line of standard output:
//! end-to-end metrics with `--trace 0`, per-layer metrics from a traced
//! run with `--trace 1`. See `README.md` beside this crate for the
//! workloads and metrics.
//!
//! ```text
//! filterwatch-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                       [--min-units <n>] [--trace-out <file>]
//! ```

mod bench;
mod fleet;
mod identify_scale;
mod layers;
mod paper;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use bench::{Metrics, Plan, Samples, TAIL_PERCENTILE};

const USAGE: &str =
    "usage: filterwatch-perfbench --workload <paper-campaign|identify-scale|chaos-fleet> \
--seed <n> --seconds <s> --trace <0|1> [--min-units <n>] [--trace-out <file>]";

/// Units every run measures at least, so that ten of them lie beyond
/// the tail percentile.
const DEFAULT_MIN_UNITS: usize = 100;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    min_units: usize,
    trace_out: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut min_units = DEFAULT_MIN_UNITS;
    let mut trace_out = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad(&"out of range 0..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--min-units" => {
                min_units = value.parse::<usize>().map_err(|e| bad(&e))?.max(1);
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        min_units,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(lines) => {
            print!("{lines}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the workload and render its output: description lines, then the
/// JSON result line.
fn run(args: &Args) -> Result<String, String> {
    let plan = Plan {
        seconds: args.seconds,
        min_units: args.min_units,
        trace: args.trace,
    };
    let (world, samples) = match args.workload.as_str() {
        "paper-campaign" => {
            let w = paper::PaperCampaign::new(args.seed);
            (
                format!("world_seed={}", w.world_seed()),
                bench::measure(&w, &plan),
            )
        }
        "identify-scale" => {
            let n = identify_scale::NETWORKS;
            let w = identify_scale::IdentifyScale::new(args.seed, n);
            (
                format!("world_seed={} networks={n}", args.seed),
                bench::measure(&w, &plan),
            )
        }
        "chaos-fleet" => {
            let w = fleet::ChaosFleet::new(args.seed);
            (
                format!(
                    "world_seeds={:?} fault_rate={}",
                    w.seeds(),
                    fleet::FAULT_RATE
                ),
                bench::measure(&w, &plan),
            )
        }
        other => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    };

    let metrics = if args.trace {
        bench::per_layer(&samples)
    } else {
        bench::end_to_end(&samples, peak_rss_mib()?)
    };
    if let (true, Some(path)) = (args.trace, &args.trace_out) {
        std::fs::write(path, samples.tracer.to_tsv())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    let mut out = String::new();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(
        out,
        "# workload={} seed={} {world} loop=closed clients=1 nproc={nproc} worker_threads={}",
        args.workload,
        args.seed,
        nproc.min(8)
    );
    let timed = &samples.unit_ns;
    let _ = writeln!(
        out,
        "# units={} untraced={} traced={} tail=p{TAIL_PERCENTILE} beyond_tail={} failed={}",
        samples.attempted,
        timed.len(),
        samples.traced_unit_ns.len(),
        beyond_tail(timed),
        samples.failed
    );
    let work: Vec<String> = samples
        .first
        .work
        .iter()
        .map(|(name, n)| format!("{name}={n}"))
        .collect();
    let _ = writeln!(out, "# per-unit input: {}", work.join(" "));
    out.push_str(&json_line(&samples, &metrics)?);
    out.push('\n');
    Ok(out)
}

/// Untraced units slower than the tail percentile.
fn beyond_tail(unit_ns: &[u64]) -> usize {
    if unit_ns.is_empty() {
        return 0;
    }
    let tail = bench::percentile(unit_ns, TAIL_PERCENTILE);
    unit_ns.iter().filter(|&&ns| ns as f64 > tail).count()
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The result object: `correct`, `attempted`, `failed` and `metrics`.
fn json_line(samples: &Samples, metrics: &Metrics) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, m) in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", m.value));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        samples.failed == 0,
        samples.attempted,
        samples.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::Workload;

    #[test]
    fn parses_the_driver_command_line() {
        let argv = [
            "--workload",
            "chaos-fleet",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ];
        let args = parse_args(argv.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(args.workload, "chaos-fleet");
        assert_eq!((args.seed, args.seconds, args.trace), (3, 10.0, true));
        assert_eq!(args.min_units, DEFAULT_MIN_UNITS);
        for bad in [
            &[
                "--workload",
                "x",
                "--seed",
                "-1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "x",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ][..],
            &["--workload", "x", "--seed", "1", "--seconds", "1"][..],
            &["--bogus", "1"][..],
        ] {
            assert!(
                parse_args(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?}"
            );
        }
    }

    /// A wrong reference table fails every unit: the output check can
    /// fail, and `failed_ratio` shows it.
    #[test]
    fn wrong_reference_table_fails_every_unit() {
        let good = paper::PaperCampaign::new(2);
        let mut off = trace::Tracer::off();
        let (report, _) = good.run(good.prepare(false), &mut off);
        let mut wrong = paper::Tables::of(&report);
        wrong.confirm = wrong.confirm.replacen("yes", "no", 1);
        assert_ne!(
            wrong,
            paper::Tables::of(&report),
            "the doctored table differs"
        );

        let plan = Plan {
            seconds: 0.0,
            min_units: 2,
            trace: true,
        };
        let bad = paper::PaperCampaign::with_reference(good.world_seed(), wrong);
        let samples = bench::measure(&bad, &plan);
        assert_eq!(samples.attempted, 2);
        assert_eq!(samples.failed, 2);
        assert_eq!(bench::per_layer(&samples)["failed_ratio"].value, 1.0);
        let line = json_line(&samples, &bench::per_layer(&samples)).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 2,"));

        let samples = bench::measure(&good, &plan);
        assert_eq!(samples.failed, 0);
        assert_eq!(bench::per_layer(&samples)["failed_ratio"].value, 0.0);
    }
}
