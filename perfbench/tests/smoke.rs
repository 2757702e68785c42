//! Short smoke of every workload: each run passes its output checks and
//! prints every metric `BENCHMARK.json` names, with the unit named there.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["paper-campaign", "identify-scale", "chaos-fleet"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
/// The file keeps one metric object per line, `name` before `unit`.
fn section(manifest: &str, key: &str) -> Vec<(String, String)> {
    let start = manifest
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, name: &str| {
        let tag = format!("\"{name}\": \"");
        let from = line.find(&tag)? + tag.len();
        Some(line[from..from + line[from..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|line| Some((field(line, "name")?, field(line, "unit")?)))
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_filterwatch-perfbench"))
        .args(["--workload", workload, "--seed", "2", "--seconds", "0"])
        .args(["--trace", trace, "--min-units", "2"])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json beside the benchmark directory");
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = section(&manifest, key);
        assert!(!metrics.is_empty(), "{key} lists metrics");
        for workload in WORKLOADS {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0, "),
                "{workload}: {line}"
            );
            for (name, unit) in &metrics {
                let needle = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&needle)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}: {line}"));
                let rest = &line[at + needle.len()..];
                let unit_tag = format!(", \"unit\": \"{unit}\"}}");
                let value = &rest[..rest
                    .find(&unit_tag)
                    .unwrap_or_else(|| panic!("{workload}: {name} is not in {unit}: {line}"))];
                value
                    .parse::<f64>()
                    .unwrap_or_else(|e| panic!("{workload}: {name} = {value:?}: {e}"));
            }
            assert_eq!(
                line.matches("\"value\": ").count(),
                metrics.len(),
                "{workload} --trace {trace} prints only the {key} metrics: {line}"
            );
        }
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_filterwatch-perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line on failure");
}
