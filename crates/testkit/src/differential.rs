//! Multi-seed differential runner with automatic failure minimization.
//!
//! For every seed the runner generates a scenario and re-runs it under
//! configurations that must not change any verdict — serial vs parallel
//! keyword search, incremental delta ingest vs a from-scratch index
//! build, telemetry attached vs detached, a zero-rate fault profile vs
//! none at all — and byte-compares the stable renderings.
//! When a check fails, [`minimize`] greedily walks the plan's shrink
//! candidates to the smallest scenario still reproducing the
//! divergence, which is what gets reported.

use filterwatch_core::World;
use filterwatch_netsim::FetchPath;
use filterwatch_scanner::{keywords, ScanIndex};
use filterwatch_telemetry::TelemetryHandle;

use crate::invariants::{installations, scanned_world};
use crate::plan::{FaultPlan, ScenarioPlan};
use crate::runner::{campaign_for, run_campaign_forensic, run_campaign_with};
use crate::strategies::plan_for_seed;
use crate::worldgen::build_world;

/// A named divergence check: `Err(detail)` when the two configurations
/// disagree on a plan.
pub type Check = (&'static str, fn(&ScenarioPlan) -> Result<(), String>);

/// One reported divergence.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The seed whose generated plan diverged.
    pub seed: u64,
    /// The check that failed.
    pub check: &'static str,
    /// What differed, on the *minimized* plan.
    pub detail: String,
    /// The smallest plan still reproducing the divergence.
    pub minimized: ScenarioPlan,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {} / {}: {}\nminimal scenario: {}",
            self.seed,
            self.check,
            self.detail,
            self.minimized.summary()
        )
    }
}

fn diff_or_ok(name: &str, a: &str, b: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{name}: {}", crate::invariants::first_diff(a, b)))
    }
}

/// Every registered (country, ccTLD) pair: the keyword-search scope.
fn country_scope(world: &World) -> Vec<(String, String)> {
    world
        .net
        .registry()
        .countries()
        .map(|c| (c.code.as_str().to_string(), c.cctld.clone()))
        .collect()
}

/// Serial and parallel keyword sweeps must produce identical hits.
pub fn check_serial_vs_parallel(plan: &ScenarioPlan) -> Result<(), String> {
    let (world, index) = scanned_world(plan);
    let pairs = country_scope(&world);
    let scope = || pairs.iter().map(|(cc, tld)| (cc.as_str(), tld.as_str()));
    let serial = index.search_products_with_threads(keywords::KEYWORD_TABLE, scope(), 1);
    let parallel = index.search_products_with_threads(keywords::KEYWORD_TABLE, scope(), 8);
    diff_or_ok(
        "serial vs parallel sweep",
        &format!("{serial:?}"),
        &format!("{parallel:?}"),
    )
}

/// Attaching a telemetry collector must not change any verdict.
pub fn check_telemetry_transparency(plan: &ScenarioPlan) -> Result<(), String> {
    let campaign = campaign_for(plan);
    let silent = run_campaign_with(plan, campaign.clone(), build_world(plan)).comparable_text();
    let mut world = build_world(plan);
    world.net.set_telemetry(TelemetryHandle::enabled());
    let observed = run_campaign_with(plan, campaign, world).comparable_text();
    diff_or_ok("telemetry off vs on", &silent, &observed)
}

/// An incrementally built index — a head build plus one delta carrying
/// the tail — must be indistinguishable from a from-scratch build over
/// every record: same identify installations table, same batched
/// product hits.
pub fn check_delta_vs_rebuild(plan: &ScenarioPlan) -> Result<(), String> {
    let (world, scratch) = scanned_world(plan);
    let records = scratch.records().to_vec();
    let split = records.len() / 2;
    let mut delta = ScanIndex::build(records[..split].to_vec());
    delta.apply_delta(records[split..].to_vec(), &[]);

    let a = installations(&world, &scratch);
    let b = installations(&world, &delta);
    diff_or_ok("scratch vs delta-built installations", &a, &b)?;

    let pairs = country_scope(&world);
    let scope = || pairs.iter().map(|(cc, tld)| (cc.as_str(), tld.as_str()));
    let sa = scratch.search_products(keywords::KEYWORD_TABLE, scope());
    let sb = delta.search_products(keywords::KEYWORD_TABLE, scope());
    diff_or_ok(
        "scratch vs delta-built product hits",
        &format!("{sa:?}"),
        &format!("{sb:?}"),
    )
}

/// The event kernel and the direct-call oracle must agree on every
/// observation surface — report, flow log, and trace forest — byte for
/// byte.
pub fn check_direct_vs_event(plan: &ScenarioPlan) -> Result<(), String> {
    let mut campaign = campaign_for(plan);
    campaign.options.fetch_path = FetchPath::Event;
    let event = run_campaign_forensic(plan, campaign.clone());
    campaign.options.fetch_path = FetchPath::DirectReference;
    let direct = run_campaign_forensic(plan, campaign);
    diff_or_ok(
        "event vs direct report",
        &event.report.stable_text(),
        &direct.report.stable_text(),
    )?;
    diff_or_ok(
        "event vs direct flow log",
        &event.flow_lines.join("\n"),
        &direct.flow_lines.join("\n"),
    )?;
    diff_or_ok(
        "event vs direct trace forest",
        &event.trace_forest,
        &direct.trace_forest,
    )
}

/// A zero-rate fault profile must behave exactly like no profile.
pub fn check_zero_rate_faults(plan: &ScenarioPlan) -> Result<(), String> {
    let mut clean = plan.clone();
    clean.fault = FaultPlan::Clean;
    let mut zero = plan.clone();
    zero.fault = FaultPlan::Lossy { drop_prob: 0.0 };
    // Same resilience on both sides: the profile under test is the
    // fault injection, not the retry machinery.
    let campaign = campaign_for(&clean);
    let a = run_campaign_with(&clean, campaign.clone(), build_world(&clean));
    let b = run_campaign_with(&zero, campaign, build_world(&zero));
    let (a, b) = (a.comparable_text(), b.comparable_text());
    diff_or_ok("clean vs zero-rate faults", &a, &b)
}

/// The default check battery.
pub fn checks() -> Vec<Check> {
    vec![
        ("serial-vs-parallel", check_serial_vs_parallel),
        ("delta-vs-rebuild", check_delta_vs_rebuild),
        ("telemetry-transparency", check_telemetry_transparency),
        ("zero-rate-faults", check_zero_rate_faults),
        ("direct-vs-event", check_direct_vs_event),
    ]
}

/// Greedily minimize a failing plan: repeatedly adopt the first shrink
/// candidate that still fails `check`, until the plan is 1-minimal
/// (every further shrink passes). Returns the minimal plan and the
/// failure detail observed on it.
///
/// # Panics
/// When `check` passes on the input plan — there is nothing to
/// minimize.
pub fn minimize(
    plan: &ScenarioPlan,
    check: &dyn Fn(&ScenarioPlan) -> Result<(), String>,
) -> (ScenarioPlan, String) {
    let mut current = plan.clone();
    let mut detail = match check(&current) {
        Err(e) => e,
        Ok(()) => panic!("minimize called on a passing plan"),
    };
    loop {
        let mut progressed = false;
        for candidate in current.shrink_candidates() {
            if let Err(e) = check(&candidate) {
                current = candidate;
                detail = e;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return (current, detail);
        }
    }
}

/// Run the default battery on one seed's generated plan, minimizing
/// every divergence found.
pub fn run_seed(seed: u64) -> Vec<Divergence> {
    let plan = plan_for_seed(seed);
    let mut out = Vec::new();
    for (name, check) in checks() {
        if check(&plan).is_err() {
            let (minimized, detail) = minimize(&plan, &|p| check(p));
            out.push(Divergence {
                seed,
                check: name,
                detail,
                minimized,
            });
        }
    }
    out
}

/// Sweep many seeds; returns every (minimized) divergence.
pub fn run(seeds: &[u64]) -> Vec<Divergence> {
    seeds.iter().flat_map(|&s| run_seed(s)).collect()
}

/// Seeds to sweep: the `FILTERWATCH_SEEDS` environment variable as a
/// comma-separated list, or the given default.
pub fn seeds_from_env(default: &[u64]) -> Vec<u64> {
    match std::env::var("FILTERWATCH_SEEDS") {
        Ok(raw) => parse_seeds(&raw),
        Err(_) => default.to_vec(),
    }
}

/// A comma-separated seed list; entries that are not integers are
/// skipped.
fn parse_seeds(raw: &str) -> Vec<u64> {
    raw.split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_passes_on_one_seed() {
        assert!(run_seed(0).is_empty());
    }

    #[test]
    fn minimize_reaches_a_one_minimal_plan() {
        // A synthetic failure: "fails whenever any deployment exists".
        let check = |p: &ScenarioPlan| -> Result<(), String> {
            if p.deployments.is_empty() {
                Ok(())
            } else {
                Err("has a deployment".into())
            }
        };
        let plan = plan_for_seed(4);
        assert!(!plan.deployments.is_empty());
        let (min, detail) = minimize(&plan, &check);
        assert_eq!(min.deployments.len(), 1);
        assert_eq!(min.bystanders, 0);
        assert!(matches!(min.fault, FaultPlan::Clean));
        assert_eq!(min.urls_per_category, 1);
        let d = &min.deployments[0];
        assert_eq!((d.n_sites, d.n_submit), (2, 1));
        assert!(d.flapping.is_none());
        assert_eq!(detail, "has a deployment");
        // 1-minimal: every further shrink passes.
        assert!(min.shrink_candidates().iter().all(|c| check(c).is_ok()));
    }

    #[test]
    fn seeds_env_parsing() {
        assert_eq!(parse_seeds("0, 1,x,19"), vec![0, 1, 19]);
        // Without the variable the default flows through; with it (the
        // CI seed matrix sets it) the variable wins.
        match std::env::var("FILTERWATCH_SEEDS") {
            Ok(raw) => assert_eq!(seeds_from_env(&[1, 2]), parse_seeds(&raw)),
            Err(_) => assert_eq!(seeds_from_env(&[1, 2]), vec![1, 2]),
        }
    }
}
