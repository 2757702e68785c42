//! The metamorphic invariant suite.
//!
//! Each invariant states a relation between campaign outcomes on
//! *variants* of one scenario that must hold for any valid plan — no
//! oracle for the "right" verdicts needed:
//!
//! 1. **Permutation invariance** — shuffling scan-record order leaves
//!    the identify installations table byte-identical.
//! 2. **Bystander indifference** — adding a non-filtering AS never
//!    changes a verdict or an identification.
//! 3. **Fault degradation** — raising the fault rate (under the chaos
//!    resilience profile) may degrade a verdict to inconclusive or
//!    inaccessible, but never flips accessible ↔ blocked, and may only
//!    move a case's confirmation through an inconclusive retest.
//! 4. **Holdout integrity** — a case is confirmed iff the majority of
//!    its *submitted* half blocked, and the held-out half never blocks
//!    (its domains are structurally unknown to every vendor).
//! 5. **Shard invariance** — repartitioning the scan index across any
//!    shard count leaves the identify installations table
//!    byte-identical (sharding is a layout choice, never a semantic
//!    one).

use filterwatch_core::confirm::submitted_majority;
use filterwatch_core::identify::IdentifyPipeline;
use filterwatch_core::World;
use filterwatch_measure::ResilienceConfig;
use filterwatch_scanner::{ScanEngine, ScanIndex, ShardConfig};

use crate::plan::{FaultPlan, ScenarioPlan};
use crate::runner::{campaign_for, retest_lines, run_campaign, run_campaign_with, GeneratedReport};
use crate::strategies::plan_for_seed;
use crate::worldgen::build_world;

/// A failed invariant, with enough context to reproduce.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: &'static str,
    /// The plan it failed on.
    pub plan: ScenarioPlan,
    /// What differed.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant {} violated on {}\n{}",
            self.invariant,
            self.plan.summary(),
            self.detail
        )
    }
}

fn violation(invariant: &'static str, plan: &ScenarioPlan, detail: String) -> Violation {
    Violation {
        invariant,
        plan: plan.clone(),
        detail,
    }
}

/// First line where two renderings differ, for readable failures.
pub fn first_diff(a: &str, b: &str) -> String {
    for (n, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}: {la:?} != {lb:?}", n + 1);
        }
    }
    format!(
        "lengths differ: {} vs {} lines",
        a.lines().count(),
        b.lines().count()
    )
}

/// A plan's world and its scan index.
pub(crate) fn scanned_world(plan: &ScenarioPlan) -> (World, ScanIndex) {
    let world = build_world(plan);
    let index = ScanEngine::new().scan(&world.net);
    (world, index)
}

/// The identify installations table of `world` over `index`.
pub(crate) fn installations(world: &World, index: &ScanIndex) -> String {
    IdentifyPipeline::new()
        .run_on_index(&world.net, index)
        .render_installations()
}

/// Invariant 1: identify tables are independent of scan-record order.
pub fn check_permutation_invariance(plan: &ScenarioPlan) -> Result<(), Violation> {
    let (world, index) = scanned_world(plan);
    let base = installations(&world, &index);
    for shuffle_seed in [1u64, 0xfeed] {
        let permuted = installations(&world, &index.shuffled(shuffle_seed));
        if permuted != base {
            return Err(violation(
                "permutation-invariance",
                plan,
                format!(
                    "shuffle seed {shuffle_seed}: {}",
                    first_diff(&base, &permuted)
                ),
            ));
        }
    }
    Ok(())
}

/// Invariant 5: identify tables are independent of how the scan index
/// is sharded — a single flat shard and a wide partitioning must
/// render the same installations, byte for byte.
pub fn check_shard_invariance(plan: &ScenarioPlan) -> Result<(), Violation> {
    let (world, index) = scanned_world(plan);
    let base = installations(&world, &index);
    for shards in [1usize, 3, 16] {
        let repartitioned = ScanIndex::build_with(index.records().to_vec(), ShardConfig { shards });
        let rendered = installations(&world, &repartitioned);
        if rendered != base {
            return Err(violation(
                "shard-invariance",
                plan,
                format!("{shards} shard(s): {}", first_diff(&base, &rendered)),
            ));
        }
    }
    Ok(())
}

/// Invariant 2: a non-filtering AS is invisible to every verdict.
pub fn check_bystander_indifference(plan: &ScenarioPlan) -> Result<(), Violation> {
    let base = run_campaign(plan).comparable_text();
    let mut grown = plan.clone();
    grown.bystanders += 1;
    let with_bystander = run_campaign(&grown).comparable_text();
    if base != with_bystander {
        return Err(violation(
            "bystander-indifference",
            plan,
            first_diff(&base, &with_bystander),
        ));
    }
    Ok(())
}

/// The verdict label of a stable line (`...\t<label>\t<product>`).
fn line_label(line: &str) -> &str {
    line.rsplit('\t').nth(1).unwrap_or("")
}

fn is_cross_flip(clean: &str, faulted: &str) -> bool {
    (clean == "accessible" && faulted == "blocked")
        || (clean == "blocked" && faulted == "accessible")
}

/// Invariant 3: faults only degrade, never flip.
///
/// Flapping is stripped from both variants: a flapping box re-rolls per
/// virtual instant, and fault-induced retries shift the clock, so
/// verdict churn under flapping is legitimate world behaviour, not a
/// pipeline bug.
pub fn check_fault_degradation(plan: &ScenarioPlan) -> Result<(), Violation> {
    let mut clean = plan.clone();
    clean.fault = FaultPlan::Clean;
    for d in &mut clean.deployments {
        d.flapping = None;
    }
    let mut faulted = clean.clone();
    faulted.fault = match &plan.fault {
        FaultPlan::Clean => FaultPlan::Lossy { drop_prob: 0.08 },
        other => other.clone(),
    };

    // Both runs use the chaos resilience profile so the only difference
    // is the fault injection itself.
    let chaos = |p: &ScenarioPlan| {
        let campaign = campaign_for(p).with_resilience(ResilienceConfig::chaos());
        run_campaign_with(p, campaign, build_world(p))
    };
    let clean_report = chaos(&clean);
    let faulted_report = chaos(&faulted);
    let verdict_lines = |r: &GeneratedReport| -> Vec<String> {
        r.list_lines
            .iter()
            .cloned()
            .chain(r.cases.iter().flat_map(retest_lines))
            .collect()
    };
    let clean_lines = verdict_lines(&clean_report);
    let faulted_lines = verdict_lines(&faulted_report);
    if clean_lines.len() != faulted_lines.len() {
        return Err(violation(
            "fault-degradation",
            plan,
            format!(
                "sweep sizes differ: {} vs {}",
                clean_lines.len(),
                faulted_lines.len()
            ),
        ));
    }
    for (a, b) in clean_lines.iter().zip(&faulted_lines) {
        let (la, lb) = (line_label(a), line_label(b));
        if is_cross_flip(la, lb) {
            return Err(violation(
                "fault-degradation",
                plan,
                format!("verdict cross-flip: {a:?} became {b:?}"),
            ));
        }
    }

    // Case-level: a confirmation may only change via an inconclusive
    // retest (the machinery said "don't know", never the opposite
    // answer).
    for (i, (c, f)) in clean_report
        .cases
        .iter()
        .zip(&faulted_report.cases)
        .enumerate()
    {
        if c.confirmed != f.confirmed && f.retest_inconclusive == 0 {
            return Err(violation(
                "fault-degradation",
                plan,
                format!(
                    "dep{i}: confirmation flipped ({} -> {}) with zero inconclusive retests",
                    c.confirmed, f.confirmed
                ),
            ));
        }
    }
    Ok(())
}

/// Invariant 4: confirmation is exactly the submitted-majority rule,
/// and held-out domains stay unblocked (reachable, on clean worlds).
pub fn check_holdout_integrity(plan: &ScenarioPlan) -> Result<(), Violation> {
    let report = run_campaign(plan);
    for (i, c) in report.cases.iter().enumerate() {
        if c.confirmed != submitted_majority(c.submitted_blocked, c.spec.n_submit) {
            return Err(violation(
                "holdout-integrity",
                plan,
                format!("dep{i}: confirmed flag disagrees with majority rule: {c:?}"),
            ));
        }
        if c.holdout_blocked != 0 {
            return Err(violation(
                "holdout-integrity",
                plan,
                format!(
                    "dep{i}: {} held-out site(s) blocked: {c:?}",
                    c.holdout_blocked
                ),
            ));
        }
        if plan.fault.is_clean() {
            for v in &c.retest_verdicts[c.spec.n_submit..] {
                if !v.verdict.is_accessible() {
                    return Err(violation(
                        "holdout-integrity",
                        plan,
                        format!(
                            "dep{i}: held-out site not reachable on a clean world: {:?}",
                            v.to_line()
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Every invariant, on one plan.
pub fn check_plan(plan: &ScenarioPlan) -> Result<(), Violation> {
    check_permutation_invariance(plan)?;
    check_shard_invariance(plan)?;
    check_bystander_indifference(plan)?;
    check_fault_degradation(plan)?;
    check_holdout_integrity(plan)?;
    Ok(())
}

/// Every invariant, on the generated plan for a seed.
pub fn check_seed(seed: u64) -> Result<(), Violation> {
    check_plan(&plan_for_seed(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_label_parses_stable_lines() {
        assert_eq!(line_label("http://a/\tblocked\tnetsweeper"), "blocked");
        assert_eq!(line_label("dep0 http://a/\taccessible\t-"), "accessible");
    }

    #[test]
    fn cross_flip_detector() {
        assert!(is_cross_flip("accessible", "blocked"));
        assert!(is_cross_flip("blocked", "accessible"));
        assert!(!is_cross_flip("accessible", "inaccessible"));
        assert!(!is_cross_flip("blocked", "inconclusive"));
        assert!(!is_cross_flip("blocked", "blocked"));
    }

    #[test]
    fn one_seed_passes_everything() {
        check_seed(0).unwrap_or_else(|v| panic!("{v}"));
    }
}
