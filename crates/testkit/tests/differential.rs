//! The multi-seed differential runner, plus proof that the harness can
//! actually catch and shrink a bug.
//!
//! The sweep honours `FILTERWATCH_SEEDS` (comma-separated) so CI can
//! widen the battery without a code change.

use filterwatch_core::SiteKind;
use filterwatch_testkit::{
    minimize, plan_for_seed, run_campaign, seeds_from_env, FaultPlan, ScenarioPlan,
};

#[test]
fn differential_battery_finds_no_divergence() {
    let seeds = seeds_from_env(&[0, 1, 2, 3, 4, 5, 6, 7]);
    assert!(seeds.len() >= 8, "need at least eight seeds, got {seeds:?}");
    let divergences = filterwatch_testkit::differential::run(&seeds);
    assert!(
        divergences.is_empty(),
        "divergences found:\n{}",
        divergences
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n---\n")
    );
}

/// A deliberately injected verdict-flip bug: the "buggy pipeline"
/// rewrites every Netsweeper block verdict to look accessible, the way
/// a bad cache key or a swapped column would. The differential check
/// compares the real campaign against the mangled one; the harness must
/// (a) notice and (b) shrink the failing scenario to the minimal world
/// that still exhibits it — one Netsweeper deployment, nothing else.
fn buggy_netsweeper_flip(plan: &ScenarioPlan) -> Result<(), String> {
    let honest = run_campaign(plan).comparable_text();
    let mangled = honest.replace("\tblocked\tnetsweeper", "\taccessible\t-");
    if honest == mangled {
        Ok(())
    } else {
        Err("netsweeper verdicts flipped".into())
    }
}

#[test]
fn injected_verdict_flip_is_caught_and_minimized() {
    // Find a generated seed whose plan includes a Netsweeper deployment
    // (the bug only fires where its verdicts exist at all).
    let seed = (0u64..32)
        .find(|&s| buggy_netsweeper_flip(&plan_for_seed(s)).is_err())
        .expect("no generated seed exercises a Netsweeper deployment");
    let plan = plan_for_seed(seed);

    let (min, detail) = minimize(&plan, &buggy_netsweeper_flip);
    assert_eq!(detail, "netsweeper verdicts flipped");

    // The minimal scenario is exactly one Netsweeper deployment in an
    // otherwise bare world.
    assert_eq!(min.deployments.len(), 1, "minimal plan: {}", min.summary());
    let d = &min.deployments[0];
    assert_eq!(d.product.slug(), "netsweeper");
    assert_eq!(min.bystanders, 0);
    assert!(matches!(min.fault, FaultPlan::Clean));
    assert_eq!(min.urls_per_category, 1);
    assert!(d.flapping.is_none());
    assert_eq!((d.n_sites, d.n_submit), (2, 1));
    // The minimized plan itself can be any content kind — either still
    // reproduces, since the list sweep always covers both categories.
    assert!(matches!(
        d.content,
        SiteKind::ProxyService | SiteKind::AdultImages
    ));

    // And it still reproduces: 1-minimality means every further shrink
    // passes, but the minimum itself must keep failing.
    assert!(buggy_netsweeper_flip(&min).is_err());
    assert!(min
        .shrink_candidates()
        .iter()
        .all(|c| buggy_netsweeper_flip(c).is_ok()));
}
