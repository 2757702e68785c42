//! Running the paper's campaign on a generated world and rendering the
//! outcome as stable text.
//!
//! A plan maps to a core [`Campaign`] ([`campaign_for`]) — one §4.2
//! case study per deployment — which runs through the production
//! [`CampaignRun`] on the plan's [`build_world`]. The testkit adds only
//! the pre-submission list sweep ([`sweep_stage`]), after identify and
//! before case 0's baseline, and the stable rendering.
//!
//! [`run_campaign`] is the single entry point everything in the testkit
//! byte-compares on: the invariant suite runs it on metamorphic
//! variants of one plan, the golden framework snapshots its
//! [`GeneratedReport::stable_text`], and the differential runner
//! diffs it across configurations that must not matter.

use filterwatch_core::campaign::{Campaign, CampaignReport, CampaignRun};
use filterwatch_core::confirm::{CaseStudyResult, CaseStudySpec};
use filterwatch_core::World;
use filterwatch_measure::ResilienceConfig;
use filterwatch_products::SubmitterProfile;
use filterwatch_trace::{build_forest, render_forest, TraceMode};
use filterwatch_urllists::TestList;

use crate::plan::{DeploymentPlan, ScenarioPlan};
use crate::worldgen::{build_world, deployment_name, world_options};

/// Days waited between submission and retest — past every vendor's
/// maximum review delay, so accepted submissions are always in effect
/// at retest.
pub const WAIT_DAYS: u64 = 6;

/// The production campaign a plan runs: one case study per deployment,
/// in plan order, and no characterization. Resilience is passthrough
/// on clean worlds and the chaos profile (retries + breaker + quorum)
/// when the plan injects faults. The knobs that must NOT change
/// verdicts are `resilience`, `options.fetch_path` and the telemetry
/// handle of the world the campaign runs on ([`run_campaign_with`]).
pub fn campaign_for(plan: &ScenarioPlan) -> Campaign {
    Campaign {
        options: world_options(plan),
        confirmations: plan
            .deployments
            .iter()
            .enumerate()
            .map(|(i, d)| case_spec(i, d))
            .collect(),
        list_urls_per_category: plan.urls_per_category,
        characterize_runs: 0,
        resilience: if plan.fault.is_clean() {
            ResilienceConfig::default()
        } else {
            ResilienceConfig::chaos()
        },
        field_faults: None,
        trace: TraceMode::Off,
    }
}

/// Deployment `i`'s case study, measured through its field vantage.
fn case_spec(i: usize, d: &DeploymentPlan) -> CaseStudySpec {
    let isp = deployment_name(i, d);
    CaseStudySpec {
        label: isp.clone(),
        product: d.product,
        isp,
        date: "-".into(),
        site_kind: d.content,
        n_sites: d.n_sites,
        n_submit: d.n_submit,
        category_label: d.content.category().name().into(),
        // The paper's order: verify, then submit. Generated Netsweeper
        // boxes do not queue accessed URLs, so verifying first cannot
        // get a site categorized.
        pre_verify: true,
        wait_days: WAIT_DAYS,
        retest_runs: 1,
        submitter: SubmitterProfile::COVERT,
    }
}

/// Start `campaign` on a generated world, applying its fetch path.
/// Returns the run plus the world's topology digest, taken before any
/// controlled site is minted.
pub(crate) fn start_campaign(campaign: Campaign, world: World) -> (CampaignRun, u64) {
    world.net.set_fetch_path(campaign.options.fetch_path);
    let topology_digest = world.net.topology_digest();
    (CampaignRun::with_world(campaign, world), topology_digest)
}

/// Stable per-site retest lines of a case (submitted first, then held
/// out).
pub fn retest_lines(case: &CaseStudyResult) -> Vec<String> {
    case.retest_verdicts
        .iter()
        .enumerate()
        .map(|(s, v)| {
            let half = if s < case.spec.n_submit {
                "submitted"
            } else {
                "heldout"
            };
            format!("{half} {}", v.to_line())
        })
        .collect()
}

/// A full generated-campaign report.
#[derive(Debug, Clone)]
pub struct GeneratedReport {
    /// The plan that was run.
    pub plan: ScenarioPlan,
    /// Topology digest of the built world (before any site minting).
    pub topology_digest: u64,
    /// Stage-1 installations table (stable rendering).
    pub identify_table: String,
    /// Pre-submission verdict sweep of the global test list from every
    /// deployment vantage (`depN <url> <label> <product>` lines).
    pub list_lines: Vec<String>,
    /// Per-deployment case studies, in plan order.
    pub cases: Vec<CaseStudyResult>,
}

impl GeneratedReport {
    /// Render a finished campaign on `plan`'s world.
    pub fn new(
        plan: &ScenarioPlan,
        topology_digest: u64,
        report: CampaignReport,
        list_lines: Vec<String>,
    ) -> GeneratedReport {
        GeneratedReport {
            plan: plan.clone(),
            topology_digest,
            identify_table: report.identify_table(),
            list_lines,
            cases: report.confirmations,
        }
    }

    /// The comparison surface metamorphic variants must agree on:
    /// verdict data only — no plan echo, no topology digest, no counts
    /// that scale with world size rather than filtering behaviour.
    pub fn comparable_text(&self) -> String {
        let mut out = String::new();
        out.push_str("## identify\n");
        out.push_str(&self.identify_table);
        out.push_str("\n## list sweep\n");
        for line in &self.list_lines {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str("\n## cases\n");
        for (i, c) in self.cases.iter().enumerate() {
            out.push_str(&format!(
                "dep{i} {} submitted={}/{} accepted={} blocked={} holdout_blocked={} \
                 inconclusive={} confirmed={}\n",
                c.spec.product.slug(),
                c.spec.n_submit,
                c.spec.n_sites,
                c.submissions_accepted,
                c.submitted_blocked,
                c.holdout_blocked,
                c.retest_inconclusive,
                if c.confirmed { "yes" } else { "no" },
            ));
            for line in retest_lines(c) {
                out.push_str("  ");
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }

    /// The full stable rendering: plan summary and topology digest on
    /// top of [`GeneratedReport::comparable_text`]. Byte-identical for
    /// the same (plan, campaign) — this is what goldens snapshot.
    pub fn stable_text(&self) -> String {
        format!(
            "# generated campaign\nplan: {}\ntopology: {:016x}\n\n{}",
            self.plan.summary(),
            self.topology_digest,
            self.comparable_text()
        )
    }
}

/// Pre-submission sweep of the (pre-categorized) global list from
/// every deployment vantage.
pub fn sweep_stage(plan: &ScenarioPlan, world: &World) -> Vec<String> {
    let list = TestList::global(plan.urls_per_category);
    let mut list_lines = Vec::new();
    for (i, d) in plan.deployments.iter().enumerate() {
        let client = world.client(&deployment_name(i, d));
        for test_url in &list.urls {
            let url = filterwatch_http::Url::parse(&test_url.url).expect("list URL");
            let v = client.test_url(&world.net, &url);
            list_lines.push(format!("dep{i} {}", v.to_line()));
        }
    }
    list_lines
}

/// Run the plan's canonical campaign ([`campaign_for`]) on a freshly
/// built world.
pub fn run_campaign(plan: &ScenarioPlan) -> GeneratedReport {
    run_campaign_with(plan, campaign_for(plan), build_world(plan))
}

/// Run `campaign` on `world`, built for `plan` and instrumented by the
/// caller. This is the linear driver; the orchestrator runs the same
/// stages under checkpointed scheduling ([`crate::generated_driver`]), and the
/// crash-recovery battery holds the two byte-identical.
pub fn run_campaign_with(plan: &ScenarioPlan, campaign: Campaign, world: World) -> GeneratedReport {
    let (mut run, topology_digest) = start_campaign(campaign, world);
    let list_lines = drive(plan, &mut run);
    GeneratedReport::new(plan, topology_digest, run.finish(), list_lines)
}

/// Every stage of a started run, the list sweep right after identify.
fn drive(plan: &ScenarioPlan, run: &mut CampaignRun) -> Vec<String> {
    run.identify();
    let list_lines = sweep_stage(plan, run.world());
    run.confirm_remaining();
    run.characterize_confirmed();
    list_lines
}

/// Everything a campaign run leaves behind when every observation
/// surface is switched on: the report plus the raw per-flow log and the
/// rendered causal trace forest. The old-vs-new differential battery
/// byte-compares all three across fetch paths — agreement on the report
/// alone would still let the event kernel reorder or drop interior
/// observations.
#[derive(Debug, Clone)]
pub struct CampaignForensics {
    /// The campaign report (same surface as [`run_campaign_with`]).
    pub report: GeneratedReport,
    /// Every flow the world carried, as stable wire lines.
    pub flow_lines: Vec<String>,
    /// The rendered causal trace forest of the whole campaign.
    pub trace_forest: String,
}

/// Run `campaign` with the flow log and full tracing enabled, returning
/// the report together with both observation surfaces.
pub fn run_campaign_forensic(plan: &ScenarioPlan, campaign: Campaign) -> CampaignForensics {
    let world = build_world(plan);
    world.net.set_flow_log(true);
    let (mut run, topology_digest) = start_campaign(campaign.with_trace(TraceMode::Full), world);
    let list_lines = drive(plan, &mut run);
    let flow_lines = run
        .world()
        .net
        .flow_log()
        .iter()
        .map(|r| r.to_line())
        .collect();
    let report = run.finish();
    let trace_forest = render_forest(&build_forest(&report.trace));
    CampaignForensics {
        report: GeneratedReport::new(plan, topology_digest, report, list_lines),
        flow_lines,
        trace_forest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use crate::strategies::plan_for_seed;
    use filterwatch_core::confirm::submitted_majority;

    #[test]
    fn campaign_runs_and_reports_every_deployment() {
        let plan = plan_for_seed(0);
        let report = run_campaign(&plan);
        assert_eq!(report.cases.len(), plan.deployments.len());
        for (c, d) in report.cases.iter().zip(&plan.deployments) {
            assert_eq!(c.spec.n_sites, d.n_sites);
            assert_eq!(retest_lines(c).len(), d.n_sites);
        }
        assert_eq!(
            report.list_lines.len(),
            plan.deployments.len() * TestList::global(plan.urls_per_category).urls.len()
        );
    }

    #[test]
    fn accepted_majorities_confirm_on_clean_worlds() {
        // On a clean, non-flapping world the arithmetic is exact: every
        // accepted submission is blocked at retest, nothing else is.
        for seed in 0..16 {
            let mut plan = plan_for_seed(seed);
            plan.fault = FaultPlan::Clean;
            for d in &mut plan.deployments {
                d.flapping = None;
            }
            let report = run_campaign(&plan);
            for c in &report.cases {
                assert_eq!(
                    c.submitted_blocked, c.submissions_accepted,
                    "seed {seed}: {c:?}"
                );
                assert_eq!(c.holdout_blocked, 0, "seed {seed}: {c:?}");
                assert_eq!(c.accessible_before, Some(c.spec.n_sites));
                assert_eq!(
                    c.confirmed,
                    submitted_majority(c.submissions_accepted, c.spec.n_submit),
                    "seed {seed}: {c:?}"
                );
            }
        }
    }

    #[test]
    fn stable_text_is_byte_identical_across_runs() {
        let plan = plan_for_seed(5);
        let a = run_campaign(&plan).stable_text();
        let b = run_campaign(&plan).stable_text();
        assert_eq!(a, b);
    }
}
