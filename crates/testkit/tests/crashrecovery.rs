//! The crash-recovery differential battery.
//!
//! For every seed in the battery, run a generated campaign
//! uninterrupted under the orchestrator, then kill a fresh copy at
//! EVERY checkpoint boundary, resume each corpse from its last
//! checkpoint line, and byte-compare the resumed
//! `comparable_text` against the uninterrupted run's. Any divergence —
//! a stage replayed out of order, a clock advanced twice, RNG drawn
//! during restore — fails with the boundary that exposed it.
//!
//! The sweep honours `FILTERWATCH_SEEDS` (comma-separated) so CI can
//! widen or narrow the battery without a code change.

use filterwatch_netsim::FetchPath;
use filterwatch_orchestrator::{
    CampaignCheckpoint, CampaignDescriptor, CampaignKind, CrashPlan, Orchestrator, Outcome,
    ResumeError,
};
use filterwatch_testkit::{
    build_world, campaign_for, generated_driver, plan_for_seed, resume_generated_campaign,
    run_campaign, run_campaign_with, run_generated_campaign, seeds_from_env,
};

const BATTERY: &[u64] = &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9];

#[test]
fn kill_at_every_checkpoint_boundary_resumes_byte_identical() {
    for seed in seeds_from_env(BATTERY) {
        let descriptor = CampaignDescriptor::new(CampaignKind::Generated, seed);
        let (reference, checkpoints) =
            run_generated_campaign(descriptor.clone()).expect("uninterrupted run");
        let want = reference.comparable_text();

        // The orchestrated run must itself match the linear runner.
        let linear = run_campaign(&plan_for_seed(seed)).comparable_text();
        assert_eq!(want, linear, "seed {seed}: orchestrator changed verdicts");

        for step in 0..checkpoints.len() as u64 {
            let driver = generated_driver(descriptor.clone()).expect("generated driver");
            let mut orch =
                Orchestrator::new(vec![driver]).with_crash_plan(CrashPlan::at_step(step));
            assert_eq!(
                orch.run(),
                Outcome::Crashed {
                    at_checkpoint: step
                },
                "seed {seed}: crash plan missed step {step}"
            );
            let last = orch
                .checkpoints(0)
                .last()
                .expect("crashed campaign wrote checkpoints");
            assert_eq!(last, &checkpoints[step as usize], "seed {seed} step {step}");
            let resumed = resume_generated_campaign(last)
                .unwrap_or_else(|e| panic!("seed {seed}: resume from step {step}: {e}"));
            assert_eq!(
                resumed.comparable_text(),
                want,
                "seed {seed}: tables diverged resuming from boundary {step} ({})",
                CampaignCheckpoint::parse_line(last)
                    .expect("own checkpoint parses")
                    .stage
                    .to_line()
            );
        }
    }
}

/// The battery above runs entirely on the event core (the default
/// fetch path). Close the loop against the retired machinery: the
/// orchestrated event-core run — and a resume from a `Wait` boundary,
/// whose deadline is parked on the event queue's virtual clock — must
/// be byte-identical to a direct-call oracle run that never touches
/// the queue at all.
#[test]
fn wait_parked_event_core_resumes_match_the_direct_oracle() {
    for seed in seeds_from_env(&[0, 4, 9]) {
        let descriptor = CampaignDescriptor::new(CampaignKind::Generated, seed);
        let (reference, checkpoints) =
            run_generated_campaign(descriptor).expect("uninterrupted run");

        let plan = plan_for_seed(seed);
        let mut campaign = campaign_for(&plan);
        campaign.options.fetch_path = FetchPath::DirectReference;
        let oracle = run_campaign_with(&plan, campaign, build_world(&plan)).comparable_text();
        assert_eq!(
            reference.comparable_text(),
            oracle,
            "seed {seed}: event core diverged from the direct oracle"
        );

        let wait = checkpoints
            .iter()
            .find(|c| c.contains("wait:"))
            .expect("some checkpoint stops at a wait boundary");
        let resumed = resume_generated_campaign(wait)
            .unwrap_or_else(|e| panic!("seed {seed}: resume from wait boundary: {e}"));
        assert_eq!(
            resumed.comparable_text(),
            oracle,
            "seed {seed}: wait-parked resume diverged from the direct oracle"
        );
    }
}

/// A checkpoint that disagrees with the code replaying it must fail
/// loudly as drift, not quietly produce different tables. Fake the
/// drift by doctoring a recorded case counter and re-signing the line.
#[test]
fn drifted_checkpoints_are_rejected_on_resume() {
    let descriptor = CampaignDescriptor::new(CampaignKind::Generated, 0);
    let (_, checkpoints) = run_generated_campaign(descriptor).expect("uninterrupted run");
    let with_case = checkpoints
        .iter()
        .rev()
        .find(|c| c.contains("case:0"))
        .expect("some checkpoint records a completed case");
    let mut ckpt = CampaignCheckpoint::parse_line(with_case).expect("valid checkpoint");
    ckpt.cases[0].submitted_blocked += 1;
    match resume_generated_campaign(&ckpt.to_line()) {
        Err(ResumeError::Drift(_)) => {}
        other => panic!("doctored checkpoint resumed as {other:?}"),
    }
}
