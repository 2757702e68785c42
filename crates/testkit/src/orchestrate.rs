//! Generated-world campaigns under the orchestrator.
//!
//! A `generated:<seed>` descriptor rebuilds its plan through
//! [`plan_for_seed`], which keeps checkpoints self-contained — the
//! whole campaign identity is one short wire line. The campaign runs on
//! the orchestrator's one driver type, [`PaperDriver`], over the
//! production `CampaignRun`, decorated with the [`ListSweep`] hook that
//! adds the testkit's list sweep at the `Identify` boundary.
//!
//! The crash-recovery battery (`tests/crashrecovery.rs`) kills one of
//! these at every checkpoint boundary across the seed battery and
//! byte-compares the resumed [`GeneratedReport::comparable_text`]
//! against the uninterrupted run's.

use filterwatch_orchestrator::{
    resume_to_done, run_to_done, CampaignDescriptor, CampaignKind, Decorated, PaperDriver,
    ResumeError, StageDriver, StageHook, StageState, StepOutcome,
};

use crate::plan::ScenarioPlan;
use crate::runner::{campaign_for, start_campaign, sweep_stage, GeneratedReport};
use crate::strategies::plan_for_seed;
use crate::worldgen::build_world;

/// The testkit's [`StageHook`] on a generated campaign: the list sweep,
/// run right after `Identify` executes — so a resume, which replays
/// `Identify`, replays the sweep with it — plus what the report needs
/// beyond the `CampaignReport`.
pub struct ListSweep {
    plan: ScenarioPlan,
    topology_digest: u64,
    lines: Vec<String>,
}

impl StageHook<PaperDriver> for ListSweep {
    fn execute(&mut self, inner: &mut PaperDriver, stage: &StageState) -> StepOutcome {
        let outcome = inner.execute(stage);
        if *stage == StageState::Identify && outcome == StepOutcome::Complete {
            self.lines = sweep_stage(&self.plan, inner.run().world());
        }
        outcome
    }
}

/// Rebuild the descriptor's generated world and begin its campaign on
/// the orchestrator's one driver type, decorated with the list sweep.
/// Fails unless the descriptor is `generated:<seed>`.
pub fn generated_driver(
    descriptor: CampaignDescriptor,
) -> Result<Decorated<PaperDriver, ListSweep>, String> {
    if descriptor.kind != CampaignKind::Generated {
        return Err(format!(
            "not a generated-campaign descriptor: {}",
            descriptor.to_line()
        ));
    }
    let plan = plan_for_seed(descriptor.seed);
    let campaign = descriptor.configure(campaign_for(&plan));
    let (run, topology_digest) = start_campaign(campaign, build_world(&plan));
    let hook = ListSweep {
        plan,
        topology_digest,
        lines: Vec::new(),
    };
    Ok(Decorated {
        inner: PaperDriver::from_run(descriptor, run),
        hook,
    })
}

/// Assemble a generated campaign's report. Call only once the
/// orchestrator has driven it to `Done`.
pub fn generated_report(driver: Decorated<PaperDriver, ListSweep>) -> GeneratedReport {
    let Decorated { inner, hook } = driver;
    GeneratedReport::new(
        &hook.plan,
        hook.topology_digest,
        inner.into_report(),
        hook.lines,
    )
}

/// Run one generated campaign under the orchestrator, uninterrupted,
/// returning its report plus every checkpoint line the run wrote.
pub fn run_generated_campaign(
    descriptor: CampaignDescriptor,
) -> Result<(GeneratedReport, Vec<String>), String> {
    let (driver, checkpoints) = run_to_done(generated_driver(descriptor)?)?;
    Ok((generated_report(driver), checkpoints))
}

/// Restore a generated campaign from a checkpoint line and run it to
/// completion. The resumed [`GeneratedReport::comparable_text`] is
/// byte-identical to the uninterrupted run's.
pub fn resume_generated_campaign(checkpoint_line: &str) -> Result<GeneratedReport, ResumeError> {
    resume_to_done(checkpoint_line, generated_driver).map(generated_report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_campaign;
    use filterwatch_orchestrator::CampaignCheckpoint;

    #[test]
    fn generated_descriptors_only() {
        let err = generated_driver(CampaignDescriptor::new(CampaignKind::Demo, 5));
        assert!(err.is_err());
    }

    #[test]
    fn orchestrated_run_matches_linear_runner() {
        let seed = 3;
        let descriptor = CampaignDescriptor::new(CampaignKind::Generated, seed);
        let (report, checkpoints) = run_generated_campaign(descriptor).expect("generated run");
        let linear = run_campaign(&plan_for_seed(seed));
        assert_eq!(report.stable_text(), linear.stable_text());
        // 1 initial + identify→baseline + 4 per case + characterize→done.
        let deployments = plan_for_seed(seed).deployments.len();
        assert_eq!(checkpoints.len(), 3 + 4 * deployments);
    }

    /// Checkpoints record what the retest saw: a case where nothing
    /// blocked attributes no product.
    #[test]
    fn unblocked_cases_checkpoint_no_attribution() {
        // Seed 3's first case (SmartFilter) blocks nothing at retest.
        let descriptor = CampaignDescriptor::new(CampaignKind::Generated, 3);
        let (report, checkpoints) = run_generated_campaign(descriptor).expect("generated run");
        let case = &report.cases[0];
        assert_eq!((case.submitted_blocked, case.holdout_blocked), (0, 0));
        let last = checkpoints.last().expect("checkpoints written");
        let ckpt = CampaignCheckpoint::parse_line(last).expect("own checkpoint parses");
        assert_eq!(ckpt.cases[0].attributed, Vec::<String>::new());
    }
}
