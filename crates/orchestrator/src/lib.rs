//! Crash-safe resumable campaign state machines.
//!
//! The paper's confirm stage is inherently long-running: submit a URL
//! subset to the vendor, wait 3–5 days, retest (§5). The core crate
//! runs that as one linear in-memory loop, so an interruption loses
//! the whole campaign. This crate reifies a campaign as an explicit
//! state machine over typed stages —
//!
//! ```text
//! Identify → Baseline(c) → Submit(c) → Wait(c, deadline) → Retest(c) ─┐
//!               ↑ ───────────────── next case ──────────────────────── ┘
//!                                  → Characterize → Done
//! ```
//!
//! — driven by a virtual-time scheduler ([`Orchestrator`]) that runs
//! many campaigns concurrently, parking `Wait` stages on the event
//! core's [`EventQueue`](filterwatch_netsim::EventQueue) instead of
//! blocking. One driver type, [`PaperDriver`], runs the core crate's
//! `CampaignRun` for paper and generated campaigns alike.
//! Every stage transition writes a [`CampaignCheckpoint`] line in the
//! workspace's `to_line`/`parse_line` wire discipline; a campaign
//! killed at any boundary restores via [`replay`] to byte-identical
//! identify/confirm tables. Supervision handles the unreliable-vantage
//! reality: [`CrashPlan`] injects deterministic crashes for the
//! recovery battery, a watchdog quarantines campaigns wedged past
//! their stall budget as `Inconclusive` (reusing the measure crate's
//! [`CircuitBreaker`](filterwatch_measure::CircuitBreaker)), and
//! per-vantage rate limits spread concurrent campaigns' load without
//! ever touching their world clocks.

pub mod checkpoint;
pub mod driver;
pub mod resume;
pub mod scheduler;
pub mod stage;

pub use checkpoint::{CampaignCheckpoint, CaseCkpt};
pub use driver::{
    Decorated, PaperDriver, StageDriver, StageHook, StallPlan, StallingDriver, Stalls, StepOutcome,
};
pub use resume::{replay, ResumeError};
pub use scheduler::{CampaignStatus, CrashPlan, Orchestrator, Outcome, WatchdogConfig};
pub use stage::{CampaignDescriptor, CampaignKind, StageState};

use filterwatch_core::campaign::CampaignReport;

/// Run one campaign driver under the orchestrator, uninterrupted, to
/// `Done`, returning the driver plus every checkpoint line the run
/// wrote.
pub fn run_to_done<D: StageDriver>(driver: D) -> Result<(D, Vec<String>), String> {
    drive_one(Orchestrator::new(vec![driver]))
}

/// Restore a campaign from a checkpoint line — `build` rebuilds its
/// driver from the line's descriptor — replay it to the checkpointed
/// boundary, and run it to `Done`.
pub fn resume_to_done<D: StageDriver>(
    checkpoint_line: &str,
    build: impl FnOnce(CampaignDescriptor) -> Result<D, String>,
) -> Result<D, ResumeError> {
    let ckpt = CampaignCheckpoint::parse_line(checkpoint_line).map_err(ResumeError::Parse)?;
    let mut driver = build(ckpt.descriptor.clone()).map_err(ResumeError::Parse)?;
    let stage = replay(&mut driver, &ckpt)?;
    let (driver, _) =
        drive_one(Orchestrator::with_stages(vec![(driver, stage)])).map_err(ResumeError::Drift)?;
    Ok(driver)
}

/// Drive a one-campaign orchestrator to the end. It has no crash plan,
/// so `run` always completes; whether the campaign reached `Done` is
/// in its status.
fn drive_one<D: StageDriver>(mut orch: Orchestrator<D>) -> Result<(D, Vec<String>), String> {
    orch.run();
    let checkpoints = orch.checkpoints(0).to_vec();
    match orch.into_drivers().pop() {
        Some((driver, CampaignStatus::Done)) => Ok((driver, checkpoints)),
        Some((_, status)) => Err(format!("campaign did not finish: {status:?}")),
        None => Err("no campaign scheduled".to_string()),
    }
}

/// Run one paper campaign (standard or demo) under the orchestrator,
/// uninterrupted, returning its report plus every checkpoint line the
/// run wrote. The tables in the report are byte-identical to
/// [`Campaign::run`](filterwatch_core::campaign::Campaign::run) at the
/// same descriptor — the orchestrator changes *when* stages run, never
/// what they measure.
pub fn run_paper_campaign(
    descriptor: CampaignDescriptor,
) -> Result<(CampaignReport, Vec<String>), String> {
    let (driver, checkpoints) = run_to_done(PaperDriver::new(descriptor)?)?;
    Ok((driver.into_report(), checkpoints))
}

/// Restore a paper campaign from a checkpoint line, run it to
/// completion, and return its report. The identify/confirm tables are
/// byte-identical to the uninterrupted run's.
pub fn resume_paper_campaign(checkpoint_line: &str) -> Result<CampaignReport, ResumeError> {
    resume_to_done(checkpoint_line, PaperDriver::new).map(PaperDriver::into_report)
}
