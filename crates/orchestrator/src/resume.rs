//! Replay-based checkpoint restore.
//!
//! The worlds these campaigns run in are pure functions of their seed,
//! and every stage draws all state from the world — so a checkpoint
//! does not need to serialize RNG cursors, site registries or vendor
//! queues. Restoring is: rebuild the campaign from its descriptor,
//! re-execute every stage before the checkpoint's cursor (which lands
//! the world, clock and RNG in exactly the state the original run had
//! at that boundary), then continue live. The checkpoint's recorded
//! case results and clock become *cross-checks*: any disagreement
//! between replay and record means the code or the checkpoint drifted,
//! and the resume fails with [`ResumeError::Drift`] instead of quietly
//! producing different tables. Byte-identical identify/confirm tables
//! versus the uninterrupted run follow by construction — the
//! crash-recovery battery enforces exactly that, at every boundary.

use crate::checkpoint::CampaignCheckpoint;
use crate::driver::{StageDriver, StepOutcome};
use crate::stage::StageState;

/// Why a resume failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The checkpoint line did not parse (bad digest, unknown stage…).
    Parse(String),
    /// Replay disagreed with the checkpoint's recorded state: the code
    /// changed since the checkpoint was written, or the checkpoint was
    /// corrupted in a way the digest cannot see (it protects the line,
    /// not the world).
    Drift(String),
    /// A stage stalled during replay (replay runs without the
    /// scheduler, so a stall cannot be serviced).
    Stalled(String),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Parse(e) => write!(f, "checkpoint parse error: {e}"),
            ResumeError::Drift(e) => write!(f, "replay drift: {e}"),
            ResumeError::Stalled(e) => write!(f, "stage stalled during replay: {e}"),
        }
    }
}

/// Re-execute every stage before `ckpt.stage` on a freshly built
/// driver, cross-check the replayed state against the checkpoint, and
/// return the stage to continue from (hand it to
/// [`Orchestrator::with_stages`](crate::Orchestrator::with_stages)).
///
/// The driver must be freshly built from `ckpt.descriptor` — replaying
/// on a driver that has already executed stages would double-run them.
pub fn replay<D: StageDriver>(
    driver: &mut D,
    ckpt: &CampaignCheckpoint,
) -> Result<StageState, ResumeError> {
    let target = &ckpt.stage;
    let cases = driver.case_count();
    if let Some(case) = target.case() {
        if case >= cases {
            return Err(ResumeError::Drift(format!(
                "checkpoint cursor {} is out of range: campaign has {cases} cases",
                target.to_line()
            )));
        }
    }
    let mut resume_at = target.clone();
    'replay: {
        for stage in boundary_sequence(cases) {
            if stage.same_boundary(target) {
                // Stopping at a Wait boundary: the deadline was
                // announced before the checkpoint was written, so
                // announce it here too, and cross-check it.
                if let StageState::Wait {
                    case,
                    deadline_secs: recorded,
                } = *target
                {
                    let deadline = driver.wait_deadline_secs(case);
                    if deadline != recorded {
                        return Err(ResumeError::Drift(format!(
                            "replayed wait deadline {deadline} != checkpointed {recorded}"
                        )));
                    }
                    resume_at = StageState::Wait {
                        case,
                        deadline_secs: deadline,
                    };
                }
                break 'replay;
            }
            match stage {
                StageState::Wait { case, .. } => {
                    // Mid-replay wait: announce, then advance inline —
                    // the same arithmetic the timer queue performs.
                    let deadline = driver.wait_deadline_secs(case);
                    driver.advance_to_secs(deadline);
                    driver.on_timer_fire(case, deadline);
                }
                StageState::Done => {
                    // `Done` is the last boundary; the loop always
                    // breaks at or before it.
                }
                ref executable => {
                    if driver.execute(executable) == StepOutcome::Stalled {
                        return Err(ResumeError::Stalled(executable.to_line()));
                    }
                }
            }
        }
    }
    // Cross-check every recorded case result against the replay.
    for recorded in &ckpt.cases {
        if recorded.index >= driver.completed_cases() {
            return Err(ResumeError::Drift(format!(
                "checkpoint records case {} but replay completed only {}",
                recorded.index,
                driver.completed_cases()
            )));
        }
        let replayed = driver.case_checkpoint(recorded.index);
        if replayed != *recorded {
            return Err(ResumeError::Drift(format!(
                "case {} replayed as {:?} but checkpoint recorded {:?}",
                recorded.index,
                replayed.to_field(),
                recorded.to_field()
            )));
        }
    }
    if driver.completed_cases() != ckpt.cases.len() {
        return Err(ResumeError::Drift(format!(
            "replay completed {} cases but checkpoint recorded {}",
            driver.completed_cases(),
            ckpt.cases.len()
        )));
    }
    // Cross-check the clock.
    let now = driver.now_secs();
    if now != ckpt.clock_secs {
        return Err(ResumeError::Drift(format!(
            "replayed clock {now} != checkpointed clock {}",
            ckpt.clock_secs
        )));
    }
    driver.on_resume(&resume_at);
    Ok(resume_at)
}

/// The canonical boundary sequence for a campaign with `cases` case
/// studies: the order every uninterrupted run visits stages in.
fn boundary_sequence(cases: usize) -> Vec<StageState> {
    let mut seq = vec![StageState::Identify];
    for case in 0..cases {
        seq.push(StageState::Baseline { case });
        seq.push(StageState::Submit { case });
        seq.push(StageState::Wait {
            case,
            deadline_secs: 0,
        });
        seq.push(StageState::Retest { case });
    }
    seq.push(StageState::Characterize);
    seq.push(StageState::Done);
    seq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_sequence_is_canonical() {
        let seq = boundary_sequence(2);
        assert_eq!(seq.first(), Some(&StageState::Identify));
        assert_eq!(seq.last(), Some(&StageState::Done));
        assert_eq!(seq.len(), 1 + 2 * 4 + 2);
        assert!(seq.contains(&StageState::Retest { case: 1 }));
    }
}
