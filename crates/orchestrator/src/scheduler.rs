//! The virtual-time campaign scheduler.
//!
//! Many campaigns, one loop: each scheduler *round* visits every
//! runnable campaign in id order and executes at most one stage per
//! campaign, subject to per-vantage rate limits. A campaign whose
//! submission enters the vendor review period parks on the event
//! core's [`EventQueue`] keyed by its absolute virtual-clock deadline;
//! when a round finds nothing executable, the queue fires the earliest
//! deadlines and the woken campaigns advance their own world clocks to
//! the fired deadline. Every stage transition writes a checkpoint
//! line; [`CrashPlan`] stops the scheduler right after a chosen
//! checkpoint, which is how the crash-recovery battery kills a
//! campaign at every boundary. A watchdog (a [`CircuitBreaker`] per
//! campaign counting stalled polls) quarantines wedged campaigns as
//! `Inconclusive` instead of letting them stall the loop.
//!
//! Everything is deterministic: campaigns are visited in id order,
//! timers fire in `(deadline, insertion)` order, and rate limits defer
//! work across rounds without ever touching a campaign's world clock —
//! so scheduling policy can change *when* a stage runs but never what
//! it measures.

use std::collections::BTreeMap;

use filterwatch_measure::{BreakerConfig, BreakerState, CircuitBreaker};
use filterwatch_netsim::{EventQueue, SimTime};

use crate::checkpoint::CampaignCheckpoint;
use crate::driver::{StageDriver, StepOutcome};
use crate::stage::StageState;

/// Deterministic crash injection: stop the scheduler immediately after
/// writing the n-th checkpoint (counted across all campaigns,
/// 0-based). Mirrors the fault-plan style: a plan is plain data,
/// applied by the machinery it tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    crash_after: Option<u64>,
}

impl CrashPlan {
    /// Never crash.
    pub fn none() -> CrashPlan {
        CrashPlan { crash_after: None }
    }

    /// Crash right after the n-th checkpoint write (0-based).
    pub fn at_step(n: u64) -> CrashPlan {
        CrashPlan {
            crash_after: Some(n),
        }
    }
}

/// Watchdog tuning: how many stalled polls a campaign may accumulate
/// before it is quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Consecutive stalled polls before quarantine.
    pub stall_budget: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig { stall_budget: 3 }
    }
}

/// Where a campaign ended up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignStatus {
    /// Still has stages to execute.
    Running,
    /// Ran every stage to completion.
    Done,
    /// The watchdog gave up on it: the stage named here exhausted the
    /// stall budget, and the campaign's verdict is `Inconclusive`.
    Quarantined {
        /// The stage that wedged, as a wire line.
        stage: String,
    },
}

/// How a scheduler run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every campaign is `Done` or `Quarantined`.
    Complete,
    /// The [`CrashPlan`] fired after the given checkpoint index.
    Crashed {
        /// Global index of the last checkpoint written.
        at_checkpoint: u64,
    },
}

struct Slot<D> {
    driver: D,
    stage: StageState,
    status: CampaignStatus,
    /// Whether the current `Wait` stage is already on the timer queue.
    parked: bool,
    breaker: CircuitBreaker,
    checkpoints: Vec<String>,
}

/// The scheduler over a fleet of campaign drivers.
pub struct Orchestrator<D> {
    slots: Vec<Slot<D>>,
    /// Parked `Wait` deadlines, keyed by campaign id.
    timers: EventQueue<usize>,
    crash: CrashPlan,
    watchdog: WatchdogConfig,
    /// Max stage executions per vantage per round (`None` = unlimited).
    rate_limit: Option<usize>,
    /// Scheduler rounds elapsed (the watchdog's clock).
    round: u64,
    /// Checkpoints written across all campaigns.
    checkpoint_seq: u64,
}

impl<D: StageDriver> Orchestrator<D> {
    /// Schedule fresh campaigns, all starting at `Identify`.
    pub fn new(drivers: Vec<D>) -> Orchestrator<D> {
        Orchestrator::with_stages(
            drivers
                .into_iter()
                .map(|d| (d, StageState::Identify))
                .collect(),
        )
    }

    /// Schedule campaigns at explicit stages — the resume entry point.
    pub fn with_stages(drivers: Vec<(D, StageState)>) -> Orchestrator<D> {
        let watchdog = WatchdogConfig::default();
        let slots = drivers
            .into_iter()
            .map(|(driver, stage)| Slot {
                status: if stage == StageState::Done {
                    CampaignStatus::Done
                } else {
                    CampaignStatus::Running
                },
                driver,
                stage,
                parked: false,
                breaker: CircuitBreaker::new(breaker_config(&watchdog)),
                checkpoints: Vec::new(),
            })
            .collect();
        Orchestrator {
            slots,
            timers: EventQueue::new(),
            crash: CrashPlan::none(),
            watchdog,
            rate_limit: None,
            round: 0,
            checkpoint_seq: 0,
        }
    }

    /// Builder-style: arm a crash plan.
    pub fn with_crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash = plan;
        self
    }

    /// Builder-style: tune the watchdog stall budget.
    pub fn with_watchdog(mut self, config: WatchdogConfig) -> Self {
        self.watchdog = config;
        for slot in &mut self.slots {
            slot.breaker = CircuitBreaker::new(breaker_config(&config));
        }
        self
    }

    /// Builder-style: cap stage executions per vantage per round.
    /// Limits only *defer* work to later rounds — they never touch a
    /// campaign's world clock, so verdict tables are unaffected.
    pub fn with_rate_limit(mut self, per_vantage_per_round: usize) -> Self {
        self.rate_limit = Some(per_vantage_per_round.max(1));
        self
    }

    /// Checkpoint lines written for campaign `id`, in write order.
    pub fn checkpoints(&self, id: usize) -> &[String] {
        &self.slots[id].checkpoints
    }

    /// Every campaign's current status, in id order.
    pub fn statuses(&self) -> Vec<CampaignStatus> {
        self.slots.iter().map(|s| s.status.clone()).collect()
    }

    /// Tear down into `(driver, status)` pairs, in id order.
    pub fn into_drivers(self) -> Vec<(D, CampaignStatus)> {
        self.slots
            .into_iter()
            .map(|s| (s.driver, s.status))
            .collect()
    }

    /// Drive every campaign to `Done` (or quarantine), or stop at the
    /// crash plan's checkpoint.
    pub fn run(&mut self) -> Outcome {
        // Every campaign's current boundary is durable before any
        // stage executes — a crash before the first transition must
        // still be resumable.
        for id in 0..self.slots.len() {
            if self.slots[id].status == CampaignStatus::Running
                && self.slots[id].checkpoints.is_empty()
            {
                if let Some(outcome) = self.write_checkpoint(id) {
                    return outcome;
                }
            }
        }
        loop {
            if self.settled() {
                return Outcome::Complete;
            }
            self.round += 1;
            let mut executed = false;
            let mut vantage_used: BTreeMap<String, usize> = BTreeMap::new();
            for id in 0..self.slots.len() {
                if self.slots[id].status != CampaignStatus::Running {
                    continue;
                }
                let stage = self.slots[id].stage.clone();
                match stage {
                    StageState::Wait { deadline_secs, .. } => {
                        if !self.slots[id].parked {
                            self.timers.schedule(SimTime::from_secs(deadline_secs), id);
                            self.slots[id].parked = true;
                        }
                        continue;
                    }
                    StageState::Done => {
                        self.slots[id].status = CampaignStatus::Done;
                        continue;
                    }
                    _ => {}
                }
                if let Some(limit) = self.rate_limit {
                    if let Some(vantage) = self.slots[id].driver.stage_vantage(&stage) {
                        let used = vantage_used.entry(vantage).or_insert(0);
                        if *used >= limit {
                            // Deferred to a later round; the campaign's
                            // own clock does not move.
                            continue;
                        }
                        *used += 1;
                    }
                }
                executed = true;
                match self.slots[id].driver.execute(&stage) {
                    StepOutcome::Complete => {
                        self.slots[id].breaker.record_success();
                        let next = self.next_stage(id, &stage);
                        self.slots[id].stage = next;
                        if let Some(outcome) = self.write_checkpoint(id) {
                            return outcome;
                        }
                        if self.slots[id].stage == StageState::Done {
                            self.slots[id].status = CampaignStatus::Done;
                        }
                    }
                    StepOutcome::Stalled => {
                        // The watchdog's clock is the round counter —
                        // stalls are a scheduling phenomenon, not a
                        // virtual-time one.
                        let now = SimTime::from_secs(self.round);
                        self.slots[id].breaker.record_failure(now);
                        if self.slots[id].breaker.state() == BreakerState::Open {
                            self.slots[id].status = CampaignStatus::Quarantined {
                                stage: stage.to_line(),
                            };
                        }
                    }
                }
            }
            if !executed {
                // Nothing executable: wake the earliest deadline(s).
                if let Some(outcome) = self.fire_timers() {
                    return outcome;
                }
            }
        }
    }

    /// Fire the earliest parked deadline(s), advancing the woken
    /// campaigns' clocks. Returns a crash outcome if a checkpoint
    /// tripped the plan.
    fn fire_timers(&mut self) -> Option<Outcome> {
        let deadline = self.timers.next_deadline()?;
        for id in self.timers.pop_due(deadline) {
            // A quarantined campaign may still have a timer in flight;
            // its wake is dropped.
            if self.slots[id].status != CampaignStatus::Running {
                continue;
            }
            let stage = self.slots[id].stage.clone();
            if let StageState::Wait {
                case,
                deadline_secs,
            } = stage
            {
                self.slots[id].driver.advance_to_secs(deadline_secs);
                self.slots[id].driver.on_timer_fire(case, deadline_secs);
                self.slots[id].parked = false;
                self.slots[id].stage = StageState::Retest { case };
                if let Some(outcome) = self.write_checkpoint(id) {
                    return Some(outcome);
                }
            }
        }
        None
    }

    /// The stage after `completed` for campaign `id`.
    fn next_stage(&mut self, id: usize, completed: &StageState) -> StageState {
        let cases = self.slots[id].driver.case_count();
        match *completed {
            StageState::Identify => {
                if cases > 0 {
                    StageState::Baseline { case: 0 }
                } else {
                    StageState::Characterize
                }
            }
            StageState::Baseline { case } => StageState::Submit { case },
            StageState::Submit { case } => {
                let deadline_secs = self.slots[id].driver.wait_deadline_secs(case);
                StageState::Wait {
                    case,
                    deadline_secs,
                }
            }
            StageState::Wait { case, .. } => StageState::Retest { case },
            StageState::Retest { case } => {
                if case + 1 < cases {
                    StageState::Baseline { case: case + 1 }
                } else {
                    StageState::Characterize
                }
            }
            StageState::Characterize | StageState::Done => StageState::Done,
        }
    }

    /// Write campaign `id`'s current boundary as a checkpoint line.
    /// Returns the crash outcome when the plan fires on this write.
    fn write_checkpoint(&mut self, id: usize) -> Option<Outcome> {
        let slot = &mut self.slots[id];
        let ckpt = CampaignCheckpoint {
            descriptor: slot.driver.descriptor().clone(),
            stage: slot.stage.clone(),
            clock_secs: slot.driver.now_secs(),
            cases: (0..slot.driver.completed_cases())
                .map(|i| slot.driver.case_checkpoint(i))
                .collect(),
        };
        slot.checkpoints.push(ckpt.to_line());
        slot.driver.on_checkpoint(&ckpt.stage);
        let step = self.checkpoint_seq;
        self.checkpoint_seq += 1;
        if self.crash.crash_after == Some(step) {
            return Some(Outcome::Crashed {
                at_checkpoint: step,
            });
        }
        None
    }

    fn settled(&self) -> bool {
        self.slots
            .iter()
            .all(|s| s.status != CampaignStatus::Running)
    }
}

fn breaker_config(watchdog: &WatchdogConfig) -> BreakerConfig {
    BreakerConfig {
        failure_threshold: watchdog.stall_budget,
        // The watchdog never lets a quarantined campaign half-open:
        // the cooldown outlives any plausible run.
        cooldown_secs: u64::MAX / 2,
    }
}
