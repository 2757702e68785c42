//! The driver abstraction the scheduler executes.
//!
//! A [`StageDriver`] owns one campaign's world and knows how to execute
//! each [`StageState`]; the orchestrator owns the transitions, the
//! timer queue and the checkpoints. [`PaperDriver`] adapts the core
//! crate's [`CampaignRun`] — the one driver type for paper campaigns
//! and, through [`PaperDriver::from_run`], for campaigns on worlds
//! built elsewhere (the testkit's generated worlds). Decorators add
//! behaviour around it as [`StageHook`]s on one [`Decorated`] driver:
//! [`StallingDriver`] injects deterministic stalls so the watchdog path
//! is testable without a genuinely wedged vantage.

use filterwatch_core::campaign::{Campaign, CampaignReport, CampaignRun};
use filterwatch_telemetry::SpanId;
use filterwatch_trace::StepKind;

use crate::checkpoint::CaseCkpt;
use crate::stage::{CampaignDescriptor, CampaignKind, StageState};

/// What one stage execution did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The stage ran to completion; transition to the next boundary.
    Complete,
    /// The stage made no progress this round (a wedged vantage, a hung
    /// submission channel). The watchdog counts these against the
    /// campaign's stall budget.
    Stalled,
}

/// One campaign's executable surface, as the scheduler sees it.
pub trait StageDriver {
    /// The descriptor a checkpoint carries to rebuild this campaign.
    fn descriptor(&self) -> &CampaignDescriptor;

    /// Number of confirmation case studies the campaign runs.
    fn case_count(&self) -> usize;

    /// Completed case studies so far.
    fn completed_cases(&self) -> usize;

    /// The campaign's virtual clock, in seconds.
    fn now_secs(&self) -> u64;

    /// Execute one stage. `Wait` and `Done` are never passed here —
    /// the scheduler services waits from its timer queue.
    fn execute(&mut self, stage: &StageState) -> StepOutcome;

    /// Announce the wait after `case`'s submission and return the
    /// absolute virtual-clock deadline (seconds) to park until.
    fn wait_deadline_secs(&mut self, case: usize) -> u64;

    /// Advance the campaign's virtual clock to an absolute deadline.
    fn advance_to_secs(&mut self, deadline_secs: u64);

    /// The durable summary of a completed case study.
    fn case_checkpoint(&self, case: usize) -> CaseCkpt;

    /// The vantage a stage measures through, for per-vantage rate
    /// limits (`None` = not vantage-bound).
    fn stage_vantage(&self, stage: &StageState) -> Option<String>;

    /// Observer hook: a checkpoint was just written at `stage`.
    fn on_checkpoint(&mut self, _stage: &StageState) {}

    /// Observer hook: the campaign was restored from a checkpoint and
    /// will continue from `stage`.
    fn on_resume(&mut self, _stage: &StageState) {}

    /// Observer hook: the timer queue fired `case`'s wait deadline.
    fn on_timer_fire(&mut self, _case: usize, _deadline_secs: u64) {}
}

/// [`StageDriver`] over the core crate's [`CampaignRun`]: every stage
/// maps onto one `CampaignRun` method.
pub struct PaperDriver {
    descriptor: CampaignDescriptor,
    run: CampaignRun,
    wait_span: SpanId,
}

impl PaperDriver {
    /// Rebuild the descriptor's paper campaign and begin it. Fails on
    /// [`CampaignKind::Generated`] — the testkit owns the world
    /// generator those descriptors name, and drives them through
    /// [`PaperDriver::from_run`].
    pub fn new(descriptor: CampaignDescriptor) -> Result<PaperDriver, String> {
        let campaign = match descriptor.kind {
            CampaignKind::Standard => Campaign::standard(descriptor.seed),
            CampaignKind::Demo => Campaign::demo(descriptor.seed),
            CampaignKind::Generated => {
                return Err("generated campaigns run on testkit-built worlds: use \
                     filterwatch-testkit's run_generated_campaign / resume_generated_campaign"
                    .to_string())
            }
        };
        let run = CampaignRun::begin(descriptor.configure(campaign));
        Ok(PaperDriver::from_run(descriptor, run))
    }

    /// Drive an already-begun campaign; `descriptor` must rebuild it,
    /// since checkpoints carry nothing else.
    pub fn from_run(descriptor: CampaignDescriptor, run: CampaignRun) -> PaperDriver {
        PaperDriver {
            descriptor,
            run,
            wait_span: SpanId::NONE,
        }
    }

    /// Finish the campaign and assemble its report. Call only once the
    /// orchestrator has driven the campaign to `Done`.
    pub fn into_report(self) -> CampaignReport {
        self.run.finish()
    }

    /// The underlying stepwise campaign (for assertions in tests).
    pub fn run(&self) -> &CampaignRun {
        &self.run
    }
}

impl StageDriver for PaperDriver {
    fn descriptor(&self) -> &CampaignDescriptor {
        &self.descriptor
    }

    fn case_count(&self) -> usize {
        self.run.case_count()
    }

    fn completed_cases(&self) -> usize {
        self.run.confirmations().len()
    }

    fn now_secs(&self) -> u64 {
        self.run.now_secs()
    }

    fn execute(&mut self, stage: &StageState) -> StepOutcome {
        match *stage {
            StageState::Identify => self.run.identify(),
            StageState::Baseline { case } => self.run.baseline(case),
            StageState::Submit { .. } => self.run.submit(),
            StageState::Retest { .. } => self.run.retest(),
            StageState::Characterize => self.run.characterize_confirmed(),
            // The scheduler never executes these; nothing to do.
            StageState::Wait { .. } | StageState::Done => {}
        }
        StepOutcome::Complete
    }

    fn wait_deadline_secs(&mut self, case: usize) -> u64 {
        let deadline = self.run.announce_wait();
        self.wait_span = self.run.telemetry().span_start(
            filterwatch_telemetry::stage::SCHED_WAIT,
            &format!("case {case}"),
            self.run.now_secs(),
        );
        deadline
    }

    fn advance_to_secs(&mut self, deadline_secs: u64) {
        self.run.advance_to(deadline_secs);
    }

    fn case_checkpoint(&self, case: usize) -> CaseCkpt {
        CaseCkpt::from_result(case, &self.run.confirmations()[case])
    }

    fn stage_vantage(&self, stage: &StageState) -> Option<String> {
        stage.case().map(|c| self.run.case_isp(c).to_string())
    }

    fn on_checkpoint(&mut self, stage: &StageState) {
        let now = self.run.now_secs();
        self.run
            .telemetry()
            .event(now, "sched.checkpoint", &[("stage", &stage.to_line())]);
        let tracer = self.run.tracer().clone();
        if tracer.recording() {
            tracer.point(StepKind::Checkpoint, now, &[("stage", &stage.to_line())]);
        }
    }

    fn on_resume(&mut self, stage: &StageState) {
        let now = self.run.now_secs();
        self.run
            .telemetry()
            .event(now, "sched.resume", &[("stage", &stage.to_line())]);
        let tracer = self.run.tracer().clone();
        if tracer.is_enabled() {
            // Opened and deliberately left open: the enclosing scope
            // (case or campaign) closes it when it ends, so every
            // verdict rendered after the restore carries this span in
            // its ancestry — `explain` shows the resume.
            tracer.open(
                StepKind::Resume,
                now,
                &[("stage", &stage.to_line()), ("clock", &now.to_string())],
            );
        }
    }

    fn on_timer_fire(&mut self, case: usize, deadline_secs: u64) {
        let now = self.run.now_secs();
        let tracer = self.run.tracer().clone();
        if tracer.recording() {
            tracer.point(
                StepKind::SchedTimer,
                now,
                &[
                    ("case", &case.to_string()),
                    ("deadline", &deadline_secs.to_string()),
                ],
            );
        }
        self.run.telemetry().span_end(self.wait_span, now);
        self.wait_span = SpanId::NONE;
    }
}

/// Deterministic stall injection: which stage wedges, and for how many
/// scheduler polls. Mirrors the `FaultProfile` style — a plan is data,
/// validated up front, applied by a wrapper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallPlan {
    /// Stage at which to stall; matched on the boundary, ignoring any
    /// `Wait` deadline payload.
    pub stage: StageState,
    /// How many polls report [`StepOutcome::Stalled`] before the stage
    /// completes normally; `u64::MAX` wedges forever.
    pub stalls: u64,
}

impl StallPlan {
    /// Stall `stalls` polls at the given stage, then recover.
    pub fn at_stage(stage: StageState, stalls: u64) -> StallPlan {
        StallPlan { stage, stalls }
    }

    /// Wedge forever at the given stage (the watchdog must quarantine).
    pub fn forever(stage: StageState) -> StallPlan {
        StallPlan::at_stage(stage, u64::MAX)
    }
}

/// What a [`Decorated`] driver does at each stage: run the inner
/// driver's stage, hold it back, or add work around it.
pub trait StageHook<D> {
    /// Execute `stage`, on `inner` or not.
    fn execute(&mut self, inner: &mut D, stage: &StageState) -> StepOutcome;
}

/// A [`StageDriver`] decorator: stage execution goes through `hook`,
/// everything else is `inner`'s.
pub struct Decorated<D, H> {
    /// The decorated driver.
    pub inner: D,
    /// The behaviour added at each stage.
    pub hook: H,
}

/// The [`StageHook`] injecting a [`StallPlan`]'s stalls.
pub struct Stalls {
    plan: StallPlan,
    stalled: u64,
}

impl<D: StageDriver> StageHook<D> for Stalls {
    fn execute(&mut self, inner: &mut D, stage: &StageState) -> StepOutcome {
        if self.plan.stage.same_boundary(stage) && self.stalled < self.plan.stalls {
            self.stalled += 1;
            return StepOutcome::Stalled;
        }
        inner.execute(stage)
    }
}

/// A driver that injects the stalls a [`StallPlan`] prescribes.
pub type StallingDriver<D> = Decorated<D, Stalls>;

impl<D> StallingDriver<D> {
    /// Wrap `inner` with the plan's stalls.
    pub fn new(inner: D, plan: StallPlan) -> StallingDriver<D> {
        let hook = Stalls { plan, stalled: 0 };
        Decorated { inner, hook }
    }
}

impl<D: StageDriver, H: StageHook<D>> StageDriver for Decorated<D, H> {
    fn descriptor(&self) -> &CampaignDescriptor {
        self.inner.descriptor()
    }

    fn case_count(&self) -> usize {
        self.inner.case_count()
    }

    fn completed_cases(&self) -> usize {
        self.inner.completed_cases()
    }

    fn now_secs(&self) -> u64 {
        self.inner.now_secs()
    }

    fn execute(&mut self, stage: &StageState) -> StepOutcome {
        self.hook.execute(&mut self.inner, stage)
    }

    fn wait_deadline_secs(&mut self, case: usize) -> u64 {
        self.inner.wait_deadline_secs(case)
    }

    fn advance_to_secs(&mut self, deadline_secs: u64) {
        self.inner.advance_to_secs(deadline_secs)
    }

    fn case_checkpoint(&self, case: usize) -> CaseCkpt {
        self.inner.case_checkpoint(case)
    }

    fn stage_vantage(&self, stage: &StageState) -> Option<String> {
        self.inner.stage_vantage(stage)
    }

    fn on_checkpoint(&mut self, stage: &StageState) {
        self.inner.on_checkpoint(stage)
    }

    fn on_resume(&mut self, stage: &StageState) {
        self.inner.on_resume(stage)
    }

    fn on_timer_fire(&mut self, case: usize, deadline_secs: u64) {
        self.inner.on_timer_fire(case, deadline_secs)
    }
}
