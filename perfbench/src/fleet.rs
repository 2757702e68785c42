//! `chaos-fleet`: four chaos demo campaigns under one orchestrator.
//!
//! A unit is one `Orchestrator` running four `Campaign::demo`
//! campaigns concurrently, each built with the chaos resilience config
//! (retries, breaker, 3-trial quorum) and 20% field faults, writing a
//! checkpoint line at every stage transition; then every campaign is
//! finished into its report. The chaos invariant is that each
//! campaign's identify and confirm tables are byte-equal to the clean
//! demo campaign at the same seed.
//!
//! The campaign descriptor's chaos flag arms resilience but injects no
//! faults, so the benchmark schedules its own [`FleetDriver`]: a
//! `StageDriver` over `CampaignRun` that maps stages to the same stage
//! methods `PaperDriver` calls, built from a campaign with field faults.
//! The driver is also where the benchmark times each stage, so that the
//! scheduler's own time is the orchestrator span minus the driver's.

use std::time::Instant;

use filterwatch_core::campaign::{Campaign, CampaignReport, CampaignRun};
use filterwatch_measure::ResilienceConfig;
use filterwatch_netsim::FaultProfile;
use filterwatch_orchestrator::{
    CampaignDescriptor, CampaignKind, CampaignStatus, CaseCkpt, Orchestrator, Outcome, StageDriver,
    StageState, StepOutcome,
};
use filterwatch_telemetry::{stage as tstage, SpanId as TelemetrySpan};

use crate::bench::{UnitReport, Workload};
use crate::layers::{Counts, ProgramClock};
use crate::paper::Tables;
use crate::trace::Tracer;

/// Campaigns in the fleet.
pub const CAMPAIGNS: u64 = 4;

/// Share of field fetches the injected fault profile disturbs.
pub const FAULT_RATE: f64 = 0.2;

/// One driver call the benchmark timed.
struct Timing {
    name: &'static str,
    start: Instant,
    end: Instant,
    before: ProgramClock,
    after: ProgramClock,
    /// Time spent reading the program clock around the call: tracing
    /// cost inside the orchestrator span, kept out of its self time.
    bookkeeping_ns: u64,
}

/// A `StageDriver` over one chaos demo campaign.
pub struct FleetDriver {
    descriptor: CampaignDescriptor,
    run: CampaignRun,
    wait_span: TelemetrySpan,
    traced: bool,
    timings: Vec<Timing>,
}

impl FleetDriver {
    fn new(seed: u64, traced: bool) -> FleetDriver {
        let faults = FaultProfile::chaotic(FAULT_RATE).expect("FAULT_RATE is a probability");
        let campaign = Campaign::demo(seed)
            .with_resilience(ResilienceConfig::chaos())
            .with_field_faults(faults);
        FleetDriver {
            descriptor: CampaignDescriptor::new(CampaignKind::Demo, seed).with_chaos(),
            run: CampaignRun::begin(campaign),
            wait_span: TelemetrySpan::NONE,
            traced,
            timings: Vec::new(),
        }
    }

    /// Run `f` on the campaign, timing it as `name` when traced.
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut CampaignRun) -> T) -> T {
        if !self.traced {
            return f(&mut self.run);
        }
        let read_before = Instant::now();
        let before = ProgramClock::read(self.run.telemetry());
        let start = Instant::now();
        let out = f(&mut self.run);
        let end = Instant::now();
        let after = ProgramClock::read(self.run.telemetry());
        let bookkeeping = (start - read_before) + end.elapsed();
        self.timings.push(Timing {
            name,
            start,
            end,
            before,
            after,
            bookkeeping_ns: bookkeeping.as_nanos() as u64,
        });
        out
    }
}

impl StageDriver for FleetDriver {
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
            StageState::Identify => self.timed("identify", |run| run.identify()),
            StageState::Baseline { case } => {
                self.timed("confirm.baseline", |run| run.baseline(case))
            }
            StageState::Submit { .. } => self.timed("confirm.submit", |run| run.submit()),
            StageState::Retest { .. } => self.timed("confirm.retest", |run| run.retest()),
            StageState::Characterize => {
                self.timed("characterize", |run| run.characterize_confirmed())
            }
            StageState::Wait { .. } | StageState::Done => {}
        }
        StepOutcome::Complete
    }

    fn wait_deadline_secs(&mut self, case: usize) -> u64 {
        let deadline = self.run.announce_wait();
        self.wait_span = self.run.telemetry().span_start(
            tstage::SCHED_WAIT,
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
    }

    fn on_timer_fire(&mut self, _case: usize, _deadline_secs: u64) {
        let now = self.run.now_secs();
        self.run.telemetry().span_end(self.wait_span, now);
        self.wait_span = TelemetrySpan::NONE;
    }
}

/// What one fleet unit produced.
pub struct FleetOutput {
    outcome: Outcome,
    reports: Vec<(CampaignReport, CampaignStatus)>,
    checkpoint_lines: u64,
    checkpoint_bytes: u64,
}

/// The `chaos-fleet` workload.
pub struct ChaosFleet {
    seeds: Vec<u64>,
    reference: Vec<Tables>,
}

impl ChaosFleet {
    /// The fleet for a benchmark seed: campaigns at seeds `4·seed + k`,
    /// each checked against the clean demo campaign at its seed.
    pub fn new(seed: u64) -> ChaosFleet {
        let seeds: Vec<u64> = (0..CAMPAIGNS)
            .map(|k| seed.wrapping_mul(CAMPAIGNS).wrapping_add(k))
            .collect();
        let reference = seeds
            .iter()
            .map(|&s| Tables::of(&Campaign::demo(s).run()))
            .collect();
        ChaosFleet { seeds, reference }
    }

    /// The campaigns' world seeds.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }
}

impl Workload for ChaosFleet {
    type Prepared = Vec<FleetDriver>;
    type Output = FleetOutput;

    fn prepare(&self, traced: bool) -> Vec<FleetDriver> {
        self.seeds
            .iter()
            .map(|&s| FleetDriver::new(s, traced))
            .collect()
    }

    fn run(&self, drivers: Vec<FleetDriver>, tr: &mut Tracer) -> FleetOutput {
        let span = tr.open("orchestrator");
        let mut orch = Orchestrator::new(drivers);
        let outcome = orch.run();
        tr.close(span);

        let lines = (0..self.seeds.len()).flat_map(|i| orch.checkpoints(i));
        let checkpoint_lines = lines.clone().count() as u64;
        let checkpoint_bytes = lines.map(|l| l.len() as u64).sum();
        let mut drivers = orch.into_drivers();
        for (driver, _) in &mut drivers {
            for t in driver.timings.drain(..) {
                let id = tr.record(span, t.name, t.start, t.end);
                t.before.record_since(&t.after, tr, id);
                tr.measured(span, "trace.bookkeeping", t.bookkeeping_ns);
            }
        }
        let reports = tr.span("report.render", || {
            drivers
                .into_iter()
                .map(|(driver, status)| (driver.run.finish(), status))
                .collect()
        });
        FleetOutput {
            outcome,
            reports,
            checkpoint_lines,
            checkpoint_bytes,
        }
    }

    fn inspect(&self, out: FleetOutput) -> UnitReport {
        let mut ok = out.outcome == Outcome::Complete;
        let mut counts = Counts {
            checkpoint_lines: out.checkpoint_lines,
            checkpoint_bytes: out.checkpoint_bytes,
            ..Counts::default()
        };
        let mut vdays = 0.0f64;
        for ((report, status), reference) in out.reports.iter().zip(&self.reference) {
            ok &= *status == CampaignStatus::Done && Tables::of(report) == *reference;
            counts.absorb_snapshot(&report.telemetry);
            counts.quality.absorb(&report.quality);
            counts.installations += report.identification.installations.len() as u64;
            counts.candidates += report.identification.candidates.values().sum::<usize>() as u64;
            vdays = vdays.max(report.finished_at_day as f64);
        }
        ok &= out.reports.len() == self.reference.len();
        UnitReport {
            ok,
            work: vec![
                ("fetch_calls", counts.fetch_calls),
                ("classify_calls", counts.classify_calls),
                ("fetch_attempts", counts.quality.fetch_attempts),
                ("retries", counts.quality.retries),
                ("quorum_trials", counts.quality.quorum_trials),
                ("checkpoint_lines", counts.checkpoint_lines),
                ("checkpoint_bytes", counts.checkpoint_bytes),
            ],
            vdays,
            counts,
        }
    }
}
