//! `paper-campaign`: the paper's standard campaign, stage by stage.
//!
//! A unit is `Campaign::standard(seed)` driven through `CampaignRun`'s
//! stage methods — identify, then per Table 3 case baseline → submit →
//! wait → retest, then characterize every confirmed ISP — followed by
//! `finish` and `to_markdown`. This is exactly `Campaign::run`'s
//! composition, with the world built (`CampaignRun::begin`) outside the
//! unit so that set-up is timed on its own.

use filterwatch_core::campaign::{Campaign, CampaignReport, CampaignRun};
use filterwatch_core::WorldOptions;
use filterwatch_netsim::FetchPath;

use crate::bench::{UnitReport, Workload};
use crate::layers::{stage, Counts};
use crate::trace::Tracer;

/// The seeds the repository pins the paper's counts on. The workload
/// seed picks one of them, so every run measures a world that
/// reproduces the paper.
pub const SEED_MATRIX: [u64; 5] = [1, 3, 5, 7, 11];

/// Table 3 invariants pinned on every seed of [`SEED_MATRIX`].
const CASES: usize = 10;
const CONFIRMED: usize = 7;
const CHARACTERIZED: usize = 6;

/// The verdict tables a unit is checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tables {
    /// `CampaignReport::identify_table`.
    pub identify: String,
    /// `CampaignReport::confirm_table`.
    pub confirm: String,
}

impl Tables {
    /// The tables of a finished campaign.
    pub fn of(report: &CampaignReport) -> Tables {
        Tables {
            identify: report.identify_table(),
            confirm: report.confirm_table(),
        }
    }
}

/// The `paper-campaign` workload.
pub struct PaperCampaign {
    world_seed: u64,
    reference: Tables,
}

impl PaperCampaign {
    /// The workload for a benchmark seed: the world seed is
    /// `SEED_MATRIX[seed % 5]`, and the reference tables come from one
    /// campaign over the direct-call fetch path, the netsim differential
    /// oracle.
    pub fn new(seed: u64) -> PaperCampaign {
        let world_seed = SEED_MATRIX[(seed % SEED_MATRIX.len() as u64) as usize];
        let oracle = Campaign {
            options: WorldOptions {
                seed: world_seed,
                fetch_path: FetchPath::DirectReference,
                ..WorldOptions::default()
            },
            ..Campaign::standard(world_seed)
        };
        PaperCampaign::with_reference(world_seed, Tables::of(&oracle.run()))
    }

    /// The workload over `world_seed`, checked against `reference`.
    pub fn with_reference(world_seed: u64, reference: Tables) -> PaperCampaign {
        PaperCampaign {
            world_seed,
            reference,
        }
    }

    /// The world seed the campaign runs under.
    pub fn world_seed(&self) -> u64 {
        self.world_seed
    }
}

impl Workload for PaperCampaign {
    type Prepared = CampaignRun;
    type Output = (CampaignReport, String);

    fn prepare(&self, _traced: bool) -> CampaignRun {
        CampaignRun::begin(Campaign::standard(self.world_seed))
    }

    fn run(&self, mut run: CampaignRun, tr: &mut Tracer) -> (CampaignReport, String) {
        let telemetry = run.telemetry().clone();
        stage(tr, &telemetry, "identify", || run.identify());
        for case in 0..run.case_count() {
            stage(tr, &telemetry, "confirm.baseline", || run.baseline(case));
            stage(tr, &telemetry, "confirm.submit", || run.submit());
            let deadline = run.announce_wait();
            run.advance_to(deadline);
            stage(tr, &telemetry, "confirm.retest", || run.retest());
        }
        stage(tr, &telemetry, "characterize", || {
            run.characterize_confirmed()
        });
        tr.span("report.render", || {
            let report = run.finish();
            let markdown = report.to_markdown();
            (report, markdown)
        })
    }

    fn inspect(&self, (report, markdown): (CampaignReport, String)) -> UnitReport {
        let pinned = report.confirmations.len() == CASES
            && report.confirmed_count() == CONFIRMED
            && report.characterizations.len() == CHARACTERIZED;
        let ok = pinned
            && Tables::of(&report) == self.reference
            && markdown.starts_with("# filterwatch campaign report")
            && markdown.contains("## Confirmation case studies");
        let mut counts = Counts::default();
        counts.absorb_snapshot(&report.telemetry);
        counts.quality = report.quality;
        counts.installations = report.identification.installations.len() as u64;
        counts.candidates = report.identification.candidates.values().sum::<usize>() as u64;
        UnitReport {
            ok,
            work: vec![
                ("index_records", report.identification.index_records as u64),
                ("installations", counts.installations),
                ("scan_probes", counts.scan_probes),
                ("fetch_calls", counts.fetch_calls),
                ("classify_calls", counts.classify_calls),
                ("verdicts", counts.quality.verdicts),
            ],
            vdays: report.finished_at_day as f64,
            counts,
        }
    }
}
