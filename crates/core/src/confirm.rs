//! Stage 2: confirming censorship via vendor submission channels
//! (§4, Table 3).
//!
//! "The basic idea is to test sites (under our control) that are not
//! blocked within the ISP, and then submit a subset of these sites to
//! the appropriate URL filter vendor. After 3-5 days, we retest the
//! sites and observe whether or not the submitted sites are blocked."

use filterwatch_measure::{MeasurementClient, MeasurementQuality, UrlVerdict};
use filterwatch_products::{ProductKind, SubmitterProfile};

use crate::report::TextTable;
use crate::world::{ControlledSite, SiteKind, World};

/// Parameters of one case study (one Table 3 row).
#[derive(Debug, Clone)]
pub struct CaseStudySpec {
    /// Row label.
    pub label: String,
    /// The vendor whose submission channel is exercised.
    pub product: ProductKind,
    /// Network name of the ISP under test (must have a field vantage).
    pub isp: String,
    /// Date label for the report (metadata only).
    pub date: String,
    /// Content hosted on the controlled sites.
    pub site_kind: SiteKind,
    /// Number of controlled sites created.
    pub n_sites: usize,
    /// How many of them are submitted.
    pub n_submit: usize,
    /// Category label for the report row.
    pub category_label: String,
    /// Verify accessibility before submitting. For Netsweeper this must
    /// be `false`: accessing the sites queues them for categorization
    /// (§4.4), so the paper submits first and "operates on the
    /// assumption that none of our sites will be blocked prior".
    pub pre_verify: bool,
    /// Days to wait before the retest (the paper's 3–5).
    pub wait_days: u64,
    /// Retest repetitions per site; >1 for ISPs with inconsistent
    /// blocking (§4.4 Challenge 2) — a site counts as blocked if any
    /// run blocks it.
    pub retest_runs: usize,
    /// How the submission presents to the vendor (§6.2).
    pub submitter: SubmitterProfile,
}

/// The outcome of one case study.
#[derive(Debug, Clone)]
pub struct CaseStudyResult {
    /// The spec that produced this result.
    pub spec: CaseStudySpec,
    /// Of the created sites, how many were accessible before submission
    /// (`None` when pre-verification was skipped).
    pub accessible_before: Option<usize>,
    /// Submissions the vendor channel acknowledged as accepted.
    pub submissions_accepted: usize,
    /// Submitted sites found blocked at retest.
    pub submitted_blocked: usize,
    /// Held-out (unsubmitted) sites found blocked at retest.
    pub holdout_blocked: usize,
    /// Block-page product attributions seen at retest (deduplicated).
    pub attributed_products: Vec<String>,
    /// Retest verdicts the machinery declined to render (quorum
    /// disagreement or breaker skips); zero on clean paths.
    pub retest_inconclusive: usize,
    /// Measurement-quality counters the case study's client accumulated
    /// (retries, breaker trips, quorum trials).
    pub quality: MeasurementQuality,
    /// One retest verdict per site, submitted sites first, in creation
    /// order: the run that blocked the site, else the last run.
    pub retest_verdicts: Vec<UrlVerdict>,
    /// The §4.2 verdict: is the product confirmed to be used for
    /// censorship in this ISP?
    pub confirmed: bool,
}

impl CaseStudyResult {
    /// `"5/10"`-style created/submitted counts for the report.
    pub fn submitted_of_created(&self) -> String {
        format!("{}/{}", self.spec.n_submit, self.spec.n_sites)
    }

    /// `"5/5"`-style blocked/submitted counts for the report.
    pub fn blocked_of_submitted(&self) -> String {
        format!("{}/{}", self.submitted_blocked, self.spec.n_submit)
    }
}

/// A case study paused between stage boundaries.
///
/// [`begin_case`] produces one; [`submit_case`], [`announce_wait`] and
/// [`retest_case`] carry it through the submit → wait → retest
/// protocol. [`run_case_study`] is the thin linear composition; the
/// orchestrator drives the same functions with the wait serviced by a
/// timer queue instead of an inline clock advance, and a checkpoint
/// written at every boundary.
pub struct CaseInProgress {
    /// The spec being executed.
    pub spec: CaseStudySpec,
    sites: Vec<ControlledSite>,
    client: MeasurementClient,
    accessible_before: Option<usize>,
    submissions_accepted: usize,
    case_scope: filterwatch_trace::ScopeId,
    submit_span: filterwatch_telemetry::SpanId,
    submit_scope: filterwatch_trace::ScopeId,
}

/// Baseline stage: open the case's telemetry/trace scopes, create the
/// controlled sites, and (unless the vendor ordering forbids it)
/// pre-verify their accessibility from the in-country vantage.
pub fn begin_case(world: &mut World, spec: &CaseStudySpec) -> CaseInProgress {
    assert!(
        spec.n_submit <= spec.n_sites,
        "cannot submit more than created"
    );
    let telemetry = world.net.telemetry().clone();
    let tracer = world.net.tracer().clone();
    let case_scope = if tracer.is_enabled() {
        tracer.open(
            filterwatch_trace::StepKind::Case,
            world.net.now().secs(),
            &[
                ("case", &spec.label.to_lowercase().replace([' ', '/'], "-")),
                ("isp", &spec.isp),
                ("product", spec.product.slug()),
            ],
        )
    } else {
        filterwatch_trace::ScopeId::NONE
    };
    let submit_span = telemetry.span_start(
        filterwatch_telemetry::stage::CONFIRM_SUBMIT,
        &spec.label,
        world.net.now().secs(),
    );
    let submit_scope = if tracer.is_enabled() {
        tracer.open(
            filterwatch_trace::StepKind::Stage,
            world.net.now().secs(),
            &[("name", "confirm.submit")],
        )
    } else {
        filterwatch_trace::ScopeId::NONE
    };
    let sites = world.create_controlled_sites(spec.site_kind, spec.n_sites);
    let client = world.client(&spec.isp);

    // Pre-verification (or the Netsweeper ordering: submit first).
    let accessible_before = if spec.pre_verify {
        let accessible = sites
            .iter()
            .filter(|s| {
                client
                    .test_url(&world.net, &s.test_url())
                    .verdict
                    .is_accessible()
            })
            .count();
        Some(accessible)
    } else {
        None
    };

    CaseInProgress {
        spec: spec.clone(),
        sites,
        client,
        accessible_before,
        submissions_accepted: 0,
        case_scope,
        submit_span,
        submit_scope,
    }
}

/// Submit stage: hand the first `n_submit` sites to the vendor channel,
/// perform the in-country accesses the submit-first ordering requires,
/// and close the submit span.
pub fn submit_case(world: &mut World, case: &mut CaseInProgress) {
    let spec = &case.spec;
    let telemetry = world.net.telemetry().clone();
    let tracer = world.net.tracer().clone();

    // Submit the first n_submit sites to the vendor.
    let cloud = world.cloud(spec.product).clone();
    let now = world.net.now();
    let mut submissions_accepted = 0;
    for site in &case.sites[..spec.n_submit] {
        let receipt = cloud.submit(&site.submit_url(), spec.submitter, now);
        if tracer.recording() {
            tracer.point(
                filterwatch_trace::StepKind::Submit,
                world.net.now().secs(),
                &[
                    ("url", &site.submit_url().to_string()),
                    ("accepted", if receipt.accepted { "yes" } else { "no" }),
                ],
            );
        }
        if receipt.accepted {
            submissions_accepted += 1;
        }
    }

    // For the submit-first ordering, the paper still *accesses* all the
    // domains in-country (which is what queues them at Netsweeper).
    if !spec.pre_verify {
        for site in &case.sites {
            let _ = case.client.test_url(&world.net, &site.test_url());
        }
    }

    // Submissions accepted by the vendor now sit in its review queue
    // until the retest observes the outcome.
    telemetry.counter_add(
        "confirm.submissions",
        spec.product.slug(),
        submissions_accepted as u64,
    );
    telemetry.gauge_set(
        "confirm.queue_depth",
        spec.product.slug(),
        submissions_accepted as i64,
    );
    tracer.close(case.submit_scope, world.net.now().secs(), &[]);
    telemetry.span_end(case.submit_span, world.net.now().secs());
    case.submissions_accepted = submissions_accepted;
}

/// Wait stage, announce half: record the wait in the trace and return
/// the absolute virtual-clock deadline (in seconds) at which the retest
/// may begin. The caller owns the clock advance — inline for the linear
/// driver, a timer-queue wakeup for the orchestrator — so both reach
/// the deadline by the same arithmetic.
pub fn announce_wait(world: &World, case: &CaseInProgress) -> u64 {
    let tracer = world.net.tracer().clone();
    if tracer.recording() {
        tracer.point(
            filterwatch_trace::StepKind::Wait,
            world.net.now().secs(),
            &[("days", &case.spec.wait_days.to_string())],
        );
    }
    world.net.now().plus_days(case.spec.wait_days).secs()
}

/// Retest stage: re-fetch every site from the in-country vantage,
/// render the §4.2 verdict, and close the case's scopes.
pub fn retest_case(world: &mut World, case: CaseInProgress) -> CaseStudyResult {
    let CaseInProgress {
        spec,
        sites,
        client,
        accessible_before,
        submissions_accepted,
        case_scope,
        submit_span: _,
        submit_scope: _,
    } = case;
    let telemetry = world.net.telemetry().clone();
    let tracer = world.net.tracer().clone();
    let retest_span = telemetry.span_start(
        filterwatch_telemetry::stage::CONFIRM_RETEST,
        &spec.label,
        world.net.now().secs(),
    );
    let retest_scope = if tracer.is_enabled() {
        tracer.open(
            filterwatch_trace::StepKind::Stage,
            world.net.now().secs(),
            &[("name", "confirm.retest")],
        )
    } else {
        filterwatch_trace::ScopeId::NONE
    };
    // Retest: a site is blocked if any retest run blocks it.
    let mut retest_verdicts: Vec<UrlVerdict> = Vec::with_capacity(sites.len());
    let mut attributed: Vec<String> = Vec::new();
    let mut retest_inconclusive = 0;
    for run in 0..spec.retest_runs.max(1) {
        for (i, site) in sites.iter().enumerate() {
            let v = client.test_url(&world.net, &site.test_url());
            if v.verdict.is_blocked() {
                if let Some(p) = v.verdict.blocked_by() {
                    if !attributed.contains(&p.to_string()) {
                        attributed.push(p.to_string());
                    }
                }
            } else if v.verdict.is_inconclusive() {
                retest_inconclusive += 1;
            }
            if run == 0 {
                retest_verdicts.push(v);
            } else if !retest_verdicts[i].verdict.is_blocked() {
                retest_verdicts[i] = v;
            }
        }
    }
    let blocked = |vs: &[UrlVerdict]| vs.iter().filter(|v| v.verdict.is_blocked()).count();
    let submitted_blocked = blocked(&retest_verdicts[..spec.n_submit]);
    let holdout_blocked = blocked(&retest_verdicts[spec.n_submit..]);

    // Ethics note (§4.6): the simulated adult-image sites only ever host
    // placeholder markers, and the test URL is the benign object, so
    // there is nothing to take down; domains are never reused (the forge
    // remembers every mint).

    let confirmed = submitted_majority(submitted_blocked, spec.n_submit);

    telemetry.gauge_set("confirm.queue_depth", spec.product.slug(), 0);
    telemetry.event(
        world.net.now().secs(),
        "confirm.verdict",
        &[
            ("case", &spec.label.to_lowercase().replace([' ', '/'], "-")),
            ("blocked", &submitted_blocked.to_string()),
            ("submitted", &spec.n_submit.to_string()),
            ("confirmed", if confirmed { "yes" } else { "no" }),
        ],
    );
    tracer.close(retest_scope, world.net.now().secs(), &[]);
    if tracer.recording() {
        tracer.point(
            filterwatch_trace::StepKind::Verdict,
            world.net.now().secs(),
            &[
                (
                    "verdict",
                    if confirmed {
                        "confirmed"
                    } else {
                        "unconfirmed"
                    },
                ),
                ("blocked", &submitted_blocked.to_string()),
                ("submitted", &spec.n_submit.to_string()),
            ],
        );
    }
    tracer.close(
        case_scope,
        world.net.now().secs(),
        &[("confirmed", if confirmed { "yes" } else { "no" })],
    );
    telemetry.span_end(retest_span, world.net.now().secs());

    CaseStudyResult {
        spec,
        accessible_before,
        submissions_accepted,
        submitted_blocked,
        holdout_blocked,
        attributed_products: attributed,
        retest_inconclusive,
        quality: client.quality(),
        retest_verdicts,
        confirmed,
    }
}

/// The §4.2 confirmation rule: the majority of the submitted sites
/// became blocked.
pub fn submitted_majority(submitted_blocked: usize, n_submit: usize) -> bool {
    submitted_blocked * 2 > n_submit
}

/// Run one case study against the world, advancing its virtual clock:
/// the thin linear composition of the stage functions.
pub fn run_case_study(world: &mut World, spec: &CaseStudySpec) -> CaseStudyResult {
    let mut case = begin_case(world, spec);
    submit_case(world, &mut case);
    let _deadline = announce_wait(world, &case);
    world.net.advance_days(spec.wait_days);
    retest_case(world, case)
}

/// The ten case studies of Table 3, in row order.
pub fn table3_specs() -> Vec<CaseStudySpec> {
    let covert = SubmitterProfile::COVERT;
    vec![
        CaseStudySpec {
            label: "Blue Coat / UAE / Etisalat".into(),
            product: ProductKind::BlueCoat,
            isp: "etisalat".into(),
            date: "4/2013".into(),
            site_kind: SiteKind::ProxyService,
            n_sites: 6,
            n_submit: 3,
            category_label: "Proxy Avoidance".into(),
            pre_verify: true,
            wait_days: 5,
            retest_runs: 1,
            submitter: covert,
        },
        CaseStudySpec {
            label: "Blue Coat / Qatar / Ooredoo".into(),
            product: ProductKind::BlueCoat,
            isp: "ooredoo".into(),
            date: "4/2013".into(),
            site_kind: SiteKind::ProxyService,
            n_sites: 6,
            n_submit: 3,
            category_label: "Proxy Avoidance".into(),
            pre_verify: true,
            wait_days: 5,
            retest_runs: 1,
            submitter: covert,
        },
        CaseStudySpec {
            label: "McAfee SmartFilter / Qatar / Ooredoo".into(),
            product: ProductKind::SmartFilter,
            isp: "ooredoo".into(),
            date: "4/2013".into(),
            site_kind: SiteKind::AdultImages,
            n_sites: 10,
            n_submit: 5,
            category_label: "Pornography".into(),
            pre_verify: true,
            wait_days: 4,
            retest_runs: 1,
            submitter: covert,
        },
        CaseStudySpec {
            label: "McAfee SmartFilter / Saudi Arabia / Bayanat Al-Oula".into(),
            product: ProductKind::SmartFilter,
            isp: "bayanat".into(),
            date: "9/2012".into(),
            site_kind: SiteKind::AdultImages,
            n_sites: 10,
            n_submit: 5,
            category_label: "Pornography".into(),
            pre_verify: true,
            wait_days: 4,
            retest_runs: 1,
            submitter: covert,
        },
        CaseStudySpec {
            label: "McAfee SmartFilter / Saudi Arabia / Nournet".into(),
            product: ProductKind::SmartFilter,
            isp: "nournet".into(),
            date: "5/2013".into(),
            site_kind: SiteKind::AdultImages,
            n_sites: 10,
            n_submit: 5,
            category_label: "Pornography".into(),
            pre_verify: true,
            wait_days: 4,
            retest_runs: 1,
            submitter: covert,
        },
        CaseStudySpec {
            label: "McAfee SmartFilter / UAE / Etisalat".into(),
            product: ProductKind::SmartFilter,
            isp: "etisalat".into(),
            date: "9/2012".into(),
            site_kind: SiteKind::ProxyService,
            n_sites: 10,
            n_submit: 5,
            category_label: "Anonymizers".into(),
            pre_verify: true,
            wait_days: 4,
            retest_runs: 1,
            submitter: covert,
        },
        CaseStudySpec {
            label: "McAfee SmartFilter / UAE / Etisalat".into(),
            product: ProductKind::SmartFilter,
            isp: "etisalat".into(),
            date: "4/2013".into(),
            site_kind: SiteKind::AdultImages,
            n_sites: 10,
            n_submit: 5,
            category_label: "Pornography".into(),
            pre_verify: true,
            wait_days: 4,
            retest_runs: 1,
            submitter: covert,
        },
        CaseStudySpec {
            label: "Netsweeper / Qatar / Ooredoo".into(),
            product: ProductKind::Netsweeper,
            isp: "ooredoo".into(),
            date: "8/2013".into(),
            site_kind: SiteKind::ProxyService,
            n_sites: 12,
            n_submit: 6,
            category_label: "Proxy anonymizer".into(),
            pre_verify: false,
            wait_days: 4,
            retest_runs: 1,
            submitter: covert,
        },
        CaseStudySpec {
            label: "Netsweeper / UAE / Du".into(),
            product: ProductKind::Netsweeper,
            isp: "du".into(),
            date: "3/2013".into(),
            site_kind: SiteKind::ProxyService,
            n_sites: 12,
            n_submit: 6,
            category_label: "Proxy anonymizer".into(),
            pre_verify: false,
            wait_days: 4,
            retest_runs: 1,
            submitter: covert,
        },
        CaseStudySpec {
            label: "Netsweeper / Yemen / YemenNet".into(),
            product: ProductKind::Netsweeper,
            isp: "yemennet".into(),
            date: "3/2013".into(),
            site_kind: SiteKind::ProxyService,
            n_sites: 12,
            n_submit: 6,
            category_label: "Proxy anonymizer".into(),
            pre_verify: false,
            wait_days: 4,
            retest_runs: 3,
            submitter: covert,
        },
    ]
}

/// Run all Table 3 case studies in order on one world.
pub fn run_table3(world: &mut World) -> Vec<CaseStudyResult> {
    table3_specs()
        .iter()
        .map(|spec| run_case_study(world, spec))
        .collect()
}

/// Render case study results as the Table 3 text table.
pub fn render_table3(results: &[CaseStudyResult]) -> String {
    let mut table = TextTable::new([
        "Product",
        "ISP",
        "Date",
        "Sites submitted",
        "Category",
        "Sites blocked",
        "Confirmed?",
    ]);
    for r in results {
        let isp_desc = {
            let parts: Vec<&str> = r.spec.label.split(" / ").collect();
            parts.last().map(|s| s.to_string()).unwrap_or_default()
        };
        table.row([
            r.spec.product.name().to_string(),
            isp_desc,
            r.spec.date.clone(),
            r.submitted_of_created(),
            r.spec.category_label.clone(),
            r.blocked_of_submitted(),
            if r.confirmed {
                "yes".into()
            } else {
                "no".to_string()
            },
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use crate::DEFAULT_SEED;

    #[test]
    fn smartfilter_saudi_confirms_five_of_five() {
        let mut w = World::paper(DEFAULT_SEED);
        let spec = &table3_specs()[3]; // Bayanat Al-Oula
        let r = run_case_study(&mut w, spec);
        assert_eq!(r.accessible_before, Some(10));
        assert_eq!(r.submitted_blocked, 5, "{r:?}");
        assert_eq!(r.holdout_blocked, 0);
        assert!(r.confirmed);
        assert_eq!(r.attributed_products, vec!["smartfilter".to_string()]);
    }

    #[test]
    fn bluecoat_etisalat_not_confirmed() {
        let mut w = World::paper(DEFAULT_SEED);
        let spec = &table3_specs()[0];
        let r = run_case_study(&mut w, spec);
        assert_eq!(r.submitted_blocked, 0, "{r:?}");
        assert!(!r.confirmed);
        // The submissions were accepted by the vendor — the ISP just
        // does not filter with Blue Coat (Challenge 3).
        assert_eq!(r.submissions_accepted, 3);
    }

    #[test]
    fn netsweeper_ooredoo_confirms() {
        let mut w = World::paper(DEFAULT_SEED);
        let spec = &table3_specs()[7];
        let r = run_case_study(&mut w, spec);
        assert!(r.confirmed, "{r:?}");
        // test-a-site reviews are imperfect (per-domain draws), so the
        // standalone run asserts the confirmation verdict, not an exact
        // count; the pinned-seed full-table test checks exact counts.
        assert!(r.submitted_blocked >= 4, "{r:?}");
        assert_eq!(
            r.accessible_before, None,
            "Netsweeper skips pre-verification"
        );
    }

    #[test]
    fn full_table3_shape_matches_paper() {
        let mut w = World::paper(DEFAULT_SEED);
        let results = run_table3(&mut w);
        assert_eq!(results.len(), 10);
        // Rows 0-2 (Blue Coat ×2, SmartFilter Qatar): not confirmed.
        for r in &results[..3] {
            assert!(!r.confirmed, "{}: {r:?}", r.spec.label);
            assert_eq!(r.submitted_blocked, 0, "{}", r.spec.label);
        }
        // Rows 3-9: confirmed.
        for r in &results[3..] {
            assert!(r.confirmed, "{}: {:?}", r.spec.label, r);
        }
        // SmartFilter rows block five of five.
        for r in &results[3..7] {
            assert_eq!(r.submitted_blocked, 5, "{}", r.spec.label);
        }
        // Netsweeper rows reproduce the paper exactly with the pinned
        // default seed: 6/6 in Ooredoo, 5/6 in Du, 6/6 in YemenNet.
        let netsweeper_counts: Vec<usize> =
            results[7..].iter().map(|r| r.submitted_blocked).collect();
        assert_eq!(netsweeper_counts, vec![6, 5, 6]);
        let text = render_table3(&results);
        assert!(text.contains("Etisalat"));
        assert!(text.contains("5/10"));
    }

    #[test]
    #[should_panic(expected = "cannot submit more")]
    fn oversubmission_rejected() {
        let mut w = World::paper(1);
        let mut spec = table3_specs()[0].clone();
        spec.n_submit = spec.n_sites + 1;
        run_case_study(&mut w, &spec);
    }
}
