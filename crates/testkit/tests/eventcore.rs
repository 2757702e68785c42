//! The old-vs-new differential battery for the netsim event kernel.
//!
//! The discrete-event core replaced the direct-call fetch path as the
//! machinery every flow runs through; the old path survives only as
//! [`FetchPath::DirectReference`], the oracle this battery compares
//! against. For every seed, both paths must produce **byte-identical**
//! campaign tables, flow logs, and trace forests — agreement on
//! verdicts alone would still let the kernel reorder or drop interior
//! observations.
//!
//! The sweep honours `FILTERWATCH_SEEDS` (comma-separated) so CI can
//! widen the battery without a code change.

use filterwatch_core::identify::IdentifyPipeline;
use filterwatch_core::Campaign;
use filterwatch_netsim::FetchPath;
use filterwatch_testkit::differential::check_direct_vs_event;
use filterwatch_testkit::runner::sweep_stage;
use filterwatch_testkit::{
    build_world, deployment_name, minimize, plan_for_seed, run_campaign, seeds_from_env, FaultPlan,
};
use filterwatch_trace::{build_forest, render_forest, TraceMode};
use filterwatch_urllists::TestList;

const BATTERY: &[u64] = &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9];

/// The ten-seed battery: generated campaigns through the event core and
/// the direct oracle, every observation surface byte-compared, failures
/// shrunk to the minimal plan still reproducing them.
#[test]
fn ten_seed_battery_is_byte_identical_across_paths() {
    for seed in seeds_from_env(BATTERY) {
        let plan = plan_for_seed(seed);
        if let Err(detail) = check_direct_vs_event(&plan) {
            let (min, min_detail) = minimize(&plan, &|p| check_direct_vs_event(p));
            panic!(
                "seed {seed}: {detail}\nminimal scenario: {}\nminimal detail: {min_detail}",
                min.summary()
            );
        }
    }
}

fn demo_surfaces(path: FetchPath) -> (String, String) {
    let mut campaign = Campaign::demo(0).with_trace(TraceMode::Full);
    campaign.options.fetch_path = path;
    let report = campaign.run();
    let forest = render_forest(&build_forest(&report.trace));
    (report.to_markdown(), forest)
}

/// The paper-scale demo campaign — identify, the Table 3 case studies,
/// Table 4 characterization, full telemetry and causal trace — through
/// both paths. `to_markdown` carries every table plus the stable
/// telemetry rendering, so this is the whole paper surface at once.
#[test]
fn paper_demo_campaign_is_fetch_path_invariant() {
    let (event_md, event_forest) = demo_surfaces(FetchPath::Event);
    let (direct_md, direct_forest) = demo_surfaces(FetchPath::DirectReference);
    assert_eq!(
        event_md, direct_md,
        "demo campaign report diverged across fetch paths"
    );
    assert_eq!(
        event_forest, direct_forest,
        "demo campaign trace forest diverged across fetch paths"
    );
}

/// Metamorphic invariant: at equal timestamps, the order flows are
/// *inserted* into the event queue must never leak into any outcome or
/// any later campaign table. Clean plans only — fault sampling and
/// flapping draw from order-sensitive RNG streams by design, so only
/// the zero-probability world makes the invariant exact.
#[test]
fn equal_timestamp_insertion_order_never_changes_campaign_tables() {
    for seed in [0u64, 2, 5] {
        let mut plan = plan_for_seed(seed);
        plan.fault = FaultPlan::Clean;
        for d in &mut plan.deployments {
            d.flapping = None;
        }
        let urls: Vec<filterwatch_http::Url> = TestList::global(plan.urls_per_category)
            .urls
            .iter()
            .map(|t| filterwatch_http::Url::parse(&t.url).expect("list URL"))
            .collect();

        // Open every flow at the same virtual instant, in `order`; then
        // run the identify and sweep stages on the world that prologue
        // just exercised.
        let run_in_order = |order: &[usize]| -> (Vec<String>, String, Vec<String>) {
            let world = build_world(&plan);
            let field = world.field(&deployment_name(0, &plan.deployments[0]));
            let mut flows = vec![None; urls.len()];
            for &i in order {
                flows[i] = Some(world.net.start_fetch(field, &urls[i]));
            }
            world.net.run_to_quiescence();
            assert_eq!(world.net.pending_events(), 0);
            let outcomes = flows
                .iter()
                .map(|f| format!("{:?}", world.net.take_outcome(f.expect("flow opened"))))
                .collect();
            assert_eq!(world.net.flows_in_flight(), 0);
            let identify = IdentifyPipeline::new().run(&world.net);
            (
                outcomes,
                identify.render_installations(),
                sweep_stage(&plan, &world),
            )
        };

        let n = urls.len();
        let identity: Vec<usize> = (0..n).collect();
        let reversed: Vec<usize> = (0..n).rev().collect();
        let interleaved: Vec<usize> = (0..n).step_by(2).chain((1..n).step_by(2)).collect();
        let reference = run_in_order(&identity);
        assert_eq!(
            reference,
            run_in_order(&reversed),
            "seed {seed}: reversed insertion order changed results"
        );
        assert_eq!(
            reference,
            run_in_order(&interleaved),
            "seed {seed}: interleaved insertion order changed results"
        );
    }
}

fn scale_campaign(host_scale: usize) {
    let mut plan = plan_for_seed(1);
    plan.host_scale = host_scale;
    let report = run_campaign(&plan);
    assert_eq!(report.cases.len(), plan.deployments.len());
    assert!(
        !report.identify_table.is_empty() && !report.list_lines.is_empty(),
        "scaled campaign produced empty tables"
    );
    // The scaled world is a strict superset: the campaign's verdict
    // surface must be byte-identical to the unscaled world's.
    let mut base = plan.clone();
    base.host_scale = 0;
    assert_eq!(
        report.comparable_text(),
        run_campaign(&base).comparable_text(),
        "host_scale changed campaign verdicts"
    );
}

/// Tier-1 rung: a 10⁴-host world completes a campaign through the
/// event core without perturbing a single verdict.
#[test]
fn scale_smoke_ten_thousand_host_campaign() {
    scale_campaign(10_000);
}

/// The full 10⁵-host / multi-thousand-AS rung. Too heavy for the debug
/// tier-1 sweep; CI runs it in release alongside the bench gate
/// (`cargo test -p filterwatch-testkit --release --test eventcore -- --ignored`).
#[test]
#[ignore = "release-profile scale rung; run explicitly with -- --ignored"]
fn scale_smoke_hundred_thousand_host_campaign() {
    let mut plan = plan_for_seed(1);
    plan.host_scale = 100_000;
    let world = build_world(&plan);
    assert!(
        world.net.host_count() >= 100_000,
        "{}",
        world.net.host_count()
    );
    // One /24 per 32 scale hosts: a multi-thousand-AS topology.
    assert!(
        world.net.registry().prefixes().len() >= 3_000,
        "only {} prefixes",
        world.net.registry().prefixes().len()
    );
    drop(world);
    scale_campaign(100_000);
}
