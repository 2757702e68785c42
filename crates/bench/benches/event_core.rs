//! The discrete-event kernel under load.
//!
//! Four rungs price the event core against the direct-call oracle it
//! replaced, and against world size. The single-flow pair compares one
//! facade fetch through each path on the same small generated world —
//! the per-flow cost of scheduling DNS/fault/hop/origin/response as
//! queue events instead of straight-line calls. The batch rung opens
//! 1024 flows at one virtual instant and drains to quiescence. The
//! 100k-host rung runs the same batch on a 10⁵-host, multi-thousand-AS
//! world (built once, outside the timed loop): event dispatch rides on
//! BTree lookups keyed by address and hostname, so per-flow cost must
//! stay flat as the world grows — that flatness is what this rung
//! gates.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use filterwatch_core::World;
use filterwatch_http::Url;
use filterwatch_netsim::FetchPath;
use filterwatch_netsim::VantageId;
use filterwatch_testkit::{build_world, deployment_name, plan_for_seed, FaultPlan, ScenarioPlan};
use filterwatch_urllists::TestList;

const BATCH: usize = 1024;

/// The benched plan: seed 1's generated world, calmed down (no faults,
/// no flapping) so every rung times machinery, not fault-path luck.
fn scale_plan(host_scale: usize) -> ScenarioPlan {
    let mut plan = plan_for_seed(1);
    plan.fault = FaultPlan::Clean;
    for d in &mut plan.deployments {
        d.flapping = None;
    }
    plan.host_scale = host_scale;
    plan
}

/// The plan's world, its global-list URLs, and the first deployment's
/// field vantage every rung fetches from.
fn world_and_urls(host_scale: usize) -> (World, Vec<Url>, VantageId) {
    let plan = scale_plan(host_scale);
    let world = build_world(&plan);
    let vp = world.field(&deployment_name(0, &plan.deployments[0]));
    let urls = TestList::global(plan.urls_per_category)
        .urls
        .iter()
        .map(|t| Url::parse(&t.url).expect("list URL"))
        .collect();
    (world, urls, vp)
}

/// Open `BATCH` flows at one virtual instant, drain the queue, collect
/// every outcome. Returns the completed-flow count (always `BATCH`).
fn run_batch(world: &World, vp: VantageId, urls: &[Url]) -> usize {
    let flows: Vec<_> = (0..BATCH)
        .map(|i| world.net.start_fetch(vp, &urls[i % urls.len()]))
        .collect();
    world.net.run_to_quiescence();
    flows
        .into_iter()
        .filter(|&f| world.net.take_outcome(f).is_some())
        .count()
}

fn bench_event_core(c: &mut Criterion) {
    let (small, urls, vp) = world_and_urls(0);

    small.net.set_fetch_path(FetchPath::Event);
    c.bench_function("netsim/event-core-single-flow", |b| {
        b.iter(|| black_box(small.net.fetch(vp, &urls[0])))
    });

    small.net.set_fetch_path(FetchPath::DirectReference);
    c.bench_function("netsim/direct-single-flow", |b| {
        b.iter(|| black_box(small.net.fetch(vp, &urls[0])))
    });

    small.net.set_fetch_path(FetchPath::Event);
    c.bench_function("netsim/event-core-batch-1k", |b| {
        b.iter(|| assert_eq!(run_batch(&small, vp, &urls), BATCH))
    });

    // World build (~10⁵ hosts across ~3k ASes) happens once, untimed;
    // the rung times event-core flows riding on the big world's tables.
    let (big, big_urls, big_vp) = world_and_urls(100_000);
    c.bench_function("netsim/event-core-100k-hosts", |b| {
        b.iter(|| assert_eq!(run_batch(&big, big_vp, &big_urls), BATCH))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5));
    targets = bench_event_core
}
criterion_main!(benches);
