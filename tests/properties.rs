//! Cross-seed property tests over the whole pipeline: the invariants of
//! the methodology that must hold for *every* world, not just the pinned
//! default seed.

use filterwatch_core::confirm::{run_case_study, table3_specs};
use filterwatch_core::identify::IdentifyPipeline;
use filterwatch_core::probes::run_denypagetests;
use filterwatch_core::{World, WorldOptions};
use filterwatch_products::ProductKind;
use proptest::prelude::*;

proptest! {
    // World construction and full-pipeline runs are expensive; keep the
    // case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The deterministic Table 3 rows hold at any seed: SmartFilter rows
    /// always confirm 5/5, Blue Coat and Qatar-SmartFilter rows always
    /// fail 0/N. (The Netsweeper rows vary with per-domain review draws
    /// and are pinned separately for the default seed.)
    #[test]
    fn seed_independent_table3_rows(seed in any::<u64>()) {
        let mut world = World::paper(seed);
        let specs = table3_specs();
        for idx in [0usize, 2] {
            let r = run_case_study(&mut world, &specs[idx]);
            prop_assert_eq!(r.submitted_blocked, 0, "{}", specs[idx].label);
            prop_assert!(!r.confirmed);
        }
        for idx in [3usize, 6] {
            let r = run_case_study(&mut world, &specs[idx]);
            prop_assert_eq!(r.submitted_blocked, 5, "{}", specs[idx].label);
            prop_assert_eq!(r.holdout_blocked, 0, "{}", specs[idx].label);
            prop_assert!(r.confirmed);
        }
    }

    /// Identification finds all four products at full visibility and
    /// nothing with hidden consoles, at any seed.
    #[test]
    fn seed_independent_identification(seed in any::<u64>()) {
        let visible = World::paper(seed);
        let report = IdentifyPipeline::new().run(&visible.net);
        for product in ProductKind::ALL {
            prop_assert!(
                report.installations.iter().any(|i| i.product == product),
                "{product} missing at seed {seed}"
            );
        }
        let hidden = World::build(WorldOptions {
            seed,
            hidden_consoles: true,
            ..WorldOptions::default()
        });
        prop_assert_eq!(IdentifyPipeline::new().run(&hidden.net).installations.len(), 0);
    }

    /// The YemenNet deny-page category set is a configuration fact, not
    /// a draw: exactly the paper's five categories at any seed (given
    /// enough repetitions to ride out license flicker).
    #[test]
    fn seed_independent_denypagetests(seed in any::<u64>()) {
        let world = World::paper(seed);
        let result = run_denypagetests(&world, "yemennet", 8);
        prop_assert_eq!(result.blocked.len(), 5, "{:?}", result.blocked);
        let names = result.blocked_names();
        for expected in ["Adult Images", "Pornography", "Phishing", "Proxy Anonymizer", "Search Keywords"] {
            prop_assert!(names.contains(&expected), "{names:?}");
        }
    }

    /// Two builds of the same seed produce byte-identical scan dumps.
    #[test]
    fn world_build_is_reproducible(seed in any::<u64>()) {
        use filterwatch_scanner::ScanEngine;
        let a = ScanEngine::new().with_threads(2).scan(&World::paper(seed).net).to_dump();
        let b = ScanEngine::new().with_threads(4).scan(&World::paper(seed).net).to_dump();
        prop_assert_eq!(a, b);
    }
}

/// The per-address sweep, the differential reference for the scanner's
/// host walk: every address of every allocated prefix, every probe,
/// through `Internet::probe`, with metadata from the registry's
/// per-address lookups.
mod per_address {
    use filterwatch_http::{Request, Response, Url};
    use filterwatch_netsim::{Internet, IpAddr};
    use filterwatch_scanner::engine::DEFAULT_PROBES;
    use filterwatch_scanner::{CensusRecord, ScanIndex, ScanRecord};

    fn sweep(net: &Internet, mut visit: impl FnMut(IpAddr, u16, &str, Response)) {
        for &(cidr, _) in net.registry().prefixes() {
            for ip in cidr.iter() {
                for &(port, path) in DEFAULT_PROBES {
                    let url = Url::http_at(&ip.to_string(), port, path);
                    let Some(resp) = net.probe(ip, port, &Request::get(url)).into_response() else {
                        continue;
                    };
                    if resp.status.code() != 404 {
                        visit(ip, port, path, resp);
                    }
                }
            }
        }
    }

    fn snippet(resp: &Response) -> String {
        resp.body_text().chars().take(400).collect()
    }

    pub fn scan(net: &Internet) -> ScanIndex {
        let mut records = Vec::new();
        sweep(net, |ip, port, path, resp| {
            records.push(ScanRecord {
                ip,
                port,
                path: path.to_string(),
                banner: resp.banner(),
                body_snippet: snippet(&resp),
                hostnames: net
                    .host(ip)
                    .map(|h| h.hostnames.clone())
                    .unwrap_or_default(),
                country: net.registry().country_of(ip).map(|c| c.to_string()),
                asn: net.registry().asn_of(ip).map(|a| a.0),
                captured_at: net.now(),
            })
        });
        records.sort_by(|a, b| (a.ip, a.port, &a.path).cmp(&(b.ip, b.port, &b.path)));
        ScanIndex::build(records)
    }

    pub fn census(net: &Internet) -> Vec<CensusRecord> {
        let mut out = Vec::new();
        sweep(net, |ip, port, path, resp| {
            out.push(CensusRecord {
                ip,
                port,
                path: path.to_string(),
                banner: resp.banner(),
                body_snippet: snippet(&resp),
            })
        });
        out.sort_by(|a, b| (a.ip, a.port, &a.path).cmp(&(b.ip, b.port, &b.path)));
        out
    }
}

/// Assert the host walk and the per-address reference agree on `net`,
/// for both the indexed scan and the raw census sweep.
fn assert_sweeps_match_per_address(net: &filterwatch_netsim::Internet, what: &str) {
    use filterwatch_scanner::{CensusSweep, ScanEngine};
    let expected = per_address::scan(net).to_dump();
    for threads in [1, 4] {
        let got = ScanEngine::new().with_threads(threads).scan(net).to_dump();
        assert!(
            got == expected,
            "{what}: scan dump differs ({threads} threads)"
        );
    }
    assert_eq!(
        CensusSweep::new().run(net),
        per_address::census(net),
        "{what}: census records differ"
    );
}

#[test]
fn host_walk_matches_per_address_sweep_on_paper_worlds() {
    for seed in [1, 3, 5, 7, 11] {
        assert_sweeps_match_per_address(&World::paper(seed).net, &format!("paper seed {seed}"));
    }
}

#[test]
fn host_walk_matches_per_address_sweep_on_synthetic_world() {
    assert_sweeps_match_per_address(&World::synthetic(2, 64).net, "synthetic(2, 64)");
}

/// Edge cases the host walk must not change: a host whose only service
/// answers 404, a host bound only on a port no probe asks for, and a
/// host in a network whose prefix the registry never allocated (which
/// the address-space sweep cannot reach).
#[test]
fn host_walk_matches_per_address_sweep_on_edge_hosts() {
    use filterwatch_http::{Request, Response, Status};
    use filterwatch_netsim::service::StaticSite;
    use filterwatch_netsim::{Cidr, Internet, NetworkSpec, ServiceCtx};
    use filterwatch_scanner::ScanEngine;

    let mut net = Internet::new(9);
    net.registry_mut().register_country("QA", "Qatar", "qa");
    let asn = net.registry_mut().register_as(42298, "OOREDOO", "QA");
    let prefix = net.registry_mut().allocate_prefix(asn, 2).unwrap();
    let isp = net.add_network(NetworkSpec::new("ooredoo", asn, "QA").with_cidr(prefix));
    let unallocated: Cidr = "10.9.0.0/24".parse().unwrap();
    let dark = net.add_network(NetworkSpec::new("dark", asn, "QA").with_cidr(unallocated));

    let host = |net: &mut Internet, network, name: &str| {
        let ip = net.alloc_ip(network).unwrap();
        net.add_host(ip, network, &[name]);
        ip
    };
    let portal = host(&mut net, isp, "www.ooredoo.qa");
    net.add_service(
        portal,
        80,
        Box::new(StaticSite::new("Ooredoo", "<p>portal</p>")),
    );
    net.add_service(
        portal,
        8080,
        Box::new(StaticSite::new("Admin", "<p>login</p>")),
    );
    let not_found = host(&mut net, isp, "deny.ooredoo.qa");
    net.add_service(
        not_found,
        8080,
        Box::new(|_: &Request, _: &ServiceCtx| Response::text(Status::NOT_FOUND, "no")),
    );
    let off_probe = host(&mut net, isp, "tls.ooredoo.qa");
    net.add_service(off_probe, 443, Box::new(StaticSite::new("TLS only", "")));
    let hidden = host(&mut net, dark, "gw.dark.qa");
    net.add_service(hidden, 80, Box::new(StaticSite::new("Netsweeper", "")));

    assert_sweeps_match_per_address(&net, "edge hosts");
    let index = ScanEngine::new().scan(&net);
    let ips: Vec<_> = index.records().iter().map(|r| r.ip).collect();
    assert!(ips.contains(&portal));
    for unseen in [not_found, off_probe, hidden] {
        assert!(!ips.contains(&unseen), "{unseen} should not be indexed");
    }
}
