//! The banner-grab crawler.

use filterwatch_http::{Request, Response, Url};
use filterwatch_netsim::internet::Host;
use filterwatch_netsim::{Asn, Internet};

use crate::index::ScanIndex;
use crate::merge::{default_workers, ordered_flatten};
use crate::record::ScanRecord;

/// Probe targets: `(port, path)` pairs the crawler requests on every
/// address. Port 8080's `/webadmin/` is probed because crawlers record
/// well-known management-console paths (and Table 2's `8080/webadmin/`
/// keyword needs them in the index).
pub const DEFAULT_PROBES: &[(u16, &str)] =
    &[(80, "/"), (8080, "/"), (8080, "/webadmin/"), (15871, "/")];

/// How many characters of body a record keeps as its snippet.
const SNIPPET_LEN: usize = 400;

/// Hosts each worker must get before a default engine splits the sweep
/// (probing runs at about 5 µs a host, so a share is ~10 ms of work).
const MIN_HOSTS_PER_WORKER: usize = 2048;

/// A parallel scan engine over the simulated address space.
pub struct ScanEngine {
    probes: Vec<(u16, String)>,
    /// Pinned worker count; `None` sizes the sweep by its host count.
    threads: Option<usize>,
}

impl Default for ScanEngine {
    fn default() -> Self {
        ScanEngine::new()
    }
}

impl ScanEngine {
    /// An engine with the default probe set and parallelism: up to the
    /// host's cores, but one worker per `MIN_HOSTS_PER_WORKER` hosts,
    /// so small worlds are swept on the calling thread.
    pub fn new() -> Self {
        ScanEngine {
            probes: DEFAULT_PROBES
                .iter()
                .map(|&(port, path)| (port, path.to_string()))
                .collect(),
            threads: None,
        }
    }

    /// Override the probe set.
    pub fn with_probes(mut self, probes: &[(u16, &str)]) -> Self {
        self.probes = probes
            .iter()
            .map(|&(port, path)| (port, path.to_string()))
            .collect();
        self
    }

    /// Use exactly `n` scanning threads (1 = sequential).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Scan every allocated prefix of the simulated Internet and build
    /// the index. Country/ASN metadata comes from the registry ground
    /// truth (as Shodan's geolocation feed would supply).
    ///
    /// `scan.probes` counts the modelled crawler's probes (every
    /// allocated address times the probe set), not the simulator's
    /// work, which only visits bound hosts.
    pub fn scan(&self, net: &Internet) -> ScanIndex {
        let telemetry = net.telemetry().clone();
        let span = telemetry.span_start(
            filterwatch_telemetry::stage::SCAN,
            "address-space sweep",
            net.now().secs(),
        );
        let addresses: u64 = net
            .registry()
            .prefixes()
            .iter()
            .map(|(cidr, _)| cidr.size())
            .sum();
        telemetry.event(
            net.now().secs(),
            "scan.start",
            &[("ips", &addresses.to_string())],
        );

        let registry = net.registry();
        let mut records = sweep_hosts(
            net,
            &self.probes,
            self.threads,
            |host, asn, port, path, resp| ScanRecord {
                ip: host.ip,
                port,
                path: path.to_string(),
                banner: resp.banner(),
                body_snippet: snippet(&resp),
                hostnames: host.hostnames.clone(),
                country: registry.as_record(asn).map(|rec| rec.country.to_string()),
                asn: Some(asn.0),
                captured_at: net.now(),
            },
        );
        if addresses > 0 {
            telemetry.counter_add("scan.probes", "", addresses * self.probes.len() as u64);
            telemetry.counter_add("scan.banners", "", records.len() as u64);
        }
        for r in &records {
            telemetry.observe("scan.banner_bytes", "", r.body_snippet.len() as f64);
        }
        records.sort_by(|a, b| (a.ip, a.port, &a.path).cmp(&(b.ip, b.port, &b.path)));
        telemetry.event(
            net.now().secs(),
            "scan.done",
            &[("records", &records.len().to_string())],
        );
        telemetry.span_end(span, net.now().secs());
        ScanIndex::build(records)
    }
}

/// The leading [`SNIPPET_LEN`] characters of a response body.
pub(crate) fn snippet(resp: &Response) -> String {
    resp.body_text().chars().take(SNIPPET_LEN).collect()
}

/// Probe every host inside the allocated prefixes with `probes` and
/// hand each indexable answer to `visit` as `(host, asn, port, path,
/// response)`, where `asn` owns the prefix the host sits in. Returns
/// the visits in (prefix, address, probe) order. More than one worker
/// (`threads`, or [`default_workers`] over the host count when `None`)
/// splits the hosts into contiguous chunks, one per worker.
///
/// Only bound hosts are probed. [`Internet::probe`] is a pure lookup
/// (no RNG, clock, flow log or trace), so an address without a host
/// can only answer `ConnectFailed`; walking [`Internet::hosts_in`]
/// instead of every address therefore changes no output, and the cost
/// follows the hosts, not the size of the address space. Prefixes come
/// from a monotone allocator and never overlap, so each host is seen
/// once; a host outside every allocated prefix is never probed.
pub(crate) fn sweep_hosts<T: Send>(
    net: &Internet,
    probes: &[(u16, String)],
    threads: Option<usize>,
    visit: impl Fn(&Host, Asn, u16, &str, Response) -> T + Sync,
) -> Vec<T> {
    let targets: Vec<(&Host, Asn)> = net
        .registry()
        .prefixes()
        .iter()
        .flat_map(|&(cidr, asn)| net.hosts_in(cidr).map(move |host| (host, asn)))
        .collect();
    let probe_all = |slice: &[(&Host, Asn)]| {
        let mut out = Vec::new();
        for &(host, asn) in slice {
            for (port, path) in probes {
                let url = Url::http_at(&host.ip.to_string(), *port, path);
                let Some(resp) = net
                    .probe(host.ip, *port, &Request::get(url))
                    .into_response()
                else {
                    continue;
                };
                // Crawlers index live endpoints, not error paths: a 404
                // on a probed path leaves no record (this is what keeps
                // a deny-only console invisible, §6.1).
                if resp.status.code() == 404 {
                    continue;
                }
                out.push(visit(host, asn, *port, path, resp));
            }
        }
        out
    };
    let threads = threads.unwrap_or_else(|| default_workers(targets.len(), MIN_HOSTS_PER_WORKER));
    if threads <= 1 || targets.len() < 2 {
        return probe_all(&targets);
    }
    let probe_all = &probe_all;
    let chunk = targets.len().div_ceil(threads);
    let joined = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .chunks(chunk)
            .map(|slice| scope.spawn(move |_| probe_all(slice)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join())
            .collect::<Result<Vec<_>, _>>()
    });
    match joined {
        // Ordered merge: chunks are contiguous runs of the ordered host
        // list, so chunk-order concatenation equals the serial sweep.
        Ok(Ok(groups)) => ordered_flatten(groups),
        // A worker panicked (a service handler did): surface it here.
        Ok(Err(panic)) | Err(panic) => std::panic::resume_unwind(panic),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterwatch_netsim::service::StaticSite;
    use filterwatch_netsim::NetworkSpec;
    use filterwatch_telemetry::TelemetryHandle;

    fn world() -> Internet {
        let mut net = Internet::new(11);
        net.registry_mut().register_country("QA", "Qatar", "qa");
        let asn = net.registry_mut().register_as(42298, "OOREDOO", "QA");
        let prefix = net.registry_mut().allocate_prefix(asn, 1).unwrap();
        let isp = net.add_network(NetworkSpec::new("ooredoo", asn, "QA").with_cidr(prefix));
        let ip = net.alloc_ip(isp).unwrap();
        net.add_host(ip, isp, &["gw.ooredoo.qa"]);
        net.add_service(
            ip,
            8080,
            Box::new(
                StaticSite::new("Netsweeper WebAdmin", "<p>login</p>")
                    .with_server("netsweeper/5.1"),
            ),
        );
        let web_ip = net.alloc_ip(isp).unwrap();
        net.add_host(web_ip, isp, &["www.ooredoo.qa"]);
        net.add_service(
            web_ip,
            80,
            Box::new(StaticSite::new("Ooredoo", "<p>portal</p>")),
        );
        net
    }

    #[test]
    fn scan_finds_only_bound_endpoints() {
        let net = world();
        let index = ScanEngine::new().with_threads(2).scan(&net);
        // Console answers on 8080 for both "/" and "/webadmin/", portal on 80.
        assert_eq!(index.len(), 3);
        let texts = index.corpus();
        assert!(texts.iter().any(|t| t.contains("8080/webadmin/")));
        assert!(texts.iter().any(|t| t.contains("ooredoo")));
    }

    #[test]
    fn records_carry_geo_metadata() {
        let net = world();
        let index = ScanEngine::new().with_threads(1).scan(&net);
        for r in index.records() {
            assert_eq!(r.country.as_deref(), Some("QA"));
            assert_eq!(r.asn, Some(42298));
        }
    }

    #[test]
    fn sequential_and_parallel_scans_agree() {
        let net = world();
        let a = ScanEngine::new().with_threads(1).scan(&net);
        let b = ScanEngine::new().with_threads(4).scan(&net);
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn custom_probe_set() {
        let net = world();
        let index = ScanEngine::new().with_probes(&[(80, "/")]).scan(&net);
        assert_eq!(index.len(), 1);
        assert_eq!(index.records()[0].port, 80);
    }

    /// `prefixes` allocated /24s with no hosts in them, telemetry on.
    fn hostless_world(prefixes: usize) -> Internet {
        let mut net = Internet::new(11);
        net.set_telemetry(TelemetryHandle::enabled());
        net.registry_mut().register_country("QA", "Qatar", "qa");
        let asn = net.registry_mut().register_as(42298, "OOREDOO", "QA");
        for _ in 0..prefixes {
            net.registry_mut().allocate_prefix(asn, 1).unwrap();
        }
        net
    }

    #[test]
    fn hostless_prefix_still_counts_modelled_probes() {
        let net = hostless_world(1);
        let index = ScanEngine::new().with_threads(4).scan(&net);
        assert!(index.is_empty());
        let snap = net.telemetry().snapshot();
        assert_eq!(snap.counters_named("scan.probes"), vec![("", 256 * 4)]);
        assert_eq!(snap.counters_named("scan.banners"), vec![("", 0)]);
        let start = snap.events.iter().find(|e| e.kind == "scan.start").unwrap();
        assert_eq!(start.fields, vec![("ips".to_string(), "256".to_string())]);
    }

    #[test]
    fn no_prefixes_records_no_counters() {
        let net = hostless_world(0);
        assert!(ScanEngine::new().scan(&net).is_empty());
        let snap = net.telemetry().snapshot();
        assert!(snap.counters_named("scan.probes").is_empty());
        assert!(snap.counters_named("scan.banners").is_empty());
    }
}
