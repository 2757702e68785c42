//! The simulated 2012–2013 world of the paper.
//!
//! [`World::build`] constructs the full scenario the experiments run
//! against: the lab in Toronto, the vendor-side infrastructure, the
//! censoring ISPs of Table 3 (Etisalat, Du, Ooredoo, Bayanat Al-Oula,
//! Nournet, YemenNet) with their product deployments and quirks, the
//! wider set of networks Figure 1's scan uncovers (US utilities,
//! educational networks and backbone ISPs; Blue Coat installations from
//! Argentina to Taiwan), the ONI test-list origin sites, and the hosting
//! network researcher-controlled domains are stood up on.
//!
//! Everything derives from a single seed; [`WorldOptions`] toggles the
//! §6 evasion tactics for the Table 5 experiments.

use std::collections::BTreeMap;
use std::sync::Arc;

use filterwatch_http::Url;
use filterwatch_measure::{MeasurementClient, ResilienceConfig};
use filterwatch_netsim::service::{AdultImageSite, GlypeProxySite, StaticSite};
use filterwatch_netsim::{
    FaultProfile, FetchPath, Internet, IpAddr, NetworkId, NetworkSpec, VantageId,
};
use filterwatch_products::bluecoat::{
    BlueCoatProxy, CfAuthPortal, ProxySgConsole, ProxySgIntercept,
};
use filterwatch_products::license::LicensePool;
use filterwatch_products::netsweeper::{
    seed_denypagetests, DenyPageTestsSite, NetsweeperBox, NetsweeperConsole, DENYPAGETESTS_HOST,
};
use filterwatch_products::smartfilter::{SmartFilterBox, SmartFilterConsole};
use filterwatch_products::websense::{WebsenseBlockpage, BLOCKPAGE_PORT};
use filterwatch_products::{taxonomy, FilterPolicy, ProductKind, SubmissionPortal, VendorCloud};
use filterwatch_urllists::{Category, DomainForge, TestList};

/// Construction toggles (the Table 5 evasion tactics, plus sizing).
#[derive(Debug, Clone)]
pub struct WorldOptions {
    /// World seed; everything stochastic derives from it.
    pub seed: u64,
    /// §6.1 tactic 1: consoles are not reachable from the Internet.
    pub hidden_consoles: bool,
    /// §6.1 tactic 2: products remove branding from headers/pages.
    pub strip_branding: bool,
    /// §6.2 tactic: vendors disregard researcher-linkable submissions.
    pub reject_flaggable_submissions: bool,
    /// Probability that any given installation's console is externally
    /// visible (1.0 = the paper world; used by the visibility ablation).
    /// `hidden_consoles` overrides this to zero.
    pub console_visibility: f64,
    /// URLs per category on the test lists.
    pub list_urls_per_category: usize,
    /// Which netsim fetch machinery every flow runs through: the event
    /// kernel (default) or the direct-call differential oracle. Must
    /// never change a byte of any stage output.
    pub fetch_path: FetchPath,
}

impl Default for WorldOptions {
    fn default() -> Self {
        WorldOptions {
            seed: DEFAULT_SEED,
            hidden_consoles: false,
            strip_branding: false,
            reject_flaggable_submissions: false,
            console_visibility: 1.0,
            list_urls_per_category: 2,
            fetch_path: FetchPath::default(),
        }
    }
}

/// The documented default world seed. Chosen (and pinned by tests) so the
/// default world reproduces the exact Table 3 counts of the paper —
/// 5/5 on every SmartFilter row, 6/6 in Ooredoo and YemenNet, and Du's
/// 5-of-6 (one test-a-site review declined).
pub const DEFAULT_SEED: u64 = 5;

/// Kinds of researcher-controlled site content (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// A Glype-style proxy service front page.
    ProxyService,
    /// An index page referencing an adult image (plus `/benign.png`).
    AdultImages,
}

impl SiteKind {
    /// The ONI category a vendor reviewer would assign.
    pub fn category(&self) -> Category {
        match self {
            SiteKind::ProxyService => Category::AnonymizersProxies,
            SiteKind::AdultImages => Category::Pornography,
        }
    }
}

/// A researcher-controlled domain standing on the hosting network.
#[derive(Debug, Clone)]
pub struct ControlledSite {
    /// The registered domain (two random words + `.info`).
    pub domain: String,
    /// Content kind hosted.
    pub kind: SiteKind,
    /// The host address.
    pub ip: IpAddr,
}

impl ControlledSite {
    /// The URL testers fetch. For adult-image sites this is the benign
    /// object, limiting tester exposure (§4.6); blocking is
    /// hostname-granular so the verdict is unaffected.
    pub fn test_url(&self) -> Url {
        match self.kind {
            SiteKind::ProxyService => {
                Url::parse(&format!("http://{}/", self.domain)).expect("valid")
            }
            SiteKind::AdultImages => {
                Url::parse(&format!("http://{}/benign.png", self.domain)).expect("valid")
            }
        }
    }

    /// The URL submitted to vendors (the site root).
    pub fn submit_url(&self) -> Url {
        Url::parse(&format!("http://{}/", self.domain)).expect("valid")
    }
}

/// One vendor cloud per product, shared by every box of that product.
pub type VendorClouds = BTreeMap<ProductKind, Arc<VendorCloud>>;

/// The built world. See the module docs.
pub struct World {
    /// The simulated Internet.
    pub net: Internet,
    /// Construction options used.
    pub options: WorldOptions,
    /// Resilience configuration every stage's measurement clients
    /// inherit ([`World::client`]). Defaults to passthrough, so the
    /// pinned-seed experiments behave exactly as single-shot fetches;
    /// chaos campaigns switch it to `ResilienceConfig::chaos()`.
    pub resilience: ResilienceConfig,
    clouds: VendorClouds,
    lab: VantageId,
    fields: BTreeMap<String, VantageId>,
    hosting: NetworkId,
    forge: DomainForge,
}

/// `(network name, asn, country, console products)` rows for the
/// networks whose only role is carrying a visible installation
/// (Figure 1's breadth).
const INSTALL_NETWORKS: &[(&str, u32, &str, &[ProductKind])] = &[
    // United States: utilities, education, backbone (§3.2).
    ("texas-utility-1", 19181, "US", &[ProductKind::Websense]),
    ("texas-utility-2", 26662, "US", &[ProductKind::Websense]),
    ("wv-k12-edu", 10455, "US", &[ProductKind::Netsweeper]),
    ("ok-edu", 2572, "US", &[ProductKind::Netsweeper]),
    ("mo-edu", 32440, "US", &[ProductKind::Netsweeper]),
    ("global-crossing", 3549, "US", &[ProductKind::Netsweeper]),
    ("att", 7018, "US", &[ProductKind::Netsweeper]),
    ("verizon", 701, "US", &[ProductKind::Netsweeper]),
    ("bellsouth", 6389, "US", &[ProductKind::Netsweeper]),
    ("comcast", 7922, "US", &[ProductKind::BlueCoat]),
    ("sprint", 1239, "US", &[ProductKind::BlueCoat]),
    ("usaisc", 1503, "US", &[ProductKind::BlueCoat]),
    ("us-enterprise", 30036, "US", &[ProductKind::SmartFilter]),
    // Blue Coat's new countries (§3.2) and previously observed ones.
    ("argentina-isp", 7303, "AR", &[ProductKind::BlueCoat]),
    ("chile-isp", 7418, "CL", &[ProductKind::BlueCoat]),
    ("finland-isp", 1759, "FI", &[ProductKind::BlueCoat]),
    ("sweden-isp", 3301, "SE", &[ProductKind::BlueCoat]),
    ("philippines-isp", 9299, "PH", &[ProductKind::BlueCoat]),
    ("thailand-isp", 7470, "TH", &[ProductKind::BlueCoat]),
    ("taiwan-isp", 3462, "TW", &[ProductKind::BlueCoat]),
    ("israel-isp", 8551, "IL", &[ProductKind::BlueCoat]),
    ("lebanon-isp", 42003, "LB", &[ProductKind::BlueCoat]),
    ("kuwait-isp", 21050, "KW", &[ProductKind::BlueCoat]),
    ("myanmar-isp", 9988, "MM", &[ProductKind::BlueCoat]),
    ("egypt-isp", 8452, "EG", &[ProductKind::BlueCoat]),
    ("syria-ste", 29386, "SY", &[ProductKind::BlueCoat]),
    // McAfee SmartFilter in Pakistan (the one previously known case).
    ("pakistan-ptcl", 17557, "PK", &[ProductKind::SmartFilter]),
];

const COUNTRIES: &[(&str, &str, &str)] = &[
    ("CA", "Canada", "ca"),
    ("US", "United States", "us"),
    ("QA", "Qatar", "qa"),
    ("SA", "Saudi Arabia", "sa"),
    ("AE", "United Arab Emirates", "ae"),
    ("YE", "Yemen", "ye"),
    ("SY", "Syria", "sy"),
    ("AR", "Argentina", "ar"),
    ("CL", "Chile", "cl"),
    ("FI", "Finland", "fi"),
    ("SE", "Sweden", "se"),
    ("PH", "Philippines", "ph"),
    ("TH", "Thailand", "th"),
    ("TW", "Taiwan", "tw"),
    ("IL", "Israel", "il"),
    ("LB", "Lebanon", "lb"),
    ("KW", "Kuwait", "kw"),
    ("MM", "Myanmar", "mm"),
    ("EG", "Egypt", "eg"),
    ("PK", "Pakistan", "pk"),
];

impl World {
    /// Build the paper world with default options.
    pub fn paper(seed: u64) -> World {
        World::build(WorldOptions {
            seed,
            ..WorldOptions::default()
        })
    }

    /// Build a synthetic world with `n_networks` filtered networks
    /// (consoles assigned round-robin across the four products) for
    /// scalability studies — §7 names scalability as the methodology's
    /// open challenge, and the scan/identify benches sweep this.
    pub fn synthetic(seed: u64, n_networks: usize) -> World {
        let (mut net, clouds, lab_net, hosting) = infrastructure(seed, 1).expect("prefixes");
        let options = WorldOptions {
            seed,
            ..WorldOptions::default()
        };
        for i in 0..n_networks {
            let product = ProductKind::ALL[i % ProductKind::ALL.len()];
            let (code, _, tld) = COUNTRIES[i % COUNTRIES.len()];
            let asn = net
                .registry_mut()
                .register_as(64_512 + i as u32, &format!("SYN{i}"), code);
            let p = net.registry_mut().allocate_prefix(asn, 1).expect("prefix");
            let name = format!("syn-{i}");
            let isp = net.add_network(NetworkSpec::new(&name, asn, code).with_cidr(p));
            add_console(&mut net, isp, &name, tld, product, false);
        }
        let lab = net.add_vantage("toronto-lab", lab_net);
        let fields = BTreeMap::from([("toronto-lab".to_string(), lab)]);
        let forge = DomainForge::new(filterwatch_netsim::rng::mix(seed, "domain-forge"));
        World::from_parts(net, options, clouds, lab, fields, hosting, forge)
    }

    /// Assemble a world from parts built elsewhere — the paper and
    /// synthetic builders here, and generated worlds outside this
    /// crate: the Internet, one vendor cloud per product, the lab
    /// (control) vantage, field vantages keyed by ISP network name, the
    /// hosting network controlled sites stand on, and the forge that
    /// mints their domains. `options.fetch_path` is applied to `net`;
    /// measurement clients start with passthrough resilience.
    pub fn from_parts(
        net: Internet,
        options: WorldOptions,
        clouds: VendorClouds,
        lab: VantageId,
        fields: BTreeMap<String, VantageId>,
        hosting: NetworkId,
        forge: DomainForge,
    ) -> World {
        net.set_fetch_path(options.fetch_path);
        World {
            net,
            options,
            resilience: ResilienceConfig::default(),
            clouds,
            lab,
            fields,
            hosting,
            forge,
        }
    }

    /// Build the paper world with explicit options.
    pub fn build(options: WorldOptions) -> World {
        let seed = options.seed;
        let (mut net, clouds, lab_net, hosting) = infrastructure(seed, 4).expect("prefixes");
        if options.reject_flaggable_submissions {
            for cloud in clouds.values() {
                cloud.set_reject_flaggable(true);
            }
        }

        // --- Infrastructure networks -------------------------------------
        let vendor_net = {
            let asn = net.registry_mut().register_as(13335, "VENDOR-NET", "US");
            let p = net.registry_mut().allocate_prefix(asn, 1).expect("prefix");
            net.add_network(NetworkSpec::new("vendornet", asn, "US").with_cidr(p))
        };
        let content_net = {
            let asn = net.registry_mut().register_as(14618, "CONTENT-WEB", "US");
            let p = net.registry_mut().allocate_prefix(asn, 4).expect("prefix");
            net.add_network(NetworkSpec::new("contentweb", asn, "US").with_cidr(p))
        };

        // Vendor-side hosts: the public submission portals every vendor
        // runs (the §4.2 confirmation lever is a web form), the Blue
        // Coat cfauth portal, and Netsweeper's category test site.
        let lab_prefix = net.network(lab_net).cidrs[0];
        let hosting_prefix = net.network(hosting).cidrs[0];
        for (product, portal_host) in [
            (ProductKind::BlueCoat, "sitereview.bluecoat.com"),
            (ProductKind::SmartFilter, "www.trustedsource.org"),
            (ProductKind::Netsweeper, "testasite.netsweeper.com"),
            (ProductKind::Websense, "csi.websense.com"),
        ] {
            let ip = net.alloc_ip(vendor_net).expect("portal ip");
            net.add_host(ip, vendor_net, &[portal_host]);
            net.add_service(
                ip,
                80,
                Box::new(
                    SubmissionPortal::new(Arc::clone(&clouds[&product]))
                        .with_research_prefix(lab_prefix)
                        .with_popular_hosting_prefix(hosting_prefix),
                ),
            );
        }

        let cfauth_ip = net.alloc_ip(vendor_net).expect("ip");
        net.add_host(cfauth_ip, vendor_net, &["www.cfauth.com"]);
        net.add_service(cfauth_ip, 80, Box::new(CfAuthPortal));
        let dpt_ip = net.alloc_ip(vendor_net).expect("ip");
        net.add_host(dpt_ip, vendor_net, &[DENYPAGETESTS_HOST]);
        net.add_service(dpt_ip, 80, Box::new(DenyPageTestsSite));
        seed_denypagetests(&clouds[&ProductKind::Netsweeper]);

        // --- Test-list origin sites --------------------------------------
        let mut lists = vec![TestList::global(options.list_urls_per_category)];
        for cc in ["AE", "QA", "YE", "SA"] {
            lists.push(TestList::local(cc, options.list_urls_per_category));
        }
        host_list_origins(&mut net, content_net, &lists, &clouds).expect("content space");

        // --- Censoring ISPs (Table 3) ------------------------------------
        let mut fields = BTreeMap::new();
        let surface = |net: &mut Internet, isp, name: &str, tld: &str, product| {
            let visible = console_visible(&options, name, product);
            let strip = options.strip_branding;
            add_deployment_surface(net, isp, name, tld, product, visible, strip);
        };

        // Etisalat (AE, AS 5384): SmartFilter policy atop a Blue Coat
        // ProxySG used for traffic management only (§4.5 Challenge 3).
        {
            let asn = net
                .registry_mut()
                .register_as(5384, "EMIRATES-INTERNET", "AE");
            let p = net.registry_mut().allocate_prefix(asn, 1).expect("prefix");
            let isp = net.add_network(NetworkSpec::new("etisalat", asn, "AE").with_cidr(p));
            let bc = BlueCoatProxy::traffic_management_only(
                "proxysg@etisalat",
                Arc::clone(&clouds[&ProductKind::BlueCoat]),
            );
            let bc = if options.strip_branding {
                bc.with_stripped_branding()
            } else {
                bc
            };
            net.attach_middlebox(isp, Arc::new(bc));
            let policy = FilterPolicy::blocking([
                "Pornography",
                "Anonymizers",
                "General News",
                "Lifestyle",
                "Politics/Opinion",
            ]);
            let sf = SmartFilterBox::new(
                "smartfilter@etisalat",
                Arc::clone(&clouds[&ProductKind::SmartFilter]),
                policy,
            );
            let sf = if options.strip_branding {
                sf.with_stripped_branding()
            } else {
                sf
            };
            net.attach_middlebox(isp, Arc::new(sf));
            surface(&mut net, isp, "etisalat", "ae", ProductKind::BlueCoat);
            surface(&mut net, isp, "etisalat", "ae", ProductKind::SmartFilter);
            fields.insert(
                "etisalat".to_string(),
                net.add_vantage("etisalat-field", isp),
            );
        }

        // Du (AE, AS 15802): Netsweeper with in-country queueing.
        {
            let asn = net.registry_mut().register_as(15802, "DU-AS", "AE");
            let p = net.registry_mut().allocate_prefix(asn, 1).expect("prefix");
            let isp = net.add_network(NetworkSpec::new("du", asn, "AE").with_cidr(p));
            let deny_host = console_host_name("du", "ae");
            let policy = FilterPolicy::blocking([
                "Proxy Anonymizer",
                "Pornography",
                "Alternative Lifestyles",
                "Religion",
                "Politics",
            ]);
            let ns = NetsweeperBox::new(
                "netsweeper@du",
                Arc::clone(&clouds[&ProductKind::Netsweeper]),
                policy,
                &deny_host,
            )
            .with_queueing();
            let ns = if options.strip_branding {
                ns.with_stripped_branding()
            } else {
                ns
            };
            net.attach_middlebox(isp, Arc::new(ns));
            surface(&mut net, isp, "du", "ae", ProductKind::Netsweeper);
            fields.insert("du".to_string(), net.add_vantage("du-field", isp));
        }

        // Ooredoo (QA, AS 42298): Netsweeper (plus a Blue Coat proxy that
        // does no filtering — its console is what the scan sees).
        {
            let asn = net.registry_mut().register_as(42298, "OOREDOO-QA", "QA");
            let p = net.registry_mut().allocate_prefix(asn, 1).expect("prefix");
            let isp = net.add_network(NetworkSpec::new("ooredoo", asn, "QA").with_cidr(p));
            let bc = BlueCoatProxy::traffic_management_only(
                "proxysg@ooredoo",
                Arc::clone(&clouds[&ProductKind::BlueCoat]),
            );
            let bc = if options.strip_branding {
                bc.with_stripped_branding()
            } else {
                bc
            };
            net.attach_middlebox(isp, Arc::new(bc));
            let deny_host = console_host_name("ooredoo", "qa");
            let policy = FilterPolicy::blocking([
                "Proxy Anonymizer",
                "Alternative Lifestyles",
                "Human Rights",
            ]);
            let ns = NetsweeperBox::new(
                "netsweeper@ooredoo",
                Arc::clone(&clouds[&ProductKind::Netsweeper]),
                policy,
                &deny_host,
            )
            .with_queueing();
            let ns = if options.strip_branding {
                ns.with_stripped_branding()
            } else {
                ns
            };
            net.attach_middlebox(isp, Arc::new(ns));
            surface(&mut net, isp, "ooredoo", "qa", ProductKind::Netsweeper);
            surface(&mut net, isp, "ooredoo", "qa", ProductKind::BlueCoat);
            fields.insert("ooredoo".to_string(), net.add_vantage("ooredoo-field", isp));
        }

        // Saudi Arabia: centralized SmartFilter, reached through two ISPs
        // (Bayanat Al-Oula AS 48237, Nournet AS 29684). Pornography is
        // blocked; the Anonymizers category is NOT enabled (Challenge 1).
        for (name, asn_no, as_name) in [
            ("bayanat", 48237u32, "BAYANAT-AL-OULA"),
            ("nournet", 29684u32, "NOURNET"),
        ] {
            let asn = net.registry_mut().register_as(asn_no, as_name, "SA");
            let p = net.registry_mut().allocate_prefix(asn, 1).expect("prefix");
            let isp = net.add_network(NetworkSpec::new(name, asn, "SA").with_cidr(p));
            let policy = FilterPolicy::blocking(["Pornography", "Religion/Ideology"]);
            let sf = SmartFilterBox::new(
                &format!("smartfilter@{name}"),
                Arc::clone(&clouds[&ProductKind::SmartFilter]),
                policy,
            );
            let sf = if options.strip_branding {
                sf.with_stripped_branding()
            } else {
                sf
            };
            net.attach_middlebox(isp, Arc::new(sf));
            surface(&mut net, isp, name, "sa", ProductKind::SmartFilter);
            fields.insert(
                name.to_string(),
                net.add_vantage(&format!("{name}-field"), isp),
            );
        }

        // YemenNet (YE, AS 12486): Netsweeper, license-limited
        // (Challenge 2), denypagetests categories exactly as the paper
        // found them, plus operator custom denies for local political,
        // media and human-rights sites (Table 4).
        {
            let asn = net.registry_mut().register_as(12486, "YEMENNET", "YE");
            let p = net.registry_mut().allocate_prefix(asn, 1).expect("prefix");
            let isp = net.add_network(
                NetworkSpec::new("yemennet", asn, "YE")
                    .with_cidr(p)
                    .with_faults(FaultProfile::lossy(0.01)),
            );
            let deny_host = console_host_name("yemennet", "ye");
            let mut policy = FilterPolicy::blocking([
                "Adult Images",
                "Phishing",
                "Pornography",
                "Proxy Anonymizer",
                "Search Keywords",
            ]);
            // Operator custom deny list: locally sensitive domains.
            let local = TestList::local("YE", options.list_urls_per_category);
            for u in &local.urls {
                if matches!(
                    u.category,
                    Category::MediaFreedom | Category::HumanRights | Category::PoliticalReform
                ) {
                    let url = Url::parse(&u.url).expect("local url");
                    policy.always_deny(&url.registrable_domain());
                }
            }
            let ns = NetsweeperBox::new(
                "netsweeper@yemennet",
                Arc::clone(&clouds[&ProductKind::Netsweeper]),
                policy,
                &deny_host,
            )
            .with_queueing()
            .with_license_pool(LicensePool::new(13, 16, seed, "yemennet"));
            let ns = if options.strip_branding {
                ns.with_stripped_branding()
            } else {
                ns
            };
            net.attach_middlebox(isp, Arc::new(ns));
            surface(&mut net, isp, "yemennet", "ye", ProductKind::Netsweeper);
            fields.insert(
                "yemennet".to_string(),
                net.add_vantage("yemennet-field", isp),
            );
        }

        // --- The wider Figure 1 installation networks ---------------------
        for &(name, asn_no, country, consoles) in INSTALL_NETWORKS {
            let as_name = name.to_ascii_uppercase().replace('-', "");
            let asn = net.registry_mut().register_as(asn_no, &as_name, country);
            let p = net.registry_mut().allocate_prefix(asn, 1).expect("prefix");
            let isp = net.add_network(NetworkSpec::new(name, asn, country).with_cidr(p));
            let tld = country.to_ascii_lowercase();
            for &product in consoles {
                if console_visible(&options, name, product) {
                    add_console(&mut net, isp, name, &tld, product, options.strip_branding);
                }
            }
        }

        let lab = net.add_vantage("toronto-lab", lab_net);
        // The lab doubles as a (trivially unfiltered) field vantage so
        // control measurements can reuse the same APIs.
        fields.insert("toronto-lab".to_string(), lab);

        let forge = DomainForge::new(filterwatch_netsim::rng::mix(seed, "domain-forge"));
        World::from_parts(net, options, clouds, lab, fields, hosting, forge)
    }

    /// Builder-style: set the resilience configuration subsequent
    /// measurement clients inherit.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// A measurement client for an ISP's field vantage, controlled
    /// against the lab, carrying the world's resilience configuration.
    ///
    /// # Panics
    /// If the ISP has no field tester.
    pub fn client(&self, isp: &str) -> MeasurementClient {
        MeasurementClient::new(self.field(isp), self.lab)
            .with_resilience(self.resilience.clone())
            .with_telemetry(self.net.telemetry().clone())
    }

    /// The lab (control) vantage point.
    pub fn lab(&self) -> VantageId {
        self.lab
    }

    /// The field vantage point inside a censoring ISP.
    ///
    /// # Panics
    /// If the ISP has no field tester.
    pub fn field(&self, isp: &str) -> VantageId {
        *self
            .fields
            .get(isp)
            .unwrap_or_else(|| panic!("no field vantage in {isp:?}"))
    }

    /// ISPs with field testers, sorted by name.
    pub fn field_isps(&self) -> Vec<&str> {
        self.fields.keys().map(String::as_str).collect()
    }

    /// The vendor cloud for a product.
    pub fn cloud(&self, product: ProductKind) -> &Arc<VendorCloud> {
        &self.clouds[&product]
    }

    /// Hostname of the vendor's public submission portal.
    pub fn portal_host(product: ProductKind) -> &'static str {
        match product {
            ProductKind::BlueCoat => "sitereview.bluecoat.com",
            ProductKind::SmartFilter => "www.trustedsource.org",
            ProductKind::Netsweeper => "testasite.netsweeper.com",
            ProductKind::Websense => "csi.websense.com",
        }
    }

    /// Register a fresh researcher-controlled domain hosting `kind`
    /// content, resolvable worldwide, with reviewer ground truth
    /// registered at every vendor (a reviewer visiting it would see the
    /// content regardless of vendor).
    pub fn create_controlled_site(&mut self, kind: SiteKind) -> ControlledSite {
        let domain = self.forge.mint();
        let ip = self.net.alloc_ip(self.hosting).expect("hosting space");
        self.net.add_host(ip, self.hosting, &[&domain]);
        match kind {
            SiteKind::ProxyService => self.net.add_service(ip, 80, Box::new(GlypeProxySite)),
            SiteKind::AdultImages => self
                .net
                .add_service(ip, 80, Box::new(AdultImageSite::new())),
        }
        for cloud in self.clouds.values() {
            cloud.register_site_profile(&domain, kind.category());
        }
        ControlledSite { domain, kind, ip }
    }

    /// Create `n` controlled sites of one kind.
    pub fn create_controlled_sites(&mut self, kind: SiteKind, n: usize) -> Vec<ControlledSite> {
        (0..n).map(|_| self.create_controlled_site(kind)).collect()
    }
}

/// Per-console visibility draw: a pure function of (seed, network,
/// product), so sweeps are comparable across options.
fn console_visible(options: &WorldOptions, network: &str, product: ProductKind) -> bool {
    if options.hidden_consoles {
        return false;
    }
    if options.console_visibility >= 1.0 {
        return true;
    }
    let draw = (filterwatch_netsim::rng::mix(
        options.seed,
        &format!("console-vis/{network}/{}", product.slug()),
    ) >> 11) as f64
        / (1u64 << 53) as f64;
    draw < options.console_visibility
}

/// The gateway host of a network's Netsweeper or Websense deployment:
/// its console, and the target of its deny-page redirects.
pub fn console_host_name(network: &str, tld: &str) -> String {
    format!("gw.{network}.{tld}")
}

/// What every paper-world builder starts from: an Internet with the
/// country table registered, one vendor cloud per product, the Toronto
/// lab network, and the popular-cloud hosting network of
/// `hosting_blocks` /24s. `None` when the address space runs out.
fn infrastructure(
    seed: u64,
    hosting_blocks: u32,
) -> Option<(Internet, VendorClouds, NetworkId, NetworkId)> {
    let mut net = Internet::new(seed);
    for &(code, name, tld) in COUNTRIES {
        net.registry_mut().register_country(code, name, tld);
    }
    let clouds = ProductKind::ALL
        .into_iter()
        .map(|product| (product, Arc::new(VendorCloud::new(product, seed))))
        .collect();
    let asn = net.registry_mut().register_as(239, "UTORONTO", "CA");
    let p = net.registry_mut().allocate_prefix(asn, 1)?;
    let lab_net = net.add_network(NetworkSpec::new("toronto-lab", asn, "CA").with_cidr(p));
    let asn = net.registry_mut().register_as(16509, "POPULAR-CLOUD", "US");
    let p = net.registry_mut().allocate_prefix(asn, hosting_blocks)?;
    let hosting = net.add_network(NetworkSpec::new("cloudhost", asn, "US").with_cidr(p));
    Some((net, clouds, lab_net, hosting))
}

/// Host every URL of `lists` on its own origin site in `network`,
/// categorized in advance at every vendor: all vendors already know
/// these long-standing sites. Public so worlds assembled outside this
/// crate ([`World::from_parts`]) host the same origins. Fails when a
/// URL does not parse or `network` runs out of addresses.
pub fn host_list_origins(
    net: &mut Internet,
    network: NetworkId,
    lists: &[TestList],
    clouds: &VendorClouds,
) -> Result<(), String> {
    for test_url in lists.iter().flat_map(|list| &list.urls) {
        let url = Url::parse(&test_url.url).map_err(|e| format!("{}: {e}", test_url.url))?;
        let ip = net
            .alloc_ip(network)
            .ok_or_else(|| format!("no address left for {}", test_url.url))?;
        net.add_host(ip, network, &[url.host()]);
        let category = test_url.category;
        let body = format!(
            "<p>Reference content for the {} category.</p>",
            category.name()
        );
        net.add_service(ip, 80, Box::new(StaticSite::new(category.name(), &body)));
        let domain = url.registrable_domain();
        for (product, cloud) in clouds {
            cloud.register_site_profile(&domain, category);
            cloud.seed_categorization(&domain, taxonomy::vendor_category(*product, category));
        }
    }
    Ok(())
}

/// Stand up a censoring deployment's external surface: its console
/// when `visible`. A hidden Netsweeper deployment still gets its deny
/// host — in-network clients fetch deny pages from it — answering only
/// the deny path, so outside probes learn nothing; hidden inline
/// blockers have no external host at all. Public so worlds assembled
/// outside this crate ([`World::from_parts`]) stand up the same
/// surfaces.
pub fn add_deployment_surface(
    net: &mut Internet,
    isp: NetworkId,
    name: &str,
    tld: &str,
    product: ProductKind,
    visible: bool,
    strip_branding: bool,
) {
    if visible {
        add_console(net, isp, name, tld, product, strip_branding);
    } else if product == ProductKind::Netsweeper {
        add_hidden_deny_host(net, isp, name, tld);
    }
}

/// Add an externally visible product console/gateway host to a network.
fn add_console(
    net: &mut Internet,
    isp: NetworkId,
    name: &str,
    tld: &str,
    product: ProductKind,
    strip_branding: bool,
) {
    // Each product gets its own gateway host so port bindings never
    // collide when a network runs several products (Etisalat runs two).
    let host = match product {
        ProductKind::BlueCoat => format!("proxy.{name}.{tld}"),
        ProductKind::SmartFilter => format!("mwg.{name}.{tld}"),
        // Netsweeper's console host doubles as the deny-page target.
        ProductKind::Netsweeper | ProductKind::Websense => console_host_name(name, tld),
    };
    let ip = match net.dns().resolve(&host) {
        Some(ip) => ip,
        None => {
            let ip = net.alloc_ip(isp).expect("console ip");
            net.add_host(ip, isp, &[&host]);
            ip
        }
    };
    if strip_branding {
        // A console that keeps its mouth shut: generic banner, no product
        // markers. Port still answers (the device exists).
        let port = match product {
            ProductKind::Netsweeper => 8080,
            ProductKind::Websense => BLOCKPAGE_PORT,
            _ => 80,
        };
        net.add_service(
            ip,
            port,
            Box::new(StaticSite::new("Gateway", "<p>restricted</p>")),
        );
        return;
    }
    match product {
        ProductKind::BlueCoat => {
            net.add_service(ip, 80, Box::new(ProxySgConsole));
            net.add_service(ip, 8080, Box::new(ProxySgIntercept));
        }
        ProductKind::SmartFilter => net.add_service(ip, 80, Box::new(SmartFilterConsole)),
        ProductKind::Netsweeper => net.add_service(ip, 8080, Box::new(NetsweeperConsole)),
        ProductKind::Websense => net.add_service(ip, BLOCKPAGE_PORT, Box::new(WebsenseBlockpage)),
    }
}

/// With hidden consoles, Netsweeper deployments still need an in-network
/// deny host for their block-page redirects — reachable from inside
/// (clients fetch the deny page) but we model external invisibility by
/// keeping it off the scanned console ports' banner surface entirely:
/// only the deny path answers.
fn add_hidden_deny_host(net: &mut Internet, isp: NetworkId, name: &str, tld: &str) {
    let host = console_host_name(name, tld);
    let ip = net.alloc_ip(isp).expect("deny ip");
    net.add_host(ip, isp, &[&host]);
    net.add_service(ip, 8080, Box::new(DenyOnlyConsole));
}

/// A console that serves deny pages but nothing identifying on probes —
/// the "properly configured" installation of §6.1.
#[derive(Debug, Clone, Default)]
struct DenyOnlyConsole;

impl filterwatch_netsim::Service for DenyOnlyConsole {
    fn handle(
        &self,
        req: &filterwatch_http::Request,
        ctx: &filterwatch_netsim::ServiceCtx,
    ) -> filterwatch_http::Response {
        if req.url.path().starts_with("/webadmin/deny") {
            NetsweeperConsole.handle(req, ctx)
        } else {
            filterwatch_http::Response::not_found()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterwatch_measure::MeasurementClient;

    #[test]
    fn world_builds_with_expected_networks() {
        let w = World::paper(1);
        for isp in [
            "etisalat", "du", "ooredoo", "bayanat", "nournet", "yemennet",
        ] {
            assert!(w.net.network_by_name(isp).is_some(), "{isp}");
        }
        assert!(w.net.network_by_name("comcast").is_some());
        assert_eq!(w.field_isps().len(), 7); // six censoring ISPs + the lab
        assert!(w.net.host_count() > 150);
    }

    #[test]
    fn known_porn_site_blocked_in_saudi_not_in_lab() {
        let w = World::paper(1);
        let client = MeasurementClient::new(w.field("bayanat"), w.lab());
        let url = Url::parse("http://www.pornography0-glb.example/").unwrap();
        let v = client.test_url(&w.net, &url);
        assert!(v.verdict.is_blocked(), "{:?}", v.verdict);
        assert_eq!(v.verdict.blocked_by(), Some("smartfilter"));
    }

    #[test]
    fn known_proxy_site_accessible_in_saudi_blocked_in_uae() {
        // Challenge 1: Saudi Arabia does not enable the proxy category.
        let w = World::paper(1);
        let url = Url::parse("http://www.proxy0-glb.example/").unwrap();
        let saudi = MeasurementClient::new(w.field("bayanat"), w.lab());
        assert!(saudi.test_url(&w.net, &url).verdict.is_accessible());
        let uae = MeasurementClient::new(w.field("etisalat"), w.lab());
        assert!(uae.test_url(&w.net, &url).verdict.is_blocked());
    }

    #[test]
    fn netsweeper_blocks_proxies_in_ooredoo_with_branded_deny_page() {
        let w = World::paper(1);
        let client = MeasurementClient::new(w.field("ooredoo"), w.lab());
        let v = client.test_url(
            &w.net,
            &Url::parse("http://www.proxy0-glb.example/").unwrap(),
        );
        assert_eq!(
            v.verdict.blocked_by(),
            Some("netsweeper"),
            "{:?}",
            v.verdict
        );
    }

    #[test]
    fn controlled_sites_are_fresh_and_resolvable() {
        let mut w = World::paper(1);
        let sites = w.create_controlled_sites(SiteKind::ProxyService, 3);
        assert_eq!(sites.len(), 3);
        let client = MeasurementClient::new(w.field("etisalat"), w.lab());
        for s in &sites {
            assert!(s.domain.ends_with(".info"));
            let v = client.test_url(&w.net, &s.test_url());
            assert!(v.verdict.is_accessible(), "{} {:?}", s.domain, v.verdict);
        }
    }

    #[test]
    fn adult_site_benign_object_is_the_test_url() {
        let mut w = World::paper(1);
        let site = w.create_controlled_site(SiteKind::AdultImages);
        assert!(site.test_url().to_string().ends_with("/benign.png"));
        assert_eq!(site.submit_url().path(), "/");
    }

    #[test]
    fn hidden_consoles_remove_external_surface() {
        let w = World::build(WorldOptions {
            seed: 1,
            hidden_consoles: true,
            ..WorldOptions::default()
        });
        // The Ooredoo console host answers deny pages but not probes.
        let ip = w.net.dns().resolve("gw.ooredoo.qa").unwrap();
        let req = filterwatch_http::Request::get(Url::http_at(&ip.to_string(), 8080, "/webadmin/"));
        let resp = w.net.probe(ip, 8080, &req).into_response().unwrap();
        assert!(resp.status.is_error());
        assert!(!resp.body_text().to_ascii_lowercase().contains("netsweeper"));
    }

    #[test]
    fn submission_portals_reachable_worldwide() {
        let w = World::paper(1);
        let client = MeasurementClient::new(w.field("etisalat"), w.lab());
        for product in ProductKind::ALL {
            let url = Url::parse(&format!("http://{}/", World::portal_host(product))).unwrap();
            let v = client.test_url(&w.net, &url);
            assert!(v.verdict.is_accessible(), "{product}: {:?}", v.verdict);
        }
    }

    #[test]
    fn synthetic_worlds_scale_linearly_in_installations() {
        let small = World::synthetic(1, 8);
        let large = World::synthetic(1, 24);
        let count = |w: &World| {
            crate::identify::IdentifyPipeline::new()
                .run(&w.net)
                .installations
                .len()
        };
        let (a, b) = (count(&small), count(&large));
        assert_eq!(a, 8, "every synthetic console should validate");
        assert_eq!(b, 24);
    }

    #[test]
    fn default_options() {
        let o = WorldOptions::default();
        assert_eq!(o.seed, DEFAULT_SEED);
        assert!(!o.hidden_consoles);
        assert!(!o.strip_branding);
        assert!(!o.reject_flaggable_submissions);
    }
}
