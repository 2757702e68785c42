//! Building a live simulated Internet from a [`ScenarioPlan`], as a
//! core [`World`] the production campaign runs on.
//!
//! The construction order is load-bearing for the metamorphic suite:
//! infrastructure first (lab, hosting, vendor clouds, test-list origin
//! sites), then deployments in plan order, then bystander ASes *last* —
//! so adding a bystander to a plan perturbs no allocation made for
//! anything else, which is exactly what the bystander-indifference
//! invariant byte-compares on.

use std::collections::BTreeMap;
use std::sync::Arc;

use filterwatch_core::world::{add_deployment_surface, console_host_name, host_list_origins};
use filterwatch_core::{World, WorldOptions};
use filterwatch_netsim::service::StaticSite;
use filterwatch_netsim::{Flapping, Internet, Middlebox, NetworkSpec};
use filterwatch_products::bluecoat::{BlueCoatProxy, CfAuthPortal};
use filterwatch_products::netsweeper::NetsweeperBox;
use filterwatch_products::smartfilter::SmartFilterBox;
use filterwatch_products::websense::WebsenseBox;
use filterwatch_products::{taxonomy, FilterPolicy, ProductKind, VendorCloud};
use filterwatch_urllists::{Category, DomainForge, TestList};

use crate::plan::{DeploymentPlan, ScenarioPlan, COUNTRY_POOL, DEPLOYABLE};

/// Deployment network name (`dep0-netsweeper` style).
pub fn deployment_name(i: usize, d: &DeploymentPlan) -> String {
    format!("dep{i}-{}", d.product.slug())
}

/// The blocked vendor categories of a deployment's policy: its content
/// kind plus pornography (so pre-categorized test-list URLs produce
/// blocked verdicts even before any submission lands).
fn policy_for(d: &DeploymentPlan) -> FilterPolicy {
    let mut cats = vec![taxonomy::vendor_category(d.product, d.content.category())];
    let porn = taxonomy::vendor_category(d.product, Category::Pornography);
    if !cats.contains(&porn) {
        cats.push(porn);
    }
    FilterPolicy::blocking(cats)
}

/// Build the simulated Internet a plan describes. Each deployment's
/// field vantage is keyed by its network name ([`deployment_name`]);
/// controlled-site domains come from the `"testkit-forge"` stream.
///
/// # Panics
/// When the plan fails [`ScenarioPlan::validate`].
pub fn build_world(plan: &ScenarioPlan) -> World {
    plan.validate().expect("plan must be valid");
    let seed = plan.seed;
    let mut net = Internet::new(seed);

    // The whole pool is registered up front so keyword × ccTLD scope is
    // identical across metamorphic variants of the same plan.
    for &(code, name, tld) in COUNTRY_POOL {
        net.registry_mut().register_country(code, name, tld);
    }

    let mut clouds = BTreeMap::new();
    for product in ProductKind::ALL {
        clouds.insert(product, Arc::new(VendorCloud::new(product, seed)));
    }

    let lab_net = {
        let asn = net.registry_mut().register_as(64500, "GEN-LAB", "CA");
        let p = net.registry_mut().allocate_prefix(asn, 1).expect("prefix");
        net.add_network(NetworkSpec::new("gen-lab", asn, "CA").with_cidr(p))
    };
    let lab = net.add_vantage("gen-lab", lab_net);
    let hosting = {
        let asn = net.registry_mut().register_as(64501, "GEN-HOSTING", "US");
        let p = net.registry_mut().allocate_prefix(asn, 4).expect("prefix");
        net.add_network(NetworkSpec::new("gen-hosting", asn, "US").with_cidr(p))
    };
    // Vendor-side infrastructure blocked flows depend on: Blue Coat
    // deployments redirect to the cfauth portal, so the host must
    // resolve worldwide or blocks would present as DNS failures.
    {
        let asn = net.registry_mut().register_as(64502, "GEN-VENDOR", "US");
        let p = net.registry_mut().allocate_prefix(asn, 1).expect("prefix");
        let vendor_net = net.add_network(NetworkSpec::new("gen-vendor", asn, "US").with_cidr(p));
        let ip = net.alloc_ip(vendor_net).expect("cfauth ip");
        net.add_host(ip, vendor_net, &["www.cfauth.com"]);
        net.add_service(ip, 80, Box::new(CfAuthPortal));
    }

    // Test-list origin sites, pre-categorized at every vendor.
    let lists = [TestList::global(plan.urls_per_category)];
    host_list_origins(&mut net, hosting, &lists, &clouds).expect("origin space");

    // Deployments, in plan order.
    let mut fields = BTreeMap::new();
    for (i, d) in plan.deployments.iter().enumerate() {
        let (code, _, tld) = d.country_row();
        let name = deployment_name(i, d);
        let asn = net
            .registry_mut()
            .register_as(64600 + i as u32, &format!("GEN-DEP{i}"), code);
        let p = net.registry_mut().allocate_prefix(asn, 1).expect("prefix");
        let isp = net.add_network(
            NetworkSpec::new(&name, asn, code)
                .with_cidr(p)
                .with_faults(plan.fault.profile()),
        );

        let cloud = Arc::clone(&clouds[&d.product]);
        let policy = policy_for(d);
        let deny_host = console_host_name(&name, tld);
        let label = format!("{}@{name}", d.product.slug());
        let inner: Arc<dyn Middlebox> = match d.product {
            ProductKind::BlueCoat => Arc::new(BlueCoatProxy::new(&label, cloud, policy)),
            ProductKind::SmartFilter => Arc::new(SmartFilterBox::new(&label, cloud, policy)),
            // No `with_queueing`: generated worlds keep the held-out
            // half structurally uncategorizable, which is what the
            // holdout-integrity invariant relies on.
            ProductKind::Netsweeper => {
                Arc::new(NetsweeperBox::new(&label, cloud, policy, &deny_host))
            }
            ProductKind::Websense => Arc::new(WebsenseBox::new(&label, cloud, policy, &deny_host)),
        };
        let boxed: Arc<dyn Middlebox> = match d.flapping {
            Some(prob) => Arc::new(
                Flapping::try_new(
                    inner,
                    prob,
                    filterwatch_netsim::rng::mix(seed, &format!("testkit-flap/{i}")),
                )
                .expect("plan validated probability"),
            ),
            None => inner,
        };
        net.attach_middlebox(isp, boxed);

        // Websense is never hidden (validated upstream): its block-page
        // host *is* the identifiable surface.
        add_deployment_surface(
            &mut net,
            isp,
            &name,
            tld,
            d.product,
            d.console_visible,
            false,
        );
        fields.insert(name, net.add_vantage(&format!("dep{i}-field"), isp));
    }

    // Bystander ASes last: purely additive, no middlebox, no vantage.
    for j in 0..plan.bystanders {
        let slot = DEPLOYABLE.start + (j % (DEPLOYABLE.end - DEPLOYABLE.start));
        let (code, _, tld) = COUNTRY_POOL[slot];
        let asn = net
            .registry_mut()
            .register_as(65100 + j as u32, &format!("GEN-BYS{j}"), code);
        let p = net.registry_mut().allocate_prefix(asn, 1).expect("prefix");
        let nid =
            net.add_network(NetworkSpec::new(&format!("bystander{j}"), asn, code).with_cidr(p));
        let ip = net.alloc_ip(nid).expect("bystander ip");
        let host = format!("www.quiet{j}.{tld}");
        net.add_host(ip, nid, &[&host]);
        net.add_service(
            ip,
            80,
            Box::new(StaticSite::new("Bystander", "<p>nothing to see</p>")),
        );
    }

    // Scale hosts after even the bystanders: a scaled world is a strict
    // superset of the unscaled one, so `host_scale` perturbs no
    // allocation anything else byte-compares on.
    add_scale_hosts(&mut net, plan);

    let forge = DomainForge::new(filterwatch_netsim::rng::mix(seed, "testkit-forge"));
    World::from_parts(
        net,
        world_options(plan),
        clouds,
        lab,
        fields,
        hosting,
        forge,
    )
}

/// The options a plan's world is built under: its seed and list size,
/// defaults otherwise.
pub(crate) fn world_options(plan: &ScenarioPlan) -> WorldOptions {
    WorldOptions {
        seed: plan.seed,
        list_urls_per_category: plan.urls_per_category,
        ..WorldOptions::default()
    }
}

/// Hosts per scale AS: 10⁵ hosts spread one /24 at a time yields the
/// multi-thousand-AS topology the event-core scale rung calls for.
const SCALE_HOSTS_PER_AS: usize = 32;

/// Every Nth scale host binds a service; the rest are bare DNS + address
/// entries, matching the real Internet's mostly-silent address space.
const SCALE_SERVICE_STRIDE: usize = 64;

/// Append [`ScenarioPlan::host_scale`] bystander hosts, one fresh AS per
/// [`SCALE_HOSTS_PER_AS`] of them, countries cycling through the
/// deployable pool. Addresses come straight off each AS's prefix —
/// [`Internet::alloc_ip`] scans the network's allocation table per call,
/// which is quadratic at 10⁵ hosts. Runs out of address space silently:
/// the world simply stops growing (plan validation caps the knob long
/// before that point).
fn add_scale_hosts(net: &mut Internet, plan: &ScenarioPlan) {
    let mut added = 0usize;
    let mut seq = 0u32;
    while added < plan.host_scale {
        let slot = DEPLOYABLE.start + (seq as usize % (DEPLOYABLE.end - DEPLOYABLE.start));
        let (code, _, tld) = COUNTRY_POOL[slot];
        let asn = net
            .registry_mut()
            .register_as(200_000 + seq, &format!("GEN-SCALE{seq}"), code);
        let Some(p) = net.registry_mut().allocate_prefix(asn, 1) else {
            return;
        };
        let nid = net.add_network(NetworkSpec::new(&format!("scale{seq}"), asn, code).with_cidr(p));
        let batch = SCALE_HOSTS_PER_AS.min(plan.host_scale - added);
        for (k, ip) in p.iter().take(batch).enumerate() {
            let n = added + k;
            let host = format!("www.scale{n}.{tld}");
            net.add_host(ip, nid, &[&host]);
            if n % SCALE_SERVICE_STRIDE == 0 {
                net.add_service(
                    ip,
                    80,
                    Box::new(StaticSite::new("Scale filler", "<p>nothing to see</p>")),
                );
            }
        }
        added += batch;
        seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::plan_for_seed;
    use filterwatch_core::identify::IdentifyPipeline;
    use filterwatch_core::SiteKind;

    #[test]
    fn builds_a_world_for_every_early_seed() {
        for seed in 0..8 {
            let plan = plan_for_seed(seed);
            let world = build_world(&plan);
            assert_eq!(world.field_isps().len(), plan.deployments.len());
            assert!(world.net.host_count() > 0);
        }
    }

    #[test]
    fn same_plan_same_topology_digest() {
        let plan = plan_for_seed(3);
        let a = build_world(&plan).net.topology_digest();
        let b = build_world(&plan).net.topology_digest();
        assert_eq!(a, b);
    }

    #[test]
    fn visible_consoles_are_identified() {
        // Find a plan with a visible console and check the identify
        // pipeline validates an installation in its country.
        for seed in 0..32 {
            let plan = plan_for_seed(seed);
            let Some(d) = plan.deployments.iter().find(|d| d.console_visible) else {
                continue;
            };
            let (cc, _, _) = d.country_row();
            let world = build_world(&plan);
            let report = IdentifyPipeline::new().run(&world.net);
            assert!(
                report
                    .installations
                    .iter()
                    .any(|inst| inst.product == d.product && inst.country == cc),
                "seed {seed}: {} not identified in {cc}\n{}",
                d.product,
                report.render_installations()
            );
            return;
        }
        panic!("no visible deployment in 32 seeds");
    }

    #[test]
    fn host_scale_appends_a_superset_world() {
        let mut plan = plan_for_seed(2);
        plan.host_scale = 0;
        let base = build_world(&plan);
        plan.host_scale = 100;
        let scaled = build_world(&plan);
        assert_eq!(scaled.net.host_count(), base.net.host_count() + 100);
        // seq 0 lands on the first deployable slot (QA); host 99 sits
        // in the fourth /24 (slot PK). Nothing past the knob exists.
        assert!(scaled.net.dns().resolve("www.scale0.qa").is_some());
        assert!(scaled.net.dns().resolve("www.scale99.pk").is_some());
        assert!(scaled.net.dns().resolve("www.scale100.pk").is_none());
    }

    #[test]
    fn minted_sites_resolve_and_start_accessible() {
        let mut plan = plan_for_seed(1);
        plan.fault = crate::plan::FaultPlan::Clean;
        for d in &mut plan.deployments {
            d.flapping = None;
        }
        let mut world = build_world(&plan);
        let site = world.create_controlled_site(SiteKind::ProxyService);
        assert!(world.net.dns().resolve(&site.domain).is_some());
        // Freshly minted and never submitted: no vendor has categorized
        // it, so even the filtered path lets it through.
        let client = world.client(&deployment_name(0, &plan.deployments[0]));
        let v = client.test_url(&world.net, &site.test_url());
        assert!(v.verdict.is_accessible(), "{:?}", v.verdict);
    }
}
