//! Declarative, shrinkable scenario plans.
//!
//! A [`ScenarioPlan`] is the *description* of a generated world — which
//! countries host which product deployments, how flaky the paths are,
//! how many controlled sites each case study mints — small enough to
//! print in a failure report and simple enough to shrink mechanically.
//! [`crate::worldgen`] turns a plan into a live simulated Internet;
//! [`crate::differential::minimize`] walks [`ScenarioPlan::shrink_candidates`]
//! to find the smallest plan that still reproduces a divergence.

use filterwatch_core::SiteKind;
use filterwatch_netsim::FaultProfile;
use filterwatch_products::ProductKind;

/// The country pool every generated world registers (whether or not a
/// deployment lands there, so keyword × ccTLD query scope is identical
/// across metamorphic variants). The multi-label ccTLDs exercise the
/// scan index's dot-suffix posting lists.
pub const COUNTRY_POOL: &[(&str, &str, &str)] = &[
    ("CA", "Canada", "ca"),
    ("US", "United States", "us"),
    ("QA", "Qatar", "qa"),
    ("AE", "United Arab Emirates", "ae"),
    ("YE", "Yemen", "ye"),
    ("PK", "Pakistan", "pk"),
    ("TR", "Turkey", "com.tr"),
    ("UK", "United Kingdom", "co.uk"),
    ("IN", "India", "in"),
    ("TH", "Thailand", "th"),
];

/// Pool indices deployments and bystanders may be placed in (the first
/// two slots are reserved for the lab and hosting infrastructure).
pub const DEPLOYABLE: std::ops::Range<usize> = 2..COUNTRY_POOL.len();

/// Number of deployable country slots.
pub fn deployable_count() -> usize {
    DEPLOYABLE.end - DEPLOYABLE.start
}

/// One filtering deployment: a product placed in a country, with its
/// policy, console visibility, optional flapping, and the shape of the
/// submit-and-retest case study run against it.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentPlan {
    /// Index into [`DEPLOYABLE`] country slots.
    pub country: usize,
    /// The product installed on this network's egress.
    pub product: ProductKind,
    /// Content kind of the controlled sites minted for this deployment
    /// (§4.3: proxy front pages or adult-image indexes; the policy
    /// blocks this kind's vendor category).
    pub content: SiteKind,
    /// Whether the product's console/gateway answers external probes
    /// (§6.1's tactic 1, inverted). Websense deployments are always
    /// visible: their block-page host *is* the identifiable surface.
    pub console_visible: bool,
    /// Wrap the middlebox in [`filterwatch_netsim::Flapping`] with this
    /// fail-open probability.
    pub flapping: Option<f64>,
    /// Controlled sites minted for the case study (≥ 2).
    pub n_sites: usize,
    /// Sites submitted to the vendor (1 ≤ n_submit < n_sites, so a
    /// held-out half always exists).
    pub n_submit: usize,
}

impl DeploymentPlan {
    /// The pool row for this deployment's country.
    pub fn country_row(&self) -> (&'static str, &'static str, &'static str) {
        COUNTRY_POOL[DEPLOYABLE.start + self.country]
    }
}

/// Network fault injection applied to every deployment network.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlan {
    /// No faults.
    Clean,
    /// Packet loss only (no latency — virtual time advances identically
    /// to a clean run at equal fetch counts).
    Lossy {
        /// Per-fetch drop probability.
        drop_prob: f64,
    },
    /// The full chaotic mix (drops, resets, DNS failures, truncation,
    /// plus latency).
    Chaotic {
        /// Overall fault rate, split across fault kinds.
        rate: f64,
    },
}

impl FaultPlan {
    /// Materialize the fault profile.
    pub fn profile(&self) -> FaultProfile {
        match self {
            FaultPlan::Clean => FaultProfile::default(),
            FaultPlan::Lossy { drop_prob } => FaultProfile::lossy(*drop_prob),
            FaultPlan::Chaotic { rate } => {
                FaultProfile::chaotic(*rate).expect("plan validated rate")
            }
        }
    }

    /// Whether this plan injects any faults at all.
    pub fn is_clean(&self) -> bool {
        match self {
            FaultPlan::Clean => true,
            FaultPlan::Lossy { drop_prob } => *drop_prob <= 0.0,
            FaultPlan::Chaotic { rate } => *rate <= 0.0,
        }
    }
}

/// A full generated-world scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPlan {
    /// World seed; every stochastic draw in the built world derives
    /// from it.
    pub seed: u64,
    /// URLs per category on the global test list whose origin sites the
    /// world hosts (pre-categorized at every vendor).
    pub urls_per_category: usize,
    /// Filtering deployments.
    pub deployments: Vec<DeploymentPlan>,
    /// Non-filtering bystander ASes (registered after everything else,
    /// so adding one perturbs no existing allocation).
    pub bystanders: usize,
    /// Fault injection on deployment networks.
    pub fault: FaultPlan,
    /// Synthetic scan-corpus size riding along with the world: the
    /// number of Shodan-scale banner records
    /// [`crate::corpus::synth_corpus`] mints for this plan (0 = none —
    /// the default for every generated world, so the worldgen RNG
    /// stream is untouched). Capped at 10⁶.
    pub corpus_scale: usize,
    /// Extra *live* hosts populating the simulated Internet itself:
    /// [`crate::worldgen`] appends this many bystander hosts, spread
    /// over fresh ASes (one per 32 hosts), after everything else — so a
    /// scaled world is a strict superset of the unscaled one. 0 (the
    /// default) adds nothing and leaves every allocation untouched.
    /// This is the event-core scale knob: 10⁵ hosts / multi-thousand
    /// ASes is the intended top rung. Capped at 10⁶.
    pub host_scale: usize,
}

impl ScenarioPlan {
    /// Check structural validity; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.urls_per_category == 0 {
            return Err("urls_per_category must be >= 1".into());
        }
        if self.corpus_scale > 1_000_000 {
            return Err(format!(
                "corpus_scale {} exceeds the 10^6 cap",
                self.corpus_scale
            ));
        }
        if self.host_scale > 1_000_000 {
            return Err(format!(
                "host_scale {} exceeds the 10^6 cap",
                self.host_scale
            ));
        }
        for (i, d) in self.deployments.iter().enumerate() {
            if d.country >= deployable_count() {
                return Err(format!("deployment {i}: country index out of pool"));
            }
            if d.n_sites < 2 {
                return Err(format!("deployment {i}: n_sites must be >= 2"));
            }
            if d.n_submit == 0 || d.n_submit >= d.n_sites {
                return Err(format!(
                    "deployment {i}: need 1 <= n_submit < n_sites for a held-out half"
                ));
            }
            if let Some(p) = d.flapping {
                if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                    return Err(format!("deployment {i}: flapping prob {p} out of range"));
                }
            }
            if d.product == ProductKind::Websense && !d.console_visible {
                return Err(format!(
                    "deployment {i}: Websense block-page host cannot be hidden"
                ));
            }
        }
        match &self.fault {
            FaultPlan::Clean => {}
            FaultPlan::Lossy { drop_prob } => {
                if !drop_prob.is_finite() || !(0.0..=1.0).contains(drop_prob) {
                    return Err(format!("lossy drop_prob {drop_prob} out of range"));
                }
            }
            FaultPlan::Chaotic { rate } => {
                if !rate.is_finite() || !(0.0..=1.0).contains(rate) {
                    return Err(format!("chaotic rate {rate} out of range"));
                }
            }
        }
        Ok(())
    }

    /// A well-founded size measure: every shrink candidate is strictly
    /// smaller, so greedy minimization terminates.
    pub fn complexity(&self) -> u64 {
        let mut c = 0u64;
        for d in &self.deployments {
            c += 100;
            c += d.n_sites as u64 + d.n_submit as u64;
            if d.flapping.is_some() {
                c += 5;
            }
        }
        c += self.bystanders as u64 * 10;
        if !matches!(self.fault, FaultPlan::Clean) {
            c += 20;
        }
        c += (self.urls_per_category as u64 - 1) * 3;
        c += (self.corpus_scale as u64).div_ceil(1024);
        c += (self.host_scale as u64).div_ceil(1024);
        c
    }

    /// One-step-simpler variants, most aggressive first. Each candidate
    /// is valid and has strictly lower [`ScenarioPlan::complexity`].
    pub fn shrink_candidates(&self) -> Vec<ScenarioPlan> {
        let mut out = Vec::new();
        // Drop a whole deployment.
        for i in 0..self.deployments.len() {
            let mut p = self.clone();
            p.deployments.remove(i);
            out.push(p);
        }
        // Shed a bystander.
        if self.bystanders > 0 {
            let mut p = self.clone();
            p.bystanders -= 1;
            out.push(p);
        }
        // Calm the network down.
        if !matches!(self.fault, FaultPlan::Clean) {
            let mut p = self.clone();
            p.fault = FaultPlan::Clean;
            out.push(p);
        }
        // Thin the test lists.
        if self.urls_per_category > 1 {
            let mut p = self.clone();
            p.urls_per_category = 1;
            out.push(p);
        }
        // Drop the synthetic scan corpus entirely.
        if self.corpus_scale > 0 {
            let mut p = self.clone();
            p.corpus_scale = 0;
            out.push(p);
        }
        // Drop the appended scale hosts entirely.
        if self.host_scale > 0 {
            let mut p = self.clone();
            p.host_scale = 0;
            out.push(p);
        }
        // Per-deployment simplifications.
        for i in 0..self.deployments.len() {
            if self.deployments[i].flapping.is_some() {
                let mut p = self.clone();
                p.deployments[i].flapping = None;
                out.push(p);
            }
            if self.deployments[i].n_sites > 2 {
                let mut p = self.clone();
                let d = &mut p.deployments[i];
                d.n_sites -= 1;
                d.n_submit = d.n_submit.min(d.n_sites - 1);
                out.push(p);
            }
            if self.deployments[i].n_submit > 1 {
                let mut p = self.clone();
                p.deployments[i].n_submit -= 1;
                out.push(p);
            }
        }
        debug_assert!(out.iter().all(|p| p.complexity() < self.complexity()));
        out
    }

    /// One-line summary for failure reports.
    pub fn summary(&self) -> String {
        let deps: Vec<String> = self
            .deployments
            .iter()
            .map(|d| {
                let (cc, _, _) = d.country_row();
                format!(
                    "{}@{cc}{}{} sites={}/{}",
                    d.product.slug(),
                    if d.console_visible { "" } else { " hidden" },
                    d.flapping
                        .map(|p| format!(" flap={p:.2}"))
                        .unwrap_or_default(),
                    d.n_submit,
                    d.n_sites,
                )
            })
            .collect();
        // The corpus knob only prints when set, so reports for the
        // (default) corpus-free plans keep their historical shape.
        let corpus = if self.corpus_scale > 0 {
            format!(" corpus={}", self.corpus_scale)
        } else {
            String::new()
        };
        let hosts = if self.host_scale > 0 {
            format!(" hosts={}", self.host_scale)
        } else {
            String::new()
        };
        format!(
            "seed={} urls/cat={} fault={:?} bystanders={}{corpus}{hosts} deployments=[{}]",
            self.seed,
            self.urls_per_category,
            self.fault,
            self.bystanders,
            deps.join("; ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioPlan {
        ScenarioPlan {
            seed: 7,
            urls_per_category: 2,
            deployments: vec![DeploymentPlan {
                country: 0,
                product: ProductKind::Netsweeper,
                content: SiteKind::ProxyService,
                console_visible: true,
                flapping: Some(0.1),
                n_sites: 4,
                n_submit: 2,
            }],
            bystanders: 1,
            fault: FaultPlan::Lossy { drop_prob: 0.05 },
            corpus_scale: 2048,
            host_scale: 96,
        }
    }

    #[test]
    fn sample_is_valid() {
        sample().validate().unwrap();
    }

    #[test]
    fn validation_rejects_missing_holdout() {
        let mut p = sample();
        p.deployments[0].n_submit = p.deployments[0].n_sites;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_hidden_websense() {
        let mut p = sample();
        p.deployments[0].product = ProductKind::Websense;
        p.deployments[0].console_visible = false;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_oversized_corpus() {
        let mut p = sample();
        p.corpus_scale = 1_000_000;
        p.validate().unwrap();
        p.corpus_scale = 1_000_001;
        assert!(p.validate().is_err());
    }

    #[test]
    fn summary_mentions_corpus_only_when_set() {
        let mut p = sample();
        assert!(p.summary().contains("corpus=2048"), "{}", p.summary());
        p.corpus_scale = 0;
        assert!(!p.summary().contains("corpus="), "{}", p.summary());
    }

    #[test]
    fn validation_rejects_oversized_host_scale() {
        let mut p = sample();
        p.host_scale = 1_000_000;
        p.validate().unwrap();
        p.host_scale = 1_000_001;
        assert!(p.validate().is_err());
    }

    #[test]
    fn summary_mentions_hosts_only_when_set() {
        let mut p = sample();
        assert!(p.summary().contains("hosts=96"), "{}", p.summary());
        p.host_scale = 0;
        assert!(!p.summary().contains("hosts="), "{}", p.summary());
    }

    #[test]
    fn shrinks_are_valid_and_strictly_smaller() {
        let p = sample();
        let shrinks = p.shrink_candidates();
        assert!(!shrinks.is_empty());
        for s in &shrinks {
            s.validate().unwrap();
            assert!(s.complexity() < p.complexity(), "{}", s.summary());
        }
    }

    #[test]
    fn repeated_shrinking_terminates_at_the_empty_plan() {
        let mut p = sample();
        let mut steps = 0;
        while let Some(next) = p.shrink_candidates().into_iter().next() {
            p = next;
            steps += 1;
            assert!(steps < 1000, "shrinking did not terminate");
        }
        assert!(p.deployments.is_empty());
    }
}
