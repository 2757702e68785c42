//! filterwatch: the paper's methodology as a library.
//!
//! This crate reproduces the three-stage methodology of *"A Method for
//! Identifying and Confirming the Use of URL Filtering Products for
//! Censorship"* (Dalek et al., IMC 2013) against the deterministic
//! simulated Internet of `filterwatch-netsim`:
//!
//! 1. [`identify`] — scan the address space (Shodan analog), search the
//!    index with the Table 2 keyword table across every ccTLD, validate
//!    candidates with WhatWeb-style fingerprinting, and geolocate the
//!    validated installations (Figure 1);
//! 2. [`confirm`] — stand up researcher-controlled domains, verify them
//!    reachable in the target ISP, submit half to the vendor's
//!    categorization channel, advance 3–5 virtual days, and retest
//!    (Table 3, including the §4.3–4.5 challenges);
//! 3. [`characterize`] — fetch ONI global/local test lists from field
//!    and lab vantage points and roll blocked URLs up into the six
//!    protected-content themes of Table 4.
//!
//! [`world`] builds the full 2012–2013 scenario; [`evade`] reruns the
//! pipeline under the §6 vendor evasion tactics (Table 5); [`report`]
//! renders the text tables the `tables` binary prints.
//!
//! # Quick start
//!
//! ```
//! use filterwatch_core::confirm::{run_case_study, CaseStudySpec};
//! use filterwatch_core::world::{SiteKind, World};
//! use filterwatch_products::{ProductKind, SubmitterProfile};
//!
//! let mut world = World::paper(7);
//! let result = run_case_study(
//!     &mut world,
//!     &CaseStudySpec {
//!         label: "demo".into(),
//!         product: ProductKind::SmartFilter,
//!         isp: "nournet".into(),
//!         date: "5/2013".into(),
//!         site_kind: SiteKind::AdultImages,
//!         n_sites: 4,
//!         n_submit: 2,
//!         category_label: "Pornography".into(),
//!         pre_verify: true,
//!         wait_days: 4,
//!         retest_runs: 1,
//!         submitter: SubmitterProfile::NAIVE,
//!     },
//! );
//! assert!(result.confirmed);
//! ```

pub mod ablate;
pub mod campaign;
pub mod characterize;
pub mod confirm;
pub mod evade;
pub mod geo;
pub mod identify;
pub mod legacy;
pub mod probes;
pub mod report;
pub mod world;

pub use campaign::{Campaign, CampaignReport};
pub use world::{ControlledSite, SiteKind, World, WorldOptions, DEFAULT_SEED};
