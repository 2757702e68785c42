//! # filterwatch-testkit
//!
//! A deterministic simulation test harness for the whole measurement
//! pipeline. Where the crate-level unit tests pin the *paper world*
//! (one hand-built scenario at pinned seeds), the testkit generates
//! *arbitrary-but-valid* worlds from a seed and checks properties that
//! must hold on every one of them:
//!
//! - [`plan`] / [`strategies`] — declarative, shrinkable scenario plans
//!   and the proptest strategies that generate them (`plan_for_seed` is
//!   the deterministic seed → plan map everything shares);
//! - [`corpus`] — Shodan-scale synthetic banner corpora minted from a
//!   plan's `corpus_scale` knob over the shared country pool;
//! - [`worldgen`] — turning a plan into a live simulated Internet, as
//!   a core `World`: random AS topologies across a fixed country pool,
//!   per-vendor product deployments with visible or hidden consoles,
//!   flapping middleboxes, pre-categorized URL lists, fault profiles;
//! - [`runner`] — the plan's case studies as a core `Campaign`, run
//!   through the production `CampaignRun` (identify, then pre-verify →
//!   submit → wait → retest per deployment) plus the testkit's list
//!   sweep, rendered as stable, byte-comparable text;
//! - [`orchestrate`] — the same campaign as a crash-safe resumable
//!   state machine on the orchestrator's `PaperDriver`, with the list
//!   sweep added by a stage hook, and the crash-recovery battery's run
//!   and resume entry points;
//! - [`invariants`] — the metamorphic suite (permutation invariance,
//!   bystander indifference, fault degradation, holdout integrity);
//! - [`golden`] — checked-in snapshots with
//!   `FILTERWATCH_UPDATE_GOLDENS=1` regeneration;
//! - [`differential`] — the multi-seed differential runner with greedy
//!   failure minimization.
//!
//! Everything is a pure function of the seed: two runs of any testkit
//! entry point at the same seed produce byte-identical output.

pub mod corpus;
pub mod differential;
pub mod golden;
pub mod invariants;
pub mod orchestrate;
pub mod plan;
pub mod runner;
pub mod strategies;
pub mod worldgen;

pub use corpus::{synth_corpus, synth_corpus_index};
pub use differential::{minimize, run_seed, seeds_from_env, Divergence};
pub use golden::{check_golden, golden_path, update_mode, UPDATE_ENV};
pub use invariants::{check_plan, check_seed, Violation};
pub use orchestrate::{
    generated_driver, generated_report, resume_generated_campaign, run_generated_campaign,
    ListSweep,
};
pub use plan::{DeploymentPlan, FaultPlan, ScenarioPlan};
pub use runner::{
    campaign_for, retest_lines, run_campaign, run_campaign_forensic, run_campaign_with,
    CampaignForensics, GeneratedReport,
};
pub use strategies::{plan_for_seed, plan_strategy};
pub use worldgen::{build_world, deployment_name};
