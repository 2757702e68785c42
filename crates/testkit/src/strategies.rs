//! Proptest strategies generating arbitrary-but-valid [`ScenarioPlan`]s.
//!
//! Every plan a strategy emits passes [`ScenarioPlan::validate`]; the
//! dependent pieces (a submitted count strictly below the site count)
//! use `prop_flat_map`. [`plan_for_seed`] is the deterministic entry
//! point the invariant suite and differential runner share: the same
//! seed always yields the same plan.

use proptest::collection::vec;
use proptest::strategy::{BoxedStrategy, Just, Strategy, Union};
use proptest::test_runner::TestRng;

use filterwatch_core::SiteKind;
use filterwatch_products::ProductKind;

use crate::plan::{deployable_count, DeploymentPlan, FaultPlan, ScenarioPlan};

fn product_strategy() -> BoxedStrategy<ProductKind> {
    Union::new(ProductKind::ALL.iter().map(|&p| Just(p).boxed()).collect()).boxed()
}

fn content_strategy() -> BoxedStrategy<SiteKind> {
    Union::new(vec![
        Just(SiteKind::ProxyService).boxed(),
        Just(SiteKind::AdultImages).boxed(),
    ])
    .boxed()
}

/// Three in four deployments answer probes (the paper found consoles
/// overwhelmingly visible); one in four hides its surface.
fn visibility_strategy() -> BoxedStrategy<bool> {
    (0u8..4).prop_map(|v| v != 0).boxed()
}

/// One in four deployments flaps (fails open per-flow) with a
/// probability low enough that majorities still form.
fn flapping_strategy() -> BoxedStrategy<Option<f64>> {
    (0u8..4)
        .prop_flat_map(|tag| {
            if tag == 0 {
                (0.05f64..=0.30).prop_map(Some).boxed()
            } else {
                Just(None).boxed()
            }
        })
        .boxed()
}

/// One deployment: country, product, policy content, visibility,
/// flapping, and a case-study shape with a guaranteed held-out half.
pub fn deployment_strategy() -> BoxedStrategy<DeploymentPlan> {
    (
        0usize..deployable_count(),
        product_strategy(),
        content_strategy(),
        visibility_strategy(),
        flapping_strategy(),
        (3usize..=6).prop_flat_map(|n_sites| (Just(n_sites), 1usize..n_sites)),
    )
        .prop_map(
            |(country, product, content, console_visible, flapping, (n_sites, n_submit))| {
                DeploymentPlan {
                    country,
                    product,
                    content,
                    // A hidden Websense has no way to serve its block
                    // page; normalize rather than reject.
                    console_visible: console_visible || product == ProductKind::Websense,
                    flapping,
                    n_sites,
                    n_submit,
                }
            },
        )
        .boxed()
}

/// Fault plans, biased toward clean worlds (half the draws).
pub fn fault_strategy() -> BoxedStrategy<FaultPlan> {
    Union::new(vec![
        Just(FaultPlan::Clean).boxed(),
        Just(FaultPlan::Clean).boxed(),
        (0.01f64..=0.08)
            .prop_map(|drop_prob| FaultPlan::Lossy { drop_prob })
            .boxed(),
        (0.01f64..=0.12)
            .prop_map(|rate| FaultPlan::Chaotic { rate })
            .boxed(),
    ])
    .boxed()
}

/// A whole scenario: one to four deployments, up to two bystander ASes,
/// one or two URLs per test-list category. The generated `seed` field
/// is zero — [`plan_for_seed`] stamps the real world seed.
pub fn plan_strategy() -> BoxedStrategy<ScenarioPlan> {
    (
        1usize..=2,
        vec(deployment_strategy(), 1..=4),
        0usize..=2,
        fault_strategy(),
    )
        .prop_map(
            |(urls_per_category, deployments, bystanders, fault)| ScenarioPlan {
                seed: 0,
                urls_per_category,
                deployments,
                bystanders,
                fault,
                // Assigned, never drawn: generated worlds carry no
                // synthetic corpus or scale hosts by default, and
                // keeping these out of the strategy tuple leaves the
                // RNG stream — and so every pinned-seed plan — exactly
                // as it was.
                corpus_scale: 0,
                host_scale: 0,
            },
        )
        .boxed()
}

/// The deterministic plan for a world seed: same seed, same plan,
/// always. (The generator stream is keyed on the low 32 bits; the full
/// seed still reaches the built world verbatim.)
pub fn plan_for_seed(seed: u64) -> ScenarioPlan {
    let mut rng = TestRng::for_case("filterwatch-testkit/plan", seed as u32);
    let mut plan = plan_strategy().generate(&mut rng);
    plan.seed = seed;
    plan.validate().expect("generated plans are valid");
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_plans_are_valid_across_many_seeds() {
        for seed in 0..64 {
            let plan = plan_for_seed(seed);
            plan.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", plan.summary()));
            assert_eq!(plan.seed, seed);
            assert!(!plan.deployments.is_empty());
        }
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        for seed in [0, 1, 13, 4096] {
            assert_eq!(plan_for_seed(seed), plan_for_seed(seed));
        }
    }

    #[test]
    fn seeds_yield_distinct_plans() {
        // Not a tautology — a broken generator that ignores its RNG
        // would collapse every seed onto one plan.
        let distinct: std::collections::BTreeSet<String> =
            (0..16).map(|s| plan_for_seed(s).summary()).collect();
        assert!(distinct.len() > 8, "only {} distinct plans", distinct.len());
    }

    #[test]
    fn pool_covers_every_product_and_fault_kind() {
        let mut products = std::collections::BTreeSet::new();
        let mut flapping = false;
        let mut faulted = false;
        for seed in 0..64 {
            let plan = plan_for_seed(seed);
            for d in &plan.deployments {
                products.insert(d.product);
                flapping |= d.flapping.is_some();
            }
            faulted |= !matches!(plan.fault, FaultPlan::Clean);
        }
        assert_eq!(products.len(), 4, "{products:?}");
        assert!(flapping, "no flapping deployment in 64 seeds");
        assert!(faulted, "no faulted plan in 64 seeds");
    }
}
