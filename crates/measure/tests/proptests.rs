//! Property-based tests for the measurement-client building blocks.

use filterwatch_measure::blockpage::BlockPageLibrary;
use filterwatch_measure::body_similarity;
use filterwatch_measure::stats::{to_csv, RunSummary};
use filterwatch_measure::verdict::{UrlVerdict, Verdict};
use proptest::prelude::*;

fn any_verdict() -> impl Strategy<Value = Verdict> {
    prop_oneof![
        Just(Verdict::Accessible),
        "[a-z]{1,10}".prop_map(|p| Verdict::Blocked(filterwatch_measure::BlockMatch {
            product: Some(p),
            evidence: "sig".into(),
        })),
        Just(Verdict::Blocked(filterwatch_measure::BlockMatch {
            product: None,
            evidence: "generic".into(),
        })),
        (0.0f64..0.5).prop_map(|similarity| Verdict::Modified { similarity }),
        Just(Verdict::Inaccessible {
            field_error: "timeout".into()
        }),
        Just(Verdict::Unavailable {
            lab_error: "dns-failure".into()
        }),
        "[a-z ]{1,20}".prop_map(|reason| Verdict::Inconclusive { reason }),
    ]
}

proptest! {
    /// Similarity is symmetric, bounded, and 1 on identical inputs.
    #[test]
    fn similarity_axioms(a in "\\PC{0,120}", b in "\\PC{0,120}") {
        let sab = body_similarity(&a, &b);
        let sba = body_similarity(&b, &a);
        prop_assert!((sab - sba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&sab));
        prop_assert_eq!(body_similarity(&a, &a), 1.0);
    }

    /// Whitespace-only perturbations never change similarity.
    /// Byte-identical bodies score exactly 1.0 whatever they hold —
    /// arbitrary bytes decoded the way the client decodes them, and
    /// markup-only pages with no visible text — which is what lets the
    /// field/lab comparison skip tokenizing identical copies.
    #[test]
    fn identical_bodies_score_one(
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
        tags in proptest::collection::vec(
            prop_oneof!["<[a-z]{1,6}( [a-z]{1,4}=\"[a-z]{0,4}\")?>", "</[a-z]{1,6}>", "[ \n]{1,3}"],
            0..12,
        ),
    ) {
        let body = String::from_utf8_lossy(&bytes);
        let markup = tags.concat();
        prop_assert_eq!(body_similarity(&body, &body), 1.0);
        prop_assert_eq!(body_similarity(&markup, &markup), 1.0);
        prop_assert_eq!(body_similarity("", ""), 1.0);
    }

    #[test]
    fn similarity_ignores_whitespace(words in proptest::collection::vec("[a-z]{1,8}", 1..20)) {
        let single = words.join(" ");
        let padded = words.join("  \n\t ");
        prop_assert_eq!(body_similarity(&single, &padded), 1.0);
    }

    /// Summary class counts always partition the tested total.
    #[test]
    fn summary_partitions(verdicts in proptest::collection::vec(any_verdict(), 0..40)) {
        let list: Vec<UrlVerdict> = verdicts
            .into_iter()
            .enumerate()
            .map(|(i, verdict)| UrlVerdict {
                url: format!("http://u{i}.example/"),
                verdict,
            })
            .collect();
        let s = RunSummary::from_verdicts(&list);
        prop_assert_eq!(
            s.accessible + s.blocked + s.modified + s.inaccessible + s.unavailable
                + s.inconclusive,
            s.tested
        );
        let attributed: usize = s.by_product.values().sum();
        prop_assert_eq!(attributed, s.blocked);
        prop_assert!(s.block_rate() <= 1.0);
    }

    /// CSV export always yields header + one row per verdict, and every
    /// row starts with the URL.
    #[test]
    fn csv_shape(verdicts in proptest::collection::vec(any_verdict(), 0..20)) {
        let list: Vec<UrlVerdict> = verdicts
            .into_iter()
            .enumerate()
            .map(|(i, verdict)| UrlVerdict {
                url: format!("http://u{i}.example/"),
                verdict,
            })
            .collect();
        let csv = to_csv(&list);
        let lines: Vec<&str> = csv.lines().collect();
        prop_assert_eq!(lines.len(), list.len() + 1);
        for (line, v) in lines[1..].iter().zip(&list) {
            prop_assert!(line.starts_with(&v.url), "{line}");
        }
    }

    /// Backoff is a pure function of (seed, label, attempt) and stays in
    /// `[exp, exp * (1 + jitter_frac)]` where `exp` is the capped
    /// exponential wait.
    #[test]
    fn backoff_bounds(attempt in 1u32..12, seed in any::<u64>(), frac in 0.0f64..1.0) {
        use filterwatch_measure::RetryPolicy;
        let p = RetryPolicy {
            max_attempts: 12,
            base_backoff_secs: 2,
            backoff_cap_secs: 64,
            jitter_frac: frac,
            budget: None,
        };
        let w = p.backoff_secs(attempt, seed, "vantage/http://u.example/");
        prop_assert_eq!(w, p.backoff_secs(attempt, seed, "vantage/http://u.example/"));
        let exp = 2u64.saturating_mul(1 << u64::from(attempt - 1)).min(64);
        prop_assert!(w >= exp, "{w} < {exp}");
        let ceiling = exp + (exp as f64 * frac).ceil() as u64;
        prop_assert!(w <= ceiling, "{w} > {ceiling}");
    }

    /// The breaker opens after exactly `threshold` consecutive failures
    /// and any success resets the count.
    #[test]
    fn breaker_threshold_exact(threshold in 1u32..8, pre in 0u32..8) {
        use filterwatch_measure::{BreakerConfig, BreakerState, CircuitBreaker};
        use filterwatch_netsim::SimTime;
        let b = CircuitBreaker::new(BreakerConfig { failure_threshold: threshold, cooldown_secs: 10 });
        // `pre` failures short of the threshold, then a success: still closed.
        for _ in 0..pre.min(threshold - 1) {
            b.record_failure(SimTime::ZERO);
        }
        b.record_success();
        prop_assert_eq!(b.state(), BreakerState::Closed);
        for i in 0..threshold {
            prop_assert_eq!(b.state(), BreakerState::Closed, "open after {} of {}", i, threshold);
            b.record_failure(SimTime::ZERO);
        }
        prop_assert_eq!(b.state(), BreakerState::Open);
        prop_assert_eq!(b.trips(), 1);
    }

    /// The block-page library never classifies arbitrary text that lacks
    /// both vendor markers and denial wording... and never panics.
    #[test]
    fn blockpage_classifier_total(text in "[a-z0-9 .:/<>-]{0,200}") {
        let lib = BlockPageLibrary::standard();
        let _ = lib.classify(&text);
        // Clean marker-free text definitely does not classify.
        let clean = text
            .replace("cfru", "")
            .replace("cfauth", "")
            .replace("webadmin", "")
            .replace("netsweeper", "")
            .replace("websense", "")
            .replace("15871", "")
            .replace("blocked", "")
            .replace("denied", "")
            .replace("mcafee", "")
            .replace("via-proxy", "")
            .replace("blue coat", "")
            .replace("access restricted by network policy", "");
        prop_assert!(lib.classify(&clean).is_none(), "{clean:?}");
    }
}
