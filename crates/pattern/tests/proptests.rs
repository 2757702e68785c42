//! Property-based tests for the pattern engine.

use filterwatch_pattern::{Automaton, CompiledPatternSet, Pattern, PatternSet};
use proptest::prelude::*;

/// Escape every metacharacter so arbitrary text becomes a literal pattern.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    for c in text.chars() {
        if matches!(c, '*' | '?' | '[' | ']' | '^' | '$' | '|' | '\\') {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

proptest! {
    /// A literal pattern always matches text containing it as a substring.
    #[test]
    fn literal_matches_itself(s in "[a-zA-Z0-9 ./:=-]{0,40}", prefix in "[a-z]{0,10}", suffix in "[a-z]{0,10}") {
        let p = Pattern::literal(&s);
        let text = format!("{prefix}{s}{suffix}");
        prop_assert!(p.is_match(&text));
    }

    /// Escaped arbitrary text parses and matches itself exactly.
    #[test]
    fn escaped_text_round_trips(s in "\\PC{0,40}") {
        let p = Pattern::parse(&escape(&s)).unwrap();
        prop_assert!(p.is_match(&s), "pattern {:?} should match {:?}", p.source(), s);
    }

    /// Case-insensitivity: matching is invariant under ASCII case flips.
    #[test]
    fn ascii_case_is_ignored(s in "[a-zA-Z]{1,20}") {
        let p = Pattern::literal(&s);
        prop_assert!(p.is_match(&s.to_ascii_uppercase()));
        prop_assert!(p.is_match(&s.to_ascii_lowercase()));
    }

    /// `find` returns spans within bounds that really contain a match.
    #[test]
    fn find_span_is_in_bounds(hay in "\\PC{0,60}", needle in "[a-z]{1,6}") {
        let p = Pattern::literal(&needle);
        if let Some(span) = p.find(&hay) {
            prop_assert!(span.end <= hay.len());
            prop_assert!(span.start <= span.end);
            let slice = &hay[span.start..span.end];
            prop_assert!(slice.eq_ignore_ascii_case(&needle));
        }
    }

    /// A star between two halves matches any filling.
    #[test]
    fn star_bridges_anything(a in "[a-z]{1,8}", b in "[a-z]{1,8}", filler in "\\PC{0,30}") {
        let p = Pattern::parse(&format!("{a}*{b}")).unwrap();
        let text = format!("{a}{filler}{b}");
        prop_assert!(p.is_match(&text));
    }

    /// Anchored-both-ends literal equals string equality (mod case).
    #[test]
    fn full_anchor_is_equality(s in "[a-z0-9]{1,20}", t in "[a-z0-9]{1,20}") {
        let p = Pattern::parse(&format!("^{s}$")).unwrap();
        prop_assert_eq!(p.is_match(&t), s.eq_ignore_ascii_case(&t));
    }

    /// Alternation is the union of its branches.
    #[test]
    fn alternation_is_union(a in "[a-z]{1,8}", b in "[a-z]{1,8}", text in "[a-z ]{0,40}") {
        let pa = Pattern::parse(&a).unwrap();
        let pb = Pattern::parse(&b).unwrap();
        let pab = Pattern::parse(&format!("{a}|{b}")).unwrap();
        prop_assert_eq!(pab.is_match(&text), pa.is_match(&text) || pb.is_match(&text));
    }

    /// count_matches terminates and is bounded by text length + 1.
    #[test]
    fn count_matches_is_bounded(needle in "[a-z]{1,4}", hay in "[a-z]{0,60}") {
        let p = Pattern::parse(&needle).unwrap();
        let n = p.count_matches(&hay);
        prop_assert!(n <= hay.len() + 1);
    }

    /// The parser never panics on arbitrary input (errors are fine).
    #[test]
    fn parser_never_panics(src in "\\PC{0,60}") {
        let _ = Pattern::parse(&src);
    }

    /// Matching never panics even for patterns with classes/anchors.
    #[test]
    fn matcher_never_panics(src in "[a-z*?\\[\\]^$|\\\\0-9-]{0,20}", text in "\\PC{0,60}") {
        if let Ok(p) = Pattern::parse(&src) {
            let _ = p.is_match(&text);
            let _ = p.find(&text);
        }
    }

    /// The automaton's match set equals naive per-needle substring
    /// search for arbitrary texts and needle sets, in both case modes.
    #[test]
    fn automaton_equals_naive_substring(
        needles in proptest::collection::vec("[a-zA-Z0-9 /:.=-]{0,6}", 0..8),
        text in "\\PC{0,80}",
    ) {
        for fold in [true, false] {
            let automaton = Automaton::new(
                needles.iter().enumerate().map(|(i, n)| (i, n.as_str())),
                fold,
            );
            let expect: Vec<usize> = needles
                .iter()
                .enumerate()
                .filter(|(_, n)| {
                    if fold {
                        text.to_ascii_lowercase().contains(&n.to_ascii_lowercase())
                    } else {
                        text.contains(n.as_str())
                    }
                })
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(automaton.matched_ids(&text), expect, "fold={}", fold);
        }
    }

    /// A compiled pattern set answers exactly like the uncompiled one —
    /// literal tiers and wildcard fallback tier combined — for a mix of
    /// literal, alternation and wildcard patterns in both case modes.
    #[test]
    fn compiled_set_equals_pattern_set(
        literals in proptest::collection::vec("[a-zA-Z0-9 ]{0,6}", 0..5),
        wild_a in "[a-z]{1,4}", wild_b in "[a-z]{1,4}",
        text in "\\PC{0,60}",
        case_sensitive in proptest::collection::vec(any::<bool>(), 5),
    ) {
        let mut set = PatternSet::new();
        for (i, lit) in literals.iter().enumerate() {
            let escaped: String = lit.chars().flat_map(|c| {
                if matches!(c, '*' | '?' | '[' | ']' | '^' | '$' | '|' | '\\') {
                    vec!['\\', c]
                } else {
                    vec![c]
                }
            }).collect();
            let p = if case_sensitive[i % case_sensitive.len()] {
                Pattern::parse_case_sensitive(&escaped).unwrap()
            } else {
                Pattern::parse(&escaped).unwrap()
            };
            set.insert(format!("lit{i}"), p);
        }
        set.insert_parsed("wild", &format!("{wild_a}*{wild_b}")).unwrap();
        set.insert_parsed("alt", &format!("{wild_a}|{wild_b}?")).unwrap();

        let compiled = CompiledPatternSet::compile(set.clone());
        let naive: Vec<&str> = set.matches(&text).iter().map(|m| m.name).collect();
        let fast: Vec<&str> = compiled.matches(&text).iter().map(|m| m.name).collect();
        prop_assert_eq!(naive, fast);
        prop_assert_eq!(set.matching_names(&text), compiled.matching_names(&text));
    }

    /// A `?` consumes exactly one character.
    #[test]
    fn question_consumes_one(c in proptest::char::any(), rest in "[a-z]{1,5}") {
        let p = Pattern::parse(&format!("^?{}$", escape(&rest))).unwrap();
        let text = format!("{c}{rest}");
        prop_assert!(p.is_match(&text), "{:?} should match {:?}", p.source(), text);
        // Two leading characters must not match.
        let text2 = format!("x{c}{rest}");
        if text2.chars().count() != text.chars().count() {
            prop_assert!(!p.is_match(&text2));
        }
    }
}

/// What may sit between two literal factors of a generated wildcard
/// pattern.
const JOINS: &[&str] = &["*", "?", "[a-b]", "*?", "[!a]*", "*[A-Z]"];

/// Branches with no literal factor: they can match any text, so the
/// prefilter must always pass them to the verifier.
const FACTOR_FREE: &[&str] = &["*", "?", "[a-z]", "??", "[!a-z]"];

/// One alternation branch: `factors` joined by `JOINS[joins[..]]`.
fn factored_branch(factors: &[String], joins: &[usize], start: bool, end: bool) -> String {
    let mut src = String::new();
    if start {
        src.push('^');
    }
    for (i, factor) in factors.iter().enumerate() {
        if i > 0 {
            src.push_str(JOINS[joins[i % joins.len()] % JOINS.len()]);
        }
        src.push_str(factor);
    }
    if end {
        src.push('$');
    }
    src
}

/// Append `next` to `text`, sharing the longest suffix of `text` that
/// is a prefix of `next`, so the two occurrences overlap.
fn push_overlapping(text: &mut String, next: &str) {
    let shared = (0..=next.len().min(text.len()))
        .rev()
        .find(|&k| text.ends_with(&next[..k]))
        .unwrap_or(0);
    text.push_str(&next[shared..]);
}

/// Flip the ASCII case of every character.
fn flip_case(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_lowercase() {
                c.to_ascii_uppercase()
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The compiled set's factor prefilter never changes an answer:
    /// wildcard patterns with 2–4 literal factors (anchored or not,
    /// alternated with factor-free and reordered branches, in both case
    /// modes) match exactly as the uncompiled set does, on texts that
    /// splice the factors in order, out of order, overlapping, partly
    /// missing and with ASCII case flipped.
    #[test]
    fn factor_prefilter_equals_pattern_set(
        factors in proptest::collection::vec("[abAB.]{1,4}", 2..5),
        joins in proptest::collection::vec(0usize..64, 4),
        anchors in (any::<bool>(), any::<bool>()),
        free in proptest::option::of(0usize..64),
        reordered in any::<bool>(),
        case_sensitive in proptest::collection::vec(any::<bool>(), 4),
        order in proptest::collection::vec(any::<u8>(), 4),
        keep in proptest::collection::vec(0u8..8, 4),
        flip in proptest::collection::vec(any::<bool>(), 4),
        fillers in proptest::collection::vec("[abAB .]{0,3}", 5),
    ) {
        let parse = |src: &str, i: usize| {
            if case_sensitive[i] {
                Pattern::parse_case_sensitive(src)
            } else {
                Pattern::parse(src)
            }
            .unwrap()
        };
        let mut main = factored_branch(&factors, &joins, anchors.0, anchors.1);
        if reordered {
            let reversed: Vec<String> = factors.iter().rev().cloned().collect();
            main = format!("{main}|{}", factored_branch(&reversed, &joins[1..], false, false));
        }
        if let Some(free) = free {
            main = format!("{main}|{}", FACTOR_FREE[free % FACTOR_FREE.len()]);
        }
        let mut set = PatternSet::new();
        set.insert("main", parse(&main, 0));
        set.insert("pair", parse(&format!("{}*{}", factors[1], factors[0]), 1));
        set.insert("literal", parse(&escape(&factors[0]), 2));
        set.insert("anchored", parse(&format!("^*{}?", factors[factors.len() - 1]), 3));
        let compiled = CompiledPatternSet::compile(set.clone());
        prop_assert!(compiled.fallback_len() >= 3);

        // Factors in a shuffled order, each kept with probability 7/8
        // and case-flipped at random.
        let mut picked: Vec<usize> = (0..factors.len()).collect();
        picked.sort_by_key(|&i| order[i]);
        let spliced: Vec<String> = picked
            .iter()
            .filter(|&&i| keep[i] != 0)
            .map(|&i| if flip[i] { flip_case(&factors[i]) } else { factors[i].clone() })
            .collect();
        let mut separated = String::new();
        let mut overlapped = String::new();
        for (i, factor) in spliced.iter().enumerate() {
            separated.push_str(&fillers[i]);
            separated.push_str(factor);
            push_overlapping(&mut overlapped, factor);
        }
        separated.push_str(&fillers[4]);
        let mut in_order = String::new();
        for factor in &factors {
            push_overlapping(&mut in_order, factor);
        }
        let texts = [
            separated.clone(),
            overlapped.clone(),
            in_order.clone(),
            flip_case(&in_order),
            factors.concat(),
            format!("{}{}", fillers[0], factors.join(&fillers[1])),
        ];
        for text in &texts {
            let naive: Vec<&str> = set.matches(text).iter().map(|m| m.name).collect();
            let fast: Vec<&str> = compiled.matches(text).iter().map(|m| m.name).collect();
            prop_assert_eq!(naive, fast, "patterns {:?} text {:?}", main, text);
            prop_assert_eq!(set.matching_names(text), compiled.matching_names(text));
        }
    }
}
