//! Multi-literal matching: an Aho-Corasick automaton and the
//! query-compiled [`CompiledPatternSet`] built on top of it.
//!
//! The paper's hot loops all ask the same question — *which of these N
//! known signatures appear in this text?* — and answering it with N
//! independent scans is what makes Stage 1 O(keywords × countries ×
//! records). The [`Automaton`] here answers it in **one pass**: every
//! literal needle is compiled into a single goto/fail machine with case
//! folding built into the transition table, so matching cost is
//! O(text length), independent of how many signatures are loaded.
//!
//! Not every [`Pattern`] is a literal. Wildcards (`*`, `?`), character
//! classes and anchors need the backtracking matcher, so
//! [`CompiledPatternSet`] keeps those as a *verified fallback tier*:
//! literal branches (including each arm of a literal-only alternation)
//! go into the automaton, and everything else is verified with the
//! ordinary engine — but only on texts where the automaton pass found
//! every literal factor of one of its branches. The union reproduces
//! [`PatternSet::matches`] exactly — a property pinned by differential
//! proptests.

use std::collections::{BTreeMap, VecDeque};

use crate::set::{PatternSet, SetMatch};
use crate::token::Token;
use crate::Pattern;

/// An Aho-Corasick automaton over byte strings.
///
/// Needles carry caller-assigned dense ids (indices into whatever
/// collection the caller is matching for); several needles may share an
/// id — the id matches when *any* of its needles occurs. With `fold`
/// enabled both needles and scanned text are ASCII-case-folded, giving
/// the same semantics as a case-insensitive [`Pattern`] literal.
#[derive(Debug, Clone, Default)]
pub struct Automaton {
    /// Flattened dense transition table: `next[state * 256 + byte]`.
    /// Entries whose target state completes at least one needle carry
    /// [`Automaton::OUT_FLAG`] in the high bit, so the scan loop pays
    /// exactly one load per byte and only touches `out` on a hit.
    next: Vec<u32>,
    /// Ids completed at each state (fail-closure already merged in).
    out: Vec<Vec<u32>>,
    /// ASCII-case-fold needles and text.
    fold: bool,
    /// One past the largest id inserted (sizes the per-scan hit table).
    id_space: usize,
    /// Number of distinct ids inserted (enables early exit).
    distinct_ids: usize,
    /// Bitmask of bytes with a root transition: while the machine sits
    /// in the root state, bytes outside this set advance the cursor
    /// without a transition-table load.
    root_mask: [u64; 4],
}

impl Automaton {
    /// High bit of a transition entry: the target state has outputs.
    const OUT_FLAG: u32 = 1 << 31;
    /// Mask clearing [`Automaton::OUT_FLAG`] to recover the state id.
    const STATE_MASK: u32 = Self::OUT_FLAG - 1;

    /// Compile an automaton from `(id, needle)` pairs.
    pub fn new<I, S>(needles: I, fold: bool) -> Self
    where
        I: IntoIterator<Item = (usize, S)>,
        S: AsRef<str>,
    {
        // Trie construction.
        let mut goto_: Vec<BTreeMap<u8, u32>> = vec![BTreeMap::new()];
        let mut out: Vec<Vec<u32>> = vec![Vec::new()];
        let mut id_space = 0usize;
        let mut seen_ids: Vec<u32> = Vec::new();
        for (id, needle) in needles {
            id_space = id_space.max(id + 1);
            let id = id as u32;
            if !seen_ids.contains(&id) {
                seen_ids.push(id);
            }
            let mut state = 0usize;
            for &raw in needle.as_ref().as_bytes() {
                let b = if fold { raw.to_ascii_lowercase() } else { raw };
                state = match goto_[state].get(&b) {
                    Some(&next) => next as usize,
                    None => {
                        goto_.push(BTreeMap::new());
                        out.push(Vec::new());
                        let next = (goto_.len() - 1) as u32;
                        goto_[state].insert(b, next);
                        next as usize
                    }
                };
            }
            if !out[state].contains(&id) {
                out[state].push(id);
            }
        }

        // Breadth-first fail links, flattened into a dense table. A
        // state's missing transitions are filled from its fail state
        // (already dense by the time the state is visited), and its
        // output set absorbs the fail state's, so scanning never walks
        // fail chains.
        let states = goto_.len();
        let mut next = vec![0u32; states * 256];
        let mut fail = vec![0u32; states];
        let mut queue = VecDeque::new();
        for b in 0..=255u8 {
            if let Some(&s) = goto_[0].get(&b) {
                next[b as usize] = s;
                queue.push_back(s as usize);
            }
        }
        while let Some(state) = queue.pop_front() {
            let f = fail[state] as usize;
            let inherited: Vec<u32> = out[f]
                .iter()
                .copied()
                .filter(|id| !out[state].contains(id))
                .collect();
            out[state].extend(inherited);
            for b in 0..=255u8 {
                let slot = state * 256 + b as usize;
                match goto_[state].get(&b) {
                    Some(&t) => {
                        fail[t as usize] = next[f * 256 + b as usize];
                        next[slot] = t;
                        queue.push_back(t as usize);
                    }
                    None => next[slot] = next[f * 256 + b as usize],
                }
            }
        }
        for ids in &mut out {
            ids.sort_unstable();
        }

        // Flag every transition whose target completes a needle, and
        // record which bytes leave the root at all — the two facts the
        // scan loop's fast paths key on.
        let has_out: Vec<bool> = out.iter().map(|ids| !ids.is_empty()).collect();
        for slot in &mut next {
            if has_out[*slot as usize] {
                *slot |= Self::OUT_FLAG;
            }
        }
        let mut root_mask = [0u64; 4];
        for &b in goto_[0].keys() {
            root_mask[(b >> 6) as usize] |= 1u64 << (b & 63);
        }

        Automaton {
            next,
            out,
            fold,
            id_space,
            distinct_ids: seen_ids.len(),
            root_mask,
        }
    }

    /// The byte the transition table is keyed on for raw input `raw`.
    #[inline(always)]
    fn scan_byte(&self, raw: u8) -> u8 {
        if self.fold {
            raw.to_ascii_lowercase()
        } else {
            raw
        }
    }

    /// Whether `b` (already folded) has a root transition.
    #[inline(always)]
    fn leaves_root(&self, b: u8) -> bool {
        self.root_mask[(b >> 6) as usize] & (1u64 << (b & 63)) != 0
    }

    /// Whether the automaton holds no needles.
    pub fn is_empty(&self) -> bool {
        self.distinct_ids == 0
    }

    /// Number of distinct needle ids compiled in.
    pub fn len(&self) -> usize {
        self.distinct_ids
    }

    /// Whether this automaton ASCII-case-folds text while scanning.
    pub fn is_case_insensitive(&self) -> bool {
        self.fold
    }

    /// Ids whose needles occur anywhere in `text`, ascending. One pass
    /// over the text; exits early once every id has matched.
    pub fn matched_ids(&self, text: &str) -> Vec<usize> {
        let mut hit = Vec::new();
        let mut found = Vec::new();
        self.matched_ids_into(text, &mut hit, &mut found);
        found
    }

    /// As [`matched_ids`](Self::matched_ids), writing into
    /// caller-provided buffers so a sweep over a large corpus performs
    /// no per-record allocation. `hit` is scratch (resized/reset here);
    /// `found` receives the ascending matched ids.
    pub fn matched_ids_into(&self, text: &str, hit: &mut Vec<bool>, found: &mut Vec<usize>) {
        found.clear();
        if self.distinct_ids == 0 {
            return;
        }
        hit.clear();
        hit.resize(self.id_space, false);
        let mut remaining = self.distinct_ids;
        // Root outputs are empty needles: they match any text.
        for &id in &self.out[0] {
            hit[id as usize] = true;
            found.push(id as usize);
            remaining -= 1;
        }
        if remaining > 0 {
            let mut state = 0u32;
            for &raw in text.as_bytes() {
                let b = self.scan_byte(raw);
                // Root fast path: while at the root, bytes that start
                // no needle can skip the transition-table load.
                if state == 0 && !self.leaves_root(b) {
                    continue;
                }
                let entry = self.next[state as usize * 256 + b as usize];
                state = entry & Self::STATE_MASK;
                if entry & Self::OUT_FLAG != 0 {
                    for &id in &self.out[state as usize] {
                        if !hit[id as usize] {
                            hit[id as usize] = true;
                            found.push(id as usize);
                            remaining -= 1;
                        }
                    }
                    if remaining == 0 {
                        break;
                    }
                }
            }
        }
        found.sort_unstable();
    }

    /// Whether any needle occurs in `text`.
    pub fn is_match(&self, text: &str) -> bool {
        if self.distinct_ids == 0 {
            return false;
        }
        if !self.out[0].is_empty() {
            return true;
        }
        let mut state = 0u32;
        for &raw in text.as_bytes() {
            let b = self.scan_byte(raw);
            if state == 0 && !self.leaves_root(b) {
                continue;
            }
            let entry = self.next[state as usize * 256 + b as usize];
            if entry & Self::OUT_FLAG != 0 {
                return true;
            }
            state = entry;
        }
        false
    }
}

/// If every branch of `pattern` is an unanchored literal, the needle
/// list (one per branch); otherwise `None` and the pattern needs the
/// backtracking engine.
fn literal_needles(pattern: &Pattern) -> Option<Vec<String>> {
    let mut needles = Vec::new();
    for branch in pattern.branches() {
        if branch.anchored_start || branch.anchored_end {
            return None;
        }
        match branch.tokens.as_slice() {
            [] => needles.push(String::new()),
            [Token::Literal(lit)] => needles.push(lit.clone()),
            _ => return None,
        }
    }
    Some(needles)
}

/// A pattern in the backtracking tier, with the literal factors each
/// of its branches requires.
#[derive(Debug, Clone)]
struct Fallback {
    /// Entry index in the set.
    index: usize,
    /// The pattern the verifier runs.
    pattern: Pattern,
    /// Per branch, the automaton ids of its non-empty literal tokens.
    /// A branch can only match text in which every one of its factors
    /// occurs; a branch with no factors can match any text.
    branches: Vec<Vec<usize>>,
}

impl Fallback {
    /// Whether some branch has all of its factors in `hit`.
    fn is_candidate(&self, hit: &[bool]) -> bool {
        self.branches
            .iter()
            .any(|factors| factors.iter().all(|&id| hit[id]))
    }
}

/// A [`PatternSet`] compiled for repeated querying.
///
/// Literal patterns (the overwhelming majority of scan keywords and
/// block-page signatures) are fused into two [`Automaton`]s — one
/// case-folding, one exact — while wildcard/class/anchored patterns
/// remain a fallback tier verified with the backtracking engine. Each
/// fallback branch's literal tokens ride the same automatons as extra
/// needles (ids past the set's own entries), so the one scan that
/// answers the literal tier also says which fallback patterns could
/// match at all; only those reach the verifier. Match results are
/// identical to the uncompiled set's, in the same insertion order.
#[derive(Debug, Clone)]
pub struct CompiledPatternSet {
    set: PatternSet,
    folded: Automaton,
    exact: Automaton,
    fallback: Vec<Fallback>,
    /// Set entries plus fallback factors: the size of the hit table.
    id_space: usize,
}

impl CompiledPatternSet {
    /// Compile `set`. The set is consumed and kept inside (entry
    /// indices and iteration order are preserved).
    pub fn compile(set: PatternSet) -> Self {
        let mut folded_needles: Vec<(usize, String)> = Vec::new();
        let mut exact_needles: Vec<(usize, String)> = Vec::new();
        let mut fallback = Vec::new();
        let mut id_space = set.len();
        for (index, (_, pattern)) in set.iter().enumerate() {
            // Factors of a case-insensitive pattern are matched by the
            // folding automaton: its bytewise ASCII fold is the same
            // comparison the backtracking matcher makes.
            let bucket = if pattern.is_case_insensitive() {
                &mut folded_needles
            } else {
                &mut exact_needles
            };
            match literal_needles(pattern) {
                Some(needles) => bucket.extend(needles.into_iter().map(|n| (index, n))),
                None => {
                    let mut branches = Vec::new();
                    for branch in pattern.branches() {
                        let mut factors = Vec::new();
                        for token in &branch.tokens {
                            if let Token::Literal(lit) = token {
                                if !lit.is_empty() {
                                    bucket.push((id_space, lit.clone()));
                                    factors.push(id_space);
                                    id_space += 1;
                                }
                            }
                        }
                        branches.push(factors);
                    }
                    fallback.push(Fallback {
                        index,
                        pattern: pattern.clone(),
                        branches,
                    });
                }
            }
        }
        CompiledPatternSet {
            folded: Automaton::new(folded_needles, true),
            exact: Automaton::new(exact_needles, false),
            fallback,
            id_space,
            set,
        }
    }

    /// The underlying pattern set.
    pub fn set(&self) -> &PatternSet {
        &self.set
    }

    /// Number of patterns compiled in.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the compiled set holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// How many patterns fell back to the backtracking engine.
    pub fn fallback_len(&self) -> usize {
        self.fallback.len()
    }

    /// Indices (in insertion order) of the entries matching `text`.
    /// One pass of each automaton over the text answers the literal
    /// entries and the fallback factors; the backtracking verifier runs
    /// only on fallback patterns whose factors all occurred.
    pub fn matching_indices(&self, text: &str) -> Vec<usize> {
        let mut hit = vec![false; self.id_space];
        let mut scratch = Vec::new();
        let mut found = Vec::new();
        for automaton in [&self.folded, &self.exact] {
            automaton.matched_ids_into(text, &mut scratch, &mut found);
            for &id in &found {
                hit[id] = true;
            }
        }
        for fallback in &self.fallback {
            if fallback.is_candidate(&hit) && fallback.pattern.is_match(text) {
                hit[fallback.index] = true;
            }
        }
        hit[..self.set.len()]
            .iter()
            .enumerate()
            .filter_map(|(index, &h)| h.then_some(index))
            .collect()
    }

    /// All matches against `text`, in insertion order — same contract as
    /// [`PatternSet::matches`].
    pub fn matches<'a>(&'a self, text: &str) -> Vec<SetMatch<'a>> {
        self.matching_indices(text)
            .into_iter()
            .map(|index| {
                let (name, pattern) = self.set.get(index).expect("index in range");
                SetMatch { name, pattern }
            })
            .collect()
    }

    /// Names (deduplicated, insertion order) whose patterns match
    /// `text` — same contract as [`PatternSet::matching_names`].
    pub fn matching_names<'a>(&'a self, text: &str) -> Vec<&'a str> {
        let mut names: Vec<&str> = Vec::new();
        for m in self.matches(text) {
            if !names.contains(&m.name) {
                names.push(m.name);
            }
        }
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pass_matches_every_needle() {
        let a = Automaton::new([(0, "proxysg"), (1, "webadmin"), (2, "cfru=")], true);
        assert_eq!(
            a.matched_ids("GET /WebAdmin/ ProxySG cfru=x"),
            vec![0, 1, 2]
        );
        assert_eq!(a.matched_ids("nothing here"), Vec::<usize>::new());
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
    }

    #[test]
    fn overlapping_needles_all_fire() {
        // "she"/"he"/"hers" — the classic fail-link exercise.
        let a = Automaton::new([(0, "she"), (1, "he"), (2, "hers")], false);
        assert_eq!(a.matched_ids("ushers"), vec![0, 1, 2]);
        assert_eq!(a.matched_ids("he"), vec![1]);
    }

    #[test]
    fn case_folding_is_built_in() {
        let folded = Automaton::new([(0, "NetSweeper")], true);
        assert!(folded.is_match("server: NETSWEEPER/5.0"));
        assert!(folded.is_case_insensitive());
        let exact = Automaton::new([(0, "NetSweeper")], false);
        assert!(exact.is_match("NetSweeper here"));
        assert!(!exact.is_match("netsweeper here"));
    }

    #[test]
    fn shared_ids_union_their_needles() {
        let a = Automaton::new([(0, "proxysg"), (0, "cfru="), (1, "webadmin")], true);
        assert_eq!(a.matched_ids("cfru=zzz"), vec![0]);
        assert_eq!(a.matched_ids("proxysg"), vec![0]);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn empty_needle_matches_everything() {
        let a = Automaton::new([(0, ""), (1, "x")], true);
        assert_eq!(a.matched_ids(""), vec![0]);
        assert_eq!(a.matched_ids("axb"), vec![0, 1]);
        assert!(a.is_match(""));
    }

    #[test]
    fn empty_automaton_matches_nothing() {
        let a = Automaton::new(Vec::<(usize, &str)>::new(), true);
        assert!(a.is_empty());
        assert!(a.matched_ids("anything").is_empty());
        assert!(!a.is_match("anything"));
    }

    #[test]
    fn multibyte_text_is_byte_matched() {
        let a = Automaton::new([(0, "blocké")], true);
        assert!(a.is_match("page BLOCKé fin"));
        assert!(!a.is_match("page blocke fin"));
    }

    fn sample_set() -> PatternSet {
        let mut set = PatternSet::new();
        set.insert_parsed("bluecoat", "proxysg").unwrap();
        set.insert_parsed("bluecoat", "cfru=").unwrap();
        set.insert_parsed("netsweeper", "web page blocked*netsweeper")
            .unwrap();
        set.insert_parsed("websense", ":15871/*blockpage.cgi")
            .unwrap();
        set.insert_parsed("generic", "access denied|has been blocked")
            .unwrap();
        set.insert("exact", Pattern::parse_case_sensitive("ProxySG").unwrap());
        set
    }

    #[test]
    fn compiled_set_equals_uncompiled() {
        let set = sample_set();
        let compiled = CompiledPatternSet::compile(set.clone());
        let texts = [
            "Server: ProxySG",
            "server: proxysg",
            "http://x/?cfru=abc",
            "<title>Web Page Blocked</title> by netsweeper",
            "Location: http://gw:15871/cgi-bin/blockpage.cgi",
            "ACCESS DENIED",
            "the page has been blocked",
            "nothing at all",
        ];
        for text in texts {
            let naive: Vec<&str> = set.matches(text).iter().map(|m| m.name).collect();
            let fast: Vec<&str> = compiled.matches(text).iter().map(|m| m.name).collect();
            assert_eq!(naive, fast, "text={text:?}");
            assert_eq!(set.matching_names(text), compiled.matching_names(text));
        }
    }

    #[test]
    fn wildcards_take_the_fallback_tier() {
        let compiled = CompiledPatternSet::compile(sample_set());
        // Two wildcard patterns fall back; literals and the literal
        // alternation compile into the automatons.
        assert_eq!(compiled.fallback_len(), 2);
        assert_eq!(compiled.len(), 6);
        assert!(!compiled.is_empty());
    }

    #[test]
    fn anchored_literals_fall_back() {
        let mut set = PatternSet::new();
        set.insert_parsed("a", "^deny").unwrap();
        set.insert_parsed("b", "deny$").unwrap();
        let compiled = CompiledPatternSet::compile(set);
        assert_eq!(compiled.fallback_len(), 2);
        assert_eq!(compiled.matching_names("deny"), vec!["a", "b"]);
        assert!(compiled.matching_names("odenyo").is_empty());
    }

    #[test]
    fn matched_ids_into_reuses_buffers() {
        let needles = vec![
            (0usize, "proxysg".to_string()),
            (1, "netsweeper".to_string()),
            (2, "webadmin".to_string()),
        ];
        let automaton = Automaton::new(needles, true);
        let mut hit = Vec::new();
        let mut found = Vec::new();
        automaton.matched_ids_into("Server: ProxySG webadmin", &mut hit, &mut found);
        assert_eq!(found, vec![0, 2]);
        // Second call on the same buffers starts clean.
        automaton.matched_ids_into("netsweeper/5.1", &mut hit, &mut found);
        assert_eq!(found, vec![1]);
        assert_eq!(found, automaton.matched_ids("netsweeper/5.1"));
        automaton.matched_ids_into("nothing here", &mut hit, &mut found);
        assert!(found.is_empty());
    }

    #[test]
    fn fallback_factors_gate_the_verifier() {
        let mut set = PatternSet::new();
        set.insert_parsed("ns", "web page blocked*netsweeper")
            .unwrap();
        set.insert_parsed("free", "zz*|[0-9]?x").unwrap();
        set.insert("exact", Pattern::parse_case_sensitive("Ab*Cd").unwrap());
        let compiled = CompiledPatternSet::compile(set.clone());
        assert_eq!(compiled.fallback_len(), 3);
        for text in [
            "WEB PAGE BLOCKED by NetSweeper",
            "netsweeper before web page blocked",
            "web page blocked only",
            "7yx",
            "Ab then Cd",
            "ab then cd",
            "Cd then Ab",
            "",
        ] {
            assert_eq!(
                set.matching_names(text),
                compiled.matching_names(text),
                "text={text:?}"
            );
        }
    }
}
