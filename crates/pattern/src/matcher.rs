//! Backtracking matcher over parsed pattern tokens.
//!
//! The token lists produced by the parser are short (signature patterns
//! run to a handful of tokens), so a simple recursive backtracking match
//! is both fast enough and easy to verify. The only source of
//! backtracking is `AnyRun` (`*`); literals, `?` and classes consume
//! deterministically.

use crate::token::Token;
use crate::{Branch, Pattern};

/// Byte span of a pattern match within the searched text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchSpan {
    /// Byte offset of the first matched byte.
    pub start: usize,
    /// Byte offset one past the last matched byte.
    pub end: usize,
}

impl MatchSpan {
    /// Length of the match in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the match is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Find the leftmost match of `pattern` in `text`.
pub(crate) fn find(pattern: &Pattern, text: &str) -> Option<MatchSpan> {
    find_at(pattern, text, 0)
}

/// Find the leftmost match of `pattern` in `text` at or after byte `from`.
pub(crate) fn find_at(pattern: &Pattern, text: &str, from: usize) -> Option<MatchSpan> {
    let mut best: Option<MatchSpan> = None;
    for branch in pattern.branches() {
        if let Some(span) = find_branch(branch, text, from, pattern.is_case_insensitive()) {
            match best {
                Some(b) if b.start <= span.start => {}
                _ => best = Some(span),
            }
        }
    }
    best
}

fn find_branch(branch: &Branch, text: &str, from: usize, fold: bool) -> Option<MatchSpan> {
    let try_at = |start: usize| {
        match_tokens(&branch.tokens, &text[start..], fold, branch.anchored_end).map(|end| {
            MatchSpan {
                start,
                end: start + end,
            }
        })
    };
    if branch.anchored_start {
        return if from == 0 { try_at(0) } else { None };
    }
    // Every char boundary at or after `from`, then the end of the text,
    // visited lazily so an early match stops the walk.
    text.char_indices()
        .map(|(i, _)| i)
        .skip_while(|&i| i < from)
        .chain((text.len() >= from).then_some(text.len()))
        .find_map(try_at)
}

/// Try to match the full token list against a prefix of `rest`.
/// Returns the number of bytes consumed on success.
fn match_tokens(tokens: &[Token], rest: &str, fold: bool, to_end: bool) -> Option<usize> {
    match tokens.split_first() {
        None => {
            if to_end && !rest.is_empty() {
                None
            } else {
                Some(0)
            }
        }
        Some((tok, tail)) => match tok {
            Token::Literal(lit) => {
                let consumed = literal_prefix_len(lit, rest, fold)?;
                match_tokens(tail, &rest[consumed..], fold, to_end).map(|n| n + consumed)
            }
            Token::AnyChar => {
                let c = rest.chars().next()?;
                let consumed = c.len_utf8();
                match_tokens(tail, &rest[consumed..], fold, to_end).map(|n| n + consumed)
            }
            Token::Class(class) => {
                let c = rest.chars().next()?;
                if !class.contains(c, fold) {
                    return None;
                }
                let consumed = c.len_utf8();
                match_tokens(tail, &rest[consumed..], fold, to_end).map(|n| n + consumed)
            }
            Token::AnyRun => {
                if tail.is_empty() {
                    // Trailing `*` greedily consumes the remainder when
                    // anchored, otherwise matches lazily (empty) — both
                    // choices are equivalent for `is_match`, but the span
                    // should be minimal for unanchored patterns.
                    return Some(if to_end { rest.len() } else { 0 });
                }
                // Lazy expansion: try every split point, shortest first.
                rest.char_indices()
                    .map(|(i, _)| i)
                    .chain(std::iter::once(rest.len()))
                    .find_map(|off| match_tokens(tail, &rest[off..], fold, to_end).map(|n| off + n))
            }
        },
    }
}

/// If `rest` starts with `lit` (subject to case folding), return the byte
/// length of the matched prefix.
fn literal_prefix_len(lit: &str, rest: &str, fold: bool) -> Option<usize> {
    if fold {
        // ASCII-insensitive comparison; non-ASCII compares exactly.
        let mut rb = rest.bytes();
        for lb in lit.bytes() {
            let r = rb.next()?;
            if !lb.eq_ignore_ascii_case(&r) {
                return None;
            }
        }
        Some(lit.len())
    } else if rest.as_bytes().starts_with(lit.as_bytes()) {
        Some(lit.len())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use crate::Pattern;

    #[test]
    fn leftmost_match_wins_across_branches() {
        let p = Pattern::parse("bbb|a").unwrap();
        let span = p.find("xxabbb").unwrap();
        assert_eq!((span.start, span.end), (2, 3));
    }

    #[test]
    fn anchored_start_only_matches_at_zero() {
        let p = Pattern::parse("^ab").unwrap();
        assert!(p.find("abc").is_some());
        assert!(p.find("zabc").is_none());
    }

    #[test]
    fn anchored_end_consumes_to_end() {
        let p = Pattern::parse("ab*$").unwrap();
        let span = p.find("zzabquux").unwrap();
        assert_eq!(span.end, 8);
    }

    #[test]
    fn span_len_helpers() {
        let p = Pattern::parse("abc").unwrap();
        let span = p.find("abc").unwrap();
        assert_eq!(span.len(), 3);
        assert!(!span.is_empty());
    }

    #[test]
    fn multibyte_text_is_handled() {
        let p = Pattern::parse("block*page").unwrap();
        assert!(p.is_match("célé block ✗ page fin"));
        let q = Pattern::parse("?").unwrap();
        assert!(q.is_match("é"));
    }

    #[test]
    fn class_in_context() {
        let p = Pattern::parse("port [0-9][0-9][0-9][0-9][0-9]").unwrap();
        assert!(p.is_match("redirects to port 15871 now"));
        assert!(!p.is_match("redirects to port 80 now"));
    }
}
