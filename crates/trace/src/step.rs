//! The closed vocabulary of causal steps.
//!
//! Every trace event names one [`StepKind`]; free-form data (URLs,
//! vantage names, verdict labels) lives in the event's key/value
//! fields, never in the token itself. Keeping the vocabulary closed is
//! what lets the w1-wire-pair lint prove `to_token`/`parse_token`
//! cover the same set.

/// One kind of step in a causal chain, from campaign root down to a
/// single middlebox hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StepKind {
    /// Root span of a full campaign run.
    Campaign,
    /// A pipeline stage (identify, confirm.submit, confirm.retest,
    /// characterize); `name` field carries which.
    Stage,
    /// One confirmation case study (ISP x product).
    Case,
    /// A URL submitted to a vendor categorization portal.
    Submit,
    /// Virtual-clock wait between submit and retest.
    Wait,
    /// One `test_url` invocation — the unit the provenance index keys on.
    UrlTest,
    /// One quorum trial within a URL test.
    Trial,
    /// One fetch attempt from a vantage (redirect-following).
    Fetch,
    /// A followed redirect hop inside a fetch.
    Redirect,
    /// A retry decision: backoff before the next fetch attempt.
    Retry,
    /// DNS resolution inside the simulated network.
    Dns,
    /// An injected path fault (timeout, reset, outage, …).
    PathFault,
    /// One middlebox hop and its action on the flow.
    MbHop,
    /// The origin server's reply (or connect failure).
    OriginReply,
    /// A fetch skipped because a vantage circuit breaker was open.
    BreakerOpen,
    /// A fingerprint plugin matching a product on a host.
    FpMatch,
    /// An installation candidate surfaced by the identify sweep.
    Candidate,
    /// The quorum decision across trials.
    Quorum,
    /// A verdict: per URL test, or per confirmation case.
    Verdict,
    /// A campaign checkpoint written at a stage boundary by the
    /// orchestrator (fields carry the stage cursor).
    Checkpoint,
    /// A campaign restored from a checkpoint; opened as a span so
    /// verdicts produced after the restore carry it in their ancestry.
    Resume,
    /// A timer-queue deadline firing (the scheduler waking a campaign
    /// parked in its `Wait` stage).
    SchedTimer,
}

/// All step kinds, in wire-token order (handy for tests and strategies).
pub const ALL_STEPS: &[StepKind] = &[
    StepKind::Campaign,
    StepKind::Stage,
    StepKind::Case,
    StepKind::Submit,
    StepKind::Wait,
    StepKind::UrlTest,
    StepKind::Trial,
    StepKind::Fetch,
    StepKind::Redirect,
    StepKind::Retry,
    StepKind::Dns,
    StepKind::PathFault,
    StepKind::MbHop,
    StepKind::OriginReply,
    StepKind::BreakerOpen,
    StepKind::FpMatch,
    StepKind::Candidate,
    StepKind::Quorum,
    StepKind::Verdict,
    StepKind::Checkpoint,
    StepKind::Resume,
    StepKind::SchedTimer,
];

impl StepKind {
    /// Stable wire token. Registered against [`StepKind::parse_token`]
    /// in the w1-wire-pair lint: every token emitted here must have a
    /// parse arm, and vice versa.
    pub fn to_token(&self) -> &'static str {
        match self {
            StepKind::Campaign => "campaign",
            StepKind::Stage => "stage",
            StepKind::Case => "case",
            StepKind::Submit => "submit",
            StepKind::Wait => "wait",
            StepKind::UrlTest => "url-test",
            StepKind::Trial => "trial",
            StepKind::Fetch => "fetch",
            StepKind::Redirect => "redirect",
            StepKind::Retry => "retry",
            StepKind::Dns => "dns",
            StepKind::PathFault => "path-fault",
            StepKind::MbHop => "mb-hop",
            StepKind::OriginReply => "origin-reply",
            StepKind::BreakerOpen => "breaker-open",
            StepKind::FpMatch => "fp-match",
            StepKind::Candidate => "candidate",
            StepKind::Quorum => "quorum",
            StepKind::Verdict => "verdict",
            StepKind::Checkpoint => "checkpoint",
            StepKind::Resume => "resume",
            StepKind::SchedTimer => "sched-timer",
        }
    }

    /// Invert [`StepKind::to_token`].
    pub fn parse_token(token: &str) -> Result<StepKind, String> {
        match token {
            "campaign" => Ok(StepKind::Campaign),
            "stage" => Ok(StepKind::Stage),
            "case" => Ok(StepKind::Case),
            "submit" => Ok(StepKind::Submit),
            "wait" => Ok(StepKind::Wait),
            "url-test" => Ok(StepKind::UrlTest),
            "trial" => Ok(StepKind::Trial),
            "fetch" => Ok(StepKind::Fetch),
            "redirect" => Ok(StepKind::Redirect),
            "retry" => Ok(StepKind::Retry),
            "dns" => Ok(StepKind::Dns),
            "path-fault" => Ok(StepKind::PathFault),
            "mb-hop" => Ok(StepKind::MbHop),
            "origin-reply" => Ok(StepKind::OriginReply),
            "breaker-open" => Ok(StepKind::BreakerOpen),
            "fp-match" => Ok(StepKind::FpMatch),
            "candidate" => Ok(StepKind::Candidate),
            "quorum" => Ok(StepKind::Quorum),
            "verdict" => Ok(StepKind::Verdict),
            "checkpoint" => Ok(StepKind::Checkpoint),
            "resume" => Ok(StepKind::Resume),
            "sched-timer" => Ok(StepKind::SchedTimer),
            other => Err(format!("unknown step token {other:?}")),
        }
    }

    /// Whether this step is a sampling unit: when the collector runs
    /// with `sample_every = n`, only every n-th subtree rooted at a
    /// sampled step is recorded. URL tests are the natural unit — at
    /// 10^5-host scale they dominate the log, while campaign/case/stage
    /// structure stays cheap and is always kept.
    pub fn is_sample_unit(&self) -> bool {
        matches!(self, StepKind::UrlTest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip_exhaustively() {
        for step in ALL_STEPS {
            assert_eq!(StepKind::parse_token(step.to_token()), Ok(*step));
        }
        assert!(StepKind::parse_token("nope").is_err());
        assert!(StepKind::parse_token("").is_err());
    }

    #[test]
    fn tokens_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for step in ALL_STEPS {
            assert!(seen.insert(step.to_token()), "duplicate {step:?}");
        }
        assert_eq!(seen.len(), ALL_STEPS.len());
    }

    #[test]
    fn only_url_tests_are_sample_units() {
        let units: Vec<_> = ALL_STEPS.iter().filter(|s| s.is_sample_unit()).collect();
        assert_eq!(units, vec![&StepKind::UrlTest]);
    }
}
