//! Typed campaign stages and the campaign descriptor.
//!
//! A campaign's position in the methodology is an explicit value: one
//! of the [`StageState`] variants, with the case-study cursor and any
//! pending wait deadline inside it. The orchestrator only ever holds a
//! campaign *between* stages, so a [`StageState`] plus the campaign's
//! [`CampaignDescriptor`] (which world to rebuild) is exactly what a
//! checkpoint needs to carry. Both render in the workspace's
//! `to_line`/`parse_line` wire discipline and are registered as
//! w1 wire pairs in `filterwatch-lint`.

use filterwatch_core::campaign::Campaign;
use filterwatch_measure::ResilienceConfig;
use filterwatch_trace::TraceMode;

/// Which campaign a descriptor rebuilds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignKind {
    /// The paper's full campaign: ten Table 3 case studies.
    Standard,
    /// The reduced four-case demo campaign.
    Demo,
    /// A testkit generated-world campaign (the factory that owns the
    /// seed decides the topology).
    Generated,
}

impl CampaignKind {
    /// Stable wire token.
    pub fn to_token(&self) -> &'static str {
        match self {
            CampaignKind::Standard => "standard",
            CampaignKind::Demo => "demo",
            CampaignKind::Generated => "generated",
        }
    }

    /// Invert [`CampaignKind::to_token`].
    pub fn parse_token(token: &str) -> Result<CampaignKind, String> {
        match token {
            "standard" => Ok(CampaignKind::Standard),
            "demo" => Ok(CampaignKind::Demo),
            "generated" => Ok(CampaignKind::Generated),
            other => Err(format!("unknown campaign kind {other:?}")),
        }
    }
}

/// Everything needed to rebuild a campaign's world from scratch: the
/// campaign kind, its seed, and the chaos/trace toggles. Since worlds
/// are pure functions of the seed, this is the whole identity of a
/// campaign — a checkpoint carries a descriptor instead of any world
/// state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignDescriptor {
    /// Which campaign to rebuild.
    pub kind: CampaignKind,
    /// World seed.
    pub seed: u64,
    /// Arm measurement clients with the chaos resilience config.
    pub chaos: bool,
    /// Record a full causal trace.
    pub trace: bool,
}

impl CampaignDescriptor {
    /// A clean descriptor for the given kind and seed.
    pub fn new(kind: CampaignKind, seed: u64) -> CampaignDescriptor {
        CampaignDescriptor {
            kind,
            seed,
            chaos: false,
            trace: false,
        }
    }

    /// Builder-style: arm the chaos resilience config.
    pub fn with_chaos(mut self) -> CampaignDescriptor {
        self.chaos = true;
        self
    }

    /// Builder-style: record a full causal trace.
    pub fn with_trace(mut self) -> CampaignDescriptor {
        self.trace = true;
        self
    }

    /// Apply the chaos and trace toggles to the campaign this
    /// descriptor names.
    pub fn configure(&self, mut campaign: Campaign) -> Campaign {
        if self.chaos {
            campaign = campaign.with_resilience(ResilienceConfig::chaos());
        }
        if self.trace {
            campaign = campaign.with_trace(TraceMode::Full);
        }
        campaign
    }

    /// Stable one-line rendering: `kind:seed` plus optional `:chaos`
    /// and `:trace` flags.
    pub fn to_line(&self) -> String {
        let mut line = format!("{}:{}", self.kind.to_token(), self.seed);
        if self.chaos {
            line.push_str(":chaos");
        }
        if self.trace {
            line.push_str(":trace");
        }
        line
    }

    /// Invert [`CampaignDescriptor::to_line`].
    pub fn parse_line(line: &str) -> Result<CampaignDescriptor, String> {
        let mut parts = line.split(':');
        let kind = CampaignKind::parse_token(parts.next().unwrap_or_default())?;
        let seed = parts
            .next()
            .ok_or_else(|| format!("missing seed in {line:?}"))?
            .parse()
            .map_err(|e| format!("bad seed in {line:?}: {e}"))?;
        let mut descriptor = CampaignDescriptor::new(kind, seed);
        for flag in parts {
            match flag {
                "chaos" => descriptor.chaos = true,
                "trace" => descriptor.trace = true,
                other => return Err(format!("unknown descriptor flag {other:?} in {line:?}")),
            }
        }
        Ok(descriptor)
    }
}

/// Where a campaign stands in the methodology. The per-case stages
/// carry the case-study cursor; `Wait` additionally carries the
/// absolute virtual-clock deadline the timer queue fires at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageState {
    /// Stage 1: identify installations across the simulated Internet.
    Identify,
    /// Stage 2a: open case scopes, create controlled sites, pre-verify.
    Baseline {
        /// Case-study index (spec order).
        case: usize,
    },
    /// Stage 2b: submit the chosen subset to the vendor channel.
    Submit {
        /// Case-study index (spec order).
        case: usize,
    },
    /// Stage 2c: parked until the vendor review period elapses.
    Wait {
        /// Case-study index (spec order).
        case: usize,
        /// Absolute virtual-clock deadline in seconds.
        deadline_secs: u64,
    },
    /// Stage 2d: retest every site and render the case verdict.
    Retest {
        /// Case-study index (spec order).
        case: usize,
    },
    /// Stage 3: characterize every ISP where some product confirmed.
    Characterize,
    /// Nothing left to execute.
    Done,
}

impl StageState {
    /// Stable one-line rendering: the stage token, the case cursor for
    /// per-case stages, and the deadline for `Wait`.
    pub fn to_line(&self) -> String {
        match self {
            StageState::Identify => "identify".to_string(),
            StageState::Baseline { case } => format!("baseline:{case}"),
            StageState::Submit { case } => format!("submit:{case}"),
            StageState::Wait {
                case,
                deadline_secs,
            } => format!("wait:{case}:{deadline_secs}"),
            StageState::Retest { case } => format!("retest:{case}"),
            StageState::Characterize => "characterize".to_string(),
            StageState::Done => "done".to_string(),
        }
    }

    /// Invert [`StageState::to_line`].
    pub fn parse_line(line: &str) -> Result<StageState, String> {
        let mut parts = line.split(':');
        let head = parts.next().unwrap_or_default();
        let mut case_of = |what: &str| -> Result<usize, String> {
            parts
                .next()
                .ok_or_else(|| format!("missing {what} in {line:?}"))?
                .parse()
                .map_err(|e| format!("bad {what} in {line:?}: {e}"))
        };
        let stage = match head {
            "identify" => StageState::Identify,
            "baseline" => StageState::Baseline {
                case: case_of("case index")?,
            },
            "submit" => StageState::Submit {
                case: case_of("case index")?,
            },
            "wait" => StageState::Wait {
                case: case_of("case index")?,
                deadline_secs: case_of("deadline secs")? as u64,
            },
            "retest" => StageState::Retest {
                case: case_of("case index")?,
            },
            "characterize" => StageState::Characterize,
            "done" => StageState::Done,
            other => return Err(format!("unknown stage token {other:?}")),
        };
        if parts.next().is_some() {
            return Err(format!("trailing fields in stage line {line:?}"));
        }
        Ok(stage)
    }

    /// The case-study cursor, for the per-case stages.
    pub fn case(&self) -> Option<usize> {
        match self {
            StageState::Baseline { case }
            | StageState::Submit { case }
            | StageState::Wait { case, .. }
            | StageState::Retest { case } => Some(*case),
            _ => None,
        }
    }

    /// Whether two stages are the same boundary, ignoring the `Wait`
    /// deadline payload (which replay recomputes and cross-checks).
    pub fn same_boundary(&self, other: &StageState) -> bool {
        match (self, other) {
            (StageState::Wait { case: a, .. }, StageState::Wait { case: b, .. }) => a == b,
            _ => self == other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_lines_round_trip() {
        let stages = [
            StageState::Identify,
            StageState::Baseline { case: 0 },
            StageState::Submit { case: 3 },
            StageState::Wait {
                case: 2,
                deadline_secs: 3_456_000,
            },
            StageState::Retest { case: 9 },
            StageState::Characterize,
            StageState::Done,
        ];
        for stage in &stages {
            assert_eq!(StageState::parse_line(&stage.to_line()), Ok(stage.clone()));
        }
        assert!(StageState::parse_line("").is_err());
        assert!(StageState::parse_line("baseline").is_err());
        assert!(StageState::parse_line("wait:1").is_err());
        assert!(StageState::parse_line("identify:0").is_err());
        assert!(StageState::parse_line("quarantine:1").is_err());
    }

    #[test]
    fn descriptor_lines_round_trip() {
        let descriptors = [
            CampaignDescriptor::new(CampaignKind::Standard, 5),
            CampaignDescriptor::new(CampaignKind::Demo, 19).with_trace(),
            CampaignDescriptor::new(CampaignKind::Generated, 7).with_chaos(),
            CampaignDescriptor::new(CampaignKind::Demo, u64::MAX)
                .with_chaos()
                .with_trace(),
        ];
        for d in &descriptors {
            assert_eq!(CampaignDescriptor::parse_line(&d.to_line()), Ok(d.clone()));
        }
        assert!(CampaignDescriptor::parse_line("demo").is_err());
        assert!(CampaignDescriptor::parse_line("demo:x").is_err());
        assert!(CampaignDescriptor::parse_line("demo:5:loud").is_err());
        assert!(CampaignDescriptor::parse_line("paper:5").is_err());
    }

    #[test]
    fn same_boundary_ignores_wait_deadline() {
        let a = StageState::Wait {
            case: 1,
            deadline_secs: 100,
        };
        let b = StageState::Wait {
            case: 1,
            deadline_secs: 999,
        };
        assert!(a.same_boundary(&b));
        assert!(!a.same_boundary(&StageState::Wait {
            case: 2,
            deadline_secs: 100
        }));
        assert!(!a.same_boundary(&StageState::Retest { case: 1 }));
    }
}
