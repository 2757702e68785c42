//! Rule families and the cross-file analysis context.
//!
//! | rule              | family | severity | what it catches                                   |
//! |-------------------|--------|----------|---------------------------------------------------|
//! | `d1-wall-clock`   | D1     | error    | `Instant::now` / `SystemTime` outside the allow-listed `--wall` telemetry path |
//! | `d1-unseeded-rng` | D1     | error    | entropy-seeded RNG construction                   |
//! | `d1-env-read`     | D1     | error    | `std::env::var` of unregistered variables         |
//! | `d1-thread-spawn` | D1     | error    | spawned threads without an ordered-merge marker   |
//! | `d2-map-order`    | D2     | warning  | `HashMap`/`HashSet` iteration reaching render/report paths unsorted |
//! | `w1-wire-pair`    | W1     | error    | `to_line`/`to_token` emitters whose tokens lack a `parse_line`/`parse_token` arm (and vice versa) |
//! | `a1-deprecated`   | A1     | warning  | calls into the registered deprecated-API set      |
//! | `p1-panic`        | P1     | warning/info | `unwrap`/`panic!` (warning), `expect` (info) in library code |
//! | `h1-hot-alloc`    | H1     | warning  | allocation inside loops of functions reachable from registered hot entry points |
//! | `t1-sim-time`     | T1     | error    | backwards `SimTime` arithmetic outside the kernel; wall-clock durations feeding the virtual queue |
//! | `c1-spawn-merge`  | C1     | error    | spawn sites with no call-graph path to a sanctioned ordered-merge helper |
//! | `e1-enum-closure` | E1     | error    | registered enums not exhaustively handled at registered consumer sites |

pub mod a1;
pub mod c1;
pub mod d1;
pub mod d2;
pub mod e1;
pub mod h1;
pub mod p1;
pub mod t1;
pub mod w1;

use crate::callgraph::CallGraph;
use crate::diag::{sort_diagnostics, Diagnostic};
use crate::lex::TokKind;
use crate::model::FileModel;
use crate::summary::{bits, Summaries};
use std::collections::BTreeMap;

/// A deprecated API the A1 rule hunts for.
#[derive(Debug, Clone)]
pub struct DeprecatedApi {
    /// Self type of the deprecated method.
    pub type_name: String,
    /// Method name.
    pub method: String,
    /// What callers should use instead (quoted in the message).
    pub replacement: String,
}

/// One emit/parse pairing the W1 rule cross-checks.
#[derive(Debug, Clone)]
pub struct WirePair {
    /// (impl type, fn) that renders the wire form.
    pub emit: (String, String),
    /// (impl type, fn) that parses it back.
    pub parse: (String, String),
    /// When true, also cross-check the token heads appearing as string
    /// literals in both bodies; when false, only paired existence.
    pub check_tokens: bool,
}

/// One registered enum plus the consumer sites that must handle every
/// variant — the E1 rule's registry.
#[derive(Debug, Clone)]
pub struct EnumClosure {
    /// Enum type name (`EventKind`, `StepKind`, …).
    pub enum_name: String,
    /// (impl type or ""/`*`, fn name) sites that must mention every
    /// variant: renderers, parsers, dispatch handlers.
    pub consumers: Vec<(String, String)>,
}

/// Analyzer configuration. [`Config::workspace_default`] carries the
/// registries for this workspace (allow-listed env vars, the
/// deprecation set, the wire-format pairs, hot entry points, sanctioned
/// merge helpers, sim-time sanctioned paths, and the enum closures).
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Environment variables the workspace may read (all are
    /// test-harness toggles that never influence rendered artifacts).
    pub env_allowlist: Vec<String>,
    pub deprecated: Vec<DeprecatedApi>,
    pub wire_pairs: Vec<WirePair>,
    /// (impl type or ""/`*`, fn) hot entry points: everything reachable
    /// from these is on the per-probe / per-event fast path, and H1
    /// polices its loops.
    pub hot_entries: Vec<(String, String)>,
    /// (impl type or ""/`*`, fn) boundaries hotness does not cross —
    /// telemetry emission, trace recording, other gated slow paths.
    pub cold_boundaries: Vec<(String, String)>,
    /// Identifiers that gate cold blocks (`if recording() { … }`): H1
    /// skips allocations inside blocks guarded by these.
    pub cold_gate_idents: Vec<String>,
    /// (impl type or ""/`*`, fn) sanctioned deterministic ordered-merge
    /// helpers C1 requires spawn results to funnel through.
    pub merge_helpers: Vec<(String, String)>,
    /// Path suffixes where `SimTime` arithmetic may legitimately move
    /// in both directions (the kernel owns the clock).
    pub sim_time_sanctioned: Vec<String>,
    /// Registered enums E1 closes over.
    pub enum_closures: Vec<EnumClosure>,
}

impl Config {
    /// The registries for the filterwatch workspace.
    pub fn workspace_default() -> Config {
        let pair = |et: &str, ef: &str, pt: &str, pf: &str, check_tokens: bool| WirePair {
            emit: (et.to_string(), ef.to_string()),
            parse: (pt.to_string(), pf.to_string()),
            check_tokens,
        };
        Config {
            env_allowlist: [
                "FILTERWATCH_SEEDS",
                "FILTERWATCH_UPDATE_GOLDENS",
                "FILTERWATCH_BENCH_SMOKE",
                "FILTERWATCH_BENCH_OUT",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
            deprecated: vec![
                DeprecatedApi {
                    type_name: "ScanRecord".into(),
                    method: "text".into(),
                    replacement: "ScanIndex::corpus_of / ScanIndex::corpus".into(),
                },
                DeprecatedApi {
                    type_name: "ScanIndex".into(),
                    method: "from_records".into(),
                    replacement: "ScanIndex::build / ScanIndex::build_with".into(),
                },
            ],
            wire_pairs: vec![
                pair(
                    "FlowDisposition",
                    "to_token",
                    "FlowDisposition",
                    "parse_token",
                    true,
                ),
                pair("Verdict", "label", "VerdictLabel", "parse_label", true),
                pair("FlowRecord", "to_line", "FlowRecord", "parse_line", false),
                pair("UrlVerdict", "to_line", "UrlVerdict", "parse_line", false),
                pair("Event", "to_line", "Event", "parse_line", false),
                pair("StepKind", "to_token", "StepKind", "parse_token", true),
                pair("TraceEvent", "to_line", "TraceEvent", "parse_line", false),
                pair("StageState", "to_line", "StageState", "parse_line", true),
                pair(
                    "CampaignKind",
                    "to_token",
                    "CampaignKind",
                    "parse_token",
                    true,
                ),
                pair(
                    "CampaignDescriptor",
                    "to_line",
                    "CampaignDescriptor",
                    "parse_line",
                    false,
                ),
                pair(
                    "CampaignCheckpoint",
                    "to_line",
                    "CampaignCheckpoint",
                    "parse_line",
                    false,
                ),
                pair("CaseCkpt", "to_field", "CaseCkpt", "parse_field", false),
                pair("EventKind", "to_token", "EventKind", "parse_token", true),
                pair("EventRecord", "to_line", "EventRecord", "parse_line", false),
                pair("Interner", "to_line", "Interner", "parse_line", true),
                pair("ShardEpoch", "to_line", "ShardEpoch", "parse_line", true),
                pair(
                    "MeasurementQuality",
                    "to_line",
                    "MeasurementQuality",
                    "parse_line",
                    false,
                ),
            ],
            // The per-event / per-probe fast paths ROADMAP item 5
            // polices: the event kernel drain loop, batch fetch, the
            // sweep scan loop, fingerprint matching, and URL testing.
            hot_entries: [
                ("Internet", "run_to_quiescence"),
                ("Internet", "fetch_batch"),
                ("Kernel", "run_to_quiescence"),
                ("ScanIndex", "search_products_with_threads"),
                ("ScanIndex", "sweep"),
                ("FingerprintEngine", "identify_all"),
                ("MeasurementClient", "test_list"),
            ]
            .into_iter()
            .map(|(t, f)| (t.to_string(), f.to_string()))
            .collect(),
            // Hotness stops at telemetry/trace emission: those paths
            // are sampled or disabled in production runs.
            cold_boundaries: [
                ("TelemetryHub", "*"),
                ("TelemetryHandle", "*"),
                ("TraceHandle", "*"),
                ("Tracer", "*"),
            ]
            .into_iter()
            .map(|(t, f)| (t.to_string(), f.to_string()))
            .collect(),
            cold_gate_idents: [
                "recording",
                "is_enabled",
                "enabled",
                "event_log_enabled",
                "cfg",
                "debug_assertions",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
            merge_helpers: [("", "ordered_flatten"), ("", "ordered_merge_by_key")]
                .into_iter()
                .map(|(t, f)| (t.to_string(), f.to_string()))
                .collect(),
            sim_time_sanctioned: ["crates/netsim/src/time.rs", "crates/netsim/src/kernel.rs"]
                .into_iter()
                .map(String::from)
                .collect(),
            enum_closures: vec![
                EnumClosure {
                    enum_name: "EventKind".into(),
                    consumers: vec![
                        ("EventKind".into(), "to_token".into()),
                        ("EventKind".into(), "parse_token".into()),
                        ("SimEvent".into(), "kind".into()),
                    ],
                },
                EnumClosure {
                    enum_name: "StepKind".into(),
                    consumers: vec![
                        ("StepKind".into(), "to_token".into()),
                        ("StepKind".into(), "parse_token".into()),
                    ],
                },
                EnumClosure {
                    enum_name: "FlowDisposition".into(),
                    consumers: vec![
                        ("FlowDisposition".into(), "to_token".into()),
                        ("FlowDisposition".into(), "parse_token".into()),
                    ],
                },
                EnumClosure {
                    enum_name: "VerdictLabel".into(),
                    consumers: vec![
                        ("VerdictLabel".into(), "as_str".into()),
                        ("VerdictLabel".into(), "parse_label".into()),
                    ],
                },
                EnumClosure {
                    enum_name: "StageState".into(),
                    consumers: vec![
                        ("StageState".into(), "to_line".into()),
                        ("StageState".into(), "parse_line".into()),
                        ("PaperDriver".into(), "execute".into()),
                    ],
                },
            ],
        }
    }
}

/// Cross-file indexes shared by the interprocedural rules: the
/// resolved call graph, per-function effect summaries at fixpoint, and
/// the token-level side tables the older rules still use.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Resolved cross-crate call graph.
    pub graph: CallGraph,
    /// Per-function summaries ([`crate::summary::bits`]) at fixpoint.
    pub summaries: Summaries,
    /// Names bound to `HashMap`/`HashSet` anywhere (struct fields,
    /// params, locals) — the receivers D2 watches.
    pub hash_names: std::collections::BTreeSet<String>,
    /// (impl type, fn name) → (model index, fn index) occurrences.
    pub impl_fns: BTreeMap<(String, String), Vec<(usize, usize)>>,
}

/// Does this function name render human/machine-readable output?
pub fn is_sink_name(name: &str) -> bool {
    name == "fmt"
        || name.starts_with("render")
        || name.starts_with("report")
        || name.starts_with("write_")
        || name.starts_with("stable_")
        || name.contains("to_line")
        || name.contains("to_token")
        || name.contains("to_text")
        || name.contains("to_csv")
        || name.ends_with("_report")
        || name.ends_with("_csv")
}

impl Workspace {
    /// Build the cross-file indexes over the whole scan set: token
    /// side-tables, then the resolved call graph, then summaries
    /// propagated to fixpoint.
    pub fn build(models: &[FileModel], cfg: &Config) -> Workspace {
        let mut ws = Workspace::default();
        for (mi, m) in models.iter().enumerate() {
            for (fi, f) in m.fns.iter().enumerate() {
                if let Some(ty) = &f.impl_type {
                    ws.impl_fns
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push((mi, fi));
                }
            }
            // `name : HashMap<` / `name : HashSet<` — struct fields,
            // fn params and annotated locals all look alike at token
            // level; one global name set is deliberately conservative.
            for w in m.toks.windows(3) {
                if w[0].kind == TokKind::Ident
                    && w[1].is_punct(':')
                    && (w[2].is_ident("HashMap") || w[2].is_ident("HashSet"))
                {
                    ws.hash_names.insert(w[0].text.clone());
                }
            }
        }
        ws.graph = CallGraph::build(models);
        ws.summaries = Summaries::build(models, &ws.graph, cfg);
        ws
    }

    /// Does the transitive summary of `(model, fn)` carry `bit`?
    fn summary_has(&self, model: usize, fn_idx: usize, bit: u32) -> bool {
        self.graph
            .node_of(model, fn_idx)
            .is_some_and(|id| self.summaries.has(id, bit))
    }

    /// Is the function render-reaching — a sink by name, or called
    /// (transitively) by one through a resolved call-graph path?
    pub fn render_reaching(&self, model: usize, fn_idx: usize) -> bool {
        self.summary_has(model, fn_idx, bits::RENDER_REACHING)
    }

    /// Is the function reachable from a registered hot entry point?
    pub fn hot(&self, model: usize, fn_idx: usize) -> bool {
        self.summary_has(model, fn_idx, bits::HOT)
    }

    /// Does the function's forward call closure hit a sanctioned
    /// ordered-merge helper?
    pub fn reaches_merge(&self, model: usize, fn_idx: usize) -> bool {
        self.summary_has(model, fn_idx, bits::REACHES_MERGE)
    }
}

/// Run every rule over the scan set, apply suppressions, and return
/// canonically-ordered diagnostics.
pub fn run_all(models: &[FileModel], cfg: &Config) -> Vec<Diagnostic> {
    let ws = Workspace::build(models, cfg);
    let mut out = Vec::new();
    for m in models {
        d1::check(m, cfg, &mut out);
        a1::check(m, cfg, &mut out);
        p1::check(m, &mut out);
        t1::check(m, cfg, &mut out);
    }
    d2::check(models, &ws, &mut out);
    w1::check(models, &ws, cfg, &mut out);
    h1::check(models, &ws, cfg, &mut out);
    c1::check(models, &ws, &mut out);
    e1::check(models, &ws, cfg, &mut out);

    // Central suppression pass: a `// filterwatch-lint: allow(rule)`
    // on the finding's line (or the line above) or an `allow-file`
    // discharges it, whichever rule produced it.
    let by_path: BTreeMap<&str, &FileModel> = models.iter().map(|m| (m.path.as_str(), m)).collect();
    out.retain(|d| {
        by_path
            .get(d.file.as_str())
            .map(|m| !m.suppressed(d.rule, d.line))
            .unwrap_or(true)
    });
    sort_diagnostics(&mut out);
    out
}
