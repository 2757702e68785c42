//! Vendor block-page signatures.
//!
//! §5: "Manual analysis identified regular expressions corresponding to
//! the vendors' block pages and automated analysis identified all URLs
//! which matched a given block page regular expression." The library
//! here is that regex set, expressed with `filterwatch_pattern`. It is
//! deliberately *independent* of the products crate — like the paper's
//! analysts, it matches what deployments actually emit, not what the
//! vendor source code says.
//!
//! The library is query-compiled: the vendor and generic signatures
//! are one [`CompiledPatternSet`], so a classify call answers every
//! literal signature, and the literal factors of the wildcard
//! signatures, in a single case-folding automaton pass over the trace
//! text; a wildcard signature is backtracked only when all of its
//! factors occurred. The compiled set is built once per process and
//! shared by every library instance. Per-call latency can be recorded into a telemetry
//! histogram via [`BlockPageLibrary::with_telemetry`], per instance.

use std::sync::OnceLock;

use filterwatch_pattern::{CompiledPatternSet, Pattern, PatternSet};
use filterwatch_telemetry::TelemetryHandle;

/// Histogram metric recording wall nanoseconds per classify call.
pub const CLASSIFY_LATENCY_METRIC: &str = "classify.wall_nanos";

/// Bucket bounds (ns) for [`CLASSIFY_LATENCY_METRIC`].
const CLASSIFY_LATENCY_BUCKETS: &[f64] = &[
    250.0,
    1_000.0,
    4_000.0,
    16_000.0,
    64_000.0,
    256_000.0,
    1_024_000.0,
];

/// A classified block observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMatch {
    /// The vendor the block page was attributed to, if identifiable
    /// (`None` = explicit block page with no recognizable vendor
    /// signature — e.g. a branding-stripped deployment).
    pub product: Option<String>,
    /// The signature that fired.
    pub evidence: String,
}

/// The vendor block-page signature library.
#[derive(Debug, Clone)]
pub struct BlockPageLibrary {
    signatures: &'static Signatures,
    telemetry: TelemetryHandle,
}

/// The compiled signatures, built once and shared by every library
/// instance.
#[derive(Debug)]
struct Signatures {
    /// Vendor signatures first, then the generic ones, so the first
    /// match is a vendor's whenever any vendor signature fires.
    set: CompiledPatternSet,
    /// How many leading entries of `set` are vendor signatures.
    vendors: usize,
}

impl Default for BlockPageLibrary {
    fn default() -> Self {
        BlockPageLibrary::standard()
    }
}

impl BlockPageLibrary {
    /// The standard library covering the four studied products plus a
    /// generic explicit-denial fallback. The signatures are compiled on
    /// the first call in a process; later calls share them.
    pub fn standard() -> Self {
        static STANDARD: OnceLock<Signatures> = OnceLock::new();
        let signatures = STANDARD.get_or_init(|| {
            let mut set = PatternSet::new();
            // McAfee SmartFilter / Web Gateway.
            set.insert("smartfilter", Pattern::literal("mcafee web gateway"));
            set.insert("smartfilter", Pattern::literal("via-proxy"));
            // Blue Coat: the cfauth redirect or the WebFilter portal page.
            set.insert("bluecoat", Pattern::literal("www.cfauth.com"));
            set.insert("bluecoat", Pattern::literal("cfru="));
            set.insert("bluecoat", Pattern::literal("blue coat webfilter"));
            // Netsweeper: the deny URL and the deny page wording.
            set.insert("netsweeper", Pattern::literal("webadmin/deny"));
            set.insert(
                "netsweeper",
                Pattern::parse("web page blocked*netsweeper").expect("static"),
            );
            // Websense: the 15871 block-page URL or page branding.
            set.insert(
                "websense",
                Pattern::parse(":15871/*blockpage.cgi").expect("static"),
            );
            set.insert("websense", Pattern::literal("websense"));

            let vendors = set.len();
            // Generic explicit-denial wording, after every vendor.
            set.insert("generic", Pattern::literal("has been blocked"));
            set.insert(
                "generic",
                Pattern::parse("access denied|access to this site is blocked").expect("static"),
            );
            set.insert(
                "generic",
                Pattern::literal("access restricted by network policy"),
            );

            Signatures {
                set: CompiledPatternSet::compile(set),
                vendors,
            }
        });
        BlockPageLibrary {
            signatures,
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Builder-style: record a per-call latency histogram
    /// ([`CLASSIFY_LATENCY_METRIC`]) on `telemetry`.
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        telemetry.register_histogram(CLASSIFY_LATENCY_METRIC, CLASSIFY_LATENCY_BUCKETS);
        self.telemetry = telemetry;
        self
    }

    /// Classify a fetch trace (concatenated URLs, banners and bodies of
    /// every hop). Vendor signatures win over the generic fallback.
    pub fn classify(&self, trace_text: &str) -> Option<BlockMatch> {
        self.telemetry
            .observe_timed(CLASSIFY_LATENCY_METRIC, "", || {
                self.classify_inner(trace_text)
            })
    }

    fn classify_inner(&self, trace_text: &str) -> Option<BlockMatch> {
        let Signatures { set, vendors } = self.signatures;
        let &index = set.matching_indices(trace_text).first()?;
        let (name, pattern) = set.set().get(index).expect("index in range");
        Some(if index < *vendors {
            BlockMatch {
                product: Some(name.to_string()),
                evidence: format!("vendor signature /{pattern}/"),
            }
        } else {
            BlockMatch {
                product: None,
                evidence: format!("generic denial /{pattern}/"),
            }
        })
    }

    /// Number of vendor signatures loaded.
    pub fn vendor_signature_count(&self) -> usize {
        self.signatures.vendors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_each_vendor() {
        let lib = BlockPageLibrary::standard();
        let cases = [
            ("redirected to http://www.cfauth.com/?cfru=Zm9v", "bluecoat"),
            (
                "http://gw:8080/webadmin/deny?dpid=36 <title>Web Page Blocked</title>",
                "netsweeper",
            ),
            (
                "http://gw:15871/cgi-bin/blockpage.cgi?ws-session=3 websense content gateway",
                "websense",
            ),
            (
                "<title>McAfee Web Gateway - Notification</title> URL Blocked",
                "smartfilter",
            ),
        ];
        for (text, expected) in cases {
            let m = lib
                .classify(text)
                .unwrap_or_else(|| panic!("no match for {expected}"));
            assert_eq!(m.product.as_deref(), Some(expected), "{text}");
        }
    }

    #[test]
    fn generic_denial_without_branding() {
        let lib = BlockPageLibrary::standard();
        let m = lib
            .classify("<h1>Access Denied</h1><p>the page has been blocked.</p>")
            .unwrap();
        assert_eq!(m.product, None);
    }

    #[test]
    fn ordinary_pages_do_not_match() {
        let lib = BlockPageLibrary::standard();
        assert!(lib
            .classify("<title>Free Web Proxy</title> surf anonymously")
            .is_none());
        assert!(lib.classify("<title>News of the day</title>").is_none());
    }

    #[test]
    fn vendor_beats_generic() {
        let lib = BlockPageLibrary::standard();
        let m = lib
            .classify("Access Denied ... Blue Coat WebFilter policy")
            .unwrap();
        assert_eq!(m.product.as_deref(), Some("bluecoat"));
    }

    #[test]
    fn library_size() {
        assert!(BlockPageLibrary::standard().vendor_signature_count() >= 8);
    }

    #[test]
    fn only_the_two_wildcard_signatures_backtrack() {
        let lib = BlockPageLibrary::standard();
        assert_eq!(lib.signatures.set.fallback_len(), 2);
    }

    #[test]
    fn instances_share_signatures_but_not_telemetry() {
        let a = BlockPageLibrary::standard().with_telemetry(TelemetryHandle::enabled());
        let b = BlockPageLibrary::standard();
        assert!(std::ptr::eq(a.signatures, b.signatures));
        a.classify("Server: ProxySG");
        let snapshot = a.telemetry.snapshot();
        let histogram = snapshot.histogram_named(CLASSIFY_LATENCY_METRIC).unwrap();
        assert_eq!(histogram.total, 1);
        assert!(b.telemetry.snapshot().is_empty());
    }

    #[test]
    fn evidence_strings_are_stable() {
        let lib = BlockPageLibrary::standard();
        let m = lib.classify("Server: ProxySG cfru=x").unwrap();
        assert_eq!(m.evidence, "vendor signature /cfru=/");
        let g = lib.classify("access denied by policy").unwrap();
        assert_eq!(
            g.evidence,
            "generic denial /access denied|access to this site is blocked/"
        );
    }

    #[test]
    fn telemetry_records_classify_latency() {
        let telemetry = TelemetryHandle::enabled();
        let lib = BlockPageLibrary::standard().with_telemetry(telemetry.clone());
        lib.classify("Server: ProxySG");
        lib.classify("nothing to see");
        let snapshot = telemetry.snapshot();
        let histogram = snapshot
            .histogram_named(CLASSIFY_LATENCY_METRIC)
            .expect("classify latency histogram");
        assert_eq!(histogram.total, 2);
        assert_eq!(histogram.bounds, CLASSIFY_LATENCY_BUCKETS.to_vec());
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let lib = BlockPageLibrary::standard();
        lib.classify("Server: ProxySG");
        // No handle attached: nothing to snapshot, and no panic.
        assert!(TelemetryHandle::disabled().snapshot().is_empty());
    }
}
