//! Pattern-engine matching throughput (underpins keyword search,
//! fingerprinting and block-page classification), and block-page
//! classification itself: the compiled library against the naive
//! per-pattern engine over the same signatures.
//!
//! ```text
//! cargo bench -p filterwatch-bench --bench pattern
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use filterwatch_measure::BlockPageLibrary;
use filterwatch_pattern::{Pattern, PatternSet};

fn bench_patterns(c: &mut Criterion) {
    let banner = "HTTP/1.1 401 Unauthorized\r\nServer: netsweeper/5.1\r\n\
                  Location: http://gw.example:15871/cgi-bin/blockpage.cgi?ws-session=9\r\n\
                  <title>McAfee Web Gateway - Notification</title> the url blocked page";
    let literal = Pattern::literal("blockpage.cgi");
    let wildcard = Pattern::parse("*:15871/*ws-session*").unwrap();
    let alternation = Pattern::parse("proxysg|netsweeper|webadmin/deny|cfru=").unwrap();

    c.bench_function("pattern/literal", |b| {
        b.iter(|| literal.is_match(black_box(banner)))
    });
    c.bench_function("pattern/wildcard", |b| {
        b.iter(|| wildcard.is_match(black_box(banner)))
    });
    c.bench_function("pattern/alternation", |b| {
        b.iter(|| alternation.is_match(black_box(banner)))
    });

    let mut set = PatternSet::new();
    for (name, src) in [
        ("bluecoat", "proxysg"),
        ("bluecoat", "cfru="),
        ("netsweeper", "webadmin"),
        ("netsweeper", "8080/webadmin/"),
        ("websense", "blockpage.cgi"),
        ("websense", "gateway websense"),
        ("smartfilter", "mcafee web gateway"),
        ("smartfilter", "url blocked"),
    ] {
        set.insert_parsed(name, src).unwrap();
    }
    c.bench_function("pattern/table2-set", |b| {
        b.iter(|| set.matching_names(black_box(banner)))
    });
}

/// The standard library's signatures as plain pattern sets, matched
/// one pattern at a time: (vendor tier, generic tier).
fn naive_signatures() -> (PatternSet, PatternSet) {
    let mut vendors = PatternSet::new();
    for (name, src) in [
        ("smartfilter", "mcafee web gateway"),
        ("smartfilter", "via-proxy"),
        ("bluecoat", "www.cfauth.com"),
        ("bluecoat", "cfru="),
        ("bluecoat", "blue coat webfilter"),
        ("netsweeper", "webadmin/deny"),
        ("netsweeper", "web page blocked*netsweeper"),
        ("websense", ":15871/*blockpage.cgi"),
        ("websense", "websense"),
    ] {
        vendors.insert_parsed(name, src).unwrap();
    }
    let mut generic = PatternSet::new();
    for src in [
        "has been blocked",
        "access denied|access to this site is blocked",
        "access restricted by network policy",
    ] {
        generic.insert_parsed("generic", src).unwrap();
    }
    (vendors, generic)
}

/// A ~3 KB fetch trace of an ordinary news page: no signature matches.
fn ordinary_trace() -> String {
    let mut text = String::from(
        "http://www.daily-news.example/world/2013/protests\n\
         HTTP/1.1 200 OK\r\nServer: nginx/1.2.1\r\nContent-Type: text/html\r\n\n\
         <html><head><title>Daily News - World</title></head><body>",
    );
    let paragraph = "<p>Thousands gathered in the capital on Friday as talks on the \
                     new media law stalled. Web access from the page of the ministry was \
                     slow, and reporters said several sites had been blocked before \
                     in 2012; the regulator denied any policy change at port 8080.</p>";
    while text.len() < 3_000 {
        text.push_str(paragraph);
    }
    text.push_str("</body></html>\n");
    text
}

/// A redirect-then-deny-page trace from a Netsweeper deployment.
fn netsweeper_trace() -> String {
    String::from(
        "http://www.blocked-news.example/\n\
         HTTP/1.1 302 Found\r\nLocation: http://deny.isp.example:8080/webadmin/deny?dpid=36\r\n\n\n\
         http://deny.isp.example:8080/webadmin/deny?dpid=36\n\
         HTTP/1.1 403 Forbidden\r\nServer: netsweeper/5.1\r\nContent-Type: text/html\r\n\n\
         <html><head><title>Web Page Blocked</title></head><body>\
         <h1>Web Page Blocked!</h1><p>The page you have requested has been blocked: \
         <code>http://www.blocked-news.example/</code></p><p>Category: <b>Politics</b></p>\
         <p class=\"footer\">Powered by Netsweeper. If you believe the page is categorized \
         in error, use the Netsweeper test-a-site service.</p></body></html>\n",
    )
}

fn bench_classify(c: &mut Criterion) {
    let (vendors, generic) = naive_signatures();
    let library = BlockPageLibrary::standard();
    let naive = |text: &str| {
        let vendor = vendors.matches(text).first().map(|m| m.name);
        vendor.or_else(|| generic.matches(text).first().map(|m| m.name))
    };
    for (label, text, product) in [
        ("nomatch-3k", ordinary_trace(), None),
        ("netsweeper", netsweeper_trace(), Some("netsweeper")),
    ] {
        assert_eq!(naive(&text), product, "{label}");
        let classified = library.classify(&text);
        assert_eq!(classified.and_then(|m| m.product).as_deref(), product);
        c.bench_function(&format!("classify/naive-{label}"), |b| {
            b.iter(|| naive(black_box(&text)))
        });
        c.bench_function(&format!("classify/library-{label}"), |b| {
            b.iter(|| library.classify(black_box(&text)))
        });
    }
    c.bench_function("classify/standard-library", |b| {
        b.iter(BlockPageLibrary::standard)
    });
}

criterion_group!(benches, bench_patterns, bench_classify);
criterion_main!(benches);
