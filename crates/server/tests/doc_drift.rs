//! Doc-drift gate: `PROTOCOL.md` is the single authoritative protocol
//! reference, so it must stay in lock-step with the parser tables the
//! code actually ships — the one verb table, [`cc_server::request::VERBS`].
//! Coverage is checked in both directions: every verb the table holds must
//! be documented, and every verb the document's tables claim must exist
//! in the table, with the table's binary tag. Every row also has its
//! `connectit_requests_total` counter in a live `METRICS` scrape.
//! One behavioural claim is held the same way: §1.3's "one representative
//! per component" is checked against a live server. `DESIGN.md` is held
//! to the one log format: every WAL kind byte and replication tag the
//! code defines, and no retired file or stream format.

use cc_server::request::VERBS;
use cc_server::{replication, wal};
use cc_server::{serve, Service, ServiceConfig, WireClient};

const PROTOCOL: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../PROTOCOL.md"));

/// A verb counts as documented when it appears backticked — either
/// standalone (`` `EPOCH` ``) or opening a grammar form (`` `SUB u v
/// [DURABLE]` ``).
fn documented(verb: &str) -> bool {
    PROTOCOL.contains(&format!("`{verb}`")) || PROTOCOL.contains(&format!("`{verb} "))
}

/// Extract the section of `PROTOCOL.md` between two headings.
fn section(start: &str, end: &str) -> &'static str {
    let s = PROTOCOL.find(start).unwrap_or_else(|| panic!("PROTOCOL.md lost heading {start:?}"));
    let rest = &PROTOCOL[s..];
    let e = rest.find(end).unwrap_or_else(|| panic!("PROTOCOL.md lost heading {end:?}"));
    &rest[..e]
}

/// First backticked token of a markdown table row (`| `VERB …` | …`).
fn row_verb(line: &str) -> Option<&str> {
    let open = line.find('`')? + 1;
    let rest = &line[open..];
    let close = rest.find('`')?;
    Some(rest[..close].split_whitespace().next().unwrap_or(""))
}

/// The table's `(text name, tag)` pairs for the verbs with a binary tag.
fn bin_verbs() -> Vec<(&'static str, u8)> {
    VERBS.iter().filter_map(|s| s.tag.map(|tag| (s.text, tag))).collect()
}

fn text_verb(verb: &str) -> bool {
    VERBS.iter().any(|s| s.text == verb)
}

#[test]
fn every_text_verb_the_parser_accepts_is_documented() {
    let missing: Vec<&str> = VERBS.iter().map(|s| s.text).filter(|v| !documented(v)).collect();
    assert!(missing.is_empty(), "verbs in VERBS but absent from PROTOCOL.md: {missing:?}");
}

#[test]
fn every_binary_verb_the_parser_accepts_is_documented() {
    // Each binary verb must appear both by its text name and by its tag.
    for (name, tag) in bin_verbs() {
        assert!(documented(name), "binary verb {name:?} absent from PROTOCOL.md");
        let tag = format!("0x{tag:02X}");
        assert!(
            PROTOCOL.contains(&tag),
            "binary tag {tag} (verb {name:?}) absent from PROTOCOL.md"
        );
    }
}

#[test]
fn every_documented_text_verb_exists_in_the_parser() {
    // Walk the §1.2 verb-reference table: the first backticked token of
    // each row must be a verb (or a grammar alternative of one) that
    // VERBS actually contains.
    let table = section("### 1.2 Verb reference", "### 1.3");
    let mut rows = 0;
    for line in table.lines().filter(|l| l.starts_with("| `")) {
        let verb = row_verb(line).unwrap_or_else(|| panic!("unparseable table row: {line}"));
        assert!(
            text_verb(verb),
            "PROTOCOL.md documents text verb {verb:?}, but the parser does not accept it"
        );
        rows += 1;
    }
    // Every verb has at least one row; SUB has three grammar forms.
    assert!(rows >= VERBS.len(), "verb table shrank: {rows} rows for {} verbs", VERBS.len());
}

#[test]
fn every_documented_binary_verb_exists_in_the_parser_with_the_right_tag() {
    let table = section("### 2.2 Verb tags", "### 2.3");
    let mut rows = 0;
    for line in table.lines().filter(|l| l.starts_with("| 0x")) {
        let mut cols = line.split('|').skip(1).map(str::trim);
        let tag = cols.next().unwrap_or("");
        let name = cols.next().unwrap_or("").trim_matches('`');
        let tag = u8::from_str_radix(tag.trim_start_matches("0x"), 16)
            .unwrap_or_else(|_| panic!("unparseable tag in row: {line}"));
        // The table's verb column uses the long constant name; the text
        // equivalent column holds the VERBS text name.
        let text = cols.next().unwrap_or("").trim_matches('`');
        let bin = bin_verbs();
        let entry = bin.iter().find(|(n, _)| *n == text).unwrap_or_else(|| {
            panic!("PROTOCOL.md documents binary verb {name} ({text}), unknown to the parser")
        });
        assert_eq!(entry.1, tag, "PROTOCOL.md tag for {name} disagrees with the parser");
        rows += 1;
    }
    assert_eq!(rows, bin_verbs().len(), "binary verb table rows != tagged VERBS rows");
}

#[test]
fn every_verb_row_has_a_requests_counter_in_a_fresh_scrape() {
    let mut svc =
        Service::start(ServiceConfig { n: 8, ..ServiceConfig::default() }).expect("start");
    let mut server = serve(&svc, "127.0.0.1:0").expect("bind");
    let mut c = WireClient::text(server.local_addr()).expect("connect");
    let scrape = c.metrics().expect("METRICS");
    for spec in &VERBS {
        let want = format!("connectit_requests_total{{verb=\"{}\"}} ", spec.text);
        assert!(scrape.iter().any(|l| l.starts_with(&want)), "no {want:?} line in METRICS");
    }
    let rows = scrape.iter().filter(|l| l.starts_with("connectit_requests_total{")).count();
    assert_eq!(rows, VERBS.len(), "one requests_total series per verb row");
    server.stop();
    svc.shutdown();
}

#[test]
fn wire_stable_error_spellings_are_documented() {
    // These exact spellings are pinned on the wire by net_errors.rs;
    // PROTOCOL.md must quote them verbatim.
    for err in [
        "ERR unknown command \"NOPE\"",
        "ERR missing argument",
        "ERR argument is not a 32-bit unsigned integer",
        "ERR argument is not a 64-bit unsigned integer",
        "ERR unknown SUB flag \"FOREVER\" (expected DURABLE)",
        "ERR unknown subscription id 42",
        "ERR durability is not enabled (start the service with a wal dir)",
        "ERR read-only follower: route updates to the primary",
        "bad SUB payload: unknown subscription kind 0x07",
    ] {
        assert!(PROTOCOL.contains(err), "PROTOCOL.md lost the pinned error spelling {err:?}");
    }
}

#[test]
fn push_line_and_event_frame_grammar_are_documented() {
    for needle in [
        "! EVT <id> <seq> <epoch> <gen> PAIR <u> <v> root=<r> size=<s>",
        "! EVT <id> <seq> <epoch> <gen> COMPONENT <v> root=<r> size=<s>",
        "root:u32le size:u64le epoch:u64le generation:u64le seq:u64le",
        "sub-overflow",
        "# EOF",
    ] {
        assert!(PROTOCOL.contains(needle), "PROTOCOL.md lost {needle:?}");
    }
}

/// §1.3's claim, as documented and as served: `LABEL`, `SIZE` and `TOPK`
/// name one representative per component at a quiesced epoch, before and
/// after a rebuild commits.
#[test]
fn label_size_and_topk_name_one_representative() {
    assert!(PROTOCOL.contains("`EVT`, `SIZE`, `TOPK` and `LABEL`: all four\n  read one partition"));
    assert!(PROTOCOL.contains("the representative `SIZE v` reports as `root=`"));
    assert!(PROTOCOL.contains("may change when a rebuild commits"));

    let n = 64u32;
    let mut svc =
        Service::start(ServiceConfig { n: n as usize, ..ServiceConfig::default() }).expect("start");
    let server = serve(&svc, "127.0.0.1:0").expect("bind");
    let mut c = WireClient::text(server.local_addr()).expect("connect");
    let check = |c: &mut WireClient| {
        c.quiesce(30_000).expect("QUIESCE");
        for v in 0..n {
            let (_, root) = c.component_size(v).expect("SIZE");
            assert_eq!(c.label(v).expect("LABEL"), root, "LABEL {v} vs SIZE {v} root=");
        }
        let (top, ..) = c.topk(cc_server::net::DEFAULT_TOPK as u8).expect("TOPK");
        assert!(!top.is_empty());
        for (root, size) in top {
            assert_eq!(c.component_size(root).expect("SIZE"), (size, root), "TOPK entry {root}");
        }
    };
    for v in 1..40 {
        c.insert(v - 1, v).expect("I");
    }
    check(&mut c);
    c.delete(19, 20).expect("D"); // a forest edge: seals, rebuilds, commits
    check(&mut c);
    drop(server);
    svc.shutdown();
}

#[test]
fn protocol_doc_is_cross_linked() {
    let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
    let design = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"));
    assert!(readme.contains("PROTOCOL.md"), "README.md no longer links PROTOCOL.md");
    assert!(design.contains("PROTOCOL.md"), "DESIGN.md no longer links PROTOCOL.md");
}

#[test]
fn design_doc_names_every_log_kind_and_no_retired_format() {
    let design = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"));
    let kinds = [wal::REC_INSERTS, wal::REC_OPS, wal::REC_CHECKPOINT, wal::REC_SUB];
    for tag in kinds.into_iter().chain([replication::TAG_HELLO, replication::TAG_PING]) {
        let spelled = format!("`'{}'`", tag as char);
        assert!(design.contains(&spelled), "DESIGN.md omits the record kind or tag {spelled}");
    }
    for magic in [wal::WAL_MAGIC, replication::REPL_MAGIC] {
        let magic = std::str::from_utf8(magic).expect("ascii magic");
        assert!(design.contains(magic), "DESIGN.md omits the magic {magic}");
    }
    for retired in ["CCREPL01", "CCWALS01", "snap-"] {
        assert!(!design.contains(retired), "DESIGN.md still names the retired {retired:?}");
    }
}
