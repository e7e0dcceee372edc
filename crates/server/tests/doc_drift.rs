//! Doc-drift gate: `PROTOCOL.md` is the single authoritative protocol
//! reference, so it must stay in lock-step with the parser tables the
//! code actually ships — the one verb table, [`cc_server::request::VERBS`].
//! Coverage is checked in both directions: every verb the table holds has
//! exactly one row in the document's verb table, with the table's binary
//! tag, and the document's table has no row the code lacks. Every row also
//! has its `connectit_requests_total` counter in a live `METRICS` scrape.
//! One behavioural claim is held the same way: §1.3's "one representative
//! per component" is checked against a live server. `DESIGN.md` is held
//! to the one log format: every WAL kind byte and replication tag the
//! code defines, and no retired file or stream format — and every test
//! it cites as holding an invariant exists. §1.2's text-reply column is
//! held to each row's reply head.

use cc_server::request::{Shape, VERBS};
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

#[test]
fn every_text_verb_the_parser_accepts_is_documented() {
    let missing: Vec<&str> = VERBS.iter().map(|s| s.text).filter(|v| !documented(v)).collect();
    assert!(missing.is_empty(), "verbs in VERBS but absent from PROTOCOL.md: {missing:?}");
}

/// The §1.2 table's `(text name, tag)` rows: the first backticked token of
/// the request column and the tag column.
fn table_rows() -> Vec<(&'static str, u8)> {
    let table = section("### 1.2 Verb reference", "### 1.3");
    let rows = table.lines().filter(|l| l.starts_with("| `")).map(|line| {
        let verb = row_verb(line).unwrap_or_else(|| panic!("unparseable table row: {line}"));
        let tag = line.split('|').nth(2).unwrap_or("").trim();
        let tag = u8::from_str_radix(tag.trim_start_matches("0x"), 16)
            .unwrap_or_else(|_| panic!("unparseable tag in row: {line}"));
        (verb, tag)
    });
    rows.collect()
}

#[test]
fn every_binary_verb_the_parser_accepts_is_documented() {
    // Every verb has a tag, and one row of §1.2 spells both.
    let rows = table_rows();
    for spec in &VERBS {
        let mine: Vec<u8> = rows.iter().filter(|r| r.0 == spec.text).map(|r| r.1).collect();
        assert_eq!(mine, [spec.tag], "PROTOCOL.md §1.2 rows for {} ({:#04x})", spec.text, spec.tag);
    }
}

#[test]
fn every_documented_text_verb_exists_in_the_parser() {
    for (verb, _) in table_rows() {
        assert!(
            VERBS.iter().any(|s| s.text == verb),
            "PROTOCOL.md documents verb {verb:?}, but the parser does not accept it"
        );
    }
}

#[test]
fn every_documented_binary_verb_exists_in_the_parser_with_the_right_tag() {
    for (verb, tag) in table_rows() {
        let spec = VERBS.iter().find(|s| s.text == verb);
        assert!(spec.is_some_and(|s| s.tag == tag), "PROTOCOL.md tag {tag:#04x} for {verb}");
    }
}

/// §1.2's text-reply column spells each row's reply: a line led by the
/// row's head, the bit itself for `Q`/`QG`, a dump ended by `# EOF`, and
/// nothing for `QUIT`.
#[test]
fn every_text_reply_column_opens_with_its_rows_head() {
    let table = section("### 1.2 Verb reference", "### 1.3");
    for line in table.lines().filter(|l| l.starts_with("| `")) {
        let verb = row_verb(line).unwrap_or_default();
        let spec = VERBS.iter().find(|s| s.text == verb).expect("a row per verb");
        let cell = line.split('|').nth(4).unwrap_or("").trim();
        let spelled = match spec.shape {
            Shape::Bit | Shape::BitGen => cell.starts_with("`1` / `0`"),
            Shape::Dump => cell.ends_with("then `# EOF`"),
            _ if spec.head.is_empty() => cell == "—",
            _ => row_verb(cell) == Some(spec.head),
        };
        assert!(
            spelled,
            "PROTOCOL.md §1.2 replies {cell:?} to {verb}; its head is {:?}",
            spec.head
        );
    }
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

/// The delete-class counters are what churn reports are read from, so
/// README's metrics table names each one a scrape exposes in full.
#[test]
fn every_delete_class_counter_is_in_the_readme_metrics_table() {
    let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
    let scrape = cc_server::obs::Obs::new().metrics.render();
    let classes: Vec<&str> = scrape
        .iter()
        .filter_map(|line| line.split_whitespace().next())
        .filter(|name| name.starts_with("connectit_deletes_") && *name != "connectit_deletes_total")
        .collect();
    assert!(classes.len() >= 4, "forest, nonforest, absent and dirty: {classes:?}");
    for name in classes {
        assert!(readme.contains(&format!("`{name}`")), "README.md's metrics table omits {name}");
    }
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
    for retired in ["CCREPL01", "CCWALS01", "CCSNAP", "snap-"] {
        assert!(!design.contains(retired), "DESIGN.md still names the retired {retired:?}");
    }
}

/// Every `.rs` file under the workspace's `crates/`, as `(path, source)`.
fn workspace_sources() -> Vec<(std::path::PathBuf, String)> {
    let mut dirs = vec![std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..")];
    let mut out = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable crates dir").flatten() {
            let path = entry.path();
            if path.is_dir() && path.file_name().is_some_and(|n| n != "target") {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).expect("readable source");
                out.push((path, src));
            }
        }
    }
    out
}

/// The tests `DESIGN.md` cites as `module::tests::name`,
/// `module::tests::{a, b}` (across lines too) and `tests/<file>.rs`
/// exist: the cited name is a `fn` in a `module.rs`, and the file is an
/// integration test of some crate.
#[test]
fn every_test_design_doc_cites_exists() {
    let design = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"));
    let sources = workspace_sources();
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let ident = |s: &'static str| &s[..s.len() - s.trim_start_matches(is_ident).len()];
    let mut cited = 0;
    for (at, _) in design.match_indices("::tests::") {
        let module = &design[design[..at].trim_end_matches(is_ident).len()..at];
        let rest = &design[at + "::tests::".len()..];
        let names: Vec<&str> = match rest.strip_prefix('{') {
            Some(list) => {
                list[..list.find('}').expect("closed brace")].split(',').map(str::trim).collect()
            }
            None => vec![ident(rest)],
        };
        for name in names {
            let file = format!("{module}.rs");
            let found = sources.iter().any(|(path, src)| {
                path.file_name().is_some_and(|f| f == file.as_str())
                    && src.contains(&format!("fn {name}("))
            });
            assert!(found, "DESIGN.md cites {module}::tests::{name}, which no {file} defines");
            cited += 1;
        }
    }
    assert!(cited >= 17, "only {cited} `module::tests::name` citations parsed");
    for (at, _) in design.match_indices("tests/") {
        let rest = &design[at + "tests/".len()..];
        let file = ident(rest);
        if !rest[file.len()..].starts_with(".rs") {
            continue;
        }
        let found = sources.iter().any(|(path, _)| {
            path.parent().and_then(|d| d.file_name()).is_some_and(|d| d == "tests")
                && path.file_stem().is_some_and(|f| f == file)
        });
        assert!(found, "DESIGN.md cites tests/{file}.rs, which no crate has");
    }
}
