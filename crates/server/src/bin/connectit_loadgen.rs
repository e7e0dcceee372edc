//! `connectit-loadgen` — closed-loop load generator and correctness
//! checker for the connectivity service.
//!
//! Each client thread owns a private slice of the vertex space (so its
//! traffic never interferes with other clients'), keeps a sequential
//! union-find oracle over that slice, and submits mixed insert/query
//! batches. Every answered query is validated against the oracle by
//! *bracketing*: a query whose oracle answer is identical before and
//! after its batch's insertions has exactly one legal answer; a query
//! whose component forms within its own batch may legally answer either
//! way (batch operations are concurrent). Connectivity is monotone, so
//! those two cases are exhaustive. Throughput is reported over the whole
//! closed loop, oracle maintenance included.
//!
//! ```text
//! connectit-loadgen [--mode inproc|tcp] [--addr HOST:PORT] [--n N]
//!                   [--shards S] [--clients C] [--batches B] [--batch-ops K]
//!                   [--query-frac F] [--churn F] [--layout blocked|strided]
//!                   [--seed X] [--shutdown] [--follower HOST:PORT]...
//!                   [--binary [--pipeline N]]
//! ```
//!
//! ## Binary mode (`--binary [--pipeline N]`)
//!
//! `--binary` drives the framed binary protocol (DESIGN.md §11) on the
//! same server port — the server sniffs the first byte. All oracle
//! validation applies unchanged: the transport swaps under the same
//! closed loop. `--pipeline N` splits each batch into up to `N` framed
//! requests kept in flight concurrently on the connection; replies are
//! reassembled by correlation id, so the protocol's out-of-order
//! completion contract is exercised on every batch. Bracketing stays
//! sound because the oracle brackets the whole pipelined group exactly
//! as it brackets one batch.
//!
//! ## Split routing (`--follower`, repeatable)
//!
//! With one or more `--follower` addresses (tcp mode only), each client
//! splits its traffic across the replication topology: **inserts go to
//! the primary** (`--addr`), then the client reads the primary's `EPOCH`
//! and issues `WAIT <epoch>` on its follower (clients round-robin over
//! the follower list), and only then sends its **queries to the
//! follower**. The `WAIT` barrier turns the follower's bounded staleness
//! into read-your-writes, so every follower answer has exactly one legal
//! value under the client's private-slice oracle — all follower queries
//! are validated *exactly*, both positives and negatives. A follower
//! that dies mid-run is retried (reconnect + re-`WAIT` + re-query, all
//! idempotent) for `--retry-secs`, which is precisely the
//! kill-one-follower CI drill.
//!
//! ## Churn mode (`--churn F`)
//!
//! With `--churn F` (F in `(0, 1]`), each client's update traffic mixes
//! deletions in at fraction `F` — mostly retractions of live edges (so
//! the engine's forest/non-forest classifier gets exercised both ways),
//! with a sprinkle of absent and duplicate deletions. Deletions break
//! the monotonicity that bracketing relies on, so churn validation is
//! *exact* instead: each client keeps a `cc_baselines::DynamicOracle`
//! (incremental adjacency + BFS) over its private slice, and after each
//! mutation batch issues `QUIESCE` and a query-only batch *sandwiched*
//! between two `GEN` probes. If the engine was clean at the same
//! generation on both sides of the batch, every answer was served from
//! fully-rebuilt labels that include all of this client's committed
//! mutations, and must match the oracle bit-for-bit. Batches for which
//! no clean window appears (another client's rebuild in flight) are
//! counted as `stale_skipped` rather than guessed at. `--kill-after` /
//! `--resume` compose with churn: the checkpoint stores each client's
//! live *edge set* (labels alone cannot seed a deletion oracle), and the
//! post-restore sweep re-validates it against the recovered server.
//!
//! `--shards` (pass-through to the in-process service, mirroring
//! `connectit-serve`) is accepted and selects nothing.
//!
//! Exits non-zero on any oracle mismatch or zero throughput. In `tcp`
//! mode, `--n` must match the server's vertex count.
//!
//! ## Crash-drill mode (`--kill-after` / `--resume`)
//!
//! The loadgen can act as one logical load session spanning a server
//! crash. `--kill-after B --state FILE` runs `B` batches per client,
//! checkpoints every client's oracle (via the `cc_graph::io::binary`
//! codec) to `FILE`, and exits with the server still running — the
//! harness then hard-kills and restarts the server from its `--wal-dir`.
//! `--resume --state FILE` reloads the checkpoint, first re-validates the
//! restored oracle against the recovered server (every intra-slice
//! connectivity fact must have survived, positives and negatives), then
//! continues the remaining batches under full validation. `--resume`
//! also makes in-flight failures survivable: a dropped connection is
//! retried for `--retry-secs`, the interrupted batch's insertions are
//! resubmitted (inserts are idempotent), and only that batch's query
//! answers are skipped.
//!
//! ## Subscription mode (`--subscribe`)
//!
//! With `--subscribe` (tcp text mode), each client registers pair
//! subscriptions (`SUB u v`) against an insert-only stream over its
//! private slice and validates the push-delivery contract *exactly*:
//! a subscription fires exactly once, if and only if its pair is
//! connected, stamped with an epoch inside the `(EPOCH-before,
//! EPOCH-after]` window of the batch that connected it — connectivity
//! is monotone without deletions, so there is no slack in any of those
//! clauses. Registrations over already-connected pairs must fire
//! immediately; cancelled subscriptions must stay silent forever; a
//! missed, duplicate, ghost, early, or mis-stamped event counts into
//! `sub_mismatches` and fails the run. Composes with
//! `--kill-after`/`--resume`: subscriptions are registered `DURABLE`,
//! checkpointed to a `FILE.subs` sidecar, and re-attached after the
//! server restart with `SUB ATTACH id after_seq` — which absorbs the
//! recovery re-fire of already-acknowledged pairs while still
//! demanding the fire a connected-but-unfired pair is owed.

use cc_baselines::DynamicOracle;
use cc_graph::io::binary;
use cc_parallel::SplitMix64;
use cc_server::request::BinRequest;
use cc_server::{Reply, Service, ServiceConfig, SubEvent, SubKind, WireClient};
use cc_unionfind::SeqUnionFind;
use connectit::Update;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Magic prefix of the `--state` checkpoint file.
const STATE_MAGIC: &[u8; 8] = b"CCLGST02";

/// `QUIESCE` timeout used before each exact churn validation batch. A
/// lapse is not fatal — the generation sandwich just retries.
const CHURN_QUIESCE_MS: u64 = 10_000;

#[derive(Clone)]
struct GenOpts {
    tcp_addr: Option<String>,
    n: usize,
    shards: usize,
    clients: usize,
    batches: usize,
    batch_ops: usize,
    query_frac: f64,
    churn: f64,
    strided: bool,
    seed: u64,
    send_shutdown: bool,
    kill_after: Option<usize>,
    resume: bool,
    state: Option<String>,
    retry_secs: u64,
    followers: Vec<String>,
    metrics_out: Option<String>,
    binary: bool,
    pipeline: usize,
    subscribe: bool,
}

impl Default for GenOpts {
    fn default() -> Self {
        GenOpts {
            tcp_addr: None,
            n: 1 << 20,
            shards: 4,
            clients: 8,
            batches: 64,
            batch_ops: 8192,
            query_frac: 0.5,
            churn: 0.0,
            strided: false,
            seed: 0x10ad,
            send_shutdown: false,
            kill_after: None,
            resume: false,
            state: None,
            retry_secs: 30,
            followers: Vec::new(),
            metrics_out: None,
            binary: false,
            pipeline: 1,
            subscribe: false,
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: connectit-loadgen [--mode inproc|tcp] [--addr HOST:PORT] [--n N]\n\
         \x20                        [--shards S] [--clients C] [--batches B] [--batch-ops K]\n\
         \x20                        [--query-frac F] [--churn F] [--layout blocked|strided]\n\
         \x20                        [--seed X] [--shutdown]\n\
         \x20                        [--kill-after B --state FILE] [--resume [--state FILE]]\n\
         \x20                        [--retry-secs S] [--follower HOST:PORT]...\n\
         \x20                        [--metrics-out FILE] [--binary [--pipeline N]]\n\
         \x20                        [--subscribe]\n\
         \x20  --follower (repeatable): split-route — inserts to --addr (the primary),\n\
         \x20        queries to the followers behind a WAIT read-your-writes barrier\n\
         \x20  --kill-after B: stop after B batches/client and checkpoint the oracle to\n\
         \x20        --state FILE (tcp mode; the harness then kills/restarts the server)\n\
         \x20  --resume: survive server restarts (reconnect + resubmit in-flight inserts);\n\
         \x20        with --state FILE, first restore and re-validate the checkpoint\n\
         \x20  --churn F: mix deletions in at fraction F of update traffic and validate\n\
         \x20        queries EXACTLY against a dynamic oracle (QUIESCE + generation\n\
         \x20        sandwich); incompatible with --follower\n\
         \x20  --metrics-out FILE: after the run, scrape the server's METRICS exposition\n\
         \x20        (in-proc or over TCP) and write it to FILE, `# EOF` terminated\n\
         \x20  --binary: drive the pipelined binary protocol (tcp mode; same port, the\n\
         \x20        server sniffs the first byte); all oracle validation applies unchanged\n\
         \x20  --pipeline N: with --binary, keep up to N request frames in flight per\n\
         \x20        connection (batches split into N windows reaped out of order)\n\
         \x20  --subscribe: register pair subscriptions (SUB u v) alongside an insert-only\n\
         \x20        stream and validate every pushed event exactly — no missed, duplicate,\n\
         \x20        ghost, or mis-stamped fires (tcp text mode; incompatible with --binary,\n\
         \x20        --churn and --follower); composes with --kill-after/--resume using a\n\
         \x20        durable-subscription sidecar next to --state FILE"
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<GenOpts, String> {
    let mut o = GenOpts::default();
    let mut it = args.iter();
    let next_val = |flag: &str, it: &mut std::slice::Iter<String>| -> Result<String, String> {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--mode" => match next_val(a, &mut it)?.as_str() {
                "inproc" => o.tcp_addr = None,
                "tcp" => {
                    o.tcp_addr.get_or_insert_with(|| "127.0.0.1:7411".to_string());
                }
                other => return Err(format!("unknown --mode {other:?}")),
            },
            "--addr" => o.tcp_addr = Some(next_val(a, &mut it)?),
            "--n" => o.n = next_val(a, &mut it)?.parse().map_err(|_| "bad --n")?,
            "--shards" => o.shards = next_val(a, &mut it)?.parse().map_err(|_| "bad --shards")?,
            "--clients" => {
                o.clients = next_val(a, &mut it)?.parse().map_err(|_| "bad --clients")?
            }
            "--batches" => {
                o.batches = next_val(a, &mut it)?.parse().map_err(|_| "bad --batches")?
            }
            "--batch-ops" => {
                o.batch_ops = next_val(a, &mut it)?.parse().map_err(|_| "bad --batch-ops")?
            }
            "--query-frac" => {
                o.query_frac = next_val(a, &mut it)?.parse().map_err(|_| "bad --query-frac")?
            }
            "--churn" => o.churn = next_val(a, &mut it)?.parse().map_err(|_| "bad --churn")?,
            "--layout" => match next_val(a, &mut it)?.as_str() {
                "blocked" => o.strided = false,
                "strided" => o.strided = true,
                other => return Err(format!("unknown --layout {other:?}")),
            },
            "--seed" => o.seed = next_val(a, &mut it)?.parse().map_err(|_| "bad --seed")?,
            "--shutdown" => o.send_shutdown = true,
            "--kill-after" => {
                o.kill_after = Some(next_val(a, &mut it)?.parse().map_err(|_| "bad --kill-after")?)
            }
            "--resume" => o.resume = true,
            "--state" => o.state = Some(next_val(a, &mut it)?),
            "--metrics-out" => o.metrics_out = Some(next_val(a, &mut it)?),
            "--binary" => o.binary = true,
            "--subscribe" => o.subscribe = true,
            "--pipeline" => {
                o.pipeline = next_val(a, &mut it)?.parse().map_err(|_| "bad --pipeline")?
            }
            "--retry-secs" => {
                o.retry_secs = next_val(a, &mut it)?.parse().map_err(|_| "bad --retry-secs")?
            }
            "--follower" => {
                // Repeatable; commas also split for convenience.
                o.followers.extend(next_val(a, &mut it)?.split(',').map(str::to_string));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !o.followers.is_empty() && o.tcp_addr.is_none() {
        return Err("--follower split-routing needs --mode tcp (inserts go to --addr, the \
                    primary)"
            .into());
    }
    if o.clients == 0 || o.n / o.clients < 2 {
        return Err("need n / clients >= 2".to_string());
    }
    if !(0.0..=1.0).contains(&o.query_frac) {
        return Err("--query-frac must be in [0, 1]".to_string());
    }
    if !(0.0..=1.0).contains(&o.churn) {
        return Err("--churn must be in [0, 1]".to_string());
    }
    if o.churn > 0.0 && !o.followers.is_empty() {
        return Err("--churn validates against a single endpoint (deletes route to the \
                    primary); drop --follower"
            .into());
    }
    if (o.kill_after.is_some() || o.resume) && o.tcp_addr.is_none() {
        return Err("--kill-after/--resume need --mode tcp (the server must outlive us)".into());
    }
    if o.kill_after.is_some() && o.state.is_none() {
        return Err("--kill-after needs --state FILE to checkpoint the oracle into".into());
    }
    if o.kill_after == Some(0) {
        return Err("--kill-after must be at least 1".into());
    }
    if o.kill_after.is_some() && o.send_shutdown {
        return Err("--kill-after keeps the server running; drop --shutdown".into());
    }
    if o.binary && o.tcp_addr.is_none() {
        return Err("--binary needs --mode tcp (the protocol lives on the wire)".into());
    }
    if o.pipeline == 0 {
        return Err("--pipeline must be at least 1".to_string());
    }
    if o.pipeline > 1 && !o.binary {
        return Err("--pipeline needs --binary (the text protocol is strictly \
                    request/reply)"
            .into());
    }
    if o.subscribe {
        if o.tcp_addr.is_none() {
            return Err("--subscribe needs --mode tcp (events are pushed over the wire)".into());
        }
        if o.binary {
            return Err("--subscribe drives the text protocol's push lines; drop --binary".into());
        }
        if o.churn > 0.0 {
            return Err("--subscribe validates one-shot pair fires over an insert-only \
                        stream (monotone connectivity makes expectations exact); drop --churn"
                .into());
        }
        if !o.followers.is_empty() {
            return Err("--subscribe registers on the primary; drop --follower".into());
        }
    }
    Ok(o)
}

/// One client's checkpointed oracle state: a label array for the
/// insert-only workload, or the live edge set (local coordinates) for
/// churn — labels alone cannot seed a deletion oracle.
enum ClientCheckpoint {
    Labels(Vec<u32>),
    Edges(Vec<(u32, u32)>),
}

/// Writes the crash-drill checkpoint: a header record (run parameters +
/// batches completed) then one oracle record per client — labels for an
/// insert-only run, the live edge set for a churn run.
fn write_state(
    path: &str,
    o: &GenOpts,
    batches_done: usize,
    states: &[ClientCheckpoint],
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    binary::write_magic(&mut w, STATE_MAGIC)?;
    let mut header = Vec::new();
    header.extend_from_slice(&(o.n as u64).to_le_bytes());
    header.extend_from_slice(&(o.clients as u64).to_le_bytes());
    header.extend_from_slice(&(batches_done as u64).to_le_bytes());
    header.extend_from_slice(&o.seed.to_le_bytes());
    header.push(u8::from(o.strided));
    header.push(u8::from(o.churn > 0.0));
    binary::append_record(&mut w, &header)?;
    for (idx, state) in states.iter().enumerate() {
        let payload = match state {
            ClientCheckpoint::Labels(labels) => binary::encode_labels(idx as u64, labels),
            ClientCheckpoint::Edges(edges) => binary::encode_edge_batch(idx as u64, edges),
        };
        binary::append_record(&mut w, &payload)?;
    }
    w.flush()?;
    w.get_ref().sync_data()
}

/// Reads a [`write_state`] checkpoint back, validating it against the
/// current run parameters. Returns `(batches_done, per-client states)`.
fn read_state(path: &str, o: &GenOpts) -> Result<(usize, Vec<ClientCheckpoint>), String> {
    let fail = |e: &dyn std::fmt::Display| format!("state file {path}: {e}");
    let file = std::fs::File::open(path).map_err(|e| fail(&e))?;
    let mut reader = std::io::BufReader::new(file);
    binary::read_magic(&mut reader, STATE_MAGIC).map_err(|e| fail(&e))?;
    let mut records = binary::RecordReader::new(reader, binary::MAGIC_LEN as u64);
    let header =
        records.next().map_err(|e| fail(&e))?.ok_or_else(|| fail(&"missing header record"))?;
    if header.len() != 34 {
        return Err(fail(&format!("header is {} bytes, want 34", header.len())));
    }
    let word = |i: usize| u64::from_le_bytes(header[i..i + 8].try_into().expect("8 bytes"));
    let (n, clients, batches_done, seed) = (word(0), word(8), word(16), word(24));
    let strided = header[32] != 0;
    let churn = header[33] != 0;
    if n != o.n as u64 || clients != o.clients as u64 || seed != o.seed || strided != o.strided {
        return Err(fail(&format!(
            "checkpointed run (n={n} clients={clients} seed={seed} strided={strided}) does \
             not match the flags of this run; resume with the original parameters"
        )));
    }
    if churn != (o.churn > 0.0) {
        return Err(fail(&format!(
            "checkpoint was written {} --churn but this run is {} it; resume with the \
             original workload",
            if churn { "with" } else { "without" },
            if o.churn > 0.0 { "using" } else { "not using" }
        )));
    }
    let sz = o.n / o.clients;
    let mut states: Vec<ClientCheckpoint> = Vec::with_capacity(o.clients);
    while let Some(payload) = records.next().map_err(|e| fail(&e))? {
        let (idx, state) = if churn {
            let (idx, edges) =
                binary::decode_edge_batch(&payload, records.offset()).map_err(|e| fail(&e))?;
            if edges.iter().any(|&(u, v)| u as usize >= sz || v as usize >= sz) {
                return Err(fail(&"checkpointed edge outside the client's slice"));
            }
            (idx, ClientCheckpoint::Edges(edges))
        } else {
            let (idx, labels) =
                binary::decode_labels(&payload, records.offset()).map_err(|e| fail(&e))?;
            if labels.len() != sz {
                return Err(fail(&"client label record mis-sized"));
            }
            (idx, ClientCheckpoint::Labels(labels))
        };
        if idx as usize != states.len() {
            return Err(fail(&"client records out of order"));
        }
        states.push(state);
    }
    if states.len() != o.clients {
        return Err(fail(&format!("{} client records, want {}", states.len(), o.clients)));
    }
    Ok((batches_done as usize, states))
}

/// Opens one wire connection: the text door, or the binary door with
/// `--binary` (both on the server's single port, first-byte sniff).
fn connect(addr: &str, o: &GenOpts) -> std::io::Result<WireClient> {
    if o.binary {
        WireClient::binary(addr)
    } else {
        WireClient::text(addr)
    }
}

/// Submits a mixed batch; answers in query submission order. With a
/// `windows > 1` pipeline (`--binary --pipeline N`) the batch is split
/// into up to `windows` framed `B` requests, all in flight at once.
/// Reaping is order-free: answers are reassembled by correlation id, so
/// out-of-order completion (the protocol's contract) is exercised, not
/// just tolerated.
fn wire_submit(c: &mut WireClient, ops: &[Update], windows: usize) -> std::io::Result<Vec<bool>> {
    if windows <= 1 {
        return Ok(c.submit(ops)?.into_iter().map(|(bit, _)| bit).collect());
    }
    for window in ops.chunks(ops.len().div_ceil(windows).max(1)) {
        c.send(&BinRequest::Batch(window.to_vec()).into())?;
    }
    // Correlation ids rise in send order, so the map's order is the
    // submission order.
    let mut by_corr: BTreeMap<u64, Vec<(bool, Option<u64>)>> = BTreeMap::new();
    while c.in_flight() > 0 {
        let (corr, reply) = c.reap()?;
        let answers = match reply {
            Reply::Answers(a) => a,
            Reply::Err(msg) => return Err(std::io::Error::other(format!("server error: {msg}"))),
            other => return Err(std::io::Error::other(format!("unexpected B reply {other:?}"))),
        };
        by_corr.insert(corr, answers);
    }
    Ok(by_corr.into_values().flatten().map(|(bit, _)| bit).collect())
}

/// One transport connection, in-process or over the wire (with its
/// `--pipeline` window).
enum Conn {
    InProc(cc_server::Client),
    Tcp(Box<WireClient>, usize),
}

impl Conn {
    fn tcp(client: WireClient, o: &GenOpts) -> Conn {
        Conn::Tcp(Box::new(client), o.pipeline)
    }

    fn submit(&mut self, ops: &[Update]) -> Result<Vec<bool>, String> {
        match self {
            Conn::InProc(c) => c.submit(ops.to_vec()).map_err(|e| e.to_string()),
            Conn::Tcp(c, windows) => wire_submit(c, ops, *windows).map_err(|e| e.to_string()),
        }
    }

    fn epoch(&mut self) -> Result<u64, String> {
        match self {
            Conn::InProc(c) => Ok(c.epoch()),
            Conn::Tcp(c, _) => c.epoch().map_err(|e| e.to_string()),
        }
    }

    /// Blocks until no generation rebuild is in flight (or the timeout
    /// lapses, which surfaces as `Err` and is survivable: the caller's
    /// generation sandwich just won't find a clean window).
    fn quiesce(&mut self, timeout_ms: u64) -> Result<u64, String> {
        match self {
            Conn::InProc(c) => {
                c.quiesce(Duration::from_millis(timeout_ms)).map_err(|e| e.to_string())
            }
            Conn::Tcp(c, _) => c.quiesce(timeout_ms).map_err(|e| e.to_string()),
        }
    }

    /// Reads `(generation, dirty)` — one side of the churn sandwich.
    fn generation(&mut self) -> Result<(u64, bool), String> {
        let info = match self {
            Conn::InProc(c) => c.generation_info(),
            Conn::Tcp(c, _) => c.generation_info().map_err(|e| e.to_string())?,
        };
        Ok((info.generation, info.dirty))
    }

    /// `TOPK k`: size-descending `(root, size)` entries (singletons
    /// excluded by the verb's contract).
    fn topk(&mut self, k: usize) -> Result<Vec<(u32, u64)>, String> {
        match self {
            Conn::InProc(c) => Ok(c.topk(k).0),
            Conn::Tcp(c, _) => c
                .topk(k.min(u8::MAX as usize) as u8)
                .map(|(entries, ..)| entries)
                .map_err(|e| e.to_string()),
        }
    }

    /// `HIST`: `(components, dense log2 buckets)`.
    fn hist(&mut self) -> Result<(u64, Vec<u64>), String> {
        match self {
            Conn::InProc(c) => {
                let view = c.analytics();
                Ok((view.components, view.hist.to_vec()))
            }
            Conn::Tcp(c, _) => {
                c.hist().map(|(comp, buckets, ..)| (comp, buckets)).map_err(|e| e.to_string())
            }
        }
    }

    /// `SIZE v`: the size of `v`'s component.
    fn component_size(&mut self, v: u32) -> Result<u64, String> {
        match self {
            Conn::InProc(c) => {
                c.component_size(v).map(|(_root, size)| size).map_err(|e| e.to_string())
            }
            Conn::Tcp(c, _) => {
                c.component_size(v).map(|(size, _root)| size).map_err(|e| e.to_string())
            }
        }
    }
}

/// One client's connection to its follower replica, with the reconnect
/// resilience the kill-a-follower drill leans on: every operation that
/// fails is retried against a fresh connection until `--retry-secs`
/// lapses (reads and `WAIT` are idempotent, so a retry is always safe).
struct FollowerLink {
    addr: String,
    conn: Option<WireClient>,
    retry: Duration,
    opts: GenOpts,
    /// The largest epoch this follower ever reported: `WAIT` replies
    /// must never regress (the honesty half of the staleness contract).
    max_epoch_seen: u64,
}

impl FollowerLink {
    fn connect(addr: String, o: &GenOpts) -> FollowerLink {
        FollowerLink {
            conn: connect(addr.as_str(), o).ok(),
            addr,
            retry: Duration::from_secs(o.retry_secs),
            opts: o.clone(),
            max_epoch_seen: 0,
        }
    }

    /// Runs `op` with reconnect-retry. The closure gets a live client;
    /// any error drops the connection and retries until the deadline.
    fn with_retry<T>(
        &mut self,
        what: &str,
        mut op: impl FnMut(&mut WireClient) -> std::io::Result<T>,
    ) -> Result<T, String> {
        let deadline = Instant::now() + self.retry;
        loop {
            if let Some(c) = self.conn.as_mut() {
                match op(c) {
                    Ok(v) => return Ok(v),
                    Err(_) => self.conn = None,
                }
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "follower {}: {what} kept failing for {:?} (is it down for good?)",
                    self.addr, self.retry
                ));
            }
            std::thread::sleep(Duration::from_millis(200));
            self.conn = connect(self.addr.as_str(), &self.opts).ok();
        }
    }

    /// `WAIT`s until the follower reaches `epoch`, then submits the
    /// query-only batch — as ONE retry unit, so a reconnect (say, to a
    /// follower that was just SIGKILLed and restarted empty) always
    /// re-establishes the read-your-writes barrier before re-querying.
    /// Also checks the honesty half of the staleness contract: the
    /// follower's reported epoch never regresses.
    fn wait_and_query(&mut self, epoch: u64, queries: &[Update]) -> Result<Vec<bool>, String> {
        let timeout_ms = self.retry.as_millis() as u64;
        let windows = self.opts.pipeline;
        let (reached, answers) = self.with_retry("WAIT + queries", |c| {
            let reached = c.wait_epoch(epoch, timeout_ms)?;
            let answers = wire_submit(c, queries, windows)?;
            Ok((reached, answers))
        })?;
        if reached < self.max_epoch_seen {
            return Err(format!(
                "follower {}: reported epoch went backwards ({reached} after {})",
                self.addr, self.max_epoch_seen
            ));
        }
        self.max_epoch_seen = reached;
        if answers.len() != queries.len() {
            return Err(format!(
                "follower {}: {} answers to {} queries",
                self.addr,
                answers.len(),
                queries.len()
            ));
        }
        Ok(answers)
    }
}

#[derive(Default)]
struct WorkerReport {
    ops: u64,
    queries: u64,
    exact: u64,
    transitions: u64,
    mismatches: u64,
    /// Batches whose query answers were skipped because the connection
    /// died mid-submit and the inserts were replayed after reconnecting.
    skipped_batches: u64,
    /// Post-restore sweep queries validating the checkpointed oracle
    /// against the recovered server.
    sweep_checks: u64,
    /// Queries answered by a follower behind the WAIT barrier (all of
    /// them exactly validated).
    follower_verified: u64,
    /// Deletions submitted (churn mode).
    deletes: u64,
    /// Churn queries whose generation sandwich never found a clean
    /// window; their answers are advisory and were not validated.
    stale_skipped: u64,
    /// Analytics answers (`TOPK`/`HIST`/`SIZE`) validated exactly
    /// against the oracle partition (churn mode).
    analytics_checks: u64,
    /// Pair subscriptions registered (`--subscribe`).
    subs_registered: u64,
    /// Push events received (`--subscribe`).
    sub_events: u64,
    /// Subscription contract violations: missed, duplicated, ghost,
    /// early, or mis-stamped fires (`--subscribe`).
    sub_mismatches: u64,
    first_mismatch: Option<String>,
    /// The oracle state at exit, captured for `--kill-after`
    /// checkpointing.
    final_state: Option<ClientCheckpoint>,
    /// Live durable subscriptions at exit, captured for the
    /// `--kill-after` sidecar so a `--resume` run can re-attach them.
    final_subs: Option<Vec<SavedSub>>,
    /// The oracle's final component-size multiset over this client's
    /// private slice (churn mode), aggregated by the end-of-run global
    /// `TOPK`/`HIST` validation.
    final_sizes: Option<Vec<u64>>,
}

/// Submits with crash resilience: on a transport error in `--resume`
/// mode, reconnects (for up to `--retry-secs`) and resubmits the batch's
/// updates. Replaying the full insert/delete sequence in order is
/// idempotent at the liveness level (each edge ends in the state its
/// last operation left it in), so a partially-applied first attempt is
/// harmless. Returns `Ok(None)` for such a replayed batch (its query
/// answers are unknowable and must be skipped).
fn submit_resilient(
    o: &GenOpts,
    conn: &mut Conn,
    wire_ops: &[Update],
) -> Result<Option<Vec<bool>>, String> {
    let first_err = match conn.submit(wire_ops) {
        Ok(answers) => return Ok(Some(answers)),
        Err(e) => e,
    };
    let updates: Vec<Update> =
        wire_ops.iter().filter(|op| !matches!(op, Update::Query(..))).copied().collect();
    reconnect(o, conn, first_err, |c| wire_submit(c, &updates, o.pipeline)).map(|_| None)
}

/// Reads the primary's epoch, with the same reconnect resilience as
/// [`submit_resilient`] when `--resume` allows it.
fn primary_epoch_resilient(o: &GenOpts, conn: &mut Conn) -> Result<u64, String> {
    conn.epoch().or_else(|e| reconnect(o, conn, e, WireClient::epoch))
}

/// After `first_err`, and only in `--resume` mode: reconnects (for up to
/// `--retry-secs`) until `op` succeeds on a fresh connection, which then
/// replaces `conn`.
fn reconnect<T>(
    o: &GenOpts,
    conn: &mut Conn,
    first_err: String,
    mut op: impl FnMut(&mut WireClient) -> std::io::Result<T>,
) -> Result<T, String> {
    let (true, Some(addr)) = (o.resume, o.tcp_addr.as_deref()) else {
        return Err(first_err);
    };
    let deadline = Instant::now() + Duration::from_secs(o.retry_secs);
    loop {
        std::thread::sleep(Duration::from_millis(200));
        if let Ok(mut c) = connect(addr, o) {
            if let Ok(v) = op(&mut c) {
                *conn = Conn::tcp(c, o);
                return Ok(v);
            }
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "connection lost ({first_err}) and not restored within {}s",
                o.retry_secs
            ));
        }
    }
}

/// Submits a query-only batch so its answers are *exact* under churn.
/// Quiesce (drain any in-flight rebuild), read `(generation, dirty)`,
/// query, read it again: a rebuild commit always bumps the generation,
/// so clean-at-the-same-generation on both sides proves the engine was
/// clean for the whole batch, and every answer was served from live
/// labels that include all of this client's committed mutations (other
/// clients never touch this slice). Returns `Ok(None)` when no clean
/// window appears within a few attempts — the caller counts the batch
/// as `stale_skipped` instead of guessing.
fn sandwiched_queries(
    o: &GenOpts,
    conn: &mut Conn,
    queries: &[Update],
) -> Result<Option<Vec<bool>>, String> {
    for _ in 0..5 {
        // A quiesce timeout (or a cut connection — the next call retries
        // through `submit_resilient`) only costs this attempt.
        let _ = conn.quiesce(CHURN_QUIESCE_MS);
        let (g1, dirty1) = match conn.generation() {
            Ok(g) => g,
            Err(_) => continue,
        };
        if dirty1 {
            continue;
        }
        let Some(answers) = submit_resilient(o, conn, queries)? else {
            continue;
        };
        let (g2, dirty2) = conn.generation()?;
        if !dirty2 && g2 == g1 {
            if answers.len() != queries.len() {
                return Err(format!("answer count {} != queries {}", answers.len(), queries.len()));
            }
            return Ok(Some(answers));
        }
    }
    Ok(None)
}

/// Re-validates a restored oracle against the recovered server: every
/// `v ~ rep(v)` fact must still hold, and representatives of distinct
/// components must still be disconnected (slices are private, so both
/// directions are forced). `labels` is the oracle's component labeling.
/// Under churn the sweep queries go through the generation sandwich.
fn revalidate_restored(
    o: &GenOpts,
    idx: usize,
    conn: &mut Conn,
    labels: &[u32],
    to_global: &impl Fn(usize) -> u32,
    rep: &mut WorkerReport,
) -> Result<(), String> {
    let sz = o.n / o.clients;
    let mut expected: Vec<bool> = Vec::new();
    let mut wire: Vec<Update> = Vec::new();
    // Positives: vertex ~ its component representative.
    for (v, &label) in labels.iter().enumerate() {
        let l = label as usize;
        if l != v {
            wire.push(Update::Query(to_global(v), to_global(l)));
            expected.push(true);
        }
    }
    // Negatives: consecutive distinct representatives are disconnected.
    let mut reps: Vec<usize> = (0..sz).filter(|&v| labels[v] as usize == v).collect();
    reps.truncate(2048);
    for pair in reps.windows(2) {
        wire.push(Update::Query(to_global(pair[0]), to_global(pair[1])));
        expected.push(false);
    }
    for (chunk, expect_chunk) in wire.chunks(4096).zip(expected.chunks(4096)) {
        let answers = if o.churn > 0.0 {
            match sandwiched_queries(o, conn, chunk)? {
                Some(answers) => answers,
                None => {
                    rep.stale_skipped += chunk.len() as u64;
                    continue;
                }
            }
        } else {
            conn.submit(chunk)?
        };
        if answers.len() != expect_chunk.len() {
            return Err(format!(
                "sweep answer count {} != queries {}",
                answers.len(),
                expect_chunk.len()
            ));
        }
        for (i, (&got, &want)) in answers.iter().zip(expect_chunk).enumerate() {
            rep.sweep_checks += 1;
            if got != want {
                rep.mismatches += 1;
                rep.first_mismatch.get_or_insert_with(|| {
                    let (Update::Insert(u, v) | Update::Delete(u, v) | Update::Query(u, v)) =
                        chunk[i];
                    format!(
                        "client {idx}: restored-oracle sweep: query({u}, {v}) answered \
                         {got}, checkpoint says {want} — recovery lost or invented an edge"
                    )
                });
            }
        }
    }
    Ok(())
}

/// The closed loop for one client thread. `start_batch` and `restored`
/// carry `--resume` checkpoint state; the loop runs batches
/// `start_batch..end` where `end` honors `--kill-after`.
fn run_worker(
    o: &GenOpts,
    idx: usize,
    mut conn: Conn,
    start_batch: usize,
    restored: Option<ClientCheckpoint>,
) -> Result<WorkerReport, String> {
    let sz = o.n / o.clients;
    let to_global = |l: usize| -> u32 {
        if o.strided {
            (idx + l * o.clients) as u32
        } else {
            (idx * sz + l) as u32
        }
    };
    let mut oracle = SeqUnionFind::new(sz);
    let mut rep = WorkerReport::default();
    // Split routing: this worker's queries go to one follower replica
    // (workers round-robin over the list), inserts to the primary.
    let mut follower = (!o.followers.is_empty())
        .then(|| FollowerLink::connect(o.followers[idx % o.followers.len()].clone(), o));
    if let Some(state) = restored {
        let ClientCheckpoint::Labels(labels) = state else {
            return Err("checkpoint holds an edge set but this run is not --churn".into());
        };
        for (v, &l) in labels.iter().enumerate() {
            if l as usize != v {
                oracle.union(v as u32, l);
            }
        }
        revalidate_restored(o, idx, &mut conn, &oracle.labels(), &to_global, &mut rep)?;
    }
    // Phase-distinct RNG stream: a resumed run must not replay the
    // pre-checkpoint op sequence.
    let mut rng = SplitMix64::new(
        o.seed
            ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(idx as u64 + 1))
            ^ (0x2545_f491_4f6c_dd1du64.wrapping_mul(start_batch as u64)),
    );
    let mut local_ops: Vec<(bool, u32, u32)> = Vec::with_capacity(o.batch_ops);
    let mut wire_ops: Vec<Update> = Vec::with_capacity(o.batch_ops);
    let mut before: Vec<bool> = Vec::new();
    let query_cut = (o.query_frac * (1u64 << 32) as f64) as u64;
    let end_batch = match o.kill_after {
        Some(k) => o.batches.min(start_batch + k),
        None => o.batches,
    };
    for _ in start_batch..end_batch {
        local_ops.clear();
        wire_ops.clear();
        before.clear();
        for _ in 0..o.batch_ops {
            let r = rng.next_u64();
            let lu = (r >> 32) as usize % sz;
            let lv = (rng.next_u64() >> 32) as usize % sz;
            let is_query = (r & 0xffff_ffff) < query_cut;
            local_ops.push((is_query, lu as u32, lv as u32));
            let (gu, gv) = (to_global(lu), to_global(lv));
            if is_query {
                before.push(oracle.connected(lu as u32, lv as u32));
                wire_ops.push(Update::Query(gu, gv));
            } else {
                wire_ops.push(Update::Insert(gu, gv));
            }
        }
        if let Some(link) = follower.as_mut() {
            // Split-route: inserts to the primary first...
            let inserts: Vec<Update> =
                wire_ops.iter().copied().filter(|op| matches!(op, Update::Insert(..))).collect();
            let queries: Vec<Update> =
                wire_ops.iter().copied().filter(|op| matches!(op, Update::Query(..))).collect();
            if !inserts.is_empty() {
                submit_resilient(o, &mut conn, &inserts)?;
            }
            for &(is_query, lu, lv) in &local_ops {
                if !is_query {
                    oracle.union(lu, lv);
                }
            }
            rep.ops += o.batch_ops as u64;
            if queries.is_empty() {
                continue;
            }
            // ...then WAIT the primary's epoch on the follower and query
            // it there. The barrier makes every answer exact: the oracle
            // already holds this batch's inserts, and the follower is
            // guaranteed to as well.
            let target = primary_epoch_resilient(o, &mut conn)?;
            let answers = link.wait_and_query(target, &queries)?;
            let mut ai = 0usize;
            for &(is_query, lu, lv) in &local_ops {
                if !is_query {
                    continue;
                }
                let got = answers[ai];
                ai += 1;
                let want = oracle.connected(lu, lv);
                rep.queries += 1;
                rep.exact += 1;
                rep.follower_verified += 1;
                if got != want {
                    rep.mismatches += 1;
                    rep.first_mismatch.get_or_insert_with(|| {
                        format!(
                            "client {idx}: follower {}: query({}, {}) answered {got} behind \
                             WAIT {target}, oracle says {want}",
                            link.addr,
                            to_global(lu as usize),
                            to_global(lv as usize)
                        )
                    });
                }
            }
            continue;
        }
        let answers = submit_resilient(o, &mut conn, &wire_ops)?;
        // Advance the oracle past this batch's insertions (a replayed
        // batch applied exactly these inserts too).
        for &(is_query, lu, lv) in &local_ops {
            if !is_query {
                oracle.union(lu, lv);
            }
        }
        rep.ops += o.batch_ops as u64;
        let Some(answers) = answers else {
            rep.skipped_batches += 1;
            continue;
        };
        // Bracket-check every answer.
        let mut qi = 0usize;
        for &(is_query, lu, lv) in &local_ops {
            if !is_query {
                continue;
            }
            let got = *answers
                .get(qi)
                .ok_or_else(|| format!("short answer vector: {} < …", answers.len()))?;
            let was = before[qi];
            let now = oracle.connected(lu, lv);
            qi += 1;
            rep.queries += 1;
            if was == now {
                rep.exact += 1;
                if got != was {
                    rep.mismatches += 1;
                    rep.first_mismatch.get_or_insert_with(|| {
                        format!(
                            "client {idx}: query({}, {}) answered {got}, oracle says {was} \
                             (stable across the batch)",
                            to_global(lu as usize),
                            to_global(lv as usize)
                        )
                    });
                }
            } else {
                // false -> true within this batch: either answer is a
                // valid linearization.
                rep.transitions += 1;
            }
        }
        if qi != answers.len() {
            return Err(format!("answer count {} != queries {qi}", answers.len()));
        }
    }
    if o.kill_after.is_some() {
        rep.final_state = Some(ClientCheckpoint::Labels(oracle.labels()));
    }
    Ok(rep)
}

/// Magic first line of the `--subscribe` crash-drill sidecar (written
/// next to `--state FILE` as `FILE.subs`).
const SUB_STATE_MAGIC: &str = "CCLGSUBS01";

/// A durable subscription carried across a `--kill-after` checkpoint:
/// enough to re-`SUB ATTACH` after the server restarts and to absorb
/// recovery re-fires without double-counting.
#[derive(Clone)]
struct SavedSub {
    id: u64,
    lu: u32,
    lv: u32,
    fired: bool,
}

/// Per-subscription expectation state in the `--subscribe` worker.
struct SubTrack {
    lu: u32,
    lv: u32,
    /// A fire is owed within this epoch window `(lo, hi]`. `(0, MAX)`
    /// means "any epoch": registration-time fires (the pair was already
    /// connected when `SUB` was accepted) and recovery re-evaluations.
    /// `None` means no fire is legal yet — the oracle says the pair is
    /// still disconnected.
    expect: Option<(u64, u64)>,
    fired: bool,
}

/// Writes the durable-subscription sidecar: one `client` header per
/// worker, then `<id> <lu> <lv> <fired>` lines.
fn write_sub_state(path: &str, per_client: &[Vec<SavedSub>]) -> std::io::Result<()> {
    let mut out = String::from(SUB_STATE_MAGIC);
    out.push('\n');
    for (idx, subs) in per_client.iter().enumerate() {
        out.push_str(&format!("client {idx} {}\n", subs.len()));
        for s in subs {
            out.push_str(&format!("{} {} {} {}\n", s.id, s.lu, s.lv, u8::from(s.fired)));
        }
    }
    std::fs::write(path, out)
}

/// Reads a [`write_sub_state`] sidecar back.
fn read_sub_state(path: &str, clients: usize) -> Result<Vec<Vec<SavedSub>>, String> {
    let fail = |e: &dyn std::fmt::Display| format!("subscription sidecar {path}: {e}");
    let text = std::fs::read_to_string(path).map_err(|e| fail(&e))?;
    let mut lines = text.lines();
    if lines.next() != Some(SUB_STATE_MAGIC) {
        return Err(fail(&"bad magic"));
    }
    let mut out: Vec<Vec<SavedSub>> = Vec::with_capacity(clients);
    while let Some(header) = lines.next() {
        let mut it = header.split_whitespace();
        if it.next() != Some("client") {
            return Err(fail(&"bad client header"));
        }
        let idx: usize =
            it.next().and_then(|s| s.parse().ok()).ok_or_else(|| fail(&"bad client index"))?;
        let count: usize =
            it.next().and_then(|s| s.parse().ok()).ok_or_else(|| fail(&"bad sub count"))?;
        if idx != out.len() {
            return Err(fail(&"client records out of order"));
        }
        let mut subs = Vec::with_capacity(count);
        for _ in 0..count {
            let line = lines.next().ok_or_else(|| fail(&"truncated sub record"))?;
            let mut f = line.split_whitespace();
            let mut num = || f.next().and_then(|s| s.parse::<u64>().ok());
            let (Some(id), Some(lu), Some(lv), Some(fired)) = (num(), num(), num(), num()) else {
                return Err(fail(&"bad sub record"));
            };
            subs.push(SavedSub { id, lu: lu as u32, lv: lv as u32, fired: fired != 0 });
        }
        out.push(subs);
    }
    if out.len() != clients {
        return Err(fail(&format!("{} client records, want {clients}", out.len())));
    }
    Ok(out)
}

/// Records one subscription contract violation.
fn sub_mismatch(rep: &mut WorkerReport, idx: usize, msg: String) {
    rep.sub_mismatches += 1;
    rep.first_mismatch.get_or_insert_with(|| format!("client {idx}: subscription: {msg}"));
}

/// Classifies every received push event against the worker's
/// expectation table: ghost (fired after `UNSUB`), unknown id, wrong
/// kind/endpoints, duplicate, early (oracle says still disconnected),
/// or epoch outside the committing batch's window. A legal fire settles
/// its subscription.
fn process_sub_events(
    events: Vec<SubEvent>,
    idx: usize,
    subs: &mut HashMap<u64, SubTrack>,
    cancelled: &HashSet<u64>,
    rep: &mut WorkerReport,
) {
    for ev in events {
        rep.sub_events += 1;
        if cancelled.contains(&ev.id) {
            sub_mismatch(rep, idx, format!("ghost event for sub {} after UNSUB", ev.id));
            continue;
        }
        let Some(t) = subs.get_mut(&ev.id) else {
            sub_mismatch(rep, idx, format!("event for unknown sub {}", ev.id));
            continue;
        };
        if ev.kind != SubKind::Pair {
            sub_mismatch(rep, idx, format!("sub {}: non-pair event kind", ev.id));
            continue;
        }
        if t.fired {
            sub_mismatch(
                rep,
                idx,
                format!("sub {}: duplicate fire (seq {}, epoch {})", ev.id, ev.seq, ev.epoch),
            );
            continue;
        }
        if ev.seq != 1 {
            sub_mismatch(rep, idx, format!("sub {}: first fire carries seq {}", ev.id, ev.seq));
        }
        match t.expect {
            None => sub_mismatch(
                rep,
                idx,
                format!(
                    "sub {}: fired at epoch {} before the oracle saw ({}, {}) connect \
                     (early fire)",
                    ev.id, ev.epoch, t.lu, t.lv
                ),
            ),
            Some((lo, hi)) => {
                if ev.epoch <= lo || ev.epoch > hi {
                    sub_mismatch(
                        rep,
                        idx,
                        format!(
                            "sub {}: fire epoch {} outside the committing window ({lo}, {hi}]",
                            ev.id, ev.epoch
                        ),
                    );
                }
            }
        }
        t.fired = true;
        t.expect = None;
    }
}

/// The closed loop for one `--subscribe` client: an insert-only stream
/// over the private slice, with pair subscriptions registered against
/// it and every pushed event validated *exactly*. Connectivity is
/// monotone without deletions, so the contract has no slack: a pair
/// subscription fires exactly once, if and only if the pair is
/// connected, stamped with an epoch inside the `(EPOCH-before,
/// EPOCH-after]` window of the batch that connected it (registrations
/// over already-connected pairs fire immediately, at any epoch). A
/// cancelled subscription must stay silent forever. With
/// `--kill-after`/`--resume` the subscriptions are durable: the worker
/// re-attaches them with `SUB ATTACH id after_seq` after the server
/// restarts, absorbing the recovery re-fire of already-acknowledged
/// pairs while still demanding the fire that a connected-but-unfired
/// pair is owed.
fn run_sub_worker(
    o: &GenOpts,
    idx: usize,
    start_batch: usize,
    restored: Option<ClientCheckpoint>,
    resumed_subs: Vec<SavedSub>,
) -> Result<WorkerReport, String> {
    let sz = o.n / o.clients;
    let to_global = |l: usize| -> u32 {
        if o.strided {
            (idx + l * o.clients) as u32
        } else {
            (idx * sz + l) as u32
        }
    };
    let addr = o.tcp_addr.as_deref().expect("--subscribe is tcp-only");
    let mut client = WireClient::text(addr).map_err(|e| format!("connect failed: {e}"))?;
    // Insert-only workload: a sequential union-find is an exact oracle.
    let mut oracle = SeqUnionFind::new(sz);
    let mut rep = WorkerReport::default();
    let mut subs: HashMap<u64, SubTrack> = HashMap::new();
    let mut cancelled: HashSet<u64> = HashSet::new();
    let durable = o.kill_after.is_some() || o.resume;

    if let Some(state) = restored {
        let ClientCheckpoint::Labels(labels) = state else {
            return Err("checkpoint holds an edge set but --subscribe runs insert-only".into());
        };
        for (v, &l) in labels.iter().enumerate() {
            if l as usize != v {
                oracle.union(v as u32, l);
            }
        }
    }
    // Re-attach durable subscriptions that survived the restart.
    // `after_seq = 1` for already-acknowledged fires absorbs the
    // recovery re-fire server-side; receiving one anyway is a
    // duplicate-delivery bug. A connected-but-unfired pair is owed a
    // fire from recovery's re-evaluation — at whatever epoch the
    // recovered engine stamps it.
    for s in resumed_subs {
        client
            .attach_sub(s.id, u64::from(s.fired))
            .map_err(|e| format!("SUB ATTACH {} failed: {e}", s.id))?;
        let expect = (!s.fired && oracle.connected(s.lu, s.lv)).then_some((0u64, u64::MAX));
        subs.insert(s.id, SubTrack { lu: s.lu, lv: s.lv, expect, fired: s.fired });
    }

    // Phase-distinct RNG stream, mirroring [`run_worker`].
    let mut rng = SplitMix64::new(
        o.seed
            ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(idx as u64 + 1))
            ^ (0x2545_f491_4f6c_dd1du64.wrapping_mul(start_batch as u64)),
    );
    let mut live_edges: Vec<(u32, u32)> = Vec::new();
    let mut wire_ops: Vec<Update> = Vec::with_capacity(o.batch_ops);
    let mut batch_edges: Vec<(u32, u32)> = Vec::with_capacity(o.batch_ops);
    let end_batch = match o.kill_after {
        Some(k) => o.batches.min(start_batch + k),
        None => o.batches,
    };
    for batch in start_batch..end_batch {
        // Register two fresh pair subscriptions: one over a known live
        // edge (already connected — must fire immediately), one random
        // (usually pending until some batch connects it).
        for pick_connected in [true, false] {
            let (lu, lv) = if pick_connected && !live_edges.is_empty() {
                live_edges[(rng.next_u64() % live_edges.len() as u64) as usize]
            } else {
                (
                    ((rng.next_u64() >> 32) as usize % sz) as u32,
                    ((rng.next_u64() >> 32) as usize % sz) as u32,
                )
            };
            let (u, v) = (to_global(lu as usize), to_global(lv as usize));
            let (id, _epoch) = client
                .subscribe(SubKind::Pair, u, v, durable)
                .map_err(|e| format!("SUB failed: {e}"))?;
            let expect = oracle.connected(lu, lv).then_some((0u64, u64::MAX));
            subs.insert(id, SubTrack { lu, lv, expect, fired: false });
            rep.subs_registered += 1;
        }
        // Every few batches, cancel one idle (never fired, still
        // disconnected, so no fire can be in flight) subscription and
        // hold it to silence forever.
        if batch % 4 == 3 {
            let victim =
                subs.iter().find(|(_, t)| !t.fired && t.expect.is_none()).map(|(&id, _)| id);
            if let Some(id) = victim {
                client.unsubscribe(id).map_err(|e| format!("UNSUB {id} failed: {e}"))?;
                subs.remove(&id);
                cancelled.insert(id);
            }
        }
        // The insert batch, bracketed by EPOCH reads: everything it
        // commits lands at an epoch in (e_pre, e_post].
        wire_ops.clear();
        batch_edges.clear();
        for _ in 0..o.batch_ops {
            let lu = ((rng.next_u64() >> 32) as usize % sz) as u32;
            let lv = ((rng.next_u64() >> 32) as usize % sz) as u32;
            batch_edges.push((lu, lv));
            wire_ops.push(Update::Insert(to_global(lu as usize), to_global(lv as usize)));
        }
        let e_pre = client.epoch().map_err(|e| e.to_string())?;
        client.submit(&wire_ops).map_err(|e| e.to_string())?;
        let e_post = client.epoch().map_err(|e| e.to_string())?;
        rep.ops += o.batch_ops as u64;
        for &(lu, lv) in &batch_edges {
            oracle.union(lu, lv);
            live_edges.push((lu, lv));
        }
        // Pending subscriptions whose endpoints this batch connected now
        // owe a fire stamped inside the batch's committing window.
        for t in subs.values_mut() {
            if !t.fired && t.expect.is_none() && oracle.connected(t.lu, t.lv) {
                t.expect = Some((e_pre, e_post));
            }
        }
        // Events stashed while reading replies (plus any already pushed
        // but not yet read) are classified after the oracle advanced, so
        // this batch's fires meet their freshly-set windows.
        let mut evs = client.take_events();
        evs.extend(client.poll_events(Duration::from_millis(1)).map_err(|e| e.to_string())?);
        process_sub_events(evs, idx, &mut subs, &cancelled, &mut rep);
    }

    // Drain: every owed fire must arrive; silence past the deadline is a
    // missed delivery.
    let deadline = Instant::now() + Duration::from_secs(15);
    while subs.values().any(|t| t.expect.is_some()) && Instant::now() < deadline {
        let evs = client.poll_events(Duration::from_millis(200)).map_err(|e| e.to_string())?;
        process_sub_events(evs, idx, &mut subs, &cancelled, &mut rep);
    }
    for (id, t) in &subs {
        if let Some((lo, hi)) = t.expect {
            sub_mismatch(
                &mut rep,
                idx,
                format!(
                    "sub {id}: pair ({}, {}) connected in window ({lo}, {hi}] but no event \
                     arrived (missed delivery)",
                    to_global(t.lu as usize),
                    to_global(t.lv as usize)
                ),
            );
        }
    }

    // Cross-check the server's registry: every live subscription must be
    // listed with the fired flag we observed; cancelled ids must be gone.
    // (SUBS is global, but ids are unique across clients.)
    let listing = client.subs().map_err(|e| e.to_string())?;
    let listed: HashMap<u64, bool> = listing
        .iter()
        .filter_map(|line| {
            let mut it = line.split_whitespace();
            let id: u64 = it.next()?.parse().ok()?;
            Some((id, it.nth(5)? == "1"))
        })
        .collect();
    for (id, t) in &subs {
        match listed.get(id) {
            None => sub_mismatch(&mut rep, idx, format!("sub {id} missing from SUBS listing")),
            Some(&f) if f != t.fired => sub_mismatch(
                &mut rep,
                idx,
                format!(
                    "sub {id}: SUBS lists fired={f} but this client observed fired={}",
                    t.fired
                ),
            ),
            _ => {}
        }
    }
    for id in &cancelled {
        if listed.contains_key(id) {
            sub_mismatch(&mut rep, idx, format!("cancelled sub {id} still in SUBS listing"));
        }
    }

    if o.kill_after.is_some() {
        rep.final_state = Some(ClientCheckpoint::Labels(oracle.labels()));
        rep.final_subs = Some(
            subs.iter()
                .map(|(&id, t)| SavedSub { id, lu: t.lu, lv: t.lv, fired: t.fired })
                .collect(),
        );
    }
    Ok(rep)
}

/// The closed loop for one churn-mode client: mutation batches mixing
/// inserts and deletes at `--churn`, each followed by an exactly
/// validated query batch (see the module doc's churn section). The
/// oracle is a [`DynamicOracle`] over the private slice; a live-edge
/// pool (vector + index map, O(1) insert/remove/sample) drives deletion
/// sampling without rescanning the adjacency.
fn run_churn_worker(
    o: &GenOpts,
    idx: usize,
    mut conn: Conn,
    start_batch: usize,
    restored: Option<ClientCheckpoint>,
) -> Result<WorkerReport, String> {
    let sz = o.n / o.clients;
    let to_global = |l: usize| -> u32 {
        if o.strided {
            (idx + l * o.clients) as u32
        } else {
            (idx * sz + l) as u32
        }
    };
    let mut oracle = DynamicOracle::new(sz);
    let mut live: Vec<(u32, u32)> = Vec::new();
    let mut live_at: HashMap<(u32, u32), usize> = HashMap::new();
    let mut rep = WorkerReport::default();
    let pool_insert =
        |live: &mut Vec<(u32, u32)>, live_at: &mut HashMap<(u32, u32), usize>, e: (u32, u32)| {
            live_at.insert(e, live.len());
            live.push(e);
        };
    let pool_remove =
        |live: &mut Vec<(u32, u32)>, live_at: &mut HashMap<(u32, u32), usize>, e: (u32, u32)| {
            if let Some(i) = live_at.remove(&e) {
                let last = live.pop().expect("pool and index agree");
                if i < live.len() {
                    live[i] = last;
                    live_at.insert(last, i);
                }
            }
        };
    if let Some(state) = restored {
        let ClientCheckpoint::Edges(edges) = state else {
            return Err("checkpoint holds labels but this run is --churn".into());
        };
        for &(u, v) in &edges {
            if oracle.insert(u, v) {
                pool_insert(&mut live, &mut live_at, (u.min(v), u.max(v)));
            }
        }
        revalidate_restored(o, idx, &mut conn, &oracle.labels(), &to_global, &mut rep)?;
    }
    // Phase-distinct RNG stream, exactly as in the insert-only loop.
    let mut rng = SplitMix64::new(
        o.seed
            ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(idx as u64 + 1))
            ^ (0x2545_f491_4f6c_dd1du64.wrapping_mul(start_batch as u64)),
    );
    let delete_cut = (o.churn * (1u64 << 32) as f64) as u64;
    let num_queries = (o.query_frac * o.batch_ops as f64).max(1.0) as usize;
    let end_batch = match o.kill_after {
        Some(k) => o.batches.min(start_batch + k),
        None => o.batches,
    };
    let mut wire_ops: Vec<Update> = Vec::with_capacity(o.batch_ops);
    for _ in start_batch..end_batch {
        wire_ops.clear();
        let mut batch_deletes = 0u64;
        for _ in 0..o.batch_ops {
            let r = rng.next_u64();
            let is_delete = (r & 0xffff_ffff) < delete_cut;
            if is_delete {
                // Mostly retract live edges (the engine classifies each
                // as forest or non-forest); every fourth deletion is a
                // random pair, covering absent and duplicate deletions.
                let (lu, lv) = if !live.is_empty() && (r >> 32) & 3 != 0 {
                    live[(rng.next_u64() % live.len() as u64) as usize]
                } else {
                    (
                        ((rng.next_u64() >> 32) as usize % sz) as u32,
                        ((rng.next_u64() >> 32) as usize % sz) as u32,
                    )
                };
                if oracle.delete(lu, lv) {
                    pool_remove(&mut live, &mut live_at, (lu.min(lv), lu.max(lv)));
                }
                wire_ops.push(Update::Delete(to_global(lu as usize), to_global(lv as usize)));
                batch_deletes += 1;
            } else {
                let lu = ((r >> 32) as usize % sz) as u32;
                let lv = ((rng.next_u64() >> 32) as usize % sz) as u32;
                if oracle.insert(lu, lv) {
                    pool_insert(&mut live, &mut live_at, (lu.min(lv), lu.max(lv)));
                }
                wire_ops.push(Update::Insert(to_global(lu as usize), to_global(lv as usize)));
            }
        }
        submit_resilient(o, &mut conn, &wire_ops)?;
        rep.ops += o.batch_ops as u64;
        rep.deletes += batch_deletes;
        // Exact validation: random intra-slice queries, answered inside
        // a clean generation window and matched against the oracle.
        let mut queries: Vec<Update> = Vec::with_capacity(num_queries);
        let mut expected: Vec<bool> = Vec::with_capacity(num_queries);
        for _ in 0..num_queries {
            let lu = ((rng.next_u64() >> 32) as usize % sz) as u32;
            let lv = ((rng.next_u64() >> 32) as usize % sz) as u32;
            queries.push(Update::Query(to_global(lu as usize), to_global(lv as usize)));
            expected.push(oracle.connected(lu, lv));
        }
        rep.ops += num_queries as u64;
        match sandwiched_queries(o, &mut conn, &queries)? {
            Some(answers) => {
                for (i, (&got, &want)) in answers.iter().zip(&expected).enumerate() {
                    rep.queries += 1;
                    rep.exact += 1;
                    if got != want {
                        rep.mismatches += 1;
                        rep.first_mismatch.get_or_insert_with(|| {
                            let (Update::Insert(u, v)
                            | Update::Delete(u, v)
                            | Update::Query(u, v)) = queries[i];
                            format!(
                                "client {idx}: churn: query({u}, {v}) answered {got} in a \
                                 clean generation window, oracle says {want}"
                            )
                        });
                    }
                }
            }
            None => rep.stale_skipped += num_queries as u64,
        }
        // Analytics spot checks: `SIZE` for a few random slice vertices,
        // validated exactly against the oracle component's cardinality
        // inside its own clean generation window. Slices are private, so
        // the expected size depends on no other client. The vertices are
        // drawn before the retry loop to keep the RNG stream independent
        // of window-timing luck.
        let spots: Vec<u32> =
            (0..4).map(|_| ((rng.next_u64() >> 32) as usize % sz) as u32).collect();
        let mut window_found = false;
        for _ in 0..5 {
            let _ = conn.quiesce(CHURN_QUIESCE_MS);
            let Ok((g1, false)) = conn.generation() else { continue };
            let labels = oracle.labels();
            let mut size_of: HashMap<u32, u64> = HashMap::new();
            for &l in &labels {
                *size_of.entry(l).or_insert(0) += 1;
            }
            let sized: Option<Vec<u64>> =
                spots.iter().map(|&lv| conn.component_size(to_global(lv as usize)).ok()).collect();
            let Some(sized) = sized else { continue };
            let Ok((g2, false)) = conn.generation() else { continue };
            if g2 != g1 {
                continue;
            }
            for (&lv, &got) in spots.iter().zip(&sized) {
                rep.analytics_checks += 1;
                let want = size_of[&labels[lv as usize]];
                if got != want {
                    rep.mismatches += 1;
                    rep.first_mismatch.get_or_insert_with(|| {
                        format!(
                            "client {idx}: churn: SIZE {} answered {got} in a clean \
                             generation window, oracle component has {want} vertices",
                            to_global(lv as usize)
                        )
                    });
                }
            }
            window_found = true;
            break;
        }
        if !window_found {
            rep.stale_skipped += spots.len() as u64;
        }
    }
    // The final slice partition, for the global TOPK/HIST validation.
    let labels = oracle.labels();
    let mut size_of: HashMap<u32, u64> = HashMap::new();
    for &l in &labels {
        *size_of.entry(l).or_insert(0) += 1;
    }
    rep.final_sizes = Some(size_of.into_values().collect());
    if o.kill_after.is_some() {
        rep.final_state = Some(ClientCheckpoint::Edges(live));
    }
    Ok(rep)
}

/// End-of-run global analytics validation (churn mode). Clients own
/// disjoint private slices, so the expected component-size multiset
/// over the whole vertex space is exactly the union of every client's
/// final slice partition plus the `n % clients` vertices no slice
/// covers (global singletons forever). `TOPK`, `HIST`, and the live
/// component count must match that multiset bit-for-bit inside a clean
/// generation window — the analytics plane's deltas and rebuild resyncs
/// have no room for drift.
fn validate_global_analytics(
    o: &GenOpts,
    conn: &mut Conn,
    client_sizes: &[Vec<u64>],
    total: &mut WorkerReport,
) -> Result<(), String> {
    let leftover = o.n - (o.n / o.clients) * o.clients;
    let mut sizes: Vec<u64> = client_sizes.iter().flatten().copied().collect();
    sizes.extend(std::iter::repeat_n(1u64, leftover));
    let expected_components = sizes.len() as u64;
    let mut expected_hist = vec![0u64; cc_server::HIST_BUCKETS];
    for &s in &sizes {
        expected_hist[(63 - s.leading_zeros()) as usize] += 1;
    }
    // TOPK excludes singletons and materializes at most TOPK_CAP.
    let mut expected_topk: Vec<u64> = sizes.into_iter().filter(|&s| s >= 2).collect();
    expected_topk.sort_unstable_by(|a, b| b.cmp(a));
    expected_topk.truncate(cc_server::TOPK_CAP);

    for _ in 0..5 {
        let _ = conn.quiesce(CHURN_QUIESCE_MS);
        let Ok((g1, false)) = conn.generation() else { continue };
        let (Ok(entries), Ok((components, hist))) = (conn.topk(cc_server::TOPK_CAP), conn.hist())
        else {
            continue;
        };
        let Ok((g2, false)) = conn.generation() else { continue };
        if g2 != g1 {
            continue;
        }
        let mut check = |what: &str, ok: bool, detail: String| {
            total.analytics_checks += 1;
            if !ok {
                total.mismatches += 1;
                total
                    .first_mismatch
                    .get_or_insert_with(|| format!("global analytics: {what}: {detail}"));
            }
        };
        check(
            "component count",
            components == expected_components,
            format!("HIST reported {components}, oracle partition has {expected_components}"),
        );
        check(
            "HIST",
            hist == expected_hist,
            format!("buckets {hist:?} != oracle {expected_hist:?}"),
        );
        let got_topk: Vec<u64> = entries.iter().map(|&(_, s)| s).collect();
        check(
            "TOPK",
            got_topk == expected_topk,
            format!("sizes {got_topk:?} != oracle {expected_topk:?}"),
        );
        return Ok(());
    }
    Err("no clean generation window for the end-of-run analytics validation".into())
}

/// Writes a scraped `METRICS` exposition to `path`, restoring the `# EOF`
/// wire terminator so the file parses exactly like a live scrape.
fn write_metrics_file(path: &str, lines: &[String]) -> std::io::Result<()> {
    let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum::<usize>() + 8);
    for l in lines {
        out.push_str(l);
        out.push('\n');
    }
    out.push_str("# EOF\n");
    std::fs::write(path, out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return usage();
    }
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("connectit-loadgen: {e}");
            return usage();
        }
    };

    // A --resume run restores the checkpointed per-client oracles first.
    let (start_batch, mut restored): (usize, Vec<Option<ClientCheckpoint>>) =
        match (o.resume, &o.state) {
            (true, Some(path)) => match read_state(path, &o) {
                Ok((done, states)) => {
                    println!(
                        "connectit-loadgen: resuming from {path}: {done} batches/client \
                         already validated before the restart"
                    );
                    (done, states.into_iter().map(Some).collect())
                }
                Err(e) => {
                    eprintln!("connectit-loadgen: {e}");
                    return ExitCode::FAILURE;
                }
            },
            _ => (0, std::iter::repeat_with(|| None).take(o.clients).collect()),
        };
    if start_batch >= o.batches {
        eprintln!(
            "connectit-loadgen: checkpoint already covers {start_batch} batches; \
             raise --batches past it"
        );
        return ExitCode::FAILURE;
    }
    // A --subscribe resume also restores the durable-subscription
    // sidecar so each worker can re-attach and keep validating.
    let mut resumed_subs: Vec<Vec<SavedSub>> = match (o.subscribe && o.resume, &o.state) {
        (true, Some(path)) => match read_sub_state(&format!("{path}.subs"), o.clients) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("connectit-loadgen: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => vec![Vec::new(); o.clients],
    };

    // In-process mode hosts its own service; TCP mode talks to a running
    // connectit-serve.
    let mut service: Option<Service> = None;
    if o.tcp_addr.is_none() {
        let cfg = ServiceConfig { n: o.n, shards: o.shards, ..ServiceConfig::default() };
        match Service::start(cfg) {
            Ok(s) => service = Some(s),
            Err(e) => {
                eprintln!("connectit-loadgen: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let t0 = Instant::now();
    let reports: Vec<Result<WorkerReport, String>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for idx in 0..o.clients {
            let o = o.clone();
            let restored = restored[idx].take();
            let resumed = std::mem::take(&mut resumed_subs[idx]);
            // The subscription worker owns its own text connection (push
            // lines interleave with replies on it).
            let conn = match (&service, &o.tcp_addr, o.subscribe) {
                (_, _, true) => None,
                (Some(svc), _, _) => Some(Ok(Conn::InProc(svc.client()))),
                (None, Some(addr), _) => Some(connect(addr.as_str(), &o).map(|c| Conn::tcp(c, &o))),
                (None, None, _) => unreachable!("inproc mode always has a service"),
            };
            handles.push(scope.spawn(move || {
                if o.subscribe {
                    return run_sub_worker(&o, idx, start_batch, restored, resumed);
                }
                let conn = conn
                    .expect("non-subscribe workers have a connection")
                    .map_err(|e| format!("connect failed: {e}"))?;
                if o.churn > 0.0 {
                    run_churn_worker(&o, idx, conn, start_batch, restored)
                } else {
                    run_worker(&o, idx, conn, start_batch, restored)
                }
            }));
        }
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let elapsed = t0.elapsed();

    let mut total = WorkerReport::default();
    let mut failed = false;
    let mut final_states: Vec<ClientCheckpoint> = Vec::with_capacity(o.clients);
    let mut final_sizes: Vec<Vec<u64>> = Vec::with_capacity(o.clients);
    let mut final_subs: Vec<Vec<SavedSub>> = Vec::with_capacity(o.clients);
    for (i, r) in reports.into_iter().enumerate() {
        match r {
            Ok(mut r) => {
                total.ops += r.ops;
                total.queries += r.queries;
                total.exact += r.exact;
                total.transitions += r.transitions;
                total.mismatches += r.mismatches;
                total.skipped_batches += r.skipped_batches;
                total.sweep_checks += r.sweep_checks;
                total.follower_verified += r.follower_verified;
                total.deletes += r.deletes;
                total.stale_skipped += r.stale_skipped;
                total.analytics_checks += r.analytics_checks;
                total.subs_registered += r.subs_registered;
                total.sub_events += r.sub_events;
                total.sub_mismatches += r.sub_mismatches;
                if total.first_mismatch.is_none() {
                    total.first_mismatch = r.first_mismatch;
                }
                if let Some(state) = r.final_state.take() {
                    final_states.push(state);
                }
                if let Some(sizes) = r.final_sizes.take() {
                    final_sizes.push(sizes);
                }
                if let Some(subs) = r.final_subs.take() {
                    final_subs.push(subs);
                }
            }
            Err(e) => {
                eprintln!("connectit-loadgen: client {i} failed: {e}");
                failed = true;
            }
        }
    }

    // Global analytics validation: with every churn worker's final slice
    // partition in hand, TOPK/HIST and the component count over the full
    // vertex space have exactly one legal value.
    if o.churn > 0.0 && !failed && final_sizes.len() == o.clients {
        let conn = match (&service, &o.tcp_addr) {
            (Some(svc), _) => Ok(Conn::InProc(svc.client())),
            (None, Some(addr)) => connect(addr.as_str(), &o).map(|c| Conn::tcp(c, &o)),
            (None, None) => unreachable!("inproc mode always has a service"),
        };
        match conn {
            Ok(mut conn) => {
                if let Err(e) = validate_global_analytics(&o, &mut conn, &final_sizes, &mut total) {
                    eprintln!("connectit-loadgen: {e}");
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("connectit-loadgen: analytics validation connect failed: {e}");
                failed = true;
            }
        }
    }

    // Crash-drill checkpoint: persist every client oracle so a --resume
    // run can re-validate across the server restart.
    if let (Some(k), Some(path), false) = (o.kill_after, &o.state, failed) {
        let done = o.batches.min(start_batch + k);
        match write_state(path, &o, done, &final_states) {
            Ok(()) => println!(
                "connectit-loadgen: checkpoint: {done} batches/client validated, oracle \
                 state saved to {path}; kill/restart the server, then rerun with \
                 --resume --state {path}"
            ),
            Err(e) => {
                eprintln!("connectit-loadgen: checkpoint write to {path} failed: {e}");
                failed = true;
            }
        }
        if o.subscribe && !failed {
            let side = format!("{path}.subs");
            match write_sub_state(&side, &final_subs) {
                Ok(()) => println!(
                    "connectit-loadgen: durable subscriptions saved to {side}; they will be \
                     re-attached on --resume"
                ),
                Err(e) => {
                    eprintln!("connectit-loadgen: sidecar write to {side} failed: {e}");
                    failed = true;
                }
            }
        }
    }

    let ops_per_sec = (total.ops as f64 / elapsed.as_secs_f64()) as u64;
    let mode = match (&o.tcp_addr, o.binary) {
        (Some(_), true) => "tcp-binary",
        (Some(_), false) => "tcp",
        (None, _) => "inproc",
    };
    let layout = if o.strided { "strided" } else { "blocked" };
    println!(
        "connectit-loadgen: mode={mode} n={} shards={} clients={} batches={} batch_ops={} \
         query_frac={} churn={} layout={layout} followers={} pipeline={}",
        o.n,
        o.shards,
        o.clients,
        o.batches,
        o.batch_ops,
        o.query_frac,
        o.churn,
        o.followers.len(),
        o.pipeline
    );
    println!(
        "ops={} elapsed={:.3}s ops_per_sec={ops_per_sec} verified_queries={} exact={} \
         intra_batch_transitions={} sweep_checks={} follower_verified={} skipped_batches={} \
         deletes={} stale_skipped={} analytics_checks={} subs_registered={} sub_events={} \
         sub_mismatches={} mismatches={}",
        total.ops,
        elapsed.as_secs_f64(),
        total.queries,
        total.exact,
        total.transitions,
        total.sweep_checks,
        total.follower_verified,
        total.skipped_batches,
        total.deletes,
        total.stale_skipped,
        total.analytics_checks,
        total.subs_registered,
        total.sub_events,
        total.sub_mismatches,
        total.mismatches
    );
    if let Some(m) = &total.first_mismatch {
        eprintln!("connectit-loadgen: FIRST MISMATCH: {m}");
    }

    // Final server-side stats (and optional remote shutdown). A failed
    // `--shutdown` delivery is fatal: the caller (e.g. CI) is about to
    // `wait` on the server process.
    match (&service, &o.tcp_addr) {
        (Some(svc), _) => {
            println!("server: {}", svc.client().stats());
            if let Some(path) = &o.metrics_out {
                if let Err(e) = write_metrics_file(path, &svc.client().render_metrics()) {
                    eprintln!("connectit-loadgen: metrics write to {path} failed: {e}");
                    failed = true;
                }
            }
        }
        (None, Some(addr)) => match WireClient::text(addr.as_str()) {
            Ok(mut c) => {
                if let Ok(s) = c.stats_line() {
                    println!("server: {s}");
                }
                if let Some(path) = &o.metrics_out {
                    match c.metrics().and_then(|lines| write_metrics_file(path, &lines)) {
                        Ok(()) => {}
                        Err(e) => {
                            eprintln!("connectit-loadgen: metrics scrape to {path} failed: {e}");
                            failed = true;
                        }
                    }
                }
                if o.send_shutdown {
                    if let Err(e) = c.shutdown_server() {
                        eprintln!("connectit-loadgen: SHUTDOWN delivery failed: {e}");
                        failed = true;
                    }
                }
            }
            Err(e) => {
                eprintln!("connectit-loadgen: final connection failed: {e}");
                if o.send_shutdown {
                    failed = true;
                }
            }
        },
        (None, None) => {}
    }
    if let Some(mut svc) = service {
        svc.shutdown();
    }

    if failed || total.mismatches > 0 || total.sub_mismatches > 0 || ops_per_sec == 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
