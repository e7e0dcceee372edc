//! The request IR both wire codecs share, and the one verb table.
//!
//! The text codec ([`crate::net`]) parses lines into a [`Request`]; the
//! binary codec ([`crate::binproto`]) decodes frames into the same
//! [`Request`]. Both feed one dispatcher on the event-loop shards
//! ([`crate::evloop`]), which answers with a [`Reply`] that the
//! connection's codec encodes.
//!
//! [`VERBS`] is the only list of verbs. The text parser looks names up in
//! it, the dispatcher reads its routing columns, the metrics registry
//! labels `connectit_requests_total{verb=…}` from it, the binary codec maps
//! tags to verbs through it, both codecs spell and parse replies from its
//! reply columns, and the doc-drift test holds `PROTOCOL.md`'s verb table
//! to it.

use crate::binproto::verb as tag;
use crate::subs::SubKind;
use connectit::Update;

/// One protocol verb. Its discriminant is its row in [`VERBS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // each variant is named by its text spelling in VERBS
pub enum Verb {
    I,
    D,
    Q,
    QG,
    B,
    Label,
    Components,
    Epoch,
    Wait,
    Gen,
    Quiesce,
    Role,
    Stats,
    Flush,
    Snapshot,
    WalStats,
    Ping,
    Quit,
    Shutdown,
    Metrics,
    Trace,
    Topk,
    Hist,
    Size,
    Sub,
    Unsub,
    Subs,
}

/// One row of the verb table.
#[derive(Clone, Copy, Debug)]
pub struct VerbSpec {
    /// The verb this row describes.
    pub verb: Verb,
    /// The text door's spelling, which is also the verb's metrics label
    /// (`connectit_requests_total{verb="<text>"}`).
    pub text: &'static str,
    /// The binary door's tag (request header byte 8).
    pub tag: u8,
    /// Follower routing: the verb carries inserts or deletes, so a
    /// follower refuses it (a `B` only when its body holds one).
    pub update: bool,
    /// The verb waits on an epoch, a rebuild or the disk: the shard parks
    /// its ticket (`service::Client::barrier`) and answers it when the
    /// ticket resolves or its deadline lapses.
    pub blocking: bool,
    /// The first token of the text door's OK reply line; empty for the
    /// bit replies, whose bit is the line, for dumps and for `QUIT`.
    pub head: &'static str,
    /// The [`Reply`] variant that answers the verb when it succeeds.
    pub shape: Shape,
}

/// The shape of a verb's successful reply: which [`Reply`] variant
/// carries it, and so how each door spells and parses its body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // each variant is named by its Reply variant
pub enum Shape {
    Ok,
    Bit,
    BitGen,
    Answers,
    Value,
    Gen,
    Topk,
    Hist,
    Size,
    Subscribed,
    Line,
    Dump,
}

const UPDATE: bool = true;
const READ: bool = false;
const BLOCKS: bool = true;
const INLINE: bool = false;

const fn row(
    verb: Verb,
    text: &'static str,
    tag: u8,
    update: bool,
    blocking: bool,
    head: &'static str,
    shape: Shape,
) -> VerbSpec {
    VerbSpec { verb, text, tag, update, blocking, head, shape }
}

/// Every verb, in `connectit_requests_total` export order.
pub const VERBS: [VerbSpec; 27] = [
    row(Verb::I, "I", tag::INSERT, UPDATE, INLINE, "OK", Shape::Ok),
    row(Verb::D, "D", tag::DELETE, UPDATE, INLINE, "OK", Shape::Ok),
    row(Verb::Q, "Q", tag::QUERY, READ, INLINE, "", Shape::Bit),
    row(Verb::QG, "QG", tag::QUERY_GEN, READ, INLINE, "", Shape::BitGen),
    row(Verb::B, "B", tag::BATCH, UPDATE, INLINE, "OK", Shape::Answers),
    row(Verb::Label, "LABEL", tag::LABEL, READ, INLINE, "L", Shape::Value),
    row(Verb::Components, "COMPONENTS", tag::COMPONENTS, READ, INLINE, "C", Shape::Value),
    row(Verb::Epoch, "EPOCH", tag::EPOCH, READ, INLINE, "E", Shape::Value),
    row(Verb::Wait, "WAIT", tag::WAIT, READ, BLOCKS, "E", Shape::Value),
    row(Verb::Gen, "GEN", tag::GEN, READ, INLINE, "G", Shape::Gen),
    row(Verb::Quiesce, "QUIESCE", tag::QUIESCE, READ, BLOCKS, "G", Shape::Value),
    row(Verb::Role, "ROLE", tag::ROLE, READ, INLINE, "R", Shape::Line),
    row(Verb::Stats, "STATS", tag::STATS, READ, INLINE, "S", Shape::Line),
    row(Verb::Flush, "FLUSH", tag::FLUSH, READ, BLOCKS, "OK", Shape::Ok),
    row(Verb::Snapshot, "SNAPSHOT", tag::SNAPSHOT, READ, BLOCKS, "SNAP", Shape::Value),
    row(Verb::WalStats, "WALSTATS", tag::WALSTATS, READ, INLINE, "W", Shape::Line),
    row(Verb::Ping, "PING", tag::PING, READ, INLINE, "PONG", Shape::Ok),
    row(Verb::Quit, "QUIT", tag::QUIT, READ, INLINE, "", Shape::Ok),
    row(Verb::Shutdown, "SHUTDOWN", tag::SHUTDOWN, READ, INLINE, "BYE", Shape::Ok),
    row(Verb::Metrics, "METRICS", tag::METRICS, READ, INLINE, "", Shape::Dump),
    row(Verb::Trace, "TRACE", tag::TRACE, READ, INLINE, "", Shape::Dump),
    row(Verb::Topk, "TOPK", tag::TOPK, READ, INLINE, "K", Shape::Topk),
    row(Verb::Hist, "HIST", tag::HIST, READ, INLINE, "H", Shape::Hist),
    row(Verb::Size, "SIZE", tag::SIZE, READ, INLINE, "Z", Shape::Size),
    row(Verb::Sub, "SUB", tag::SUBSCRIBE, READ, INLINE, "S", Shape::Subscribed),
    row(Verb::Unsub, "UNSUB", tag::UNSUBSCRIBE, READ, INLINE, "OK", Shape::Ok),
    row(Verb::Subs, "SUBS", tag::SUBS, READ, INLINE, "", Shape::Dump),
];

impl Verb {
    /// This verb's row of [`VERBS`].
    pub fn spec(self) -> &'static VerbSpec {
        &VERBS[self as usize]
    }

    /// The verb the text door spells `text`.
    pub fn from_text(text: &str) -> Option<Verb> {
        VERBS.iter().find(|s| s.text == text).map(|s| s.verb)
    }

    /// The verb the binary door tags `tag`.
    pub fn from_tag(tag: u8) -> Option<Verb> {
        VERBS.iter().find(|s| s.tag == tag).map(|s| s.verb)
    }
}

/// One decoded request, from either door: one variant per request shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `I u v`
    Insert(u32, u32),
    /// `D u v`
    Delete(u32, u32),
    /// `Q u v`
    Query(u32, u32),
    /// `QG u v`
    QueryGen(u32, u32),
    /// `B` with decoded ops.
    Batch(Vec<Update>),
    /// `LABEL v`
    Label(u32),
    /// `COMPONENTS`
    Components,
    /// `EPOCH`
    Epoch,
    /// `WAIT epoch timeout_ms`
    Wait {
        /// Epoch to wait for.
        epoch: u64,
        /// Give up after this many milliseconds.
        timeout_ms: u64,
    },
    /// `GEN`
    Gen,
    /// `QUIESCE timeout_ms`
    Quiesce {
        /// Give up after this many milliseconds.
        timeout_ms: u64,
    },
    /// `ROLE`
    Role,
    /// `STATS`
    Stats,
    /// `FLUSH`
    Flush,
    /// `SNAPSHOT`
    Snapshot,
    /// `WALSTATS`
    WalStats,
    /// `PING`
    Ping,
    /// `QUIT`
    Quit,
    /// `SHUTDOWN`
    Shutdown,
    /// `METRICS`
    Metrics,
    /// `TRACE n`
    Trace(usize),
    /// `TOPK k` — top-k largest (multi-vertex) components.
    Topk {
        /// How many components to return (clamped server-side to the
        /// materialized cap).
        k: u8,
    },
    /// `HIST` — component-size histogram.
    Hist,
    /// `SIZE v` — size and root of `v`'s component.
    Size(u32),
    /// `SUB` — register a subscription.
    Subscribe {
        /// Pair or component subscription.
        kind: SubKind,
        /// First endpoint (equals `v` for component subscriptions).
        u: u32,
        /// Second endpoint / watched vertex.
        v: u32,
        /// Whether the registration is WAL-logged and survives restart.
        durable: bool,
    },
    /// `SUB ATTACH id after_seq`
    SubAttach {
        /// Id of the durable subscription to re-bind.
        id: u64,
        /// Replay retained events with a larger sequence number.
        after_seq: u64,
    },
    /// `UNSUB id` — cancel a subscription.
    Unsubscribe {
        /// Id returned by the `SUB` registration.
        id: u64,
    },
    /// `SUBS`
    Subs,
}

impl Request {
    /// The request's verb.
    pub fn verb(&self) -> Verb {
        match self {
            Request::Insert(..) => Verb::I,
            Request::Delete(..) => Verb::D,
            Request::Query(..) => Verb::Q,
            Request::QueryGen(..) => Verb::QG,
            Request::Batch(_) => Verb::B,
            Request::Label(_) => Verb::Label,
            Request::Components => Verb::Components,
            Request::Epoch => Verb::Epoch,
            Request::Wait { .. } => Verb::Wait,
            Request::Gen => Verb::Gen,
            Request::Quiesce { .. } => Verb::Quiesce,
            Request::Role => Verb::Role,
            Request::Stats => Verb::Stats,
            Request::Flush => Verb::Flush,
            Request::Snapshot => Verb::Snapshot,
            Request::WalStats => Verb::WalStats,
            Request::Ping => Verb::Ping,
            Request::Quit => Verb::Quit,
            Request::Shutdown => Verb::Shutdown,
            Request::Metrics => Verb::Metrics,
            Request::Trace(_) => Verb::Trace,
            Request::Topk { .. } => Verb::Topk,
            Request::Hist => Verb::Hist,
            Request::Size(_) => Verb::Size,
            Request::Subscribe { .. } | Request::SubAttach { .. } => Verb::Sub,
            Request::Unsubscribe { .. } => Verb::Unsub,
            Request::Subs => Verb::Subs,
        }
    }

    /// The first vertex of the request that is `>= n`, if any.
    pub(crate) fn out_of_range(&self, n: usize) -> Option<u32> {
        let check = |u: u32, v: u32| [u, v].into_iter().find(|&x| x as usize >= n);
        match *self {
            Request::Insert(u, v)
            | Request::Delete(u, v)
            | Request::Query(u, v)
            | Request::QueryGen(u, v) => check(u, v),
            Request::Batch(ref ops) => ops.iter().find_map(|&op| {
                let (u, v) = endpoints(op);
                check(u, v)
            }),
            Request::Size(v) | Request::Label(v) => check(v, v),
            _ => None,
        }
    }

    /// Whether a follower must refuse the request: its verb is an update
    /// ([`VerbSpec::update`]) and, for `B`, its body holds one.
    pub(crate) fn carries_updates(&self) -> bool {
        match self {
            Request::Batch(ops) => ops.iter().any(|op| !matches!(op, Update::Query(..))),
            req => req.verb().spec().update,
        }
    }
}

/// The two vertices an op names.
pub(crate) fn endpoints(op: Update) -> (u32, u32) {
    let (Update::Insert(u, v) | Update::Delete(u, v) | Update::Query(u, v)) = op;
    (u, v)
}

/// A reply, from either door's point of view: the binary codec encodes it
/// as a response frame body, the text codec as the verb's reply line(s).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// OK with no body (`I`, `D`, `PING`).
    Ok,
    /// `Q` answer.
    Bit(bool),
    /// `QG` answer with optional generation tag.
    BitGen(bool, Option<u64>),
    /// `B` answers, one per query op in submission order.
    Answers(Vec<(bool, Option<u64>)>),
    /// `EPOCH` / `WAIT` epoch, or `QUIESCE` generation.
    Value(u64),
    /// `GEN` counters.
    Gen {
        /// Current generation number.
        generation: u64,
        /// Whether deletions have dirtied the live generation.
        dirty: bool,
        /// Completed rebuilds.
        rebuilds: u64,
        /// Forest (spanning) edges tracked.
        forest: u64,
        /// Non-forest edges tracked.
        nonforest: u64,
        /// Deletes of absent edges observed.
        absent: u64,
    },
    /// `TOPK` answer: view stamp plus `(root, size)` pairs, largest first.
    Topk {
        /// Last delta epoch folded into the published view.
        epoch: u64,
        /// Generation the view belongs to.
        generation: u64,
        /// Whether the view is frozen at a sealed generation.
        sealed: bool,
        /// `(root, size)` pairs, size-descending; singletons excluded.
        entries: Vec<(u32, u64)>,
    },
    /// `HIST` answer: view stamp, live component count, and the full
    /// log2-bucketed size histogram (bucket `b` counts components of size
    /// in `[2^b, 2^(b+1))`).
    Hist {
        /// Last delta epoch folded into the published view.
        epoch: u64,
        /// Generation the view belongs to.
        generation: u64,
        /// Whether the view is frozen at a sealed generation.
        sealed: bool,
        /// Live component count (histogram buckets sum to this).
        components: u64,
        /// All histogram buckets, including zeros.
        buckets: Vec<u64>,
    },
    /// `SIZE` answer: the component's size and canonical root.
    Size {
        /// Number of vertices in the component.
        size: u64,
        /// Root (representative vertex) of the component.
        root: u32,
    },
    /// `SUB` answer: the subscription id plus the committed epoch at
    /// registration (events only report merges after this epoch).
    Subscribed {
        /// Server-assigned subscription id.
        id: u64,
        /// Committed epoch when the registration took effect.
        epoch: u64,
    },
    /// A one-line dump (`ROLE`, `STATS`, `WALSTATS`).
    Line(String),
    /// A multi-line dump (`METRICS`, `TRACE`, `SUBS`).
    Dump(Vec<String>),
    /// ERR with the text-protocol message spelling.
    Err(String),
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One request of every verb, every `SUB` shape and both `B` bodies'
    /// extremes.
    pub(crate) fn one_of_each() -> Vec<Request> {
        let sub = |kind, u, v, durable| Request::Subscribe { kind, u, v, durable };
        let mixed = vec![Update::Insert(1, 2), Update::Delete(3, 4), Update::Query(5, 6)];
        let requests = vec![
            Request::Insert(1, 2),
            Request::Delete(3, 4),
            Request::Query(5, 6),
            Request::QueryGen(7, 8),
            Request::Batch(vec![]),
            Request::Batch(mixed),
            Request::Label(9),
            Request::Components,
            Request::Epoch,
            Request::Wait { epoch: 9, timeout_ms: 250 },
            Request::Gen,
            Request::Quiesce { timeout_ms: 250 },
            Request::Role,
            Request::Stats,
            Request::Flush,
            Request::Snapshot,
            Request::WalStats,
            Request::Ping,
            Request::Quit,
            Request::Shutdown,
            Request::Metrics,
            Request::Trace(7),
            Request::Topk { k: 5 },
            Request::Hist,
            Request::Size(9),
            sub(SubKind::Pair, 1, 2, false),
            sub(SubKind::Pair, 1, 2, true),
            sub(SubKind::Component, 7, 7, false),
            sub(SubKind::Component, 7, 7, true),
            Request::SubAttach { id: 3, after_seq: 9 },
            Request::Unsubscribe { id: 5 },
            Request::Subs,
        ];
        for spec in &VERBS {
            assert!(requests.iter().any(|r| r.verb() == spec.verb), "no {} case", spec.text);
        }
        requests
    }

    #[test]
    fn every_row_sits_at_its_verbs_index_and_spells_uniquely() {
        for (i, spec) in VERBS.iter().enumerate() {
            assert_eq!(spec.verb as usize, i, "{} is out of place", spec.text);
            assert_eq!(Verb::from_text(spec.text), Some(spec.verb));
            assert_eq!(Verb::from_tag(spec.tag), Some(spec.verb), "{} shares its tag", spec.text);
        }
        assert_eq!(Verb::from_text("NOPE"), None);
        assert_eq!(Verb::from_tag(0), None);
    }

    /// A reply of each row's shape goes through both doors' writers and
    /// parsers, each reading only the row: the binary door keeps it whole,
    /// the text door keeps it but for a dump's `# EOF` terminator.
    #[test]
    fn every_rows_reply_round_trips_through_both_doors() {
        use crate::binproto::{decode_reply, encode_reply};
        use crate::net::{parse_reply, write_reply};
        let mut buckets = vec![0; crate::analytics::HIST_BUCKETS];
        (buckets[0], buckets[3]) = (5, 1);
        for spec in &VERBS {
            let reply = match spec.shape {
                Shape::Ok => Reply::Ok,
                Shape::Bit => Reply::Bit(true),
                Shape::BitGen => Reply::BitGen(false, Some(4)),
                Shape::Answers => Reply::Answers(vec![(true, None), (false, None)]),
                Shape::Value => Reply::Value(17),
                Shape::Gen => Reply::Gen {
                    generation: 2,
                    dirty: true,
                    rebuilds: 1,
                    forest: 3,
                    nonforest: 4,
                    absent: 5,
                },
                Shape::Topk => {
                    Reply::Topk { epoch: 9, generation: 2, sealed: true, entries: vec![(4, 3)] }
                }
                Shape::Hist => Reply::Hist {
                    epoch: 9,
                    generation: 2,
                    sealed: false,
                    components: 6,
                    buckets: buckets.clone(),
                },
                Shape::Size => Reply::Size { size: 3, root: 4 },
                Shape::Subscribed => Reply::Subscribed { id: 7, epoch: 9 },
                Shape::Line => Reply::Line("key=1 other=2".into()),
                Shape::Dump => Reply::Dump(vec!["first line".into(), "second".into()]),
            };
            let payload = encode_reply(11, &reply);
            assert_eq!(decode_reply(&payload, spec.tag).expect(spec.text), (11, reply.clone()));
            let mut out = Vec::new();
            write_reply(&mut out, spec.verb, &reply);
            let text = String::from_utf8(out).expect("utf-8");
            assert!(text.starts_with(spec.head), "{}: {text:?}", spec.text);
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            if spec.shape == Shape::Dump {
                assert_eq!(lines.pop().as_deref(), Some("# EOF"), "{}", spec.text);
            }
            assert_eq!(parse_reply(spec.verb, &lines), Ok(reply), "{}: {text:?}", spec.text);
        }
    }

    #[test]
    fn every_verb_round_trips_through_both_codecs() {
        use crate::binproto::{decode_request, encode_request};
        use crate::net::{write_request, Decoded, LineDecoder};
        for req in one_of_each() {
            let payload = encode_request(0xDEAD_BEEF, &req);
            assert_eq!(payload[8], req.verb().spec().tag);
            assert_eq!(decode_request(&payload), Ok((0xDEAD_BEEF, req.clone())));
            let mut line = Vec::new();
            write_request(&mut line, &req);
            let mut dec = LineDecoder::default();
            dec.push(&line);
            assert_eq!(dec.next(), Some(Decoded::Request(req.clone())), "{line:?}");
            assert_eq!(dec.next(), None, "nothing left over after {req:?}");
        }
    }
}
