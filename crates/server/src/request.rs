//! The request IR both wire codecs share, and the one verb table.
//!
//! The text codec ([`crate::net`]) parses lines into a [`Request`]; the
//! binary codec ([`crate::binproto`]) decodes frames into its tagged half,
//! [`BinRequest`]. Both feed one dispatcher on the event-loop shards
//! ([`crate::evloop`]), which answers with a [`Reply`] that the
//! connection's codec encodes.
//!
//! [`VERBS`] is the only list of verbs. The text parser looks names up in
//! it, the dispatcher reads its routing columns, the metrics registry
//! labels `connectit_requests_total{verb=…}` from it, and the doc-drift
//! test holds both `PROTOCOL.md` verb tables to it.

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
    /// The binary door's tag; `None` for verbs only the text door speaks.
    pub tag: Option<u8>,
    /// Follower routing: the verb carries inserts or deletes, so a
    /// follower refuses it (a `B` only when its body holds one).
    pub update: bool,
    /// The verb waits on an epoch, a rebuild or the disk: the shard parks
    /// its ticket (`service::Client::barrier`) and answers it when the
    /// ticket resolves or its deadline lapses.
    pub blocking: bool,
}

const UPDATE: bool = true;
const READ: bool = false;
const BLOCKS: bool = true;
const INLINE: bool = false;

const fn row(
    verb: Verb,
    text: &'static str,
    tag: Option<u8>,
    update: bool,
    blocking: bool,
) -> VerbSpec {
    VerbSpec { verb, text, tag, update, blocking }
}

/// Every verb, in `connectit_requests_total` export order.
pub const VERBS: [VerbSpec; 27] = [
    row(Verb::I, "I", Some(tag::INSERT), UPDATE, INLINE),
    row(Verb::D, "D", Some(tag::DELETE), UPDATE, INLINE),
    row(Verb::Q, "Q", Some(tag::QUERY), READ, INLINE),
    row(Verb::QG, "QG", Some(tag::QUERY_GEN), READ, INLINE),
    row(Verb::B, "B", Some(tag::BATCH), UPDATE, INLINE),
    row(Verb::Label, "LABEL", None, READ, INLINE),
    row(Verb::Components, "COMPONENTS", None, READ, INLINE),
    row(Verb::Epoch, "EPOCH", Some(tag::EPOCH), READ, INLINE),
    row(Verb::Wait, "WAIT", Some(tag::WAIT), READ, BLOCKS),
    row(Verb::Gen, "GEN", Some(tag::GEN), READ, INLINE),
    row(Verb::Quiesce, "QUIESCE", Some(tag::QUIESCE), READ, BLOCKS),
    row(Verb::Role, "ROLE", None, READ, INLINE),
    row(Verb::Stats, "STATS", None, READ, INLINE),
    row(Verb::Flush, "FLUSH", None, READ, BLOCKS),
    row(Verb::Snapshot, "SNAPSHOT", None, READ, BLOCKS),
    row(Verb::WalStats, "WALSTATS", None, READ, INLINE),
    row(Verb::Ping, "PING", Some(tag::PING), READ, INLINE),
    row(Verb::Quit, "QUIT", None, READ, INLINE),
    row(Verb::Shutdown, "SHUTDOWN", None, READ, INLINE),
    row(Verb::Metrics, "METRICS", None, READ, INLINE),
    row(Verb::Trace, "TRACE", None, READ, INLINE),
    row(Verb::Topk, "TOPK", Some(tag::TOPK), READ, INLINE),
    row(Verb::Hist, "HIST", Some(tag::HIST), READ, INLINE),
    row(Verb::Size, "SIZE", Some(tag::SIZE), READ, INLINE),
    row(Verb::Sub, "SUB", Some(tag::SUBSCRIBE), READ, INLINE),
    row(Verb::Unsub, "UNSUB", Some(tag::UNSUBSCRIBE), READ, INLINE),
    row(Verb::Subs, "SUBS", None, READ, INLINE),
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
}

/// One decoded request, from either door.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// A verb with a binary tag.
    Bin(BinRequest),
    /// `LABEL v`
    Label(u32),
    /// `COMPONENTS`
    Components,
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
    /// `METRICS`
    Metrics,
    /// `TRACE n`
    Trace(usize),
    /// `SUB ATTACH id after_seq`
    SubAttach {
        /// Id of the durable subscription to re-bind.
        id: u64,
        /// Replay retained events with a larger sequence number.
        after_seq: u64,
    },
    /// `SUBS`
    Subs,
    /// `QUIT`
    Quit,
    /// `SHUTDOWN`
    Shutdown,
}

impl From<BinRequest> for Request {
    fn from(req: BinRequest) -> Request {
        Request::Bin(req)
    }
}

impl Request {
    /// The request's verb.
    pub fn verb(&self) -> Verb {
        match self {
            Request::Bin(req) => req.verb(),
            Request::Label(_) => Verb::Label,
            Request::Components => Verb::Components,
            Request::Role => Verb::Role,
            Request::Stats => Verb::Stats,
            Request::Flush => Verb::Flush,
            Request::Snapshot => Verb::Snapshot,
            Request::WalStats => Verb::WalStats,
            Request::Metrics => Verb::Metrics,
            Request::Trace(_) => Verb::Trace,
            Request::SubAttach { .. } => Verb::Sub,
            Request::Subs => Verb::Subs,
            Request::Quit => Verb::Quit,
            Request::Shutdown => Verb::Shutdown,
        }
    }
}

/// The verbs with a binary tag: the binary codec's whole vocabulary. A
/// text-only verb cannot be expressed here, so it cannot be encoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BinRequest {
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
    /// `EPOCH`
    Epoch,
    /// `WAIT epoch timeout_ms`
    Wait {
        /// Epoch to wait for.
        epoch: u64,
        /// Give up after this many milliseconds.
        timeout_ms: u64,
    },
    /// `PING`
    Ping,
    /// `QUIESCE timeout_ms`
    Quiesce {
        /// Give up after this many milliseconds.
        timeout_ms: u64,
    },
    /// `GEN`
    Gen,
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
    /// `UNSUB id` — cancel a subscription.
    Unsubscribe {
        /// Id returned by the `SUB` registration.
        id: u64,
    },
}

impl BinRequest {
    /// The request's verb.
    pub fn verb(&self) -> Verb {
        match self {
            BinRequest::Insert(..) => Verb::I,
            BinRequest::Delete(..) => Verb::D,
            BinRequest::Query(..) => Verb::Q,
            BinRequest::QueryGen(..) => Verb::QG,
            BinRequest::Batch(_) => Verb::B,
            BinRequest::Epoch => Verb::Epoch,
            BinRequest::Wait { .. } => Verb::Wait,
            BinRequest::Ping => Verb::Ping,
            BinRequest::Quiesce { .. } => Verb::Quiesce,
            BinRequest::Gen => Verb::Gen,
            BinRequest::Topk { .. } => Verb::Topk,
            BinRequest::Hist => Verb::Hist,
            BinRequest::Size(_) => Verb::Size,
            BinRequest::Subscribe { .. } => Verb::Sub,
            BinRequest::Unsubscribe { .. } => Verb::Unsub,
        }
    }

    /// The first vertex of the request that is `>= n`, if any.
    pub(crate) fn out_of_range(&self, n: usize) -> Option<u32> {
        let check = |u: u32, v: u32| [u, v].into_iter().find(|&x| x as usize >= n);
        match *self {
            BinRequest::Insert(u, v)
            | BinRequest::Delete(u, v)
            | BinRequest::Query(u, v)
            | BinRequest::QueryGen(u, v) => check(u, v),
            BinRequest::Batch(ref ops) => ops.iter().find_map(|&op| {
                let (u, v) = endpoints(op);
                check(u, v)
            }),
            BinRequest::Size(v) => check(v, v),
            _ => None,
        }
    }

    /// Whether a follower must refuse the request: its verb is an update
    /// ([`VerbSpec::update`]) and, for `B`, its body holds one.
    pub(crate) fn carries_updates(&self) -> bool {
        match self {
            BinRequest::Batch(ops) => ops.iter().any(|op| !matches!(op, Update::Query(..))),
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
    /// A one-line dump (`ROLE`, `STATS`, `WALSTATS`). Only text-only
    /// verbs answer with it.
    Line(String),
    /// A multi-line dump (`METRICS`, `TRACE`, `SUBS`). Only text-only
    /// verbs answer with it.
    Dump(Vec<String>),
    /// ERR with the text-protocol message spelling.
    Err(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_sits_at_its_verbs_index_and_spells_uniquely() {
        for (i, spec) in VERBS.iter().enumerate() {
            assert_eq!(spec.verb as usize, i, "{} is out of place", spec.text);
            assert_eq!(Verb::from_text(spec.text), Some(spec.verb));
        }
        let mut tags: Vec<u8> = VERBS.iter().filter_map(|s| s.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), VERBS.iter().filter(|s| s.tag.is_some()).count());
        assert_eq!(Verb::from_text("NOPE"), None);
    }
}
