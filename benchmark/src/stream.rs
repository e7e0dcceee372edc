//! Requests, per-request records, and the seeded generators of every op
//! stream. All inputs are built here, before any clock starts.

use crate::oracle::canon;
use cc_graph::generators::rmat_default;
use cc_parallel::SplitMix64;
use std::collections::HashSet;

/// One request, as either door or `Client::submit` can carry it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    /// Insert edge `{u, v}`.
    Insert(u32, u32),
    /// Delete edge `{u, v}`.
    Delete(u32, u32),
    /// Connectivity query.
    Query(u32, u32),
    /// Size of `v`'s component.
    Size(u32),
    /// The `k` largest components.
    Topk(u8),
    /// Wait until no rebuild is in flight.
    Quiesce,
    /// Liveness.
    Ping,
}

/// [`Rec::answer`] of a request never answered (or never sent).
pub const UNANSWERED: u64 = u64::MAX;
/// [`Rec::answer`] of a request the server refused with an ERR reply.
pub const ERRORED: u64 = u64::MAX - 1;
/// [`Rec::answer`] of a reply whose body broke the protocol's own rules.
pub const MALFORMED: u64 = u64::MAX - 2;

/// What the driver recorded for one request. Stamps are nanoseconds on
/// the run's [`crate::drive::Clock`]; `sent_ns == 0` means never sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rec {
    /// When the open-loop schedule wanted it sent (closed loop: `sent_ns`).
    pub due_ns: u64,
    /// Taken just before the write that carried it.
    pub sent_ns: u64,
    /// Taken just after the read that returned its reply.
    pub done_ns: u64,
    /// The decoded reply: query bit, component size, size of the head of
    /// a `TOPK`, 0 for an empty OK body; or one of the sentinels above.
    pub answer: u64,
}

impl Rec {
    /// A request not yet sent.
    pub const UNSENT: Rec = Rec { due_ns: 0, sent_ns: 0, done_ns: 0, answer: UNANSWERED };

    /// Whether the server answered, and not with an ERR.
    pub fn answered(&self) -> bool {
        self.answer != UNANSWERED && self.answer != ERRORED
    }
}

/// A request stream cut into segments. In a closed-loop run every
/// connection finishes its share of a segment, and all meet at a barrier,
/// before the next begins; an open-loop run ignores the cuts.
pub struct Stream {
    /// The requests, in stream order.
    pub reqs: Vec<Req>,
    /// Exclusive end index of each segment, ascending; the last is
    /// `reqs.len()`.
    pub seg_ends: Vec<usize>,
}

impl Stream {
    fn cut(&mut self) {
        if self.seg_ends.last() != Some(&self.reqs.len()) {
            self.seg_ends.push(self.reqs.len());
        }
    }

    /// Requests that count as operations (barrier helpers do not).
    pub fn num_ops(&self) -> usize {
        self.reqs.iter().filter(|r| !matches!(r, Req::Quiesce | Req::Ping)).count()
    }
}

/// Inserts per round of the write stream.
pub const ROUND_INSERTS: usize = 8192;
/// Queries per round of the write and churn streams.
pub const ROUND_QUERIES: usize = 1024;

/// Query endpoints: half uniform pairs (mostly disconnected), half the
/// endpoints of two already-inserted edges (mostly inside the giant
/// component), so both answers occur.
fn query_pair(rng: &mut SplitMix64, n: usize, seen: &[(u32, u32)]) -> (u32, u32) {
    if seen.is_empty() || rng.next_u64() & 1 == 0 {
        (rng.gen_range(n) as u32, rng.gen_range(n) as u32)
    } else {
        (seen[rng.gen_range(seen.len())].0, seen[rng.gen_range(seen.len())].1)
    }
}

/// The `wire_write` stream: `rounds` rounds of [`ROUND_INSERTS`] inserts
/// drawn from `rmat_default(scale, ·, seed)`, a barrier, then
/// [`ROUND_QUERIES`] queries, a barrier.
pub fn write_stream(seed: u64, scale: u32, rounds: usize) -> Stream {
    let n = 1usize << scale;
    let edges = rmat_default(scale, rounds * ROUND_INSERTS, seed).edges;
    let mut rng = SplitMix64::new(seed ^ 0x51ED_270B);
    let mut s = Stream { reqs: Vec::new(), seg_ends: Vec::new() };
    for r in 0..rounds {
        let upto = (r + 1) * ROUND_INSERTS;
        s.reqs.extend(edges[r * ROUND_INSERTS..upto].iter().map(|&(u, v)| Req::Insert(u, v)));
        s.cut();
        for _ in 0..ROUND_QUERIES {
            let (u, v) = query_pair(&mut rng, n, &edges[..upto]);
            s.reqs.push(Req::Query(u, v));
        }
        s.cut();
    }
    s
}

/// The `wire_read` stream: 94 % `QUERY`, 5 % `INSERT` of fresh rmat
/// edges, 1 % `SIZE`/`TOPK`, one segment, over a graph preloaded with
/// `base`.
pub fn read_stream(seed: u64, scale: u32, base: &[(u32, u32)], count: usize) -> Stream {
    let n = 1usize << scale;
    let fresh = rmat_default(scale, count / 16 + 1, seed ^ 0xF4E5).edges;
    let mut rng = SplitMix64::new(seed ^ 0x4EAD);
    let mut reqs = Vec::with_capacity(count);
    let mut inserted = 0;
    for _ in 0..count {
        let roll = rng.gen_range(100);
        reqs.push(if roll < 94 {
            let (u, v) = query_pair(&mut rng, n, base);
            Req::Query(u, v)
        } else if roll < 99 {
            inserted += 1;
            let (u, v) = fresh[inserted % fresh.len()];
            Req::Insert(u, v)
        } else if rng.next_u64() & 1 == 0 {
            Req::Size(base[rng.gen_range(base.len())].0)
        } else {
            Req::Topk(8)
        });
    }
    Stream { reqs, seg_ends: vec![count] }
}

/// Distinct canonical non-loop edges drawn from `rmat_default`, none of
/// them in `avoid`.
pub fn distinct_edges(
    seed: u64,
    scale: u32,
    count: usize,
    avoid: &HashSet<(u32, u32)>,
) -> Vec<(u32, u32)> {
    let mut taken = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    let mut salt = 0u64;
    while out.len() < count {
        for (u, v) in rmat_default(scale, count, seed ^ salt.wrapping_mul(0xA24B_AED4)).edges {
            let e = canon(u, v);
            if u != v && out.len() < count && !avoid.contains(&e) && taken.insert(e) {
                out.push(e);
            }
        }
        salt += 1;
    }
    out
}

/// A churn stream over a graph preloaded with `base`: per round, 2
/// inserts of edges not live to 1 delete of a uniformly chosen edge that
/// was live when the round began (so no two updates of a round touch the
/// same edge and their order across connections cannot matter), shuffled
/// together; a barrier; `QUIESCE`; a barrier; then as many queries as
/// deletes. With `barriers` false the same mix is laid out flat, for the
/// open-loop phase.
pub fn churn_stream(
    seed: u64,
    scale: u32,
    live: &mut Vec<(u32, u32)>,
    rounds: usize,
    barriers: bool,
) -> Stream {
    let n = 1usize << scale;
    let per_round = 2 * ROUND_QUERIES;
    let avoid: HashSet<(u32, u32)> = live.iter().copied().collect();
    let fresh = distinct_edges(seed ^ 0xC4A2, scale, rounds * per_round, &avoid);
    let mut rng = SplitMix64::new(seed ^ 0xC4A3);
    let mut s = Stream { reqs: Vec::new(), seg_ends: Vec::new() };
    // Without barriers an insert may still be in flight a round later, so
    // edges born in this stream only become deletable once it has ended.
    let mut deferred = Vec::new();
    for r in 0..rounds {
        let mut updates: Vec<Req> = Vec::with_capacity(per_round + ROUND_QUERIES);
        for _ in 0..ROUND_QUERIES.min(live.len()) {
            let (u, v) = live.swap_remove(rng.gen_range(live.len()));
            updates.push(Req::Delete(u, v));
        }
        let born = &fresh[r * per_round..(r + 1) * per_round];
        updates.extend(born.iter().map(|&(u, v)| Req::Insert(u, v)));
        for i in (1..updates.len()).rev() {
            updates.swap(i, rng.gen_range(i + 1));
        }
        s.reqs.extend(updates);
        if barriers {
            live.extend_from_slice(born);
            s.cut();
            s.reqs.push(Req::Quiesce);
            s.cut();
        }
        for _ in 0..ROUND_QUERIES {
            let (u, v) = query_pair(&mut rng, n, live);
            s.reqs.push(Req::Query(u, v));
        }
        if barriers {
            s.cut();
        } else {
            deferred.extend_from_slice(born);
        }
    }
    live.append(&mut deferred);
    s.cut();
    s
}

/// Uniformly sampled query pairs for the final exact check.
pub fn final_queries(seed: u64, n: usize, seen: &[(u32, u32)], count: usize) -> Vec<Req> {
    let mut rng = SplitMix64::new(seed ^ 0xF17A);
    (0..count)
        .map(|_| {
            let (u, v) = query_pair(&mut rng, n, seen);
            Req::Query(u, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (a, b) = (write_stream(7, 10, 2), write_stream(7, 10, 2));
        assert_eq!(a.reqs, b.reqs);
        assert_ne!(a.reqs, write_stream(8, 10, 2).reqs);
        assert_eq!(a.seg_ends, vec![8192, 9216, 17408, 18432]);
        assert_eq!(a.num_ops(), 18432);
    }

    #[test]
    fn churn_rounds_never_touch_an_edge_twice() {
        let mut live = distinct_edges(1, 10, 4096, &HashSet::new());
        let s = churn_stream(3, 10, &mut live, 3, true);
        assert_eq!(s.seg_ends.len(), 9);
        let mut start = 0;
        for (k, &end) in s.seg_ends.iter().enumerate() {
            if k % 3 == 0 {
                let mut touched = HashSet::new();
                for r in &s.reqs[start..end] {
                    let (Req::Insert(u, v) | Req::Delete(u, v)) = *r else {
                        panic!("update segment holds {r:?}")
                    };
                    assert!(touched.insert(canon(u, v)));
                }
                assert_eq!(touched.len(), 3 * ROUND_QUERIES);
            }
            start = end;
        }
        assert_eq!(live.len(), 4096 + 3 * ROUND_QUERIES);
        assert_eq!(live.iter().collect::<HashSet<_>>().len(), live.len());
    }

    #[test]
    fn read_stream_is_mostly_queries() {
        let base = distinct_edges(1, 10, 512, &HashSet::new());
        let s = read_stream(5, 10, &base, 10_000);
        let q = s.reqs.iter().filter(|r| matches!(r, Req::Query(..))).count();
        let i = s.reqs.iter().filter(|r| matches!(r, Req::Insert(..))).count();
        assert!((9200..9600).contains(&q) && (350..650).contains(&i), "{q} {i}");
    }
}
