//! The sequential oracle and the post-hoc validators. Nothing here runs
//! inside a timed window: the drivers only record what was sent, when,
//! and what came back; these functions judge the records afterwards.

use crate::stream::{Rec, Req, MALFORMED};
use std::collections::HashSet;

/// Sequential union-find with component sizes (union by size, path
/// halving): the reference every server answer is held to.
pub struct Oracle {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
    largest: u32,
}

impl Oracle {
    /// `n` singletons.
    pub fn new(n: usize) -> Oracle {
        Oracle { parent: (0..n as u32).collect(), size: vec![1; n], components: n, largest: 1 }
    }

    /// `n` singletons joined by `edges`.
    pub fn from_edges<'a>(n: usize, edges: impl IntoIterator<Item = &'a (u32, u32)>) -> Oracle {
        let mut o = Oracle::new(n);
        for &(u, v) in edges {
            o.union(u, v);
        }
        o
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let p = self.parent[x as usize];
            self.parent[x as usize] = self.parent[p as usize];
            x = p;
        }
        x
    }

    /// Joins the components of `u` and `v`.
    pub fn union(&mut self, u: u32, v: u32) {
        let (mut a, mut b) = (self.find(u), self.find(v));
        if a == b {
            return;
        }
        if self.size[a as usize] < self.size[b as usize] {
            std::mem::swap(&mut a, &mut b);
        }
        self.parent[b as usize] = a;
        self.size[a as usize] += self.size[b as usize];
        self.largest = self.largest.max(self.size[a as usize]);
        self.components -= 1;
    }

    /// Whether `u` and `v` share a component.
    pub fn connected(&mut self, u: u32, v: u32) -> bool {
        self.find(u) == self.find(v)
    }

    /// Member count of `v`'s component.
    pub fn size_of(&mut self, v: u32) -> u64 {
        let r = self.find(v);
        u64::from(self.size[r as usize])
    }

    /// Number of components.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Size of the largest component as `TOPK` reports it: singletons are
    /// excluded, so an edgeless graph has 0.
    pub fn largest_nontrivial(&self) -> u64 {
        if self.largest > 1 {
            u64::from(self.largest)
        } else {
            0
        }
    }
}

/// What a validator found.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    /// Answers compared with the oracle.
    pub checked: u64,
    /// Answers the oracle contradicts.
    pub mismatches: u64,
    /// The first contradiction, for the error message.
    pub first: Option<String>,
}

impl Verdict {
    fn fail(&mut self, what: String) {
        self.mismatches += 1;
        self.first.get_or_insert(what);
    }

    /// Folds another verdict into this one.
    pub fn absorb(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.mismatches += other.mismatches;
        if self.first.is_none() {
            self.first = other.first;
        }
    }
}

/// The bounds rule for insert-only traffic, where the server may let a
/// read overtake writes still riding the batch former. An answer must lie
/// between two oracles: `lo`, holding every insert *acked* before the
/// read was sent (those are certainly applied), and `hi`, holding every
/// insert *sent* before the reply was reaped (those may be). So a `true`
/// must hold in `hi` and a `false` in `lo`; a `SIZE` or the head of a
/// `TOPK` must lie in `[lo, hi]`. Send stamps are taken before the write
/// and reap stamps after the read, so both comparisons err on the safe
/// side. Between barriers `lo == hi` and the rule is exact.
pub fn validate_bounds(n: usize, base: &[(u32, u32)], reqs: &[Req], recs: &[Rec]) -> Verdict {
    assert_eq!(reqs.len(), recs.len());
    let mut verdict = Verdict::default();
    let inserts: Vec<usize> =
        (0..reqs.len()).filter(|&i| matches!(reqs[i], Req::Insert(..))).collect();
    let mut by_sent: Vec<usize> =
        inserts.iter().copied().filter(|&i| recs[i].sent_ns > 0).collect();
    by_sent.sort_by_key(|&i| recs[i].sent_ns);
    let mut by_done: Vec<usize> = inserts.into_iter().filter(|&i| recs[i].answered()).collect();
    by_done.sort_by_key(|&i| recs[i].done_ns);
    let is_read = |i: &usize| {
        matches!(reqs[*i], Req::Query(..) | Req::Size(_) | Req::Topk(_)) && recs[*i].answered()
    };
    let mut reads: Vec<usize> = (0..reqs.len()).filter(is_read).collect();
    let edge = |i: usize| match reqs[i] {
        Req::Insert(u, v) => (u, v),
        _ => unreachable!("insert index"),
    };

    for &i in &reads {
        if recs[i].answer == MALFORMED {
            verdict.fail(format!("req {i} {:?}: malformed reply body", reqs[i]));
        }
    }
    reads.retain(|&i| recs[i].answer != MALFORMED);
    verdict.checked = reads.len() as u64;

    // Upper bound: reads in reap order against inserts in send order.
    reads.sort_by_key(|&i| recs[i].done_ns);
    let mut hi = Oracle::from_edges(n, base);
    let mut next = 0;
    for &i in &reads {
        while next < by_sent.len() && recs[by_sent[next]].sent_ns <= recs[i].done_ns {
            let (u, v) = edge(by_sent[next]);
            hi.union(u, v);
            next += 1;
        }
        let a = recs[i].answer;
        let ok = match reqs[i] {
            Req::Query(u, v) => a == 0 || hi.connected(u, v),
            Req::Size(v) => a <= hi.size_of(v),
            Req::Topk(_) => a <= hi.largest_nontrivial(),
            _ => true,
        };
        if !ok {
            verdict.fail(format!("req {i} {:?} answered {a}: above every insert sent", reqs[i]));
        }
    }

    // Lower bound: reads in send order against inserts in ack order.
    reads.sort_by_key(|&i| recs[i].sent_ns);
    let mut lo = Oracle::from_edges(n, base);
    let mut next = 0;
    for &i in &reads {
        while next < by_done.len() && recs[by_done[next]].done_ns < recs[i].sent_ns {
            let (u, v) = edge(by_done[next]);
            lo.union(u, v);
            next += 1;
        }
        let a = recs[i].answer;
        let ok = match reqs[i] {
            Req::Query(u, v) => a == 1 || !lo.connected(u, v),
            Req::Size(v) => a >= lo.size_of(v),
            Req::Topk(_) => a >= lo.largest_nontrivial(),
            _ => true,
        };
        if !ok {
            verdict.fail(format!("req {i} {:?} answered {a}: below every insert acked", reqs[i]));
        }
    }
    verdict
}

/// Canonical form of an undirected edge.
pub fn canon(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

/// The live edge set of a churn run, replayed in stream order.
pub struct ChurnModel {
    n: usize,
    /// Edges currently present.
    pub live: HashSet<(u32, u32)>,
}

impl ChurnModel {
    /// A model holding the preloaded edges.
    pub fn new(n: usize, base: &[(u32, u32)]) -> ChurnModel {
        ChurnModel { n, live: base.iter().map(|&(u, v)| canon(u, v)).collect() }
    }

    /// Applies one update; reads are ignored.
    pub fn apply(&mut self, req: &Req) {
        match *req {
            Req::Insert(u, v) => {
                self.live.insert(canon(u, v));
            }
            Req::Delete(u, v) => {
                self.live.remove(&canon(u, v));
            }
            _ => {}
        }
    }

    /// The components of the live edge set, from scratch.
    pub fn oracle(&self) -> Oracle {
        Oracle::from_edges(self.n, &self.live)
    }

    /// Exact validation of a barrier-separated churn stream: every query
    /// window follows a barrier and a `QUIESCE`, so each answer must equal
    /// the oracle over exactly the updates that precede it in the stream.
    /// Requests never sent (a run cut short) are not part of the history.
    pub fn validate(&mut self, reqs: &[Req], recs: &[Rec]) -> Verdict {
        assert_eq!(reqs.len(), recs.len());
        let mut verdict = Verdict::default();
        let mut oracle: Option<Oracle> = None;
        for (i, (req, rec)) in reqs.iter().zip(recs).enumerate() {
            match *req {
                _ if rec.sent_ns == 0 => {}
                Req::Insert(..) | Req::Delete(..) => {
                    self.apply(req);
                    oracle = None;
                }
                Req::Query(u, v) if rec.answered() => {
                    let o = oracle.get_or_insert_with(|| self.oracle());
                    verdict.checked += 1;
                    if (rec.answer == 1) != o.connected(u, v) {
                        verdict.fail(format!("req {i} {req:?} answered {}", rec.answer));
                    }
                }
                _ => {}
            }
        }
        verdict
    }
}

/// Exact validation of queries asked of a quiescent server.
pub fn validate_exact(oracle: &mut Oracle, reqs: &[Req], recs: &[Rec]) -> Verdict {
    let mut verdict = Verdict::default();
    for (i, (req, rec)) in reqs.iter().zip(recs).enumerate() {
        if let (Req::Query(u, v), true) = (*req, rec.answered()) {
            verdict.checked += 1;
            if (rec.answer == 1) != oracle.connected(u, v) {
                verdict.fail(format!("final query {i} {req:?} answered {}", rec.answer));
            }
        }
    }
    verdict
}

/// Whether `labels` is exactly the component partition of the oracle
/// built from `edges`: no edge crosses two labels, and there are as many
/// labels as components.
pub fn validate_labels(n: usize, edges: &[(u32, u32)], labels: &[u32]) -> Verdict {
    let mut verdict = Verdict { checked: 1, ..Verdict::default() };
    if labels.len() != n {
        verdict.fail(format!("{} labels for {n} vertices", labels.len()));
        return verdict;
    }
    if let Some(&(u, v)) = edges.iter().find(|&&(u, v)| labels[u as usize] != labels[v as usize]) {
        verdict.fail(format!("edge ({u}, {v}) crosses two labels"));
    }
    let distinct = labels.iter().collect::<HashSet<_>>().len();
    let want = Oracle::from_edges(n, edges).components();
    if distinct != want {
        verdict.fail(format!("{distinct} labels, oracle has {want} components"));
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::UNANSWERED;

    fn rec(sent: u64, done: u64, answer: u64) -> Rec {
        Rec { due_ns: sent, sent_ns: sent, done_ns: done, answer }
    }

    #[test]
    fn oracle_tracks_sizes_and_components() {
        let mut o = Oracle::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        assert!(o.connected(0, 2) && !o.connected(2, 3));
        assert_eq!((o.size_of(1), o.size_of(4), o.size_of(5)), (3, 2, 1));
        assert_eq!((o.components(), o.largest_nontrivial()), (3, 3));
        assert_eq!(Oracle::new(4).largest_nontrivial(), 0);
    }

    #[test]
    fn bounds_rule_is_exact_between_barriers() {
        // insert acked at 20, query sent at 30: only `true` is right.
        let reqs = [Req::Insert(0, 1), Req::Query(0, 1), Req::Query(0, 2)];
        let good = [rec(10, 20, 0), rec(30, 40, 1), rec(30, 40, 0)];
        assert_eq!(validate_bounds(3, &[], &reqs, &good).mismatches, 0);
        assert_eq!(validate_bounds(3, &[], &reqs, &good).checked, 2);
        // One wrong bit, either way, is caught.
        let mut bad = good;
        bad[1].answer = 0;
        assert_eq!(validate_bounds(3, &[], &reqs, &bad).mismatches, 1);
        let mut bad = good;
        bad[2].answer = 1;
        assert_eq!(validate_bounds(3, &[], &reqs, &bad).mismatches, 1);
    }

    #[test]
    fn bounds_rule_allows_either_answer_while_an_insert_is_in_flight() {
        // The query overlaps the insert: sent after it, before its ack.
        let reqs = [Req::Insert(0, 1), Req::Query(0, 1), Req::Size(0)];
        for bit in [0, 1] {
            let recs = [rec(10, 50, 0), rec(20, 30, bit), rec(20, 30, 1 + bit)];
            assert_eq!(validate_bounds(2, &[], &reqs, &recs).mismatches, 0);
        }
        // A query reaped before the insert was even sent must say false.
        let recs = [rec(40, 50, 0), rec(20, 30, 1), rec(20, 30, 1)];
        assert_eq!(validate_bounds(2, &[], &reqs, &recs).mismatches, 1);
        // A size above what every sent insert allows is wrong.
        let recs = [rec(10, 50, 0), rec(20, 30, 0), rec(20, 30, 3)];
        assert_eq!(validate_bounds(2, &[], &reqs, &recs).mismatches, 1);
    }

    #[test]
    fn dropped_and_malformed_replies() {
        let reqs = [Req::Insert(0, 1), Req::Query(0, 1), Req::Topk(4)];
        // A dropped reply is not compared (it is counted as failed by the
        // driver); an unacked insert still raises the upper bound only.
        let recs = [rec(10, 0, UNANSWERED), rec(30, 40, UNANSWERED), rec(30, 40, MALFORMED)];
        let v = validate_bounds(2, &[], &reqs, &recs);
        assert_eq!((v.checked, v.mismatches), (0, 1));
        let recs = [rec(10, 0, UNANSWERED), rec(30, 40, 1), rec(30, 40, 2)];
        assert_eq!(validate_bounds(2, &[], &reqs, &recs).mismatches, 0);
        let recs = [rec(10, 0, UNANSWERED), rec(30, 40, 0), rec(30, 40, 0)];
        assert_eq!(validate_bounds(2, &[], &reqs, &recs).mismatches, 0);
    }

    #[test]
    fn churn_is_exact_and_sees_deletes() {
        let reqs = [
            Req::Insert(1, 2),
            Req::Delete(0, 1),
            Req::Quiesce,
            Req::Query(0, 2),
            Req::Query(1, 2),
        ];
        let recs = [rec(1, 2, 0), rec(1, 2, 0), rec(3, 4, 0), rec(5, 6, 0), rec(5, 6, 1)];
        let mut model = ChurnModel::new(3, &[(1, 0)]);
        assert_eq!(model.validate(&reqs, &recs).mismatches, 0);
        assert_eq!(model.oracle().components(), 2);
        let mut wrong = recs;
        wrong[3].answer = 1; // the deleted edge still answers connected
        let v = ChurnModel::new(3, &[(1, 0)]).validate(&reqs, &wrong);
        assert_eq!((v.checked, v.mismatches), (2, 1));
        // A run cut short: what was never sent never happened.
        let mut cut = [Rec::UNSENT; 5];
        cut[0] = recs[0];
        let mut model = ChurnModel::new(3, &[(1, 0)]);
        assert_eq!(model.validate(&reqs, &cut).checked, 0);
        assert_eq!(model.oracle().components(), 1);
    }

    #[test]
    fn labels_must_match_the_partition() {
        let edges = [(0, 1), (2, 3)];
        assert_eq!(validate_labels(5, &edges, &[0, 0, 2, 2, 4]).mismatches, 0);
        assert_eq!(validate_labels(5, &edges, &[0, 0, 2, 3, 4]).mismatches, 2);
        assert_eq!(validate_labels(5, &edges, &[0, 0, 0, 0, 4]).mismatches, 1);
    }
}
