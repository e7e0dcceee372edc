//! A naive fully-dynamic connectivity oracle: adjacency sets plus a BFS
//! per query. Deliberately the dumbest correct thing — `O(n + m)` per
//! query, no caching, no incrementality — so it can adjudicate every
//! deletion-capable structure in the repo (the core
//! [`connectit::DynamicConnectivity`] baseline, the server's generation
//! engine, crash-recovered and replicated states) without sharing a line
//! of logic with any of them.
//!
//! Semantics are sequential and exact: each operation fully applies
//! before the next, duplicate inserts and absent deletes are no-ops, and
//! self-loops are never live.

use connectit::Update;
use std::collections::HashSet;
use std::collections::VecDeque;

/// The reference structure (see module docs).
pub struct DynamicOracle {
    adj: Vec<HashSet<u32>>,
    num_edges: usize,
}

impl DynamicOracle {
    /// An empty graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        DynamicOracle { adj: vec![HashSet::new(); n], num_edges: 0 }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Inserts `{u, v}`; returns whether the edge was novel (self-loops
    /// never are).
    pub fn insert(&mut self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        let novel = self.adj[u as usize].insert(v);
        self.adj[v as usize].insert(u);
        self.num_edges += usize::from(novel);
        novel
    }

    /// Deletes `{u, v}`; returns whether the edge was live.
    pub fn delete(&mut self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        let was_live = self.adj[u as usize].remove(&v);
        self.adj[v as usize].remove(&u);
        self.num_edges -= usize::from(was_live);
        was_live
    }

    /// Exact connectivity by BFS over the live adjacency.
    pub fn connected(&self, u: u32, v: u32) -> bool {
        if u == v {
            return true;
        }
        let mut seen = vec![false; self.adj.len()];
        let mut queue = VecDeque::from([u]);
        seen[u as usize] = true;
        while let Some(x) = queue.pop_front() {
            for &y in &self.adj[x as usize] {
                if y == v {
                    return true;
                }
                if !seen[y as usize] {
                    seen[y as usize] = true;
                    queue.push_back(y);
                }
            }
        }
        false
    }

    /// Applies one operation; queries return `Some(answer)`.
    pub fn apply(&mut self, op: Update) -> Option<bool> {
        match op {
            Update::Insert(u, v) => {
                self.insert(u, v);
                None
            }
            Update::Delete(u, v) => {
                self.delete(u, v);
                None
            }
            Update::Query(u, v) => Some(self.connected(u, v)),
        }
    }

    /// Applies a batch sequentially; returns query answers in order.
    pub fn apply_batch(&mut self, batch: &[Update]) -> Vec<bool> {
        batch.iter().filter_map(|&op| self.apply(op)).collect()
    }

    /// The exact component labeling (each component labeled by its
    /// minimum member), BFS flood per component.
    pub fn labels(&self) -> Vec<u32> {
        let n = self.adj.len();
        let mut labels = vec![u32::MAX; n];
        for start in 0..n as u32 {
            if labels[start as usize] != u32::MAX {
                continue;
            }
            labels[start as usize] = start;
            let mut queue = VecDeque::from([start]);
            while let Some(x) = queue.pop_front() {
                for &y in &self.adj[x as usize] {
                    if labels[y as usize] == u32::MAX {
                        labels[y as usize] = start;
                        queue.push_back(y);
                    }
                }
            }
        }
        labels
    }

    /// The live edge list as canonical `(min, max)` pairs, sorted — handy
    /// for comparing two states structurally.
    pub fn edge_list(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for (u, nbrs) in self.adj.iter().enumerate() {
            for &v in nbrs {
                if (u as u32) < v {
                    out.push((u as u32, v));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_deletes_and_queries() {
        let mut o = DynamicOracle::new(5);
        assert!(o.insert(0, 1));
        assert!(o.insert(1, 2));
        assert!(!o.insert(2, 1), "duplicate insert is a no-op");
        assert!(!o.insert(3, 3), "self-loop is never live");
        assert_eq!(o.num_edges(), 2);
        assert!(o.connected(0, 2));
        assert!(!o.connected(0, 3));
        assert!(o.delete(1, 2));
        assert!(!o.delete(1, 2), "duplicate delete is a no-op");
        assert!(!o.delete(0, 4), "absent delete is a no-op");
        assert!(!o.connected(0, 2));
        assert!(o.connected(0, 1));
        assert_eq!(o.labels(), vec![0, 0, 2, 3, 4]);
        assert_eq!(o.edge_list(), vec![(0, 1)]);
    }

    #[test]
    fn batch_application_is_sequential() {
        let mut o = DynamicOracle::new(4);
        let answers = o.apply_batch(&[
            Update::Insert(0, 1),
            Update::Query(0, 1),
            Update::Delete(0, 1),
            Update::Query(0, 1),
            Update::Query(2, 2),
        ]);
        assert_eq!(answers, vec![true, false, true]);
    }

    #[test]
    fn agrees_with_core_dynamic_baseline() {
        let n = 60usize;
        let mut o = DynamicOracle::new(n);
        let mut d = connectit::DynamicConnectivity::new(n);
        // A deterministic interleaving with plenty of collisions.
        let mut ops = Vec::new();
        for i in 0..400u32 {
            let (u, v) = ((i * 7) % n as u32, (i * 13 + 1) % n as u32);
            ops.push(match i % 5 {
                0..=2 => Update::Insert(u, v),
                3 => Update::Delete((i * 3) % n as u32, (i * 11 + 2) % n as u32),
                _ => Update::Query(u, v),
            });
        }
        let want: Vec<bool> = ops.iter().filter_map(|&op| o.apply(op)).collect();
        let got = d.process_batch(&ops);
        assert_eq!(got, want);
        assert!(cc_graph::stats::same_partition(&o.labels(), &d.labels()));
    }
}
