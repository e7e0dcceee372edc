//! Sequential union-find oracle: union by rank with full path compression.
//! Obviously-correct reference used by tests, validators (the loadgen's
//! oracle, `is_valid_spanning_forest`) and sequential baselines; nothing
//! on a serving path calls it.

/// Sequential disjoint-set structure.
pub struct SeqUnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl SeqUnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        SeqUnionFind { parent: (0..n as u32).collect(), rank: vec![0; n], components: n }
    }

    /// Returns the representative of `x`, compressing the path.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while cur != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `x` and `y`; returns true iff a merge happened.
    pub fn union(&mut self, x: u32, y: u32) -> bool {
        let (rx, ry) = (self.find(x), self.find(y));
        if rx == ry {
            return false;
        }
        self.components -= 1;
        let (rx, ry) = match self.rank[rx as usize].cmp(&self.rank[ry as usize]) {
            std::cmp::Ordering::Less => (ry, rx),
            std::cmp::Ordering::Greater => (rx, ry),
            std::cmp::Ordering::Equal => {
                self.rank[rx as usize] += 1;
                (rx, ry)
            }
        };
        self.parent[ry as usize] = rx;
        true
    }

    /// True iff `x` and `y` are in the same set.
    pub fn connected(&mut self, x: u32, y: u32) -> bool {
        self.find(x) == self.find(y)
    }

    /// Number of disjoint sets.
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// Canonical labeling: every element mapped to its representative.
    pub fn labels(&mut self) -> Vec<u32> {
        (0..self.parent.len() as u32).map(|v| self.find(v)).collect()
    }
}

/// Runs the oracle over an edge list and returns the labeling.
pub fn oracle_labels(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut uf = SeqUnionFind::new(n);
    for &(u, v) in edges {
        uf.union(u, v);
    }
    uf.labels()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_union_find() {
        let mut uf = SeqUnionFind::new(5);
        assert_eq!(uf.num_components(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(3, 4));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.num_components(), 3);
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 3));
    }

    #[test]
    fn labels_partition() {
        let labels = oracle_labels(6, &[(0, 1), (1, 2), (4, 5)]);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[4]);
        assert_eq!(labels[3], 3);
    }

    #[test]
    fn chain_compresses() {
        let mut uf = SeqUnionFind::new(1000);
        for i in 0..999 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.num_components(), 1);
        let r = uf.find(999);
        assert!((0..1000).all(|v| uf.parent[v as usize] == r || v == r));
    }
}
