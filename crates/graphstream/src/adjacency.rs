//! Exact in-memory adjacency — the ground truth the sketches are measured
//! against, and the "unbounded memory" baseline of the evaluation.
//!
//! Memory grows as O(n + m); the whole point of the paper is that this is
//! unaffordable for fast, massive streams. [`AdjacencyGraph::memory_bytes`]
//! makes that cost measurable for experiment E7.

use std::collections::{HashMap, HashSet};

use crate::types::{Edge, VertexId};

/// A simple undirected graph stored as hash-set adjacency lists.
///
/// Duplicate edge insertions and self-loops are ignored, keeping the graph
/// simple regardless of stream noise.
#[derive(Debug, Clone, Default)]
pub struct AdjacencyGraph {
    adj: HashMap<VertexId, HashSet<VertexId>>,
    edge_count: u64,
}

impl AdjacencyGraph {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an undirected edge; returns `true` if it was new.
    ///
    /// Self-loops are rejected (returns `false`) — they carry no
    /// link-prediction signal.
    pub fn insert_edge(&mut self, u: impl Into<VertexId>, v: impl Into<VertexId>) -> bool {
        let (u, v) = (u.into(), v.into());
        if u == v {
            return false;
        }
        let added = self.adj.entry(u).or_default().insert(v);
        if added {
            self.adj.entry(v).or_default().insert(u);
            self.edge_count += 1;
        }
        added
    }

    /// Inserts every edge of a stream slice / iterator.
    pub fn extend_edges(&mut self, edges: impl IntoIterator<Item = Edge>) {
        for e in edges {
            self.insert_edge(e.src, e.dst);
        }
    }

    /// Builds the graph from a stream in one pass.
    #[must_use]
    pub fn from_edges(edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut g = Self::new();
        g.extend_edges(edges);
        g
    }

    /// Whether `{u, v}` is an edge.
    #[must_use]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adj.get(&u).is_some_and(|s| s.contains(&v))
    }

    /// The neighbor set of `u`, if `u` has been seen.
    #[must_use]
    pub fn neighbors(&self, u: VertexId) -> Option<&HashSet<VertexId>> {
        self.adj.get(&u)
    }

    /// The degree of `u` (0 for unseen vertices).
    #[must_use]
    pub fn degree(&self, u: VertexId) -> usize {
        self.adj.get(&u).map_or(0, HashSet::len)
    }

    /// Number of vertices that appear in at least one edge.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of distinct undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> u64 {
        self.edge_count
    }

    /// Iterates over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.adj.keys().copied()
    }

    /// Iterates over all edges once each, in canonical orientation.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.adj.iter().flat_map(|(&u, nbrs)| {
            nbrs.iter()
                .copied()
                .filter(move |&v| u.0 < v.0)
                .map(move |v| (u, v))
        })
    }

    /// `|N(u) ∩ N(v)|` — the common-neighbor count.
    #[must_use]
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> usize {
        match (self.adj.get(&u), self.adj.get(&v)) {
            (Some(a), Some(b)) => {
                // Iterate the smaller set; probe the larger.
                let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                small.iter().filter(|w| large.contains(w)).count()
            }
            _ => 0,
        }
    }

    /// The Jaccard coefficient `|N(u) ∩ N(v)| / |N(u) ∪ N(v)|`.
    ///
    /// Returns 0 when both neighborhoods are empty (the conventional
    /// value: no evidence, no similarity).
    #[must_use]
    pub fn jaccard(&self, u: VertexId, v: VertexId) -> f64 {
        let cn = self.common_neighbors(u, v);
        let union = self.degree(u) + self.degree(v) - cn;
        if union == 0 {
            0.0
        } else {
            cn as f64 / union as f64
        }
    }

    /// The Adamic–Adar index `Σ_{w ∈ N(u)∩N(v)} 1/ln d(w)`.
    ///
    /// Common neighbors of degree 1 are impossible (they neighbor both `u`
    /// and `v`, so `d(w) >= 2`), hence `ln d(w) >= ln 2 > 0` and every term
    /// is finite.
    #[must_use]
    pub fn adamic_adar(&self, u: VertexId, v: VertexId) -> f64 {
        self.common_neighbor_sum(u, v, |w| 1.0 / (self.degree(w) as f64).ln())
    }

    /// The resource-allocation index `Σ_{w ∈ N(u)∩N(v)} 1/d(w)`.
    #[must_use]
    pub fn resource_allocation(&self, u: VertexId, v: VertexId) -> f64 {
        self.common_neighbor_sum(u, v, |w| 1.0 / self.degree(w) as f64)
    }

    /// `Σ_{w ∈ N(u)∩N(v)} weight(w)`, summed in ascending id order.
    ///
    /// Floating-point addition is not associative, and each neighbor set
    /// iterates in its own per-process hash order; summing in a fixed
    /// order makes the result bit-identical across graphs built from the
    /// same edges, and so across runs.
    #[must_use]
    pub fn common_neighbor_sum(
        &self,
        u: VertexId,
        v: VertexId,
        weight: impl Fn(VertexId) -> f64,
    ) -> f64 {
        let (Some(a), Some(b)) = (self.adj.get(&u), self.adj.get(&v)) else {
            return 0.0;
        };
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let mut common: Vec<VertexId> = small
            .iter()
            .filter(|w| large.contains(w))
            .copied()
            .collect();
        common.sort_unstable();
        common.into_iter().map(weight).sum()
    }

    /// The preferential-attachment score `d(u) · d(v)`.
    #[must_use]
    pub fn preferential_attachment(&self, u: VertexId, v: VertexId) -> f64 {
        self.degree(u) as f64 * self.degree(v) as f64
    }

    /// The cosine (Salton) index `|N(u) ∩ N(v)| / √(d(u)·d(v))`.
    ///
    /// 0 when either degree is 0.
    #[must_use]
    pub fn cosine(&self, u: VertexId, v: VertexId) -> f64 {
        let (du, dv) = (self.degree(u), self.degree(v));
        if du == 0 || dv == 0 {
            return 0.0;
        }
        self.common_neighbors(u, v) as f64 / ((du * dv) as f64).sqrt()
    }

    /// The overlap coefficient `|N(u) ∩ N(v)| / min(d(u), d(v))`.
    ///
    /// 0 when either degree is 0.
    #[must_use]
    pub fn overlap(&self, u: VertexId, v: VertexId) -> f64 {
        let m = self.degree(u).min(self.degree(v));
        if m == 0 {
            return 0.0;
        }
        self.common_neighbors(u, v) as f64 / m as f64
    }

    /// Approximate resident size in bytes: hash-map/set overhead plus
    /// entries. Used by the memory experiment (E7); intentionally a model
    /// (capacity × slot size), not an allocator census, so it is
    /// deterministic across runs.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let map_entry = size_of::<(VertexId, HashSet<VertexId>)>() + size_of::<u64>();
        let set_entry = size_of::<VertexId>() + size_of::<u64>();
        let mut total = self.adj.capacity() * map_entry;
        for set in self.adj.values() {
            total += set.capacity() * set_entry;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 5-vertex "bowtie": 0-1, 0-2, 1-2, 1-3, 2-3, 3-4.
    fn bowtie() -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new();
        for (u, v) in [(0u64, 1u64), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)] {
            assert!(g.insert_edge(u, v));
        }
        g
    }

    #[test]
    fn counts_and_degrees() {
        let g = bowtie();
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.degree(VertexId(1)), 3);
        assert_eq!(g.degree(VertexId(4)), 1);
        assert_eq!(g.degree(VertexId(99)), 0);
    }

    #[test]
    fn duplicate_and_reversed_edges_ignored() {
        let mut g = bowtie();
        assert!(!g.insert_edge(0u64, 1u64));
        assert!(!g.insert_edge(1u64, 0u64));
        assert_eq!(g.edge_count(), 6);
    }

    #[test]
    fn self_loops_rejected() {
        let mut g = AdjacencyGraph::new();
        assert!(!g.insert_edge(3u64, 3u64));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.vertex_count(), 0);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = bowtie();
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        assert!(g.has_edge(VertexId(1), VertexId(0)));
        assert!(!g.has_edge(VertexId(0), VertexId(4)));
    }

    #[test]
    fn common_neighbors_bowtie() {
        let g = bowtie();
        // N(0) = {1,2}, N(3) = {1,2,4} → CN = 2.
        assert_eq!(g.common_neighbors(VertexId(0), VertexId(3)), 2);
        // Unseen vertex → 0.
        assert_eq!(g.common_neighbors(VertexId(0), VertexId(77)), 0);
    }

    #[test]
    fn jaccard_bowtie() {
        let g = bowtie();
        // |N(0) ∩ N(3)| = 2, |N(0) ∪ N(3)| = {1,2,4} = 3.
        assert!((g.jaccard(VertexId(0), VertexId(3)) - 2.0 / 3.0).abs() < 1e-12);
        // Both unseen → 0, not NaN.
        assert_eq!(g.jaccard(VertexId(88), VertexId(99)), 0.0);
    }

    #[test]
    fn adamic_adar_bowtie() {
        let g = bowtie();
        // Common neighbors of (0,3) are 1 (deg 3) and 2 (deg 3).
        let expected = 2.0 / 3.0f64.ln();
        assert!((g.adamic_adar(VertexId(0), VertexId(3)) - expected).abs() < 1e-12);
    }

    #[test]
    fn resource_allocation_bowtie() {
        let g = bowtie();
        let expected = 2.0 / 3.0;
        assert!((g.resource_allocation(VertexId(0), VertexId(3)) - expected).abs() < 1e-12);
    }

    #[test]
    fn weighted_sums_are_bit_identical_across_graphs() {
        // Vertices 0 and 1 share 60 neighbors whose degrees vary from 2
        // to 61, so the AA terms differ and their sum depends on the
        // order it is taken in. Each graph's hash sets iterate in their
        // own order; the sums must still agree to the last bit.
        let mut edges = Vec::new();
        for i in 0..60u64 {
            let w = 100 + i;
            edges.push(Edge::new(0, w, 0));
            edges.push(Edge::new(1, w, 0));
            for j in 0..i {
                edges.push(Edge::new(w, 1000 + j, 0));
            }
        }
        let aa: Vec<u64> = (0..8)
            .map(|_| {
                let g = AdjacencyGraph::from_edges(edges.iter().copied());
                assert_eq!(g.common_neighbors(VertexId(0), VertexId(1)), 60);
                g.adamic_adar(VertexId(0), VertexId(1)).to_bits()
            })
            .collect();
        assert!(aa.windows(2).all(|w| w[0] == w[1]), "{aa:?}");
    }

    #[test]
    fn preferential_attachment_bowtie() {
        let g = bowtie();
        assert_eq!(g.preferential_attachment(VertexId(1), VertexId(3)), 9.0);
    }

    #[test]
    fn cosine_bowtie() {
        let g = bowtie();
        // CN(0,3) = 2, d(0) = 2, d(3) = 3 → 2/√6.
        let expected = 2.0 / 6.0f64.sqrt();
        assert!((g.cosine(VertexId(0), VertexId(3)) - expected).abs() < 1e-12);
        assert_eq!(g.cosine(VertexId(0), VertexId(99)), 0.0);
    }

    #[test]
    fn overlap_bowtie() {
        let g = bowtie();
        // CN(0,3) = 2, min degree = 2 → 1.0: N(0) ⊆ N(3).
        assert!((g.overlap(VertexId(0), VertexId(3)) - 1.0).abs() < 1e-12);
        assert_eq!(g.overlap(VertexId(99), VertexId(0)), 0.0);
    }

    #[test]
    fn cosine_and_overlap_bound_jaccard() {
        // J ≤ cosine ≤ overlap for every pair (standard inequalities).
        let g = bowtie();
        for u in 0..5u64 {
            for v in 0..5u64 {
                if u == v {
                    continue;
                }
                let (u, v) = (VertexId(u), VertexId(v));
                assert!(g.jaccard(u, v) <= g.cosine(u, v) + 1e-12);
                assert!(g.cosine(u, v) <= g.overlap(u, v) + 1e-12);
            }
        }
    }

    #[test]
    fn edges_iterates_each_once_canonical() {
        let g = bowtie();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 6);
        for (u, v) in &edges {
            assert!(u.0 < v.0);
        }
    }

    #[test]
    fn measures_are_symmetric() {
        let g = bowtie();
        for u in 0..5u64 {
            for v in 0..5u64 {
                if u == v {
                    // AA(u,u) can contain 1/ln(1) = inf terms (degree-1
                    // neighbors); the measure is only defined on pairs.
                    continue;
                }
                let (u, v) = (VertexId(u), VertexId(v));
                assert_eq!(g.common_neighbors(u, v), g.common_neighbors(v, u));
                assert_eq!(g.jaccard(u, v), g.jaccard(v, u));
                assert!((g.adamic_adar(u, v) - g.adamic_adar(v, u)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn memory_grows_with_edges() {
        let mut g = AdjacencyGraph::new();
        let before = g.memory_bytes();
        for i in 0..1000u64 {
            g.insert_edge(i, i + 1);
        }
        assert!(g.memory_bytes() > before);
        assert!(g.memory_bytes() > 1000 * 8, "entry accounting missing");
    }

    #[test]
    fn from_edges_builds_equivalent_graph() {
        let edges = [(0u64, 1u64), (1, 2), (2, 0)]
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| Edge::new(u, v, i as u64));
        let g = AdjacencyGraph::from_edges(edges);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.common_neighbors(VertexId(0), VertexId(1)), 1);
    }
}
