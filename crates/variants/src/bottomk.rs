//! The bottom-k sketch variant (ablation).
//!
//! Instead of `k` hash functions with one minimum each, bottom-k keeps the
//! `k` smallest values of a *single* hash function per vertex. One hash
//! evaluation per edge endpoint instead of `k` makes updates much cheaper;
//! the price is coordinated sampling with slightly different variance and
//! a more involved estimator:
//!
//! ```text
//! Ĵ = |B_k(N(u) ∪ N(v)) ∩ B_k(N(u)) ∩ B_k(N(v))| / |B_k(N(u) ∪ N(v))|
//! ```
//!
//! where `B_k(S)` is the set of the `k` smallest hashes of `S` — computable
//! from the two sketches alone because `B_k(A ∪ B) = B_k(B_k(A) ∪ B_k(B))`.
//! Experiment E11 compares this variant against the k-function sketch.

use std::collections::HashMap;

use hashkit::SeededHash;

use graphstream::{Edge, VertexId};

use streamlink_core::estimators;

/// One vertex's bottom-k list: the k smallest neighbor hashes, ascending,
/// each with its originating neighbor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BottomKSketch {
    /// Ascending `(hash, neighbor)` pairs, at most `k` of them.
    entries: Vec<(u64, VertexId)>,
}

impl BottomKSketch {
    /// Creates an empty sketch (capacity is enforced by the store's `k`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a hashed neighbor, keeping the list sorted, deduplicated,
    /// and capped at `k`. O(log k) search + O(k) shift worst case — still
    /// constant per edge for fixed `k`.
    pub fn insert(&mut self, hash: u64, neighbor: VertexId, k: usize) {
        match self.entries.binary_search_by_key(&hash, |&(h, _)| h) {
            Ok(_) => {} // duplicate neighbor (same hash, injective function)
            Err(pos) => {
                if pos < k {
                    self.entries.insert(pos, (hash, neighbor));
                    self.entries.truncate(k);
                }
            }
        }
    }

    /// Current number of stored hashes (≤ k).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the sketch has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The ascending `(hash, neighbor)` entries.
    #[must_use]
    pub fn entries(&self) -> &[(u64, VertexId)] {
        &self.entries
    }

    /// Merges another sketch into this one (neighborhood union), capped
    /// at `k`.
    pub fn merge(&mut self, other: &BottomKSketch, k: usize) {
        for &(h, v) in &other.entries {
            self.insert(h, v, k);
        }
    }

    /// Estimates Jaccard against another sketch with the coordinated
    /// bottom-k estimator, also returning the matched neighbor samples
    /// (members of the intersection).
    #[must_use]
    pub fn jaccard_with_samples(&self, other: &BottomKSketch, k: usize) -> (f64, Vec<VertexId>) {
        if self.is_empty() && other.is_empty() {
            return (0.0, Vec::new());
        }
        // B_k of the union: merge the two ascending lists, take first k
        // distinct hashes.
        let mut union: Vec<u64> = Vec::with_capacity(k);
        let (mut i, mut j) = (0, 0);
        while union.len() < k && (i < self.entries.len() || j < other.entries.len()) {
            let next = match (self.entries.get(i), other.entries.get(j)) {
                (Some(&(a, _)), Some(&(b, _))) => {
                    if a <= b {
                        i += 1;
                        if a == b {
                            j += 1;
                        }
                        a
                    } else {
                        j += 1;
                        b
                    }
                }
                (Some(&(a, _)), None) => {
                    i += 1;
                    a
                }
                (None, Some(&(b, _))) => {
                    j += 1;
                    b
                }
                (None, None) => break,
            };
            union.push(next);
        }
        // Count union members present in BOTH sketches; collect samples.
        let mut matches = 0usize;
        let mut samples = Vec::new();
        for &h in &union {
            let in_self = self.entries.binary_search_by_key(&h, |&(x, _)| x);
            let in_other = other.entries.binary_search_by_key(&h, |&(x, _)| x);
            if let (Ok(a), Ok(_)) = (in_self, in_other) {
                matches += 1;
                samples.push(self.entries[a].1);
            }
        }
        (matches as f64 / union.len() as f64, samples)
    }
}

/// A sketch store over bottom-k sketches, mirroring
/// [`SketchStore`](streamlink_core::SketchStore)'s API.
#[derive(Debug, Clone)]
pub struct BottomKStore {
    k: usize,
    hasher: SeededHash,
    sketches: HashMap<VertexId, BottomKSketch>,
    degrees: HashMap<VertexId, u64>,
    edges_processed: u64,
}

impl BottomKStore {
    /// A store keeping the `k` smallest neighbor hashes per vertex.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "bottom-k needs k >= 1");
        Self {
            k,
            hasher: SeededHash::new(seed),
            sketches: HashMap::new(),
            degrees: HashMap::new(),
            edges_processed: 0,
        }
    }

    /// Processes one stream edge (self-loops ignored).
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges_processed += 1;
        if u == v {
            return;
        }
        let (hu, hv) = (self.hasher.hash(u.0), self.hasher.hash(v.0));
        self.sketches.entry(u).or_default().insert(hv, v, self.k);
        self.sketches.entry(v).or_default().insert(hu, u, self.k);
        *self.degrees.entry(u).or_insert(0) += 1;
        *self.degrees.entry(v).or_insert(0) += 1;
    }

    /// Processes a whole stream.
    pub fn insert_stream(&mut self, edges: impl IntoIterator<Item = Edge>) {
        for e in edges {
            self.insert_edge(e.src, e.dst);
        }
    }

    /// Estimated Jaccard coefficient, `None` if either vertex unseen.
    #[must_use]
    pub fn jaccard(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let (su, sv) = (self.sketches.get(&u)?, self.sketches.get(&v)?);
        Some(su.jaccard_with_samples(sv, self.k).0)
    }

    /// Estimated common-neighbor count.
    #[must_use]
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let j = self.jaccard(u, v)?;
        Some(estimators::cn_from_jaccard(
            j,
            self.degree(u),
            self.degree(v),
        ))
    }

    /// Estimated Adamic–Adar index via the matched bottom-k samples.
    #[must_use]
    pub fn adamic_adar(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let (su, sv) = (self.sketches.get(&u)?, self.sketches.get(&v)?);
        let (j, samples) = su.jaccard_with_samples(sv, self.k);
        let cn = estimators::cn_from_jaccard(j, self.degree(u), self.degree(v));
        let degrees: Vec<u64> = samples.iter().map(|&w| self.degree(w)).collect();
        Some(estimators::aa_from_samples(cn, &degrees))
    }

    /// Degree counter (0 for unseen vertices).
    #[must_use]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.degrees.get(&v).copied().unwrap_or(0)
    }

    /// Distinct vertices observed.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.sketches.len()
    }

    /// Edges processed (including self-loops).
    #[must_use]
    pub fn edges_processed(&self) -> u64 {
        self.edges_processed
    }

    /// Approximate resident bytes, comparable with the other stores.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let entries: usize = self
            .sketches
            .values()
            .map(|s| s.entries.capacity() * size_of::<(u64, VertexId)>())
            .sum();
        let maps = self.sketches.capacity()
            * (size_of::<(VertexId, BottomKSketch)>() + size_of::<u64>())
            + self.degrees.capacity() * (size_of::<(VertexId, u64)>() + size_of::<u64>());
        entries + maps + size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstream::{AdjacencyGraph, BarabasiAlbert, EdgeStream};

    #[test]
    fn insert_keeps_sorted_capped_dedup() {
        let mut s = BottomKSketch::new();
        for (h, v) in [(50u64, 1u64), (10, 2), (30, 3), (10, 2), (20, 4), (40, 5)] {
            s.insert(h, VertexId(v), 4);
        }
        let hashes: Vec<u64> = s.entries().iter().map(|&(h, _)| h).collect();
        assert_eq!(hashes, vec![10, 20, 30, 40]);
    }

    #[test]
    fn full_overlap_estimates_one() {
        let mut s = BottomKStore::new(32, 1);
        for w in 100..130u64 {
            s.insert_edge(VertexId(0), VertexId(w));
            s.insert_edge(VertexId(1), VertexId(w));
        }
        assert_eq!(s.jaccard(VertexId(0), VertexId(1)), Some(1.0));
    }

    #[test]
    fn disjoint_estimates_zero() {
        let mut s = BottomKStore::new(32, 2);
        for w in 0..30u64 {
            s.insert_edge(VertexId(0), VertexId(100 + w));
            s.insert_edge(VertexId(1), VertexId(500 + w));
        }
        assert_eq!(s.jaccard(VertexId(0), VertexId(1)), Some(0.0));
        assert_eq!(s.adamic_adar(VertexId(0), VertexId(1)), Some(0.0));
    }

    #[test]
    fn unseen_gives_none() {
        let s = BottomKStore::new(8, 0);
        assert_eq!(s.jaccard(VertexId(1), VertexId(2)), None);
    }

    #[test]
    fn small_neighborhoods_are_exact() {
        // With |N(u) ∪ N(v)| <= k the sketch holds everything: estimates
        // are exact, a key bottom-k property the k-function variant lacks.
        let mut s = BottomKStore::new(64, 3);
        for w in 0..20u64 {
            s.insert_edge(VertexId(0), VertexId(100 + w)); // N(0) = 20
        }
        for w in 10..20u64 {
            s.insert_edge(VertexId(1), VertexId(100 + w)); // N(1) = 10, CN = 10
        }
        let j = s.jaccard(VertexId(0), VertexId(1)).unwrap();
        assert!(
            (j - 0.5).abs() < 1e-12,
            "J should be exactly 10/20, got {j}"
        );
        let cn = s.common_neighbors(VertexId(0), VertexId(1)).unwrap();
        assert!((cn - 10.0).abs() < 1e-9, "cn {cn}");
    }

    #[test]
    fn estimates_track_exact_on_real_stream() {
        let stream = BarabasiAlbert::new(300, 4, 5).materialize();
        let g = AdjacencyGraph::from_edges(stream.edges());
        let mut s = BottomKStore::new(256, 7);
        s.insert_stream(stream.edges());
        let mut total_err = 0.0;
        let mut n = 0;
        for u in 0..40u64 {
            for v in (u + 1)..40u64 {
                let est = s.jaccard(VertexId(u), VertexId(v)).unwrap();
                total_err += (est - g.jaccard(VertexId(u), VertexId(v))).abs();
                n += 1;
            }
        }
        let mae = total_err / f64::from(n);
        assert!(mae < 0.05, "bottom-k MAE too high: {mae}");
    }

    #[test]
    fn merge_equals_union() {
        let h = SeededHash::new(9);
        let mut a = BottomKSketch::new();
        let mut b = BottomKSketch::new();
        let mut u = BottomKSketch::new();
        for w in 0..30u64 {
            a.insert(h.hash(w), VertexId(w), 8);
            u.insert(h.hash(w), VertexId(w), 8);
        }
        for w in 20..50u64 {
            b.insert(h.hash(w), VertexId(w), 8);
            u.insert(h.hash(w), VertexId(w), 8);
        }
        a.merge(&b, 8);
        assert_eq!(a, u);
    }

    #[test]
    fn memory_bounded_by_k() {
        let run = |k: usize| {
            let mut s = BottomKStore::new(k, 1);
            s.insert_stream(BarabasiAlbert::new(200, 3, 2).edges());
            s.memory_bytes()
        };
        assert!(run(128) > run(8), "memory should grow with k");
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_rejected() {
        let _ = BottomKStore::new(0, 0);
    }
}
