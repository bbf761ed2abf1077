//! [`SketchStore`] — the streaming sketch index and its query API.

use std::collections::HashMap;

use graphstream::{Edge, VertexId};

use crate::config::{HasherBank, SketchConfig};
use crate::estimators;
use crate::sketch::VertexSketch;

/// One observed vertex: its degree counter beside its sketch, so an edge
/// reaches both with a single map probe per endpoint.
#[derive(Debug, Clone)]
pub(crate) struct Vertex {
    /// Edges delivered with this vertex as an endpoint.
    pub(crate) degree: u64,
    /// The MinHash sketch of the vertex's neighborhood.
    pub(crate) sketch: VertexSketch,
}

impl Vertex {
    /// A vertex with no edges yet and an empty `k`-slot sketch.
    pub(crate) fn new(k: usize) -> Self {
        Self {
            degree: 0,
            sketch: VertexSketch::new(k),
        }
    }
}

/// Component-wise resident-byte model of a [`SketchStore`].
///
/// Produced by [`SketchStore::memory_breakdown`]; the sum of the fields
/// is exactly [`SketchStore::memory_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreMemory {
    /// Slot arrays of every resident sketch (`vertices × k × 16`).
    pub sketch_slot_bytes: usize,
    /// Vertex hash-map overhead (capacity × entry + control bytes),
    /// less the degree words counted in `degree_map_bytes`.
    pub sketch_map_bytes: usize,
    /// The degree words inside the vertex map (capacity × 8).
    pub degree_map_bytes: usize,
    /// Fixed struct size.
    pub fixed_bytes: usize,
}

impl StoreMemory {
    /// Total resident bytes — the sum of every component.
    #[must_use]
    pub fn total(&self) -> usize {
        self.sketch_slot_bytes + self.sketch_map_bytes + self.degree_map_bytes + self.fixed_bytes
    }
}

/// The streaming sketch index: one map from each observed vertex to its
/// [`VertexSketch`] and degree counter.
///
/// * **Constant time per edge** — [`SketchStore::insert_edge`] looks up
///   both endpoints once and makes one pass over the `k` slots, doing
///   `2k` hash evaluations and `2k` slot folds; no allocation after the
///   two touched vertices exist.
/// * **Constant space per vertex** — `k` 16-byte slots plus one degree
///   word, independent of the vertex's degree or the stream length.
///
/// ## Stream contract
///
/// Degree counters assume each undirected edge is delivered once (the
/// simple-graph stream contract all `graphstream` generators obey).
/// Sketch slots themselves are idempotent — duplicate deliveries cannot
/// corrupt similarity estimates, only inflate degree counters (and thereby
/// CN/AA scale factors).
///
/// ## Query semantics
///
/// Queries return `None` when either endpoint has never appeared in the
/// stream — "no information" is distinct from "estimated zero".
#[derive(Debug, Clone)]
pub struct SketchStore {
    config: SketchConfig,
    bank: HasherBank,
    vertices: HashMap<VertexId, Vertex>,
    edges_processed: u64,
}

impl SketchStore {
    /// An empty store with the given configuration.
    #[must_use]
    pub fn new(config: SketchConfig) -> Self {
        Self {
            bank: config.build_bank(),
            config,
            vertices: HashMap::new(),
            edges_processed: 0,
        }
    }

    /// Processes one stream edge: one lookup per endpoint, then a single
    /// pass over the `k` hash functions that folds `h_i(v)` into `u`'s
    /// slot `i` and `h_i(u)` into `v`'s slot `i`.
    ///
    /// Self-loops are counted as processed but otherwise ignored (they
    /// carry no neighborhood signal).
    ///
    /// When the global [`crate::metrics`] registry is enabled this also
    /// bumps `core.insert.edges` and, for a sampled subset of inserts,
    /// records the per-edge latency histogram.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) {
        let m = crate::metrics::global();
        match m.on_insert() {
            None => self.insert_edge_inner(u, v),
            Some(start) => {
                self.insert_edge_inner(u, v);
                m.insert_latency.observe(start);
                // Reuse the same sampling decision (and Instant) for the
                // trace ring: the hot path never pays a second clock read
                // on unsampled edges.
                crate::trace::record_sampled("store.insert", start);
            }
        }
    }

    fn insert_edge_inner(&mut self, u: VertexId, v: VertexId) {
        self.edges_processed += 1;
        if u == v {
            return;
        }
        let [a, b] = match self.vertices.get_disjoint_mut([&u, &v]) {
            [Some(a), Some(b)] => [a, b],
            _ => {
                // First sight of an endpoint: create it, then look both up
                // again.
                let k = self.config.slots();
                self.vertices.entry(u).or_insert_with(|| Vertex::new(k));
                self.vertices.entry(v).or_insert_with(|| Vertex::new(k));
                self.vertices
                    .get_disjoint_mut([&u, &v])
                    .map(|x| x.expect("both endpoints were just inserted"))
            }
        };
        a.degree += 1;
        b.degree += 1;
        // One match outside the loop: each backend gets its own
        // monomorphic fold loop.
        let (su, sv) = (&mut a.sketch, &mut b.sketch);
        match &self.bank {
            HasherBank::Mixer(f) => {
                su.fold_edge(u, sv, v, f.iter().map(|h| (h.hash(u.0), h.hash(v.0))));
            }
            HasherBank::Tabulation(t) => {
                su.fold_edge(u, sv, v, t.iter().map(|h| (h.hash(u.0), h.hash(v.0))));
            }
        }
    }

    /// Processes a whole stream (or stream prefix).
    pub fn insert_stream(&mut self, edges: impl IntoIterator<Item = Edge>) {
        for e in edges {
            self.insert_edge(e.src, e.dst);
        }
    }

    /// Estimated Jaccard coefficient of `(u, v)`, or `None` if either
    /// vertex is unseen.
    #[must_use]
    pub fn jaccard(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let _t = crate::trace::child("estimate.jaccard");
        let (su, sv) = (self.sketch(u)?, self.sketch(v)?);
        Some(estimators::jaccard_from_matches(
            su.match_count(sv),
            self.config.slots(),
        ))
    }

    /// Estimated common-neighbor count of `(u, v)`.
    #[must_use]
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let _t = crate::trace::child("estimate.common_neighbors");
        let j = self.jaccard(u, v)?;
        Some(estimators::cn_from_jaccard(
            j,
            self.degree(u),
            self.degree(v),
        ))
    }

    /// Estimated Adamic–Adar index of `(u, v)` via match-sampling: the
    /// agreeing slots sample the neighborhood intersection; their argmins'
    /// *current* degrees estimate the mean AA weight.
    #[must_use]
    pub fn adamic_adar(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let _t = crate::trace::child("estimate.adamic_adar");
        let (su, sv) = (self.sketch(u)?, self.sketch(v)?);
        let matches = su.match_count(sv);
        let j = estimators::jaccard_from_matches(matches, self.config.slots());
        let cn = estimators::cn_from_jaccard(j, self.degree(u), self.degree(v));
        let sampled: Vec<u64> = su.matched_samples(sv).map(|w| self.degree(w)).collect();
        Some(estimators::aa_from_samples(cn, &sampled))
    }

    /// Estimated resource-allocation index `Σ_{w∈N(u)∩N(v)} 1/d(w)` via
    /// the same match-sampling device as [`Self::adamic_adar`], with
    /// weight `1/d` instead of `1/ln d`.
    #[must_use]
    pub fn resource_allocation(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let (su, sv) = (self.sketch(u)?, self.sketch(v)?);
        let matches = su.match_count(sv);
        let j = estimators::jaccard_from_matches(matches, self.config.slots());
        let cn = estimators::cn_from_jaccard(j, self.degree(u), self.degree(v));
        let samples: Vec<VertexId> = su.matched_samples(sv).collect();
        if samples.is_empty() {
            return Some(0.0);
        }
        let mean_inv_degree: f64 = samples
            .iter()
            .map(|&w| 1.0 / self.degree(w).max(2) as f64)
            .sum::<f64>()
            / samples.len() as f64;
        Some(cn * mean_inv_degree)
    }

    /// The preferential-attachment score `d(u) · d(v)` — exact, straight
    /// from the degree counters.
    #[must_use]
    pub fn preferential_attachment(&self, u: VertexId, v: VertexId) -> Option<f64> {
        if !self.contains(u) || !self.contains(v) {
            return None;
        }
        Some(self.degree(u) as f64 * self.degree(v) as f64)
    }

    /// Estimated cosine (Salton) index `CN / √(d(u)·d(v))`.
    #[must_use]
    pub fn cosine(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let cn = self.common_neighbors(u, v)?;
        let (du, dv) = (self.degree(u), self.degree(v));
        if du == 0 || dv == 0 {
            return Some(0.0);
        }
        Some(cn / ((du * dv) as f64).sqrt())
    }

    /// Estimated overlap coefficient `CN / min(d(u), d(v))`.
    #[must_use]
    pub fn overlap(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let cn = self.common_neighbors(u, v)?;
        let m = self.degree(u).min(self.degree(v));
        if m == 0 {
            return Some(0.0);
        }
        Some((cn / m as f64).clamp(0.0, 1.0))
    }

    /// The degree counter of `v` (0 for unseen vertices).
    #[inline]
    #[must_use]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.vertices.get(&v).map_or(0, |x| x.degree)
    }

    /// Whether `v` has appeared in the stream.
    #[must_use]
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.contains_key(&v)
    }

    /// The sketch of `v`, if seen.
    #[must_use]
    pub fn sketch(&self, v: VertexId) -> Option<&VertexSketch> {
        self.vertices.get(&v).map(|x| &x.sketch)
    }

    /// Number of distinct vertices observed.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Total edges processed (including ignored self-loops).
    #[must_use]
    pub fn edges_processed(&self) -> u64 {
        self.edges_processed
    }

    /// Iterates over observed vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertices.keys().copied()
    }

    /// The configuration this store was built with.
    #[must_use]
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// Approximate resident bytes: sketches + degree counters + map
    /// overhead. A deterministic model (entries × slot sizes), comparable
    /// against `AdjacencyGraph::memory_bytes` in experiment E7.
    ///
    /// Always at least the sum of [`VertexSketch::memory_bytes`] over
    /// every resident sketch — the map overhead promised by the sketch
    /// doc comment is accounted for here, not there.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.memory_breakdown().total()
    }

    /// The same accounting as [`SketchStore::memory_bytes`], split into
    /// its components for the `mem.*` gauges and `/memz` endpoint.
    ///
    /// Every store sketch has exactly `config.slots()` slots, so the
    /// slot-byte term is `O(1)` — safe to call from a metrics refresh
    /// cycle while holding a read lock.
    #[must_use]
    pub fn memory_breakdown(&self) -> StoreMemory {
        use std::mem::size_of;
        let slot_bytes_per_sketch = self.config.slots() * size_of::<crate::sketch::Slot>();
        let buckets = self.vertices.capacity();
        // Each bucket: the entry (id, degree word, slot pointer) plus a
        // control word.
        let map_bytes = buckets * (size_of::<(VertexId, Vertex)>() + size_of::<u64>());
        let degree_map_bytes = buckets * size_of::<u64>();
        StoreMemory {
            sketch_slot_bytes: self.vertices.len() * slot_bytes_per_sketch,
            sketch_map_bytes: map_bytes - degree_map_bytes,
            degree_map_bytes,
            fixed_bytes: size_of::<Self>(),
        }
    }

    /// Internal access for the merge/snapshot/concurrent modules.
    pub(crate) fn parts_mut(&mut self) -> (&mut HashMap<VertexId, Vertex>, &mut u64) {
        (&mut self.vertices, &mut self.edges_processed)
    }

    /// Internal read access for the merge/snapshot/concurrent modules.
    pub(crate) fn parts(&self) -> (&HashMap<VertexId, Vertex>, u64) {
        (&self.vertices, self.edges_processed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HasherBackend;
    use graphstream::{AdjacencyGraph, BarabasiAlbert, EdgeStream};
    use proptest::prelude::*;

    fn store(k: usize) -> SketchStore {
        SketchStore::new(SketchConfig::with_slots(k).seed(42))
    }

    /// Two vertices with identical 20-vertex neighborhoods.
    fn perfect_overlap(k: usize) -> SketchStore {
        let mut s = store(k);
        for w in 100..120u64 {
            s.insert_edge(VertexId(0), VertexId(w));
            s.insert_edge(VertexId(1), VertexId(w));
        }
        s
    }

    #[test]
    fn store_memory_covers_sketches_plus_map_overhead() {
        let mut s = store(64);
        let stream = BarabasiAlbert::new(500, 4, 99);
        for Edge { src, dst, .. } in stream.edges() {
            s.insert_edge(src, dst);
        }
        let sketch_sum: usize = s
            .vertices()
            .map(|v| s.sketch(v).unwrap().memory_bytes())
            .sum();
        let breakdown = s.memory_breakdown();
        assert_eq!(breakdown.sketch_slot_bytes, sketch_sum);
        assert_eq!(breakdown.total(), s.memory_bytes());
        assert!(
            s.memory_bytes() > sketch_sum,
            "store accounting ({}) must exceed the bare sketch sum ({sketch_sum}) \
             by the map overhead",
            s.memory_bytes()
        );
        assert!(breakdown.sketch_map_bytes > 0);
        assert!(breakdown.degree_map_bytes > 0);
        assert!(breakdown.fixed_bytes >= std::mem::size_of::<SketchStore>());
    }

    /// The insert path as two separate steps per endpoint — hash it
    /// into a buffer, fold the other endpoint's sketch from that buffer —
    /// with degrees counted in a map of their own: the reference the
    /// fused single-map pass must match bit for bit.
    struct Reference {
        k: usize,
        bank: HasherBank,
        sketches: HashMap<VertexId, VertexSketch>,
        degrees: HashMap<VertexId, u64>,
        edges_processed: u64,
    }

    impl Reference {
        fn new(config: SketchConfig) -> Self {
            Self {
                k: config.slots(),
                bank: config.build_bank(),
                sketches: HashMap::new(),
                degrees: HashMap::new(),
                edges_processed: 0,
            }
        }

        fn insert_edge(&mut self, u: VertexId, v: VertexId) {
            self.edges_processed += 1;
            if u == v {
                return;
            }
            let (mut hu, mut hv) = (vec![0; self.k], vec![0; self.k]);
            self.bank.hash_all_into(u.0, &mut hu);
            self.bank.hash_all_into(v.0, &mut hv);
            let k = self.k;
            self.sketches
                .entry(u)
                .or_insert_with(|| VertexSketch::new(k))
                .fold_neighbor(&hv, v);
            self.sketches
                .entry(v)
                .or_insert_with(|| VertexSketch::new(k))
                .fold_neighbor(&hu, u);
            *self.degrees.entry(u).or_insert(0) += 1;
            *self.degrees.entry(v).or_insert(0) += 1;
        }
    }

    proptest! {
        #[test]
        fn prop_fused_insert_matches_reference(
            k in 1usize..70,
            seed in any::<u64>(),
            tabulation in any::<bool>(),
            // 24 ids: duplicate edges and self-loops are frequent.
            edges in proptest::collection::vec((0u64..24, 0u64..24), 0..300),
        ) {
            let backend = if tabulation {
                HasherBackend::Tabulation
            } else {
                HasherBackend::Mixer
            };
            let config = SketchConfig::with_slots(k).seed(seed).backend(backend);
            let mut store = SketchStore::new(config);
            let mut reference = Reference::new(config);
            for &(u, v) in &edges {
                store.insert_edge(VertexId(u), VertexId(v));
                reference.insert_edge(VertexId(u), VertexId(v));
            }
            prop_assert_eq!(store.edges_processed(), reference.edges_processed);
            prop_assert_eq!(store.vertex_count(), reference.sketches.len());
            for (v, sketch) in &reference.sketches {
                // Slot equality covers both the minimum and its argmin.
                prop_assert_eq!(store.sketch(*v).map(VertexSketch::slots), Some(sketch.slots()));
                prop_assert_eq!(store.degree(*v), reference.degrees[v]);
            }
            prop_assert_eq!(store.memory_breakdown().total(), store.memory_bytes());
        }
    }

    #[test]
    fn unseen_vertices_give_none() {
        let s = perfect_overlap(32);
        assert_eq!(s.jaccard(VertexId(0), VertexId(999)), None);
        assert_eq!(s.common_neighbors(VertexId(999), VertexId(0)), None);
        assert_eq!(s.adamic_adar(VertexId(998), VertexId(999)), None);
    }

    #[test]
    fn identical_neighborhoods_estimate_one() {
        let s = perfect_overlap(64);
        assert_eq!(s.jaccard(VertexId(0), VertexId(1)), Some(1.0));
        // CN = J(du+dv)/(1+J) = 1·40/2 = 20 — exact here.
        assert_eq!(s.common_neighbors(VertexId(0), VertexId(1)), Some(20.0));
    }

    #[test]
    fn disjoint_neighborhoods_estimate_zero() {
        let mut s = store(64);
        for w in 0..20u64 {
            s.insert_edge(VertexId(500), VertexId(1000 + w));
            s.insert_edge(VertexId(501), VertexId(2000 + w));
        }
        assert_eq!(s.jaccard(VertexId(500), VertexId(501)), Some(0.0));
        assert_eq!(s.common_neighbors(VertexId(500), VertexId(501)), Some(0.0));
        assert_eq!(s.adamic_adar(VertexId(500), VertexId(501)), Some(0.0));
    }

    #[test]
    fn estimates_track_exact_on_half_overlap() {
        // N(0) = 100..140, N(1) = 120..160 → J = 20/60 = 1/3, CN = 20.
        let mut s = store(1024);
        for w in 100..140u64 {
            s.insert_edge(VertexId(0), VertexId(w));
        }
        for w in 120..160u64 {
            s.insert_edge(VertexId(1), VertexId(w));
        }
        let j = s.jaccard(VertexId(0), VertexId(1)).unwrap();
        assert!((j - 1.0 / 3.0).abs() < 0.06, "jaccard {j}");
        let cn = s.common_neighbors(VertexId(0), VertexId(1)).unwrap();
        assert!((cn - 20.0).abs() < 4.0, "cn {cn}");
    }

    #[test]
    fn adamic_adar_tracks_exact() {
        // Star-of-triangles: u and v share 10 common neighbors w, each w
        // also gets 6 extra private neighbors → d(w) = 8.
        let mut s = store(1024);
        let (u, v) = (VertexId(1), VertexId(2));
        for i in 0..10u64 {
            let w = VertexId(10 + i);
            s.insert_edge(u, w);
            s.insert_edge(v, w);
            for p in 0..6u64 {
                s.insert_edge(w, VertexId(1000 + i * 10 + p));
            }
        }
        let exact = 10.0 / 8f64.ln();
        let aa = s.adamic_adar(u, v).unwrap();
        assert!((aa - exact).abs() < 0.15 * exact, "aa {aa}, exact {exact}");
    }

    #[test]
    fn resource_allocation_tracks_exact() {
        // Same topology as the AA test: 10 common neighbors of degree 8.
        let mut s = store(1024);
        let (u, v) = (VertexId(1), VertexId(2));
        for i in 0..10u64 {
            let w = VertexId(10 + i);
            s.insert_edge(u, w);
            s.insert_edge(v, w);
            for p in 0..6u64 {
                s.insert_edge(w, VertexId(1000 + i * 10 + p));
            }
        }
        let exact = 10.0 / 8.0;
        let ra = s.resource_allocation(u, v).unwrap();
        assert!((ra - exact).abs() < 0.2 * exact, "ra {ra}, exact {exact}");
    }

    #[test]
    fn cosine_and_overlap_track_exact() {
        // N(0) = 100..140, N(1) = 120..160: CN = 20, d = 40 each →
        // cosine = 20/40 = 0.5, overlap = 20/40 = 0.5.
        let mut s = store(1024);
        for w in 100..140u64 {
            s.insert_edge(VertexId(0), VertexId(w));
        }
        for w in 120..160u64 {
            s.insert_edge(VertexId(1), VertexId(w));
        }
        let cos = s.cosine(VertexId(0), VertexId(1)).unwrap();
        assert!((cos - 0.5).abs() < 0.08, "cosine {cos}");
        let ov = s.overlap(VertexId(0), VertexId(1)).unwrap();
        assert!((ov - 0.5).abs() < 0.08, "overlap {ov}");
        assert_eq!(s.cosine(VertexId(0), VertexId(9999)), None);
    }

    #[test]
    fn preferential_attachment_is_exact() {
        let mut s = store(8);
        for w in 10..13u64 {
            s.insert_edge(VertexId(0), VertexId(w)); // d(0) = 3
        }
        for w in 20..25u64 {
            s.insert_edge(VertexId(1), VertexId(w)); // d(1) = 5
        }
        assert_eq!(
            s.preferential_attachment(VertexId(0), VertexId(1)),
            Some(15.0)
        );
        assert_eq!(s.preferential_attachment(VertexId(0), VertexId(999)), None);
    }

    #[test]
    fn self_loops_ignored_but_counted() {
        let mut s = store(16);
        s.insert_edge(VertexId(3), VertexId(3));
        assert_eq!(s.vertex_count(), 0);
        assert_eq!(s.degree(VertexId(3)), 0);
        assert_eq!(s.edges_processed(), 1);
    }

    #[test]
    fn sketch_idempotent_under_duplicates() {
        let mut s = store(32);
        s.insert_edge(VertexId(0), VertexId(1));
        let snap = s.sketch(VertexId(0)).unwrap().clone();
        s.insert_edge(VertexId(0), VertexId(1));
        assert_eq!(
            s.sketch(VertexId(0)).unwrap(),
            &snap,
            "sketch must be idempotent"
        );
        // Degree counters, by contract, do count duplicates.
        assert_eq!(s.degree(VertexId(0)), 2);
    }

    #[test]
    fn degrees_match_exact_graph_on_simple_stream() {
        let stream = BarabasiAlbert::new(300, 3, 7);
        let mut s = store(16);
        s.insert_stream(stream.edges());
        let g = AdjacencyGraph::from_edges(stream.edges());
        for v in g.vertices() {
            assert_eq!(s.degree(v), g.degree(v) as u64, "degree mismatch at {v}");
        }
    }

    #[test]
    fn error_shrinks_with_k() {
        // Average |Ĵ − J| over pairs must drop when k grows 16 → 256.
        let stream = BarabasiAlbert::new(400, 4, 3).materialize();
        let g = AdjacencyGraph::from_edges(stream.edges());
        let err_at = |k: usize| {
            let mut s = SketchStore::new(SketchConfig::with_slots(k).seed(5));
            s.insert_stream(stream.edges());
            let mut total = 0.0;
            let mut count = 0;
            for u in 0..50u64 {
                for v in (u + 1)..50u64 {
                    let (u, v) = (VertexId(u), VertexId(v));
                    let est = s.jaccard(u, v).unwrap();
                    total += (est - g.jaccard(u, v)).abs();
                    count += 1;
                }
            }
            total / f64::from(count)
        };
        let (coarse, fine) = (err_at(16), err_at(256));
        assert!(
            fine < coarse * 0.6,
            "error did not shrink with k: k=16 → {coarse:.4}, k=256 → {fine:.4}"
        );
    }

    #[test]
    fn jaccard_estimate_is_symmetric() {
        let stream = BarabasiAlbert::new(200, 3, 1);
        let mut s = store(64);
        s.insert_stream(stream.edges());
        for u in 0..20u64 {
            for v in 0..20u64 {
                assert_eq!(
                    s.jaccard(VertexId(u), VertexId(v)),
                    s.jaccard(VertexId(v), VertexId(u))
                );
            }
        }
    }

    #[test]
    fn memory_per_vertex_is_constant_in_degree() {
        // Grow one hub's degree 10×; its footprint must not move.
        let mut s = store(64);
        for w in 0..10u64 {
            s.insert_edge(VertexId(0), VertexId(w + 1));
        }
        let sketch_bytes = s.sketch(VertexId(0)).unwrap().memory_bytes();
        for w in 10..100u64 {
            s.insert_edge(VertexId(0), VertexId(w + 1));
        }
        assert_eq!(s.sketch(VertexId(0)).unwrap().memory_bytes(), sketch_bytes);
    }

    #[test]
    fn determinism_across_stores() {
        let stream = BarabasiAlbert::new(200, 2, 9).materialize();
        let mut a = store(32);
        let mut b = store(32);
        a.insert_stream(stream.edges());
        b.insert_stream(stream.edges());
        for u in 0..30u64 {
            for v in 0..30u64 {
                assert_eq!(s_j(&a, u, v), s_j(&b, u, v));
            }
        }
        fn s_j(s: &SketchStore, u: u64, v: u64) -> Option<f64> {
            s.jaccard(VertexId(u), VertexId(v))
        }
    }

    #[test]
    fn tabulation_backend_also_estimates() {
        let mut s = SketchStore::new(
            SketchConfig::with_slots(256).backend(crate::HasherBackend::Tabulation),
        );
        for w in 100..120u64 {
            s.insert_edge(VertexId(0), VertexId(w));
            s.insert_edge(VertexId(1), VertexId(w));
        }
        assert_eq!(s.jaccard(VertexId(0), VertexId(1)), Some(1.0));
    }
}
