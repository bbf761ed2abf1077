//! [`SketchStore`] — the streaming sketch index and its query API.

use std::collections::HashMap;

use graphstream::{Edge, VertexId};
use hashkit::HashFamily;

use crate::codec::SnapshotSink;
use crate::config::SketchConfig;
use crate::estimators;
use crate::sketch::VertexSketch;
use crate::snapshot::VertexEntry;

/// One observed vertex: its degree counter beside its sketch, so an edge
/// reaches both with a single map probe per endpoint.
#[derive(Debug, Clone)]
struct Vertex {
    /// Edges delivered with this vertex as an endpoint.
    degree: u64,
    /// The MinHash sketch of the vertex's neighborhood.
    sketch: VertexSketch,
}

impl Vertex {
    /// A vertex with no edges yet and an empty `k`-slot sketch.
    fn new(k: usize) -> Self {
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
    /// Slot arrays of every resident sketch (`vertices × k × 8`).
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
/// * **Constant space per vertex** — `k` 8-byte slots plus one degree
///   word, independent of the vertex's degree or the stream length. A
///   slot holds only its minimum hash: the argmin is recovered by
///   inverting the slot's hash function.
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
    family: HashFamily,
    vertices: HashMap<VertexId, Vertex>,
    edges_processed: u64,
}

impl SketchStore {
    /// An empty store with the given configuration.
    #[must_use]
    pub fn new(config: SketchConfig) -> Self {
        Self {
            family: config.build_bank(),
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
                // The guard opens at the sampler's own reading: a sampled
                // edge costs one more clock read, an unsampled one none.
                let _t = crate::trace::timed_op_at("store.insert", &m.insert_latency, start);
                self.insert_edge_inner(u, v);
            }
        }
    }

    fn insert_edge_inner(&mut self, u: VertexId, v: VertexId) {
        self.edges_processed += 1;
        if u == v {
            return;
        }
        let k = self.config.slots();
        let [a, b] = match self.vertices.get_disjoint_mut([&u, &v]) {
            [Some(a), Some(b)] => [a, b],
            _ => {
                // First sight of an endpoint: create it, then look both up
                // again.
                self.vertices.entry(u).or_insert_with(|| Vertex::new(k));
                self.vertices.entry(v).or_insert_with(|| Vertex::new(k));
                self.vertices
                    .get_disjoint_mut([&u, &v])
                    .map(|x| x.expect("both endpoints were just inserted"))
            }
        };
        a.degree += 1;
        b.degree += 1;
        let family = self.family.iter();
        a.sketch
            .fold_edge(&mut b.sketch, family.map(|h| (h.hash(u.0), h.hash(v.0))));
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
    /// agreeing slots sample the neighborhood intersection; the *current*
    /// degrees of their argmin vertices estimate the mean AA weight.
    #[must_use]
    pub fn adamic_adar(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let _t = crate::trace::child("estimate.adamic_adar");
        self.sampled_estimate(u, v, estimators::aa_weight)
    }

    /// Estimated resource-allocation index `Σ_{w∈N(u)∩N(v)} 1/d(w)` via
    /// the same match-sampling device as [`Self::adamic_adar`], with
    /// weight `1/d` instead of `1/ln d`.
    #[must_use]
    pub fn resource_allocation(&self, u: VertexId, v: VertexId) -> Option<f64> {
        self.sampled_estimate(u, v, |d| 1.0 / d.max(2) as f64)
    }

    /// The CN estimate of `(u, v)` times the mean of `weight(d(w))` over
    /// the matched samples `w`, summed in slot order with no allocation;
    /// 0 with no samples (no evidence of any common neighbor).
    fn sampled_estimate(
        &self,
        u: VertexId,
        v: VertexId,
        weight: impl Fn(u64) -> f64,
    ) -> Option<f64> {
        let (su, sv) = (self.sketch(u)?, self.sketch(v)?);
        let j = estimators::jaccard_from_matches(su.match_count(sv), self.config.slots());
        let cn = estimators::cn_from_jaccard(j, self.degree(u), self.degree(v));
        let (mut sum, mut samples) = (0.0, 0usize);
        su.matched_samples(sv, &self.family).for_each(|w| {
            sum += weight(self.degree(w));
            samples += 1;
        });
        Some(if samples == 0 {
            0.0
        } else {
            cn * (sum / samples as f64)
        })
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

    /// Every vertex's persisted state, in map order (the snapshot
    /// capture's source).
    pub(crate) fn entries(&self) -> impl Iterator<Item = VertexEntry> + '_ {
        self.vertices.iter().map(|(&vertex, x)| VertexEntry {
            vertex,
            sketch: x.sketch.clone(),
            degree: x.degree,
        })
    }

    /// Joins every vertex of `src` into this store: slots by `min`, with
    /// `combine` joining the degree counters and the edge counts. The
    /// caller has checked that the two configurations agree.
    pub(crate) fn join_from(&mut self, src: &SketchStore, combine: fn(u64, u64) -> u64) {
        let k = self.config.slots();
        for (&v, s) in &src.vertices {
            let d = self.vertices.entry(v).or_insert_with(|| Vertex::new(k));
            d.degree = combine(d.degree, s.degree);
            d.sketch.merge(&s.sketch);
        }
        self.edges_processed = combine(self.edges_processed, src.edges_processed);
    }
}

/// A snapshot loads straight into the store's maps.
impl SnapshotSink for SketchStore {
    fn with_capacity(config: SketchConfig, edges_processed: u64, count: usize) -> Self {
        let mut store = Self::new(config);
        store.vertices.reserve(count);
        store.edges_processed = edges_processed;
        store
    }

    fn push(&mut self, entry: VertexEntry) {
        let VertexEntry {
            vertex,
            sketch,
            degree,
        } = entry;
        self.vertices.insert(vertex, Vertex { degree, sketch });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The store as it was with 16-byte `{hash, argmin}` slots: each
    /// endpoint hashed into a buffer and folded from it, the argmin
    /// written beside every new minimum, degrees in a map of their own.
    /// The hash-only store must match it bit for bit: estimates, the
    /// inputs `EXPLAIN` prints, v3 bytes and merges.
    #[derive(Clone)]
    struct Reference {
        config: SketchConfig,
        bank: HashFamily,
        sketches: HashMap<VertexId, Vec<(u64, VertexId)>>,
        degrees: HashMap<VertexId, u64>,
        edges_processed: u64,
    }

    impl Reference {
        fn new(config: SketchConfig) -> Self {
            Self {
                config,
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
            let k = self.config.slots();
            let (mut hu, mut hv) = (vec![0; k], vec![0; k]);
            self.bank.hash_all_into(u.0, &mut hu);
            self.bank.hash_all_into(v.0, &mut hv);
            for (x, hashes, nbr) in [(u, &hv, v), (v, &hu, u)] {
                let sketch = self.sketches.entry(x).or_insert_with(|| empty(k));
                for (slot, &h) in sketch.iter_mut().zip(hashes.iter()) {
                    if h < slot.0 {
                        *slot = (h, nbr);
                    }
                }
                *self.degrees.entry(x).or_insert(0) += 1;
            }
        }

        fn degree(&self, v: VertexId) -> u64 {
            self.degrees.get(&v).copied().unwrap_or(0)
        }

        fn match_count(&self, u: VertexId, v: VertexId) -> Option<usize> {
            let (su, sv) = (self.sketches.get(&u)?, self.sketches.get(&v)?);
            Some(su.iter().zip(sv).filter(|(a, b)| a.0 == b.0).count())
        }

        fn samples(&self, u: VertexId, v: VertexId) -> Vec<VertexId> {
            let (su, sv) = (&self.sketches[&u], &self.sketches[&v]);
            su.iter()
                .zip(sv)
                .filter(|(a, b)| a.0 != u64::MAX && a.0 == b.0)
                .map(|(a, _)| a.1)
                .collect()
        }

        fn jaccard(&self, u: VertexId, v: VertexId) -> Option<f64> {
            let matches = self.match_count(u, v)?;
            Some(estimators::jaccard_from_matches(
                matches,
                self.config.slots(),
            ))
        }

        fn common_neighbors(&self, u: VertexId, v: VertexId) -> Option<f64> {
            let j = self.jaccard(u, v)?;
            Some(estimators::cn_from_jaccard(
                j,
                self.degree(u),
                self.degree(v),
            ))
        }

        fn adamic_adar(&self, u: VertexId, v: VertexId) -> Option<f64> {
            let cn = self.common_neighbors(u, v)?;
            let sampled: Vec<u64> = self.samples(u, v).iter().map(|&w| self.degree(w)).collect();
            Some(estimators::aa_from_samples(cn, &sampled))
        }

        fn resource_allocation(&self, u: VertexId, v: VertexId) -> Option<f64> {
            let cn = self.common_neighbors(u, v)?;
            let samples = self.samples(u, v);
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

        /// `merge_into` (`combine` = add) or `merge_join` (`combine` =
        /// max) over 16-byte slots: a winning slot carries its argmin.
        fn join(&mut self, src: &Reference, combine: fn(u64, u64) -> u64) {
            let k = self.config.slots();
            for (v, s) in &src.sketches {
                let d = self.sketches.entry(*v).or_insert_with(|| empty(k));
                for (a, b) in d.iter_mut().zip(s) {
                    if b.0 < a.0 {
                        *a = *b;
                    }
                }
                let degree = self.degrees.entry(*v).or_insert(0);
                *degree = combine(*degree, src.degree(*v));
            }
            self.edges_processed = combine(self.edges_processed, src.edges_processed);
        }

        fn sorted_vertices(&self) -> Vec<VertexId> {
            let mut ids: Vec<_> = self.sketches.keys().copied().collect();
            ids.sort_unstable();
            ids
        }

        /// The v3 snapshot file the 16-byte store wrote.
        fn v3_file(&self) -> Vec<u8> {
            use crate::codec::write_varint;
            let mut body = Vec::new();
            write_varint(&mut body, self.config.slots() as u64);
            write_varint(&mut body, self.config.base_seed());
            body.push(0); // hasher backend: the one family
            write_varint(&mut body, self.edges_processed);
            let ids = self.sorted_vertices();
            write_varint(&mut body, ids.len() as u64);
            let mut prev = 0;
            for v in &ids {
                write_varint(&mut body, v.0 - prev);
                prev = v.0;
            }
            for v in &ids {
                write_varint(&mut body, self.degree(*v));
            }
            for v in &ids {
                let mut filled: Vec<(u64, usize, u64)> = self.sketches[v]
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.0 != u64::MAX)
                    .map(|(i, s)| (s.0, i, s.1 .0))
                    .collect();
                filled.sort_unstable();
                write_varint(&mut body, filled.len() as u64);
                let mut prev = 0;
                for &(hash, _, _) in &filled {
                    write_varint(&mut body, hash - prev);
                    prev = hash;
                }
                for &(_, idx, _) in &filled {
                    write_varint(&mut body, idx as u64);
                }
                for &(_, _, argmin) in &filled {
                    write_varint(&mut body, argmin);
                }
            }
            crate::codec::encode_envelope(crate::codec::MODE_STORE_SNAPSHOT, &body)
        }
    }

    fn empty(k: usize) -> Vec<(u64, VertexId)> {
        vec![(u64::MAX, VertexId(u64::MAX)); k]
    }

    /// Asserts `store` equals `reference` on everything observable.
    fn assert_matches_reference(
        store: &SketchStore,
        reference: &Reference,
        ids: u64,
    ) -> Result<(), TestCaseError> {
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        prop_assert_eq!(store.edges_processed(), reference.edges_processed);
        prop_assert_eq!(store.vertex_count(), reference.sketches.len());
        for (v, slots) in &reference.sketches {
            let hashes: Vec<u64> = slots.iter().map(|s| s.0).collect();
            let sketch = store.sketch(*v).expect("reference vertex is in the store");
            let store_hashes: Vec<u64> = sketch.slots().iter().map(|s| s.hash).collect();
            prop_assert_eq!(store_hashes, hashes);
            prop_assert_eq!(store.degree(*v), reference.degree(*v));
        }
        // One id past the stream's range: unseen pairs answer None.
        for u in (0..ids).chain([ids + 7]).map(VertexId) {
            for v in (0..ids).chain([ids + 7]).map(VertexId) {
                prop_assert_eq!(bits(store.jaccard(u, v)), bits(reference.jaccard(u, v)));
                prop_assert_eq!(
                    bits(store.common_neighbors(u, v)),
                    bits(reference.common_neighbors(u, v))
                );
                prop_assert_eq!(
                    bits(store.adamic_adar(u, v)),
                    bits(reference.adamic_adar(u, v))
                );
                prop_assert_eq!(
                    bits(store.resource_allocation(u, v)),
                    bits(reference.resource_allocation(u, v))
                );
                // What `EXPLAIN` prints besides these estimates: fills,
                // matches and degrees.
                let (su, sv) = (store.sketch(u), store.sketch(v));
                prop_assert_eq!(
                    su.zip(sv).map(|(a, b)| a.match_count(b)),
                    reference.match_count(u, v)
                );
                prop_assert_eq!(
                    su.map(VertexSketch::filled_slots),
                    reference
                        .sketches
                        .get(&u)
                        .map(|s| s.iter().filter(|x| x.0 != u64::MAX).count())
                );
            }
        }
        let snap = crate::snapshot::StoreSnapshot::capture(store);
        let file = reference.v3_file();
        prop_assert_eq!(&crate::codec::encode_store_snapshot(&snap).unwrap(), &file);
        prop_assert_eq!(&crate::codec::decode_store_snapshot(&file).unwrap(), &snap);
        prop_assert_eq!(store.memory_breakdown().total(), store.memory_bytes());
        Ok(())
    }

    proptest! {
        #[test]
        fn prop_hash_only_store_matches_16_byte_reference(
            k in 1usize..70,
            seed in any::<u64>(),
            // 24 ids: duplicate edges and self-loops are frequent.
            edges in proptest::collection::vec((0u64..24, 0u64..24), 0..300),
            split in 0usize..301,
        ) {
            let config = SketchConfig::with_slots(k).seed(seed);
            let build = |edges: &[(u64, u64)]| {
                let (mut store, mut reference) = (SketchStore::new(config), Reference::new(config));
                for &(u, v) in edges {
                    store.insert_edge(VertexId(u), VertexId(v));
                    reference.insert_edge(VertexId(u), VertexId(v));
                }
                (store, reference)
            };
            let (whole, whole_ref) = build(&edges);
            assert_matches_reference(&whole, &whole_ref, 24)?;

            // Shard union of the two halves, and the join of a prefix
            // state with the whole stream's.
            let (head, tail) = edges.split_at(split.min(edges.len()));
            let (mut union, mut union_ref) = build(head);
            let (shard, shard_ref) = build(tail);
            crate::merge::merge_into(&mut union, &shard).unwrap();
            union_ref.join(&shard_ref, |a, b| a + b);
            assert_matches_reference(&union, &union_ref, 24)?;

            let (mut joined, mut joined_ref) = build(head);
            crate::merge::merge_join(&mut joined, &whole).unwrap();
            joined_ref.join(&whole_ref, u64::max);
            assert_matches_reference(&joined, &joined_ref, 24)?;
        }
    }

    #[test]
    fn a_k64_mixer_vertex_costs_under_600_bytes() {
        let mut s = store(64);
        s.insert_stream(BarabasiAlbert::new(20_000, 4, 3).edges());
        let per_vertex = s.memory_bytes() / s.vertex_count();
        assert_eq!(
            s.memory_breakdown().sketch_slot_bytes,
            s.vertex_count() * 64 * 8
        );
        assert!(per_vertex <= 600, "{per_vertex} bytes per vertex");
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
}
