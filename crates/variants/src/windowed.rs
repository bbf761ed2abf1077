//! Sliding-window sketches: link prediction over *recent* structure.
//!
//! Long-running streams drift — a collaboration from a decade ago should
//! not dominate today's predictions. The abstract's "dynamically
//! evolving" setting naturally extends to sliding windows, and sketch
//! mergeability makes an epoch-based window cheap:
//!
//! * the window of the last `W` edges is partitioned into `E` epochs of
//!   `W/E` edges, each with its own [`SketchStore`];
//! * inserts go to the newest epoch only (same O(k) hot path);
//! * when an epoch fills, the oldest one is dropped — forgetting its
//!   edges wholesale;
//! * queries fold the ≤ `E` per-epoch sketches of each endpoint with the
//!   (exact) merge operator, so a query sees precisely the union of the
//!   window's edges.
//!
//! Because epoch merge is exact, a windowed query returns *the same
//! answer* a fresh store fed only the window's edges would return — and
//! since the store dedups re-delivered edges across live epochs (see
//! [`WindowedStore::insert_edge`]), that holds for degrees too, even
//! under at-least-once delivery. The tests verify that equivalence.

use std::collections::{HashSet, VecDeque};

use graphstream::{Edge, VertexId};

use hashkit::HashFamily;
use streamlink_core::estimators;
use streamlink_core::sketch::VertexSketch;
use streamlink_core::SketchConfig;
use streamlink_core::SketchStore;

/// A sliding-window sketch store over the last `epochs × epoch_edges`
/// stream edges.
///
/// ```
/// use graphstream::VertexId;
/// use streamlink_core::SketchConfig;
/// use streamlink_variants::WindowedStore;
///
/// // Window of 2 epochs x 4 edges = the last ~8 edges.
/// let mut w = WindowedStore::new(SketchConfig::with_slots(16), 4, 2);
/// w.insert_edge(VertexId(1), VertexId(2));
/// assert!(w.jaccard(VertexId(1), VertexId(2)).is_some());
/// // Flood the window with unrelated edges; the old pair ages out.
/// for i in 0..8u64 {
///     w.insert_edge(VertexId(100 + i), VertexId(200 + i));
/// }
/// assert_eq!(w.jaccard(VertexId(1), VertexId(2)), None);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedStore {
    config: SketchConfig,
    /// The config's hash functions, which recover each matched slot's
    /// argmin.
    bank: HashFamily,
    epoch_edges: u64,
    max_epochs: usize,
    /// Oldest epoch first, newest last; never empty.
    epochs: VecDeque<Epoch>,
    edges_processed: u64,
}

/// One window epoch: its sketch store plus the set of edges it applied,
/// which gates cross-epoch re-deliveries (see
/// [`WindowedStore::insert_edge`]).
#[derive(Debug, Clone)]
struct Epoch {
    store: SketchStore,
    /// Normalized `(min, max)` endpoint pairs of every edge this epoch
    /// applied. One 16-byte key per distinct window edge — bounded by
    /// the window length, independent of the stream length.
    seen: HashSet<(u64, u64)>,
}

impl Epoch {
    fn new(config: SketchConfig) -> Self {
        Self {
            store: SketchStore::new(config),
            seen: HashSet::new(),
        }
    }

    fn memory_bytes(&self) -> usize {
        self.store.memory_bytes() + self.seen.capacity() * std::mem::size_of::<(u64, u64)>()
    }
}

/// The undirected dedup key of an edge.
fn edge_key(u: VertexId, v: VertexId) -> (u64, u64) {
    if u.0 <= v.0 {
        (u.0, v.0)
    } else {
        (v.0, u.0)
    }
}

impl WindowedStore {
    /// A window of `epochs` epochs of `epoch_edges` edges each.
    ///
    /// The effective window length slides between
    /// `(epochs − 1) × epoch_edges` and `epochs × epoch_edges` edges —
    /// the standard epoch-granularity approximation.
    ///
    /// # Panics
    /// Panics if `epoch_edges == 0` or `epochs == 0`.
    #[must_use]
    pub fn new(config: SketchConfig, epoch_edges: u64, epochs: usize) -> Self {
        assert!(epoch_edges > 0, "epochs must hold at least one edge");
        assert!(epochs > 0, "need at least one epoch");
        let mut queue = VecDeque::with_capacity(epochs + 1);
        queue.push_back(Epoch::new(config));
        Self {
            bank: config.build_bank(),
            config,
            epoch_edges,
            max_epochs: epochs,
            epochs: queue,
            edges_processed: 0,
        }
    }

    /// Processes one stream edge.
    ///
    /// ## Degree semantics under re-delivery
    ///
    /// A vertex's window degree is summed across live epochs, so it
    /// would over-count if the same edge landed in several epochs. To
    /// keep degrees *exact* under at-least-once delivery, each epoch
    /// remembers the (normalized) edges it applied, and an insert whose
    /// edge is already present in **any** live epoch is a no-op — the
    /// re-delivery is anchored at the edge's first (most recent live)
    /// delivery rather than refreshing it. Once the edge ages out with
    /// its epoch, a new delivery is a genuinely new window edge again.
    ///
    /// Two consequences, both deliberate:
    ///
    /// * the window spans the last `W` *distinct* edges — duplicate
    ///   deliveries do not advance epoch rotation;
    /// * the seen-sets cost one 16-byte key per live window edge —
    ///   `O(W)` total, independent of the stream length (the per-vertex
    ///   sketch space contract is untouched).
    ///
    /// The dedup probe is `O(epochs)` hash lookups per insert, in front
    /// of the `O(k)` fold hot path.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges_processed += 1;
        let key = edge_key(u, v);
        if self.epochs.iter().any(|e| e.seen.contains(&key)) {
            return; // re-delivery of a live edge: exact no-op
        }
        let newest = self.epochs.back_mut().expect("queue never empty");
        newest.seen.insert(key);
        newest.store.insert_edge(u, v);
        if newest.store.edges_processed() >= self.epoch_edges {
            self.epochs.push_back(Epoch::new(self.config));
            while self.epochs.len() > self.max_epochs {
                self.epochs.pop_front();
            }
        }
    }

    /// Processes a whole stream (or prefix).
    pub fn insert_stream(&mut self, edges: impl IntoIterator<Item = Edge>) {
        for e in edges {
            self.insert_edge(e.src, e.dst);
        }
    }

    /// The merged window sketch of `v`, or `None` if `v` is absent from
    /// every live epoch.
    #[must_use]
    pub fn window_sketch(&self, v: VertexId) -> Option<VertexSketch> {
        let mut merged: Option<VertexSketch> = None;
        for epoch in &self.epochs {
            if let Some(s) = epoch.store.sketch(v) {
                match &mut merged {
                    Some(m) => m.merge(s),
                    None => merged = Some(s.clone()),
                }
            }
        }
        merged
    }

    /// The window degree of `v` (sum across epochs; 0 if absent).
    ///
    /// Exact over the window's distinct edges, even under at-least-once
    /// delivery — cross-epoch re-deliveries are no-ops (see
    /// [`WindowedStore::insert_edge`]).
    #[must_use]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.epochs.iter().map(|e| e.store.degree(v)).sum()
    }

    /// Estimated Jaccard over the window.
    #[must_use]
    pub fn jaccard(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let (su, sv) = (self.window_sketch(u)?, self.window_sketch(v)?);
        Some(estimators::jaccard_from_matches(
            su.match_count(&sv),
            self.config.slots(),
        ))
    }

    /// Estimated common-neighbor count over the window.
    #[must_use]
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let j = self.jaccard(u, v)?;
        Some(estimators::cn_from_jaccard(
            j,
            self.degree(u),
            self.degree(v),
        ))
    }

    /// Estimated Adamic–Adar over the window (match-sampling, window
    /// degrees).
    #[must_use]
    pub fn adamic_adar(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let (su, sv) = (self.window_sketch(u)?, self.window_sketch(v)?);
        let matches = su.match_count(&sv);
        let j = estimators::jaccard_from_matches(matches, self.config.slots());
        let cn = estimators::cn_from_jaccard(j, self.degree(u), self.degree(v));
        let sampled: Vec<u64> = su
            .matched_samples(&sv, &self.bank)
            .map(|w| self.degree(w))
            .collect();
        Some(estimators::aa_from_samples(cn, &sampled))
    }

    /// Number of live epochs.
    #[must_use]
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    /// Edges processed over the store's lifetime (not just the window).
    #[must_use]
    pub fn edges_processed(&self) -> u64 {
        self.edges_processed
    }

    /// Approximate resident bytes (sum of live epochs, sketch stores
    /// plus the per-epoch dedup sets).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.epochs.iter().map(Epoch::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstream::{BarabasiAlbert, EdgeStream};

    fn cfg() -> SketchConfig {
        SketchConfig::with_slots(64).seed(5)
    }

    #[test]
    fn window_matches_fresh_store_over_window_edges() {
        // Feed 5 epochs of 100 edges into a 3-epoch window; compare
        // against a plain store fed only the last 3 epochs' edges.
        let edges: Vec<Edge> = BarabasiAlbert::new(300, 2, 7).edges().take(500).collect();
        let mut windowed = WindowedStore::new(cfg(), 100, 3);
        windowed.insert_stream(edges.iter().copied());

        // Live epochs hold edges [300..500) plus the fresh empty epoch.
        let window_edges = &edges[300..500];
        let mut fresh = SketchStore::new(cfg());
        fresh.insert_stream(window_edges.iter().copied());

        for v in fresh.vertices() {
            assert_eq!(
                windowed.window_sketch(v).as_ref(),
                fresh.sketch(v),
                "window sketch diverged at {v}"
            );
            assert_eq!(
                windowed.degree(v),
                fresh.degree(v),
                "degree diverged at {v}"
            );
        }
        // And therefore identical query answers.
        let mut verts: Vec<VertexId> = fresh.vertices().collect();
        verts.sort_unstable();
        for w in verts.windows(2).take(50) {
            assert_eq!(windowed.jaccard(w[0], w[1]), fresh.jaccard(w[0], w[1]));
        }
    }

    #[test]
    fn old_edges_are_forgotten() {
        let mut windowed = WindowedStore::new(cfg(), 10, 2);
        // Vertex 1's only activity is in the first epoch.
        for w in 0..10u64 {
            windowed.insert_edge(VertexId(1), VertexId(100 + w));
        }
        assert!(windowed.window_sketch(VertexId(1)).is_some());
        // Flood two more epochs of unrelated traffic.
        for i in 0..20u64 {
            windowed.insert_edge(VertexId(5000 + i), VertexId(6000 + i));
        }
        assert!(
            windowed.window_sketch(VertexId(1)).is_none(),
            "vertex 1 should have aged out"
        );
        assert_eq!(windowed.degree(VertexId(1)), 0);
        assert_eq!(windowed.jaccard(VertexId(1), VertexId(5000)), None);
    }

    #[test]
    fn duplicate_edge_across_epochs_does_not_overcount_degrees() {
        // An edge re-delivered while still live in an older epoch is a
        // no-op: degrees stay exact and every estimator matches a
        // dedup'd store's answer.
        let mut windowed = WindowedStore::new(cfg(), 4, 3);
        windowed.insert_edge(VertexId(1), VertexId(2));
        // Fill the rest of epoch 0 and roll into epoch 1.
        for i in 0..3u64 {
            windowed.insert_edge(VertexId(100 + i), VertexId(200 + i));
        }
        assert_eq!(windowed.epoch_count(), 2);
        // Same edge again (both orientations), landing while epoch 0 is
        // still live: both are exact no-ops.
        windowed.insert_edge(VertexId(1), VertexId(2));
        windowed.insert_edge(VertexId(2), VertexId(1));

        // Exact window degrees: the edge counts once.
        assert_eq!(windowed.degree(VertexId(1)), 1);
        assert_eq!(windowed.degree(VertexId(2)), 1);
        // The lifetime delivery counter still counts every delivery.
        assert_eq!(windowed.edges_processed(), 6);

        // Every estimator now matches a store that saw the edge once.
        let mut dedup = SketchStore::new(cfg());
        dedup.insert_edge(VertexId(1), VertexId(2));
        assert_eq!(
            windowed.window_sketch(VertexId(1)).as_ref(),
            dedup.sketch(VertexId(1))
        );
        assert_eq!(
            windowed.jaccard(VertexId(1), VertexId(2)),
            dedup.jaccard(VertexId(1), VertexId(2))
        );
        assert_eq!(
            windowed.common_neighbors(VertexId(1), VertexId(2)),
            dedup.common_neighbors(VertexId(1), VertexId(2))
        );
        assert_eq!(
            windowed.adamic_adar(VertexId(1), VertexId(2)),
            dedup.adamic_adar(VertexId(1), VertexId(2))
        );
    }

    #[test]
    fn forgotten_edge_recounts_after_aging_out() {
        // Once an edge's epoch is evicted, a new delivery is a genuine
        // window edge again — dedup gates only *live* epochs.
        let mut windowed = WindowedStore::new(cfg(), 4, 2);
        windowed.insert_edge(VertexId(1), VertexId(2));
        // Two full epochs of unrelated traffic evict epoch 0.
        for i in 0..8u64 {
            windowed.insert_edge(VertexId(100 + i), VertexId(200 + i));
        }
        assert_eq!(windowed.degree(VertexId(1)), 0);
        windowed.insert_edge(VertexId(1), VertexId(2));
        assert_eq!(windowed.degree(VertexId(1)), 1);
        assert_eq!(windowed.degree(VertexId(2)), 1);
    }

    #[test]
    fn epoch_count_is_bounded() {
        let mut windowed = WindowedStore::new(cfg(), 5, 4);
        for i in 0..200u64 {
            windowed.insert_edge(VertexId(i), VertexId(i + 1));
        }
        assert!(windowed.epoch_count() <= 4);
        assert_eq!(windowed.edges_processed(), 200);
    }

    #[test]
    fn memory_is_window_bounded_not_stream_bounded() {
        // A long stream over a *fixed* recent vertex set: memory must
        // plateau once the window is full.
        let mut windowed = WindowedStore::new(cfg(), 50, 2);
        let mut peak_after_warmup = 0usize;
        for i in 0..2_000u64 {
            // Rotating vertex ids confined to a window-sized range.
            let base = (i / 50) * 10;
            windowed.insert_edge(VertexId(base), VertexId(base + 1 + i % 9));
            if i == 200 {
                peak_after_warmup = windowed.memory_bytes();
            }
        }
        assert!(peak_after_warmup > 0);
        assert!(
            windowed.memory_bytes() < peak_after_warmup * 4,
            "window memory drifted: {} vs {}",
            windowed.memory_bytes(),
            peak_after_warmup
        );
    }

    #[test]
    fn single_epoch_window_equals_plain_store_until_rotation() {
        let mut windowed = WindowedStore::new(cfg(), 1_000, 1);
        let mut plain = SketchStore::new(cfg());
        for i in 0..500u64 {
            windowed.insert_edge(VertexId(i % 50), VertexId(50 + i % 70));
            plain.insert_edge(VertexId(i % 50), VertexId(50 + i % 70));
        }
        for v in plain.vertices() {
            assert_eq!(windowed.window_sketch(v).as_ref(), plain.sketch(v));
        }
    }

    #[test]
    fn recent_overlap_is_detected() {
        let mut windowed = WindowedStore::new(cfg(), 100, 2);
        for w in 0..30u64 {
            windowed.insert_edge(VertexId(1), VertexId(100 + w));
            windowed.insert_edge(VertexId(2), VertexId(100 + w));
        }
        let j = windowed.jaccard(VertexId(1), VertexId(2)).unwrap();
        assert!(j > 0.9, "recent twin similarity {j}");
    }

    #[test]
    #[should_panic(expected = "at least one edge")]
    fn zero_epoch_size_rejected() {
        let _ = WindowedStore::new(cfg(), 0, 2);
    }
}
