//! Scorer backends: one trait, three implementations.
//!
//! A [`Scorer`] answers "how likely is the edge `(u, v)`?" under a chosen
//! [`Measure`]. The three backends share the interface so the evaluation
//! and benchmark layers can swap them freely:
//!
//! * [`ExactScorer`] — full adjacency, exact values, O(m) memory.
//! * [`SketchScorer`] — the paper's MinHash sketches, O(n·k) memory.
//! * [`ReservoirScorer`] — a uniform edge sample of fixed capacity with
//!   Horvitz–Thompson-style rescaling; the natural equal-memory baseline.

use graphstream::{AdjacencyGraph, Edge, EdgeReservoir, VertexId};
use streamlink_core::SketchStore;

use crate::measure::Measure;

/// Scores vertex pairs under a link-prediction measure.
///
/// `None` means the backend has no information on at least one endpoint
/// (never appeared in its view of the stream).
pub trait Scorer {
    /// Scores the pair under the measure.
    fn score(&self, measure: Measure, u: VertexId, v: VertexId) -> Option<f64>;

    /// A short name for reports.
    fn name(&self) -> &'static str;

    /// The backend's resident memory (bytes), for equal-memory
    /// comparisons.
    fn memory_bytes(&self) -> usize;
}

/// Exact scoring over a full adjacency graph.
#[derive(Debug, Clone)]
pub struct ExactScorer {
    graph: AdjacencyGraph,
}

impl ExactScorer {
    /// Builds the full graph from a stream.
    #[must_use]
    pub fn from_edges(edges: impl IntoIterator<Item = Edge>) -> Self {
        Self {
            graph: AdjacencyGraph::from_edges(edges),
        }
    }

    /// Wraps an existing graph.
    #[must_use]
    pub fn new(graph: AdjacencyGraph) -> Self {
        Self { graph }
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &AdjacencyGraph {
        &self.graph
    }
}

impl Scorer for ExactScorer {
    fn score(&self, measure: Measure, u: VertexId, v: VertexId) -> Option<f64> {
        if self.graph.degree(u) == 0 || self.graph.degree(v) == 0 {
            return None;
        }
        Some(match measure {
            Measure::Jaccard => self.graph.jaccard(u, v),
            Measure::CommonNeighbors => self.graph.common_neighbors(u, v) as f64,
            Measure::AdamicAdar => self.graph.adamic_adar(u, v),
            Measure::ResourceAllocation => self.graph.resource_allocation(u, v),
            Measure::PreferentialAttachment => self.graph.preferential_attachment(u, v),
            Measure::Cosine => self.graph.cosine(u, v),
            Measure::Overlap => self.graph.overlap(u, v),
        })
    }

    fn name(&self) -> &'static str {
        "exact"
    }

    fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
    }
}

/// Sketch-based scoring (the paper's method).
#[derive(Debug, Clone)]
pub struct SketchScorer {
    store: SketchStore,
}

impl SketchScorer {
    /// Wraps a populated sketch store.
    #[must_use]
    pub fn new(store: SketchStore) -> Self {
        Self { store }
    }

    /// The underlying store.
    #[must_use]
    pub fn store(&self) -> &SketchStore {
        &self.store
    }
}

impl Scorer for SketchScorer {
    fn score(&self, measure: Measure, u: VertexId, v: VertexId) -> Option<f64> {
        match measure {
            Measure::Jaccard => self.store.jaccard(u, v),
            Measure::CommonNeighbors => self.store.common_neighbors(u, v),
            Measure::AdamicAdar => self.store.adamic_adar(u, v),
            Measure::ResourceAllocation => self.store.resource_allocation(u, v),
            Measure::PreferentialAttachment => self.store.preferential_attachment(u, v),
            Measure::Cosine => self.store.cosine(u, v),
            Measure::Overlap => self.store.overlap(u, v),
        }
    }

    fn name(&self) -> &'static str {
        "sketch"
    }

    fn memory_bytes(&self) -> usize {
        self.store.memory_bytes()
    }
}

/// Reservoir-sampling baseline: keep a uniform sample of `capacity`
/// edges, score on the sampled subgraph, rescale by the sampling rate.
///
/// With sampling rate `p`:
/// * a vertex's sampled degree has expectation `p·d`, so degrees rescale
///   by `1/p`;
/// * a common neighbor survives iff *both* incident edges survive
///   (probability `p²`), so intersection counts rescale by `1/p²`;
/// * AA/RA weights use the *rescaled* degree of the sampled common
///   neighbor.
///
/// Unseen vertices (every incident edge evicted) score `None` — part of
/// why sketches beat reservoirs at equal memory: sketches never forget a
/// vertex, reservoirs do.
#[derive(Debug, Clone)]
pub struct ReservoirScorer {
    graph: AdjacencyGraph,
    rate: f64,
    capacity: usize,
}

impl ReservoirScorer {
    /// Builds the baseline by streaming `edges` through a reservoir of
    /// `capacity` edges.
    #[must_use]
    pub fn from_edges(edges: impl IntoIterator<Item = Edge>, capacity: usize, seed: u64) -> Self {
        let mut reservoir = EdgeReservoir::new(capacity, seed);
        for e in edges {
            reservoir.offer(e);
        }
        Self::from_reservoir(&reservoir)
    }

    /// Builds from an already-filled reservoir.
    #[must_use]
    pub fn from_reservoir(reservoir: &EdgeReservoir) -> Self {
        Self {
            graph: AdjacencyGraph::from_edges(reservoir.sample().iter().copied()),
            rate: reservoir.rate(),
            capacity: reservoir.capacity(),
        }
    }

    /// The effective sampling rate `p`.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    fn degree_est(&self, v: VertexId) -> f64 {
        self.graph.degree(v) as f64 / self.rate
    }
}

impl Scorer for ReservoirScorer {
    fn score(&self, measure: Measure, u: VertexId, v: VertexId) -> Option<f64> {
        if self.graph.degree(u) == 0 || self.graph.degree(v) == 0 {
            return None;
        }
        let p2 = self.rate * self.rate;
        Some(match measure {
            Measure::Jaccard => {
                let cn = self.graph.common_neighbors(u, v) as f64 / p2;
                let union = self.degree_est(u) + self.degree_est(v) - cn;
                if union <= 0.0 {
                    0.0
                } else {
                    (cn / union).clamp(0.0, 1.0)
                }
            }
            Measure::CommonNeighbors => self.graph.common_neighbors(u, v) as f64 / p2,
            Measure::AdamicAdar => {
                self.graph
                    .common_neighbor_sum(u, v, |w| 1.0 / self.degree_est(w).max(2.0).ln())
                    / p2
            }
            Measure::ResourceAllocation => {
                self.graph
                    .common_neighbor_sum(u, v, |w| 1.0 / self.degree_est(w).max(1.0))
                    / p2
            }
            Measure::PreferentialAttachment => self.degree_est(u) * self.degree_est(v),
            Measure::Cosine => {
                let cn = self.graph.common_neighbors(u, v) as f64 / p2;
                cn / (self.degree_est(u) * self.degree_est(v)).max(1e-12).sqrt()
            }
            Measure::Overlap => {
                let cn = self.graph.common_neighbors(u, v) as f64 / p2;
                (cn / self.degree_est(u).min(self.degree_est(v)).max(1e-12)).clamp(0.0, 1.0)
            }
        })
    }

    fn name(&self) -> &'static str {
        "reservoir"
    }

    fn memory_bytes(&self) -> usize {
        // The reservoir's own buffer is the dominant, capacity-bound cost.
        self.capacity * std::mem::size_of::<Edge>() + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstream::{BarabasiAlbert, EdgeStream};
    use streamlink_core::SketchConfig;

    fn stream() -> Vec<Edge> {
        BarabasiAlbert::new(400, 3, 17).edges().collect()
    }

    #[test]
    fn exact_scorer_matches_graph() {
        let edges = stream();
        let scorer = ExactScorer::from_edges(edges.iter().copied());
        let g = AdjacencyGraph::from_edges(edges);
        let (u, v) = (VertexId(1), VertexId(2));
        assert_eq!(scorer.score(Measure::Jaccard, u, v), Some(g.jaccard(u, v)));
        assert_eq!(
            scorer.score(Measure::CommonNeighbors, u, v),
            Some(g.common_neighbors(u, v) as f64)
        );
        // AA sums over a HashSet, so summation order (and thus the last
        // ulp) can differ between calls — compare with tolerance.
        let aa = scorer.score(Measure::AdamicAdar, u, v).unwrap();
        assert!((aa - g.adamic_adar(u, v)).abs() < 1e-9);
        assert_eq!(scorer.score(Measure::Jaccard, u, VertexId(99_999)), None);
    }

    #[test]
    fn sketch_scorer_supports_all_measures() {
        let mut store = SketchStore::new(SketchConfig::with_slots(128).seed(1));
        store.insert_stream(stream());
        let scorer = SketchScorer::new(store);
        for m in Measure::ALL {
            let s = scorer.score(m, VertexId(1), VertexId(2));
            assert!(s.is_some(), "measure {m} unsupported");
            assert!(s.unwrap().is_finite());
        }
    }

    #[test]
    fn sketch_tracks_exact_jaccard() {
        let edges = stream();
        let exact = ExactScorer::from_edges(edges.iter().copied());
        let mut store = SketchStore::new(SketchConfig::with_slots(512).seed(2));
        store.insert_stream(edges.iter().copied());
        let sketch = SketchScorer::new(store);
        let mut err = 0.0;
        let mut n = 0;
        for u in 0..40u64 {
            for v in (u + 1)..40u64 {
                let (u, v) = (VertexId(u), VertexId(v));
                let e = exact.score(Measure::Jaccard, u, v).unwrap();
                let s = sketch.score(Measure::Jaccard, u, v).unwrap();
                err += (e - s).abs();
                n += 1;
            }
        }
        assert!(err / f64::from(n) < 0.03, "MAE {}", err / f64::from(n));
    }

    #[test]
    fn reservoir_full_capacity_is_exact() {
        // Capacity >= stream length → rate 1 → scores equal exact scores.
        let edges = stream();
        let exact = ExactScorer::from_edges(edges.iter().copied());
        let res = ReservoirScorer::from_edges(edges.iter().copied(), edges.len(), 3);
        assert!((res.rate() - 1.0).abs() < 1e-12);
        for m in Measure::ALL {
            for u in 0..10u64 {
                for v in (u + 1)..10u64 {
                    let (u, v) = (VertexId(u), VertexId(v));
                    let (a, b) = (exact.score(m, u, v).unwrap(), res.score(m, u, v).unwrap());
                    assert!(
                        (a - b).abs() < 1e-9,
                        "{m} mismatch at rate 1: exact {a}, reservoir {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn reservoir_cn_unbiased_in_aggregate() {
        // At 50% sampling, averaged over seeds, the rescaled CN should be
        // near the exact CN for a high-CN pair.
        let mut edges = Vec::new();
        let (u, v) = (VertexId(0), VertexId(1));
        for w in 10..60u64 {
            edges.push(Edge::new(0u64, w, 0));
            edges.push(Edge::new(1u64, w, 0));
        }
        let exact_cn = 50.0;
        let trials = 60;
        let mut sum = 0.0;
        for seed in 0..trials {
            let res = ReservoirScorer::from_edges(edges.iter().copied(), edges.len() / 2, seed);
            sum += res.score(Measure::CommonNeighbors, u, v).unwrap_or(0.0);
        }
        let mean = sum / f64::from(trials as u32);
        assert!(
            (mean - exact_cn).abs() < 0.2 * exact_cn,
            "reservoir CN biased: mean {mean}, exact {exact_cn}"
        );
    }

    #[test]
    fn reservoir_forgets_vertices() {
        // With a tiny reservoir most vertices disappear → None scores.
        let edges = stream();
        let res = ReservoirScorer::from_edges(edges.iter().copied(), 8, 5);
        let nones = (0..100u64)
            .filter(|&v| {
                res.score(Measure::Jaccard, VertexId(v), VertexId(v + 1))
                    .is_none()
            })
            .count();
        assert!(
            nones > 50,
            "tiny reservoir should forget most vertices: {nones}"
        );
    }

    #[test]
    fn memory_ordering_is_sane() {
        let edges = stream();
        let exact = ExactScorer::from_edges(edges.iter().copied());
        let mut store = SketchStore::new(SketchConfig::with_slots(8).seed(1));
        store.insert_stream(edges.iter().copied());
        let sketch = SketchScorer::new(store);
        let res = ReservoirScorer::from_edges(edges.iter().copied(), 64, 1);
        assert!(res.memory_bytes() < exact.memory_bytes());
        assert!(sketch.memory_bytes() < exact.memory_bytes());
    }

    #[test]
    fn names_are_distinct() {
        let edges = stream();
        let names = [
            ExactScorer::from_edges(edges.iter().copied()).name(),
            SketchScorer::new(SketchStore::new(SketchConfig::with_slots(4))).name(),
            ReservoirScorer::from_edges(edges.iter().copied(), 10, 0).name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 3);
    }
}
