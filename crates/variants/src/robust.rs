//! The duplicate-robust store: MinHash slots + HyperLogLog degrees.
//!
//! [`SketchStore`](streamlink_core::SketchStore)'s raw degree counters
//! assume each edge is delivered once; under re-delivery they inflate,
//! dragging the CN and AA estimates up with them (the Jaccard estimate is
//! immune — slots are idempotent). [`RobustStore`] swaps the counters for per-vertex
//! [`HyperLogLog`] sketches of the *distinct* neighbor set, making every
//! estimate duplicate-insensitive at the cost of `2^p` extra bytes per
//! vertex and HLL noise (σ ≈ `1.04/√2^p`) in the degree factor.
//!
//! Use it when the feed can repeat edges (at-least-once delivery,
//! multi-source union streams); use the plain store on deduplicated
//! feeds where exact counters are free.

use std::collections::HashMap;

use graphstream::{Edge, VertexId};

use crate::hll::HyperLogLog;
use hashkit::HashFamily;
use streamlink_core::config::SketchConfig;
use streamlink_core::estimators;
use streamlink_core::sketch::VertexSketch;

/// A sketch store whose degree factors are HLL distinct counts.
#[derive(Debug, Clone)]
pub struct RobustStore {
    config: SketchConfig,
    hll_precision: u8,
    bank: HashFamily,
    sketches: HashMap<VertexId, VertexSketch>,
    degrees: HashMap<VertexId, HyperLogLog>,
    edges_processed: u64,
    scratch_u: Vec<u64>,
    scratch_v: Vec<u64>,
}

impl RobustStore {
    /// A robust store with `config` sketch slots and `2^hll_precision`
    /// HLL registers per vertex.
    ///
    /// # Panics
    /// Panics if `hll_precision` is outside `4..=16` (HLL invariant).
    #[must_use]
    pub fn new(config: SketchConfig, hll_precision: u8) -> Self {
        assert!(
            (4..=16).contains(&hll_precision),
            "hll precision {hll_precision} outside 4..=16"
        );
        let bank = config.build_bank();
        let k = config.slots();
        Self {
            config,
            hll_precision,
            bank,
            sketches: HashMap::new(),
            degrees: HashMap::new(),
            edges_processed: 0,
            scratch_u: vec![0; k],
            scratch_v: vec![0; k],
        }
    }

    /// Processes one stream edge (duplicates and self-loops harmless).
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges_processed += 1;
        if u == v {
            return;
        }
        let k = self.config.slots();
        self.bank.hash_all_into(u.0, &mut self.scratch_u);
        self.bank.hash_all_into(v.0, &mut self.scratch_v);

        self.sketches
            .entry(u)
            .or_insert_with(|| VertexSketch::new(k))
            .fold_neighbor(&self.scratch_v);
        self.sketches
            .entry(v)
            .or_insert_with(|| VertexSketch::new(k))
            .fold_neighbor(&self.scratch_u);

        // HLL of the neighbor set: feed the already-computed first slot
        // hash (a uniform word per neighbor id).
        let p = self.hll_precision;
        self.degrees
            .entry(u)
            .or_insert_with(|| HyperLogLog::new(p))
            .insert_hash(self.scratch_v[0]);
        self.degrees
            .entry(v)
            .or_insert_with(|| HyperLogLog::new(p))
            .insert_hash(self.scratch_u[0]);
    }

    /// Processes a whole stream.
    pub fn insert_stream(&mut self, edges: impl IntoIterator<Item = Edge>) {
        for e in edges {
            self.insert_edge(e.src, e.dst);
        }
    }

    /// Estimated distinct degree of `v` (0.0 for unseen vertices).
    #[must_use]
    pub fn degree_estimate(&self, v: VertexId) -> f64 {
        self.degrees.get(&v).map_or(0.0, HyperLogLog::estimate)
    }

    /// Estimated Jaccard coefficient (identical to the plain store's —
    /// duplicate-immune by construction).
    #[must_use]
    pub fn jaccard(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let (su, sv) = (self.sketches.get(&u)?, self.sketches.get(&v)?);
        Some(estimators::jaccard_from_matches(
            su.match_count(sv),
            self.config.slots(),
        ))
    }

    /// Estimated common-neighbor count using HLL degrees.
    #[must_use]
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let j = self.jaccard(u, v)?;
        let (du, dv) = (self.degree_estimate(u), self.degree_estimate(v));
        let raw = j * (du + dv) / (1.0 + j);
        Some(raw.clamp(0.0, du.min(dv)))
    }

    /// Estimated Adamic–Adar using HLL degrees for both the CN factor
    /// and the sampled common neighbors' weights.
    #[must_use]
    pub fn adamic_adar(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let (su, sv) = (self.sketches.get(&u)?, self.sketches.get(&v)?);
        let cn = self.common_neighbors(u, v)?;
        let samples: Vec<f64> = su
            .matched_samples(sv, &self.bank)
            .map(|w| self.degree_estimate(w))
            .collect();
        if samples.is_empty() {
            return Some(0.0);
        }
        let mean_weight: f64 =
            samples.iter().map(|&d| 1.0 / d.max(2.0).ln()).sum::<f64>() / samples.len() as f64;
        Some(cn * mean_weight)
    }

    /// Number of distinct vertices observed.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.sketches.len()
    }

    /// Total edges processed (including duplicates and self-loops).
    #[must_use]
    pub fn edges_processed(&self) -> u64 {
        self.edges_processed
    }

    /// The sketch configuration.
    #[must_use]
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// HLL precision used for the per-vertex degree sketches.
    #[must_use]
    pub fn hll_precision(&self) -> u8 {
        self.hll_precision
    }

    /// Approximate resident bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let sketch_bytes: usize = self.sketches.values().map(VertexSketch::memory_bytes).sum();
        let hll_bytes: usize = self.degrees.values().map(HyperLogLog::memory_bytes).sum();
        sketch_bytes
            + hll_bytes
            + self.sketches.capacity() * (size_of::<(VertexId, VertexSketch)>() + size_of::<u64>())
            + self.degrees.capacity() * (size_of::<(VertexId, HyperLogLog)>() + size_of::<u64>())
            + size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstream::adapters::NoiseInjector;
    use graphstream::{BarabasiAlbert, EdgeStream};
    use streamlink_core::SketchStore;

    fn cfg() -> SketchConfig {
        SketchConfig::with_slots(256).seed(5)
    }

    #[test]
    fn clean_stream_matches_plain_store_closely() {
        let stream = BarabasiAlbert::new(300, 3, 11);
        let mut robust = RobustStore::new(cfg(), 10);
        let mut plain = SketchStore::new(cfg());
        robust.insert_stream(stream.edges());
        plain.insert_stream(stream.edges());

        for u in 0..40u64 {
            let v = VertexId(u);
            // Jaccard identical (same slots, same hashes).
            for w in (u + 1)..40u64 {
                assert_eq!(
                    robust.jaccard(v, VertexId(w)),
                    plain.jaccard(v, VertexId(w))
                );
            }
            // HLL degree within its error band of the exact counter.
            let exact = plain.degree(v) as f64;
            let est = robust.degree_estimate(v);
            assert!(
                (est - exact).abs() <= 2.0 + exact * 0.15,
                "degree at {v}: hll {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn cn_immune_to_duplicates() {
        // Deliver every edge 1 + Binomial noise times: plain CN inflates,
        // robust CN stays near the truth.
        let clean = BarabasiAlbert::new(300, 3, 13);
        let injector = NoiseInjector {
            duplicate_prob: 1.0,
            ..NoiseInjector::clean(3)
        }; // every edge twice
        let noisy = injector.apply(&clean);

        let mut robust = RobustStore::new(cfg(), 10);
        robust.insert_stream(noisy.as_slice().iter().copied());
        let mut plain_noisy = SketchStore::new(cfg());
        plain_noisy.insert_stream(noisy.as_slice().iter().copied());
        let mut plain_clean = SketchStore::new(cfg());
        plain_clean.insert_stream(clean.edges());

        let mut robust_err = 0.0;
        let mut plain_err = 0.0;
        let mut n = 0;
        for u in 0..50u64 {
            for v in (u + 1)..50u64 {
                let (u, v) = (VertexId(u), VertexId(v));
                let truth = plain_clean.common_neighbors(u, v).unwrap_or(0.0);
                robust_err += (robust.common_neighbors(u, v).unwrap_or(0.0) - truth).abs();
                plain_err += (plain_noisy.common_neighbors(u, v).unwrap_or(0.0) - truth).abs();
                n += 1;
            }
        }
        let (robust_mae, plain_mae) = (robust_err / f64::from(n), plain_err / f64::from(n));
        assert!(
            robust_mae < plain_mae * 0.6,
            "robust CN MAE {robust_mae} should beat duplicate-inflated {plain_mae}"
        );
    }

    #[test]
    fn degree_estimate_counts_distinct_neighbors() {
        let mut s = RobustStore::new(SketchConfig::with_slots(16).seed(1), 10);
        for _ in 0..20 {
            for w in 0..30u64 {
                s.insert_edge(VertexId(0), VertexId(100 + w));
            }
        }
        let est = s.degree_estimate(VertexId(0));
        assert!((est - 30.0).abs() < 5.0, "distinct degree estimate {est}");
    }

    #[test]
    fn unseen_vertices_give_none_or_zero() {
        let s = RobustStore::new(cfg(), 8);
        assert_eq!(s.jaccard(VertexId(1), VertexId(2)), None);
        assert_eq!(s.degree_estimate(VertexId(1)), 0.0);
    }

    #[test]
    fn memory_includes_hll() {
        let mut small = RobustStore::new(SketchConfig::with_slots(16), 4);
        let mut big = RobustStore::new(SketchConfig::with_slots(16), 12);
        for e in BarabasiAlbert::new(100, 2, 1).edges() {
            small.insert_edge(e.src, e.dst);
            big.insert_edge(e.src, e.dst);
        }
        assert!(big.memory_bytes() > small.memory_bytes() + 100 * 200);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_hll_precision_rejected() {
        let _ = RobustStore::new(cfg(), 3);
    }
}
