//! Vertex-biased (weighted) sampling for the Adamic–Adar estimate.
//!
//! The match-sampling AA estimator of
//! [`SketchStore`](streamlink_core::SketchStore) samples common neighbors
//! *uniformly*, then reweights by `1/ln d`. On heavily skewed graphs that
//! wastes samples: most common neighbors of two hubs are themselves
//! low-weight hubs, while the rare low-degree common neighbor that
//! dominates the AA sum is rarely sampled.
//!
//! The vertex-biased sketch samples each neighbor `w` with probability
//! proportional to its AA weight `c(w) = 1/ln d(w)` using **exponential
//! ranks**: slot `i` of vertex `u` holds
//! `argmin_{w ∈ N(u)} Exp_i(w) / c(w)`, where `Exp_i(w)` is a fixed
//! exponential variate derived from `h_i(w)`. The fraction of slots where
//! two sketches agree then estimates the *weighted* Jaccard
//! `J_c = C∩ / C∪` with `C_S = Σ_{w∈S} c(w)`; maintaining running weighted
//! degree sums `W(u) = Σ_{w∈N(u)} c(w)` inverts it to the AA score itself:
//! `AA = C∩ = J_c · (W_u + W_v) / (1 + J_c)`.
//!
//! ## Degree drift
//!
//! `c(w)` depends on `d(w)`, which grows during the stream. Ranks are
//! computed with the weight of `w`'s **degree tier** (next power of two)
//! at insertion time: tiers change rarely, so the rank of `w` in `u`'s and
//! `v`'s sketches — inserted at different times — usually coincides; slot
//! agreement is tested on the argmin *identity*, so residual drift only
//! perturbs sampling probabilities, never fabricates matches. The same
//! staleness applies to `W(u)`. Experiment E11 quantifies the resulting
//! bias against the uniform match-sampling estimator.

use std::collections::HashMap;

use hashkit::{exp_rank, HashFamily};

use graphstream::{Edge, VertexId};

use streamlink_core::estimators::aa_weight;

/// One biased slot: minimum exponential rank and its argmin vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BiasedSlot {
    rank: f64,
    argmin: VertexId,
}

impl BiasedSlot {
    const EMPTY: BiasedSlot = BiasedSlot {
        rank: f64::INFINITY,
        argmin: VertexId(u64::MAX),
    };
}

/// The weighted-Jaccard inversion behind [`BiasedStore::adamic_adar`].
///
/// With per-vertex weights `c(w)`, define `W(x) = Σ_{w∈N(x)} c(w)`. The
/// weighted Jaccard `J_c = C∩ / C∪` satisfies
/// `C∩ = J_c · (W_u + W_v) / (1 + J_c)` by the same identity as the
/// unweighted case — and `C∩` *is* the Adamic–Adar score when
/// `c(w) = 1/ln d(w)`.
#[inline]
fn aa_from_weighted_jaccard(jaccard_w: f64, wsum_u: f64, wsum_v: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&jaccard_w));
    debug_assert!(wsum_u >= 0.0 && wsum_v >= 0.0);
    let raw = jaccard_w * (wsum_u + wsum_v) / (1.0 + jaccard_w);
    raw.clamp(0.0, wsum_u.min(wsum_v))
}

/// A vertex-biased sketch store estimating Adamic–Adar directly.
#[derive(Debug, Clone)]
pub struct BiasedStore {
    k: usize,
    family: HashFamily,
    sketches: HashMap<VertexId, Box<[BiasedSlot]>>,
    degrees: HashMap<VertexId, u64>,
    /// Running Σ c(w) over each vertex's neighbors (insertion-time tiers).
    weight_sums: HashMap<VertexId, f64>,
    edges_processed: u64,
    scratch_u: Vec<u64>,
    scratch_v: Vec<u64>,
}

/// The AA weight of a vertex whose degree sits in the tier of `degree`
/// (next power of two, floored at 2). Quantizing keeps ranks stable as
/// degrees drift within a tier.
#[inline]
fn tier_weight(degree: u64) -> f64 {
    aa_weight(degree.max(2).next_power_of_two())
}

impl BiasedStore {
    /// A biased store with `k` slots per vertex.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "biased sketch needs k >= 1");
        Self {
            k,
            family: HashFamily::new(k, seed ^ 0xB1A5_ED00),
            sketches: HashMap::new(),
            degrees: HashMap::new(),
            weight_sums: HashMap::new(),
            edges_processed: 0,
            scratch_u: vec![0; k],
            scratch_v: vec![0; k],
        }
    }

    /// Processes one stream edge (self-loops ignored).
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges_processed += 1;
        if u == v {
            return;
        }
        // Degrees first: the weight of an endpoint reflects the degree
        // *including* this edge, so a fresh vertex starts at tier 2.
        let du = {
            let d = self.degrees.entry(u).or_insert(0);
            *d += 1;
            *d
        };
        let dv = {
            let d = self.degrees.entry(v).or_insert(0);
            *d += 1;
            *d
        };
        let (wu, wv) = (tier_weight(du), tier_weight(dv));

        self.family.hash_all_into(u.0, &mut self.scratch_u);
        self.family.hash_all_into(v.0, &mut self.scratch_v);

        let k = self.k;
        let fold = |slots: &mut Box<[BiasedSlot]>, hashes: &[u64], nbr: VertexId, w: f64| {
            for (slot, &h) in slots.iter_mut().zip(hashes) {
                let rank = exp_rank(h, w);
                if rank < slot.rank {
                    *slot = BiasedSlot { rank, argmin: nbr };
                }
            }
        };
        let su = self
            .sketches
            .entry(u)
            .or_insert_with(|| vec![BiasedSlot::EMPTY; k].into_boxed_slice());
        fold(su, &self.scratch_v, v, wv);
        let sv = self
            .sketches
            .entry(v)
            .or_insert_with(|| vec![BiasedSlot::EMPTY; k].into_boxed_slice());
        fold(sv, &self.scratch_u, u, wu);

        *self.weight_sums.entry(u).or_insert(0.0) += wv;
        *self.weight_sums.entry(v).or_insert(0.0) += wu;
    }

    /// Processes a whole stream.
    pub fn insert_stream(&mut self, edges: impl IntoIterator<Item = Edge>) {
        for e in edges {
            self.insert_edge(e.src, e.dst);
        }
    }

    /// Estimated *weighted* Jaccard `J_c(u, v)` (agreement fraction on
    /// argmin identities), `None` if either vertex unseen.
    #[must_use]
    pub fn weighted_jaccard(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let (su, sv) = (self.sketches.get(&u)?, self.sketches.get(&v)?);
        let matches = su
            .iter()
            .zip(sv.iter())
            .filter(|(a, b)| a.rank.is_finite() && a.argmin == b.argmin)
            .count();
        Some(matches as f64 / self.k as f64)
    }

    /// Estimated Adamic–Adar index via weighted-Jaccard inversion.
    #[must_use]
    pub fn adamic_adar(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let jw = self.weighted_jaccard(u, v)?;
        let (wu, wv) = (self.weight_sum(u), self.weight_sum(v));
        Some(aa_from_weighted_jaccard(jw, wu, wv))
    }

    /// The running weighted degree `W(v) = Σ c(w)` (0 for unseen).
    #[must_use]
    pub fn weight_sum(&self, v: VertexId) -> f64 {
        self.weight_sums.get(&v).copied().unwrap_or(0.0)
    }

    /// Degree counter (0 for unseen).
    #[must_use]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.degrees.get(&v).copied().unwrap_or(0)
    }

    /// Distinct vertices observed.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.sketches.len()
    }

    /// Edges processed.
    #[must_use]
    pub fn edges_processed(&self) -> u64 {
        self.edges_processed
    }

    /// Approximate resident bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let slots: usize = self
            .sketches
            .values()
            .map(|s| s.len() * size_of::<BiasedSlot>())
            .sum();
        let maps = self.sketches.capacity()
            * (size_of::<(VertexId, Box<[BiasedSlot]>)>() + size_of::<u64>())
            + self.degrees.capacity() * (size_of::<(VertexId, u64)>() + size_of::<u64>())
            + self.weight_sums.capacity() * (size_of::<(VertexId, f64)>() + size_of::<u64>());
        slots + maps + size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstream::{AdjacencyGraph, EdgeStream, PowerLawConfig};

    #[test]
    fn weighted_inversion_matches_ground_truth() {
        // C(u) = 3.0, C(v) = 2.0, C∩ = 1.0 → J_c = 1 / (3+2-1) = 0.25.
        let jc = 1.0 / 4.0;
        let c = aa_from_weighted_jaccard(jc, 3.0, 2.0);
        assert!((c - 1.0).abs() < 1e-12, "got {c}");
    }

    #[test]
    fn weighted_inversion_clamps() {
        assert_eq!(aa_from_weighted_jaccard(1.0, 5.0, 1.0), 1.0);
        assert_eq!(aa_from_weighted_jaccard(0.0, 5.0, 1.0), 0.0);
    }

    #[test]
    fn tier_weight_quantizes() {
        assert_eq!(tier_weight(0), tier_weight(2));
        assert_eq!(tier_weight(3), tier_weight(4));
        assert_eq!(tier_weight(5), tier_weight(8));
        assert!(tier_weight(100) < tier_weight(2));
    }

    #[test]
    fn unseen_gives_none() {
        let s = BiasedStore::new(8, 0);
        assert_eq!(s.adamic_adar(VertexId(0), VertexId(1)), None);
    }

    #[test]
    fn full_overlap_same_insertion_times_matches_fully() {
        // Interleave so each shared neighbor is inserted into both
        // sketches at the same tier → identical ranks → full agreement.
        let mut s = BiasedStore::new(64, 1);
        for w in 100..130u64 {
            s.insert_edge(VertexId(0), VertexId(w));
            s.insert_edge(VertexId(1), VertexId(w));
        }
        let jw = s.weighted_jaccard(VertexId(0), VertexId(1)).unwrap();
        assert!(jw > 0.9, "weighted jaccard {jw}");
    }

    #[test]
    fn disjoint_estimates_zero() {
        let mut s = BiasedStore::new(64, 2);
        for w in 0..30u64 {
            s.insert_edge(VertexId(0), VertexId(100 + w));
            s.insert_edge(VertexId(1), VertexId(500 + w));
        }
        assert_eq!(s.weighted_jaccard(VertexId(0), VertexId(1)), Some(0.0));
        assert_eq!(s.adamic_adar(VertexId(0), VertexId(1)), Some(0.0));
    }

    #[test]
    fn weight_sums_accumulate() {
        let mut s = BiasedStore::new(8, 3);
        s.insert_edge(VertexId(0), VertexId(1));
        s.insert_edge(VertexId(0), VertexId(2));
        // Both neighbors entered at degree 1 → tier 2 weight.
        let expected = 2.0 * tier_weight(1);
        assert!((s.weight_sum(VertexId(0)) - expected).abs() < 1e-12);
    }

    #[test]
    fn aa_estimate_tracks_exact_on_skewed_stream() {
        let stream = PowerLawConfig::new(800, 2.3, 100, 11).materialize();
        let g = AdjacencyGraph::from_edges(stream.edges());
        let mut s = BiasedStore::new(512, 5);
        s.insert_stream(stream.edges());

        // Evaluate on pairs that actually share neighbors.
        let mut pairs = Vec::new();
        for u in 0..120u64 {
            for v in (u + 1)..120u64 {
                if g.common_neighbors(VertexId(u), VertexId(v)) > 0 {
                    pairs.push((VertexId(u), VertexId(v)));
                }
            }
        }
        assert!(
            pairs.len() > 20,
            "test stream too sparse: {} pairs",
            pairs.len()
        );
        let mut rel_err_sum = 0.0;
        for &(u, v) in &pairs {
            let exact = g.adamic_adar(u, v);
            let est = s.adamic_adar(u, v).unwrap();
            rel_err_sum += (est - exact).abs() / exact.max(1e-9);
        }
        let are = rel_err_sum / pairs.len() as f64;
        assert!(
            are < 0.8,
            "biased AA average relative error too high: {are}"
        );
    }

    #[test]
    fn deterministic() {
        let stream = PowerLawConfig::new(300, 2.5, 50, 1).materialize();
        let run = |seed| {
            let mut s = BiasedStore::new(64, seed);
            s.insert_stream(stream.edges());
            s.adamic_adar(VertexId(0), VertexId(1))
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn memory_scales_with_k() {
        let run = |k| {
            let mut s = BiasedStore::new(k, 1);
            s.insert_stream(PowerLawConfig::new(200, 2.5, 50, 2).edges());
            s.memory_bytes()
        };
        assert!(run(256) > run(16));
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_rejected() {
        let _ = BiasedStore::new(0, 0);
    }
}
