//! b-bit compressed sketch replicas (Li–König b-bit minwise hashing).
//!
//! A serving replica doesn't need the full 8-byte slots: keeping only
//! the lowest `b` bits of each slot minimum preserves Jaccard
//! estimation, because two *equal* minima always agree on their low bits
//! while two *different* minima collide only with probability
//! `δ = 2^(−b)`. Matching fractions therefore satisfy
//!
//! ```text
//! E[M/k] = J + (1 − J)·δ      ⇒      Ĵ = (M/k − δ) / (1 − δ)
//! ```
//!
//! an unbiased estimator with variance inflated by `1/(1−δ)²` — at
//! `b = 8` that's under 0.8%. Memory drops from 8 bytes to `b/8` bytes
//! per slot (32× at `b = 2`), which is the classic accuracy-per-byte
//! win for shipping sketches to read replicas or over the network.
//!
//! The compressed form is **frozen**: min-registers cannot be updated
//! once truncated (a new neighbor's full hash can't be compared against
//! a truncated minimum), and a truncated minimum can no longer be
//! inverted to its argmin, so only Jaccard /
//! CN / cosine / overlap are answerable — not AA/RA (which need each
//! matched slot's argmin). The builder keeps the full [`SketchStore`]; call
//! [`CompressedStore::from_store`] at replication points.

use serde::{Deserialize, Serialize};

use std::collections::HashMap;

use graphstream::VertexId;

use streamlink_core::estimators;
use streamlink_core::SketchStore;

/// A frozen, bit-packed b-bit replica of a [`SketchStore`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompressedStore {
    bits: u8,
    slots: usize,
    /// Per vertex: ⌈slots·bits/8⌉ bytes of packed low bits.
    sketches: HashMap<VertexId, Vec<u8>>,
    degrees: HashMap<VertexId, u64>,
}

impl CompressedStore {
    /// Compresses `store` down to `bits` bits per slot.
    ///
    /// # Panics
    /// Panics unless `1 <= bits <= 16`.
    #[must_use]
    pub fn from_store(store: &SketchStore, bits: u8) -> Self {
        assert!((1..=16).contains(&bits), "bits {bits} outside 1..=16");
        let slots = store.config().slots();
        let mut sketches = HashMap::new();
        let mut degrees = HashMap::new();
        for v in store.vertices() {
            let sketch = store.sketch(v).expect("vertex listed by the store");
            let mut packed = vec![0u8; (slots * bits as usize).div_ceil(8)];
            for (i, slot) in sketch.slots().iter().enumerate() {
                let value = slot.hash & ((1u64 << bits) - 1);
                write_bits(&mut packed, i * bits as usize, bits, value as u16);
            }
            sketches.insert(v, packed);
            degrees.insert(v, store.degree(v));
        }
        Self {
            bits,
            slots,
            sketches,
            degrees,
        }
    }

    /// Bits kept per slot.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Slots per vertex.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Whether `v` is present in the replica.
    #[must_use]
    pub fn contains(&self, v: VertexId) -> bool {
        self.sketches.contains_key(&v)
    }

    /// Degree counter of `v` (copied from the builder; 0 if unseen).
    #[must_use]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.degrees.get(&v).copied().unwrap_or(0)
    }

    /// Collision-corrected Jaccard estimate, `None` if either vertex is
    /// absent from the replica.
    #[must_use]
    pub fn jaccard(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let (su, sv) = (self.sketches.get(&u)?, self.sketches.get(&v)?);
        let b = self.bits;
        let mut matches = 0usize;
        for i in 0..self.slots {
            let a = read_bits(su, i * b as usize, b);
            let c = read_bits(sv, i * b as usize, b);
            matches += usize::from(a == c);
        }
        let delta = 2f64.powi(-i32::from(b));
        let raw = (matches as f64 / self.slots as f64 - delta) / (1.0 - delta);
        Some(raw.clamp(0.0, 1.0))
    }

    /// CN estimate via the usual inversion with replica degrees.
    #[must_use]
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let j = self.jaccard(u, v)?;
        Some(estimators::cn_from_jaccard(
            j,
            self.degree(u),
            self.degree(v),
        ))
    }

    /// Approximate resident bytes (the whole point of the replica).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let packed: usize = self.sketches.values().map(Vec::len).sum();
        packed
            + self.sketches.capacity() * (size_of::<(VertexId, Vec<u8>)>() + size_of::<u64>())
            + self.degrees.capacity() * (size_of::<(VertexId, u64)>() + size_of::<u64>())
            + size_of::<Self>()
    }
}

/// Writes `bits` low bits of `value` at bit offset `offset`.
fn write_bits(buf: &mut [u8], offset: usize, bits: u8, value: u16) {
    for i in 0..bits as usize {
        let bit = (value >> i) & 1;
        let pos = offset + i;
        if bit == 1 {
            buf[pos / 8] |= 1 << (pos % 8);
        }
    }
}

/// Reads `bits` bits at bit offset `offset`.
fn read_bits(buf: &[u8], offset: usize, bits: u8) -> u16 {
    let mut value = 0u16;
    for i in 0..bits as usize {
        let pos = offset + i;
        let bit = (buf[pos / 8] >> (pos % 8)) & 1;
        value |= u16::from(bit) << i;
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstream::{BarabasiAlbert, EdgeStream};
    use streamlink_core::SketchConfig;

    fn built_store(k: usize) -> SketchStore {
        let mut s = SketchStore::new(SketchConfig::with_slots(k).seed(9));
        s.insert_stream(BarabasiAlbert::new(400, 4, 3).edges());
        s
    }

    #[test]
    fn bit_packing_roundtrips() {
        for bits in [1u8, 2, 4, 7, 8, 13, 16] {
            let n = 50usize;
            let mut buf = vec![0u8; (n * bits as usize).div_ceil(8)];
            let mask = ((1u32 << bits) - 1) as u16;
            let values: Vec<u16> = (0..n as u16)
                .map(|i| (u32::from(i).wrapping_mul(2_654_435_761) as u16) & mask)
                .collect();
            for (i, &v) in values.iter().enumerate() {
                write_bits(&mut buf, i * bits as usize, bits, v);
            }
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(
                    read_bits(&buf, i * bits as usize, bits),
                    v,
                    "bits {bits} at {i}"
                );
            }
        }
    }

    #[test]
    fn high_b_matches_full_store_closely() {
        let store = built_store(512);
        let replica = CompressedStore::from_store(&store, 16);
        let mut max_diff = 0.0f64;
        for u in 0..40u64 {
            for v in (u + 1)..40u64 {
                let (u, v) = (VertexId(u), VertexId(v));
                let full = store.jaccard(u, v).unwrap();
                let comp = replica.jaccard(u, v).unwrap();
                max_diff = max_diff.max((full - comp).abs());
            }
        }
        // δ = 2^-16: correction noise is negligible.
        assert!(max_diff < 0.01, "b = 16 diverged: {max_diff}");
    }

    #[test]
    fn estimator_unbiased_on_known_overlap() {
        // Identical neighborhoods → J = 1 at every b; disjoint → ~0 even
        // though low bits collide at rate 2^-b (the correction removes it).
        for b in [1u8, 2, 4, 8] {
            let mut s = SketchStore::new(SketchConfig::with_slots(512).seed(1));
            for w in 0..30u64 {
                s.insert_edge(VertexId(0), VertexId(100 + w));
                s.insert_edge(VertexId(1), VertexId(100 + w));
                s.insert_edge(VertexId(2), VertexId(500 + w));
            }
            let replica = CompressedStore::from_store(&s, b);
            let twin = replica.jaccard(VertexId(0), VertexId(1)).unwrap();
            assert!(twin > 0.98, "b = {b}: twin J {twin}");
            let disjoint = replica.jaccard(VertexId(0), VertexId(2)).unwrap();
            assert!(disjoint < 0.15, "b = {b}: disjoint J {disjoint}");
        }
    }

    #[test]
    fn memory_shrinks_with_b() {
        let store = built_store(256);
        let full = store.memory_bytes();
        let b8 = CompressedStore::from_store(&store, 8).memory_bytes();
        let b2 = CompressedStore::from_store(&store, 2).memory_bytes();
        assert!(b8 < full / 5, "b=8 replica {b8} vs full {full}");
        assert!(b2 < b8, "b=2 ({b2}) should be smaller than b=8 ({b8})");
    }

    #[test]
    fn accuracy_memory_frontier_is_monotone() {
        // At fixed k, growing b improves accuracy (averaged over pairs).
        let store = built_store(256);
        let mae = |b: u8| {
            let replica = CompressedStore::from_store(&store, b);
            let mut total = 0.0;
            let mut n = 0;
            for u in 0..40u64 {
                for v in (u + 1)..40u64 {
                    let (u, v) = (VertexId(u), VertexId(v));
                    total += (store.jaccard(u, v).unwrap() - replica.jaccard(u, v).unwrap()).abs();
                    n += 1;
                }
            }
            total / f64::from(n)
        };
        assert!(
            mae(8) < mae(1),
            "b=8 ({}) should beat b=1 ({})",
            mae(8),
            mae(1)
        );
    }

    #[test]
    fn cn_estimate_works_from_replica() {
        let mut s = SketchStore::new(SketchConfig::with_slots(512).seed(2));
        for w in 0..20u64 {
            s.insert_edge(VertexId(0), VertexId(100 + w));
            s.insert_edge(VertexId(1), VertexId(100 + w));
        }
        let replica = CompressedStore::from_store(&s, 8);
        let cn = replica.common_neighbors(VertexId(0), VertexId(1)).unwrap();
        assert!((cn - 20.0).abs() < 2.0, "cn {cn}");
    }

    #[test]
    fn absent_vertices_give_none() {
        let replica = CompressedStore::from_store(&built_store(16), 4);
        assert_eq!(replica.jaccard(VertexId(0), VertexId(99_999)), None);
        assert!(!replica.contains(VertexId(99_999)));
    }

    #[test]
    fn serde_roundtrip() {
        let replica = CompressedStore::from_store(&built_store(16), 4);
        let json = serde_json::to_string(&replica).unwrap();
        assert_eq!(
            replica,
            serde_json::from_str::<CompressedStore>(&json).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_bits_rejected() {
        let _ = CompressedStore::from_store(&built_store(8), 0);
    }
}
