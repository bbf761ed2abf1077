//! The per-vertex MinHash sketch.

use serde::{Deserialize, Serialize};

use graphstream::VertexId;

/// One sketch slot: the minimum hash seen under this slot's function, and
/// the neighbor that achieved it (the *argmin*).
///
/// The argmin is what turns the sketch from a similarity estimator into a
/// *sampler*: on a slot match between two sketches, the shared argmin is a
/// min-wise sample of the neighborhood intersection, which the Adamic–Adar
/// estimator looks up by current degree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slot {
    /// Minimum hash value over neighbors, `u64::MAX` while empty.
    pub hash: u64,
    /// The neighbor achieving the minimum (undefined while empty).
    pub argmin: VertexId,
}

impl Slot {
    /// The empty slot.
    pub const EMPTY: Slot = Slot {
        hash: u64::MAX,
        argmin: VertexId(u64::MAX),
    };

    /// Whether any neighbor has been folded in.
    ///
    /// (`u64::MAX` as a live minimum has probability `k·2⁻⁶⁴` over a whole
    /// store — treated as impossible, like any hash-collision event.)
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hash == u64::MAX
    }

    /// Folds one hashed neighbor into the slot.
    #[inline]
    pub fn fold(&mut self, hash: u64, neighbor: VertexId) {
        if hash < self.hash {
            self.hash = hash;
            self.argmin = neighbor;
        }
    }
}

/// A fixed-width MinHash sketch of one vertex's neighborhood.
///
/// Exactly `k` slots, allocated once at first sight of the vertex — the
/// "constant space per vertex" in the paper's claim.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VertexSketch {
    slots: Box<[Slot]>,
}

impl VertexSketch {
    /// An empty sketch with `k` slots.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self {
            slots: vec![Slot::EMPTY; k].into_boxed_slice(),
        }
    }

    /// Builds a sketch directly from slot state (the binary codec's
    /// decode path; validation happens in the codec).
    #[must_use]
    pub(crate) fn from_slots(slots: Box<[Slot]>) -> Self {
        Self { slots }
    }

    /// Number of slots.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the sketch has zero slots (only via a zero-k constructor,
    /// which configs forbid).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slots.
    #[inline]
    #[must_use]
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Folds a neighbor into every slot. `hashes[i]` must be `h_i(neighbor)`.
    ///
    /// One endpoint's half of an edge, from precomputed hashes: the
    /// variant stores and tests use it. [`crate::SketchStore`] folds both
    /// endpoints of an edge in one pass instead (`fold_edge`), which
    /// gives bit-identical slots.
    ///
    /// # Panics
    /// Panics if `hashes.len() != self.len()`.
    #[inline]
    pub fn fold_neighbor(&mut self, hashes: &[u64], neighbor: VertexId) {
        assert_eq!(hashes.len(), self.slots.len(), "hash count != slot count");
        for (slot, &h) in self.slots.iter_mut().zip(hashes) {
            slot.fold(h, neighbor);
        }
    }

    /// Folds the edge `{u, v}` into `u`'s sketch (`self`) and `v`'s
    /// (`other`) in one pass over the slots: slot `i` of `self` takes
    /// `h_i(v)` and slot `i` of `other` takes `h_i(u)`, where `hashes`
    /// yields `(h_i(u), h_i(v))` in slot order.
    ///
    /// This is the per-edge hot path: both sketches stream through the
    /// cache side by side, with one branch and at most one 16-byte write
    /// per slot and sketch.
    ///
    /// # Panics
    /// Panics if the sketches have different widths.
    #[inline]
    pub(crate) fn fold_edge(
        &mut self,
        u: VertexId,
        other: &mut VertexSketch,
        v: VertexId,
        hashes: impl Iterator<Item = (u64, u64)>,
    ) {
        assert_eq!(
            self.len(),
            other.len(),
            "cannot fold sketches of different width"
        );
        for ((su, sv), (hu, hv)) in self
            .slots
            .iter_mut()
            .zip(other.slots.iter_mut())
            .zip(hashes)
        {
            su.fold(hv, v);
            sv.fold(hu, u);
        }
    }

    /// Number of slots where the two sketches hold the same minimum.
    ///
    /// Because each slot function is injective, hash equality is argmin
    /// equality; empty slots never match a non-empty one, and two empty
    /// slots match (both neighborhoods empty — vacuous agreement, callers
    /// guard on unseen vertices anyway).
    ///
    /// # Panics
    /// Panics if the sketches have different widths.
    #[must_use]
    pub fn match_count(&self, other: &VertexSketch) -> usize {
        assert_eq!(
            self.len(),
            other.len(),
            "cannot compare sketches of different width"
        );
        self.slots
            .iter()
            .zip(other.slots.iter())
            .filter(|(a, b)| a.hash == b.hash)
            .count()
    }

    /// Iterates the argmin vertices of slots where both sketches agree
    /// and are non-empty — min-wise samples of the neighborhood
    /// intersection (with repetition across slots).
    pub fn matched_samples<'a>(
        &'a self,
        other: &'a VertexSketch,
    ) -> impl Iterator<Item = VertexId> + 'a {
        self.slots
            .iter()
            .zip(other.slots.iter())
            .filter(|(a, b)| !a.is_empty() && a.hash == b.hash)
            .map(|(a, _)| a.argmin)
    }

    /// Component-wise minimum with another sketch (neighborhood union).
    ///
    /// After `a.merge(&b)`, `a` is exactly the sketch that would have been
    /// produced by folding both neighbor sets — the property that makes
    /// sharded ingestion exact.
    ///
    /// # Panics
    /// Panics if widths differ.
    pub fn merge(&mut self, other: &VertexSketch) {
        assert_eq!(
            self.len(),
            other.len(),
            "cannot merge sketches of different width"
        );
        for (a, b) in self.slots.iter_mut().zip(other.slots.iter()) {
            if b.hash < a.hash {
                *a = *b;
            }
        }
    }

    /// Resident bytes of this sketch (slots only; the store-level
    /// [`crate::store::SketchStore::memory_bytes`] adds map overhead on
    /// top of the per-sketch sums).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
    }

    /// Number of slots that have absorbed at least one neighbor hash.
    ///
    /// A freshly created sketch reports 0; once the neighborhood is at
    /// least as large as the slot count, every slot is filled with
    /// probability 1 (each slot folds every neighbor). Surfaced by the
    /// `EXPLAIN` protocol command as a cheap saturation diagnostic.
    #[must_use]
    pub fn filled_slots(&self) -> usize {
        self.slots.iter().filter(|s| !s.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashkit::HashFamily;

    fn hashes(fam: &HashFamily, key: u64) -> Vec<u64> {
        let mut out = vec![0u64; fam.len()];
        fam.hash_all_into(key, &mut out);
        out
    }

    #[test]
    fn empty_slot_properties() {
        assert!(Slot::EMPTY.is_empty());
        let mut s = Slot::EMPTY;
        s.fold(5, VertexId(1));
        assert!(!s.is_empty());
        assert_eq!(s.hash, 5);
        assert_eq!(s.argmin, VertexId(1));
    }

    #[test]
    fn fold_keeps_minimum_and_argmin() {
        let mut s = Slot::EMPTY;
        s.fold(10, VertexId(1));
        s.fold(20, VertexId(2)); // larger: ignored
        assert_eq!((s.hash, s.argmin), (10, VertexId(1)));
        s.fold(3, VertexId(3)); // smaller: replaces
        assert_eq!((s.hash, s.argmin), (3, VertexId(3)));
    }

    #[test]
    fn fold_neighbor_is_idempotent() {
        let fam = HashFamily::new(32, 1);
        let mut a = VertexSketch::new(32);
        let h = hashes(&fam, 99);
        a.fold_neighbor(&h, VertexId(99));
        let snapshot = a.clone();
        a.fold_neighbor(&h, VertexId(99)); // duplicate edge delivery
        assert_eq!(a, snapshot);
    }

    #[test]
    fn identical_neighborhoods_match_fully() {
        let fam = HashFamily::new(64, 2);
        let mut a = VertexSketch::new(64);
        let mut b = VertexSketch::new(64);
        for w in 100..120u64 {
            let h = hashes(&fam, w);
            a.fold_neighbor(&h, VertexId(w));
            b.fold_neighbor(&h, VertexId(w));
        }
        assert_eq!(a.match_count(&b), 64);
    }

    #[test]
    fn disjoint_neighborhoods_rarely_match() {
        let fam = HashFamily::new(64, 3);
        let mut a = VertexSketch::new(64);
        let mut b = VertexSketch::new(64);
        for w in 0..50u64 {
            a.fold_neighbor(&hashes(&fam, w), VertexId(w));
            b.fold_neighbor(&hashes(&fam, w + 1000), VertexId(w + 1000));
        }
        assert_eq!(a.match_count(&b), 0, "disjoint sets matched");
    }

    #[test]
    fn matched_samples_lie_in_intersection() {
        let fam = HashFamily::new(128, 4);
        let mut a = VertexSketch::new(128);
        let mut b = VertexSketch::new(128);
        // N(a) = 0..30, N(b) = 20..50; intersection = 20..30.
        for w in 0..30u64 {
            a.fold_neighbor(&hashes(&fam, w), VertexId(w));
        }
        for w in 20..50u64 {
            b.fold_neighbor(&hashes(&fam, w), VertexId(w));
        }
        let samples: Vec<_> = a.matched_samples(&b).collect();
        assert!(!samples.is_empty(), "overlap produced no samples");
        for v in samples {
            assert!((20..30).contains(&v.0), "sample {v} outside intersection");
        }
    }

    #[test]
    fn merge_equals_union_fold() {
        let fam = HashFamily::new(32, 5);
        let mut a = VertexSketch::new(32);
        let mut b = VertexSketch::new(32);
        let mut union = VertexSketch::new(32);
        for w in 0..20u64 {
            a.fold_neighbor(&hashes(&fam, w), VertexId(w));
            union.fold_neighbor(&hashes(&fam, w), VertexId(w));
        }
        for w in 15..40u64 {
            b.fold_neighbor(&hashes(&fam, w), VertexId(w));
            union.fold_neighbor(&hashes(&fam, w), VertexId(w));
        }
        a.merge(&b);
        assert_eq!(a, union);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let fam = HashFamily::new(16, 6);
        let mut a = VertexSketch::new(16);
        for w in 0..5u64 {
            a.fold_neighbor(&hashes(&fam, w), VertexId(w));
        }
        let before = a.clone();
        a.merge(&VertexSketch::new(16));
        assert_eq!(a, before);
    }

    #[test]
    fn memory_is_slot_proportional() {
        assert_eq!(
            VertexSketch::new(10).memory_bytes(),
            10 * std::mem::size_of::<Slot>()
        );
        assert!(VertexSketch::new(100).memory_bytes() > VertexSketch::new(10).memory_bytes());
    }

    #[test]
    #[should_panic(expected = "different width")]
    fn width_mismatch_rejected() {
        let _ = VertexSketch::new(4).match_count(&VertexSketch::new(8));
    }

    #[test]
    fn serde_roundtrip() {
        let fam = HashFamily::new(8, 7);
        let mut a = VertexSketch::new(8);
        a.fold_neighbor(&hashes(&fam, 9), VertexId(9));
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(a, serde_json::from_str::<VertexSketch>(&json).unwrap());
    }
}
