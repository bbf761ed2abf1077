//! The per-vertex MinHash sketch.

use graphstream::VertexId;

use crate::config::HasherBank;

/// One sketch slot: the minimum hash seen under this slot's function.
///
/// A slot stores no argmin. Under the default Mixer backend each slot
/// function is a bijection, so the neighbor that achieved the minimum is
/// `h_i⁻¹(hash)` ([`HasherBank::invert`]); that recovered argmin is what
/// turns the sketch from a similarity estimator into a *sampler* (see
/// [`VertexSketch::matched_samples`]). The Tabulation backend is not
/// invertible, so a Tabulation [`crate::SketchStore`] keeps an argmin
/// column beside its sketches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Minimum hash value over neighbors, `u64::MAX` while empty.
    pub hash: u64,
}

impl Slot {
    /// The empty slot.
    pub const EMPTY: Slot = Slot { hash: u64::MAX };

    /// Folds one neighbor's hash into the slot; `true` when it became the
    /// new minimum. Writes only on a change, which is rare once a slot
    /// has seen a few neighbors, so untouched sketches stay clean in
    /// cache.
    #[inline]
    pub(crate) fn fold(&mut self, hash: u64) -> bool {
        let lower = hash < self.hash;
        if lower {
            self.hash = hash;
        }
        lower
    }

    /// Whether any neighbor has been folded in.
    ///
    /// (`u64::MAX` as a live minimum has probability `k·2⁻⁶⁴` over a whole
    /// store — treated as impossible, like any hash-collision event.)
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hash == u64::MAX
    }
}

/// A fixed-width MinHash sketch of one vertex's neighborhood.
///
/// Exactly `k` slots of 8 bytes, allocated once at first sight of the
/// vertex — the "constant space per vertex" in the paper's claim.
///
/// It has no serde form: sketches persist through the v3 codec
/// ([`crate::codec`]), as part of a [`crate::snapshot::StoreSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// Builds a sketch directly from slot state (the decoders' path;
    /// validation happens there).
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

    /// The slots, mutably: the Tabulation store's fold, which writes an
    /// argmin column beside them.
    #[inline]
    pub(crate) fn slots_mut(&mut self) -> &mut [Slot] {
        &mut self.slots
    }

    /// Folds a neighbor into every slot. `hashes[i]` must be
    /// `h_i(neighbor)`.
    ///
    /// One endpoint's half of an edge, from precomputed hashes: the
    /// variant stores and tests use it. [`crate::SketchStore`] folds both
    /// endpoints of an edge in one pass instead (`fold_edge`), which
    /// gives bit-identical slots.
    ///
    /// # Panics
    /// Panics if `hashes.len() != self.len()`.
    #[inline]
    pub fn fold_neighbor(&mut self, hashes: &[u64]) {
        assert_eq!(hashes.len(), self.slots.len(), "hash count != slot count");
        for (slot, &h) in self.slots.iter_mut().zip(hashes) {
            slot.fold(h);
        }
    }

    /// Folds the edge `{u, v}` into `u`'s sketch (`self`) and `v`'s
    /// (`other`) in one pass over the slots: slot `i` of `self` takes
    /// `h_i(v)` and slot `i` of `other` takes `h_i(u)`, where `hashes`
    /// yields `(h_i(u), h_i(v))` in slot order.
    ///
    /// This is the per-edge hot path: both sketches stream through the
    /// cache side by side as contiguous `u64` minima, with one branch and
    /// at most one 8-byte write per slot and sketch.
    ///
    /// # Panics
    /// Panics if the sketches have different widths.
    #[inline]
    pub(crate) fn fold_edge(
        &mut self,
        other: &mut VertexSketch,
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
            su.fold(hv);
            sv.fold(hu);
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

    /// The `(index, hash)` of every slot where both sketches agree and
    /// are non-empty, in slot order.
    pub(crate) fn matched_slots<'a>(
        &'a self,
        other: &'a VertexSketch,
    ) -> impl Iterator<Item = (usize, u64)> + 'a {
        self.slots
            .iter()
            .zip(other.slots.iter())
            .enumerate()
            .filter(|(_, (a, b))| !a.is_empty() && a.hash == b.hash)
            .map(|(i, (a, _))| (i, a.hash))
    }

    /// Iterates, in slot order, the argmin vertices of slots where both
    /// sketches agree and are non-empty — min-wise samples of the
    /// neighborhood intersection (with repetition across slots). Each
    /// argmin is recovered from its slot's hash through `bank`.
    ///
    /// # Panics
    /// Panics under the Tabulation backend, which cannot be inverted: a
    /// Tabulation [`crate::SketchStore`] samples from the argmin column it
    /// keeps instead.
    pub fn matched_samples<'a>(
        &'a self,
        other: &'a VertexSketch,
        bank: &'a HasherBank,
    ) -> impl Iterator<Item = VertexId> + 'a {
        let HasherBank::Mixer(family) = bank else {
            panic!("Tabulation slots cannot be inverted to their argmins");
        };
        self.matched_slots(other)
            .map(|(i, hash)| VertexId(family.member(i).invert(hash)))
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
            a.fold(b.hash);
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
    use crate::config::{HasherBackend, SketchConfig};

    fn bank(k: usize, seed: u64) -> HasherBank {
        SketchConfig::with_slots(k).seed(seed).build_bank()
    }

    fn hashes(bank: &HasherBank, key: u64) -> Vec<u64> {
        let mut out = vec![0u64; bank.len()];
        bank.hash_all_into(key, &mut out);
        out
    }

    #[test]
    fn a_slot_is_one_word() {
        assert_eq!(std::mem::size_of::<Slot>(), 8);
        assert_eq!(VertexSketch::new(64).memory_bytes(), 8 * 64);
    }

    #[test]
    fn empty_slot_properties() {
        assert!(Slot::EMPTY.is_empty());
        assert!(!Slot { hash: 5 }.is_empty());
    }

    #[test]
    fn fold_keeps_minimum() {
        let mut s = VertexSketch::new(1);
        s.fold_neighbor(&[10]);
        s.fold_neighbor(&[20]); // larger: ignored
        assert_eq!(s.slots()[0].hash, 10);
        s.fold_neighbor(&[3]); // smaller: replaces
        assert_eq!(s.slots()[0].hash, 3);
    }

    #[test]
    fn fold_neighbor_is_idempotent() {
        let b = bank(32, 1);
        let mut a = VertexSketch::new(32);
        let h = hashes(&b, 99);
        a.fold_neighbor(&h);
        let snapshot = a.clone();
        a.fold_neighbor(&h); // duplicate edge delivery
        assert_eq!(a, snapshot);
    }

    #[test]
    fn identical_neighborhoods_match_fully() {
        let b = bank(64, 2);
        let mut x = VertexSketch::new(64);
        let mut y = VertexSketch::new(64);
        for w in 100..120u64 {
            let h = hashes(&b, w);
            x.fold_neighbor(&h);
            y.fold_neighbor(&h);
        }
        assert_eq!(x.match_count(&y), 64);
    }

    #[test]
    fn disjoint_neighborhoods_rarely_match() {
        let b = bank(64, 3);
        let mut x = VertexSketch::new(64);
        let mut y = VertexSketch::new(64);
        for w in 0..50u64 {
            x.fold_neighbor(&hashes(&b, w));
            y.fold_neighbor(&hashes(&b, w + 1000));
        }
        assert_eq!(x.match_count(&y), 0, "disjoint sets matched");
    }

    #[test]
    fn matched_samples_lie_in_intersection() {
        let b = bank(128, 4);
        let mut x = VertexSketch::new(128);
        let mut y = VertexSketch::new(128);
        // N(x) = 0..30, N(y) = 20..50; intersection = 20..30.
        for w in 0..30u64 {
            x.fold_neighbor(&hashes(&b, w));
        }
        for w in 20..50u64 {
            y.fold_neighbor(&hashes(&b, w));
        }
        let samples: Vec<_> = x.matched_samples(&y, &b).collect();
        assert!(!samples.is_empty(), "overlap produced no samples");
        for v in samples {
            assert!((20..30).contains(&v.0), "sample {v} outside intersection");
        }
    }

    #[test]
    fn matched_samples_recover_each_slots_argmin() {
        let b = bank(16, 8);
        let mut x = VertexSketch::new(16);
        for w in [7u64, 1 << 40, u64::MAX - 1] {
            x.fold_neighbor(&hashes(&b, w));
        }
        let samples: Vec<_> = x.matched_samples(&x, &b).collect();
        assert_eq!(samples.len(), 16);
        for (i, w) in samples.into_iter().enumerate() {
            assert_eq!(b.hash(i, w.0), x.slots()[i].hash, "slot {i}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot be inverted")]
    fn tabulation_samples_need_a_column() {
        let b = SketchConfig::with_slots(4)
            .backend(HasherBackend::Tabulation)
            .build_bank();
        let mut x = VertexSketch::new(4);
        x.fold_neighbor(&hashes(&b, 1));
        let _ = x.matched_samples(&x, &b).count();
    }

    #[test]
    fn merge_equals_union_fold() {
        let b = bank(32, 5);
        let mut x = VertexSketch::new(32);
        let mut y = VertexSketch::new(32);
        let mut union = VertexSketch::new(32);
        for w in 0..20u64 {
            x.fold_neighbor(&hashes(&b, w));
            union.fold_neighbor(&hashes(&b, w));
        }
        for w in 15..40u64 {
            y.fold_neighbor(&hashes(&b, w));
            union.fold_neighbor(&hashes(&b, w));
        }
        x.merge(&y);
        assert_eq!(x, union);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let b = bank(16, 6);
        let mut x = VertexSketch::new(16);
        for w in 0..5u64 {
            x.fold_neighbor(&hashes(&b, w));
        }
        let before = x.clone();
        x.merge(&VertexSketch::new(16));
        assert_eq!(x, before);
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
}
