//! Sketch configuration and the hasher-bank abstraction.

use hashkit::{HashFamily, TabulationHash};
use serde::{Deserialize, Serialize};

/// Which hash family backs the sketch slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum HasherBackend {
    /// SplitMix64-style seeded mixers: two multiplies per evaluation, the
    /// fast default.
    #[default]
    Mixer,
    /// Simple tabulation hashing: 3-independent with strong theoretical
    /// backing, eight table lookups per evaluation, ~16 KiB tables per
    /// slot. The "paranoid" backend for validating the accuracy theorems.
    Tabulation,
}

/// Configuration for a [`crate::SketchStore`].
///
/// Built with a fluent builder:
///
/// ```
/// use streamlink_core::{HasherBackend, SketchConfig};
/// let cfg = SketchConfig::with_slots(128)
///     .seed(0xFEED)
///     .backend(HasherBackend::Tabulation);
/// assert_eq!(cfg.slots(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SketchConfig {
    slots: usize,
    seed: u64,
    backend: HasherBackend,
}

impl SketchConfig {
    /// A config with `slots` sketch slots per vertex and defaults for the
    /// rest (seed 0, mixer backend).
    ///
    /// # Panics
    /// Panics if `slots == 0`.
    #[must_use]
    pub fn with_slots(slots: usize) -> Self {
        assert!(slots > 0, "a sketch needs at least one slot");
        Self {
            slots,
            seed: 0,
            backend: HasherBackend::Mixer,
        }
    }

    /// Sets the base seed; all hash functions derive from it.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the hasher backend.
    #[must_use]
    pub fn backend(mut self, backend: HasherBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Number of slots per vertex sketch.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The base seed.
    #[must_use]
    pub fn base_seed(&self) -> u64 {
        self.seed
    }

    /// The selected backend.
    #[must_use]
    pub fn hasher_backend(&self) -> HasherBackend {
        self.backend
    }

    /// Instantiates the hasher bank for this config.
    #[must_use]
    pub fn build_bank(&self) -> HasherBank {
        match self.backend {
            HasherBackend::Mixer => HasherBank::Mixer(HashFamily::new(self.slots, self.seed)),
            HasherBackend::Tabulation => HasherBank::Tabulation(
                (0..self.slots as u64)
                    .map(|i| TabulationHash::new(self.seed ^ i.wrapping_mul(0x9E37_79B9)))
                    .collect(),
            ),
        }
    }
}

/// A bank of `k` hash functions, one per sketch slot.
#[derive(Debug, Clone)]
pub enum HasherBank {
    /// Mixer-family bank.
    Mixer(HashFamily),
    /// Tabulation bank.
    Tabulation(Vec<TabulationHash>),
}

impl HasherBank {
    /// Number of functions in the bank.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            HasherBank::Mixer(f) => f.len(),
            HasherBank::Tabulation(t) => t.len(),
        }
    }

    /// Whether the bank is empty (never true for built banks).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot `i`'s hash of `key`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    #[must_use]
    pub fn hash(&self, i: usize, key: u64) -> u64 {
        match self {
            HasherBank::Mixer(f) => f.member(i).hash(key),
            HasherBank::Tabulation(t) => t[i].hash(key),
        }
    }

    /// The key whose slot-`i` hash is `hash`: a Mixer slot function is a
    /// bijection, so this recovers a slot's argmin from its minimum.
    /// `None` under Tabulation, which is not invertible.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    #[must_use]
    pub fn invert(&self, i: usize, hash: u64) -> Option<u64> {
        match self {
            HasherBank::Mixer(f) => Some(f.member(i).invert(hash)),
            HasherBank::Tabulation(_) => None,
        }
    }

    /// Evaluates all functions on `key` into the caller's scratch buffer
    /// (the per-edge hot path — no allocation).
    ///
    /// # Panics
    /// Panics if `out.len() != self.len()`.
    #[inline]
    pub fn hash_all_into(&self, key: u64, out: &mut [u64]) {
        match self {
            HasherBank::Mixer(f) => f.hash_all_into(key, out),
            HasherBank::Tabulation(t) => {
                assert_eq!(out.len(), t.len(), "scratch buffer size mismatch");
                for (slot, h) in out.iter_mut().zip(t) {
                    *slot = h.hash(key);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let cfg = SketchConfig::with_slots(64)
            .seed(9)
            .backend(HasherBackend::Tabulation);
        assert_eq!(cfg.slots(), 64);
        assert_eq!(cfg.base_seed(), 9);
        assert_eq!(cfg.hasher_backend(), HasherBackend::Tabulation);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = SketchConfig::with_slots(0);
    }

    #[test]
    fn banks_have_config_size() {
        for backend in [HasherBackend::Mixer, HasherBackend::Tabulation] {
            let bank = SketchConfig::with_slots(17).backend(backend).build_bank();
            assert_eq!(bank.len(), 17);
            assert!(!bank.is_empty());
        }
    }

    #[test]
    fn banks_are_deterministic() {
        for backend in [HasherBackend::Mixer, HasherBackend::Tabulation] {
            let cfg = SketchConfig::with_slots(8).seed(3).backend(backend);
            let (a, b) = (cfg.build_bank(), cfg.build_bank());
            let mut oa = vec![0u64; 8];
            let mut ob = vec![0u64; 8];
            a.hash_all_into(42, &mut oa);
            b.hash_all_into(42, &mut ob);
            assert_eq!(oa, ob);
        }
    }

    #[test]
    fn bank_members_are_independent() {
        let bank = SketchConfig::with_slots(16).build_bank();
        let mut out = vec![0u64; 16];
        bank.hash_all_into(7, &mut out);
        let distinct: std::collections::HashSet<_> = out.iter().collect();
        assert_eq!(distinct.len(), 16, "slot functions alias each other");
    }

    #[test]
    fn mixer_banks_invert_and_tabulation_banks_do_not() {
        let mixer = SketchConfig::with_slots(8).seed(4).build_bank();
        for i in 0..8 {
            for key in [0, 1, 77, u64::MAX] {
                assert_eq!(mixer.invert(i, mixer.hash(i, key)), Some(key));
            }
        }
        let tab = SketchConfig::with_slots(8)
            .backend(HasherBackend::Tabulation)
            .build_bank();
        assert_eq!(tab.invert(3, tab.hash(3, 77)), None);
    }

    #[test]
    fn backends_disagree() {
        let mut a = vec![0u64; 4];
        let mut b = vec![0u64; 4];
        SketchConfig::with_slots(4)
            .build_bank()
            .hash_all_into(5, &mut a);
        SketchConfig::with_slots(4)
            .backend(HasherBackend::Tabulation)
            .build_bank()
            .hash_all_into(5, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = SketchConfig::with_slots(32)
            .seed(1)
            .backend(HasherBackend::Tabulation);
        let json = serde_json::to_string(&cfg).unwrap();
        assert_eq!(cfg, serde_json::from_str(&json).unwrap());
    }
}
