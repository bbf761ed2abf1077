//! Sketch configuration.

use hashkit::HashFamily;
use serde::{Deserialize, Serialize};

/// Configuration for a [`crate::SketchStore`].
///
/// Built with a fluent builder:
///
/// ```
/// use streamlink_core::SketchConfig;
/// let cfg = SketchConfig::with_slots(128).seed(0xFEED);
/// assert_eq!(cfg.slots(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SketchConfig {
    slots: usize,
    seed: u64,
}

impl SketchConfig {
    /// A config with `slots` sketch slots per vertex and seed 0.
    ///
    /// # Panics
    /// Panics if `slots == 0`.
    #[must_use]
    pub fn with_slots(slots: usize) -> Self {
        assert!(slots > 0, "a sketch needs at least one slot");
        Self { slots, seed: 0 }
    }

    /// Sets the base seed; all hash functions derive from it.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
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

    /// The `k` slot hash functions for this config, one per slot. Each is
    /// a bijection, so a slot's argmin is `family.member(i).invert(hash)`.
    #[must_use]
    pub fn build_bank(&self) -> HashFamily {
        HashFamily::new(self.slots, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let cfg = SketchConfig::with_slots(64).seed(9);
        assert_eq!(cfg.slots(), 64);
        assert_eq!(cfg.base_seed(), 9);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = SketchConfig::with_slots(0);
    }

    #[test]
    fn banks_have_config_size() {
        let bank = SketchConfig::with_slots(17).build_bank();
        assert_eq!(bank.len(), 17);
        assert!(!bank.is_empty());
    }

    #[test]
    fn banks_are_deterministic() {
        let cfg = SketchConfig::with_slots(8).seed(3);
        let (a, b) = (cfg.build_bank(), cfg.build_bank());
        let mut oa = vec![0u64; 8];
        let mut ob = vec![0u64; 8];
        a.hash_all_into(42, &mut oa);
        b.hash_all_into(42, &mut ob);
        assert_eq!(oa, ob);
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
    fn banks_invert_every_slot() {
        let bank = SketchConfig::with_slots(8).seed(4).build_bank();
        for i in 0..8 {
            let h = bank.member(i);
            for key in [0, 1, 77, u64::MAX] {
                assert_eq!(h.invert(h.hash(key)), key);
            }
        }
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = SketchConfig::with_slots(32).seed(1);
        let json = serde_json::to_string(&cfg).unwrap();
        assert_eq!(cfg, serde_json::from_str(&json).unwrap());
    }
}
