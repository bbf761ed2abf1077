//! Property-based tests for hashkit invariants.

use hashkit::{exp_rank, mix64, unit_uniform, unmix64, HashFamily, SeededHash};
use proptest::prelude::*;

proptest! {
    /// mix64 is a bijection: unmix64 inverts it on arbitrary inputs.
    #[test]
    fn mix64_bijective(x in any::<u64>()) {
        prop_assert_eq!(unmix64(mix64(x)), x);
    }

    /// Distinct keys never collide under a fixed seeded hash (bijection).
    #[test]
    fn seeded_hash_injective(seed in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let h = SeededHash::new(seed);
        prop_assert_ne!(h.hash(a), h.hash(b));
    }

    /// `invert` recovers the key from its hash, for constructed and
    /// family-member functions alike.
    #[test]
    fn seeded_hash_invert_recovers_key(seed in any::<u64>(), i in any::<u64>(), key in any::<u64>()) {
        for h in [SeededHash::new(seed), SeededHash::member(seed, i)] {
            prop_assert_eq!(h.invert(h.hash(key)), key);
        }
    }

    /// Hashing is a pure function of (seed, key).
    #[test]
    fn seeded_hash_deterministic(seed in any::<u64>(), key in any::<u64>()) {
        prop_assert_eq!(SeededHash::new(seed).hash(key), SeededHash::new(seed).hash(key));
    }

    /// unit_uniform always lands in (0, 1].
    #[test]
    fn unit_uniform_in_range(word in any::<u64>()) {
        let u = unit_uniform(word);
        prop_assert!(u > 0.0 && u <= 1.0);
    }

    /// Exponential ranks are finite and nonnegative for sane weights.
    #[test]
    fn exp_rank_finite(word in any::<u64>(), w in 1e-6f64..1e6) {
        let r = exp_rank(word, w);
        prop_assert!(r.is_finite() && r >= 0.0);
    }

    /// Rank ordering between two fixed words is monotone in weight:
    /// increasing my weight can only improve (reduce) my rank.
    #[test]
    fn exp_rank_monotone_in_weight(word in any::<u64>(), w in 1e-3f64..1e3) {
        prop_assert!(exp_rank(word, w * 2.0) <= exp_rank(word, w));
    }

    /// Family members are consistent with direct member construction.
    #[test]
    fn family_matches_members(k in 1usize..64, seed in any::<u64>(), key in any::<u64>()) {
        let fam = HashFamily::new(k, seed);
        let mut out = vec![0u64; k];
        fam.hash_all_into(key, &mut out);
        for (i, &word) in out.iter().enumerate() {
            prop_assert_eq!(word, SeededHash::member(seed, i as u64).hash(key));
        }
    }
}
