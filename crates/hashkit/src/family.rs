//! Seeded hash functions and independent families.
//!
//! A [`SeededHash`] is one member `h_i` of a family; a [`HashFamily`] owns
//! `k` of them with seeds derived from a single base seed via the
//! golden-gamma schedule. The sketch layer evaluates the whole family on
//! every stream edge, so [`SeededHash::hash`] is a two-multiply mixer with
//! no memory traffic.

use crate::mix::{mix64, mix64_v3, seed_schedule, unmix64};

/// One seeded 64-bit hash function over `u64` keys.
///
/// `hash(key)` is a bijection of `key` for a fixed seed (composition of
/// bijections), so distinct keys never collide under the *same* function —
/// exactly the property MinHash needs to treat slot values as proxies for
/// neighbor identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeededHash {
    seed: u64,
}

impl SeededHash {
    /// Creates a hash function from an explicit seed word.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // Pre-mix so structured seeds (0, 1, 2, ...) behave like random ones.
        Self {
            seed: mix64_v3(seed ^ 0x5851_F42D_4C95_7F2D),
        }
    }

    /// The `i`-th member of the family rooted at `base_seed`.
    #[must_use]
    pub fn member(base_seed: u64, i: u64) -> Self {
        Self {
            seed: seed_schedule(base_seed, i),
        }
    }

    /// Hashes a 64-bit key to a uniform 64-bit word.
    #[inline]
    #[must_use]
    pub fn hash(&self, key: u64) -> u64 {
        mix64(key ^ self.seed)
    }

    /// The key whose hash is `hash`: `invert(hash(key)) == key` for every
    /// key, since [`Self::hash`] is a bijection.
    ///
    /// A sketch slot stores only its minimum hash; this recovers the
    /// neighbor that achieved it.
    #[inline]
    #[must_use]
    pub fn invert(&self, hash: u64) -> u64 {
        unmix64(hash) ^ self.seed
    }

    /// The seed word backing this function (post pre-mix).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// A family of `k` independently seeded hash functions.
///
/// ```
/// use hashkit::HashFamily;
/// let fam = HashFamily::new(128, 0xC0FFEE);
/// assert_eq!(fam.len(), 128);
/// // Members disagree on the same key:
/// let h0 = fam.member(0).hash(7);
/// let h1 = fam.member(1).hash(7);
/// assert_ne!(h0, h1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashFamily {
    members: Vec<SeededHash>,
    base_seed: u64,
}

impl HashFamily {
    /// Builds `k` member functions from `base_seed`.
    ///
    /// # Panics
    /// Panics if `k == 0`; an empty family cannot sketch anything and is
    /// always a configuration bug.
    #[must_use]
    pub fn new(k: usize, base_seed: u64) -> Self {
        assert!(k > 0, "hash family must have at least one member");
        let members = (0..k as u64)
            .map(|i| SeededHash::member(base_seed, i))
            .collect();
        Self { members, base_seed }
    }

    /// Number of member functions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the family is empty (never true for constructed families).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The `i`-th member.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    #[must_use]
    pub fn member(&self, i: usize) -> SeededHash {
        self.members[i]
    }

    /// The base seed the family was derived from.
    #[must_use]
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Evaluates every member on `key`, writing into `out`.
    ///
    /// This is the per-edge hot path: `out` is a caller-owned scratch
    /// buffer so no allocation happens per edge.
    ///
    /// # Panics
    /// Panics if `out.len() != self.len()`.
    #[inline]
    pub fn hash_all_into(&self, key: u64, out: &mut [u64]) {
        assert_eq!(
            out.len(),
            self.members.len(),
            "scratch buffer size mismatch"
        );
        for (slot, h) in out.iter_mut().zip(&self.members) {
            *slot = h.hash(key);
        }
    }

    /// Iterates over the member functions.
    pub fn iter(&self) -> impl Iterator<Item = &SeededHash> {
        self.members.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_function() {
        let a = SeededHash::new(99);
        let b = SeededHash::new(99);
        for k in 0..1000 {
            assert_eq!(a.hash(k), b.hash(k));
        }
    }

    #[test]
    fn different_seeds_differ_quickly() {
        let a = SeededHash::new(1);
        let b = SeededHash::new(2);
        let agree = (0..10_000u64).filter(|&k| a.hash(k) == b.hash(k)).count();
        assert_eq!(agree, 0, "structured seeds must not alias");
    }

    #[test]
    fn hash_is_injective_on_small_ids() {
        let h = SeededHash::new(0);
        let mut seen = std::collections::HashSet::new();
        for k in 0..100_000u64 {
            assert!(seen.insert(h.hash(k)), "collision at key {k}");
        }
    }

    #[test]
    fn family_members_are_pairwise_distinct() {
        let fam = HashFamily::new(256, 7);
        for i in 0..fam.len() {
            for j in (i + 1)..fam.len() {
                assert_ne!(fam.member(i).seed(), fam.member(j).seed());
            }
        }
    }

    #[test]
    fn hash_all_into_matches_members() {
        let fam = HashFamily::new(16, 3);
        let mut out = vec![0u64; 16];
        fam.hash_all_into(12345, &mut out);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, fam.member(i).hash(12345));
        }
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_family_rejected() {
        let _ = HashFamily::new(0, 0);
    }

    #[test]
    fn family_min_is_uniform_ish() {
        // The min over a 1000-key set should fall near u64::MAX/1000 on
        // average; sanity-check the order of magnitude over 64 functions.
        let fam = HashFamily::new(64, 11);
        let mut total = 0u128;
        for h in fam.iter() {
            let min = (0..1000u64).map(|k| h.hash(k)).min().unwrap();
            total += u128::from(min);
        }
        let avg = (total / 64) as f64;
        let expected = (u64::MAX as f64) / 1001.0;
        assert!(
            avg > expected / 4.0 && avg < expected * 4.0,
            "min statistic off: avg {avg:e}, expected ~{expected:e}"
        );
    }
}
