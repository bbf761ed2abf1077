//! Single-word 64-bit mixers (bijective finalizers).
//!
//! These are the workhorses of the crate: every seeded hash evaluation is
//! one or two rounds of a mixer over `key ^ f(seed)`. All mixers here are
//! *bijections* on `u64`, which matters for sketching: a bijection cannot
//! introduce collisions between distinct vertex ids, so MinHash ties can
//! only come from genuinely equal neighbors (up to the negligible
//! birthday-bound collisions across different hash functions).

/// Golden-ratio increment used by SplitMix64-style sequences.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer (Stafford "Mix13" variant).
///
/// A bijective avalanche function: every input bit flips each output bit
/// with probability ≈ 1/2. Used as the default mixer throughout.
///
/// ```
/// use hashkit::mix64;
/// assert_ne!(mix64(1), mix64(2));
/// assert_eq!(mix64(42), mix64(42));
/// ```
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pelle Evensen's `moremur` mixer — a stronger (slightly slower)
/// alternative finalizer with better low-entropy-input behaviour.
///
/// Exposed so the family layer can double-round small keys cheaply.
#[inline]
#[must_use]
pub fn mix64_v3(mut z: u64) -> u64 {
    z = (z ^ (z >> 27)).wrapping_mul(0x3C79_AC49_2BA7_B653);
    z = (z ^ (z >> 33)).wrapping_mul(0x1C69_B3F7_4AC4_AE35);
    z ^ (z >> 27)
}

/// Multiplicative inverse of [`mix64`]'s first constant.
const INV_MUL1: u64 = inverse_odd(0xBF58_476D_1CE4_E5B9);
/// Multiplicative inverse of [`mix64`]'s second constant.
const INV_MUL2: u64 = inverse_odd(0x94D0_49BB_1331_11EB);

/// Inverse of [`mix64`].
///
/// Recovers a sketch slot's argmin from its hash
/// ([`crate::SeededHash::invert`]), so the Adamic–Adar and
/// resource-allocation estimators call it once per matched slot. Both
/// multiplicative inverses are compile-time constants.
#[inline]
#[must_use]
pub fn unmix64(mut z: u64) -> u64 {
    z = unxorshift::<31>(z);
    z = z.wrapping_mul(INV_MUL2);
    z = unxorshift::<27>(z);
    z = z.wrapping_mul(INV_MUL1);
    unxorshift::<30>(z)
}

/// Inverts `x -> x ^ (x >> S)` in closed form for `22 <= S <= 31`.
#[inline]
fn unxorshift<const S: u32>(y: u64) -> u64 {
    // y = x ^ (x >> S) gives x = y ^ (y >> S) ^ (x >> 3S), and x >> 3S
    // is 0 once 3S >= 64. 2S < 64 keeps the last shift in range.
    const { assert!(22 <= S && S <= 31, "closed form needs 22 <= S <= 31") };
    y ^ (y >> S) ^ (y >> (2 * S))
}

/// Multiplicative inverse of an odd 64-bit constant (Newton iteration).
const fn inverse_odd(a: u64) -> u64 {
    // x_{n+1} = x_n * (2 - a * x_n) doubles correct low bits each step.
    let mut x: u64 = a; // a is its own inverse mod 2^3 for odd a
    let mut i = 0;
    while i < 6 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
        i += 1;
    }
    x
}

/// Derives the `i`-th seed word from a base seed, SplitMix64-style.
///
/// The schedule walks the golden-gamma Weyl sequence and finalizes each
/// step, giving well-separated, reproducible per-function seeds.
#[inline]
#[must_use]
pub fn seed_schedule(base: u64, i: u64) -> u64 {
    mix64(base.wrapping_add(GOLDEN_GAMMA.wrapping_mul(i.wrapping_add(1))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic() {
        assert_eq!(mix64(0xDEAD_BEEF), mix64(0xDEAD_BEEF));
    }

    #[test]
    fn mix64_zero_fixed_point_is_known_and_contained() {
        // mix64(0) == 0 is a known fixed point of the SplitMix64
        // finalizer (and of any xorshift-multiply chain). The seeded
        // layer XORs a pre-mixed seed before finalizing, so a zero *key*
        // never reaches the mixer as a zero *input* in practice. Document
        // the fixed point here so nobody "fixes" it silently.
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64_v3(0), 0);
        // The containment: a seeded hash of key 0 is well mixed.
        let h = crate::family::SeededHash::new(0);
        assert_ne!(h.hash(0), 0);
        assert!(h.hash(0).count_ones() >= 16);
    }

    #[test]
    fn unmix64_inverts_mix64() {
        for k in [0u64, 1, 2, 3, 42, u64::MAX, 0x0123_4567_89AB_CDEF] {
            assert_eq!(unmix64(mix64(k)), k, "round trip failed for {k}");
        }
        // and a dense small-integer range, the common vertex-id shape
        for k in 0..10_000u64 {
            assert_eq!(unmix64(mix64(k)), k);
        }
    }

    fn assert_unxorshift_inverts<const S: u32>() {
        for k in [0u64, 1, 0xFFFF_FFFF, u64::MAX, 0xA5A5_5A5A_0F0F_F0F0] {
            assert_eq!(unxorshift::<S>(k ^ (k >> S)), k, "shift {S} key {k}");
        }
    }

    #[test]
    fn unxorshift_inverts_every_supported_shift() {
        assert_unxorshift_inverts::<22>();
        assert_unxorshift_inverts::<23>();
        assert_unxorshift_inverts::<24>();
        assert_unxorshift_inverts::<25>();
        assert_unxorshift_inverts::<26>();
        assert_unxorshift_inverts::<27>();
        assert_unxorshift_inverts::<28>();
        assert_unxorshift_inverts::<29>();
        assert_unxorshift_inverts::<30>();
        assert_unxorshift_inverts::<31>();
    }

    #[test]
    fn inverse_odd_is_inverse() {
        for a in [
            1u64,
            3,
            0xBF58_476D_1CE4_E5B9,
            0x94D0_49BB_1331_11EB,
            u64::MAX,
        ] {
            assert_eq!(a.wrapping_mul(inverse_odd(a)), 1, "constant {a:#x}");
        }
    }

    #[test]
    fn unmix_constants_invert_the_mix_constants() {
        assert_eq!(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(INV_MUL1), 1);
        assert_eq!(0x94D0_49BB_1331_11EBu64.wrapping_mul(INV_MUL2), 1);
    }

    #[test]
    fn seed_schedule_produces_distinct_seeds() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096 {
            assert!(seen.insert(seed_schedule(7, i)), "collision at {i}");
        }
    }

    #[test]
    fn mixers_avalanche_on_adjacent_inputs() {
        // Flipping one low input bit should flip ~32 output bits; require
        // at least 16 to catch gross regressions without flakiness.
        for k in 0..1000u64 {
            let d = (mix64(k) ^ mix64(k + 1)).count_ones();
            assert!(d >= 16, "weak avalanche at {k}: {d} bits");
            let d3 = (mix64_v3(k) ^ mix64_v3(k + 1)).count_ones();
            assert!(d3 >= 16, "weak v3 avalanche at {k}: {d3} bits");
        }
    }
}
