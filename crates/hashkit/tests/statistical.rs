//! Statistical quality tests for the hash functions: uniformity
//! (chi-square over buckets), avalanche (bit-flip diffusion matrix), and
//! pairwise independence proxies. These are the empirical counterparts
//! of the independence assumptions the sketch accuracy theorems make.

use hashkit::{HashFamily, SeededHash};

/// Chi-square statistic of hashing `n` sequential keys into `buckets`
/// equal ranges. Under uniformity the statistic is ≈ buckets − 1 with
/// std dev ≈ sqrt(2·(buckets−1)).
fn chi_square(hash: impl Fn(u64) -> u64, n: u64, buckets: usize) -> f64 {
    let mut counts = vec![0u64; buckets];
    let width = u64::MAX / buckets as u64 + 1;
    for key in 0..n {
        let h = hash(key);
        counts[(h / width) as usize] += 1;
    }
    let expected = n as f64 / buckets as f64;
    counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum()
}

/// Accepts a chi-square statistic within 5 standard deviations of its
/// mean — loose enough to never flake, tight enough to catch a broken
/// mixer (which lands orders of magnitude away).
fn assert_uniform(stat: f64, buckets: usize, label: &str) {
    let dof = (buckets - 1) as f64;
    let limit = dof + 5.0 * (2.0 * dof).sqrt();
    assert!(
        stat < limit,
        "{label}: chi-square {stat:.1} exceeds {limit:.1} (dof {dof})"
    );
}

#[test]
fn mixer_uniform_on_sequential_keys() {
    // Sequential small integers are the adversarial input for a weak
    // mixer: they differ only in low bits.
    let h = SeededHash::new(42);
    assert_uniform(chi_square(|k| h.hash(k), 200_000, 256), 256, "mixer");
}

#[test]
fn mixer_uniform_on_strided_keys() {
    // Strided keys (multiples of a power of two) stress multiplicative
    // mixing.
    let h = SeededHash::new(7);
    assert_uniform(
        chi_square(|k| h.hash(k << 12), 200_000, 256),
        256,
        "strided mixer",
    );
}

#[test]
fn avalanche_matrix_is_balanced() {
    // Flipping input bit i should flip each output bit with probability
    // ~1/2. Test the worst cell of the 64x64 matrix over a key sample.
    let h = SeededHash::new(3);
    let samples = 2_000u64;
    let mut worst: f64 = 0.5;
    for in_bit in 0..64 {
        let mut flip_counts = [0u32; 64];
        for s in 0..samples {
            let key = s.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let d = h.hash(key) ^ h.hash(key ^ (1 << in_bit));
            for (out_bit, count) in flip_counts.iter_mut().enumerate() {
                *count += ((d >> out_bit) & 1) as u32;
            }
        }
        for &c in &flip_counts {
            let p = f64::from(c) / samples as f64;
            if (p - 0.5).abs() > (worst - 0.5).abs() {
                worst = p;
            }
        }
    }
    assert!(
        (worst - 0.5).abs() < 0.08,
        "worst avalanche cell probability {worst} (want ~0.5)"
    );
}

#[test]
fn family_members_have_low_match_correlation() {
    // For MinHash, what matters is that distinct family members produce
    // near-independent orderings. Proxy: for random key pairs (a, b), the
    // events "h_i(a) < h_i(b)" should agree across members ~50%.
    let fam = HashFamily::new(64, 5);
    let pairs = 2_000u64;
    let mut agreements = 0u64;
    let mut total = 0u64;
    for p in 0..pairs {
        let a = p * 2 + 1;
        let b = p * 2 + 2;
        let first = fam.member(0).hash(a) < fam.member(0).hash(b);
        for i in 1..8 {
            let other = fam.member(i).hash(a) < fam.member(i).hash(b);
            agreements += u64::from(first == other);
            total += 1;
        }
    }
    let rate = agreements as f64 / total as f64;
    assert!(
        (rate - 0.5).abs() < 0.03,
        "cross-member ordering agreement {rate} (want ~0.5)"
    );
}

#[test]
fn min_over_set_is_uniformly_placed() {
    // The argmin of a random 100-key set under different members should
    // be near-uniform over the set: no member systematically prefers
    // particular keys.
    let fam = HashFamily::new(256, 9);
    let keys: Vec<u64> = (1000..1100).collect();
    let mut win_counts = vec![0u32; keys.len()];
    for i in 0..fam.len() {
        let h = fam.member(i);
        let winner = keys
            .iter()
            .enumerate()
            .min_by_key(|(_, &k)| h.hash(k))
            .map(|(idx, _)| idx)
            .unwrap();
        win_counts[winner] += 1;
    }
    // 256 trials over 100 candidates: no key should win implausibly often.
    let max_wins = *win_counts.iter().max().unwrap();
    assert!(
        max_wins <= 12,
        "a key won the min {max_wins}/256 times (expected ~2.5)"
    );
}
