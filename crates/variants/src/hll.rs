//! HyperLogLog cardinality sketches for distinct-degree estimation.
//!
//! The main store's degree counters assume each undirected edge arrives
//! once; real feeds re-deliver. MinHash slots shrug (idempotent), but
//! degree counters inflate, and CN/AA estimates scale with degrees. A
//! per-vertex [`HyperLogLog`] counts *distinct* neighbors in 2^p bytes,
//! which [`crate::RobustStore`] uses in place of raw counters.
//!
//! Standard construction: hash each neighbor to 64 bits; the low `p`
//! bits select a register, the position of the first set bit in the
//! remaining `64 − p` bits (counted from 1) is the rank; each register
//! keeps its maximum rank. The estimate is the bias-corrected harmonic
//! mean with linear-counting fallback for small cardinalities.

/// A HyperLogLog sketch over pre-hashed 64-bit items.
///
/// Precision `p` gives `m = 2^p` one-byte registers and a relative
/// standard error of `1.04/√m` (p = 6 → 13%, p = 10 → 3.3%).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLogLog {
    precision: u8,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// A sketch with `2^precision` registers.
    ///
    /// # Panics
    /// Panics unless `4 <= precision <= 16`.
    #[must_use]
    pub fn new(precision: u8) -> Self {
        assert!(
            (4..=16).contains(&precision),
            "precision {precision} outside 4..=16"
        );
        Self {
            precision,
            registers: vec![0; 1 << precision],
        }
    }

    /// Folds one pre-hashed item in. The argument must already be a
    /// uniform hash word (e.g. `SeededHash::hash(id)`), not a raw id.
    #[inline]
    pub fn insert_hash(&mut self, word: u64) {
        let p = self.precision;
        let index = (word & ((1 << p) - 1)) as usize;
        // Rank of the remaining bits: leading position of first 1 when
        // scanning from the LSB side of the suffix, 1-based; an all-zero
        // suffix gets the maximum rank 64 − p + 1.
        let suffix = word >> p;
        let rank = if suffix == 0 {
            64 - u32::from(p) + 1
        } else {
            suffix.trailing_zeros() + 1
        };
        let rank = rank as u8;
        if rank > self.registers[index] {
            self.registers[index] = rank;
        }
    }

    /// The cardinality estimate (bias-corrected, with linear counting
    /// for the small range).
    #[must_use]
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 2f64.powi(-i32::from(r)))
            .sum();
        let raw = alpha * m * m / sum;

        if raw <= 2.5 * m {
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                // Linear counting: m · ln(m / V).
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    /// Merges another sketch (register-wise max — exact set union).
    ///
    /// # Panics
    /// Panics if precisions differ.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(self.precision, other.precision, "precision mismatch");
        for (a, &b) in self.registers.iter_mut().zip(&other.registers) {
            if b > *a {
                *a = b;
            }
        }
    }

    /// The precision parameter `p`.
    #[must_use]
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Resident bytes (registers only).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.registers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashkit::SeededHash;

    fn estimate_of(n: u64, p: u8, seed: u64) -> f64 {
        let h = SeededHash::new(seed);
        let mut hll = HyperLogLog::new(p);
        for i in 0..n {
            hll.insert_hash(h.hash(i));
        }
        hll.estimate()
    }

    #[test]
    fn empty_estimates_zero() {
        assert_eq!(HyperLogLog::new(6).estimate(), 0.0);
    }

    #[test]
    fn small_cardinalities_are_near_exact() {
        // Linear-counting regime: tiny sets should be within ±1.
        for n in [1u64, 2, 5, 10, 20] {
            let est = estimate_of(n, 8, 3);
            assert!(
                (est - n as f64).abs() <= 1.0 + n as f64 * 0.1,
                "n = {n}: estimate {est}"
            );
        }
    }

    #[test]
    fn large_cardinalities_within_error_bound() {
        // p = 10 → σ ≈ 3.3%; allow 4σ.
        for n in [1_000u64, 10_000, 100_000] {
            let est = estimate_of(n, 10, 7);
            let rel = (est - n as f64).abs() / n as f64;
            assert!(rel < 0.14, "n = {n}: estimate {est} ({rel:.3} rel err)");
        }
    }

    #[test]
    fn error_shrinks_with_precision() {
        let n = 50_000u64;
        let rel = |p: u8| {
            // Average over seeds to damp noise.
            let mut total = 0.0;
            for seed in 0..5 {
                total += (estimate_of(n, p, seed) - n as f64).abs() / n as f64;
            }
            total / 5.0
        };
        assert!(
            rel(12) < rel(6),
            "p=12 ({}) should beat p=6 ({})",
            rel(12),
            rel(6)
        );
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let h = SeededHash::new(1);
        let mut hll = HyperLogLog::new(8);
        for _ in 0..100 {
            for i in 0..50u64 {
                hll.insert_hash(h.hash(i));
            }
        }
        let est = hll.estimate();
        assert!((est - 50.0).abs() < 10.0, "duplicates inflated: {est}");
    }

    #[test]
    fn merge_equals_union() {
        let h = SeededHash::new(5);
        let mut a = HyperLogLog::new(8);
        let mut b = HyperLogLog::new(8);
        let mut u = HyperLogLog::new(8);
        for i in 0..500u64 {
            a.insert_hash(h.hash(i));
            u.insert_hash(h.hash(i));
        }
        for i in 300..900u64 {
            b.insert_hash(h.hash(i));
            u.insert_hash(h.hash(i));
        }
        a.merge(&b);
        assert_eq!(a, u, "register-wise max must equal the union sketch");
    }

    #[test]
    fn memory_is_register_count() {
        assert_eq!(HyperLogLog::new(6).memory_bytes(), 64);
        assert_eq!(HyperLogLog::new(10).memory_bytes(), 1024);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_precision_rejected() {
        let _ = HyperLogLog::new(3);
    }

    #[test]
    #[should_panic(expected = "precision mismatch")]
    fn merge_precision_mismatch_rejected() {
        let mut a = HyperLogLog::new(6);
        a.merge(&HyperLogLog::new(8));
    }
}
