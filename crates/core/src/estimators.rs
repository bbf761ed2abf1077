//! The pure estimation formulas, isolated from sketch plumbing so the
//! math is unit-testable with synthetic match statistics.
//!
//! These functions are deliberately free of instrumentation: tracing
//! attribution for estimator work happens one level up, where
//! [`crate::SketchStore`] wraps each query in an `estimate.*` child
//! span (see [`crate::trace`]), and accuracy auditing of the estimates
//! lives in [`crate::audit`].

/// Jaccard estimate from slot agreement: `matches / k`.
///
/// Each slot agrees with probability exactly `J` (the min-wise sampling
/// property), so the match fraction is an unbiased binomial-mean estimator.
///
/// # Panics
/// Panics if `k == 0` or `matches > k`.
#[inline]
#[must_use]
pub fn jaccard_from_matches(matches: usize, k: usize) -> f64 {
    assert!(k > 0, "zero-slot sketch");
    assert!(matches <= k, "more matches ({matches}) than slots ({k})");
    matches as f64 / k as f64
}

/// Common-neighbor estimate from a Jaccard estimate and exact degrees.
///
/// From `J = CN / (d_u + d_v − CN)`, solve for `CN`:
/// `CN = J · (d_u + d_v) / (1 + J)`.
///
/// The estimate is clamped to the feasible range
/// `[0, min(d_u, d_v)]` — the identity can overshoot when `Ĵ` is noisy.
#[inline]
#[must_use]
pub fn cn_from_jaccard(jaccard: f64, deg_u: u64, deg_v: u64) -> f64 {
    debug_assert!(
        (0.0..=1.0).contains(&jaccard),
        "jaccard {jaccard} out of range"
    );
    let raw = jaccard * (deg_u + deg_v) as f64 / (1.0 + jaccard);
    raw.clamp(0.0, deg_u.min(deg_v) as f64)
}

/// The Adamic–Adar weight of a common neighbor of degree `d`.
///
/// A common neighbor has degree ≥ 2 by definition; degrees below 2 can
/// still be *observed* mid-stream (the second incident edge has not
/// arrived yet), so the degree is floored at 2 to keep the weight finite.
#[inline]
#[must_use]
pub fn aa_weight(degree: u64) -> f64 {
    1.0 / (degree.max(2) as f64).ln()
}

/// Adamic–Adar estimate from a CN estimate and the degrees of the sampled
/// common neighbors (each matched slot's argmin, with repetition).
///
/// `AA = CN · E[1/ln d(W)]` for `W` uniform on the intersection; the
/// sample mean of `aa_weight` over the matched samples estimates the
/// expectation. With no samples the estimate is 0 (no evidence of any
/// common neighbor).
#[must_use]
pub fn aa_from_samples(cn_estimate: f64, sampled_degrees: &[u64]) -> f64 {
    if sampled_degrees.is_empty() {
        return 0.0;
    }
    let mean_weight: f64 =
        sampled_degrees.iter().map(|&d| aa_weight(d)).sum::<f64>() / sampled_degrees.len() as f64;
    cn_estimate * mean_weight
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_fraction() {
        assert_eq!(jaccard_from_matches(0, 10), 0.0);
        assert_eq!(jaccard_from_matches(10, 10), 1.0);
        assert!((jaccard_from_matches(3, 12) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "more matches")]
    fn excess_matches_rejected() {
        let _ = jaccard_from_matches(11, 10);
    }

    #[test]
    fn cn_inverts_jaccard_identity_exactly() {
        // Ground truth: d_u = 10, d_v = 8, CN = 4 → J = 4/14.
        let j = 4.0 / 14.0;
        let cn = cn_from_jaccard(j, 10, 8);
        assert!((cn - 4.0).abs() < 1e-12, "got {cn}");
    }

    #[test]
    fn cn_clamps_to_feasible_range() {
        // J = 1 with unequal degrees is infeasible; clamp to min degree.
        assert_eq!(cn_from_jaccard(1.0, 10, 4), 4.0);
        assert_eq!(cn_from_jaccard(0.0, 10, 4), 0.0);
    }

    #[test]
    fn cn_monotone_in_jaccard() {
        let mut last = -1.0;
        for i in 0..=100 {
            let j = f64::from(i) / 100.0;
            let cn = cn_from_jaccard(j, 20, 30);
            assert!(cn >= last);
            last = cn;
        }
    }

    #[test]
    fn aa_weight_floors_small_degrees() {
        assert_eq!(aa_weight(0), aa_weight(2));
        assert_eq!(aa_weight(1), aa_weight(2));
        assert!((aa_weight(2) - 1.0 / 2f64.ln()).abs() < 1e-12);
        assert!(aa_weight(100) < aa_weight(2));
        assert!(aa_weight(u64::MAX).is_finite());
    }

    #[test]
    fn aa_from_samples_exact_when_uniform() {
        // CN = 6, all sampled common neighbors have degree e² → weight ½.
        // AA = 6 · ½ = 3.
        let degrees = vec![8u64; 5]; // ln 8 ≈ 2.079
        let aa = aa_from_samples(6.0, &degrees);
        assert!((aa - 6.0 / 8f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn aa_from_no_samples_is_zero() {
        assert_eq!(aa_from_samples(5.0, &[]), 0.0);
    }

    #[test]
    fn aa_averages_mixed_degrees() {
        let aa = aa_from_samples(2.0, &[2, 4]);
        let expected = 2.0 * (1.0 / 2f64.ln() + 1.0 / 4f64.ln()) / 2.0;
        assert!((aa - expected).abs() < 1e-12);
    }
}
