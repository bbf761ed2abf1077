//! Exact order statistics over recorded samples.
//!
//! Latencies are kept as one `u64` nanosecond value per op and ranked
//! exactly — no histogram buckets, so a percentile is a real sample, not
//! a bucket bound.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of all samples at or below it. `q` is in `[0, 1]`.
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly above the `q` percentile — the count
/// that tells whether a tail percentile rests on enough data.
#[must_use]
pub fn beyond(sorted: &[u64], q: f64) -> usize {
    let p = percentile(sorted, q);
    sorted.len() - sorted.partition_point(|&x| x <= p)
}

/// Median of real values (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&s, 0.001), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        // 1000 samples: p99 is the 990th.
        let s: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&s, 0.99), 989);
    }

    #[test]
    fn tail_counts() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(beyond(&s, 0.99), 10);
        // Ties at the percentile are not beyond it.
        let s = vec![1, 2, 2, 2, 3];
        assert_eq!(percentile(&s, 0.5), 2);
        assert_eq!(beyond(&s, 0.5), 1);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_percentile_panics() {
        let _ = percentile(&[], 0.5);
    }
}
