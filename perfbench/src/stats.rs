//! Sample statistics and the output digest.

/// FNV-1a over `bytes` — the digest the output checks compare.
pub use dynapar_engine::fnv1a_64 as digest;

/// Nearest-rank percentile `p` (0–100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// Median (nearest-rank p50); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest whole percentile that still has at least ten samples
/// beyond it among `n` samples, or `None` when no percentile has: the
/// highest tail percentile that summarises more than a handful of
/// slow samples.
pub fn highest_percentile(n: usize) -> Option<u32> {
    (1..=100)
        .rev()
        .find(|&p| n >= 1 && n - rank(n, f64::from(p)) >= 10)
}

/// Nearest-rank percentile of a power-of-two latency histogram, read
/// from its `[[upper_bound, count], …]` buckets: the upper bound of the
/// bucket holding the rank. 0 when the histogram is empty.
pub fn bucket_percentile(buckets: &[(u64, u64)], p: f64) -> u64 {
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0;
    }
    let want = rank(total as usize, p) as u64;
    let mut seen = 0;
    for &(upper, count) in buckets {
        seen += count;
        if seen >= want {
            return upper;
        }
    }
    buckets.last().map_or(0, |&(upper, _)| upper)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&s), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(10), None);
        // 11 samples: only the lowest rank has ten beyond it.
        assert_eq!(highest_percentile(11), Some(9));
        assert_eq!(highest_percentile(20), Some(50));
        assert_eq!(highest_percentile(99), Some(89));
        assert_eq!(highest_percentile(100), Some(90));
        assert_eq!(highest_percentile(1000), Some(99));
        for n in 11..500 {
            let p = highest_percentile(n).expect("qualifies");
            assert!(n - rank(n, f64::from(p)) >= 10);
            if p < 100 {
                assert!(n - rank(n, f64::from(p + 1)) < 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn histogram_percentile_reads_bucket_bounds() {
        let b = [(2, 1), (8, 2), (64, 7)];
        assert_eq!(bucket_percentile(&b, 10.0), 2);
        assert_eq!(bucket_percentile(&b, 30.0), 8);
        assert_eq!(bucket_percentile(&b, 50.0), 64);
        assert_eq!(bucket_percentile(&[], 50.0), 0);
    }

    #[test]
    fn digest_is_fnv1a_and_order_sensitive() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(digest(b"{\"ok\":true}"), digest(b"{\"ok\":tru3}"));
        assert_ne!(digest(b"ab"), digest(b"ba"));
    }
}
