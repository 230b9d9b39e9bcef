//! Power-of-two-bucket latency histogram for service telemetry.
//!
//! Host-side latencies (queue wait, job execution, memo lookups) span
//! six orders of magnitude — microseconds to minutes — so the linear
//! [`super::Histogram`] is the wrong shape for them. This histogram uses
//! a *fixed* exponential geometry instead: bucket `i` counts samples in
//! `[2^(i-1), 2^i)` microseconds (bucket 0 holds exactly 0), giving
//! uniform relative resolution with a handful of counters and making
//! every two instances mergeable without negotiation.

use crate::json::Json;

/// Number of buckets. Bucket 38 tops out at `2^38` µs ≈ 3.2 days; the
/// last bucket absorbs everything above, so no sample is dropped.
pub const LATENCY_BUCKETS: usize = 40;

/// A fixed-geometry exponential histogram over microsecond samples.
///
/// All instances share the same bucket edges, so [`LatencyHistogram::merge`]
/// is always exact. Recording is a few integer ops (leading-zeros index,
/// four counter updates) — cheap enough to sit on every request path.
///
/// # Examples
///
/// ```
/// use dynapar_engine::stats::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// h.record(900);     // [512, 1024) µs
/// h.record(1_500);   // [1024, 2048) µs
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.max_us(), 1_500);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    count: u64,
    sum_us: u128,
    min_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; LATENCY_BUCKETS],
            count: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }

    /// Index of the bucket holding `us`: 0 for 0, else `⌊log2⌋ + 1`,
    /// clamped into the last bucket.
    fn bucket_index(us: u64) -> usize {
        if us == 0 {
            0
        } else {
            ((64 - us.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
        }
    }

    /// Exclusive upper edge of bucket `i` in µs (`u64::MAX` for the last).
    pub fn bucket_upper(i: usize) -> u64 {
        if i + 1 >= LATENCY_BUCKETS {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Records one latency sample in microseconds.
    pub fn record(&mut self, us: u64) {
        self.buckets[Self::bucket_index(us)] += 1;
        self.count += 1;
        self.sum_us += us as u128;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Folds `other` into `self` (always exact — shared geometry).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        if other.count > 0 {
            self.min_us = self.min_us.min(other.min_us);
            self.max_us = self.max_us.max(other.max_us);
        }
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples in µs.
    pub fn sum_us(&self) -> u128 {
        self.sum_us
    }

    /// Smallest sample in µs (`u64::MAX` when empty).
    pub fn min_us(&self) -> u64 {
        self.min_us
    }

    /// Largest sample in µs (0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Mean sample in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Raw per-bucket counts (index `i` covers `[2^(i-1), 2^i)` µs).
    pub fn buckets(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.buckets
    }

    /// Byte-stable JSON rendering.
    ///
    /// Empty buckets are elided; each occupied bucket renders as a
    /// `[upper_edge_us, count]` pair in ascending edge order:
    ///
    /// ```text
    /// {"count":2,"sum_us":2400,"min_us":900,"max_us":1500,
    ///  "buckets":[[1024,1],[2048,1]]}
    /// ```
    pub fn to_json(&self) -> Json {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Json::arr([Json::U64(Self::bucket_upper(i)), Json::U64(c)]));
        Json::obj([
            ("count", Json::U64(self.count)),
            (
                "sum_us",
                Json::U64(self.sum_us.min(u64::MAX as u128) as u64),
            ),
            (
                "min_us",
                Json::U64(if self.count == 0 { 0 } else { self.min_us }),
            ),
            ("max_us", Json::U64(self.max_us)),
            ("buckets", Json::arr(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        let mut h = LatencyHistogram::new();
        h.record(0); // bucket 0
        h.record(1); // [1,2) -> bucket 1
        h.record(2); // [2,4) -> bucket 2
        h.record(3); // [2,4) -> bucket 2
        h.record(4); // [4,8) -> bucket 3
        h.record(1023); // [512,1024) -> bucket 10
        h.record(1024); // [1024,2048) -> bucket 11
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[3], 1);
        assert_eq!(h.buckets()[10], 1);
        assert_eq!(h.buckets()[11], 1);
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn huge_samples_clamp_into_last_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 60);
        assert_eq!(h.buckets()[LATENCY_BUCKETS - 1], 2);
        assert_eq!(h.max_us(), u64::MAX);
    }

    #[test]
    fn merge_equals_single_histogram() {
        let mut all = LatencyHistogram::new();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in [0u64, 7, 900, 1 << 20] {
            all.record(v);
            a.record(v);
        }
        for v in [3u64, 1 << 33] {
            all.record(v);
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.buckets(), all.buckets());
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum_us(), all.sum_us());
        assert_eq!(a.min_us(), all.min_us());
        assert_eq!(a.max_us(), all.max_us());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = LatencyHistogram::new();
        a.record(42);
        let before = a.clone();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.buckets(), before.buckets());
        assert_eq!(a.min_us(), 42);
    }

    #[test]
    fn json_rendering_is_byte_stable() {
        let mut h = LatencyHistogram::new();
        h.record(900);
        h.record(1_500);
        let expected = concat!(
            r#"{"count":2,"sum_us":2400,"min_us":900,"max_us":1500,"#,
            r#""buckets":[[1024,1],[2048,1]]}"#
        );
        assert_eq!(h.to_json().to_string(), expected);
        assert_eq!(h.to_json().to_string(), expected); // stable across calls
    }

    #[test]
    fn empty_json_rendering() {
        let h = LatencyHistogram::new();
        assert_eq!(
            h.to_json().to_string(),
            r#"{"count":0,"sum_us":0,"min_us":0,"max_us":0,"buckets":[]}"#
        );
    }
}
