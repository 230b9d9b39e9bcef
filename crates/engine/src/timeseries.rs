//! Windowed time-series telemetry with bounded memory.
//!
//! A [`TimeSeries`] folds a stream of timestamped observations into a
//! ring of fixed-width buckets whose width is a power of two in cycles —
//! the same shift-based windowing the CCQS monitor uses (§IV-B), so a
//! telemetry window lines up exactly with a monitoring window. Two
//! reductions are supported:
//!
//! * [`SeriesKind::Counter`] — each bucket holds the sum of the deltas
//!   recorded inside its window (an event *rate* per window);
//! * [`SeriesKind::Gauge`] — each bucket holds the count/min/max/mean of
//!   the point samples recorded inside its window.
//!
//! # Bounded memory via decimation
//!
//! The ring is preallocated at construction and never reallocates: when
//! an observation lands past the last bucket, empty buckets are appended
//! up to it, and when that would exceed the configured capacity the ring
//! *decimates* — adjacent buckets are merged pairwise in place and the
//! window width doubles. A series therefore always covers the whole run
//! from cycle zero at the finest resolution that fits its capacity,
//! instead of silently dropping the tail. Memory is `O(capacity)` and
//! steady-state recording performs no heap allocation, preserving the
//! simulator's zero-allocation hot-path invariant (DESIGN.md §11).
//!
//! # Examples
//!
//! ```
//! use dynapar_engine::timeseries::{SeriesKind, TimeSeries};
//!
//! // 16-cycle windows, at most 4 buckets.
//! let mut s = TimeSeries::counter("launches", 4, 4);
//! s.add(3, 1);
//! s.add(17, 1);
//! s.add(18, 1);
//! assert_eq!(s.window_cycles(), 16);
//! assert_eq!(s.counter_values(), vec![1, 2]);
//!
//! // Recording past 4 windows halves the resolution instead of dropping.
//! s.add(100, 1);
//! assert_eq!(s.window_cycles(), 32);
//! assert_eq!(s.counter_values(), vec![3, 0, 0, 1]);
//! ```

use crate::json::Json;
use crate::snap::{ByteReader, ByteWriter, SnapError};

/// The reduction a [`TimeSeries`] applies inside each window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Sum of recorded deltas per window (an event rate).
    Counter,
    /// Count/min/max/mean of point samples per window.
    Gauge,
}

impl SeriesKind {
    /// The spelling used in the exported JSON (`"counter"` / `"gauge"`).
    pub fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
        }
    }
}

/// One window's accumulated state. Counters use `total`; gauges use
/// `count`/`sum`/`min`/`max`. Kept as one plain struct so decimation is
/// a branch-free pairwise merge.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bucket {
    count: u64,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        count: 0,
        total: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    fn merged(self, other: Bucket) -> Bucket {
        Bucket {
            count: self.count + other.count,
            total: self.total + other.total,
            sum: self.sum + other.sum,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }
}

/// A bounded-memory windowed series; see the [module docs](self).
///
/// Observations are timestamped in simulated cycles with the run origin
/// fixed at cycle zero, so bucket `i` always covers
/// `[i·2^w, (i+1)·2^w)` for the series' current window exponent `w`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    kind: SeriesKind,
    base_window_log2: u32,
    window_log2: u32,
    max_buckets: usize,
    buckets: Vec<Bucket>,
    samples: u64,
}

impl TimeSeries {
    /// Creates a counter series with `2^window_log2`-cycle windows and at
    /// most `max_buckets` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `max_buckets < 2` (decimation could not make progress)
    /// or `window_log2 >= 32` (mirrors the CCQS window bound).
    pub fn counter(name: impl Into<String>, window_log2: u32, max_buckets: usize) -> Self {
        Self::new(name, SeriesKind::Counter, window_log2, max_buckets)
    }

    /// Creates a gauge series; see [`counter`](TimeSeries::counter) for
    /// the parameters and panics.
    pub fn gauge(name: impl Into<String>, window_log2: u32, max_buckets: usize) -> Self {
        Self::new(name, SeriesKind::Gauge, window_log2, max_buckets)
    }

    fn new(
        name: impl Into<String>,
        kind: SeriesKind,
        window_log2: u32,
        max_buckets: usize,
    ) -> Self {
        assert!(max_buckets >= 2, "decimation needs at least 2 buckets");
        assert!(window_log2 < 32, "window too wide");
        TimeSeries {
            name: name.into(),
            kind,
            base_window_log2: window_log2,
            window_log2,
            max_buckets,
            buckets: Vec::with_capacity(max_buckets),
            samples: 0,
        }
    }

    /// The series name as exported.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The reduction kind.
    pub fn kind(&self) -> SeriesKind {
        self.kind
    }

    /// The construction-time window exponent (before any decimation).
    pub fn base_window_log2(&self) -> u32 {
        self.base_window_log2
    }

    /// The *current* window exponent; grows by one per decimation.
    pub fn window_log2(&self) -> u32 {
        self.window_log2
    }

    /// The current window width in cycles.
    pub fn window_cycles(&self) -> u64 {
        1u64 << self.window_log2
    }

    /// Number of buckets currently populated (including interior gaps).
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Total observations recorded over the series' lifetime.
    pub fn samples_recorded(&self) -> u64 {
        self.samples
    }

    /// Records `delta` events at cycle `now` (counter series).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) when called on a gauge series.
    pub fn add(&mut self, now: u64, delta: u64) {
        debug_assert_eq!(self.kind, SeriesKind::Counter, "add() on a gauge series");
        self.samples += 1;
        self.bucket_at(now).total += delta;
    }

    /// Records the point sample `value` at cycle `now` (gauge series).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) when called on a counter series.
    pub fn record(&mut self, now: u64, value: f64) {
        debug_assert_eq!(self.kind, SeriesKind::Gauge, "record() on a counter series");
        self.samples += 1;
        let b = self.bucket_at(now);
        b.count += 1;
        b.sum += value;
        b.min = b.min.min(value);
        b.max = b.max.max(value);
    }

    /// Returns the bucket covering `now`, appending empty gap buckets
    /// and decimating as needed. Never allocates: the vector was built
    /// with `max_buckets` capacity and its length never exceeds that.
    fn bucket_at(&mut self, now: u64) -> &mut Bucket {
        let mut idx = (now >> self.window_log2) as usize;
        while idx >= self.max_buckets {
            self.decimate();
            idx = (now >> self.window_log2) as usize;
        }
        while self.buckets.len() <= idx {
            self.buckets.push(Bucket::EMPTY);
        }
        &mut self.buckets[idx]
    }

    /// Halves the resolution in place: adjacent buckets merge pairwise
    /// and the window width doubles, so the same capacity covers twice
    /// the run length.
    fn decimate(&mut self) {
        let n = self.buckets.len();
        let half = n.div_ceil(2);
        for j in 0..half {
            let a = self.buckets[2 * j];
            let b = if 2 * j + 1 < n {
                self.buckets[2 * j + 1]
            } else {
                Bucket::EMPTY
            };
            self.buckets[j] = a.merged(b);
        }
        self.buckets.truncate(half);
        self.window_log2 += 1;
    }

    /// Serializes the dynamic state (current window exponent, sample
    /// count, buckets) for a snapshot. The identity fields — name, kind,
    /// base window, capacity — come from the constructor and are *not*
    /// serialized: [`decode_state`](Self::decode_state) targets a series
    /// freshly built with the same construction parameters.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        w.put_u32(self.window_log2);
        w.put_u64(self.samples);
        w.put_len(self.buckets.len());
        for b in &self.buckets {
            w.put_u64(b.count);
            w.put_u64(b.total);
            w.put_f64(b.sum);
            w.put_f64(b.min);
            w.put_f64(b.max);
        }
    }

    /// Restores [`encode_state`](Self::encode_state) bytes into `self`,
    /// which must have been constructed with the original parameters.
    pub fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), SnapError> {
        let window_log2 = r.get_u32()?;
        // Decimation can legally grow the exponent past the 32-bit
        // construction bound, but never past the u64 cycle domain.
        if window_log2 < self.base_window_log2 || window_log2 >= 64 {
            return Err(SnapError::Invalid("timeseries window exponent"));
        }
        let samples = r.get_u64()?;
        let n = r.get_len()?;
        if n > self.max_buckets {
            return Err(SnapError::Invalid("timeseries bucket count"));
        }
        self.window_log2 = window_log2;
        self.samples = samples;
        self.buckets.clear();
        for _ in 0..n {
            self.buckets.push(Bucket {
                count: r.get_u64()?,
                total: r.get_u64()?,
                sum: r.get_f64()?,
                min: r.get_f64()?,
                max: r.get_f64()?,
            });
        }
        Ok(())
    }

    /// The per-window sums of a counter series.
    pub fn counter_values(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.total).collect()
    }

    /// Per-window `(count, min, max, mean)` of a gauge series; `None`
    /// for windows that saw no sample.
    pub fn gauge_points(&self) -> Vec<Option<(u64, f64, f64, f64)>> {
        self.buckets
            .iter()
            .map(|b| {
                if b.count == 0 {
                    None
                } else {
                    Some((b.count, b.min, b.max, b.sum / b.count as f64))
                }
            })
            .collect()
    }

    /// Renders the series as one deterministic JSON object. Counter
    /// series carry a `values` array of per-window sums; gauge series
    /// carry a `points` array whose empty windows are `null` — an empty
    /// window is thereby distinguishable from a window that sampled 0.
    pub fn to_json(&self) -> Json {
        let data = match self.kind {
            SeriesKind::Counter => (
                "values",
                Json::Arr(self.buckets.iter().map(|b| Json::U64(b.total)).collect()),
            ),
            SeriesKind::Gauge => (
                "points",
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|b| {
                            if b.count == 0 {
                                Json::Null
                            } else {
                                Json::obj([
                                    ("count", Json::U64(b.count)),
                                    ("min", Json::F64(b.min)),
                                    ("max", Json::F64(b.max)),
                                    ("mean", Json::F64(b.sum / b.count as f64)),
                                ])
                            }
                        })
                        .collect(),
                ),
            ),
        };
        Json::obj([
            ("name", Json::str(self.name.clone())),
            ("kind", Json::str(self.kind.as_str())),
            ("window_log2", Json::U64(self.window_log2 as u64)),
            ("samples", Json::U64(self.samples)),
            data,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_per_window() {
        let mut s = TimeSeries::counter("c", 4, 8); // 16-cycle windows
        s.add(0, 2);
        s.add(15, 1);
        s.add(16, 5);
        s.add(40, 1);
        assert_eq!(s.counter_values(), vec![3, 5, 1]);
        assert_eq!(s.samples_recorded(), 4);
        assert_eq!(s.window_cycles(), 16);
    }

    #[test]
    fn gauge_reduces_min_max_mean() {
        let mut s = TimeSeries::gauge("g", 4, 8);
        s.record(1, 10.0);
        s.record(2, 30.0);
        s.record(20, 7.0);
        let pts = s.gauge_points();
        assert_eq!(pts[0], Some((2, 10.0, 30.0, 20.0)));
        assert_eq!(pts[1], Some((1, 7.0, 7.0, 7.0)));
    }

    #[test]
    fn gap_windows_stay_empty_and_export_null() {
        let mut s = TimeSeries::gauge("g", 4, 8);
        s.record(0, 1.0);
        s.record(100, 2.0); // windows 1..5 untouched
        assert_eq!(s.len(), 7);
        assert_eq!(s.gauge_points()[3], None);
        let json = s.to_json();
        let pts = json.get("points").unwrap().as_array().unwrap();
        assert_eq!(pts.len(), 7);
        assert_eq!(pts[3], Json::Null);
        assert!(pts[0].get("mean").is_some());
    }

    #[test]
    fn decimation_halves_resolution_and_conserves_totals() {
        let mut s = TimeSeries::counter("c", 0, 4); // 1-cycle windows, 4 buckets
        for t in 0..4 {
            s.add(t, 1);
        }
        assert_eq!(s.counter_values(), vec![1, 1, 1, 1]);
        s.add(4, 1); // index 4 >= 4 -> decimate once
        assert_eq!(s.window_log2(), 1);
        assert_eq!(s.counter_values(), vec![2, 2, 1]);
        s.add(100, 1); // several decimations at once
        assert_eq!(s.window_log2(), 5); // 100 >> 5 == 3 < 4
        assert_eq!(s.counter_values().iter().sum::<u64>(), 6);
        assert!(s.len() <= 4);
    }

    #[test]
    fn decimation_merges_gauge_stats() {
        let mut s = TimeSeries::gauge("g", 0, 2);
        s.record(0, 1.0);
        s.record(1, 3.0);
        s.record(2, 5.0); // forces a merge of windows 0 and 1
        let pts = s.gauge_points();
        assert_eq!(pts[0], Some((2, 1.0, 3.0, 2.0)));
        assert_eq!(pts[1], Some((1, 5.0, 5.0, 5.0)));
    }

    #[test]
    fn ring_never_reallocates() {
        let mut s = TimeSeries::counter("c", 2, 64);
        let cap = s.buckets.capacity();
        for t in 0..100_000u64 {
            s.add(t * 7, 1);
        }
        assert_eq!(s.buckets.capacity(), cap, "ring reallocated");
        assert!(s.len() <= 64);
        assert_eq!(s.counter_values().iter().sum::<u64>(), 100_000);
    }

    #[test]
    fn windows_match_ccqs_shift_semantics() {
        // A sample exactly at a window edge belongs to the *next* window,
        // matching `WindowedTimeAvg`'s `now >> window_log2` bucketing.
        let mut s = TimeSeries::counter("c", 10, 8); // 1024-cycle windows
        s.add(1023, 1);
        s.add(1024, 1);
        assert_eq!(s.counter_values(), vec![1, 1]);
    }

    #[test]
    fn json_shape_is_self_describing() {
        let mut s = TimeSeries::counter("launches", 10, 8);
        s.add(0, 1);
        let j = s.to_json();
        assert_eq!(j.get("name").unwrap().as_str(), Some("launches"));
        assert_eq!(j.get("kind").unwrap().as_str(), Some("counter"));
        assert_eq!(j.get("window_log2").unwrap().as_u64(), Some(10));
        assert_eq!(j.get("samples").unwrap().as_u64(), Some(1));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_degenerate_capacity() {
        TimeSeries::counter("c", 4, 1);
    }

    #[test]
    fn state_round_trips_through_snapshot_bytes() {
        let mut g = TimeSeries::gauge("g", 2, 4);
        g.record(0, 1.5);
        g.record(3, -2.0);
        g.record(40, 7.0); // forces decimation
        let mut w = ByteWriter::new();
        g.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut back = TimeSeries::gauge("g", 2, 4);
        let mut r = ByteReader::new(&bytes);
        back.decode_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, g);
        assert_eq!(back.to_json().to_string(), g.to_json().to_string());
        // Continuing both must agree, including further decimation.
        back.record(200, 3.0);
        g.record(200, 3.0);
        assert_eq!(back, g);
    }

    #[test]
    fn decode_rejects_impossible_state() {
        let mut s = TimeSeries::counter("c", 4, 4);
        s.add(1, 1);
        let mut w = ByteWriter::new();
        s.encode_state(&mut w);
        let bytes = w.into_bytes();

        // Window exponent below the base is impossible.
        let mut bad = bytes.clone();
        bad[0] = 0;
        let mut target = TimeSeries::counter("c", 4, 4);
        assert!(target.decode_state(&mut ByteReader::new(&bad)).is_err());

        // More buckets than capacity is impossible.
        let mut target = TimeSeries::counter("c", 4, 4);
        bad = bytes.clone();
        bad[12] = 200;
        assert!(target.decode_state(&mut ByteReader::new(&bad)).is_err());

        // Truncation surfaces as an error, not a panic.
        let mut target = TimeSeries::counter("c", 4, 4);
        assert!(target
            .decode_state(&mut ByteReader::new(&bytes[..bytes.len() - 3]))
            .is_err());
    }
}
