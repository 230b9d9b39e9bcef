//! Windowed averages, mirroring the paper's proposed hardware.
//!
//! §IV-B: *"We compute `n_con` over a window of 1024 cycles. At every cycle,
//! we add the number of concurrently executing child CTAs to `n_con` and,
//! at the end of the window, we bit-shift `n_con` by 10 bits to the right to
//! obtain the average … This average number is then used over the next
//! window until a new value of `n_con` is calculated."*
//!
//! A cycle-stepped simulator would literally add every cycle; this
//! event-driven implementation integrates the step function between change
//! points, which produces the identical sum, then applies the same
//! shift-based division at window boundaries.

use crate::Cycle;

/// Time-weighted average of an integer-valued step function over
/// power-of-two cycle windows.
///
/// The reported [`value`](WindowedTimeAvg::value) is the average from the
/// most recently *completed* window (the paper's semantics), and `0` before
/// the first window completes.
///
/// # Examples
///
/// ```
/// use dynapar_engine::{Cycle, stats::WindowedTimeAvg};
///
/// let mut w = WindowedTimeAvg::new(10); // 1024-cycle windows
/// w.set(Cycle(0), 8);
/// w.advance(Cycle(1024));
/// assert_eq!(w.value(), 8); // constant 8 across the whole window
/// ```
#[derive(Debug, Clone)]
pub struct WindowedTimeAvg {
    window_log2: u32,
    window_start: Cycle,
    accum: u64,
    current: u64,
    last_update: Cycle,
    reported: u64,
    completed_windows: u64,
}

impl WindowedTimeAvg {
    /// Creates an averager with `2^window_log2`-cycle windows.
    ///
    /// # Panics
    ///
    /// Panics if `window_log2 >= 32` (windows that long are certainly a bug).
    pub fn new(window_log2: u32) -> Self {
        assert!(window_log2 < 32, "window too large");
        WindowedTimeAvg {
            window_log2,
            window_start: Cycle::ZERO,
            accum: 0,
            current: 0,
            last_update: Cycle::ZERO,
            reported: 0,
            completed_windows: 0,
        }
    }

    fn window_len(&self) -> u64 {
        1u64 << self.window_log2
    }

    /// Integrates the step function up to `now`, folding completed windows.
    ///
    /// O(1) however far `now` lies ahead: every window that starts and
    /// ends inside the gap holds `current` throughout, so the last of
    /// them alone decides the reported value.
    pub fn advance(&mut self, now: Cycle) {
        debug_assert!(now >= self.last_update, "time went backwards");
        if now > self.last_update {
            let len = self.window_len();
            let (start, t, now_u) = (
                self.window_start.as_u64(),
                self.last_update.as_u64(),
                now.as_u64(),
            );
            if now_u - start < len {
                self.accum += self.current * (now_u - t);
            } else {
                // Close the window `t` falls in ...
                self.accum += self.current * (start + len - t);
                self.reported = self.accum >> self.window_log2;
                // ... then every whole window up to `now`, at `current`.
                let closed = (now_u - start) >> self.window_log2;
                if closed > 1 {
                    self.reported = (self.current * len) >> self.window_log2;
                }
                self.completed_windows += closed;
                self.window_start = Cycle(start + (closed << self.window_log2));
                self.accum = self.current * (now_u - self.window_start.as_u64());
            }
        }
        self.last_update = now;
    }

    /// Sets the instantaneous value at time `now` (integrating up to it first).
    pub fn set(&mut self, now: Cycle, value: u64) {
        self.advance(now);
        self.current = value;
    }

    /// Adds `delta` to the instantaneous value at time `now`.
    pub fn add(&mut self, now: Cycle, delta: i64) {
        self.advance(now);
        self.current = if delta >= 0 {
            self.current + delta as u64
        } else {
            self.current.saturating_sub((-delta) as u64)
        };
    }

    /// The average from the most recently completed window (0 before any).
    pub fn value(&self) -> u64 {
        self.reported
    }

    /// The instantaneous (un-averaged) value.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// Number of windows completed so far.
    pub fn completed_windows(&self) -> u64 {
        self.completed_windows
    }
}

/// Per-window average of discrete event samples.
///
/// Used for `t_warp` (average child-warp execution time), which the paper
/// also computes "in a windowed fashion": samples recorded during a window
/// are averaged when the window closes, and that average holds during the
/// following window. Falls back to the all-time mean while the current
/// window's report is empty, so early launch decisions have *some* estimate.
///
/// # Examples
///
/// ```
/// use dynapar_engine::{Cycle, stats::WindowedEventAvg};
///
/// let mut w = WindowedEventAvg::new(10);
/// w.record(Cycle(5), 100);
/// w.record(Cycle(9), 300);
/// w.advance(Cycle(1024));
/// assert_eq!(w.value(), 200);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedEventAvg {
    window_log2: u32,
    window_start: Cycle,
    sum: u64,
    count: u64,
    reported: u64,
    total_sum: u128,
    total_count: u64,
}

impl WindowedEventAvg {
    /// Creates an averager with `2^window_log2`-cycle windows.
    pub fn new(window_log2: u32) -> Self {
        assert!(window_log2 < 32, "window too large");
        WindowedEventAvg {
            window_log2,
            window_start: Cycle::ZERO,
            sum: 0,
            count: 0,
            reported: 0,
            total_sum: 0,
            total_count: 0,
        }
    }

    /// Closes every window that ends at or before `now`. O(1) however
    /// far `now` lies ahead: only the first closed window can hold
    /// samples, and empty windows leave `reported` alone.
    fn roll_to(&mut self, now: Cycle) {
        let elapsed = now.as_u64().saturating_sub(self.window_start.as_u64());
        let closed = elapsed >> self.window_log2;
        if closed > 0 {
            if let Some(avg) = self.sum.checked_div(self.count) {
                self.reported = avg;
            }
            self.sum = 0;
            self.count = 0;
            self.window_start += closed << self.window_log2;
        }
    }

    /// Advances window bookkeeping to `now` without recording a sample.
    pub fn advance(&mut self, now: Cycle) {
        self.roll_to(now);
    }

    /// Records one sample observed at `now`.
    pub fn record(&mut self, now: Cycle, value: u64) {
        self.roll_to(now);
        // Saturating: a sum no real run can reach must not panic either.
        self.sum = self.sum.saturating_add(value);
        self.count += 1;
        self.total_sum += value as u128;
        self.total_count += 1;
    }

    /// Average from the last completed non-empty window, falling back to the
    /// all-time mean, and to 0 when nothing has ever been recorded.
    pub fn value(&self) -> u64 {
        if self.reported > 0 {
            self.reported
        } else if self.total_count > 0 {
            (self.total_sum / self.total_count as u128) as u64
        } else {
            0
        }
    }

    /// Total number of samples ever recorded.
    pub fn total_count(&self) -> u64 {
        self.total_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_avg_constant_signal() {
        let mut w = WindowedTimeAvg::new(4); // 16-cycle windows
        w.set(Cycle(0), 5);
        w.advance(Cycle(16));
        assert_eq!(w.value(), 5);
        assert_eq!(w.completed_windows(), 1);
    }

    #[test]
    fn time_avg_half_window_step() {
        let mut w = WindowedTimeAvg::new(4);
        w.set(Cycle(0), 0);
        w.set(Cycle(8), 16); // high for the second half of the window
        w.advance(Cycle(16));
        assert_eq!(w.value(), 8); // (0*8 + 16*8) >> 4
    }

    #[test]
    fn time_avg_holds_between_windows() {
        let mut w = WindowedTimeAvg::new(4);
        w.set(Cycle(0), 10);
        w.advance(Cycle(16));
        assert_eq!(w.value(), 10);
        // Mid-window changes do not affect the reported value yet.
        w.set(Cycle(20), 0);
        assert_eq!(w.value(), 10);
        w.advance(Cycle(32));
        // Second window: 10 for 4 cycles, 0 for 12 -> 40 >> 4 = 2.
        assert_eq!(w.value(), 2);
    }

    #[test]
    fn time_avg_spans_multiple_windows() {
        let mut w = WindowedTimeAvg::new(4);
        w.set(Cycle(0), 3);
        w.advance(Cycle(160)); // 10 windows
        assert_eq!(w.completed_windows(), 10);
        assert_eq!(w.value(), 3);
    }

    #[test]
    fn time_avg_add_and_saturation() {
        let mut w = WindowedTimeAvg::new(4);
        w.add(Cycle(0), 5);
        assert_eq!(w.current(), 5);
        w.add(Cycle(1), -3);
        assert_eq!(w.current(), 2);
        w.add(Cycle(2), -10); // saturates at 0 rather than wrapping
        assert_eq!(w.current(), 0);
    }

    #[test]
    fn event_avg_basic() {
        let mut w = WindowedEventAvg::new(4);
        assert_eq!(w.value(), 0);
        w.record(Cycle(1), 10);
        w.record(Cycle(2), 30);
        // Window not yet complete: falls back to all-time mean.
        assert_eq!(w.value(), 20);
        w.advance(Cycle(16));
        assert_eq!(w.value(), 20);
    }

    #[test]
    fn event_avg_window_isolation() {
        let mut w = WindowedEventAvg::new(4);
        w.record(Cycle(0), 100);
        w.advance(Cycle(16));
        assert_eq!(w.value(), 100);
        w.record(Cycle(17), 10);
        w.record(Cycle(18), 20);
        w.advance(Cycle(32));
        assert_eq!(w.value(), 15);
        assert_eq!(w.total_count(), 3);
    }

    #[test]
    fn event_avg_empty_window_keeps_previous() {
        let mut w = WindowedEventAvg::new(4);
        w.record(Cycle(0), 42);
        w.advance(Cycle(16));
        w.advance(Cycle(64)); // empty windows pass
        assert_eq!(w.value(), 42);
    }

    /// The original window-by-window integration, kept as the oracle
    /// for the O(1) gap skipping in `advance`.
    fn stepped_time_avg(log2: u32, steps: &[(u64, i64)], end: u64) -> (u64, u64, u64) {
        let len = 1u64 << log2;
        let (mut start, mut accum, mut current, mut last) = (0u64, 0u64, 0u64, 0u64);
        let (mut reported, mut completed) = (0u64, 0u64);
        let mut advance = |now: u64, current: u64, accum: &mut u64, last: &mut u64| {
            let mut t = *last;
            while t < now {
                let window_end = start + len;
                let seg_end = window_end.min(now);
                *accum += current * (seg_end - t);
                t = seg_end;
                if t == window_end {
                    reported = *accum >> log2;
                    *accum = 0;
                    start = window_end;
                    completed += 1;
                }
            }
            *last = now;
        };
        for &(at, delta) in steps {
            advance(at, current, &mut accum, &mut last);
            current = current.saturating_add_signed(delta);
        }
        advance(end, current, &mut accum, &mut last);
        (reported, completed, accum)
    }

    #[test]
    fn gap_skipping_matches_window_by_window_integration() {
        let mut rng = crate::DetRng::new(0x3a11);
        for case in 0..200 {
            let log2 = 1 + rng.below(6) as u32;
            let mut at = 0u64;
            let steps: Vec<(u64, i64)> = (0..rng.below(20))
                .map(|_| {
                    at += rng.below(1 << (log2 + 3));
                    (at, rng.below(9) as i64 - 4)
                })
                .collect();
            let end = at + rng.below(1 << (log2 + 4));
            let mut w = WindowedTimeAvg::new(log2);
            for &(t, delta) in &steps {
                w.add(Cycle(t), delta);
            }
            w.advance(Cycle(end));
            let (reported, completed, accum) = stepped_time_avg(log2, &steps, end);
            assert_eq!(w.value(), reported, "case {case}");
            assert_eq!(w.completed_windows(), completed, "case {case}");
            assert_eq!(w.accum, accum, "case {case}");
        }
    }

    #[test]
    fn huge_gaps_cost_nothing() {
        let mut t = WindowedTimeAvg::new(10);
        t.set(Cycle(0), 7);
        t.advance(Cycle(u64::MAX / 2));
        assert_eq!(t.value(), 7);
        assert_eq!(t.completed_windows(), (u64::MAX / 2) >> 10);
        let mut e = WindowedEventAvg::new(10);
        e.record(Cycle(0), u64::MAX);
        e.record(Cycle(1), u64::MAX); // saturates instead of overflowing
        e.advance(Cycle(u64::MAX - 1));
        assert_eq!(e.value(), u64::MAX / 2);
    }
}
