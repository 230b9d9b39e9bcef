//! The Child CTA Queuing System (CCQS) of §IV-A.
//!
//! CCQS models the Grid Management Unit as a queue and the SMXs as a
//! server: launched child kernels contribute CTAs ("jobs"), and the system
//! tracks exactly the four metrics §IV-B monitors:
//!
//! * `n`      — child CTAs in the system (pending + running); incremented
//!   at the launch decision (Algorithm 1 line 8), decremented when a CTA
//!   finishes and leaves the system;
//! * `t_cta`  — running average child-CTA execution time, updated only
//!   when a CTA finishes;
//! * `n_con`  — average number of concurrently-executing child CTAs over
//!   1024-cycle windows with shift-based division;
//! * `t_warp` — average child-warp execution time, also windowed.

use dynapar_engine::stats::{RunningMean, WindowedEventAvg, WindowedTimeAvg};
use dynapar_engine::Cycle;

/// Monitored-metric state for the SPAWN controller.
///
/// # Examples
///
/// ```
/// use dynapar_core::Ccqs;
/// use dynapar_engine::Cycle;
///
/// let mut q = Ccqs::new(10, 65_536);
/// assert_eq!(q.t_cta(), 0); // bootstrap: no CTA has finished yet
/// q.on_decided_launch(4);
/// assert_eq!(q.in_system(), 4);
/// q.on_cta_start(Cycle(100));
/// q.on_cta_finish(Cycle(600), 500);
/// assert_eq!(q.in_system(), 3);
/// assert_eq!(q.t_cta(), 500);
/// ```
#[derive(Debug)]
pub struct Ccqs {
    n: u64,
    t_cta: RunningMean,
    n_con: WindowedTimeAvg,
    t_warp: WindowedEventAvg,
    max_queue: u64,
    peak_n: u64,
    /// Saturation bound applied to recorded cycle samples (the proposed
    /// hardware uses 16-bit counters, §IV-B); `u64::MAX` = unbounded.
    sample_cap: u64,
}

impl Ccqs {
    /// Creates a CCQS with `2^window_log2`-cycle metric windows and a
    /// maximum of `max_queue` child CTAs in flight (the paper uses 1024
    /// cycles and 65,536 CTAs, per the Kepler pending-pool size).
    pub fn new(window_log2: u32, max_queue: u64) -> Self {
        Ccqs {
            n: 0,
            t_cta: RunningMean::new(),
            n_con: WindowedTimeAvg::new(window_log2),
            t_warp: WindowedEventAvg::new(window_log2),
            max_queue,
            peak_n: 0,
            sample_cap: u64::MAX,
        }
    }

    /// Restricts recorded execution-time samples to 16 bits, mirroring
    /// the 16-bit cycle counters of the paper's proposed hardware (the
    /// 416-byte CTA table and 16-bit `n` register of §IV-B). Samples
    /// saturate rather than wrap.
    pub fn with_hardware_widths(mut self) -> Self {
        self.sample_cap = u16::MAX as u64;
        self
    }

    /// Algorithm 1 line 8: a launch was approved, adding `ctas` jobs.
    pub fn on_decided_launch(&mut self, ctas: u64) {
        self.n += ctas;
        self.peak_n = self.peak_n.max(self.n);
    }

    /// A child CTA began executing on an SMX.
    pub fn on_cta_start(&mut self, now: Cycle) {
        self.n_con.add(now, 1);
    }

    /// A child CTA finished after `exec_cycles` on-core cycles.
    ///
    /// Tolerates more finishes than recorded launches (`n` saturates at 0)
    /// because aggregated/DTBL CTAs observed by a shared monitor do not
    /// pass through [`on_decided_launch`](Ccqs::on_decided_launch).
    pub fn on_cta_finish(&mut self, now: Cycle, exec_cycles: u64) {
        self.n = self.n.saturating_sub(1);
        self.n_con.add(now, -1);
        self.t_cta.add(exec_cycles.min(self.sample_cap));
    }

    /// A child warp finished after `exec_cycles`.
    pub fn on_warp_finish(&mut self, now: Cycle, exec_cycles: u64) {
        self.t_warp.record(now, exec_cycles.min(self.sample_cap));
    }

    /// Seeds `t_cta`/`t_warp` with one synthetic sample each, as if one
    /// child CTA had already completed — the warm-start prior used by the
    /// `SpawnPolicy::with_warm_start` extension.
    pub fn seed_priors(&mut self, t_cta: u64, t_warp: u64) {
        if t_cta > 0 {
            self.t_cta.add(t_cta);
        }
        if t_warp > 0 {
            self.t_warp.record(Cycle::ZERO, t_warp);
        }
    }

    /// Rolls the metric windows forward to `now` (call before reading the
    /// windowed metrics at a decision point).
    pub fn advance(&mut self, now: Cycle) {
        self.n_con.advance(now);
        self.t_warp.advance(now);
    }

    /// `n`: child CTAs in the system.
    pub fn in_system(&self) -> u64 {
        self.n
    }

    /// `t_cta`: average child CTA execution time (0 until one finishes).
    pub fn t_cta(&self) -> u64 {
        self.t_cta.mean()
    }

    /// `n_con`: windowed average of concurrently-executing child CTAs.
    pub fn n_con(&self) -> u64 {
        self.n_con.value()
    }

    /// `t_warp`: windowed average child warp execution time.
    pub fn t_warp(&self) -> u64 {
        self.t_warp.value()
    }

    /// Would admitting `ctas` more jobs overflow the queue bound?
    /// (Algorithm 1's `n + x ≤ max_queue_size` guard.)
    pub fn would_overflow(&self, ctas: u64) -> bool {
        self.n + ctas > self.max_queue
    }

    /// Highest `n` ever observed.
    pub fn peak_in_system(&self) -> u64 {
        self.peak_n
    }

    /// Number of CTA-finish samples folded into `t_cta`.
    pub fn finished_ctas(&self) -> u64 {
        self.t_cta.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_is_conserved() {
        let mut q = Ccqs::new(4, 100);
        q.on_decided_launch(3);
        q.on_decided_launch(2);
        assert_eq!(q.in_system(), 5);
        for i in 0..5 {
            q.on_cta_start(Cycle(i * 10));
        }
        for i in 0..5 {
            q.on_cta_finish(Cycle(100 + i * 10), 50);
        }
        assert_eq!(q.in_system(), 0);
        assert_eq!(q.finished_ctas(), 5);
        assert_eq!(q.peak_in_system(), 5);
    }

    #[test]
    fn n_never_goes_negative() {
        let mut q = Ccqs::new(4, 100);
        q.on_cta_finish(Cycle(10), 5); // finish with no recorded launch
        assert_eq!(q.in_system(), 0);
    }

    #[test]
    fn t_cta_is_running_mean() {
        let mut q = Ccqs::new(4, 100);
        q.on_cta_finish(Cycle(1), 100);
        q.on_cta_finish(Cycle(2), 300);
        assert_eq!(q.t_cta(), 200);
    }

    #[test]
    fn n_con_windows_concurrency() {
        let mut q = Ccqs::new(4, 100); // 16-cycle windows
        q.on_decided_launch(2);
        q.on_cta_start(Cycle(0));
        q.on_cta_start(Cycle(0));
        q.advance(Cycle(16));
        assert_eq!(q.n_con(), 2);
        q.on_cta_finish(Cycle(16), 16);
        q.on_cta_finish(Cycle(24), 24);
        q.advance(Cycle(32));
        // Second window: 1 CTA for 8 cycles, 0 for 8 -> floor(8*1/16) = 0.
        assert_eq!(q.n_con(), 0);
    }

    #[test]
    fn overflow_guard() {
        let mut q = Ccqs::new(4, 10);
        assert!(!q.would_overflow(10));
        assert!(q.would_overflow(11));
        q.on_decided_launch(8);
        assert!(!q.would_overflow(2));
        assert!(q.would_overflow(3));
    }

    #[test]
    fn hardware_widths_saturate_samples() {
        let mut q = Ccqs::new(4, 100).with_hardware_widths();
        q.on_cta_finish(Cycle(1), 1_000_000); // would overflow 16 bits
        assert_eq!(q.t_cta(), u16::MAX as u64);
        q.on_warp_finish(Cycle(2), 1_000_000);
        assert_eq!(q.t_warp(), u16::MAX as u64);
    }

    #[test]
    fn t_warp_windowed_with_fallback() {
        let mut q = Ccqs::new(4, 100);
        assert_eq!(q.t_warp(), 0);
        q.on_warp_finish(Cycle(1), 40);
        q.on_warp_finish(Cycle(2), 60);
        // Window incomplete: all-time mean fallback.
        assert_eq!(q.t_warp(), 50);
        q.advance(Cycle(16));
        assert_eq!(q.t_warp(), 50);
    }

    /// `n_con` at the paper's 1024-cycle window edge: cycle 1023 is the last
    /// cycle of window 0 (`1023 >> 10 == 0`), cycle 1024 the first of window
    /// 1 (`1024 >> 10 == 1`). A decision exactly at `Cycle(1024)` must read
    /// the shift-divided average of window 0, and a one-cycle-earlier
    /// decision must still read the pre-window bootstrap value of 0.
    #[test]
    fn n_con_at_the_1024_cycle_window_edge() {
        let mut q = Ccqs::new(10, 65_536);
        q.on_decided_launch(3);
        q.on_cta_start(Cycle(0));
        q.on_cta_start(Cycle(256)); // 2 concurrent from 256
        q.on_cta_start(Cycle(768)); // 3 concurrent from 768

        q.advance(Cycle(1023)); // one cycle short: window 0 not complete
        assert_eq!(q.n_con(), 0, "no completed window before cycle 1024");

        q.advance(Cycle(1024)); // window edge: the shift happens here
                                // 1*256 + 2*512 + 3*256 = 2048; 2048 >> 10 = 2.
        assert_eq!(q.n_con(), 2);
        assert_eq!(q.in_system(), 3, "advance never perturbs `n`");
    }

    /// Events on either side of the power-of-two shift land in different
    /// windows: a start at 1023 counts toward window 0's average, a start at
    /// 1024 only toward window 1's, and the window-0 report holds unchanged
    /// until the *next* edge at 2048.
    #[test]
    fn n_con_splits_events_across_the_shift_boundary() {
        let mut q = Ccqs::new(10, 65_536);
        q.on_decided_launch(2);
        q.on_cta_start(Cycle(1023)); // last cycle of window 0
        q.on_cta_start(Cycle(1024)); // first cycle of window 1
        q.advance(Cycle(1024));
        // Window 0 saw 1 CTA for exactly 1 cycle: 1 >> 10 = 0.
        assert_eq!(q.n_con(), 0);
        q.advance(Cycle(2047)); // window 1 still open: report unchanged
        assert_eq!(q.n_con(), 0);
        q.advance(Cycle(2048));
        // Window 1: 2 concurrent for all 1024 cycles -> 2048 >> 10 = 2.
        assert_eq!(q.n_con(), 2);
    }

    /// `t_warp` across the 1024-cycle edge: the all-time-mean fallback gives
    /// way to the per-window mean once the first window containing samples
    /// closes, and samples recorded at exactly `Cycle(1024)` belong to the
    /// second window. Deterministic seeded sample values throughout.
    #[test]
    fn t_warp_switches_from_fallback_at_the_1024_cycle_edge() {
        let mut q = Ccqs::new(10, 65_536);
        q.on_warp_finish(Cycle(100), 200);
        q.on_warp_finish(Cycle(1023), 400); // still window 0
        q.advance(Cycle(1023));
        assert_eq!(q.t_warp(), 300, "open window reads the all-time mean");

        q.on_warp_finish(Cycle(1024), 1_000); // first sample of window 1
                                              // Recording at 1024 closed window 0: its mean (300) is now the
                                              // reported value, and the 1_000 sample does not leak into it.
        assert_eq!(q.t_warp(), 300);

        q.advance(Cycle(2048)); // window 1 closes
        assert_eq!(q.t_warp(), 1_000);
    }
}
