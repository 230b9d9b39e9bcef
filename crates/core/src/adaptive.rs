//! An online hill-climbing threshold tuner — an *extension* beyond the
//! paper, used as an additional comparison point in the ablation study.
//!
//! The paper motivates SPAWN by showing that the best static `THRESHOLD`
//! varies per `<application, input>` pair and is expensive to find
//! offline. A natural alternative to SPAWN's analytic cost model is
//! empirical search at runtime: start from the application's threshold,
//! periodically perturb it, and keep the direction that improves a
//! throughput proxy. `AdaptiveThreshold` implements exactly that, using
//! child-CTA completion throughput per epoch as the reward signal.
//!
//! Compared to SPAWN it needs no queuing model, but it reacts a full
//! epoch late and cannot make per-kernel decisions — the two properties
//! the paper's design argues for.

use dynapar_engine::Cycle;
use dynapar_gpu::{
    ChildRequest, ControllerEvent, LaunchController, LaunchDecision, MetricsRegistry,
};

/// Hill-climbing state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Up,
    Down,
}

/// Online threshold tuner (extension; see module docs).
///
/// # Examples
///
/// ```
/// use dynapar_core::AdaptiveThreshold;
/// use dynapar_gpu::LaunchController;
///
/// let p = AdaptiveThreshold::new(64, 4096);
/// assert_eq!(p.name(), "Adaptive-Threshold");
/// assert_eq!(p.threshold(), 64);
/// ```
#[derive(Debug)]
pub struct AdaptiveThreshold {
    threshold: u32,
    epoch_cycles: u64,
    epoch_start: Cycle,
    // Reward bookkeeping: items admitted to children this epoch vs the
    // previous epoch (completion-weighted).
    finished_this_epoch: u64,
    last_rate: f64,
    direction: Direction,
    min_threshold: u32,
    max_threshold: u32,
    adjustments: u32,
}

impl AdaptiveThreshold {
    /// Creates a tuner starting from `initial` with `epoch_cycles`-long
    /// evaluation epochs.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_cycles` is zero.
    pub fn new(initial: u32, epoch_cycles: u64) -> Self {
        assert!(epoch_cycles > 0, "epochs must have positive length");
        AdaptiveThreshold {
            threshold: initial.max(1),
            epoch_cycles,
            epoch_start: Cycle::ZERO,
            finished_this_epoch: 0,
            last_rate: 0.0,
            direction: Direction::Down,
            min_threshold: 1,
            max_threshold: u32::MAX / 2,
            adjustments: 0,
        }
    }

    /// The threshold currently in force.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Number of threshold adjustments made so far.
    pub fn adjustments(&self) -> u32 {
        self.adjustments
    }

    fn maybe_rollover(&mut self, now: Cycle) {
        let elapsed = now.saturating_sub(self.epoch_start).as_u64();
        if elapsed < self.epoch_cycles {
            return;
        }
        let rate = self.finished_this_epoch as f64 / elapsed as f64;
        // Keep climbing while the child-completion rate improves; reverse
        // when it regresses. Multiplicative steps cover the huge dynamic
        // range of plausible thresholds quickly.
        if rate < self.last_rate {
            self.direction = match self.direction {
                Direction::Up => Direction::Down,
                Direction::Down => Direction::Up,
            };
        }
        self.threshold = match self.direction {
            Direction::Up => (self.threshold.saturating_mul(2)).min(self.max_threshold),
            Direction::Down => (self.threshold / 2).max(self.min_threshold),
        };
        self.adjustments += 1;
        self.last_rate = rate;
        self.finished_this_epoch = 0;
        self.epoch_start = now;
    }
}

impl LaunchController for AdaptiveThreshold {
    fn name(&self) -> &str {
        "Adaptive-Threshold"
    }

    fn decide(&mut self, req: &ChildRequest) -> LaunchDecision {
        self.maybe_rollover(req.now);
        if req.items > self.threshold {
            LaunchDecision::Kernel
        } else {
            LaunchDecision::Inline
        }
    }

    fn observe(&mut self, ev: &ControllerEvent) {
        if let ControllerEvent::ChildCtaFinish { now, .. } = *ev {
            self.finished_this_epoch += 1;
            self.maybe_rollover(now);
        }
    }

    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.counter("policy.adaptive.threshold", self.threshold as u64);
        reg.counter("policy.adaptive.adjustments", self.adjustments as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynapar_gpu::KernelId;

    fn req(now: u64, items: u32) -> ChildRequest {
        ChildRequest {
            now: Cycle(now),
            parent_kernel: KernelId(0),
            depth: 1,
            items,
            child_ctas: 1,
            child_threads: 64,
            child_warps_per_cta: 2,
            warp_prior_launches: 0,
            default_threshold: 64,
            pending_kernels: 0,
        }
    }

    #[test]
    fn honours_current_threshold() {
        let mut p = AdaptiveThreshold::new(100, 1_000_000);
        assert_eq!(p.decide(&req(0, 101)), LaunchDecision::Kernel);
        assert_eq!(p.decide(&req(1, 100)), LaunchDecision::Inline);
    }

    #[test]
    fn adjusts_at_epoch_boundaries_only() {
        let mut p = AdaptiveThreshold::new(100, 1_000);
        p.decide(&req(10, 1));
        assert_eq!(p.adjustments(), 0);
        p.decide(&req(999, 1));
        assert_eq!(p.adjustments(), 0);
        p.decide(&req(1_001, 1));
        assert_eq!(p.adjustments(), 1);
    }

    #[test]
    fn reverses_direction_when_rate_regresses() {
        let mut p = AdaptiveThreshold::new(64, 1_000);
        // Epoch 1: strong completion rate.
        for i in 0..50 {
            p.observe(&ControllerEvent::ChildCtaFinish {
                now: Cycle(i),
                exec_cycles: 10,
            });
        }
        p.decide(&req(1_001, 1)); // rollover 1 (initial direction: Down)
        let t1 = p.threshold();
        assert!(t1 < 64);
        // Epoch 2: rate collapses -> direction must flip at next rollover.
        p.decide(&req(2_100, 1));
        let t2 = p.threshold();
        assert!(t2 > t1, "should climb back up after regression");
    }

    #[test]
    fn threshold_stays_in_bounds() {
        let mut p = AdaptiveThreshold::new(1, 10);
        // Repeated regressing epochs oscillate but never leave bounds.
        for e in 1..200u64 {
            p.decide(&req(e * 11, 1));
            assert!(p.threshold() >= 1);
            assert!(p.threshold() <= u32::MAX / 2);
        }
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn zero_epoch_rejected() {
        AdaptiveThreshold::new(1, 0);
    }
}
