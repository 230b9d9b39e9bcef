//! Dynamic Thread Block Launch (Wang et al., ISCA 2015) — the alternate
//! mechanism the paper compares against in §V-D / Fig. 21.
//!
//! DTBL never creates device-side kernels: when a parent thread would
//! launch a child, its CTAs are instead *coalesced* onto an existing
//! aggregated kernel with the same CTA dimensions and instruction
//! sequence. This removes the `A·x + b` kernel-launch overhead and frees
//! DTBL from the 32-HWQ concurrent-kernel limit, but — as the paper
//! stresses — the *number of CTAs stays the same*, so workloads
//! bottlenecked by the concurrent-CTA limit still queue.

use dynapar_engine::stats::RunningMean;
use dynapar_gpu::{
    ChildRequest, ControllerEvent, LaunchController, LaunchDecision, MetricsRegistry,
};

/// The DTBL launch policy: aggregate every candidate above the
/// application's own `THRESHOLD` (like Baseline-DP, but through the
/// coalesced CTA path).
///
/// # Examples
///
/// ```
/// use dynapar_core::Dtbl;
/// use dynapar_gpu::LaunchController;
/// assert_eq!(Dtbl::new().name(), "DTBL");
/// ```
#[derive(Debug, Default)]
pub struct Dtbl {
    aggregated: u64,
    inlined: u64,
    cta_exec: RunningMean,
}

impl Dtbl {
    /// Creates the DTBL policy.
    pub fn new() -> Self {
        Dtbl::default()
    }

    /// Logical launches that were coalesced.
    pub fn aggregated(&self) -> u64 {
        self.aggregated
    }

    /// Requests below threshold, executed in the parent.
    pub fn inlined(&self) -> u64 {
        self.inlined
    }

    /// Mean execution time of observed child CTAs (diagnostic).
    pub fn mean_cta_exec(&self) -> u64 {
        self.cta_exec.mean()
    }
}

impl LaunchController for Dtbl {
    fn name(&self) -> &str {
        "DTBL"
    }

    fn decide(&mut self, req: &ChildRequest) -> LaunchDecision {
        if req.items > req.default_threshold {
            self.aggregated += 1;
            LaunchDecision::Aggregated
        } else {
            self.inlined += 1;
            LaunchDecision::Inline
        }
    }

    fn observe(&mut self, ev: &ControllerEvent) {
        if let ControllerEvent::ChildCtaFinish { exec_cycles, .. } = *ev {
            self.cta_exec.add(exec_cycles);
        }
    }

    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.counter("policy.dtbl.aggregated", self.aggregated);
        reg.counter("policy.dtbl.inlined", self.inlined);
        reg.counter("policy.dtbl.mean_cta_exec", self.cta_exec.mean());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynapar_engine::Cycle;
    use dynapar_gpu::KernelId;

    fn req(items: u32) -> ChildRequest {
        ChildRequest {
            now: Cycle(0),
            parent_kernel: KernelId(0),
            depth: 1,
            items,
            child_ctas: 2,
            child_threads: 128,
            child_warps_per_cta: 2,
            warp_prior_launches: 0,
            default_threshold: 100,
            pending_kernels: 0,
        }
    }

    #[test]
    fn aggregates_over_threshold() {
        let mut p = Dtbl::new();
        assert_eq!(p.decide(&req(101)), LaunchDecision::Aggregated);
        assert_eq!(p.decide(&req(100)), LaunchDecision::Inline);
        assert_eq!(p.aggregated(), 1);
        assert_eq!(p.inlined(), 1);
    }

    #[test]
    fn never_launches_kernels() {
        let mut p = Dtbl::new();
        for items in [1u32, 50, 1000, 100_000] {
            assert_ne!(p.decide(&req(items)), LaunchDecision::Kernel);
        }
    }

    #[test]
    fn tracks_cta_exec() {
        let mut p = Dtbl::new();
        p.observe(&ControllerEvent::ChildCtaFinish {
            now: Cycle(10),
            exec_cycles: 100,
        });
        p.observe(&ControllerEvent::ChildCtaFinish {
            now: Cycle(20),
            exec_cycles: 200,
        });
        assert_eq!(p.mean_cta_exec(), 150);
    }
}
