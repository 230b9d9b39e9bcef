//! Free Launch (Chen & Shen, MICRO 2015) — the paper's other related
//! launch-elimination mechanism (§VI): a compiler transform that replaces
//! child-kernel launches with reuse of the already-running parent
//! threads, load-balancing the child tasks across them.
//!
//! The simulator models the transform's effect as intra-warp
//! redistribution ([`LaunchDecision::Redistribute`]): the would-be
//! child's items are spread evenly over the launching warp's lanes. This
//! removes both the launch overhead *and* the divergence penalty, but the
//! work stays on the parent's core — there is no extra parallelism, which
//! is exactly the trade-off that distinguishes Free Launch from DP.

use dynapar_gpu::{ChildRequest, LaunchController, LaunchDecision, MetricsRegistry};

/// The Free-Launch policy: redistribute every candidate above the
/// application's own `THRESHOLD`; smaller workloads run inline as usual.
///
/// # Examples
///
/// ```
/// use dynapar_core::FreeLaunch;
/// use dynapar_gpu::LaunchController;
/// assert_eq!(FreeLaunch::new().name(), "Free-Launch");
/// ```
#[derive(Debug, Default)]
pub struct FreeLaunch {
    redistributed: u64,
    inlined: u64,
}

impl FreeLaunch {
    /// Creates the policy.
    pub fn new() -> Self {
        FreeLaunch::default()
    }

    /// Candidates redistributed across their warps.
    pub fn redistributed(&self) -> u64 {
        self.redistributed
    }

    /// Candidates below threshold, run as ordinary serial loops.
    pub fn inlined(&self) -> u64 {
        self.inlined
    }
}

impl LaunchController for FreeLaunch {
    fn name(&self) -> &str {
        "Free-Launch"
    }

    fn decide(&mut self, req: &ChildRequest) -> LaunchDecision {
        if req.items > req.default_threshold {
            self.redistributed += 1;
            LaunchDecision::Redistribute
        } else {
            self.inlined += 1;
            LaunchDecision::Inline
        }
    }

    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.counter("policy.free_launch.redistributed", self.redistributed);
        reg.counter("policy.free_launch.inlined", self.inlined);
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
    fn redistributes_over_threshold_only() {
        let mut p = FreeLaunch::new();
        assert_eq!(p.decide(&req(101)), LaunchDecision::Redistribute);
        assert_eq!(p.decide(&req(100)), LaunchDecision::Inline);
        assert_eq!(p.redistributed(), 1);
        assert_eq!(p.inlined(), 1);
    }

    #[test]
    fn exports_decision_counters() {
        use dynapar_gpu::{MetricsLevel, MetricsRegistry};
        let mut p = FreeLaunch::new();
        p.decide(&req(101));
        p.decide(&req(1));
        let mut reg = MetricsRegistry::new(MetricsLevel::Summary);
        p.export_metrics(&mut reg);
        let json = reg.to_json();
        assert_eq!(
            json.get("policy.free_launch.redistributed")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(
            json.get("policy.free_launch.inlined").unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn never_creates_kernels_or_ctas() {
        let mut p = FreeLaunch::new();
        for items in [1u32, 1000, 100_000] {
            let d = p.decide(&req(items));
            assert_ne!(d, LaunchDecision::Kernel);
            assert_ne!(d, LaunchDecision::Aggregated);
        }
    }

    mod end_to_end {
        use super::*;
        use std::sync::Arc;

        use dynapar_gpu::{
            DpSpec, GpuConfig, KernelDesc, Simulation, ThreadSource, ThreadWork, WorkClass,
        };

        fn imbalanced() -> KernelDesc {
            let threads: Vec<ThreadWork> = (0..256)
                .map(|t| ThreadWork {
                    items: if t % 32 == 0 { 640 } else { 0 },
                    seq_base: t as u64 * 8192,
                    rand_seed: t as u64,
                })
                .collect();
            KernelDesc {
                name: "fl".into(),
                cta_threads: 64,
                regs_per_thread: 16,
                shmem_per_cta: 0,
                class: Arc::new(WorkClass::compute_only("fl-parent", 16)),
                source: ThreadSource::Explicit(threads.into()),
                dp: Some(Arc::new(DpSpec {
                    child_class: Arc::new(WorkClass::compute_only("fl-child", 16)),
                    child_cta_threads: 64,
                    child_items_per_thread: 1,
                    child_regs_per_thread: 16,
                    child_shmem_per_cta: 0,
                    min_items: 8,
                    default_threshold: 64,
                    nested: None,
                })),
            }
        }

        #[test]
        fn redistribution_conserves_work_and_beats_flat_on_divergence() {
            let cfg = GpuConfig::test_small();
            let mut sim = Simulation::builder(cfg.clone()).build();
            sim.launch_host(imbalanced());
            let flat = sim.run().report;

            let mut sim = Simulation::builder(cfg)
                .controller(Box::new(FreeLaunch::new()))
                .build();
            sim.launch_host(imbalanced());
            let fl = sim.run().report;

            assert_eq!(flat.items_total(), fl.items_total());
            assert_eq!(fl.child_kernels_launched, 0);
            assert!(fl.redistributed_requests > 0);
            // One hot lane per warp -> redistribution flattens 640 rounds
            // into ~20 per lane: Free Launch must crush flat here.
            assert!(
                fl.total_cycles * 2 < flat.total_cycles,
                "Free Launch {} vs flat {}",
                fl.total_cycles,
                flat.total_cycles
            );
        }
    }
}
