//! Post-run analysis of launch behaviour, reconstructed from the
//! simulator's per-kernel lifecycle summaries.
//!
//! The CCQS tracks `n` (child CTAs in flight) online; this module
//! rebuilds the same quantity *offline* from a [`SimReport`], which lets
//! experiments study queue dynamics for *any* policy (Baseline-DP has no
//! CCQS) and validate that SPAWN's online view matches reality.

use dynapar_gpu::{KernelRole, SimReport};

/// One step of the reconstructed queue-depth curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuePoint {
    /// Cycle of the change.
    pub at: u64,
    /// Child kernels in flight (created, not yet own-complete) after it.
    pub in_flight: u64,
}

/// Reconstructed launch/queue dynamics of one run.
#[derive(Debug, Clone)]
pub struct LaunchAnalysis {
    points: Vec<QueuePoint>,
    peak: u64,
    total_children: u64,
    mean_lifetime: f64,
}

impl LaunchAnalysis {
    /// Builds the analysis from a report's kernel table.
    pub fn of(report: &SimReport) -> Self {
        // Events: +1 at creation, -1 at own completion.
        let mut events: Vec<(u64, i64)> = Vec::new();
        let mut total_children = 0u64;
        let mut lifetime_sum = 0u128;
        for k in &report.kernels {
            if k.role != KernelRole::Child {
                continue;
            }
            total_children += 1;
            events.push((k.created_at, 1));
            if let Some(done) = k.own_done_at {
                events.push((done, -1));
                lifetime_sum += (done - k.created_at) as u128;
            }
        }
        events.sort_unstable();
        let mut points = Vec::with_capacity(events.len());
        let mut depth: i64 = 0;
        let mut peak = 0i64;
        for (at, delta) in events {
            depth += delta;
            peak = peak.max(depth);
            match points.last_mut() {
                Some(QueuePoint {
                    at: last,
                    in_flight,
                }) if *last == at => {
                    *in_flight = depth as u64;
                }
                _ => points.push(QueuePoint {
                    at,
                    in_flight: depth as u64,
                }),
            }
        }
        LaunchAnalysis {
            points,
            peak: peak as u64,
            total_children,
            mean_lifetime: if total_children == 0 {
                0.0
            } else {
                lifetime_sum as f64 / total_children as f64
            },
        }
    }

    /// The step curve of in-flight child kernels over time.
    pub fn points(&self) -> &[QueuePoint] {
        &self.points
    }

    /// Maximum child kernels simultaneously in flight.
    pub fn peak_in_flight(&self) -> u64 {
        self.peak
    }

    /// Number of child kernels the run created.
    pub fn total_children(&self) -> u64 {
        self.total_children
    }

    /// Mean creation-to-completion lifetime of a child kernel, in cycles
    /// (this is the *actual* `t_child` that Eq. 1 estimates).
    pub fn mean_lifetime(&self) -> f64 {
        self.mean_lifetime
    }

    /// In-flight depth at cycle `t` (0 before the first launch).
    pub fn depth_at(&self, t: u64) -> u64 {
        match self.points.partition_point(|p| p.at <= t) {
            0 => 0,
            i => self.points[i - 1].in_flight,
        }
    }

    /// Time-weighted mean in-flight depth over the run.
    pub fn mean_depth(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 || self.points.is_empty() {
            return 0.0;
        }
        let mut integral = 0u128;
        for w in self.points.windows(2) {
            integral += (w[0].in_flight as u128) * ((w[1].at - w[0].at) as u128);
        }
        if let Some(last) = self.points.last() {
            if last.at < total_cycles {
                integral += (last.in_flight as u128) * ((total_cycles - last.at) as u128);
            }
        }
        integral as f64 / total_cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use dynapar_gpu::{
        DpSpec, GpuConfig, KernelDesc, Simulation, ThreadSource, ThreadWork, WorkClass,
    };

    fn report_with_children() -> SimReport {
        let threads: Vec<ThreadWork> = (0..128)
            .map(|t| ThreadWork {
                items: if t % 8 == 0 { 200 } else { 2 },
                seq_base: t as u64 * 4096,
                rand_seed: t as u64,
            })
            .collect();
        let cfg = GpuConfig::test_small();
        let mut sim = Simulation::builder(cfg)
            .controller(Box::new(crate::AlwaysLaunch::new()))
            .build();
        sim.launch_host(KernelDesc {
            name: "an".into(),
            cta_threads: 64,
            regs_per_thread: 16,
            shmem_per_cta: 0,
            class: Arc::new(WorkClass::compute_only("an-p", 8)),
            source: ThreadSource::Explicit(threads.into()),
            dp: Some(Arc::new(DpSpec {
                child_class: Arc::new(WorkClass::compute_only("an-c", 8)),
                child_cta_threads: 32,
                child_items_per_thread: 1,
                child_regs_per_thread: 8,
                child_shmem_per_cta: 0,
                min_items: 8,
                default_threshold: 8,
                nested: None,
            })),
        });
        sim.run().report
    }

    #[test]
    fn reconstruction_matches_report_counters() {
        let r = report_with_children();
        let a = LaunchAnalysis::of(&r);
        assert_eq!(a.total_children(), r.child_kernels_launched);
        assert!(a.peak_in_flight() > 0);
        assert!(a.peak_in_flight() <= a.total_children());
        // All children completed: the curve returns to zero.
        assert_eq!(a.points().last().expect("non-empty").in_flight, 0);
        // Lifetimes include the launch overhead floor.
        assert!(a.mean_lifetime() >= GpuConfig::test_small().launch.b as f64);
    }

    #[test]
    fn depth_queries_are_consistent_with_the_curve() {
        let r = report_with_children();
        let a = LaunchAnalysis::of(&r);
        assert_eq!(
            a.depth_at(0),
            a.points().first().map_or(0, |p| {
                if p.at == 0 {
                    p.in_flight
                } else {
                    0
                }
            })
        );
        for w in a.points().windows(2) {
            let mid = (w[0].at + w[1].at) / 2;
            assert_eq!(a.depth_at(mid), w[0].in_flight);
        }
        let mean = a.mean_depth(r.total_cycles);
        assert!(mean > 0.0);
        assert!(mean <= a.peak_in_flight() as f64);
    }

    #[test]
    fn empty_run_yields_empty_analysis() {
        let cfg = GpuConfig::test_small();
        let mut sim = Simulation::builder(cfg).build();
        sim.launch_host(KernelDesc {
            name: "empty".into(),
            cta_threads: 32,
            regs_per_thread: 8,
            shmem_per_cta: 0,
            class: Arc::new(WorkClass::compute_only("e", 2)),
            source: ThreadSource::Derived {
                origin: ThreadWork::with_items(64),
                items_per_thread: 1,
            },
            dp: None,
        });
        let r = sim.run().report;
        let a = LaunchAnalysis::of(&r);
        assert_eq!(a.total_children(), 0);
        assert_eq!(a.peak_in_flight(), 0);
        assert_eq!(a.mean_lifetime(), 0.0);
        assert_eq!(a.depth_at(1_000_000), 0);
        assert_eq!(a.mean_depth(r.total_cycles), 0.0);
    }
}
