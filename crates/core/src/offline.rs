//! Offline-Search: the exhaustive static sweep of §V (footnote 7).
//!
//! The paper's Offline-Search scheme picks, per benchmark, the best
//! workload-distribution ratio found by sweeping `THRESHOLD` offline.
//! [`sweep`] runs a caller-supplied simulation once per threshold with a
//! [`FixedThreshold`] policy and reports every point plus the winner —
//! which is also exactly the data behind Fig. 5.

use dynapar_gpu::SimReport;

use crate::policies::FixedThreshold;

/// One point of a threshold sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The `THRESHOLD` used for this run.
    pub threshold: u32,
    /// The full report of the run.
    pub report: SimReport,
}

impl SweepPoint {
    /// Fraction of work offloaded at this point (Fig. 5's x-axis).
    pub fn offload_fraction(&self) -> f64 {
        self.report.offload_fraction()
    }
}

/// The result of an offline threshold sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    points: Vec<SweepPoint>,
}

impl SweepResult {
    /// Builds a result from already-simulated points (the parallel runner
    /// produces points with [`par_map`](dynapar_engine::par::par_map) and
    /// assembles them here).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn from_points(points: Vec<SweepPoint>) -> Self {
        assert!(!points.is_empty(), "sweep must contain at least one point");
        SweepResult { points }
    }

    /// All points, in the order swept.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// The point with the lowest execution time — what Offline-Search
    /// would deploy.
    ///
    /// # Panics
    ///
    /// Panics if the sweep is empty.
    pub fn best(&self) -> &SweepPoint {
        self.points
            .iter()
            .min_by_key(|p| p.report.total_cycles)
            .expect("sweep must contain at least one point")
    }

    /// `(offload_fraction, speedup_over_baseline)` series for plotting
    /// Fig. 5, normalized to `baseline_cycles` (the flat run).
    pub fn speedup_series(&self, baseline_cycles: u64) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.offload_fraction(), p.report.speedup_over(baseline_cycles)))
            .collect()
    }
}

/// Runs `simulate` once per threshold with a [`FixedThreshold`] policy.
///
/// The closure owns workload construction and simulator setup; `sweep`
/// only owns the policy grid. This inversion keeps `dynapar-core` free of
/// any workload knowledge.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use dynapar_core::offline::sweep;
/// use dynapar_gpu::{
///     GpuConfig, KernelDesc, Simulation, ThreadSource, ThreadWork, WorkClass,
/// };
///
/// let result = sweep(&[8, 64, 1024], |policy| {
///     let mut sim = Simulation::builder(GpuConfig::test_small())
///         .controller(policy)
///         .build();
///     sim.launch_host(KernelDesc {
///         name: "sweep-demo".into(),
///         cta_threads: 64,
///         regs_per_thread: 16,
///         shmem_per_cta: 0,
///         class: Arc::new(WorkClass::compute_only("p", 8)),
///         source: ThreadSource::Derived {
///             origin: ThreadWork::with_items(4096),
///             items_per_thread: 16,
///         },
///         dp: None,
///     });
///     sim.run().report
/// });
/// assert_eq!(result.points().len(), 3);
/// let _ = result.best();
/// ```
pub fn sweep<F>(thresholds: &[u32], mut simulate: F) -> SweepResult
where
    F: FnMut(Box<dyn dynapar_gpu::LaunchController>) -> SimReport,
{
    assert!(!thresholds.is_empty(), "sweep needs at least one threshold");
    let points = thresholds
        .iter()
        .map(|&t| SweepPoint {
            threshold: t,
            report: simulate(Box::new(FixedThreshold::new(t))),
        })
        .collect();
    SweepResult { points }
}

/// [`sweep`] across up to `jobs` worker threads.
///
/// Each threshold's simulation is independent, so the points (and thus
/// the sweep result) are bit-identical to the serial [`sweep`] for any
/// `jobs` value; `jobs <= 1` runs serially on the calling thread. The
/// closure is shared across workers and must therefore be `Fn + Sync`
/// rather than `FnMut`.
///
/// # Panics
///
/// Panics if `thresholds` is empty, or propagates a panic from `simulate`.
pub fn sweep_par<F>(thresholds: &[u32], jobs: usize, simulate: F) -> SweepResult
where
    F: Fn(Box<dyn dynapar_gpu::LaunchController>) -> SimReport + Sync,
{
    assert!(!thresholds.is_empty(), "sweep needs at least one threshold");
    let points = dynapar_engine::par::par_map(thresholds.to_vec(), jobs, |t| SweepPoint {
        threshold: t,
        report: simulate(Box::new(FixedThreshold::new(t))),
    });
    SweepResult::from_points(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynapar_gpu::mem::MemStats;

    fn fake_report(cycles: u64, inline: u64, child: u64) -> SimReport {
        SimReport {
            controller: "Fixed-Threshold".into(),
            total_cycles: cycles,
            child_kernels_launched: 0,
            launch_requests: 0,
            inlined_requests: 0,
            redistributed_requests: 0,
            aggregated_launches: 0,
            aggregated_ctas: 0,
            child_ctas_executed: 0,
            items_inline: inline,
            items_child: child,
            occupancy: 0.5,
            mem: MemStats::default(),
            dram_row_hit_rate: 0.0,
            avg_child_queue_latency: 0.0,
            max_pending_kernels: 0,
            timeline: vec![],
            child_cta_exec_cycles: vec![],
            child_launch_cycles: vec![],
            events_processed: 0,
            events_global: 0,
            events_local: 0,
            dead_wakeups: 0,
            peak_queue_depth: 0,
            peak_local_backlog: 0,
            wall_ms: 0.0,
            kernels: vec![],
        }
    }

    #[test]
    fn best_picks_lowest_cycles() {
        let cycles = [300u64, 100, 200];
        let mut i = 0;
        let result = sweep(&[1, 2, 3], |_| {
            let r = fake_report(cycles[i], 50, 50);
            i += 1;
            r
        });
        assert_eq!(result.best().threshold, 2);
        assert_eq!(result.points().len(), 3);
    }

    #[test]
    fn speedup_series_shapes() {
        let mut i = 0;
        let result = sweep(&[1, 2], |_| {
            i += 1;
            fake_report(100 * i, 100 - i, i)
        });
        let series = result.speedup_series(400);
        assert_eq!(series.len(), 2);
        assert!((series[0].1 - 4.0).abs() < 1e-12);
        assert!((series[1].1 - 2.0).abs() < 1e-12);
        assert!(series[0].0 < series[1].0);
    }

    #[test]
    #[should_panic(expected = "at least one threshold")]
    fn empty_sweep_rejected() {
        sweep(&[], |_| fake_report(1, 1, 0));
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let grid = [1u32, 2, 4, 8, 16, 32];
        let run = |mut policy: Box<dyn dynapar_gpu::LaunchController>| {
            // Deterministic pseudo-simulation keyed off the policy's
            // threshold (recovered by probing decisions), so any
            // order mix-up in the parallel path would be visible.
            let t = (1..=64u32)
                .filter(|&items| {
                    policy.decide(&dynapar_gpu::ChildRequest {
                        now: dynapar_engine::Cycle(0),
                        parent_kernel: dynapar_gpu::KernelId(0),
                        depth: 1,
                        items,
                        child_ctas: 1,
                        child_threads: 32,
                        child_warps_per_cta: 1,
                        warp_prior_launches: 0,
                        default_threshold: 0,
                        pending_kernels: 0,
                    }) == dynapar_gpu::LaunchDecision::Inline
                })
                .count() as u64;
            fake_report(1000 - t * 3, 100 - t, t)
        };
        let serial = sweep(&grid, run);
        let parallel = sweep_par(&grid, 4, run);
        assert_eq!(serial.points().len(), parallel.points().len());
        for (s, p) in serial.points().iter().zip(parallel.points()) {
            assert_eq!(s.threshold, p.threshold);
            assert_eq!(s.report.total_cycles, p.report.total_cycles);
            assert_eq!(s.report.items_child, p.report.items_child);
        }
        assert_eq!(serial.best().threshold, parallel.best().threshold);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_points_rejected() {
        SweepResult::from_points(vec![]);
    }
}
