//! The SPAWN controller — Algorithm 1 of the paper.

use dynapar_gpu::{
    ChildRequest, ControllerEvent, LaunchController, LaunchDecision, LaunchOverheadModel,
    MetricsRegistry, MonitoredMetrics,
};

use crate::ccqs::Ccqs;

/// Per-run decision statistics exposed for analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpawnStats {
    /// Launches approved during the bootstrap phase (`t_cta == 0`).
    pub bootstrap_launches: u64,
    /// Launches approved by the cost model (`t_child ≤ t_parent`).
    pub modeled_launches: u64,
    /// Requests sent back to the parent thread.
    pub inlined: u64,
    /// Requests denied purely by the queue-size guard.
    pub queue_rejections: u64,
}

/// SPAWN: dynamic launch control of child kernels (§IV).
///
/// At every device-launch site the controller estimates
///
/// ```text
/// t_child  ≈ launch_overhead + (x + n) · t_cta / n_con     (Eq. 1)
/// t_parent ≈ workload · t_warp                             (Eq. 2)
/// ```
///
/// and spawns the child only when `t_child ≤ t_parent` and the CCQS bound
/// admits the new CTAs (Algorithm 1). Until the first child CTA completes
/// (`t_cta == 0`) every request is approved — the paper's initialization
/// rule, which it notes can misfire for benchmarks whose entire launch
/// burst precedes the first completion (SSSP-graph500).
///
/// # Examples
///
/// ```
/// use dynapar_core::SpawnPolicy;
/// use dynapar_gpu::{GpuConfig, LaunchController};
///
/// let cfg = GpuConfig::kepler_k20m();
/// let policy = SpawnPolicy::from_config(&cfg);
/// assert_eq!(policy.name(), "SPAWN");
/// ```
#[derive(Debug)]
pub struct SpawnPolicy {
    ccqs: Ccqs,
    overhead: LaunchOverheadModel,
    stats: SpawnStats,
    trace: bool,
    decisions: u64,
    queue_term: bool,
    aggregate: bool,
    /// When enabled, records the Eq. 1 estimate for every approved
    /// launch, in decision order (which matches child-kernel creation
    /// order in the simulator) — used by the model-accuracy experiment.
    prediction_log: Option<Vec<u64>>,
}

impl SpawnPolicy {
    /// Creates a SPAWN controller with explicit parameters.
    pub fn new(overhead: LaunchOverheadModel, window_log2: u32, max_queue: u64) -> Self {
        SpawnPolicy {
            ccqs: Ccqs::new(window_log2, max_queue),
            overhead,
            stats: SpawnStats::default(),
            trace: std::env::var_os("DYNAPAR_SPAWN_TRACE").is_some(),
            decisions: 0,
            queue_term: true,
            aggregate: false,
            prediction_log: None,
        }
    }

    /// Creates a SPAWN controller matching a simulator configuration
    /// (overhead model, metric window, and the 65,536-CTA queue bound).
    pub fn from_config(cfg: &dynapar_gpu::GpuConfig) -> Self {
        Self::new(
            cfg.launch,
            cfg.metric_window_log2,
            cfg.pending_pool_cap as u64,
        )
    }

    /// Creates a SPAWN controller whose monitored metrics start from
    /// warm-start priors instead of zero — an *extension* of the paper's
    /// design (Algorithm 1 boots with `t_cta = 0` and launches blindly
    /// until the first child CTA completes; a deployment that remembers
    /// metrics from a previous kernel invocation behaves like this).
    /// Used by the ablation study in the benchmark harness.
    pub fn with_warm_start(
        overhead: LaunchOverheadModel,
        window_log2: u32,
        max_queue: u64,
        t_cta_prior: u64,
        t_warp_prior: u64,
    ) -> Self {
        let mut p = Self::new(overhead, window_log2, max_queue);
        p.ccqs.seed_priors(t_cta_prior, t_warp_prior);
        p
    }

    /// Quantizes the monitored metrics to the 16-bit counter widths of
    /// the paper's proposed hardware (§IV-B) — the fidelity mode used by
    /// the ablation study to check that counter saturation does not
    /// change decisions materially.
    pub fn with_hardware_widths(mut self) -> Self {
        let ccqs = std::mem::replace(&mut self.ccqs, Ccqs::new(1, 1));
        self.ccqs = ccqs.with_hardware_widths();
        self
    }

    /// Enables logging of the Eq. 1 completion-time estimate for every
    /// approved launch; read back with
    /// [`predictions`](SpawnPolicy::predictions) after the run.
    pub fn with_prediction_log(mut self) -> Self {
        self.prediction_log = Some(Vec::new());
        self
    }

    /// The logged Eq. 1 estimates (empty unless
    /// [`with_prediction_log`](SpawnPolicy::with_prediction_log) was used).
    /// Entry `i` corresponds to the `i`-th child kernel the run created.
    pub fn predictions(&self) -> &[u64] {
        self.prediction_log.as_deref().unwrap_or(&[])
    }

    /// Routes approved launches through DTBL-style CTA aggregation instead
    /// of device kernel launches — the natural synthesis §V-D invites:
    /// Algorithm 1 still throttles by queue state, while the approved
    /// children skip the `A·x + b` kernel path. An extension beyond the
    /// paper, evaluated in the ablation study as `spawn+dtbl`.
    pub fn with_aggregated_launches(mut self) -> Self {
        self.aggregate = true;
        self
    }

    /// Disables the queuing-latency term of Eq. 1 (`n·t_cta/n_con`),
    /// leaving only launch overhead and service time — the ablation that
    /// isolates how much of SPAWN's behaviour comes from queue feedback.
    pub fn without_queue_term(mut self) -> Self {
        self.queue_term = false;
        self
    }

    /// Decision statistics for the run so far.
    pub fn stats(&self) -> SpawnStats {
        self.stats
    }

    /// Read-only view of the monitored metrics.
    pub fn ccqs(&self) -> &Ccqs {
        &self.ccqs
    }

    fn launch_decision(&self) -> LaunchDecision {
        if self.aggregate {
            LaunchDecision::Aggregated
        } else {
            LaunchDecision::Kernel
        }
    }
}

impl LaunchController for SpawnPolicy {
    fn name(&self) -> &str {
        if self.aggregate {
            "SPAWN+DTBL"
        } else {
            "SPAWN"
        }
    }

    fn decide(&mut self, req: &ChildRequest) -> LaunchDecision {
        self.ccqs.advance(req.now);
        let x = req.child_ctas as u64;
        let t_cta = self.ccqs.t_cta();

        // Algorithm 1 lines 2–4: bootstrap until the metrics are warm.
        if t_cta == 0 {
            if self.ccqs.would_overflow(x) {
                self.stats.queue_rejections += 1;
                self.stats.inlined += 1;
                return LaunchDecision::Inline;
            }
            self.ccqs.on_decided_launch(x);
            self.stats.bootstrap_launches += 1;
            if let Some(log) = self.prediction_log.as_mut() {
                // No service estimate yet: the overhead term is all the
                // bootstrap knows.
                log.push(
                    self.overhead
                        .kernel_latency(req.warp_prior_launches as u64 + 1),
                );
            }
            return self.launch_decision();
        }

        // Line 5: t_child = t_overhead + (x + n) * t_cta / n_con.
        let n = if self.queue_term {
            self.ccqs.in_system()
        } else {
            0
        };
        let n_con = self.ccqs.n_con().max(1);
        let t_overhead = self
            .overhead
            .kernel_latency(req.warp_prior_launches as u64 + 1);
        // Saturating: no real run comes near u64::MAX cycles, but a
        // replayed snapshot log must not be able to overflow either.
        let t_child = t_overhead.saturating_add((x + n).saturating_mul(t_cta) / n_con);

        // Line 6: t_parent = workload * t_warp.
        let t_parent = (req.items as u64).saturating_mul(self.ccqs.t_warp());

        self.decisions += 1;
        if self.trace && self.decisions.is_multiple_of(512) {
            eprintln!(
                "spawn-trace now={} items={} t_child={} t_parent={} n={} t_cta={} n_con={} t_warp={}",
                req.now.as_u64(),
                req.items,
                t_child,
                t_parent,
                n,
                t_cta,
                n_con,
                self.ccqs.t_warp(),
            );
        }
        // Line 7: spawn iff cheaper and the queue admits the CTAs.
        if t_child <= t_parent {
            if self.ccqs.would_overflow(x) {
                self.stats.queue_rejections += 1;
                self.stats.inlined += 1;
                return LaunchDecision::Inline;
            }
            self.ccqs.on_decided_launch(x);
            self.stats.modeled_launches += 1;
            if let Some(log) = self.prediction_log.as_mut() {
                log.push(t_child);
            }
            self.launch_decision()
        } else {
            self.stats.inlined += 1;
            LaunchDecision::Inline
        }
    }

    fn observe(&mut self, ev: &ControllerEvent) {
        match *ev {
            ControllerEvent::ChildCtaStart { now } => self.ccqs.on_cta_start(now),
            ControllerEvent::ChildCtaFinish { now, exec_cycles } => {
                self.ccqs.on_cta_finish(now, exec_cycles)
            }
            ControllerEvent::ChildWarpFinish { now, exec_cycles } => {
                self.ccqs.on_warp_finish(now, exec_cycles)
            }
        }
    }

    fn monitored(&self) -> Option<MonitoredMetrics> {
        // Read-only by contract: the windowed metrics are reported as of
        // the last `advance` (the most recent decision), never rolled
        // forward here, so telemetry sampling cannot change decisions.
        Some(MonitoredMetrics {
            in_system: self.ccqs.in_system(),
            t_cta: self.ccqs.t_cta(),
            n_con: self.ccqs.n_con(),
            t_warp: self.ccqs.t_warp(),
        })
    }

    fn predictions(&self) -> Option<&[u64]> {
        self.prediction_log.as_deref()
    }

    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.counter(
            "policy.spawn.bootstrap_launches",
            self.stats.bootstrap_launches,
        );
        reg.counter("policy.spawn.modeled_launches", self.stats.modeled_launches);
        reg.counter("policy.spawn.inlined", self.stats.inlined);
        reg.counter("policy.spawn.queue_rejections", self.stats.queue_rejections);
        reg.counter("policy.spawn.ccqs.in_system", self.ccqs.in_system());
        reg.counter(
            "policy.spawn.ccqs.peak_in_system",
            self.ccqs.peak_in_system(),
        );
        reg.counter("policy.spawn.ccqs.finished_ctas", self.ccqs.finished_ctas());
        reg.counter("policy.spawn.ccqs.t_cta", self.ccqs.t_cta());
        reg.counter("policy.spawn.ccqs.t_warp", self.ccqs.t_warp());
        reg.counter("policy.spawn.ccqs.n_con", self.ccqs.n_con());
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynapar_engine::Cycle;
    use dynapar_gpu::KernelId;

    fn request(now: u64, items: u32, ctas: u32, prior: u32) -> ChildRequest {
        ChildRequest {
            now: Cycle(now),
            parent_kernel: KernelId(0),
            depth: 1,
            items,
            child_ctas: ctas,
            child_threads: ctas * 64,
            child_warps_per_cta: 2,
            warp_prior_launches: prior,
            default_threshold: 128,
            pending_kernels: 0,
        }
    }

    fn policy() -> SpawnPolicy {
        SpawnPolicy::new(LaunchOverheadModel::default(), 4, 1000)
    }

    #[test]
    fn bootstrap_always_launches() {
        let mut p = policy();
        for i in 0..5 {
            assert_eq!(p.decide(&request(i, 10, 1, 0)), LaunchDecision::Kernel);
        }
        assert_eq!(p.stats().bootstrap_launches, 5);
        assert_eq!(p.ccqs().in_system(), 5);
    }

    /// Warms the metrics so the cost model becomes active: child CTAs take
    /// `cta_exec` cycles, warps take `warp_exec`, with `conc` concurrent.
    fn warm(p: &mut SpawnPolicy, cta_exec: u64, warp_exec: u64, conc: u32) {
        for _ in 0..conc {
            p.decide(&request(0, 1000, 1, 0));
        }
        for i in 0..conc {
            p.observe(&ControllerEvent::ChildCtaStart {
                now: Cycle(i as u64),
            });
        }
        for i in 0..conc {
            p.observe(&ControllerEvent::ChildWarpFinish {
                now: Cycle(100 + i as u64),
                exec_cycles: warp_exec,
            });
            p.observe(&ControllerEvent::ChildCtaFinish {
                now: Cycle(100 + i as u64),
                exec_cycles: cta_exec,
            });
        }
    }

    #[test]
    fn launches_when_parent_would_be_slower() {
        let mut p = policy();
        warm(&mut p, 2000, 500, 8);
        // t_overhead ~ 21931; t_child ~ 21931 + (4+0)*2000/n_con.
        // t_parent = 1000 * 500 = 500_000 >> t_child: launch.
        let d = p.decide(&request(10_000, 1000, 4, 0));
        assert_eq!(d, LaunchDecision::Kernel);
        assert_eq!(p.stats().modeled_launches, 1);
    }

    #[test]
    fn inlines_small_workloads_once_warm() {
        let mut p = policy();
        warm(&mut p, 2000, 500, 8);
        // t_parent = 40 * 500 = 20_000 < t_overhead alone (21931): inline.
        let d = p.decide(&request(10_000, 40, 1, 0));
        assert_eq!(d, LaunchDecision::Inline);
        assert_eq!(p.stats().inlined, 1);
    }

    #[test]
    fn queue_bound_rejects() {
        let mut p = SpawnPolicy::new(LaunchOverheadModel::default(), 4, 10);
        // Bootstrap launches until the queue bound would be exceeded.
        assert_eq!(p.decide(&request(0, 100, 8, 0)), LaunchDecision::Kernel);
        assert_eq!(p.decide(&request(1, 100, 8, 0)), LaunchDecision::Inline);
        assert_eq!(p.stats().queue_rejections, 1);
    }

    #[test]
    fn prior_launches_raise_overhead_estimate() {
        // With many prior launches, the overhead term alone can exceed
        // t_parent and flip the decision.
        let mut p = policy();
        warm(&mut p, 100, 30, 8);
        let items = 800; // t_parent = 800*30 = 24_000
                         // prior=0: t_overhead = 21931 + small queue term -> launch.
        assert_eq!(
            p.decide(&request(10_000, items, 1, 0)),
            LaunchDecision::Kernel
        );
        // prior=5: t_overhead = 1721*6 + 20210 = 30_536 -> inline.
        assert_eq!(
            p.decide(&request(10_001, items, 1, 5)),
            LaunchDecision::Inline
        );
    }

    #[test]
    fn queuing_backlog_discourages_launches() {
        let mut p = policy();
        warm(&mut p, 1000, 50, 4);
        // Flood the queue with approved launches to grow n.
        for i in 0..200 {
            p.decide(&request(20_000 + i, 100_000, 4, 0));
        }
        let n_before = p.ccqs().in_system();
        assert!(n_before > 100, "backlog built up");
        // A moderate workload now sees a long queue: t_child includes
        // n * t_cta / n_con which dwarfs t_parent.
        let d = p.decide(&request(30_000, 500, 4, 0));
        assert_eq!(d, LaunchDecision::Inline);
    }
}

#[cfg(test)]
mod integration_tests {
    use super::*;
    use std::sync::Arc;

    use dynapar_gpu::{
        DpSpec, GpuConfig, KernelDesc, Simulation, ThreadSource, ThreadWork, WorkClass,
    };

    #[test]
    fn stats_are_inspectable_after_a_run() {
        let cfg = GpuConfig::test_small();
        let mut sim = Simulation::builder(cfg.clone())
            .controller(Box::new(SpawnPolicy::from_config(&cfg)))
            .build();
        let threads: Vec<ThreadWork> = (0..128)
            .map(|t| ThreadWork {
                items: if t % 16 == 0 { 300 } else { 2 },
                seq_base: t as u64 * 4096,
                rand_seed: t as u64,
            })
            .collect();
        sim.launch_host(KernelDesc {
            name: "stats".into(),
            cta_threads: 64,
            regs_per_thread: 16,
            shmem_per_cta: 0,
            class: Arc::new(WorkClass::compute_only("p", 16)),
            source: ThreadSource::Explicit(threads.into()),
            dp: Some(Arc::new(DpSpec {
                child_class: Arc::new(WorkClass::compute_only("c", 16)),
                child_cta_threads: 32,
                child_items_per_thread: 1,
                child_regs_per_thread: 8,
                child_shmem_per_cta: 0,
                min_items: 16,
                default_threshold: 64,
                nested: None,
            })),
        });
        let outcome = sim.run();
        let report = &outcome.report;
        // Recover the concrete policy to read its counters.
        let stats_total = report.launch_requests;
        assert!(stats_total > 0);
        // The controller's own accounting must agree with the simulator's.
        let name = outcome.controller.name().to_string();
        assert_eq!(name, "SPAWN");
        assert_eq!(report.controller, "SPAWN");
        let policy = outcome
            .controller
            .as_any()
            .and_then(|a| a.downcast_ref::<SpawnPolicy>())
            .expect("downcast to SpawnPolicy");
        let s = policy.stats();
        assert_eq!(
            s.bootstrap_launches + s.modeled_launches + s.inlined,
            report.launch_requests
        );
    }
}

#[cfg(test)]
mod decision_matrix {
    //! Table-driven coverage of Algorithm 1: every combination of
    //! (metrics warm?, queue depth, workload size, prior launches)
    //! against the expected decision.

    use super::*;
    use dynapar_engine::Cycle;
    use dynapar_gpu::KernelId;

    fn request(items: u32, ctas: u32, prior: u32) -> ChildRequest {
        ChildRequest {
            now: Cycle(1 << 20),
            parent_kernel: KernelId(0),
            depth: 1,
            items,
            child_ctas: ctas,
            child_threads: ctas * 64,
            child_warps_per_cta: 2,
            warp_prior_launches: prior,
            default_threshold: 0,
            pending_kernels: 0,
        }
    }

    /// Builds a policy with fully-controlled metrics: `t_cta`, `t_warp`
    /// seeded; `n` raised to `backlog` via approved launches; `n_con`
    /// left at its pre-window value of 0 (so Algorithm 1's max(1) floor
    /// applies) unless `conc` CTAs are started inside the first window.
    fn policy_with(t_cta: u64, t_warp: u64, backlog: u64) -> SpawnPolicy {
        let mut p = SpawnPolicy::with_warm_start(
            LaunchOverheadModel::default(),
            10,
            1 << 20,
            t_cta,
            t_warp,
        );
        if backlog > 0 {
            // Approve one launch of `backlog` CTAs to set n.
            let d = p.decide(&request(u32::MAX, backlog as u32, 0));
            assert_eq!(d, LaunchDecision::Kernel);
        }
        p
    }

    #[test]
    fn matrix_no_backlog() {
        // t_child = 21931 + x*t_cta; t_parent = items * t_warp.
        // With t_cta=400, t_warp=400, n=0, n_con=1:
        for (items, ctas, expect) in [
            // t_parent = 400*items vs t_child = 21931 + 400*ctas
            (10u32, 1u32, LaunchDecision::Inline), // 4k < 22.3k
            (56, 1, LaunchDecision::Kernel),       // 22.4k just clears 22.33k
            (100, 1, LaunchDecision::Kernel),      // 40k > 22.3k
            (100, 64, LaunchDecision::Inline),     // 40k < 21931+25600=47.5k
            (200, 64, LaunchDecision::Kernel),     // 80k > 47.5k
        ] {
            let mut p = policy_with(400, 400, 0);
            let got = p.decide(&request(items, ctas, 0));
            // Recompute the exact expectation to keep the test precise.
            let t_child = 1721 + 20210 + (ctas as u64) * 400;
            let t_parent = items as u64 * 400;
            let exact = if t_child <= t_parent {
                LaunchDecision::Kernel
            } else {
                LaunchDecision::Inline
            };
            assert_eq!(got, exact, "items={items} ctas={ctas}");
            // And the table's human-readable expectation must agree.
            assert_eq!(got, expect, "items={items} ctas={ctas}");
        }
    }

    #[test]
    fn matrix_backlog_raises_the_bar() {
        // Same workload, growing backlog: decision flips to inline.
        let items = 120;
        for (backlog, expect) in [
            (0u64, LaunchDecision::Kernel),   // t_child = 22.3k vs 48k
            (50, LaunchDecision::Kernel),     // +50*400 = 42.3k vs 48k
            (100, LaunchDecision::Inline),    // +100*400 = 62.3k vs 48k
            (10_000, LaunchDecision::Inline), // queue dominates
        ] {
            let mut p = policy_with(400, 400, backlog);
            assert_eq!(p.decide(&request(items, 1, 0)), expect, "backlog={backlog}");
        }
    }

    #[test]
    fn matrix_prior_launches_raise_overhead() {
        // items*t_warp = 14k; overhead alone decides.
        let items = 35; // t_parent = 14k
        {
            // prior=0: 21931 > 14k, inline anyway.
            let mut p = policy_with(400, 400, 0);
            assert_eq!(p.decide(&request(items, 1, 0)), LaunchDecision::Inline);
        }
        // A big workload launches at prior=0 but not at prior=30
        // (overhead 1721*31+20210 = 73561 > t_parent = 24k... recompute):
        let items = 60; // t_parent = 24k
        let mut p = policy_with(400, 400, 0);
        assert_eq!(p.decide(&request(items, 1, 0)), LaunchDecision::Kernel);
        let mut p = policy_with(400, 400, 0);
        assert_eq!(p.decide(&request(items, 1, 30)), LaunchDecision::Inline);
    }

    #[test]
    fn accounting_follows_decisions() {
        let mut p = policy_with(400, 400, 0);
        let before = p.ccqs().in_system();
        p.decide(&request(1_000, 8, 0)); // launch
        assert_eq!(p.ccqs().in_system(), before + 8);
        p.decide(&request(1, 1, 0)); // inline
        assert_eq!(p.ccqs().in_system(), before + 8);
        let stats = p.stats();
        assert_eq!(stats.modeled_launches, 1);
        assert_eq!(stats.inlined, 1);
        assert_eq!(stats.bootstrap_launches, 0, "metrics were warm");
    }
}

#[cfg(test)]
mod hybrid_tests {
    use super::*;
    use dynapar_engine::Cycle;
    use dynapar_gpu::KernelId;

    #[test]
    fn hybrid_routes_launches_through_aggregation() {
        let mut p =
            SpawnPolicy::new(LaunchOverheadModel::default(), 4, 1000).with_aggregated_launches();
        assert_eq!(p.name(), "SPAWN+DTBL");
        // Bootstrap decision must come back as Aggregated, not Kernel.
        let req = ChildRequest {
            now: Cycle(0),
            parent_kernel: KernelId(0),
            depth: 1,
            items: 500,
            child_ctas: 2,
            child_threads: 128,
            child_warps_per_cta: 2,
            warp_prior_launches: 0,
            default_threshold: 8,
            pending_kernels: 0,
        };
        assert_eq!(p.decide(&req), LaunchDecision::Aggregated);
        assert_eq!(p.ccqs().in_system(), 2, "CCQS still accounts the CTAs");
    }
}
