//! Run-level statistics and the final simulation report.

use std::sync::Arc;

use dynapar_engine::json::Json;
use dynapar_engine::metrics::MetricsLevel;

use crate::mem::MemStats;

/// Why a kernel existed (public mirror of the internal kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelRole {
    /// Host-launched parent kernel.
    Host,
    /// Device-launched child kernel.
    Child,
    /// DTBL aggregation kernel.
    Aggregated,
}

/// Lifecycle summary of one kernel instance, for post-run analysis
/// (launch CDFs, queue-latency distributions, per-kernel tracing).
#[derive(Debug, Clone)]
pub struct KernelSummary {
    /// Dense kernel id (creation order).
    pub id: u32,
    /// Kernel name (work-class label for children).
    pub name: Arc<str>,
    /// Host / child / aggregated.
    pub role: KernelRole,
    /// Nesting depth (0 = host kernel).
    pub depth: u8,
    /// CTAs in the grid (final count for aggregation kernels).
    pub grid_ctas: u32,
    /// Cycle the launch was decided (0 for host kernels).
    pub created_at: u64,
    /// Cycle the kernel entered the GMU pending pool.
    pub arrived_at: Option<u64>,
    /// Cycle the first CTA was dispatched.
    pub first_dispatch: Option<u64>,
    /// Cycle the kernel's own CTAs all completed.
    pub own_done_at: Option<u64>,
}

impl KernelSummary {
    /// GMU queuing latency (arrival to first dispatch), if dispatched.
    pub fn queue_latency(&self) -> Option<u64> {
        Some(self.first_dispatch? - self.arrived_at?)
    }

    /// Launch-path latency (decision to GMU arrival) — the `A·x + b`
    /// overhead for child kernels.
    pub fn launch_latency(&self) -> Option<u64> {
        Some(self.arrived_at? - self.created_at)
    }

    /// Renders the summary as a JSON object.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
        Json::obj([
            ("id", Json::U64(self.id as u64)),
            ("name", Json::str(self.name.as_ref())),
            ("role", Json::str(format!("{:?}", self.role))),
            ("depth", Json::U64(self.depth as u64)),
            ("grid_ctas", Json::U64(self.grid_ctas as u64)),
            ("created_at", Json::U64(self.created_at)),
            ("arrived_at", opt(self.arrived_at)),
            ("first_dispatch", opt(self.first_dispatch)),
            ("own_done_at", opt(self.own_done_at)),
        ])
    }
}

/// One timeline sample (Figs. 6 and 19): concurrent CTA counts and the
/// resource-utilization metric of §III-A1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineSample {
    /// CTAs of parent (host-launched) kernels resident on SMXs.
    pub parent_ctas: u32,
    /// CTAs of child / aggregated kernels resident on SMXs.
    pub child_ctas: u32,
    /// `max(register util, shared-memory util, thread-slot util)` across
    /// all SMXs — the paper's *resource utilization*.
    pub utilization: f64,
    /// Kernels concurrently executable (occupied HWQ heads) — bounded by
    /// the 32-HWQ hardware limit.
    pub concurrent_kernels: u32,
    /// The busiest single SMX's utilization (hotspot diagnostic).
    pub peak_smx_utilization: f64,
}

impl TimelineSample {
    /// Total concurrently-resident CTAs.
    pub fn total_ctas(&self) -> u32 {
        self.parent_ctas + self.child_ctas
    }
}

/// Everything measured during one simulation run.
///
/// Produced by [`Simulation::run`](crate::Simulation::run); the benchmark
/// harness consumes these to regenerate the paper's tables and figures.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Name of the launch policy that drove the run.
    pub controller: String,
    /// End-to-end execution time in cycles.
    pub total_cycles: u64,
    /// Device-launched child kernels actually created (Fig. 18).
    pub child_kernels_launched: u64,
    /// Launch-site evaluations (candidate threads that consulted the
    /// controller).
    pub launch_requests: u64,
    /// Requests resolved to inline execution in the parent thread.
    pub inlined_requests: u64,
    /// Requests resolved by Free-Launch-style intra-warp redistribution.
    pub redistributed_requests: u64,
    /// DTBL-aggregated logical launches.
    pub aggregated_launches: u64,
    /// CTAs pushed through the DTBL aggregated path.
    pub aggregated_ctas: u64,
    /// Child CTAs executed (kernel-launched and aggregated).
    pub child_ctas_executed: u64,
    /// Work items executed inside parent threads.
    pub items_inline: u64,
    /// Work items executed by child/aggregated kernels.
    pub items_child: u64,
    /// Time-averaged resident warps / warp capacity (Fig. 16's occupancy).
    pub occupancy: f64,
    /// Memory system counters (Fig. 17 uses `mem.l2_hit_rate()`).
    pub mem: MemStats,
    /// Mean DRAM row-buffer hit rate (diagnostic).
    pub dram_row_hit_rate: f64,
    /// Average cycles a child kernel waited between GMU arrival and first
    /// CTA dispatch (the paper's *queuing latency*).
    pub avg_child_queue_latency: f64,
    /// High-water mark of the GMU pending pool.
    pub max_pending_kernels: u32,
    /// Periodic samples: `(cycle, sample)`.
    pub timeline: Vec<(u64, TimelineSample)>,
    /// Execution time of every child CTA (Fig. 12's PDF input).
    pub child_cta_exec_cycles: Vec<u64>,
    /// Launch timestamp of every child kernel (Fig. 20's CDF input).
    pub child_launch_cycles: Vec<u64>,
    /// Total events processed (simulator diagnostic): global scheduler
    /// pops plus per-SMX local wakeups.
    pub events_processed: u64,
    /// Events popped from the global scheduler queue.
    pub events_global: u64,
    /// Warp wakeups drained from per-SMX local wheels (never routed
    /// through the global queue).
    pub events_local: u64,
    /// SMX anchor events that fired with nothing to drain, issue, or
    /// relay. Structurally zero — the determinism tests assert it — and
    /// kept as a counter so a future scheduling change that reintroduces
    /// dead pops is caught, not silent.
    pub dead_wakeups: u64,
    /// High-water mark of the global scheduler queue depth.
    pub peak_queue_depth: u64,
    /// High-water mark of any single SMX's local wakeup backlog.
    pub peak_local_backlog: u64,
    /// Host wall-clock time of the run in milliseconds. Measured, not
    /// simulated — this is the only nondeterministic field in the report,
    /// so determinism comparisons must ignore it.
    pub wall_ms: f64,
    /// Per-kernel lifecycle summaries, in creation order.
    pub kernels: Vec<KernelSummary>,
}

impl SimReport {
    /// Speedup of this run relative to a baseline run of the same program
    /// (`baseline_cycles / self.total_cycles`).
    ///
    /// # Panics
    ///
    /// Panics if this run reported zero cycles.
    pub fn speedup_over(&self, baseline_cycles: u64) -> f64 {
        assert!(self.total_cycles > 0, "run must have taken time");
        baseline_cycles as f64 / self.total_cycles as f64
    }

    /// Total work items executed anywhere.
    pub fn items_total(&self) -> u64 {
        self.items_inline + self.items_child
    }

    /// Fraction of work executed by dynamically-launched code — the
    /// x-axis of Fig. 5 ("percentage of workload offloaded").
    pub fn offload_fraction(&self) -> f64 {
        let total = self.items_total();
        if total == 0 {
            0.0
        } else {
            self.items_child as f64 / total as f64
        }
    }

    /// Mean child-CTA execution time in cycles (the `t_cta` the controller
    /// converged to), 0 when no child CTAs ran.
    pub fn mean_child_cta_exec(&self) -> f64 {
        if self.child_cta_exec_cycles.is_empty() {
            0.0
        } else {
            self.child_cta_exec_cycles.iter().sum::<u64>() as f64
                / self.child_cta_exec_cycles.len() as f64
        }
    }

    /// Simulator throughput in events per wall-clock second, or `None`
    /// when the run was too fast to time (so callers cannot silently fold
    /// a zero rate into an average).
    pub fn events_per_sec(&self) -> Option<f64> {
        if self.wall_ms <= 0.0 {
            None
        } else {
            Some(self.events_processed as f64 / (self.wall_ms / 1e3))
        }
    }

    /// Renders the report as a JSON object for the run artifact.
    ///
    /// Deliberately excludes `wall_ms` (and the throughput derived from
    /// it): host timing is the report's only nondeterministic field, and
    /// leaving it out keeps artifacts byte-identical across reruns and
    /// job counts. The bulky vectors (timeline, per-CTA and per-launch
    /// cycles) are included only at [`MetricsLevel::Full`] and above.
    pub fn to_json(&self, level: MetricsLevel) -> Json {
        let mut members = vec![
            ("controller".to_string(), Json::str(self.controller.clone())),
            ("total_cycles".to_string(), Json::U64(self.total_cycles)),
            (
                "child_kernels_launched".to_string(),
                Json::U64(self.child_kernels_launched),
            ),
            (
                "launch_requests".to_string(),
                Json::U64(self.launch_requests),
            ),
            (
                "inlined_requests".to_string(),
                Json::U64(self.inlined_requests),
            ),
            (
                "redistributed_requests".to_string(),
                Json::U64(self.redistributed_requests),
            ),
            (
                "aggregated_launches".to_string(),
                Json::U64(self.aggregated_launches),
            ),
            (
                "aggregated_ctas".to_string(),
                Json::U64(self.aggregated_ctas),
            ),
            (
                "child_ctas_executed".to_string(),
                Json::U64(self.child_ctas_executed),
            ),
            ("items_inline".to_string(), Json::U64(self.items_inline)),
            ("items_child".to_string(), Json::U64(self.items_child)),
            ("occupancy".to_string(), Json::F64(self.occupancy)),
            (
                "mem".to_string(),
                Json::obj([
                    ("l1_accesses", Json::U64(self.mem.l1_accesses)),
                    ("l1_hits", Json::U64(self.mem.l1_hits)),
                    ("l2_accesses", Json::U64(self.mem.l2_accesses)),
                    ("l2_hits", Json::U64(self.mem.l2_hits)),
                    ("dram_accesses", Json::U64(self.mem.dram_accesses)),
                    ("writes", Json::U64(self.mem.writes)),
                    ("mshr_stalls", Json::U64(self.mem.mshr_stalls)),
                ]),
            ),
            (
                "dram_row_hit_rate".to_string(),
                Json::F64(self.dram_row_hit_rate),
            ),
            (
                "avg_child_queue_latency".to_string(),
                Json::F64(self.avg_child_queue_latency),
            ),
            (
                "max_pending_kernels".to_string(),
                Json::U64(self.max_pending_kernels as u64),
            ),
            (
                "events_processed".to_string(),
                Json::U64(self.events_processed),
            ),
            ("events_global".to_string(), Json::U64(self.events_global)),
            ("events_local".to_string(), Json::U64(self.events_local)),
            ("dead_wakeups".to_string(), Json::U64(self.dead_wakeups)),
            (
                "peak_queue_depth".to_string(),
                Json::U64(self.peak_queue_depth),
            ),
            (
                "peak_local_backlog".to_string(),
                Json::U64(self.peak_local_backlog),
            ),
            (
                "kernels".to_string(),
                Json::Arr(self.kernels.iter().map(KernelSummary::to_json).collect()),
            ),
        ];
        if level.at_least_full() {
            members.push((
                "timeline".to_string(),
                Json::Arr(
                    self.timeline
                        .iter()
                        .map(|(t, s)| {
                            Json::obj([
                                ("cycle", Json::U64(*t)),
                                ("parent_ctas", Json::U64(s.parent_ctas as u64)),
                                ("child_ctas", Json::U64(s.child_ctas as u64)),
                                ("utilization", Json::F64(s.utilization)),
                                ("concurrent_kernels", Json::U64(s.concurrent_kernels as u64)),
                                ("peak_smx_utilization", Json::F64(s.peak_smx_utilization)),
                            ])
                        })
                        .collect(),
                ),
            ));
            members.push((
                "child_cta_exec_cycles".to_string(),
                Json::Arr(
                    self.child_cta_exec_cycles
                        .iter()
                        .map(|&c| Json::U64(c))
                        .collect(),
                ),
            ));
            members.push((
                "child_launch_cycles".to_string(),
                Json::Arr(
                    self.child_launch_cycles
                        .iter()
                        .map(|&c| Json::U64(c))
                        .collect(),
                ),
            ));
        }
        Json::Obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn report() -> SimReport {
        SimReport {
            controller: "test".into(),
            total_cycles: 100,
            child_kernels_launched: 2,
            launch_requests: 4,
            inlined_requests: 2,
            redistributed_requests: 0,
            aggregated_launches: 0,
            aggregated_ctas: 0,
            child_ctas_executed: 4,
            items_inline: 30,
            items_child: 70,
            occupancy: 0.5,
            mem: MemStats::default(),
            dram_row_hit_rate: 0.0,
            avg_child_queue_latency: 10.0,
            max_pending_kernels: 3,
            timeline: vec![],
            child_cta_exec_cycles: vec![10, 20, 30, 40],
            child_launch_cycles: vec![1, 2],
            events_processed: 123,
            events_global: 100,
            events_local: 23,
            dead_wakeups: 0,
            peak_queue_depth: 16,
            peak_local_backlog: 4,
            wall_ms: 2.0,
            kernels: vec![],
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.speedup_over(200) - 2.0).abs() < 1e-12);
        assert_eq!(r.items_total(), 100);
        assert!((r.offload_fraction() - 0.7).abs() < 1e-12);
        assert!((r.mean_child_cta_exec() - 25.0).abs() < 1e-12);
        let rate = r.events_per_sec().expect("timed run");
        assert!((rate - 61_500.0).abs() < 1e-6);
    }

    #[test]
    fn untimed_run_has_no_throughput() {
        let mut r = report();
        r.wall_ms = 0.0;
        assert_eq!(r.events_per_sec(), None);
        r.wall_ms = -1.0;
        assert_eq!(r.events_per_sec(), None);
    }

    #[test]
    fn json_export_excludes_wall_ms_and_scales_with_level() {
        let mut r = report();
        r.kernels.push(KernelSummary {
            id: 0,
            name: "host".into(),
            role: KernelRole::Host,
            depth: 0,
            grid_ctas: 2,
            created_at: 0,
            arrived_at: Some(0),
            first_dispatch: Some(10),
            own_done_at: Some(90),
        });
        let summary = r.to_json(MetricsLevel::Summary);
        assert_eq!(summary.get("wall_ms"), None, "wall_ms is nondeterministic");
        assert_eq!(summary.get("total_cycles").unwrap().as_u64(), Some(100));
        assert_eq!(summary.get("events_global").unwrap().as_u64(), Some(100));
        assert_eq!(summary.get("events_local").unwrap().as_u64(), Some(23));
        assert_eq!(summary.get("dead_wakeups").unwrap().as_u64(), Some(0));
        assert_eq!(summary.get("timeline"), None, "bulk vectors need Full");
        assert_eq!(
            summary.get("kernels").unwrap().as_array().unwrap().len(),
            1,
            "kernel summaries present at every enabled level"
        );
        let full = r.to_json(MetricsLevel::Full);
        assert_eq!(
            full.get("child_cta_exec_cycles")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            4
        );
        // Emission must survive a parse round trip byte-identically.
        let text = full.to_string();
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn empty_edge_cases() {
        let mut r = report();
        r.items_inline = 0;
        r.items_child = 0;
        r.child_cta_exec_cycles.clear();
        assert_eq!(r.offload_fraction(), 0.0);
        assert_eq!(r.mean_child_cta_exec(), 0.0);
    }

    #[test]
    fn timeline_sample_total() {
        let s = TimelineSample {
            parent_ctas: 3,
            child_ctas: 4,
            utilization: 0.5,
            concurrent_kernels: 2,
            peak_smx_utilization: 0.9,
        };
        assert_eq!(s.total_ctas(), 7);
    }

    #[test]
    fn kernel_summary_latencies() {
        let k = KernelSummary {
            id: 1,
            name: "k".into(),
            role: KernelRole::Child,
            depth: 1,
            grid_ctas: 4,
            created_at: 100,
            arrived_at: Some(22_031),
            first_dispatch: Some(25_000),
            own_done_at: Some(30_000),
        };
        assert_eq!(k.launch_latency(), Some(21_931));
        assert_eq!(k.queue_latency(), Some(2_969));
        let never = KernelSummary {
            arrived_at: None,
            first_dispatch: None,
            own_done_at: None,
            ..k
        };
        assert_eq!(never.queue_latency(), None);
        assert_eq!(never.launch_latency(), None);
    }
}

impl SimReport {
    /// The timeline as CSV (`cycle,parent_ctas,child_ctas,utilization,
    /// concurrent_kernels,peak_smx_utilization`) for external plotting.
    pub fn timeline_csv(&self) -> String {
        let mut out = String::from(
            "cycle,parent_ctas,child_ctas,utilization,concurrent_kernels,peak_smx_utilization\n",
        );
        for (t, s) in &self.timeline {
            out.push_str(&format!(
                "{},{},{},{:.4},{},{:.4}\n",
                t,
                s.parent_ctas,
                s.child_ctas,
                s.utilization,
                s.concurrent_kernels,
                s.peak_smx_utilization
            ));
        }
        out
    }

    /// Per-kernel lifecycle table as CSV (`id,name,role,depth,grid_ctas,
    /// created,arrived,first_dispatch,own_done,launch_latency,queue_latency`).
    pub fn kernels_csv(&self) -> String {
        let mut out = String::from(
            "id,name,role,depth,grid_ctas,created,arrived,first_dispatch,own_done,launch_latency,queue_latency\n",
        );
        let opt = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_default();
        for k in &self.kernels {
            out.push_str(&format!(
                "{},{},{:?},{},{},{},{},{},{},{},{}\n",
                k.id,
                k.name,
                k.role,
                k.depth,
                k.grid_ctas,
                k.created_at,
                opt(k.arrived_at),
                opt(k.first_dispatch),
                opt(k.own_done_at),
                opt(k.launch_latency()),
                opt(k.queue_latency()),
            ));
        }
        out
    }
}

#[cfg(test)]
mod csv_tests {
    use super::*;

    #[test]
    fn csv_outputs_have_headers_and_rows() {
        let mut r = super::tests::report();
        r.timeline.push((
            1000,
            TimelineSample {
                parent_ctas: 2,
                child_ctas: 3,
                utilization: 0.5,
                concurrent_kernels: 1,
                peak_smx_utilization: 0.75,
            },
        ));
        r.kernels.push(KernelSummary {
            id: 0,
            name: "host".into(),
            role: KernelRole::Host,
            depth: 0,
            grid_ctas: 2,
            created_at: 0,
            arrived_at: Some(0),
            first_dispatch: Some(10),
            own_done_at: Some(90),
        });
        let t = r.timeline_csv();
        assert!(t.starts_with("cycle,"));
        assert!(t.contains("1000,2,3,0.5000,1,0.7500"));
        let k = r.kernels_csv();
        assert!(k.starts_with("id,"));
        assert!(k.contains("0,host,Host,0,2,0,0,10,90,0,10"));
    }
}
