//! Daemon runtime telemetry: per-job-class latency histograms, live
//! gauges, and the `metrics`/`health` response renderings.
//!
//! This is the service-layer counterpart of the simulator's metrics
//! registry. Simulations stay deterministic and wall-clock-free;
//! everything here measures *host* time around them (queue wait,
//! execution, end-to-end, memo lookups) and lives entirely outside the
//! artifact path, so instrumented and vanilla daemons emit byte-
//! identical artifacts.
//!
//! Latencies are recorded per **job class** — the job's policy label
//! (`flat`, `spawn`, `dtbl`, `threshold:N`, …) — into fixed-geometry
//! [`LatencyHistogram`]s, so distributions for different policies can
//! be compared or merged without rebinning. Gauges (queue depth,
//! in-flight jobs, persisted-store bytes, worker count) are read live
//! from the registry and worker queue at response time.
//!
//! Renderings are byte-stable: classes sort lexicographically (a
//! `BTreeMap` underneath), member order is fixed, and the same state
//! always emits the same bytes — pinned by tests.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use dynapar_engine::json::Json;
use dynapar_engine::stats::LatencyHistogram;

/// Which host-side interval a latency sample measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Submit-accepted → worker picked the job up.
    QueueWait,
    /// Worker start → terminal state (the simulation itself).
    Execute,
    /// Submit-accepted → terminal state.
    EndToEnd,
    /// Time spent inside the registry's admission decision (memo
    /// lookup + coalescing check), recorded for every submit.
    MemoLookup,
}

/// The four per-class latency histograms.
#[derive(Debug, Clone, Default)]
pub struct ClassMetrics {
    /// Queue-wait distribution.
    pub queue_wait: LatencyHistogram,
    /// Execution distribution.
    pub execute: LatencyHistogram,
    /// End-to-end distribution.
    pub end_to_end: LatencyHistogram,
    /// Admission (memo-lookup) distribution.
    pub memo_lookup: LatencyHistogram,
}

impl ClassMetrics {
    fn histogram_mut(&mut self, phase: Phase) -> &mut LatencyHistogram {
        match phase {
            Phase::QueueWait => &mut self.queue_wait,
            Phase::Execute => &mut self.execute,
            Phase::EndToEnd => &mut self.end_to_end,
            Phase::MemoLookup => &mut self.memo_lookup,
        }
    }

    /// `(json_member_name, histogram)` pairs in emission order.
    pub fn phases(&self) -> [(&'static str, &LatencyHistogram); 4] {
        [
            ("queue_wait_us", &self.queue_wait),
            ("execute_us", &self.execute),
            ("end_to_end_us", &self.end_to_end),
            ("memo_lookup_us", &self.memo_lookup),
        ]
    }
}

/// Live instantaneous values, read from the registry and worker queue
/// at response time (they are owned elsewhere; this is just transport).
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Jobs sitting on the worker queue right now.
    pub queue_depth: u64,
    /// Distinct configs currently queued or running (registry
    /// in-flight table size).
    pub inflight: u64,
    /// Bytes currently persisted in the artifact store (0 without
    /// `--store`).
    pub store_bytes: u64,
    /// Worker threads executing jobs.
    pub workers: u64,
}

/// Shared recorder for the daemon's latency telemetry.
///
/// Cheap to record into (one mutex + a few integer ops, entirely off
/// the simulation hot path — recording happens around runs, never
/// inside them).
pub struct ServerMetrics {
    started: Instant,
    classes: Mutex<BTreeMap<String, ClassMetrics>>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// A fresh recorder; uptime counts from here.
    pub fn new() -> Self {
        ServerMetrics {
            started: Instant::now(),
            classes: Mutex::new(BTreeMap::new()),
        }
    }

    /// Records one latency sample for `class` (a policy label).
    pub fn record(&self, class: &str, phase: Phase, us: u64) {
        let mut g = self.classes.lock().expect("metrics poisoned");
        if !g.contains_key(class) {
            g.insert(class.to_string(), ClassMetrics::default());
        }
        g.get_mut(class)
            .expect("just inserted")
            .histogram_mut(phase)
            .record(us);
    }

    /// Microseconds since the daemon's metrics started.
    pub fn uptime_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// A point-in-time copy of every class's histograms, sorted by
    /// class name.
    pub fn snapshot(&self) -> Vec<(String, ClassMetrics)> {
        self.classes
            .lock()
            .expect("metrics poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

/// The `metrics` response: histograms and gauges as JSON plus a
/// Prometheus-style text rendering under `"prometheus"`.
///
/// Member order is fixed and classes sort lexicographically, so the
/// same daemon state always emits the same bytes.
pub fn metrics_response(metrics: &ServerMetrics, gauges: &Gauges) -> Json {
    render_metrics(metrics.uptime_us(), gauges, &metrics.snapshot())
}

/// Pure renderer behind [`metrics_response`]: a fixed `(uptime, gauges,
/// class snapshot)` triple always produces the same bytes.
fn render_metrics(uptime_us: u64, gauges: &Gauges, classes: &[(String, ClassMetrics)]) -> Json {
    let latencies = classes.iter().map(|(class, cm)| {
        (
            class.clone(),
            Json::obj(cm.phases().map(|(name, h)| (name, h.to_json()))),
        )
    });
    Json::obj([
        ("ok", Json::Bool(true)),
        ("uptime_us", Json::U64(uptime_us)),
        (
            "gauges",
            Json::obj([
                ("queue_depth", Json::U64(gauges.queue_depth)),
                ("inflight", Json::U64(gauges.inflight)),
                ("store_bytes", Json::U64(gauges.store_bytes)),
                ("workers", Json::U64(gauges.workers)),
            ]),
        ),
        ("latencies", Json::Obj(latencies.collect())),
        (
            "prometheus",
            Json::str(prometheus_text(uptime_us, gauges, classes)),
        ),
    ])
}

/// The `health` response: a cheap liveness probe for supervisors.
pub fn health_response(metrics: &ServerMetrics, gauges: &Gauges) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("status", Json::str("ok")),
        ("uptime_us", Json::U64(metrics.uptime_us())),
        ("workers", Json::U64(gauges.workers)),
        ("queue_depth", Json::U64(gauges.queue_depth)),
        ("inflight", Json::U64(gauges.inflight)),
    ])
}

/// Prometheus exposition-format text for the same state: gauges as
/// `gauge` metrics, latencies as cumulative `histogram` metrics with
/// power-of-two `le` edges (buckets above each class's highest occupied
/// edge collapse into `+Inf`).
pub fn prometheus_text(
    uptime_us: u64,
    gauges: &Gauges,
    classes: &[(String, ClassMetrics)],
) -> String {
    let mut out = String::new();
    let mut gauge = |name: &str, value: String| {
        out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
    };
    gauge(
        "dynapar_uptime_seconds",
        format!("{}", uptime_us as f64 / 1e6),
    );
    gauge("dynapar_queue_depth", gauges.queue_depth.to_string());
    gauge("dynapar_inflight_jobs", gauges.inflight.to_string());
    gauge("dynapar_store_bytes", gauges.store_bytes.to_string());
    gauge("dynapar_workers", gauges.workers.to_string());
    for phase in ["queue_wait", "execute", "end_to_end", "memo_lookup"] {
        let name = format!("dynapar_job_{phase}_us");
        out.push_str(&format!("# TYPE {name} histogram\n"));
        for (class, cm) in classes {
            let h = match phase {
                "queue_wait" => &cm.queue_wait,
                "execute" => &cm.execute,
                "end_to_end" => &cm.end_to_end,
                _ => &cm.memo_lookup,
            };
            let buckets = h.buckets();
            let highest = buckets.iter().rposition(|&c| c > 0);
            let mut cumulative = 0u64;
            if let Some(highest) = highest {
                for (i, &c) in buckets.iter().enumerate().take(highest + 1) {
                    cumulative += c;
                    out.push_str(&format!(
                        "{name}_bucket{{class=\"{class}\",le=\"{}\"}} {cumulative}\n",
                        LatencyHistogram::bucket_upper(i)
                    ));
                }
            }
            out.push_str(&format!(
                "{name}_bucket{{class=\"{class}\",le=\"+Inf\"}} {}\n",
                h.count()
            ));
            out.push_str(&format!("{name}_sum{{class=\"{class}\"}} {}\n", h.sum_us()));
            out.push_str(&format!(
                "{name}_count{{class=\"{class}\"}} {}\n",
                h.count()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zeroed_uptime(doc: Json) -> Json {
        // uptime is the only wall-clock-dependent member; pin it for
        // byte-stability assertions.
        match doc {
            Json::Obj(members) => Json::Obj(
                members
                    .into_iter()
                    .map(|(k, v)| {
                        if k == "uptime_us" {
                            (k, Json::U64(0))
                        } else {
                            (k, v)
                        }
                    })
                    .collect(),
            ),
            other => other,
        }
    }

    #[test]
    fn health_response_field_order_is_byte_stable() {
        let m = ServerMetrics::new();
        let g = Gauges {
            queue_depth: 2,
            inflight: 1,
            store_bytes: 0,
            workers: 4,
        };
        let text = zeroed_uptime(health_response(&m, &g)).to_string();
        assert_eq!(
            text,
            concat!(
                r#"{"ok":true,"status":"ok","uptime_us":0,"#,
                r#""workers":4,"queue_depth":2,"inflight":1}"#
            )
        );
    }

    #[test]
    fn metrics_response_field_order_is_byte_stable() {
        let m = ServerMetrics::new();
        m.record("spawn", Phase::Execute, 900);
        m.record("flat", Phase::MemoLookup, 3);
        let g = Gauges {
            queue_depth: 0,
            inflight: 0,
            store_bytes: 123,
            workers: 1,
        };
        let a = render_metrics(0, &g, &m.snapshot()).to_string();
        let b = render_metrics(0, &g, &m.snapshot()).to_string();
        assert_eq!(a, b, "same state emits same bytes");
        // Classes sort lexicographically; fixed member order inside.
        let doc = Json::parse(&a).unwrap();
        let classes: Vec<&str> = doc
            .get("latencies")
            .unwrap()
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(classes, ["flat", "spawn"]);
        let spawn = doc.get("latencies").unwrap().get("spawn").unwrap();
        let phases: Vec<&str> = spawn
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            phases,
            [
                "queue_wait_us",
                "execute_us",
                "end_to_end_us",
                "memo_lookup_us"
            ]
        );
        assert_eq!(
            spawn
                .get("execute_us")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(
            doc.get("gauges")
                .unwrap()
                .get("store_bytes")
                .unwrap()
                .as_u64(),
            Some(123)
        );
    }

    #[test]
    fn prometheus_rendering_has_cumulative_buckets() {
        let m = ServerMetrics::new();
        m.record("spawn", Phase::Execute, 1); // bucket le=2
        m.record("spawn", Phase::Execute, 3); // bucket le=4
        let g = Gauges::default();
        let text = prometheus_text(0, &g, &m.snapshot());
        assert!(
            text.contains("# TYPE dynapar_job_execute_us histogram"),
            "{text}"
        );
        assert!(
            text.contains("dynapar_job_execute_us_bucket{class=\"spawn\",le=\"2\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("dynapar_job_execute_us_bucket{class=\"spawn\",le=\"4\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("dynapar_job_execute_us_bucket{class=\"spawn\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("dynapar_job_execute_us_count{class=\"spawn\"} 2"),
            "{text}"
        );
        assert!(text.contains("dynapar_uptime_seconds 0\n"), "{text}");
        assert!(text.contains("# TYPE dynapar_workers gauge"), "{text}");
    }

    #[test]
    fn recording_is_per_class_and_per_phase() {
        let m = ServerMetrics::new();
        m.record("spawn", Phase::QueueWait, 10);
        m.record("spawn", Phase::QueueWait, 20);
        m.record("dtbl", Phase::EndToEnd, 30);
        let snap = m.snapshot();
        assert_eq!(snap.len(), 2);
        let (name, dtbl) = &snap[0];
        assert_eq!(name, "dtbl");
        assert_eq!(dtbl.end_to_end.count(), 1);
        assert_eq!(dtbl.queue_wait.count(), 0);
        let (_, spawn) = &snap[1];
        assert_eq!(spawn.queue_wait.count(), 2);
    }
}
