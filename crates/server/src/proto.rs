//! The frozen v1 wire protocol: line-delimited JSON over TCP.
//!
//! Every request is one JSON object on one `\n`-terminated line, and
//! every response is the same. A request carries `"v": 1` (the protocol
//! version — frozen; a v2 will be a new number, never a silent change)
//! and a `"type"` selecting the operation:
//!
//! | type | extra keys | response |
//! |---|---|---|
//! | `submit` | `job` (the [`JobRequest`] wire form) | `{ok,id,cached,hash}` |
//! | `status` | `id` | `{ok,id,state,cached,progress_cycles[,error]}` |
//! | `result` | `id` | blocks, then `{ok,id,cached,hash,artifact}` |
//! | `watch` | `id` | a stream of `{ok,event:"progress",…[,samples]}` lines, then `{ok,event:"end",…}` |
//! | `cancel` | `id` | `{ok,id,state}` |
//! | `sweep` | `job`, `policies`[, `fork_warmup`] | `{ok,ids,cached,hashes}` |
//! | `stats` | — | `{ok,submitted,executed,memo_hits,…,uptime_us,inflight_now,store_bytes}` |
//! | `metrics` | — | `{ok,uptime_us,gauges,latencies,prometheus}` |
//! | `health` | — | `{ok,status,uptime_us,workers,queue_depth,inflight}` |
//! | `shutdown` | — | `{ok,stopping:true}`, then the daemon exits |
//!
//! Failures are `{"ok":false,"error":"…"}`. Parsing is strict on both
//! axes: unknown `type`s, unknown keys, missing `v`, and a `v` other
//! than [`PROTOCOL_VERSION`] are all errors — a typo must never
//! silently run a default. Requests longer than [`MAX_LINE_BYTES`] are
//! rejected and the connection closed (responses are not capped — an
//! artifact can be arbitrarily large).
//!
//! Byte identity on the wire: the `result` response embeds the run
//! artifact as a JSON subtree. The registry renders each artifact once
//! with the same deterministic [`Json`] writer the CLI uses and splices
//! those bytes into the line, and parsing preserves member order, so
//! re-emitting the extracted subtree with `to_string()` reproduces the
//! exact bytes `dynapar run --emit-json` writes — the protocol suite
//! and the CI smoke `cmp` them.

use dynapar_core::PolicySpec;
use dynapar_engine::json::Json;

use crate::registry::{JobSnapshot, JobState, RegistryStats};
use crate::request::{JobRequest, SweepRequest};

/// The wire protocol version this build speaks. Frozen: requests with
/// any other `v` are rejected, and the request/response schemas at
/// `v=1` never change shape.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on one request line (bytes, including the newline). Spec
/// texts ride inside submit requests, so the cap is generous; anything
/// longer is a protocol error and the connection is dropped.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A parsed v1 request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue one job.
    Submit(JobRequest),
    /// Report one job's current state.
    Status {
        /// Job id from a submit acknowledgement.
        id: u64,
    },
    /// Block until the job is terminal, then return its artifact.
    Result {
        /// Job id from a submit acknowledgement.
        id: u64,
    },
    /// Stream progress events until the job is terminal.
    Watch {
        /// Job id from a submit acknowledgement.
        id: u64,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Job id from a submit acknowledgement.
        id: u64,
    },
    /// Enqueue one job per policy (see [`SweepRequest::expand`]).
    Sweep(SweepRequest),
    /// Report daemon lifetime counters.
    Stats,
    /// Report latency histograms and live gauges (see
    /// [`metrics_response`](crate::metrics::metrics_response)).
    Metrics,
    /// Cheap liveness probe (uptime, workers, queue depth).
    Health,
    /// Stop accepting connections and exit the accept loop.
    Shutdown,
}

impl Request {
    /// Parses one request line (without trailing newline).
    ///
    /// # Errors
    ///
    /// A message ready to ship in an error response: JSON syntax
    /// errors, missing/wrong `v`, unknown `type`, unknown or missing
    /// keys, malformed `job` objects.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let doc = Json::parse(line).map_err(|e| format!("parse: {e}"))?;
        let members = doc
            .as_object()
            .ok_or_else(|| "request must be a JSON object".to_string())?;
        match doc.get("v").and_then(Json::as_u64) {
            Some(PROTOCOL_VERSION) => {}
            Some(v) => {
                return Err(format!(
                    "unsupported protocol version {v} (this daemon speaks v{PROTOCOL_VERSION})"
                ))
            }
            None => return Err("request needs `\"v\": 1`".to_string()),
        }
        let ty = doc
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| "request needs a string `type`".to_string())?;
        let allowed: &[&str] = match ty {
            "submit" => &["v", "type", "job"],
            "sweep" => &["v", "type", "job", "policies", "fork_warmup"],
            "status" | "result" | "watch" | "cancel" => &["v", "type", "id"],
            "stats" | "metrics" | "health" | "shutdown" => &["v", "type"],
            other => {
                return Err(format!(
                    "unknown request type {other:?}; expected submit|status|result|watch|cancel|sweep|stats|metrics|health|shutdown"
                ))
            }
        };
        for (k, _) in members {
            if !allowed.contains(&k.as_str()) {
                return Err(format!("unknown key {k:?} for request type {ty:?}"));
            }
        }
        let id = || -> Result<u64, String> {
            doc.get("id")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("request type {ty:?} needs a numeric `id`"))
        };
        match ty {
            "submit" => {
                let job = doc.get("job").ok_or("submit needs a `job` object")?;
                Ok(Request::Submit(JobRequest::from_json(job)?))
            }
            "sweep" => {
                let job = doc.get("job").ok_or("sweep needs a `job` object")?;
                let base = JobRequest::from_json(job)?;
                let arr = doc
                    .get("policies")
                    .and_then(Json::as_array)
                    .ok_or("sweep needs a `policies` array")?;
                if arr.is_empty() {
                    return Err("sweep `policies` must not be empty".to_string());
                }
                let policies = arr
                    .iter()
                    .map(|p| {
                        p.as_str()
                            .ok_or_else(|| "sweep `policies` entries must be strings".to_string())
                            .and_then(PolicySpec::parse)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let fork_warmup = match doc.get("fork_warmup") {
                    None => None,
                    Some(v) => Some(v.as_u64().ok_or_else(|| {
                        "sweep `fork_warmup` must be a non-negative integer".to_string()
                    })?),
                };
                Ok(Request::Sweep(SweepRequest {
                    base,
                    policies,
                    fork_warmup,
                }))
            }
            "status" => Ok(Request::Status { id: id()? }),
            "result" => Ok(Request::Result { id: id()? }),
            "watch" => Ok(Request::Watch { id: id()? }),
            "cancel" => Ok(Request::Cancel { id: id()? }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            _ => unreachable!("type validated above"),
        }
    }

    /// Renders the request in wire form (what clients send).
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(&str, Json)> = vec![("v", Json::U64(PROTOCOL_VERSION))];
        match self {
            Request::Submit(job) => {
                members.push(("type", Json::str("submit")));
                members.push(("job", job.to_json()));
            }
            Request::Status { id } => {
                members.push(("type", Json::str("status")));
                members.push(("id", Json::U64(*id)));
            }
            Request::Result { id } => {
                members.push(("type", Json::str("result")));
                members.push(("id", Json::U64(*id)));
            }
            Request::Watch { id } => {
                members.push(("type", Json::str("watch")));
                members.push(("id", Json::U64(*id)));
            }
            Request::Cancel { id } => {
                members.push(("type", Json::str("cancel")));
                members.push(("id", Json::U64(*id)));
            }
            Request::Sweep(sw) => {
                members.push(("type", Json::str("sweep")));
                members.push(("job", sw.base.to_json()));
                members.push((
                    "policies",
                    Json::arr(sw.policies.iter().map(|p| Json::str(p.label()))),
                ));
                if let Some(c) = sw.fork_warmup {
                    members.push(("fork_warmup", Json::U64(c)));
                }
            }
            Request::Stats => members.push(("type", Json::str("stats"))),
            Request::Metrics => members.push(("type", Json::str("metrics"))),
            Request::Health => members.push(("type", Json::str("health"))),
            Request::Shutdown => members.push(("type", Json::str("shutdown"))),
        }
        Json::obj(members)
    }
}

/// `{"ok":false,"error":…}`.
pub fn error_response(msg: &str) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::str(msg))])
}

/// The submit acknowledgement.
pub fn submit_response(id: u64, cached: bool, hash: u64) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("id", Json::U64(id)),
        ("cached", Json::Bool(cached)),
        ("hash", Json::str(format!("{hash:016x}"))),
    ])
}

/// The sweep acknowledgement: parallel arrays, one entry per policy.
pub fn sweep_response(acks: &[(u64, bool, u64)]) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        (
            "ids",
            Json::arr(acks.iter().map(|(id, _, _)| Json::U64(*id))),
        ),
        (
            "cached",
            Json::arr(acks.iter().map(|(_, c, _)| Json::Bool(*c))),
        ),
        (
            "hashes",
            Json::arr(acks.iter().map(|(_, _, h)| Json::str(format!("{h:016x}")))),
        ),
    ])
}

/// The status report for one job.
pub fn status_response(snap: &JobSnapshot) -> Json {
    let mut members: Vec<(&str, Json)> = vec![
        ("ok", Json::Bool(true)),
        ("id", Json::U64(snap.id)),
        ("state", Json::str(snap.state.name())),
        ("cached", Json::Bool(snap.cached)),
        ("hash", Json::str(format!("{:016x}", snap.hash))),
        ("progress_cycles", Json::U64(snap.progress_cycles)),
    ];
    if let Some(err) = &snap.error {
        members.push(("error", Json::str(err.clone())));
    }
    Json::obj(members)
}

/// The result line for a `Done` job, without its newline:
/// `{ok,id,cached,hash,artifact}` with the memoized artifact bytes
/// spliced in as the last member. Byte-identical to rendering the same
/// members as one [`Json`] object, without re-rendering the artifact.
/// Callers must only pass terminal, successful snapshots.
pub fn result_line(snap: &JobSnapshot) -> String {
    let artifact = snap
        .artifact
        .as_deref()
        .expect("result_line needs a Done snapshot");
    let head = Json::obj([
        ("ok", Json::Bool(true)),
        ("id", Json::U64(snap.id)),
        ("cached", Json::Bool(snap.cached)),
        ("hash", Json::str(format!("{:016x}", snap.hash))),
    ])
    .to_string();
    let head = head.strip_suffix('}').expect("an object ends in `}`");
    format!("{head},\"artifact\":{artifact}}}")
}

/// One `watch` stream event. `end` is true for the final event.
/// `samples` carries the telemetry windows recorded since the previous
/// event (the simulation's watch hook feeds them); the key is only
/// emitted when non-empty, so pre-samples clients see the exact frames
/// they always did.
pub fn watch_event(snap: &JobSnapshot, end: bool, samples: Vec<Json>) -> Json {
    let mut members: Vec<(&str, Json)> = vec![
        ("ok", Json::Bool(true)),
        ("event", Json::str(if end { "end" } else { "progress" })),
        ("id", Json::U64(snap.id)),
        ("state", Json::str(snap.state.name())),
        ("progress_cycles", Json::U64(snap.progress_cycles)),
    ];
    if !samples.is_empty() {
        members.push(("samples", Json::Arr(samples)));
    }
    Json::obj(members)
}

/// The stats report: lifetime counters plus live daemon state.
/// `queued_now` is the worker queue's current depth, `uptime_us` is
/// host microseconds since the daemon started, `inflight_now` counts
/// distinct configs currently queued or running, and `store_bytes` is
/// the persisted artifact-store size (0 without `--store`). Existing
/// keys keep their positions; the live values append after them, so
/// pre-existing clients parse unchanged.
pub fn stats_response(
    stats: &RegistryStats,
    queued_now: usize,
    uptime_us: u64,
    inflight_now: usize,
    store_bytes: u64,
) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("submitted", Json::U64(stats.submitted)),
        ("executed", Json::U64(stats.executed)),
        ("memo_hits", Json::U64(stats.memo_hits)),
        ("coalesced", Json::U64(stats.coalesced)),
        ("failed", Json::U64(stats.failed)),
        ("cancelled", Json::U64(stats.cancelled)),
        ("forked", Json::U64(stats.forked)),
        ("queued_now", Json::U64(queued_now as u64)),
        ("uptime_us", Json::U64(uptime_us)),
        ("inflight_now", Json::U64(inflight_now as u64)),
        ("store_bytes", Json::U64(store_bytes)),
    ])
}

/// The shutdown acknowledgement.
pub fn shutdown_response() -> Json {
    Json::obj([("ok", Json::Bool(true)), ("stopping", Json::Bool(true))])
}

/// Terminal-but-not-Done states become error responses with a stable
/// prefix clients can match on.
pub fn terminal_error(snap: &JobSnapshot) -> Json {
    match snap.state {
        JobState::Failed => error_response(&format!(
            "job {} failed: {}",
            snap.id,
            snap.error.as_deref().unwrap_or("unknown error")
        )),
        JobState::Cancelled => error_response(&format!("job {} was cancelled", snap.id)),
        other => error_response(&format!("job {} not terminal ({})", snap.id, other.name())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{GpuPreset, WorkloadRef};
    use dynapar_gpu::MetricsLevel;
    use dynapar_workloads::Scale;

    #[test]
    fn request_wire_forms_round_trip() {
        let reqs = [
            Request::Submit(JobRequest {
                workload: WorkloadRef::Suite {
                    bench: "AMR".into(),
                    scale: Scale::Tiny,
                },
                policy: PolicySpec::Spawn,
                seed: 3,
                metrics: MetricsLevel::Full,
                gpu: GpuPreset::KeplerK20m,
                sim_jobs: Some(2),
                sim_window: dynapar_gpu::SimWindow::Auto,
            }),
            Request::Status { id: 4 },
            Request::Result { id: 5 },
            Request::Watch { id: 6 },
            Request::Cancel { id: 7 },
            Request::Stats,
            Request::Metrics,
            Request::Health,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.to_json().to_string();
            let back = Request::parse_line(&line).expect(&line);
            assert_eq!(back, req, "{line}");
        }
    }

    #[test]
    fn parse_rejects_protocol_violations() {
        for (line, needle) in [
            ("{not json", "parse"),
            ("[]", "object"),
            (r#"{"type":"stats"}"#, "\"v\": 1"),
            (r#"{"v":2,"type":"stats"}"#, "version 2"),
            (r#"{"v":1}"#, "type"),
            (r#"{"v":1,"type":"frobnicate"}"#, "unknown request type"),
            (r#"{"v":1,"type":"stats","id":3}"#, "unknown key"),
            (r#"{"v":1,"type":"metrics","id":3}"#, "unknown key"),
            (r#"{"v":1,"type":"health","verbose":true}"#, "unknown key"),
            (r#"{"v":1,"type":"status"}"#, "numeric `id`"),
            (r#"{"v":1,"type":"submit"}"#, "`job`"),
            (
                r#"{"v":1,"type":"sweep","job":{"bench":"AMR","policy":"flat"},"policies":[]}"#,
                "empty",
            ),
            (
                r#"{"v":1,"type":"sweep","job":{"bench":"AMR","policy":"flat"},"policies":[3]}"#,
                "strings",
            ),
        ] {
            let err = Request::parse_line(line).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn sweep_round_trips() {
        let sw = Request::Sweep(SweepRequest {
            base: JobRequest {
                workload: WorkloadRef::Suite {
                    bench: "AMR".into(),
                    scale: Scale::Tiny,
                },
                policy: PolicySpec::Flat,
                seed: 1,
                metrics: MetricsLevel::Full,
                gpu: GpuPreset::KeplerK20m,
                sim_jobs: None,
                sim_window: dynapar_gpu::SimWindow::Auto,
            },
            policies: vec![PolicySpec::Threshold(4), PolicySpec::Spawn],
            fork_warmup: None,
        });
        let line = sw.to_json().to_string();
        assert_eq!(Request::parse_line(&line).expect("valid"), sw);

        // With the optional fork point set, it round-trips too, and a
        // non-integer fork point is rejected by name.
        let forked = match &sw {
            Request::Sweep(s) => Request::Sweep(SweepRequest {
                fork_warmup: Some(5000),
                ..s.clone()
            }),
            _ => unreachable!(),
        };
        let line = forked.to_json().to_string();
        assert!(line.contains("\"fork_warmup\":5000"), "{line}");
        assert_eq!(Request::parse_line(&line).expect("valid"), forked);
        let bad = r#"{"v":1,"type":"sweep","job":{"bench":"AMR","policy":"flat"},"policies":["spawn"],"fork_warmup":"soon"}"#;
        let err = Request::parse_line(bad).unwrap_err();
        assert!(err.contains("fork_warmup"), "{err}");
    }

    #[test]
    fn stats_response_field_order_is_byte_stable() {
        let stats = RegistryStats {
            submitted: 3,
            executed: 1,
            memo_hits: 1,
            coalesced: 1,
            failed: 0,
            cancelled: 0,
            forked: 0,
        };
        assert_eq!(
            stats_response(&stats, 2, 1234, 1, 9000).to_string(),
            concat!(
                r#"{"ok":true,"submitted":3,"executed":1,"memo_hits":1,"#,
                r#""coalesced":1,"failed":0,"cancelled":0,"forked":0,"#,
                r#""queued_now":2,"uptime_us":1234,"inflight_now":1,"store_bytes":9000}"#
            )
        );
    }

    #[test]
    fn watch_event_emits_samples_only_when_present() {
        let snap = JobSnapshot {
            id: 1,
            state: JobState::Running,
            hash: 2,
            cached: false,
            progress_cycles: 10,
            error: None,
            artifact: None,
        };
        let bare = watch_event(&snap, false, Vec::new()).to_string();
        assert!(!bare.contains("samples"), "{bare}");
        let with = watch_event(&snap, false, vec![Json::obj([("now", Json::U64(5))])]).to_string();
        assert!(with.contains("\"samples\":[{\"now\":5}]"), "{with}");
    }
}
