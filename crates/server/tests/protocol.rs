//! Wire-protocol and end-to-end determinism tests: every test spins up
//! a real daemon on an ephemeral loopback port and speaks the v1
//! line-JSON protocol over TCP.

use std::io::Write;
use std::net::TcpStream;
use std::thread::JoinHandle;

use dynapar_core::PolicySpec;
use dynapar_engine::json::Json;
use dynapar_gpu::MetricsLevel;
use dynapar_server::{
    Client, GpuPreset, JobRequest, Request, Server, ServerConfig, SweepRequest, WorkloadRef,
    MAX_LINE_BYTES,
};
use dynapar_workloads::Scale;

fn start(workers: usize) -> (String, JoinHandle<()>) {
    start_with(workers, None)
}

fn start_with(workers: usize, store: Option<std::path::PathBuf>) -> (String, JoinHandle<()>) {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        store,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound").to_string();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    (addr, handle)
}

fn stop(addr: &str, handle: JoinHandle<()>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown ack");
    handle.join().expect("accept loop exits cleanly");
}

fn tiny_job(bench: &str, policy: PolicySpec, sim_jobs: Option<usize>) -> JobRequest {
    JobRequest {
        workload: WorkloadRef::Suite {
            bench: bench.to_string(),
            scale: Scale::Tiny,
        },
        policy,
        seed: 7,
        metrics: MetricsLevel::Full,
        gpu: GpuPreset::KeplerK20m,
        sim_jobs,
        sim_window: Default::default(),
    }
}

#[test]
fn malformed_json_gets_an_error_and_the_connection_survives() {
    let (addr, handle) = start(1);
    let mut client = Client::connect(&addr).unwrap();
    client.send_raw("{not json at all").unwrap();
    let err = client.read_ok().unwrap_err();
    assert!(
        err.contains("JSON") || err.contains("parse") || err.contains("invalid"),
        "unexpected error: {err}"
    );
    // Same connection still serves well-formed requests.
    let stats = client.stats().expect("connection survived the bad line");
    assert_eq!(stats.get("submitted").and_then(Json::as_u64), Some(0));
    stop(&addr, handle);
}

#[test]
fn unknown_request_type_is_rejected_by_name() {
    let (addr, handle) = start(1);
    let mut client = Client::connect(&addr).unwrap();
    client.send_raw(r#"{"v":1,"type":"frobnicate"}"#).unwrap();
    let err = client.read_ok().unwrap_err();
    assert!(err.contains("frobnicate"), "unexpected error: {err}");

    // Missing/wrong protocol version is also refused up front.
    client.send_raw(r#"{"type":"stats"}"#).unwrap();
    let err = client.read_ok().unwrap_err();
    assert!(err.contains('v'), "unexpected error: {err}");
    stop(&addr, handle);
}

#[test]
fn oversized_line_is_refused_and_the_connection_closed() {
    let (addr, handle) = start(1);
    let mut client = Client::connect(&addr).unwrap();
    let huge = "x".repeat(MAX_LINE_BYTES + 1);
    client.send_raw(&huge).unwrap();
    let err = client.read_ok().unwrap_err();
    assert!(err.contains("exceeds"), "unexpected error: {err}");
    // The daemon hangs up after an oversized line (it cannot resync).
    assert!(client.read_response().unwrap_err().contains("closed"));
    // The daemon itself is fine: a fresh connection works.
    let mut again = Client::connect(&addr).unwrap();
    again.stats().expect("daemon survived the oversized line");
    stop(&addr, handle);
}

#[test]
fn mid_stream_disconnect_does_not_kill_the_daemon() {
    let (addr, handle) = start(1);
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        // Half a request, no newline, then drop the socket.
        raw.write_all(br#"{"v":1,"ty"#).unwrap();
        raw.flush().unwrap();
    }
    // Daemon keeps serving new connections.
    let mut client = Client::connect(&addr).unwrap();
    client.stats().expect("daemon survived the disconnect");
    stop(&addr, handle);
}

#[test]
fn submit_status_result_round_trip_is_byte_identical_to_direct_run() {
    // The acceptance bar: a server round-trip must reproduce the CLI
    // artifact byte for byte, with and without the v1 `sim_jobs` key.
    for sim_jobs in [None, Some(4)] {
        let job = tiny_job("AMR", PolicySpec::Spawn, sim_jobs);
        let bench = job.workload.build(job.seed).expect("workload");
        let direct = job.run(&bench, None, |b| b).expect("direct run");
        let expected = format!(
            "{}\n",
            direct.artifact.expect("metrics full emits artifact")
        );

        let (addr, handle) = start(1);
        let mut client = Client::connect(&addr).unwrap();
        let ack = client.submit(&job).expect("submit");
        assert!(!ack.cached, "fresh daemon cannot have this cached");
        assert_eq!(ack.hash, format!("{:016x}", job.canonical_hash()));

        let status = client
            .roundtrip(&Request::Status { id: ack.id })
            .expect("status");
        let state = status.get("state").and_then(Json::as_str).unwrap();
        assert!(
            ["queued", "running", "done"].contains(&state),
            "unexpected state {state}"
        );

        let res = client.result(ack.id).expect("result");
        assert_eq!(res.id, ack.id);
        assert_eq!(res.hash, ack.hash);
        let wire = format!("{}\n", res.artifact);
        assert_eq!(
            wire, expected,
            "server artifact differs from direct run (sim_jobs {sim_jobs:?})"
        );

        // Terminal status is now `done`.
        let status = client
            .roundtrip(&Request::Status { id: ack.id })
            .expect("status after result");
        assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
        stop(&addr, handle);
    }
}

#[test]
fn sim_jobs_key_is_accepted_and_shares_the_plain_memo_entry() {
    // The v1 `sim_jobs` key is still accepted but has no effect and is
    // not part of the canonical config, so a `sim_jobs: 4` submit after
    // the same job without it is a memo hit with identical bytes.
    let (addr, handle) = start(1);
    let mut client = Client::connect(&addr).unwrap();
    let plain = tiny_job("GC-citation", PolicySpec::Baseline, None);
    let keyed = tiny_job("GC-citation", PolicySpec::Baseline, Some(4));
    let first = client.run(&plain).expect("plain run");
    let second = client.run(&keyed).expect("run with sim_jobs");
    assert!(!first.cached && second.cached);
    assert_eq!(first.hash, second.hash);
    assert_eq!(first.artifact.to_string(), second.artifact.to_string());
    stop(&addr, handle);
}

#[test]
fn memo_hit_is_observable_in_daemon_stats() {
    let (addr, handle) = start(1);
    let mut client = Client::connect(&addr).unwrap();
    let job = tiny_job("MM-small", PolicySpec::Flat, None);
    let first = client.run(&job).expect("first run");
    assert!(!first.cached);
    let second = client.run(&job).expect("second run");
    assert!(second.cached, "identical config+seed must hit the cache");
    assert_eq!(first.artifact.to_string(), second.artifact.to_string());

    let stats = client.stats().expect("stats");
    let get = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap();
    assert_eq!(get("submitted"), 2);
    assert_eq!(get("executed"), 1, "the second submit must not simulate");
    assert_eq!(get("memo_hits"), 1);
    assert_eq!(get("failed"), 0);
    // PR 10: stats also carries live gauges and uptime.
    assert_eq!(get("queued_now"), 0);
    assert_eq!(get("inflight_now"), 0);
    assert!(stats.get("uptime_us").and_then(Json::as_u64).is_some());
    assert_eq!(get("store_bytes"), 0, "no --store, nothing persisted");
    stop(&addr, handle);
}

#[test]
fn metrics_and_health_report_executed_work() {
    let (addr, handle) = start(1);
    let mut client = Client::connect(&addr).unwrap();
    let job = tiny_job("MM-small", PolicySpec::Flat, None);
    client.run(&job).expect("first run");
    client.run(&job).expect("memo hit");

    let health = client.health().expect("health");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("workers").and_then(Json::as_u64), Some(1));
    assert!(health.get("uptime_us").and_then(Json::as_u64).is_some());

    let metrics = client.metrics().expect("metrics");
    let gauges = metrics.get("gauges").expect("gauges");
    assert_eq!(gauges.get("workers").and_then(Json::as_u64), Some(1));
    assert_eq!(gauges.get("inflight").and_then(Json::as_u64), Some(0));
    // One executed job under the flat policy: its execute histogram
    // holds exactly one sample, and both submits did a memo lookup.
    let flat = metrics
        .get("latencies")
        .and_then(|l| l.get("flat"))
        .expect("flat class");
    let count = |phase: &str| {
        flat.get(phase)
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap()
    };
    assert_eq!(count("execute_us"), 1);
    assert_eq!(count("end_to_end_us"), 1);
    assert_eq!(count("queue_wait_us"), 1);
    assert_eq!(count("memo_lookup_us"), 2);
    let prom = metrics
        .get("prometheus")
        .and_then(Json::as_str)
        .expect("prometheus text");
    assert!(prom.contains("# TYPE dynapar_job_execute_us histogram"));
    assert!(prom.contains("dynapar_job_execute_us_count{class=\"flat\"} 1"));
    stop(&addr, handle);
}

#[test]
fn log_and_trace_sinks_capture_the_session() {
    let dir = std::env::temp_dir().join(format!("dynapar-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log_path = dir.join("daemon.log");
    let trace_path = dir.join("trace.json");
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        log_file: Some(log_path.clone()),
        log_level: dynapar_engine::log::Level::Debug,
        trace_out: Some(trace_path.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("bound").to_string();
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    let mut client = Client::connect(&addr).unwrap();
    let job = tiny_job("MM-small", PolicySpec::Flat, None);
    let first = client.run(&job).expect("first run");
    let second = client.run(&job).expect("memo hit");
    assert_eq!(first.artifact.to_string(), second.artifact.to_string());
    stop(&addr, handle);

    // Every log line is one JSON object carrying `event` and `ts`, and
    // the session recorded both an execution and a memo hit.
    let text = std::fs::read_to_string(&log_path).expect("log file");
    let mut events = Vec::new();
    for line in text.lines() {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("bad log line {line:?}: {e}"));
        assert!(doc.get("ts").and_then(Json::as_u64).is_some(), "{line}");
        events.push(doc.get("event").and_then(Json::as_str).unwrap().to_string());
    }
    for expected in [
        "daemon_start",
        "job_queued",
        "job_start",
        "job_done",
        "memo_hit",
        "daemon_stop",
    ] {
        assert!(
            events.iter().any(|e| e == expected),
            "log must contain {expected:?}; got {events:?}"
        );
    }

    // The trace document parses and holds the job's span.
    let text = std::fs::read_to_string(&trace_path).expect("trace file");
    let doc = Json::parse(text.trim()).expect("trace JSON");
    let spans = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents");
    assert!(
        spans.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("name").and_then(Json::as_str) == Some("job 0")
        }),
        "trace must contain job 0's span"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_request_admits_every_point_and_coalesces_duplicates() {
    let (addr, handle) = start(1);
    let mut client = Client::connect(&addr).unwrap();
    let sweep = SweepRequest {
        base: tiny_job("AMR", PolicySpec::Flat, None),
        policies: vec![PolicySpec::Flat, PolicySpec::Spawn, PolicySpec::Flat],
        fork_warmup: None,
    };
    let doc = client.roundtrip(&Request::Sweep(sweep)).expect("sweep");
    let ids = doc.get("ids").and_then(Json::as_array).unwrap();
    let cached = doc.get("cached").and_then(Json::as_array).unwrap();
    let hashes = doc.get("hashes").and_then(Json::as_array).unwrap();
    assert_eq!(ids.len(), 3);
    assert_eq!(hashes[0], hashes[2], "same policy, same hash");
    assert_ne!(hashes[0], hashes[1]);
    assert_eq!(cached[0].as_bool(), Some(false));
    assert_eq!(
        cached[2].as_bool(),
        Some(true),
        "duplicate point coalesces onto the first"
    );
    // All three ids resolve to results.
    for id in ids {
        let id = id.as_u64().unwrap();
        client.result(id).expect("sweep point result");
    }
    stop(&addr, handle);
}

/// A spec-file workload with a long policy-pristine warm-up ramp: the
/// light prefix never produces launch candidates, so a snapshot taken
/// inside it forks under *any* policy.
fn ramp_job(policy: PolicySpec) -> JobRequest {
    JobRequest {
        workload: WorkloadRef::Spec {
            text: dynapar_workloads::warm_ramp_spec(600, 40).to_text(),
        },
        policy,
        seed: 7,
        metrics: MetricsLevel::Full,
        gpu: GpuPreset::KeplerK20m,
        sim_jobs: None,
        sim_window: Default::default(),
    }
}

#[test]
fn fork_sweep_artifacts_are_byte_identical_to_cold_runs() {
    let policies = vec![
        PolicySpec::Spawn,
        PolicySpec::Dtbl,
        PolicySpec::FreeLaunch,
        PolicySpec::Baseline,
    ];

    // Cold reference artifacts from a fork-free daemon.
    let (addr, handle) = start(1);
    let mut client = Client::connect(&addr).unwrap();
    let mut cold = Vec::new();
    for p in &policies {
        cold.push(client.run(&ramp_job(p.clone())).expect("cold run").artifact);
    }
    stop(&addr, handle);

    // The same sweep on a fresh daemon, forked from a shared warm-up.
    // First prove the chosen cycle really is inside the pristine ramp —
    // otherwise this test would silently cover only the cold fallback.
    let base = ramp_job(PolicySpec::Spawn);
    let warmup = 2000;
    let bench = base.workload.build(base.seed).expect("workload");
    let armed = base
        .run(&bench, None, |b| b.snapshot_at(warmup))
        .expect("armed ramp run");
    let snap = armed.snapshot.expect("ramp longer than warmup");
    assert!(
        dynapar_gpu::snapshot_is_pristine(&snap),
        "warmup cycle must precede the first launch decision"
    );
    let (addr, handle) = start(1);
    let mut client = Client::connect(&addr).unwrap();
    let doc = client
        .roundtrip(&Request::Sweep(SweepRequest {
            base,
            policies: policies.clone(),
            fork_warmup: Some(warmup),
        }))
        .expect("fork sweep");
    let ids: Vec<u64> = doc
        .get("ids")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();
    assert_eq!(ids.len(), policies.len());
    for (id, cold_art) in ids.iter().zip(&cold) {
        let res = client.result(*id).expect("fork sweep point result");
        assert_eq!(
            res.artifact.to_string(),
            cold_art.to_string(),
            "forked artifact must be byte-identical to the cold run"
        );
    }

    // Fork accounting: every point is its own job; the branches that
    // resumed the shared snapshot are counted in `forked`.
    let stats = client.stats().expect("stats");
    let get = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap();
    assert_eq!(get("submitted"), policies.len() as u64);
    assert_eq!(get("executed"), policies.len() as u64);
    assert_eq!(
        get("forked"),
        policies.len() as u64 - 1,
        "every point after the ramp forks"
    );
    assert_eq!(get("failed"), 0);
    stop(&addr, handle);
}

#[test]
fn fork_sweep_past_the_ramp_runs_every_point_cold() {
    let policies = vec![PolicySpec::Spawn, PolicySpec::Dtbl, PolicySpec::Baseline];
    let (addr, handle) = start(1);
    let mut client = Client::connect(&addr).unwrap();
    let mut cold = Vec::new();
    for p in &policies {
        cold.push(client.run(&ramp_job(p.clone())).expect("cold run").artifact);
    }
    stop(&addr, handle);

    // A fork cycle just before the first point's end: a snapshot is
    // captured, but after launch decisions, so it must not be forked.
    let base = ramp_job(policies[0].clone());
    let total = cold[0]
        .get("report")
        .and_then(|r| r.get("total_cycles"))
        .and_then(Json::as_u64)
        .expect("report.total_cycles");
    let warmup = total - 1;
    let bench = base.workload.build(base.seed).expect("workload");
    let armed = base
        .run(&bench, None, |b| b.snapshot_at(warmup))
        .expect("armed run");
    let snap = armed.snapshot.expect("run longer than warmup");
    assert!(
        !dynapar_gpu::snapshot_is_pristine(&snap),
        "warmup cycle must lie past the first launch decision"
    );

    let (addr, handle) = start(1);
    let mut client = Client::connect(&addr).unwrap();
    let doc = client
        .roundtrip(&Request::Sweep(SweepRequest {
            base,
            policies: policies.clone(),
            fork_warmup: Some(warmup),
        }))
        .expect("fork sweep");
    let ids = doc.get("ids").and_then(Json::as_array).unwrap().to_vec();
    assert_eq!(ids.len(), policies.len());
    for (id, cold_art) in ids.iter().zip(&cold) {
        let res = client
            .result(id.as_u64().unwrap())
            .expect("sweep point result");
        assert_eq!(
            res.artifact.to_string(),
            cold_art.to_string(),
            "a point that falls back to a cold run must match the cold artifact"
        );
    }
    let stats = client.stats().expect("stats");
    let get = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap();
    assert_eq!(get("executed"), policies.len() as u64);
    assert_eq!(get("forked"), 0, "a non-pristine ramp is never forked");
    assert_eq!(get("failed"), 0);
    stop(&addr, handle);
}

#[test]
fn cancel_and_progress_reach_a_job_inside_its_pristine_ramp() {
    // Nearly the whole run is a policy-pristine ramp: no launch
    // decision and no child CTA happens before its last few CTAs.
    let job = JobRequest {
        workload: WorkloadRef::Spec {
            text: dynapar_workloads::warm_ramp_spec(RAMP_CTAS, 1).to_text(),
        },
        metrics: MetricsLevel::Summary,
        ..ramp_job(PolicySpec::Spawn)
    };
    let (addr, handle) = start(1);
    let mut client = Client::connect(&addr).unwrap();
    let id = client.submit(&job).expect("submit").id;
    let progress = loop {
        let status = client.roundtrip(&Request::Status { id }).expect("status");
        let state = status.get("state").and_then(Json::as_str).unwrap();
        assert!(
            state == "queued" || state == "running",
            "job ended before any progress was reported: {status}"
        );
        let cycles = status
            .get("progress_cycles")
            .and_then(Json::as_u64)
            .unwrap();
        if cycles > 0 {
            break cycles;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    };
    client
        .roundtrip(&Request::Cancel { id })
        .expect("cancel a running job");
    let err = client.result(id).unwrap_err();
    assert!(err.contains("cancelled"), "unexpected result: {err}");
    let status = client.roundtrip(&Request::Status { id }).expect("status");
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("cancelled")
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("cancelled").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("failed").and_then(Json::as_u64), Some(0));
    client
        .health()
        .expect("daemon still answers after a cancel");
    stop(&addr, handle);

    // The reported cycle really lies inside the pristine ramp.
    let bench = job.workload.build(job.seed).expect("workload");
    let snap = job
        .run(&bench, None, |b| b.snapshot_at(progress))
        .expect("armed run")
        .snapshot
        .expect("the run outlasts the reported progress");
    assert!(
        dynapar_gpu::snapshot_is_pristine(&snap),
        "progress at cycle {progress} was reported after the first launch decision"
    );
}

/// Light CTAs of the cancel test's ramp: long enough that a status
/// poll sees the run in flight.
const RAMP_CTAS: u32 = 1200;

#[test]
fn store_backed_daemon_survives_restart_with_its_memo_cache() {
    let dir = std::env::temp_dir().join(format!("dynapar-proto-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let job = tiny_job("AMR", PolicySpec::Spawn, None);

    let (addr, handle) = start_with(1, Some(dir.clone()));
    let mut client = Client::connect(&addr).unwrap();
    let first = client.run(&job).expect("first run");
    assert!(!first.cached);
    stop(&addr, handle);

    // A brand-new daemon over the same store answers from cache.
    let (addr, handle) = start_with(1, Some(dir.clone()));
    let mut client = Client::connect(&addr).unwrap();
    let second = client.run(&job).expect("run after restart");
    assert!(second.cached, "restart must not lose the memo cache");
    assert_eq!(first.artifact.to_string(), second.artifact.to_string());
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.get("executed").and_then(Json::as_u64),
        Some(0),
        "nothing re-simulated after restart"
    );
    stop(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_streams_telemetry_samples() {
    let (addr, handle) = start(1);
    let mut client = Client::connect(&addr).unwrap();
    let ack = client
        .submit(&tiny_job("BFS-citation", PolicySpec::Spawn, None))
        .expect("submit");
    client.result(ack.id).expect("job finishes");
    // Samples accumulate in the job's ring until a watcher drains them,
    // so watching after completion still yields them on the end event.
    let events = client.watch(ack.id).expect("watch stream");
    let last = events.last().expect("at least the end event");
    assert_eq!(last.get("event").and_then(Json::as_str), Some("end"));
    let samples: Vec<&Json> = events
        .iter()
        .filter_map(|e| e.get("samples").and_then(Json::as_array))
        .flatten()
        .collect();
    assert!(!samples.is_empty(), "sampler fired at least once");
    for s in samples {
        for key in [
            "now",
            "queue_depth",
            "hwq_utilization",
            "utilization",
            "parent_ctas",
            "child_ctas",
        ] {
            assert!(s.get(key).is_some(), "sample missing {key}: {s}");
        }
    }
    // A second watch has nothing left to drain (samples key absent).
    let events = client.watch(ack.id).expect("second watch");
    assert!(events.iter().all(|e| e.get("samples").is_none()));
    stop(&addr, handle);
}

#[test]
fn metrics_off_submissions_are_rejected_up_front() {
    let (addr, handle) = start(1);
    let mut client = Client::connect(&addr).unwrap();
    let mut job = tiny_job("AMR", PolicySpec::Flat, None);
    job.metrics = MetricsLevel::Off;
    let err = client.submit(&job).unwrap_err();
    assert!(err.contains("off"), "unexpected error: {err}");
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("submitted").and_then(Json::as_u64), Some(0));
    stop(&addr, handle);
}

#[test]
fn cancel_of_an_unknown_id_is_an_error_not_a_crash() {
    let (addr, handle) = start(1);
    let mut client = Client::connect(&addr).unwrap();
    let err = client
        .roundtrip(&Request::Cancel { id: 12345 })
        .unwrap_err();
    assert!(err.contains("12345"), "unexpected error: {err}");
    stop(&addr, handle);
}
