//! The TCP daemon: accept loop, per-connection handlers, and the
//! worker pool that executes jobs.
//!
//! Concurrency model (threads only — the workspace has no async
//! runtime, by policy):
//!
//! * the accept loop runs on the caller's thread, non-blocking, and
//!   polls the shutdown flag between accepts;
//! * each connection gets a handler thread that reads one request line
//!   at a time (with a read timeout so it also notices shutdown);
//! * simulations run on a [`WorkQueue`] of `workers` threads — FIFO
//!   across all connections, panic-isolated per job.
//!
//! Clients on the same daemon share the memo cache and the queue, which
//! is the point: submission order is completion order (per worker), and
//! an identical config submitted by anyone is answered from cache.

use std::cell::OnceCell;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dynapar_engine::json::Json;
use dynapar_engine::log::{Level, Logger};
use dynapar_engine::par::WorkQueue;
use dynapar_gpu::{MetricsLevel, SimulationBuilder, WatchHook, WatchSample};

use crate::metrics::{health_response, metrics_response, Gauges, Phase, ServerMetrics};
use crate::proto::{
    error_response, result_line, shutdown_response, stats_response, status_response,
    submit_response, sweep_response, terminal_error, watch_event, Request, MAX_LINE_BYTES,
};
use crate::registry::{Admission, JobHandles, JobState, Registry};
use crate::request::JobRequest;
use crate::trace::DaemonTrace;

/// How the daemon is brought up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port (read it
    /// back via [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing jobs (≥ 1).
    pub workers: usize,
    /// Artifact store directory. When set, completed artifacts are
    /// persisted here and preloaded on startup, so the memo cache
    /// survives daemon restarts (`dynapar serve --store DIR`).
    pub store: Option<std::path::PathBuf>,
    /// Byte cap on the persisted store (`--store-max-bytes N`).
    /// Least-recently-used entries are evicted from disk when the
    /// persisted total exceeds the cap. `None` means unbounded.
    pub store_max_bytes: Option<u64>,
    /// Structured-log sink (`serve --log-file F`): one JSON object per
    /// line, request/connection/job-lifecycle events. `None` disables
    /// logging entirely (zero overhead on every call site).
    pub log_file: Option<std::path::PathBuf>,
    /// Minimum level written to the log file (`serve --log-level L`,
    /// default `info`; `debug` adds per-connection/request events).
    pub log_level: Level,
    /// Perfetto trace output (`serve --trace-out F`): job-lifecycle
    /// spans collected while serving, written as one Trace Event
    /// Format document when the daemon exits.
    pub trace_out: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            store: None,
            store_max_bytes: None,
            log_file: None,
            log_level: Level::Info,
            trace_out: None,
        }
    }
}

/// One unit of worker-pool work: a group of registry jobs executed on
/// one worker. A plain submit is a single-entry group; a fork sweep is
/// one group whose first startable entry simulates the shared warm-up
/// ramp (armed to snapshot at `fork_warmup`) and whose remaining
/// entries fork from that snapshot instead of re-simulating the ramp.
/// Every entry of a group shares its workload and seed (a sweep varies
/// only the policy), so the group synthesizes its workload once.
struct JobTask {
    entries: Vec<(u64, JobRequest)>,
    fork_warmup: Option<u64>,
}

impl JobTask {
    fn single(id: u64, req: JobRequest) -> JobTask {
        JobTask {
            entries: vec![(id, req)],
            fork_warmup: None,
        }
    }
}

struct State {
    registry: Arc<Registry>,
    queue: WorkQueue<JobTask>,
    shutdown: AtomicBool,
    log: Logger,
    metrics: Arc<ServerMetrics>,
    trace: Option<Arc<DaemonTrace>>,
    trace_out: Option<std::path::PathBuf>,
    workers: usize,
}

impl State {
    /// Live gauge values for `metrics`/`health` responses.
    fn gauges(&self) -> Gauges {
        Gauges {
            queue_depth: self.queue.queued() as u64,
            inflight: self.registry.inflight_now() as u64,
            store_bytes: self.registry.store_bytes(),
            workers: self.workers as u64,
        }
    }
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Binds the listener and spins up the worker pool.
    ///
    /// # Errors
    ///
    /// Socket errors (bad address, port in use).
    pub fn bind(cfg: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let log = match &cfg.log_file {
            Some(path) => Logger::to_file(path, cfg.log_level)?,
            None => Logger::disabled(),
        };
        let metrics = Arc::new(ServerMetrics::new());
        let trace = cfg.trace_out.as_ref().map(|_| Arc::new(DaemonTrace::new()));
        let registry = Arc::new(match &cfg.store {
            Some(dir) => Registry::with_store_capped_logged(dir, cfg.store_max_bytes, log.clone())?,
            None => Registry::with_logger(log.clone()),
        });
        let exec = Exec {
            registry: registry.clone(),
            metrics: metrics.clone(),
            trace: trace.clone(),
            log: log.clone(),
        };
        let queue = WorkQueue::new(cfg.workers.max(1), move |task: JobTask| {
            run_job(&exec, task);
        });
        Ok(Server {
            listener,
            state: Arc::new(State {
                registry,
                queue,
                shutdown: AtomicBool::new(false),
                log,
                metrics,
                trace,
                trace_out: cfg.trace_out.clone(),
                workers: cfg.workers.max(1),
            }),
        })
    }

    /// The bound address (the actual port when `addr` asked for 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `shutdown` request arrives. Connection handlers
    /// run on their own threads; this thread only accepts.
    ///
    /// # Errors
    ///
    /// Fatal listener errors. Per-connection I/O errors only end that
    /// connection.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        if let Ok(addr) = self.listener.local_addr() {
            self.state.log.info(
                "daemon_start",
                [
                    ("addr", Json::str(addr.to_string())),
                    ("workers", Json::U64(self.state.workers as u64)),
                ],
            );
        }
        loop {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let state = self.state.clone();
                    std::thread::spawn(move || handle_client(stream, &state));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.state.log.info(
            "daemon_stop",
            [("uptime_us", Json::U64(self.state.metrics.uptime_us()))],
        );
        // The session trace is rendered once, on the way out — tracing
        // costs nothing per request beyond recording the moments.
        if let (Some(trace), Some(path)) = (&self.state.trace, &self.state.trace_out) {
            let mut text = trace.to_json().to_string();
            text.push('\n');
            if let Err(err) = std::fs::write(path, text) {
                eprintln!(
                    "dynapar-server: failed to write trace {}: {err}",
                    path.display()
                );
            }
        }
        // Dropping `state`'s last clone (handlers exit on their next
        // timeout tick) joins the worker pool via WorkQueue's Drop;
        // queued-but-unstarted tasks are discarded, which is the
        // documented shutdown semantic.
        Ok(())
    }
}

/// The `samples` frame shape `watch` streams: one object per sampler
/// firing, mirroring the timeseries window quantities (documented in
/// `docs/SERVER.md`).
fn watch_sample_json(s: &WatchSample) -> Json {
    Json::obj([
        ("now", Json::U64(s.now)),
        ("queue_depth", Json::F64(s.queue_depth)),
        ("hwq_utilization", Json::F64(s.hwq_utilization)),
        ("utilization", Json::F64(s.utilization)),
        ("parent_ctas", Json::U64(u64::from(s.parent_ctas))),
        ("child_ctas", Json::U64(u64::from(s.child_ctas))),
    ])
}

/// The payload a cancelled run unwinds with; [`run_entry`] recognizes it
/// by type and marks the job cancelled instead of failed. It travels by
/// `resume_unwind`, which skips the panic hook, so a cancellation prints
/// nothing to stderr.
struct Cancelled;

/// The watch hook of one run attempt — the daemon's only live channel
/// into a running simulation. At every sampling tick (every
/// `sample_period` simulated cycles, whatever the workload does) it
/// publishes the simulated cycle as the job's progress, feeds the
/// sample to the job's `watch` ring, and unwinds out of the run with
/// the [`Cancelled`] payload if the job was cancelled; [`run_entry`]
/// catches the unwind. Pure observation: artifact bytes are identical
/// with or without it.
fn watch_hook(handles: &JobHandles) -> WatchHook {
    let progress = handles.progress.clone();
    let cancel = handles.cancel.clone();
    let ring = handles.samples.clone();
    Arc::new(move |s: WatchSample| {
        progress.store(s.now, Ordering::Relaxed);
        ring.push(watch_sample_json(&s));
        if cancel.load(Ordering::Relaxed) {
            resume_unwind(Box::new(Cancelled));
        }
    })
}

/// Everything a worker needs besides the task itself: the registry it
/// transitions, plus the observability sinks (latency recorder, trace
/// collector, structured log). All shared handles, cloned per pool.
struct Exec {
    registry: Arc<Registry>,
    metrics: Arc<ServerMetrics>,
    trace: Option<Arc<DaemonTrace>>,
    log: Logger,
}

/// Runs one entry to a terminal registry state. `runner` is the actual
/// simulation call (cold, armed, or forked with its cold fallback);
/// cancellation unwinds out of it and is caught here, so one cancelled
/// branch never takes its group's other entries down.
fn run_entry(
    registry: &Registry,
    id: u64,
    runner: impl FnOnce() -> Result<dynapar_gpu::RunOutcome, String>,
) {
    match catch_unwind(AssertUnwindSafe(runner)) {
        Ok(Ok(out)) => match out.artifact {
            Some(artifact) => registry.complete(id, artifact),
            None => registry.fail(
                id,
                "run produced no artifact (metrics level off)".to_string(),
            ),
        },
        Ok(Err(e)) => registry.fail(id, e),
        Err(payload) if payload.is::<Cancelled>() => registry.finish_cancelled(id),
        Err(payload) => {
            registry.fail(
                id,
                format!("worker panic: {}", panic_message(payload.as_ref())),
            );
        }
    }
}

fn run_job(exec: &Exec, task: JobTask) {
    let registry = &*exec.registry;
    let JobTask {
        entries,
        fork_warmup,
    } = task;
    debug_assert!(entries
        .windows(2)
        .all(|w| w[0].1.workload == w[1].1.workload && w[0].1.seed == w[1].1.seed));
    let want_fork = fork_warmup.is_some() && entries.len() > 1;
    let mut snapshot: Option<Vec<u8>> = None;
    let mut ramp_done = false;
    // Built by the first entry that starts, inside its runner, so a
    // build error or panic fails that entry like any other run error.
    let built = OnceCell::new();
    let bench = |req: &JobRequest| {
        built
            .get_or_init(|| req.workload.build(req.seed))
            .as_ref()
            .map_err(String::clone)
    };
    for (id, req) in entries {
        let class = req.policy.label();
        let Some(handles) = registry.start(id) else {
            // Cancelled while queued; the registry already transitioned
            // it, so only the observers need to hear about the skip.
            exec.log.debug("job_skipped", [("id", Json::U64(id))]);
            if let Some(trace) = &exec.trace {
                trace.job_ended(id, "cancelled");
            }
            continue;
        };
        exec.log.info(
            "job_start",
            [("id", Json::U64(id)), ("class", Json::str(class.clone()))],
        );
        if let Some(trace) = &exec.trace {
            trace.job_started(id);
        }
        if let Some(wait) = registry.queue_wait_us(id) {
            exec.metrics.record(&class, Phase::QueueWait, wait);
        }
        let t0 = std::time::Instant::now();
        let hook = watch_hook(&handles);
        let watched = |b: SimulationBuilder| b.watch(hook.clone());
        let mut forked_branch = false;
        if let Some(snap) = snapshot.as_deref() {
            // Forked branch: resume from the shared ramp; any
            // decode/compatibility error falls back to a cold run, so
            // forking can only cost time, never correctness.
            run_entry(registry, id, || {
                let bench = bench(&req)?;
                let resumed = req.run(bench, Some(snap), watched);
                forked_branch = resumed.is_ok();
                resumed.or_else(|_| req.run(bench, None, watched))
            });
            if forked_branch {
                registry.note_forked();
            }
        } else if want_fork && !ramp_done {
            // First startable entry simulates the shared warm-up ramp,
            // armed to capture a snapshot at the fork cycle.
            ramp_done = true;
            let warmup = fork_warmup.expect("want_fork implies Some");
            let mut captured = None;
            run_entry(registry, id, || {
                let out = req.run(bench(&req)?, None, |b| watched(b).snapshot_at(warmup))?;
                captured = out.snapshot.clone();
                Ok(out)
            });
            // Fork only from a pristine ramp; otherwise the remaining
            // points simply run cold.
            snapshot = captured.filter(|s| dynapar_gpu::snapshot_is_pristine(s));
        } else {
            run_entry(registry, id, || req.run(bench(&req)?, None, watched));
        }
        finish_entry(exec, id, &class, t0, forked_branch);
    }
}

/// Records the terminal observability for one executed entry: latency
/// histograms, the `job_done`/`job_failed`/`job_cancelled` log event,
/// and the trace span end. Purely observational — every registry
/// transition already happened inside `run_entry`.
fn finish_entry(exec: &Exec, id: u64, class: &str, t0: std::time::Instant, forked_branch: bool) {
    let execute_us = t0.elapsed().as_micros() as u64;
    exec.metrics.record(class, Phase::Execute, execute_us);
    let end_to_end_us = exec.registry.age_us(id);
    if let Some(e2e) = end_to_end_us {
        exec.metrics.record(class, Phase::EndToEnd, e2e);
    }
    let queue_wait_us = exec.registry.queue_wait_us(id);
    let snap = exec.registry.snapshot(id);
    let state = snap.as_ref().map_or(JobState::Failed, |s| s.state);
    if forked_branch {
        exec.log.info("fork_branch", [("id", Json::U64(id))]);
        if let Some(trace) = &exec.trace {
            trace.job_forked(id);
        }
    }
    if let Some(trace) = &exec.trace {
        trace.job_ended(id, state.name());
    }
    let mut fields = vec![
        ("id", Json::U64(id)),
        ("class", Json::str(class)),
        ("state", Json::str(state.name())),
        ("queue_wait_us", Json::U64(queue_wait_us.unwrap_or(0))),
        ("execute_us", Json::U64(execute_us)),
        ("end_to_end_us", Json::U64(end_to_end_us.unwrap_or(0))),
    ];
    match state {
        JobState::Done => exec.log.info("job_done", fields),
        JobState::Cancelled => exec.log.info("job_cancelled", fields),
        _ => {
            if let Some(err) = snap.as_ref().and_then(|s| s.error.clone()) {
                fields.push(("error", Json::str(err)));
            }
            exec.log.error("job_failed", fields);
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Reads one `\n`-terminated line into `buf`, enforcing the line cap
/// and surviving read timeouts (used to poll the shutdown flag).
enum LineRead {
    Line,
    Eof,
    TooLong,
    Closed,
}

fn read_line_capped(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    state: &State,
) -> LineRead {
    buf.clear();
    loop {
        match reader.read_until(b'\n', buf) {
            Ok(0) => {
                return if buf.is_empty() {
                    LineRead::Eof
                } else {
                    // Half a line then EOF: treat as a disconnect.
                    LineRead::Closed
                };
            }
            Ok(_) => {
                if buf.len() > MAX_LINE_BYTES {
                    return LineRead::TooLong;
                }
                return LineRead::Line;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Partial bytes stay in `buf`; keep the cap honest even
                // while the line is still arriving.
                if buf.len() > MAX_LINE_BYTES {
                    return LineRead::TooLong;
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    return LineRead::Closed;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return LineRead::Closed,
        }
    }
}

fn send(stream: &mut TcpStream, doc: &Json) -> bool {
    send_line(stream, doc.to_string())
}

fn send_line(stream: &mut TcpStream, mut line: String) -> bool {
    line.push('\n');
    stream.write_all(line.as_bytes()).is_ok() && stream.flush().is_ok()
}

/// One admitted job's wire acknowledgement: `(id, cached, hash)`.
type Ack = (u64, bool, u64);

/// Admits one job into the registry. Returns the wire ack plus, for
/// the execute path, the `(id, request)` entry the caller must place on
/// the worker queue (possibly grouped with other sweep entries).
fn admit(state: &State, job: JobRequest) -> Result<(Ack, Option<(u64, JobRequest)>), String> {
    if job.metrics == MetricsLevel::Off {
        return Err(format!(
            "metrics level `off` produces no artifact to return; use {}",
            "summary|full|timeseries"
        ));
    }
    let class = job.policy.label();
    let hash = job.canonical_hash();
    let t0 = std::time::Instant::now();
    let admission = state.registry.submit(hash);
    state
        .metrics
        .record(&class, Phase::MemoLookup, t0.elapsed().as_micros() as u64);
    let cached = admission.cached();
    let id = admission.id();
    let entry = match admission {
        Admission::Execute { id } => {
            state.log.info(
                "job_queued",
                [
                    ("id", Json::U64(id)),
                    ("hash", Json::str(format!("{hash:016x}"))),
                    ("class", Json::str(class)),
                ],
            );
            if let Some(trace) = &state.trace {
                trace.job_queued(id, &job.policy.label());
            }
            Some((id, job))
        }
        Admission::Cached { id } => {
            state.log.info(
                "memo_hit",
                [
                    ("id", Json::U64(id)),
                    ("hash", Json::str(format!("{hash:016x}"))),
                    ("class", Json::str(class)),
                ],
            );
            if let Some(trace) = &state.trace {
                trace.memo_hit(id, hash);
            }
            None
        }
        Admission::Coalesced { id, primary } => {
            state.log.info(
                "coalesced",
                [("id", Json::U64(id)), ("primary", Json::U64(primary))],
            );
            if let Some(trace) = &state.trace {
                trace.coalesced(id, primary);
            }
            None
        }
    };
    Ok(((id, cached, hash), entry))
}

/// Waits for a terminal snapshot, polling so shutdown can interrupt.
fn wait_terminal(state: &State, id: u64) -> Option<crate::registry::JobSnapshot> {
    loop {
        let snap = state.registry.wait_tick(id, Duration::from_millis(50))?;
        if snap.state.is_terminal() {
            return Some(snap);
        }
        if state.shutdown.load(Ordering::SeqCst) {
            return Some(snap);
        }
    }
}

fn handle_client(stream: TcpStream, state: &State) {
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
    state
        .log
        .debug("conn_open", [("peer", Json::str(peer.clone()))]);
    handle_client_inner(stream, state);
    state.log.debug("conn_close", [("peer", Json::str(peer))]);
}

fn handle_client_inner(stream: TcpStream, state: &State) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    // The timeout makes handler threads poll the shutdown flag; it is
    // not a protocol deadline — idle connections stay open.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        match read_line_capped(&mut reader, &mut buf, state) {
            LineRead::Eof | LineRead::Closed => return,
            LineRead::TooLong => {
                send(
                    &mut writer,
                    &error_response(&format!("request line exceeds {MAX_LINE_BYTES} bytes")),
                );
                return;
            }
            LineRead::Line => {}
        }
        let line = match std::str::from_utf8(&buf) {
            Ok(s) => s.trim_end_matches(['\n', '\r']),
            Err(_) => {
                if !send(&mut writer, &error_response("request is not UTF-8")) {
                    return;
                }
                continue;
            }
        };
        if line.is_empty() {
            continue;
        }
        let request = match Request::parse_line(line) {
            Ok(r) => r,
            Err(e) => {
                if !send(&mut writer, &error_response(&e)) {
                    return;
                }
                continue;
            }
        };
        let keep_going = match request {
            Request::Submit(job) => {
                let resp = match admit(state, job) {
                    Ok(((id, cached, hash), entry)) => {
                        if let Some((id, req)) = entry {
                            state.queue.submit(JobTask::single(id, req));
                        }
                        submit_response(id, cached, hash)
                    }
                    Err(e) => error_response(&e),
                };
                send(&mut writer, &resp)
            }
            Request::Sweep(sw) => {
                let mut acks = Vec::new();
                let mut entries = Vec::new();
                let mut failure = None;
                for job in sw.expand() {
                    match admit(state, job) {
                        Ok((ack, entry)) => {
                            acks.push(ack);
                            entries.extend(entry);
                        }
                        Err(e) => {
                            failure = Some(e);
                            break;
                        }
                    }
                }
                // Cached/coalesced points never re-run, so only the
                // entries that actually execute are grouped. With a
                // fork point and ≥ 2 live entries they share one
                // worker (ramp once, fork the rest); otherwise each
                // runs as its own task, exactly as before.
                if sw.fork_warmup.is_some() && entries.len() > 1 {
                    state.queue.submit(JobTask {
                        entries,
                        fork_warmup: sw.fork_warmup,
                    });
                } else {
                    for (id, req) in entries {
                        state.queue.submit(JobTask::single(id, req));
                    }
                }
                let resp = match failure {
                    // Already-admitted points keep running; the error
                    // names the point that failed validation.
                    Some(e) => error_response(&format!("sweep point {} rejected: {e}", acks.len())),
                    None => sweep_response(&acks),
                };
                send(&mut writer, &resp)
            }
            Request::Status { id } => {
                let resp = match state.registry.snapshot(id) {
                    Some(snap) => status_response(&snap),
                    None => error_response(&format!("unknown job id {id}")),
                };
                send(&mut writer, &resp)
            }
            Request::Result { id } => {
                let line = match wait_terminal(state, id) {
                    None => error_response(&format!("unknown job id {id}")).to_string(),
                    Some(snap) if snap.state == JobState::Done => result_line(&snap),
                    Some(snap) if snap.state.is_terminal() => terminal_error(&snap).to_string(),
                    Some(_) => error_response("daemon is shutting down").to_string(),
                };
                send_line(&mut writer, line)
            }
            Request::Watch { id } => stream_watch(state, &mut writer, id),
            Request::Cancel { id } => {
                let resp = match state.registry.cancel(id) {
                    Some(st) => Json::obj([
                        ("ok", Json::Bool(true)),
                        ("id", Json::U64(id)),
                        ("state", Json::str(st.name())),
                    ]),
                    None => error_response(&format!("unknown job id {id}")),
                };
                send(&mut writer, &resp)
            }
            Request::Stats => send(
                &mut writer,
                &stats_response(
                    &state.registry.stats(),
                    state.queue.queued(),
                    state.metrics.uptime_us(),
                    state.registry.inflight_now(),
                    state.registry.store_bytes(),
                ),
            ),
            Request::Metrics => send(
                &mut writer,
                &metrics_response(&state.metrics, &state.gauges()),
            ),
            Request::Health => send(
                &mut writer,
                &health_response(&state.metrics, &state.gauges()),
            ),
            Request::Shutdown => {
                state
                    .log
                    .info("shutdown_request", std::iter::empty::<(&str, Json)>());
                send(&mut writer, &shutdown_response());
                state.shutdown.store(true, Ordering::SeqCst);
                false
            }
        };
        if !keep_going {
            return;
        }
    }
}

/// Streams `progress` events (one per tick while the job advances) and
/// a final `end` event. Returns false when the connection died.
fn stream_watch(state: &State, writer: &mut TcpStream, id: u64) -> bool {
    let mut last_progress = u64::MAX;
    loop {
        let Some(snap) = state.registry.wait_tick(id, Duration::from_millis(50)) else {
            return send(writer, &error_response(&format!("unknown job id {id}")));
        };
        if snap.state.is_terminal() {
            // The final event flushes any samples recorded since the
            // last progress frame.
            let samples = state.registry.drain_samples(id);
            return send(writer, &watch_event(&snap, true, samples));
        }
        let samples = state.registry.drain_samples(id);
        if snap.progress_cycles != last_progress || !samples.is_empty() {
            last_progress = snap.progress_cycles;
            if !send(writer, &watch_event(&snap, false, samples)) {
                return false;
            }
        }
        if state.shutdown.load(Ordering::SeqCst) {
            return send(writer, &error_response("daemon is shutting down"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn cancellation_unwinds_without_a_panic_report() {
        let registry = Registry::new();
        let id = registry.submit(1).id();
        let handles = registry.start(id).expect("queued");
        assert_eq!(registry.cancel(id), Some(JobState::Running));
        let hook = watch_hook(&handles);

        // Count panic-hook calls made on this thread only; other tests
        // panicking concurrently go to the previous hook as usual.
        let me = std::thread::current().id();
        let reported = Arc::new(AtomicUsize::new(0));
        let prev = Arc::new(std::panic::take_hook());
        {
            let (reported, prev) = (reported.clone(), prev.clone());
            std::panic::set_hook(Box::new(move |info| {
                if std::thread::current().id() == me {
                    reported.fetch_add(1, Ordering::SeqCst);
                } else {
                    prev(info);
                }
            }));
        }
        run_entry(&registry, id, || {
            hook(WatchSample {
                now: 7,
                queue_depth: 0.0,
                hwq_utilization: 0.0,
                utilization: 0.0,
                parent_ctas: 0,
                child_ctas: 0,
            });
            Err("the cancelled hook returned".to_string())
        });
        std::panic::set_hook(Box::new(move |info| prev(info)));

        assert_eq!(reported.load(Ordering::SeqCst), 0, "cancellation is silent");
        let snap = registry.snapshot(id).expect("known");
        assert_eq!(snap.state, JobState::Cancelled);
        assert_eq!(snap.progress_cycles, 7);
        assert_eq!(registry.stats().cancelled, 1);
    }
}
