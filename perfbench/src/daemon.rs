//! `daemon-session`: an in-process daemon with one worker and an
//! artifact store, driven over one connection by one closed-loop client
//! that keeps a single request outstanding.
//!
//! Driver rules, each for a measured reason:
//! - One worker plus this driver: the host has two cores, and a third
//!   busy thread would make every timing depend on the OS scheduler.
//! - One connection, opened during set-up: the accept loop sleeps 10 ms
//!   when idle, so a connection per op would add 0–10 ms to each.
//! - A fixed op list per pass, never a time window, so every run times
//!   the same mix of executed jobs, memo hits and sweeps.
//! - Result lines are read raw and checked by their `{"ok":true`
//!   prefix and an FNV-1a digest of the embedded artifact. Parsing them
//!   with `Json::parse` costs far more than the daemon's own work (it
//!   re-validates the rest of the line per character) and would make
//!   the client the thing measured; only the small acks are parsed.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use dynapar_core::PolicySpec;
use dynapar_engine::json::Json;
use dynapar_gpu::{MetricsLevel, SimWindow};
use dynapar_server::{
    GpuPreset, JobRequest, Registry, Request, Server, ServerConfig, SweepRequest, WorkloadRef,
};
use dynapar_workloads::{warm_ramp_spec, Scale};

use crate::span::Tracer;
use crate::stats::{bucket_percentile, digest, median};
use crate::Tally;

/// Tiny-scale suite benchmarks the submits cycle through, in three
/// size classes (about 1, 11 and 22 ms to execute). With a quarter of
/// the submits memo hits, the median falls inside the middle class and
/// the p90 inside the slowest one, never in a gap between classes where
/// a small shift in the mix would move them far.
const BENCHES: [&str; 8] = [
    "BFS-citation",
    "GC-citation",
    "JOIN-gaussian",
    "Mandel",
    "MM-small",
    "AMR",
    "JOIN-uniform",
    "MM-large",
];
const POLICIES: [PolicySpec; 2] = [PolicySpec::Baseline, PolicySpec::Spawn];
/// Submits per pass; every `HIT_EVERY`-th repeats a completed config.
const SUBMITS: usize = 100;
const HIT_EVERY: usize = 4;
/// Four-policy fork sweeps per pass, spread evenly among the submits.
const SWEEPS: usize = 2;
const SWEEP_POLICIES: [PolicySpec; 4] = [
    PolicySpec::Spawn,
    PolicySpec::Dtbl,
    PolicySpec::FreeLaunch,
    PolicySpec::Baseline,
];
/// The `perf --sweep-fork` workload: a 1200×40 warm ramp forked at
/// cycle 145000, inside its policy-independent prefix.
const RAMP: (u32, u32) = (1200, 40);
const FORK_WARMUP: u64 = 145_000;
/// First-pass jobs re-run in-process to check the daemon's bytes.
const REFERENCE_JOBS: usize = 16;
/// Store files preloaded by the traced run's `store.preload_ms`.
const PRELOAD_FILES: usize = 8;

/// Executed (non-hit) jobs per pass, sweep branches included.
pub fn planned_executed_per_pass() -> u64 {
    (SUBMITS - SUBMITS / HIT_EVERY + SWEEPS * SWEEP_POLICIES.len()) as u64
}

/// Independent seed for `(run seed, stream, index)` (SplitMix64).
fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn job(workload: WorkloadRef, policy: PolicySpec, seed: u64) -> JobRequest {
    JobRequest {
        workload,
        policy,
        seed,
        metrics: MetricsLevel::Full,
        gpu: GpuPreset::KeplerK20m,
        sim_jobs: None,
        sim_window: SimWindow::default(),
    }
}

fn suite_job(bench: &str, policy: PolicySpec, seed: u64) -> JobRequest {
    let workload = WorkloadRef::Suite {
        bench: bench.to_string(),
        scale: Scale::Tiny,
    };
    job(workload, policy, seed)
}

fn line(req: Request) -> String {
    let mut s = req.to_json().to_string();
    s.push('\n');
    s
}

/// The digest of the artifact a `result` line embeds, after checking
/// the line reports success. The daemon renders `artifact` last, so its
/// bytes run from after the key to before the closing brace.
pub fn artifact_digest(line: &[u8]) -> Result<u64, String> {
    const KEY: &[u8] = b",\"artifact\":";
    if !line.starts_with(b"{\"ok\":true,") {
        let end = line.len().min(200);
        return Err(format!("not ok: {}", String::from_utf8_lossy(&line[..end])));
    }
    let body = line.strip_suffix(b"\n").unwrap_or(line);
    let body = body
        .strip_suffix(b"}")
        .ok_or("result line does not end in `}`")?;
    let at = body
        .windows(KEY.len())
        .position(|w| w == KEY)
        .ok_or("result line has no artifact")?;
    Ok(digest(&body[at + KEY.len()..]))
}

/// One connection, one request outstanding.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            buf: Vec::new(),
        })
    }

    /// Writes one request line and reads the response line raw into
    /// `buf`.
    fn round_trip(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        self.buf.clear();
        self.reader
            .read_until(b'\n', &mut self.buf)
            .map_err(|e| e.to_string())?;
        if !self.buf.ends_with(b"\n") {
            return Err("daemon closed the connection".to_string());
        }
        Ok(())
    }

    /// A round trip whose (small) response is parsed.
    fn ask(&mut self, line: &str) -> Result<Json, String> {
        self.round_trip(line)?;
        let text = std::str::from_utf8(&self.buf).map_err(|e| e.to_string())?;
        let doc = Json::parse(text).map_err(|e| format!("bad response: {e}"))?;
        if doc.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("daemon error: {}", text.trim_end()));
        }
        Ok(doc)
    }
}

fn result_line(id: u64) -> String {
    line(Request::Result { id })
}

pub struct Session {
    seed: u64,
    conn: Conn,
    server: Option<JoinHandle<io::Result<()>>>,
    store: PathBuf,
    spec_text: String,
    passes: u64,
    /// Artifact digest per canonical hash, for memo-hit equality.
    digests: HashMap<String, u64>,
    /// First-pass executed jobs and their digests, re-run in-process.
    references: Vec<(JobRequest, u64)>,
    /// The first sweep's branches, re-run cold in-process.
    sweep_reference: Option<Vec<(JobRequest, u64)>>,
    /// Hashes of first-pass executed jobs, in completion order.
    persisted: Vec<String>,
    /// Captured lines for the traced `Json::parse` probe.
    smallest: Vec<u8>,
    largest: Vec<u8>,
    sweep_request: String,
    response_bytes: u64,
    // Per-layer samples (traced phase only), in ms.
    submit_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    sweep_ack_ms: Vec<f64>,
    /// The daemon's `executed`, `memo_hits` and `forked` counters per
    /// timed pass, as `verify` read them.
    counted: [f64; 3],
}

/// Binds a daemon on an ephemeral port with a fresh store, connects,
/// and executes one job of each benchmark, so lazy allocation and first
/// page touches happen before timing.
pub fn setup(seed: u64, store: PathBuf, tr: &mut Tracer) -> io::Result<Session> {
    if store.exists() {
        std::fs::remove_dir_all(&store)?;
    }
    let cfg = ServerConfig {
        workers: 1,
        store: Some(store.clone()),
        ..ServerConfig::default()
    };
    let server = tr.span("server.bind", |_| Server::bind(&cfg))?;
    let addr = server.local_addr()?;
    let handle = std::thread::Builder::new()
        .name("daemon".into())
        .spawn(move || server.run())?;
    let conn = tr.span("server.connect", |_| Conn::open(addr))?;
    let spec_text = tr.span("workloads.synth", |_| {
        warm_ramp_spec(RAMP.0, RAMP.1).to_text()
    });
    let mut s = Session {
        seed,
        conn,
        server: Some(handle),
        store,
        spec_text,
        passes: 0,
        digests: HashMap::new(),
        references: Vec::new(),
        sweep_reference: None,
        persisted: Vec::new(),
        smallest: Vec::new(),
        largest: Vec::new(),
        sweep_request: String::new(),
        response_bytes: 0,
        submit_ms: Vec::new(),
        hit_ms: Vec::new(),
        miss_ms: Vec::new(),
        sweep_ack_ms: Vec::new(),
        counted: [0.0; 3],
    };
    for (k, bench) in BENCHES.iter().enumerate() {
        let warm = suite_job(
            bench,
            PolicySpec::Baseline,
            derive(seed, u64::MAX, k as u64),
        );
        tr.span("server.warmup", |_| s.warm_up(warm))
            .map_err(io::Error::other)?;
    }
    Ok(s)
}

impl Session {
    fn warm_up(&mut self, req: JobRequest) -> Result<(), String> {
        let ack = self.conn.ask(&line(Request::Submit(req)))?;
        let id = ack
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("ack has no id")?;
        self.conn.round_trip(&result_line(id))?;
        artifact_digest(&self.conn.buf).map(drop)
    }

    /// Asks the daemon to stop and waits for its accept loop to end.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = self.conn.ask(&line(Request::Shutdown));
        let joined = match self.server.take().map(JoinHandle::join) {
            Some(Ok(Ok(()))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("daemon accept loop: {e}")),
            Some(Err(_)) => Err("daemon accept loop panicked".to_string()),
        };
        sent.map(drop).and(joined)
    }

    pub fn store(&self) -> &Path {
        &self.store
    }

    /// One pass of the fixed op list.
    pub fn pass(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        let p = self.passes;
        self.passes += 1;
        let mut executed: Vec<JobRequest> = Vec::new();
        let mut sweeps = 0;
        for i in 0..SUBMITS {
            let hit = i % HIT_EVERY == HIT_EVERY - 1;
            let req = if hit {
                let pick = derive(self.seed, 2 * p + 1, i as u64) as usize % executed.len();
                executed[pick].clone()
            } else {
                let j = executed.len();
                let policy = POLICIES[(j / BENCHES.len()) % POLICIES.len()].clone();
                let req = suite_job(
                    BENCHES[j % BENCHES.len()],
                    policy,
                    derive(self.seed, 2 * p, j as u64),
                );
                executed.push(req.clone());
                req
            };
            if let Err(e) = self.submit(req, hit, p == 0, tr, tally) {
                tally.fail(format!("pass {p} submit {i}: {e}"));
            }
            if (i + 1) % (SUBMITS / SWEEPS) == 0 {
                let seed = derive(self.seed, u64::MAX - 1, p * SWEEPS as u64 + sweeps);
                if let Err(e) = self.sweep(seed, p == 0 && sweeps == 0, tr, tally) {
                    tally.fail(format!("pass {p} sweep {sweeps}: {e}"));
                }
                sweeps += 1;
            }
        }
    }

    fn submit(
        &mut self,
        req: JobRequest,
        hit: bool,
        first_pass: bool,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let submit = line(Request::Submit(req.clone()));
        let t0 = Instant::now();
        let conn = &mut self.conn;
        let (ack, t1) = tr.op(|tr| -> Result<_, String> {
            let ack = tr.span("server.submit", |_| conn.ask(&submit))?;
            let t1 = Instant::now();
            let id = ack
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("ack has no id")?;
            let layer = if hit { "server.hit" } else { "server.miss" };
            tr.span(layer, |_| conn.round_trip(&result_line(id)))?;
            Ok((ack, t1))
        })?;
        let t2 = Instant::now();
        tally.op_done((t2 - t0).as_secs_f64());
        if tr.enabled() {
            self.submit_ms.push((t1 - t0).as_secs_f64() * 1e3);
            let v = if hit {
                &mut self.hit_ms
            } else {
                &mut self.miss_ms
            };
            v.push((t2 - t1).as_secs_f64() * 1e3);
        }
        let resp = &self.conn.buf;
        self.response_bytes += resp.len() as u64;
        let got = artifact_digest(resp)?;
        if first_pass && !hit {
            if self.smallest.is_empty() || resp.len() < self.smallest.len() {
                self.smallest = resp.clone();
            }
            if resp.len() > self.largest.len() {
                self.largest = resp.clone();
            }
        }
        let cached = ack.get("cached").and_then(Json::as_bool);
        if cached != Some(hit) {
            return Err(format!("ack cached={cached:?}, planned {hit}"));
        }
        let hash = ack
            .get("hash")
            .and_then(Json::as_str)
            .ok_or("ack has no hash")?
            .to_string();
        if hit {
            return match self.digests.get(&hash) {
                Some(&want) if want == got => Ok(()),
                _ => Err(format!(
                    "memo hit {hash} returned other bytes than the original"
                )),
            };
        }
        if first_pass {
            if self.references.len() < REFERENCE_JOBS {
                self.references.push((req, got));
            }
            self.persisted.push(hash.clone());
        }
        self.digests.insert(hash, got);
        Ok(())
    }

    fn sweep(
        &mut self,
        seed: u64,
        keep: bool,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let base = job(
            WorkloadRef::Spec {
                text: self.spec_text.clone(),
            },
            SWEEP_POLICIES[0].clone(),
            seed,
        );
        let sweep = SweepRequest {
            base,
            policies: SWEEP_POLICIES.to_vec(),
            fork_warmup: Some(FORK_WARMUP),
        };
        let branches = sweep.expand();
        let request = line(Request::Sweep(sweep));
        let t0 = Instant::now();
        let conn = &mut self.conn;
        let mut lines: Vec<Vec<u8>> = Vec::new();
        let (ack, ack_s) = tr.op(|tr| -> Result<_, String> {
            let ack = tr.span("server.sweep_ack", |_| conn.ask(&request))?;
            let ack_s = t0.elapsed().as_secs_f64();
            let ids = ack
                .get("ids")
                .and_then(Json::as_array)
                .ok_or("sweep ack has no ids")?;
            for id in ids {
                let id = id.as_u64().ok_or("sweep id is not a number")?;
                tr.span("server.sweep_result", |_| conn.round_trip(&result_line(id)))?;
                lines.push(conn.buf.clone());
            }
            Ok((ack, ack_s))
        })?;
        tally.sweep_done(t0.elapsed().as_secs_f64(), lines.len() as u64);
        if tr.enabled() {
            self.sweep_ack_ms.push(ack_s * 1e3);
        }
        let cached = ack
            .get("cached")
            .and_then(Json::as_array)
            .map(|c| c.iter().all(|c| c.as_bool() == Some(false)));
        if cached != Some(true) || lines.len() != SWEEP_POLICIES.len() {
            return Err(format!(
                "sweep ack {ack} does not plan {} fresh branches",
                SWEEP_POLICIES.len()
            ));
        }
        let mut digests = Vec::new();
        for l in &lines {
            self.response_bytes += l.len() as u64;
            digests.push(artifact_digest(l)?);
        }
        if keep {
            self.sweep_request = request;
            let branches = branches.into_iter().zip(digests).collect();
            self.sweep_reference = Some(branches);
        }
        Ok(())
    }

    /// Checks after the timed phases: in-process reruns of sampled jobs
    /// must match the daemon's bytes (forked sweep branches included),
    /// and the daemon's counters must equal the plan.
    pub fn verify(&mut self, tally: &mut Tally) {
        let reruns = self
            .references
            .iter()
            .chain(self.sweep_reference.iter().flatten());
        for (req, want) in reruns {
            match req.artifact() {
                Ok(a) if digest(a.to_string().as_bytes()) == *want => {}
                Ok(_) => tally.fail(format!(
                    "{}: daemon bytes differ from an in-process run",
                    req.workload.canonical_id()
                )),
                Err(e) => tally.fail(format!("in-process rerun: {e}")),
            }
        }
        let stats = match self.conn.ask(&line(Request::Stats)) {
            Ok(s) => s,
            Err(e) => return tally.fail(format!("stats: {e}")),
        };
        let n = |k: &str| stats.get(k).and_then(Json::as_u64);
        let per_pass = |v: Option<u64>, less: u64| {
            v.unwrap_or(0).saturating_sub(less) as f64 / self.passes.max(1) as f64
        };
        self.counted = [
            per_pass(n("executed"), BENCHES.len() as u64),
            per_pass(n("memo_hits"), 0),
            per_pass(n("forked"), 0),
        ];
        let planned = [
            (
                "executed",
                BENCHES.len() as u64 + self.passes * planned_executed_per_pass(),
            ),
            ("memo_hits", self.passes * (SUBMITS / HIT_EVERY) as u64),
            (
                "forked",
                self.passes * (SWEEPS * (SWEEP_POLICIES.len() - 1)) as u64,
            ),
            ("failed", 0),
        ];
        for (k, want) in planned {
            if n(k) != Some(want) {
                tally.fail(format!("daemon stats {k}={:?}, planned {want}", n(k)));
            }
        }
    }

    /// Per-layer metrics of the traced run.
    pub fn layers(
        &mut self,
        m: &mut std::collections::BTreeMap<&'static str, f64>,
        work: &Path,
        tally: &mut Tally,
    ) {
        let passes = self.passes.max(1) as f64;
        m.insert("server.submit_ms_p50", median(&self.submit_ms));
        m.insert("server.hit_ms_p50", median(&self.hit_ms));
        m.insert("server.miss_ms_p50", median(&self.miss_ms));
        m.insert("server.sweep_ack_ms_p50", median(&self.sweep_ack_ms));
        m.insert("server.executed", self.counted[0]);
        m.insert("server.memo_hits", self.counted[1]);
        m.insert("server.forked", self.counted[2]);
        m.insert("wire.response_bytes", self.response_bytes as f64 / passes);
        match self.conn.ask(&line(Request::Metrics)) {
            Ok(doc) => {
                for (key, name) in [
                    ("queue_wait_us", "server.queue_wait_us_p50"),
                    ("execute_us", "server.execute_us_p50"),
                    ("memo_lookup_us", "server.memo_lookup_us_p50"),
                ] {
                    m.insert(name, histogram_p50(&doc, key) as f64);
                }
            }
            Err(e) => tally.fail(format!("metrics: {e}")),
        }
        // Client-side parse cost of what `dynapar submit` reads, and
        // of the request the daemon parses before acking a sweep.
        let parse_ns_per_byte = |texts: &[&[u8]]| {
            let mut ns = 0.0;
            let mut bytes = 0;
            for t in texts {
                let s = std::str::from_utf8(t).expect("captured lines are UTF-8");
                let t0 = Instant::now();
                let parsed = Json::parse(s.trim_end());
                ns += t0.elapsed().as_secs_f64() * 1e9;
                bytes += t.len();
                assert!(parsed.is_ok(), "captured line does not parse");
            }
            ns / bytes.max(1) as f64
        };
        m.insert(
            "json.parse_ns_per_byte_small",
            parse_ns_per_byte(&[&self.smallest]),
        );
        let large = [self.largest.as_slice(), self.sweep_request.as_bytes()];
        m.insert("json.parse_ns_per_byte_large", parse_ns_per_byte(&large));
        eprintln!(
            "perfbench: Json::parse probe: small = {} B result line; large = {} B result line + {} B sweep request",
            self.smallest.len(),
            self.largest.len(),
            self.sweep_request.len()
        );
        match self.preload(work) {
            Ok(ms) => {
                m.insert("store.preload_ms", ms);
            }
            Err(e) => tally.fail(format!("store preload: {e}")),
        }
    }

    /// Times `Registry::with_store` over copies of the first persisted
    /// artifacts.
    fn preload(&self, work: &Path) -> Result<f64, String> {
        let dir = work.join("preload");
        let io = |e: io::Error| e.to_string();
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(io)?;
        }
        std::fs::create_dir_all(&dir).map_err(io)?;
        let mut bytes = 0;
        for hash in self.persisted.iter().take(PRELOAD_FILES) {
            let name = format!("{hash}.json");
            bytes += std::fs::copy(self.store.join(&name), dir.join(&name)).map_err(io)?;
        }
        let t0 = Instant::now();
        let registry = Registry::with_store(&dir).map_err(io)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if registry.store_bytes() != bytes {
            return Err(format!(
                "preloaded {} of {bytes} bytes",
                registry.store_bytes()
            ));
        }
        eprintln!(
            "perfbench: store preload: {} files, {bytes} B in {ms:.1} ms",
            self.persisted.len().min(PRELOAD_FILES)
        );
        Ok(ms)
    }
}

/// p50 of one phase's histogram, merged over every job class.
fn histogram_p50(metrics: &Json, phase: &str) -> u64 {
    let mut merged: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let classes = metrics
        .get("latencies")
        .and_then(Json::as_object)
        .unwrap_or(&[]);
    for (_, class) in classes {
        let buckets = class
            .get(phase)
            .and_then(|h| h.get("buckets"))
            .and_then(Json::as_array);
        for b in buckets.unwrap_or(&[]) {
            if let Some([upper, count]) = b.as_array() {
                *merged.entry(upper.as_u64().unwrap_or(0)).or_insert(0) +=
                    count.as_u64().unwrap_or(0);
            }
        }
    }
    bucket_percentile(&merged.into_iter().collect::<Vec<_>>(), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_covers_exactly_the_embedded_artifact() {
        let artifact = br#"{"schema":"x","report":{"a":1}}"#;
        let line = [
            br#"{"ok":true,"id":3,"cached":false,"hash":"00ff","artifact":"#.as_slice(),
            artifact,
            b"}\n",
        ]
        .concat();
        assert_eq!(artifact_digest(&line), Ok(digest(artifact)));
        // A memo hit differs in id and `cached` but embeds the same bytes.
        let hit = String::from_utf8(line.clone())
            .unwrap()
            .replace("\"id\":3,\"cached\":false", "\"id\":9,\"cached\":true");
        assert_eq!(artifact_digest(hit.as_bytes()), Ok(digest(artifact)));
        // One changed byte inside the artifact changes the digest.
        let changed = String::from_utf8(line)
            .unwrap()
            .replace("\"a\":1", "\"a\":2");
        assert_ne!(artifact_digest(changed.as_bytes()), Ok(digest(artifact)));
    }

    #[test]
    fn digest_rejects_failures_and_truncation() {
        assert!(artifact_digest(b"{\"ok\":false,\"error\":\"boom\"}\n").is_err());
        assert!(artifact_digest(b"{\"ok\":true,\"id\":1}\n").is_err());
        assert!(artifact_digest(b"{\"ok\":true,\"id\":1,\"artifact\":{\"a\":1\n").is_err());
    }

    #[test]
    fn plan_has_enough_submits_for_a_p90() {
        assert!(crate::stats::highest_percentile(SUBMITS).is_some_and(|p| p >= 90));
        assert_eq!(SUBMITS % SWEEPS, 0);
        assert_eq!(planned_executed_per_pass(), 75 + 8);
    }

    #[test]
    fn derived_seeds_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for stream in 0..4 {
            for i in 0..200 {
                assert!(seen.insert(derive(7, stream, i)));
            }
        }
        assert_ne!(derive(7, 0, 0), derive(8, 0, 0));
    }
}
