//! The dynapar benchmark: runs one named workload in this process,
//! checks its outputs, and prints every metric by name with its unit.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-launch --seed 14098455 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics of
//! a traced run (`--trace 1`). Diagnostics go to standard error.
//! `perfbench/README.md` defines every workload and metric.

mod daemon;
mod sim;
mod span;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dynapar_engine::json::Json;
use dynapar_workloads::suite;

use span::Tracer;
use stats::{median, percentile};

/// End-to-end metrics with their units, in output order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("sweep_ms_p50", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics with their units. A workload that does not reach
/// a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 40] = [
    ("workloads.synth_ms", "ms"),
    ("gpu.build_ms", "ms"),
    ("gpu.loop_ms", "ms"),
    ("gpu.loop_ns_per_event", "ns"),
    ("gpu.teardown_ms", "ms"),
    ("gpu.events", "count"),
    ("gpu.events_global", "count"),
    ("gpu.events_local", "count"),
    ("gpu.sim_cycles", "count"),
    ("mem.l1_accesses", "count"),
    ("mem.l2_accesses", "count"),
    ("mem.dram_accesses", "count"),
    ("mem.mshr_stalls", "count"),
    ("mem.accesses_per_event", "count"),
    ("gmu.child_kernels", "count"),
    ("gmu.max_pending_kernels", "count"),
    ("core.launch_requests", "count"),
    ("core.inlined_requests", "count"),
    ("core.ccqs_est_over_actual_p50", "ratio"),
    ("artifact.report_ms", "ms"),
    ("artifact.render_ms", "ms"),
    ("artifact.bytes", "bytes"),
    ("artifact.write_ms", "ms"),
    ("server.submit_ms_p50", "ms"),
    ("server.hit_ms_p50", "ms"),
    ("server.miss_ms_p50", "ms"),
    ("server.sweep_ack_ms_p50", "ms"),
    ("server.queue_wait_us_p50", "us"),
    ("server.execute_us_p50", "us"),
    ("server.memo_lookup_us_p50", "us"),
    ("server.executed", "count"),
    ("server.memo_hits", "count"),
    ("server.forked", "count"),
    ("wire.response_bytes", "bytes"),
    ("json.parse_ns_per_byte_small", "ns/byte"),
    ("json.parse_ns_per_byte_large", "ns/byte"),
    ("store.preload_ms", "ms"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.passes", "count"),
];

/// Layers whose self time (ms per pass) the traced run reports.
const TIMED_LAYERS: [(&str, &str); 6] = [
    ("gpu.build", "gpu.build_ms"),
    ("gpu.loop", "gpu.loop_ms"),
    ("gpu.teardown", "gpu.teardown_ms"),
    ("artifact.report", "artifact.report_ms"),
    ("artifact.render", "artifact.render_ms"),
    ("artifact.write", "artifact.write_ms"),
];

/// Set-ups per run; `setup_s` is their median. The last one is kept.
const SETUP_REPS: usize = 5;

/// Failed-op bookkeeping and the end-to-end samples of a timed phase.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    /// Per-op latency of single jobs (ms).
    op_ms: Vec<f64>,
    /// The same latencies of a simulation op list, grouped by the op's
    /// index in the list. Empty for the daemon.
    by_op: Vec<Vec<f64>>,
    /// Per-sweep latency (ms). A simulation op list has no sweep
    /// request: there, one pass over its configurations is the sweep.
    pub sweep_ms: Vec<f64>,
    /// Jobs completed; a sweep branch counts as one.
    jobs: u64,
    /// Summed op time (s): the time jobs were in flight.
    busy_s: f64,
    /// Peak resident set after the first pass (MiB). Read there, after
    /// a fixed amount of work, because the daemon's memo cache grows
    /// with every pass a faster host fits into the run.
    peak_rss_mib: f64,
}

impl Tally {
    pub fn op_done(&mut self, secs: f64) {
        self.attempted += 1;
        self.jobs += 1;
        self.busy_s += secs;
        self.op_ms.push(secs * 1e3);
    }

    /// Records a simulation op; `op` is its index in the fixed op list.
    pub fn sim_op_done(&mut self, op: usize, secs: f64) {
        self.op_done(secs);
        if self.by_op.len() <= op {
            self.by_op.resize(op + 1, Vec::new());
        }
        self.by_op[op].push(secs * 1e3);
    }

    pub fn sweep_done(&mut self, secs: f64, jobs: u64) {
        self.attempted += jobs;
        self.jobs += jobs;
        self.busy_s += secs;
        self.sweep_ms.push(secs * 1e3);
    }

    /// Records a failed output check. Each counts as one failed op.
    pub fn fail(&mut self, msg: String) {
        eprintln!("perfbench: FAILED: {msg}");
        self.failed += 1;
        self.attempted = self.attempted.max(self.failed);
    }

    /// The samples `job_ms_*` are percentiles of. A simulation op list
    /// mixes three configurations of very different sizes, each run once
    /// a pass, so a pooled p90 would be a few slow passes of the largest
    /// one. There each configuration contributes its median instead.
    fn latency_samples(&self) -> Vec<f64> {
        if self.by_op.is_empty() {
            self.op_ms.clone()
        } else {
            self.by_op.iter().map(|ms| median(ms)).collect()
        }
    }

    fn jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.busy_s.max(f64::MIN_POSITIVE)
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload sim-memory|sim-launch|daemon-session [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: suite::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !matches!(
        args.workload.as_str(),
        "sim-memory" | "sim-launch" | "daemon-session"
    ) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// A set-up workload, ready for timed passes.
enum Bench {
    Sim(sim::SimState),
    Daemon(daemon::Session),
}

impl Bench {
    fn setup(args: &Args, work: &Path, rep: usize, tr: &mut Tracer) -> Bench {
        match sim::ops(&args.workload) {
            Some((ops, scale)) => {
                Bench::Sim(sim::setup(ops, scale, args.seed, work.to_path_buf(), tr))
            }
            None => {
                let store = work.join(format!("store-{rep}"));
                let session = daemon::setup(args.seed, store, tr)
                    .unwrap_or_else(|e| fatal(&format!("daemon set-up: {e}")));
                Bench::Daemon(session)
            }
        }
    }

    fn pass(&mut self, pass: u64, tr: &mut Tracer, tally: &mut Tally) {
        match self {
            Bench::Sim(st) => sim::pass(st, pass, tr, tally),
            Bench::Daemon(s) => s.pass(tr, tally),
        }
    }

    fn teardown(self, tally: &mut Tally) {
        if let Bench::Daemon(s) = self {
            let store = s.store().to_path_buf();
            if let Err(e) = s.shutdown() {
                tally.fail(format!("daemon shutdown: {e}"));
            }
            let _ = std::fs::remove_dir_all(store);
        }
    }
}

fn fatal(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

/// Runs whole passes of the op list until `seconds` have passed. The
/// op list is fixed, so the mix never depends on where a clock cuts it.
fn timed_phase(bench: &mut Bench, seconds: f64, first_pass: u64, tr: &mut Tracer) -> (Tally, u64) {
    let mut tally = Tally::default();
    let started = Instant::now();
    let mut passes = 0;
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        bench.pass(first_pass + passes, tr, &mut tally);
        if passes == 0 {
            tally.peak_rss_mib = peak_rss_mib();
        }
        passes += 1;
    }
    (tally, passes)
}

/// The process's peak resident set (VmHWM) in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or_else(|| fatal("no VmHWM in /proc/self/status"));
    kib / 1024.0
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| fatal(&format!("{e}\n{USAGE}")));
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let work = out_dir.join(format!("work-{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).unwrap_or_else(|e| fatal(&format!("{}: {e}", work.display())));

    let mut total = Tally::default();
    let mut tracer = Tracer::new(args.trace);
    let mut setups = Vec::new();
    let mut bench = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = bench.take() {
            Bench::teardown(old, &mut total);
        }
        let t0 = Instant::now();
        bench = Some(Bench::setup(&args, &work, rep, &mut tracer));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("SETUP_REPS > 0");

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    // A traced run splits its time between an untraced phase, the
    // reference for the tracing overhead, and the traced phase, so it
    // takes as long as an untraced run.
    let phase_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (untraced, passes) = timed_phase(&mut bench, phase_s, 0, &mut Tracer::new(false));
    if args.trace {
        let traced_from = tracer.spans().len();
        let (traced, traced_passes) =
            tracer.span("phase", |tr| timed_phase(&mut bench, phase_s, passes, tr));
        let overhead = 1.0 - traced.jobs_per_s() / untraced.jobs_per_s();
        layer_metrics(
            &mut metrics,
            &tracer,
            traced_from,
            traced_passes,
            &bench,
            &traced,
        );
        metrics.insert("trace.overhead_pct", overhead * 100.0);
        let reps = SETUP_REPS as f64;
        let synth = tracer
            .self_times()
            .get("workloads.synth")
            .copied()
            .unwrap_or(0.0);
        metrics.insert("workloads.synth_ms", synth * 1e3 / reps);
        total.absorb(traced);
        write_trace(&tracer, &args, &out_dir, &mut total);
    } else {
        metrics.insert("setup_s", median(&setups));
        metrics.insert("jobs_per_s", untraced.jobs_per_s());
        let latency = untraced.latency_samples();
        metrics.insert("job_ms_p50", median(&latency));
        metrics.insert("job_ms_p90", percentile(&latency, 90.0));
        metrics.insert("sweep_ms_p50", median(&untraced.sweep_ms));
        metrics.insert("peak_rss_mib", untraced.peak_rss_mib);
        eprintln!(
            "perfbench: {} {passes} passes, {} jobs in {:.3} s busy; {} job samples (highest percentile with 10 beyond: {:?}), {} sweeps",
            args.workload,
            untraced.jobs,
            untraced.busy_s,
            untraced.op_ms.len(),
            stats::highest_percentile(untraced.op_ms.len()),
            untraced.sweep_ms.len()
        );
        let deciles: Vec<String> = (1..10)
            .map(|d| format!("{:.2}", percentile(&untraced.op_ms, f64::from(d) * 10.0)))
            .collect();
        eprintln!("perfbench: job ms deciles p10..p90: {}", deciles.join(" "));
    }
    total.absorb(untraced);
    match &mut bench {
        Bench::Daemon(s) => {
            s.verify(&mut total);
            if args.trace {
                s.layers(&mut metrics, &work, &mut total);
            }
        }
        Bench::Sim(st) => sim::layer_counts(st, &mut metrics),
    }
    bench.teardown(&mut total);
    let _ = std::fs::remove_dir_all(&work);

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics_json = table.iter().map(|&(name, unit)| {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        (
            name,
            Json::obj([("value", Json::F64(value)), ("unit", Json::str(unit))]),
        )
    });
    let result = Json::obj([
        ("correct", Json::Bool(total.failed == 0)),
        ("attempted", Json::U64(total.attempted.max(1))),
        ("failed", Json::U64(total.failed)),
        ("metrics", Json::obj(metrics_json)),
    ]);
    println!("{result}");
}

/// Per-layer metrics of the traced phase (spans from `from` on), plus
/// the self-time table on standard error.
fn layer_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    tracer: &Tracer,
    from: usize,
    passes: u64,
    bench: &Bench,
    tally: &Tally,
) {
    let spans = &tracer.spans()[from..];
    // Parents are indices into the whole list; rebase them.
    let rebased: Vec<span::Span> = spans
        .iter()
        .map(|s| span::Span {
            parent: s.parent.and_then(|p| p.checked_sub(from)),
            ..s.clone()
        })
        .collect();
    let self_s = span::self_times(&rebased);
    // Time in no layer: the driver's own work inside ops, and its
    // checks and bookkeeping between them.
    let phase = (rebased[0].end - rebased[0].start).as_secs_f64();
    let driver: f64 = ["op", "phase"].iter().filter_map(|k| self_s.get(k)).sum();
    let coverage = 1.0 - driver / phase;
    let per_pass = |name: &str| self_s.get(name).copied().unwrap_or(0.0) * 1e3 / passes as f64;
    for (layer, metric) in TIMED_LAYERS {
        m.insert(metric, per_pass(layer));
    }
    if let Bench::Sim(st) = bench {
        let events = sim::events_per_pass(st) as f64;
        m.insert(
            "gpu.loop_ns_per_event",
            per_pass("gpu.loop") * 1e6 / events.max(1.0),
        );
    }
    m.insert("trace.coverage_pct", coverage * 100.0);
    m.insert("trace.passes", passes as f64);

    eprintln!(
        "perfbench: traced phase: {passes} passes, {phase:.3} s, {} jobs",
        tally.jobs
    );
    eprintln!("  {:<24} {:>12} {:>8}", "layer", "self ms/pass", "share");
    for (name, secs) in self_s
        .iter()
        .filter(|(k, _)| !matches!(**k, "op" | "phase"))
    {
        eprintln!(
            "  {name:<24} {:>12.3} {:>7.2}%",
            secs * 1e3 / passes as f64,
            secs / phase * 100.0
        );
    }
    eprintln!(
        "  {:<24} {:>12.3} {:>7.2}%",
        "(driver, no layer)",
        driver * 1e3 / passes as f64,
        driver / phase * 100.0
    );
    eprintln!(
        "  {:<24} {:>12} {:>7.2}%",
        "layers total",
        "",
        coverage * 100.0
    );
}

/// Writes the traced spans as one Chrome trace-event file and checks it
/// the way `dynapar check-timeline` does.
fn write_trace(tracer: &Tracer, args: &Args, out_dir: &Path, tally: &mut Tally) {
    let path: PathBuf = out_dir.join(format!("trace-{}.json", args.workload));
    let doc = tracer.to_chrome_json(&format!("perfbench {}", args.workload));
    let text = format!("{doc}\n");
    if let Err(e) = std::fs::write(&path, &text) {
        return tally.fail(format!("writing {}: {e}", path.display()));
    }
    let spans = Json::parse(&text).ok().and_then(|j| {
        j.get("traceEvents").and_then(Json::as_array).map(|e| {
            e.iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
                .count()
        })
    });
    match spans {
        Some(n) if n > 0 => eprintln!("perfbench: trace written to {} ({n} spans)", path.display()),
        _ => tally.fail(format!("{} is not a valid trace", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_latency_takes_each_ops_median() {
        let mut tally = Tally::default();
        for (op, ms) in [
            (0, 10.0),
            (1, 500.0),
            (0, 30.0),
            (1, 900.0),
            (0, 11.0),
            (1, 505.0),
        ] {
            tally.sim_op_done(op, ms / 1e3);
        }
        let got = tally.latency_samples();
        assert_eq!(got.len(), 2);
        assert!((got[0] - 11.0).abs() < 1e-9 && (got[1] - 505.0).abs() < 1e-9);
        // A daemon tally has no op list: every sample counts.
        let mut daemon = Tally::default();
        daemon.op_done(0.002);
        daemon.op_done(0.004);
        assert_eq!(daemon.latency_samples().len(), 2);
    }
}
