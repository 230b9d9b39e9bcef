//! Simulator throughput harness: runs a handful of representative
//! benchmark × scheme pairs and reports events/sec for each, plus an
//! aggregate. Replaces the old criterion benches with something that
//! builds offline and prints numbers suitable for EXPERIMENTS.md.
//!
//! Runs are serial by default so the wall-clock of one simulation is
//! not polluted by siblings competing for cores; pass `--jobs N` to
//! measure aggregate throughput with the parallel runner instead.
//!
//! Beyond the shared flags, `perf` adds:
//!
//! - `--parallel` — use the worker pool instead of the serial default.
//! - `--emit-json PATH` — write the results as a perf artifact
//!   (`results/BENCH_4.json` is the committed baseline).
//! - `--baseline PATH` — compare against a previously emitted artifact
//!   and exit non-zero on regression.
//! - `--max-regress F` — allowed fractional throughput drop before the
//!   baseline comparison fails (default 0.30: wall-clock on a noisy
//!   machine swings ±15–30% run to run, so the gate only catches
//!   collapses, not jitter).
//! - `--runs N` — repeat every job N times and report the median
//!   wall-clock of each (events must be bit-identical across repeats;
//!   any drift aborts). Use N=3 or 5 when recording a baseline.
//! - `--profile` — run with the simulator's self-profiler and print a
//!   per-phase table; requires building with `--features profile`.
//!   With `--emit-json` the artifact gains a `profile` section
//!   (schema `dynapar-profile/1`).
//! - `--check-profile PATH` — standalone: validate the `profile`
//!   section of a previously emitted artifact (schema tag, non-empty
//!   phases, coverage ≥ 0.95) and exit; runs nothing.
//! - `--metrics LEVEL` — run the jobs at an observability level other
//!   than the default `off`: `perf --metrics timeseries --baseline
//!   results/BENCH_4.json` measures the telemetry layer's overhead
//!   against an off-baseline (the event counts must still match — the
//!   telemetry contract is that observation never changes simulated
//!   behavior). Not combinable with `--profile`, which measures the
//!   `off` configuration by definition.
//! - `--sweep-fork` — standalone mode: measures a four-policy sweep of
//!   the warm-ramp workload cold (every point from cycle 0) and warm
//!   (the shared ramp simulated once, every remaining point forked
//!   from the snapshot), verifies the fork point is policy-pristine
//!   and covers ≥ 30% of every run, and fails unless the warm sweep
//!   beats the cold one by ≥ 1.5×. Combines with `--emit-json` /
//!   `--baseline` (`results/BENCH_8.json` is the committed baseline).

use dynapar_bench::{parse_metrics_level, usage_error, Options};
use dynapar_core::{BaselineDp, PolicySpec, SpawnPolicy};
use dynapar_engine::par::par_map;
use dynapar_engine::profile::ProfileReport;
use dynapar_gpu::{
    canonical_json_hash, snapshot_is_pristine, InlineAll, Json, LaunchController, MetricsLevel,
    SimReport, Simulation,
};
use dynapar_workloads::{suite, warm_ramp_spec, Scale};

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// Schema tag of the perf artifact this binary emits and consumes.
const PERF_SCHEMA: &str = "dynapar-perf/1";

/// Schema tag of the `profile` section emitted under `--profile`.
const PROFILE_SCHEMA: &str = "dynapar-profile/1";

/// The event queue every simulation schedules on. Recorded in the
/// artifact and in the config-hash preimages as `"queue": "wheel"` and
/// `"sim_jobs": 0`, so the committed baselines (recorded when the queue
/// and the intra-run worker count were still selectable) keep gating.
const QUEUE: &str = "wheel";

fn main() {
    let (mut opts, rest) = Options::parse_known().unwrap_or_else(|e| e.exit());
    let mut serial = true;
    let mut emit_json: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut max_regress = 0.30f64;
    let mut runs = 1usize;
    let mut profile = false;
    let mut check_profile: Option<String> = None;
    let mut metrics = MetricsLevel::Off;
    let mut sweep_fork = false;
    let mut rest = rest.into_iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            // --jobs is already consumed by Options; this extra flag
            // only switches perf from its serial default to the pool.
            "--parallel" => serial = false,
            "--emit-json" => {
                emit_json =
                    Some(rest.next().unwrap_or_else(|| usage_error("--emit-json expects a path")));
            }
            "--baseline" => {
                baseline =
                    Some(rest.next().unwrap_or_else(|| usage_error("--baseline expects a path")));
            }
            "--max-regress" => {
                let v = rest
                    .next()
                    .unwrap_or_else(|| usage_error("--max-regress expects a fraction in [0, 1)"));
                max_regress = match v.parse() {
                    Ok(f) if (0.0..1.0).contains(&f) => f,
                    _ => usage_error(&format!(
                        "--max-regress expects a fraction in [0, 1), got {v:?}"
                    )),
                };
            }
            "--runs" => {
                let v = rest.next().unwrap_or_else(|| usage_error("--runs expects a count ≥ 1"));
                runs = match v.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => usage_error(&format!("--runs expects a count ≥ 1, got {v:?}")),
                };
            }
            "--profile" => {
                if !cfg!(feature = "profile") {
                    usage_error(
                        "--profile requires a profiled build: \
                         cargo run --release --features profile --bin perf",
                    );
                }
                profile = true;
            }
            "--check-profile" => {
                check_profile = Some(
                    rest.next().unwrap_or_else(|| usage_error("--check-profile expects a path")),
                );
            }
            "--metrics" => {
                let v = rest.next().unwrap_or_else(|| usage_error("--metrics expects a level"));
                metrics = parse_metrics_level(&v).unwrap_or_else(|e| e.exit());
            }
            "--sweep-fork" => sweep_fork = true,
            other => usage_error(&format!(
                "unknown argument {other:?} (perf adds --parallel, --emit-json, \
                 --baseline, --max-regress, --runs, --profile, --check-profile, --metrics, \
                 --sweep-fork)"
            )),
        }
    }
    if let Some(path) = &check_profile {
        match validate_profile_artifact(path) {
            Ok(msg) => {
                println!("{msg}");
                return;
            }
            Err(msg) => {
                eprintln!("perf: {msg}");
                std::process::exit(1);
            }
        }
    }
    if profile && metrics != MetricsLevel::Off {
        usage_error("--profile measures the `off` configuration; drop --metrics");
    }
    if sweep_fork {
        if profile || metrics != MetricsLevel::Off {
            usage_error("--sweep-fork measures the `off` configuration; drop --profile/--metrics");
        }
        run_sweep_fork(
            &opts,
            runs,
            emit_json.as_deref(),
            baseline.as_deref(),
            max_regress,
        );
        return;
    }
    if serial {
        opts.jobs = 1;
    }
    let cfg = opts.config();
    let names = ["BFS-graph500", "AMR", "SA-thaliana", "MM-small"];
    let benches: Vec<_> = names
        .iter()
        .map(|n| suite::by_name(n, opts.scale, opts.seed).expect("known benchmark"))
        .collect();
    type Rep = (SimReport, Option<ProfileReport>);
    type Job<'a> = (String, Box<dyn Fn() -> Vec<Rep> + Send + Sync + 'a>);
    let mut jobs: Vec<Job> = Vec::new();
    for b in &benches {
        let cfg = &cfg;
        // Each job repeats `runs` times so the harness can take a median
        // wall-clock; the simulation itself is deterministic, so every
        // repeat must produce the same event count.
        let full = move |make: &dyn Fn() -> Box<dyn LaunchController>| -> Vec<Rep> {
            (0..runs)
                .map(|_| {
                    let out = b.run_with(
                        Simulation::builder(cfg.clone())
                            .controller(make())
                            .metrics(metrics)
                            .profile(profile),
                    );
                    (out.report, out.profile)
                })
                .collect()
        };
        jobs.push((
            format!("{}/flat", b.name()),
            Box::new(move || full(&|| Box::new(InlineAll))),
        ));
        jobs.push((
            format!("{}/baseline", b.name()),
            Box::new(move || full(&|| Box::new(BaselineDp::new()))),
        ));
        jobs.push((
            format!("{}/spawn", b.name()),
            Box::new(move || full(&|| Box::new(SpawnPolicy::from_config(cfg)))),
        ));
    }
    println!(
        "# perf (scale {}, seed {}, jobs {}, runs {}, metrics {})",
        scale_name(opts.scale),
        opts.seed,
        opts.jobs,
        runs,
        metrics.as_str()
    );
    println!("{:<28} {:>12} {:>10} {:>12}", "run", "events", "wall_ms", "events/sec");
    let started = std::time::Instant::now();
    let results = par_map(jobs, opts.jobs, |(label, job)| (label, job()));
    let harness_ms = started.elapsed().as_secs_f64() * 1e3;
    // Reduce each job's repeats: bit-identical events are a hard
    // invariant (the simulator is deterministic); the median wall-clock
    // is the reported one, and every repeat's profile is merged.
    let mut merged_profile = ProfileReport::default();
    let mut profiled_wall_ns = 0u64;
    let mut reports: Vec<(String, SimReport)> = Vec::new();
    for (label, reps) in results {
        let events = reps[0].0.events_processed;
        for (r, _) in &reps {
            if r.events_processed != events {
                eprintln!(
                    "perf: {label}: event count varies across repeats \
                     ({events} vs {}) — the simulator is nondeterministic",
                    r.events_processed
                );
                std::process::exit(1);
            }
        }
        for (r, p) in &reps {
            if let Some(p) = p {
                merged_profile.merge(p);
                profiled_wall_ns += (r.wall_ms * 1e6) as u64;
            }
        }
        let mut walls: Vec<f64> = reps.iter().map(|(r, _)| r.wall_ms).collect();
        walls.sort_by(|a, b| a.total_cmp(b));
        let median = walls[walls.len() / 2];
        let (report, _) = reps
            .into_iter()
            .find(|(r, _)| r.wall_ms == median)
            .expect("median came from this list");
        reports.push((label, report));
    }
    let mut total_events = 0u64;
    let mut total_ms = 0.0f64;
    let mut rows = Vec::new();
    for (label, r) in &reports {
        let rate = r.events_per_sec().unwrap_or(0.0);
        println!(
            "{:<28} {:>12} {:>10.1} {:>12.0}",
            label, r.events_processed, r.wall_ms, rate
        );
        total_events += r.events_processed;
        total_ms += r.wall_ms;
        rows.push(Json::obj([
            ("name", Json::str(label.clone())),
            ("events", Json::U64(r.events_processed)),
            ("wall_ms", Json::F64(r.wall_ms)),
            ("events_per_sec", Json::F64(rate)),
        ]));
        if std::env::var_os("DYNAPAR_PERF_DEBUG").is_some() {
            eprintln!(
                "  {label}: l1 {} (hit {:.3}) l2 {} (hit {:.3}) dram {} writes {} \
                 mshr_stalls {} ev_g {} ev_l {} dead_wakeups {}",
                r.mem.l1_accesses,
                r.mem.l1_hit_rate(),
                r.mem.l2_accesses,
                r.mem.l2_hit_rate(),
                r.mem.dram_accesses,
                r.mem.writes,
                r.mem.mshr_stalls,
                r.events_global,
                r.events_local,
                r.dead_wakeups,
            );
        }
    }
    let sim_rate = if total_ms > 0.0 {
        total_events as f64 / (total_ms / 1e3)
    } else {
        0.0
    };
    let wall_rate = if harness_ms > 0.0 {
        total_events as f64 / (harness_ms / 1e3)
    } else {
        0.0
    };
    println!(
        "{:<28} {:>12} {:>10.1} {:>12.0}",
        "TOTAL (in-sim)", total_events, total_ms, sim_rate
    );
    println!(
        "{:<28} {:>12} {:>10.1} {:>12.0}",
        "TOTAL (harness wall)", total_events, harness_ms, wall_rate
    );
    // Geometric mean of the per-run rates: the aggregate rate weights
    // runs by their event counts, so one slow giant dominates it; the
    // geomean tracks proportional changes across the whole suite.
    let geomean = {
        let rates: Vec<f64> = reports
            .iter()
            .filter_map(|(_, r)| r.events_per_sec())
            .filter(|&r| r > 0.0)
            .collect();
        if rates.is_empty() {
            0.0
        } else {
            (rates.iter().map(|r| r.ln()).sum::<f64>() / rates.len() as f64).exp()
        }
    };
    println!("{:<28} {:>12} {:>10} {:>12.0}", "GEOMEAN (per-run)", "", "", geomean);
    let profile_json = if profile {
        let p = &merged_profile;
        let attributed = p.attributed_ns();
        let coverage = p.coverage(profiled_wall_ns);
        println!(
            "# profile ({} runs, {:.1} ms instrumented, coverage {:.4})",
            reports.len() * runs,
            profiled_wall_ns as f64 / 1e6,
            coverage
        );
        println!("{:<12} {:>14} {:>12} {:>8}", "phase", "ns", "count", "share");
        let mut phases = Vec::new();
        for s in &p.phases {
            let share = if attributed > 0 { s.ns as f64 / attributed as f64 } else { 0.0 };
            println!("{:<12} {:>14} {:>12} {:>7.1}%", s.name, s.ns, s.count, share * 100.0);
            phases.push(Json::obj([
                ("name", Json::str(s.name)),
                ("ns", Json::U64(s.ns)),
                ("count", Json::U64(s.count)),
                ("share", Json::F64(share)),
            ]));
        }
        Some(Json::obj([
            ("schema", Json::str(PROFILE_SCHEMA)),
            ("wall_ns", Json::U64(profiled_wall_ns)),
            ("attributed_ns", Json::U64(attributed)),
            ("coverage", Json::F64(coverage)),
            ("phases", Json::Arr(phases)),
        ]))
    } else {
        None
    };
    // The artifact totals use the in-sim aggregate (sum of each
    // simulation's own wall-clock): it is independent of --jobs, so a
    // baseline recorded serially still gates a parallel run. The
    // `profile` section is only present under --profile, so unprofiled
    // artifacts keep the exact historical shape.
    let mut fields = vec![
        ("schema", Json::str(PERF_SCHEMA)),
        ("scale", Json::str(scale_name(opts.scale))),
        ("seed", Json::U64(opts.seed)),
        ("queue", Json::str(QUEUE)),
        ("repeats", Json::U64(runs as u64)),
    ];
    // One canonical hash over everything that defines comparability.
    // The metrics level stays out — gating a `--metrics timeseries` run
    // against an off baseline is the documented way to measure
    // telemetry overhead.
    let config_hash = {
        let preimage = Json::obj([
            ("schema", Json::str("dynapar.perf_config/v1")),
            ("gpu", cfg.to_json()),
            ("scale", Json::str(scale_name(opts.scale))),
            ("seed", Json::U64(opts.seed)),
            ("queue", Json::str(QUEUE)),
            ("sim_jobs", Json::U64(0)),
        ]);
        format!("{:016x}", canonical_json_hash(&preimage))
    };
    fields.push(("config_hash", Json::str(config_hash)));
    fields.extend([
        ("runs", Json::Arr(rows)),
        (
            "total",
            Json::obj([
                ("events", Json::U64(total_events)),
                ("wall_ms", Json::F64(total_ms)),
                ("events_per_sec", Json::F64(sim_rate)),
                ("events_per_sec_geomean", Json::F64(geomean)),
            ]),
        ),
    ]);
    if let Some(p) = profile_json {
        fields.push(("profile", p));
    }
    // Only non-default levels stamp the artifact, so off-level artifacts
    // (like the committed baselines) keep the exact historical shape.
    if metrics != MetricsLevel::Off {
        fields.push(("metrics", Json::str(metrics.as_str())));
    }
    let doc = Json::obj(fields);
    if let Some(path) = &emit_json {
        let text = format!("{}\n", doc.pretty());
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("perf: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
    if let Some(path) = &baseline {
        match gate_against_baseline(path, &doc, max_regress) {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("perf: {msg}");
                std::process::exit(1);
            }
        }
    }
}

/// The fork-point cycle of the `--sweep-fork` workload. Empirically
/// inside the policy-pristine ramp of the 1200×40 warm-ramp workload
/// (the boundary is past cycle 150k of a ~194k-cycle run) while
/// covering well over the 30% floor; the harness re-verifies both
/// facts on every run rather than trusting this constant.
const SWEEP_FORK_WARMUP: u64 = 145_000;

/// Minimum fraction of every policy's total cycles the shared ramp
/// must cover for the amortization claim to be meaningful.
const SWEEP_FORK_MIN_WARM_FRACTION: f64 = 0.30;

/// Minimum cold-sweep / warm-sweep wall-clock ratio.
const SWEEP_FORK_MIN_SPEEDUP: f64 = 1.5;

/// `--sweep-fork`: measures the same four-policy sweep twice — every
/// point cold, then the shared ramp once plus one fork per remaining
/// point — and gates the amortization. Serial by construction: each
/// wall-clock must not be polluted by sibling simulations.
fn run_sweep_fork(
    opts: &Options,
    runs: usize,
    emit_json: Option<&str>,
    baseline: Option<&str>,
    max_regress: f64,
) {
    let cfg = opts.config();
    let b = warm_ramp_spec(1200, 40).build(opts.seed);
    let policies = [
        PolicySpec::Spawn,
        PolicySpec::Dtbl,
        PolicySpec::FreeLaunch,
        PolicySpec::Baseline,
    ];
    let mk = |p: &PolicySpec| {
        Simulation::builder(cfg.clone()).controller(p.controller(
            &cfg,
            b.default_threshold(),
            MetricsLevel::Off,
        ))
    };
    let fail = |msg: &str| -> ! {
        eprintln!("perf: sweep-fork: {msg}");
        std::process::exit(1);
    };
    // Each repeat measures the full cold sweep then the full warm
    // sweep; per-label medians absorb scheduler noise.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); policies.len() * 2];
    let mut events: Vec<u64> = Vec::new();
    let mut cold_cycles: Vec<u64> = Vec::new();
    for rep in 0..runs {
        let mut rep_events = Vec::new();
        let mut rep_cycles = Vec::new();
        for (i, p) in policies.iter().enumerate() {
            let out = b.run_with(mk(p));
            walls[i].push(out.report.wall_ms);
            rep_events.push(out.report.events_processed);
            rep_cycles.push(out.report.total_cycles);
        }
        // Warm sweep: the first policy's run doubles as the shared
        // ramp (arming a snapshot never changes simulated behavior).
        let armed = b.run_with(mk(&policies[0]).snapshot_at(SWEEP_FORK_WARMUP));
        let snap = armed
            .snapshot
            .unwrap_or_else(|| fail("the run finished before the fork cycle"));
        if !snapshot_is_pristine(&snap) {
            fail(&format!(
                "cycle {SWEEP_FORK_WARMUP} is past the policy-independent ramp — \
                 the fork would bake the ramp policy's decisions into every branch"
            ));
        }
        walls[policies.len()].push(armed.report.wall_ms);
        let mut rep_warm_events = vec![armed.report.events_processed];
        for (i, p) in policies.iter().enumerate().skip(1) {
            let out = mk(p)
                .build_resumed(&snap)
                .unwrap_or_else(|e| fail(&format!("resume: {e:?}")))
                .run();
            walls[policies.len() + i].push(out.report.wall_ms);
            rep_warm_events.push(out.report.events_processed);
            if out.report.total_cycles != rep_cycles[i] {
                fail(&format!(
                    "{}: forked run ended at cycle {} but the cold run at {} — \
                     the fork changed simulated behavior",
                    p.label(),
                    out.report.total_cycles,
                    rep_cycles[i]
                ));
            }
        }
        rep_events.extend(rep_warm_events);
        if rep == 0 {
            events = rep_events;
            cold_cycles = rep_cycles;
        } else if events != rep_events {
            fail("event counts vary across repeats — the simulator is nondeterministic");
        }
    }
    for (p, &cycles) in policies.iter().zip(&cold_cycles) {
        let frac = SWEEP_FORK_WARMUP as f64 / cycles as f64;
        if frac < SWEEP_FORK_MIN_WARM_FRACTION {
            fail(&format!(
                "{}: the ramp covers only {:.0}% of the {cycles}-cycle run \
                 (floor {:.0}%) — the workload no longer stresses amortization",
                p.label(),
                frac * 100.0,
                SWEEP_FORK_MIN_WARM_FRACTION * 100.0
            ));
        }
    }
    let median = |w: &[f64]| {
        let mut w = w.to_vec();
        w.sort_by(|a, b| a.total_cmp(b));
        w[w.len() / 2]
    };
    println!(
        "# perf --sweep-fork ({}, seed {}, runs {}, fork at cycle {})",
        b.name(),
        opts.seed,
        runs,
        SWEEP_FORK_WARMUP
    );
    println!("{:<28} {:>12} {:>10} {:>12}", "run", "events", "wall_ms", "events/sec");
    let mut rows = Vec::new();
    let mut total_events = 0u64;
    let mut total_ms = 0.0f64;
    let mut cold_ms = 0.0f64;
    let mut warm_ms = 0.0f64;
    for (slot, w) in walls.iter().enumerate() {
        let (kind, p) = if slot < policies.len() {
            ("cold", &policies[slot])
        } else if slot == policies.len() {
            ("ramp", &policies[0])
        } else {
            ("fork", &policies[slot - policies.len()])
        };
        let label = format!("{kind}/{}", p.label());
        let wall = median(w);
        let ev = events[slot];
        let rate = if wall > 0.0 { ev as f64 / (wall / 1e3) } else { 0.0 };
        println!("{:<28} {:>12} {:>10.1} {:>12.0}", label, ev, wall, rate);
        if slot < policies.len() {
            cold_ms += wall;
        } else {
            warm_ms += wall;
        }
        total_events += ev;
        total_ms += wall;
        rows.push(Json::obj([
            ("name", Json::str(label)),
            ("events", Json::U64(ev)),
            ("wall_ms", Json::F64(wall)),
            ("events_per_sec", Json::F64(rate)),
        ]));
    }
    let speedup = if warm_ms > 0.0 { cold_ms / warm_ms } else { 0.0 };
    println!(
        "{:<28} {:>12} {:>10.1}",
        "COLD SWEEP", "", cold_ms
    );
    println!(
        "{:<28} {:>12} {:>10.1}   ({speedup:.2}x faster warm)",
        "WARM SWEEP (ramp + forks)", "", warm_ms
    );
    if speedup < SWEEP_FORK_MIN_SPEEDUP {
        fail(&format!(
            "warm sweep is only {speedup:.2}x faster than cold \
             (floor {SWEEP_FORK_MIN_SPEEDUP}x) — the fork path lost its amortization"
        ));
    }
    let config_hash = {
        let preimage = Json::obj([
            ("schema", Json::str("dynapar.perf_sweep_fork_config/v1")),
            ("gpu", cfg.to_json()),
            ("seed", Json::U64(opts.seed)),
            ("queue", Json::str(QUEUE)),
            ("sim_jobs", Json::U64(0)),
            ("warmup", Json::U64(SWEEP_FORK_WARMUP)),
        ]);
        format!("{:016x}", canonical_json_hash(&preimage))
    };
    let sim_rate = if total_ms > 0.0 { total_events as f64 / (total_ms / 1e3) } else { 0.0 };
    let doc = Json::obj([
        ("schema", Json::str(PERF_SCHEMA)),
        ("mode", Json::str("sweep-fork")),
        ("seed", Json::U64(opts.seed)),
        ("queue", Json::str(QUEUE)),
        ("repeats", Json::U64(runs as u64)),
        ("warmup_cycle", Json::U64(SWEEP_FORK_WARMUP)),
        ("speedup", Json::F64(speedup)),
        ("config_hash", Json::str(config_hash)),
        ("runs", Json::Arr(rows)),
        (
            "total",
            Json::obj([
                ("events", Json::U64(total_events)),
                ("wall_ms", Json::F64(total_ms)),
                ("events_per_sec", Json::F64(sim_rate)),
            ]),
        ),
    ]);
    if let Some(path) = emit_json {
        let text = format!("{}\n", doc.pretty());
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("perf: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
    if let Some(path) = baseline {
        match gate_against_baseline(path, &doc, max_regress) {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("perf: {msg}");
                std::process::exit(1);
            }
        }
    }
}

/// Compares this run's totals against a previously emitted artifact.
///
/// Fails on: unreadable/mismatched artifact settings, a changed total
/// event count (the event count is a pure function of the simulated
/// behavior, so any drift means the simulation itself changed — that is
/// a correctness signal, not a perf one), or a throughput drop larger
/// than `max_regress`.
fn gate_against_baseline(path: &str, current: &Json, max_regress: f64) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let base = Json::parse(&text).map_err(|e| format!("baseline {path}: {e}"))?;
    // Comparability check: when both artifacts carry a canonical
    // config hash, one comparison covers the full GPU config plus every
    // perf-relevant setting. Baselines that predate the field fall back
    // to the original field-by-field check.
    let hashes = (
        base.get("config_hash").and_then(Json::as_str),
        current.get("config_hash").and_then(Json::as_str),
    );
    if let (Some(b_hash), Some(c_hash)) = hashes {
        if b_hash != c_hash {
            return Err(format!(
                "baseline {path} was recorded under config hash {b_hash}, this run \
                 has {c_hash} — the configs are not comparable; rerun with matching \
                 flags or regenerate via --emit-json"
            ));
        }
    } else {
        for key in ["schema", "scale", "seed", "queue", "sim_jobs"] {
            let (b, c) = (base.get(key), current.get(key));
            if b != c {
                return Err(format!(
                    "baseline {path} was recorded with {key} {}, this run has {} \
                     — rerun with matching flags or regenerate via --emit-json",
                    b.map_or("<missing>".into(), Json::to_string),
                    c.map_or("<missing>".into(), Json::to_string),
                ));
            }
        }
    }
    let total = |doc: &Json, field: &str| {
        doc.get("total").and_then(|t| t.get(field)).and_then(Json::as_f64)
    };
    let b_events = total(&base, "events").ok_or(format!("baseline {path} lacks total.events"))?;
    let c_events = total(current, "events").expect("emitted artifact has totals");
    if b_events != c_events {
        return Err(format!(
            "total event count changed: baseline {b_events}, this run {c_events} \
             — simulated behavior drifted; investigate before regenerating the baseline"
        ));
    }
    let b_rate =
        total(&base, "events_per_sec").ok_or(format!("baseline {path} lacks total rate"))?;
    let c_rate = total(current, "events_per_sec").expect("emitted artifact has totals");
    let floor = b_rate * (1.0 - max_regress);
    if c_rate < floor {
        return Err(format!(
            "throughput regression: {c_rate:.0} events/sec vs baseline {b_rate:.0} \
             (floor {floor:.0} at --max-regress {max_regress})"
        ));
    }
    // The geomean row weights every run equally, so it catches a single
    // benchmark collapsing even when the aggregate rate (dominated by
    // the largest run) hides it. Older baselines may predate the field.
    if let Some(b_geo) = total(&base, "events_per_sec_geomean") {
        let c_geo = total(current, "events_per_sec_geomean").expect("emitted artifact has geomean");
        let geo_floor = b_geo * (1.0 - max_regress);
        if c_geo < geo_floor {
            return Err(format!(
                "geomean regression: {c_geo:.0} events/sec vs baseline {b_geo:.0} \
                 (floor {geo_floor:.0} at --max-regress {max_regress})"
            ));
        }
    }
    Ok(format!(
        "perf gate: {c_rate:.0} events/sec vs baseline {b_rate:.0} (floor {floor:.0}) — ok"
    ))
}

/// Validates the `profile` section of a previously emitted perf
/// artifact: schema tag, non-empty phase table, and coverage ≥ 0.95
/// (the profiler's phases must account for essentially all of the
/// instrumented wall time — a hole means an unattributed hot path).
fn validate_profile_artifact(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let p = doc
        .get("profile")
        .ok_or(format!("{path} has no `profile` section (was it run with --profile?)"))?;
    let schema = p
        .get("schema")
        .and_then(Json::as_str)
        .ok_or(format!("{path}: profile section lacks a schema tag"))?;
    if schema != PROFILE_SCHEMA {
        return Err(format!(
            "{path}: profile schema {schema:?}, expected {PROFILE_SCHEMA:?}"
        ));
    }
    let phases = p
        .get("phases")
        .and_then(Json::as_array)
        .ok_or(format!("{path}: profile section lacks a phases array"))?;
    if phases.is_empty() {
        return Err(format!("{path}: profile phase table is empty"));
    }
    let coverage = p
        .get("coverage")
        .and_then(Json::as_f64)
        .ok_or(format!("{path}: profile section lacks coverage"))?;
    if coverage < 0.95 {
        return Err(format!(
            "{path}: profile coverage {coverage:.4} < 0.95 — \
             a hot path is running outside every named phase"
        ));
    }
    Ok(format!(
        "profile ok: {} phases, coverage {coverage:.4}",
        phases.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal perf artifact; `hash: None` models a baseline emitted
    /// before the `config_hash` field existed.
    fn artifact(scale: &str, hash: Option<&str>, events: u64, rate: f64) -> Json {
        let mut fields = vec![
            ("schema", Json::str(PERF_SCHEMA)),
            ("scale", Json::str(scale)),
            ("seed", Json::U64(7)),
            ("queue", Json::str("wheel")),
        ];
        if let Some(h) = hash {
            fields.push(("config_hash", Json::str(h)));
        }
        fields.push((
            "total",
            Json::obj([
                ("events", Json::U64(events)),
                ("wall_ms", Json::F64(10.0)),
                ("events_per_sec", Json::F64(rate)),
            ]),
        ));
        Json::obj(fields)
    }

    fn write_baseline(name: &str, doc: &Json) -> String {
        let path = std::env::temp_dir().join(format!("dynapar_perf_gate_{name}.json"));
        std::fs::write(&path, format!("{}\n", doc.pretty())).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn gate_refuses_cross_config_comparison_by_hash() {
        // Every legacy field matches; only the hash differs (e.g. the
        // GPU config changed, which the field loop never saw).
        let base = artifact("small", Some("aaaaaaaaaaaaaaaa"), 100, 1000.0);
        let cur = artifact("small", Some("bbbbbbbbbbbbbbbb"), 100, 1000.0);
        let path = write_baseline("hash_mismatch", &base);
        let err = gate_against_baseline(&path, &cur, 0.3).unwrap_err();
        assert!(err.contains("config hash"), "unexpected error: {err}");
        assert!(err.contains("aaaaaaaaaaaaaaaa") && err.contains("bbbbbbbbbbbbbbbb"));
    }

    #[test]
    fn gate_passes_on_matching_hash_and_totals() {
        let base = artifact("small", Some("aaaaaaaaaaaaaaaa"), 100, 1000.0);
        let cur = artifact("small", Some("aaaaaaaaaaaaaaaa"), 100, 950.0);
        let path = write_baseline("hash_match", &base);
        let msg = gate_against_baseline(&path, &cur, 0.3).unwrap();
        assert!(msg.contains("ok"), "unexpected message: {msg}");
    }

    #[test]
    fn gate_falls_back_to_fields_for_old_baselines() {
        // Baseline predates config_hash: the field loop still gates.
        let base = artifact("small", None, 100, 1000.0);
        let ok = artifact("small", Some("aaaaaaaaaaaaaaaa"), 100, 1000.0);
        let path = write_baseline("old_fallback_ok", &base);
        assert!(gate_against_baseline(&path, &ok, 0.3).is_ok());

        let bad = artifact("paper", Some("aaaaaaaaaaaaaaaa"), 100, 1000.0);
        let err = gate_against_baseline(&path, &bad, 0.3).unwrap_err();
        assert!(err.contains("scale"), "unexpected error: {err}");
    }

    #[test]
    fn gate_still_catches_event_drift_and_regression_under_matching_hash() {
        let base = artifact("small", Some("aaaaaaaaaaaaaaaa"), 100, 1000.0);
        let path = write_baseline("drift", &base);
        let drift = artifact("small", Some("aaaaaaaaaaaaaaaa"), 101, 1000.0);
        assert!(gate_against_baseline(&path, &drift, 0.3)
            .unwrap_err()
            .contains("event count changed"));
        let slow = artifact("small", Some("aaaaaaaaaaaaaaaa"), 100, 500.0);
        assert!(gate_against_baseline(&path, &slow, 0.3)
            .unwrap_err()
            .contains("regression"));
    }
}
