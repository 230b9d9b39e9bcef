//! Parallel dispatch must not change results: running the scheme matrix
//! with `jobs = 8` has to produce byte-identical reports to `jobs = 1`.
//!
//! `wall_ms` is the one deliberately nondeterministic field (host timing),
//! so the canonical form zeroes it before comparing Debug renderings.

use dynapar_bench::run_schemes;
use dynapar_core::{Dtbl, SpawnPolicy};
use dynapar_engine::par::par_map;
use dynapar_gpu::{GpuConfig, Json, MetricsLevel, RunArtifact, SimReport, Simulation};
use dynapar_workloads::{suite, Scale};

/// Renders a report with the nondeterministic wall-clock field zeroed.
fn canonical(r: &SimReport) -> String {
    let mut r = r.clone();
    r.wall_ms = 0.0;
    format!("{r:?}")
}

/// Renders each benchmark's full-metrics run artifact, fanning the runs
/// across `jobs` workers.
fn artifact_jsons(jobs: usize) -> Vec<String> {
    artifact_jsons_at(jobs, MetricsLevel::Full)
}

/// Same matrix at an explicit metrics level (the timeseries test reuses it).
fn artifact_jsons_at(jobs: usize, level: MetricsLevel) -> Vec<String> {
    let cfg = GpuConfig::kepler_k20m();
    // AMR is the deepest-nesting workload in the suite; the extra DTBL
    // pass on BFS exercises the aggregated-launch path (child naming,
    // agg-kernel bookkeeping), which plain SPAWN runs never take.
    let names = vec!["GC-citation", "MM-small", "BFS-graph500", "AMR", "BFS-graph500/dtbl"];
    par_map(names, jobs, |name| {
        let (bench_name, dtbl) = match name.strip_suffix("/dtbl") {
            Some(base) => (base, true),
            None => (name, false),
        };
        let bench = suite::by_name(bench_name, Scale::Tiny, suite::DEFAULT_SEED).expect("known");
        let policy: Box<dyn dynapar_gpu::LaunchController> = if dtbl {
            Box::new(Dtbl::new())
        } else {
            Box::new(SpawnPolicy::from_config(&cfg).with_prediction_log())
        };
        let out = bench.run_with(
            Simulation::builder(cfg.clone())
                .controller(policy)
                .trace(100_000)
                .metrics(level),
        );
        format!("{}", out.artifact.expect("full metrics emit an artifact"))
    })
}

#[test]
fn timeseries_artifacts_are_byte_identical_across_jobs() {
    // The telemetry layer samples on the simulated clock, not the host
    // clock, so the `dynapar-timeseries/1` section must be exactly as
    // deterministic as the rest of the artifact: byte-identical across
    // worker counts.
    let serial = artifact_jsons_at(1, MetricsLevel::Timeseries);
    assert_eq!(
        serial,
        artifact_jsons_at(4, MetricsLevel::Timeseries),
        "timeseries artifact differs across job counts"
    );
    for json in &serial {
        assert!(json.contains("\"dynapar-timeseries/1\""));
        let artifact = RunArtifact::parse(json).expect("artifact round-trips");
        assert_eq!(&artifact.to_string(), json, "parse/emit is lossless");
        assert!(artifact.timeseries().is_some());
    }
}

#[test]
fn run_artifacts_are_byte_identical_across_job_counts() {
    // The artifact deliberately excludes `wall_ms`, so no canonicalization
    // is needed: the emitted JSON itself must be byte-stable.
    let serial = artifact_jsons(1);
    let parallel = artifact_jsons(4);
    assert_eq!(serial, parallel, "artifact JSON differs across job counts");
    for json in &serial {
        let artifact = RunArtifact::parse(json).expect("artifact round-trips");
        assert_eq!(&artifact.to_string(), json, "parse/emit is lossless");
        assert!(json.contains("\"ccqs_samples\""));
        assert!(!json.contains("wall_ms"), "artifact must omit host timing");
    }
}

#[test]
fn anchor_maintenance_leaves_no_dead_wakeups() {
    // A wakeup that fires with nothing to do means the per-SMX anchor
    // lists leaked a stale tick; anchor maintenance must be exact.
    let cfg = GpuConfig::kepler_k20m();
    for name in ["GC-citation", "MM-small", "BFS-graph500", "AMR"] {
        let bench = suite::by_name(name, Scale::Tiny, suite::DEFAULT_SEED).expect("known");
        let policy = SpawnPolicy::from_config(&cfg);
        let report = bench.run(&cfg, Box::new(policy));
        assert_eq!(report.dead_wakeups, 0, "{name} leaked dead wakeups");
    }
}

#[test]
fn snapshot_captures_exactly_at_the_requested_cycle() {
    // Pins the capture contract: arming --snapshot-at C captures after
    // exactly the events at time ≤ C, and resuming that container
    // reproduces the uninterrupted artifact byte for byte.
    let cfg = GpuConfig::kepler_k20m();
    let bench = suite::by_name("AMR", Scale::Tiny, suite::DEFAULT_SEED).expect("known");
    let builder = || {
        Simulation::builder(cfg.clone())
            .controller(Box::new(
                SpawnPolicy::from_config(&cfg).with_prediction_log(),
            ))
            .metrics(MetricsLevel::Full)
    };
    let cold = bench.run_with(builder());
    let cold_json = cold.artifact.expect("artifact").to_string();
    let total = cold.report.total_cycles;
    assert!(total > 8, "run long enough for an interior capture cycle");
    // An odd interior cycle.
    let at = total / 2 + 1;
    let armed = bench.run_with(builder().snapshot_at(at));
    assert_eq!(
        armed.artifact.expect("artifact").to_string(),
        cold_json,
        "arming a snapshot must not perturb the run"
    );
    let snap = armed.snapshot.expect("interior cycle captures");
    let (job, _) = dynapar_gpu::parse_snapshot(&snap).expect("well-formed container");
    assert_eq!(job.get("cycle").and_then(Json::as_u64), Some(at));
    let now = job.get("now").and_then(Json::as_u64).expect("now recorded");
    assert!(now <= at, "capture ran past the requested cycle");
    let resumed = builder().build_resumed(&snap).expect("resume").run();
    assert_eq!(
        resumed.artifact.expect("artifact").to_string(),
        cold_json,
        "snapshot/resume round-trip must be byte-identical"
    );
}

#[test]
fn jobs_eight_matches_jobs_one() {
    let cfg = GpuConfig::kepler_k20m();
    for name in ["GC-citation", "MM-small"] {
        let bench = suite::by_name(name, Scale::Tiny, suite::DEFAULT_SEED).expect("known");
        let serial = run_schemes(&bench, &cfg, 1);
        let parallel = run_schemes(&bench, &cfg, 8);
        assert_eq!(serial.name, parallel.name);
        assert_eq!(canonical(&serial.flat), canonical(&parallel.flat), "{name} flat");
        assert_eq!(
            canonical(&serial.baseline),
            canonical(&parallel.baseline),
            "{name} baseline"
        );
        assert_eq!(
            canonical(&serial.spawn),
            canonical(&parallel.spawn),
            "{name} spawn"
        );
        let sp = serial.sweep.points();
        let pp = parallel.sweep.points();
        assert_eq!(sp.len(), pp.len(), "{name} sweep length");
        for (s, p) in sp.iter().zip(pp) {
            assert_eq!(s.threshold, p.threshold, "{name} sweep order");
            assert_eq!(
                canonical(&s.report),
                canonical(&p.report),
                "{name} sweep threshold {}",
                s.threshold
            );
        }
    }
}
