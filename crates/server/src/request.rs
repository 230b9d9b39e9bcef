//! The typed job-request API — the single front door to a simulation.
//!
//! A [`JobRequest`] is everything needed to run one simulation and emit
//! its [`RunArtifact`]: a workload reference, a policy, a seed, a
//! metrics level, and a GPU preset. The CLI's `run` subcommand and the daemon's `submit`
//! request both construct this type and both execute through
//! [`JobRequest::run`], so a `dynapar run` and a server submit with
//! equal configs produce *byte-identical* artifacts — that identity is
//! what makes config-hash memoization sound, and it is pinned by the
//! protocol test-suite and the CI smoke.

use dynapar_core::PolicySpec;
use dynapar_engine::fnv1a_64;
use dynapar_engine::json::Json;
use dynapar_gpu::{
    CanonicalConfig, GpuConfig, MetricsLevel, RunArtifact, RunOutcome, SimWindow, Simulation,
    SimulationBuilder,
};
use dynapar_workloads::{suite, Benchmark, BenchmarkSpec, Scale};

/// A named GPU configuration preset.
///
/// The wire protocol carries presets (not raw config trees) so the
/// canonical hash always describes a config the binary can actually
/// instantiate; the full [`GpuConfig`] still enters the hash preimage
/// via [`CanonicalConfig`], so a preset whose *meaning* changes across
/// versions changes the hash too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GpuPreset {
    /// Tesla K20m (Table II) — the paper's machine and the default.
    #[default]
    KeplerK20m,
    /// The forward-looking Pascal-like variant.
    PascalLike,
    /// The tiny test machine (unit tests only).
    TestSmall,
}

impl GpuPreset {
    /// Canonical wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            GpuPreset::KeplerK20m => "kepler-k20m",
            GpuPreset::PascalLike => "pascal-like",
            GpuPreset::TestSmall => "test-small",
        }
    }

    /// Parses the canonical spelling (inverse of [`name`](GpuPreset::name)).
    pub fn parse(s: &str) -> Option<GpuPreset> {
        match s {
            "kepler-k20m" => Some(GpuPreset::KeplerK20m),
            "pascal-like" => Some(GpuPreset::PascalLike),
            "test-small" => Some(GpuPreset::TestSmall),
            _ => None,
        }
    }

    /// Instantiates the preset.
    pub fn config(self) -> GpuConfig {
        match self {
            GpuPreset::KeplerK20m => GpuConfig::kepler_k20m(),
            GpuPreset::PascalLike => GpuConfig::pascal_like(),
            GpuPreset::TestSmall => GpuConfig::test_small(),
        }
    }
}

/// Which workload a job runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadRef {
    /// A Table I suite benchmark at a scale preset.
    Suite {
        /// Benchmark name (one of [`suite::NAMES`]).
        bench: String,
        /// Input-size preset.
        scale: Scale,
    },
    /// A benchmark described by an inline spec file (the
    /// [`BenchmarkSpec`] plain-text format, shipped in the request).
    Spec {
        /// The spec file's full text.
        text: String,
    },
}

impl WorkloadRef {
    /// The canonical workload identity string: `suite:NAME@SCALE` or
    /// `spec:HASH` (16-hex FNV-1a of the spec text). This is the
    /// `workload` member of [`CanonicalConfig`].
    pub fn canonical_id(&self) -> String {
        match self {
            WorkloadRef::Suite { bench, scale } => format!("suite:{bench}@{}", scale.name()),
            WorkloadRef::Spec { text } => format!("spec:{:016x}", fnv1a_64(text.as_bytes())),
        }
    }

    /// Builds the workload.
    ///
    /// # Errors
    ///
    /// Unknown suite benchmark names and spec parse errors (with line
    /// numbers) are reported as strings ready for the wire.
    pub fn build(&self, seed: u64) -> Result<Benchmark, String> {
        match self {
            WorkloadRef::Suite { bench, scale } => suite::by_name(bench, *scale, seed)
                .ok_or_else(|| format!("unknown benchmark {bench:?}; one of {:?}", suite::NAMES)),
            WorkloadRef::Spec { text } => Ok(BenchmarkSpec::parse(text)
                .map_err(|e| format!("spec: {e}"))?
                .build(seed)),
        }
    }
}

/// One simulation job: the request both the CLI and the daemon execute.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The workload to run.
    pub workload: WorkloadRef,
    /// The launch policy.
    pub policy: PolicySpec,
    /// Workload-generator seed.
    pub seed: u64,
    /// Metrics level. `Off` produces no artifact, so the daemon rejects
    /// it at submit time; the CLI only routes artifact-producing runs
    /// through [`JobRequest::artifact`].
    pub metrics: MetricsLevel,
    /// GPU preset.
    pub gpu: GpuPreset,
    /// The v1 `sim_jobs` wire key. Accepted, validated (≥ 1) and echoed
    /// for v1 compatibility, but without effect: every simulation runs
    /// on the one event loop. Not part of
    /// [`canonical`](JobRequest::canonical), so a submit carrying it
    /// hits the memo entry of the same job without it.
    pub sim_jobs: Option<usize>,
    /// The v1 `sim_window` wire key; accepted, validated and echoed
    /// like `sim_jobs`, and likewise without effect.
    pub sim_window: SimWindow,
}

impl JobRequest {
    /// The canonical run identity (see [`CanonicalConfig`] for what is
    /// included and what is deliberately left out).
    pub fn canonical(&self) -> CanonicalConfig {
        CanonicalConfig {
            gpu: self.gpu.config(),
            workload: self.workload.canonical_id(),
            policy: self.policy.label(),
            seed: self.seed,
            metrics: self.metrics,
        }
    }

    /// Shorthand for `canonical().canonical_hash()`.
    pub fn canonical_hash(&self) -> u64 {
        self.canonical().canonical_hash()
    }

    /// Runs the job on `bench`, the workload already built from
    /// `self.workload` and `self.seed` (see [`WorkloadRef::build`]), and
    /// returns the full outcome (report, optional trace, snapshot and
    /// artifact). Taking the built workload lets a caller synthesize it
    /// once for every run that shares it: a CLI run's header and its
    /// simulation, every point of a sweep.
    ///
    /// The job fixes what the run *is* — workload, policy, metrics
    /// level, GPU — on a [`SimulationBuilder`]; `configure` then adds
    /// what the caller wants to *watch*: `.trace(..)`, `.snapshot_at(..)`,
    /// `.watch(..)`. None of those enter the canonical identity, because
    /// none changes an artifact byte. The builder always carries the
    /// job's warm-up identity as snapshot metadata, which only a
    /// snapshot capture reads.
    ///
    /// With `resume`, the run continues from those snapshot bytes
    /// (captured by an armed run sharing this job's warm-up identity)
    /// instead of starting at cycle zero; the resumed artifact is
    /// byte-identical to the cold run's.
    ///
    /// # Errors
    ///
    /// Snapshot decode/compatibility errors on resume (callers fall back
    /// to a cold run).
    pub fn run(
        &self,
        bench: &Benchmark,
        resume: Option<&[u8]>,
        configure: impl FnOnce(SimulationBuilder) -> SimulationBuilder,
    ) -> Result<RunOutcome, String> {
        let cfg = self.gpu.config();
        let controller = self
            .policy
            .controller(&cfg, bench.default_threshold(), self.metrics);
        let builder = configure(
            Simulation::builder(cfg)
                .controller(controller)
                .metrics(self.metrics)
                .snapshot_meta(self.warmup_meta()),
        );
        match resume {
            None => Ok(bench.run_with(builder)),
            Some(snapshot) => Ok(builder
                .build_resumed(snapshot)
                .map_err(|e| format!("snapshot resume: {e}"))?
                .run()),
        }
    }

    /// The warm-up identity attached to armed snapshots as metadata:
    /// enough for a human (or a test) to see which ramp a snapshot
    /// belongs to. Informational only — compatibility is enforced by
    /// the snapshot container itself.
    fn warmup_meta(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.canonical_id())),
            ("gpu", Json::str(self.gpu.name())),
            ("seed", Json::U64(self.seed)),
            ("warmup_hash", Json::str(self.canonical().warmup_hex())),
        ])
    }

    /// Runs the job and returns its artifact — the daemon's execution
    /// path (and the byte-identity reference for the CLI's).
    ///
    /// # Errors
    ///
    /// Workload errors, plus `metrics: off` (no artifact to return).
    pub fn artifact(&self) -> Result<RunArtifact, String> {
        let bench = self.workload.build(self.seed)?;
        self.run(&bench, None, |b| b)?.artifact.ok_or_else(|| {
            "metrics level `off` produces no artifact; use summary|full|timeseries".to_string()
        })
    }

    /// Renders the request in its wire form (the `job` object of a
    /// `submit` request). [`from_json`](JobRequest::from_json)
    /// round-trips it.
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(&str, Json)> = Vec::new();
        match &self.workload {
            WorkloadRef::Suite { bench, scale } => {
                members.push(("bench", Json::str(bench.clone())));
                members.push(("scale", Json::str(scale.name())));
            }
            WorkloadRef::Spec { text } => members.push(("spec", Json::str(text.clone()))),
        }
        members.push(("policy", Json::str(self.policy.label())));
        members.push(("seed", Json::U64(self.seed)));
        members.push(("metrics", Json::str(self.metrics.as_str())));
        members.push(("gpu", Json::str(self.gpu.name())));
        if let Some(n) = self.sim_jobs {
            members.push(("sim_jobs", Json::U64(n as u64)));
        }
        if let SimWindow::Fixed(n) = self.sim_window {
            members.push(("sim_window", Json::U64(n)));
        }
        Json::obj(members)
    }

    /// Parses the wire form. Strict: every key is validated, unknown
    /// keys are rejected by name (a typoed key must never silently run
    /// a default config), and exactly one of `bench`/`spec` is required.
    ///
    /// Defaults for omitted keys: `scale` paper, `seed` the suite
    /// default, `metrics` full, `gpu` kepler-k20m. The v1 keys
    /// `sim_jobs` and `sim_window` are still accepted (each must be an
    /// integer ≥ 1) and echoed, but have no effect.
    ///
    /// # Errors
    ///
    /// A message naming the offending key.
    pub fn from_json(doc: &Json) -> Result<JobRequest, String> {
        let members = doc
            .as_object()
            .ok_or_else(|| "job must be a JSON object".to_string())?;
        const KNOWN: [&str; 7] = ["bench", "scale", "spec", "policy", "seed", "metrics", "gpu"];
        for (k, _) in members {
            if !KNOWN.contains(&k.as_str()) && k != "sim_jobs" && k != "sim_window" {
                return Err(format!("unknown job key {k:?}"));
            }
        }
        let str_key = |key: &str| -> Result<Option<&str>, String> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(Some)
                    .ok_or_else(|| format!("job key {key:?} must be a string")),
            }
        };
        let u64_key = |key: &str| -> Result<Option<u64>, String> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("job key {key:?} must be a non-negative integer")),
            }
        };

        let bench = str_key("bench")?;
        let spec = str_key("spec")?;
        let workload = match (bench, spec) {
            (Some(b), None) => {
                let scale = match str_key("scale")? {
                    None => Scale::Paper,
                    Some(s) => Scale::parse(s)
                        .ok_or_else(|| format!("bad scale {s:?}; expected tiny|small|paper"))?,
                };
                WorkloadRef::Suite {
                    bench: b.to_string(),
                    scale,
                }
            }
            (None, Some(text)) => {
                if doc.get("scale").is_some() {
                    return Err("`scale` only applies to `bench` jobs, not `spec` jobs".into());
                }
                WorkloadRef::Spec {
                    text: text.to_string(),
                }
            }
            (Some(_), Some(_)) => return Err("job has both `bench` and `spec`; pick one".into()),
            (None, None) => return Err("job needs `bench` or `spec`".into()),
        };
        let policy = match str_key("policy")? {
            Some(p) => PolicySpec::parse(p)?,
            None => return Err("job needs `policy`".into()),
        };
        let metrics = match str_key("metrics")? {
            None => MetricsLevel::Full,
            Some(m) => MetricsLevel::parse(m).ok_or_else(|| {
                format!("bad metrics {m:?}; expected {}", MetricsLevel::VALID_VALUES)
            })?,
        };
        let gpu = match str_key("gpu")? {
            None => GpuPreset::KeplerK20m,
            Some(g) => GpuPreset::parse(g).ok_or_else(|| {
                format!("bad gpu {g:?}; expected kepler-k20m|pascal-like|test-small")
            })?,
        };
        let sim_jobs = match u64_key("sim_jobs")? {
            None => None,
            Some(0) => return Err("job key \"sim_jobs\" must be at least 1".into()),
            Some(n) => Some(n as usize),
        };
        let sim_window = match u64_key("sim_window")? {
            None => SimWindow::Auto,
            Some(0) => return Err("job key \"sim_window\" must be at least 1".into()),
            Some(n) => SimWindow::Fixed(n),
        };
        Ok(JobRequest {
            workload,
            policy,
            seed: u64_key("seed")?.unwrap_or(suite::DEFAULT_SEED),
            metrics,
            gpu,
            sim_jobs,
            sim_window,
        })
    }
}

/// A threshold/policy sweep: one base job re-run under many policies.
///
/// The CLI `sweep` subcommand and the daemon's `sweep` request both
/// expand through [`SweepRequest::expand`], so the per-point configs —
/// and therefore the memo keys — are identical on both paths: a CLI
/// sweep warms the daemon's cache point by point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// The job every point shares (its `policy` is replaced per point).
    pub base: JobRequest,
    /// The policies to run, in order.
    pub policies: Vec<PolicySpec>,
    /// Warm-start fork point: when set, the daemon simulates the shared
    /// ramp once up to this cycle and forks every point from the
    /// snapshot instead of re-simulating the ramp per point. Pure
    /// optimization — per-point artifacts (and memo keys) are
    /// byte-identical either way, so omitting it only costs time.
    pub fork_warmup: Option<u64>,
}

impl SweepRequest {
    /// One [`JobRequest`] per policy, in input order.
    pub fn expand(&self) -> Vec<JobRequest> {
        self.policies
            .iter()
            .map(|p| JobRequest {
                policy: p.clone(),
                ..self.base.clone()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynapar_gpu::WatchSample;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn tiny_req() -> JobRequest {
        JobRequest {
            workload: WorkloadRef::Suite {
                bench: "AMR".into(),
                scale: Scale::Tiny,
            },
            policy: PolicySpec::Spawn,
            seed: 7,
            metrics: MetricsLevel::Full,
            gpu: GpuPreset::KeplerK20m,
            sim_jobs: None,
            sim_window: SimWindow::Auto,
        }
    }

    #[test]
    fn wire_form_round_trips() {
        let req = tiny_req();
        let back = JobRequest::from_json(&req.to_json()).expect("round-trip");
        assert_eq!(back, req);
        let mut req = tiny_req();
        req.sim_jobs = Some(4);
        req.workload = WorkloadRef::Spec {
            text: "name demo\napp bfs\n".into(),
        };
        let back = JobRequest::from_json(&req.to_json()).expect("spec round-trip");
        assert_eq!(back, req);
    }

    #[test]
    fn from_json_rejects_unknown_keys_and_bad_shapes() {
        let bad = Json::parse(r#"{"bench":"AMR","policy":"spawn","bencch":"AMR"}"#).unwrap();
        let err = JobRequest::from_json(&bad).unwrap_err();
        assert!(err.contains("bencch"), "names the key: {err}");
        for (text, needle) in [
            (r#"{"policy":"spawn"}"#, "bench"),
            (r#"{"bench":"AMR","spec":"x","policy":"spawn"}"#, "pick one"),
            (r#"{"bench":"AMR"}"#, "policy"),
            (r#"{"bench":"AMR","policy":"warp9"}"#, "unknown policy"),
            (
                r#"{"bench":"AMR","policy":"spawn","scale":"huge"}"#,
                "bad scale",
            ),
            (r#"{"bench":"AMR","policy":"spawn","seed":"x"}"#, "seed"),
            (
                r#"{"bench":"AMR","policy":"spawn","sim_jobs":0}"#,
                "sim_jobs",
            ),
            (
                r#"{"spec":"name x","policy":"spawn","scale":"tiny"}"#,
                "only applies",
            ),
            (r#"[1]"#, "object"),
        ] {
            let doc = Json::parse(text).unwrap();
            let err = JobRequest::from_json(&doc).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn sim_window_rides_the_wire_but_not_the_identity() {
        // Auto is the default and stays off the wire; an explicit width
        // is echoed so a v1 request round-trips.
        let auto = tiny_req();
        assert!(
            !auto.to_json().to_string().contains("sim_window"),
            "Auto must serialize to nothing"
        );
        let mut fixed = tiny_req();
        fixed.sim_window = SimWindow::Fixed(8);
        assert!(fixed.to_json().to_string().contains("\"sim_window\":8"));
        let back = JobRequest::from_json(&fixed.to_json()).expect("round-trip");
        assert_eq!(back, fixed);
        // Like sim_jobs, the key has no effect, so it must not split the
        // memo key.
        assert_eq!(auto.canonical_hash(), fixed.canonical_hash());
        let bad = Json::parse(r#"{"bench":"AMR","policy":"spawn","sim_window":0}"#).unwrap();
        let err = JobRequest::from_json(&bad).unwrap_err();
        assert!(err.contains("sim_window"), "{err}");
    }

    #[test]
    fn canonical_identity_ignores_sim_jobs() {
        let seq = tiny_req();
        let mut with_key = tiny_req();
        with_key.sim_jobs = Some(4);
        assert_eq!(seq.canonical_hash(), with_key.canonical_hash());
        let mut other = tiny_req();
        other.seed += 1;
        assert_ne!(seq.canonical_hash(), other.canonical_hash());
        let mut other = tiny_req();
        other.gpu = GpuPreset::TestSmall;
        assert_ne!(seq.canonical_hash(), other.canonical_hash());
    }

    #[test]
    fn sim_jobs_key_leaves_artifacts_unchanged() {
        let plain = tiny_req().artifact().expect("plain");
        let mut with_key = tiny_req();
        with_key.sim_jobs = Some(4);
        let keyed = with_key.artifact().expect("with sim_jobs");
        assert_eq!(plain.to_string(), keyed.to_string());
    }

    #[test]
    fn sweep_expands_in_order_with_base_fields() {
        let sweep = SweepRequest {
            base: tiny_req(),
            policies: vec![PolicySpec::Flat, PolicySpec::Threshold(8)],
            fork_warmup: None,
        };
        let jobs = sweep.expand();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].policy, PolicySpec::Flat);
        assert_eq!(jobs[1].policy, PolicySpec::Threshold(8));
        assert_eq!(jobs[1].seed, sweep.base.seed);
        assert_eq!(jobs[1].workload, sweep.base.workload);
    }

    #[test]
    fn armed_and_forked_runs_match_cold_artifacts() {
        let req = tiny_req();
        let bench = req.workload.build(req.seed).expect("workload");
        let cold_out = req.run(&bench, None, |b| b).expect("cold");
        let cold = cold_out.artifact.expect("artifact").to_string();
        let warmup = cold_out.report.total_cycles / 2;
        assert!(warmup > 0, "tiny run long enough to split");

        // Armed run: identical artifact, plus captured snapshot bytes.
        let armed = req
            .run(&bench, None, |b| b.snapshot_at(warmup))
            .expect("armed");
        assert_eq!(armed.artifact.expect("artifact").to_string(), cold);
        let snap = armed.snapshot.expect("snapshot captured mid-run");

        // Same-identity fork resumes and reproduces the cold bytes.
        let forked = req.run(&bench, Some(&snap), |b| b).expect("forked");
        assert_eq!(forked.artifact.expect("artifact").to_string(), cold);

        // Garbage bytes are rejected, not misinterpreted.
        let err = req.run(&bench, Some(b"not a snapshot"), |b| b).unwrap_err();
        assert!(err.contains("snapshot"), "names the failure: {err}");
    }

    #[test]
    fn watch_hook_is_byte_invisible() {
        let req = tiny_req();
        let plain = req.artifact().expect("plain");
        let progress = Arc::new(AtomicU64::new(0));
        let seen = progress.clone();
        let bench = req.workload.build(req.seed).expect("workload");
        let out = req
            .run(&bench, None, |b| {
                b.watch(Arc::new(move |s: WatchSample| {
                    seen.store(s.now, Ordering::Relaxed)
                }))
            })
            .expect("watched");
        let watched = out.artifact.expect("artifact");
        assert_eq!(plain.to_string(), watched.to_string());
        assert!(progress.load(Ordering::Relaxed) > 0, "hook saw progress");
    }
}
