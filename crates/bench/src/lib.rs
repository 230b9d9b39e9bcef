//! # dynapar-bench
//!
//! The experiment harness: shared helpers used by the `table*`/`fig*`
//! binaries that regenerate every table and figure of the paper's
//! evaluation (see `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for recorded results).
//!
//! Each binary prints machine-grep-friendly rows to stdout. Common CLI:
//! `--scale tiny|small|paper` (default `paper`), `--seed N`, and
//! `--jobs N` (worker threads for independent simulations; defaults to
//! `DYNAPAR_JOBS` or the machine's core count).
//!
//! Every simulation is single-threaded and deterministic; `--jobs` only
//! fans *independent* runs (schemes × benchmarks × thresholds) across
//! cores via [`par_map`], so all outputs are bit-identical for any job
//! count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod svg;

use dynapar_core::{offline::SweepPoint, BaselineDp, SpawnPolicy, SweepResult};
use dynapar_engine::par::{default_jobs, par_map};
use dynapar_gpu::{GpuConfig, SimReport};
use dynapar_workloads::{suite, Benchmark, Scale};

/// Offload fractions targeted by the Fig. 5 / Offline-Search threshold
/// sweeps (the paper samples 4–7 distribution points per benchmark).
pub const SWEEP_FRACTIONS: [f64; 8] = [0.01, 0.05, 0.15, 0.30, 0.50, 0.70, 0.90, 0.99];

/// Results of running one benchmark under the three headline schemes
/// (plus the sweep that defines Offline-Search).
#[derive(Debug)]
pub struct SchemeRuns {
    /// The benchmark that was run.
    pub name: String,
    /// Flat (non-DP) run — the normalization baseline.
    pub flat: SimReport,
    /// Baseline-DP (the application's own `THRESHOLD`).
    pub baseline: SimReport,
    /// The full offline threshold sweep.
    pub sweep: SweepResult,
    /// SPAWN.
    pub spawn: SimReport,
}

impl SchemeRuns {
    /// Offline-Search's deployed point (best of the sweep).
    pub fn offline_best(&self) -> &SimReport {
        &self.sweep.best().report
    }

    /// `(baseline, offline, spawn)` speedups over flat.
    pub fn speedups(&self) -> (f64, f64, f64) {
        let f = self.flat.total_cycles;
        (
            self.baseline.speedup_over(f),
            self.offline_best().speedup_over(f),
            self.spawn.speedup_over(f),
        )
    }
}

/// One independent simulation of the scheme comparison: which policy to
/// run a benchmark under. A [`SchemeRuns`] is the result of one job per
/// variant of this enum (with one `Threshold` job per sweep grid point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeJob {
    /// Flat (non-DP) run — the normalization baseline.
    Flat,
    /// Baseline-DP with the application's own `THRESHOLD`.
    Baseline,
    /// One Offline-Search sweep point at this fixed threshold.
    Threshold(u32),
    /// SPAWN.
    Spawn,
}

/// The Offline-Search threshold grid for one benchmark: the
/// offload-fraction grid plus the application's own threshold and the
/// launch-everything extreme, so Offline-Search can never lose to
/// Baseline-DP by grid omission.
pub fn sweep_grid(bench: &Benchmark) -> Vec<u32> {
    let mut grid = bench.threshold_grid(&SWEEP_FRACTIONS);
    grid.push(bench.default_threshold());
    grid.push(0);
    grid.sort_unstable();
    grid.dedup();
    grid
}

/// The full job list for one benchmark's scheme comparison, in the order
/// [`collect_schemes`] expects its reports back.
pub fn scheme_jobs(bench: &Benchmark) -> Vec<SchemeJob> {
    let mut jobs = vec![SchemeJob::Flat, SchemeJob::Baseline];
    jobs.extend(sweep_grid(bench).into_iter().map(SchemeJob::Threshold));
    jobs.push(SchemeJob::Spawn);
    jobs
}

/// Runs one scheme job to completion (one full simulation).
pub fn run_scheme_job(bench: &Benchmark, cfg: &GpuConfig, job: SchemeJob) -> SimReport {
    match job {
        SchemeJob::Flat => bench.run_flat(cfg),
        SchemeJob::Baseline => bench.run(cfg, Box::new(BaselineDp::new())),
        SchemeJob::Threshold(t) => bench.run(cfg, Box::new(dynapar_core::FixedThreshold::new(t))),
        SchemeJob::Spawn => bench.run(cfg, Box::new(SpawnPolicy::from_config(cfg))),
    }
}

/// Reassembles the reports of one benchmark's [`scheme_jobs`] (in job
/// order) into a [`SchemeRuns`].
///
/// # Panics
///
/// Panics if `reports` does not match the job list shape.
fn collect_schemes(bench: &Benchmark, jobs: &[SchemeJob], reports: Vec<SimReport>) -> SchemeRuns {
    assert_eq!(jobs.len(), reports.len(), "one report per job");
    let mut flat = None;
    let mut baseline = None;
    let mut spawn = None;
    let mut points = Vec::new();
    for (job, report) in jobs.iter().zip(reports) {
        match *job {
            SchemeJob::Flat => flat = Some(report),
            SchemeJob::Baseline => baseline = Some(report),
            SchemeJob::Threshold(threshold) => points.push(SweepPoint { threshold, report }),
            SchemeJob::Spawn => spawn = Some(report),
        }
    }
    SchemeRuns {
        name: bench.name().to_string(),
        flat: flat.expect("job list contains Flat"),
        baseline: baseline.expect("job list contains Baseline"),
        sweep: SweepResult::from_points(points),
        spawn: spawn.expect("job list contains Spawn"),
    }
}

/// Runs a benchmark under flat, Baseline-DP, the Offline-Search sweep and
/// SPAWN, with identical configuration, fanning the independent
/// simulations across up to `jobs` worker threads. Results are
/// bit-identical for any `jobs` value.
pub fn run_schemes(bench: &Benchmark, cfg: &GpuConfig, jobs: usize) -> SchemeRuns {
    let list = scheme_jobs(bench);
    let reports = par_map(list.clone(), jobs, |job| run_scheme_job(bench, cfg, job));
    collect_schemes(bench, &list, reports)
}

/// Runs the scheme comparison for every benchmark, flattening the whole
/// `benchmark × scheme` matrix into one job list so the worker pool stays
/// saturated across benchmark boundaries (a per-benchmark fan-out would
/// stall on each benchmark's slowest run).
pub fn run_suite_schemes(benches: &[Benchmark], cfg: &GpuConfig, jobs: usize) -> Vec<SchemeRuns> {
    let per_bench: Vec<Vec<SchemeJob>> = benches.iter().map(scheme_jobs).collect();
    let flat_jobs: Vec<(usize, SchemeJob)> = per_bench
        .iter()
        .enumerate()
        .flat_map(|(bi, list)| list.iter().map(move |&j| (bi, j)))
        .collect();
    let mut reports: Vec<std::collections::VecDeque<SimReport>> = benches
        .iter()
        .map(|_| std::collections::VecDeque::new())
        .collect();
    for ((bi, _), report) in flat_jobs
        .iter()
        .zip(par_map(flat_jobs.clone(), jobs, |(bi, job)| {
            run_scheme_job(&benches[bi], cfg, job)
        }))
    {
        reports[*bi].push_back(report);
    }
    benches
        .iter()
        .zip(per_bench)
        .zip(reports)
        .map(|((bench, list), r)| collect_schemes(bench, &list, r.into()))
        .collect()
}

/// Name of the running harness binary, for error messages.
pub fn binary_name() -> String {
    std::env::args()
        .next()
        .as_deref()
        .map(std::path::Path::new)
        .and_then(|p| p.file_stem())
        .and_then(|s| s.to_str())
        .map(str::to_string)
        .unwrap_or_else(|| "dynapar-bench".to_string())
}

/// Prints `msg` (prefixed with the binary's name) plus the shared usage
/// line to stderr and exits with status 2.
pub fn usage_error(msg: &str) -> ! {
    OptionsError::BadValue(msg.to_string()).exit()
}

/// A malformed harness command line.
///
/// Parsing never terminates the process: library callers get the typed
/// error back, and binaries opt into the classic behaviour with
/// [`OptionsError::exit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptionsError {
    /// An argument none of the parsers recognized.
    UnknownArgument(String),
    /// A recognized flag whose value is missing or malformed.
    BadValue(String),
}

impl OptionsError {
    /// The human-readable description (without the binary-name prefix).
    pub fn message(&self) -> String {
        match self {
            OptionsError::UnknownArgument(arg) => format!("unknown argument {arg:?}"),
            OptionsError::BadValue(msg) => msg.clone(),
        }
    }

    /// Prints the error (prefixed with the binary's name) plus the shared
    /// usage line to stderr and exits with status 2 — the conventional
    /// ending for a harness binary's `unwrap_or_else(|e| e.exit())`.
    pub fn exit(self) -> ! {
        let bin = binary_name();
        eprintln!("{bin}: error: {}", self.message());
        eprintln!("{bin}: shared flags: [--scale tiny|small|paper] [--seed N] [--jobs N]");
        std::process::exit(2)
    }
}

impl std::fmt::Display for OptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message())
    }
}

impl std::error::Error for OptionsError {}

/// Parses a `--metrics` value for harness binaries: case-insensitive,
/// rejecting unknown input with the valid-values list as a typed
/// [`OptionsError`] (so library callers can test the error path and
/// binaries can `.unwrap_or_else(|e| e.exit())`).
pub fn parse_metrics_level(v: &str) -> Result<dynapar_gpu::MetricsLevel, OptionsError> {
    dynapar_gpu::MetricsLevel::parse(v).ok_or_else(|| {
        OptionsError::BadValue(format!(
            "--metrics expects {}, got {v:?}",
            dynapar_gpu::MetricsLevel::VALID_VALUES
        ))
    })
}

/// CLI options shared by every harness binary.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Input scale.
    pub scale: Scale,
    /// Generator seed.
    pub seed: u64,
    /// Worker threads for independent simulations ([`par_map`]'s fan-out;
    /// never parallelism inside one simulation).
    pub jobs: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: Scale::Paper,
            seed: suite::DEFAULT_SEED,
            jobs: default_jobs(),
        }
    }
}

impl Options {
    /// Builder-style scale override.
    pub fn with_scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style worker-thread override.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        assert!(jobs >= 1, "jobs must be positive");
        self.jobs = jobs;
        self
    }

    /// Parses `--scale` / `--seed` / `--jobs` from the process arguments.
    /// Any argument not recognized here is an error: binaries that add
    /// their own flags must use [`Options::parse_known`] and reject the
    /// leftovers they don't consume.
    ///
    /// Binaries conventionally end the error path with
    /// `.unwrap_or_else(|e| e.exit())`.
    pub fn from_args() -> Result<Self, OptionsError> {
        let (opts, rest) = Self::parse_known()?;
        if let Some(unknown) = rest.first() {
            return Err(OptionsError::UnknownArgument(unknown.clone()));
        }
        Ok(opts)
    }

    /// Parses the shared flags from the process arguments, returning the
    /// unrecognized arguments in order for the binary's own parsing.
    pub fn parse_known() -> Result<(Self, Vec<String>), OptionsError> {
        Self::parse(std::env::args().skip(1))
    }

    /// Pure parser behind [`Options::from_args`] / [`Options::parse_known`]:
    /// consumes the shared flags from `args`, returns the leftovers.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(Self, Vec<String>), OptionsError> {
        let mut opts = Options::default();
        let mut rest = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    opts.scale = match args.next().as_deref() {
                        Some("tiny") => Scale::Tiny,
                        Some("small") => Scale::Small,
                        Some("paper") => Scale::Paper,
                        other => {
                            return Err(OptionsError::BadValue(format!(
                                "--scale expects tiny|small|paper, got {other:?}"
                            )))
                        }
                    };
                }
                "--seed" => {
                    let v = args
                        .next()
                        .ok_or(OptionsError::BadValue("--seed expects an integer".into()))?;
                    opts.seed = v.parse().map_err(|_| {
                        OptionsError::BadValue(format!("--seed expects an integer, got {v:?}"))
                    })?;
                }
                "--jobs" => {
                    let v = args.next().ok_or(OptionsError::BadValue(
                        "--jobs expects a positive integer".into(),
                    ))?;
                    opts.jobs = match v.parse() {
                        Ok(n) if n >= 1 => n,
                        _ => {
                            return Err(OptionsError::BadValue(format!(
                                "--jobs expects a positive integer, got {v:?}"
                            )))
                        }
                    };
                }
                _ => rest.push(arg),
            }
        }
        Ok((opts, rest))
    }

    /// Builds the Table II configuration for this run.
    pub fn config(&self) -> GpuConfig {
        GpuConfig::kepler_k20m()
    }

    /// All 13 benchmarks at this scale.
    pub fn suite(&self) -> Vec<Benchmark> {
        suite::all(self.scale, self.seed)
    }
}

/// Prints a fixed-width table row.
pub fn print_row(cols: &[String], widths: &[usize]) {
    let cells: Vec<String> = cols
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", cells.join("  "));
}

/// Prints a header row followed by a separator.
pub fn print_header(cols: &[&str], widths: &[usize]) {
    print_row(
        &cols.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

/// Formats a ratio as `x.xx`.
pub fn fmt2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_runs_have_consistent_work() {
        let cfg = GpuConfig::test_small();
        let bench = suite::by_name("GC-citation", Scale::Tiny, 1).expect("known");
        let runs = run_schemes(&bench, &cfg, 1);
        let t = runs.flat.items_total();
        assert_eq!(runs.baseline.items_total(), t);
        assert_eq!(runs.spawn.items_total(), t);
        for p in runs.sweep.points() {
            assert_eq!(p.report.items_total(), t);
        }
        let (b, o, s) = runs.speedups();
        assert!(b > 0.0 && o > 0.0 && s > 0.0);
        // Offline-Search is the best static point of its own sweep.
        let sweep_min = runs
            .sweep
            .points()
            .iter()
            .map(|p| p.report.total_cycles)
            .min()
            .expect("non-empty sweep");
        assert_eq!(runs.offline_best().total_cycles, sweep_min);
    }

    #[test]
    fn metrics_level_parser_is_typed_and_lists_valid_values() {
        use dynapar_gpu::MetricsLevel;
        assert_eq!(parse_metrics_level("off"), Ok(MetricsLevel::Off));
        assert_eq!(
            parse_metrics_level("TIMESERIES"),
            Ok(MetricsLevel::Timeseries),
            "parser is case-insensitive"
        );
        let err = parse_metrics_level("loud").unwrap_err();
        assert!(matches!(err, OptionsError::BadValue(_)));
        assert!(
            err.message().contains(MetricsLevel::VALID_VALUES),
            "error must list valid values: {err}"
        );
    }

    #[test]
    fn options_default() {
        let o = Options::default();
        assert_eq!(o.scale, Scale::Paper);
        assert_eq!(o.seed, suite::DEFAULT_SEED);
        assert!(o.jobs >= 1);
        assert_eq!(o.config().smx_count, 13);
        assert_eq!(o.suite().len(), 13);
    }

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_consumes_shared_flags_and_returns_leftovers() {
        let (o, rest) = Options::parse(v(&[
            "--bench",
            "SSSP-road",
            "--scale",
            "tiny",
            "--jobs",
            "3",
            "--out",
            "x.svg",
            "--seed",
            "9",
        ]))
        .expect("valid");
        assert_eq!(o.scale, Scale::Tiny);
        assert_eq!(o.seed, 9);
        assert_eq!(o.jobs, 3);
        assert_eq!(rest, v(&["--bench", "SSSP-road", "--out", "x.svg"]));
    }

    #[test]
    fn builder_setters_chain() {
        let o = Options::default()
            .with_scale(Scale::Tiny)
            .with_seed(5)
            .with_jobs(2);
        assert_eq!(o.scale, Scale::Tiny);
        assert_eq!(o.seed, 5);
        assert_eq!(o.jobs, 2);
    }

    #[test]
    fn errors_are_typed_and_displayable() {
        let e = Options::parse(v(&["--scale", "huge"])).unwrap_err();
        assert!(matches!(e, OptionsError::BadValue(_)));
        assert!(e.to_string().contains("--scale"));
        let e = OptionsError::UnknownArgument("--frobnicate".into());
        assert!(e.to_string().contains("--frobnicate"));
    }

    #[test]
    fn parse_rejects_malformed_values() {
        assert!(Options::parse(v(&["--scale", "huge"])).is_err());
        assert!(Options::parse(v(&["--scale"])).is_err());
        assert!(Options::parse(v(&["--seed", "abc"])).is_err());
        assert!(Options::parse(v(&["--jobs", "0"])).is_err());
        assert!(Options::parse(v(&["--jobs", "-2"])).is_err());
        assert!(Options::parse(v(&["--jobs"])).is_err());
    }

    #[test]
    fn suite_schemes_match_per_bench_runs() {
        let cfg = GpuConfig::test_small();
        let benches: Vec<Benchmark> = ["GC-citation", "MM-small"]
            .iter()
            .map(|n| suite::by_name(n, Scale::Tiny, 1).expect("known"))
            .collect();
        let all = run_suite_schemes(&benches, &cfg, 2);
        assert_eq!(all.len(), 2);
        for (bench, got) in benches.iter().zip(&all) {
            let solo = run_schemes(bench, &cfg, 1);
            assert_eq!(got.name, solo.name);
            assert_eq!(got.flat.total_cycles, solo.flat.total_cycles);
            assert_eq!(got.baseline.total_cycles, solo.baseline.total_cycles);
            assert_eq!(got.spawn.total_cycles, solo.spawn.total_cycles);
            assert_eq!(got.sweep.points().len(), solo.sweep.points().len());
            for (a, b) in got.sweep.points().iter().zip(solo.sweep.points()) {
                assert_eq!(a.threshold, b.threshold);
                assert_eq!(a.report.total_cycles, b.report.total_cycles);
            }
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt2(1.567), "1.57");
        assert_eq!(pct(0.1234), "12.3%");
    }
}
