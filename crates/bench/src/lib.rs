//! # dynapar-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (`DESIGN.md` §4 indexes them, `EXPERIMENTS.md`
//! records the results). Each entry of [`EXPERIMENTS`] is a subcommand of
//! the `dynapar-bench` binary (see [`usage`]) that writes
//! machine-grep-friendly rows to a writer. The experiments built on the
//! three-scheme suite share one lazily computed [`Ctx::schemes`].
//!
//! Every simulation is single-threaded and deterministic; `--jobs` only
//! fans *independent* runs (schemes × benchmarks × thresholds) across
//! cores via [`par_map`], so all outputs are bit-identical for any job
//! count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cli;
mod experiments;
pub mod svg;

use std::io::{self, Write};
use std::path::Path;

use dynapar_core::{offline::SweepPoint, BaselineDp, SpawnPolicy, SweepResult};
use dynapar_engine::par::{default_jobs, par_map};
use dynapar_gpu::{GpuConfig, SimReport};
use dynapar_workloads::{suite, Benchmark, Scale};

pub use cli::{usage, Ctx, Invocation};
use experiments::find;
pub use experiments::{Experiment, EXPERIMENTS};

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

/// The Fig. 5 threshold grid for one benchmark: the offload-fraction
/// grid plus the application's own threshold, ascending.
pub(crate) fn offload_grid(bench: &Benchmark) -> Vec<u32> {
    let mut grid = bench.threshold_grid(&SWEEP_FRACTIONS);
    grid.push(bench.default_threshold());
    grid.sort_unstable();
    grid.dedup();
    grid
}

/// The Offline-Search threshold grid for one benchmark: the
/// [`offload_grid`] plus the launch-everything extreme, so
/// Offline-Search can never lose to Baseline-DP by grid omission.
pub fn sweep_grid(bench: &Benchmark) -> Vec<u32> {
    let mut grid = offload_grid(bench);
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
    let mut runs = run_suite_schemes(std::slice::from_ref(bench), cfg, jobs);
    runs.pop().expect("one benchmark in, one out")
}

/// Runs the scheme comparison for every benchmark, flattening the whole
/// `benchmark × scheme` matrix into one job list so the worker pool stays
/// saturated across benchmark boundaries (a per-benchmark fan-out would
/// stall on each benchmark's slowest run).
pub fn run_suite_schemes(benches: &[Benchmark], cfg: &GpuConfig, jobs: usize) -> Vec<SchemeRuns> {
    let per_bench: Vec<Vec<SchemeJob>> = benches.iter().map(scheme_jobs).collect();
    let all: Vec<(&Benchmark, SchemeJob)> = benches
        .iter()
        .zip(&per_bench)
        .flat_map(|(bench, list)| list.iter().map(move |&job| (bench, job)))
        .collect();
    let mut reports =
        par_map(all, jobs, |(bench, job)| run_scheme_job(bench, cfg, job)).into_iter();
    benches
        .iter()
        .zip(per_bench)
        .map(|(bench, list)| {
            let mine = reports.by_ref().take(list.len()).collect();
            collect_schemes(bench, &list, mine)
        })
        .collect()
}

/// Why a harness command failed. Nothing in the harness exits the
/// process: the binary maps these to a message and an exit status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// An argument none of the parsers recognized.
    UnknownArgument(String),
    /// A recognized flag whose value is missing or malformed.
    BadValue(String),
    /// A subcommand name that is not in [`EXPERIMENTS`].
    UnknownExperiment(String),
    /// A benchmark name the suite does not know.
    UnknownBenchmark(String),
    /// Creating, writing or flushing an output failed.
    Io(String),
    /// The scorecard found this many hard claims failing.
    ClaimsFailed(u32),
}

impl Error {
    /// True for command-line mistakes, which the binary answers with the
    /// usage text and exit status 2.
    pub fn is_usage(&self) -> bool {
        matches!(
            self,
            Error::UnknownArgument(_) | Error::BadValue(_) | Error::UnknownExperiment(_)
        )
    }

    /// Wraps an I/O failure on `path` (for `map_err`).
    pub fn io_at(path: &Path) -> impl FnOnce(io::Error) -> Error + '_ {
        move |e| Error::Io(format!("{}: {e}", path.display()))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnknownArgument(arg) => write!(f, "unknown argument {arg:?}"),
            Error::BadValue(msg) | Error::Io(msg) => f.write_str(msg),
            Error::UnknownExperiment(name) => write!(f, "unknown experiment {name:?}"),
            Error::UnknownBenchmark(name) => write!(f, "unknown benchmark {name:?}"),
            Error::ClaimsFailed(n) => write!(f, "scorecard: {n} hard claim(s) failed"),
        }
    }
}

impl std::error::Error for Error {}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

/// Parses a `--metrics` value for harness binaries: case-insensitive,
/// rejecting unknown input with the valid-values list as a typed
/// [`Error`].
pub fn parse_metrics_level(v: &str) -> Result<dynapar_gpu::MetricsLevel, Error> {
    dynapar_gpu::MetricsLevel::parse(v).ok_or_else(|| {
        Error::BadValue(format!(
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

    /// Consumes the shared flags (`--scale`, `--seed`, `--jobs`) from
    /// `args` and returns the other arguments in order, for the caller's
    /// own parsing.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<(Self, Vec<String>), Error> {
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
                            return Err(Error::BadValue(format!(
                                "--scale expects tiny|small|paper, got {other:?}"
                            )))
                        }
                    };
                }
                "--seed" => {
                    let v = args
                        .next()
                        .ok_or(Error::BadValue("--seed expects an integer".into()))?;
                    opts.seed = v.parse().map_err(|_| {
                        Error::BadValue(format!("--seed expects an integer, got {v:?}"))
                    })?;
                }
                "--jobs" => {
                    let v = args
                        .next()
                        .ok_or(Error::BadValue("--jobs expects a positive integer".into()))?;
                    opts.jobs = match v.parse() {
                        Ok(n) if n >= 1 => n,
                        _ => {
                            return Err(Error::BadValue(format!(
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

/// Writes a fixed-width table row.
pub(crate) fn write_row(out: &mut dyn Write, cols: &[String], widths: &[usize]) -> io::Result<()> {
    let cells: Vec<String> = cols
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    writeln!(out, "{}", cells.join("  "))
}

/// Writes a header row followed by a separator.
pub(crate) fn write_header(out: &mut dyn Write, cols: &[&str], widths: &[usize]) -> io::Result<()> {
    write_row(
        out,
        &cols.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    )?;
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    writeln!(out, "{}", "-".repeat(total))
}

/// Formats a ratio as `x.xx`.
pub fn fmt2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats `r`'s speedup over the `flat` run as `x.xx`.
pub(crate) fn fmt_speedup(r: &SimReport, flat: &SimReport) -> String {
    fmt2(r.speedup_over(flat.total_cycles))
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
        assert!(matches!(err, Error::BadValue(_)));
        assert!(
            err.to_string().contains(MetricsLevel::VALID_VALUES),
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
        assert!(matches!(e, Error::BadValue(_)));
        assert!(e.to_string().contains("--scale"));
        let e = Error::UnknownArgument("--frobnicate".into());
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
