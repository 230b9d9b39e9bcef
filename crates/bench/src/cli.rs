//! The `dynapar-bench` command line: one argument parse, one shared
//! [`Ctx`], and the dispatch of each named experiment to its writer.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::OnceLock;

use dynapar_gpu::GpuConfig;
use dynapar_workloads::{suite, Benchmark};

use crate::{find, run_suite_schemes, Error, Experiment, Options, SchemeRuns, EXPERIMENTS};

/// What every experiment of one invocation shares: the options, the
/// Table II configuration, and the suite and its three-scheme runs,
/// each built at most once and only when an experiment asks for it.
#[derive(Debug)]
pub struct Ctx {
    /// The shared flags.
    pub opts: Options,
    /// The Table II configuration every experiment starts from.
    pub cfg: GpuConfig,
    /// Where `figures` and `fig_timeseries` write their SVG files.
    pub svg_dir: PathBuf,
    /// The benchmark `diag` dumps.
    pub diag_bench: String,
    suite: OnceLock<Vec<Benchmark>>,
    schemes: OnceLock<Vec<SchemeRuns>>,
}

impl Ctx {
    /// A context that writes SVG files into `results/` and diagnoses
    /// BFS-graph500.
    pub fn new(opts: Options) -> Self {
        Ctx {
            opts,
            cfg: opts.config(),
            svg_dir: PathBuf::from("results"),
            diag_bench: "BFS-graph500".to_string(),
            suite: OnceLock::new(),
            schemes: OnceLock::new(),
        }
    }

    /// All 13 benchmarks at this scale and seed, synthesized once.
    pub fn suite(&self) -> &[Benchmark] {
        self.suite.get_or_init(|| self.opts.suite())
    }

    /// One benchmark by name (the suite's 13 plus its extension inputs).
    pub fn bench(&self, name: &str) -> Result<Benchmark, Error> {
        suite::by_name(name, self.opts.scale, self.opts.seed)
            .ok_or_else(|| Error::UnknownBenchmark(name.to_string()))
    }

    /// Flat, Baseline-DP, the Offline-Search sweep and SPAWN for every
    /// benchmark of [`Ctx::suite`], in suite order, simulated on first
    /// use and shared by every later caller.
    pub fn schemes(&self) -> &[SchemeRuns] {
        self.schemes
            .get_or_init(|| run_suite_schemes(self.suite(), &self.cfg, self.opts.jobs))
    }

    /// One benchmark's entry of [`Ctx::schemes`]; panics if `name` is not
    /// one of the suite's 13 benchmarks.
    pub fn scheme_runs(&self, name: &str) -> &SchemeRuns {
        self.schemes()
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("{name} is not a suite benchmark"))
    }
}

/// A parsed `dynapar-bench` command line.
#[derive(Debug)]
pub struct Invocation {
    opts: Options,
    /// `--out DIR`: write each experiment's text to `DIR/<name>.txt` and
    /// the SVG files into `DIR`.
    out: Option<PathBuf>,
    /// `--bench NAME`: the benchmark `diag` dumps.
    bench: Option<String>,
    experiments: Vec<&'static Experiment>,
}

impl Invocation {
    /// Parses the arguments after the program name. Flags may appear
    /// anywhere; every other argument names an experiment.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, Error> {
        let (opts, rest) = Options::parse(args)?;
        let mut inv = Invocation {
            opts,
            out: None,
            bench: None,
            experiments: Vec::new(),
        };
        let mut rest = rest.into_iter();
        while let Some(arg) = rest.next() {
            let mut value = |msg: &str| rest.next().ok_or(Error::BadValue(msg.into()));
            match arg.as_str() {
                "--out" => inv.out = Some(value("--out expects a directory")?.into()),
                "--bench" => inv.bench = Some(value("--bench expects a benchmark name")?),
                flag if flag.starts_with('-') => return Err(Error::UnknownArgument(arg)),
                name => inv
                    .experiments
                    .push(find(name).ok_or_else(|| Error::UnknownExperiment(arg.clone()))?),
            }
        }
        if inv.experiments.is_empty() {
            return Err(Error::BadValue("name at least one experiment".into()));
        }
        Ok(inv)
    }

    /// Runs every named experiment in order against one shared [`Ctx`],
    /// writing to `stdout` or, with `--out`, to one file per experiment.
    /// Stops at the first error.
    pub fn run(&self, stdout: &mut dyn Write) -> Result<(), Error> {
        let mut cx = Ctx::new(self.opts);
        if let Some(dir) = &self.out {
            fs::create_dir_all(dir).map_err(Error::io_at(dir))?;
            cx.svg_dir = dir.clone();
        }
        if let Some(name) = &self.bench {
            cx.diag_bench = name.clone();
        }
        for exp in &self.experiments {
            let Some(dir) = &self.out else {
                (exp.run)(&cx, stdout)?;
                continue;
            };
            let path = dir.join(format!("{}.txt", exp.name));
            let mut file = BufWriter::new(File::create(&path).map_err(Error::io_at(&path))?);
            (exp.run)(&cx, &mut file)?;
            file.flush().map_err(Error::io_at(&path))?;
            eprintln!("dynapar-bench: wrote {}", path.display());
        }
        Ok(())
    }
}

/// The usage text, listing every experiment of [`EXPERIMENTS`].
pub fn usage() -> String {
    let mut text = String::from(
        "usage: dynapar-bench [--scale tiny|small|paper] [--seed N] [--jobs N] \
         [--out DIR] [--bench NAME] <name>...\n\
         \n\
         Runs each named experiment in order and prints its text; with --out DIR,\n\
         writes DIR/<name>.txt instead. `figures` and `fig_timeseries` write their\n\
         SVG files into DIR (default results/). The experiments built on the\n\
         three-scheme suite share one simulation of it. --scale defaults to paper.\n\
         \n\
         experiments:\n",
    );
    for exp in EXPERIMENTS {
        text.push_str(&format!("  {:<16}{}\n", exp.name, exp.about));
    }
    text
}
