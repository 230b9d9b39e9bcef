//! The experiment table: every subcommand of `dynapar-bench`, in the
//! order the usage text lists them.

mod figures;
mod studies;
mod suite;

use std::io::Write;

use crate::{Ctx, Error};

/// One subcommand: its name, a one-line summary, and the function that
/// writes its text.
#[derive(Debug)]
pub struct Experiment {
    /// The subcommand name (also the `results/<name>.txt` stem).
    pub name: &'static str,
    /// One line for the usage text.
    pub about: &'static str,
    /// Writes the experiment's text.
    pub run: fn(&Ctx, &mut dyn Write) -> Result<(), Error>,
}

const fn exp(
    name: &'static str,
    about: &'static str,
    run: fn(&Ctx, &mut dyn Write) -> Result<(), Error>,
) -> Experiment {
    Experiment { name, about, run }
}

/// Every experiment, by name.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    exp("table1", "Table I: benchmarks and their synthetic workloads", studies::table1),
    exp("table2", "Table II: the simulated GPU configuration", studies::table2),
    exp("fig05", "Fig. 5: speedup across each benchmark's threshold sweep", suite::fig05),
    exp("fig06", "Fig. 6: BFS-graph500 CTA concurrency under Baseline-DP", figures::fig06),
    exp("fig07", "Fig. 7: child CTA size sensitivity", figures::fig07),
    exp("fig08", "Fig. 8: one SWQ per child kernel vs per parent CTA", figures::fig08),
    exp("fig12", "Fig. 12: PDF of child CTA execution time", figures::fig12),
    exp("fig15", "Fig. 15: speedup over flat per scheme", suite::fig15),
    exp("fig16", "Fig. 16: SMX occupancy per scheme", suite::fig16),
    exp("fig17", "Fig. 17: L2 hit rate per scheme", suite::fig17),
    exp("fig18", "Fig. 18: child kernels launched per scheme", suite::fig18),
    exp("fig19", "Fig. 19: BFS-graph500 concurrency, Baseline-DP vs SPAWN", figures::fig19),
    exp("fig20", "Fig. 20: CDF of child-kernel launches on BFS-graph500", figures::fig20),
    exp("fig21", "Fig. 21: SPAWN vs DTBL", figures::fig21),
    exp("fig_timeseries", "n_con and queue-depth trajectories (SVG)", figures::fig_timeseries),
    exp("figures", "Figs. 5, 15, 18 and 19 (SVG)", suite::figures),
    exp("ablation", "SPAWN variants and hardware design choices", studies::ablation),
    exp("accuracy", "Eq. 1 predicted vs actual child completion time", studies::accuracy),
    exp("diag", "per-scheme internals of one benchmark (--bench NAME)", studies::diag),
    exp("future", "launch-overhead and HWQ-count sensitivity", studies::future),
    exp("levels", "level-synchronous BFS, one kernel per level", studies::levels),
    exp("matrix", "every launch policy on every benchmark", suite::matrix),
    exp("scorecard", "self-checking verdicts on the paper's claims", suite::scorecard),
    exp("seeds", "headline geomeans across three input seeds", suite::seeds),
];

/// Looks an experiment up by name.
pub(crate) fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}
