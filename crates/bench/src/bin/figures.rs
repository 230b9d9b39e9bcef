//! Renders the key figures as SVG files (default into `results/`):
//! Fig. 5 sweeps, Fig. 15 speedups, Fig. 18 kernel counts, and the
//! Fig. 19 concurrency timelines.
//!
//! ```sh
//! cargo run --release -p dynapar-bench --bin figures -- --scale paper
//! ```

use std::fs;
use std::path::PathBuf;

use dynapar_bench::svg::{BarChart, LineChart};
use dynapar_bench::{run_suite_schemes, usage_error, Options, SWEEP_FRACTIONS};
use dynapar_core::{offline, BaselineDp, SpawnPolicy};
use dynapar_gpu::SimReport;
use dynapar_workloads::suite;

/// Consumes `--out DIR` from the leftovers; any other leftover argument
/// is an error.
fn out_dir(rest: Vec<String>) -> PathBuf {
    let mut dir = PathBuf::from("results");
    let mut args = rest.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(d) => dir = PathBuf::from(d),
                None => usage_error("--out expects a directory"),
            },
            other => usage_error(&format!(
                "unknown argument {other:?} (figures adds --out DIR)"
            )),
        }
    }
    fs::create_dir_all(&dir).expect("create output directory");
    dir
}

type Series = Vec<(f64, f64)>;

fn timeline_series(r: &SimReport) -> (Series, Series) {
    let parents = r
        .timeline
        .iter()
        .map(|&(t, s)| (t as f64, s.parent_ctas as f64))
        .collect();
    let children = r
        .timeline
        .iter()
        .map(|&(t, s)| (t as f64, s.child_ctas as f64))
        .collect();
    (parents, children)
}

fn main() {
    let (opts, rest) = Options::parse_known().unwrap_or_else(|e| e.exit());
    let cfg = opts.config();
    let dir = out_dir(rest);
    let mut written = Vec::new();

    // --- Fig. 15 / 18: run the three schemes across the suite once. ---
    let mut cats = Vec::new();
    let mut base_speedup = Vec::new();
    let mut offl_speedup = Vec::new();
    let mut spawn_speedup = Vec::new();
    let mut base_kernels = Vec::new();
    let mut offl_kernels = Vec::new();
    let mut spawn_kernels = Vec::new();
    for runs in run_suite_schemes(&opts.suite(), &cfg, opts.jobs) {
        let (b, o, s) = runs.speedups();
        cats.push(runs.name.clone());
        base_speedup.push(b);
        offl_speedup.push(o);
        spawn_speedup.push(s);
        base_kernels.push(runs.baseline.child_kernels_launched as f64);
        offl_kernels.push(runs.offline_best().child_kernels_launched as f64);
        spawn_kernels.push(runs.spawn.child_kernels_launched as f64);
        eprintln!("figures: {} done", runs.name);
    }
    let mut fig15 = BarChart::new("Fig. 15 — speedup over flat (non-DP)", "speedup");
    fig15.categories(cats.clone());
    fig15.series("Baseline-DP", base_speedup);
    fig15.series("Offline-Search", offl_speedup);
    fig15.series("SPAWN", spawn_speedup);
    fig15.reference_line(1.0);
    let p = dir.join("fig15.svg");
    fs::write(&p, fig15.render()).expect("write fig15.svg");
    written.push(p);

    let mut fig18 = BarChart::new("Fig. 18 — child kernels launched", "kernels");
    fig18.categories(cats);
    fig18.series("Baseline-DP", base_kernels);
    fig18.series("Offline-Search", offl_kernels);
    fig18.series("SPAWN", spawn_kernels);
    let p = dir.join("fig18.svg");
    fs::write(&p, fig18.render()).expect("write fig18.svg");
    written.push(p);

    // --- Fig. 5: sweeps for four contrasting benchmarks. ---
    let mut fig05 = LineChart::new(
        "Fig. 5 — speedup vs workload offloaded (%)",
        "% of workload offloaded",
        "speedup over flat",
    );
    for name in ["BFS-graph500", "AMR", "SA-thaliana", "MM-small"] {
        let bench = suite::by_name(name, opts.scale, opts.seed).expect("known");
        let flat = bench.run_flat(&cfg);
        let mut grid = bench.threshold_grid(&SWEEP_FRACTIONS);
        grid.push(bench.default_threshold());
        grid.sort_unstable();
        grid.dedup();
        let sweep = offline::sweep_par(&grid, opts.jobs, |policy| bench.run(&cfg, policy));
        let mut pts: Vec<(f64, f64)> = sweep
            .points()
            .iter()
            .map(|pt| {
                (
                    pt.offload_fraction() * 100.0,
                    pt.report.speedup_over(flat.total_cycles),
                )
            })
            .collect();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        fig05.series(name, pts);
        eprintln!("figures: sweep {name} done");
    }
    let p = dir.join("fig05.svg");
    fs::write(&p, fig05.render()).expect("write fig05.svg");
    written.push(p);

    // --- Fig. 19: BFS-graph500 timelines under Baseline-DP and SPAWN. ---
    let bench = suite::by_name("BFS-graph500", opts.scale, opts.seed).expect("known");
    let base = bench.run(&cfg, Box::new(BaselineDp::new()));
    let spawn = bench.run(&cfg, Box::new(SpawnPolicy::from_config(&cfg)));
    let (bp, bc) = timeline_series(&base);
    let (sp, sc) = timeline_series(&spawn);
    let mut fig19 = LineChart::new(
        "Fig. 19 — BFS-graph500 concurrent CTAs over time",
        "cycle",
        "concurrent CTAs",
    );
    fig19.series("baseline parents", bp);
    fig19.series("baseline children", bc);
    fig19.series("SPAWN parents", sp);
    fig19.series("SPAWN children", sc);
    let p = dir.join("fig19.svg");
    fs::write(&p, fig19.render()).expect("write fig19.svg");
    written.push(p);

    for p in written {
        println!("wrote {}", p.display());
    }
}
