//! Monitored-metric trajectories: `n_con` and pending-queue depth over
//! time for SPAWN against the unthrottled and never-launch extremes
//! (`always`, `free-launch`), one figure per benchmark (default into
//! `results/fig_timeseries_<bench>.svg`).
//!
//! The data comes from the `--metrics timeseries` telemetry layer
//! (artifact section `dynapar-timeseries/1`): SPAWN's windowed `n_con`
//! rides the left axis, each policy's GMU queue depth rides the right
//! axis, so the throttling story — SPAWN bounding the backlog that
//! `always` lets grow — is visible as a picture, not just a geomean.
//!
//! ```sh
//! cargo run --release -p dynapar-bench --bin fig_timeseries -- --scale small
//! ```

use std::fs;
use std::path::PathBuf;

use dynapar_bench::svg::LineChart;
use dynapar_bench::{usage_error, Options};
use dynapar_core::{AlwaysLaunch, FreeLaunch, SpawnPolicy};
use dynapar_gpu::{Json, LaunchController, MetricsLevel, RunArtifact, Simulation};
use dynapar_workloads::{suite, Benchmark};

const BENCHES: [&str; 2] = ["BFS-graph500", "AMR"];

/// Consumes `--out DIR` from the leftovers.
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
                "unknown argument {other:?} (fig_timeseries adds --out DIR)"
            )),
        }
    }
    fs::create_dir_all(&dir).expect("create output directory");
    dir
}

/// Pulls one gauge series out of the artifact's `dynapar-timeseries/1`
/// section as `(cycle, window mean)` points (empty windows skipped).
fn gauge_means(artifact: &RunArtifact, name: &str) -> Vec<(f64, f64)> {
    let Some(ts) = artifact.timeseries() else {
        return Vec::new();
    };
    let Some(series) = ts.get("series").and_then(Json::as_array).and_then(|all| {
        all.iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
    }) else {
        return Vec::new();
    };
    let window = 1u64
        << series
            .get("window_log2")
            .and_then(Json::as_u64)
            .unwrap_or(10);
    let Some(points) = series.get("points").and_then(Json::as_array) else {
        return Vec::new();
    };
    points
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            let mean = p.get("mean")?.as_f64()?;
            Some(((i as u64 * window) as f64, mean))
        })
        .collect()
}

fn run(
    bench: &Benchmark,
    cfg: &dynapar_gpu::GpuConfig,
    ctrl: Box<dyn LaunchController>,
) -> RunArtifact {
    bench
        .run_with(
            Simulation::builder(cfg.clone())
                .controller(ctrl)
                .metrics(MetricsLevel::Timeseries),
        )
        .artifact
        .expect("timeseries level emits an artifact")
}

fn main() {
    let (opts, rest) = Options::parse_known().unwrap_or_else(|e| e.exit());
    let cfg = opts.config();
    let dir = out_dir(rest);
    for name in BENCHES {
        let bench = suite::by_name(name, opts.scale, opts.seed).expect("known benchmark");
        let spawn = run(&bench, &cfg, Box::new(SpawnPolicy::from_config(&cfg)));
        let always = run(&bench, &cfg, Box::new(AlwaysLaunch::new()));
        let free = run(&bench, &cfg, Box::new(FreeLaunch::new()));

        let mut chart = LineChart::new(
            format!("{name} — SPAWN n_con and queue depth over time"),
            "cycle",
            "n_con (child CTAs, windowed mean)",
        );
        chart.series("SPAWN n_con", gauge_means(&spawn, "n_con"));
        chart.secondary_label("pending queue depth (kernels)");
        chart.secondary_series("SPAWN queue", gauge_means(&spawn, "queue_depth"));
        chart.secondary_series("always queue", gauge_means(&always, "queue_depth"));
        chart.secondary_series("free-launch queue", gauge_means(&free, "queue_depth"));
        let p = dir.join(format!("fig_timeseries_{name}.svg"));
        fs::write(&p, chart.render()).expect("write figure");
        println!("wrote {}", p.display());
        eprintln!("fig_timeseries: {name} done");
    }
}
