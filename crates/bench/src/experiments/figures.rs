//! The experiments that need only a few runs of their own: Figs. 6–8,
//! 12 and 19–21, and the telemetry trajectories.

use std::fs;
use std::io::Write;

use dynapar_core::{offline, AlwaysLaunch, BaselineDp, Dtbl, FreeLaunch, SpawnPolicy};
use dynapar_engine::stats::{Cdf, Histogram};
use dynapar_gpu::{
    Json, LaunchController, MetricsLevel, RunArtifact, SimReport, Simulation, StreamPolicy,
};

use crate::svg::LineChart;
use crate::{fmt_speedup, offload_grid, pct, write_header, write_row, Ctx, Error};

/// Fig. 6: CTA concurrency and resource utilization over the execution of
/// BFS-graph500 under Baseline-DP.
pub fn fig06(cx: &Ctx, out: &mut dyn Write) -> Result<(), Error> {
    let max = cx.cfg.max_concurrent_ctas();
    let r = cx
        .bench("BFS-graph500")?
        .run(&cx.cfg, Box::new(BaselineDp::new()));
    writeln!(
        out,
        "# Fig. 6 — BFS-graph500 Baseline-DP timeline (max CTAs = {max})\n\
         {:>12} {:>8} {:>8} {:>8} {:>6}",
        "cycle", "parent", "child", "total", "util"
    )?;
    let stride = (r.timeline.len() / 60).max(1);
    for (t, s) in r.timeline.iter().step_by(stride) {
        let (p, c, n, u) = (s.parent_ctas, s.child_ctas, s.total_ctas(), s.utilization);
        writeln!(out, "{t:>12} {p:>8} {c:>8} {n:>8} {u:>6.2}")?;
    }
    let peak = r.timeline.iter().map(|(_, s)| s.total_ctas()).max();
    writeln!(
        out,
        "# peak concurrent CTAs {} of {max}\n\
         # paper: parents first, child CTAs rise to the hardware limit, then\n\
         # fluctuate low once only lightweight children remain.",
        peak.unwrap_or(0)
    )?;
    Ok(())
}

/// Fig. 7: performance sensitivity to child CTA dimensions (64, 128, 256
/// threads/CTA), normalized to 32 threads/CTA, under Baseline-DP.
pub fn fig07(cx: &Ctx, out: &mut dyn Write) -> Result<(), Error> {
    let scale = cx.opts.scale;
    writeln!(
        out,
        "# Fig. 7 — child CTA size sensitivity (scale {scale:?})"
    )?;
    let widths = [14, 8, 8, 8];
    write_header(out, &["benchmark", "CTA-64", "CTA-128", "CTA-256"], &widths)?;
    for bench in cx.suite() {
        let run = |threads| {
            bench
                .with_child_cta_threads(threads)
                .run(&cx.cfg, Box::new(BaselineDp::new()))
        };
        let base = run(32);
        let mut cols = vec![bench.name().to_string()];
        cols.extend([64, 128, 256].map(|threads| fmt_speedup(&run(threads), &base)));
        write_row(out, &cols, &widths)?;
    }
    writeln!(
        out,
        "# paper: only AMR (prefers larger CTAs, escapes the CTA-count limit)\n\
         # and SSSP-graph500 (prefers smaller CTAs, high per-CTA resources)\n\
         # are sensitive; the rest are within noise."
    )?;
    Ok(())
}

/// Fig. 8: one SWQ (stream) per child kernel vs one per parent CTA,
/// normalized to the per-parent-CTA assignment, under Baseline-DP.
pub fn fig08(cx: &Ctx, out: &mut dyn Write) -> Result<(), Error> {
    writeln!(
        out,
        "# Fig. 8 — per-child-kernel SWQ speedup over per-parent-CTA SWQ"
    )?;
    let widths = [14, 10];
    write_header(out, &["benchmark", "speedup"], &widths)?;
    for bench in cx.suite() {
        let mut cfg = cx.cfg.clone();
        cfg.stream_policy = StreamPolicy::PerParentCta;
        let per_cta = bench.run(&cfg, Box::new(BaselineDp::new()));
        cfg.stream_policy = StreamPolicy::PerChildKernel;
        let per_child = bench.run(&cfg, Box::new(BaselineDp::new()));
        let row = [bench.name().to_string(), fmt_speedup(&per_child, &per_cta)];
        write_row(out, &row, &widths)?;
    }
    writeln!(
        out,
        "# paper: a unique SWQ per child kernel always performs at least as\n\
         # well (up to 4.1x) because shared SWQs serialize siblings."
    )?;
    Ok(())
}

/// Fig. 12: PDF of child-CTA execution time (relative to the mean) for
/// MM-small, SA-thaliana, BFS-graph500, and SSSP-graph500 (Baseline-DP).
pub fn fig12(cx: &Ctx, out: &mut dyn Write) -> Result<(), Error> {
    let cfg = &cx.cfg;
    writeln!(
        out,
        "# Fig. 12 — child CTA execution time PDF around the mean"
    )?;
    for name in ["MM-small", "SA-thaliana", "BFS-graph500", "SSSP-graph500"] {
        let bench = cx.bench(name)?;
        let r = bench.run(cfg, Box::new(BaselineDp::new()));
        if r.child_cta_exec_cycles.is_empty() {
            writeln!(out, "{name}: no child CTAs")?;
            continue;
        }
        let mean = r.mean_child_cta_exec();
        let lo = (mean * 0.5) as u64;
        let hi = (mean * 1.5) as u64 + 1;
        let mut h = Histogram::new(lo, hi, 20);
        for &v in &r.child_cta_exec_cycles {
            h.add(v);
        }
        let within10 = h.mass_between((mean * 0.9) as u64, (mean * 1.1) as u64 + 1);
        let within20 = h.mass_between((mean * 0.8) as u64, (mean * 1.2) as u64 + 1);
        let (count, w10, w20) = (h.count(), pct(within10), pct(within20));
        writeln!(
            out,
            "{name:<14} mean={mean:.0}cy ctas={count} within±10%={w10} within±20%={w20}"
        )?;
        write!(out, "{:<14} pdf(-50%..+50%):", "")?;
        for p in h.pdf() {
            write!(out, " {p:.3}")?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "# paper: 95% of child CTAs (80% for SSSP-graph500) execute within\n\
         # 10% of the running average, which is why t_cta is a good estimator."
    )?;
    Ok(())
}

/// Writes one Fig. 19 timeline, sampled to about 40 rows.
fn dump(out: &mut dyn Write, label: &str, r: &SimReport) -> Result<(), Error> {
    writeln!(
        out,
        "## {label}: total {} cycles\n{:>12} {:>8} {:>8} {:>6}",
        r.total_cycles, "cycle", "parent", "child", "util"
    )?;
    let stride = (r.timeline.len() / 40).max(1);
    for (t, s) in r.timeline.iter().step_by(stride) {
        let (p, c, u) = (s.parent_ctas, s.child_ctas, s.utilization);
        writeln!(out, "{t:>12} {p:>8} {c:>8} {u:>6.2}")?;
    }
    Ok(())
}

/// Fig. 19: concurrent CTAs of BFS-graph500 over time — Baseline-DP vs
/// SPAWN.
pub fn fig19(cx: &Ctx, out: &mut dyn Write) -> Result<(), Error> {
    let cfg = &cx.cfg;
    let bench = cx.bench("BFS-graph500")?;
    writeln!(out, "# Fig. 19 — BFS-graph500 concurrency timeline")?;
    let base = bench.run(cfg, Box::new(BaselineDp::new()));
    dump(out, "Baseline-DP", &base)?;
    let spawn = bench.run(cfg, Box::new(SpawnPolicy::from_config(cfg)));
    dump(out, "SPAWN", &spawn)?;
    writeln!(
        out,
        "# SPAWN finishes in {:.0}% of the Baseline-DP time ({} vs {} cycles)\n\
         # paper: SPAWN's longer-lived parents hide launch overheads; the app\n\
         # finishes at 1600k vs 2400k cycles.",
        100.0 * spawn.total_cycles as f64 / base.total_cycles as f64,
        spawn.total_cycles,
        base.total_cycles
    )?;
    Ok(())
}

/// Writes one Fig. 20 launch CDF, resampled to 20 points.
fn series(out: &mut dyn Write, label: &str, r: &SimReport) -> Result<(), Error> {
    let mut cdf = Cdf::new();
    for &t in &r.child_launch_cycles {
        cdf.record(t);
    }
    let (count, cycles) = (cdf.count(), r.total_cycles);
    writeln!(out, "## {label}: {count} launches over {cycles} cycles")?;
    for (x, c) in cdf.resampled(20) {
        writeln!(out, "{x:>12} {c:>8}")?;
    }
    Ok(())
}

/// Fig. 20: CDF of child-kernel launches over time for Baseline-DP,
/// Offline-Search, and SPAWN on BFS-graph500.
pub fn fig20(cx: &Ctx, out: &mut dyn Write) -> Result<(), Error> {
    let cfg = &cx.cfg;
    let bench = cx.bench("BFS-graph500")?;
    writeln!(
        out,
        "# Fig. 20 — cumulative child-kernel launches over time"
    )?;
    let base = bench.run(cfg, Box::new(BaselineDp::new()));
    series(out, "Baseline-DP", &base)?;
    let sweep = offline::sweep_par(&offload_grid(&bench), cx.opts.jobs, |policy| {
        bench.run(cfg, policy)
    });
    series(out, "Offline-Search", &sweep.best().report)?;
    let spawn = bench.run(cfg, Box::new(SpawnPolicy::from_config(cfg)));
    series(out, "SPAWN", &spawn)?;
    writeln!(
        out,
        "# paper: Baseline-DP launches at a much higher rate; SPAWN's curve\n\
         # tracks Offline-Search and saves thousands of cycles."
    )?;
    Ok(())
}

/// Fig. 21: SPAWN vs DTBL (Wang et al., ISCA'15), normalized to flat, on
/// SA (thaliana, elegans), MM (small, large), and SSSP (citation,
/// graph500).
pub fn fig21(cx: &Ctx, out: &mut dyn Write) -> Result<(), Error> {
    let cfg = &cx.cfg;
    let scale = cx.opts.scale;
    writeln!(
        out,
        "# Fig. 21 — SPAWN vs DTBL, speedup over flat (scale {scale:?})"
    )?;
    let widths = [16, 8, 8, 12, 10];
    let header = ["benchmark", "SPAWN", "DTBL", "agg. CTAs", "DTBL kernels"];
    write_header(out, &header, &widths)?;
    for name in [
        "SA-thaliana",
        "SA-elegans",
        "MM-small",
        "MM-large",
        "SSSP-citation",
        "SSSP-graph500",
    ] {
        let bench = cx.bench(name)?;
        let flat = bench.run_flat(cfg);
        let spawn = bench.run(cfg, Box::new(SpawnPolicy::from_config(cfg)));
        let dtbl = bench.run(cfg, Box::new(Dtbl::new()));
        write_row(
            out,
            &[
                name.to_string(),
                fmt_speedup(&spawn, &flat),
                fmt_speedup(&dtbl, &flat),
                dtbl.aggregated_ctas.to_string(),
                dtbl.child_kernels_launched.to_string(),
            ],
            &widths,
        )?;
    }
    writeln!(
        out,
        "# paper: SPAWN wins on SA (CTA-limit bound: 1.8x/1.4x), ties on MM,\n\
         # loses on SSSP (launch-overhead bound, which DTBL eliminates)."
    )?;
    Ok(())
}

/// Pulls one gauge series out of the artifact's `dynapar-timeseries/1`
/// section as `(cycle, window mean)` points (empty windows skipped).
fn gauge_means(artifact: &RunArtifact, name: &str) -> Vec<(f64, f64)> {
    let series = artifact.timeseries().and_then(|ts| {
        let all = ts.get("series")?.as_array()?;
        all.iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
    });
    let Some(series) = series else {
        return Vec::new();
    };
    let window = 1u64
        << series
            .get("window_log2")
            .and_then(Json::as_u64)
            .unwrap_or(10);
    let points = series.get("points").and_then(Json::as_array).unwrap_or(&[]);
    points
        .iter()
        .enumerate()
        .filter_map(|(i, p)| Some(((i as u64 * window) as f64, p.get("mean")?.as_f64()?)))
        .collect()
}

/// Monitored-metric trajectories: `n_con` and pending-queue depth over
/// time for SPAWN against the unthrottled and never-launch extremes
/// (`always`, `free-launch`), one SVG figure per benchmark
/// (`fig_timeseries_<bench>.svg` in the context's SVG directory).
///
/// The data comes from the `--metrics timeseries` telemetry layer
/// (artifact section `dynapar-timeseries/1`): SPAWN's windowed `n_con`
/// rides the left axis, each policy's GMU queue depth rides the right
/// axis, so the throttling story — SPAWN bounding the backlog that
/// `always` lets grow — is visible as a picture, not just a geomean.
pub fn fig_timeseries(cx: &Ctx, out: &mut dyn Write) -> Result<(), Error> {
    let cfg = &cx.cfg;
    let dir = &cx.svg_dir;
    fs::create_dir_all(dir).map_err(Error::io_at(dir))?;
    for name in ["BFS-graph500", "AMR"] {
        let bench = cx.bench(name)?;
        let run = |ctrl: Box<dyn LaunchController>| {
            let sim = Simulation::builder(cfg.clone()).controller(ctrl);
            let outcome = bench.run_with(sim.metrics(MetricsLevel::Timeseries));
            outcome
                .artifact
                .expect("timeseries level emits an artifact")
        };
        let spawn = run(Box::new(SpawnPolicy::from_config(cfg)));
        let always = run(Box::new(AlwaysLaunch::new()));
        let free = run(Box::new(FreeLaunch::new()));
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
        fs::write(&p, chart.render()).map_err(Error::io_at(&p))?;
        writeln!(out, "wrote {}", p.display())?;
    }
    Ok(())
}
