//! The tables, ablations and studies beyond the paper's figures.

use std::io::Write;

use dynapar_core::{
    AdaptiveThreshold, BaselineDp, Dtbl, FixedThreshold, FreeLaunch, LaunchAnalysis, SpawnPolicy,
};
use dynapar_engine::stats::Summary;
use dynapar_gpu::{
    CtaPlacement, GpuConfig, InlineAll, KernelRole, LaunchController, SimReport, Simulation,
};
use dynapar_workloads::apps::{bfs::levels, GraphInput};
use dynapar_workloads::Benchmark;

use crate::{fmt2, fmt_speedup, write_header, write_row, Ctx, Error, SWEEP_FRACTIONS};

/// Table I: the benchmark suite — applications, inputs, and the synthetic
/// workload statistics standing in for the paper's real inputs.
pub fn table1(cx: &Ctx, out: &mut dyn Write) -> Result<(), Error> {
    let (scale, seed) = (cx.opts.scale, cx.opts.seed);
    writeln!(out, "# Table I — benchmarks (scale {scale:?}, seed {seed})")?;
    let widths = [14, 6, 16, 9, 10, 22, 10];
    write_header(
        out,
        &[
            "benchmark",
            "app",
            "input",
            "threads",
            "items",
            "spread(min/med/max)",
            "THRESHOLD",
        ],
        &widths,
    )?;
    for b in cx.suite() {
        let (min, med, max) = b.workload_spread();
        write_row(
            out,
            &[
                b.name().to_string(),
                b.app().to_string(),
                b.input().to_string(),
                b.threads().to_string(),
                b.total_items().to_string(),
                format!("{min}/{med}/{max}"),
                b.default_threshold().to_string(),
            ],
            &widths,
        )?;
    }
    Ok(())
}

/// Table II: the simulated GPU configuration.
pub fn table2(cx: &Ctx, out: &mut dyn Write) -> Result<(), Error> {
    let (cfg, l, m) = (&cx.cfg, &cx.cfg.launch, &cx.cfg.mem);
    let rows = [
        ("SMXs", cfg.smx_count.to_string()),
        ("warp size", cfg.warp_size.to_string()),
        ("max threads / SMX", cfg.max_threads_per_smx.to_string()),
        ("max warps / SMX", cfg.max_warps_per_smx().to_string()),
        ("max CTAs / SMX", cfg.max_ctas_per_smx.to_string()),
        ("registers / SMX", cfg.regs_per_smx.to_string()),
        (
            "shared memory / SMX",
            format!("{} KB", cfg.shmem_per_smx / 1024),
        ),
        (
            "issue width",
            format!("{} (dual warp scheduler)", cfg.issue_width),
        ),
        ("warp scheduler", format!("{:?}", cfg.scheduler)),
        ("loop MLP depth", cfg.mlp_depth.to_string()),
        ("hardware work queues", cfg.num_hwqs.to_string()),
        ("max concurrent CTAs", cfg.max_concurrent_ctas().to_string()),
        ("pending kernel pool", cfg.pending_pool_cap.to_string()),
        ("stream policy", format!("{:?}", cfg.stream_policy)),
        (
            "launch overhead",
            format!("{}*x + {} cycles (x = launches per warp)", l.a, l.b),
        ),
        ("device API call", format!("{} cycles", l.api_call_cycles)),
        (
            "HWQ turnaround",
            format!("{} cycles", l.hwq_turnaround_cycles),
        ),
        (
            "DTBL per-CTA push",
            format!("{} cycles", l.dtbl_per_cta_cycles),
        ),
        (
            "L1D / SMX",
            format!(
                "{} KB, {}-way, {} B lines, {}cy hit",
                m.l1_bytes / 1024,
                m.l1_ways,
                m.line_bytes,
                m.l1_hit_latency
            ),
        ),
        (
            "L2",
            format!(
                "{} x {} KB partitions, {}-way, {}cy hit",
                m.l2_partitions,
                m.l2_partition_bytes / 1024,
                m.l2_ways,
                m.l2_hit_latency
            ),
        ),
        ("interconnect", format!("{}cy each way", m.xbar_latency)),
        (
            "DRAM",
            format!(
                "{} MCs, {} banks/ch, row hit/miss {}/{}cy",
                m.memory_controllers,
                m.dram_banks_per_channel,
                m.dram_row_hit_latency,
                m.dram_row_miss_latency
            ),
        ),
    ];
    writeln!(out, "# Table II — GPU configuration (Tesla K20m-like)")?;
    for (label, value) in rows {
        writeln!(out, "{label:<26}: {value}")?;
    }
    Ok(())
}

/// Writes `name`, then ` label=speedup` over flat for each policy's run
/// of `bench`.
fn speedup_line(
    out: &mut dyn Write,
    name: &str,
    bench: &Benchmark,
    cfg: &GpuConfig,
    policies: Vec<(&str, Box<dyn LaunchController>)>,
) -> Result<(), Error> {
    let flat = bench.run_flat(cfg);
    write!(out, "{name:<14}")?;
    for (label, policy) in policies {
        write!(
            out,
            " {label}={}",
            fmt_speedup(&bench.run(cfg, policy), &flat)
        )?;
    }
    writeln!(out)?;
    Ok(())
}

/// Ablation study of the design choices DESIGN.md calls out: SPAWN's
/// queue-feedback term, warm-start priors, the HWQ count, the HWQ
/// turnaround floor, and the loop-MLP depth.
pub fn ablation(cx: &Ctx, out: &mut dyn Write) -> Result<(), Error> {
    let cfg = &cx.cfg;
    let spawn = || SpawnPolicy::from_config(cfg);

    writeln!(out, "# Ablation — SPAWN variants (speedup over flat)")?;
    for name in ["BFS-graph500", "SA-thaliana", "AMR"] {
        let bench = cx.bench(name)?;
        let (launch, window, pool) = (cfg.launch, cfg.metric_window_log2, cfg.pending_pool_cap);
        let warm = SpawnPolicy::with_warm_start(launch, window, pool as u64, 2000, 2000);
        let adaptive = AdaptiveThreshold::new(bench.default_threshold().max(1), 1 << 14);
        let variants: Vec<(&str, Box<dyn LaunchController>)> = vec![
            ("full", Box::new(spawn())),
            ("no-queue-term", Box::new(spawn().without_queue_term())),
            ("warm-start", Box::new(warm)),
            ("hw-16bit", Box::new(spawn().with_hardware_widths())),
            ("adaptive-threshold", Box::new(adaptive)),
        ];
        speedup_line(out, name, &bench, cfg, variants)?;
    }

    let section = |out: &mut dyn Write, title| writeln!(out, "\n# Ablation — {title}");
    section(out, "HWQ count (Baseline-DP on BFS-graph500)")?;
    let bench = cx.bench("BFS-graph500")?;
    let flat = bench.run_flat(cfg);
    for hwqs in [8u32, 16, 32, 64] {
        let mut cfg = cx.cfg.clone();
        cfg.num_hwqs = hwqs;
        let r = bench.run(&cfg, Box::new(BaselineDp::new()));
        let (speedup, latency) = (fmt_speedup(&r, &flat), r.avg_child_queue_latency);
        writeln!(
            out,
            "hwqs={hwqs:<3} speedup={speedup} queue latency={latency:.0}"
        )?;
    }

    section(out, "HWQ turnaround floor (Baseline-DP on BFS-graph500)")?;
    for ta in [0u64, 500, 1000, 2500] {
        let mut cfg = cx.cfg.clone();
        cfg.launch.hwq_turnaround_cycles = ta;
        let speedup = fmt_speedup(&bench.run(&cfg, Box::new(BaselineDp::new())), &flat);
        writeln!(out, "turnaround={ta:<5} speedup={speedup}")?;
    }

    section(out, "launch mechanisms (speedup over flat)")?;
    for name in ["BFS-graph500", "SA-thaliana", "AMR", "MM-small"] {
        let mechanisms: Vec<(&str, Box<dyn LaunchController>)> = vec![
            ("spawn", Box::new(spawn())),
            ("dtbl", Box::new(Dtbl::new())),
            ("free-launch", Box::new(FreeLaunch::new())),
        ];
        speedup_line(out, name, &cx.bench(name)?, cfg, mechanisms)?;
    }

    section(out, "child CTA placement (Baseline-DP)")?;
    for name in ["BFS-graph500", "SA-thaliana"] {
        let bench = cx.bench(name)?;
        let mut cfg = cx.cfg.clone();
        let rr = bench.run(&cfg, Box::new(BaselineDp::new()));
        cfg.cta_placement = CtaPlacement::ParentAffinity;
        let aff = bench.run(&cfg, Box::new(BaselineDp::new()));
        writeln!(
            out,
            "{:<14} round-robin: {} cycles L1={:.1}% | parent-affinity: {} cycles L1={:.1}% ({} faster)",
            name,
            rr.total_cycles,
            rr.mem.l1_hit_rate() * 100.0,
            aff.total_cycles,
            aff.mem.l1_hit_rate() * 100.0,
            fmt2(rr.total_cycles as f64 / aff.total_cycles as f64),
        )?;
    }

    section(out, "loop MLP depth (flat BFS-graph500)")?;
    let mut base_flat = None;
    for mlp in [1u32, 2, 4, 8] {
        let mut cfg = cx.cfg.clone();
        cfg.mlp_depth = mlp;
        let cycles = bench.run_flat(&cfg).total_cycles;
        let base = *base_flat.get_or_insert(cycles);
        let speedup = fmt2(base as f64 / cycles as f64);
        writeln!(out, "mlp={mlp} cycles={cycles} speedup-over-mlp1={speedup}")?;
    }
    Ok(())
}

/// Model-accuracy experiment (the paper's §IV "Accuracy" subsection):
/// compare SPAWN's Eq. 1 completion-time estimates against the actual
/// decision-to-completion times of the children it launched.
///
/// Predictions are logged in decision order, which is exactly the order
/// the simulator creates child kernels, so entry `i` of the log pairs
/// with the `i`-th `Child` row of the kernel table.
pub fn accuracy(cx: &Ctx, out: &mut dyn Write) -> Result<(), Error> {
    let cfg = &cx.cfg;
    writeln!(
        out,
        "# Eq. 1 accuracy — predicted vs actual child completion time"
    )?;
    for name in ["BFS-graph500", "SA-thaliana", "MM-small", "AMR"] {
        let bench = cx.bench(name)?;
        let policy = SpawnPolicy::from_config(cfg).with_prediction_log();
        let mut sim = Simulation::builder(cfg.clone())
            .controller(Box::new(policy))
            .build();
        sim.launch_host(bench.kernel());
        let outcome = sim.run();
        let report = outcome.report;
        let policy = outcome
            .controller
            .as_any()
            .and_then(|a| a.downcast_ref::<SpawnPolicy>())
            .expect("controller is SPAWN");
        let predictions = policy.predictions();

        // Actual decision -> own-completion time per child, creation order.
        let actuals: Vec<u64> = report
            .kernels
            .iter()
            .filter(|k| k.role == KernelRole::Child)
            .filter_map(|k| k.own_done_at.map(|d| d - k.created_at))
            .collect();
        assert_eq!(
            predictions.len(),
            actuals.len(),
            "one prediction per launched child"
        );
        if actuals.is_empty() {
            writeln!(out, "{name:<14} no children launched")?;
            continue;
        }
        // Signed ratio distribution: predicted / actual.
        let mut under = 0usize;
        let mut within2x = 0usize;
        let mut ratios_pct: Vec<u64> = Vec::with_capacity(actuals.len());
        for (&p, &a) in predictions.iter().zip(&actuals) {
            if p < a {
                under += 1;
            }
            let ratio = p as f64 / a.max(1) as f64;
            if (0.5..=2.0).contains(&ratio) {
                within2x += 1;
            }
            ratios_pct.push((ratio * 100.0) as u64);
        }
        let s = Summary::of(&ratios_pct);
        writeln!(
            out,
            "{name:<14} children={} pred/actual%: {s} | underestimates={:.0}% within-2x={:.0}%",
            actuals.len(),
            100.0 * under as f64 / actuals.len() as f64,
            100.0 * within2x as f64 / actuals.len() as f64,
        )?;
    }
    writeln!(
        out,
        "# paper: t_cta-based estimates are accurate because 80-95% of child\n\
         # CTAs execute within 10% of the running average (Fig. 12)."
    )?;
    Ok(())
}

/// Diagnostic dump: per-scheme internals for one benchmark (`--bench
/// NAME`, default BFS-graph500).
pub fn diag(cx: &Ctx, out: &mut dyn Write) -> Result<(), Error> {
    let cfg = &cx.cfg;
    let bench = cx.bench(&cx.diag_bench)?;
    writeln!(
        out,
        "# {} threads={} items={} spread={:?}",
        bench.name(),
        bench.threads(),
        bench.total_items(),
        bench.workload_spread()
    )?;
    let perf = |r: &SimReport| {
        format!(
            "events={} wall={:.1}ms rate={:.0}ev/s",
            r.events_processed,
            r.wall_ms,
            r.events_per_sec().unwrap_or(0.0)
        )
    };
    let parent_end = |r: &SimReport| {
        r.timeline
            .iter()
            .rev()
            .find(|(_, s)| s.parent_ctas > 0)
            .map(|(t, _)| *t)
            .unwrap_or(0)
    };
    let queue = |out: &mut dyn Write, label: &str, r: &SimReport| {
        let a = LaunchAnalysis::of(r);
        writeln!(
            out,
            "queue   : {label} peak in-flight {} mean depth {:.0} mean child lifetime {:.0}",
            a.peak_in_flight(),
            a.mean_depth(r.total_cycles),
            a.mean_lifetime()
        )
    };
    let flat = bench.run_flat(cfg);
    writeln!(
        out,
        "flat    : cycles={} occ={:.2} l2={:.2} {}",
        flat.total_cycles,
        flat.occupancy,
        flat.mem.l2_hit_rate(),
        perf(&flat)
    )?;
    let base = bench.run(cfg, Box::new(BaselineDp::new()));
    writeln!(
        out,
        "baseline: cycles={} (x{:.2}) kernels={} offload={:.2} qlat={:.0} occ={:.2} agg_ctas={} {}",
        base.total_cycles,
        base.speedup_over(flat.total_cycles),
        base.child_kernels_launched,
        base.offload_fraction(),
        base.avg_child_queue_latency,
        base.occupancy,
        base.aggregated_ctas,
        perf(&base),
    )?;
    for frac in SWEEP_FRACTIONS {
        let t = bench.threshold_for_offload(frac);
        let r = bench.run(cfg, Box::new(FixedThreshold::new(t)));
        writeln!(
            out,
            "sweep t={:<6} target={:.2} actual={:.2}: cycles={} (x{:.2}) kernels={} qlat={:.0}",
            t,
            frac,
            r.offload_fraction(),
            r.total_cycles,
            r.speedup_over(flat.total_cycles),
            r.child_kernels_launched,
            r.avg_child_queue_latency,
        )?;
    }
    let (flat_end, base_end) = (parent_end(&flat), parent_end(&base));
    writeln!(
        out,
        "phase   : flat parents end {flat_end} | baseline parents end {base_end}"
    )?;
    queue(out, "baseline", &base)?;
    let spawn = bench.run(cfg, Box::new(SpawnPolicy::from_config(cfg)));
    writeln!(
        out,
        "spawn   : cycles={} (x{:.2}) kernels={} offload={:.2} qlat={:.0} occ={:.2} inlined={} requests={} {}",
        spawn.total_cycles,
        spawn.speedup_over(flat.total_cycles),
        spawn.child_kernels_launched,
        spawn.offload_fraction(),
        spawn.avg_child_queue_latency,
        spawn.occupancy,
        spawn.inlined_requests,
        spawn.launch_requests,
        perf(&spawn),
    )?;
    writeln!(out, "phase   : spawn parents end {}", parent_end(&spawn))?;
    queue(out, "spawn", &spawn)?;
    Ok(())
}

/// Forward-looking sensitivity study (beyond the paper's evaluation but
/// directly posed by its conclusions): how do the launch-overhead
/// constants and the HWQ count change the DP trade-off? If future
/// hardware shrinks `b` (the fixed launch cost) or widens the HWQ array,
/// where does "just launch everything" become safe — and does SPAWN
/// still help?
pub fn future(cx: &Ctx, out: &mut dyn Write) -> Result<(), Error> {
    let bench = cx.bench("BFS-graph500")?;
    // Flat cycles and the Baseline-DP and SPAWN speedups under `cfg`.
    let schemes = |cfg: &GpuConfig| {
        let flat = bench.run_flat(cfg);
        let base = bench.run(cfg, Box::new(BaselineDp::new()));
        let spawn = bench.run(cfg, Box::new(SpawnPolicy::from_config(cfg)));
        let cycles = flat.total_cycles;
        (
            cycles,
            fmt_speedup(&base, &flat),
            fmt_speedup(&spawn, &flat),
        )
    };

    writeln!(
        out,
        "# Future hardware — launch overhead sweep (BFS-graph500)"
    )?;
    let widths = [12, 12, 12, 8];
    let header = ["b (cycles)", "flat cycles", "Baseline-DP", "SPAWN"];
    write_header(out, &header, &widths)?;
    for scale_b in [1.0f64, 0.5, 0.25, 0.1, 0.0] {
        let mut cfg = cx.cfg.clone();
        cfg.launch.b = (cfg.launch.b as f64 * scale_b) as u64;
        cfg.launch.a = (cfg.launch.a as f64 * scale_b) as u64;
        cfg.launch.api_call_cycles = (cfg.launch.api_call_cycles as f64 * scale_b).max(1.0) as u64;
        let (flat, base, spawn) = schemes(&cfg);
        write_row(
            out,
            &[cfg.launch.b.to_string(), flat.to_string(), base, spawn],
            &widths,
        )?;
    }
    writeln!(
        out,
        "# as the launch path gets cheaper, Baseline-DP converges on the best\n\
         # static point and the control problem SPAWN solves shrinks.\n\
         \n\
         # Future hardware — HWQ count sweep (BFS-graph500, Baseline-DP & SPAWN)"
    )?;
    let widths = [8, 12, 8];
    write_header(out, &["HWQs", "Baseline-DP", "SPAWN"], &widths)?;
    for hwqs in [16u32, 32, 64, 128, 256] {
        let mut cfg = cx.cfg.clone();
        cfg.num_hwqs = hwqs;
        let (_, base, spawn) = schemes(&cfg);
        write_row(out, &[hwqs.to_string(), base, spawn], &widths)?;
    }
    writeln!(
        out,
        "# wider HWQ arrays relieve the concurrency cliff of §II-C directly.\n\
         \n\
         # Future hardware — Pascal-like extrapolation (all knobs together)"
    )?;
    for (label, cfg) in [
        ("kepler", cx.cfg.clone()),
        ("pascal-like", GpuConfig::pascal_like()),
    ] {
        let (flat, base, spawn) = schemes(&cfg);
        writeln!(out, "{label:<12} flat={flat} baseline={base} spawn={spawn}")?;
    }
    Ok(())
}

/// Multi-kernel (level-synchronous) BFS experiment — an extension beyond
/// the paper's single-kernel-statistics methodology that shows SPAWN's
/// advantage most clearly: its monitored metrics stay warm across the
/// level kernels, so launch decisions are informed from level 1 onward.
pub fn levels(cx: &Ctx, out: &mut dyn Write) -> Result<(), Error> {
    let (opts, cfg) = (&cx.opts, &cx.cfg);
    writeln!(
        out,
        "# Level-synchronous BFS (one kernel per frontier level, scale {:?})",
        opts.scale
    )?;
    let widths = [14, 10, 12, 8, 8];
    let header = ["input", "flat cycles", "Baseline-DP", "SPAWN", "DTBL"];
    write_header(out, &header, &widths)?;
    for input in [GraphInput::Citation, GraphInput::Graph500] {
        let run = |c: Box<dyn LaunchController>| levels::run(input, opts.scale, opts.seed, cfg, c);
        let flat = run(Box::new(InlineAll));
        let base = run(Box::new(BaselineDp::new()));
        let spawn = run(Box::new(SpawnPolicy::from_config(cfg)));
        let dtbl = run(Box::new(Dtbl::new()));
        write_row(
            out,
            &[
                input.label().to_string(),
                flat.total_cycles.to_string(),
                fmt_speedup(&base, &flat),
                fmt_speedup(&spawn, &flat),
                fmt_speedup(&dtbl, &flat),
            ],
            &widths,
        )?;
        let (b, s) = (base.child_kernels_launched, spawn.child_kernels_launched);
        let fewer = 100.0 * (1.0 - s as f64 / b.max(1) as f64);
        writeln!(
            out,
            "{:>14}  kernels: baseline {b} vs SPAWN {s} ({fewer:.0}% fewer)",
            ""
        )?;
    }
    writeln!(
        out,
        "# SPAWN's metrics persist across level kernels, warm-starting every\n\
         # level after the first; see EXPERIMENTS.md for the scale regimes\n\
         # where that restores the paper's SPAWN > Baseline-DP ordering."
    )?;
    Ok(())
}
