//! Diagnostic dump: per-scheme internals for one benchmark
//! (`--bench <name>` plus the usual `--scale`/`--seed`).

use dynapar_bench::{usage_error, Options};
use dynapar_core::{BaselineDp, SpawnPolicy};
use dynapar_workloads::suite;

fn main() {
    let (opts, rest) = Options::parse_known().unwrap_or_else(|e| e.exit());
    let mut name = "BFS-graph500".to_string();
    let mut rest = rest.into_iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--bench" => match rest.next() {
                Some(n) => name = n,
                None => usage_error("--bench expects a benchmark name"),
            },
            other => usage_error(&format!(
                "unknown argument {other:?} (diag adds --bench NAME)"
            )),
        }
    }
    let cfg = opts.config();
    let bench = suite::by_name(&name, opts.scale, opts.seed).expect("known benchmark");
    println!(
        "# {} threads={} items={} spread={:?}",
        bench.name(),
        bench.threads(),
        bench.total_items(),
        bench.workload_spread()
    );
    let perf = |r: &dynapar_gpu::SimReport| {
        format!(
            "events={} wall={:.1}ms rate={:.0}ev/s",
            r.events_processed,
            r.wall_ms,
            r.events_per_sec().unwrap_or(0.0)
        )
    };
    let flat = bench.run_flat(&cfg);
    println!(
        "flat    : cycles={} occ={:.2} l2={:.2} {}",
        flat.total_cycles,
        flat.occupancy,
        flat.mem.l2_hit_rate(),
        perf(&flat)
    );
    let base = bench.run(&cfg, Box::new(BaselineDp::new()));
    println!(
        "baseline: cycles={} (x{:.2}) kernels={} offload={:.2} qlat={:.0} occ={:.2} agg_ctas={} {}",
        base.total_cycles,
        base.speedup_over(flat.total_cycles),
        base.child_kernels_launched,
        base.offload_fraction(),
        base.avg_child_queue_latency,
        base.occupancy,
        base.aggregated_ctas,
        perf(&base),
    );
    for frac in dynapar_bench::SWEEP_FRACTIONS {
        let t = bench.threshold_for_offload(frac);
        let r = bench.run(&cfg, Box::new(dynapar_core::FixedThreshold::new(t)));
        println!(
            "sweep t={:<6} target={:.2} actual={:.2}: cycles={} (x{:.2}) kernels={} qlat={:.0}",
            t,
            frac,
            r.offload_fraction(),
            r.total_cycles,
            r.speedup_over(flat.total_cycles),
            r.child_kernels_launched,
            r.avg_child_queue_latency,
        );
    }
    let parent_end = |r: &dynapar_gpu::SimReport| {
        r.timeline
            .iter()
            .rev()
            .find(|(_, s)| s.parent_ctas > 0)
            .map(|(t, _)| *t)
            .unwrap_or(0)
    };
    println!(
        "phase   : flat parents end {} | baseline parents end {}",
        parent_end(&flat),
        parent_end(&base)
    );
    let base_analysis = dynapar_core::LaunchAnalysis::of(&base);
    println!(
        "queue   : baseline peak in-flight {} mean depth {:.0} mean child lifetime {:.0}",
        base_analysis.peak_in_flight(),
        base_analysis.mean_depth(base.total_cycles),
        base_analysis.mean_lifetime()
    );
    let spawn_policy = SpawnPolicy::from_config(&cfg);
    let spawn = bench.run(&cfg, Box::new(spawn_policy));
    println!(
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
    );
    println!("phase   : spawn parents end {}", parent_end(&spawn));
    let spawn_analysis = dynapar_core::LaunchAnalysis::of(&spawn);
    println!(
        "queue   : spawn peak in-flight {} mean depth {:.0} mean child lifetime {:.0}",
        spawn_analysis.peak_in_flight(),
        spawn_analysis.mean_depth(spawn.total_cycles),
        spawn_analysis.mean_lifetime()
    );
}
