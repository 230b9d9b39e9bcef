//! Forward-looking sensitivity study (beyond the paper's evaluation but
//! directly posed by its conclusions): how do the launch-overhead
//! constants and the HWQ count change the DP trade-off? If future
//! hardware shrinks `b` (the fixed launch cost) or widens the HWQ array,
//! where does "just launch everything" become safe — and does SPAWN
//! still help?

use dynapar_bench::{fmt2, print_header, print_row, Options};
use dynapar_core::{BaselineDp, SpawnPolicy};
use dynapar_workloads::suite;

fn main() {
    let opts = Options::from_args().unwrap_or_else(|e| e.exit());
    let bench = suite::by_name("BFS-graph500", opts.scale, opts.seed).expect("known");

    println!("# Future hardware — launch overhead sweep (BFS-graph500)");
    let widths = [12, 12, 12, 8];
    print_header(
        &["b (cycles)", "flat cycles", "Baseline-DP", "SPAWN"],
        &widths,
    );
    for scale_b in [1.0f64, 0.5, 0.25, 0.1, 0.0] {
        let mut cfg = opts.config();
        cfg.launch.b = (cfg.launch.b as f64 * scale_b) as u64;
        cfg.launch.a = (cfg.launch.a as f64 * scale_b) as u64;
        cfg.launch.api_call_cycles = (cfg.launch.api_call_cycles as f64 * scale_b).max(1.0) as u64;
        let flat = bench.run_flat(&cfg);
        let base = bench.run(&cfg, Box::new(BaselineDp::new()));
        let spawn = bench.run(&cfg, Box::new(SpawnPolicy::from_config(&cfg)));
        print_row(
            &[
                cfg.launch.b.to_string(),
                flat.total_cycles.to_string(),
                fmt2(base.speedup_over(flat.total_cycles)),
                fmt2(spawn.speedup_over(flat.total_cycles)),
            ],
            &widths,
        );
    }
    println!("# as the launch path gets cheaper, Baseline-DP converges on the best");
    println!("# static point and the control problem SPAWN solves shrinks.");

    println!();
    println!("# Future hardware — HWQ count sweep (BFS-graph500, Baseline-DP & SPAWN)");
    let widths = [8, 12, 8];
    print_header(&["HWQs", "Baseline-DP", "SPAWN"], &widths);
    for hwqs in [16u32, 32, 64, 128, 256] {
        let mut cfg = opts.config();
        cfg.num_hwqs = hwqs;
        let flat = bench.run_flat(&cfg);
        let base = bench.run(&cfg, Box::new(BaselineDp::new()));
        let spawn = bench.run(&cfg, Box::new(SpawnPolicy::from_config(&cfg)));
        print_row(
            &[
                hwqs.to_string(),
                fmt2(base.speedup_over(flat.total_cycles)),
                fmt2(spawn.speedup_over(flat.total_cycles)),
            ],
            &widths,
        );
    }
    println!("# wider HWQ arrays relieve the concurrency cliff of §II-C directly.");

    println!();
    println!("# Future hardware — Pascal-like extrapolation (all knobs together)");
    for (label, cfg) in [
        ("kepler", opts.config()),
        ("pascal-like", dynapar_gpu::GpuConfig::pascal_like()),
    ] {
        let flat = bench.run_flat(&cfg);
        let base = bench.run(&cfg, Box::new(BaselineDp::new()));
        let spawn = bench.run(&cfg, Box::new(SpawnPolicy::from_config(&cfg)));
        println!(
            "{label:<12} flat={} baseline={} spawn={}",
            flat.total_cycles,
            fmt2(base.speedup_over(flat.total_cycles)),
            fmt2(spawn.speedup_over(flat.total_cycles)),
        );
    }
}
