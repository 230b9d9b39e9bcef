//! Compare every launch policy — flat, Baseline-DP, Offline-Search,
//! SPAWN, and DTBL — across a few contrasting benchmarks.
//!
//! ```sh
//! cargo run --release --example policy_comparison
//! ```

use dynapar::core::{offline, BaselineDp, Dtbl, SpawnPolicy};
use dynapar::gpu::GpuConfig;
use dynapar::workloads::{suite, Scale};

fn main() {
    let cfg = GpuConfig::kepler_k20m();
    // Three benchmarks with opposite DP preferences:
    //  - AMR prefers computing in the parent (nested launch storms hurt),
    //  - SA-thaliana prefers offloading nearly everything (long tail),
    //  - JOIN-uniform is balanced (DP has nothing to fix).
    for name in ["AMR", "SA-thaliana", "JOIN-uniform"] {
        let bench =
            suite::by_name(name, Scale::Small, suite::DEFAULT_SEED).expect("known benchmark");
        let flat = bench.run_flat(&cfg);

        let baseline = bench.run(&cfg, Box::new(BaselineDp::new()));

        let mut grid = bench.threshold_grid(&[0.05, 0.30, 0.50, 0.70, 0.95]);
        grid.push(bench.default_threshold());
        grid.sort_unstable();
        grid.dedup();
        let offline_best = offline::sweep(&grid, |p| bench.run(&cfg, p));
        let best = offline_best.best();

        let spawn = bench.run(&cfg, Box::new(SpawnPolicy::from_config(&cfg)));
        let dtbl = bench.run(&cfg, Box::new(Dtbl::new()));

        println!("== {name} (flat = {} cycles) ==", flat.total_cycles);
        let row = |label: &str, cycles: u64, kernels: u64, extra: String| {
            println!(
                "  {label:<16} {:>6.2}x  {kernels:>6} kernels  {extra}",
                flat.total_cycles as f64 / cycles as f64
            );
        };
        row(
            "Baseline-DP",
            baseline.total_cycles,
            baseline.child_kernels_launched,
            String::new(),
        );
        row(
            "Offline-Search",
            best.report.total_cycles,
            best.report.child_kernels_launched,
            format!("(THRESHOLD {})", best.threshold),
        );
        row(
            "SPAWN",
            spawn.total_cycles,
            spawn.child_kernels_launched,
            format!("({} requests inlined)", spawn.inlined_requests),
        );
        row(
            "DTBL",
            dtbl.total_cycles,
            dtbl.child_kernels_launched,
            format!("({} CTAs aggregated)", dtbl.aggregated_ctas),
        );
        println!();
    }
    println!("SPAWN adapts per benchmark without any static tuning — the paper's");
    println!("headline claim — while DTBL only removes launch overhead.");
}
