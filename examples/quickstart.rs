//! Quickstart: run one benchmark under the flat, Baseline-DP, and SPAWN
//! schemes and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dynapar::core::{BaselineDp, SpawnPolicy};
use dynapar::gpu::GpuConfig;
use dynapar::workloads::{suite, Scale};

fn main() {
    // The paper's simulated GPU: a Tesla K20m-like machine (Table II).
    let cfg = GpuConfig::kepler_k20m();

    // One of the 13 Table I benchmarks, at a quick demo scale.
    let bench = suite::by_name("SA-thaliana", Scale::Small, suite::DEFAULT_SEED)
        .expect("SA-thaliana is a Table I benchmark");
    println!(
        "benchmark {}: {} parent threads, {} work items",
        bench.name(),
        bench.threads(),
        bench.total_items()
    );

    // 1. Flat (non-DP): every thread loops over its own workload.
    let flat = bench.run_flat(&cfg);
    println!(
        "flat        : {:>9} cycles, occupancy {:.0}%",
        flat.total_cycles,
        flat.occupancy * 100.0
    );

    // 2. Baseline-DP: launch a child kernel whenever a thread's workload
    //    exceeds the application's source-level THRESHOLD.
    let baseline = bench.run(&cfg, Box::new(BaselineDp::new()));
    println!(
        "baseline-DP : {:>9} cycles ({:.2}x), {} child kernels",
        baseline.total_cycles,
        baseline.speedup_over(flat.total_cycles),
        baseline.child_kernels_launched
    );

    // 3. SPAWN: the paper's runtime controls each launch dynamically.
    let spawn = bench.run(&cfg, Box::new(SpawnPolicy::from_config(&cfg)));
    println!(
        "SPAWN       : {:>9} cycles ({:.2}x), {} child kernels ({} inlined)",
        spawn.total_cycles,
        spawn.speedup_over(flat.total_cycles),
        spawn.child_kernels_launched,
        spawn.inlined_requests
    );

    // Every scheme executes exactly the same work.
    assert_eq!(flat.items_total(), baseline.items_total());
    assert_eq!(flat.items_total(), spawn.items_total());
    println!(
        "work conserved across schemes: {} items each",
        flat.items_total()
    );
}
