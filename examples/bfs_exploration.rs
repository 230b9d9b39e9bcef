//! Workload-distribution exploration (the Fig. 5 methodology) on BFS:
//! sweep the `THRESHOLD` between parent and child work and watch the
//! launch-overhead / parallelism trade-off move.
//!
//! ```sh
//! cargo run --release --example bfs_exploration
//! ```

use dynapar::core::offline;
use dynapar::gpu::GpuConfig;
use dynapar::workloads::{suite, Scale};

fn main() {
    let cfg = GpuConfig::kepler_k20m();
    let bench =
        suite::by_name("BFS-graph500", Scale::Small, suite::DEFAULT_SEED).expect("known benchmark");
    let flat = bench.run_flat(&cfg);
    println!(
        "BFS-graph500 flat run: {} cycles over {} edges",
        flat.total_cycles,
        flat.items_total()
    );
    println!();
    println!(
        "{:>9}  {:>9}  {:>8}  {:>8}  {:>9}  {:>10}",
        "THRESHOLD", "offload%", "speedup", "kernels", "occupancy", "queue lat."
    );

    // Thresholds spanning the whole distribution (plus launch-everything).
    let grid = {
        let mut g = bench.threshold_grid(&[0.05, 0.15, 0.30, 0.50, 0.70, 0.85, 0.95]);
        g.push(0);
        g.sort_unstable();
        g.dedup();
        g
    };
    let sweep = offline::sweep(&grid, |policy| bench.run(&cfg, policy));
    for p in sweep.points() {
        println!(
            "{:>9}  {:>8.1}%  {:>7.2}x  {:>8}  {:>8.0}%  {:>10.0}",
            p.threshold,
            p.offload_fraction() * 100.0,
            p.report.speedup_over(flat.total_cycles),
            p.report.child_kernels_launched,
            p.report.occupancy * 100.0,
            p.report.avg_child_queue_latency,
        );
    }
    let best = sweep.best();
    println!();
    println!(
        "Offline-Search would deploy THRESHOLD={} ({:.1}% offloaded): {:.2}x over flat.",
        best.threshold,
        best.offload_fraction() * 100.0,
        best.report.speedup_over(flat.total_cycles)
    );
    println!("Note the bell shape: too little offloading leaves imbalance, too much");
    println!("drowns in launch overhead and queuing latency — the paper's Fig. 5.");
}
