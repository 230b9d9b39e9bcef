//! Multi-kernel (level-synchronous) BFS experiment — an extension beyond
//! the paper's single-kernel-statistics methodology that shows SPAWN's
//! advantage most clearly: its monitored metrics stay warm across the
//! level kernels, so launch decisions are informed from level 1 onward.

use dynapar_bench::{fmt2, print_header, print_row, Options};
use dynapar_core::{BaselineDp, Dtbl, SpawnPolicy};
use dynapar_workloads::apps::{bfs::levels, GraphInput};

fn main() {
    let opts = Options::from_args().unwrap_or_else(|e| e.exit());
    let cfg = opts.config();
    println!(
        "# Level-synchronous BFS (one kernel per frontier level, scale {:?})",
        opts.scale
    );
    let widths = [14, 10, 12, 8, 8];
    print_header(
        &["input", "flat cycles", "Baseline-DP", "SPAWN", "DTBL"],
        &widths,
    );
    for input in [GraphInput::Citation, GraphInput::Graph500] {
        let flat = levels::run(
            input,
            opts.scale,
            opts.seed,
            &cfg,
            Box::new(dynapar_gpu::InlineAll),
        );
        let base = levels::run(
            input,
            opts.scale,
            opts.seed,
            &cfg,
            Box::new(BaselineDp::new()),
        );
        let spawn = levels::run(
            input,
            opts.scale,
            opts.seed,
            &cfg,
            Box::new(SpawnPolicy::from_config(&cfg)),
        );
        let dtbl = levels::run(input, opts.scale, opts.seed, &cfg, Box::new(Dtbl::new()));
        print_row(
            &[
                input.label().to_string(),
                flat.total_cycles.to_string(),
                fmt2(base.speedup_over(flat.total_cycles)),
                fmt2(spawn.speedup_over(flat.total_cycles)),
                fmt2(dtbl.speedup_over(flat.total_cycles)),
            ],
            &widths,
        );
        println!(
            "{:>14}  kernels: baseline {} vs SPAWN {} ({:.0}% fewer)",
            "",
            base.child_kernels_launched,
            spawn.child_kernels_launched,
            100.0
                * (1.0
                    - spawn.child_kernels_launched as f64
                        / base.child_kernels_launched.max(1) as f64),
        );
    }
    println!("# SPAWN's metrics persist across level kernels, warm-starting every");
    println!("# level after the first; see EXPERIMENTS.md for the scale regimes");
    println!("# where that restores the paper's SPAWN > Baseline-DP ordering.");
}
