//! Fig. 18: number of child kernels launched under Baseline-DP,
//! Offline-Search, and SPAWN.

use dynapar_bench::{print_header, print_row, run_suite_schemes, Options};

fn main() {
    let opts = Options::from_args().unwrap_or_else(|e| e.exit());
    let cfg = opts.config();
    println!(
        "# Fig. 18 — child kernels launched (scale {:?})",
        opts.scale
    );
    let widths = [14, 12, 14, 8];
    print_header(
        &["benchmark", "Baseline-DP", "Offline-Search", "SPAWN"],
        &widths,
    );
    let mut base_total = 0u64;
    let mut spawn_total = 0u64;
    for runs in run_suite_schemes(&opts.suite(), &cfg, opts.jobs) {
        base_total += runs.baseline.child_kernels_launched;
        spawn_total += runs.spawn.child_kernels_launched;
        print_row(
            &[
                runs.name.clone(),
                runs.baseline.child_kernels_launched.to_string(),
                runs.offline_best().child_kernels_launched.to_string(),
                runs.spawn.child_kernels_launched.to_string(),
            ],
            &widths,
        );
    }
    println!(
        "# total: baseline {} spawn {} (reduction {:.0}%)",
        base_total,
        spawn_total,
        100.0 * (1.0 - spawn_total as f64 / base_total as f64)
    );
    println!("# paper: SPAWN launches 73% fewer child kernels on average.");
}
