//! Table I: the benchmark suite — applications, inputs, and the synthetic
//! workload statistics standing in for the paper's real inputs.

use dynapar_bench::{print_header, print_row, Options};

fn main() {
    let opts = Options::from_args().unwrap_or_else(|e| e.exit());
    println!(
        "# Table I — benchmarks (scale {:?}, seed {})",
        opts.scale, opts.seed
    );
    let widths = [14, 6, 16, 9, 10, 22, 10];
    print_header(
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
    );
    for b in opts.suite() {
        let (min, med, max) = b.workload_spread();
        print_row(
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
        );
    }
}
