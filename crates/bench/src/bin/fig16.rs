//! Fig. 16: SMX occupancy under Baseline-DP, Offline-Search, and SPAWN.

use dynapar_bench::{pct, print_header, print_row, run_suite_schemes, Options};

fn main() {
    let opts = Options::from_args().unwrap_or_else(|e| e.exit());
    let cfg = opts.config();
    println!("# Fig. 16 — SMX occupancy (scale {:?})", opts.scale);
    let widths = [14, 8, 12, 14, 8];
    print_header(
        &[
            "benchmark",
            "Flat",
            "Baseline-DP",
            "Offline-Search",
            "SPAWN",
        ],
        &widths,
    );
    let mut sums = [0.0f64; 3];
    let mut n = 0u32;
    for runs in run_suite_schemes(&opts.suite(), &cfg, opts.jobs) {
        let (b, o, s) = (
            runs.baseline.occupancy,
            runs.offline_best().occupancy,
            runs.spawn.occupancy,
        );
        sums[0] += b;
        sums[1] += o;
        sums[2] += s;
        n += 1;
        print_row(
            &[
                runs.name.clone(),
                pct(runs.flat.occupancy),
                pct(b),
                pct(o),
                pct(s),
            ],
            &widths,
        );
    }
    println!(
        "# mean occupancy: baseline {} offline {} spawn {} (spawn/baseline {:.2}x)",
        pct(sums[0] / n as f64),
        pct(sums[1] / n as f64),
        pct(sums[2] / n as f64),
        sums[2] / sums[0]
    );
    println!(
        "# paper: SPAWN achieves 1.96x the occupancy of Baseline-DP, within 4% of Offline-Search."
    );
}
