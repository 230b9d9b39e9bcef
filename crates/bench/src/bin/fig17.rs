//! Fig. 17: L2 cache hit rate under Baseline-DP, Offline-Search, SPAWN.

use dynapar_bench::{pct, print_header, print_row, run_suite_schemes, Options};

fn main() {
    let opts = Options::from_args().unwrap_or_else(|e| e.exit());
    let cfg = opts.config();
    println!("# Fig. 17 — L2 hit rate (scale {:?})", opts.scale);
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
    let mut d = 0.0;
    let mut n = 0u32;
    for runs in run_suite_schemes(&opts.suite(), &cfg, opts.jobs) {
        let (b, o, s) = (
            runs.baseline.mem.l2_hit_rate(),
            runs.offline_best().mem.l2_hit_rate(),
            runs.spawn.mem.l2_hit_rate(),
        );
        d += s - b;
        n += 1;
        print_row(
            &[
                runs.name.clone(),
                pct(runs.flat.mem.l2_hit_rate()),
                pct(b),
                pct(o),
                pct(s),
            ],
            &widths,
        );
    }
    println!(
        "# mean SPAWN-vs-baseline L2 hit-rate delta: {}",
        pct(d / n as f64)
    );
    println!("# paper: SPAWN improves L2 hit rate ~10% over Baseline-DP by restoring");
    println!("# parent-child temporal/spatial locality.");
}
