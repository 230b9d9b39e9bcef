//! Fig. 15: speedup of Baseline-DP, Offline-Search, and SPAWN over the
//! flat (non-DP) implementation, per benchmark plus geometric mean.

use dynapar_bench::{fmt2, print_header, print_row, run_suite_schemes, Options};
use dynapar_workloads::suite::geomean;

fn main() {
    let opts = Options::from_args().unwrap_or_else(|e| e.exit());
    let cfg = opts.config();
    println!(
        "# Fig. 15 — speedup over flat (scale {:?}, seed {})",
        opts.scale, opts.seed
    );
    let widths = [14, 12, 14, 8, 12];
    print_header(
        &[
            "benchmark",
            "Baseline-DP",
            "Offline-Search",
            "SPAWN",
            "flat cycles",
        ],
        &widths,
    );
    let mut base = Vec::new();
    let mut offl = Vec::new();
    let mut spawn = Vec::new();
    for runs in run_suite_schemes(&opts.suite(), &cfg, opts.jobs) {
        let (b, o, s) = runs.speedups();
        base.push(b);
        offl.push(o);
        spawn.push(s);
        print_row(
            &[
                runs.name.clone(),
                fmt2(b),
                fmt2(o),
                fmt2(s),
                runs.flat.total_cycles.to_string(),
            ],
            &widths,
        );
    }
    print_row(
        &[
            "GEOMEAN".into(),
            fmt2(geomean(&base)),
            fmt2(geomean(&offl)),
            fmt2(geomean(&spawn)),
            String::new(),
        ],
        &widths,
    );
    println!();
    println!("# paper: SPAWN +69% over flat, +57% over Baseline-DP, within 6% of Offline-Search");
    println!(
        "# measured: SPAWN/flat {:.2}, SPAWN/Baseline-DP {:.2}, SPAWN/Offline {:.2}",
        geomean(&spawn),
        geomean(&spawn) / geomean(&base),
        geomean(&spawn) / geomean(&offl),
    );
}
