//! Seed-sensitivity check: the headline geomeans across several input
//! seeds, to show the reproduction's conclusions do not hinge on one
//! synthetic-input draw.

use dynapar_bench::{fmt2, print_header, print_row, run_suite_schemes, Options};
use dynapar_workloads::suite::{self, geomean};

fn main() {
    let opts = Options::from_args().unwrap_or_else(|e| e.exit());
    let cfg = opts.config();
    println!(
        "# seed sensitivity — headline geomeans across seeds (scale {:?})",
        opts.scale
    );
    let widths = [12, 12, 14, 8, 14];
    print_header(
        &[
            "seed",
            "Baseline-DP",
            "Offline-Search",
            "SPAWN",
            "SPAWN/Offline",
        ],
        &widths,
    );
    for seed in [opts.seed, 7, 1_234_567] {
        let mut base = Vec::new();
        let mut offl = Vec::new();
        let mut spawn = Vec::new();
        for runs in run_suite_schemes(&suite::all(opts.scale, seed), &cfg, opts.jobs) {
            let (b, o, s) = runs.speedups();
            base.push(b);
            offl.push(o);
            spawn.push(s);
        }
        let (gb, go, gs) = (geomean(&base), geomean(&offl), geomean(&spawn));
        print_row(
            &[
                seed.to_string(),
                fmt2(gb),
                fmt2(go),
                fmt2(gs),
                fmt2(gs / go),
            ],
            &widths,
        );
        eprintln!("seeds: {seed} done");
    }
    println!("# stable orderings across seeds = the shapes are structural, not");
    println!("# artifacts of one generator draw.");
}
