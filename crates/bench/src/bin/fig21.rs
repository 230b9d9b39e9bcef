//! Fig. 21: SPAWN vs DTBL (Wang et al., ISCA'15), normalized to flat, on
//! SA (thaliana, elegans), MM (small, large), and SSSP (citation,
//! graph500).

use dynapar_bench::{fmt2, print_header, print_row, Options};
use dynapar_core::{Dtbl, SpawnPolicy};
use dynapar_workloads::suite;

fn main() {
    let opts = Options::from_args().unwrap_or_else(|e| e.exit());
    let cfg = opts.config();
    println!(
        "# Fig. 21 — SPAWN vs DTBL, speedup over flat (scale {:?})",
        opts.scale
    );
    let widths = [16, 8, 8, 12, 10];
    print_header(
        &["benchmark", "SPAWN", "DTBL", "agg. CTAs", "DTBL kernels"],
        &widths,
    );
    for name in [
        "SA-thaliana",
        "SA-elegans",
        "MM-small",
        "MM-large",
        "SSSP-citation",
        "SSSP-graph500",
    ] {
        let bench = suite::by_name(name, opts.scale, opts.seed).expect("known");
        let flat = bench.run_flat(&cfg);
        let spawn = bench.run(&cfg, Box::new(SpawnPolicy::from_config(&cfg)));
        let dtbl = bench.run(&cfg, Box::new(Dtbl::new()));
        print_row(
            &[
                name.to_string(),
                fmt2(spawn.speedup_over(flat.total_cycles)),
                fmt2(dtbl.speedup_over(flat.total_cycles)),
                dtbl.aggregated_ctas.to_string(),
                dtbl.child_kernels_launched.to_string(),
            ],
            &widths,
        );
    }
    println!("# paper: SPAWN wins on SA (CTA-limit bound: 1.8x/1.4x), ties on MM,");
    println!("# loses on SSSP (launch-overhead bound, which DTBL eliminates).");
}
