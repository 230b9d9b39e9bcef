//! Fig. 7: performance sensitivity to child CTA dimensions (64, 128, 256
//! threads/CTA), normalized to 32 threads/CTA, under Baseline-DP.

use dynapar_bench::{fmt2, print_header, print_row, Options};
use dynapar_core::BaselineDp;

fn main() {
    let opts = Options::from_args().unwrap_or_else(|e| e.exit());
    let cfg = opts.config();
    println!(
        "# Fig. 7 — child CTA size sensitivity (scale {:?})",
        opts.scale
    );
    let widths = [14, 8, 8, 8];
    print_header(&["benchmark", "CTA-64", "CTA-128", "CTA-256"], &widths);
    for bench in opts.suite() {
        let base = bench
            .with_child_cta_threads(32)
            .run(&cfg, Box::new(BaselineDp::new()));
        let mut cols = vec![bench.name().to_string()];
        for cta in [64u32, 128, 256] {
            let r = bench
                .with_child_cta_threads(cta)
                .run(&cfg, Box::new(BaselineDp::new()));
            cols.push(fmt2(r.speedup_over(base.total_cycles)));
        }
        print_row(&cols, &widths);
    }
    println!("# paper: only AMR (prefers larger CTAs, escapes the CTA-count limit)");
    println!("# and SSSP-graph500 (prefers smaller CTAs, high per-CTA resources)");
    println!("# are sensitive; the rest are within noise.");
}
