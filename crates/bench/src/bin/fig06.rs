//! Fig. 6: CTA concurrency and resource utilization over the execution of
//! BFS-graph500 under Baseline-DP.

use dynapar_bench::Options;
use dynapar_core::BaselineDp;
use dynapar_workloads::suite;

fn main() {
    let opts = Options::from_args().unwrap_or_else(|e| e.exit());
    let cfg = opts.config();
    let bench = suite::by_name("BFS-graph500", opts.scale, opts.seed).expect("known");
    let r = bench.run(&cfg, Box::new(BaselineDp::new()));
    println!(
        "# Fig. 6 — BFS-graph500 Baseline-DP timeline (max CTAs = {})",
        cfg.max_concurrent_ctas()
    );
    println!(
        "{:>12} {:>8} {:>8} {:>8} {:>6}",
        "cycle", "parent", "child", "total", "util"
    );
    let stride = (r.timeline.len() / 60).max(1);
    for (t, s) in r.timeline.iter().step_by(stride) {
        println!(
            "{:>12} {:>8} {:>8} {:>8} {:>6.2}",
            t,
            s.parent_ctas,
            s.child_ctas,
            s.total_ctas(),
            s.utilization
        );
    }
    let peak = r
        .timeline
        .iter()
        .map(|(_, s)| s.total_ctas())
        .max()
        .unwrap_or(0);
    println!(
        "# peak concurrent CTAs {} of {}",
        peak,
        cfg.max_concurrent_ctas()
    );
    println!("# paper: parents first, child CTAs rise to the hardware limit, then");
    println!("# fluctuate low once only lightweight children remain.");
}
