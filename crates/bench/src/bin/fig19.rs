//! Fig. 19: concurrent CTAs of BFS-graph500 over time — Baseline-DP vs
//! SPAWN.

use dynapar_bench::Options;
use dynapar_core::{BaselineDp, SpawnPolicy};
use dynapar_gpu::SimReport;
use dynapar_workloads::suite;

fn dump(label: &str, r: &SimReport) {
    println!("## {label}: total {} cycles", r.total_cycles);
    println!(
        "{:>12} {:>8} {:>8} {:>6}",
        "cycle", "parent", "child", "util"
    );
    let stride = (r.timeline.len() / 40).max(1);
    for (t, s) in r.timeline.iter().step_by(stride) {
        println!(
            "{:>12} {:>8} {:>8} {:>6.2}",
            t, s.parent_ctas, s.child_ctas, s.utilization
        );
    }
}

fn main() {
    let opts = Options::from_args().unwrap_or_else(|e| e.exit());
    let cfg = opts.config();
    let bench = suite::by_name("BFS-graph500", opts.scale, opts.seed).expect("known");
    println!("# Fig. 19 — BFS-graph500 concurrency timeline");
    let base = bench.run(&cfg, Box::new(BaselineDp::new()));
    dump("Baseline-DP", &base);
    let spawn = bench.run(&cfg, Box::new(SpawnPolicy::from_config(&cfg)));
    dump("SPAWN", &spawn);
    println!(
        "# SPAWN finishes in {:.0}% of the Baseline-DP time ({} vs {} cycles)",
        100.0 * spawn.total_cycles as f64 / base.total_cycles as f64,
        spawn.total_cycles,
        base.total_cycles
    );
    println!("# paper: SPAWN's longer-lived parents hide launch overheads; the app");
    println!("# finishes at 1600k vs 2400k cycles.");
}
