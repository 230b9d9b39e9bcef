//! The full policy × benchmark matrix: every launch policy (including the
//! extensions) on every Table I benchmark, speedup over flat. The
//! one-stop overview table for the repository.

use dynapar_bench::{fmt2, print_header, print_row, Options};
use dynapar_core::{AdaptiveThreshold, AlwaysLaunch, BaselineDp, Dtbl, FreeLaunch, SpawnPolicy};
use dynapar_gpu::{GpuConfig, LaunchController};
use dynapar_workloads::suite::geomean;
use dynapar_workloads::Benchmark;

const POLICIES: [&str; 6] = [
    "Baseline-DP",
    "Always",
    "SPAWN",
    "SPAWN+DTBL",
    "DTBL",
    "Free-Launch",
];

fn build(policy: &str, cfg: &GpuConfig, bench: &Benchmark) -> Box<dyn LaunchController> {
    match policy {
        "Baseline-DP" => Box::new(BaselineDp::new()),
        "Always" => Box::new(AlwaysLaunch::new()),
        "SPAWN" => Box::new(SpawnPolicy::from_config(cfg)),
        "SPAWN+DTBL" => Box::new(SpawnPolicy::from_config(cfg).with_aggregated_launches()),
        "DTBL" => Box::new(Dtbl::new()),
        "Free-Launch" => Box::new(FreeLaunch::new()),
        "Adaptive" => Box::new(AdaptiveThreshold::new(
            bench.default_threshold().max(1),
            1 << 14,
        )),
        other => unreachable!("unknown policy {other}"),
    }
}

fn main() {
    let opts = Options::from_args().unwrap_or_else(|e| e.exit());
    let cfg = opts.config();
    println!(
        "# policy x benchmark matrix — speedup over flat (scale {:?})",
        opts.scale
    );
    let mut widths = vec![14usize];
    widths.extend(POLICIES.iter().map(|p| p.len().max(6)));
    let mut header = vec!["benchmark"];
    header.extend(POLICIES);
    print_header(&header, &widths);
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); POLICIES.len()];
    for bench in opts.suite() {
        let flat = bench.run_flat(&cfg);
        let mut cols = vec![bench.name().to_string()];
        for (i, policy) in POLICIES.iter().enumerate() {
            let r = bench.run(&cfg, build(policy, &cfg, &bench));
            let s = r.speedup_over(flat.total_cycles);
            columns[i].push(s);
            cols.push(fmt2(s));
        }
        print_row(&cols, &widths);
    }
    let mut cols = vec!["GEOMEAN".to_string()];
    for c in &columns {
        cols.push(fmt2(geomean(c)));
    }
    print_row(&cols, &widths);
}
