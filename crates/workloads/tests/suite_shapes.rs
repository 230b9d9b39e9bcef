//! Cross-suite distribution-shape tests: each Table I benchmark's
//! workload must have the statistical character its paper counterpart
//! motivates, and the threshold machinery must behave monotonically on
//! all of them.

use dynapar_workloads::{suite, Scale};

#[test]
fn offload_fraction_is_monotone_in_threshold() {
    for bench in suite::all(Scale::Tiny, 1) {
        let mut last = 1.0f64 + 1e-9;
        for t in [0u32, 4, 16, 64, 256, 1024, 1 << 20] {
            let f = bench.offload_at_threshold(t);
            assert!(
                f <= last + 1e-12,
                "{}: offload rose from {last} to {f} at threshold {t}",
                bench.name()
            );
            assert!((0.0..=1.0).contains(&f), "{}", bench.name());
            last = f;
        }
        assert_eq!(
            bench.offload_at_threshold(u32::MAX),
            0.0,
            "{}: impossible threshold offloads nothing",
            bench.name()
        );
    }
}

#[test]
fn threshold_grid_points_are_achievable_and_ordered() {
    for bench in suite::all(Scale::Tiny, 1) {
        let grid = bench.threshold_grid(&[0.1, 0.3, 0.5, 0.7, 0.9]);
        assert!(!grid.is_empty(), "{}", bench.name());
        // Offload at the grid's thresholds is non-increasing when the
        // thresholds are sorted ascending.
        let mut sorted = grid.clone();
        sorted.sort_unstable();
        let fracs: Vec<f64> = sorted
            .iter()
            .map(|&t| bench.offload_at_threshold(t))
            .collect();
        for w in fracs.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "{}", bench.name());
        }
    }
}

#[test]
fn skewed_benchmarks_have_heavy_tails() {
    // Irregular workloads: the max thread dwarfs the median.
    for name in [
        "BFS-graph500",
        "SSSP-graph500",
        "GC-graph500",
        "MM-small",
        "MM-large",
        "SA-thaliana",
        "AMR",
        "Mandel",
    ] {
        let b = suite::by_name(name, Scale::Tiny, 1).expect("known");
        let (_, median, max) = b.workload_spread();
        assert!(
            max as f64 >= 8.0 * (median.max(1)) as f64,
            "{name}: max {max} vs median {median} is not heavy-tailed"
        );
    }
}

#[test]
fn balanced_benchmarks_have_tight_spreads() {
    let b = suite::by_name("JOIN-uniform", Scale::Tiny, 1).expect("known");
    let (min, median, max) = b.workload_spread();
    assert!(max - min <= median, "uniform join spread too wide");

    let b = suite::by_name("BFS-road", Scale::Tiny, 1).expect("extension");
    let (_, _, max) = b.workload_spread();
    assert!(max <= 8, "road graph is near-regular");
}

#[test]
fn scales_grow_work_monotonically() {
    for name in suite::NAMES {
        let tiny = suite::by_name(name, Scale::Tiny, 1).expect("known");
        let small = suite::by_name(name, Scale::Small, 1).expect("known");
        assert!(
            small.total_items() > tiny.total_items(),
            "{name}: Small ({}) not larger than Tiny ({})",
            small.total_items(),
            tiny.total_items()
        );
        assert!(small.threads() >= tiny.threads(), "{name}");
    }
}

#[test]
fn default_thresholds_are_below_the_tail() {
    // Every benchmark's source threshold must leave *some* offloadable
    // work (otherwise its DP variant is vacuous), except the balanced
    // control inputs.
    for bench in suite::all(Scale::Tiny, 1) {
        let f = bench.offload_at_threshold(bench.default_threshold());
        if bench.name() == "JOIN-uniform" {
            assert_eq!(f, 0.0, "uniform join never offloads at its threshold");
        } else {
            assert!(
                f > 0.0,
                "{}: threshold {} leaves nothing to offload",
                bench.name(),
                bench.default_threshold()
            );
        }
    }
}

#[test]
fn per_app_seeds_decorrelate_siblings() {
    // BFS and SSSP share the same graph but must not share random access
    // streams (different seed salts).
    let bfs = suite::by_name("BFS-graph500", Scale::Tiny, 1).expect("known");
    let sssp = suite::by_name("SSSP-graph500", Scale::Tiny, 1).expect("known");
    assert_eq!(bfs.total_items(), sssp.total_items(), "same capped degrees");
    let kb = bfs.kernel();
    let ks = sssp.kernel();
    match (&kb.source, &ks.source) {
        (dynapar_gpu::ThreadSource::Explicit(a), dynapar_gpu::ThreadSource::Explicit(b)) => {
            let same = a
                .iter()
                .zip(b.iter())
                .filter(|(x, y)| x.rand_seed == y.rand_seed)
                .count();
            assert!(
                same * 10 < a.len(),
                "rand seeds should differ between sibling apps ({same}/{})",
                a.len()
            );
        }
        _ => panic!("graph benchmarks use explicit sources"),
    }
}
