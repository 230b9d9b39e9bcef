//! Cross-crate integration tests: the 13 Table I benchmarks run end to
//! end under every launch policy, and the paper's directional results
//! hold at test scale.

use dynapar::core::{AlwaysLaunch, BaselineDp, Dtbl, FixedThreshold, SpawnPolicy};
use dynapar::gpu::{GpuConfig, LaunchController};
use dynapar::workloads::{suite, Benchmark, Scale};

fn cfg() -> GpuConfig {
    GpuConfig::kepler_k20m()
}

fn policies(cfg: &GpuConfig) -> Vec<Box<dyn LaunchController>> {
    vec![
        Box::new(dynapar::gpu::InlineAll),
        Box::new(BaselineDp::new()),
        Box::new(AlwaysLaunch::new()),
        Box::new(FixedThreshold::new(64)),
        Box::new(SpawnPolicy::from_config(cfg)),
        Box::new(Dtbl::new()),
    ]
}

#[test]
fn every_benchmark_conserves_work_under_every_policy() {
    let cfg = cfg();
    for bench in suite::all(Scale::Tiny, suite::DEFAULT_SEED) {
        let expected = bench.total_items();
        for policy in policies(&cfg) {
            let name = policy.name().to_string();
            let r = bench.run(&cfg, policy);
            assert_eq!(
                r.items_total(),
                expected,
                "{} under {} lost or duplicated work",
                bench.name(),
                name
            );
            assert!(r.total_cycles > 0);
        }
    }
}

#[test]
fn flat_runs_never_launch() {
    let cfg = cfg();
    for bench in suite::all(Scale::Tiny, suite::DEFAULT_SEED) {
        let r = bench.run_flat(&cfg);
        assert_eq!(r.child_kernels_launched, 0, "{}", bench.name());
        assert_eq!(r.items_child, 0, "{}", bench.name());
        // Launch sites are still evaluated; every request resolves inline.
        assert_eq!(r.inlined_requests, r.launch_requests, "{}", bench.name());
    }
}

#[test]
fn dtbl_never_creates_kernels() {
    let cfg = cfg();
    for name in ["SA-thaliana", "MM-small", "BFS-graph500"] {
        let bench = suite::by_name(name, Scale::Tiny, 1).expect("known");
        let r = bench.run(&cfg, Box::new(Dtbl::new()));
        assert_eq!(r.child_kernels_launched, 0, "{name}");
        // DTBL still moves work to the GPU through the aggregated path
        // whenever candidates exist.
        if r.launch_requests > 0 && r.aggregated_launches > 0 {
            assert!(r.items_child > 0, "{name}");
        }
    }
}

#[test]
fn full_benchmark_runs_are_deterministic() {
    let cfg = cfg();
    let bench = suite::by_name("BFS-graph500", Scale::Tiny, 7).expect("known");
    let a = bench.run(&cfg, Box::new(SpawnPolicy::from_config(&cfg)));
    let b = bench.run(&cfg, Box::new(SpawnPolicy::from_config(&cfg)));
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.child_kernels_launched, b.child_kernels_launched);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.mem, b.mem);
    assert_eq!(a.child_launch_cycles, b.child_launch_cycles);
}

#[test]
fn different_seeds_give_different_graphs_but_same_structure() {
    let a = suite::by_name("BFS-graph500", Scale::Tiny, 1).expect("known");
    let b = suite::by_name("BFS-graph500", Scale::Tiny, 2).expect("known");
    assert_eq!(a.threads(), b.threads());
    // R-MAT fixes the edge *count*, so compare where the edges landed:
    // two seeds almost surely give different flat execution times.
    let cfg = cfg();
    let ra = a.run_flat(&cfg);
    let rb = b.run_flat(&cfg);
    assert_ne!(
        ra.total_cycles, rb.total_cycles,
        "different seeds should sample different degree sequences"
    );
}

#[test]
fn sa_prefers_offloading_amr_prefers_parent() {
    // The paper's Observation 2/3 dichotomy, at test scale: for SA the
    // best static point offloads most work; for AMR launching everything
    // is harmful.
    let cfg = cfg();

    let sa = suite::by_name("SA-thaliana", Scale::Tiny, 1).expect("known");
    let sa_flat = sa.run_flat(&cfg);
    let sa_dp = sa.run(&cfg, Box::new(BaselineDp::new()));
    assert!(
        sa_dp.total_cycles < sa_flat.total_cycles,
        "SA: DP {} must beat flat {}",
        sa_dp.total_cycles,
        sa_flat.total_cycles
    );

    let amr = suite::by_name("AMR", Scale::Tiny, 1).expect("known");
    let amr_flat = amr.run_flat(&cfg);
    let amr_all = amr.run(&cfg, Box::new(AlwaysLaunch::new()));
    assert!(
        amr_all.total_cycles > amr_flat.total_cycles,
        "AMR: launching everything ({}) must lose to flat ({})",
        amr_all.total_cycles,
        amr_flat.total_cycles
    );
}

#[test]
fn join_uniform_is_dp_neutral() {
    // Balanced tuples never exceed the threshold: Baseline-DP == flat.
    let cfg = cfg();
    let bench = suite::by_name("JOIN-uniform", Scale::Tiny, 1).expect("known");
    let flat = bench.run_flat(&cfg);
    let dp = bench.run(&cfg, Box::new(BaselineDp::new()));
    assert_eq!(dp.child_kernels_launched, 0);
    assert_eq!(dp.total_cycles, flat.total_cycles);
}

#[test]
fn spawn_reduces_kernel_count_versus_always_launch() {
    let cfg = cfg();
    let bench = suite::by_name("AMR", Scale::Tiny, 1).expect("known");
    let all = bench.run(&cfg, Box::new(AlwaysLaunch::new()));
    let spawn = bench.run(&cfg, Box::new(SpawnPolicy::from_config(&cfg)));
    assert!(
        spawn.child_kernels_launched < all.child_kernels_launched,
        "SPAWN ({}) must throttle below launch-everything ({})",
        spawn.child_kernels_launched,
        all.child_kernels_launched
    );
    assert!(
        spawn.total_cycles < all.total_cycles,
        "and be faster on AMR: {} vs {}",
        spawn.total_cycles,
        all.total_cycles
    );
}

#[test]
fn threshold_monotonically_reduces_launches() {
    let cfg = cfg();
    let bench = suite::by_name("SA-thaliana", Scale::Tiny, 1).expect("known");
    let mut last = u64::MAX;
    for t in [0u32, 32, 128, 512, 100_000] {
        let r = bench.run(&cfg, Box::new(FixedThreshold::new(t)));
        assert!(
            r.child_kernels_launched <= last,
            "threshold {t} launched more than a smaller threshold"
        );
        last = r.child_kernels_launched;
    }
    assert_eq!(last, 0, "an impossible threshold launches nothing");
}

#[test]
fn report_metrics_are_sane_across_suite() {
    let cfg = cfg();
    for bench in suite::all(Scale::Tiny, suite::DEFAULT_SEED) {
        let r = bench.run(&cfg, Box::new(BaselineDp::new()));
        assert!(r.occupancy >= 0.0 && r.occupancy <= 1.0, "{}", bench.name());
        let l2 = r.mem.l2_hit_rate();
        assert!((0.0..=1.0).contains(&l2), "{}", bench.name());
        assert!(r.avg_child_queue_latency >= 0.0);
        assert_eq!(
            r.child_ctas_executed as usize,
            r.child_cta_exec_cycles.len(),
            "{}",
            bench.name()
        );
        assert_eq!(
            r.child_kernels_launched as usize,
            r.child_launch_cycles.len(),
            "{}",
            bench.name()
        );
        // Timeline CTA counts never exceed the hardware limit.
        let max = cfg.max_concurrent_ctas();
        for (_, s) in &r.timeline {
            assert!(s.total_ctas() <= max, "{}", bench.name());
        }
    }
}

#[test]
fn benchmark_cta_size_override_is_applied() {
    let cfg = cfg();
    let bench = suite::by_name("SA-thaliana", Scale::Tiny, 1).expect("known");
    let narrow: Benchmark = bench.with_child_cta_threads(32);
    let wide: Benchmark = bench.with_child_cta_threads(256);
    let rn = narrow.run(&cfg, Box::new(BaselineDp::new()));
    let rw = wide.run(&cfg, Box::new(BaselineDp::new()));
    // Same work, both complete; CTA counts differ by geometry.
    assert_eq!(rn.items_total(), rw.items_total());
    assert!(rn.child_ctas_executed > rw.child_ctas_executed);
}

#[test]
fn spawn_beats_baseline_on_level_synchronous_bfs() {
    // The repository's clearest reproduction of the paper's headline: in
    // the multi-kernel (level-synchronous) BFS, SPAWN's metrics stay warm
    // across levels and it decisively outperforms Baseline-DP.
    use dynapar::workloads::apps::{bfs::levels, GraphInput};
    let cfg = cfg();
    let (input, scale, seed) = (GraphInput::Graph500, Scale::Small, 2017);
    let base = levels::run(input, scale, seed, &cfg, Box::new(BaselineDp::new()));
    let spawn = levels::run(
        input,
        scale,
        seed,
        &cfg,
        Box::new(SpawnPolicy::from_config(&cfg)),
    );
    assert_eq!(base.items_total(), spawn.items_total());
    assert!(
        spawn.total_cycles < base.total_cycles,
        "SPAWN ({}) must beat Baseline-DP ({}) on level-synchronous BFS",
        spawn.total_cycles,
        base.total_cycles
    );
    assert!(
        spawn.child_kernels_launched < base.child_kernels_launched,
        "and launch fewer kernels: {} vs {}",
        spawn.child_kernels_launched,
        base.child_kernels_launched
    );
}

#[test]
fn traced_run_matches_untraced_run() {
    // Tracing is observational: it must not perturb the simulation.
    let cfg = cfg();
    let bench = suite::by_name("GC-citation", Scale::Tiny, 3).expect("known");
    let plain = bench.run(&cfg, Box::new(BaselineDp::new()));
    let mut sim = dynapar::gpu::Simulation::builder(cfg.clone())
        .controller(Box::new(BaselineDp::new()))
        .trace(1_000_000)
        .build();
    sim.launch_host(bench.kernel());
    let out = sim.run();
    let (traced, trace) = (out.report, out.trace.expect("trace enabled on builder"));
    assert_eq!(plain.total_cycles, traced.total_cycles);
    assert_eq!(plain.events_processed, traced.events_processed);
    assert_eq!(
        trace.decisions().count() as u64,
        traced.launch_requests,
        "trace records every decision"
    );
}

#[test]
fn free_launch_and_hybrid_run_the_suite_sample() {
    let cfg = cfg();
    for name in ["BFS-graph500", "AMR", "SA-thaliana"] {
        let bench = suite::by_name(name, Scale::Tiny, 1).expect("known");
        let fl = bench.run(&cfg, Box::new(dynapar::core::FreeLaunch::new()));
        assert_eq!(fl.items_total(), bench.total_items(), "{name} free-launch");
        assert_eq!(fl.child_kernels_launched, 0);
        let hybrid = bench.run(
            &cfg,
            Box::new(SpawnPolicy::from_config(&cfg).with_aggregated_launches()),
        );
        assert_eq!(hybrid.items_total(), bench.total_items(), "{name} hybrid");
        assert_eq!(
            hybrid.child_kernels_launched, 0,
            "{name}: hybrid launches only aggregated CTAs"
        );
    }
}

#[test]
fn spec_roundtrip_runs_like_the_original() {
    use dynapar::workloads::BenchmarkSpec;
    let spec = BenchmarkSpec {
        items: (0..512)
            .map(|i| if i % 64 == 0 { 300 } else { 2 })
            .collect(),
        threshold: 64,
        ..BenchmarkSpec::default()
    };
    let text = spec.to_text();
    let rebuilt = BenchmarkSpec::parse(&text).expect("roundtrip");
    let cfg = cfg();
    let a = spec.build(9).run(&cfg, Box::new(BaselineDp::new()));
    let b = rebuilt.build(9).run(&cfg, Box::new(BaselineDp::new()));
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.child_kernels_launched, b.child_kernels_launched);
}
