//! Randomized integration tests: random work-model programs through the
//! full stack must conserve work, stay within hardware limits, and be
//! deterministic. Programs are generated from a seeded [`DetRng`] (no
//! external test dependencies); failures report the case index.

use std::sync::Arc;

use dynapar::core::{BaselineDp, SpawnPolicy};
use dynapar::engine::DetRng;
use dynapar::gpu::{
    DpSpec, GpuConfig, KernelDesc, SimReport, Simulation, ThreadSource, ThreadWork, WorkClass,
};

const CASES: u64 = 24;

/// A random but valid DP program description.
#[derive(Debug, Clone)]
struct Program {
    items: Vec<u32>,
    cta_threads: u32,
    child_cta_threads: u32,
    items_per_thread: u32,
    threshold: u32,
    compute: u32,
    rand_refs: u8,
}

fn random_program(rng: &mut DetRng) -> Program {
    let items: Vec<u32> = (0..1 + rng.below(299))
        .map(|_| rng.below(400) as u32)
        .collect();
    let cta_choices = [32u32, 64, 128, 256];
    let child_choices = [32u32, 64, 128];
    Program {
        items,
        cta_threads: cta_choices[rng.below(4) as usize],
        child_cta_threads: child_choices[rng.below(3) as usize],
        items_per_thread: 1 + rng.below(7) as u32,
        threshold: rng.below(200) as u32,
        compute: 1 + rng.below(39) as u32,
        rand_refs: rng.below(3) as u8,
    }
}

fn build(p: &Program) -> KernelDesc {
    let mk = |label: &'static str| WorkClass {
        label,
        compute_per_item: p.compute,
        init_cycles: 10,
        seq_bytes_per_item: 8,
        rand_refs_per_item: p.rand_refs,
        rand_region_base: 0x8000_0000,
        rand_region_bytes: 1 << 20,
        writes_per_item: 1,
    };
    let threads: Vec<ThreadWork> = p
        .items
        .iter()
        .enumerate()
        .map(|(t, &n)| ThreadWork {
            items: n,
            seq_base: 0x1000_0000 + t as u64 * 8192,
            rand_seed: t as u64,
        })
        .collect();
    KernelDesc {
        name: "prop".into(),
        cta_threads: p.cta_threads,
        regs_per_thread: 24,
        shmem_per_cta: 0,
        class: Arc::new(mk("prop-parent")),
        source: ThreadSource::Explicit(threads.into()),
        dp: Some(Arc::new(DpSpec {
            child_class: Arc::new(mk("prop-child")),
            child_cta_threads: p.child_cta_threads,
            child_items_per_thread: p.items_per_thread,
            child_regs_per_thread: 16,
            child_shmem_per_cta: 0,
            min_items: 8,
            default_threshold: p.threshold,
            nested: None,
        })),
    }
}

fn run(p: &Program, spawn: bool) -> SimReport {
    let cfg = GpuConfig::test_small();
    let controller: Box<dyn dynapar::gpu::LaunchController> = if spawn {
        Box::new(SpawnPolicy::from_config(&cfg))
    } else {
        Box::new(BaselineDp::new())
    };
    let mut sim = Simulation::builder(cfg).controller(controller).build();
    sim.launch_host(build(p));
    sim.run().report
}

#[test]
fn random_programs_conserve_work() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0xc095_0000 + case);
        let p = random_program(&mut rng);
        let expected: u64 = p.items.iter().map(|&i| i as u64).sum();
        let r = run(&p, false);
        assert_eq!(r.items_total(), expected, "case {case}");
        let r = run(&p, true);
        assert_eq!(r.items_total(), expected, "case {case}");
    }
}

#[test]
fn random_programs_are_deterministic() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0xde7e_0000 + case);
        let p = random_program(&mut rng);
        let a = run(&p, true);
        let b = run(&p, true);
        assert_eq!(a.total_cycles, b.total_cycles, "case {case}");
        assert_eq!(a.events_processed, b.events_processed, "case {case}");
        assert_eq!(
            a.child_kernels_launched, b.child_kernels_launched,
            "case {case}"
        );
    }
}

#[test]
fn cta_limit_never_violated() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x11fa_0000 + case);
        let p = random_program(&mut rng);
        let cfg = GpuConfig::test_small();
        let max = cfg.max_concurrent_ctas();
        let r = run(&p, false);
        for (_, s) in &r.timeline {
            assert!(s.total_ctas() <= max, "case {case}");
            assert!(
                s.utilization >= 0.0 && s.utilization <= 1.0001,
                "case {case}"
            );
        }
    }
}

#[test]
fn launch_accounting_balances() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0xacc7_0000 + case);
        let p = random_program(&mut rng);
        let r = run(&p, false);
        // Every candidate request resolves to exactly one of the paths.
        assert_eq!(
            r.launch_requests,
            r.child_kernels_launched + r.inlined_requests + r.aggregated_launches,
            "case {case}"
        );
        // Offloaded work exists iff something was launched.
        if r.child_kernels_launched == 0 && r.aggregated_launches == 0 {
            assert_eq!(r.items_child, 0, "case {case}");
        }
    }
}
