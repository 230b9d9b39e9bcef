//! Adaptive Mesh Refinement (Table I: AMR), after the combustion-
//! simulation workload of Wang & Yalamanchili's DP characterization.
//!
//! One parent thread per coarse cell. Cells near the (synthetic) flame
//! front are *hot* and need deep refinement — large workloads — while the
//! bulk of the domain is quiescent. The DP version is the paper's
//! pathological case: children launch **nested** grandchildren, the child
//! CTAs are small and numerous, and the program slams into the
//! concurrent-CTA hardware limit, which is why AMR prefers computing in
//! the parent threads (Observation 2, Fig. 5).

use std::sync::Arc;

use dynapar_engine::DetRng;
use dynapar_gpu::{DpSpec, KernelDesc, WorkClass};

use crate::program::{explicit_source, regions, Benchmark, Scale};

/// Default source-level `THRESHOLD`.
pub const DEFAULT_THRESHOLD: u32 = 96;

/// Items per child thread — each child thread refines one sub-cell,
/// itself a loop over that sub-cell's stencil updates, big enough to
/// trigger the nested (grandchild) launch site.
pub const CHILD_ITEMS_PER_THREAD: u32 = 32;

/// Fraction of cells on the flame front (hot).
pub const HOT_FRACTION: f64 = 0.06;

/// Builds the AMR benchmark.
///
/// # Examples
///
/// ```
/// use dynapar_workloads::{apps::amr, Scale};
///
/// let b = amr::build(Scale::Tiny, 42);
/// assert_eq!(b.name(), "AMR");
/// ```
pub fn build(scale: Scale, seed: u64) -> Benchmark {
    let cells = 2048 * scale.factor() as usize;
    let mut rng = DetRng::new(seed ^ 0xA3_7000);
    let items: Vec<u32> = (0..cells)
        .map(|_| {
            if rng.chance(HOT_FRACTION) {
                // Flame-front cell: deep refinement.
                rng.range_inclusive(256, 1024) as u32
            } else {
                // Quiescent cell: a few stencil sweeps.
                rng.range_inclusive(4, 24) as u32
            }
        })
        .collect();
    let mesh_bytes = (cells as u64 * 64).max(4096);
    let mk_class = |label: &'static str, compute: u32, init: u32| WorkClass {
        label,
        compute_per_item: compute,
        init_cycles: init,
        seq_bytes_per_item: 8, // cell-state stream
        rand_refs_per_item: 1, // neighbour-cell lookup
        rand_region_base: regions::AUX_BASE,
        rand_region_bytes: mesh_bytes,
        writes_per_item: 1, // flux update
    };
    // Level-2: grandchildren — tiny CTAs, one stencil update per thread.
    let grandchild = Arc::new(DpSpec {
        child_class: Arc::new(mk_class("amr-grandchild", 22, 16)),
        child_cta_threads: 32,
        child_items_per_thread: 1,
        child_regs_per_thread: 16,
        child_shmem_per_cta: 0,
        min_items: 16,
        default_threshold: 24,
        nested: None,
    });
    // Level-1: children — each thread refines one sub-cell (64 items),
    // which is above the nested threshold, so children re-launch.
    let child = Arc::new(DpSpec {
        child_class: Arc::new(mk_class("amr-child", 26, 20)),
        child_cta_threads: 32,
        child_items_per_thread: CHILD_ITEMS_PER_THREAD,
        child_regs_per_thread: 24,
        child_shmem_per_cta: 1024,
        min_items: 96,
        default_threshold: DEFAULT_THRESHOLD,
        nested: Some(grandchild),
    });
    let desc = KernelDesc {
        name: "AMR".into(),
        cta_threads: 64,
        regs_per_thread: 32,
        shmem_per_cta: 4096, // stencil staging
        class: Arc::new(mk_class("amr-parent", 30, 40)),
        source: explicit_source(&items, 8, seed ^ 0xA3_0001),
        dp: Some(child),
    };
    Benchmark::new("AMR", "AMR", "combustion mesh", desc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynapar_core::BaselineDp;
    use dynapar_gpu::GpuConfig;

    #[test]
    fn hot_cells_dominate_work() {
        let b = build(Scale::Tiny, 1);
        let (min, median, max) = b.workload_spread();
        assert!(min >= 4);
        assert!(median <= 24, "most cells are quiescent");
        assert!(max >= 256, "flame-front cells are deep");
    }

    #[test]
    fn baseline_dp_nests_launches() {
        let b = build(Scale::Tiny, 1);
        let r = b.run(&GpuConfig::test_small(), Box::new(BaselineDp::new()));
        assert_eq!(r.items_total(), b.total_items());
        // Hot cells spawn children; child threads (64 items each, over the
        // nested threshold 48) spawn grandchildren — so launches must
        // exceed the number of hot cells by a wide margin.
        let hot_cells = 2048 * 6 / 100; // ~6% of 2048
        assert!(
            r.child_kernels_launched > hot_cells,
            "nested launches expected, got {}",
            r.child_kernels_launched
        );
    }
}

/// A multi-timestep AMR run: the flame front *propagates* across the
/// mesh, so each timestep launches one parent kernel whose hot region has
/// moved. Exercises the repeated-kernel shape of real AMR time loops
/// (and gives SPAWN's metrics a warm start from step 1 on).
pub mod timesteps {

    use dynapar_engine::{hash_mix, DetRng};
    use dynapar_gpu::{
        GpuConfig, KernelDesc, LaunchController, SimReport, Simulation, ThreadSource, ThreadWork,
    };

    use crate::program::{regions, Scale};

    /// Mesh side length per scale (cells = side²).
    pub fn side_at(scale: Scale) -> usize {
        match scale {
            Scale::Tiny => 48,
            Scale::Small => 96,
            Scale::Paper => 180,
        }
    }

    /// Per-cell refinement work for one timestep of a front sweeping from
    /// left to right: cells within the band around `front_x` are hot.
    ///
    /// Returns an items vector of length `side * side`.
    pub fn step_items(side: usize, front_x: f64, band: f64, rng: &mut DetRng) -> Vec<u32> {
        let mut items = Vec::with_capacity(side * side);
        for r in 0..side {
            for c in 0..side {
                let x = c as f64 / side as f64;
                let dist = (x - front_x).abs();
                // Roughness makes the band irregular row to row.
                let wobble = (hash_mix(r as u64 * 31 + c as u64) % 100) as f64 / 1000.0;
                let hot = dist < band + wobble;
                items.push(if hot {
                    rng.range_inclusive(192, 768) as u32
                } else {
                    rng.range_inclusive(2, 12) as u32
                });
            }
        }
        items
    }

    /// Builds one parent kernel per timestep as the front crosses the mesh.
    pub fn build_kernels(scale: Scale, steps: u32, seed: u64) -> Vec<KernelDesc> {
        let side = side_at(scale);
        let mut rng = DetRng::new(seed ^ 0xA3_57E9);
        let g = super::build(scale, seed); // reuse the single-step DP spec
        let dp = g.kernel().dp.expect("AMR is a DP program");
        let class = g.kernel().class;
        (0..steps)
            .map(|step| {
                let front = (step as f64 + 0.5) / steps as f64;
                let items = step_items(side, front, 0.04, &mut rng);
                let threads: Vec<ThreadWork> = items
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| ThreadWork {
                        items: n,
                        seq_base: regions::STREAM_BASE + i as u64 * 64,
                        rand_seed: seed ^ hash_mix(step as u64 * 131 + i as u64),
                    })
                    .collect();
                KernelDesc {
                    name: format!("amr-step-{step}").into(),
                    cta_threads: 64,
                    regs_per_thread: 32,
                    shmem_per_cta: 4096,
                    class: class.clone(),
                    source: ThreadSource::Explicit(threads.into()),
                    dp: Some(dp.clone()),
                }
            })
            .collect()
    }

    /// Runs `steps` timesteps (serialized on the default stream).
    pub fn run(
        scale: Scale,
        steps: u32,
        seed: u64,
        cfg: &GpuConfig,
        controller: Box<dyn LaunchController>,
    ) -> SimReport {
        let mut sim = Simulation::builder(cfg.clone())
            .controller(controller)
            .build();
        for k in build_kernels(scale, steps, seed) {
            sim.launch_host(k);
        }
        sim.run().report
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn front_moves_between_steps() {
            let side = 32;
            let mut rng = DetRng::new(1);
            let early = step_items(side, 0.1, 0.05, &mut rng);
            let mut rng = DetRng::new(1);
            let late = step_items(side, 0.9, 0.05, &mut rng);
            // Hot cells (items > 100) sit left early, right late.
            let centroid = |items: &[u32]| {
                let mut sum = 0usize;
                let mut n = 0usize;
                for (i, &v) in items.iter().enumerate() {
                    if v > 100 {
                        sum += i % side;
                        n += 1;
                    }
                }
                sum as f64 / n.max(1) as f64
            };
            let ce = centroid(&early);
            let cl = centroid(&late);
            assert!(
                cl > ce + side as f64 * 0.5,
                "front did not move: early {ce:.1}, late {cl:.1}"
            );
        }

        #[test]
        fn timestep_kernels_conserve_work_across_policies() {
            let cfg = dynapar_gpu::GpuConfig::test_small();
            let flat = run(Scale::Tiny, 3, 7, &cfg, Box::new(dynapar_gpu::InlineAll));
            let spawn = run(
                Scale::Tiny,
                3,
                7,
                &cfg,
                Box::new(dynapar_core::SpawnPolicy::from_config(&cfg)),
            );
            assert_eq!(flat.items_total(), spawn.items_total());
            assert_eq!(flat.kernels.len(), 3, "three host kernels, no children");
            assert!(spawn.total_cycles > 0);
        }

        #[test]
        fn steps_serialize_on_default_stream() {
            let cfg = dynapar_gpu::GpuConfig::test_small();
            let r = run(Scale::Tiny, 3, 7, &cfg, Box::new(dynapar_gpu::InlineAll));
            // Host kernels are the first three entries, in order.
            let k0_done = r.kernels[0].own_done_at.expect("done");
            let k1_start = r.kernels[1].first_dispatch.expect("dispatched");
            assert!(k1_start >= k0_done);
        }
    }
}
