//! Single-Source Shortest Path (Table I: SSSP-citation, SSSP-graph500).
//!
//! Structure mirrors BFS but each edge relaxation is heavier: it reads the
//! edge weight, probes *and* conditionally updates the distance array (two
//! random references), and writes the updated frontier. The paper notes
//! SSSP's child CTAs have high per-CTA resource demands and prefer small
//! CTA dimensions (Fig. 7), so the child geometry is 32 threads per CTA
//! with a fat register budget.

use crate::apps::graph_common::{build as graph_build, GraphAppSpec};
use crate::apps::GraphInput;
use crate::program::{Benchmark, Scale};

/// Default source-level `THRESHOLD`.
pub const DEFAULT_THRESHOLD: u32 = 8;

/// Builds an SSSP benchmark on the given graph input.
///
/// # Examples
///
/// ```
/// use dynapar_workloads::{apps::{sssp, GraphInput}, Scale};
///
/// let b = sssp::build(GraphInput::Citation, Scale::Tiny, 42);
/// assert_eq!(b.name(), "SSSP-citation");
/// ```
pub fn build(input: GraphInput, scale: Scale, seed: u64) -> Benchmark {
    graph_build(
        GraphAppSpec {
            app: "SSSP",
            parent_label: "sssp-parent",
            child_label: "sssp-child",
            compute_per_edge: 32,
            rand_refs: 2,
            writes: 1,
            child_cta_threads: 32,
            child_regs: 40,
            threshold: DEFAULT_THRESHOLD,
            min_items: 8,
            seed_salt: 0x555,
            degree_cap_citation: 192,
            degree_cap_graph500: 512,
        },
        input,
        scale,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynapar_core::BaselineDp;
    use dynapar_gpu::GpuConfig;

    #[test]
    fn builds_and_runs() {
        let b = build(GraphInput::Graph500, Scale::Tiny, 3);
        let r = b.run(&GpuConfig::test_small(), Box::new(BaselineDp::new()));
        assert_eq!(r.items_total(), b.total_items());
        assert!(r.child_kernels_launched > 0);
    }

    #[test]
    fn heavier_than_bfs_per_edge() {
        // Same graph, SSSP should take longer than BFS flat (more compute
        // and an extra random reference per edge).
        let sssp = build(GraphInput::Citation, Scale::Tiny, 3);
        let bfs = crate::apps::bfs::build(GraphInput::Citation, Scale::Tiny, 3);
        let cfg = GpuConfig::test_small();
        let rs = sssp.run_flat(&cfg);
        let rb = bfs.run_flat(&cfg);
        assert!(rs.total_cycles > rb.total_cycles);
    }
}

/// A full Bellman-Ford-style SSSP: repeated relaxation rounds, one parent
/// kernel per round over the vertices whose distance changed in the
/// previous round (the "active set"), until convergence. Edge weights are
/// synthesized deterministically from the edge endpoints.
///
/// This is the multi-kernel execution shape of real SSSP codes; the
/// single-kernel [`build`] variant models one representative round.
pub mod rounds {
    use std::sync::Arc;

    use dynapar_engine::hash_mix;
    use dynapar_gpu::{
        DpSpec, GpuConfig, KernelDesc, LaunchController, SimReport, Simulation, ThreadSource,
        ThreadWork, WorkClass,
    };

    use crate::apps::GraphInput;
    use crate::graphs::Csr;
    use crate::program::{regions, Scale};

    /// Deterministic synthetic weight for edge `(u, v)` in `1..=max`.
    pub fn edge_weight(u: u32, v: u32, max: u32) -> u32 {
        (hash_mix(((u as u64) << 32) | v as u64) % max as u64) as u32 + 1
    }

    /// The relaxation schedule of a full SSSP run: per-round active sets.
    #[derive(Debug, Clone)]
    pub struct Schedule {
        /// Vertices relaxed in each round (round 0 = the source).
        pub active_sets: Vec<Vec<u32>>,
        /// Final distances (`u32::MAX` = unreachable).
        pub distances: Vec<u32>,
    }

    /// Runs Bellman-Ford host-side from `source` with synthetic weights,
    /// recording which vertices were active each round.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn relax(g: &Csr, source: u32, max_weight: u32) -> Schedule {
        assert!((source as usize) < g.vertex_count(), "source out of range");
        let mut dist = vec![u32::MAX; g.vertex_count()];
        dist[source as usize] = 0;
        let mut active = vec![source];
        let mut active_sets = Vec::new();
        while !active.is_empty() {
            active_sets.push(active.clone());
            let mut changed: Vec<u32> = Vec::new();
            let mut in_next = vec![false; g.vertex_count()];
            for &u in &active {
                let du = dist[u as usize];
                for &v in g.neighbors(u) {
                    let cand = du.saturating_add(edge_weight(u, v, max_weight));
                    if cand < dist[v as usize] {
                        dist[v as usize] = cand;
                        if !in_next[v as usize] {
                            in_next[v as usize] = true;
                            changed.push(v);
                        }
                    }
                }
            }
            active = changed;
        }
        Schedule {
            active_sets,
            distances: dist,
        }
    }

    /// Per-thread workload cap (matches the single-kernel benchmark).
    pub const DEGREE_CAP: u32 = 512;

    /// Builds one parent kernel per relaxation round.
    pub fn build_kernels(input: GraphInput, scale: Scale, seed: u64) -> Vec<KernelDesc> {
        let g = input.generate(scale, seed);
        let sched = relax(&g, 0, 64);
        let state_bytes = (g.vertex_count() as u64 * 8).max(4096);
        let mk_class = |label: &'static str, init: u32| WorkClass {
            label,
            compute_per_item: 32,
            init_cycles: init,
            seq_bytes_per_item: 4,
            rand_refs_per_item: 2, // distance read + conditional update
            rand_region_base: regions::AUX_BASE,
            rand_region_bytes: state_bytes,
            writes_per_item: 1,
        };
        let dp = Arc::new(DpSpec {
            child_class: Arc::new(mk_class("sssp-round-child", 24)),
            child_cta_threads: 32,
            child_items_per_thread: 1,
            child_regs_per_thread: 40,
            child_shmem_per_cta: 0,
            min_items: 8,
            default_threshold: super::DEFAULT_THRESHOLD,
            nested: None,
        });
        let class = Arc::new(mk_class("sssp-round-parent", 40));
        sched
            .active_sets
            .iter()
            .enumerate()
            .filter_map(|(round, active)| {
                let threads: Vec<ThreadWork> = active
                    .iter()
                    .map(|&v| ThreadWork {
                        items: g.degree(v).min(DEGREE_CAP),
                        seq_base: regions::STREAM_BASE + g.row_offset(v) as u64 * 4,
                        rand_seed: seed ^ hash_mix(v as u64),
                    })
                    .collect();
                if threads.iter().all(|t| t.items == 0) {
                    return None;
                }
                Some(KernelDesc {
                    name: format!("sssp-round-{round}").into(),
                    cta_threads: 64,
                    regs_per_thread: 32,
                    shmem_per_cta: 0,
                    class: class.clone(),
                    source: ThreadSource::Explicit(threads.into()),
                    dp: Some(dp.clone()),
                })
            })
            .collect()
    }

    /// Runs the whole relaxation schedule under `controller` (rounds
    /// serialize on the host default stream).
    pub fn run(
        input: GraphInput,
        scale: Scale,
        seed: u64,
        cfg: &GpuConfig,
        controller: Box<dyn LaunchController>,
    ) -> SimReport {
        let mut sim = Simulation::builder(cfg.clone())
            .controller(controller)
            .build();
        for k in build_kernels(input, scale, seed) {
            sim.launch_host(k);
        }
        sim.run().report
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn weights_are_deterministic_and_bounded() {
            for (u, v) in [(0u32, 1u32), (5, 9), (1000, 3)] {
                let w = edge_weight(u, v, 64);
                assert_eq!(w, edge_weight(u, v, 64));
                assert!((1..=64).contains(&w));
            }
            assert_ne!(edge_weight(1, 2, 64), edge_weight(2, 1, 64));
        }

        #[test]
        fn relaxation_computes_shortest_paths_on_a_path_graph() {
            // 0 -> 1 -> 2 with known weights.
            let g = crate::graphs::Csr::from_edges(3, &[(0, 1), (1, 2)]);
            let s = relax(&g, 0, 8);
            let w01 = edge_weight(0, 1, 8);
            let w12 = edge_weight(1, 2, 8);
            assert_eq!(s.distances, vec![0, w01, w01 + w12]);
            assert_eq!(s.active_sets[0], vec![0]);
        }

        #[test]
        fn relaxation_prefers_cheaper_two_hop_route() {
            // 0 -> 2 direct vs 0 -> 1 -> 2: whichever is cheaper must win.
            let g = crate::graphs::Csr::from_edges(3, &[(0, 2), (0, 1), (1, 2)]);
            let s = relax(&g, 0, 16);
            let direct = edge_weight(0, 2, 16);
            let via = edge_weight(0, 1, 16) + edge_weight(1, 2, 16);
            assert_eq!(s.distances[2], direct.min(via));
        }

        #[test]
        fn round_kernels_run_under_all_policies() {
            let cfg = dynapar_gpu::GpuConfig::test_small();
            let input = GraphInput::Graph500;
            let flat = run(
                input,
                Scale::Tiny,
                3,
                &cfg,
                Box::new(dynapar_gpu::InlineAll),
            );
            let dp = run(
                input,
                Scale::Tiny,
                3,
                &cfg,
                Box::new(dynapar_core::BaselineDp::new()),
            );
            assert_eq!(flat.items_total(), dp.items_total());
            assert!(flat.items_total() > 0);
        }

        #[test]
        fn distances_never_increase_with_more_rounds() {
            let mut rng = dynapar_engine::DetRng::new(11);
            let g = crate::graphs::rmat(8, 4, &mut rng);
            let s = relax(&g, 0, 32);
            // Every reachable vertex appears in at least one active set.
            let reached = s.distances.iter().filter(|&&d| d != u32::MAX).count();
            let activated: std::collections::HashSet<u32> =
                s.active_sets.iter().flatten().copied().collect();
            assert!(activated.len() <= reached);
            assert!(reached >= 1);
        }
    }
}
