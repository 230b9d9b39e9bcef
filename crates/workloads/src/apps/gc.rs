//! Graph Coloring (Table I: GC-citation, GC-graph500), after GraphBIG's
//! conflict-resolution coloring.
//!
//! One parent thread per vertex; each unit of work inspects a neighbour's
//! colour (random read) and updates the conflict set. GC uses a higher
//! source `THRESHOLD` (64) than BFS/SSSP — the paper observes that on the
//! citation input fewer than ~2,300 children are launched and the parent
//! retains enough work to hide their overhead, so Baseline-DP and flat are
//! nearly indistinguishable there.

use crate::apps::graph_common::{build as graph_build, GraphAppSpec};
use crate::apps::GraphInput;
use crate::program::{Benchmark, Scale};

/// Default source-level `THRESHOLD`.
pub const DEFAULT_THRESHOLD: u32 = 16;

/// Builds a graph-coloring benchmark on the given graph input.
///
/// # Examples
///
/// ```
/// use dynapar_workloads::{apps::{gc, GraphInput}, Scale};
///
/// let b = gc::build(GraphInput::Citation, Scale::Tiny, 42);
/// assert_eq!(b.name(), "GC-citation");
/// ```
pub fn build(input: GraphInput, scale: Scale, seed: u64) -> Benchmark {
    graph_build(
        GraphAppSpec {
            app: "GC",
            parent_label: "gc-parent",
            child_label: "gc-child",
            compute_per_edge: 24,
            rand_refs: 1,
            writes: 1,
            child_cta_threads: 64,
            child_regs: 20,
            threshold: DEFAULT_THRESHOLD,
            min_items: 8,
            seed_salt: 0x6C0,
            degree_cap_citation: 128,
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
    fn builds_on_both_inputs() {
        for input in [GraphInput::Citation, GraphInput::Graph500] {
            let b = build(input, Scale::Tiny, 5);
            assert_eq!(b.app(), "GC");
        }
    }

    #[test]
    fn high_threshold_launches_fewer_children_than_bfs() {
        let cfg = GpuConfig::test_small();
        let seed = 5;
        let gc = build(GraphInput::Graph500, Scale::Tiny, seed);
        let bfs = crate::apps::bfs::build(GraphInput::Graph500, Scale::Tiny, seed);
        let r_gc = gc.run(&cfg, Box::new(BaselineDp::new()));
        let r_bfs = bfs.run(&cfg, Box::new(BaselineDp::new()));
        assert!(
            r_gc.child_kernels_launched <= r_bfs.child_kernels_launched,
            "GC threshold 256 must not launch more children than BFS's 128"
        );
    }
}

/// A full Jones–Plassmann graph coloring: independent-set rounds, one
/// parent kernel per round over the still-uncolored vertices, until every
/// vertex is colored. Priorities are deterministic hashes, so the whole
/// schedule is reproducible.
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

    /// The coloring produced by the host-side reference algorithm.
    #[derive(Debug, Clone)]
    pub struct Coloring {
        /// Color per vertex.
        pub colors: Vec<u32>,
        /// Vertices colored in each round.
        pub rounds: Vec<Vec<u32>>,
    }

    impl Coloring {
        /// Number of distinct colors used.
        pub fn color_count(&self) -> u32 {
            self.colors.iter().copied().max().map_or(0, |c| c + 1)
        }
    }

    /// Jones–Plassmann with hash priorities: each round colors the
    /// vertices whose priority beats all still-uncolored neighbours,
    /// assigning the smallest color unused by already-colored neighbours.
    pub fn color(g: &Csr, seed: u64) -> Coloring {
        let n = g.vertex_count();
        // Coloring conflicts are symmetric; the CSR is directed, so build
        // the undirected adjacency first (dropping self-loops).
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for v in 0..n as u32 {
            for &u in g.neighbors(v) {
                if u != v {
                    adj[v as usize].push(u);
                    adj[u as usize].push(v);
                }
            }
        }
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }
        let prio: Vec<u64> = (0..n as u64).map(|v| hash_mix(seed ^ v)).collect();
        let mut colors = vec![u32::MAX; n];
        let mut rounds = Vec::new();
        let mut remaining: Vec<u32> = (0..n as u32).collect();
        while !remaining.is_empty() {
            let mut this_round = Vec::new();
            for &v in &remaining {
                let winner = adj[v as usize].iter().all(|&u| {
                    colors[u as usize] != u32::MAX || (prio[v as usize], v) > (prio[u as usize], u)
                });
                if winner {
                    this_round.push(v);
                }
            }
            // Tie-broken priorities guarantee progress on any graph.
            assert!(!this_round.is_empty(), "Jones-Plassmann stalled");
            for &v in &this_round {
                let mut used: Vec<u32> = adj[v as usize]
                    .iter()
                    .map(|&u| colors[u as usize])
                    .filter(|&c| c != u32::MAX)
                    .collect();
                used.sort_unstable();
                used.dedup();
                let mut c = 0u32;
                for &u in &used {
                    if u == c {
                        c += 1;
                    } else if u > c {
                        break;
                    }
                }
                colors[v as usize] = c;
            }
            remaining.retain(|&v| colors[v as usize] == u32::MAX);
            rounds.push(this_round);
        }
        Coloring { colors, rounds }
    }

    /// Per-thread workload cap (matches the single-kernel benchmark).
    pub const DEGREE_CAP: u32 = 512;

    /// Builds one parent kernel per coloring round: a thread per vertex
    /// colored that round, workload = its (capped) degree.
    pub fn build_kernels(input: GraphInput, scale: Scale, seed: u64) -> Vec<KernelDesc> {
        let g = input.generate(scale, seed);
        let coloring = color(&g, seed);
        let state_bytes = (g.vertex_count() as u64 * 8).max(4096);
        let mk_class = |label: &'static str, init: u32| WorkClass {
            label,
            compute_per_item: 24,
            init_cycles: init,
            seq_bytes_per_item: 4,
            rand_refs_per_item: 1,
            rand_region_base: regions::AUX_BASE,
            rand_region_bytes: state_bytes,
            writes_per_item: 1,
        };
        let dp = Arc::new(DpSpec {
            child_class: Arc::new(mk_class("gc-round-child", 24)),
            child_cta_threads: 64,
            child_items_per_thread: 1,
            child_regs_per_thread: 20,
            child_shmem_per_cta: 0,
            min_items: 8,
            default_threshold: super::DEFAULT_THRESHOLD,
            nested: None,
        });
        let class = Arc::new(mk_class("gc-round-parent", 40));
        coloring
            .rounds
            .iter()
            .enumerate()
            .filter_map(|(round, verts)| {
                let threads: Vec<ThreadWork> = verts
                    .iter()
                    .map(|&v| ThreadWork {
                        items: g.degree(v).min(DEGREE_CAP),
                        seq_base: regions::STREAM_BASE + g.row_offset(v) as u64 * 4,
                        rand_seed: seed ^ hash_mix(0x6C0 ^ v as u64),
                    })
                    .collect();
                if threads.iter().all(|t| t.items == 0) {
                    return None;
                }
                Some(KernelDesc {
                    name: format!("gc-round-{round}").into(),
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

    /// Runs the whole coloring schedule under `controller`.
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
        fn coloring_is_proper() {
            let mut rng = dynapar_engine::DetRng::new(7);
            let g = crate::graphs::rmat(9, 4, &mut rng);
            let c = color(&g, 7);
            for v in 0..g.vertex_count() as u32 {
                assert_ne!(c.colors[v as usize], u32::MAX, "vertex {v} uncolored");
                for &u in g.neighbors(v) {
                    if u != v {
                        assert_ne!(
                            c.colors[v as usize], c.colors[u as usize],
                            "edge ({v},{u}) monochromatic"
                        );
                    }
                }
            }
            assert!(c.color_count() >= 1);
        }

        #[test]
        fn rounds_partition_the_vertices() {
            let g = crate::graphs::Csr::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
            let c = color(&g, 1);
            let total: usize = c.rounds.iter().map(Vec::len).sum();
            assert_eq!(total, 4);
        }

        #[test]
        fn triangle_needs_three_colors() {
            let edges = [(0u32, 1u32), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)];
            let g = crate::graphs::Csr::from_edges(3, &edges);
            let c = color(&g, 3);
            assert_eq!(c.color_count(), 3);
        }

        #[test]
        fn round_kernels_conserve_work() {
            let cfg = dynapar_gpu::GpuConfig::test_small();
            let input = GraphInput::Citation;
            let flat = run(
                input,
                Scale::Tiny,
                5,
                &cfg,
                Box::new(dynapar_gpu::InlineAll),
            );
            let dp = run(
                input,
                Scale::Tiny,
                5,
                &cfg,
                Box::new(dynapar_core::BaselineDp::new()),
            );
            assert_eq!(flat.items_total(), dp.items_total());
        }
    }
}
