//! Shared builder for the vertex-parallel graph applications (BFS, SSSP,
//! graph coloring): one parent thread per vertex, workload = out-degree,
//! sequential edge-list streaming plus random per-neighbor state lookups.

use std::sync::Arc;

use dynapar_gpu::{DpSpec, KernelDesc, WorkClass};

use crate::apps::GraphInput;
use crate::program::{explicit_source, regions, Benchmark, Scale};

/// Per-application knobs for a graph benchmark.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GraphAppSpec {
    pub app: &'static str,
    pub parent_label: &'static str,
    pub child_label: &'static str,
    /// Compute cycles per edge processed.
    pub compute_per_edge: u32,
    /// Random state-array references per edge (visited / dist / color).
    pub rand_refs: u8,
    /// Stores per edge.
    pub writes: u8,
    /// Threads per child CTA (`c_cta`).
    pub child_cta_threads: u32,
    /// Registers per child thread.
    pub child_regs: u32,
    /// The application's source-level `THRESHOLD`.
    pub threshold: u32,
    /// Minimum degree for a launch to be expressible at all.
    pub min_items: u32,
    /// Seed salt so sibling apps on the same graph diverge in their
    /// random access streams.
    pub seed_salt: u64,
    /// Per-thread workload cap. The full-size inputs the paper uses are
    /// 1–2 orders of magnitude larger than our scaled-down graphs, so an
    /// uncapped hub would dominate total work far more than it does at
    /// full size; truncating the degree tail restores the hub-to-bulk
    /// work ratio of the original input. The citation network's tail is
    /// milder than Graph500's, hence the separate caps.
    pub degree_cap_citation: u32,
    pub degree_cap_graph500: u32,
}

/// Builds the benchmark for `spec` on `input` at `scale`.
pub(crate) fn build(spec: GraphAppSpec, input: GraphInput, scale: Scale, seed: u64) -> Benchmark {
    let g = input.generate(scale, seed);
    let cap = match input {
        GraphInput::Citation => spec.degree_cap_citation,
        // Road degrees are tiny; the graph500 cap is a no-op there.
        GraphInput::Graph500 | GraphInput::Road => spec.degree_cap_graph500,
    };
    let degrees: Vec<u32> = g.out_degrees().into_iter().map(|d| d.min(cap)).collect();
    // Vertex-state arrays (status/distance/color) are the random region;
    // size them to the graph so locality scales with the input.
    let state_bytes = (g.vertex_count() as u64 * 8).max(4096);
    let mk_class = |label: &'static str, init: u32| WorkClass {
        label,
        compute_per_item: spec.compute_per_edge,
        init_cycles: init,
        seq_bytes_per_item: 4, // one neighbour id per edge
        rand_refs_per_item: spec.rand_refs,
        rand_region_base: regions::AUX_BASE,
        rand_region_bytes: state_bytes,
        writes_per_item: spec.writes,
    };
    let parent_class = Arc::new(mk_class(spec.parent_label, 40));
    let child_class = Arc::new(mk_class(spec.child_label, 24));
    let dp = Arc::new(DpSpec {
        child_class,
        child_cta_threads: spec.child_cta_threads,
        child_items_per_thread: 1, // one edge per child thread
        child_regs_per_thread: spec.child_regs,
        child_shmem_per_cta: 0,
        min_items: spec.min_items,
        default_threshold: spec.threshold,
        nested: None,
    });
    let desc = KernelDesc {
        name: format!("{}-{}", spec.app, input.label()).into(),
        cta_threads: 64,
        regs_per_thread: 32,
        shmem_per_cta: 0,
        class: parent_class,
        source: explicit_source(&degrees, 4, seed ^ spec.seed_salt),
        dp: Some(dp),
    };
    Benchmark::new(
        format!("{}-{}", spec.app, input.label()),
        spec.app,
        input.label(),
        desc,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GraphAppSpec {
        GraphAppSpec {
            app: "TEST",
            parent_label: "test-parent",
            child_label: "test-child",
            compute_per_edge: 20,
            rand_refs: 1,
            writes: 1,
            child_cta_threads: 64,
            child_regs: 16,
            threshold: 128,
            min_items: 32,
            seed_salt: 0x1234,
            degree_cap_citation: 128,
            degree_cap_graph500: 512,
        }
    }

    #[test]
    fn workload_is_capped_edge_count() {
        let b = build(spec(), GraphInput::Graph500, Scale::Tiny, 7);
        let g = GraphInput::Graph500.generate(Scale::Tiny, 7);
        let capped: u64 = g.out_degrees().iter().map(|&d| d.min(512) as u64).sum();
        // Tiny graph500 hubs rarely exceed 512, so also sanity-check shape.
        assert_eq!(b.total_items(), capped);
        assert!(b.total_items() <= g.edge_count() as u64);
        assert_eq!(b.threads(), g.vertex_count());
    }

    #[test]
    fn name_composition() {
        let b = build(spec(), GraphInput::Citation, Scale::Tiny, 7);
        assert_eq!(b.name(), "TEST-citation");
        assert_eq!(b.input(), "citation");
    }
}
