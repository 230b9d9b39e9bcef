//! Level-synchronous BFS: a full traversal that issues one parent kernel
//! per frontier level on the host's default stream (so levels serialize,
//! like real CUDA BFS drivers), with per-level dynamic parallelism.
//!
//! ```sh
//! cargo run --release --example bfs_levels
//! ```

use dynapar::core::{BaselineDp, SpawnPolicy};
use dynapar::gpu::GpuConfig;
use dynapar::workloads::apps::bfs::levels;
use dynapar::workloads::apps::GraphInput;
use dynapar::workloads::Scale;

fn main() {
    let cfg = GpuConfig::kepler_k20m();
    let (input, scale, seed) = (GraphInput::Graph500, Scale::Small, 2017);

    // Host-side reference traversal: the level structure the kernels run.
    let g = input.generate(scale, seed);
    let t = levels::traverse(&g, 0);
    println!(
        "graph: {} vertices, {} edges; BFS from vertex 0 reaches {} levels ({} vertices unreached)",
        g.vertex_count(),
        g.edge_count(),
        t.frontiers.len(),
        t.unreached
    );
    for (lvl, f) in t.frontiers.iter().enumerate().take(8) {
        let edges: u64 = f.iter().map(|&v| g.degree(v) as u64).sum();
        println!(
            "  level {lvl}: {} frontier vertices, {} edges to expand",
            f.len(),
            edges
        );
    }
    if t.frontiers.len() > 8 {
        println!("  ... ({} more levels)", t.frontiers.len() - 8);
    }

    // Run the whole multi-kernel traversal under three schemes.
    println!();
    let flat = levels::run(input, scale, seed, &cfg, Box::new(dynapar::gpu::InlineAll));
    println!("flat        : {:>9} cycles", flat.total_cycles);
    let base = levels::run(input, scale, seed, &cfg, Box::new(BaselineDp::new()));
    println!(
        "baseline-DP : {:>9} cycles ({:.2}x), {} child kernels",
        base.total_cycles,
        flat.total_cycles as f64 / base.total_cycles as f64,
        base.child_kernels_launched
    );
    let spawn = levels::run(
        input,
        scale,
        seed,
        &cfg,
        Box::new(SpawnPolicy::from_config(&cfg)),
    );
    println!(
        "SPAWN       : {:>9} cycles ({:.2}x), {} child kernels",
        spawn.total_cycles,
        flat.total_cycles as f64 / spawn.total_cycles as f64,
        spawn.child_kernels_launched
    );
    assert_eq!(flat.items_total(), base.items_total());
    assert_eq!(flat.items_total(), spawn.items_total());
    println!(
        "\nEach level's kernel waits for the previous level (default-stream semantics);\n\
         within a level, heavy frontier vertices offload their edge expansion."
    );
}
