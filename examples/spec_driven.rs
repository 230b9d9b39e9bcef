//! Run a workload described by a plain-text spec — the path for feeding
//! *real* per-thread workload distributions (e.g. a degree sequence
//! exported from SNAP/DIMACS) into the simulator without writing Rust.
//!
//! ```sh
//! cargo run --release --example spec_driven
//! ```

use dynapar::core::{BaselineDp, SpawnPolicy};
use dynapar::gpu::GpuConfig;
use dynapar::workloads::BenchmarkSpec;

fn main() {
    // In practice this text would come from a file (see
    // `dynapar spec --file ...` in the CLI); here we synthesize a skewed
    // degree sequence inline to keep the example self-contained.
    let degrees: Vec<String> = (0..8192u32)
        .map(|v| {
            // A handful of hubs, a long light tail.
            let d = if v % 512 == 0 {
                400 + (v % 7) * 50
            } else {
                2 + v % 6
            };
            d.to_string()
        })
        .collect();
    let text = format!(
        "# exported degree sequence\n\
         name: snap-export\n\
         input: exported-degrees\n\
         cta_threads: 64\n\
         compute_per_item: 24\n\
         threshold: 32\n\
         items: {}\n",
        degrees.join(" ")
    );

    let spec = BenchmarkSpec::parse(&text).expect("well-formed spec");
    println!(
        "parsed spec {:?}: {} threads, cta={} threshold={}",
        spec.name,
        spec.items.len(),
        spec.cta_threads,
        spec.threshold
    );

    let bench = spec.build(42);
    let cfg = GpuConfig::kepler_k20m();
    let flat = bench.run_flat(&cfg);
    let base = bench.run(&cfg, Box::new(BaselineDp::new()));
    let spawn = bench.run(&cfg, Box::new(SpawnPolicy::from_config(&cfg)));
    println!(
        "flat {} cycles | baseline {:.2}x ({} kernels) | SPAWN {:.2}x ({} kernels)",
        flat.total_cycles,
        flat.total_cycles as f64 / base.total_cycles as f64,
        base.child_kernels_launched,
        flat.total_cycles as f64 / spawn.total_cycles as f64,
        spawn.child_kernels_launched,
    );

    // Round-trip: the spec serializes back to the same text form.
    let reparsed = BenchmarkSpec::parse(&spec.to_text()).expect("roundtrip");
    assert_eq!(spec, reparsed);
    println!("spec round-trips losslessly through its text form");
}
