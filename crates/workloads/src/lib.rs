//! # dynapar-workloads
//!
//! The dynamic-parallelism benchmark suite of *Controlled Kernel Launch
//! for Dynamic Parallelism in GPUs* (HPCA 2017): 8 applications × inputs =
//! the 13 `<application, input>` pairs of Table I, expressed as
//! work-model programs for the `dynapar-gpu` simulator.
//!
//! | Application | Inputs | Module |
//! |---|---|---|
//! | Adaptive Mesh Refinement | combustion mesh | [`apps::amr`] |
//! | Breadth-First Search | citation, graph500 | [`apps::bfs`] |
//! | Single-Source Shortest Path | citation, graph500 | [`apps::sssp`] |
//! | Relational Join | uniform, gaussian | [`apps::join`] |
//! | Graph Coloring | citation, graph500 | [`apps::gc`] |
//! | Mandelbrot Set | escape-time grid | [`apps::mandel`] |
//! | Matrix Multiplication | small/large sparse | [`apps::mm`] |
//! | Sequence Alignment | thaliana (+elegans) | [`apps::sa`] |
//!
//! Inputs are synthesized (see `DESIGN.md` for the substitution argument):
//! R-MAT for Graph500, preferential attachment for the citation network,
//! genuine escape-time iteration counts for Mandelbrot, and matched
//! statistical distributions elsewhere. Every build is a pure function of
//! `(scale, seed)`.
//!
//! # Examples
//!
//! Running one benchmark under three schemes:
//!
//! ```
//! use dynapar_core::{BaselineDp, SpawnPolicy};
//! use dynapar_gpu::GpuConfig;
//! use dynapar_workloads::{suite, Scale};
//!
//! let cfg = GpuConfig::test_small();
//! let bench = suite::by_name("BFS-graph500", Scale::Tiny, 1).unwrap();
//! let flat = bench.run_flat(&cfg);
//! let baseline = bench.run(&cfg, Box::new(BaselineDp::new()));
//! let spawn = bench.run(&cfg, Box::new(SpawnPolicy::from_config(&cfg)));
//! // All three execute the same work.
//! assert_eq!(flat.items_total(), baseline.items_total());
//! assert_eq!(flat.items_total(), spawn.items_total());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod graphs;
mod program;
pub mod spec;
pub mod suite;

pub use program::{explicit_source, regions, Benchmark, Scale};
pub use spec::{warm_ramp_spec, BenchmarkSpec};
