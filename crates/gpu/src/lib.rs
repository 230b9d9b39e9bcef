//! # dynapar-gpu
//!
//! An event-driven GPU performance simulator with first-class support for
//! **dynamic parallelism** (device-side kernel launch), built to reproduce
//! *Controlled Kernel Launch for Dynamic Parallelism in GPUs* (HPCA 2017).
//!
//! ## What is modeled
//!
//! * **SMXs** with the Table II limits: resident threads/warps/CTAs,
//!   register file and shared memory capacity, a dual-issue warp scheduler
//!   (GTO or round-robin).
//! * **The Grid Management Unit**: a pending-kernel pool, software work
//!   queues (streams) mapped onto 32 hardware work queues, head-of-line
//!   kernel dispatch, and a round-robin CTA scheduler.
//! * **Device-side kernel launch** with the measured overhead model
//!   `latency = A·x + b` (A = 1721, b = 20210 cycles), parent-child
//!   synchronization, and nested launches.
//! * **DTBL aggregation** (Wang et al., ISCA'15) as an alternative launch
//!   path: child CTAs coalesce onto an aggregation kernel, skipping kernel
//!   launch overhead but still competing for the concurrent-CTA limit.
//! * **A memory hierarchy**: per-SMX L1D, a 12-partition L2, a crossbar,
//!   and open-row DRAM channels, fed by a warp-level access coalescer.
//!
//! ## The work model
//!
//! Threads execute *work items* (loop iterations) described by a
//! [`WorkClass`]; a warp runs as many rounds as its heaviest lane has
//! items, reproducing SIMD-divergence-induced workload imbalance. See
//! [`work`] for details.
//!
//! ## Plugging in a launch policy
//!
//! The simulator delegates every device-launch decision to a
//! [`LaunchController`]. The SPAWN runtime and all baseline policies live
//! in the `dynapar-core` crate; [`InlineAll`] (never launch — the *flat*
//! program) ships here as the null policy.
//!
//! ## Observability
//!
//! Simulations are assembled through [`Simulation::builder`]: pick the
//! config, the controller, and opt into tracing and metrics. A run
//! returns a [`RunOutcome`]; with metrics enabled it carries a
//! [`RunArtifact`] — a deterministic JSON record (config echo, report,
//! component metrics, CCQS estimate-vs-actual samples, decision trace)
//! emitted and re-parsed by the in-house [`dynapar_engine::json`] tree.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use dynapar_gpu::{
//!     GpuConfig, InlineAll, KernelDesc, MetricsLevel, Simulation, ThreadSource, ThreadWork,
//!     WorkClass,
//! };
//!
//! // 8192 threads' worth of items, 8 items per thread, pure compute.
//! let mut sim = Simulation::builder(GpuConfig::test_small())
//!     .controller(Box::new(InlineAll))
//!     .metrics(MetricsLevel::Summary)
//!     .build();
//! sim.launch_host(KernelDesc {
//!     name: "quick".into(),
//!     cta_threads: 128,
//!     regs_per_thread: 16,
//!     shmem_per_cta: 0,
//!     class: Arc::new(WorkClass::compute_only("quick", 8)),
//!     source: ThreadSource::Derived {
//!         origin: ThreadWork::with_items(8 * 1024),
//!         items_per_thread: 8,
//!     },
//!     dp: None,
//! });
//! let outcome = sim.run();
//! assert_eq!(outcome.report.items_total(), 8 * 1024);
//! let artifact = outcome.artifact.expect("metrics were enabled");
//! assert!(artifact.to_string().contains("\"schema\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
pub mod config;
mod controller;
mod gmu;
mod ids;
mod kernel;
pub mod mem;
pub mod perfetto;
mod profile;
mod sim;
pub mod snap;
mod smx;
mod stats;
mod telemetry;
pub mod trace;
pub mod work;

pub use artifact::{ArtifactError, CcqsSample, RunArtifact, RunOutcome, ARTIFACT_SCHEMA};
pub use config::{
    canonical_json_hash, CanonicalConfig, CtaPlacement, GpuConfig, LaunchOverheadModel,
    MemConfig, SchedulerKind, StreamPolicy, CANONICAL_CONFIG_SCHEMA,
};
pub use controller::{
    ChildRequest, ControllerEvent, InlineAll, LaunchController, LaunchDecision,
    MonitoredMetrics,
};
pub use dynapar_engine::json::Json;
pub use dynapar_engine::metrics::{MetricsLevel, MetricsRegistry};
pub use ids::{CtaKey, HwqId, KernelId, SmxId, StreamId};
pub use dynapar_engine::snap::SnapError;
pub use sim::{SimWindow, Simulation, SimulationBuilder, WatchHook, WatchSample};
pub use snap::{
    diff_snapshots, parse_snapshot, snapshot_is_pristine, write_snapshot, SNAPSHOT_SCHEMA,
};
pub use stats::{KernelRole, KernelSummary, SimReport, TimelineSample};
pub use telemetry::TIMESERIES_SCHEMA;
pub use trace::{Trace, TraceEvent};
pub use work::{DpSpec, KernelDesc, ThreadSource, ThreadWork, WorkClass};
