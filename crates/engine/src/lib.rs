//! # dynapar-engine
//!
//! Deterministic discrete-event simulation engine and statistics toolkit
//! underpinning the [dynapar](https://github.com/dynapar/dynapar) GPU
//! simulator, a reproduction of *Controlled Kernel Launch for Dynamic
//! Parallelism in GPUs* (HPCA 2017).
//!
//! The crate provides four building blocks:
//!
//! * [`Cycle`] — a newtype for simulated GPU clock cycles,
//! * [`TimingWheel`] — the stable (FIFO-on-ties) time-ordered event
//!   queue the simulator schedules on: an O(1)-amortized hierarchical
//!   timing wheel, differentially tested against a plain comparison
//!   heap kept in the crate's tests,
//! * [`DetRng`] — a seeded random-number generator with the distributions
//!   needed by the workload generators (uniform, normal, Zipf, power law),
//! * [`stats`] — windowed averages, histograms, CDFs, time-weighted
//!   integrators and time-series samplers used to regenerate the paper's
//!   figures,
//! * [`timeseries`] — bounded-memory windowed telemetry series
//!   (counter/gauge buckets with in-place decimation), the storage
//!   behind the `--metrics timeseries` observability level,
//! * [`par`] — an order-preserving [`par::par_map`] for running many
//!   *independent* simulations on multiple cores,
//! * [`snap`] — checked fixed-width binary readers/writers for
//!   simulation snapshot state (bit-exact `u128`/`f64` round trips),
//! * [`profile`] — a feature-gated self-profiler attributing host wall
//!   time to simulator phases (compiled out by default),
//! * [`json`] / [`metrics`] — a dependency-free JSON tree and a metrics
//!   registry, the foundation of the run-artifact observability layer,
//! * [`log`] — structured JSON-lines logging (one object per line with
//!   a monotonic timestamp, level, and event name), the sink behind the
//!   server daemon's `--log-file`.
//!
//! Everything in this crate is deterministic: given the same inputs and
//! seeds, every structure reproduces bit-identical results. There is no
//! global state and no wall-clock access. Each individual simulation is
//! single-threaded; the only threading lives in [`par`], which
//! parallelizes *across* independent simulations and returns results in
//! input order, so outputs never depend on the worker count.
//!
//! # Examples
//!
//! ```
//! use dynapar_engine::{Cycle, TimingWheel};
//!
//! let mut q = TimingWheel::new();
//! q.push(Cycle(30), "late");
//! q.push(Cycle(10), "early");
//! q.push(Cycle(10), "early-second");
//!
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t, e), (Cycle(10), "early"));
//! let (_, e) = q.pop().unwrap();
//! assert_eq!(e, "early-second"); // FIFO among same-cycle events
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cycle;
pub mod json;
pub mod log;
pub mod metrics;
pub mod par;
pub mod profile;
mod rng;
pub mod snap;
pub mod stats;
pub mod timeseries;
mod wheel;

pub use cycle::Cycle;
pub use rng::{fnv1a_64, hash_mix, DetRng};
pub use wheel::TimingWheel;
