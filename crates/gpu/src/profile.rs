//! Phase ids for the simulator's self-profiler.
//!
//! The ids index the name table handed to
//! [`Profiler::new`](dynapar_engine::profile::Profiler::new) when the
//! [`SimulationBuilder`](crate::SimulationBuilder) enables profiling.
//! Attribution is exclusive (see the engine's `profile` module docs):
//! the outer `sched` phase wraps the whole event loop and is paused
//! while any nested phase runs, so it ends up holding exactly the
//! queue-pop and dispatch-loop overhead, and the per-phase times sum to
//! the loop's wall time by construction.

/// The event loop itself: queue pops, time advancement, loop overhead.
pub(crate) const SCHED: usize = 0;
/// GMU traffic: kernel/aggregated arrivals and HWQ releases.
pub(crate) const GMU: usize = 1;
/// CTA dispatch rounds (candidate selection + SMX placement).
pub(crate) const DISPATCH: usize = 2;
/// CTA start: lane-table construction and warp installation.
pub(crate) const CTA_START: usize = 3;
/// Per-SMX anchor handling: local-wheel drain and the issue loop.
pub(crate) const WAKEUP: usize = 4;
/// Warp prologue: per-lane launch decisions and child-kernel creation.
pub(crate) const LAUNCH: usize = 5;
/// Launch-controller work: `decide` calls and CCQS observation updates.
pub(crate) const CCQS: usize = 6;
/// Warp round bookkeeping outside the memory path (MLP, wakeups).
pub(crate) const ROUND: usize = 7;
/// Address generation and transaction coalescing for one warp round.
pub(crate) const COALESCE: usize = 8;
/// Cache hierarchy: L1/L2 probes, MSHRs, crossbar and bank bandwidth.
pub(crate) const CACHE: usize = 9;
/// DRAM channel accesses (nested inside `cache`).
pub(crate) const DRAM: usize = 10;
/// Periodic timeline sampling.
pub(crate) const SAMPLE: usize = 11;

/// Phase name table, indexed by the constants above.
pub(crate) const NAMES: &[&str] = &[
    "sched",
    "gmu",
    "dispatch",
    "cta_start",
    "wakeup",
    "launch",
    "ccqs",
    "round",
    "coalesce",
    "cache",
    "dram",
    "sample",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_index_the_name_table() {
        assert_eq!(NAMES[SCHED], "sched");
        assert_eq!(NAMES[GMU], "gmu");
        assert_eq!(NAMES[DISPATCH], "dispatch");
        assert_eq!(NAMES[CTA_START], "cta_start");
        assert_eq!(NAMES[WAKEUP], "wakeup");
        assert_eq!(NAMES[LAUNCH], "launch");
        assert_eq!(NAMES[CCQS], "ccqs");
        assert_eq!(NAMES[ROUND], "round");
        assert_eq!(NAMES[COALESCE], "coalesce");
        assert_eq!(NAMES[CACHE], "cache");
        assert_eq!(NAMES[DRAM], "dram");
        assert_eq!(NAMES[SAMPLE], "sample");
        assert_eq!(NAMES.len(), 12);
    }
}
