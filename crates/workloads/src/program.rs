//! Benchmark plumbing: the [`Benchmark`] type every application builds,
//! plus scale presets and the shared virtual-address layout.

use std::sync::Arc;

use dynapar_gpu::{
    GpuConfig, KernelDesc, LaunchController, RunOutcome, SimReport, Simulation, SimulationBuilder,
    ThreadSource, ThreadWork,
};

/// Input-size presets.
///
/// The paper runs real inputs on GPGPU-Sim for hours; the presets scale
/// the synthetic inputs so that `Paper` preserves the distributional shape
/// at a size a laptop sweeps in minutes, while `Tiny` keeps unit tests
/// fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Smallest inputs — unit tests.
    Tiny,
    /// Medium inputs — criterion benches and smoke runs.
    Small,
    /// Full experiment inputs — figure regeneration.
    #[default]
    Paper,
}

impl Scale {
    /// A multiplicative size knob: 1, 4, 16.
    pub fn factor(self) -> u32 {
        match self {
            Scale::Tiny => 1,
            Scale::Small => 4,
            Scale::Paper => 16,
        }
    }

    /// The canonical lowercase name: `tiny`, `small`, `paper`. This is
    /// the spelling used on the CLI, in the server wire protocol, and
    /// inside canonical workload ids (`suite:NAME@SCALE`) — one string
    /// for all three, so [`parse`](Scale::parse) round-trips it.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    /// Parses a canonical scale name (the inverse of [`name`](Scale::name)).
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Shared virtual-address layout so every benchmark's streams land in
/// disjoint, realistically-sized regions.
pub mod regions {
    /// Base of the sequentially-streamed array (edge lists, tuple arrays,
    /// nonzero arrays, read buffers).
    pub const STREAM_BASE: u64 = 0x1000_0000;
    /// Base of the randomly-accessed auxiliary region (visited flags,
    /// distance arrays, hash buckets, reference indexes).
    pub const AUX_BASE: u64 = 0x8000_0000;
}

/// A fully-specified `<application, input>` pair — one row of Table I.
///
/// A `Benchmark` owns the parent [`KernelDesc`] (with its [`DpSpec`]
/// attached) plus the per-thread item distribution, from which it derives
/// the threshold grid used by the Fig. 5 sweep.
///
/// # Examples
///
/// ```
/// use dynapar_gpu::GpuConfig;
/// use dynapar_workloads::{suite, Scale};
///
/// let bench = suite::by_name("MM-small", Scale::Tiny, 1).unwrap();
/// assert_eq!(bench.app(), "MM");
/// // Offloading everything above the app threshold covers most work.
/// let frac = bench.offload_at_threshold(bench.default_threshold());
/// assert!(frac > 0.0 && frac <= 1.0);
/// let report = bench.run_flat(&GpuConfig::test_small());
/// assert_eq!(report.items_total(), bench.total_items());
/// ```
///
/// [`DpSpec`]: dynapar_gpu::DpSpec
#[derive(Debug, Clone)]
pub struct Benchmark {
    name: String,
    app: &'static str,
    input: String,
    desc: KernelDesc,
    /// Parent per-thread item counts, sorted ascending (for threshold math).
    sorted_items: Vec<u32>,
    total_items: u64,
    min_items: u32,
}

impl Benchmark {
    /// Assembles a benchmark from its parent kernel description.
    ///
    /// # Panics
    ///
    /// Panics if `desc` has no [`DpSpec`](dynapar_gpu::DpSpec) (every
    /// Table I benchmark is a DP program) or an empty thread source.
    pub fn new(
        name: impl Into<String>,
        app: &'static str,
        input: impl Into<String>,
        desc: KernelDesc,
    ) -> Self {
        let dp = desc.dp.as_ref().expect("benchmarks are DP programs");
        let min_items = dp.min_items.max(1);
        let mut sorted_items: Vec<u32> = match &desc.source {
            ThreadSource::Explicit(v) => v.iter().map(|t| t.items).collect(),
            ThreadSource::Derived {
                origin,
                items_per_thread,
            } => {
                let n = origin.items.div_ceil(*items_per_thread);
                (0..n)
                    .map(|t| {
                        let start = t as u64 * *items_per_thread as u64;
                        (*items_per_thread as u64).min(origin.items as u64 - start) as u32
                    })
                    .collect()
            }
        };
        assert!(!sorted_items.is_empty(), "benchmark needs threads");
        sorted_items.sort_unstable();
        let total_items = sorted_items.iter().map(|&i| i as u64).sum();
        Benchmark {
            name: name.into(),
            app,
            input: input.into(),
            desc,
            sorted_items,
            total_items,
            min_items,
        }
    }

    /// Benchmark name, e.g. `"BFS-graph500"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Application name, e.g. `"BFS"`.
    pub fn app(&self) -> &'static str {
        self.app
    }

    /// Input name, e.g. `"graph500"`.
    pub fn input(&self) -> &str {
        &self.input
    }

    /// A fresh copy of the parent kernel description.
    pub fn kernel(&self) -> KernelDesc {
        self.desc.clone()
    }

    /// Total work items across all parent threads.
    pub fn total_items(&self) -> u64 {
        self.total_items
    }

    /// Number of parent threads.
    pub fn threads(&self) -> usize {
        self.sorted_items.len()
    }

    /// Runs the benchmark on `cfg` under `controller`.
    pub fn run(&self, cfg: &GpuConfig, controller: Box<dyn LaunchController>) -> SimReport {
        self.run_with(Simulation::builder(cfg.clone()).controller(controller))
            .report
    }

    /// Builds `builder`, launches this benchmark's host kernel and runs
    /// the simulation to completion. Everything about the run — config,
    /// controller, metrics level, trace, snapshot arming, watch hook,
    /// profiler — is chosen on the [`SimulationBuilder`]; the benchmark
    /// contributes only its workload. A resume needs no benchmark at
    /// all: the snapshot already holds every kernel, so it is
    /// `builder.build_resumed(snapshot)?.run()`.
    pub fn run_with(&self, builder: SimulationBuilder) -> RunOutcome {
        let mut sim = builder.build();
        sim.launch_host(self.kernel());
        sim.run()
    }

    /// Runs the flat (non-DP) variant: same program, launches disabled.
    pub fn run_flat(&self, cfg: &GpuConfig) -> SimReport {
        self.run(cfg, Box::new(dynapar_gpu::InlineAll))
    }

    /// Fraction of total work that a threshold-`t` policy offloads
    /// (threads with `items > t` and `items >= min_items` launch).
    pub fn offload_at_threshold(&self, t: u32) -> f64 {
        let cut = t.max(self.min_items - 1);
        let idx = self.sorted_items.partition_point(|&i| i <= cut);
        let offloaded: u64 = self.sorted_items[idx..].iter().map(|&i| i as u64).sum();
        offloaded as f64 / self.total_items as f64
    }

    /// The smallest threshold whose offload fraction does not exceed
    /// `frac` — i.e. the threshold that lands closest to the requested
    /// workload-distribution point from below.
    pub fn threshold_for_offload(&self, frac: f64) -> u32 {
        // Candidate thresholds: distinct item values (offload is a step
        // function with breakpoints exactly there) plus 0.
        let mut best_t = u32::MAX;
        let mut best_gap = f64::INFINITY;
        let mut candidates: Vec<u32> = vec![0];
        candidates.extend(self.sorted_items.iter().copied());
        candidates.dedup();
        for t in candidates {
            let f = self.offload_at_threshold(t);
            let gap = (f - frac).abs();
            if gap < best_gap {
                best_gap = gap;
                best_t = t;
            }
        }
        best_t
    }

    /// Thresholds hitting (as closely as the distribution allows) each of
    /// the requested offload fractions — the x-axis points of Fig. 5.
    pub fn threshold_grid(&self, fracs: &[f64]) -> Vec<u32> {
        let mut grid: Vec<u32> = fracs
            .iter()
            .map(|&f| self.threshold_for_offload(f))
            .collect();
        grid.dedup();
        grid
    }

    /// The application's own source-level `THRESHOLD` (what Baseline-DP
    /// uses).
    pub fn default_threshold(&self) -> u32 {
        self.desc
            .dp
            .as_ref()
            .expect("benchmarks are DP programs")
            .default_threshold
    }

    /// Returns a copy of this benchmark with the child CTA dimension
    /// (`c_cta`) overridden — the Fig. 7 sensitivity knob.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_child_cta_threads(&self, threads: u32) -> Benchmark {
        assert!(threads > 0, "child CTA needs threads");
        let mut out = self.clone();
        let dp = out.desc.dp.as_ref().expect("benchmarks are DP programs");
        let mut spec = (**dp).clone();
        spec.child_cta_threads = threads;
        out.desc.dp = Some(Arc::new(spec));
        out
    }

    /// Summary statistics of the per-thread workload distribution:
    /// `(min, median, max)` items.
    pub fn workload_spread(&self) -> (u32, u32, u32) {
        let n = self.sorted_items.len();
        (
            self.sorted_items[0],
            self.sorted_items[n / 2],
            self.sorted_items[n - 1],
        )
    }
}

/// Convenience: builds an `Explicit` thread source from per-thread item
/// counts, laying sequential streams contiguously in the stream region
/// (thread `t`'s stream starts where thread `t-1`'s ends — an edge-list /
/// CSR layout) and salting random seeds per thread.
pub fn explicit_source(items: &[u32], seq_stride: u32, seed_salt: u64) -> ThreadSource {
    let mut base = regions::STREAM_BASE;
    let threads: Vec<ThreadWork> = items
        .iter()
        .enumerate()
        .map(|(t, &n)| {
            let w = ThreadWork {
                items: n,
                seq_base: base,
                rand_seed: dynapar_engine::hash_mix(seed_salt ^ t as u64),
            };
            base += n as u64 * seq_stride as u64;
            w
        })
        .collect();
    ThreadSource::Explicit(threads.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynapar_gpu::{DpSpec, WorkClass};

    fn bench_with_items(items: Vec<u32>) -> Benchmark {
        let class = Arc::new(WorkClass::compute_only("p", 4));
        let dp = Arc::new(DpSpec {
            child_class: Arc::new(WorkClass::compute_only("c", 4)),
            child_cta_threads: 32,
            child_items_per_thread: 1,
            child_regs_per_thread: 16,
            child_shmem_per_cta: 0,
            min_items: 8,
            default_threshold: 16,
            nested: None,
        });
        Benchmark::new(
            "test-bench",
            "TEST",
            "synthetic",
            KernelDesc {
                name: "test".into(),
                cta_threads: 64,
                regs_per_thread: 16,
                shmem_per_cta: 0,
                class,
                source: explicit_source(&items, 4, 7),
                dp: Some(dp),
            },
        )
    }

    #[test]
    fn totals_and_metadata() {
        let b = bench_with_items(vec![10, 20, 30, 40]);
        assert_eq!(b.total_items(), 100);
        assert_eq!(b.threads(), 4);
        assert_eq!(b.name(), "test-bench");
        assert_eq!(b.workload_spread(), (10, 30, 40));
    }

    #[test]
    fn offload_fraction_steps() {
        let b = bench_with_items(vec![10, 20, 30, 40]);
        assert!((b.offload_at_threshold(0) - 1.0).abs() < 1e-12);
        assert!((b.offload_at_threshold(10) - 0.9).abs() < 1e-12);
        assert!((b.offload_at_threshold(30) - 0.4).abs() < 1e-12);
        assert_eq!(b.offload_at_threshold(40), 0.0);
    }

    #[test]
    fn min_items_caps_offload() {
        // Threads below min_items (8) can never offload.
        let b = bench_with_items(vec![4, 4, 40, 40]);
        let f = b.offload_at_threshold(0);
        assert!((f - 80.0 / 88.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_for_offload_hits_targets() {
        let b = bench_with_items(vec![1, 2, 4, 8, 16, 32, 64, 128]);
        let t = b.threshold_for_offload(0.0);
        assert_eq!(b.offload_at_threshold(t), 0.0);
        let t = b.threshold_for_offload(1.0);
        let f = b.offload_at_threshold(t);
        assert!(f > 0.9, "near-full offload, got {f}");
    }

    #[test]
    fn grid_is_deduped() {
        let b = bench_with_items(vec![10, 10, 10, 10]);
        let grid = b.threshold_grid(&[0.1, 0.2, 0.9]);
        assert!(!grid.is_empty());
        for w in grid.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn explicit_source_packs_streams_contiguously() {
        let src = explicit_source(&[3, 5], 8, 0);
        if let ThreadSource::Explicit(v) = &src {
            assert_eq!(v[0].seq_base, regions::STREAM_BASE);
            assert_eq!(v[1].seq_base, regions::STREAM_BASE + 3 * 8);
            assert_ne!(v[0].rand_seed, v[1].rand_seed);
        } else {
            panic!("expected explicit source");
        }
    }

    #[test]
    fn runs_end_to_end() {
        let b = bench_with_items(vec![4; 128]);
        let r = b.run_flat(&GpuConfig::test_small());
        assert_eq!(r.items_total(), b.total_items());
    }

    #[test]
    fn scale_factors_monotone() {
        assert!(Scale::Tiny.factor() < Scale::Small.factor());
        assert!(Scale::Small.factor() < Scale::Paper.factor());
        assert_eq!(Scale::default(), Scale::Paper);
    }
}
