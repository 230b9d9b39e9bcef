//! Simulated-GPU configuration (Table II of the paper), plus the
//! canonical run identity ([`CanonicalConfig`]) every config-keyed
//! subsystem derives from.

use dynapar_engine::fnv1a_64;
use dynapar_engine::json::Json;
use dynapar_engine::metrics::MetricsLevel;

/// Warp scheduling discipline within an SMX.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Greedy-Then-Oldest (Rogers et al., MICRO'12): keep issuing the same
    /// warp until it stalls, then fall back to the oldest ready warp. This
    /// is the paper's configuration.
    #[default]
    Gto,
    /// Plain round-robin, a-la loose fairness across ready warps.
    RoundRobin,
}

/// Where child CTAs are placed relative to their parents — the knob
/// behind LaPerm-style locality-aware scheduling (Wang et al., ISCA'16,
/// the paper's reference \[43\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CtaPlacement {
    /// Plain round-robin over SMXs (the paper's baseline CTA scheduler).
    #[default]
    RoundRobin,
    /// Prefer the SMX that ran the launching parent warp, falling back to
    /// round-robin when it is full: child kernels re-reading the parent's
    /// data find it in that core's L1.
    ParentAffinity,
}

/// How software-managed work queue (stream) ids are assigned to child
/// kernels (§II-B, Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamPolicy {
    /// One fresh SWQ per child kernel — maximum concurrency; what the paper
    /// adopts for all experiments after the Fig. 8 study.
    #[default]
    PerChildKernel,
    /// All children of a given parent CTA share one SWQ and therefore
    /// serialize — the CUDA default when the program does not create
    /// streams explicitly.
    PerParentCta,
}

/// Device-side kernel launch overhead model (Table II):
/// `latency = a·x + b`, where `x` is the number of child kernels launched
/// so far by the launching warp. Calibrated by Wang et al. (the paper's
/// reference \[42\]) to
/// a = 1721 cycles, b = 20210 cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchOverheadModel {
    /// Per-prior-launch slope (cycles).
    pub a: u64,
    /// Fixed cost (cycles).
    pub b: u64,
    /// Pipeline cycles the *launching warp itself* spends in the runtime
    /// API call (the asynchronous push; small compared to `b`).
    pub api_call_cycles: u64,
    /// Per-CTA queue-insertion cost when a launch is coalesced by DTBL
    /// instead of creating a kernel (Wang et al., ISCA'15 report the
    /// aggregated path costs a small, constant per-block overhead).
    pub dtbl_per_cta_cycles: u64,
    /// Minimum cycles a kernel occupies its hardware work queue, measured
    /// from its first CTA dispatch: the head-of-queue setup/teardown cost
    /// that bounds how fast one HWQ can drain back-to-back small kernels.
    /// This is what makes a 25k-kernel launch storm crawl even though the
    /// kernels themselves are tiny (§III-B's queuing-latency argument).
    pub hwq_turnaround_cycles: u64,
}

impl LaunchOverheadModel {
    /// Arrival delay for the `x`-th launch by a warp (`x >= 1`).
    ///
    /// # Examples
    ///
    /// ```
    /// use dynapar_gpu::LaunchOverheadModel;
    /// let m = LaunchOverheadModel::default();
    /// assert_eq!(m.kernel_latency(1), 1721 + 20210);
    /// assert!(m.kernel_latency(10) > m.kernel_latency(1));
    /// ```
    #[inline]
    pub fn kernel_latency(&self, x: u64) -> u64 {
        self.a * x + self.b
    }
}

impl Default for LaunchOverheadModel {
    fn default() -> Self {
        LaunchOverheadModel {
            a: 1721,
            b: 20210,
            api_call_cycles: 1500,
            dtbl_per_cta_cycles: 150,
            hwq_turnaround_cycles: 500,
        }
    }
}

/// Memory-hierarchy configuration (Table II plus latency calibration knobs
/// GPGPU-Sim takes from its own config files).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// Cache-line size in bytes (128 B on Kepler).
    pub line_bytes: u32,
    /// Per-SMX L1 data cache size in bytes (16 KB).
    pub l1_bytes: u32,
    /// L1 associativity (4).
    pub l1_ways: u32,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: u64,
    /// Miss-status holding registers per SMX: the maximum L1 misses a
    /// core may have outstanding; further misses stall until one returns.
    /// The model charges one entry per *transaction* and never merges
    /// same-line requests (real MSHRs do), so the default is set well
    /// above physical MSHR counts to act as a backstop; tighten it for
    /// miss-storm ablations.
    pub l1_mshrs: u32,
    /// Number of L2 partitions (2 per memory controller × 6 MCs = 12).
    pub l2_partitions: u32,
    /// Bytes per L2 partition (128 KB; 1536 KB total).
    pub l2_partition_bytes: u32,
    /// L2 associativity (8).
    pub l2_ways: u32,
    /// L2 lookup latency in cycles (tag + data).
    pub l2_hit_latency: u64,
    /// Minimum cycles between two services at one L2 bank (throughput).
    pub l2_service_interval: u64,
    /// One-way interconnect (crossbar) latency in cycles.
    pub xbar_latency: u64,
    /// Number of memory controllers (6).
    pub memory_controllers: u32,
    /// DRAM banks per channel.
    pub dram_banks_per_channel: u32,
    /// Row-buffer size in bytes (per bank) — determines row-hit locality.
    pub dram_row_bytes: u32,
    /// DRAM latency on a row-buffer hit.
    pub dram_row_hit_latency: u64,
    /// DRAM latency on a row-buffer miss (precharge + activate + access).
    pub dram_row_miss_latency: u64,
    /// Minimum cycles between two services at one DRAM channel (bandwidth).
    pub dram_service_interval: u64,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            line_bytes: 128,
            l1_bytes: 16 * 1024,
            l1_ways: 4,
            l1_hit_latency: 30,
            l1_mshrs: 1024,
            l2_partitions: 12,
            l2_partition_bytes: 128 * 1024,
            l2_ways: 8,
            l2_hit_latency: 60,
            l2_service_interval: 1,
            xbar_latency: 25,
            memory_controllers: 6,
            dram_banks_per_channel: 8,
            dram_row_bytes: 2 * 1024,
            dram_row_hit_latency: 120,
            dram_row_miss_latency: 260,
            dram_service_interval: 3,
        }
    }
}

/// Full simulated-GPU configuration.
///
/// [`GpuConfig::kepler_k20m`] reproduces Table II; the fields are public
/// knobs so experiments (e.g. Fig. 7's CTA-size sweep or HWQ-count
/// ablations) can vary one parameter at a time.
///
/// # Examples
///
/// ```
/// use dynapar_gpu::GpuConfig;
///
/// let cfg = GpuConfig::kepler_k20m();
/// assert_eq!(cfg.smx_count, 13);
/// assert_eq!(cfg.num_hwqs, 32);
/// assert_eq!(cfg.max_concurrent_ctas(), 13 * 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of SMXs (13 on K20m).
    pub smx_count: u32,
    /// Threads per warp (32).
    pub warp_size: u32,
    /// Maximum resident threads per SMX (2048).
    pub max_threads_per_smx: u32,
    /// Maximum resident CTAs per SMX (16).
    pub max_ctas_per_smx: u32,
    /// Register file size per SMX, in 32-bit registers (65536 = 64K regs).
    pub regs_per_smx: u32,
    /// Shared memory per SMX in bytes (48 KB).
    pub shmem_per_smx: u32,
    /// Warp instructions issued per SMX per cycle (dual warp scheduler = 2).
    pub issue_width: u32,
    /// Memory-level parallelism within one thread's work-item loop: how
    /// many rounds' memory requests may be outstanding before the warp
    /// stalls on the oldest. Models the MSHR/scoreboard overlap a serial
    /// loop enjoys on real hardware (a one-round child kernel gets none).
    pub mlp_depth: u32,
    /// Number of hardware work queues (32 — caps concurrent kernels).
    pub num_hwqs: u32,
    /// Grid Management Unit pending-pool capacity, in kernels.
    pub pending_pool_cap: u32,
    /// Maximum device-launch nesting depth (CUDA's default limit is 24);
    /// launch sites at deeper levels fail and compute inline.
    pub max_nesting_depth: u8,
    /// Cycles for the GMU to hand one CTA to an SMX.
    pub cta_dispatch_latency: u64,
    /// Warp scheduling discipline.
    pub scheduler: SchedulerKind,
    /// Child-CTA placement discipline.
    pub cta_placement: CtaPlacement,
    /// Stream (SWQ) assignment policy for child kernels.
    pub stream_policy: StreamPolicy,
    /// Device-launch overhead model.
    pub launch: LaunchOverheadModel,
    /// Memory hierarchy.
    pub mem: MemConfig,
    /// Timeline sampling period in cycles (Figs. 6, 19 use ~1000 cycles).
    pub sample_period: u64,
    /// Window length (log2 cycles) for the monitored-metric averages
    /// (§IV-B uses 1024-cycle windows → 10).
    pub metric_window_log2: u32,
    /// Hard cap on cycles before the simulator declares a hang (safety net
    /// for malformed workloads; `u64::MAX` disables).
    pub max_cycles: u64,
}

impl GpuConfig {
    /// The paper's simulated system: NVIDIA Tesla K20m-like (Table II).
    pub fn kepler_k20m() -> Self {
        GpuConfig {
            smx_count: 13,
            warp_size: 32,
            max_threads_per_smx: 2048,
            max_ctas_per_smx: 16,
            regs_per_smx: 65_536,
            shmem_per_smx: 48 * 1024,
            issue_width: 2,
            mlp_depth: 4,
            num_hwqs: 32,
            pending_pool_cap: 65_536,
            max_nesting_depth: 24,
            cta_dispatch_latency: 20,
            scheduler: SchedulerKind::Gto,
            cta_placement: CtaPlacement::RoundRobin,
            stream_policy: StreamPolicy::PerChildKernel,
            launch: LaunchOverheadModel::default(),
            mem: MemConfig::default(),
            sample_period: 1000,
            metric_window_log2: 10,
            max_cycles: u64::MAX,
        }
    }

    /// A Pascal-generation extrapolation (GP100-class): more, narrower
    /// cores, a bigger L2, and a cheaper device-launch path. The launch
    /// constants are *scaled estimates* (Pascal measurably reduced but
    /// did not eliminate DP launch costs), intended for the
    /// forward-looking sensitivity experiments, not for calibration
    /// claims.
    pub fn pascal_like() -> Self {
        let mut cfg = Self::kepler_k20m();
        cfg.smx_count = 28;
        cfg.max_threads_per_smx = 2048;
        cfg.max_ctas_per_smx = 32;
        cfg.regs_per_smx = 65_536;
        cfg.shmem_per_smx = 64 * 1024;
        cfg.mem.l2_partitions = 16;
        cfg.mem.memory_controllers = 8;
        cfg.mem.l2_partition_bytes = 256 * 1024; // 4 MB total
        cfg.launch.a = 900;
        cfg.launch.b = 11_000;
        cfg.launch.api_call_cycles = 800;
        cfg
    }

    /// A scaled-down configuration for fast unit tests: 2 SMXs, 4 HWQs,
    /// shallow memory. Same structure, two orders of magnitude cheaper.
    pub fn test_small() -> Self {
        let mut cfg = Self::kepler_k20m();
        cfg.smx_count = 2;
        cfg.max_threads_per_smx = 512;
        cfg.max_ctas_per_smx = 4;
        cfg.regs_per_smx = 16_384;
        cfg.shmem_per_smx = 16 * 1024;
        cfg.num_hwqs = 4;
        cfg.sample_period = 500;
        cfg
    }

    /// Maximum warps resident on one SMX.
    #[inline]
    pub fn max_warps_per_smx(&self) -> u32 {
        self.max_threads_per_smx / self.warp_size
    }

    /// Hardware limit on concurrently resident CTAs across the whole GPU
    /// (208 for the Table II machine, as quoted under Fig. 6).
    #[inline]
    pub fn max_concurrent_ctas(&self) -> u32 {
        self.smx_count * self.max_ctas_per_smx
    }

    /// Validates internal consistency; returns a human-readable complaint.
    ///
    /// # Errors
    ///
    /// Returns `Err` when a structural parameter is zero or inconsistent
    /// (e.g. L1 size not divisible by line size × ways).
    pub fn validate(&self) -> Result<(), String> {
        if self.smx_count == 0 {
            return Err("smx_count must be positive".into());
        }
        if self.warp_size == 0 || !self.warp_size.is_power_of_two() {
            return Err("warp_size must be a positive power of two".into());
        }
        if !self.max_threads_per_smx.is_multiple_of(self.warp_size) {
            return Err("max_threads_per_smx must be a multiple of warp_size".into());
        }
        if self.num_hwqs == 0 {
            return Err("num_hwqs must be positive".into());
        }
        if self.issue_width == 0 {
            return Err("issue_width must be positive".into());
        }
        if self.mlp_depth == 0 {
            return Err("mlp_depth must be at least 1".into());
        }
        let m = &self.mem;
        if m.line_bytes == 0 || !m.line_bytes.is_power_of_two() {
            return Err("line_bytes must be a positive power of two".into());
        }
        if !m.l1_bytes.is_multiple_of(m.line_bytes * m.l1_ways) {
            return Err("L1 size must be divisible by line_bytes * ways".into());
        }
        if !m
            .l2_partition_bytes
            .is_multiple_of(m.line_bytes * m.l2_ways)
        {
            return Err("L2 partition size must be divisible by line_bytes * ways".into());
        }
        if m.l1_mshrs == 0 {
            return Err("l1_mshrs must be positive".into());
        }
        if m.l2_partitions == 0 || m.memory_controllers == 0 {
            return Err("need at least one L2 partition and one MC".into());
        }
        if !m.l2_partitions.is_multiple_of(m.memory_controllers) {
            return Err("l2_partitions must be a multiple of memory_controllers".into());
        }
        if self.sample_period == 0 {
            return Err("sample_period must be positive".into());
        }
        if self.max_nesting_depth == 0 {
            return Err("max_nesting_depth must be at least 1".into());
        }
        Ok(())
    }

    /// Renders the full configuration as a JSON object (the artifact's
    /// config echo). Enum knobs render as their `Debug` spellings;
    /// `max_cycles` at `u64::MAX` renders as `null` (disabled).
    pub fn to_json(&self) -> Json {
        let l = &self.launch;
        let m = &self.mem;
        Json::obj([
            ("smx_count", Json::U64(self.smx_count as u64)),
            ("warp_size", Json::U64(self.warp_size as u64)),
            (
                "max_threads_per_smx",
                Json::U64(self.max_threads_per_smx as u64),
            ),
            ("max_ctas_per_smx", Json::U64(self.max_ctas_per_smx as u64)),
            ("regs_per_smx", Json::U64(self.regs_per_smx as u64)),
            ("shmem_per_smx", Json::U64(self.shmem_per_smx as u64)),
            ("issue_width", Json::U64(self.issue_width as u64)),
            ("mlp_depth", Json::U64(self.mlp_depth as u64)),
            ("num_hwqs", Json::U64(self.num_hwqs as u64)),
            ("pending_pool_cap", Json::U64(self.pending_pool_cap as u64)),
            (
                "max_nesting_depth",
                Json::U64(self.max_nesting_depth as u64),
            ),
            ("cta_dispatch_latency", Json::U64(self.cta_dispatch_latency)),
            ("scheduler", Json::str(format!("{:?}", self.scheduler))),
            (
                "cta_placement",
                Json::str(format!("{:?}", self.cta_placement)),
            ),
            (
                "stream_policy",
                Json::str(format!("{:?}", self.stream_policy)),
            ),
            (
                "launch",
                Json::obj([
                    ("a", Json::U64(l.a)),
                    ("b", Json::U64(l.b)),
                    ("api_call_cycles", Json::U64(l.api_call_cycles)),
                    ("dtbl_per_cta_cycles", Json::U64(l.dtbl_per_cta_cycles)),
                    ("hwq_turnaround_cycles", Json::U64(l.hwq_turnaround_cycles)),
                ]),
            ),
            (
                "mem",
                Json::obj([
                    ("line_bytes", Json::U64(m.line_bytes as u64)),
                    ("l1_bytes", Json::U64(m.l1_bytes as u64)),
                    ("l1_ways", Json::U64(m.l1_ways as u64)),
                    ("l1_hit_latency", Json::U64(m.l1_hit_latency)),
                    ("l1_mshrs", Json::U64(m.l1_mshrs as u64)),
                    ("l2_partitions", Json::U64(m.l2_partitions as u64)),
                    ("l2_partition_bytes", Json::U64(m.l2_partition_bytes as u64)),
                    ("l2_ways", Json::U64(m.l2_ways as u64)),
                    ("l2_hit_latency", Json::U64(m.l2_hit_latency)),
                    ("l2_service_interval", Json::U64(m.l2_service_interval)),
                    ("xbar_latency", Json::U64(m.xbar_latency)),
                    ("memory_controllers", Json::U64(m.memory_controllers as u64)),
                    (
                        "dram_banks_per_channel",
                        Json::U64(m.dram_banks_per_channel as u64),
                    ),
                    ("dram_row_bytes", Json::U64(m.dram_row_bytes as u64)),
                    ("dram_row_hit_latency", Json::U64(m.dram_row_hit_latency)),
                    ("dram_row_miss_latency", Json::U64(m.dram_row_miss_latency)),
                    ("dram_service_interval", Json::U64(m.dram_service_interval)),
                ]),
            ),
            ("sample_period", Json::U64(self.sample_period)),
            (
                "metric_window_log2",
                Json::U64(self.metric_window_log2 as u64),
            ),
            (
                "max_cycles",
                if self.max_cycles == u64::MAX {
                    Json::Null
                } else {
                    Json::U64(self.max_cycles)
                },
            ),
        ])
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::kepler_k20m()
    }
}

/// Schema tag stamped into every canonical-config JSON rendering.
pub const CANONICAL_CONFIG_SCHEMA: &str = "dynapar.canonical_config/v1";

/// Hashes any JSON tree in canonical form: object keys sorted
/// recursively, compact emission, FNV-1a 64 over the bytes.
///
/// This is the one hashing path in the workspace — the memo key, the
/// perf-baseline identity, and spec-workload fingerprints all funnel
/// through it — so two trees that differ only in member order always
/// hash identically, and any semantic difference (a changed value, an
/// added field) changes the hash.
///
/// # Examples
///
/// ```
/// use dynapar_engine::json::Json;
/// use dynapar_gpu::config::canonical_json_hash;
///
/// let a = Json::parse(r#"{"x":1,"y":2}"#).unwrap();
/// let b = Json::parse(r#"{"y":2,"x":1}"#).unwrap();
/// assert_eq!(canonical_json_hash(&a), canonical_json_hash(&b));
/// ```
pub fn canonical_json_hash(doc: &Json) -> u64 {
    fnv1a_64(doc.sorted().to_string().as_bytes())
}

/// The canonical identity of one simulation run: everything that
/// determines the run's output bytes, in one struct.
///
/// Before this type existed, three subsystems each answered "is this
/// the same run?" with its own ad-hoc field list: the server's memo key
/// would have compared request fields, the artifact echoed the raw
/// [`GpuConfig`], and the perf baseline gate compared `scale`/`seed`/
/// `queue` one key at a time. `CanonicalConfig` replaces all three with
/// a single derivation: build the canonical struct, hash it with
/// [`canonical_hash`](CanonicalConfig::canonical_hash), compare hashes.
///
/// **What is included:** the full [`GpuConfig`], the workload identity
/// string, the policy label, the generator seed, and the metrics level
/// (metrics change artifact bytes, so two levels are two identities).
///
/// **What is deliberately excluded:** host-side knobs that are
/// guaranteed byte-invisible — `--jobs`, and the `sim_jobs`/`sim_window`
/// job keys the v1 wire protocol still accepts but ignores. Excluding
/// them is what lets a server memoize a submit carrying `sim_jobs: 4`
/// with a plain one: same identity, same bytes.
///
/// The `workload` string is a convention, not free text: suite runs use
/// `suite:<bench>@<scale>`, spec runs use `spec:<16-hex fnv of the spec
/// text>` (see `dynapar-server`'s request layer, which is the only
/// producer).
///
/// # Examples
///
/// ```
/// use dynapar_gpu::{CanonicalConfig, GpuConfig};
/// use dynapar_gpu::MetricsLevel;
///
/// let a = CanonicalConfig {
///     gpu: GpuConfig::kepler_k20m(),
///     workload: "suite:AMR@tiny".into(),
///     policy: "spawn".into(),
///     seed: 7,
///     metrics: MetricsLevel::Full,
/// };
/// let mut b = a.clone();
/// assert_eq!(a.canonical_hash(), b.canonical_hash());
/// b.seed = 8;
/// assert_ne!(a.canonical_hash(), b.canonical_hash());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalConfig {
    /// The simulated machine.
    pub gpu: GpuConfig,
    /// Canonical workload identity (`suite:NAME@SCALE` or `spec:HASH`).
    pub workload: String,
    /// Canonical policy label (e.g. `spawn`, `threshold:32`).
    pub policy: String,
    /// Workload-generator seed.
    pub seed: u64,
    /// Metrics level of the run (changes artifact bytes, so part of
    /// the identity).
    pub metrics: MetricsLevel,
}

impl CanonicalConfig {
    /// Renders the canonical identity as JSON (the hash preimage, before
    /// key sorting). The `schema` member means a future v2 identity can
    /// never collide with v1 hashes.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(CANONICAL_CONFIG_SCHEMA)),
            ("gpu", self.gpu.to_json()),
            ("workload", Json::str(self.workload.clone())),
            ("policy", Json::str(self.policy.clone())),
            ("seed", Json::U64(self.seed)),
            ("metrics", Json::str(self.metrics.as_str())),
        ])
    }

    /// The stable 64-bit identity hash: FNV-1a over the key-sorted
    /// compact JSON rendering of [`to_json`](CanonicalConfig::to_json).
    /// Stable across field reordering by construction; different for
    /// any semantic field change because every field is in the preimage.
    pub fn canonical_hash(&self) -> u64 {
        canonical_json_hash(&self.to_json())
    }

    /// [`canonical_hash`](CanonicalConfig::canonical_hash) as the
    /// 16-hex-digit string used on the wire and in artifacts.
    pub fn canonical_hex(&self) -> String {
        format!("{:016x}", self.canonical_hash())
    }

    /// The *warm-up prefix* identity: [`canonical_hash`] with the policy
    /// masked out. Two sweep points share a warm-up hash exactly when a
    /// pristine ramp snapshot (no launch decisions yet — see DESIGN.md
    /// §13) taken under one of them is a valid starting state for the
    /// other, so fork-sweep drivers group points by this value to
    /// simulate the shared ramp once.
    pub fn warmup_hash(&self) -> u64 {
        let mut masked = self.clone();
        masked.policy = "\u{0}warmup".into();
        masked.canonical_hash()
    }

    /// [`warmup_hash`](CanonicalConfig::warmup_hash) as 16 hex digits.
    pub fn warmup_hex(&self) -> String {
        format!("{:016x}", self.warmup_hash())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k20m_matches_table_ii() {
        let cfg = GpuConfig::kepler_k20m();
        assert_eq!(cfg.smx_count, 13);
        assert_eq!(cfg.max_threads_per_smx, 2048);
        assert_eq!(cfg.max_warps_per_smx(), 64);
        assert_eq!(cfg.max_ctas_per_smx, 16);
        assert_eq!(cfg.num_hwqs, 32);
        assert_eq!(cfg.shmem_per_smx, 48 * 1024);
        assert_eq!(cfg.regs_per_smx, 65_536);
        assert_eq!(
            cfg.mem.l2_partition_bytes * cfg.mem.l2_partitions,
            1536 * 1024
        );
        assert_eq!(cfg.launch.a, 1721);
        assert_eq!(cfg.launch.b, 20210);
        assert_eq!(cfg.max_concurrent_ctas(), 208);
        cfg.validate().expect("table II config must validate");
    }

    #[test]
    fn test_small_validates() {
        GpuConfig::test_small().validate().expect("valid");
    }

    #[test]
    fn pascal_like_validates_and_scales_up() {
        let p = GpuConfig::pascal_like();
        p.validate().expect("valid");
        let k = GpuConfig::kepler_k20m();
        assert!(p.smx_count > k.smx_count);
        assert!(p.max_concurrent_ctas() > k.max_concurrent_ctas());
        assert!(p.launch.b < k.launch.b, "Pascal's launch path is cheaper");
        assert!(
            p.mem.l2_partition_bytes * p.mem.l2_partitions
                > k.mem.l2_partition_bytes * k.mem.l2_partitions
        );
    }

    #[test]
    fn launch_latency_formula() {
        let m = LaunchOverheadModel::default();
        assert_eq!(m.kernel_latency(1), 21_931);
        assert_eq!(m.kernel_latency(10), 17_210 + 20_210);
    }

    #[test]
    fn validate_rejects_broken_configs() {
        let mut cfg = GpuConfig::kepler_k20m();
        cfg.smx_count = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = GpuConfig::kepler_k20m();
        cfg.warp_size = 33;
        assert!(cfg.validate().is_err());

        let mut cfg = GpuConfig::kepler_k20m();
        cfg.mem.l1_bytes = 1000; // not divisible by 128*4
        assert!(cfg.validate().is_err());

        let mut cfg = GpuConfig::kepler_k20m();
        cfg.mem.l2_partitions = 7; // not a multiple of 6 MCs
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn json_echo_covers_every_knob() {
        let cfg = GpuConfig::kepler_k20m();
        let json = cfg.to_json();
        assert_eq!(json.get("smx_count").unwrap().as_u64(), Some(13));
        assert_eq!(json.get("scheduler").unwrap().as_str(), Some("Gto"));
        assert_eq!(json.get("max_cycles"), Some(&Json::Null));
        assert_eq!(
            json.get("launch").unwrap().get("b").unwrap().as_u64(),
            Some(20210)
        );
        assert_eq!(
            json.get("mem")
                .unwrap()
                .get("l2_partitions")
                .unwrap()
                .as_u64(),
            Some(12)
        );
        let text = json.to_string();
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn defaults_are_kepler() {
        assert_eq!(GpuConfig::default(), GpuConfig::kepler_k20m());
        assert_eq!(SchedulerKind::default(), SchedulerKind::Gto);
        assert_eq!(StreamPolicy::default(), StreamPolicy::PerChildKernel);
    }

    fn canon() -> CanonicalConfig {
        CanonicalConfig {
            gpu: GpuConfig::kepler_k20m(),
            workload: "suite:BFS-graph500@paper".into(),
            policy: "spawn".into(),
            seed: 0xD7_2017,
            metrics: MetricsLevel::Full,
        }
    }

    #[test]
    fn canonical_hash_ignores_member_order() {
        let doc = canon().to_json();
        // Reverse the top-level member order and nest-shuffle: the sorted
        // canonical form must make both trees hash identically.
        let mut members: Vec<(String, Json)> = match &doc {
            Json::Obj(m) => m.clone(),
            _ => unreachable!(),
        };
        members.reverse();
        let shuffled = Json::Obj(members);
        assert_ne!(doc.to_string(), shuffled.to_string());
        assert_eq!(canonical_json_hash(&doc), canonical_json_hash(&shuffled));
    }

    #[test]
    fn canonical_hash_differs_on_every_semantic_field() {
        let base = canon().canonical_hash();
        let mut c = canon();
        c.gpu.smx_count += 1;
        assert_ne!(c.canonical_hash(), base, "gpu knob must change hash");
        let mut c = canon();
        c.workload = "suite:BFS-graph500@tiny".into();
        assert_ne!(c.canonical_hash(), base, "workload must change hash");
        let mut c = canon();
        c.policy = "threshold:32".into();
        assert_ne!(c.canonical_hash(), base, "policy must change hash");
        let mut c = canon();
        c.seed ^= 1;
        assert_ne!(c.canonical_hash(), base, "seed must change hash");
        let mut c = canon();
        c.metrics = MetricsLevel::Summary;
        assert_ne!(c.canonical_hash(), base, "metrics level must change hash");
    }

    #[test]
    fn canonical_hash_is_stable_and_hex_is_16_digits() {
        let a = canon();
        let b = canon();
        assert_eq!(a.canonical_hash(), b.canonical_hash());
        let hex = a.canonical_hex();
        assert_eq!(hex.len(), 16);
        assert!(hex.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(u64::from_str_radix(&hex, 16).unwrap(), a.canonical_hash());
    }

    #[test]
    fn canonical_json_embeds_schema_tag() {
        let doc = canon().to_json();
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some(CANONICAL_CONFIG_SCHEMA)
        );
    }
}
