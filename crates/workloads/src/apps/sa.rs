//! Sequence Alignment (Table I: SA-thaliana; plus SA-elegans for the
//! DTBL comparison of Fig. 21), after the BitMapper-style all-mapper.
//!
//! Reads are partitioned into sections, one parent thread per read; the
//! workload is the number of candidate locations in the reference index
//! that must be verified (bit-vector edit-distance checks). Candidate
//! counts follow a long-tailed (Zipf) distribution — repetitive reads hit
//! thousands of candidate loci — which is why SA shows the paper's most
//! extreme DP upside (8.6× at ~98% offload for *A. thaliana*).

use std::sync::Arc;

use dynapar_engine::DetRng;
use dynapar_gpu::{DpSpec, KernelDesc, WorkClass};

use crate::program::{explicit_source, regions, Benchmark, Scale};

/// Which genome the synthetic read set mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SaInput {
    /// *Arabidopsis thaliana* — heavier candidate tail (Zipf s ≈ 1.05).
    Thaliana,
    /// *Caenorhabditis elegans* — lighter tail (Zipf s ≈ 1.3).
    Elegans,
}

impl SaInput {
    /// Lower-case label for benchmark names.
    pub fn label(self) -> &'static str {
        match self {
            SaInput::Thaliana => "thaliana",
            SaInput::Elegans => "elegans",
        }
    }

    fn zipf_exponent(self) -> f64 {
        match self {
            SaInput::Thaliana => 1.05,
            SaInput::Elegans => 1.3,
        }
    }
}

/// Default source-level `THRESHOLD`.
pub const DEFAULT_THRESHOLD: u32 = 16;

/// Maximum candidate loci per read.
pub const MAX_CANDIDATES: u64 = 2048;

/// Builds a sequence-alignment benchmark.
///
/// # Examples
///
/// ```
/// use dynapar_workloads::{apps::sa::{self, SaInput}, Scale};
///
/// let b = sa::build(SaInput::Thaliana, Scale::Tiny, 42);
/// assert_eq!(b.name(), "SA-thaliana");
/// ```
pub fn build(input: SaInput, scale: Scale, seed: u64) -> Benchmark {
    let reads = match scale {
        Scale::Tiny => 1_024,
        Scale::Small => 8_192,
        Scale::Paper => 32_768,
    };
    let mut rng = DetRng::new(seed ^ 0x5A_0001);
    let s = input.zipf_exponent();
    let items: Vec<u32> = (0..reads)
        // Zipf-distributed candidate counts: most reads map to a handful
        // of loci, repetitive reads to thousands.
        .map(|_| rng.zipf(MAX_CANDIDATES, s) as u32)
        .collect();
    // Candidate verification gathers from the *hot* tile of the reference
    // index (BitMapper stages the index so the working set is cacheable).
    let index_bytes = 1u64 << 21;
    let mk_class = |label: &'static str, init: u32| WorkClass {
        label,
        compute_per_item: 44, // bit-vector edit-distance check
        init_cycles: init,
        seq_bytes_per_item: 16, // candidate-list stream
        rand_refs_per_item: 1,  // reference fetch
        rand_region_base: regions::AUX_BASE,
        rand_region_bytes: index_bytes,
        writes_per_item: 1, // best-alignment update
    };
    let dp = Arc::new(DpSpec {
        child_class: Arc::new(mk_class("sa-child", 24)),
        child_cta_threads: 64,
        child_items_per_thread: 1, // one candidate locus per thread
        child_regs_per_thread: 24,
        child_shmem_per_cta: 2048, // read cached in shared memory
        min_items: 16,
        default_threshold: DEFAULT_THRESHOLD,
        nested: None,
    });
    let desc = KernelDesc {
        name: format!("SA-{}", input.label()).into(),
        cta_threads: 64,
        regs_per_thread: 32,
        shmem_per_cta: 0,
        class: Arc::new(mk_class("sa-parent", 48)),
        source: explicit_source(&items, 16, seed ^ 0x5A17),
        dp: Some(dp),
    };
    Benchmark::new(format!("SA-{}", input.label()), "SA", input.label(), desc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynapar_core::BaselineDp;
    use dynapar_gpu::GpuConfig;

    #[test]
    fn candidate_distribution_is_long_tailed() {
        let b = build(SaInput::Thaliana, Scale::Small, 1);
        let (min, median, max) = b.workload_spread();
        assert_eq!(min, 1);
        assert!(
            median < 128,
            "typical read has few candidates, got {median}"
        );
        assert!(max > 500, "repetitive reads have huge candidate lists");
        // The tail holds most of the verification work — the property that
        // makes SA the paper's biggest DP winner.
        assert!(
            b.offload_at_threshold(DEFAULT_THRESHOLD) > 0.5,
            "tail mass too small"
        );
    }

    #[test]
    fn thaliana_tail_heavier_than_elegans() {
        let t = build(SaInput::Thaliana, Scale::Small, 1);
        let e = build(SaInput::Elegans, Scale::Small, 1);
        // Heavier tail -> larger share of total work above the threshold.
        let ft = t.offload_at_threshold(DEFAULT_THRESHOLD);
        let fe = e.offload_at_threshold(DEFAULT_THRESHOLD);
        assert!(
            ft > fe,
            "thaliana offloadable share {ft} should exceed elegans {fe}"
        );
    }

    #[test]
    fn dp_crushes_flat_on_thaliana() {
        let b = build(SaInput::Thaliana, Scale::Tiny, 1);
        let cfg = GpuConfig::test_small();
        let flat = b.run_flat(&cfg);
        let dp = b.run(&cfg, Box::new(BaselineDp::new()));
        assert_eq!(flat.items_total(), dp.items_total());
        assert!(
            dp.total_cycles < flat.total_cycles,
            "DP {} must beat flat {} on the long tail",
            dp.total_cycles,
            flat.total_cycles
        );
    }
}
