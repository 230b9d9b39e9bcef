//! A plain-text benchmark specification format, so external inputs (e.g.
//! a real degree sequence exported from SNAP/DIMACS) can be run without
//! writing Rust.
//!
//! The format is line-oriented `key: value` pairs followed by an `items:`
//! line holding the per-thread workloads:
//!
//! ```text
//! # dynapar benchmark spec v1
//! name: my-graph
//! app: CUSTOM
//! input: exported
//! cta_threads: 64
//! regs_per_thread: 32
//! compute_per_item: 20
//! seq_bytes_per_item: 4
//! rand_refs_per_item: 1
//! rand_region_bytes: 1048576
//! writes_per_item: 1
//! child_cta_threads: 64
//! child_items_per_thread: 1
//! min_items: 8
//! threshold: 32
//! items: 3 0 17 250 4 4 ...
//! ```
//!
//! Unknown keys are rejected (typos should not silently change the
//! model). Comments (`#`) and blank lines are ignored.

use std::sync::Arc;

use dynapar_gpu::{DpSpec, KernelDesc, WorkClass};

use crate::program::{explicit_source, regions, Benchmark};

/// Error produced while parsing a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecError {
    /// 1-based line of the problem (0 = file level).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "spec parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseSpecError {}

fn err(line: usize, message: impl Into<String>) -> ParseSpecError {
    ParseSpecError {
        line,
        message: message.into(),
    }
}

/// All tunables of a spec, with defaults matching a generic graph app.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Benchmark name.
    pub name: String,
    /// Application label (static leak-free label not possible from text;
    /// exposed as `"CUSTOM"` on the built benchmark).
    pub app: String,
    /// Input label.
    pub input: String,
    /// Parent CTA size.
    pub cta_threads: u32,
    /// Parent registers per thread.
    pub regs_per_thread: u32,
    /// Compute cycles per item.
    pub compute_per_item: u32,
    /// Sequential bytes per item.
    pub seq_bytes_per_item: u32,
    /// Random references per item.
    pub rand_refs_per_item: u8,
    /// Random region size.
    pub rand_region_bytes: u64,
    /// Stores per item.
    pub writes_per_item: u8,
    /// Child CTA size.
    pub child_cta_threads: u32,
    /// Items per child thread.
    pub child_items_per_thread: u32,
    /// Minimum offloadable workload.
    pub min_items: u32,
    /// Source-level THRESHOLD.
    pub threshold: u32,
    /// Per-thread workloads.
    pub items: Vec<u32>,
}

impl Default for BenchmarkSpec {
    fn default() -> Self {
        BenchmarkSpec {
            name: "custom".into(),
            app: "CUSTOM".into(),
            input: "spec".into(),
            cta_threads: 64,
            regs_per_thread: 32,
            compute_per_item: 20,
            seq_bytes_per_item: 4,
            rand_refs_per_item: 1,
            rand_region_bytes: 1 << 20,
            writes_per_item: 1,
            child_cta_threads: 64,
            child_items_per_thread: 1,
            min_items: 8,
            threshold: 32,
            items: Vec::new(),
        }
    }
}

impl BenchmarkSpec {
    /// Parses the text format described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns the offending line and reason for malformed input, unknown
    /// keys, or a missing/empty `items:` list.
    pub fn parse(text: &str) -> Result<Self, ParseSpecError> {
        let mut spec = BenchmarkSpec::default();
        let mut saw_items = false;
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| err(lineno, "expected `key: value`"))?;
            let key = key.trim();
            let value = value.trim();
            let parse_u32 = |v: &str| {
                v.parse::<u32>()
                    .map_err(|_| err(lineno, format!("{key} expects an integer, got {v:?}")))
            };
            let parse_u64 = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| err(lineno, format!("{key} expects an integer, got {v:?}")))
            };
            match key {
                "name" => spec.name = value.to_string(),
                "app" => spec.app = value.to_string(),
                "input" => spec.input = value.to_string(),
                "cta_threads" => spec.cta_threads = parse_u32(value)?,
                "regs_per_thread" => spec.regs_per_thread = parse_u32(value)?,
                "compute_per_item" => spec.compute_per_item = parse_u32(value)?,
                "seq_bytes_per_item" => spec.seq_bytes_per_item = parse_u32(value)?,
                "rand_refs_per_item" => spec.rand_refs_per_item = parse_u32(value)? as u8,
                "rand_region_bytes" => spec.rand_region_bytes = parse_u64(value)?,
                "writes_per_item" => spec.writes_per_item = parse_u32(value)? as u8,
                "child_cta_threads" => spec.child_cta_threads = parse_u32(value)?,
                "child_items_per_thread" => spec.child_items_per_thread = parse_u32(value)?,
                "min_items" => spec.min_items = parse_u32(value)?,
                "threshold" => spec.threshold = parse_u32(value)?,
                "items" => {
                    spec.items = value
                        .split_whitespace()
                        .map(|t| {
                            t.parse::<u32>()
                                .map_err(|_| err(lineno, format!("bad item count {t:?}")))
                        })
                        .collect::<Result<_, _>>()?;
                    saw_items = true;
                }
                other => return Err(err(lineno, format!("unknown key {other:?}"))),
            }
        }
        if !saw_items || spec.items.is_empty() {
            return Err(err(0, "spec needs a non-empty `items:` line"));
        }
        if spec.cta_threads == 0 || spec.child_cta_threads == 0 || spec.child_items_per_thread == 0
        {
            return Err(err(0, "CTA sizes and items-per-thread must be positive"));
        }
        Ok(spec)
    }

    /// Serializes to the text format ([`parse`](BenchmarkSpec::parse)
    /// round-trips it).
    pub fn to_text(&self) -> String {
        let items: Vec<String> = self.items.iter().map(u32::to_string).collect();
        format!(
            "# dynapar benchmark spec v1\n\
             name: {}\napp: {}\ninput: {}\ncta_threads: {}\nregs_per_thread: {}\n\
             compute_per_item: {}\nseq_bytes_per_item: {}\nrand_refs_per_item: {}\n\
             rand_region_bytes: {}\nwrites_per_item: {}\nchild_cta_threads: {}\n\
             child_items_per_thread: {}\nmin_items: {}\nthreshold: {}\nitems: {}\n",
            self.name,
            self.app,
            self.input,
            self.cta_threads,
            self.regs_per_thread,
            self.compute_per_item,
            self.seq_bytes_per_item,
            self.rand_refs_per_item,
            self.rand_region_bytes,
            self.writes_per_item,
            self.child_cta_threads,
            self.child_items_per_thread,
            self.min_items,
            self.threshold,
            items.join(" "),
        )
    }

    /// Builds a runnable [`Benchmark`] from this spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec is structurally invalid (e.g. empty items) —
    /// construct via [`parse`](BenchmarkSpec::parse) to get errors instead.
    pub fn build(&self, seed: u64) -> Benchmark {
        let mk_class = |label: &'static str, init: u32| WorkClass {
            label,
            compute_per_item: self.compute_per_item,
            init_cycles: init,
            seq_bytes_per_item: self.seq_bytes_per_item,
            rand_refs_per_item: self.rand_refs_per_item,
            rand_region_base: regions::AUX_BASE,
            rand_region_bytes: self.rand_region_bytes,
            writes_per_item: self.writes_per_item,
        };
        let dp = Arc::new(DpSpec {
            child_class: Arc::new(mk_class("spec-child", 24)),
            child_cta_threads: self.child_cta_threads,
            child_items_per_thread: self.child_items_per_thread,
            child_regs_per_thread: self.regs_per_thread.min(32),
            child_shmem_per_cta: 0,
            min_items: self.min_items,
            default_threshold: self.threshold,
            nested: None,
        });
        let desc = KernelDesc {
            name: self.name.clone().into(),
            cta_threads: self.cta_threads,
            regs_per_thread: self.regs_per_thread,
            shmem_per_cta: 0,
            class: Arc::new(mk_class("spec-parent", 40)),
            source: explicit_source(&self.items, self.seq_bytes_per_item, seed),
            dp: Some(dp),
        };
        Benchmark::new(self.name.clone(), "CUSTOM", self.input.clone(), desc)
    }
}

/// Builds the warm-start harness workload: `light_ctas` CTAs of
/// threads whose workloads sit *below* `min_items` (they can never
/// request a device launch, so every cycle they execute is
/// policy-pristine), followed by `heavy_ctas` CTAs mixing in heavy
/// threads that do launch children. Because CTAs dispatch in thread
/// order and the light prefix far exceeds the device's resident-CTA
/// capacity, every policy simulates an identical ramp until the first
/// heavy CTA is dispatched — which is exactly the prefix a warm-start
/// sweep snapshots once and forks per policy. The light/heavy split is
/// the knob for how much of the run the shared ramp covers.
///
/// # Panics
///
/// Panics if either CTA count is zero.
pub fn warm_ramp_spec(light_ctas: u32, heavy_ctas: u32) -> BenchmarkSpec {
    assert!(light_ctas > 0 && heavy_ctas > 0, "ramp needs both phases");
    let mut spec = BenchmarkSpec {
        name: format!("warm-ramp-{light_ctas}x{heavy_ctas}"),
        input: "synthetic-ramp".into(),
        ..BenchmarkSpec::default()
    };
    let cta = spec.cta_threads;
    // Light phase: 6 items < min_items (8) — never a launch candidate.
    spec.items = vec![6u32; (light_ctas * cta) as usize];
    // Heavy phase: every fourth thread carries a child-sized workload.
    for t in 0..heavy_ctas * cta {
        spec.items.push(if t % 4 == 0 { 48 } else { 6 });
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynapar_core::BaselineDp;
    use dynapar_gpu::GpuConfig;

    const SAMPLE: &str = "\
# comment
name: exported-graph
cta_threads: 32
threshold: 16
items: 1 2 300 4 5
";

    #[test]
    fn parses_with_defaults() {
        let s = BenchmarkSpec::parse(SAMPLE).expect("valid spec");
        assert_eq!(s.name, "exported-graph");
        assert_eq!(s.cta_threads, 32);
        assert_eq!(s.threshold, 16);
        assert_eq!(s.items, vec![1, 2, 300, 4, 5]);
        // Untouched keys keep defaults.
        assert_eq!(s.compute_per_item, 20);
    }

    #[test]
    fn roundtrips_through_text() {
        let s = BenchmarkSpec::parse(SAMPLE).expect("valid spec");
        let again = BenchmarkSpec::parse(&s.to_text()).expect("roundtrip");
        assert_eq!(s, again);
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        let e = BenchmarkSpec::parse("bogus: 1\nitems: 1\n").expect_err("unknown key");
        assert_eq!(e.line, 1);
        assert!(e.message.contains("bogus"));

        let e = BenchmarkSpec::parse("cta_threads: banana\nitems: 1\n").expect_err("bad int");
        assert!(e.message.contains("banana"));

        let e = BenchmarkSpec::parse("name: x\n").expect_err("no items");
        assert!(e.message.contains("items"));

        let e = BenchmarkSpec::parse("items: 1 two 3\n").expect_err("bad item");
        assert!(e.message.contains("two"));
    }

    #[test]
    fn built_benchmark_runs() {
        let mut spec = BenchmarkSpec::parse(SAMPLE).expect("valid spec");
        spec.items = (0..256)
            .map(|i| if i % 32 == 0 { 200 } else { 3 })
            .collect();
        let bench = spec.build(7);
        assert_eq!(bench.app(), "CUSTOM");
        let total: u64 = spec.items.iter().map(|&i| i as u64).sum();
        assert_eq!(bench.total_items(), total);
        let r = bench.run(&GpuConfig::test_small(), Box::new(BaselineDp::new()));
        assert_eq!(r.items_total(), total);
        assert!(r.child_kernels_launched > 0);
    }

    #[test]
    fn display_of_errors() {
        let e = err(3, "boom");
        assert_eq!(e.to_string(), "spec parse error at line 3: boom");
    }
}
