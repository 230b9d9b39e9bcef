//! Randomized tests for the benchmark spec format, driven by a seeded
//! [`DetRng`] (no external test dependencies).

use dynapar_engine::DetRng;
use dynapar_workloads::BenchmarkSpec;

const CASES: u64 = 64;

fn random_spec(rng: &mut DetRng) -> BenchmarkSpec {
    let items: Vec<u32> = (0..1 + rng.below(199))
        .map(|_| rng.below(1000) as u32)
        .collect();
    let name_len = rng.below(21) as usize;
    let mut name = String::new();
    name.push((b'a' + rng.below(26) as u8) as char);
    for _ in 0..name_len {
        let c = match rng.below(3) {
            0 => b'a' + rng.below(26) as u8,
            1 => b'0' + rng.below(10) as u8,
            _ => b'-',
        };
        name.push(c as char);
    }
    let mut s = BenchmarkSpec {
        name,
        items,
        cta_threads: 1 + rng.below(511) as u32,
        child_cta_threads: 1 + rng.below(511) as u32,
        child_items_per_thread: 1 + rng.below(15) as u32,
        threshold: rng.below(1000) as u32,
        ..BenchmarkSpec::default()
    };
    s.min_items = s.min_items.max(1);
    s
}

#[test]
fn to_text_parse_roundtrip() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x59ec_0000 + case);
        let spec = random_spec(&mut rng);
        let text = spec.to_text();
        let parsed = BenchmarkSpec::parse(&text).expect("serialized specs are valid");
        assert_eq!(spec, parsed, "case {case}");
    }
}

#[test]
fn built_benchmarks_preserve_totals() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x6b17_0000 + case);
        let spec = random_spec(&mut rng);
        let bench = spec.build(1);
        let total: u64 = spec.items.iter().map(|&i| i as u64).sum();
        assert_eq!(bench.total_items(), total, "case {case}");
        assert_eq!(bench.threads(), spec.items.len(), "case {case}");
        assert_eq!(bench.default_threshold(), spec.threshold, "case {case}");
    }
}

#[test]
fn garbage_never_panics() {
    for case in 0..4 * CASES {
        let mut rng = DetRng::new(0x9a4b_0000 + case);
        let len = rng.below(201) as usize;
        // Printable-ish ASCII plus newlines/tabs — the shapes a hand-edited
        // spec file can actually contain.
        let text: String = (0..len)
            .map(|_| match rng.below(20) {
                0 => '\n',
                1 => '\t',
                _ => (0x20 + rng.below(95) as u8) as char,
            })
            .collect();
        let _ = BenchmarkSpec::parse(&text);
    }
}
