//! Pins every synthesized workload to a digest, so a faster generator
//! cannot change a single thread assignment unnoticed.
//!
//! The digest is FNV-1a over the parent kernel's thread count followed
//! by every thread's `(items, seq_base, rand_seed)`, little-endian, as
//! `ThreadSource::thread` hands them to the simulator. Paper-scale
//! graph500 takes seconds to synthesize in a debug build, so its test
//! is `#[ignore]`d and runs in release:
//!
//! ```sh
//! cargo test --release -p dynapar-workloads --test synthesis_identity -- --ignored
//! ```

use dynapar_workloads::{suite, Scale};

/// Suite names plus the two extension inputs `suite::by_name` resolves.
fn names() -> impl Iterator<Item = &'static str> {
    suite::NAMES
        .iter()
        .copied()
        .chain(["SA-elegans", "BFS-road"])
}

fn digest(name: &str, scale: Scale) -> u64 {
    let bench = suite::by_name(name, scale, suite::DEFAULT_SEED).expect("known benchmark");
    let kernel = bench.kernel();
    let count = kernel.source.thread_count();
    let mut bytes = Vec::with_capacity(4 + count as usize * 20);
    bytes.extend_from_slice(&count.to_le_bytes());
    for tid in 0..count {
        let t = kernel.source.thread(tid, kernel.class.seq_bytes_per_item);
        bytes.extend_from_slice(&t.items.to_le_bytes());
        bytes.extend_from_slice(&t.seq_base.to_le_bytes());
        bytes.extend_from_slice(&t.rand_seed.to_le_bytes());
    }
    dynapar_engine::fnv1a_64(&bytes)
}

/// Compares each `(name, digest)` pair and reports every mismatch at once.
fn check(scale: Scale, expected: &[(&str, u64)]) {
    let wrong: Vec<String> = expected
        .iter()
        .filter_map(|&(name, want)| {
            let got = digest(name, scale);
            (got != want).then(|| format!("{name}@{}: {got:#018x} != {want:#018x}", scale.name()))
        })
        .collect();
    assert!(wrong.is_empty(), "synthesis changed:\n{}", wrong.join("\n"));
}

#[test]
fn every_benchmark_is_covered() {
    let pinned: Vec<&str> = TINY.iter().map(|&(n, _)| n).collect();
    assert_eq!(pinned, names().collect::<Vec<_>>());
    let pinned: Vec<&str> = SMALL.iter().map(|&(n, _)| n).collect();
    assert_eq!(pinned, names().collect::<Vec<_>>());
}

#[test]
fn tiny_synthesis_is_unchanged() {
    check(Scale::Tiny, TINY);
}

#[test]
fn small_synthesis_is_unchanged() {
    check(Scale::Small, SMALL);
}

#[test]
fn paper_mandel_synthesis_is_unchanged() {
    check(Scale::Paper, PAPER_MANDEL);
}

#[test]
#[ignore = "seconds in a debug build; run with --release -- --ignored"]
fn paper_graph500_synthesis_is_unchanged() {
    check(Scale::Paper, PAPER_GRAPH500);
}

// Recorded from the plain escape loop and the one-branch-per-quadrant
// R-MAT, before either fast path existed.
const TINY: &[(&str, u64)] = &[
    ("AMR", 0x635d478475c8dc63),
    ("BFS-citation", 0x1099299aca0fd921),
    ("BFS-graph500", 0x168e7dcd201e490f),
    ("SSSP-citation", 0xb66de298c87cea4c),
    ("SSSP-graph500", 0x1aff1e00e42ae5c6),
    ("JOIN-uniform", 0x5fde278c53951e04),
    ("JOIN-gaussian", 0x31cf25bd49889ae7),
    ("GC-citation", 0x22eb0dedf89c3ba3),
    ("GC-graph500", 0xc152b6c09629f6f7),
    ("Mandel", 0x3b591c0675e866ff),
    ("MM-small", 0xa0bf39ecda116508),
    ("MM-large", 0x73b5b5e14e33e5cb),
    ("SA-thaliana", 0x8fb8dccf2fdcf1d3),
    ("SA-elegans", 0xf76d70e7a789c7ff),
    ("BFS-road", 0xb790773c814308e5),
];

const SMALL: &[(&str, u64)] = &[
    ("AMR", 0xd90ff497d26a530c),
    ("BFS-citation", 0xc0bc07024de6ff7d),
    ("BFS-graph500", 0xac786e17878d6aa4),
    ("SSSP-citation", 0xedaae72b316ea101),
    ("SSSP-graph500", 0x4a2fd383cb991aa4),
    ("JOIN-uniform", 0x160755cc0bb786d0),
    ("JOIN-gaussian", 0x1034d9ffb8498ee8),
    ("GC-citation", 0x2ccb20ed7d02bb8f),
    ("GC-graph500", 0x509a24cbbb539a50),
    ("Mandel", 0x06b6728c0a54e97a),
    ("MM-small", 0x7c569d97fb4f2401),
    ("MM-large", 0xb3bb027f97b1af66),
    ("SA-thaliana", 0x7d49c1a391fd0504),
    ("SA-elegans", 0xfe5d986f5e26a843),
    ("BFS-road", 0xb14cfe4d2e50981f),
];

const PAPER_MANDEL: &[(&str, u64)] = &[("Mandel", 0x03008805459258c7)];

const PAPER_GRAPH500: &[(&str, u64)] = &[
    ("BFS-graph500", 0xa84f11b2385e5d85),
    ("SSSP-graph500", 0x74c7afb846a0254d),
    ("GC-graph500", 0x530ef1a5ee0238c1),
];
