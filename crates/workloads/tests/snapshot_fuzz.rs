//! Seeded fuzzing of the snapshot container, driven by [`DetRng`] (no
//! external test dependencies).
//!
//! A snapshot file is untrusted input: resuming one must fail with a
//! typed [`SnapError`] or succeed, never panic and never allocate out of
//! proportion to the file. Every case starts from a real tiny AMR
//! snapshot, mutates its binary state (bit flips, truncations, inflated
//! length prefixes), then rebuilds the header with the matching
//! `state_len`/`state_fnv`, so the mutation reaches the state decoders
//! instead of stopping at the checksum. A share of the cases instead
//! damages the raw container, header included, without repairing it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dynapar_core::SpawnPolicy;
use dynapar_engine::DetRng;
use dynapar_gpu::{parse_snapshot, write_snapshot, GpuConfig, MetricsLevel, Simulation};
use dynapar_workloads::{suite, Scale};

const CASES: u64 = 256;

/// An armed tiny AMR run at the timeseries level (the level that
/// serializes the most sections), captured mid-run.
fn seed_snapshot(cfg: &GpuConfig) -> Vec<u8> {
    let bench = suite::by_name("AMR", Scale::Tiny, suite::DEFAULT_SEED).expect("known");
    let total = bench
        .run(cfg, Box::new(SpawnPolicy::from_config(cfg)))
        .total_cycles;
    bench
        .run_with(
            Simulation::builder(cfg.clone())
                .controller(Box::new(SpawnPolicy::from_config(cfg)))
                .metrics(MetricsLevel::Timeseries)
                .snapshot_at(total / 2),
        )
        .snapshot
        .expect("an interior cycle captures a snapshot")
}

/// Little-endian u64 at `at`, if 8 bytes are there.
fn u64_at(state: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(state.get(at..at + 8)?.try_into().ok()?))
}

/// Applies one seeded mutation to the state bytes; returns its name.
fn mutate_state(rng: &mut DetRng, state: &mut Vec<u8>) -> &'static str {
    match rng.below(3) {
        0 => {
            for _ in 0..1 + rng.below(8) {
                let i = rng.below(state.len() as u64) as usize;
                state[i] ^= 1 << rng.below(8);
            }
            "bit flips"
        }
        1 => {
            state.truncate(rng.below(state.len() as u64) as usize);
            "truncation"
        }
        _ => {
            // Length prefixes are small u64s; pick one such word near a
            // random spot and blow it up past what the input can hold.
            let start = rng.below(state.len() as u64) as usize;
            let small = |i: &usize| u64_at(state, *i).is_some_and(|v| (1..4096).contains(&v));
            let Some(at) = (start..state.len()).find(small) else {
                return "no prefix found";
            };
            let inflated = match rng.below(4) {
                0 => u64::MAX,
                1 => (state.len() - at) as u64,
                2 => 1 << (20 + rng.below(40)),
                _ => u64_at(state, at).expect("found above") * (2 + rng.below(1000)),
            };
            state[at..at + 8].copy_from_slice(&inflated.to_le_bytes());
            "inflated length prefix"
        }
    }
}

#[test]
fn mutated_snapshots_never_panic() {
    let cfg = GpuConfig::kepler_k20m();
    let original = seed_snapshot(&cfg);
    let (job, state) = parse_snapshot(&original).expect("the seed snapshot is valid");
    let state = state.to_vec();
    // `build_resumed` parses the container (`parse_snapshot`) before it
    // decodes the state.
    let resume = |bytes: &[u8]| -> bool {
        Simulation::builder(cfg.clone())
            .controller(Box::new(SpawnPolicy::from_config(&cfg)))
            .metrics(MetricsLevel::Timeseries)
            .build_resumed(bytes)
            .is_ok()
    };
    assert!(resume(&original), "the unmutated snapshot resumes");
    let mut decoded_truncations = 0;
    for case in 0..CASES {
        let mut rng = DetRng::new(0x5a9f_0000 + case);
        let (kind, bytes) = if rng.chance(0.15) {
            let mut raw = original.clone();
            for _ in 0..1 + rng.below(4) {
                let i = rng.below(raw.len() as u64) as usize;
                raw[i] ^= 1 << rng.below(8);
            }
            ("raw container flips", raw)
        } else {
            let mut s = state.clone();
            let kind = mutate_state(&mut rng, &mut s);
            (kind, write_snapshot(&job, &s))
        };
        match catch_unwind(AssertUnwindSafe(|| resume(&bytes))) {
            Ok(resumed) => decoded_truncations += u32::from(resumed && kind == "truncation"),
            Err(_) => panic!("case {case} ({kind}) panicked instead of returning a SnapError"),
        }
    }
    // Many flips land in cache tags or counters and legitimately decode;
    // a state missing its tail never can.
    assert_eq!(decoded_truncations, 0, "a truncated state decoded");
}
