//! Differential test: the hierarchical [`TimingWheel`] must be
//! observationally identical to the reference [`EventQueue`].
//!
//! The simulator's correctness depends on the scheduler's stability
//! contract (same-cycle events pop in push order — see DESIGN.md), so the
//! wheel is not just "sorted enough": under any legal interleaving of
//! pushes and pops it must emit the exact same `(cycle, seq)` stream as
//! the heap. Cases are seeded via [`DetRng`] and report their index for
//! replay.

mod reference_queue;

use dynapar_engine::{Cycle, DetRng, TimingWheel};
use reference_queue::EventQueue;

const CASES: u64 = 64;

/// Drives a wheel and a heap through the same operation sequence and
/// asserts every pop and peek agrees. `delta` picks the push offset from
/// the current frontier.
fn run_case(case: u64, ops: usize, mut delta: impl FnMut(&mut DetRng) -> u64) {
    let mut rng = DetRng::new(0xd1ff_0000 ^ (case * 0x9e37));
    let mut wheel = TimingWheel::new();
    let mut heap = EventQueue::new();
    let mut seq = 0u64;
    let mut now = 0u64;
    for op in 0..ops {
        if rng.chance(0.6) || heap.is_empty() {
            let at = now + delta(&mut rng);
            wheel.push(Cycle(at), seq);
            heap.push(Cycle(at), seq);
            seq += 1;
        } else {
            assert_eq!(
                wheel.peek_time(),
                heap.peek_time(),
                "case {case} op {op}: peek diverged"
            );
            let expect = heap.pop().expect("heap non-empty");
            let got = wheel.pop().expect("wheel in sync with heap");
            assert_eq!(got, expect, "case {case} op {op}: pop diverged");
            now = expect.0.as_u64();
        }
        assert_eq!(wheel.len(), heap.len(), "case {case} op {op}: len diverged");
    }
    // Drain: the tails must match element for element.
    while let Some(expect) = heap.pop() {
        assert_eq!(wheel.pop(), Some(expect), "case {case}: drain diverged");
    }
    assert!(wheel.is_empty(), "case {case}: wheel kept extra events");
    assert_eq!(wheel.total_pushed(), heap.total_pushed(), "case {case}");
}

#[test]
fn wheel_matches_heap_near_horizon() {
    // The simulator's dominant pattern: short deltas with heavy
    // same-cycle bursts (delta 0 with probability ~1/2).
    for case in 0..CASES {
        run_case(
            case,
            600,
            |rng| if rng.chance(0.5) { 0 } else { rng.below(50) },
        );
    }
}

#[test]
fn wheel_matches_heap_across_levels() {
    // Deltas spanning every wheel level: 2^k jitter for k in 0..=46 keeps
    // pushes landing in level-0 slots through the top level.
    for case in 0..CASES {
        run_case(case, 400, |rng| {
            let k = rng.below(47) as u32;
            (1u64 << k) + rng.below(1 + (1 << k.min(20)))
        });
    }
}

#[test]
fn wheel_matches_heap_beyond_horizon() {
    // Deltas past the 2^48 wheel span exercise the overflow list and its
    // fold-back when the frontier catches up.
    for case in 0..CASES {
        run_case(case, 300, |rng| {
            if rng.chance(0.2) {
                (1u64 << 48) + rng.below(1 << 50)
            } else {
                rng.below(100)
            }
        });
    }
}
