//! Randomized tests for the engine primitives, checked against naive
//! reference implementations.
//!
//! These were property tests; they are now driven by a seeded [`DetRng`]
//! so the workspace carries no external test dependencies. Each case
//! count is high enough to cover the edge shapes the old strategies
//! generated (empty inputs, ties, single elements), and every failure
//! reports the case index for replay.

mod reference_queue;

use dynapar_engine::stats::{Cdf, Histogram, TimeWeighted, WindowedTimeAvg};
use dynapar_engine::{Cycle, DetRng};
use reference_queue::EventQueue;

const CASES: u64 = 64;

#[test]
fn event_queue_pops_sorted_and_stable() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x51ab_0000 + case);
        let n = rng.below(200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Cycle(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        assert_eq!(popped.len(), times.len(), "case {case}");
        // Non-decreasing in time; FIFO among equal times.
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "case {case}");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "case {case}: ties must pop FIFO");
            }
        }
    }
}

#[test]
fn event_queue_interleaved_pops_match_reference() {
    // Interleave pushes and pops (the simulator's actual usage pattern,
    // which also exercises the same-cycle fast lane) and check against a
    // stable-sorted reference.
    for case in 0..CASES {
        let mut rng = DetRng::new(0x1e11_0000 + case);
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (time, seq)
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..400 {
            if rng.chance(0.6) || reference.is_empty() {
                // Push at or after `now`, biased toward `now` itself so
                // same-cycle bursts are common.
                let at = if rng.chance(0.5) {
                    now
                } else {
                    now + rng.below(50)
                };
                q.push(Cycle(at), seq);
                reference.push((at, seq));
                seq += 1;
            } else {
                reference.sort_by_key(|&(t, s)| (t, s));
                let expect = reference.remove(0);
                let got = q.pop().expect("queue in sync with reference");
                assert_eq!((got.0.as_u64(), got.1), expect, "case {case}");
                now = expect.0;
            }
        }
        while let Some((t, s)) = q.pop() {
            reference.sort_by_key(|&(t, s)| (t, s));
            assert_eq!((t.as_u64(), s), reference.remove(0), "case {case}");
        }
        assert!(reference.is_empty(), "case {case}");
    }
}

#[test]
fn time_weighted_matches_naive_sum() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x7711_0000 + case);
        let steps: Vec<(u64, u64)> = (0..1 + rng.below(50))
            .map(|_| (1 + rng.below(99), rng.below(50)))
            .collect();
        // steps: (duration, value) segments laid end to end.
        let mut tw = TimeWeighted::new();
        let mut t = 0u64;
        let mut naive: u128 = 0;
        for &(dur, val) in &steps {
            tw.set(Cycle(t), val);
            naive += (val as u128) * (dur as u128);
            t += dur;
        }
        tw.finish(Cycle(t));
        assert_eq!(tw.integral(), naive, "case {case}");
    }
}

#[test]
fn windowed_avg_never_exceeds_peak() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0xa3a3_0000 + case);
        let adds: Vec<(u64, i64)> = (0..1 + rng.below(60))
            .map(|_| (rng.below(2000), rng.below(20) as i64))
            .collect();
        let mut w = WindowedTimeAvg::new(6); // 64-cycle windows
        let mut t = 0u64;
        let mut cur: i64 = 0;
        let mut peak: i64 = 0;
        for &(gap, delta) in &adds {
            t += gap;
            w.add(Cycle(t), delta);
            cur += delta;
            peak = peak.max(cur);
        }
        w.advance(Cycle(t + 256));
        assert!(w.value() <= peak as u64, "case {case}");
    }
}

#[test]
fn histogram_conserves_mass() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x4157_0000 + case);
        let samples: Vec<u64> = (0..1 + rng.below(300)).map(|_| rng.below(10_000)).collect();
        let mut h = Histogram::new(100, 5_000, 13);
        for &s in &samples {
            h.add(s);
        }
        assert_eq!(h.count(), samples.len() as u64, "case {case}");
        let total: u64 = h.bin_counts().iter().sum();
        assert_eq!(total, samples.len() as u64, "case {case}");
        let pdf_sum: f64 = h.pdf().iter().sum();
        assert!((pdf_sum - 1.0).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn cdf_quantiles_match_sorted_order() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x0cdf_0000 + case);
        let samples: Vec<u64> = (0..1 + rng.below(200)).map(|_| rng.below(1000)).collect();
        let mut c = Cdf::new();
        for &s in &samples {
            c.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        assert_eq!(c.quantile(0.0), Some(sorted[0]), "case {case}");
        assert_eq!(
            c.quantile(1.0),
            Some(*sorted.last().unwrap()),
            "case {case}"
        );
        // Cumulative count at any x equals the sorted-vector prefix count.
        for &x in &[0u64, 250, 500, 999] {
            let expect = sorted.partition_point(|&v| v <= x) as u64;
            assert_eq!(c.cumulative_at(x), expect, "case {case}");
        }
    }
}

#[test]
fn det_rng_streams_are_reproducible() {
    let mut seeds = DetRng::new(0x5eed);
    for case in 0..CASES {
        let seed = seeds.next_u64();
        let mut a = DetRng::new(seed);
        let mut b = DetRng::new(seed);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64(), "case {case} seed {seed}");
        }
    }
}

#[test]
fn zipf_and_power_law_respect_bounds() {
    let mut seeds = DetRng::new(0x21bf_0000);
    for case in 0..CASES {
        let seed = seeds.next_u64();
        let n = 1 + seeds.below(4999);
        let mut r = DetRng::new(seed);
        for _ in 0..64 {
            let z = r.zipf(n, 1.1);
            assert!(z >= 1 && z <= n, "case {case}");
            let p = r.power_law(1, n, 2.0);
            assert!(p >= 1 && p <= n, "case {case}");
        }
    }
}
