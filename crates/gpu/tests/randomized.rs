//! Randomized tests for the GPU simulator's data structures, checked
//! against reference models. Driven by a seeded [`DetRng`] (no external
//! test dependencies); failures report the case index for replay.

use std::collections::HashSet;

use dynapar_engine::{Cycle, DetRng};
use dynapar_gpu::mem::{coalesce_lines, Cache, DramChannel};
use dynapar_gpu::{ThreadSource, ThreadWork};

const CASES: u64 = 64;

/// Reference LRU cache using a vector of (set, line) with explicit
/// recency ordering.
struct RefLru {
    sets: usize,
    ways: usize,
    // Per set: most-recent-last list of lines.
    content: Vec<Vec<u64>>,
}

impl RefLru {
    fn new(sets: usize, ways: usize) -> Self {
        RefLru {
            sets,
            ways,
            content: vec![Vec::new(); sets],
        }
    }
    fn probe_fill(&mut self, line: u64) -> bool {
        let set = (line % self.sets as u64) as usize;
        let list = &mut self.content[set];
        if let Some(pos) = list.iter().position(|&l| l == line) {
            list.remove(pos);
            list.push(line);
            true
        } else {
            if list.len() == self.ways {
                list.remove(0);
            }
            list.push(line);
            false
        }
    }
}

#[test]
fn cache_matches_reference_lru() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x1c4c_0000 + case);
        let sets = 1 + rng.below(7) as usize;
        let ways = 1 + rng.below(4) as usize;
        let lines: Vec<u64> = (0..1 + rng.below(499)).map(|_| rng.below(256)).collect();
        let mut dut = Cache::new(sets, ways);
        let mut reference = RefLru::new(sets, ways);
        for &l in &lines {
            assert_eq!(
                dut.probe_fill(l),
                reference.probe_fill(l),
                "case {case} line {l}"
            );
        }
    }
}

#[test]
fn cache_hit_rate_bounds() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x2c4c_0000 + case);
        let lines: Vec<u64> = (0..1 + rng.below(299)).map(|_| rng.below(64)).collect();
        let mut c = Cache::new(4, 4);
        for &l in &lines {
            c.probe_fill(l);
        }
        assert!(c.hit_rate() >= 0.0 && c.hit_rate() <= 1.0, "case {case}");
        assert_eq!(c.accesses(), lines.len() as u64, "case {case}");
    }
}

#[test]
fn coalescer_matches_hashset() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x3c0a_0000 + case);
        let addrs: Vec<u64> = (0..rng.below(128)).map(|_| rng.below(1_000_000)).collect();
        let mut v = addrs.clone();
        coalesce_lines(&mut v, 128);
        let expect: HashSet<u64> = addrs.iter().map(|a| a >> 7).collect();
        assert_eq!(v.len(), expect.len(), "case {case}");
        for &l in &v {
            assert!(expect.contains(&l), "case {case}");
        }
        // Sorted, deduped.
        for w in v.windows(2) {
            assert!(w[0] < w[1], "case {case}");
        }
    }
}

#[test]
fn dram_completions_are_causal_and_bandwidth_limited() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x4d7a_0000 + case);
        let mut reqs: Vec<(u64, u64)> = (0..1 + rng.below(99))
            .map(|_| (rng.below(10_000), rng.below(512)))
            .collect();
        let mut ch = DramChannel::new(8, 16, 100, 250, 4);
        reqs.sort_by_key(|&(t, _)| t);
        for &(t, line) in &reqs {
            let done = ch.access(Cycle(t), line);
            // Causality: completion after arrival plus minimum latency.
            assert!(done >= Cycle(t + 100), "case {case}");
        }
        assert_eq!(ch.accesses(), reqs.len() as u64, "case {case}");
        assert!(
            ch.row_hit_rate() >= 0.0 && ch.row_hit_rate() <= 1.0,
            "case {case}"
        );
    }
}

#[test]
fn derived_source_partitions_all_items_exactly_once() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x5de7_0000 + case);
        let items = 1 + rng.below(4999) as u32;
        let ipt = 1 + rng.below(63) as u32;
        let stride = rng.below(64) as u32;
        let src = ThreadSource::Derived {
            origin: ThreadWork {
                items,
                seq_base: 1 << 20,
                rand_seed: 7,
            },
            items_per_thread: ipt,
        };
        let n = src.thread_count();
        let mut total = 0u64;
        let mut next_seq = 1u64 << 20;
        for t in 0..n {
            let w = src.thread(t, stride);
            assert!(w.items <= ipt, "case {case}");
            total += w.items as u64;
            // Sequential streams tile the region contiguously.
            assert_eq!(w.seq_base, next_seq, "case {case}");
            next_seq += ipt as u64 * stride as u64;
        }
        assert_eq!(total, items as u64, "case {case}");
        // One past the end is empty.
        assert_eq!(src.thread(n, stride).items, 0, "case {case}");
    }
}

#[test]
fn explicit_source_is_faithful() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x6e2b_0000 + case);
        let counts: Vec<u32> = (0..1 + rng.below(99))
            .map(|_| rng.below(100) as u32)
            .collect();
        let threads: Vec<ThreadWork> = counts.iter().map(|&c| ThreadWork::with_items(c)).collect();
        let src = ThreadSource::Explicit(threads.into());
        assert_eq!(src.thread_count() as usize, counts.len(), "case {case}");
        assert_eq!(
            src.total_items(),
            counts.iter().map(|&c| c as u64).sum::<u64>(),
            "case {case}"
        );
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(src.thread(i as u32, 4).items, c, "case {case}");
        }
    }
}
