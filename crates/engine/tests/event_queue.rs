//! Unit and stress tests of the reference [`EventQueue`] that the
//! timing wheel is differentially tested against: time order, FIFO among
//! same-cycle events, and clean reuse after draining.

mod reference_queue;

use dynapar_engine::{Cycle, DetRng};
use reference_queue::EventQueue;

#[test]
fn pops_in_time_order() {
    let mut q = EventQueue::new();
    q.push(Cycle(30), 3);
    q.push(Cycle(10), 1);
    q.push(Cycle(20), 2);
    assert_eq!(q.pop(), Some((Cycle(10), 1)));
    assert_eq!(q.pop(), Some((Cycle(20), 2)));
    assert_eq!(q.pop(), Some((Cycle(30), 3)));
    assert_eq!(q.pop(), None);
}

#[test]
fn same_cycle_is_fifo() {
    let mut q = EventQueue::new();
    for i in 0..100 {
        q.push(Cycle(7), i);
    }
    for i in 0..100 {
        assert_eq!(q.pop(), Some((Cycle(7), i)));
    }
}

#[test]
fn interleaved_push_pop_remains_ordered() {
    let mut q = EventQueue::new();
    q.push(Cycle(10), "a");
    q.push(Cycle(5), "b");
    assert_eq!(q.pop(), Some((Cycle(5), "b")));
    q.push(Cycle(7), "c");
    q.push(Cycle(10), "d");
    assert_eq!(q.pop(), Some((Cycle(7), "c")));
    assert_eq!(q.pop(), Some((Cycle(10), "a")));
    assert_eq!(q.pop(), Some((Cycle(10), "d")));
}

#[test]
fn counters_and_emptiness() {
    let mut q: EventQueue<()> = EventQueue::new();
    assert!(q.is_empty());
    assert_eq!(q.peek_time(), None);
    q.push(Cycle(1), ());
    assert_eq!(q.len(), 1);
    assert_eq!(q.total_pushed(), 1);
    assert_eq!(q.peek_time(), Some(Cycle(1)));
    q.pop();
    assert!(q.is_empty());
    assert_eq!(q.total_pushed(), 1);
}

#[test]
fn debug_is_nonempty() {
    let q: EventQueue<u8> = EventQueue::new();
    assert!(!format!("{q:?}").is_empty());
}

#[test]
fn large_random_workload_stays_sorted() {
    let mut rng = DetRng::new(99);
    let mut q = EventQueue::new();
    for i in 0..50_000u64 {
        q.push(Cycle(rng.below(1 << 24)), i);
    }
    let mut last = Cycle::ZERO;
    let mut n = 0;
    while let Some((t, _)) = q.pop() {
        assert!(t >= last);
        last = t;
        n += 1;
    }
    assert_eq!(n, 50_000);
    assert_eq!(q.total_pushed(), 50_000);
}

#[test]
fn drain_and_refill_reuses_cleanly() {
    let mut q = EventQueue::new();
    for round in 0..5u64 {
        for i in 0..100 {
            q.push(Cycle(round * 1000 + i), i);
        }
        let mut count = 0;
        while q.pop().is_some() {
            count += 1;
        }
        assert_eq!(count, 100);
        assert!(q.is_empty());
    }
}
