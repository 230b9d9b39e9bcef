//! Stable time-ordered event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Cycle;

/// An entry in the queue: ordered by time, then by insertion sequence so
/// that same-cycle events pop in FIFO order (which keeps the simulator
/// deterministic regardless of heap internals).
struct Entry<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earlier (time, seq) pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// Events are popped in non-decreasing time order; events scheduled for the
/// same cycle pop in the order they were pushed (FIFO). This stability is
/// load-bearing: the GPU simulator relies on it so that, for example, a CTA
/// completion observed by the SPAWN controller is processed before a launch
/// decision scheduled later in the same cycle by a different component.
///
/// The simulator schedules on the [`TimingWheel`](crate::TimingWheel);
/// this plain binary heap is the reference implementation the wheel is
/// differentially tested against, so it favours obviousness over speed.
///
/// # Examples
///
/// ```
/// use dynapar_engine::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(5), 'b');
/// q.push(Cycle(1), 'a');
/// assert_eq!(q.pop(), Some((Cycle(1), 'a')));
/// assert_eq!(q.peek_time(), Some(Cycle(5)));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at cycle `at`.
    pub fn push(&mut self, at: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Returns the firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever pushed (diagnostic counter).
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("total_pushed", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}

#[cfg(test)]
mod stress_tests {
    use super::*;
    use crate::DetRng;

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
}
