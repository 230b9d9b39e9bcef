//! The reference event queue: a plain binary heap with the stability
//! contract the simulator's [`TimingWheel`](dynapar_engine::TimingWheel)
//! must match. Test-only: the wheel differential and the randomized
//! tests include it as a module, and `event_queue.rs` tests it directly.

// Each test crate that includes this module uses a different subset.
#![allow(dead_code)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dynapar_engine::Cycle;

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
/// The simulator schedules on the
/// [`TimingWheel`](dynapar_engine::TimingWheel); this plain binary heap is
/// the reference implementation the wheel is differentially tested
/// against, so it favours obviousness over speed.
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
