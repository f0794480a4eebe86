//! Discrete-event core: simulation clock and a stable event queue.
//!
//! Times are integer **milliseconds** since the Unix epoch (the traces
//! carry seconds for start/latency and milliseconds for transfer time, so
//! milliseconds lose nothing). The queue breaks ties by insertion order,
//! which keeps runs deterministic for a given seed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation time in milliseconds since the Unix epoch.
pub type SimMs = i64;

/// Milliseconds per second.
pub const MS: i64 = 1000;

/// A time-ordered, insertion-stable event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimMs, u64, EventSlot<E>)>>,
    seq: u64,
}

/// Wrapper that exempts the payload from the heap ordering.
#[derive(Debug)]
struct EventSlot<E>(E);

impl<E> PartialEq for EventSlot<E> {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventSlot<E> {}
impl<E> PartialOrd for EventSlot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventSlot<E> {
    fn cmp(&self, _other: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: SimMs, event: E) {
        self.heap.push(Reverse((at, self.seq, EventSlot(event))));
        self.seq += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimMs, E)> {
        self.heap.pop().map(|Reverse((t, _, slot))| (t, slot.0))
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `until`.
    pub fn pop_due(&mut self, until: SimMs) -> Option<(SimMs, E)> {
        if self.peek_time()? <= until {
            self.pop()
        } else {
            None
        }
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimMs> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.peek_time(), Some(10));
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, 1);
        q.push(5, 2);
        q.push(5, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::default();
        assert!(q.is_empty());
        q.push(1, ());
        assert_eq!(q.len(), 1);
        let _ = q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn negative_times_are_allowed_and_ordered() {
        let mut q = EventQueue::new();
        q.push(-10, "past");
        q.push(0, "epoch");
        assert_eq!(q.pop(), Some((-10, "past")));
        assert_eq!(q.pop(), Some((0, "epoch")));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The queue is a stable priority queue: output sorted by time,
        /// equal times in insertion order.
        #[test]
        fn queue_is_stable_sort(times in proptest::collection::vec(-1000i64..1000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(t, i);
            }
            let mut expected: Vec<(i64, usize)> =
                times.iter().copied().zip(0..times.len()).collect();
            expected.sort_by_key(|&(t, i)| (t, i));
            let mut got = Vec::new();
            while let Some((t, i)) = q.pop() {
                got.push((t, i));
            }
            prop_assert_eq!(got, expected);
        }
    }
}
