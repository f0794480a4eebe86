//! Discrete-event core: simulation clock and a stable event queue.
//!
//! Times are integer **milliseconds** since the Unix epoch (the traces
//! carry seconds for start/latency and milliseconds for transfer time, so
//! milliseconds lose nothing). The queue breaks ties by insertion order,
//! which keeps runs deterministic for a given seed.
//!
//! The queue is two containers merged by one key. Every push takes the
//! next sequence number, and pops come out in `(time, seq)` order — a
//! total order, so *where* an event is stored can never change when it
//! pops. A push whose time is not before the newest entry of the
//! **sorted lane** (a `VecDeque`) is appended there in O(1); anything
//! else goes to the binary heap. Events scheduled in time order — a
//! fault schedule's outage windows, all pushed up front — therefore
//! never enter the heap, which stays as deep as the in-flight working
//! set however many far-future events are parked.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Simulation time in milliseconds since the Unix epoch.
pub type SimMs = i64;

/// Milliseconds per second.
pub const MS: i64 = 1000;

/// A time-ordered, insertion-stable event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pushes that arrived in nondecreasing time order: sorted by
    /// `(time, seq)` by construction.
    lane: VecDeque<(SimMs, u64, E)>,
    /// Everything pushed earlier than the lane's newest entry.
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
            lane: VecDeque::new(),
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: SimMs, event: E) {
        match self.lane.back() {
            Some(&(back, _, _)) if at < back => {
                self.heap.push(Reverse((at, self.seq, EventSlot(event))));
            }
            _ => self.lane.push_back((at, self.seq, event)),
        }
        self.seq += 1;
    }

    /// True when the earliest event by `(time, seq)` is the lane's
    /// front; false when it is the heap's top or the queue is empty.
    fn lane_is_next(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(&(lt, ls, _)), Some(Reverse((ht, hs, _)))) => (lt, ls) < (*ht, *hs),
            (lane, _) => lane.is_some(),
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimMs, E)> {
        if self.lane_is_next() {
            self.lane.pop_front().map(|(t, _, event)| (t, event))
        } else {
            self.heap.pop().map(|Reverse((t, _, slot))| (t, slot.0))
        }
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
        if self.lane_is_next() {
            self.lane.front().map(|&(t, _, _)| t)
        } else {
            self.heap.peek().map(|Reverse((t, _, _))| *t)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }

    /// Entries in the binary heap alone (the lane excluded).
    #[cfg(test)]
    fn heap_len(&self) -> usize {
        self.heap.len()
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
    fn parked_ascending_pushes_stay_out_of_the_heap() {
        let mut q = EventQueue::new();
        // A fault schedule's shape: 2,000 far-future events, pushed in
        // time order before the run starts.
        for w in 0..2_000i64 {
            q.push(1_000_000 + w * 500, usize::MAX);
        }
        assert_eq!((q.len(), q.heap_len()), (2_000, 0));
        // A near-term working set five deep churns underneath them.
        for j in 0..5usize {
            q.push(j as i64, j);
        }
        for step in 0..10_000usize {
            let (t, j) = q.pop().expect("the churn never drains");
            assert_eq!(j, step % 5, "near-term events pop in order");
            q.push(t + 5, j);
            assert_eq!(q.heap_len(), 5, "the heap holds the churn alone");
        }
        assert_eq!(q.len(), 2_005);
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

        /// Lane and heap together behave as the naive model — a `Vec`
        /// kept ordered by `(time, seq)` — under any interleaving of
        /// ascending far-future pushes (lane), out-of-order near pushes
        /// (heap), ties split across the two, and every read.
        #[test]
        fn lane_and_heap_match_the_sorted_vec_model(
            ops in proptest::collection::vec((0u8..8, 0i64..40), 1..300),
        ) {
            let mut q = EventQueue::new();
            let mut model: Vec<(SimMs, usize)> = Vec::new();
            let (mut far, mut prev_far) = (1_000, 1_000);
            for (seq, &(op, x)) in ops.iter().enumerate() {
                let pushed = match op {
                    // Ascending far-future push: lands in the lane.
                    0 | 1 => {
                        prev_far = far;
                        far += x;
                        Some(far)
                    }
                    // Near push, usually behind the lane's back: heap.
                    2 | 3 => Some(x),
                    // A tie with a lane entry, pushed once the lane has
                    // moved on: lands in the heap.
                    4 => Some(prev_far),
                    _ => None,
                };
                if let Some(at) = pushed {
                    q.push(at, seq);
                    // Stable insert: after every entry with time <= at.
                    let pos = model.partition_point(|&(t, _)| t <= at);
                    model.insert(pos, (at, seq));
                }
                match op {
                    5 => {
                        let expected = (!model.is_empty()).then(|| model.remove(0));
                        prop_assert_eq!(q.pop(), expected);
                    }
                    // Boundaries: just before, at, and past the head.
                    6 | 7 => {
                        let head = model.first().map_or(x, |&(t, _)| t);
                        let until = if op == 6 { head - 1 + x % 3 } else { x };
                        let due = model.first().is_some_and(|&(t, _)| t <= until);
                        let expected = due.then(|| model.remove(0));
                        prop_assert_eq!(q.pop_due(until), expected);
                    }
                    _ => {}
                }
                prop_assert_eq!(q.peek_time(), model.first().map(|&(t, _)| t));
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
            }
            // Drain: the full remaining order, ties included.
            let mut rest = Vec::new();
            while let Some(e) = q.pop() {
                rest.push(e);
            }
            prop_assert_eq!(rest, model);
        }
    }
}
