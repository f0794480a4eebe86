//! Counted FCFS resource pools (drives, robot arms, operators, movers).
//!
//! The §5.1.1 analysis attributes most of the latency to first byte to
//! queueing "in several places in the system — the Cray, the MSS CPU,
//! the network from disk to Cray, and data transfer"; every such place is
//! a [`Pool`] here. A pool owns `capacity` interchangeable units and a
//! FIFO queue of waiting request ids.

use std::collections::VecDeque;

/// A counted resource with an FCFS wait queue of request ids.
#[derive(Debug, Clone)]
pub struct Pool {
    capacity: u32,
    in_use: u32,
    queue: VecDeque<usize>,
}

impl Pool {
    /// Creates a pool with the given unit count.
    pub fn new(capacity: u32) -> Self {
        Pool {
            capacity,
            in_use: 0,
            queue: VecDeque::new(),
        }
    }

    /// Attempts to acquire one unit for `req`.
    ///
    /// Returns `true` when granted immediately; otherwise the request is
    /// appended to the FIFO queue and will be returned by a later
    /// [`Pool::release`].
    pub fn acquire(&mut self, req: usize) -> bool {
        if self.in_use < self.capacity {
            self.in_use += 1;
            true
        } else {
            self.queue.push_back(req);
            false
        }
    }

    /// Releases one unit; if someone is waiting, the unit is handed over
    /// and the beneficiary's id returned.
    ///
    /// # Panics
    ///
    /// Panics if the pool has no units in use.
    pub fn release(&mut self) -> Option<usize> {
        assert!(self.in_use > 0, "release on an idle pool");
        if let Some(next) = self.queue.pop_front() {
            // Unit transfers directly; busy count is unchanged.
            Some(next)
        } else {
            self.in_use -= 1;
            None
        }
    }

    /// Units currently held.
    pub fn in_use(&self) -> u32 {
        self.in_use
    }

    /// Requests waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Total capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_until_capacity_then_queues() {
        let mut p = Pool::new(2);
        assert!(p.acquire(1));
        assert!(p.acquire(2));
        assert!(!p.acquire(3));
        assert!(!p.acquire(4));
        assert_eq!(p.in_use(), 2);
        assert_eq!(p.queued(), 2);
    }

    #[test]
    fn release_hands_over_fifo() {
        let mut p = Pool::new(1);
        assert!(p.acquire(10));
        assert!(!p.acquire(11));
        assert!(!p.acquire(12));
        assert_eq!(p.release(), Some(11));
        assert_eq!(p.release(), Some(12));
        assert_eq!(p.release(), None);
        assert_eq!(p.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "release on an idle pool")]
    fn release_on_idle_pool_panics() {
        let mut p = Pool::new(1);
        let _ = p.release();
    }

    #[test]
    fn zero_capacity_pool_queues_everything() {
        let mut p = Pool::new(0);
        assert!(!p.acquire(7));
        assert_eq!(p.queued(), 1);
    }
}
