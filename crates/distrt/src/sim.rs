//! A minimal discrete-event simulation engine.
//!
//! Cluster-scale executions of the Fock-build algorithms (up to the paper's
//! 3888 cores) are modelled as discrete-event simulations: each virtual
//! process alternates compute and communication intervals whose durations
//! come from the calibrated ERI cost model and the α–β communication model.
//! This engine provides the event queue: schedule events at absolute times,
//! pop them in time order (FIFO among equal times).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, o: &Self) -> bool {
        self.time == o.time && self.seq == o.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, o: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want earliest first.
        o.time
            .partial_cmp(&self.time)
            .expect("non-finite event time")
            .then_with(|| o.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

/// Discrete-event simulator state: a clock and an event queue.
pub struct Sim<E> {
    now: f64,
    seq: u64,
    heap: BinaryHeap<Entry<E>>,
}

impl<E> Default for Sim<E> {
    fn default() -> Self {
        Sim {
            now: 0.0,
            seq: 0,
            heap: BinaryHeap::new(),
        }
    }
}

impl<E> Sim<E> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past
    /// (before the current clock) is a logic error.
    pub fn schedule(&mut self, at: f64, event: E) {
        debug_assert!(at.is_finite(), "event time must be finite");
        debug_assert!(
            at >= self.now - 1e-12,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.heap.push(Entry {
            time: at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| {
            self.now = e.time;
            (e.time, e.event)
        })
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut sim = Sim::new();
        sim.schedule(3.0, "c");
        sim.schedule(1.0, "a");
        sim.schedule(2.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| sim.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut sim = Sim::new();
        sim.schedule(1.0, 1);
        sim.schedule(1.0, 2);
        sim.schedule(1.0, 3);
        let order: Vec<i32> = std::iter::from_fn(|| sim.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn clock_advances() {
        let mut sim = Sim::new();
        sim.schedule(5.0, ());
        assert_eq!(sim.now(), 0.0);
        sim.pop();
        assert_eq!(sim.now(), 5.0);
        sim.schedule(sim.now() + 2.5, ());
        let (t, _) = sim.pop().unwrap();
        assert_eq!(t, 7.5);
    }

    #[test]
    fn interleaved_scheduling() {
        // Events scheduled while draining still sort correctly.
        let mut sim = Sim::new();
        sim.schedule(1.0, 0u32);
        let mut seen = Vec::new();
        while let Some((t, e)) = sim.pop() {
            seen.push(e);
            if e < 4 {
                sim.schedule(t + 1.0, e + 1);
                if e == 0 {
                    sim.schedule(t + 0.5, 100);
                }
            }
        }
        assert_eq!(seen, [0, 100, 1, 2, 3, 4]);
    }

    #[test]
    fn len_and_empty() {
        let mut sim: Sim<()> = Sim::new();
        assert!(sim.is_empty());
        sim.schedule(1.0, ());
        assert_eq!(sim.len(), 1);
        sim.pop();
        assert!(sim.is_empty());
    }
}
