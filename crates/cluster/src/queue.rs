//! The binary-heap event queue the fleet simulators ran on before
//! [`TimerWheel`](crate::TimerWheel), kept as the test-only reference model
//! the wheel's equivalence proptest checks against.
//!
//! [`EventQueue`] is a min-heap ordered by `(fire_time, sequence)`; the
//! monotone sequence number guarantees that events scheduled for the same
//! virtual instant pop in insertion order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dlrover_sim::SimTime;

use crate::timerwheel::ScheduledEvent;

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap (a max-heap) behaves as a min-heap on
        // (time, seq).
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-heap of timed events.
#[derive(Debug, Clone)]
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub(crate) fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0, now: SimTime::ZERO }
    }

    /// The current virtual time: the fire time of the last popped event
    /// (or zero before anything fired).
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` to fire at `at`.
    ///
    /// # Panics
    /// Panics in debug builds if `at` is before the current virtual time —
    /// scheduling into the past indicates a logic error in the caller.
    pub(crate) fn push(&mut self, at: SimTime, event: E) -> u64 {
        debug_assert!(at >= self.now, "scheduling into the past: {:?} < {:?}", at, self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, event });
        seq
    }

    /// Pops the earliest event and advances the clock to its fire time.
    pub(crate) fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop()?;
        self.now = ev.at;
        Some(ev)
    }

    /// Fire time of the earliest pending event, if any.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Drops all pending events (the clock is left where it is).
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrover_sim::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), 5u32);
        q.push(SimTime::from_secs(1), 1u32);
        q.push(SimTime::from_secs(3), 3u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100u32 {
            q.push(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_secs(2), ());
        q.push(SimTime::from_secs(7), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2));
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(7));
        // Clock stays put once drained.
        assert!(q.pop().is_none());
        assert_eq!(q.now(), SimTime::from_secs(7));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), 1u32);
        q.push(SimTime::from_secs(10), 10u32);
        assert_eq!(q.pop().unwrap().event, 1);
        // Schedule relative to now.
        let now = q.now();
        q.push(now + SimDuration::from_secs(2), 3u32);
        q.push(now + SimDuration::from_secs(20), 21u32);
        assert_eq!(q.pop().unwrap().event, 3);
        assert_eq!(q.pop().unwrap().event, 10);
        assert_eq!(q.pop().unwrap().event, 21);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(2), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), ());
        q.pop();
        q.push(SimTime::from_secs(1), ());
    }
}
