//! A hierarchical timer wheel with the exact semantics of a binary-heap
//! event queue ordered by `(fire_time, sequence)`.
//!
//! [`TimerWheel`] replaced that heap (now the test-only reference model
//! `queue::EventQueue` beside this file) on the fleet-scale path: push/pop
//! are O(1) amortised instead of O(log n), and — more importantly at a
//! million pods — the hot slots for near-future events stay cache-resident
//! instead of churning a heap that spans the whole horizon.
//!
//! Layout: virtual time is bucketed into ticks of 2^10 µs (≈1 ms). Seven
//! levels of 64 slots each cover 64^7 ≈ 4.4·10^12 ticks (≈140 years of
//! virtual time); events beyond the horizon park in an overflow list (only
//! sentinel timestamps ever get there). Each level keeps a 64-bit occupancy
//! bitmap, so "find the next pending slot" is a mask + `trailing_zeros`.
//!
//! Determinism contract (property-tested against the heap in the tests
//! below): `push` returns the same monotone sequence numbers, and `pop`
//! yields events in exactly `(fire_time, sequence)` order — same-instant
//! events fire in insertion order. The golden-trace corpus therefore cannot
//! tell the two apart, which is what let `driver.rs` switch over without
//! re-blessing the experiment digests.

use std::collections::VecDeque;

use dlrover_sim::SimTime;

/// A popped event together with its fire time and sequence id.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// Virtual instant at which the event fires.
    pub at: SimTime,
    /// Monotone insertion sequence, used as a FIFO tie-breaker.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

/// log2 of the tick length in microseconds (tick = 1024 µs).
const TICK_SHIFT: u32 = 10;
/// log2 of the slots per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels; level `l` spans 64^(l+1) ticks.
const LEVELS: usize = 7;

/// A deterministic hierarchical timer wheel.
///
/// ```
/// use dlrover_cluster::TimerWheel;
/// use dlrover_sim::SimTime;
///
/// let mut w = TimerWheel::new();
/// w.push(SimTime::from_secs(2), "late");
/// w.push(SimTime::from_secs(1), "early");
/// w.push(SimTime::from_secs(1), "early-second");
/// assert_eq!(w.pop().unwrap().event, "early");
/// assert_eq!(w.pop().unwrap().event, "early-second");
/// assert_eq!(w.pop().unwrap().event, "late");
/// assert!(w.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct TimerWheel<E> {
    /// `LEVELS * SLOTS` buckets, level-major.
    slots: Vec<Vec<ScheduledEvent<E>>>,
    /// Per-level occupancy bitmaps.
    occupancy: [u64; LEVELS],
    /// Events due at (or re-inserted at/before) the cursor tick, sorted by
    /// `(at, seq)` and popped from the front.
    ready: VecDeque<ScheduledEvent<E>>,
    /// Events beyond the wheel horizon.
    overflow: Vec<ScheduledEvent<E>>,
    /// The tick the wheel has advanced to.
    cursor: u64,
    /// Fire time of the last popped event.
    now: SimTime,
    next_seq: u64,
    len: usize,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

fn tick_of(at: SimTime) -> u64 {
    at.as_micros() >> TICK_SHIFT
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel with the clock at time zero.
    pub fn new() -> Self {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            ready: VecDeque::new(),
            overflow: Vec::new(),
            cursor: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            len: 0,
        }
    }

    /// The current virtual time: the fire time of the last popped event
    /// (or zero before anything fired).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `event` to fire at `at`, returning its sequence number.
    ///
    /// # Panics
    /// Panics in debug builds if `at` is before the current virtual time.
    pub fn push(&mut self, at: SimTime, event: E) -> u64 {
        debug_assert!(at >= self.now, "scheduling into the past: {:?} < {:?}", at, self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let ev = ScheduledEvent { at, seq, event };
        if tick_of(at) <= self.cursor {
            // Due within (or before) the tick the wheel already advanced to —
            // this happens when `peek_time` cascaded ahead and the caller then
            // scheduled something nearer. Merge straight into the ready run.
            self.insert_ready(ev);
        } else {
            self.place(ev);
        }
        seq
    }

    /// Pops the earliest event and advances the clock to its fire time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.ready.is_empty() && !self.advance() {
            return None;
        }
        let ev = self.ready.pop_front().expect("advance filled ready");
        self.now = ev.at;
        self.len -= 1;
        Some(ev)
    }

    /// Fire time of the earliest pending event, if any.
    ///
    /// Takes `&mut self` because peeking may cascade wheel levels to locate
    /// the next occupied slot; the observable state (pending set, clock,
    /// pop order) is unchanged.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        if self.ready.is_empty() && !self.advance() {
            return None;
        }
        self.ready.front().map(|e| e.at)
    }

    /// Drops all pending events (the clock is left where it is).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.clear();
        }
        self.occupancy = [0; LEVELS];
        self.ready.clear();
        self.overflow.clear();
        self.len = 0;
    }

    /// Inserts into the sorted ready run at its `(at, seq)` position.
    fn insert_ready(&mut self, ev: ScheduledEvent<E>) {
        let pos = self.ready.partition_point(|e| (e.at, e.seq) <= (ev.at, ev.seq));
        self.ready.insert(pos, ev);
    }

    /// Places an event whose tick is strictly after the cursor into the
    /// wheel (or the overflow list when it is beyond the horizon).
    fn place(&mut self, ev: ScheduledEvent<E>) {
        let tick = tick_of(ev.at);
        debug_assert!(tick > self.cursor);
        for level in 0..LEVELS {
            let window = LEVEL_BITS * (level as u32 + 1);
            if tick >> window == self.cursor >> window {
                let slot = ((tick >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
                self.slots[level * SLOTS + slot].push(ev);
                self.occupancy[level] |= 1 << slot;
                return;
            }
        }
        self.overflow.push(ev);
    }

    /// Advances the cursor to the next occupied tick and drains that tick's
    /// events into `ready`, cascading higher levels as needed. Returns false
    /// when the wheel is drained. Does not touch `now`.
    fn advance(&mut self) -> bool {
        debug_assert!(self.ready.is_empty());
        loop {
            // Level 0: slots at or after the cursor position are due ticks.
            let c0 = (self.cursor & (SLOTS as u64 - 1)) as u32;
            let masked = self.occupancy[0] & (!0u64 << c0);
            if masked != 0 {
                let slot = masked.trailing_zeros() as u64;
                self.cursor = (self.cursor & !(SLOTS as u64 - 1)) | slot;
                self.occupancy[0] &= !(1 << slot);
                let mut due = std::mem::take(&mut self.slots[slot as usize]);
                // One tick spans 1024 µs, so same-slot events can differ in
                // fire time; restore exact (at, seq) order.
                due.sort_unstable_by_key(|e| (e.at, e.seq));
                self.ready.extend(due);
                return true;
            }
            // Higher levels: cascade the earliest occupied slot down.
            let mut cascaded = false;
            for level in 1..LEVELS {
                let cl = ((self.cursor >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as u32;
                let masked = self.occupancy[level] & (!0u64 << cl);
                if masked == 0 {
                    continue;
                }
                let slot = masked.trailing_zeros() as u64;
                let window = LEVEL_BITS * (level as u32 + 1);
                self.cursor =
                    (self.cursor >> window << window) | (slot << (LEVEL_BITS * level as u32));
                self.occupancy[level] &= !(1 << slot);
                let pending = std::mem::take(&mut self.slots[level * SLOTS + slot as usize]);
                for ev in pending {
                    // An event landing exactly on the new cursor tick is due
                    // now; `place` only accepts strictly-future ticks.
                    if tick_of(ev.at) <= self.cursor {
                        self.insert_ready(ev);
                    } else {
                        self.place(ev);
                    }
                }
                if !self.ready.is_empty() {
                    return true;
                }
                cascaded = true;
                break;
            }
            if cascaded {
                continue;
            }
            // Wheel empty: pull the overflow list back into range.
            if self.overflow.is_empty() {
                return false;
            }
            let min_tick =
                self.overflow.iter().map(|e| tick_of(e.at)).min().expect("non-empty overflow");
            self.cursor = min_tick;
            for ev in std::mem::take(&mut self.overflow) {
                if tick_of(ev.at) <= self.cursor {
                    self.insert_ready(ev);
                } else {
                    self.place(ev);
                }
            }
            debug_assert!(!self.ready.is_empty());
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use dlrover_sim::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut w = TimerWheel::new();
        w.push(SimTime::from_secs(5), 5u32);
        w.push(SimTime::from_secs(1), 1u32);
        w.push(SimTime::from_secs(3), 3u32);
        let order: Vec<u32> = std::iter::from_fn(|| w.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut w = TimerWheel::new();
        let t = SimTime::from_secs(1);
        for i in 0..100u32 {
            w.push(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| w.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn same_slot_different_micros_stay_ordered() {
        // Two events land in the same 1024 µs tick but at different instants.
        let mut w = TimerWheel::new();
        w.push(SimTime::from_micros(2_000), "later-in-tick");
        w.push(SimTime::from_micros(1_100), "earlier-in-tick");
        assert_eq!(w.pop().unwrap().event, "earlier-in-tick");
        assert_eq!(w.pop().unwrap().event, "later-in-tick");
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut w = TimerWheel::new();
        assert_eq!(w.now(), SimTime::ZERO);
        w.push(SimTime::from_secs(2), ());
        w.push(SimTime::from_secs(7), ());
        w.pop();
        assert_eq!(w.now(), SimTime::from_secs(2));
        w.pop();
        assert_eq!(w.now(), SimTime::from_secs(7));
        assert!(w.pop().is_none());
        assert_eq!(w.now(), SimTime::from_secs(7));
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut w = TimerWheel::new();
        w.push(SimTime::from_secs(4), ());
        assert_eq!(w.peek_time(), Some(SimTime::from_secs(4)));
        assert_eq!(w.now(), SimTime::ZERO);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn push_after_peek_cascade_keeps_order() {
        // peek_time cascades the cursor out to the day-scale event; a
        // subsequent near-term push must still fire first.
        let mut w = TimerWheel::new();
        w.push(SimTime::from_secs(86_400), "tomorrow");
        assert_eq!(w.peek_time(), Some(SimTime::from_secs(86_400)));
        w.push(SimTime::from_secs(5), "soon");
        w.push(SimTime::from_secs(86_400), "tomorrow-2");
        assert_eq!(w.pop().unwrap().event, "soon");
        assert_eq!(w.pop().unwrap().event, "tomorrow");
        assert_eq!(w.pop().unwrap().event, "tomorrow-2");
    }

    #[test]
    fn multi_level_cascade() {
        // Spread events across wildly different magnitudes so every level
        // (and the cascade path) is exercised.
        let mut w = TimerWheel::new();
        let times = [
            SimTime::from_micros(1),
            SimTime::from_micros(70_000),
            SimTime::from_secs(5),
            SimTime::from_secs(400),
            SimTime::from_secs(3 * 3_600),
            SimTime::from_secs(86_400 * 30),
            SimTime::from_secs(86_400 * 365 * 12),
        ];
        for (i, t) in times.iter().enumerate() {
            w.push(*t, i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| w.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..times.len()).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_beyond_horizon() {
        let mut w = TimerWheel::new();
        w.push(SimTime::MAX, "sentinel");
        w.push(SimTime::from_secs(1), "near");
        assert_eq!(w.pop().unwrap().event, "near");
        let ev = w.pop().unwrap();
        assert_eq!(ev.event, "sentinel");
        assert_eq!(ev.at, SimTime::MAX);
        assert!(w.pop().is_none());
    }

    #[test]
    fn clear_empties_wheel() {
        let mut w = TimerWheel::new();
        w.push(SimTime::from_secs(1), ());
        w.push(SimTime::from_secs(86_400), ());
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert!(w.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)] // the guard is a debug_assert!; release builds skip it
    fn scheduling_into_past_panics_in_debug() {
        let mut w = TimerWheel::new();
        w.push(SimTime::from_secs(5), ());
        w.pop();
        w.push(SimTime::from_secs(1), ());
    }

    /// Operations for the equivalence property test.
    #[derive(Debug, Clone)]
    enum Op {
        /// Push at now + delta µs.
        Push(u64),
        Pop,
        Peek,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            // Mix of magnitudes: same-tick, level-0, and deep-cascade deltas.
            (0u64..2_000).prop_map(Op::Push),
            (0u64..5_000_000).prop_map(Op::Push),
            (0u64..10_000_000_000_000).prop_map(Op::Push),
            Just(Op::Pop),
            Just(Op::Pop),
            Just(Op::Peek),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The wheel is observationally identical to the reference
        /// binary-heap queue: same sequence numbers from push, same
        /// (at, seq, payload) stream from pop, same peeked times.
        #[test]
        fn matches_event_queue(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            let mut wheel = TimerWheel::new();
            let mut queue = EventQueue::new();
            let mut next_payload = 0u32;
            for op in ops {
                match op {
                    Op::Push(delta) => {
                        let at = wheel.now() + SimDuration::from_micros(delta);
                        let payload = next_payload;
                        next_payload += 1;
                        let ws = wheel.push(at, payload);
                        let qs = queue.push(at, payload);
                        prop_assert_eq!(ws, qs);
                    }
                    Op::Pop => {
                        let w = wheel.pop();
                        let q = queue.pop();
                        match (w, q) {
                            (None, None) => {}
                            (Some(w), Some(q)) => {
                                prop_assert_eq!(w.at, q.at);
                                prop_assert_eq!(w.seq, q.seq);
                                prop_assert_eq!(w.event, q.event);
                                prop_assert_eq!(wheel.now(), queue.now());
                            }
                            (w, q) => prop_assert!(false, "pop mismatch: {:?} vs {:?}", w, q),
                        }
                        prop_assert_eq!(wheel.len(), queue.len());
                    }
                    Op::Peek => {
                        prop_assert_eq!(wheel.peek_time(), queue.peek_time());
                    }
                }
            }
            // Drain both completely.
            loop {
                match (wheel.pop(), queue.pop()) {
                    (None, None) => break,
                    (Some(w), Some(q)) => {
                        prop_assert_eq!((w.at, w.seq, w.event), (q.at, q.seq, q.event));
                    }
                    (w, q) => prop_assert!(false, "drain mismatch: {:?} vs {:?}", w, q),
                }
            }
        }
    }
}
