//! Bounded, deterministic event log.
//!
//! A ring buffer of [`Event`]s: appends are O(1), the capacity bounds
//! memory for arbitrarily long runs (a 12-month fleet trace), and evicted
//! events are *counted* so a summary never silently pretends the log is
//! complete. Sequence numbers are assigned at append time and survive
//! eviction, which makes two logs comparable line-by-line even when both
//! wrapped.

use crate::event::{Event, EventKind};
use dlrover_sim::SimTime;
use serde::Serialize;
use std::collections::BTreeMap;

/// Default event capacity (events beyond this evict the oldest).
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// Ring-buffered event log. See the module docs.
#[derive(Debug, Clone)]
pub struct EventLog {
    buf: Vec<Event>,
    capacity: usize,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    next_seq: u64,
    dropped: u64,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::with_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventLog {
    /// Creates a log holding at most `capacity` events.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "event log capacity must be positive");
        EventLog { buf: Vec::new(), capacity, head: 0, next_seq: 0, dropped: 0 }
    }

    /// Pre-allocates room for `hint` more events, bounded by the ring
    /// capacity. Purely an allocation hint: retained events, sequence
    /// numbers, and serialized bytes are unchanged, so pre-sized and
    /// default-grown logs stay byte-identical.
    pub fn reserve(&mut self, hint: usize) {
        let target = self.capacity.min(self.buf.len().saturating_add(hint));
        self.buf.reserve(target.saturating_sub(self.buf.len()));
    }

    /// Appends an event stamped `at`.
    pub fn record(&mut self, at: SimTime, kind: EventKind) {
        let e = Event { at_us: at.as_micros(), seq: self.next_seq, kind };
        self.next_seq += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        let (wrapped, first) = self.buf.split_at(self.head);
        first.iter().chain(wrapped.iter())
    }

    /// The retained events as one slice, oldest first, for readers that
    /// want the log without a copy (the oracle's audit, a master's replay).
    /// The ring's storage is rotated in place so the oldest event sits at
    /// index 0; what the log holds — order, sequence numbers, drop count,
    /// every later record and eviction — is what it was.
    pub fn make_contiguous(&mut self) -> &[Event] {
        self.buf.rotate_left(self.head);
        self.head = 0;
        &self.buf
    }

    /// Most events the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded (retained + evicted).
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted by the ring buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Count of retained events per kind name, sorted by name.
    pub fn kind_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for e in self.iter() {
            *counts.entry(e.kind.name()).or_insert(0) += 1;
        }
        counts
    }

    /// The `n` most frequent kinds, descending by count (name-ordered ties).
    pub fn top_kinds(&self, n: usize) -> Vec<(&'static str, u64)> {
        let mut v: Vec<(&'static str, u64)> = self.kind_counts().into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v.truncate(n);
        v
    }

    /// Appends every event retained by `other` (re-stamping sequence
    /// numbers in merge order) and carries over its eviction count.
    ///
    /// This is the event half of the parallel experiment engine's per-unit
    /// log merge: each unit records into a private log, and the harness
    /// absorbs the unit logs in sorted-unit-key order. Because the merged
    /// sequence numbers depend only on that fixed order (never on thread
    /// interleaving), the merged log is byte-identical at any thread count.
    /// `other`'s evicted events are accounted into both `dropped` and
    /// `next_seq`, so `total_recorded` of the merge equals the sum of the
    /// parts; the merge target's own ring buffer may evict further (counted
    /// as usual) when the parts together exceed its capacity.
    ///
    /// Only the events this ring can still retain are copied: the rest of
    /// `other` would be evicted by its own newer events on the way in, so
    /// they are accounted (sequence numbers, `dropped`) without a clone.
    pub fn absorb(&mut self, other: &EventLog) {
        self.absorb_owned(other.tail(self.capacity));
    }

    /// This log having forgotten all but its newest `keep` retained events:
    /// same sequence numbers, same `total_recorded`, the forgotten events
    /// counted as dropped. Absorbing the tail is absorbing the whole log
    /// whenever the forgotten events would not have survived in the target
    /// anyway — an event evicted at the target and one dropped by the part
    /// both just advance `next_seq` and `dropped` by one — which is what
    /// lets a merge copy only what its ring will keep.
    pub fn tail(&self, keep: usize) -> EventLog {
        let forgotten = self.buf.len().saturating_sub(keep);
        EventLog {
            buf: self.iter().skip(forgotten).cloned().collect(),
            capacity: self.capacity,
            head: 0,
            next_seq: self.next_seq,
            dropped: self.dropped + forgotten as u64,
        }
    }

    /// [`Self::absorb`], consuming the other log: events *move* in (no
    /// per-event `kind` clone), sequence numbers are rewritten in place,
    /// and when the target ring has room the batch lands via one bulk
    /// append. Byte-for-byte the same merged log as [`Self::absorb`].
    pub fn absorb_owned(&mut self, mut other: EventLog) {
        self.next_seq += other.dropped;
        self.dropped += other.dropped;
        other.buf.rotate_left(other.head);
        other.head = 0;
        if self.head == 0 && self.buf.len() + other.buf.len() <= self.capacity {
            for e in &mut other.buf {
                e.seq = self.next_seq;
                self.next_seq += 1;
            }
            self.buf.append(&mut other.buf);
        } else {
            for e in other.buf.drain(..) {
                self.record(SimTime::from_micros(e.at_us), e.kind);
            }
        }
    }

    /// Serializes the retained events as JSON Lines (one compact JSON
    /// object per line, trailing newline). Byte-identical across runs with
    /// identical event streams.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.iter() {
            out.push_str(&serde_json::to_string(e).expect("event serializes"));
            out.push('\n');
        }
        out
    }
}

/// One difference between two JSONL event logs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LogDiff {
    /// Zero-based line number.
    pub line: usize,
    /// The line in the left log (`None` past its end).
    pub left: Option<String>,
    /// The line in the right log (`None` past its end).
    pub right: Option<String>,
}

/// Compares two JSONL event logs line-by-line, returning up to `limit`
/// differences (an empty result means the logs are identical).
pub fn diff_jsonl(left: &str, right: &str, limit: usize) -> Vec<LogDiff> {
    let mut diffs = Vec::new();
    let mut l = left.lines();
    let mut r = right.lines();
    let mut line = 0usize;
    loop {
        let (a, b) = (l.next(), r.next());
        if a.is_none() && b.is_none() {
            break;
        }
        if a != b {
            diffs.push(LogDiff { line, left: a.map(str::to_string), right: b.map(str::to_string) });
            if diffs.len() >= limit {
                break;
            }
        }
        line += 1;
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn stamp(i: u64) -> SimTime {
        SimTime::from_secs(i)
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let mut log = EventLog::with_capacity(3);
        for i in 0..5u64 {
            log.record(stamp(i), EventKind::WorkerAdded { worker: i });
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.total_recorded(), 5);
        let seqs: Vec<u64> = log.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest evicted, order preserved");
    }

    #[test]
    fn top_kinds_rank_by_count() {
        let mut log = EventLog::default();
        for i in 0..3 {
            log.record(stamp(i), EventKind::WorkerAdded { worker: i });
        }
        log.record(stamp(9), EventKind::JobCompleted { job: 0 });
        let top = log.top_kinds(5);
        assert_eq!(top[0], ("WorkerAdded", 3));
        assert_eq!(top[1], ("JobCompleted", 1));
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let mut log = EventLog::default();
        log.record(stamp(1), EventKind::PodPlaced { pod: 1, node: 2 });
        log.record(stamp(2), EventKind::PodFailed { pod: 3 });
        let text = log.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"PodPlaced\""));
    }

    #[test]
    fn absorb_resequences_in_merge_order_and_totals_add_up() {
        let mut a = EventLog::default();
        a.record(stamp(1), EventKind::JobStarted { job: 1 });
        let mut b = EventLog::with_capacity(1);
        b.record(stamp(2), EventKind::WorkerAdded { worker: 1 });
        b.record(stamp(3), EventKind::WorkerAdded { worker: 2 }); // evicts the first
        let mut merged = EventLog::default();
        merged.absorb(&a);
        merged.absorb(&b);
        // total = 1 (from a) + 2 (from b, one evicted) — the merge never
        // undercounts work that a unit actually did.
        assert_eq!(merged.total_recorded(), 3);
        assert_eq!(merged.dropped(), 1);
        let seqs: Vec<u64> = merged.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 2], "b's retained event re-sequenced after b's drop");
        // Absorb order is the caller's contract: same parts, same order,
        // byte-identical JSONL.
        let mut again = EventLog::default();
        again.absorb(&a);
        again.absorb(&b);
        assert_eq!(merged.to_jsonl(), again.to_jsonl());
    }

    #[test]
    fn absorb_respects_target_capacity() {
        let mut part = EventLog::default();
        for i in 0..5u64 {
            part.record(stamp(i), EventKind::WorkerAdded { worker: i });
        }
        let mut merged = EventLog::with_capacity(3);
        merged.absorb(&part);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.dropped(), 2);
        assert_eq!(merged.total_recorded(), 5);
    }

    #[test]
    fn absorb_owned_matches_absorb_byte_for_byte() {
        let wrapped = {
            let mut log = EventLog::with_capacity(2);
            for i in 0..5u64 {
                log.record(stamp(i), EventKind::WorkerAdded { worker: i });
            }
            log
        };
        let plain = {
            let mut log = EventLog::default();
            log.record(stamp(9), EventKind::JobCompleted { job: 3 });
            log
        };
        for target_cap in [1usize, 3, 64] {
            let mut by_ref = EventLog::with_capacity(target_cap);
            let mut by_own = EventLog::with_capacity(target_cap);
            for part in [&plain, &wrapped, &EventLog::default(), &plain] {
                by_ref.absorb(part);
                by_own.absorb_owned(part.clone());
            }
            assert_eq!(by_ref.to_jsonl(), by_own.to_jsonl(), "cap {target_cap}");
            assert_eq!(by_ref.total_recorded(), by_own.total_recorded());
            assert_eq!(by_ref.dropped(), by_own.dropped());
        }
    }

    #[test]
    fn diff_reports_divergence_and_length_mismatch() {
        let a = "x\ny\nz\n";
        let b = "x\nY\n";
        let d = diff_jsonl(a, b, 10);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].line, 1);
        assert_eq!(d[0].left.as_deref(), Some("y"));
        assert_eq!(d[0].right.as_deref(), Some("Y"));
        assert_eq!(d[1].right, None);
        assert!(diff_jsonl(a, a, 10).is_empty());
    }

    /// Absorb by definition: carry the part's drops, then record every
    /// retained event one by one, letting the target ring evict as it goes.
    /// What `absorb` (tail copy + bulk append) must be indistinguishable from.
    fn absorb_by_record(target: &mut EventLog, part: &EventLog) {
        target.next_seq += part.dropped;
        target.dropped += part.dropped;
        for e in part.iter() {
            target.record(SimTime::from_micros(e.at_us), e.kind.clone());
        }
    }

    fn filled(capacity: usize, recorded: u64, tag: u64) -> EventLog {
        let mut log = EventLog::with_capacity(capacity);
        for i in 0..recorded {
            log.record(stamp(i), EventKind::WorkerAdded { worker: tag * 1_000 + i });
        }
        log
    }

    fn assert_same(got: &EventLog, want: &EventLog, what: &str) {
        assert_eq!(got.to_jsonl(), want.to_jsonl(), "{what}: retained events / seq");
        assert_eq!(got.total_recorded(), want.total_recorded(), "{what}: total");
        assert_eq!(got.dropped(), want.dropped(), "{what}: dropped");
        assert_eq!(got.len(), want.len(), "{what}: len");
    }

    /// Target capacities 1, 3, exact fit and roomy; wrapped, plain and empty
    /// parts; empty, part-filled and already-wrapped targets.
    #[test]
    fn absorb_matches_record_by_record() {
        let parts = [filled(8, 3, 1), filled(2, 5, 2), filled(4, 0, 3), filled(4, 9, 4)];
        let retained: usize = parts.iter().map(EventLog::len).sum();
        for capacity in [1, 3, retained, 64] {
            for prefill in [0, 2, capacity as u64 + 2] {
                let mut got = filled(capacity, prefill, 9);
                let mut want = got.clone();
                for (i, part) in parts.iter().enumerate() {
                    got.absorb(part);
                    absorb_by_record(&mut want, part);
                    assert_same(&got, &want, &format!("cap {capacity} prefill {prefill} part {i}"));
                }
                // The ring keeps evicting oldest-first after the merge.
                for log in [&mut got, &mut want] {
                    log.record(stamp(99), EventKind::JobCompleted { job: 1 });
                }
                assert_same(&got, &want, &format!("cap {capacity} prefill {prefill} then record"));
            }
        }
    }

    #[test]
    fn tail_forgets_oldest_and_counts_them_dropped() {
        let log = filled(4, 6, 0); // retains seq 2..=5, dropped 2
        let tail = log.tail(3);
        assert_eq!(tail.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!((tail.total_recorded(), tail.dropped()), (6, 3));
        assert_same(&log.tail(4), &log, "a tail as long as the log is the log");
        assert_same(&log.tail(99), &log, "a longer one too");
        assert_eq!((log.tail(0).len(), log.tail(0).dropped()), (0, 6));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn absorb_matches_record_by_record_on_random_logs(
            capacity in 1usize..12,
            prefill in 0u64..20,
            parts in proptest::collection::vec((1usize..10, 0u64..25), 0..6),
        ) {
            let mut got = filled(capacity, prefill, 9);
            let mut want = got.clone();
            for (tag, (cap, recorded)) in parts.into_iter().enumerate() {
                let part = filled(cap, recorded, tag as u64);
                got.absorb(&part);
                absorb_by_record(&mut want, &part);
                prop_assert_eq!(got.to_jsonl(), want.to_jsonl());
                prop_assert_eq!(
                    (got.total_recorded(), got.dropped(), got.len()),
                    (want.total_recorded(), want.dropped(), want.len())
                );
            }
        }
    }
}
