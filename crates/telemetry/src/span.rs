//! Hierarchical, virtual-time spans: the causal companion to the flat
//! event log.
//!
//! An [`Event`](crate::Event) says *what* happened; a [`Span`] says *how
//! long a phase lasted* and *inside which larger phase* — which is exactly
//! the information the critical-path analyses of the paper's claims need
//! (migration stalls of §5.2 Table 2, straggler iterations of §4.2,
//! pod-startup latency under contention).
//!
//! Spans follow the same two rules as the event log:
//!
//! * **Deterministic.** Start/end stamps are [`SimTime`] (never the wall
//!   clock), and a span is recorded whole ([`SpanLog::complete`]): ids are
//!   assigned, and spans serialize, in record order — so two runs with the
//!   same seed produce byte-identical span logs. A parent is recorded
//!   before its children, which name it explicitly.
//! * **Bounded.** Spans live in a ring buffer; evictions are *counted*
//!   ([`SpanLog::dropped`]) so a summary never silently pretends the log is
//!   complete.

use dlrover_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Default span capacity (spans beyond this evict the oldest).
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// Identifier of a span within one [`SpanLog`], assigned at record time.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SpanId(pub u64);

/// The category taxonomy of the stack's phases.
///
/// Categories are coarse on purpose: analyzers key on them (e.g. the
/// critical-path extractor ranks them by blocking-ness), while free-form
/// detail goes in the span label. The `iteration/*` sub-categories mirror
/// the cost model's phase decomposition (Eqns. 2–6): embedding lookup,
/// gradient push (parameter update), parameter pull (sync), and dense
/// compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SpanCategory {
    /// Whole-job lifetime (runner root span).
    Job,
    /// Pod request → placement decision (grant or still pending).
    Scheduling,
    /// Pod placement → running (image pull + init, §5.2's overlap target).
    PodStartup,
    /// A pod eviction for a higher-priority service (§2.2).
    Preemption,
    /// One engine slice of training iterations.
    Iteration,
    /// Embedding lookup phase (`t_emb`, Eqn. 5 — the Fig. 1a 30–48 %).
    IterLookup,
    /// Gradient push / parameter update phase (`t_upd`, Eqn. 3).
    IterPush,
    /// Parameter pull / sync phase (`t_sync`, Eqn. 4).
    IterPull,
    /// Dense gradient computation + fixed overheads (`t_grad + β`).
    IterCompute,
    /// Checkpoint save or load (flash or RDS tier, §5.2).
    Checkpoint,
    /// Migration activity: pauses, degraded running, plan execution (§5.2).
    Migration,
    /// PS partition rebalancing onto healthy capacity (§4.3).
    Rebalance,
    /// A worker running far below its peers (§4.2 / Fig. 13).
    Straggler,
    /// Cluster-level plan generation / selection (Eqns. 11–14).
    Planning,
    /// Per-job policy evaluation (stage-2 adjustment).
    PolicyEval,
}

impl SpanCategory {
    /// Every category, in declaration order (for analyzers and tests).
    pub const ALL: [SpanCategory; 15] = [
        SpanCategory::Job,
        SpanCategory::Scheduling,
        SpanCategory::PodStartup,
        SpanCategory::Preemption,
        SpanCategory::Iteration,
        SpanCategory::IterLookup,
        SpanCategory::IterPush,
        SpanCategory::IterPull,
        SpanCategory::IterCompute,
        SpanCategory::Checkpoint,
        SpanCategory::Migration,
        SpanCategory::Rebalance,
        SpanCategory::Straggler,
        SpanCategory::Planning,
        SpanCategory::PolicyEval,
    ];

    /// Stable taxonomy name (used in summaries, critical-path phase keys,
    /// and Chrome trace categories).
    pub fn name(&self) -> &'static str {
        match self {
            SpanCategory::Job => "job",
            SpanCategory::Scheduling => "scheduling",
            SpanCategory::PodStartup => "pod-startup",
            SpanCategory::Preemption => "preemption",
            SpanCategory::Iteration => "iteration",
            SpanCategory::IterLookup => "iteration/lookup",
            SpanCategory::IterPush => "iteration/push",
            SpanCategory::IterPull => "iteration/pull",
            SpanCategory::IterCompute => "iteration/compute",
            SpanCategory::Checkpoint => "checkpoint",
            SpanCategory::Migration => "migration",
            SpanCategory::Rebalance => "rebalance",
            SpanCategory::Straggler => "straggler",
            SpanCategory::Planning => "planning",
            SpanCategory::PolicyEval => "policy-eval",
        }
    }
}

/// A span's free-form detail, stored inside the span when it is short.
///
/// Labels are overwhelmingly fixed words (`"slice"`, `"pause"`, `"w3"`), and
/// a tick records several spans, so up to [`Label::INLINE`] bytes live in
/// the span itself and only a longer label goes to the heap. Either way it
/// reads as a `str` (it derefs to one) and serializes as a JSON string; the
/// size is a `String`'s.
#[derive(Clone)]
pub struct Label(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; Label::INLINE] },
    Heap(Box<str>),
}

impl Label {
    /// Longest label, in bytes, stored without a heap allocation.
    pub const INLINE: usize = 22;

    /// The label's text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("inline label bytes are a whole str"),
            Repr::Heap(text) => text,
        }
    }
}

impl From<&str> for Label {
    fn from(text: &str) -> Self {
        if text.len() > Label::INLINE {
            return Label(Repr::Heap(text.into()));
        }
        let mut bytes = [0; Label::INLINE];
        bytes[..text.len()].copy_from_slice(text.as_bytes());
        Label(Repr::Inline { len: text.len() as u8, bytes })
    }
}

impl Default for Label {
    fn default() -> Self {
        Label::from("")
    }
}

impl std::ops::Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Label) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Label {
    fn to_json_value(&self) -> serde::json::Value {
        self.as_str().to_json_value()
    }
}

impl Deserialize for Label {
    fn from_json_value(v: &serde::json::Value) -> Result<Self, serde::json::Error> {
        String::from_json_value(v).map(|text| Label::from(text.as_str()))
    }
}

/// One recorded phase of virtual time.
///
/// `track` groups spans that belong to one sequential timeline — a job's
/// engine, a pod, a per-case experiment lane. Analyzers treat tracks as
/// Chrome trace `tid`s and sweep each track independently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Log-assigned id (record order; survives ring-buffer eviction).
    pub id: u64,
    /// Enclosing span's id, if any.
    pub parent: Option<u64>,
    /// Phase category.
    pub cat: SpanCategory,
    /// Free-form detail (e.g. `"w3"`, `"pause"`, `"save"`).
    pub label: Label,
    /// Timeline lane (job id, pod id, or experiment case id).
    pub track: u64,
    /// Virtual start, microseconds since simulation start.
    pub start_us: u64,
    /// Virtual end, microseconds (`== start_us` for instant spans).
    pub end_us: u64,
}

impl Span {
    /// Virtual start time.
    pub fn start(&self) -> SimTime {
        SimTime::from_micros(self.start_us)
    }

    /// Virtual end time.
    pub fn end(&self) -> SimTime {
        SimTime::from_micros(self.end_us)
    }

    /// Duration in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Ring-buffered span log. See the module docs for the determinism and
/// boundedness rules.
#[derive(Debug, Clone)]
pub struct SpanLog {
    closed: Vec<Span>,
    capacity: usize,
    /// Index of the oldest closed span once the buffer has wrapped.
    head: usize,
    next_id: u64,
    closed_total: u64,
    dropped: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

impl SpanLog {
    /// Creates a log retaining at most `capacity` closed spans.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "span log capacity must be positive");
        SpanLog { closed: Vec::new(), capacity, head: 0, next_id: 0, closed_total: 0, dropped: 0 }
    }

    /// Records a complete span `[start, end]`; an end before the start
    /// clamps to the start (spans never run backwards).
    pub fn complete(
        &mut self,
        start: SimTime,
        end: SimTime,
        cat: SpanCategory,
        label: &str,
        track: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        let id = self.next_id;
        self.next_id += 1;
        self.push_closed(Span {
            id,
            parent: parent.map(|p| p.0),
            cat,
            label: label.into(),
            track,
            start_us: start.as_micros(),
            end_us: end.as_micros().max(start.as_micros()),
        });
        SpanId(id)
    }

    fn push_closed(&mut self, span: Span) {
        self.closed_total += 1;
        if self.closed.len() < self.capacity {
            self.closed.push(span);
        } else {
            self.closed[self.head] = span;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Spans currently retained, in record order (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = &Span> {
        let (wrapped, first) = self.closed.split_at(self.head);
        first.iter().chain(wrapped.iter())
    }

    /// Closed spans retained.
    pub fn len(&self) -> usize {
        self.closed.len()
    }

    /// True when no span was ever closed.
    pub fn is_empty(&self) -> bool {
        self.closed.is_empty()
    }

    /// Total spans ever closed (retained + evicted).
    pub fn total_closed(&self) -> u64 {
        self.closed_total
    }

    /// Closed spans evicted by the ring buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained virtual time per category name, sorted by name.
    pub fn category_totals(&self) -> BTreeMap<&'static str, u64> {
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in self.iter() {
            *totals.entry(s.cat.name()).or_insert(0) += s.dur_us();
        }
        totals
    }

    /// Appends every closed span retained by `other`, remapping ids into
    /// this log's id space so parent/child nesting survives the merge.
    ///
    /// This is the span half of the parallel experiment engine's per-unit
    /// log merge. Each absorbed span's `id` (and `parent`, when present) is
    /// shifted by this log's current `next_id`, which keeps (a) absorbed
    /// ids disjoint from existing ones and (b) every absorbed parent link
    /// pointing at the same absorbed span it did in the unit log — even
    /// when the parent itself was evicted. Merge order is the caller's
    /// (sorted-unit-key) order, so the remapped ids are independent of
    /// thread interleaving. `other`'s evictions are carried over.
    pub fn absorb(&mut self, other: &SpanLog) {
        self.absorb_owned(other.clone());
    }

    /// [`Self::absorb`], consuming the other log: spans (and their heap
    /// `label`s) *move* into this log instead of being cloned, the base-id
    /// offset is applied in one in-place pass (skipped entirely when this
    /// log has never assigned an id, the common first-absorb case), and
    /// when the target ring has room the batch lands via one bulk append.
    /// Byte-for-byte the same merged log as [`Self::absorb`] — only the
    /// copies are gone.
    pub fn absorb_owned(&mut self, mut other: SpanLog) {
        let offset = self.next_id;
        self.closed_total += other.dropped;
        self.dropped += other.dropped;
        // Restore close order (oldest first) in place, then remap the
        // whole id space by the base offset.
        other.closed.rotate_left(other.head);
        other.head = 0;
        if offset != 0 {
            for span in &mut other.closed {
                span.id += offset;
                if let Some(p) = span.parent.as_mut() {
                    *p += offset;
                }
            }
        }
        if self.head == 0 && self.closed.len() + other.closed.len() <= self.capacity {
            self.closed_total += other.closed.len() as u64;
            self.closed.append(&mut other.closed);
        } else {
            for span in other.closed.drain(..) {
                self.push_closed(span);
            }
        }
        self.next_id = offset + other.next_id;
    }

    /// Serializes the retained closed spans as JSON Lines (one compact
    /// object per line, trailing newline). Byte-identical across runs with
    /// identical span streams.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.iter() {
            out.push_str(&serde_json::to_string(s).expect("span serializes"));
            out.push('\n');
        }
        out
    }
}

/// Parses a JSONL span dump back into spans (inverse of
/// [`SpanLog::to_jsonl`]). Returns `None` on the first malformed line.
pub fn parse_spans_jsonl(text: &str) -> Option<Vec<Span>> {
    text.lines().map(|l| serde_json::from_str(l).ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A span's open and close stamps and its explicit parent round-trip
    /// through [`SpanLog::complete`], in record order.
    #[test]
    fn open_close_roundtrip() {
        let mut log = SpanLog::default();
        let a = log.complete(t(1), t(5), SpanCategory::Migration, "pause", 7, None);
        let b = log.complete(t(2), t(3), SpanCategory::Checkpoint, "save", 7, Some(a));
        let spans: Vec<&Span> = log.iter().collect();
        assert_eq!(spans.len(), 2);
        // Record order: the parent first.
        assert_eq!(spans[1].id, b.0);
        assert_eq!(spans[1].cat, SpanCategory::Checkpoint);
        assert_eq!(spans[1].parent, Some(a.0));
        assert_eq!(spans[0].dur_us(), 4_000_000);
    }

    #[test]
    fn backwards_close_clamps_to_start() {
        let mut log = SpanLog::default();
        log.complete(t(10), t(5), SpanCategory::Job, "", 0, None);
        assert_eq!(log.iter().next().unwrap().dur_us(), 0);
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let mut log = SpanLog::with_capacity(2);
        for i in 0..5u64 {
            log.complete(t(i), t(i + 1), SpanCategory::Iteration, "", 0, None);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.total_closed(), 5);
        let ids: Vec<u64> = log.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![3, 4], "oldest evicted, order preserved");
    }

    #[test]
    fn jsonl_roundtrips_and_is_deterministic() {
        let build = || {
            let mut log = SpanLog::default();
            let p = log.complete(t(0), t(4), SpanCategory::Iteration, "slice", 3, None);
            log.complete(t(0), t(1), SpanCategory::IterLookup, "", 3, Some(p));
            log.to_jsonl()
        };
        let a = build();
        assert_eq!(a, build());
        let parsed = parse_spans_jsonl(&a).expect("parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].cat, SpanCategory::Iteration);
        assert_eq!(parsed[1].parent, Some(parsed[0].id));
    }

    #[test]
    fn absorb_preserves_parent_child_nesting_across_unit_boundaries() {
        // Two units each build a parent/child tree with ids starting at 0.
        let unit = |base: u64| {
            let mut log = SpanLog::default();
            let p = log.complete(t(base), t(base + 2), SpanCategory::Job, "job", base, None);
            log.complete(t(base), t(base + 1), SpanCategory::Checkpoint, "save", base, Some(p));
            log
        };
        let (a, b) = (unit(10), unit(20));
        let mut merged = SpanLog::default();
        merged.absorb(&a);
        merged.absorb(&b);
        let spans: Vec<&Span> = merged.iter().collect();
        assert_eq!(spans.len(), 4);
        // Every child still points at *its own unit's* parent: the merge
        // must not alias unit B's child (original parent id 0) onto unit
        // A's parent (merged id 0).
        for child in spans.iter().filter(|s| s.parent.is_some()) {
            let parent = spans
                .iter()
                .find(|s| s.id == child.parent.unwrap())
                .expect("parent survives the merge");
            assert_eq!(parent.track, child.track, "child rebound to a foreign parent");
            assert!(parent.start_us <= child.start_us && child.end_us <= parent.end_us);
        }
        // Ids are disjoint across units.
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "merged ids must be unique");
    }

    #[test]
    fn absorb_carries_drop_accounting() {
        let mut part = SpanLog::with_capacity(1);
        part.complete(t(0), t(1), SpanCategory::Iteration, "", 0, None);
        part.complete(t(1), t(2), SpanCategory::Iteration, "", 0, None); // evicts
        let mut merged = SpanLog::default();
        merged.absorb(&part);
        assert_eq!(merged.total_closed(), 2, "evicted spans still count as closed work");
        assert_eq!(merged.dropped(), 1);
        // next_id advanced past the part's id space: fresh spans cannot
        // collide with absorbed ones.
        let fresh = merged.complete(t(5), t(6), SpanCategory::Job, "", 0, None);
        assert!(fresh.0 >= 2);
    }

    #[test]
    fn absorb_owned_matches_absorb_byte_for_byte() {
        // Parts exercising every path: wrapped ring in the source, empty
        // source, non-zero base offset, and capacity pressure in the
        // target (slow push path).
        let wrapped = {
            let mut log = SpanLog::with_capacity(2);
            for i in 0..4u64 {
                let p = log.complete(t(i), t(i + 2), SpanCategory::Job, "job", i, None);
                log.complete(t(i), t(i + 1), SpanCategory::Checkpoint, "save", i, Some(p));
            }
            log
        };
        let plain = {
            let mut log = SpanLog::default();
            log.complete(t(0), t(9), SpanCategory::Migration, "pause", 1, None);
            log
        };
        for target_cap in [1usize, 3, 64] {
            let mut by_ref = SpanLog::with_capacity(target_cap);
            let mut by_own = SpanLog::with_capacity(target_cap);
            for part in [&plain, &wrapped, &SpanLog::default(), &plain] {
                by_ref.absorb(part);
                by_own.absorb_owned(part.clone());
            }
            assert_eq!(by_ref.to_jsonl(), by_own.to_jsonl(), "cap {target_cap}");
            assert_eq!(by_ref.total_closed(), by_own.total_closed());
            assert_eq!(by_ref.dropped(), by_own.dropped());
            assert_eq!(by_ref.next_id, by_own.next_id);
        }
    }

    #[test]
    fn category_names_are_stable_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for c in SpanCategory::ALL {
            assert!(seen.insert(c.name()), "duplicate name {}", c.name());
        }
        assert_eq!(SpanCategory::IterLookup.name(), "iteration/lookup");
        assert_eq!(SpanCategory::PodStartup.name(), "pod-startup");
    }

    #[test]
    fn category_totals_sum_durations() {
        let mut log = SpanLog::default();
        log.complete(t(0), t(2), SpanCategory::Migration, "", 0, None);
        log.complete(t(5), t(6), SpanCategory::Migration, "", 0, None);
        let totals = log.category_totals();
        assert_eq!(totals["migration"], 3_000_000);
    }
}
