//! Structured telemetry for the DLRover-RM reproduction: a virtual-time
//! event log plus a metrics registry, threaded through every layer of the
//! stack.
//!
//! Two design rules make it safe to leave on by default:
//!
//! * **Deterministic.** Events are stamped with [`SimTime`] (never the wall
//!   clock), maps are `BTreeMap`s, and sequence numbers are assigned at
//!   append time — so two runs with the same seed serialize to
//!   byte-identical logs (the determinism integration tests enforce this).
//! * **Bounded.** The event log is a ring buffer ([`EventLog`]) and time
//!   series aggregate into fixed-width virtual-time buckets, so a 12-month
//!   fleet trace costs the same memory as a 10-minute one.
//!
//! The [`Telemetry`] handle is a cheaply clonable reference to one shared
//! [`Sink`]: the runner creates it, hands clones to the job master, engine,
//! cluster, and brain, and each component records into the same interleaved
//! log. Components constructed without a caller-provided handle get a
//! private default sink, which keeps instrumentation unconditional (no
//! `Option` plumbing) at the cost of an `Arc` per component. Every write
//! on the handle takes the sink's lock for that one write; a component
//! that records several things in one call takes [`Telemetry::batch`] once
//! and writes through it. A component
//! that is its sink's only writer (a fleet cell) can own the [`Sink`]
//! itself and record without the handle's lock; [`Sink::merge_ordered`]
//! and `Telemetry::from` bring it back to a handle for export.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod event;
mod log;
mod metrics;
mod oracle;
pub mod prof;
mod span;

pub use event::{
    CheckpointCommitted, CheckpointRestored, CheckpointStaged, Event, EventKind, FaultInjected,
    JobRecovered, MigrationKind, PodKind, PolicyDecisionMade, ReconfigApplied, ReconfigRolledBack,
    RetryAttempt, RetryExhausted,
};
pub use log::{diff_jsonl, EventLog, LogDiff};
pub use metrics::{Histogram, MetricsRegistry, SeriesPoint, TimeSeries};
pub use oracle::{GroundTruth, Invariant, InvariantCheck, Oracle, OracleConfig, OracleReport};
pub use span::{parse_spans_jsonl, Label, Span, SpanCategory, SpanId, SpanLog};

use dlrover_sim::SimTime;
use serde::Serialize;
use std::sync::{Arc, Mutex, MutexGuard};

/// The state of one telemetry sink: what a [`Telemetry`] handle shares
/// behind its lock, and what a single-writer component can own outright.
/// The three stores are independent, so they are plain fields.
#[derive(Debug, Default)]
pub struct Sink {
    /// The event ring.
    pub log: EventLog,
    /// Counters, histograms, series.
    pub metrics: MetricsRegistry,
    /// The span ring.
    pub spans: SpanLog,
}

impl Sink {
    /// A sink whose event log holds at most `capacity` events.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        Sink { log: EventLog::with_capacity(capacity), ..Sink::default() }
    }

    /// Records an event stamped `at`.
    pub fn record(&mut self, at: SimTime, kind: EventKind) {
        let _p = prof::scope("telemetry/record");
        self.log.record(at, kind);
    }

    /// Merges `parts` into one fresh sink with *default* capacities, in the
    /// given order; see [`Telemetry::merge_ordered`], which is this over
    /// shared handles.
    pub fn merge_ordered<'a>(parts: impl IntoIterator<Item = &'a Sink>) -> Sink {
        let parts: Vec<&Sink> = parts.into_iter().collect();
        merge_tails(Sink::default(), &parts, |part, room| Some(part.merge_part(room)))
    }

    /// A copy of this sink for a merge whose event ring has `room` left:
    /// the newest `room` events ([`EventLog::tail`]), all spans and metrics.
    fn merge_part(&self, room: usize) -> Sink {
        Sink { log: self.log.tail(room), metrics: self.metrics.clone(), spans: self.spans.clone() }
    }

    /// Moves `other`'s stores in: events re-sequenced and span ids remapped
    /// in absorb order; see [`EventLog::absorb_owned`],
    /// [`SpanLog::absorb_owned`] and [`MetricsRegistry::absorb_owned`].
    fn absorb_owned(&mut self, other: Sink) {
        let _p = prof::scope("telemetry/absorb");
        prof::add_items(other.log.len() as u64 + other.spans.len() as u64);
        self.log.absorb_owned(other.log);
        self.metrics.absorb_owned(other.metrics);
        self.spans.absorb_owned(other.spans);
    }
}

/// Absorbs `parts` into `merged`, in order, copying only the events
/// `merged`'s ring will still hold at the end. `cut(part, room)` hands over
/// a part cut to its newest `room` events (`None`: nothing to absorb); the
/// parts are asked newest first, because what a part may keep is what the
/// parts *after* it leave free. The state is that of absorbing every part
/// whole, one by one: an event cut here would have been evicted there, and
/// both count one `seq` and one drop.
fn merge_tails<P>(mut merged: Sink, parts: &[P], cut: impl Fn(&P, usize) -> Option<Sink>) -> Sink {
    let mut room = merged.log.capacity();
    let mut tails: Vec<Sink> = parts
        .iter()
        .rev()
        .filter_map(|part| {
            let tail = cut(part, room)?;
            room -= tail.log.len();
            Some(tail)
        })
        .collect();
    while let Some(tail) = tails.pop() {
        merged.absorb_owned(tail);
    }
    merged
}

/// A shared telemetry sink. Clones are handles to the *same* [`Sink`]; see
/// the crate docs for the threading model.
///
/// [`Telemetry::null`] is the one handle with no sink behind it: every
/// write is dropped before it takes a lock or builds a record, every read
/// sees an empty sink.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// `None` is the null sink.
    inner: Option<Arc<Mutex<Sink>>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Sink::default().into()
    }
}

impl From<Sink> for Telemetry {
    /// Shares an owned sink behind a handle.
    fn from(sink: Sink) -> Self {
        Telemetry { inner: Some(Arc::new(Mutex::new(sink))) }
    }
}

impl Telemetry {
    /// A sink whose event log holds at most `capacity` events.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        Sink::with_capacity(capacity).into()
    }

    /// The no-op sink: records nothing, retains nothing, reads as empty.
    /// For runs whose telemetry nobody will read (the chaos driver's
    /// fault-free baseline) and for pricing instrumentation against a run
    /// without it. Span ids it hands out are dummies — valid only as
    /// arguments back into the same null handle.
    pub fn null() -> Self {
        Telemetry { inner: None }
    }

    /// The sink under its lock, for a group of writes (or reads) that
    /// should cost one acquisition: a component that records several events,
    /// counters and spans in one call takes a batch once and writes through
    /// it (`sink.record(..)`, `sink.metrics.count(..)`,
    /// `sink.spans.complete(..)`). `None` for the null sink, so a caller can
    /// skip the arithmetic behind records nobody would keep. Every other
    /// write on the handle is a batch of one.
    ///
    /// The lock is not re-entrant: hold a batch only across code that does
    /// not record through another handle to the same sink.
    pub fn batch(&self) -> Option<MutexGuard<'_, Sink>> {
        Some(self.inner.as_ref()?.lock().expect("telemetry lock poisoned"))
    }

    /// Pre-allocates the event log for about `hint` more events (bounded
    /// by the ring capacity). An allocation hint only — see
    /// [`EventLog::reserve`]; recorded state and serialized bytes are
    /// unaffected.
    pub fn reserve_events(&self, hint: usize) {
        if let Some(mut inner) = self.batch() {
            inner.log.reserve(hint);
        }
    }

    /// Records an event stamped `at`.
    pub fn record(&self, at: SimTime, kind: EventKind) {
        if let Some(mut inner) = self.batch() {
            inner.record(at, kind);
        }
    }

    /// Increments counter `name` by `n`.
    pub fn count(&self, name: &str, n: u64) {
        if let Some(mut inner) = self.batch() {
            inner.metrics.count(name, n);
        }
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(mut inner) = self.batch() {
            inner.metrics.observe(name, value);
        }
    }

    /// Appends a time-series sample.
    pub fn sample(&self, name: &str, at: SimTime, value: f64) {
        if let Some(mut inner) = self.batch() {
            inner.metrics.sample(name, at, value);
        }
    }

    /// Total events ever recorded.
    pub fn event_count(&self) -> u64 {
        self.batch().map_or(0, |inner| inner.log.total_recorded())
    }

    /// Current counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.batch().map_or(0, |inner| inner.metrics.counter(name))
    }

    /// Serializes the retained events as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        self.batch().map_or_else(String::new, |inner| inner.log.to_jsonl())
    }

    /// Hands `read` the retained events, oldest first, as a slice borrowed
    /// from the ring under the lock (`EventLog::make_contiguous`) — the
    /// `events` of [`Self::snapshot`] without a copy. Empty for the null
    /// sink.
    pub fn with_events<R>(&self, read: impl FnOnce(&[Event]) -> R) -> R {
        match self.batch() {
            Some(mut sink) => read(sink.log.make_contiguous()),
            None => read(&[]),
        }
    }

    /// An owned copy of [`Self::with_events`]' slice.
    pub fn events(&self) -> Vec<Event> {
        self.with_events(<[Event]>::to_vec)
    }

    /// Records a complete span `[start, end]`; a parent is recorded
    /// before its children, which pass its id.
    pub fn span_complete(
        &self,
        start: SimTime,
        end: SimTime,
        cat: SpanCategory,
        label: &str,
        track: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.batch().map_or(SpanId(0), |mut inner| {
            inner.spans.complete(start, end, cat, label, track, parent)
        })
    }

    /// Total spans ever closed.
    pub fn span_count(&self) -> u64 {
        self.batch().map_or(0, |inner| inner.spans.total_closed())
    }

    /// Serializes the retained closed spans as JSON Lines.
    pub fn spans_to_jsonl(&self) -> String {
        self.batch().map_or_else(String::new, |inner| inner.spans.to_jsonl())
    }

    /// Absorbs another sink's state into this one (`other` is left
    /// untouched). Events are re-sequenced and span ids remapped in absorb
    /// order; see `EventLog::absorb_owned`, `SpanLog::absorb_owned`,
    /// and `MetricsRegistry::absorb_owned` for the per-store rules.
    ///
    /// Cost: one snapshot copy of `other`'s spans, metrics and the events
    /// this sink's ring can still retain ([`EventLog::tail`]); the merge
    /// itself then moves that snapshot in (bulk appends + in-place remaps),
    /// so events and span labels are copied once, not twice.
    ///
    /// Locking: `other` is snapshotted under its own lock *before* this
    /// sink's lock is taken, so the two locks are never held together and
    /// concurrent absorbs cannot deadlock. Absorbing a sink into itself is
    /// a no-op, and so is absorbing into or from the null sink.
    pub fn absorb(&self, other: &Telemetry) {
        let (Some(mine), Some(theirs)) = (&self.inner, &other.inner) else { return };
        if Arc::ptr_eq(mine, theirs) {
            return;
        }
        let capacity = mine.lock().expect("telemetry lock poisoned").log.capacity();
        let part = theirs.lock().expect("telemetry lock poisoned").merge_part(capacity);
        mine.lock().expect("telemetry lock poisoned").absorb_owned(part);
    }

    /// Merges per-unit sinks into one fresh sink, in the given order.
    ///
    /// This is the reduction step of the parallel experiment engine:
    /// callers pass unit sinks sorted by unit key, so the merged log is a
    /// pure function of the unit results — byte-identical however many
    /// threads produced them. The merged sink has *default* capacities: if
    /// the parts together retain more events/spans than one sink holds,
    /// the merge evicts oldest-first like any other recording (the drops
    /// are counted and surface in the summary line), keeping merged
    /// artefacts the same bounded size as serial ones.
    ///
    /// The merged sink is the one [`Self::absorb`]ing the parts one by one
    /// into a fresh sink gives — every `seq`, `total_recorded`, `dropped` —
    /// but events the merged ring would have evicted again are never
    /// copied: each part is locked once, newest first, and cut to what the
    /// later parts leave free.
    pub fn merge_ordered<'a>(parts: impl IntoIterator<Item = &'a Telemetry>) -> Telemetry {
        let parts: Vec<&Telemetry> = parts.into_iter().collect();
        let cut = |part: &&Telemetry, room| part.batch().map(|sink| sink.merge_part(room));
        merge_tails(Sink::default(), &parts, cut).into()
    }

    /// An owned, serializable snapshot of the sink's current state.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let Some(inner) = self.batch() else { return TelemetrySnapshot::default() };
        TelemetrySnapshot {
            events: inner.log.iter().cloned().collect(),
            total_events: inner.log.total_recorded(),
            dropped_events: inner.log.dropped(),
            spans: inner.spans.iter().cloned().collect(),
            total_spans: inner.spans.total_closed(),
            dropped_spans: inner.spans.dropped(),
            metrics: inner.metrics.clone(),
        }
    }

    /// A compact run summary (event totals + top kinds).
    pub fn summary(&self) -> TelemetrySummary {
        let Some(inner) = self.batch() else { return TelemetrySummary::default() };
        TelemetrySummary {
            total_events: inner.log.total_recorded(),
            dropped_events: inner.log.dropped(),
            total_spans: inner.spans.total_closed(),
            dropped_spans: inner.spans.dropped(),
            top_kinds: inner
                .log
                .top_kinds(5)
                .into_iter()
                .map(|(k, n)| (k.to_string(), n))
                .collect(),
            counters: inner.metrics.counters.clone(),
            hist_p95: inner
                .metrics
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.p95()))
                .collect(),
        }
    }
}

/// Owned copy of a sink's state, for export next to experiment results.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TelemetrySnapshot {
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Total events ever recorded (retained + evicted).
    pub total_events: u64,
    /// Events evicted by the ring buffer.
    pub dropped_events: u64,
    /// Retained spans, record order (oldest first).
    pub spans: Vec<Span>,
    /// Total spans ever closed (retained + evicted).
    pub total_spans: u64,
    /// Closed spans evicted by the ring buffer.
    pub dropped_spans: u64,
    /// The metrics registry.
    pub metrics: MetricsRegistry,
}

/// One-line-able summary of a run's telemetry.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TelemetrySummary {
    /// Total events ever recorded.
    pub total_events: u64,
    /// Events evicted by the ring buffer.
    pub dropped_events: u64,
    /// Total spans ever closed.
    pub total_spans: u64,
    /// Closed spans evicted by the ring buffer.
    pub dropped_spans: u64,
    /// Up to five most frequent event kinds, `(name, count)` descending.
    pub top_kinds: Vec<(String, u64)>,
    /// Final counter values.
    pub counters: std::collections::BTreeMap<String, u64>,
    /// Per-histogram p95 (deterministic bucket interpolation, see
    /// `Histogram::quantile`), name-ordered.
    pub hist_p95: Vec<(String, f64)>,
}

impl TelemetrySummary {
    /// Renders the summary as one log line, e.g.
    /// `events=1204 (0 dropped); spans=88 (0 dropped); top: ShardAcked x612;
    /// p95: pause=0.512s`. A non-zero drop count is always visible here, so
    /// no experiment can silently report from a truncated log; histogram
    /// p95s (up to three, name order) surface tail latency the mean hides.
    pub fn one_line(&self) -> String {
        let tops: Vec<String> = self.top_kinds.iter().map(|(k, n)| format!("{k} x{n}")).collect();
        let mut line = format!(
            "events={} ({} dropped); spans={} ({} dropped); top: {}",
            self.total_events,
            self.dropped_events,
            self.total_spans,
            self.dropped_spans,
            if tops.is_empty() { "-".to_string() } else { tops.join(", ") }
        );
        if !self.hist_p95.is_empty() {
            let p95s: Vec<String> =
                self.hist_p95.iter().take(3).map(|(k, v)| format!("{k}={v:.3}")).collect();
            line.push_str("; p95: ");
            line.push_str(&p95s.join(", "));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::DEFAULT_EVENT_CAPACITY;

    #[test]
    fn clones_share_one_sink() {
        let t = Telemetry::default();
        let u = t.clone();
        u.record(SimTime::from_secs(1), EventKind::JobStarted { job: 7 });
        u.count("ticks", 3);
        assert_eq!(t.event_count(), 1);
        assert_eq!(t.counter("ticks"), 3);
    }

    #[test]
    fn snapshot_serializes_deterministically() {
        let build = || {
            let t = Telemetry::with_capacity(8);
            for i in 0..12u64 {
                t.record(SimTime::from_secs(i), EventKind::WorkerAdded { worker: i });
            }
            t.sample("thp", SimTime::from_secs(3), 2.0);
            t.observe("pause", 0.5);
            serde_json::to_string(&t.snapshot()).unwrap()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("\"dropped_events\":4"));
    }

    #[test]
    fn span_handles_share_one_sink_and_surface_drops() {
        let t = Telemetry::default();
        let u = t.clone();
        let id = u.span_complete(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            SpanCategory::Migration,
            "pause",
            3,
            None,
        );
        t.span_complete(
            SimTime::from_secs(2),
            SimTime::from_secs(3),
            SpanCategory::Checkpoint,
            "save",
            3,
            Some(id),
        );
        assert_eq!(t.span_count(), 2);
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[1].parent, Some(id.0));
        let line = t.summary().one_line();
        assert!(line.contains("spans=2 (0 dropped)"), "{line}");
        assert_eq!(t.spans_to_jsonl().lines().count(), 2);
    }

    #[test]
    fn merge_ordered_is_a_pure_function_of_the_parts() {
        let unit = |track: u64| {
            let t = Telemetry::default();
            t.record(SimTime::from_secs(track), EventKind::JobStarted { job: track });
            t.count("jobs", 1);
            let p = t.span_complete(
                SimTime::from_secs(track),
                SimTime::from_secs(track + 2),
                SpanCategory::Job,
                "job",
                track,
                None,
            );
            t.span_complete(
                SimTime::from_secs(track),
                SimTime::from_secs(track + 1),
                SpanCategory::Checkpoint,
                "save",
                track,
                Some(p),
            );
            t
        };
        let parts = [unit(1), unit(2), unit(3)];
        let a = Telemetry::merge_ordered(&parts);
        let b = Telemetry::merge_ordered(&parts);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.spans_to_jsonl(), b.spans_to_jsonl());
        assert_eq!(a.event_count(), 3);
        assert_eq!(a.span_count(), 6);
        assert_eq!(a.counter("jobs"), 3);
        // Nesting survives the unit boundary: every child's parent is on
        // the same track.
        let spans = a.snapshot().spans;
        for child in spans.iter().filter(|s| s.parent.is_some()) {
            let parent = spans.iter().find(|s| s.id == child.parent.unwrap()).unwrap();
            assert_eq!(parent.track, child.track);
        }
    }

    #[test]
    fn absorbing_self_is_a_noop() {
        let t = Telemetry::default();
        t.record(SimTime::ZERO, EventKind::JobStarted { job: 1 });
        t.absorb(&t.clone());
        assert_eq!(t.event_count(), 1);
    }

    #[test]
    fn summary_one_line_mentions_top_kind() {
        let t = Telemetry::default();
        for i in 0..3u64 {
            t.record(SimTime::ZERO, EventKind::ShardAcked { worker: i, len: 10 });
        }
        let line = t.summary().one_line();
        assert!(line.contains("events=3"), "{line}");
        assert!(line.contains("ShardAcked x3"), "{line}");
    }

    #[test]
    fn events_is_the_snapshot_event_list() {
        let t = Telemetry::with_capacity(8);
        for i in 0..12u64 {
            t.record(SimTime::from_secs(i), EventKind::WorkerAdded { worker: i });
        }
        let events = t.events();
        assert_eq!(events.len(), 8, "the ring unrolled, evicted events gone");
        assert_eq!(events.first().map(|e| e.seq), Some(4), "oldest retained first");
        assert_eq!(
            serde_json::to_string(&events).unwrap(),
            serde_json::to_string(&t.snapshot().events).unwrap()
        );
    }

    #[test]
    fn null_sink_drops_writes_and_reads_empty() {
        let t = Telemetry::null();
        t.reserve_events(100);
        t.record(SimTime::from_secs(1), EventKind::JobStarted { job: 7 });
        t.count("ticks", 3);
        t.observe("h", 1.0);
        t.sample("s", SimTime::from_secs(1), 1.0);
        let parent = t.span_complete(
            SimTime::from_secs(1),
            SimTime::from_secs(3),
            SpanCategory::Job,
            "job",
            0,
            None,
        );
        t.span_complete(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            SpanCategory::Checkpoint,
            "save",
            0,
            Some(parent),
        );
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.counter("ticks"), 0);
        assert_eq!(t.span_count(), 0);
        assert!(t.events().is_empty());
        assert!(t.to_jsonl().is_empty() && t.spans_to_jsonl().is_empty());
        let empty = Telemetry::default();
        assert_eq!(
            serde_json::to_string(&t.snapshot()).unwrap(),
            serde_json::to_string(&empty.snapshot()).unwrap()
        );
        assert_eq!(t.summary().one_line(), empty.summary().one_line());
        // Clones stay null, and absorbing in either direction is a no-op.
        let real = Telemetry::default();
        real.record(SimTime::ZERO, EventKind::JobStarted { job: 1 });
        t.clone().absorb(&real);
        real.absorb(&t);
        assert_eq!(t.event_count(), 0);
        assert_eq!(real.event_count(), 1);
    }

    /// A unit sink: `events` events into a ring of `capacity`, one counter,
    /// one parent/child span pair.
    fn unit(track: u64, capacity: usize, events: u64) -> Telemetry {
        let t = Telemetry::with_capacity(capacity);
        for i in 0..events {
            t.record(SimTime::from_secs(i), EventKind::WorkerAdded { worker: track * 100 + i });
        }
        t.count("units", 1);
        let p = t.span_complete(
            SimTime::from_secs(track),
            SimTime::from_secs(track + 2),
            SpanCategory::Job,
            "job",
            track,
            None,
        );
        t.span_complete(
            SimTime::from_secs(track),
            SimTime::from_secs(track + 1),
            SpanCategory::Checkpoint,
            "save",
            track,
            Some(p),
        );
        t
    }

    fn serialized(t: &Telemetry) -> (String, String) {
        (serde_json::to_string(&t.snapshot()).unwrap(), t.summary().one_line())
    }

    /// The tail-only merge against absorbing every part whole, in order:
    /// target rings of 1, 3, exactly the parts' retained events, and 64;
    /// wrapped, plain and empty parts; a null part; a pre-filled target.
    #[test]
    fn tail_only_merge_matches_sequential_absorb() {
        let parts = [unit(1, 8, 3), unit(2, 2, 5), unit(3, 4, 0), Telemetry::null(), unit(4, 4, 9)];
        let retained: usize = parts.iter().map(|p| p.events().len()).sum();
        for capacity in [1, 3, retained, 64] {
            for prefill in [0u64, 2, capacity as u64 + 2] {
                let target = || unit(9, capacity, prefill);
                let want = target();
                for part in &parts {
                    want.absorb(part);
                }
                let start = target().inner.unwrap();
                let start = Arc::try_unwrap(start).unwrap().into_inner().unwrap();
                let cut = |part: &Telemetry, room| part.batch().map(|s| s.merge_part(room));
                let got: Telemetry = merge_tails(start, &parts, cut).into();
                assert_eq!(serialized(&got), serialized(&want), "cap {capacity} prefill {prefill}");
                assert_eq!(got.to_jsonl(), want.to_jsonl());
                assert_eq!(got.event_count(), want.event_count());
                // Both keep recording alike afterwards.
                for t in [&got, &want] {
                    t.record(SimTime::from_secs(99), EventKind::JobCompleted { job: 1 });
                }
                assert_eq!(serialized(&got), serialized(&want), "then record");
            }
        }
    }

    /// More retained events in the parts than the merged (default) ring
    /// holds: `merge_ordered` skips whole parts, `absorb` copies and evicts.
    #[test]
    fn merge_ordered_matches_absorb_when_parts_overflow_the_ring() {
        let parts: Vec<Telemetry> = (0..5).map(|i| unit(i, 20_000, 15_000 + 3_000 * i)).collect();
        let sequential = Telemetry::default();
        for part in &parts {
            sequential.absorb(part);
        }
        let merged = Telemetry::merge_ordered(&parts);
        assert_eq!(merged.events().len(), DEFAULT_EVENT_CAPACITY);
        assert_eq!(serialized(&merged), serialized(&sequential));
        let owned = Sink::merge_ordered(
            parts
                .iter()
                .map(|p| p.batch().unwrap().merge_part(usize::MAX))
                .collect::<Vec<_>>()
                .iter(),
        );
        assert_eq!(serialized(&owned.into()), serialized(&sequential));
    }

    /// FNV-1a 64, the hash of the golden corpus (`dlrover_bench::golden`).
    fn fnv64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// The standing witness of the merge path: 64 unit sinks of 4 000
    /// events and 1 200 spans (600 parent/child pairs) each, merged, to the
    /// bytes they merged to before the tail-only merge, the owned sinks and
    /// every serializer change since. The pairs used to be opened and closed
    /// around the child; the constant for recording them whole, parent
    /// first, was taken on the last commit that still had both ways.
    #[test]
    fn merged_unit_corpus_bytes_are_pinned() {
        let parts: Vec<Telemetry> = (0..64u64)
            .map(|u| {
                let t = Telemetry::default();
                t.reserve_events(4_000);
                for i in 0..4_000u64 {
                    t.record(
                        SimTime::from_micros(u * 1_000_000 + i),
                        EventKind::WorkerAdded { worker: i },
                    );
                }
                for i in 0..600u64 {
                    let at = SimTime::from_micros(u * 1_000_000 + i * 10);
                    let end = |us| SimTime::from_micros(at.as_micros() + us);
                    let p = t.span_complete(at, end(9), SpanCategory::Iteration, "slice", u, None);
                    t.span_complete(at, end(5), SpanCategory::IterLookup, "lookup", u, Some(p));
                }
                t.count("units", 1);
                t.observe("iter_s", 0.25 + (u % 7) as f64 * 0.05);
                t
            })
            .collect();
        let merged = Telemetry::merge_ordered(parts.iter());
        let digest =
            fnv64(merged.to_jsonl().as_bytes()) ^ fnv64(merged.spans_to_jsonl().as_bytes());
        assert_eq!(digest, 0x1294_3bec_0b9f_5abd);
    }

    #[test]
    fn an_owned_sink_records_like_a_handle() {
        let mut owned = Sink::with_capacity(2);
        let shared = Telemetry::with_capacity(2);
        for i in 0..3u64 {
            owned.record(SimTime::from_secs(i), EventKind::WorkerAdded { worker: i });
            shared.record(SimTime::from_secs(i), EventKind::WorkerAdded { worker: i });
        }
        owned.metrics.count("n", 2);
        shared.count("n", 2);
        assert_eq!(serialized(&owned.into()), serialized(&shared));
    }
}

/// The batch entry point, the borrowed event slice and the inline labels
/// against the one-call-at-a-time handle and plain `String`s.
#[cfg(test)]
mod batch_tests {
    use super::*;
    use proptest::prelude::*;

    /// Labels on both sides of [`Label::INLINE`], multi-byte ones included.
    const LABELS: [&str; 9] = [
        "",
        "slice",
        "stop-and-restart",
        "twenty-one-bytes-long",
        "twenty-two-bytes-long!",
        "twenty-three-bytes-long!",
        "a label that was never going to fit inline",
        "ééééééééééé",  // 22 bytes
        "éééééééééééé", // 24 bytes
    ];

    #[derive(Debug, Clone)]
    enum Write {
        Event(u64),
        Count(u8, u64),
        Sample(u8, u64),
        Observe(u8, u64),
        /// A span labelled `LABELS[.0]`, the child of the `.1`-th most
        /// recent span recorded so far (a root when there is none).
        Complete(usize, usize),
    }

    fn write() -> impl Strategy<Value = Write> {
        prop_oneof![
            (0u64..50).prop_map(Write::Event),
            (0u64..50).prop_map(Write::Event),
            (0u8..3, 1u64..9).prop_map(|(n, by)| Write::Count(n, by)),
            (0u8..3, 0u64..900).prop_map(|(n, v)| Write::Sample(n, v)),
            (0u8..3, 0u64..900).prop_map(|(n, v)| Write::Observe(n, v)),
            (0usize..LABELS.len(), 0usize..8).prop_map(|(l, k)| Write::Complete(l, k)),
            (0usize..LABELS.len(), 0usize..8).prop_map(|(l, k)| Write::Complete(l, k)),
        ]
    }

    const NAMES: [&str; 3] = ["a", "b.c", "engine.shards_acked"];

    fn sink(capacity: usize) -> Telemetry {
        Sink {
            log: EventLog::with_capacity(capacity),
            spans: SpanLog::with_capacity(capacity),
            ..Sink::default()
        }
        .into()
    }

    /// The parent a `Complete(_, k)` names among the spans recorded so far.
    fn parent(recorded: &[SpanId], k: usize) -> Option<SpanId> {
        recorded.iter().rev().nth(k).copied()
    }

    /// One write through the handle: a batch of one.
    fn write_through_handle(t: &Telemetry, at: SimTime, recorded: &mut Vec<SpanId>, w: &Write) {
        match *w {
            Write::Event(worker) => t.record(at, EventKind::WorkerAdded { worker }),
            Write::Count(n, by) => t.count(NAMES[usize::from(n)], by),
            Write::Sample(n, v) => t.sample(NAMES[usize::from(n)], at, v as f64),
            Write::Observe(n, v) => t.observe(NAMES[usize::from(n)], v as f64 / 7.0),
            Write::Complete(l, k) => recorded.push(t.span_complete(
                at,
                at,
                SpanCategory::Iteration,
                LABELS[l],
                3,
                parent(recorded, k),
            )),
        }
    }

    /// The same write through a held batch.
    fn write_through_batch(sink: &mut Sink, at: SimTime, recorded: &mut Vec<SpanId>, w: &Write) {
        match *w {
            Write::Event(worker) => sink.record(at, EventKind::WorkerAdded { worker }),
            Write::Count(n, by) => sink.metrics.count(NAMES[usize::from(n)], by),
            Write::Sample(n, v) => sink.metrics.sample(NAMES[usize::from(n)], at, v as f64),
            Write::Observe(n, v) => sink.metrics.observe(NAMES[usize::from(n)], v as f64 / 7.0),
            Write::Complete(l, k) => recorded.push(sink.spans.complete(
                at,
                at,
                SpanCategory::Iteration,
                LABELS[l],
                3,
                parent(recorded, k),
            )),
        }
    }

    fn json(t: &Telemetry) -> String {
        serde_json::to_string(&t.snapshot()).expect("snapshot serializes")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Any interleaving of events, counters, observations, samples and
        /// nested spans leaves the same snapshot whether each write took the
        /// lock by itself or rode a batch of random length — rings of 1–64
        /// so both wrap.
        #[test]
        fn batches_of_any_length_record_like_single_calls(
            writes in proptest::collection::vec(write(), 0..160),
            cuts in proptest::collection::vec(1usize..12, 1..40),
            capacity in 1usize..65,
        ) {
            let (single, batched) = (sink(capacity), sink(capacity));
            let mut recorded = Vec::new();
            for (i, w) in writes.iter().enumerate() {
                write_through_handle(&single, SimTime::from_secs(i as u64), &mut recorded, w);
            }
            let (mut recorded, mut next, mut cuts) = (Vec::new(), 0, cuts.iter().cycle());
            while next < writes.len() {
                let len = *cuts.next().expect("cycles");
                let mut held = batched.batch().expect("a recording sink");
                for (i, w) in writes.iter().enumerate().skip(next).take(len) {
                    write_through_batch(&mut held, SimTime::from_secs(i as u64), &mut recorded, w);
                }
                next += len;
            }
            prop_assert_eq!(json(&batched), json(&single));
            prop_assert_eq!(batched.summary().one_line(), single.summary().one_line());
        }

        /// The borrowed slice is `snapshot().events`, wrapped ring or not,
        /// and a log that was rotated for it keeps recording — and evicting —
        /// exactly like one that never was.
        #[test]
        fn the_borrowed_slice_is_the_snapshot_and_leaves_the_log_alone(
            capacity in 1usize..65,
            before in 0u64..200,
            after in 0u64..201,
        ) {
            let (rotated, plain) = (sink(capacity), sink(capacity));
            let record = |t: &Telemetry, i: u64| {
                t.record(SimTime::from_secs(i), EventKind::WorkerAdded { worker: i });
            };
            for i in 0..before {
                record(&rotated, i);
                record(&plain, i);
            }
            let borrowed = rotated.with_events(<[Event]>::to_vec);
            prop_assert_eq!(&borrowed, &plain.snapshot().events);
            prop_assert_eq!(&borrowed, &rotated.snapshot().events);
            prop_assert_eq!(rotated.events(), borrowed);
            for i in before..before + after {
                record(&rotated, i);
                record(&plain, i);
            }
            prop_assert_eq!(json(&rotated), json(&plain));
            prop_assert_eq!(rotated.to_jsonl(), plain.to_jsonl());
            prop_assert_eq!(rotated.with_events(<[Event]>::to_vec), plain.snapshot().events);
        }
    }

    #[test]
    fn the_null_sink_hands_out_no_batch() {
        let null = Telemetry::null();
        assert!(null.batch().is_none());
        let mut writes = 0;
        if let Some(mut sink) = null.batch() {
            sink.record(SimTime::ZERO, EventKind::JobStarted { job: 0 });
            writes += 1;
        }
        assert_eq!(writes, 0, "code behind a null batch never runs");
        assert_eq!(null.with_events(<[Event]>::len), 0);
        assert!(Telemetry::default().batch().is_some());
    }

    /// A label reads, compares and serializes as the `str` it was made from
    /// on both sides of the inline limit, and costs a span no more room than
    /// the `String` it replaced.
    #[test]
    fn labels_are_strings_on_both_sides_of_the_inline_limit() {
        assert_eq!(std::mem::size_of::<Label>(), std::mem::size_of::<String>());
        assert_eq!(LABELS[4].len(), Label::INLINE);
        assert_eq!(LABELS[7].len(), Label::INLINE);
        for text in LABELS {
            let label = Label::from(text);
            assert_eq!(label.as_str(), text);
            assert_eq!(&*label, text);
            assert_eq!(label, text);
            assert_eq!(label, label.clone());
            assert_eq!(format!("{label}|{label:?}"), format!("{text}|{text:?}"));
            let json = serde_json::to_string(&label).unwrap();
            assert_eq!(json, serde_json::to_string(&text.to_string()).unwrap());
            assert_eq!(serde_json::from_str::<Label>(&json).unwrap(), label);
        }
        let t = Telemetry::default();
        for text in LABELS {
            t.span_complete(SimTime::ZERO, SimTime::ZERO, SpanCategory::Job, text, 0, None);
        }
        let labels: Vec<String> = t.snapshot().spans.iter().map(|s| s.label.to_string()).collect();
        assert_eq!(labels, LABELS);
        let dumped = parse_spans_jsonl(&t.spans_to_jsonl()).expect("round-trips");
        assert_eq!(dumped, t.snapshot().spans);
    }
}
