//! Chrome trace-event (Perfetto / `chrome://tracing`) export.
//!
//! Converts a run's span log (plus optionally its event log) into the
//! trace-event JSON format, so a DLRover-RM simulation can be inspected on
//! the same timeline UI production traces use: spans become complete (`X`)
//! events with `ts`/`dur` in microseconds of *virtual* time, events become
//! global instants (`i`). Output is deterministic: spans serialize in close
//! order, events in sequence order, and all maps are `BTreeMap`s under the
//! vendored `serde_json`.

use dlrover_telemetry::{Event, Span};
use serde_json::{json, Value};

/// Converts spans and events into a trace-event JSON document
/// (`{"traceEvents": [...]}`). `pid` is always 1 (one simulated system);
/// `tid` is the span's track, so jobs/pods appear as separate rows. Pass an
/// empty `events` slice to export spans only.
pub fn chrome_trace(spans: &[Span], events: &[Event]) -> Value {
    let mut out: Vec<Value> = Vec::with_capacity(spans.len() + events.len());
    for s in spans {
        let name = if s.label.is_empty() { s.cat.name().to_string() } else { s.label.to_string() };
        out.push(json!({
            "name": name,
            "cat": s.cat.name(),
            "ph": "X",
            "ts": s.start_us,
            "dur": s.end_us - s.start_us,
            "pid": 1,
            "tid": s.track,
            "args": json!({ "id": s.id, "parent": s.parent }),
        }));
    }
    for e in events {
        out.push(json!({
            "name": e.kind.name(),
            "cat": "event",
            "ph": "i",
            "ts": e.at_us,
            "s": "g",
            "pid": 1,
            "tid": 0u64,
            "args": json!({ "seq": e.seq }),
        }));
    }
    json!({ "traceEvents": out })
}

/// Serializes a trace to its on-disk JSON string (compact, deterministic).
pub fn chrome_trace_json(spans: &[Span], events: &[Event]) -> String {
    serde_json::to_string(&chrome_trace(spans, events)).expect("trace serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrover_telemetry::{EventKind, SpanCategory};

    fn sample_spans() -> Vec<Span> {
        vec![
            Span {
                id: 0,
                parent: None,
                cat: SpanCategory::Iteration,
                label: "slice".into(),
                track: 3,
                start_us: 1_000,
                end_us: 9_000,
            },
            Span {
                id: 1,
                parent: Some(0),
                cat: SpanCategory::IterLookup,
                label: "".into(),
                track: 3,
                start_us: 1_000,
                end_us: 4_000,
            },
        ]
    }

    fn sample_events() -> Vec<Event> {
        vec![Event { at_us: 2_000, seq: 0, kind: EventKind::JobStarted { job: 3 } }]
    }

    /// Golden-schema test: every emitted record has the
    /// trace-event fields Perfetto requires, with the right types, and the
    /// document round-trips through `serde_json`.
    #[test]
    fn golden_schema_and_roundtrip() {
        let text = chrome_trace_json(&sample_spans(), &sample_events());
        let doc: Value = serde_json::from_str(&text).expect("round-trips");
        let events = doc["traceEvents"].as_array().expect("traceEvents array");
        assert_eq!(events.len(), 3);
        for rec in events {
            let ph = rec["ph"].as_str().expect("ph is a string");
            assert!(ph == "X" || ph == "i", "unexpected ph {ph}");
            assert!(rec["ts"].as_u64().is_some(), "ts is integer microseconds");
            assert!(rec["pid"].as_u64().is_some());
            assert!(rec["tid"].as_u64().is_some());
            assert!(rec["name"].as_str().is_some());
            if ph == "X" {
                assert!(rec["dur"].as_u64().is_some(), "complete events carry dur");
            } else {
                assert_eq!(rec["s"].as_str(), Some("g"), "instants are global-scoped");
            }
        }
        // Spot-check the span mapping.
        assert_eq!(events[0]["name"].as_str(), Some("slice"));
        assert_eq!(events[0]["cat"].as_str(), Some("iteration"));
        assert_eq!(events[0]["dur"].as_u64(), Some(8_000));
        assert_eq!(events[1]["name"].as_str(), Some("iteration/lookup"));
        assert_eq!(events[1]["args"]["parent"].as_u64(), Some(0));
        assert_eq!(events[2]["ph"].as_str(), Some("i"));
    }

    #[test]
    fn export_is_byte_deterministic() {
        let a = chrome_trace_json(&sample_spans(), &sample_events());
        let b = chrome_trace_json(&sample_spans(), &sample_events());
        assert_eq!(a, b);
    }

    #[test]
    fn empty_inputs_give_empty_trace() {
        let doc = chrome_trace(&[], &[]);
        assert_eq!(doc["traceEvents"].as_array().unwrap().len(), 0);
    }
}
