//! Property tests for the span log: well-formedness and determinism.
//!
//! These are the log-level halves of DESIGN §3 1c's span rules ("children
//! nest strictly within parents in SimTime, and same-seed span logs are
//! byte-identical"); the engine-driven halves live in `dlrover-pstrain`,
//! where real instrumentation produces the trees.

use dlrover_sim::SimTime;
use dlrover_telemetry::{parse_spans_jsonl, SpanCategory, SpanId, SpanLog};
use proptest::prelude::*;

/// One scripted operation of a phase tree.
#[derive(Debug, Clone)]
enum Op {
    /// Begin a child of the `n`-th most recently begun phase still running
    /// (a root if none is).
    Begin(usize),
    /// End the most recently begun phase still running.
    EndNewest,
    /// Advance virtual time by this many microseconds.
    Advance(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..4).prop_map(Op::Begin),
        Just(Op::EndNewest),
        (1u64..5_000_000).prop_map(Op::Advance),
    ]
}

/// One phase of the scripted tree: `[start, end]` and the index of its
/// parent phase.
struct Phase {
    start: u64,
    end: u64,
    parent: Option<usize>,
}

/// Replays a script and returns the log (deterministic by construction):
/// the script fixes every phase's interval and parent first, then each
/// phase is recorded whole, parents before children (in begin order),
/// naming its parent's id.
fn replay(script: &[Op], capacity: usize) -> SpanLog {
    let mut phases: Vec<Phase> = Vec::new();
    let mut now = 0u64;
    let mut stack: Vec<usize> = Vec::new();
    for op in script {
        match op {
            Op::Begin(depth) => {
                let parent = if stack.is_empty() {
                    None
                } else {
                    Some(stack[stack.len().saturating_sub(1 + depth % stack.len())])
                };
                phases.push(Phase { start: now, end: now, parent });
                stack.push(phases.len() - 1);
            }
            Op::EndNewest => {
                if let Some(i) = stack.pop() {
                    phases[i].end = now;
                }
            }
            Op::Advance(dt) => now += dt,
        }
    }
    // End stragglers innermost-first so nesting stays well-formed.
    while let Some(i) = stack.pop() {
        phases[i].end = now;
    }
    let mut log = SpanLog::with_capacity(capacity);
    let mut ids: Vec<SpanId> = Vec::with_capacity(phases.len());
    for phase in &phases {
        let parent = phase.parent.map(|i| ids[i]);
        let cat = if parent.is_some() { SpanCategory::IterLookup } else { SpanCategory::Iteration };
        let (start, end) = (SimTime::from_micros(phase.start), SimTime::from_micros(phase.end));
        ids.push(log.complete(start, end, cat, "p", 1, parent));
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same script → byte-identical JSONL (the span determinism rule).
    #[test]
    fn same_script_gives_byte_identical_jsonl(
        script in proptest::collection::vec(op_strategy(), 0..80),
    ) {
        let a = replay(&script, 64).to_jsonl();
        let b = replay(&script, 64).to_jsonl();
        prop_assert_eq!(a, b);
    }

    /// Every begun phase is recorded once, and spans never run backwards.
    #[test]
    fn closes_match_opens_and_time_is_monotone(
        script in proptest::collection::vec(op_strategy(), 0..80),
    ) {
        let begun = script.iter().filter(|o| matches!(o, Op::Begin(_))).count();
        let log = replay(&script, 1 << 16);
        prop_assert_eq!(log.len(), begun);
        for s in log.iter() {
            prop_assert!(s.end_us >= s.start_us);
        }
    }

    /// Children nest strictly within their parents in SimTime, and every
    /// parent id refers to a span that was recorded before the child.
    #[test]
    fn children_nest_within_parents(
        script in proptest::collection::vec(op_strategy(), 0..80),
    ) {
        let log = replay(&script, 1 << 16);
        let spans: Vec<_> = log.iter().cloned().collect();
        for child in &spans {
            if let Some(pid) = child.parent {
                prop_assert!(pid < child.id, "parents recorded before children");
                // The parent may have been evicted from a small ring, but at
                // this capacity nothing drops.
                let parent = spans.iter().find(|s| s.id == pid).expect("parent retained");
                prop_assert!(parent.start_us <= child.start_us);
                prop_assert!(child.end_us <= parent.end_us);
            }
        }
    }

    /// Ring accounting: retained + dropped == total closed, and JSONL
    /// round-trips losslessly.
    #[test]
    fn ring_accounting_and_roundtrip(
        script in proptest::collection::vec(op_strategy(), 0..80),
        capacity in 1usize..16,
    ) {
        let log = replay(&script, capacity);
        prop_assert_eq!(log.len() as u64 + log.dropped(), log.total_closed());
        let parsed = parse_spans_jsonl(&log.to_jsonl()).expect("valid jsonl");
        prop_assert_eq!(parsed.len(), log.len());
        for (a, b) in parsed.iter().zip(log.iter()) {
            prop_assert_eq!(a, b);
        }
    }
}
