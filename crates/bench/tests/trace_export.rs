//! End-to-end trace-export determinism: a seeded traced run must yield a
//! byte-identical, schema-valid Chrome trace (DESIGN §3 1c: the
//! `exp trace --chrome` artefact is a reproducible build product, not a
//! best-effort dump).

use dlrover_bench::chrome_trace_json;
use dlrover_rm::prelude::*;
use dlrover_rm::telemetry::parse_spans_jsonl;

fn traced_chrome_export() -> String {
    let telemetry = Telemetry::default();
    run_single_job_traced(
        Box::new(DlroverPolicy::new(
            ResourceAllocation::new(JobShape::new(2, 1, 2.0, 2.0, 512), 8.0, 64.0),
            DlroverPolicyConfig::default(),
        )),
        TrainingJobSpec::paper_default(10_000),
        &RunnerConfig::default(),
        &telemetry,
    );
    let spans = parse_spans_jsonl(&telemetry.spans_to_jsonl()).expect("span log parses");
    let events = telemetry.snapshot().events;
    chrome_trace_json(&spans, &events)
}

#[test]
fn chrome_export_of_a_traced_run_is_byte_identical_and_schema_valid() {
    let a = traced_chrome_export();
    let b = traced_chrome_export();
    assert_eq!(a, b, "chrome export diverged across identical seeded runs");

    let doc: serde_json::Value = serde_json::from_str(&a).expect("export round-trips");
    let records = doc["traceEvents"].as_array().expect("traceEvents array");
    assert!(!records.is_empty(), "traced run exported no records");
    let mut complete = 0usize;
    for rec in records {
        let ph = rec["ph"].as_str().expect("ph");
        assert!(ph == "X" || ph == "i", "unexpected ph {ph}");
        assert!(rec["ts"].as_u64().is_some());
        assert!(rec["pid"].as_u64().is_some());
        assert!(rec["tid"].as_u64().is_some());
        assert!(rec["name"].as_str().is_some());
        if ph == "X" {
            assert!(rec["dur"].as_u64().is_some());
            complete += 1;
        }
    }
    assert!(complete > 0, "no span records in the export");
}
