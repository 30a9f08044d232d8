//! Property test for the parallel experiment engine: for any seed, any
//! unit count, and any pool width 1..=8, the key-sorted unit values and
//! the merged telemetry artefacts (event log, span log, counters, golden
//! digest) are byte-identical to the single-threaded run.
//!
//! This is DESIGN §8's determinism contract in miniature: `exp all
//! --threads N` only differs from `--threads 1` in wall-clock, never in
//! bytes. The units here draw from forked [`RngStreams`] lineages, record
//! events, nest spans, and bump counters — every store the real
//! experiments exercise — so a scheduling-order leak in any merge path
//! fails the property.

use dlrover_bench::golden::GoldenDigest;
use dlrover_bench::parallel::{merge_telemetry, run_units, Unit, UnitOutput};
use dlrover_sim::{RngStreams, SimTime};
use dlrover_telemetry::{EventKind, SpanCategory, Telemetry};
use proptest::prelude::*;
use rand::RngCore;

/// Builds `n` units that fork private RNG lineages off one root and
/// record into every telemetry store (events, nested spans, counters).
fn workload_units(root: &RngStreams, n: u64) -> Vec<Unit<'_, Vec<u64>>> {
    (0..n)
        .map(|i| {
            let key = format!("{i:02}/unit");
            let fork_key = key.clone();
            Unit::new(key, move |t: &Telemetry| {
                let mut rng = root.fork(&fork_key).stream("payload");
                let draws: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
                // Events at RNG-derived virtual times.
                for (j, &v) in draws.iter().enumerate() {
                    t.record(
                        SimTime::from_micros(v % 10_000),
                        EventKind::JobStarted { job: i * 10 + j as u64 },
                    );
                }
                // A parent span with a nested child, so the merge has to
                // remap ids and preserve nesting.
                let start = SimTime::from_micros(draws[0] % 1_000);
                let end = SimTime::from_micros(draws[0] % 1_000 + 5_000);
                let parent = t.span_complete(start, end, SpanCategory::Job, "unit", i, None);
                t.span_complete(
                    SimTime::from_micros(draws[1] % 1_000 + 1_000),
                    SimTime::from_micros(draws[1] % 1_000 + 2_000),
                    SpanCategory::Iteration,
                    "slice",
                    i,
                    Some(parent),
                );
                t.count("units", 1);
                t.count(&format!("draws-{}", i % 3), draws.len() as u64);
                draws
            })
        })
        .collect()
}

/// Everything we compare between runs: key-sorted unit values, merged
/// event log, merged span log, golden digest, and the `units` counter.
type Fingerprint = (Vec<(String, Vec<u64>)>, String, String, GoldenDigest, u64);

fn fingerprint(outputs: &[UnitOutput<Vec<u64>>]) -> Fingerprint {
    let merged = merge_telemetry(outputs);
    let trace = merged.to_jsonl();
    let spans = merged.spans_to_jsonl();
    let digest = GoldenDigest::of(&trace, &spans);
    let units_counter = merged.counter("units");
    let values = outputs.iter().map(|o| (o.key.clone(), o.value.clone())).collect();
    (values, trace, spans, digest, units_counter)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pool width never changes the bytes: values, merged event log,
    /// merged span log, and the golden digest all match the serial run.
    #[test]
    fn parallel_run_is_byte_identical_to_serial(
        seed in 0u64..=u64::MAX / 2,
        threads in 1usize..=8,
        n_units in 2u64..=12,
    ) {
        let root = RngStreams::new(seed);
        let serial = run_units(workload_units(&root, n_units), 1);
        let parallel = run_units(workload_units(&root, n_units), threads);

        let (sv, st, ss, sd, sc) = fingerprint(&serial);
        let (pv, pt, ps, pd, pc) = fingerprint(&parallel);
        prop_assert_eq!(sv, pv, "unit values diverged at {} threads", threads);
        prop_assert_eq!(st, pt, "merged event log diverged at {} threads", threads);
        prop_assert_eq!(ss, ps, "merged span log diverged at {} threads", threads);
        prop_assert_eq!(sd, pd, "golden digest diverged at {} threads", threads);
        prop_assert_eq!(sc, pc, "counters diverged at {} threads", threads);
        prop_assert_eq!(sc, n_units, "every unit bumps the counter once");
    }

    /// Repeating the same parallel run is also bit-stable (no hidden
    /// entropy inside the pool itself).
    #[test]
    fn parallel_run_is_repeatable(seed in 0u64..=1_000, threads in 2usize..=8) {
        let root = RngStreams::new(seed);
        let a = run_units(workload_units(&root, 8), threads);
        let b = run_units(workload_units(&root, 8), threads);
        let (av, at, asp, ad, ac) = fingerprint(&a);
        let (bv, bt, bsp, bd, bc) = fingerprint(&b);
        prop_assert_eq!(av, bv);
        prop_assert_eq!(at, bt);
        prop_assert_eq!(asp, bsp);
        prop_assert_eq!(ad, bd);
        prop_assert_eq!(ac, bc);
    }
}
