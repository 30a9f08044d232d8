//! Property test (DESIGN §12): the content-chunked dedup store
//! round-trips arbitrary write / evict / restore interleavings
//! byte-identically at any shard count.
//!
//! Ops are generated as one global, strictly time-ordered stream; for
//! each shard count K the stream is partitioned by `job % K` into
//! per-shard lanes and k-way merged back by `(time, job, seq)` — the
//! same exchange discipline `cluster::shard` and the `ckptplane`
//! experiment use. The merged order must reproduce the global order, so
//! the plane digest, every restore's bytes, and the telemetry log must
//! be bitwise identical at K ∈ {1, 2, 4, 7}. On top of the invariance
//! sweep, every restore is checked against the bytes its manifest
//! staged (the round-trip guarantee) and the single-shard log is
//! audited by the durability oracle.

use std::collections::BTreeMap;

use dlrover_bench::golden::fnv64;
use dlrover_master::{CheckpointPlane, CkptPlaneConfig, RestoreSource};
use dlrover_sim::{SimDuration, SimTime};
use dlrover_telemetry::{Oracle, Telemetry};
use proptest::prelude::*;

/// Jobs the generated traffic spreads over (3 model families).
const JOBS: u64 = 6;

/// One generated plane operation.
#[derive(Debug, Clone, Copy)]
enum PlaneOp {
    Save,
    Restore,
    InvalidateHot,
    Corrupt(u32),
    Outage(u64),
}

/// A scheduled op: `(at, job, seq)` is globally unique and totally
/// ordered, so any shard partition merges back to the same stream.
#[derive(Debug, Clone, Copy)]
struct ScheduledOp {
    at: SimTime,
    job: u64,
    seq: u32,
    op: PlaneOp,
}

/// Builds the global op stream from raw proptest tuples: cumulative
/// `dt` makes times strictly increasing.
fn schedule(raw: &[(u64, u64, u8)]) -> Vec<ScheduledOp> {
    let mut t = 0u64;
    raw.iter()
        .enumerate()
        .map(|(i, &(dt, job, kind))| {
            t += 1 + dt % 400;
            let op = match kind % 8 {
                0..=3 => PlaneOp::Save,
                4 | 5 => PlaneOp::Restore,
                6 => PlaneOp::InvalidateHot,
                7 if kind >= 128 => PlaneOp::Outage(60 + dt % 600),
                _ => PlaneOp::Corrupt((dt % 3) as u32),
            };
            ScheduledOp { at: SimTime::from_secs(t), job: job % JOBS, seq: i as u32, op }
        })
        .collect()
}

/// Partitions the stream into `k` per-shard lanes by `job % k`, then
/// k-way merges by `(at, job, seq)`.
fn shard_and_merge(ops: &[ScheduledOp], k: u64) -> Vec<ScheduledOp> {
    let mut lanes: Vec<Vec<ScheduledOp>> = vec![Vec::new(); k as usize];
    for op in ops {
        lanes[(op.job % k) as usize].push(*op);
    }
    let mut cursors = vec![0usize; lanes.len()];
    let mut merged = Vec::with_capacity(ops.len());
    for _ in 0..ops.len() {
        let next = lanes
            .iter()
            .enumerate()
            .filter_map(|(s, lane)| lane.get(cursors[s]).map(|op| (s, op)))
            .min_by_key(|(_, op)| (op.at, op.job, op.seq))
            .map(|(s, _)| s)
            .expect("counted remaining ops");
        merged.push(lanes[next][cursors[next]]);
        cursors[next] += 1;
    }
    merged
}

/// Applies the op stream to a fresh plane and returns a digest over the
/// full observable trajectory (every restore outcome + final plane
/// state). Also asserts the round-trip guarantee: a restore's bytes and
/// watermarks always equal what its manifest staged.
fn apply(ops: &[ScheduledOp], telemetry: &Telemetry) -> u64 {
    // Small chunks + small hot tier so dedup, multi-chunk manifests,
    // and capacity eviction are all exercised by modest byte counts.
    let mut cfg = CkptPlaneConfig { hot_capacity_bytes: 300_000_000, ..CkptPlaneConfig::default() };
    cfg.chunking.chunk_bytes = 16_000_000;
    let mut plane = CheckpointPlane::new(cfg);
    plane.set_telemetry(telemetry.clone());
    let mut saves_of_job: BTreeMap<u64, u64> = BTreeMap::new();
    let mut staged: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new(); // manifest -> (step, samples, bytes)
    let mut trajectory = String::new();
    for op in ops {
        plane.advance(op.at);
        match op.op {
            PlaneOp::Save => {
                let n = saves_of_job.entry(op.job).or_insert(0);
                *n += 1;
                let step = *n * 17;
                let samples = step * 512;
                let bytes = 80_000_000 + samples * 64 + op.job * 10_000_000;
                let saved = plane.save(op.job, op.job % 3, step, samples, bytes, op.at);
                staged.insert(saved.manifest, (step, samples, bytes));
                trajectory.push_str(&format!(
                    "S{}:{}:{}:{};",
                    op.job, saved.manifest, saved.new_bytes, saved.dedup_bytes
                ));
            }
            PlaneOp::Restore => {
                if let Some(r) = plane.restore(op.job, op.at) {
                    let (step, samples, bytes) =
                        *staged.get(&r.manifest).expect("restored manifest was staged");
                    assert_eq!(r.bytes, bytes, "restore must return the staged bytes");
                    assert_eq!(r.step, step);
                    assert_eq!(r.samples, samples);
                    let src = match r.source {
                        RestoreSource::Hot => "h",
                        RestoreSource::Remote => "r",
                    };
                    trajectory.push_str(&format!(
                        "R{}:{}:{}:{}:{};",
                        op.job,
                        r.manifest,
                        r.bytes,
                        src,
                        r.resume_at().as_micros()
                    ));
                }
            }
            PlaneOp::InvalidateHot => plane.invalidate_hot(op.job, op.at),
            PlaneOp::Corrupt(nth) => {
                if let Some(id) = plane.corrupt_manifest(op.job, nth, op.at) {
                    trajectory.push_str(&format!("C{id};"));
                }
            }
            PlaneOp::Outage(window) => {
                plane.set_remote_outage(op.at, op.at + SimDuration::from_secs(window));
            }
        }
    }
    let end = ops.last().map(|o| o.at + SimDuration::from_secs(3_600)).unwrap_or(SimTime::ZERO);
    plane.advance(end);
    trajectory.push_str(&format!("D{:016x}", plane.digest()));
    fnv64(trajectory.as_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn chunk_store_interleavings_are_shard_invariant(
        raw in proptest::collection::vec((0u64..10_000, 0u64..64, 0u8..=255u8), 20..160),
    ) {
        let ops = schedule(&raw);
        let canon_telemetry = Telemetry::default();
        let canon = apply(&ops, &canon_telemetry);
        // Durability holds under arbitrary interleavings, not just the
        // curated experiment traces.
        let events = canon_telemetry.snapshot().events;
        let (durable, bounded) = Oracle::check_durability(&events);
        prop_assert!(durable.passed, "{:?}", durable.violations);
        prop_assert!(bounded.passed, "{:?}", bounded.violations);
        let canon_log = canon_telemetry.to_jsonl();
        for k in [2u64, 4, 7] {
            let merged = shard_and_merge(&ops, k);
            let t = Telemetry::default();
            let digest = apply(&merged, &t);
            prop_assert_eq!(digest, canon, "plane trajectory diverged at K={}", k);
            prop_assert_eq!(t.to_jsonl(), canon_log.clone(), "telemetry diverged at K={}", k);
        }
    }
}
