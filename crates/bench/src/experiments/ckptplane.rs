//! `ckptplane`: the tiered flash-checkpoint plane under a diurnal fleet
//! trace — checkpoint policy × recovery path sweep.
//!
//! Not a paper figure: this quantifies §5.3's flash-checkpoint claims
//! (memory-speed saves, seamless PS flash-restore) against §2.2's
//! throttled remote store, and pits master-replay recovery against the
//! master-less witness-quorum path under compound storage faults. A
//! 24-job / 12-family fleet runs an 8-hour diurnally-modulated trace
//! (§2.1's daily traffic cycle drives per-job sample rates and embedding
//! growth) against one *shared* `CheckpointPlane` — so cross-job dedup
//! within a model family and remote-queue contention are both real.
//!
//! The trace is open-loop: each job's save schedule and sample watermark
//! follow the closed-form diurnal curve regardless of faults, and lost
//! work is *charged to the goodput metric* rather than fed back into the
//! schedule. That keeps every (policy × path) cell on an identical
//! workload — and makes the whole experiment trivially shard-invariant,
//! which the run verifies anyway: per-job event streams are generated
//! per shard, k-way merged by `(time, job, seq)`, and the plane digest
//! must be bit-identical at 1, 2, and 4 shards.
//!
//! Every unit's event log is audited by the durability oracle
//! (`DurableRestore` + `RestoreBytesBounded`): no restore may ever read
//! state that was not committed, quorum-witnessed, or hot-resident at
//! that point in the log. `exp ckptplane` exits non-zero on any
//! violation or shard divergence.

use dlrover_master::{CheckpointPlane, CkptPlaneConfig, RestoreSource, WitnessBoard};
use dlrover_pstrain::StorageTier;
use dlrover_sim::{RngStreams, SimDuration, SimTime};
use dlrover_telemetry::{Oracle, Telemetry};
use rand::Rng;
use serde::Serialize;

use super::RunArgs;
use crate::golden::fnv64;
use crate::parallel::{merge_telemetry, run_units_auto, Unit};
use crate::Report;

/// Jobs in the fleet trace (two per model family).
const JOBS: u64 = 24;
/// Model families: jobs `j` and `j + FAMILIES` share static chunks.
const FAMILIES: u64 = 12;
/// Samples per training step (step = samples / batch).
const BATCH: u64 = 1024;
/// Trace horizon: 8 virtual hours.
const HORIZON: SimTime = SimTime::from_secs(8 * 3600);
/// Master-replay restart window charged before the plane restore starts
/// (detection + pod relaunch + event-log replay, as in the chaos driver).
const REPLAY_RESTART: SimDuration = SimDuration::from_secs(45);

/// Remote-tier outage windows `(from, until)` in trace seconds.
const OUTAGES: [(u64, u64); 2] = [(7_200, 8_100), (18_000, 18_600)];
/// Bandwidth-collapse window `(from, until, factor_permille)`.
const COLLAPSE: (u64, u64, u32) = (21_600, 23_400, 8_000);
/// Witness-partition window `(from, until, peers_out)` — placed clear of
/// the second outage so the compound-outage crashes still have a quorum.
const PARTITION: (u64, u64, u32) = (14_400, 15_600, 2);

/// One checkpoint policy under test.
struct Policy {
    name: &'static str,
    interval: SimDuration,
    hot_capacity_bytes: u64,
}

/// The swept policies: frequent flash, sparse flash, and a remote-only
/// tier whose hot capacity is below even the smallest checkpoint (the
/// §2.2 RDS baseline — every restore pays the throttled store).
fn policies() -> [Policy; 3] {
    [
        Policy {
            name: "flash-120s",
            interval: SimDuration::from_secs(120),
            hot_capacity_bytes: 96_000_000_000,
        },
        Policy {
            name: "flash-600s",
            interval: SimDuration::from_secs(600),
            hot_capacity_bytes: 96_000_000_000,
        },
        Policy {
            name: "rds-600s",
            interval: SimDuration::from_secs(600),
            hot_capacity_bytes: 500_000_000,
        },
    ]
}

/// Base sample rate of a job, samples/s (family-dependent).
fn base_rate(job: u64) -> f64 {
    1_500.0 + 120.0 * (job % FAMILIES) as f64
}

/// Closed-form sample watermark at `t`: the diurnal rate
/// `r(t) = r0 (1 + A sin(ωt + φ))` integrated from 0 (§2.1's daily
/// traffic cycle; phase staggered per job).
fn samples_at(job: u64, t: SimTime) -> u64 {
    let r0 = base_rate(job);
    let phase = job as f64 * std::f64::consts::PI / 6.0;
    let omega = 2.0 * std::f64::consts::PI / 86_400.0;
    let a = 0.5;
    let secs = t.as_secs_f64();
    let s = r0 * (secs + (a / omega) * (phase.cos() - (omega * secs + phase).cos()));
    s.max(0.0) as u64
}

/// Checkpoint size at a sample watermark: family-sized static part plus
/// the growing embedding table (§2.1, Fig. 1b).
fn checkpoint_bytes(job: u64, samples: u64) -> u64 {
    let statics = 600_000_000 + 80_000_000 * (job % FAMILIES);
    statics + samples * 40
}

/// What happens to a job at one trace instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Periodic checkpoint per the policy interval.
    Save,
    /// Master crash: hot copies die with the pods; recover via the
    /// unit's recovery path.
    Crash,
    /// PS flash-restore (§5.3): the pod is replaced but the hot tier
    /// survives, so the restore may be served at memory speed.
    FlashRestore,
    /// Silent corruption of the job's newest committed manifest.
    Corrupt,
}

/// One trace event; `(at, job, seq)` is the total merge order.
#[derive(Debug, Clone, Copy)]
struct Ev {
    at: SimTime,
    job: u64,
    seq: u32,
    op: Op,
}

/// Builds one job's event stream, sorted by `(at, seq)`. Pure function
/// of `(job, seed, interval)` — independent of the shard layout, which
/// is what makes the shard sweep a real invariance check.
fn job_events(job: u64, seed: u64, interval: SimDuration) -> Vec<Ev> {
    let mut evs = Vec::new();
    let mut seq = 0u32;
    // Saves: staggered per job so the shared remote queue sees
    // interleaved traffic, not a thundering herd.
    let offset = SimDuration::from_secs(11 * job);
    let mut t = SimTime::ZERO + offset + interval;
    while t < HORIZON {
        evs.push(Ev { at: t, job, seq, op: Op::Save });
        seq += 1;
        t += interval;
    }
    // One master crash per job. Jobs 4-7 are scripted inside the second
    // remote outage (the compound case the recovery paths are judged
    // on); jobs 8-9 inside the witness partition (forcing the fallback);
    // the rest draw from the per-job rng stream.
    let crash_at = match job {
        4..=7 => SimTime::from_secs(18_060 + 30 * (job - 4)),
        8 | 9 => SimTime::from_secs(14_500 + 60 * (job - 8)),
        _ => {
            let mut rng = RngStreams::new(seed).indexed_stream("ckptplane.crash", job);
            SimTime::from_secs(rng.gen_range(1_800..(8 * 3600 - 1_800)))
        }
    };
    evs.push(Ev { at: crash_at, job, seq, op: Op::Crash });
    seq += 1;
    // Three PS flash-restores per job, spread over the trace.
    for (i, frac) in [0.3f64, 0.55, 0.8].into_iter().enumerate() {
        let at = SimTime::from_secs((HORIZON.as_secs_f64() * frac) as u64 + 37 * job + i as u64);
        evs.push(Ev { at, job, seq, op: Op::FlashRestore });
        seq += 1;
    }
    // Jobs 0-3 have their newest manifest silently corrupted at t=4h.
    if job < 4 {
        evs.push(Ev { at: SimTime::from_secs(14_400), job, seq, op: Op::Corrupt });
    }
    evs.sort_by_key(|e| (e.at, e.seq));
    evs
}

/// Generates the fleet trace as `shards` per-shard streams (jobs
/// assigned round-robin) and k-way merges them by `(at, job, seq)`. The
/// merged stream is identical for every shard count — verified, not
/// assumed, by the digest sweep in [`run_trace`].
fn build_trace(seed: u64, interval: SimDuration, shards: u64) -> Vec<Ev> {
    let mut per_shard: Vec<Vec<Ev>> = vec![Vec::new(); shards as usize];
    for job in 0..JOBS {
        per_shard[(job % shards) as usize].extend(job_events(job, seed, interval));
    }
    for lane in &mut per_shard {
        lane.sort_by_key(|e| (e.at, e.job, e.seq));
    }
    // K-way merge on (at, job, seq) — the deterministic cross-shard
    // exchange order, mirroring `cluster::shard`'s merge discipline.
    let mut cursors = vec![0usize; per_shard.len()];
    let total: usize = per_shard.iter().map(Vec::len).sum();
    let mut merged = Vec::with_capacity(total);
    for _ in 0..total {
        let next = per_shard
            .iter()
            .enumerate()
            .filter_map(|(s, lane)| lane.get(cursors[s]).map(|e| (s, e)))
            .min_by_key(|(_, e)| (e.at, e.job, e.seq))
            .map(|(s, _)| s)
            .expect("total counts remaining events");
        merged.push(per_shard[next][cursors[next]]);
        cursors[next] += 1;
    }
    merged
}

/// Everything measured from one (policy, path, shard-count) run.
struct TraceOutcome {
    crash_latencies_us: Vec<u64>,
    flash_latencies_us: Vec<u64>,
    witness_served: u64,
    witness_fallbacks: u64,
    cold_restores: u64,
    hot_served: u64,
    lost_secs: f64,
    lost_pause_s: f64,
    lost_down_s: f64,
    lost_redo_s: f64,
    dedup_ratio: f64,
    remote_occupancy: f64,
    hot_evictions: u64,
    corrupt_fallbacks: u64,
    digest: u64,
}

/// Runs the full trace against a fresh plane + witness board. The
/// recovery `path` decides how `Op::Crash` is served; everything else is
/// identical across units.
fn run_trace(
    policy: &Policy,
    path: &'static str,
    seed: u64,
    shards: u64,
    telemetry: &Telemetry,
) -> TraceOutcome {
    let events = build_trace(seed, policy.interval, shards);
    // The default remote figures are §2.2's *per-tenant* RDS channel
    // (60 MB/s, 15 s setup). The fleet's shared store aggregates one
    // channel per job into the single FIFO pipe: rate × JOBS and setup
    // ÷ JOBS keeps each tenant's effective service exactly the §2.2
    // figure while letting the pipe drain JOBS concurrent channels —
    // otherwise any sub-15 s fleet save cadence would diverge the queue
    // unboundedly and durability would lag by hours.
    let tenant = StorageTier::RDS;
    let mut plane = CheckpointPlane::new(CkptPlaneConfig {
        interval: policy.interval,
        hot_capacity_bytes: policy.hot_capacity_bytes,
        remote: StorageTier {
            write_bandwidth: tenant.write_bandwidth * JOBS as f64,
            read_bandwidth: tenant.read_bandwidth * JOBS as f64,
            base_latency: SimDuration::from_secs_f64(
                tenant.base_latency.as_secs_f64() / JOBS as f64,
            ),
        },
        ..CkptPlaneConfig::default()
    });
    plane.set_telemetry(telemetry.clone());
    let mut witness = WitnessBoard::new();
    witness.set_telemetry(telemetry.clone());
    for (from, until) in OUTAGES {
        plane.set_remote_outage(SimTime::from_secs(from), SimTime::from_secs(until));
    }
    plane.set_bandwidth_collapse(
        SimTime::from_secs(COLLAPSE.0),
        SimTime::from_secs(COLLAPSE.1),
        COLLAPSE.2,
    );
    witness.partition(
        PARTITION.2,
        SimTime::from_secs(PARTITION.0),
        SimTime::from_secs(PARTITION.1),
    );

    let mut out = TraceOutcome {
        crash_latencies_us: Vec::new(),
        flash_latencies_us: Vec::new(),
        witness_served: 0,
        witness_fallbacks: 0,
        cold_restores: 0,
        hot_served: 0,
        lost_secs: 0.0,
        lost_pause_s: 0.0,
        lost_down_s: 0.0,
        lost_redo_s: 0.0,
        dedup_ratio: 0.0,
        remote_occupancy: 0.0,
        hot_evictions: 0,
        corrupt_fallbacks: 0,
        digest: 0,
    };
    // The master-replay leg: restart window, then restore through the
    // plane (waiting out any outage). Returns (resume, samples resumed).
    let replay = |plane: &mut CheckpointPlane, job: u64, at: SimTime| {
        let restart_at = at + REPLAY_RESTART;
        match plane.restore(job, restart_at) {
            Some(r) => (r.resume_at().max(restart_at), r.samples),
            None => (restart_at, 0), // nothing durable yet: cold start
        }
    };
    for ev in &events {
        plane.advance(ev.at);
        witness.advance(ev.at);
        match ev.op {
            Op::Save => {
                let samples = samples_at(ev.job, ev.at);
                let step = samples / BATCH;
                let bytes = checkpoint_bytes(ev.job, samples);
                let saved = plane.save(ev.job, ev.job % FAMILIES, step, samples, bytes, ev.at);
                witness.observe_save(ev.job, saved.manifest, step, samples, bytes, ev.at);
                out.lost_secs += saved.hot_pause.as_secs_f64();
                out.lost_pause_s += saved.hot_pause.as_secs_f64();
            }
            Op::Crash => {
                // Hot copies die with the master's pods; only the
                // remote tier or a witness peer can serve the restore.
                plane.invalidate_hot(ev.job, ev.at);
                let (resume, resumed_samples) = if path == "witness-quorum" {
                    let start = ev.at + witness.takeover_latency();
                    match witness.restore(ev.job, start) {
                        Some(w) => {
                            out.witness_served += 1;
                            (start + w.duration, w.samples)
                        }
                        None => {
                            out.witness_fallbacks += 1;
                            let (r, s) = replay(&mut plane, ev.job, ev.at);
                            if s == 0 {
                                out.cold_restores += 1;
                            }
                            (r, s)
                        }
                    }
                } else {
                    let (r, s) = replay(&mut plane, ev.job, ev.at);
                    if s == 0 {
                        out.cold_restores += 1;
                    }
                    (r, s)
                };
                let down = resume.saturating_since(ev.at);
                out.crash_latencies_us.push(down.as_micros());
                let redo = samples_at(ev.job, ev.at).saturating_sub(resumed_samples) as f64
                    / base_rate(ev.job);
                out.lost_secs += down.as_secs_f64() + redo;
                out.lost_down_s += down.as_secs_f64();
                out.lost_redo_s += redo;
            }
            Op::FlashRestore => {
                // Pod replaced, hot tier intact: served at memory speed
                // when the policy kept a resident copy (§5.3).
                if let Some(r) = plane.restore(ev.job, ev.at) {
                    let down = r.resume_at().saturating_since(ev.at);
                    out.flash_latencies_us.push(down.as_micros());
                    if r.source == RestoreSource::Hot {
                        out.hot_served += 1;
                    }
                    let redo = samples_at(ev.job, ev.at).saturating_sub(r.samples) as f64
                        / base_rate(ev.job);
                    out.lost_secs += down.as_secs_f64() + redo;
                    out.lost_down_s += down.as_secs_f64();
                    out.lost_redo_s += redo;
                }
            }
            Op::Corrupt => {
                plane.corrupt_manifest(ev.job, 0, ev.at);
            }
        }
    }
    plane.advance(HORIZON);
    witness.advance(HORIZON);
    let stats = *plane.stats();
    out.dedup_ratio = stats.dedup_ratio();
    out.remote_occupancy = stats.remote_occupancy(HORIZON);
    out.hot_evictions = stats.hot_evictions;
    out.corrupt_fallbacks = stats.corrupt_fallbacks;
    // Order-sensitive digest over the plane, the witness board, and
    // every recovery latency: the cross-shard invariance witness.
    let mut body = format!("{:016x}:{:016x}", plane.digest(), witness.digest());
    for us in out.crash_latencies_us.iter().chain(&out.flash_latencies_us) {
        body.push_str(&format!(":{us}"));
    }
    out.digest = fnv64(body.as_bytes());
    out
}

/// One (policy × path) row of `results/ckptplane.json`.
#[derive(Debug, Serialize)]
struct SweepRow {
    policy: String,
    path: String,
    crashes: usize,
    crash_p50_s: f64,
    crash_p95_s: f64,
    crash_max_s: f64,
    witness_served: u64,
    witness_fallbacks: u64,
    cold_restores: u64,
    flash_restores: usize,
    flash_p50_s: f64,
    hot_served: u64,
    goodput_lost_permille: f64,
    lost_pause_s: f64,
    lost_down_s: f64,
    lost_redo_s: f64,
    dedup_ratio: f64,
    remote_occupancy: f64,
    hot_evictions: u64,
    corrupt_fallbacks: u64,
    durable_ok: bool,
    bytes_ok: bool,
    shard_invariant: bool,
    violations: Vec<String>,
}

/// Percentile (nearest-rank) of an already-sorted latency vector, secs.
fn pct(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 * p).ceil() as usize).clamp(1, sorted_us.len()) - 1;
    sorted_us[idx] as f64 / 1e6
}

/// Runs one (policy, path) unit: the canonical single-shard pass writes
/// telemetry and is audited by the durability oracle; 2- and 4-shard
/// replicas must reproduce its digest bit-for-bit.
fn run_unit(policy: &Policy, path: &'static str, seed: u64, telemetry: &Telemetry) -> SweepRow {
    let canon = run_trace(policy, path, seed, 1, telemetry);
    let shard_invariant = [2u64, 4]
        .into_iter()
        .all(|k| run_trace(policy, path, seed, k, &Telemetry::default()).digest == canon.digest);
    let events = telemetry.snapshot().events;
    let (durable, bytes_bounded) = Oracle::check_durability(&events);
    let mut violations = durable.violations.clone();
    violations.extend(bytes_bounded.violations.clone());
    let mut crash = canon.crash_latencies_us.clone();
    crash.sort_unstable();
    let mut flash = canon.flash_latencies_us.clone();
    flash.sort_unstable();
    let fleet_secs = JOBS as f64 * HORIZON.as_secs_f64();
    SweepRow {
        policy: policy.name.to_string(),
        path: path.to_string(),
        crashes: crash.len(),
        crash_p50_s: pct(&crash, 0.50),
        crash_p95_s: pct(&crash, 0.95),
        crash_max_s: pct(&crash, 1.0),
        witness_served: canon.witness_served,
        witness_fallbacks: canon.witness_fallbacks,
        cold_restores: canon.cold_restores,
        flash_restores: flash.len(),
        flash_p50_s: pct(&flash, 0.50),
        hot_served: canon.hot_served,
        goodput_lost_permille: 1_000.0 * canon.lost_secs / fleet_secs,
        lost_pause_s: canon.lost_pause_s,
        lost_down_s: canon.lost_down_s,
        lost_redo_s: canon.lost_redo_s,
        dedup_ratio: canon.dedup_ratio,
        remote_occupancy: canon.remote_occupancy,
        hot_evictions: canon.hot_evictions,
        corrupt_fallbacks: canon.corrupt_fallbacks,
        durable_ok: durable.passed,
        bytes_ok: bytes_bounded.passed,
        shard_invariant,
        violations,
    }
}

/// Runs the full sweep at `seed`; returns the rendered report, the
/// number of durability violations, and whether every unit was
/// shard-invariant (CI gates on `0` and `true`).
pub fn run_ckptplane(seed: u64) -> (String, usize, bool) {
    let paths: [&'static str; 2] = ["master-replay", "witness-quorum"];
    let policy_set = policies();
    let units: Vec<Unit<'_, SweepRow>> = policy_set
        .iter()
        .flat_map(|policy| {
            paths.iter().map(move |&path| {
                Unit::new(format!("{}/{path}", policy.name), move |t: &Telemetry| {
                    run_unit(policy, path, seed, t)
                })
            })
        })
        .collect();
    let outputs = run_units_auto(units);
    let telemetry = merge_telemetry(&outputs);
    let rows: Vec<SweepRow> = outputs.into_iter().map(|o| o.value).collect();
    let total_violations: usize = rows.iter().map(|r| r.violations.len()).sum();
    let all_invariant = rows.iter().all(|r| r.shard_invariant);

    let mut report = Report::new(
        "ckptplane",
        "Tiered checkpoint plane: policy x recovery path under a diurnal fleet",
    );
    report.section(&format!(
        "{JOBS} jobs / {FAMILIES} families, 8h diurnal trace, seed {seed} \
         (2 remote outages, 1 bandwidth collapse, 1 witness partition, 4 corruptions)"
    ));
    let widths = [11usize, 15, 9, 9, 9, 9, 8, 7, 7, 7];
    report.row(
        &[
            "policy".into(),
            "path".into(),
            "p50(s)".into(),
            "p95(s)".into(),
            "max(s)".into(),
            "flash(s)".into(),
            "lost‰".into(),
            "dedup".into(),
            "occ".into(),
            "oracle".into(),
        ],
        &widths,
    );
    for r in &rows {
        report.row(
            &[
                r.policy.clone(),
                r.path.clone(),
                format!("{:.1}", r.crash_p50_s),
                format!("{:.1}", r.crash_p95_s),
                format!("{:.1}", r.crash_max_s),
                format!("{:.1}", r.flash_p50_s),
                format!("{:.1}", r.goodput_lost_permille),
                format!("{:.2}", r.dedup_ratio),
                format!("{:.2}", r.remote_occupancy),
                if r.durable_ok && r.bytes_ok { "pass".into() } else { "FAIL".into() },
            ],
            &widths,
        );
    }
    let find = |policy: &str, path: &str| {
        rows.iter().find(|r| r.policy == policy && r.path == path).expect("swept cell")
    };
    let wq = find("flash-120s", "witness-quorum");
    let mr = find("flash-120s", "master-replay");
    report.line(format!(
        "flash-120s crash recovery: witness-quorum p95 {:.1}s vs master-replay p95 {:.1}s \
         (witness served {}/{}, {} fell back to replay)",
        wq.crash_p95_s, mr.crash_p95_s, wq.witness_served, wq.crashes, wq.witness_fallbacks
    ));
    report.line(format!(
        "PS flash-restore p50: flash-600s {:.2}s (hot-served {}) vs rds-600s {:.2}s \
         (hot-served {}) — the §5.3 flash tier vs the §2.2 throttled store",
        find("flash-600s", "master-replay").flash_p50_s,
        find("flash-600s", "master-replay").hot_served,
        find("rds-600s", "master-replay").flash_p50_s,
        find("rds-600s", "master-replay").hot_served,
    ));
    report.line(format!(
        "shard sweep (1/2/4): {}; durability violations: {total_violations}",
        if all_invariant { "bit-identical" } else { "DIVERGED" }
    ));
    report.record("seed", &seed);
    report.record("jobs", &JOBS);
    report.record("families", &FAMILIES);
    report.record("horizon_s", &HORIZON.as_secs_f64());
    report.record("rows", &rows);
    report.record("total_violations", &total_violations);
    report.record("shard_invariant", &all_invariant);
    report.telemetry(&telemetry);
    (report.finish(), total_violations, all_invariant)
}

/// Registry entry point. A shard-count divergence counts as one more
/// violation, so `exp` gates on both with the one number.
pub fn run(args: &RunArgs) -> (String, usize) {
    let (text, violations, shard_invariant) = run_ckptplane(args.seed);
    (text, violations + usize::from(!shard_invariant))
}

#[cfg(test)]
mod tests {

    use super::*;

    /// Headline shape: witness recovery beats (or matches) master replay
    /// under every policy — and strictly beats it in the tail, where the
    /// replay path has to wait out the remote outage; the flash tier
    /// serves PS restores at memory speed while the RDS baseline pays
    /// the throttled store; frequent checkpoints lose less goodput than
    /// sparse ones on the replay path; and every unit passes the
    /// durability oracle and the shard sweep.
    #[test]
    fn witness_beats_replay_and_flash_beats_rds() {
        let (out, violations, shard_invariant) = run_ckptplane(42);
        assert_eq!(violations, 0, "durability violations:\n{out}");
        assert!(shard_invariant, "shard sweep diverged:\n{out}");
        assert!(!out.contains("FAIL"), "a unit failed the oracle:\n{out}");
        // Re-derive the sweep cells for the structural assertions.
        let rows: Vec<(String, String, f64, f64, f64, u64, f64)> = policies()
            .iter()
            .flat_map(|p| {
                ["master-replay", "witness-quorum"].into_iter().map(|path| {
                    let t = Telemetry::default();
                    let r = run_unit(p, path, 42, &t);
                    (
                        r.policy,
                        r.path,
                        r.crash_p95_s,
                        r.crash_max_s,
                        r.flash_p50_s,
                        r.hot_served,
                        r.goodput_lost_permille,
                    )
                })
            })
            .collect();
        let cell = |policy: &str, path: &str| {
            rows.iter().find(|r| r.0 == policy && r.1 == path).expect("cell")
        };
        for p in ["flash-120s", "flash-600s", "rds-600s"] {
            let wq = cell(p, "witness-quorum");
            let mr = cell(p, "master-replay");
            assert!(wq.2 <= mr.2, "{p}: witness p95 {:.1}s > replay p95 {:.1}s\n{out}", wq.2, mr.2);
            assert!(
                wq.3 < mr.3,
                "{p}: witness max {:.1}s must beat replay max {:.1}s (outage wait)\n{out}",
                wq.3,
                mr.3
            );
        }
        // Flash tier vs throttled RDS on PS restores.
        let flash = cell("flash-600s", "master-replay");
        let rds = cell("rds-600s", "master-replay");
        assert!(flash.5 > 0, "flash policy must serve hot restores\n{out}");
        assert_eq!(rds.5, 0, "rds policy's hot tier is below one checkpoint\n{out}");
        assert!(
            flash.4 < rds.4,
            "flash restore p50 {:.2}s must beat rds {:.2}s\n{out}",
            flash.4,
            rds.4
        );
        // Checkpoint-interval tradeoff: sparse checkpoints redo more work.
        let frequent = cell("flash-120s", "master-replay");
        let sparse = cell("flash-600s", "master-replay");
        assert!(
            frequent.6 < sparse.6,
            "flash-120s lost {:.1}‰ must beat flash-600s {:.1}‰\n{out}",
            frequent.6,
            sparse.6
        );
    }

    /// The sweep (and therefore `results/ckptplane.json`) is
    /// bit-reproducible per seed.
    #[test]
    fn report_is_deterministic() {
        let (a, va, sa) = run_ckptplane(7);
        let (b, vb, sb) = run_ckptplane(7);
        assert_eq!(a, b);
        assert_eq!((va, sa), (vb, sb));
    }
}
