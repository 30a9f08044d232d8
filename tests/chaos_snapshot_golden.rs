//! Golden digests of whole chaos runs: everything the sink holds, not just
//! the event trace.
//!
//! `tests/golden/*.digest` (`trace_fnv`) covers the event log only; spans
//! and the metrics registry are outside it, and so is the [`ChaosReport`].
//! These constants FNV the full serialized `telemetry.snapshot()` (events +
//! spans + metrics) and the report of four chaos jobs. They were recorded at
//! PR 14's tree, *before* the hashed chunk store, the server-phase cost
//! split, the dense shard accounting and the silent baseline sink landed,
//! so a change along `core::chaos` → `JobMaster::tick` →
//! `PsTrainingEngine::advance` → `master::ckptplane` that moves one span
//! bound, one counter or one report field fails here.
//!
//! A constant may change only with a change that means to alter simulated
//! behaviour, and `results/chaos.json` then changes with it.

use dlrover_rm::prelude::*;
use dlrover_rm::sim::{FaultEvent, FaultKind, FaultPlan};

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn allocation() -> ResourceAllocation {
    ResourceAllocation::new(JobShape::new(4, 2, 4.0, 4.0, 512), 8.0, 64.0)
}

fn at(secs: u64, kind: FaultKind) -> FaultEvent {
    FaultEvent { at: SimTime::from_secs(secs), kind }
}

/// Runs one job and digests `(snapshot, report)`.
fn digests(steps: u64, plan: &FaultPlan, cfg: &ChaosConfig) -> (u64, u64) {
    let sink = Telemetry::default();
    let report =
        run_chaos_job(&TrainingJobSpec::paper_default(steps), allocation(), plan, cfg, &sink);
    assert!(report.jct_us.is_some(), "job must complete");
    assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
    assert!(report.ckpt.commits > cfg.ckpt.retain_per_job as u64, "retirement must run");
    let snapshot = serde_json::to_string(&sink.snapshot()).expect("snapshot serializes");
    let report = serde_json::to_string(&report).expect("report serializes");
    (fnv(snapshot.as_bytes()), fnv(report.as_bytes()))
}

fn check(name: &str, got: (u64, u64), want: (u64, u64)) {
    assert_eq!(
        got, want,
        "{name}: simulated bits moved — got ({:#018x}, {:#018x}), golden ({:#018x}, {:#018x})",
        got.0, got.1, want.0, want.1
    );
}

/// A straggler window, a corrupted manifest, then a master crash recovered
/// by event-log replay through the remote tier.
fn master_crash_plan() -> FaultPlan {
    FaultPlan::from_events(vec![
        at(
            200,
            FaultKind::StragglerWindow {
                worker: 2,
                speed_permille: 250,
                window: SimDuration::from_mins(4),
            },
        ),
        at(700, FaultKind::ManifestCorruption { manifest: 0 }),
        at(900, FaultKind::MasterCrash { restart: SimDuration::from_secs(45) }),
    ])
}

#[test]
fn master_crash_replay_run_is_pinned() {
    let got = digests(40_000, &master_crash_plan(), &ChaosConfig::default());
    check("master_crash/replay", got, (0xb6dc_f925_3d1f_4de2, 0x9617_d6bb_369d_7fff));
}

#[test]
fn master_crash_witness_run_is_pinned() {
    let cfg = ChaosConfig { prefer_witness: true, ..ChaosConfig::default() };
    let got = digests(40_000, &master_crash_plan(), &cfg);
    check("master_crash/witness", got, (0x6d9b_6059_d149_c539, 0xdb2e_62dc_ed0f_0274));
}

#[test]
fn ps_kill_inside_remote_outage_run_is_pinned() {
    let plan = FaultPlan::from_events(vec![
        at(300, FaultKind::RemoteTierOutage { window: SimDuration::from_mins(6) }),
        at(420, FaultKind::PsKill { ps: 1 }),
        at(
            900,
            FaultKind::BandwidthCollapse {
                factor_permille: 3000,
                window: SimDuration::from_mins(5),
            },
        ),
        at(1_200, FaultKind::WorkerKill { worker: 3 }),
    ]);
    let got = digests(40_000, &plan, &ChaosConfig::default());
    check("ps_kill/outage", got, (0x2576_5570_c8fd_1d20, 0xc53e_2ff2_83cc_2207));
}

#[test]
fn fault_free_run_is_pinned() {
    let got = digests(60_000, &FaultPlan::default(), &ChaosConfig::default());
    check("fault_free", got, (0x7912_42a7_946e_8862, 0x9837_7530_663b_41a7));
}
