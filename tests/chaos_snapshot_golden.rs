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
//! The second group (node loss, preemption burst, denial storms, engine-side
//! windows, witness fallback, organic churn, the policy arm) was recorded on
//! PR 16's tree, before `run_chaos_job_inner` became the stepped
//! `ChaosDriver`: together the two groups reach every fault family and both
//! placement paths of the driver.
//!
//! A constant may change only with a change that means to alter simulated
//! behaviour, and `results/chaos.json` then changes with it — or with one to
//! the recorded vocabulary: the snapshot digests were re-recorded when a
//! slice's shard records became one ack per worker and the metrics registry
//! lost its empty gauge map, and again when the checkpoint plane's manifests
//! became the only checkpoint records (a hand-off records none), pauses,
//! denials and OOM verdicts kept one record each (no pause or pending-pod
//! event, no instant OOM span) and `PodRequested` gained the pod's role,
//! with every report digest unchanged.

use dlrover_rm::master::RecoveryPath;
use dlrover_rm::master::RETAIN_PER_JOB;
use dlrover_rm::master::{JobHealth, JobRuntimeProfile, RetryPolicy};
use dlrover_rm::prelude::*;
use dlrover_rm::sim::{FaultEvent, FaultKind, FaultPlan};
use dlrover_rm::telemetry::SpanCategory;

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

/// Digests `(snapshot, report)` of a finished run.
fn digest_run(sink: &Telemetry, report: &ChaosReport) -> (u64, u64) {
    assert!(report.jct_us.is_some(), "job must complete");
    assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
    assert!(report.ckpt.commits > RETAIN_PER_JOB as u64, "retirement must run");
    let snapshot = serde_json::to_string(&sink.snapshot()).expect("snapshot serializes");
    let report = serde_json::to_string(report).expect("report serializes");
    (fnv(snapshot.as_bytes()), fnv(report.as_bytes()))
}

/// Runs one static-gang job and digests it.
fn digests(steps: u64, plan: &FaultPlan, cfg: &ChaosConfig) -> (u64, u64) {
    run_and_digest(steps, plan, cfg).0
}

/// [`digests`], plus the sink and report so a test can assert that the run
/// went down the arm it is there to pin.
fn run_and_digest(
    steps: u64,
    plan: &FaultPlan,
    cfg: &ChaosConfig,
) -> ((u64, u64), Telemetry, ChaosReport) {
    let sink = Telemetry::default();
    let report =
        run_chaos_job(&TrainingJobSpec::paper_default(steps), allocation(), plan, cfg, &sink);
    (digest_run(&sink, &report), sink, report)
}

/// Events of the run matching `pred`.
fn count(sink: &Telemetry, pred: impl Fn(&EventKind) -> bool) -> usize {
    sink.events().iter().filter(|e| pred(&e.kind)).count()
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
    check("master_crash/replay", got, (0xf260_c674_c94c_bf94, 0xf437_4a2f_d4ee_b799));
}

#[test]
fn master_crash_witness_run_is_pinned() {
    let cfg = ChaosConfig { prefer_witness: true, ..ChaosConfig::default() };
    let got = digests(40_000, &master_crash_plan(), &cfg);
    check("master_crash/witness", got, (0xf14f_9db0_3c9d_76a8, 0xfc73_2f50_296d_3a32));
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
    check("ps_kill/outage", got, (0xf93d_46cc_d937_bd47, 0xc53e_2ff2_83cc_2207));
}

#[test]
fn fault_free_run_is_pinned() {
    let got = digests(60_000, &FaultPlan::default(), &ChaosConfig::default());
    check("fault_free", got, (0x256b_f563_3962_40db, 0x9837_7530_663b_41a7));
}

// The second group. Each test also asserts that the run took the arm it pins.

/// The job's six pods all pack onto node 0 (best-fit), so losing it kills the
/// whole gang at once; the replacements land on node 1 through the fast
/// path. The burst of High-priority quarter-node service pods then has to
/// preempt training pods to fit on the two-node cluster, among them a
/// replacement still starting, whose engine slot fails with it.
#[test]
fn node_loss_then_preemption_burst_run_is_pinned() {
    let cfg = ChaosConfig {
        cluster: ClusterConfig { nodes: 2, ..ChaosConfig::default().cluster },
        ..ChaosConfig::default()
    };
    let plan = FaultPlan::from_events(vec![
        at(300, FaultKind::NodeLoss { node: 0 }),
        at(1_500, FaultKind::PreemptionBurst { pods: 8 }),
    ]);
    let (got, sink, report) = run_and_digest(40_000, &plan, &cfg);
    assert_eq!(report.faults_injected, 2);
    assert_eq!(count(&sink, |k| matches!(k, EventKind::PodFailed { .. })), 6, "whole gang lost");
    assert!(count(&sink, |k| matches!(k, EventKind::PodPreempted { .. })) >= 2);
    check("node_loss/burst", got, (0x0171_5c5f_4fc6_c446, 0x3615_6186_caeb_ff2b));
}

/// A one-node cluster loses its node: every replacement is parked by the
/// cluster (`pod: Some`, `Pending`) and placed by a retry's
/// `schedule_pending` once the node returns after its 15-minute outage.
#[test]
fn node_loss_on_a_one_node_cluster_parks_replacements_run_is_pinned() {
    let cfg = ChaosConfig {
        cluster: ClusterConfig { nodes: 1, ..ChaosConfig::default().cluster },
        ..ChaosConfig::default()
    };
    let plan = FaultPlan::from_events(vec![at(300, FaultKind::NodeLoss { node: 0 })]);
    let (got, sink, report) = run_and_digest(40_000, &plan, &cfg);
    assert!(sink.counter("cluster.denials") >= 6);
    assert!(count(&sink, |k| matches!(k, EventKind::RetryAttempt { .. })) > 6);
    assert_eq!(count(&sink, |k| matches!(k, EventKind::RetryExhausted { .. })), 0);
    assert_eq!(report.health, JobHealth::Healthy);
    check("node_loss/parked", got, (0x28f8_5ba6_c8eb_349c, 0x0dac_5aff_75f1_ce64));
}

/// A worker dies inside a denial storm: the request is frozen
/// (`pod: None`), retried with backoff, and placed after the freeze lifts.
#[test]
fn denial_storm_retry_places_the_replacement_run_is_pinned() {
    let plan = FaultPlan::from_events(vec![
        at(100, FaultKind::DenialStorm { pods: 8, window: SimDuration::from_secs(240) }),
        at(130, FaultKind::WorkerKill { worker: 0 }),
        at(160, FaultKind::PsKill { ps: 1 }),
    ]);
    let (got, sink, report) = run_and_digest(40_000, &plan, &ChaosConfig::default());
    assert!(sink.snapshot().metrics.counter("chaos.storm_denials") >= 2);
    assert_eq!(count(&sink, |k| matches!(k, EventKind::RetryExhausted { .. })), 0);
    assert_eq!(report.health, JobHealth::Healthy);
    check("denial_storm/retry", got, (0x6598_e213_7b12_b953, 0x6204_7d2a_c755_ae3a));
}

/// A storm longer than the retry deadline (the configuration of
/// `retry_exhaustion_degrades_instead_of_looping`): the backoff exhausts and
/// the master degrades to the surviving shape.
#[test]
fn denial_storm_exhaustion_degrades_run_is_pinned() {
    let cfg = ChaosConfig {
        retry: RetryPolicy {
            base: SimDuration::from_secs(10),
            jitter_permille: 0,
            max_attempts: 3,
            deadline: SimDuration::from_mins(2),
            ..ChaosConfig::default().retry
        },
        ..ChaosConfig::default()
    };
    let plan = FaultPlan::from_events(vec![
        at(100, FaultKind::DenialStorm { pods: 4, window: SimDuration::from_mins(8) }),
        at(130, FaultKind::WorkerKill { worker: 0 }),
    ]);
    let (got, sink, report) = run_and_digest(40_000, &plan, &cfg);
    assert_eq!(count(&sink, |k| matches!(k, EventKind::RetryExhausted { .. })), 1);
    assert_eq!(report.health, JobHealth::Degraded);
    check("denial_storm/exhausted", got, (0xb8fa_e934_f390_ffad, 0x103a_8686_b00e_e0dc));
}

/// The two engine-side windows: PS memory pressure (set, then cleared when
/// the window ends) overlapping a network delay that scales every worker.
#[test]
fn memory_pressure_and_network_delay_run_is_pinned() {
    let plan = FaultPlan::from_events(vec![
        at(
            400,
            FaultKind::MemoryPressure {
                ps: 1,
                headroom_permille: 500,
                window: SimDuration::from_mins(4),
            },
        ),
        at(
            520,
            FaultKind::NetworkDelay { factor_permille: 2_000, window: SimDuration::from_mins(3) },
        ),
    ]);
    let (got, _, report) = run_and_digest(40_000, &plan, &ChaosConfig::default());
    assert_eq!(report.faults_injected, 2);
    assert!(report.jct_us.unwrap() > report.baseline_jct_us);
    check("pressure/network", got, (0xb3db_df48_e05d_d519, 0x331c_db19_3d6a_c1d4));
}

/// `prefer_witness` with the quorum partitioned away at crash time falls
/// back to replay. A worker and a PS die just before the crash, so the crash
/// arm also runs with a worker replacement (re-adopted by the rebuilt master
/// as a starting slot) and a PS replacement still starting.
#[test]
fn witness_partition_falls_back_to_replay_run_is_pinned() {
    let plan = FaultPlan::from_events(vec![
        at(250, FaultKind::WitnessPartition { peers: 2, window: SimDuration::from_secs(800) }),
        at(840, FaultKind::PsKill { ps: 0 }),
        at(870, FaultKind::WorkerKill { worker: 1 }),
        at(900, FaultKind::MasterCrash { restart: SimDuration::from_secs(60) }),
    ]);
    let cfg = ChaosConfig { prefer_witness: true, ..ChaosConfig::default() };
    let (got, _, report) = run_and_digest(40_000, &plan, &cfg);
    assert_eq!(report.recoveries.len(), 1);
    assert_eq!(report.recoveries[0].path, RecoveryPath::MasterReplay);
    check("witness_partition/replay", got, (0x3a07_29e3_e32e_2c43, 0x91df_e63a_692d_ab1f));
}

/// A worker and a PS are killed, and a second PS kill lands at t = 390 s —
/// the tick on which the first PS replacement finishes starting. Promotion
/// runs before fault delivery, so partition 0 is live again and is the one
/// hit (delivered first, the kill would find only partition 1 alive).
#[test]
fn ps_kill_on_its_replacements_promotion_tick_run_is_pinned() {
    let plan = FaultPlan::from_events(vec![
        at(120, FaultKind::WorkerKill { worker: 1 }),
        at(150, FaultKind::PsKill { ps: 0 }),
        at(390, FaultKind::PsKill { ps: 0 }),
    ]);
    let (got, sink, report) = run_and_digest(40_000, &plan, &ChaosConfig::default());
    assert_eq!(report.faults_injected, 3);
    let startups: Vec<_> = (sink.snapshot().spans.iter())
        .filter(|s| s.cat == SpanCategory::PodStartup && s.start_us == 150_000_000)
        .map(|s| s.end_us)
        .collect();
    assert_eq!(startups, [390_000_000], "the first PS replacement is promoted at t = 390 s");
    check("ps_kill/promotion_tick", got, (0x7868_779a_1397_9178, 0x42c3_3aaf_1b23_3897));
}

/// Organic churn only: no scripted fault, but a daily pod hazard high enough
/// (mean time-to-failure ~1.7 h a pod, over a ~3 h job) that sampled kills
/// keep landing inside the run — no `FaultInjected` marker, same kill
/// machinery. Every replacement draws its own time-to-failure from the same
/// stream, so one draw more or fewer moves every later kill.
#[test]
fn organic_churn_run_is_pinned() {
    let cfg = ChaosConfig {
        cluster: ClusterConfig { pod_daily_failure_rate: 0.9999, ..ChaosConfig::default().cluster },
        ..ChaosConfig::default()
    };
    let (got, sink, report) = run_and_digest(100_000, &FaultPlan::default(), &cfg);
    assert_eq!(report.faults_injected, 0);
    assert!(count(&sink, |k| matches!(k, EventKind::WorkerFailed { .. })) >= 3, "workers die");
    assert!(count(&sink, |k| matches!(k, EventKind::PsReshaped { .. })) >= 2, "PS die");
    check("organic_churn", got, (0x2311_c265_7d97_8217, 0x089d_5c17_d1cd_f96b));
}

/// A policy that follows a script: the `n`th adjustment call (from 1) applies
/// the allocation listed for `n`, if any.
struct Scripted {
    initial: ResourceAllocation,
    script: Vec<(u32, ResourceAllocation, MigrationStrategy)>,
    calls: u32,
}

impl SchedulerPolicy for Scripted {
    fn name(&self) -> &str {
        "scripted"
    }
    fn initial_allocation(&mut self) -> ResourceAllocation {
        self.initial
    }
    fn adjust(&mut self, _profile: &JobRuntimeProfile) -> Option<PolicyDecision> {
        self.calls += 1;
        let &(_, allocation, strategy) = self.script.iter().find(|(n, _, _)| *n == self.calls)?;
        Some(PolicyDecision { allocation, strategy, reconfig: None })
    }
}

/// The policy arm under kills: shrink workers and PS (a PS replacement is
/// still starting for the partition the shrink removes, and is retired), grow
/// both past the initial shape, then resize vertically — with a worker and a
/// PS kill in between. Adjustments fall on t = 150 s + 180 s·(n − 1); the
/// worker killed at t = 600 s inside the denial storm is parked and placed by
/// the retry at t = 690 s, the tick of the growing adjustment, so the order
/// of the retry and policy phases shows in the startup draws.
#[test]
fn policy_shrinks_then_grows_under_kills_run_is_pinned() {
    let shape = |w, p, wc| ResourceAllocation::new(JobShape::new(w, p, wc, 4.0, 512), 8.0, 64.0);
    let mut policy = Scripted {
        initial: allocation(),
        script: vec![
            (2, shape(2, 1, 4.0), MigrationStrategy::Seamless),
            (4, shape(6, 3, 4.0), MigrationStrategy::Seamless),
            (6, shape(5, 2, 6.0), MigrationStrategy::StopAndRestart),
        ],
        calls: 0,
    };
    let plan = FaultPlan::from_events(vec![
        at(300, FaultKind::PsKill { ps: 1 }),
        at(560, FaultKind::DenialStorm { pods: 4, window: SimDuration::from_secs(120) }),
        at(600, FaultKind::WorkerKill { worker: 0 }),
        at(960, FaultKind::PsKill { ps: 2 }),
        at(990, FaultKind::WorkerKill { worker: 4 }),
    ]);
    let cfg = ChaosConfig::default();
    let sink = Telemetry::default();
    let report = run_chaos_job_with_policy(
        &TrainingJobSpec::paper_default(40_000),
        &mut policy,
        &plan,
        &cfg,
        &sink,
    );
    assert_eq!(report.faults_injected, 5);
    assert_eq!(count(&sink, |k| matches!(k, EventKind::PolicyAdjusted { .. })), 3);
    assert!(count(&sink, |k| matches!(k, EventKind::RetryAttempt { .. })) >= 2);
    check(
        "policy/shrink_grow",
        digest_run(&sink, &report),
        (0xfd9b_eb39_6325_95e5, 0x7ac0_c8de_0d00_050b),
    );
}
