//! Golden digests of `JobMaster`'s migration hand-offs and of its failover
//! constructor, each driven straight on a master with no cluster under it.
//!
//! A hand-off prices a move through a checkpoint tier, records its span(s)
//! and the flash checkpoint, reshapes the engine and pauses it. Span ids are
//! assigned in call order and `TrainingPaused` / `PsReshaped` land in the
//! stream in the order the engine was touched, so the FNV of the whole
//! serialized `snapshot()` pins the order, the tier each move was priced
//! against and every counter; the second digest pins `(scaling_count,
//! allocation, engine.now())`. Each case asserts that it took the arm it is
//! there to pin. `tests/chaos_snapshot_golden.rs` pins the same paths under
//! a cluster and a fault plan.
//!
//! The constants were recorded on 08b7ed9, where the six hand-offs were six
//! written-out copies and `JobMaster::new` / `from_replay` two struct
//! literals; `from_replay`'s snapshot digest was re-recorded when the
//! rebuilt master began re-adopting the workers it is told of (it used to
//! rebuild one). A constant may change only with a change that means to
//! alter simulated behaviour — or with one to the recorded vocabulary: the
//! snapshot digests were re-recorded when a slice's shard records became one
//! ack per worker and the metrics registry lost its empty gauge map, with
//! every second digest unchanged.

use dlrover_rm::master::{MasterEvent, ReplayedJobState};
use dlrover_rm::prelude::*;

const DT: SimDuration = SimDuration::from_secs(30);

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn alloc(workers: u32, ps: u32, ps_mem_gb: f64) -> ResourceAllocation {
    ResourceAllocation::new(JobShape::new(workers, ps, 8.0, 8.0, 512), 32.0, ps_mem_gb)
}

/// A master of `spec` at `allocation`, recording into a fresh sink.
fn master_on(spec: TrainingJobSpec, allocation: ResourceAllocation) -> JobMaster {
    let mut m = JobMaster::new(1, spec, allocation, MasterConfig::default());
    m.set_telemetry(Telemetry::default());
    m
}

/// [`master_on`] the 20 000-step paper job with 256 GB per PS.
fn master(workers: u32, ps: u32) -> JobMaster {
    master_on(TrainingJobSpec::paper_default(20_000), alloc(workers, ps, 256.0))
}

fn ticks(m: &mut JobMaster, n: usize) {
    for _ in 0..n {
        m.tick(DT);
    }
}

fn decision(
    allocation: ResourceAllocation,
    strategy: MigrationStrategy,
    reconfig: Option<ReconfigRequest>,
) -> PolicyDecision {
    PolicyDecision { allocation, strategy, reconfig }
}

fn sync_plan() -> ExecPlan {
    ExecPlan { gradient_mode: GradientMode::Sync, ps_replicas: 2, batch_size: 0 }
}

/// Events of `m`'s stream named `name`.
fn count(m: &JobMaster, name: &str) -> usize {
    m.telemetry().snapshot().events.iter().filter(|e| e.kind.name() == name).count()
}

/// Digests `(snapshot, (scaling_count, allocation, now))` and compares.
fn check(name: &str, m: &JobMaster, want: (u64, u64)) {
    let snapshot = serde_json::to_string(&m.telemetry().snapshot()).expect("snapshot serializes");
    let state = serde_json::to_string(&(m.scaling_count(), m.allocation(), m.engine().now()))
        .expect("state serializes");
    let got = (fnv(snapshot.as_bytes()), fnv(state.as_bytes()));
    assert_eq!(
        got, want,
        "{name}: simulated bits moved — got ({:#018x}, {:#018x}), golden ({:#018x}, {:#018x})",
        got.0, got.1, want.0, want.1
    );
}

/// A PS at a tenth of its speed is rebalanced around on the next tick. Four
/// PSes: with two, one ratio can never exceed twice the mean of both.
#[test]
fn hot_ps_rebalance_is_pinned() {
    let mut m = master(4, 4);
    ticks(&mut m, 1);
    m.engine_mut().set_ps_pod(0, PodState { cpu: 8.0, speed: 0.1 });
    let events = m.tick(DT);
    assert!(events.contains(&MasterEvent::HotPsMitigated { ps: 0 }), "{events:?}");
    assert_eq!(m.scaling_count(), 1);
    ticks(&mut m, 2);
    check("hot_ps", &m, (0x2fde_6837_e668_3a3c, 0x200b_5259_7a66_376c));
}

/// Embedding growth that overruns 2.5 GB per PS is pre-scaled (§5.3).
#[test]
fn oom_prescale_is_pinned() {
    let mut spec = TrainingJobSpec::paper_default(20_000);
    spec.memory = MemoryModel::new(1.0e9, 4096.0, 3.0e6, 2.0e6);
    let mut m = master_on(spec, alloc(4, 2, 2.5));
    let prevented = (0..2_000)
        .any(|_| m.tick(DT).iter().any(|e| matches!(e, MasterEvent::OomPrevented { .. })));
    assert!(prevented, "the case needs the prevention path");
    assert!(m.allocation().ps_mem_gb > 2.5, "the allocation follows the pre-scale");
    ticks(&mut m, 2);
    check("oom_prescale", &m, (0xa37b_208e_589f_180a, 0xb298_a545_4647_bc6f));
}

/// A PS pod dies mid-run and is replaced through the flash tier (§6.2).
#[test]
fn ps_failure_is_pinned() {
    let mut m = master(4, 2);
    ticks(&mut m, 4);
    m.handle_ps_failure(0, SimDuration::from_secs(120));
    assert_eq!(m.telemetry().counter("master.ps_recoveries"), 1);
    assert_eq!(m.scaling_count(), 0, "a recovery is not a scaling operation");
    ticks(&mut m, 2);
    check("ps_failure", &m, (0x61ed_807e_6b49_afec, 0x48c0_00cd_2964_be13));
}

/// Stop-and-restart to another PS count: the job pauses for the whole RDS
/// round trip, then reshapes.
#[test]
fn stop_and_restart_decision_is_pinned() {
    let mut m = master(4, 2);
    ticks(&mut m, 1);
    m.apply_decision(
        decision(alloc(4, 3, 256.0), MigrationStrategy::StopAndRestart, None),
        SimDuration::from_secs(60),
    );
    assert_eq!(m.engine().partitions().len(), 3);
    assert_eq!(m.engine().throughput(), 0.0, "paused");
    ticks(&mut m, 3);
    check("stop_and_restart", &m, (0xf59f_24f9_9dec_67e1, 0x3d44_f033_bcd7_9f53));
}

/// A seamless decision that adds workers and a PS: the workers wait out
/// their startup, the PS move pauses for the flash handoff only.
#[test]
fn seamless_decision_is_pinned() {
    let mut m = master(4, 2);
    ticks(&mut m, 1);
    m.apply_decision(
        decision(alloc(6, 3, 256.0), MigrationStrategy::Seamless, None),
        SimDuration::from_secs(90),
    );
    assert_eq!(m.pending_worker_count(), 2);
    assert_eq!(m.engine().partitions().len(), 3);
    ticks(&mut m, 5);
    assert_eq!(m.engine().live_pods().count(), 6);
    check("seamless", &m, (0xbd3f_3b33_aeaa_0ccc, 0x2117_dbae_eec7_f17f));
}

/// A reconfiguration window (plan switch + shard relayout) that commits.
#[test]
fn committed_reconfig_window_is_pinned() {
    let mut m = master(4, 2);
    ticks(&mut m, 1);
    let req = ReconfigRequest { target: sync_plan(), relayout: true };
    m.apply_decision(decision(m.allocation(), MigrationStrategy::Seamless, Some(req)), DT);
    ticks(&mut m, 4);
    assert_eq!(count(&m, "ReconfigApplied"), 1);
    check("reconfig_commit", &m, (0xb91a_9319_8b8a_4970, 0x4a94_c4e1_6e66_2943));
}

/// A reconfiguration window a fault rolls back before it commits.
#[test]
fn rolled_back_reconfig_window_is_pinned() {
    let mut m = master(4, 2);
    ticks(&mut m, 1);
    let req = ReconfigRequest { target: sync_plan(), relayout: false };
    m.apply_decision(decision(m.allocation(), MigrationStrategy::Seamless, Some(req)), DT);
    m.abort_reconfig_if_pending("fault");
    assert_eq!(*m.engine().exec_plan(), ExecPlan::default());
    ticks(&mut m, 2);
    assert_eq!(count(&m, "ReconfigRolledBack"), 1);
    assert_eq!(count(&m, "ReconfigApplied"), 0);
    check("reconfig_rollback", &m, (0x8749_1033_92a6_f1b3, 0x926c_286a_1a9d_7c02));
}

/// A master rebuilt from its predecessor's event log, re-adopting its four
/// workers, ten ticks on. The old master committed window 0, so the next
/// window the rebuilt one opens must be window 1: `next_window` crosses the
/// failover.
#[test]
fn from_replay_then_ten_ticks_is_pinned() {
    let spec = TrainingJobSpec::paper_default(20_000);
    let mut old = master_on(spec.clone(), alloc(4, 2, 256.0));
    ticks(&mut old, 2);
    let req = ReconfigRequest { target: sync_plan(), relayout: false };
    old.apply_decision(decision(old.allocation(), MigrationStrategy::Seamless, Some(req)), DT);
    ticks(&mut old, 18);
    assert_eq!(count(&old, "ReconfigApplied"), 1);

    let crashed_at = old.engine().now();
    let replayed = ReplayedJobState::from_events(&old.telemetry().snapshot().events);
    assert_eq!(replayed.next_window, 1);
    let workers = vec![None; old.engine().live_pods().count()];
    assert_eq!(workers.len(), 4);
    let mut m = JobMaster::from_replay(
        1,
        spec,
        old.allocation(),
        MasterConfig::default(),
        &replayed,
        &workers,
        crashed_at + SimDuration::from_secs(45),
    );
    m.set_telemetry(Telemetry::default());
    assert_eq!(
        m.engine().exec_plan().gradient_mode,
        GradientMode::Sync,
        "the committed plan is adopted"
    );
    let back = ReconfigRequest { target: ExecPlan::default(), relayout: false };
    m.apply_decision(decision(m.allocation(), MigrationStrategy::Seamless, Some(back)), DT);
    ticks(&mut m, 10);
    let events = m.telemetry().snapshot().events;
    assert!(
        events.iter().any(|e| matches!(e.kind, EventKind::ReconfigApplied { window: 1, .. })),
        "the rebuilt master's first window is window 1"
    );
    check("from_replay", &m, (0x9c06_f82f_4f0a_e822, 0xac7d_1e8d_c2ee_d1b9));
}
