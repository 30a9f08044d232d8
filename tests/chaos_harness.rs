//! Property tests for the chaos harness: arbitrary well-formed fault
//! plans must validate, and no plan drawn from the survivable envelope
//! may break exactly-once sample accounting on a job that completes.

use dlrover_rm::prelude::*;
use dlrover_rm::sim::{FaultEvent, FaultKind, FaultPlan, FaultPlanConfig};
use proptest::prelude::*;

/// Strategy for one well-formed fault, drawn from the same survivable
/// envelope as [`FaultPlan::generate`]'s defaults: kills are plain,
/// pressure stays below the forecaster's reaction threshold (≤ 600 ‰ of
/// free headroom, §5.3), stragglers keep ≥ 15 % speed, delay inflation
/// caps at 3×, and every window is positive and bounded (≤ 6 min).
fn kind_strategy() -> impl Strategy<Value = FaultKind> {
    let window = (1_000_000u64..360_000_000).prop_map(SimDuration::from_micros);
    prop_oneof![
        (0u32..16).prop_map(|worker| FaultKind::WorkerKill { worker }),
        (0u32..16).prop_map(|ps| FaultKind::PsKill { ps }),
        (0u32..64).prop_map(|node| FaultKind::NodeLoss { node }),
        (1u32..5).prop_map(|pods| FaultKind::PreemptionBurst { pods }),
        ((0u32..16), (1u32..600), window.clone()).prop_map(|(ps, headroom_permille, window)| {
            FaultKind::MemoryPressure { ps, headroom_permille, window }
        }),
        ((0u32..16), (150u32..1000), window.clone()).prop_map(
            |(worker, speed_permille, window)| FaultKind::StragglerWindow {
                worker,
                speed_permille,
                window,
            }
        ),
        ((1001u32..3000), window).prop_map(|(factor_permille, window)| {
            FaultKind::NetworkDelay { factor_permille, window }
        }),
    ]
}

/// Strategy for a whole plan: up to eight faults anywhere in the first
/// 40 virtual minutes, in arbitrary draw order ([`FaultPlan::from_events`]
/// sorts them).
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    proptest::collection::vec(
        ((0u64..2_400_000_000), kind_strategy())
            .prop_map(|(at, kind)| FaultEvent { at: SimTime::from_micros(at), kind }),
        0..8,
    )
    .prop_map(FaultPlan::from_events)
}

/// The job the accounting property throws plans at: long enough that the
/// whole plan horizon lands mid-training.
fn job() -> (TrainingJobSpec, ResourceAllocation) {
    (
        TrainingJobSpec::paper_default(20_000),
        ResourceAllocation::new(JobShape::new(4, 2, 4.0, 4.0, 512), 8.0, 64.0),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every plan the strategy produces is structurally well-formed.
    #[test]
    fn arbitrary_plans_validate(plan in plan_strategy()) {
        prop_assert!(plan.validate().is_ok(), "{:?}", plan.validate());
    }

    /// Generated plans (the harness's own generator) validate too, for
    /// any seed and plan index.
    #[test]
    fn generated_plans_validate(seed in 0u64..1_000_000, index in 0u64..64) {
        let plan =
            FaultPlan::generate(&FaultPlanConfig::default(), &RngStreams::new(seed), index);
        prop_assert!(plan.validate().is_ok(), "{:?}", plan.validate());
        prop_assert!(!plan.is_empty());
    }
}

/// The tournament roster, rebuilt for the harness (same constructions as
/// the `tournament` experiment, minus the warm-start search for speed):
/// index 0..6 covers DLRover-RM, Optimus, ES, well-tuned, DL2, DRL.
fn roster_policy(pi: usize, seed: u64) -> Box<dyn SchedulerPolicy> {
    let (spec, user_request) = job();
    let space = PlanSearchSpace {
        workers: (1, 12),
        ps: (1, 6),
        worker_cpu: (1.0, 8.0),
        ps_cpu: (1.0, 8.0),
        ..PlanSearchSpace::default()
    };
    match pi {
        0 => Box::new(DlroverPolicy::new(
            user_request,
            DlroverPolicyConfig { constants: spec.constants, seed, space, ..Default::default() },
        )),
        1 => Box::new(OptimusPolicy::new(user_request, space, spec.constants)),
        2 => Box::new(EsPolicy::new(user_request, space, 2)),
        3 => {
            let truth = ThroughputModel::new(spec.constants, ModelCoefficients::simulation_truth());
            Box::new(WellTunedPolicy::new(&truth, &space, 512, 96.0))
        }
        4 => {
            let streams = RngStreams::new(seed).fork("chaos-roster-dl2");
            Box::new(Dl2Policy::new(user_request, space, &streams))
        }
        5 => {
            let streams = RngStreams::new(seed).fork("chaos-roster-drl");
            Box::new(DrlPolicy::new(user_request, space, &streams))
        }
        other => unreachable!("unknown roster index {other}"),
    }
}

proptest! {
    // Each case runs a full chaos simulation; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Exactly-once under arbitrary survivable chaos: whatever the plan,
    /// a job that completes has trained every sample exactly once, and
    /// the oracle agrees.
    #[test]
    fn any_plan_preserves_exactly_once_accounting(plan in plan_strategy()) {
        let (spec, alloc) = job();
        let cfg = ChaosConfig::default();
        let telemetry = Telemetry::default();
        let report = run_chaos_job(&spec, alloc, &plan, &cfg, &telemetry);
        prop_assert!(report.jct_us.is_some(), "job must complete under a survivable plan");
        prop_assert_eq!(report.truth.samples_done, report.truth.total_samples);
        prop_assert_eq!(report.truth.total_samples, spec.total_samples);
        prop_assert!(!report.oomed);
        prop_assert!(
            report.oracle.passed(),
            "oracle violations: {:?}",
            report.oracle.violations()
        );
    }
}

proptest! {
    // Scheduler × chaos cross product; each case is a full policy-driven
    // chaos simulation (cheap in virtual time, so the count can afford to
    // sample every roster member several times over).
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Oracle invariants survive any (fault plan, scheduler) pairing from
    /// the tournament roster: the policy reshapes the job mid-fault (the
    /// "scheduler under fire" regime of the tournament experiment), yet no
    /// pod leaks, cluster accounting stays exact, and a completing job
    /// still trains every sample exactly once.
    #[test]
    fn any_plan_and_roster_policy_preserve_oracle_invariants(
        plan in plan_strategy(),
        pi in 0usize..6,
        seed in 0u64..1_000,
    ) {
        let (spec, _) = job();
        let cfg = ChaosConfig {
            runner: RunnerConfig { seed, ..RunnerConfig::default() },
            ..ChaosConfig::default()
        };
        let telemetry = Telemetry::default();
        let mut policy = roster_policy(pi, seed);
        let report = run_chaos_job_with_policy(&spec, policy.as_mut(), &plan, &cfg, &telemetry);
        prop_assert!(
            report.oracle.passed(),
            "roster policy {}: oracle violations: {:?}",
            pi,
            report.oracle.violations()
        );
        if report.jct_us.is_some() {
            prop_assert_eq!(report.truth.samples_done, report.truth.total_samples);
            prop_assert_eq!(report.truth.total_samples, spec.total_samples);
        }
    }
}

// ---------------------------------------------------------------------------
// Reconfiguration windows under chaos (PR 10, satellite 2).
// ---------------------------------------------------------------------------

/// A scripted policy that requests an execution-plan change (async ↔ sync
/// toggle) on every adjustment round: the most window-dense workload the
/// master can face, so every fault class gets a chance to land near a
/// reconfiguration window.
struct TogglePolicy {
    alloc: ResourceAllocation,
    sync_next: bool,
}

impl TogglePolicy {
    fn new(alloc: ResourceAllocation) -> Self {
        TogglePolicy { alloc, sync_next: true }
    }
}

impl SchedulerPolicy for TogglePolicy {
    fn name(&self) -> &str {
        "toggle-reconfig"
    }

    fn initial_allocation(&mut self) -> ResourceAllocation {
        self.alloc
    }

    fn adjust(&mut self, profile: &JobRuntimeProfile) -> Option<PolicyDecision> {
        // Degraded jobs hold their shape — same contract as DlroverPolicy.
        if profile.degraded {
            return None;
        }
        let mode = if self.sync_next { GradientMode::Sync } else { GradientMode::Async };
        self.sync_next = !self.sync_next;
        let target = ExecPlan { gradient_mode: mode, ps_replicas: 1, batch_size: 0 };
        if target == profile.exec {
            return None;
        }
        Some(PolicyDecision {
            allocation: self.alloc,
            strategy: MigrationStrategy::Seamless,
            reconfig: Some(ReconfigRequest { target, relayout: false }),
        })
    }
}

/// Asserts the window exactly-once contract directly on an event log:
/// every window id resolves as `ReconfigApplied` xor `ReconfigRolledBack`,
/// exactly once.
fn assert_windows_resolve_once(events: &[dlrover_rm::telemetry::Event]) {
    use std::collections::BTreeMap;
    let mut seen: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for e in events {
        match &e.kind {
            EventKind::ReconfigApplied { job, window, .. }
            | EventKind::ReconfigRolledBack { job, window, .. } => {
                *seen.entry((*job, *window)).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    for ((job, window), n) in seen {
        assert_eq!(n, 1, "job {job} window {window} resolved {n} times");
    }
}

#[test]
fn reconfig_windows_survive_worker_kill_master_crash_and_tier_outage() {
    // The three fault classes the satellite names, each landing while the
    // toggle policy keeps a reconfiguration window opening every round
    // (adjust cadence = tick cadence maximises window density).
    let (spec, alloc) = job();
    let plan = FaultPlan::from_events(vec![
        FaultEvent { at: SimTime::from_secs(120), kind: FaultKind::WorkerKill { worker: 1 } },
        FaultEvent {
            at: SimTime::from_secs(240),
            kind: FaultKind::RemoteTierOutage { window: SimDuration::from_secs(200) },
        },
        FaultEvent {
            at: SimTime::from_secs(300),
            kind: FaultKind::MasterCrash { restart: SimDuration::from_secs(60) },
        },
    ]);
    let cfg = ChaosConfig {
        runner: RunnerConfig {
            adjust_interval: SimDuration::from_secs(30),
            ..RunnerConfig::default()
        },
        ..ChaosConfig::default()
    };
    let telemetry = Telemetry::default();
    let mut policy = TogglePolicy::new(alloc);
    let report = run_chaos_job_with_policy(&spec, &mut policy, &plan, &cfg, &telemetry);
    assert!(report.jct_us.is_some(), "job must complete across the failover");
    assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
    assert_eq!(
        report.truth.samples_done, report.truth.total_samples,
        "a reconfig under faults must not lose samples"
    );

    let events = telemetry.snapshot().events;
    assert_windows_resolve_once(&events);
    let applied: Vec<u64> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::ReconfigApplied { window, .. } => Some(*window),
            _ => None,
        })
        .collect();
    assert!(!applied.is_empty(), "the toggle policy must commit windows under chaos");
    // Window ids stay strictly monotone in commit order, including across
    // the master failover (the replay fold seeds `next_window` past every
    // resolved id, so the rebuilt master never reuses one).
    for w in applied.windows(2) {
        assert!(w[0] < w[1], "window ids must stay monotone across failover: {applied:?}");
    }
    let crashed = events.iter().any(|e| e.kind.name() == "MasterRestarted");
    assert!(crashed, "the crash at t=300s must force a failover");
}

#[test]
fn a_replacement_placed_at_once_may_take_past_the_deadline_to_start() {
    // §2.2's scarcity tail made the rule: the scheduler grants the
    // replacement in the kill's own tick and the pod then gets stuck
    // pulling its image. The driver releases a pod still starting 15
    // minutes after its placement and asks for another; at a 20-minute
    // mean pull the first three stick and the fourth joins past the
    // deadline. Nothing was lost, so the 30-minute `recovery_deadline`
    // (which bounds the control plane) must hold; the latency it reports is
    // still kill to join.
    let spec = TrainingJobSpec::paper_default(200_000);
    let alloc = job().1;
    let plan = FaultPlan::from_events(vec![FaultEvent {
        at: SimTime::from_secs(120),
        kind: FaultKind::WorkerKill { worker: 1 },
    }]);
    let mut cfg = ChaosConfig::default();
    cfg.runner.startup.image_pull_mean_s = 1_200.0;
    let oracle = dlrover_rm::telemetry::OracleConfig::default();
    let deadline_us = oracle.recovery_deadline.as_micros();
    let telemetry = Telemetry::default();
    let report = run_chaos_job(&spec, alloc, &plan, &cfg, &telemetry);
    assert!(report.jct_us.is_some());
    assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
    assert_eq!(telemetry.counter("chaos.startup_timeouts"), 3);
    let worst = report.oracle.worst_recovery_us.expect("the kill was recovered");
    assert!(worst > deadline_us, "the pod started in {worst} us: not the slow start under test");

    // The check was loosened, not switched off: had the replacement never
    // joined, the same log is flagged.
    let mut events = telemetry.snapshot().events;
    events.retain(|e| !matches!(e.kind, EventKind::WorkerAdded { .. }));
    let lost = dlrover_rm::telemetry::Oracle::new(oracle).check(&plan, &events, &report.truth);
    assert!(
        lost.violations().iter().any(|v| v.contains("no replacement worker")),
        "{:?}",
        lost.violations()
    );
}

#[test]
fn dlrover_policy_with_reconfig_passes_the_oracle_under_chaos() {
    // End-to-end through the brain flag: the real DLRover policy with the
    // widened action space reshapes a job while a generated plan delivers
    // faults. Every oracle invariant — including ReconfigConsistent —
    // must hold.
    let (spec, user_request) = job();
    let space = PlanSearchSpace {
        workers: (1, 12),
        ps: (1, 6),
        worker_cpu: (1.0, 8.0),
        ps_cpu: (1.0, 8.0),
        ..PlanSearchSpace::default()
    };
    let mut policy = DlroverPolicy::new(
        user_request,
        DlroverPolicyConfig {
            constants: spec.constants,
            seed: 42,
            space,
            reconfig: Some(ReconfigSpace::default()),
            ..Default::default()
        },
    );
    let plan = FaultPlan::generate(&FaultPlanConfig::default(), &RngStreams::new(42), 7);
    let telemetry = Telemetry::default();
    let report =
        run_chaos_job_with_policy(&spec, &mut policy, &plan, &ChaosConfig::default(), &telemetry);
    assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
    if report.jct_us.is_some() {
        assert_eq!(report.truth.samples_done, report.truth.total_samples);
    }
    assert_windows_resolve_once(&telemetry.snapshot().events);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Window exactly-once under arbitrary survivable chaos: whatever the
    /// plan, the window-dense toggle policy never leaves a half-applied
    /// plan behind — every opened window resolves as applied or rolled
    /// back exactly once, and a completing job trains every sample.
    #[test]
    fn any_plan_resolves_reconfig_windows_exactly_once(plan in plan_strategy()) {
        let (spec, alloc) = job();
        let cfg = ChaosConfig {
            runner: RunnerConfig {
                adjust_interval: SimDuration::from_secs(30),
                ..RunnerConfig::default()
            },
            ..ChaosConfig::default()
        };
        let telemetry = Telemetry::default();
        let mut policy = TogglePolicy::new(alloc);
        let report = run_chaos_job_with_policy(&spec, &mut policy, &plan, &cfg, &telemetry);
        prop_assert!(
            report.oracle.passed(),
            "oracle violations: {:?}",
            report.oracle.violations()
        );
        if report.jct_us.is_some() {
            prop_assert_eq!(report.truth.samples_done, report.truth.total_samples);
        }
        let events = telemetry.snapshot().events;
        assert_windows_resolve_once(&events);
    }
}
