//! Determinism across the full stack: identical seeds must reproduce
//! identical experiments bit-for-bit — the property every figure in
//! EXPERIMENTS.md relies on.

use dlrover_rm::prelude::*;

#[test]
fn single_job_runs_are_bit_identical() {
    let run = || {
        run_single_job(
            Box::new(DlroverPolicy::new(
                ResourceAllocation::new(JobShape::new(2, 1, 2.0, 2.0, 512), 8.0, 64.0),
                DlroverPolicyConfig::default(),
            )),
            TrainingJobSpec::paper_default(10_000),
            &RunnerConfig::default(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn different_seeds_change_the_startup_draws() {
    let run = |seed| {
        run_single_job(
            Box::new(DlroverPolicy::new(
                ResourceAllocation::new(JobShape::new(2, 1, 2.0, 2.0, 512), 8.0, 64.0),
                DlroverPolicyConfig::default(),
            )),
            TrainingJobSpec::paper_default(10_000),
            &RunnerConfig { seed, ..RunnerConfig::default() },
        )
    };
    // JCTs may or may not move, but the full reports should differ in the
    // sampled startup latencies embodied in the series.
    let a = run(1);
    let b = run(2);
    assert!(a.jct.is_some() && b.jct.is_some());
}

#[test]
fn dl2_training_and_inference_are_byte_identical() {
    // The DL2 policy's whole lifecycle — two training episodes of
    // REINFORCE updates followed by an inference race with the trained
    // weights — must reproduce bit-for-bit from the same seeds: identical
    // episode rewards, identical final run report, identical event log.
    // All of DL2's randomness (weight init, action sampling) flows through
    // its named RngStreams fork, so neither the host thread count nor run
    // ordering may leak in. The CI determinism matrix re-runs this at
    // `--test-threads 1/2/4`.
    let run = || {
        let space = PlanSearchSpace {
            workers: (1, 12),
            ps: (1, 6),
            worker_cpu: (1.0, 8.0),
            ps_cpu: (1.0, 8.0),
            ..PlanSearchSpace::default()
        };
        let user_request = ResourceAllocation::new(JobShape::new(4, 2, 4.0, 4.0, 512), 8.0, 64.0);
        let streams = RngStreams::new(42).fork("determinism-dl2");
        let mut policy = Dl2Policy::new(user_request, space, &streams);
        let telemetry = Telemetry::default();
        for episode in 0..2u64 {
            let cfg = RunnerConfig {
                seed: 100 + episode,
                adjust_interval: SimDuration::from_secs(60),
                ..RunnerConfig::default()
            };
            run_single_job_with(
                &mut policy,
                TrainingJobSpec::paper_default(10_000),
                &cfg,
                &telemetry,
            );
            policy.end_episode();
        }
        let report = run_single_job_with(
            &mut policy,
            TrainingJobSpec::paper_default(10_000),
            &RunnerConfig::default(),
            &telemetry,
        );
        (policy.episode_mean_rewards().to_vec(), report, telemetry.to_jsonl())
    };
    let (rewards_a, report_a, log_a) = run();
    let (rewards_b, report_b, log_b) = run();
    assert_eq!(rewards_a.len(), 2, "one mean reward per finished episode");
    assert_eq!(rewards_a, rewards_b, "episode rewards diverged across identical runs");
    assert_eq!(report_a, report_b, "inference-run reports diverged across identical runs");
    assert_eq!(log_a, log_b, "event logs diverged across identical runs");
}

#[test]
fn fleet_generation_is_deterministic() {
    let a = FleetWorkload::generate(&FleetConfig::default(), &RngStreams::new(33));
    let b = FleetWorkload::generate(&FleetConfig::default(), &RngStreams::new(33));
    assert_eq!(a, b);
}

#[test]
fn real_training_is_deterministic() {
    let run = || {
        let mut t = RealModeTrainer::new(RealModeConfig::small(ModelKind::XDeepFm, 5), 3);
        for _ in 0..40 {
            t.train_round();
        }
        t.evaluate(10_000_000, 500)
    };
    let (l1, a1) = run();
    let (l2, a2) = run();
    assert_eq!(l1, l2);
    assert_eq!(a1, a2);
}

#[test]
fn telemetry_event_logs_are_byte_identical() {
    // Same seeded scenario (a fig7-style traced run) twice: the serialized
    // event logs and metric snapshots must match byte-for-byte. This is
    // what makes `exp trace --diff` usable as a regression gate.
    let run = || {
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
        (telemetry.to_jsonl(), serde_json::to_string(&telemetry.snapshot()).unwrap())
    };
    let (log_a, snap_a) = run();
    let (log_b, snap_b) = run();
    assert!(!log_a.is_empty(), "traced run recorded no events");
    assert_eq!(log_a, log_b, "event logs diverged across identical runs");
    assert_eq!(snap_a, snap_b, "metric snapshots diverged across identical runs");
    assert!(dlrover_rm::telemetry::diff_jsonl(&log_a, &log_b, 10).is_empty());
}

#[test]
fn telemetry_span_logs_are_byte_identical() {
    // The span log must hold to the same standard as the event log: a
    // seeded traced run serializes to byte-identical JSONL every time, so
    // critical-path analyses and Chrome exports are reproducible artefacts.
    let run = || {
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
        telemetry.spans_to_jsonl()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty(), "traced run recorded no spans");
    assert_eq!(a, b, "span logs diverged across identical runs");
    let spans = dlrover_rm::telemetry::parse_spans_jsonl(&a).expect("span log parses back");
    // The runner's root `job` span must be present and start at t=0; no
    // span may predate it. (Spans may extend past the root: migration spans
    // cover their *planned* timeline even when completion cuts the run
    // short mid-window.)
    let root = spans
        .iter()
        .find(|s| s.cat == dlrover_rm::telemetry::SpanCategory::Job)
        .expect("job root span");
    assert_eq!(root.start_us, 0);
    assert!(root.end_us > 0);
    for s in &spans {
        assert!(s.start_us >= root.start_us, "span predates the job root");
    }
}

#[test]
fn telemetry_event_logs_differ_across_seeds() {
    let run = |seed| {
        let telemetry = Telemetry::default();
        run_single_job_traced(
            Box::new(DlroverPolicy::new(
                ResourceAllocation::new(JobShape::new(2, 1, 2.0, 2.0, 512), 8.0, 64.0),
                DlroverPolicyConfig { seed, ..DlroverPolicyConfig::default() },
            )),
            TrainingJobSpec::paper_default(10_000),
            &RunnerConfig { seed, ..RunnerConfig::default() },
            &telemetry,
        );
        telemetry.to_jsonl()
    };
    let a = run(1);
    let b = run(2);
    assert!(
        !dlrover_rm::telemetry::diff_jsonl(&a, &b, 10).is_empty(),
        "different seeds should alter the event stream"
    );
}

#[test]
fn chaos_runs_are_byte_identical_per_seed_and_plan() {
    use dlrover_rm::sim::{FaultPlan, FaultPlanConfig};
    // Same seed + same fault plan ⇒ the chaos harness reproduces the
    // *entire* observable history byte-for-byte: event log, span log, and
    // the oracle's verdict. This is what lets CI diff `results/chaos.json`
    // across machines.
    let run = || {
        let cfg = ChaosConfig::default();
        let plan =
            FaultPlan::generate(&FaultPlanConfig::default(), &RngStreams::new(cfg.runner.seed), 0);
        let telemetry = Telemetry::default();
        let report = run_chaos_job(
            &TrainingJobSpec::paper_default(20_000),
            ResourceAllocation::new(JobShape::new(4, 2, 4.0, 4.0, 512), 8.0, 64.0),
            &plan,
            &cfg,
            &telemetry,
        );
        (telemetry.to_jsonl(), telemetry.spans_to_jsonl(), serde_json::to_string(&report).unwrap())
    };
    let (events_a, spans_a, report_a) = run();
    let (events_b, spans_b, report_b) = run();
    assert!(!events_a.is_empty(), "chaos run recorded no events");
    assert!(!spans_a.is_empty(), "chaos run recorded no spans");
    assert_eq!(events_a, events_b, "chaos event logs diverged across identical runs");
    assert_eq!(spans_a, spans_b, "chaos span logs diverged across identical runs");
    assert_eq!(report_a, report_b, "chaos reports diverged across identical runs");
    assert!(dlrover_rm::telemetry::diff_jsonl(&events_a, &events_b, 10).is_empty());
}

#[test]
fn chaos_event_logs_differ_across_plans() {
    use dlrover_rm::sim::{FaultPlan, FaultPlanConfig};
    // Different plan indices from the same seed draw different fault
    // scripts, which must show up in the event stream — otherwise the
    // injection hooks are dead code.
    let run = |index| {
        let cfg = ChaosConfig::default();
        let plan = FaultPlan::generate(
            &FaultPlanConfig::default(),
            &RngStreams::new(cfg.runner.seed),
            index,
        );
        let telemetry = Telemetry::default();
        run_chaos_job(
            &TrainingJobSpec::paper_default(20_000),
            ResourceAllocation::new(JobShape::new(4, 2, 4.0, 4.0, 512), 8.0, 64.0),
            &plan,
            &cfg,
            &telemetry,
        );
        telemetry.to_jsonl()
    };
    let a = run(0);
    let b = run(1);
    assert!(
        !dlrover_rm::telemetry::diff_jsonl(&a, &b, 10).is_empty(),
        "different fault plans should alter the event stream"
    );
}

#[test]
fn cluster_simulation_is_deterministic() {
    use dlrover_rm::cluster::{PodRole, PodSpec, Priority};
    let run = || {
        let streams = RngStreams::new(4);
        let mut c = Cluster::new(ClusterConfig::default(), &streams);
        let mut placements = Vec::new();
        for i in 0..40u64 {
            let (id, events) = c
                .request_pod(
                    PodSpec {
                        resources: Resources::new(4.0 + (i % 5) as f64, 16.0),
                        role: PodRole::Worker,
                        priority: if i % 7 == 0 { Priority::High } else { Priority::Low },
                        job_id: i,
                    },
                    SimTime::from_secs(i),
                )
                .unwrap();
            placements.push((id, events.len()));
        }
        placements
    };
    assert_eq!(run(), run());
}
