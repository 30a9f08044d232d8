//! `resilience`: recovery latency and goodput retained per fault kind,
//! plus degraded-mode vs naive fail-stop.
//!
//! Not a paper figure: this quantifies the self-healing control plane
//! behind §6's fault-tolerance claims. One scripted scenario per fault
//! kind (worker kill, PS kill, node loss, preemption burst, denial storm,
//! master crash) is run through the chaos harness; each row reports the
//! worst oracle-measured recovery latency, JCT inflation, and the
//! fraction of fault-free goodput the job retained. A final section pits
//! degraded-mode fallback (budget drained → continue on the surviving
//! shape) against a naive fail-stop policy (budget drained → job dies),
//! which is the comparison CI gates on: degradation must retain strictly
//! more goodput.

use dlrover_master::{FailureBudget, JobHealth, MasterConfig};
use dlrover_optimizer::ResourceAllocation;
use dlrover_perfmodel::JobShape;
use dlrover_pstrain::TrainingJobSpec;
use dlrover_rm::chaos::{run_chaos_job, ChaosConfig, ChaosReport};
use dlrover_rm::runner::RunnerConfig;
use dlrover_sim::{FaultEvent, FaultKind, FaultPlan, SimDuration, SimTime};
use dlrover_telemetry::Telemetry;
use serde::Serialize;

use crate::parallel::{merge_telemetry, run_units_auto, Unit};
use crate::Report;

/// One scenario's outcome, persisted into `results/resilience.json`.
#[derive(Debug, Serialize)]
struct ScenarioRow {
    scenario: String,
    faults_injected: u64,
    health: String,
    master_restarts: u64,
    completed: bool,
    recovery_s: Option<f64>,
    jct_inflation: Option<f64>,
    goodput_retained: f64,
    oracle_passed: bool,
    violations: Vec<String>,
}

/// Same representative job as the chaos suite: 20k steps under a static
/// 4-worker/2-PS allocation, so rows isolate the control plane's
/// reaction, not the optimizer's policy.
fn job() -> (TrainingJobSpec, ResourceAllocation) {
    (
        TrainingJobSpec::paper_default(20_000),
        ResourceAllocation::new(JobShape::new(4, 2, 4.0, 4.0, 512), 8.0, 64.0),
    )
}

/// Goodput retained relative to the fault-free run: useful samples per
/// unit virtual time, normalised by the baseline's `total / baseline_jct`.
/// A completed run scores `baseline_jct / jct`; a run that died scores its
/// sample fraction amortised over the runner deadline (the job will never
/// finish, so the slot is held to the horizon).
fn goodput_retained(report: &ChaosReport, deadline: SimTime) -> f64 {
    let total = report.truth.total_samples.max(1) as f64;
    let baseline = report.baseline_jct_us.max(1) as f64;
    let elapsed = report.jct_us.unwrap_or(deadline.as_micros()).max(1) as f64;
    (report.truth.samples_done as f64 / total) * (baseline / elapsed)
}

fn run_scenario(
    name: &str,
    plan: FaultPlan,
    cfg: &ChaosConfig,
    telemetry: &Telemetry,
) -> (ScenarioRow, ChaosReport) {
    let (spec, alloc) = job();
    let report = run_chaos_job(&spec, alloc, &plan, cfg, telemetry);
    let health = match report.health {
        JobHealth::Healthy => "healthy",
        JobHealth::Degraded => "degraded",
        JobHealth::Failed => "failed",
    };
    let row = ScenarioRow {
        scenario: name.to_string(),
        faults_injected: report.faults_injected,
        health: health.to_string(),
        master_restarts: report.master_restarts,
        completed: report.jct_us.is_some(),
        recovery_s: report.oracle.worst_recovery_us.map(|us| us as f64 / 1e6),
        jct_inflation: report.jct_us.map(|jct| jct as f64 / report.baseline_jct_us.max(1) as f64),
        goodput_retained: goodput_retained(&report, cfg.runner.deadline),
        oracle_passed: report.oracle.passed(),
        violations: report.oracle.violations(),
    };
    (row, report)
}

/// The per-kind scenarios: one representative scripted plan each, all
/// injected after a 5-minute warmup so the shard watermark is non-zero.
fn scenarios() -> Vec<(&'static str, FaultPlan)> {
    let t = SimTime::from_secs(300);
    vec![
        (
            "worker-kill",
            FaultPlan::from_events(vec![FaultEvent {
                at: t,
                kind: FaultKind::WorkerKill { worker: 1 },
            }]),
        ),
        (
            "ps-kill",
            FaultPlan::from_events(vec![FaultEvent { at: t, kind: FaultKind::PsKill { ps: 0 } }]),
        ),
        (
            "node-loss",
            FaultPlan::from_events(vec![FaultEvent {
                at: t,
                kind: FaultKind::NodeLoss { node: 0 },
            }]),
        ),
        (
            "preemption-burst",
            FaultPlan::from_events(vec![FaultEvent {
                at: t,
                kind: FaultKind::PreemptionBurst { pods: 4 },
            }]),
        ),
        (
            "denial-storm",
            FaultPlan::from_events(vec![
                FaultEvent {
                    at: t,
                    kind: FaultKind::DenialStorm { pods: 16, window: SimDuration::from_mins(4) },
                },
                // A kill inside the storm: the replacement must wait the
                // freeze out behind backoff before it can place.
                FaultEvent {
                    at: SimTime::from_secs(330),
                    kind: FaultKind::WorkerKill { worker: 2 },
                },
            ]),
        ),
        (
            "master-crash",
            FaultPlan::from_events(vec![FaultEvent {
                at: SimTime::from_secs(360),
                kind: FaultKind::MasterCrash { restart: SimDuration::from_secs(60) },
            }]),
        ),
    ]
}

/// Runs the per-kind scenarios plus the degraded-vs-fail-stop pair at
/// `seed`; returns the rendered report and (degraded, fail-stop) goodput.
///
/// Execution: one unit per scenario (six fault kinds plus the two
/// drained-budget cases) — every scenario already self-seeds from
/// `cfg.runner.seed` inside `run_chaos_job`, so units are independent.
pub(crate) fn run_resilience(seed: u64) -> (String, f64, f64) {
    let cfg = ChaosConfig {
        runner: RunnerConfig { seed, ..RunnerConfig::default() },
        ..ChaosConfig::default()
    };
    // Degraded-mode vs naive fail-stop, both facing an unrecoverable pod
    // loss at t=5min with a drained failure budget. Degraded mode loses a
    // worker and continues on the surviving shape (workers are elastic,
    // §6.1); fail-stop loses a PS partition it is not allowed to relaunch,
    // so the job dies where a pre-elasticity trainer would (§2.3).
    let drained = ChaosConfig {
        runner: RunnerConfig {
            seed,
            master: MasterConfig {
                failure_budget: FailureBudget { worker_relaunches: 0, ps_relaunches: 0 },
                ..RunnerConfig::default().master
            },
            ..RunnerConfig::default()
        },
        ..ChaosConfig::default()
    };

    let cfg_ref = &cfg;
    let drained_ref = &drained;
    let mut units: Vec<Unit<'_, ScenarioRow>> = scenarios()
        .into_iter()
        .enumerate()
        .map(|(i, (name, plan))| {
            Unit::new(format!("{i}/{name}"), move |t: &Telemetry| {
                run_scenario(name, plan, cfg_ref, t).0
            })
        })
        .collect();
    units.push(Unit::new("6/degraded-mode".to_string(), move |t: &Telemetry| {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::from_secs(300),
            kind: FaultKind::WorkerKill { worker: 1 },
        }]);
        run_scenario("degraded-mode", plan, drained_ref, t).0
    }));
    units.push(Unit::new("7/fail-stop".to_string(), move |t: &Telemetry| {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::from_secs(300),
            kind: FaultKind::PsKill { ps: 0 },
        }]);
        run_scenario("fail-stop", plan, drained_ref, t).0
    }));
    let mut outputs = run_units_auto(units);
    let telemetry = merge_telemetry(&outputs);
    let failstop_row = outputs.pop().expect("eight units").value;
    let degraded_row = outputs.pop().expect("eight units").value;
    let rows: Vec<ScenarioRow> = outputs.into_iter().map(|o| o.value).collect();
    let degraded_goodput = degraded_row.goodput_retained;
    let failstop_goodput = failstop_row.goodput_retained;

    let mut report =
        Report::new("resilience", "Self-healing control plane: recovery per fault kind");
    report.section(&format!("per-fault-kind scenarios, seed {seed}"));
    report.row(
        &[
            "scenario".into(),
            "health".into(),
            "recovery(s)".into(),
            "jct_infl".into(),
            "goodput".into(),
            "oracle".into(),
        ],
        &[16, 9, 11, 9, 8, 7],
    );
    let fmt_opt = |v: Option<f64>| v.map(|x| format!("{x:.2}")).unwrap_or_else(|| "-".into());
    for row in &rows {
        report.row(
            &[
                row.scenario.clone(),
                row.health.clone(),
                fmt_opt(row.recovery_s),
                fmt_opt(row.jct_inflation),
                format!("{:.2}", row.goodput_retained),
                if row.oracle_passed { "pass".into() } else { "FAIL".into() },
            ],
            &[16, 9, 11, 9, 8, 7],
        );
    }
    report.section("degraded mode vs naive fail-stop (failure budget drained)");
    report.line(format!(
        "degraded-mode goodput retained {degraded_goodput:.2} \
         ({}, completed: {})",
        degraded_row.health, degraded_row.completed
    ));
    report.line(format!(
        "fail-stop goodput retained     {failstop_goodput:.2} \
         ({}, completed: {})",
        failstop_row.health, failstop_row.completed
    ));
    report.line(format!(
        "degradation keeps {:.1}x the goodput of killing the job",
        degraded_goodput / failstop_goodput.max(1e-9)
    ));

    report.record("seed", &seed);
    report.record("scenarios", &rows);
    report.record("degraded_mode", &degraded_row);
    report.record("fail_stop", &failstop_row);
    report.record("degraded_goodput_retained", &degraded_goodput);
    report.record("fail_stop_goodput_retained", &failstop_goodput);
    report.telemetry(&telemetry);
    (report.finish(), degraded_goodput, failstop_goodput)
}

/// `EXPERIMENTS`-table entry (used by `exp all`).
pub(crate) fn run(seed: u64) -> String {
    run_resilience(seed).0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Headline shape: degraded-mode fallback retains strictly more
    /// goodput than naive fail-stop, and every recoverable scenario
    /// passes the oracle.
    #[test]
    fn degraded_mode_beats_fail_stop() {
        let (out, degraded, failstop) = run_resilience(42);
        assert!(
            degraded > failstop,
            "degraded-mode goodput {degraded:.3} must beat fail-stop {failstop:.3}\n{out}"
        );
        // Degradation keeps the job alive at a useful fraction of
        // fault-free goodput; fail-stop strands the slot until the
        // deadline.
        assert!(degraded > 0.5, "degraded-mode goodput {degraded:.3} too low\n{out}");
        assert!(failstop < 0.5, "fail-stop goodput {failstop:.3} implausibly high\n{out}");
        assert!(!out.contains("FAIL"), "a scenario violated the oracle:\n{out}");
    }

    /// The report (and therefore `results/resilience.json`) is
    /// bit-reproducible per seed.
    #[test]
    fn report_is_deterministic() {
        let (a, da, fa) = run_resilience(7);
        let (b, db, fb) = run_resilience(7);
        assert_eq!(a, b);
        assert_eq!((da, fa), (db, fb));
    }
}
