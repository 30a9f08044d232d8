//! `chaos`: the deterministic chaos harness as an experiment — K scripted
//! fault plans against the same job, every run audited by the oracle.
//!
//! Not a paper figure: this is the reproduction's safety net for §6's
//! fault-tolerance claims (elastic worker recovery, seamless PS
//! flash-restore, OOM prevention per Eqn. 14, dynamic-sharding straggler
//! absorption). Prints per-invariant pass counts and the worst-case
//! recovery latency, writes `results/chaos.json`, and returns the number
//! of invariant violations so CI can gate on zero.

use std::collections::BTreeMap;

use dlrover_optimizer::ResourceAllocation;
use dlrover_perfmodel::JobShape;
use dlrover_pstrain::TrainingJobSpec;
use dlrover_rm::chaos::{run_chaos_job, ChaosConfig, ChaosReport};
use dlrover_rm::runner::RunnerConfig;
use dlrover_sim::{FaultPlan, FaultPlanConfig, RngStreams};
use dlrover_telemetry::Invariant;
use serde::Serialize;

use super::RunArgs;
use crate::parallel::{merge_telemetry, run_units_auto, Unit, UnitOutput};
use crate::Report;

/// Generated plans in the default suite (`exp chaos` / `exp all`), the
/// size of the committed artefact.
const DEFAULT_PLANS: u64 = 20;

/// Per-plan outcome row persisted into `results/chaos.json`.
#[derive(Debug, Serialize)]
struct PlanRow {
    plan: u64,
    events: usize,
    injected: u64,
    jct_us: Option<u64>,
    passed: bool,
    violations: Vec<String>,
}

/// The job every plan is thrown at: the representative 20k-step job under
/// a static 4-worker/2-PS allocation (recovery mechanics, not policy, are
/// under test here).
fn job() -> (TrainingJobSpec, ResourceAllocation) {
    (
        TrainingJobSpec::paper_default(20_000),
        ResourceAllocation::new(JobShape::new(4, 2, 4.0, 4.0, 512), 8.0, 64.0),
    )
}

/// Per-plan chaos units: plan `i` is derived index-based from
/// `cfg.runner.seed` (exactly as `run_chaos_suite` derives it), so each
/// unit is self-contained and the parallel suite is bit-identical to the
/// serial one.
fn chaos_units<'a>(
    spec: &'a TrainingJobSpec,
    alloc: ResourceAllocation,
    plans: u64,
    cfg: &'a ChaosConfig,
) -> Vec<Unit<'a, (FaultPlan, ChaosReport)>> {
    (0..plans)
        .map(|i| {
            Unit::new(format!("{i:02}/plan"), move |t| {
                let streams = RngStreams::new(cfg.runner.seed);
                let plan = FaultPlan::generate(&cfg.plan, &streams, i);
                let report = run_chaos_job(spec, alloc, &plan, cfg, t);
                (plan, report)
            })
        })
        .collect()
}

/// Runs `plans` generated fault plans at `seed`; returns the rendered
/// report and the total invariant-violation count (CI gates on zero).
pub fn run_chaos(seed: u64, plans: u64) -> (String, usize) {
    let (spec, alloc) = job();
    // `ckpt_faults` opts the generated plans into the checkpoint-plane
    // fault kinds (remote outages, bandwidth collapses, manifest
    // corruption, witness partitions), so the durability invariants see
    // adversarial traffic here too.
    let cfg = ChaosConfig {
        runner: RunnerConfig { seed, ..RunnerConfig::default() },
        plan: FaultPlanConfig { ckpt_faults: true, ..FaultPlanConfig::default() },
        ..ChaosConfig::default()
    };
    let outputs = run_units_auto(chaos_units(&spec, alloc, plans, &cfg));
    let suite: Vec<&(FaultPlan, ChaosReport)> =
        outputs.iter().map(|o: &UnitOutput<_>| &o.value).collect();

    let mut pass_counts: BTreeMap<String, u64> = BTreeMap::new();
    for inv in Invariant::ALL {
        pass_counts.insert(inv.name().to_string(), 0);
    }
    let mut total_violations = 0usize;
    let mut worst_recovery_us = 0u64;
    let mut completed = 0u64;
    let mut inflation_sum = 0.0f64;
    let mut rows = Vec::new();
    for (i, (plan, report)) in suite.iter().enumerate() {
        for check in &report.oracle.checks {
            if check.passed {
                *pass_counts.entry(check.invariant.name().to_string()).or_default() += 1;
            }
        }
        total_violations += report.oracle.violation_count();
        worst_recovery_us = worst_recovery_us.max(report.oracle.worst_recovery_us.unwrap_or(0));
        if let Some(jct) = report.jct_us {
            completed += 1;
            inflation_sum += jct as f64 / report.baseline_jct_us.max(1) as f64;
        }
        rows.push(PlanRow {
            plan: i as u64,
            events: plan.len(),
            injected: report.faults_injected,
            jct_us: report.jct_us,
            passed: report.oracle.passed(),
            violations: report.oracle.violations(),
        });
    }
    let mean_inflation = if completed > 0 { inflation_sum / completed as f64 } else { f64::NAN };

    let mut report = Report::new("chaos", "Chaos harness: scripted fault plans vs the oracle");
    report.section(&format!("{plans} plans, seed {seed}"));
    report.row(&["invariant".into(), "passed".into(), "of".into()], &[22, 8, 8]);
    for (name, &passed) in &pass_counts {
        report.row(&[name.clone(), passed.to_string(), plans.to_string()], &[22, 8, 8]);
    }
    report.line(format!(
        "completed {completed}/{plans}; mean JCT inflation {mean_inflation:.2}x; \
         worst recovery {:.1}s; violations {total_violations}",
        worst_recovery_us as f64 / 1e6
    ));
    report.record("seed", &seed);
    report.record("plans", &plans);
    report.record("per_invariant_pass", &pass_counts);
    report.record("total_violations", &total_violations);
    report.record("worst_recovery_us", &worst_recovery_us);
    report.record("completed", &completed);
    report.record("mean_jct_inflation", &mean_inflation);
    report.record("runs", &rows);
    report.telemetry(&merge_telemetry(&outputs));
    (report.finish(), total_violations)
}

/// Registry entry point: the default suite unless the command line sizes
/// it with `--plans`.
pub fn run(args: &RunArgs) -> (String, usize) {
    run_chaos(args.seed, args.plans.unwrap_or(DEFAULT_PLANS))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Headline shape: every generated plan completes with zero invariant
    /// violations and recovery stays under the oracle's deadline.
    #[test]
    fn small_suite_has_zero_violations() {
        let (out, violations) = run_chaos(1, 5);
        assert_eq!(violations, 0, "{out}");
        assert!(out.contains("violations 0"));
    }

    /// The suite (and therefore `results/chaos.json`) is bit-reproducible
    /// per seed.
    #[test]
    fn suite_output_is_deterministic() {
        let (a, va) = run_chaos(3, 3);
        let (b, vb) = run_chaos(3, 3);
        assert_eq!(a, b);
        assert_eq!(va, vb);
    }
}
