//! `reconfig`: execution-plan reconfiguration ablation (the PR-10
//! tentpole). Not a paper figure: DLRover-RM's §4.3 auto-scaler only moves
//! resource amounts; this experiment measures what the Rubick-style widened
//! action space (sync/async gradient mode, PS replication, batch steps,
//! shard relayout — `dlrover_optimizer::ReconfigSpace`) buys on top of it.
//!
//! The scenario pins the resource search space to a PS-squeezed shape —
//! plenty of workers, one starved parameter server — so changing the
//! execution plan is the *only* lever the optimizer has. The same policy
//! then runs with reconfiguration off and on, once fault-free and once per
//! generated chaos plan, every chaos run audited by the invariant oracle
//! (including `ReconfigConsistent`: windows resolve exactly once and never
//! lose samples). `exp reconfig` exits non-zero on any violation.

use dlrover_brain::{DlroverPolicy, DlroverPolicyConfig};
use dlrover_optimizer::{PlanSearchSpace, ReconfigSpace, ResourceAllocation};
use dlrover_perfmodel::JobShape;
use dlrover_pstrain::TrainingJobSpec;
use dlrover_rm::chaos::{run_chaos_job_with_policy, ChaosConfig, ChaosReport};
use dlrover_rm::runner::{run_single_job_with, RunnerConfig};
use dlrover_sim::{FaultPlan, FaultPlanConfig, RngStreams, SimTime};
use dlrover_telemetry::Telemetry;
use serde::Serialize;

use super::common::history_for;
use super::RunArgs;
use crate::parallel::{merge_telemetry, run_units_auto, Unit};
use crate::Report;

/// Chaos plans per mode in the default sweep (`exp reconfig` / `exp all`).
const DEFAULT_PLANS: u64 = 4;

/// The two ablation arms, in unit order.
const MODES: [&str; 2] = ["off", "on"];

/// The contended job: the representative 20k-step job submitted on a
/// PS-squeezed shape (12 well-fed workers, one 1-core parameter server),
/// so asynchronous pushes queue on the PS and the update phase dominates.
fn job() -> (TrainingJobSpec, ResourceAllocation) {
    (
        TrainingJobSpec::paper_default(20_000),
        ResourceAllocation::new(JobShape::new(12, 1, 8.0, 1.0, 512), 8.0, 64.0),
    )
}

/// The search space, pinned to the contended shape: stage-2 resource
/// scaling can propose nothing, isolating the execution plan as the only
/// degree of freedom between the two arms.
fn pinned_space() -> PlanSearchSpace {
    PlanSearchSpace {
        workers: (12, 12),
        ps: (1, 1),
        worker_cpu: (8.0, 8.0),
        ps_cpu: (1.0, 1.0),
        ..PlanSearchSpace::default()
    }
}

/// A fresh policy instance for one run: warm history so the throughput
/// model is fitted from the first adjustment, reconfiguration per arm.
fn policy(seed: u64, reconfig: Option<ReconfigSpace>) -> DlroverPolicy {
    let (spec, user_request) = job();
    DlroverPolicy::new(
        user_request,
        DlroverPolicyConfig {
            constants: spec.constants,
            seed,
            space: pinned_space(),
            reconfig,
            ..Default::default()
        },
    )
    .with_history(history_for(spec.constants))
}

/// Goodput retained under a fault plan (the resilience/tournament scoring,
/// reused verbatim so the tables agree): fraction of samples delivered,
/// discounted by slowdown versus the fault-free baseline.
fn goodput_retained(report: &ChaosReport, deadline: SimTime) -> f64 {
    let total = report.truth.total_samples.max(1) as f64;
    let baseline = report.baseline_jct_us.max(1) as f64;
    let elapsed = report.jct_us.unwrap_or(deadline.as_micros()).max(1) as f64;
    (report.truth.samples_done as f64 / total) * (baseline / elapsed)
}

/// One arm's scored row, persisted into `results/reconfig.json`.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct ModeRow {
    /// `"off"` (resource-only §4.3) or `"on"` (widened action space).
    pub mode: String,
    /// Fault-free job completion time, minutes.
    pub clean_jct_min: f64,
    /// Mean JCT across the chaos plans, minutes (deadline if unfinished).
    pub chaos_jct_min: f64,
    /// Mean goodput retained across the chaos plans (higher is better).
    pub mean_goodput: f64,
    /// Reconfiguration windows committed across all runs of this arm.
    pub reconfigs_committed: u64,
    /// Reconfiguration windows rolled back across all runs of this arm.
    pub reconfigs_rolled_back: u64,
    /// Oracle invariant violations summed over the chaos plans.
    pub violations: usize,
}

/// Runs one arm (clean + `plans` chaos runs) inside its unit sink.
fn run_mode(mode: &str, plans: u64, cfg: &ChaosConfig, sink: &Telemetry) -> ModeRow {
    let (spec, _) = job();
    let reconfig = (mode == "on").then(ReconfigSpace::default);
    let seed = cfg.runner.seed;

    let clean = run_single_job_with(&mut policy(seed, reconfig), spec.clone(), &cfg.runner, sink);
    let deadline = cfg.runner.deadline;
    let chaos: Vec<ChaosReport> = (0..plans)
        .map(|i| {
            // Private sink per chaos run: the oracle audits one run's
            // trace, then the unit sink absorbs it (tournament idiom).
            let streams = RngStreams::new(seed);
            let plan = FaultPlan::generate(&cfg.plan, &streams, i);
            let child = Telemetry::default();
            let mut p = policy(seed, reconfig);
            let report = run_chaos_job_with_policy(&spec, &mut p, &plan, cfg, &child);
            sink.absorb(&child);
            report
        })
        .collect();

    let n = chaos.len().max(1) as f64;
    ModeRow {
        mode: mode.to_string(),
        clean_jct_min: clean.jct.map_or(deadline.as_secs_f64(), |d| d.as_secs_f64()) / 60.0,
        chaos_jct_min: chaos
            .iter()
            .map(|r| r.jct_us.unwrap_or(deadline.as_micros()) as f64 / 60e6)
            .sum::<f64>()
            / n,
        mean_goodput: chaos.iter().map(|r| goodput_retained(r, deadline)).sum::<f64>() / n,
        reconfigs_committed: sink.counter("master.reconfigs_committed"),
        reconfigs_rolled_back: sink.counter("master.reconfigs_rolled_back"),
        violations: chaos.iter().map(|r| r.oracle.violation_count()).sum(),
    }
}

/// Runs the ablation: both arms over one clean run plus `plans` chaos
/// plans, prints the two-row table, and returns the rendered report plus
/// the total invariant-violation count (the CLI gates on zero).
pub fn run_reconfig(seed: u64, plans: u64) -> (String, usize) {
    let cfg = ChaosConfig {
        runner: RunnerConfig { seed, ..RunnerConfig::default() },
        plan: FaultPlanConfig::default(),
        ..ChaosConfig::default()
    };

    let units: Vec<Unit<'_, ModeRow>> = MODES
        .iter()
        .enumerate()
        .map(|(mi, mode)| {
            let cfg = &cfg;
            Unit::new(format!("{mi}/{mode}"), move |t| run_mode(mode, plans, cfg, t))
        })
        .collect();
    let outputs = run_units_auto(units);
    let merged = merge_telemetry(&outputs);
    let rows: Vec<ModeRow> = outputs.into_iter().map(|o| o.value).collect();
    let total_violations: usize = rows.iter().map(|r| r.violations).sum();
    // The headline the shape test and EXPERIMENTS.md gate on: the widened
    // action space strictly beats resource-only scaling on fault-free JCT
    // or on goodput retained under chaos.
    let dominates = rows[1].clean_jct_min < rows[0].clean_jct_min - 1e-9
        || rows[1].mean_goodput > rows[0].mean_goodput + 1e-9;

    let mut report =
        Report::new("reconfig", "Execution-plan reconfiguration ablation under PS contention");
    report.section(&format!(
        "PS-squeezed job, {plans} chaos plans + 1 clean run per arm, seed {seed}"
    ));
    report.row(
        &[
            "reconfig".into(),
            "clean JCT (min)".into(),
            "chaos JCT (min)".into(),
            "goodput".into(),
            "committed".into(),
            "rolled back".into(),
        ],
        &[9, 16, 16, 9, 10, 12],
    );
    for r in &rows {
        report.row(
            &[
                r.mode.clone(),
                format!("{:.1}", r.clean_jct_min),
                format!("{:.1}", r.chaos_jct_min),
                format!("{:.3}", r.mean_goodput),
                r.reconfigs_committed.to_string(),
                r.reconfigs_rolled_back.to_string(),
            ],
            &[9, 16, 16, 9, 10, 12],
        );
    }
    report.line(format!(
        "reconfig-on {} reconfig-off; violations {total_violations}",
        if dominates { "dominates" } else { "does NOT dominate" }
    ));
    report.record("seed", &seed);
    report.record("plans", &plans);
    report.record("dominates", &dominates);
    report.record("total_violations", &total_violations);
    report.record("rows", &rows);
    report.telemetry(&merged);
    (report.finish(), total_violations)
}

/// Registry entry point: the default sweep unless the command line sizes
/// it with `--plans`.
pub fn run(args: &RunArgs) -> (String, usize) {
    run_reconfig(args.seed, args.plans.unwrap_or(DEFAULT_PLANS))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> &'static [serde_json::Value] {
        crate::fixture::canonical("reconfig").json["rows"]
            .as_array()
            .expect("reconfig.json has a rows array")
    }

    fn row<'a>(rows: &'a [serde_json::Value], mode: &str) -> &'a serde_json::Value {
        rows.iter().find(|r| r["mode"] == mode).unwrap_or_else(|| panic!("no row for {mode}"))
    }

    /// Headline shape (the ISSUE's acceptance gate): at the canonical
    /// seed, reconfig-on strictly dominates reconfig-off on fault-free JCT
    /// or goodput under chaos, actually commits windows, and nobody
    /// violates the oracle.
    #[test]
    fn reconfig_on_dominates_under_ps_contention() {
        let rows = rows();
        assert_eq!(rows.len(), 2);
        let fixture = crate::fixture::canonical("reconfig");
        assert_eq!(fixture.json["dominates"], serde_json::Value::Bool(true));
        assert_eq!(fixture.json["total_violations"].as_u64(), Some(0));

        let (off, on) = (row(rows, "off"), row(rows, "on"));
        let off_jct = off["clean_jct_min"].as_f64().unwrap();
        let on_jct = on["clean_jct_min"].as_f64().unwrap();
        let off_gp = off["mean_goodput"].as_f64().unwrap();
        let on_gp = on["mean_goodput"].as_f64().unwrap();
        assert!(
            on_jct < off_jct - 1e-9 || on_gp > off_gp + 1e-9,
            "reconfig-on does not dominate: JCT {on_jct:.2} vs {off_jct:.2} min, \
             goodput {on_gp:.3} vs {off_gp:.3}"
        );
    }

    /// The off arm is the resource-only policy: with the space pinned it
    /// never opens a window; the on arm must commit at least one.
    #[test]
    fn only_the_on_arm_reconfigures() {
        let rows = rows();
        assert_eq!(row(rows, "off")["reconfigs_committed"].as_u64(), Some(0));
        assert_eq!(row(rows, "off")["reconfigs_rolled_back"].as_u64(), Some(0));
        assert!(row(rows, "on")["reconfigs_committed"].as_u64().unwrap() >= 1);
    }

    /// The whole ablation (rows, artefacts, rendered table) is
    /// bit-reproducible per seed.
    #[test]
    fn reconfig_ablation_is_deterministic() {
        let (a, va) = run_reconfig(7, 2);
        let (b, vb) = run_reconfig(7, 2);
        assert_eq!(a, b);
        assert_eq!(va, vb);
    }
}
