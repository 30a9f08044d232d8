//! `tournament`: round-robin of every scheduler in the reproduction —
//! DLRover-RM (§5), Optimus, ES, well-tuned, and the two learned baselines
//! (DL2 policy gradient, tabular DRL) — over a shared gauntlet of one
//! clean run plus K seeded chaos plans, every chaos run audited by the
//! oracle.
//!
//! Not a paper figure: the paper's §6.2 compares DLRover-RM against these
//! contenders pairwise; the tournament folds them into one rank-sum table
//! over four metrics (clean JCT, goodput retained under faults, worst
//! recovery latency, resource waste). Learned contenders are first trained
//! over an [`EpisodeSchedule`] of clean rollouts — per-episode RNG
//! lineages keep the whole run bit-reproducible at any thread count —
//! then race the *same trained instance* through the gauntlet.

use dlrover_baselines::{
    well_tuned_search, Dl2Policy, DrlPolicy, EsPolicy, LearnedPolicy, OptimusPolicy,
    WellTunedPolicy,
};
use dlrover_brain::{DlroverPolicy, DlroverPolicyConfig};
use dlrover_master::SchedulerPolicy;
use dlrover_optimizer::{PlanSearchSpace, PriceTable, ResourceAllocation};
use dlrover_perfmodel::JobShape;
use dlrover_pstrain::TrainingJobSpec;
use dlrover_rm::chaos::{run_chaos_job_with_policy, ChaosConfig, ChaosReport};
use dlrover_rm::runner::{run_single_job_with, RunReport, RunnerConfig};
use dlrover_sim::{EpisodeSchedule, FaultPlan, FaultPlanConfig, RngStreams, SimDuration, SimTime};
use dlrover_telemetry::Telemetry;
use rand::RngCore;
use serde::Serialize;

use super::common::{history_for, truth_for};
use super::RunArgs;
use crate::parallel::{merge_telemetry, run_units_auto, Unit};
use crate::Report;

/// Chaos plans in the default gauntlet (`exp tournament` / `exp all`).
const DEFAULT_PLANS: u64 = 4;
/// Training episodes for the learned contenders in the default gauntlet.
const DEFAULT_EPISODES: u32 = 8;
/// CPU budget for the well-tuned offline search (fits the [`space`]).
const BUDGET_CORES: f64 = 96.0;

/// Roster, in unit order. Index is embedded in the unit key so merged
/// telemetry order is stable.
const ROSTER: [&str; 6] = ["dlrover", "optimus", "es", "well-tuned", "dl2", "drl"];

/// The shared search space: modest bounds so tabular DRL's discretised
/// state grid stays meaningful and every contender shops the same shelf.
fn space() -> PlanSearchSpace {
    PlanSearchSpace {
        workers: (1, 12),
        ps: (1, 6),
        worker_cpu: (1.0, 8.0),
        ps_cpu: (1.0, 8.0),
        ..PlanSearchSpace::default()
    }
}

/// The job every contender races: the chaos harness's representative
/// 20k-step job, submitted at a plausible-but-suboptimal user request.
fn job() -> (TrainingJobSpec, ResourceAllocation) {
    (
        TrainingJobSpec::paper_default(20_000),
        ResourceAllocation::new(JobShape::new(4, 2, 4.0, 4.0, 512), 8.0, 64.0),
    )
}

/// Goodput retained under a fault plan: fraction of samples delivered,
/// discounted by slowdown versus the fault-free baseline (the resilience
/// experiment's scoring, reused verbatim so the two tables agree).
fn goodput_retained(report: &ChaosReport, deadline: SimTime) -> f64 {
    let total = report.truth.total_samples.max(1) as f64;
    let baseline = report.baseline_jct_us.max(1) as f64;
    let elapsed = report.jct_us.unwrap_or(deadline.as_micros()).max(1) as f64;
    (report.truth.samples_done as f64 / total) * (baseline / elapsed)
}

/// One contender's raw gauntlet outcome, before scoring.
struct RawOutcome {
    clean: RunReport,
    chaos: Vec<ChaosReport>,
    /// Per-episode mean normalised reward (empty for heuristics).
    rewards: Vec<f64>,
}

/// One contender's scored row, persisted into `results/tournament.json`.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct PolicyRow {
    /// Roster name.
    pub policy: String,
    /// Fault-free job completion time, minutes (deadline if unfinished).
    pub clean_jct_min: f64,
    /// Mean goodput retained across the chaos plans (higher is better).
    pub mean_goodput: f64,
    /// Worst oracle-audited recovery latency across plans, seconds.
    pub worst_recovery_s: f64,
    /// Mean CPU core-hours spent per million samples delivered.
    pub waste_core_h_per_msample: f64,
    /// Oracle invariant violations summed over the chaos plans.
    pub violations: usize,
    /// Rank sum over the four metrics (lower is better; 4 = swept).
    pub rank_sum: usize,
    /// Per-episode mean normalised reward (learned contenders only).
    pub episode_rewards: Vec<f64>,
}

/// Shared gauntlet: the scenarios one contender runs, in order. Chaos runs
/// get a private sink (the oracle audits one run's trace, not the unit's
/// accumulated history) absorbed into the unit sink afterwards.
struct Gauntlet<'a> {
    spec: &'a TrainingJobSpec,
    cfg: &'a ChaosConfig,
    plans: u64,
    sink: &'a Telemetry,
}

impl Gauntlet<'_> {
    fn clean(&self, policy: &mut dyn SchedulerPolicy) -> RunReport {
        run_single_job_with(policy, self.spec.clone(), &self.cfg.runner, self.sink)
    }

    fn chaos(&self, policy: &mut dyn SchedulerPolicy, index: u64) -> ChaosReport {
        let streams = RngStreams::new(self.cfg.runner.seed);
        let plan = FaultPlan::generate(&self.cfg.plan, &streams, index);
        let child = Telemetry::default();
        let report = run_chaos_job_with_policy(self.spec, policy, &plan, self.cfg, &child);
        self.sink.absorb(&child);
        report
    }

    /// Heuristic contenders get a fresh instance per scenario (exactly how
    /// fig7/fig10 race them); any state they build up is per-run.
    fn race_fresh(&self, build: &dyn Fn() -> Box<dyn SchedulerPolicy>) -> RawOutcome {
        let clean = self.clean(build().as_mut());
        let chaos = (0..self.plans).map(|i| self.chaos(build().as_mut(), i)).collect();
        RawOutcome { clean, chaos, rewards: Vec::new() }
    }

    /// Learned contenders train over `episodes` clean rollouts — one
    /// [`EpisodeSchedule`] lineage per episode — then the *same trained
    /// instance* races the gauntlet (online updates stay enabled; DL2 §4.3
    /// and Ye et al. both train continuously in production).
    fn race_learned<P: LearnedPolicy>(&self, mut policy: P, episodes: u32) -> RawOutcome {
        let schedule = EpisodeSchedule::new(
            &RngStreams::new(self.cfg.runner.seed),
            "tournament-train",
            episodes,
        );
        for episode in &schedule {
            let seed = episode.streams.stream("runner-seed").next_u64();
            // Training runs on a denser decision cadence than the races:
            // one decision per minute gives the policy ~3x the experience
            // per episode without changing the raced configuration.
            let cfg = RunnerConfig {
                seed,
                adjust_interval: SimDuration::from_secs(60),
                ..self.cfg.runner.clone()
            };
            run_single_job_with(&mut policy, self.spec.clone(), &cfg, self.sink);
            policy.end_episode();
        }
        let clean = self.clean(&mut policy);
        let chaos = (0..self.plans).map(|i| self.chaos(&mut policy, i)).collect();
        let rewards = policy.episode_mean_rewards().to_vec();
        RawOutcome { clean, chaos, rewards }
    }
}

/// Builds roster entry `pi` and runs it through the gauntlet.
fn run_contender(pi: usize, g: &Gauntlet<'_>, episodes: u32) -> RawOutcome {
    let (spec, user_request) = job();
    let space = space();
    let seed = g.cfg.runner.seed;
    let truth = truth_for(spec.constants);
    match ROSTER[pi] {
        "dlrover" => {
            // Warm-started from the config DB with historical profiles
            // (Fig. 9 fidelity), as in fig7's construction.
            let best = well_tuned_search(&truth, &space, 512, BUDGET_CORES, &PriceTable::default());
            let warm = ResourceAllocation::new(
                JobShape::new(
                    ((f64::from(best.shape.workers) * 0.92).round() as u32).max(1),
                    ((f64::from(best.shape.ps) * 0.85).round() as u32).max(1),
                    best.shape.worker_cpu,
                    best.shape.ps_cpu,
                    512,
                ),
                best.worker_mem_gb,
                best.ps_mem_gb,
            );
            g.race_fresh(&|| {
                Box::new(
                    DlroverPolicy::new(
                        warm,
                        DlroverPolicyConfig {
                            constants: spec.constants,
                            seed,
                            space,
                            ..Default::default()
                        },
                    )
                    .with_history(history_for(spec.constants)),
                )
            })
        }
        "optimus" => {
            g.race_fresh(&|| Box::new(OptimusPolicy::new(user_request, space, spec.constants)))
        }
        "es" => g.race_fresh(&|| Box::new(EsPolicy::new(user_request, space, 2))),
        "well-tuned" => {
            g.race_fresh(&|| Box::new(WellTunedPolicy::new(&truth, &space, 512, BUDGET_CORES)))
        }
        "dl2" => {
            let streams = RngStreams::new(seed).fork("tournament-dl2");
            let policy =
                Dl2Policy::new(user_request, space, &streams).with_telemetry(g.sink.clone());
            g.race_learned(policy, episodes)
        }
        "drl" => {
            let streams = RngStreams::new(seed).fork("tournament-drl");
            let policy =
                DrlPolicy::new(user_request, space, &streams).with_telemetry(g.sink.clone());
            g.race_learned(policy, episodes)
        }
        other => unreachable!("unknown roster entry {other}"),
    }
}

/// Scores raw outcomes into rows and assigns rank sums. Ranking is
/// competition-style ("1224"): ties share the best rank.
fn score(raw: Vec<(String, RawOutcome)>, deadline: SimTime) -> Vec<PolicyRow> {
    let mut rows: Vec<PolicyRow> = raw
        .into_iter()
        .map(|(policy, out)| {
            let clean_jct_min =
                out.clean.jct.map_or(deadline.as_secs_f64(), |d| d.as_secs_f64()) / 60.0;
            let n = out.chaos.len().max(1) as f64;
            let mean_goodput =
                out.chaos.iter().map(|r| goodput_retained(r, deadline)).sum::<f64>() / n;
            let worst_recovery_s =
                out.chaos.iter().filter_map(|r| r.oracle.worst_recovery_us).max().unwrap_or(0)
                    as f64
                    / 1e6;
            let (core_h, msamples) = out.chaos.iter().fold((0.0, 0.0), |(c, s), r| {
                (c + r.cpu_core_hours, s + r.truth.samples_done as f64 / 1e6)
            });
            let waste_core_h_per_msample =
                if msamples > 0.0 { core_h / msamples } else { f64::MAX };
            let violations = out.chaos.iter().map(|r| r.oracle.violation_count()).sum();
            PolicyRow {
                policy,
                clean_jct_min,
                mean_goodput,
                worst_recovery_s,
                waste_core_h_per_msample,
                violations,
                rank_sum: 0,
                episode_rewards: out.rewards,
            }
        })
        .collect();

    // Rank sum across the four metrics. `key` returns (value, ascending):
    // JCT, recovery, and waste reward small values; goodput rewards large.
    let metrics: [fn(&PolicyRow) -> f64; 4] = [
        |r| r.clean_jct_min,
        |r| -r.mean_goodput,
        |r| r.worst_recovery_s,
        |r| r.waste_core_h_per_msample,
    ];
    for metric in metrics {
        let values: Vec<f64> = rows.iter().map(metric).collect();
        for (i, row) in rows.iter_mut().enumerate() {
            let better = values.iter().filter(|&&v| v < values[i] - 1e-12).count();
            row.rank_sum += better + 1;
        }
    }
    rows
}

/// Runs the tournament: trains the learned contenders, races the roster
/// through one clean run plus `plans` chaos plans, and prints the rank
/// table. Returns the rendered report and the total invariant-violation
/// count (CI gates on zero).
pub(crate) fn run_tournament(seed: u64, plans: u64, episodes: u32) -> (String, usize) {
    let (spec, _) = job();
    let cfg = ChaosConfig {
        runner: RunnerConfig { seed, ..RunnerConfig::default() },
        plan: FaultPlanConfig::default(),
        ..ChaosConfig::default()
    };
    let deadline = cfg.runner.deadline;

    let units: Vec<Unit<'_, RawOutcome>> = ROSTER
        .iter()
        .enumerate()
        .map(|(pi, name)| {
            let spec = &spec;
            let cfg = &cfg;
            Unit::new(format!("{pi}/{name}"), move |t| {
                let g = Gauntlet { spec, cfg, plans, sink: t };
                run_contender(pi, &g, episodes)
            })
        })
        .collect();
    let outputs = run_units_auto(units);
    let merged = merge_telemetry(&outputs);
    let raw: Vec<(String, RawOutcome)> =
        outputs.into_iter().enumerate().map(|(pi, o)| (ROSTER[pi].to_string(), o.value)).collect();
    let mut rows = score(raw, deadline);
    let total_violations: usize = rows.iter().map(|r| r.violations).sum();

    // Present best-first; rows in `raw` order inside the JSON record would
    // hide the headline.
    rows.sort_by(|a, b| a.rank_sum.cmp(&b.rank_sum).then(a.policy.cmp(&b.policy)));

    let mut report =
        Report::new("tournament", "Scheduler tournament: heuristics vs learned, under chaos");
    report.section(&format!("{plans} chaos plans + 1 clean run each, seed {seed}"));
    report.row(
        &[
            "policy".into(),
            "clean JCT (min)".into(),
            "goodput".into(),
            "recovery (s)".into(),
            "core-h/Msample".into(),
            "rank".into(),
        ],
        &[12, 16, 9, 13, 15, 5],
    );
    for r in &rows {
        report.row(
            &[
                r.policy.clone(),
                format!("{:.1}", r.clean_jct_min),
                format!("{:.3}", r.mean_goodput),
                format!("{:.1}", r.worst_recovery_s),
                format!("{:.1}", r.waste_core_h_per_msample),
                r.rank_sum.to_string(),
            ],
            &[12, 16, 9, 13, 15, 5],
        );
    }
    for r in rows.iter().filter(|r| !r.episode_rewards.is_empty()) {
        let curve: Vec<String> = r.episode_rewards.iter().map(|x| format!("{x:.3}")).collect();
        report.line(format!("{} training reward/episode: [{}]", r.policy, curve.join(", ")));
    }
    report.line(format!(
        "winner {}; violations {total_violations}",
        rows.first().map_or("-", |r| r.policy.as_str())
    ));
    report.record("seed", &seed);
    report.record("plans", &plans);
    report.record("episodes", &episodes);
    report.record("total_violations", &total_violations);
    report.record("rows", &rows);
    report.telemetry(&merged);
    (report.finish(), total_violations)
}

/// Registry entry point: the default gauntlet unless the command line
/// sizes it with `--plans` / `--episodes`.
pub(crate) fn run(args: &RunArgs) -> (String, usize) {
    run_tournament(
        args.seed,
        args.plans.unwrap_or(DEFAULT_PLANS),
        args.episodes.unwrap_or(DEFAULT_EPISODES),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scored rows from the canonical-seed run, via the shared fixture
    /// (one run per test process, identical to the committed artefact).
    fn rows() -> &'static [serde_json::Value] {
        crate::fixture::canonical("tournament").json["rows"]
            .as_array()
            .expect("tournament.json has a rows array")
    }

    fn row<'a>(rows: &'a [serde_json::Value], name: &str) -> &'a serde_json::Value {
        rows.iter().find(|r| r["policy"] == name).unwrap_or_else(|| panic!("no row for {name}"))
    }

    fn rewards(row: &serde_json::Value) -> Vec<f64> {
        row["episode_rewards"]
            .as_array()
            .expect("episode_rewards array")
            .iter()
            .map(|v| v.as_f64().expect("finite reward"))
            .collect()
    }

    /// Headline shape: DLRover-RM is not strictly dominated on the two
    /// §6.2 claims (goodput retained under faults, recovery latency) by
    /// any contender, and nobody violates the oracle.
    #[test]
    fn dlrover_is_not_dominated_on_goodput_and_recovery() {
        let rows = rows();
        let dlr = row(rows, "dlrover");
        let (dg, dr) =
            (dlr["mean_goodput"].as_f64().unwrap(), dlr["worst_recovery_s"].as_f64().unwrap());
        for other in rows.iter().filter(|r| r["policy"] != "dlrover") {
            let og = other["mean_goodput"].as_f64().unwrap();
            let or = other["worst_recovery_s"].as_f64().unwrap();
            assert!(
                !(og > dg + 1e-9 && or < dr - 1e-9),
                "{} dominates dlrover: goodput {og:.3} vs {dg:.3}, recovery {or:.1}s vs {dr:.1}s",
                other["policy"],
            );
        }
        let violations: u64 = rows.iter().map(|r| r["violations"].as_u64().unwrap()).sum();
        assert_eq!(violations, 0, "oracle violations in the tournament gauntlet");
    }

    /// The learned contenders actually learn: each reward curve has one
    /// entry per training episode, and DL2's back half beats its front
    /// half (sanity, not SOTA — the smoke configuration's monotone trend).
    #[test]
    fn learned_policies_improve_across_episodes() {
        let rows = rows();
        for name in ["dl2", "drl"] {
            let curve = rewards(row(rows, name));
            assert_eq!(curve.len(), DEFAULT_EPISODES as usize, "{name}");
            assert!(curve.iter().all(|r| r.is_finite()), "{name}");
        }
        let curve = rewards(row(rows, "dl2"));
        let half = curve.len() / 2;
        let early: f64 = curve[..half].iter().sum::<f64>() / half as f64;
        let late: f64 = curve[half..].iter().sum::<f64>() / (curve.len() - half) as f64;
        assert!(
            late > early,
            "dl2 reward curve did not improve: early {early:.4} late {late:.4} ({curve:?})"
        );
    }

    /// Heuristics race fresh instances; learned contenders race one
    /// persistent instance — either way a contender reports a reward
    /// curve iff it trains.
    #[test]
    fn only_learned_contenders_report_reward_curves() {
        for r in rows() {
            let learned = r["policy"] == "dl2" || r["policy"] == "drl";
            assert_eq!(!rewards(r).is_empty(), learned, "{}", r["policy"]);
        }
    }

    /// The whole tournament (ranking, artefacts, rendered table) is
    /// bit-reproducible per seed.
    #[test]
    fn tournament_is_deterministic() {
        let (a, va) = run_tournament(7, 2, 3);
        let (b, vb) = run_tournament(7, 2, 3);
        assert_eq!(a, b);
        assert_eq!(va, vb);
    }
}
