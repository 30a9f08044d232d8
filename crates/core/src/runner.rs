//! The single-job simulation runner: the driver loop shared by examples,
//! integration tests, and the figure-reproduction harness.
//!
//! It wires one [`SchedulerPolicy`] to one [`JobMaster`]: profile every
//! `profile_interval`, offer the policy an adjustment every
//! `adjust_interval` (the paper's experiments use 3 minutes), sample pod
//! startup latencies from the cluster's latency model, and record a
//! throughput time series for the ramp-up figures.

use dlrover_cluster::StartupLatencyModel;
use dlrover_master::{JobMaster, MasterConfig, MasterEvent, SchedulerPolicy};
use dlrover_optimizer::ResourceAllocation;
use dlrover_pstrain::TrainingJobSpec;
use dlrover_sim::{RngStreams, SimDuration, SimTime};
use dlrover_telemetry::{EventKind, SpanCategory, Telemetry};
use serde::{Deserialize, Serialize};

/// Runner configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunnerConfig {
    /// Engine tick / profiling interval.
    pub profile_interval: SimDuration,
    /// Policy adjustment interval ("Every three minutes, schedulers
    /// adjusted the resources", §6.2).
    pub adjust_interval: SimDuration,
    /// Pod startup latency model. Policies that estimate scaling overhead
    /// (e.g. `DlroverPolicyConfig`) should be constructed with
    /// `with_expected_startup(startup.expected(cluster_utilisation))` so
    /// their TG term matches what this runner will actually charge.
    pub startup: StartupLatencyModel,
    /// Assumed background cluster utilisation (drives startup scarcity).
    pub cluster_utilisation: f64,
    /// Hard simulation deadline.
    pub deadline: SimTime,
    /// Job-master knobs.
    pub master: MasterConfig,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            profile_interval: SimDuration::from_secs(30),
            adjust_interval: SimDuration::from_mins(3),
            startup: StartupLatencyModel::default(),
            cluster_utilisation: 0.3,
            deadline: SimTime::from_secs(30 * 24 * 3_600),
            master: MasterConfig::default(),
            seed: 42,
        }
    }
}

/// Outcome of a single-job run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Policy name.
    pub policy: String,
    /// Job completion time (None on OOM / deadline).
    pub jct: Option<SimDuration>,
    /// Whether the job died of OOM.
    pub oomed: bool,
    /// Scaling operations performed.
    pub scaling_count: u32,
    /// Final allocation.
    pub final_allocation: ResourceAllocation,
    /// `(minutes since start, steps/second)` samples.
    pub throughput_series: Vec<(f64, f64)>,
    /// Integral of allocated CPU over time, core-hours.
    pub cpu_core_hours: f64,
    /// Mean "useful fraction": demanded CPU the cost model actually used
    /// over allocated CPU (proxy for the utilisation figures).
    pub mean_cpu_utilisation: f64,
}

/// Runs one job under one policy to completion (or OOM / deadline).
pub fn run_single_job(
    policy: Box<dyn SchedulerPolicy>,
    spec: TrainingJobSpec,
    config: &RunnerConfig,
) -> RunReport {
    run_single_job_traced(policy, spec, config, &Telemetry::default())
}

/// Like [`run_single_job`], but records events and metrics into the given
/// telemetry sink (job start/completion, policy adjustments, throughput
/// and CPU time series, plus everything the master and engine emit).
pub fn run_single_job_traced(
    mut policy: Box<dyn SchedulerPolicy>,
    spec: TrainingJobSpec,
    config: &RunnerConfig,
    telemetry: &Telemetry,
) -> RunReport {
    run_single_job_with(policy.as_mut(), spec, config, telemetry)
}

/// The borrowing core of [`run_single_job_traced`]: the caller keeps the
/// policy afterwards. Learned policies (DL2, DRL) need this — the
/// tournament trains a policy over an [`dlrover_sim::EpisodeSchedule`] of
/// rollouts and then races the *same* trained instance through the chaos
/// gauntlet, so the runner must not consume it.
pub fn run_single_job_with(
    policy: &mut dyn SchedulerPolicy,
    spec: TrainingJobSpec,
    config: &RunnerConfig,
    telemetry: &Telemetry,
) -> RunReport {
    let streams = RngStreams::new(config.seed);
    let mut startup_rng = streams.stream("runner-startup");
    let batch = spec.batch_size;
    let initial = policy.initial_allocation();
    let mut master = JobMaster::new(0, spec, initial, config.master);
    master.set_telemetry(telemetry.clone());
    telemetry.record(SimTime::ZERO, EventKind::JobStarted { job: 0 });

    let mut throughput_series = Vec::new();
    let mut cpu_core_seconds = 0.0f64;
    let mut util_acc = 0.0f64;
    let mut util_ticks = 0u32;
    let mut since_adjust = SimDuration::ZERO;
    let mut oomed = false;
    let mut jct = None;

    'outer: while master.engine().now() < config.deadline {
        let events = master.tick(config.profile_interval);
        for e in events {
            match e {
                MasterEvent::Completed(t) => {
                    jct = Some(t.saturating_since(SimTime::ZERO));
                    break 'outer;
                }
                MasterEvent::Oomed(_) => {
                    oomed = true;
                    break 'outer;
                }
                _ => {}
            }
        }

        // Bookkeeping for the utilisation metrics.
        let alloc = master.allocation();
        let allocated_cpu = alloc.total_cpu();
        cpu_core_seconds += allocated_cpu * config.profile_interval.as_secs_f64();
        let thp = master.engine().throughput();
        let steps_per_s = thp / f64::from(batch.max(1));
        throughput_series.push((master.engine().now().as_secs_f64() / 60.0, steps_per_s));
        let now = master.engine().now();
        telemetry.sample("runner.steps_per_sec", now, steps_per_s);
        telemetry.sample("runner.allocated_cpu", now, allocated_cpu);
        if allocated_cpu > 0.0 {
            let util = master.engine().cpu_utilisation();
            util_acc += util;
            util_ticks += 1;
            telemetry.sample("runner.cpu_utilisation", now, util);
        }

        // Policy adjustment on its own cadence.
        since_adjust += config.profile_interval;
        if since_adjust >= config.adjust_interval {
            since_adjust = SimDuration::ZERO;
            let profile = master.profile();
            telemetry.span_complete(
                master.engine().now(),
                master.engine().now(),
                SpanCategory::PolicyEval,
                policy.name(),
                0,
                None,
            );
            if let Some(decision) = policy.adjust(&profile) {
                telemetry.record(
                    master.engine().now(),
                    EventKind::PolicyAdjusted {
                        job: 0,
                        workers: decision.allocation.shape.workers,
                        ps: decision.allocation.shape.ps,
                    },
                );
                let startup = config.startup.sample(config.cluster_utilisation, &mut startup_rng);
                master.apply_decision(decision, startup);
            }
        }
    }

    // Root span: the whole job's virtual lifetime on its track, recorded
    // once the end is known (completion, OOM, or deadline cut-off).
    telemetry.span_complete(
        SimTime::ZERO,
        master.engine().now(),
        SpanCategory::Job,
        policy.name(),
        0,
        None,
    );

    RunReport {
        policy: policy.name().to_string(),
        jct,
        oomed,
        scaling_count: master.scaling_count(),
        final_allocation: master.allocation(),
        throughput_series,
        cpu_core_hours: cpu_core_seconds / 3_600.0,
        mean_cpu_utilisation: if util_ticks > 0 { util_acc / f64::from(util_ticks) } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrover_baselines::StaticPolicy;
    use dlrover_brain::{DlroverPolicy, DlroverPolicyConfig};
    use dlrover_perfmodel::JobShape;

    fn small_spec() -> TrainingJobSpec {
        TrainingJobSpec::paper_default(20_000)
    }

    fn user_request() -> ResourceAllocation {
        ResourceAllocation::new(JobShape::new(2, 1, 2.0, 2.0, 512), 8.0, 64.0)
    }

    #[test]
    fn static_run_completes_and_reports() {
        let report = run_single_job(
            Box::new(StaticPolicy::new(user_request())),
            small_spec(),
            &RunnerConfig::default(),
        );
        assert_eq!(report.policy, "static");
        assert!(report.jct.is_some());
        assert!(!report.oomed);
        assert_eq!(report.scaling_count, 0);
        assert!(report.cpu_core_hours > 0.0);
        assert!(!report.throughput_series.is_empty());
    }

    #[test]
    fn dlrover_beats_static_on_misprovisioned_job() {
        let config = RunnerConfig::default();
        let static_report =
            run_single_job(Box::new(StaticPolicy::new(user_request())), small_spec(), &config);
        let dlrover_report = run_single_job(
            Box::new(DlroverPolicy::new(user_request(), DlroverPolicyConfig::default())),
            small_spec(),
            &config,
        );
        let s = static_report.jct.unwrap();
        let d = dlrover_report.jct.unwrap();
        assert!(d < s, "dlrover {d} !< static {s}");
        assert!(dlrover_report.scaling_count > 0);
    }

    #[test]
    fn deadline_cuts_runs_short() {
        let config = RunnerConfig { deadline: SimTime::from_secs(60), ..RunnerConfig::default() };
        let report = run_single_job(
            Box::new(StaticPolicy::new(user_request())),
            TrainingJobSpec::paper_default(10_000_000),
            &config,
        );
        assert!(report.jct.is_none());
        assert!(!report.oomed);
    }

    #[test]
    fn utilisation_metric_in_unit_range() {
        let report = run_single_job(
            Box::new(StaticPolicy::new(user_request())),
            small_spec(),
            &RunnerConfig::default(),
        );
        assert!((0.0..=1.0).contains(&report.mean_cpu_utilisation));
    }
}
