//! Fleet-scale study: the shared machinery behind Figs. 3, 14, 15 and
//! Table 4.
//!
//! The production evaluation aggregates thousands of jobs over months.
//! Running every job through the full virtual-time engine would be
//! needlessly slow, so the fleet study uses a two-level approach:
//!
//! * **admission queueing** is simulated exactly (jobs occupy cluster
//!   capacity; submissions queue FIFO until resources free up) — this
//!   yields the pending-time distribution of Fig. 3;
//! * **per-job outcomes** use the *same cost model* the engine runs on
//!   (`AsyncCostModel` for throughput, skewed partitions for hot PSes,
//!   static-vs-dynamic partitioning closed forms for stragglers, the
//!   embedding-growth model for OOM) evaluated analytically per job, with
//!   pathology incidence drawn from the paper's reported production rates.
//!
//! Every mechanism invoked here (seamless migration pause, shard-queue
//! rebalance, OOM pre-scaling) is the one validated in unit/integration
//! tests; the fleet study composes them at scale.

use dlrover_cluster::{FleetConfig, FleetJob, FleetWorkload, JobClass, Resources};
use dlrover_perfmodel::ModelCoefficients;
use dlrover_pstrain::{
    dynamic_sharding_completion_seconds, plan_ps_migration, static_partition_completion_seconds,
    AsyncCostModel, MigrationStrategy, PodState, PsPartition,
};
use dlrover_sim::{RngStreams, Sample, SimDuration, SimTime, Uniform};
use rand::Rng;
use serde::Serialize;

/// Why a job failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub(crate) enum FailureCause {
    /// A PS ran out of memory.
    Oom,
    /// The job could never be scheduled (pending past the timeout).
    Scheduling,
    /// An unrecovered pod failure killed the job.
    PodFailure,
}

/// One job's simulated outcome.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct JobOutcome {
    /// Fleet job id.
    pub job_id: u64,
    /// Whether the job ran under DLRover-RM.
    pub dlrover: bool,
    /// Time spent waiting for admission.
    pub pending: SimDuration,
    /// Completion time (admission → finish); `None` when failed.
    pub jct: Option<SimDuration>,
    /// Failure cause when failed.
    pub failure: Option<FailureCause>,
    /// Mean CPU utilisation of the job's worker pods.
    pub worker_cpu_util: f64,
    /// Mean CPU utilisation of the job's PS pods.
    pub ps_cpu_util: f64,
    /// Memory utilisation of worker pods.
    pub worker_mem_util: f64,
    /// Memory utilisation of PS pods.
    pub ps_mem_util: f64,
    /// Whether the job drew the hot-PS pathology.
    pub hot_ps: bool,
    /// Whether the job drew the worker-straggler pathology.
    pub straggler: bool,
    /// Whether the job was CPU-starved by its user request.
    pub cpu_starved: bool,
    /// Whether the job's PS memory request was below its needs.
    pub oom_prone: bool,
    /// Total CPU cores the job held.
    pub held_cores: f64,
}

/// Study configuration.
#[derive(Debug, Clone)]
pub(crate) struct FleetStudyConfig {
    /// Workload generator settings.
    pub fleet: FleetConfig,
    /// Cluster CPU capacity (cores) for the admission queue.
    pub cluster_cores: f64,
    /// Cluster memory capacity (GB).
    pub cluster_mem_gb: f64,
    /// Fraction of training jobs managed by DLRover-RM (Fig. 14 ramps this
    /// from 0 to 0.9).
    pub dlrover_fraction: f64,
    /// Hot-PS incidence among jobs (paper: 13 % of jobs).
    pub hot_ps_rate: f64,
    /// Worker-straggler incidence (paper: ~7 %).
    pub straggler_rate: f64,
    /// Pending timeout after which a job counts as a scheduling failure.
    pub scheduling_timeout: SimDuration,
    /// Worker scale-out factor the auto-scaler applies to managed jobs
    /// (the weighted-greedy loop grows jobs onto Pareto-efficient shapes
    /// with capacity freed by rightsizing).
    pub dlrover_worker_scaleout: f64,
    /// Converged allocation headroom range over the true per-pod demand
    /// (Fig. 9: warm start + rightsizing land close to, not at, ideal).
    pub dlrover_headroom: (f64, f64),
    /// Experiment seed.
    pub seed: u64,
}

impl Default for FleetStudyConfig {
    fn default() -> Self {
        FleetStudyConfig {
            fleet: FleetConfig::default(),
            cluster_cores: 4_000.0,
            cluster_mem_gb: 24_000.0,
            dlrover_fraction: 0.0,
            hot_ps_rate: 0.13,
            straggler_rate: 0.07,
            scheduling_timeout: SimDuration::from_hours(24),
            dlrover_worker_scaleout: 1.5,
            dlrover_headroom: (1.1, 1.35),
            seed: 7,
        }
    }
}

/// Fraction of wall-clock a healthy pod spends actually computing: data
/// stalls, evaluation passes, and synchronisation gaps idle even perfectly
/// sized pods. Damps measured utilisation for *both* managers, which is why
/// the paper's production numbers top out near ~40-47% rather than 100%.
const ACTIVITY_FACTOR: f64 = 0.55;

/// Per-pod resources a job runs with under each manager.
struct Plan {
    worker: Resources,
    ps: Resources,
}

fn static_plan(job: &FleetJob) -> Plan {
    Plan { worker: job.requested_worker, ps: job.requested_ps }
}

/// DLRover's converged allocation: warm-start + rightsizing land within a
/// modest headroom of the true per-pod demand (Fig. 9: initial configs are
/// 85–92 % accurate; rightsizing then trims the rest).
fn dlrover_plan<R: Rng + ?Sized>(job: &FleetJob, cfg: &FleetStudyConfig, rng: &mut R) -> Plan {
    let (lo, hi) = cfg.dlrover_headroom;
    let headroom = Uniform::new(lo.min(hi), hi.max(lo)).sample(rng);
    Plan { worker: job.ideal_worker.scale(headroom), ps: job.ideal_ps.scale(headroom) }
}

/// Evaluates one admitted training job.
#[allow(clippy::too_many_arguments)]
fn evaluate_job<R: Rng + ?Sized>(
    job: &FleetJob,
    dlrover: bool,
    plan: &Plan,
    cfg: &FleetStudyConfig,
    rng: &mut R,
) -> (Option<SimDuration>, Option<FailureCause>, bool, bool) {
    let coefficients = ModelCoefficients::simulation_truth();
    let constants = dlrover_perfmodel::WorkloadConstants::default();
    let cost = AsyncCostModel::new(coefficients, constants, 512);

    // The CPU a pod can actually *use* is bounded by the job's ideal
    // demand; allocations above that are headroom, below it throttle.
    let worker_eff = plan.worker.cores().min(job.ideal_worker.cores());
    let ps_eff = plan.ps.cores().min(job.ideal_ps.cores());
    // DLRover's auto-scaler grows jobs onto Pareto-efficient shapes with
    // the capacity its rightsizing frees elsewhere (the weighted-greedy
    // loop); statically configured jobs keep the user's worker count.
    let worker_count = if dlrover {
        ((f64::from(job.workers) * cfg.dlrover_worker_scaleout).round() as u32).max(job.workers + 1)
    } else {
        job.workers.max(1)
    };
    let ps_count = if dlrover { job.ps.max(1) + job.ps / 2 } else { job.ps.max(1) };
    let workers: Vec<PodState> = vec![PodState::new(worker_eff.max(0.2)); worker_count as usize];

    let hot_ps = rng.gen::<f64>() < cfg.hot_ps_rate;
    let straggler = rng.gen::<f64>() < cfg.straggler_rate;

    let healthy_parts = AsyncCostModel::balanced_partitions(ps_count, ps_eff.max(0.2));
    let base_thp = cost.throughput(&workers, &healthy_parts);
    if base_thp <= 0.0 {
        return (None, Some(FailureCause::Scheduling), hot_ps, straggler);
    }
    let total = job.total_samples as f64;

    // --- OOM pathology --------------------------------------------------
    if job.oom_prone() && !dlrover {
        // The embedding outgrows the PS allocation mid-job: the job dies
        // after consuming roughly the fraction of data its memory allowed.
        let survive_fraction =
            (plan.ps.mem_bytes as f64 / job.ideal_ps.mem_bytes.max(1) as f64).clamp(0.05, 0.95);
        let died_after = total * survive_fraction / base_thp;
        let _ = died_after;
        return (None, Some(FailureCause::Oom), hot_ps, straggler);
    }

    // --- pod-failure hazard ----------------------------------------------
    let pods = f64::from(worker_count + ps_count) + 1.0;
    let duration_days = (total / base_thp) / 86_400.0;
    let daily = cfg.fleet.pod_daily_failure_rate.clamp(0.0, 1.0);
    let p_any_failure = 1.0 - (1.0 - daily).powf(pods * duration_days.max(0.02));
    if rng.gen::<f64>() < p_any_failure && !dlrover {
        // Without elastic fault tolerance, a failed pod aborts the job
        // roughly half the time (some users babysit and resubmit).
        if rng.gen::<f64>() < 0.85 {
            return (None, Some(FailureCause::PodFailure), hot_ps, straggler);
        }
    }

    // --- base completion time ---------------------------------------------
    let mut jct_s;

    if straggler {
        // One worker at 30 % speed (contention-level straggler).
        let mut rates: Vec<f64> = workers
            .iter()
            .map(|w| 512.0 / cost.worker_iter_time(w, &healthy_parts, worker_count))
            .collect();
        let slow_idx = 0;
        rates[slow_idx] *= 0.3;
        jct_s = if dlrover {
            dynamic_sharding_completion_seconds(total, &rates)
        } else {
            static_partition_completion_seconds(total, &rates)
        };
    } else {
        jct_s = total / base_thp;
    }

    if hot_ps {
        // Tensor skew: one PS holds 2.5x its fair share.
        let skew: Vec<PsPartition> = AsyncCostModel::skewed_partitions(
            ps_count,
            ps_eff.max(0.2),
            (2.5 / f64::from(ps_count)).min(0.9),
        );
        let hot_thp = cost.throughput(&workers, &skew);
        if dlrover {
            // Detected and migrated seamlessly after ~6 minutes of hot
            // running; afterwards DeepRec rebalances the partitions.
            let hot_window = 360.0f64.min(jct_s);
            let done_hot = hot_thp * hot_window;
            let pause = plan_ps_migration(
                MigrationStrategy::Seamless,
                (job.ideal_ps.mem_bytes / 2).max(1_000_000_000) * u64::from(ps_count),
                SimDuration::from_mins(6),
            )
            .pause()
            .as_secs_f64();
            jct_s = hot_window + pause + (total - done_hot).max(0.0) / base_thp;
        } else {
            // The job limps through at the hot throughput.
            jct_s = jct_s * base_thp / hot_thp.max(1e-9);
        }
    }

    if dlrover && job.oom_prone() {
        // OOM prevention pre-scales PS memory with a short seamless pause.
        jct_s += 30.0;
    }

    (Some(SimDuration::from_secs_f64(jct_s)), None, hot_ps, straggler)
}

/// Runs the fleet study: admission queueing + per-job evaluation.
pub(crate) fn run_fleet(cfg: &FleetStudyConfig) -> Vec<JobOutcome> {
    let streams = RngStreams::new(cfg.seed);
    let workload = FleetWorkload::generate(&cfg.fleet, &streams);
    let mut rng = streams.stream("fleet-study");

    // Admission queue over aggregate capacity. Running jobs release their
    // resources at their finish time.
    let mut free_cores = cfg.cluster_cores;
    let mut free_mem = cfg.cluster_mem_gb;
    let mut running: Vec<(SimTime, f64, f64)> = Vec::new(); // (finish, cores, mem)
    let mut waiting: Vec<(usize, SimTime)> = Vec::new(); // (job idx, submit)
    let mut outcomes = Vec::new();

    // Manager assignment and plan are decided once at submission: a job
    // does not flip between managers (or change its resource demand) while
    // it waits in the queue.
    let assignments: Vec<(bool, Plan)> = workload
        .jobs
        .iter()
        .map(|job| {
            if job.class != JobClass::Training {
                return (false, Plan { worker: job.requested_worker, ps: Resources::ZERO });
            }
            let dlrover = rng.gen::<f64>() < cfg.dlrover_fraction;
            let plan = if dlrover { dlrover_plan(job, cfg, &mut rng) } else { static_plan(job) };
            (dlrover, plan)
        })
        .collect();

    let release_until = |t: SimTime,
                         running: &mut Vec<(SimTime, f64, f64)>,
                         free_cores: &mut f64,
                         free_mem: &mut f64| {
        running.retain(|(finish, c, m)| {
            if *finish <= t {
                *free_cores += c;
                *free_mem += m;
                false
            } else {
                true
            }
        });
    };

    for (idx, job) in workload.jobs.iter().enumerate() {
        release_until(job.submit, &mut running, &mut free_cores, &mut free_mem);

        // Try to admit waiting jobs first (FIFO).
        waiting.push((idx, job.submit));
        let mut still_waiting = Vec::new();
        for (widx, submitted) in waiting.drain(..) {
            let wjob = &workload.jobs[widx];
            let (dlrover, ref plan) = assignments[widx];
            let need_cores = plan.worker.cores() * f64::from(wjob.workers)
                + plan.ps.cores() * f64::from(wjob.ps);
            let need_mem = plan.worker.mem_gb() * f64::from(wjob.workers)
                + plan.ps.mem_gb() * f64::from(wjob.ps);

            // Advance the clock conceptually: a waiting job is admitted the
            // moment capacity exists; we approximate the admit time as the
            // current submission instant (events are processed in time
            // order, so this is within one inter-arrival of exact).
            let now = job.submit;
            if need_cores <= free_cores && need_mem <= free_mem {
                let pending = now.saturating_since(submitted);
                if wjob.class == JobClass::Training {
                    let (jct, failure, hot, strag) =
                        evaluate_job(wjob, dlrover, plan, cfg, &mut rng);
                    let hold = jct.unwrap_or(SimDuration::from_hours(2));
                    free_cores -= need_cores;
                    free_mem -= need_mem;
                    running.push((now + hold, need_cores, need_mem));
                    outcomes.push(JobOutcome {
                        job_id: wjob.id,
                        dlrover,
                        pending,
                        jct,
                        failure,
                        worker_cpu_util: (wjob.ideal_worker.cores() / plan.worker.cores()).min(1.0)
                            * ACTIVITY_FACTOR,
                        ps_cpu_util: if wjob.ps > 0 {
                            (wjob.ideal_ps.cores() / plan.ps.cores().max(1e-9)).min(1.0)
                                * ACTIVITY_FACTOR
                        } else {
                            0.0
                        },
                        worker_mem_util: (wjob.ideal_worker.mem_gb()
                            / plan.worker.mem_gb().max(1e-9))
                        .min(1.0)
                            * ACTIVITY_FACTOR,
                        ps_mem_util: if wjob.ps > 0 {
                            (wjob.ideal_ps.mem_gb() / plan.ps.mem_gb().max(1e-9)).min(1.0)
                                * ACTIVITY_FACTOR
                        } else {
                            0.0
                        },
                        hot_ps: hot,
                        straggler: strag,
                        cpu_starved: wjob.cpu_starved(),
                        oom_prone: wjob.oom_prone(),
                        held_cores: need_cores,
                    });
                } else {
                    // Background service: occupy capacity for its lifetime.
                    let hold = wjob.service_duration.unwrap_or(SimDuration::from_hours(6));
                    free_cores -= need_cores;
                    free_mem -= need_mem;
                    running.push((now + hold, need_cores, need_mem));
                }
            } else if now.saturating_since(submitted) > cfg.scheduling_timeout {
                if wjob.class == JobClass::Training {
                    outcomes.push(JobOutcome {
                        job_id: wjob.id,
                        dlrover,
                        pending: now.saturating_since(submitted),
                        jct: None,
                        failure: Some(FailureCause::Scheduling),
                        worker_cpu_util: 0.0,
                        ps_cpu_util: 0.0,
                        worker_mem_util: 0.0,
                        ps_mem_util: 0.0,
                        hot_ps: false,
                        straggler: false,
                        cpu_starved: wjob.cpu_starved(),
                        oom_prone: wjob.oom_prone(),
                        held_cores: 0.0,
                    });
                }
            } else {
                still_waiting.push((widx, submitted));
            }
        }
        waiting = still_waiting;
    }

    // Drain the queue at the end of the trace (everything admits as the
    // cluster empties; approximate remaining pending as half the timeout).
    for (widx, submitted) in waiting {
        let wjob = &workload.jobs[widx];
        if wjob.class != JobClass::Training {
            continue;
        }
        let (dlrover, ref plan) = assignments[widx];
        let (jct, failure, hot, strag) = evaluate_job(wjob, dlrover, plan, cfg, &mut rng);
        outcomes.push(JobOutcome {
            job_id: wjob.id,
            dlrover,
            pending: SimDuration::from_hours(1).saturating_sub(SimDuration::ZERO),
            jct,
            failure,
            worker_cpu_util: (wjob.ideal_worker.cores() / plan.worker.cores().max(1e-9)).min(1.0)
                * ACTIVITY_FACTOR,
            ps_cpu_util: (wjob.ideal_ps.cores() / plan.ps.cores().max(1e-9)).min(1.0)
                * ACTIVITY_FACTOR,
            worker_mem_util: (wjob.ideal_worker.mem_gb() / plan.worker.mem_gb().max(1e-9)).min(1.0)
                * ACTIVITY_FACTOR,
            ps_mem_util: (wjob.ideal_ps.mem_gb() / plan.ps.mem_gb().max(1e-9)).min(1.0)
                * ACTIVITY_FACTOR,
            hot_ps: hot,
            straggler: strag,
            cpu_starved: wjob.cpu_starved(),
            oom_prone: wjob.oom_prone(),
            held_cores: 0.0,
        });
        let _ = submitted;
    }
    outcomes
}

/// Aggregate metrics over a set of outcomes.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct FleetAggregate {
    /// Number of jobs.
    pub jobs: usize,
    /// Job completion rate.
    pub jcr: f64,
    /// Mean worker CPU utilisation.
    pub worker_cpu_util: f64,
    /// Mean PS CPU utilisation.
    pub ps_cpu_util: f64,
    /// Mean worker memory utilisation.
    pub worker_mem_util: f64,
    /// Mean PS memory utilisation.
    pub ps_mem_util: f64,
    /// Failure-cause rates (oom, scheduling, pod failure).
    pub oom_rate: f64,
    /// Scheduling-failure rate.
    pub scheduling_rate: f64,
    /// Pod-failure-death rate.
    pub pod_failure_rate: f64,
}

/// Summarises outcomes.
pub(crate) fn aggregate(outcomes: &[JobOutcome]) -> FleetAggregate {
    let n = outcomes.len().max(1) as f64;
    let completed = outcomes.iter().filter(|o| o.jct.is_some()).count() as f64;
    let mean = |f: &dyn Fn(&JobOutcome) -> f64| -> f64 { outcomes.iter().map(f).sum::<f64>() / n };
    let cause_rate = |c: FailureCause| -> f64 {
        outcomes.iter().filter(|o| o.failure == Some(c)).count() as f64 / n
    };
    FleetAggregate {
        jobs: outcomes.len(),
        jcr: completed / n,
        worker_cpu_util: mean(&|o| o.worker_cpu_util),
        ps_cpu_util: mean(&|o| o.ps_cpu_util),
        worker_mem_util: mean(&|o| o.worker_mem_util),
        ps_mem_util: mean(&|o| o.ps_mem_util),
        oom_rate: cause_rate(FailureCause::Oom),
        scheduling_rate: cause_rate(FailureCause::Scheduling),
        pod_failure_rate: cause_rate(FailureCause::PodFailure),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(fraction: f64) -> FleetStudyConfig {
        FleetStudyConfig {
            fleet: FleetConfig { training_jobs: 200, background_jobs: 40, ..Default::default() },
            dlrover_fraction: fraction,
            ..Default::default()
        }
    }

    #[test]
    fn outcomes_cover_all_training_jobs() {
        let outcomes = run_fleet(&small_cfg(0.0));
        assert_eq!(outcomes.len(), 200);
    }

    #[test]
    fn study_is_deterministic() {
        let a = run_fleet(&small_cfg(0.5));
        let b = run_fleet(&small_cfg(0.5));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.job_id, y.job_id);
            assert_eq!(x.jct, y.jct);
            assert_eq!(x.failure, y.failure);
        }
    }

    #[test]
    fn dlrover_improves_jcr_and_utilisation() {
        let before = aggregate(&run_fleet(&small_cfg(0.0)));
        let after = aggregate(&run_fleet(&small_cfg(1.0)));
        assert!(after.jcr > before.jcr, "JCR: {} -> {}", before.jcr, after.jcr);
        assert!(
            after.worker_cpu_util > before.worker_cpu_util + 0.1,
            "worker util: {} -> {}",
            before.worker_cpu_util,
            after.worker_cpu_util
        );
        assert!(
            after.ps_mem_util > before.ps_mem_util,
            "ps mem util: {} -> {}",
            before.ps_mem_util,
            after.ps_mem_util
        );
        assert!(after.oom_rate < before.oom_rate.max(1e-9));
    }

    #[test]
    fn static_fleet_reproduces_fig3_pathology() {
        let outcomes = run_fleet(&small_cfg(0.0));
        let below_half =
            outcomes.iter().filter(|o| o.worker_cpu_util > 0.0 && o.worker_cpu_util < 0.5).count()
                as f64;
        let measured = outcomes.iter().filter(|o| o.worker_cpu_util > 0.0).count() as f64;
        assert!(
            below_half / measured > 0.6,
            "only {} of jobs below 50% util",
            below_half / measured
        );
    }

    #[test]
    fn dlrover_shortens_straggler_and_hot_ps_jobs() {
        let before = run_fleet(&small_cfg(0.0));
        let after = run_fleet(&small_cfg(1.0));
        let med = |outcomes: &[JobOutcome], f: &dyn Fn(&JobOutcome) -> bool| -> f64 {
            let mut v: Vec<f64> = outcomes
                .iter()
                .filter(|o| f(o) && o.jct.is_some())
                .map(|o| o.jct.unwrap().as_secs_f64())
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            if v.is_empty() {
                return f64::NAN;
            }
            v[v.len() / 2]
        };
        let hot_before = med(&before, &|o| o.hot_ps);
        let hot_after = med(&after, &|o| o.hot_ps);
        assert!(hot_after < hot_before, "hot-PS median JCT: {hot_before} -> {hot_after}");
    }
}
