//! Fig. 3: DLRM jobs' resource utilisation and pending time, derived from
//! the (pre-DLRover) cluster trace: over 80 % of jobs run below 50 %
//! CPU/memory utilisation.

use dlrover_cluster::{
    drive_fleet, Cluster, ClusterConfig, FleetConfig, FleetWorkload, GangJob, JobClass, PodRole,
    PodSpec, Resources,
};
use dlrover_perfmodel::ModelCoefficients;
use dlrover_pstrain::{AsyncCostModel, PodState};
use dlrover_sim::{RngStreams, SimDuration};
use dlrover_telemetry::Telemetry;

use crate::experiments::fleetstudy::{run_fleet, FleetStudyConfig, JobOutcome};
use crate::parallel::{merge_telemetry, run_units_auto, Unit};
use crate::report::{percentile, sorted, Report};

/// The two independent halves of the figure, joined after the pool runs.
enum Out {
    /// Aggregate fleet-study outcomes (utilisation CDFs, pool pending).
    Fleet(Vec<JobOutcome>),
    /// Pod-level gang-scheduler pending times (minutes, sorted).
    Pod(Vec<f64>),
}

/// Pod-level cross-validation of the pending-time distribution: gang-
/// schedule a slice of the same workload through the *exact* cluster
/// simulator (nodes, best-fit, preemption) instead of the aggregate pool.
fn pod_level_pending(seed: u64, telemetry: &Telemetry) -> Vec<f64> {
    let fleet = FleetConfig { training_jobs: 150, background_jobs: 30, ..Default::default() };
    let workload = FleetWorkload::generate(&fleet, &RngStreams::new(seed));
    let cost = AsyncCostModel::new(
        ModelCoefficients::simulation_truth(),
        dlrover_perfmodel::WorkloadConstants::default(),
        512,
    );
    let gangs: Vec<GangJob> = workload
        .jobs
        .iter()
        .filter(|j| j.class == JobClass::Training)
        .map(|j| {
            let mut pods = Vec::new();
            for _ in 0..j.workers {
                pods.push(PodSpec {
                    resources: j.requested_worker,
                    role: PodRole::Worker,
                    priority: j.class.priority(),
                    job_id: j.id,
                });
            }
            for _ in 0..j.ps {
                pods.push(PodSpec {
                    resources: j.requested_ps,
                    role: PodRole::ParameterServer,
                    priority: j.class.priority(),
                    job_id: j.id,
                });
            }
            let workers = vec![
                PodState::new(j.ideal_worker.cores().min(j.requested_worker.cores()));
                j.workers.max(1) as usize
            ];
            let parts = AsyncCostModel::balanced_partitions(
                j.ps.max(1),
                j.ideal_ps.cores().min(j.requested_ps.cores()).max(0.2),
            );
            let thp = cost.throughput(&workers, &parts).max(1.0);
            GangJob {
                job_id: j.id,
                submit: j.submit,
                pods,
                nominal_duration: SimDuration::from_secs_f64(j.total_samples as f64 / thp),
                gated_by_slowest: true, // static jobs are gated by their slowest pod
            }
        })
        .collect();
    let mut cluster = Cluster::new(
        ClusterConfig { node_capacity: Resources::new(32.0, 192.0), ..fleet.cluster_config(120) },
        &RngStreams::new(seed ^ 0xC1),
    );
    cluster.set_telemetry(telemetry.clone());
    let outcomes = drive_fleet(&mut cluster, &gangs);
    sorted(
        outcomes
            .iter()
            .filter(|o| o.admitted.is_some())
            .map(|o| o.pending().as_mins_f64())
            .collect(),
    )
}

/// Runs the Fig. 3 trace analysis.
///
/// Execution: two units — the aggregate fleet study and the pod-level
/// gang-scheduling cross-check — each self-seeded from `seed`, so they can
/// run on separate threads without sharing RNG state.
pub(crate) fn run(seed: u64) -> String {
    let mut r = Report::new("fig3", "fleet utilisation CDF and pending times (static era)");
    let cfg = FleetStudyConfig { dlrover_fraction: 0.0, seed, ..Default::default() };
    let cfg_ref = &cfg;
    let units = vec![
        Unit::new("0/fleet-study".to_string(), move |_t| Out::Fleet(run_fleet(cfg_ref))),
        Unit::new("1/pod-level".to_string(), move |t| Out::Pod(pod_level_pending(seed, t))),
    ];
    let outputs = run_units_auto(units);
    let outcomes = match &outputs[0].value {
        Out::Fleet(v) => v,
        Out::Pod(_) => unreachable!("key order pins unit 0 to the fleet study"),
    };
    let pod_pending = match &outputs[1].value {
        Out::Pod(v) => v,
        Out::Fleet(_) => unreachable!("key order pins unit 1 to the pod-level check"),
    };
    let admitted: Vec<_> = outcomes.iter().filter(|o| o.held_cores > 0.0).collect();

    // Utilisation CDFs.
    let cpu: Vec<f64> = admitted
        .iter()
        .map(|o| (o.worker_cpu_util + o.ps_cpu_util) / if o.ps_cpu_util > 0.0 { 2.0 } else { 1.0 })
        .collect();
    let mem: Vec<f64> = admitted
        .iter()
        .map(|o| (o.worker_mem_util + o.ps_mem_util) / if o.ps_mem_util > 0.0 { 2.0 } else { 1.0 })
        .collect();

    r.section("utilisation CDF (fraction of jobs at or below)");
    r.row(&["util <=".into(), "cpu jobs%".into(), "mem jobs%".into()], &[8, 10, 10]);
    let mut cdf = Vec::new();
    for bucket in [0.1f64, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        let cpu_frac = cpu.iter().filter(|&&u| u <= bucket).count() as f64 / cpu.len() as f64;
        let mem_frac = mem.iter().filter(|&&u| u <= bucket).count() as f64 / mem.len() as f64;
        cdf.push((bucket, cpu_frac, mem_frac));
        r.row(
            &[
                format!("{bucket:.1}"),
                format!("{:.0}%", cpu_frac * 100.0),
                format!("{:.0}%", mem_frac * 100.0),
            ],
            &[8, 10, 10],
        );
    }
    let below_half_cpu = cpu.iter().filter(|&&u| u < 0.5).count() as f64 / cpu.len() as f64;
    r.line(format!(
        "\n{:.0}% of jobs run below 50% CPU utilisation (paper: >80%)",
        below_half_cpu * 100.0
    ));

    // Pending times.
    let pending = sorted(admitted.iter().map(|o| o.pending.as_mins_f64()).collect::<Vec<f64>>());
    r.section("pending time (minutes)");
    r.row(&["p50".into(), "p90".into(), "p99".into()], &[8, 8, 8]);
    r.row(
        &[
            format!("{:.1}", percentile(&pending, 50.0)),
            format!("{:.1}", percentile(&pending, 90.0)),
            format!("{:.1}", percentile(&pending, 99.0)),
        ],
        &[8, 8, 8],
    );

    // Cross-check with the exact pod-level gang scheduler.
    r.section("pending time, pod-level gang scheduling (minutes)");
    r.row(&["p50".into(), "p90".into(), "p99".into()], &[8, 8, 8]);
    r.row(
        &[
            format!("{:.1}", percentile(pod_pending, 50.0)),
            format!("{:.1}", percentile(pod_pending, 90.0)),
            format!("{:.1}", percentile(pod_pending, 99.0)),
        ],
        &[8, 8, 8],
    );

    r.record("cdf", &cdf);
    r.record("below_half_cpu", &below_half_cpu);
    r.record("pending_p50_min", &percentile(&pending, 50.0));
    r.record("pending_p90_min", &percentile(&pending, 90.0));
    r.record("pod_level_pending_p50_min", &percentile(pod_pending, 50.0));
    r.record("pod_level_pending_p90_min", &percentile(pod_pending, 90.0));
    r.telemetry(&merge_telemetry(&outputs));
    r.finish()
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig3_shows_underutilisation() {
        let run = crate::fixture::canonical("fig3");
        assert!(run.text.contains("below 50% CPU utilisation"));
        assert!(run.json["below_half_cpu"].as_f64().unwrap() > 0.6);
    }
}
