//! Pod-level fleet driver: gang-schedules whole jobs through the cluster
//! in virtual time.
//!
//! The coarse admission model in the experiment harness treats the cluster
//! as one big resource pool; this driver is the *exact* counterpart — every
//! job is a gang of pods placed onto concrete nodes (best-fit, preemption,
//! heterogeneity), jobs queue FIFO when they don't fit, and completion
//! events free their nodes. Used to cross-validate pending-time
//! distributions and to give per-pod node speeds to stragglers-from-
//! placement analyses. It injects no churn: job-level faults are
//! `dlrover_rm::chaos`'s subject, fleet-scale ones
//! [`crate::ShardedFleet::with_chaos`]'s.

use dlrover_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::cluster::{Cluster, ClusterEvent};
use crate::pod::{Pod, PodId, PodPhase, PodSpec};
use crate::timerwheel::TimerWheel;

/// One job to drive through the cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GangJob {
    /// Caller's job identifier.
    pub job_id: u64,
    /// Submission time.
    pub submit: SimTime,
    /// Pod specs that must be placed together.
    pub pods: Vec<PodSpec>,
    /// How long the job runs once admitted, at nominal node speed. The
    /// driver stretches this by the gang's slowest node (a pod on a
    /// 0.45-speed node slows a synchronous job by 1/0.45).
    pub nominal_duration: SimDuration,
    /// Whether the slowest node gates the job (synchronous/static jobs)
    /// or the mean speed applies (elastic jobs with dynamic sharding).
    pub gated_by_slowest: bool,
}

/// Outcome of one driven job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GangOutcome {
    /// Caller's job identifier.
    pub job_id: u64,
    /// Submission time.
    pub submitted: SimTime,
    /// When the gang was admitted (None = never fit before the trace ended).
    pub admitted: Option<SimTime>,
    /// When the job finished.
    pub finished: Option<SimTime>,
    /// Speeds of the nodes the pods landed on.
    pub node_speeds: Vec<f64>,
    /// Pods preempted from *other* jobs to admit this one.
    pub preempted_others: usize,
    /// True when this gang was itself killed by a higher-priority gang's
    /// preemption before finishing (its `finished` stays `None`; recovery
    /// is the job master's concern, not this driver's).
    pub preempted: bool,
}

impl GangOutcome {
    /// Time spent waiting for admission (zero if never admitted).
    pub fn pending(&self) -> SimDuration {
        match self.admitted {
            Some(t) => t.saturating_since(self.submitted),
            None => SimDuration::ZERO,
        }
    }

    /// Realised job duration.
    pub fn duration(&self) -> Option<SimDuration> {
        Some(self.finished?.saturating_since(self.admitted?))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Submit(usize),
    Finish(usize),
}

/// Drives `jobs` through `cluster` to completion; returns per-job outcomes
/// sorted by job id. Jobs that never fit remain `admitted: None`.
pub fn drive_fleet(cluster: &mut Cluster, jobs: &[GangJob]) -> Vec<GangOutcome> {
    let mut outcomes: Vec<GangOutcome> = jobs
        .iter()
        .map(|j| GangOutcome {
            job_id: j.job_id,
            submitted: j.submit,
            admitted: None,
            finished: None,
            node_speeds: Vec::new(),
            preempted_others: 0,
            preempted: false,
        })
        .collect();
    // The driver is the sharded fleet core's K = 1 special case: one
    // hierarchical timer wheel over the whole fleet, popping in
    // `(time, push-seq)` order.
    let mut queue: TimerWheel<Ev> = TimerWheel::new();
    for (i, j) in jobs.iter().enumerate() {
        queue.push(j.submit, Ev::Submit(i));
    }
    let mut waiting: Vec<usize> = Vec::new();
    let mut held_pods: Vec<Vec<PodId>> = vec![Vec::new(); jobs.len()];

    while let Some(ev) = queue.pop() {
        let now = ev.at;
        match ev.event {
            Ev::Submit(i) => {
                waiting.push(i);
            }
            Ev::Finish(i) => {
                // A gang whose pods were preempted mid-run did NOT finish;
                // its stale Finish event must not record a phantom
                // completion.
                if !outcomes[i].preempted {
                    for &pod in &held_pods[i] {
                        cluster.terminate_pod(pod, PodPhase::Succeeded);
                    }
                    outcomes[i].finished = Some(now);
                }
            }
        }
        // Admission pass after every event: FIFO-ordered *backfill* — the
        // queue is scanned in submission order, but a later gang that fits
        // may admit while an earlier, larger gang keeps waiting (what the
        // k8s gang plugins do). Head-of-line blocking is thereby traded
        // for utilisation.
        let mut still_waiting = Vec::new();
        for &i in &waiting {
            let job = &jobs[i];
            match cluster.try_place_gang(&job.pods, now) {
                Some((ids, events)) => {
                    for &id in &ids {
                        cluster.mark_running(id, now);
                    }
                    let speeds: Vec<f64> =
                        ids.iter().filter_map(|&id| cluster.pod(id).map(Pod::speed_of)).collect();
                    // Mark victim gangs as preempted: their resources are
                    // gone and their scheduled Finish must not fire as a
                    // completion. (They are not rescheduled here — the
                    // caller decides; this driver measures.)
                    let mut preempted = 0;
                    for e in &events {
                        if let ClusterEvent::PodPreempted(pod) = e {
                            preempted += 1;
                            if let Some(victim) =
                                held_pods.iter().position(|pods| pods.contains(pod))
                            {
                                outcomes[victim].preempted = true;
                                // Release the victim's surviving pods too:
                                // a gang cannot run partially.
                                for &other in &held_pods[victim] {
                                    cluster.terminate_pod(other, PodPhase::Preempted);
                                }
                                held_pods[victim].clear();
                            }
                        }
                    }
                    let slowdown = if job.gated_by_slowest {
                        1.0 / speeds.iter().cloned().fold(1.0f64, f64::min).max(1e-3)
                    } else {
                        let mean = speeds.iter().sum::<f64>() / speeds.len().max(1) as f64;
                        1.0 / mean.max(1e-3)
                    };
                    let duration = job.nominal_duration.mul_f64(slowdown);
                    queue.push(now + duration, Ev::Finish(i));
                    held_pods[i] = ids;
                    outcomes[i].admitted = Some(now);
                    outcomes[i].node_speeds = speeds;
                    outcomes[i].preempted_others = preempted;
                }
                None => still_waiting.push(i),
            }
        }
        waiting = still_waiting;
    }
    outcomes
}

impl Pod {
    /// The node speed recorded at binding (1.0 before placement).
    fn speed_of(&self) -> f64 {
        self.node_speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::fleet::FleetConfig;
    use crate::pod::{PodRole, Priority};
    use crate::resources::Resources;
    use dlrover_sim::RngStreams;

    fn pod_spec(cores: f64, job_id: u64, priority: Priority) -> PodSpec {
        PodSpec { resources: Resources::new(cores, 8.0), role: PodRole::Worker, priority, job_id }
    }

    fn gang(job_id: u64, submit_s: u64, pods: usize, cores: f64, mins: u64) -> GangJob {
        GangJob {
            job_id,
            submit: SimTime::from_secs(submit_s),
            pods: vec![pod_spec(cores, job_id, Priority::Low); pods],
            nominal_duration: SimDuration::from_mins(mins),
            gated_by_slowest: false,
        }
    }

    /// A driver test cluster.
    fn cluster(nodes: usize) -> Cluster {
        Cluster::new(
            ClusterConfig {
                node_capacity: Resources::new(16.0, 64.0),
                slow_node_fraction: 0.0,
                ..FleetConfig::default().cluster_config(nodes)
            },
            &RngStreams::new(1),
        )
    }

    #[test]
    fn single_job_admits_immediately() {
        let mut c = cluster(4);
        let outcomes = drive_fleet(&mut c, &[gang(1, 10, 2, 8.0, 30)]);
        assert_eq!(outcomes[0].admitted, Some(SimTime::from_secs(10)));
        assert_eq!(outcomes[0].pending(), SimDuration::ZERO);
        assert_eq!(outcomes[0].finished, Some(SimTime::from_secs(10) + SimDuration::from_mins(30)));
    }

    #[test]
    fn gang_is_all_or_nothing() {
        // 4 nodes x 16 cores; a 5-pod x 16-core gang can never fit.
        let mut c = cluster(4);
        let outcomes = drive_fleet(&mut c, &[gang(1, 0, 5, 16.0, 10)]);
        assert_eq!(outcomes[0].admitted, None);
        // And the failed attempt leaked nothing.
        assert_eq!(c.total_allocated(), Resources::ZERO);
    }

    #[test]
    fn contention_queues_fifo_and_drains() {
        // Each job occupies the whole cluster; three jobs serialize.
        let mut c = cluster(2);
        let jobs = vec![gang(1, 0, 4, 8.0, 10), gang(2, 60, 4, 8.0, 10), gang(3, 120, 4, 8.0, 10)];
        let outcomes = drive_fleet(&mut c, &jobs);
        assert_eq!(outcomes[0].pending(), SimDuration::ZERO);
        // Job 2 waits for job 1 to finish at t=600.
        assert_eq!(outcomes[1].admitted, Some(SimTime::from_secs(600)));
        // Job 3 waits for job 2: finishes at 1200.
        assert_eq!(outcomes[2].admitted, Some(SimTime::from_secs(1200)));
        assert!(outcomes.iter().all(|o| o.finished.is_some()));
    }

    #[test]
    fn slow_node_stretches_gated_jobs() {
        let mut c = Cluster::new(
            ClusterConfig {
                nodes: 2,
                node_capacity: Resources::new(16.0, 64.0),
                slow_node_fraction: 1.0, // every node slow
                slow_node_speed: 0.5,
                pod_daily_failure_rate: 0.0,
                ..ClusterConfig::default()
            },
            &RngStreams::new(1),
        );
        let mut job = gang(1, 0, 2, 8.0, 10);
        job.gated_by_slowest = true;
        let outcomes = drive_fleet(&mut c, &[job]);
        assert_eq!(
            outcomes[0].duration(),
            Some(SimDuration::from_mins(20)),
            "0.5-speed nodes must double the gated duration"
        );
        assert!(outcomes[0].node_speeds.iter().all(|&s| s == 0.5));
    }

    #[test]
    fn high_priority_gang_preempts_low() {
        let mut c = cluster(1); // one 16-core node
        let low = gang(1, 0, 2, 8.0, 60);
        let mut high = gang(2, 60, 2, 8.0, 10);
        for p in &mut high.pods {
            p.priority = Priority::High;
        }
        let outcomes = drive_fleet(&mut c, &[low, high]);
        assert_eq!(outcomes[1].admitted, Some(SimTime::from_secs(60)));
        assert!(outcomes[1].preempted_others > 0);
        // The victim must NOT be recorded as finishing (regression: its
        // stale Finish event used to mark a phantom completion).
        assert!(outcomes[0].preempted);
        assert_eq!(outcomes[0].finished, None);
        assert!(!outcomes[1].preempted);
        assert!(outcomes[1].finished.is_some());
    }

    #[test]
    fn driver_is_deterministic() {
        let jobs: Vec<GangJob> = (0..20)
            .map(|i| gang(i, i * 30, 1 + (i as usize % 3), 4.0 + (i % 4) as f64, 5 + i % 7))
            .collect();
        let run = || {
            let mut c = cluster(3);
            drive_fleet(&mut c, &jobs)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pending_grows_under_load() {
        // Saturating arrival: pending times increase down the queue.
        let jobs: Vec<GangJob> = (0..6).map(|i| gang(i, i, 4, 8.0, 30)).collect();
        let mut c = cluster(2);
        let outcomes = drive_fleet(&mut c, &jobs);
        let pendings: Vec<f64> = outcomes.iter().map(|o| o.pending().as_mins_f64()).collect();
        assert!(pendings.windows(2).all(|w| w[1] >= w[0]), "{pendings:?}");
        assert!(pendings[5] > 100.0, "deep queue should wait hours: {pendings:?}");
    }
}
