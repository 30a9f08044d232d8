//! Fleet workload generator: the statistical stand-in for AntGroup's
//! production traces.
//!
//! Figs. 3, 14, 15 and Tables 2, 4 report *fleet-level* aggregates. This
//! module plants the pathologies the paper documents so the experiments can
//! measure whether DLRover-RM removes them:
//!
//! * **User misconfiguration** (§2.2): each training job has an *ideal*
//!   per-role allocation; the user's request is that ideal scaled by a
//!   log-normal over-provisioning factor (most users ask for ~1.5–3× what
//!   they need — hence the <50 % utilisation of Fig. 3), while a tail of
//!   jobs *under*-provisions (the slow-training and OOM populations of
//!   Table 4).
//! * **Workload consolidation** (Table 2): training shares the cluster with
//!   stream-processing and high-priority inference/search services.
//! * **Heavy-tailed job sizes**: sample counts are Pareto-distributed, so a
//!   few jobs dominate cluster time, as in any production trace.

use dlrover_sim::{
    Exponential, LogNormal, Pareto, RngStreams, Sample, SimDuration, SimTime, Uniform,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::pod::Priority;
use crate::resources::Resources;

/// Job families co-located in the cluster (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobClass {
    /// DLRM training (the subject of the paper; >70 % of jobs).
    Training,
    /// Stream processing (Low priority, long-lived).
    StreamProcessing,
    /// Online inference services (High priority).
    InferenceService,
    /// Search services (High priority, memory-heavy).
    SearchService,
    /// Everything else.
    Other,
}

impl JobClass {
    /// Scheduling priority per class.
    pub fn priority(&self) -> Priority {
        match self {
            JobClass::InferenceService | JobClass::SearchService => Priority::High,
            _ => Priority::Low,
        }
    }
}

/// One generated job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetJob {
    /// Unique id within the workload.
    pub id: u64,
    /// Job family.
    pub class: JobClass,
    /// Submitting user (training only; used by warm-start similarity).
    pub owner: String,
    /// Model family label (training only): "wide_deep" | "xdeepfm" | "dcn".
    pub model: String,
    /// Submission time.
    pub submit: SimTime,
    /// Worker count (training) or replica count (services).
    pub workers: u32,
    /// PS count (training only; 0 otherwise).
    pub ps: u32,
    /// What one worker actually needs to hit full throughput.
    pub ideal_worker: Resources,
    /// What one PS actually needs.
    pub ideal_ps: Resources,
    /// What the user asked for per worker.
    pub requested_worker: Resources,
    /// What the user asked for per PS.
    pub requested_ps: Resources,
    /// Total training samples (training only).
    pub total_samples: u64,
    /// Lifetime for service-style jobs.
    pub service_duration: Option<SimDuration>,
}

impl FleetJob {
    /// Total requested resources across all pods.
    pub(crate) fn total_requested(&self) -> Resources {
        self.requested_worker.scale(f64::from(self.workers))
            + self.requested_ps.scale(f64::from(self.ps))
    }

    /// Expected CPU utilisation under the user's (static) request:
    /// ideal demand over requested, capped at 1.
    pub(crate) fn expected_cpu_utilisation(&self) -> f64 {
        let need = self.ideal_worker.cpu_millis * u64::from(self.workers)
            + self.ideal_ps.cpu_millis * u64::from(self.ps);
        let req = self.total_requested().cpu_millis;
        if req == 0 {
            return 0.0;
        }
        (need as f64 / req as f64).min(1.0)
    }

    /// True when the user under-provisioned CPU (slow-training pathology).
    pub fn cpu_starved(&self) -> bool {
        self.requested_worker.cpu_millis < self.ideal_worker.cpu_millis
            || self.requested_ps.cpu_millis < self.ideal_ps.cpu_millis
    }

    /// True when the user under-provisioned PS memory (OOM pathology).
    pub fn oom_prone(&self) -> bool {
        self.requested_ps.mem_bytes < self.ideal_ps.mem_bytes
    }
}

/// Generator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of training jobs to generate.
    pub training_jobs: usize,
    /// Number of co-located service/stream jobs.
    pub background_jobs: usize,
    /// Mean inter-arrival time between submissions.
    pub mean_interarrival: SimDuration,
    /// Median over-provisioning ratio (log-normal median; >1 wastes).
    pub overprovision_median: f64,
    /// Log-normal sigma of the over-provisioning ratio.
    pub overprovision_sigma: f64,
    /// Fraction of training jobs that under-provision PS CPU
    /// (paper: ~6 % of jobs have insufficient PS CPU).
    pub cpu_starved_fraction: f64,
    /// Fraction of training jobs that under-provision PS memory
    /// (paper: 5–8 % of jobs hit OOM).
    pub oom_fraction: f64,
    /// Number of distinct users submitting training jobs.
    pub users: usize,
    /// Largest pod a user may request (the cluster's node size caps it;
    /// Kubernetes rejects anything bigger).
    pub max_pod: Resources,
    /// Probability that a running pod fails within a day (organic cloud
    /// churn; §2.2 / Table 4). Flows into the [`crate::ClusterConfig`] built by
    /// [`FleetConfig::cluster_config`], so fleet drivers and chaos plans
    /// share one hazard instead of hardcoding zero.
    pub pod_daily_failure_rate: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            training_jobs: 500,
            background_jobs: 120,
            mean_interarrival: SimDuration::from_secs(90),
            overprovision_median: 4.0,
            overprovision_sigma: 0.45,
            cpu_starved_fraction: 0.06,
            oom_fraction: 0.065,
            users: 24,
            max_pod: Resources::new(32.0, 192.0),
            pod_daily_failure_rate: 0.015,
        }
    }
}

impl FleetConfig {
    /// Builds the cluster configuration this fleet should run on: `nodes`
    /// nodes sized to the largest allowed pod, with the fleet's organic
    /// pod-failure hazard threaded through (rather than the zero rate the
    /// driver paths used to hardcode).
    pub fn cluster_config(&self, nodes: usize) -> crate::cluster::ClusterConfig {
        crate::cluster::ClusterConfig {
            nodes,
            node_capacity: self.max_pod,
            pod_daily_failure_rate: self.pod_daily_failure_rate,
            ..crate::cluster::ClusterConfig::default()
        }
    }
}

/// A generated fleet workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetWorkload {
    /// All jobs, sorted by submission time.
    pub jobs: Vec<FleetJob>,
}

impl FleetWorkload {
    /// Generates a workload deterministically from `streams`.
    pub fn generate(config: &FleetConfig, streams: &RngStreams) -> Self {
        let mut rng = streams.stream("fleet");
        let interarrival = Exponential::from_mean(config.mean_interarrival.as_secs_f64());
        let overprov = LogNormal::new(config.overprovision_median.ln(), config.overprovision_sigma);
        let job_size = Pareto::new(2.0, 1.6); // workers; heavy-tailed
        let sample_count = Pareto::new(2.0e7, 1.3); // total samples
        let cpu_need = Uniform::new(2.0, 10.0);
        let models = ["wide_deep", "xdeepfm", "dcn"];

        let mut jobs = Vec::with_capacity(config.training_jobs + config.background_jobs);
        let mut t = SimTime::ZERO;
        let mut id = 0u64;

        for _ in 0..config.training_jobs {
            t += SimDuration::from_secs_f64(interarrival.sample(&mut rng));
            let workers = (job_size.sample(&mut rng).round() as u32).clamp(2, 64);
            let ps = (f64::from(workers) / 3.0).ceil() as u32;
            let worker_cores = cpu_need.sample(&mut rng);
            let ps_cores = worker_cores * 0.8;
            let ideal_worker = Resources::new(worker_cores, worker_cores * 3.0);
            let ideal_ps = Resources::new(ps_cores, ps_cores * 6.0);

            // User misconfiguration.
            let r: f64 = rng.gen();
            let (req_worker, req_ps) = if r < config.cpu_starved_fraction {
                // PS CPU under-provisioned (hot/slow PS pathology).
                (
                    ideal_worker.scale(overprov.sample_clamped(&mut rng, 1.0, 6.0)),
                    Resources::from_raw(
                        (ideal_ps.cpu_millis as f64 * rng.gen_range(0.2..0.7)) as u64,
                        (ideal_ps.mem_bytes as f64 * 1.2) as u64,
                    ),
                )
            } else if r < config.cpu_starved_fraction + config.oom_fraction {
                // PS memory under-provisioned (OOM pathology).
                (
                    ideal_worker.scale(overprov.sample_clamped(&mut rng, 1.0, 6.0)),
                    Resources::from_raw(
                        (ideal_ps.cpu_millis as f64 * 1.2) as u64,
                        (ideal_ps.mem_bytes as f64 * rng.gen_range(0.3..0.8)) as u64,
                    ),
                )
            } else {
                // Ordinary over-provisioner.
                (
                    ideal_worker.scale(overprov.sample_clamped(&mut rng, 1.0, 8.0)),
                    ideal_ps.scale(overprov.sample_clamped(&mut rng, 1.0, 8.0)),
                )
            };

            jobs.push(FleetJob {
                id,
                class: JobClass::Training,
                owner: format!("user-{}", rng.gen_range(0..config.users.max(1))),
                model: models[rng.gen_range(0..models.len())].to_string(),
                submit: t,
                workers,
                ps,
                ideal_worker,
                ideal_ps,
                requested_worker: req_worker.component_min(&config.max_pod),
                requested_ps: req_ps.component_min(&config.max_pod),
                total_samples: sample_count.sample(&mut rng) as u64,
                service_duration: None,
            });
            id += 1;
        }

        // Background services (Table 2 mix by share of non-training jobs).
        let service_life = Exponential::from_mean(6.0 * 3_600.0);
        for _ in 0..config.background_jobs {
            t += SimDuration::from_secs_f64(interarrival.sample(&mut rng) * 0.5);
            let class = match rng.gen_range(0..100) {
                0..=55 => JobClass::StreamProcessing,
                56..=75 => JobClass::InferenceService,
                76..=88 => JobClass::SearchService,
                _ => JobClass::Other,
            };
            let cores = match class {
                JobClass::SearchService => rng.gen_range(8.0..24.0),
                JobClass::InferenceService => rng.gen_range(4.0..16.0),
                _ => rng.gen_range(2.0..10.0),
            };
            let mem = match class {
                JobClass::SearchService => cores * 6.0,
                _ => cores * 2.0,
            };
            let res = Resources::new(cores, mem);
            // Services over-provision too (they are sized for peak load).
            let service_overprov = overprov.sample_clamped(&mut rng, 2.0, 10.0);
            jobs.push(FleetJob {
                id,
                class,
                owner: String::new(),
                model: String::new(),
                submit: t,
                workers: rng.gen_range(1..4),
                ps: 0,
                ideal_worker: res,
                ideal_ps: Resources::ZERO,
                requested_worker: res.scale(service_overprov),
                requested_ps: Resources::ZERO,
                total_samples: 0,
                service_duration: Some(SimDuration::from_secs_f64(
                    service_life.sample(&mut rng).max(600.0),
                )),
            });
            id += 1;
        }

        jobs.sort_by_key(|j| (j.submit, j.id));
        FleetWorkload { jobs }
    }

    /// Training jobs only.
    pub fn training_jobs(&self) -> impl Iterator<Item = &FleetJob> {
        self.jobs.iter().filter(|j| j.class == JobClass::Training)
    }

    /// Table 2-style per-class summary: (class, count, total vCPU,
    /// mean expected CPU util, total memory GB).
    pub fn summary_by_class(&self) -> Vec<(JobClass, usize, f64, f64, f64)> {
        let classes = [
            JobClass::Training,
            JobClass::StreamProcessing,
            JobClass::InferenceService,
            JobClass::SearchService,
            JobClass::Other,
        ];
        classes
            .iter()
            .map(|&class| {
                let members: Vec<&FleetJob> =
                    self.jobs.iter().filter(|j| j.class == class).collect();
                let count = members.len();
                let vcpu: f64 = members.iter().map(|j| j.total_requested().cores()).sum();
                let mem: f64 = members.iter().map(|j| j.total_requested().mem_gb()).sum();
                let util = if count == 0 {
                    0.0
                } else {
                    members.iter().map(|j| j.expected_cpu_utilisation()).sum::<f64>() / count as f64
                };
                (class, count, vcpu, util, mem)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> FleetWorkload {
        FleetWorkload::generate(&FleetConfig::default(), &RngStreams::new(77))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = workload();
        let b = FleetWorkload::generate(&FleetConfig::default(), &RngStreams::new(77));
        assert_eq!(a, b);
        let c = FleetWorkload::generate(&FleetConfig::default(), &RngStreams::new(78));
        assert_ne!(a, c);
    }

    #[test]
    fn counts_match_config() {
        let w = workload();
        let cfg = FleetConfig::default();
        assert_eq!(w.jobs.len(), cfg.training_jobs + cfg.background_jobs);
        assert_eq!(w.training_jobs().count(), cfg.training_jobs);
    }

    #[test]
    fn submissions_are_time_ordered() {
        let w = workload();
        assert!(w.jobs.windows(2).all(|p| p[0].submit <= p[1].submit));
    }

    #[test]
    fn majority_of_training_jobs_underutilise() {
        // The Fig. 3 pathology: most jobs run below 50 % expected CPU util.
        let w = workload();
        let utils: Vec<f64> = w.training_jobs().map(|j| j.expected_cpu_utilisation()).collect();
        let below_half = utils.iter().filter(|&&u| u < 0.5).count();
        let frac = below_half as f64 / utils.len() as f64;
        assert!(frac > 0.7, "only {frac} of jobs below 50% util — trace too healthy");
    }

    #[test]
    fn pathological_fractions_roughly_match_config() {
        let w = workload();
        let n = w.training_jobs().count() as f64;
        let starved = w.training_jobs().filter(|j| j.cpu_starved()).count() as f64 / n;
        let oom = w.training_jobs().filter(|j| j.oom_prone()).count() as f64 / n;
        assert!((starved - 0.06).abs() < 0.04, "cpu-starved fraction {starved}");
        assert!((oom - 0.065).abs() < 0.04, "oom fraction {oom}");
    }

    #[test]
    fn job_sizes_are_heavy_tailed() {
        let w = workload();
        let mut workers: Vec<u32> = w.training_jobs().map(|j| j.workers).collect();
        workers.sort_unstable();
        let median = workers[workers.len() / 2];
        let max = *workers.last().unwrap();
        assert!(max >= median * 4, "no heavy tail: median {median}, max {max}");
    }

    #[test]
    fn background_jobs_have_durations_and_priorities() {
        let w = workload();
        for j in w.jobs.iter().filter(|j| j.class != JobClass::Training) {
            assert!(j.service_duration.is_some());
            assert_eq!(j.ps, 0);
        }
        assert!(w.jobs.iter().any(|j| j.class.priority() == Priority::High));
    }

    #[test]
    fn summary_covers_all_jobs() {
        let w = workload();
        let summary = w.summary_by_class();
        let total: usize = summary.iter().map(|(_, c, _, _, _)| c).sum();
        assert_eq!(total, w.jobs.len());
        // Training dominates the job count, echoing Table 2.
        let training = summary.iter().find(|(c, ..)| *c == JobClass::Training).unwrap();
        assert!(training.1 > w.jobs.len() / 2);
    }

    #[test]
    fn training_requests_exceed_ideals_for_overprovisioners() {
        let w = workload();
        for j in w.training_jobs().filter(|j| !j.cpu_starved() && !j.oom_prone()) {
            assert!(j.requested_worker.cpu_millis >= j.ideal_worker.cpu_millis);
        }
    }

    #[test]
    fn owners_are_bounded_by_user_count() {
        let w = workload();
        let users: std::collections::HashSet<&str> =
            w.training_jobs().map(|j| j.owner.as_str()).collect();
        assert!(users.len() <= FleetConfig::default().users);
        assert!(users.len() > 1);
    }
}
