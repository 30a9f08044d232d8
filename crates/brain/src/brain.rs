//! The cluster brain: admission (warm-start) + cluster-level replanning.
//!
//! Per-job intelligence lives in [`crate::DlroverPolicy`]; this type owns
//! what must be *global*: the config DB and the weighted-greedy arbitration
//! of the cluster's free capacity across jobs (Eqns. 11–14). The paper's
//! workflow: profilers report to the brain's optimizer, the optimizer
//! generates candidate plans per job, and the greedy selection picks the
//! cluster-wide execution plans.

use dlrover_optimizer::{
    select_plans, ClusterCapacity, GreedyConfig, JobCandidates, JobMetadata, NsgaPlanGenerator,
    ResourceAllocation, ScalingAlgorithm, SelectedPlan, WarmStartConfig,
};
use dlrover_perfmodel::ThroughputModel;
use dlrover_sim::{RngStreams, SimTime, StreamRng};
use dlrover_telemetry::{EventKind, SpanCategory, Telemetry};

use crate::configdb::ConfigDb;
use crate::policy::DlroverPolicy;

/// Per-job input to a cluster-level replanning round.
#[derive(Debug, Clone)]
pub struct ReplanInput {
    /// Job identifier.
    pub job_id: u64,
    /// Current allocation.
    pub current: ResourceAllocation,
    /// Remaining samples (`Φ_sp` for the priority weight).
    pub remaining_samples: u64,
    /// The job's fitted resource–performance model.
    pub model: ThroughputModel,
    /// The job's master reported degraded mode (failure budget drained or
    /// scale-out repeatedly denied). Degraded jobs are held at their live
    /// shape: handing them more resources they cannot reliably hold would
    /// starve healthy jobs (§5.3's stability goal).
    pub degraded: bool,
}

/// The cluster brain.
pub struct ClusterBrain {
    config_db: ConfigDb,
    warm_start: WarmStartConfig,
    greedy: GreedyConfig,
    generator: NsgaPlanGenerator,
    rng: StreamRng,
    telemetry: Telemetry,
}

/// Stamp of admission and replan events: the brain is clock-free.
const CLOCK: SimTime = SimTime::ZERO;

impl ClusterBrain {
    /// Creates a brain with the given plan generator and greedy settings.
    pub fn new(
        config_db: ConfigDb,
        warm_start: WarmStartConfig,
        greedy: GreedyConfig,
        generator: NsgaPlanGenerator,
        seed: u64,
    ) -> Self {
        ClusterBrain {
            config_db,
            warm_start,
            greedy,
            generator,
            rng: RngStreams::new(seed).stream("cluster-brain"),
            telemetry: Telemetry::default(),
        }
    }

    /// Routes this brain's events and metrics into a shared sink.
    pub fn set_telemetry(&mut self, sink: Telemetry) {
        self.telemetry = sink;
    }

    /// The telemetry sink decisions are recorded to.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Stage 1: admission — warm-start from history, falling back to the
    /// conservative cold-start allocation.
    pub fn admit(&self, metadata: &JobMetadata, batch: u32) -> ResourceAllocation {
        let warm = self.config_db.warm_start(metadata, &self.warm_start);
        let warm_start = warm.is_some();
        let alloc = warm
            .unwrap_or_else(|| DlroverPolicy::cold_start_allocation(&self.generator.space, batch));
        // Admission happens before a job id exists; `job: 0` marks that.
        self.telemetry.record(
            CLOCK,
            EventKind::JobAdmitted {
                job: 0,
                workers: alloc.shape.workers,
                ps: alloc.shape.ps,
                warm_start,
            },
        );
        self.telemetry.count(if warm_start { "brain.warm_starts" } else { "brain.cold_starts" }, 1);
        // Admission is an instantaneous verdict in virtual time; record it
        // as a zero-length `policy-eval` span on the brain's lane (track 0).
        self.telemetry.span_complete(CLOCK, CLOCK, SpanCategory::PolicyEval, "admit", 0, None);
        alloc
    }

    /// Cluster-level replanning: generates NSGA-II candidates per job and
    /// arbitrates them with weighted greedy under the free capacity.
    pub fn replan(&mut self, jobs: &[ReplanInput], free: ClusterCapacity) -> Vec<SelectedPlan> {
        let held = jobs.iter().filter(|j| j.degraded).count() as u64;
        if held > 0 {
            self.telemetry.count("brain.degraded_jobs_held", held);
        }
        let candidates: Vec<JobCandidates> = jobs
            .iter()
            .filter(|j| !j.degraded)
            .map(|j| JobCandidates {
                job_id: j.job_id,
                current_cpu: j.current.total_cpu(),
                current_mem_gb: j.current.total_mem_gb(),
                remaining_samples: j.remaining_samples as f64,
                candidates: self.generator.candidates(&j.model, &j.current, &mut self.rng),
            })
            .collect();
        let picks = select_plans(&candidates, free, &self.greedy);
        for p in &picks {
            self.telemetry.record(
                CLOCK,
                EventKind::PlanSelected {
                    job: p.job_id,
                    gain_x1000: (p.plan.throughput_gain.max(0.0) * 1000.0) as u64,
                },
            );
        }
        self.telemetry.count("brain.replan_rounds", 1);
        self.telemetry.span_complete(
            CLOCK,
            CLOCK,
            SpanCategory::Planning,
            &format!("replan j{}", jobs.len()),
            0,
            None,
        );
        picks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrover_perfmodel::{JobShape, ModelCoefficients, WorkloadConstants};

    fn brain() -> ClusterBrain {
        ClusterBrain::new(
            ConfigDb::new(100),
            WarmStartConfig::default(),
            GreedyConfig::default(),
            NsgaPlanGenerator::default(),
            7,
        )
    }

    fn meta(owner: &str) -> JobMetadata {
        JobMetadata {
            model_kind: "dcn".into(),
            owner: owner.into(),
            num_sparse_features: 26,
            embedding_dim: 16,
            dataset_samples: 1_000_000,
            dense_params: 500_000,
        }
    }

    fn small_alloc() -> ResourceAllocation {
        ResourceAllocation::new(JobShape::new(1, 1, 1.0, 1.0, 512), 4.0, 8.0)
    }

    fn truth_model() -> ThroughputModel {
        ThroughputModel::new(WorkloadConstants::default(), ModelCoefficients::paper_reference())
    }

    #[test]
    fn admit_cold_starts_without_history() {
        let b = brain();
        let a = b.admit(&meta("alice"), 512);
        assert!(a.shape.workers >= 1);
        assert!(a.shape.ps >= 1);
    }

    #[test]
    fn admit_warm_starts_with_history() {
        let big = ResourceAllocation::new(JobShape::new(20, 8, 16.0, 16.0, 512), 64.0, 128.0);
        let mut history = ConfigDb::new(100);
        for _ in 0..5 {
            history.record(meta("alice"), big);
        }
        let b = ClusterBrain::new(
            history,
            WarmStartConfig::default(),
            GreedyConfig::default(),
            NsgaPlanGenerator::default(),
            7,
        );
        let a = b.admit(&meta("alice"), 512);
        assert_eq!(a.shape.workers, 20, "history should dominate");
    }

    #[test]
    fn replan_respects_capacity_and_picks_short_jobs_first() {
        let mut b = brain();
        let jobs = vec![
            ReplanInput {
                job_id: 1,
                current: small_alloc(),
                remaining_samples: 10_000, // short job: high WG priority
                model: truth_model(),
                degraded: false,
            },
            ReplanInput {
                job_id: 2,
                current: small_alloc(),
                remaining_samples: 10_000_000_000,
                model: truth_model(),
                degraded: false,
            },
        ];
        // Tight capacity: roughly one upgrade's worth.
        let picks = b.replan(&jobs, ClusterCapacity { cpu_cores: 40.0, mem_gb: 400.0 });
        assert!(!picks.is_empty());
        // Additional footprint must fit the budget.
        let extra: f64 =
            picks.iter().map(|p| p.plan.allocation.total_cpu() - small_alloc().total_cpu()).sum();
        assert!(extra <= 40.0 + 1e-6, "over budget: {extra}");
        // The short job must be served (possibly both fit; then check order).
        assert!(picks.iter().any(|p| p.job_id == 1), "short job starved");
    }

    #[test]
    fn replan_with_ample_capacity_serves_everyone() {
        let mut b = brain();
        let jobs: Vec<ReplanInput> = (0..4)
            .map(|i| ReplanInput {
                job_id: i,
                current: small_alloc(),
                remaining_samples: 1_000_000,
                model: truth_model(),
                degraded: false,
            })
            .collect();
        let picks = b.replan(&jobs, ClusterCapacity { cpu_cores: 1e6, mem_gb: 1e6 });
        assert_eq!(picks.len(), 4);
        for p in &picks {
            assert!(p.plan.throughput_gain > 0.0);
        }
    }

    #[test]
    fn degraded_jobs_are_held_at_their_live_shape() {
        let mut b = brain();
        let jobs = vec![
            ReplanInput {
                job_id: 1,
                current: small_alloc(),
                remaining_samples: 10_000,
                model: truth_model(),
                degraded: true,
            },
            ReplanInput {
                job_id: 2,
                current: small_alloc(),
                remaining_samples: 10_000,
                model: truth_model(),
                degraded: false,
            },
        ];
        let picks = b.replan(&jobs, ClusterCapacity { cpu_cores: 1e6, mem_gb: 1e6 });
        assert!(picks.iter().all(|p| p.job_id != 1), "degraded job must not be upgraded");
        assert!(picks.iter().any(|p| p.job_id == 2), "healthy job still served");
        let snap = b.telemetry().snapshot();
        assert_eq!(snap.metrics.counter("brain.degraded_jobs_held"), 1);
    }

    #[test]
    fn replan_empty_is_empty() {
        let mut b = brain();
        assert!(b.replan(&[], ClusterCapacity { cpu_cores: 10.0, mem_gb: 10.0 }).is_empty());
    }
}
