//! Cluster-level weighted greedy plan selection (§4.3, Eqns. 11–14).
//!
//! Each job contributes a set of Pareto-frontier plan candidates; the
//! cluster brain must pick at most one per job without exceeding the free
//! cluster capacity `S`, maximizing `Σ RE(Aʲ)·WG(Aʲ)` where
//! `RE = TG/RC` (resource efficiency) and `WG` is a priority weight that
//! favours jobs with a short remaining time:
//!
//! ```text
//! WG(Aʲ) = 1 / (Φ_sp / Ψ_thp + ε)^ρ          (Eqn. 14)
//! ```
//!
//! At AntGroup `ρ = 2.5` "to complete shorter jobs quicker and release the
//! resources"; `ρ → 0` treats all jobs equally, `ρ < 0` favours long jobs.

use serde::{Deserialize, Serialize};

use crate::scaling::PlanCandidate;

/// Free cluster capacity available for (re)allocation: the constraint
/// `Σ Aʲ ≤ S` of Eqn. 13.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterCapacity {
    /// Free CPU cores.
    pub cpu_cores: f64,
    /// Free memory, GB.
    pub mem_gb: f64,
}

impl ClusterCapacity {
    /// True if an *additional* demand of (`cpu`, `mem`) fits.
    fn fits(&self, cpu: f64, mem: f64) -> bool {
        cpu <= self.cpu_cores + 1e-9 && mem <= self.mem_gb + 1e-9
    }

    fn consume(&mut self, cpu: f64, mem: f64) {
        self.cpu_cores -= cpu;
        self.mem_gb -= mem;
    }
}

/// Weighted-greedy hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GreedyConfig {
    /// Priority exponent `ρ` (AntGroup default 2.5).
    pub rho: f64,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        GreedyConfig { rho: 2.5 }
    }
}

/// Division-by-zero guard `ε` of Eqn. 14 (seconds).
const EPSILON: f64 = 1.0;

/// One job's reallocation request: its current footprint, remaining work,
/// and candidate plans (typically the NSGA-II Pareto front).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobCandidates {
    /// Opaque job identifier (index into the caller's tables).
    pub job_id: u64,
    /// CPU cores currently held (released if the plan changes footprint).
    pub current_cpu: f64,
    /// Memory (GB) currently held.
    pub current_mem_gb: f64,
    /// Remaining samples to train, `Φ_sp`.
    pub remaining_samples: f64,
    /// Candidate plans.
    pub candidates: Vec<PlanCandidate>,
}

/// A selected plan for one job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectedPlan {
    /// Which job this plan belongs to.
    pub job_id: u64,
    /// The chosen candidate.
    pub plan: PlanCandidate,
    /// The benefit score `RE·WG` under which it was picked.
    pub benefit: f64,
}

/// The priority weight `WG(Aʲ)` of Eqn. 14: remaining time is
/// `Φ_sp / Ψ_thp`, and shorter jobs get larger weight for `ρ > 0`.
pub fn priority_weight(
    remaining_samples: f64,
    predicted_throughput: f64,
    config: &GreedyConfig,
) -> f64 {
    let remaining_time = remaining_samples.max(0.0) / predicted_throughput.max(1e-9) + EPSILON;
    remaining_time.powf(-config.rho)
}

/// Weighted greedy selection: picks at most one candidate per job,
/// maximizing `Σ RE·WG` subject to the free capacity.
///
/// Classic greedy over (job, candidate) pairs sorted by benefit density:
/// repeatedly take the feasible pair with the highest `RE·WG`, charging only
/// the *additional* footprint (a job's current resources are reusable).
/// Jobs whose candidates all have non-positive gain are left unchanged.
pub fn select_plans(
    jobs: &[JobCandidates],
    capacity: ClusterCapacity,
    config: &GreedyConfig,
) -> Vec<SelectedPlan> {
    #[derive(Clone, Copy)]
    struct Scored {
        job_idx: usize,
        cand_idx: usize,
        benefit: f64,
        extra_cpu: f64,
        extra_mem: f64,
    }

    let mut scored: Vec<Scored> = Vec::new();
    for (job_idx, job) in jobs.iter().enumerate() {
        for (cand_idx, cand) in job.candidates.iter().enumerate() {
            if cand.throughput_gain <= 0.0 {
                continue;
            }
            let wg = priority_weight(job.remaining_samples, cand.predicted_throughput, config);
            let benefit = cand.resource_efficiency() * wg;
            // Only additional resources count against free capacity.
            let extra_cpu = (cand.allocation.total_cpu() - job.current_cpu).max(0.0);
            let extra_mem = (cand.allocation.total_mem_gb() - job.current_mem_gb).max(0.0);
            scored.push(Scored { job_idx, cand_idx, benefit, extra_cpu, extra_mem });
        }
    }
    scored.sort_by(|a, b| b.benefit.partial_cmp(&a.benefit).expect("NaN benefit"));

    let mut remaining = capacity;
    let mut taken = vec![false; jobs.len()];
    let mut selections = Vec::new();
    for s in scored {
        if taken[s.job_idx] || !remaining.fits(s.extra_cpu, s.extra_mem) {
            continue;
        }
        taken[s.job_idx] = true;
        remaining.consume(s.extra_cpu, s.extra_mem);
        selections.push(SelectedPlan {
            job_id: jobs[s.job_idx].job_id,
            plan: jobs[s.job_idx].candidates[s.cand_idx],
            benefit: s.benefit,
        });
    }
    selections
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ResourceAllocation;
    use dlrover_perfmodel::JobShape;

    fn candidate(w: u32, cpu: f64, thp: f64, gain: f64) -> PlanCandidate {
        let alloc =
            ResourceAllocation::new(JobShape::new(w, 1, cpu, cpu, 512), cpu * 2.0, cpu * 2.0);
        PlanCandidate {
            allocation: alloc,
            predicted_throughput: thp,
            resource_cost: alloc.total_cpu() * 0.033 + alloc.total_mem_gb() * 0.0045,
            throughput_gain: gain,
            exec: dlrover_perfmodel::ExecPlan::default(),
        }
    }

    fn job(id: u64, remaining: f64, candidates: Vec<PlanCandidate>) -> JobCandidates {
        JobCandidates {
            job_id: id,
            current_cpu: 2.0,
            current_mem_gb: 4.0,
            remaining_samples: remaining,
            candidates,
        }
    }

    #[test]
    fn weight_increases_for_shorter_jobs_with_positive_rho() {
        let cfg = GreedyConfig::default();
        let short = priority_weight(1_000.0, 100.0, &cfg);
        let long = priority_weight(1_000_000.0, 100.0, &cfg);
        assert!(short > long);
    }

    #[test]
    fn rho_zero_equalises_weights() {
        let cfg = GreedyConfig { rho: 0.0 };
        let a = priority_weight(10.0, 1.0, &cfg);
        let b = priority_weight(1e9, 1.0, &cfg);
        assert!((a - 1.0).abs() < 1e-12);
        assert!((b - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_rho_prefers_long_jobs() {
        let cfg = GreedyConfig { rho: -1.0 };
        let short = priority_weight(1_000.0, 100.0, &cfg);
        let long = priority_weight(1_000_000.0, 100.0, &cfg);
        assert!(long > short);
    }

    #[test]
    fn epsilon_guards_zero_remaining() {
        let cfg = GreedyConfig::default();
        let w = priority_weight(0.0, 100.0, &cfg);
        assert!(w.is_finite());
    }

    #[test]
    fn selects_best_candidate_per_job() {
        let j = job(
            1,
            1_000_000.0,
            vec![
                candidate(2, 2.0, 120.0, 20.0), // efficient small bump
                candidate(16, 16.0, 200.0, 100.0),
            ],
        );
        let picks = select_plans(
            &[j],
            ClusterCapacity { cpu_cores: 1_000.0, mem_gb: 10_000.0 },
            &GreedyConfig::default(),
        );
        assert_eq!(picks.len(), 1);
        // Whatever wins must be the benefit-maximal feasible candidate.
        assert!(picks[0].benefit > 0.0);
    }

    #[test]
    fn at_most_one_plan_per_job() {
        let j = job(7, 1e6, vec![candidate(2, 2.0, 120.0, 20.0), candidate(4, 4.0, 150.0, 50.0)]);
        let picks = select_plans(
            &[j.clone(), j],
            ClusterCapacity { cpu_cores: 1e6, mem_gb: 1e6 },
            &GreedyConfig::default(),
        );
        assert_eq!(picks.len(), 2);
    }

    #[test]
    fn capacity_constraint_respected() {
        // Each candidate needs 16*2=32 extra cores beyond the current 2.
        let jobs: Vec<JobCandidates> =
            (0..10).map(|i| job(i, 1e6, vec![candidate(16, 2.0, 200.0, 100.0)])).collect();
        let per_job_extra = jobs[0].candidates[0].allocation.total_cpu() - 2.0;
        let capacity = ClusterCapacity { cpu_cores: per_job_extra * 3.0 + 1.0, mem_gb: 1e9 };
        let picks = select_plans(&jobs, capacity, &GreedyConfig::default());
        assert_eq!(picks.len(), 3, "only 3 jobs fit the CPU budget");
    }

    #[test]
    fn memory_constraint_respected() {
        let jobs: Vec<JobCandidates> =
            (0..5).map(|i| job(i, 1e6, vec![candidate(8, 4.0, 150.0, 50.0)])).collect();
        let per_job_mem = jobs[0].candidates[0].allocation.total_mem_gb() - 4.0;
        let capacity = ClusterCapacity { cpu_cores: 1e9, mem_gb: per_job_mem * 2.0 + 0.5 };
        let picks = select_plans(&jobs, capacity, &GreedyConfig::default());
        assert_eq!(picks.len(), 2);
    }

    #[test]
    fn nonpositive_gains_are_skipped() {
        let j = job(1, 1e6, vec![candidate(4, 4.0, 90.0, -10.0), candidate(4, 4.0, 100.0, 0.0)]);
        let picks = select_plans(
            &[j],
            ClusterCapacity { cpu_cores: 1e9, mem_gb: 1e9 },
            &GreedyConfig::default(),
        );
        assert!(picks.is_empty());
    }

    #[test]
    fn short_jobs_win_contention_with_positive_rho() {
        // Two identical candidates; only capacity for one. The job with
        // fewer remaining samples should be picked (ρ = 2.5 > 0).
        let cand = candidate(8, 4.0, 150.0, 50.0);
        let short = JobCandidates { remaining_samples: 1e4, ..job(1, 0.0, vec![cand]) };
        let long = JobCandidates { remaining_samples: 1e8, ..job(2, 0.0, vec![cand]) };
        let extra = cand.allocation.total_cpu() - 2.0;
        let picks = select_plans(
            &[long, short],
            ClusterCapacity { cpu_cores: extra + 0.5, mem_gb: 1e9 },
            &GreedyConfig::default(),
        );
        assert_eq!(picks.len(), 1);
        assert_eq!(picks[0].job_id, 1, "short job must win");
    }

    #[test]
    fn empty_input_is_empty_output() {
        let picks = select_plans(
            &[],
            ClusterCapacity { cpu_cores: 10.0, mem_gb: 10.0 },
            &GreedyConfig::default(),
        );
        assert!(picks.is_empty());
    }

    #[test]
    fn selection_respects_capacity_under_random_inputs() {
        // Deterministic pseudo-random stress: many jobs, many candidates,
        // tight capacity — the additional footprint must never exceed it
        // and each job appears at most once.
        let mut state = 9u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f64
        };
        for trial in 0..50 {
            let jobs: Vec<JobCandidates> = (0..8)
                .map(|id| {
                    let candidates = (0..4)
                        .map(|_| {
                            let w = 1 + (next() as u32 % 16);
                            let cpu = 1.0 + next() % 16.0;
                            candidate(w, cpu, 50.0 + next(), next() - 300.0)
                        })
                        .collect();
                    JobCandidates {
                        job_id: id,
                        current_cpu: next() % 32.0,
                        current_mem_gb: next() % 64.0,
                        remaining_samples: next() * 1e4,
                        candidates,
                    }
                })
                .collect();
            let capacity = ClusterCapacity { cpu_cores: next() % 200.0, mem_gb: next() % 400.0 };
            let picks = select_plans(&jobs, capacity, &GreedyConfig::default());
            let mut seen = std::collections::HashSet::new();
            let mut extra_cpu = 0.0;
            let mut extra_mem = 0.0;
            for p in &picks {
                assert!(seen.insert(p.job_id), "trial {trial}: job picked twice");
                assert!(p.plan.throughput_gain > 0.0);
                let job = jobs.iter().find(|j| j.job_id == p.job_id).unwrap();
                extra_cpu += (p.plan.allocation.total_cpu() - job.current_cpu).max(0.0);
                extra_mem += (p.plan.allocation.total_mem_gb() - job.current_mem_gb).max(0.0);
            }
            assert!(
                extra_cpu <= capacity.cpu_cores + 1e-6,
                "trial {trial}: cpu over budget {extra_cpu} > {}",
                capacity.cpu_cores
            );
            assert!(
                extra_mem <= capacity.mem_gb + 1e-6,
                "trial {trial}: mem over budget {extra_mem} > {}",
                capacity.mem_gb
            );
        }
    }

    #[test]
    fn shrinking_plans_cost_no_capacity() {
        // Candidate footprint below current usage: fits even a full cluster.
        let mut j = job(1, 1e6, vec![candidate(1, 0.5, 110.0, 10.0)]);
        j.current_cpu = 100.0;
        j.current_mem_gb = 100.0;
        let picks = select_plans(
            &[j],
            ClusterCapacity { cpu_cores: 0.0, mem_gb: 0.0 },
            &GreedyConfig::default(),
        );
        assert_eq!(picks.len(), 1);
    }
}
