//! The DLRover-RM per-job policy: the three-stage algorithm (§4.3).
//!
//! * **Stage 1 — pre-scaling**: the caller seeds the policy with a
//!   warm-start allocation from the config DB (Algorithm 1), so the job
//!   begins near its final configuration instead of from scratch.
//! * **Stage 2 — auto-scaling**: the policy accumulates profiler
//!   observations; while the resource–performance model is under-determined
//!   (fewer distinct shapes than coefficients) it makes small *exploration*
//!   moves, then fits the model with NNLS and generates Pareto plan
//!   candidates with NSGA-II, adopting the most resource-efficient plan
//!   whose predicted gain clears a threshold.
//! * **Stage 3 — post-scaling**: every transition uses *seamless migration*
//!   (the job master charges only the flash-checkpoint handoff), and
//!   OOM prevention / straggler pacing run inside the job master.

use dlrover_master::{JobRuntimeProfile, PolicyDecision, ReconfigRequest, SchedulerPolicy};
use dlrover_optimizer::{
    NsgaPlanGenerator, PlanSearchSpace, PriceTable, ReconfigSpace, ResourceAllocation,
    ScalingAlgorithm, ScalingOverheadModel,
};
use dlrover_perfmodel::ExecPlan;
use dlrover_perfmodel::{JobShape, ThroughputObservation, WorkloadConstants};
use dlrover_pstrain::MigrationStrategy;
use dlrover_sim::{RngStreams, StreamRng};
use serde::{Deserialize, Serialize};

/// Tunables for the DLRover-RM policy.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DlroverPolicyConfig {
    /// Allocation search space.
    pub space: PlanSearchSpace,
    /// Unit prices for `RC`.
    pub prices: PriceTable,
    /// Overhead model for `TG` (seamless).
    pub overhead: ScalingOverheadModel,
    /// Workload constants assumed for fitting.
    pub constants: WorkloadConstants,
    /// Experiment seed for the NSGA-II RNG.
    pub seed: u64,
    /// Optional reconfiguration action space (Rubick-style execution-plan
    /// search). `None` (the default) keeps the policy byte-identical to the
    /// resource-only search: the NSGA genome stays at 4 genes, no
    /// [`ReconfigRequest`] is ever attached, and degraded-job gating is
    /// inert. `Some` widens stage 2b to joint (allocation, execution-plan)
    /// candidates.
    pub reconfig: Option<ReconfigSpace>,
}

impl DlroverPolicyConfig {
    /// Sets the overhead model's worker-startup expectation from the
    /// cluster's startup-latency model at the given utilisation, keeping
    /// the TG estimate (Eqn. 8) honest about how long new pods really take
    /// in the current environment.
    pub fn with_expected_startup(mut self, startup_seconds: f64) -> Self {
        self.overhead.worker_startup_s = startup_seconds.max(0.0);
        self
    }
}

/// Distinct shapes required before trusting the fit (≥ number of model
/// coefficients).
const MIN_DISTINCT_SHAPES: usize = 5;
/// Minimum relative throughput gain to act on a plan (hysteresis).
const IMPROVEMENT_THRESHOLD: f64 = 0.05;

/// The DLRover-RM scheduler policy.
pub struct DlroverPolicy {
    config: DlroverPolicyConfig,
    current: ResourceAllocation,
    observations: Vec<ThroughputObservation>,
    rng: StreamRng,
    explore_step: usize,
    generator: NsgaPlanGenerator,
}

impl DlroverPolicy {
    /// Creates the policy starting from `warm_start` (stage 1 output).
    pub fn new(warm_start: ResourceAllocation, config: DlroverPolicyConfig) -> Self {
        let rng = RngStreams::new(config.seed).stream("dlrover-policy");
        let generator = NsgaPlanGenerator {
            space: config.space,
            prices: config.prices,
            overhead: config.overhead,
            reconfig: config.reconfig,
            ..NsgaPlanGenerator::default()
        };
        DlroverPolicy {
            config,
            current: warm_start,
            observations: Vec::new(),
            rng,
            explore_step: 0,
            generator,
        }
    }

    /// Seeds the policy with historical profiling observations.
    ///
    /// The config DB stores "similarity information (e.g., time series
    /// information)" alongside configurations; a warm-started job therefore
    /// begins with an already-identifiable resource–performance model and
    /// can skip the exploration phase entirely — this is why warm-started
    /// jobs reach their final configuration with so few scalings (Fig. 9).
    pub fn with_history(mut self, observations: Vec<ThroughputObservation>) -> Self {
        self.observations.extend(observations);
        self
    }

    /// A conservative default start when no history exists (cold start).
    pub fn cold_start_allocation(space: &PlanSearchSpace, batch: u32) -> ResourceAllocation {
        let shape = JobShape::new(
            space.workers.0.max(2),
            space.ps.0.max(1),
            (space.worker_cpu.0 * 2.0).min(space.worker_cpu.1),
            (space.ps_cpu.0 * 2.0).min(space.ps_cpu.1),
            batch,
        );
        ResourceAllocation::new(
            shape,
            shape.worker_cpu * space.worker_mem_per_cpu,
            shape.ps_cpu * space.ps_mem_per_cpu,
        )
    }

    fn distinct_shapes(&self) -> usize {
        dlrover_perfmodel::distinct_shape_count(&self.observations)
    }

    /// Exploration move: perturb one dimension at a time to make the NNLS
    /// system identifiable. Moves are *multiplicative* (doubling workers,
    /// 1.5× CPU) so the exploration phase itself already climbs toward a
    /// sane shape — this is what gives DLRover-RM its fast ramp in the
    /// cold-start experiment (Fig. 10). Cycles workers → PS CPU → worker
    /// CPU → PS count.
    fn explore(&mut self) -> ResourceAllocation {
        let space = &self.config.space;
        let mut next = self.current;
        match self.explore_step % 4 {
            0 => {
                next.shape.workers = (next.shape.workers * 2).min(space.workers.1);
            }
            1 => {
                next.shape.ps_cpu = (next.shape.ps_cpu * 1.5).min(space.ps_cpu.1);
                next.ps_mem_gb = next.shape.ps_cpu * space.ps_mem_per_cpu;
            }
            2 => {
                next.shape.worker_cpu = (next.shape.worker_cpu * 1.5).min(space.worker_cpu.1);
                next.worker_mem_gb = next.shape.worker_cpu * space.worker_mem_per_cpu;
            }
            _ => {
                next.shape.ps = (next.shape.ps * 2).min(space.ps.1);
            }
        }
        self.explore_step += 1;
        next
    }
}

impl SchedulerPolicy for DlroverPolicy {
    fn name(&self) -> &str {
        "dlrover-rm"
    }

    fn initial_allocation(&mut self) -> ResourceAllocation {
        self.current
    }

    fn adjust(&mut self, profile: &JobRuntimeProfile) -> Option<PolicyDecision> {
        if let Some(obs) = profile.observation {
            self.observations.push(obs);
        }

        // Reconfiguration gate: a degraded job (lost pods, live fallback
        // shape, OOM recovery) holds both its shape and its execution plan
        // until the job master reports it healthy again — reconfiguring
        // mid-recovery would stack a second migration pause on top of the
        // fault handling (§4.4). Gated on the flag so the resource-only
        // policy keeps its pre-reconfiguration behaviour bit-for-bit.
        if self.config.reconfig.is_some() && profile.degraded {
            return None;
        }

        // Stage 2a: online model fitting needs shape diversity.
        if self.distinct_shapes() < MIN_DISTINCT_SHAPES {
            let next = self.explore();
            if next != self.current {
                self.current = next;
                return Some(PolicyDecision {
                    allocation: next,
                    strategy: MigrationStrategy::Seamless,
                    reconfig: None,
                });
            }
            // Every exploration arm is clamped at the search-space bounds:
            // fall through and fit with whatever shapes exist (the NNLS
            // ridge keeps an under-determined system solvable) instead of
            // idling forever.
        }

        // Stage 2b: fit + NSGA-II candidates.
        let (model, _rmsle) =
            dlrover_perfmodel::ThroughputModel::fit(self.config.constants, &self.observations)
                .ok()?;
        // `plan_throughput` is a bit-exact identity for the default plan, so
        // this is the legacy `model.throughput` whenever reconfiguration is
        // off (or has not fired yet).
        let current_exec = profile.exec;
        let current_thp =
            dlrover_optimizer::plan_throughput(&model, &self.current.shape, &current_exec);
        let candidates = self.generator.candidates(&model, &self.current, &mut self.rng);
        // Rank by the paper's benefit RE(A)·WG(A) (Eqns. 11–14): resource
        // efficiency weighted by the completion-time priority, which pushes
        // jobs with lots of remaining work toward higher-throughput plans.
        let greedy_cfg = dlrover_optimizer::GreedyConfig::default();
        let benefit = |c: &dlrover_optimizer::PlanCandidate| {
            c.resource_efficiency()
                * dlrover_optimizer::greedy::priority_weight(
                    profile.remaining_samples as f64,
                    c.predicted_throughput,
                    &greedy_cfg,
                )
        };
        let best = candidates
            .into_iter()
            .max_by(|a, b| benefit(a).partial_cmp(&benefit(b)).expect("NaN benefit"));

        // Growth: act on meaningful throughput gains (max TG side of Eqn 9).
        if let Some(mut best) = best {
            // The generator prices candidates against the *default* plan;
            // once a previous reconfiguration has fired, re-score the winner
            // against the plan the job actually runs so the hysteresis gate
            // compares like with like.
            if self.config.reconfig.is_some() && current_exec != ExecPlan::default() {
                best = self.generator.score_with_plan(
                    &model,
                    &self.current,
                    &current_exec,
                    best.allocation,
                    best.exec,
                );
            }
            if best.throughput_gain >= IMPROVEMENT_THRESHOLD * current_thp {
                self.current = best.allocation;
                // Ask for a relayout when the replica factor changes: the
                // embedding shards must be re-spread across the new
                // replication layout anyway, so the LPT pass rides the same
                // window for free.
                let reconfig = match self.config.reconfig {
                    Some(space) if best.exec != current_exec => Some(ReconfigRequest {
                        target: best.exec,
                        relayout: space.allow_relayout
                            && best.exec.ps_replicas != current_exec.ps_replicas,
                    }),
                    _ => None,
                };
                return Some(PolicyDecision {
                    allocation: best.allocation,
                    strategy: MigrationStrategy::Seamless,
                    reconfig,
                });
            }
        }

        // Rightsizing: no gain available — minimise RC at (almost) constant
        // throughput (the min-RC side of Eqn 9). This is what lifts fleet
        // utilisation for over-provisioned jobs (Fig. 14).
        let lean = dlrover_optimizer::rightsize_search(
            &model,
            &self.config.space,
            &self.config.prices,
            self.current.shape.batch_size,
            current_thp * 0.97,
        )?;
        let current_cost = self.config.prices.resource_cost(&self.current);
        if self.config.prices.resource_cost(&lean) < current_cost * 0.9 {
            self.current = lean;
            return Some(PolicyDecision {
                allocation: lean,
                strategy: MigrationStrategy::Seamless,
                reconfig: None,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrover_perfmodel::{ModelCoefficients, ThroughputModel};
    use dlrover_sim::SimTime;

    fn truth() -> ThroughputModel {
        ThroughputModel::new(WorkloadConstants::default(), ModelCoefficients::paper_reference())
    }

    fn profile_for(alloc: &ResourceAllocation, remaining: u64) -> JobRuntimeProfile {
        let m = truth();
        JobRuntimeProfile {
            job_id: 1,
            at: SimTime::ZERO,
            throughput: m.throughput(&alloc.shape),
            remaining_samples: remaining,
            observation: Some(ThroughputObservation {
                shape: alloc.shape,
                iter_time: m.iter_time(&alloc.shape),
            }),
            ps_memory_used: 1,
            ps_memory_alloc: 1_000_000_000,
            exec: dlrover_perfmodel::ExecPlan::default(),
            degraded: false,
        }
    }

    fn start_alloc() -> ResourceAllocation {
        ResourceAllocation::new(JobShape::new(2, 1, 2.0, 2.0, 512), 8.0, 16.0)
    }

    #[test]
    fn explores_until_identifiable_then_optimizes() {
        let mut p = DlroverPolicy::new(start_alloc(), DlroverPolicyConfig::default());
        let mut alloc = p.initial_allocation();
        let mut decisions = 0;
        let mut explored_shapes = vec![alloc.shape];
        // Feed truthful profiles; the policy should explore, fit, then
        // jump to a much better configuration.
        for _ in 0..12 {
            let prof = profile_for(&alloc, 100_000_000);
            if let Some(d) = p.adjust(&prof) {
                decisions += 1;
                alloc = d.allocation;
                explored_shapes.push(alloc.shape);
                assert_eq!(d.strategy, MigrationStrategy::Seamless);
            }
        }
        assert!(decisions >= 5, "policy never moved");
        let m = truth();
        let final_thp = m.throughput(&alloc.shape);
        let start_thp = m.throughput(&start_alloc().shape);
        assert!(
            final_thp > 3.0 * start_thp,
            "no meaningful improvement: {start_thp} -> {final_thp}"
        );
    }

    #[test]
    fn converges_and_stops_churning() {
        let mut p = DlroverPolicy::new(start_alloc(), DlroverPolicyConfig::default());
        let mut alloc = p.initial_allocation();
        for _ in 0..20 {
            let prof = profile_for(&alloc, 100_000_000);
            if let Some(d) = p.adjust(&prof) {
                alloc = d.allocation;
            }
        }
        // After convergence, further truthful profiles produce no moves.
        let mut extra_moves = 0;
        for _ in 0..5 {
            let prof = profile_for(&alloc, 100_000_000);
            if p.adjust(&prof).is_some() {
                extra_moves += 1;
            }
        }
        assert!(extra_moves <= 1, "policy keeps churning: {extra_moves} late moves");
    }

    #[test]
    fn exploration_respects_search_space() {
        let cfg = DlroverPolicyConfig {
            space: PlanSearchSpace {
                workers: (1, 3),
                ps: (1, 2),
                worker_cpu: (1.0, 4.0),
                ps_cpu: (1.0, 4.0),
                worker_mem_per_cpu: 4.0,
                ps_mem_per_cpu: 8.0,
            },
            ..Default::default()
        };
        let mut p = DlroverPolicy::new(start_alloc(), cfg.clone());
        let mut alloc = p.initial_allocation();
        for _ in 0..16 {
            let prof = profile_for(&alloc, 1_000_000);
            if let Some(d) = p.adjust(&prof) {
                alloc = d.allocation;
                assert!(alloc.shape.workers <= cfg.space.workers.1);
                assert!(alloc.shape.ps <= cfg.space.ps.1);
                assert!(alloc.shape.worker_cpu <= cfg.space.worker_cpu.1 + 1e-9);
                assert!(alloc.shape.ps_cpu <= cfg.space.ps_cpu.1 + 1e-9);
            }
        }
    }

    #[test]
    fn cold_start_is_modest() {
        let space = PlanSearchSpace::default();
        let a = DlroverPolicy::cold_start_allocation(&space, 512);
        assert!(a.shape.workers <= 4);
        assert!(a.total_cpu() < 64.0);
    }

    #[test]
    fn name_is_stable() {
        let p = DlroverPolicy::new(start_alloc(), DlroverPolicyConfig::default());
        assert_eq!(p.name(), "dlrover-rm");
    }

    /// Truthful observations at enough distinct shapes to make the NNLS
    /// system identifiable without an exploration phase.
    fn history() -> Vec<ThroughputObservation> {
        let m = truth();
        [
            JobShape::new(4, 2, 4.0, 4.0, 64),
            JobShape::new(8, 2, 8.0, 4.0, 64),
            JobShape::new(16, 1, 8.0, 0.25, 64),
            JobShape::new(8, 4, 8.0, 8.0, 64),
            JobShape::new(2, 1, 2.0, 2.0, 64),
            JobShape::new(12, 3, 6.0, 2.0, 64),
        ]
        .iter()
        .map(|s| ThroughputObservation { shape: *s, iter_time: m.iter_time(s) })
        .collect()
    }

    /// A PS-squeezed job in a space pinned to its current resources: the
    /// only improvement the widened search can offer is an execution-plan
    /// change, so the decision must carry a [`ReconfigRequest`].
    fn squeezed_config() -> (ResourceAllocation, DlroverPolicyConfig) {
        let alloc = ResourceAllocation::new(JobShape::new(16, 1, 8.0, 0.25, 64), 32.0, 4.0);
        let cfg = DlroverPolicyConfig {
            space: PlanSearchSpace {
                workers: (16, 16),
                ps: (1, 1),
                worker_cpu: (8.0, 8.0),
                ps_cpu: (0.25, 0.25),
                worker_mem_per_cpu: 4.0,
                ps_mem_per_cpu: 16.0,
            },
            reconfig: Some(ReconfigSpace::default()),
            ..Default::default()
        };
        (alloc, cfg)
    }

    #[test]
    fn reconfig_fires_under_ps_contention() {
        let (alloc, cfg) = squeezed_config();
        let mut p = DlroverPolicy::new(alloc, cfg).with_history(history());
        let d = p.adjust(&profile_for(&alloc, 100_000_000)).expect("policy should act");
        assert_eq!(d.allocation, alloc, "the pinned space forbids resource moves");
        let req = d.reconfig.expect("only an execution-plan change can clear the gate");
        assert!(req.target != ExecPlan::default(), "target plan must differ from default");
        assert_eq!(d.strategy, MigrationStrategy::Seamless);
    }

    #[test]
    fn degraded_jobs_hold_their_shape() {
        let (alloc, cfg) = squeezed_config();
        let mut p = DlroverPolicy::new(alloc, cfg).with_history(history());
        let mut prof = profile_for(&alloc, 100_000_000);
        prof.degraded = true;
        assert!(p.adjust(&prof).is_none(), "degraded jobs must not be reconfigured");
        // Once the master reports the job healthy again, the plan search
        // resumes.
        prof.degraded = false;
        assert!(p.adjust(&prof).is_some());
    }

    #[test]
    fn flag_off_never_attaches_reconfig() {
        let mut p = DlroverPolicy::new(start_alloc(), DlroverPolicyConfig::default());
        let mut alloc = p.initial_allocation();
        for _ in 0..12 {
            if let Some(d) = p.adjust(&profile_for(&alloc, 100_000_000)) {
                assert!(d.reconfig.is_none(), "reconfig must stay off by default");
                alloc = d.allocation;
            }
        }
    }
}
