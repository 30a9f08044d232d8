//! Job-level resource-plan candidate generation (§4.3, scaling stage).
//!
//! After the online fit of the throughput model, DLRover-RM uses NSGA-II to
//! generate allocation candidates on the Pareto frontier of *(Resource Cost,
//! 1/Throughput Gain)*. [`NsgaPlanGenerator`] is that generator; it is one
//! implementation of the [`ScalingAlgorithm`] plug-in trait the paper
//! exposes so "other customized algorithms can be plugged in easily".

use dlrover_perfmodel::{ExecPlan, JobShape, ThroughputModel};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::nsga2::{Nsga2, Nsga2Config};
use crate::plan::{pick_plan, PriceTable, ReconfigSpace, ResourceAllocation, ScalingOverheadModel};

/// One scored plan candidate on (or near) the Pareto frontier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanCandidate {
    /// The proposed allocation.
    pub allocation: ResourceAllocation,
    /// The proposed execution plan (default = keep the job's current mode;
    /// non-default plans come from the widened reconfiguration search).
    pub exec: ExecPlan,
    /// Predicted throughput at this allocation, samples/s.
    pub predicted_throughput: f64,
    /// Resource cost `RC(A)`, USD/hour.
    pub resource_cost: f64,
    /// Throughput gain `TG(A)` over the current allocation, samples/s.
    pub throughput_gain: f64,
}

/// Predicted throughput of `shape` running under execution plan `exec` —
/// the §4.1 model evaluated at the plan's effective batch, with the phase
/// decomposition rewritten by `perfmodel::exec::adjust_phases` (the same
/// physics the simulator applies, so this prediction is self-consistent
/// with the ground truth by construction).
pub fn plan_throughput(model: &ThroughputModel, shape: &JobShape, exec: &ExecPlan) -> f64 {
    let batch = exec.effective_batch(shape.batch_size);
    let shape = JobShape { batch_size: batch, ..*shape };
    let adjusted = exec.adjust_breakdown(model.breakdown(&shape), shape.workers);
    f64::from(shape.workers) * f64::from(batch) / adjusted.total()
}

impl PlanCandidate {
    /// Resource efficiency `RE(A) = TG(A)/RC(A)` (Eqn. 11).
    ///
    /// Defined only for plans with positive cost; zero-cost deltas get the
    /// raw gain (they are free wins).
    pub fn resource_efficiency(&self) -> f64 {
        if self.resource_cost > 1e-9 {
            self.throughput_gain / self.resource_cost
        } else {
            self.throughput_gain
        }
    }
}

/// Bounds of the allocation search space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanSearchSpace {
    /// Worker count range (inclusive).
    pub workers: (u32, u32),
    /// PS count range (inclusive).
    pub ps: (u32, u32),
    /// Worker CPU cores range.
    pub worker_cpu: (f64, f64),
    /// PS CPU cores range.
    pub ps_cpu: (f64, f64),
    /// Memory provisioned per worker CPU core, GB (fixed ratio).
    pub worker_mem_per_cpu: f64,
    /// Memory provisioned per PS CPU core, GB (fixed ratio).
    pub ps_mem_per_cpu: f64,
}

impl Default for PlanSearchSpace {
    fn default() -> Self {
        PlanSearchSpace {
            workers: (1, 32),
            ps: (1, 16),
            worker_cpu: (1.0, 32.0),
            ps_cpu: (1.0, 32.0),
            worker_mem_per_cpu: 4.0,
            ps_mem_per_cpu: 8.0,
        }
    }
}

impl PlanSearchSpace {
    /// Materialises an allocation from a genome `[w, p, λ_w, λ_p]`
    /// (reals rounded to the feasible grid).
    pub fn decode(&self, genome: &[f64], batch_size: u32) -> ResourceAllocation {
        debug_assert_eq!(genome.len(), 4);
        let w = (genome[0].round() as u32).clamp(self.workers.0, self.workers.1);
        let p = (genome[1].round() as u32).clamp(self.ps.0, self.ps.1);
        let cw = genome[2].clamp(self.worker_cpu.0, self.worker_cpu.1);
        let cp = genome[3].clamp(self.ps_cpu.0, self.ps_cpu.1);
        let shape = JobShape::new(w, p, cw, cp, batch_size);
        ResourceAllocation::new(shape, cw * self.worker_mem_per_cpu, cp * self.ps_mem_per_cpu)
    }

    /// Box bounds for the NSGA-II genome.
    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        (
            vec![f64::from(self.workers.0), f64::from(self.ps.0), self.worker_cpu.0, self.ps_cpu.0],
            vec![f64::from(self.workers.1), f64::from(self.ps.1), self.worker_cpu.1, self.ps_cpu.1],
        )
    }
}

/// The plug-in scaling-algorithm API (§4.3 "Plug-in Algorithm API").
///
/// Implementations receive the fitted throughput model and the job's current
/// allocation and return candidate plans; DLRover-RM ships
/// [`NsgaPlanGenerator`], and the baselines crate plugs in Optimus- and
/// ES-style generators through this same trait.
pub trait ScalingAlgorithm {
    /// Generates candidate plans for one job.
    fn candidates<R: Rng + ?Sized>(
        &self,
        model: &ThroughputModel,
        current: &ResourceAllocation,
        rng: &mut R,
    ) -> Vec<PlanCandidate>;
}

/// Cost-minimising rightsizing: the cheapest allocation in `space` whose
/// predicted throughput is at least `target_throughput`.
///
/// This is the `min RC(A)` half of the paper's objective (Eqn. 9): when a
/// job is over-provisioned, no allocation has positive throughput *gain*,
/// but a much cheaper allocation matches the current throughput. A coarse
/// power-of-two grid is plenty here — the throughput surface is smooth in
/// every dimension.
pub fn rightsize_search(
    model: &ThroughputModel,
    space: &PlanSearchSpace,
    prices: &PriceTable,
    batch: u32,
    target_throughput: f64,
) -> Option<ResourceAllocation> {
    let mut best: Option<(f64, ResourceAllocation)> = None;
    let worker_counts = power_count_grid(space.workers.0, space.workers.1);
    let ps_counts = power_count_grid(space.ps.0, space.ps.1);
    let worker_cpus = power_grid(space.worker_cpu.0, space.worker_cpu.1);
    let ps_cpus = power_grid(space.ps_cpu.0, space.ps_cpu.1);
    for &w in &worker_counts {
        for &p in &ps_counts {
            for &cw in &worker_cpus {
                for &cp in &ps_cpus {
                    let shape = JobShape::new(w, p, cw, cp, batch);
                    if model.throughput(&shape) < target_throughput {
                        continue;
                    }
                    let alloc = ResourceAllocation::new(
                        shape,
                        cw * space.worker_mem_per_cpu,
                        cp * space.ps_mem_per_cpu,
                    );
                    let cost = prices.resource_cost(&alloc);
                    if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                        best = Some((cost, alloc));
                    }
                }
            }
        }
    }
    best.map(|(_, a)| a)
}

/// Power-of-two grid over a continuous range, always including the upper
/// boundary (the current allocation may sit there). Shared by
/// [`rightsize_search`] and the well-tuned oracle search.
pub fn power_grid(lo: f64, hi: f64) -> Vec<f64> {
    let mut v = Vec::new();
    let mut c = lo.max(1.0);
    while c <= hi + 1e-9 {
        v.push(c);
        c *= 2.0;
    }
    if v.last().copied().unwrap_or(0.0) < hi - 1e-9 {
        v.push(hi);
    }
    v
}

/// Power-of-two grid over an integer range, boundary included.
pub(crate) fn power_count_grid(lo: u32, hi: u32) -> Vec<u32> {
    let mut v = Vec::new();
    let mut c = lo.max(1);
    while c <= hi {
        v.push(c);
        c = (c * 2).max(c + 1);
    }
    if v.last().copied().unwrap_or(0) != hi {
        v.push(hi);
    }
    v
}

/// NSGA-II-based Pareto plan generator (the DLRover-RM default).
#[derive(Debug, Clone)]
pub struct NsgaPlanGenerator {
    /// Search-space bounds.
    pub space: PlanSearchSpace,
    /// Unit prices for `RC`.
    pub prices: PriceTable,
    /// Overhead model for `TG`.
    pub overhead: ScalingOverheadModel,
    /// NSGA-II hyper-parameters.
    pub nsga: Nsga2Config,
    /// Optional reconfiguration space. `None` (the default) keeps the
    /// 4-gene resource genome and reproduces the pre-reconfiguration
    /// generator bit-for-bit; `Some` appends a fifth gene that indexes
    /// [`ReconfigSpace::plans`], widening the search from resource amounts
    /// to execution plans (Rubick; DESIGN §13).
    pub reconfig: Option<ReconfigSpace>,
}

impl Default for NsgaPlanGenerator {
    fn default() -> Self {
        NsgaPlanGenerator {
            space: PlanSearchSpace::default(),
            prices: PriceTable::default(),
            overhead: ScalingOverheadModel::default(),
            nsga: Nsga2Config { population: 48, generations: 30 },
            reconfig: None,
        }
    }
}

impl NsgaPlanGenerator {
    /// Scores a specific allocation against the current one (execution
    /// plan unchanged — the pre-reconfiguration scoring path).
    pub fn score(
        &self,
        model: &ThroughputModel,
        current: &ResourceAllocation,
        allocation: ResourceAllocation,
    ) -> PlanCandidate {
        self.score_against(model.throughput(&current.shape), model, current, allocation)
    }

    /// [`Self::score`] with the current allocation's throughput already
    /// predicted, so a search pays for it once instead of per genome.
    fn score_against(
        &self,
        thp_old: f64,
        model: &ThroughputModel,
        current: &ResourceAllocation,
        allocation: ResourceAllocation,
    ) -> PlanCandidate {
        let thp_new = model.throughput(&allocation.shape);
        let gain = self.overhead.throughput_gain(thp_old, thp_new, current, &allocation);
        PlanCandidate {
            allocation,
            exec: ExecPlan::default(),
            predicted_throughput: thp_new,
            resource_cost: self.prices.resource_cost(&allocation),
            throughput_gain: gain,
        }
    }

    /// Scores an (allocation, execution-plan) pair against the current
    /// allocation running under `current_exec`. The reconfig handoff pause
    /// (`ScalingOverheadModel::reconfig_pause_seconds`) is charged on top
    /// of the resource-scaling pause, and PS replicas are charged in `RC`
    /// via `PriceTable::plan_resource_cost`.
    pub fn score_with_plan(
        &self,
        model: &ThroughputModel,
        current: &ResourceAllocation,
        current_exec: &ExecPlan,
        allocation: ResourceAllocation,
        exec: ExecPlan,
    ) -> PlanCandidate {
        let thp_old = plan_throughput(model, &current.shape, current_exec);
        self.score_plan_against(thp_old, model, current, current_exec, allocation, exec)
    }

    /// [`Self::score_with_plan`] with the current plan's throughput already
    /// priced, so a search pays for it once instead of per genome.
    fn score_plan_against(
        &self,
        thp_old: f64,
        model: &ThroughputModel,
        current: &ResourceAllocation,
        current_exec: &ExecPlan,
        allocation: ResourceAllocation,
        exec: ExecPlan,
    ) -> PlanCandidate {
        let thp_new = plan_throughput(model, &allocation.shape, &exec);
        let mut gain = self.overhead.throughput_gain(thp_old, thp_new, current, &allocation);
        let reconfig_pause = self.overhead.reconfig_pause_seconds(current_exec, &exec, false);
        gain -= thp_new * reconfig_pause / self.overhead.horizon_s.max(1.0);
        PlanCandidate {
            allocation,
            exec,
            predicted_throughput: thp_new,
            resource_cost: self.prices.plan_resource_cost(&allocation, &exec),
            throughput_gain: gain,
        }
    }
}

impl ScalingAlgorithm for NsgaPlanGenerator {
    fn candidates<R: Rng + ?Sized>(
        &self,
        model: &ThroughputModel,
        current: &ResourceAllocation,
        rng: &mut R,
    ) -> Vec<PlanCandidate> {
        let (mut lower, mut upper) = self.space.bounds();
        if self.reconfig.is_some() {
            // Fifth gene: execution-plan index in [0, 1).
            lower.push(0.0);
            upper.push(1.0);
        }
        let batch = current.shape.batch_size;
        // What every genome is scored against is priced once per search:
        // the current throughput, and for the widened search the plan
        // enumeration the fifth gene indexes.
        let current_exec = ExecPlan::default();
        let thp_old = match self.reconfig {
            None => model.throughput(&current.shape),
            Some(_) => plan_throughput(model, &current.shape, &current_exec),
        };
        let exec_plans = self.reconfig.map(|space| space.plans(batch));
        let score = |genome: &[f64]| -> PlanCandidate {
            let alloc = self.space.decode(&genome[..4], batch);
            match &exec_plans {
                None => self.score_against(thp_old, model, current, alloc),
                Some(plans) => {
                    let exec = pick_plan(plans, genome[4]);
                    self.score_plan_against(thp_old, model, current, &current_exec, alloc, exec)
                }
            }
        };

        let evaluate = |genome: &[f64]| -> [f64; 2] {
            let candidate = score(genome);
            let gain = candidate.throughput_gain;
            // Minimize (RC, 1/TG); non-positive gains get a large finite
            // penalty so the sort stays well-defined (Eqn. 9). A gain the
            // model cannot price (all-zero coefficients predict infinite
            // throughput, and ∞ − ∞ is NaN) counts as no gain at all.
            let inv_gain = if gain > 1e-9 {
                1.0 / gain
            } else if gain.is_finite() {
                1e9 - gain
            } else {
                1e9
            };
            [candidate.resource_cost, inv_gain]
        };

        let optimizer = Nsga2::new(evaluate, lower, upper, self.nsga);
        let front = optimizer.run(rng);

        let mut plans: Vec<PlanCandidate> =
            front.iter().map(|p| score(&p.genome)).filter(|c| c.throughput_gain > 0.0).collect();

        // Decoding rounds genomes onto a grid, so distinct genomes can
        // collapse to the same allocation: dedupe, keep the best gain first.
        plans.sort_by(|a, b| b.throughput_gain.partial_cmp(&a.throughput_gain).expect("NaN gain"));
        plans.dedup_by(|a, b| {
            a.exec == b.exec
                && a.allocation.shape.workers == b.allocation.shape.workers
                && a.allocation.shape.ps == b.allocation.shape.ps
                && (a.allocation.shape.worker_cpu - b.allocation.shape.worker_cpu).abs() < 0.5
                && (a.allocation.shape.ps_cpu - b.allocation.shape.ps_cpu).abs() < 0.5
        });
        if self.reconfig.is_some() {
            // Over the widened space the grid collapse can leave dominated
            // stragglers on the list; prune so the returned front never
            // contains a candidate the perfmodel scores as dominated in
            // (RC, TG). Gated on `reconfig` so the legacy path (and its
            // golden digests) is untouched.
            let snapshot = plans.clone();
            plans.retain(|c| {
                !snapshot.iter().any(|o| {
                    (o.resource_cost < c.resource_cost - 1e-12
                        && o.throughput_gain >= c.throughput_gain)
                        || (o.resource_cost <= c.resource_cost
                            && o.throughput_gain > c.throughput_gain + 1e-12)
                })
            });
        }
        plans
    }
}

#[cfg(test)]
mod rightsize_tests {
    use super::*;
    use crate::plan::PriceTable;
    use dlrover_perfmodel::{ModelCoefficients, WorkloadConstants};

    fn model() -> ThroughputModel {
        ThroughputModel::new(WorkloadConstants::default(), ModelCoefficients::paper_reference())
    }

    #[test]
    fn finds_cheaper_allocation_matching_throughput() {
        let m = model();
        let space = PlanSearchSpace::default();
        let prices = PriceTable::default();
        // A very fat allocation...
        let fat = ResourceAllocation::new(JobShape::new(32, 16, 32.0, 32.0, 512), 128.0, 256.0);
        let target = m.throughput(&fat.shape) * 0.95;
        let lean = rightsize_search(&m, &space, &prices, 512, target).expect("found");
        assert!(m.throughput(&lean.shape) >= target);
        assert!(
            prices.resource_cost(&lean) < prices.resource_cost(&fat) * 0.8,
            "rightsizing saved too little: {} vs {}",
            prices.resource_cost(&lean),
            prices.resource_cost(&fat)
        );
    }

    #[test]
    fn impossible_target_gives_none() {
        let m = model();
        let space = PlanSearchSpace::default();
        assert!(rightsize_search(&m, &space, &PriceTable::default(), 512, 1e18).is_none());
    }

    #[test]
    fn zero_target_gives_minimal_allocation() {
        let m = model();
        let space = PlanSearchSpace::default();
        let lean = rightsize_search(&m, &space, &PriceTable::default(), 512, 0.0).unwrap();
        assert_eq!(lean.shape.workers, space.workers.0);
        assert_eq!(lean.shape.ps, space.ps.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrover_perfmodel::{ModelCoefficients, WorkloadConstants};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> ThroughputModel {
        ThroughputModel::new(WorkloadConstants::default(), ModelCoefficients::paper_reference())
    }

    fn small_current() -> ResourceAllocation {
        ResourceAllocation::new(JobShape::new(1, 1, 1.0, 1.0, 512), 4.0, 8.0)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn decode_clamps_to_space() {
        let space = PlanSearchSpace::default();
        let a = space.decode(&[1000.0, -5.0, 99.0, 0.0], 512);
        assert_eq!(a.shape.workers, space.workers.1);
        assert_eq!(a.shape.ps, space.ps.0);
        assert_eq!(a.shape.worker_cpu, space.worker_cpu.1);
        assert_eq!(a.shape.ps_cpu, space.ps_cpu.0);
    }

    #[test]
    fn decode_derives_memory_from_cpu() {
        let space = PlanSearchSpace::default();
        let a = space.decode(&[4.0, 2.0, 8.0, 4.0], 512);
        assert_eq!(a.worker_mem_gb, 8.0 * space.worker_mem_per_cpu);
        assert_eq!(a.ps_mem_gb, 4.0 * space.ps_mem_per_cpu);
    }

    #[test]
    fn generator_finds_improving_plans_from_tiny_allocation() {
        let gen = NsgaPlanGenerator::default();
        let plans = gen.candidates(&model(), &small_current(), &mut rng());
        assert!(!plans.is_empty(), "a 1x1 job must have improving plans");
        for p in &plans {
            assert!(p.throughput_gain > 0.0);
            assert!(p.resource_cost > 0.0);
        }
    }

    #[test]
    fn candidates_span_a_cost_range() {
        // A Pareto front should offer both cheap-small and costly-fast plans.
        let gen = NsgaPlanGenerator::default();
        let plans = gen.candidates(&model(), &small_current(), &mut rng());
        let min_rc = plans.iter().map(|p| p.resource_cost).fold(f64::INFINITY, f64::min);
        let max_rc = plans.iter().map(|p| p.resource_cost).fold(0.0, f64::max);
        assert!(max_rc > 2.0 * min_rc, "front too narrow: [{min_rc}, {max_rc}]");
    }

    #[test]
    fn plans_near_optimal_beat_current_throughput() {
        let gen = NsgaPlanGenerator::default();
        let m = model();
        let cur = small_current();
        let cur_thp = m.throughput(&cur.shape);
        let plans = gen.candidates(&m, &cur, &mut rng());
        let best = plans.iter().map(|p| p.predicted_throughput).fold(0.0, f64::max);
        assert!(best > 2.0 * cur_thp, "best {best} vs current {cur_thp}");
    }

    #[test]
    fn well_provisioned_job_yields_few_or_no_gains() {
        // Start at the top of the search space: nothing should beat it by
        // much once overhead is subtracted.
        let gen = NsgaPlanGenerator::default();
        let m = model();
        let space = PlanSearchSpace::default();
        let top = ResourceAllocation::new(
            JobShape::new(space.workers.1, space.ps.1, space.worker_cpu.1, space.ps_cpu.1, 512),
            space.worker_cpu.1 * space.worker_mem_per_cpu,
            space.ps_cpu.1 * space.ps_mem_per_cpu,
        );
        let plans = gen.candidates(&m, &top, &mut rng());
        let best_gain = plans.iter().map(|p| p.throughput_gain).fold(0.0, f64::max);
        let top_thp = m.throughput(&top.shape);
        assert!(
            best_gain < 0.05 * top_thp,
            "gain {best_gain} suspiciously large vs throughput {top_thp}"
        );
    }

    #[test]
    fn resource_efficiency_orders_sensibly() {
        let cheap_good = PlanCandidate {
            allocation: small_current(),
            exec: ExecPlan::default(),
            predicted_throughput: 0.0,
            resource_cost: 1.0,
            throughput_gain: 10.0,
        };
        let pricey_same = PlanCandidate { resource_cost: 5.0, ..cheap_good };
        assert!(cheap_good.resource_efficiency() > pricey_same.resource_efficiency());
    }

    #[test]
    fn scoring_is_deterministic_and_consistent() {
        let gen = NsgaPlanGenerator::default();
        let m = model();
        let cur = small_current();
        let alloc = ResourceAllocation::new(JobShape::new(8, 4, 8.0, 8.0, 512), 32.0, 64.0);
        let a = gen.score(&m, &cur, alloc);
        let b = gen.score(&m, &cur, alloc);
        assert_eq!(a, b);
        assert!((a.predicted_throughput - m.throughput(&alloc.shape)).abs() < 1e-9);
    }

    #[test]
    fn plan_throughput_on_default_plan_matches_model_exactly() {
        // The widened pricing path must be *bit-identical* to the legacy
        // path on the default plan, or enabling the reconfig layer would
        // perturb runs that never reconfigure.
        let m = model();
        for (w, p) in [(1u32, 1u32), (4, 2), (16, 8)] {
            let s = JobShape::new(w, p, 8.0, 8.0, 512);
            assert_eq!(plan_throughput(&m, &s, &ExecPlan::default()), m.throughput(&s));
        }
    }

    #[test]
    fn sync_mode_beats_async_when_ps_is_squeezed() {
        // Many workers on one starved PS at a small batch: the update term
        // `α_upd·w/(p·λ_p)` dominates, so tree-aggregated sync updates win
        // (the contention regime the `exp reconfig` ablation exercises).
        let m = model();
        let squeezed = JobShape::new(16, 1, 8.0, 0.25, 64);
        let sync = ExecPlan {
            gradient_mode: dlrover_perfmodel::GradientMode::Sync,
            ..ExecPlan::default()
        };
        assert!(
            plan_throughput(&m, &squeezed, &sync)
                > 1.2 * plan_throughput(&m, &squeezed, &ExecPlan::default()),
            "sync should dominate under PS contention"
        );
        // Healthy PS fleet: aggregation buys little, the barrier costs.
        let healthy = JobShape::new(4, 8, 8.0, 16.0, 512);
        assert!(
            plan_throughput(&m, &healthy, &sync)
                < 1.05 * plan_throughput(&m, &healthy, &ExecPlan::default()),
            "sync must not dominate a healthy layout"
        );
    }

    #[test]
    fn widened_generator_finds_exec_plans_under_contention() {
        let gen = NsgaPlanGenerator {
            reconfig: Some(ReconfigSpace::default()),
            // Pin the space to the current envelope so only the execution
            // plan can move — the Rubick "same resource envelope" setting.
            space: PlanSearchSpace {
                workers: (16, 16),
                ps: (1, 1),
                worker_cpu: (8.0, 8.0),
                ps_cpu: (1.0, 1.0),
                ..PlanSearchSpace::default()
            },
            ..NsgaPlanGenerator::default()
        };
        let m = model();
        let cur = ResourceAllocation::new(JobShape::new(16, 1, 8.0, 1.0, 512), 32.0, 8.0);
        let plans = gen.candidates(&m, &cur, &mut rng());
        assert!(!plans.is_empty(), "contended job must have improving exec plans");
        assert!(
            plans.iter().any(|c| !c.exec.is_default()),
            "the winning candidates should reconfigure, not just rescale"
        );
    }

    #[test]
    fn reconfig_none_is_bitwise_legacy() {
        // Same seed, reconfig disabled: the widened generator must return
        // exactly what the legacy generator returned (golden-digest
        // compatibility for every policy built on top).
        let gen = NsgaPlanGenerator::default();
        assert!(gen.reconfig.is_none());
        let a = gen.candidates(&model(), &small_current(), &mut rng());
        let b = gen.candidates(&model(), &small_current(), &mut rng());
        assert_eq!(a, b);
        assert!(a.iter().all(|c| c.exec.is_default()));
    }
}

#[cfg(test)]
mod engine_differential {
    //! `candidates()` against the generator as it stood before the
    //! flat-population engine: the old evaluation closure (a `Vec` per
    //! genome, `ReconfigSpace::decode` re-enumerating the plans each time)
    //! driving `nsga2_reference::run`.

    use super::*;
    use crate::nsga2_reference;
    use dlrover_perfmodel::{ModelCoefficients, WorkloadConstants};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reference_candidates(
        gen: &NsgaPlanGenerator,
        model: &ThroughputModel,
        current: &ResourceAllocation,
        rng: &mut StdRng,
    ) -> Vec<PlanCandidate> {
        let (mut lower, mut upper) = gen.space.bounds();
        if gen.reconfig.is_some() {
            lower.push(0.0);
            upper.push(1.0);
        }
        let batch = current.shape.batch_size;
        let thp_old = model.throughput(&current.shape);

        let evaluate = |genome: &[f64]| -> Vec<f64> {
            let alloc = gen.space.decode(&genome[..4], batch);
            let (gain, rc) = match gen.reconfig {
                None => {
                    let thp_new = model.throughput(&alloc.shape);
                    let gain = gen.overhead.throughput_gain(thp_old, thp_new, current, &alloc);
                    (gain, gen.prices.resource_cost(&alloc))
                }
                Some(space) => {
                    let exec = space.decode(genome[4], batch);
                    let c = gen.score_with_plan(model, current, &ExecPlan::default(), alloc, exec);
                    (c.throughput_gain, c.resource_cost)
                }
            };
            let inv_gain = if gain > 1e-9 { 1.0 / gain } else { 1e9 - gain };
            vec![rc, inv_gain]
        };
        let front = nsga2_reference::run(evaluate, &lower, &upper, gen.nsga, rng);

        let mut plans: Vec<PlanCandidate> = front
            .into_iter()
            .map(|p| match gen.reconfig {
                None => gen.score(model, current, gen.space.decode(&p.genome, batch)),
                Some(space) => gen.score_with_plan(
                    model,
                    current,
                    &ExecPlan::default(),
                    gen.space.decode(&p.genome[..4], batch),
                    space.decode(p.genome[4], batch),
                ),
            })
            .filter(|c| c.throughput_gain > 0.0)
            .collect();
        plans.sort_by(|a, b| b.throughput_gain.partial_cmp(&a.throughput_gain).expect("NaN gain"));
        plans.dedup_by(|a, b| {
            a.exec == b.exec
                && a.allocation.shape.workers == b.allocation.shape.workers
                && a.allocation.shape.ps == b.allocation.shape.ps
                && (a.allocation.shape.worker_cpu - b.allocation.shape.worker_cpu).abs() < 0.5
                && (a.allocation.shape.ps_cpu - b.allocation.shape.ps_cpu).abs() < 0.5
        });
        if gen.reconfig.is_some() {
            let snapshot = plans.clone();
            plans.retain(|c| {
                !snapshot.iter().any(|o| {
                    (o.resource_cost < c.resource_cost - 1e-12
                        && o.throughput_gain >= c.throughput_gain)
                        || (o.resource_cost <= c.resource_cost
                            && o.throughput_gain > c.throughput_gain + 1e-12)
                })
            });
        }
        plans
    }

    #[test]
    fn candidates_and_rng_draws_match_the_old_engine() {
        let model = ThroughputModel::new(
            WorkloadConstants::default(),
            ModelCoefficients::paper_reference(),
        );
        let mut nonempty = 0;
        for seed in 0..64u64 {
            // Starved, balanced and over-provisioned starting points.
            let (w, p) = (1 + (seed % 7) as u32 * 3, 1 + (seed % 5) as u32 * 2);
            let (cw, cp) = (1.0 + (seed % 4) as f64 * 5.0, 1.0 + (seed % 3) as f64 * 7.5);
            let current =
                ResourceAllocation::new(JobShape::new(w, p, cw, cp, 512), cw * 4.0, cp * 8.0);
            for reconfig in [None, Some(ReconfigSpace::default())] {
                let gen = NsgaPlanGenerator { reconfig, ..NsgaPlanGenerator::default() };
                let mut rng_new = StdRng::seed_from_u64(seed);
                let mut rng_old = StdRng::seed_from_u64(seed);
                let plans = gen.candidates(&model, &current, &mut rng_new);
                let expected = reference_candidates(&gen, &model, &current, &mut rng_old);
                assert_eq!(plans, expected, "seed {seed}, reconfig {reconfig:?}");
                assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>(), "RNG draws, seed {seed}");
                nonempty += usize::from(!plans.is_empty());
            }
        }
        assert!(nonempty > 64, "the comparison must mostly be over real fronts: {nonempty}");
    }

    /// A fit that zeroes every coefficient predicts infinite throughput,
    /// `TG = ∞ − ∞` is NaN, and the search used to panic on it in release
    /// builds (`NaN objective`).
    #[test]
    fn unpriceable_model_yields_no_candidates_instead_of_panicking() {
        let zero = ModelCoefficients {
            alpha_grad: 0.0,
            alpha_upd: 0.0,
            alpha_sync: 0.0,
            alpha_emb: 0.0,
            beta_total: 0.0,
        };
        let model = ThroughputModel::new(WorkloadConstants::default(), zero);
        let current = ResourceAllocation::new(JobShape::new(2, 2, 4.0, 4.0, 512), 16.0, 32.0);
        assert!(model.throughput(&current.shape).is_infinite());
        for reconfig in [None, Some(ReconfigSpace::default())] {
            let gen = NsgaPlanGenerator { reconfig, ..NsgaPlanGenerator::default() };
            let plans = gen.candidates(&model, &current, &mut StdRng::seed_from_u64(3));
            assert!(plans.is_empty(), "no plan can be priced: {plans:?}");
        }
    }
}

#[cfg(test)]
mod reconfig_proptests {
    use super::*;
    use crate::plan::ReconfigSpace;
    use dlrover_perfmodel::{ModelCoefficients, WorkloadConstants};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> ThroughputModel {
        ThroughputModel::new(WorkloadConstants::default(), ModelCoefficients::paper_reference())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The execution-plan enumeration is duplicate-free and starts at
        /// the default plan, for arbitrary admissible spaces and batches.
        #[test]
        fn plan_enumeration_is_duplicate_free(
            allow_sync in proptest::bool::ANY,
            max_replicas in 1u32..5,
            max_batch_steps in 0u8..3,
            allow_relayout in proptest::bool::ANY,
            spec_batch in prop_oneof![Just(128u32), Just(256), Just(512), Just(1024)],
        ) {
            let space = ReconfigSpace { allow_sync, max_replicas, max_batch_steps, allow_relayout };
            let plans = space.plans(spec_batch);
            prop_assert_eq!(plans[0], ExecPlan::default());
            for (i, a) in plans.iter().enumerate() {
                for b in &plans[i + 1..] {
                    prop_assert!(a != b, "duplicate plan at index {}", i);
                }
            }
            // Every gene decodes into the enumeration.
            for k in 0..16 {
                let g = f64::from(k) / 16.0;
                prop_assert!(plans.contains(&space.decode(g, spec_batch)));
            }
        }

        /// Over the widened space, the returned front never contains a
        /// candidate the perfmodel scores as dominated in (RC, TG): for
        /// any pair, neither strictly dominates the other.
        #[test]
        fn widened_front_has_no_dominated_candidate(
            seed in 0u64..64,
            workers in 2u32..20,
            ps_cpu in 1.0f64..4.0,
        ) {
            let gen = NsgaPlanGenerator {
                reconfig: Some(ReconfigSpace::default()),
                nsga: Nsga2Config { population: 24, generations: 10 },
                ..NsgaPlanGenerator::default()
            };
            let m = model();
            let cur = ResourceAllocation::new(
                JobShape::new(workers, 1, 8.0, ps_cpu, 512), 32.0, 8.0,
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let front = gen.candidates(&m, &cur, &mut rng);
            for a in &front {
                for b in &front {
                    let dominates = (b.resource_cost < a.resource_cost - 1e-12
                        && b.throughput_gain >= a.throughput_gain)
                        || (b.resource_cost <= a.resource_cost
                            && b.throughput_gain > a.throughput_gain + 1e-12);
                    prop_assert!(
                        !dominates,
                        "dominated candidate on front: {:?} dominated by {:?}", a, b
                    );
                }
            }
        }
    }
}
