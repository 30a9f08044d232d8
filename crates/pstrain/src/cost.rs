//! Asynchronous iteration cost model with per-pod state.
//!
//! The analytic model of `dlrover-perfmodel` describes a *homogeneous* job.
//! Real jobs are not homogeneous: workers land on slow nodes, PSes receive
//! skewed tensor partitions ("The size of tensor-based parameters assigned
//! to PSes can differ substantially, resulting in unbalanced workloads",
//! §4.3). This module extends the model:
//!
//! * each **worker** `j` has an effective compute rate `λ_j · v_j`
//!   (allocation × node speed); in asynchronous PS training it iterates
//!   independently, so job throughput is the *sum* of per-worker rates
//!   rather than `w/T_iter`;
//! * each **PS** `i` has a parameter share `s_i` and effective rate
//!   `λ_i · v_i`; server-side phases are gated by the *bottleneck* PS,
//!   `max_i s_i / (λ_i · v_i)` — a 3 %-CPU PS therefore drags every worker,
//!   which is exactly the hot-PS pathology of Fig. 12.
//!
//! [`HybridCostModel`] adds the CPU-GPU variant for Table 1: GPUs speed up
//! the dense compute but pay host-device embedding transfer, so GPU
//! utilisation stays marginal and samples/$ favours CPUs.

use dlrover_perfmodel::{ModelCoefficients, WorkloadConstants};
use serde::{Deserialize, Serialize};

/// Per-pod effective capacity: allocation × node speed × contention.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PodState {
    /// Allocated CPU cores.
    pub cpu: f64,
    /// Node speed / contention factor (1.0 nominal; 0.03 = the paper's
    /// injected straggler).
    pub speed: f64,
}

impl PodState {
    /// A nominal pod with `cpu` cores.
    pub fn new(cpu: f64) -> Self {
        PodState { cpu, speed: 1.0 }
    }

    /// Effective compute rate.
    pub fn effective_cpu(&self) -> f64 {
        (self.cpu * self.speed).max(1e-3)
    }
}

/// A parameter-server partition: its parameter share and pod state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PsPartition {
    /// Fraction of model parameters hosted (shares sum to 1).
    pub share: f64,
    /// Pod capacity.
    pub pod: PodState,
}

/// The per-pod asynchronous cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncCostModel {
    /// Ground-truth coefficients (the simulator's physics).
    pub coefficients: ModelCoefficients,
    /// Workload constants (M, B, D).
    pub constants: WorkloadConstants,
    /// Mini-batch size per worker.
    pub batch_size: u32,
}

impl AsyncCostModel {
    /// Creates a cost model.
    pub fn new(
        coefficients: ModelCoefficients,
        constants: WorkloadConstants,
        batch_size: u32,
    ) -> Self {
        AsyncCostModel { coefficients, constants, batch_size: batch_size.max(1) }
    }

    /// Balanced partitions for `p` PSes with `cpu` cores each.
    pub fn balanced_partitions(p: u32, cpu: f64) -> Vec<PsPartition> {
        let p = p.max(1);
        (0..p).map(|_| PsPartition { share: 1.0 / f64::from(p), pod: PodState::new(cpu) }).collect()
    }

    /// Skewed partitions: the first PS holds `hot_share`, the rest split the
    /// remainder evenly (the tensor-skew pathology).
    pub fn skewed_partitions(p: u32, cpu: f64, hot_share: f64) -> Vec<PsPartition> {
        let p = p.max(1);
        let hot = hot_share.clamp(1.0 / f64::from(p), 1.0);
        let rest = if p > 1 { (1.0 - hot) / f64::from(p - 1) } else { 0.0 };
        (0..p)
            .map(|i| PsPartition {
                share: if i == 0 { hot } else { rest },
                pod: PodState::new(cpu),
            })
            .collect()
    }

    /// The PS bottleneck factor: `p_eff` such that a balanced homogeneous
    /// job gets `p_eff = p·λ_p`, and any skew or slow PS reduces it.
    /// Server-side phase times scale as `1 / p_eff`.
    fn ps_effective_capacity(&self, partitions: &[PsPartition]) -> f64 {
        debug_assert!(!partitions.is_empty(), "job needs at least one PS");
        // Balanced case: share = 1/p, rate = λ_p → s/(λ·v) = 1/(p·λ_p).
        // The slowest partition gates the phase.
        let worst = partitions
            .iter()
            .map(|ps| ps.share.max(1e-9) / ps.pod.effective_cpu())
            .fold(0.0f64, f64::max);
        1.0 / worst
    }

    /// How much slower the server side runs than a balanced homogeneous
    /// layout with the same total PS CPU (1.0 = balanced; > 1 = degraded by
    /// skew or a slow PS pod).
    fn ps_slowdown(&self, partitions: &[PsPartition]) -> f64 {
        let p = partitions.len() as f64;
        let balanced_capacity = p * self.mean_ps_cpu(partitions);
        (balanced_capacity / self.ps_effective_capacity(partitions)).max(1.0)
    }

    /// The server-side phase times `[t_upd, t_sync, t_emb, β]` of one
    /// iteration under the given PS layout and worker count. These are
    /// properties of the *layout* (Kalamkar et al.'s CPU-cluster DLRM
    /// analysis: update, synchronisation and lookup are bound by the
    /// servers and the network, only gradient compute by the worker), so
    /// callers pricing many workers against one layout evaluate them once
    /// and hand them to [`Self::phase_times_on`].
    ///
    /// The homogeneous `1/(p·λ_p)` becomes the bottleneck capacity, and the
    /// lookup phase inherits the same slowdown (a slow or overloaded PS
    /// serves its partition's lookups late). `T_sync` is bandwidth-bound
    /// and keeps the plain `1/p`.
    pub(crate) fn server_phases(&self, partitions: &[PsPartition], workers: u32) -> [f64; 4] {
        let c = self.coefficients;
        let m = f64::from(self.batch_size);
        let w = f64::from(workers.max(1));
        let ps_cap = self.ps_effective_capacity(partitions);
        let p = partitions.len() as f64;
        [
            c.alpha_upd * w / ps_cap,
            c.alpha_sync * self.constants.model_size * w / (p * self.constants.bandwidth),
            c.alpha_emb * m * self.constants.embedding_dim / p * self.ps_slowdown(partitions),
            c.beta_total,
        ]
    }

    /// The five phase times `[t_grad, t_upd, t_sync, t_emb, β]` of one
    /// iteration of `worker` against already-evaluated
    /// [`Self::server_phases`]: its own gradient computation in front of
    /// the shared server side.
    pub(crate) fn phase_times_on(&self, worker: &PodState, server: &[f64; 4]) -> [f64; 5] {
        let t_grad =
            self.coefficients.alpha_grad * f64::from(self.batch_size) / worker.effective_cpu();
        [t_grad, server[0], server[1], server[2], server[3]]
    }

    /// The five phase times `[t_grad, t_upd, t_sync, t_emb, β]` of one
    /// iteration of `worker` under the given PS layout — the single source
    /// of truth shared by [`Self::worker_iter_time`] and
    /// [`Self::phase_fractions`]: [`Self::phase_times_on`] over
    /// [`Self::server_phases`].
    pub(crate) fn phase_times(
        &self,
        worker: &PodState,
        partitions: &[PsPartition],
        workers: u32,
    ) -> [f64; 5] {
        let _p = dlrover_telemetry::prof::scope("cost/phase_times");
        self.phase_times_on(worker, &self.server_phases(partitions, workers))
    }

    /// Per-iteration time of worker `j` (seconds): its own gradient
    /// computation plus the shared server-side phases.
    ///
    /// `worker` is the worker pod, `partitions` the PS layout, `workers`
    /// the total worker count (server load scales with it).
    pub fn worker_iter_time(
        &self,
        worker: &PodState,
        partitions: &[PsPartition],
        workers: u32,
    ) -> f64 {
        self.phase_times(worker, partitions, workers).iter().sum()
    }

    /// Per-iteration time of `worker` under an execution plan, against
    /// already-evaluated [`Self::server_phases`] for the same layout and
    /// `workers`: [`Self::phase_times_on`] transformed by
    /// [`dlrover_perfmodel::adjust_phases`] — the *same* function the
    /// optimizer prices plans with, so reconfiguration predictions come
    /// true in simulation — and summed. On the default plan
    /// `adjust_phases` early-returns, so this equals
    /// [`Self::worker_iter_time`] bit for bit.
    pub(crate) fn worker_iter_time_on(
        &self,
        worker: &PodState,
        server: &[f64; 4],
        workers: u32,
        exec: &dlrover_perfmodel::ExecPlan,
    ) -> f64 {
        dlrover_perfmodel::adjust_phases(exec, self.phase_times_on(worker, server), workers)
            .iter()
            .sum()
    }

    fn mean_ps_cpu(&self, partitions: &[PsPartition]) -> f64 {
        partitions.iter().map(|p| p.pod.effective_cpu()).sum::<f64>() / partitions.len() as f64
    }

    /// Job throughput in samples/second: asynchronous workers iterate
    /// independently, so rates add.
    pub fn throughput(&self, workers: &[PodState], partitions: &[PsPartition]) -> f64 {
        self.throughput_of(workers.iter().copied(), workers.len() as u32, partitions)
    }

    /// [`Self::throughput`] of the `count` pods `workers` yields, for a
    /// caller whose worker set is not a slice (the engine's live slots).
    pub(crate) fn throughput_of(
        &self,
        workers: impl Iterator<Item = PodState>,
        count: u32,
        partitions: &[PsPartition],
    ) -> f64 {
        let _p = dlrover_telemetry::prof::scope("cost/throughput");
        dlrover_telemetry::prof::add_items(u64::from(count));
        let server = self.server_phases(partitions, count);
        workers
            .map(|wk| {
                f64::from(self.batch_size) / self.phase_times_on(&wk, &server).iter().sum::<f64>()
            })
            .sum()
    }

    /// Per-phase share of one (homogeneous) iteration — drives Fig. 1a.
    /// Returns `(grad, update, sync, lookup, overhead)` fractions.
    pub fn phase_fractions(
        &self,
        worker: &PodState,
        partitions: &[PsPartition],
        workers: u32,
    ) -> [f64; 5] {
        let parts = self.phase_times(worker, partitions, workers);
        let total: f64 = parts.iter().sum();
        parts.map(|t| t / total)
    }

    /// Whole-job CPU utilisation of the `count` worker pods `workers`
    /// yields: busy core-seconds over allocated core-seconds, across
    /// workers and PSes.
    ///
    /// A worker's gradient computation costs `α_grad·m` busy core-seconds
    /// per iteration regardless of its core count, so over-provisioning CPU
    /// directly lowers utilisation — the §2.2 pathology. A PS takes its
    /// share of the server-side busy core-seconds per iteration *round*
    /// (every worker completing one iteration, over the mean iteration
    /// time): each worker-iteration costs the servers one parameter update
    /// (`α_upd`) and one batch of lookups (`α_emb·m·D`). One
    /// `Self::server_phases` per call, as in `Self::throughput_of`.
    pub fn job_cpu_utilisation(
        &self,
        workers: impl Iterator<Item = PodState>,
        count: u32,
        partitions: &[PsPartition],
    ) -> f64 {
        if count == 0 {
            return 0.0;
        }
        let server = self.server_phases(partitions, count);
        let busy = self.coefficients.alpha_grad * f64::from(self.batch_size);
        let (mut worker_cores, mut iter_sum, mut worker_busy) = (0.0, 0.0, 0.0);
        for w in workers {
            let iter: f64 = self.phase_times_on(&w, &server).iter().sum();
            worker_cores += w.cpu;
            iter_sum += iter;
            worker_busy += (busy / (w.cpu.max(1e-9) * iter)).min(1.0) * w.cpu;
        }
        let total_cores = worker_cores + partitions.iter().map(|p| p.pod.cpu).sum::<f64>();
        if total_cores <= 0.0 {
            return 0.0;
        }
        let mean_iter = iter_sum / f64::from(count);
        let c = self.coefficients;
        let server_busy = f64::from(count)
            * (c.alpha_upd
                + c.alpha_emb * f64::from(self.batch_size) * self.constants.embedding_dim);
        let ps_busy: f64 = partitions
            .iter()
            .map(|ps| {
                (server_busy * ps.share / (ps.pod.cpu.max(1e-9) * mean_iter)).min(1.0) * ps.pod.cpu
            })
            .sum();
        ((worker_busy + ps_busy) / total_cores).min(1.0)
    }
}

/// Completion time (seconds) of `remaining_samples` under *static* data
/// partitioning: each worker owns an equal slice up front, so the job ends
/// when the **slowest** worker finishes its slice. This is the baseline
/// semantics dynamic data sharding replaces — a straggler that processes at
/// 3 % speed stretches the whole job by its private tail, while under the
/// shards-queue model healthy workers absorb the load.
///
/// `rates` are per-worker sample rates (samples/second).
///
/// # Panics
/// Panics if `rates` is empty.
pub fn static_partition_completion_seconds(remaining_samples: f64, rates: &[f64]) -> f64 {
    assert!(!rates.is_empty(), "need at least one worker");
    let slice = remaining_samples.max(0.0) / rates.len() as f64;
    rates.iter().map(|&r| slice / r.max(1e-9)).fold(0.0f64, f64::max)
}

/// Completion time (seconds) of `remaining_samples` under *dynamic* data
/// sharding: work flows to whoever is free, so the aggregate rate is the
/// sum of per-worker rates (plus at most one shard of tail effect, which we
/// neglect at the fleet scale this is used for).
pub fn dynamic_sharding_completion_seconds(remaining_samples: f64, rates: &[f64]) -> f64 {
    let total: f64 = rates.iter().sum();
    remaining_samples.max(0.0) / total.max(1e-9)
}

/// CPU-GPU hybrid training cost (Table 1): GPUs accelerate the dense part
/// but embeddings stay on CPU, adding a host↔device transfer phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HybridCostModel {
    /// GPU speed-up of the gradient-computation phase.
    pub gpu_grad_speedup: f64,
    /// Host↔device embedding transfer, as a fraction of the baseline
    /// iteration time (the paper cites up to 22 % of training time).
    pub transfer_fraction: f64,
    /// Instance price per hour, USD (e.g. p3.2xlarge ≈ $3.06 + host).
    pub hybrid_price_per_hour: f64,
    /// CPU-only instance price per hour, USD (e.g. c5.4xlarge ≈ $0.68).
    pub cpu_price_per_hour: f64,
}

impl Default for HybridCostModel {
    fn default() -> Self {
        HybridCostModel {
            // A datacenter GPU accelerates the dense math by 1-2 orders of
            // magnitude over a handful of CPU cores — which is precisely
            // why it then sits idle during lookups and transfers.
            gpu_grad_speedup: 30.0,
            transfer_fraction: 0.22,
            hybrid_price_per_hour: 3.59,
            cpu_price_per_hour: 0.53,
        }
    }
}

/// Outcome of one Table 1 row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HybridComparison {
    /// CPU-only training time for the workload, hours.
    pub cpu_hours: f64,
    /// Hybrid training time, hours.
    pub hybrid_hours: f64,
    /// CPU-only samples per dollar (millions/USD).
    pub cpu_samples_per_usd: f64,
    /// Hybrid samples per dollar (millions/USD).
    pub hybrid_samples_per_usd: f64,
    /// Mean GPU utilisation under the hybrid plan.
    pub gpu_utilisation: f64,
}

impl HybridCostModel {
    /// Compares CPU-only vs hybrid on a workload of `total_samples` with the
    /// given homogeneous job cost model.
    pub fn compare(
        &self,
        cost: &AsyncCostModel,
        workers: &[PodState],
        partitions: &[PsPartition],
        total_samples: f64,
    ) -> HybridComparison {
        let n = workers.len() as u32;
        let cpu_thp = cost.throughput(workers, partitions);
        let cpu_hours = total_samples / cpu_thp / 3_600.0;

        // Hybrid: shrink t_grad by the GPU speed-up, add transfer overhead.
        let c = cost.coefficients;
        let m = f64::from(cost.batch_size);
        let hybrid_thp: f64 = workers
            .iter()
            .map(|wk| {
                let base = cost.worker_iter_time(wk, partitions, n);
                let t_grad = c.alpha_grad * m / wk.effective_cpu();
                let t_grad_gpu = t_grad / self.gpu_grad_speedup.max(1.0);
                let transfer = base * self.transfer_fraction;
                m / (base - t_grad + t_grad_gpu + transfer)
            })
            .sum();
        let hybrid_hours = total_samples / hybrid_thp / 3_600.0;

        // GPU busy only during the (shrunken) grad phase.
        let gpu_util: f64 = workers
            .iter()
            .map(|wk| {
                let base = cost.worker_iter_time(wk, partitions, n);
                let t_grad = c.alpha_grad * m / wk.effective_cpu();
                let t_grad_gpu = t_grad / self.gpu_grad_speedup.max(1.0);
                let hybrid_iter = base - t_grad + t_grad_gpu + base * self.transfer_fraction;
                t_grad_gpu / hybrid_iter
            })
            .sum::<f64>()
            / workers.len() as f64;

        HybridComparison {
            cpu_hours,
            hybrid_hours,
            cpu_samples_per_usd: total_samples / (cpu_hours * self.cpu_price_per_hour) / 1e6,
            hybrid_samples_per_usd: total_samples
                / (hybrid_hours * self.hybrid_price_per_hour)
                / 1e6,
            gpu_utilisation: gpu_util,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AsyncCostModel {
        AsyncCostModel::new(ModelCoefficients::paper_reference(), WorkloadConstants::default(), 512)
    }

    fn uniform_workers(n: usize, cpu: f64) -> Vec<PodState> {
        vec![PodState::new(cpu); n]
    }

    #[test]
    fn balanced_partitions_sum_to_one() {
        let p = AsyncCostModel::balanced_partitions(4, 8.0);
        let total: f64 = p.iter().map(|x| x.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn skewed_partitions_sum_to_one() {
        let p = AsyncCostModel::skewed_partitions(4, 8.0, 0.7);
        let total: f64 = p.iter().map(|x| x.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(p[0].share > p[1].share);
    }

    #[test]
    fn throughput_increases_with_workers_sublinearly() {
        let m = model();
        let ps = AsyncCostModel::balanced_partitions(4, 8.0);
        let t2 = m.throughput(&uniform_workers(2, 8.0), &ps);
        let t8 = m.throughput(&uniform_workers(8, 8.0), &ps);
        assert!(t8 > t2);
        assert!(t8 < 4.0 * t2, "server contention must bite");
    }

    #[test]
    fn slow_ps_gates_every_worker() {
        let m = model();
        let healthy = AsyncCostModel::balanced_partitions(4, 8.0);
        let mut hot = healthy.clone();
        hot[0].pod.speed = 0.03; // the paper's injected hot PS
        let workers = uniform_workers(8, 8.0);
        let thp_healthy = m.throughput(&workers, &healthy);
        let thp_hot = m.throughput(&workers, &hot);
        assert!(
            thp_hot < thp_healthy * 0.4,
            "hot PS should crater throughput: {thp_hot} vs {thp_healthy}"
        );
    }

    #[test]
    fn skewed_share_behaves_like_slow_ps() {
        let m = model();
        let workers = uniform_workers(8, 8.0);
        let balanced = m.throughput(&workers, &AsyncCostModel::balanced_partitions(4, 8.0));
        let skewed = m.throughput(&workers, &AsyncCostModel::skewed_partitions(4, 8.0, 0.8));
        assert!(skewed < balanced * 0.6, "skew {skewed} vs balanced {balanced}");
    }

    #[test]
    fn slow_worker_hurts_only_its_own_rate() {
        let m = model();
        let ps = AsyncCostModel::balanced_partitions(4, 8.0);
        let healthy = uniform_workers(8, 8.0);
        let mut one_slow = healthy.clone();
        one_slow[0].speed = 0.03;
        let thp_healthy = m.throughput(&healthy, &ps);
        let thp_slow = m.throughput(&one_slow, &ps);
        // Losing one of eight workers' compute costs ≈ 1/8, not everything —
        // async training isolates worker stragglers (unlike sync training).
        assert!(thp_slow > thp_healthy * 0.8);
        assert!(thp_slow < thp_healthy);
    }

    #[test]
    fn lookup_fraction_lands_in_paper_band() {
        // Fig. 1a: lookups take 30-48 % of iteration time for typical jobs.
        let m = model();
        let ps = AsyncCostModel::balanced_partitions(4, 8.0);
        let f = m.phase_fractions(&PodState::new(8.0), &ps, 8);
        let lookup = f[3];
        assert!(
            (0.25..0.55).contains(&lookup),
            "lookup fraction {lookup} outside plausible band; fractions {f:?}"
        );
        let total: f64 = f.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_ps_cpu_raises_throughput() {
        let m = model();
        let workers = uniform_workers(8, 8.0);
        let small = m.throughput(&workers, &AsyncCostModel::balanced_partitions(4, 2.0));
        let big = m.throughput(&workers, &AsyncCostModel::balanced_partitions(4, 16.0));
        assert!(big > small);
    }

    #[test]
    fn hybrid_is_faster_but_less_cost_efficient() {
        // Table 1's shape: hybrid shortens wall-clock but loses on
        // samples/$, and GPU utilisation is tiny.
        let m = model();
        let workers = uniform_workers(4, 8.0);
        let ps = AsyncCostModel::balanced_partitions(2, 8.0);
        let h = HybridCostModel::default();
        let cmp = h.compare(&m, &workers, &ps, 5.0e8);
        assert!(cmp.hybrid_hours < cmp.cpu_hours, "{cmp:?}");
        assert!(cmp.cpu_samples_per_usd > cmp.hybrid_samples_per_usd, "{cmp:?}");
        assert!(cmp.gpu_utilisation < 0.10, "GPU util {}", cmp.gpu_utilisation);
    }

    #[test]
    fn static_partitioning_is_straggler_bound() {
        // 8 workers at 100 samples/s, one at 3: the slow slice dominates.
        let mut rates = vec![100.0; 7];
        rates.push(3.0);
        let remaining = 80_000.0;
        let static_t = static_partition_completion_seconds(remaining, &rates);
        let dynamic_t = dynamic_sharding_completion_seconds(remaining, &rates);
        assert!((static_t - (remaining / 8.0) / 3.0).abs() < 1e-9);
        assert!(static_t > 2.5 * dynamic_t, "static {static_t} should dwarf dynamic {dynamic_t}");
    }

    #[test]
    fn homogeneous_workers_tie_both_schemes() {
        let rates = vec![50.0; 4];
        let s = static_partition_completion_seconds(10_000.0, &rates);
        let d = dynamic_sharding_completion_seconds(10_000.0, &rates);
        assert!((s - d).abs() < 1e-9);
    }

    #[test]
    fn zero_remaining_is_instant() {
        let rates = vec![10.0, 20.0];
        assert_eq!(static_partition_completion_seconds(0.0, &rates), 0.0);
        assert_eq!(dynamic_sharding_completion_seconds(0.0, &rates), 0.0);
    }

    #[test]
    fn overprovisioned_cpu_lowers_utilisation() {
        let m = model();
        let ps4 = AsyncCostModel::balanced_partitions(2, 4.0);
        let ps32 = AsyncCostModel::balanced_partitions(2, 32.0);
        let lean = m.job_cpu_utilisation(uniform_workers(4, 4.0).into_iter(), 4, &ps4);
        let fat = m.job_cpu_utilisation(uniform_workers(4, 32.0).into_iter(), 4, &ps32);
        assert!(fat < lean, "8x CPU should crater utilisation: {fat} !< {lean}");
        assert!((0.0..=1.0).contains(&lean));
        assert!((0.0..=1.0).contains(&fat));
    }

    /// Trading a PS's cores against its speed at the same product leaves
    /// every phase time alone, so the job's busy cores show what that PS
    /// does with its cores: a starved PS runs flat out, so each core it
    /// loses was busy; a cool one idles, so cores it gains stay idle.
    #[test]
    fn hot_ps_runs_at_full_utilisation() {
        let m = model();
        let workers = uniform_workers(8, 8.0);
        let busy_cores = |parts: &[PsPartition]| {
            let cores: f64 =
                workers.iter().chain(parts.iter().map(|p| &p.pod)).map(|p| p.cpu).sum();
            m.job_cpu_utilisation(workers.iter().copied(), 8, parts) * cores
        };
        let mut parts = AsyncCostModel::balanced_partitions(4, 8.0);
        parts[0].pod = PodState { cpu: 0.3, speed: 1.0 }; // starved PS
        let base = busy_cores(&parts);
        let mut hot = parts.clone();
        hot[0].pod = PodState { cpu: 0.15, speed: 2.0 };
        let mut cool = parts.clone();
        cool[1].pod = PodState { cpu: 16.0, speed: 0.5 };
        assert!((base - busy_cores(&hot) - 0.15).abs() < 1e-9, "starved PS should be saturated");
        assert!((busy_cores(&cool) - base).abs() < 1e-9, "cool PS should idle its extra cores");
    }

    #[test]
    fn degenerate_inputs_survive() {
        let m = model();
        let ps = AsyncCostModel::balanced_partitions(1, 0.0);
        let workers = vec![PodState { cpu: 0.0, speed: 0.0 }];
        let t = m.throughput(&workers, &ps);
        assert!(t.is_finite());
        assert!(t >= 0.0);
    }
}

/// Differential tests: [`AsyncCostModel::phase_times_on`] over
/// [`AsyncCostModel::server_phases`] against the single-body `phase_times`
/// this module shipped with through PR 14, bit for bit.
#[cfg(test)]
mod differential {
    use super::*;
    use dlrover_perfmodel::{adjust_phases, ExecPlan, GradientMode};
    use proptest::prelude::*;

    impl AsyncCostModel {
        /// [`AsyncCostModel::phase_times`] transformed by an execution plan:
        /// the whole-layout form [`AsyncCostModel::worker_iter_time_on`]
        /// replaced in the engine, kept as its reference.
        fn phase_times_exec(
            &self,
            worker: &PodState,
            partitions: &[PsPartition],
            workers: u32,
            exec: &ExecPlan,
        ) -> [f64; 5] {
            adjust_phases(exec, self.phase_times(worker, partitions, workers), workers)
        }

        /// Per-iteration time of `worker` under an execution plan, from
        /// [`Self::phase_times_exec`].
        fn worker_iter_time_exec(
            &self,
            worker: &PodState,
            partitions: &[PsPartition],
            workers: u32,
            exec: &ExecPlan,
        ) -> f64 {
            self.phase_times_exec(worker, partitions, workers, exec).iter().sum()
        }
    }

    /// The pre-split body of `phase_times`, verbatim.
    fn reference_phase_times(
        model: &AsyncCostModel,
        worker: &PodState,
        partitions: &[PsPartition],
        workers: u32,
    ) -> [f64; 5] {
        let c = model.coefficients;
        let m = f64::from(model.batch_size);
        let w = f64::from(workers.max(1));
        let ps_cap = model.ps_effective_capacity(partitions);
        let p = partitions.len() as f64;
        [
            c.alpha_grad * m / worker.effective_cpu(),
            c.alpha_upd * w / ps_cap,
            c.alpha_sync * model.constants.model_size * w / (p * model.constants.bandwidth),
            c.alpha_emb * m * model.constants.embedding_dim / p * model.ps_slowdown(partitions),
            c.beta_total,
        ]
    }

    /// The pre-split `throughput`: the reference body per worker.
    fn reference_throughput(
        model: &AsyncCostModel,
        workers: &[PodState],
        partitions: &[PsPartition],
    ) -> f64 {
        let n = workers.len() as u32;
        workers
            .iter()
            .map(|wk| {
                f64::from(model.batch_size)
                    / reference_phase_times(model, wk, partitions, n).iter().sum::<f64>()
            })
            .sum()
    }

    /// CPU utilisation of one worker by definition: busy core-seconds per
    /// iteration over allocated core-seconds, its own `server_phases`.
    fn worker_utilisation(
        model: &AsyncCostModel,
        worker: &PodState,
        partitions: &[PsPartition],
        workers: u32,
    ) -> f64 {
        let busy = model.coefficients.alpha_grad * f64::from(model.batch_size);
        let iter = model.worker_iter_time(worker, partitions, workers);
        (busy / (worker.cpu.max(1e-9) * iter)).min(1.0)
    }

    /// Per-PS CPU utilisation by definition: each PS's share of the
    /// server-side busy core-seconds per iteration round over its allocated
    /// core-seconds, against the workers' mean iteration time.
    fn ps_utilisation(
        model: &AsyncCostModel,
        workers: &[PodState],
        partitions: &[PsPartition],
    ) -> Vec<f64> {
        let n = workers.len() as u32;
        if workers.is_empty() {
            return vec![0.0; partitions.len()];
        }
        let mean_iter =
            workers.iter().map(|w| model.worker_iter_time(w, partitions, n)).sum::<f64>()
                / workers.len() as f64;
        let c = model.coefficients;
        let server_busy = f64::from(n)
            * (c.alpha_upd
                + c.alpha_emb * f64::from(model.batch_size) * model.constants.embedding_dim);
        partitions
            .iter()
            .map(|ps| (server_busy * ps.share / (ps.pod.cpu.max(1e-9) * mean_iter)).min(1.0))
            .collect()
    }

    /// Whole-job CPU utilisation by definition, per worker and per PS: the
    /// `2·w` `server_phases` evaluations the one-pass
    /// [`AsyncCostModel::job_cpu_utilisation`] replaced.
    fn job_cpu_utilisation(
        model: &AsyncCostModel,
        workers: &[PodState],
        partitions: &[PsPartition],
    ) -> f64 {
        if workers.is_empty() {
            return 0.0;
        }
        let n = workers.len() as u32;
        let total_cores: f64 = workers.iter().map(|w| w.cpu).sum::<f64>()
            + partitions.iter().map(|p| p.pod.cpu).sum::<f64>();
        if total_cores <= 0.0 {
            return 0.0;
        }
        let worker_busy: f64 =
            workers.iter().map(|w| worker_utilisation(model, w, partitions, n) * w.cpu).sum();
        let ps_busy: f64 = ps_utilisation(model, workers, partitions)
            .iter()
            .zip(partitions)
            .map(|(u, p)| u * p.pod.cpu)
            .sum();
        ((worker_busy + ps_busy) / total_cores).min(1.0)
    }

    fn bits(a: [f64; 5]) -> [u64; 5] {
        a.map(f64::to_bits)
    }

    /// Skewed shares (normalised), uneven CPUs, and sometimes one PS at the
    /// paper's 3 % straggler speed; `sizes` PSes.
    fn layout(sizes: std::ops::Range<usize>) -> impl Strategy<Value = Vec<PsPartition>> {
        (proptest::collection::vec((0.05f64..1.0, 0.5f64..32.0), sizes), 0usize..128).prop_map(
            |(raw, slow)| {
                let total: f64 = raw.iter().map(|(s, _)| s).sum();
                let n = raw.len();
                raw.into_iter()
                    .enumerate()
                    .map(|(i, (share, cpu))| PsPartition {
                        share: share / total,
                        pod: PodState { cpu, speed: if slow % (2 * n) == i { 0.03 } else { 1.0 } },
                    })
                    .collect()
            },
        )
    }

    /// `sizes` workers of mixed CPUs and speeds down to 3 %.
    fn worker_set(sizes: std::ops::Range<usize>) -> impl Strategy<Value = Vec<PodState>> {
        proptest::collection::vec(
            (0.5f64..32.0, 0.03f64..1.0).prop_map(|(cpu, speed)| PodState { cpu, speed }),
            sizes,
        )
    }

    fn exec_plans() -> [ExecPlan; 3] {
        [
            ExecPlan::default(),
            ExecPlan { gradient_mode: GradientMode::Sync, ..ExecPlan::default() },
            ExecPlan { ps_replicas: 3, ..ExecPlan::default() },
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn split_phases_match_the_single_body(
            partitions in layout(1..65),
            workers in worker_set(1..257),
            batch in 1u32..4096,
        ) {
            let model = AsyncCostModel::new(
                ModelCoefficients::simulation_truth(),
                WorkloadConstants::default(),
                batch,
            );
            let n = workers.len() as u32;
            let server = model.server_phases(&partitions, n);
            for wk in &workers {
                let want = reference_phase_times(&model, wk, &partitions, n);
                prop_assert_eq!(bits(model.phase_times_on(wk, &server)), bits(want));
                prop_assert_eq!(bits(model.phase_times(wk, &partitions, n)), bits(want));
                for exec in exec_plans() {
                    let want_iter: f64 = adjust_phases(&exec, want, n).iter().sum();
                    prop_assert_eq!(
                        model.worker_iter_time_on(wk, &server, n, &exec).to_bits(),
                        want_iter.to_bits()
                    );
                    prop_assert_eq!(
                        model.worker_iter_time_exec(wk, &partitions, n, &exec).to_bits(),
                        want_iter.to_bits()
                    );
                }
            }
            prop_assert_eq!(
                model.throughput(&workers, &partitions).to_bits(),
                reference_throughput(&model, &workers, &partitions).to_bits()
            );
        }

        /// One `server_phases` per call prices utilisation as the per-worker
        /// definition does, bit for bit.
        #[test]
        fn one_pass_utilisation_matches_the_definition(
            partitions in layout(1..17),
            workers in worker_set(1..33),
            batch in 1u32..4096,
        ) {
            let model = AsyncCostModel::new(
                ModelCoefficients::simulation_truth(),
                WorkloadConstants::default(),
                batch,
            );
            let n = workers.len() as u32;
            prop_assert_eq!(
                model.job_cpu_utilisation(workers.iter().copied(), n, &partitions).to_bits(),
                job_cpu_utilisation(&model, &workers, &partitions).to_bits()
            );
        }

        /// The engine prices its live pods only: a hung slot drops out, and
        /// a paused engine reads 0.
        #[test]
        fn engine_utilisation_is_the_definition_over_live_pods(
            partitions in layout(1..17),
            workers in worker_set(2..33),
            hung in 0usize..32,
        ) {
            let spec = crate::TrainingJobSpec::paper_default(1_000_000);
            let model = AsyncCostModel::new(spec.coefficients, spec.constants, spec.batch_size);
            let mem = vec![1 << 40; partitions.len()];
            let mut engine =
                crate::PsTrainingEngine::new(spec, workers.clone(), partitions.clone(), mem);
            let hung = hung % workers.len();
            engine.hang_worker(hung);
            let mut live = workers.clone();
            live.remove(hung);
            prop_assert_eq!(
                engine.cpu_utilisation().to_bits(),
                job_cpu_utilisation(&model, &live, &partitions).to_bits()
            );
            engine.pause(dlrover_sim::SimDuration::from_secs(30));
            prop_assert_eq!(engine.cpu_utilisation(), 0.0);
        }
    }
}
