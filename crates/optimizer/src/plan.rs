//! Resource-allocation vocabulary: allocations, prices, `RC`, `TG` (§4.2).
//!
//! * `RC(A) = Σ a_r · Money(a_r)` — the hourly cost of an allocation
//!   (Eqn. 7); [`PriceTable`] supplies `Money`.
//! * `TG(A) = ΔΨ_thp − Overhead(A)` — throughput gain net of scaling
//!   overhead (Eqn. 8). The paper subtracts "wasted training time" from a
//!   throughput delta; we make the units precise by amortising: the scaling
//!   pause costs `Ψ_new · T_pause` samples, spread over an evaluation
//!   horizon `H`, so `TG = ΔΨ − Ψ_new · T_pause / H` (samples/second).

use dlrover_perfmodel::{ExecPlan, GradientMode, JobShape};
use serde::{Deserialize, Serialize};

/// A complete resource allocation for one PS-architecture job: the CPU
/// shape plus per-role memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceAllocation {
    /// CPU/topology shape (w, p, λ_w, λ_p, m).
    pub shape: JobShape,
    /// Memory per worker, decimal GB (1e9 bytes; `cluster::Resources`
    /// uses binary GiB — convert explicitly at that boundary).
    pub worker_mem_gb: f64,
    /// Memory per parameter server, decimal GB (1e9 bytes).
    pub ps_mem_gb: f64,
}

impl ResourceAllocation {
    /// Convenience constructor.
    pub fn new(shape: JobShape, worker_mem_gb: f64, ps_mem_gb: f64) -> Self {
        ResourceAllocation {
            shape,
            worker_mem_gb: worker_mem_gb.max(0.0),
            ps_mem_gb: ps_mem_gb.max(0.0),
        }
    }

    /// Total CPU cores across workers and PSes.
    pub fn total_cpu(&self) -> f64 {
        self.shape.total_cpu()
    }

    /// Total memory (GB) across workers and PSes.
    pub fn total_mem_gb(&self) -> f64 {
        f64::from(self.shape.workers) * self.worker_mem_gb
            + f64::from(self.shape.ps) * self.ps_mem_gb
    }
}

/// Unit prices: the `Money(a_r)` function of Eqn. 7.
///
/// Defaults approximate on-demand cloud CPU pricing (c5 family):
/// ~$0.033 per vCPU-hour and ~$0.0045 per GB-hour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriceTable {
    /// Price of one CPU core for one hour, USD.
    pub cpu_core_hour: f64,
    /// Price of one GB of memory for one hour, USD.
    pub mem_gb_hour: f64,
}

impl Default for PriceTable {
    fn default() -> Self {
        PriceTable { cpu_core_hour: 0.033, mem_gb_hour: 0.0045 }
    }
}

impl PriceTable {
    /// `RC(A)`: hourly price of a full allocation (Eqn. 7).
    pub fn resource_cost(&self, alloc: &ResourceAllocation) -> f64 {
        alloc.total_cpu() * self.cpu_core_hour + alloc.total_mem_gb() * self.mem_gb_hour
    }

    /// `RC` of the *additional* resources when moving `from → to`; negative
    /// when scaling down. The optimizer uses `max(δ, ε)` so shrinking plans
    /// are still comparable.
    pub fn delta_cost(&self, from: &ResourceAllocation, to: &ResourceAllocation) -> f64 {
        self.resource_cost(to) - self.resource_cost(from)
    }

    /// `RC(A, E)`: hourly price of an allocation *under an execution plan*.
    /// Extends Eqn. 7 to the reconfiguration layer: each extra PS replica
    /// hosts a full copy of the parameters, so PS memory is charged
    /// `× replicas` — the genuine RC/TG trade-off behind replication
    /// (Rubick's plan costing applied to the paper's price model).
    pub fn plan_resource_cost(&self, alloc: &ResourceAllocation, exec: &ExecPlan) -> f64 {
        let replicas = f64::from(exec.ps_replicas.max(1));
        let replica_mem = f64::from(alloc.shape.ps) * alloc.ps_mem_gb * (replicas - 1.0);
        self.resource_cost(alloc) + replica_mem * self.mem_gb_hour
    }
}

/// One reconfiguration action over the execution plan — the widened action
/// space of the optimizer (DESIGN §13; Rubick's taxonomy of
/// sync/async mode, layout, and batching under a fixed resource envelope).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconfigAction {
    /// Switch gradient synchronisation mode (async ↔ sync).
    SetGradientMode(GradientMode),
    /// Step the per-worker batch size by a power of two (±1 step).
    StepBatch {
        /// Signed log2 step: `+1` doubles, `-1` halves the batch.
        delta_log2: i8,
    },
    /// Set the PS replication factor.
    SetPsReplicas {
        /// Target replica count (≥ 1).
        replicas: u32,
    },
    /// Re-layout the embedding shards across the current PSes with LPT
    /// (`pstrain::rebalance::balance_blocks`) — throughput-neutral when the
    /// layout is already balanced, a straight win when it is skewed.
    RelayoutShards,
}

impl ReconfigAction {
    /// Applies this action to `plan`, clamping batch steps into
    /// `[min_batch, max_batch]`. Returns the new plan plus whether an
    /// embedding relayout was requested (relayout is a layout action, not
    /// plan state).
    pub fn apply(
        &self,
        plan: ExecPlan,
        spec_batch: u32,
        min_batch: u32,
        max_batch: u32,
    ) -> (ExecPlan, bool) {
        let mut next = plan;
        let mut relayout = false;
        match *self {
            ReconfigAction::SetGradientMode(mode) => next.gradient_mode = mode,
            ReconfigAction::StepBatch { delta_log2 } => {
                let cur = plan.effective_batch(spec_batch);
                let stepped = if delta_log2 >= 0 {
                    cur.checked_shl(u32::from(delta_log2.unsigned_abs())).unwrap_or(u32::MAX)
                } else {
                    cur >> u32::from(delta_log2.unsigned_abs())
                };
                next.batch_size = stepped.clamp(min_batch.max(1), max_batch.max(1));
            }
            ReconfigAction::SetPsReplicas { replicas } => {
                next.ps_replicas = replicas.max(1);
            }
            ReconfigAction::RelayoutShards => relayout = true,
        }
        (next, relayout)
    }
}

/// The admissible reconfiguration space — what the optimizer may search
/// over, and what `brain::policy` gates. `ReconfigSpace::default()` is the
/// full space; a job that must hold its plan passes `None` upstream
/// instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconfigSpace {
    /// May the optimizer switch to synchronous gradient mode?
    pub allow_sync: bool,
    /// Maximum PS replication factor (1 = replication disabled).
    pub max_replicas: u32,
    /// Maximum batch-size steps away from the spec batch, in log2 units
    /// (0 = batch fixed).
    pub max_batch_steps: u8,
    /// May the optimizer request embedding-shard relayouts?
    pub allow_relayout: bool,
}

impl Default for ReconfigSpace {
    fn default() -> Self {
        ReconfigSpace {
            allow_sync: true,
            max_replicas: 3,
            max_batch_steps: 1,
            allow_relayout: true,
        }
    }
}

impl ReconfigSpace {
    /// Enumerates every admissible [`ExecPlan`] for a job whose spec batch
    /// is `spec_batch`. The enumeration is duplicate-free and always
    /// contains the default plan (index 0), so a genome decoding to index 0
    /// reproduces the unreconfigured optimizer exactly.
    pub fn plans(&self, spec_batch: u32) -> Vec<ExecPlan> {
        let mut out = vec![ExecPlan::default()];
        let modes: &[GradientMode] = if self.allow_sync {
            &[GradientMode::Async, GradientMode::Sync]
        } else {
            &[GradientMode::Async]
        };
        let steps = i32::from(self.max_batch_steps.min(4));
        for &mode in modes {
            for replicas in 1..=self.max_replicas.max(1) {
                for step in -steps..=steps {
                    let batch = if step >= 0 {
                        spec_batch.max(1).checked_shl(step.unsigned_abs()).unwrap_or(u32::MAX)
                    } else {
                        spec_batch.max(1) >> step.unsigned_abs()
                    }
                    .max(1);
                    let plan = ExecPlan {
                        gradient_mode: mode,
                        ps_replicas: replicas,
                        // Normalise "spec batch" to 0 so plan equality (and
                        // dedup) ignores the representation.
                        batch_size: if batch == spec_batch.max(1) { 0 } else { batch },
                    };
                    if !out.contains(&plan) {
                        out.push(plan);
                    }
                }
            }
        }
        out
    }

    /// Decodes a gene in `[0, 1)` into a plan index over [`Self::plans`].
    pub fn decode(&self, gene: f64, spec_batch: u32) -> ExecPlan {
        pick_plan(&self.plans(spec_batch), gene)
    }
}

/// The plan a gene in `[0, 1)` indexes in an enumeration from
/// [`ReconfigSpace::plans`] (never empty: it always holds the default plan).
pub(crate) fn pick_plan(plans: &[ExecPlan], gene: f64) -> ExecPlan {
    let idx = ((gene.clamp(0.0, 1.0) * plans.len() as f64) as usize).min(plans.len() - 1);
    plans[idx]
}

/// Scaling-overhead estimator: the `Overhead(A)` term of Eqn. 8, estimated
/// "through statistical analysis based on the resource information of
/// historical jobs within the cluster".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingOverheadModel {
    /// Seconds to bring up one new worker pod (schedule + pull + init).
    ///
    /// Keep this in sync with the environment's actual startup latency —
    /// `dlrover_cluster::StartupLatencyModel::expected(utilisation)` is the
    /// authoritative source; callers that know their cluster's utilisation
    /// should override this field with that value (see
    /// `DlroverPolicyConfig::with_expected_startup`). The default matches
    /// the default startup model at ~30 % cluster utilisation.
    pub worker_startup_s: f64,
    /// Seconds of training pause when PSes change with stop-and-restart
    /// (checkpoint save + redeploy + restore).
    pub ps_restart_pause_s: f64,
    /// Seconds of training pause when PSes change with *seamless migration*
    /// (only the flash-checkpoint handoff blocks).
    pub seamless_pause_s: f64,
    /// Evaluation horizon `H` (seconds) over which scaling overhead is
    /// amortised when computing TG.
    pub horizon_s: f64,
    /// Whether seamless migration is available (DLRover-RM: yes;
    /// stop-and-restart baselines: no).
    pub seamless: bool,
}

impl Default for ScalingOverheadModel {
    fn default() -> Self {
        ScalingOverheadModel {
            worker_startup_s: 255.0,
            ps_restart_pause_s: 600.0,
            seamless_pause_s: 20.0,
            horizon_s: 1_800.0,
            seamless: true,
        }
    }
}

impl ScalingOverheadModel {
    /// Seconds of *training pause* incurred by moving `from → to`.
    ///
    /// Worker additions do not pause training under dynamic data sharding
    /// (new workers just pull shards), but PS changes force a parameter
    /// handoff — cheap when seamless, expensive when stop-and-restart.
    /// Worker-only changes under a stop-and-restart scheduler still restart
    /// the job, so they pay the restart pause too.
    pub fn pause_seconds(&self, from: &ResourceAllocation, to: &ResourceAllocation) -> f64 {
        let ps_changed = from.shape.ps != to.shape.ps
            || (from.shape.ps_cpu - to.shape.ps_cpu).abs() > 1e-9
            || (from.ps_mem_gb - to.ps_mem_gb).abs() > 1e-9;
        let workers_changed = from.shape.workers != to.shape.workers
            || (from.shape.worker_cpu - to.shape.worker_cpu).abs() > 1e-9
            || (from.worker_mem_gb - to.worker_mem_gb).abs() > 1e-9;
        if self.seamless {
            if ps_changed {
                self.seamless_pause_s
            } else {
                0.0
            }
        } else if ps_changed || workers_changed {
            self.ps_restart_pause_s
        } else {
            0.0
        }
    }

    /// `TG(A)` (Eqn. 8): throughput delta minus amortised scaling loss,
    /// in samples/second. `thp_old`/`thp_new` are predicted throughputs.
    pub fn throughput_gain(
        &self,
        thp_old: f64,
        thp_new: f64,
        from: &ResourceAllocation,
        to: &ResourceAllocation,
    ) -> f64 {
        let pause = self.pause_seconds(from, to);
        let extra_wait = f64::from(to.shape.workers.saturating_sub(from.shape.workers)).min(1.0)
            * self.worker_startup_s;
        let lost_samples = thp_new * (pause + extra_wait);
        (thp_new - thp_old) - lost_samples / self.horizon_s.max(1.0)
    }

    /// Seconds of training pause charged for switching `from → to`
    /// execution plans (resource envelope unchanged). Every plan change
    /// rides the seamless-migration machinery — a flash-checkpoint handoff,
    /// the same `seamless_pause_s` as a PS reshape (§5.2) — and falls back
    /// to the full restart pause for stop-and-restart schedulers.
    /// An unchanged plan (and no relayout) costs nothing.
    pub fn reconfig_pause_seconds(&self, from: &ExecPlan, to: &ExecPlan, relayout: bool) -> f64 {
        if from == to && !relayout {
            return 0.0;
        }
        if self.seamless {
            self.seamless_pause_s
        } else {
            self.ps_restart_pause_s
        }
    }

    /// `TG` of a pure reconfiguration (Eqn. 8 with the reconfig pause in
    /// place of the scaling pause): throughput delta minus the amortised
    /// samples lost to the plan-switch handoff.
    pub fn reconfig_gain(
        &self,
        thp_old: f64,
        thp_new: f64,
        from: &ExecPlan,
        to: &ExecPlan,
        relayout: bool,
    ) -> f64 {
        let pause = self.reconfig_pause_seconds(from, to, relayout);
        (thp_new - thp_old) - thp_new * pause / self.horizon_s.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(w: u32, p: u32, cw: f64, cp: f64, wm: f64, pm: f64) -> ResourceAllocation {
        ResourceAllocation::new(JobShape::new(w, p, cw, cp, 512), wm, pm)
    }

    #[test]
    fn totals_add_up() {
        let a = alloc(4, 2, 8.0, 4.0, 16.0, 32.0);
        assert_eq!(a.total_cpu(), 4.0 * 8.0 + 2.0 * 4.0);
        assert_eq!(a.total_mem_gb(), 4.0 * 16.0 + 2.0 * 32.0);
    }

    #[test]
    fn resource_cost_is_linear_in_prices() {
        let prices = PriceTable { cpu_core_hour: 1.0, mem_gb_hour: 0.0 };
        let a = alloc(2, 1, 4.0, 4.0, 8.0, 8.0);
        assert_eq!(prices.resource_cost(&a), 12.0);
        let prices2 = PriceTable { cpu_core_hour: 0.0, mem_gb_hour: 2.0 };
        assert_eq!(prices2.resource_cost(&a), 2.0 * (2.0 * 8.0 + 8.0));
    }

    #[test]
    fn delta_cost_signed() {
        let prices = PriceTable::default();
        let small = alloc(2, 1, 4.0, 4.0, 8.0, 8.0);
        let big = alloc(4, 2, 8.0, 8.0, 16.0, 16.0);
        assert!(prices.delta_cost(&small, &big) > 0.0);
        assert!(prices.delta_cost(&big, &small) < 0.0);
        assert_eq!(prices.delta_cost(&small, &small), 0.0);
    }

    #[test]
    fn seamless_avoids_worker_scale_pause() {
        let m = ScalingOverheadModel::default();
        let from = alloc(2, 2, 4.0, 4.0, 8.0, 8.0);
        let more_workers = alloc(4, 2, 4.0, 4.0, 8.0, 8.0);
        assert_eq!(m.pause_seconds(&from, &more_workers), 0.0);
        let more_ps = alloc(2, 4, 4.0, 4.0, 8.0, 8.0);
        assert_eq!(m.pause_seconds(&from, &more_ps), m.seamless_pause_s);
    }

    #[test]
    fn stop_and_restart_pays_full_pause() {
        let m = ScalingOverheadModel { seamless: false, ..Default::default() };
        let from = alloc(2, 2, 4.0, 4.0, 8.0, 8.0);
        let more_workers = alloc(4, 2, 4.0, 4.0, 8.0, 8.0);
        assert_eq!(m.pause_seconds(&from, &more_workers), m.ps_restart_pause_s);
    }

    #[test]
    fn no_change_no_pause() {
        for seamless in [true, false] {
            let m = ScalingOverheadModel { seamless, ..Default::default() };
            let a = alloc(2, 2, 4.0, 4.0, 8.0, 8.0);
            assert_eq!(m.pause_seconds(&a, &a), 0.0);
        }
    }

    #[test]
    fn throughput_gain_penalises_pauses() {
        let m = ScalingOverheadModel { seamless: false, ..Default::default() };
        let from = alloc(2, 2, 4.0, 4.0, 8.0, 8.0);
        let to = alloc(2, 4, 4.0, 4.0, 8.0, 8.0);
        let gain_with_pause = m.throughput_gain(100.0, 120.0, &from, &to);
        let ms = ScalingOverheadModel::default(); // seamless
        let gain_seamless = ms.throughput_gain(100.0, 120.0, &from, &to);
        assert!(gain_seamless > gain_with_pause);
        assert!(gain_seamless < 20.0, "overhead must subtract something");
    }

    #[test]
    fn throughput_gain_can_be_negative() {
        // Tiny improvement, huge pause: scaling is not worth it.
        let m = ScalingOverheadModel { seamless: false, horizon_s: 600.0, ..Default::default() };
        let from = alloc(2, 2, 4.0, 4.0, 8.0, 8.0);
        let to = alloc(2, 3, 4.0, 4.0, 8.0, 8.0);
        assert!(m.throughput_gain(100.0, 101.0, &from, &to) < 0.0);
    }

    #[test]
    fn negative_memory_clamped() {
        let a = ResourceAllocation::new(JobShape::new(1, 1, 1.0, 1.0, 1), -5.0, -1.0);
        assert_eq!(a.worker_mem_gb, 0.0);
        assert_eq!(a.ps_mem_gb, 0.0);
    }

    #[test]
    fn replicas_charge_ps_memory() {
        let prices = PriceTable::default();
        let a = alloc(2, 2, 4.0, 4.0, 8.0, 16.0);
        let base = prices.plan_resource_cost(&a, &ExecPlan::default());
        assert_eq!(base, prices.resource_cost(&a));
        let doubled =
            prices.plan_resource_cost(&a, &ExecPlan { ps_replicas: 2, ..ExecPlan::default() });
        // One extra copy of 2 PSes × 16 GB.
        assert!((doubled - base - 2.0 * 16.0 * prices.mem_gb_hour).abs() < 1e-12);
    }

    #[test]
    fn each_reconfig_action_applies_and_clamps() {
        let plan = ExecPlan::default();
        let (sync, relayout) =
            ReconfigAction::SetGradientMode(GradientMode::Sync).apply(plan, 512, 128, 2048);
        assert_eq!(sync.gradient_mode, GradientMode::Sync);
        assert!(!relayout);
        let (up, _) = ReconfigAction::StepBatch { delta_log2: 1 }.apply(plan, 512, 128, 2048);
        assert_eq!(up.effective_batch(512), 1024);
        let (down, _) = ReconfigAction::StepBatch { delta_log2: -1 }.apply(up, 512, 128, 2048);
        assert_eq!(down.effective_batch(512), 512);
        // Clamp at the ceiling.
        let (capped, _) = ReconfigAction::StepBatch { delta_log2: 2 }.apply(up, 512, 128, 2048);
        assert_eq!(capped.effective_batch(512), 2048);
        let (rep, _) = ReconfigAction::SetPsReplicas { replicas: 0 }.apply(plan, 512, 128, 2048);
        assert_eq!(rep.ps_replicas, 1);
        let (same, relayout) = ReconfigAction::RelayoutShards.apply(plan, 512, 128, 2048);
        assert_eq!(same, plan);
        assert!(relayout);
    }

    #[test]
    fn reconfig_space_enumeration_contains_default_first() {
        let space = ReconfigSpace::default();
        let plans = space.plans(512);
        assert_eq!(plans[0], ExecPlan::default());
        // Duplicate-free.
        for (i, a) in plans.iter().enumerate() {
            for b in &plans[i + 1..] {
                assert_ne!(a, b, "duplicate plan in enumeration");
            }
        }
        // 2 modes × 3 replicas × 3 batch levels.
        assert_eq!(plans.len(), 18);
    }

    #[test]
    fn reconfig_space_decode_covers_all_plans() {
        let space = ReconfigSpace::default();
        let plans = space.plans(512);
        assert_eq!(space.decode(0.0, 512), plans[0]);
        assert_eq!(space.decode(0.999_999, 512), *plans.last().unwrap());
        assert_eq!(space.decode(-3.0, 512), plans[0]);
        assert_eq!(space.decode(7.0, 512), *plans.last().unwrap());
    }

    #[test]
    fn disabled_space_is_default_only() {
        let space = ReconfigSpace {
            allow_sync: false,
            max_replicas: 1,
            max_batch_steps: 0,
            allow_relayout: false,
        };
        assert_eq!(space.plans(512), vec![ExecPlan::default()]);
    }

    #[test]
    fn reconfig_pause_charges_plan_changes_only() {
        let m = ScalingOverheadModel::default();
        let a = ExecPlan::default();
        let b = ExecPlan { gradient_mode: GradientMode::Sync, ..a };
        assert_eq!(m.reconfig_pause_seconds(&a, &a, false), 0.0);
        assert_eq!(m.reconfig_pause_seconds(&a, &b, false), m.seamless_pause_s);
        assert_eq!(m.reconfig_pause_seconds(&a, &a, true), m.seamless_pause_s);
        let stop = ScalingOverheadModel { seamless: false, ..Default::default() };
        assert_eq!(stop.reconfig_pause_seconds(&a, &b, false), stop.ps_restart_pause_s);
    }

    #[test]
    fn reconfig_gain_nets_out_the_pause() {
        let m = ScalingOverheadModel::default();
        let a = ExecPlan::default();
        let b = ExecPlan { gradient_mode: GradientMode::Sync, ..a };
        let gain = m.reconfig_gain(100.0, 120.0, &a, &b, false);
        assert!(gain < 20.0 && gain > 0.0, "gain {gain}");
        // A tiny improvement over a short horizon is not worth the pause.
        let short = ScalingOverheadModel { horizon_s: 30.0, ..Default::default() };
        assert!(short.reconfig_gain(100.0, 101.0, &a, &b, false) < 0.0);
    }
}
