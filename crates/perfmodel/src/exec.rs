//! Execution plans: *how* a job runs, beyond *how much* it gets.
//!
//! DLRover-RM's optimizer (§4.3) searches over resource amounts only; the
//! execution plan — gradient-synchronisation mode, PS replication, batch
//! size, embedding-shard layout — is fixed at submission. Rubick
//! (PAPERS.md) showed that reconfiguring the execution plan *under the same
//! resource envelope* unlocks further cluster-wide gains, because the best
//! plan depends on the (time-varying) resource shape: a PS squeezed by
//! contention favours tree-aggregated synchronous updates, a lookup-heavy
//! job favours replicated read paths, and so on.
//!
//! [`ExecPlan`] is the persistent execution state of a job and
//! [`adjust_phases`] is the **single source of truth** for how a plan
//! rewrites the five-phase iteration decomposition of §4.1 (Eqns. 1–6).
//! Both the optimizer's pricing (`optimizer::scaling`) and the simulator's
//! physics (`pstrain::cost`) call the same function, so predicted gains are
//! realised gains by construction — the property the differential test
//! plane (`tests/reconfig_equivalence.rs`) then proves end to end.

use serde::{Deserialize, Serialize};

use crate::throughput::IterationBreakdown;

/// Multiplicative penalty on the synchronisation phase when running in
/// synchronous mode: the barrier serialises the slowest worker's exchange.
pub(crate) const SYNC_BARRIER_PENALTY: f64 = 0.25;

/// Fraction of embedding lookups a second (and further) replica absorbs.
/// Lookups are reads, so replicas shard the read load; the gain saturates
/// rather than scaling linearly because hot rows stay hot.
pub(crate) const LOOKUP_REPLICA_GAIN: f64 = 0.7;

/// How gradients reach the parameter servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GradientMode {
    /// Asynchronous PS training (the paper's default): workers iterate
    /// independently; every iteration pays one parameter update per worker.
    Async,
    /// Synchronous training with tree-aggregated updates: one barrier per
    /// iteration, but the PS applies `1 + log2(w)` aggregated updates
    /// instead of `w` individual ones.
    Sync,
}

impl GradientMode {
    /// Stable label for telemetry events and reports.
    pub fn label(self) -> &'static str {
        match self {
            GradientMode::Async => "async",
            GradientMode::Sync => "sync",
        }
    }
}

/// The execution plan of a running job — every knob the reconfiguration
/// layer may turn without changing the job's resource envelope.
///
/// `ExecPlan::default()` reproduces the pre-reconfiguration simulator
/// exactly: asynchronous updates, one copy of each parameter, the job
/// spec's own batch size. [`adjust_phases`] is the identity on the default
/// plan (early return, bit-exact), so enabling the reconfiguration layer
/// cannot perturb runs that never reconfigure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExecPlan {
    /// Gradient synchronisation mode.
    pub gradient_mode: GradientMode,
    /// PS replication factor (≥ 1): replicas shard the embedding-lookup
    /// read load but multiply the write-side update/sync work and the PS
    /// memory footprint (charged by the optimizer's price table).
    pub ps_replicas: u32,
    /// Per-worker mini-batch size; `0` means "the job spec's default".
    pub batch_size: u32,
}

impl Default for ExecPlan {
    fn default() -> Self {
        ExecPlan { gradient_mode: GradientMode::Async, ps_replicas: 1, batch_size: 0 }
    }
}

impl ExecPlan {
    /// True when the plan is the pre-reconfiguration default.
    pub fn is_default(&self) -> bool {
        *self == ExecPlan::default()
    }

    /// The batch size this plan runs at, given the job spec's default.
    pub fn effective_batch(&self, spec_batch: u32) -> u32 {
        if self.batch_size == 0 {
            spec_batch.max(1)
        } else {
            self.batch_size.max(1)
        }
    }

    /// The plan in its one representation for a job whose spec batch is
    /// `spec_batch`: the spec's own batch is stored as `0` and the replica
    /// count is at least 1, so two plans that run alike compare equal —
    /// which [`Self::is_default`]'s fast path and plan dedup rely on.
    pub fn normalised(self, spec_batch: u32) -> ExecPlan {
        let batch = self.effective_batch(spec_batch);
        ExecPlan {
            gradient_mode: self.gradient_mode,
            ps_replicas: self.ps_replicas.max(1),
            batch_size: if batch == spec_batch.max(1) { 0 } else { batch },
        }
    }

    /// True when the plan leaves per-iteration phase times untouched for
    /// the given spec batch — such a plan can change *layout* but not
    /// throughput, which is what the differential-equivalence harness
    /// exploits to bound JCT deltas by the charged pauses alone.
    pub fn is_throughput_neutral(&self, spec_batch: u32) -> bool {
        self.gradient_mode == GradientMode::Async
            && self.ps_replicas <= 1
            && self.effective_batch(spec_batch) == spec_batch.max(1)
    }

    /// Rewrites an iteration breakdown under this plan (see
    /// [`adjust_phases`]).
    pub fn adjust_breakdown(&self, b: IterationBreakdown, workers: u32) -> IterationBreakdown {
        let out = adjust_phases(self, [b.grad, b.update, b.sync, b.lookup, b.overhead], workers);
        IterationBreakdown {
            grad: out[0],
            update: out[1],
            sync: out[2],
            lookup: out[3],
            overhead: out[4],
        }
    }
}

/// Rewrites the five phase times `[t_grad, t_upd, t_sync, t_emb, β]` of one
/// iteration under an execution plan — the shared physics of the
/// reconfiguration layer (cited against §4.1's decomposition; the plan
/// space follows Rubick's execution-plan taxonomy):
///
/// * **Sync mode**: tree aggregation turns `w` individual parameter updates
///   into `1 + log2(w)` aggregated ones, scaling the update phase by
///   `(1 + log2 w)/w` — a large win exactly when the update term dominates
///   (PS-squeezed jobs). The barrier costs `SYNC_BARRIER_PENALTY` extra
///   on the synchronisation phase.
/// * **`r` PS replicas**: writes fan out to every replica (update and sync
///   scale by `r`), while lookups — reads, 30–48 % of iteration time per
///   Fig. 1a — are served by any replica, shrinking by
///   `1 + LOOKUP_REPLICA_GAIN·(r−1)`.
///
/// The default plan returns its input bit-exactly (early return): the
/// reconfiguration layer is invisible until a non-default plan is applied.
///
/// Batch-size changes are *not* applied here — batch is a feature of the
/// job shape (`m` in Eqn. 2/5), so callers price it by evaluating the
/// model at [`ExecPlan::effective_batch`].
pub fn adjust_phases(plan: &ExecPlan, phases: [f64; 5], workers: u32) -> [f64; 5] {
    if plan.gradient_mode == GradientMode::Async && plan.ps_replicas <= 1 {
        return phases;
    }
    let [grad, mut update, mut sync, mut lookup, overhead] = phases;
    if plan.gradient_mode == GradientMode::Sync {
        let w = f64::from(workers.max(1));
        update *= (1.0 + w.log2()) / w;
        sync *= 1.0 + SYNC_BARRIER_PENALTY;
    }
    let r = f64::from(plan.ps_replicas.max(1));
    if plan.ps_replicas > 1 {
        update *= r;
        sync *= r;
        lookup /= 1.0 + LOOKUP_REPLICA_GAIN * (r - 1.0);
    }
    [grad, update, sync, lookup, overhead]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phases() -> [f64; 5] {
        [0.4, 0.3, 0.1, 0.35, 0.05]
    }

    #[test]
    fn default_plan_is_bit_exact_identity() {
        let p = ExecPlan::default();
        assert_eq!(adjust_phases(&p, phases(), 16), phases());
        assert!(p.is_default());
        assert!(p.is_throughput_neutral(512));
    }

    #[test]
    fn sync_mode_discounts_update_and_penalises_sync() {
        let p = ExecPlan { gradient_mode: GradientMode::Sync, ..ExecPlan::default() };
        let out = adjust_phases(&p, phases(), 16);
        // (1 + log2 16)/16 = 5/16.
        assert!((out[1] - 0.3 * 5.0 / 16.0).abs() < 1e-12);
        assert!((out[2] - 0.1 * 1.25).abs() < 1e-12);
        assert_eq!(out[0], phases()[0]);
        assert_eq!(out[3], phases()[3]);
    }

    #[test]
    fn sync_mode_is_neutral_for_one_worker() {
        // (1 + log2 1)/1 = 1: a single worker has nothing to aggregate.
        let p = ExecPlan { gradient_mode: GradientMode::Sync, ..ExecPlan::default() };
        let out = adjust_phases(&p, phases(), 1);
        assert!((out[1] - phases()[1]).abs() < 1e-12);
    }

    #[test]
    fn replicas_trade_writes_for_lookups() {
        let p = ExecPlan { ps_replicas: 3, ..ExecPlan::default() };
        let out = adjust_phases(&p, phases(), 8);
        assert!((out[1] - 0.3 * 3.0).abs() < 1e-12);
        assert!((out[2] - 0.1 * 3.0).abs() < 1e-12);
        assert!((out[3] - 0.35 / (1.0 + 0.7 * 2.0)).abs() < 1e-12);
        assert!(!p.is_throughput_neutral(512));
    }

    #[test]
    fn effective_batch_defaults_to_spec() {
        assert_eq!(ExecPlan::default().effective_batch(512), 512);
        let p = ExecPlan { batch_size: 1024, ..ExecPlan::default() };
        assert_eq!(p.effective_batch(512), 1024);
        assert!(!p.is_throughput_neutral(512));
        assert!(p.is_throughput_neutral(1024));
        // The spec batch has one representation, `0`.
        assert_eq!(p.normalised(1024), ExecPlan::default());
        assert_eq!(p.normalised(512), p);
        assert!(ExecPlan { ps_replicas: 0, ..p }.normalised(1024).is_default());
    }

    #[test]
    fn breakdown_adjustment_matches_phase_adjustment() {
        let b =
            IterationBreakdown { grad: 0.4, update: 0.3, sync: 0.1, lookup: 0.35, overhead: 0.05 };
        let p = ExecPlan { gradient_mode: GradientMode::Sync, ps_replicas: 2, batch_size: 0 };
        let adj = p.adjust_breakdown(b, 8);
        let raw = adjust_phases(&p, [0.4, 0.3, 0.1, 0.35, 0.05], 8);
        assert_eq!([adj.grad, adj.update, adj.sync, adj.lookup, adj.overhead], raw);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(GradientMode::Async.label(), "async");
        assert_eq!(GradientMode::Sync.label(), "sync");
    }

    #[test]
    fn plans_roundtrip_through_json() {
        let p = ExecPlan { gradient_mode: GradientMode::Sync, ps_replicas: 2, batch_size: 256 };
        let s = serde_json::to_string(&p).unwrap();
        let back: ExecPlan = serde_json::from_str(&s).unwrap();
        assert_eq!(back, p);
    }
}
