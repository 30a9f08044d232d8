//! The throughput model of §4.1 (Eqns. 1–6) and its online NNLS fitter.
//!
//! One training iteration decomposes into gradient computation, parameter
//! update, parameter synchronisation, and embedding lookup. Each term is
//! linear in a *feature* of the job shape, so fitting the α/β coefficients
//! from runtime profiles is a (non-negative) linear regression:
//!
//! ```text
//! T_iter = α_grad·(m/λ_w) + α_upd·(w/(p·λ_p)) + α_sync·(M·w/(p·B)) + α_emb·(m·D/p) + β
//! Ψ_thp  = w·m / T_iter
//! ```
//!
//! The four β constants of the paper are not separately identifiable from
//! iteration timings (they are four copies of the same constant column), so
//! — exactly like the paper, which reports only "2.45 for the sum of β" — we
//! fit a single combined `β_total`.

use serde::{Deserialize, Serialize};

use crate::linalg::Matrix;
use crate::nnls::{nnls, NnlsError};

/// The resource shape of a PS-architecture training job (Table 3 notation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobShape {
    /// Number of workers `w`.
    pub workers: u32,
    /// Number of parameter servers `p`.
    pub ps: u32,
    /// CPU cores per worker `λ_w`.
    pub worker_cpu: f64,
    /// CPU cores per parameter server `λ_p`.
    pub ps_cpu: f64,
    /// Mini-batch size per worker `m` (fixed during training).
    pub batch_size: u32,
}

impl JobShape {
    /// Creates a shape; clamps degenerate inputs up to the minimum viable
    /// configuration (1 worker, 1 PS, 0.1 core) so the model never divides
    /// by zero.
    pub fn new(workers: u32, ps: u32, worker_cpu: f64, ps_cpu: f64, batch_size: u32) -> Self {
        JobShape {
            workers: workers.max(1),
            ps: ps.max(1),
            worker_cpu: worker_cpu.max(0.1),
            ps_cpu: ps_cpu.max(0.1),
            batch_size: batch_size.max(1),
        }
    }

    /// Total CPU cores requested by the job.
    pub fn total_cpu(&self) -> f64 {
        f64::from(self.workers) * self.worker_cpu + f64::from(self.ps) * self.ps_cpu
    }

    /// The model features `[m/λ_w, w/(p·λ_p), M·w/(p·B), m·D/p, 1]`.
    pub fn features(&self, constants: &WorkloadConstants) -> [f64; 5] {
        let w = f64::from(self.workers);
        let p = f64::from(self.ps);
        let m = f64::from(self.batch_size);
        [
            m / self.worker_cpu,
            w / (p * self.ps_cpu),
            constants.model_size * w / (p * constants.bandwidth),
            m * constants.embedding_dim / p,
            1.0,
        ]
    }
}

/// Workload-level constants of the model: model size `M`, per-job network
/// bandwidth `B`, and embedding dimension `D`. The units cancel inside the
/// features, so the only requirement is consistency across observations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConstants {
    /// Dense-parameter size `M` (e.g. in MB).
    pub model_size: f64,
    /// Network bandwidth share `B` (e.g. in MB/s).
    pub bandwidth: f64,
    /// Embedding dimension `D` (normalised; e.g. dim/16).
    pub embedding_dim: f64,
}

impl Default for WorkloadConstants {
    fn default() -> Self {
        // Chosen so the paper-reference coefficients put embedding lookups
        // at ~40 % of a typical iteration (the 30–48 % band of Fig. 1a).
        WorkloadConstants { model_size: 100.0, bandwidth: 1_000.0, embedding_dim: 0.5 }
    }
}

/// Fitted (or ground-truth) coefficients of the throughput model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelCoefficients {
    /// Gradient-computation slope `α_grad` (Eqn. 2).
    pub alpha_grad: f64,
    /// Parameter-update slope `α_upd` (Eqn. 3).
    pub alpha_upd: f64,
    /// Synchronisation slope `α_sync` (Eqn. 4).
    pub alpha_sync: f64,
    /// Embedding-lookup slope `α_emb` (Eqn. 5).
    pub alpha_emb: f64,
    /// Combined constant `β_total = β_grad + β_upd + β_sync + β_emb`.
    pub beta_total: f64,
}

impl ModelCoefficients {
    /// The coefficients the paper reports for its production fit (§6.2,
    /// Fig. 11): `α_grad = 3.48, α_upd = 2.36, α_lookup = 2.45,
    /// α_sync = 0.68`, `Σβ = 2.45`. Used as the simulator's ground truth so
    /// the shapes of the reproduced figures match the paper's regime.
    pub fn paper_reference() -> Self {
        ModelCoefficients {
            alpha_grad: 3.48,
            alpha_upd: 2.36,
            alpha_sync: 0.68,
            alpha_emb: 2.45,
            beta_total: 2.45,
        }
    }

    /// The paper-reference coefficients rescaled into the testbed's
    /// operating regime.
    ///
    /// Fig. 11 reports the *relative* coefficients of the production fit;
    /// the features there are normalised, so applying them to raw
    /// `(m, w, p, λ)` values yields iteration times in the hundreds of
    /// seconds. The paper's testbed jobs run at 100–250 steps/s (Fig. 10),
    /// i.e. ~0.1 s iterations. This constructor keeps the reported ratios —
    /// which set the phase mix of Fig. 1a — and divides the scale by 1800
    /// so a well-tuned 16-worker job lands at ~150 steps/s, matching the
    /// regime every timing figure assumes.
    pub fn simulation_truth() -> Self {
        const SCALE: f64 = 1.0 / 1800.0;
        let p = Self::paper_reference();
        ModelCoefficients {
            alpha_grad: p.alpha_grad * SCALE,
            alpha_upd: p.alpha_upd * SCALE,
            alpha_sync: p.alpha_sync * SCALE,
            alpha_emb: p.alpha_emb * SCALE,
            beta_total: p.beta_total * SCALE,
        }
    }

    /// Builds coefficients from the feature-aligned vector.
    pub(crate) fn from_vec(v: &[f64]) -> Self {
        assert_eq!(v.len(), 5, "coefficient vector must have 5 entries");
        ModelCoefficients {
            alpha_grad: v[0],
            alpha_upd: v[1],
            alpha_sync: v[2],
            alpha_emb: v[3],
            beta_total: v[4],
        }
    }
}

/// Per-phase decomposition of one iteration (drives Fig. 1a).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationBreakdown {
    /// Gradient computation time `T_grad`.
    pub grad: f64,
    /// Parameter update time `T_upd`.
    pub update: f64,
    /// Synchronisation time `T_sync`.
    pub sync: f64,
    /// Embedding lookup time `T_emb`.
    pub lookup: f64,
    /// Constant overhead `β_total`.
    pub overhead: f64,
}

impl IterationBreakdown {
    /// Total iteration time.
    pub fn total(&self) -> f64 {
        self.grad + self.update + self.sync + self.lookup + self.overhead
    }
}

/// One profiled data point: a job shape plus its measured iteration time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputObservation {
    /// Shape at measurement time.
    pub shape: JobShape,
    /// Measured wall-clock duration of one iteration, seconds.
    pub iter_time: f64,
}

/// The resource–performance model: constants + fitted coefficients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputModel {
    /// Workload constants (M, B, D).
    pub constants: WorkloadConstants,
    /// Current coefficient estimates.
    pub coefficients: ModelCoefficients,
}

impl ThroughputModel {
    /// Creates a model with explicit coefficients.
    pub fn new(constants: WorkloadConstants, coefficients: ModelCoefficients) -> Self {
        ThroughputModel { constants, coefficients }
    }

    /// Predicted per-phase iteration breakdown for `shape`.
    ///
    /// The constant `β_total` is attributed to overhead; the paper's Fig. 1a
    /// operator split corresponds to the four α-driven terms.
    pub fn breakdown(&self, shape: &JobShape) -> IterationBreakdown {
        let f = shape.features(&self.constants);
        let c = self.coefficients;
        IterationBreakdown {
            grad: c.alpha_grad * f[0],
            update: c.alpha_upd * f[1],
            sync: c.alpha_sync * f[2],
            lookup: c.alpha_emb * f[3],
            overhead: c.beta_total,
        }
    }

    /// Predicted iteration time `T_iter` in seconds.
    pub fn iter_time(&self, shape: &JobShape) -> f64 {
        self.breakdown(shape).total()
    }

    /// Predicted throughput `Ψ = w·m / T_iter` in samples per second (Eqn. 1).
    pub fn throughput(&self, shape: &JobShape) -> f64 {
        let t = self.iter_time(shape);
        f64::from(shape.workers) * f64::from(shape.batch_size) / t
    }

    /// Fits coefficients from runtime observations with NNLS.
    ///
    /// Each row is scaled by `1 / T_measured`, which turns the squared error
    /// into a *relative* error — the practical stand-in for the RMSLE
    /// objective the paper minimises (log-space error ≈ relative error for
    /// small residuals). Returns the fitted model and its RMSLE on the
    /// training observations.
    ///
    /// Requires at least one observation; more shapes than coefficients
    /// (≥ 5 distinct shapes) are needed for the fit to be well-posed.
    pub fn fit(
        constants: WorkloadConstants,
        observations: &[ThroughputObservation],
    ) -> Result<(Self, f64), NnlsError> {
        if observations.is_empty() {
            return Err(NnlsError::ShapeMismatch);
        }
        let rows = observations.len();
        let mut data = Vec::with_capacity(rows * 5);
        let mut rhs = Vec::with_capacity(rows);
        for obs in observations {
            let t = obs.iter_time.max(1e-9);
            let f = obs.shape.features(&constants);
            // Relative scaling: divide the whole row by the observed time.
            for feat in f {
                data.push(feat / t);
            }
            rhs.push(1.0);
        }
        let a = Matrix::from_rows(rows, 5, data);
        let (x, _) = nnls(&a, &rhs)?;
        let model = ThroughputModel::new(constants, ModelCoefficients::from_vec(&x));
        let predictions: Vec<f64> =
            observations.iter().map(|o| model.iter_time(&o.shape)).collect();
        let actuals: Vec<f64> = observations.iter().map(|o| o.iter_time).collect();
        let err = rmsle(&predictions, &actuals);
        Ok((model, err))
    }
}

/// Number of distinct job shapes among observations — the NNLS fit is only
/// well-posed with at least as many distinct shapes as coefficients, so the
/// DLRover policy and Optimus both gate on this count.
pub fn distinct_shape_count(observations: &[ThroughputObservation]) -> usize {
    let mut shapes: Vec<(u32, u32, u64, u64)> = observations
        .iter()
        .map(|o| {
            (
                o.shape.workers,
                o.shape.ps,
                (o.shape.worker_cpu * 1000.0) as u64,
                (o.shape.ps_cpu * 1000.0) as u64,
            )
        })
        .collect();
    shapes.sort_unstable();
    shapes.dedup();
    shapes.len()
}

/// Root mean squared logarithmic error between predictions and actuals —
/// the goodness-of-fit metric quoted in §4.3 ("minimizing the RMSLE between
/// the theoretical model and the actual data").
pub fn rmsle(predictions: &[f64], actuals: &[f64]) -> f64 {
    assert_eq!(predictions.len(), actuals.len(), "length mismatch");
    assert!(!predictions.is_empty(), "rmsle of empty slice");
    let sum: f64 = predictions
        .iter()
        .zip(actuals)
        .map(|(p, a)| {
            let d = (1.0 + p.max(0.0)).ln() - (1.0 + a.max(0.0)).ln();
            d * d
        })
        .sum();
    (sum / predictions.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_model() -> ThroughputModel {
        ThroughputModel::new(WorkloadConstants::default(), ModelCoefficients::paper_reference())
    }

    fn shape(w: u32, p: u32, cw: f64, cp: f64) -> JobShape {
        JobShape::new(w, p, cw, cp, 512)
    }

    #[test]
    fn breakdown_sums_to_iter_time() {
        let m = reference_model();
        let s = shape(4, 2, 8.0, 8.0);
        let b = m.breakdown(&s);
        assert!((b.total() - m.iter_time(&s)).abs() < 1e-12);
    }

    #[test]
    fn more_worker_cpu_speeds_up_gradients() {
        let m = reference_model();
        let slow = m.iter_time(&shape(4, 2, 2.0, 8.0));
        let fast = m.iter_time(&shape(4, 2, 16.0, 8.0));
        assert!(fast < slow);
    }

    #[test]
    fn more_ps_speeds_up_lookup_and_update() {
        let m = reference_model();
        let few = m.breakdown(&shape(4, 1, 8.0, 8.0));
        let many = m.breakdown(&shape(4, 4, 8.0, 8.0));
        assert!(many.lookup < few.lookup);
        assert!(many.update < few.update);
        assert!(many.sync < few.sync);
    }

    #[test]
    fn throughput_scales_with_workers_sublinearly() {
        // Adding workers adds sync/update load, so throughput grows but
        // less than linearly.
        let m = reference_model();
        let t1 = m.throughput(&shape(1, 2, 8.0, 8.0));
        let t8 = m.throughput(&shape(8, 2, 8.0, 8.0));
        assert!(t8 > t1, "more workers must help");
        assert!(t8 < 8.0 * t1, "but not perfectly linearly");
    }

    #[test]
    fn lookup_fraction_in_paper_range_for_typical_shapes() {
        // The simulator's ground truth should land lookups in roughly the
        // 30-48 % band the paper reports for production jobs (Fig. 1a).
        let m = reference_model();
        let b = m.breakdown(&shape(8, 4, 8.0, 8.0));
        let frac = b.lookup / b.total();
        assert!((0.25..0.60).contains(&frac), "lookup fraction {frac} out of plausible band");
    }

    #[test]
    fn fit_recovers_ground_truth_from_clean_samples() {
        let truth = reference_model();
        let mut obs = Vec::new();
        for w in [1u32, 2, 4, 8, 16] {
            for p in [1u32, 2, 4, 8] {
                for cpu in [2.0, 4.0, 8.0, 16.0] {
                    let s = shape(w, p, cpu, cpu);
                    obs.push(ThroughputObservation { shape: s, iter_time: truth.iter_time(&s) });
                }
            }
        }
        let (fitted, err) = ThroughputModel::fit(truth.constants, &obs).unwrap();
        assert!(err < 1e-6, "rmsle {err}");
        let c = fitted.coefficients;
        let t = truth.coefficients;
        assert!((c.alpha_grad - t.alpha_grad).abs() < 1e-4, "{c:?}");
        assert!((c.alpha_upd - t.alpha_upd).abs() < 1e-4, "{c:?}");
        assert!((c.alpha_sync - t.alpha_sync).abs() < 1e-4, "{c:?}");
        assert!((c.alpha_emb - t.alpha_emb).abs() < 1e-4, "{c:?}");
        assert!((c.beta_total - t.beta_total).abs() < 1e-4, "{c:?}");
    }

    #[test]
    fn fit_with_noise_stays_close() {
        let truth = reference_model();
        let mut obs = Vec::new();
        let mut k = 0u64;
        for w in [1u32, 2, 4, 8] {
            for p in [1u32, 2, 4] {
                for cpu in [2.0, 8.0, 16.0] {
                    let s = shape(w, p, cpu, cpu);
                    k = k.wrapping_mul(6364136223846793005).wrapping_add(97);
                    let noise = 1.0 + (((k >> 33) as f64 / (1u64 << 31) as f64) - 0.5) * 0.1;
                    obs.push(ThroughputObservation {
                        shape: s,
                        iter_time: truth.iter_time(&s) * noise,
                    });
                }
            }
        }
        let (fitted, err) = ThroughputModel::fit(truth.constants, &obs).unwrap();
        assert!(err < 0.05, "rmsle {err}");
        // Predictions stay within 15 % of the truth across the sampled grid.
        for o in &obs {
            let pred = fitted.throughput(&o.shape);
            let actual = truth.throughput(&o.shape);
            assert!(
                (pred - actual).abs() / actual < 0.15,
                "prediction {pred} vs {actual} at {:?}",
                o.shape
            );
        }
    }

    #[test]
    fn fit_rejects_empty_input() {
        assert!(ThroughputModel::fit(WorkloadConstants::default(), &[]).is_err());
    }

    #[test]
    fn fitted_coefficients_are_nonnegative() {
        // Even with adversarially noisy data, NNLS guarantees α, β ≥ 0.
        let truth = reference_model();
        let obs: Vec<_> = (1..=12u32)
            .map(|i| {
                let s = shape(i, (i % 3) + 1, 4.0, 4.0);
                ThroughputObservation {
                    shape: s,
                    iter_time: truth.iter_time(&s) * if i % 2 == 0 { 1.5 } else { 0.6 },
                }
            })
            .collect();
        let (fitted, _) = ThroughputModel::fit(truth.constants, &obs).unwrap();
        let c = fitted.coefficients;
        for v in [c.alpha_grad, c.alpha_upd, c.alpha_sync, c.alpha_emb, c.beta_total] {
            assert!(v >= 0.0, "{:?}", fitted.coefficients);
        }
    }

    #[test]
    fn degenerate_shape_is_clamped() {
        let s = JobShape::new(0, 0, 0.0, -3.0, 0);
        assert_eq!(s.workers, 1);
        assert_eq!(s.ps, 1);
        assert!(s.worker_cpu > 0.0);
        assert!(s.ps_cpu > 0.0);
        assert_eq!(s.batch_size, 1);
        let m = reference_model();
        assert!(m.iter_time(&s).is_finite());
    }

    #[test]
    fn rmsle_properties() {
        assert_eq!(rmsle(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        let e1 = rmsle(&[2.0], &[1.0]);
        let e2 = rmsle(&[4.0], &[1.0]);
        assert!(e2 > e1);
        // Symmetric in ratio direction (log-space property).
        let a = rmsle(&[10.0], &[1.0]);
        let b = rmsle(&[1.0], &[10.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn total_cpu_accounts_both_roles() {
        let s = shape(4, 2, 8.0, 16.0);
        assert_eq!(s.total_cpu(), 4.0 * 8.0 + 2.0 * 16.0);
    }

    #[test]
    fn distinct_shape_count_ignores_repeats() {
        let obs: Vec<_> = [1u32, 2, 4]
            .iter()
            .flat_map(|&w| {
                let s = shape(w, 1, 4.0, 4.0);
                [1.0, 1.1].map(|iter_time| ThroughputObservation { shape: s, iter_time })
            })
            .collect();
        assert_eq!(obs.len(), 6);
        assert_eq!(distinct_shape_count(&obs), 3);
    }
}
