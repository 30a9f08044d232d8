//! Embedding-memory growth model and OOM forecasting (§5.3).
//!
//! Memory of a DLRM training job has a *static* portion (dense parameters,
//! gradients, optimizer state) and a *variable* portion — the embedding
//! tables, whose row count `φ_cats` grows as new categorical values stream
//! in: `M_emb = T · D · φ_cats`. The paper models the short-horizon growth as
//! `Δφ_cats ∝ Ψ_thp · Δt` (proportional to data consumption).
//!
//! Two pieces live here:
//!
//! * [`MemoryModel`] — the *generator* used by the simulator: a saturating
//!   vocabulary-discovery curve (`φ(n) = φ_max·(1 − e^{−n/τ})`) that yields
//!   Fig. 1b's shape — fast near-linear growth early, flattening as the
//!   vocabulary is exhausted.
//! * [`MemoryPredictor`] — the *estimator* used by the OOM-prevention
//!   mechanism: a sliding-window linear fit of observed memory samples,
//!   extrapolated to the job's completion step to decide whether the PSes
//!   will exceed capacity before the job finishes.

use serde::{Deserialize, Serialize};

/// Saturating embedding-growth generator: ground truth for the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryModel {
    /// Static portion: parameters + gradients + optimizer state, bytes.
    pub static_bytes: f64,
    /// Bytes per embedding row (`T · D`, e.g. 4 bytes × 16 dims).
    pub bytes_per_row: f64,
    /// Total distinct categories that will ever appear, `φ_max`.
    pub max_categories: f64,
    /// Discovery scale `τ` in *samples*: after `τ` samples ~63 % of the
    /// vocabulary has been seen.
    pub discovery_tau: f64,
}

impl MemoryModel {
    /// Creates a model; all parameters must be positive.
    ///
    /// # Panics
    /// Panics on non-positive parameters.
    pub fn new(
        static_bytes: f64,
        bytes_per_row: f64,
        max_categories: f64,
        discovery_tau: f64,
    ) -> Self {
        assert!(static_bytes >= 0.0, "static_bytes must be >= 0");
        assert!(
            bytes_per_row > 0.0 && max_categories > 0.0 && discovery_tau > 0.0,
            "memory model parameters must be positive"
        );
        MemoryModel { static_bytes, bytes_per_row, max_categories, discovery_tau }
    }

    /// Distinct categories discovered after consuming `samples` data points.
    pub(crate) fn categories_after(&self, samples: f64) -> f64 {
        self.max_categories * (1.0 - (-samples.max(0.0) / self.discovery_tau).exp())
    }

    /// Embedding-table bytes after `samples` data points.
    pub fn embedding_bytes(&self, samples: f64) -> f64 {
        self.bytes_per_row * self.categories_after(samples)
    }

    /// Total (static + embedding) bytes after `samples` data points.
    pub fn total_bytes(&self, samples: f64) -> f64 {
        self.static_bytes + self.embedding_bytes(samples)
    }

    /// Instantaneous memory growth rate in bytes per sample at `samples`.
    pub fn growth_rate(&self, samples: f64) -> f64 {
        self.bytes_per_row * self.max_categories / self.discovery_tau
            * (-samples.max(0.0) / self.discovery_tau).exp()
    }
}

/// One observation of a job's memory footprint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemorySample {
    /// Observation time, seconds since job start.
    pub time: f64,
    /// Total memory in use, bytes.
    pub used_bytes: f64,
}

/// Outcome of an OOM forecast.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OomForecast {
    /// Estimated growth rate, bytes per second (0 when memory is flat).
    pub growth_rate: f64,
    /// Predicted memory use at the evaluation horizon, bytes.
    pub predicted_bytes: f64,
    /// `Some(eta_seconds)` when memory is projected to hit capacity before
    /// the horizon; measured from the most recent sample.
    pub time_to_oom: Option<f64>,
}

impl OomForecast {
    /// True when the job is projected to OOM before the horizon.
    pub fn will_oom(&self) -> bool {
        self.time_to_oom.is_some()
    }

    /// Capacity (with `headroom` fraction, e.g. 0.1 for 10 %) needed to
    /// survive until the horizon.
    pub fn required_capacity(&self, headroom: f64) -> f64 {
        self.predicted_bytes * (1.0 + headroom.max(0.0))
    }
}

/// Sliding-window linear extrapolation of memory use.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryPredictor {
    window: usize,
    samples: Vec<MemorySample>,
}

impl Default for MemoryPredictor {
    fn default() -> Self {
        MemoryPredictor::new(32)
    }
}

impl MemoryPredictor {
    /// Creates a predictor keeping the most recent `window` samples
    /// (minimum 2).
    pub fn new(window: usize) -> Self {
        let window = window.max(2);
        // Sized once: the caller observes every profiling interval, and the
        // window never holds more than `window + 1` samples.
        MemoryPredictor { window, samples: Vec::with_capacity(window + 1) }
    }

    /// Records a sample. Out-of-order samples (time not increasing) are
    /// ignored rather than corrupting the fit.
    pub fn observe(&mut self, sample: MemorySample) {
        if let Some(last) = self.samples.last() {
            if sample.time <= last.time {
                return;
            }
        }
        self.samples.push(sample);
        if self.samples.len() > self.window {
            let excess = self.samples.len() - self.window;
            self.samples.drain(..excess);
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Least-squares slope (bytes/s) and intercept over the window, or
    /// `None` with fewer than 2 samples.
    fn linear_fit(&self) -> Option<(f64, f64)> {
        let n = self.samples.len();
        if n < 2 {
            return None;
        }
        let nf = n as f64;
        let mean_t = self.samples.iter().map(|s| s.time).sum::<f64>() / nf;
        let mean_y = self.samples.iter().map(|s| s.used_bytes).sum::<f64>() / nf;
        let mut cov = 0.0;
        let mut var = 0.0;
        for s in &self.samples {
            let dt = s.time - mean_t;
            cov += dt * (s.used_bytes - mean_y);
            var += dt * dt;
        }
        if var <= 0.0 {
            return None;
        }
        let slope = cov / var;
        Some((slope, mean_y - slope * mean_t))
    }

    /// Forecasts memory use `horizon` seconds after the latest sample
    /// against `capacity_bytes` (per the paper: "check if PSes would exceed
    /// the memory capacity before the job completion").
    ///
    /// Returns `None` until at least two samples have been observed.
    pub fn forecast(&self, capacity_bytes: f64, horizon: f64) -> Option<OomForecast> {
        let (slope, intercept) = self.linear_fit()?;
        let last = self.samples.last().expect("fit implies samples");
        let slope = slope.max(0.0); // deallocation noise must not produce a negative trend
        let predicted = (slope * (last.time + horizon) + intercept).max(last.used_bytes);
        let time_to_oom = if last.used_bytes >= capacity_bytes {
            Some(0.0)
        } else if slope > 0.0 {
            // Seconds from the latest sample until the fitted line crosses
            // capacity.
            let eta = (capacity_bytes - (slope * last.time + intercept)) / slope;
            (eta <= horizon).then_some(eta.max(0.0))
        } else {
            None
        };
        Some(OomForecast { growth_rate: slope, predicted_bytes: predicted, time_to_oom })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1024.0 * 1024.0 * 1024.0;

    fn model() -> MemoryModel {
        // 64-dim float32 rows, 100M categories, tau = 1e9 samples, 2 GB static.
        MemoryModel::new(2.0 * GB, 4.0 * 64.0, 1.0e8, 1.0e9)
    }

    #[test]
    fn growth_is_monotone_and_saturates() {
        let m = model();
        let mut prev = m.total_bytes(0.0);
        for i in 1..=20 {
            let cur = m.total_bytes(i as f64 * 5.0e8);
            assert!(cur >= prev, "memory must not shrink");
            prev = cur;
        }
        let cap = m.static_bytes + m.bytes_per_row * m.max_categories;
        assert!(prev <= cap * 1.000_001);
        // Far beyond tau we are essentially at the cap.
        assert!(m.total_bytes(100.0 * m.discovery_tau) > 0.999 * cap);
    }

    #[test]
    fn zero_samples_is_static_only() {
        let m = model();
        assert_eq!(m.total_bytes(0.0), m.static_bytes);
        assert_eq!(m.categories_after(0.0), 0.0);
    }

    #[test]
    fn growth_rate_decays() {
        let m = model();
        assert!(m.growth_rate(0.0) > m.growth_rate(m.discovery_tau));
        assert!(m.growth_rate(m.discovery_tau) > m.growth_rate(10.0 * m.discovery_tau));
    }

    #[test]
    fn early_growth_is_near_linear() {
        // Within n << tau, φ ≈ φ_max · n/τ, matching the paper's Δφ ∝ Ψ·Δt.
        let m = model();
        let n = m.discovery_tau / 100.0;
        let linear = m.max_categories * n / m.discovery_tau;
        let actual = m.categories_after(n);
        assert!((actual - linear).abs() / linear < 0.01);
    }

    #[test]
    fn predictor_detects_linear_growth_exactly() {
        let mut p = MemoryPredictor::new(16);
        // 1 GB/minute growth starting from 10 GB.
        for i in 0..10 {
            p.observe(MemorySample {
                time: i as f64 * 60.0,
                used_bytes: 10.0 * GB + i as f64 * GB,
            });
        }
        let capacity = 30.0 * GB;
        let f = p.forecast(capacity, 3600.0).expect("enough samples");
        assert!((f.growth_rate - GB / 60.0).abs() / (GB / 60.0) < 1e-6);
        assert!(f.will_oom());
        // Last sample at t=540 has 19 GB; 11 GB to go at 1 GB/min = 660 s.
        let eta = f.time_to_oom.unwrap();
        assert!((eta - 660.0).abs() < 1.0, "eta {eta}");
    }

    #[test]
    fn predictor_flat_memory_never_ooms() {
        let mut p = MemoryPredictor::new(8);
        for i in 0..8 {
            p.observe(MemorySample { time: i as f64, used_bytes: 5.0 * GB });
        }
        let f = p.forecast(10.0 * GB, 1e9).unwrap();
        assert!(!f.will_oom());
        assert_eq!(f.growth_rate, 0.0);
    }

    #[test]
    fn predictor_shrinking_memory_clamps_rate() {
        let mut p = MemoryPredictor::new(8);
        for i in 0..8 {
            p.observe(MemorySample { time: i as f64, used_bytes: (10 - i) as f64 * GB });
        }
        let f = p.forecast(20.0 * GB, 1e9).unwrap();
        assert_eq!(f.growth_rate, 0.0);
        assert!(!f.will_oom());
    }

    #[test]
    fn already_over_capacity_is_immediate() {
        let mut p = MemoryPredictor::new(4);
        p.observe(MemorySample { time: 0.0, used_bytes: 11.0 * GB });
        p.observe(MemorySample { time: 1.0, used_bytes: 12.0 * GB });
        let f = p.forecast(10.0 * GB, 100.0).unwrap();
        assert_eq!(f.time_to_oom, Some(0.0));
    }

    #[test]
    fn oom_beyond_horizon_not_flagged() {
        let mut p = MemoryPredictor::new(4);
        p.observe(MemorySample { time: 0.0, used_bytes: 1.0 * GB });
        p.observe(MemorySample { time: 60.0, used_bytes: 1.0 * GB + 1e6 });
        // Growth ~16.7 KB/s; hitting 100 GB takes ages.
        let f = p.forecast(100.0 * GB, 3600.0).unwrap();
        assert!(!f.will_oom());
        assert!(f.growth_rate > 0.0);
    }

    #[test]
    fn window_slides() {
        let mut p = MemoryPredictor::new(4);
        for i in 0..10 {
            p.observe(MemorySample { time: i as f64, used_bytes: i as f64 });
        }
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn out_of_order_samples_ignored() {
        let mut p = MemoryPredictor::new(8);
        p.observe(MemorySample { time: 5.0, used_bytes: 1.0 });
        p.observe(MemorySample { time: 3.0, used_bytes: 99.0 });
        p.observe(MemorySample { time: 5.0, used_bytes: 42.0 });
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn insufficient_samples_yield_none() {
        let mut p = MemoryPredictor::new(8);
        assert!(p.forecast(GB, 10.0).is_none());
        p.observe(MemorySample { time: 0.0, used_bytes: 1.0 });
        assert!(p.forecast(GB, 10.0).is_none());
    }

    #[test]
    fn required_capacity_adds_headroom() {
        let f = OomForecast { growth_rate: 1.0, predicted_bytes: 100.0, time_to_oom: None };
        assert_eq!(f.required_capacity(0.2), 120.0);
        assert_eq!(f.required_capacity(-1.0), 100.0);
    }

    #[test]
    fn fig1b_shape_reaches_terabytes_in_hours() {
        // Reproduce the regime of Fig. 1b: a job whose embedding memory
        // passes 2.3 TB within ~15 hours at production throughput.
        let tb = 1024.0 * GB;
        // 4M samples/s, rows of 4KB (1024-dim float32), 1B categories.
        let m = MemoryModel::new(0.5 * tb, 4096.0, 1.0e9, 2.0e11);
        let throughput = 4.0e6; // samples per second
        let fifteen_hours = 15.0 * 3600.0;
        let bytes = m.total_bytes(throughput * fifteen_hours);
        assert!(bytes > 1.0 * tb, "only {} TB", bytes / tb);
    }
}
