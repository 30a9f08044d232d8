//! Synthetic Criteo-like click-log generator with a planted ground truth.
//!
//! The Kaggle Criteo dataset (13 integer features, 26 categorical features,
//! binary click label) is the paper's evaluation workload. It is not
//! available offline, so this module generates a statistically similar
//! stream:
//!
//! * categorical ids per feature follow a Zipf law (long-tail skew, exactly
//!   what makes embedding tables grow and lookups hot),
//! * dense features are log-normal (click counts are heavy-tailed),
//! * labels are drawn from a *planted* logistic model over per-category
//!   latent weights, dense weights, and a few pairwise interactions — so a
//!   CTR model genuinely has something to learn and AUC climbs above 0.5
//!   only if training works.
//!
//! Generation is deterministic in `(config, seed, index)`: sample `i` is the
//! same on every call, which lets the dynamic data-sharding service hand out
//! index ranges instead of materialised data.

use rand::Rng;
use serde::{Deserialize, Serialize};

use dlrover_sim::{splitmix64, LogNormal, RngStreams, Sample as SampleDist, Zipf};

/// Number of dense (integer) features, as in Criteo.
pub(crate) const NUM_DENSE: usize = 13;
/// Number of categorical features, as in Criteo.
pub(crate) const NUM_SPARSE: usize = 26;

/// One training sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Dense features, already log-transformed to a sane range.
    pub dense: [f32; NUM_DENSE],
    /// Categorical ids, one per feature (Criteo categoricals are
    /// single-valued).
    pub sparse: [u64; NUM_SPARSE],
    /// Click label.
    pub label: bool,
}

/// Generator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Per-feature category cardinality. Criteo cardinalities span 10s to
    /// millions; the default mimics that spread at laptop scale.
    pub cardinalities: [u64; NUM_SPARSE],
    /// Zipf exponent for categorical skew.
    pub zipf_exponent: f64,
    /// Strength of the planted signal (logit scale). Larger → easier task.
    pub signal_scale: f64,
    /// Base click-through rate (logit intercept is derived from it).
    pub base_ctr: f64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        let mut cardinalities = [0u64; NUM_SPARSE];
        for (i, c) in cardinalities.iter_mut().enumerate() {
            // Spread cardinalities log-uniformly from ~30 to ~200k.
            let t = i as f64 / (NUM_SPARSE - 1) as f64;
            *c = (30.0 * (200_000.0f64 / 30.0).powf(t)).round() as u64;
        }
        DatasetConfig { cardinalities, zipf_exponent: 1.05, signal_scale: 1.2, base_ctr: 0.25 }
    }
}

/// The synthetic dataset: an infinite, indexable stream of samples.
#[derive(Debug, Clone)]
pub struct SyntheticCriteo {
    config: DatasetConfig,
    seed: u64,
    zipf: Vec<Zipf>,
    dense_dist: LogNormal,
    intercept: f64,
    /// Planted weight of each dense feature, a function of the seed only.
    dense_weights: [f64; NUM_DENSE],
}

impl SyntheticCriteo {
    /// Creates a generator for `config` rooted at `seed`.
    pub fn new(config: DatasetConfig, seed: u64) -> Self {
        let zipf = config
            .cardinalities
            .iter()
            .map(|&c| Zipf::new(c.max(1), config.zipf_exponent))
            .collect();
        let p = config.base_ctr.clamp(0.01, 0.99);
        let mut g = SyntheticCriteo {
            zipf,
            dense_dist: LogNormal::new(0.0, 1.0),
            intercept: (p / (1.0 - p)).ln(),
            dense_weights: [0.0; NUM_DENSE],
            config,
            seed,
        };
        g.dense_weights = std::array::from_fn(|d| g.category_weight(NUM_SPARSE + d, 0) * 0.3);
        g
    }

    /// The generator's configuration.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// Planted latent weight of category `id` in feature `feat`: a
    /// deterministic pseudo-normal derived from the hash, so the ground
    /// truth never needs to be stored.
    fn category_weight(&self, feat: usize, id: u64) -> f64 {
        let h = splitmix64(self.seed ^ splitmix64((feat as u64) << 32 ^ id));
        // Map to approximately N(0, 1) via an Irwin–Hall sum of 4 uniforms.
        let mut acc = 0.0;
        let mut s = h;
        for _ in 0..4 {
            s = splitmix64(s);
            acc += (s >> 11) as f64 / (1u64 << 53) as f64;
        }
        (acc - 2.0) * (12.0f64 / 4.0).sqrt()
    }

    /// Generates sample `index` deterministically.
    pub fn sample(&self, index: u64) -> Sample {
        let streams = RngStreams::new(self.seed);
        let mut rng = streams.indexed_stream("sample", index);

        let mut sparse = [0u64; NUM_SPARSE];
        for (f, slot) in sparse.iter_mut().enumerate() {
            *slot = self.zipf[f].index(&mut rng);
        }
        let mut dense = [0.0f32; NUM_DENSE];
        for d in dense.iter_mut() {
            // log1p-transformed log-normal, like standard Criteo prep.
            *d = (self.dense_dist.sample(&mut rng)).ln_1p() as f32;
        }

        // Planted logit: categorical main effects + dense linear part +
        // two pairwise interactions that reward deeper models.
        let mut logit = self.intercept;
        for (f, &id) in sparse.iter().enumerate() {
            logit +=
                self.config.signal_scale * self.category_weight(f, id) / (NUM_SPARSE as f64).sqrt();
        }
        for (&w, &x) in self.dense_weights.iter().zip(&dense) {
            logit += w * f64::from(x);
        }
        let inter1 = self.category_weight(100, sparse[0] ^ (sparse[1] << 20));
        let inter2 = self.category_weight(101, sparse[2] ^ (sparse[3] << 20));
        logit += self.config.signal_scale * 0.5 * (inter1 + inter2) / 2.0;

        let p = 1.0 / (1.0 + (-logit).exp());
        let label = rng.gen::<f64>() < p;
        Sample { dense, sparse, label }
    }

    /// Generates the half-open index range `[start, start + n)` as a batch.
    pub fn batch(&self, start: u64, n: usize) -> Vec<Sample> {
        let mut out = Vec::new();
        self.batch_into(start, n, &mut out);
        out
    }

    /// [`Self::batch`] into a caller-owned buffer, replacing its contents.
    pub fn batch_into(&self, start: u64, n: usize, out: &mut Vec<Sample>) {
        out.clear();
        out.extend((start..start + n as u64).map(|i| self.sample(i)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen() -> SyntheticCriteo {
        SyntheticCriteo::new(DatasetConfig::default(), 42)
    }

    #[test]
    fn deterministic_by_index() {
        let g = gen();
        assert_eq!(g.sample(0), g.sample(0));
        assert_eq!(g.sample(123_456), g.sample(123_456));
        assert_ne!(g.sample(0), g.sample(1));
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticCriteo::new(DatasetConfig::default(), 1);
        let b = SyntheticCriteo::new(DatasetConfig::default(), 2);
        assert_ne!(a.sample(0), b.sample(0));
    }

    #[test]
    fn sparse_ids_respect_cardinalities() {
        let g = gen();
        for i in 0..2_000 {
            let s = g.sample(i);
            for (f, &id) in s.sparse.iter().enumerate() {
                assert!(
                    id < g.config().cardinalities[f],
                    "feature {f} id {id} >= cardinality {}",
                    g.config().cardinalities[f]
                );
            }
        }
    }

    #[test]
    fn categorical_skew_is_zipfian() {
        // The most frequent id of a high-cardinality feature should own a
        // disproportionate share of impressions.
        let g = gen();
        let feat = NUM_SPARSE - 1; // largest cardinality
        let mut head = 0usize;
        let n = 5_000;
        for i in 0..n {
            if g.sample(i).sparse[feat] == 0 {
                head += 1;
            }
        }
        let share = head as f64 / n as f64;
        assert!(share > 0.02, "head share {share} too small for Zipf");
    }

    #[test]
    fn ctr_is_near_configured_base() {
        let g = gen();
        let n = 20_000;
        let clicks = (0..n).filter(|&i| g.sample(i).label).count();
        let ctr = clicks as f64 / n as f64;
        // Signal spreads the logits, so the realised CTR drifts from the
        // base; it must stay in a plausible band.
        assert!((0.10..0.55).contains(&ctr), "ctr {ctr}");
    }

    #[test]
    fn labels_are_learnable_from_planted_weights() {
        // An oracle that uses the planted category weights directly must
        // rank clicks above non-clicks (AUC substantially > 0.5). This
        // guards against the generator producing pure noise.
        let g = gen();
        let n = 4_000u64;
        let mut scored: Vec<(f64, bool)> = Vec::with_capacity(n as usize);
        for i in 0..n {
            let s = g.sample(i);
            let mut logit = 0.0;
            for (f, &id) in s.sparse.iter().enumerate() {
                logit += g.category_weight(f, id);
            }
            scored.push((logit, s.label));
        }
        // Rank-sum AUC.
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let positives = scored.iter().filter(|(_, l)| *l).count() as f64;
        let negatives = scored.len() as f64 - positives;
        let mut rank_sum = 0.0;
        for (rank, (_, label)) in scored.iter().enumerate() {
            if *label {
                rank_sum += (rank + 1) as f64;
            }
        }
        let auc = (rank_sum - positives * (positives + 1.0) / 2.0) / (positives * negatives);
        assert!(auc > 0.6, "planted signal too weak: oracle AUC {auc}");
    }

    #[test]
    fn dense_features_are_finite_and_nonnegative() {
        let g = gen();
        for i in 0..500 {
            for &d in &g.sample(i).dense {
                assert!(d.is_finite());
                assert!(d >= 0.0, "log1p of positive value must be >= 0");
            }
        }
    }

    #[test]
    fn batch_matches_individual_samples() {
        let g = gen();
        let b = g.batch(10, 5);
        assert_eq!(b.len(), 5);
        for (k, s) in b.iter().enumerate() {
            assert_eq!(*s, g.sample(10 + k as u64));
        }
    }

    #[test]
    fn default_cardinalities_span_orders_of_magnitude() {
        let c = DatasetConfig::default().cardinalities;
        assert!(c[0] < 100);
        assert!(c[NUM_SPARSE - 1] > 100_000);
        assert!(c.windows(2).all(|w| w[0] <= w[1]));
    }
}
