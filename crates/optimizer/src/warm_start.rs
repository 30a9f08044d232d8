//! Warm-starting: pre-scaling stage of the three-stage algorithm
//! (Algorithm 1 of the paper).
//!
//! When a new job arrives, the cluster brain looks up the `k` most similar
//! historical jobs in the config DB, ranks them by similarity ascending, and
//! exponentially smooths their final configurations:
//!
//! ```text
//! Ā⁰ = A⁰                       (least similar of the top-k)
//! Āⁱ = μ·Aⁱ + (1−μ)·Āⁱ⁻¹        (i = 1 … k−1, most similar last)
//! ```
//!
//! so the most similar job contributes weight `μ`, the next `μ(1−μ)`, and so
//! on — the start-up configuration is dominated by the closest historical
//! matches but regularised by the rest.

use dlrover_perfmodel::JobShape;
use serde::{Deserialize, Serialize};

use crate::plan::ResourceAllocation;

/// Metadata describing a job for similarity search. These are features
/// available *before* the job runs (model type, table sizes, dataset size),
/// mirroring "the job's features (e.g., model metadata)".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobMetadata {
    /// Model family, e.g. "wide_deep", "xdeepfm", "dcn".
    pub model_kind: String,
    /// Submitting user/team (same user's jobs tend to repeat).
    pub owner: String,
    /// Number of categorical features / embedding tables.
    pub num_sparse_features: u32,
    /// Embedding dimension.
    pub embedding_dim: u32,
    /// Dataset size in samples.
    pub dataset_samples: u64,
    /// Dense-part parameter count.
    pub dense_params: u64,
}

/// A historical record: metadata plus the final (converged) allocation the
/// auto-scaler settled on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job features at submission time.
    pub metadata: JobMetadata,
    /// The allocation the job ended up with.
    pub final_allocation: ResourceAllocation,
}

/// Warm-start hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WarmStartConfig {
    /// How many similar jobs to blend (`k`).
    pub top_k: usize,
    /// Exponential-smoothing factor `μ ∈ (0, 1)`.
    pub mu: f64,
}

impl Default for WarmStartConfig {
    fn default() -> Self {
        WarmStartConfig { top_k: 5, mu: 0.5 }
    }
}

/// Similarity between two jobs' metadata in `[0, 1]` (1 = identical).
///
/// A Gower-style mix: categorical fields contribute equality indicators,
/// numeric fields contribute `1 − |a−b|/max(a,b)` (ratio similarity, robust
/// to scale). Weights favour the model family and owner, which dominate
/// configuration reuse in practice.
pub(crate) fn similarity(a: &JobMetadata, b: &JobMetadata) -> f64 {
    fn ratio_sim(x: f64, y: f64) -> f64 {
        let hi = x.max(y);
        if hi <= 0.0 {
            return 1.0;
        }
        1.0 - (x - y).abs() / hi
    }
    let mut score = 0.0;
    let mut weight = 0.0;
    // Categorical.
    for (matched, w) in [(a.model_kind == b.model_kind, 3.0), (a.owner == b.owner, 2.0)] {
        score += if matched { w } else { 0.0 };
        weight += w;
    }
    // Numeric.
    for (x, y, w) in [
        (a.num_sparse_features as f64, b.num_sparse_features as f64, 1.5),
        (a.embedding_dim as f64, b.embedding_dim as f64, 1.0),
        (a.dataset_samples as f64, b.dataset_samples as f64, 1.5),
        (a.dense_params as f64, b.dense_params as f64, 1.0),
    ] {
        score += ratio_sim(x, y) * w;
        weight += w;
    }
    score / weight
}

/// Algorithm 1: returns the warm-starting allocation for `job`, or `None`
/// when the history is empty.
pub fn warm_start(
    history: &[JobRecord],
    job: &JobMetadata,
    config: &WarmStartConfig,
) -> Option<ResourceAllocation> {
    if history.is_empty() || config.top_k == 0 {
        return None;
    }
    let mu = config.mu.clamp(0.01, 0.99);

    // Top-k by similarity, then rank ascending so the most similar is last.
    let mut scored: Vec<(f64, &JobRecord)> =
        history.iter().map(|r| (similarity(job, &r.metadata), r)).collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("NaN similarity"));
    scored.truncate(config.top_k);
    scored.reverse(); // ascending similarity: A⁰ least similar … Aᵏ⁻¹ most

    // Exponential smoothing over the allocation fields.
    let fields = |a: &ResourceAllocation| -> [f64; 6] {
        [
            f64::from(a.shape.workers),
            f64::from(a.shape.ps),
            a.shape.worker_cpu,
            a.shape.ps_cpu,
            a.worker_mem_gb,
            a.ps_mem_gb,
        ]
    };
    let mut smoothed = fields(&scored[0].1.final_allocation);
    for (_, record) in &scored[1..] {
        let cur = fields(&record.final_allocation);
        for (s, c) in smoothed.iter_mut().zip(cur) {
            *s = mu * c + (1.0 - mu) * *s;
        }
    }

    let batch = scored.last().expect("nonempty").1.final_allocation.shape.batch_size;
    let shape = JobShape::new(
        smoothed[0].round().max(1.0) as u32,
        smoothed[1].round().max(1.0) as u32,
        smoothed[2],
        smoothed[3],
        batch,
    );
    Some(ResourceAllocation::new(shape, smoothed[4], smoothed[5]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(kind: &str, owner: &str, samples: u64) -> JobMetadata {
        JobMetadata {
            model_kind: kind.to_string(),
            owner: owner.to_string(),
            num_sparse_features: 26,
            embedding_dim: 16,
            dataset_samples: samples,
            dense_params: 1_000_000,
        }
    }

    fn alloc(w: u32, p: u32, cpu: f64) -> ResourceAllocation {
        ResourceAllocation::new(JobShape::new(w, p, cpu, cpu, 512), cpu * 4.0, cpu * 8.0)
    }

    fn record(kind: &str, owner: &str, samples: u64, w: u32, p: u32, cpu: f64) -> JobRecord {
        JobRecord { metadata: meta(kind, owner, samples), final_allocation: alloc(w, p, cpu) }
    }

    #[test]
    fn similarity_identity_is_one() {
        let m = meta("wide_deep", "alice", 1_000_000);
        assert!((similarity(&m, &m) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_decreases_with_differences() {
        let base = meta("wide_deep", "alice", 1_000_000);
        let same_kind = meta("wide_deep", "bob", 1_000_000);
        let diff_kind = meta("dcn", "bob", 1_000_000);
        assert!(similarity(&base, &same_kind) > similarity(&base, &diff_kind));
        let diff_data = meta("wide_deep", "alice", 100_000_000);
        assert!(similarity(&base, &base) > similarity(&base, &diff_data));
    }

    #[test]
    fn similarity_is_symmetric() {
        let a = meta("wide_deep", "alice", 1_000_000);
        let b = meta("dcn", "bob", 5_000_000);
        assert!((similarity(&a, &b) - similarity(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn empty_history_gives_none() {
        let job = meta("wide_deep", "alice", 1_000_000);
        assert!(warm_start(&[], &job, &WarmStartConfig::default()).is_none());
    }

    #[test]
    fn identical_history_returns_that_allocation() {
        let job = meta("wide_deep", "alice", 1_000_000);
        let history = vec![record("wide_deep", "alice", 1_000_000, 8, 4, 8.0); 5];
        let a = warm_start(&history, &job, &WarmStartConfig::default()).unwrap();
        assert_eq!(a.shape.workers, 8);
        assert_eq!(a.shape.ps, 4);
        assert!((a.shape.worker_cpu - 8.0).abs() < 1e-9);
    }

    #[test]
    fn most_similar_job_dominates_the_blend() {
        let job = meta("wide_deep", "alice", 1_000_000);
        let history = vec![
            // Exact match with a big allocation.
            record("wide_deep", "alice", 1_000_000, 16, 8, 16.0),
            // Distant matches with tiny allocations.
            record("dcn", "bob", 64_000_000, 2, 1, 2.0),
            record("xdeepfm", "carol", 32_000_000, 2, 1, 2.0),
        ];
        let a = warm_start(&history, &job, &WarmStartConfig { top_k: 3, mu: 0.5 })
            .expect("history nonempty");
        // With μ=0.5 the most similar contributes 50 %, so workers should be
        // pulled well above the distant jobs' 2.
        assert!(a.shape.workers >= 9, "workers = {}", a.shape.workers);
    }

    #[test]
    fn top_k_limits_the_blend() {
        let job = meta("wide_deep", "alice", 1_000_000);
        let mut history = vec![record("wide_deep", "alice", 1_000_000, 10, 5, 10.0)];
        // Lots of noise records that must be excluded with k=1.
        for i in 0..20 {
            history.push(record("dcn", "zed", 9_000_000 + i, 1, 1, 1.0));
        }
        let a = warm_start(&history, &job, &WarmStartConfig { top_k: 1, mu: 0.5 }).unwrap();
        assert_eq!(a.shape.workers, 10);
        assert_eq!(a.shape.ps, 5);
    }

    #[test]
    fn k_larger_than_history_is_fine() {
        let job = meta("wide_deep", "alice", 1_000_000);
        let history = vec![record("wide_deep", "alice", 1_000_000, 4, 2, 4.0)];
        let a = warm_start(&history, &job, &WarmStartConfig { top_k: 10, mu: 0.3 }).unwrap();
        assert_eq!(a.shape.workers, 4);
    }

    #[test]
    fn zero_k_gives_none() {
        let job = meta("wide_deep", "alice", 1_000_000);
        let history = vec![record("wide_deep", "alice", 1_000_000, 4, 2, 4.0)];
        assert!(warm_start(&history, &job, &WarmStartConfig { top_k: 0, mu: 0.5 }).is_none());
    }

    #[test]
    fn smoothing_matches_hand_computation() {
        // Two records; similarity orders r1 (exact) above r2.
        let job = meta("wide_deep", "alice", 1_000_000);
        let r_far = record("dcn", "bob", 2_000_000, 2, 2, 2.0);
        let r_near = record("wide_deep", "alice", 1_000_000, 10, 4, 8.0);
        let mu = 0.7;
        let a =
            warm_start(&[r_far.clone(), r_near.clone()], &job, &WarmStartConfig { top_k: 2, mu })
                .unwrap();
        // Ā = μ·A_near + (1−μ)·A_far.
        let expect_workers = (mu * 10.0 + (1.0 - mu) * 2.0_f64).round() as u32;
        assert_eq!(a.shape.workers, expect_workers);
        let expect_cpu = mu * 8.0 + (1.0 - mu) * 2.0;
        assert!((a.shape.worker_cpu - expect_cpu).abs() < 1e-9);
    }

    #[test]
    fn result_is_at_least_minimal() {
        // Even absurd histories produce a runnable (≥1 worker/PS) plan.
        let job = meta("wide_deep", "alice", 1);
        let history = vec![record("dcn", "zed", u64::MAX, 1, 1, 0.1)];
        let a = warm_start(&history, &job, &WarmStartConfig::default()).unwrap();
        assert!(a.shape.workers >= 1);
        assert!(a.shape.ps >= 1);
        assert!(a.shape.worker_cpu > 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_record() -> impl Strategy<Value = JobRecord> {
        (
            prop_oneof!["wide_deep", "dcn", "xdeepfm"],
            prop_oneof!["alice", "bob", "carol"],
            1u64..1_000_000_000,
            1u32..64,
            1u32..32,
            0.5f64..32.0,
        )
            .prop_map(|(kind, owner, samples, w, p, cpu)| JobRecord {
                metadata: JobMetadata {
                    model_kind: kind.to_string(),
                    owner: owner.to_string(),
                    num_sparse_features: 26,
                    embedding_dim: 16,
                    dataset_samples: samples,
                    dense_params: 1_000_000,
                },
                final_allocation: ResourceAllocation::new(
                    dlrover_perfmodel::JobShape::new(w, p, cpu, cpu, 512),
                    cpu * 4.0,
                    cpu * 8.0,
                ),
            })
    }

    proptest! {
        /// Exponential smoothing is a convex combination: every field of the
        /// warm-start allocation lies within the [min, max] hull of the
        /// history's fields (±0.5 for rounded integer fields).
        #[test]
        fn warm_start_stays_in_history_hull(
            history in proptest::collection::vec(arbitrary_record(), 1..12),
            k in 1usize..8,
            mu in 0.05f64..0.95,
        ) {
            let job = JobMetadata {
                model_kind: "dcn".into(),
                owner: "alice".into(),
                num_sparse_features: 26,
                embedding_dim: 16,
                dataset_samples: 5_000_000,
                dense_params: 1_000_000,
            };
            let a = warm_start(&history, &job, &WarmStartConfig { top_k: k, mu })
                .expect("nonempty history");
            let hull = |f: &dyn Fn(&JobRecord) -> f64| -> (f64, f64) {
                let vals: Vec<f64> = history.iter().map(f).collect();
                (
                    vals.iter().cloned().fold(f64::INFINITY, f64::min),
                    vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                )
            };
            let (wmin, wmax) = hull(&|r| f64::from(r.final_allocation.shape.workers));
            prop_assert!(f64::from(a.shape.workers) >= wmin - 0.5);
            prop_assert!(f64::from(a.shape.workers) <= wmax + 0.5);
            let (pmin, pmax) = hull(&|r| f64::from(r.final_allocation.shape.ps));
            prop_assert!(f64::from(a.shape.ps) >= pmin - 0.5);
            prop_assert!(f64::from(a.shape.ps) <= pmax + 0.5);
            let (cmin, cmax) = hull(&|r| r.final_allocation.shape.worker_cpu);
            prop_assert!(a.shape.worker_cpu >= cmin - 1e-9);
            prop_assert!(a.shape.worker_cpu <= cmax + 1e-9);
        }

        /// Similarity is bounded in [0, 1] and symmetric.
        #[test]
        fn similarity_bounded_and_symmetric(
            a in arbitrary_record(),
            b in arbitrary_record(),
        ) {
            let s = similarity(&a.metadata, &b.metadata);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((s - similarity(&b.metadata, &a.metadata)).abs() < 1e-12);
        }
    }
}
