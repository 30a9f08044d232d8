//! The runtime profiler: collects what the cluster brain's optimizer needs.
//!
//! "The profiler monitors and collects runtime information for each job
//! (i.e., from its workers and PSes) in a fixed interval and reports it to
//! the optimizer of the cluster brain." Two streams matter:
//!
//! * **throughput observations** — `(job shape, measured iteration time)`
//!   pairs for the online NNLS fit of the resource–performance model;
//! * **memory samples** — per-job memory totals feeding the OOM predictor.

use dlrover_perfmodel::{
    MemoryPredictor, MemorySample, NnlsError, ThroughputModel, ThroughputObservation,
    WorkloadConstants,
};
use dlrover_sim::SimTime;
use serde::{Deserialize, Serialize};

/// A snapshot the profiler reports to the brain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRuntimeProfile {
    /// Job identifier.
    pub job_id: u64,
    /// Report time.
    pub at: SimTime,
    /// Current measured throughput, samples/s.
    pub throughput: f64,
    /// Samples remaining.
    pub remaining_samples: u64,
    /// Latest observation (shape + iteration time).
    pub observation: Option<ThroughputObservation>,
    /// Total PS memory in use, bytes.
    pub ps_memory_used: u64,
    /// Total PS memory allocated, bytes.
    pub ps_memory_alloc: u64,
    /// The job's active execution plan (reconfiguration state).
    pub exec: dlrover_perfmodel::ExecPlan,
    /// True when the job is running degraded (§6): degraded jobs hold
    /// their shape, so policies must not reconfigure them.
    pub degraded: bool,
}

/// Accumulates observations and fits models on demand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Profiler {
    constants: WorkloadConstants,
    observations: Vec<ThroughputObservation>,
    memory: MemoryPredictor,
    /// Maximum retained observations (sliding window).
    window: usize,
}

impl Profiler {
    /// Creates a profiler for a job with the given workload constants.
    pub fn new(constants: WorkloadConstants, window: usize) -> Self {
        Profiler {
            constants,
            // Sized once: a tick records into the window and may not grow it.
            observations: Vec::with_capacity(window.max(4) + 1),
            memory: MemoryPredictor::new(window.max(2)),
            window: window.max(4),
        }
    }

    /// Records a throughput observation.
    pub fn record_observation(&mut self, obs: ThroughputObservation) {
        self.observations.push(obs);
        if self.observations.len() > self.window {
            let excess = self.observations.len() - self.window;
            self.observations.drain(..excess);
        }
    }

    /// Records a memory sample.
    pub fn record_memory(&mut self, at: SimTime, used_bytes: u64) {
        self.memory.observe(MemorySample { time: at.as_secs_f64(), used_bytes: used_bytes as f64 });
    }

    /// Number of retained observations.
    pub fn observation_count(&self) -> usize {
        self.observations.len()
    }

    /// Distinct shapes among retained observations — the fit is only
    /// well-posed with several distinct shapes.
    pub fn distinct_shapes(&self) -> usize {
        dlrover_perfmodel::distinct_shape_count(&self.observations)
    }

    /// Fits the throughput model from the retained window. Returns the model
    /// and its RMSLE on the window.
    pub fn fit(&self) -> Result<(ThroughputModel, f64), NnlsError> {
        ThroughputModel::fit(self.constants, &self.observations)
    }

    /// The memory predictor (for OOM forecasting).
    pub fn memory(&self) -> &MemoryPredictor {
        &self.memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrover_perfmodel::{JobShape, ModelCoefficients};

    fn truth() -> ThroughputModel {
        ThroughputModel::new(WorkloadConstants::default(), ModelCoefficients::paper_reference())
    }

    #[test]
    fn window_slides() {
        let mut p = Profiler::new(WorkloadConstants::default(), 8);
        let s = JobShape::new(2, 1, 4.0, 4.0, 512);
        for i in 0..20 {
            p.record_observation(ThroughputObservation { shape: s, iter_time: 1.0 + i as f64 });
        }
        assert_eq!(p.observation_count(), 8);
    }

    #[test]
    fn distinct_shapes_counts_correctly() {
        let mut p = Profiler::new(WorkloadConstants::default(), 32);
        for w in [1u32, 2, 4] {
            let s = JobShape::new(w, 1, 4.0, 4.0, 512);
            p.record_observation(ThroughputObservation { shape: s, iter_time: 1.0 });
            p.record_observation(ThroughputObservation { shape: s, iter_time: 1.1 });
        }
        assert_eq!(p.distinct_shapes(), 3);
        assert_eq!(p.observation_count(), 6);
    }

    #[test]
    fn fit_recovers_truth_from_profiled_shapes() {
        let truth = truth();
        let mut p = Profiler::new(truth.constants, 128);
        for w in [1u32, 2, 4, 8] {
            for ps in [1u32, 2, 4] {
                for cpu in [2.0, 8.0] {
                    let s = JobShape::new(w, ps, cpu, cpu, 512);
                    p.record_observation(ThroughputObservation {
                        shape: s,
                        iter_time: truth.iter_time(&s),
                    });
                }
            }
        }
        let (fitted, err) = p.fit().expect("fit");
        assert!(err < 1e-6);
        let s = JobShape::new(6, 3, 5.0, 5.0, 512);
        let rel = (fitted.throughput(&s) - truth.throughput(&s)).abs() / truth.throughput(&s);
        assert!(rel < 0.01, "interpolation error {rel}");
    }

    #[test]
    fn memory_samples_feed_predictor() {
        let mut p = Profiler::new(WorkloadConstants::default(), 8);
        for i in 0..5u64 {
            p.record_memory(SimTime::from_secs(i * 60), (10 + i) * 1_000_000_000);
        }
        let forecast = p.memory().forecast(100.0e9, 1e9).expect("enough samples");
        assert!(forecast.growth_rate > 0.0);
    }

    #[test]
    fn empty_fit_errors() {
        let p = Profiler::new(WorkloadConstants::default(), 8);
        assert!(p.fit().is_err());
    }
}
