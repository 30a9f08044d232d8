//! The runtime profiler: collects what the cluster brain's optimizer needs.
//!
//! "The profiler monitors and collects runtime information for each job
//! (i.e., from its workers and PSes) in a fixed interval and reports it to
//! the optimizer of the cluster brain." Two streams matter:
//!
//! * **throughput observations** — `(job shape, measured iteration time)`
//!   pairs for the online NNLS fit of the resource–performance model,
//!   reported one per tick in [`JobRuntimeProfile::observation`] (the
//!   policy keeps the window it fits on);
//! * **memory samples** — per-job memory totals feeding the OOM predictor.

use dlrover_perfmodel::{MemoryPredictor, MemorySample, ThroughputObservation};
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

/// Accumulates the job's memory samples for the OOM predictor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Profiler {
    memory: MemoryPredictor,
}

impl Profiler {
    /// Creates a profiler keeping the last `window` memory samples.
    pub(crate) fn new(window: usize) -> Self {
        Profiler { memory: MemoryPredictor::new(window.max(2)) }
    }

    /// Records a memory sample.
    pub(crate) fn record_memory(&mut self, at: SimTime, used_bytes: u64) {
        self.memory.observe(MemorySample { time: at.as_secs_f64(), used_bytes: used_bytes as f64 });
    }

    /// The memory predictor (for OOM forecasting).
    pub(crate) fn memory(&self) -> &MemoryPredictor {
        &self.memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_samples_feed_predictor() {
        let mut p = Profiler::new(8);
        for i in 0..5u64 {
            p.record_memory(SimTime::from_secs(i * 60), (10 + i) * 1_000_000_000);
        }
        let forecast = p.memory().forecast(100.0e9, 1e9).expect("enough samples");
        assert!(forecast.growth_rate > 0.0);
    }
}
