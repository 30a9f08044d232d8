//! The four workloads. Each is a closed loop with one client: one op at a
//! time on one thread.

pub mod chaos;
pub mod dlrm;
pub mod elastic;
pub mod fleet;

use dlrover_telemetry::{Event, Telemetry};

use crate::harness::{per_call_seconds, Info};
use crate::metrics::MetricSet;

/// `telemetry.record_ns`: the workload's own events replayed into a fresh
/// sink of the default ring capacity, mean nanoseconds per `record`.
pub fn record_probe_ns(events: &[Event]) -> f64 {
    if events.is_empty() {
        return 0.0;
    }
    // One sink per sweep over the captured events, as one job has one sink.
    let per_sweep = per_call_seconds(0.25, |_| {
        let sink = Telemetry::default();
        for e in events {
            sink.record(e.at(), e.kind.clone());
        }
        std::hint::black_box(sink.event_count());
    });
    per_sweep * 1e9 / events.len() as f64
}

/// What a pass of jobs simulated: the exact, per-seed outcomes elastic-jobs
/// and chaos-jobs both report.
pub struct SimSummary {
    /// Mean simulated completion time of the jobs that completed.
    pub jct_mean_s: f64,
    /// Their 95th percentile.
    pub jct_p95_s: f64,
    /// Allocated core-hours per million samples trained.
    pub core_hours_per_msample: f64,
}

impl SimSummary {
    /// Summarises completed jobs' JCTs, the pass's core-hours and samples.
    pub fn of(jct_s: &[f64], core_hours: f64, samples: u64) -> Self {
        SimSummary {
            jct_mean_s: jct_s.iter().sum::<f64>() / jct_s.len().max(1) as f64,
            jct_p95_s: crate::stats::percentile(jct_s, 95.0),
            core_hours_per_msample: core_hours / (samples as f64 / 1e6),
        }
    }

    /// The `info` rows of a run: the summary, the pass's digest, its size.
    pub fn info(&self, sim_digest: u64, jobs: usize) -> Vec<Info> {
        vec![
            Info::num("sim_jct_mean_s", self.jct_mean_s, "s"),
            Info::num("sim_jct_p95_s", self.jct_p95_s, "s"),
            Info::num("sim_core_hours_per_msample", self.core_hours_per_msample, "ratio"),
            Info { name: "sim_digest", value: format!("{sim_digest:#018x}"), unit: "fnv" },
            Info::num("jobs_per_block", jobs as f64, "count"),
        ]
    }

    /// The same values as per-layer metrics of a traced run.
    pub fn set(&self, out: &mut MetricSet) {
        out.set("core.sim_jct_mean_s", self.jct_mean_s);
        out.set("core.sim_jct_p95_s", self.jct_p95_s);
        out.set("core.sim_core_hours_per_msample", self.core_hours_per_msample);
    }
}
