//! The metric registry: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — the bound by which it may worsen
//! before a change counts as a regression. `BENCHMARK.json` lists the same
//! names; a unit test holds the two together.

use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload, never zero.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, all on the host clock. The simulated-clock
/// outcomes and the AUC are per-layer metrics (`core.sim_*`, `dlrm.auc_min`):
/// not every workload has them, and every run must print every end-to-end
/// metric.
///
/// One bound serves all four workloads, so it is set by the noisiest: over
/// ten seeds on the sandbox the inter-quartile spreads were 3-8% for
/// `ops_per_s` on the three CPU-bound workloads but 5-13% on fleet-sweep
/// (depending on the hour), 5-13% for `step_p99_ms`, and up to 13% for
/// `peak_rss_mb` (chaos-jobs, a 6.7 MB process; fleet-sweep up to 9%). A
/// bound has to be about three times the spread to tell a regression from
/// the weather.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "step_p99_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// How a per-layer metric is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum How {
    /// A decorator at a public boundary inside the real drive loop.
    Seam,
    /// Captured inputs replayed in a tight loop against a public function.
    Probe,
    /// An exact counter read from a report or a telemetry snapshot.
    Count,
    /// Exact call count x probed per-call time (code with no seam).
    Estimate,
}

impl How {
    /// Short word for tables.
    pub fn word(self) -> &'static str {
        match self {
            How::Seam => "seam",
            How::Probe => "probe",
            How::Count => "count",
            How::Estimate => "estimate",
        }
    }
}

/// A per-layer metric. Printed by every traced run; 0 on a workload that
/// does not exercise the layer (`on` names the ones that do).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<layer>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// How it is measured.
    pub how: How,
    /// Workloads that measure it.
    pub on: &'static [&'static str],
}

impl PerLayer {
    /// The layer (crate) the metric belongs to.
    #[cfg(test)]
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Whether `workload` measures metric `name` (every end-to-end metric is
/// measured on every workload).
pub fn measured_on(name: &str, workload: &str) -> bool {
    PER_LAYER.iter().find(|p| p.name == name).is_none_or(|p| p.on.contains(&workload))
}

const E: &[&str] = &["elastic-jobs"];
const C: &[&str] = &["chaos-jobs"];
const F: &[&str] = &["fleet-sweep"];
const D: &[&str] = &["dlrm-train"];
const EC: &[&str] = &["elastic-jobs", "chaos-jobs"];
const ECF: &[&str] = &["elastic-jobs", "chaos-jobs", "fleet-sweep"];
const ALL: &[&str] = &["elastic-jobs", "chaos-jobs", "fleet-sweep", "dlrm-train"];

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    how: How,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer { name, unit, better, how, on }
}

use Better::{Higher, Lower};
use How::{Count, Estimate, Probe, Seam};

/// The per-layer metrics, grouped by layer.
pub const PER_LAYER: &[PerLayer] = &[
    // brain: the per-job policy (profile -> fit -> plan) and the fleet brain.
    m("brain.adjust_busy_share", "ratio", Lower, Seam, E),
    m("brain.adjust_p50_ms", "ms", Lower, Seam, E),
    m("brain.adjust_p99_ms", "ms", Lower, Seam, E),
    m("brain.adjust_calls", "count", Lower, Count, E),
    m("brain.decisions", "count", Lower, Count, E),
    m("brain.decision_ratio", "ratio", Higher, Count, E),
    m("brain.replan_ms", "ms", Lower, Probe, E),
    // optimizer: NSGA-II plan search.
    m("optimizer.plan_search_ms", "ms", Lower, Probe, E),
    m("optimizer.plan_search_reconfig_ms", "ms", Lower, Probe, E),
    m("optimizer.nsga_gens_per_s", "1/s", Higher, Probe, E),
    m("optimizer.front_size_mean", "count", Higher, Probe, E),
    m("optimizer.hypervolume_mean", "ratio", Higher, Probe, E),
    // perfmodel: NNLS fit, throughput evaluation, memory forecast.
    m("perfmodel.fit_us", "us", Lower, Probe, E),
    m("perfmodel.throughput_eval_ns", "ns", Lower, Probe, E),
    m("perfmodel.mem_forecast_us", "us", Lower, Probe, E),
    m("perfmodel.fit_rmsle", "rmsle", Lower, Probe, E),
    // pstrain: the virtual-time engine, its cost model, and real-SGD mode.
    m("pstrain.advance_us", "us", Lower, Probe, EC),
    m("pstrain.advance_share_est", "ratio", Lower, Estimate, C),
    m("pstrain.cost_evals_per_s", "1/s", Higher, Probe, C),
    m("pstrain.shard_checkout_ns", "ns", Lower, Probe, C),
    m("pstrain.real_samples_per_s.wide_deep", "1/s", Higher, Seam, D),
    m("pstrain.real_samples_per_s.xdeepfm", "1/s", Higher, Seam, D),
    m("pstrain.real_samples_per_s.dcn", "1/s", Higher, Seam, D),
    m("pstrain.real_samples_per_s.lookup", "1/s", Higher, Seam, D),
    m("pstrain.real_round_p50_ms", "ms", Lower, Seam, D),
    // dlrm: the CTR model kernels.
    m("dlrm.grad_us_per_sample", "us", Lower, Probe, D),
    m("dlrm.apply_us_per_sample", "us", Lower, Probe, D),
    m("dlrm.predict_us_per_sample", "us", Lower, Probe, D),
    m("dlrm.lookup_ns", "ns", Lower, Probe, D),
    m("dlrm.datagen_samples_per_s", "1/s", Higher, Probe, D),
    m("dlrm.embedding_mb", "MB", Lower, Count, D),
    m("dlrm.kernel_share_est", "ratio", Lower, Estimate, D),
    m("dlrm.auc_min", "auc", Higher, Count, D),
    // master: tick / profile / apply on the steady path, recovery machinery.
    m("master.tick_busy_share", "ratio", Lower, Seam, E),
    m("master.tick_p50_us", "us", Lower, Seam, E),
    m("master.apply_decision_us", "us", Lower, Seam, E),
    m("master.profile_us", "us", Lower, Seam, E),
    m("master.scalings_per_job", "count", Lower, Count, E),
    m("master.ckpt_saves_per_s", "1/s", Higher, Probe, C),
    m("master.ckpt_share_est", "ratio", Lower, Estimate, C),
    m("master.replay_events_per_s", "1/s", Higher, Probe, C),
    m("master.sim_recovery_p95_s", "s", Lower, Count, C),
    m("master.retries", "count", Lower, Count, C),
    m("master.retry_exhausted", "count", Lower, Count, C),
    // cluster: the sharded fleet, and the legacy substrate chaos jobs use.
    m("cluster.epoch_p50_ms", "ms", Lower, Seam, F),
    m("cluster.epoch_p99_ms", "ms", Lower, Seam, F),
    m("cluster.shard_run_share", "ratio", Lower, Seam, F),
    m("cluster.exchange_share", "ratio", Lower, Seam, F),
    m("cluster.pod_events_per_s", "1/s", Higher, Seam, F),
    m("cluster.wheel_events_per_s", "1/s", Higher, Seam, F),
    m("cluster.fleet_build_s", "s", Lower, Seam, F),
    m("cluster.bytes_per_pod", "B", Lower, Seam, F),
    m("cluster.jobs_gave_up", "count", Lower, Count, F),
    m("cluster.pod_failures", "count", Lower, Count, F),
    m("cluster.sim_wait_mean_s", "s", Lower, Count, F),
    m("cluster.legacy_schedule_us", "us", Lower, Probe, C),
    m("cluster.legacy_schedule_share_est", "ratio", Lower, Estimate, C),
    // telemetry: the event sink, the ordered merge, the oracle.
    m("telemetry.record_ns", "ns", Lower, Probe, ECF),
    m("telemetry.record_share_est", "ratio", Lower, Estimate, ECF),
    m("telemetry.events_recorded", "count", Lower, Count, ECF),
    m("telemetry.events_dropped", "count", Lower, Count, ECF),
    m("telemetry.merge_items_per_s", "1/s", Higher, Seam, F),
    m("telemetry.oracle_check_ms", "ms", Lower, Probe, C),
    m("telemetry.oracle_share_est", "ratio", Lower, Estimate, C),
    // sim: fault-plan generation (chaos-jobs set-up).
    m("sim.faultplan_gen_us", "us", Lower, Probe, C),
    // core: one whole job through the drive loop, and what it simulated.
    m("core.job_p50_ms.elastic", "ms", Lower, Seam, E),
    m("core.job_p50_ms.chaos", "ms", Lower, Seam, C),
    m("core.sim_jct_mean_s", "s", Lower, Count, ECF),
    m("core.sim_jct_p95_s", "s", Lower, Count, EC),
    m("core.sim_core_hours_per_msample", "ratio", Lower, Count, EC),
    // bench: the harness itself.
    m("bench.pool_speedup_2t", "ratio", Higher, Seam, F),
    m("bench.unit_overhead_us", "us", Lower, Probe, F),
    m("bench.trace_overhead_ratio", "ratio", Lower, Seam, ALL),
    m("bench.attributed_share", "ratio", Higher, Seam, ALL),
];

/// The workloads, with the one line saying why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "elastic-jobs",
        "the paper's core loop per job (profile, NNLS fit, NSGA-II plan, migrate, train): brain+optimizer+perfmodel do ~88% of the work",
    ),
    (
        "chaos-jobs",
        "the same master/pstrain layers under kill/restore/replay/retry on a static gang; the optimizer never runs, so its gains must not show here",
    ),
    (
        "fleet-sweep",
        "1M-pod sharded fleets: cluster store, timer wheel, exchange and telemetry record do all the work; counter-workload to every job-loop change",
    ),
    (
        "dlrm-train",
        "real SGD through RealModeTrainer under worker churn: dlrm kernels + pstrain::real only, no simulator layer runs",
    ),
];

/// Values for one run, keyed by registered name.
#[derive(Debug, Default, Clone)]
pub struct MetricSet(BTreeMap<&'static str, f64>);

impl MetricSet {
    /// Sets `name`, which must be a registered per-layer or end-to-end name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|p| p.name == name) || END_TO_END.iter().any(|e| e.name == name),
            "unregistered metric {name}"
        );
        self.0.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The value of `name`, 0 when the run did not measure it.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The `metrics` object of the result line: every end-to-end metric
    /// (`traced == false`) or every per-layer metric (`traced == true`), in
    /// registry order.
    pub fn to_json(&self, traced: bool) -> serde_json::Value {
        let mut map = serde_json::Map::new();
        let mut put = |name: &'static str, unit: &'static str| {
            map.insert(
                name.to_string(),
                serde_json::json!({ "value": self.get(name), "unit": unit }),
            );
        };
        if traced {
            PER_LAYER.iter().for_each(|p| put(p.name, p.unit));
        } else {
            END_TO_END.iter().for_each(|e| put(e.name, e.unit));
        }
        serde_json::Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn registry_obeys_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        names.extend(PER_LAYER.iter().map(|p| p.name));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        assert!(names.iter().all(|n| valid_name(n)), "bad name");
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(END_TO_END.iter().all(|e| valid_unit(e.unit) && e.bound > 0.0 && e.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|p| valid_unit(p.unit) && !p.on.is_empty()));
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|e| e.name == "setup_s" && e.unit == "s"));
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        const LAYERS: [&str; 11] = [
            "sim",
            "telemetry",
            "perfmodel",
            "optimizer",
            "pstrain",
            "dlrm",
            "cluster",
            "master",
            "brain",
            "core",
            "bench",
        ];
        assert!(PER_LAYER.iter().all(|p| LAYERS.contains(&p.layer())), "unknown layer");
        assert!(LAYERS.iter().all(|l| PER_LAYER.iter().any(|p| p.layer() == *l)));
    }

    /// `BENCHMARK.json` sits outside this package; where it is present (the
    /// repository checkout) it must list exactly the registry.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else { return };
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc[key]
                .as_array()
                .expect("array")
                .iter()
                .map(|e| e["name"].as_str().expect("name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>());
        assert_eq!(names("end_to_end"), END_TO_END.iter().map(|e| e.name).collect::<Vec<_>>());
        assert_eq!(names("per_layer"), PER_LAYER.iter().map(|p| p.name).collect::<Vec<_>>());
        for (e, j) in END_TO_END.iter().zip(doc["end_to_end"].as_array().expect("array")) {
            assert_eq!(j["unit"].as_str(), Some(e.unit));
            assert_eq!(j["better"].as_str(), Some(e.better.word()));
            assert_eq!(j["bound"].as_f64(), Some(e.bound));
        }
        for (p, j) in PER_LAYER.iter().zip(doc["per_layer"].as_array().expect("array")) {
            assert_eq!(j["unit"].as_str(), Some(p.unit), "{}", p.name);
            assert_eq!(j["better"].as_str(), Some(p.better.word()), "{}", p.name);
        }
        for (w, j) in WORKLOADS.iter().zip(doc["workloads"].as_array().expect("array")) {
            assert_eq!(j["why"].as_str(), Some(w.1));
        }
    }
}
