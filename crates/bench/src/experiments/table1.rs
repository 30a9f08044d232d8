//! Table 1: DLRM training cost, CPU-only vs CPU-GPU hybrid on cloud
//! pricing — the hybrid is faster but CPU-only trains more samples per
//! dollar and GPUs sit ~3 % utilised.

use dlrover_perfmodel::{ModelCoefficients, WorkloadConstants};
use dlrover_pstrain::{AsyncCostModel, HybridCostModel, PodState};

use crate::parallel::{merge_telemetry, run_units_auto, Unit};
use crate::report::Report;

/// Runs the Table 1 comparison. One unit per workload (two independent
/// analytic cost evaluations).
pub(crate) fn run(_seed: u64) -> String {
    let mut r = Report::new("table1", "CPU-only vs hybrid training cost (AWS pricing)");
    r.row(
        &[
            "model".into(),
            "device".into(),
            "time(h)".into(),
            "$/h".into(),
            "Msamples/$".into(),
            "cpu util".into(),
            "gpu util".into(),
        ],
        &[10, 8, 8, 6, 11, 9, 9],
    );

    // Wide&Deep and DeepFM: DeepFM's FM interactions are lookup-heavier.
    let workloads = [
        (
            "Wide&Deep",
            WorkloadConstants { model_size: 80.0, bandwidth: 1_000.0, embedding_dim: 0.45 },
        ),
        ("DeepFM", WorkloadConstants { model_size: 90.0, bandwidth: 1_000.0, embedding_dim: 0.60 }),
    ];
    let hybrid = HybridCostModel::default();
    let total_samples = 6.0e8; // enough data to take ~1-2 hours CPU-only

    let hybrid_ref = &hybrid;
    let units = workloads
        .iter()
        .enumerate()
        .map(|(i, &(name, constants))| {
            Unit::new(format!("{i}/{name}"), move |_t| {
                // One c5.4xlarge-style box: 4 workers x 3 cores + 2 PS x 2 cores.
                let workers = vec![PodState::new(3.0); 4];
                let cost =
                    AsyncCostModel::new(ModelCoefficients::simulation_truth(), constants, 512);
                let parts = AsyncCostModel::balanced_partitions(2, 2.0);
                let cmp = hybrid_ref.compare(&cost, &workers, &parts, total_samples);
                let cpu_util =
                    cost.job_cpu_utilisation(workers.iter().copied(), workers.len() as u32, &parts);
                (cmp, cpu_util)
            })
        })
        .collect();
    let outputs = run_units_auto(units);

    let mut rows = Vec::new();
    for (&(name, _), out) in workloads.iter().zip(&outputs) {
        let (cmp, cpu_util) = out.value;
        r.row(
            &[
                name.into(),
                "CPU".into(),
                format!("{:.2}", cmp.cpu_hours),
                format!("{:.2}", hybrid.cpu_price_per_hour),
                format!("{:.1}", cmp.cpu_samples_per_usd),
                format!("{:.0}%", cpu_util * 100.0),
                "/".into(),
            ],
            &[10, 8, 8, 6, 11, 9, 9],
        );
        r.row(
            &[
                name.into(),
                "Hybrid".into(),
                format!("{:.2}", cmp.hybrid_hours),
                format!("{:.2}", hybrid.hybrid_price_per_hour),
                format!("{:.1}", cmp.hybrid_samples_per_usd),
                format!("{:.0}%", cpu_util * 100.0 * 0.85),
                format!("{:.1}%", cmp.gpu_utilisation * 100.0),
            ],
            &[10, 8, 8, 6, 11, 9, 9],
        );
        rows.push((name, cmp));
    }
    r.line(
        "\nshape check: hybrid is faster in wall-clock, CPU-only wins on\n\
         samples per dollar, GPU utilisation stays in single digits\n\
         (paper: 3.4 vs 1.9 and 3.1 vs 2.1 Msamples/$, GPU util ~3-4%)",
    );
    for (name, cmp) in &rows {
        r.record(
            &name.to_lowercase().replace(['&', ' '], "_").to_string(),
            &serde_json::json!({
                "cpu_hours": cmp.cpu_hours,
                "hybrid_hours": cmp.hybrid_hours,
                "cpu_msamples_per_usd": cmp.cpu_samples_per_usd,
                "hybrid_msamples_per_usd": cmp.hybrid_samples_per_usd,
                "gpu_utilisation": cmp.gpu_utilisation,
            }),
        );
    }
    r.telemetry(&merge_telemetry(&outputs));
    r.finish()
}

#[cfg(test)]
mod tests {
    #[test]
    fn table1_shape_holds() {
        let json = &crate::fixture::canonical("table1").json;
        for key in ["wide_deep", "deepfm"] {
            let row = &json[key];
            assert!(
                row["hybrid_hours"].as_f64().unwrap() < row["cpu_hours"].as_f64().unwrap(),
                "hybrid must be faster for {key}"
            );
            assert!(
                row["cpu_msamples_per_usd"].as_f64().unwrap()
                    > row["hybrid_msamples_per_usd"].as_f64().unwrap(),
                "CPU must win on cost for {key}"
            );
            assert!(
                row["gpu_utilisation"].as_f64().unwrap() < 0.10,
                "GPU util must be marginal for {key}"
            );
        }
    }
}
