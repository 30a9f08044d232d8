//! Fig. 1(a): operator time proportions across DLRM training jobs —
//! lookups take 30–48 % of an iteration.
//! Fig. 1(b): the memory demand of one job surging past 2.3 TB in 15 h.

use dlrover_perfmodel::{MemoryModel, ModelCoefficients, WorkloadConstants};
use dlrover_pstrain::{AsyncCostModel, PodState};

use crate::parallel::{merge_telemetry, run_units_auto, Unit};
use crate::report::Report;

/// Fig. 1(a). One unit per representative production job (five analytic
/// evaluations of the cost model, no RNG).
pub(crate) fn run_fig1a(_seed: u64) -> String {
    let mut r = Report::new("fig1a", "CPU time distribution per operator across DLRM jobs");
    r.line("Per-phase share of one training iteration (percent).");
    r.row(
        &[
            "job".into(),
            "grad".into(),
            "update".into(),
            "sync".into(),
            "lookup".into(),
            "other".into(),
        ],
        &[22, 8, 8, 8, 8, 8],
    );

    // Five representative production jobs: different shapes and lookup
    // intensities (embedding dim / model size vary per job).
    let jobs = [
        ("job-1 (w8 p4, light emb)", 8u32, 4u32, 8.0, 0.40, 80.0),
        ("job-2 (w16 p6, typical)", 16, 6, 8.0, 0.50, 100.0),
        ("job-3 (w8 p4, emb heavy)", 8, 4, 8.0, 0.65, 100.0),
        ("job-4 (w4 p4, mid)", 4, 4, 8.0, 0.55, 120.0),
        ("job-5 (w24 p6, large)", 24, 6, 8.0, 0.50, 160.0),
    ];
    let units = jobs
        .iter()
        .enumerate()
        .map(|(i, &(_, w, p, cpu, d, m))| {
            Unit::new(format!("{i}/job"), move |_t| {
                let constants =
                    WorkloadConstants { model_size: m, bandwidth: 1_000.0, embedding_dim: d };
                let cost =
                    AsyncCostModel::new(ModelCoefficients::simulation_truth(), constants, 512);
                let parts = AsyncCostModel::balanced_partitions(p, cpu);
                cost.phase_fractions(&PodState::new(cpu), &parts, w)
            })
        })
        .collect();
    let outputs = run_units_auto(units);

    let mut lookup_fractions = Vec::new();
    for ((name, ..), out) in jobs.iter().zip(&outputs) {
        let f = &out.value;
        lookup_fractions.push(f[3]);
        r.row(
            &[
                name.to_string(),
                format!("{:.1}", f[0] * 100.0),
                format!("{:.1}", f[1] * 100.0),
                format!("{:.1}", f[2] * 100.0),
                format!("{:.1}", f[3] * 100.0),
                format!("{:.1}", f[4] * 100.0),
            ],
            &[22, 8, 8, 8, 8, 8],
        );
    }
    let lo = lookup_fractions.iter().cloned().fold(1.0f64, f64::min);
    let hi = lookup_fractions.iter().cloned().fold(0.0f64, f64::max);
    r.line(format!("\nlookup share ranges {:.0}%-{:.0}% (paper: 30%-48%)", lo * 100.0, hi * 100.0));
    r.record("lookup_fraction_min", &lo);
    r.record("lookup_fraction_max", &hi);
    r.telemetry(&merge_telemetry(&outputs));
    r.finish()
}

/// Fig. 1(b). A single unit: the 15-hour memory trajectory is one
/// sequential analytic evaluation.
pub(crate) fn run_fig1b(_seed: u64) -> String {
    let mut r = Report::new("fig1b", "memory demand of one DLRM job over 15 hours");
    const TB: f64 = 1_099_511_627_776.0;
    let units = vec![Unit::new("0/memory-trajectory".to_string(), move |_t| {
        // Production-scale job: 1024-dim fp32 rows (4 KB/row), ~1B categories,
        // several million samples per second across the fleet of workers.
        let model = MemoryModel::new(0.3 * TB, 4096.0, 8.0e8, 1.2e11);
        let throughput = 6.0e6; // samples/s
        let mut series = Vec::new();
        for h in 0..=15u32 {
            let samples = throughput * f64::from(h) * 3_600.0;
            series.push((h, model.total_bytes(samples) / TB));
        }
        series
    })];
    let outputs = run_units_auto(units);
    let series = &outputs[0].value;
    r.row(&["hour".into(), "memory (TB)".into()], &[6, 12]);
    for (h, tb) in series {
        r.row(&[format!("{h}"), format!("{tb:.2}")], &[6, 12]);
    }
    let final_tb = series.last().expect("series nonempty").1;
    r.line(format!("\nmemory reaches {final_tb:.2} TB by hour 15 (paper: >2.3 TB)"));
    r.record("series_tb", series);
    r.record("final_tb", &final_tb);
    r.telemetry(&merge_telemetry(&outputs));
    r.finish()
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig1a_lookup_band_matches_paper() {
        let run = crate::fixture::canonical("fig1a");
        assert!(run.text.contains("paper: 30%-48%"));
        let lo = run.json["lookup_fraction_min"].as_f64().unwrap();
        let hi = run.json["lookup_fraction_max"].as_f64().unwrap();
        assert!(lo >= 0.25 && hi <= 0.55, "band [{lo}, {hi}] drifted");
        assert!(hi - lo > 0.05, "jobs should differ");
    }

    #[test]
    fn fig1b_reaches_multi_tb() {
        let json = &crate::fixture::canonical("fig1b").json;
        let final_tb = json["final_tb"].as_f64().unwrap();
        assert!(final_tb > 2.3, "only {final_tb} TB after 15h");
        assert!(final_tb < 10.0, "implausibly large: {final_tb} TB");
    }
}
