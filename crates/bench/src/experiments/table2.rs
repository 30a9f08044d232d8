//! Table 2: statistics of jobs co-located in the cluster — training
//! dominates the job count, with stream processing and high-priority
//! services sharing the resources.

use dlrover_cluster::{FleetConfig, FleetWorkload, JobClass};
use dlrover_sim::RngStreams;

use crate::parallel::{merge_telemetry, run_units_auto, Unit};
use crate::report::Report;

/// Runs the Table 2 summary. A single unit: one fleet generation pass.
pub(crate) fn run(seed: u64) -> String {
    let mut r = Report::new("table2", "job mix in the shared cluster");
    let units = vec![Unit::new("0/job-mix".to_string(), move |_t| {
        // A bigger fleet than the default so per-class statistics stabilise.
        let cfg = FleetConfig { training_jobs: 2_000, background_jobs: 600, ..Default::default() };
        let workload = FleetWorkload::generate(&cfg, &RngStreams::new(seed));
        (workload.summary_by_class(), workload.jobs.len())
    })];
    let outputs = run_units_auto(units);
    let (summary, total_jobs) = &outputs[0].value;

    r.row(
        &["job type".into(), "count".into(), "vCPU".into(), "cpu util".into(), "mem (GB)".into()],
        &[18, 8, 10, 9, 10],
    );
    let label = |c: JobClass| match c {
        JobClass::Training => "Training",
        JobClass::StreamProcessing => "Stream Processing",
        JobClass::InferenceService => "Inference Service",
        JobClass::SearchService => "Search Service",
        JobClass::Other => "Other",
    };
    let mut json_rows = Vec::new();
    for (class, count, vcpu, util, mem) in summary {
        r.row(
            &[
                label(*class).into(),
                format!("{count}"),
                format!("{vcpu:.0}"),
                format!("{:.0}%", util * 100.0),
                format!("{mem:.0}"),
            ],
            &[18, 8, 10, 9, 10],
        );
        json_rows.push(serde_json::json!({
            "class": label(*class), "count": count, "vcpu": vcpu,
            "cpu_util": util, "mem_gb": mem,
        }));
    }
    let training =
        summary.iter().find(|(c, ..)| *c == JobClass::Training).expect("training class present");
    let share = training.1 as f64 / *total_jobs as f64;
    r.line(format!(
        "\ntraining jobs are {:.0}% of all jobs (paper: >70% of jobs, ~20% util)",
        share * 100.0
    ));
    r.record("rows", &json_rows);
    r.record("training_share", &share);
    r.telemetry(&merge_telemetry(&outputs));
    r.finish()
}

#[cfg(test)]
mod tests {
    #[test]
    fn table2_training_dominates_with_low_util() {
        let json = &crate::fixture::canonical("table2").json;
        assert!(json["training_share"].as_f64().unwrap() > 0.7);
        let rows = json["rows"].as_array().unwrap();
        let training = rows.iter().find(|r| r["class"] == "Training").unwrap();
        let util = training["cpu_util"].as_f64().unwrap();
        assert!(util < 0.5, "training util should be low: {util}");
    }
}
