//! Fig. 10: cold-start auto-scaling — every scheduler starts the same job
//! from scratch and adjusts every 3 minutes; DLRover-RM's throughput ramps
//! to the plateau fastest because its model knows about lookups and its
//! migrations are seamless.
//!
//! Execution: one unit per (model, scheduler) cell — nine independent
//! cold-start simulations, self-seeded from `RunnerConfig::seed`, merged
//! in paper row order.

use dlrover_baselines::{EsPolicy, OptimusPolicy};
use dlrover_brain::{DlroverPolicy, DlroverPolicyConfig};
use dlrover_optimizer::{PlanSearchSpace, ResourceAllocation};
use dlrover_perfmodel::JobShape;
use dlrover_pstrain::TrainingJobSpec;
use dlrover_rm::prelude::{run_single_job_traced, RunReport, RunnerConfig, SchedulerPolicy};

use crate::experiments::common::model_workloads;
use crate::parallel::{merge_telemetry, run_units_auto, Unit};
use crate::report::Report;

/// The three schedulers of the figure, in column order.
const POLICIES: [&str; 3] = ["dlrover", "es", "optimus"];

/// Samples a report's throughput series at whole minutes, smoothing each
/// point over the trailing 3-minute window (as a dashboard would).
fn series_at_minutes(report: &RunReport, minutes: &[u32]) -> Vec<f64> {
    minutes
        .iter()
        .map(|&m| {
            let lo = f64::from(m) - 3.0;
            let window: Vec<f64> = report
                .throughput_series
                .iter()
                .filter(|(t, _)| *t > lo && *t <= f64::from(m))
                .map(|(_, s)| *s)
                .collect();
            if window.is_empty() {
                0.0
            } else {
                window.iter().sum::<f64>() / window.len() as f64
            }
        })
        .collect()
}

/// Runs the Fig. 10 cold-start ramp comparison.
pub(crate) fn run(seed: u64) -> String {
    let mut r = Report::new("fig10", "cold-start throughput ramp (steps/s over time)");
    let testbed_startup = dlrover_cluster::StartupLatencyModel {
        scheduling_mean_s: 15.0,
        image_pull_mean_s: 45.0,
        sigma: 0.4,
        scarcity_factor: 2.0,
    };
    let runner = RunnerConfig {
        seed,
        startup: testbed_startup,
        cluster_utilisation: 0.1,
        ..RunnerConfig::default()
    };
    let space = PlanSearchSpace::default();
    // All schedulers cold-start from the same minimal allocation.
    let cold = ResourceAllocation::new(JobShape::new(2, 1, 8.0, 8.0, 512), 32.0, 64.0);
    let minutes: Vec<u32> = (0..=30).step_by(3).collect();

    let runner_ref = &runner;
    let mut units = Vec::new();
    for (mi, (_, constants)) in model_workloads().into_iter().enumerate() {
        for (pi, policy) in POLICIES.iter().enumerate() {
            let spec = TrainingJobSpec { constants, ..TrainingJobSpec::paper_default(400_000) };
            units.push(Unit::new(format!("{mi}{pi}/{policy}"), move |t| {
                let boxed: Box<dyn SchedulerPolicy> = match pi {
                    0 => Box::new(DlroverPolicy::new(
                        cold,
                        DlroverPolicyConfig { constants, seed, ..Default::default() },
                    )),
                    1 => Box::new(EsPolicy::new(cold, space, 4)),
                    _ => Box::new(OptimusPolicy::new(cold, space, constants)),
                };
                run_single_job_traced(boxed, spec, runner_ref, t)
            }));
        }
    }
    let outputs = run_units_auto(units);
    let cell = |mi: usize, pi: usize| &outputs[mi * POLICIES.len() + pi].value;

    let mut json_rows = Vec::new();
    for (mi, (name, _)) in model_workloads().into_iter().enumerate() {
        let dl_series = series_at_minutes(cell(mi, 0), &minutes);
        let es_series = series_at_minutes(cell(mi, 1), &minutes);
        let opt_series = series_at_minutes(cell(mi, 2), &minutes);

        r.section(name);
        r.row(&["min".into(), "dlrover".into(), "es".into(), "optimus".into()], &[5, 9, 9, 9]);
        for (i, &m) in minutes.iter().enumerate() {
            r.row(
                &[
                    format!("{m}"),
                    format!("{:.0}", dl_series[i]),
                    format!("{:.0}", es_series[i]),
                    format!("{:.0}", opt_series[i]),
                ],
                &[5, 9, 9, 9],
            );
        }
        json_rows.push(serde_json::json!({
            "model": name, "minutes": minutes,
            "dlrover": dl_series, "es": es_series, "optimus": opt_series,
        }));
    }
    r.line(
        "\nshape check: by minute ~12 DLRover-RM runs well above ES/Optimus\n\
         (paper: 250 steps/s vs 100-150 at 12 minutes for Model-X)",
    );
    r.record("rows", &json_rows);
    r.telemetry(&merge_telemetry(&outputs));
    r.finish()
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig10_dlrover_ramps_fastest() {
        let json = &crate::fixture::canonical("fig10").json;
        for row in json["rows"].as_array().unwrap() {
            let at = |key: &str, idx: usize| row[key].as_array().unwrap()[idx].as_f64().unwrap();
            let n = row["minutes"].as_array().unwrap().len();
            // By the second half of the window DLRover must lead both.
            let late = n - 2;
            assert!(
                at("dlrover", late) > at("es", late),
                "{}: dlrover {} !> es {}",
                row["model"],
                at("dlrover", late),
                at("es", late)
            );
            assert!(
                at("dlrover", late) > at("optimus", late),
                "{}: dlrover {} !> optimus {}",
                row["model"],
                at("dlrover", late),
                at("optimus", late)
            );
        }
    }
}
