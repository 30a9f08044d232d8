//! Production-scale results: Fig. 14 (12-month migration ramp), Fig. 15
//! (cluster-level JCT reductions), and Table 4 (failure rates before vs
//! after DLRover-RM).

use dlrover_sim::SimDuration;

use crate::experiments::fleetstudy::{aggregate, run_fleet, FleetStudyConfig, JobOutcome};

use crate::parallel::{merge_telemetry, run_units_auto, Unit};
use crate::report::{percentile, sorted, Report};

fn study(fraction: f64, seed: u64) -> Vec<JobOutcome> {
    run_fleet(&FleetStudyConfig { dlrover_fraction: fraction, seed, ..FleetStudyConfig::default() })
}

/// Fig. 14: CPU/memory utilisation and JCR over the 12-month migration.
///
/// Execution: one unit per month — thirteen independent fleet studies at
/// `seed + month`, merged in month order.
pub(crate) fn run_fig14(seed: u64) -> String {
    let mut r = Report::new("fig14", "12-month progressive migration: utilisation and JCR");
    r.row(
        &[
            "month".into(),
            "migrated".into(),
            "w-cpu".into(),
            "ps-cpu".into(),
            "w-mem".into(),
            "ps-mem".into(),
            "JCR".into(),
        ],
        &[6, 9, 7, 7, 7, 7, 7],
    );
    let units = (0..=12u32)
        .map(|month| {
            // The paper migrates 90 % of jobs over the year (5 % can never move).
            let fraction = (f64::from(month) / 12.0) * 0.9;
            Unit::new(format!("{month:02}/month"), move |_t| {
                (fraction, aggregate(&study(fraction, seed + u64::from(month))))
            })
        })
        .collect();
    let outputs = run_units_auto(units);

    let mut months = Vec::new();
    for (month, out) in (0..=12u32).zip(&outputs) {
        let (fraction, ref agg) = out.value;
        r.row(
            &[
                format!("{month}"),
                format!("{:.0}%", fraction * 100.0),
                format!("{:.0}%", agg.worker_cpu_util * 100.0),
                format!("{:.0}%", agg.ps_cpu_util * 100.0),
                format!("{:.0}%", agg.worker_mem_util * 100.0),
                format!("{:.0}%", agg.ps_mem_util * 100.0),
                format!("{:.0}%", agg.jcr * 100.0),
            ],
            &[6, 9, 7, 7, 7, 7, 7],
        );
        months.push(serde_json::json!({
            "month": month, "fraction": fraction,
            "worker_cpu": agg.worker_cpu_util, "ps_cpu": agg.ps_cpu_util,
            "worker_mem": agg.worker_mem_util, "ps_mem": agg.ps_mem_util,
            "jcr": agg.jcr,
        }));
    }
    let telemetry = merge_telemetry(&outputs);
    let first = &months[0];
    let last = &months[12];
    r.line(format!(
        "\nworker CPU util {:.0}% -> {:.0}% (paper: 19% -> 40%), PS CPU {:.0}% -> {:.0}% (13% -> 41.4%)",
        first["worker_cpu"].as_f64().unwrap() * 100.0,
        last["worker_cpu"].as_f64().unwrap() * 100.0,
        first["ps_cpu"].as_f64().unwrap() * 100.0,
        last["ps_cpu"].as_f64().unwrap() * 100.0,
    ));
    r.line(format!(
        "worker mem {:.0}% -> {:.0}% (15.2% -> 46.8%), PS mem {:.0}% -> {:.0}% (13.8% -> 31.1%), JCR {:.0}% -> {:.0}%",
        first["worker_mem"].as_f64().unwrap() * 100.0,
        last["worker_mem"].as_f64().unwrap() * 100.0,
        first["ps_mem"].as_f64().unwrap() * 100.0,
        last["ps_mem"].as_f64().unwrap() * 100.0,
        first["jcr"].as_f64().unwrap() * 100.0,
        last["jcr"].as_f64().unwrap() * 100.0,
    ));
    r.record("months", &months);
    r.telemetry(&telemetry);
    r.finish()
}

/// Runs the before (static era) and after (fully migrated) fleet studies
/// as two independent units and returns their outcome vectors.
fn before_after(seed: u64) -> (Vec<JobOutcome>, Vec<JobOutcome>, dlrover_telemetry::Telemetry) {
    let units = vec![
        Unit::new("0/before".to_string(), move |_t| study(0.0, seed)),
        Unit::new("1/after".to_string(), move |_t| study(1.0, seed)),
    ];
    let mut outputs = run_units_auto(units);
    let telemetry = merge_telemetry(&outputs);
    let after = outputs.pop().expect("two units").value;
    let before = outputs.pop().expect("two units").value;
    (before, after, telemetry)
}

fn jct_minutes(outcomes: &[JobOutcome], filter: impl Fn(&JobOutcome) -> bool) -> Vec<f64> {
    sorted(
        outcomes
            .iter()
            .filter(|o| filter(o))
            .filter_map(|o| o.jct)
            .map(SimDuration::as_mins_f64)
            .collect(),
    )
}

/// Fig. 15: cluster-level JCT CDFs (all jobs, hot-PS jobs, CPU-starved
/// jobs) before vs after.
pub(crate) fn run_fig15(seed: u64) -> String {
    let mut r = Report::new("fig15", "cluster-level JCT before vs after DLRover-RM");
    let (before, after, telemetry) = before_after(seed);

    let mut json = Vec::new();
    for (label, filter) in [
        ("all jobs", Box::new(|_: &JobOutcome| true) as Box<dyn Fn(&JobOutcome) -> bool>),
        ("hot-PS jobs", Box::new(|o: &JobOutcome| o.hot_ps)),
        ("CPU-starved-PS jobs", Box::new(|o: &JobOutcome| o.cpu_starved)),
    ] {
        let b = jct_minutes(&before, &filter);
        let a = jct_minutes(&after, &filter);
        if b.is_empty() || a.is_empty() {
            continue;
        }
        let med_cut = 1.0 - percentile(&a, 50.0) / percentile(&b, 50.0);
        let p90_cut = 1.0 - percentile(&a, 90.0) / percentile(&b, 90.0);
        r.section(label);
        r.row(&["".into(), "median(min)".into(), "p90(min)".into()], &[8, 12, 10]);
        r.row(
            &[
                "before".into(),
                format!("{:.0}", percentile(&b, 50.0)),
                format!("{:.0}", percentile(&b, 90.0)),
            ],
            &[8, 12, 10],
        );
        r.row(
            &[
                "after".into(),
                format!("{:.0}", percentile(&a, 50.0)),
                format!("{:.0}", percentile(&a, 90.0)),
            ],
            &[8, 12, 10],
        );
        r.line(format!("median cut {:.0}%, p90 cut {:.0}%", med_cut * 100.0, p90_cut * 100.0));
        json.push(serde_json::json!({
            "subset": label, "median_cut": med_cut, "p90_cut": p90_cut,
            "before_median": percentile(&b, 50.0), "after_median": percentile(&a, 50.0),
        }));
    }
    r.line(
        "\npaper: all jobs median -31% / p90 -35.7%; hot-PS median -21%;\n\
         insufficient-PS-CPU median -57%",
    );
    r.record("subsets", &json);
    r.telemetry(&telemetry);
    r.finish()
}

/// Table 4: failure rates before vs after migration.
pub(crate) fn run_table4(seed: u64) -> String {
    let mut r = Report::new("table4", "failure/slow-training rates before vs after");
    let (before, after, telemetry) = before_after(seed);
    let rate = |outcomes: &[JobOutcome], f: &dyn Fn(&JobOutcome) -> bool| -> f64 {
        outcomes.iter().filter(|o| f(o)).count() as f64 / outcomes.len() as f64
    };
    // "Slow training" counts jobs whose pathology materially stretched
    // their JCT (hot PS or straggler, unrecovered).
    let slow_hot = |o: &JobOutcome| o.hot_ps && !o.dlrover && o.jct.is_some();
    let slow_hot_after = |o: &JobOutcome| {
        o.hot_ps && o.dlrover && o.jct.map(|j| j > SimDuration::from_hours(8)).unwrap_or(false)
    };
    let strag = |o: &JobOutcome| o.straggler && !o.dlrover && o.jct.is_some();
    let strag_after = |o: &JobOutcome| {
        o.straggler && o.dlrover && o.jct.map(|j| j > SimDuration::from_hours(8)).unwrap_or(false)
    };

    let rows = [
        (
            "Job Failure / OOM",
            rate(&before, &|o| {
                o.failure == Some(crate::experiments::fleetstudy::FailureCause::Oom)
            }),
            rate(&after, &|o| o.failure == Some(crate::experiments::fleetstudy::FailureCause::Oom)),
            "4.7% -> 0.23%",
        ),
        (
            "Job Failure / Scheduling",
            rate(&before, &|o| {
                o.failure == Some(crate::experiments::fleetstudy::FailureCause::Scheduling)
            }),
            rate(&after, &|o| {
                o.failure == Some(crate::experiments::fleetstudy::FailureCause::Scheduling)
            }),
            "2% -> 0.1%",
        ),
        (
            "Job Failure / Pod failure",
            rate(&before, &|o| {
                o.failure == Some(crate::experiments::fleetstudy::FailureCause::PodFailure)
            }),
            rate(&after, &|o| {
                o.failure == Some(crate::experiments::fleetstudy::FailureCause::PodFailure)
            }),
            "(within scheduling/unreported)",
        ),
        (
            "Slow Training / Hot PS",
            rate(&before, &slow_hot),
            rate(&after, &slow_hot_after),
            "8% -> 1%",
        ),
        (
            "Slow Training / Straggler",
            rate(&before, &strag),
            rate(&after, &strag_after),
            "7% -> 0.7%",
        ),
    ];
    r.row(
        &["exception".into(), "w/o DLR".into(), "w/ DLR".into(), "paper".into()],
        &[28, 9, 9, 24],
    );
    let mut json = Vec::new();
    for (name, b, a, paper) in rows {
        r.row(
            &[
                name.into(),
                format!("{:.2}%", b * 100.0),
                format!("{:.2}%", a * 100.0),
                paper.into(),
            ],
            &[28, 9, 9, 24],
        );
        json.push(serde_json::json!({ "exception": name, "before": b, "after": a }));
    }
    r.record("rows", &json);
    r.telemetry(&telemetry);
    r.finish()
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig14_utilisation_and_jcr_rise() {
        let json = &crate::fixture::canonical("fig14").json;
        let months = json["months"].as_array().unwrap();
        let first = &months[0];
        let last = &months[12];
        for key in ["worker_cpu", "ps_cpu", "worker_mem", "ps_mem", "jcr"] {
            let b = first[key].as_f64().unwrap();
            let a = last[key].as_f64().unwrap();
            assert!(a > b, "{key} did not improve: {b} -> {a}");
        }
        // Magnitudes comparable to the paper's endpoints (19% -> 40%).
        assert!(first["worker_cpu"].as_f64().unwrap() < 0.3);
        assert!(last["worker_cpu"].as_f64().unwrap() > 0.35);
        assert!(last["jcr"].as_f64().unwrap() > 0.9);
    }

    #[test]
    fn fig15_jct_cuts() {
        let json = &crate::fixture::canonical("fig15").json;
        for subset in json["subsets"].as_array().unwrap() {
            let med = subset["median_cut"].as_f64().unwrap();
            assert!(med > 0.0, "median JCT did not improve for {}: {med}", subset["subset"]);
        }
    }

    #[test]
    fn table4_failures_collapse() {
        let json = &crate::fixture::canonical("table4").json;
        for row in json["rows"].as_array().unwrap() {
            let b = row["before"].as_f64().unwrap();
            let a = row["after"].as_f64().unwrap();
            assert!(a <= b + 1e-9, "{}: {b} -> {a}", row["exception"]);
        }
        // OOM specifically must collapse to near zero.
        let oom = &json["rows"][0];
        assert!(oom["before"].as_f64().unwrap() > 0.02);
        assert!(oom["after"].as_f64().unwrap() < 0.01);
    }
}
