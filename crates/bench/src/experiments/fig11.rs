//! Fig. 11: the throughput prediction model — sampled data points under
//! varying `(w, p, λ_w, λ_p)` and the NNLS-fitted curves through them,
//! plus the fitted coefficients the paper reports.

use dlrover_perfmodel::{
    rmsle, JobShape, ModelCoefficients, ThroughputModel, ThroughputObservation, WorkloadConstants,
};
use dlrover_sim::{Normal, RngStreams, Sample};

use crate::parallel::{merge_telemetry, run_units_auto, Unit};
use crate::report::Report;

/// Samples the profiling grid (4 % multiplicative measurement noise, like
/// profiling a real job) and fits the NNLS model. Returns the fitted
/// model, the fit RMSLE, and the sample count.
fn fit_stage(seed: u64, truth: &ThroughputModel) -> (ThroughputModel, f64, usize) {
    let constants = WorkloadConstants::default();
    let mut rng = RngStreams::new(seed).stream("fig11");
    let noise = Normal::new(1.0, 0.04);
    let mut observations = Vec::new();
    for w in [1u32, 2, 4, 6, 8, 12, 16] {
        for p in [1u32, 2, 4, 8] {
            for cpu in [2.0, 4.0, 8.0, 16.0] {
                let s = JobShape::new(w, p, cpu, cpu, 512);
                observations.push(ThroughputObservation {
                    shape: s,
                    iter_time: truth.iter_time(&s) * noise.sample_clamped(&mut rng, 0.85, 1.15),
                });
            }
        }
    }
    let (fitted, fit_rmsle) = ThroughputModel::fit(constants, &observations).expect("fit succeeds");
    (fitted, fit_rmsle, observations.len())
}

/// Runs the Fig. 11 model-fitting study.
///
/// Execution is two-stage: a single fit unit (the observation stream is
/// sequential), then four independent sweep units that share the fitted
/// model by clone.
pub(crate) fn run(seed: u64) -> String {
    let mut r = Report::new("fig11", "throughput model: sampled points vs NNLS fit");
    let constants = WorkloadConstants::default();
    let truth = ThroughputModel::new(constants, ModelCoefficients::simulation_truth());

    let truth_ref = &truth;
    let fit_outputs =
        run_units_auto(vec![Unit::new("0/fit".to_string(), move |_t| fit_stage(seed, truth_ref))]);
    let (fitted, fit_rmsle, n_observations) = &fit_outputs[0].value;

    // Report the coefficients in the paper's (unscaled) units for direct
    // comparison: the simulation truth is paper_reference / 1800.
    let c = fitted.coefficients;
    let scale = 1800.0;
    r.section("fitted coefficients (rescaled to the paper's units)");
    r.row(&["coef".into(), "fitted".into(), "paper".into()], &[12, 10, 10]);
    let paper = ModelCoefficients::paper_reference();
    for (name, got, want) in [
        ("alpha_grad", c.alpha_grad * scale, paper.alpha_grad),
        ("alpha_upd", c.alpha_upd * scale, paper.alpha_upd),
        ("alpha_sync", c.alpha_sync * scale, paper.alpha_sync),
        ("alpha_lookup", c.alpha_emb * scale, paper.alpha_emb),
        ("beta_total", c.beta_total * scale, paper.beta_total),
    ] {
        r.row(&[name.into(), format!("{got:.2}"), format!("{want:.2}")], &[12, 10, 10]);
    }
    r.line(format!("fit RMSLE over {n_observations} samples: {fit_rmsle:.4}"));

    // The figure's four sweeps: predicted-vs-actual throughput while
    // varying one variable with the rest fixed. Each sweep is an
    // independent unit over the (cloned) fitted model.
    type ShapeOf = fn(u32) -> JobShape;
    let sweeps: [(&str, ShapeOf); 4] = [
        ("workers (p=4, cpu=8)", |w| JobShape::new(w, 4, 8.0, 8.0, 512)),
        ("ps (w=8, cpu=8)", |p| JobShape::new(8, p, 8.0, 8.0, 512)),
        ("worker cpu (w=8, p=4)", |c| JobShape::new(8, 4, f64::from(c), 8.0, 512)),
        ("ps cpu (w=8, p=4)", |c| JobShape::new(8, 4, 8.0, f64::from(c), 512)),
    ];
    let fitted_ref = fitted;
    let sweep_outputs = run_units_auto(
        sweeps
            .iter()
            .enumerate()
            .map(|(i, &(label, shape_of))| {
                Unit::new(format!("{i}/{label}"), move |_t| {
                    let points: Vec<(u32, f64, f64)> = [1u32, 2, 4, 8, 16]
                        .iter()
                        .map(|&x| {
                            let s = shape_of(x);
                            (x, truth_ref.throughput(&s), fitted_ref.throughput(&s))
                        })
                        .collect();
                    let actuals: Vec<f64> = points.iter().map(|p| p.1).collect();
                    let preds: Vec<f64> = points.iter().map(|p| p.2).collect();
                    (points, rmsle(&preds, &actuals))
                })
            })
            .collect(),
    );
    let mut sweep_rows = Vec::new();
    for (&(label, _), out) in sweeps.iter().zip(&sweep_outputs) {
        let (points, err) = &out.value;
        r.section(&format!("sweep: {label}"));
        r.row(&["x".into(), "actual".into(), "predicted".into()], &[4, 10, 11]);
        for (x, actual, predicted) in points {
            r.row(
                &[format!("{x}"), format!("{actual:.0}"), format!("{predicted:.0}")],
                &[4, 10, 11],
            );
        }
        r.line(format!("sweep RMSLE: {err:.4}"));
        sweep_rows.push(serde_json::json!({ "sweep": label, "rmsle": err }));
    }
    r.record("fit_rmsle", fit_rmsle);
    r.record(
        "coefficients_paper_units",
        &serde_json::json!({
            "alpha_grad": c.alpha_grad * scale,
            "alpha_upd": c.alpha_upd * scale,
            "alpha_sync": c.alpha_sync * scale,
            "alpha_lookup": c.alpha_emb * scale,
            "beta_total": c.beta_total * scale,
        }),
    );
    r.record("sweeps", &sweep_rows);
    let merged = merge_telemetry(&fit_outputs);
    merged.absorb(&merge_telemetry(&sweep_outputs));
    r.telemetry(&merged);
    r.finish()
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig11_fit_recovers_coefficients() {
        let json = &crate::fixture::canonical("fig11").json;
        assert!(json["fit_rmsle"].as_f64().unwrap() < 0.05);
        let c = &json["coefficients_paper_units"];
        // Recovered coefficients within 15 % of the planted values
        // (paper: alpha_grad 3.48, alpha_upd 2.36, alpha_lookup 2.45,
        // alpha_sync 0.68, sum-beta 2.45).
        let close = |key: &str, want: f64, tol: f64| {
            let got = c[key].as_f64().unwrap();
            assert!((got - want).abs() <= want * tol + 0.3, "{key}: {got} vs {want}");
        };
        close("alpha_grad", 3.48, 0.15);
        close("alpha_lookup", 2.45, 0.15);
        for sweep in json["sweeps"].as_array().unwrap() {
            assert!(sweep["rmsle"].as_f64().unwrap() < 0.1, "sweep {} misfits", sweep["sweep"]);
        }
    }
}
