//! Fig. 8: model convergence (test AUC and training loss) under
//! DLRover-RM's elasticity matches the well-tuned static run, for all
//! three model families — real gradient descent, not a scripted curve.
//!
//! Execution: one unit per (model, static|elastic) run — six independent
//! trainings, each seeded from `(kind, seed)` alone. This is the longest
//! experiment in `exp all` by far, so the intra-experiment parallelism
//! here is what buys most of the `--threads` wall-clock win.

use dlrover_dlrm::model::ModelKind;
use dlrover_pstrain::{ElasticEvent, RealModeConfig, RealModeTrainer};

use crate::parallel::{merge_telemetry, run_units_auto, Unit};
use crate::report::Report;

const EVAL_START: u64 = 40_000_000;
const EVAL_N: usize = 1_500;

struct CurvePoint {
    round: u64,
    loss: f64,
    auc: f64,
}

fn run_one(kind: ModelKind, seed: u64, elastic: bool) -> (Vec<CurvePoint>, f64, f64) {
    let mut t = RealModeTrainer::new(RealModeConfig::small(kind, seed), 3);
    let mut curve = Vec::new();
    let mut round = 0u64;
    while !t.is_complete() && round < 1_000_000 {
        if elastic {
            match round {
                40 => t.apply(ElasticEvent::FailWorker(0)),
                70 => t.apply(ElasticEvent::AddWorker),
                100 => t.apply(ElasticEvent::AddWorker),
                150 => t.apply(ElasticEvent::RemoveWorker(1)),
                _ => {}
            }
        }
        if t.train_round().is_none() && !t.is_complete() {
            break;
        }
        round += 1;
        if round.is_multiple_of(25) {
            let (loss, auc) = t.evaluate(EVAL_START, EVAL_N);
            curve.push(CurvePoint { round, loss, auc });
        }
    }
    let (loss, auc) = t.evaluate(EVAL_START, EVAL_N);
    (curve, loss, auc)
}

/// Runs the Fig. 8 convergence comparison.
pub(crate) fn run(seed: u64) -> String {
    let mut r =
        Report::new("fig8", "convergence under elasticity vs well-tuned static (real training)");
    let mut units = Vec::new();
    for (ki, kind) in ModelKind::all().into_iter().enumerate() {
        for (ei, elastic) in [false, true].into_iter().enumerate() {
            let mode = if elastic { "elastic" } else { "static" };
            units.push(Unit::new(format!("{ki}{ei}/{}/{mode}", kind.paper_label()), move |_t| {
                run_one(kind, seed, elastic)
            }));
        }
    }
    let outputs = run_units_auto(units);
    // Key-sorted outputs follow submission order: outputs[ki * 2 + ei].
    let mut json_rows = Vec::new();
    for (ki, kind) in ModelKind::all().into_iter().enumerate() {
        let (static_curve, s_loss, s_auc) = &outputs[ki * 2].value;
        let (elastic_curve, e_loss, e_auc) = &outputs[ki * 2 + 1].value;
        r.section(kind.paper_label());
        r.row(
            &[
                "round".into(),
                "static auc".into(),
                "elastic auc".into(),
                "static loss".into(),
                "elastic loss".into(),
            ],
            &[7, 11, 12, 12, 13],
        );
        for (s, e) in static_curve.iter().zip(elastic_curve) {
            r.row(
                &[
                    format!("{}", s.round),
                    format!("{:.4}", s.auc),
                    format!("{:.4}", e.auc),
                    format!("{:.4}", s.loss),
                    format!("{:.4}", e.loss),
                ],
                &[7, 11, 12, 12, 13],
            );
        }
        r.line(format!(
            "final: static auc {:.4} / elastic auc {:.4}  (delta {:+.4})",
            s_auc,
            e_auc,
            e_auc - s_auc
        ));
        json_rows.push(serde_json::json!({
            "model": kind.paper_label(),
            "static_auc": s_auc, "elastic_auc": e_auc,
            "static_loss": s_loss, "elastic_loss": e_loss,
        }));
    }
    r.line(
        "\nshape check: elasticity (worker failure, scale-out, scale-in)\n\
         leaves final AUC within noise of the static run (paper: curves overlap)",
    );
    r.record("rows", &json_rows);
    r.telemetry(&merge_telemetry(&outputs));
    r.finish()
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig8_convergence_parity() {
        let json = &crate::fixture::canonical("fig8").json;
        for row in json["rows"].as_array().unwrap() {
            let s = row["static_auc"].as_f64().unwrap();
            let e = row["elastic_auc"].as_f64().unwrap();
            assert!(s > 0.55, "{}: static failed to learn ({s})", row["model"]);
            assert!((s - e).abs() < 0.05, "{}: elasticity changed AUC {s} -> {e}", row["model"]);
        }
    }
}
