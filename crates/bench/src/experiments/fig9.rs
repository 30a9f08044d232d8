//! Fig. 9: warm-starting accuracy — the initial allocation produced by
//! Algorithm 1 lands close to the job's final configuration (paper: 92 %
//! for workers, 85 % for PSes), cutting scaling time ~26 % vs cold start.

use dlrover_brain::{ConfigDb, DlroverPolicy, DlroverPolicyConfig};
use dlrover_master::{JobRuntimeProfile, SchedulerPolicy};
use dlrover_optimizer::{JobMetadata, ResourceAllocation, WarmStartConfig};
use dlrover_perfmodel::{JobShape, ThroughputObservation, WorkloadConstants};
use dlrover_sim::{Normal, RngStreams, Sample, SimTime};

use crate::experiments::common::{history_for, truth_for};

use crate::parallel::{merge_telemetry, run_units_auto, Unit};
use crate::report::Report;

/// Unit outputs: the 30-day warm-start study stays one unit (each day's
/// draws feed the config DB the next day reads), while the two
/// rounds-to-converge probes are independent.
enum Out {
    /// `(rows, acc_workers, acc_ps)` from the month-long study.
    Month(Vec<serde_json::Value>, Vec<f64>, Vec<f64>),
    /// Adjustment rounds until the policy stops moving.
    Rounds(u32),
}

fn meta(user: &str, dataset: u64) -> JobMetadata {
    JobMetadata {
        model_kind: "wide_deep".into(),
        owner: user.into(),
        num_sparse_features: 26,
        embedding_dim: 16,
        dataset_samples: dataset,
        dense_params: 1_500_000,
    }
}

/// Per-field accuracy: `min/max` of warm-start vs final (1.0 = exact).
fn accuracy(a: f64, b: f64) -> f64 {
    if a <= 0.0 || b <= 0.0 {
        return 0.0;
    }
    (a.min(b)) / (a.max(b))
}

/// Counts the adjustment rounds a policy needs before it stops moving
/// (the proxy for scaling time: each move costs one 3-minute interval).
/// Warm-started jobs also inherit the config DB's historical profiles;
/// cold starts have neither a good shape nor a usable model and must
/// explore.
fn rounds_to_converge(
    start: ResourceAllocation,
    constants: WorkloadConstants,
    with_history: bool,
) -> u32 {
    let truth = truth_for(constants);
    let mut policy =
        DlroverPolicy::new(start, DlroverPolicyConfig { constants, ..Default::default() });
    if with_history {
        policy = policy.with_history(history_for(constants));
    }
    let mut alloc = start;
    let mut moves = 0;
    let mut quiet = 0;
    for _ in 0..40 {
        let profile = JobRuntimeProfile {
            job_id: 0,
            at: SimTime::ZERO,
            throughput: truth.throughput(&alloc.shape),
            remaining_samples: 50_000_000,
            observation: Some(ThroughputObservation {
                shape: alloc.shape,
                iter_time: truth.iter_time(&alloc.shape),
            }),
            ps_memory_used: 1,
            ps_memory_alloc: 1_000_000_000,
            exec: dlrover_perfmodel::ExecPlan::default(),
            degraded: false,
        };
        match policy.adjust(&profile) {
            Some(d) => {
                alloc = d.allocation;
                moves += 1;
                quiet = 0;
            }
            None => {
                quiet += 1;
                if quiet >= 3 {
                    break;
                }
            }
        }
    }
    moves
}

/// The month-long warm-start study: one user's pipeline re-trained daily
/// with slowly growing data, so final configurations drift gently.
fn month_study(seed: u64) -> (Vec<serde_json::Value>, Vec<f64>, Vec<f64>) {
    let streams = RngStreams::new(seed);
    let mut rng = streams.stream("fig9");
    let noise = Normal::new(0.0, 0.1);
    let mut db = ConfigDb::new(1_000);
    let mut rows = Vec::new();
    let mut acc_w = Vec::new();
    let mut acc_p = Vec::new();
    for day in 0..30u32 {
        let dataset = 1_000_000_000 + u64::from(day) * 25_000_000;
        let m = meta("user-7", dataset);
        // The day's true final configuration: a drifting well-tuned shape.
        let base_w = 14.0 * (1.0 + f64::from(day) * 0.004);
        let final_alloc = ResourceAllocation::new(
            JobShape::new(
                (base_w * (1.0 + noise.sample(&mut rng) * 0.5)).round().max(2.0) as u32,
                ((base_w / 2.5) * (1.0 + noise.sample(&mut rng) * 0.5)).round().max(1.0) as u32,
                8.0,
                8.0,
                512,
            ),
            32.0,
            64.0,
        );
        if day >= 3 {
            // Enough history to warm-start.
            let ws = db.warm_start(&m, &WarmStartConfig::default()).expect("history exists");
            let aw = accuracy(f64::from(ws.shape.workers), f64::from(final_alloc.shape.workers));
            let ap = accuracy(f64::from(ws.shape.ps), f64::from(final_alloc.shape.ps));
            acc_w.push(aw);
            acc_p.push(ap);
            rows.push(serde_json::json!({
                "day": day,
                "warm_workers": ws.shape.workers, "warm_ps": ws.shape.ps,
                "final_workers": final_alloc.shape.workers, "final_ps": final_alloc.shape.ps,
                "acc_workers": aw, "acc_ps": ap,
            }));
        }
        db.record(m, final_alloc);
    }
    (rows, acc_w, acc_p)
}

/// Runs the Fig. 9 warm-starting study.
pub(crate) fn run(seed: u64) -> String {
    let mut r = Report::new("fig9", "warm-starting: initial vs final configuration");
    let constants = WorkloadConstants::default();

    let warm_start_alloc = ResourceAllocation::new(JobShape::new(13, 5, 8.0, 8.0, 512), 32.0, 64.0);
    let cold_start_alloc =
        DlroverPolicy::cold_start_allocation(&dlrover_optimizer::PlanSearchSpace::default(), 512);
    let units = vec![
        Unit::new("0/month-study".to_string(), move |_t| {
            let (rows, acc_w, acc_p) = month_study(seed);
            Out::Month(rows, acc_w, acc_p)
        }),
        Unit::new("1/warm-rounds".to_string(), move |_t| {
            Out::Rounds(rounds_to_converge(warm_start_alloc, constants, true))
        }),
        Unit::new("2/cold-rounds".to_string(), move |_t| {
            Out::Rounds(rounds_to_converge(cold_start_alloc, constants, false))
        }),
    ];
    let outputs = run_units_auto(units);
    let (rows, acc_w, acc_p) = match &outputs[0].value {
        Out::Month(rows, w, p) => (rows, w, p),
        Out::Rounds(_) => unreachable!("key order pins unit 0 to the month study"),
    };
    let rounds = |i: usize| match outputs[i].value {
        Out::Rounds(n) => n,
        Out::Month(..) => unreachable!("key order pins units 1/2 to the rounds probes"),
    };
    let (warm_rounds, cold_rounds) = (rounds(1), rounds(2));

    r.row(
        &["day".into(), "ws w/ps".into(), "final w/ps".into(), "acc w".into(), "acc ps".into()],
        &[5, 10, 12, 8, 8],
    );
    for row in rows {
        r.row(
            &[
                format!("{}", row["day"]),
                format!("{}/{}", row["warm_workers"], row["warm_ps"]),
                format!("{}/{}", row["final_workers"], row["final_ps"]),
                format!("{:.0}%", row["acc_workers"].as_f64().unwrap() * 100.0),
                format!("{:.0}%", row["acc_ps"].as_f64().unwrap() * 100.0),
            ],
            &[5, 10, 12, 8, 8],
        );
    }
    let mean_w = acc_w.iter().sum::<f64>() / acc_w.len() as f64;
    let mean_p = acc_p.iter().sum::<f64>() / acc_p.len() as f64;
    r.line(format!(
        "\nmean warm-start accuracy: workers {:.0}% (paper: 92%), PS {:.0}% (paper: 85%)",
        mean_w * 100.0,
        mean_p * 100.0
    ));

    // Scaling-time reduction vs cold start: warm starts begin near the
    // final shape, so the auto-scaler needs fewer (3-minute) rounds.
    let reduction = 1.0 - f64::from(warm_rounds) / f64::from(cold_rounds.max(1));
    r.line(format!(
        "scaling rounds to converge: warm {warm_rounds} vs cold {cold_rounds} \
         ({:.0}% less scaling; paper: 26% shorter scaling time)",
        reduction * 100.0
    ));

    r.record("rows", rows);
    r.record("mean_acc_workers", &mean_w);
    r.record("mean_acc_ps", &mean_p);
    r.record("warm_rounds", &warm_rounds);
    r.record("cold_rounds", &cold_rounds);
    r.record("scaling_reduction", &reduction);
    r.telemetry(&merge_telemetry(&outputs));
    r.finish()
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig9_accuracy_and_scaling_reduction() {
        let json = &crate::fixture::canonical("fig9").json;
        let w = json["mean_acc_workers"].as_f64().unwrap();
        let p = json["mean_acc_ps"].as_f64().unwrap();
        assert!(w > 0.8, "worker warm-start accuracy too low: {w}");
        assert!(p > 0.7, "PS warm-start accuracy too low: {p}");
        assert!(
            json["scaling_reduction"].as_f64().unwrap() > 0.1,
            "warm start should cut scaling rounds"
        );
    }
}
