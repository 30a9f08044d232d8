//! Fig. 12 (hot PS) and Fig. 13 (worker straggler): three recovery
//! strategies with their JCT and timeline breakdown.

use dlrover_pstrain::{
    plan_ps_migration, plan_worker_recovery, static_partition_completion_seconds, AsyncCostModel,
    MigrationStrategy, PodState, PsTrainingEngine, TrainingJobSpec,
};
use dlrover_sim::{SimDuration, SimTime};
use dlrover_telemetry::Telemetry;

use crate::parallel::{merge_telemetry, run_units_auto, Unit};
use crate::report::Report;

/// The three scripted strategies of both figures, in paper row order.
const STRATEGIES: [(&str, MigrationStrategy); 3] = [
    ("no intervention", MigrationStrategy::NoIntervention),
    ("traditional stop-restart", MigrationStrategy::StopAndRestart),
    ("DLRover-RM", MigrationStrategy::Seamless),
];

const GB: u64 = 1_000_000_000;
const SLICE: SimDuration = SimDuration::from_secs(30);
const FAR: SimTime = SimTime::from_secs(365 * 24 * 3_600);
const WORKERS: u32 = 8;
const PS: u32 = 4;
const CPU: f64 = 8.0;
/// Longer job than the examples so recovery overheads show at the paper's
/// relative scale.
const STEPS: u64 = 100_000;
/// Checkpoint size of the (grown) model at injection time.
const CKPT: u64 = 20 * GB;

fn engine(telemetry: &Telemetry, track: u64) -> PsTrainingEngine {
    let mut e = PsTrainingEngine::new(
        TrainingJobSpec::paper_default(STEPS),
        vec![PodState::new(CPU); WORKERS as usize],
        AsyncCostModel::balanced_partitions(PS, CPU),
        vec![256 * GB; PS as usize],
    );
    e.set_telemetry(telemetry.clone());
    e.set_span_track(track);
    e
}

/// Span track for one scripted case: `base` plus a per-strategy offset, so
/// each strategy's timeline lands on its own Perfetto row (fig12 = 10–12,
/// fig13 = 20–22; the master-driven cross-check keeps its job id, 1).
fn case_track(base: u64, strategy: MigrationStrategy) -> u64 {
    base + match strategy {
        MigrationStrategy::NoIntervention => 0,
        MigrationStrategy::StopAndRestart => 1,
        MigrationStrategy::Seamless => 2,
    }
}

struct Outcome {
    jct_min: f64,
    pause_min: f64,
    degraded_min: f64,
}

fn hot_ps_case(strategy: MigrationStrategy, telemetry: &Telemetry) -> Outcome {
    let mut e = engine(telemetry, case_track(10, strategy));
    // 20 minutes of healthy training, then PS 0 drops to 3 % CPU.
    for _ in 0..40 {
        e.advance(SLICE);
    }
    e.set_ps_pod(0, PodState { cpu: CPU, speed: 0.03 });
    // Detection: ~1 minute of hot running before anything reacts.
    for _ in 0..2 {
        e.advance(SLICE);
    }
    let timeline = plan_ps_migration(strategy, CKPT, SimDuration::from_mins(6));
    if strategy != MigrationStrategy::NoIntervention {
        // Degraded segment: training continues hot while new pods start.
        let mut left = timeline.degraded();
        while !left.is_zero() {
            let step = if left < SLICE { left } else { SLICE };
            e.advance(step);
            left = left.saturating_sub(step);
        }
        e.pause(timeline.pause());
        e.set_ps_pod(0, PodState::new(CPU));
    }
    let end = e.run_to_completion(SLICE, FAR).expect("finishes");
    Outcome {
        jct_min: end.saturating_since(SimTime::ZERO).as_mins_f64(),
        pause_min: timeline.pause().as_mins_f64(),
        degraded_min: timeline.degraded().as_mins_f64(),
    }
}

fn straggler_case(strategy: MigrationStrategy, telemetry: &Telemetry) -> Outcome {
    let mut e = engine(telemetry, case_track(20, strategy));
    for _ in 0..40 {
        e.advance(SLICE);
    }
    e.set_worker_pod(0, PodState { cpu: CPU, speed: 0.03 });
    let timeline =
        plan_worker_recovery(strategy, CKPT, SimDuration::from_secs(45), SimDuration::from_mins(6));
    let cost = AsyncCostModel::new(e.spec().coefficients, e.spec().constants, e.spec().batch_size);
    let rate = |pod: &PodState, e: &PsTrainingEngine| {
        512.0 / cost.worker_iter_time(pod, e.partitions(), WORKERS)
    };
    let elapsed = e.now().saturating_since(SimTime::ZERO);
    match strategy {
        MigrationStrategy::NoIntervention => {
            // Conventional static partitioning: the straggler owns 1/w of
            // the data and crawls through it at 3 % speed.
            let mut rates = vec![rate(&PodState::new(CPU), &e); WORKERS as usize - 1];
            rates.push(rate(&PodState { cpu: CPU, speed: 0.03 }, &e));
            let tail = static_partition_completion_seconds(e.remaining_samples() as f64, &rates);
            Outcome {
                jct_min: (elapsed + SimDuration::from_secs_f64(tail)).as_mins_f64(),
                pause_min: 0.0,
                degraded_min: 0.0,
            }
        }
        MigrationStrategy::StopAndRestart => {
            // Restart replaces the worker (static partitioning resumes
            // healthy afterwards) at the full checkpoint + redeploy price.
            let rates = vec![rate(&PodState::new(CPU), &e); WORKERS as usize];
            let tail = static_partition_completion_seconds(e.remaining_samples() as f64, &rates);
            Outcome {
                jct_min: (elapsed
                    + timeline.degraded()
                    + timeline.pause()
                    + SimDuration::from_secs_f64(tail))
                .as_mins_f64(),
                pause_min: timeline.pause().as_mins_f64(),
                degraded_min: timeline.degraded().as_mins_f64(),
            }
        }
        MigrationStrategy::Seamless => {
            // Dynamic sharding: detection, then the queue rebalances —
            // healthy workers absorb the load, the straggler contributes
            // at its own pace with shrunken shards.
            let end = e.run_to_completion(SLICE, FAR).expect("finishes");
            Outcome {
                jct_min: end.saturating_since(SimTime::ZERO).as_mins_f64(),
                pause_min: 0.0,
                degraded_min: timeline.degraded().as_mins_f64(),
            }
        }
    }
}

fn render(r: &mut Report, title: &str, outcomes: &[&Outcome]) -> Vec<serde_json::Value> {
    r.section(title);
    r.row(
        &["strategy".into(), "JCT(min)".into(), "pause(min)".into(), "degraded(min)".into()],
        &[26, 9, 11, 14],
    );
    let mut rows = Vec::new();
    for (&(label, _), o) in STRATEGIES.iter().zip(outcomes) {
        r.row(
            &[
                label.into(),
                format!("{:.1}", o.jct_min),
                format!("{:.1}", o.pause_min),
                format!("{:.1}", o.degraded_min),
            ],
            &[26, 9, 11, 14],
        );
        rows.push(serde_json::json!({
            "strategy": label, "jct_min": o.jct_min,
            "pause_min": o.pause_min, "degraded_min": o.degraded_min,
        }));
    }
    rows
}

/// Cross-check: the same scenario through the *job master's* automatic
/// hot-PS detection + seamless rebalancing (no hand-scripted timeline).
fn hot_ps_via_master(telemetry: &Telemetry) -> f64 {
    use dlrover_master::{JobMaster, MasterConfig, MasterEvent};
    use dlrover_optimizer::ResourceAllocation;
    use dlrover_perfmodel::JobShape;

    let mut m = JobMaster::new(
        1,
        TrainingJobSpec::paper_default(STEPS),
        ResourceAllocation::new(JobShape::new(WORKERS, PS, CPU, CPU, 512), CPU * 4.0, 256.0),
        MasterConfig::default(),
    );
    m.set_telemetry(telemetry.clone());
    // 20 healthy minutes, then the injection.
    for _ in 0..40 {
        m.tick(SLICE);
    }
    m.engine_mut().set_ps_pod(0, PodState { cpu: CPU, speed: 0.03 });
    for _ in 0..400_000 {
        for e in m.tick(SLICE) {
            if let MasterEvent::Completed(t) = e {
                return t.saturating_since(SimTime::ZERO).as_mins_f64();
            }
        }
    }
    f64::NAN
}

/// A fig12 unit's result: a scripted-timeline outcome or the job-master
/// cross-check's JCT.
enum Case {
    Scripted(Outcome),
    Auto(f64),
}

/// Runs Fig. 12 (hot PS).
///
/// Execution: four units — the three scripted strategies plus the
/// master-driven cross-check — each with its own telemetry sink; the
/// per-strategy span tracks keep the merged timelines on distinct
/// Perfetto rows regardless of which thread ran which case.
pub fn run_fig12(_seed: u64) -> String {
    let mut r = Report::new("fig12", "hot-PS recovery strategies");
    let mut units: Vec<Unit<'_, Case>> = STRATEGIES
        .iter()
        .enumerate()
        .map(|(i, &(label, strategy))| {
            Unit::new(format!("{i}/{label}"), move |t: &Telemetry| {
                Case::Scripted(hot_ps_case(strategy, t))
            })
        })
        .collect();
    units.push(Unit::new("3/master-auto".to_string(), |t: &Telemetry| {
        Case::Auto(hot_ps_via_master(t))
    }));
    let outputs = run_units_auto(units);
    let scripted: Vec<&Outcome> = outputs[..3]
        .iter()
        .map(|o| match &o.value {
            Case::Scripted(oc) => oc,
            Case::Auto(_) => unreachable!("key order pins units 0-2 to scripted cases"),
        })
        .collect();
    let auto_jct = match outputs[3].value {
        Case::Auto(jct) => jct,
        Case::Scripted(_) => unreachable!("key order pins unit 3 to the master cross-check"),
    };

    let mut rows = render(&mut r, "PS 0 drops to 3% CPU at minute 20", &scripted);
    // Integrated path: master auto-detects and rebalances.
    r.row(
        &["DLRover-RM (job master)".into(), format!("{auto_jct:.1}"), "auto".into(), "auto".into()],
        &[26, 9, 11, 14],
    );
    rows.push(serde_json::json!({
        "strategy": "DLRover-RM (job master, auto)", "jct_min": auto_jct,
    }));
    let jct = |i: usize| rows[i]["jct_min"].as_f64().unwrap();
    r.line(format!(
        "\nDLRover vs no-intervention: -{:.1}% (paper: -36.4%) | vs traditional: -{:.1}% (paper: -27.6%)",
        (1.0 - jct(2) / jct(0)) * 100.0,
        (1.0 - jct(2) / jct(1)) * 100.0
    ));
    r.record("rows", &rows);
    r.telemetry(&merge_telemetry(&outputs));
    r.finish()
}

/// Runs Fig. 13 (worker straggler).
///
/// Execution: one unit per scripted strategy, merged in paper row order.
pub fn run_fig13(_seed: u64) -> String {
    let mut r = Report::new("fig13", "worker-straggler recovery strategies");
    let units = STRATEGIES
        .iter()
        .enumerate()
        .map(|(i, &(label, strategy))| {
            Unit::new(format!("{i}/{label}"), move |t: &Telemetry| straggler_case(strategy, t))
        })
        .collect();
    let outputs = run_units_auto(units);
    let outcomes: Vec<&Outcome> = outputs.iter().map(|o| &o.value).collect();
    let rows = render(&mut r, "worker 0 drops to 3% CPU at minute 20", &outcomes);
    let jct = |i: usize| rows[i]["jct_min"].as_f64().unwrap();
    r.line(format!(
        "\nDLRover vs no-intervention: -{:.1}% (paper: -48.5%) | vs traditional: -{:.1}% (paper: -37%)",
        (1.0 - jct(2) / jct(0)) * 100.0,
        (1.0 - jct(2) / jct(1)) * 100.0
    ));
    r.record("rows", &rows);
    r.telemetry(&merge_telemetry(&outputs));
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critpath::critical_path;
    use dlrover_telemetry::parse_spans_jsonl;

    fn jcts(id: &str) -> (f64, f64, f64) {
        let rows = crate::fixture::canonical(id).json["rows"].as_array().unwrap().clone();
        (
            rows[0]["jct_min"].as_f64().unwrap(),
            rows[1]["jct_min"].as_f64().unwrap(),
            rows[2]["jct_min"].as_f64().unwrap(),
        )
    }

    #[test]
    fn fig12_ordering() {
        let (noint, traditional, dlrover) = jcts("fig12");
        // The integrated job-master path must land in the same league as
        // the scripted seamless timeline.
        let json = &crate::fixture::canonical("fig12").json;
        let auto = json["rows"][3]["jct_min"].as_f64().unwrap();
        assert!(auto.is_finite());
        assert!(auto < traditional, "auto mitigation {auto} !< traditional {traditional}");
        assert!(dlrover < traditional, "{dlrover} !< {traditional}");
        assert!(traditional < noint, "{traditional} !< {noint}");
        // Factor sanity: DLRover saves at least 15% vs both.
        assert!(dlrover < 0.85 * noint);
        assert!(dlrover < 0.9 * traditional);
    }

    #[test]
    fn fig13_ordering() {
        let (noint, traditional, dlrover) = jcts("fig13");
        assert!(dlrover < traditional, "{dlrover} !< {traditional}");
        assert!(traditional < noint, "{traditional} !< {noint}");
        assert!(dlrover < 0.7 * noint, "sharding should save big: {dlrover} vs {noint}");
    }

    /// Critical-path shape for the migration-heavy scenario: seamless
    /// recovery keeps the pause/migration overhead a small slice of the
    /// makespan (Table 2 / §5.2), and useful iteration work dominates.
    #[test]
    fn fig12_critpath_migration_overhead_is_bounded() {
        let t = Telemetry::default();
        hot_ps_case(MigrationStrategy::Seamless, &t);
        let spans = parse_spans_jsonl(&t.spans_to_jsonl()).expect("well-formed span log");
        let cp = critical_path(&spans);
        let overhead = cp.fraction_of(&["migration", "checkpoint", "rebalance", "pod-startup"]);
        assert!(overhead > 0.0, "the injected migration must leave spans");
        assert!(overhead < 0.15, "seamless overhead should be bounded: {overhead:.3}");
        assert!(
            cp.dominant.starts_with("iteration"),
            "training should dominate, got {}",
            cp.dominant
        );
    }

    /// Critical-path shape for the straggler-heavy scenario: once worker 0
    /// crawls at 3% speed, straggler spans cover the tail and carry most of
    /// the makespan (§5.3's motivation for dynamic sharding).
    #[test]
    fn fig13_critpath_is_straggler_dominated() {
        let t = Telemetry::default();
        straggler_case(MigrationStrategy::Seamless, &t);
        let spans = parse_spans_jsonl(&t.spans_to_jsonl()).expect("well-formed span log");
        assert!(spans.iter().all(|s| s.track == case_track(20, MigrationStrategy::Seamless)));
        let cp = critical_path(&spans);
        assert_eq!(cp.dominant, "straggler", "phases: {:?}", cp.phases_us);
        assert!(cp.fraction("straggler") > 0.25, "fractions: {:?}", cp.fractions);
    }
}
