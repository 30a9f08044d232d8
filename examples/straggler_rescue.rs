//! Instability handling: inject a hot PS and a worker straggler mid-job and
//! compare the three recovery strategies of Figs. 12–13 — no intervention,
//! traditional stop-and-restart, and DLRover-RM's seamless migration /
//! dynamic data sharding.
//!
//! ```sh
//! cargo run --release --example straggler_rescue
//! ```

use dlrover_rm::prelude::*;
use dlrover_rm::pstrain::{plan_ps_migration, plan_worker_recovery};

const STEPS: u64 = 20_000;
const SLICE: SimDuration = SimDuration::from_secs(30);
const GB: u64 = 1_000_000_000;

fn engine() -> PsTrainingEngine {
    let spec = TrainingJobSpec::paper_default(STEPS);
    PsTrainingEngine::new(
        spec,
        vec![PodState::new(8.0); 8],
        AsyncCostModel::balanced_partitions(4, 8.0),
        vec![256 * GB; 4],
    )
}

/// Runs the hot-PS scenario under one strategy and returns the JCT.
fn hot_ps_run(strategy: MigrationStrategy) -> SimDuration {
    let mut e = engine();
    // Healthy training for 5 minutes, then PS 0 drops to 3 % CPU.
    for _ in 0..10 {
        e.advance(SLICE);
    }
    e.set_ps_pod(0, PodState { cpu: 8.0, speed: 0.03 });

    // Detection takes ~1 minute of degraded training.
    for _ in 0..2 {
        e.advance(SLICE);
    }
    let timeline = plan_ps_migration(strategy, 20 * GB, SimDuration::from_mins(6));
    match strategy {
        MigrationStrategy::NoIntervention => {}
        _ => {
            // Degraded segments run before the handoff; the pause blocks.
            let degraded = timeline.degraded();
            let mut left = degraded;
            while !left.is_zero() {
                let step = if left < SLICE { left } else { SLICE };
                e.advance(step);
                left = left.saturating_sub(step);
            }
            e.pause(timeline.pause());
            e.set_ps_pod(0, PodState::new(8.0)); // replacement PS is healthy
        }
    }
    let end =
        e.run_to_completion(SLICE, SimTime::from_secs(365 * 24 * 3600)).expect("job finishes");
    end.saturating_since(SimTime::ZERO)
}

/// Runs the worker-straggler scenario under one strategy.
///
/// The two baselines use *static* data partitioning (each worker owns an
/// equal slice, as in conventional frameworks), so their completion is
/// computed in closed form after the injection; DLRover keeps the dynamic
/// shards queue and simply lets healthy workers absorb the load.
fn straggler_run(strategy: MigrationStrategy) -> SimDuration {
    use dlrover_rm::pstrain::static_partition_completion_seconds;

    let mut e = engine();
    for _ in 0..10 {
        e.advance(SLICE);
    }
    e.set_worker_pod(0, PodState { cpu: 8.0, speed: 0.03 });
    let timeline = plan_worker_recovery(
        strategy,
        20 * GB,
        SimDuration::from_secs(45),
        SimDuration::from_mins(6),
    );
    let per_worker_rate = |pod: &PodState, e: &PsTrainingEngine| {
        512.0
            / AsyncCostModel::new(e.spec().coefficients, e.spec().constants, e.spec().batch_size)
                .worker_iter_time(pod, e.partitions(), 8)
    };
    match strategy {
        MigrationStrategy::NoIntervention => {
            // Static partitioning: the straggler grinds through its own
            // slice at 3 % speed.
            let mut rates = vec![per_worker_rate(&PodState::new(8.0), &e); 7];
            rates.push(per_worker_rate(&PodState { cpu: 8.0, speed: 0.03 }, &e));
            let tail = static_partition_completion_seconds(e.remaining_samples() as f64, &rates);
            return e.now().saturating_since(SimTime::ZERO) + SimDuration::from_secs_f64(tail);
        }
        MigrationStrategy::StopAndRestart => {
            // Restart replaces the worker but pays the full checkpoint +
            // redeploy + repartition pause; afterwards it is still a
            // statically partitioned job, now healthy.
            let rates = vec![per_worker_rate(&PodState::new(8.0), &e); 8];
            let tail = static_partition_completion_seconds(e.remaining_samples() as f64, &rates);
            return e.now().saturating_since(SimTime::ZERO)
                + timeline.pause()
                + timeline.degraded()
                + SimDuration::from_secs_f64(tail);
        }
        MigrationStrategy::Seamless => {
            // Dynamic sharding: nothing to do — the queue already routes
            // most data to healthy workers and shrinks the straggler's
            // shards to keep its gradients fresh.
        }
    }
    let end =
        e.run_to_completion(SLICE, SimTime::from_secs(365 * 24 * 3600)).expect("job finishes");
    end.saturating_since(SimTime::ZERO)
}

fn main() {
    println!("Hot-PS scenario (Fig. 12): PS 0 drops to 3% CPU after 5 min\n");
    println!("{:<28} {:>12}", "strategy", "JCT (min)");
    for (label, strategy) in [
        ("no intervention", MigrationStrategy::NoIntervention),
        ("traditional stop-restart", MigrationStrategy::StopAndRestart),
        ("DLRover seamless", MigrationStrategy::Seamless),
    ] {
        println!("{:<28} {:>12.1}", label, hot_ps_run(strategy).as_mins_f64());
    }

    println!("\nWorker-straggler scenario (Fig. 13): worker 0 drops to 3% CPU\n");
    println!("{:<28} {:>12}", "strategy", "JCT (min)");
    for (label, strategy) in [
        ("no intervention", MigrationStrategy::NoIntervention),
        ("traditional stop-restart", MigrationStrategy::StopAndRestart),
        ("DLRover data sharding", MigrationStrategy::Seamless),
    ] {
        println!("{:<28} {:>12.1}", label, straggler_run(strategy).as_mins_f64());
    }

    println!(
        "\nSeamless migration overlaps pod startup with training and hands\n\
         parameters through the in-memory flash-checkpoint tier; dynamic data\n\
         sharding rebalances a straggler without ever stopping the job."
    );
}
