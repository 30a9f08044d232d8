//! `fleet-sweep`: million-pod `ShardedFleet`s, each stepped to completion
//! from outside through the three public epoch calls, then merged. `cluster`
//! (slab store, timer wheel, exchange) and `telemetry::record` do all the
//! work; `optimizer`, `master` and `dlrm` none. Op = planned pod, step = one
//! epoch, block = one fleet.

use std::hint::black_box;
use std::time::Instant;

use dlrover_bench::parallel::{run_units, Unit};
use dlrover_cluster::{FleetScaleConfig, FleetTotals, ShardedFleet};
use dlrover_telemetry::{Event, Telemetry};

use crate::harness::{per_call_seconds, Info, Mode, Recorder, Workload};
use crate::inputs::{fleets, FleetInput, FLEET_PODS};
use crate::metrics::MetricSet;
use crate::spans::{SelfTimeTable, Tracer};
use crate::stats::{self, Block};

/// What one fleet simulated.
#[derive(Debug, Clone)]
struct Outcome {
    /// `FleetAggregates::digest` mixed with the merged event count.
    digest: u64,
    totals: FleetTotals,
    planned_pods: u64,
    /// Host seconds of the plain single-shard run.
    seconds: f64,
}

/// Seam measurements of the traced fleets.
#[derive(Default)]
struct Seams {
    build_s: Vec<f64>,
    pod_events_per_s: Vec<f64>,
    wheel_events_per_s: Vec<f64>,
    merge_items_per_s: Vec<f64>,
    events: Vec<Event>,
    events_recorded: u64,
    events_dropped: u64,
    peak_rss_per_pod: f64,
}

/// The workload.
pub struct FleetSweep {
    cfg: FleetScaleConfig,
    inputs: Vec<FleetInput>,
    /// The fleet `setup` built for the first block.
    built: Option<ShardedFleet>,
    next: usize,
    reference: Vec<Option<Outcome>>,
    seams: Seams,
    pool_seconds: Option<f64>,
}

fn build(cfg: &FleetScaleConfig, input: &FleetInput, shards: u32) -> ShardedFleet {
    ShardedFleet::with_chaos(cfg, shards, input.seed, input.plan.as_ref())
}

/// Steps `fleet` to completion, one span per public epoch call; returns the
/// host milliseconds of each epoch.
fn run_serial(fleet: &mut ShardedFleet, tracer: &mut Tracer) -> Vec<f64> {
    let mut epochs_ms = Vec::new();
    loop {
        tracer.set_op(epochs_ms.len() as u64);
        let started = Instant::now();
        let s = tracer.open("cluster.begin_epoch");
        let next = fleet.begin_epoch();
        tracer.close(s);
        let Some((bound, mut shards)) = next else { break };
        let s = tracer.open("cluster.run_epoch");
        shards.iter_mut().for_each(|shard| shard.run_epoch(bound));
        tracer.close(s);
        let s = tracer.open("cluster.finish_epoch");
        fleet.finish_epoch(shards);
        tracer.close(s);
        epochs_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    epochs_ms
}

fn digest_of(fleet: &ShardedFleet, merged: &Telemetry) -> u64 {
    fleet.aggregates().digest() ^ merged.event_count().rotate_left(32)
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl Workload for FleetSweep {
    const CPU_BOUND: bool = false;

    fn setup(seed: u64, scale: f64) -> Self {
        let pods = ((FLEET_PODS as f64 * scale) as u64).max(8_192);
        let cfg = FleetScaleConfig::for_target_pods(pods);
        let inputs = fleets(seed);
        let built = Some(build(&cfg, &inputs[0], 1));
        FleetSweep {
            reference: vec![None; inputs.len()],
            cfg,
            inputs,
            built,
            next: 0,
            seams: Seams::default(),
            pool_seconds: None,
        }
    }

    fn warm_up(&mut self) {
        let small = FleetScaleConfig::for_target_pods(10_000);
        black_box(build(&small, &self.inputs[0], 1).run_to_completion());
    }

    fn block(&mut self, rec: &mut Recorder, mode: Mode) {
        let index = self.next % self.inputs.len();
        self.next += 1;
        let input = &self.inputs[index];
        let mut fleet = self.built.take().unwrap_or_else(|| {
            let t = Instant::now();
            let fleet = build(&self.cfg, input, 1);
            if mode == Mode::Traced {
                self.seams.build_s.push(t.elapsed().as_secs_f64());
            }
            fleet
        });
        let planned_pods = fleet.planned_pods();

        let started = Instant::now();
        let epochs_ms = run_serial(&mut fleet, &mut rec.tracer);
        let run_s = started.elapsed().as_secs_f64();
        let s = rec.tracer.open("telemetry.merge");
        let merge_started = Instant::now();
        let merged = fleet.merged_telemetry();
        let merge_s = merge_started.elapsed().as_secs_f64();
        rec.tracer.close(s);
        let seconds = started.elapsed().as_secs_f64();

        let totals = fleet.aggregates().totals();
        let digest = digest_of(&fleet, &merged);
        let got = Outcome { digest, totals: totals.clone(), planned_pods, seconds };
        if totals.pods_created == 0 || totals.jobs_finished == 0 {
            rec.fail(planned_pods, || format!("fleet {index} ran no pods"));
        }
        match &self.reference[index] {
            Some(first) if first.digest != got.digest => {
                rec.fail(planned_pods, || format!("fleet {index}: digest differs between cycles"));
            }
            Some(_) => {}
            None => self.reference[index] = Some(got.clone()),
        }
        match mode {
            Mode::Plain => rec.steps_ms.extend(epochs_ms),
            Mode::Traced => {
                let seams = &mut self.seams;
                seams.pod_events_per_s.push(totals.pod_events as f64 / run_s);
                seams.wheel_events_per_s.push(totals.wheel_events as f64 / run_s);
                seams.merge_items_per_s.push(merged.event_count() as f64 / merge_s);
                if seams.events.is_empty() {
                    let snap = merged.snapshot();
                    seams.events_recorded = snap.total_events;
                    seams.events_dropped = snap.dropped_events;
                    seams.events = snap.events.into_iter().take(20_000).collect();
                    seams.peak_rss_per_pod = dlrover_bench::sysmetrics::peak_rss_bytes()
                        .unwrap_or(0) as f64
                        / planned_pods as f64;
                }
            }
        }
        rec.attempted += planned_pods;
        rec.push_block(mode, Block { group: 0, ops: planned_pods, seconds });
    }

    /// The shard-count check: fleet 0 again on two shards over the unit
    /// pool must reproduce the single-shard digest.
    fn finish(&mut self, rec: &mut Recorder) {
        let first = self.reference[0].clone().expect("fleet 0 always runs");
        let mut fleet = build(&self.cfg, &self.inputs[0], 2);
        // The experiment harness's own pooled driver, at no more threads
        // than the machine has cores.
        dlrover_bench::parallel::set_threads(parallelism().min(2));
        let started = Instant::now();
        dlrover_bench::experiments::fleetscale::run_pooled(&mut fleet);
        let merged = fleet.merged_telemetry();
        self.pool_seconds = Some(started.elapsed().as_secs_f64());
        if digest_of(&fleet, &merged) != first.digest {
            rec.fail(first.planned_pods, || "fleet 0: 1-shard and 2-shard digests differ".into());
        }
    }

    fn info(&self) -> Vec<Info> {
        let Some(first) = &self.reference[0] else { return Vec::new() };
        vec![
            Info::num("sim_jct_mean_s", first.totals.mean_completion_secs, "s"),
            Info { name: "sim_digest", value: format!("{:#018x}", first.digest), unit: "fnv" },
            Info::num("planned_pods_fleet0", first.planned_pods as f64, "count"),
            Info::num("available_parallelism", parallelism() as f64, "count"),
        ]
    }

    fn layer_metrics(&mut self, rec: &Recorder, table: &SelfTimeTable, out: &mut MetricSet) {
        // Counts: fleet 0 of the sweep, exact per seed.
        let first = self.reference[0].clone().expect("fleet 0 always runs");
        out.set("core.sim_jct_mean_s", first.totals.mean_completion_secs);
        out.set("cluster.sim_wait_mean_s", first.totals.mean_wait_secs);
        out.set("cluster.jobs_gave_up", first.totals.jobs_gave_up as f64);
        out.set("cluster.pod_failures", first.totals.pod_failures as f64);

        // Seams.
        let t = &rec.tracer;
        let calls = |name: &str| t.durations_s(name);
        let (begin, run, finish) = (
            calls("cluster.begin_epoch"),
            calls("cluster.run_epoch"),
            calls("cluster.finish_epoch"),
        );
        let epochs: Vec<f64> =
            run.iter().zip(&begin).zip(&finish).map(|((r, b), f)| (r + b + f) * 1e3).collect();
        let wall_s = table.wall_ns as f64 / 1e9;
        out.set("cluster.epoch_p50_ms", stats::median(&epochs));
        let tail = stats::resolvable_percentile(epochs.len(), 99.0);
        out.set("cluster.epoch_p99_ms", stats::percentile(&epochs, tail));
        out.set("cluster.shard_run_share", run.iter().sum::<f64>() / wall_s);
        out.set(
            "cluster.exchange_share",
            (begin.iter().sum::<f64>() + finish.iter().sum::<f64>()) / wall_s,
        );
        let s = &self.seams;
        out.set("cluster.pod_events_per_s", stats::median(&s.pod_events_per_s));
        out.set("cluster.wheel_events_per_s", stats::median(&s.wheel_events_per_s));
        out.set("cluster.fleet_build_s", stats::median(&s.build_s));
        out.set("cluster.bytes_per_pod", s.peak_rss_per_pod);
        out.set("telemetry.merge_items_per_s", stats::median(&s.merge_items_per_s));
        out.set("telemetry.events_recorded", s.events_recorded as f64);
        out.set("telemetry.events_dropped", s.events_dropped as f64);
        let record_ns = super::record_probe_ns(&s.events);
        out.set("telemetry.record_ns", record_ns);
        // Every pod event and every job event is one `record` into a cell
        // sink; the merged total counts them exactly.
        let fleet_s = wall_s / rec.traced_blocks.len().max(1) as f64;
        out.set("telemetry.record_share_est", s.events_recorded as f64 * record_ns / 1e9 / fleet_s);

        // The pool: a speed-up is only a speed-up on a machine with the cores.
        let threads = parallelism().min(2);
        if threads >= 2 {
            let pooled = self.pool_seconds.expect("finish ran");
            out.set("bench.pool_speedup_2t", first.seconds / pooled);
        } else {
            eprintln!("# bench.pool_speedup_2t not measured: available_parallelism < 2");
        }
        let per_sweep = per_call_seconds(0.1, |_| {
            let units: Vec<Unit<'_, ()>> =
                (0..64).map(|i| Unit::new(format!("{i:02}"), |_: &Telemetry| ())).collect();
            black_box(run_units(units, threads));
        });
        out.set("bench.unit_overhead_us", per_sweep * 1e6 / 64.0);
    }
}
