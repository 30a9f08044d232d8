//! `elastic-jobs`: heterogeneous DLRM jobs, each driven to completion by
//! `dlrover_rm::runner::run_single_job_with` under a fresh `DlroverPolicy`
//! (profile -> NNLS fit -> NSGA-II plan -> seamless migrate -> train, §4-5).
//! Op = step = one job; a block is one pass over the job list.

use std::hint::black_box;
use std::time::Instant;

use dlrover_brain::{ClusterBrain, ConfigDb, DlroverPolicy, ReplanInput};
use dlrover_master::{JobMaster, MasterEvent, SchedulerPolicy};
use dlrover_optimizer::{
    hypervolume_2d, ClusterCapacity, GreedyConfig, Nsga2, Nsga2Config, NsgaPlanGenerator,
    ReconfigSpace, ResourceAllocation, ScalingAlgorithm, WarmStartConfig,
};
use dlrover_perfmodel::{
    MemoryPredictor, MemorySample, ThroughputModel, ThroughputObservation, WorkloadConstants,
};
use dlrover_rm::runner::{run_single_job_with, RunReport};
use dlrover_sim::{RngStreams, SimDuration, SimTime};
use dlrover_telemetry::{Event, EventKind, SpanCategory, Telemetry};

use crate::harness::{per_call_seconds, Info, Mode, Recorder, Workload};
use crate::inputs::{elastic_jobs, ElasticJob};
use crate::metrics::MetricSet;
use crate::spans::{SelfTimeTable, Tracer};
use crate::stats::{self, Block, Digest};
use crate::workloads::SimSummary;

/// What a job simulated, as far as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outcome {
    digest: u64,
    jct_s: Option<f64>,
    core_hours: f64,
    scalings: u32,
}

fn outcome(report: &RunReport) -> Outcome {
    let mut d = Digest::default();
    d.push(report.jct.map_or(u64::MAX, |j| j.as_micros()));
    d.push(u64::from(report.oomed));
    d.push(u64::from(report.scaling_count));
    let a = &report.final_allocation;
    d.push(u64::from(a.shape.workers));
    d.push(u64::from(a.shape.ps));
    for v in [a.shape.worker_cpu, a.shape.ps_cpu, a.worker_mem_gb, a.ps_mem_gb] {
        d.push_f64(v);
    }
    d.push_f64(report.cpu_core_hours);
    d.push_f64(report.mean_cpu_utilisation);
    d.push(report.throughput_series.len() as u64);
    for (t, thp) in &report.throughput_series {
        d.push_f64(*t);
        d.push_f64(*thp);
    }
    Outcome {
        digest: d.value(),
        jct_s: report.jct.map(|j| j.as_secs_f64()),
        core_hours: report.cpu_core_hours,
        scalings: report.scaling_count,
    }
}

/// Inputs captured at the seams of the first traced pass, for the probes.
#[derive(Default)]
struct Captured {
    /// Per job: the constants and the observation window its policy had
    /// built up by its last `adjust` (history + profiled observations).
    windows: Vec<(WorkloadConstants, Vec<ThroughputObservation>)>,
    /// Per job: where it stood at its last `adjust`.
    standing: Vec<(ResourceAllocation, u64)>,
    /// The events of the first few jobs, in record order.
    events: Vec<Event>,
    adjust_calls: u64,
    decisions: u64,
    events_recorded: u64,
    events_dropped: u64,
}

/// The workload.
pub struct ElasticJobs {
    jobs: Vec<ElasticJob>,
    /// Outcomes of the first pass; every later pass must reproduce them.
    reference: Vec<Outcome>,
    captured: Option<Captured>,
}

fn fresh_policy(job: &ElasticJob) -> DlroverPolicy {
    DlroverPolicy::new(job.request, job.policy.clone()).with_history(job.history.clone())
}

fn run_library(job: &ElasticJob, sink: &Telemetry) -> RunReport {
    run_single_job_with(&mut fresh_policy(job), job.spec.clone(), &job.runner, sink)
}

/// The benchmark's mirror of `run_single_job_with`: the same public calls in
/// the same order, with a span around each call into a layer. It has to
/// return the library's `RunReport` bit for bit; the caller checks that.
fn run_mirror(
    job: &ElasticJob,
    sink: &Telemetry,
    tracer: &mut Tracer,
    mut capture: Option<&mut Captured>,
) -> RunReport {
    let config = &job.runner;
    let mut policy = fresh_policy(job);
    let root = tracer.open("core.job");
    let streams = RngStreams::new(config.seed);
    let mut startup_rng = streams.stream("runner-startup");
    let batch = job.spec.batch_size;
    let initial = policy.initial_allocation();
    let mut master = JobMaster::new(0, job.spec.clone(), initial, config.master);
    master.set_telemetry(sink.clone());
    sink.record(SimTime::ZERO, EventKind::JobStarted { job: 0 });

    let mut window = if capture.is_some() { job.history.clone() } else { Vec::new() };
    let mut throughput_series = Vec::new();
    let mut cpu_core_seconds = 0.0f64;
    let mut util_acc = 0.0f64;
    let mut util_ticks = 0u32;
    let mut since_adjust = SimDuration::ZERO;
    let mut oomed = false;
    let mut jct = None;
    let mut last_remaining = job.spec.total_samples;

    'outer: while master.engine().now() < config.deadline {
        let s = tracer.open("master.tick");
        let events = master.tick(config.profile_interval);
        tracer.close(s);
        for e in events {
            match e {
                MasterEvent::Completed(t) => {
                    jct = Some(t.saturating_since(SimTime::ZERO));
                    break 'outer;
                }
                MasterEvent::Oomed(_) => {
                    oomed = true;
                    break 'outer;
                }
                _ => {}
            }
        }

        let allocated_cpu = master.allocation().total_cpu();
        cpu_core_seconds += allocated_cpu * config.profile_interval.as_secs_f64();
        let steps_per_s = master.engine().throughput() / f64::from(batch.max(1));
        let now = master.engine().now();
        throughput_series.push((now.as_secs_f64() / 60.0, steps_per_s));
        sink.sample("runner.steps_per_sec", now, steps_per_s);
        sink.sample("runner.allocated_cpu", now, allocated_cpu);
        if allocated_cpu > 0.0 {
            util_acc += master.engine().cpu_utilisation();
            util_ticks += 1;
            sink.sample("runner.cpu_utilisation", now, master.engine().cpu_utilisation());
        }

        since_adjust += config.profile_interval;
        if since_adjust >= config.adjust_interval {
            since_adjust = SimDuration::ZERO;
            let s = tracer.open("master.profile");
            let profile = master.profile();
            tracer.close(s);
            sink.span_complete(now, now, SpanCategory::PolicyEval, policy.name(), 0, None);
            let s = tracer.open("brain.adjust");
            let decision = policy.adjust(&profile);
            tracer.close(s);
            if let Some(c) = capture.as_deref_mut() {
                c.adjust_calls += 1;
                c.decisions += u64::from(decision.is_some());
                window.extend(profile.observation);
                last_remaining = profile.remaining_samples;
            }
            if let Some(decision) = decision {
                sink.record(
                    now,
                    EventKind::PolicyAdjusted {
                        job: 0,
                        workers: decision.allocation.shape.workers,
                        ps: decision.allocation.shape.ps,
                    },
                );
                let startup = config.startup.sample(config.cluster_utilisation, &mut startup_rng);
                let s = tracer.open("master.apply_decision");
                master.apply_decision(decision, startup);
                tracer.close(s);
            }
        }
    }

    sink.span_complete(
        SimTime::ZERO,
        master.engine().now(),
        SpanCategory::Job,
        policy.name(),
        0,
        None,
    );
    let report = RunReport {
        policy: policy.name().to_string(),
        jct,
        oomed,
        scaling_count: master.scaling_count(),
        final_allocation: master.allocation(),
        throughput_series,
        cpu_core_hours: cpu_core_seconds / 3_600.0,
        mean_cpu_utilisation: if util_ticks > 0 { util_acc / f64::from(util_ticks) } else { 0.0 },
    };
    tracer.close(root);
    if let Some(c) = capture {
        c.windows.push((job.policy.constants, window));
        c.standing.push((master.allocation(), last_remaining));
    }
    report
}

impl ElasticJobs {
    /// What the reference pass simulated.
    fn sim(&self) -> SimSummary {
        let jct: Vec<f64> = self.reference.iter().filter_map(|o| o.jct_s).collect();
        let core_hours: f64 = self.reference.iter().map(|o| o.core_hours).sum();
        let samples: u64 = self.jobs.iter().map(|j| j.spec.total_samples).sum();
        SimSummary::of(&jct, core_hours, samples)
    }
}

impl Workload for ElasticJobs {
    fn setup(seed: u64, scale: f64) -> Self {
        ElasticJobs { jobs: elastic_jobs(seed, scale), reference: Vec::new(), captured: None }
    }

    fn warm_up(&mut self) {
        for job in self.jobs.iter().take(20) {
            black_box(run_library(job, &Telemetry::default()));
        }
    }

    fn block(&mut self, rec: &mut Recorder, mode: Mode) {
        let first = self.reference.is_empty();
        let capturing = mode == Mode::Traced && self.captured.is_none();
        let mut captured = capturing.then(Captured::default);
        let block_start = Instant::now();
        for (i, job) in self.jobs.iter().enumerate() {
            rec.tracer.set_op(i as u64);
            let sink = Telemetry::default();
            let started = Instant::now();
            let report = match mode {
                Mode::Plain => run_library(job, &sink),
                Mode::Traced => run_mirror(job, &sink, &mut rec.tracer, captured.as_mut()),
            };
            let ms = started.elapsed().as_secs_f64() * 1e3;
            if mode == Mode::Plain {
                rec.steps_ms.push(ms);
            }
            let got = outcome(&report);
            if got.jct_s.is_none() {
                rec.fail(1, || format!("elastic job {i} did not complete (oom={})", report.oomed));
            }
            if first {
                self.reference.push(got);
            } else if self.reference[i].digest != got.digest {
                // A repeat, or the mirror loop, simulated something else
                // than the library's first pass did.
                rec.fail(1, || format!("elastic job {i}: sim digest differs ({mode:?} block)"));
            }
            if let Some(c) = captured.as_mut() {
                let snap = sink.snapshot();
                c.events_recorded += snap.total_events;
                c.events_dropped += snap.dropped_events;
                if i < 8 {
                    c.events.extend(snap.events);
                }
            }
        }
        let block = Block {
            group: 0,
            ops: self.jobs.len() as u64,
            seconds: block_start.elapsed().as_secs_f64(),
        };
        rec.attempted += block.ops;
        rec.push_block(mode, block);
        if capturing {
            self.captured = captured;
        }
    }

    fn info(&self) -> Vec<Info> {
        let mut d = Digest::default();
        self.reference.iter().for_each(|o| d.push(o.digest));
        self.sim().info(d.value(), self.jobs.len())
    }

    fn layer_metrics(&mut self, rec: &Recorder, table: &SelfTimeTable, out: &mut MetricSet) {
        self.sim().set(out);
        let scalings: u32 = self.reference.iter().map(|o| o.scalings).sum();
        out.set("master.scalings_per_job", f64::from(scalings) / self.jobs.len() as f64);
        out.set("core.job_p50_ms.elastic", stats::median(&rec.steps_ms));

        // Seams: the spans of the traced passes.
        let t = &rec.tracer;
        let job_s: f64 = t.durations_s("core.job").iter().sum();
        let adjust = t.durations_s("brain.adjust");
        let ticks = t.durations_s("master.tick");
        out.set("brain.adjust_busy_share", adjust.iter().sum::<f64>() / job_s);
        out.set("brain.adjust_p50_ms", stats::median(&adjust) * 1e3);
        let tail = stats::resolvable_percentile(adjust.len(), 99.0);
        out.set("brain.adjust_p99_ms", stats::percentile(&adjust, tail) * 1e3);
        out.set("master.tick_busy_share", ticks.iter().sum::<f64>() / job_s);
        out.set("master.tick_p50_us", stats::median(&ticks) * 1e6);
        let mean_us = |name: &str| {
            let d = t.durations_s(name);
            d.iter().sum::<f64>() / d.len().max(1) as f64 * 1e6
        };
        out.set("master.apply_decision_us", mean_us("master.apply_decision"));
        out.set("master.profile_us", mean_us("master.profile"));

        let c = self.captured.as_ref().expect("a traced run has a traced pass");
        out.set("brain.adjust_calls", c.adjust_calls as f64);
        out.set("brain.decisions", c.decisions as f64);
        out.set("brain.decision_ratio", c.decisions as f64 / c.adjust_calls.max(1) as f64);
        out.set("telemetry.events_recorded", c.events_recorded as f64);
        out.set("telemetry.events_dropped", c.events_dropped as f64);
        let record_ns = super::record_probe_ns(&c.events);
        out.set("telemetry.record_ns", record_ns);
        let pass_s = table.wall_ns as f64 / 1e9 / rec.traced_blocks.len().max(1) as f64;
        out.set("telemetry.record_share_est", c.events_recorded as f64 * record_ns / 1e9 / pass_s);

        self.probe_perfmodel(out);
        self.probe_optimizer(out);
        self.probe_brain(out);
        self.probe_engine(out);
    }
}

impl ElasticJobs {
    /// `ThroughputModel::fit` on the captured windows, evaluation on their
    /// shapes, and the OOM forecast on one job's memory trajectory.
    fn probe_perfmodel(&self, out: &mut MetricSet) {
        let c = self.captured.as_ref().expect("captured");
        let windows: Vec<_> = c.windows.iter().filter(|(_, w)| w.len() >= 5).collect();
        if windows.is_empty() {
            return;
        }
        let mut rmsle = Vec::new();
        let fit_s = per_call_seconds(0.3, |i| {
            let (constants, window) = windows[i % windows.len()];
            if let Ok((model, err)) = ThroughputModel::fit(*constants, window) {
                black_box(&model);
                if i < windows.len() {
                    rmsle.push(err);
                }
            }
        });
        out.set("perfmodel.fit_us", fit_s * 1e6);
        out.set("perfmodel.fit_rmsle", rmsle.iter().sum::<f64>() / rmsle.len().max(1) as f64);

        let (constants, window) = windows[0];
        if let Ok((model, _)) = ThroughputModel::fit(*constants, window) {
            let mut acc = 0.0;
            let eval_s = per_call_seconds(0.1, |i| {
                acc += model.throughput(&window[i % window.len()].shape);
            });
            black_box(acc);
            out.set("perfmodel.throughput_eval_ns", eval_s * 1e9);
        }

        // A PS memory trajectory at the profiler's cadence (one sample per
        // 30 s tick, 256-sample window, as `JobMaster` keeps it).
        let spec = &self.jobs[0].spec;
        let forecast_s = per_call_seconds(0.1, |i| {
            let mut predictor = MemoryPredictor::new(256);
            for k in 0..64 {
                let time = (i + k) as f64 * 30.0;
                let used_bytes = spec.memory.total_bytes(time * 50_000.0);
                predictor.observe(MemorySample { time, used_bytes });
            }
            black_box(predictor.forecast(64.0e9, 3_600.0));
        });
        out.set("perfmodel.mem_forecast_us", forecast_s * 1e6);
    }

    /// Models fitted on the captured windows paired with where the job stood.
    fn fitted_pairs(&self) -> Vec<(ThroughputModel, ResourceAllocation, u64)> {
        let c = self.captured.as_ref().expect("captured");
        c.windows
            .iter()
            .zip(&c.standing)
            .filter_map(|((constants, window), (alloc, remaining))| {
                let (model, _) = ThroughputModel::fit(*constants, window).ok()?;
                Some((model, *alloc, *remaining))
            })
            .collect()
    }

    /// `NsgaPlanGenerator::candidates` on captured `(model, current)` pairs
    /// with the 4- and the 5-gene genome, and the `BENCH_nsga2` workload.
    fn probe_optimizer(&self, out: &mut MetricSet) {
        let pairs = self.fitted_pairs();
        if pairs.is_empty() {
            return;
        }
        let space = self.jobs[0].policy.space;
        for (name, reconfig) in [
            ("optimizer.plan_search_ms", None),
            ("optimizer.plan_search_reconfig_ms", Some(ReconfigSpace::default())),
        ] {
            let generator = NsgaPlanGenerator { space, reconfig, ..NsgaPlanGenerator::default() };
            let mut rng = RngStreams::new(1).stream("plan-search-probe");
            let s = per_call_seconds(0.4, |i| {
                let (model, current, _) = &pairs[i % pairs.len()];
                black_box(generator.candidates(model, current, &mut rng));
            });
            out.set(name, s * 1e3);
        }

        // ZDT1, population 128 x 400 generations: the BENCH_nsga2 workload.
        const GENS: usize = 400;
        let zdt1 = |g: &[f64]| {
            let f1 = g[0];
            let gsum = 1.0 + 9.0 * g[1..].iter().sum::<f64>() / (g.len() - 1) as f64;
            vec![f1, gsum * (1.0 - (f1 / gsum).sqrt())]
        };
        let nsga = Nsga2::new(
            zdt1,
            vec![0.0; 10],
            vec![1.0; 10],
            Nsga2Config { population: 128, generations: GENS, ..Default::default() },
        );
        let (mut secs, mut sizes, mut volumes) = (Vec::new(), Vec::new(), Vec::new());
        for run in 0..3 {
            let mut rng = RngStreams::new(run).stream("nsga2-probe");
            let t = Instant::now();
            let front = nsga.run(&mut rng);
            secs.push(t.elapsed().as_secs_f64());
            sizes.push(front.len() as f64);
            volumes.push(hypervolume_2d(&front, [1.1, 1.1]));
        }
        out.set("optimizer.nsga_gens_per_s", GENS as f64 / stats::median(&secs));
        out.set("optimizer.front_size_mean", sizes.iter().sum::<f64>() / 3.0);
        out.set("optimizer.hypervolume_mean", volumes.iter().sum::<f64>() / 3.0);
    }

    /// `ClusterBrain::replan` over 64 captured jobs (the fleet control loop
    /// of ROADMAP item 3; no end-to-end metric runs it today).
    fn probe_brain(&self, out: &mut MetricSet) {
        let inputs: Vec<ReplanInput> = self
            .fitted_pairs()
            .into_iter()
            .take(64)
            .enumerate()
            .map(|(i, (model, current, remaining))| ReplanInput {
                job_id: i as u64,
                current,
                remaining_samples: remaining.max(1),
                model,
                degraded: false,
            })
            .collect();
        if inputs.is_empty() {
            return;
        }
        let mut brain = ClusterBrain::new(
            ConfigDb::new(64),
            WarmStartConfig::default(),
            GreedyConfig::default(),
            NsgaPlanGenerator::default(),
            1,
        );
        let free = ClusterCapacity { cpu_cores: 2_000.0, mem_gb: 16_000.0 };
        let s = per_call_seconds(0.3, |_| {
            black_box(brain.replan(&inputs, free));
        });
        out.set("brain.replan_ms", s * 1e3);
    }

    /// `PsTrainingEngine::advance(30 s)` on the workload's own job shapes.
    fn probe_engine(&self, out: &mut MetricSet) {
        let dt = SimDuration::from_secs(30);
        let (mut calls, mut secs) = (0u64, 0.0f64);
        for job in self.jobs.iter().take(32) {
            let mut master = JobMaster::new(0, job.spec.clone(), job.request, job.runner.master);
            let t = Instant::now();
            for _ in 0..100 {
                if master.engine().is_complete() {
                    break;
                }
                black_box(master.engine_mut().advance(dt));
                calls += 1;
            }
            secs += t.elapsed().as_secs_f64();
        }
        out.set("pstrain.advance_us", secs * 1e6 / calls.max(1) as f64);
    }
}
