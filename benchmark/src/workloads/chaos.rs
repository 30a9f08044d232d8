//! `chaos-jobs`: jobs under a static, well-provisioned gang through
//! `dlrover_rm::chaos::run_chaos_job`, one generated fault plan each. The
//! same `master`/`pstrain` layers as elastic-jobs, used differently
//! (kill / restore / replay / retry instead of steady scaling), plus the
//! legacy `Cluster`, the checkpoint plane, the witness board, the replay fold
//! and the oracle. The optimizer never runs. Op = step = one job.
//!
//! The 1.6K-line chaos driver is private and has no seam, so a traced run
//! records one span per job and *estimates* the shares inside it: exact call
//! counts from the job's report and telemetry snapshot x the per-call time
//! of a probe. Those carry the `_est` suffix.

use std::hint::black_box;
use std::time::Instant;

use dlrover_cluster::{Cluster, PodRole, PodSpec, Priority, Resources};
use dlrover_master::{CheckpointPlane, CkptPlaneConfig, JobMaster, ReplayedJobState};
use dlrover_perfmodel::{ModelCoefficients, WorkloadConstants};
use dlrover_pstrain::{AsyncCostModel, PodState, ShardQueue, ShardingConfig};
use dlrover_rm::chaos::{run_chaos_job, ChaosReport};
use dlrover_sim::{FaultPlan, RngStreams, SimDuration, SimTime};
use dlrover_telemetry::{Event, EventKind, GroundTruth, Oracle, Telemetry};

use crate::harness::{per_call_seconds, Info, Mode, Recorder, Workload};
use crate::inputs::{chaos_jobs, ChaosJob};
use crate::metrics::MetricSet;
use crate::spans::SelfTimeTable;
use crate::stats::{self, Block, Digest};
use crate::workloads::SimSummary;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Outcome {
    digest: u64,
    jct_s: Option<f64>,
    core_hours: f64,
}

fn outcome(report: &ChaosReport) -> Outcome {
    let mut d = Digest::default();
    d.push(report.jct_us.unwrap_or(u64::MAX));
    d.push(report.baseline_jct_us);
    d.push(report.faults_injected);
    d.push(u64::from(report.oomed));
    d.push(report.health as u64);
    d.push(report.master_restarts);
    d.push_f64(report.cpu_core_hours);
    for r in &report.recoveries {
        d.push(r.downtime.as_micros());
        d.push(r.samples_done);
    }
    d.push(report.ckpt.saves);
    d.push(report.ckpt.commits);
    d.push(report.oracle.violation_count() as u64);
    Outcome {
        digest: d.value(),
        jct_s: report.jct_us.map(|us| us as f64 / 1e6),
        core_hours: report.cpu_core_hours,
    }
}

/// Exact counts and captured inputs of the first traced pass.
#[derive(Default)]
struct Captured {
    /// `(plan, events, truth)` of the first few jobs, for the oracle and
    /// replay probes.
    audits: Vec<(FaultPlan, Vec<Event>, GroundTruth)>,
    /// 30 s ticks the jobs ran for, fault-free baseline run included.
    ticks: u64,
    events_recorded: u64,
    events_dropped: u64,
    ckpt_ops: u64,
    pod_requests: u64,
    retries: u64,
    retry_exhausted: u64,
    recovery_s: Vec<f64>,
}

/// The workload.
pub struct ChaosJobs {
    jobs: Vec<ChaosJob>,
    reference: Vec<Outcome>,
    captured: Option<Captured>,
}

impl ChaosJobs {
    fn sim(&self) -> SimSummary {
        let jct: Vec<f64> = self.reference.iter().filter_map(|o| o.jct_s).collect();
        let core_hours: f64 = self.reference.iter().map(|o| o.core_hours).sum();
        let samples: u64 = self.jobs.iter().map(|j| j.spec.total_samples).sum();
        SimSummary::of(&jct, core_hours, samples)
    }
}

impl Workload for ChaosJobs {
    fn setup(seed: u64, scale: f64) -> Self {
        ChaosJobs { jobs: chaos_jobs(seed, scale), reference: Vec::new(), captured: None }
    }

    fn warm_up(&mut self) {
        for j in self.jobs.iter().take(20) {
            black_box(run_chaos_job(&j.spec, j.alloc, &j.plan, &j.config, &Telemetry::default()));
        }
    }

    fn block(&mut self, rec: &mut Recorder, mode: Mode) {
        let first = self.reference.is_empty();
        let capturing = mode == Mode::Traced && self.captured.is_none();
        let mut captured = capturing.then(Captured::default);
        let tick_us = self.jobs[0].config.runner.profile_interval.as_micros().max(1);
        let block_start = Instant::now();
        for (i, job) in self.jobs.iter().enumerate() {
            rec.tracer.set_op(i as u64);
            let sink = Telemetry::default();
            let started = Instant::now();
            let span = rec.tracer.open("core.chaos_job");
            let report = run_chaos_job(&job.spec, job.alloc, &job.plan, &job.config, &sink);
            rec.tracer.close(span);
            if mode == Mode::Plain {
                rec.steps_ms.push(started.elapsed().as_secs_f64() * 1e3);
            }
            let got = outcome(&report);
            if got.jct_s.is_none() {
                rec.fail(1, || format!("chaos job {i} did not complete (oom={})", report.oomed));
            }
            if !report.oracle.passed() {
                rec.fail(1, || format!("chaos job {i}: {:?}", report.oracle.violations()));
            }
            if first {
                self.reference.push(got);
            } else if self.reference[i].digest != got.digest {
                rec.fail(1, || format!("chaos job {i}: sim digest differs between passes"));
            }
            if let Some(c) = captured.as_mut() {
                let snap = sink.snapshot();
                c.ticks += (report.jct_us.unwrap_or(0) + report.baseline_jct_us) / tick_us;
                c.events_recorded += snap.total_events;
                c.events_dropped += snap.dropped_events;
                c.ckpt_ops += report.ckpt.saves + report.ckpt.restores;
                for e in &snap.events {
                    match e.kind {
                        EventKind::PodRequested { .. } => c.pod_requests += 1,
                        EventKind::RetryAttempt { .. } => c.retries += 1,
                        EventKind::RetryExhausted { .. } => c.retry_exhausted += 1,
                        _ => {}
                    }
                }
                c.recovery_s
                    .extend(report.oracle.recovery_latencies_us.iter().map(|us| *us as f64 / 1e6));
                if c.audits.len() < 24 {
                    c.audits.push((job.plan.clone(), snap.events, report.truth));
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
        out.set("core.job_p50_ms.chaos", stats::median(&rec.steps_ms));

        let c = self.captured.as_ref().expect("a traced run has a traced pass");
        out.set("master.retries", c.retries as f64);
        out.set("master.retry_exhausted", c.retry_exhausted as f64);
        out.set("master.sim_recovery_p95_s", stats::percentile(&c.recovery_s, 95.0));
        out.set("telemetry.events_recorded", c.events_recorded as f64);
        out.set("telemetry.events_dropped", c.events_dropped as f64);

        let advance_s = self.probe_advance();
        let (ckpt_s, replay_per_s) = probe_master(&c.audits);
        let schedule_s = self.probe_legacy_schedule();
        let record_ns = super::record_probe_ns(&c.audits[0].1);
        let oracle_s = probe_oracle(&c.audits);
        out.set("pstrain.advance_us", advance_s * 1e6);
        out.set("master.ckpt_saves_per_s", 1.0 / ckpt_s);
        out.set("master.replay_events_per_s", replay_per_s);
        out.set("cluster.legacy_schedule_us", schedule_s * 1e6);
        out.set("telemetry.record_ns", record_ns);
        out.set("telemetry.oracle_check_ms", oracle_s * 1e3);
        out.set("pstrain.cost_evals_per_s", probe_cost_model());
        out.set("pstrain.shard_checkout_ns", probe_shard_queue() * 1e9);
        out.set("sim.faultplan_gen_us", self.probe_faultplan() * 1e6);

        // Shares of one traced pass: exact counts x probed per-call time.
        let pass_s = table.wall_ns as f64 / 1e9 / rec.traced_blocks.len().max(1) as f64;
        let jobs = self.jobs.len() as f64;
        out.set("pstrain.advance_share_est", c.ticks as f64 * advance_s / pass_s);
        out.set("master.ckpt_share_est", c.ckpt_ops as f64 * ckpt_s / pass_s);
        out.set("cluster.legacy_schedule_share_est", c.pod_requests as f64 * schedule_s / pass_s);
        out.set("telemetry.record_share_est", c.events_recorded as f64 * record_ns / 1e9 / pass_s);
        out.set("telemetry.oracle_share_est", jobs * oracle_s / pass_s);
    }
}

impl ChaosJobs {
    /// `PsTrainingEngine::advance(30 s)` on the workload's own gangs.
    fn probe_advance(&self) -> f64 {
        let dt = SimDuration::from_secs(30);
        let (mut calls, mut secs) = (0u64, 0.0f64);
        for job in self.jobs.iter().take(48) {
            let mut master =
                JobMaster::new(0, job.spec.clone(), job.alloc, job.config.runner.master);
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
        secs / calls.max(1) as f64
    }

    /// `Cluster::request_pod` (which runs `schedule_pending`) per pod, gangs
    /// of the workload's shapes against the chaos harness's cluster.
    fn probe_legacy_schedule(&self) -> f64 {
        let cfg = &self.jobs[0].config;
        let mut pods = 0u64;
        let t = Instant::now();
        for round in 0..40u64 {
            let mut cluster = Cluster::new(cfg.cluster.clone(), &RngStreams::new(round));
            for job in self.jobs.iter().take(8) {
                let shape = job.alloc.shape;
                for (count, cpu, mem, role) in [
                    (shape.workers, shape.worker_cpu, job.alloc.worker_mem_gb, PodRole::Worker),
                    (shape.ps, shape.ps_cpu, job.alloc.ps_mem_gb, PodRole::ParameterServer),
                ] {
                    for _ in 0..count {
                        let spec = PodSpec {
                            resources: Resources::new(cpu, mem),
                            role,
                            priority: Priority::Low,
                            job_id: 0,
                        };
                        black_box(cluster.request_pod(spec, SimTime::ZERO).ok());
                        pods += 1;
                    }
                }
            }
        }
        t.elapsed().as_secs_f64() / pods.max(1) as f64
    }

    /// `FaultPlan::generate` + `validate` with the workload's generator.
    fn probe_faultplan(&self) -> f64 {
        let cfg = self.jobs[0].config.plan;
        let streams = RngStreams::new(1);
        per_call_seconds(0.1, |i| {
            let plan = FaultPlan::generate(&cfg, &streams, i as u64);
            black_box(plan.validate().is_ok());
        })
    }
}

/// Seconds per `CheckpointPlane::save` (a restore every 64th, the
/// `BENCH_ckptplane` shape), and events per second through
/// `ReplayedJobState::from_events` on the captured logs.
fn probe_master(audits: &[(FaultPlan, Vec<Event>, GroundTruth)]) -> (f64, f64) {
    const SAVES: u64 = 20_000;
    const JOBS: u64 = 32;
    let mut plane = CheckpointPlane::new(CkptPlaneConfig::default());
    let mut at = SimTime::ZERO;
    let t = Instant::now();
    for i in 0..SAVES {
        let (job, step) = (i % JOBS, i / JOBS);
        let samples = step * 1_024;
        let bytes = 500_000_000 + samples * 64 + (job % 8) * 50_000_000;
        at += SimDuration::from_secs(7);
        black_box(plane.save(job, job % 8, step, samples, bytes, at));
        if i % 64 == 0 {
            black_box(plane.restore(job, at));
        }
    }
    let ckpt_s = t.elapsed().as_secs_f64() / SAVES as f64;

    let events: usize = audits.iter().map(|(_, e, _)| e.len()).sum();
    let sweep_s = per_call_seconds(0.2, |_| {
        for (_, log, _) in audits {
            black_box(ReplayedJobState::from_events(log));
        }
    });
    (ckpt_s, events as f64 / sweep_s)
}

/// Seconds per `Oracle::check` on the captured streams.
fn probe_oracle(audits: &[(FaultPlan, Vec<Event>, GroundTruth)]) -> f64 {
    let oracle = Oracle::new(Default::default());
    per_call_seconds(0.2, |i| {
        let (plan, events, truth) = &audits[i % audits.len()];
        black_box(oracle.check(plan, events, truth));
    })
}

/// The `BENCH_costmodel` sweep: `AsyncCostModel::throughput` over three
/// worker sets x two PS layouts, evaluations per second.
fn probe_cost_model() -> f64 {
    let model = AsyncCostModel::new(
        ModelCoefficients::simulation_truth(),
        WorkloadConstants { model_size: 120.0, bandwidth: 1_000.0, embedding_dim: 0.65 },
        512,
    );
    let worker_sets: Vec<Vec<PodState>> = [8usize, 16, 32]
        .into_iter()
        .map(|n| {
            (0..n)
                .map(|i| PodState {
                    cpu: 4.0 + (i % 5) as f64,
                    speed: if i % 11 == 0 { 0.5 } else { 1.0 },
                })
                .collect()
        })
        .collect();
    let layouts = [
        AsyncCostModel::balanced_partitions(8, 8.0),
        AsyncCostModel::skewed_partitions(8, 8.0, 0.4),
    ];
    let mut acc = 0.0f64;
    let sweep_s = per_call_seconds(0.3, |_| {
        for ws in &worker_sets {
            for ps in &layouts {
                acc += model.throughput(ws, ps);
            }
        }
    });
    black_box(acc);
    (worker_sets.len() * layouts.len()) as f64 / sweep_s
}

/// Seconds per shard through `ShardQueue::{checkout, heartbeat, complete}`
/// with eight workers, as the engine drives it.
fn probe_shard_queue() -> f64 {
    let config = ShardingConfig::default();
    let total = 200_000 * u64::from(config.batch_size);
    let mut shards = 0u64;
    let t = Instant::now();
    for _ in 0..3 {
        let mut queue = ShardQueue::new(total, config);
        (0..8).for_each(|w| queue.register_worker(w, SimTime::ZERO));
        let mut now = SimTime::ZERO;
        'drain: loop {
            for w in 0..8 {
                let Some(shard) = queue.checkout(w, 1.0, now) else { break 'drain };
                queue.heartbeat(w, shard.len, now);
                black_box(queue.complete(w, now));
                shards += 1;
            }
            now += SimDuration::from_secs(1);
        }
    }
    t.elapsed().as_secs_f64() / shards.max(1) as f64
}
