//! The job master's executor: applies plans, handles instability.
//!
//! One [`JobMaster`] owns one job's [`PsTrainingEngine`] and provides the
//! three post-scaling mechanisms of §5 around it:
//!
//! * **dynamic data sharding** is inherited from the engine (stragglers get
//!   smaller shards automatically; failed workers' shards re-queue);
//! * **seamless migration / flash-checkpoint** (§5.2): plan transitions are
//!   converted into [`MigrationTimeline`]s — under `Seamless` the new pods'
//!   startup overlaps training and only the flash handoff pauses; under
//!   `StopAndRestart` the whole timeline pauses (that is what the baseline
//!   schedulers get);
//! * **OOM prevention** (§5.3): the master forecasts PS memory from
//!   profiler samples and, when auto-scaling is enabled, pre-scales PS
//!   memory before the allocation is exceeded. With it disabled, the
//!   engine eventually OOMs and the job dies.

use dlrover_optimizer::ResourceAllocation;
use dlrover_pstrain::{
    plan_ps_migration, AsyncCostModel, EngineCheckpoint, MigrationStrategy, MigrationTimeline,
    PodState, PsPartition, PsTrainingEngine, ShardQueue, TimelineSegment, TrainingJobSpec,
    WorkerState,
};
use dlrover_sim::{SimDuration, SimTime};
use dlrover_telemetry::{EventKind, MigrationKind, Sink, SpanCategory, Telemetry};
use serde::{Deserialize, Serialize};

use crate::policy::{PolicyDecision, ReconfigRequest};
use crate::profiler::{JobRuntimeProfile, Profiler};
use crate::replay::{JobControl, Window};
use crate::resilience::{BudgetLedger, FailureBudget, JobHealth};

/// Master configuration knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MasterConfig {
    /// Whether the master auto-scales PS memory on a predicted OOM (§5.3).
    /// On by default, and nothing outside tests turns it off: every
    /// policy — the baselines in fig7, fig10 and the tournament included —
    /// runs with master-side OOM prevention.
    pub auto_memory_scaling: bool,
    /// Whether the master mitigates hot PSes automatically by rebalancing
    /// partitions with a seamless migration (§4.3 "PS Stragglers" +
    /// §5.2). On by default for every policy, the baselines included, as
    /// [`Self::auto_memory_scaling`] is.
    pub auto_ps_rebalance: bool,
    /// Heartbeat staleness past which a live worker counts as hung (§6.1
    /// liveness detection). Healthy workers heartbeat every tick, so this
    /// only needs to exceed the tick interval with margin.
    pub silent_worker_timeout: SimDuration,
    /// Bounded relaunches per job; drained budgets degrade (workers) or
    /// fail (PSes) the job instead of relaunching forever.
    pub failure_budget: FailureBudget,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            auto_memory_scaling: true,
            auto_ps_rebalance: true,
            silent_worker_timeout: SimDuration::from_mins(5),
            failure_budget: FailureBudget::default(),
        }
    }
}

/// OOM forecast horizon as a multiple of the estimated remaining time.
const OOM_HORIZON_FACTOR: f64 = 1.0;
/// Headroom applied when pre-scaling PS memory.
const OOM_HEADROOM: f64 = 0.5;
/// A PS counts as hot when its per-unit-capacity load exceeds the mean by
/// this factor (share/(cpu·speed) ratio).
const HOT_PS_FACTOR: f64 = 2.0;

/// Events a tick can surface to the driver / brain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MasterEvent {
    /// The job consumed all its data.
    Completed(SimTime),
    /// A PS exceeded its memory and the job died.
    Oomed(usize),
    /// An OOM was forecast; auto-scaling was disabled, so the driver must
    /// act (or the job will die).
    OomPredicted {
        /// Total PS memory (bytes) the forecast says is needed.
        required_bytes: u64,
    },
    /// A hot PS was detected but auto-rebalancing is disabled.
    HotPsDetected {
        /// Index of the hot PS.
        ps: usize,
    },
    /// A live worker's heartbeat went stale (zombie process); the master
    /// failed it — its shard re-queued — and the driver should request a
    /// replacement pod as for any other worker failure.
    SilentWorker(usize),
}

/// Per-job agent wrapping the training engine.
pub struct JobMaster {
    job_id: u64,
    engine: PsTrainingEngine,
    profiler: Profiler,
    config: MasterConfig,
    allocation: ResourceAllocation,
    completed_at: Option<SimTime>,
    scaling_count: u32,
    /// Health ladder (Healthy → Degraded → Failed), monotone.
    health: JobHealth,
    /// Relaunch-budget consumption against `config.failure_budget`.
    budget: BudgetLedger,
    /// Dedup key for PS-failure reports: `(ps index, engine time)` of the
    /// last recovery, so a duplicate delivery of the same failure within
    /// one tick is a no-op rather than a second migration.
    last_ps_recovery: Option<(usize, SimTime)>,
    /// The committed plan and the reconfiguration window (§5.2); its
    /// watermark and PS count are stale, [`Self::control`] reads the engine's.
    control: JobControl,
    telemetry: Telemetry,
    scratch: TickScratch,
}

/// Working vectors of [`JobMaster::tick`], kept between ticks.
#[derive(Debug, Default)]
struct TickScratch {
    /// Memory in use per PS, bytes.
    ps_used: Vec<u64>,
    /// Engine slots of the workers found silent this tick.
    silent: Vec<usize>,
}

/// Maps the pstrain strategy into the telemetry vocabulary (the telemetry
/// crate sits below pstrain and cannot name its types).
fn migration_kind(strategy: MigrationStrategy) -> MigrationKind {
    match strategy {
        MigrationStrategy::Seamless => MigrationKind::Seamless,
        MigrationStrategy::StopAndRestart => MigrationKind::StopAndRestart,
        MigrationStrategy::NoIntervention => MigrationKind::NoIntervention,
    }
}

impl JobMaster {
    /// Creates a master and boots the job at `allocation`: the master a
    /// replay of the empty log rebuilds, with every worker of the
    /// allocation, at t = 0.
    pub fn new(
        job_id: u64,
        spec: TrainingJobSpec,
        allocation: ResourceAllocation,
        config: MasterConfig,
    ) -> Self {
        let boot = JobControl::default();
        let workers = vec![None; allocation.shape.workers as usize];
        Self::from_replay(job_id, spec, allocation, config, &boot, &workers, SimTime::ZERO)
    }

    /// Rebuilds a master after a crash (§6 master failover), resuming at
    /// `at` (crash time + restart window). What only the log knows comes
    /// from an event-log replay ([`JobControl::on_job`]): the data frontier
    /// resumes at the acked-sample watermark (in-flight shards at crash
    /// time re-train — the engine's bounded-rollback contract), on the last
    /// committed plan and PS layout, with window ids resuming past the
    /// last one. The pods are not the log's: the caller's worker pods are
    /// re-adopted as engine slots `0..workers.len()` (possibly none), each
    /// live when its ready time is `None` (it had joined) and starting until
    /// `Some(ready_at)` otherwise. Every incarnation starts with no window
    /// open, a fresh health ladder and a full relaunch budget (the budgets
    /// protect the *incarnation*, and the chaos plan's fault budget bounds
    /// incarnations).
    pub fn from_replay(
        job_id: u64,
        spec: TrainingJobSpec,
        allocation: ResourceAllocation,
        config: MasterConfig,
        control: &JobControl,
        workers: &[Option<SimTime>],
        at: SimTime,
    ) -> Self {
        let control = control.on_job(spec.batch_size, allocation.shape.ps).as_logged();
        let shards = ShardQueue::resume(spec.total_samples, control.samples_done, spec.sharding);
        let (partitions, ps_mem) = Self::ps_layout(&allocation, control.ps_count);
        let mut engine = PsTrainingEngine::from_checkpoint(
            EngineCheckpoint { spec, shards, at, exec: control.exec() },
            Vec::new(),
            partitions,
            ps_mem,
        );
        let pod = PodState::new(allocation.shape.worker_cpu);
        for ready in workers {
            match *ready {
                None => engine.add_worker(pod),
                Some(ready_at) => engine.start_worker(pod, ready_at),
            };
        }
        JobMaster {
            job_id,
            profiler: Profiler::new(256),
            engine,
            config,
            allocation,
            completed_at: None,
            scaling_count: 0,
            health: JobHealth::Healthy,
            budget: BudgetLedger::default(),
            last_ps_recovery: None,
            control,
            telemetry: Telemetry::default(),
            scratch: TickScratch::default(),
        }
    }

    /// Routes this master's (and its engine's) telemetry into `sink`, and
    /// lanes both onto the job's span track.
    pub fn set_telemetry(&mut self, sink: Telemetry) {
        self.engine.set_telemetry(sink.clone());
        self.engine.set_span_track(self.job_id);
        self.telemetry = sink;
    }

    /// The master's telemetry handle (clone to share).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// `alloc`'s PS side at `ps` pods: balanced partitions and the memory
    /// allocated to each.
    fn ps_layout(alloc: &ResourceAllocation, ps: u32) -> (Vec<PsPartition>, Vec<u64>) {
        let partitions = AsyncCostModel::balanced_partitions(ps, alloc.shape.ps_cpu);
        (partitions, vec![(alloc.ps_mem_gb * 1e9) as u64; ps as usize])
    }

    /// The engine (read access for drivers and tests).
    pub fn engine(&self) -> &PsTrainingEngine {
        &self.engine
    }

    /// Mutable engine access for fault/straggler injection by experiment
    /// drivers.
    pub fn engine_mut(&mut self) -> &mut PsTrainingEngine {
        &mut self.engine
    }

    /// Current allocation.
    pub fn allocation(&self) -> ResourceAllocation {
        self.allocation
    }

    /// Number of scaling operations performed so far.
    pub fn scaling_count(&self) -> u32 {
        self.scaling_count
    }

    /// Completion time, once finished.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }

    /// Current position on the Healthy → Degraded → Failed ladder.
    pub fn health(&self) -> JobHealth {
        self.health
    }

    /// The job's control state as a replay of its log so far recovers it:
    /// the engine's watermark and PS count, the committed plan, and an open
    /// window read as not yet opened.
    pub fn control(&self) -> JobControl {
        let mut control = self.control.as_logged();
        control.samples_done = self.engine.completed_samples();
        control.ps_count = self.engine.partitions().len() as u32;
        control
    }

    /// The one migration hand-off (§5.2): prices moving the job's
    /// parameters through the checkpoint tiers under `strategy` — seamless
    /// rides `StorageTier::FLASH` with `startup` overlapped, stop-and-restart
    /// round-trips `StorageTier::RDS` with `startup` on the critical path —
    /// records the move's span(s) and returns the pause the caller must
    /// charge to the engine. `flat` is the category of the single span an
    /// in-place move (same pods, new layout or plan) records over its pause;
    /// `None` records the whole timeline, whose `save` / `load` segments are
    /// the hand-off's checkpoint. No checkpoint is recorded: the driver's
    /// checkpoint plane holds the only ones a restore can read.
    ///
    /// Reshaping and pausing the engine stay with the caller: stop-and-restart
    /// pauses before it reshapes, every other move after.
    fn hand_off(
        &self,
        strategy: MigrationStrategy,
        startup: SimDuration,
        label: &str,
        flat: Option<SpanCategory>,
    ) -> SimDuration {
        let timeline = plan_ps_migration(strategy, self.engine.checkpoint_extent().bytes, startup);
        let pause = timeline.pause();
        let Some(mut sink) = self.telemetry.batch() else { return pause };
        match flat {
            Some(category) => {
                let now = self.engine.now();
                sink.spans.complete(now, now + pause, category, label, self.job_id, None);
            }
            None => self.record_migration_spans(&mut sink, &timeline, label),
        }
        pause
    }

    /// Records a migration plan as spans: one `migration` parent over the
    /// whole timeline and one child per segment, laid sequentially from
    /// `now` (the timeline executes in order — §5.2 Fig. 10's structure).
    fn record_migration_spans(&self, sink: &mut Sink, timeline: &MigrationTimeline, label: &str) {
        let start = self.engine.now();
        let parent = sink.spans.complete(
            start,
            start + timeline.total(),
            SpanCategory::Migration,
            label,
            self.job_id,
            None,
        );
        let mut t = start;
        for (seg, dur) in &timeline.segments {
            let (cat, seg_label) = match seg {
                TimelineSegment::Overlapped => (SpanCategory::Migration, "overlap"),
                TimelineSegment::Degraded => (SpanCategory::Migration, "degraded"),
                TimelineSegment::PauseSave => (SpanCategory::Checkpoint, "save"),
                TimelineSegment::PauseInit => (SpanCategory::PodStartup, "init"),
                TimelineSegment::PauseLoad => (SpanCategory::Checkpoint, "load"),
                TimelineSegment::PauseData => (SpanCategory::Rebalance, "data"),
            };
            let end = t + *dur;
            sink.spans.complete(t, end, cat, seg_label, self.job_id, Some(parent));
            t = end;
        }
    }

    /// The profile snapshot a policy consumes.
    pub fn profile(&self) -> JobRuntimeProfile {
        let used: u64 = self.engine.ps_memory_used().sum();
        let alloc: u64 = self.engine.ps_memory_alloc().iter().sum();
        let (observation, throughput) = self.engine.observation_and_throughput();
        JobRuntimeProfile {
            job_id: self.job_id,
            at: self.engine.now(),
            throughput,
            remaining_samples: self.engine.remaining_samples(),
            observation,
            ps_memory_used: used,
            ps_memory_alloc: alloc,
            exec: *self.engine.exec_plan(),
            degraded: self.health != JobHealth::Healthy,
        }
    }

    /// Advances the job by `dt`, profiling and handling instability.
    pub fn tick(&mut self, dt: SimDuration) -> Vec<MasterEvent> {
        let mut events = Vec::new();
        if self.completed_at.is_some() || self.engine.is_oomed() || self.health == JobHealth::Failed
        {
            return events; // terminal: nothing to do
        }

        let progress = self.engine.advance(dt);

        // Commit an in-flight reconfig window once its transition pause has
        // been fully consumed: the new plan survived the migration, so it
        // becomes the job's committed layout (exactly-once per window).
        if let Some((window, pause)) = self.control.commit(self.engine.now()) {
            if let Some(mut sink) = self.telemetry.batch() {
                let target = self.control.exec();
                sink.record(
                    self.engine.now(),
                    EventKind::ReconfigApplied {
                        job: self.job_id,
                        window,
                        mode: target.gradient_mode.label().to_string(),
                        batch: target.effective_batch(self.engine.spec().batch_size),
                        replicas: target.ps_replicas,
                        shards: self.engine.partitions().len() as u32,
                        samples_done: self.engine.completed_samples(),
                        pause_us: pause.as_micros(),
                    },
                );
                sink.metrics.count("master.reconfigs_committed", 1);
            }
        }

        // Profile: the pause-blind throughput sets the OOM horizon below.
        let (_, mut thp) = self.engine.observation_and_throughput();
        let TickScratch { ps_used: used, silent } = &mut self.scratch;
        used.clear();
        used.extend(self.engine.ps_memory_used());
        self.profiler.record_memory(self.engine.now(), used.iter().sum());

        if let Some(ps) = progress.oom_ps {
            events.push(MasterEvent::Oomed(ps));
            return events;
        }
        if progress.completed && self.completed_at.is_none() {
            self.completed_at = Some(self.engine.now());
            events.push(MasterEvent::Completed(self.engine.now()));
            self.telemetry.record(self.engine.now(), EventKind::JobCompleted { job: self.job_id });
            return events;
        }

        // §6.1 liveness: a worker whose heartbeat went stale is a zombie —
        // its pod is up but training is stuck. Fail it (the shard queue
        // re-queues its in-flight shard in full, preserving exactly-once)
        // and surface the event; the driver requests the replacement pod
        // exactly as for a crashed worker.
        silent.clear();
        silent.extend(self.engine.silent_workers(self.config.silent_worker_timeout));
        for &idx in silent.iter() {
            self.engine.fail_worker(idx);
            if let Some(mut sink) = self.telemetry.batch() {
                sink.record(
                    self.engine.now(),
                    EventKind::SilentWorkerDetected { job: self.job_id, worker: idx as u64 },
                );
                sink.metrics.count("master.silent_workers", 1);
            }
            events.push(MasterEvent::SilentWorker(idx));
        }
        if !silent.is_empty() {
            // A failed worker's in-flight shard is re-queued in full, which
            // lowers `samples_done` and the embedding memory that grows
            // with it, and the gang is smaller: the profiled readings above
            // no longer hold.
            used.clear();
            used.extend(self.engine.ps_memory_used());
            thp = self.engine.throughput();
        }

        // OOM prevention (§5.3). The engine OOMs *per PS* (used_i >
        // alloc_i), so the forecast must use the binding constraint: scale
        // the total capacity down by the worst per-PS headroom ratio. With
        // even allocations and a skewed partition, one PS hits its wall
        // long before the total does — forecasting against the raw total
        // would sleep through exactly the skewed case.
        let alloc = self.engine.ps_memory_alloc();
        let used_total: u64 = used.iter().sum();
        let effective_capacity = used
            .iter()
            .zip(alloc)
            .filter(|(&u, _)| u > 0)
            .map(|(&u, &a)| {
                // Total memory at the moment PS i hits its own limit,
                // assuming shares stay fixed as memory grows.
                a as f64 / (u as f64 / used_total.max(1) as f64)
            })
            .fold(f64::INFINITY, f64::min);
        let effective_capacity = if effective_capacity.is_finite() {
            effective_capacity
        } else {
            alloc.iter().sum::<u64>() as f64
        };
        if thp > 0.0 {
            let remaining_time = self.engine.remaining_samples() as f64 / thp;
            let horizon = remaining_time * OOM_HORIZON_FACTOR;
            if let Some(forecast) = self.profiler.memory().forecast(effective_capacity, horizon) {
                if forecast.will_oom() {
                    let required = forecast.required_capacity(OOM_HEADROOM) as u64;
                    let (at, job) = (self.engine.now(), self.job_id);
                    if self.config.auto_memory_scaling {
                        self.scale_ps_memory(required);
                        if let Some(mut sink) = self.telemetry.batch() {
                            sink.record(
                                at,
                                EventKind::OomPrevented { job, new_alloc_bytes: required },
                            );
                            sink.metrics.count("master.ooms_prevented", 1);
                        }
                    } else {
                        events.push(MasterEvent::OomPredicted { required_bytes: required });
                        let predicted = EventKind::OomPredicted { job, required_bytes: required };
                        self.telemetry.record(at, predicted);
                    }
                }
            }
        }

        // Hot-PS detection and seamless mitigation (§4.3, §5.2).
        if let Some(ps) = self.detect_hot_ps() {
            if self.config.auto_ps_rebalance {
                self.rebalance_hot_ps();
                if let Some(mut sink) = self.telemetry.batch() {
                    sink.record(
                        self.engine.now(),
                        EventKind::HotPsMitigated { job: self.job_id, ps: ps as u64 },
                    );
                    sink.metrics.count("master.hot_ps_mitigations", 1);
                }
            } else {
                events.push(MasterEvent::HotPsDetected { ps });
                self.telemetry.record(
                    self.engine.now(),
                    EventKind::HotPsDetected { job: self.job_id, ps: ps as u64 },
                );
            }
        }
        events
    }

    /// Detects a hot PS: a partition whose load per effective capacity
    /// exceeds the mean by [`HOT_PS_FACTOR`] (tensor skew or a slow pod).
    fn detect_hot_ps(&self) -> Option<usize> {
        let parts = self.engine.partitions();
        if parts.len() < 2 {
            return None;
        }
        let ratios = || parts.iter().map(|p| p.share.max(1e-9) / p.pod.effective_cpu());
        let mean = ratios().sum::<f64>() / parts.len() as f64;
        ratios().position(|r| r > mean * HOT_PS_FACTOR)
    }

    /// Seamless hot-PS mitigation: rebalance parameter shares evenly onto
    /// the *healthy* pod capacity (the DeepRec move), paying only the
    /// flash-checkpoint handoff. The hot pod keeps a share proportional to
    /// what it can actually serve.
    fn rebalance_hot_ps(&mut self) {
        let parts = self.engine.partitions().to_vec();
        let total_cap: f64 = parts.iter().map(|p| p.pod.effective_cpu()).sum();
        if total_cap <= 0.0 {
            return;
        }
        let rebalanced: Vec<PsPartition> = parts
            .iter()
            .map(|p| PsPartition { share: p.pod.effective_cpu() / total_cap, pod: p.pod })
            .collect();
        let mem = self.engine.ps_memory_alloc().to_vec();
        let pause = self.hand_off(
            MigrationStrategy::Seamless,
            SimDuration::ZERO,
            "hot-ps",
            Some(SpanCategory::Rebalance),
        );
        self.engine.reshape_ps(rebalanced, mem);
        self.engine.pause(pause);
        self.scaling_count += 1;
    }

    /// Pre-scales total PS memory to `required_bytes`, apportioned by each
    /// PS's *current usage share* (a skewed partition needs its memory where
    /// the parameters actually live), using a seamless (flash-checkpoint)
    /// PS migration.
    fn scale_ps_memory(&mut self, required_bytes: u64) {
        let used: Vec<u64> = self.engine.ps_memory_used().collect();
        let used_total: u64 = used.iter().sum::<u64>().max(1);
        let p = self.engine.partitions().len().max(1);
        let per_ps: Vec<u64> = used
            .iter()
            .map(|&u| {
                // Share-proportional, with an even-split floor for PSes
                // that have not materialised parameters yet.
                let share = (u as f64 / used_total as f64).max(0.2 / p as f64);
                (required_bytes as f64 * share) as u64 + 1
            })
            .collect();
        let partitions = self.engine.partitions().to_vec();
        let pause = self.hand_off(
            MigrationStrategy::Seamless,
            SimDuration::ZERO,
            "mem-prescale",
            Some(SpanCategory::Migration),
        );
        let max_gb = per_ps.iter().copied().max().unwrap_or(0) as f64 / 1e9;
        self.engine.reshape_ps(partitions, per_ps);
        self.engine.pause(pause);
        self.allocation.ps_mem_gb = max_gb;
        self.scaling_count += 1;
    }

    /// Requests a replacement for a failed worker: opens an engine slot for a
    /// fresh pod of the allocation's worker shape, starting for `startup` (the
    /// sampled pod preparation latency), and returns it — the master's half
    /// of the §6 recovery loop (dynamic sharding, §6.1, already requeued the
    /// dead worker's shard). Refuses (`None`) when the job already holds its
    /// worker target, so a duplicate failure report cannot balloon the job,
    /// and when the relaunch budget is drained: the job degrades instead.
    pub fn replace_failed_worker(&mut self, startup: SimDuration) -> Option<usize> {
        if self.held_workers().count() >= self.allocation.shape.workers as usize {
            self.telemetry.count("master.duplicate_replacements_ignored", 1);
            return None;
        }
        if !self.budget.try_worker(&self.config.failure_budget) {
            self.degrade_to_live_shape();
            return None;
        }
        let pod = PodState::new(self.allocation.shape.worker_cpu);
        let slot = self.engine.start_worker(pod, self.engine.now() + startup);
        self.telemetry.count("master.worker_replacements", 1);
        Some(slot)
    }

    /// Degraded mode (§6): adopt the best *feasible* plan — the shape the
    /// job actually holds — as the new target and record it. Training
    /// continues on the surviving workers; goodput retained this way is
    /// what the resilience experiment compares against fail-stop.
    fn degrade_to_live_shape(&mut self) {
        // Degraded jobs hold their shape (§6): a plan change in flight is
        // abandoned, not committed on a job that just lost its budget.
        self.abort_reconfig_if_pending("degraded");
        let feasible = self.held_workers().count().max(1) as u32;
        self.allocation.shape.workers = feasible;
        self.health.escalate(JobHealth::Degraded);
        self.telemetry.record(
            self.engine.now(),
            EventKind::JobDegraded {
                job: self.job_id,
                workers: feasible,
                ps: self.engine.partitions().len() as u32,
            },
        );
        self.telemetry.count("master.degradations", 1);
    }

    /// Records that a scale-out or replacement request was *conclusively*
    /// denied — the retry policy exhausted its attempts (denial storm,
    /// sustained contention). The master falls back to the best feasible
    /// plan instead of retrying forever; returns the resulting health.
    pub fn record_scale_denial(&mut self) -> JobHealth {
        self.degrade_to_live_shape();
        self.health
    }

    /// Recovers from a parameter-server pod failure mid-run via the
    /// seamless path (§6.2): flash-checkpoint handoff to a fresh pod at
    /// the same partition index, with the sub-second pause of Fig. 10
    /// rather than a stop-and-restart round trip. `startup` is the new
    /// pod's preparation latency (overlapped with degraded training in the
    /// timeline). No-op for an out-of-range index.
    ///
    /// Idempotent under duplicate delivery: a second report for the same
    /// PS at the same engine instant is the same failure (at-least-once
    /// event transport), not a new one, and is dropped. PS relaunches are
    /// bounded by the failure budget; since a job cannot train without
    /// its parameter shards, a drained PS budget is terminal
    /// ([`JobHealth::Failed`]).
    pub fn handle_ps_failure(&mut self, ps: usize, startup: SimDuration) {
        let mut partitions = self.engine.partitions().to_vec();
        let Some(slot) = partitions.get_mut(ps) else { return };
        if self.last_ps_recovery == Some((ps, self.engine.now())) {
            self.telemetry.count("master.duplicate_ps_failures_ignored", 1);
            return;
        }
        if !self.budget.try_ps(&self.config.failure_budget) {
            self.abort_reconfig_if_pending("job-failed");
            self.health.escalate(JobHealth::Failed);
            self.telemetry.count("master.jobs_failed", 1);
            return;
        }
        slot.pod = PodState::new(self.allocation.shape.ps_cpu);
        let mem = self.engine.ps_memory_alloc().to_vec();
        let pause = self.hand_off(MigrationStrategy::Seamless, startup, "ps-failure", None);
        // The replacement pod lands on a fresh node: whatever interference
        // was pressing on the dead pod does not follow it.
        self.engine.set_ps_mem_pressure(ps, 0);
        self.engine.reshape_ps(partitions, mem);
        self.engine.pause(pause);
        self.last_ps_recovery = Some((ps, self.engine.now()));
        self.telemetry.count("master.ps_recoveries", 1);
    }

    /// Worker slots still starting (replacements and scale-outs in their
    /// startup window).
    pub fn pending_worker_count(&self) -> usize {
        self.held_workers().filter(|&i| self.is_starting(i)).count()
    }

    /// Applies a policy decision: reshapes workers and PSes with the
    /// decision's migration strategy. `startup` is the sampled pod startup
    /// latency for any *new* pods.
    ///
    /// Memory safety overrides the policy: a decision computed from a
    /// stale view must not shrink PS memory below what the embedding
    /// tables already occupy (plus headroom), or the job would OOM the
    /// moment the plan lands — the master clamps the target up to the
    /// live requirement before applying it.
    pub fn apply_decision(&mut self, decision: PolicyDecision, startup: SimDuration) {
        let strategy = decision.strategy;
        let seamless = match strategy {
            // "No intervention" means exactly that: the decision is
            // advisory and nothing is reshaped, counted, or committed.
            MigrationStrategy::NoIntervention => return,
            MigrationStrategy::StopAndRestart => false,
            MigrationStrategy::Seamless => true,
        };
        // Reconfiguration rides the seamless path only.
        let reconfig = decision.reconfig.filter(|_| seamless);
        let mut target = decision.allocation;
        let used_per_ps = self.engine.ps_memory_used().max().unwrap_or(0) as f64;
        let floor_gb = used_per_ps * (1.0 + OOM_HEADROOM) / 1e9;
        if target.ps_mem_gb < floor_gb {
            target.ps_mem_gb = floor_gb;
        }
        let cur = self.allocation;
        let ps_changed = target.shape.ps != cur.shape.ps
            || (target.shape.ps_cpu - cur.shape.ps_cpu).abs() > 1e-9
            || (target.ps_mem_gb - cur.ps_mem_gb).abs() > 1e-9;
        let workers_changed = target.shape.workers != cur.shape.workers
            || (target.shape.worker_cpu - cur.shape.worker_cpu).abs() > 1e-9;

        if ps_changed || workers_changed {
            self.scaling_count += 1;
            self.telemetry.record(
                self.engine.now(),
                EventKind::ScalingPlanApplied {
                    job: self.job_id,
                    workers: target.shape.workers,
                    ps: target.shape.ps,
                    strategy: migration_kind(strategy),
                },
            );
            self.telemetry.count("master.scaling_ops", 1);

            if seamless {
                // Workers: removals immediate (shards hand back), additions
                // wait out their startup while training continues.
                self.resize_workers(&target, startup);
                if ps_changed {
                    let pause = self.hand_off(strategy, startup, "seamless", None);
                    self.reshape_ps_now(&target);
                    self.engine.pause(pause);
                }
            } else {
                // The whole job pauses: checkpoint → redeploy → restore.
                let pause = self.hand_off(strategy, startup, "stop-and-restart", None);
                self.engine.pause(pause);
                self.resize_workers(&target, SimDuration::ZERO);
                if ps_changed {
                    self.reshape_ps_now(&target);
                }
            }
            self.allocation = target;
        }
        if let Some(req) = reconfig {
            self.begin_reconfig(req);
        }
    }

    /// Opens a reconfiguration window (Rubick-style execution-plan change,
    /// priced by the optimizer, executed through the seamless-migration
    /// path of §5.2): flash-checkpoint, optional LPT shard relayout, switch
    /// the engine's plan, charge the transition pause. The window *commits*
    /// (emits `ReconfigApplied`) on the first tick past the pause; a fault
    /// before that rolls it back via [`Self::abort_reconfig_if_pending`].
    /// Degraded jobs hold their shape (§6) — the request is dropped.
    fn begin_reconfig(&mut self, req: ReconfigRequest) {
        let target = req.target.normalised(self.engine.spec().batch_size);
        let open = matches!(self.control.window(), Window::Open { .. });
        let unchanged = target == self.control.exec() && !req.relayout;
        if self.health != JobHealth::Healthy || open || unchanged {
            return;
        }
        let pause = self.hand_off(
            MigrationStrategy::Seamless,
            SimDuration::ZERO,
            "reconfig",
            Some(SpanCategory::Migration),
        );
        let now = self.engine.now();
        if req.relayout {
            self.relayout_shards();
        }
        self.engine.set_exec_plan(target);
        self.engine.pause(pause);
        self.scaling_count += 1;
        self.control.open(target, now + pause, pause);
        self.telemetry.count("master.reconfigs_started", 1);
    }

    /// Rolls back an in-flight reconfiguration window, if any: the engine
    /// reverts to the committed plan and the window resolves as
    /// `ReconfigRolledBack` (exactly once — the oracle's window invariant).
    /// Call sites are the fault paths: a worker/PS/master fault landing
    /// inside the window must not leave a half-applied plan behind.
    pub fn abort_reconfig_if_pending(&mut self, reason: &str) {
        let Some(window) = self.control.roll_back() else { return };
        self.engine.set_exec_plan(self.control.exec());
        self.telemetry.record(
            self.engine.now(),
            EventKind::ReconfigRolledBack {
                job: self.job_id,
                window,
                reason: reason.to_string(),
                samples_done: self.engine.completed_samples(),
            },
        );
        self.telemetry.count("master.reconfigs_rolled_back", 1);
    }

    /// Embedding-shard relayout (`RelayoutShards`): rebuild the DLRM block
    /// set at the current embedding footprint, LPT-balance it across the
    /// live PS pods and adopt the resulting partitions — the same
    /// rebalancing primitive the hot-PS path uses, triggered here by the
    /// optimizer instead of a detector.
    fn relayout_shards(&mut self) {
        let parts = self.engine.partitions().to_vec();
        if parts.len() < 2 {
            return;
        }
        let bytes = self.engine.checkpoint_extent().bytes;
        let blocks = dlrover_pstrain::dlrm_blocks(26, bytes, bytes / 16);
        let assignment = dlrover_pstrain::balance_blocks(&blocks, parts.len());
        let pods: Vec<PodState> = parts.iter().map(|p| p.pod).collect();
        let rebalanced = dlrover_pstrain::partitions_from_assignment(&blocks, &assignment, &pods);
        let mem = self.engine.ps_memory_alloc().to_vec();
        self.engine.reshape_ps(rebalanced, mem);
    }

    fn reshape_ps_now(&mut self, target: &ResourceAllocation) {
        let (partitions, ps_mem) = Self::ps_layout(target, target.shape.ps);
        self.engine.reshape_ps(partitions, ps_mem);
    }

    fn resize_workers(&mut self, target: &ResourceAllocation, startup: SimDuration) {
        let want = target.shape.workers as usize;
        let pod = PodState::new(target.shape.worker_cpu);
        // Live workers first and starting ones after, each in slot order, so
        // a shrink drops the latest requests first.
        let mut held: Vec<usize> = self.held_workers().collect();
        held.sort_by_key(|&i| self.is_starting(i));

        // Vertical change applies to every live worker and to workers
        // still waiting out their startup (they must come up at the new
        // size, not the one from the decision that created them).
        for &i in &held {
            self.engine.set_worker_pod(i, pod);
        }
        let ready_at = self.engine.now() + startup;
        for _ in held.len()..want {
            if startup.is_zero() {
                self.engine.add_worker(pod);
            } else {
                self.engine.start_worker(pod, ready_at);
            }
        }
        for &i in held.iter().rev().take(held.len().saturating_sub(want)) {
            self.engine.remove_worker(i);
        }
    }

    fn is_starting(&self, slot: usize) -> bool {
        matches!(self.engine.worker_state(slot), WorkerState::Starting { .. })
    }

    /// Engine slots of the workers the job holds: up (a hung worker counts
    /// until the silent-worker detector fails it) or starting. Slots are
    /// numbered in request order and keep their index once gone.
    fn held_workers(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.engine.worker_slot_count())
            .filter(|&i| self.engine.worker_state(i) != WorkerState::Gone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrover_perfmodel::JobShape;

    fn alloc(w: u32, p: u32, cpu: f64, ps_mem_gb: f64) -> ResourceAllocation {
        ResourceAllocation::new(JobShape::new(w, p, cpu, cpu, 512), cpu * 4.0, ps_mem_gb)
    }

    fn master(steps: u64, w: u32, p: u32, cpu: f64) -> JobMaster {
        JobMaster::new(
            1,
            TrainingJobSpec::paper_default(steps),
            alloc(w, p, cpu, 256.0),
            MasterConfig::default(),
        )
    }

    const DT: SimDuration = SimDuration::from_secs(30);

    fn run_to_end(m: &mut JobMaster, max_ticks: usize) -> Option<SimTime> {
        for _ in 0..max_ticks {
            for e in m.tick(DT) {
                match e {
                    MasterEvent::Completed(t) => return Some(t),
                    MasterEvent::Oomed(_) => return None,
                    _ => {}
                }
            }
        }
        None
    }

    #[test]
    fn replaced_worker_joins_after_startup_and_job_finishes() {
        let mut m = master(20_000, 4, 2, 8.0);
        m.tick(DT);
        m.engine_mut().fail_worker(0);
        m.replace_failed_worker(SimDuration::from_secs(90));
        assert_eq!(m.pending_worker_count(), 1);
        assert_eq!(m.engine().live_pods().count(), 3);
        // The replacement sits out its startup window, then joins on the
        // first tick at or past ready time.
        let mut joined_at_tick = None;
        for i in 0..10 {
            m.tick(DT);
            if m.pending_worker_count() == 0 {
                joined_at_tick = Some(i);
                break;
            }
            assert_eq!(m.engine().live_pods().count(), 3, "early join at tick {i}");
        }
        let joined = joined_at_tick.expect("replacement joined");
        assert!(joined >= 2, "90s startup must span at least three 30s ticks");
        assert_eq!(m.engine().live_pods().count(), 4);
        run_to_end(&mut m, 100_000).expect("completes");
        assert_eq!(m.engine().samples_done(), m.engine().spec().total_samples);
    }

    #[test]
    fn ps_failure_recovers_via_seamless_flash_restore() {
        let mut m = master(20_000, 4, 2, 8.0);
        m.set_telemetry(Telemetry::default());
        for _ in 0..4 {
            m.tick(DT);
        }
        assert!(m.completed_at().is_none(), "job must still be mid-flight");
        let before = m.engine().partitions().len();
        m.handle_ps_failure(0, SimDuration::from_secs(120));
        // Same layout, fresh pod, sub-second flash pause: the engine is
        // paused but not reshaped away.
        assert_eq!(m.engine().partitions().len(), before);
        assert_eq!(m.engine().throughput(), 0.0, "paused during flash handoff");
        let snap = m.telemetry().snapshot();
        assert_eq!(snap.events.iter().filter(|e| e.kind.name() == "PsReshaped").count(), 1);
        let save = snap.spans.iter().any(|s| &*s.label == "save");
        assert!(save, "the timeline saves to the flash tier");
        assert_eq!(m.telemetry().counter("master.ps_recoveries"), 1);
        // Out-of-range index is a no-op.
        m.handle_ps_failure(99, SimDuration::from_secs(1));
        run_to_end(&mut m, 100_000).expect("completes after PS loss");
        assert_eq!(m.engine().samples_done(), m.engine().spec().total_samples);
    }

    #[test]
    fn job_completes_and_reports_once() {
        let mut m = master(300, 4, 2, 8.0);
        let t = run_to_end(&mut m, 100_000).expect("completes");
        assert_eq!(m.completed_at(), Some(t));
        // Further ticks produce no duplicate completion.
        assert!(m.tick(DT).is_empty());
    }

    fn reconfig_decision(
        a: ResourceAllocation,
        target: dlrover_perfmodel::ExecPlan,
        relayout: bool,
    ) -> PolicyDecision {
        PolicyDecision {
            allocation: a,
            strategy: MigrationStrategy::Seamless,
            reconfig: Some(ReconfigRequest { target, relayout }),
        }
    }

    fn sync_plan() -> dlrover_perfmodel::ExecPlan {
        dlrover_perfmodel::ExecPlan {
            gradient_mode: dlrover_perfmodel::GradientMode::Sync,
            ps_replicas: 2,
            batch_size: 0,
        }
    }

    #[test]
    fn reconfig_window_commits_exactly_once() {
        let mut m = master(20_000, 4, 2, 8.0);
        m.set_telemetry(Telemetry::default());
        m.tick(DT);
        // A reconfig-only decision (no resource change) must still open a
        // window: the action space is wider than resource amounts.
        m.apply_decision(reconfig_decision(alloc(4, 2, 8.0, 256.0), sync_plan(), false), DT);
        assert_eq!(*m.engine().exec_plan(), sync_plan(), "engine switches inside the window");
        for _ in 0..4 {
            m.tick(DT);
        }
        let events = m.telemetry().snapshot().events;
        let applied: Vec<_> =
            events.iter().filter(|e| e.kind.name() == "ReconfigApplied").collect();
        assert_eq!(applied.len(), 1, "a window commits exactly once");
        if let EventKind::ReconfigApplied { window, mode, replicas, samples_done, .. } =
            &applied[0].kind
        {
            assert_eq!(*window, 0, "first window id");
            assert_eq!(mode, "sync");
            assert_eq!(*replicas, 2);
            assert!(*samples_done > 0, "commit records the acked watermark");
        }
        assert_eq!(m.telemetry().counter("master.reconfigs_started"), 1);
        assert_eq!(m.telemetry().counter("master.reconfigs_committed"), 1);
        assert_eq!(m.telemetry().counter("master.reconfigs_rolled_back"), 0);
        run_to_end(&mut m, 100_000).expect("completes under the new plan");
        assert_eq!(m.engine().samples_done(), m.engine().spec().total_samples);
    }

    #[test]
    fn fault_inside_window_rolls_back_exactly_once() {
        let mut m = master(20_000, 4, 2, 8.0);
        m.set_telemetry(Telemetry::default());
        m.tick(DT);
        let prev = *m.engine().exec_plan();
        m.apply_decision(reconfig_decision(alloc(4, 2, 8.0, 256.0), sync_plan(), false), DT);
        // A conclusive denial lands inside the window, before the commit
        // tick: the job degrades and the half-applied plan must unwind.
        m.record_scale_denial();
        assert_eq!(*m.engine().exec_plan(), prev, "rollback restores the committed plan");
        for _ in 0..4 {
            m.tick(DT);
        }
        let events = m.telemetry().snapshot().events;
        assert_eq!(events.iter().filter(|e| e.kind.name() == "ReconfigApplied").count(), 0);
        let rolled: Vec<_> =
            events.iter().filter(|e| e.kind.name() == "ReconfigRolledBack").collect();
        assert_eq!(rolled.len(), 1, "a window rolls back exactly once");
        if let EventKind::ReconfigRolledBack { window, reason, .. } = &rolled[0].kind {
            assert_eq!(*window, 0);
            assert_eq!(reason, "degraded");
        }
        // A second abort is a no-op: the window is already settled.
        m.abort_reconfig_if_pending("again");
        assert_eq!(m.telemetry().counter("master.reconfigs_rolled_back"), 1);
        run_to_end(&mut m, 100_000).expect("completes after the rollback");
        assert_eq!(m.engine().samples_done(), m.engine().spec().total_samples);
    }

    #[test]
    fn degraded_job_drops_reconfig_requests() {
        let mut m = master(20_000, 4, 2, 8.0);
        m.set_telemetry(Telemetry::default());
        m.tick(DT);
        m.record_scale_denial();
        assert!(m.profile().degraded, "profile must advertise the degraded state");
        m.apply_decision(reconfig_decision(alloc(4, 2, 8.0, 256.0), sync_plan(), false), DT);
        assert_eq!(
            *m.engine().exec_plan(),
            dlrover_perfmodel::ExecPlan::default(),
            "degraded jobs hold their shape: the request is dropped"
        );
        assert_eq!(m.telemetry().counter("master.reconfigs_started"), 0);
    }

    #[test]
    fn relayout_rides_the_reconfig_window() {
        let mut m = master(20_000, 4, 3, 8.0);
        m.set_telemetry(Telemetry::default());
        m.tick(DT);
        let parts_before = m.engine().partitions().len();
        // Relayout with an unchanged plan is still an action: it opens a
        // window of its own.
        m.apply_decision(
            reconfig_decision(
                alloc(4, 3, 8.0, 256.0),
                dlrover_perfmodel::ExecPlan::default(),
                true,
            ),
            DT,
        );
        assert_eq!(m.telemetry().counter("master.reconfigs_started"), 1);
        assert_eq!(m.engine().partitions().len(), parts_before, "relayout keeps the PS count");
        for _ in 0..4 {
            m.tick(DT);
        }
        assert_eq!(m.telemetry().counter("master.reconfigs_committed"), 1);
        run_to_end(&mut m, 100_000).expect("completes after the relayout");
        assert_eq!(m.engine().samples_done(), m.engine().spec().total_samples);
    }

    #[test]
    fn profile_reflects_engine() {
        let mut m = master(5_000, 4, 2, 8.0);
        m.tick(DT);
        let p = m.profile();
        assert_eq!(p.job_id, 1);
        assert!(p.throughput > 0.0);
        assert!(p.remaining_samples < 5_000 * 512);
        assert!(p.observation.is_some());
        assert!(p.ps_memory_alloc > 0);
    }

    #[test]
    fn scale_out_decision_accelerates_job() {
        let steps = 3_000;
        let mut slow = master(steps, 2, 2, 4.0);
        let jct_slow = run_to_end(&mut slow, 100_000).unwrap();

        let mut scaled = master(steps, 2, 2, 4.0);
        scaled.tick(DT);
        scaled.apply_decision(
            PolicyDecision {
                allocation: alloc(8, 4, 16.0, 256.0),
                strategy: MigrationStrategy::Seamless,
                reconfig: None,
            },
            SimDuration::from_secs(60),
        );
        let jct_scaled = run_to_end(&mut scaled, 100_000).unwrap();
        assert!(jct_scaled < jct_slow, "{jct_scaled} !< {jct_slow}");
        assert_eq!(scaled.scaling_count(), 1);
    }

    #[test]
    fn seamless_beats_stop_and_restart_for_same_target() {
        let steps = 3_000;
        let startup = SimDuration::from_mins(6);
        let target = alloc(8, 4, 16.0, 256.0);
        let mut seamless = master(steps, 2, 2, 4.0);
        seamless.tick(DT);
        seamless.apply_decision(
            PolicyDecision {
                allocation: target,
                strategy: MigrationStrategy::Seamless,
                reconfig: None,
            },
            startup,
        );
        let jct_seamless = run_to_end(&mut seamless, 100_000).unwrap();

        let mut restart = master(steps, 2, 2, 4.0);
        restart.tick(DT);
        restart.apply_decision(
            PolicyDecision {
                allocation: target,
                strategy: MigrationStrategy::StopAndRestart,
                reconfig: None,
            },
            startup,
        );
        let jct_restart = run_to_end(&mut restart, 100_000).unwrap();
        assert!(jct_seamless < jct_restart, "seamless {jct_seamless} !< restart {jct_restart}");
    }

    #[test]
    fn noop_decision_costs_nothing() {
        let mut m = master(1_000, 4, 2, 8.0);
        let current = m.allocation();
        m.apply_decision(
            PolicyDecision {
                allocation: current,
                strategy: MigrationStrategy::Seamless,
                reconfig: None,
            },
            SimDuration::from_secs(60),
        );
        assert_eq!(m.scaling_count(), 0);
    }

    #[test]
    fn scale_in_removes_workers() {
        let mut m = master(50_000, 8, 2, 8.0);
        m.tick(DT);
        m.apply_decision(
            PolicyDecision {
                allocation: alloc(3, 2, 8.0, 256.0),
                strategy: MigrationStrategy::Seamless,
                reconfig: None,
            },
            SimDuration::ZERO,
        );
        m.tick(DT);
        assert_eq!(m.engine().live_pods().count(), 3);
    }

    #[test]
    fn oom_prevention_saves_job_that_would_die() {
        // A job whose embedding growth overruns its PS memory. With
        // auto-scaling the master pre-scales and finishes; without it the
        // job OOMs — Table 4's mechanism in miniature.
        let mut spec = TrainingJobSpec::paper_default(20_000);
        spec.memory = dlrover_perfmodel::MemoryModel::new(1.0e9, 4096.0, 3.0e6, 2.0e6);
        let small_mem = alloc(4, 2, 8.0, 2.5); // 2.5 GB per PS

        let with = JobMaster::new(1, spec.clone(), small_mem, MasterConfig::default());
        let mut with = with;
        let ok = run_to_end(&mut with, 200_000);
        assert!(ok.is_some(), "auto memory scaling should save the job");
        assert!(with.scaling_count() >= 1);

        let mut without = JobMaster::new(
            2,
            spec,
            small_mem,
            MasterConfig { auto_memory_scaling: false, ..MasterConfig::default() },
        );
        let dead = run_to_end(&mut without, 200_000);
        assert!(dead.is_none(), "baseline should OOM");
    }

    #[test]
    fn oom_prevention_covers_skewed_partitions() {
        // Regression: with a skewed partition and even allocations, one PS
        // hits its per-PS wall while total used < total alloc. The forecast
        // must use the binding (per-PS) constraint and pre-scale in time.
        let mut spec = TrainingJobSpec::paper_default(50_000);
        spec.memory = dlrover_perfmodel::MemoryModel::new(1.0e9, 4096.0, 3.0e6, 2.0e6);
        let mut m = JobMaster::new(
            1,
            spec,
            alloc(4, 4, 8.0, 4.0), // 4 GB per PS, even
            MasterConfig { auto_ps_rebalance: false, ..MasterConfig::default() },
        );
        // Skew the parameter shares: PS 0 holds 55 % of the embedding.
        m.engine_mut().reshape_ps(
            dlrover_pstrain::AsyncCostModel::skewed_partitions(4, 8.0, 0.55),
            vec![4_000_000_000; 4],
        );
        let done = run_to_end(&mut m, 400_000);
        assert!(
            done.is_some(),
            "per-PS forecast should have pre-scaled before the skewed PS hit its wall"
        );
    }

    #[test]
    fn decisions_cannot_shrink_ps_memory_below_live_use() {
        // Regression: after OOM prevention pre-scales PS memory, a policy
        // decision computed from a stale allocation view must not push the
        // engine back under its live memory footprint.
        let mut spec = TrainingJobSpec::paper_default(50_000);
        spec.memory = dlrover_perfmodel::MemoryModel::new(1.0e9, 4096.0, 3.0e6, 2.0e6);
        let mut m = JobMaster::new(1, spec, alloc(4, 2, 8.0, 2.5), MasterConfig::default());
        // Run until prevention fires at least once.
        let prevented = (0..2_000).any(|_| {
            m.tick(DT);
            m.telemetry().counter("master.ooms_prevented") > 0
        });
        assert!(prevented, "test needs the prevention path");
        // A stale decision asks for the original tiny PS memory.
        m.apply_decision(
            PolicyDecision {
                allocation: alloc(6, 2, 8.0, 2.5),
                strategy: MigrationStrategy::Seamless,
                reconfig: None,
            },
            SimDuration::ZERO,
        );
        let used_max = m.engine().ps_memory_used().max().unwrap();
        let alloc_min = *m.engine().ps_memory_alloc().iter().min().unwrap();
        assert!(alloc_min > used_max, "clamp failed: alloc {alloc_min} <= used {used_max}");
        // And the job still completes rather than OOMing on the next tick.
        assert!(run_to_end(&mut m, 400_000).is_some());
    }

    #[test]
    fn hot_ps_is_mitigated_seamlessly() {
        // Inject the paper's 3 %-CPU PS; the master must detect it,
        // rebalance shares onto healthy capacity, and the job must finish
        // much faster than with mitigation disabled.
        let run = |auto: bool| -> Option<SimTime> {
            let mut m = JobMaster::new(
                1,
                TrainingJobSpec::paper_default(20_000),
                alloc(8, 4, 8.0, 256.0),
                MasterConfig { auto_ps_rebalance: auto, ..MasterConfig::default() },
            );
            m.tick(DT);
            m.engine_mut().set_ps_pod(0, PodState { cpu: 8.0, speed: 0.03 });
            run_to_end(&mut m, 200_000)
        };
        let with = run(true).expect("mitigated job finishes");
        let without = run(false).expect("unmitigated job still finishes, slowly");
        assert!(
            with < SimTime::from_secs(without.as_micros() / 1_000_000 / 2),
            "mitigation should at least halve the JCT: {with} vs {without}"
        );
    }

    #[test]
    fn hot_ps_event_is_reported_when_auto_disabled() {
        let mut m = JobMaster::new(
            1,
            TrainingJobSpec::paper_default(1_000_000),
            alloc(8, 4, 8.0, 256.0),
            MasterConfig { auto_ps_rebalance: false, ..MasterConfig::default() },
        );
        m.tick(DT);
        m.engine_mut().set_ps_pod(0, PodState { cpu: 8.0, speed: 0.03 });
        let mut saw = false;
        for _ in 0..10 {
            if m.tick(DT).iter().any(|e| matches!(e, MasterEvent::HotPsDetected { .. })) {
                saw = true;
                break;
            }
        }
        assert!(saw, "hot PS never reported");
    }

    #[test]
    fn healthy_job_triggers_no_hot_ps_events() {
        let mut m = master(20_000, 8, 4, 8.0);
        for _ in 0..50 {
            let detected =
                m.tick(DT).into_iter().any(|e| matches!(e, MasterEvent::HotPsDetected { .. }));
            assert!(!detected, "false positive hot-PS detection");
        }
        assert_eq!(m.telemetry().counter("master.hot_ps_mitigations"), 0, "false positive");
    }

    #[test]
    fn duplicate_worker_failure_delivery_is_idempotent() {
        let mut m = master(20_000, 4, 2, 8.0);
        m.set_telemetry(Telemetry::default());
        m.tick(DT);
        m.engine_mut().fail_worker(0);
        // The same failure report arrives three times (at-least-once
        // transport): only one replacement may be scheduled.
        for _ in 0..3 {
            m.replace_failed_worker(SimDuration::from_secs(90));
        }
        assert_eq!(m.pending_worker_count(), 1);
        assert_eq!(m.telemetry().counter("master.worker_replacements"), 1);
        assert_eq!(m.telemetry().counter("master.duplicate_replacements_ignored"), 2);
        run_to_end(&mut m, 100_000).expect("completes");
        assert_eq!(m.engine().samples_done(), m.engine().spec().total_samples);
    }

    #[test]
    fn duplicate_ps_failure_delivery_is_idempotent() {
        let mut m = master(20_000, 4, 2, 8.0);
        m.set_telemetry(Telemetry::default());
        for _ in 0..4 {
            m.tick(DT);
        }
        m.handle_ps_failure(0, SimDuration::from_secs(120));
        m.handle_ps_failure(0, SimDuration::from_secs(120)); // duplicate
        assert_eq!(m.telemetry().counter("master.ps_recoveries"), 1);
        assert_eq!(m.telemetry().counter("master.duplicate_ps_failures_ignored"), 1);
        // A *later* failure of the same PS index is a new failure.
        m.tick(DT);
        m.handle_ps_failure(0, SimDuration::from_secs(120));
        assert_eq!(m.telemetry().counter("master.ps_recoveries"), 2);
        run_to_end(&mut m, 100_000).expect("completes");
    }

    #[test]
    fn drained_worker_budget_degrades_instead_of_relaunching() {
        let cfg = MasterConfig {
            failure_budget: FailureBudget { worker_relaunches: 1, ps_relaunches: 8 },
            ..MasterConfig::default()
        };
        let mut m =
            JobMaster::new(1, TrainingJobSpec::paper_default(20_000), alloc(4, 2, 8.0, 256.0), cfg);
        m.set_telemetry(Telemetry::default());
        m.tick(DT);
        // First failure: budget covers the relaunch.
        m.engine_mut().fail_worker(0);
        m.replace_failed_worker(SimDuration::from_secs(60));
        assert_eq!(m.health(), JobHealth::Healthy);
        assert_eq!(m.pending_worker_count(), 1);
        for _ in 0..4 {
            m.tick(DT);
        }
        // Second failure: budget dry → degrade to the surviving shape.
        m.engine_mut().fail_worker(1);
        m.replace_failed_worker(SimDuration::from_secs(60));
        assert_eq!(m.health(), JobHealth::Degraded);
        assert_eq!(m.pending_worker_count(), 0, "no relaunch past the budget");
        assert_eq!(m.allocation().shape.workers, 3, "target shrunk to feasible");
        let events = m.telemetry().snapshot().events;
        assert!(
            events.iter().any(|e| matches!(e.kind, EventKind::JobDegraded { workers: 3, .. })),
            "degradation recorded"
        );
        // Degraded-mode goodput: the job still completes on 3 workers.
        run_to_end(&mut m, 100_000).expect("degraded job completes");
        assert_eq!(m.engine().samples_done(), m.engine().spec().total_samples);
    }

    #[test]
    fn drained_ps_budget_is_terminal() {
        let cfg = MasterConfig {
            failure_budget: FailureBudget { worker_relaunches: 12, ps_relaunches: 0 },
            ..MasterConfig::default()
        };
        let mut m =
            JobMaster::new(1, TrainingJobSpec::paper_default(20_000), alloc(4, 2, 8.0, 256.0), cfg);
        m.set_telemetry(Telemetry::default());
        m.tick(DT);
        m.handle_ps_failure(0, SimDuration::from_secs(60));
        assert_eq!(m.health(), JobHealth::Failed);
        assert_eq!(m.telemetry().counter("master.ps_recoveries"), 0);
        assert!(m.tick(DT).is_empty(), "failed job is terminal");
        assert!(m.completed_at().is_none());
    }

    #[test]
    fn scale_denial_falls_back_to_feasible_shape() {
        let mut m = master(20_000, 4, 2, 8.0);
        m.set_telemetry(Telemetry::default());
        m.tick(DT);
        m.engine_mut().fail_worker(0);
        // The cluster conclusively denied the replacement (retry policy
        // exhausted): the master adopts the 3-worker plan it can have.
        assert_eq!(m.record_scale_denial(), JobHealth::Degraded);
        assert_eq!(m.allocation().shape.workers, 3);
        // Denial-storm recovery must not relaunch behind the new target.
        m.replace_failed_worker(SimDuration::from_secs(60));
        assert_eq!(m.pending_worker_count(), 0, "feasible target already met");
        run_to_end(&mut m, 100_000).expect("completes degraded");
    }

    #[test]
    fn silent_worker_is_detected_failed_and_replaceable() {
        let cfg = MasterConfig {
            silent_worker_timeout: SimDuration::from_secs(60),
            ..MasterConfig::default()
        };
        let mut m =
            JobMaster::new(1, TrainingJobSpec::paper_default(20_000), alloc(4, 2, 8.0, 256.0), cfg);
        m.set_telemetry(Telemetry::default());
        m.tick(DT);
        m.engine_mut().hang_worker(2);
        // The zombie stops heartbeating; within a few ticks the master
        // fails it and surfaces SilentWorker.
        let mut detected = None;
        for _ in 0..10 {
            if let Some(MasterEvent::SilentWorker(idx)) =
                m.tick(DT).into_iter().find(|e| matches!(e, MasterEvent::SilentWorker(_)))
            {
                detected = Some(idx);
                break;
            }
        }
        assert_eq!(detected, Some(2));
        assert!(!m.engine().worker_is_alive(2), "zombie was failed");
        assert_eq!(m.telemetry().counter("master.silent_workers"), 1);
        // Driver-side replacement, then exactly-once completion.
        m.replace_failed_worker(SimDuration::from_secs(90));
        run_to_end(&mut m, 100_000).expect("completes");
        assert_eq!(m.engine().samples_done(), m.engine().spec().total_samples);
        // No further silent reports after the failure.
        let events = m.telemetry().snapshot().events;
        let silent = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SilentWorkerDetected { .. }))
            .count();
        assert_eq!(silent, 1);
    }

    #[test]
    fn failover_replay_resumes_at_the_acked_watermark() {
        let spec = TrainingJobSpec::paper_default(20_000);
        let sink = Telemetry::default();
        let mut m =
            JobMaster::new(7, spec.clone(), alloc(4, 2, 8.0, 256.0), MasterConfig::default());
        m.set_telemetry(sink.clone());
        for _ in 0..20 {
            m.tick(DT);
        }
        let crash_at = m.engine().now();
        assert!(m.completed_at().is_none(), "mid-flight crash");

        // The master process dies; a new incarnation replays the event log.
        let events = sink.snapshot().events;
        let replayed = JobControl::from_events(&events).expect("a master's own log is legal");
        assert!(replayed.samples_done > 0, "acked work visible in the log");
        assert_eq!(replayed.on_job(spec.batch_size, 2), m.control(), "replay vs live");
        let restart_at = crash_at + SimDuration::from_secs(120);
        let workers = vec![None; m.engine().live_pods().count()];
        let mut m2 = JobMaster::from_replay(
            7,
            spec,
            m.allocation(),
            MasterConfig::default(),
            &replayed,
            &workers,
            restart_at,
        );
        assert_eq!(m2.engine().now(), restart_at);
        assert_eq!(m2.engine().samples_done(), replayed.samples_done, "watermark adopted");
        assert_eq!(m2.engine().live_pods().count(), 4, "every bound worker re-adopted");
        let done = run_to_end(&mut m2, 100_000).expect("restarted job completes");
        assert!(done > restart_at);
        assert_eq!(
            m2.engine().samples_done(),
            m2.engine().spec().total_samples,
            "no omission, no duplication across failover"
        );
    }

    /// A master that died with no worker bound (every pod lost, the
    /// replacements not yet placed) comes back with no engine slot, and
    /// trains again once a replacement is announced and has started.
    #[test]
    fn failover_with_no_bound_worker_waits_for_a_replacement() {
        let spec = TrainingJobSpec::paper_default(20_000);
        let replayed = JobControl::default();
        let at = SimTime::from_secs(600);
        let mut m = JobMaster::from_replay(
            7,
            spec,
            alloc(4, 2, 8.0, 256.0),
            MasterConfig::default(),
            &replayed,
            &[],
            at,
        );
        assert_eq!(m.engine().worker_slot_count(), 0);
        m.tick(DT);
        assert_eq!(m.engine().samples_done(), 0, "nothing trains without a worker");
        m.replace_failed_worker(SimDuration::from_secs(30));
        m.tick(DT);
        assert_eq!(m.engine().live_pods().count(), 0, "still starting");
        m.tick(DT);
        assert_eq!(m.engine().live_pods().count(), 1);
        run_to_end(&mut m, 100_000).expect("completes on the replacement");
        assert_eq!(m.engine().samples_done(), m.engine().spec().total_samples);
    }

    #[test]
    fn starting_workers_join_after_startup() {
        let mut m = master(1_000_000, 2, 2, 8.0);
        m.tick(DT);
        m.apply_decision(
            PolicyDecision {
                allocation: alloc(6, 2, 8.0, 256.0),
                strategy: MigrationStrategy::Seamless,
                reconfig: None,
            },
            SimDuration::from_secs(120),
        );
        // Immediately after: still 2 live workers.
        assert_eq!(m.engine().live_pods().count(), 2);
        m.tick(DT); // 30s — not yet
        assert_eq!(m.engine().live_pods().count(), 2);
        for _ in 0..4 {
            m.tick(DT);
        }
        assert_eq!(m.engine().live_pods().count(), 6);
    }
}
