//! The virtual-time PS training engine.
//!
//! One [`PsTrainingEngine`] simulates one asynchronous PS job end-to-end:
//! workers check data shards out of the [`crate::ShardQueue`] and consume
//! them at rates given by the [`crate::AsyncCostModel`]; PS memory grows
//! with the embedding-discovery curve; elasticity actions (add/remove
//! workers, re-shape PSes, pauses from migration timelines) reshape the job
//! mid-flight. Time advances in caller-chosen slices (the profiling interval
//! of the job master), so a 200k-step job simulates in microseconds while
//! preserving shard-level data accounting.

use dlrover_perfmodel::{
    ExecPlan, GradientMode, JobShape, MemoryModel, ThroughputObservation, WorkloadConstants,
};
use dlrover_sim::{SimDuration, SimTime};
use dlrover_telemetry::{EventKind, Sink, SpanCategory, Telemetry};
use serde::{Deserialize, Serialize};

use crate::cost::{AsyncCostModel, PodState, PsPartition};
use crate::sharding::{ShardQueue, ShardingConfig};

/// Static description of a training job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingJobSpec {
    /// Samples to train (one epoch; the paper trains fixed step counts).
    pub total_samples: u64,
    /// Per-worker mini-batch size.
    pub batch_size: u32,
    /// Ground-truth cost coefficients (the simulator's physics).
    pub coefficients: dlrover_perfmodel::ModelCoefficients,
    /// Workload constants (M, B, D).
    pub constants: WorkloadConstants,
    /// Embedding-memory growth ground truth.
    pub memory: MemoryModel,
    /// Data sharding configuration.
    pub sharding: ShardingConfig,
}

impl TrainingJobSpec {
    /// A representative job of `total_steps` steps of batch 512 (the paper
    /// trains 200k steps) with the scaled paper-reference coefficients, so
    /// a well-tuned job runs at the paper's 100–250 steps/s.
    pub fn paper_default(total_steps: u64) -> Self {
        let batch_size = 512;
        TrainingJobSpec {
            total_samples: total_steps * batch_size as u64,
            batch_size,
            coefficients: dlrover_perfmodel::ModelCoefficients::simulation_truth(),
            constants: WorkloadConstants::default(),
            memory: MemoryModel::new(2.0e9, 256.0, 5.0e7, 5.0e7),
            sharding: ShardingConfig { batch_size, ..ShardingConfig::default() },
        }
    }
}

/// Result of one `advance` slice.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobProgress {
    /// Samples processed during the slice.
    pub samples: f64,
    /// True when the dataset drained during this slice.
    pub completed: bool,
    /// Index of the first PS that exceeded its memory allocation, if any.
    pub oom_ps: Option<usize>,
}

/// A restorable snapshot of an engine's training state: the job spec plus
/// the *quiesced* shard queue. In-flight shards at snapshot time are
/// requeued, so a job restored from this checkpoint retrains at most one
/// shard per worker and never skips data — the consistency property behind
/// the paper's PS scaling (§5.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    /// The job spec (physics + data accounting parameters).
    pub spec: TrainingJobSpec,
    /// Quiesced data-shard state.
    pub shards: ShardQueue,
    /// Virtual time at snapshot.
    pub at: SimTime,
    /// Execution plan at snapshot (Rubick-style reconfiguration state).
    pub exec: ExecPlan,
}

/// Size and position of a checkpoint of the training state, from
/// [`PsTrainingEngine::checkpoint_extent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointExtent {
    /// Samples accounted at save time.
    pub samples: u64,
    /// Training step: `samples` over the job's batch size.
    pub step: u64,
    /// Serialized size, bytes.
    pub bytes: u64,
}

/// Where a worker slot stands: it opens `Starting` or `Live` and ends
/// `Gone`, keeping its index, which is also its shard-queue id (registered
/// exactly while the slot is `Live` or `Hung`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Its pod is starting; it joins at the head of the first
    /// [`PsTrainingEngine::advance`] at or past `ready_at`.
    Starting {
        /// When the pod's start-up ends.
        ready_at: SimTime,
    },
    /// Training and heartbeating.
    Live,
    /// A zombie: the process is up (the slot keeps its shard) but training
    /// and heartbeats have stopped. Only failure clears it.
    Hung,
    /// Failed or removed.
    Gone,
}

#[derive(Debug, Clone)]
struct WorkerSlot {
    pod: PodState,
    state: WorkerState,
    /// Fractional sample progress carried between slices.
    carry: f64,
}

/// The engine. See the module docs.
#[derive(Debug, Clone)]
pub struct PsTrainingEngine {
    spec: TrainingJobSpec,
    cost: AsyncCostModel,
    workers: Vec<WorkerSlot>,
    partitions: Vec<PsPartition>,
    /// Memory allocation per PS, bytes.
    ps_mem_alloc: Vec<u64>,
    /// External memory pressure per PS, bytes (chaos/interference
    /// injection; empty means none).
    mem_pressure: Vec<u64>,
    shards: ShardQueue,
    now: SimTime,
    pending_pause: SimDuration,
    oomed: bool,
    telemetry: Telemetry,
    /// Span-timeline lane (the owning job id; 0 for standalone engines).
    span_track: u64,
    /// Active execution plan (default = plain async PS training).
    exec: ExecPlan,
    scratch: AdvanceScratch,
}

/// Working vectors of [`PsTrainingEngine::advance`], kept between slices so
/// a slice allocates nothing once they have grown to the gang's size.
#[derive(Debug, Clone, Default)]
struct AdvanceScratch {
    /// `(slot, samples/s)` of every live worker, slot order.
    rates: Vec<(usize, f64)>,
    /// Slots whose rate fell under a third of the fastest.
    stragglers: Vec<usize>,
}

impl PsTrainingEngine {
    /// Creates an engine with the given worker pods and PS layout.
    ///
    /// # Panics
    /// Panics when `workers` or `partitions` is empty, or when the memory
    /// allocation count disagrees with the partition count.
    pub fn new(
        spec: TrainingJobSpec,
        workers: Vec<PodState>,
        partitions: Vec<PsPartition>,
        ps_mem_alloc: Vec<u64>,
    ) -> Self {
        assert!(!workers.is_empty(), "job needs at least one worker");
        let shards = ShardQueue::new(spec.total_samples, spec.sharding);
        Self::from_checkpoint(
            EngineCheckpoint { spec, shards, at: SimTime::ZERO, exec: ExecPlan::default() },
            workers,
            partitions,
            ps_mem_alloc,
        )
    }

    /// Snapshots the training state for fault-tolerant restore.
    pub fn checkpoint(&self) -> EngineCheckpoint {
        EngineCheckpoint {
            spec: self.spec.clone(),
            shards: self.shards.quiesced(),
            at: self.now,
            exec: self.exec,
        }
    }

    /// Reconstructs an engine from a checkpoint with a fresh pod layout
    /// (the restored job may run on completely different resources). The
    /// worker list may be empty — a job restored while every worker pod is
    /// still being replaced — and training waits for [`Self::add_worker`],
    /// as it does once every worker has died.
    ///
    /// # Panics
    /// Panics on empty `partitions` or mismatched memory vector, as in
    /// [`Self::new`].
    pub fn from_checkpoint(
        ckpt: EngineCheckpoint,
        workers: Vec<PodState>,
        partitions: Vec<PsPartition>,
        ps_mem_alloc: Vec<u64>,
    ) -> Self {
        assert!(!partitions.is_empty(), "job needs at least one PS");
        assert_eq!(partitions.len(), ps_mem_alloc.len(), "per-PS memory required");
        let cost = AsyncCostModel::new(
            ckpt.spec.coefficients,
            ckpt.spec.constants,
            ckpt.exec.effective_batch(ckpt.spec.batch_size),
        );
        let exec = ckpt.exec;
        let mut engine = PsTrainingEngine {
            spec: ckpt.spec,
            cost,
            workers: Vec::new(),
            partitions,
            ps_mem_alloc,
            mem_pressure: Vec::new(),
            shards: ckpt.shards,
            now: ckpt.at,
            pending_pause: SimDuration::ZERO,
            oomed: false,
            telemetry: Telemetry::default(),
            span_track: 0,
            exec,
            scratch: AdvanceScratch::default(),
        };
        for pod in workers {
            engine.add_worker(pod);
        }
        engine
    }

    /// Routes this engine's telemetry into `sink` (a shared handle). Until
    /// called, events go to a private default sink.
    pub fn set_telemetry(&mut self, sink: Telemetry) {
        self.telemetry = sink;
    }

    /// The engine's telemetry handle (clone to share).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Sets the span-timeline lane this engine records under (usually the
    /// owning job id, so multi-job traces keep their lanes apart).
    pub fn set_span_track(&mut self, track: u64) {
        self.span_track = track;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The job spec.
    pub fn spec(&self) -> &TrainingJobSpec {
        &self.spec
    }

    /// Live worker pods in slot order (hung workers excluded: a zombie
    /// contributes no compute).
    pub fn live_pods(&self) -> impl Iterator<Item = PodState> + '_ {
        self.workers.iter().filter(|w| w.state == WorkerState::Live).map(|w| w.pod)
    }

    /// Hangs a live worker: its pod stays up and it keeps any checked-out
    /// shard, but it stops training and stops heartbeating — the zombie
    /// failure mode that crash detection misses and §6.1's heartbeat
    /// timeout exists to catch. Only [`Self::fail_worker`] recovers the
    /// slot (re-queueing the shard); the master's silent-worker detector
    /// does exactly that.
    pub fn hang_worker(&mut self, idx: usize) {
        if let Some(slot) = self.workers.get_mut(idx) {
            if slot.state == WorkerState::Live {
                slot.state = WorkerState::Hung;
                slot.carry = 0.0;
            }
        }
    }

    /// Engine indices of joined workers whose last heartbeat is older than
    /// `timeout` — the failure detector's candidates (§6.1). Healthy
    /// workers heartbeat every [`Self::advance`] slice (even while paused
    /// or waiting on a drained queue), so only hung workers go silent.
    pub fn silent_workers(&self, timeout: SimDuration) -> impl Iterator<Item = usize> + '_ {
        self.shards.silent_workers(self.now, timeout).map(|id| id as usize)
    }

    /// Current PS partitions.
    pub fn partitions(&self) -> &[PsPartition] {
        &self.partitions
    }

    /// Adds a worker; it immediately starts pulling shards. Returns its
    /// index.
    pub fn add_worker(&mut self, pod: PodState) -> usize {
        let idx = self.start_worker(pod, self.now);
        self.workers[idx].state = WorkerState::Live;
        self.shards.register_worker(idx as u64, self.now);
        self.telemetry.record(self.now, EventKind::WorkerAdded { worker: idx as u64 });
        idx
    }

    /// Opens a slot for a worker whose pod is starting: it joins at the head
    /// of the first [`Self::advance`] at or past `ready_at` and until then
    /// holds no shard and trains nothing. Returns its index.
    pub fn start_worker(&mut self, pod: PodState, ready_at: SimTime) -> usize {
        self.workers.push(WorkerSlot {
            pod,
            state: WorkerState::Starting { ready_at },
            carry: 0.0,
        });
        self.workers.len() - 1
    }

    /// Ends slot `idx`; true when it had joined (its id is registered). A
    /// starting slot leaves no record: it never trained.
    fn end_slot(&mut self, idx: usize) -> bool {
        let joined = self.worker_is_alive(idx);
        let Some(slot) = self.workers.get_mut(idx) else { return false };
        slot.state = WorkerState::Gone;
        slot.carry = 0.0;
        joined
    }

    /// Fails a worker: its in-flight shard re-queues in full.
    pub fn fail_worker(&mut self, idx: usize) {
        if !self.end_slot(idx) {
            return;
        }
        self.shards.fail_worker(idx as u64);
        if let Some(mut sink) = self.telemetry.batch() {
            sink.record(self.now, EventKind::WorkerFailed { worker: idx as u64 });
            sink.metrics.count("engine.worker_failures", 1);
        }
    }

    /// Removes a worker gracefully (scale-down): the prefix of its shard it
    /// trained is acked, the rest re-queues.
    pub fn remove_worker(&mut self, idx: usize) {
        if !self.end_slot(idx) {
            return;
        }
        let id = idx as u64;
        let prefix = self.shards.worker(id).map_or(0, |p| p.offset_in_shard);
        self.shards.deregister_worker(id);
        if let Some(mut sink) = self.telemetry.batch() {
            if prefix > 0 {
                sink.record(self.now, EventKind::ShardAcked { worker: id, len: prefix });
            }
            sink.record(self.now, EventKind::WorkerRemoved { worker: id });
        }
    }

    /// Changes a live worker's pod state (vertical scaling / contention).
    pub fn set_worker_pod(&mut self, idx: usize, pod: PodState) {
        if let Some(slot) = self.workers.get_mut(idx) {
            slot.pod = pod;
        }
    }

    /// Replaces the PS layout (horizontal/vertical PS scaling, rebalancing).
    /// The caller is responsible for scheduling the migration pause via
    /// [`Self::pause`].
    pub fn reshape_ps(&mut self, partitions: Vec<PsPartition>, ps_mem_alloc: Vec<u64>) {
        assert!(!partitions.is_empty(), "job needs at least one PS");
        assert_eq!(partitions.len(), ps_mem_alloc.len(), "per-PS memory required");
        self.partitions = partitions;
        self.ps_mem_alloc = ps_mem_alloc;
        // Interference is per-slot, not per-layout: pressure follows the
        // PS index across a reshape and vanishes for removed slots.
        self.mem_pressure.truncate(self.partitions.len());
        self.telemetry.record(self.now, EventKind::PsReshaped { ps: self.partitions.len() as u64 });
    }

    /// The active execution plan.
    pub fn exec_plan(&self) -> &ExecPlan {
        &self.exec
    }

    /// Switches the execution plan (Rubick-style reconfiguration): gradient
    /// mode, PS replication factor, batch size. Takes effect on the next
    /// [`Self::advance`] slice; the caller charges the transition pause via
    /// [`Self::pause`] (the seamless-migration path, §5.2). The cost model
    /// is rebuilt at the plan's effective batch so rates, spans and
    /// observations all see the new physics.
    pub fn set_exec_plan(&mut self, exec: ExecPlan) {
        if exec == self.exec {
            return;
        }
        self.exec = exec;
        self.cost = AsyncCostModel::new(
            self.spec.coefficients,
            self.spec.constants,
            exec.effective_batch(self.spec.batch_size),
        );
    }

    /// FNV digest of the trained-sample coverage (see
    /// [`ShardQueue::coverage_digest`]): equal digests ⇒ the embedding
    /// tables folded exactly the same sample set.
    pub fn coverage_digest(&self) -> u64 {
        self.shards.coverage_digest()
    }

    /// Sets one PS pod's state (e.g. inject a hot PS).
    pub fn set_ps_pod(&mut self, idx: usize, pod: PodState) {
        if let Some(ps) = self.partitions.get_mut(idx) {
            ps.pod = pod;
        }
    }

    /// Schedules a full training pause (migration critical path). Pauses
    /// accumulate and are consumed by subsequent [`Self::advance`] calls.
    pub fn pause(&mut self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        self.pending_pause += d;
        if let Some(mut sink) = self.telemetry.batch() {
            sink.record(self.now, EventKind::TrainingPaused { micros: d.as_micros() });
            sink.metrics.observe("engine.pause_seconds", d.as_secs_f64());
        }
    }

    /// Samples fully accounted (completed shards + in-flight progress).
    ///
    /// Note: this can *decrease* across a worker failure — the failed
    /// worker's partially processed shard re-queues in full and its
    /// in-flight offset is discarded, because the gradients from that
    /// prefix may be lost (§5.1 failure recovery re-trains the shard).
    pub fn samples_done(&self) -> u64 {
        // The queue's own in-flight sum equals the sum over joined slots
        // because a slot is up exactly while its id is registered: joining
        // registers it, `fail_worker`/`remove_worker` drop both sides, and
        // a hung worker is up *and* registered.
        debug_assert_eq!(
            self.shards.in_flight_samples(),
            self.in_flight_over_live_slots(),
            "engine slot up <=> shard-queue id registered"
        );
        self.shards.completed_samples() + self.shards.in_flight_samples()
    }

    /// In-flight samples summed slot by slot — the expression
    /// [`Self::samples_done`] used before the queue kept the sum's operands
    /// dense; kept as its cross-check.
    fn in_flight_over_live_slots(&self) -> u64 {
        (0..self.workers.len())
            .filter(|&i| self.worker_is_alive(i))
            .filter_map(|i| self.shards.worker(i as u64))
            .map(|p| p.offset_in_shard)
            .sum()
    }

    /// Samples in fully completed (acked) shards — the monotone watermark
    /// an event-log replay recovers to. Unlike [`Self::samples_done`] this
    /// never decreases: in-flight progress (which a failure can discard)
    /// is excluded. Reconfig-window telemetry carries this value so the
    /// oracle's no-lost-samples invariant holds across crashes.
    pub fn completed_samples(&self) -> u64 {
        self.shards.completed_samples()
    }

    /// What a checkpoint taken now carries: the sample watermark, the
    /// training step it corresponds to and the serialized size (dense
    /// static part + the embedding rows discovered so far). The master's
    /// hand-offs and the chaos driver's periodic saves both read it here.
    pub fn checkpoint_extent(&self) -> CheckpointExtent {
        let samples = self.samples_done();
        CheckpointExtent {
            samples,
            step: samples / u64::from(self.spec.batch_size.max(1)),
            bytes: self.spec.memory.total_bytes(samples as f64) as u64,
        }
    }

    /// Remaining samples.
    pub fn remaining_samples(&self) -> u64 {
        self.spec.total_samples.saturating_sub(self.samples_done())
    }

    /// True when every sample has been consumed.
    pub fn is_complete(&self) -> bool {
        self.shards.is_drained()
    }

    /// True when the job died of OOM.
    pub fn is_oomed(&self) -> bool {
        self.oomed
    }

    /// Instantaneous throughput (samples/s) of the live configuration.
    pub fn throughput(&self) -> f64 {
        if !self.pending_pause.is_zero() {
            return 0.0;
        }
        self.exec_throughput(self.live_pods().count() as u32)
    }

    /// Throughput of the `live` live pods under the active execution plan,
    /// pauses ignored; 0 with no live worker. Bit-identical to
    /// [`AsyncCostModel::throughput`] on the default plan; otherwise the
    /// per-phase times pass through [`dlrover_perfmodel::adjust_phases`]
    /// (the same transform the optimizer priced the plan with) and sync
    /// mode barriers every worker on the slowest iteration.
    fn exec_throughput(&self, live: u32) -> f64 {
        if live == 0 {
            return 0.0;
        }
        if self.exec.is_default() {
            return self.cost.throughput_of(self.live_pods(), live, &self.partitions);
        }
        let eb = f64::from(self.cost.batch_size);
        let server = self.cost.server_phases(&self.partitions, live);
        let iters = self
            .live_pods()
            .map(|wk| self.cost.worker_iter_time_on(&wk, &server, live, &self.exec));
        if self.exec.gradient_mode == GradientMode::Sync {
            let worst = iters.fold(0.0f64, f64::max).max(1e-12);
            f64::from(live) * eb / worst
        } else {
            iters.map(|t| eb / t).sum()
        }
    }

    /// Whole-job CPU utilisation under the cost model (busy core-seconds
    /// over allocated core-seconds); 0 while paused.
    pub fn cpu_utilisation(&self) -> f64 {
        if !self.pending_pause.is_zero() {
            return 0.0;
        }
        let pods: Vec<PodState> = self.live_pods().collect();
        self.cost.job_cpu_utilisation(&pods, &self.partitions)
    }

    /// Memory in use per PS, bytes, in partition order: its parameter share
    /// of the embedding plus an even slice of the static part.
    pub fn ps_memory_used(&self) -> impl Iterator<Item = u64> + '_ {
        let emb = self.spec.memory.embedding_bytes(self.samples_done() as f64);
        let static_slice = self.spec.memory.static_bytes / self.partitions.len() as f64;
        self.partitions.iter().enumerate().map(move |(i, ps)| {
            (ps.share * emb + static_slice) as u64 + self.mem_pressure.get(i).copied().unwrap_or(0)
        })
    }

    /// Injects external memory pressure on one PS pod: `bytes` of
    /// co-located interference that count toward the pod's usage (and
    /// therefore toward the OOM check and the §5.3 memory forecast) until
    /// cleared with `bytes = 0`. No-op for an out-of-range index.
    ///
    /// Pressure is *not* part of the training state: checkpoints do not
    /// carry it, and a restore starts pressure-free.
    pub fn set_ps_mem_pressure(&mut self, idx: usize, bytes: u64) {
        if idx >= self.partitions.len() {
            return;
        }
        if self.mem_pressure.len() < self.partitions.len() {
            self.mem_pressure.resize(self.partitions.len(), 0);
        }
        self.mem_pressure[idx] = bytes;
    }

    /// Current external memory pressure per PS, bytes (empty when none
    /// was ever injected).
    pub fn ps_mem_pressure(&self) -> &[u64] {
        &self.mem_pressure
    }

    /// Per-PS memory allocations.
    pub fn ps_memory_alloc(&self) -> &[u64] {
        &self.ps_mem_alloc
    }

    /// Total worker slots ever created (dead slots keep their index).
    pub fn worker_slot_count(&self) -> usize {
        self.workers.len()
    }

    /// Where the worker slot at `idx` stands (`Gone` past the last slot).
    pub fn worker_state(&self, idx: usize) -> WorkerState {
        self.workers.get(idx).map_or(WorkerState::Gone, |w| w.state)
    }

    /// True when the worker at `idx` has joined and not left (a hung worker
    /// counts until it is failed).
    pub fn worker_is_alive(&self, idx: usize) -> bool {
        matches!(self.worker_state(idx), WorkerState::Live | WorkerState::Hung)
    }

    /// A profiling observation of the current configuration, suitable for
    /// the online model fitter: the homogeneous-equivalent shape plus the
    /// *measured* mean iteration time.
    ///
    /// Heterogeneous layouts are collapsed to their mean effective CPU.
    /// Under strong skew (a hot PS) the iteration time embeds a bottleneck
    /// slowdown the mean shape cannot express, which biases the fit — this
    /// is acceptable because the job master detects and rebalances hot PSes
    /// within one tick (see `JobMaster::detect_hot_ps`), so the fitter
    /// effectively only ever trains on near-homogeneous samples.
    pub fn observation(&self) -> Option<ThroughputObservation> {
        self.observation_and_throughput().0
    }

    /// [`Self::observation`] and [`Self::throughput`] from one evaluation of
    /// the cost model — what the master's tick reads, once.
    pub fn observation_and_throughput(&self) -> (Option<ThroughputObservation>, f64) {
        let w = self.live_pods().count() as u32;
        if w == 0 {
            return (None, 0.0);
        }
        let thp = self.exec_throughput(w);
        let observation = (thp > 0.0).then(|| {
            let mean_cpu = self.live_pods().map(|p| p.effective_cpu()).sum::<f64>() / f64::from(w);
            let p = self.partitions.len() as u32;
            let mean_ps_cpu = self.partitions.iter().map(|ps| ps.pod.effective_cpu()).sum::<f64>()
                / self.partitions.len() as f64;
            let batch = self.cost.batch_size;
            ThroughputObservation {
                shape: JobShape::new(w, p, mean_cpu, mean_ps_cpu, batch),
                iter_time: f64::from(w) * f64::from(batch) / thp,
            }
        });
        (observation, if self.pending_pause.is_zero() { thp } else { 0.0 })
    }

    /// Records one `iteration` span over the trained part of a slice, with
    /// `iteration/{lookup,compute,push,pull}` children split proportionally
    /// to the cost model's phase decomposition (Eqns. 2–6) for the mean
    /// live worker pod (`server` is the slice's already-evaluated
    /// [`AsyncCostModel::server_phases`] for `workers`), plus a `straggler`
    /// child per worker whose rate fell under a third of the fastest (the
    /// §4.2 lag signal).
    fn record_iteration_spans(
        &self,
        sink: &mut Sink,
        start: SimTime,
        end: SimTime,
        workers: u32,
        server: &[f64; 4],
        stragglers: &[usize],
    ) {
        if workers == 0 || end <= start {
            return;
        }
        let track = self.span_track;
        let iter = sink.spans.complete(start, end, SpanCategory::Iteration, "slice", track, None);
        let mean = PodState {
            cpu: self.live_pods().map(|p| p.cpu).sum::<f64>() / f64::from(workers),
            speed: self.live_pods().map(|p| p.speed).sum::<f64>() / f64::from(workers),
        };
        // [t_grad, t_upd, t_sync, t_emb, β] → lookup, compute(+β), push, pull.
        let pt = dlrover_perfmodel::adjust_phases(
            &self.exec,
            self.cost.phase_times_on(&mean, server),
            workers,
        );
        let phases = [
            (SpanCategory::IterLookup, pt[3]),
            (SpanCategory::IterCompute, pt[0] + pt[4]),
            (SpanCategory::IterPush, pt[1]),
            (SpanCategory::IterPull, pt[2]),
        ];
        let total: f64 = phases.iter().map(|(_, t)| t).sum();
        if total > 0.0 {
            let dur = end.saturating_since(start);
            let mut t = start;
            for (i, (cat, share)) in phases.iter().enumerate() {
                // The last phase absorbs rounding so the children tile the
                // parent exactly.
                let phase_end = if i == phases.len() - 1 {
                    end
                } else {
                    (t + dur.mul_f64(share / total)).min(end)
                };
                sink.spans.complete(t, phase_end, *cat, "", track, Some(iter));
                t = phase_end;
            }
        }
        for &i in stragglers {
            let label = format!("w{i}");
            sink.spans.complete(start, end, SpanCategory::Straggler, &label, track, Some(iter));
        }
    }

    /// Liveness pings: every live, non-hung worker heartbeats once per
    /// slice even when it trained nothing (paused, queue drained, or
    /// waiting) — only a genuinely hung worker's heartbeat goes stale, so
    /// the silent-worker detector has no false positives across long
    /// migration pauses. An offset of zero leaves shard progress untouched
    /// (heartbeats are monotone).
    fn liveness_heartbeats(workers: &[WorkerSlot], shards: &mut ShardQueue, now: SimTime) {
        for (i, w) in workers.iter().enumerate() {
            if w.state == WorkerState::Live {
                shards.heartbeat(i as u64, 0, now);
            }
        }
    }

    /// Advances virtual time by `dt`: starting workers whose start-up has
    /// ended join first, in slot order, then pending pauses are consumed,
    /// then the job trains. Returns the slice's progress.
    pub fn advance(&mut self, dt: SimDuration) -> JobProgress {
        // Everything the slice records goes through one acquisition; with
        // the null sink (`None`) the span arithmetic is skipped with it.
        // The guard borrows `self.telemetry`, so the body below touches the
        // other fields directly and calls no `&mut self` method.
        let mut sink = self.telemetry.batch();
        for (i, w) in self.workers.iter_mut().enumerate() {
            if matches!(w.state, WorkerState::Starting { ready_at } if ready_at <= self.now) {
                w.state = WorkerState::Live;
                self.shards.register_worker(i as u64, self.now);
                if let Some(sink) = sink.as_mut() {
                    sink.record(self.now, EventKind::WorkerAdded { worker: i as u64 });
                }
            }
        }
        let mut remaining = dt;
        // Consume pause.
        if !self.pending_pause.is_zero() {
            let consumed = self.pending_pause.min(remaining);
            self.pending_pause -= consumed;
            remaining = remaining.saturating_sub(consumed);
            let pause_start = self.now;
            self.now += consumed;
            if let (false, Some(sink)) = (consumed.is_zero(), sink.as_mut()) {
                let track = self.span_track;
                sink.spans.complete(
                    pause_start,
                    self.now,
                    SpanCategory::Migration,
                    "pause",
                    track,
                    None,
                );
            }
        }
        if remaining.is_zero() || self.oomed {
            self.now += remaining;
            Self::liveness_heartbeats(&self.workers, &mut self.shards, self.now);
            return JobProgress { samples: 0.0, completed: self.is_complete(), oom_ps: None };
        }

        let dt_s = remaining.as_secs_f64();
        let train_start = self.now;
        let n = self.live_pods().count() as u32;
        let mut total_new = 0.0f64;
        // The server side of the cost model depends on the layout and the
        // live worker count only: evaluated once per slice, shared by every
        // worker's rate and by the iteration spans.
        let server = self.cost.server_phases(&self.partitions, n);
        let mut shards_acked = 0u64;
        let AdvanceScratch { rates, stragglers } = &mut self.scratch;
        stragglers.clear();

        if n > 0 {
            // Per-worker rates under the current layout and execution plan
            // (bit-identical to the legacy path on the default plan).
            rates.clear();
            let live =
                self.workers.iter().enumerate().filter(|(_, w)| w.state == WorkerState::Live);
            rates.extend(live.map(|(i, w)| {
                let iter_time = self.cost.worker_iter_time_on(&w.pod, &server, n, &self.exec);
                (i, f64::from(self.cost.batch_size) / iter_time)
            }));
            let mut max_rate = rates.iter().map(|&(_, r)| r).fold(0.0f64, f64::max).max(1e-12);
            stragglers.extend(rates.iter().filter(|&&(_, r)| r < max_rate / 3.0).map(|&(i, _)| i));
            if self.exec.gradient_mode == GradientMode::Sync {
                // Synchronous gradients barrier every iteration on the
                // slowest worker (the Rubick trade the optimizer prices:
                // cheaper updates, a shared pace).
                let min_rate = rates.iter().map(|&(_, r)| r).fold(f64::INFINITY, f64::min);
                rates.iter_mut().for_each(|(_, r)| *r = min_rate);
                max_rate = min_rate.max(1e-12);
            }

            for &(i, rate) in rates.iter() {
                let mut budget = rate * dt_s + self.workers[i].carry;
                let pace = (rate / max_rate).clamp(0.01, 1.0);
                let wid = i as u64;
                let mut produced = 0.0f64;
                // Samples of the shards this worker completes in the slice.
                let mut acked = 0u64;
                loop {
                    // The worker's shard and its offset in it, checking one
                    // out (offset 0) when it holds none.
                    let state = self.shards.worker(wid).expect("registered");
                    let (shard, state_off) = match state.current_shard {
                        Some(shard) => (shard, state.offset_in_shard),
                        None => match self.shards.checkout(wid, pace, self.now) {
                            Some(shard) => (shard, 0),
                            None => break, // dataset drained
                        },
                    };
                    let left_in_shard = (shard.len - state_off) as f64;
                    if budget + 1e-9 >= left_in_shard {
                        budget -= left_in_shard;
                        produced += left_in_shard;
                        self.shards.heartbeat(wid, shard.len, self.now);
                        acked += self.shards.complete(wid, self.now).len;
                        shards_acked += 1;
                    } else {
                        let whole = budget.floor() as u64;
                        self.shards.heartbeat(wid, state_off + whole, self.now);
                        produced += whole as f64;
                        self.workers[i].carry = budget - whole as f64;
                        budget = 0.0;
                        break;
                    }
                }
                if budget > 0.0 {
                    // Drained mid-slice: drop the leftover budget.
                    self.workers[i].carry = 0.0;
                }
                // One ack per worker per slice: the replay sums the lengths,
                // so its watermark at every slice boundary is the queue's.
                if let (true, Some(sink)) = (acked > 0, sink.as_mut()) {
                    sink.record(self.now, EventKind::ShardAcked { worker: wid, len: acked });
                }
                total_new += produced;
            }
        }
        self.now += remaining;
        Self::liveness_heartbeats(&self.workers, &mut self.shards, self.now);

        // Memory / OOM check.
        let oom_ps =
            self.ps_memory_used().zip(&self.ps_mem_alloc).position(|(used, alloc)| used > *alloc);
        self.oomed |= oom_ps.is_some();
        if let Some(sink) = sink.as_mut() {
            if shards_acked > 0 {
                sink.metrics.count("engine.shards_acked", shards_acked);
            }
            if total_new > 0.0 {
                let stragglers = &self.scratch.stragglers;
                self.record_iteration_spans(sink, train_start, self.now, n, &server, stragglers);
            }
            if let Some(ps) = oom_ps {
                sink.record(self.now, EventKind::Oomed { job: 0, ps: ps as u64 });
            }
        }

        JobProgress { samples: total_new, completed: self.is_complete(), oom_ps }
    }

    /// Runs until completion or OOM, advancing in `slice` steps; returns the
    /// completion time, or `None` on OOM / missing capacity.
    pub fn run_to_completion(&mut self, slice: SimDuration, deadline: SimTime) -> Option<SimTime> {
        while !self.is_complete() {
            if self.oomed || self.now >= deadline {
                return None;
            }
            let p = self.advance(slice);
            if p.oom_ps.is_some() {
                return None;
            }
            if p.samples <= 0.0 && self.pending_pause.is_zero() && self.throughput() <= 0.0 {
                return None; // wedged: no workers
            }
        }
        Some(self.now)
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Advance(u16),
        FailWorker(u8),
        AddWorker,
        RemoveWorker(u8),
        Pause(u16),
        SetWorkerSpeed(u8, u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1u16..600).prop_map(Op::Advance),
            (0u8..8).prop_map(Op::FailWorker),
            Just(Op::AddWorker),
            (0u8..8).prop_map(Op::RemoveWorker),
            (1u16..120).prop_map(Op::Pause),
            (0u8..8, 1u8..100).prop_map(|(w, s)| Op::SetWorkerSpeed(w, s)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Under arbitrary elastic chaos, accounting invariants hold:
        /// samples_done never exceeds the dataset, never decreases, and a
        /// final drain completes with exactly-once accounting.
        #[test]
        fn accounting_invariants_under_chaos(ops in proptest::collection::vec(op(), 1..40)) {
            let spec = TrainingJobSpec::paper_default(400);
            let total = spec.total_samples;
            let mut e = PsTrainingEngine::new(
                spec,
                vec![PodState::new(8.0); 3],
                AsyncCostModel::balanced_partitions(2, 8.0),
                vec![u64::MAX / 2; 2],
            );
            let mut last_done = 0u64;
            for o in ops {
                let mut failed_someone = false;
                match o {
                    Op::Advance(s) => {
                        e.advance(SimDuration::from_secs(u64::from(s)));
                    }
                    Op::FailWorker(i) => {
                        e.fail_worker(i as usize);
                        // A failure legitimately discards in-flight progress
                        // (the shard will be retrained), so the monotonicity
                        // baseline resets.
                        failed_someone = true;
                    }
                    Op::AddWorker => {
                        e.add_worker(PodState::new(8.0));
                    }
                    Op::RemoveWorker(i) => {
                        // Keep at least one live worker so the drain below
                        // can finish.
                        if e.live_pods().count() > 1 {
                            e.remove_worker(i as usize);
                        }
                    }
                    Op::Pause(s) => e.pause(SimDuration::from_secs(u64::from(s))),
                    Op::SetWorkerSpeed(i, s) => e.set_worker_pod(
                        i as usize,
                        PodState { cpu: 8.0, speed: f64::from(s) / 100.0 },
                    ),
                }
                let done = e.samples_done();
                prop_assert_eq!(
                    done,
                    e.shards.completed_samples() + e.in_flight_over_live_slots(),
                    "queue-side in-flight sum diverged from the per-slot sum"
                );
                prop_assert!(done <= total, "overcounted: {done} > {total}");
                if failed_someone {
                    last_done = done; // retrained prefix may lower the count
                } else {
                    prop_assert!(done >= last_done, "progress went backwards");
                    last_done = done;
                }
            }
            // Ensure at least one live worker, then drain.
            if e.live_pods().count() == 0 {
                e.add_worker(PodState::new(8.0));
            }
            e.run_to_completion(SimDuration::from_secs(600), SimTime::MAX)
                .expect("drain finishes");
            prop_assert_eq!(e.samples_done(), total, "exactly-once violated");
        }

        /// The spans a chaos-driven engine records form well-formed trees
        /// (children nest within their parents in SimTime, parents exist)
        /// and identical replays serialize byte-identically (ISSUE-2
        /// satellite; engine-driven half of the span proptests).
        #[test]
        fn recorded_span_trees_are_well_formed(ops in proptest::collection::vec(op(), 1..30)) {
            let run = |ops: &[Op]| {
                let sink = Telemetry::default();
                let spec = TrainingJobSpec::paper_default(400);
                let mut e = PsTrainingEngine::new(
                    spec,
                    vec![PodState::new(8.0); 3],
                    AsyncCostModel::balanced_partitions(2, 8.0),
                    vec![u64::MAX / 2; 2],
                );
                e.set_telemetry(sink.clone());
                e.set_span_track(42);
                for o in ops {
                    match *o {
                        Op::Advance(s) => {
                            e.advance(SimDuration::from_secs(u64::from(s)));
                        }
                        Op::FailWorker(i) => e.fail_worker(i as usize),
                        Op::AddWorker => {
                            e.add_worker(PodState::new(8.0));
                        }
                        Op::RemoveWorker(i) => {
                            if e.live_pods().count() > 1 {
                                e.remove_worker(i as usize);
                            }
                        }
                        Op::Pause(s) => e.pause(SimDuration::from_secs(u64::from(s))),
                        Op::SetWorkerSpeed(i, s) => e.set_worker_pod(
                            i as usize,
                            PodState { cpu: 8.0, speed: f64::from(s) / 100.0 },
                        ),
                    }
                }
                sink
            };
            let sink = run(&ops);
            let spans = sink.snapshot().spans;
            for child in &spans {
                prop_assert!(child.end_us >= child.start_us);
                prop_assert_eq!(child.track, 42);
                if let Some(pid) = child.parent {
                    let parent = spans
                        .iter()
                        .find(|s| s.id == pid)
                        .expect("parent span retained");
                    prop_assert!(parent.start_us <= child.start_us, "child starts inside parent");
                    prop_assert!(child.end_us <= parent.end_us, "child ends inside parent");
                }
            }
            // Same script, fresh engine → byte-identical span log.
            prop_assert_eq!(sink.spans_to_jsonl(), run(&ops).spans_to_jsonl());
        }
    }
}

/// The `Vec`-building bodies the tick's getters had before they became
/// iterators and one shared cost-model evaluation, kept as the reference the
/// rewrites are compared against on inputs no golden run reaches: gangs
/// past any inline size, hung and dead slots, non-default execution plans.
#[cfg(test)]
mod getter_reference {
    use super::*;
    use proptest::prelude::*;

    fn workers(e: &PsTrainingEngine) -> Vec<PodState> {
        e.workers.iter().filter(|w| w.state == WorkerState::Live).map(|w| w.pod).collect()
    }

    fn exec_throughput(e: &PsTrainingEngine, pods: &[PodState]) -> f64 {
        if e.exec.is_default() {
            return e.cost.throughput(pods, &e.partitions);
        }
        let n = pods.len() as u32;
        let eb = f64::from(e.cost.batch_size);
        let server = e.cost.server_phases(&e.partitions, n);
        let iters: Vec<f64> =
            pods.iter().map(|wk| e.cost.worker_iter_time_on(wk, &server, n, &e.exec)).collect();
        if e.exec.gradient_mode == GradientMode::Sync {
            let worst = iters.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
            pods.len() as f64 * eb / worst
        } else {
            iters.iter().map(|t| eb / t).sum()
        }
    }

    fn throughput(e: &PsTrainingEngine) -> f64 {
        let pods = workers(e);
        if pods.is_empty() || !e.pending_pause.is_zero() {
            return 0.0;
        }
        exec_throughput(e, &pods)
    }

    fn observation(e: &PsTrainingEngine) -> Option<ThroughputObservation> {
        let pods = workers(e);
        if pods.is_empty() {
            return None;
        }
        let w = pods.len() as u32;
        let mean_cpu = pods.iter().map(|p| p.effective_cpu()).sum::<f64>() / pods.len() as f64;
        let p = e.partitions.len() as u32;
        let mean_ps_cpu = e.partitions.iter().map(|ps| ps.pod.effective_cpu()).sum::<f64>()
            / e.partitions.len() as f64;
        let thp = exec_throughput(e, &pods);
        if thp <= 0.0 {
            return None;
        }
        let batch = e.cost.batch_size;
        Some(ThroughputObservation {
            shape: JobShape::new(w, p, mean_cpu, mean_ps_cpu, batch),
            iter_time: f64::from(w) * f64::from(batch) / thp,
        })
    }

    fn silent_workers(e: &PsTrainingEngine, timeout: SimDuration) -> Vec<usize> {
        let ids: Vec<u64> = e.shards.silent_workers(e.now, timeout).collect();
        (e.workers.iter().enumerate())
            .filter(|&(i, _)| e.worker_is_alive(i) && ids.contains(&(i as u64)))
            .map(|(i, _)| i)
            .collect()
    }

    fn assert_getters_agree(e: &PsTrainingEngine) {
        let (obs, thp) = e.observation_and_throughput();
        assert_eq!(thp.to_bits(), throughput(e).to_bits());
        assert_eq!(e.throughput().to_bits(), throughput(e).to_bits());
        assert_eq!(obs, observation(e));
        assert_eq!(e.observation(), observation(e));
        assert_eq!(e.live_pods().collect::<Vec<_>>(), workers(e));
        for secs in [0, 45, 100, 400] {
            let timeout = SimDuration::from_secs(secs);
            let got: Vec<usize> = e.silent_workers(timeout).collect();
            assert_eq!(got, silent_workers(e, timeout));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn iterator_getters_match_the_vec_bodies(
            pods in proptest::collection::vec((1u8..5, 2u8..101), 1..97),
            ps in 1u32..9,
            hot_share in 0.0f64..0.9,
            plan in 0usize..3,
            steps in 50u64..40_000,
            ops in proptest::collection::vec((0u8..6, 0u8..96, 1u16..200), 0..24),
        ) {
            // Two-batch shards: a 30 s slice spans many.
            let mut spec = TrainingJobSpec::paper_default(steps);
            spec.sharding.batches_per_shard = 2;
            spec.sharding.min_batches_per_shard = 1;
            let workers: Vec<PodState> = (pods.iter())
                .map(|&(cpu, speed)| PodState { cpu: f64::from(cpu) * 4.0, speed: f64::from(speed) / 100.0 })
                .collect();
            let parts = if hot_share < 0.3 {
                AsyncCostModel::balanced_partitions(ps, 8.0)
            } else {
                AsyncCostModel::skewed_partitions(ps, 8.0, hot_share)
            };
            let mut e = PsTrainingEngine::new(spec, workers, parts, vec![u64::MAX / 2; ps as usize]);
            e.set_exec_plan([
                ExecPlan::default(),
                ExecPlan { gradient_mode: GradientMode::Sync, ps_replicas: 2, batch_size: 0 },
                ExecPlan { gradient_mode: GradientMode::Async, ps_replicas: 3, batch_size: 1024 },
            ][plan]);
            assert_getters_agree(&e); // nobody has trained yet
            for (op, who, arg) in ops {
                let who = usize::from(who) % e.worker_slot_count();
                match op {
                    0 | 1 => {
                        e.advance(SimDuration::from_secs(u64::from(arg)));
                    }
                    2 => e.hang_worker(who),
                    3 => e.fail_worker(who),
                    4 => {
                        e.add_worker(PodState { cpu: 8.0, speed: f64::from(arg % 100 + 1) / 100.0 });
                    }
                    _ => e.pause(SimDuration::from_secs(u64::from(arg % 90))),
                }
                assert_getters_agree(&e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(steps: u64) -> TrainingJobSpec {
        TrainingJobSpec::paper_default(steps)
    }

    fn engine(steps: u64, w: u32, p: u32, cpu: f64) -> PsTrainingEngine {
        let workers = vec![PodState::new(cpu); w as usize];
        let parts = AsyncCostModel::balanced_partitions(p, cpu);
        let mem = vec![256 * 1024 * 1024 * 1024u64; p as usize];
        PsTrainingEngine::new(spec(steps), workers, parts, mem)
    }

    const SLICE: SimDuration = SimDuration::from_secs(30);

    #[test]
    fn job_runs_to_completion() {
        let mut e = engine(200, 4, 2, 8.0);
        let jct = e.run_to_completion(SLICE, SimTime::from_secs(1_000_000)).expect("should finish");
        assert!(jct > SimTime::ZERO);
        assert!(e.is_complete());
        assert_eq!(e.samples_done(), e.spec().total_samples);
    }

    #[test]
    fn more_resources_finish_faster() {
        let mut small = engine(500, 2, 1, 2.0);
        let mut big = engine(500, 8, 4, 16.0);
        let deadline = SimTime::from_secs(100_000_000);
        let jct_small = small.run_to_completion(SLICE, deadline).unwrap();
        let jct_big = big.run_to_completion(SLICE, deadline).unwrap();
        assert!(jct_big < jct_small, "{jct_big} !< {jct_small}");
    }

    #[test]
    fn progress_accounting_is_conserved() {
        let mut e = engine(300, 4, 2, 8.0);
        let mut accumulated = 0.0;
        for _ in 0..10 {
            accumulated += e.advance(SLICE).samples;
        }
        let done = e.samples_done() as f64;
        assert!(
            (accumulated - done).abs() <= 4.0 + 1e-6,
            "slice sum {accumulated} vs accounted {done} (carry tolerance)"
        );
    }

    #[test]
    fn memory_pressure_counts_toward_usage_and_oom() {
        let mut e = engine(1000, 4, 2, 8.0);
        e.advance(SLICE);
        let base: Vec<u64> = e.ps_memory_used().collect();
        // Pressure shows up in usage and clears back out.
        e.set_ps_mem_pressure(1, 7_000_000);
        let pressed: Vec<u64> = e.ps_memory_used().collect();
        assert_eq!(pressed[0], base[0]);
        assert_eq!(pressed[1], base[1] + 7_000_000);
        e.set_ps_mem_pressure(1, 0);
        assert_eq!(e.ps_memory_used().collect::<Vec<_>>(), base);
        // Out-of-range injection is a no-op.
        e.set_ps_mem_pressure(99, 1);
        assert!(!e.is_oomed());
        // Pressure past the allocation OOMs the PS on the next slice.
        let alloc = e.ps_memory_alloc()[0];
        e.set_ps_mem_pressure(0, alloc);
        let progress = e.advance(SLICE);
        assert_eq!(progress.oom_ps, Some(0));
        assert!(e.is_oomed());
    }

    #[test]
    fn memory_pressure_survives_reshape_but_not_restore() {
        let mut e = engine(1000, 4, 2, 8.0);
        e.advance(SLICE);
        e.set_ps_mem_pressure(1, 5_000_000);
        // Reshape to one PS: the pressured slot disappears with its slot.
        let parts = AsyncCostModel::balanced_partitions(1, 8.0);
        e.reshape_ps(parts, vec![256 * 1024 * 1024 * 1024u64]);
        assert!(e.ps_mem_pressure().iter().all(|&b| b == 0));
        // A checkpoint restore starts pressure-free.
        e.set_ps_mem_pressure(0, 5_000_000);
        let restored = PsTrainingEngine::from_checkpoint(
            e.checkpoint(),
            vec![PodState::new(8.0); 4],
            AsyncCostModel::balanced_partitions(2, 8.0),
            vec![256 * 1024 * 1024 * 1024u64; 2],
        );
        assert!(restored.ps_mem_pressure().is_empty());
    }

    #[test]
    fn pause_stops_progress() {
        let mut e = engine(1000, 4, 2, 8.0);
        e.advance(SLICE);
        let before = e.samples_done();
        e.pause(SLICE * 2);
        let p1 = e.advance(SLICE);
        assert_eq!(p1.samples, 0.0);
        assert_eq!(e.samples_done(), before);
        let p2 = e.advance(SLICE);
        assert_eq!(p2.samples, 0.0);
        // Pause consumed; next slice trains again.
        let p3 = e.advance(SLICE);
        assert!(p3.samples > 0.0);
    }

    #[test]
    fn partial_pause_trains_the_remainder() {
        let mut e = engine(1000, 4, 2, 8.0);
        e.pause(SimDuration::from_secs(10));
        let p = e.advance(SimDuration::from_secs(40));
        // 30 seconds of training happened.
        let full = {
            let mut f = engine(1000, 4, 2, 8.0);
            f.advance(SimDuration::from_secs(30)).samples
        };
        assert!((p.samples - full).abs() < f64::from(e.spec().batch_size));
    }

    #[test]
    fn failed_worker_data_is_not_lost() {
        let mut a = engine(400, 4, 2, 8.0);
        let deadline = SimTime::from_secs(100_000_000);
        a.advance(SLICE);
        a.fail_worker(0);
        a.add_worker(PodState::new(8.0));
        let jct = a.run_to_completion(SLICE, deadline).expect("finishes");
        assert!(a.is_complete());
        assert_eq!(a.samples_done(), a.spec().total_samples, "exactly-once after failure");
        assert!(jct > SimTime::ZERO);
    }

    #[test]
    fn losing_workers_without_replacement_still_completes_slower() {
        let deadline = SimTime::from_secs(100_000_000);
        let mut healthy = engine(400, 4, 2, 8.0);
        let jct_healthy = healthy.run_to_completion(SLICE, deadline).unwrap();
        let mut degraded = engine(400, 4, 2, 8.0);
        degraded.advance(SLICE);
        degraded.fail_worker(0);
        degraded.fail_worker(1);
        let jct_degraded = degraded.run_to_completion(SLICE, deadline).unwrap();
        assert!(jct_degraded > jct_healthy);
    }

    #[test]
    fn all_workers_dead_wedges() {
        let mut e = engine(400, 2, 1, 8.0);
        e.advance(SLICE);
        e.fail_worker(0);
        e.fail_worker(1);
        assert!(e.run_to_completion(SLICE, SimTime::from_secs(10_000)).is_none());
    }

    #[test]
    fn hot_ps_slows_everyone_and_reshape_recovers() {
        let deadline = SimTime::from_secs(100_000_000);
        let mut e = engine(2000, 8, 4, 8.0);
        e.advance(SLICE);
        let healthy_thp = e.throughput();
        e.set_ps_pod(0, PodState { cpu: 8.0, speed: 0.03 });
        let hot_thp = e.throughput();
        assert!(hot_thp < healthy_thp * 0.4, "hot {hot_thp} vs {healthy_thp}");
        // Seamless migration: rebalance onto healthy pods + short pause.
        e.reshape_ps(
            AsyncCostModel::balanced_partitions(4, 8.0),
            vec![256 * 1024 * 1024 * 1024u64; 4],
        );
        e.pause(SimDuration::from_secs(2));
        assert!(e.run_to_completion(SLICE, deadline).is_some());
    }

    #[test]
    fn worker_straggler_gets_smaller_shards() {
        let mut e = engine(5000, 4, 2, 8.0);
        e.set_worker_pod(0, PodState { cpu: 8.0, speed: 0.03 });
        e.advance(SLICE);
        e.advance(SLICE);
        // The slow worker's current shard should be smaller than a fast
        // worker's (pace-shrunken).
        let slow_shard = e.shards.worker(0).and_then(|s| s.current_shard);
        let fast_shard = e.shards.worker(1).and_then(|s| s.current_shard);
        if let (Some(slow), Some(fast)) = (slow_shard, fast_shard) {
            assert!(
                slow.len < fast.len,
                "straggler shard {} !< healthy shard {}",
                slow.len,
                fast.len
            );
        }
    }

    /// The `straggler` span is a rate signal: a slow worker is flagged from
    /// its first slice, and equal-speed newcomers — far behind in samples
    /// trained, not in pace — never are.
    #[test]
    fn straggler_spans_flag_slow_workers_not_newcomers() {
        let sink = Telemetry::default();
        let mut e = engine(1_000_000, 4, 2, 8.0);
        e.set_telemetry(sink.clone());
        e.set_worker_pod(2, PodState { cpu: 8.0, speed: 0.03 });
        let flagged = |sink: &Telemetry| -> Vec<String> {
            let spans = sink.snapshot().spans;
            let stragglers = spans.iter().filter(|s| s.cat == SpanCategory::Straggler);
            stragglers.map(|s| s.label.to_string()).collect()
        };
        e.advance(SLICE);
        assert_eq!(flagged(&sink), ["w2"], "flagged in its first slice");
        for _ in 1..40 {
            e.advance(SLICE); // 20 minutes in
        }
        let before = flagged(&sink).len();
        assert_eq!(e.add_worker(PodState::new(8.0)), 4);
        assert_eq!(e.add_worker(PodState::new(8.0)), 5);
        for _ in 0..40 {
            e.advance(SLICE);
        }
        let after = flagged(&sink).split_off(before);
        assert_eq!(after, vec!["w2"; 40], "only the slow worker, once per slice");
    }

    #[test]
    fn memory_grows_and_ooms_small_ps() {
        let mut s = spec(100_000);
        // Tiny PS memory: must OOM early.
        let workers = vec![PodState::new(8.0); 4];
        let parts = AsyncCostModel::balanced_partitions(2, 8.0);
        let mem = vec![2 * 1024 * 1024 * 1024u64; 2]; // 2 GB each; static alone is 2 GB
        s.memory = MemoryModel::new(2.0e9, 256.0, 5.0e8, 1.0e6);
        let mut e = PsTrainingEngine::new(s, workers, parts, mem);
        let result = e.run_to_completion(SLICE, SimTime::from_secs(100_000_000));
        assert!(result.is_none(), "tiny PSes must OOM");
        assert!(e.is_oomed());
        let events = e.telemetry().snapshot().events;
        assert!(events.iter().any(|ev| matches!(ev.kind, EventKind::Oomed { .. })));
    }

    #[test]
    fn observation_reflects_configuration() {
        let e = engine(1000, 4, 2, 8.0);
        let obs = e.observation().expect("live workers");
        assert_eq!(obs.shape.workers, 4);
        assert_eq!(obs.shape.ps, 2);
        assert!(obs.iter_time > 0.0);
        // Cross-check with throughput: Ψ = w·m/T.
        let thp = e.throughput();
        assert!((4.0 * 512.0 / obs.iter_time - thp).abs() / thp < 1e-9);
    }

    #[test]
    fn throughput_is_zero_while_paused() {
        let mut e = engine(1000, 4, 2, 8.0);
        assert!(e.throughput() > 0.0);
        e.pause(SimDuration::from_secs(100));
        assert_eq!(e.throughput(), 0.0);
    }

    #[test]
    fn adding_workers_mid_job_accelerates() {
        let deadline = SimTime::from_secs(100_000_000);
        let mut baseline = engine(20_000, 2, 2, 8.0);
        let jct_base = baseline.run_to_completion(SLICE, deadline).unwrap();
        let mut scaled = engine(20_000, 2, 2, 8.0);
        scaled.advance(SLICE * 4);
        for _ in 0..6 {
            scaled.add_worker(PodState::new(8.0));
        }
        let jct_scaled = scaled.run_to_completion(SLICE, deadline).unwrap();
        assert!(jct_scaled < jct_base, "{jct_scaled} !< {jct_base}");
    }

    #[test]
    fn checkpoint_restore_preserves_exactly_once() {
        let mut e = engine(500, 4, 2, 8.0);
        for _ in 0..5 {
            e.advance(SLICE);
        }
        let done_before = e.shards.completed_samples();
        let ckpt = e.checkpoint();
        // The original job dies here; a new one resumes from the snapshot
        // on a different shape.
        let mut restored = PsTrainingEngine::from_checkpoint(
            ckpt,
            vec![PodState::new(16.0); 6],
            AsyncCostModel::balanced_partitions(3, 16.0),
            vec![256 * 1024 * 1024 * 1024u64; 3],
        );
        assert_eq!(restored.samples_done(), done_before, "completed work survives");
        restored
            .run_to_completion(SLICE, SimTime::from_secs(100_000_000))
            .expect("restored job finishes");
        assert_eq!(
            restored.samples_done(),
            restored.spec().total_samples,
            "no omission, no duplication after restore"
        );
    }

    #[test]
    fn checkpoint_restore_resumes_virtual_time() {
        let mut e = engine(10_000, 4, 2, 8.0);
        e.advance(SLICE * 10);
        let ckpt = e.checkpoint();
        let restored = PsTrainingEngine::from_checkpoint(
            ckpt,
            vec![PodState::new(8.0); 4],
            AsyncCostModel::balanced_partitions(2, 8.0),
            vec![256 * 1024 * 1024 * 1024u64; 2],
        );
        assert_eq!(restored.now(), SimTime::from_secs(300));
    }

    #[test]
    fn restore_with_no_worker_trains_once_one_is_added() {
        let mut e = engine(10_000, 4, 2, 8.0);
        e.advance(SLICE * 10);
        let done = e.completed_samples();
        let mut restored = PsTrainingEngine::from_checkpoint(
            e.checkpoint(),
            Vec::new(),
            AsyncCostModel::balanced_partitions(2, 8.0),
            vec![256 * 1024 * 1024 * 1024u64; 2],
        );
        assert_eq!(restored.worker_slot_count(), 0);
        restored.advance(SLICE);
        assert_eq!(restored.completed_samples(), done, "no worker, no progress");
        restored.add_worker(PodState::new(8.0));
        let end = restored.run_to_completion(SLICE, SimTime::from_secs(100_000_000));
        assert!(end.is_some(), "the added worker finishes the job");
        assert_eq!(restored.samples_done(), restored.spec().total_samples);
    }

    #[test]
    fn hung_worker_goes_silent_and_failing_it_recovers_the_shard() {
        let timeout = SimDuration::from_secs(120);
        let mut e = engine(400, 4, 2, 8.0);
        e.advance(SLICE);
        assert_eq!(e.silent_workers(timeout).count(), 0, "everyone heartbeats");
        e.hang_worker(1);
        assert_eq!(e.live_pods().count(), 3, "zombie contributes no compute");
        // Long pauses must not trip the detector for healthy workers.
        e.pause(SimDuration::from_secs(300));
        for _ in 0..12 {
            e.advance(SLICE);
        }
        let silent: Vec<usize> = e.silent_workers(timeout).collect();
        assert_eq!(silent, vec![1], "only the zombie is silent");
        // The detector's remedy: fail the zombie (shard re-queues) and
        // exactly-once still holds end to end.
        e.fail_worker(1);
        assert_eq!(e.silent_workers(timeout).count(), 0);
        e.run_to_completion(SLICE, SimTime::from_secs(100_000_000)).expect("finishes");
        assert_eq!(e.samples_done(), e.spec().total_samples);
    }

    #[test]
    fn hanging_every_worker_wedges_until_one_is_failed() {
        let mut e = engine(400, 2, 1, 8.0);
        e.advance(SLICE);
        e.hang_worker(0);
        e.hang_worker(1);
        let before = e.samples_done();
        e.advance(SLICE * 4);
        assert_eq!(e.samples_done(), before, "zombies make no progress");
        e.fail_worker(0);
        e.add_worker(PodState::new(8.0));
        e.fail_worker(1);
        e.run_to_completion(SLICE, SimTime::from_secs(100_000_000)).expect("finishes");
        assert_eq!(e.samples_done(), e.spec().total_samples);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut e = engine(300, 3, 2, 6.0);
            e.advance(SLICE);
            e.fail_worker(1);
            e.add_worker(PodState::new(6.0));
            e.run_to_completion(SLICE, SimTime::from_secs(100_000_000)).unwrap()
        };
        assert_eq!(run(), run());
    }
}
