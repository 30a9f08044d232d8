//! Deterministic chaos harness: runs one job under a scripted
//! [`FaultPlan`] with the cluster, engine, and master wired together, then
//! audits the telemetry stream with the [`Oracle`].
//!
//! This is the delivery layer the plan format (`dlrover_sim::faultplan`)
//! deliberately omits: each [`FaultKind`] becomes concrete calls —
//! worker/PS pod kills ride the cluster's `fail_pod` plus the master's
//! replacement/flash-restore paths (§6.2), node loss fails every resident
//! pod at once, preemption bursts inject high-priority service pods
//! (§2.2), memory pressure eats PS headroom to provoke the §5.3 OOM
//! predictor (Eqn. 14), straggler/network windows scale worker speeds the
//! way §5.1's dynamic sharding is built to absorb, a denial storm freezes
//! admission while a filler fleet soaks the free pool (§5's contention
//! regime — replacements go through the [`RetrySupervisor`] backoff path
//! and fall back to the degraded shape when it exhausts), and a master
//! crash rebuilds job state from an event-log replay
//! ([`JobControl`], §6) around the pods the job still holds.
//!
//! Everything is virtual-time and seeded: the same
//! `(seed, plan)` pair replays the same run byte-for-byte, which is what
//! lets CI assert system-wide invariants instead of eyeballing flakes.
//!
//! The work is done by a module-private `ChaosDriver` that advances the
//! job one `profile_interval` tick per `step`, each tick the same ordered
//! phases (DESIGN.md §6); the public functions step it to the end. The
//! order of RNG draws, cluster calls and telemetry records inside a tick is
//! pinned by `tests/chaos_snapshot_golden.rs`. The fault-free reference run
//! that the oracle's bounded-slowdown check compares against computes beside
//! the faulted run, on an idle core when one is free
//! ([`dlrover_sim::idle_cores`]); only the audit at the end reads it.

use dlrover_cluster::{
    Cluster, ClusterConfig, ClusterEvent, NodeId, PodId, PodPhase, PodRole, PodSpec, Priority,
    Resources,
};
use dlrover_master::{
    restore_after_master_loss, CheckpointPlane, CkptPlaneConfig, JobControl, JobHealth, JobMaster,
    MasterEvent, PlaneStats, RecoveryOutcome, RecoveryPath, RetryDecision, RetryPolicy,
    RetrySupervisor, SchedulerPolicy, WitnessBoard,
};
use dlrover_optimizer::ResourceAllocation;
use dlrover_pstrain::{CheckpointExtent, PodState, TrainingJobSpec, WorkerState};
use dlrover_sim::{
    idle_cores, Cores, FaultEvent, FaultKind, FaultPlan, FaultPlanConfig, RngStreams, SimDuration,
    SimTime, StreamRng,
};
use dlrover_telemetry::{
    prof, Event, EventKind, FaultInjected, GroundTruth, Invariant, JobRecovered, Oracle,
    OracleConfig, OracleReport, SpanCategory, Telemetry,
};
use serde::{Deserialize, Serialize};

use crate::runner::RunnerConfig;

/// How long a lost node stays out of the pool, and how long a
/// preemption-burst service pod stays resident before the service scales
/// back down.
const NODE_OUTAGE: SimDuration = SimDuration::from_mins(15);
const BURST_RESIDENCY: SimDuration = SimDuration::from_mins(10);

/// A worker pod still starting this long after its placement is stuck, and is
/// lost and replaced as DLRover's master does: half again the top of §2.2's
/// 5–10 min pod-preparation band.
const STARTUP_TIMEOUT: SimDuration = SimDuration::from_mins(15);

/// The driver's placement retry policy. Sized to outlast every legitimate
/// denial window a generated plan can produce — 6-minute denial storms,
/// 10-minute preemption-burst residencies, and overlapping pairs of
/// either — while staying far under the oracle's `max_retry_attempts`
/// bound (40) and exhausting early enough that the degraded-mode fallback
/// still lands inside the 30-minute recovery deadline.
fn driver_retry_policy() -> RetryPolicy {
    RetryPolicy {
        base: SimDuration::from_secs(5),
        multiplier_permille: 2000,
        jitter_permille: 250,
        max_backoff: SimDuration::from_secs(60),
        max_attempts: 24,
        deadline: SimDuration::from_mins(25),
    }
}

/// Chaos-run configuration: the single-job runner knobs plus the plan
/// generator, retry policy, and the cluster the job's pods live in. The
/// oracle audits with [`OracleConfig::default`]'s thresholds, the job saves
/// into a [`CkptPlaneConfig::default`] checkpoint plane (periodic flash
/// checkpoints, restore charging on recovery), and the master-less
/// recovery path runs [`WitnessBoard::new`]'s 2-of-3 quorum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Tick cadence, startup model, deadline, master knobs, seed.
    pub runner: RunnerConfig,
    /// Fault-plan generator knobs (for [`run_chaos_suite`]).
    pub plan: FaultPlanConfig,
    /// Backoff policy for denied/parked replacement placements. When it
    /// exhausts, the pod is released and the master degrades to the
    /// surviving shape instead of retrying forever.
    pub retry: RetryPolicy,
    /// The cluster hosting the job's pods. Organic churn uses its
    /// `pod_daily_failure_rate`, so scripted and organic failures compose.
    pub cluster: ClusterConfig,
    /// When `true`, a master crash first attempts witness-quorum
    /// recovery (pinned peer copy, no master on the critical path) and
    /// only falls back to event-log replay when the quorum is
    /// partitioned away or nothing is pinned yet.
    pub prefer_witness: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            runner: RunnerConfig::default(),
            plan: FaultPlanConfig::default(),
            retry: driver_retry_policy(),
            // Homogeneous nodes: placement-induced slowdown is scripted
            // (StragglerWindow), not sampled, so runs stay interpretable.
            cluster: ClusterConfig { slow_node_fraction: 0.0, ..ClusterConfig::default() },
            prefer_witness: false,
        }
    }
}

/// Outcome of one chaos run: what happened plus the oracle's audit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Scheduled fault count in the plan.
    pub plan_len: usize,
    /// Faults that actually acted (a kill aimed at an already-dead target
    /// is skipped, not counted).
    pub faults_injected: u64,
    /// Job completion time, µs of virtual time (None on OOM/deadline).
    pub jct_us: Option<u64>,
    /// Fault-free completion time of the same job, µs.
    pub baseline_jct_us: u64,
    /// Whether the job died of OOM (an oracle violation by itself).
    pub oomed: bool,
    /// Where the job ended on the Healthy → Degraded → Failed ladder.
    pub health: JobHealth,
    /// Master crash/replay cycles survived during the run.
    pub master_restarts: u64,
    /// One entry per master-loss recovery, replay and witness alike —
    /// the shared unit `exp resilience` and `exp ckptplane` report in.
    pub recoveries: Vec<RecoveryOutcome>,
    /// Checkpoint-plane counters at end of run (saves, commits, dedup,
    /// remote-pipe busy time).
    pub ckpt: PlaneStats,
    /// Integral of allocated CPU over the run, core-hours (the
    /// tournament's resource-waste input).
    pub cpu_core_hours: f64,
    /// Ground truth handed to the oracle.
    pub truth: GroundTruth,
    /// The invariant audit.
    pub oracle: OracleReport,
}

/// A worker or PS pod the harness placed for the job (PS pods carry their
/// partition index so a late placement lands on the right slot).
#[derive(Debug, Clone, Copy)]
enum JobPod {
    Worker,
    Ps(usize),
}

impl JobPod {
    fn is_worker(self) -> bool {
        matches!(self, JobPod::Worker)
    }
}

/// Where a pod request of the job stands: `Parked` → `Starting` →
/// `Bound`. A worker is bound to its engine slot as soon as its placement
/// sticks (the slot holds its start-up), so it skips `Starting`; a policy
/// scale-up PS is bound at once.
#[derive(Debug)]
enum Stage {
    /// Not admitted yet: frozen by a denial storm (no pod) or parked by the
    /// cluster pending capacity; the retry supervisor paces the attempts
    /// made under `op`.
    Parked { op: String },
    /// A placed PS replacement; its start-up ends at `ready_at`.
    Starting { ready_at: SimTime },
    /// A worker on engine slot `slot` (starting or serving), a PS on
    /// partition `slot`. A killed PS keeps its entry, pod terminal, until
    /// its replacement finishes starting and takes the partition over.
    Bound { slot: usize },
}

/// One pod request of the job; `pod` is `None` only while a denial storm
/// keeps a parked request off the cluster.
#[derive(Debug)]
struct PodEntry {
    role: JobPod,
    pod: Option<PodId>,
    stage: Stage,
}

/// The job's pods, one entry per request, so a live pod is held once, at
/// one stage (the step-wise proptest checks that no live pod of the job
/// is held twice or not at all). A stage change moves an entry to the
/// back, so promotion and retry polling read their stage in arrival order;
/// bound entries are found by slot, never by position.
#[derive(Debug, Default)]
struct JobPods(Vec<PodEntry>);

impl JobPods {
    fn push(&mut self, role: JobPod, pod: Option<PodId>, stage: Stage) {
        self.0.push(PodEntry { role, pod, stage });
    }

    /// The index of the entry bound to worker slot (or partition) `slot`.
    fn bound_at(&self, worker: bool, slot: usize) -> Option<usize> {
        (self.0.iter()).position(|e| {
            e.role.is_worker() == worker && matches!(e.stage, Stage::Bound { slot: s } if s == slot)
        })
    }

    fn bound_pod(&self, worker: bool, slot: usize) -> Option<PodId> {
        self.bound_at(worker, slot).and_then(|i| self.0[i].pod)
    }

    /// Takes the worker bound to engine slot `slot` out of the ledger.
    fn unbind_worker(&mut self, slot: usize) -> Option<PodId> {
        self.bound_at(true, slot).and_then(|i| self.0.remove(i).pod)
    }

    /// Partitions the job holds a pod for, live or awaiting a replacement.
    fn ps_count(&self) -> usize {
        (self.0.iter())
            .filter(|e| !e.role.is_worker() && matches!(e.stage, Stage::Bound { .. }))
            .count()
    }

    /// The role and slot `pod` is bound to.
    fn binding_of(&self, pod: PodId) -> Option<(JobPod, usize)> {
        self.0.iter().find_map(|e| match e.stage {
            Stage::Bound { slot } if e.pod == Some(pod) => Some((e.role, slot)),
            _ => None,
        })
    }

    fn held(&self) -> impl Iterator<Item = PodId> + '_ {
        self.0.iter().filter_map(|e| e.pod)
    }
}

/// Effects a fault left behind that end (or fire) at a later tick.
#[derive(Debug, Default)]
struct TimedEffects {
    /// Sampled organic time-to-failure of each pod that joined the job.
    organic: Vec<(SimTime, PodId)>,
    /// `(until, partition)`: PS memory pressure to lift.
    pressure_clears: Vec<(SimTime, usize)>,
    /// `(worker, until, speed)`.
    stragglers: Vec<(usize, SimTime, f64)>,
    /// `(until, speed factor)` of the active network-delay window.
    network: Option<(SimTime, f64)>,
    /// `(until, pod)`: burst and storm-filler service pods to retire.
    service_pod_ends: Vec<(SimTime, PodId)>,
    /// `(until, node)`: lost nodes to bring back.
    node_recoveries: Vec<(SimTime, usize)>,
    /// Admission for the job's replacement requests is frozen before this.
    storm_until: SimTime,
}

/// Removes the entries of `timed` whose time has come (`until <= now`),
/// handing each one's payload to `on_expiry` in list order.
fn expire<T: Copy>(timed: &mut Vec<(SimTime, T)>, now: SimTime, mut on_expiry: impl FnMut(T)) {
    timed.retain(|&(until, what)| {
        let live = until > now;
        if !live {
            on_expiry(what);
        }
        live
    });
}

/// Fault-free reference run: same spec/allocation/config, no plan, no
/// cluster. Returns the JCT (deadline-clamped when the job never ends).
/// Only the JCT leaves this function, and nothing under the master reads
/// its sink back, so the run records into the null sink.
fn baseline_jct(
    spec: &TrainingJobSpec,
    alloc: ResourceAllocation,
    cfg: &RunnerConfig,
) -> SimDuration {
    let _p = prof::scope("chaos/reference");
    let mut master = JobMaster::new(0, spec.clone(), alloc, cfg.master);
    master.set_telemetry(Telemetry::null());
    while master.engine().now() < cfg.deadline {
        for e in master.tick(cfg.profile_interval) {
            if let MasterEvent::Completed(t) = e {
                return t.saturating_since(SimTime::ZERO);
            }
        }
        if master.engine().is_oomed() {
            break;
        }
    }
    cfg.deadline.saturating_since(SimTime::ZERO)
}

/// The cores a chaos job's reference run takes: the caller's, and one
/// idle core for a helper when there is one.
fn reference_cores() -> Cores {
    Cores::take(idle_cores(), 2)
}

/// Runs one job under `plan`, recording everything (including
/// [`EventKind::FaultInjected`] markers) into `telemetry`, and audits the
/// stream with the oracle. See the module docs for how each fault kind is
/// delivered.
pub fn run_chaos_job(
    spec: &TrainingJobSpec,
    alloc: ResourceAllocation,
    plan: &FaultPlan,
    cfg: &ChaosConfig,
    telemetry: &Telemetry,
) -> ChaosReport {
    run_chaos_job_on(reference_cores(), spec, alloc, plan, cfg, telemetry, None)
}

/// Like [`run_chaos_job`], but a [`SchedulerPolicy`] drives the job's
/// resources while the plan delivers faults: every `adjust_interval` the
/// policy sees a fresh profile and may reshape the job (the tournament's
/// "scheduler under fire" regime). The policy is borrowed, not consumed,
/// so a learned policy keeps its trained state across runs.
///
/// The static-gang path stays byte-identical to [`run_chaos_job`]: with no
/// policy, no extra RNG draws, events, or cluster calls happen, so the
/// golden-trace corpus of the plain harness is unaffected.
pub fn run_chaos_job_with_policy(
    spec: &TrainingJobSpec,
    policy: &mut dyn SchedulerPolicy,
    plan: &FaultPlan,
    cfg: &ChaosConfig,
    telemetry: &Telemetry,
) -> ChaosReport {
    let alloc = policy.initial_allocation();
    run_chaos_job_on(reference_cores(), spec, alloc, plan, cfg, telemetry, Some(policy))
}

/// [`run_chaos_job_with_policy`] (or, without a policy, [`run_chaos_job`])
/// with the job's [`baseline_jct`] computed beside the faulted run: on a
/// helper when `cores` holds one, else on this thread first. No `step`
/// reads the reference (only [`ChaosDriver::finish`] does) and it records
/// nothing, so nothing this returns or records depends on where it ran;
/// only tests pick the pool.
fn run_chaos_job_on(
    cores: Cores,
    spec: &TrainingJobSpec,
    alloc: ResourceAllocation,
    plan: &FaultPlan,
    cfg: &ChaosConfig,
    telemetry: &Telemetry,
    policy: Option<&mut (dyn SchedulerPolicy + '_)>,
) -> ChaosReport {
    let (baseline, driver) = cores.beside(
        || baseline_jct(spec, alloc, &cfg.runner),
        || ChaosDriver::new(spec, alloc, plan, cfg, telemetry).run(policy),
    );
    driver.finish(baseline)
}

/// Generates `plans` fault plans from the config's seed and runs each one
/// against a fresh copy of the same job. Returns one report per plan, in
/// plan order. Each run gets its own telemetry sink; pass a callback to
/// observe them (the bench harness aggregates per-invariant pass counts).
pub fn run_chaos_suite(
    spec: &TrainingJobSpec,
    alloc: ResourceAllocation,
    plans: u64,
    cfg: &ChaosConfig,
) -> Vec<(FaultPlan, ChaosReport)> {
    run_chaos_suite_on(reference_cores(), spec, alloc, plans, cfg)
}

/// [`run_chaos_suite`] with its one reference run beside plan 0 on `cores`.
fn run_chaos_suite_on(
    cores: Cores,
    spec: &TrainingJobSpec,
    alloc: ResourceAllocation,
    plans: u64,
    cfg: &ChaosConfig,
) -> Vec<(FaultPlan, ChaosReport)> {
    if plans == 0 {
        return Vec::new();
    }
    let streams = RngStreams::new(cfg.runner.seed);
    let plan = |i| FaultPlan::generate(&cfg.plan, &streams, i);
    let first = plan(0);
    let report = run_chaos_job_on(cores, spec, alloc, &first, cfg, &Telemetry::default(), None);
    // A pure function of `(spec, alloc, cfg.runner)`: computed beside plan 0,
    // reused for the rest.
    let baseline = SimDuration::from_micros(report.baseline_jct_us);
    let rest = (1..plans).map(|i| {
        let (plan, telemetry) = (plan(i), Telemetry::default());
        let report =
            ChaosDriver::new(spec, alloc, &plan, cfg, &telemetry).run(None).finish(baseline);
        (plan, report)
    });
    std::iter::once((first, report)).chain(rest).collect()
}

/// One chaos job, advanced a `profile_interval` tick at a time: the
/// substrates (cluster, master, checkpoint plane, witness board, retry
/// supervisor, the two RNG streams), the job's pods, and the timed effects
/// of faults already delivered. `new` places the initial gang, each
/// [`step`](Self::step) runs the phases of one tick in a fixed order, and
/// [`finish`](Self::finish) releases what is left and audits the run.
struct ChaosDriver<'a> {
    spec: &'a TrainingJobSpec,
    plan: &'a FaultPlan,
    cfg: &'a ChaosConfig,
    telemetry: &'a Telemetry,

    cluster: Cluster,
    master: JobMaster,
    /// The single chaos job is job 0 of model family 0; fleet-level
    /// contention is `exp ckptplane`'s subject, here the plane charges
    /// realistic save/restore costs.
    plane: CheckpointPlane,
    witness: WitnessBoard,
    retries: RetrySupervisor,
    startup_rng: StreamRng,
    organic_rng: StreamRng,

    pods: JobPods,
    effects: TimedEffects,
    /// The committed allocation new pods are sized by and a crashed master
    /// is rebuilt at: fixed for the static gang, the master's (possibly
    /// clamped) allocation after each applied policy decision.
    alloc: ResourceAllocation,

    /// The tick boundary being processed (the engine clock at `step` entry).
    now: SimTime,
    plan_cursor: usize,
    last_ckpt: SimTime,
    since_adjust: SimDuration,
    replacement_seq: u64,
    /// Completed, OOMed, or no feasible shape remains.
    done: bool,

    faults_injected: u64,
    master_restarts: u64,
    recoveries: Vec<RecoveryOutcome>,
    cpu_core_seconds: f64,
    jct: Option<SimDuration>,
    oomed: bool,
}

impl<'a> ChaosDriver<'a> {
    /// Wires the substrates to `telemetry` and places the initial gang at
    /// t0, sampling each pod's organic time-to-failure from the cluster's
    /// daily hazard.
    fn new(
        spec: &'a TrainingJobSpec,
        alloc: ResourceAllocation,
        plan: &'a FaultPlan,
        cfg: &'a ChaosConfig,
        telemetry: &'a Telemetry,
    ) -> Self {
        let streams = RngStreams::new(cfg.runner.seed);
        let startup_rng = streams.stream("chaos-startup");
        let organic_rng = streams.stream("chaos-organic");
        let retries =
            RetrySupervisor::new(cfg.retry, streams.stream("chaos-retry"), telemetry.clone());
        let mut cluster = Cluster::new(cfg.cluster.clone(), &streams);
        cluster.set_telemetry(telemetry.clone());
        let mut master = JobMaster::new(0, spec.clone(), alloc, cfg.runner.master);
        master.set_telemetry(telemetry.clone());
        let mut plane = CheckpointPlane::new(CkptPlaneConfig::default());
        plane.set_telemetry(telemetry.clone());
        let mut witness = WitnessBoard::new();
        witness.set_telemetry(telemetry.clone());
        telemetry.record(SimTime::ZERO, EventKind::JobStarted { job: 0 });

        let mut driver = ChaosDriver {
            spec,
            plan,
            cfg,
            telemetry,
            cluster,
            master,
            plane,
            witness,
            retries,
            startup_rng,
            organic_rng,
            pods: JobPods::default(),
            effects: TimedEffects::default(),
            alloc,
            now: SimTime::ZERO,
            plan_cursor: 0,
            last_ckpt: SimTime::ZERO,
            since_adjust: SimDuration::ZERO,
            replacement_seq: 0,
            done: false,
            faults_injected: 0,
            master_restarts: 0,
            recoveries: Vec::new(),
            cpu_core_seconds: 0.0,
            jct: None,
            oomed: false,
        };
        for slot in 0..driver.master.engine().worker_slot_count() {
            let pod = driver.place_initial(JobPod::Worker);
            driver.pods.push(JobPod::Worker, Some(pod), Stage::Bound { slot });
        }
        for slot in 0..driver.master.engine().partitions().len() {
            let pod = driver.place_initial(JobPod::Ps(slot));
            driver.pods.push(JobPod::Ps(slot), Some(pod), Stage::Bound { slot });
        }
        driver
    }

    /// Steps the job to its end (or the deadline).
    fn run(mut self, mut policy: Option<&mut (dyn SchedulerPolicy + '_)>) -> Self {
        while self.step(policy.as_deref_mut()) {}
        self
    }

    /// Runs one `profile_interval` tick. Returns `false` — having done
    /// nothing — once the job has ended or the deadline has passed.
    fn step(&mut self, policy: Option<&mut (dyn SchedulerPolicy + '_)>) -> bool {
        self.now = self.master.engine().now();
        if self.done || self.now >= self.cfg.runner.deadline {
            return false;
        }
        self.begin_tick();
        self.checkpoint_if_due(); // 0
        self.promote_started(); // 1
        self.deliver_scripted_faults(); // 2
        self.deliver_organic_churn(); // 3
        self.apply_windows(); // 4
        self.retry_parked(); // 4b
        self.since_adjust += self.cfg.runner.profile_interval;
        if self.since_adjust >= self.cfg.runner.adjust_interval {
            self.since_adjust = SimDuration::ZERO;
            if let Some(policy) = policy {
                self.adjust_policy(policy); // 4c
            }
        }
        self.tick_master(); // 5
        !self.done
    }

    /// Releases every pod the harness still holds and audits the run
    /// against `baseline`, the [`baseline_jct`] of the same `(spec, alloc,
    /// cfg.runner)`. Anything left non-terminal (or any allocation still
    /// held) after the drain is a leak — exactly what the oracle's NoLeaks
    /// invariant flags.
    fn finish(mut self, baseline: SimDuration) -> ChaosReport {
        let end = self.master.engine().now();
        self.telemetry.span_complete(SimTime::ZERO, end, SpanCategory::Job, "chaos", 0, None);
        let service_pods = self.effects.service_pod_ends.iter().map(|&(_, id)| id);
        for id in self.pods.held().chain(service_pods) {
            self.cluster.terminate_pod(id, PodPhase::Succeeded);
        }
        let leaked_pods = self.cluster.pods().filter(|p| !p.phase().is_terminal()).count() as u64;
        let leaked = self.cluster.total_allocated();
        let truth = GroundTruth {
            total_samples: self.spec.total_samples,
            samples_done: self.master.engine().samples_done(),
            completed_at: self.master.completed_at(),
            baseline_jct: baseline,
            leaked_pods,
            leaked_cpu_millis: leaked.cpu_millis,
            leaked_mem_bytes: leaked.mem_bytes,
        };
        let (mut oracle, auditable) = self.telemetry.with_events(|events| {
            let started = |e: &Event| matches!(e.kind, EventKind::JobStarted { job: 0 });
            (
                Oracle::new(OracleConfig::default()).check(self.plan, events, &truth),
                events.iter().any(started),
            )
        });
        // `new` records `JobStarted` before anything else reaches the sink.
        // A stream without it — the null sink, a ring that evicted the run's
        // head — makes every stream check above pass vacuously, so a run that
        // trained is flagged rather than audited as clean.
        if truth.samples_done > 0 && !auditable {
            let exactly_once = &mut oracle.checks[0];
            debug_assert_eq!(exactly_once.invariant, Invariant::ExactlyOnce);
            exactly_once.passed = false;
            exactly_once.violations.push(format!(
                "unauditable stream: {} samples trained but the event stream handed to the \
                 oracle holds no JobStarted for the run (null sink, or the ring evicted it)",
                truth.samples_done
            ));
        }
        ChaosReport {
            plan_len: self.plan.len(),
            faults_injected: self.faults_injected,
            jct_us: self.jct.map(|d| d.as_micros()),
            baseline_jct_us: baseline.as_micros(),
            oomed: self.oomed,
            health: self.master.health(),
            master_restarts: self.master_restarts,
            recoveries: self.recoveries,
            ckpt: *self.plane.stats(),
            cpu_core_hours: self.cpu_core_seconds / 3_600.0,
            truth,
            oracle,
        }
    }

    // ---- helpers shared by the phases ----

    /// The spec a pod of `role` is requested with at the committed
    /// allocation. Counts only: pods the job already holds keep the
    /// resources they were placed with (a documented simplification —
    /// vertical changes reach the engine through the master).
    fn pod_spec(&self, role: JobPod) -> PodSpec {
        let shape = self.alloc.shape;
        let (resources, role) = match role {
            JobPod::Worker => {
                (Resources::new(shape.worker_cpu, self.alloc.worker_mem_gb), PodRole::Worker)
            }
            JobPod::Ps(_) => {
                (Resources::new(shape.ps_cpu, self.alloc.ps_mem_gb), PodRole::ParameterServer)
            }
        };
        PodSpec { resources, role, priority: Priority::Low, job_id: 0 }
    }

    fn is_starting(&self, id: PodId) -> bool {
        self.cluster.pod(id).map(|p| p.phase()) == Some(PodPhase::Starting)
    }

    fn is_live(&self, id: PodId) -> bool {
        self.cluster.pod(id).is_some_and(|p| !p.phase().is_terminal())
    }

    fn sample_startup(&mut self) -> SimDuration {
        let runner = &self.cfg.runner;
        runner.startup.sample(runner.cluster_utilisation, &mut self.startup_rng)
    }

    /// A pod joins the job: mark it Running and draw its organic
    /// time-to-failure. (A pod of an initial gang that does not fit the
    /// cluster stays Pending; it is drawn for and tracked all the same.)
    fn start_running(&mut self, id: PodId) {
        if self.is_starting(id) {
            self.cluster.mark_running(id, self.now);
        }
        if let Some(delay) = self.cluster.sample_pod_failure_delay(&mut self.organic_rng) {
            self.effects.organic.push((self.now + delay, id));
        }
    }

    fn place_initial(&mut self, role: JobPod) -> PodId {
        let (id, _) = self
            .cluster
            .request_pod(self.pod_spec(role), SimTime::ZERO)
            .expect("initial pod fits a node");
        self.start_running(id);
        id
    }

    /// Replacement `pod` was placed: sample its start-up. A worker is bound
    /// to the starting slot the master opens for it, or released when the
    /// master refuses it; a PS replacement starts until it takes its
    /// partition over.
    fn begin_startup(&mut self, role: JobPod, pod: PodId) {
        let startup = self.sample_startup();
        let stage = match role {
            JobPod::Worker => {
                self.master.replace_failed_worker(startup).map(|slot| Stage::Bound { slot })
            }
            JobPod::Ps(_) => Some(Stage::Starting { ready_at: self.now + startup }),
        };
        match stage {
            Some(stage) => self.pods.push(role, Some(pod), stage),
            None => self.cluster.terminate_pod(pod, PodPhase::Succeeded),
        }
    }

    /// Asks the scheduler for a replacement pod. Immediately-placeable
    /// requests take the fast path (the master learns of the replacement
    /// right away); denied or parked requests enter the retry supervisor's
    /// backoff loop, and the master only hears about the worker once a
    /// placement actually sticks — a denial storm therefore genuinely
    /// delays scale-out.
    fn request_replacement(&mut self, role: JobPod) {
        self.replacement_seq += 1;
        let op = match role {
            JobPod::Worker => format!("replace-worker-{}", self.replacement_seq),
            JobPod::Ps(i) => format!("replace-ps{i}-{}", self.replacement_seq),
        };
        if self.now < self.effects.storm_until {
            // Admission frozen: attempt 1 is denied on the spot; the parked
            // loop retries with backoff.
            let _ = self.retries.poll(&op, self.now);
            self.telemetry.count("chaos.storm_denials", 1);
            self.pods.push(role, None, Stage::Parked { op });
            return;
        }
        match self.cluster.request_pod(self.pod_spec(role), self.now) {
            Ok((id, _)) if self.is_starting(id) => self.begin_startup(role, id),
            Ok((id, _)) => {
                // Cluster parked it (capacity/cordon).
                let _ = self.retries.poll(&op, self.now);
                self.pods.push(role, Some(id), Stage::Parked { op });
            }
            Err(_) => {
                self.master.record_scale_denial();
            }
        }
    }

    /// A worker kill: fail the cluster pod and the engine slot, then ask
    /// for a replacement (elastic recovery, §6.2).
    fn kill_worker(&mut self, idx: usize, pod: PodId) {
        self.cluster.fail_pod(pod);
        self.pods.unbind_worker(idx);
        self.master.engine_mut().fail_worker(idx);
        self.request_replacement(JobPod::Worker);
    }

    /// A PS kill: fail the pod and restore the partition from the
    /// checkpoint plane — hot tier when resident (seamless migration,
    /// sub-second pause, §5.3), remote tier otherwise (waiting out any
    /// outage window). The replacement pod follows through the normal
    /// placement path.
    fn kill_ps(&mut self, idx: usize, pod: PodId) {
        self.cluster.fail_pod(pod);
        let startup = self.sample_startup();
        self.master.handle_ps_failure(idx, startup);
        if let Some(r) = self.plane.restore(0, self.now) {
            let stall = r.resume_at().saturating_since(self.now);
            self.master.engine_mut().pause(stall);
        }
        self.request_replacement(JobPod::Ps(idx));
    }

    /// The cluster took `pod` away (node loss, preemption, organic churn):
    /// a kill of whichever worker (serving or starting) or PS it was bound
    /// to. Failing a pod the cluster already failed or preempted is a no-op;
    /// pods that are not bound (a starting PS replacement, service pods) are
    /// nobody's slot to recover.
    fn lose_pod(&mut self, pod: PodId) {
        match self.pods.binding_of(pod) {
            Some((JobPod::Worker, slot)) => self.kill_worker(slot, pod),
            Some((JobPod::Ps(_), idx)) => self.kill_ps(idx, pod),
            None => {}
        }
    }

    /// Injects `pods` quarter-node service pods at `priority`, resident
    /// until `until`. High-priority pods may preempt the job's pods, each
    /// of which is a kill from the job's perspective. A pod that cannot be
    /// placed is dropped rather than parked or leaked.
    fn inject_service_pods(&mut self, pods: u32, priority: Priority, until: SimTime) {
        let node = self.cfg.cluster.node_capacity;
        let spec = PodSpec {
            resources: Resources { cpu_millis: node.cpu_millis / 4, mem_bytes: node.mem_bytes / 4 },
            role: PodRole::Other,
            priority,
            job_id: u64::MAX,
        };
        for _ in 0..pods {
            let Ok((id, events)) = self.cluster.request_pod(spec, self.now) else { continue };
            for e in &events {
                if let ClusterEvent::PodPreempted(pod) = e {
                    self.lose_pod(*pod);
                }
            }
            if self.is_starting(id) {
                self.cluster.mark_running(id, self.now);
                self.effects.service_pod_ends.push((until, id));
            } else {
                self.cluster.terminate_pod(id, PodPhase::Succeeded);
            }
        }
    }

    /// Records the injection marker. MUST be called before the fault is
    /// delivered: the oracle matches recovery signals (same-instant
    /// WorkerFailed, subsequent WorkerAdded/PsReshaped) to the marker that
    /// precedes them.
    fn mark(&mut self, fault: &FaultEvent) {
        self.telemetry.record(
            self.now,
            FaultInjected {
                fault: self.faults_injected,
                kind: fault.kind.name().into(),
                target: fault.kind.target(),
            }
            .into(),
        );
        self.faults_injected += 1;
    }

    // ---- the phases of a tick, in order ----

    /// Accounts the tick's CPU and brings the passive substrates up to `now`.
    fn begin_tick(&mut self) {
        self.cpu_core_seconds +=
            self.master.allocation().total_cpu() * self.cfg.runner.profile_interval.as_secs_f64();
        // Keep the cluster's passive clock current so untimed entry points
        // (fail_pod/fail_node) stamp their events at this tick — the
        // oracle matches same-instant kill events to the injection marker.
        self.cluster.advance_clock(self.now);
        // Drain the remote transfer queue and pending co-sign rounds up to
        // this tick, so commit/quorum events land in the log before any
        // restore this tick could depend on them (the durability oracle
        // audits in log order).
        self.plane.advance(self.now);
        self.witness.advance(self.now);
    }

    /// 0. Periodic flash checkpoint (§5.3): stage into the hot tier
    ///    (synchronous sub-second pause), enqueue the manifest behind the
    ///    shared remote pipe, and broadcast to the witness peers.
    fn checkpoint_if_due(&mut self) {
        let now = self.now;
        if now.saturating_since(self.last_ckpt) < self.plane.config().interval {
            return;
        }
        self.last_ckpt = now;
        // The engine's spec is the driver's: it was cloned into every
        // incarnation of the master.
        let CheckpointExtent { samples, step, bytes } = self.master.engine().checkpoint_extent();
        let saved = self.plane.save(0, 0, step, samples, bytes, now);
        self.witness.observe_save(0, saved.manifest, step, samples, bytes, now);
        self.master.engine_mut().pause(saved.hot_pause);
    }

    /// 1. Start-ups that ended: a worker pod whose slot reached its ready
    ///    time becomes Running (the slot joins at this tick's `advance`,
    ///    same ready time, same clock), and one still starting
    ///    [`STARTUP_TIMEOUT`] after its placement is lost; a PS replacement
    ///    becomes Running and takes its partition over.
    fn promote_started(&mut self) {
        let mut i = 0;
        while let Some(e) = self.pods.0.get(i) {
            match (e.role, &e.stage, e.pod) {
                (JobPod::Worker, &Stage::Bound { slot }, Some(pod)) if self.is_starting(pod) => {
                    let placed = self.cluster.pod(pod).and_then(|p| p.placed_at);
                    match self.master.engine().worker_state(slot) {
                        WorkerState::Starting { ready_at } if ready_at > self.now => {
                            if placed.is_some_and(|at| at + STARTUP_TIMEOUT <= self.now) {
                                self.telemetry.count("chaos.startup_timeouts", 1);
                                self.kill_worker(slot, pod); // takes entry `i` out
                                continue;
                            }
                        }
                        _ => self.start_running(pod),
                    }
                    i += 1;
                }
                (JobPod::Ps(idx), &Stage::Starting { ready_at }, Some(pod))
                    if ready_at <= self.now || !self.is_live(pod) =>
                {
                    self.pods.0.remove(i);
                    match self.pods.bound_at(false, idx) {
                        _ if !self.is_live(pod) => {} // killed while starting (e.g. node loss)
                        Some(held) => {
                            self.start_running(pod);
                            self.pods.0[held].pod = Some(pod);
                        }
                        // A policy scale-down removed this partition while
                        // its replacement was still starting: the pod has
                        // nothing to serve, so retire it instead of leaking
                        // it. (No RNG draw — organic churn only covers pods
                        // that actually join the job; the static-gang path
                        // never removes a partition, so it never gets here.)
                        None => self.cluster.terminate_pod(pod, PodPhase::Succeeded),
                    }
                }
                _ => i += 1,
            }
        }
    }

    /// 2. Scripted faults due at this tick boundary. A kill aimed at an
    ///    already-empty population is skipped (no marker, not counted). A
    ///    master crash ends the tick's fault delivery: anything else due
    ///    lands on the restarted master's first tick.
    fn deliver_scripted_faults(&mut self) {
        let plan = self.plan;
        while let Some(fault) = plan.events.get(self.plan_cursor).filter(|f| f.at <= self.now) {
            self.plan_cursor += 1;
            if self.deliver(fault) {
                break;
            }
        }
    }

    /// Delivers one scripted fault; returns whether it crashed the master.
    fn deliver(&mut self, fault: &FaultEvent) -> bool {
        let now = self.now;
        match fault.kind {
            FaultKind::WorkerKill { worker } => self.kill_nth_live_worker(fault, worker),
            FaultKind::PsKill { ps } => self.kill_nth_live_ps(fault, ps),
            FaultKind::NodeLoss { node } => self.lose_node(fault, node),
            FaultKind::PreemptionBurst { pods } => {
                self.mark(fault);
                self.inject_service_pods(pods, Priority::High, now + BURST_RESIDENCY);
            }
            FaultKind::MemoryPressure { ps, headroom_permille, window } => {
                self.press_ps_memory(fault, ps, headroom_permille, window);
            }
            FaultKind::StragglerWindow { worker, speed_permille, window } => {
                self.slow_nth_live_worker(fault, worker, speed_permille, window);
            }
            FaultKind::NetworkDelay { factor_permille, window } => {
                self.mark(fault);
                let factor = 1000.0 / f64::from(factor_permille.max(1001));
                self.effects.network = Some((now + window, factor));
            }
            FaultKind::DenialStorm { pods, window } => {
                self.mark(fault);
                // Admission freeze for the job's replacement requests plus
                // a Low-priority filler fleet soaking the free pool
                // (co-tenant surge).
                self.effects.storm_until = self.effects.storm_until.max(now + window);
                self.inject_service_pods(pods, Priority::Low, now + window);
            }
            FaultKind::MasterCrash { restart } => {
                self.mark(fault);
                self.crash_master(restart);
                return true;
            }
            FaultKind::RemoteTierOutage { window } => {
                self.mark(fault);
                // RDS unreachable: the transfer queue stalls and restores
                // wait out the window.
                self.plane.set_remote_outage(now, now + window);
            }
            FaultKind::BandwidthCollapse { factor_permille, window } => {
                self.mark(fault);
                self.plane.set_bandwidth_collapse(now, now + window, factor_permille);
            }
            FaultKind::ManifestCorruption { manifest } => {
                // Nothing staged yet → nothing to corrupt; skipped like a
                // kill aimed at an empty population.
                if self.plane.has_manifests(0) {
                    self.mark(fault);
                    self.plane.corrupt_manifest(0, manifest, now);
                }
            }
            FaultKind::WitnessPartition { peers, window } => {
                self.mark(fault);
                self.witness.partition(peers, now, now + window);
            }
        }
        false
    }

    fn kill_nth_live_worker(&mut self, fault: &FaultEvent, worker: u32) {
        let engine = self.master.engine();
        let live: Vec<(usize, PodId)> = (0..engine.worker_slot_count())
            .filter(|&i| engine.worker_is_alive(i))
            .filter_map(|i| Some((i, self.pods.bound_pod(true, i)?)))
            .collect();
        if !live.is_empty() {
            let (idx, pod) = live[worker as usize % live.len()];
            self.mark(fault);
            self.kill_worker(idx, pod);
        }
    }

    /// Targets only partitions whose cluster pod is live: a kill aimed at a
    /// mid-recovery slot is skipped like any other dead target.
    fn kill_nth_live_ps(&mut self, fault: &FaultEvent, ps: u32) {
        let live: Vec<(usize, PodId)> = (0..self.pods.ps_count())
            .filter_map(|i| Some((i, self.pods.bound_pod(false, i)?)))
            .filter(|&(_, pod)| self.is_live(pod))
            .collect();
        if !live.is_empty() {
            let (idx, pod) = live[ps as usize % live.len()];
            self.mark(fault);
            self.kill_ps(idx, pod);
        }
    }

    fn slow_nth_live_worker(
        &mut self,
        fault: &FaultEvent,
        worker: u32,
        speed_permille: u32,
        window: SimDuration,
    ) {
        let engine = self.master.engine();
        let live: Vec<usize> =
            (0..engine.worker_slot_count()).filter(|&i| engine.worker_is_alive(i)).collect();
        if !live.is_empty() {
            let idx = live[worker as usize % live.len()];
            self.mark(fault);
            let speed = f64::from(speed_permille) / 1000.0;
            self.effects.stragglers.push((idx, self.now + window, speed));
        }
    }

    /// Every resident pod fails at once; the node stays out of the pool for
    /// [`NODE_OUTAGE`].
    fn lose_node(&mut self, fault: &FaultEvent, node: u32) {
        let n = node as usize % self.cfg.cluster.nodes.max(1);
        self.mark(fault);
        for e in self.cluster.fail_node(NodeId(n as u32)) {
            if let ClusterEvent::PodFailed(pod) = e {
                self.lose_pod(pod);
            }
        }
        self.effects.node_recoveries.push((self.now + NODE_OUTAGE, n));
    }

    /// Eats `headroom_permille` of a partition's free memory for `window`,
    /// to provoke the §5.3 OOM predictor; skipped when there is no headroom.
    fn press_ps_memory(
        &mut self,
        fault: &FaultEvent,
        ps: u32,
        headroom_permille: u32,
        window: SimDuration,
    ) {
        let engine = self.master.engine();
        let idx = ps as usize % engine.partitions().len().max(1);
        let used = engine.ps_memory_used().nth(idx).unwrap_or(0);
        let alloc = engine.ps_memory_alloc().get(idx).copied().unwrap_or(0);
        let bytes = alloc.saturating_sub(used) / 1000 * u64::from(headroom_permille);
        if bytes > 0 {
            self.mark(fault);
            self.master.engine_mut().set_ps_mem_pressure(idx, bytes);
            self.effects.pressure_clears.push((self.now + window, idx));
        }
    }

    /// The master process dies and a new one is rebuilt from the event log
    /// (or, when preferred and available, from the witness quorum's pinned
    /// copy). The pods outlive it, and nothing is terminated or
    /// re-requested: the bound workers, serving or starting, become the
    /// rebuilt engine's slots in slot order (a starting one joins when it
    /// would have joined the old engine), and parked requests stay parked.
    fn crash_master(&mut self, restart: SimDuration) {
        let now = self.now;
        // An in-flight reconfiguration window dies with the master's
        // memory: resolve it as rolled back *before* snapshotting the event
        // log, so replay adopts the pre-window plan and the window id is
        // settled exactly once (a no-op when no window is open).
        self.master.abort_reconfig_if_pending("master-crash");
        // The job's caching pods die with the master — the hot tier copy is
        // gone, so whichever path recovers must pay a real restore.
        self.plane.invalidate_hot(0, now);
        let (replayed, path, resume_at, step) = self.recover_job_state(restart);
        // A pod whose start-up ends while the master is down is promoted at
        // the rebuilt master's first tick boundary, and joins there.
        let first_tick = resume_at + self.cfg.runner.profile_interval;
        let engine = self.master.engine();
        let mut workers = Vec::new();
        for slot in 0..engine.worker_slot_count() {
            let Some(i) = self.pods.bound_at(true, slot) else { continue };
            self.pods.0[i].stage = Stage::Bound { slot: workers.len() };
            workers.push(match engine.worker_state(slot) {
                WorkerState::Starting { ready_at } if ready_at > now => {
                    Some(ready_at.max(first_tick))
                }
                WorkerState::Starting { ready_at } => Some(ready_at),
                _ => None,
            });
        }
        let readopted = workers.len() as u32;
        let outcome =
            RecoveryOutcome::new(path, now, resume_at, replayed.samples_done, step, readopted);
        self.master = JobMaster::from_replay(
            0,
            self.spec.clone(),
            self.alloc,
            self.cfg.runner.master,
            &replayed,
            &workers,
            resume_at,
        );
        self.master.set_telemetry(self.telemetry.clone());
        self.telemetry.record(
            resume_at,
            EventKind::MasterRestarted {
                job: 0,
                samples_done: replayed.samples_done,
                workers: readopted,
            },
        );
        self.telemetry.record(
            resume_at,
            JobRecovered {
                job: 0,
                path: outcome.path.label().into(),
                latency_us: outcome.downtime.as_micros(),
                step: outcome.checkpoint_step,
            }
            .into(),
        );
        self.telemetry.count("chaos.master_restarts", 1);
        self.master_restarts += 1;
        self.recoveries.push(outcome);
    }

    /// The job state a crashed master restarts from, which path produced it,
    /// when training resumes, and the step of the manifest it restored (0
    /// when there was none); the restore itself is
    /// [`restore_after_master_loss`]. On the witness path the pinned
    /// manifest is the recovery truth: samples past its watermark retrain
    /// (the engine's bounded-rollback contract).
    fn recover_job_state(
        &mut self,
        restart: SimDuration,
    ) -> (JobControl, RecoveryPath, SimTime, u64) {
        let mut replayed = self.telemetry.with_events(JobControl::from_events).expect("legal log");
        let (path, resume_at, restored) = restore_after_master_loss(
            0,
            self.now,
            restart,
            self.cfg.prefer_witness,
            &mut self.witness,
            &mut self.plane,
        );
        if let (RecoveryPath::WitnessQuorum, Some((samples, _))) = (path, restored) {
            replayed.samples_done = samples.min(replayed.samples_done);
        }
        (replayed, path, resume_at, restored.map_or(0, |(_, step)| step))
    }

    /// 3. Organic churn due now: same kill machinery, no FaultInjected
    ///    marker (the oracle only deadline-checks scripted kills).
    fn deliver_organic_churn(&mut self) {
        let mut due = Vec::new();
        expire(&mut self.effects.organic, self.now, |pod| due.push(pod));
        for pod in due {
            if self.is_live(pod) {
                self.lose_pod(pod);
            }
        }
    }

    /// 4. Windowed effects: expire and (re)apply worker speeds.
    fn apply_windows(&mut self) {
        let now = self.now;
        let fx = &mut self.effects;
        let engine = self.master.engine_mut();
        expire(&mut fx.pressure_clears, now, |idx| engine.set_ps_mem_pressure(idx, 0));
        let cluster = &mut self.cluster;
        expire(&mut fx.service_pod_ends, now, |id| cluster.terminate_pod(id, PodPhase::Succeeded));
        expire(&mut fx.node_recoveries, now, |n| cluster.recover_node(NodeId(n as u32)));
        fx.stragglers.retain(|&(_, until, _)| until > now);
        fx.network = fx.network.filter(|&(until, _)| until > now);
        let net_factor = fx.network.map_or(1.0, |(_, f)| f);
        let worker_cpu = self.alloc.shape.worker_cpu;
        for idx in 0..engine.worker_slot_count() {
            if !engine.worker_is_alive(idx) {
                continue;
            }
            let straggle = (fx.stragglers.iter())
                .filter(|&&(i, _, _)| i == idx)
                .map(|&(_, _, f)| f)
                .fold(1.0, f64::min);
            engine.set_worker_pod(idx, PodState { cpu: worker_cpu, speed: straggle * net_factor });
        }
    }

    /// 4b. Parked replacements: the retry supervisor paces placement
    ///     attempts; exhaustion releases the pod and degrades the master to
    ///     the surviving shape instead of retrying forever.
    fn retry_parked(&mut self) {
        let now = self.now;
        let mut i = 0;
        while let Some(e) = self.pods.0.get(i) {
            let (role, Stage::Parked { op }) = (e.role, &e.stage) else {
                i += 1;
                continue;
            };
            match self.retries.poll(op, now) {
                RetryDecision::Wait => i += 1,
                RetryDecision::Exhausted => {
                    if let Some(id) = self.pods.0.remove(i).pod {
                        self.cluster.terminate_pod(id, PodPhase::Succeeded);
                    }
                    self.master.record_scale_denial();
                    self.telemetry.count("chaos.replacements_abandoned", 1);
                }
                RetryDecision::Attempt(_) if now < self.effects.storm_until => {
                    // Admission frozen: the attempt is denied outright.
                    self.telemetry.count("chaos.storm_denials", 1);
                    i += 1;
                }
                RetryDecision::Attempt(_) => {
                    let spec = self.pod_spec(role);
                    let e = &mut self.pods.0[i];
                    e.pod = e.pod.or_else(|| self.cluster.request_pod(spec, now).ok().map(|r| r.0));
                    let Some(id) = e.pod else {
                        self.pods.0.remove(i);
                        self.master.record_scale_denial();
                        continue;
                    };
                    if self.cluster.pod(id).map(|x| x.phase()) == Some(PodPhase::Pending) {
                        self.cluster.schedule_pending();
                    }
                    if !self.is_starting(id) {
                        i += 1;
                        continue;
                    }
                    if let Stage::Parked { op } = &self.pods.0.remove(i).stage {
                        self.retries.succeed(op);
                    }
                    self.begin_startup(role, id);
                }
            }
        }
    }

    /// 4c. Policy adjustment on its own cadence (policy-aware runs only —
    ///     the static-gang path never gets here, draws no RNG, and emits no
    ///     events, keeping it byte-identical to the pre-policy harness).
    fn adjust_policy(&mut self, policy: &mut (dyn SchedulerPolicy + '_)) {
        let now = self.now;
        let profile = self.master.profile();
        self.telemetry.span_complete(now, now, SpanCategory::PolicyEval, policy.name(), 0, None);
        let Some(decision) = policy.adjust(&profile) else { return };
        self.telemetry.record(
            now,
            EventKind::PolicyAdjusted {
                job: 0,
                workers: decision.allocation.shape.workers,
                ps: decision.allocation.shape.ps,
            },
        );
        let startup = self.sample_startup();
        self.master.apply_decision(decision, startup);
        // The master may have clamped the decision (OOM floor); its
        // committed allocation is the reconcile target.
        self.alloc = self.master.allocation();

        // Release pods whose engine slots or partitions the resize removed
        // (fault-killed workers already left the ledger via the kill
        // machinery, so only policy removals match).
        let engine = self.master.engine();
        let partitions = engine.partitions().len();
        let cluster = &mut self.cluster;
        self.pods.0.retain(|e| {
            let removed = match (e.role, &e.stage) {
                (JobPod::Worker, &Stage::Bound { slot }) => {
                    engine.worker_state(slot) == WorkerState::Gone
                }
                (JobPod::Ps(_), &Stage::Bound { slot }) => slot >= partitions,
                _ => false,
            };
            if let (true, Some(id)) = (removed, e.pod) {
                cluster.terminate_pod(id, PodPhase::Succeeded);
            }
            !removed
        });

        // Place a pod for each worker slot the resize opened, in slot order
        // (a zero start-up slot is live at once, and so is its pod). A
        // scale-up the cluster cannot admit now fails its slot: a denial.
        for slot in 0..self.master.engine().worker_slot_count() {
            let state = self.master.engine().worker_state(slot);
            if state == WorkerState::Gone || self.pods.bound_at(true, slot).is_some() {
                continue;
            }
            let Some(pod) = self.scale_up_one(JobPod::Worker) else {
                self.master.engine_mut().fail_worker(slot);
                self.master.record_scale_denial();
                continue;
            };
            if !matches!(state, WorkerState::Starting { .. }) {
                self.start_running(pod);
            }
            self.pods.push(JobPod::Worker, Some(pod), Stage::Bound { slot });
        }
        while self.pods.ps_count() < partitions {
            let slot = self.pods.ps_count();
            let Some(pod) = self.scale_up_one(JobPod::Ps(slot)) else {
                self.master.record_scale_denial();
                break;
            };
            self.start_running(pod);
            self.pods.push(JobPod::Ps(slot), Some(pod), Stage::Bound { slot });
        }
    }

    /// Asks for one more pod of `role` on the policy's behalf; `None` when
    /// the cluster cannot place it now.
    fn scale_up_one(&mut self, role: JobPod) -> Option<PodId> {
        let (id, _) = self.cluster.request_pod(self.pod_spec(role), self.now).ok()?;
        if self.is_starting(id) {
            return Some(id);
        }
        self.cluster.terminate_pod(id, PodPhase::Succeeded);
        None
    }

    /// 5. Advance the job one tick.
    fn tick_master(&mut self) {
        for e in self.master.tick(self.cfg.runner.profile_interval) {
            match e {
                MasterEvent::Completed(t) => {
                    self.jct = Some(t.saturating_since(SimTime::ZERO));
                    self.done = true;
                }
                MasterEvent::Oomed(_) => {
                    self.oomed = true;
                    self.done = true;
                }
                MasterEvent::SilentWorker(idx) => {
                    // The master already failed the zombie's slot and
                    // re-queued its shard; its still-Running pod goes down
                    // the kill path.
                    if let Some(pod) = self.pods.bound_pod(true, idx) {
                        self.kill_worker(idx, pod);
                    }
                }
                _ => {}
            }
        }
        if self.master.health() == JobHealth::Failed {
            self.done = true; // terminal: no feasible shape remains
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrover_perfmodel::JobShape;
    use dlrover_sim::{FaultEvent, FaultPlanConfig};

    fn spec() -> TrainingJobSpec {
        TrainingJobSpec::paper_default(20_000)
    }

    fn allocation() -> ResourceAllocation {
        ResourceAllocation::new(JobShape::new(4, 2, 4.0, 4.0, 512), 8.0, 64.0)
    }

    /// The parallel experiment engine shards chaos plans across worker
    /// threads, each unit borrowing the spec/config and moving its plan:
    /// every type crossing the `thread::scope` boundary must stay `Send`
    /// (and the borrowed ones `Sync`). Compile-time check so a stray `Rc`
    /// or raw pointer fails here, not in the bench crate.
    #[test]
    fn chaos_driver_types_are_send_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<TrainingJobSpec>();
        assert_sync::<TrainingJobSpec>();
        assert_send::<ResourceAllocation>();
        assert_send::<dlrover_sim::FaultPlan>();
        assert_send::<ChaosConfig>();
        assert_sync::<ChaosConfig>();
        assert_send::<ChaosReport>();
    }

    /// Where the reference run computes moves no result: each job runs once
    /// through a pool with no idle core (the reference runs first, on this
    /// thread) and once through a pool with one idle beside this thread's
    /// (the reference runs on a helper, beside the faulted run), and the two
    /// agree on every report field, oracle verdicts included, and on the
    /// whole sink: events, spans and metrics. Covers 16 generated plans, an
    /// ES-driven run, the suite, and a job whose reference dies of OOM only
    /// under `cfg.runner.master` (its pre-scale turned off), so a reference
    /// handed any other master config is caught.
    #[test]
    fn the_reference_run_moves_no_result_wherever_it_runs() {
        use std::sync::atomic::{AtomicIsize, Ordering};
        static BUSY: AtomicIsize = AtomicIsize::new(0);
        static IDLE: AtomicIsize = AtomicIsize::new(2);
        let on_both = |what: &str, run: &mut dyn FnMut(Cores, &Telemetry) -> ChaosReport| {
            let runs = [(&BUSY, 1), (&IDLE, 2)].map(|(pool, threads)| {
                let cores = Cores::take(pool, 2);
                assert_eq!(cores.threads(), threads, "{what}");
                let sink = Telemetry::default();
                let report = run(cores, &sink);
                (report, serde_json::to_string(&sink.snapshot()).expect("snapshot serializes"))
            });
            let [(inline, inline_sink), (beside, beside_sink)] = runs;
            assert_eq!(inline, beside, "{what}: report");
            assert!(inline_sink == beside_sink, "{what}: recorded stream");
            assert_eq!((BUSY.load(Ordering::Relaxed), IDLE.load(Ordering::Relaxed)), (0, 2));
            inline
        };

        let cfg = ChaosConfig::default();
        let streams = RngStreams::new(cfg.runner.seed);
        for i in 0..16 {
            let plan = FaultPlan::generate(&cfg.plan, &streams, i);
            let report = on_both(&format!("plan {i}"), &mut |cores, sink| {
                run_chaos_job_on(cores, &spec(), allocation(), &plan, &cfg, sink, None)
            });
            assert!(report.oracle.passed(), "plan {i}: {:?}", report.oracle.violations());
        }

        let space = dlrover_optimizer::PlanSearchSpace {
            workers: (1, 12),
            ps: (1, 4),
            ..dlrover_optimizer::PlanSearchSpace::default()
        };
        let plan = FaultPlan::generate(&cfg.plan, &streams, 0);
        on_both("es", &mut |cores, sink| {
            let mut es = dlrover_baselines::EsPolicy::new(allocation(), space, 1);
            run_chaos_job_on(cores, &spec(), allocation(), &plan, &cfg, sink, Some(&mut es))
        });

        let suite = [&BUSY, &IDLE]
            .map(|pool| run_chaos_suite_on(Cores::take(pool, 2), &spec(), allocation(), 3, &cfg));
        assert_eq!(suite[0], suite[1], "suite");

        let mut spec = spec();
        spec.memory = dlrover_perfmodel::MemoryModel::new(1.0e9, 4096.0, 3.0e6, 2.0e6);
        let alloc = ResourceAllocation::new(JobShape::new(4, 2, 4.0, 4.0, 512), 8.0, 2.5);
        let mut cfg = ChaosConfig::default();
        cfg.runner.master.auto_memory_scaling = false;
        let report = on_both("no pre-scale", &mut |cores, sink| {
            run_chaos_job_on(cores, &spec, alloc, &FaultPlan::default(), &cfg, sink, None)
        });
        assert!(report.oomed, "the faulted run dies of OOM without the master's pre-scale");
        assert_eq!(
            report.baseline_jct_us,
            cfg.runner.deadline.saturating_since(SimTime::ZERO).as_micros(),
            "the reference runs under cfg.runner.master too, so it dies of OOM as well"
        );
    }

    #[test]
    fn never_adjusting_policy_reduces_to_the_static_gang() {
        // A policy that never intervenes must reproduce the plain driver's
        // report exactly — the policy-aware path may not perturb RNG
        // draws, fault delivery, or the oracle's view of the run.
        let plan = FaultPlan::from_events(vec![
            FaultEvent { at: SimTime::from_secs(120), kind: FaultKind::WorkerKill { worker: 1 } },
            FaultEvent { at: SimTime::from_secs(300), kind: FaultKind::PsKill { ps: 0 } },
        ]);
        let cfg = ChaosConfig::default();
        let plain = run_chaos_job(&spec(), allocation(), &plan, &cfg, &Telemetry::default());
        let mut policy = dlrover_baselines::StaticPolicy::new(allocation());
        let driven =
            run_chaos_job_with_policy(&spec(), &mut policy, &plan, &cfg, &Telemetry::default());
        assert_eq!(plain, driven);
    }

    /// The oracle's stream checks pass vacuously on a stream that holds
    /// nothing of the run, so a driver wired to the wrong sink — or a ring
    /// that evicted the run's head — must not audit as clean.
    #[test]
    fn an_unauditable_stream_does_not_pass_the_oracle() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::from_secs(120),
            kind: FaultKind::WorkerKill { worker: 1 },
        }]);
        let cfg = ChaosConfig::default();
        let audited = run_chaos_job(&spec(), allocation(), &plan, &cfg, &Telemetry::default());
        assert!(audited.oracle.passed(), "{:?}", audited.oracle.violations());
        assert_eq!(audited.oracle.recovery_latencies_us.len(), 1);

        for (what, sink) in
            [("the null sink", Telemetry::null()), ("a 4-event ring", Telemetry::with_capacity(4))]
        {
            let mut report = run_chaos_job(&spec(), allocation(), &plan, &cfg, &sink);
            assert!(report.truth.samples_done > 0);
            let violations = report.oracle.violations();
            assert_eq!(violations.len(), 1, "{what}: {violations:?}");
            assert!(violations[0].starts_with("exactly_once: unauditable stream"), "{what}");
            assert!(!report.oracle.passed(), "{what} must not audit as clean");
            // The sink changes what the oracle can see, never what happened.
            report.oracle = audited.oracle.clone();
            assert_eq!(report, audited, "{what}");
        }
    }

    #[test]
    fn scaling_policy_under_faults_passes_the_oracle() {
        // ES hill-climbs the worker count while the plan kills pods: the
        // driver must reconcile cluster pods across every reshape and the
        // whole run must still satisfy the six invariants (no leaks
        // included — every policy-added pod is eventually released).
        use dlrover_optimizer::PlanSearchSpace;
        let plan = FaultPlan::from_events(vec![
            FaultEvent { at: SimTime::from_secs(200), kind: FaultKind::WorkerKill { worker: 0 } },
            FaultEvent {
                at: SimTime::from_secs(500),
                kind: FaultKind::MemoryPressure {
                    ps: 0,
                    headroom_permille: 400,
                    window: SimDuration::from_mins(3),
                },
            },
            FaultEvent { at: SimTime::from_secs(900), kind: FaultKind::PsKill { ps: 1 } },
        ]);
        let space = PlanSearchSpace { workers: (1, 12), ps: (1, 4), ..PlanSearchSpace::default() };
        let mut policy = dlrover_baselines::EsPolicy::new(allocation(), space, 1);
        let telemetry = Telemetry::default();
        let report = run_chaos_job_with_policy(
            &spec(),
            &mut policy,
            &plan,
            &ChaosConfig::default(),
            &telemetry,
        );
        assert!(report.jct_us.is_some(), "policy-driven job must complete");
        assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
        assert_eq!(report.truth.samples_done, report.truth.total_samples);
        assert!(report.cpu_core_hours > 0.0);
        let snap = telemetry.snapshot();
        assert!(
            snap.events.iter().any(|e| matches!(e.kind, EventKind::PolicyAdjusted { .. })),
            "the hill-climber must adjust at least once"
        );
    }

    #[test]
    fn fault_free_plan_reduces_to_clean_run() {
        let report = run_chaos_job(
            &spec(),
            allocation(),
            &FaultPlan::default(),
            &ChaosConfig::default(),
            &Telemetry::default(),
        );
        assert_eq!(report.faults_injected, 0);
        assert!(report.jct_us.is_some());
        assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
        assert_eq!(report.truth.samples_done, report.truth.total_samples);
        assert_eq!(report.truth.leaked_pods, 0);
        assert_eq!(report.health, JobHealth::Healthy);
    }

    #[test]
    fn scripted_kills_recover_and_oracle_passes() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent { at: SimTime::from_secs(120), kind: FaultKind::WorkerKill { worker: 1 } },
            FaultEvent { at: SimTime::from_secs(240), kind: FaultKind::PsKill { ps: 0 } },
            FaultEvent {
                at: SimTime::from_secs(400),
                kind: FaultKind::MemoryPressure {
                    ps: 1,
                    headroom_permille: 500,
                    window: SimDuration::from_mins(4),
                },
            },
        ]);
        let telemetry = Telemetry::default();
        let report =
            run_chaos_job(&spec(), allocation(), &plan, &ChaosConfig::default(), &telemetry);
        assert_eq!(report.faults_injected, 3);
        assert!(!report.oomed);
        assert!(report.jct_us.is_some());
        assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
        assert!(report.oracle.worst_recovery_us.is_some(), "kills must produce recovery latencies");
        // The faulted run may be slower than baseline but must complete.
        assert_eq!(report.truth.samples_done, report.truth.total_samples);
    }

    #[test]
    fn generated_suite_is_deterministic() {
        let cfg = ChaosConfig {
            plan: FaultPlanConfig { events: 3, ..FaultPlanConfig::default() },
            ..ChaosConfig::default()
        };
        let a = run_chaos_suite(&spec(), allocation(), 2, &cfg);
        let b = run_chaos_suite(&spec(), allocation(), 2, &cfg);
        assert_eq!(a, b, "same seed + same plans must replay identically");
    }

    #[test]
    fn straggler_and_network_windows_slow_but_complete() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at: SimTime::from_secs(90),
                kind: FaultKind::StragglerWindow {
                    worker: 0,
                    speed_permille: 200,
                    window: SimDuration::from_mins(5),
                },
            },
            FaultEvent {
                at: SimTime::from_secs(180),
                kind: FaultKind::NetworkDelay {
                    factor_permille: 2000,
                    window: SimDuration::from_mins(3),
                },
            },
        ]);
        let report = run_chaos_job(
            &spec(),
            allocation(),
            &plan,
            &ChaosConfig::default(),
            &Telemetry::default(),
        );
        assert!(report.jct_us.is_some());
        assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
        assert!(
            report.jct_us.unwrap() >= report.baseline_jct_us,
            "injected slowdown cannot make the job faster"
        );
    }

    #[test]
    fn denial_storm_defers_replacement_then_recovers() {
        // A worker dies mid-storm: the replacement must wait out the
        // freeze behind backoff, then place, and the run still satisfies
        // every invariant (including no-retry-storm).
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at: SimTime::from_secs(100),
                kind: FaultKind::DenialStorm { pods: 8, window: SimDuration::from_secs(240) },
            },
            FaultEvent { at: SimTime::from_secs(130), kind: FaultKind::WorkerKill { worker: 0 } },
        ]);
        let telemetry = Telemetry::default();
        let report =
            run_chaos_job(&spec(), allocation(), &plan, &ChaosConfig::default(), &telemetry);
        assert_eq!(report.faults_injected, 2);
        assert!(report.jct_us.is_some(), "job must complete after the storm lifts");
        assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
        assert_eq!(report.truth.samples_done, report.truth.total_samples);
        let snap = telemetry.snapshot();
        let worst_attempt = snap
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::RetryAttempt(r) => Some(r.attempt),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        assert!(worst_attempt >= 2, "the freeze must force at least one backed-off retry");
        assert!(snap.metrics.counter("chaos.storm_denials") >= 1);
        assert_eq!(report.health, JobHealth::Healthy, "storm outlasted, no degradation needed");
    }

    #[test]
    fn master_crash_failover_preserves_exactly_once() {
        // Kill a worker, crash the master mid-run, then kill a PS after
        // the restart: the replayed master must resume at the acked
        // watermark and the whole stream must satisfy all eight
        // invariants — exactly-once and checkpoint monotonicity included.
        let plan = FaultPlan::from_events(vec![
            FaultEvent { at: SimTime::from_secs(120), kind: FaultKind::WorkerKill { worker: 1 } },
            FaultEvent {
                at: SimTime::from_secs(300),
                kind: FaultKind::MasterCrash { restart: SimDuration::from_secs(60) },
            },
            FaultEvent { at: SimTime::from_secs(500), kind: FaultKind::PsKill { ps: 0 } },
        ]);
        let telemetry = Telemetry::default();
        let report =
            run_chaos_job(&spec(), allocation(), &plan, &ChaosConfig::default(), &telemetry);
        assert_eq!(report.faults_injected, 3);
        assert_eq!(report.master_restarts, 1);
        assert!(report.jct_us.is_some(), "job must complete across the failover");
        assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
        assert_eq!(
            report.truth.samples_done, report.truth.total_samples,
            "exactly-once accounting must hold across the failover"
        );
        let snap = telemetry.snapshot();
        let restarted = snap.events.iter().find_map(|e| match &e.kind {
            EventKind::MasterRestarted { samples_done, .. } => Some(*samples_done),
            _ => None,
        });
        let watermark = restarted.expect("failover must record MasterRestarted");
        assert!(watermark > 0, "crash at t=300s must replay a non-zero sample watermark");
        assert!(watermark < report.truth.total_samples);
    }

    #[test]
    fn restore_mid_outage_waits_for_the_remote_tier() {
        // Satellite 2 regression: a master crash whose restart lands
        // inside a RemoteTierOutage window must charge the wait for the
        // tier to come back — the restore is not free. The crash at
        // t=300s restarts at t=360s, still inside the 250 s outage that
        // lifts at t=500s, so downtime must cover crash → outage end at
        // minimum (hot copies die with the master; only the remote tier
        // can serve the restore).
        let outage = SimDuration::from_secs(250);
        let crash_at = SimTime::from_secs(300);
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at: SimTime::from_secs(250),
                kind: FaultKind::RemoteTierOutage { window: outage },
            },
            FaultEvent {
                at: crash_at,
                kind: FaultKind::MasterCrash { restart: SimDuration::from_secs(60) },
            },
        ]);
        let telemetry = Telemetry::default();
        let report =
            run_chaos_job(&spec(), allocation(), &plan, &ChaosConfig::default(), &telemetry);
        assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
        assert!(report.jct_us.is_some(), "job must finish once the outage lifts");
        let recovery = report.recoveries.first().expect("master crash must record a recovery");
        assert_eq!(recovery.path, RecoveryPath::MasterReplay);
        // Outage ends 200 s after the crash; the restore cannot resume
        // before that, so the measured downtime must exceed it (and the
        // bare 60 s restart window by a wide margin).
        let outage_remainder = SimDuration::from_secs(200);
        assert!(
            recovery.downtime >= outage_remainder,
            "restore mid-outage must wait for the tier: downtime {:?} < {:?}",
            recovery.downtime,
            outage_remainder
        );
        // Control: the same crash with no outage resumes much sooner.
        let control_plan = FaultPlan::from_events(vec![FaultEvent {
            at: crash_at,
            kind: FaultKind::MasterCrash { restart: SimDuration::from_secs(60) },
        }]);
        let control = run_chaos_job(
            &spec(),
            allocation(),
            &control_plan,
            &ChaosConfig::default(),
            &Telemetry::default(),
        );
        let control_recovery = control.recoveries.first().expect("control recovery");
        assert!(
            control_recovery.downtime < recovery.downtime,
            "outage must lengthen recovery: {:?} !< {:?}",
            control_recovery.downtime,
            recovery.downtime
        );
    }

    #[test]
    fn witness_recovery_beats_replay_under_compound_outage() {
        // Acceptance gate: under a MasterCrash + RemoteTierOutage
        // compound plan the witness-quorum path (peer-memory read, no
        // remote dependency) must beat the master-replay path, which has
        // to wait out the outage. Same plan, both recovery preferences.
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at: SimTime::from_secs(250),
                kind: FaultKind::RemoteTierOutage { window: SimDuration::from_secs(250) },
            },
            FaultEvent {
                at: SimTime::from_secs(300),
                kind: FaultKind::MasterCrash { restart: SimDuration::from_secs(60) },
            },
        ]);
        let replay_cfg = ChaosConfig::default();
        let witness_cfg = ChaosConfig { prefer_witness: true, ..ChaosConfig::default() };
        let replay_report =
            run_chaos_job(&spec(), allocation(), &plan, &replay_cfg, &Telemetry::default());
        let witness_report =
            run_chaos_job(&spec(), allocation(), &plan, &witness_cfg, &Telemetry::default());
        assert!(replay_report.oracle.passed(), "{:?}", replay_report.oracle.violations());
        assert!(witness_report.oracle.passed(), "{:?}", witness_report.oracle.violations());
        let replay = replay_report.recoveries.first().expect("replay recovery");
        let witness = witness_report.recoveries.first().expect("witness recovery");
        assert_eq!(replay.path, RecoveryPath::MasterReplay);
        assert_eq!(
            witness.path,
            RecoveryPath::WitnessQuorum,
            "quorum is intact, so the witness path must serve the restore"
        );
        assert!(
            witness.downtime < replay.downtime,
            "witness must beat replay under the outage: {:?} !< {:?}",
            witness.downtime,
            replay.downtime
        );
        // The witness restore must never resume past the co-signed
        // watermark: no uncommitted restore.
        assert!(witness.samples_done <= replay.samples_done);
    }

    #[test]
    fn witness_partition_falls_back_to_replay() {
        // With the quorum partitioned away at crash time, prefer_witness
        // must degrade to master replay instead of trusting an
        // unwitnessed manifest.
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at: SimTime::from_secs(250),
                kind: FaultKind::WitnessPartition { peers: 2, window: SimDuration::from_secs(400) },
            },
            FaultEvent {
                at: SimTime::from_secs(300),
                kind: FaultKind::MasterCrash { restart: SimDuration::from_secs(60) },
            },
        ]);
        let cfg = ChaosConfig { prefer_witness: true, ..ChaosConfig::default() };
        let report = run_chaos_job(&spec(), allocation(), &plan, &cfg, &Telemetry::default());
        assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
        let recovery = report.recoveries.first().expect("recovery recorded");
        assert_eq!(
            recovery.path,
            RecoveryPath::MasterReplay,
            "2-of-3 peers partitioned leaves no quorum; must fall back to replay"
        );
    }

    #[test]
    fn retry_exhaustion_degrades_instead_of_looping() {
        // A storm longer than the retry deadline: the replacement's
        // backoff exhausts, the master falls back to the surviving shape,
        // and the degraded job still finishes the dataset — with the
        // oracle happy because degradation waives the recovery deadline.
        let cfg = ChaosConfig {
            retry: RetryPolicy {
                base: SimDuration::from_secs(10),
                jitter_permille: 0,
                max_attempts: 3,
                deadline: SimDuration::from_mins(2),
                ..driver_retry_policy()
            },
            ..ChaosConfig::default()
        };
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at: SimTime::from_secs(100),
                kind: FaultKind::DenialStorm { pods: 4, window: SimDuration::from_mins(8) },
            },
            FaultEvent { at: SimTime::from_secs(130), kind: FaultKind::WorkerKill { worker: 0 } },
        ]);
        let telemetry = Telemetry::default();
        let report = run_chaos_job(&spec(), allocation(), &plan, &cfg, &telemetry);
        assert_eq!(report.health, JobHealth::Degraded);
        assert!(report.jct_us.is_some(), "degraded job keeps training on the surviving shape");
        assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
        assert_eq!(report.truth.samples_done, report.truth.total_samples);
        let snap = telemetry.snapshot();
        assert!(
            snap.events.iter().any(|e| matches!(e.kind, EventKind::RetryExhausted { .. })),
            "the backoff sequence must exhaust"
        );
        assert!(
            snap.events.iter().any(|e| matches!(e.kind, EventKind::JobDegraded { .. })),
            "exhaustion must degrade the job"
        );
    }

    impl ChaosDriver<'_> {
        /// [`ChaosDriver::finish`] against the reference run of the test
        /// gang, [`allocation`].
        pub(super) fn finish_with_reference(self) -> ChaosReport {
            let baseline = baseline_jct(self.spec, allocation(), &self.cfg.runner);
            self.finish(baseline)
        }

        /// The engine worker slots the job holds (serving or starting) and
        /// the slots the ledger binds a worker pod to, both ascending: equal
        /// when every held slot has its pod and every bound pod a held slot.
        pub(super) fn worker_slots(&self) -> (Vec<usize>, Vec<usize>) {
            let engine = self.master.engine();
            let held = (0..engine.worker_slot_count())
                .filter(|&i| engine.worker_state(i) != WorkerState::Gone);
            let worker_slot = |e: &PodEntry| match (e.role, &e.stage) {
                (JobPod::Worker, &Stage::Bound { slot }) => Some(slot),
                _ => None,
            };
            let mut bound: Vec<usize> = self.pods.0.iter().filter_map(worker_slot).collect();
            bound.sort_unstable();
            (held.collect(), bound)
        }

        /// Bound worker slots that are live while their pod is not
        /// Running, or not live while it is: a slot joins on the tick its
        /// pod starts running.
        pub(super) fn slots_out_of_step(&self) -> Vec<usize> {
            let engine = self.master.engine();
            let running = |pod| self.cluster.pod(pod).map(|p| p.phase()) == Some(PodPhase::Running);
            let out_of_step = |e: &PodEntry| match (e.role, &e.stage, e.pod) {
                (JobPod::Worker, &Stage::Bound { slot }, Some(pod))
                    if engine.worker_is_alive(slot) != running(pod) =>
                {
                    Some(slot)
                }
                _ => None,
            };
            self.pods.0.iter().filter_map(out_of_step).collect()
        }
    }

    /// A 40 000-step job on the static 4w/2p gang: long enough that a
    /// crash at 900 s lands mid-run.
    fn long_spec() -> TrainingJobSpec {
        TrainingJobSpec::paper_default(40_000)
    }

    fn crash_at(secs: u64) -> FaultEvent {
        let restart = SimDuration::from_secs(45);
        FaultEvent { at: SimTime::from_secs(secs), kind: FaultKind::MasterCrash { restart } }
    }

    /// Job-0 pods requested at or after `events[from]`.
    fn requested_from(events: &[Event], from: usize) -> Vec<u64> {
        let job0 = |e: &Event| match e.kind {
            EventKind::PodRequested { job: 0, pod, .. } => Some(pod),
            _ => None,
        };
        events[from..].iter().filter_map(job0).collect()
    }

    /// Index of the `n`th (from 0) `FaultInjected` marker.
    fn marker(events: &[Event], n: u64) -> usize {
        let is_marker = |e: &Event| matches!(&e.kind, EventKind::FaultInjected(f) if f.fault == n);
        events.iter().position(is_marker).expect("fault delivered")
    }

    /// A master crash kills no pods: the rebuilt master re-adopts the whole
    /// static gang and asks the cluster for nothing.
    #[test]
    fn master_crash_readopts_the_whole_gang() {
        let plan = FaultPlan::from_events(vec![crash_at(900)]);
        let telemetry = Telemetry::default();
        let cfg = ChaosConfig::default();
        let report = run_chaos_job(&long_spec(), allocation(), &plan, &cfg, &telemetry);
        assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
        assert_eq!(report.recoveries[0].workers_readopted, 4);
        let events = telemetry.events();
        let crash = marker(&events, 0);
        let restarted = events[crash..].iter().find_map(|e| match e.kind {
            EventKind::MasterRestarted { workers, .. } => Some(workers),
            _ => None,
        });
        assert_eq!(restarted, Some(4));
        assert_eq!(requested_from(&events, crash), Vec::<u64>::new(), "no pod re-requested");
    }

    /// A crash inside a replacement's start-up keeps the replacement: the
    /// kill asks for exactly one pod, it is re-adopted as a starting slot,
    /// and it is the pod bound once it has started.
    #[test]
    fn master_crash_keeps_a_starting_replacement() {
        let kill =
            FaultEvent { at: SimTime::from_secs(120), kind: FaultKind::WorkerKill { worker: 1 } };
        let plan = FaultPlan::from_events(vec![kill, crash_at(150)]);
        let (spec, cfg, telemetry) = (long_spec(), ChaosConfig::default(), Telemetry::default());
        let mut driver = ChaosDriver::new(&spec, allocation(), &plan, &cfg, &telemetry);
        while driver.step(None) {}
        let events = telemetry.events();
        let requested = requested_from(&events, marker(&events, 0));
        assert_eq!(requested.len(), 1, "one replacement for one kill: {requested:?}");
        let pod = PodId(requested[0]);
        let running_at = driver.cluster.pod(pod).and_then(|p| p.running_at);
        assert!(running_at > Some(SimTime::from_secs(150)), "the crash lands inside its start-up");
        assert!(matches!(driver.pods.binding_of(pod), Some((JobPod::Worker, _))));
        let report = driver.finish_with_reference();
        assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
        assert_eq!(report.recoveries[0].workers_readopted, 4, "three serving, one starting");
    }

    /// A crash whose ten-minute downtime outlasts the replacement's start-up:
    /// the pod is promoted at the rebuilt master's first tick boundary, and
    /// its slot joins there, not at the restart, when the pod is still
    /// starting.
    #[test]
    fn master_crash_past_a_start_up_joins_the_replacement_with_its_pod() {
        let kill =
            FaultEvent { at: SimTime::from_secs(120), kind: FaultKind::WorkerKill { worker: 1 } };
        let restart = SimDuration::from_mins(10);
        let crash =
            FaultEvent { at: SimTime::from_secs(150), kind: FaultKind::MasterCrash { restart } };
        let plan = FaultPlan::from_events(vec![kill, crash]);
        let (spec, cfg, telemetry) = (long_spec(), ChaosConfig::default(), Telemetry::default());
        let driver = step_checking_slots(&spec, &plan, &cfg, &telemetry, None);
        let events = telemetry.events();
        let pod = PodId(requested_from(&events, marker(&events, 0))[0]);
        let running_at = driver.cluster.pod(pod).and_then(|p| p.running_at).expect("started");
        let resumed = events.iter().find_map(|e| match e.kind {
            EventKind::MasterRestarted { .. } => Some(e.at()),
            _ => None,
        });
        assert!(resumed.is_some_and(|at| at < running_at), "ran at {running_at}, {resumed:?}");
        let report = driver.finish_with_reference();
        assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
    }

    /// The one-node node loss of the `node_loss/parked` pin, then a crash
    /// while every replacement is still parked: the rebuilt master has no
    /// worker slot until a replacement is placed, and at no tick does a
    /// held engine slot lack its pod.
    #[test]
    fn master_crash_while_replacements_are_parked_runs_no_podless_slot() {
        let cfg = ChaosConfig {
            cluster: ClusterConfig { nodes: 1, ..ChaosConfig::default().cluster },
            ..ChaosConfig::default()
        };
        let loss =
            FaultEvent { at: SimTime::from_secs(300), kind: FaultKind::NodeLoss { node: 0 } };
        let plan = FaultPlan::from_events(vec![loss, crash_at(600)]);
        let (spec, telemetry) = (long_spec(), Telemetry::default());
        let mut driver = ChaosDriver::new(&spec, allocation(), &plan, &cfg, &telemetry);
        while driver.step(None) {
            let (held, bound) = driver.worker_slots();
            assert_eq!(held, bound, "{}: held engine slots vs bound pods", driver.now);
        }
        let report = driver.finish_with_reference();
        assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
        assert_eq!(report.recoveries[0].workers_readopted, 0);
        assert_eq!(report.truth.samples_done, report.truth.total_samples);
    }

    /// The newest manifest (the 240 s save) is corrupted, a PS kill's
    /// hand-off follows, then a crash before the next periodic save: the
    /// replay path restores the 120 s manifest and the witness path its
    /// pinned 240 s copy, and each reports the step it restored — not the
    /// newest save's, nor the hand-off's, which no checkpoint holds.
    #[test]
    fn master_crash_reports_the_step_it_restored() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at: SimTime::from_secs(270),
                kind: FaultKind::ManifestCorruption { manifest: 0 },
            },
            FaultEvent { at: SimTime::from_secs(300), kind: FaultKind::PsKill { ps: 0 } },
            crash_at(330),
        ]);
        for prefer_witness in [false, true] {
            let cfg = ChaosConfig { prefer_witness, ..ChaosConfig::default() };
            let telemetry = Telemetry::default();
            let report = run_chaos_job(&long_spec(), allocation(), &plan, &cfg, &telemetry);
            assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
            let events = telemetry.events();
            let after_crash = &events[marker(&events, 2)..];
            let restored = after_crash.iter().find_map(|e| match &e.kind {
                EventKind::CheckpointRestored(r) => Some(r.step),
                _ => None,
            });
            let recovered = after_crash.iter().find_map(|e| match &e.kind {
                EventKind::JobRecovered(r) => Some(r.step),
                _ => None,
            });
            assert!(restored.is_some_and(|step| step > 0), "witness {prefer_witness}");
            assert_eq!(recovered, restored, "witness {prefer_witness}");
            assert_eq!(Some(report.recoveries[0].checkpoint_step), restored);
        }
    }

    /// Steps a static-gang job of `spec` under `plan` and `cfg` to its end,
    /// checking after every tick that the engine slots the job holds are
    /// exactly those bound to a worker pod; returns the finished driver.
    fn step_checking_slots<'a>(
        spec: &'a TrainingJobSpec,
        plan: &'a FaultPlan,
        cfg: &'a ChaosConfig,
        telemetry: &'a Telemetry,
        mut policy: Option<&mut dyn SchedulerPolicy>,
    ) -> ChaosDriver<'a> {
        let mut driver = ChaosDriver::new(spec, allocation(), plan, cfg, telemetry);
        while driver.step(policy.as_deref_mut()) {
            let (held, bound) = driver.worker_slots();
            assert_eq!(held, bound, "{}: held engine slots vs bound pods", driver.now);
            assert_eq!(
                driver.slots_out_of_step(),
                [],
                "{}: live slots vs running pods",
                driver.now
            );
        }
        driver
    }

    /// The gang packs onto node 0 of two, a kill's replacement is placed
    /// there too, and losing the node 60 s later loses the replacement while
    /// it starts: its slot fails with it, and the replacement asked for in
    /// its place is the one that joins.
    #[test]
    fn a_replacement_lost_while_starting_leaves_no_slot() {
        let cfg = ChaosConfig {
            cluster: ClusterConfig { nodes: 2, ..ChaosConfig::default().cluster },
            ..ChaosConfig::default()
        };
        let kill =
            FaultEvent { at: SimTime::from_secs(120), kind: FaultKind::WorkerKill { worker: 1 } };
        let loss =
            FaultEvent { at: SimTime::from_secs(180), kind: FaultKind::NodeLoss { node: 0 } };
        let plan = FaultPlan::from_events(vec![kill, loss]);
        let (spec, telemetry) = (long_spec(), Telemetry::default());
        let driver = step_checking_slots(&spec, &plan, &cfg, &telemetry, None);
        let events = telemetry.events();
        let lost = PodId(requested_from(&events, marker(&events, 0))[0]);
        let lost = driver.cluster.pod(lost).expect("requested");
        assert_eq!(
            (lost.phase(), lost.running_at),
            (PodPhase::Failed, None),
            "lost while starting"
        );
        let report = driver.finish_with_reference();
        assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
        assert_eq!(report.truth.samples_done, report.truth.total_samples);
    }

    /// Thirteen worker kills, ten minutes apart, against the default twelve
    /// relaunches: the master refuses the last replacement (the budget is
    /// drained, so the job degrades) and its pod is released at once.
    #[test]
    fn a_refused_replacement_holds_no_pod() {
        let kill = |k: u64| FaultEvent {
            at: SimTime::from_secs(120 + 600 * k),
            kind: FaultKind::WorkerKill { worker: k as u32 },
        };
        let plan = FaultPlan::from_events((0..13).map(kill).collect());
        let cfg = ChaosConfig::default();
        assert_eq!(cfg.runner.master.failure_budget.worker_relaunches, 12);
        let (spec, telemetry) = (TrainingJobSpec::paper_default(200_000), Telemetry::default());
        let mut driver = ChaosDriver::new(&spec, allocation(), &plan, &cfg, &telemetry);
        while driver.step(None) {}
        assert_eq!(driver.faults_injected, 13);
        let unslotted: Vec<PodId> = (driver.cluster.pods())
            .filter(|p| p.spec.job_id == 0 && p.spec.role == PodRole::Worker)
            .filter(|p| !p.phase().is_terminal() && driver.pods.binding_of(p.id).is_none())
            .map(|p| p.id)
            .collect();
        assert_eq!(unslotted, [], "worker pods held without a slot");
        let events = telemetry.events();
        let refused = PodId(requested_from(&events, marker(&events, 12))[0]);
        let refused = driver.cluster.pod(refused).expect("requested");
        assert!(refused.phase().is_terminal() && refused.running_at.is_none(), "{refused:?}");
        let report = driver.finish_with_reference();
        assert_eq!(report.health, JobHealth::Degraded);
        assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
    }

    /// ES's first move adds a worker, and the one node, which the gang fills
    /// exactly, cannot place it: the slot opened for it fails, so the
    /// degraded shape is the gang the job holds pods for.
    #[test]
    fn a_denied_scale_up_leaves_no_slot() {
        let gang = Resources::new(4.0 * 4.0 + 2.0 * 4.0, 4.0 * 8.0 + 2.0 * 64.0);
        let cluster =
            ClusterConfig { nodes: 1, node_capacity: gang, ..ChaosConfig::default().cluster };
        let cfg = ChaosConfig { cluster, ..ChaosConfig::default() };
        let space = dlrover_optimizer::PlanSearchSpace {
            workers: (1, 12),
            ..dlrover_optimizer::PlanSearchSpace::default()
        };
        let mut es = dlrover_baselines::EsPolicy::new(allocation(), space, 1);
        let (spec, plan, telemetry) = (spec(), FaultPlan::default(), Telemetry::default());
        let driver = step_checking_slots(&spec, &plan, &cfg, &telemetry, Some(&mut es));
        let report = driver.finish_with_reference();
        assert_eq!(report.health, JobHealth::Degraded, "the scale-up was denied");
        assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
        assert_eq!(report.truth.samples_done, report.truth.total_samples);
    }

    /// Every pod takes about two hours to start: the killed worker's
    /// replacement is still starting [`STARTUP_TIMEOUT`] after its placement,
    /// so it is released and a second pod is requested right then.
    #[test]
    fn a_stuck_start_up_is_replaced_after_the_timeout() {
        let mut cfg = ChaosConfig::default();
        cfg.runner.startup = dlrover_cluster::StartupLatencyModel {
            scheduling_mean_s: 3_600.0,
            image_pull_mean_s: 3_600.0,
            sigma: 0.01,
            scarcity_factor: 0.0,
        };
        let kill =
            FaultEvent { at: SimTime::from_secs(120), kind: FaultKind::WorkerKill { worker: 1 } };
        let plan = FaultPlan::from_events(vec![kill]);
        let (spec, telemetry) = (long_spec(), Telemetry::default());
        let mut driver = ChaosDriver::new(&spec, allocation(), &plan, &cfg, &telemetry);
        let timed_out = SimTime::from_secs(120) + STARTUP_TIMEOUT;
        while driver.step(None) && driver.now < timed_out {}
        let events = telemetry.events();
        let requested = requested_from(&events, marker(&events, 0));
        assert_eq!(requested.len(), 2, "{requested:?}");
        let (stuck, second) = (PodId(requested[0]), PodId(requested[1]));
        let stuck = driver.cluster.pod(stuck).expect("requested");
        assert_eq!(stuck.placed_at, Some(SimTime::from_secs(120)));
        assert_eq!((stuck.phase(), stuck.running_at), (PodPhase::Failed, None), "released");
        let second = driver.cluster.pod(second).expect("requested");
        assert_eq!(second.requested_at, timed_out);
        assert!(matches!(driver.pods.binding_of(second.id), Some((JobPod::Worker, _))));
        assert_eq!(telemetry.counter("chaos.startup_timeouts"), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dlrover_master::{JobRuntimeProfile, PolicyDecision, ReconfigRequest};
    use dlrover_optimizer::PlanSearchSpace;
    use dlrover_perfmodel::{ExecPlan, GradientMode, JobShape, MemoryModel};
    use dlrover_pstrain::MigrationStrategy;
    use dlrover_sim::FaultEvent;
    use proptest::prelude::*;

    impl ChaosDriver<'_> {
        /// Live pods of the job that are not held by exactly one ledger
        /// entry, with how many hold each.
        fn misheld_pods(&self) -> Vec<(PodId, usize)> {
            (self.cluster.pods())
                .filter(|p| p.spec.job_id == 0 && !p.phase().is_terminal())
                .map(|p| (p.id, self.pods.held().filter(|&held| held == p.id).count()))
                .filter(|&(_, holders)| holders != 1)
                .collect()
        }
    }

    /// Asks for a plan switch whenever the healthy job has no window open:
    /// to sync at the spec batch written out (the master stores it as `0`)
    /// from the default plan, and back.
    struct WindowPolicy(ResourceAllocation);

    impl SchedulerPolicy for WindowPolicy {
        fn name(&self) -> &str {
            "windows"
        }

        fn initial_allocation(&mut self) -> ResourceAllocation {
            self.0
        }

        fn adjust(&mut self, profile: &JobRuntimeProfile) -> Option<PolicyDecision> {
            let sync =
                ExecPlan { gradient_mode: GradientMode::Sync, ps_replicas: 1, batch_size: 512 };
            let target = if profile.exec.is_default() { sync } else { ExecPlan::default() };
            let reconfig = Some(ReconfigRequest { target, relayout: false });
            let strategy = MigrationStrategy::Seamless;
            (!profile.degraded).then_some(PolicyDecision { allocation: self.0, strategy, reconfig })
        }
    }

    /// The window arm: 80 GB of static PS state makes a plan switch's flash
    /// pause (~6 s) outlast a 5 s tick, and [`WindowPolicy`] adjusts every
    /// tick, so a window is open at every other tick boundary — where
    /// faults land — from 5 s on. One worker relaunch: a second kill
    /// degrades the job, rolling back the window it lands in.
    fn window_arm(spec: &mut TrainingJobSpec, cfg: &mut ChaosConfig) {
        spec.memory = MemoryModel::new(8.0e10, 256.0, 5.0e7, 5.0e7);
        cfg.runner.profile_interval = SimDuration::from_secs(5);
        cfg.runner.adjust_interval = cfg.runner.profile_interval;
        cfg.runner.master.failure_budget.worker_relaunches = 1;
    }

    /// Steps a job of `spec` to its end, checking after every tick that
    /// the fold of its log so far (applied record by record as the log
    /// grows) equals the live master's [`JobMaster::control`], that pods
    /// are conserved (the end-of-run `no_leaks` audit runs after a drain
    /// that would hide a pod tracked twice, or not at all, in the middle of
    /// the run) and that the engine slots the job holds, serving or
    /// starting, are exactly the slots bound to a worker pod.
    fn run_stepwise(
        spec: &TrainingJobSpec,
        mut policy: Option<&mut dyn SchedulerPolicy>,
        plan: &FaultPlan,
        cfg: &ChaosConfig,
        telemetry: &Telemetry,
    ) -> ChaosReport {
        let mut driver = ChaosDriver::new(spec, allocation(), plan, cfg, telemetry);
        let (mut replayed, mut folded) = (JobControl::default(), 0);
        while driver.step(policy.as_deref_mut()) {
            let at = format!("seed {}, {}", cfg.runner.seed, driver.now);
            let misheld = driver.misheld_pods();
            assert!(misheld.is_empty(), "{at}: (pod, holders) {misheld:?} in {:?}", driver.pods);
            telemetry.with_events(|log| {
                for e in &log[folded..] {
                    let applied = replayed.apply(&e.kind);
                    assert_eq!(applied, Ok(()), "{at}: illegal record {e:?}");
                }
                folded = log.len();
            });
            let replayed = replayed.on_job(spec.batch_size, driver.alloc.shape.ps);
            assert_eq!(replayed, driver.master.control(), "{at}: replay vs live");
            let (held, bound) = driver.worker_slots();
            assert_eq!(held, bound, "{at}: held worker slots vs bound pods");
            assert_eq!(driver.slots_out_of_step(), [], "{at}: live slots vs running pods");
        }
        driver.finish_with_reference()
    }

    /// Generated plan `seed` on `nodes` nodes with `events` faults, plus one
    /// grafted family (`family` 1: a master crash 30 s after the plan's
    /// first kill, 2: a second kill on the first kill's tick — the two the
    /// benchmark's chaos inputs filter out; 3: a loss of node 0 60 s after
    /// the first kill, inside a typical replacement's start-up; 0: the plan
    /// as generated), stepped under `policy` (0: the static gang, 1: ES, 2:
    /// [`window_arm`]); returns the pods leaked. The job needs about two
    /// hours; a day's deadline ends the runs in which every replacement
    /// exhausted its retries (they wait for a worker that never comes)
    /// while the sink's ring still holds the whole log.
    fn conserved_plan(seed: u64, nodes: usize, events: u32, policy: u32, family: u32) -> u64 {
        let (mut spec, mut cfg) = (TrainingJobSpec::paper_default(20_000), ChaosConfig::default());
        if policy == 2 {
            window_arm(&mut spec, &mut cfg);
        }
        cfg.runner.seed = seed;
        cfg.runner.deadline = SimTime::from_secs(24 * 3_600);
        cfg.cluster.nodes = nodes;
        cfg.plan = FaultPlanConfig { events, ckpt_faults: true, ..FaultPlanConfig::default() };
        let mut plan = FaultPlan::generate(&cfg.plan, &RngStreams::new(seed), 0);
        if let Some(&kill) = plan.events.iter().find(|e| e.kind.is_kill()) {
            let restart = SimDuration::from_secs(45);
            let graft = match family {
                1 => {
                    Some((kill.at + SimDuration::from_secs(30), FaultKind::MasterCrash { restart }))
                }
                2 => {
                    Some((kill.at, FaultKind::WorkerKill { worker: kill.kind.target() as u32 + 1 }))
                }
                3 => Some((kill.at + SimDuration::from_secs(60), FaultKind::NodeLoss { node: 0 })),
                _ => None,
            };
            if let Some((at, kind)) = graft {
                plan.events.push(FaultEvent { at, kind });
                plan = FaultPlan::from_events(plan.events);
            }
        }
        let space = PlanSearchSpace { workers: (1, 12), ps: (1, 4), ..PlanSearchSpace::default() };
        let mut es = dlrover_baselines::EsPolicy::new(allocation(), space, 1);
        let mut windows = WindowPolicy(allocation());
        let policy: Option<&mut dyn SchedulerPolicy> = match policy {
            1 => Some(&mut es),
            2 => Some(&mut windows),
            _ => None,
        };
        run_stepwise(&spec, policy, &plan, &cfg, &Telemetry::default()).truth.leaked_pods
    }

    /// The window arm under two worker kills (the second drains the
    /// relaunch budget) and under a master crash, each landing on a tick
    /// boundary inside an open window: windows commit before it, the fault
    /// rolls the open one back, and the fold of the log equals the live
    /// control state at every tick throughout.
    #[test]
    fn windows_commit_and_roll_back_under_kills_and_a_crash() {
        let (mut spec, mut cfg) = (TrainingJobSpec::paper_default(20_000), ChaosConfig::default());
        window_arm(&mut spec, &mut cfg);
        let fault = |secs, kind| FaultEvent { at: SimTime::from_secs(secs), kind };
        let kill = FaultKind::WorkerKill { worker: 1 };
        let crash = FaultKind::MasterCrash { restart: SimDuration::from_secs(45) };
        for (faults, reason) in [
            (vec![fault(105, kill), fault(305, kill)], "degraded"),
            (vec![fault(305, crash)], "master-crash"),
        ] {
            let (plan, telemetry) = (FaultPlan::from_events(faults), Telemetry::default());
            let mut policy = WindowPolicy(allocation());
            let report = run_stepwise(&spec, Some(&mut policy), &plan, &cfg, &telemetry);
            assert_eq!(report.truth.samples_done, report.truth.total_samples, "{reason}");
            let events = telemetry.events();
            let rolled_back: Vec<&str> = (events.iter())
                .filter_map(|e| match &e.kind {
                    EventKind::ReconfigRolledBack(r) => Some(r.reason.as_ref()),
                    _ => None,
                })
                .collect();
            assert_eq!(rolled_back, [reason]);
            let committed = events.iter().filter(|e| e.kind.name() == "ReconfigApplied").count();
            assert!(committed > 10, "{reason}: {committed} windows committed");
        }
    }

    fn allocation() -> ResourceAllocation {
        ResourceAllocation::new(JobShape::new(4, 2, 4.0, 4.0, 512), 8.0, 64.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// No denial-storm plan — whatever its filler fleet, window, or kill
        /// timing — may drive the driver past the oracle's retry-attempt
        /// bound (DESIGN §6, no retry storm).
        #[test]
        fn storm_plans_never_trip_the_retry_storm_invariant(
            pods in 1u32..64,
            window_s in 30u64..360,
            kill_offset_s in 0u64..300,
        ) {
            let plan = FaultPlan::from_events(vec![
                FaultEvent {
                    at: SimTime::from_secs(60),
                    kind: FaultKind::DenialStorm {
                        pods,
                        window: SimDuration::from_secs(window_s),
                    },
                },
                FaultEvent {
                    at: SimTime::from_secs(60 + kill_offset_s),
                    kind: FaultKind::WorkerKill { worker: 0 },
                },
            ]);
            let (spec, telemetry) = (TrainingJobSpec::paper_default(20_000), Telemetry::default());
            let report = run_stepwise(&spec, None, &plan, &ChaosConfig::default(), &telemetry);
            prop_assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
            prop_assert_eq!(report.truth.samples_done, report.truth.total_samples);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Generated plans of every fault kind, on clusters small enough
        /// that node losses park replacements and bursts preempt the job,
        /// with a crash inside a kill's recovery, two kills on one tick or a
        /// node loss inside a replacement's start-up grafted on, under the
        /// static gang, a policy that reshapes it and one that keeps a
        /// reconfiguration window open at every other tick boundary:
        /// `run_stepwise`'s checks hold at every tick, and the drain leaves
        /// nothing behind.
        #[test]
        fn pods_are_conserved_between_ticks(
            seed in 0u64..1_000,
            nodes in 1usize..4,
            events in 1u32..10,
            policy in 0u32..3,
            family in 0u32..4,
        ) {
            prop_assert_eq!(conserved_plan(seed, nodes, events, policy, family), 0);
        }
    }

    /// The same checks over 4 000 plans, every combination of cluster size,
    /// fault count, policy and family about 12 times. Run by CI's
    /// `cargo test --release -p dlrover-rm -- --ignored`.
    #[test]
    #[ignore = "4 000 stepped chaos runs; release build"]
    fn pods_are_conserved_between_ticks_over_4000_plans() {
        for seed in 0..4_000u64 {
            let (nodes, events) = (1 + seed as usize % 3, 1 + (seed / 3 % 9) as u32);
            let (policy, family) = ((seed / 27 % 3) as u32, (seed / 81 % 4) as u32);
            assert_eq!(conserved_plan(seed, nodes, events, policy, family), 0, "seed {seed}");
        }
    }
}
