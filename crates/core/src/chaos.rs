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
//! ([`ReplayedJobState`], §6).
//!
//! Everything is virtual-time and seeded: the same
//! `(seed, plan)` pair replays the same run byte-for-byte, which is what
//! lets CI assert system-wide invariants instead of eyeballing flakes.
//!
//! The work is done by a module-private `ChaosDriver` that advances the
//! job one `profile_interval` tick per `step`, each tick the same ordered
//! phases (DESIGN.md §6); the public functions step it to the end. The
//! order of RNG draws, cluster calls and telemetry records inside a tick is
//! pinned by `tests/chaos_snapshot_golden.rs`.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use dlrover_cluster::{
    Cluster, ClusterConfig, ClusterEvent, NodeId, PodId, PodPhase, PodRole, PodSpec, Priority,
    Resources,
};
use dlrover_master::replay::{RecoveryOutcome, RecoveryPath};
use dlrover_master::{
    CheckpointPlane, CkptPlaneConfig, JobHealth, JobMaster, MasterEvent, PlaneStats,
    ReplayedJobState, RetryDecision, RetryPolicy, RetrySupervisor, SchedulerPolicy, WitnessBoard,
};
use dlrover_optimizer::ResourceAllocation;
use dlrover_pstrain::{CheckpointExtent, PodState, TrainingJobSpec};
use dlrover_sim::{
    FaultEvent, FaultKind, FaultPlan, FaultPlanConfig, RngStreams, SimDuration, SimTime, StreamRng,
};
use dlrover_telemetry::{
    Event, EventKind, GroundTruth, Invariant, Oracle, OracleConfig, OracleReport, SpanCategory,
    Telemetry,
};
use serde::{Deserialize, Serialize};

use crate::runner::RunnerConfig;

/// How long a lost node stays out of the pool, and how long a
/// preemption-burst service pod stays resident before the service scales
/// back down.
const NODE_OUTAGE: SimDuration = SimDuration::from_mins(15);
const BURST_RESIDENCY: SimDuration = SimDuration::from_mins(10);

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

/// A placed replacement whose startup has not finished.
#[derive(Debug, Clone, Copy)]
struct Starting {
    ready_at: SimTime,
    pod: PodId,
    role: JobPod,
}

/// A replacement the scheduler has not yet admitted: either the request
/// is frozen by an active denial storm (`pod: None`) or the cluster
/// parked the pod pending capacity (`pod: Some`). The retry supervisor
/// paces further attempts.
#[derive(Debug)]
struct Parked {
    op: String,
    role: JobPod,
    pod: Option<PodId>,
}

/// The job's cluster pods, by what the driver is doing with each. A live
/// pod of the job sits in exactly one collection (the step-wise proptest
/// checks it between ticks); the driver's phases move pods
/// parked → starting → ready → bound, and a kill takes one out.
#[derive(Debug, Default)]
struct JobPods {
    /// Engine worker slot → the Running pod bound to it.
    workers: BTreeMap<usize, PodId>,
    /// Partition index → its pod. A killed PS keeps its (terminal) entry
    /// until the replacement finishes starting and takes the slot.
    ps: Vec<PodId>,
    /// Running worker pods waiting for the master to materialise an engine
    /// slot, bound in FIFO order.
    ready: VecDeque<PodId>,
    starting: Vec<Starting>,
    parked: Vec<Parked>,
}

impl JobPods {
    fn worker_slot_of(&self, pod: PodId) -> Option<usize> {
        self.workers.iter().find(|(_, &p)| p == pod).map(|(&idx, _)| idx)
    }

    fn partition_of(&self, pod: PodId) -> Option<usize> {
        self.ps.iter().position(|&p| p == pod)
    }

    /// Worker pods the job holds or has asked for, bound or not.
    fn tracked_workers(&self) -> usize {
        self.workers.len()
            + self.ready.len()
            + self.starting.iter().filter(|s| s.role.is_worker()).count()
            + self.parked.iter().filter(|p| p.role.is_worker()).count()
    }

    /// Every pod held, collection by collection.
    fn held(&self) -> impl Iterator<Item = PodId> + '_ {
        (self.workers.values().copied())
            .chain(self.ps.iter().copied())
            .chain(self.ready.iter().copied())
            .chain(self.starting.iter().map(|s| s.pod))
            .chain(self.parked.iter().filter_map(|p| p.pod))
    }

    /// Forgets every worker pod that is not bound to an engine slot
    /// (starting, parked, ready) and returns them. PS placements stay: they
    /// carry their partition index.
    fn take_unbound_workers(&mut self) -> Vec<PodId> {
        let starting = self.starting.iter().filter(|s| s.role.is_worker()).map(|s| s.pod);
        let parked = self.parked.iter().filter(|p| p.role.is_worker()).filter_map(|p| p.pod);
        let released = starting.chain(parked).chain(self.ready.iter().copied()).collect();
        self.starting.retain(|s| !s.role.is_worker());
        self.parked.retain(|p| !p.role.is_worker());
        self.ready.clear();
        released
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
    let baseline = baseline_jct(spec, alloc, &cfg.runner);
    ChaosDriver::new(spec, alloc, plan, cfg, telemetry, baseline).run(None)
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
    let baseline = baseline_jct(spec, alloc, &cfg.runner);
    ChaosDriver::new(spec, alloc, plan, cfg, telemetry, baseline).run(Some(policy))
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
    let streams = RngStreams::new(cfg.runner.seed);
    // A pure function of `(spec, alloc, cfg.runner)`: once for all plans.
    let baseline = baseline_jct(spec, alloc, &cfg.runner);
    (0..plans)
        .map(|i| {
            let plan = FaultPlan::generate(&cfg.plan, &streams, i);
            let telemetry = Telemetry::default();
            let report = ChaosDriver::new(spec, alloc, &plan, cfg, &telemetry, baseline).run(None);
            (plan, report)
        })
        .collect()
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
    /// [`baseline_jct`] of the same `(spec, alloc, cfg.runner)`.
    baseline: SimDuration,

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
        baseline: SimDuration,
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
            baseline,
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
        for idx in 0..driver.master.engine().worker_slot_count() {
            let id = driver.place_initial(JobPod::Worker);
            driver.pods.workers.insert(idx, id);
        }
        for idx in 0..driver.master.engine().partitions().len() {
            let id = driver.place_initial(JobPod::Ps(idx));
            driver.pods.ps.push(id);
        }
        driver
    }

    /// Steps the job to its end (or the deadline) and audits it.
    fn run(mut self, mut policy: Option<&mut (dyn SchedulerPolicy + '_)>) -> ChaosReport {
        while self.step(policy.as_deref_mut()) {}
        self.finish()
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
        self.bind_ready_workers(); // 6
        !self.done
    }

    /// Releases every pod the harness still holds and audits the run.
    /// Anything left non-terminal (or any allocation still held) after the
    /// drain is a leak — exactly what the oracle's NoLeaks invariant flags.
    fn finish(mut self) -> ChaosReport {
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
            baseline_jct: self.baseline,
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
            baseline_jct_us: self.baseline.as_micros(),
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

    /// A replacement was placed: sample its startup, tell the master (which
    /// materialises a worker's engine slot after the same delay; a PS
    /// replacement was announced by `handle_ps_failure`), and wait.
    fn begin_startup(&mut self, pod: PodId, role: JobPod) {
        let startup = self.sample_startup();
        if role.is_worker() {
            self.master.replace_failed_worker(startup);
        }
        self.pods.starting.push(Starting { ready_at: self.now + startup, pod, role });
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
            self.pods.parked.push(Parked { op, role, pod: None });
            return;
        }
        match self.cluster.request_pod(self.pod_spec(role), self.now) {
            Ok((id, _)) if self.is_starting(id) => self.begin_startup(id, role),
            Ok((id, _)) => {
                // Cluster parked it (capacity/cordon).
                let _ = self.retries.poll(&op, self.now);
                self.pods.parked.push(Parked { op, role, pod: Some(id) });
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
        self.pods.workers.remove(&idx);
        self.master.engine_mut().fail_worker(idx);
        self.request_replacement(JobPod::Worker);
    }

    /// A PS kill: fail the pod and restore the partition from the
    /// checkpoint plane — hot tier when resident (seamless migration,
    /// sub-second pause, §5.3), remote tier otherwise (waiting out any
    /// outage window). The replacement pod follows through the normal
    /// placement path.
    fn kill_ps(&mut self, idx: usize) {
        self.cluster.fail_pod(self.pods.ps[idx]);
        let startup = self.sample_startup();
        self.master.handle_ps_failure(idx, startup);
        if let Some(r) = self.plane.restore(0, self.now) {
            let stall = r.resume_at().saturating_since(self.now);
            self.master.engine_mut().pause(stall);
        }
        self.request_replacement(JobPod::Ps(idx));
    }

    /// The cluster took `pod` away (node loss, preemption, organic churn):
    /// a kill of whichever bound worker or PS it was. Failing a pod the
    /// cluster already failed or preempted is a no-op; pods that are not
    /// bound (starting, ready, service pods) are nobody's slot to recover.
    fn lose_pod(&mut self, pod: PodId) {
        if let Some(idx) = self.pods.worker_slot_of(pod) {
            self.kill_worker(idx, pod);
        } else if let Some(idx) = self.pods.partition_of(pod) {
            self.kill_ps(idx);
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
            EventKind::FaultInjected {
                fault: self.faults_injected,
                kind: fault.kind.name().to_string(),
                target: fault.kind.target(),
            },
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

    /// 1. Placed replacement pods whose startup completed become Running;
    ///    the master materialises the matching engine worker in the same
    ///    tick (same ready time, same clock).
    fn promote_started(&mut self) {
        for s in std::mem::take(&mut self.pods.starting) {
            if !self.is_live(s.pod) {
                continue; // killed while starting (e.g. node loss)
            }
            if s.ready_at > self.now {
                self.pods.starting.push(s);
                continue;
            }
            match s.role {
                JobPod::Worker => {
                    self.start_running(s.pod);
                    self.pods.ready.push_back(s.pod);
                }
                JobPod::Ps(idx) if idx < self.pods.ps.len() => {
                    self.start_running(s.pod);
                    self.pods.ps[idx] = s.pod;
                }
                JobPod::Ps(_) => {
                    // A policy scale-down removed this partition while its
                    // replacement was still starting: the pod has nothing
                    // to serve, so retire it instead of leaking it. (No RNG
                    // draw — organic churn only covers pods that actually
                    // join the job; the static-gang path never shrinks
                    // `ps`, so it never takes this branch.)
                    self.cluster.terminate_pod(s.pod, PodPhase::Succeeded);
                }
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
        let live: Vec<(usize, PodId)> = (self.pods.workers.iter())
            .filter(|(&i, _)| engine.worker_is_alive(i))
            .map(|(&i, &p)| (i, p))
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
        let live: Vec<usize> =
            (0..self.pods.ps.len()).filter(|&i| self.is_live(self.pods.ps[i])).collect();
        if !live.is_empty() {
            let idx = live[ps as usize % live.len()];
            self.mark(fault);
            self.kill_ps(idx);
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
    /// copy); surviving bound pods are re-adopted and any worker deficit is
    /// re-requested through the fresh master.
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
        let (replayed, path, resume_at) = self.recover_job_state(restart);
        let outcome = RecoveryOutcome::new(
            path,
            now,
            resume_at,
            replayed.samples_done,
            replayed.checkpoint_step,
            replayed.live_workers.len() as u32,
        );
        let (mut rebuilt, _) = JobMaster::from_replay(
            0,
            self.spec.clone(),
            self.alloc,
            self.cfg.runner.master,
            &replayed,
            now,
            resume_at,
        );
        rebuilt.set_telemetry(self.telemetry.clone());
        self.master = rebuilt;
        self.telemetry.record(
            resume_at,
            EventKind::MasterRestarted {
                job: 0,
                samples_done: replayed.samples_done,
                workers: replayed.live_workers.len() as u32,
            },
        );
        self.telemetry.record(
            resume_at,
            EventKind::JobRecovered {
                job: 0,
                path: outcome.path.label().to_string(),
                latency_us: outcome.downtime.as_micros(),
                step: outcome.checkpoint_step,
            },
        );
        self.telemetry.count("chaos.master_restarts", 1);
        self.master_restarts += 1;
        self.recoveries.push(outcome);

        // In-flight worker replacement intents died with the old master:
        // release their pods, re-adopt the surviving bound pods onto the
        // rebuilt engine's slots in index order, and re-request the rest.
        for id in self.pods.take_unbound_workers() {
            self.cluster.terminate_pod(id, PodPhase::Succeeded);
        }
        let slots = self.master.engine().worker_slot_count();
        let bound = std::mem::take(&mut self.pods.workers);
        for (i, id) in bound.into_values().enumerate() {
            if i < slots {
                self.pods.workers.insert(i, id);
            } else {
                self.cluster.terminate_pod(id, PodPhase::Succeeded);
            }
        }
        for _ in slots..self.alloc.shape.workers as usize {
            self.request_replacement(JobPod::Worker);
        }
    }

    /// The job state a crashed master restarts from, which path produced it,
    /// and when training resumes. Witness path (when preferred and the
    /// quorum stands): the surviving peers detect the silence, elect a
    /// recoverer, and read the pinned quorum-certified copy at peer-memory
    /// speed — no restarted master and no remote tier on the critical path,
    /// so a concurrent `RemoteTierOutage` does not gate it. Replay path:
    /// wait out the restart window, then restore the durable copy through
    /// the plane (which waits out any outage window).
    fn recover_job_state(
        &mut self,
        restart: SimDuration,
    ) -> (ReplayedJobState, RecoveryPath, SimTime) {
        let now = self.now;
        let mut replayed = self.telemetry.with_events(ReplayedJobState::from_events);
        let witness_start = now + self.witness.takeover_latency();
        let pinned =
            if self.cfg.prefer_witness { self.witness.restore(0, witness_start) } else { None };
        match pinned {
            Some(w) => {
                // The pinned manifest is the recovery truth: samples past
                // its watermark retrain (the engine's bounded-rollback
                // contract).
                replayed.samples_done = w.samples.min(replayed.samples_done);
                replayed.checkpoint_step = replayed.checkpoint_step.max(w.step);
                (replayed, RecoveryPath::WitnessQuorum, witness_start + w.duration)
            }
            None => {
                let restart_at = now + restart;
                let restore = self.plane.restore(0, restart_at);
                let resume_at = restore.map_or(restart_at, |r| r.resume_at().max(restart_at));
                (replayed, RecoveryPath::MasterReplay, resume_at)
            }
        }
    }

    /// 3. Organic churn due now: same kill machinery, no FaultInjected
    ///    marker (the oracle only deadline-checks scripted kills).
    fn deliver_organic_churn(&mut self) {
        let mut due = Vec::new();
        expire(&mut self.effects.organic, self.now, |pod| due.push(pod));
        for pod in due {
            let slot_already_dead = (self.pods.worker_slot_of(pod))
                .is_some_and(|idx| !self.master.engine().worker_is_alive(idx));
            if self.is_live(pod) && !slot_already_dead {
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
        for mut p in std::mem::take(&mut self.pods.parked) {
            match self.retries.poll(&p.op, now) {
                RetryDecision::Wait => self.pods.parked.push(p),
                RetryDecision::Exhausted => {
                    if let Some(id) = p.pod {
                        self.cluster.terminate_pod(id, PodPhase::Succeeded);
                    }
                    self.master.record_scale_denial();
                    self.telemetry.count("chaos.replacements_abandoned", 1);
                }
                RetryDecision::Attempt(_) if now < self.effects.storm_until => {
                    // Admission frozen: the attempt is denied outright.
                    self.telemetry.count("chaos.storm_denials", 1);
                    self.pods.parked.push(p);
                }
                RetryDecision::Attempt(_) => {
                    if p.pod.is_none() {
                        let spec = self.pod_spec(p.role);
                        p.pod = self.cluster.request_pod(spec, now).ok().map(|(id, _)| id);
                    }
                    let Some(id) = p.pod else {
                        self.master.record_scale_denial();
                        continue;
                    };
                    if self.cluster.pod(id).map(|x| x.phase()) == Some(PodPhase::Pending) {
                        self.cluster.schedule_pending();
                    }
                    if self.is_starting(id) {
                        self.retries.succeed(&p.op);
                        self.begin_startup(id, p.role);
                    } else {
                        self.pods.parked.push(p);
                    }
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

        // Release pods whose engine slots the resize removed (fault-killed
        // slots already left `workers` via the kill machinery, so only
        // policy removals match).
        let engine = self.master.engine();
        let partitions = engine.partitions().len();
        let removed: Vec<usize> = (self.pods.workers.keys().copied())
            .filter(|&i| i >= engine.worker_slot_count() || !engine.worker_is_alive(i))
            .collect();
        for i in removed {
            if let Some(id) = self.pods.workers.remove(&i) {
                self.cluster.terminate_pod(id, PodPhase::Succeeded);
            }
        }
        while self.pods.ps.len() > partitions {
            let id = self.pods.ps.pop().expect("len checked");
            self.cluster.terminate_pod(id, PodPhase::Succeeded);
        }

        // Grow the cluster-side fleet toward the new target. Scale-ups the
        // cluster cannot admit right now are dropped as denials rather than
        // parked: the master's engine already runs the new slots, so a
        // late-arriving pod would have nothing to bind to.
        for _ in self.pods.tracked_workers()..self.alloc.shape.workers as usize {
            if let Some(id) = self.scale_up_one(JobPod::Worker) {
                self.pods.ready.push_back(id);
            }
        }
        while self.pods.ps.len() < partitions {
            let Some(id) = self.scale_up_one(JobPod::Ps(self.pods.ps.len())) else { break };
            self.pods.ps.push(id);
        }
    }

    /// Asks for one more pod of `role` on the policy's behalf; it joins the
    /// job at once. `None` after recording the denial when the cluster
    /// cannot place it now.
    fn scale_up_one(&mut self, role: JobPod) -> Option<PodId> {
        match self.cluster.request_pod(self.pod_spec(role), self.now) {
            Ok((id, _)) if self.is_starting(id) => {
                self.start_running(id);
                Some(id)
            }
            Ok((id, _)) => {
                self.cluster.terminate_pod(id, PodPhase::Succeeded);
                self.master.record_scale_denial();
                None
            }
            Err(_) => {
                self.master.record_scale_denial();
                None
            }
        }
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
                    // The master already failed the zombie engine slot and
                    // re-queued its shard; the driver fails the
                    // still-Running cluster pod and requests a replacement
                    // through the normal path.
                    if let Some(pod) = self.pods.workers.remove(&idx) {
                        self.cluster.fail_pod(pod);
                    }
                    self.request_replacement(JobPod::Worker);
                }
                _ => {}
            }
        }
        if self.master.health() == JobHealth::Failed {
            self.done = true; // terminal: no feasible shape remains
        }
    }

    /// 6. Bind replacement workers the master just materialised to their
    ///    (already Running) cluster pods, in FIFO order.
    fn bind_ready_workers(&mut self) {
        let engine = self.master.engine();
        for idx in 0..engine.worker_slot_count() {
            if engine.worker_is_alive(idx) && !self.pods.workers.contains_key(&idx) {
                if let Some(id) = self.pods.ready.pop_front() {
                    self.pods.workers.insert(idx, id);
                }
            }
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
                EventKind::RetryAttempt { attempt, .. } => Some(*attempt),
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
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dlrover_optimizer::PlanSearchSpace;
    use dlrover_perfmodel::JobShape;
    use dlrover_sim::FaultEvent;
    use proptest::prelude::*;

    impl ChaosDriver<'_> {
        /// Live pods of the job that are not held by exactly one of the
        /// driver's collections, with how many hold each.
        fn misheld_pods(&self) -> Vec<(PodId, usize)> {
            (self.cluster.pods())
                .filter(|p| p.spec.job_id == 0 && !p.phase().is_terminal())
                .map(|p| (p.id, self.pods.held().filter(|&held| held == p.id).count()))
                .filter(|&(_, holders)| holders != 1)
                .collect()
        }
    }

    /// Steps a job to its end, checking pod conservation after every tick:
    /// the end-of-run `no_leaks` audit runs after a drain that would hide a
    /// pod tracked twice, or not at all, in the middle of the run.
    fn run_stepwise(
        alloc: ResourceAllocation,
        mut policy: Option<&mut dyn SchedulerPolicy>,
        plan: &FaultPlan,
        cfg: &ChaosConfig,
    ) -> ChaosReport {
        let spec = TrainingJobSpec::paper_default(20_000);
        let telemetry = Telemetry::default();
        let baseline = baseline_jct(&spec, alloc, &cfg.runner);
        let mut driver = ChaosDriver::new(&spec, alloc, plan, cfg, &telemetry, baseline);
        while driver.step(policy.as_deref_mut()) {
            let misheld = driver.misheld_pods();
            assert!(
                misheld.is_empty(),
                "t={}: (pod, holders) {:?} in {:?}",
                driver.now,
                misheld,
                driver.pods
            );
        }
        driver.finish()
    }

    fn allocation() -> ResourceAllocation {
        ResourceAllocation::new(JobShape::new(4, 2, 4.0, 4.0, 512), 8.0, 64.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// ISSUE-4 satellite: no denial-storm plan — whatever its filler
        /// fleet, window, or kill timing — may drive the driver past the
        /// oracle's retry-attempt bound.
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
            let report = run_stepwise(allocation(), None, &plan, &ChaosConfig::default());
            prop_assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
            prop_assert_eq!(report.truth.samples_done, report.truth.total_samples);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Generated plans of every fault kind, on clusters small enough
        /// that node losses park replacements and bursts preempt the job,
        /// under the static gang and under a policy that reshapes it: every
        /// live pod of the job stays in exactly one collection between
        /// ticks, and the drain leaves nothing behind.
        #[test]
        fn pods_are_conserved_between_ticks(
            seed in 0u64..1_000,
            nodes in 1usize..4,
            events in 1u32..10,
            with_policy in proptest::bool::ANY,
        ) {
            let mut cfg = ChaosConfig::default();
            cfg.runner.seed = seed;
            cfg.cluster.nodes = nodes;
            cfg.plan = FaultPlanConfig { events, ckpt_faults: true, ..FaultPlanConfig::default() };
            let plan = FaultPlan::generate(&cfg.plan, &RngStreams::new(seed), 0);
            let space =
                PlanSearchSpace { workers: (1, 12), ps: (1, 4), ..PlanSearchSpace::default() };
            let mut es = dlrover_baselines::EsPolicy::new(allocation(), space, 1);
            let policy = with_policy.then_some(&mut es as &mut dyn SchedulerPolicy);
            let report = run_stepwise(allocation(), policy, &plan, &cfg);
            prop_assert_eq!(report.truth.leaked_pods, 0);
        }
    }
}
