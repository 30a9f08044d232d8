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

use std::collections::BTreeMap;
use std::collections::VecDeque;

use dlrover_cluster::{
    Cluster, ClusterConfig, ClusterEvent, PodId, PodPhase, PodRole, PodSpec, Priority, Resources,
};
use dlrover_master::replay::{RecoveryOutcome, RecoveryPath};
use dlrover_master::{
    CheckpointPlane, CkptPlaneConfig, JobHealth, JobMaster, MasterEvent, PlaneStats,
    ReplayedJobState, RetryDecision, RetryPolicy, RetrySupervisor, SchedulerPolicy, WitnessBoard,
    WitnessConfig,
};
use dlrover_optimizer::ResourceAllocation;
use dlrover_pstrain::{PodState, TrainingJobSpec};
use dlrover_sim::{FaultKind, FaultPlan, FaultPlanConfig, RngStreams, SimDuration, SimTime};
use dlrover_telemetry::{
    EventKind, GroundTruth, Oracle, OracleConfig, OracleReport, SpanCategory, Telemetry,
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
/// generator, oracle thresholds, retry policy, and the cluster the job's
/// pods live in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Tick cadence, startup model, deadline, master knobs, seed.
    pub runner: RunnerConfig,
    /// Fault-plan generator knobs (for [`run_chaos_suite`]).
    pub plan: FaultPlanConfig,
    /// Invariant thresholds.
    pub oracle: OracleConfig,
    /// Backoff policy for denied/parked replacement placements. When it
    /// exhausts, the pod is released and the master degrades to the
    /// surviving shape instead of retrying forever.
    pub retry: RetryPolicy,
    /// The cluster hosting the job's pods. Organic churn uses its
    /// `pod_daily_failure_rate`, so scripted and organic failures compose.
    pub cluster: ClusterConfig,
    /// The tiered checkpoint plane the job saves into (periodic flash
    /// checkpoints, restore charging on recovery).
    pub ckpt: CkptPlaneConfig,
    /// Witness-quorum protocol parameters (the master-less recovery
    /// path).
    pub witness: WitnessConfig,
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
            oracle: OracleConfig::default(),
            retry: driver_retry_policy(),
            // Homogeneous nodes: placement-induced slowdown is scripted
            // (StragglerWindow), not sampled, so runs stay interpretable.
            cluster: ClusterConfig { slow_node_fraction: 0.0, ..ClusterConfig::default() },
            ckpt: CkptPlaneConfig::default(),
            witness: WitnessConfig::default(),
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

/// A replacement the scheduler has not yet admitted: either the request
/// is frozen by an active denial storm (`pod: None`) or the cluster
/// parked the pod pending capacity (`pod: Some`). The retry supervisor
/// paces further attempts.
struct Parked {
    op: String,
    role: JobPod,
    pod: Option<PodId>,
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
    run_chaos_job_inner(spec, alloc, None, plan, cfg, telemetry, baseline)
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
    run_chaos_job_inner(spec, alloc, Some(policy), plan, cfg, telemetry, baseline)
}

/// The driver proper. `baseline` is [`baseline_jct`] of the same
/// `(spec, alloc, cfg.runner)` — a pure function of them, so a suite
/// computes it once for all its plans.
fn run_chaos_job_inner(
    spec: &TrainingJobSpec,
    alloc: ResourceAllocation,
    mut policy: Option<&mut dyn SchedulerPolicy>,
    plan: &FaultPlan,
    cfg: &ChaosConfig,
    telemetry: &Telemetry,
    baseline: SimDuration,
) -> ChaosReport {
    let streams = RngStreams::new(cfg.runner.seed);
    let mut startup_rng = streams.stream("chaos-startup");
    let mut organic_rng = streams.stream("chaos-organic");
    let mut retries =
        RetrySupervisor::new(cfg.retry, streams.stream("chaos-retry"), telemetry.clone());

    let mut cluster = Cluster::new(cfg.cluster.clone(), &streams);
    cluster.set_telemetry(telemetry.clone());
    let mut master = JobMaster::new(0, spec.clone(), alloc, cfg.runner.master);
    master.set_telemetry(telemetry.clone());
    // The shared checkpoint plane and witness board. The single chaos job
    // is job 0 of model family 0; fleet-level contention is exercised by
    // `exp ckptplane`, here the plane charges realistic save/restore
    // costs instead of the zero-cost restores the driver used to assume.
    let mut plane = CheckpointPlane::new(cfg.ckpt);
    plane.set_telemetry(telemetry.clone());
    let mut witness = WitnessBoard::new(cfg.witness);
    witness.set_telemetry(telemetry.clone());
    let mut last_ckpt = SimTime::ZERO;
    let mut recoveries: Vec<RecoveryOutcome> = Vec::new();
    telemetry.record(SimTime::ZERO, EventKind::JobStarted { job: 0 });

    // Current committed allocation: fixed for the static gang, updated by
    // each applied policy decision in policy-aware runs.
    let mut cur_alloc = alloc;
    let mut shape = alloc.shape;
    let mut worker_spec = PodSpec {
        resources: Resources::new(shape.worker_cpu, alloc.worker_mem_gb),
        role: PodRole::Worker,
        priority: Priority::Low,
        job_id: 0,
    };
    let mut ps_spec = PodSpec {
        resources: Resources::new(shape.ps_cpu, alloc.ps_mem_gb),
        role: PodRole::ParameterServer,
        priority: Priority::Low,
        job_id: 0,
    };

    // Driver-side pod bookkeeping. `worker_pods` maps engine worker slots
    // to cluster pods; `pending` holds placed replacement pods still
    // starting up (ready time, id, what they will become); `parked` holds
    // replacements the scheduler has not yet admitted.
    let mut worker_pods: BTreeMap<usize, PodId> = BTreeMap::new();
    let mut ps_pods: Vec<PodId> = Vec::new();
    let mut ready_worker_pods: VecDeque<PodId> = VecDeque::new();
    let mut pending: Vec<(SimTime, PodId, JobPod)> = Vec::new();
    let mut parked: Vec<Parked> = Vec::new();
    let mut organic: Vec<(SimTime, PodId)> = Vec::new();
    let mut pressure_clears: Vec<(SimTime, usize)> = Vec::new();
    let mut stragglers: Vec<(usize, SimTime, f64)> = Vec::new();
    let mut network: Option<(SimTime, f64)> = None;
    let mut service_pod_ends: Vec<(SimTime, PodId)> = Vec::new();
    let mut node_recoveries: Vec<(SimTime, usize)> = Vec::new();
    let mut storm_until = SimTime::ZERO;
    let mut replacement_seq = 0u64;
    let mut master_restarts = 0u64;
    let mut faults_injected = 0u64;

    // Place the initial gang at t0 and sample each pod's organic
    // time-to-failure from the cluster's daily hazard.
    let place_initial = |spec: PodSpec,
                         cluster: &mut Cluster,
                         organic: &mut Vec<(SimTime, PodId)>,
                         rng: &mut dlrover_sim::StreamRng| {
        let (id, _) = cluster.request_pod(spec, SimTime::ZERO).expect("initial pod fits a node");
        if cluster.pod(id).map(|p| p.phase()) == Some(PodPhase::Starting) {
            cluster.mark_running(id, SimTime::ZERO);
        }
        if let Some(delay) = cluster.sample_pod_failure_delay(rng) {
            organic.push((SimTime::ZERO + delay, id));
        }
        id
    };
    for idx in 0..master.engine().worker_slot_count() {
        let id = place_initial(worker_spec, &mut cluster, &mut organic, &mut organic_rng);
        worker_pods.insert(idx, id);
    }
    for _ in 0..master.engine().partitions().len() {
        let id = place_initial(ps_spec, &mut cluster, &mut organic, &mut organic_rng);
        ps_pods.push(id);
    }

    let mut plan_cursor = 0usize;
    let mut oomed = false;
    let mut jct: Option<SimDuration> = None;
    let mut since_adjust = SimDuration::ZERO;
    let mut cpu_core_seconds = 0.0f64;

    while master.engine().now() < cfg.runner.deadline {
        let now = master.engine().now();
        cpu_core_seconds +=
            master.allocation().total_cpu() * cfg.runner.profile_interval.as_secs_f64();
        // Keep the cluster's passive clock current so untimed entry points
        // (fail_pod/fail_node) stamp their events at this tick — the
        // oracle matches same-instant kill events to the injection marker.
        cluster.advance_clock(now);
        // Drain the remote transfer queue and pending co-sign rounds up
        // to this tick, so commit/quorum events land in the log before
        // any restore this tick could depend on them (the durability
        // oracle audits in log order).
        plane.advance(now);
        witness.advance(now);

        // 0. Periodic flash checkpoint (§5.3): stage into the hot tier
        //    (synchronous sub-second pause), enqueue the manifest behind
        //    the shared remote pipe, and broadcast to the witness peers.
        if now.saturating_since(last_ckpt) >= cfg.ckpt.interval {
            last_ckpt = now;
            let samples = master.engine().samples_done();
            let step = samples / u64::from(spec.batch_size.max(1));
            let bytes = spec.memory.total_bytes(samples as f64) as u64;
            let saved = plane.save(0, 0, step, samples, bytes, now);
            witness.observe_save(0, saved.manifest, step, samples, bytes, now);
            master.engine_mut().pause(saved.hot_pause);
        }

        // 1. Placed replacement pods whose startup completed become
        //    Running; the master materialises the matching engine worker
        //    in the same tick (same ready time, same clock).
        pending.retain(|&(ready, id, role)| {
            let phase = cluster.pod(id).map(|p| p.phase());
            if phase.is_none_or(|p| p.is_terminal()) {
                return false; // killed while starting (e.g. node loss)
            }
            if ready > now {
                return true;
            }
            if let JobPod::Ps(idx) = role {
                if idx >= ps_pods.len() {
                    // A policy scale-down removed this partition while its
                    // replacement was still starting: the pod has nothing
                    // to serve, so retire it instead of leaking it. (No
                    // RNG draw — organic churn only covers pods that
                    // actually join the job; the static-gang path never
                    // shrinks `ps_pods`, so it never takes this branch.)
                    cluster.terminate_pod(id, PodPhase::Succeeded);
                    return false;
                }
            }
            cluster.mark_running(id, now);
            if let Some(delay) = cluster.sample_pod_failure_delay(&mut organic_rng) {
                organic.push((now + delay, id));
            }
            match role {
                JobPod::Worker => ready_worker_pods.push_back(id),
                JobPod::Ps(idx) => {
                    if idx < ps_pods.len() {
                        ps_pods[idx] = id;
                    }
                }
            }
            false
        });

        // Asks the scheduler for a replacement pod. Immediately-placeable
        // requests take the fast path (the master learns of the
        // replacement right away); denied or parked requests enter the
        // retry supervisor's backoff loop, and the master only hears
        // about the worker once a placement actually sticks — a denial
        // storm therefore genuinely delays scale-out.
        macro_rules! request_replacement {
            ($role:expr) => {{
                replacement_seq += 1;
                let role: JobPod = $role;
                let op = match role {
                    JobPod::Worker => format!("replace-worker-{replacement_seq}"),
                    JobPod::Ps(i) => format!("replace-ps{i}-{replacement_seq}"),
                };
                let pod_spec = match role {
                    JobPod::Worker => worker_spec,
                    JobPod::Ps(_) => ps_spec,
                };
                if now < storm_until {
                    // Admission frozen: attempt 1 is denied on the spot;
                    // the parked loop retries with backoff.
                    let _ = retries.poll(&op, now);
                    telemetry.count("chaos.storm_denials", 1);
                    parked.push(Parked { op, role, pod: None });
                } else {
                    match cluster.request_pod(pod_spec, now) {
                        Ok((id, _))
                            if cluster.pod(id).map(|p| p.phase()) == Some(PodPhase::Starting) =>
                        {
                            let startup = cfg
                                .runner
                                .startup
                                .sample(cfg.runner.cluster_utilisation, &mut startup_rng);
                            if matches!(role, JobPod::Worker) {
                                master.replace_failed_worker(startup);
                            }
                            pending.push((now + startup, id, role));
                        }
                        Ok((id, _)) => {
                            // Cluster parked it (capacity/cordon).
                            let _ = retries.poll(&op, now);
                            parked.push(Parked { op, role, pod: Some(id) });
                        }
                        Err(_) => {
                            master.record_scale_denial();
                        }
                    }
                }
            }};
        }

        // A worker kill: fail the cluster pod and the engine slot, then
        // ask for a replacement (elastic recovery, §6.2).
        macro_rules! kill_worker {
            ($idx:expr, $pod:expr) => {{
                cluster.fail_pod($pod);
                worker_pods.remove(&$idx);
                master.engine_mut().fail_worker($idx);
                request_replacement!(JobPod::Worker);
            }};
        }
        // A PS kill: fail the pod and restore the partition from the
        // checkpoint plane — hot tier when resident (seamless migration,
        // sub-second pause, §5.3), remote tier otherwise (waiting out any
        // outage window). The driver used to assume a zero-cost restore
        // here; now the plane quotes it. The replacement pod follows
        // through the normal placement path.
        macro_rules! kill_ps {
            ($idx:expr) => {{
                cluster.fail_pod(ps_pods[$idx]);
                let startup =
                    cfg.runner.startup.sample(cfg.runner.cluster_utilisation, &mut startup_rng);
                master.handle_ps_failure($idx, startup);
                if let Some(r) = plane.restore(0, now) {
                    let stall = r.resume_at().saturating_since(now);
                    master.engine_mut().pause(stall);
                }
                request_replacement!(JobPod::Ps($idx));
            }};
        }

        // Records the injection marker. MUST be called before the fault
        // is delivered: the oracle matches recovery signals (same-instant
        // WorkerFailed, subsequent WorkerAdded/PsReshaped) to the marker
        // that precedes them.
        macro_rules! mark {
            ($fault:expr) => {{
                telemetry.record(
                    now,
                    EventKind::FaultInjected {
                        fault: faults_injected,
                        kind: $fault.kind.name().to_string(),
                        target: $fault.kind.target(),
                    },
                );
                faults_injected += 1;
            }};
        }

        // 2. Scripted faults due at this tick boundary. A kill aimed at an
        //    already-empty population is skipped (no marker, not counted).
        //    A master crash ends the tick's fault delivery: anything else
        //    due lands on the restarted master's first tick.
        let mut crashed = false;
        while plan_cursor < plan.events.len() && plan.events[plan_cursor].at <= now {
            let fault = plan.events[plan_cursor];
            plan_cursor += 1;
            match fault.kind {
                FaultKind::WorkerKill { worker } => {
                    let live: Vec<(usize, PodId)> = worker_pods
                        .iter()
                        .filter(|(&i, _)| master.engine().worker_is_alive(i))
                        .map(|(&i, &p)| (i, p))
                        .collect();
                    if !live.is_empty() {
                        let (idx, pod) = live[worker as usize % live.len()];
                        mark!(fault);
                        kill_worker!(idx, pod);
                    }
                }
                FaultKind::PsKill { ps } => {
                    // Target only partitions whose cluster pod is live: a
                    // kill aimed at a mid-recovery slot is skipped like
                    // any other dead target.
                    let live: Vec<usize> = (0..ps_pods.len())
                        .filter(|&i| {
                            cluster.pod(ps_pods[i]).is_some_and(|p| !p.phase().is_terminal())
                        })
                        .collect();
                    if !live.is_empty() {
                        let idx = live[ps as usize % live.len()];
                        mark!(fault);
                        kill_ps!(idx);
                    }
                }
                FaultKind::NodeLoss { node } => {
                    let n = node as usize % cfg.cluster.nodes.max(1);
                    mark!(fault);
                    let events = cluster.fail_node(dlrover_cluster::NodeId(n as u32));
                    for e in &events {
                        let ClusterEvent::PodFailed(pod) = e else { continue };
                        if let Some((&idx, _)) = worker_pods.iter().find(|(_, &p)| p == *pod) {
                            kill_worker!(idx, *pod);
                        } else if let Some(idx) = ps_pods.iter().position(|&p| p == *pod) {
                            kill_ps!(idx);
                        }
                    }
                    node_recoveries.push((now + NODE_OUTAGE, n));
                }
                FaultKind::PreemptionBurst { pods } => {
                    mark!(fault);
                    let quarter = Resources {
                        cpu_millis: cfg.cluster.node_capacity.cpu_millis / 4,
                        mem_bytes: cfg.cluster.node_capacity.mem_bytes / 4,
                    };
                    for _ in 0..pods {
                        let burst_spec = PodSpec {
                            resources: quarter,
                            role: PodRole::Other,
                            priority: Priority::High,
                            job_id: u64::MAX,
                        };
                        let Ok((id, events)) = cluster.request_pod(burst_spec, now) else {
                            continue;
                        };
                        for e in &events {
                            let ClusterEvent::PodPreempted(pod) = e else { continue };
                            if let Some((&idx, _)) = worker_pods.iter().find(|(_, &p)| p == *pod) {
                                // Preemption is a kill from the job's
                                // perspective; record it as one.
                                master.engine_mut().fail_worker(idx);
                                worker_pods.remove(&idx);
                                request_replacement!(JobPod::Worker);
                            } else if let Some(idx) = ps_pods.iter().position(|&p| p == *pod) {
                                kill_ps!(idx);
                            }
                        }
                        if cluster.pod(id).map(|p| p.phase()) == Some(PodPhase::Starting) {
                            cluster.mark_running(id, now);
                            service_pod_ends.push((now + BURST_RESIDENCY, id));
                        } else {
                            // Not placeable even with preemption: give up
                            // on this service pod rather than leak it.
                            cluster.terminate_pod(id, PodPhase::Succeeded);
                        }
                    }
                }
                FaultKind::MemoryPressure { ps, headroom_permille, window } => {
                    let count = master.engine().partitions().len();
                    let idx = ps as usize % count.max(1);
                    let used = master.engine().ps_memory_used();
                    let alloc_b = master.engine().ps_memory_alloc();
                    let headroom = alloc_b
                        .get(idx)
                        .copied()
                        .unwrap_or(0)
                        .saturating_sub(used.get(idx).copied().unwrap_or(0));
                    let bytes = headroom / 1000 * u64::from(headroom_permille);
                    if bytes > 0 {
                        mark!(fault);
                        master.engine_mut().set_ps_mem_pressure(idx, bytes);
                        pressure_clears.push((now + window, idx));
                    }
                }
                FaultKind::StragglerWindow { worker, speed_permille, window } => {
                    let live: Vec<usize> = (0..master.engine().worker_slot_count())
                        .filter(|&i| master.engine().worker_is_alive(i))
                        .collect();
                    if !live.is_empty() {
                        let idx = live[worker as usize % live.len()];
                        mark!(fault);
                        stragglers.push((idx, now + window, f64::from(speed_permille) / 1000.0));
                    }
                }
                FaultKind::NetworkDelay { factor_permille, window } => {
                    mark!(fault);
                    network = Some((now + window, 1000.0 / f64::from(factor_permille.max(1001))));
                }
                FaultKind::DenialStorm { pods, window } => {
                    mark!(fault);
                    // Admission freeze for the job's replacement requests
                    // plus a Low-priority filler fleet soaking the free
                    // pool (co-tenant surge). Fillers that do not fit are
                    // dropped, never parked.
                    storm_until = storm_until.max(now + window);
                    let quarter = Resources {
                        cpu_millis: cfg.cluster.node_capacity.cpu_millis / 4,
                        mem_bytes: cfg.cluster.node_capacity.mem_bytes / 4,
                    };
                    for _ in 0..pods {
                        let filler = PodSpec {
                            resources: quarter,
                            role: PodRole::Other,
                            priority: Priority::Low,
                            job_id: u64::MAX,
                        };
                        let Ok((id, _)) = cluster.request_pod(filler, now) else { continue };
                        if cluster.pod(id).map(|p| p.phase()) == Some(PodPhase::Starting) {
                            cluster.mark_running(id, now);
                            service_pod_ends.push((now + window, id));
                        } else {
                            cluster.terminate_pod(id, PodPhase::Succeeded);
                        }
                    }
                }
                FaultKind::MasterCrash { restart } => {
                    mark!(fault);
                    // An in-flight reconfiguration window dies with the
                    // master's memory: resolve it as rolled back *before*
                    // snapshotting the event log, so replay adopts the
                    // pre-window plan and the window id is settled exactly
                    // once (a no-op when no window is open — the byte-
                    // identity goldens are untouched).
                    master.abort_reconfig_if_pending("master-crash");
                    // The master process dies with its in-memory state,
                    // and the job's caching pods die with it — the hot
                    // tier copy is gone, so whichever path recovers must
                    // pay a real restore.
                    plane.invalidate_hot(0, now);
                    let replayed = ReplayedJobState::from_events(&telemetry.events());

                    // Witness path (when preferred and available): the
                    // surviving peers detect the silence, elect a
                    // recoverer, and read the pinned quorum-certified
                    // copy at peer-memory speed — no restarted master and
                    // no remote tier on the critical path, so a
                    // concurrent RemoteTierOutage does not gate it.
                    let witness_start = now + witness.takeover_latency();
                    let witness_restore =
                        if cfg.prefer_witness { witness.restore(0, witness_start) } else { None };
                    let (resume_at, replayed_used, outcome) = match witness_restore {
                        Some(w) => {
                            let resume_at = witness_start + w.duration;
                            let mut r = replayed.clone();
                            // The pinned manifest is the recovery truth:
                            // samples past its watermark retrain (the
                            // engine's bounded-rollback contract).
                            r.samples_done = w.samples.min(replayed.samples_done);
                            r.checkpoint_step = r.checkpoint_step.max(w.step);
                            let outcome = RecoveryOutcome::new(
                                RecoveryPath::WitnessQuorum,
                                now,
                                resume_at,
                                r.samples_done,
                                r.checkpoint_step,
                                r.live_workers.len() as u32,
                            );
                            (resume_at, r, outcome)
                        }
                        None => {
                            // Replay path: wait out the restart window,
                            // then restore the durable copy through the
                            // plane (which waits out any outage window —
                            // the regression the zero-cost restore hid).
                            let restart_at = now + restart;
                            let restore = plane.restore(0, restart_at);
                            let resume_at = restore
                                .map(|r| r.resume_at().max(restart_at))
                                .unwrap_or(restart_at);
                            let outcome = RecoveryOutcome::new(
                                RecoveryPath::MasterReplay,
                                now,
                                resume_at,
                                replayed.samples_done,
                                replayed.checkpoint_step,
                                replayed.live_workers.len() as u32,
                            );
                            (resume_at, replayed.clone(), outcome)
                        }
                    };
                    let (mut rebuilt, _) = JobMaster::from_replay(
                        0,
                        spec.clone(),
                        cur_alloc,
                        cfg.runner.master,
                        &replayed_used,
                        now,
                        resume_at,
                    );
                    rebuilt.set_telemetry(telemetry.clone());
                    master = rebuilt;
                    telemetry.record(
                        resume_at,
                        EventKind::MasterRestarted {
                            job: 0,
                            samples_done: replayed_used.samples_done,
                            workers: replayed_used.live_workers.len() as u32,
                        },
                    );
                    telemetry.record(
                        resume_at,
                        EventKind::JobRecovered {
                            job: 0,
                            path: outcome.path.label().to_string(),
                            latency_us: outcome.downtime.as_micros(),
                            step: outcome.checkpoint_step,
                        },
                    );
                    telemetry.count("chaos.master_restarts", 1);
                    master_restarts += 1;
                    recoveries.push(outcome);
                    // In-flight worker replacement intents died with the
                    // old master; release their pods and re-request any
                    // deficit through the fresh one. PS placements stay:
                    // they carry their partition index.
                    pending.retain(|&(_, id, role)| match role {
                        JobPod::Worker => {
                            cluster.terminate_pod(id, PodPhase::Succeeded);
                            false
                        }
                        JobPod::Ps(_) => true,
                    });
                    parked.retain(|p| match p.role {
                        JobPod::Worker => {
                            if let Some(id) = p.pod {
                                cluster.terminate_pod(id, PodPhase::Succeeded);
                            }
                            false
                        }
                        JobPod::Ps(_) => true,
                    });
                    for id in ready_worker_pods.drain(..) {
                        cluster.terminate_pod(id, PodPhase::Succeeded);
                    }
                    // Re-adopt surviving bound pods onto the rebuilt
                    // engine's slots in index order.
                    let bound: Vec<PodId> = worker_pods.values().copied().collect();
                    worker_pods.clear();
                    let slots = master.engine().worker_slot_count();
                    for (i, id) in bound.into_iter().enumerate() {
                        if i < slots {
                            worker_pods.insert(i, id);
                        } else {
                            cluster.terminate_pod(id, PodPhase::Succeeded);
                        }
                    }
                    for _ in slots..shape.workers as usize {
                        request_replacement!(JobPod::Worker);
                    }
                    crashed = true;
                }
                FaultKind::RemoteTierOutage { window } => {
                    mark!(fault);
                    // RDS unreachable: the transfer queue stalls and
                    // restores wait out the window.
                    plane.set_remote_outage(now, now + window);
                }
                FaultKind::BandwidthCollapse { factor_permille, window } => {
                    mark!(fault);
                    plane.set_bandwidth_collapse(now, now + window, factor_permille);
                }
                FaultKind::ManifestCorruption { manifest } => {
                    // Nothing staged yet → nothing to corrupt; skipped
                    // like a kill aimed at an empty population.
                    if plane.has_manifests(0) {
                        mark!(fault);
                        plane.corrupt_manifest(0, manifest, now);
                    }
                }
                FaultKind::WitnessPartition { peers, window } => {
                    mark!(fault);
                    witness.partition(peers, now, now + window);
                }
            }
            if crashed {
                break;
            }
        }

        // 3. Organic churn due now: same kill machinery, no FaultInjected
        //    marker (the oracle only deadline-checks scripted kills).
        let due: Vec<PodId> =
            organic.iter().filter(|&&(t, _)| t <= now).map(|&(_, id)| id).collect();
        organic.retain(|&(t, _)| t > now);
        for pod in due {
            let alive = cluster.pod(pod).is_some_and(|p| !p.phase().is_terminal());
            if !alive {
                continue;
            }
            if let Some((&idx, _)) = worker_pods.iter().find(|(_, &p)| p == pod) {
                if master.engine().worker_is_alive(idx) {
                    kill_worker!(idx, pod);
                }
            } else if let Some(idx) = ps_pods.iter().position(|&p| p == pod) {
                kill_ps!(idx);
            }
        }

        // 4. Windowed effects: expire and (re)apply worker speeds.
        pressure_clears.retain(|&(until, idx)| {
            if until <= now {
                master.engine_mut().set_ps_mem_pressure(idx, 0);
                false
            } else {
                true
            }
        });
        service_pod_ends.retain(|&(until, id)| {
            if until <= now {
                cluster.terminate_pod(id, PodPhase::Succeeded);
                false
            } else {
                true
            }
        });
        node_recoveries.retain(|&(until, n)| {
            if until <= now {
                cluster.recover_node(dlrover_cluster::NodeId(n as u32));
                false
            } else {
                true
            }
        });
        stragglers.retain(|&(_, until, _)| until > now);
        let net_factor = match network {
            Some((until, _)) if until <= now => {
                network = None;
                1.0
            }
            Some((_, f)) => f,
            None => 1.0,
        };
        for idx in 0..master.engine().worker_slot_count() {
            if !master.engine().worker_is_alive(idx) {
                continue;
            }
            let straggle = stragglers
                .iter()
                .filter(|&&(i, _, _)| i == idx)
                .map(|&(_, _, f)| f)
                .fold(1.0, f64::min);
            master.engine_mut().set_worker_pod(
                idx,
                PodState { cpu: shape.worker_cpu, speed: straggle * net_factor },
            );
        }

        // 4b. Parked replacements: the retry supervisor paces placement
        //     attempts; exhaustion releases the pod and degrades the
        //     master to the surviving shape instead of retrying forever.
        let mut still_parked = Vec::new();
        for mut p in parked.drain(..) {
            match retries.poll(&p.op, now) {
                RetryDecision::Wait => still_parked.push(p),
                RetryDecision::Exhausted => {
                    if let Some(id) = p.pod {
                        cluster.terminate_pod(id, PodPhase::Succeeded);
                    }
                    master.record_scale_denial();
                    telemetry.count("chaos.replacements_abandoned", 1);
                }
                RetryDecision::Attempt(_) => {
                    if now < storm_until {
                        // Admission frozen: the attempt is denied outright.
                        telemetry.count("chaos.storm_denials", 1);
                        still_parked.push(p);
                        continue;
                    }
                    if p.pod.is_none() {
                        p.pod = cluster
                            .request_pod(
                                match p.role {
                                    JobPod::Worker => worker_spec,
                                    JobPod::Ps(_) => ps_spec,
                                },
                                now,
                            )
                            .ok()
                            .map(|(id, _)| id);
                    }
                    let Some(id) = p.pod else {
                        master.record_scale_denial();
                        continue;
                    };
                    if cluster.pod(id).map(|x| x.phase()) == Some(PodPhase::Pending) {
                        cluster.schedule_pending();
                    }
                    if cluster.pod(id).map(|x| x.phase()) == Some(PodPhase::Starting) {
                        retries.succeed(&p.op);
                        let startup = cfg
                            .runner
                            .startup
                            .sample(cfg.runner.cluster_utilisation, &mut startup_rng);
                        if matches!(p.role, JobPod::Worker) {
                            master.replace_failed_worker(startup);
                        }
                        pending.push((now + startup, id, p.role));
                    } else {
                        still_parked.push(p);
                    }
                }
            }
        }
        parked = still_parked;

        // 4c. Policy adjustment on its own cadence (policy-aware runs
        //     only — the static-gang path takes none of these branches,
        //     draws no RNG, and emits no events, keeping it byte-identical
        //     to the pre-policy harness).
        since_adjust += cfg.runner.profile_interval;
        if since_adjust >= cfg.runner.adjust_interval {
            since_adjust = SimDuration::ZERO;
            if let Some(ref mut pol) = policy {
                let profile = master.profile();
                telemetry.span_complete(now, now, SpanCategory::PolicyEval, pol.name(), 0, None);
                if let Some(decision) = pol.adjust(&profile) {
                    telemetry.record(
                        now,
                        EventKind::PolicyAdjusted {
                            job: 0,
                            workers: decision.allocation.shape.workers,
                            ps: decision.allocation.shape.ps,
                        },
                    );
                    let startup =
                        cfg.runner.startup.sample(cfg.runner.cluster_utilisation, &mut startup_rng);
                    master.apply_decision(decision, startup);
                    // The master may have clamped the decision (OOM floor);
                    // its committed allocation is the reconcile target.
                    cur_alloc = master.allocation();
                    shape = cur_alloc.shape;
                    worker_spec.resources =
                        Resources::new(shape.worker_cpu, cur_alloc.worker_mem_gb);
                    ps_spec.resources = Resources::new(shape.ps_cpu, cur_alloc.ps_mem_gb);

                    // Release pods whose engine slots the resize removed
                    // (fault-killed slots already left `worker_pods` via
                    // the kill machinery, so only policy removals match).
                    let removed: Vec<usize> = worker_pods
                        .keys()
                        .copied()
                        .filter(|&i| {
                            i >= master.engine().worker_slot_count()
                                || !master.engine().worker_is_alive(i)
                        })
                        .collect();
                    for i in removed {
                        if let Some(id) = worker_pods.remove(&i) {
                            cluster.terminate_pod(id, PodPhase::Succeeded);
                        }
                    }
                    while ps_pods.len() > master.engine().partitions().len() {
                        let id = ps_pods.pop().expect("len checked");
                        cluster.terminate_pod(id, PodPhase::Succeeded);
                    }

                    // Grow the cluster-side fleet toward the new target.
                    // Counts only: pods the job already holds keep their
                    // old resources (a documented simplification — vertical
                    // changes reach the engine through the master, and new
                    // pods come up at the new size). Scale-ups the cluster
                    // cannot admit right now are dropped as denials rather
                    // than parked: the master's engine already runs the new
                    // slots, so a late-arriving pod would have nothing to
                    // bind to.
                    let tracked_workers = worker_pods.len()
                        + ready_worker_pods.len()
                        + pending.iter().filter(|(_, _, r)| matches!(r, JobPod::Worker)).count()
                        + parked.iter().filter(|p| matches!(p.role, JobPod::Worker)).count();
                    for _ in tracked_workers..shape.workers as usize {
                        match cluster.request_pod(worker_spec, now) {
                            Ok((id, _))
                                if cluster.pod(id).map(|p| p.phase())
                                    == Some(PodPhase::Starting) =>
                            {
                                cluster.mark_running(id, now);
                                if let Some(delay) =
                                    cluster.sample_pod_failure_delay(&mut organic_rng)
                                {
                                    organic.push((now + delay, id));
                                }
                                ready_worker_pods.push_back(id);
                            }
                            Ok((id, _)) => {
                                cluster.terminate_pod(id, PodPhase::Succeeded);
                                master.record_scale_denial();
                            }
                            Err(_) => {
                                master.record_scale_denial();
                            }
                        }
                    }
                    while ps_pods.len() < master.engine().partitions().len() {
                        match cluster.request_pod(ps_spec, now) {
                            Ok((id, _))
                                if cluster.pod(id).map(|p| p.phase())
                                    == Some(PodPhase::Starting) =>
                            {
                                cluster.mark_running(id, now);
                                if let Some(delay) =
                                    cluster.sample_pod_failure_delay(&mut organic_rng)
                                {
                                    organic.push((now + delay, id));
                                }
                                ps_pods.push(id);
                            }
                            Ok((id, _)) => {
                                cluster.terminate_pod(id, PodPhase::Succeeded);
                                master.record_scale_denial();
                                break;
                            }
                            Err(_) => {
                                master.record_scale_denial();
                                break;
                            }
                        }
                    }
                }
            }
        }

        // 5. Advance the job one tick.
        let events = master.tick(cfg.runner.profile_interval);
        let mut done = false;
        for e in events {
            match e {
                MasterEvent::Completed(t) => {
                    jct = Some(t.saturating_since(SimTime::ZERO));
                    done = true;
                }
                MasterEvent::Oomed(_) => {
                    oomed = true;
                    done = true;
                }
                MasterEvent::SilentWorker(idx) => {
                    // The master already failed the zombie engine slot
                    // and re-queued its shard; the driver fails the
                    // still-Running cluster pod and requests a
                    // replacement through the normal path.
                    if let Some(pod) = worker_pods.remove(&idx) {
                        cluster.fail_pod(pod);
                    }
                    request_replacement!(JobPod::Worker);
                }
                _ => {}
            }
        }
        if master.health() == JobHealth::Failed {
            done = true; // terminal: no feasible shape remains
        }
        // 6. Bind replacement workers the master just materialised to
        //    their (already Running) cluster pods, in FIFO order.
        for idx in 0..master.engine().worker_slot_count() {
            if master.engine().worker_is_alive(idx) && !worker_pods.contains_key(&idx) {
                if let Some(id) = ready_worker_pods.pop_front() {
                    worker_pods.insert(idx, id);
                }
            }
        }
        if done {
            break;
        }
    }
    let end = master.engine().now();
    telemetry.span_complete(SimTime::ZERO, end, SpanCategory::Job, "chaos", 0, None);

    // Drain: release every pod the harness still holds. Anything left
    // non-terminal (or any allocation still held) after this is a leak —
    // exactly what the oracle's NoLeaks invariant flags.
    for (_, id) in worker_pods {
        cluster.terminate_pod(id, PodPhase::Succeeded);
    }
    for id in ps_pods {
        cluster.terminate_pod(id, PodPhase::Succeeded);
    }
    for id in ready_worker_pods {
        cluster.terminate_pod(id, PodPhase::Succeeded);
    }
    for (_, id, _) in pending {
        cluster.terminate_pod(id, PodPhase::Succeeded);
    }
    for p in parked {
        if let Some(id) = p.pod {
            cluster.terminate_pod(id, PodPhase::Succeeded);
        }
    }
    for (_, id) in service_pod_ends {
        cluster.terminate_pod(id, PodPhase::Succeeded);
    }
    let leaked_pods = cluster.pods().filter(|p| !p.phase().is_terminal()).count() as u64;
    let leaked = cluster.total_allocated();
    let truth = GroundTruth {
        total_samples: spec.total_samples,
        samples_done: master.engine().samples_done(),
        completed_at: master.completed_at(),
        baseline_jct: baseline,
        leaked_pods,
        leaked_cpu_millis: leaked.cpu_millis,
        leaked_mem_bytes: leaked.mem_bytes,
    };
    let oracle = Oracle::new(cfg.oracle).check(plan, &telemetry.events(), &truth);
    ChaosReport {
        plan_len: plan.len(),
        faults_injected,
        jct_us: jct.map(|d| d.as_micros()),
        baseline_jct_us: baseline.as_micros(),
        oomed,
        health: master.health(),
        master_restarts,
        recoveries,
        ckpt: *plane.stats(),
        cpu_core_hours: cpu_core_seconds / 3_600.0,
        truth,
        oracle,
    }
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
    let baseline = baseline_jct(spec, alloc, &cfg.runner);
    (0..plans)
        .map(|i| {
            let plan = FaultPlan::generate(&cfg.plan, &streams, i);
            let telemetry = Telemetry::default();
            let report = run_chaos_job_inner(spec, alloc, None, &plan, cfg, &telemetry, baseline);
            (plan, report)
        })
        .collect()
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
    use dlrover_perfmodel::JobShape;
    use dlrover_sim::FaultEvent;
    use proptest::prelude::*;

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
            let spec = TrainingJobSpec::paper_default(20_000);
            let alloc =
                ResourceAllocation::new(JobShape::new(4, 2, 4.0, 4.0, 512), 8.0, 64.0);
            let report = run_chaos_job(
                &spec, alloc, &plan, &ChaosConfig::default(), &Telemetry::default(),
            );
            prop_assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
            prop_assert_eq!(report.truth.samples_done, report.truth.total_samples);
        }
    }
}
