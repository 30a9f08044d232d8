//! The sharded million-pod fleet core (DESIGN.md §9).
//!
//! DLRover-RM's production deployment manages 62K+ concurrent training jobs
//! and 3.24 PB of memory (PAPER.md §1, Table 4); the classic
//! [`crate::Cluster`]-plus-driver pair tops out orders of magnitude below
//! that because every pod lives in one global map and one passive clock
//! serialises all progress.
//! This module scales the same fleet model out:
//!
//! * The fleet is decomposed into `C` independent placement-domain **cells**
//!   (think: an AntGroup sub-cluster). Each cell owns its nodes, its paged
//!   [`PodTable`], its generational [`GenSlab`] of live jobs, its own RNG
//!   lineage (`root.fork("cell/<c>")`), and its own fixed-capacity telemetry
//!   sink. `C` depends only on the configuration — never on the shard count.
//! * **Lanes** are groups of at most 16 consecutive cells, each driven by
//!   one hierarchical [`TimerWheel`]; an epoch runs a shard's busy lanes
//!   over the idle cores (`dlrover_sim::idle_cores`).
//! * **Shards** are what an epoch hands out: consecutive cells, cut into
//!   lanes. `K = 1` is the unsharded baseline, `K > 1` shards run
//!   independently between barriers and can be spread over the parallel
//!   unit pool.
//! * Cells only interact by **forwarding** jobs that stay pending too long to
//!   the next cell (spill-over between sub-clusters). Forwarded jobs travel
//!   as [`Envelope`]s and are delivered at epoch barriers through the
//!   key-sorted [`Exchange`], i.e. the epoch is the lookahead of a
//!   conservative parallel discrete-event simulation.
//!
//! # Determinism argument
//!
//! Results are bit-identical for any shard count K, lane width and thread
//! count because no observable quantity depends on how cells are grouped:
//!
//! 1. Within an epoch, cells are fully independent — all randomness comes
//!    from per-cell streams, all state is per-cell, and a lane's wheel
//!    preserves the relative `(time, seq)` order of each cell's events (a
//!    cell's pushes form a subsequence of its lane's pushes, so same-time
//!    events of one cell keep their FIFO order under any interleaving).
//! 2. Cross-cell messages are only delivered at barriers, in the canonical
//!    `(dst, at, src, seq)` order of [`Exchange::drain_sorted`], with
//!    per-sender sequence numbers — independent of production order.
//! 3. Barrier times are derived from the global minimum next-event time,
//!    which is a property of the union of cells, not of the sharding.
//! 4. Aggregates and telemetry are merged in ascending cell order.
//!
//! The `shard_count_is_invariant` and `lane_width_and_idle_cores_are_invariant`
//! tests below and the cross-K proptest in `dlrover-bench` enforce this
//! bit-for-bit.

use std::sync::atomic::AtomicIsize;

use dlrover_sim::{
    idle_cores, Cores, FaultKind, FaultPlan, RngStreams, SimDuration, SimTime, StreamRng,
};
use dlrover_telemetry::{EventKind, Sink, Telemetry};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::exchange::{Envelope, Exchange};
use crate::fleet::{FleetConfig, FleetWorkload, JobClass};
use crate::node::{Node, NodeId};
use crate::pod::{Pod, PodId, PodPhase, PodRole, PodSpec, Priority};
use crate::resources::Resources;
use crate::store::{GenSlab, PodTable, SlabKey};
use crate::timerwheel::{ScheduledEvent, TimerWheel};

/// How long a lost node stays out of its cell (mirrors `driver.rs`).
const NODE_OUTAGE: SimDuration = SimDuration::from_mins(15);

/// Configuration of a sharded fleet run.
///
/// The number of **cells** fixes the simulated fleet; the shard count is a
/// pure execution parameter chosen at [`ShardedFleet::new`] time and must not
/// change results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetScaleConfig {
    /// Placement-domain cells (sub-clusters). Results depend on this.
    pub cells: u32,
    /// Nodes per cell, each sized to `fleet.max_pod`.
    pub nodes_per_cell: u32,
    /// Per-cell workload generator configuration.
    pub fleet: FleetConfig,
    /// Barrier spacing: cross-cell deliveries land on multiples of this.
    pub epoch: SimDuration,
    /// How often a pending job re-attempts placement.
    pub retry_interval: SimDuration,
    /// Pending longer than this in one cell → forward to the next cell.
    pub forward_after: SimDuration,
    /// Max times a job may be forwarded before it gives up.
    pub hop_limit: u32,
    /// Event-ring capacity of each cell's telemetry sink.
    pub telemetry_capacity: usize,
    /// Training throughput model: samples/second one worker sustains on a
    /// nominal-speed node (fixes job duration from `total_samples`).
    pub samples_per_sec_per_worker: f64,
    /// Shortest training-job duration after clamping.
    pub min_job_duration: SimDuration,
    /// Longest training-job duration after clamping.
    pub max_job_duration: SimDuration,
}

impl Default for FleetScaleConfig {
    fn default() -> Self {
        FleetScaleConfig {
            cells: 4,
            nodes_per_cell: 128,
            fleet: FleetConfig {
                training_jobs: 540,
                background_jobs: 130,
                ..FleetConfig::default()
            },
            epoch: SimDuration::from_secs(600),
            retry_interval: SimDuration::from_secs(30),
            forward_after: SimDuration::from_secs(300),
            hop_limit: 3,
            telemetry_capacity: 2_048,
            samples_per_sec_per_worker: 50_000.0,
            min_job_duration: SimDuration::from_mins(10),
            max_job_duration: SimDuration::from_days(7),
        }
    }
}

impl FleetScaleConfig {
    /// Sizes a fleet to roughly `target_pods` total pods by scaling the cell
    /// count at the default ~4K pods/cell (the per-cell workload mix stays
    /// at its default, mirroring one production sub-cluster).
    pub fn for_target_pods(target_pods: u64) -> Self {
        let per_cell = 4_096u64;
        let cells = u32::try_from(target_pods.div_ceil(per_cell).max(1)).expect("cell overflow");
        FleetScaleConfig { cells, ..FleetScaleConfig::default() }
    }

    /// Checks the fields a run divides by, indexes with or loops on, so a
    /// degenerate configuration is refused at the door instead of panicking
    /// (or spinning) deep inside an epoch.
    pub fn validate(&self) -> Result<(), FleetConfigError> {
        let checks = [
            (self.cells == 0, FleetConfigError::NoCells),
            (self.nodes_per_cell == 0, FleetConfigError::NoNodes),
            (self.epoch == SimDuration::ZERO, FleetConfigError::ZeroEpoch),
            (self.retry_interval == SimDuration::ZERO, FleetConfigError::ZeroRetryInterval),
            (self.telemetry_capacity == 0, FleetConfigError::ZeroTelemetryCapacity),
            (self.min_job_duration > self.max_job_duration, FleetConfigError::JobDurationRange),
        ];
        match checks.into_iter().find(|(bad, _)| *bad) {
            Some((_, err)) => Err(err),
            None => Ok(()),
        }
    }

    /// A deliberately tiny configuration for tests: `cells` cells with a
    /// handful of jobs each, short durations, tight epochs.
    pub fn small(cells: u32, training_jobs: usize, background_jobs: usize) -> Self {
        FleetScaleConfig {
            cells,
            nodes_per_cell: 16,
            fleet: FleetConfig {
                training_jobs,
                background_jobs,
                mean_interarrival: SimDuration::from_secs(30),
                ..FleetConfig::default()
            },
            epoch: SimDuration::from_secs(120),
            retry_interval: SimDuration::from_secs(15),
            forward_after: SimDuration::from_secs(60),
            hop_limit: 2,
            telemetry_capacity: 256,
            samples_per_sec_per_worker: 50_000.0,
            min_job_duration: SimDuration::from_mins(5),
            max_job_duration: SimDuration::from_hours(12),
        }
    }
}

/// Why a [`FleetScaleConfig`] cannot be run ([`FleetScaleConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetConfigError {
    /// `cells` is zero: there is no cell to submit a job to.
    NoCells,
    /// `nodes_per_cell` is zero: nothing could ever be placed, and a routed
    /// node fault would have no node to name.
    NoNodes,
    /// `epoch` is zero: barriers would not advance.
    ZeroEpoch,
    /// `retry_interval` is zero: a pending job would re-arm its retry at
    /// the same instant forever and `forward_after` would never elapse.
    ZeroRetryInterval,
    /// `telemetry_capacity` is zero: an event ring holds at least one event.
    ZeroTelemetryCapacity,
    /// `min_job_duration` exceeds `max_job_duration`.
    JobDurationRange,
}

impl std::fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FleetConfigError::NoCells => "cells must be at least 1",
            FleetConfigError::NoNodes => "nodes_per_cell must be at least 1",
            FleetConfigError::ZeroEpoch => "epoch must be positive",
            FleetConfigError::ZeroRetryInterval => "retry_interval must be positive",
            FleetConfigError::ZeroTelemetryCapacity => "telemetry_capacity must be at least 1",
            FleetConfigError::JobDurationRange => "min_job_duration exceeds max_job_duration",
        })
    }
}

impl std::error::Error for FleetConfigError {}

/// A job description portable between cells (what travels in an envelope).
#[derive(Debug, Clone, Copy, PartialEq)]
struct JobSpec {
    /// `(origin_cell << 32) | workload index` — globally unique and
    /// shard-count independent.
    global_id: u64,
    workers: u32,
    ps: u32,
    worker_res: Resources,
    ps_res: Resources,
    duration: SimDuration,
    submitted_at: SimTime,
    hops: u32,
    is_service: bool,
    high_priority: bool,
}

/// Live state of a job admitted to (or pending in) a cell.
#[derive(Debug, Clone)]
struct JobState {
    spec: JobSpec,
    arrived_at: SimTime,
    pending: bool,
    /// [`Cell::node_gen`] at this job's last failed placement, `None` until
    /// one was attempted here. While the cell is still at that generation
    /// its nodes are exactly as that attempt left them — a failed attempt
    /// rolls back to the bit — so the same first-fit would fail again.
    failed_at_gen: Option<u64>,
    /// Live pods (cleared as they fail) and the node each sits on.
    pods: Vec<(PodId, u32)>,
}

/// Chaos delivered to one cell (routed from a [`FaultPlan`]).
#[derive(Debug, Clone, Copy)]
enum ChaosAction {
    NodeFail(u32),
    NodeRecover(u32),
    KillWorker(u32),
    KillPs(u32),
    Burst(u32),
    /// Checkpoint-plane degradation (remote-tier outage or bandwidth
    /// collapse): cold starts need their checkpoint/image pulled from
    /// remote storage, so the cell admits nothing for the stall window.
    CkptStall(SimDuration),
}

/// Wheel events. Every event names its cell; a lane's wheel multiplexes the
/// cells it owns.
#[derive(Debug, Clone)]
enum FleetEv {
    /// Submit workload job `wl_idx` of `cell`.
    Submit { cell: u32, wl_idx: u32 },
    /// A forwarded job arrives in `cell` (delivered at an epoch barrier).
    /// The spec is boxed: inline, its 72 bytes would set the size of every
    /// wheel entry, though only forwarded jobs carry one.
    Deliver { cell: u32, spec: Box<JobSpec> },
    /// A pending job re-attempts placement.
    Retry { cell: u32, key: SlabKey },
    /// A running job completes.
    Finish { cell: u32, key: SlabKey },
    /// One pod of a running job dies of organic churn.
    PodFail { cell: u32, key: SlabKey, pod: PodId },
    /// Scripted chaos.
    Chaos { cell: u32, action: ChaosAction },
}

const _: () = assert!(std::mem::size_of::<ScheduledEvent<FleetEv>>() <= 40);

impl FleetEv {
    fn cell(&self) -> u32 {
        match self {
            FleetEv::Submit { cell, .. }
            | FleetEv::Deliver { cell, .. }
            | FleetEv::Retry { cell, .. }
            | FleetEv::Finish { cell, .. }
            | FleetEv::PodFail { cell, .. }
            | FleetEv::Chaos { cell, .. } => *cell,
        }
    }
}

/// Shard-count-independent per-cell outcome counters. All fields are exact
/// integers so cross-K comparison is bitwise.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellAggregates {
    /// Cell id.
    pub cell: u32,
    /// Jobs submitted by this cell's own workload.
    pub jobs_submitted: u64,
    /// Jobs that arrived forwarded from another cell.
    pub jobs_forwarded_in: u64,
    /// Jobs this cell forwarded away.
    pub jobs_forwarded_out: u64,
    /// Jobs that ran out of hops and gave up.
    pub jobs_gave_up: u64,
    /// Gangs admitted (placed) in this cell.
    pub jobs_admitted: u64,
    /// Jobs finished in this cell.
    pub jobs_finished: u64,
    /// Jobs that lost every pod and failed.
    pub jobs_failed: u64,
    /// Pods created in this cell.
    pub pods_created: u64,
    /// Pods lost to organic churn or node loss.
    pub pod_failures: u64,
    /// Pods lost to preemption bursts.
    pub pods_preempted: u64,
    /// Pod lifecycle transitions (create/finish/fail/preempt) — the unit of
    /// the fleet-scale throughput metric.
    pub pod_events: u64,
    /// Wheel events processed on behalf of this cell.
    pub wheel_events: u64,
    /// High-water mark of the pending queue.
    pub peak_pending: u64,
    /// Sum of admission waits (µs) over admitted jobs.
    pub wait_us_sum: u64,
    /// Sum of submit→finish times (µs) over finished jobs.
    pub completion_us_sum: u64,
    /// Virtual time of the cell's last event (µs).
    pub last_event_us: u64,
    /// Checkpoint-plane stall windows delivered (remote-tier outage /
    /// bandwidth collapse freezing admissions).
    pub ckpt_stalls: u64,
}

impl CellAggregates {
    /// The `fleet.*` telemetry counters and the fields they are.
    fn counters(&self) -> [(&'static str, u64); 8] {
        [
            ("fleet.jobs.submitted", self.jobs_submitted),
            ("fleet.jobs.forwarded_in", self.jobs_forwarded_in),
            ("fleet.jobs.forwarded_out", self.jobs_forwarded_out),
            ("fleet.jobs.gave_up", self.jobs_gave_up),
            ("fleet.jobs.admitted", self.jobs_admitted),
            ("fleet.jobs.finished", self.jobs_finished),
            ("fleet.jobs.failed", self.jobs_failed),
            ("fleet.ckpt.stalls", self.ckpt_stalls),
        ]
    }
}

/// Fleet-wide rollup of [`CellAggregates`] (derived, also K-independent).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetTotals {
    /// Jobs submitted across all cells.
    pub jobs_submitted: u64,
    /// Jobs admitted (counting only their final admission).
    pub jobs_admitted: u64,
    /// Jobs finished.
    pub jobs_finished: u64,
    /// Jobs failed.
    pub jobs_failed: u64,
    /// Jobs that gave up after exhausting forwarding hops.
    pub jobs_gave_up: u64,
    /// Cross-cell forwards.
    pub jobs_forwarded: u64,
    /// Pods created.
    pub pods_created: u64,
    /// Pod failures.
    pub pod_failures: u64,
    /// Pods preempted by chaos bursts.
    pub pods_preempted: u64,
    /// Total pod lifecycle transitions.
    pub pod_events: u64,
    /// Total wheel events processed.
    pub wheel_events: u64,
    /// Mean admission wait over admitted jobs, seconds.
    pub mean_wait_secs: f64,
    /// Mean submit→finish time over finished jobs, seconds.
    pub mean_completion_secs: f64,
    /// Virtual time of the last event anywhere, seconds.
    pub makespan_secs: f64,
}

/// Per-cell aggregates in ascending cell order, plus derived totals.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetAggregates {
    /// One entry per cell, ascending by cell id.
    pub cells: Vec<CellAggregates>,
}

impl FleetAggregates {
    /// Fleet-wide rollup.
    pub fn totals(&self) -> FleetTotals {
        let sum = |f: fn(&CellAggregates) -> u64| self.cells.iter().map(f).sum::<u64>();
        let admitted = sum(|c| c.jobs_admitted);
        let finished = sum(|c| c.jobs_finished);
        FleetTotals {
            jobs_submitted: sum(|c| c.jobs_submitted),
            jobs_admitted: admitted,
            jobs_finished: finished,
            jobs_failed: sum(|c| c.jobs_failed),
            jobs_gave_up: sum(|c| c.jobs_gave_up),
            jobs_forwarded: sum(|c| c.jobs_forwarded_out),
            pods_created: sum(|c| c.pods_created),
            pod_failures: sum(|c| c.pod_failures),
            pods_preempted: sum(|c| c.pods_preempted),
            pod_events: sum(|c| c.pod_events),
            wheel_events: sum(|c| c.wheel_events),
            mean_wait_secs: if admitted == 0 {
                0.0
            } else {
                sum(|c| c.wait_us_sum) as f64 / admitted as f64 / 1e6
            },
            mean_completion_secs: if finished == 0 {
                0.0
            } else {
                sum(|c| c.completion_us_sum) as f64 / finished as f64 / 1e6
            },
            makespan_secs: self.cells.iter().map(|c| c.last_event_us).max().unwrap_or(0) as f64
                / 1e6,
        }
    }

    /// Order-sensitive 64-bit digest over every per-cell counter; byte-level
    /// witness for the cross-shard-count identity tests.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| h = dlrover_sim::splitmix64(h ^ v);
        for c in &self.cells {
            for v in [
                u64::from(c.cell),
                c.jobs_submitted,
                c.jobs_forwarded_in,
                c.jobs_forwarded_out,
                c.jobs_gave_up,
                c.jobs_admitted,
                c.jobs_finished,
                c.jobs_failed,
                c.pods_created,
                c.pod_failures,
                c.pods_preempted,
                c.pod_events,
                c.wheel_events,
                c.peak_pending,
                c.wait_us_sum,
                c.completion_us_sum,
                c.last_event_us,
                c.ckpt_stalls,
            ] {
                mix(v);
            }
        }
        h
    }
}

/// One placement-domain cell.
#[derive(Debug)]
struct Cell {
    id: u32,
    nodes: Vec<Node>,
    pods: PodTable,
    jobs: GenSlab<JobState>,
    /// Pending jobs in arrival order.
    pending: Vec<SlabKey>,
    /// Workload jobs, indexed by `Submit::wl_idx`.
    workload: Vec<JobSpec>,
    rng: StreamRng,
    /// The cell is its sink's only writer, so it owns the sink: a record
    /// takes no lock.
    telemetry: Sink,
    agg: CellAggregates,
    msg_seq: u64,
    /// Bumped on every change to `nodes`: a gang reserved, a pod released,
    /// a node failed or recovered. It keys on *any* change because
    /// first-fit is not monotone in free capacity (DESIGN.md §9): a gang
    /// that fails can succeed after a node *loses* room.
    node_gen: u64,
    /// The node of each pod of the gang [`Cell::try_place`] just placed
    /// (workers first, then PS); scratch reused across placements.
    assignment: Vec<u32>,
    #[cfg(test)]
    probe: RetryProbe,
    /// Admissions are frozen until this instant (checkpoint-plane
    /// degradation, [`ChaosAction::CkptStall`]); pending jobs resume
    /// through their retry timers once the window passes.
    ckpt_stalled_until: SimTime,
}

/// First-fit gang placement over `nodes`: writes one node index per pod
/// into `out` (workers first, then PS) and returns true, or rolls back —
/// leaving every node exactly as found — and returns false.
///
/// Pods of one role ask for the same `res`, so each resumes the scan at the
/// previous pod's node instead of at node 0: the nodes before that hit did
/// not fit `res` then and have only lost capacity since, while the hit
/// itself may fit again. The cursor is exact only for identical requests
/// within one call, so it restarts at the worker → PS boundary.
fn place_gang(nodes: &mut [Node], spec: &JobSpec, out: &mut Vec<u32>) -> bool {
    out.clear();
    for (count, res) in [(spec.workers, spec.worker_res), (spec.ps, spec.ps_res)] {
        let mut cursor = 0usize;
        for _ in 0..count {
            let Some(offset) = nodes[cursor..].iter().position(|n| n.fits(&res)) else {
                // Roll back partial reservations, in assignment order.
                for (j, &idx) in out.iter().enumerate() {
                    let res = if (j as u32) < spec.workers { spec.worker_res } else { spec.ps_res };
                    nodes[idx as usize].release(res);
                }
                return false;
            };
            cursor += offset;
            nodes[cursor].reserve(res);
            out.push(cursor as u32);
        }
    }
    true
}

/// Test-only view of the retry gate: a switch that turns it off (the
/// always-place reference of the differential tests) and a count of the
/// placements it skipped.
#[cfg(test)]
#[derive(Debug, Default)]
struct RetryProbe {
    always_place: bool,
    skipped: u64,
}

impl Cell {
    /// Places pending job `key`'s gang into `self.assignment`, or records
    /// the generation the attempt failed at.
    fn try_place(&mut self, key: SlabKey) -> bool {
        let job = self.jobs.get_mut(key).expect("placing a live job");
        if place_gang(&mut self.nodes, &job.spec, &mut self.assignment) {
            self.node_gen += 1;
            true
        } else {
            job.failed_at_gen = Some(self.node_gen);
            false
        }
    }

    /// [`Self::try_place`] for a retry timer: skipped — it would fail
    /// again — while no node changed since the job's last failed attempt.
    fn retry_place(&mut self, key: SlabKey) -> bool {
        let _p = dlrover_telemetry::prof::scope("shard/retry");
        let unchanged = self.jobs.get(key).and_then(|j| j.failed_at_gen) == Some(self.node_gen);
        #[cfg(test)]
        let unchanged = {
            self.probe.skipped += u64::from(unchanged);
            unchanged && !self.probe.always_place
        };
        if unchanged {
            return false;
        }
        dlrover_telemetry::prof::add_items(1);
        self.try_place(key)
    }

    /// Terminates one live pod of a running job; returns true when the job
    /// lost its last pod (the caller fails the job).
    fn kill_pod(&mut self, key: SlabKey, pod: PodId, now: SimTime, phase: PodPhase) -> bool {
        let Some(job) = self.jobs.get_mut(key) else { return false };
        let Some(pos) = job.pods.iter().position(|(p, _)| *p == pod) else { return false };
        let (_, node_idx) = job.pods.remove(pos);
        debug_assert_eq!(self.pods.get(pod).map(Pod::phase), Some(PodPhase::Running));
        let res = self.pods.set_phase(pod, phase).expect("live pod present").spec.resources;
        self.nodes[node_idx as usize].release(res);
        self.node_gen += 1;
        self.agg.pod_events += 1;
        match phase {
            PodPhase::Preempted => {
                self.agg.pods_preempted += 1;
                self.telemetry.record(now, EventKind::PodPreempted { pod: pod.0 });
            }
            _ => {
                self.agg.pod_failures += 1;
                self.telemetry.record(now, EventKind::PodFailed { pod: pod.0 });
            }
        }
        self.jobs.get(key).is_some_and(|j| j.pods.is_empty())
    }

    /// All live `(key, pod, role)` triples in deterministic (slab-slot, pod)
    /// order — the resolution domain for chaos kill targets.
    fn live_pods(&self) -> Vec<(SlabKey, PodId, PodRole)> {
        let mut out = Vec::new();
        for (key, job) in self.jobs.iter() {
            for &(pod, _) in &job.pods {
                let role = self.pods.get(pod).map(|p| p.spec.role).unwrap_or(PodRole::Other);
                out.push((key, pod, role));
            }
        }
        out
    }
}

/// Cells one timer wheel drives at most. Run one after another, 16-cell
/// lanes are as fast as one wheel for every cell (a wheel per cell is
/// ~10% slower), and a 1M-pod fleet's 245 cells make 16 lanes for an
/// epoch to spread over the idle cores.
const LANE_CELLS: u32 = 16;

/// Busy cells that pay for one more thread in an epoch. A cell's epoch is
/// ~4 µs of work and a helper's spawn and join ~50 µs, so an epoch spreads
/// only when each thread gets at least this many cells: a 100K-pod
/// fleet's 25 cells stay on the caller's thread, where a helper per epoch
/// made them slower.
const CELLS_PER_THREAD: usize = 32;

/// A group of consecutive cells handed out for an epoch.
///
/// Obtained from [`ShardedFleet::begin_epoch`]; shards are `Send`, so the
/// bench layer can run one epoch per shard on the parallel unit pool and
/// hand them back to [`ShardedFleet::finish_epoch`]. Inside, the cells
/// form lanes of at most 16, each with its own timer wheel, and an epoch
/// runs the lanes over the idle cores.
#[derive(Debug)]
pub struct FleetShard {
    first_cell: u32,
    lanes: Vec<Lane>,
    cfg: FleetScaleConfig,
}

impl FleetShard {
    /// Shard id == index of its first cell's shard slot (stable, ascending).
    pub fn id(&self) -> u32 {
        self.first_cell
    }

    /// Runs this shard's cells up to (excluding) `bound`: every lane with
    /// an event before it, in contiguous runs over the caller's core and
    /// the idle ones (`dlrover_sim::idle_cores`), at least 32 busy cells
    /// to a thread.
    pub fn run_epoch(&mut self, bound: SimTime) {
        self.run_epoch_on(idle_cores(), bound);
    }

    /// [`Self::run_epoch`] with the idle cores counted in `pool`; returns
    /// the number of threads the lanes ran on.
    fn run_epoch_on(&mut self, pool: &'static AtomicIsize, bound: SimTime) -> usize {
        let _p = dlrover_telemetry::prof::scope("shard/epoch");
        // A lane with nothing to do has reaped since its last change.
        let mut busy: Vec<&mut Lane> = self
            .lanes
            .iter_mut()
            .filter_map(|lane| lane.due_before(bound).then_some(lane))
            .collect();
        let cells: usize = busy.iter().map(|lane| lane.cells.len()).sum();
        let cfg = &self.cfg;
        Cores::take(pool, (cells / CELLS_PER_THREAD).max(1)).split(&mut busy, |run, lanes| {
            // On a helper, the run is that thread's root frame.
            let _p = (run > 0).then(|| dlrover_telemetry::prof::scope("shard/epoch"));
            lanes.iter_mut().for_each(|lane| lane.run_epoch(cfg, bound));
        })
    }
}

/// Consecutive cells driven by one timer wheel. Cells meet only at the
/// epoch barrier, so how they group into lanes moves no result.
#[derive(Debug)]
struct Lane {
    first_cell: u32,
    cells: Vec<Cell>,
    wheel: TimerWheel<FleetEv>,
    outbox: Vec<Envelope<JobSpec>>,
}

impl Lane {
    /// Whether the wheel holds an event before `bound`.
    fn due_before(&mut self, bound: SimTime) -> bool {
        self.wheel.peek_time().is_some_and(|t| t < bound)
    }

    /// Runs this lane's cells up to (excluding) `bound`.
    fn run_epoch(&mut self, cfg: &FleetScaleConfig, bound: SimTime) {
        while let Some(t) = self.wheel.peek_time() {
            if t >= bound {
                break;
            }
            let ev = self.wheel.pop().expect("peeked event");
            self.handle(cfg, ev.at, ev.event, bound);
        }
        // Epoch housekeeping: reclaim pod pages that went fully terminal.
        let _reap = dlrover_telemetry::prof::scope("shard/reap");
        for cell in &mut self.cells {
            cell.pods.reap_terminal();
        }
    }

    fn handle(&mut self, cfg: &FleetScaleConfig, now: SimTime, ev: FleetEv, bound: SimTime) {
        let local = (ev.cell() - self.first_cell) as usize;
        let cell = &mut self.cells[local];
        cell.agg.wheel_events += 1;
        cell.agg.last_event_us = cell.agg.last_event_us.max(now.as_micros());
        match ev {
            FleetEv::Submit { cell: c, wl_idx } => {
                let spec = cell.workload[wl_idx as usize];
                cell.agg.jobs_submitted += 1;
                debug_assert_eq!(c, cell.id);
                Self::arrive(cell, &mut self.wheel, cfg, spec, now);
            }
            FleetEv::Deliver { spec, .. } => {
                cell.agg.jobs_forwarded_in += 1;
                Self::arrive(cell, &mut self.wheel, cfg, *spec, now);
            }
            FleetEv::Retry { key, .. } => {
                let Some(job) = cell.jobs.get(key) else { return };
                if !job.pending {
                    return;
                }
                let arrived_at = job.arrived_at;
                if now < cell.ckpt_stalled_until {
                    // Checkpoint plane degraded: no placements (and no
                    // forwarding — every cell shares the remote tier, so
                    // hopping would not help); try again after backoff.
                    self.wheel
                        .push(now + cfg.retry_interval, FleetEv::Retry { cell: cell.id, key });
                    return;
                }
                if cell.retry_place(key) {
                    cell.pending.retain(|k| *k != key);
                    Self::admit(cell, &mut self.wheel, cfg, key, now);
                } else if now.saturating_since(arrived_at) >= cfg.forward_after {
                    cell.pending.retain(|k| *k != key);
                    let job = cell.jobs.remove(key).expect("pending job in slab");
                    if job.spec.hops >= cfg.hop_limit || cfg.cells <= 1 {
                        cell.agg.jobs_gave_up += 1;
                    } else {
                        cell.agg.jobs_forwarded_out += 1;
                        let mut spec = job.spec;
                        spec.hops += 1;
                        let seq = cell.msg_seq;
                        cell.msg_seq += 1;
                        self.outbox.push(Envelope {
                            at: bound,
                            src: cell.id,
                            dst: (cell.id + 1) % cfg.cells,
                            seq,
                            msg: spec,
                        });
                    }
                } else {
                    self.wheel
                        .push(now + cfg.retry_interval, FleetEv::Retry { cell: cell.id, key });
                }
            }
            FleetEv::Finish { key, .. } => {
                let Some(job) = cell.jobs.remove(key) else { return };
                debug_assert!(!job.pending);
                for (pod, node_idx) in &job.pods {
                    let pod = cell.pods.set_phase(*pod, PodPhase::Succeeded);
                    let res = pod.expect("live pod present").spec.resources;
                    cell.nodes[*node_idx as usize].release(res);
                    cell.agg.pod_events += 1;
                }
                cell.node_gen += 1;
                cell.agg.jobs_finished += 1;
                cell.agg.completion_us_sum +=
                    now.saturating_since(job.spec.submitted_at).as_micros();
                // Freed capacity: admit pending jobs in arrival order.
                Self::admit_pending(cell, &mut self.wheel, cfg, now);
            }
            FleetEv::PodFail { key, pod, .. } => {
                if cell.kill_pod(key, pod, now, PodPhase::Failed) {
                    cell.jobs.remove(key);
                    cell.agg.jobs_failed += 1;
                }
            }
            FleetEv::Chaos { action, .. } => {
                Self::chaos(cell, now, action);
                Self::admit_pending(cell, &mut self.wheel, cfg, now);
            }
        }
    }

    /// A job arrives in a cell (fresh submit or forwarded): place it now or
    /// park it pending with a retry timer.
    fn arrive(
        cell: &mut Cell,
        wheel: &mut TimerWheel<FleetEv>,
        cfg: &FleetScaleConfig,
        spec: JobSpec,
        now: SimTime,
    ) {
        let key = cell.jobs.insert(JobState {
            spec,
            arrived_at: now,
            pending: true,
            failed_at_gen: None,
            pods: Vec::new(),
        });
        // During a checkpoint stall nothing is attempted, so no generation
        // is recorded either: the first retry after the window must place.
        if now >= cell.ckpt_stalled_until && cell.try_place(key) {
            Self::admit(cell, wheel, cfg, key, now);
        } else {
            cell.pending.push(key);
            cell.agg.peak_pending = cell.agg.peak_pending.max(cell.pending.len() as u64);
            wheel.push(now + cfg.retry_interval, FleetEv::Retry { cell: cell.id, key });
        }
    }

    /// Binds the pods of the gang [`Cell::try_place`] just placed (its
    /// nodes are in `cell.assignment`), schedules its finish and organic
    /// pod failures.
    fn admit(
        cell: &mut Cell,
        wheel: &mut TimerWheel<FleetEv>,
        cfg: &FleetScaleConfig,
        key: SlabKey,
        now: SimTime,
    ) {
        let job = cell.jobs.get_mut(key).expect("admitting live job");
        let spec = job.spec;
        let mut min_speed = f64::INFINITY;
        job.pending = false;
        job.pods = Vec::with_capacity(cell.assignment.len());
        for (i, &node_idx) in cell.assignment.iter().enumerate() {
            let i = i as u32;
            let (res, role) = if i < spec.workers {
                (spec.worker_res, if spec.is_service { PodRole::Other } else { PodRole::Worker })
            } else {
                (spec.ps_res, PodRole::ParameterServer)
            };
            let node = &cell.nodes[node_idx as usize];
            min_speed = min_speed.min(node.speed);
            let id = PodId(cell.pods.total_inserted());
            cell.pods.insert(Pod {
                id,
                spec: PodSpec {
                    resources: res,
                    role,
                    priority: if spec.high_priority { Priority::High } else { Priority::Low },
                    job_id: spec.global_id,
                },
                phase: PodPhase::Running,
                node: Some(NodeId(node_idx)),
                requested_at: spec.submitted_at,
                placed_at: Some(now),
                running_at: Some(now),
                node_speed: node.speed,
            });
            job.pods.push((id, node_idx));
            cell.agg.pods_created += 1;
            cell.agg.pod_events += 1;
            cell.telemetry.record(now, EventKind::PodPlaced { pod: id.0, node: node_idx });
        }
        // Gang-gated: the slowest node paces the whole job (§2.2 stragglers).
        let slowdown = if min_speed.is_finite() && min_speed > 0.0 { 1.0 / min_speed } else { 1.0 };
        let runtime = spec.duration.mul_f64(slowdown);
        cell.agg.jobs_admitted += 1;
        cell.agg.wait_us_sum += now.saturating_since(spec.submitted_at).as_micros();
        wheel.push(now + runtime, FleetEv::Finish { cell: cell.id, key });
        // Organic pod churn (§2.2 / Table 4), sampled per pod in pod order.
        let p = cfg.fleet.pod_daily_failure_rate.clamp(0.0, 0.999_999);
        if p > 0.0 {
            let rate_per_sec = -(1.0 - p).ln() / 86_400.0;
            for &(pod, _) in &job.pods {
                let u: f64 = cell.rng.gen_range(1e-12..1.0);
                let delay = SimDuration::from_secs_f64(-u.ln() / rate_per_sec);
                if delay < runtime {
                    wheel.push(now + delay, FleetEv::PodFail { cell: cell.id, key, pod });
                }
            }
        }
    }

    /// Admits as many pending jobs as now fit, preserving arrival order.
    fn admit_pending(
        cell: &mut Cell,
        wheel: &mut TimerWheel<FleetEv>,
        cfg: &FleetScaleConfig,
        now: SimTime,
    ) {
        if now < cell.ckpt_stalled_until {
            return; // admissions frozen; retry timers resume the queue
        }
        let queue = std::mem::take(&mut cell.pending);
        for key in queue {
            if !cell.jobs.get(key).is_some_and(|job| job.pending) {
                continue;
            }
            if cell.try_place(key) {
                Self::admit(cell, wheel, cfg, key, now);
            } else {
                cell.pending.push(key);
            }
        }
    }

    fn chaos(cell: &mut Cell, now: SimTime, action: ChaosAction) {
        match action {
            ChaosAction::NodeFail(n) => {
                let n = n % cell.nodes.len() as u32;
                cell.nodes[n as usize].healthy = false;
                cell.node_gen += 1;
                cell.telemetry.record(now, EventKind::NodeFailed { node: n });
                // Every resident pod dies with the node.
                let victims: Vec<(SlabKey, PodId)> = cell
                    .jobs
                    .iter()
                    .flat_map(|(key, job)| {
                        job.pods
                            .iter()
                            .filter(|(_, node)| *node == n)
                            .map(move |(pod, _)| (key, *pod))
                    })
                    .collect();
                for (key, pod) in victims {
                    if cell.kill_pod(key, pod, now, PodPhase::Failed) {
                        cell.jobs.remove(key);
                        cell.agg.jobs_failed += 1;
                    }
                }
            }
            ChaosAction::NodeRecover(n) => {
                let n = n % cell.nodes.len() as u32;
                cell.nodes[n as usize].healthy = true;
                cell.node_gen += 1;
            }
            ChaosAction::KillWorker(i) | ChaosAction::KillPs(i) => {
                let want_ps = matches!(action, ChaosAction::KillPs(_));
                let targets: Vec<(SlabKey, PodId)> = cell
                    .live_pods()
                    .into_iter()
                    .filter(|(_, _, role)| (*role == PodRole::ParameterServer) == want_ps)
                    .map(|(key, pod, _)| (key, pod))
                    .collect();
                if targets.is_empty() {
                    return;
                }
                let (key, pod) = targets[i as usize % targets.len()];
                if cell.kill_pod(key, pod, now, PodPhase::Failed) {
                    cell.jobs.remove(key);
                    cell.agg.jobs_failed += 1;
                }
            }
            ChaosAction::CkptStall(window) => {
                cell.ckpt_stalled_until = cell.ckpt_stalled_until.max(now + window);
                cell.agg.ckpt_stalls += 1;
            }
            ChaosAction::Burst(pods) => {
                // A high-priority burst preempts the first `pods` live pods.
                let victims: Vec<(SlabKey, PodId)> = cell
                    .live_pods()
                    .into_iter()
                    .take(pods as usize)
                    .map(|(key, pod, _)| (key, pod))
                    .collect();
                for (key, pod) in victims {
                    if cell.kill_pod(key, pod, now, PodPhase::Preempted) {
                        cell.jobs.remove(key);
                        cell.agg.jobs_failed += 1;
                    }
                }
            }
        }
    }
}

/// The sharded fleet: `C` cells grouped into `K` shards plus the exchange
/// that carries spill-over between them.
#[derive(Debug)]
pub struct ShardedFleet {
    shards: Vec<FleetShard>,
    exchange: Exchange<JobSpec>,
    cfg: FleetScaleConfig,
    /// Cells per lane: [`LANE_CELLS`] but in tests.
    lane_cells: u32,
    planned_pods: u64,
}

impl ShardedFleet {
    /// Builds the fleet with `shard_count` shards (clamped to the cell
    /// count). Same `cfg` + `seed` ⇒ same results for every `shard_count`.
    ///
    /// # Panics
    /// Panics when `cfg` fails [`FleetScaleConfig::validate`].
    pub fn new(cfg: &FleetScaleConfig, shard_count: u32, seed: u64) -> Self {
        Self::with_chaos(cfg, shard_count, seed, None)
    }

    /// Like [`ShardedFleet::new`], with a scripted [`FaultPlan`] whose events
    /// are routed to cells by their suggested target index (mod the cell
    /// count) — a shard-count-independent mapping.
    ///
    /// # Panics
    /// Panics when `cfg` fails [`FleetScaleConfig::validate`].
    pub fn with_chaos(
        cfg: &FleetScaleConfig,
        shard_count: u32,
        seed: u64,
        plan: Option<&FaultPlan>,
    ) -> Self {
        Self::try_with_chaos(cfg, shard_count, seed, plan)
            .unwrap_or_else(|e| panic!("invalid fleet configuration: {e}"))
    }

    /// [`ShardedFleet::with_chaos`], reporting a degenerate configuration
    /// as a typed error.
    pub(crate) fn try_with_chaos(
        cfg: &FleetScaleConfig,
        shard_count: u32,
        seed: u64,
        plan: Option<&FaultPlan>,
    ) -> Result<Self, FleetConfigError> {
        Self::build(cfg, shard_count, LANE_CELLS, seed, plan)
    }

    /// [`ShardedFleet::try_with_chaos`] with lanes of `lane_cells` cells.
    fn build(
        cfg: &FleetScaleConfig,
        shard_count: u32,
        lane_cells: u32,
        seed: u64,
        plan: Option<&FaultPlan>,
    ) -> Result<Self, FleetConfigError> {
        cfg.validate()?;
        let root = RngStreams::new(seed);
        let shard_count = shard_count.clamp(1, cfg.cells);

        // Route chaos to cells first so each cell's init list is complete.
        let mut chaos_per_cell: Vec<Vec<(SimTime, ChaosAction)>> =
            vec![Vec::new(); cfg.cells as usize];
        if let Some(plan) = plan {
            for (i, ev) in plan.events.iter().enumerate() {
                let route = |target: u32| (target % cfg.cells) as usize;
                match ev.kind {
                    FaultKind::NodeLoss { node } => {
                        let cell = route(node);
                        let local = node / cfg.cells;
                        chaos_per_cell[cell].push((ev.at, ChaosAction::NodeFail(local)));
                        chaos_per_cell[cell]
                            .push((ev.at + NODE_OUTAGE, ChaosAction::NodeRecover(local)));
                    }
                    FaultKind::WorkerKill { worker } => {
                        chaos_per_cell[route(worker)]
                            .push((ev.at, ChaosAction::KillWorker(worker / cfg.cells)));
                    }
                    FaultKind::PsKill { ps } => {
                        chaos_per_cell[route(ps)]
                            .push((ev.at, ChaosAction::KillPs(ps / cfg.cells)));
                    }
                    FaultKind::PreemptionBurst { pods } => {
                        chaos_per_cell[i % cfg.cells as usize]
                            .push((ev.at, ChaosAction::Burst(pods)));
                    }
                    FaultKind::RemoteTierOutage { window } => {
                        // The remote checkpoint tier is shared by the
                        // whole fleet: every cell's admissions stall for
                        // the window.
                        for cell in chaos_per_cell.iter_mut() {
                            cell.push((ev.at, ChaosAction::CkptStall(window)));
                        }
                    }
                    FaultKind::BandwidthCollapse { factor_permille, window } => {
                        // Degraded, not dead: the stall covers only the
                        // bandwidth fraction the collapse removed.
                        let lost = (f64::from(factor_permille) - 1000.0)
                            / f64::from(factor_permille.max(1001));
                        let stall = window.mul_f64(lost);
                        for cell in chaos_per_cell.iter_mut() {
                            cell.push((ev.at, ChaosAction::CkptStall(stall)));
                        }
                    }
                    // Engine/control-plane faults (and per-manifest /
                    // per-quorum checkpoint faults) have no fleet-level
                    // analog.
                    _ => {}
                }
            }
        }

        let mut planned_pods = 0u64;
        let mut shards = Vec::with_capacity(shard_count as usize);
        let per = cfg.cells / shard_count;
        let extra = cfg.cells % shard_count;
        let mut next_cell = 0u32;
        for s in 0..shard_count {
            let first_cell = next_cell;
            next_cell += per + u32::from(s < extra);
            let mut lanes = Vec::new();
            for lane_first in (first_cell..next_cell).step_by(lane_cells as usize) {
                let mut wheel = TimerWheel::new();
                let mut cells = Vec::new();
                for c in lane_first..(lane_first + lane_cells).min(next_cell) {
                    let (cell, pods) = Self::build_cell(
                        cfg,
                        c,
                        &root,
                        std::mem::take(&mut chaos_per_cell[c as usize]),
                        &mut wheel,
                    );
                    planned_pods += pods;
                    cells.push(cell);
                }
                lanes.push(Lane { first_cell: lane_first, cells, wheel, outbox: Vec::new() });
            }
            shards.push(FleetShard { first_cell, lanes, cfg: cfg.clone() });
        }
        Ok(ShardedFleet {
            shards,
            exchange: Exchange::new(),
            cfg: cfg.clone(),
            lane_cells,
            planned_pods,
        })
    }

    /// Generates one cell's nodes and workload and seeds its lane's wheel;
    /// returns the cell plus its planned pod count.
    fn build_cell(
        cfg: &FleetScaleConfig,
        cell_id: u32,
        root: &RngStreams,
        chaos: Vec<(SimTime, ChaosAction)>,
        wheel: &mut TimerWheel<FleetEv>,
    ) -> (Cell, u64) {
        let streams = root.fork(&format!("cell/{cell_id}"));
        let mut node_rng = streams.stream("nodes");
        let nodes = (0..cfg.nodes_per_cell)
            .map(|i| {
                // Heterogeneous hardware (§2.2): a slow tail paces gangs.
                let speed = if node_rng.gen::<f64>() < 0.15 { 0.45 } else { 1.0 };
                Node::new(NodeId(i), cfg.fleet.max_pod, speed)
            })
            .collect();

        let workload = FleetWorkload::generate(&cfg.fleet, &streams);
        let mut planned_pods = 0u64;
        let specs: Vec<JobSpec> = workload
            .jobs
            .iter()
            .map(|job| {
                planned_pods += u64::from(job.workers + job.ps);
                let duration = match job.class {
                    JobClass::Training => {
                        let secs = job.total_samples as f64
                            / (f64::from(job.workers.max(1)) * cfg.samples_per_sec_per_worker);
                        SimDuration::from_secs_f64(secs)
                            .clamp(cfg.min_job_duration, cfg.max_job_duration)
                    }
                    _ => job.service_duration.unwrap_or(cfg.min_job_duration),
                };
                JobSpec {
                    global_id: (u64::from(cell_id) << 32) | job.id,
                    workers: job.workers,
                    ps: job.ps,
                    worker_res: job.requested_worker,
                    ps_res: job.requested_ps,
                    duration,
                    submitted_at: job.submit,
                    hops: 0,
                    is_service: job.class != JobClass::Training,
                    high_priority: job.class.priority() == Priority::High,
                }
            })
            .collect();

        // Seed the wheel: submits (in workload order) merged with chaos (in
        // plan order), stably sorted by time. The per-cell push order is a
        // pure function of the cell, so it is identical at every shard
        // count and lane width.
        let mut init: Vec<(SimTime, u32, FleetEv)> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.submitted_at, 0, FleetEv::Submit { cell: cell_id, wl_idx: i as u32 }))
            .collect();
        init.extend(
            chaos.into_iter().map(|(at, action)| (at, 1, FleetEv::Chaos { cell: cell_id, action })),
        );
        init.sort_by_key(|(at, rank, _)| (*at, *rank));
        for (at, _, ev) in init {
            wheel.push(at, ev);
        }

        let cell = Cell {
            id: cell_id,
            nodes,
            pods: PodTable::new(),
            jobs: GenSlab::with_capacity(64),
            pending: Vec::new(),
            workload: specs,
            rng: streams.stream("cell-events"),
            telemetry: Sink::with_capacity(cfg.telemetry_capacity),
            agg: CellAggregates { cell: cell_id, ..CellAggregates::default() },
            msg_seq: 0,
            node_gen: 0,
            assignment: Vec::new(),
            #[cfg(test)]
            probe: RetryProbe::default(),
            ckpt_stalled_until: SimTime::ZERO,
        };
        (cell, planned_pods)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of cells.
    pub fn cell_count(&self) -> u32 {
        self.cfg.cells
    }

    /// Total pods the generated workload will create if every job admits.
    pub fn planned_pods(&self) -> u64 {
        self.planned_pods
    }

    /// Computes the next epoch barrier and hands the shards out for the
    /// epoch; returns `None` when the fleet has fully drained. The caller
    /// must run each shard to the bound (serially or on the unit pool) and
    /// return them via [`ShardedFleet::finish_epoch`].
    pub fn begin_epoch(&mut self) -> Option<(SimTime, Vec<FleetShard>)> {
        let lanes = self.shards.iter_mut().flat_map(|s| &mut s.lanes);
        let t = lanes.filter_map(|lane| lane.wheel.peek_time()).min()?;
        let epoch = self.cfg.epoch.as_micros();
        let bound =
            SimTime::from_micros((t.as_micros() / epoch).saturating_add(1).saturating_mul(epoch));
        Some((bound, std::mem::take(&mut self.shards)))
    }

    /// Accepts the shards back after an epoch and routes their lanes'
    /// outboxes: envelopes merge through the exchange in canonical order
    /// and are pushed into the destination lanes' wheels.
    ///
    /// # Panics
    /// Panics if the shards are not returned in ascending id order (the
    /// parallel pool's key-sorted outputs guarantee this).
    pub fn finish_epoch(&mut self, mut shards: Vec<FleetShard>) {
        assert!(
            shards.windows(2).all(|w| w[0].first_cell < w[1].first_cell),
            "shards must be returned in ascending order"
        );
        let _p = dlrover_telemetry::prof::scope("shard/exchange");
        for lane in shards.iter_mut().flat_map(|s| &mut s.lanes) {
            self.exchange.collect(std::mem::take(&mut lane.outbox));
        }
        self.shards = shards;
        let mut delivered = 0u64;
        for env in self.exchange.drain_sorted() {
            delivered += 1;
            let shard = self.shards.partition_point(|s| s.first_cell <= env.dst) - 1;
            let shard = &mut self.shards[shard];
            let lane = &mut shard.lanes[((env.dst - shard.first_cell) / self.lane_cells) as usize];
            lane.wheel.push(env.at, FleetEv::Deliver { cell: env.dst, spec: Box::new(env.msg) });
        }
        dlrover_telemetry::prof::add_items(delivered);
    }

    /// One serial epoch; returns false when the fleet has drained.
    pub fn step(&mut self) -> bool {
        let Some((bound, mut shards)) = self.begin_epoch() else {
            return false;
        };
        for shard in &mut shards {
            shard.run_epoch(bound);
        }
        self.finish_epoch(shards);
        true
    }

    /// Runs serially to completion and returns the aggregates.
    pub fn run_to_completion(&mut self) -> FleetAggregates {
        while self.step() {}
        self.aggregates()
    }

    /// The cells in ascending order.
    fn cells(&self) -> impl Iterator<Item = &Cell> {
        self.shards.iter().flat_map(|s| &s.lanes).flat_map(|lane| &lane.cells)
    }

    /// Per-cell aggregates in ascending cell order.
    pub fn aggregates(&self) -> FleetAggregates {
        FleetAggregates { cells: self.cells().map(|c| c.agg.clone()).collect() }
    }

    /// Cell telemetry merged in ascending cell order (the same key-sorted
    /// merge discipline the parallel engine uses), plus the `fleet.*`
    /// counters. The counters are the like-named [`CellAggregates`] fields
    /// summed over the cells as they stand now — cells keep no counters of
    /// their own — and, like a counter that was never incremented, a zero
    /// sum creates no key.
    pub fn merged_telemetry(&self) -> Telemetry {
        let mut merged = Sink::merge_ordered(self.cells().map(|c| &c.telemetry));
        let mut totals = CellAggregates::default().counters();
        for cell in self.cells() {
            for (total, (_, n)) in totals.iter_mut().zip(cell.agg.counters()) {
                total.1 += n;
            }
        }
        for (name, total) in totals {
            if total > 0 {
                merged.metrics.count(name, total);
            }
        }
        merged.into()
    }

    /// Pods currently resident across all pod tables (after reaping).
    pub fn resident_pods(&self) -> usize {
        self.cells().map(|c| c.pods.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrover_sim::{FaultEvent, FaultPlanConfig};
    use proptest::prelude::*;
    use std::ptr;
    use std::sync::atomic::Ordering;

    fn small_cfg() -> FleetScaleConfig {
        FleetScaleConfig::small(3, 12, 4)
    }

    fn run(cfg: &FleetScaleConfig, shards: u32, seed: u64) -> (FleetAggregates, String) {
        let mut fleet = ShardedFleet::new(cfg, shards, seed);
        let agg = fleet.run_to_completion();
        (agg, fleet.merged_telemetry().to_jsonl())
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let cfg = small_cfg();
        let (a, ta) = run(&cfg, 2, 42);
        let (b, tb) = run(&cfg, 2, 42);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(ta, tb);
        let (c, _) = run(&cfg, 2, 43);
        assert_ne!(a, c, "different seed must differ");
    }

    #[test]
    fn shard_count_is_invariant() {
        let cfg = small_cfg();
        let (baseline, t1) = run(&cfg, 1, 7);
        for k in [2u32, 3, 7] {
            let (agg, tel) = run(&cfg, k, 7);
            assert_eq!(baseline, agg, "aggregates diverged at K={k}");
            assert_eq!(baseline.digest(), agg.digest());
            assert_eq!(t1, tel, "telemetry diverged at K={k}");
        }
    }

    #[test]
    fn every_job_resolves() {
        let cfg = small_cfg();
        let (agg, _) = run(&cfg, 2, 11);
        let t = agg.totals();
        assert_eq!(t.jobs_submitted, 48, "3 cells x (12 training + 4 background)");
        assert_eq!(
            t.jobs_submitted,
            t.jobs_finished + t.jobs_failed + t.jobs_gave_up,
            "all jobs must finish, fail, or give up: {t:?}"
        );
        assert!(t.jobs_finished > 0, "a healthy small fleet finishes jobs");
        assert!(t.pods_created > 0);
        assert!(t.pod_events >= t.pods_created * 2, "create + terminal per pod");
        assert!(t.makespan_secs > 0.0);
    }

    #[test]
    fn chaos_is_shard_count_invariant_and_lossy() {
        let cfg = small_cfg();
        let streams = RngStreams::new(99);
        let plan = FaultPlan::generate(
            &FaultPlanConfig {
                events: 12,
                horizon: SimDuration::from_hours(2),
                warmup: SimDuration::from_secs(30),
                ..FaultPlanConfig::default()
            },
            &streams,
            0,
        );
        let mut runs = Vec::new();
        for k in [1u32, 2, 3] {
            let mut fleet = ShardedFleet::with_chaos(&cfg, k, 5, Some(&plan));
            let agg = fleet.run_to_completion();
            runs.push((agg, fleet.merged_telemetry().to_jsonl()));
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
        let clean = run(&cfg, 1, 5).0;
        assert_ne!(runs[0].0, clean, "chaos must perturb the fleet");
    }

    /// Aggregates, their digest, merged event bytes and merged counters of
    /// a run with lanes of `lane_cells`, stepped epoch by epoch with idle
    /// cores counted in `pool`.
    fn run_lanes(
        cfg: &FleetScaleConfig,
        shards: u32,
        lane_cells: u32,
        pool: &'static AtomicIsize,
        plan: Option<&FaultPlan>,
    ) -> ((u64, RunOutput), usize) {
        let mut fleet = ShardedFleet::build(cfg, shards, lane_cells, 13, plan).expect("valid");
        let mut widest = 0;
        while let Some((bound, mut shards)) = fleet.begin_epoch() {
            for shard in &mut shards {
                widest = widest.max(shard.run_epoch_on(pool, bound));
            }
            fleet.finish_epoch(shards);
        }
        let agg = fleet.aggregates();
        let merged = fleet.merged_telemetry();
        ((agg.digest(), (agg, merged.to_jsonl(), merged.summary().counters)), widest)
    }

    /// Lanes of 1, 3, 16 and all 130 cells, run inline (no idle core) or
    /// over a helper (two idle cores), on one and on two shards, with and
    /// without routed chaos: every run equals one lane run serially.
    /// Starved cells forward jobs, so envelopes cross lanes, and 65 cells
    /// to a shard are enough for a helper wherever a shard has two lanes.
    #[test]
    fn lane_width_and_idle_cores_are_invariant() {
        static BUSY: AtomicIsize = AtomicIsize::new(0);
        static IDLE: AtomicIsize = AtomicIsize::new(2);
        let mut cfg = FleetScaleConfig::small(130, 10, 2);
        cfg.nodes_per_cell = 3;
        let plan = FaultPlan::generate(
            &FaultPlanConfig {
                events: 24,
                horizon: SimDuration::from_hours(2),
                warmup: SimDuration::from_secs(30),
                ..FaultPlanConfig::default()
            },
            &RngStreams::new(31),
            0,
        );
        for plan in [None, Some(&plan)] {
            let (serial, _) = run_lanes(&cfg, 1, cfg.cells, &BUSY, plan);
            assert!(serial.1 .0.totals().jobs_forwarded > 0, "envelopes must cross lanes");
            for (shards, lane_cells, pool) in [1, 2]
                .into_iter()
                .flat_map(|k| [1, 3, 16, cfg.cells].map(|w| (k, w)))
                .flat_map(|(k, w)| [(k, w, &BUSY), (k, w, &IDLE)])
            {
                let (run, widest) = run_lanes(&cfg, shards, lane_cells, pool, plan);
                let at = (shards, lane_cells, pool.load(Ordering::Relaxed), plan.is_some());
                assert_eq!(run, serial, "(shards, lane cells, idle cores, chaos) = {at:?}");
                let helper = ptr::eq(pool, &IDLE) && lane_cells < cfg.cells / shards;
                assert_eq!(widest, 1 + usize::from(helper), "threads at {at:?}");
            }
        }
        assert_eq!((BUSY.load(Ordering::Relaxed), IDLE.load(Ordering::Relaxed)), (0, 2));
    }

    #[test]
    fn ckpt_stalls_are_shard_count_invariant() {
        // RemoteTierOutage freezes admissions fleet-wide (the durable
        // tier is shared), BandwidthCollapse stalls for the lost
        // fraction of the window. Both must route identically at any
        // shard count and show up in the digest via `ckpt_stalls`.
        let cfg = small_cfg();
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at: SimTime::from_secs(40),
                kind: FaultKind::RemoteTierOutage { window: SimDuration::from_secs(120) },
            },
            FaultEvent {
                at: SimTime::from_secs(400),
                kind: FaultKind::BandwidthCollapse {
                    factor_permille: 4000,
                    window: SimDuration::from_secs(200),
                },
            },
        ]);
        let mut runs = Vec::new();
        for k in [1u32, 2, 3] {
            let mut fleet = ShardedFleet::with_chaos(&cfg, k, 17, Some(&plan));
            let agg = fleet.run_to_completion();
            runs.push((agg, fleet.merged_telemetry().to_jsonl()));
        }
        assert_eq!(runs[0], runs[1], "ckpt stalls diverged at K=2");
        assert_eq!(runs[0], runs[2], "ckpt stalls diverged at K=3");
        let stalls: u64 = runs[0].0.cells.iter().map(|c| c.ckpt_stalls).sum();
        assert_eq!(stalls, 6, "each fault stalls every one of the 3 cells");
        let t = runs[0].0.totals();
        assert_eq!(t.jobs_submitted, t.jobs_finished + t.jobs_failed + t.jobs_gave_up);
    }

    #[test]
    fn forwarding_happens_under_pressure() {
        // Starve the cells so spill-over (and thus the exchange) is hit.
        let mut cfg = FleetScaleConfig::small(3, 20, 4);
        cfg.nodes_per_cell = 2;
        let (agg, _) = run(&cfg, 3, 21);
        let t = agg.totals();
        assert!(t.jobs_forwarded > 0, "tiny cells must overflow: {t:?}");
        assert_eq!(t.jobs_submitted, t.jobs_finished + t.jobs_failed + t.jobs_gave_up);
    }

    #[test]
    fn reaping_bounds_resident_pods() {
        let cfg = FleetScaleConfig::small(2, 40, 8);
        let mut fleet = ShardedFleet::new(&cfg, 2, 3);
        let agg = fleet.run_to_completion();
        let created = agg.totals().pods_created;
        assert!(created > 0);
        assert!((fleet.resident_pods() as u64) <= created, "reaping must not grow the table");
    }

    #[test]
    fn for_target_pods_scales_cells() {
        assert_eq!(FleetScaleConfig::for_target_pods(1).cells, 1);
        let million = FleetScaleConfig::for_target_pods(1_000_000);
        assert!(million.cells >= 200, "1M pods needs hundreds of cells");
        // Planned pods track the target within a factor of two.
        let fleet = ShardedFleet::new(&FleetScaleConfig::for_target_pods(20_000), 4, 1);
        let planned = fleet.planned_pods();
        assert!((10_000..40_000).contains(&planned), "planned pods {planned} far from 20k target");
    }

    // ---- Differential references (DESIGN.md §9) -------------------------

    /// The first-fit `place_gang` replaces: every pod scans from node 0.
    fn place_gang_from_zero(nodes: &mut [Node], spec: &JobSpec, out: &mut Vec<u32>) -> bool {
        out.clear();
        let res_of =
            |i: usize| if (i as u32) < spec.workers { spec.worker_res } else { spec.ps_res };
        for i in 0..(spec.workers + spec.ps) as usize {
            match nodes.iter().position(|n| n.fits(&res_of(i))) {
                Some(idx) => {
                    nodes[idx].reserve(res_of(i));
                    out.push(idx as u32);
                }
                None => {
                    for (j, &idx) in out.iter().enumerate() {
                        nodes[idx as usize].release(res_of(j));
                    }
                    return false;
                }
            }
        }
        true
    }

    fn gang(workers: u32, worker_res: Resources, ps: u32, ps_res: Resources) -> JobSpec {
        JobSpec {
            global_id: 0,
            workers,
            ps,
            worker_res,
            ps_res,
            duration: SimDuration::from_mins(30),
            submitted_at: SimTime::ZERO,
            hops: 0,
            is_service: false,
            high_priority: false,
        }
    }

    fn node_with_free(id: u32, cpu_millis: u64, mem_bytes: u64) -> Node {
        Node::new(NodeId(id), Resources::from_raw(cpu_millis, mem_bytes), 1.0)
    }

    /// The two-resource anomaly: first-fit is not monotone in free capacity.
    /// A (4 cpu, 6 mem), B (4, 1); gang = worker (4, 1) + PS (1, 6).
    fn anomaly() -> (Vec<Node>, JobSpec) {
        let nodes = vec![node_with_free(0, 4, 6), node_with_free(1, 4, 1)];
        (nodes, gang(1, Resources::from_raw(4, 1), 1, Resources::from_raw(1, 6)))
    }

    #[test]
    fn first_fit_can_succeed_after_a_node_loses_capacity() {
        let (mut nodes, spec) = anomaly();
        let before = nodes.clone();
        let mut out = Vec::new();
        // The worker takes A, the PS then fits nowhere.
        assert!(!place_gang(&mut nodes, &spec, &mut out));
        assert_eq!(nodes, before, "a failed attempt leaves the nodes as found");
        // Shrink A to (3, 6): the worker goes to B, the PS back to A — the
        // scan for the PS must restart at node 0, not at the worker's hit.
        nodes[0].reserve(Resources::from_raw(1, 0));
        assert!(place_gang(&mut nodes, &spec, &mut out));
        assert_eq!(out, vec![1, 0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The resuming scan is the from-zero scan: same verdict, same
        /// assignment, same node state — on random two-resource nodes with
        /// unhealthy ones among them, and on the anomaly's shapes.
        #[test]
        fn resuming_first_fit_matches_from_zero(
            free in proptest::collection::vec((0u64..9, 0u64..9, 0u32..8), 1..12),
            workers in 0u32..7,
            ps in 0u32..5,
            worker_res in (0u64..5, 0u64..5),
            ps_res in (0u64..5, 0u64..7),
        ) {
            let mut nodes: Vec<Node> = free
                .iter()
                .enumerate()
                .map(|(i, &(cpu, mem, health))| {
                    let mut n = node_with_free(i as u32, cpu, mem);
                    n.healthy = health != 0;
                    n
                })
                .collect();
            let spec = gang(
                workers,
                Resources::from_raw(worker_res.0, worker_res.1),
                ps,
                Resources::from_raw(ps_res.0, ps_res.1),
            );
            let mut reference = nodes.clone();
            let (mut got, mut want) = (vec![9], Vec::new());
            let placed = place_gang(&mut nodes, &spec, &mut got);
            prop_assert_eq!(placed, place_gang_from_zero(&mut reference, &spec, &mut want));
            prop_assert_eq!(&nodes, &reference);
            if placed {
                prop_assert_eq!(got, want);
            }
        }
    }

    /// Aggregates, merged event bytes and merged counters of one run.
    type RunOutput = (FleetAggregates, String, std::collections::BTreeMap<String, u64>);

    /// Runs `cfg` once with the retry gate and once placing on every retry;
    /// returns what each produced and how many placements the gate skipped.
    fn gated_vs_always(
        cfg: &FleetScaleConfig,
        shards: u32,
        seed: u64,
        plan: Option<&FaultPlan>,
    ) -> ([RunOutput; 2], u64) {
        let run = |always_place: bool| {
            let mut fleet = ShardedFleet::with_chaos(cfg, shards, seed, plan);
            for cell in
                fleet.shards.iter_mut().flat_map(|s| &mut s.lanes).flat_map(|l| &mut l.cells)
            {
                cell.probe.always_place = always_place;
            }
            let agg = fleet.run_to_completion();
            let merged = fleet.merged_telemetry();
            let skipped = fleet.cells().map(|c| c.probe.skipped).sum();
            ((agg, merged.to_jsonl(), merged.summary().counters), skipped)
        };
        let (gated, skipped) = run(false);
        let (always, would_skip) = run(true);
        assert_eq!(skipped, would_skip, "the gate saw different retries in the two runs");
        ([gated, always], skipped)
    }

    #[test]
    fn retry_gate_fires_and_changes_nothing_when_starved() {
        let mut cfg = FleetScaleConfig::small(3, 20, 4);
        cfg.nodes_per_cell = 2;
        let ([gated, always], skipped) = gated_vs_always(&cfg, 2, 21, None);
        assert_eq!(gated, always);
        let retries = gated.0.totals().wheel_events;
        assert!(skipped > 0 && skipped < retries, "gate skipped {skipped} of <{retries} events");
    }

    /// Every node lost before a checkpoint stall and recovered during it:
    /// the recoveries are the only changes to the cell's nodes, and the
    /// stall keeps `admit_pending` from trying at once, so only the bump on
    /// `NodeRecover` lets the pending jobs' retries place afterwards.
    #[test]
    fn retries_place_after_nodes_recover_during_a_stall() {
        let mut cfg = FleetScaleConfig::small(1, 10, 0);
        cfg.nodes_per_cell = 6;
        cfg.forward_after = SimDuration::from_hours(2);
        let mut faults: Vec<FaultEvent> = (0..cfg.nodes_per_cell)
            .map(|node| FaultEvent {
                at: SimTime::from_secs(1),
                kind: FaultKind::NodeLoss { node },
            })
            .collect();
        faults.push(FaultEvent {
            at: SimTime::from_secs(14 * 60),
            kind: FaultKind::RemoteTierOutage { window: SimDuration::from_mins(5) },
        });
        let plan = FaultPlan::from_events(faults);
        let ([gated, always], skipped) = gated_vs_always(&cfg, 1, 3, Some(&plan));
        assert_eq!(gated, always);
        assert!(skipped > 0, "the lost nodes must have gated retries");
        assert!(gated.0.totals().jobs_admitted > 0, "jobs must place once the nodes are back");
    }

    /// The anomaly inside a cell: a gang fails, a second job's *successful*
    /// reservation shrinks node A, and the gang's next retry — no release,
    /// no node fault in between — must place.
    #[test]
    fn retry_places_after_another_gang_reserved() {
        let cfg = FleetScaleConfig::small(1, 0, 0);
        let mut fleet = ShardedFleet::new(&cfg, 1, 1);
        let lane = &mut fleet.shards[0].lanes[0];
        let (nodes, spec) = anomaly();
        lane.cells[0].nodes = nodes;
        let t = SimTime::from_secs(1);
        Lane::arrive(&mut lane.cells[0], &mut lane.wheel, &cfg, spec, t);
        assert_eq!(lane.cells[0].pending.len(), 1, "the gang does not fit yet");
        let filler = gang(1, Resources::from_raw(1, 0), 0, Resources::ZERO);
        Lane::arrive(&mut lane.cells[0], &mut lane.wheel, &cfg, filler, t);
        assert_eq!(lane.cells[0].agg.jobs_admitted, 1, "the filler takes 1 cpu of node A");
        fleet.shards[0].run_epoch(t + cfg.retry_interval + SimDuration::from_secs(1));
        let cell = &fleet.shards[0].lanes[0].cells[0];
        assert_eq!(cell.agg.jobs_admitted, 2, "the retry must run the placement");
        assert!(cell.pending.is_empty());
    }

    fn fault_strategy() -> impl Strategy<Value = FaultEvent> {
        (0u64..3_600, 0u32..6, 0u32..40).prop_map(|(secs, kind, n)| FaultEvent {
            at: SimTime::from_secs(secs),
            kind: match kind {
                0 => FaultKind::NodeLoss { node: n },
                1 => FaultKind::PreemptionBurst { pods: n },
                2 => FaultKind::WorkerKill { worker: n },
                3 => FaultKind::PsKill { ps: n },
                4 => FaultKind::BandwidthCollapse {
                    factor_permille: 1_500 + 100 * n,
                    window: SimDuration::from_secs(u64::from(n) * 30),
                },
                // Early stalls, while cells still have room: jobs that
                // arrive inside one are parked without an attempt.
                _ => FaultKind::RemoteTierOutage {
                    window: SimDuration::from_secs(60 + u64::from(n) * 10),
                },
            },
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Skipping a placement whose cell has not changed since it last
        /// failed changes nothing: aggregates, merged event bytes and
        /// counters equal the always-place run, under chaos and stalls.
        #[test]
        fn gated_retries_match_always_place(
            seed in 0u64..1_000,
            cells in 1u32..4,
            nodes_per_cell in 1u32..7,
            training in 4usize..24,
            background in 0usize..6,
            shards in 1u32..4,
            early_stall in 0u64..200,
            faults in proptest::collection::vec(fault_strategy(), 0..7),
        ) {
            let mut cfg = FleetScaleConfig::small(cells, training, background);
            cfg.nodes_per_cell = nodes_per_cell;
            let mut faults = faults;
            faults.push(FaultEvent {
                at: SimTime::from_secs(early_stall),
                kind: FaultKind::RemoteTierOutage { window: SimDuration::from_secs(90) },
            });
            let plan = FaultPlan::from_events(faults);
            let ([gated, always], _) = gated_vs_always(&cfg, shards, seed, Some(&plan));
            prop_assert_eq!(gated, always);
        }

        /// A configuration either fails `validate` — and the fleet reports
        /// that instead of building — or runs to completion without a panic
        /// and resolves every job.
        #[test]
        fn validated_configs_do_not_panic(
            seed in 0u64..1_000,
            cells in 0u32..4,
            nodes_per_cell in 0u32..4,
            epoch_s in 0u64..200,
            retry_s in 0u64..40,
            forward_s in 0u64..200,
            hop_limit in 0u32..4,
            telemetry_capacity in 0usize..40,
            min_mins in 0u64..30,
            max_mins in 0u64..90,
            samples_per_sec in 0.0f64..80_000.0,
            faults in proptest::collection::vec(fault_strategy(), 0..5),
        ) {
            let cfg = FleetScaleConfig {
                cells,
                nodes_per_cell,
                epoch: SimDuration::from_secs(epoch_s),
                retry_interval: SimDuration::from_secs(retry_s),
                forward_after: SimDuration::from_secs(forward_s),
                hop_limit,
                telemetry_capacity,
                samples_per_sec_per_worker: samples_per_sec,
                min_job_duration: SimDuration::from_mins(min_mins),
                max_job_duration: SimDuration::from_mins(max_mins),
                ..FleetScaleConfig::small(cells, 8, 2)
            };
            let plan = FaultPlan::from_events(faults);
            match (cfg.validate(), ShardedFleet::try_with_chaos(&cfg, 2, seed, Some(&plan))) {
                (Err(want), Err(got)) => prop_assert_eq!(want, got),
                (Ok(()), Ok(mut fleet)) => {
                    let t = fleet.run_to_completion().totals();
                    prop_assert_eq!(t.jobs_submitted, t.jobs_finished + t.jobs_failed + t.jobs_gave_up);
                    prop_assert_eq!(t.jobs_submitted, u64::from(cells) * 10);
                    fleet.merged_telemetry();
                }
                (want, got) => prop_assert!(false, "validate {:?} but build {:?}", want, got.err()),
            }
        }
    }

    #[test]
    fn degenerate_configs_are_typed_errors() {
        let base = FleetScaleConfig::small(2, 4, 1);
        type Breakage = fn(&mut FleetScaleConfig);
        let cases: [(Breakage, FleetConfigError); 6] = [
            (|c| c.cells = 0, FleetConfigError::NoCells),
            (|c| c.nodes_per_cell = 0, FleetConfigError::NoNodes),
            (|c| c.epoch = SimDuration::ZERO, FleetConfigError::ZeroEpoch),
            (|c| c.retry_interval = SimDuration::ZERO, FleetConfigError::ZeroRetryInterval),
            (|c| c.telemetry_capacity = 0, FleetConfigError::ZeroTelemetryCapacity),
            (
                |c| c.max_job_duration = SimDuration::from_secs(1),
                FleetConfigError::JobDurationRange,
            ),
        ];
        assert_eq!(base.validate(), Ok(()));
        for (breakage, want) in cases {
            let mut cfg = base.clone();
            breakage(&mut cfg);
            assert_eq!(cfg.validate(), Err(want));
            let plan = FaultPlan::from_events(vec![FaultEvent {
                at: SimTime::from_secs(5),
                kind: FaultKind::NodeLoss { node: 3 },
            }]);
            let built = ShardedFleet::try_with_chaos(&cfg, 1, 1, Some(&plan));
            assert_eq!(built.err(), Some(want), "{want}");
        }
    }
}
