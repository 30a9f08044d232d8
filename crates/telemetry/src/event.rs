//! The typed event vocabulary of the whole stack.
//!
//! One flat enum covers every subsystem — pod lifecycle, scheduling,
//! scaling plans, migrations, checkpoints, data sharding, OOM prediction,
//! hot-PS detection, and the brain's three-stage decisions — so a single
//! trace interleaves the full causal story of a run. Variants carry only
//! primitive fields: the telemetry crate sits *below* every runtime crate
//! and cannot name their types.

use dlrover_sim::SimTime;
use serde::{Deserialize, Serialize};

/// One structured occurrence somewhere in the stack.
///
/// Events are stamped with the virtual clock ([`SimTime`]) and a per-log
/// sequence number, so two events at the same instant keep their emission
/// order and serialized logs are bit-comparable across runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Virtual-time stamp (microseconds since simulation start).
    pub at_us: u64,
    /// Monotonic per-log sequence number (survives ring-buffer eviction).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// The event's virtual-time stamp.
    pub fn at(&self) -> SimTime {
        SimTime::from_micros(self.at_us)
    }
}

/// Everything the stack can report. See the module docs for the grouping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    // --- Pod / node lifecycle (cluster) ---
    /// A pod was submitted to the cluster scheduler.
    PodRequested {
        /// Owning job.
        job: u64,
        /// Cluster-assigned pod id.
        pod: u64,
    },
    /// The scheduler bound a pod to a node (a scheduling *grant*).
    PodPlaced {
        /// Pod id.
        pod: u64,
        /// Node the pod landed on.
        node: u32,
    },
    /// A pod could not be placed and parked in the pending queue (a
    /// scheduling *denial*; it may be granted later).
    PodPending {
        /// Pod id.
        pod: u64,
    },
    /// A low-priority pod was evicted to admit a high-priority one.
    PodPreempted {
        /// Pod id.
        pod: u64,
    },
    /// A pod died with its node.
    PodFailed {
        /// Pod id.
        pod: u64,
    },
    /// A node went down.
    NodeFailed {
        /// Node id.
        node: u32,
    },

    // --- Training-engine elasticity (pstrain) ---
    /// A worker joined the job and started pulling shards.
    WorkerAdded {
        /// Engine worker index.
        worker: u64,
    },
    /// A worker was removed gracefully (scale-in).
    WorkerRemoved {
        /// Engine worker index.
        worker: u64,
    },
    /// A worker failed; its in-flight shard re-queued in full.
    WorkerFailed {
        /// Engine worker index.
        worker: u64,
    },
    /// The PS layout was re-shaped (horizontal/vertical scaling, rebalance).
    PsReshaped {
        /// New PS count.
        ps: u64,
    },
    /// Training paused for a migration critical path.
    TrainingPaused {
        /// Pause length in microseconds.
        micros: u64,
    },

    // --- Data sharding (pstrain) ---
    /// A worker's acks over one engine slice: the shards it fully trained,
    /// or the trained prefix of the shard it left on a graceful removal.
    ShardAcked {
        /// Shard-queue worker id.
        worker: u64,
        /// Samples acked.
        len: u64,
    },

    // --- Checkpoints / migration (pstrain, master) ---
    /// A flash checkpoint was written (synchronous tier).
    CheckpointSaved {
        /// Training step at the snapshot.
        step: u64,
        /// Serialized size in bytes.
        bytes: u64,
    },
    /// A scaling plan was applied to a live job.
    ScalingPlanApplied {
        /// Job id.
        job: u64,
        /// Target worker count.
        workers: u32,
        /// Target PS count.
        ps: u32,
        /// Migration strategy name (`"Seamless"`, `"StopAndRestart"`).
        strategy: MigrationKind,
    },

    // --- Instability handling (master) ---
    /// The forecaster predicted an OOM; auto-scaling was off, so this is a
    /// warning the driver must act on.
    OomPredicted {
        /// Job id.
        job: u64,
        /// Total PS bytes the forecast says are needed.
        required_bytes: u64,
    },
    /// A predicted OOM was averted by pre-scaling PS memory.
    OomPrevented {
        /// Job id.
        job: u64,
        /// New total PS allocation in bytes.
        new_alloc_bytes: u64,
    },
    /// A PS exceeded its memory allocation and the job died.
    Oomed {
        /// Job id.
        job: u64,
        /// Index of the PS that hit its wall.
        ps: u64,
    },
    /// A hot PS was detected but auto-rebalancing is disabled.
    HotPsDetected {
        /// Job id.
        job: u64,
        /// Hot PS index.
        ps: u64,
    },
    /// A hot PS was detected and mitigated by a seamless rebalance.
    HotPsMitigated {
        /// Job id.
        job: u64,
        /// Hot PS index.
        ps: u64,
    },

    // --- Brain: three-stage decisions ---
    /// Stage 1: a job was admitted with an initial allocation.
    JobAdmitted {
        /// Job id (0 when the caller has none).
        job: u64,
        /// Initial worker count.
        workers: u32,
        /// Initial PS count.
        ps: u32,
        /// Whether history produced a warm start (vs the cold-start shape).
        warm_start: bool,
    },
    /// Stage 2: a per-job policy proposed a new allocation.
    PolicyAdjusted {
        /// Job id.
        job: u64,
        /// Proposed worker count.
        workers: u32,
        /// Proposed PS count.
        ps: u32,
    },
    /// Stage 3: cluster-level replanning selected a plan for a job.
    PlanSelected {
        /// Job id.
        job: u64,
        /// Predicted throughput gain of the selected plan.
        gain_x1000: u64,
    },

    // --- Job lifecycle (runner) ---
    /// A single-job run began.
    JobStarted {
        /// Job id.
        job: u64,
    },
    /// The job consumed all its data.
    JobCompleted {
        /// Job id.
        job: u64,
    },

    // --- Resilience layer (master, cluster) ---
    /// A supervised control-plane operation was (re)attempted under a
    /// retry policy. `attempt` is 1-based; attempt 1 is the initial try.
    RetryAttempt {
        /// Stable operation name (e.g. `"replace_worker"`).
        op: String,
        /// 1-based attempt number under the governing policy.
        attempt: u32,
    },
    /// A retry policy gave up on an operation: the budget or deadline was
    /// exhausted and the caller must degrade instead of retrying forever.
    RetryExhausted {
        /// Stable operation name.
        op: String,
        /// Total attempts made before giving up.
        attempts: u32,
    },
    /// Repeated pod failures on one node crossed the blacklist threshold;
    /// the scheduler stops placing pods there for the rest of the run.
    NodeBlacklisted {
        /// Node id.
        node: u32,
        /// Pod failures observed on the node at blacklisting time.
        failures: u32,
    },
    /// The master abandoned its nominal allocation and fell back to the
    /// best feasible plan (fewer replicas / smaller PS ask).
    JobDegraded {
        /// Job id.
        job: u64,
        /// Worker target after degradation.
        workers: u32,
        /// PS count after degradation.
        ps: u32,
    },
    /// A crashed master came back and rebuilt job state by replaying the
    /// event log (shard watermark, checkpoint step, live pod set).
    MasterRestarted {
        /// Job id.
        job: u64,
        /// Sample watermark recovered from the replayed shard acks.
        samples_done: u64,
        /// Live workers re-adopted after replay.
        workers: u32,
    },
    /// A worker stopped heart-beating past the supervision timeout; its
    /// in-flight shard lease was reclaimed (re-queued in full).
    SilentWorkerDetected {
        /// Job id.
        job: u64,
        /// Engine worker index.
        worker: u64,
    },

    // --- Learned schedulers (baselines: DL2 / DRL) ---
    /// A learned policy sampled a concrete scaling action. Unlike
    /// [`EventKind::PolicyAdjusted`] (recorded by the driver when a
    /// decision is *applied*), this marks the policy's own draw — noop
    /// actions included — so training trajectories can be replayed from
    /// the trace alone.
    PolicyDecisionMade {
        /// Job id.
        job: u64,
        /// Stable policy name (e.g. `"dl2"`, `"drl"`).
        policy: String,
        /// Action index in the policy's fixed action vocabulary.
        action: u32,
        /// Worker count after the action.
        workers: u32,
        /// PS count after the action.
        ps: u32,
    },
    /// A learned policy finished an episode and observed its mean reward
    /// (fixed-point, ×1000) — the signal its next update trains on.
    PolicyRewardObserved {
        /// Job id.
        job: u64,
        /// 0-based training episode index.
        episode: u32,
        /// Mean per-step reward over the episode, ×1000 (signed).
        reward_x1000: i64,
    },

    // --- Checkpoint plane (master::ckptplane) ---
    /// A checkpoint landed in the in-memory hot tier: its content chunks
    /// are staged and its transfer to the remote tier is enqueued. The
    /// checkpoint is NOT durable yet — only [`EventKind::CheckpointCommitted`]
    /// makes it restorable from the remote tier.
    CheckpointStaged {
        /// Owning job.
        job: u64,
        /// Plane-assigned manifest id (unique per save).
        manifest: u64,
        /// Training step at the snapshot.
        step: u64,
        /// Logical checkpoint size in bytes.
        bytes: u64,
        /// Bytes actually new to the plane (after content-chunk dedup).
        new_bytes: u64,
    },
    /// A manifest (and all its chunks) finished transferring to the remote
    /// tier: the crash-consistent commit record. Restores from the remote
    /// tier may only target committed manifests.
    CheckpointCommitted {
        /// Owning job.
        job: u64,
        /// Manifest id.
        manifest: u64,
        /// Training step of the committed checkpoint.
        step: u64,
    },
    /// A job restored from a checkpoint manifest. `source` is the tier the
    /// bytes came from: `"hot"` (in-memory copy), `"remote"` (committed
    /// manifest in the durable tier), or `"witness"` (peer-pinned,
    /// quorum-co-signed copy).
    CheckpointRestored {
        /// Owning job.
        job: u64,
        /// Manifest id restored from.
        manifest: u64,
        /// Training step restored to.
        step: u64,
        /// Bytes read for the restore.
        bytes: u64,
        /// Tier the restore read: `"hot"`, `"remote"`, or `"witness"`.
        source: String,
    },
    /// A manifest's hot-tier copy was dropped (capacity eviction, a newer
    /// save superseding it, or invalidation when its owner crashed). Until
    /// its commit record lands, the manifest is unrestorable.
    CheckpointHotEvicted {
        /// Owning job.
        job: u64,
        /// Manifest id whose hot copy is gone.
        manifest: u64,
    },
    /// A committed manifest was silently corrupted in the remote tier
    /// (scripted fault). Restores must detect this via the manifest
    /// checksum and fall back to the previous committed manifest.
    ManifestCorrupted {
        /// Owning job.
        job: u64,
        /// Corrupted manifest id.
        manifest: u64,
    },

    // --- Witness protocol (master::witness) ---
    /// Enough witness peers co-signed a manifest to form a commitment
    /// quorum: the manifest is pinned peer-side and becomes a valid
    /// master-less restore point.
    WitnessQuorumReached {
        /// Owning job.
        job: u64,
        /// Co-signed manifest id.
        manifest: u64,
        /// Peers whose signatures formed the quorum.
        peers: u32,
    },
    /// A job's state was recovered after a master loss. `path` names the
    /// recovery route: `"master-replay"` (event-log replay, §6) or
    /// `"witness-quorum"` (peer-elected recoverer restoring the co-signed
    /// manifest). Both paths report latency in the same unit so
    /// experiments can compare them row-for-row.
    JobRecovered {
        /// Job id.
        job: u64,
        /// Stable recovery-path name.
        path: String,
        /// Crash-to-resume downtime in microseconds (restore included).
        latency_us: u64,
        /// Training step the job resumed from.
        step: u64,
    },

    // --- Chaos harness (sim::faultplan) ---
    /// The chaos driver injected one scripted fault from a
    /// [`FaultPlan`](dlrover_sim::FaultPlan). `kind` is the stable
    /// [`FaultKind::name`](dlrover_sim::FaultKind::name) string and
    /// `target` the resolved target index, so the oracle can match each
    /// injection to the recovery that must follow it.
    FaultInjected {
        /// Position of the event in its plan.
        fault: u64,
        /// Stable fault-kind name (e.g. `"WorkerKill"`).
        kind: String,
        /// Resolved target index (worker/PS/node) or burst size.
        target: u64,
    },

    // --- Execution-plan reconfiguration (master, optimizer) ---
    /// A reconfiguration window committed: the job now runs under the new
    /// execution plan (Rubick-style plan switch riding the §5.2 seamless
    /// migration path). `samples_done` is the training watermark at commit
    /// — the oracle's reconfig invariant checks it never regresses.
    ReconfigApplied {
        /// Job id.
        job: u64,
        /// Monotone reconfiguration-window id (unique per job run).
        window: u64,
        /// Gradient mode label (`"async"` / `"sync"`).
        mode: String,
        /// Effective per-worker batch size under the new plan.
        batch: u32,
        /// PS replication factor.
        replicas: u32,
        /// Embedding-shard count of the layout (PS partitions).
        shards: u32,
        /// Samples-done watermark at commit time.
        samples_done: u64,
        /// Training pause charged for the handoff, microseconds.
        pause_us: u64,
    },
    /// An open reconfiguration window was rolled back — a fault landed
    /// inside the window, so the job reverted to its previous committed
    /// plan. Exactly one of `ReconfigApplied`/`ReconfigRolledBack` must be
    /// observed per window id.
    ReconfigRolledBack {
        /// Job id.
        job: u64,
        /// Window id that was aborted.
        window: u64,
        /// Why the window was aborted (e.g. `"master-crash"`).
        reason: String,
        /// Samples-done watermark at rollback time.
        samples_done: u64,
    },
}

/// Migration strategy, mirrored into the telemetry vocabulary (the crate
/// cannot depend on `dlrover-pstrain`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationKind {
    /// Flash-checkpoint handoff; startup overlaps training (§5.2).
    Seamless,
    /// Checkpoint → redeploy → restore; the whole job pauses.
    StopAndRestart,
    /// Advisory decision; nothing was reshaped.
    NoIntervention,
}

impl EventKind {
    /// Stable short name of the variant, for counting and filtering.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::PodRequested { .. } => "PodRequested",
            EventKind::PodPlaced { .. } => "PodPlaced",
            EventKind::PodPending { .. } => "PodPending",
            EventKind::PodPreempted { .. } => "PodPreempted",
            EventKind::PodFailed { .. } => "PodFailed",
            EventKind::NodeFailed { .. } => "NodeFailed",
            EventKind::WorkerAdded { .. } => "WorkerAdded",
            EventKind::WorkerRemoved { .. } => "WorkerRemoved",
            EventKind::WorkerFailed { .. } => "WorkerFailed",
            EventKind::PsReshaped { .. } => "PsReshaped",
            EventKind::TrainingPaused { .. } => "TrainingPaused",
            EventKind::ShardAcked { .. } => "ShardAcked",
            EventKind::CheckpointSaved { .. } => "CheckpointSaved",
            EventKind::ScalingPlanApplied { .. } => "ScalingPlanApplied",
            EventKind::OomPredicted { .. } => "OomPredicted",
            EventKind::OomPrevented { .. } => "OomPrevented",
            EventKind::Oomed { .. } => "Oomed",
            EventKind::HotPsDetected { .. } => "HotPsDetected",
            EventKind::HotPsMitigated { .. } => "HotPsMitigated",
            EventKind::JobAdmitted { .. } => "JobAdmitted",
            EventKind::PolicyAdjusted { .. } => "PolicyAdjusted",
            EventKind::PlanSelected { .. } => "PlanSelected",
            EventKind::RetryAttempt { .. } => "RetryAttempt",
            EventKind::RetryExhausted { .. } => "RetryExhausted",
            EventKind::NodeBlacklisted { .. } => "NodeBlacklisted",
            EventKind::JobDegraded { .. } => "JobDegraded",
            EventKind::MasterRestarted { .. } => "MasterRestarted",
            EventKind::SilentWorkerDetected { .. } => "SilentWorkerDetected",
            EventKind::PolicyDecisionMade { .. } => "PolicyDecisionMade",
            EventKind::PolicyRewardObserved { .. } => "PolicyRewardObserved",
            EventKind::JobStarted { .. } => "JobStarted",
            EventKind::JobCompleted { .. } => "JobCompleted",
            EventKind::CheckpointStaged { .. } => "CheckpointStaged",
            EventKind::CheckpointCommitted { .. } => "CheckpointCommitted",
            EventKind::CheckpointRestored { .. } => "CheckpointRestored",
            EventKind::CheckpointHotEvicted { .. } => "CheckpointHotEvicted",
            EventKind::ManifestCorrupted { .. } => "ManifestCorrupted",
            EventKind::WitnessQuorumReached { .. } => "WitnessQuorumReached",
            EventKind::JobRecovered { .. } => "JobRecovered",
            EventKind::FaultInjected { .. } => "FaultInjected",
            EventKind::ReconfigApplied { .. } => "ReconfigApplied",
            EventKind::ReconfigRolledBack { .. } => "ReconfigRolledBack",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_roundtrip_through_json() {
        let e = Event {
            at_us: 1_500_000,
            seq: 7,
            kind: EventKind::ScalingPlanApplied {
                job: 3,
                workers: 8,
                ps: 4,
                strategy: MigrationKind::Seamless,
            },
        };
        let s = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&s).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.at(), dlrover_sim::SimTime::from_secs_f64(1.5));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EventKind::PodPlaced { pod: 0, node: 0 }.name(), "PodPlaced");
        assert_eq!(EventKind::OomPrevented { job: 1, new_alloc_bytes: 2 }.name(), "OomPrevented");
        assert_eq!(
            EventKind::RetryAttempt { op: "replace_worker".into(), attempt: 2 }.name(),
            "RetryAttempt"
        );
        assert_eq!(EventKind::NodeBlacklisted { node: 3, failures: 3 }.name(), "NodeBlacklisted");
        assert_eq!(
            EventKind::MasterRestarted { job: 0, samples_done: 1, workers: 2 }.name(),
            "MasterRestarted"
        );
        assert_eq!(
            EventKind::PolicyDecisionMade {
                job: 0,
                policy: "dl2".into(),
                action: 1,
                workers: 3,
                ps: 2
            }
            .name(),
            "PolicyDecisionMade"
        );
        assert_eq!(
            EventKind::PolicyRewardObserved { job: 0, episode: 2, reward_x1000: -17 }.name(),
            "PolicyRewardObserved"
        );
        assert_eq!(
            EventKind::CheckpointStaged { job: 0, manifest: 1, step: 2, bytes: 3, new_bytes: 4 }
                .name(),
            "CheckpointStaged"
        );
        assert_eq!(
            EventKind::CheckpointRestored {
                job: 0,
                manifest: 1,
                step: 2,
                bytes: 3,
                source: "remote".into()
            }
            .name(),
            "CheckpointRestored"
        );
        assert_eq!(
            EventKind::JobRecovered {
                job: 0,
                path: "witness-quorum".into(),
                latency_us: 5,
                step: 2
            }
            .name(),
            "JobRecovered"
        );
        assert_eq!(
            EventKind::ReconfigApplied {
                job: 0,
                window: 1,
                mode: "sync".into(),
                batch: 512,
                replicas: 2,
                shards: 4,
                samples_done: 9000,
                pause_us: 20_000_000
            }
            .name(),
            "ReconfigApplied"
        );
        assert_eq!(
            EventKind::ReconfigRolledBack {
                job: 0,
                window: 1,
                reason: "master-crash".into(),
                samples_done: 9000
            }
            .name(),
            "ReconfigRolledBack"
        );
    }

    #[test]
    fn reconfig_events_roundtrip_through_json() {
        let e = Event {
            at_us: 3_000_000,
            seq: 9,
            kind: EventKind::ReconfigApplied {
                job: 2,
                window: 0,
                mode: "async".into(),
                batch: 1024,
                replicas: 1,
                shards: 2,
                samples_done: 4096,
                pause_us: 0,
            },
        };
        let s = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&s).unwrap();
        assert_eq!(back, e);
    }
}
