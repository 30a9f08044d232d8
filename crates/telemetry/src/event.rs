//! The typed event vocabulary of the whole stack.
//!
//! One flat enum covers every subsystem — pod lifecycle, scheduling,
//! scaling plans, migrations, checkpoints, data sharding, OOM prediction,
//! hot-PS detection, and the brain's three-stage decisions — so a single
//! trace interleaves the full causal story of a run. Variants carry only
//! primitive fields: the telemetry crate sits *below* every runtime crate
//! and cannot name their types.
//!
//! A fleet holds hundreds of thousands of ring slots, and each one is as
//! wide as the widest variant, so every variant that would not fit the
//! 24-byte [`EventKind`] keeps its fields behind one `Box` (a rare record
//! pays one allocation; the per-tick ones stay inline). A field that only
//! ever holds a fixed name is a `Cow<'static, str>`: recorded borrowed,
//! owned only when parsed back. The JSON is the same either way — a
//! newtype variant over a struct serializes as the struct variant would.

use std::borrow::Cow;

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

const _: () = assert!(std::mem::size_of::<Event>() <= 40);
const _: () = assert!(std::mem::size_of::<EventKind>() <= 24);

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
    /// A pod was submitted to the cluster scheduler. A request that is not
    /// granted at once is a scheduling *denial* (no `PodPlaced` at the same
    /// instant; the cluster counts it under `cluster.denials`).
    PodRequested {
        /// Owning job.
        job: u64,
        /// Cluster-assigned pod id.
        pod: u64,
        /// What the pod does for its job.
        role: PodKind,
    },
    /// The scheduler bound a pod to a node (a scheduling *grant*).
    PodPlaced {
        /// Pod id.
        pod: u64,
        /// Node the pod landed on.
        node: u32,
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

    // --- Data sharding (pstrain) ---
    /// A worker's acks over one engine slice: the shards it fully trained,
    /// or the trained prefix of the shard it left on a graceful removal.
    ShardAcked {
        /// Shard-queue worker id.
        worker: u64,
        /// Samples acked.
        len: u64,
    },

    // --- Migration (master) ---
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
    RetryAttempt(Box<RetryAttempt>),
    /// A retry policy gave up on an operation: the budget or deadline was
    /// exhausted and the caller must degrade instead of retrying forever.
    RetryExhausted(Box<RetryExhausted>),
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
    PolicyDecisionMade(Box<PolicyDecisionMade>),
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
    CheckpointStaged(Box<CheckpointStaged>),
    /// A manifest (and all its chunks) finished transferring to the remote
    /// tier: the crash-consistent commit record. Restores from the remote
    /// tier may only target committed manifests.
    CheckpointCommitted(Box<CheckpointCommitted>),
    /// A job restored from a checkpoint manifest. `source` is the tier the
    /// bytes came from: `"hot"` (in-memory copy), `"remote"` (committed
    /// manifest in the durable tier), or `"witness"` (peer-pinned,
    /// quorum-co-signed copy).
    CheckpointRestored(Box<CheckpointRestored>),
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
    JobRecovered(Box<JobRecovered>),

    // --- Chaos harness (sim::faultplan) ---
    /// The chaos driver injected one scripted fault from a
    /// [`FaultPlan`](dlrover_sim::FaultPlan). `kind` is the stable
    /// [`FaultKind::name`](dlrover_sim::FaultKind::name) string and
    /// `target` the resolved target index, so the oracle can match each
    /// injection to the recovery that must follow it.
    FaultInjected(Box<FaultInjected>),

    // --- Execution-plan reconfiguration (master, optimizer) ---
    /// A reconfiguration window committed: the job now runs under the new
    /// execution plan (Rubick-style plan switch riding the §5.2 seamless
    /// migration path). `samples_done` is the training watermark at commit
    /// — the oracle's reconfig invariant checks it never regresses.
    ReconfigApplied(Box<ReconfigApplied>),
    /// An open reconfiguration window was rolled back — a fault landed
    /// inside the window, so the job reverted to its previous committed
    /// plan. Exactly one of `ReconfigApplied`/`ReconfigRolledBack` must be
    /// observed per window id.
    ReconfigRolledBack(Box<ReconfigRolledBack>),
}

/// `payload.into()` records a boxed variant: `CheckpointStaged { .. }.into()`
/// is `EventKind::CheckpointStaged(Box::new(CheckpointStaged { .. }))`.
macro_rules! boxed_variants {
    ($($name:ident),*) => {$(
        impl From<$name> for EventKind {
            fn from(fields: $name) -> Self {
                EventKind::$name(Box::new(fields))
            }
        }
    )*};
}
boxed_variants!(
    RetryAttempt,
    RetryExhausted,
    PolicyDecisionMade,
    CheckpointStaged,
    CheckpointCommitted,
    CheckpointRestored,
    JobRecovered,
    FaultInjected,
    ReconfigApplied,
    ReconfigRolledBack
);

/// Fields of [`EventKind::RetryAttempt`]; boxed because 28 bytes of fields and a
/// tag do not fit the 24 bytes [`EventKind`] is held to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryAttempt {
    /// Stable operation name (e.g. `"replace_worker"`).
    pub op: String,
    /// 1-based attempt number under the governing policy.
    pub attempt: u32,
}

/// Fields of [`EventKind::RetryExhausted`]; boxed because 28 bytes of fields and a
/// tag do not fit the 24 bytes [`EventKind`] is held to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryExhausted {
    /// Stable operation name.
    pub op: String,
    /// Total attempts made before giving up.
    pub attempts: u32,
}

/// Fields of [`EventKind::PolicyDecisionMade`]; boxed because 44 bytes of fields and a
/// tag do not fit the 24 bytes [`EventKind`] is held to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyDecisionMade {
    /// Job id.
    pub job: u64,
    /// Stable policy name (e.g. `"dl2"`, `"drl"`).
    pub policy: Cow<'static, str>,
    /// Action index in the policy's fixed action vocabulary.
    pub action: u32,
    /// Worker count after the action.
    pub workers: u32,
    /// PS count after the action.
    pub ps: u32,
}

/// Fields of [`EventKind::CheckpointStaged`]; boxed because 40 bytes of fields and a
/// tag do not fit the 24 bytes [`EventKind`] is held to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointStaged {
    /// Owning job.
    pub job: u64,
    /// Plane-assigned manifest id (unique per save).
    pub manifest: u64,
    /// Training step at the snapshot.
    pub step: u64,
    /// Logical checkpoint size in bytes.
    pub bytes: u64,
    /// Bytes actually new to the plane (after content-chunk dedup).
    pub new_bytes: u64,
}

/// Fields of [`EventKind::CheckpointCommitted`]; boxed because 24 bytes of fields and a
/// tag do not fit the 24 bytes [`EventKind`] is held to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointCommitted {
    /// Owning job.
    pub job: u64,
    /// Manifest id.
    pub manifest: u64,
    /// Training step of the committed checkpoint.
    pub step: u64,
}

/// Fields of [`EventKind::CheckpointRestored`]; boxed because 56 bytes of fields and a
/// tag do not fit the 24 bytes [`EventKind`] is held to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointRestored {
    /// Owning job.
    pub job: u64,
    /// Manifest id restored from.
    pub manifest: u64,
    /// Training step restored to.
    pub step: u64,
    /// Bytes read for the restore.
    pub bytes: u64,
    /// Tier the restore read: `"hot"`, `"remote"`, or `"witness"`.
    pub source: Cow<'static, str>,
}

/// Fields of [`EventKind::JobRecovered`]; boxed because 48 bytes of fields and a
/// tag do not fit the 24 bytes [`EventKind`] is held to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecovered {
    /// Job id.
    pub job: u64,
    /// Stable recovery-path name.
    pub path: Cow<'static, str>,
    /// Crash-to-resume downtime in microseconds (restore included).
    pub latency_us: u64,
    /// Training step the job resumed from.
    pub step: u64,
}

/// Fields of [`EventKind::FaultInjected`]; boxed because 40 bytes of fields and a
/// tag do not fit the 24 bytes [`EventKind`] is held to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultInjected {
    /// Position of the event in its plan.
    pub fault: u64,
    /// Stable fault-kind name (e.g. `"WorkerKill"`).
    pub kind: Cow<'static, str>,
    /// Resolved target index (worker/PS/node) or burst size.
    pub target: u64,
}

/// Fields of [`EventKind::ReconfigApplied`]; boxed because 68 bytes of fields and a
/// tag do not fit the 24 bytes [`EventKind`] is held to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconfigApplied {
    /// Job id.
    pub job: u64,
    /// Monotone reconfiguration-window id (unique per job run).
    pub window: u64,
    /// Gradient mode label (`"async"` / `"sync"`).
    pub mode: Cow<'static, str>,
    /// Effective per-worker batch size under the new plan.
    pub batch: u32,
    /// PS replication factor.
    pub replicas: u32,
    /// Embedding-shard count of the layout (PS partitions).
    pub shards: u32,
    /// Samples-done watermark at commit time.
    pub samples_done: u64,
    /// Training pause charged for the handoff, microseconds.
    pub pause_us: u64,
}

/// Fields of [`EventKind::ReconfigRolledBack`]; boxed because 48 bytes of fields and a
/// tag do not fit the 24 bytes [`EventKind`] is held to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconfigRolledBack {
    /// Job id.
    pub job: u64,
    /// Window id that was aborted.
    pub window: u64,
    /// Why the window was aborted (e.g. `"master-crash"`).
    pub reason: Cow<'static, str>,
    /// Samples-done watermark at rollback time.
    pub samples_done: u64,
}

/// A pod's role, mirrored into the telemetry vocabulary (the crate cannot
/// depend on `dlrover-cluster`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PodKind {
    /// Gradient-computing worker.
    Worker,
    /// Parameter server.
    ParameterServer,
    /// Anything else (job master, background service, …).
    Other,
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
            EventKind::PodPreempted { .. } => "PodPreempted",
            EventKind::PodFailed { .. } => "PodFailed",
            EventKind::NodeFailed { .. } => "NodeFailed",
            EventKind::WorkerAdded { .. } => "WorkerAdded",
            EventKind::WorkerRemoved { .. } => "WorkerRemoved",
            EventKind::WorkerFailed { .. } => "WorkerFailed",
            EventKind::PsReshaped { .. } => "PsReshaped",
            EventKind::ShardAcked { .. } => "ShardAcked",
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
            EventKind::from(RetryAttempt { op: "replace_worker".into(), attempt: 2 }).name(),
            "RetryAttempt"
        );
        assert_eq!(EventKind::NodeBlacklisted { node: 3, failures: 3 }.name(), "NodeBlacklisted");
        assert_eq!(
            EventKind::MasterRestarted { job: 0, samples_done: 1, workers: 2 }.name(),
            "MasterRestarted"
        );
        assert_eq!(
            EventKind::from(PolicyDecisionMade {
                job: 0,
                policy: "dl2".into(),
                action: 1,
                workers: 3,
                ps: 2
            })
            .name(),
            "PolicyDecisionMade"
        );
        assert_eq!(
            EventKind::PolicyRewardObserved { job: 0, episode: 2, reward_x1000: -17 }.name(),
            "PolicyRewardObserved"
        );
        assert_eq!(
            EventKind::from(CheckpointStaged {
                job: 0,
                manifest: 1,
                step: 2,
                bytes: 3,
                new_bytes: 4
            })
            .name(),
            "CheckpointStaged"
        );
        assert_eq!(
            EventKind::from(CheckpointRestored {
                job: 0,
                manifest: 1,
                step: 2,
                bytes: 3,
                source: "remote".into()
            })
            .name(),
            "CheckpointRestored"
        );
        assert_eq!(
            EventKind::from(JobRecovered {
                job: 0,
                path: "witness-quorum".into(),
                latency_us: 5,
                step: 2
            })
            .name(),
            "JobRecovered"
        );
        assert_eq!(
            EventKind::from(ReconfigApplied {
                job: 0,
                window: 1,
                mode: "sync".into(),
                batch: 512,
                replicas: 2,
                shards: 4,
                samples_done: 9000,
                pause_us: 20_000_000
            })
            .name(),
            "ReconfigApplied"
        );
        assert_eq!(
            EventKind::from(ReconfigRolledBack {
                job: 0,
                window: 1,
                reason: "master-crash".into(),
                samples_done: 9000
            })
            .name(),
            "ReconfigRolledBack"
        );
    }

    #[test]
    fn reconfig_events_roundtrip_through_json() {
        let e = Event {
            at_us: 3_000_000,
            seq: 9,
            kind: ReconfigApplied {
                job: 2,
                window: 0,
                mode: "async".into(),
                batch: 1024,
                replicas: 1,
                shards: 2,
                samples_done: 4096,
                pause_us: 0,
            }
            .into(),
        };
        let s = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&s).unwrap();
        assert_eq!(back, e);
    }

    /// One value of every variant against the JSON line the struct-variant
    /// enum wrote for it before the wide variants were boxed: a boxed
    /// payload must serialize exactly as the fields it replaced, and parse
    /// back to the same value.
    #[test]
    fn every_variant_serializes_as_before() {
        let cases: Vec<(EventKind, &str)> = vec![
            (
                EventKind::PodRequested {
                    job: 1000003,
                    pod: 2000006,
                    role: PodKind::ParameterServer,
                },
                r#"{"PodRequested":{"job":1000003,"pod":2000006,"role":"ParameterServer"}}"#,
            ),
            (
                EventKind::PodPlaced { pod: 4000012, node: 5 },
                r#"{"PodPlaced":{"pod":4000012,"node":5}}"#,
            ),
            (EventKind::PodPreempted { pod: 6000018 }, r#"{"PodPreempted":{"pod":6000018}}"#),
            (EventKind::PodFailed { pod: 7000021 }, r#"{"PodFailed":{"pod":7000021}}"#),
            (EventKind::NodeFailed { node: 8 }, r#"{"NodeFailed":{"node":8}}"#),
            (EventKind::WorkerAdded { worker: 9000027 }, r#"{"WorkerAdded":{"worker":9000027}}"#),
            (
                EventKind::WorkerRemoved { worker: 10000030 },
                r#"{"WorkerRemoved":{"worker":10000030}}"#,
            ),
            (
                EventKind::WorkerFailed { worker: 11000033 },
                r#"{"WorkerFailed":{"worker":11000033}}"#,
            ),
            (EventKind::PsReshaped { ps: 12000036 }, r#"{"PsReshaped":{"ps":12000036}}"#),
            (
                EventKind::ShardAcked { worker: 13000039, len: 14000042 },
                r#"{"ShardAcked":{"worker":13000039,"len":14000042}}"#,
            ),
            (
                EventKind::ScalingPlanApplied {
                    job: 15000045,
                    workers: 16,
                    ps: 17,
                    strategy: MigrationKind::StopAndRestart,
                },
                r#"{"ScalingPlanApplied":{"job":15000045,"workers":16,"ps":17,"strategy":"StopAndRestart"}}"#,
            ),
            (
                EventKind::OomPredicted { job: 19000057, required_bytes: 20000060 },
                r#"{"OomPredicted":{"job":19000057,"required_bytes":20000060}}"#,
            ),
            (
                EventKind::OomPrevented { job: 21000063, new_alloc_bytes: 22000066 },
                r#"{"OomPrevented":{"job":21000063,"new_alloc_bytes":22000066}}"#,
            ),
            (
                EventKind::Oomed { job: 23000069, ps: 24000072 },
                r#"{"Oomed":{"job":23000069,"ps":24000072}}"#,
            ),
            (
                EventKind::HotPsDetected { job: 25000075, ps: 26000078 },
                r#"{"HotPsDetected":{"job":25000075,"ps":26000078}}"#,
            ),
            (
                EventKind::HotPsMitigated { job: 27000081, ps: 28000084 },
                r#"{"HotPsMitigated":{"job":27000081,"ps":28000084}}"#,
            ),
            (
                EventKind::JobAdmitted { job: 29000087, workers: 30, ps: 31, warm_start: true },
                r#"{"JobAdmitted":{"job":29000087,"workers":30,"ps":31,"warm_start":true}}"#,
            ),
            (
                EventKind::PolicyAdjusted { job: 33000099, workers: 34, ps: 35 },
                r#"{"PolicyAdjusted":{"job":33000099,"workers":34,"ps":35}}"#,
            ),
            (
                EventKind::PlanSelected { job: 36000108, gain_x1000: 37000111 },
                r#"{"PlanSelected":{"job":36000108,"gain_x1000":37000111}}"#,
            ),
            (EventKind::JobStarted { job: 38000114 }, r#"{"JobStarted":{"job":38000114}}"#),
            (EventKind::JobCompleted { job: 39000117 }, r#"{"JobCompleted":{"job":39000117}}"#),
            (
                RetryAttempt { op: "replace-ps1-3".into(), attempt: 41 }.into(),
                r#"{"RetryAttempt":{"op":"replace-ps1-3","attempt":41}}"#,
            ),
            (
                RetryExhausted { op: "replace-ps1-3".into(), attempts: 43 }.into(),
                r#"{"RetryExhausted":{"op":"replace-ps1-3","attempts":43}}"#,
            ),
            (
                EventKind::NodeBlacklisted { node: 44, failures: 45 },
                r#"{"NodeBlacklisted":{"node":44,"failures":45}}"#,
            ),
            (
                EventKind::JobDegraded { job: 46000138, workers: 47, ps: 48 },
                r#"{"JobDegraded":{"job":46000138,"workers":47,"ps":48}}"#,
            ),
            (
                EventKind::MasterRestarted { job: 49000147, samples_done: 50000150, workers: 51 },
                r#"{"MasterRestarted":{"job":49000147,"samples_done":50000150,"workers":51}}"#,
            ),
            (
                EventKind::SilentWorkerDetected { job: 52000156, worker: 53000159 },
                r#"{"SilentWorkerDetected":{"job":52000156,"worker":53000159}}"#,
            ),
            (
                PolicyDecisionMade {
                    job: 54000162,
                    policy: "dl2".into(),
                    action: 56,
                    workers: 57,
                    ps: 58,
                }
                .into(),
                r#"{"PolicyDecisionMade":{"job":54000162,"policy":"dl2","action":56,"workers":57,"ps":58}}"#,
            ),
            (
                EventKind::PolicyRewardObserved { job: 59000177, episode: 60, reward_x1000: -61 },
                r#"{"PolicyRewardObserved":{"job":59000177,"episode":60,"reward_x1000":-61}}"#,
            ),
            (
                CheckpointStaged {
                    job: 62000186,
                    manifest: 63000189,
                    step: 64000192,
                    bytes: 65000195,
                    new_bytes: 66000198,
                }
                .into(),
                r#"{"CheckpointStaged":{"job":62000186,"manifest":63000189,"step":64000192,"bytes":65000195,"new_bytes":66000198}}"#,
            ),
            (
                CheckpointCommitted { job: 67000201, manifest: 68000204, step: 69000207 }.into(),
                r#"{"CheckpointCommitted":{"job":67000201,"manifest":68000204,"step":69000207}}"#,
            ),
            (
                CheckpointRestored {
                    job: 70000210,
                    manifest: 71000213,
                    step: 72000216,
                    bytes: 73000219,
                    source: "witness".into(),
                }
                .into(),
                r#"{"CheckpointRestored":{"job":70000210,"manifest":71000213,"step":72000216,"bytes":73000219,"source":"witness"}}"#,
            ),
            (
                EventKind::CheckpointHotEvicted { job: 75000225, manifest: 76000228 },
                r#"{"CheckpointHotEvicted":{"job":75000225,"manifest":76000228}}"#,
            ),
            (
                EventKind::ManifestCorrupted { job: 77000231, manifest: 78000234 },
                r#"{"ManifestCorrupted":{"job":77000231,"manifest":78000234}}"#,
            ),
            (
                EventKind::WitnessQuorumReached { job: 79000237, manifest: 80000240, peers: 81 },
                r#"{"WitnessQuorumReached":{"job":79000237,"manifest":80000240,"peers":81}}"#,
            ),
            (
                JobRecovered {
                    job: 82000246,
                    path: "witness-quorum".into(),
                    latency_us: 84000252,
                    step: 85000255,
                }
                .into(),
                r#"{"JobRecovered":{"job":82000246,"path":"witness-quorum","latency_us":84000252,"step":85000255}}"#,
            ),
            (
                FaultInjected { fault: 86000258, kind: "MemoryPressure".into(), target: 88000264 }
                    .into(),
                r#"{"FaultInjected":{"fault":86000258,"kind":"MemoryPressure","target":88000264}}"#,
            ),
            (
                ReconfigApplied {
                    job: 89000267,
                    window: 90000270,
                    mode: "sync".into(),
                    batch: 92,
                    replicas: 93,
                    shards: 94,
                    samples_done: 95000285,
                    pause_us: 96000288,
                }
                .into(),
                r#"{"ReconfigApplied":{"job":89000267,"window":90000270,"mode":"sync","batch":92,"replicas":93,"shards":94,"samples_done":95000285,"pause_us":96000288}}"#,
            ),
            (
                ReconfigRolledBack {
                    job: 97000291,
                    window: 98000294,
                    reason: "master-crash".into(),
                    samples_done: 100000300,
                }
                .into(),
                r#"{"ReconfigRolledBack":{"job":97000291,"window":98000294,"reason":"master-crash","samples_done":100000300}}"#,
            ),
        ];
        let names: std::collections::BTreeSet<_> = cases.iter().map(|(k, _)| k.name()).collect();
        assert_eq!(names.len(), 39, "one case per variant");
        for (kind, json) in cases {
            assert_eq!(serde_json::to_string(&kind).unwrap(), json, "{}", kind.name());
            let back: EventKind = serde_json::from_str(json).unwrap();
            assert_eq!(back, kind, "{}", kind.name());
        }
    }
}
