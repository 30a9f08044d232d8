//! The job master: DLRover-RM's per-job agent (Fig. 4).
//!
//! Each training job gets one master pod hosting two subcomponents:
//!
//! * the **profiler** monitors runtime statistics — iteration timings for
//!   the throughput model, per-PS memory samples for the OOM predictor —
//!   and periodically reports them to the cluster brain's optimizer
//!   ([`JobRuntimeProfile`]);
//! * the **executor** ([`JobMaster`]) applies resource plans coming
//!   back from the brain: it orchestrates seamless migrations, feeds data
//!   shards to workers (via the engine's shard queue, which paces slow
//!   workers itself), detects failed and silent workers from heartbeats,
//!   and pre-scales PS memory when the OOM predictor fires.
//!
//! The [`SchedulerPolicy`] trait is the interface through which
//! the DLRover-RM brain *and* the baseline schedulers (ES, Optimus, static)
//! drive the same job master — keeping the comparison in Figs. 7/10 apples
//! to apples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod ckptplane;
mod master;
mod policy;
mod profiler;
mod replay;
pub mod resilience;
mod witness;

pub use ckptplane::{
    CheckpointPlane, ChunkRef, ChunkingConfig, CkptPlaneConfig, Manifest, PlaneStats,
    RestoreOutcome, RestoreSource, SaveOutcome, RETAIN_PER_JOB,
};
pub use master::{JobMaster, MasterConfig, MasterEvent};
pub use policy::{PolicyDecision, ReconfigRequest, SchedulerPolicy};
pub use profiler::JobRuntimeProfile;
/// The old name of [`JobControl`], kept for the frozen benchmark harness
/// until the benchmark change (ROADMAP item 3) deletes it.
pub use replay::JobControl as ReplayedJobState;
pub use replay::{
    restore_after_master_loss, IllegalTransition, JobControl, RecoveryOutcome, RecoveryPath, Window,
};
pub use resilience::{FailureBudget, JobHealth, RetryDecision, RetryPolicy, RetrySupervisor};
pub use witness::{PinnedManifest, WitnessBoard, WitnessRestore};
