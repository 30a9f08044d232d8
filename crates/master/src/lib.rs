//! The job master: DLRover-RM's per-job agent (Fig. 4).
//!
//! Each training job gets one master pod hosting two subcomponents:
//!
//! * the **profiler** ([`profiler`]) monitors runtime statistics — iteration
//!   timings for the throughput model, per-PS memory samples for the OOM
//!   predictor — and periodically reports them to the cluster brain's
//!   optimizer;
//! * the **executor** ([`master::JobMaster`]) applies resource plans coming
//!   back from the brain: it orchestrates seamless migrations, feeds data
//!   shards to workers (via the engine's shard queue, which paces slow
//!   workers itself), detects failed and silent workers from heartbeats,
//!   and pre-scales PS memory when the OOM predictor fires.
//!
//! The [`policy`] module defines the `SchedulerPolicy` trait through which
//! the DLRover-RM brain *and* the baseline schedulers (ES, Optimus, static)
//! drive the same job master — keeping the comparison in Figs. 7/10 apples
//! to apples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ckptplane;
pub mod master;
pub mod policy;
pub mod profiler;
pub mod replay;
pub mod resilience;
pub mod witness;

pub use ckptplane::{CheckpointPlane, CkptPlaneConfig, PlaneStats, RestoreSource};
pub use master::{JobMaster, MasterConfig, MasterEvent};
pub use policy::{PolicyDecision, ReconfigRequest, SchedulerPolicy};
pub use profiler::{JobRuntimeProfile, Profiler};
/// The old name of [`JobControl`], kept for the frozen benchmark harness
/// until the benchmark change (ROADMAP item 3) deletes it.
pub use replay::JobControl as ReplayedJobState;
pub use replay::{IllegalTransition, JobControl, RecoveryOutcome, RecoveryPath, Window};
pub use resilience::{
    BudgetLedger, FailureBudget, JobHealth, RetryDecision, RetryPolicy, RetrySupervisor,
};
pub use witness::{WitnessBoard, WitnessRestore};
