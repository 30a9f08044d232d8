//! The parameter-server training engine: DLRover-RM's execution substrate.
//!
//! At AntGroup, DLRM jobs run as asynchronous parameter-server training on
//! TensorFlow (§2.1). This crate rebuilds that runtime as a deterministic
//! simulation with a real-compute escape hatch:
//!
//! * [`cost`] — the asynchronous iteration cost model. It extends the
//!   analytic throughput model of `dlrover-perfmodel` with *per-pod* state:
//!   heterogeneous worker speeds (stragglers), skewed PS parameter
//!   partitions (hot PSes), and a CPU-GPU hybrid variant for the Table 1
//!   cost comparison.
//! * [`sharding`] — the **dynamic data sharding** service (§5.1): a queue of
//!   small, variably-sized shards checked out by workers on demand, with
//!   progress offsets, straggler-aware shard sizing, failure requeueing, and
//!   an exactly-once consumption guarantee (property-tested).
//! * [`ckpt`] — checkpoint store physics (§5.2): a slow remote RDS tier and
//!   a fast in-memory **flash-checkpoint** tier (the stateful two-tier plane
//!   built on them is `dlrover_master::ckptplane`).
//! * [`migration`] — the **seamless migration** state machine (§5.2):
//!   timelines for no-intervention, stop-and-restart, and
//!   seamless+flash-checkpoint strategies (Figs. 12–13).
//! * [`engine`] — the virtual-time job engine gluing it together: workers
//!   draw shards and advance at cost-model rates, PS memory grows with the
//!   embedding model, elasticity actions re-shape the job mid-flight.
//! * [`real`] — the real-compute mode: the same sharding/elasticity
//!   semantics driving actual `dlrover-dlrm` gradient descent, used for the
//!   convergence experiment (Fig. 8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ckpt;
pub mod cost;
pub mod engine;
pub mod migration;
pub mod real;
pub mod rebalance;
pub mod sharding;
#[cfg(test)]
mod sharding_reference;

pub use ckpt::StorageTier;
pub use cost::{
    dynamic_sharding_completion_seconds, static_partition_completion_seconds, AsyncCostModel,
    HybridCostModel, PodState, PsPartition,
};
pub use engine::{
    CheckpointExtent, EngineCheckpoint, JobProgress, PsTrainingEngine, TrainingJobSpec, WorkerState,
};
pub use migration::{
    plan_ps_migration, plan_worker_recovery, MigrationStrategy, MigrationTimeline, TimelineSegment,
};
pub use real::{ElasticEvent, JobCheckpoint, RealModeConfig, RealModeTrainer};
pub use rebalance::{
    balance_blocks, dlrm_blocks, imbalance, partitions_from_assignment, plan_rebalance, Assignment,
    ParamBlock, RebalancePlan,
};
pub use sharding::{DataShard, ShardId, ShardQueue, ShardingConfig, WorkerProgress};
