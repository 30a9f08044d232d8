//! Tiered flash-checkpoint plane (§5.3) shared by every job in the
//! cluster.
//!
//! Two tiers, as in production DLRover-RM: a memory-speed *hot* tier
//! (the distributed caching service that makes flash checkpoints
//! sub-second for a 20 GB model) with finite capacity and
//! oldest-save-first eviction, and a throttled *remote* tier (RDS,
//! §2.2: "5-10 minutes" for a full checkpoint) behind a single shared
//! FIFO transfer queue. Checkpoints
//! are content-chunked ([`ChunkStore`]) so consecutive saves and family
//! peers dedup against each other, and a checkpoint is *durable* only
//! once its manifest record lands remotely — the commit record the
//! durability oracle invariants audit.
//!
//! [`crate::witness`] builds the master-less recovery path on top:
//! shard peers co-sign manifests and pin quorum-certified copies so a
//! job can recover without the master's event log.

mod chunks;
mod plane;

pub use chunks::{manifest_chunks, ChunkRef, ChunkStore, ChunkingConfig};
pub use plane::{
    CheckpointPlane, CkptPlaneConfig, Manifest, PlaneStats, RestoreOutcome, RestoreSource,
    SaveOutcome, RETAIN_PER_JOB,
};
