//! Cloud-cluster simulator: the Kubernetes-shaped substrate DLRover-RM
//! runs on.
//!
//! The paper's resource manager never touches machines directly — it
//! observes pod lifecycle events, asks the cluster scheduler for resources,
//! and reacts to preemptions and failures (§2.1: "the DLRM system has no
//! direct control over the cluster resources and has to request resources
//! from the cluster resource scheduler"). This crate provides exactly that
//! interface as a deterministic simulation:
//!
//! * [`resources`] — CPU/memory vectors with saturating arithmetic.
//! * [`node`] / [`pod`] — machines with heterogeneous CPU speed; pods with
//!   the usual phase machine (Pending → Starting → Running → terminal).
//! * [`cluster`] — best-fit bin-packing placement, priority preemption,
//!   node failure injection, background co-located services that breathe
//!   with a diurnal pattern (the "workload consolidation" of Table 2).
//! * [`startup`] — pod start-up latency model (scheduling + image pull +
//!   init), the dominant term of stop-and-restart scaling overhead (§2.2).
//! * [`fleet`] — a workload generator that reproduces the fleet pathologies
//!   of §2.2: log-normally over-provisioned user requests, heavy-tailed job
//!   sizes, Poisson arrivals, and a configurable job mix.
//!
//! The sharded fleet core (DESIGN.md §9) scales the same substrate to the
//! paper's production footprint — 62K+ concurrent jobs, million-pod fleets
//! (§1, Table 4) — without giving up bit-reproducibility:
//!
//! * [`store`] — generational-slab job storage and a paged pod table.
//! * [`timerwheel`] — hierarchical timer wheel, O(1) event scheduling.
//! * [`exchange`] — key-sorted, order-independent cross-shard messaging.
//! * [`shard`] — the sharded fleet simulation itself; K = 1 is the
//!   unsharded baseline, and any K produces byte-identical results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod driver;
pub mod exchange;
pub mod fleet;
pub mod node;
pub mod pod;
#[cfg(test)]
mod queue;
pub mod resources;
pub mod shard;
pub mod startup;
pub mod store;
pub mod timerwheel;

pub use cluster::{Cluster, ClusterConfig, ClusterEvent, DenialReason, ScheduleError};
pub use driver::{drive_fleet, GangJob, GangOutcome};
pub use exchange::{Envelope, Exchange};
pub use fleet::{FleetConfig, FleetJob, FleetWorkload, JobClass};
pub use node::{Node, NodeId};
pub use pod::{Pod, PodId, PodPhase, PodRole, PodSpec, Priority};
pub use resources::Resources;
pub use shard::{
    CellAggregates, FleetAggregates, FleetConfigError, FleetScaleConfig, FleetShard, FleetTotals,
    ShardedFleet,
};
pub use startup::StartupLatencyModel;
pub use store::{GenSlab, PodTable, SlabKey};
pub use timerwheel::TimerWheel;
