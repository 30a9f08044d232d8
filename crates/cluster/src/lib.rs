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
//! * [`Resources`] — CPU/memory vectors with saturating arithmetic.
//! * [`Node`] / [`Pod`] — machines with heterogeneous CPU speed; pods with
//!   the usual phase machine (Pending → Starting → Running → terminal).
//! * [`Cluster`] — best-fit bin-packing placement, priority preemption,
//!   node failure injection, background co-located services that breathe
//!   with a diurnal pattern (the "workload consolidation" of Table 2).
//! * [`StartupLatencyModel`] — pod start-up latency model (scheduling + image pull +
//!   init), the dominant term of stop-and-restart scaling overhead (§2.2).
//! * [`FleetWorkload`] — a workload generator that reproduces the fleet pathologies
//!   of §2.2: log-normally over-provisioned user requests, heavy-tailed job
//!   sizes, Poisson arrivals, and a configurable job mix.
//!
//! The sharded fleet core (DESIGN.md §9) scales the same substrate to the
//! paper's production footprint — 62K+ concurrent jobs, million-pod fleets
//! (§1, Table 4) — without giving up bit-reproducibility:
//!
//! * [`GenSlab`] / [`PodTable`] — generational-slab job storage and a
//!   paged pod table.
//! * [`TimerWheel`] — hierarchical timer wheel, O(1) event scheduling.
//! * the exchange — key-sorted, order-independent cross-shard messaging.
//! * [`ShardedFleet`] — the sharded fleet simulation itself; K = 1 is the
//!   unsharded baseline, and any K produces byte-identical results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cluster;
mod driver;
mod exchange;
mod fleet;
mod node;
mod pod;
#[cfg(test)]
mod queue;
mod resources;
mod shard;
mod startup;
mod store;
mod timerwheel;

pub use cluster::{Cluster, ClusterConfig, ClusterEvent, ScheduleError};
pub use driver::{drive_fleet, GangJob, GangOutcome};
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
pub use timerwheel::{ScheduledEvent, TimerWheel};
