//! Optimization machinery behind DLRover-RM's three-stage algorithm (§4).
//!
//! * [`Nsga2`] — a from-scratch NSGA-II evolutionary optimizer (fast
//!   non-dominated sorting, crowding distance, binary tournament, simulated
//!   binary crossover, polynomial mutation). The paper uses NSGA-II to
//!   generate job-level resource-plan candidates on the Pareto frontier of
//!   *(Resource Cost, 1/Throughput Gain)* (Eqns. 7–9).
//! * [`ResourceAllocation`], [`PriceTable`] — resource-allocation vocabulary: allocations, price table
//!   (`Money(a_r)`), resource cost `RC(A)` and throughput gain `TG(A)`.
//! * [`NsgaPlanGenerator`] — the job-level candidate generator wiring the
//!   throughput model into the bi-objective NSGA-II problem, plus the
//!   plug-in [`ScalingAlgorithm`] API the paper exposes for custom
//!   hardware.
//! * [`warm_start()`] — Algorithm 1: top-k similar historical jobs +
//!   exponential smoothing to produce the start-up configuration.
//! * [`select_plans`] — cluster-level weighted greedy selection (Eqns. 11–14):
//!   maximize `Σ RE(Aʲ)·WG(Aʲ)` subject to the cluster capacity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod greedy;
mod nsga2;
#[cfg(test)]
mod nsga2_reference;
mod plan;
mod scaling;
mod warm_start;

pub use greedy::{
    priority_weight, select_plans, ClusterCapacity, GreedyConfig, JobCandidates, SelectedPlan,
};
pub use nsga2::{hypervolume_2d, Nsga2, Nsga2Config, ParetoPoint};
pub use plan::{
    PriceTable, ReconfigAction, ReconfigSpace, ResourceAllocation, ScalingOverheadModel,
};
pub use scaling::{
    plan_throughput, power_grid, rightsize_search, NsgaPlanGenerator, PlanCandidate,
    PlanSearchSpace, ScalingAlgorithm,
};
pub use warm_start::{warm_start, JobMetadata, JobRecord, WarmStartConfig};
