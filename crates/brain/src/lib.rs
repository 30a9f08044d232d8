//! The cluster brain: DLRover-RM's central coordinator (Fig. 4).
//!
//! The brain owns two things:
//!
//! * the **config DB** ([`ConfigDb`]) — historical job traces feeding the
//!   warm-starting stage (Algorithm 1);
//! * the **optimizer** — per-job it is the three-stage policy
//!   ([`DlroverPolicy`]): warm-start, then online NNLS fitting +
//!   NSGA-II candidate generation + plan selection, with seamless
//!   migrations; across jobs it is the weighted-greedy selection
//!   ([`ClusterBrain::replan`]), which resolves contention for the
//!   cluster's free capacity (Eqns. 11–14).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod brain;
mod configdb;
mod policy;

pub use brain::{ClusterBrain, ReplanInput};
pub use configdb::ConfigDb;
pub use policy::{DlroverPolicy, DlroverPolicyConfig};
