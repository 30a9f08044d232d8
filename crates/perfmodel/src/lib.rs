//! The resource–performance model of DLRover-RM (§4.1 of the paper).
//!
//! A DLRM training job running on `w` workers (each with `λ_w` CPU cores and
//! mini-batch `m`) and `p` parameter servers (each with `λ_p` cores) spends
//! each iteration in four phases:
//!
//! * gradient computation        `T_grad = α_grad · m / λ_w + β_grad`      (Eqn. 2)
//! * parameter update on PSes    `T_upd  = α_upd · w / (p · λ_p) + β_upd`  (Eqn. 3)
//! * parameter synchronisation   `T_sync = α_sync · (M/p)/(B/w) + β_sync`  (Eqn. 4)
//! * embedding lookups           `T_emb  = α_emb · m · D / p + β_emb`      (Eqn. 5)
//!
//! and the job throughput is `Ψ = w·m / (T_comp + T_comm)` (Eqn. 1). The α/β
//! coefficients are fitted online from runtime profiles with **non-negative
//! least squares** (the paper uses SciPy's NNLS; the crate's `nnls` is a from-scratch
//! Lawson–Hanson implementation), minimising error in a relative sense so the
//! reported goodness metric is the RMSLE the paper quotes.
//!
//! The crate also contains the embedding-memory growth model behind the
//! OOM-prevention mechanism (§5.3): `M_emb = T·D·φ_cats` with
//! `Δφ_cats ∝ Ψ·Δt`, fitted from memory samples and extrapolated to a
//! time-to-OOM estimate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod exec;
mod linalg;
mod memory;
mod nnls;
mod throughput;

pub use exec::{adjust_phases, ExecPlan, GradientMode};
pub use memory::{MemoryModel, MemoryPredictor, MemorySample, OomForecast};
pub use nnls::NnlsError;
pub use throughput::{
    distinct_shape_count, rmsle, IterationBreakdown, JobShape, ModelCoefficients, ThroughputModel,
    ThroughputObservation, WorkloadConstants,
};
