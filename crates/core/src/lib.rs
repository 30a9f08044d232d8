//! **DLRover-RM in Rust** — a from-scratch reproduction of
//! *"DLRover-RM: Resource Optimization for Deep Recommendation Models
//! Training in the Cloud"* (VLDB 2024).
//!
//! DLRover-RM is an elastic training framework for deep learning
//! recommendation models (DLRMs) on shared cloud clusters. It replaces
//! user-guessed resource configurations with a fitted
//! *resource–performance model* and a three-stage algorithm
//! (warm-start → NSGA-II auto-scaling → instability handling), and it keeps
//! jobs healthy under cloud chaos with *dynamic data sharding*, *seamless
//! migration*, *flash-checkpointing*, and *OOM prevention*.
//!
//! This workspace rebuilds the entire system — and every substrate it needs
//! (cloud-cluster simulator, async PS training engine, trainable DLRM
//! models, NNLS / NSGA-II optimizers) — in pure Rust. See `DESIGN.md` for
//! the inventory and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! # Quickstart
//!
//! ```
//! use dlrover_rm::prelude::*;
//!
//! // A mis-provisioned 20k-step job...
//! let spec = TrainingJobSpec::paper_default(20_000);
//! let config = RunnerConfig::default();
//! let user_request = ResourceAllocation::new(
//!     JobShape::new(2, 1, 2.0, 2.0, 512), 8.0, 64.0);
//!
//! // ...takes much longer under a static allocation than under DLRover-RM.
//! let static_report = run_single_job(
//!     Box::new(StaticPolicy::new(user_request)), spec.clone(), &config);
//! let dlrover_report = run_single_job(
//!     Box::new(DlroverPolicy::new(user_request, DlroverPolicyConfig::default())),
//!     spec, &config);
//! assert!(dlrover_report.jct.unwrap() < static_report.jct.unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod chaos;
pub mod runner;

/// One-stop imports for applications and experiments.
pub mod prelude {
    pub use crate::chaos::{
        run_chaos_job, run_chaos_job_with_policy, run_chaos_suite, ChaosConfig, ChaosReport,
    };
    pub use crate::runner::{
        run_single_job, run_single_job_traced, run_single_job_with, RunReport, RunnerConfig,
    };
    pub use dlrover_baselines::{
        Dl2Policy, DrlPolicy, EsPolicy, LearnedPolicy, OptimusPolicy, StaticPolicy, WellTunedPolicy,
    };
    pub use dlrover_brain::{ClusterBrain, ConfigDb, DlroverPolicy, DlroverPolicyConfig};
    pub use dlrover_cluster::{Cluster, ClusterConfig, FleetConfig, FleetWorkload, Resources};
    pub use dlrover_dlrm::model::{CtrModel, DlrmModel, ModelConfig, ModelKind};
    pub use dlrover_dlrm::{DatasetConfig, SyntheticCriteo};
    pub use dlrover_master::{
        JobMaster, JobRuntimeProfile, MasterConfig, PolicyDecision, ReconfigRequest,
        SchedulerPolicy,
    };
    pub use dlrover_optimizer::{
        JobMetadata, PlanSearchSpace, PriceTable, ReconfigAction, ReconfigSpace,
        ResourceAllocation, WarmStartConfig,
    };
    pub use dlrover_perfmodel::{
        ExecPlan, GradientMode, JobShape, MemoryModel, ModelCoefficients, ThroughputModel,
        WorkloadConstants,
    };
    pub use dlrover_pstrain::{
        AsyncCostModel, ElasticEvent, MigrationStrategy, PodState, PsTrainingEngine,
        RealModeConfig, RealModeTrainer, TrainingJobSpec,
    };
    pub use dlrover_sim::{RngStreams, SimDuration, SimTime};
    pub use dlrover_telemetry::{EventKind, Telemetry, TelemetrySnapshot, TelemetrySummary};
}

// Re-export the component crates for users who want the full APIs.
pub use dlrover_baselines as baselines;
pub use dlrover_brain as brain;
pub use dlrover_cluster as cluster;
pub use dlrover_dlrm as dlrm;
pub use dlrover_master as master;
pub use dlrover_optimizer as optimizer;
pub use dlrover_perfmodel as perfmodel;
pub use dlrover_pstrain as pstrain;
pub use dlrover_sim as sim;
pub use dlrover_telemetry as telemetry;
