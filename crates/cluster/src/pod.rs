//! Pods: the unit of placement, with the usual Kubernetes-ish phase machine.

use dlrover_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::node::NodeId;
use crate::resources::Resources;

/// Opaque pod identifier, unique within one [`crate::Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PodId(pub u64);

/// What a pod does for its job — matters for straggler/hot-PS handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PodRole {
    /// Gradient-computing worker.
    Worker,
    /// Parameter server.
    ParameterServer,
    /// Anything else (job master, background service, …).
    Other,
}

/// Scheduling priority. Training is `Low`; co-located online services are
/// `High` and may preempt training pods (§2.2: "the cluster scheduler
/// preempts resources allocated to the DLRM system").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Priority {
    /// Preemptible batch work (DLRM training).
    Low,
    /// Latency-sensitive services that can preempt `Low`.
    High,
}

/// Pod lifecycle phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PodPhase {
    /// Accepted but not placed (no capacity yet).
    Pending,
    /// Placed; pulling images / initialising.
    Starting,
    /// Live and doing work.
    Running,
    /// Finished successfully.
    Succeeded,
    /// Crashed (node failure, OOM, …).
    Failed,
    /// Evicted by a higher-priority pod.
    Preempted,
}

impl PodPhase {
    /// True for phases that hold node resources.
    pub fn holds_resources(&self) -> bool {
        matches!(self, PodPhase::Starting | PodPhase::Running)
    }

    /// True for terminal phases.
    pub fn is_terminal(&self) -> bool {
        matches!(self, PodPhase::Succeeded | PodPhase::Failed | PodPhase::Preempted)
    }
}

/// What the caller asks the cluster for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PodSpec {
    /// Requested resources.
    pub resources: Resources,
    /// Role within its job.
    pub role: PodRole,
    /// Scheduling priority.
    pub priority: Priority,
    /// Owning job (opaque to the cluster).
    pub job_id: u64,
}

/// A placed (or pending) pod.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pod {
    /// Identifier.
    pub id: PodId,
    /// The spec it was created from.
    pub spec: PodSpec,
    /// Current phase. Read through [`Pod::phase`]; written only by
    /// [`crate::PodTable`], whose per-page live counts must follow it.
    pub(crate) phase: PodPhase,
    /// Node it is bound to (`None` while pending or after eviction).
    pub node: Option<NodeId>,
    /// When the pod was requested.
    pub requested_at: SimTime,
    /// When the scheduler bound it to a node (if ever) — the end of the
    /// scheduling span and the start of the startup span.
    pub placed_at: Option<SimTime>,
    /// When it entered `Running` (if ever).
    pub running_at: Option<SimTime>,
    /// Relative CPU speed of its node (1.0 = nominal); used by the training
    /// engine to derive straggler behaviour from placement.
    pub node_speed: f64,
}

impl Pod {
    /// Current phase.
    pub fn phase(&self) -> PodPhase {
        self.phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_resource_holding() {
        assert!(!PodPhase::Pending.holds_resources());
        assert!(PodPhase::Starting.holds_resources());
        assert!(PodPhase::Running.holds_resources());
        assert!(!PodPhase::Failed.holds_resources());
    }

    #[test]
    fn terminal_phases() {
        for p in [PodPhase::Succeeded, PodPhase::Failed, PodPhase::Preempted] {
            assert!(p.is_terminal());
            assert!(!p.holds_resources());
        }
        for p in [PodPhase::Pending, PodPhase::Starting, PodPhase::Running] {
            assert!(!p.is_terminal());
        }
    }

    #[test]
    fn priority_orders() {
        assert!(Priority::High > Priority::Low);
    }
}
