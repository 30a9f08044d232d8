//! The cluster state machine: placement, preemption, failures.
//!
//! The cluster is deliberately *passive*: it owns node/pod state and
//! placement policy, while time lives in the caller's event queue. Callers
//! request pods, later mark them running (after a startup latency they
//! sample from [`crate::StartupLatencyModel`]), and feed failures in from
//! their own hazard processes. Every mutating call returns the list of
//! [`ClusterEvent`]s it caused so drivers can react (e.g. reschedule a
//! preempted worker).

use std::collections::{BTreeMap, BTreeSet};

use dlrover_sim::{RngStreams, SimTime};
use dlrover_telemetry::{EventKind, SpanCategory, Telemetry};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::node::{Node, NodeId};
use crate::pod::{Pod, PodId, PodPhase, PodSpec, Priority};
use crate::resources::Resources;
use crate::store::PodTable;

/// Cluster construction parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Capacity per node. The paper's small-scale testbed is 20 nodes of
    /// 2×16 cores + 192 GB, which is the default here.
    pub node_capacity: Resources,
    /// Fraction of nodes with slow hardware (straggler source).
    pub slow_node_fraction: f64,
    /// Relative speed of slow nodes.
    pub slow_node_speed: f64,
    /// Daily failure probability of a single pod (§2.2 reports 1.5 %/day).
    pub pod_daily_failure_rate: f64,
    /// Pod failures on one node before the scheduler blacklists it for the
    /// rest of the run (repeated failures on the same machine indicate bad
    /// hardware, not bad pods — DLRover's controller cordons such nodes).
    /// Correlated node-loss failures do not count; `0` disables the
    /// blacklist.
    pub node_blacklist_threshold: u32,
}

fn default_blacklist_threshold() -> u32 {
    3
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 20,
            node_capacity: Resources::new(32.0, 192.0),
            slow_node_fraction: 0.15,
            slow_node_speed: 0.45,
            pod_daily_failure_rate: 0.015,
            node_blacklist_threshold: default_blacklist_threshold(),
        }
    }
}

/// Why a pod could not be placed immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// The request exceeds even an empty node's capacity — it can never run.
    NeverSchedulable,
}

/// Why a schedulable pod is parked in the pending queue right now — the
/// request-denial reason the master's degraded-mode fallback keys on
/// (shrinking the ask only helps against capacity problems, not against a
/// fully cordoned fleet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenialReason {
    /// No healthy, non-blacklisted node has enough free capacity, but the
    /// cluster-wide free pool could hold the request — fragmentation or
    /// transient contention; worth retrying.
    Contention,
    /// Even the cluster-wide free pool cannot hold the request: capacity
    /// is genuinely exhausted; a smaller ask may still fit.
    CapacityExhausted,
    /// The request would fit, but only on blacklisted or failed nodes.
    NodesCordoned,
}

impl DenialReason {
    /// Stable short name, for counters and reports.
    pub fn name(&self) -> &'static str {
        match self {
            DenialReason::Contention => "contention",
            DenialReason::CapacityExhausted => "capacity_exhausted",
            DenialReason::NodesCordoned => "nodes_cordoned",
        }
    }
}

/// Things that happen inside the cluster as a result of a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A pod was bound to a node and began starting up.
    PodPlaced(PodId, NodeId),
    /// A low-priority pod was evicted to make room.
    PodPreempted(PodId),
    /// A pod died with its node.
    PodFailed(PodId),
    /// A node went down.
    NodeFailed(NodeId),
}

/// The simulated cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<Node>,
    pods: PodTable,
    pending: Vec<PodId>,
    /// Reusable buffer `schedule_pending` drains the queue through — the
    /// scheduler runs after every submit/finish/failure, so per-pass clones
    /// of the queue were measurable churn at fleet scale.
    scratch: Vec<PodId>,
    next_pod_id: u64,
    config: ClusterConfig,
    telemetry: Telemetry,
    /// Last time a timed entry point saw; stamps events from untimed calls
    /// (the cluster itself is passive — time lives in the caller's queue).
    clock: SimTime,
    /// Uncorrelated pod failures observed per node (node-loss casualties
    /// excluded — those say nothing about the node coming back).
    node_failures: BTreeMap<u32, u32>,
    /// Nodes past the failure threshold: the placer never binds there
    /// again this run.
    blacklisted: BTreeSet<u32>,
}

impl Cluster {
    /// Builds a cluster; node heterogeneity is sampled from the `"nodes"`
    /// RNG stream of `streams`.
    pub fn new(config: ClusterConfig, streams: &RngStreams) -> Self {
        let mut rng = streams.stream("nodes");
        let nodes = (0..config.nodes)
            .map(|i| {
                let slow = rng.gen::<f64>() < config.slow_node_fraction;
                let speed = if slow { config.slow_node_speed } else { 1.0 };
                Node::new(NodeId(i as u32), config.node_capacity, speed)
            })
            .collect();
        Cluster {
            nodes,
            pods: PodTable::new(),
            pending: Vec::new(),
            scratch: Vec::new(),
            next_pod_id: 0,
            config,
            telemetry: Telemetry::default(),
            clock: SimTime::ZERO,
            node_failures: BTreeMap::new(),
            blacklisted: BTreeSet::new(),
        }
    }

    /// Routes this cluster's telemetry into `sink` (a shared handle).
    pub fn set_telemetry(&mut self, sink: Telemetry) {
        self.telemetry = sink;
    }

    /// The cluster's telemetry handle (clone to share).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mirrors scheduler outcomes into the telemetry sink, stamped with the
    /// last-known virtual time. A placement also closes the pod's
    /// `scheduling` span (request → grant, on the pod's own track); a
    /// preemption records an instant `preemption` span.
    fn record_events(&self, events: &[ClusterEvent]) {
        if events.is_empty() {
            return;
        }
        let Some(mut sink) = self.telemetry.batch() else { return };
        for e in events {
            let kind = match *e {
                ClusterEvent::PodPlaced(p, n) => {
                    sink.metrics.count("cluster.pods_placed", 1);
                    if let Some(pod) = self.pods.get(p) {
                        sink.spans.complete(
                            pod.requested_at,
                            self.clock,
                            SpanCategory::Scheduling,
                            "place",
                            p.0,
                            None,
                        );
                    }
                    EventKind::PodPlaced { pod: p.0, node: n.0 }
                }
                ClusterEvent::PodPreempted(p) => {
                    sink.metrics.count("cluster.preemptions", 1);
                    sink.spans.complete(
                        self.clock,
                        self.clock,
                        SpanCategory::Preemption,
                        "evict",
                        p.0,
                        None,
                    );
                    EventKind::PodPreempted { pod: p.0 }
                }
                ClusterEvent::PodFailed(p) => {
                    sink.metrics.count("cluster.pod_failures", 1);
                    EventKind::PodFailed { pod: p.0 }
                }
                ClusterEvent::NodeFailed(n) => EventKind::NodeFailed { node: n.0 },
            };
            sink.record(self.clock, kind);
        }
    }

    /// The construction config.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks up a pod.
    pub fn pod(&self, id: PodId) -> Option<&Pod> {
        self.pods.get(id)
    }

    /// Iterates all pods (including terminal ones).
    pub fn pods(&self) -> impl Iterator<Item = &Pod> {
        self.pods.values()
    }

    /// Total capacity across healthy nodes.
    pub fn total_capacity(&self) -> Resources {
        self.nodes.iter().filter(|n| n.healthy).fold(Resources::ZERO, |acc, n| acc + n.capacity)
    }

    /// Total resources currently allocated.
    pub fn total_allocated(&self) -> Resources {
        self.nodes.iter().fold(Resources::ZERO, |acc, n| acc + n.allocated)
    }

    /// Free capacity across healthy nodes.
    pub fn total_free(&self) -> Resources {
        self.total_capacity().saturating_sub(&self.total_allocated())
    }

    /// Submits a pod. If it fits nowhere right now it parks in the pending
    /// queue (FIFO, high priority first) and will be placed by
    /// [`Self::schedule_pending`]. High-priority pods may preempt.
    ///
    /// Returns the new pod id plus any events (placement/preemptions).
    pub fn request_pod(
        &mut self,
        spec: PodSpec,
        now: SimTime,
    ) -> Result<(PodId, Vec<ClusterEvent>), ScheduleError> {
        self.clock = now;
        if !self.config.node_capacity.fits(&spec.resources) {
            return Err(ScheduleError::NeverSchedulable);
        }
        let id = PodId(self.next_pod_id);
        self.next_pod_id += 1;
        self.pods.insert(Pod {
            id,
            spec,
            phase: PodPhase::Pending,
            node: None,
            requested_at: now,
            placed_at: None,
            running_at: None,
            node_speed: 1.0,
        });
        self.pending.push(id);
        self.telemetry.record(now, EventKind::PodRequested { job: spec.job_id, pod: id.0 });
        let events = self.schedule_pending();
        if self.pending.contains(&id) {
            // A denial for now; `schedule_pending` may grant it later.
            self.telemetry.record(now, EventKind::PodPending { pod: id.0 });
            self.telemetry.count("cluster.denials", 1);
            let reason = self.denial_reason(&spec.resources);
            self.telemetry.count(&format!("cluster.denials.{}", reason.name()), 1);
        }
        Ok((id, events))
    }

    /// Tries to place pending pods (high priority first, then FIFO),
    /// preempting low-priority pods for high-priority demands when needed.
    pub fn schedule_pending(&mut self) -> Vec<ClusterEvent> {
        let mut events = Vec::new();
        // Order: High first, then submission order.
        self.pending.sort_by_key(|id| {
            let p = &self.pods[id];
            (std::cmp::Reverse(p.spec.priority), p.id)
        });
        // Drain the queue through the reusable scratch buffer instead of
        // cloning it: the swap is O(1) and both vectors keep their capacity
        // across passes, so steady-state scheduling allocates nothing.
        let mut queue = std::mem::replace(&mut self.pending, std::mem::take(&mut self.scratch));
        debug_assert!(self.pending.is_empty());
        for id in queue.drain(..) {
            let spec = self.pods[&id].spec;
            match self.place(&spec.resources) {
                Some(node_id) => {
                    self.bind(id, node_id, &mut events);
                }
                None if spec.priority == Priority::High => {
                    if let Some(node_id) = self.preempt_for(&spec.resources, &mut events) {
                        self.bind(id, node_id, &mut events);
                    } else {
                        self.pending.push(id);
                    }
                }
                None => self.pending.push(id),
            }
        }
        self.scratch = queue;
        self.record_events(&events);
        events
    }

    /// Best-fit placement: the healthy, non-blacklisted node with the
    /// least free CPU that still fits (keeps large holes for large pods).
    fn place(&self, req: &Resources) -> Option<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.fits(req) && !self.blacklisted.contains(&n.id.0))
            .min_by_key(|n| (n.free().cpu_millis, n.free().mem_bytes))
            .map(|n| n.id)
    }

    /// Why a request that fits *some* node shape is parked right now. See
    /// [`DenialReason`]; callers use this to choose between backing off
    /// (contention) and shrinking the ask (capacity exhausted).
    pub fn denial_reason(&self, req: &Resources) -> DenialReason {
        let cordoned_would_fit = self.nodes.iter().any(|n| {
            (!n.healthy || self.blacklisted.contains(&n.id.0))
                && n.capacity.saturating_sub(&n.allocated).fits(req)
        });
        let usable_free = self
            .nodes
            .iter()
            .filter(|n| n.healthy && !self.blacklisted.contains(&n.id.0))
            .fold(Resources::ZERO, |acc, n| acc + n.free());
        if usable_free.fits(req) {
            DenialReason::Contention
        } else if cordoned_would_fit {
            DenialReason::NodesCordoned
        } else {
            DenialReason::CapacityExhausted
        }
    }

    /// Nodes currently blacklisted for repeated uncorrelated pod failures.
    pub fn blacklisted_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.blacklisted.iter().map(|&n| NodeId(n))
    }

    /// Counts one uncorrelated pod failure against `node`; crossing the
    /// configured threshold blacklists the node (permanently for this run)
    /// and reports [`EventKind::NodeBlacklisted`].
    fn note_node_failure(&mut self, node: NodeId) {
        let threshold = self.config.node_blacklist_threshold;
        if threshold == 0 || self.blacklisted.contains(&node.0) {
            return;
        }
        let count = self.node_failures.entry(node.0).or_insert(0);
        *count += 1;
        if *count >= threshold {
            let failures = *count;
            self.blacklisted.insert(node.0);
            self.telemetry
                .record(self.clock, EventKind::NodeBlacklisted { node: node.0, failures });
            self.telemetry.count("cluster.nodes_blacklisted", 1);
        }
    }

    fn bind(&mut self, id: PodId, node_id: NodeId, events: &mut Vec<ClusterEvent>) {
        let node = &mut self.nodes[node_id.0 as usize];
        let pod = self.pods.set_phase(id, PodPhase::Starting).expect("binding unknown pod");
        node.reserve(pod.spec.resources);
        pod.node = Some(node_id);
        pod.placed_at = Some(self.clock);
        pod.node_speed = node.speed;
        events.push(ClusterEvent::PodPlaced(id, node_id));
    }

    /// Frees room for a high-priority request by evicting low-priority pods
    /// from a single victim node. Returns the node that now fits.
    fn preempt_for(&mut self, req: &Resources, events: &mut Vec<ClusterEvent>) -> Option<NodeId> {
        // Choose the node where (free + evictable-low) covers the request
        // and the evicted amount is smallest.
        let mut best: Option<(NodeId, u64)> = None;
        for node in &self.nodes {
            if !node.healthy || self.blacklisted.contains(&node.id.0) {
                continue;
            }
            let evictable: Resources = self
                .pods
                .values()
                .filter(|p| {
                    p.node == Some(node.id)
                        && p.phase.holds_resources()
                        && p.spec.priority == Priority::Low
                })
                .fold(Resources::ZERO, |acc, p| acc + p.spec.resources);
            let potential = node.free() + evictable;
            if potential.fits(req) {
                let waste = evictable.cpu_millis;
                if best.is_none_or(|(_, w)| waste < w) {
                    best = Some((node.id, waste));
                }
            }
        }
        let (victim_node, _) = best?;

        // Evict low pods (largest CPU first) until the request fits.
        let mut victims: Vec<PodId> = self
            .pods
            .values()
            .filter(|p| {
                p.node == Some(victim_node)
                    && p.phase.holds_resources()
                    && p.spec.priority == Priority::Low
            })
            .map(|p| p.id)
            .collect();
        victims.sort_by_key(|id| std::cmp::Reverse(self.pods[id].spec.resources.cpu_millis));
        for victim in victims {
            if self.nodes[victim_node.0 as usize].fits(req) {
                break;
            }
            self.detach(victim, PodPhase::Preempted);
            events.push(ClusterEvent::PodPreempted(victim));
        }
        self.nodes[victim_node.0 as usize].fits(req).then_some(victim_node)
    }

    /// Gang placement: places *all* of `specs` or none (distributed
    /// training needs its full pod set before it can start; partially
    /// placed jobs would deadlock the cluster). High-priority gangs may
    /// preempt. Returns the pod ids and the placement/preemption events on
    /// success; leaves the cluster untouched on failure.
    ///
    /// Gangs are placed directly, *without* consulting the single-pod
    /// pending queue — they neither admit parked pods as a side effect nor
    /// compete with them inside the trial. (Callers that mix both APIs
    /// decide queue order themselves.)
    pub fn try_place_gang(
        &mut self,
        specs: &[PodSpec],
        now: SimTime,
    ) -> Option<(Vec<PodId>, Vec<ClusterEvent>)> {
        if specs.is_empty() {
            return Some((Vec::new(), Vec::new()));
        }
        self.clock = now;
        // Attempt on a scratch copy; commit only if every pod binds. The
        // trial gets a detached sink so abandoned attempts leave no
        // phantom events; committed events are recorded below.
        let mut trial = self.clone();
        trial.telemetry = Telemetry::default();
        let mut ids = Vec::with_capacity(specs.len());
        let mut events = Vec::new();
        for spec in specs {
            if !trial.config.node_capacity.fits(&spec.resources) {
                return None; // can never fit on any node
            }
            let id = PodId(trial.next_pod_id);
            trial.next_pod_id += 1;
            trial.pods.insert(Pod {
                id,
                spec: *spec,
                phase: PodPhase::Pending,
                node: None,
                requested_at: now,
                placed_at: None,
                running_at: None,
                node_speed: 1.0,
            });
            let node = match trial.place(&spec.resources) {
                Some(n) => Some(n),
                None if spec.priority == Priority::High => {
                    trial.preempt_for(&spec.resources, &mut events)
                }
                None => None,
            }?;
            trial.bind(id, node, &mut events);
            ids.push(id);
        }
        trial.telemetry = self.telemetry.clone();
        *self = trial;
        for (id, spec) in ids.iter().zip(specs) {
            self.telemetry.record(now, EventKind::PodRequested { job: spec.job_id, pod: id.0 });
        }
        self.record_events(&events);
        Some((ids, events))
    }

    /// Marks a starting pod as running (caller applies the startup latency).
    /// Records the pod's `pod-startup` span (placement → running — the
    /// image-pull/init latency §5.2's seamless migration hides).
    ///
    /// # Panics
    /// Panics if the pod is unknown or not in `Starting`.
    pub fn mark_running(&mut self, id: PodId, now: SimTime) {
        let phase = self.pods.get(id).expect("unknown pod").phase;
        assert_eq!(phase, PodPhase::Starting, "pod {id:?} not starting");
        let pod = self.pods.set_phase(id, PodPhase::Running).expect("unknown pod");
        pod.running_at = Some(now);
        let started = pod.placed_at.unwrap_or(now);
        self.telemetry.span_complete(started, now, SpanCategory::PodStartup, "init", id.0, None);
    }

    /// Terminates a pod into a terminal phase, releasing its resources.
    /// No-op for already-terminal pods.
    pub fn terminate_pod(&mut self, id: PodId, phase: PodPhase) {
        assert!(phase.is_terminal(), "terminate requires a terminal phase");
        self.detach(id, phase);
        self.pending.retain(|&p| p != id);
    }

    fn detach(&mut self, id: PodId, phase: PodPhase) {
        let Some(pod) = self.pods.get(id) else { return };
        if pod.phase.is_terminal() {
            return;
        }
        if pod.phase.holds_resources() {
            if let Some(node_id) = pod.node {
                self.nodes[node_id.0 as usize].release(pod.spec.resources);
            }
        }
        self.pods.set_phase(id, phase).expect("pod just read").node = None;
    }

    /// Fails one pod (process kill, OOM kill, organic churn, chaos
    /// injection): releases its resources and records a `PodFailed` event.
    /// Unlike [`Self::terminate_pod`] this is a *failure*, visible in the
    /// telemetry stream for the oracle to audit. Returns the events (empty
    /// when the pod was already terminal or unknown).
    pub fn fail_pod(&mut self, id: PodId) -> Vec<ClusterEvent> {
        let alive = self.pods.get(id).is_some_and(|p| !p.phase.is_terminal());
        if !alive {
            return Vec::new();
        }
        // Read the binding *before* detach nulls it: this failure counts
        // against the node's blacklist threshold (node-loss casualties go
        // through `fail_node` and deliberately bypass this).
        let node = self.pods.get(id).and_then(|p| p.node);
        self.detach(id, PodPhase::Failed);
        if let Some(node) = node {
            self.note_node_failure(node);
        }
        self.pending.retain(|&p| p != id);
        let events = vec![ClusterEvent::PodFailed(id)];
        self.record_events(&events);
        events
    }

    /// Advances the cluster's passive clock (used to stamp events from
    /// untimed entry points such as [`Self::fail_pod`]/[`Self::fail_node`])
    /// without submitting anything. Never moves time backwards.
    pub fn advance_clock(&mut self, now: SimTime) {
        self.clock = self.clock.max(now);
    }

    /// Fails a node: all resident pods fail, the node goes unhealthy.
    pub fn fail_node(&mut self, node_id: NodeId) -> Vec<ClusterEvent> {
        let mut events = vec![ClusterEvent::NodeFailed(node_id)];
        let residents: Vec<PodId> = self
            .pods
            .values()
            .filter(|p| p.node == Some(node_id) && p.phase.holds_resources())
            .map(|p| p.id)
            .collect();
        for id in residents {
            self.detach(id, PodPhase::Failed);
            events.push(ClusterEvent::PodFailed(id));
        }
        self.nodes[node_id.0 as usize].healthy = false;
        self.record_events(&events);
        events
    }

    /// Brings a failed node back.
    pub fn recover_node(&mut self, node_id: NodeId) {
        self.nodes[node_id.0 as usize].healthy = true;
    }

    /// Samples the delay until a single pod's next failure from the
    /// configured daily hazard (exponential inter-arrival). Returns `None`
    /// when the hazard is zero.
    pub fn sample_pod_failure_delay<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Option<dlrover_sim::SimDuration> {
        let daily = self.config.pod_daily_failure_rate;
        if daily <= 0.0 {
            return None;
        }
        // P(fail within a day) = 1 - exp(-λ·86400) = daily  =>  λ = -ln(1-p)/86400.
        let lambda = -(1.0 - daily.min(0.999_999)).ln() / 86_400.0;
        let u: f64 = rng.gen();
        let delay_s = -(1.0 - u).ln() / lambda;
        Some(dlrover_sim::SimDuration::from_secs_f64(delay_s))
    }

    /// Number of pending pods.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::PodRole;

    fn streams() -> RngStreams {
        RngStreams::new(1)
    }

    fn small_cluster() -> Cluster {
        Cluster::new(
            ClusterConfig {
                nodes: 2,
                node_capacity: Resources::new(8.0, 32.0),
                slow_node_fraction: 0.0,
                slow_node_speed: 0.5,
                pod_daily_failure_rate: 0.015,
                ..ClusterConfig::default()
            },
            &streams(),
        )
    }

    fn spec(cores: f64, mem: f64, priority: Priority) -> PodSpec {
        PodSpec {
            resources: Resources::new(cores, mem),
            role: PodRole::Worker,
            priority,
            job_id: 1,
        }
    }

    #[test]
    fn placement_reserves_resources() {
        let mut c = small_cluster();
        let (id, events) = c.request_pod(spec(4.0, 8.0, Priority::Low), SimTime::ZERO).unwrap();
        assert!(matches!(events[0], ClusterEvent::PodPlaced(p, _) if p == id));
        assert_eq!(c.pod(id).unwrap().phase, PodPhase::Starting);
        assert_eq!(c.total_allocated(), Resources::new(4.0, 8.0));
    }

    #[test]
    fn fail_pod_releases_resources_and_reports() {
        let mut c = small_cluster();
        let (id, _) = c.request_pod(spec(4.0, 8.0, Priority::Low), SimTime::ZERO).unwrap();
        c.mark_running(id, SimTime::from_secs(10));
        let events = c.fail_pod(id);
        assert_eq!(events, vec![ClusterEvent::PodFailed(id)]);
        assert_eq!(c.pod(id).unwrap().phase, PodPhase::Failed);
        assert_eq!(c.total_allocated(), Resources::default());
        // Idempotent: a dead pod cannot fail again, and unknown ids are
        // ignored (chaos plans may race organic churn).
        assert!(c.fail_pod(id).is_empty());
        assert!(c.fail_pod(PodId(999)).is_empty());
    }

    #[test]
    fn oversized_request_rejected() {
        let mut c = small_cluster();
        assert_eq!(
            c.request_pod(spec(100.0, 8.0, Priority::Low), SimTime::ZERO).unwrap_err(),
            ScheduleError::NeverSchedulable
        );
    }

    #[test]
    fn full_cluster_parks_pods_pending() {
        let mut c = small_cluster();
        // Fill both nodes (2 × 8 cores).
        for _ in 0..4 {
            c.request_pod(spec(4.0, 8.0, Priority::Low), SimTime::ZERO).unwrap();
        }
        let (id, events) = c.request_pod(spec(4.0, 8.0, Priority::Low), SimTime::ZERO).unwrap();
        assert!(events.is_empty());
        assert_eq!(c.pod(id).unwrap().phase, PodPhase::Pending);
        assert_eq!(c.pending_count(), 1);

        // Terminating one pod frees room; schedule_pending picks it up.
        let victim = PodId(0);
        c.terminate_pod(victim, PodPhase::Succeeded);
        let events = c.schedule_pending();
        assert!(matches!(events[0], ClusterEvent::PodPlaced(p, _) if p == id));
        assert_eq!(c.pending_count(), 0);
    }

    #[test]
    fn best_fit_packs_tight_nodes_first() {
        let mut c = small_cluster();
        // Node A gets a 6-core pod → 2 free. Node B empty → 8 free.
        let (_, ev) = c.request_pod(spec(6.0, 8.0, Priority::Low), SimTime::ZERO).unwrap();
        let ClusterEvent::PodPlaced(_, first_node) = ev[0] else { panic!() };
        // A 2-core pod should go to the tighter node (best fit).
        let (_, ev) = c.request_pod(spec(2.0, 4.0, Priority::Low), SimTime::ZERO).unwrap();
        let ClusterEvent::PodPlaced(_, second_node) = ev[0] else { panic!() };
        assert_eq!(first_node, second_node, "best-fit must reuse the fuller node");
    }

    #[test]
    fn high_priority_preempts_low() {
        let mut c = small_cluster();
        for _ in 0..4 {
            c.request_pod(spec(4.0, 8.0, Priority::Low), SimTime::ZERO).unwrap();
        }
        let (id, events) = c.request_pod(spec(8.0, 8.0, Priority::High), SimTime::ZERO).unwrap();
        let preempted: Vec<_> =
            events.iter().filter(|e| matches!(e, ClusterEvent::PodPreempted(_))).collect();
        assert_eq!(preempted.len(), 2, "needs both 4-core pods off one node");
        assert_eq!(c.pod(id).unwrap().phase, PodPhase::Starting);
    }

    #[test]
    fn low_priority_cannot_preempt() {
        let mut c = small_cluster();
        for _ in 0..4 {
            c.request_pod(spec(4.0, 8.0, Priority::Low), SimTime::ZERO).unwrap();
        }
        let (id, events) = c.request_pod(spec(8.0, 8.0, Priority::Low), SimTime::ZERO).unwrap();
        assert!(events.is_empty());
        assert_eq!(c.pod(id).unwrap().phase, PodPhase::Pending);
    }

    #[test]
    fn node_failure_kills_residents_and_removes_capacity() {
        let mut c = small_cluster();
        let (id, ev) = c.request_pod(spec(4.0, 8.0, Priority::Low), SimTime::ZERO).unwrap();
        let ClusterEvent::PodPlaced(_, node) = ev[0] else { panic!() };
        let cap_before = c.total_capacity();
        let events = c.fail_node(node);
        assert!(events.contains(&ClusterEvent::NodeFailed(node)));
        assert!(events.contains(&ClusterEvent::PodFailed(id)));
        assert_eq!(c.pod(id).unwrap().phase, PodPhase::Failed);
        assert!(c.total_capacity().cpu_millis < cap_before.cpu_millis);
        c.recover_node(node);
        assert_eq!(c.total_capacity(), cap_before);
    }

    #[test]
    fn mark_running_transitions() {
        let mut c = small_cluster();
        let (id, _) = c.request_pod(spec(1.0, 1.0, Priority::Low), SimTime::ZERO).unwrap();
        c.mark_running(id, SimTime::from_secs(30));
        let p = c.pod(id).unwrap();
        assert_eq!(p.phase, PodPhase::Running);
        assert_eq!(p.running_at, Some(SimTime::from_secs(30)));
    }

    #[test]
    fn terminate_is_idempotent() {
        let mut c = small_cluster();
        let (id, _) = c.request_pod(spec(1.0, 1.0, Priority::Low), SimTime::ZERO).unwrap();
        c.terminate_pod(id, PodPhase::Succeeded);
        let allocated = c.total_allocated();
        c.terminate_pod(id, PodPhase::Failed);
        // Phase unchanged, no double-release.
        assert_eq!(c.pod(id).unwrap().phase, PodPhase::Succeeded);
        assert_eq!(c.total_allocated(), allocated);
    }

    #[test]
    fn failure_delay_matches_daily_hazard() {
        let c = small_cluster();
        let mut rng = streams().stream("failure-test");
        let n = 20_000;
        let within_day = (0..n)
            .filter(|_| {
                c.sample_pod_failure_delay(&mut rng).expect("hazard configured")
                    <= dlrover_sim::SimDuration::from_days(1)
            })
            .count();
        let frac = within_day as f64 / n as f64;
        assert!((frac - 0.015).abs() < 0.004, "daily failure fraction {frac} vs configured 0.015");
    }

    #[test]
    fn zero_hazard_gives_none() {
        let cfg = ClusterConfig { pod_daily_failure_rate: 0.0, ..ClusterConfig::default() };
        let c = Cluster::new(cfg, &streams());
        let mut rng = streams().stream("x");
        assert!(c.sample_pod_failure_delay(&mut rng).is_none());
    }

    #[test]
    fn heterogeneity_sampling_is_deterministic() {
        let cfg = ClusterConfig { slow_node_fraction: 0.5, ..ClusterConfig::default() };
        let a = Cluster::new(cfg.clone(), &RngStreams::new(5));
        let b = Cluster::new(cfg, &RngStreams::new(5));
        let speeds_a: Vec<f64> = a.nodes().iter().map(|n| n.speed).collect();
        let speeds_b: Vec<f64> = b.nodes().iter().map(|n| n.speed).collect();
        assert_eq!(speeds_a, speeds_b);
        assert!(speeds_a.iter().any(|&s| s < 1.0), "some nodes should be slow");
        assert!(speeds_a.contains(&1.0), "some nodes should be fast");
    }

    #[test]
    fn gang_placement_does_not_disturb_pending_pods() {
        // Regression: a failed gang trial must not admit parked pods, and
        // a successful one must not smuggle their placements into its
        // event list.
        let mut c = small_cluster();
        for _ in 0..4 {
            c.request_pod(spec(4.0, 8.0, Priority::Low), SimTime::ZERO).unwrap();
        }
        // Park one pod pending.
        let (parked, _) = c.request_pod(spec(4.0, 8.0, Priority::Low), SimTime::ZERO).unwrap();
        assert_eq!(c.pod(parked).unwrap().phase, PodPhase::Pending);
        // Free one slot, then gang-place a one-pod gang: it takes the slot
        // directly; the parked pod stays parked (the caller decides order).
        c.terminate_pod(PodId(0), PodPhase::Succeeded);
        let gang = [spec(4.0, 8.0, Priority::Low)];
        let (ids, events) = c.try_place_gang(&gang, SimTime::from_secs(1)).expect("slot free");
        assert_eq!(ids.len(), 1);
        assert_eq!(c.pod(parked).unwrap().phase, PodPhase::Pending, "parked pod untouched");
        // Every event refers to the gang's own pod.
        for e in events {
            if let ClusterEvent::PodPlaced(p, _) = e {
                assert_eq!(p, ids[0]);
            }
        }
        // A gang that cannot fit leaves everything untouched.
        let big = [spec(8.0, 8.0, Priority::Low); 3];
        let before = c.total_allocated();
        assert!(c.try_place_gang(&big, SimTime::from_secs(2)).is_none());
        assert_eq!(c.total_allocated(), before);
        assert_eq!(c.pod(parked).unwrap().phase, PodPhase::Pending);
    }

    /// ISSUE-4: repeated uncorrelated pod failures on one node blacklist
    /// it; later placements avoid it even when it has the most free room.
    #[test]
    fn repeated_pod_failures_blacklist_the_node() {
        let mut c = small_cluster();
        let sink = Telemetry::default();
        c.set_telemetry(sink.clone());
        // Anchor a pod on node 1 so best-fit sends small pods to node 0.
        let (anchor, ev) = c.request_pod(spec(6.0, 8.0, Priority::Low), SimTime::ZERO).unwrap();
        let ClusterEvent::PodPlaced(_, bad_node) = ev[0] else { panic!() };
        let _ = anchor;
        // Fail three pods in a row on the same (fuller, best-fit) node.
        for k in 0..3 {
            let (id, ev) =
                c.request_pod(spec(1.0, 1.0, Priority::Low), SimTime::from_secs(k)).unwrap();
            let ClusterEvent::PodPlaced(_, n) = ev[0] else { panic!() };
            assert_eq!(n, bad_node, "best-fit lands on the fuller node");
            c.fail_pod(id);
        }
        assert_eq!(c.blacklisted_nodes().collect::<Vec<_>>(), vec![bad_node]);
        let snap = sink.snapshot();
        assert_eq!(
            snap.events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::NodeBlacklisted { .. }))
                .count(),
            1,
            "blacklisting reported exactly once"
        );
        // The next pod avoids the blacklisted node despite best fit.
        let (_, ev) = c.request_pod(spec(1.0, 1.0, Priority::Low), SimTime::from_secs(10)).unwrap();
        let ClusterEvent::PodPlaced(_, n) = ev[0] else { panic!() };
        assert_ne!(n, bad_node, "blacklisted node must not receive pods");
        // A fourth failure elsewhere does not re-report the same node.
        assert_eq!(sink.snapshot().metrics.counters.get("cluster.nodes_blacklisted"), Some(&1));
    }

    /// Node-loss casualties are correlated failures: they must not count
    /// toward the blacklist (the node comes back after its outage).
    #[test]
    fn node_loss_casualties_do_not_blacklist() {
        let mut c = small_cluster();
        for _ in 0..3 {
            let (id, ev) = c.request_pod(spec(1.0, 1.0, Priority::Low), SimTime::ZERO).unwrap();
            let ClusterEvent::PodPlaced(_, node) = ev[0] else { panic!() };
            let _ = id;
            c.fail_node(node);
            c.recover_node(node);
        }
        assert_eq!(c.blacklisted_nodes().count(), 0, "correlated failures are exempt");
    }

    #[test]
    fn zero_threshold_disables_the_blacklist() {
        let mut c = Cluster::new(
            ClusterConfig { node_blacklist_threshold: 0, ..ClusterConfig::default() },
            &streams(),
        );
        for k in 0..5 {
            let (id, _) =
                c.request_pod(spec(1.0, 1.0, Priority::Low), SimTime::from_secs(k)).unwrap();
            c.fail_pod(id);
        }
        assert_eq!(c.blacklisted_nodes().count(), 0);
    }

    /// ISSUE-4: denial reasons distinguish contention, exhaustion, and
    /// cordoned capacity.
    #[test]
    fn denial_reasons_classify_the_shortage() {
        let mut c = small_cluster();
        // Fragmentation: 2 nodes × 8 cores with 5 cores taken on each —
        // 6 cores free in total but no node fits a 4-core pod... actually
        // 3 free per node fits nothing above 3 cores.
        for _ in 0..2 {
            c.request_pod(spec(5.0, 8.0, Priority::Low), SimTime::ZERO).unwrap();
        }
        assert_eq!(c.denial_reason(&Resources::new(4.0, 8.0)), DenialReason::Contention);
        // Exhaustion: ask for more than the whole free pool.
        assert_eq!(c.denial_reason(&Resources::new(7.0, 8.0)), DenialReason::CapacityExhausted);
        // Cordoned: fail a node; its capacity would fit the ask.
        let mut c2 = small_cluster();
        c2.fail_node(NodeId(0));
        // Fill the surviving node.
        c2.request_pod(spec(8.0, 8.0, Priority::Low), SimTime::ZERO).unwrap();
        assert_eq!(c2.denial_reason(&Resources::new(4.0, 8.0)), DenialReason::NodesCordoned);
    }

    /// Regression for the `schedule_pending` allocation churn fix: the
    /// queue is drained through a reused scratch buffer, and the pass must
    /// still grant high-priority pods first and keep FIFO order within a
    /// priority class — byte-identical behavior to the old clone-the-queue
    /// implementation.
    #[test]
    fn schedule_pending_scratch_reuse_preserves_order() {
        let mut c = small_cluster();
        // Fill both nodes with High pods so parked pods cannot preempt.
        for _ in 0..4 {
            c.request_pod(spec(4.0, 8.0, Priority::High), SimTime::ZERO).unwrap();
        }
        // Park four full-node pods: low, high, low, high (submission order).
        let mut parked = Vec::new();
        for (i, prio) in
            [Priority::Low, Priority::High, Priority::Low, Priority::High].iter().enumerate()
        {
            let (id, _) =
                c.request_pod(spec(8.0, 8.0, *prio), SimTime::from_secs(i as u64)).unwrap();
            parked.push(id);
        }
        assert_eq!(c.pending_count(), 4);
        // An empty pass leaves the queue intact (and seeds the scratch).
        assert!(c.schedule_pending().is_empty());
        assert_eq!(c.pending_count(), 4);
        // Free both nodes; one pass then grants the two highs (FIFO within
        // the class) and leaves the lows parked — exactly what the old
        // clone-the-queue implementation did.
        for id in 0..4 {
            c.terminate_pod(PodId(id), PodPhase::Succeeded);
        }
        let events = c.schedule_pending();
        let placed: Vec<PodId> = events
            .iter()
            .filter_map(|e| match e {
                ClusterEvent::PodPlaced(p, _) => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(placed, vec![parked[1], parked[3]], "highs first, FIFO within class");
        assert_eq!(c.pending_count(), 2);
        assert!(c.scratch.capacity() >= 4, "drain buffer retained across passes");
        assert!(c.scratch.is_empty(), "scratch holds no pods between passes");
    }

    #[test]
    fn pending_high_priority_scheduled_before_low() {
        let mut c = small_cluster();
        for _ in 0..4 {
            c.request_pod(spec(4.0, 8.0, Priority::High), SimTime::ZERO).unwrap();
        }
        // Queue a low pod then a high pod; both pending (no preemptible pods).
        let (low, _) = c.request_pod(spec(4.0, 8.0, Priority::Low), SimTime::ZERO).unwrap();
        let (high, _) = c.request_pod(spec(4.0, 8.0, Priority::High), SimTime::ZERO).unwrap();
        // Free one slot.
        c.terminate_pod(PodId(0), PodPhase::Succeeded);
        c.schedule_pending();
        assert_eq!(c.pod(high).unwrap().phase, PodPhase::Starting, "high jumps the queue");
        assert_eq!(c.pod(low).unwrap().phase, PodPhase::Pending);
    }
}
