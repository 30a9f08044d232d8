//! Deterministic fault plans: scripted chaos for the whole stack.
//!
//! The paper's fault-tolerance story (§6) is evaluated against live cloud
//! churn — preempted pods, lost nodes, OOM-killed parameter servers,
//! stragglers. To assert those properties *reproducibly* we script the
//! churn instead: a [`FaultPlan`] is a virtual-time-ordered list of typed
//! [`FaultEvent`]s, generated from [`RngStreams`] so the
//! same seed always yields the same plan, byte for byte.
//!
//! A plan is pure data. It does not know how faults are delivered; the
//! chaos driver (in `dlrover-rm`'s `chaos` module) consumes events in order
//! and translates each [`FaultKind`] into calls on the cluster, engine, and
//! master. Target indices are *suggestions*: drivers resolve them modulo
//! the live population at injection time, so a plan generated without
//! knowledge of the job shape is still always applicable.
//!
//! All rate-like fields are integer permille (`1000 = 1.0`) rather than
//! `f64` so plans are `Eq`/`Hash`-able and serialize identically across
//! platforms.

use serde::{Deserialize, Serialize};

use crate::rng::RngStreams;
use crate::time::{SimDuration, SimTime};
use rand::Rng;

/// One typed fault. Matches the failure taxonomy of §2.2/§6 of the paper:
/// pod kills and preemption (Table 4's "process killed"), node loss,
/// memory pressure leading to OOM (§5.3), stragglers (§5.1), and network
/// slowdown (modelled as a fleet-wide throughput inflation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// Kill one training worker pod. `worker` is resolved modulo the live
    /// worker count at injection time.
    WorkerKill {
        /// Suggested worker index (resolved modulo live workers).
        worker: u32,
    },
    /// Kill one parameter-server pod. Exercises the flash-restore path of
    /// §6.2 (seamless migration with a sub-second pause).
    PsKill {
        /// Suggested PS index (resolved modulo the PS count).
        ps: u32,
    },
    /// Fail a whole node: every resident pod dies at once, and the node
    /// stays out of the pool for the driver's configured outage window.
    NodeLoss {
        /// Suggested node index (resolved modulo the node count).
        node: u32,
    },
    /// A burst of high-priority service pods arrives and preempts
    /// lower-priority training pods (§2.2's priority-scheduling churn).
    PreemptionBurst {
        /// Number of high-priority pods in the burst.
        pods: u32,
    },
    /// Co-located memory interference on one PS: external allocations eat
    /// into the pod's headroom for `window`, stressing the OOM predictor
    /// of §5.3 (Eqn. 14's required-memory forecast).
    MemoryPressure {
        /// Suggested PS index (resolved modulo the PS count).
        ps: u32,
        /// Fraction of the PS's *free* headroom consumed, permille.
        /// Bounded so the predictor has room to react (generated plans
        /// stay at or below 600).
        headroom_permille: u32,
        /// How long the pressure persists.
        window: SimDuration,
    },
    /// One worker runs slow for `window` (contended CPU, §5.1's straggler
    /// regime).
    StragglerWindow {
        /// Suggested worker index (resolved modulo live workers).
        worker: u32,
        /// Relative speed during the window, permille of nominal
        /// (`250` = runs at 25 % speed).
        speed_permille: u32,
        /// How long the slowdown persists.
        window: SimDuration,
    },
    /// Fleet-wide network-delay inflation: every worker's effective speed
    /// divides by `factor_permille / 1000` for `window` (models gRPC
    /// round-trip inflation between workers and PSes).
    NetworkDelay {
        /// Delay inflation factor, permille (`2000` = RPCs take 2×,
        /// ≥ 1000 by construction).
        factor_permille: u32,
        /// How long the inflation persists.
        window: SimDuration,
    },
    /// A denial storm: filler pods swallow the cluster's free capacity for
    /// `window`, so every scale-out or replacement request is denied until
    /// the storm lifts (§5's contention regime — scale-out grants are not
    /// guaranteed in a shared cluster). Exercises the master's retry/backoff
    /// and degraded-mode fallback instead of its recovery path: nothing is
    /// killed, so no recovery deadline attaches.
    DenialStorm {
        /// Filler pods to submit (resolved against free capacity; any that
        /// do not fit are dropped, never parked).
        pods: u32,
        /// How long the storm occupies the capacity.
        window: SimDuration,
    },
    /// The job master itself crashes and restarts after `restart`: the
    /// restarted master must rebuild job state (shard watermark, checkpoint
    /// step, live pod set) by replaying the durable event log. Training
    /// pauses for the restart window; exactly-once accounting and
    /// checkpoint monotonicity must hold across the failover.
    MasterCrash {
        /// Master downtime before the replayed restart completes.
        restart: SimDuration,
    },
    /// The remote (durable) checkpoint tier goes dark for `window`:
    /// in-flight manifest transfers freeze where they are and any restore
    /// that must read the remote tier waits for the outage to lift (§6.3's
    /// durability tier is a shared cloud store, not local disk). Nothing
    /// is killed; the fault stresses crash-consistent commit records.
    RemoteTierOutage {
        /// How long the remote tier is unreachable.
        window: SimDuration,
    },
    /// The shared remote-tier pipe degrades: effective transfer bandwidth
    /// divides by `factor_permille / 1000` for `window` (co-tenant surge
    /// on the checkpoint store — §2.2's shared-cluster contention applied
    /// to storage instead of compute).
    BandwidthCollapse {
        /// Bandwidth division factor, permille (`4000` = pipe runs at
        /// 25 % of nominal; > 1000 by construction).
        factor_permille: u32,
        /// How long the collapse persists.
        window: SimDuration,
    },
    /// Silent corruption of one committed checkpoint manifest in the
    /// remote tier. Detected at restore time by the manifest checksum;
    /// recovery must fall back to the previous committed manifest rather
    /// than restore corrupt state.
    ManifestCorruption {
        /// Suggested manifest ordinal, newest-first (resolved modulo the
        /// job's committed-manifest count at injection time).
        manifest: u32,
    },
    /// `peers` witness peers drop out of the co-sign quorum for `window`
    /// (network partition of the commitment protocol). While the quorum
    /// is unavailable, master-less recovery must fall back to event-log
    /// replay instead of trusting an unwitnessed manifest.
    WitnessPartition {
        /// Number of peers partitioned away (resolved modulo the witness
        /// set at injection time).
        peers: u32,
        /// How long the partition lasts.
        window: SimDuration,
    },
}

impl FaultKind {
    /// Stable short name, used in telemetry events and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::WorkerKill { .. } => "WorkerKill",
            FaultKind::PsKill { .. } => "PsKill",
            FaultKind::NodeLoss { .. } => "NodeLoss",
            FaultKind::PreemptionBurst { .. } => "PreemptionBurst",
            FaultKind::MemoryPressure { .. } => "MemoryPressure",
            FaultKind::StragglerWindow { .. } => "StragglerWindow",
            FaultKind::NetworkDelay { .. } => "NetworkDelay",
            FaultKind::DenialStorm { .. } => "DenialStorm",
            FaultKind::MasterCrash { .. } => "MasterCrash",
            FaultKind::RemoteTierOutage { .. } => "RemoteTierOutage",
            FaultKind::BandwidthCollapse { .. } => "BandwidthCollapse",
            FaultKind::ManifestCorruption { .. } => "ManifestCorruption",
            FaultKind::WitnessPartition { .. } => "WitnessPartition",
        }
    }

    /// The suggested target index carried by the fault (pod/node count for
    /// burst faults), for telemetry.
    pub fn target(&self) -> u64 {
        match self {
            FaultKind::WorkerKill { worker } => u64::from(*worker),
            FaultKind::PsKill { ps } => u64::from(*ps),
            FaultKind::NodeLoss { node } => u64::from(*node),
            FaultKind::PreemptionBurst { pods } => u64::from(*pods),
            FaultKind::MemoryPressure { ps, .. } => u64::from(*ps),
            FaultKind::StragglerWindow { worker, .. } => u64::from(*worker),
            FaultKind::NetworkDelay { .. } => 0,
            FaultKind::DenialStorm { pods, .. } => u64::from(*pods),
            FaultKind::MasterCrash { .. } => 0,
            FaultKind::RemoteTierOutage { .. } => 0,
            FaultKind::BandwidthCollapse { .. } => 0,
            FaultKind::ManifestCorruption { manifest } => u64::from(*manifest),
            FaultKind::WitnessPartition { peers, .. } => u64::from(*peers),
        }
    }

    /// The fault's own duration (zero for instantaneous kills). Drivers
    /// and oracles use this to budget the slowdown a plan may legitimately
    /// cause.
    pub fn window(&self) -> SimDuration {
        match self {
            FaultKind::MemoryPressure { window, .. }
            | FaultKind::StragglerWindow { window, .. }
            | FaultKind::NetworkDelay { window, .. }
            | FaultKind::DenialStorm { window, .. }
            | FaultKind::RemoteTierOutage { window }
            | FaultKind::BandwidthCollapse { window, .. }
            | FaultKind::WitnessPartition { window, .. } => *window,
            // The restart downtime is the crash's legitimate slowdown.
            FaultKind::MasterCrash { restart } => *restart,
            _ => SimDuration::ZERO,
        }
    }

    /// True for faults that kill at least one pod outright (and therefore
    /// must be followed by a recovery within the oracle's deadline).
    pub fn is_kill(&self) -> bool {
        matches!(
            self,
            FaultKind::WorkerKill { .. }
                | FaultKind::PsKill { .. }
                | FaultKind::NodeLoss { .. }
                | FaultKind::PreemptionBurst { .. }
        )
    }
}

/// One scheduled fault: *when* plus *what*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Virtual time at which the fault fires. Drivers inject at the first
    /// tick boundary at or after this instant.
    pub at: SimTime,
    /// The fault itself.
    pub kind: FaultKind,
}

/// Knobs for [`FaultPlan::generate`]. Every plan it generates is one a
/// healthy DLRover-RM job must survive: each fault is individually
/// recoverable (kills are spaced, pressure is bounded below full headroom,
/// slowdowns end) — the envelope the generator's bounds below fix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlanConfig {
    /// Number of fault events in the plan.
    pub events: u32,
    /// Faults are scheduled uniformly in `[warmup, horizon)`.
    pub horizon: SimDuration,
    /// No fault fires before this offset (lets the job profile a baseline).
    pub warmup: SimDuration,
    /// Include checkpoint-plane faults (remote-tier outage, bandwidth
    /// collapse, manifest corruption, witness partition) in generated
    /// plans. Off by default so pre-existing suites and the learned-policy
    /// arena keep their historical fault distribution; the chaos and
    /// ckptplane experiments opt in.
    pub ckpt_faults: bool,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            events: 6,
            horizon: SimDuration::from_mins(40),
            warmup: SimDuration::from_mins(3),
            ckpt_faults: false,
        }
    }
}

/// Upper bound on [`FaultKind::MemoryPressure`]'s `headroom_permille`.
/// Kept below 1000 so the OOM predictor (§5.3) always has a window in which
/// prevention is possible.
const MAX_PRESSURE_PERMILLE: u32 = 600;
/// Lower bound on straggler speed, permille (avoid fully-wedged workers,
/// which the paper treats as failures, not stragglers).
const MIN_STRAGGLER_SPEED_PERMILLE: u32 = 150;
/// Upper bound on network-delay inflation (and bandwidth collapse),
/// permille.
const MAX_DELAY_FACTOR_PERMILLE: u32 = 3000;
/// Longest window for pressure/straggler/delay faults.
const MAX_WINDOW: SimDuration = SimDuration::from_mins(6);
/// Largest preemption burst, pods.
const MAX_BURST_PODS: u32 = 4;
/// Largest denial-storm filler fleet, pods.
const MAX_STORM_PODS: u32 = 24;

/// A complete, time-ordered fault script.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Events sorted by [`FaultEvent::at`] (stable for ties).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Builds a plan from unordered events (sorts stably by time).
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// Generates plan number `index` from the experiment's named streams.
    ///
    /// Deterministic: the draw sequence depends only on
    /// `(streams.seed(), index, cfg)`, never on ambient entropy, and each
    /// `index` gets an independent stream so plan k is unchanged when more
    /// plans are generated.
    pub fn generate(cfg: &FaultPlanConfig, streams: &RngStreams, index: u64) -> Self {
        let mut rng = streams.indexed_stream("fault-plan", index);
        let span = cfg.horizon.as_micros().saturating_sub(cfg.warmup.as_micros()).max(1);
        let mut events = Vec::with_capacity(cfg.events as usize);
        for _ in 0..cfg.events {
            let at = SimTime::from_micros(cfg.warmup.as_micros() + rng.gen_range(0..span));
            let window = SimDuration::from_micros(
                rng.gen_range(MAX_WINDOW.as_micros() / 8..=MAX_WINDOW.as_micros()),
            );
            let kinds = if cfg.ckpt_faults { 13 } else { 9 };
            let kind = match rng.gen_range(0u32..kinds) {
                0 => FaultKind::WorkerKill { worker: rng.gen_range(0..16) },
                1 => FaultKind::PsKill { ps: rng.gen_range(0..8) },
                2 => FaultKind::NodeLoss { node: rng.gen_range(0..64) },
                3 => FaultKind::PreemptionBurst { pods: rng.gen_range(1..=MAX_BURST_PODS) },
                4 => FaultKind::MemoryPressure {
                    ps: rng.gen_range(0..8),
                    headroom_permille: rng.gen_range(100..=MAX_PRESSURE_PERMILLE),
                    window,
                },
                5 => FaultKind::StragglerWindow {
                    worker: rng.gen_range(0..16),
                    speed_permille: rng.gen_range(MIN_STRAGGLER_SPEED_PERMILLE..1000),
                    window,
                },
                6 => FaultKind::NetworkDelay {
                    factor_permille: rng.gen_range(1100..=MAX_DELAY_FACTOR_PERMILLE),
                    window,
                },
                7 => FaultKind::DenialStorm { pods: rng.gen_range(1..=MAX_STORM_PODS), window },
                // Restart downtime stays a fraction of the window bound so a
                // crash never eats the whole recovery deadline by itself.
                8 => FaultKind::MasterCrash {
                    restart: SimDuration::from_micros(
                        rng.gen_range(MAX_WINDOW.as_micros() / 16..=MAX_WINDOW.as_micros() / 4),
                    ),
                },
                9 => FaultKind::RemoteTierOutage { window },
                10 => FaultKind::BandwidthCollapse {
                    factor_permille: rng.gen_range(1100..=MAX_DELAY_FACTOR_PERMILLE),
                    window,
                },
                11 => FaultKind::ManifestCorruption { manifest: rng.gen_range(0..4) },
                _ => FaultKind::WitnessPartition { peers: rng.gen_range(1..=2), window },
            };
            events.push(FaultEvent { at, kind });
        }
        FaultPlan::from_events(events)
    }

    /// Checks structural well-formedness: sorted by time, all permille
    /// fields in range, windows positive for windowed faults, bursts
    /// non-empty. Returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let mut prev = SimTime::ZERO;
        for (i, e) in self.events.iter().enumerate() {
            if e.at < prev {
                return Err(format!("event {i} at {:?} out of order", e.at));
            }
            prev = e.at;
            match e.kind {
                FaultKind::PreemptionBurst { pods: 0 } => {
                    return Err(format!("event {i}: empty preemption burst"));
                }
                FaultKind::MemoryPressure { headroom_permille, window, .. } => {
                    if headroom_permille == 0 || headroom_permille >= 1000 {
                        return Err(format!(
                            "event {i}: pressure permille {headroom_permille} outside (0, 1000)"
                        ));
                    }
                    if window.is_zero() {
                        return Err(format!("event {i}: zero pressure window"));
                    }
                }
                FaultKind::StragglerWindow { speed_permille, window, .. } => {
                    if speed_permille == 0 || speed_permille >= 1000 {
                        return Err(format!(
                            "event {i}: straggler speed {speed_permille} outside (0, 1000)"
                        ));
                    }
                    if window.is_zero() {
                        return Err(format!("event {i}: zero straggler window"));
                    }
                }
                FaultKind::NetworkDelay { factor_permille, window } => {
                    if factor_permille <= 1000 {
                        return Err(format!(
                            "event {i}: delay factor {factor_permille} must exceed 1000"
                        ));
                    }
                    if window.is_zero() {
                        return Err(format!("event {i}: zero delay window"));
                    }
                }
                FaultKind::DenialStorm { pods, window } => {
                    if pods == 0 {
                        return Err(format!("event {i}: empty denial storm"));
                    }
                    if window.is_zero() {
                        return Err(format!("event {i}: zero denial-storm window"));
                    }
                }
                FaultKind::MasterCrash { restart } if restart.is_zero() => {
                    return Err(format!("event {i}: zero master-restart window"));
                }
                FaultKind::RemoteTierOutage { window } if window.is_zero() => {
                    return Err(format!("event {i}: zero remote-outage window"));
                }
                FaultKind::BandwidthCollapse { factor_permille, window } => {
                    if factor_permille <= 1000 {
                        return Err(format!(
                            "event {i}: collapse factor {factor_permille} must exceed 1000"
                        ));
                    }
                    if window.is_zero() {
                        return Err(format!("event {i}: zero bandwidth-collapse window"));
                    }
                }
                FaultKind::WitnessPartition { peers, window } => {
                    if peers == 0 {
                        return Err(format!("event {i}: empty witness partition"));
                    }
                    if window.is_zero() {
                        return Err(format!("event {i}: zero witness-partition window"));
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time of the last scheduled fault (`ZERO` for an empty plan).
    pub fn horizon(&self) -> SimTime {
        self.events.last().map(|e| e.at).unwrap_or(SimTime::ZERO)
    }

    /// Total windowed-fault duration plus the last fault's offset — the
    /// slowdown budget a plan can legitimately impose on a job. Oracles add
    /// this to the baseline JCT when bounding completion time.
    pub fn slowdown_budget(&self) -> SimDuration {
        let windows: u64 = self.events.iter().map(|e| e.kind.window().as_micros()).sum();
        SimDuration::from_micros(windows + self.horizon().as_micros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed_and_index() {
        let cfg = FaultPlanConfig::default();
        let a = FaultPlan::generate(&cfg, &RngStreams::new(7), 3);
        let b = FaultPlan::generate(&cfg, &RngStreams::new(7), 3);
        assert_eq!(a, b);
        let c = FaultPlan::generate(&cfg, &RngStreams::new(8), 3);
        let d = FaultPlan::generate(&cfg, &RngStreams::new(7), 4);
        assert_ne!(a, c, "seed must perturb the plan");
        assert_ne!(a, d, "index must perturb the plan");
    }

    #[test]
    fn generated_plans_are_well_formed() {
        let cfg = FaultPlanConfig { events: 40, ..FaultPlanConfig::default() };
        for idx in 0..50 {
            let plan = FaultPlan::generate(&cfg, &RngStreams::new(11), idx);
            assert_eq!(plan.len(), 40);
            plan.validate().expect("generated plan validates");
            for e in &plan.events {
                assert!(e.at >= SimTime::ZERO + cfg.warmup);
                assert!(e.at < SimTime::ZERO + cfg.horizon);
            }
        }
    }

    #[test]
    fn from_events_sorts_and_validate_rejects_malformed() {
        let late =
            FaultEvent { at: SimTime::from_secs(100), kind: FaultKind::WorkerKill { worker: 0 } };
        let early = FaultEvent { at: SimTime::from_secs(5), kind: FaultKind::PsKill { ps: 1 } };
        let plan = FaultPlan::from_events(vec![late, early]);
        assert_eq!(plan.events[0], early);
        plan.validate().expect("sorted plan validates");

        let bad = FaultPlan {
            events: vec![FaultEvent {
                at: SimTime::from_secs(1),
                kind: FaultKind::NetworkDelay {
                    factor_permille: 900,
                    window: SimDuration::from_secs(10),
                },
            }],
        };
        assert!(bad.validate().is_err(), "sub-1000 delay factor must be rejected");
    }

    #[test]
    fn slowdown_budget_counts_windows_and_horizon() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at: SimTime::from_secs(60),
                kind: FaultKind::StragglerWindow {
                    worker: 0,
                    speed_permille: 500,
                    window: SimDuration::from_secs(30),
                },
            },
            FaultEvent { at: SimTime::from_secs(10), kind: FaultKind::WorkerKill { worker: 1 } },
        ]);
        assert_eq!(plan.slowdown_budget(), SimDuration::from_secs(90));
        assert_eq!(plan.horizon(), SimTime::from_secs(60));
    }

    #[test]
    fn resilience_faults_validate_and_budget() {
        let storm = FaultKind::DenialStorm { pods: 8, window: SimDuration::from_secs(120) };
        let crash = FaultKind::MasterCrash { restart: SimDuration::from_secs(45) };
        assert!(!storm.is_kill(), "a denial storm kills nothing");
        assert!(!crash.is_kill(), "a master crash kills no pods");
        assert_eq!(storm.name(), "DenialStorm");
        assert_eq!(crash.name(), "MasterCrash");
        let plan = FaultPlan::from_events(vec![
            FaultEvent { at: SimTime::from_secs(10), kind: storm },
            FaultEvent { at: SimTime::from_secs(200), kind: crash },
        ]);
        plan.validate().expect("well-formed resilience plan");
        // Budget = storm window + restart downtime + horizon offset.
        assert_eq!(plan.slowdown_budget(), SimDuration::from_secs(120 + 45 + 200));

        let bad = FaultPlan {
            events: vec![FaultEvent {
                at: SimTime::ZERO,
                kind: FaultKind::MasterCrash { restart: SimDuration::ZERO },
            }],
        };
        assert!(bad.validate().is_err(), "zero restart window must be rejected");
        let empty_storm = FaultPlan {
            events: vec![FaultEvent {
                at: SimTime::ZERO,
                kind: FaultKind::DenialStorm { pods: 0, window: SimDuration::from_secs(1) },
            }],
        };
        assert!(empty_storm.validate().is_err(), "empty storm must be rejected");
    }

    #[test]
    fn ckpt_plane_faults_validate_and_budget() {
        let outage = FaultKind::RemoteTierOutage { window: SimDuration::from_mins(4) };
        let collapse = FaultKind::BandwidthCollapse {
            factor_permille: 4000,
            window: SimDuration::from_mins(2),
        };
        let corrupt = FaultKind::ManifestCorruption { manifest: 1 };
        let partition = FaultKind::WitnessPartition { peers: 2, window: SimDuration::from_mins(3) };
        for k in [outage, collapse, corrupt, partition] {
            assert!(!k.is_kill(), "{} kills no pods", k.name());
        }
        assert_eq!(outage.name(), "RemoteTierOutage");
        assert_eq!(corrupt.window(), SimDuration::ZERO, "corruption is instantaneous");
        let plan = FaultPlan::from_events(vec![
            FaultEvent { at: SimTime::from_secs(10), kind: outage },
            FaultEvent { at: SimTime::from_secs(400), kind: collapse },
            FaultEvent { at: SimTime::from_secs(500), kind: corrupt },
            FaultEvent { at: SimTime::from_secs(600), kind: partition },
        ]);
        plan.validate().expect("well-formed checkpoint-plane plan");
        // Budget = outage + collapse + partition windows + horizon offset.
        assert_eq!(plan.slowdown_budget(), SimDuration::from_secs(240 + 120 + 180 + 600));

        let bad = FaultPlan {
            events: vec![FaultEvent {
                at: SimTime::ZERO,
                kind: FaultKind::BandwidthCollapse {
                    factor_permille: 900,
                    window: SimDuration::from_secs(1),
                },
            }],
        };
        assert!(bad.validate().is_err(), "sub-1000 collapse factor must be rejected");
        let empty = FaultPlan {
            events: vec![FaultEvent {
                at: SimTime::ZERO,
                kind: FaultKind::WitnessPartition { peers: 0, window: SimDuration::from_secs(1) },
            }],
        };
        assert!(empty.validate().is_err(), "empty witness partition must be rejected");
    }

    #[test]
    fn ckpt_faults_flag_widens_generation_without_perturbing_legacy_plans() {
        let legacy = FaultPlanConfig { events: 64, ..FaultPlanConfig::default() };
        let widened = FaultPlanConfig { ckpt_faults: true, ..legacy };
        let streams = RngStreams::new(42);
        let old = FaultPlan::generate(&legacy, &streams, 0);
        assert!(
            old.events.iter().all(|e| !matches!(
                e.kind,
                FaultKind::RemoteTierOutage { .. }
                    | FaultKind::BandwidthCollapse { .. }
                    | FaultKind::ManifestCorruption { .. }
                    | FaultKind::WitnessPartition { .. }
            )),
            "legacy config must never draw checkpoint-plane faults"
        );
        let new = FaultPlan::generate(&widened, &streams, 0);
        new.validate().expect("widened plan validates");
        assert!(
            new.events.iter().any(|e| matches!(
                e.kind,
                FaultKind::RemoteTierOutage { .. }
                    | FaultKind::BandwidthCollapse { .. }
                    | FaultKind::ManifestCorruption { .. }
                    | FaultKind::WitnessPartition { .. }
            )),
            "64 draws over 13 kinds must include a checkpoint-plane fault"
        );
    }

    #[test]
    fn plans_serialize_round_trip() {
        let plan = FaultPlan::generate(&FaultPlanConfig::default(), &RngStreams::new(5), 0);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
