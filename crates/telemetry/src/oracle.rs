//! System-wide invariant oracle for chaos runs.
//!
//! The oracle rides the structured event stream that every subsystem
//! already emits and, given the [`FaultPlan`] that was injected plus a
//! little ground truth from the driver, asserts the paper's §6
//! fault-tolerance properties *as properties* rather than as hand-picked
//! examples:
//!
//! * **Exactly-once** — dynamic data sharding (§6.1) never loses or
//!   double-counts a sample, no matter which workers died when.
//! * **No leaks** — every pod the driver created is terminal at the end
//!   and the cluster's allocation accounting returns to zero.
//! * **Checkpoint monotonicity** — a job's staged checkpoint steps (§6.3:
//!   the plane's `CheckpointStaged` manifests, the only checkpoints a
//!   restore reads) never regress except across an intervening failure,
//!   where a bounded rollback to the last checkpoint is the contract.
//! * **OOM reaction** — the memory predictor (§5.3, Eqn. 14) reacts to
//!   injected memory pressure before the pod actually OOMs; an `Oomed`
//!   event is by definition a missed deadline.
//! * **Bounded slowdown** — the job still completes, within a
//!   configurable multiple of its fault-free baseline plus the plan's own
//!   slowdown budget.
//! * **Recovery deadline** — every kill-type fault that hit a live pod is
//!   followed by the matching recovery signal (replacement worker joined,
//!   PS reshaped) within a deadline; latencies are reported so the bench
//!   can track worst-case recovery.
//! * **No retry storm** — the control plane's retries per operation stay
//!   under a bound: a denied request backs off and eventually degrades,
//!   it never hammers the scheduler forever.
//! * **Blacklist effectiveness** — once repeated failures blacklist a
//!   node, no pod is ever placed there again for the rest of the run.
//! * **Durable restore** — no job ever restores from an uncommitted
//!   manifest: a `"remote"` restore needs a prior commit record, a
//!   `"witness"` restore needs a prior co-sign quorum, and a `"hot"`
//!   restore needs the staged copy still resident (not evicted or
//!   invalidated). Corrupted manifests are never restorable.
//! * **Restore bytes bounded** — a restore can only read bytes that were
//!   actually written: every `CheckpointRestored` must stay within the
//!   byte count its manifest staged.

use dlrover_sim::{FaultPlan, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::event::{
    CheckpointRestored, CheckpointStaged, Event, EventKind, FaultInjected, PodKind,
    ReconfigApplied, ReconfigRolledBack, RetryAttempt,
};

/// Oracle knobs. Defaults match the paper's operating regime: §2.2 puts
/// pod preparation at 5–10 minutes (tail past 30 under scarcity), so half
/// an hour is a generous-but-real recovery deadline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OracleConfig {
    /// How long after a kill-type fault the recovery signal must appear.
    pub recovery_deadline: SimDuration,
    /// Completion bound: `baseline × factor + plan budget × factor +
    /// grace`.
    pub slowdown_factor: f64,
    /// Additive grace on the completion bound (absorbs startup draws).
    pub slowdown_grace: SimDuration,
    /// Most [`EventKind::RetryAttempt`]s any single operation may record
    /// before the no-retry-storm invariant trips. Sized above the chaos
    /// driver's retry policy (which must outlast a 10-minute preemption
    /// burst at a 60 s backoff cap) but far under the per-tick hammering
    /// the invariant exists to catch.
    pub max_retry_attempts: u32,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            recovery_deadline: SimDuration::from_mins(30),
            slowdown_factor: 3.0,
            slowdown_grace: SimDuration::from_hours(1),
            max_retry_attempts: 40,
        }
    }
}

/// Facts the event stream alone cannot witness, supplied by the chaos
/// driver after the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Samples the job was asked to process.
    pub total_samples: u64,
    /// Samples the engine accounted as done at the end of the run.
    pub samples_done: u64,
    /// Completion instant, if the job finished.
    pub completed_at: Option<SimTime>,
    /// Fault-free JCT of the same job under the same seed.
    pub baseline_jct: SimDuration,
    /// Pods still non-terminal after the driver's final cleanup.
    pub leaked_pods: u64,
    /// Cluster CPU still accounted as allocated after cleanup, millicores.
    pub leaked_cpu_millis: u64,
    /// Cluster memory still accounted as allocated after cleanup, bytes.
    pub leaked_mem_bytes: u64,
}

/// The invariant vocabulary. Order is the reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Invariant {
    /// `samples_done == total_samples` on completion; never an overcount.
    ExactlyOnce,
    /// No pods or allocations survive the run.
    NoLeaks,
    /// Checkpoint steps only regress across a failure.
    CheckpointMonotonic,
    /// Memory pressure never ends in an actual OOM.
    OomReaction,
    /// The job completes within the slowdown bound.
    BoundedSlowdown,
    /// Kill-type faults recover within the deadline.
    RecoveryDeadline,
    /// No operation retries more than the configured bound.
    NoRetryStorm,
    /// Blacklisted nodes never receive another pod.
    BlacklistEffectiveness,
    /// Restores only read committed / witnessed / resident-hot manifests.
    DurableRestore,
    /// Restored bytes never exceed the manifest's staged bytes.
    RestoreBytesBounded,
    /// Reconfiguration windows resolve exactly once (applied XOR rolled
    /// back), never lose samples, and always land in a consistent layout.
    ReconfigConsistent,
}

impl Invariant {
    /// All invariants, in reporting order.
    pub const ALL: [Invariant; 11] = [
        Invariant::ExactlyOnce,
        Invariant::NoLeaks,
        Invariant::CheckpointMonotonic,
        Invariant::OomReaction,
        Invariant::BoundedSlowdown,
        Invariant::RecoveryDeadline,
        Invariant::NoRetryStorm,
        Invariant::BlacklistEffectiveness,
        Invariant::DurableRestore,
        Invariant::RestoreBytesBounded,
        Invariant::ReconfigConsistent,
    ];

    /// Stable short name, used as the JSON key in `results/chaos.json`.
    pub fn name(&self) -> &'static str {
        match self {
            Invariant::ExactlyOnce => "exactly_once",
            Invariant::NoLeaks => "no_leaks",
            Invariant::CheckpointMonotonic => "checkpoint_monotonic",
            Invariant::OomReaction => "oom_reaction",
            Invariant::BoundedSlowdown => "bounded_slowdown",
            Invariant::RecoveryDeadline => "recovery_deadline",
            Invariant::NoRetryStorm => "no_retry_storm",
            Invariant::BlacklistEffectiveness => "blacklist_effectiveness",
            Invariant::DurableRestore => "durable_restore",
            Invariant::RestoreBytesBounded => "restore_bytes_bounded",
            Invariant::ReconfigConsistent => "reconfig_consistent",
        }
    }
}

/// Verdict for one invariant on one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvariantCheck {
    /// Which invariant.
    pub invariant: Invariant,
    /// Whether it held.
    pub passed: bool,
    /// Human-readable descriptions of each violation (empty when passed).
    pub violations: Vec<String>,
}

/// Everything the oracle concluded about one chaos run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleReport {
    /// One verdict per [`Invariant::ALL`] entry, in order.
    pub checks: Vec<InvariantCheck>,
    /// Fault-to-recovery latency for each recovered kill, microseconds.
    pub recovery_latencies_us: Vec<u64>,
    /// The worst recovery latency observed, microseconds.
    pub worst_recovery_us: Option<u64>,
    /// Pressure-injection-to-`OomPrevented` reaction latencies, µs.
    pub oom_reactions_us: Vec<u64>,
}

impl OracleReport {
    /// True when every invariant held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Total violation count across invariants.
    pub fn violation_count(&self) -> usize {
        self.checks.iter().map(|c| c.violations.len()).sum()
    }

    /// All violation messages, prefixed with their invariant name.
    pub fn violations(&self) -> Vec<String> {
        self.checks
            .iter()
            .flat_map(|c| c.violations.iter().map(move |v| format!("{}: {v}", c.invariant.name())))
            .collect()
    }
}

/// The invariant checker. Stateless: one [`Oracle::check`] call audits one
/// completed run from its event stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct Oracle {
    config: OracleConfig,
}

impl Oracle {
    /// Builds an oracle with the given deadlines and bounds.
    pub fn new(config: OracleConfig) -> Self {
        Oracle { config }
    }

    /// Audits one run: `plan` is what was injected, `events` the full
    /// telemetry event log (the driver must size the ring so nothing was
    /// evicted), `truth` the driver's end-of-run facts.
    pub fn check(&self, plan: &FaultPlan, events: &[Event], truth: &GroundTruth) -> OracleReport {
        let mut checks = Vec::with_capacity(Invariant::ALL.len());
        checks.push(self.check_exactly_once(truth));
        checks.push(self.check_no_leaks(truth));
        checks.push(self.check_checkpoint_monotonic(events));
        let (oom_check, oom_reactions_us) = self.check_oom_reaction(events);
        checks.push(oom_check);
        checks.push(self.check_bounded_slowdown(plan, truth));
        let (recovery_check, recovery_latencies_us) = self.check_recovery(events, truth);
        checks.push(recovery_check);
        checks.push(self.check_no_retry_storm(events));
        checks.push(self.check_blacklist_effectiveness(events));
        let (durable, bytes_bounded) = Self::check_durability(events);
        checks.push(durable);
        checks.push(bytes_bounded);
        checks.push(Self::check_reconfig_consistency(events));
        let worst_recovery_us = recovery_latencies_us.iter().copied().max();
        OracleReport { checks, recovery_latencies_us, worst_recovery_us, oom_reactions_us }
    }

    /// The two checkpoint-plane durability invariants on their own, so
    /// drivers without a full [`GroundTruth`] (e.g. the ckptplane fleet
    /// experiment) can audit an event log.
    ///
    /// The audit is log-ordered: a restore is only as legitimate as the
    /// commit/quorum/stage records that *precede* it in the stream, so
    /// drivers must drain plane transfers (recording commit events) before
    /// recording the restores that depend on them.
    pub fn check_durability(events: &[Event]) -> (InvariantCheck, InvariantCheck) {
        use std::collections::{BTreeMap, BTreeSet};
        let mut staged_bytes: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut committed: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut witnessed: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut hot_dead: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut corrupted: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut durable_violations = Vec::new();
        let mut bytes_violations = Vec::new();
        for e in events {
            match &e.kind {
                EventKind::CheckpointStaged(c) => {
                    staged_bytes.insert((c.job, c.manifest), c.bytes);
                }
                EventKind::CheckpointCommitted(c) => {
                    committed.insert((c.job, c.manifest));
                }
                EventKind::WitnessQuorumReached { job, manifest, .. } => {
                    witnessed.insert((*job, *manifest));
                }
                EventKind::CheckpointHotEvicted { job, manifest } => {
                    hot_dead.insert((*job, *manifest));
                }
                EventKind::ManifestCorrupted { job, manifest } => {
                    corrupted.insert((*job, *manifest));
                }
                EventKind::CheckpointRestored(r) => {
                    let CheckpointRestored { job, manifest, bytes, source, .. } = &**r;
                    let key = (*job, *manifest);
                    let legitimate = match source.as_ref() {
                        "hot" => {
                            staged_bytes.contains_key(&key)
                                && !hot_dead.contains(&key)
                                && !corrupted.contains(&key)
                        }
                        "remote" => committed.contains(&key) && !corrupted.contains(&key),
                        "witness" => witnessed.contains(&key),
                        _ => false,
                    };
                    if !legitimate {
                        durable_violations.push(format!(
                            "job {job} restored manifest {manifest} from {source} at t={}s \
                             without a matching commit/quorum/stage record",
                            e.at().as_secs_f64()
                        ));
                    }
                    match staged_bytes.get(&key) {
                        Some(written) if *bytes <= *written => {}
                        Some(written) => bytes_violations.push(format!(
                            "job {job} restored {bytes} bytes of manifest {manifest}, which \
                             staged only {written}"
                        )),
                        None => bytes_violations.push(format!(
                            "job {job} restored {bytes} bytes of never-staged manifest {manifest}"
                        )),
                    }
                }
                _ => {}
            }
        }
        (
            InvariantCheck {
                invariant: Invariant::DurableRestore,
                passed: durable_violations.is_empty(),
                violations: durable_violations,
            },
            InvariantCheck {
                invariant: Invariant::RestoreBytesBounded,
                passed: bytes_violations.is_empty(),
                violations: bytes_violations,
            },
        )
    }

    /// Reconfiguration invariant (DESIGN §13): every
    /// reconfiguration window resolves **exactly once** — it either
    /// commits (`ReconfigApplied`) or aborts (`ReconfigRolledBack`), never
    /// both and never twice — a reconfig never loses samples (the
    /// samples-done watermark carried on reconfig events is non-decreasing
    /// in log order per job), and a committed plan always lands in a
    /// consistent layout (≥ 1 replica, ≥ 1 shard, ≥ 1 batch, a known
    /// gradient mode). Standalone like [`Oracle::check_durability`] so
    /// event-log-only drivers can audit reconfigurations too.
    pub(crate) fn check_reconfig_consistency(events: &[Event]) -> InvariantCheck {
        use std::collections::BTreeMap;
        let mut resolved: BTreeMap<(u64, u64), &'static str> = BTreeMap::new();
        let mut watermark: BTreeMap<u64, u64> = BTreeMap::new();
        let mut violations = Vec::new();
        let mut check_watermark = |job: u64, samples: u64, what: &str, v: &mut Vec<String>| {
            let w = watermark.entry(job).or_insert(0);
            if samples < *w {
                v.push(format!(
                    "job {job}: {what} reports samples_done {samples} below the \
                     previous reconfig watermark {w} — a reconfig lost samples"
                ));
            }
            *w = (*w).max(samples);
        };
        for e in events {
            match &e.kind {
                EventKind::ReconfigApplied(r) => {
                    let ReconfigApplied {
                        job,
                        window,
                        mode,
                        batch,
                        replicas,
                        shards,
                        samples_done,
                        ..
                    } = &**r;
                    if let Some(prev) = resolved.insert((*job, *window), "applied") {
                        violations.push(format!(
                            "job {job}: reconfig window {window} resolved twice \
                             ({prev}, then applied)"
                        ));
                    }
                    if *replicas < 1 || *shards < 1 || *batch < 1 {
                        violations.push(format!(
                            "job {job}: reconfig window {window} committed a degenerate \
                             layout (batch {batch}, replicas {replicas}, shards {shards})"
                        ));
                    }
                    if mode != "async" && mode != "sync" {
                        violations.push(format!(
                            "job {job}: reconfig window {window} committed unknown \
                             gradient mode {mode:?}"
                        ));
                    }
                    check_watermark(*job, *samples_done, "ReconfigApplied", &mut violations);
                }
                EventKind::ReconfigRolledBack(r) => {
                    let ReconfigRolledBack { job, window, samples_done, .. } = &**r;
                    if let Some(prev) = resolved.insert((*job, *window), "rolled back") {
                        violations.push(format!(
                            "job {job}: reconfig window {window} resolved twice \
                             ({prev}, then rolled back)"
                        ));
                    }
                    check_watermark(*job, *samples_done, "ReconfigRolledBack", &mut violations);
                }
                _ => {}
            }
        }
        InvariantCheck {
            invariant: Invariant::ReconfigConsistent,
            passed: violations.is_empty(),
            violations,
        }
    }

    /// §6.1: dynamic sharding must account every sample exactly once.
    fn check_exactly_once(&self, truth: &GroundTruth) -> InvariantCheck {
        let mut violations = Vec::new();
        if truth.samples_done > truth.total_samples {
            violations.push(format!(
                "overcount: {} samples done of {} total",
                truth.samples_done, truth.total_samples
            ));
        }
        if truth.completed_at.is_some() && truth.samples_done != truth.total_samples {
            violations.push(format!(
                "completed with {} of {} samples accounted",
                truth.samples_done, truth.total_samples
            ));
        }
        InvariantCheck {
            invariant: Invariant::ExactlyOnce,
            passed: violations.is_empty(),
            violations,
        }
    }

    fn check_no_leaks(&self, truth: &GroundTruth) -> InvariantCheck {
        let mut violations = Vec::new();
        if truth.leaked_pods > 0 {
            violations.push(format!("{} pods non-terminal after cleanup", truth.leaked_pods));
        }
        if truth.leaked_cpu_millis > 0 || truth.leaked_mem_bytes > 0 {
            violations.push(format!(
                "cluster still accounts {}m CPU / {} bytes after cleanup",
                truth.leaked_cpu_millis, truth.leaked_mem_bytes
            ));
        }
        InvariantCheck { invariant: Invariant::NoLeaks, passed: violations.is_empty(), violations }
    }

    /// §6.3: each job's staged checkpoint steps move forward; a regression
    /// is legal only when a failure fired since that job's previous save
    /// (restore rolls back to the last manifest). Failure records name no
    /// job, so one excuses the next regression of every job.
    fn check_checkpoint_monotonic(&self, events: &[Event]) -> InvariantCheck {
        let mut violations = Vec::new();
        // Per job: the last staged step, and whether a failure fired since.
        let mut last: std::collections::BTreeMap<u64, (u64, bool)> = Default::default();
        for e in events {
            match &e.kind {
                EventKind::WorkerFailed { .. }
                | EventKind::PodFailed { .. }
                | EventKind::PodPreempted { .. }
                | EventKind::NodeFailed { .. }
                | EventKind::FaultInjected { .. } => {
                    last.values_mut().for_each(|(_, failed)| *failed = true);
                }
                EventKind::CheckpointStaged(c) => {
                    let CheckpointStaged { job, step, .. } = &**c;
                    if let Some(&(prev, false)) = last.get(job) {
                        if *step < prev {
                            violations.push(format!(
                                "job {job}: checkpoint step regressed {prev} -> {step} at t={}s \
                                 with no intervening failure",
                                e.at().as_secs_f64()
                            ));
                        }
                    }
                    last.insert(*job, (*step, false));
                }
                _ => {}
            }
        }
        InvariantCheck {
            invariant: Invariant::CheckpointMonotonic,
            passed: violations.is_empty(),
            violations,
        }
    }

    /// §5.3: the predictor's deadline is the OOM itself — prevention must
    /// land first. Also measures pressure→prevention reaction latency.
    fn check_oom_reaction(&self, events: &[Event]) -> (InvariantCheck, Vec<u64>) {
        let mut violations = Vec::new();
        let mut reactions = Vec::new();
        let mut open_pressure: Vec<u64> = Vec::new(); // injection at_us, FIFO
        for e in events {
            match &e.kind {
                EventKind::FaultInjected(f) if f.kind == "MemoryPressure" => {
                    open_pressure.push(e.at_us);
                }
                EventKind::OomPrevented { .. } => {
                    if let Some(at) = open_pressure.first().copied() {
                        open_pressure.remove(0);
                        reactions.push(e.at_us.saturating_sub(at));
                    }
                }
                EventKind::Oomed { job, ps } => {
                    violations.push(format!(
                        "job {job} PS {ps} actually OOMed at t={}s (prevention missed its \
                         deadline)",
                        e.at().as_secs_f64()
                    ));
                }
                _ => {}
            }
        }
        (
            InvariantCheck {
                invariant: Invariant::OomReaction,
                passed: violations.is_empty(),
                violations,
            },
            reactions,
        )
    }

    fn check_bounded_slowdown(&self, plan: &FaultPlan, truth: &GroundTruth) -> InvariantCheck {
        let budget = plan.slowdown_budget() + truth.baseline_jct;
        let bound_us = (budget.as_micros() as f64 * self.config.slowdown_factor) as u64
            + self.config.slowdown_grace.as_micros();
        let mut violations = Vec::new();
        match truth.completed_at {
            None => violations.push("job never completed under the plan".to_string()),
            Some(at) => {
                if at.as_micros() > bound_us {
                    violations.push(format!(
                        "completed at {:.0}s, bound was {:.0}s (baseline {:.0}s)",
                        at.as_secs_f64(),
                        bound_us as f64 / 1e6,
                        truth.baseline_jct.as_secs_f64()
                    ));
                }
            }
        }
        InvariantCheck {
            invariant: Invariant::BoundedSlowdown,
            passed: violations.is_empty(),
            violations,
        }
    }

    /// Kill-type faults must be followed by their recovery signal —
    /// a `WorkerAdded` for each same-instant `WorkerFailed`, a
    /// `PsReshaped` for a PS kill — within the deadline. The deadline
    /// bounds the control plane, not the image pull: a killed worker whose
    /// replacement pod was requested after the marker and placed inside
    /// the deadline has been recovered as far as anything the master
    /// controls goes, so it passes as long as a `WorkerAdded` still
    /// follows the placement, however long the pod took to start (§2.2:
    /// start-up runs past 30 minutes under scarcity). The latency reported
    /// stays kill → `WorkerAdded` either way. Worker pods are matched to
    /// kills like joins are, greedily and one to one. Recovery is waived
    /// when the job completed first (nothing left to recover),
    /// when the master degraded inside the deadline (falling back to the
    /// surviving shape is the sanctioned alternative to relaunching once
    /// retries or the failure budget are exhausted), or when a scheduler
    /// policy applied a scaling plan inside the deadline: an elastic
    /// policy that deliberately reshapes the job post-fault owns its size
    /// — a scale-*down* decision legitimately cancels the pending
    /// replacement, so "the gang must be restored" no longer applies.
    /// (`ScalingPlanApplied` is only ever emitted on policy decisions, so
    /// static-gang chaos runs are unaffected by this waiver.)
    fn check_recovery(&self, events: &[Event], truth: &GroundTruth) -> (InvariantCheck, Vec<u64>) {
        let deadline = self.config.recovery_deadline.as_micros();
        let mut violations = Vec::new();
        let mut latencies = Vec::new();
        // Index of the next not-yet-consumed WorkerAdded, for greedy
        // one-to-one matching of kills to replacements (replacements
        // materialize in request order, so greedy matching is exact).
        let mut next_added = 0usize;
        // Likewise for the replacement pods the job requested.
        let mut next_request = 0usize;
        for (i, e) in events.iter().enumerate() {
            let EventKind::FaultInjected(f) = &e.kind else { continue };
            let FaultInjected { fault, kind, .. } = &**f;
            let is_ps_kill = kind == "PsKill";
            let is_kill = is_ps_kill
                || kind == "WorkerKill"
                || kind == "NodeLoss"
                || kind == "PreemptionBurst";
            // A master crash kills no pods, but the job must still come
            // back — via replay or witness quorum — within the deadline,
            // even when a remote-tier outage stalls the restore read (the
            // outage windows are bounded well under the deadline).
            if kind == "MasterCrash" {
                let recovered = events[i + 1..].iter().find(|f| {
                    matches!(
                        f.kind,
                        EventKind::MasterRestarted { .. } | EventKind::JobRecovered { .. }
                    )
                });
                let waived = truth
                    .completed_at
                    .map(|done| done.as_micros() <= e.at_us + deadline)
                    .unwrap_or(false);
                match recovered {
                    Some(f) if f.at_us.saturating_sub(e.at_us) <= deadline => {
                        latencies.push(f.at_us.saturating_sub(e.at_us));
                    }
                    _ if waived => {}
                    _ => violations.push(format!(
                        "fault {fault} (MasterCrash) at t={}s: no recovery within {}s",
                        e.at().as_secs_f64(),
                        self.config.recovery_deadline.as_secs_f64()
                    )),
                }
                continue;
            }
            if !is_kill {
                continue;
            }
            // A degradation or reshape waives the deadline when it comes
            // after the fault: later in time, or at the same instant and
            // after the marker in log order (the driver degrades in the
            // tick it exhausts its retries in).
            let degraded_or_reshaped = events.iter().enumerate().any(|(j, f)| {
                (f.at_us > e.at_us || (f.at_us == e.at_us && j > i))
                    && f.at_us <= e.at_us + deadline
                    && matches!(
                        f.kind,
                        EventKind::JobDegraded { .. } | EventKind::ScalingPlanApplied { .. }
                    )
            });
            let waived = degraded_or_reshaped
                || truth
                    .completed_at
                    .map(|done| done.as_micros() <= e.at_us + deadline)
                    .unwrap_or(false);
            // Count the workers this fault actually killed (driver emits
            // them at the same instant, after the injection marker). The
            // next marker ends the count: a second fault on the same tick
            // owns the failures that follow *it*.
            let killed = events[i + 1..]
                .iter()
                .take_while(|f| {
                    f.at_us == e.at_us && !matches!(f.kind, EventKind::FaultInjected { .. })
                })
                .filter(|f| matches!(f.kind, EventKind::WorkerFailed { .. }))
                .count();
            for _ in 0..killed {
                let found = events.iter().enumerate().skip(next_added.max(i)).find(|(_, f)| {
                    f.at_us > e.at_us && matches!(f.kind, EventKind::WorkerAdded { .. })
                });
                // This kill's replacement pod, and where it was placed.
                let (after_request, placed) = replacement_pod(events, next_request.max(i));
                next_request = after_request;
                let placed_in_time = |joined: usize| {
                    placed.is_some_and(|p| p < joined && events[p].at_us <= e.at_us + deadline)
                };
                match found {
                    Some((j, f))
                        if f.at_us.saturating_sub(e.at_us) <= deadline || placed_in_time(j) =>
                    {
                        latencies.push(f.at_us - e.at_us);
                        next_added = j + 1;
                    }
                    _ if waived => {}
                    _ => violations.push(format!(
                        "fault {fault} ({kind}) at t={}s: no replacement worker within {}s",
                        e.at().as_secs_f64(),
                        self.config.recovery_deadline.as_secs_f64()
                    )),
                }
            }
            if is_ps_kill {
                let reshaped =
                    events[i + 1..].iter().find(|f| matches!(f.kind, EventKind::PsReshaped { .. }));
                match reshaped {
                    Some(f) if f.at_us.saturating_sub(e.at_us) <= deadline => {
                        latencies.push(f.at_us.saturating_sub(e.at_us));
                    }
                    _ if waived => {}
                    _ => violations.push(format!(
                        "fault {fault} (PsKill) at t={}s: no PS reshape within {}s",
                        e.at().as_secs_f64(),
                        self.config.recovery_deadline.as_secs_f64()
                    )),
                }
            }
        }
        (
            InvariantCheck {
                invariant: Invariant::RecoveryDeadline,
                passed: violations.is_empty(),
                violations,
            },
            latencies,
        )
    }

    /// Retry/backoff discipline: every `RetryAttempt` carries the attempt
    /// ordinal its supervisor assigned, so the highest ordinal seen per
    /// operation *is* that operation's retry count. A count past the bound
    /// means some caller bypassed the backoff policy and hammered the
    /// scheduler (the pre-resilience chaos driver retried every tick —
    /// exactly the storm this invariant exists to reject).
    fn check_no_retry_storm(&self, events: &[Event]) -> InvariantCheck {
        let mut worst: std::collections::BTreeMap<&str, u32> = std::collections::BTreeMap::new();
        for e in events {
            if let EventKind::RetryAttempt(r) = &e.kind {
                let RetryAttempt { op, attempt } = &**r;
                let w = worst.entry(op.as_str()).or_insert(0);
                *w = (*w).max(*attempt);
            }
        }
        let violations: Vec<String> = worst
            .iter()
            .filter(|(_, &n)| n > self.config.max_retry_attempts)
            .map(|(op, n)| {
                format!(
                    "operation {op} retried {n} times, bound is {}",
                    self.config.max_retry_attempts
                )
            })
            .collect();
        InvariantCheck {
            invariant: Invariant::NoRetryStorm,
            passed: violations.is_empty(),
            violations,
        }
    }

    /// Once the cluster blacklists a node (repeated pod failures on it),
    /// the scheduler must never place another pod there: a later
    /// `PodPlaced` on a blacklisted node means the blacklist is decorative.
    fn check_blacklist_effectiveness(&self, events: &[Event]) -> InvariantCheck {
        let mut blacklisted: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        let mut violations = Vec::new();
        for e in events {
            match &e.kind {
                EventKind::NodeBlacklisted { node, .. } => {
                    blacklisted.insert(*node);
                }
                EventKind::PodPlaced { pod, node } if blacklisted.contains(node) => {
                    violations.push(format!(
                        "pod {pod} placed on blacklisted node {node} at t={}s",
                        e.at().as_secs_f64()
                    ));
                }
                _ => {}
            }
        }
        InvariantCheck {
            invariant: Invariant::BlacklistEffectiveness,
            passed: violations.is_empty(),
            violations,
        }
    }
}

/// The first worker pod requested at or after index `from`: the index
/// just past its `PodRequested` (where the search for the next kill's pod
/// starts; the end of the log when there is none) and, when the scheduler
/// granted it, the index of its `PodPlaced`. PS replacements and the
/// service pods of preemption bursts and denial storms replace no worker.
fn replacement_pod(events: &[Event], from: usize) -> (usize, Option<usize>) {
    let request = events.iter().enumerate().skip(from).find_map(|(r, f)| match f.kind {
        EventKind::PodRequested { pod, role: PodKind::Worker, .. } => Some((r, pod)),
        _ => None,
    });
    let Some((r, pod)) = request else { return (events.len(), None) };
    let placed = events[r..]
        .iter()
        .position(|f| matches!(f.kind, EventKind::PodPlaced { pod: p, .. } if p == pod));
    (r + 1, placed.map(|k| r + k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CheckpointCommitted, JobRecovered, RetryExhausted};
    use dlrover_sim::{FaultEvent, FaultKind};

    fn ev(at_s: u64, seq: u64, kind: EventKind) -> Event {
        Event { at_us: at_s * 1_000_000, seq, kind }
    }

    fn clean_truth() -> GroundTruth {
        GroundTruth {
            total_samples: 1000,
            samples_done: 1000,
            completed_at: Some(SimTime::from_secs(600)),
            baseline_jct: SimDuration::from_secs(500),
            leaked_pods: 0,
            leaked_cpu_millis: 0,
            leaked_mem_bytes: 0,
        }
    }

    fn kill_plan() -> FaultPlan {
        FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::from_secs(100),
            kind: FaultKind::WorkerKill { worker: 0 },
        }])
    }

    #[test]
    fn clean_run_passes_every_invariant() {
        let events = vec![
            ev(100, 0, FaultInjected { fault: 0, kind: "WorkerKill".into(), target: 1 }.into()),
            ev(100, 1, EventKind::WorkerFailed { worker: 1 }),
            ev(130, 2, EventKind::WorkerAdded { worker: 3 }),
            ev(200, 3, staged(0, 50)),
            ev(300, 4, staged(0, 90)),
            ev(600, 5, EventKind::JobCompleted { job: 0 }),
        ];
        let report = Oracle::default().check(&kill_plan(), &events, &clean_truth());
        assert!(report.passed(), "violations: {:?}", report.violations());
        assert_eq!(report.worst_recovery_us, Some(30_000_000));
    }

    #[test]
    fn lost_samples_and_leaks_are_flagged() {
        let truth = GroundTruth {
            samples_done: 990,
            leaked_pods: 2,
            leaked_cpu_millis: 4000,
            ..clean_truth()
        };
        let report = Oracle::default().check(&FaultPlan::default(), &[], &truth);
        assert!(!report.passed());
        let names: Vec<&str> =
            report.checks.iter().filter(|c| !c.passed).map(|c| c.invariant.name()).collect();
        assert!(names.contains(&"exactly_once"));
        assert!(names.contains(&"no_leaks"));
    }

    /// A plane save of `job` at `step`.
    fn staged(job: u64, step: u64) -> EventKind {
        CheckpointStaged { job, manifest: step, step, bytes: 1, new_bytes: 1 }.into()
    }

    fn monotonic_verdict(events: &[Event]) -> InvariantCheck {
        let report = Oracle::default().check(&FaultPlan::default(), events, &clean_truth());
        report.checks.into_iter().find(|c| c.invariant == Invariant::CheckpointMonotonic).unwrap()
    }

    #[test]
    fn checkpoint_regression_needs_a_failure() {
        // Job 1's lower steps in between are its own: each job is audited
        // against its previous save.
        let illegal =
            vec![ev(100, 0, staged(0, 80)), ev(120, 1, staged(1, 10)), ev(200, 2, staged(0, 75))];
        let ck = monotonic_verdict(&illegal);
        assert!(!ck.passed);
        assert_eq!(ck.violations.len(), 1, "{:?}", ck.violations);
        assert!(ck.violations[0].starts_with("job 0: checkpoint step regressed 80 -> 75"));

        let legal = vec![
            ev(100, 0, staged(0, 80)),
            ev(150, 1, EventKind::WorkerFailed { worker: 0 }),
            ev(200, 2, staged(0, 75)),
        ];
        let ck = monotonic_verdict(&legal);
        assert!(ck.passed, "{:?}", ck.violations);
    }

    #[test]
    fn an_actual_oom_is_a_missed_deadline() {
        let events = vec![
            ev(100, 0, FaultInjected { fault: 0, kind: "MemoryPressure".into(), target: 0 }.into()),
            ev(160, 1, EventKind::Oomed { job: 0, ps: 0 }),
        ];
        let report = Oracle::default().check(&FaultPlan::default(), &events, &clean_truth());
        let ck = report.checks.iter().find(|c| c.invariant == Invariant::OomReaction).unwrap();
        assert!(!ck.passed);

        let prevented = vec![
            ev(100, 0, FaultInjected { fault: 0, kind: "MemoryPressure".into(), target: 0 }.into()),
            ev(130, 1, EventKind::OomPrevented { job: 0, new_alloc_bytes: 1 }),
        ];
        let report = Oracle::default().check(&FaultPlan::default(), &prevented, &clean_truth());
        assert!(report.passed(), "{:?}", report.violations());
        assert_eq!(report.oom_reactions_us, vec![30_000_000]);
    }

    #[test]
    fn missing_recovery_violates_unless_job_completed_first() {
        let events = vec![
            ev(100, 0, FaultInjected { fault: 0, kind: "WorkerKill".into(), target: 1 }.into()),
            ev(100, 1, EventKind::WorkerFailed { worker: 1 }),
        ];
        // Job ran on for hours with no replacement: violation.
        let truth = GroundTruth { completed_at: Some(SimTime::from_secs(36_000)), ..clean_truth() };
        let report = Oracle::default().check(&kill_plan(), &events, &truth);
        let ck = report.checks.iter().find(|c| c.invariant == Invariant::RecoveryDeadline).unwrap();
        assert!(!ck.passed);

        // Job completed 20s after the kill: recovery waived.
        let truth = GroundTruth { completed_at: Some(SimTime::from_secs(120)), ..clean_truth() };
        let report = Oracle::default().check(&kill_plan(), &events, &truth);
        let ck = report.checks.iter().find(|c| c.invariant == Invariant::RecoveryDeadline).unwrap();
        assert!(ck.passed);
    }

    #[test]
    fn two_kills_on_one_tick_each_own_their_victims() {
        // Both faults land at t=100; each kills one worker and each gets a
        // replacement. Counting victims up to the end of the instant made
        // fault 0 claim both failures and both replacements, leaving
        // fault 1 with a false "no replacement worker".
        let marker = |fault| FaultInjected { fault, kind: "WorkerKill".into(), target: 0 }.into();
        let events = vec![
            ev(100, 0, marker(0)),
            ev(100, 1, EventKind::WorkerFailed { worker: 1 }),
            ev(100, 2, marker(1)),
            ev(100, 3, EventKind::WorkerFailed { worker: 2 }),
            ev(130, 4, EventKind::WorkerAdded { worker: 4 }),
            ev(140, 5, EventKind::WorkerAdded { worker: 5 }),
        ];
        let truth = GroundTruth { completed_at: Some(SimTime::from_secs(36_000)), ..clean_truth() };
        let report = Oracle::default().check(&kill_plan(), &events, &truth);
        let ck = report.checks.iter().find(|c| c.invariant == Invariant::RecoveryDeadline).unwrap();
        assert!(ck.passed, "{:?}", ck.violations);
        assert_eq!(report.recovery_latencies_us, vec![30_000_000, 40_000_000]);
    }

    /// A kill at t=100 whose replacement pod 7, of `role`, is requested at
    /// once, placed at `placed_s` and joins at `joined_s` (each optional),
    /// on a job that runs for hours: the `recovery_deadline` verdict and
    /// the latencies reported.
    fn slow_start_verdict(
        role: PodKind,
        placed_s: Option<u64>,
        joined_s: Option<u64>,
    ) -> (InvariantCheck, Vec<u64>) {
        let mut events = vec![
            ev(100, 0, FaultInjected { fault: 0, kind: "WorkerKill".into(), target: 1 }.into()),
            ev(100, 1, EventKind::WorkerFailed { worker: 1 }),
            ev(100, 2, EventKind::PodRequested { job: 0, pod: 7, role }),
        ];
        if let Some(at) = placed_s {
            events.push(ev(at, 3, EventKind::PodPlaced { pod: 7, node: 0 }));
        }
        if let Some(at) = joined_s {
            events.push(ev(at, 4, EventKind::WorkerAdded { worker: 9 }));
        }
        let truth = GroundTruth { completed_at: Some(SimTime::from_secs(36_000)), ..clean_truth() };
        let report = Oracle::default().check(&kill_plan(), &events, &truth);
        let ck = report.checks.iter().find(|c| c.invariant == Invariant::RecoveryDeadline).unwrap();
        (ck.clone(), report.recovery_latencies_us)
    }

    #[test]
    fn a_replacement_placed_in_time_may_join_late() {
        // Placed at the kill's instant, 31 minutes to start: the control
        // plane did its part, and the latency says how long it really took.
        let (ck, latencies) = slow_start_verdict(PodKind::Worker, Some(100), Some(100 + 1_860));
        assert!(ck.passed, "{:?}", ck.violations);
        assert_eq!(latencies, vec![1_860_000_000]);
    }

    #[test]
    fn a_late_join_still_needs_a_timely_placement_and_a_join() {
        // Placed in time but never joined: the worker was lost.
        let (ck, latencies) = slow_start_verdict(PodKind::Worker, Some(100), None);
        assert!(!ck.passed);
        assert!(latencies.is_empty());
        // Placed only after the deadline: the scheduler sat on it.
        assert!(
            !slow_start_verdict(PodKind::Worker, Some(100 + 1_801), Some(100 + 1_860)).0.passed
        );
        // Never placed at all, yet a worker joined late: not this pod's.
        assert!(!slow_start_verdict(PodKind::Worker, None, Some(100 + 1_860)).0.passed);
        // Only a burst's filler pod was placed: it replaces nothing.
        assert!(!slow_start_verdict(PodKind::Other, Some(100), Some(100 + 1_860)).0.passed);
    }

    #[test]
    fn each_late_join_needs_a_placed_pod_of_its_own() {
        // One node loss kills two workers; one replacement pod is placed at
        // once, the other never. Both joins are late: only one is excused.
        let events = vec![
            ev(100, 0, FaultInjected { fault: 0, kind: "NodeLoss".into(), target: 3 }.into()),
            ev(100, 1, EventKind::WorkerFailed { worker: 1 }),
            ev(100, 2, EventKind::PodRequested { job: 0, pod: 7, role: PodKind::Worker }),
            ev(100, 3, EventKind::PodPlaced { pod: 7, node: 0 }),
            ev(100, 4, EventKind::WorkerFailed { worker: 2 }),
            ev(100, 5, EventKind::PodRequested { job: 0, pod: 8, role: PodKind::Worker }),
            ev(1_960, 6, EventKind::WorkerAdded { worker: 9 }),
            ev(1_970, 7, EventKind::WorkerAdded { worker: 10 }),
        ];
        let truth = GroundTruth { completed_at: Some(SimTime::from_secs(36_000)), ..clean_truth() };
        let report = Oracle::default().check(&kill_plan(), &events, &truth);
        let ck = report.checks.iter().find(|c| c.invariant == Invariant::RecoveryDeadline).unwrap();
        assert_eq!(ck.violations.len(), 1, "{:?}", ck.violations);
        assert_eq!(report.recovery_latencies_us, vec![1_860_000_000]);
    }

    #[test]
    fn a_ps_replacement_does_not_stand_in_for_a_workers() {
        // One node loss kills a PS and a worker. The PS's replacement is
        // requested first and placed at once; the worker's is never placed,
        // and a worker joins only past the deadline. Matched by position
        // alone, the placed PS pod would excuse the late join.
        let events = vec![
            ev(100, 0, FaultInjected { fault: 0, kind: "NodeLoss".into(), target: 3 }.into()),
            ev(100, 1, EventKind::PodFailed { pod: 2 }),
            ev(100, 2, EventKind::PsReshaped { ps: 2 }),
            ev(100, 3, EventKind::PodRequested { job: 0, pod: 7, role: PodKind::ParameterServer }),
            ev(100, 4, EventKind::PodPlaced { pod: 7, node: 1 }),
            ev(100, 5, EventKind::WorkerFailed { worker: 1 }),
            ev(100, 6, EventKind::PodRequested { job: 0, pod: 8, role: PodKind::Worker }),
            ev(1_960, 7, EventKind::WorkerAdded { worker: 9 }),
        ];
        let truth = GroundTruth { completed_at: Some(SimTime::from_secs(36_000)), ..clean_truth() };
        let report = Oracle::default().check(&kill_plan(), &events, &truth);
        let ck = report.checks.iter().find(|c| c.invariant == Invariant::RecoveryDeadline).unwrap();
        assert_eq!(ck.violations.len(), 1, "{:?}", ck.violations);
        assert!(ck.violations[0].contains("no replacement worker"), "{:?}", ck.violations);
    }

    #[test]
    fn same_instant_degradation_after_the_marker_waives_the_deadline() {
        let kill = |seq| {
            ev(100, seq, FaultInjected { fault: 0, kind: "WorkerKill".into(), target: 1 }.into())
        };
        let degraded = |seq| ev(100, seq, EventKind::JobDegraded { job: 0, workers: 3, ps: 2 });
        let truth = GroundTruth { completed_at: Some(SimTime::from_secs(36_000)), ..clean_truth() };
        let deadline_check = |events: &[Event]| {
            let report = Oracle::default().check(&kill_plan(), events, &truth);
            report.checks.into_iter().find(|c| c.invariant == Invariant::RecoveryDeadline).unwrap()
        };
        // Degraded in the tick of the kill, after the marker: no
        // replacement is owed.
        let after = vec![kill(0), ev(100, 1, EventKind::WorkerFailed { worker: 1 }), degraded(2)];
        let ck = deadline_check(&after);
        assert!(ck.passed, "{:?}", ck.violations);
        // A degradation already in the log when the fault lands explains
        // nothing about it.
        let before = vec![degraded(0), kill(1), ev(100, 2, EventKind::WorkerFailed { worker: 1 })];
        assert!(!deadline_check(&before).passed);
    }

    #[test]
    fn incomplete_job_fails_bounded_slowdown() {
        let truth = GroundTruth { completed_at: None, samples_done: 400, ..clean_truth() };
        let report = Oracle::default().check(&FaultPlan::default(), &[], &truth);
        let ck = report.checks.iter().find(|c| c.invariant == Invariant::BoundedSlowdown).unwrap();
        assert!(!ck.passed);
        // Not an exactly-once violation: nothing was overcounted.
        let eo = report.checks.iter().find(|c| c.invariant == Invariant::ExactlyOnce).unwrap();
        assert!(eo.passed);
    }

    #[test]
    fn bounded_retries_pass_but_a_storm_is_flagged() {
        let bounded = vec![
            ev(100, 0, RetryAttempt { op: "replace_worker".into(), attempt: 1 }.into()),
            ev(105, 1, RetryAttempt { op: "replace_worker".into(), attempt: 2 }.into()),
            ev(115, 2, RetryExhausted { op: "replace_worker".into(), attempts: 2 }.into()),
        ];
        let report = Oracle::default().check(&FaultPlan::default(), &bounded, &clean_truth());
        assert!(report.passed(), "{:?}", report.violations());

        // A caller that bypassed the backoff policy and hammered away.
        let storm: Vec<Event> = (0..60)
            .map(|i| {
                ev(
                    100 + i,
                    i,
                    RetryAttempt { op: "scale_out".into(), attempt: i as u32 + 1 }.into(),
                )
            })
            .collect();
        let report = Oracle::default().check(&FaultPlan::default(), &storm, &clean_truth());
        let ck = report.checks.iter().find(|c| c.invariant == Invariant::NoRetryStorm).unwrap();
        assert!(!ck.passed);
        assert!(ck.violations[0].contains("scale_out"));
    }

    #[test]
    fn placement_on_a_blacklisted_node_is_flagged() {
        // Placement *before* the blacklisting is fine; after it, violation.
        let events = vec![
            ev(50, 0, EventKind::PodPlaced { pod: 1, node: 7 }),
            ev(100, 1, EventKind::NodeBlacklisted { node: 7, failures: 3 }),
            ev(150, 2, EventKind::PodPlaced { pod: 2, node: 3 }),
        ];
        let report = Oracle::default().check(&FaultPlan::default(), &events, &clean_truth());
        assert!(report.passed(), "{:?}", report.violations());

        let mut bad = events;
        bad.push(ev(200, 3, EventKind::PodPlaced { pod: 9, node: 7 }));
        let report = Oracle::default().check(&FaultPlan::default(), &bad, &clean_truth());
        let ck = report
            .checks
            .iter()
            .find(|c| c.invariant == Invariant::BlacklistEffectiveness)
            .unwrap();
        assert!(!ck.passed);
        assert!(ck.violations[0].contains("node 7"));
    }

    #[test]
    fn uncommitted_restore_is_flagged_and_committed_passes() {
        // Staged but never committed: a "remote" restore is a violation.
        let bad = vec![
            ev(
                10,
                0,
                CheckpointStaged { job: 0, manifest: 1, step: 5, bytes: 100, new_bytes: 100 }
                    .into(),
            ),
            ev(
                50,
                1,
                CheckpointRestored {
                    job: 0,
                    manifest: 1,
                    step: 5,
                    bytes: 100,
                    source: "remote".into(),
                }
                .into(),
            ),
        ];
        let (durable, bytes_ok) = Oracle::check_durability(&bad);
        assert!(!durable.passed, "restore before the commit record must be flagged");
        assert!(bytes_ok.passed, "the byte bound itself holds");

        // Commit first, restore after: legitimate.
        let good = vec![
            ev(
                10,
                0,
                CheckpointStaged { job: 0, manifest: 1, step: 5, bytes: 100, new_bytes: 100 }
                    .into(),
            ),
            ev(40, 1, CheckpointCommitted { job: 0, manifest: 1, step: 5 }.into()),
            ev(
                50,
                2,
                CheckpointRestored {
                    job: 0,
                    manifest: 1,
                    step: 5,
                    bytes: 100,
                    source: "remote".into(),
                }
                .into(),
            ),
        ];
        let (durable, bytes_ok) = Oracle::check_durability(&good);
        assert!(durable.passed, "{:?}", durable.violations);
        assert!(bytes_ok.passed);
    }

    #[test]
    fn hot_witness_and_corruption_rules() {
        // Hot restore after eviction is a violation; witness restore needs
        // a quorum record; a corrupted manifest is never restorable.
        let events = vec![
            ev(
                10,
                0,
                CheckpointStaged { job: 1, manifest: 7, step: 3, bytes: 64, new_bytes: 64 }.into(),
            ),
            ev(15, 1, EventKind::CheckpointHotEvicted { job: 1, manifest: 7 }),
            ev(
                20,
                2,
                CheckpointRestored {
                    job: 1,
                    manifest: 7,
                    step: 3,
                    bytes: 64,
                    source: "hot".into(),
                }
                .into(),
            ),
            ev(30, 3, EventKind::WitnessQuorumReached { job: 2, manifest: 9, peers: 3 }),
            ev(
                35,
                4,
                CheckpointRestored {
                    job: 2,
                    manifest: 9,
                    step: 1,
                    bytes: 10,
                    source: "witness".into(),
                }
                .into(),
            ),
            ev(40, 5, CheckpointCommitted { job: 3, manifest: 11, step: 2 }.into()),
            ev(41, 6, EventKind::ManifestCorrupted { job: 3, manifest: 11 }),
            ev(
                45,
                7,
                CheckpointRestored {
                    job: 3,
                    manifest: 11,
                    step: 2,
                    bytes: 5,
                    source: "remote".into(),
                }
                .into(),
            ),
        ];
        let (durable, _) = Oracle::check_durability(&events);
        assert!(!durable.passed);
        assert_eq!(durable.violations.len(), 2, "{:?}", durable.violations);
        assert!(durable.violations[0].contains("manifest 7"), "evicted-hot restore flagged");
        assert!(durable.violations[1].contains("manifest 11"), "corrupted restore flagged");
    }

    #[test]
    fn restore_bytes_exceeding_staged_are_flagged() {
        let events = vec![
            ev(
                10,
                0,
                CheckpointStaged { job: 0, manifest: 1, step: 5, bytes: 100, new_bytes: 40 }.into(),
            ),
            ev(20, 1, CheckpointCommitted { job: 0, manifest: 1, step: 5 }.into()),
            ev(
                30,
                2,
                CheckpointRestored {
                    job: 0,
                    manifest: 1,
                    step: 5,
                    bytes: 150,
                    source: "remote".into(),
                }
                .into(),
            ),
        ];
        let (_, bytes_ok) = Oracle::check_durability(&events);
        assert!(!bytes_ok.passed);
        assert!(bytes_ok.violations[0].contains("staged only 100"));
        // And the full check() surfaces both durability invariants.
        let report = Oracle::default().check(&FaultPlan::default(), &events, &clean_truth());
        assert_eq!(report.checks.len(), Invariant::ALL.len());
        let rb =
            report.checks.iter().find(|c| c.invariant == Invariant::RestoreBytesBounded).unwrap();
        assert!(!rb.passed);
    }

    #[test]
    fn master_crash_needs_recovery_within_deadline() {
        let crash_plan = FaultPlan::from_events(vec![FaultEvent {
            at: SimTime::from_secs(100),
            kind: FaultKind::MasterCrash { restart: SimDuration::from_secs(60) },
        }]);
        // Recovered (witness path) 90s later: latency recorded.
        let good = vec![
            ev(100, 0, FaultInjected { fault: 0, kind: "MasterCrash".into(), target: 0 }.into()),
            ev(
                190,
                1,
                JobRecovered {
                    job: 0,
                    path: "witness-quorum".into(),
                    latency_us: 90_000_000,
                    step: 4,
                }
                .into(),
            ),
        ];
        let truth = GroundTruth { completed_at: Some(SimTime::from_secs(36_000)), ..clean_truth() };
        let report = Oracle::default().check(&crash_plan, &good, &truth);
        let ck = report.checks.iter().find(|c| c.invariant == Invariant::RecoveryDeadline).unwrap();
        assert!(ck.passed, "{:?}", ck.violations);
        assert!(report.recovery_latencies_us.contains(&90_000_000));

        // No restart signal at all and the job dragged on: violation.
        let bad = vec![ev(
            100,
            0,
            FaultInjected { fault: 0, kind: "MasterCrash".into(), target: 0 }.into(),
        )];
        let report = Oracle::default().check(&crash_plan, &bad, &truth);
        let ck = report.checks.iter().find(|c| c.invariant == Invariant::RecoveryDeadline).unwrap();
        assert!(!ck.passed);
    }

    #[test]
    fn report_serializes_deterministically() {
        let report = Oracle::default().check(&kill_plan(), &[], &clean_truth());
        let a = serde_json::to_string(&report).unwrap();
        let b = serde_json::to_string(&report).unwrap();
        assert_eq!(a, b);
        let back: OracleReport = serde_json::from_str(&a).unwrap();
        assert_eq!(back, report);
    }

    fn applied(seq: u64, window: u64, samples_done: u64) -> Event {
        ev(
            10 * (seq + 1),
            seq,
            ReconfigApplied {
                job: 0,
                window,
                mode: "sync".into(),
                batch: 512,
                replicas: 1,
                shards: 2,
                samples_done,
                pause_us: 20_000_000,
            }
            .into(),
        )
    }

    #[test]
    fn reconfig_windows_resolve_exactly_once() {
        // One applied, one rolled back: clean.
        let clean = vec![
            applied(0, 0, 1_000),
            ev(
                30,
                1,
                ReconfigRolledBack {
                    job: 0,
                    window: 1,
                    reason: "master-crash".into(),
                    samples_done: 2_000,
                }
                .into(),
            ),
        ];
        assert!(Oracle::check_reconfig_consistency(&clean).passed);

        // The same window resolving twice is a violation, in any mix.
        let twice = vec![applied(0, 0, 1_000), applied(1, 0, 2_000)];
        let ck = Oracle::check_reconfig_consistency(&twice);
        assert!(!ck.passed);
        assert!(ck.violations[0].contains("resolved twice"), "{:?}", ck.violations);

        let apply_then_rollback = vec![
            applied(0, 0, 1_000),
            ev(
                30,
                1,
                ReconfigRolledBack {
                    job: 0,
                    window: 0,
                    reason: "late".into(),
                    samples_done: 1_500,
                }
                .into(),
            ),
        ];
        assert!(!Oracle::check_reconfig_consistency(&apply_then_rollback).passed);
    }

    #[test]
    fn reconfig_must_not_lose_samples() {
        let regressing = vec![applied(0, 0, 5_000), applied(1, 1, 4_000)];
        let ck = Oracle::check_reconfig_consistency(&regressing);
        assert!(!ck.passed);
        assert!(ck.violations[0].contains("lost samples"), "{:?}", ck.violations);
    }

    #[test]
    fn reconfig_layout_must_be_consistent() {
        let degenerate = vec![ev(
            10,
            0,
            ReconfigApplied {
                job: 0,
                window: 0,
                mode: "warp".into(),
                batch: 0,
                replicas: 0,
                shards: 0,
                samples_done: 0,
                pause_us: 0,
            }
            .into(),
        )];
        let ck = Oracle::check_reconfig_consistency(&degenerate);
        assert!(!ck.passed);
        assert_eq!(ck.violations.len(), 2, "{:?}", ck.violations);
        // And the full check() carries the verdict.
        let report = Oracle::default().check(&FaultPlan::default(), &degenerate, &clean_truth());
        let rc =
            report.checks.iter().find(|c| c.invariant == Invariant::ReconfigConsistent).unwrap();
        assert!(!rc.passed);
    }
}
