//! The resilience layer: typed retry policies, failure budgets, and job
//! health outcomes for the self-healing control plane.
//!
//! DLRover-RM's production controller assumes nothing about resource
//! grants: scale-out requests are denied under contention (§5's three-stage
//! auto-scaling must cope with infeasible plans), pods are relaunched a
//! bounded number of times (Table 4's fault taxonomy), and the master
//! process itself restarts from durable state (§6). This module provides
//! the policy vocabulary for all three behaviours:
//!
//! * [`RetryPolicy`] — exponential backoff with deterministic jitter drawn
//!   from a named [`RngStreams`](dlrover_sim::RngStreams) stream, a
//!   per-operation attempt cap, and a wall deadline. Schedules are pure
//!   functions of `(policy, start, rng-state)` so replays are
//!   bit-identical.
//! * [`RetrySupervisor`] — tracks many concurrent operations against one
//!   policy, emitting [`EventKind::RetryAttempt`] /
//!   [`EventKind::RetryExhausted`] telemetry that the oracle's
//!   no-retry-storm invariant audits.
//! * [`FailureBudget`] / [`BudgetLedger`] — bounded relaunches per
//!   worker/PS; when the budget drains the job degrades (keeps training on
//!   the surviving shape) instead of retrying forever.
//! * [`JobHealth`] — the terminal outcome ladder
//!   (`Healthy → Degraded → Failed`).
//!
//! Everything here runs on virtual time ([`SimTime`]/[`SimDuration`]) —
//! there are no wall clocks and no ambient entropy.

use std::collections::BTreeMap;

use dlrover_sim::{SimDuration, SimTime, StreamRng};
use dlrover_telemetry::{EventKind, Telemetry};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Exponential-backoff retry policy with deterministic jitter.
///
/// Rate-like knobs are integer permille (`1000 = 1.0`), matching the fault
/// plan conventions, so policies are `Eq`/`Hash`-able and serialize
/// identically across platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Delay before the second attempt (the first retry).
    pub base: SimDuration,
    /// Backoff growth per retry, permille (`2000` = each wait doubles).
    pub multiplier_permille: u32,
    /// Jitter bound, permille of the computed backoff: each wait gains a
    /// uniform extra in `[0, jitter_permille/1000 × backoff)`. Zero
    /// disables jitter.
    pub jitter_permille: u32,
    /// Ceiling on any single wait (before jitter).
    pub max_backoff: SimDuration,
    /// Attempt cap, counting the initial try (`1` = never retry).
    pub max_attempts: u32,
    /// Wall deadline from the first attempt; no attempt starts after it.
    pub deadline: SimDuration,
}

impl Default for RetryPolicy {
    /// Control-plane default: 5 s base doubling to a 60 s cap, 25 %
    /// jitter, at most 6 attempts inside a 10-minute deadline — well under
    /// the oracle's 30-minute recovery deadline, so a budget-exhausted
    /// operation still leaves time to degrade gracefully.
    fn default() -> Self {
        RetryPolicy {
            base: SimDuration::from_secs(5),
            multiplier_permille: 2000,
            jitter_permille: 250,
            max_backoff: SimDuration::from_secs(60),
            max_attempts: 6,
            deadline: SimDuration::from_mins(10),
        }
    }
}

impl RetryPolicy {
    /// The wait after attempt `attempt` (1-based), jittered from `rng`.
    ///
    /// Deterministic given the rng state: the same policy and draw
    /// sequence always produce the same wait.
    pub fn backoff(&self, attempt: u32, rng: &mut StreamRng) -> SimDuration {
        let mut wait = self.base.as_micros().max(1);
        for _ in 1..attempt {
            wait = wait
                .saturating_mul(u64::from(self.multiplier_permille.max(1000)))
                .saturating_div(1000);
            if wait >= self.max_backoff.as_micros() {
                break;
            }
        }
        wait = wait.min(self.max_backoff.as_micros().max(1));
        let jitter_span = wait.saturating_mul(u64::from(self.jitter_permille)) / 1000;
        let jitter = if jitter_span == 0 { 0 } else { rng.gen_range(0..jitter_span) };
        SimDuration::from_micros(wait + jitter)
    }

    /// The full attempt schedule starting at `start`: attempt 1 fires at
    /// `start`, each later attempt after the jittered backoff. The
    /// schedule never exceeds [`Self::max_attempts`] entries and every
    /// entry is at or before `start + deadline` — the two bounds the
    /// no-retry-storm invariant enforces at runtime.
    pub fn schedule(&self, start: SimTime, rng: &mut StreamRng) -> Vec<SimTime> {
        let cutoff = start + self.deadline;
        let mut out = Vec::new();
        let mut t = start;
        for attempt in 1..=self.max_attempts {
            if t > cutoff {
                break;
            }
            out.push(t);
            t += self.backoff(attempt, rng);
        }
        out
    }
}

/// What [`RetrySupervisor::poll`] tells the caller to do with an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryDecision {
    /// Perform the operation now; carries the 1-based attempt number.
    Attempt(u32),
    /// Backoff in progress — do nothing this tick.
    Wait,
    /// Budget or deadline exhausted: stop retrying and degrade. Reported
    /// exactly once per operation (later polls return `Wait` forever).
    Exhausted,
}

#[derive(Debug, Clone)]
struct OpState {
    started: SimTime,
    attempts: u32,
    next_due: SimTime,
    gave_up: bool,
}

/// Tracks many named operations against one [`RetryPolicy`], emitting
/// retry telemetry. One supervisor per job master; operation names are
/// stable strings like `"replace_worker:3"`.
#[derive(Debug)]
pub struct RetrySupervisor {
    policy: RetryPolicy,
    rng: StreamRng,
    telemetry: Telemetry,
    ops: BTreeMap<String, OpState>,
}

impl RetrySupervisor {
    /// Creates a supervisor. `rng` must come from a named
    /// [`RngStreams`](dlrover_sim::RngStreams) stream so jitter replays
    /// deterministically.
    pub fn new(policy: RetryPolicy, rng: StreamRng, telemetry: Telemetry) -> Self {
        RetrySupervisor { policy, rng, telemetry, ops: BTreeMap::new() }
    }

    /// The governing policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Decides whether `op` should run at `now`. The first poll for an
    /// unknown operation is always `Attempt(1)`. Each `Attempt` emits a
    /// [`EventKind::RetryAttempt`]; crossing the attempt cap or deadline
    /// emits [`EventKind::RetryExhausted`] once and answers `Exhausted`.
    pub fn poll(&mut self, op: &str, now: SimTime) -> RetryDecision {
        let state = self.ops.entry(op.to_string()).or_insert(OpState {
            started: now,
            attempts: 0,
            next_due: now,
            gave_up: false,
        });
        if state.gave_up {
            return RetryDecision::Wait;
        }
        if now < state.next_due {
            return RetryDecision::Wait;
        }
        let past_deadline =
            now.saturating_since(state.started) > self.policy.deadline && state.attempts > 0;
        if state.attempts >= self.policy.max_attempts || past_deadline {
            state.gave_up = true;
            self.telemetry.record(
                now,
                EventKind::RetryExhausted { op: op.to_string(), attempts: state.attempts },
            );
            self.telemetry.count("resilience.retry_exhausted", 1);
            return RetryDecision::Exhausted;
        }
        state.attempts += 1;
        let wait = self.policy.backoff(state.attempts, &mut self.rng);
        state.next_due = now + wait;
        self.telemetry
            .record(now, EventKind::RetryAttempt { op: op.to_string(), attempt: state.attempts });
        self.telemetry.count("resilience.retry_attempts", 1);
        RetryDecision::Attempt(state.attempts)
    }

    /// Marks `op` complete: its state is dropped, so a *new* failure of
    /// the same resource starts a fresh attempt sequence.
    pub fn succeed(&mut self, op: &str) {
        self.ops.remove(op);
    }

    /// True when `op` has an unfinished attempt sequence in flight.
    pub fn in_flight(&self, op: &str) -> bool {
        self.ops.get(op).is_some_and(|s| !s.gave_up)
    }
}

/// Bounded relaunches per job: how many worker and PS replacements a job
/// may consume before further failures degrade it instead (Table 4's
/// bounded-restart discipline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FailureBudget {
    /// Worker relaunches allowed over the job's lifetime.
    pub worker_relaunches: u32,
    /// PS relaunches allowed over the job's lifetime.
    pub ps_relaunches: u32,
}

impl Default for FailureBudget {
    /// Generous defaults: a default chaos plan (6 faults) never drains
    /// them, so budget exhaustion is an explicit scenario, not ambient.
    fn default() -> Self {
        FailureBudget { worker_relaunches: 12, ps_relaunches: 8 }
    }
}

/// Running consumption against a [`FailureBudget`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BudgetLedger {
    /// Worker relaunches consumed so far.
    pub worker_used: u32,
    /// PS relaunches consumed so far.
    pub ps_used: u32,
}

impl BudgetLedger {
    /// Consumes one worker relaunch; `false` when the budget is dry (the
    /// ledger is unchanged and the caller must degrade).
    pub(crate) fn try_worker(&mut self, budget: &FailureBudget) -> bool {
        if self.worker_used >= budget.worker_relaunches {
            return false;
        }
        self.worker_used += 1;
        true
    }

    /// Consumes one PS relaunch; `false` when the budget is dry.
    pub(crate) fn try_ps(&mut self, budget: &FailureBudget) -> bool {
        if self.ps_used >= budget.ps_relaunches {
            return false;
        }
        self.ps_used += 1;
        true
    }
}

/// Terminal health ladder for a supervised job. Transitions only move
/// rightward: a degraded job never silently reports healthy again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobHealth {
    /// Running at its nominal allocation.
    #[default]
    Healthy,
    /// Running on a reduced shape after budget/retry exhaustion; still
    /// making progress (goodput retained beats fail-stop).
    Degraded,
    /// No feasible shape remains; the job is dead.
    Failed,
}

impl JobHealth {
    /// Moves the ladder toward `next`, never back.
    pub(crate) fn escalate(&mut self, next: JobHealth) {
        let rank = |h: &JobHealth| match h {
            JobHealth::Healthy => 0,
            JobHealth::Degraded => 1,
            JobHealth::Failed => 2,
        };
        if rank(&next) > rank(self) {
            *self = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrover_sim::RngStreams;

    fn policy() -> RetryPolicy {
        RetryPolicy::default()
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy { jitter_permille: 0, ..policy() };
        let mut rng = RngStreams::new(1).stream("retry");
        let waits: Vec<u64> =
            (1..=6).map(|a| p.backoff(a, &mut rng).as_micros() / 1_000_000).collect();
        assert_eq!(waits, vec![5, 10, 20, 40, 60, 60], "doubling then capped at 60 s");
    }

    #[test]
    fn schedule_is_bounded_by_attempts_and_deadline() {
        let p = policy();
        let mut rng = RngStreams::new(9).stream("retry");
        let sched = p.schedule(SimTime::from_secs(100), &mut rng);
        assert!(!sched.is_empty());
        assert!(sched.len() <= p.max_attempts as usize);
        let cutoff = SimTime::from_secs(100) + p.deadline;
        assert!(sched.iter().all(|&t| t <= cutoff));
        assert!(sched.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
    }

    #[test]
    fn supervisor_emits_attempts_then_exhausts_once() {
        let sink = Telemetry::default();
        let p = RetryPolicy { max_attempts: 3, jitter_permille: 0, ..policy() };
        let mut sup = RetrySupervisor::new(p, RngStreams::new(5).stream("retry"), sink.clone());
        let mut now = SimTime::from_secs(10);
        assert_eq!(sup.poll("op", now), RetryDecision::Attempt(1));
        assert_eq!(sup.poll("op", now), RetryDecision::Wait, "backoff gates the next try");
        for _ in 0..10 {
            now += SimDuration::from_secs(120);
            match sup.poll("op", now) {
                RetryDecision::Exhausted => break,
                RetryDecision::Attempt(_) | RetryDecision::Wait => {}
            }
        }
        assert_eq!(sink.snapshot().metrics.counter("resilience.retry_exhausted"), 1);
        // After exhaustion the supervisor stays quiet.
        now += SimDuration::from_secs(120);
        assert_eq!(sup.poll("op", now), RetryDecision::Wait);
        let events = sink.snapshot().events;
        let attempts =
            events.iter().filter(|e| matches!(e.kind, EventKind::RetryAttempt { .. })).count();
        let exhausted =
            events.iter().filter(|e| matches!(e.kind, EventKind::RetryExhausted { .. })).count();
        assert_eq!(attempts, 3);
        assert_eq!(exhausted, 1, "exhaustion reported exactly once");
    }

    #[test]
    fn supervisor_success_resets_the_sequence() {
        let sink = Telemetry::default();
        let mut sup =
            RetrySupervisor::new(policy(), RngStreams::new(5).stream("retry"), sink.clone());
        assert_eq!(sup.poll("op", SimTime::ZERO), RetryDecision::Attempt(1));
        assert!(sup.in_flight("op"));
        sup.succeed("op");
        assert!(!sup.in_flight("op"));
        // A fresh failure of the same resource restarts at attempt 1.
        assert_eq!(sup.poll("op", SimTime::from_secs(500)), RetryDecision::Attempt(1));
    }

    #[test]
    fn budget_ledger_drains_and_refuses() {
        let budget = FailureBudget { worker_relaunches: 2, ps_relaunches: 1 };
        let mut ledger = BudgetLedger::default();
        assert!(ledger.try_worker(&budget));
        assert!(ledger.try_worker(&budget));
        assert!(!ledger.try_worker(&budget), "third worker relaunch refused");
        assert_eq!(ledger.worker_used, 2, "refusal does not consume");
        assert!(ledger.try_ps(&budget));
        assert!(!ledger.try_ps(&budget));
    }

    #[test]
    fn health_ladder_is_monotone() {
        let mut h = JobHealth::Healthy;
        h.escalate(JobHealth::Degraded);
        assert_eq!(h, JobHealth::Degraded);
        h.escalate(JobHealth::Healthy);
        assert_eq!(h, JobHealth::Degraded, "never moves back");
        h.escalate(JobHealth::Failed);
        assert_eq!(h, JobHealth::Failed);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dlrover_sim::RngStreams;
    use proptest::prelude::*;

    fn arb_policy() -> impl Strategy<Value = RetryPolicy> {
        (1u64..120, 1000u32..4000, 0u32..1000, 1u64..600, 1u32..12, 10u64..3600).prop_map(
            |(base, mult, jit, cap, attempts, deadline)| RetryPolicy {
                base: SimDuration::from_secs(base),
                multiplier_permille: mult,
                jitter_permille: jit,
                max_backoff: SimDuration::from_secs(cap),
                max_attempts: attempts,
                deadline: SimDuration::from_secs(deadline),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Any schedule is bit-reproducible per seed and respects both its
        /// attempt budget and its deadline (DESIGN §7).
        #[test]
        fn schedules_are_reproducible_and_bounded(
            p in arb_policy(),
            seed in 0u64..1000,
            start_s in 0u64..10_000,
        ) {
            let start = SimTime::from_secs(start_s);
            let run = |seed: u64| {
                let mut rng = RngStreams::new(seed).stream("retry-backoff");
                p.schedule(start, &mut rng)
            };
            let a = run(seed);
            prop_assert_eq!(&a, &run(seed), "same seed, same schedule, bit for bit");
            prop_assert!(!a.is_empty(), "attempt 1 always fires");
            prop_assert!(a.len() <= p.max_attempts as usize, "attempt budget respected");
            prop_assert!(a.iter().all(|&t| t >= start && t <= start + p.deadline),
                "every attempt inside the deadline");
            prop_assert!(a.windows(2).all(|w| w[0] < w[1]), "waits strictly positive");
        }
    }
}
