//! Tabular DRL scaler — a deliberately simple deep-RL-style baseline in
//! the spirit of Ye et al.'s DRL resource scheduler (see PAPERS.md).
//!
//! Where [`crate::Dl2Policy`] carries a policy network, this scaler is the
//! classic tabular formulation: the job's state is discretized into a
//! small grid (worker/PS position inside the search space plus PS memory
//! pressure), one Q-value is kept per (state, action)
//! cell, and the table is updated online with one-step Q-learning
//! (`Q[s,a] += α (r + γ max_a' Q[s',a'] − Q[s,a])`). Exploration is
//! ε-greedy with per-episode decay, drawn from the named
//! `"drl-exploration"` [`RngStreams`] stream so every run is
//! bit-reproducible. Like DL2/ES/Optimus — and unlike DLRover-RM — every
//! applied action is a stop-and-restart transition; the rollout around the
//! table is the one DL2 shares (`rollout.rs`).

use dlrover_master::{JobRuntimeProfile, PolicyDecision, SchedulerPolicy};
use dlrover_optimizer::{PlanSearchSpace, ResourceAllocation};
use dlrover_sim::{RngStreams, StreamRng};
use dlrover_telemetry::Telemetry;
use rand::RngCore;

use crate::rollout::{Rollout, ACTIONS};
use crate::LearnedPolicy;

/// Discretization grid: worker buckets × PS buckets × memory pressure.
/// Deliberately coarse — the table must be learnable within the handful of
/// training episodes the tournament budgets (a few hundred decisions).
const WORKER_BUCKETS: usize = 4;
const PS_BUCKETS: usize = 4;
const MEM_BUCKETS: usize = 2;
const STATES: usize = WORKER_BUCKETS * PS_BUCKETS * MEM_BUCKETS;

// Hyper-parameters, tuned for the tournament's smoke configuration.
/// Q-learning step size α.
const ALPHA: f64 = 0.5;
/// Discount factor γ.
const GAMMA: f64 = 0.2;
/// Initial ε-greedy exploration rate.
const EPSILON: f64 = 0.3;
/// Per-episode ε decay.
const EPSILON_DECAY: f64 = 0.5;
/// ε floor.
const MIN_EPSILON: f64 = 0.02;
/// Optimistic initial Q-value. Untried actions look better than any
/// realistic return, so the greedy step systematically cycles through
/// them — the classic tabular cure for first-max tie-breaking locking onto
/// the noop action.
const OPTIMISM: f64 = 2.5;

/// The tabular Q-learning scaler.
pub struct DrlPolicy {
    run: Rollout<usize>,
    q: Vec<[f64; ACTIONS]>,
    explore: StreamRng,
    epsilon: f64,
}

impl DrlPolicy {
    /// Creates a DRL policy from the user's initial allocation; exploration
    /// draws from the `"drl-exploration"` stream of `streams`.
    pub fn new(initial: ResourceAllocation, space: PlanSearchSpace, streams: &RngStreams) -> Self {
        DrlPolicy {
            run: Rollout::new(initial, space),
            q: vec![[OPTIMISM; ACTIONS]; STATES],
            explore: streams.stream("drl-exploration"),
            epsilon: EPSILON,
        }
    }

    /// Attaches a telemetry sink for decision/reward events.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.run.telemetry = Some(telemetry);
        self
    }

    /// Buckets `v` over `[lo, hi]` into `0..buckets`.
    fn bucket(v: f64, lo: f64, hi: f64, buckets: usize) -> usize {
        if hi <= lo {
            return 0;
        }
        let frac = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
        ((frac * buckets as f64) as usize).min(buckets - 1)
    }

    /// Discretizes the profile + current shape into a state index.
    fn encode(&self, profile: &JobRuntimeProfile) -> usize {
        let s = &self.run.space;
        let shape = self.run.current.shape;
        let w = Self::bucket(
            f64::from(shape.workers),
            f64::from(s.workers.0),
            f64::from(s.workers.1),
            WORKER_BUCKETS,
        );
        let p = Self::bucket(f64::from(shape.ps), f64::from(s.ps.0), f64::from(s.ps.1), PS_BUCKETS);
        let mem_frac = if profile.ps_memory_alloc > 0 {
            profile.ps_memory_used as f64 / profile.ps_memory_alloc as f64
        } else {
            0.0
        };
        let m = usize::from(mem_frac > 0.7);
        (w * PS_BUCKETS + p) * MEM_BUCKETS + m
    }

    /// Deterministic argmax with first-max tie-breaking.
    fn greedy(&self, state: usize) -> usize {
        let row = &self.q[state];
        let mut best = 0usize;
        for (a, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = a;
            }
        }
        best
    }

    /// ε-greedy draw from the exploration stream. Consumes exactly one
    /// `u64` for the ε test plus one more when exploring, so the stream
    /// position is a pure function of the decision history.
    fn sample_action(&mut self, state: usize) -> usize {
        let u = (self.explore.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.epsilon {
            (self.explore.next_u64() % ACTIONS as u64) as usize
        } else {
            self.greedy(state)
        }
    }
}

impl SchedulerPolicy for DrlPolicy {
    fn name(&self) -> &str {
        "drl"
    }

    fn initial_allocation(&mut self) -> ResourceAllocation {
        self.run.restart()
    }

    fn adjust(&mut self, profile: &JobRuntimeProfile) -> Option<PolicyDecision> {
        if !self.run.live(profile) {
            return None;
        }
        let settled = self.run.settle(profile);
        let state = self.encode(profile);
        // 1. The profile carries the reward for the previous action: one
        //    step of Q-learning against the fresh state's best value.
        if let Some((prev_state, prev_action, reward)) = settled {
            let best_next = self.q[state][self.greedy(state)];
            let cell = &mut self.q[prev_state][prev_action];
            *cell += ALPHA * (reward + GAMMA * best_next - *cell);
        }
        // 2. Sample the next action ε-greedily from the updated table.
        let action = self.sample_action(state);
        self.run.decide(profile, "drl", state, action)
    }
}

impl LearnedPolicy for DrlPolicy {
    /// Records the episode's mean reward and decays ε. The Q table itself
    /// updates online at every step, so no batch update happens here.
    fn end_episode(&mut self) {
        self.epsilon = (self.epsilon * EPSILON_DECAY).max(MIN_EPSILON);
        self.run.end_episode("drl-episode");
    }

    fn episode_mean_rewards(&self) -> &[f64] {
        &self.run.episode_rewards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rollout::testing::{fnv, profile, rollout, space, start};
    use dlrover_telemetry::EventKind;

    #[test]
    fn actions_stay_inside_the_search_space() {
        let streams = RngStreams::new(11);
        let mut p = DrlPolicy::new(start(), space(), &streams);
        for ep in 0..3 {
            let (alloc, _) = rollout(&mut p, 30, 0);
            assert!((1..=8).contains(&alloc.shape.workers), "episode {ep}: {:?}", alloc.shape);
            assert!((1..=4).contains(&alloc.shape.ps), "episode {ep}: {:?}", alloc.shape);
            p.end_episode();
        }
        assert_eq!(p.episode_mean_rewards().len(), 3);
    }

    #[test]
    fn training_is_bit_reproducible() {
        let run = || {
            let streams = RngStreams::new(42);
            let mut p = DrlPolicy::new(start(), space(), &streams);
            let mut finals = Vec::new();
            for _ in 0..4 {
                finals.push(rollout(&mut p, 20, 0).0.shape);
                p.end_episode();
            }
            (finals, p.episode_mean_rewards().to_vec(), p.q.clone())
        };
        let (a_finals, a_rewards, a_q) = run();
        let (b_finals, b_rewards, b_q) = run();
        assert_eq!(a_finals, b_finals);
        assert_eq!(a_rewards, b_rewards);
        assert_eq!(a_q, b_q, "Q table must replay bit-identically");
    }

    /// Full-precision trajectory pin: seed 42, 4 episodes × 30 ticks, an
    /// FNV-1a over every decision, the episode mean-reward bits and the Q
    /// table's bits. The tournament golden sees rewards only as
    /// `reward_x1000`, so a float-order slip in the Q update could survive
    /// there until it flipped a greedy action; it cannot here.
    #[test]
    fn trajectory_is_pinned() {
        let streams = RngStreams::new(42);
        let mut p = DrlPolicy::new(start(), space(), &streams);
        let mut trace = String::new();
        for _ in 0..4 {
            trace.push_str(&rollout(&mut p, 30, 0).1);
            p.end_episode();
        }
        let bits = p.episode_mean_rewards().iter().map(|r| r.to_bits());
        let q = p.q.iter().flat_map(|row| row.iter().map(|v| v.to_bits()));
        let words: Vec<u64> = bits.chain(q).collect();
        assert_eq!(fnv(trace.as_bytes(), &words), 0xf8e4_7c82_5a92_4862);
    }

    #[test]
    fn rewards_improve_with_training() {
        let streams = RngStreams::new(42);
        let mut p = DrlPolicy::new(start(), space(), &streams);
        for _ in 0..8 {
            rollout(&mut p, 40, 0);
            p.end_episode();
        }
        let r = p.episode_mean_rewards();
        let early = (r[0] + r[1]) / 2.0;
        let late = (r[r.len() - 2] + r[r.len() - 1]) / 2.0;
        assert!(late > early, "no learning progress: early {early:.4} late {late:.4} ({r:?})");
    }

    #[test]
    fn decision_events_flow_through_telemetry() {
        let streams = RngStreams::new(3);
        let telemetry = Telemetry::default();
        let mut p = DrlPolicy::new(start(), space(), &streams).with_telemetry(telemetry.clone());
        rollout(&mut p, 10, 0);
        p.end_episode();
        let snap = telemetry.snapshot();
        assert!(snap.events.iter().any(
            |e| matches!(&e.kind, EventKind::PolicyDecisionMade { policy, .. } if policy == "drl")
        ));
        assert!(snap
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::PolicyRewardObserved { episode: 0, .. })));
    }

    #[test]
    fn greedy_exploitation_prefers_learned_actions() {
        // Seed the table by hand: in every state, action 1 (add worker)
        // dominates. With ε at zero the policy must pick it.
        let streams = RngStreams::new(5);
        let mut p = DrlPolicy::new(start(), space(), &streams);
        p.epsilon = 0.0;
        for row in &mut p.q {
            *row = [0.0; ACTIONS];
            row[1] = 1.0;
        }
        let alloc = p.initial_allocation();
        let d = p.adjust(&profile(&alloc, 180, 1_000_000)).expect("greedy add-worker must move");
        assert_eq!(d.allocation.shape.workers, alloc.shape.workers + 1);
    }
}
