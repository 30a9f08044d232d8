//! DL2-style learned scheduler — Peng et al., "DL2: A Deep Learning-driven
//! Scheduler for Deep Learning Clusters" (arXiv:1909.06040).
//!
//! DL2 trains a small policy network *online* on live cluster state: the
//! state is a fixed-width encoding of the job's current shape and progress,
//! the actions add or remove one worker or one PS, and the policy is
//! updated with REINFORCE-with-baseline at episode boundaries (DL2 §5:
//! policy gradient with a throughput-derived reward). This reproduction
//! keeps that skeleton on the workspace's own substrate:
//!
//! * the policy network is the `dlrm` crate's [`Mlp`] (ReLU hidden layer,
//!   hand-derived backprop, Adagrad) — no new dependencies;
//! * all randomness (parameter init, exploration sampling) flows through
//!   named [`RngStreams`] streams, so training runs are bit-reproducible
//!   and thread-count independent;
//! * decisions and per-episode rewards are emitted through
//!   `dlrover-telemetry` (`PolicyDecisionMade` / `PolicyRewardObserved`)
//!   so a trace alone replays the training trajectory.
//!
//! Like the other learned/heuristic baselines (ES, Optimus) and unlike
//! DLRover-RM, every applied action is a stop-and-restart transition — DL2
//! has no seamless-migration machinery, which is exactly the contrast the
//! tournament experiment measures. The rollout around the network is the
//! one [`crate::DrlPolicy`] shares (`rollout.rs`).

use dlrover_dlrm::Mlp;
use dlrover_master::{JobRuntimeProfile, PolicyDecision, SchedulerPolicy};
use dlrover_optimizer::{PlanSearchSpace, ResourceAllocation};
use dlrover_sim::{RngStreams, StreamRng};
use dlrover_telemetry::Telemetry;
use rand::RngCore;

use crate::rollout::{Rollout, ACTIONS};
use crate::LearnedPolicy;

/// Number of state features the policy network sees.
const FEATURES: usize = 8;

// Hyper-parameters, tuned for the tournament's smoke configuration (a
// handful of episodes over a 20k-step job).
/// Hidden-layer width of the policy MLP.
const HIDDEN: usize = 16;
/// Adagrad learning rate for the policy update.
const LR: f32 = 0.1;
/// Discount factor for the episode return.
const GAMMA: f64 = 0.9;
/// EMA factor for the REINFORCE baseline (0 = frozen, 1 = last return).
const BASELINE_BETA: f64 = 0.3;
/// Initial softmax exploration temperature.
const TEMPERATURE: f64 = 1.5;
/// Per-episode temperature decay (exploration annealing).
const TEMPERATURE_DECAY: f64 = 0.8;
/// Temperature floor.
const MIN_TEMPERATURE: f64 = 0.1;

/// The DL2 policy-gradient scheduler.
pub struct Dl2Policy {
    run: Rollout<[f32; FEATURES]>,
    mlp: Mlp,
    explore: StreamRng,
    temperature: f64,
    /// REINFORCE baseline: EMA of episode mean returns.
    baseline: f64,
    /// The current episode's rewarded `(features, action)` steps, in step
    /// order beside the rollout's rewards.
    steps: Vec<([f32; FEATURES], usize)>,
}

impl Dl2Policy {
    /// Creates a DL2 policy from the user's initial allocation. Parameter
    /// initialisation draws from the `"dl2-init"` stream and exploration
    /// from `"dl2-exploration"`, so two policies built from equal
    /// [`RngStreams`] behave identically.
    pub fn new(initial: ResourceAllocation, space: PlanSearchSpace, streams: &RngStreams) -> Self {
        let mlp_seed = streams.stream("dl2-init").next_u64();
        Dl2Policy {
            run: Rollout::new(initial, space),
            mlp: Mlp::new(&[FEATURES, HIDDEN, ACTIONS], mlp_seed),
            explore: streams.stream("dl2-exploration"),
            temperature: TEMPERATURE,
            baseline: 0.0,
            steps: Vec::new(),
        }
    }

    /// Attaches a telemetry sink for decision/reward events and the
    /// per-episode policy-eval span.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.run.telemetry = Some(telemetry);
        self
    }

    /// Encodes the profile + current allocation into the fixed-width state
    /// vector (DL2 §4.1's job/cluster state, reduced to the single-job
    /// setting). Every feature is scaled into roughly [0, 1].
    fn encode(&self, profile: &JobRuntimeProfile) -> [f32; FEATURES] {
        let s = &self.run.space;
        let current = &self.run.current;
        let shape = current.shape;
        let frac = |v: f64, lo: f64, hi: f64| {
            if hi > lo {
                ((v - lo) / (hi - lo)).clamp(0.0, 1.0) as f32
            } else {
                0.0
            }
        };
        let thp_per_core =
            if current.total_cpu() > 0.0 { profile.throughput / current.total_cpu() } else { 0.0 };
        // Squashed around the fixed reward scale: 0.5 at the initial
        // efficiency, approaching 1 as the policy finds better shapes.
        let scale = self.run.reward_scale;
        let thp_norm = if scale > 0.0 { thp_per_core / (thp_per_core + scale) } else { 0.0 };
        let mem_frac = if profile.ps_memory_alloc > 0 {
            profile.ps_memory_used as f64 / profile.ps_memory_alloc as f64
        } else {
            0.0
        };
        // Remaining work, squashed: x / (x + 1) over "remaining hours at
        // the current throughput" — bounded without knowing the total.
        let remaining_h = if profile.throughput > 0.0 {
            profile.remaining_samples as f64 / profile.throughput / 3_600.0
        } else {
            1.0
        };
        [
            frac(f64::from(shape.workers), f64::from(s.workers.0), f64::from(s.workers.1)),
            frac(f64::from(shape.ps), f64::from(s.ps.0), f64::from(s.ps.1)),
            frac(shape.worker_cpu, s.worker_cpu.0, s.worker_cpu.1),
            frac(shape.ps_cpu, s.ps_cpu.0, s.ps_cpu.1),
            thp_norm as f32,
            (remaining_h / (remaining_h + 1.0)) as f32,
            mem_frac.clamp(0.0, 1.0) as f32,
            1.0, // bias
        ]
    }

    /// Softmax with temperature over the policy head's logits.
    fn action_probs(&self, features: &[f32; FEATURES]) -> [f64; ACTIONS] {
        let trace = self.mlp.forward(features);
        let out = trace.output();
        let t = self.temperature.max(MIN_TEMPERATURE);
        let scaled: [f64; ACTIONS] = std::array::from_fn(|a| f64::from(out[a]) / t);
        let max = scaled.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut probs = scaled.map(|s| (s - max).exp());
        let sum: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= sum;
        }
        probs
    }

    /// Deterministic categorical draw from the exploration stream.
    fn sample(&mut self, probs: &[f64]) -> usize {
        let u = (self.explore.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let mut acc = 0.0;
        for (i, &p) in probs.iter().enumerate() {
            acc += p;
            if u < acc {
                return i;
            }
        }
        probs.len() - 1
    }
}

impl SchedulerPolicy for Dl2Policy {
    fn name(&self) -> &str {
        "dl2"
    }

    fn initial_allocation(&mut self) -> ResourceAllocation {
        self.run.restart()
    }

    fn adjust(&mut self, profile: &JobRuntimeProfile) -> Option<PolicyDecision> {
        if !self.run.live(profile) {
            return None;
        }
        // 1. The profile carries the reward for the previous action.
        if let Some((features, action, _)) = self.run.settle(profile) {
            self.steps.push((features, action));
        }
        // 2. Sample the next action from the current policy.
        let features = self.encode(profile);
        let probs = self.action_probs(&features);
        let action = self.sample(&probs);
        self.run.decide(profile, "dl2", features, action)
    }
}

impl LearnedPolicy for Dl2Policy {
    /// Computes discounted returns, updates the policy with
    /// REINFORCE-with-baseline (cross-entropy gradient scaled by the
    /// advantage, applied through the MLP's Adagrad), records the episode's
    /// mean reward, and anneals exploration.
    fn end_episode(&mut self) {
        // Discounted returns, newest step first.
        let rewards = &self.run.rewards;
        let mut returns = vec![0.0f64; rewards.len()];
        let mut g = 0.0;
        for (i, &reward) in rewards.iter().enumerate().rev() {
            g = reward + GAMMA * g;
            returns[i] = g;
        }
        let mean_return = if returns.is_empty() {
            0.0
        } else {
            returns.iter().sum::<f64>() / returns.len() as f64
        };
        if self.run.episode_rewards.is_empty() {
            self.baseline = mean_return;
        }

        if !self.steps.is_empty() {
            let mut grads = vec![0.0f32; self.mlp.param_count()];
            let scale = 1.0 / self.steps.len() as f32;
            for (&(features, action), &g) in self.steps.iter().zip(&returns) {
                let advantage = (g - self.baseline) as f32;
                let trace = self.mlp.forward(&features);
                let out = trace.output();
                // Softmax at T=1 for the update (temperature only shapes
                // exploration): d(-log pi(a|s))/d logits = p - onehot(a).
                let max = out.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let exps: Vec<f32> = out.iter().map(|&o| (o - max).exp()).collect();
                let sum: f32 = exps.iter().sum();
                let mut dlogits: Vec<f32> = exps.iter().map(|e| e / sum).collect();
                dlogits[action] -= 1.0;
                for d in &mut dlogits {
                    *d *= advantage * scale;
                }
                self.mlp.backward(&trace, &dlogits, &mut grads);
            }
            self.mlp.apply_grads(&grads, LR);
        }

        self.baseline = (1.0 - BASELINE_BETA) * self.baseline + BASELINE_BETA * mean_return;
        self.temperature = (self.temperature * TEMPERATURE_DECAY).max(MIN_TEMPERATURE);
        self.steps.clear();
        self.run.end_episode("dl2-episode");
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
        let streams = RngStreams::new(7);
        let mut p = Dl2Policy::new(start(), space(), &streams);
        for ep in 0..3 {
            let (alloc, _) = rollout(&mut p, 30, 10_000);
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
            let mut p = Dl2Policy::new(start(), space(), &streams);
            let mut finals = Vec::new();
            for _ in 0..4 {
                finals.push(rollout(&mut p, 20, 10_000).0.shape);
                p.end_episode();
            }
            (finals, p.episode_mean_rewards().to_vec(), p.mlp.params().to_vec())
        };
        let (a_finals, a_rewards, a_params) = run();
        let (b_finals, b_rewards, b_params) = run();
        assert_eq!(a_finals, b_finals);
        assert_eq!(a_rewards, b_rewards);
        assert_eq!(a_params, b_params, "policy weights must replay bit-identically");
    }

    /// Full-precision trajectory pin: seed 42, 4 episodes × 30 ticks, an
    /// FNV-1a over every decision, the episode mean-reward bits and the
    /// policy weights' bits. The tournament golden sees rewards only as
    /// `reward_x1000`, so a float-order slip in the REINFORCE update could
    /// survive there until it flipped a sampled action; it cannot here.
    #[test]
    fn trajectory_is_pinned() {
        let streams = RngStreams::new(42);
        let mut p = Dl2Policy::new(start(), space(), &streams);
        let mut trace = String::new();
        for _ in 0..4 {
            trace.push_str(&rollout(&mut p, 30, 10_000).1);
            p.end_episode();
        }
        let bits = p.episode_mean_rewards().iter().map(|r| r.to_bits());
        let weights = p.mlp.params().iter().map(|w| u64::from(w.to_bits()));
        let words: Vec<u64> = bits.chain(weights).collect();
        assert_eq!(fnv(trace.as_bytes(), &words), 0x3879_621c_e312_dadd);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let mk = |seed| {
            let streams = RngStreams::new(seed);
            let mut p = Dl2Policy::new(start(), space(), &streams);
            let mut actions = Vec::new();
            let mut alloc = p.initial_allocation();
            for i in 0..30 {
                if let Some(d) = p.adjust(&profile(&alloc, 180 * (i + 1), 1_000_000)) {
                    alloc = d.allocation;
                }
                actions.push(alloc.shape);
            }
            actions
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn rewards_improve_with_training() {
        // Against the static analytic reward surface, annealed exploration
        // plus REINFORCE must lift the mean episode reward from the first
        // episodes to the last ones.
        let streams = RngStreams::new(42);
        let mut p = Dl2Policy::new(start(), space(), &streams);
        for _ in 0..8 {
            rollout(&mut p, 40, 10_000);
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
        let mut p = Dl2Policy::new(start(), space(), &streams).with_telemetry(telemetry.clone());
        rollout(&mut p, 10, 10_000);
        p.end_episode();
        let snap = telemetry.snapshot();
        assert!(snap
            .events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::PolicyDecisionMade(d) if d.policy == "dl2")));
        assert!(snap
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::PolicyRewardObserved { episode: 0, .. })));
    }
}
