//! What the two learned scalers share: the action vocabulary, the rollout
//! state, and the bookkeeping around each decision and each episode.
//!
//! [`crate::Dl2Policy`] and [`crate::DrlPolicy`] differ only in their
//! learner — how a profile is encoded, how an action is chosen, and how a
//! reward is learned from. Each drives one [`Rollout`] the same way:
//! [`Rollout::live`] and [`Rollout::settle`] on every profile, then its own
//! encode and choose, then [`Rollout::decide`]; its own learning update,
//! then [`Rollout::end_episode`] between episodes.

use dlrover_master::{JobRuntimeProfile, PolicyDecision};
use dlrover_optimizer::{PlanSearchSpace, ResourceAllocation};
use dlrover_pstrain::MigrationStrategy;
use dlrover_sim::SimTime;
use dlrover_telemetry::{EventKind, PolicyDecisionMade, SpanCategory, Telemetry};

/// The action vocabulary: noop, worker +1, worker −1, PS +1, PS −1, each
/// clamped to the search space.
pub(crate) const ACTIONS: usize = 5;

/// One learned scaler's rollout state; `S` is the learner's encoded state,
/// kept with the pending action until its reward arrives.
pub(crate) struct Rollout<S> {
    pub(crate) space: PlanSearchSpace,
    initial: ResourceAllocation,
    /// The allocation the job runs under.
    pub(crate) current: ResourceAllocation,
    /// Reward normaliser: the *first* observed throughput-per-core, frozen
    /// so the reward stays stationary across episodes (a running max would
    /// raise the bar as exploration finds better shapes and mask learning
    /// progress in the episode-reward curve).
    pub(crate) reward_scale: f64,
    /// The last `(state, action)`, waiting for its reward.
    pending: Option<(S, usize)>,
    /// Per-step rewards of the current episode.
    pub(crate) rewards: Vec<f64>,
    /// Mean reward of each finished episode, in episode order.
    pub(crate) episode_rewards: Vec<f64>,
    episode_span: Option<(SimTime, SimTime)>,
    pub(crate) telemetry: Option<Telemetry>,
}

impl<S> Rollout<S> {
    pub(crate) fn new(initial: ResourceAllocation, space: PlanSearchSpace) -> Self {
        Rollout {
            space,
            initial,
            current: initial,
            reward_scale: 0.0,
            pending: None,
            rewards: Vec::new(),
            episode_rewards: Vec::new(),
            episode_span: None,
            telemetry: None,
        }
    }

    /// Starts a new rollout from the user's request; learning state (the
    /// learner's parameters, the reward scale) carries over.
    pub(crate) fn restart(&mut self) -> ResourceAllocation {
        self.current = self.initial;
        self.pending = None;
        self.episode_span = None;
        self.initial
    }

    /// Extends the episode span to `profile.at`. `false` while a restart
    /// triggered by the previous action (or a fault) is still in flight:
    /// the job reports no throughput, so any reward measured now is 0
    /// whatever the action, and acting again would stack another restart
    /// on the one in progress. Both learners hold until a live measurement
    /// arrives (DL2 §4.3 assigns each action the post-adjustment speed, and
    /// Ye et al.'s scaler observes each action's outcome before the next).
    pub(crate) fn live(&mut self, profile: &JobRuntimeProfile) -> bool {
        let start = self.episode_span.map_or(profile.at, |(start, _)| start);
        self.episode_span = Some((start, profile.at));
        profile.throughput > 0.0
    }

    /// Banks the reward for the pending action from the newly observed
    /// profile — throughput per allocated core, normalised by the frozen
    /// scale (DL2 §4.2's normalised-throughput reward) — and returns it
    /// with the `(state, action)` that earned it.
    pub(crate) fn settle(&mut self, profile: &JobRuntimeProfile) -> Option<(S, usize, f64)> {
        let raw = if self.current.total_cpu() > 0.0 {
            profile.throughput / self.current.total_cpu()
        } else {
            0.0
        };
        if self.reward_scale == 0.0 && raw > 0.0 {
            self.reward_scale = raw;
        }
        let (state, action) = self.pending.take()?;
        let reward = if self.reward_scale > 0.0 { raw / self.reward_scale } else { 0.0 };
        self.rewards.push(reward);
        Some((state, action, reward))
    }

    /// Applies `action` (chosen in `state`) to the current shape, records
    /// the `PolicyDecisionMade` event, and returns the decision — `None`
    /// for a noop or an action clamped at a space boundary. Neither learner
    /// has a seamless-migration path: like ES and Optimus, every transition
    /// checkpoints and restarts.
    pub(crate) fn decide(
        &mut self,
        profile: &JobRuntimeProfile,
        policy: &'static str,
        state: S,
        action: usize,
    ) -> Option<PolicyDecision> {
        self.pending = Some((state, action));
        let mut target = self.current;
        let shape = &mut target.shape;
        match action {
            1 => shape.workers = shape.workers.saturating_add(1).min(self.space.workers.1),
            2 => shape.workers = shape.workers.saturating_sub(1).max(self.space.workers.0),
            3 => shape.ps = shape.ps.saturating_add(1).min(self.space.ps.1),
            4 => shape.ps = shape.ps.saturating_sub(1).max(self.space.ps.0),
            _ => {}
        }
        if let Some(t) = &self.telemetry {
            t.record(
                profile.at,
                PolicyDecisionMade {
                    job: profile.job_id,
                    policy: policy.into(),
                    action: action as u32,
                    workers: target.shape.workers,
                    ps: target.shape.ps,
                }
                .into(),
            );
        }
        if target.shape == self.current.shape {
            return None;
        }
        self.current = target;
        Some(PolicyDecision {
            allocation: target,
            strategy: MigrationStrategy::StopAndRestart,
            reconfig: None,
        })
    }

    /// Ends the episode after the learner's update: records its mean
    /// reward, emits the `PolicyRewardObserved` event and the `label`
    /// policy-eval span, and clears the per-episode state.
    pub(crate) fn end_episode(&mut self, label: &str) {
        // The last sampled action never observed a reward; drop it.
        self.pending = None;
        let mean_reward = if self.rewards.is_empty() {
            0.0
        } else {
            self.rewards.iter().sum::<f64>() / self.rewards.len() as f64
        };
        let episode = self.episode_rewards.len() as u32;
        self.episode_rewards.push(mean_reward);
        if let Some(t) = &self.telemetry {
            let at = self.episode_span.map_or(SimTime::ZERO, |(_, end)| end);
            t.record(
                at,
                EventKind::PolicyRewardObserved {
                    job: 0,
                    episode,
                    reward_x1000: (mean_reward * 1000.0).round() as i64,
                },
            );
            if let Some((start, end)) = self.episode_span {
                t.span_complete(
                    start,
                    end,
                    SpanCategory::PolicyEval,
                    label,
                    u64::from(episode),
                    None,
                );
            }
        }
        self.rewards.clear();
        self.episode_span = None;
    }
}

/// Test scaffolding both learners' unit tests share.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use dlrover_master::SchedulerPolicy;
    use dlrover_perfmodel::{
        JobShape, ModelCoefficients, ThroughputModel, ThroughputObservation, WorkloadConstants,
    };

    /// The profile of `alloc` at `at_s` seconds under the paper's reference
    /// coefficients.
    pub(crate) fn profile(
        alloc: &ResourceAllocation,
        at_s: u64,
        remaining: u64,
    ) -> JobRuntimeProfile {
        let t = ThroughputModel::new(
            WorkloadConstants::default(),
            ModelCoefficients::paper_reference(),
        );
        JobRuntimeProfile {
            job_id: 0,
            at: SimTime::from_secs(at_s),
            throughput: t.throughput(&alloc.shape),
            remaining_samples: remaining,
            observation: Some(ThroughputObservation {
                shape: alloc.shape,
                iter_time: t.iter_time(&alloc.shape),
            }),
            ps_memory_used: 10,
            ps_memory_alloc: 100,
            exec: dlrover_perfmodel::ExecPlan::default(),
            degraded: false,
        }
    }

    pub(crate) fn start() -> ResourceAllocation {
        ResourceAllocation::new(JobShape::new(2, 1, 4.0, 4.0, 512), 8.0, 64.0)
    }

    pub(crate) fn space() -> PlanSearchSpace {
        PlanSearchSpace { workers: (1, 8), ps: (1, 4), ..PlanSearchSpace::default() }
    }

    /// One synthetic rollout: the policy adjusts every "3 minutes" against
    /// the analytic throughput model, the remaining samples shrinking by
    /// `shrink` a tick. Returns the final allocation and every decision's
    /// `Debug` form.
    pub(crate) fn rollout(
        p: &mut impl SchedulerPolicy,
        ticks: u64,
        shrink: u64,
    ) -> (ResourceAllocation, String) {
        let mut alloc = p.initial_allocation();
        let mut trace = String::new();
        for i in 0..ticks {
            let d =
                p.adjust(&profile(&alloc, 180 * (i + 1), 1_000_000u64.saturating_sub(i * shrink)));
            trace.push_str(&format!("{d:?};"));
            if let Some(d) = d {
                assert_eq!(d.strategy, MigrationStrategy::StopAndRestart);
                alloc = d.allocation;
            }
        }
        (alloc, trace)
    }

    /// FNV-1a 64 over `bytes`, then each of `words` little-endian.
    pub(crate) fn fnv(bytes: &[u8], words: &[u64]) -> u64 {
        let tail = words.iter().flat_map(|w| w.to_le_bytes());
        bytes.iter().copied().chain(tail).fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }
}
