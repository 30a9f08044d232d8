//! Baseline schedulers for the comparison experiments (Figs. 7, 10, and
//! the scheduler tournament).
//!
//! All baselines implement the same [`dlrover_master::SchedulerPolicy`]
//! trait as DLRover-RM and drive the same job master + training engine, so
//! measured differences come from the *policies*, not the substrate:
//!
//! * [`StaticPolicy`] — the Kubeflow-style baseline ("w/o DLRover-RM"):
//!   whatever the user requested, never adjusted.
//! * [`WellTunedPolicy`] — the manual trial-and-error oracle the paper
//!   compares against: an exhaustive offline search over the shape grid
//!   using the *true* cost model (which a human finds by re-running the job
//!   "more than 10 times").
//! * [`EsPolicy`] — Elastic Scheduler (Or et al., MLSys'20): heuristic
//!   hill-climbing on the *worker* count only, one step at a time, with
//!   stop-and-restart transitions.
//! * [`OptimusPolicy`] — Optimus (Peng et al., EuroSys'18): fits a
//!   throughput model online and greedily adds the marginal-gain-maximising
//!   single worker or PS each interval, with stop-and-restart transitions
//!   and *no* lookup term in its model (it was designed for NLP/CV jobs —
//!   exactly the gap §2.2 calls out).
//! * [`Dl2Policy`] — DL2 (Peng et al., arXiv:1909.06040): a learned
//!   policy-gradient scheduler — a small MLP over a fixed-width cluster
//!   state, trained online with REINFORCE-with-baseline.
//! * [`DrlPolicy`] — a simpler tabular Q-learning scaler over discretized
//!   job state (per Ye et al.'s DRL resource scheduler).
//!
//! The two learned baselines additionally implement [`LearnedPolicy`]:
//! they are trained over a sequence of episodes (see
//! `dlrover_sim::EpisodeSchedule`) and expose their per-episode reward
//! curve, which the tournament experiment's shape test audits. Everything
//! but their learners is one shared rollout (the private `rollout`
//! module).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod dl2;
mod drl;
mod es;
mod optimus;
mod rollout;
mod statics;
mod well_tuned;

pub use dl2::Dl2Policy;
pub use drl::DrlPolicy;
pub use es::EsPolicy;
pub use optimus::OptimusPolicy;
pub use statics::StaticPolicy;
pub use well_tuned::{well_tuned_search, WellTunedPolicy};

/// A scheduler trained online over repeated episodes.
///
/// An episode is one full rollout of the job (clean or chaotic); between
/// rollouts the training loop calls [`LearnedPolicy::end_episode`] so the
/// policy can fold the episode's reward signal into its parameters. The
/// per-episode mean-reward curve is the tournament's learning-progress
/// evidence.
pub trait LearnedPolicy: dlrover_master::SchedulerPolicy {
    /// Ends the current training episode: apply the learning update,
    /// record the episode's mean reward, and reset per-episode state.
    fn end_episode(&mut self);

    /// Mean normalised reward of each finished episode, in episode order.
    fn episode_mean_rewards(&self) -> &[f64];
}
