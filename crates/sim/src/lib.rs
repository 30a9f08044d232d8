//! Discrete-event simulation kernel for the DLRover-RM reproduction.
//!
//! Every experiment in this workspace runs on *virtual time*: latencies such
//! as pod start-up, checkpoint writes, or training iterations are modelled as
//! durations, so a 15-hour training job simulates in milliseconds and a
//! 12-month fleet trace simulates in seconds. (The event queue that orders
//! them lives with its users: `dlrover_cluster::TimerWheel`.)
//!
//! The kernel provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a microsecond-resolution virtual clock.
//! * [`RngStreams`] / [`Sample`] — named, independently seeded random
//!   streams plus the latency/size distributions the cluster model needs
//!   (normal, log-normal, exponential, Zipf, …). Streams are derived from the
//!   experiment seed with SplitMix64 so adding a new stochastic component
//!   never perturbs the draws of an existing one.
//! * [`Cores`] / [`idle_cores`] — the process-wide count of idle cores
//!   that a real-mode round's gradients and a chaos job's reference run
//!   take their helper threads from; wall-clock only, never a result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cores;
mod distributions;
mod episode;
mod faultplan;
mod rng;
mod time;

pub use cores::{idle_cores, Cores};
pub use distributions::{Exponential, LogNormal, Normal, Pareto, Sample, Uniform, Zipf};
pub use episode::{Episode, EpisodeSchedule};
pub use faultplan::{FaultEvent, FaultKind, FaultPlan, FaultPlanConfig};
pub use rng::{splitmix64, RngStreams, StreamRng};
pub use time::{SimDuration, SimTime};
