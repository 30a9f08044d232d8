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
//! * [`RngStreams`] / [`distributions`] — named, independently seeded random
//!   streams plus the latency/size distributions the cluster model needs
//!   (normal, log-normal, exponential, Zipf, …). Streams are derived from the
//!   experiment seed with SplitMix64 so adding a new stochastic component
//!   never perturbs the draws of an existing one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributions;
pub mod episode;
pub mod faultplan;
pub mod rng;
pub mod time;

pub use distributions::{Bernoulli, Exponential, LogNormal, Normal, Pareto, Sample, Uniform, Zipf};
pub use episode::{Episode, EpisodeSchedule};
pub use faultplan::{FaultEvent, FaultKind, FaultPlan, FaultPlanConfig};
pub use rng::{splitmix64, RngStreams, StreamRng};
pub use time::{SimDuration, SimTime};
