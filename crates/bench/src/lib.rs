//! Experiment harness for the DLRover-RM reproduction.
//!
//! One module per table/figure of the paper's evaluation (§2 and §6); the
//! `exp` binary dispatches on the experiment id and prints the same rows /
//! series the paper plots, plus a machine-readable JSON copy under
//! `results/`. `EXPERIMENTS.md` records paper-vs-measured for each.
//!
//! ```sh
//! cargo run --release -p dlrover-bench --bin exp -- all
//! cargo run --release -p dlrover-bench --bin exp -- fig7
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod chrome;
mod critpath;
pub mod experiments;
pub mod golden;
pub mod parallel;
mod report;
pub mod sysmetrics;

pub use chrome::chrome_trace_json;
pub use critpath::{critpath_report, CritPath, CritPathReport};
pub use parallel::{merge_telemetry, run_units, Unit, UnitOutput};
pub use report::{dump_profile, results_dir, Report};
pub use sysmetrics::{events_per_sec, format_bytes, peak_rss_bytes};

#[cfg(test)]
mod fixture;
