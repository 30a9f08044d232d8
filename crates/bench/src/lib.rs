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

pub mod chrome;
pub mod critpath;
pub mod experiments;
pub mod fixture;
pub mod golden;
pub mod parallel;
pub mod report;
pub mod sysmetrics;

pub use chrome::{chrome_trace, chrome_trace_json};
pub use critpath::{critical_path, critical_path_by_track, critpath_report, CritPath};
pub use parallel::{merge_telemetry, run_units, run_units_auto, Unit, UnitOutput};
pub use report::{dump_profile, results_dir, Report};
pub use sysmetrics::{events_per_sec, format_bytes, peak_rss_bytes};
