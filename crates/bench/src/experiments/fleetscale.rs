//! Fleet-scale replay: the production fleet of Figs. 3/14/15 and Table 4
//! at paper-production scale, driven by the sharded simulation core.
//!
//! The paper's production deployment (§7, Table 4) manages thousands of
//! recommendation jobs per day across clusters that turn over on the
//! order of a million pods. This experiment replays that fleet shape —
//! cells of nodes, mixed training/service workloads, organic pod churn,
//! cross-cell forwarding under pressure — through
//! [`dlrover_cluster::ShardedFleet`] and sweeps the *execution* knobs the
//! results must not depend on:
//!
//! * **pod scale** ramps through 10K → 100K → 1M pods (cells added at a
//!   fixed ~4K pods/cell, mirroring production sub-clusters);
//! * **shard count** sweeps {1, 2, 4, 8}; every count must produce the
//!   same [`FleetAggregates`] digest and merged-telemetry bytes, which
//!   this module verifies on every run (`cross_shard_identical`).
//!
//! Determinism (aggregates, digests, totals) goes to
//! `results/fleetscale.json`; wall-clock (pod-events/sec per shard count,
//! peak RSS) is printed in the stdout table and written nowhere, keeping
//! the results artefact byte-reproducible per seed.
//!
//! This module is *not* in the golden-trace registry: its artefact is the
//! aggregate digest itself (asserted identical across shard counts every
//! run), not an event trace.

use dlrover_cluster::{FleetAggregates, FleetScaleConfig, FleetShard, FleetTotals, ShardedFleet};
use dlrover_telemetry::Telemetry;

use crate::golden::fnv64;
use crate::parallel::{run_units_auto, Unit};
use crate::report::Report;
use crate::sysmetrics::{format_bytes, peak_rss_bytes};

/// Runs `fleet` to completion, dispatching each epoch's shards over the
/// parallel unit pool. Unit keys are the shards' zero-padded first-cell
/// ids, so the pool's key-sorted outputs hand the shards back in the
/// ascending order [`ShardedFleet::finish_epoch`] requires at any thread
/// count. Returns the number of epochs executed.
pub fn run_pooled(fleet: &mut ShardedFleet) -> u64 {
    let mut epochs = 0u64;
    while let Some((bound, shards)) = fleet.begin_epoch() {
        epochs += 1;
        let units: Vec<Unit<'_, FleetShard>> = shards
            .into_iter()
            .map(|mut s| {
                Unit::new(format!("{:06}", s.id()), move |_: &Telemetry| {
                    s.run_epoch(bound);
                    s
                })
            })
            .collect();
        let outputs = run_units_auto(units);
        fleet.finish_epoch(outputs.into_iter().map(|o| o.value).collect());
    }
    epochs
}

/// One (target, shard count) execution: deterministic outcome plus the
/// wall-clock rates the stdout table prints. The `*_per_sec` fields never
/// enter `results/fleetscale.json` — only
/// [`TargetSweep::deterministic_json`] is serialized there.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Shard count this execution used.
    pub shards: usize,
    /// Epoch barriers executed.
    pub epochs: u64,
    /// [`FleetAggregates::digest`] — must match every other shard count.
    pub aggregate_digest: String,
    /// FNV-1a 64 of the merged telemetry event log.
    pub telemetry_fnv: String,
    /// Pod lifecycle transitions processed per wall-clock second.
    pub pod_events_per_sec: f64,
    /// Wheel events processed per wall-clock second.
    pub wheel_events_per_sec: f64,
}

/// The full sweep at one pod target: canonical aggregates (from the
/// single-shard run) plus every shard count's digest.
#[derive(Debug, Clone)]
pub struct TargetSweep {
    /// Pod target this fleet was sized for.
    pub target_pods: u64,
    /// Cells the fleet was partitioned into.
    pub cells: u32,
    /// Pods the generated workload creates if every job admits.
    pub planned_pods: u64,
    /// Fleet-wide rollup (identical for every shard count).
    pub totals: FleetTotals,
    /// One entry per shard count, ascending.
    pub runs: Vec<ShardRun>,
    /// Whether every shard count produced identical digests.
    pub cross_shard_identical: bool,
}

impl TargetSweep {
    /// The seed-reproducible slice of the sweep: everything except
    /// wall-clock. This is what `results/fleetscale.json` carries, so the
    /// artefact is byte-identical run-to-run at a fixed seed.
    pub fn deterministic_json(&self) -> serde_json::Value {
        let runs: Vec<serde_json::Value> = self
            .runs
            .iter()
            .map(|r| {
                serde_json::json!({
                    "shards": r.shards,
                    "epochs": r.epochs,
                    "aggregate_digest": r.aggregate_digest,
                    "telemetry_fnv": r.telemetry_fnv,
                })
            })
            .collect();
        serde_json::json!({
            "target_pods": self.target_pods,
            "cells": self.cells,
            "planned_pods": self.planned_pods,
            "totals": self.totals,
            "runs": runs,
            "cross_shard_identical": self.cross_shard_identical,
        })
    }
}

/// Measures one execution of the `cfg` fleet at `shard_count` shards.
fn measure(cfg: &FleetScaleConfig, shard_count: u32, seed: u64) -> (ShardRun, FleetAggregates) {
    let mut fleet = ShardedFleet::new(cfg, shard_count, seed);
    let shards = fleet.shard_count();
    let started = std::time::Instant::now();
    let epochs = run_pooled(&mut fleet);
    let wall_s = started.elapsed().as_secs_f64().max(1e-9);
    let agg = fleet.aggregates();
    let totals = agg.totals();
    let telemetry_fnv = fnv64(fleet.merged_telemetry().to_jsonl().as_bytes());
    let run = ShardRun {
        shards,
        epochs,
        aggregate_digest: format!("{:#018x}", agg.digest()),
        telemetry_fnv: format!("{telemetry_fnv:#018x}"),
        pod_events_per_sec: totals.pod_events as f64 / wall_s,
        wheel_events_per_sec: totals.wheel_events as f64 / wall_s,
    };
    (run, agg)
}

/// Sweeps `shard_counts` over a fleet sized for `target_pods` and checks
/// that every count lands on identical aggregates and telemetry.
pub fn sweep_target(target_pods: u64, shard_counts: &[u32], seed: u64) -> TargetSweep {
    let cfg = FleetScaleConfig::for_target_pods(target_pods);
    sweep_config(&cfg, target_pods, shard_counts, seed)
}

/// [`sweep_target`] over an explicit config (tests use small fleets).
/// Shard counts above the cell count clamp to it, and a fleet is run once
/// per *effective* count: `[1, 2, 4, 8]` on three cells is `[1, 2, 3]`.
pub fn sweep_config(
    cfg: &FleetScaleConfig,
    target_pods: u64,
    shard_counts: &[u32],
    seed: u64,
) -> TargetSweep {
    let mut runs = Vec::new();
    let mut canonical: Option<FleetAggregates> = None;
    let mut identical = true;
    let mut effective: Vec<u32> = Vec::new();
    for k in shard_counts.iter().map(|k| (*k).clamp(1, cfg.cells)) {
        if !effective.contains(&k) {
            effective.push(k);
        }
    }
    for k in effective {
        let (run, agg) = measure(cfg, k, seed);
        match &canonical {
            None => canonical = Some(agg),
            Some(base) => identical &= *base == agg,
        }
        runs.push(run);
    }
    identical &= runs.windows(2).all(|w| {
        w[0].aggregate_digest == w[1].aggregate_digest && w[0].telemetry_fnv == w[1].telemetry_fnv
    });
    let canonical = canonical.expect("at least one shard count");
    let (planned, cells) = {
        let fleet = ShardedFleet::new(cfg, 1, seed);
        (fleet.planned_pods(), fleet.cell_count())
    };
    TargetSweep {
        target_pods,
        cells,
        planned_pods: planned,
        totals: canonical.totals(),
        runs,
        cross_shard_identical: identical,
    }
}

/// Runs the full sweep and renders the report (the `exp fleetscale`
/// entry point). Prints the paper's production-fleet rows (Table 4 /
/// Fig. 3 context), writes `results/fleetscale.json` (deterministic
/// content only), and returns whether every target was
/// shard-count-identical so the CLI can exit non-zero on a mismatch.
pub fn run_sweep(seed: u64, targets: &[u64], shard_counts: &[u32]) -> bool {
    let mut report = Report::new(
        "fleetscale",
        "production fleet replay at 10K-1M pods (Table 4 / Fig. 3 context)",
    );
    report.line(format!(
        "paper §7: thousands of jobs/day, ~57.2% fewer runtime failures after \
         rollout (Table 4); pod pending p50 minutes-scale (Fig. 3); seed {seed}"
    ));

    let mut sweeps = Vec::new();
    for &target in targets {
        let sweep = sweep_target(target, shard_counts, seed);
        report.section(&format!(
            "{} pods target: {} cells, {} planned pods",
            target, sweep.cells, sweep.planned_pods
        ));
        let t = &sweep.totals;
        report.line(format!(
            "jobs: {} submitted, {} finished, {} failed, {} gave up, {} forwarded",
            t.jobs_submitted, t.jobs_finished, t.jobs_failed, t.jobs_gave_up, t.jobs_forwarded
        ));
        report.line(format!(
            "pods: {} created, {} organic failures, {} preempted; makespan {:.1}h",
            t.pods_created,
            t.pod_failures,
            t.pods_preempted,
            t.makespan_secs / 3600.0
        ));
        report.line(format!(
            "mean admission wait {:.1}s, mean completion {:.1}h",
            t.mean_wait_secs,
            t.mean_completion_secs / 3600.0
        ));
        let widths = [7usize, 8, 20, 16, 16];
        report.row(
            &["shards", "epochs", "digest", "pod-events/s", "wheel-events/s"].map(str::to_string),
            &widths,
        );
        for run in &sweep.runs {
            report.row(
                &[
                    run.shards.to_string(),
                    run.epochs.to_string(),
                    run.aggregate_digest.clone(),
                    format!("{:.0}", run.pod_events_per_sec),
                    format!("{:.0}", run.wheel_events_per_sec),
                ],
                &widths,
            );
        }
        report.line(format!(
            "cross-shard identical: {}",
            if sweep.cross_shard_identical { "yes" } else { "NO — DIVERGED" }
        ));
        sweeps.push(sweep);
    }
    if let Some(rss) = peak_rss_bytes() {
        report.line(format!("peak RSS {}", format_bytes(rss)));
    }

    let all_identical = sweeps.iter().all(|s| s.cross_shard_identical);
    let det: Vec<serde_json::Value> = sweeps.iter().map(TargetSweep::deterministic_json).collect();
    report.record("seed", &seed);
    report.record("shard_counts", &shard_counts);
    report.record("targets", &det);
    report.record("cross_shard_identical", &all_identical);
    report.finish();
    all_identical
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetScaleConfig {
        FleetScaleConfig::small(3, 10, 3)
    }

    /// The pooled epoch driver is the serial `run_to_completion` loop with
    /// the shard-to-pool hop in between: results must be identical.
    #[test]
    fn pooled_driver_matches_serial() {
        let cfg = tiny();
        let mut serial = ShardedFleet::new(&cfg, 3, 11);
        let serial_agg = serial.run_to_completion();
        let mut pooled = ShardedFleet::new(&cfg, 3, 11);
        let epochs = run_pooled(&mut pooled);
        assert!(epochs > 0);
        assert_eq!(serial_agg, pooled.aggregates());
        assert_eq!(
            fnv64(serial.merged_telemetry().to_jsonl().as_bytes()),
            fnv64(pooled.merged_telemetry().to_jsonl().as_bytes()),
        );
    }

    /// Headline shape: the sweep declares cross-shard identity and every
    /// job resolves (submitted = finished + failed + gave up).
    #[test]
    fn sweep_is_cross_shard_identical_and_complete() {
        let sweep = sweep_config(&tiny(), 200, &[1, 2, 4, 7], 5);
        assert!(sweep.cross_shard_identical, "digests diverged across shard counts");
        let counts: Vec<usize> = sweep.runs.iter().map(|r| r.shards).collect();
        assert_eq!(counts, [1, 2, 3], "4 and 7 both clamp to the 3 cells and run once");
        let t = &sweep.totals;
        assert_eq!(t.jobs_submitted, t.jobs_finished + t.jobs_failed + t.jobs_gave_up);
        assert!(t.pod_events >= t.pods_created, "every pod logs at least its creation");
    }

    /// Same seed ⇒ byte-identical serialized sweep (the determinism
    /// acceptance gate at unit scale).
    #[test]
    fn sweep_serialization_is_reproducible() {
        let a = sweep_config(&tiny(), 200, &[1, 2], 9);
        let b = sweep_config(&tiny(), 200, &[1, 2], 9);
        let render = |s: &TargetSweep| s.deterministic_json().to_string();
        assert_eq!(render(&a), render(&b));
    }
}
