//! Golden digests of whole sharded-fleet runs: aggregates, resident pods,
//! the merged event bytes and the merged snapshot (events + metrics +
//! totals).
//!
//! `results/fleetscale.json` pins the merged *events* of three clean
//! fleets; counters, `dropped`, `resident_pods()` and a merge whose parts
//! exceed the merged ring were pinned by nothing. These constants were
//! recorded at PR 15's tree, *before* counted page reaping, change-gated
//! retries, the resuming first-fit, counters-from-aggregates and the
//! tail-only merge landed, so a change along `ShardedFleet` →
//! `FleetShard::run_epoch` → `PodTable` → `Telemetry::merge_ordered` that
//! moves one aggregate, one counter, one `seq` or one reaped page fails
//! here — at every shard count.
//!
//! A constant may change only with a change that means to alter simulated
//! behaviour, and `results/fleetscale.json` then changes with it. The one
//! exception so far: the `snapshot` constants were re-recorded when the
//! metrics registry lost its gauge map, which no fleet wrote, so the
//! serialized snapshot lost only its `"gauges":{},` bytes.

use dlrover_rm::cluster::{FleetScaleConfig, ShardedFleet};
use dlrover_rm::prelude::*;
use dlrover_rm::sim::{FaultEvent, FaultKind, FaultPlan};

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one fleet run pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    /// `FleetAggregates::digest`.
    aggregates: u64,
    /// `ShardedFleet::resident_pods` after the last epoch's reap.
    resident_pods: usize,
    /// FNV of `merged_telemetry().to_jsonl()`.
    jsonl: u64,
    /// FNV of the serialized `merged_telemetry().snapshot()`.
    snapshot: u64,
}

fn pin_of(fleet: &ShardedFleet) -> Pin {
    let merged = fleet.merged_telemetry();
    let snapshot = serde_json::to_string(&merged.snapshot()).expect("snapshot serializes");
    // The merge takes `&self`: a second call must see the same fleet.
    let again = serde_json::to_string(&fleet.merged_telemetry().snapshot()).unwrap();
    assert_eq!(snapshot, again, "merged_telemetry() must not mutate the fleet");
    Pin {
        aggregates: fleet.aggregates().digest(),
        resident_pods: fleet.resident_pods(),
        jsonl: fnv(merged.to_jsonl().as_bytes()),
        snapshot: fnv(snapshot.as_bytes()),
    }
}

/// Runs the fleet at K ∈ {1, 2, 3}, asserts the three agree, returns the pin.
fn run(cfg: &FleetScaleConfig, seed: u64, plan: Option<&FaultPlan>) -> (Pin, ShardedFleet) {
    let mut pinned: Option<(Pin, ShardedFleet)> = None;
    for k in [1u32, 2, 3] {
        let mut fleet = ShardedFleet::with_chaos(cfg, k, seed, plan);
        fleet.run_to_completion();
        let pin = pin_of(&fleet);
        match &pinned {
            None => pinned = Some((pin, fleet)),
            Some((first, _)) => assert_eq!(*first, pin, "K={k} diverged from K=1"),
        }
    }
    pinned.expect("three runs")
}

fn check(name: &str, got: Pin, want: Pin) {
    assert_eq!(
        got, want,
        "{name}: fleet bits moved — got Pin {{ aggregates: {:#018x}, resident_pods: {}, \
         jsonl: {:#018x}, snapshot: {:#018x} }}",
        got.aggregates, got.resident_pods, got.jsonl, got.snapshot
    );
}

fn at(secs: u64, kind: FaultKind) -> FaultEvent {
    FaultEvent { at: SimTime::from_secs(secs), kind }
}

#[test]
fn clean_fleet_is_pinned() {
    let (pin, fleet) = run(&FleetScaleConfig::small(3, 12, 4), 7, None);
    let merged = fleet.merged_telemetry();
    assert_eq!(merged.counter("fleet.jobs.submitted"), 48);
    assert_eq!(merged.counter("fleet.ckpt.stalls"), 0);
    check(
        "clean",
        pin,
        Pin {
            aggregates: 0x5f38_1aee_ab7f_86a2,
            resident_pods: 99,
            jsonl: 0x37dc_d965_4af1_a817,
            snapshot: 0xfceb_15d9_d049_3961,
        },
    );
}

/// The merge is also read mid-run (`&self`): counters must be those of the
/// aggregates at that epoch, and reading them must change nothing.
#[test]
fn mid_run_merge_is_pinned() {
    let mut fleet = ShardedFleet::new(&FleetScaleConfig::small(3, 12, 4), 2, 7);
    for _ in 0..4 {
        assert!(fleet.step(), "fleet drained before the fourth epoch");
    }
    let mid = pin_of(&fleet);
    check(
        "mid-run",
        mid,
        Pin {
            aggregates: 0x8b91_31dd_a998_34cf,
            resident_pods: 89,
            jsonl: 0x08c2_9822_bf3a_0564,
            snapshot: 0x8c91_7579_5935_54a6,
        },
    );
    fleet.run_to_completion();
    let (clean, _) = run(&FleetScaleConfig::small(3, 12, 4), 7, None);
    assert_eq!(pin_of(&fleet), clean, "reading the merge mid-run changed the run");
}

#[test]
fn chaos_fleet_is_pinned() {
    let plan = FaultPlan::from_events(vec![
        at(100, FaultKind::RemoteTierOutage { window: SimDuration::from_secs(120) }),
        at(300, FaultKind::NodeLoss { node: 4 }),
        at(420, FaultKind::NodeLoss { node: 0 }),
        at(600, FaultKind::PreemptionBurst { pods: 5 }),
        at(900, FaultKind::PreemptionBurst { pods: 40 }),
    ]);
    let (pin, fleet) = run(&FleetScaleConfig::small(3, 12, 4), 5, Some(&plan));
    let totals = fleet.aggregates().totals();
    assert!(totals.pods_preempted > 0 && totals.pod_failures > 0, "{totals:?}");
    assert_eq!(fleet.merged_telemetry().counter("fleet.ckpt.stalls"), 3);
    check(
        "chaos",
        pin,
        Pin {
            aggregates: 0xaefc_a998_95c5_e2bb,
            resident_pods: 134,
            jsonl: 0xd30e_ac1b_df67_54a4,
            snapshot: 0xf186_f8a6_478c_9058,
        },
    );
}

/// Two nodes a cell: placement mostly fails, so retries, forwarding and
/// give-ups dominate.
#[test]
fn starved_fleet_is_pinned() {
    let mut cfg = FleetScaleConfig::small(3, 20, 4);
    cfg.nodes_per_cell = 2;
    let (pin, fleet) = run(&cfg, 21, None);
    let totals = fleet.aggregates().totals();
    assert!(totals.jobs_forwarded > 0 && totals.jobs_gave_up > 0, "{totals:?}");
    check(
        "starved",
        pin,
        Pin {
            aggregates: 0xa33b_1515_f04f_82e6,
            resident_pods: 17,
            jsonl: 0x47f2_92bd_0361_0790,
            snapshot: 0xf3b6_7596_1226_f77d,
        },
    );
}

/// 25 cells whose 3 000-slot rings all wrapped: the parts retain 75 000
/// events, the merged ring 65 536 — drops carried from the parts, evictions
/// at the target and every retained `seq` are in the snapshot. Big enough
/// (~93K pods) that full pod pages are reaped, too.
#[test]
fn over_capacity_merge_is_pinned() {
    let mut cfg = FleetScaleConfig::for_target_pods(100_000);
    cfg.telemetry_capacity = 3_000;
    let (pin, fleet) = run(&cfg, 42, None);
    let snap = fleet.merged_telemetry().snapshot();
    assert_eq!(snap.events.len(), 65_536, "the merged ring is full");
    assert!(snap.dropped_events > 75_000 - 65_536, "parts dropped too: {}", snap.dropped_events);
    assert!(
        (pin.resident_pods as u64) < fleet.aggregates().totals().pods_created,
        "full pages must have been reaped"
    );
    check(
        "over-capacity",
        pin,
        Pin {
            aggregates: 0xfcb1_8b3e_d162_a0f4,
            resident_pods: 16486,
            jsonl: 0x8173_2ce4_80f8_38e9,
            snapshot: 0xaddc_a7c0_65b7_b761,
        },
    );
}
