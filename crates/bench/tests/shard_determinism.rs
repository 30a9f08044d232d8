//! Property test: the shard count of the fleet core is a pure execution
//! knob (DESIGN §9). For any workload shape, seed, and chaos
//! plan, `ShardedFleet` at K ∈ {1, 2, 4, 7} shards must produce the same
//! per-cell aggregates (bitwise, via `PartialEq` *and* the order-
//! sensitive digest) and byte-identical merged telemetry as the
//! single-shard baseline.
//!
//! Cases are deliberately few: each runs up to four full fleet
//! simulations, and the unit tests inside `dlrover-cluster` already pin
//! the fixed-seed corners. What this adds is the *random* sweep over
//! workload sizes, cell counts, and generated fault plans.

use dlrover_bench::golden::fnv64;
use dlrover_cluster::{FleetAggregates, FleetScaleConfig, ShardedFleet};
use dlrover_sim::{FaultPlan, FaultPlanConfig, RngStreams};
use proptest::prelude::*;

/// One full run at `shard_count` shards: aggregates plus the telemetry
/// digest of the merged event log.
fn run(
    cfg: &FleetScaleConfig,
    plan: Option<&FaultPlan>,
    shard_count: u32,
    seed: u64,
) -> (FleetAggregates, u64, u64) {
    let mut fleet = ShardedFleet::with_chaos(cfg, shard_count, seed, plan);
    let agg = fleet.run_to_completion();
    let digest = agg.digest();
    let telemetry = fnv64(fleet.merged_telemetry().to_jsonl().as_bytes());
    (agg, digest, telemetry)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn shard_count_never_changes_fleet_results(
        cells in 1u32..5,
        training_jobs in 4usize..20,
        background_jobs in 0usize..6,
        seed in 0u64..u64::MAX,
        chaos_events in 0u32..10,
    ) {
        let cfg = FleetScaleConfig::small(cells, training_jobs, background_jobs);
        let plan = (chaos_events > 0).then(|| {
            let plan_cfg = FaultPlanConfig { events: chaos_events, ..FaultPlanConfig::default() };
            FaultPlan::generate(&plan_cfg, &RngStreams::new(seed.wrapping_add(1)), 0)
        });

        let (base_agg, base_digest, base_tel) = run(&cfg, plan.as_ref(), 1, seed);
        // The baseline itself must be internally consistent: every
        // submitted job resolves exactly once.
        let t = base_agg.totals();
        prop_assert_eq!(
            t.jobs_submitted,
            t.jobs_finished + t.jobs_failed + t.jobs_gave_up,
            "jobs leaked in the single-shard baseline"
        );

        for k in [2u32, 4, 7] {
            let (agg, digest, tel) = run(&cfg, plan.as_ref(), k, seed);
            prop_assert_eq!(&base_agg, &agg, "aggregates diverged at {} shards", k);
            prop_assert_eq!(base_digest, digest, "digest diverged at {} shards", k);
            prop_assert_eq!(base_tel, tel, "telemetry diverged at {} shards", k);
        }
    }
}
