//! Integration: PS parameter rebalancing (DeepRec-style, §4.3) and
//! job-level checkpoint/restore (§5.2) exercised through the engine.

use dlrover_rm::prelude::*;
use dlrover_rm::pstrain::{
    balance_blocks, dlrm_blocks, imbalance, partitions_from_assignment, plan_ps_migration,
    plan_rebalance, PsTrainingEngine, StorageTier,
};

const SLICE: SimDuration = SimDuration::from_secs(30);
const FAR: SimTime = SimTime::from_secs(100_000_000);
const GB: u64 = 1_000_000_000;

#[test]
fn rebalancing_skewed_tables_recovers_throughput() {
    // A DLRM's Zipf-skewed tables land badly under round-robin: one PS
    // hosts the huge head tables and runs hot. LPT rebalancing plus a
    // seamless migration restores near-balanced throughput.
    let blocks = dlrm_blocks(26, 64 * GB, 2 * GB);
    let p = 4usize;
    let pods = vec![PodState::new(8.0); p];

    // Round-robin by table id: the naive TF placement.
    let mut round_robin: Vec<Vec<u32>> = vec![Vec::new(); p];
    for b in &blocks {
        round_robin[b.id as usize % p].push(b.id);
    }
    let skewed = partitions_from_assignment(&blocks, &round_robin, &pods);

    let spec = TrainingJobSpec::paper_default(50_000);
    let mut engine =
        PsTrainingEngine::new(spec, vec![PodState::new(8.0); 8], skewed, vec![256 * GB; p]);
    let hot_thp = engine.throughput();

    // Rebalance and apply with the seamless pause.
    let plan = plan_rebalance(&blocks, &round_robin, p);
    assert!(plan.imbalance_after < plan.imbalance_before);
    let balanced = partitions_from_assignment(&blocks, &plan.assignment, &pods);
    let pause =
        plan_ps_migration(MigrationStrategy::Seamless, plan.moved_bytes, SimDuration::from_mins(5))
            .pause();
    engine.reshape_ps(balanced, vec![256 * GB; p]);
    engine.pause(pause);
    engine.advance(SLICE); // consume the pause
    let balanced_thp = engine.throughput();
    assert!(
        balanced_thp > hot_thp * 1.15,
        "rebalancing should lift throughput: {hot_thp} -> {balanced_thp}"
    );
    assert!(engine.run_to_completion(SLICE, FAR).is_some());
}

#[test]
fn rebalance_moves_less_than_full_reshard() {
    // Incremental rebalance (same server count) must not move everything.
    let blocks = dlrm_blocks(26, 64 * GB, 2 * GB);
    let old = balance_blocks(&blocks, 4);
    // Perturb: swap a mid-size table onto the wrong server.
    let mut perturbed = old.clone();
    let moved = perturbed[0].pop().expect("nonempty");
    perturbed[1].push(moved);
    let plan = plan_rebalance(&blocks, &perturbed, 4);
    let total: u64 = blocks.iter().map(|b| b.bytes).sum();
    assert!(
        plan.moved_bytes < total / 2,
        "incremental fix moved {} of {} bytes",
        plan.moved_bytes,
        total
    );
}

#[test]
fn imbalance_metric_matches_cost_model_slowdown() {
    // The rebalancer's imbalance factor and the cost model's hot-PS
    // slowdown must agree in direction: higher imbalance → lower
    // throughput under identical pods.
    let blocks = dlrm_blocks(26, 64 * GB, 2 * GB);
    let pods = vec![PodState::new(8.0); 4];
    let cost = AsyncCostModel::new(
        ModelCoefficients::simulation_truth(),
        WorkloadConstants::default(),
        512,
    );
    let workers = vec![PodState::new(8.0); 8];

    let balanced = balance_blocks(&blocks, 4);
    let mut skewed: Vec<Vec<u32>> = vec![Vec::new(); 4];
    for b in &blocks {
        skewed[if b.id < 3 { 0 } else { (b.id as usize % 3) + 1 }].push(b.id);
    }
    let thp_balanced =
        cost.throughput(&workers, &partitions_from_assignment(&blocks, &balanced, &pods));
    let thp_skewed =
        cost.throughput(&workers, &partitions_from_assignment(&blocks, &skewed, &pods));
    assert!(
        imbalance(&blocks, &skewed) > imbalance(&blocks, &balanced),
        "skewed layout must measure as less balanced"
    );
    assert!(
        thp_skewed < thp_balanced,
        "cost model must punish the skewed layout: {thp_skewed} vs {thp_balanced}"
    );
}

#[test]
fn engine_checkpoint_survives_repeated_crashes() {
    // Crash-and-restore three times mid-job; exactly-once accounting must
    // hold end to end.
    let spec = TrainingJobSpec::paper_default(2_000);
    let total = spec.total_samples;
    let mut engine = PsTrainingEngine::new(
        spec,
        vec![PodState::new(8.0); 4],
        AsyncCostModel::balanced_partitions(2, 8.0),
        vec![256 * GB; 2],
    );
    for generation in 0..3 {
        for _ in 0..3 {
            engine.advance(SLICE);
        }
        let ckpt = engine.checkpoint();
        // The new incarnation runs on a different shape each time.
        let w = 2 + generation * 2;
        engine = PsTrainingEngine::from_checkpoint(
            ckpt,
            vec![PodState::new(8.0); w],
            AsyncCostModel::balanced_partitions(2, 8.0),
            vec![256 * GB; 2],
        );
    }
    engine.run_to_completion(SLICE, FAR).expect("finishes");
    assert_eq!(engine.samples_done(), total);
}

#[test]
fn real_mode_flash_checkpoint_cycle_preserves_learning() {
    // Full real-compute cycle: train → checkpoint (flash-size accounting)
    // → crash → restore → finish, and the final model beats chance.
    let mut t = RealModeTrainer::new(RealModeConfig::small(ModelKind::WideDeep, 77), 3);
    for _ in 0..50 {
        t.train_round();
    }
    let ckpt = t.checkpoint();
    // Flash save of this checkpoint is sub-second; RDS would be minutes.
    let (flash, rds) = (StorageTier::FLASH, StorageTier::RDS);
    let bytes = ckpt.approx_bytes() as u64;
    assert!(flash.save_duration(bytes) < rds.save_duration(bytes));

    let mut restored =
        RealModeTrainer::from_checkpoint(RealModeConfig::small(ModelKind::WideDeep, 77), ckpt, 4);
    restored.train_to_completion(1_000_000);
    assert!(restored.is_complete());
    assert_eq!(restored.samples_trained(), restored.config().total_samples);
    let (_, auc) = restored.evaluate(30_000_000, 1_000);
    assert!(auc > 0.55, "AUC after crash cycle: {auc}");
}
