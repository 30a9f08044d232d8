//! Fault-tolerance integration: worker failures, preemptions, and node
//! loss must never lose or duplicate training data, and jobs must finish.

use dlrover_rm::cluster::{PodPhase, PodRole, PodSpec, Priority};
use dlrover_rm::prelude::*;

const SLICE: SimDuration = SimDuration::from_secs(30);
const FAR: SimTime = SimTime::from_secs(3_600 * 24 * 30);

fn engine(steps: u64, w: usize) -> PsTrainingEngine {
    PsTrainingEngine::new(
        TrainingJobSpec::paper_default(steps),
        vec![PodState::new(8.0); w],
        AsyncCostModel::balanced_partitions(2, 8.0),
        vec![256_000_000_000; 2],
    )
}

#[test]
fn repeated_worker_failures_preserve_exactly_once() {
    let mut e = engine(2_000, 4);
    let total = e.spec().total_samples;
    // Crash a worker every ~10 slices and immediately replace it.
    let mut victim = 0usize;
    for round in 0..200 {
        e.advance(SLICE);
        if e.is_complete() {
            break;
        }
        if round % 10 == 9 {
            e.fail_worker(victim);
            victim = e.add_worker(PodState::new(8.0));
        }
    }
    e.run_to_completion(SLICE, FAR).expect("job survives the chaos");
    assert_eq!(e.samples_done(), total, "no sample lost or duplicated");
}

#[test]
fn cluster_preemption_feeds_back_into_training() {
    // A high-priority service burst preempts training pods; the driver
    // reacts by failing those engine workers; training still completes.
    let streams = RngStreams::new(9);
    let mut cluster = Cluster::new(ClusterConfig::default(), &streams);
    let mut e = engine(1_500, 6);

    // Place six low-priority training workers in the cluster.
    let mut pod_for_worker = Vec::new();
    for i in 0..6 {
        let (pod, _) = cluster
            .request_pod(
                PodSpec {
                    resources: Resources::new(8.0, 32.0),
                    role: PodRole::Worker,
                    priority: Priority::Low,
                    job_id: 1,
                },
                SimTime::ZERO,
            )
            .expect("fits");
        pod_for_worker.push((pod, i));
    }
    e.advance(SLICE * 4);

    // Service burst: enough high-priority pods to force preemptions.
    let mut preempted_workers = Vec::new();
    for _ in 0..22 {
        let (_, events) = cluster
            .request_pod(
                PodSpec {
                    resources: Resources::new(30.0, 64.0),
                    role: PodRole::Other,
                    priority: Priority::High,
                    job_id: 99,
                },
                SimTime::from_secs(120),
            )
            .expect("fits an empty node");
        for ev in events {
            if let dlrover_rm::cluster::ClusterEvent::PodPreempted(pod) = ev {
                if let Some((_, worker)) = pod_for_worker.iter().find(|(p, _)| *p == pod) {
                    preempted_workers.push(*worker);
                }
            }
        }
    }
    assert!(!preempted_workers.is_empty(), "burst should preempt at least one training pod");
    for &w in &preempted_workers {
        e.fail_worker(w);
    }
    // The job master would re-request pods; here we just add replacements.
    for _ in &preempted_workers {
        e.add_worker(PodState::new(8.0));
    }
    e.run_to_completion(SLICE, FAR).expect("completes after preemption");
    assert_eq!(e.samples_done(), e.spec().total_samples);
}

#[test]
fn node_failure_kills_pods_and_jobs_recover() {
    let streams = RngStreams::new(10);
    let mut cluster = Cluster::new(ClusterConfig::default(), &streams);
    let (pod, ev) = cluster
        .request_pod(
            PodSpec {
                resources: Resources::new(8.0, 32.0),
                role: PodRole::ParameterServer,
                priority: Priority::Low,
                job_id: 1,
            },
            SimTime::ZERO,
        )
        .unwrap();
    let node = match ev[0] {
        dlrover_rm::cluster::ClusterEvent::PodPlaced(_, n) => n,
        _ => panic!("expected placement"),
    };
    cluster.fail_node(node);
    assert_eq!(cluster.pod(pod).unwrap().phase(), PodPhase::Failed);

    // Re-request lands on a different (healthy) node.
    let (pod2, ev2) = cluster
        .request_pod(
            PodSpec {
                resources: Resources::new(8.0, 32.0),
                role: PodRole::ParameterServer,
                priority: Priority::Low,
                job_id: 1,
            },
            SimTime::from_secs(60),
        )
        .unwrap();
    match ev2[0] {
        dlrover_rm::cluster::ClusterEvent::PodPlaced(p, n) => {
            assert_eq!(p, pod2);
            assert_ne!(n, node, "must avoid the dead node");
        }
        _ => panic!("expected placement"),
    }
}

#[test]
fn flash_checkpoint_bounds_work_lost_to_failures() {
    use dlrover_rm::pstrain::{FlashStore, RdsStore, TieredCheckpointer};
    let mut ckpt = TieredCheckpointer::new(FlashStore::default(), RdsStore::default());
    // Checkpoint every 1000 steps; crash at step 4321 with cache intact.
    for step in (0..=4_000).step_by(1_000) {
        ckpt.save(step as u64, 20_000_000_000, SimTime::from_secs(step as u64));
    }
    let lost = ckpt.lost_steps(4_321, SimTime::from_secs(5_000), true);
    assert_eq!(lost, 321, "flash checkpoint caps the loss to one interval");
    // With the cache destroyed (node loss) we fall back to the last durable
    // RDS flush, which may be one interval older but never loses the job.
    let lost_rds = ckpt.lost_steps(4_321, SimTime::from_secs(5_000), false);
    assert!(lost_rds >= 321);
    assert!(lost_rds <= 1_321);
}

#[test]
fn ps_failure_during_inflight_seamless_migration() {
    use dlrover_rm::master::MasterEvent;
    // A seamless PS widening (§6.2) is in flight — the migration pause has
    // not yet drained — when one of the parameter servers dies. The
    // flash-restore recovery path must compose with the pending migration:
    // the job keeps the new layout, completes, and loses no data.
    let spec = TrainingJobSpec::paper_default(5_000);
    let total = spec.total_samples;
    let alloc = ResourceAllocation::new(JobShape::new(4, 2, 4.0, 4.0, 512), 8.0, 64.0);
    let mut m = JobMaster::new(1, spec, alloc, MasterConfig::default());
    for _ in 0..10 {
        m.tick(SLICE);
    }
    let target = ResourceAllocation::new(JobShape::new(4, 3, 4.0, 4.0, 512), 8.0, 64.0);
    m.apply_decision(
        PolicyDecision {
            allocation: target,
            strategy: MigrationStrategy::Seamless,
            reconfig: None,
        },
        SimDuration::from_secs(45),
    );
    // The freshly added PS 2 fails while the migration pause is pending.
    m.handle_ps_failure(2, SimDuration::from_secs(30));
    let mut done = None;
    for _ in 0..400_000 {
        for ev in m.tick(SLICE) {
            if let MasterEvent::Completed(t) = ev {
                done = Some(t);
            }
        }
        if done.is_some() {
            break;
        }
    }
    assert!(done.is_some(), "job completes despite PS loss mid-migration");
    assert_eq!(m.engine().partitions().len(), 3, "migrated layout survives the failure");
    assert_eq!(m.engine().samples_done(), total, "exactly-once accounting holds");
    assert!(!m.engine().is_oomed());
}

#[test]
fn node_loss_during_flash_checkpoint_falls_back_to_durable_tier() {
    use dlrover_rm::pstrain::{FlashStore, RdsStore, TieredCheckpointer};
    // The node hosting the flash cache dies while a checkpoint write is
    // still in flight: the cached copy is gone and the asynchronous RDS
    // flush has not landed yet, so nothing is restorable until `durable_at`
    // — at which point recovery comes from the durable tier (§6.3).
    let mut tiered = TieredCheckpointer::new(FlashStore::default(), RdsStore::default());
    let t0 = SimTime::from_secs(1_000);
    tiered.save(3_000, 20_000_000_000, t0);
    let rec = tiered.latest.expect("record exists");
    assert!(tiered.load(t0, false).is_none(), "mid-write crash: nothing restorable yet");
    assert_eq!(tiered.lost_steps(3_100, t0, false), 3_100);
    let (load, from_flash) = tiered.load(rec.durable_at, false).expect("durable copy lands");
    assert!(!from_flash, "cache destroyed by node loss: restore must use RDS");
    assert!(load > SimDuration::ZERO);
    assert_eq!(tiered.lost_steps(3_100, rec.durable_at, false), 100);

    // The quiesced engine checkpoint restored onto fresh pods (a different
    // node) replays at most the in-flight shards and never skips data.
    let mut e = engine(20_000, 4);
    let total = e.spec().total_samples;
    for _ in 0..40 {
        e.advance(SLICE);
    }
    assert!(!e.is_complete());
    let before = e.samples_done();
    let ckpt = e.checkpoint();
    let mut restored = PsTrainingEngine::from_checkpoint(
        ckpt,
        vec![PodState::new(8.0); 4],
        AsyncCostModel::balanced_partitions(2, 8.0),
        vec![256_000_000_000; 2],
    );
    assert!(restored.samples_done() <= before, "restore never skips data");
    restored.run_to_completion(SLICE, FAR).expect("restored job completes");
    assert_eq!(restored.samples_done(), total, "exactly-once accounting holds");
}

#[test]
fn real_training_survives_total_worker_turnover() {
    // Every original worker is eventually replaced; the model still
    // converges and data accounting stays exact.
    let mut t = RealModeTrainer::new(RealModeConfig::small(ModelKind::Dcn, 11), 2);
    let mut round = 0u64;
    while !t.is_complete() && round < 1_000_000 {
        if round == 30 {
            t.apply(ElasticEvent::AddWorker);
            t.apply(ElasticEvent::AddWorker);
        }
        if round == 50 {
            t.apply(ElasticEvent::FailWorker(0));
            t.apply(ElasticEvent::FailWorker(1));
        }
        if t.train_round().is_none() && !t.is_complete() {
            panic!("wedged");
        }
        round += 1;
    }
    assert!(t.is_complete());
    assert_eq!(t.samples_trained(), t.config().total_samples);
    let (_, auc) = t.evaluate(60_000_000, 1_000);
    assert!(auc > 0.53, "turnover broke learning: AUC {auc}");
}
