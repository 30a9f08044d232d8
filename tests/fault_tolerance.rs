//! Fault-tolerance integration: worker failures, preemptions, and node
//! loss must never lose or duplicate training data, and jobs must finish.

use dlrover_rm::cluster::{PodPhase, PodRole, PodSpec, Priority};
use dlrover_rm::master::{CheckpointPlane, CkptPlaneConfig, RestoreSource};
use dlrover_rm::prelude::*;
use dlrover_rm::pstrain::StorageTier;

const SLICE: SimDuration = SimDuration::from_secs(30);
const FAR: SimTime = SimTime::from_secs(3_600 * 24 * 30);

const MODEL_BYTES: u64 = 20_000_000_000;

/// A checkpoint plane for one job whose hot tier holds a whole 20 GB model.
fn one_job_plane() -> CheckpointPlane {
    CheckpointPlane::new(CkptPlaneConfig {
        hot_capacity_bytes: 2 * MODEL_BYTES,
        ..CkptPlaneConfig::default()
    })
}

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
    let mut plane = one_job_plane();
    assert!(plane.restore(0, SimTime::ZERO).is_none(), "no checkpoint yet: total loss");
    // Checkpoint every 1000 steps; crash at step 4321 with cache intact.
    for step in (0..=4_000u64).step_by(1_000) {
        plane.save(0, 0, step, step * 512, MODEL_BYTES, SimTime::from_secs(step));
    }
    let crash = SimTime::from_secs(5_000);
    let cached = plane.restore(0, crash).expect("hot copy");
    assert_eq!(cached.source, RestoreSource::Hot);
    assert!(cached.duration.as_secs_f64() < 1.0, "flash load is sub-second");
    assert_eq!(4_321 - cached.step, 321, "flash checkpoint caps the loss to one interval");
    // With the cache destroyed (node loss) we fall back to the last durable
    // RDS flush, which may be one interval older but never loses the job.
    plane.invalidate_hot(0, crash);
    let durable = plane.restore(0, crash).expect("durable copy");
    assert_eq!(durable.source, RestoreSource::Remote);
    assert!(durable.duration.as_mins_f64() > 2.0, "RDS load is slow: {}", durable.duration);
    assert!((321..=1_321).contains(&(4_321 - durable.step)));
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
    // The node hosting the flash cache dies while a checkpoint write is
    // still in flight: the cached copy is gone and the asynchronous RDS
    // flush has not landed yet, so nothing is restorable until the manifest
    // commits — at which point recovery comes from the durable tier (§6.3).
    let mut plane = one_job_plane();
    let t0 = SimTime::from_secs(1_000);
    let saved = plane.save(0, 0, 3_000, 3_000 * 512, MODEL_BYTES, t0);
    assert!(saved.hot_pause.as_secs_f64() < 1.0, "critical path is the flash write");
    plane.invalidate_hot(0, t0);
    assert!(plane.restore(0, t0).is_none(), "mid-write crash: nothing restorable yet");
    let flush = StorageTier::RDS.save_duration(saved.new_bytes);
    assert!(flush.as_mins_f64() > 3.0, "the RDS flush is asynchronous and slow");
    let margin = SimDuration::from_secs(1);
    assert!(plane.restore(0, t0 + flush - margin).is_none(), "flush still in flight");
    let restored = plane.restore(0, t0 + flush + margin).expect("durable copy lands");
    assert_eq!(restored.source, RestoreSource::Remote, "cache destroyed: restore must use RDS");
    assert!(restored.duration > SimDuration::ZERO);
    assert_eq!(3_100 - restored.step, 100);

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
