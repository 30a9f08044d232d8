//! OOM-prevention integration (§5.3 / Table 4): a job whose embedding
//! tables outgrow the PS memory dies under a static allocation and
//! survives under DLRover-RM's predictive pre-scaling.

use dlrover_rm::prelude::*;

/// A job whose embedding memory will blow through a small PS allocation
/// well before the data is consumed.
fn growing_spec() -> TrainingJobSpec {
    let mut spec = TrainingJobSpec::paper_default(30_000);
    // 4 KB rows, 3M categories discovered quickly: several GB of growth.
    spec.memory = MemoryModel::new(1.0e9, 4096.0, 3.0e6, 2.0e6);
    spec
}

fn tight_allocation() -> ResourceAllocation {
    // 2.5 GB per PS: enough for the static part, doomed against growth.
    ResourceAllocation::new(JobShape::new(4, 2, 8.0, 8.0, 512), 32.0, 2.5)
}

#[test]
fn static_baseline_ooms() {
    let cfg = RunnerConfig {
        master: MasterConfig { auto_memory_scaling: false, ..MasterConfig::default() },
        ..RunnerConfig::default()
    };
    let report =
        run_single_job(Box::new(StaticPolicy::new(tight_allocation())), growing_spec(), &cfg);
    assert!(report.oomed, "the baseline should OOM");
    assert!(report.jct.is_none());
}

#[test]
fn dlrover_master_prevents_the_oom() {
    let cfg = RunnerConfig::default(); // auto_memory_scaling: true
    let report =
        run_single_job(Box::new(StaticPolicy::new(tight_allocation())), growing_spec(), &cfg);
    assert!(!report.oomed, "OOM prevention failed");
    assert!(report.jct.is_some(), "job should finish");
    assert!(report.scaling_count >= 1, "prevention requires at least one memory pre-scale");
}

#[test]
fn prevention_scales_memory_before_the_wall() {
    // Drive the master directly and watch for the OomPrevented event.
    let mut master = JobMaster::new(7, growing_spec(), tight_allocation(), MasterConfig::default());
    let mut prevented = false;
    for _ in 0..200_000 {
        let events = master.tick(SimDuration::from_secs(30));
        for e in &events {
            match e {
                dlrover_rm::master::MasterEvent::OomPrevented { new_alloc_bytes } => {
                    prevented = true;
                    let used: u64 = master.engine().ps_memory_used().sum();
                    assert!(*new_alloc_bytes > used, "pre-scale must land above current use");
                }
                dlrover_rm::master::MasterEvent::Oomed(_) => {
                    panic!("OOM happened despite prevention")
                }
                _ => {}
            }
        }
        if master.completed_at().is_some() {
            break;
        }
    }
    assert!(prevented, "no prevention event fired");
    assert!(master.completed_at().is_some());
}

#[test]
fn memory_predictor_sees_the_growth_from_profiles() {
    // White-box check of the §5.3 pipeline: feed the profiler the exact
    // samples the master sees and confirm the forecast fires early.
    let mut master = JobMaster::new(
        8,
        growing_spec(),
        tight_allocation(),
        MasterConfig { auto_memory_scaling: false, ..MasterConfig::default() },
    );
    let mut predicted_at = None;
    for tick in 0..200_000u64 {
        let events = master.tick(SimDuration::from_secs(30));
        if events.iter().any(|e| matches!(e, dlrover_rm::master::MasterEvent::OomPredicted { .. }))
        {
            predicted_at = Some(tick);
            break;
        }
        if events.iter().any(|e| matches!(e, dlrover_rm::master::MasterEvent::Oomed(_))) {
            break;
        }
    }
    let t = predicted_at.expect("prediction must precede the OOM");
    assert!(t > 0);
}
