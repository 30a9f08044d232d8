//! Integration: the complete decision pipeline of the three-stage
//! algorithm — config DB → warm start → online fit → NSGA-II candidates →
//! cluster-level weighted greedy — exercised end to end on truth-generated
//! profiles.

use dlrover_rm::brain::ReplanInput;
use dlrover_rm::optimizer::{
    hypervolume_2d, ClusterCapacity, GreedyConfig, Nsga2, Nsga2Config, NsgaPlanGenerator,
    PriceTable, ScalingOverheadModel, WarmStartConfig,
};
use dlrover_rm::prelude::*;

fn truth() -> ThroughputModel {
    ThroughputModel::new(WorkloadConstants::default(), ModelCoefficients::simulation_truth())
}

fn meta(owner: &str, samples: u64) -> JobMetadata {
    JobMetadata {
        model_kind: "dcn".into(),
        owner: owner.into(),
        num_sparse_features: 26,
        embedding_dim: 16,
        dataset_samples: samples,
        dense_params: 1_000_000,
    }
}

#[test]
fn warm_start_to_greedy_pipeline_produces_feasible_plans() {
    // 1) History: a user's past jobs converged near (12w, 5p, 8c).
    let mut db = ConfigDb::new(100);
    for w in [11u32, 12, 13] {
        db.record(
            meta("alice", 1_000_000_000),
            ResourceAllocation::new(JobShape::new(w, 5, 8.0, 8.0, 512), 32.0, 64.0),
        );
    }
    // 2) Warm start a new job.
    let warm =
        db.warm_start(&meta("alice", 1_100_000_000), &WarmStartConfig::default()).expect("history");
    assert!((11..=13).contains(&warm.shape.workers));

    // 3) Online fit from truth-generated profiles at a few shapes.
    let t = truth();
    let mut obs = Vec::new();
    for w in [4u32, 8, 12, 16] {
        for p in [2u32, 4, 8] {
            let s = JobShape::new(w, p, 8.0, 8.0, 512);
            obs.push(dlrover_rm::perfmodel::ThroughputObservation {
                shape: s,
                iter_time: t.iter_time(&s),
            });
        }
    }
    let (fitted, err) = ThroughputModel::fit(WorkloadConstants::default(), &obs).unwrap();
    assert!(err < 0.01);

    // 4) NSGA-II candidates + 5) cluster-level greedy across 3 jobs.
    let mut brain = ClusterBrain::new(
        db,
        WarmStartConfig::default(),
        GreedyConfig::default(),
        NsgaPlanGenerator::default(),
        7,
    );
    let jobs: Vec<ReplanInput> = (0..3)
        .map(|i| ReplanInput {
            job_id: i,
            current: warm,
            remaining_samples: 10_000_000 * (i + 1),
            model: fitted.clone(),
            degraded: false,
        })
        .collect();
    let capacity = ClusterCapacity { cpu_cores: 500.0, mem_gb: 4_000.0 };
    let picks = brain.replan(&jobs, capacity);
    assert!(!picks.is_empty(), "contended replanning should still serve someone");
    let mut extra = 0.0;
    for p in &picks {
        assert!(p.plan.throughput_gain > 0.0);
        assert!(
            fitted.throughput(&p.plan.allocation.shape) > fitted.throughput(&warm.shape),
            "selected plans must actually be faster"
        );
        extra += (p.plan.allocation.total_cpu() - warm.total_cpu()).max(0.0);
    }
    assert!(extra <= capacity.cpu_cores + 1e-6);
}

#[test]
fn nsga_front_on_the_real_problem_is_nondominated_and_spans() {
    // Run NSGA-II directly on the (RC, 1/TG) objective and check front
    // geometry: mutual non-domination and positive hypervolume.
    let t = truth();
    let generator = NsgaPlanGenerator {
        overhead: ScalingOverheadModel::default(),
        prices: PriceTable::default(),
        ..NsgaPlanGenerator::default()
    };
    let current = ResourceAllocation::new(JobShape::new(2, 1, 2.0, 2.0, 512), 8.0, 16.0);
    let space = generator.space;
    let thp_old = t.throughput(&current.shape);
    let eval = |g: &[f64]| {
        let alloc = space.decode(g, 512);
        let cand = generator.score(&t, &current, alloc);
        let inv = if cand.throughput_gain > 1e-9 { 1.0 / cand.throughput_gain } else { 1e9 };
        vec![cand.resource_cost, inv]
    };
    let front = Nsga2::new(
        eval,
        vec![1.0, 1.0, space.worker_cpu.0, space.ps_cpu.0],
        vec![f64::from(space.workers.1), f64::from(space.ps.1), space.worker_cpu.1, space.ps_cpu.1],
        Nsga2Config { population: 48, generations: 30 },
    )
    .run(&mut RngStreams::new(3).stream("pipeline"));

    assert!(front.len() >= 5, "front too thin: {}", front.len());
    for a in &front {
        for b in &front {
            let dominates = a.objectives[0] <= b.objectives[0]
                && a.objectives[1] <= b.objectives[1]
                && (a.objectives[0] < b.objectives[0] || a.objectives[1] < b.objectives[1]);
            assert!(!dominates || std::ptr::eq(a, b), "front member dominated");
        }
    }
    let hv = hypervolume_2d(&front, [100.0, 1.0]);
    assert!(hv > 0.0, "front must dominate some volume");
    let _ = thp_old;
}

#[test]
fn greedy_priority_flips_with_rho_sign() {
    // End-to-end confirmation of the Eqn. 14 knob through the brain:
    // positive rho serves the short job first; negative rho, the long one.
    let t = truth();
    let current = ResourceAllocation::new(JobShape::new(2, 1, 2.0, 2.0, 512), 8.0, 16.0);
    let run_with = |rho: f64| -> u64 {
        let mut brain = ClusterBrain::new(
            ConfigDb::new(10),
            WarmStartConfig::default(),
            GreedyConfig { rho },
            NsgaPlanGenerator::default(),
            7,
        );
        let jobs = vec![
            ReplanInput {
                job_id: 1,
                current,
                remaining_samples: 10_000,
                model: t.clone(),
                degraded: false,
            },
            ReplanInput {
                job_id: 2,
                current,
                remaining_samples: 10_000_000_000,
                model: t.clone(),
                degraded: false,
            },
        ];
        // Capacity for roughly one upgrade.
        let picks = brain.replan(&jobs, ClusterCapacity { cpu_cores: 40.0, mem_gb: 400.0 });
        picks.first().map(|p| p.job_id).unwrap_or(u64::MAX)
    };
    assert_eq!(run_with(2.5), 1, "positive rho must favour the short job");
    assert_eq!(run_with(-2.5), 2, "negative rho must favour the long job");
}
