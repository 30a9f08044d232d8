//! Ablations over DLRover-RM's design choices (DESIGN.md §4):
//!
//! * flash-checkpoint vs RDS checkpoint latency across model sizes;
//! * shard size vs straggler staleness (smaller shards keep the slow
//!   worker's gradients fresh);
//! * ρ sweep in the weighted-greedy priority (who wins contention);
//! * NSGA-II plan quality vs a plain grid search at equal evaluation
//!   budget.
//!
//! Execution: one unit per ablation section. Each section already owned
//! its own RNG stream (or none), so the decomposition is natural: the
//! NSGA-vs-random section stays a single unit because the random search
//! deliberately continues drawing from the same stream the NSGA run used.

use dlrover_optimizer::{
    priority_weight, GreedyConfig, NsgaPlanGenerator, PlanSearchSpace, ResourceAllocation,
    ScalingAlgorithm,
};
use dlrover_perfmodel::{JobShape, ModelCoefficients, ThroughputModel, WorkloadConstants};
use dlrover_pstrain::{AsyncCostModel, PodState, ShardQueue, ShardingConfig, StorageTier};
use dlrover_sim::{RngStreams, SimTime};
use dlrover_telemetry::Telemetry;

use crate::parallel::{merge_telemetry, run_units_auto, Unit};
use crate::report::Report;

/// One ablation section's result rows (plus the NSGA section's scalars).
enum Section {
    /// Structured rows for a tabular section.
    Rows(Vec<serde_json::Value>),
    /// NSGA-II vs random search at equal budget.
    Nsga { nsga_re: f64, random_re: f64, budget: usize },
}

fn checkpoint_section() -> Section {
    let (rds, flash) = (StorageTier::RDS, StorageTier::FLASH);
    let mut rows = Vec::new();
    for gb in [1u64, 5, 20, 100] {
        let bytes = gb * 1_000_000_000;
        rows.push(serde_json::json!({
            "gb": gb,
            "rds_s": rds.save_duration(bytes).as_secs_f64(),
            "flash_s": flash.save_duration(bytes).as_secs_f64(),
        }));
    }
    Section::Rows(rows)
}

fn shard_staleness_section() -> Section {
    // Gradient staleness of a straggler is bounded by the time it holds one
    // shard: a 10x-slow worker with a `B`-batch shard submits gradients
    // computed against parameters that are ~10·B global batches old. With
    // pace-aware checkout (DLRover), the shard shrinks and the age is
    // capped regardless of the nominal shard size.
    let slow_factor = 10.0;
    let mut rows = Vec::new();
    for batches in [512u32, 256, 128, 64, 16] {
        let cfg = ShardingConfig {
            batches_per_shard: batches,
            batch_size: 512,
            min_batches_per_shard: 4,
        };
        // No pacing: the straggler receives a full-size shard.
        let mut q1 = ShardQueue::new(50_000_000, cfg);
        let unpaced = q1.checkout(2, 1.0, SimTime::ZERO).expect("data");
        let age_unpaced = (unpaced.len as f64 / 512.0) * slow_factor;
        // With pacing: checkout shrinks the shard to the straggler's pace.
        let mut q2 = ShardQueue::new(50_000_000, cfg);
        let paced = q2.checkout(2, 1.0 / slow_factor, SimTime::ZERO).expect("data");
        let age_paced = (paced.len as f64 / 512.0) * slow_factor;
        rows.push(serde_json::json!({
            "batches": batches, "age_unpaced": age_unpaced, "age_paced": age_paced,
        }));
    }
    Section::Rows(rows)
}

fn shard_jct_section(telemetry: &Telemetry) -> Section {
    // The staleness table above is analytic; this one actually runs the
    // engine: a straggler under dynamic sharding finishes at nearly the
    // same JCT regardless of shard size, because pacing and work-stealing
    // absorb the slow pod.
    let mut rows = Vec::new();
    for batches in [512u32, 128, 32] {
        use dlrover_pstrain::{PsTrainingEngine, TrainingJobSpec};
        let mut spec = TrainingJobSpec::paper_default(20_000);
        spec.sharding.batches_per_shard = batches;
        let mut e = PsTrainingEngine::new(
            spec,
            vec![PodState::new(8.0); 8],
            AsyncCostModel::balanced_partitions(4, 8.0),
            vec![u64::MAX / 2; 4],
        );
        e.set_telemetry(telemetry.clone());
        e.set_worker_pod(0, PodState { cpu: 8.0, speed: 0.03 });
        let end = e
            .run_to_completion(dlrover_sim::SimDuration::from_secs(30), dlrover_sim::SimTime::MAX)
            .expect("finishes");
        let jct = end.saturating_since(dlrover_sim::SimTime::ZERO).as_mins_f64();
        rows.push(serde_json::json!({ "batches": batches, "jct_min": jct }));
    }
    Section::Rows(rows)
}

fn rho_section() -> Section {
    let mut rows = Vec::new();
    for rho in [-2.5, -1.0, 0.0, 1.0, 2.5, 5.0] {
        let cfg = GreedyConfig { rho };
        let short = priority_weight(1.0e6, 1_000.0, &cfg);
        let long = priority_weight(1.0e9, 1_000.0, &cfg);
        rows.push(serde_json::json!({ "rho": rho, "short_over_long": short / long }));
    }
    Section::Rows(rows)
}

fn nsga_section(
    seed: u64,
    truth: &ThroughputModel,
    current: ResourceAllocation,
    space: PlanSearchSpace,
) -> Section {
    let generator = NsgaPlanGenerator::default();
    let budget = generator.nsga.population * (generator.nsga.generations + 1);
    let mut rng = RngStreams::new(seed).stream("ablation-nsga");
    let plans = generator.candidates(truth, &current, &mut rng);
    let nsga_re = plans.iter().map(|p| p.resource_efficiency()).fold(0.0f64, f64::max);

    // Random search with the same number of evaluations, continuing on the
    // same stream (an intentional single sequential lineage).
    use rand::Rng;
    let mut random_re = 0.0f64;
    for _ in 0..budget {
        let genome = [
            rng.gen_range(f64::from(space.workers.0)..=f64::from(space.workers.1)),
            rng.gen_range(f64::from(space.ps.0)..=f64::from(space.ps.1)),
            rng.gen_range(space.worker_cpu.0..=space.worker_cpu.1),
            rng.gen_range(space.ps_cpu.0..=space.ps_cpu.1),
        ];
        let alloc = space.decode(&genome, 512);
        let cand = generator.score(truth, &current, alloc);
        if cand.throughput_gain > 0.0 {
            random_re = random_re.max(cand.resource_efficiency());
        }
    }
    Section::Nsga { nsga_re, random_re, budget }
}

fn hypervolume_section(
    seed: u64,
    truth: &ThroughputModel,
    current: ResourceAllocation,
    space: PlanSearchSpace,
) -> Section {
    use dlrover_optimizer::{hypervolume_2d, Nsga2, Nsga2Config};
    let generator = NsgaPlanGenerator::default();
    // The actual planning problem: minimise (RC, 1/TG) from the tiny
    // current allocation.
    let eval = |genome: &[f64]| {
        let alloc = space.decode(genome, 512);
        let cand = generator.score(truth, &current, alloc);
        let inv_gain = if cand.throughput_gain > 1e-9 { 1.0 / cand.throughput_gain } else { 1e9 };
        vec![cand.resource_cost, inv_gain]
    };
    let (lower, upper) = (
        vec![1.0, 1.0, space.worker_cpu.0, space.ps_cpu.0],
        vec![f64::from(space.workers.1), f64::from(space.ps.1), space.worker_cpu.1, space.ps_cpu.1],
    );
    let reference = [100.0, 1.0]; // worse than any sensible plan
    let mut rows = Vec::new();
    for gens in [1usize, 5, 15, 40] {
        let front = Nsga2::new(
            eval,
            lower.clone(),
            upper.clone(),
            Nsga2Config { population: 48, generations: gens },
        )
        .run(&mut RngStreams::new(seed).stream("ablation-hv"));
        let hv = hypervolume_2d(&front, reference);
        rows.push(serde_json::json!({ "generations": gens, "hypervolume": hv }));
    }
    Section::Rows(rows)
}

fn hot_ps_section(constants: WorkloadConstants) -> Section {
    let cost = AsyncCostModel::new(ModelCoefficients::simulation_truth(), constants, 512);
    let workers = vec![PodState::new(8.0); 8];
    let mut rows = Vec::new();
    for speed in [1.0, 0.5, 0.25, 0.1, 0.03] {
        let mut parts = AsyncCostModel::balanced_partitions(4, 8.0);
        parts[0].pod.speed = speed;
        let thp = cost.throughput(&workers, &parts);
        rows.push(serde_json::json!({ "speed": speed, "throughput": thp }));
    }
    Section::Rows(rows)
}

/// Runs all ablations.
pub fn run(seed: u64) -> String {
    let mut r = Report::new("ablations", "design-choice ablations");
    let constants = WorkloadConstants::default();
    let truth = ThroughputModel::new(constants, ModelCoefficients::simulation_truth());
    let current = ResourceAllocation::new(JobShape::new(2, 1, 2.0, 2.0, 512), 8.0, 16.0);
    let space = PlanSearchSpace::default();

    let truth_ref = &truth;
    let units = vec![
        Unit::new("0/checkpoint".to_string(), move |_t| checkpoint_section()),
        Unit::new("1/shard-staleness".to_string(), move |_t| shard_staleness_section()),
        Unit::new("2/shard-jct".to_string(), move |t: &Telemetry| shard_jct_section(t)),
        Unit::new("3/rho".to_string(), move |_t| rho_section()),
        Unit::new("4/nsga-vs-random".to_string(), move |_t| {
            nsga_section(seed, truth_ref, current, space)
        }),
        Unit::new("5/hypervolume".to_string(), move |_t| {
            hypervolume_section(seed, truth_ref, current, space)
        }),
        Unit::new("6/hot-ps-sweep".to_string(), move |_t| hot_ps_section(constants)),
    ];
    let outputs = run_units_auto(units);
    let rows_of = |i: usize| match &outputs[i].value {
        Section::Rows(rows) => rows,
        Section::Nsga { .. } => unreachable!("unit {i} is a tabular section"),
    };

    // --- flash vs RDS checkpointing ---------------------------------------
    r.section("flash-checkpoint vs RDS (save latency, seconds)");
    r.row(&["model size".into(), "rds".into(), "flash".into(), "speedup".into()], &[12, 9, 9, 9]);
    let ckpt_rows = rows_of(0);
    for row in ckpt_rows {
        let (r_s, f_s) = (row["rds_s"].as_f64().unwrap(), row["flash_s"].as_f64().unwrap());
        r.row(
            &[
                format!("{} GB", row["gb"]),
                format!("{r_s:.1}"),
                format!("{f_s:.2}"),
                format!("{:.0}x", r_s / f_s),
            ],
            &[12, 9, 9, 9],
        );
    }
    r.record("checkpoint", ckpt_rows);

    // --- shard size vs straggler staleness --------------------------------
    r.section("shard size vs straggler gradient staleness (age in global batches)");
    r.row(&["batches/shard".into(), "no pacing".into(), "with pacing".into()], &[14, 12, 12]);
    let shard_rows = rows_of(1);
    for row in shard_rows {
        r.row(
            &[
                format!("{}", row["batches"]),
                format!("{:.0}", row["age_unpaced"].as_f64().unwrap()),
                format!("{:.0}", row["age_paced"].as_f64().unwrap()),
            ],
            &[14, 12, 12],
        );
    }
    r.line("smaller shards bound staleness; pacing caps it even for large shards");
    r.record("shard_staleness", shard_rows);

    // --- shard size vs straggler JCT (end-to-end, through the engine) ------
    r.section("shard size vs JCT with one straggler (engine, minutes)");
    r.row(&["batches/shard".into(), "JCT (min)".into()], &[14, 10]);
    let jct_rows = rows_of(2);
    for row in jct_rows {
        r.row(
            &[format!("{}", row["batches"]), format!("{:.1}", row["jct_min"].as_f64().unwrap())],
            &[14, 10],
        );
    }
    r.line("dynamic sharding makes JCT insensitive to shard size even with a straggler");
    r.record("shard_jct", jct_rows);

    // --- rho sweep ----------------------------------------------------------
    r.section("priority exponent rho: short-job vs long-job preference");
    r.row(&["rho".into(), "WG(short)/WG(long)".into()], &[8, 20]);
    let rho_rows = rows_of(3);
    for row in rho_rows {
        r.row(
            &[
                format!("{}", row["rho"]),
                format!("{:.3}", row["short_over_long"].as_f64().unwrap()),
            ],
            &[8, 20],
        );
    }
    r.line("rho=2.5 (the AntGroup setting) strongly favours finishing short jobs first");
    r.record("rho", rho_rows);

    // --- NSGA-II vs grid search at equal budget ----------------------------
    r.section("NSGA-II vs random grid at equal evaluation budget");
    let (best_nsga, best_random, budget) = match outputs[4].value {
        Section::Nsga { nsga_re, random_re, budget } => (nsga_re, random_re, budget),
        Section::Rows(_) => unreachable!("unit 4 is the NSGA section"),
    };
    r.row(&["method".into(), "best RE".into()], &[12, 10]);
    r.row(&["nsga-ii".into(), format!("{best_nsga:.1}")], &[12, 10]);
    r.row(&["random".into(), format!("{best_random:.1}")], &[12, 10]);
    r.record("nsga_re", &best_nsga);
    r.record("random_re", &best_random);
    r.line(format!("(both with {budget} evaluations)"));

    // --- NSGA-II convergence: hypervolume across generations ----------------
    r.section("NSGA-II front quality (hypervolume) vs generations");
    r.row(&["generations".into(), "hypervolume".into()], &[12, 14]);
    let hv_rows = rows_of(5);
    for row in hv_rows {
        r.row(
            &[
                format!("{}", row["generations"]),
                format!("{:.2}", row["hypervolume"].as_f64().unwrap()),
            ],
            &[12, 14],
        );
    }
    r.record("hypervolume", hv_rows);

    // --- async cost model: hot PS sensitivity -------------------------------
    r.section("hot-PS severity sweep (throughput vs PS speed)");
    r.row(&["ps speed".into(), "throughput (samples/s)".into()], &[9, 22]);
    let hot_rows = rows_of(6);
    for row in hot_rows {
        r.row(
            &[format!("{}", row["speed"]), format!("{:.0}", row["throughput"].as_f64().unwrap())],
            &[9, 22],
        );
    }
    r.record("hot_ps_sweep", hot_rows);

    r.telemetry(&merge_telemetry(&outputs));
    r.finish()
}

#[cfg(test)]
mod tests {
    #[test]
    fn ablations_produce_expected_directions() {
        let json = &crate::fixture::canonical("ablations").json;
        // Flash beats RDS by orders of magnitude at 20 GB.
        let ckpt = json["checkpoint"].as_array().unwrap();
        let twenty = ckpt.iter().find(|c| c["gb"] == 20).unwrap();
        assert!(twenty["rds_s"].as_f64().unwrap() > 100.0 * twenty["flash_s"].as_f64().unwrap());
        // Smaller shards reduce unpaced staleness monotonically, and pacing
        // never exceeds the unpaced age.
        let shards = json["shard_staleness"].as_array().unwrap();
        let unpaced: Vec<f64> = shards.iter().map(|s| s["age_unpaced"].as_f64().unwrap()).collect();
        assert!(unpaced.windows(2).all(|w| w[1] <= w[0] + 1e-9), "{unpaced:?}");
        for s in shards {
            assert!(s["age_paced"].as_f64().unwrap() <= s["age_unpaced"].as_f64().unwrap() + 1e-9);
        }
        // rho > 0 prefers short jobs, rho < 0 prefers long jobs.
        let rho = json["rho"].as_array().unwrap();
        let at = |v: f64| {
            rho.iter().find(|r| (r["rho"].as_f64().unwrap() - v).abs() < 1e-9).unwrap()
                ["short_over_long"]
                .as_f64()
                .unwrap()
        };
        assert!(at(2.5) > 1.0);
        assert!(at(-2.5) < 1.0);
        assert!((at(0.0) - 1.0).abs() < 1e-9);
        // NSGA-II matches or beats random search.
        assert!(json["nsga_re"].as_f64().unwrap() >= 0.8 * json["random_re"].as_f64().unwrap());
        // Hypervolume is non-decreasing with generations (within noise of
        // the independent runs).
        let hv = json["hypervolume"].as_array().unwrap();
        let first = hv[0]["hypervolume"].as_f64().unwrap();
        let last = hv.last().unwrap()["hypervolume"].as_f64().unwrap();
        assert!(last >= first * 0.95, "front quality regressed: {first} -> {last}");
        // Hot PS throughput decays monotonically with PS speed.
        let hot = json["hot_ps_sweep"].as_array().unwrap();
        let thps: Vec<f64> = hot.iter().map(|h| h["throughput"].as_f64().unwrap()).collect();
        assert!(thps.windows(2).all(|w| w[1] <= w[0]));
    }
}
