//! `exp perf`: the tracked perf trajectory of the harness itself.
//!
//! ROADMAP open item 1 turned `BENCH_parallel.json` into a before/after
//! record of the parallel engine; this module generalizes that into one
//! fixed wall-clock workload per hot area, each writing a
//! `BENCH_<area>.json` at the workspace root:
//!
//! | area             | workload                                   | headline            |
//! |------------------|--------------------------------------------|---------------------|
//! | `costmodel`      | fixed sweep of `AsyncCostModel::throughput`| `evals_per_sec`     |
//! | `nsga2`          | ZDT1, pop 128 × 400 generations            | `gens_per_sec`      |
//! | `telemetry-merge`| 64 unit sinks × (events + spans) merged    | `items_per_sec`     |
//! | `parallel`       | `exp all` at 1 thread vs the pool          | `speedup`           |
//! | `fleetscale`     | sharded fleet sweep to `--max-pods`        | `pod_events_per_sec`|
//! | `ckptplane`      | 20k dedup'd saves + restores, 32 jobs      | `saves_per_sec`     |
//! | `realtrain`      | one Fig. 8 elastic SGD leg per model family| `samples_per_sec`   |
//!
//! Every artefact keeps the prior run's headline numbers under
//! `previous` (the PR 6 format), so the trajectory is legible from the
//! file alone. `--check` reruns the workloads *without* touching the
//! checked-in artefacts and fails on regressions beyond the tolerance
//! band (default 2×) — the CI perf-smoke gate.
//!
//! Measurement discipline: headline numbers are taken with profiling
//! *off* (the profiler's own overhead must not pollute the trajectory);
//! a second, profiled pass of the same workload then attributes the time
//! (`telemetry::prof`), landing as a `prof` block in the artefact and a
//! flamegraph-compatible folded file under `results/prof/`. Wall-clock
//! never enters `results/<id>.json` or the golden traces — the
//! `prof_determinism` integration test enforces that.

use std::path::{Path, PathBuf};

use dlrover_dlrm::model::{CtrModel, DlrmModel, ModelKind};
use dlrover_dlrm::{auc, logloss, Gradients, SyntheticCriteo};
use dlrover_optimizer::{
    Nsga2, Nsga2Config, NsgaPlanGenerator, ReconfigSpace, ResourceAllocation, ScalingAlgorithm,
};
use dlrover_perfmodel::{JobShape, ModelCoefficients, ThroughputModel, WorkloadConstants};
use dlrover_pstrain::cost::{AsyncCostModel, PodState};
use dlrover_pstrain::RealModeConfig;
use dlrover_sim::{RngStreams, SimTime};
use dlrover_telemetry::{prof, EventKind, SpanCategory, Telemetry};

use crate::experiments::fleetscale;
use crate::golden::fnv64;
use crate::results_dir;
use crate::sysmetrics::peak_rss_bytes;

/// Every perf area, in the order `exp perf` runs them.
pub const AREAS: [&str; 8] = [
    "costmodel",
    "nsga2",
    "reconfig",
    "telemetry-merge",
    "parallel",
    "fleetscale",
    "ckptplane",
    "realtrain",
];

/// Options shared by every area (parsed from the `exp perf` CLI).
#[derive(Debug, Clone)]
pub struct PerfOpts {
    /// Seed for the deterministic workloads.
    pub seed: u64,
    /// Pool width for the `parallel` area's wide leg.
    pub threads: usize,
    /// Largest fleet target the `fleetscale` area sweeps to.
    pub max_pods: u64,
    /// Compare against checked-in baselines instead of refreshing them.
    pub check: bool,
    /// Allowed regression factor in `--check` (2.0 = fail beyond 2×).
    pub tolerance: f64,
}

impl Default for PerfOpts {
    fn default() -> Self {
        PerfOpts { seed: 42, threads: 2, max_pods: 1_000_000, check: false, tolerance: 2.0 }
    }
}

/// One area's measurements, ready to write or check.
struct AreaOutcome {
    /// `BENCH_<stem>.json` file stem (dashes become underscores).
    stem: String,
    /// The headline metric's JSON key.
    headline_key: &'static str,
    /// The headline value of this run.
    headline: f64,
    /// Whether larger headline values are better.
    higher_is_better: bool,
    /// Headline keys carried into `previous` on refresh.
    previous_keys: &'static [&'static str],
    /// The artefact body (without `previous`).
    body: serde_json::Value,
    /// Folded-stack profile text (empty when the area has none).
    folded: String,
}

/// Wall-clock of one closure, profiling forced off so the measurement is
/// clean.
fn measured<T>(f: impl FnOnce() -> T) -> (T, f64) {
    prof::set_enabled(false);
    let started = std::time::Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Reruns a closure with profiling on and returns the drained profile.
fn profiled<T>(f: impl FnOnce() -> T) -> (T, prof::Profile) {
    prof::reset();
    prof::set_enabled(true);
    let out = f();
    prof::set_enabled(false);
    (out, prof::take_profile())
}

/// Renders a profile as the artefact's `prof` block: per-path calls,
/// total/self milliseconds, and throughput counters, path-ordered.
fn prof_block(profile: &prof::Profile) -> serde_json::Value {
    let sites: serde_json::Map<String, serde_json::Value> = profile
        .sites
        .iter()
        .map(|(path, s)| {
            (
                path.clone(),
                serde_json::json!({
                    "calls": s.calls,
                    "total_ms": s.total_ns as f64 / 1e6,
                    "self_ms": s.self_ns as f64 / 1e6,
                    "items": s.items,
                    "bytes": s.bytes,
                }),
            )
        })
        .collect();
    serde_json::Value::Object(sites)
}

/// The workspace root (where `BENCH_*.json` live).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

// ---------------------------------------------------------------------
// Area workloads. Each is a fixed, deterministic amount of work: the
// wall-clock varies with the machine, the work never does.
// ---------------------------------------------------------------------

/// Fixed cost-model workload: rounds × (3 worker sets × 2 PS layouts)
/// throughput evaluations. Returns the accumulated throughput as a
/// live-output guard (and determinism witness).
fn costmodel_workload() -> (u64, f64) {
    const ROUNDS: u64 = 50_000;
    let model = AsyncCostModel::new(
        ModelCoefficients::simulation_truth(),
        WorkloadConstants { model_size: 120.0, bandwidth: 1_000.0, embedding_dim: 0.65 },
        512,
    );
    let worker_sets: Vec<Vec<PodState>> = [8usize, 16, 32]
        .into_iter()
        .map(|n| {
            (0..n)
                .map(|i| {
                    let mut w = PodState::new(4.0 + (i % 5) as f64);
                    if i % 11 == 0 {
                        w.speed = 0.5; // a mild straggler per set
                    }
                    w
                })
                .collect()
        })
        .collect();
    let layouts = [
        AsyncCostModel::balanced_partitions(8, 8.0),
        AsyncCostModel::skewed_partitions(8, 8.0, 0.4),
    ];
    let mut acc = 0.0f64;
    let mut evals = 0u64;
    for _ in 0..ROUNDS {
        for ws in &worker_sets {
            for ps in &layouts {
                acc += model.throughput(ws, ps);
                evals += 1;
            }
        }
    }
    (evals, std::hint::black_box(acc))
}

fn costmodel_area() -> AreaOutcome {
    let ((evals, acc), wall_s) = measured(costmodel_workload);
    let (_, profile) = profiled(costmodel_workload);
    let evals_per_sec = evals as f64 / wall_s.max(1e-9);
    AreaOutcome {
        stem: "costmodel".into(),
        headline_key: "evals_per_sec",
        headline: evals_per_sec,
        higher_is_better: true,
        previous_keys: &["evals_per_sec", "wall_s"],
        body: serde_json::json!({
            "experiment": "perf-costmodel",
            "description": "fixed AsyncCostModel::throughput sweep (Eqns. 2-6 evaluation hot path)",
            "evals": evals,
            "wall_s": wall_s,
            "evals_per_sec": evals_per_sec,
            "throughput_acc": acc,
            "prof": prof_block(&profile),
        }),
        folded: profile.folded(),
    }
}

/// Fixed NSGA-II workload: ZDT1 (10 vars, 2 objectives), population 128,
/// 400 generations, seeded rng. Returns the front size.
fn nsga2_workload(seed: u64) -> usize {
    const POP: usize = 128;
    const GENS: usize = 400;
    let zdt1 = |g: &[f64]| {
        let f1 = g[0];
        let gsum = 1.0 + 9.0 * g[1..].iter().sum::<f64>() / (g.len() - 1) as f64;
        vec![f1, gsum * (1.0 - (f1 / gsum).sqrt())]
    };
    let opt = Nsga2::new(
        zdt1,
        vec![0.0; 10],
        vec![1.0; 10],
        Nsga2Config { population: POP, generations: GENS, ..Default::default() },
    );
    let mut rng = RngStreams::new(seed).stream("nsga2-perf");
    opt.run(&mut rng).len()
}

fn nsga2_area(seed: u64) -> AreaOutcome {
    const GENS: u64 = 400;
    let (front, wall_s) = measured(|| nsga2_workload(seed));
    let (_, profile) = profiled(|| nsga2_workload(seed));
    let gens_per_sec = GENS as f64 / wall_s.max(1e-9);
    AreaOutcome {
        stem: "nsga2".into(),
        headline_key: "gens_per_sec",
        headline: gens_per_sec,
        higher_is_better: true,
        previous_keys: &["gens_per_sec", "wall_s"],
        body: serde_json::json!({
            "experiment": "perf-nsga2",
            "description": "ZDT1 at population 128 x 400 generations (plan-generation hot path, Eqns. 11-14)",
            "population": 128,
            "generations": GENS,
            "front_size": front,
            "wall_s": wall_s,
            "gens_per_sec": gens_per_sec,
            "prof": prof_block(&profile),
        }),
        folded: profile.folded(),
    }
}

/// Fixed widened plan-generation workload: full NSGA-II searches over the
/// 5-gene resource + execution-plan genome (the PR-10 action space —
/// [`ReconfigSpace::default`] appends the plan index to the 4 resource
/// genes), each candidate priced by the plan-aware throughput model.
/// Returns (candidates produced, throughput accumulator) as a live-output
/// guard and determinism witness.
fn reconfig_workload(seed: u64) -> (u64, f64) {
    const ROUNDS: u64 = 24;
    let model = ThroughputModel::new(
        WorkloadConstants { model_size: 120.0, bandwidth: 1_000.0, embedding_dim: 0.65 },
        ModelCoefficients::simulation_truth(),
    );
    let generator = NsgaPlanGenerator {
        reconfig: Some(ReconfigSpace::default()),
        ..NsgaPlanGenerator::default()
    };
    let current = ResourceAllocation::new(JobShape::new(4, 2, 4.0, 4.0, 512), 8.0, 64.0);
    let mut rng = RngStreams::new(seed).stream("reconfig-perf");
    let mut plans = 0u64;
    let mut acc = 0.0f64;
    for _ in 0..ROUNDS {
        let candidates = generator.candidates(&model, &current, &mut rng);
        plans += candidates.len() as u64;
        acc += candidates.iter().map(|c| c.predicted_throughput).sum::<f64>();
    }
    (plans, std::hint::black_box(acc))
}

fn reconfig_area(seed: u64) -> AreaOutcome {
    let ((plans, acc), wall_s) = measured(|| reconfig_workload(seed));
    let (_, profile) = profiled(|| reconfig_workload(seed));
    let plans_per_sec = plans as f64 / wall_s.max(1e-9);
    AreaOutcome {
        stem: "reconfig".into(),
        headline_key: "plans_per_sec",
        headline: plans_per_sec,
        higher_is_better: true,
        previous_keys: &["plans_per_sec", "wall_s"],
        body: serde_json::json!({
            "experiment": "perf-reconfig",
            "description": "NSGA-II over the widened resource + execution-plan genome (24 searches, plan-aware pricing)",
            "searches": 24,
            "plans": plans,
            "wall_s": wall_s,
            "plans_per_sec": plans_per_sec,
            "throughput_acc": acc,
            "prof": prof_block(&profile),
        }),
        folded: profile.folded(),
    }
}

/// Builds the fixed unit-sink corpus for the merge workload: 64 sinks,
/// each with 4000 events and 1200 spans (600 parent/child pairs).
fn merge_corpus() -> Vec<Telemetry> {
    (0..64u64)
        .map(|u| {
            let t = Telemetry::default();
            t.reserve_events(4_000);
            for i in 0..4_000u64 {
                t.record(
                    SimTime::from_micros(u * 1_000_000 + i),
                    EventKind::WorkerAdded { worker: i },
                );
            }
            for i in 0..600u64 {
                let at = SimTime::from_micros(u * 1_000_000 + i * 10);
                let p = t.span_open(at, SpanCategory::Iteration, "slice", u, None);
                t.span_complete(
                    at,
                    SimTime::from_micros(at.as_micros() + 5),
                    SpanCategory::IterLookup,
                    "lookup",
                    u,
                    Some(p),
                );
                t.span_close(SimTime::from_micros(at.as_micros() + 9), p);
            }
            t.count("units", 1);
            t.observe("iter_s", 0.25 + (u % 7) as f64 * 0.05);
            t
        })
        .collect()
}

/// Merges the corpus once and returns an FNV digest of the merged logs
/// (a determinism witness across optimisation passes of the merge path).
fn merge_once(parts: &[Telemetry]) -> u64 {
    let merged = Telemetry::merge_ordered(parts.iter());
    fnv64(merged.to_jsonl().as_bytes()) ^ fnv64(merged.spans_to_jsonl().as_bytes())
}

fn telemetry_merge_area() -> AreaOutcome {
    const ROUNDS: u64 = 8;
    // Corpus construction is untimed: the workload under test is the
    // merge (absorb) path alone.
    let parts = merge_corpus();
    let items_per_round: u64 = 64 * (4_000 + 1_200);
    let (digest, wall_s) = measured(|| {
        let mut d = 0u64;
        for _ in 0..ROUNDS {
            d = merge_once(&parts);
        }
        d
    });
    let (_, profile) = profiled(|| merge_once(&parts));
    let items = ROUNDS * items_per_round;
    let items_per_sec = items as f64 / wall_s.max(1e-9);
    AreaOutcome {
        stem: "telemetry_merge".into(),
        headline_key: "items_per_sec",
        headline: items_per_sec,
        higher_is_better: true,
        previous_keys: &["items_per_sec", "wall_s"],
        body: serde_json::json!({
            "experiment": "perf-telemetry-merge",
            "description": "Telemetry::merge_ordered over 64 unit sinks (events + spans), the parallel engine's reduction step",
            "rounds": ROUNDS,
            "sinks": 64,
            "items_per_round": items_per_round,
            "items": items,
            "wall_s": wall_s,
            "items_per_sec": items_per_sec,
            "merged_fnv": format!("{digest:#018x}"),
            "prof": prof_block(&profile),
        }),
        folded: profile.folded(),
    }
}

/// The `parallel` area: wall-clock of `exp all` at 1 thread vs the pool,
/// with a byte-diff of the two result trees (shared by `exp
/// bench-parallel` and `exp perf parallel`).
pub struct ParallelBench {
    /// Seconds for the 1-thread leg.
    pub serial_s: f64,
    /// Seconds for the pool leg.
    pub parallel_s: f64,
    /// `serial_s / parallel_s`.
    pub speedup: f64,
    /// Pool width of the wide leg.
    pub threads: usize,
    /// Result files compared between the legs.
    pub files_compared: usize,
}

/// Digests every regular file under `dir` (non-recursive) into a
/// name-sorted `(file name, length, FNV-1a 64)` list, so two result
/// trees compare digest-to-digest without holding both in memory.
fn snapshot_dir(dir: &Path) -> Vec<(String, u64, u64)> {
    let mut files: Vec<(String, u64, u64)> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.path().is_file())
                .map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    let body = std::fs::read(e.path()).unwrap_or_default();
                    (name, body.len() as u64, fnv64(&body))
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files
}

/// Runs `exp all` twice in child processes — once at one thread, once at
/// `threads` — against scratch results directories, byte-diffs the two
/// output sets, and returns honest wall-clock numbers. `Err` carries a
/// human-readable reason (spawn failure or a determinism mismatch — the
/// latter must fail the caller, bench numbers for diverging runs are
/// meaningless).
pub fn run_parallel_bench(threads: usize) -> Result<ParallelBench, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate exp binary: {e}"))?;
    let base = std::env::temp_dir().join(format!("dlrover-bench-parallel-{}", std::process::id()));
    let run_leg = |label: &str, dir: &Path, threads: usize| -> Result<f64, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        eprintln!("== {label}: exp all, {threads} thread(s) ==");
        let started = std::time::Instant::now();
        let status = std::process::Command::new(&exe)
            .arg("all")
            .env("DLROVER_RESULTS_DIR", dir)
            .env("DLROVER_THREADS", threads.to_string())
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("spawn exp child: {e}"))?;
        let secs = started.elapsed().as_secs_f64();
        if !status.success() {
            return Err(format!("{label} leg failed: {status}"));
        }
        eprintln!("== {label}: {secs:.1}s ==\n");
        Ok(secs)
    };
    let serial_dir = base.join("serial");
    let parallel_dir = base.join("parallel");
    let serial_s = run_leg("serial", &serial_dir, 1)?;
    let parallel_s = run_leg("parallel", &parallel_dir, threads)?;

    let (a, b) = (snapshot_dir(&serial_dir), snapshot_dir(&parallel_dir));
    let a_names: Vec<&String> = a.iter().map(|(n, _, _)| n).collect();
    let b_names: Vec<&String> = b.iter().map(|(n, _, _)| n).collect();
    if a_names != b_names {
        return Err(format!(
            "determinism FAILED: file sets differ\n  serial:   {a_names:?}\n  parallel: {b_names:?}"
        ));
    }
    let diffs: Vec<&String> = a
        .iter()
        .zip(&b)
        .filter(|((_, llen, lfnv), (_, rlen, rfnv))| (llen, lfnv) != (rlen, rfnv))
        .map(|((name, _, _), _)| name)
        .collect();
    if !diffs.is_empty() {
        return Err(format!(
            "determinism FAILED: {diffs:?} differ between 1 and {threads} threads"
        ));
    }
    eprintln!("determinism OK: {} files byte-identical at 1 vs {threads} thread(s)", a.len());
    let _ = std::fs::remove_dir_all(&base);
    Ok(ParallelBench {
        serial_s,
        parallel_s,
        speedup: serial_s / parallel_s.max(1e-9),
        threads,
        files_compared: a.len(),
    })
}

/// The `BENCH_parallel.json` body for a [`ParallelBench`] (also used by
/// the `exp bench-parallel` alias).
pub fn parallel_body(bench: &ParallelBench) -> serde_json::Value {
    let avail = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    serde_json::json!({
        "experiment": "bench-parallel",
        "description": "wall-clock of `exp all` at 1 thread vs the pool",
        "serial_s": bench.serial_s,
        "parallel_s": bench.parallel_s,
        "speedup": bench.speedup,
        "threads": bench.threads,
        "available_parallelism": avail,
        "files_compared": bench.files_compared,
        "byte_identical": true,
    })
}

fn parallel_area(threads: usize) -> Result<AreaOutcome, String> {
    let bench = run_parallel_bench(threads)?;
    Ok(AreaOutcome {
        stem: "parallel".into(),
        headline_key: "speedup",
        headline: bench.speedup,
        higher_is_better: true,
        previous_keys: &["serial_s", "parallel_s", "speedup"],
        body: parallel_body(&bench),
        // The work happens inside the child processes (measured
        // end-to-end above); there is no in-process tree to fold.
        folded: String::new(),
    })
}

/// Saves per pass of the checkpoint-plane workload, and the jobs they
/// rotate over.
const CKPT_SAVES: u64 = 20_000;
const CKPT_JOBS: u64 = 32;
/// Checkpoint size of the area's historical row: ~11 chunks per save.
const CKPT_SMALL_BYTES: u64 = 500_000_000;
/// What `core::chaos` actually saves (2 GB static + the embedding of a
/// job well under way): ~125 chunks per save, so the per-chunk store
/// operations dominate the way they do in a chaos job.
const CKPT_CHAOS_BYTES: u64 = 8_000_000_000;

/// Fixed checkpoint-plane workload: 20k content-chunked saves of about
/// `base_bytes` each across 32 jobs in 8 model families against one shared
/// plane (dedup, eviction, and the FIFO remote queue all on the hot path),
/// with a restore every 64th save. Returns `(saves, chunks staged, plane
/// digest)` — the digest doubles as a determinism witness across
/// optimisation passes.
fn ckptplane_workload(base_bytes: u64) -> (u64, u64, u64) {
    let cfg = dlrover_master::CkptPlaneConfig::default();
    let mut plane = dlrover_master::CheckpointPlane::new(cfg);
    let mut t = SimTime::ZERO;
    let mut chunks = 0u64;
    for i in 0..CKPT_SAVES {
        let job = i % CKPT_JOBS;
        let step = i / CKPT_JOBS;
        let samples = step * 1_024;
        let bytes = base_bytes + samples * 64 + (job % 8) * 50_000_000;
        chunks += bytes.div_ceil(cfg.chunking.chunk_bytes);
        t += dlrover_sim::SimDuration::from_secs(7);
        let _ = plane.save(job, job % 8, step, samples, bytes, t);
        if i % 64 == 0 {
            let _ = plane.restore(job, t);
        }
    }
    plane.advance(t);
    (CKPT_SAVES, chunks, plane.digest())
}

/// One measured pass of [`ckptplane_workload`] as the row the artefact
/// carries per checkpoint size.
fn ckptplane_row(base_bytes: u64) -> (f64, serde_json::Value) {
    let ((saves, chunks, digest), wall_s) = measured(|| ckptplane_workload(base_bytes));
    let saves_per_sec = saves as f64 / wall_s.max(1e-9);
    let row = serde_json::json!({
        "base_bytes": base_bytes,
        "chunks_per_save": chunks as f64 / saves as f64,
        "wall_s": wall_s,
        "saves_per_sec": saves_per_sec,
        "plane_digest": format!("{digest:#018x}"),
    });
    (saves_per_sec, row)
}

fn ckptplane_area() -> AreaOutcome {
    let (saves_per_sec, small) = ckptplane_row(CKPT_SMALL_BYTES);
    let (_, chaos_sized) = ckptplane_row(CKPT_CHAOS_BYTES);
    let (_, profile) = profiled(|| ckptplane_workload(CKPT_SMALL_BYTES));
    AreaOutcome {
        stem: "ckptplane".into(),
        headline_key: "saves_per_sec",
        headline: saves_per_sec,
        higher_is_better: true,
        previous_keys: &["saves_per_sec", "wall_s", "chaos_sized"],
        body: serde_json::json!({
            "experiment": "perf-ckptplane",
            "description": "20k content-chunked checkpoint saves + periodic restores \
                            against one shared tiered plane (§5.3 flash tier hot path); \
                            headline at 0.5 GB checkpoints, `chaos_sized` the same loop \
                            at the 8 GB checkpoints core::chaos stages",
            "saves": CKPT_SAVES,
            "jobs": CKPT_JOBS,
            "chunks_per_save": small["chunks_per_save"],
            "wall_s": small["wall_s"],
            "saves_per_sec": saves_per_sec,
            "plane_digest": small["plane_digest"],
            "chaos_sized": chaos_sized,
            "prof": prof_block(&profile),
        }),
        folded: profile.folded(),
    }
}

/// One Fig. 8-shaped elastic leg of real SGD: `RealModeConfig::small`'s
/// model and data budget, rounds of mutually stale gradients (every live
/// worker computes against the round-start parameters, then all apply in
/// order — `RealModeTrainer::train_round`'s async-PS profile), the Fig. 8
/// churn as a worker-count schedule, and a held-out evaluation every 25
/// rounds. The loop is the area's own so the four `real/*` scopes can sit
/// between the kernels while `dlrover-dlrm` stays telemetry-free. Returns
/// `(samples trained, FNV of every round loss and evaluation)` — the
/// digest is the witness that two runs did the same arithmetic.
fn realtrain_leg(kind: ModelKind, seed: u64) -> (u64, u64) {
    const EVAL_START: u64 = 40_000_000;
    const EVAL_N: usize = 1_500;
    let config = RealModeConfig::small(kind, seed);
    let batch_size = u64::from(config.sharding.batch_size);
    let data = SyntheticCriteo::new(config.dataset.clone(), seed);
    let mut model = DlrmModel::new(kind, config.model.clone(), seed);
    let mut digest = Vec::new();
    let evaluate = |model: &DlrmModel, digest: &mut Vec<u8>| {
        let _p = prof::scope("real/eval");
        let batch = {
            let _p = prof::scope("real/datagen");
            data.batch(EVAL_START, EVAL_N)
        };
        let probs = model.predict(&batch);
        let labels: Vec<bool> = batch.iter().map(|s| s.label).collect();
        digest.extend_from_slice(&logloss(&probs, &labels).to_bits().to_le_bytes());
        digest.extend_from_slice(&auc(&probs, &labels).to_bits().to_le_bytes());
        prof::add_items(EVAL_N as u64);
    };

    let (mut workers, mut next, mut round) = (3u64, 0u64, 0u64);
    // One batch buffer and a pool of gradients, kept between rounds as
    // `train_round` keeps them.
    let (mut batch, mut grads) = (Vec::new(), Vec::new());
    while next < config.total_samples {
        match round {
            40 | 150 => workers -= 1, // a worker fails / is scaled in
            70 | 100 => workers += 1, // scale-out
            _ => {}
        }
        let mut computed = 0;
        for _ in 0..workers {
            let take = batch_size.min(config.total_samples - next);
            if take == 0 {
                break;
            }
            {
                let _p = prof::scope("real/datagen");
                prof::add_items(take);
                data.batch_into(next, take as usize, &mut batch);
            }
            next += take;
            let _p = prof::scope("real/grad");
            prof::add_items(take);
            if computed == grads.len() {
                grads.push(Gradients::default());
            }
            model.compute_gradients_into(&batch, &mut grads[computed]);
            computed += 1;
        }
        let grads = &grads[..computed];
        let mean = grads.iter().map(|g| g.mean_loss).sum::<f32>() / grads.len() as f32;
        digest.extend_from_slice(&mean.to_bits().to_le_bytes());
        {
            let _p = prof::scope("real/apply");
            for g in grads {
                prof::add_items(g.samples as u64);
                model.apply_gradients(g);
            }
        }
        round += 1;
        if round.is_multiple_of(25) {
            evaluate(&model, &mut digest);
        }
    }
    evaluate(&model, &mut digest);
    (next, fnv64(&digest))
}

/// Fixed real-SGD workload: one [`realtrain_leg`] per model family.
/// Returns `(samples, digest)` summed / folded over the three legs.
fn realtrain_workload(seed: u64) -> (u64, u64) {
    ModelKind::all().into_iter().fold((0, 0), |(samples, digest), kind| {
        let (s, d) = realtrain_leg(kind, seed);
        (samples + s, digest.rotate_left(1) ^ d)
    })
}

fn realtrain_area(seed: u64) -> AreaOutcome {
    let ((samples, digest), wall_s) = measured(|| realtrain_workload(seed));
    let (_, profile) = profiled(|| realtrain_workload(seed));
    let samples_per_sec = samples as f64 / wall_s.max(1e-9);
    AreaOutcome {
        stem: "realtrain".into(),
        headline_key: "samples_per_sec",
        headline: samples_per_sec,
        higher_is_better: true,
        previous_keys: &["samples_per_sec", "wall_s"],
        body: serde_json::json!({
            "experiment": "perf-realtrain",
            "description": "one Fig. 8-shaped elastic leg of real Adagrad SGD per model family \
                            (dlrm kernels: datagen, gradients, apply, held-out evaluation)",
            "legs": 3,
            "samples": samples,
            "wall_s": wall_s,
            "samples_per_sec": samples_per_sec,
            "trained_fnv": format!("{digest:#018x}"),
            "prof": prof_block(&profile),
        }),
        folded: profile.folded(),
    }
}

/// The fleetscale sweep plus its `BENCH_fleetscale.json` body (shared by
/// `exp fleetscale` and `exp perf fleetscale`). The headline is the
/// single-shard pod-events/sec at the largest target.
pub fn run_fleetscale_bench(
    seed: u64,
    targets: &[u64],
    shards: &[u32],
) -> (fleetscale::SweepOutcome, serde_json::Value) {
    let outcome = fleetscale::run_sweep(seed, targets, shards);
    let bench_targets: Vec<serde_json::Value> = outcome
        .targets
        .iter()
        .map(|sweep| {
            let per_sec =
                |k: usize| sweep.runs.iter().find(|r| r.shards == k).map(|r| r.pod_events_per_sec);
            let scaling: Vec<serde_json::Value> = sweep
                .runs
                .iter()
                .map(|r| {
                    serde_json::json!({
                        "shards": r.shards,
                        "epochs": r.epochs,
                        "wall_s": r.wall_s,
                        "pod_events_per_sec": r.pod_events_per_sec,
                        "wheel_events_per_sec": r.wheel_events_per_sec,
                    })
                })
                .collect();
            serde_json::json!({
                "target_pods": sweep.target_pods,
                "cells": sweep.cells,
                "planned_pods": sweep.planned_pods,
                "pod_events": sweep.totals.pod_events,
                "wheel_events": sweep.totals.wheel_events,
                "cross_shard_identical": sweep.cross_shard_identical,
                "runs": scaling,
                "speedup_4_vs_1": match (per_sec(4), per_sec(1)) {
                    (Some(four), Some(one)) if one > 0.0 => {
                        serde_json::json!(four / one)
                    }
                    _ => serde_json::Value::Null,
                },
            })
        })
        .collect();
    let headline = outcome
        .targets
        .last()
        .and_then(|sweep| sweep.runs.iter().find(|r| r.shards == 1))
        .map(|r| r.pod_events_per_sec)
        .unwrap_or(0.0);
    let body = serde_json::json!({
        "experiment": "fleetscale",
        "description": "sharded fleet core swept to 1M pods: pod-events/sec and \
                        peak RSS per shard count (deterministic twin: results/fleetscale.json)",
        "seed": seed,
        "shard_counts": shards,
        "targets": bench_targets,
        "pod_events_per_sec": headline,
        "peak_rss_bytes": peak_rss_bytes(),
        "cross_shard_identical": outcome.all_identical,
    });
    (outcome, body)
}

fn fleetscale_area(seed: u64, max_pods: u64) -> Result<AreaOutcome, String> {
    let mut targets: Vec<u64> =
        [10_000u64, 100_000, 1_000_000].into_iter().filter(|t| *t <= max_pods).collect();
    if targets.is_empty() {
        targets.push(max_pods);
    }
    let shards: Vec<u32> = vec![1, 2, 4, 8];
    let ((outcome, mut body), _wall) = measured(|| run_fleetscale_bench(seed, &targets, &shards));
    if !outcome.all_identical {
        return Err("fleetscale: shard counts DIVERGED — see results/fleetscale.json".into());
    }
    let headline =
        body.get("pod_events_per_sec").and_then(serde_json::Value::as_f64).unwrap_or(0.0);
    // Profiled pass: the largest target at one shard is enough to
    // attribute epoch vs exchange time without doubling the whole sweep.
    let top = *targets.last().expect("at least one target");
    let (_, profile) = profiled(|| {
        let cfg = dlrover_cluster::FleetScaleConfig::for_target_pods(top);
        let mut fleet = dlrover_cluster::ShardedFleet::new(&cfg, 1, seed);
        fleetscale::run_pooled(&mut fleet)
    });
    if let serde_json::Value::Object(map) = &mut body {
        map.insert("prof".into(), prof_block(&profile));
    }
    Ok(AreaOutcome {
        stem: "fleetscale".into(),
        headline_key: "pod_events_per_sec",
        headline,
        higher_is_better: true,
        previous_keys: &["pod_events_per_sec"],
        body,
        folded: profile.folded(),
    })
}

// ---------------------------------------------------------------------
// Artefact writing and regression checking.
// ---------------------------------------------------------------------

/// Writes `BENCH_<stem>.json` at the workspace root, carrying the prior
/// run's `previous_keys` fields under `previous` (the PR 6 before/after
/// format) so the artefact itself records the trajectory.
pub fn write_bench(
    stem: &str,
    previous_keys: &[&str],
    body: &serde_json::Value,
) -> Result<PathBuf, String> {
    let out = workspace_root().join(format!("BENCH_{stem}.json"));
    let previous = std::fs::read_to_string(&out)
        .ok()
        .and_then(|old| serde_json::from_str::<serde_json::Value>(&old).ok())
        .map(|old| {
            let kept: serde_json::Map<String, serde_json::Value> = previous_keys
                .iter()
                .map(|k| (k.to_string(), old.get(k).cloned().unwrap_or(serde_json::Value::Null)))
                .collect();
            serde_json::Value::Object(kept)
        })
        .unwrap_or(serde_json::Value::Null);
    let mut body = body.clone();
    if let serde_json::Value::Object(map) = &mut body {
        map.insert("previous".into(), previous);
    }
    std::fs::write(&out, format!("{body:#}\n"))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    Ok(out)
}

/// Writes one area's artefact plus its folded profile under
/// `results/prof/<stem>.folded` when the area produced one.
fn write_area(area: &AreaOutcome) -> Result<PathBuf, String> {
    let out = write_bench(&area.stem, area.previous_keys, &area.body)?;
    if !area.folded.is_empty() {
        let dir = results_dir().join("prof");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let fpath = dir.join(format!("{}.folded", area.stem));
        std::fs::write(&fpath, &area.folded)
            .map_err(|e| format!("cannot write {}: {e}", fpath.display()))?;
    }
    Ok(out)
}

/// Compares a fresh headline against the checked-in baseline. `Ok` is a
/// one-line verdict; `Err` is a regression (or a missing/odd baseline,
/// which must fail loudly — a gate that silently skips is no gate).
fn check_area(area: &AreaOutcome, tolerance: f64) -> Result<String, String> {
    let path = workspace_root().join(format!("BENCH_{}.json", area.stem));
    let baseline = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: no baseline ({e}) — run `exp perf` to create it", area.stem))?;
    let baseline: serde_json::Value = serde_json::from_str(&baseline)
        .map_err(|e| format!("{}: unparseable baseline: {e}", area.stem))?;
    let base = baseline
        .get(area.headline_key)
        .and_then(serde_json::Value::as_f64)
        .ok_or_else(|| format!("{}: baseline lacks {}", area.stem, area.headline_key))?;
    if base <= 0.0 || area.headline <= 0.0 {
        return Err(format!(
            "{}: degenerate headline (base {base}, fresh {})",
            area.stem, area.headline
        ));
    }
    let regression =
        if area.higher_is_better { base / area.headline } else { area.headline / base };
    let verdict = format!(
        "{:<16} {} base {:.3} fresh {:.3} regression {:.2}x (tolerance {:.2}x)",
        area.stem, area.headline_key, base, area.headline, regression, tolerance
    );
    if regression > tolerance {
        Err(verdict)
    } else {
        Ok(verdict)
    }
}

/// Runs the named areas (every area when `areas` is empty). Refresh mode
/// rewrites `BENCH_*.json` + `results/prof/*.folded`; `--check` mode
/// leaves artefacts untouched and returns `Err` on any regression beyond
/// the tolerance band.
pub fn run(areas: &[String], opts: &PerfOpts) -> Result<(), String> {
    let selected: Vec<String> = if areas.is_empty() {
        AREAS.iter().map(|s| s.to_string()).collect()
    } else {
        for a in areas {
            if !AREAS.contains(&a.as_str()) {
                return Err(format!("unknown perf area {a:?} (areas: {})", AREAS.join(", ")));
            }
        }
        areas.to_vec()
    };
    // `--check` must not touch any artefact, but the fleetscale workload
    // writes its deterministic twin (`results/fleetscale.json`) through
    // the experiment's `Report` — and a truncated `--max-pods` check run
    // must never clobber the canonical full sweep. Route every
    // `results_dir()` write to a scratch directory for the check's
    // duration (an explicit DLROVER_RESULTS_DIR is restored afterwards;
    // the parallel area's child processes set their own override).
    let scratch = if opts.check {
        let dir = std::env::temp_dir().join(format!("dlrover-perf-check-{}", std::process::id()));
        let prior = std::env::var("DLROVER_RESULTS_DIR").ok();
        let _ = std::fs::create_dir_all(&dir);
        std::env::set_var("DLROVER_RESULTS_DIR", &dir);
        Some((prior, dir))
    } else {
        None
    };
    let mut failures = Vec::new();
    for name in &selected {
        eprintln!(">>> perf {name}");
        let outcome = match name.as_str() {
            "costmodel" => Ok(costmodel_area()),
            "nsga2" => Ok(nsga2_area(opts.seed)),
            "reconfig" => Ok(reconfig_area(opts.seed)),
            "telemetry-merge" => Ok(telemetry_merge_area()),
            "parallel" => parallel_area(opts.threads),
            "fleetscale" => fleetscale_area(opts.seed, opts.max_pods),
            "ckptplane" => Ok(ckptplane_area()),
            "realtrain" => Ok(realtrain_area(opts.seed)),
            other => unreachable!("area {other} validated above"),
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                failures.push(e);
                continue;
            }
        };
        if opts.check {
            match check_area(&outcome, opts.tolerance) {
                Ok(line) => println!("PASS {line}"),
                Err(line) => {
                    println!("FAIL {line}");
                    failures.push(line);
                }
            }
        } else {
            match write_area(&outcome) {
                Ok(path) => println!(
                    "{name}: {} = {:.3} -> {}",
                    outcome.headline_key,
                    outcome.headline,
                    path.display()
                ),
                Err(e) => failures.push(e),
            }
        }
    }
    if let Some((prior, dir)) = scratch {
        match prior {
            Some(v) => std::env::set_var("DLROVER_RESULTS_DIR", v),
            None => std::env::remove_var("DLROVER_RESULTS_DIR"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{} perf area(s) failed:\n  {}", failures.len(), failures.join("\n  ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The merge workload is deterministic: two corpus builds merge to
    /// the same digest (so trajectory numbers always describe identical
    /// work).
    #[test]
    fn merge_workload_is_deterministic() {
        let a = merge_once(&merge_corpus());
        let b = merge_once(&merge_corpus());
        assert_eq!(a, b);
    }

    /// The cost-model workload always evaluates the same fixed count and
    /// accumulates the same throughput total.
    #[test]
    fn costmodel_workload_is_fixed_work() {
        let (evals_a, acc_a) = costmodel_workload();
        let (evals_b, acc_b) = costmodel_workload();
        assert_eq!(evals_a, 50_000 * 6);
        assert_eq!(evals_a, evals_b);
        assert_eq!(acc_a.to_bits(), acc_b.to_bits());
    }

    /// The real-SGD workload trains the same samples to the same bits on
    /// every run (one family is enough for the unit test's budget).
    #[test]
    fn realtrain_leg_is_fixed_work() {
        let a = realtrain_leg(ModelKind::XDeepFm, 42);
        let b = realtrain_leg(ModelKind::XDeepFm, 42);
        assert_eq!(a.0, RealModeConfig::small(ModelKind::XDeepFm, 42).total_samples);
        assert_eq!(a, b);
    }

    /// Unknown areas are rejected before any work runs.
    #[test]
    fn unknown_area_is_an_error() {
        let err = run(&["warp-drive".to_string()], &PerfOpts::default()).unwrap_err();
        assert!(err.contains("unknown perf area"), "{err}");
    }

    /// The regression gate math: higher-is-better fails when fresh drops
    /// below base/tolerance, passes at the boundary.
    #[test]
    fn check_math_flags_only_real_regressions() {
        let area = |headline: f64| AreaOutcome {
            stem: "parallel".into(),
            headline_key: "speedup",
            headline,
            higher_is_better: true,
            previous_keys: &["speedup"],
            body: serde_json::json!({}),
            folded: String::new(),
        };
        // BENCH_parallel.json is checked in at the workspace root; its
        // speedup baseline is a sub-10 positive float.
        let path = workspace_root().join("BENCH_parallel.json");
        let base: f64 = serde_json::from_str::<serde_json::Value>(
            &std::fs::read_to_string(path).expect("checked-in baseline"),
        )
        .unwrap()["speedup"]
            .as_f64()
            .unwrap();
        assert!(check_area(&area(base), 2.0).is_ok(), "parity must pass");
        assert!(check_area(&area(base / 1.5), 2.0).is_ok(), "within band");
        assert!(check_area(&area(base / 3.0), 2.0).is_err(), "beyond band");
        assert!(check_area(&area(base * 4.0), 2.0).is_ok(), "improvement passes");
    }
}
