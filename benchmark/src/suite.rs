//! `run`, `trace` and `compare`: every workload in fresh child processes
//! (so `VmHWM` is per run), the summary with its `env` block, and the
//! verdict table.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serde_json::{json, Map, Value};

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use crate::Flags;

/// `benchmark/out/`, beside this package's manifest: everything the
/// benchmark writes goes here.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how the numbers were taken. A number without this block is not
/// a result (ROADMAP 1c).
fn env_block(seed: u64, repeats: u64, seconds: f64, scale: f64) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |m| m.trim().to_string());
    json!({
        "nproc": cpuinfo.lines().filter(|l| l.starts_with("processor")).count(),
        "available_parallelism": std::thread::available_parallelism().map_or(1, usize::from),
        "cpu_model": model,
        "rustc": command_line("rustc", &["--version"]),
        "git_rev": command_line("git", &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"]),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "seed": seed,
        "repeats": repeats,
        "seconds": seconds,
        "scale": scale,
        // Only scale-1 numbers of an optimized build may be published.
        "publishable": scale == 1.0 && !cfg!(debug_assertions),
    })
}

/// One child run: its result line and its `info` rows.
struct Child {
    result: Value,
    info: Vec<(String, String)>,
    comments: Vec<String>,
}

fn spawn(
    workload: &str,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--scale", &scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result: Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "{workload}: no result line ({e}); stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let mut info = Vec::new();
    let mut comments = Vec::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("info ") {
            let mut parts = rest.rsplitn(2, ' ');
            let _unit = parts.next();
            if let Some((name, value)) = parts.next().and_then(|nv| nv.split_once(' ')) {
                info.push((name.to_string(), value.to_string()));
            }
        } else if let Some(c) = line.strip_prefix("# ") {
            comments.push(c.to_string());
        }
    }
    Ok(Child { result, info, comments })
}

/// Side values that repeat bit-exactly per seed; `run` insists they do.
const EXACT_INFO: [&str; 5] =
    ["sim_jct_mean_s", "sim_jct_p95_s", "sim_core_hours_per_msample", "auc_min", "sim_digest"];

fn write_summary(name: String, doc: &Value) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    let text = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())? + "\n";
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn scale_suffix(scale: f64) -> String {
    if scale == 1.0 {
        String::new()
    } else {
        format!("-scale{scale}")
    }
}

/// `benchmark run`: every workload `--repeats` times at one seed, each in a
/// fresh process; medians and quartiles of the host metrics; the exact
/// values checked equal across repeats.
pub fn run(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["seed", "repeats", "seconds", "scale"])?;
    let seed: u64 = flags.get("seed", 42)?;
    let repeats: u64 = flags.get("repeats", 5)?;
    let seconds: f64 = flags.get("seconds", 10.0)?;
    let scale: f64 = flags.get("scale", 1.0)?;
    if repeats == 0 {
        return Err("--repeats must be at least 1".into());
    }

    let mut workloads = Map::new();
    let mut ok = true;
    for (workload, why) in WORKLOADS {
        println!("\n== {workload}: {why}");
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut exact: Vec<(String, String)> = Vec::new();
        for r in 0..repeats {
            let child = spawn(workload, seed, seconds, scale, false)?;
            attempted += child.result["attempted"].as_u64().unwrap_or(0);
            failed += child.result["failed"].as_u64().unwrap_or(0);
            ok &= child.result["correct"].as_bool().unwrap_or(false);
            for (i, e) in END_TO_END.iter().enumerate() {
                values[i].push(child.result["metrics"][e.name]["value"].as_f64().unwrap_or(0.0));
            }
            child
                .comments
                .iter()
                .filter(|c| c.starts_with("FAILED"))
                .for_each(|c| println!("  {c}"));
            let seen: Vec<(String, String)> =
                child.info.into_iter().filter(|(k, _)| EXACT_INFO.contains(&k.as_str())).collect();
            if r == 0 {
                exact = seen;
            } else if exact != seen {
                // A simulated outcome differed between two runs of one seed.
                println!("  FAILED: repeat {r} simulated {seen:?}, repeat 0 {exact:?}");
                failed += 1;
                ok = false;
            }
        }
        let mut metrics = Map::new();
        for (e, v) in END_TO_END.iter().zip(&values) {
            let (q1, median, q3) = stats::quartiles(v);
            println!(
                "  {:<13} {:>14.6} {:<4} (q1 {:.6}, q3 {:.6}, n {}, spread {:.1}%; {} is better, bound {:.0}%)",
                e.name,
                median,
                e.unit,
                q1,
                q3,
                v.len(),
                stats::relative_iqr(v) * 100.0,
                e.better.word(),
                e.bound * 100.0
            );
            metrics.insert(
                e.name.to_string(),
                json!({ "median": median, "q1": q1, "q3": q3, "n": v.len(), "unit": e.unit, "values": v.clone() }),
            );
        }
        let mut exact_json = Map::new();
        for (k, v) in &exact {
            println!("  {k:<13} {v:>14} (exact, equal on all {repeats} repeats)");
            exact_json.insert(k.clone(), v.parse::<f64>().map_or_else(|_| json!(v), |n| json!(n)));
        }
        println!("  fail_share    {failed} / {attempted}");
        workloads.insert(
            workload.to_string(),
            json!({
                "why": why, "attempted": attempted, "failed": failed,
                "metrics": Value::Object(metrics), "exact": Value::Object(exact_json),
            }),
        );
    }
    let doc = json!({
        "benchmark": "dlrover-rm-rs",
        "claim": null,
        "env": env_block(seed, repeats, seconds, scale),
        "workloads": Value::Object(workloads),
    });
    let path = write_summary(format!("run-seed{seed}{}.json", scale_suffix(scale)), &doc)?;
    println!("\nsummary written to {}", path.display());
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `benchmark trace`: every workload once with the spans on; per-layer
/// metrics, the self-time tables, and `out/<workload>.spans.jsonl`.
pub fn trace(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["seed", "seconds", "scale"])?;
    let seed: u64 = flags.get("seed", 42)?;
    let seconds: f64 = flags.get("seconds", 10.0)?;
    let scale: f64 = flags.get("scale", 1.0)?;
    let mut workloads = Map::new();
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        println!("\n== {workload} (traced)");
        let child = spawn(workload, seed, seconds, scale, true)?;
        ok &= child.result["correct"].as_bool().unwrap_or(false);
        // The self-time table and the span file path, as the child printed them.
        child
            .comments
            .iter()
            .filter(|c| {
                c.starts_with(' ')
                    || c.starts_with("self time")
                    || c.contains("spans written")
                    || c.starts_with("FAILED")
            })
            .for_each(|c| println!("{c}"));
        let mut layer = Map::new();
        for p in PER_LAYER.iter().filter(|p| p.on.contains(&workload)) {
            let value = child.result["metrics"][p.name]["value"].as_f64().unwrap_or(0.0);
            println!(
                "  {:<40} {:>16.6} {:<6} [{}, {} is better]",
                p.name,
                value,
                p.unit,
                p.how.word(),
                p.better.word()
            );
            layer.insert(
                p.name.to_string(),
                json!({ "value": value, "unit": p.unit, "how": p.how.word(), "better": p.better.word() }),
            );
        }
        workloads.insert(workload.to_string(), Value::Object(layer));
    }
    let doc = json!({
        "benchmark": "dlrover-rm-rs",
        "env": env_block(seed, 1, seconds, scale),
        "per_layer": Value::Object(workloads),
    });
    let path = write_summary(format!("trace-seed{seed}{}.json", scale_suffix(scale)), &doc)?;
    println!("\nper-layer values written to {}", path.display());
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `benchmark compare A.json B.json`.
pub fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a_doc, b_doc) = (load(a)?, load(b)?);
    for (label, doc) in [("A", &a_doc), ("B", &b_doc)] {
        let env = &doc["env"];
        println!(
            "{label}: {} seed {} x{} scale {} | {} | {} cores | {}",
            env["git_rev"].as_str().unwrap_or("?"),
            env["seed"],
            env["repeats"],
            env["scale"],
            env["cpu_model"].as_str().unwrap_or("?"),
            env["available_parallelism"],
            env["rustc"].as_str().unwrap_or("?"),
        );
    }
    if a_doc["env"]["cpu_model"] != b_doc["env"]["cpu_model"]
        || a_doc["env"]["scale"] != b_doc["env"]["scale"]
    {
        println!(
            "warning: the two sets were taken in different environments; host verdicts mean little"
        );
    }
    let (table, worse) = crate::compare::compare(&a_doc, &b_doc)?;
    print!("{table}");
    println!("{worse} worse");
    Ok(if worse == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
