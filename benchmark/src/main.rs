//! The repository's benchmark: four workloads, two clocks, per-layer
//! attribution from outside. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--scale X]   one run
//! benchmark run   [--seed 42] [--repeats 5] [--seconds 10] [--scale X]  every workload, summary
//! benchmark trace [--seed 42] [--seconds 10] [--scale X]                every workload, traced
//! benchmark compare A.json B.json                                       verdict per (metric, workload)
//! ```
//!
//! One run prints, as the last line of its standard output, one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod harness;
mod inputs;
mod metrics;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

use harness::{RunArgs, RunOutput};
use metrics::WORKLOADS;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <x>]
  benchmark run   [--seed 42] [--repeats 5] [--seconds 10] [--scale <x>]
  benchmark trace [--seed 42] [--seconds 10] [--scale <x>]
  benchmark compare <A.json> <B.json>
workloads: elastic-jobs chaos-jobs fleet-sweep dlrm-train";

/// `--key value` pairs after the optional subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key.strip_prefix("--").ok_or_else(|| format!("unexpected `{key}`"))?;
            let value = it.next().ok_or_else(|| format!("`{key}` needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.iter().rev().find(|(k, _)| k == name) {
            None => Ok(default),
            Some((_, v)) => v.parse().map_err(|_| format!("bad value `{v}` for --{name}")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

fn run_args(flags: &Flags) -> Result<RunArgs, String> {
    flags.only(&["workload", "seed", "seconds", "trace", "scale"])?;
    let args = RunArgs {
        workload: flags.get("workload", String::new())?,
        seed: flags.get("seed", 42)?,
        seconds: flags.get("seconds", 10.0)?,
        trace: match flags.get("trace", 0u8)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        scale: flags.get("scale", 1.0)?,
    };
    if !WORKLOADS.iter().any(|w| w.0 == args.workload) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0 && args.scale > 0.0 && args.scale <= 4.0) {
        return Err("--seconds must be in (0, 60] and --scale in (0, 4]".into());
    }
    Ok(args)
}

fn dispatch(args: &RunArgs) -> RunOutput {
    match args.workload.as_str() {
        "elastic-jobs" => harness::run::<workloads::elastic::ElasticJobs>(args),
        "chaos-jobs" => harness::run::<workloads::chaos::ChaosJobs>(args),
        "fleet-sweep" => harness::run::<workloads::fleet::FleetSweep>(args),
        "dlrm-train" => harness::run::<workloads::dlrm::DlrmTrain>(args),
        other => unreachable!("workload `{other}` was validated"),
    }
}

/// One run in the driver's form. Everything but the last line is for the
/// human reader: `# ...` comments and `info <name> <value> <unit>` rows.
fn single_run(args: &RunArgs) -> ExitCode {
    let out = dispatch(args);
    println!(
        "# {} seed={} seconds={} trace={} scale={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.scale
    );
    for i in &out.info {
        println!("info {} {} {}", i.name, i.value, i.unit);
    }
    for why in &out.failures {
        println!("# FAILED: {why}");
    }
    // The result line carries every metric of the kind; the reader is shown
    // the ones this workload measures (the others are 0 by construction).
    let listed = out.metrics.to_json(args.trace);
    for (name, v) in listed.as_object().expect("metrics object").iter() {
        if metrics::measured_on(name, &args.workload) {
            println!("# {name} = {} {}", v["value"], v["unit"].as_str().unwrap_or(""));
        }
    }
    if let Some(table) = &out.table {
        table.lines().for_each(|l| println!("# {l}"));
        let path = suite::out_dir().join(format!("{}.spans.jsonl", args.workload));
        match spans::write_jsonl(&out.spans, &path) {
            Ok(()) => println!("# {} spans written to {}", out.spans.len(), path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        serde_json::json!({
            "correct": out.correct,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": listed,
        })
    );
    // A run that printed its result line exits 0; whether the outputs were
    // right is the line's `correct`. (`run` and `trace` exit non-zero on it.)
    ExitCode::SUCCESS
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => suite::run(&Flags::parse(&args[1..])?),
        Some("trace") => suite::trace(&Flags::parse(&args[1..])?),
        Some("compare") => match &args[1..] {
            [a, b] => suite::compare_files(a, b),
            _ => Err("compare takes two files".into()),
        },
        Some(first) if first.starts_with("--") => Ok(single_run(&run_args(&Flags::parse(&args)?)?)),
        _ => Err("no command".into()),
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
