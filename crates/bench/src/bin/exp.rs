//! Experiment dispatcher: regenerates the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p dlrover-bench --bin exp -- all
//! cargo run --release -p dlrover-bench --bin exp -- fig7 fig10
//! cargo run --release -p dlrover-bench --bin exp -- --seed 123 fig11
//! cargo run --release -p dlrover-bench --bin exp -- trace results/fig7.trace.jsonl
//! cargo run --release -p dlrover-bench --bin exp -- trace --filter 'Pod*,JobStarted' fig7
//! cargo run --release -p dlrover-bench --bin exp -- trace --diff a.jsonl b.jsonl
//! cargo run --release -p dlrover-bench --bin exp -- trace --chrome fig12
//! cargo run --release -p dlrover-bench --bin exp -- critpath fig12
//! ```
//!
//! Every file `exp` writes is a function of the seed. How fast the
//! reproduction runs is measured by `benchmark/` (see `BENCHMARK.json`);
//! the only wall-clock here goes to stderr, the `fleetscale` stdout table
//! and, under `DLROVER_PROF=1`, the git-ignored `results/prof/`.

use std::path::{Path, PathBuf};
use std::str::FromStr;

use dlrover_bench::experiments::{fleetscale, RunArgs, Runner, REGISTRY};
use dlrover_bench::golden::{write_golden, GoldenDigest};
use dlrover_bench::{
    chrome_trace_json, critpath_report, dump_profile, events_per_sec, format_bytes, peak_rss_bytes,
    results_dir,
};
use dlrover_telemetry::{parse_spans_jsonl, prof, Event};

fn usage() -> ! {
    eprintln!("usage: exp [--seed N] [--threads N] [--plans K] [--episodes E] <experiment|all>...");
    eprintln!("       exp [--seed N] [--threads N] --regen-golden");
    eprintln!("       exp fleetscale [--seed N] [--max-pods P] [--shards A,B,...]");
    eprintln!("       exp trace [--filter KINDS] <id|trace.jsonl>");
    eprintln!("       exp trace --diff <left.jsonl> <right.jsonl>");
    eprintln!("       exp trace --chrome <id|spans.jsonl>");
    eprintln!("       exp critpath <id|spans.jsonl>\n");
    eprintln!("--threads N caps the per-experiment worker pool (default: the");
    eprintln!("machine's available parallelism; output is identical at any N).");
    eprintln!("--plans K sizes the fault-plan sweeps of chaos, tournament and");
    eprintln!("reconfig, --episodes E the training of tournament's learned");
    eprintln!("contenders (defaults: what the committed artefacts were run at);");
    eprintln!("either one given with none of its experiments selected is an error.");
    eprintln!("An experiment whose oracle reports a violation (or, ckptplane,");
    eprintln!("whose shard counts diverge) makes exp exit non-zero.");
    eprintln!("--regen-golden reruns everything and refreshes tests/golden/.");
    eprintln!("fleetscale sweeps the sharded fleet core to --max-pods (default");
    eprintln!("1000000) across shard counts, verifies cross-shard digest");
    eprintln!("identity (non-zero exit on divergence), and writes");
    eprintln!("results/fleetscale.json.\n");
    eprintln!("KINDS is comma-separated event kind names; a trailing `*` globs");
    eprintln!("(e.g. --filter 'Pod*,JobStarted').\n");
    eprintln!("experiments:");
    for (id, desc, _) in REGISTRY {
        eprintln!("  {id:<10} {desc}");
    }
    std::process::exit(2);
}

/// The command line, split once for every subcommand: `--name value` pairs
/// (the bare `--regen-golden` switch is kept with an empty value) and, in
/// order, everything else.
struct Flags {
    pairs: Vec<(String, String)>,
    rest: Vec<String>,
}

impl Flags {
    /// `None` when a flag is missing its value.
    fn parse(args: &[String]) -> Option<Flags> {
        let mut flags = Flags { pairs: Vec::new(), rest: Vec::new() };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("regen-golden") => flags.pairs.push(("regen-golden".into(), String::new())),
                Some(name) => flags.pairs.push((name.to_string(), it.next()?.clone())),
                None => flags.rest.push(arg.clone()),
            }
        }
        Some(flags)
    }

    /// The parsed value of `--name` (the last one given), `None` when the
    /// flag is absent; a value that does not parse is a usage error.
    fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        let (_, value) = self.pairs.iter().rev().find(|(k, _)| k == name)?;
        Some(value.parse().unwrap_or_else(|_| usage()))
    }

    /// Usage error unless every flag given is `--threads` (global) or one
    /// of `allowed`.
    fn only(&self, allowed: &[&str]) {
        if self.pairs.iter().any(|(k, _)| k != "threads" && !allowed.contains(&k.as_str())) {
            usage();
        }
    }
}

fn read_trace(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        std::process::exit(2);
    })
}

/// Resolves an `<id|path>` argument: an existing file is used as-is, and
/// anything else is treated as an experiment id with the artefact expected
/// at `results/<id>.<suffix>`. Returns `(experiment id, path)`.
fn resolve_artefact(arg: &str, suffix: &str) -> (String, PathBuf) {
    let p = Path::new(arg);
    if p.is_file() {
        let stem = p
            .file_name()
            .and_then(|n| n.to_str())
            .map(|n| n.split('.').next().unwrap_or(n).to_string())
            .unwrap_or_else(|| "trace".to_string());
        return (stem, p.to_path_buf());
    }
    (arg.to_string(), results_dir().join(format!("{arg}.{suffix}")))
}

/// True when the event kind `name` matches the `--filter` expression: a
/// comma-separated list of kind names where a trailing `*` matches any
/// suffix (`Pod*` hits `PodRequested`, `PodPlaced`, ...).
fn filter_matches(filter: &str, name: &str) -> bool {
    filter.split(',').map(str::trim).filter(|p| !p.is_empty()).any(|p| match p.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => name == p,
    })
}

/// `exp trace --chrome`: merge an experiment's span + event logs into one
/// Perfetto-loadable trace-event file at `results/<id>.chrome.json`.
fn chrome_command(arg: &str) -> ! {
    let (id, spans_path) = resolve_artefact(arg, "spans.jsonl");
    let spans = parse_spans_jsonl(&read_trace(&spans_path)).unwrap_or_else(|| {
        eprintln!("malformed span log: {}", spans_path.display());
        std::process::exit(2);
    });
    // The event log is optional garnish: instants on top of the spans.
    let events_path = results_dir().join(format!("{id}.trace.jsonl"));
    let events: Vec<Event> = std::fs::read_to_string(&events_path)
        .map(|body| body.lines().filter_map(|l| serde_json::from_str(l).ok()).collect())
        .unwrap_or_default();
    let out = results_dir().join(format!("{id}.chrome.json"));
    let json = chrome_trace_json(&spans, &events);
    std::fs::write(&out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", out.display());
        std::process::exit(2);
    });
    println!(
        "{}: {} spans + {} events -> {} (open in ui.perfetto.dev)",
        id,
        spans.len(),
        events.len(),
        out.display()
    );
    std::process::exit(0);
}

/// `exp critpath`: attribute an experiment's makespan to phases and print
/// the breakdown (also refreshing `results/<id>.critpath.json`).
fn critpath_command(arg: &str) -> ! {
    let (id, spans_path) = resolve_artefact(arg, "spans.jsonl");
    let spans = parse_spans_jsonl(&read_trace(&spans_path)).unwrap_or_else(|| {
        eprintln!("malformed span log: {}", spans_path.display());
        std::process::exit(2);
    });
    let report = critpath_report(&spans);
    let cp = &report.overall;
    println!("== {id}: critical path ({} spans) ==", cp.span_count);
    println!("makespan: {:.1}s", cp.makespan_us as f64 / 1e6);
    let mut rows: Vec<(&String, &u64)> = cp.phases_us.iter().collect();
    rows.sort_by_key(|&(name, &us)| (std::cmp::Reverse(us), name.clone()));
    for (name, &us) in rows {
        println!("  {name:<20} {:>10.1}s  {:>7}", us as f64 / 1e6, cp.fractions[name]);
    }
    println!("dominant: {}", cp.dominant);
    for (track, tcp) in &report.by_track {
        println!(
            "  track {track:<4} makespan {:>9.1}s dominant {}",
            tcp.makespan_us as f64 / 1e6,
            tcp.dominant
        );
    }
    let out = results_dir().join(format!("{id}.critpath.json"));
    if let Ok(body) = serde_json::to_string_pretty(&report) {
        let _ = std::fs::write(&out, body);
        println!("wrote {}", out.display());
    }
    std::process::exit(0);
}

/// `exp trace`: dump, filter, diff, or export serialized event logs.
fn trace_command(flags: &Flags) -> ! {
    flags.only(&["diff", "filter", "chrome"]);
    let rest = &flags.rest[1..];
    let filter = flags.get::<String>("filter");
    let chrome = flags.get::<String>("chrome");
    if let Some(left) = flags.get::<String>("diff") {
        if rest.len() != 1 || filter.is_some() || chrome.is_some() {
            usage();
        }
        let (left, right) = (read_trace(Path::new(&left)), read_trace(Path::new(&rest[0])));
        let diffs = dlrover_telemetry::diff_jsonl(&left, &right, 50);
        if diffs.is_empty() {
            println!("identical: {} events", left.lines().count());
            std::process::exit(0);
        }
        for d in &diffs {
            println!("line {}:", d.line);
            println!("  < {}", d.left.as_deref().unwrap_or("(missing)"));
            println!("  > {}", d.right.as_deref().unwrap_or("(missing)"));
        }
        println!("{} differing line(s) (showing at most 50)", diffs.len());
        std::process::exit(1);
    }
    if let Some(arg) = chrome {
        if !rest.is_empty() || filter.is_some() {
            usage();
        }
        chrome_command(&arg);
    }
    if rest.len() != 1 {
        usage();
    }
    let (_, path) = resolve_artefact(&rest[0], "trace.jsonl");
    let body = read_trace(&path);
    let mut shown = 0usize;
    for line in body.lines() {
        let keep = match &filter {
            None => true,
            Some(f) => serde_json::from_str::<Event>(line)
                .map(|e| filter_matches(f, e.kind.name()))
                .unwrap_or(false),
        };
        if keep {
            println!("{line}");
            shown += 1;
        }
    }
    eprintln!("{shown} of {} events", body.lines().count());
    std::process::exit(0);
}

/// `exp fleetscale`: sweep the sharded fleet core to `--max-pods` across
/// `--shards` shard counts. The experiment module prints the table
/// (pod-events/s per shard count included) and writes the deterministic
/// `results/fleetscale.json`; this command exits non-zero if any shard
/// count diverged from the single-shard digests.
fn fleetscale_command(flags: &Flags) -> ! {
    flags.only(&["seed", "max-pods", "shards"]);
    let seed = flags.get("seed").unwrap_or(42u64);
    let max_pods = flags.get("max-pods").unwrap_or(1_000_000u64);
    let shards: Vec<u32> = match flags.get::<String>("shards") {
        Some(list) => {
            list.split(',').map(|s| s.trim().parse().unwrap_or_else(|_| usage())).collect()
        }
        None => vec![1, 2, 4, 8],
    };
    if flags.rest.len() != 1 || shards.contains(&0) || max_pods == 0 {
        usage();
    }
    let mut targets: Vec<u64> =
        [10_000u64, 100_000, 1_000_000].into_iter().filter(|t| *t <= max_pods).collect();
    if targets.is_empty() {
        targets.push(max_pods);
    }
    let all_identical = fleetscale::run_sweep(seed, &targets, &shards);
    if let Some(hot) = dump_profile("fleetscale") {
        eprintln!("prof: {hot}");
    }
    if !all_identical {
        eprintln!("fleetscale: shard counts DIVERGED — see results/fleetscale.json");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// The experiments that read `RunArgs::plans`, and the one that reads
/// `RunArgs::episodes`.
const PLANS_READ_BY: [&str; 3] = ["chaos", "tournament", "reconfig"];
const EPISODES_READ_BY: [&str; 1] = ["tournament"];

/// Whether every size given has a reader among the experiments `ids`:
/// `exp fig7 --plans 5` would otherwise run `fig7` at its only size and
/// leave the caller believing the flag did something.
fn sizes_are_read(args: &RunArgs, ids: &[&str]) -> bool {
    let read_by = |readers: &[&str]| ids.iter().any(|id| readers.contains(id));
    (args.plans.is_none() || read_by(&PLANS_READ_BY))
        && (args.episodes.is_none() || read_by(&EPISODES_READ_BY))
}

/// Runs `selected` in order at `args` and returns the violations they
/// reported, summed. Every experiment runs even after one has failed its
/// gate: the artefacts of the rest are still wanted.
fn run_experiments(selected: &[&Runner], args: &RunArgs) -> usize {
    let mut violations = 0;
    for (id, _, run) in selected {
        eprintln!(">>> running {id} (seed {})", args.seed);
        let started = std::time::Instant::now();
        let (_, violated) = run(args);
        let secs = started.elapsed().as_secs_f64();
        // Harness-side observability: telemetry events emitted per
        // wall-clock second (from the trace the run just wrote), the
        // process peak RSS and, when profiling, the hottest site.
        let mut extras = String::new();
        if let Ok(body) = std::fs::read_to_string(results_dir().join(format!("{id}.trace.jsonl"))) {
            let events = body.lines().count() as u64;
            match events_per_sec(events, secs) {
                Some(rate) => extras.push_str(&format!(" · {rate:.0} events/s")),
                None => extras.push_str(" · - events/s"),
            }
        }
        if let Some(rss) = peak_rss_bytes() {
            extras.push_str(&format!(" · peak_rss {}", format_bytes(rss)));
        }
        if let Some(hot) = dump_profile(id) {
            extras.push_str(&format!(" · prof {hot}"));
        }
        eprintln!("<<< {id} done in {secs:.1}s{extras}\n");
        if violated > 0 {
            eprintln!("{id}: {violated} invariant violation(s) — see results/{id}.json");
        }
        violations += violated;
    }
    violations
}

/// `exp <ids...|all>` and `exp --regen-golden`. The latter reruns every
/// registered experiment at its default size, then digests the artefacts
/// it left in `results/` into `tests/golden/<id>.digest`. The tier-1
/// golden tests compare against exactly these files, so this is the one
/// sanctioned way to bless an intentional behaviour change.
fn run_command(flags: &Flags) -> ! {
    flags.only(&["seed", "plans", "episodes", "regen-golden"]);
    let args = RunArgs {
        seed: flags.get("seed").unwrap_or(42),
        plans: flags.get("plans"),
        episodes: flags.get("episodes"),
    };
    let regen = flags.get::<String>("regen-golden").is_some();
    // A run names its experiments; a regen names none and takes no sizes
    // (the corpus is the committed artefacts', at the defaults).
    let sized = args.plans.is_some() || args.episodes.is_some();
    if flags.rest.is_empty() != regen || (regen && sized) {
        usage();
    }
    let selected: Vec<&Runner> = if regen || flags.rest.iter().any(|a| a == "all") {
        REGISTRY.iter().collect()
    } else {
        flags
            .rest
            .iter()
            .map(|a| {
                REGISTRY.iter().find(|(id, _, _)| id == a).unwrap_or_else(|| {
                    eprintln!("unknown experiment: {a}\n");
                    usage()
                })
            })
            .collect()
    };
    // A size no selected experiment reads is a mistake, not a no-op.
    let ids: Vec<&str> = selected.iter().map(|(id, _, _)| *id).collect();
    if !sizes_are_read(&args, &ids) {
        usage();
    }
    if run_experiments(&selected, &args) > 0 {
        std::process::exit(1);
    }
    if regen {
        let dir = results_dir();
        for (id, _, _) in REGISTRY {
            let trace = read_trace(&dir.join(format!("{id}.trace.jsonl")));
            let spans = read_trace(&dir.join(format!("{id}.spans.jsonl")));
            let digest = GoldenDigest::of(&trace, &spans);
            write_golden(id, &digest).unwrap_or_else(|e| {
                eprintln!("cannot write golden digest for {id}: {e}");
                std::process::exit(2);
            });
            eprintln!(
                "golden {id}: trace_fnv={:#018x} spans_fnv={:#018x}",
                digest.trace_fnv, digest.spans_fnv
            );
        }
        eprintln!("refreshed {} digests in tests/golden/", REGISTRY.len());
    }
    std::process::exit(0);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&argv).unwrap_or_else(|| usage());
    // The workspace's one read of DLROVER_PROF: the library never consults
    // the environment, so `prof::set_enabled` always has the last word.
    if std::env::var("DLROVER_PROF").is_ok_and(|v| v == "1") {
        prof::set_enabled(true);
    }
    // `--threads N` is global: it caps the worker pool for every
    // subcommand (output is identical at any value, only wall-clock
    // changes).
    if let Some(n) = flags.get::<usize>("threads") {
        if n == 0 {
            usage();
        }
        dlrover_bench::parallel::set_threads(n);
    }
    match flags.rest.first().map(String::as_str) {
        Some("trace") => trace_command(&flags),
        Some("critpath") => {
            flags.only(&[]);
            if flags.rest.len() != 2 {
                usage();
            }
            critpath_command(&flags.rest[1])
        }
        Some("fleetscale") => fleetscale_command(&flags),
        _ => run_command(&flags),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--filter` takes comma-separated kinds and `prefix*` globs.
    #[test]
    fn filter_accepts_kind_lists_and_globs() {
        assert!(filter_matches("JobStarted", "JobStarted"));
        assert!(!filter_matches("JobStarted", "JobCompleted"));
        assert!(filter_matches("JobStarted,JobCompleted", "JobCompleted"));
        assert!(filter_matches("Pod*", "PodRequested"));
        assert!(filter_matches("Pod*", "PodPlaced"));
        assert!(!filter_matches("Pod*", "JobStarted"));
        assert!(filter_matches("Pod*,Job*", "JobOomed"));
        // Whitespace around commas is tolerated; empty terms never match.
        assert!(filter_matches(" PodPlaced , MigrationStarted ", "MigrationStarted"));
        assert!(!filter_matches("", "JobStarted"));
        assert!(!filter_matches(",,", "JobStarted"));
        // A bare `*` matches everything.
        assert!(filter_matches("*", "Anything"));
    }

    fn parse(line: &str) -> Option<Flags> {
        Flags::parse(&line.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    /// Flags and positionals separate wherever they stand, so the global
    /// `--threads` / `--seed` may lead and a subcommand's flags may follow.
    #[test]
    fn flags_parse_once_for_every_subcommand() {
        let f = parse("--threads 4 tournament --seed 7 --plans 2 --episodes 3 reconfig").unwrap();
        assert_eq!(f.rest, ["tournament", "reconfig"]);
        assert_eq!(f.get::<usize>("threads"), Some(4));
        assert_eq!(f.get::<u64>("seed"), Some(7));
        assert_eq!(f.get::<u64>("plans"), Some(2));
        assert_eq!(f.get::<u32>("episodes"), Some(3));
        assert_eq!(f.get::<u64>("max-pods"), None);

        let f = parse("trace --diff a.jsonl b.jsonl").unwrap();
        assert_eq!(
            (f.get::<String>("diff").as_deref(), &f.rest[1..]),
            (Some("a.jsonl"), &["b.jsonl".to_string()][..])
        );

        let f = parse("--seed 9 --regen-golden").unwrap();
        assert!(f.rest.is_empty() && f.get::<String>("regen-golden").is_some());
        assert!(parse("chaos --plans").is_none(), "a flag without its value");
    }

    /// `--plans` / `--episodes` need a selected experiment that reads them;
    /// `all` selects the whole registry, so it reads both.
    #[test]
    fn a_size_nobody_reads_is_rejected() {
        let plans = RunArgs { plans: Some(5), ..RunArgs::new(42) };
        let episodes = RunArgs { episodes: Some(3), ..RunArgs::new(42) };
        assert!(sizes_are_read(&RunArgs::new(42), &["fig7"]));
        assert!(!sizes_are_read(&plans, &["fig7"]));
        assert!(sizes_are_read(&plans, &["fig7", "chaos"]));
        assert!(!sizes_are_read(&episodes, &["ckptplane"]));
        assert!(!sizes_are_read(&episodes, &["chaos", "reconfig"]));
        assert!(sizes_are_read(&episodes, &["tournament"]));
        let all: Vec<&str> = REGISTRY.iter().map(|(id, _, _)| *id).collect();
        assert!(sizes_are_read(&RunArgs { plans: Some(5), ..episodes }, &all));
        for reader in PLANS_READ_BY.iter().chain(&EPISODES_READ_BY) {
            assert!(all.contains(reader), "{reader} is not a registered experiment");
        }
    }

    /// The gate every `exp <ids>` / `exp all` invocation goes through: a
    /// runner's violation count reaches the caller (which exits non-zero
    /// on it) and does not stop the experiments after it.
    #[test]
    fn a_violation_from_any_runner_is_counted() {
        let clean: Runner = ("stub-clean", "", |a| (format!("seed {}", a.seed), 0));
        let failing: Runner = ("stub-failing", "", |_| (String::new(), 1));
        let args = RunArgs::new(42);
        assert_eq!(run_experiments(&[&clean], &args), 0);
        assert_eq!(run_experiments(&[&failing, &clean], &args), 1);
        assert_eq!(run_experiments(&[&clean, &failing, &failing], &args), 2);
    }
}
