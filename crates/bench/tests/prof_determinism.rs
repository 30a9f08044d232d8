//! The profiling plane's hard constraint: enabling the wall-clock
//! profiler must not change a single byte of the deterministic artefacts.
//!
//! `telemetry::prof` measures with `std::time::Instant`, so its numbers
//! are machine- and run-dependent — the one thing the determinism
//! contract forbids inside `results/<id>.json`, the event traces, and the
//! golden corpus. The profiler therefore writes only to its own
//! side-channel (`results/prof/<id>.folded`, the dump `exp` makes under
//! `DLROVER_PROF=1`). This test proves the isolation end-to-end: it runs
//! real registry experiments at the canonical seed with profiling off and
//! again with profiling on, dumping each profile as `exp` does, and
//! requires byte-identical artefacts, an unchanged artefact file set,
//! golden-corpus digest matches, and non-empty dumps (so "nothing leaked"
//! is not "nothing ran").
//!
//! One `#[test]` on purpose: the enable flag is process-global, and an
//! integration test binary owns its process.

use std::collections::BTreeMap;
use std::path::Path;

use dlrover_bench::dump_profile;
use dlrover_bench::experiments::{RunArgs, REGISTRY};
use dlrover_bench::golden::{read_golden, GoldenDigest};
use dlrover_telemetry::prof;

/// Experiments exercised under the profiler: `table1` drives the cost
/// model (the `cost/*` sites), `fig7` the autoscaler loop with its
/// telemetry (`telemetry/record`); both dispatch over the unit pool
/// (`parallel/*` sites).
const IDS: [&str; 2] = ["table1", "fig7"];

/// The canonical seed — the one the golden corpus is generated at.
const SEED: u64 = 42;

/// Runs the selected experiments into `dir`, draining the profiler after
/// each the way `exp`'s run loop does, and returns every produced file of
/// the directory itself — what the digests, CI's `diff`s and `git status`
/// look at — as `name -> bytes`.
fn run_into(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create scratch results dir");
    // `results_dir()` re-reads the override on every call, so pointing it
    // at a scratch dir keeps this test away from the canonical results/.
    std::env::set_var("DLROVER_RESULTS_DIR", dir);
    for id in IDS {
        let (_, _, run) = REGISTRY
            .iter()
            .find(|(rid, _, _)| *rid == id)
            .unwrap_or_else(|| panic!("{id} not in REGISTRY"));
        run(&RunArgs::new(SEED));
        assert_eq!(dump_profile(id).is_some(), prof::enabled(), "{id}: dump iff profiling");
    }
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read scratch dir") {
        let entry = entry.expect("dir entry");
        if entry.path().is_file() {
            files.insert(
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).expect("read artefact"),
            );
        }
    }
    files
}

#[test]
fn profiling_never_changes_deterministic_artifacts() {
    let base = std::env::temp_dir().join(format!("dlrover-prof-det-{}", std::process::id()));

    // Pass 1: profiling off (the default; pinned explicitly).
    prof::set_enabled(false);
    let off = run_into(&base.join("off"));
    assert!(!off.is_empty(), "experiments produced no artefacts");
    assert!(!base.join("off/prof").exists(), "a dump was written with profiling off");

    // Pass 2: identical work with the profiler recording.
    prof::reset();
    prof::set_enabled(true);
    let on = run_into(&base.join("on"));
    prof::set_enabled(false);

    // The profiler must have actually captured each run, in `path µs` lines...
    for id in IDS {
        let folded = std::fs::read_to_string(base.join(format!("on/prof/{id}.folded")))
            .unwrap_or_else(|e| panic!("no profile dump for {id}: {e}"));
        let weight_of = |site: &str| -> u64 {
            folded
                .lines()
                .filter_map(|l| l.rsplit_once(' '))
                .filter(|(path, _)| path.rsplit(';').next() == Some(site))
                .map(|(_, us)| us.parse::<u64>().expect("integer µs weight"))
                .sum()
        };
        let site = if id == "fig7" { "telemetry/record" } else { "cost/throughput" };
        assert!(
            weight_of("parallel/unit") > 0 && weight_of(site) > 0,
            "{id}: no {site} frames under the pool — instrumentation didn't run:\n{folded}"
        );
    }

    // ...and the artefacts must not know about it: the dump sits in a
    // sub-directory, so the artefact file set is the same with it.
    assert_eq!(
        off.keys().collect::<Vec<_>>(),
        on.keys().collect::<Vec<_>>(),
        "file sets differ with profiling enabled"
    );
    for (name, bytes) in &off {
        assert_eq!(
            bytes, &on[name],
            "{name} differs with profiling enabled — wall-clock leaked into a \
             deterministic artefact"
        );
    }

    // Both passes must still match the committed golden corpus (the same
    // digests `cargo test` enforces for the full registry).
    for id in IDS {
        let trace = String::from_utf8(off[&format!("{id}.trace.jsonl")].clone()).unwrap();
        let spans = String::from_utf8(off[&format!("{id}.spans.jsonl")].clone()).unwrap();
        let got = GoldenDigest::of(&trace, &spans);
        let want = read_golden(id).unwrap_or_else(|| panic!("no golden digest for {id}"));
        assert_eq!(got, want, "{id}: profiled run diverged from the golden corpus");
    }

    std::env::remove_var("DLROVER_RESULTS_DIR");
    let _ = std::fs::remove_dir_all(&base);
}
