//! Shared per-experiment test fixture.
//!
//! Experiment `#[test]`s used to re-run their full simulation serially —
//! every shape assertion paid for its own `run(seed)`, and the slowest
//! experiments (fig8's real training) dominated `cargo test`. This module
//! runs each experiment **once** per test process, at the canonical seed,
//! behind a per-experiment `OnceLock`: the first test that needs an
//! experiment's output runs it (writing artefacts to the per-process
//! scratch dir — see [`crate::results_dir`]); every later test — shape
//! assertions and golden-digest checks alike — reads the cached
//! [`ExperimentRun`].
//!
//! Using one canonical seed for all shape tests is deliberate: it is the
//! seed the committed `results/` artefacts and the golden corpus are
//! generated with, so a shape test failing here fails against exactly the
//! numbers a reviewer sees in the repo.

use std::sync::OnceLock;

use crate::experiments::{RunArgs, REGISTRY};
use crate::results_dir;

/// The seed the committed `results/` artefacts, the golden corpus, and all
/// fixture-backed tests use.
pub(crate) const CANONICAL_SEED: u64 = 42;

/// One experiment's cached output: rendered report text plus the three
/// artefacts the run wrote.
pub(crate) struct ExperimentRun {
    /// The rendered report (what `run(seed)` returned).
    pub text: String,
    /// Parsed `results/<id>.json`.
    pub json: serde_json::Value,
    /// Raw `results/<id>.trace.jsonl` bytes (may be empty).
    pub trace: String,
    /// Raw `results/<id>.spans.jsonl` bytes (may be empty).
    pub spans: String,
}

static CELLS: [OnceLock<ExperimentRun>; REGISTRY.len()] =
    [const { OnceLock::new() }; REGISTRY.len()];

/// The canonical-seed run of experiment `id`, executed at most once per
/// process.
///
/// # Panics
/// Panics on an unknown id or when the run fails to produce its artefacts.
pub(crate) fn canonical(id: &str) -> &'static ExperimentRun {
    let idx = REGISTRY
        .iter()
        .position(|(rid, _, _)| *rid == id)
        .unwrap_or_else(|| panic!("unknown experiment id {id:?}"));
    CELLS[idx].get_or_init(|| {
        let (_, _, run) = REGISTRY[idx];
        let (text, _) = run(&RunArgs::new(CANONICAL_SEED));
        let dir = results_dir();
        let read = |suffix: &str| {
            let path = dir.join(format!("{id}.{suffix}"));
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{id} run left no {}: {e}", path.display()))
        };
        let json = serde_json::from_str(&read("json"))
            .unwrap_or_else(|e| panic!("{id}.json is not valid JSON: {e}"));
        ExperimentRun { text, json, trace: read("trace.jsonl"), spans: read("spans.jsonl") }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        canonical("nonesuch");
    }

    #[test]
    fn fixture_is_cached_per_process() {
        // Two lookups return the same allocation (the OnceLock hit), so a
        // second test asserting on the same experiment costs nothing.
        let a = canonical("table1");
        let b = canonical("table1");
        assert!(std::ptr::eq(a, b));
        assert!(a.json.as_object().is_some());
        assert!(a.text.contains("table1"));
    }
}
