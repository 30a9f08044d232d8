//! Golden-trace regression corpus.
//!
//! Every experiment's telemetry artefacts (event trace + span log) are
//! deterministic functions of the canonical seed, so their digests can be
//! committed and diffed like any other expected output. `tests/golden/`
//! holds one small file per experiment with FNV-1a 64 digests of the
//! `.trace.jsonl` and `.spans.jsonl` bytes; a tier-1 test per experiment
//! (see the test module here) re-runs the experiment via the shared
//! `crate::fixture` and asserts the digests match.
//!
//! A mismatch means the run's *telemetry* changed — an event added,
//! reordered, or re-stamped — which is either a regression or an
//! intentional change. For the latter, refresh the corpus with:
//!
//! ```sh
//! cargo run --release -p dlrover-bench --bin exp -- --regen-golden
//! ```
//!
//! and commit the updated digest files together with the change that
//! explains them (EXPERIMENTS.md documents the workflow).

use std::path::PathBuf;

/// FNV-1a 64 over a byte string — the same cheap, dependency-free hash the
/// RNG stream derivation uses; 64 bits is plenty for a corpus of 18
/// hand-reviewed artefacts.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The committed digests of one experiment's telemetry artefacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenDigest {
    /// FNV-1a 64 of the `.trace.jsonl` bytes.
    pub trace_fnv: u64,
    /// FNV-1a 64 of the `.spans.jsonl` bytes.
    pub spans_fnv: u64,
}

impl GoldenDigest {
    /// Digests the two artefact bodies.
    pub fn of(trace: &str, spans: &str) -> GoldenDigest {
        GoldenDigest { trace_fnv: fnv64(trace.as_bytes()), spans_fnv: fnv64(spans.as_bytes()) }
    }

    /// Renders the committed file format (stable, line-oriented).
    pub fn render(&self) -> String {
        format!("trace_fnv=0x{:016x}\nspans_fnv=0x{:016x}\n", self.trace_fnv, self.spans_fnv)
    }

    /// Parses [`Self::render`]'s format. Returns `None` on any malformed
    /// or missing field.
    pub fn parse(text: &str) -> Option<GoldenDigest> {
        let mut trace = None;
        let mut spans = None;
        for line in text.lines() {
            let (key, value) = line.split_once('=')?;
            let value = u64::from_str_radix(value.trim().strip_prefix("0x")?, 16).ok()?;
            match key.trim() {
                "trace_fnv" => trace = Some(value),
                "spans_fnv" => spans = Some(value),
                _ => return None,
            }
        }
        Some(GoldenDigest { trace_fnv: trace?, spans_fnv: spans? })
    }
}

/// The committed corpus directory, `<workspace root>/tests/golden`.
pub(crate) fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join("tests").join("golden")
}

/// Reads experiment `id`'s committed digest, if present and well-formed.
pub fn read_golden(id: &str) -> Option<GoldenDigest> {
    let path = golden_dir().join(format!("{id}.digest"));
    GoldenDigest::parse(&std::fs::read_to_string(path).ok()?)
}

/// Writes experiment `id`'s digest into the corpus (the `--regen-golden`
/// path).
pub fn write_golden(id: &str, digest: &GoldenDigest) -> std::io::Result<()> {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("{id}.digest")), digest.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;

    #[test]
    fn digest_file_format_roundtrips() {
        let d = GoldenDigest { trace_fnv: 0xDEAD_BEEF, spans_fnv: 7 };
        assert_eq!(GoldenDigest::parse(&d.render()), Some(d));
        assert_eq!(GoldenDigest::parse(""), None);
        assert_eq!(GoldenDigest::parse("trace_fnv=0x1\n"), None, "missing field");
        assert_eq!(GoldenDigest::parse("trace_fnv=1\nspans_fnv=0x2\n"), None, "missing 0x");
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv64(b"foobar"), 0x85944171F73967E8);
    }

    /// Asserts experiment `id`'s canonical-seed telemetry matches the
    /// committed corpus digest.
    fn assert_matches_golden(id: &str) {
        let run = fixture::canonical(id);
        let got = GoldenDigest::of(&run.trace, &run.spans);
        let want = read_golden(id).unwrap_or_else(|| {
            panic!(
                "no committed golden digest for {id} — run \
                 `cargo run --release -p dlrover-bench --bin exp -- --regen-golden` \
                 and commit tests/golden/{id}.digest"
            )
        });
        assert_eq!(
            got,
            want,
            "{id}: telemetry diverged from the golden corpus \
             (trace: {} events, spans: {} lines). If the change is intentional, \
             refresh with `exp -- --regen-golden` and commit the diff.",
            run.trace.lines().count(),
            run.spans.lines().count(),
        );
    }

    macro_rules! golden_test {
        ($name:ident, $id:literal) => {
            #[test]
            fn $name() {
                assert_matches_golden($id);
            }
        };
    }

    golden_test!(golden_fig1a, "fig1a");
    golden_test!(golden_fig1b, "fig1b");
    golden_test!(golden_table1, "table1");
    golden_test!(golden_fig3, "fig3");
    golden_test!(golden_table2, "table2");
    golden_test!(golden_fig7, "fig7");
    golden_test!(golden_fig8, "fig8");
    golden_test!(golden_fig9, "fig9");
    golden_test!(golden_fig10, "fig10");
    golden_test!(golden_fig11, "fig11");
    golden_test!(golden_fig12, "fig12");
    golden_test!(golden_fig13, "fig13");
    golden_test!(golden_fig14, "fig14");
    golden_test!(golden_fig15, "fig15");
    golden_test!(golden_table4, "table4");
    golden_test!(golden_ablations, "ablations");
    golden_test!(golden_chaos, "chaos");
    golden_test!(golden_resilience, "resilience");
    golden_test!(golden_ckptplane, "ckptplane");
    golden_test!(golden_tournament, "tournament");
    golden_test!(golden_reconfig, "reconfig");

    /// The registry and the corpus cover each other: every registered
    /// experiment has a golden test above (this asserts the count so a new
    /// experiment cannot be added without extending the corpus).
    #[test]
    fn corpus_covers_the_whole_registry() {
        assert_eq!(
            crate::experiments::REGISTRY.len(),
            21,
            "new experiment registered — add a golden_test! line and regenerate the corpus"
        );
    }
}
