//! Report plumbing: pretty tables on stdout + JSON rows under the
//! workspace-root `results/` directory.

use std::fmt::Display;
use std::fs;
use std::path::{Path, PathBuf};

use dlrover_telemetry::{parse_spans_jsonl, prof, Telemetry};
use serde::Serialize;

use crate::critpath::critpath_report;

/// The artefact directory reports are written to and read back from.
///
/// Resolution order:
/// 1. `DLROVER_RESULTS_DIR`, when set and non-empty — explicit override for
///    CI jobs or ad-hoc runs that must not touch the checked-in artefacts.
/// 2. Under `cargo test`, a per-process scratch directory beneath `target/`.
///    Experiment `#[test]`s invoke the same `run_*` entry points as the `exp`
///    binary but at their own seeds (and two tests may write the same file
///    with *different* seeds), so letting them write the workspace `results/`
///    dir would overwrite the canonical seed-42 measurements with
///    race-dependent test artefacts. Only `exp` regenerates `results/`.
/// 3. Otherwise the canonical `<workspace root>/results`, resolved from this
///    crate's manifest so it is identical no matter which directory the
///    harness was invoked from. (Historically the relative `results/` path
///    produced a second copy under `crates/bench/results/` whenever the
///    harness ran with the crate as its working directory.)
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("DLROVER_RESULTS_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    default_results_dir()
}

#[cfg(not(test))]
fn default_results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join("results")
}

#[cfg(test)]
fn default_results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("target")
        .join(format!("test-results-{}", std::process::id()))
}

/// Writes `contents` to `path` atomically: the bytes land in a sibling
/// temp file first and are renamed into place only once fully written.
/// A run that dies mid-write (OOM-killed tournament, ctrl-C'd `exp all`)
/// therefore leaves either the previous artefact or the complete new one —
/// never a truncated `results/<id>.json` for a CI byte-diff to chase. On
/// failure the temp file is removed and the destination is untouched.
pub fn atomic_write(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| std::io::Error::other("atomic_write needs a file name"))?;
    // Same directory as the destination so the rename cannot cross a
    // filesystem boundary; pid-qualified so concurrent processes sharing
    // a results dir cannot clobber each other's staging file.
    let tmp = path.with_file_name(format!(".{file_name}.{}.tmp", std::process::id()));
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// With the wall-clock profiler on (`DLROVER_PROF=1 exp ...`), drains what
/// it recorded since the last drain into `results/prof/<id>.folded`
/// (flamegraph input, git-ignored) and returns the hottest site as
/// `path NN% of self time` for the caller's summary line. `None` with the
/// profiler off or when no scope ran.
///
/// The dump is outside every golden digest and every per-file comparison
/// of `results/<id>.*`, but it is wall-clock inside the results directory:
/// a recursive `diff -r` of two results directories (CI's thread matrix)
/// sees it, so such a comparison must run with `DLROVER_PROF` unset.
pub fn dump_profile(id: &str) -> Option<String> {
    if !prof::enabled() {
        return None;
    }
    let profile = prof::take_profile();
    let (path, share) = profile.hottest()?;
    let dir = results_dir().join("prof");
    let out = dir.join(format!("{id}.folded"));
    if let Err(e) =
        fs::create_dir_all(&dir).and_then(|()| atomic_write(&out, profile.folded().as_bytes()))
    {
        eprintln!("cannot write {}: {e}", out.display());
    }
    Some(format!("{path} {:.0}% of self time", share * 100.0))
}

/// Collects one experiment's output.
pub struct Report {
    id: String,
    lines: Vec<String>,
    json: serde_json::Map<String, serde_json::Value>,
    trace: Option<String>,
    spans: Option<String>,
}

impl Report {
    /// Starts a report for experiment `id` (e.g. `"fig7"`).
    pub fn new(id: &str, title: &str) -> Self {
        let mut r = Report {
            id: id.to_string(),
            lines: Vec::new(),
            json: serde_json::Map::new(),
            trace: None,
            spans: None,
        };
        r.section(&format!("{id}: {title}"));
        r
    }

    /// Adds a section header.
    pub fn section(&mut self, title: &str) {
        self.lines.push(String::new());
        self.lines.push(format!("== {title} =="));
    }

    /// Adds one free-form line.
    pub fn line(&mut self, text: impl Display) {
        self.lines.push(text.to_string());
    }

    /// Adds a row of right-aligned columns.
    pub fn row(&mut self, cols: &[String], widths: &[usize]) {
        let mut out = String::new();
        for (c, w) in cols.iter().zip(widths) {
            out.push_str(&format!("{c:>w$} ", w = w));
        }
        self.lines.push(out.trim_end().to_string());
    }

    /// Attaches a machine-readable value to the JSON output.
    pub fn record<T: Serialize>(&mut self, key: &str, value: &T) {
        self.json.insert(
            key.to_string(),
            serde_json::to_value(value).expect("serialisable experiment value"),
        );
    }

    /// Attaches a telemetry sink's summary and event trace: prints a
    /// one-line digest, records the summary under the `"telemetry"` JSON
    /// key, and (in [`Report::finish`]) writes the full event log next to
    /// the results as `results/<id>.trace.jsonl`.
    pub fn telemetry(&mut self, t: &Telemetry) {
        let summary = t.summary();
        self.lines.push(format!("telemetry: {}", summary.one_line()));
        self.record("telemetry", &summary);
        self.trace = Some(t.to_jsonl());
        self.spans = Some(t.spans_to_jsonl());
    }

    /// Prints the report and writes `results/<id>.json` (plus, when
    /// telemetry was attached, `results/<id>.trace.jsonl`,
    /// `results/<id>.spans.jsonl`, and the critical-path breakdown
    /// `results/<id>.critpath.json`). Returns the rendered text.
    pub fn finish(self) -> String {
        let text = self.lines.join("\n");
        println!("{text}");
        let dir = results_dir();
        if fs::create_dir_all(&dir).is_ok() {
            let path = dir.join(format!("{}.json", self.id));
            let _ = atomic_write(
                &path,
                serde_json::to_string_pretty(&serde_json::Value::Object(self.json))
                    .expect("report JSON")
                    .as_bytes(),
            );
            if let Some(trace) = &self.trace {
                let _ =
                    atomic_write(&dir.join(format!("{}.trace.jsonl", self.id)), trace.as_bytes());
            }
            if let Some(spans) = &self.spans {
                let _ =
                    atomic_write(&dir.join(format!("{}.spans.jsonl", self.id)), spans.as_bytes());
                if let Some(parsed) = parse_spans_jsonl(spans) {
                    if !parsed.is_empty() {
                        let report = critpath_report(&parsed);
                        let _ = atomic_write(
                            &dir.join(format!("{}.critpath.json", self.id)),
                            serde_json::to_string_pretty(&report)
                                .expect("critpath JSON")
                                .as_bytes(),
                        );
                    }
                }
            }
        }
        text
    }
}

/// Percentile of a *sorted* slice (p in [0, 100]).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Sorts a vector and returns it (convenience for percentile chains).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in metric"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles() {
        let v = sorted(vec![3.0, 1.0, 2.0, 4.0, 5.0]);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
    }

    #[test]
    fn test_reports_route_to_scratch_not_canonical_results() {
        if std::env::var("DLROVER_RESULTS_DIR").is_ok() {
            return; // explicit override wins; nothing to assert here
        }
        let dir = results_dir();
        assert!(
            dir.ends_with(format!("target/test-results-{}", std::process::id())),
            "test-invoked reports must land in the per-process scratch dir, got {}",
            dir.display()
        );
    }

    #[test]
    fn atomic_write_replaces_existing_content_without_tmp_debris() {
        let dir = results_dir().join("atomic-replace");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic-demo.json");
        atomic_write(&path, b"{\"v\":1}").unwrap();
        atomic_write(&path, b"{\"v\":2}").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        let debris: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(debris.is_empty(), "staging files left behind: {debris:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression (tournament satellite): a run that cannot complete its
    /// write must leave the destination exactly as it was — here the
    /// rename fails because the destination is a non-empty directory, and
    /// neither a partial artefact nor a staging file survives.
    #[test]
    fn atomic_write_failure_leaves_destination_untouched() {
        let dir = results_dir().join("atomic-failure");
        let dest = dir.join("atomic-blocked");
        fs::create_dir_all(dest.join("occupied")).unwrap();
        assert!(atomic_write(&dest, b"new content").is_err());
        assert!(dest.is_dir(), "failed write must not replace the destination");
        assert!(dest.join("occupied").is_dir());
        let debris: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(debris.is_empty(), "staging files left behind: {debris:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_renders_rows() {
        let mut r = Report::new("test", "demo");
        r.row(&["a".into(), "b".into()], &[4, 6]);
        r.record("x", &42);
        let text = r.finish();
        assert!(text.contains("== test: demo =="));
        assert!(text.contains("a"));
    }
}
