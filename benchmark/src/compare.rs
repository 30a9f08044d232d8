//! `benchmark compare A.json B.json`: one verdict per (metric, workload),
//! from the bounds the benchmark fixes and the quartiles the runs recorded.
//! `A` is the parent, `B` the change (or a second set of runs of one commit,
//! for the self-agreement check).

use serde_json::Value;

use crate::metrics::{Better, END_TO_END};

/// Outcome for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the parent by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worse than the parent by more than the bound.
    Worse,
    /// The runs of one side spread wider than the bound: the difference,
    /// whatever it reads, is not resolved.
    Unresolved,
}

impl Verdict {
    /// Lower-case word for the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A host metric as one set of runs recorded it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recorded {
    /// Median over the runs.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Recorded {
    fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Verdict for a host metric: `b` against parent `a`, under `bound` (a
/// share of the parent's median).
pub fn judge(a: Recorded, b: Recorded, better: Better, bound: f64) -> Verdict {
    if a.relative_iqr() > bound || b.relative_iqr() > bound {
        return Verdict::Unresolved;
    }
    let worsening = match better {
        Better::Lower => (b.median - a.median) / a.median.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (a.median - b.median) / a.median.abs().max(f64::MIN_POSITIVE),
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Verdict for a value that repeats exactly per seed (`sim_*`, `auc_min`):
/// any difference is a difference.
pub fn judge_exact(a: f64, b: f64, better: Better) -> Verdict {
    if a.to_bits() == b.to_bits() {
        Verdict::Same
    } else if (b < a) == (better == Better::Lower) {
        Verdict::Better
    } else {
        Verdict::Worse
    }
}

/// The exact side values `run` records per workload, with their direction.
const EXACT: [(&str, Better); 4] = [
    ("sim_jct_mean_s", Better::Lower),
    ("sim_jct_p95_s", Better::Lower),
    ("sim_core_hours_per_msample", Better::Lower),
    ("auc_min", Better::Higher),
];

fn recorded(v: &Value) -> Option<Recorded> {
    Some(Recorded {
        median: v.get("median")?.as_f64()?,
        q1: v.get("q1")?.as_f64()?,
        q3: v.get("q3")?.as_f64()?,
    })
}

/// Compares two `run` summaries. Returns the table and the number of
/// *worse* verdicts (the caller's exit status).
pub fn compare(a: &Value, b: &Value) -> Result<(String, usize), String> {
    let workloads = a["workloads"].as_object().ok_or("A has no workloads object")?;
    let mut out = format!(
        "{:<14} {:<28} {:>14} {:>14} {:>8}  verdict\n",
        "workload", "metric", "A", "B", "bound"
    );
    let mut worse = 0;
    let mut row = |w: &str, m: &str, av: f64, bv: f64, bound: &str, v: Verdict| {
        worse += usize::from(v == Verdict::Worse);
        out.push_str(&format!("{w:<14} {m:<28} {av:>14.6} {bv:>14.6} {bound:>8}  {}\n", v.word()));
    };
    for (name, wa) in workloads.iter() {
        let wb = &b["workloads"][name.as_str()];
        if wb.is_null() {
            return Err(format!("B has no workload {name}"));
        }
        for e in END_TO_END {
            let (Some(ra), Some(rb)) =
                (recorded(&wa["metrics"][e.name]), recorded(&wb["metrics"][e.name]))
            else {
                return Err(format!("{name}: {} missing on one side", e.name));
            };
            let bound = format!("{:.0}%", e.bound * 100.0);
            row(name, e.name, ra.median, rb.median, &bound, judge(ra, rb, e.better, e.bound));
        }
        let fail = |w: &Value| {
            w["failed"].as_f64().unwrap_or(0.0) / w["attempted"].as_f64().unwrap_or(1.0)
        };
        row(
            name,
            "fail_share",
            fail(wa),
            fail(wb),
            "0",
            judge_exact(fail(wa), fail(wb), Better::Lower),
        );
        for (key, better) in EXACT {
            if let (Some(x), Some(y)) = (wa["exact"][key].as_f64(), wb["exact"][key].as_f64()) {
                row(name, key, x, y, "exact", judge_exact(x, y, better));
            }
        }
        // A different digest with equal means is still a different simulation.
        let (da, db) = (wa["exact"]["sim_digest"].as_str(), wb["exact"]["sim_digest"].as_str());
        if da != db {
            row(name, &format!("sim_digest {da:?} vs {db:?}"), 0.0, 1.0, "exact", Verdict::Worse);
        }
    }
    Ok((out, worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Recorded {
        Recorded { median, q1: median * 0.99, q3: median * 1.01 }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        use Better::{Higher, Lower};
        // ops_per_s, higher is better, 10% bound.
        assert_eq!(judge(tight(100.0), tight(95.0), Higher, 0.10), Verdict::Same);
        assert_eq!(judge(tight(100.0), tight(85.0), Higher, 0.10), Verdict::Worse);
        assert_eq!(judge(tight(100.0), tight(115.0), Higher, 0.10), Verdict::Better);
        // step_p99_ms, lower is better.
        assert_eq!(judge(tight(10.0), tight(13.0), Lower, 0.20), Verdict::Worse);
        assert_eq!(judge(tight(10.0), tight(7.0), Lower, 0.20), Verdict::Better);
        assert_eq!(judge(tight(10.0), tight(11.0), Lower, 0.20), Verdict::Same);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let noisy = Recorded { median: 100.0, q1: 90.0, q3: 110.0 };
        assert_eq!(judge(noisy, tight(100.0), Better::Higher, 0.10), Verdict::Unresolved);
        assert_eq!(judge(tight(100.0), noisy, Better::Higher, 0.10), Verdict::Unresolved);
        // Even a large apparent loss stays unresolved when a side is noisy.
        assert_eq!(judge(noisy, tight(50.0), Better::Higher, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn exact_values_compare_by_bits() {
        assert_eq!(judge_exact(1275.8, 1275.8, Better::Lower), Verdict::Same);
        assert_eq!(judge_exact(1275.8, 1275.9, Better::Lower), Verdict::Worse);
        assert_eq!(judge_exact(1275.8, 1270.0, Better::Lower), Verdict::Better);
        assert_eq!(judge_exact(0.74, 0.73, Better::Higher), Verdict::Worse);
        assert_eq!(judge_exact(0.0, 0.0, Better::Lower), Verdict::Same);
    }

    #[test]
    fn compare_counts_worse_rows() {
        let side = |ops: f64| {
            let m = |v: f64| serde_json::json!({ "median": v, "q1": v * 0.99, "q3": v * 1.01 });
            // (The vendored `json!` takes nested objects as expressions only.)
            let metrics = serde_json::json!({
                "ops_per_s": m(ops), "step_p99_ms": m(10.0),
                "peak_rss_mb": m(50.0), "setup_s": m(0.001)
            });
            let exact = serde_json::json!({ "sim_jct_mean_s": 1275.5, "sim_digest": "0x1" });
            let workload = serde_json::json!({
                "attempted": 100, "failed": 0, "metrics": metrics, "exact": exact
            });
            serde_json::json!({ "workloads": serde_json::json!({ "elastic-jobs": workload }) })
        };
        let (table, worse) = compare(&side(100.0), &side(70.0)).unwrap();
        assert_eq!(worse, 1, "{table}");
        assert!(table.contains("ops_per_s") && table.contains("worse"));
        let (_, worse) = compare(&side(100.0), &side(100.0)).unwrap();
        assert_eq!(worse, 0);
        let empty =
            serde_json::json!({ "workloads": serde_json::Value::Object(Default::default()) });
        assert!(compare(&side(100.0), &empty).is_err());
    }
}
