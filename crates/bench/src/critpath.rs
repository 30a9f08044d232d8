//! Critical-path extraction over span logs.
//!
//! Answers the question the flat event log cannot: *which phase was job
//! completion time actually spent on?* Every elementary virtual-time
//! interval of a track is attributed to the most blocking span covering it
//! (checkpoint pauses beat migrations beat iterations, etc. — see
//! [`blocking_rank`]), so Table 2's migration-overhead claim and the
//! Fig. 12/13 straggler stories come with a machine-checked breakdown
//! instead of eyeballed timelines.

use dlrover_telemetry::{Span, SpanCategory};
use serde::Serialize;
use std::collections::BTreeMap;

/// How strongly a category *blocks* training when active. When several
/// spans cover the same instant, the interval is charged to the highest
/// rank (ties break to the deeper/younger span). Full pauses (checkpoint
/// handoffs, rebalancing data moves) outrank degraded running, which
/// outranks normal iteration phases; the job root ranks below everything so
/// it only catches otherwise-unattributed time.
pub fn blocking_rank(cat: SpanCategory) -> u32 {
    match cat {
        SpanCategory::Checkpoint => 110,
        SpanCategory::Rebalance => 100,
        SpanCategory::Migration => 90,
        SpanCategory::Preemption => 85,
        SpanCategory::PodStartup => 80,
        SpanCategory::Straggler => 75,
        SpanCategory::IterLookup
        | SpanCategory::IterPush
        | SpanCategory::IterPull
        | SpanCategory::IterCompute => 60,
        SpanCategory::Iteration => 50,
        SpanCategory::Scheduling => 40,
        SpanCategory::Planning => 30,
        SpanCategory::PolicyEval => 25,
        SpanCategory::OomPredict => 20,
        SpanCategory::Job => 10,
    }
}

/// Phase attribution of one timeline (one track, or everything merged).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CritPath {
    /// First span start, microseconds.
    pub start_us: u64,
    /// Last span end, microseconds.
    pub end_us: u64,
    /// `end_us - start_us`.
    pub makespan_us: u64,
    /// Microseconds attributed to each category name; time covered by no
    /// span at all lands in `"idle"`.
    pub phases_us: BTreeMap<String, u64>,
    /// `phases_us` as fractions of the makespan.
    pub fractions: BTreeMap<String, String>,
    /// The category carrying the most attributed time.
    pub dominant: String,
    /// Spans analyzed.
    pub span_count: usize,
}

impl CritPath {
    /// Fraction of the makespan attributed to `phase` (0.0 when absent).
    pub fn fraction(&self, phase: &str) -> f64 {
        if self.makespan_us == 0 {
            return 0.0;
        }
        *self.phases_us.get(phase).unwrap_or(&0) as f64 / self.makespan_us as f64
    }

    /// Sum of fractions over several phases.
    pub fn fraction_of(&self, phases: &[&str]) -> f64 {
        phases.iter().map(|p| self.fraction(p)).sum()
    }
}

/// Attributes every elementary interval of `[min start, max end]` to the
/// highest-[`blocking_rank`] span covering it. O(S log S) via a boundary
/// sweep. Zero-length (instant) spans carry no time and are skipped; an
/// empty input produces an all-zero result.
pub fn critical_path(spans: &[Span]) -> CritPath {
    // Depth (distance to root) refines the rank tie-break: a child span is
    // more specific than its parent of equal rank.
    let mut depth: BTreeMap<u64, u32> = BTreeMap::new();
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    fn depth_of(id: u64, by_id: &BTreeMap<u64, &Span>, memo: &mut BTreeMap<u64, u32>) -> u32 {
        if let Some(&d) = memo.get(&id) {
            return d;
        }
        let d = match by_id.get(&id).and_then(|s| s.parent) {
            Some(p) if by_id.contains_key(&p) => depth_of(p, by_id, memo) + 1,
            _ => 0,
        };
        memo.insert(id, d);
        d
    }

    // Sort/active-set key: (blocking rank, depth, span id).
    type SweepKey = (u32, u32, u64);
    // Boundary events: (time, is_end, key, category).
    let mut bounds: Vec<(u64, bool, SweepKey, SpanCategory)> = Vec::new();
    for s in spans {
        if s.end_us <= s.start_us {
            continue;
        }
        let key = (blocking_rank(s.cat), depth_of(s.id, &by_id, &mut depth), s.id);
        bounds.push((s.start_us, false, key, s.cat));
        bounds.push((s.end_us, true, key, s.cat));
    }
    if bounds.is_empty() {
        return CritPath {
            start_us: 0,
            end_us: 0,
            makespan_us: 0,
            phases_us: BTreeMap::new(),
            fractions: BTreeMap::new(),
            dominant: "idle".to_string(),
            span_count: spans.len(),
        };
    }
    // Ends before starts at equal times, so back-to-back spans don't
    // overlap for a zero-length instant.
    bounds.sort_by_key(|&(t, is_end, key, _)| (t, !is_end, key));

    let mut active: std::collections::BTreeSet<((u32, u32, u64), u8)> =
        std::collections::BTreeSet::new();
    // Category is folded into the set entry (as a discriminant) so we can
    // recover it from the max element.
    let mut cat_of: BTreeMap<u64, SpanCategory> = BTreeMap::new();
    let mut phases_us: BTreeMap<String, u64> = BTreeMap::new();
    let start_us = bounds.iter().map(|b| b.0).min().unwrap();
    let end_us = bounds.iter().map(|b| b.0).max().unwrap();
    let mut cursor = start_us;

    for (t, is_end, key, cat) in bounds {
        if t > cursor {
            let charged = match active.iter().next_back() {
                Some(&((_, _, id), _)) => cat_of[&id].name(),
                None => "idle",
            };
            *phases_us.entry(charged.to_string()).or_insert(0) += t - cursor;
            cursor = t;
        }
        if is_end {
            active.remove(&(key, 0));
            cat_of.remove(&key.2);
        } else {
            cat_of.insert(key.2, cat);
            active.insert((key, 0));
        }
    }

    let makespan_us = end_us - start_us;
    let dominant = phases_us
        .iter()
        .max_by_key(|&(name, &us)| (us, std::cmp::Reverse(name.clone())))
        .map(|(name, _)| name.clone())
        .unwrap_or_else(|| "idle".to_string());
    let fractions = phases_us
        .iter()
        .map(|(name, &us)| (name.clone(), format!("{:.4}", us as f64 / makespan_us.max(1) as f64)))
        .collect();
    CritPath {
        start_us,
        end_us,
        makespan_us,
        phases_us,
        fractions,
        dominant,
        span_count: spans.len(),
    }
}

/// Runs [`critical_path`] independently per track, sorted by track id.
pub fn critical_path_by_track(spans: &[Span]) -> BTreeMap<u64, CritPath> {
    let mut tracks: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans {
        tracks.entry(s.track).or_default().push(s.clone());
    }
    tracks.into_iter().map(|(t, spans)| (t, critical_path(&spans))).collect()
}

/// The full per-experiment report written to `results/<id>.critpath.json`:
/// the merged attribution plus one per track.
#[derive(Debug, Clone, Serialize)]
pub struct CritPathReport {
    /// Attribution over all spans merged.
    pub overall: CritPath,
    /// Attribution per track.
    pub by_track: BTreeMap<u64, CritPath>,
}

/// Builds the standard report for a span set.
pub fn critpath_report(spans: &[Span]) -> CritPathReport {
    CritPathReport { overall: critical_path(spans), by_track: critical_path_by_track(spans) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, cat: SpanCategory, track: u64, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            cat,
            label: "".into(),
            track,
            start_us: s * 1_000_000,
            end_us: e * 1_000_000,
        }
    }

    #[test]
    fn empty_input_is_all_idle() {
        let cp = critical_path(&[]);
        assert_eq!(cp.makespan_us, 0);
        assert_eq!(cp.dominant, "idle");
    }

    #[test]
    fn pause_outranks_iteration() {
        // iteration [0,10]; checkpoint [4,6] nested: 8 s iteration, 2 s
        // checkpoint.
        let spans = vec![
            span(0, None, SpanCategory::Iteration, 1, 0, 10),
            span(1, Some(0), SpanCategory::Checkpoint, 1, 4, 6),
        ];
        let cp = critical_path(&spans);
        assert_eq!(cp.makespan_us, 10_000_000);
        assert_eq!(cp.phases_us["iteration"], 8_000_000);
        assert_eq!(cp.phases_us["checkpoint"], 2_000_000);
        assert_eq!(cp.dominant, "iteration");
    }

    #[test]
    fn gaps_are_idle_time() {
        let spans = vec![
            span(0, None, SpanCategory::Iteration, 1, 0, 4),
            span(1, None, SpanCategory::Iteration, 1, 6, 10),
        ];
        let cp = critical_path(&spans);
        assert_eq!(cp.phases_us["idle"], 2_000_000);
        assert_eq!(cp.phases_us["iteration"], 8_000_000);
    }

    #[test]
    fn phase_children_refine_their_parent() {
        // Parent iteration fully tiled by phase children: no time should be
        // charged to the bare `iteration` category.
        let spans = vec![
            span(0, None, SpanCategory::Iteration, 1, 0, 10),
            span(1, Some(0), SpanCategory::IterLookup, 1, 0, 4),
            span(2, Some(0), SpanCategory::IterCompute, 1, 4, 10),
        ];
        let cp = critical_path(&spans);
        assert_eq!(cp.fraction("iteration"), 0.0);
        assert_eq!(cp.phases_us["iteration/lookup"], 4_000_000);
        assert_eq!(cp.phases_us["iteration/compute"], 6_000_000);
        assert_eq!(cp.dominant, "iteration/compute");
    }

    #[test]
    fn instant_spans_carry_no_time() {
        let spans = vec![
            span(0, None, SpanCategory::Iteration, 1, 0, 10),
            span(1, None, SpanCategory::OomPredict, 1, 5, 5),
        ];
        let cp = critical_path(&spans);
        assert_eq!(cp.fraction("oom-predict"), 0.0);
        assert_eq!(cp.phases_us["iteration"], 10_000_000);
    }

    #[test]
    fn tracks_are_analyzed_independently() {
        let spans = vec![
            span(0, None, SpanCategory::Iteration, 1, 0, 10),
            span(1, None, SpanCategory::Migration, 2, 0, 4),
        ];
        let by = critical_path_by_track(&spans);
        assert_eq!(by.len(), 2);
        assert_eq!(by[&1].dominant, "iteration");
        assert_eq!(by[&2].dominant, "migration");
        // Merged view charges the migration window to the higher rank.
        let merged = critical_path(&spans);
        assert_eq!(merged.phases_us["migration"], 4_000_000);
        assert_eq!(merged.phases_us["iteration"], 6_000_000);
    }

    #[test]
    fn fractions_sum_to_one() {
        let spans = vec![
            span(0, None, SpanCategory::Iteration, 1, 0, 7),
            span(1, Some(0), SpanCategory::Checkpoint, 1, 2, 3),
            span(2, None, SpanCategory::Migration, 1, 9, 12),
        ];
        let cp = critical_path(&spans);
        let total: u64 = cp.phases_us.values().sum();
        assert_eq!(total, cp.makespan_us);
    }
}
