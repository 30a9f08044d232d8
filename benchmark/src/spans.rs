//! The benchmark's own spans: recorded from outside, around the calls into
//! each layer's public functions. Spans inside the crates are a later issue.
//!
//! A span is `{name, start_ns, end_ns, parent, op}`: `name` is
//! `<layer>.<call>`, `parent` the index of the enclosing span, `op` the job,
//! epoch or round every span of one operation shares. Spans stay in memory
//! and are written when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Operation index shared by all spans of one op.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the part of the name before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span; pass it back to [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// In-memory span recorder. A disabled tracer costs one branch per call and
/// never reads the clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    /// Switches recording on or off between passes.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "toggle only between ops");
        self.enabled = enabled;
    }

    /// Sets the op index stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn close(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// The recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e9).collect()
    }
}

/// Self time of each span: its duration minus the part its direct children
/// cover (children of one parent never overlap here: one thread, strict
/// nesting).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self time rolled up by span name and by layer, with the part of
/// `wall_ns` that no root span covers stated as the remainder.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTimeTable {
    /// `(name, calls, self_ns)`, name-ordered.
    pub by_name: Vec<(&'static str, u64, u64)>,
    /// `(layer, self_ns)`, layer-ordered.
    pub by_layer: Vec<(&'static str, u64)>,
    /// Wall time of the traced section.
    pub wall_ns: u64,
    /// `wall_ns` minus the time under root spans.
    pub unattributed_ns: u64,
}

impl SelfTimeTable {
    /// Builds the table for spans recorded over `wall_ns` of traced wall.
    pub fn build(spans: &[Span], wall_ns: u64) -> Self {
        let own = self_times_ns(spans);
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut rooted = 0u64;
        for (s, &self_ns) in spans.iter().zip(&own) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += self_ns;
            *by_layer.entry(s.layer()).or_default() += self_ns;
            if s.parent.is_none() {
                rooted += s.dur_ns();
            }
        }
        SelfTimeTable {
            by_name: by_name.into_iter().map(|(n, (c, t))| (n, c, t)).collect(),
            by_layer: by_layer.into_iter().collect(),
            wall_ns,
            unattributed_ns: wall_ns.saturating_sub(rooted),
        }
    }

    /// Share of the wall time that lies in spans of a named layer other
    /// than `bench` (the harness's own loop code).
    pub fn attributed_share(&self) -> f64 {
        let named: u64 =
            self.by_layer.iter().filter(|(l, _)| *l != "bench").map(|(_, ns)| ns).sum();
        named as f64 / self.wall_ns.max(1) as f64
    }

    /// The table as text, one row per layer then one per span name.
    pub fn render(&self) -> String {
        let pct = |ns: u64| 100.0 * ns as f64 / self.wall_ns.max(1) as f64;
        let mut out = format!("self time over {:.3} s of traced wall\n", self.wall_ns as f64 / 1e9);
        out.push_str("  layer            self_ms   share\n");
        for (layer, ns) in &self.by_layer {
            out.push_str(&format!("  {layer:<14} {:>9.2}  {:>5.1}%\n", *ns as f64 / 1e6, pct(*ns)));
        }
        out.push_str(&format!(
            "  {:<14} {:>9.2}  {:>5.1}%\n",
            "(unattributed)",
            self.unattributed_ns as f64 / 1e6,
            pct(self.unattributed_ns)
        ));
        out.push_str("  span                        calls    self_ms   share\n");
        for (name, calls, ns) in &self.by_name {
            out.push_str(&format!(
                "  {name:<26} {calls:>6} {:>10.2}  {:>5.1}%\n",
                *ns as f64 / 1e6,
                pct(*ns)
            ));
        }
        out
    }
}

/// Writes `spans` as JSON Lines to `path`, creating its directory.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.op
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("core.job", 0, 100, None),
            span("master.tick", 10, 40, Some(0)),
            span("pstrain.advance", 15, 35, Some(1)),
            span("brain.adjust", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 10, 20, 40]);
    }

    #[test]
    fn table_rolls_up_by_layer_and_states_the_remainder() {
        let spans = [
            span("core.job", 0, 100, None),
            span("master.tick", 10, 40, Some(0)),
            span("master.tick", 40, 50, Some(0)),
            span("brain.adjust", 50, 90, Some(0)),
            span("core.job", 120, 200, None),
        ];
        let t = SelfTimeTable::build(&spans, 250);
        assert_eq!(t.by_layer, vec![("brain", 40), ("core", 100), ("master", 40)]);
        assert_eq!(t.by_name[2], ("master.tick", 2, 40));
        assert_eq!(t.unattributed_ns, 250 - 180);
        assert!((t.attributed_share() - 180.0 / 250.0).abs() < 1e-12);
        assert!(t.render().contains("(unattributed)"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("core.job");
        t.close(s);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.set_op(7);
        let outer = t.open("core.job");
        let inner = t.open("master.tick");
        t.close(inner);
        t.close(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
