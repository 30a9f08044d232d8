//! In-code profiler: scoped *wall-clock* timers over the hot paths of the
//! reproduction itself.
//!
//! Everything else in this crate runs on virtual time so artefacts are
//! byte-reproducible per seed. This module is the deliberate exception: it
//! measures how long the *harness* takes on real hardware, to say which
//! site a wall-clock number from `benchmark/` was spent in. Two rules keep
//! the determinism contract intact:
//!
//! * **Off by default.** [`scope`] is a no-op (one relaxed atomic load,
//!   no allocation, no clock read) unless [`set_enabled`]`(true)` was
//!   called. This module reads no environment: `exp`'s `main` turns the
//!   switch on under `DLROVER_PROF=1`.
//! * **Side-channel output only.** Profiles are read back explicitly via
//!   [`take_profile`]; `exp` drains one per experiment into
//!   `results/prof/<id>.folded` (git-ignored) — never into
//!   `results/<id>.json`, the trace/span JSONL artefacts, or anything a
//!   golden digest covers. A determinism test in `dlrover-bench` runs
//!   experiments with profiling on vs off and asserts byte-identical
//!   artefacts. The dump itself is wall-clock: compare two results
//!   directories recursively (`diff -r`) only with profiling off.
//!
//! # Accumulator design
//!
//! Each thread owns a path-interned call tree in a `thread_local!`:
//! entering a site pushes a frame (interning `(parent, site)` on first
//! visit), leaving it pops the frame and adds elapsed wall time to the
//! node. Attribution is nesting-aware: a node's *self* time is its
//! elapsed time minus the time spent in child scopes, so for every node
//! `self + Σ(child totals) == total` exactly. Because the accumulators
//! are thread-local there is no cross-thread contention on the hot path;
//! a thread folds its tree into the global [`Mutex`]-guarded table when
//! its outermost scope closes (and, as a backstop, on an explicit
//! [`flush`] or when the thread exits).
//!
//! Sites also carry a throughput counter: [`add_items`] attributes work
//! units to the innermost active scope, which turns the
//! timer table into items-per-second rates for free.
//!
//! # Folded-stack export
//!
//! [`Profile::folded`] renders `path;to;site <self-µs>` lines — the
//! format `flamegraph.pl` and speedscope ingest directly — weighted by
//! self time so the flame widths sum correctly.

use serde::Serialize;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Global enable gate. Relaxed ordering is fine: the flag is a sampling
/// switch, not a synchronization point, and scopes opened around a
/// toggle are allowed to land on either side of it.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Global fold of every exited thread's accumulators, keyed by folded
/// path (`"a;b;c"`). Only touched at thread exit / flush / read time.
static GLOBAL: OnceLock<Mutex<BTreeMap<String, SiteStats>>> = OnceLock::new();

fn global() -> &'static Mutex<BTreeMap<String, SiteStats>> {
    GLOBAL.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Turns profiling on or off process-wide. Off is the default; the
/// simulation paths stay wall-clock-free unless a harness opts in.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether profiling is currently enabled (the last [`set_enabled`]).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Accumulated measurements for one call-tree path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct SiteStats {
    /// Times the scope was entered.
    pub calls: u64,
    /// Total wall nanoseconds inside the scope (including children).
    pub total_ns: u64,
    /// Wall nanoseconds attributed to the scope itself (total minus
    /// time spent in child scopes).
    pub self_ns: u64,
    /// Work items attributed via [`add_items`].
    pub items: u64,
}

impl SiteStats {
    fn merge(&mut self, other: &SiteStats) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.items += other.items;
    }
}

/// One interned node of a thread's call tree.
#[derive(Debug)]
struct PathNode {
    /// Static site name (the last path segment).
    site: &'static str,
    /// Index of the parent node, or `usize::MAX` for roots.
    parent: usize,
    stats: SiteStats,
}

/// A live scope on the thread's stack.
#[derive(Debug)]
struct ActiveFrame {
    node: usize,
    started: Instant,
    /// Wall nanoseconds already attributed to completed children, so the
    /// parent's self time is `elapsed - child_ns` on pop.
    child_ns: u64,
}

const NO_PARENT: usize = usize::MAX;

/// Per-thread accumulator: interned path tree + active scope stack.
#[derive(Debug, Default)]
struct ThreadProf {
    nodes: Vec<PathNode>,
    /// `(parent index, site) -> node index` interning table.
    children: BTreeMap<(usize, &'static str), usize>,
    stack: Vec<ActiveFrame>,
    /// Guards dropped out of LIFO order (a bug in instrumentation, not
    /// in the profiled code); counted rather than panicking.
    mismatched: u64,
}

impl ThreadProf {
    fn intern(&mut self, parent: usize, site: &'static str) -> usize {
        if let Some(&idx) = self.children.get(&(parent, site)) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(PathNode { site, parent, stats: SiteStats::default() });
        self.children.insert((parent, site), idx);
        idx
    }

    fn enter(&mut self, site: &'static str) {
        let parent = self.stack.last().map_or(NO_PARENT, |f| f.node);
        let node = self.intern(parent, site);
        self.stack.push(ActiveFrame { node, started: Instant::now(), child_ns: 0 });
    }

    fn exit(&mut self, site: &'static str) {
        match self.stack.pop() {
            Some(frame) if self.nodes[frame.node].site == site => {
                let elapsed = frame.started.elapsed().as_nanos() as u64;
                let stats = &mut self.nodes[frame.node].stats;
                stats.calls += 1;
                stats.total_ns += elapsed;
                stats.self_ns += elapsed.saturating_sub(frame.child_ns);
                if let Some(parent) = self.stack.last_mut() {
                    parent.child_ns += elapsed;
                }
            }
            // No open scope, or an out-of-order drop: put nothing back,
            // count it.
            _ => self.mismatched += 1,
        }
        // Fold into the global table as soon as the outermost scope closes.
        // The TLS destructor alone is not enough: it runs after a scoped
        // thread's closure returns, which is all `std::thread::scope` waits
        // for, so a reader on the spawning thread could miss the samples.
        if self.stack.is_empty() {
            self.flush_into_global();
        }
    }

    fn add_items(&mut self, n: u64) {
        if let Some(f) = self.stack.last() {
            self.nodes[f.node].stats.items += n;
        }
    }

    /// Folded path (`"a;b;c"`) of node `idx`.
    fn path_of(&self, idx: usize) -> String {
        let mut segs = Vec::new();
        let mut cur = idx;
        while cur != NO_PARENT {
            segs.push(self.nodes[cur].site);
            cur = self.nodes[cur].parent;
        }
        segs.reverse();
        segs.join(";")
    }

    /// Folds this thread's tree into the global table and clears it.
    fn flush_into_global(&mut self) {
        if self.nodes.is_empty() && self.mismatched == 0 {
            return;
        }
        let mut table = global().lock().expect("prof global lock poisoned");
        for idx in 0..self.nodes.len() {
            let stats = self.nodes[idx].stats;
            if stats == SiteStats::default() {
                continue;
            }
            table.entry(self.path_of(idx)).or_default().merge(&stats);
        }
        if self.mismatched > 0 {
            let slot = table.entry("prof/mismatched-guards".to_string()).or_default();
            slot.calls += self.mismatched;
        }
        self.nodes.clear();
        self.children.clear();
        self.mismatched = 0;
    }
}

impl Drop for ThreadProf {
    fn drop(&mut self) {
        self.flush_into_global();
    }
}

thread_local! {
    static TLS: RefCell<ThreadProf> = RefCell::new(ThreadProf::default());
}

/// RAII guard for one profiled scope; see [`scope`].
///
/// Not `Send`: the guard must drop on the thread that opened it, because
/// the accumulator it closes is thread-local.
#[derive(Debug)]
pub struct ProfGuard {
    /// `None` when profiling was disabled at entry (no-op guard).
    site: Option<&'static str>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ProfGuard {
    fn drop(&mut self) {
        if let Some(site) = self.site {
            TLS.with(|tls| tls.borrow_mut().exit(site));
        }
    }
}

/// Opens a profiled scope named `site`; the scope closes when the
/// returned guard drops. Nested scopes build a call tree and time inside
/// a child is subtracted from the parent's self time. When profiling is
/// disabled this is a no-op costing one atomic load.
///
/// `site` should be a short static `area/op` name (`"cost/throughput"`,
/// `"shard/epoch"`); nesting supplies the rest of the path.
#[must_use = "the scope ends when the guard drops"]
pub fn scope(site: &'static str) -> ProfGuard {
    if !enabled() {
        return ProfGuard { site: None, _not_send: PhantomData };
    }
    TLS.with(|tls| tls.borrow_mut().enter(site));
    ProfGuard { site: Some(site), _not_send: PhantomData }
}

/// Attributes `n` work items to the innermost active scope on this
/// thread (no-op when profiling is off or no scope is open).
pub fn add_items(n: u64) {
    if enabled() {
        TLS.with(|tls| tls.borrow_mut().add_items(n));
    }
}

/// Folds the *current thread's* accumulators into the global table. Every
/// thread already does so whenever its outermost scope closes, so this is a
/// backstop; call it with no scope open.
pub fn flush() {
    TLS.with(|tls| tls.borrow_mut().flush_into_global());
}

/// A merged snapshot of every flushed thread's accumulators.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Profile {
    /// Folded path (`"a;b;c"`) → accumulated stats, sorted by path.
    pub sites: BTreeMap<String, SiteStats>,
}

impl Profile {
    /// Total self-time nanoseconds across all sites (equals the sum of
    /// root totals when every guard closed cleanly).
    pub(crate) fn total_self_ns(&self) -> u64 {
        self.sites.values().map(|s| s.self_ns).sum()
    }

    /// Stats for an exact folded path, if recorded.
    pub fn site(&self, path: &str) -> Option<&SiteStats> {
        self.sites.get(path)
    }

    /// The path with the most self time and its share of
    /// `Profile::total_self_ns`; `None` for an empty profile.
    pub fn hottest(&self) -> Option<(&str, f64)> {
        let (path, stats) = self.sites.iter().max_by_key(|(_, s)| s.self_ns)?;
        Some((path, stats.self_ns as f64 / self.total_self_ns().max(1) as f64))
    }

    /// Renders the flamegraph-compatible folded-stack form: one
    /// `path;to;site <weight>` line per site, weighted by self-time
    /// microseconds (sites that round to zero weight are kept at 1 µs if
    /// they were entered at all, so no visited path vanishes).
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, stats) in &self.sites {
            let us = (stats.self_ns / 1_000).max(u64::from(stats.calls > 0));
            out.push_str(path);
            out.push(' ');
            out.push_str(&us.to_string());
            out.push('\n');
        }
        out
    }

    /// Merges another profile into this one (summing shared paths).
    pub fn merge(&mut self, other: &Profile) {
        for (path, stats) in &other.sites {
            self.sites.entry(path.clone()).or_default().merge(stats);
        }
    }
}

/// Flushes the calling thread, then drains and returns the global table.
/// The table is left empty, so successive calls bracket distinct
/// measurement windows.
pub fn take_profile() -> Profile {
    flush();
    let mut table = global().lock().expect("prof global lock poisoned");
    Profile { sites: std::mem::take(&mut *table) }
}

/// Clears all accumulated state (calling thread + global table) without
/// returning it.
pub fn reset() {
    let _ = take_profile();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the enable flag and the global table across tests: cargo
    /// runs tests on concurrent threads and both are process-global.
    fn gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().expect("prof test gate poisoned")
    }

    fn with_prof<T>(f: impl FnOnce() -> T) -> T {
        let _g = gate();
        reset();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        reset();
        out
    }

    #[test]
    fn disabled_scope_records_nothing() {
        // The default-off path (gated: draining the table or clearing the
        // flag under another test would fail it).
        let _g = gate();
        set_enabled(false);
        {
            let _g = scope("off/site");
            add_items(10);
        }
        flush();
        let p = take_profile();
        assert!(p.site("off/site").is_none());
    }

    #[test]
    fn nesting_attributes_self_vs_child_exactly() {
        let mut p = with_prof(|| {
            {
                let _outer = scope("outer");
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _inner = scope("inner");
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
            take_profile()
        });
        // The flag is process-wide: a test recording events on another thread
        // while it was up left its `telemetry/record` site in the table too.
        p.sites.retain(|path, _| path.starts_with("outer"));
        let outer = p.site("outer").copied().expect("outer recorded");
        let inner = p.site("outer;inner").copied().expect("inner nested under outer");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        // Exact identity: outer.total == outer.self + inner.total.
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert!(inner.total_ns > 0);
        assert_eq!(p.total_self_ns(), outer.self_ns + inner.self_ns);
    }

    #[test]
    fn items_attach_to_innermost_scope() {
        let p = with_prof(|| {
            {
                let _a = scope("a");
                add_items(3);
                {
                    let _b = scope("b");
                    add_items(7);
                }
            }
            take_profile()
        });
        assert_eq!(p.site("a").unwrap().items, 3);
        assert_eq!(p.site("a;b").unwrap().items, 7);
    }

    #[test]
    fn worker_threads_flush_on_exit_and_merge_by_path() {
        let p = with_prof(|| {
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        let _g = scope("pool/unit");
                        add_items(10);
                    });
                }
            });
            take_profile()
        });
        let unit = p.site("pool/unit").copied().expect("workers flushed at exit");
        assert_eq!(unit.calls, 4);
        assert_eq!(unit.items, 40);
    }

    #[test]
    fn same_site_under_different_parents_stays_distinct() {
        let p = with_prof(|| {
            {
                let _a = scope("a");
                let _m = scope("merge");
            }
            {
                let _b = scope("b");
                let _m = scope("merge");
            }
            take_profile()
        });
        assert_eq!(p.site("a;merge").map(|s| s.calls), Some(1));
        assert_eq!(p.site("b;merge").map(|s| s.calls), Some(1));
    }

    #[test]
    fn folded_lines_are_flamegraph_shaped() {
        let p = with_prof(|| {
            {
                let _a = scope("root");
                let _b = scope("leaf");
            }
            take_profile()
        });
        let folded = p.folded();
        for line in folded.lines() {
            let (path, weight) = line.rsplit_once(' ').expect("`path weight` shape");
            assert!(!path.is_empty());
            assert!(weight.parse::<u64>().is_ok(), "weight must be integer µs: {line}");
        }
        assert!(folded.contains("root;leaf "));
    }

    #[test]
    fn take_profile_drains_the_table() {
        let first = with_prof(|| {
            {
                let _g = scope("drain/me");
            }
            take_profile()
        });
        assert!(first.site("drain/me").is_some());
        let second = take_profile();
        assert!(second.site("drain/me").is_none());
    }

    #[test]
    fn profile_merge_sums_shared_paths() {
        let mut a = Profile::default();
        a.sites.insert("x".into(), SiteStats { calls: 1, total_ns: 10, self_ns: 10, items: 2 });
        let mut b = Profile::default();
        b.sites.insert("x".into(), SiteStats { calls: 2, total_ns: 30, self_ns: 20, items: 3 });
        b.sites.insert("y".into(), SiteStats { calls: 1, total_ns: 5, self_ns: 5, items: 0 });
        a.merge(&b);
        assert_eq!(a.site("x").unwrap().calls, 3);
        assert_eq!(a.site("x").unwrap().total_ns, 40);
        assert_eq!(a.site("x").unwrap().items, 5);
        assert_eq!(a.site("y").unwrap().self_ns, 5);
        assert_eq!(a.hottest(), Some(("x", 30.0 / 35.0)));
        assert_eq!(Profile::default().hottest(), None);
    }

    #[test]
    fn mismatched_drop_order_is_counted_not_fatal() {
        let p = with_prof(|| {
            let a = scope("first");
            let b = scope("second");
            drop(a); // out of order: pops "second"'s frame under "first"'s name
            drop(b);
            take_profile()
        });
        let mm = p.site("prof/mismatched-guards").copied().unwrap_or_default();
        assert!(mm.calls >= 1, "out-of-order guard drops must be counted");
    }
}
