//! Deterministic parallel execution engine for experiment units.
//!
//! The paper's evaluation (§7) is a sweep of *independent* simulations —
//! per-figure rows, per-seed fleet replicas, per-plan chaos jobs — exactly
//! the embarrassingly-parallel shape cluster schedulers exploit. This
//! module fans those units across a worker pool while keeping the repo's
//! determinism contract (bit-reproducible per seed) intact:
//!
//! 1. **Isolated inputs.** Every [`Unit`] owns its inputs: experiments fork
//!    a private RNG lineage per unit (`RngStreams::fork` or a per-unit
//!    seed) and the pool hands each unit a private [`Telemetry`] sink, so
//!    no unit can observe another's draws or log interleaving.
//! 2. **Order-independent merge.** [`run_units`] returns outputs stably
//!    sorted by unit key (keys must be unique), and
//!    [`merge_telemetry`] absorbs the per-unit sinks in that same key
//!    order. The reduction is therefore a pure function of the unit
//!    results — output JSON and trace bytes are identical at any thread
//!    count, which the golden-corpus tests and the CI determinism matrix
//!    both enforce.
//!
//! The pool itself is a work-stealing-free index queue on `std::thread`
//! (`thread::scope` + one shared `AtomicUsize` cursor). The vendored
//! dependency set has no crossbeam, and the units here are
//! coarse (milliseconds to tens of seconds each), so a lock-free deque
//! would buy nothing; see DESIGN.md §8.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dlrover_telemetry::Telemetry;

/// One independent piece of experiment work: a unique key (sort position in
/// the merged output) plus a closure from a private telemetry sink to the
/// unit's result.
pub struct Unit<'scope, T> {
    key: String,
    run: Box<dyn FnOnce(&Telemetry) -> T + Send + 'scope>,
}

impl<'scope, T> Unit<'scope, T> {
    /// Creates a unit. `key` must be unique within one [`run_units`] call
    /// and determines the unit's position in the returned outputs — use
    /// zero-padded index prefixes (e.g. `"03/model-y/es"`) when the merge
    /// order must follow submission order.
    pub fn new(key: impl Into<String>, run: impl FnOnce(&Telemetry) -> T + Send + 'scope) -> Self {
        Unit { key: key.into(), run: Box::new(run) }
    }

    /// The unit's key.
    pub fn key(&self) -> &str {
        &self.key
    }
}

/// The result of one unit: its key, its return value, and the private sink
/// it recorded into.
pub struct UnitOutput<T> {
    /// The unit's key (outputs are sorted by this).
    pub key: String,
    /// The unit closure's return value.
    pub value: T,
    /// The unit's private telemetry sink.
    pub telemetry: Telemetry,
}

/// Thread-count override set by the `exp` CLI (0 = not set).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the pool width used by [`run_units_auto`] (the `--threads N` CLI
/// flag). `0` restores the default, the machine's available parallelism.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The pool width [`run_units_auto`] will use: the [`set_threads`]
/// override, else the machine's available parallelism.
pub fn threads() -> usize {
    let n = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if n > 0 {
        return n;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `units` on a pool of `threads` workers and returns every unit's
/// output, stably sorted by unit key.
///
/// Determinism: each unit runs against a fresh [`Telemetry`] sink and must
/// derive all randomness from its own inputs (fork a lineage per unit), so
/// a unit's output is independent of scheduling. Sorting by the unique keys
/// then makes the returned `Vec` — values *and* sinks — byte-for-byte
/// independent of the thread count, including `threads == 1`, which runs
/// the units inline on the caller's thread in submission order.
///
/// # Panics
/// Panics when two units share a key (the merge order would be ambiguous),
/// and propagates any panic raised inside a unit.
pub fn run_units<T: Send>(units: Vec<Unit<'_, T>>, threads: usize) -> Vec<UnitOutput<T>> {
    {
        let mut keys: Vec<&str> = units.iter().map(|u| u.key()).collect();
        keys.sort_unstable();
        if let Some(w) = keys.windows(2).find(|w| w[0] == w[1]) {
            panic!("duplicate unit key {:?}: merge order would be ambiguous", w[0]);
        }
    }
    let n = units.len();
    let mut outputs: Vec<UnitOutput<T>> = if threads <= 1 || n <= 1 {
        units.into_iter().map(run_one).collect()
    } else {
        let slots: Vec<Mutex<Option<Unit<'_, T>>>> =
            units.into_iter().map(|u| Mutex::new(Some(u))).collect();
        let done: Vec<Mutex<Option<UnitOutput<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads.min(n) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let unit =
                        slots[i].lock().expect("unit slot").take().expect("each unit taken once");
                    let out = run_one(unit);
                    *done[i].lock().expect("output slot") = Some(out);
                });
            }
        });
        done.into_iter()
            .map(|m| m.into_inner().expect("output slot").expect("every unit produced an output"))
            .collect()
    };
    outputs.sort_by(|a, b| a.key.cmp(&b.key));
    outputs
}

/// [`run_units`] at the globally configured width (see [`threads`]).
pub fn run_units_auto<T: Send>(units: Vec<Unit<'_, T>>) -> Vec<UnitOutput<T>> {
    let width = threads();
    run_units(units, width)
}

/// Events each fresh unit sink pre-allocates for. Experiment units record
/// hundreds to a few thousand events; reserving up front replaces the
/// doubling-growth reallocations (and the copies they imply) that
/// previously dominated small-unit dispatch. Purely an allocation hint —
/// sink contents and serialized bytes are unchanged.
const UNIT_SINK_EVENT_HINT: usize = 1_024;

fn run_one<T>(unit: Unit<'_, T>) -> UnitOutput<T> {
    let _p = dlrover_telemetry::prof::scope("parallel/unit");
    let telemetry = Telemetry::default();
    telemetry.reserve_events(UNIT_SINK_EVENT_HINT);
    let value = (unit.run)(&telemetry);
    UnitOutput { key: unit.key, value, telemetry }
}

/// Merges the outputs' per-unit sinks into one sink, in key order (the
/// outputs of [`run_units`] are already key-sorted). See
/// [`Telemetry::merge_ordered`] for the merge semantics.
pub fn merge_telemetry<T>(outputs: &[UnitOutput<T>]) -> Telemetry {
    let _p = dlrover_telemetry::prof::scope("parallel/merge");
    Telemetry::merge_ordered(outputs.iter().map(|o| &o.telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrover_sim::{RngStreams, SimTime};
    use dlrover_telemetry::EventKind;
    use rand::RngCore;

    fn demo_units<'a>(root: &'a RngStreams, n: u64) -> Vec<Unit<'a, u64>> {
        (0..n)
            .map(|i| {
                let key = format!("{i:02}");
                let fork_key = key.clone();
                Unit::new(key, move |t: &Telemetry| {
                    let mut rng = root.fork(&fork_key).stream("payload");
                    let v = rng.next_u64();
                    t.record(SimTime::from_micros(v % 1000), EventKind::JobStarted { job: i });
                    t.count("units", 1);
                    v
                })
            })
            .collect()
    }

    fn digest<T>(outputs: &[UnitOutput<T>]) -> (String, String) {
        let merged = merge_telemetry(outputs);
        (merged.to_jsonl(), merged.spans_to_jsonl())
    }

    #[test]
    fn outputs_are_key_sorted_and_thread_count_invariant() {
        let root = RngStreams::new(42);
        let serial = run_units(demo_units(&root, 16), 1);
        for threads in [2, 3, 4, 8] {
            let parallel = run_units(demo_units(&root, 16), threads);
            let sv: Vec<(&str, u64)> = serial.iter().map(|o| (o.key.as_str(), o.value)).collect();
            let pv: Vec<(&str, u64)> = parallel.iter().map(|o| (o.key.as_str(), o.value)).collect();
            assert_eq!(sv, pv, "values diverged at {threads} threads");
            assert_eq!(digest(&serial), digest(&parallel), "telemetry diverged at {threads}");
        }
    }

    #[test]
    fn more_threads_than_units_is_fine() {
        let root = RngStreams::new(7);
        let out = run_units(demo_units(&root, 3), 16);
        assert_eq!(out.len(), 3);
        assert_eq!(merge_telemetry(&out).counter("units"), 3);
    }

    #[test]
    fn empty_unit_list_yields_empty_output() {
        let out: Vec<UnitOutput<()>> = run_units(Vec::new(), 4);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate unit key")]
    fn duplicate_keys_panic() {
        let units = vec![Unit::new("a", |_: &Telemetry| 1u64), Unit::new("a", |_| 2u64)];
        run_units(units, 2);
    }

    #[test]
    fn units_can_borrow_caller_state() {
        // The 'scope lifetime lets units borrow non-'static experiment
        // state (specs, configs) instead of cloning it per unit.
        let shared = vec![10u64, 20, 30];
        let shared = &shared;
        let units: Vec<Unit<'_, u64>> = (0..3)
            .map(|i| Unit::new(format!("{i}"), move |_: &Telemetry| shared[i as usize]))
            .collect();
        let out = run_units(units, 2);
        assert_eq!(out.iter().map(|o| o.value).collect::<Vec<_>>(), vec![10, 20, 30]);
    }

    #[test]
    fn threads_resolution_prefers_override() {
        // Not running in parallel with other tests that touch the
        // override: this is the only test that sets it, and it restores 0.
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }
}
