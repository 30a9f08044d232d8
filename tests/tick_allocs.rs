//! Heap allocations of the steady-state tick, counted.
//!
//! `ChaosDriver::step` → `JobMaster::tick` → `PsTrainingEngine::advance` →
//! `ShardQueue` → `Telemetry` → `CheckpointPlane` is the unit every §6
//! experiment and two benchmark workloads are made of, so what one tick
//! costs the allocator is a number this file pins: a fault-free tick against
//! the null sink allocates nothing, against a recording sink only the two
//! rings' amortised growth, and a whole chaos job a few allocations per
//! fault, save and recovery — not per tick. What a steady tick records is
//! pinned too: one shard ack per worker that acked, nothing else.
//!
//! The counter is per thread (the harness runs tests on parallel threads) and
//! counts `alloc`, `alloc_zeroed` and `realloc` calls; frees are not counted.
//! Run it in the profile the benchmark measures as well:
//! `cargo test --release -p dlrover-rm --test tick_allocs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dlrover_rm::prelude::*;
use dlrover_rm::sim::{FaultEvent, FaultKind, FaultPlan};

thread_local! {
    /// Allocator calls made by this thread. Const-initialised and without a
    /// destructor, so touching it from inside the allocator allocates nothing.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn bump() {
        // `try_with`: a thread that is tearing down may allocate after its
        // thread-locals are gone; those calls are not ours to count.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::bump();
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls this thread makes while `f` runs.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const TICK: SimDuration = SimDuration::from_secs(30);
const WARM_UP: usize = 50;
const TICKS: usize = 1_000;

/// An 8-worker / 4-PS job long enough to still be training after
/// `WARM_UP + TICKS` ticks, recording into `sink`.
fn steady_master(sink: Telemetry) -> JobMaster {
    let alloc = ResourceAllocation::new(JobShape::new(8, 4, 8.0, 8.0, 512), 32.0, 256.0);
    let spec = TrainingJobSpec::paper_default(50_000_000);
    let mut master = JobMaster::new(0, spec, alloc, MasterConfig::default());
    master.set_telemetry(sink);
    master
}

/// Allocations of `TICKS` fault-free ticks after the warm-up, and the events
/// `sink` had recorded when they began.
fn steady_tick_allocations(sink: &Telemetry) -> (u64, u64) {
    let mut master = steady_master(sink.clone());
    for _ in 0..WARM_UP {
        // The memory forecast's one pre-scale of this long job lands here.
        master.tick(TICK);
    }
    let warm_up_events = sink.event_count();
    let (allocs, ()) = allocations_during(|| {
        for _ in 0..TICKS {
            let events = master.tick(TICK);
            assert!(events.is_empty(), "steady tick surfaced {events:?}");
        }
    });
    assert!(master.completed_at().is_none(), "the job must still be training");
    assert!(master.engine().samples_done() > 0);
    // Shown by `--nocapture`.
    eprintln!("{allocs} allocations over {TICKS} fault-free ticks");
    (allocs, warm_up_events)
}

#[test]
fn a_fault_free_tick_against_the_null_sink_allocates_nothing() {
    let (allocs, _) = steady_tick_allocations(&Telemetry::null());
    assert_eq!(
        allocs,
        0,
        "{allocs} allocations over {TICKS} ticks = {:.2} per tick",
        allocs as f64 / TICKS as f64
    );
}

#[test]
fn a_recording_tick_allocates_only_ring_growth() {
    let sink = Telemetry::default();
    let (allocs, warm_up_events) = steady_tick_allocations(&sink);
    // The record budget: a steady tick records only its shard acks, at most
    // one per live worker (8) per tick, and the sink is the one recording.
    let steady: Vec<EventKind> =
        (sink.events().into_iter()).filter(|e| e.seq >= warm_up_events).map(|e| e.kind).collect();
    let other = steady.iter().find(|k| !matches!(k, EventKind::ShardAcked { .. }));
    assert!(
        other.is_none() && (TICKS..=8 * TICKS).contains(&steady.len()),
        "{} events over {TICKS} steady ticks, want {TICKS}..={} ShardAcked and nothing else; \
         first other: {other:?}",
        steady.len(),
        8 * TICKS
    );
    assert!(sink.span_count() >= 5 * TICKS as u64);
    // The event and span rings grow by doubling: ~25 reallocations.
    assert!(
        allocs * 20 <= TICKS as u64,
        "{allocs} allocations over {TICKS} ticks = {:.2} per tick (budget 0.05)",
        allocs as f64 / TICKS as f64
    );
}

/// Steps that take the 4-worker / 2-PS gang about 240 ticks under
/// [`six_fault_plan`].
const CHAOS_STEPS: u64 = 64_000;

/// Six faults of six kinds over a job of about 240 ticks.
fn six_fault_plan() -> FaultPlan {
    let at = |secs: u64, kind: FaultKind| FaultEvent { at: SimTime::from_secs(secs), kind };
    FaultPlan::from_events(vec![
        at(300, FaultKind::WorkerKill { worker: 1 }),
        at(
            900,
            FaultKind::StragglerWindow {
                worker: 2,
                speed_permille: 250,
                window: SimDuration::from_mins(4),
            },
        ),
        at(1_500, FaultKind::PsKill { ps: 1 }),
        at(2_400, FaultKind::RemoteTierOutage { window: SimDuration::from_mins(6) }),
        at(
            3_300,
            FaultKind::MemoryPressure {
                ps: 0,
                headroom_permille: 400,
                window: SimDuration::from_mins(3),
            },
        ),
        at(4_500, FaultKind::MasterCrash { restart: SimDuration::from_secs(45) }),
    ])
}

#[test]
fn a_chaos_job_allocates_per_fault_and_save_not_per_tick() {
    let spec = TrainingJobSpec::paper_default(CHAOS_STEPS);
    let alloc = ResourceAllocation::new(JobShape::new(4, 2, 4.0, 4.0, 512), 8.0, 64.0);
    let plan = six_fault_plan();
    let cfg = ChaosConfig::default();
    let sink = Telemetry::default();
    let (allocs, report) = allocations_during(|| run_chaos_job(&spec, alloc, &plan, &cfg, &sink));
    assert!(report.oracle.passed(), "{:?}", report.oracle.violations());
    assert_eq!(report.faults_injected, 6);
    let jct_us = report.jct_us.expect("the job completes");
    let ticks = jct_us / TICK.as_micros();
    assert!((220..=260).contains(&ticks), "the job ran {ticks} ticks, meant to be about 240");
    eprintln!("{allocs} allocations over a {ticks}-tick chaos job and its baseline run");
    let events = sink.event_count();
    let per_hour = events as f64 * 3.6e9 / jct_us as f64;
    eprintln!("{events} events recorded: {per_hour:.0} per simulated hour");
    assert!(
        allocs <= 1_500,
        "{allocs} allocations over {ticks} ticks (+ the fault-free baseline run) = {:.1} per tick",
        allocs as f64 / ticks as f64
    );
}
