//! The measuring loop every workload runs under: set-up timed several times,
//! an untimed warm-up, then blocks of equal work on one thread, one op at a
//! time (a closed loop with one client) until `--seconds` have passed.
//!
//! # Reference seconds
//!
//! The sandbox is a shared two-core box whose speed moves by 10-25% for
//! seconds at a time (the same fixed loop took 72-110 ms over one minute).
//! A run that happens to fall into a fast or a slow spell would report a
//! throughput no median over its own blocks can repair. So the harness times
//! a fixed slice of CPU work (the [`Calibrator`]) on both sides of every
//! block and scales the block's host time by `NOMINAL / slice time`: a spell
//! that slows the machine stretches both, and the quotient cancels it. Host
//! metrics are therefore in *reference seconds* — seconds of a machine on
//! which the slice takes [`Calibrator::NOMINAL_S`], the sandbox's own quiet
//! speed, so they read like wall seconds. The unscaled throughput is printed
//! beside them (`ops_per_s_raw`), with the quartiles of the factor
//! (`machine_speed_*`). Over ten runs of one seed this took the spread of the
//! run medians from 21.6% to 2.1% on chaos-jobs and from 3.5% (with one run
//! 20% off) to 1.3% on elastic-jobs. A workload that waits for memory more
//! than it computes does not follow the slice and is left in wall seconds:
//! see [`Workload::CPU_BOUND`].

use std::time::Instant;

use crate::metrics::MetricSet;
use crate::spans::{SelfTimeTable, Tracer};
use crate::stats::{self, Block};

/// Arguments of one run (the driver's contract, plus `--scale` for smoke).
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or plain run (end-to-end metrics).
    pub trace: bool,
    /// Multiplies the input counts; anything but 1 is for smoke tests only.
    pub scale: f64,
}

/// How a block is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Through the library's own entry point, tracer off. End-to-end
    /// metrics only ever come from these blocks.
    Plain,
    /// With the benchmark's spans on (and, where the library has no seam,
    /// through the benchmark's mirror of its loop).
    Traced,
}

/// Steps below this count cannot resolve a p99 (ten samples must lie beyond
/// it), so the timed section runs on until it has them.
const MIN_STEPS: usize = 1_000;

/// A fixed slice of CPU work — branchy integer mixing and float
/// multiply-adds over an L2-sized array — timed to learn how fast the
/// machine is running right now.
#[derive(Debug)]
pub struct Calibrator {
    data: Vec<f64>,
    /// Host seconds of the most recent slice.
    last_s: f64,
}

impl Calibrator {
    /// What one slice takes on the sandbox when nothing else runs.
    pub const NOMINAL_S: f64 = 0.002_9;

    fn new() -> Self {
        let mut c = Calibrator { data: vec![1.0; 32 * 1024], last_s: Self::NOMINAL_S };
        c.slice(); // faults the array in
        c.slice();
        c
    }

    /// Runs one slice; returns the mean of this slice's and the previous
    /// slice's time, i.e. the machine's speed over what ran in between. A
    /// slice is three equal parts and counts as three times its fastest
    /// part: an interrupt lands in one part, a slow machine in all three.
    fn slice(&mut self) -> f64 {
        let data = &mut self.data;
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0.0f64;
        let mut fastest = f64::INFINITY;
        for part in 0..3 {
            let t = Instant::now();
            for round in 0..4 {
                for i in 0..data.len() {
                    s = dlrover_sim::splitmix64(s);
                    let j = (s as usize) % data.len();
                    if s & 1 == 0 {
                        data[j] = data[j] * 0.999_999 + data[i] * 1e-6;
                    } else {
                        acc += data[j].sqrt() * f64::from(part * 4 + round + 1);
                    }
                }
            }
            fastest = fastest.min(t.elapsed().as_secs_f64());
        }
        std::hint::black_box(acc);
        let now_s = 3.0 * fastest;
        let around = (self.last_s + now_s) / 2.0;
        self.last_s = now_s;
        around
    }

    /// Factor that turns host seconds measured since the previous slice
    /// into reference seconds; 1 for a workload that does not follow the
    /// slice (the slice still runs, so every workload pays the same).
    fn factor(&mut self, follows_slice: bool) -> f64 {
        let around = self.slice();
        if follows_slice {
            Self::NOMINAL_S / around
        } else {
            1.0
        }
    }
}

/// What the blocks of a run record.
#[derive(Debug)]
pub struct Recorder {
    /// The benchmark's spans (recording only inside traced blocks).
    pub tracer: Tracer,
    /// Milliseconds (reference) of every step of the plain blocks.
    pub steps_ms: Vec<f64>,
    /// The plain blocks, in reference seconds.
    pub blocks: Vec<Block>,
    /// The traced blocks, in reference seconds.
    pub traced_blocks: Vec<Block>,
    /// Ops attempted in the plain and traced blocks.
    pub attempted: u64,
    /// Ops that failed an output check.
    pub failed: u64,
    /// The first few failure descriptions, for the human reader.
    pub failures: Vec<String>,
    calibrator: Calibrator,
    /// [`Workload::CPU_BOUND`] of the workload being run.
    follows_slice: bool,
    /// Steps of `steps_ms` already scaled to reference time.
    scaled_steps: usize,
    /// Unscaled host seconds and ops of the plain blocks.
    raw: (f64, u64),
    /// Every block's scaling factor, to show how the machine ran.
    factors: Vec<f64>,
    /// Unscaled host seconds of the traced blocks: the wall time the spans,
    /// which are unscaled too, are set against.
    traced_raw_s: f64,
}

impl Recorder {
    fn new(follows_slice: bool) -> Self {
        Recorder {
            follows_slice,
            tracer: Tracer::new(false),
            steps_ms: Vec::new(),
            blocks: Vec::new(),
            traced_blocks: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            calibrator: Calibrator::new(),
            scaled_steps: 0,
            raw: (0.0, 0),
            factors: Vec::new(),
            traced_raw_s: 0.0,
        }
    }

    /// Counts `ops` failed ops and keeps the reason if it is among the first.
    pub fn fail(&mut self, ops: u64, why: impl FnOnce() -> String) {
        self.failed += ops;
        if self.failures.len() < 8 {
            self.failures.push(why());
        }
    }

    /// Files a finished block under its mode: takes a calibration slice and
    /// converts the block — and the steps pushed since the previous block —
    /// to reference time. The caller counts the ops into `attempted` itself.
    pub fn push_block(&mut self, mode: Mode, block: Block) {
        let factor = self.calibrator.factor(self.follows_slice);
        self.factors.push(factor);
        let scaled = Block { seconds: block.seconds * factor, ..block };
        match mode {
            Mode::Plain => {
                self.raw.0 += block.seconds;
                self.raw.1 += block.ops;
                self.steps_ms[self.scaled_steps..].iter_mut().for_each(|ms| *ms *= factor);
                self.scaled_steps = self.steps_ms.len();
                self.blocks.push(scaled);
            }
            Mode::Traced => {
                self.traced_raw_s += block.seconds;
                self.traced_blocks.push(scaled);
            }
        }
    }

    /// The plain or traced block filed last, for a workload that learns a
    /// block's exact op count only after filing it.
    pub fn last_block_mut(&mut self, mode: Mode) -> Option<&mut Block> {
        match mode {
            Mode::Plain => self.blocks.last_mut(),
            Mode::Traced => self.traced_blocks.last_mut(),
        }
    }
}

/// A value printed beside the metrics: exact simulated outcomes, digests,
/// counts. Not a metric of the contract.
#[derive(Debug, Clone)]
pub struct Info {
    /// Name.
    pub name: &'static str,
    /// Rendered value.
    pub value: String,
    /// Unit.
    pub unit: &'static str,
}

impl Info {
    /// A float, printed with all its digits.
    pub fn num(name: &'static str, value: f64, unit: &'static str) -> Self {
        Info { name, value: format!("{value}"), unit }
    }
}

/// One workload.
pub trait Workload: Sized {
    /// Whether the workload's host time follows the calibration slice, i.e.
    /// whether it computes more than it waits for memory. It is measured, not
    /// assumed: over repeated runs of one seed, scaling by the slice shrank
    /// the range of `ops_per_s` from 17% to 1.5% on elastic-jobs and from 16%
    /// to 5% on dlrm-train, but widened it from 9% to 17% on fleet-sweep,
    /// whose million-pod tables are bound by memory and do not speed up when
    /// the cores do. Such a workload is reported in plain wall seconds.
    const CPU_BOUND: bool = true;

    /// Builds the inputs from the seed, and whatever the first timed op
    /// needs. This is what `setup_s` times.
    fn setup(seed: u64, scale: f64) -> Self;

    /// Untimed: lets allocators, caches and lazy statics settle.
    fn warm_up(&mut self);

    /// Runs one block (or, where a block is too coarse for a median, a
    /// series of them), pushes the steps and the blocks into `rec`, and
    /// checks the outputs.
    fn block(&mut self, rec: &mut Recorder, mode: Mode);

    /// False while a cycle of unlike blocks is incomplete: the timed section
    /// ends, and switches between plain and traced, on cycle boundaries only.
    fn cycle_done(&self) -> bool {
        true
    }

    /// Output checks that need the whole run (plain and traced runs alike).
    fn finish(&mut self, _rec: &mut Recorder) {}

    /// Exact values to print beside the metrics (`sim_*`, `sim_digest`, ...).
    fn info(&self) -> Vec<Info>;

    /// Traced runs only: the seam metrics of the recorded spans, the probes,
    /// and the counts. `table` is the self-time roll-up of the traced blocks.
    fn layer_metrics(&mut self, rec: &Recorder, table: &SelfTimeTable, out: &mut MetricSet);
}

/// Calls `setup` in batches of at least 30 ms, a calibration slice after
/// each, until there are seven batches (a sub-millisecond set-up needs
/// thousands of repeats for a steady median; a fleet build is a batch by
/// itself). Returns the last instance, and the median over the batches of
/// each batch's median time in reference seconds.
fn timed_setup<W: Workload>(seed: u64, scale: f64) -> (W, f64) {
    let mut calibrator = Calibrator::new();
    let started = Instant::now();
    let mut batches = Vec::new();
    loop {
        let batch_started = Instant::now();
        let mut times = Vec::new();
        let w = loop {
            let t = Instant::now();
            let w = W::setup(seed, scale);
            times.push(t.elapsed().as_secs_f64());
            if batch_started.elapsed().as_secs_f64() >= 0.03 {
                break w;
            }
        };
        batches.push(stats::median(&times) * calibrator.factor(W::CPU_BOUND));
        if batches.len() >= 7 || started.elapsed().as_secs_f64() >= 4.0 {
            return (w, stats::median(&batches));
        }
    }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// All output checks passed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// End-to-end metrics (plain run) or per-layer metrics (traced run).
    pub metrics: MetricSet,
    /// Exact side values.
    pub info: Vec<Info>,
    /// First few failure reasons.
    pub failures: Vec<String>,
    /// Traced run: the self-time table, rendered.
    pub table: Option<String>,
    /// Traced run: the spans.
    pub spans: Vec<crate::spans::Span>,
}

/// Runs workload `W` under `args`.
pub fn run<W: Workload>(args: &RunArgs) -> RunOutput {
    let (mut w, setup_s) = timed_setup::<W>(args.seed, args.scale);
    w.warm_up();

    let mut rec = Recorder::new(W::CPU_BOUND);
    let started = Instant::now();
    // A slow machine still gets its thousand steps, but never more than
    // three times the asked-for duration (and not at a smoke scale, whose
    // tail nobody reads).
    let keep_going = |rec: &Recorder| {
        let elapsed = started.elapsed().as_secs_f64();
        elapsed < args.seconds
            || (rec.steps_ms.len() < MIN_STEPS && elapsed < 3.0 * args.seconds && args.scale == 1.0)
    };
    // A cycle is one block, or as many unlike blocks as the workload has.
    let cycle = |w: &mut W, rec: &mut Recorder, mode: Mode| loop {
        w.block(rec, mode);
        if w.cycle_done() {
            break;
        }
    };
    if args.trace {
        // Plain and traced cycles alternate, so both see the same machine
        // weather and their ratio is the tracing overhead.
        loop {
            cycle(&mut w, &mut rec, Mode::Plain);
            rec.tracer.set_enabled(true);
            cycle(&mut w, &mut rec, Mode::Traced);
            rec.tracer.set_enabled(false);
            if started.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
    } else {
        while keep_going(&rec) {
            cycle(&mut w, &mut rec, Mode::Plain);
        }
    }
    w.finish(&mut rec);

    let mut metrics = MetricSet::default();
    let mut info = w.info();
    let mut table = None;
    if args.trace {
        let table_of = SelfTimeTable::build(rec.tracer.spans(), (rec.traced_raw_s * 1e9) as u64);
        w.layer_metrics(&rec, &table_of, &mut metrics);
        let plain = stats::robust_seconds(&rec.blocks) / ops_of(&rec.blocks);
        let traced = stats::robust_seconds(&rec.traced_blocks) / ops_of(&rec.traced_blocks);
        metrics.set("bench.trace_overhead_ratio", traced / plain);
        metrics.set("bench.attributed_share", table_of.attributed_share());
        table = Some(table_of.render());
    } else {
        let ops = ops_of(&rec.blocks);
        let tail = stats::resolvable_percentile(rec.steps_ms.len(), 99.0);
        metrics.set("ops_per_s", ops / stats::robust_seconds(&rec.blocks));
        metrics.set("step_p99_ms", stats::percentile(&rec.steps_ms, tail));
        metrics.set("setup_s", setup_s);
        metrics.set(
            "peak_rss_mb",
            dlrover_bench::sysmetrics::peak_rss_bytes().unwrap_or(0) as f64 / 1e6,
        );
        let rates: Vec<f64> = rec.blocks.iter().map(|b| b.ops as f64 / b.seconds).collect();
        let (q1, med, q3) = stats::quartiles(&rates);
        info.push(Info::num("ops_per_s_raw", rec.raw.1 as f64 / rec.raw.0, "1/s"));
        // Above 1 the machine ran faster than the reference during the run.
        let (f1, f2, f3) = stats::quartiles(&rec.factors);
        info.push(Info::num("machine_speed_q1", f1, "ratio"));
        info.push(Info::num("machine_speed_median", f2, "ratio"));
        info.push(Info::num("machine_speed_q3", f3, "ratio"));
        info.push(Info::num("block_rate_q1", q1, "1/s"));
        info.push(Info::num("block_rate_median", med, "1/s"));
        info.push(Info::num("block_rate_q3", q3, "1/s"));
        info.push(Info::num("blocks", rec.blocks.len() as f64, "count"));
        info.push(Info::num("steps", rec.steps_ms.len() as f64, "count"));
        info.push(Info::num("step_tail_percentile", tail, "%"));
        info.push(Info::num("step_p50_ms", stats::median(&rec.steps_ms), "ms"));
    }
    RunOutput {
        correct: rec.failed == 0,
        attempted: rec.attempted.max(1),
        failed: rec.failed,
        metrics,
        info,
        failures: rec.failures,
        table,
        spans: rec.tracer.spans().to_vec(),
    }
}

fn ops_of(blocks: &[Block]) -> f64 {
    blocks.iter().map(|b| b.ops).sum::<u64>().max(1) as f64
}

/// Times `f` over enough iterations to fill about `budget_s`, and returns
/// the mean seconds per call. The probes use it: `f` gets the iteration
/// index and must fold its result into something `black_box`ed.
pub fn per_call_seconds(budget_s: f64, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    f(0);
    let first = t.elapsed().as_secs_f64().max(1e-9);
    let iters = ((budget_s / first) as usize).clamp(1, 5_000_000);
    let t = Instant::now();
    for i in 0..iters {
        f(i + 1);
    }
    t.elapsed().as_secs_f64() / iters as f64
}
