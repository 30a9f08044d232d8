//! Real-compute mode: genuine gradient descent under elastic semantics.
//!
//! The convergence experiment (Fig. 8) cannot be faked with a cost model —
//! it asks whether *model quality* survives elasticity. This trainer runs
//! actual `dlrover-dlrm` models with the same dynamic-sharding semantics as
//! the virtual-time engine:
//!
//! * workers check shards out of the same [`ShardQueue`];
//! * within a training *round*, every live worker computes its gradient
//!   against the round-start parameters, and the gradients are applied
//!   sequentially — exactly the staleness profile of asynchronous PS
//!   training (gradients within a round are mutually stale);
//! * elastic events (add / remove / fail a worker) can fire between rounds,
//!   and the shard queue guarantees no sample is dropped or duplicated.
//!
//! A round runs in three phases. The caller's thread walks the live
//! workers in order and does all the shard-queue work, noting each
//! worker's sample range in a slot. The slots' batches and gradients are
//! then computed concurrently — they are concurrent workers, and each
//! reads the round-start model through `&DlrmModel` — on the caller's
//! thread plus one helper per idle core (counted across every trainer in
//! the process, so rounds running side by side do not oversubscribe the
//! machine), each taking a contiguous run of slots. Last, the caller's
//! thread inserts the embedding rows the slots
//! read before they existed, sums the losses and applies the gradients,
//! all in slot order. Every float operation and reduction order is the
//! sequential round's, so the trained bits do not depend on the width.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::OnceLock;

use dlrover_dlrm::model::{CtrModel, DlrmModel, ModelConfig, ModelKind};
use dlrover_dlrm::{auc, logloss, DatasetConfig, GradScratch, Gradients, Sample, SyntheticCriteo};
use dlrover_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::sharding::{ShardQueue, ShardingConfig};

/// Configuration of a real-compute training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealModeConfig {
    /// Which model family to train.
    pub kind: ModelKind,
    /// Model hyper-parameters.
    pub model: ModelConfig,
    /// Synthetic dataset parameters.
    pub dataset: DatasetConfig,
    /// Training-data budget in samples.
    pub total_samples: u64,
    /// Shard layout.
    pub sharding: ShardingConfig,
    /// Experiment seed.
    pub seed: u64,
}

impl RealModeConfig {
    /// A laptop-scale configuration that still exhibits learnable signal.
    pub fn small(kind: ModelKind, seed: u64) -> Self {
        let sharding =
            ShardingConfig { batches_per_shard: 8, batch_size: 64, min_batches_per_shard: 1 };
        RealModeConfig {
            kind,
            model: ModelConfig {
                embedding_dim: 4,
                hash_size: 1 << 16,
                hidden: vec![16, 8],
                cross_layers: 2,
                learning_rate: 0.05,
            },
            dataset: DatasetConfig::default(),
            total_samples: 64 * 64 * 40, // 40 nominal shards of 8 batches
            sharding,
            seed,
        }
    }
}

/// Elastic actions applied between training rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ElasticEvent {
    /// Scale out by one worker.
    AddWorker,
    /// Graceful scale-in of the given worker slot.
    RemoveWorker(usize),
    /// Crash the given worker slot (its shard re-queues in full).
    FailWorker(usize),
}

#[derive(Debug, Clone)]
struct RealWorker {
    shard_id: u64,
    alive: bool,
    /// Samples already consumed of the current shard.
    offset: u64,
}

/// The buffers of one worker's share of a round, kept between rounds so
/// that computing it allocates nothing.
#[derive(Debug, Default)]
struct Slot {
    /// First sample index and sample count of this round's batch.
    start: u64,
    take: usize,
    batch: Vec<Sample>,
    grads: Gradients,
    scratch: GradScratch,
}

impl Slot {
    /// Generates the slot's batch and its gradient against `model`.
    fn compute(&mut self, dataset: &SyntheticCriteo, model: &DlrmModel) {
        dataset.batch_into(self.start, self.take, &mut self.batch);
        model.compute_gradients_shared(&self.batch, &mut self.grads, &mut self.scratch);
    }
}

/// Cores no round is computing on, shared by every trainer in the
/// process, so that rounds running side by side (fig8's units) split the
/// machine instead of each spawning helpers for all of it. Set on first
/// use to `available_parallelism()`, which reads cgroup files (~12 µs,
/// more than a trainer's whole construction); below zero while more
/// rounds compute than there are cores.
fn idle_cores() -> &'static AtomicIsize {
    static IDLE: OnceLock<AtomicIsize> = OnceLock::new();
    IDLE.get_or_init(|| {
        AtomicIsize::new(std::thread::available_parallelism().map_or(1, NonZeroUsize::get) as isize)
    })
}

/// The cores one round runs on: the caller's for the whole round, the
/// helpers' for its compute phase. Dropping it gives back what it holds.
struct Cores {
    /// Threads to compute on: the caller's and its helpers'.
    threads: usize,
    /// Where the cores came from; `None` for a test's forced width.
    pool: Option<&'static AtomicIsize>,
}

impl Cores {
    /// Takes the caller's core, even when none is idle (a computing round
    /// counts against every other round's helpers), and up to `slots - 1`
    /// idle ones for helpers.
    fn take(pool: &'static AtomicIsize, slots: usize) -> Cores {
        let helpers = |idle: isize| (idle - 1).clamp(0, slots as isize - 1);
        let before = pool
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |idle| {
                Some(idle - 1 - helpers(idle))
            })
            .unwrap_or_else(|idle| idle);
        Cores { threads: 1 + helpers(before) as usize, pool: Some(pool) }
    }

    /// Gives the helpers' cores back and keeps the caller's.
    fn release_helpers(&mut self) {
        if let Some(pool) = self.pool {
            pool.fetch_add(self.threads as isize - 1, Ordering::Relaxed);
        }
        self.threads = 1;
    }

    /// `threads` threads that no pool counts: a test's forced width.
    #[cfg(test)]
    fn fixed(threads: usize) -> Cores {
        Cores { threads, pool: None }
    }
}

impl Drop for Cores {
    fn drop(&mut self) {
        if let Some(pool) = self.pool {
            pool.fetch_add(self.threads as isize, Ordering::Relaxed);
        }
    }
}

/// A full job checkpoint in real-compute mode: model parameters +
/// optimizer state + the quiesced data-shard frontier. Restoring one
/// resumes training with exactly-once data accounting — the paper's
/// flash-checkpoint payload (§5.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobCheckpoint {
    /// Model weights and Adagrad accumulators.
    pub model: dlrover_dlrm::ModelCheckpoint,
    /// Quiesced shard-queue state.
    pub shards: ShardQueue,
    /// Training round at snapshot.
    pub round: u64,
}

impl JobCheckpoint {
    /// Approximate serialised size, for checkpoint-latency modelling.
    pub fn approx_bytes(&self) -> usize {
        self.model.approx_bytes() + 4096
    }
}

/// The real-compute trainer.
pub struct RealModeTrainer {
    config: RealModeConfig,
    model: DlrmModel,
    dataset: SyntheticCriteo,
    shards: ShardQueue,
    workers: Vec<RealWorker>,
    next_worker_id: u64,
    round: u64,
    loss_history: Vec<(u64, f32)>,
    /// One slot per worker that trains in a round, in worker order: the
    /// first `n` serve a round in which `n` workers train.
    slots: Vec<Slot>,
}

impl RealModeTrainer {
    /// Creates a trainer with `initial_workers` live workers.
    pub fn new(config: RealModeConfig, initial_workers: usize) -> Self {
        assert!(initial_workers > 0, "need at least one worker");
        let model = DlrmModel::new(config.kind, config.model.clone(), config.seed);
        let dataset = SyntheticCriteo::new(config.dataset.clone(), config.seed);
        let shards = ShardQueue::new(config.total_samples, config.sharding);
        let mut t = RealModeTrainer {
            config,
            model,
            dataset,
            shards,
            workers: Vec::new(),
            next_worker_id: 0,
            round: 0,
            loss_history: Vec::new(),
            slots: Vec::new(),
        };
        for _ in 0..initial_workers {
            t.apply(ElasticEvent::AddWorker);
        }
        t
    }

    /// The configuration.
    pub fn config(&self) -> &RealModeConfig {
        &self.config
    }

    /// Snapshots the job (model + quiesced shard frontier).
    pub fn checkpoint(&self) -> JobCheckpoint {
        JobCheckpoint {
            model: self.model.snapshot(),
            shards: self.shards.quiesced(),
            round: self.round,
        }
    }

    /// Resumes a job from a checkpoint with `initial_workers` fresh
    /// workers. Completed shards stay completed; the shard a dead worker
    /// held is retrained; nothing is skipped.
    ///
    /// # Panics
    /// Panics if the checkpoint's model family differs from `config.kind`
    /// or `initial_workers == 0`.
    pub fn from_checkpoint(
        config: RealModeConfig,
        ckpt: JobCheckpoint,
        initial_workers: usize,
    ) -> Self {
        assert!(initial_workers > 0, "need at least one worker");
        let mut model = DlrmModel::new(config.kind, config.model.clone(), config.seed);
        model.restore(&ckpt.model);
        let dataset = SyntheticCriteo::new(config.dataset.clone(), config.seed);
        let mut t = RealModeTrainer {
            config,
            model,
            dataset,
            shards: ckpt.shards,
            workers: Vec::new(),
            next_worker_id: 0,
            round: ckpt.round,
            loss_history: Vec::new(),
            slots: Vec::new(),
        };
        for _ in 0..initial_workers {
            t.apply(ElasticEvent::AddWorker);
        }
        t
    }

    /// Applies an elastic event.
    pub fn apply(&mut self, event: ElasticEvent) {
        let now = SimTime::from_secs(self.round);
        match event {
            ElasticEvent::AddWorker => {
                let id = self.next_worker_id;
                self.next_worker_id += 1;
                self.shards.register_worker(id, now);
                self.workers.push(RealWorker { shard_id: id, alive: true, offset: 0 });
            }
            ElasticEvent::RemoveWorker(idx) => {
                if let Some(w) = self.workers.get_mut(idx) {
                    if w.alive {
                        w.alive = false;
                        self.shards.deregister_worker(w.shard_id);
                    }
                }
            }
            ElasticEvent::FailWorker(idx) => {
                if let Some(w) = self.workers.get_mut(idx) {
                    if w.alive {
                        w.alive = false;
                        w.offset = 0;
                        self.shards.fail_worker(w.shard_id);
                    }
                }
            }
        }
    }

    /// Number of live workers.
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Samples consumed so far (completed shards only — the conservative
    /// count used for epoch accounting).
    pub fn samples_trained(&self) -> u64 {
        self.shards.completed_samples()
    }

    /// True once the dataset has been fully consumed.
    pub fn is_complete(&self) -> bool {
        self.shards.is_drained()
    }

    /// Mean training loss per round so far: `(round, loss)` pairs.
    pub fn loss_history(&self) -> &[(u64, f32)] {
        &self.loss_history
    }

    /// Runs one asynchronous training round: every live worker draws one
    /// batch from its shard, computes a gradient against the round-start
    /// parameters, and the gradients apply sequentially. Returns the round's
    /// mean loss, or `None` when the dataset is drained.
    pub fn train_round(&mut self) -> Option<f32> {
        self.train_round_with(|slots| Cores::take(idle_cores(), slots))
    }

    /// [`Self::train_round`] with its gradients computed on the cores
    /// `cores` hands it for the round's slot count. Nothing it returns or
    /// leaves behind depends on how many; only tests force a number.
    fn train_round_with(&mut self, cores: impl FnOnce(usize) -> Cores) -> Option<f32> {
        self.round += 1;
        let now = SimTime::from_secs(self.round);
        let batch_size = self.config.sharding.batch_size as u64;
        // Slots filled this round: the first `used` of the pool.
        let mut used = 0;

        // Phase 1, in worker order: all shard-queue work.
        for i in 0..self.workers.len() {
            if !self.workers[i].alive {
                continue;
            }
            let wid = self.workers[i].shard_id;
            // Ensure a shard.
            let holding = self.shards.worker(wid).and_then(|s| s.current_shard);
            let shard = match holding {
                Some(s) => s,
                None => match self.shards.checkout(wid, 1.0, now) {
                    Some(s) => {
                        self.workers[i].offset = 0;
                        s
                    }
                    None => continue, // drained for this worker
                },
            };
            let offset = self.workers[i].offset;
            let take = batch_size.min(shard.len - offset);
            if take == 0 {
                continue;
            }
            if used == self.slots.len() {
                self.slots.push(Slot::default());
            }
            let slot = &mut self.slots[used];
            slot.start = shard.start + offset;
            slot.take = take as usize;
            used += 1;
            let new_offset = offset + take;
            self.shards.heartbeat(wid, new_offset, now);
            if new_offset >= shard.len {
                self.shards.complete(wid, now);
                self.workers[i].offset = 0;
            } else {
                self.workers[i].offset = new_offset;
            }
        }
        // No live worker, or none of them got data.
        if used == 0 {
            return None;
        }
        let slots = &mut self.slots[..used];

        // Phase 2: every gradient against the round-start parameters, on
        // the round's cores, each thread over a contiguous run of slots;
        // this thread computes the first run itself (with one core, the
        // only run). The helpers' cores go back after the join; this
        // thread's, when the round ends.
        let (dataset, model) = (&self.dataset, &self.model);
        let compute = |run: &mut [Slot]| run.iter_mut().for_each(|s| s.compute(dataset, model));
        let mut cores = cores(used);
        std::thread::scope(|scope| {
            let mut runs = slots.chunks_mut(used.div_ceil(cores.threads.clamp(1, used)));
            let own = runs.next().expect("a round with slots has a first run");
            for run in runs {
                scope.spawn(move || compute(run));
            }
            compute(own);
        });
        cores.release_helpers();

        // Phase 3, in slot order on this thread: rows grown on a helper
        // thread would live in that thread's malloc arena, so every
        // insertion and every update happens here.
        for slot in slots.iter_mut() {
            self.model.materialise(&mut slot.scratch);
        }
        let mean_loss = slots.iter().map(|slot| slot.grads.mean_loss).sum::<f32>() / used as f32;
        for slot in slots.iter() {
            self.model.apply_gradients(&slot.grads);
        }
        self.loss_history.push((self.round, mean_loss));
        Some(mean_loss)
    }

    /// Trains until the dataset drains (or `max_rounds` as a safety net).
    pub fn train_to_completion(&mut self, max_rounds: u64) -> u64 {
        let mut rounds = 0;
        while !self.is_complete() && rounds < max_rounds {
            if self.train_round().is_none() && !self.is_complete() {
                break; // wedged (no live workers)
            }
            rounds += 1;
        }
        rounds
    }

    /// Evaluates on a held-out index range: `(logloss, auc)`.
    pub fn evaluate(&self, start: u64, n: usize) -> (f64, f64) {
        let batch = self.dataset.batch(start, n);
        let probs = self.model.predict(&batch);
        let labels: Vec<bool> = batch.iter().map(|s| s.label).collect();
        (logloss(&probs, &labels), auc(&probs, &labels))
    }

    /// Bytes resident in the model's embedding tables (memory-growth probe).
    pub fn embedding_bytes(&self) -> usize {
        self.model.embedding_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVAL_START: u64 = 50_000_000;

    fn trainer(seed: u64, workers: usize) -> RealModeTrainer {
        RealModeTrainer::new(RealModeConfig::small(ModelKind::WideDeep, seed), workers)
    }

    #[test]
    fn training_consumes_exactly_the_dataset() {
        let mut t = trainer(1, 3);
        let rounds = t.train_to_completion(1_000_000);
        assert!(t.is_complete(), "did not drain after {rounds} rounds");
        assert_eq!(t.samples_trained(), t.config().total_samples);
    }

    #[test]
    fn loss_decreases_over_training() {
        let mut t = trainer(2, 3);
        t.train_to_completion(1_000_000);
        let hist = t.loss_history();
        assert!(hist.len() > 20);
        let early: f32 = hist[..10].iter().map(|(_, l)| l).sum::<f32>() / 10.0;
        let late: f32 = hist[hist.len() - 10..].iter().map(|(_, l)| l).sum::<f32>() / 10.0;
        assert!(late < early, "loss did not fall: {early} -> {late}");
    }

    #[test]
    fn trained_model_beats_chance_on_holdout() {
        let mut t = trainer(3, 3);
        t.train_to_completion(1_000_000);
        let (_, auc) = t.evaluate(EVAL_START, 1_000);
        assert!(auc > 0.55, "holdout AUC {auc}");
    }

    #[test]
    fn elasticity_preserves_exactly_once_and_quality() {
        // The Fig. 8 property in miniature: a chaotic elastic run consumes
        // the same dataset exactly once and converges comparably to a
        // static run.
        let mut stat = trainer(4, 3);
        stat.train_to_completion(1_000_000);
        let (static_loss, static_auc) = stat.evaluate(EVAL_START, 1_500);

        let mut elastic = trainer(4, 3);
        let mut round = 0;
        while !elastic.is_complete() && round < 1_000_000 {
            match round {
                40 => elastic.apply(ElasticEvent::FailWorker(0)),
                60 => elastic.apply(ElasticEvent::AddWorker),
                90 => elastic.apply(ElasticEvent::AddWorker),
                130 => elastic.apply(ElasticEvent::RemoveWorker(1)),
                _ => {}
            }
            if elastic.train_round().is_none() && !elastic.is_complete() {
                panic!("wedged");
            }
            round += 1;
        }
        assert!(elastic.is_complete());
        assert_eq!(elastic.samples_trained(), elastic.config().total_samples);
        let (elastic_loss, elastic_auc) = elastic.evaluate(EVAL_START, 1_500);
        assert!(
            (static_auc - elastic_auc).abs() < 0.05,
            "elasticity broke convergence: static AUC {static_auc}, elastic {elastic_auc}"
        );
        assert!(
            (static_loss - elastic_loss).abs() < 0.1,
            "elasticity broke loss: {static_loss} vs {elastic_loss}"
        );
    }

    #[test]
    fn failing_all_workers_wedges_until_new_worker_arrives() {
        let mut t = trainer(5, 2);
        t.train_round();
        t.apply(ElasticEvent::FailWorker(0));
        t.apply(ElasticEvent::FailWorker(1));
        assert_eq!(t.live_workers(), 0);
        assert!(t.train_round().is_none());
        t.apply(ElasticEvent::AddWorker);
        assert!(t.train_round().is_some());
    }

    #[test]
    fn embedding_memory_grows_during_training() {
        let mut t = trainer(6, 2);
        let before = t.embedding_bytes();
        for _ in 0..20 {
            t.train_round();
        }
        assert!(t.embedding_bytes() > before);
    }

    #[test]
    fn double_fail_is_idempotent() {
        let mut t = trainer(7, 2);
        t.train_round();
        t.apply(ElasticEvent::FailWorker(0));
        t.apply(ElasticEvent::FailWorker(0));
        assert_eq!(t.live_workers(), 1);
        let mut u = trainer(7, 2);
        u.train_round();
        u.apply(ElasticEvent::FailWorker(0));
        assert_eq!(u.live_workers(), 1);
    }

    #[test]
    fn checkpoint_restore_preserves_data_and_quality() {
        // Train halfway, checkpoint, "crash", restore on different worker
        // count, finish: exactly-once accounting and comparable quality.
        let mut t = trainer(20, 3);
        for _ in 0..60 {
            t.train_round();
        }
        let ckpt = t.checkpoint();
        assert!(ckpt.approx_bytes() > 0);
        drop(t); // the original job dies

        let mut restored = RealModeTrainer::from_checkpoint(
            RealModeConfig::small(ModelKind::WideDeep, 20),
            ckpt,
            5,
        );
        restored.train_to_completion(1_000_000);
        assert!(restored.is_complete());
        assert_eq!(
            restored.samples_trained(),
            restored.config().total_samples,
            "restore must not skip or double-count data"
        );
        let (_, auc) = restored.evaluate(EVAL_START, 1_000);
        assert!(auc > 0.55, "restored run failed to learn: {auc}");
    }

    #[test]
    fn restored_model_predicts_identically_at_snapshot() {
        let mut t = trainer(21, 2);
        for _ in 0..30 {
            t.train_round();
        }
        let before = t.evaluate(EVAL_START, 500);
        let ckpt = t.checkpoint();
        let restored = RealModeTrainer::from_checkpoint(
            RealModeConfig::small(ModelKind::WideDeep, 21),
            ckpt,
            2,
        );
        let after = restored.evaluate(EVAL_START, 500);
        assert_eq!(before, after, "restore must be bit-exact");
    }

    #[test]
    #[should_panic(expected = "different model family")]
    fn restore_rejects_wrong_family() {
        let t = trainer(22, 2);
        let ckpt = t.checkpoint();
        let _ =
            RealModeTrainer::from_checkpoint(RealModeConfig::small(ModelKind::Dcn, 22), ckpt, 2);
    }

    /// What a run leaves behind, each part an FNV-1a over its bits.
    #[derive(Debug, PartialEq, Eq)]
    struct Outcome {
        losses: u64,
        checkpoint: u64,
        materialized_rows: usize,
        embedding_bytes: usize,
        coverage: u64,
        rounds_without_data: Vec<u64>,
    }

    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |mut h, w| {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        })
    }

    /// Trains under the Fig. 8 churn schedule, then narrows the gang to
    /// one live worker, fails it (a round with no live worker) and adds
    /// two, with every round's gradients computed on `width` threads.
    fn run_at_width(kind: ModelKind, width: usize) -> Outcome {
        let mut config = RealModeConfig::small(kind, 42);
        config.total_samples = 64 * 64 * 12;
        let mut t = RealModeTrainer::new(config, 3);
        let mut rounds_without_data = Vec::new();
        let mut round = 0u64;
        while !t.is_complete() {
            match round {
                40 => t.apply(ElasticEvent::FailWorker(0)),
                70 | 100 => t.apply(ElasticEvent::AddWorker),
                150 => t.apply(ElasticEvent::RemoveWorker(1)),
                200 => {
                    t.apply(ElasticEvent::FailWorker(2));
                    t.apply(ElasticEvent::FailWorker(3));
                    assert_eq!(t.live_workers(), 1);
                }
                210 => t.apply(ElasticEvent::FailWorker(4)),
                211 => {
                    t.apply(ElasticEvent::AddWorker);
                    t.apply(ElasticEvent::AddWorker);
                }
                _ => {}
            }
            if t.train_round_with(|_| Cores::fixed(width)).is_none() {
                rounds_without_data.push(round);
            }
            round += 1;
            assert!(round < 10_000, "wedged");
        }
        let ckpt = t.checkpoint();
        let m = &ckpt.model;
        let floats = m.dense.iter().chain(&m.dense_acc).copied();
        let rows = m.tables.iter().chain(&m.wide).flatten();
        let row_words = rows.flat_map(|(slot, w, a)| {
            std::iter::once(*slot).chain(w.iter().chain(a).map(|v| u64::from(v.to_bits())))
        });
        Outcome {
            losses: fnv(t.loss_history().iter().flat_map(|&(r, l)| [r, u64::from(l.to_bits())])),
            checkpoint: fnv(floats.map(|v| u64::from(v.to_bits())).chain(row_words)),
            materialized_rows: t.model.materialized_rows(),
            embedding_bytes: t.embedding_bytes(),
            coverage: ckpt.shards.coverage_digest(),
            rounds_without_data,
        }
    }

    /// The round's concurrency is invisible: widths 2, 3 and 8 (more
    /// threads than slots) leave every trained bit, every row and the
    /// shard accounting as width 1, one thread, does.
    fn assert_width_invariant(kind: ModelKind) {
        let one = run_at_width(kind, 1);
        assert_eq!(one.rounds_without_data, vec![210], "{kind:?}");
        for width in [2, 3, 8] {
            assert_eq!(run_at_width(kind, width), one, "{kind:?} at width {width}");
        }
    }

    /// Rounds computing side by side split the machine: a round always
    /// has its own core, takes helpers only from idle ones, gives the
    /// helpers back after its join and its own core at its end.
    #[test]
    fn side_by_side_rounds_share_the_idle_cores() {
        static POOL: AtomicIsize = AtomicIsize::new(2);
        let idle = || POOL.load(Ordering::Relaxed);
        let mut first = Cores::take(&POOL, 3);
        assert_eq!((first.threads, idle()), (2, 0));
        let second = Cores::take(&POOL, 3);
        assert_eq!((second.threads, idle()), (1, -1));
        first.release_helpers();
        assert_eq!((first.threads, idle()), (1, 0), "the first round's apply still runs");
        drop(first);
        assert_eq!(idle(), 1);
        let third = Cores::take(&POOL, 3);
        assert_eq!((third.threads, idle()), (1, 0), "the second round still holds its core");
        drop((second, third));
        let single = Cores::take(&POOL, 1);
        assert_eq!((single.threads, idle()), (1, 1), "one slot wants no helper");
        drop(single);
        assert_eq!(idle(), 2);
    }

    #[test]
    fn wide_deep_results_do_not_depend_on_the_round_width() {
        assert_width_invariant(ModelKind::WideDeep);
    }

    #[test]
    fn xdeepfm_results_do_not_depend_on_the_round_width() {
        assert_width_invariant(ModelKind::XDeepFm);
    }

    #[test]
    fn dcn_results_do_not_depend_on_the_round_width() {
        assert_width_invariant(ModelKind::Dcn);
    }

    #[test]
    fn more_workers_drain_in_fewer_rounds() {
        let mut few = trainer(8, 1);
        let rounds_few = few.train_to_completion(1_000_000);
        let mut many = trainer(8, 6);
        let rounds_many = many.train_to_completion(1_000_000);
        assert!(rounds_many < rounds_few, "{rounds_many} !< {rounds_few}");
    }
}
