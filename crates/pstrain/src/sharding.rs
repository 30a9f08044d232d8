//! Dynamic data sharding (§5.1).
//!
//! DLRover-RM "splits the dataset into numerous, much smaller, and
//! variably-sized shards (e.g., 64, 128, or 256 data batches), each labeled
//! with a unique index" and serves them to workers *on demand* from a shards
//! queue. The mechanism delivers three guarantees the experiments rely on:
//!
//! 1. **Exactly-once consumption** — a failed worker's unfinished shards
//!    rejoin the queue; the union of completed shards covers the dataset
//!    with no omission and no duplication (property-tested below).
//! 2. **Straggler pacing** — slow workers receive *smaller* shards so their
//!    gradient-submission cadence matches their peers', bounding staleness.
//! 3. **Fast elasticity** — a new worker just pulls the next shard; no
//!    global data re-partitioning.
//!
//! Progress offsets piggyback on worker heartbeats; the job master uses them
//! for liveness and completion accounting.

use dlrover_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Identifier of a data shard (its queue index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ShardId(pub u64);

/// A contiguous slice of the training data, in *samples*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataShard {
    /// Unique index.
    pub id: ShardId,
    /// First sample index (the synthetic dataset is indexable, so a shard
    /// is fully described by its range).
    pub start: u64,
    /// Number of samples.
    pub len: u64,
}

impl DataShard {
    /// One past the last sample index.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// Sharding configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardingConfig {
    /// Nominal shard size in batches (paper: 64/128/256).
    pub batches_per_shard: u32,
    /// Batch size in samples.
    pub batch_size: u32,
    /// Minimum shard size in batches when shrinking for stragglers.
    pub min_batches_per_shard: u32,
}

impl Default for ShardingConfig {
    fn default() -> Self {
        ShardingConfig { batches_per_shard: 128, batch_size: 512, min_batches_per_shard: 16 }
    }
}

/// Per-worker progress bookkeeping, fed by heartbeats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerProgress {
    /// Samples processed within the currently held shard.
    pub offset_in_shard: u64,
    /// Last heartbeat time.
    pub last_heartbeat: SimTime,
    /// Shard currently checked out, if any.
    pub current_shard: Option<DataShard>,
}

/// The shards queue plus worker accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardQueue {
    config: ShardingConfig,
    /// Shards waiting to be served, FIFO (re-queued shards go to the front
    /// so recovery data is consumed promptly).
    pending: std::collections::VecDeque<DataShard>,
    /// Total samples in the epoch.
    total_samples: u64,
    /// Samples covered by *completed* shards.
    completed_samples: u64,
    next_shard_id: u64,
    /// Worker states by caller-assigned worker id, **ascending by id**.
    /// Ids are handed out ascending (the engine's counter), so registering
    /// appends, and a lookup is a search over a handful of entries.
    /// Iteration order is part of the contract: [`Self::quiesced`] fails
    /// workers in this order and each failure `push_front`s its shard, so
    /// the order decides which sample range is served next.
    workers: Vec<(u64, WorkerProgress)>,
}

impl ShardQueue {
    /// Splits `[0, total_samples)` into shards of the configured size.
    pub fn new(total_samples: u64, config: ShardingConfig) -> Self {
        let shard_samples =
            u64::from(config.batches_per_shard.max(1)) * u64::from(config.batch_size.max(1));
        let mut pending = std::collections::VecDeque::new();
        let mut start = 0;
        let mut id = 0;
        while start < total_samples {
            let len = shard_samples.min(total_samples - start);
            pending.push_back(DataShard { id: ShardId(id), start, len });
            id += 1;
            start += len;
        }
        ShardQueue {
            config,
            pending,
            total_samples,
            completed_samples: 0,
            next_shard_id: id,
            workers: Vec::new(),
        }
    }

    /// Position of `worker` in the id-sorted table, or where it would go.
    fn slot(&self, worker: u64) -> Result<usize, usize> {
        self.workers.binary_search_by_key(&worker, |&(id, _)| id)
    }

    /// Position of `worker`, registering it first when unknown.
    fn slot_or_register(&mut self, worker: u64, now: SimTime) -> usize {
        self.slot(worker).unwrap_or_else(|i| {
            let fresh =
                WorkerProgress { offset_in_shard: 0, last_heartbeat: now, current_shard: None };
            self.workers.insert(i, (worker, fresh));
            i
        })
    }

    fn worker_mut(&mut self, worker: u64) -> Option<&mut WorkerProgress> {
        let i = self.slot(worker).ok()?;
        Some(&mut self.workers[i].1)
    }

    fn take_worker(&mut self, worker: u64) -> Option<WorkerProgress> {
        let i = self.slot(worker).ok()?;
        Some(self.workers.remove(i).1)
    }

    /// Rebuilds a queue from a replayed completion watermark (master
    /// failover, §6): the first `completed_samples` stay completed and the
    /// tail `[completed_samples, total_samples)` is re-sharded fresh.
    /// Progress that was in flight at crash time was never acked, so it is
    /// *not* in the watermark and re-trains — the same bounded-rollback
    /// contract as [`ShardQueue::fail_worker`].
    pub fn resume(total_samples: u64, completed_samples: u64, config: ShardingConfig) -> Self {
        let done = completed_samples.min(total_samples);
        let mut q = ShardQueue::new(total_samples - done, config);
        // Shift the fresh shards up past the watermark so completed ranges
        // plus served shards still tile `[0, total_samples)` exactly.
        for s in q.pending.iter_mut() {
            s.start += done;
        }
        q.total_samples = total_samples;
        q.completed_samples = done;
        q
    }

    /// The sharding configuration.
    pub fn config(&self) -> &ShardingConfig {
        &self.config
    }

    /// Registers a worker (idempotent).
    pub fn register_worker(&mut self, worker: u64, now: SimTime) {
        self.slot_or_register(worker, now);
    }

    /// Removes a worker *gracefully* (e.g. scale-down): its unfinished data
    /// returns to the queue **minus what it already processed**, so nothing
    /// is trained twice.
    pub fn deregister_worker(&mut self, worker: u64) {
        let Some(state) = self.take_worker(worker) else { return };
        if let Some(shard) = state.current_shard {
            // The processed prefix counts as done; the tail is re-queued.
            self.completed_samples += state.offset_in_shard;
            let remaining = shard.len - state.offset_in_shard;
            if remaining > 0 {
                let tail = DataShard {
                    id: ShardId(self.next_shard_id),
                    start: shard.start + state.offset_in_shard,
                    len: remaining,
                };
                self.next_shard_id += 1;
                self.pending.push_front(tail);
            }
        }
    }

    /// Handles a worker *failure*: gradients from the partially processed
    /// shard may be lost, so the **whole** shard re-queues (the paper's
    /// recovery path — "re-joins the unfinished data shard(s) of the failed
    /// worker to the shards queue"). No data is omitted; the partially done
    /// prefix is retrained, which is safe for model quality.
    pub fn fail_worker(&mut self, worker: u64) {
        let Some(state) = self.take_worker(worker) else { return };
        if let Some(shard) = state.current_shard {
            self.pending.push_front(shard);
        }
    }

    /// A worker asks for its next shard. Slow workers (`pace < 1`) receive
    /// proportionally smaller shards so they submit gradients on the same
    /// cadence as their peers; `pace = 1` serves the nominal size.
    ///
    /// Returns `None` when the queue is drained.
    pub fn checkout(&mut self, worker: u64, pace: f64, now: SimTime) -> Option<DataShard> {
        let slot = self.slot_or_register(worker, now);
        assert!(
            self.workers[slot].1.current_shard.is_none(),
            "worker {worker} already holds a shard"
        );
        let mut shard = self.pending.pop_front()?;

        // Straggler pacing: shrink the shard to match the worker's pace.
        let nominal = u64::from(self.config.batches_per_shard) * u64::from(self.config.batch_size);
        let min = u64::from(self.config.min_batches_per_shard) * u64::from(self.config.batch_size);
        let target = ((nominal as f64) * pace.clamp(0.01, 1.0)).round() as u64;
        let target = target.clamp(min.min(shard.len), shard.len).max(1);
        if target < shard.len {
            let tail = DataShard {
                id: ShardId(self.next_shard_id),
                start: shard.start + target,
                len: shard.len - target,
            };
            self.next_shard_id += 1;
            self.pending.push_front(tail);
            shard.len = target;
        }

        let state = &mut self.workers[slot].1;
        state.current_shard = Some(shard);
        state.offset_in_shard = 0;
        state.last_heartbeat = now;
        Some(shard)
    }

    /// Heartbeat: the worker reports progress within its current shard.
    /// Progress is monotone; regressions are ignored.
    pub fn heartbeat(&mut self, worker: u64, offset_in_shard: u64, now: SimTime) {
        let Some(state) = self.worker_mut(worker) else { return };
        state.last_heartbeat = now;
        if let Some(shard) = state.current_shard {
            state.offset_in_shard = state.offset_in_shard.max(offset_in_shard.min(shard.len));
        }
    }

    /// The worker finished its current shard.
    ///
    /// # Panics
    /// Panics if the worker holds no shard.
    pub fn complete(&mut self, worker: u64, now: SimTime) -> DataShard {
        let state = self.worker_mut(worker).expect("unknown worker");
        let shard = state.current_shard.take().expect("worker holds no shard");
        state.offset_in_shard = 0;
        state.last_heartbeat = now;
        self.completed_samples += shard.len;
        shard
    }

    /// Workers whose last heartbeat is older than `timeout` — the failure
    /// detector's candidates, ascending by id.
    pub fn silent_workers(
        &self,
        now: SimTime,
        timeout: dlrover_sim::SimDuration,
    ) -> impl Iterator<Item = u64> + '_ {
        self.workers
            .iter()
            .filter(move |(_, s)| now.saturating_since(s.last_heartbeat) > timeout)
            .map(|&(id, _)| id)
    }

    /// Worker state (for the job master).
    pub fn worker(&self, worker: u64) -> Option<&WorkerProgress> {
        let i = self.slot(worker).ok()?;
        Some(&self.workers[i].1)
    }

    /// Registered workers, ascending.
    pub fn worker_ids(&self) -> Vec<u64> {
        self.workers.iter().map(|&(id, _)| id).collect()
    }

    /// Samples processed inside shards still checked out, summed over every
    /// registered worker (completed shards are in
    /// [`Self::completed_samples`]).
    pub fn in_flight_samples(&self) -> u64 {
        self.workers.iter().map(|(_, s)| s.offset_in_shard).sum()
    }

    /// Samples in completed shards.
    pub fn completed_samples(&self) -> u64 {
        self.completed_samples
    }

    /// Samples in the epoch.
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Shards still waiting in the queue.
    pub fn pending_shards(&self) -> usize {
        self.pending.len()
    }

    /// A quiesced copy for checkpointing: every in-flight shard is returned
    /// to the queue (as on worker failure) and all workers are dropped, so
    /// a restore sees a consistent frontier — completed work stays
    /// completed, in-flight work will be retrained, nothing is skipped.
    /// This is the "checkpointing unused data shards" half of the paper's
    /// PS-scaling consistency story (§5.2 / related work).
    pub fn quiesced(&self) -> ShardQueue {
        let mut q = self.clone();
        for id in q.worker_ids() {
            q.fail_worker(id);
        }
        q
    }

    /// True when every sample has been consumed by a completed shard and no
    /// worker holds an in-flight shard.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
            && self.workers.iter().all(|(_, s)| s.current_shard.is_none())
            && self.completed_samples >= self.total_samples
    }

    /// FNV-1a digest of the quiesced coverage state: the sorted pending
    /// `(start, len)` sample ranges plus the completed/total counts.
    /// In-flight shards are first requeued (as in [`Self::quiesced`]), so
    /// two queues with equal digests have trained — and therefore folded
    /// into the embedding tables — exactly the same sample set. This is
    /// the "embedding digest" the differential reconfiguration tests
    /// compare: a reconfiguration must never lose samples (§5.2).
    pub fn coverage_digest(&self) -> u64 {
        fn mix(mut h: u64, v: u64) -> u64 {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        }
        let q = self.quiesced();
        let mut ranges: Vec<(u64, u64)> = q.pending.iter().map(|s| (s.start, s.len)).collect();
        ranges.sort_unstable();
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        h = mix(h, q.total_samples);
        h = mix(h, q.completed_samples);
        for (start, len) in ranges {
            h = mix(h, start);
            h = mix(h, len);
        }
        h
    }
}

/// Everything a [`ShardQueue`] holds, in a representation-neutral shape:
/// `(pending, total, completed, next shard id, workers ascending)`.
#[cfg(test)]
pub(crate) type QueueState = (Vec<DataShard>, u64, u64, u64, Vec<(u64, WorkerProgress)>);

#[cfg(test)]
impl ShardQueue {
    /// Full state, for the differential tests against
    /// `sharding_reference`.
    pub(crate) fn state(&self) -> QueueState {
        (
            self.pending.iter().copied().collect(),
            self.total_samples,
            self.completed_samples,
            self.next_shard_id,
            self.workers.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrover_sim::SimDuration;

    fn cfg(batches: u32, batch: u32) -> ShardingConfig {
        ShardingConfig { batches_per_shard: batches, batch_size: batch, min_batches_per_shard: 2 }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn shards_cover_dataset_without_overlap() {
        let q = ShardQueue::new(100_000, cfg(8, 32));
        let mut covered = 0;
        let mut expected_start = 0;
        for shard in &q.pending {
            assert_eq!(shard.start, expected_start, "gap or overlap");
            covered += shard.len;
            expected_start = shard.end();
        }
        assert_eq!(covered, 100_000);
    }

    #[test]
    fn ragged_tail_shard() {
        let q = ShardQueue::new(1000, cfg(2, 300)); // shard = 600 samples
        let lens: Vec<u64> = q.pending.iter().map(|s| s.len).collect();
        assert_eq!(lens, vec![600, 400]);
    }

    #[test]
    fn checkout_complete_accounting() {
        let mut q = ShardQueue::new(2_000, cfg(2, 500)); // 2 shards of 1000
        let s = q.checkout(1, 1.0, t(0)).unwrap();
        assert_eq!(s.len, 1000);
        assert_eq!(q.completed_samples(), 0);
        q.complete(1, t(10));
        assert_eq!(q.completed_samples(), 1000);
        q.checkout(1, 1.0, t(11)).unwrap();
        q.complete(1, t(20));
        assert!(q.is_drained());
        assert!(q.checkout(1, 1.0, t(21)).is_none());
    }

    #[test]
    fn straggler_gets_smaller_shard() {
        let mut q = ShardQueue::new(100_000, cfg(8, 100)); // nominal 800
        let fast = q.checkout(1, 1.0, t(0)).unwrap();
        let slow = q.checkout(2, 0.25, t(0)).unwrap();
        assert_eq!(fast.len, 800);
        assert_eq!(slow.len, 200, "pace 0.25 should quarter the shard");
        // The split-off tail is not lost.
        q.complete(1, t(1));
        q.complete(2, t(1));
        let next = q.checkout(3, 1.0, t(2)).unwrap();
        assert_eq!(next.start, slow.end(), "tail of split shard served next");
    }

    #[test]
    fn shard_shrink_respects_minimum() {
        let mut q = ShardQueue::new(100_000, cfg(8, 100)); // min = 2 batches = 200
        let tiny = q.checkout(1, 0.0001, t(0)).unwrap();
        assert_eq!(tiny.len, 200);
    }

    #[test]
    fn failed_worker_requeues_whole_shard() {
        let mut q = ShardQueue::new(10_000, cfg(10, 100));
        let s = q.checkout(1, 1.0, t(0)).unwrap();
        q.heartbeat(1, 400, t(5));
        q.fail_worker(1);
        // The shard returns in full; completed samples unchanged.
        assert_eq!(q.completed_samples(), 0);
        let again = q.checkout(2, 1.0, t(6)).unwrap();
        assert_eq!(again, s, "failed shard must be served first and whole");
    }

    #[test]
    fn graceful_deregister_keeps_processed_prefix() {
        let mut q = ShardQueue::new(10_000, cfg(10, 100)); // shard = 1000
        let s = q.checkout(1, 1.0, t(0)).unwrap();
        q.heartbeat(1, 400, t(5));
        q.deregister_worker(1);
        assert_eq!(q.completed_samples(), 400);
        let tail = q.checkout(2, 1.0, t(6)).unwrap();
        assert_eq!(tail.start, s.start + 400);
        assert_eq!(tail.len, 600);
    }

    #[test]
    fn heartbeat_progress_is_monotone_and_bounded() {
        let mut q = ShardQueue::new(10_000, cfg(10, 100));
        q.checkout(1, 1.0, t(0)).unwrap();
        q.heartbeat(1, 500, t(1));
        q.heartbeat(1, 300, t(2)); // regression ignored
        assert_eq!(q.worker(1).unwrap().offset_in_shard, 500);
        q.heartbeat(1, 99_999, t(3)); // clamped to shard length
        assert_eq!(q.worker(1).unwrap().offset_in_shard, 1000);
    }

    #[test]
    fn silent_worker_detection() {
        let mut q = ShardQueue::new(10_000, cfg(10, 100));
        q.register_worker(1, t(0));
        q.register_worker(2, t(0));
        q.heartbeat(1, 0, t(100));
        let silent: Vec<u64> = q.silent_workers(t(130), SimDuration::from_secs(60)).collect();
        assert_eq!(silent, vec![2]);
    }

    #[test]
    fn quiesced_requeues_in_flight_work() {
        let mut q = ShardQueue::new(10_000, cfg(10, 100));
        q.checkout(1, 1.0, t(0)).unwrap();
        q.heartbeat(1, 400, t(1));
        q.checkout(2, 1.0, t(0)).unwrap();
        q.complete(2, t(2));
        let snap = q.quiesced();
        // Completed work is preserved; in-flight shard is back in the queue.
        assert_eq!(snap.completed_samples(), 1000);
        assert_eq!(snap.pending_shards(), q.pending_shards() + 1);
        assert!(snap.worker_ids().is_empty());
        // The original queue is untouched.
        assert_eq!(q.worker_ids().len(), 2);
        // Draining the snapshot covers everything not completed.
        let mut snap = snap;
        let mut covered = snap.completed_samples();
        snap.register_worker(9, t(3));
        while let Some(s) = snap.checkout(9, 1.0, t(3)) {
            covered += s.len;
            snap.complete(9, t(3));
        }
        assert_eq!(covered, 10_000);
    }

    #[test]
    fn resume_from_watermark_tiles_the_tail_exactly() {
        let mut q = ShardQueue::resume(10_000, 3_300, cfg(10, 100));
        assert_eq!(q.completed_samples(), 3_300);
        assert_eq!(q.total_samples(), 10_000);
        assert!(!q.is_drained());
        // Draining the resumed queue covers exactly [3300, 10000).
        let mut cursor = 3_300;
        while let Some(s) = q.checkout(1, 1.0, t(0)) {
            assert_eq!(s.start, cursor, "gap or duplicate at {}", s.start);
            cursor = s.end();
            q.complete(1, t(1));
        }
        assert_eq!(cursor, 10_000);
        assert!(q.is_drained());
        // Degenerate watermarks: complete job and past-the-end clamp.
        assert!(ShardQueue::resume(5_000, 5_000, cfg(10, 100)).is_drained());
        assert!(ShardQueue::resume(5_000, 9_999, cfg(10, 100)).is_drained());
    }

    #[test]
    #[should_panic(expected = "already holds a shard")]
    fn double_checkout_panics() {
        let mut q = ShardQueue::new(10_000, cfg(10, 100));
        q.checkout(1, 1.0, t(0)).unwrap();
        let _ = q.checkout(1, 1.0, t(1));
    }

    #[test]
    fn exactly_once_under_failures_scripted() {
        // Scripted chaos: 3 workers, one fails mid-shard, one deregisters.
        let mut q = ShardQueue::new(50_000, cfg(10, 100));
        let mut consumed: Vec<(u64, u64)> = Vec::new(); // (start, len) of *completed* work
        let mut clock = 0u64;
        q.checkout(1, 1.0, t(clock)).unwrap();
        q.checkout(2, 1.0, t(clock)).unwrap();
        q.checkout(3, 0.5, t(clock)).unwrap();
        // Worker 2 fails after partial progress.
        q.heartbeat(2, 700, t(1));
        q.fail_worker(2);
        // Worker 3 completes, then deregisters mid-second-shard.
        let s3 = q.worker(3).unwrap().current_shard.unwrap();
        consumed.push((s3.start, s3.len));
        q.complete(3, t(2));
        let s3b = q.checkout(3, 1.0, t(2)).unwrap();
        q.heartbeat(3, 300, t(3));
        consumed.push((s3b.start, 300));
        q.deregister_worker(3);
        // Worker 1 grinds through the rest.
        let s1 = q.worker(1).unwrap().current_shard.unwrap();
        consumed.push((s1.start, s1.len));
        q.complete(1, t(4));
        clock = 5;
        while let Some(s) = q.checkout(1, 1.0, t(clock)) {
            consumed.push((s.start, s.len));
            q.complete(1, t(clock));
            clock += 1;
        }
        assert!(q.is_drained());
        // Coverage check: completed ranges tile [0, 50_000) exactly.
        consumed.sort_unstable();
        let mut cursor = 0;
        for (start, len) in consumed {
            assert_eq!(start, cursor, "gap or duplicate at {start}");
            cursor = start + len;
        }
        assert_eq!(cursor, 50_000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dlrover_sim::SimTime;
    use proptest::prelude::*;

    /// Random walks over the queue API must preserve the exactly-once
    /// invariant: when drained, completed ranges tile the dataset.
    #[derive(Debug, Clone)]
    enum Op {
        Checkout(u64, f64),
        Complete(u64),
        Fail(u64),
        Deregister(u64),
        Heartbeat(u64, u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..4, 0.05f64..1.0).prop_map(|(w, p)| Op::Checkout(w, p)),
            (0u64..4).prop_map(Op::Complete),
            (0u64..4).prop_map(Op::Fail),
            (0u64..4).prop_map(Op::Deregister),
            (0u64..4, 0u64..2000).prop_map(|(w, o)| Op::Heartbeat(w, o)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn exactly_once_under_arbitrary_chaos(
            ops in proptest::collection::vec(op_strategy(), 1..200),
            total in 1_000u64..20_000,
        ) {
            let cfg = ShardingConfig {
                batches_per_shard: 4,
                batch_size: 128,
                min_batches_per_shard: 1,
            };
            let mut q = ShardQueue::new(total, cfg);
            let mut completed: Vec<(u64, u64)> = Vec::new();
            let mut clock = 0u64;
            for op in ops {
                clock += 1;
                let now = SimTime::from_secs(clock);
                match op {
                    Op::Checkout(w, pace) => {
                        q.register_worker(w, now);
                        if q.worker(w).unwrap().current_shard.is_none() {
                            let _ = q.checkout(w, pace, now);
                        }
                    }
                    Op::Complete(w) => {
                        if q.worker(w).and_then(|s| s.current_shard).is_some() {
                            let s = q.complete(w, now);
                            completed.push((s.start, s.len));
                        }
                    }
                    Op::Fail(w) => q.fail_worker(w),
                    Op::Deregister(w) => {
                        // Record the kept prefix before the API consumes it.
                        if let Some(state) = q.worker(w) {
                            if let Some(shard) = state.current_shard {
                                let prefix = state.offset_in_shard;
                                if prefix > 0 {
                                    completed.push((shard.start, prefix));
                                }
                            }
                        }
                        q.deregister_worker(w);
                    }
                    Op::Heartbeat(w, off) => q.heartbeat(w, off, now),
                }
            }
            // Drain with one fresh worker.
            let mut clock = clock + 1;
            q.register_worker(99, SimTime::from_secs(clock));
            while let Some(s) = q.checkout(99, 1.0, SimTime::from_secs(clock)) {
                completed.push((s.start, s.len));
                q.complete(99, SimTime::from_secs(clock));
                clock += 1;
            }
            // Any still-held shards belong to workers that never completed:
            // finish them too.
            for w in q.worker_ids() {
                if q.worker(w).and_then(|s| s.current_shard).is_some() {
                    let s = q.complete(w, SimTime::from_secs(clock));
                    completed.push((s.start, s.len));
                }
            }
            prop_assert!(q.is_drained());
            completed.sort_unstable();
            let mut cursor = 0;
            for (start, len) in completed {
                prop_assert_eq!(start, cursor, "gap or duplicate");
                cursor = start + len;
            }
            prop_assert_eq!(cursor, total);
        }
    }

    /// Ops for the differential walk: the exactly-once walk above plus
    /// registration, the silent-worker detector and quiescing, over ids
    /// that arrive out of order and get re-registered after removal.
    #[derive(Debug, Clone)]
    enum DiffOp {
        Register(u64),
        Queue(Op),
        Silent(u64),
        Quiesce,
    }

    fn diff_op() -> impl Strategy<Value = DiffOp> {
        prop_oneof![
            (0u64..6).prop_map(DiffOp::Register),
            op_strategy().prop_map(DiffOp::Queue),
            op_strategy().prop_map(DiffOp::Queue),
            op_strategy().prop_map(DiffOp::Queue),
            (0u64..40).prop_map(DiffOp::Silent),
            Just(DiffOp::Quiesce),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// The id-sorted `Vec` queue and the B-tree queue it replaced agree
        /// on every return value, on the full state after every op, and on
        /// `coverage_digest` — which quiesces, so it sees the order workers
        /// are failed in.
        #[test]
        fn vec_queue_matches_btree_reference(
            ops in proptest::collection::vec(diff_op(), 1..250),
            total in 1_000u64..20_000,
            resume_at in 0u64..4_000,
        ) {
            use crate::sharding_reference::ShardQueue as RefQueue;
            let cfg = ShardingConfig {
                batches_per_shard: 4,
                batch_size: 128,
                min_batches_per_shard: 1,
            };
            let (mut live, mut reference) = if resume_at % 2 == 0 {
                (ShardQueue::new(total, cfg), RefQueue::new(total, cfg))
            } else {
                (ShardQueue::resume(total, resume_at, cfg), RefQueue::resume(total, resume_at, cfg))
            };
            let mut clock = 0u64;
            for op in ops {
                clock += 1;
                let now = SimTime::from_secs(clock);
                match op {
                    DiffOp::Register(w) => {
                        live.register_worker(w, now);
                        reference.register_worker(w, now);
                    }
                    DiffOp::Queue(Op::Checkout(w, pace)) => {
                        live.register_worker(w, now);
                        reference.register_worker(w, now);
                        if live.worker(w).unwrap().current_shard.is_none() {
                            prop_assert_eq!(
                                live.checkout(w, pace, now),
                                reference.checkout(w, pace, now)
                            );
                        }
                    }
                    DiffOp::Queue(Op::Complete(w)) => {
                        if live.worker(w).and_then(|s| s.current_shard).is_some() {
                            prop_assert_eq!(live.complete(w, now), reference.complete(w, now));
                        }
                    }
                    DiffOp::Queue(Op::Fail(w)) => {
                        live.fail_worker(w);
                        reference.fail_worker(w);
                    }
                    DiffOp::Queue(Op::Deregister(w)) => {
                        live.deregister_worker(w);
                        reference.deregister_worker(w);
                    }
                    DiffOp::Queue(Op::Heartbeat(w, off)) => {
                        live.heartbeat(w, off, now);
                        reference.heartbeat(w, off, now);
                    }
                    DiffOp::Silent(secs) => {
                        let timeout = dlrover_sim::SimDuration::from_secs(secs);
                        prop_assert_eq!(
                            live.silent_workers(now, timeout).collect::<Vec<_>>(),
                            reference.silent_workers(now, timeout)
                        );
                    }
                    DiffOp::Quiesce => {
                        live = live.quiesced();
                        reference = reference.quiesced();
                    }
                }
                prop_assert_eq!(live.state(), reference.state());
                prop_assert_eq!(live.worker_ids(), reference.worker_ids());
                prop_assert_eq!(live.is_drained(), reference.is_drained());
                prop_assert_eq!(live.coverage_digest(), reference.coverage_digest());
                let in_flight: u64 = reference
                    .worker_ids()
                    .iter()
                    .map(|&w| reference.worker(w).unwrap().offset_in_shard)
                    .sum();
                prop_assert_eq!(live.in_flight_samples(), in_flight);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// The silent-worker detector on gangs of 1–96 workers against the
        /// B-tree queue's body: workers that never checked out, workers
        /// mid-shard, workers several shards in, a queue small enough to
        /// drain, stale and fresh heartbeats.
        #[test]
        fn detectors_match_the_reference_on_large_gangs(
            progress in proptest::collection::vec((0u64..4, 0u64..600, 0u64..90), 1..97),
            total in 2_000u64..400_000,
        ) {
            use crate::sharding_reference::ShardQueue as RefQueue;
            let cfg = ShardingConfig {
                batches_per_shard: 4,
                batch_size: 128,
                min_batches_per_shard: 1,
            };
            let (mut live, mut reference) = (ShardQueue::new(total, cfg), RefQueue::new(total, cfg));
            for (w, &(shards, offset, beat)) in progress.iter().enumerate() {
                let (w, now) = (w as u64, SimTime::from_secs(beat));
                live.register_worker(w, now);
                reference.register_worker(w, now);
                for _ in 0..shards {
                    prop_assert_eq!(live.checkout(w, 1.0, now), reference.checkout(w, 1.0, now));
                    if live.worker(w).unwrap().current_shard.is_none() {
                        break; // drained
                    }
                    live.heartbeat(w, offset, now);
                    reference.heartbeat(w, offset, now);
                    if offset % 3 != 0 {
                        prop_assert_eq!(live.complete(w, now), reference.complete(w, now));
                    } else {
                        break; // stays mid-shard
                    }
                }
            }
            for timeout in [0u64, 20, 45, 89] {
                let (now, timeout) = (SimTime::from_secs(90), dlrover_sim::SimDuration::from_secs(timeout));
                prop_assert_eq!(
                    live.silent_workers(now, timeout).collect::<Vec<_>>(),
                    reference.silent_workers(now, timeout)
                );
            }
        }
    }
}
