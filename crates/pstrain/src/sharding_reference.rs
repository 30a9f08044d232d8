//! The `BTreeMap`-backed [`ShardQueue`](crate::ShardQueue) this crate
//! first shipped with, kept verbatim (visibility, serde derives and the
//! since-deleted progress-lag detector aside) as the reference the
//! id-sorted-`Vec` queue is tested against:
//! same return values, same full state, same `coverage_digest` under any
//! interleaving of the API.

#![allow(dead_code)]

use std::collections::BTreeMap;

use dlrover_sim::SimTime;

use crate::sharding::{DataShard, ShardId, ShardingConfig, WorkerProgress};

/// The shards queue plus worker accounting.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ShardQueue {
    config: ShardingConfig,
    /// Shards waiting to be served, FIFO (re-queued shards go to the front
    /// so recovery data is consumed promptly).
    pending: std::collections::VecDeque<DataShard>,
    /// Total samples in the epoch.
    total_samples: u64,
    /// Samples covered by *completed* shards.
    completed_samples: u64,
    next_shard_id: u64,
    /// Worker states, keyed by caller-assigned worker ids.
    workers: BTreeMap<u64, WorkerProgress>,
}

impl ShardQueue {
    /// Splits `[0, total_samples)` into shards of the configured size.
    pub(crate) fn new(total_samples: u64, config: ShardingConfig) -> Self {
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
            workers: BTreeMap::new(),
        }
    }

    /// Rebuilds a queue from a replayed completion watermark (master
    /// failover, §6): the first `completed_samples` stay completed and the
    /// tail `[completed_samples, total_samples)` is re-sharded fresh.
    /// Progress that was in flight at crash time was never acked, so it is
    /// *not* in the watermark and re-trains — the same bounded-rollback
    /// contract as [`ShardQueue::fail_worker`].
    pub(crate) fn resume(
        total_samples: u64,
        completed_samples: u64,
        config: ShardingConfig,
    ) -> Self {
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
    pub(crate) fn config(&self) -> &ShardingConfig {
        &self.config
    }

    /// Registers a worker (idempotent).
    pub(crate) fn register_worker(&mut self, worker: u64, now: SimTime) {
        self.workers.entry(worker).or_insert(WorkerProgress {
            offset_in_shard: 0,
            last_heartbeat: now,
            current_shard: None,
        });
    }

    /// Removes a worker *gracefully* (e.g. scale-down): its unfinished data
    /// returns to the queue **minus what it already processed**, so nothing
    /// is trained twice.
    pub(crate) fn deregister_worker(&mut self, worker: u64) {
        let Some(state) = self.workers.remove(&worker) else { return };
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
    pub(crate) fn fail_worker(&mut self, worker: u64) {
        let Some(state) = self.workers.remove(&worker) else { return };
        if let Some(shard) = state.current_shard {
            self.pending.push_front(shard);
        }
    }

    /// A worker asks for its next shard. Slow workers (`pace < 1`) receive
    /// proportionally smaller shards so they submit gradients on the same
    /// cadence as their peers; `pace = 1` serves the nominal size.
    ///
    /// Returns `None` when the queue is drained.
    pub(crate) fn checkout(&mut self, worker: u64, pace: f64, now: SimTime) -> Option<DataShard> {
        self.register_worker(worker, now);
        let state = self.workers.get_mut(&worker).expect("just registered");
        assert!(state.current_shard.is_none(), "worker {worker} already holds a shard");
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

        state.current_shard = Some(shard);
        state.offset_in_shard = 0;
        state.last_heartbeat = now;
        Some(shard)
    }

    /// Heartbeat: the worker reports progress within its current shard.
    /// Progress is monotone; regressions are ignored.
    pub(crate) fn heartbeat(&mut self, worker: u64, offset_in_shard: u64, now: SimTime) {
        let Some(state) = self.workers.get_mut(&worker) else { return };
        state.last_heartbeat = now;
        if let Some(shard) = state.current_shard {
            state.offset_in_shard = state.offset_in_shard.max(offset_in_shard.min(shard.len));
        }
    }

    /// The worker finished its current shard.
    ///
    /// # Panics
    /// Panics if the worker holds no shard.
    pub(crate) fn complete(&mut self, worker: u64, now: SimTime) -> DataShard {
        let state = self.workers.get_mut(&worker).expect("unknown worker");
        let shard = state.current_shard.take().expect("worker holds no shard");
        state.offset_in_shard = 0;
        state.last_heartbeat = now;
        self.completed_samples += shard.len;
        shard
    }

    /// Workers whose last heartbeat is older than `timeout` — the failure
    /// detector's candidates.
    pub(crate) fn silent_workers(
        &self,
        now: SimTime,
        timeout: dlrover_sim::SimDuration,
    ) -> Vec<u64> {
        self.workers
            .iter()
            .filter(|(_, s)| now.saturating_since(s.last_heartbeat) > timeout)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Worker state (for the job master).
    pub(crate) fn worker(&self, worker: u64) -> Option<&WorkerProgress> {
        self.workers.get(&worker)
    }

    /// Registered workers.
    pub(crate) fn worker_ids(&self) -> Vec<u64> {
        self.workers.keys().copied().collect()
    }

    /// Samples in completed shards.
    pub(crate) fn completed_samples(&self) -> u64 {
        self.completed_samples
    }

    /// Samples in the epoch.
    pub(crate) fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Shards still waiting in the queue.
    pub(crate) fn pending_shards(&self) -> usize {
        self.pending.len()
    }

    /// A quiesced copy for checkpointing: every in-flight shard is returned
    /// to the queue (as on worker failure) and all workers are dropped, so
    /// a restore sees a consistent frontier — completed work stays
    /// completed, in-flight work will be retrained, nothing is skipped.
    /// This is the "checkpointing unused data shards" half of the paper's
    /// PS-scaling consistency story (§5.2 / related work).
    pub(crate) fn quiesced(&self) -> ShardQueue {
        let mut q = self.clone();
        for id in q.worker_ids() {
            q.fail_worker(id);
        }
        q
    }

    /// True when every sample has been consumed by a completed shard and no
    /// worker holds an in-flight shard.
    pub(crate) fn is_drained(&self) -> bool {
        self.pending.is_empty()
            && self.workers.values().all(|s| s.current_shard.is_none())
            && self.completed_samples >= self.total_samples
    }

    /// FNV-1a digest of the quiesced coverage state: the sorted pending
    /// `(start, len)` sample ranges plus the completed/total counts.
    /// In-flight shards are first requeued (as in [`Self::quiesced`]), so
    /// two queues with equal digests have trained — and therefore folded
    /// into the embedding tables — exactly the same sample set. This is
    /// the "embedding digest" the differential reconfiguration tests
    /// compare: a reconfiguration must never lose samples (§5.2).
    pub(crate) fn coverage_digest(&self) -> u64 {
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

impl ShardQueue {
    /// Full state in the shape `crate::ShardQueue::state` reports it.
    pub(crate) fn state(&self) -> crate::sharding::QueueState {
        (
            self.pending.iter().copied().collect(),
            self.total_samples,
            self.completed_samples,
            self.next_shard_id,
            self.workers.iter().map(|(&id, s)| (id, s.clone())).collect(),
        )
    }
}
