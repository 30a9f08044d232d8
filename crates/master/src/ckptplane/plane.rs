//! The tiered checkpoint plane: hot tier + shared bandwidth-limited
//! remote tier with crash-consistent commit records.
//!
//! Models the production layout of §5.3: flash checkpoints land in a
//! memory-speed caching tier (sub-second for 20 GB) and are flushed
//! asynchronously to remote disk storage whose bandwidth is *shared
//! across every tenant in the cluster* — the reason RDS saves take
//! "5-10 minutes" (§2.2). The plane is deterministic in virtual time:
//! a single FIFO transfer queue drains at the remote tier's write
//! bandwidth (piecewise-constant under outage/collapse fault windows),
//! and a checkpoint becomes *durable* only when its manifest record
//! lands remotely ([`Manifest::committed_at`]). Restores that cannot be
//! served from the hot tier must wait for both a committed manifest and
//! a reachable remote tier — the no-uncommitted-restore invariant the
//! oracle audits. The plane's manifests are a job's only checkpoints: a
//! restore reads nothing else, and the oracle's monotonicity check audits
//! their `CheckpointStaged` records.

use std::collections::{BTreeMap, VecDeque};

use dlrover_pstrain::StorageTier;
use dlrover_sim::{SimDuration, SimTime};
use dlrover_telemetry::{EventKind, Telemetry};
use serde::{Deserialize, Serialize};

use super::chunks::{manifest_chunks, ChunkRef, ChunkStore, ChunkingConfig};

/// Configuration of the tiered checkpoint plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CkptPlaneConfig {
    /// Cadence of periodic flash checkpoints per job.
    pub interval: SimDuration,
    /// Hot-tier capacity in bytes (physical, after dedup). Oldest
    /// resident manifests are evicted when exceeded.
    pub hot_capacity_bytes: u64,
    /// Remote-tier physics (§2.2: throttled RDS). The write bandwidth is
    /// shared by the single FIFO transfer queue, with the per-operation
    /// latency folded into each transfer as equivalent bytes; restores
    /// read beside the queue.
    pub remote: StorageTier,
    /// How checkpoints are cut into content-addressed chunks.
    pub chunking: ChunkingConfig,
}

/// Hot-tier bandwidths and per-operation latency ("less than 1 second for a
/// 20 GB model", §5.3).
const HOT: StorageTier = StorageTier::FLASH;

/// Committed manifests retained per job before the oldest is retired and
/// its chunks released.
pub const RETAIN_PER_JOB: usize = 3;
// A corrupted newest manifest must always leave a fallback.
const _: () = assert!(RETAIN_PER_JOB >= 2);

impl Default for CkptPlaneConfig {
    fn default() -> Self {
        CkptPlaneConfig {
            interval: SimDuration::from_secs(120),
            hot_capacity_bytes: 16_000_000_000,
            remote: StorageTier::RDS,
            chunking: ChunkingConfig::default(),
        }
    }
}

/// A checkpoint manifest: the commit record that makes a checkpoint
/// durable once it lands in the remote tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Plane-wide manifest id (save order).
    pub id: u64,
    /// Owning job.
    pub job: u64,
    /// Model family (governs cross-job dedup).
    pub family: u64,
    /// Training step at save time.
    pub step: u64,
    /// Samples-processed watermark at save time.
    pub samples: u64,
    /// Logical checkpoint size.
    pub bytes: u64,
    /// Bytes new to the remote tier at save time (after dedup).
    pub new_bytes: u64,
    /// Content chunks.
    pub chunks: Vec<ChunkRef>,
    /// Checksum over the chunk keys.
    pub checksum: u64,
    /// Set when the manifest record landed remotely (durability point).
    pub committed_at: Option<SimTime>,
    /// Set by a `ManifestCorruption` fault; a corrupted manifest is
    /// skipped at restore in favor of an older committed one.
    pub corrupted: bool,
}

/// Where a restore was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RestoreSource {
    /// Hot-tier resident copy (memory speed).
    Hot,
    /// Remote tier (committed manifest; waits out outages).
    Remote,
}

impl RestoreSource {
    /// Stable label used in telemetry events.
    pub fn label(self) -> &'static str {
        match self {
            RestoreSource::Hot => "hot",
            RestoreSource::Remote => "remote",
        }
    }
}

/// Result of a [`CheckpointPlane::save`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaveOutcome {
    /// Id of the manifest created.
    pub manifest: u64,
    /// Synchronous training pause charged for the hot-tier write.
    pub hot_pause: SimDuration,
    /// Bytes newly transferred to the remote tier.
    pub new_bytes: u64,
    /// Bytes deduplicated against remote content (this job's previous
    /// saves and family peers).
    pub dedup_bytes: u64,
}

/// Result of a [`CheckpointPlane::restore`]: the restore *starts* at
/// `ready_at` (after waiting out any remote outage) and occupies
/// `duration` of read time; training resumes at `ready_at + duration`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestoreOutcome {
    /// Manifest restored.
    pub manifest: u64,
    /// Training step encoded in the manifest.
    pub step: u64,
    /// Samples watermark encoded in the manifest.
    pub samples: u64,
    /// Bytes read.
    pub bytes: u64,
    /// When the tier could begin serving the read.
    pub ready_at: SimTime,
    /// Read time once serving begins.
    pub duration: SimDuration,
    /// Serving tier.
    pub source: RestoreSource,
}

impl RestoreOutcome {
    /// When training can resume.
    pub fn resume_at(&self) -> SimTime {
        self.ready_at + self.duration
    }
}

/// Aggregate counters, serialized into experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PlaneStats {
    /// Checkpoints staged.
    pub saves: u64,
    /// Logical bytes staged.
    pub staged_bytes: u64,
    /// Bytes actually pushed to the remote tier.
    pub new_remote_bytes: u64,
    /// Bytes saved by dedup (remote tier).
    pub dedup_bytes: u64,
    /// Manifests committed (durable).
    pub commits: u64,
    /// Restores served.
    pub restores: u64,
    /// Bytes read by restores.
    pub restored_bytes: u64,
    /// Hot-tier evictions.
    pub hot_evictions: u64,
    /// Manifests corrupted by faults.
    pub corruptions: u64,
    /// Restores that skipped a corrupted manifest for an older one.
    pub corrupt_fallbacks: u64,
    /// Microseconds the remote write pipe spent actively transferring.
    pub remote_busy_us: u64,
}

impl PlaneStats {
    /// Dedup ratio: fraction of staged remote traffic avoided.
    pub fn dedup_ratio(&self) -> f64 {
        let total = self.new_remote_bytes + self.dedup_bytes;
        if total == 0 {
            0.0
        } else {
            self.dedup_bytes as f64 / total as f64
        }
    }

    /// Remote write-bandwidth occupancy over `[0, now]`.
    pub fn remote_occupancy(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            0.0
        } else {
            self.remote_busy_us as f64 / now.as_micros() as f64
        }
    }
}

/// An in-flight manifest transfer. `cost_bytes` includes the base
/// latency expressed as equivalent bytes at nominal bandwidth, so a
/// fully-deduped manifest still pays the per-operation latency.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Transfer {
    manifest: u64,
    cost_bytes: f64,
}

/// The deterministic tiered checkpoint plane shared by every job.
#[derive(Debug)]
pub struct CheckpointPlane {
    cfg: CkptPlaneConfig,
    telemetry: Telemetry,
    manifests: BTreeMap<u64, Manifest>,
    /// Per-job manifest ids in save order (retired ids are dropped).
    by_job: BTreeMap<u64, Vec<u64>>,
    next_id: u64,
    hot: ChunkStore,
    /// Hot-resident manifest ids, oldest save first (eviction order).
    hot_residents: VecDeque<u64>,
    hot_manifest_of_job: BTreeMap<u64, u64>,
    remote: ChunkStore,
    queue: VecDeque<Transfer>,
    /// How far the remote pipe has been simulated.
    remote_clock: SimTime,
    /// Remote-tier outage windows `(from, until)`.
    outages: Vec<(SimTime, SimTime)>,
    /// Bandwidth-collapse windows `(from, until, factor_permille)`.
    collapses: Vec<(SimTime, SimTime, u32)>,
    stats: PlaneStats,
    /// Events of the call in progress, in record order; every public entry
    /// point that can produce one ends with [`Self::flush_events`], so a
    /// call costs the sink one acquisition however many manifests it
    /// commits, evicts and stages.
    outbox: Vec<(SimTime, EventKind)>,
}

impl CheckpointPlane {
    /// Creates a plane with the given configuration.
    pub fn new(cfg: CkptPlaneConfig) -> Self {
        CheckpointPlane {
            cfg,
            telemetry: Telemetry::default(),
            manifests: BTreeMap::new(),
            by_job: BTreeMap::new(),
            next_id: 0,
            hot: ChunkStore::default(),
            hot_residents: VecDeque::new(),
            hot_manifest_of_job: BTreeMap::new(),
            remote: ChunkStore::default(),
            queue: VecDeque::new(),
            remote_clock: SimTime::ZERO,
            outages: Vec::new(),
            collapses: Vec::new(),
            stats: PlaneStats::default(),
            outbox: Vec::new(),
        }
    }

    /// Hands the call's events to the sink under one acquisition.
    fn flush_events(&mut self) {
        if self.outbox.is_empty() {
            return;
        }
        match self.telemetry.batch() {
            Some(mut sink) => self.outbox.drain(..).for_each(|(at, kind)| sink.record(at, kind)),
            None => self.outbox.clear(),
        }
    }

    /// Routes plane events into `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The plane's configuration.
    pub fn config(&self) -> &CkptPlaneConfig {
        &self.cfg
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &PlaneStats {
        &self.stats
    }

    /// Manifest lookup (includes in-flight and corrupted manifests).
    pub fn manifest(&self, id: u64) -> Option<&Manifest> {
        self.manifests.get(&id)
    }

    /// Whether `job` has staged any manifest (committed or in-flight).
    pub fn has_manifests(&self, job: u64) -> bool {
        self.by_job.get(&job).is_some_and(|ids| !ids.is_empty())
    }

    /// Declares a remote-tier outage over `[from, until)`: the write
    /// pipe stalls and restores cannot start until the window passes.
    pub fn set_remote_outage(&mut self, from: SimTime, until: SimTime) {
        if until > from {
            self.outages.push((from, until));
        }
    }

    /// Declares a bandwidth collapse over `[from, until)`: remote write
    /// bandwidth divides by `factor_permille / 1000`.
    pub fn set_bandwidth_collapse(&mut self, from: SimTime, until: SimTime, factor_permille: u32) {
        if until > from && factor_permille > 1000 {
            self.collapses.push((from, until, factor_permille));
        }
    }

    /// First instant at or after `at` where the remote tier is
    /// reachable (chained outage windows are walked through).
    fn remote_reachable_at(&self, at: SimTime) -> SimTime {
        let mut t = at;
        // Windows are few (fault plans schedule a handful); loop until a
        // fixed point.
        loop {
            let mut moved = false;
            for &(from, until) in &self.outages {
                if t >= from && t < until {
                    t = until;
                    moved = true;
                }
            }
            if !moved {
                return t;
            }
        }
    }

    /// Remote write rate at `t` and the next instant (bounded by `now`)
    /// where the rate may change.
    fn rate_and_boundary(&self, t: SimTime, now: SimTime) -> (f64, SimTime) {
        let mut rate = self.cfg.remote.write_bandwidth;
        let mut boundary = now;
        for &(from, until, factor) in &self.collapses {
            if t >= from && t < until {
                rate *= 1000.0 / f64::from(factor);
                boundary = boundary.min(until);
            } else if from > t {
                boundary = boundary.min(from);
            }
        }
        for &(from, until) in &self.outages {
            if t >= from && t < until {
                rate = 0.0;
                boundary = boundary.min(until);
            } else if from > t {
                boundary = boundary.min(from);
            }
        }
        (rate, boundary)
    }

    /// Drains the remote transfer queue up to `now`, committing every
    /// manifest whose record lands. Must be called with monotonically
    /// non-decreasing `now` (virtual time).
    pub fn advance(&mut self, now: SimTime) {
        self.drain_queue(now);
        self.flush_events();
    }

    /// [`Self::advance`] without the flush, for entry points that go on
    /// producing events.
    fn drain_queue(&mut self, now: SimTime) {
        while self.remote_clock < now {
            if self.queue.is_empty() {
                self.remote_clock = now;
                break;
            }
            let (rate, boundary) = self.rate_and_boundary(self.remote_clock, now);
            if rate <= 0.0 {
                // Outage: the pipe idles until the window closes. The
                // boundary is strictly ahead of the clock inside a
                // window (min of `now` and the window end, both > t).
                self.remote_clock = boundary;
                if self.remote_clock >= now {
                    break;
                }
                continue;
            }
            let head = self.queue.front_mut().expect("checked non-empty above");
            let seg = boundary.saturating_since(self.remote_clock).as_secs_f64();
            let need = head.cost_bytes / rate;
            if need <= seg {
                let finish = self.remote_clock + SimDuration::from_secs_f64(need);
                self.stats.remote_busy_us += SimDuration::from_secs_f64(need).as_micros();
                let id = head.manifest;
                self.queue.pop_front();
                self.remote_clock = finish;
                let m = self.manifests.get_mut(&id).expect("queued manifest exists");
                m.committed_at = Some(finish);
                self.stats.commits += 1;
                self.outbox.push((
                    finish,
                    EventKind::CheckpointCommitted { job: m.job, manifest: id, step: m.step },
                ));
                let job = m.job;
                self.retire_old_manifests(job);
            } else {
                head.cost_bytes -= rate * seg;
                self.stats.remote_busy_us += SimDuration::from_secs_f64(seg).as_micros();
                self.remote_clock = boundary;
            }
        }
    }

    /// Stages a checkpoint for `(job, family)` at `now`. The hot write
    /// is synchronous (returned as `hot_pause`); the manifest transfer
    /// is enqueued behind every earlier transfer and commits when it
    /// drains. FIFO ordering guarantees crash consistency: by the time
    /// a manifest record lands, every chunk staged before it has landed
    /// too.
    pub fn save(
        &mut self,
        job: u64,
        family: u64,
        step: u64,
        samples: u64,
        bytes: u64,
        now: SimTime,
    ) -> SaveOutcome {
        self.drain_queue(now);
        let chunks = manifest_chunks(job, family, step, bytes, &self.cfg.chunking);
        // One walk of the chunk list: the two tiers are separate stores, so
        // each still sees its acquires in manifest order.
        let (mut new_remote, mut dedup, mut new_hot, mut checksum) = (0u64, 0u64, 0u64, 0u64);
        for c in &chunks {
            if self.remote.acquire(*c) {
                new_remote += c.bytes;
            } else {
                dedup += c.bytes;
            }
            if self.hot.acquire(*c) {
                new_hot += c.bytes;
            }
            checksum = super::chunks::mix64(checksum ^ super::chunks::mix64(c.key));
        }
        let id = self.next_id;
        self.next_id += 1;
        let manifest = Manifest {
            id,
            job,
            family,
            step,
            samples,
            bytes,
            new_bytes: new_remote,
            chunks,
            checksum,
            committed_at: None,
            corrupted: false,
        };
        self.manifests.insert(id, manifest);
        self.by_job.entry(job).or_default().push(id);

        // Supersede the job's previous hot copy, then evict for capacity.
        if let Some(prev) = self.hot_manifest_of_job.insert(job, id) {
            self.drop_hot_copy(prev, now);
        }
        self.hot_residents.push_back(id);
        while self.hot.stored_bytes() > self.cfg.hot_capacity_bytes {
            let Some(&oldest) = self.hot_residents.front() else { break };
            self.drop_hot_copy(oldest, now);
        }

        let remote = &self.cfg.remote;
        let latency_bytes = remote.base_latency.as_secs_f64() * remote.write_bandwidth;
        self.queue
            .push_back(Transfer { manifest: id, cost_bytes: new_remote as f64 + latency_bytes });

        let hot_pause = HOT.save_duration(new_hot);

        self.stats.saves += 1;
        self.stats.staged_bytes += bytes;
        self.stats.new_remote_bytes += new_remote;
        self.stats.dedup_bytes += dedup;
        self.outbox.push((
            now,
            EventKind::CheckpointStaged { job, manifest: id, step, bytes, new_bytes: new_remote },
        ));
        self.flush_events();
        SaveOutcome { manifest: id, hot_pause, new_bytes: new_remote, dedup_bytes: dedup }
    }

    /// Releases the hot-tier copy of manifest `id` (if resident).
    fn drop_hot_copy(&mut self, id: u64, now: SimTime) {
        let Some(pos) = self.hot_residents.iter().position(|&m| m == id) else { return };
        self.hot_residents.remove(pos);
        let m = self.manifests.get(&id).expect("resident manifest exists");
        let job = m.job;
        for c in &m.chunks {
            self.hot.release(c.key);
        }
        if self.hot_manifest_of_job.get(&job) == Some(&id) {
            self.hot_manifest_of_job.remove(&job);
        }
        self.stats.hot_evictions += 1;
        self.outbox.push((now, EventKind::CheckpointHotEvicted { job, manifest: id }));
    }

    /// Drops every hot-tier copy owned by `job` — a master crash wipes
    /// the job's caching pods, so recovery must go through the remote
    /// tier (or a witness peer).
    pub fn invalidate_hot(&mut self, job: u64, now: SimTime) {
        while let Some(&id) = self.hot_manifest_of_job.get(&job) {
            self.drop_hot_copy(id, now);
        }
        self.flush_events();
    }

    /// Retires committed manifests beyond the retention window,
    /// releasing their remote chunks. In-flight and hot-resident
    /// manifests are never retired.
    fn retire_old_manifests(&mut self, job: u64) {
        let Some(ids) = self.by_job.get_mut(&job) else { return };
        // The transfer queue is FIFO, so a job's manifests commit in save
        // order: the committed ones are a prefix of `ids`, and the scan
        // stops at the first in-flight one instead of walking a backlog
        // of staged manifests on every commit.
        let manifests = &mut self.manifests;
        let is_committed = |id: &u64| manifests.get(id).is_some_and(|m| m.committed_at.is_some());
        let committed = ids.iter().take_while(|id| is_committed(id)).count();
        debug_assert!(
            !ids[committed..].iter().any(is_committed),
            "a manifest committed ahead of an earlier save of its job"
        );
        // Everything committed before the retention window goes, in save
        // order, except what is still hot-resident.
        let window = committed.saturating_sub(RETAIN_PER_JOB);
        if window == 0 {
            return;
        }
        let mut position = 0;
        ids.retain(|id| {
            position += 1;
            if position > window || self.hot_residents.contains(id) {
                return true;
            }
            let m = manifests.remove(id).expect("retiring known manifest");
            for c in &m.chunks {
                self.remote.release(c.key);
            }
            false
        });
    }

    /// Marks the `nth` newest staged manifest of `job` as corrupted
    /// (0 = newest). Returns the manifest id hit, or `None` when the
    /// job has no manifests yet.
    pub fn corrupt_manifest(&mut self, job: u64, nth: u32, now: SimTime) -> Option<u64> {
        let ids = self.by_job.get(&job)?;
        if ids.is_empty() {
            return None;
        }
        let idx = ids.len().saturating_sub(1 + (nth as usize % ids.len()));
        let id = ids[idx];
        let m = self.manifests.get_mut(&id).expect("indexed manifest exists");
        if !m.corrupted {
            m.corrupted = true;
            self.stats.corruptions += 1;
            self.telemetry.record(now, EventKind::ManifestCorrupted { job, manifest: id });
        }
        Some(id)
    }

    /// Quotes a restore for `job` at `now`: the hot-tier copy when
    /// resident, else the newest committed, non-corrupted manifest from
    /// the remote tier (waiting out any outage window first). Returns
    /// `None` when no durable checkpoint exists — the job cold-starts.
    ///
    /// Records the `CheckpointRestored` event at the resume instant.
    pub fn restore(&mut self, job: u64, now: SimTime) -> Option<RestoreOutcome> {
        self.drain_queue(now);
        let out = self.quote_restore(job, now);
        self.flush_events();
        out
    }

    /// [`Self::restore`] once the queue has drained to `now`.
    fn quote_restore(&mut self, job: u64, now: SimTime) -> Option<RestoreOutcome> {
        if let Some(&id) = self.hot_manifest_of_job.get(&job) {
            let m = &self.manifests[&id];
            if !m.corrupted {
                let duration = HOT.load_duration(m.bytes);
                let out = RestoreOutcome {
                    manifest: id,
                    step: m.step,
                    samples: m.samples,
                    bytes: m.bytes,
                    ready_at: now,
                    duration,
                    source: RestoreSource::Hot,
                };
                self.finish_restore(&out, job);
                return Some(out);
            }
        }
        let ids = self.by_job.get(&job)?.clone();
        let mut fell_back = false;
        for &id in ids.iter().rev() {
            let m = &self.manifests[&id];
            if m.committed_at.is_none_or(|c| c > now) {
                continue;
            }
            if m.corrupted {
                fell_back = true;
                continue;
            }
            let ready_at = self.remote_reachable_at(now);
            let duration = self.cfg.remote.load_duration(m.bytes);
            let out = RestoreOutcome {
                manifest: id,
                step: m.step,
                samples: m.samples,
                bytes: m.bytes,
                ready_at,
                duration,
                source: RestoreSource::Remote,
            };
            if fell_back {
                self.stats.corrupt_fallbacks += 1;
            }
            self.finish_restore(&out, job);
            return Some(out);
        }
        None
    }

    fn finish_restore(&mut self, out: &RestoreOutcome, job: u64) {
        self.stats.restores += 1;
        self.stats.restored_bytes += out.bytes;
        self.outbox.push((
            out.resume_at(),
            EventKind::CheckpointRestored {
                job,
                manifest: out.manifest,
                step: out.step,
                bytes: out.bytes,
                source: out.source.label().to_string(),
            },
        ));
    }

    /// Order-independent digest over manifests, tier contents, and
    /// counters — the determinism probes compare this across thread and
    /// shard counts.
    pub fn digest(&self) -> u64 {
        use super::chunks::mix64;
        let mut acc = mix64(self.next_id ^ 0xCC_11);
        for m in self.manifests.values() {
            acc = mix64(
                acc ^ mix64(m.id)
                    ^ mix64(m.step)
                    ^ mix64(m.new_bytes)
                    ^ mix64(m.checksum)
                    ^ mix64(m.committed_at.map_or(u64::MAX, |t| t.as_micros()))
                    ^ u64::from(m.corrupted),
            );
        }
        acc = mix64(acc ^ self.hot.digest());
        acc = mix64(acc ^ self.remote.digest());
        acc = mix64(acc ^ mix64(self.stats.saves) ^ mix64(self.stats.commits));
        acc = mix64(acc ^ mix64(self.stats.restores) ^ mix64(self.stats.remote_busy_us));
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1_000_000_000;

    fn plane() -> CheckpointPlane {
        CheckpointPlane::new(CkptPlaneConfig::default())
    }

    #[test]
    fn save_is_fast_commit_is_slow() {
        let mut p = plane();
        let t0 = SimTime::from_secs(100);
        let out = p.save(1, 1, 1000, 512_000, 4 * GB, t0);
        assert!(out.hot_pause.as_secs_f64() < 1.0, "hot write is sub-second: {}", out.hot_pause);
        assert!(p.manifest(out.manifest).unwrap().committed_at.is_none());
        // 4 GB at 60 MB/s ≈ 67 s plus 15 s base.
        p.advance(SimTime::from_secs(140));
        assert!(p.manifest(out.manifest).unwrap().committed_at.is_none(), "mid-transfer");
        p.advance(SimTime::from_secs(400));
        let committed = p.manifest(out.manifest).unwrap().committed_at.unwrap();
        assert!(committed > t0 + SimDuration::from_secs(60));
        assert_eq!(p.stats().commits, 1);
    }

    #[test]
    fn incremental_saves_dedup_against_previous() {
        let mut p = plane();
        let a = p.save(1, 1, 1000, 512_000, 4 * GB, SimTime::from_secs(100));
        let b = p.save(1, 1, 1002, 513_024, 4 * GB, SimTime::from_secs(220));
        assert_eq!(a.dedup_bytes, 0, "first save is all-new");
        assert!(b.dedup_bytes > b.new_bytes, "near-consecutive save is mostly dedup");
    }

    #[test]
    fn family_peers_dedup_cross_job() {
        let mut p = plane();
        p.save(1, 7, 1000, 0, 4 * GB, SimTime::from_secs(100));
        let peer = p.save(2, 7, 500, 0, 4 * GB, SimTime::from_secs(101));
        assert!(peer.dedup_bytes > 0, "family static regions are shared");
        let stranger = p.save(3, 8, 500, 0, 4 * GB, SimTime::from_secs(102));
        assert_eq!(stranger.dedup_bytes, 0, "different family shares nothing");
    }

    #[test]
    fn hot_tier_evicts_oldest_and_restore_falls_to_remote() {
        let cfg = CkptPlaneConfig { hot_capacity_bytes: 6 * GB, ..CkptPlaneConfig::default() };
        let mut p = CheckpointPlane::new(cfg);
        p.save(1, 1, 100, 0, 4 * GB, SimTime::from_secs(100));
        p.save(2, 2, 100, 0, 4 * GB, SimTime::from_secs(110));
        assert!(p.stats().hot_evictions >= 1, "capacity forces eviction");
        assert!(p.hot.stored_bytes() <= 6 * GB);
        // Job 1 was evicted; before its manifest commits a restore finds nothing.
        assert!(
            p.restore(1, SimTime::from_secs(111)).is_none(),
            "uncommitted + evicted = no restore"
        );
        // After the transfers drain, the remote copy serves.
        let out = p.restore(1, SimTime::from_secs(2_000)).unwrap();
        assert_eq!(out.source, RestoreSource::Remote);
        assert!(out.duration.as_secs_f64() > 15.0, "remote read is slow");
    }

    #[test]
    fn hot_restore_is_memory_speed() {
        let mut p = plane();
        p.save(1, 1, 100, 51_200, 4 * GB, SimTime::from_secs(100));
        let out = p.restore(1, SimTime::from_secs(101)).unwrap();
        assert_eq!(out.source, RestoreSource::Hot);
        assert!(out.duration.as_secs_f64() < 1.0);
        assert_eq!(out.ready_at, SimTime::from_secs(101));
        assert_eq!(out.samples, 51_200);
    }

    #[test]
    fn restore_mid_outage_waits_for_the_window() {
        let mut p = plane();
        p.save(1, 1, 100, 0, 2 * GB, SimTime::from_secs(100));
        p.advance(SimTime::from_secs(500)); // committed well before the outage
        p.invalidate_hot(1, SimTime::from_secs(500));
        let from = SimTime::from_secs(600);
        let until = SimTime::from_secs(900);
        p.set_remote_outage(from, until);
        let out = p.restore(1, SimTime::from_secs(700)).unwrap();
        assert_eq!(out.ready_at, until, "restore must wait out the outage");
        assert!(out.resume_at() > until);
    }

    #[test]
    fn outage_stalls_commits_and_collapse_slows_them() {
        let mut p = plane();
        let t0 = SimTime::from_secs(100);
        let out = p.save(1, 1, 100, 0, 2 * GB, t0);
        // Nominal commit: 15 s base + 2 GB / 60 MB/s ≈ 48.3 s ⇒ ~148 s.
        p.set_remote_outage(SimTime::from_secs(110), SimTime::from_secs(410));
        p.advance(SimTime::from_secs(2_000));
        let committed = p.manifest(out.manifest).unwrap().committed_at.unwrap();
        assert!(
            committed > SimTime::from_secs(410),
            "outage must push the commit past the window: {committed}"
        );

        let mut q = plane();
        let o2 = q.save(1, 1, 100, 0, 2 * GB, t0);
        q.set_bandwidth_collapse(SimTime::from_secs(0), SimTime::from_secs(10_000), 4000);
        q.advance(SimTime::from_secs(10_000));
        let c2 = q.manifest(o2.manifest).unwrap().committed_at.unwrap();
        let nominal_secs = 15.0 + 2.0e9 / 60.0e6;
        assert!(
            c2.saturating_since(t0).as_secs_f64() > 3.0 * nominal_secs,
            "4x collapse must roughly quadruple the transfer: {c2}"
        );
    }

    #[test]
    fn corrupted_manifest_falls_back_to_older_commit() {
        let mut p = plane();
        p.save(1, 1, 100, 100, 2 * GB, SimTime::from_secs(100));
        p.save(1, 1, 200, 200, 2 * GB, SimTime::from_secs(400));
        p.advance(SimTime::from_secs(2_000));
        p.invalidate_hot(1, SimTime::from_secs(2_000));
        let hit = p.corrupt_manifest(1, 0, SimTime::from_secs(2_001)).unwrap();
        let out = p.restore(1, SimTime::from_secs(2_002)).unwrap();
        assert_ne!(out.manifest, hit, "corrupted newest must be skipped");
        assert_eq!(out.step, 100, "fallback is the older commit");
        assert_eq!(p.stats().corrupt_fallbacks, 1);
    }

    #[test]
    fn fifo_queue_orders_commits_by_save_order() {
        let mut p = plane();
        let a = p.save(1, 1, 100, 0, 3 * GB, SimTime::from_secs(100));
        let b = p.save(2, 2, 100, 0, 3 * GB, SimTime::from_secs(101));
        p.advance(SimTime::from_secs(10_000));
        let ca = p.manifest(a.manifest).unwrap().committed_at.unwrap();
        let cb = p.manifest(b.manifest).unwrap().committed_at.unwrap();
        assert!(ca < cb, "shared pipe serializes transfers");
    }

    #[test]
    fn retention_retires_old_manifests_but_keeps_fallback() {
        let mut p = plane();
        for i in 0..6u64 {
            p.save(1, 1, 100 * (i + 1), 100 * (i + 1), 2 * GB, SimTime::from_secs(100 + 400 * i));
            p.advance(SimTime::from_secs(100 + 400 * (i + 1)));
        }
        p.advance(SimTime::from_secs(10_000));
        let live = p.by_job.get(&1).unwrap().len();
        assert!(live <= RETAIN_PER_JOB + 1, "old manifests retire: {live}");
        assert!(live >= 2, "a corruption fallback always remains");
    }

    #[test]
    fn occupancy_and_dedup_ratio_are_sane() {
        let mut p = plane();
        p.save(1, 1, 100, 0, 2 * GB, SimTime::from_secs(0));
        p.save(1, 1, 102, 0, 2 * GB, SimTime::from_secs(200));
        let end = SimTime::from_secs(1_000);
        p.advance(end);
        let s = p.stats();
        let occ = s.remote_occupancy(end);
        assert!(occ > 0.0 && occ <= 1.0, "occupancy in (0,1]: {occ}");
        assert!(s.dedup_ratio() > 0.3, "incremental saves dedup: {}", s.dedup_ratio());
    }

    #[test]
    fn digest_tracks_state() {
        let mut a = plane();
        let mut b = plane();
        assert_eq!(a.digest(), b.digest());
        a.save(1, 1, 100, 0, GB, SimTime::from_secs(10));
        assert_ne!(a.digest(), b.digest());
        b.save(1, 1, 100, 0, GB, SimTime::from_secs(10));
        assert_eq!(a.digest(), b.digest());
    }

    /// 20 000 content-chunked saves of about `base_bytes` each across 32
    /// jobs in 8 model families against one shared plane (dedup, eviction
    /// and the FIFO remote queue all in play), a restore every 64th save.
    fn churned_plane_digest(base_bytes: u64) -> u64 {
        let cfg = CkptPlaneConfig::default();
        let mut plane = CheckpointPlane::new(cfg);
        let mut t = SimTime::ZERO;
        for i in 0..20_000u64 {
            let job = i % 32;
            let step = i / 32;
            let samples = step * 1_024;
            let bytes = base_bytes + samples * 64 + (job % 8) * 50_000_000;
            t += SimDuration::from_secs(7);
            let _ = plane.save(job, job % 8, step, samples, bytes, t);
            if i % 64 == 0 {
                let _ = plane.restore(job, t);
            }
        }
        plane.advance(t);
        plane.digest()
    }

    /// The standing witness of the plane's arithmetic: the constants are
    /// from before the hashed chunk store and have held across every store,
    /// queue and eviction change since. ~11 chunks per save at 0.5 GB, ~125
    /// at the 8 GB `core::chaos` stages.
    #[test]
    fn churned_plane_digest_is_pinned() {
        assert_eq!(churned_plane_digest(GB / 2), 0xb37d_af24_15f0_11a6);
        assert_eq!(churned_plane_digest(8 * GB), 0x3ca1_a10f_add0_7578);
    }
}
