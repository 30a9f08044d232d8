//! Master-less witness recovery: a commitment/witness-quorum protocol
//! over checkpoint manifests.
//!
//! The replay path (`master::replay`) reconstructs job state from the
//! master's event log — it needs a restarted master and, after the
//! crash wiped the job's hot-tier pods, a round-trip through the
//! throttled remote tier. The witness path removes the master from the
//! recovery critical path entirely, in the style of Psyche-like
//! decentralized training runs: every flash checkpoint is broadcast to
//! a small set of shard *peers* which co-sign its manifest; once a
//! quorum of signatures lands, the manifest is *witnessed* and the
//! signed copy stays pinned in peer memory. On master loss the
//! surviving peers detect the silence (heartbeat timeout), elect the
//! lowest-indexed reachable peer as recoverer, and restore the pinned
//! copy at memory speed — no remote-tier read, so a concurrent
//! `RemoteTierOutage` does not gate recovery. A `WitnessPartition`
//! that drops the quorum makes the path unavailable and recovery falls
//! back to master replay.

use std::collections::BTreeMap;

use dlrover_sim::{SimDuration, SimTime};
use dlrover_telemetry::{EventKind, Telemetry};
use serde::{Deserialize, Serialize};

/// Co-signing peers per job.
const PEERS: u32 = 3;
/// Signatures required for a manifest to count as witnessed.
const QUORUM: u32 = 2;
const _: () = assert!(QUORUM >= 1 && QUORUM <= PEERS, "quorum must be satisfiable");

/// Save → quorum latency (peer broadcast + co-sign round).
const COSIGN_LATENCY: SimDuration = SimDuration::from_secs(2);
/// Heartbeat silence before peers declare the master lost.
const DETECT_TIMEOUT: SimDuration = SimDuration::from_secs(10);
/// Recoverer election round among reachable peers.
const ELECTION_LATENCY: SimDuration = SimDuration::from_secs(2);
/// Read bandwidth of a pinned peer copy, bytes/s (peer memory, flash-tier
/// speed).
const PEER_READ_BANDWIDTH: f64 = 10.0e9;
/// Fixed per-restore latency on the witness path.
const PEER_BASE_LATENCY: SimDuration = SimDuration::from_millis(200);

/// A quorum-certified manifest pinned in peer memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PinnedManifest {
    /// Manifest id (plane-wide).
    pub manifest: u64,
    /// Training step encoded in the manifest.
    pub step: u64,
    /// Samples watermark encoded in the manifest.
    pub samples: u64,
    /// Checkpoint size.
    pub bytes: u64,
    /// When the quorum completed.
    pub witnessed_at: SimTime,
}

/// Result of a witness-path restore: the recoverer reads the pinned
/// copy starting at `start_at`; training resumes after `duration`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WitnessRestore {
    /// Manifest restored.
    pub manifest: u64,
    /// Training step restored to.
    pub step: u64,
    /// Samples watermark restored to.
    pub samples: u64,
    /// Bytes read from the pinned peer copy.
    pub bytes: u64,
    /// Peer-memory read time.
    pub duration: SimDuration,
}

/// A co-sign round in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PendingCosign {
    job: u64,
    manifest: u64,
    step: u64,
    samples: u64,
    bytes: u64,
    quorum_at: SimTime,
}

/// The witness board: tracks co-sign rounds, partition windows, and the
/// latest pinned manifest per job.
#[derive(Debug, Default)]
pub struct WitnessBoard {
    telemetry: Telemetry,
    /// Partition windows `(from, until, peers_out)`; the highest-indexed
    /// `peers_out` peers are unreachable inside the window.
    partitions: Vec<(SimTime, SimTime, u32)>,
    pinned: BTreeMap<u64, PinnedManifest>,
    pending: Vec<PendingCosign>,
}

impl WitnessBoard {
    /// Creates a board: three co-signing peers per job, a 2-of-3 quorum.
    pub fn new() -> Self {
        WitnessBoard::default()
    }

    /// Routes protocol events into `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Declares a partition over `[from, until)` that cuts off
    /// `peers_out` peers.
    pub fn partition(&mut self, peers_out: u32, from: SimTime, until: SimTime) {
        if until > from && peers_out > 0 {
            self.partitions.push((from, until, peers_out));
        }
    }

    /// Peers reachable at `at` (partition windows overlap by max, not
    /// sum — they model the same racks dropping).
    pub(crate) fn reachable(&self, at: SimTime) -> u32 {
        let out = self
            .partitions
            .iter()
            .filter(|&&(from, until, _)| at >= from && at < until)
            .map(|&(_, _, n)| n)
            .max()
            .unwrap_or(0);
        PEERS.saturating_sub(out)
    }

    /// Whether a co-sign quorum can assemble at `at`.
    pub(crate) fn quorum_available(&self, at: SimTime) -> bool {
        self.reachable(at) >= QUORUM
    }

    /// Observes a flash save: starts a co-sign round completing at
    /// `now + COSIGN_LATENCY`. The round only pins the manifest if a
    /// quorum is still reachable when the signatures land (checked in
    /// [`WitnessBoard::advance`]).
    pub fn observe_save(
        &mut self,
        job: u64,
        manifest: u64,
        step: u64,
        samples: u64,
        bytes: u64,
        now: SimTime,
    ) {
        self.pending.push(PendingCosign {
            job,
            manifest,
            step,
            samples,
            bytes,
            quorum_at: now + COSIGN_LATENCY,
        });
    }

    /// Completes co-sign rounds due by `now`: rounds whose quorum was
    /// reachable at completion pin their manifest and emit
    /// `WitnessQuorumReached`; rounds that raced a partition are
    /// dropped.
    pub fn advance(&mut self, now: SimTime) {
        if !self.pending.iter().any(|p| p.quorum_at <= now) {
            return;
        }
        // Deterministic completion order: by quorum time, then manifest id.
        // Sorting the whole list (stably, in place) puts the due rounds in
        // that order at its front and leaves the rest in an order the next
        // call's sort does not depend on.
        self.pending.sort_by_key(|p| (p.quorum_at, p.manifest));
        let due = self.pending.partition_point(|p| p.quorum_at <= now);
        let mut sink = self.telemetry.batch();
        for i in 0..due {
            let p = self.pending[i];
            let reachable = self.reachable(p.quorum_at);
            if reachable < QUORUM {
                continue;
            }
            self.pinned.insert(
                p.job,
                PinnedManifest {
                    manifest: p.manifest,
                    step: p.step,
                    samples: p.samples,
                    bytes: p.bytes,
                    witnessed_at: p.quorum_at,
                },
            );
            if let Some(sink) = sink.as_mut() {
                sink.record(
                    p.quorum_at,
                    EventKind::WitnessQuorumReached {
                        job: p.job,
                        manifest: p.manifest,
                        peers: reachable.min(PEERS),
                    },
                );
            }
        }
        self.pending.drain(..due);
    }

    /// The latest witnessed manifest for `job`, if any.
    pub fn latest(&self, job: u64) -> Option<&PinnedManifest> {
        self.pinned.get(&job)
    }

    /// Time from master loss to the recoverer holding the pinned copy:
    /// heartbeat detection plus the election round.
    pub(crate) fn takeover_latency(&self) -> SimDuration {
        DETECT_TIMEOUT + ELECTION_LATENCY
    }

    /// Restores `job` from its pinned copy, with the read starting at
    /// `start_at` (after detection + election). Returns `None` when no
    /// manifest is witnessed or the quorum is partitioned away at
    /// `start_at` — the caller falls back to master replay.
    ///
    /// Records the `CheckpointRestored` event (source `"witness"`) at
    /// the resume instant.
    pub fn restore(&mut self, job: u64, start_at: SimTime) -> Option<WitnessRestore> {
        self.advance(start_at);
        if !self.quorum_available(start_at) {
            return None;
        }
        let pin = *self.pinned.get(&job)?;
        let duration =
            PEER_BASE_LATENCY + SimDuration::from_secs_f64(pin.bytes as f64 / PEER_READ_BANDWIDTH);
        self.telemetry.record(
            start_at + duration,
            EventKind::CheckpointRestored {
                job,
                manifest: pin.manifest,
                step: pin.step,
                bytes: pin.bytes,
                source: "witness".to_string(),
            },
        );
        Some(WitnessRestore {
            manifest: pin.manifest,
            step: pin.step,
            samples: pin.samples,
            bytes: pin.bytes,
            duration,
        })
    }

    /// Order-independent digest of the board state for determinism
    /// probes.
    pub fn digest(&self) -> u64 {
        fn mix(x: u64) -> u64 {
            // splitmix64 finalizer (matches `ckptplane::chunks`).
            let mut x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        }
        let mut acc = mix(self.pending.len() as u64 ^ 0x5749_544e);
        for (job, pin) in &self.pinned {
            acc = mix(acc
                ^ mix(*job)
                ^ mix(pin.manifest)
                ^ mix(pin.samples)
                ^ mix(pin.witnessed_at.as_micros()));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1_000_000_000;

    fn board() -> WitnessBoard {
        WitnessBoard::new()
    }

    #[test]
    fn cosign_round_pins_after_latency() {
        let mut b = board();
        b.observe_save(1, 7, 100, 51_200, 4 * GB, SimTime::from_secs(100));
        b.advance(SimTime::from_secs(101));
        assert!(b.latest(1).is_none(), "quorum not yet landed");
        b.advance(SimTime::from_secs(103));
        let pin = b.latest(1).unwrap();
        assert_eq!(pin.manifest, 7);
        assert_eq!(pin.witnessed_at, SimTime::from_secs(102));
    }

    /// Rounds complete in `(quorum time, manifest id)` order however the
    /// saves were observed, a round not yet due waits in the list, and one
    /// lock covers the call's records.
    #[test]
    fn due_rounds_complete_in_quorum_then_manifest_order() {
        let sink = Telemetry::default();
        let mut b = board();
        b.set_telemetry(sink.clone());
        b.observe_save(1, 5, 10, 0, GB, SimTime::from_secs(10));
        b.observe_save(2, 3, 10, 0, GB, SimTime::from_secs(10));
        b.observe_save(3, 9, 10, 0, GB, SimTime::from_secs(5));
        b.observe_save(1, 11, 20, 0, GB, SimTime::from_secs(50));
        b.advance(SimTime::from_secs(20));
        let order = |sink: &Telemetry| -> Vec<u64> {
            (sink.snapshot().events.iter())
                .filter_map(|e| match e.kind {
                    EventKind::WitnessQuorumReached { manifest, .. } => Some(manifest),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(order(&sink), vec![9, 3, 5]);
        assert_eq!(b.latest(1).unwrap().manifest, 5, "the later round is still in flight");
        b.advance(SimTime::from_secs(60));
        assert_eq!(order(&sink), vec![9, 3, 5, 11]);
        assert_eq!(b.latest(1).unwrap().manifest, 11);
    }

    #[test]
    fn partition_below_quorum_blocks_pinning_and_restore() {
        let mut b = board();
        b.partition(2, SimTime::from_secs(0), SimTime::from_secs(500));
        b.observe_save(1, 7, 100, 0, GB, SimTime::from_secs(100));
        b.advance(SimTime::from_secs(200));
        assert!(b.latest(1).is_none(), "1 reachable peer < quorum 2");
        assert!(!b.quorum_available(SimTime::from_secs(300)));
        // After the window, quorum recovers but the dropped round is gone.
        assert!(b.quorum_available(SimTime::from_secs(600)));
        assert!(b.restore(1, SimTime::from_secs(600)).is_none(), "nothing was pinned");
    }

    #[test]
    fn single_peer_partition_still_reaches_quorum() {
        let mut b = board();
        b.partition(1, SimTime::from_secs(0), SimTime::from_secs(500));
        b.observe_save(1, 7, 100, 0, GB, SimTime::from_secs(100));
        b.advance(SimTime::from_secs(200));
        let pin = b.latest(1).unwrap();
        assert_eq!(pin.manifest, 7, "2-of-3 quorum tolerates one peer out");
    }

    #[test]
    fn witness_restore_is_memory_speed() {
        let mut b = board();
        b.observe_save(1, 7, 100, 51_200, 4 * GB, SimTime::from_secs(100));
        let out = b.restore(1, SimTime::from_secs(200)).unwrap();
        assert!(out.duration.as_secs_f64() < 1.0, "pinned copy reads at peer-memory speed");
        assert_eq!(out.samples, 51_200);
    }

    #[test]
    fn takeover_latency_is_detect_plus_election() {
        let b = board();
        assert_eq!(b.takeover_latency(), SimDuration::from_secs(10) + SimDuration::from_secs(2));
    }

    #[test]
    fn newer_save_supersedes_pin() {
        let mut b = board();
        b.observe_save(1, 7, 100, 100, GB, SimTime::from_secs(100));
        b.observe_save(1, 9, 200, 200, GB, SimTime::from_secs(300));
        b.advance(SimTime::from_secs(400));
        assert_eq!(b.latest(1).unwrap().manifest, 9);
    }
}
