//! Master failover: reconstructing job state by replaying the event log.
//!
//! The job master is a single point of failure in the paper's architecture
//! (Fig. 4: one master pod per job). DLRover's production controller
//! survives master restarts because every state transition it cares about
//! is durable — in this reproduction the durable store *is* the
//! deterministic telemetry event log. [`ReplayedJobState::from_events`]
//! folds a log back into what only the log knows of a job:
//!
//! * the **sample watermark** — how much data is irrevocably trained
//!   (the sum of shard acks; in-flight shards at crash time are lost and
//!   retrain, which is exactly the engine's bounded-rollback contract, §5.1);
//! * the last **PS layout**, **committed execution plan** and
//!   **reconfiguration-window id**.
//!
//! Pods are not in it: they outlive the master, and whoever holds them
//! (the chaos driver) tells the rebuilt master how many to re-adopt. Nor
//! are checkpoints: the checkpoint plane holds them, and a recovery reports
//! the step of the manifest it restored.
//!
//! The replay is a pure fold over `&[Event]`: no clocks, no entropy, so a
//! failover inside a chaos run replays bit-identically per seed.

use dlrover_sim::{SimDuration, SimTime};
use dlrover_telemetry::{Event, EventKind};
use serde::{Deserialize, Serialize};

/// Which recovery path brought a job back after a master loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryPath {
    /// Event-log replay through a restarted master (`master::replay`).
    MasterReplay,
    /// Witness-quorum restore from a pinned peer copy
    /// (`master::witness`), no master on the critical path.
    WitnessQuorum,
}

impl RecoveryPath {
    /// Stable label used in telemetry events and experiment reports.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryPath::MasterReplay => "master-replay",
            RecoveryPath::WitnessQuorum => "witness-quorum",
        }
    }
}

/// Outcome of one job recovery, in the units shared by `exp resilience`
/// and `exp ckptplane`: both paths report the same downtime measure
/// (crash instant → training resumed), so replay-vs-witness latency
/// comparisons are apples to apples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryOutcome {
    /// Path that completed the recovery.
    pub path: RecoveryPath,
    /// Crash instant → training resumed (includes detection/restart,
    /// any checkpoint-plane restore wait, and the restore read itself).
    pub downtime: SimDuration,
    /// Samples watermark the job resumed from.
    pub samples_done: u64,
    /// Step of the checkpoint manifest the recovery restored (`0` when
    /// there was none to restore).
    pub checkpoint_step: u64,
    /// Workers re-adopted instead of relaunched.
    pub workers_readopted: u32,
}

impl RecoveryOutcome {
    /// Builds an outcome from crash/resume instants.
    pub fn new(
        path: RecoveryPath,
        crashed_at: SimTime,
        resumed_at: SimTime,
        samples_done: u64,
        checkpoint_step: u64,
        workers_readopted: u32,
    ) -> Self {
        RecoveryOutcome {
            path,
            downtime: resumed_at.saturating_since(crashed_at),
            samples_done,
            checkpoint_step,
            workers_readopted,
        }
    }
}

/// Job state recovered from an event-log replay (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayedJobState {
    /// Samples irrevocably trained: the sum of acked shard lengths. This
    /// equals the shard queue's completed-samples frontier at crash time —
    /// acks are never retracted, and failed workers' in-flight progress
    /// was never acked.
    pub samples_done: u64,
    /// PS count of the last applied layout (`0` when never reshaped —
    /// callers fall back to the nominal allocation).
    pub ps_count: u32,
    /// Last *committed* execution plan: the fold of `ReconfigApplied`
    /// events. Windows pending at crash time never committed, so the
    /// restarted job resumes on the plan before them — the rollback half
    /// of the reconfig-window contract.
    pub exec: dlrover_perfmodel::ExecPlan,
    /// Next reconfig-window id: one past the highest id seen (committed or
    /// rolled back), keeping window ids monotone across failover.
    pub next_window: u64,
}

impl ReplayedJobState {
    /// Folds an event log into recovered job state.
    pub fn from_events(events: &[Event]) -> Self {
        let mut state = ReplayedJobState {
            samples_done: 0,
            ps_count: 0,
            exec: dlrover_perfmodel::ExecPlan::default(),
            next_window: 0,
        };
        for e in events {
            match &e.kind {
                EventKind::ShardAcked { len, .. } => state.samples_done += len,
                EventKind::PsReshaped { ps } => state.ps_count = *ps as u32,
                EventKind::ReconfigApplied { window, mode, batch, replicas, .. } => {
                    state.exec = dlrover_perfmodel::ExecPlan {
                        gradient_mode: if mode == "sync" {
                            dlrover_perfmodel::GradientMode::Sync
                        } else {
                            dlrover_perfmodel::GradientMode::Async
                        },
                        ps_replicas: (*replicas).max(1),
                        batch_size: *batch,
                    };
                    state.next_window = state.next_window.max(window + 1);
                }
                EventKind::ReconfigRolledBack { window, .. } => {
                    // A rolled-back window leaves the committed plan alone
                    // but still consumes its id.
                    state.next_window = state.next_window.max(window + 1);
                }
                _ => {}
            }
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, kind: EventKind) -> Event {
        Event { at_us: seq * 1_000_000, seq, kind }
    }

    /// Worker and checkpoint events are not the log's to fold: whoever
    /// holds the pods re-adopts them, and a restore reads the plane.
    #[test]
    fn replay_folds_watermarks_and_ignores_worker_events() {
        let staged = |step| EventKind::CheckpointStaged {
            job: 1,
            manifest: step,
            step,
            bytes: 10,
            new_bytes: 10,
        };
        let log = vec![
            ev(0, EventKind::WorkerAdded { worker: 0 }),
            ev(1, EventKind::WorkerAdded { worker: 1 }),
            ev(2, EventKind::ShardAcked { worker: 0, len: 1000 }),
            ev(3, staged(4)),
            ev(4, EventKind::WorkerFailed { worker: 1 }),
            ev(5, EventKind::WorkerAdded { worker: 2 }),
            ev(6, EventKind::ShardAcked { worker: 2, len: 512 }),
            ev(7, staged(9)),
            ev(8, EventKind::PsReshaped { ps: 3 }),
            ev(9, EventKind::WorkerRemoved { worker: 2 }),
        ];
        let s = ReplayedJobState::from_events(&log);
        assert_eq!(s.samples_done, 1512);
        assert_eq!(s.ps_count, 3);
        let folded = |e: &&Event| matches!(e.kind.name(), "ShardAcked" | "PsReshaped");
        let without: Vec<Event> = log.iter().filter(folded).cloned().collect();
        assert_eq!(without.len(), 3);
        assert_eq!(ReplayedJobState::from_events(&without), s);
    }

    #[test]
    fn replay_of_empty_log_is_cold_start() {
        let s = ReplayedJobState::from_events(&[]);
        assert_eq!(s.samples_done, 0);
        assert_eq!(s.ps_count, 0);
    }

    #[test]
    fn recovery_outcome_measures_crash_to_resume() {
        let out = RecoveryOutcome::new(
            RecoveryPath::WitnessQuorum,
            SimTime::from_secs(100),
            SimTime::from_secs(112),
            4096,
            8,
            3,
        );
        assert_eq!(out.downtime, SimDuration::from_secs(12));
        assert_eq!(out.path.label(), "witness-quorum");
        assert_eq!(RecoveryPath::MasterReplay.label(), "master-replay");
    }

    #[test]
    fn replay_adopts_committed_plans_and_window_ids() {
        let log = vec![
            ev(
                0,
                EventKind::ReconfigApplied {
                    job: 1,
                    window: 0,
                    mode: "sync".to_string(),
                    batch: 512,
                    replicas: 2,
                    shards: 2,
                    samples_done: 100,
                    pause_us: 5,
                },
            ),
            // A later window that never committed: the crash rolled it
            // back, so the committed plan stays, but its id is consumed.
            ev(
                1,
                EventKind::ReconfigRolledBack {
                    job: 1,
                    window: 1,
                    reason: "master-crash".to_string(),
                    samples_done: 200,
                },
            ),
        ];
        let s = ReplayedJobState::from_events(&log);
        assert_eq!(s.exec.gradient_mode, dlrover_perfmodel::GradientMode::Sync);
        assert_eq!(s.exec.ps_replicas, 2);
        assert_eq!(s.exec.batch_size, 512);
        assert_eq!(s.next_window, 2);
    }

    #[test]
    fn replay_is_a_pure_fold() {
        let log = vec![
            ev(0, EventKind::WorkerAdded { worker: 0 }),
            ev(1, EventKind::ShardAcked { worker: 0, len: 77 }),
        ];
        assert_eq!(ReplayedJobState::from_events(&log), ReplayedJobState::from_events(&log));
    }
}
