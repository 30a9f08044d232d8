//! Master failover: reconstructing job state by replaying the event log.
//!
//! The job master is a single point of failure in the paper's architecture
//! (Fig. 4: one master pod per job). DLRover's production controller
//! survives master restarts because every state transition it cares about
//! is durable — in this reproduction the durable store *is* the
//! deterministic telemetry event log. [`JobControl::from_events`] folds a
//! log back into what only the log knows of a job — the same value the
//! live master keeps its reconfiguration window in:
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

use dlrover_perfmodel::{ExecPlan, GradientMode};
use dlrover_sim::{SimDuration, SimTime};
use dlrover_telemetry::{Event, EventKind};
use serde::{Deserialize, Serialize};

use crate::{CheckpointPlane, WitnessBoard};

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

/// The master-loss restore decision (§6), for every caller. When the
/// witness path is preferred and the quorum stands once the peers have
/// detected the loss and elected a recoverer, the surviving peers restore the
/// pinned copy at peer-memory speed: no restarted master and no remote
/// tier on the critical path, so a remote outage does not gate it.
/// Otherwise the job waits out the `restart` window, restores through the
/// plane (which waits out any outage) and resumes at the later of the two;
/// with nothing staged it cold-starts at the restart.
///
/// Returns the path, the instant training resumes and the restored
/// manifest's `(samples, step)`, `None` when nothing was restored.
pub fn restore_after_master_loss(
    job: u64,
    lost_at: SimTime,
    restart: SimDuration,
    prefer_witness: bool,
    witness: &mut WitnessBoard,
    plane: &mut CheckpointPlane,
) -> (RecoveryPath, SimTime, Option<(u64, u64)>) {
    if prefer_witness {
        let start = lost_at + witness.takeover_latency();
        if let Some(w) = witness.restore(job, start) {
            return (RecoveryPath::WitnessQuorum, start + w.duration, Some((w.samples, w.step)));
        }
    }
    let restart_at = lost_at + restart;
    match plane.restore(job, restart_at) {
        Some(r) => {
            (RecoveryPath::MasterReplay, r.resume_at().max(restart_at), Some((r.samples, r.step)))
        }
        None => (RecoveryPath::MasterReplay, restart_at, None),
    }
}

/// A job's control state: what a replay of its event log recovers, and the
/// reconfiguration window of DESIGN §7 "Window contract". The live master
/// moves a window only through its crate-private `open`, `commit` and
/// `roll_back`; [`Self::apply`] decodes the log onto the same three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobControl {
    /// Samples irrevocably trained: the sum of acked shard lengths. This
    /// equals the shard queue's completed-samples frontier at crash time —
    /// acks are never retracted, and failed workers' in-flight progress
    /// was never acked.
    pub samples_done: u64,
    /// PS count of the last applied layout (`0` when never reshaped —
    /// [`Self::on_job`] falls back to the nominal allocation).
    pub ps_count: u32,
    exec: ExecPlan,
    window: Window,
}

/// The reconfiguration window: at most one is open, and ids are dense per
/// job, so each window resolves exactly once, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// No window is open.
    Closed {
        /// Id of the next window.
        next: u64,
    },
    /// The engine runs `target`; it commits once the `pause` charged for
    /// the switch ends at `commit_at`, unless a fault rolls it back first.
    Open {
        /// Window id.
        id: u64,
        /// The plan switched to.
        target: ExecPlan,
        /// End of the pause.
        commit_at: SimTime,
        /// The pause charged for the switch.
        pause: SimDuration,
    },
}

/// A log record resolving a window out of turn: one resolved twice, or one
/// whose predecessor never resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IllegalTransition {
    /// The window the record resolves.
    pub window: u64,
    /// The only window the state could resolve.
    pub expected: u64,
}

impl Default for JobControl {
    fn default() -> Self {
        let exec = ExecPlan::default();
        JobControl { samples_done: 0, ps_count: 0, exec, window: Window::Closed { next: 0 } }
    }
}

impl JobControl {
    /// Folds an event log through [`Self::apply`], from a cold start.
    pub fn from_events(events: &[Event]) -> Result<Self, IllegalTransition> {
        let mut control = JobControl::default();
        events.iter().try_for_each(|e| control.apply(&e.kind))?;
        Ok(control)
    }

    /// Applies one log record. No record marks an opening, so a resolution
    /// opens the next window, then commits it onto the plan it records or
    /// rolls it back (the log keeps no rolled-back target).
    pub fn apply(&mut self, kind: &EventKind) -> Result<(), IllegalTransition> {
        match kind {
            EventKind::ShardAcked { len, .. } => self.samples_done += len,
            EventKind::PsReshaped { ps } => self.ps_count = *ps as u32,
            EventKind::ReconfigApplied(r) => {
                let gradient_mode =
                    if r.mode == "sync" { GradientMode::Sync } else { GradientMode::Async };
                let target =
                    ExecPlan { gradient_mode, ps_replicas: r.replicas, batch_size: r.batch };
                self.reopen(r.window, target, r.pause_us)?;
                self.commit(SimTime::ZERO);
            }
            EventKind::ReconfigRolledBack(r) => {
                self.reopen(r.window, self.exec, 0)?;
                self.roll_back();
            }
            _ => {}
        }
        Ok(())
    }

    /// Opens the window a record resolves, which must be the next one.
    fn reopen(&mut self, id: u64, plan: ExecPlan, pause_us: u64) -> Result<(), IllegalTransition> {
        let expected = self.next_window();
        let pause = SimDuration::from_micros(pause_us);
        if id != expected || self.open(plan, SimTime::ZERO, pause).is_none() {
            return Err(IllegalTransition { window: id, expected });
        }
        Ok(())
    }

    fn next_window(&self) -> u64 {
        match self.window {
            Window::Closed { next } => next,
            Window::Open { id, .. } => id,
        }
    }

    /// The last committed plan: an open window's rollback returns to it.
    pub fn exec(&self) -> ExecPlan {
        self.exec
    }

    /// The reconfiguration window.
    pub fn window(&self) -> Window {
        self.window
    }

    /// Opens the next window onto `plan`; `None` while one is open.
    pub(crate) fn open(&mut self, plan: ExecPlan, due: SimTime, pause: SimDuration) -> Option<u64> {
        let Window::Closed { next } = self.window else { return None };
        self.window = Window::Open { id: next, target: plan, commit_at: due, pause };
        Some(next)
    }

    /// Commits the open window if `now` is past its pause, adopting its
    /// target; returns its id and pause.
    pub(crate) fn commit(&mut self, now: SimTime) -> Option<(u64, SimDuration)> {
        let Window::Open { id, target, commit_at, pause } = self.window else { return None };
        if now < commit_at {
            return None;
        }
        self.exec = target;
        self.window = Window::Closed { next: id + 1 };
        Some((id, pause))
    }

    /// Rolls the open window back to the committed plan; returns its id.
    pub(crate) fn roll_back(&mut self) -> Option<u64> {
        let Window::Open { id, .. } = self.window else { return None };
        self.window = Window::Closed { next: id + 1 };
        Some(id)
    }

    /// This state as its log records it: an open window reads as not yet
    /// opened, because no record marks an opening.
    pub(crate) fn as_logged(mut self) -> Self {
        self.window = Window::Closed { next: self.next_window() };
        self
    }

    /// This state in the master's representation, on a job with spec batch
    /// `spec_batch` and `ps` parameter servers allocated: a log that never
    /// reshaped runs the allocation's PS count, and the committed plan is
    /// [`ExecPlan::normalised`] (the log records the effective batch).
    pub fn on_job(mut self, spec_batch: u32, ps: u32) -> Self {
        self.ps_count = if self.ps_count > 0 { self.ps_count } else { ps }.max(1);
        self.exec = self.exec.normalised(spec_batch);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrover_telemetry::{CheckpointStaged, ReconfigApplied, ReconfigRolledBack};

    fn ev(seq: u64, kind: EventKind) -> Event {
        Event { at_us: seq * 1_000_000, seq, kind }
    }

    fn applied(window: u64) -> EventKind {
        ReconfigApplied {
            job: 1,
            window,
            mode: "sync".into(),
            batch: 512,
            replicas: 2,
            shards: 2,
            samples_done: 100,
            pause_us: 5,
        }
        .into()
    }

    fn rolled_back(window: u64) -> EventKind {
        ReconfigRolledBack { job: 1, window, reason: "master-crash".into(), samples_done: 200 }
            .into()
    }

    fn replay(kinds: Vec<EventKind>) -> Result<JobControl, IllegalTransition> {
        let log: Vec<Event> = kinds.into_iter().enumerate().map(|(i, k)| ev(i as u64, k)).collect();
        JobControl::from_events(&log)
    }

    /// Worker and checkpoint events are not the log's to fold: whoever
    /// holds the pods re-adopts them, and a restore reads the plane.
    #[test]
    fn replay_folds_watermarks_and_ignores_worker_events() {
        let staged = |step| {
            CheckpointStaged { job: 1, manifest: step, step, bytes: 10, new_bytes: 10 }.into()
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
        let s = JobControl::from_events(&log).unwrap();
        assert_eq!(s.samples_done, 1512);
        assert_eq!(s.ps_count, 3);
        let folded = |e: &&Event| matches!(e.kind.name(), "ShardAcked" | "PsReshaped");
        let without: Vec<Event> = log.iter().filter(folded).cloned().collect();
        assert_eq!(without.len(), 3);
        assert_eq!(JobControl::from_events(&without), Ok(s));
    }

    #[test]
    fn replay_of_empty_log_is_cold_start() {
        assert_eq!(JobControl::from_events(&[]), Ok(JobControl::default()));
        let cold = JobControl::default().on_job(512, 2);
        assert_eq!((cold.samples_done, cold.ps_count, cold.exec()), (0, 2, ExecPlan::default()));
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

    /// The three outcomes of a master loss: the quorum serves the pinned
    /// copy; partitioned below quorum, the plane serves after the restart
    /// window; with nothing staged, the job cold-starts at the restart.
    #[test]
    fn master_loss_restores_by_quorum_then_plane_then_cold_start() {
        const GB: u64 = 1 << 30;
        let mut plane = CheckpointPlane::new(crate::CkptPlaneConfig::default());
        let mut witness = WitnessBoard::new();
        let restart = SimDuration::from_secs(45);
        let saved = plane.save(1, 1, 7, 4096, GB, SimTime::from_secs(100));
        witness.observe_save(1, saved.manifest, 7, 4096, GB, SimTime::from_secs(100));

        let lost = SimTime::from_secs(2_000);
        let (path, resume, restored) =
            restore_after_master_loss(1, lost, restart, true, &mut witness, &mut plane);
        assert_eq!((path, restored), (RecoveryPath::WitnessQuorum, Some((4096, 7))));
        assert!(resume > lost + witness.takeover_latency() && resume < lost + restart);

        witness.partition(2, SimTime::from_secs(3_000), SimTime::from_secs(4_000));
        let lost = SimTime::from_secs(3_100);
        let (path, resume, restored) =
            restore_after_master_loss(1, lost, restart, true, &mut witness, &mut plane);
        assert_eq!((path, restored), (RecoveryPath::MasterReplay, Some((4096, 7))));
        assert!(resume >= lost + restart);

        let cold = restore_after_master_loss(2, lost, restart, true, &mut witness, &mut plane);
        assert_eq!(cold, (RecoveryPath::MasterReplay, lost + restart, None));
    }

    /// A committed window's plan is adopted, in the effective batch the log
    /// records until [`JobControl::on_job`] normalises it; a rolled-back
    /// window keeps the committed plan but consumes its id.
    #[test]
    fn replay_adopts_committed_plans_and_window_ids() {
        let s = replay(vec![applied(0), rolled_back(1)]).unwrap();
        let sync = ExecPlan { gradient_mode: GradientMode::Sync, ps_replicas: 2, batch_size: 512 };
        assert_eq!(s.exec(), sync);
        assert_eq!(s.window(), Window::Closed { next: 2 });
        assert_eq!(s.on_job(512, 2).exec(), ExecPlan { batch_size: 0, ..sync });
        assert_eq!(s.on_job(256, 2).exec(), sync);
    }

    /// The live transitions: one window open at a time, committed once its
    /// pause is consumed or rolled back to the committed plan, and read as
    /// not yet opened while open.
    #[test]
    fn a_window_opens_once_and_resolves_once() {
        let mut c = JobControl::default();
        let sync = ExecPlan { gradient_mode: GradientMode::Sync, ..ExecPlan::default() };
        let (at, pause) = (SimTime::from_secs(10), SimDuration::from_secs(2));
        assert_eq!(c.open(sync, at, pause), Some(0));
        assert_eq!(c.open(sync, at, pause), None, "one window at a time");
        assert_eq!(c.as_logged(), JobControl::default(), "no record marks an opening");
        assert_eq!(c.commit(SimTime::from_secs(9)), None, "the pause is not consumed yet");
        assert_eq!(c.commit(at), Some((0, pause)));
        assert_eq!((c.exec(), c.commit(at), c.roll_back()), (sync, None, None));
        assert_eq!(c.open(ExecPlan::default(), at, pause), Some(1));
        assert_eq!(c.roll_back(), Some(1));
        assert_eq!((c.exec(), c.window()), (sync, Window::Closed { next: 2 }));
        assert_eq!(replay(vec![applied(0), rolled_back(1)]).map(|r| r.window()), Ok(c.window()));
    }

    /// A log that resolves a window twice, or resolves one before its
    /// predecessor, is not a log this job could have written.
    #[test]
    fn out_of_turn_resolutions_are_illegal() {
        let twice = replay(vec![applied(0), rolled_back(0)]);
        assert_eq!(twice, Err(IllegalTransition { window: 0, expected: 1 }));
        let skipped = replay(vec![applied(0), applied(2)]);
        assert_eq!(skipped, Err(IllegalTransition { window: 2, expected: 1 }));
        assert_eq!(replay(vec![rolled_back(1)]).unwrap_err().expected, 0);
        // An open window is resolved by the live transitions, not by a record.
        let mut open = JobControl::default();
        open.open(ExecPlan::default(), SimTime::ZERO, SimDuration::ZERO);
        assert!(open.apply(&applied(0)).is_err());
    }

    #[test]
    fn replay_is_a_pure_fold() {
        let log = vec![
            ev(0, EventKind::WorkerAdded { worker: 0 }),
            ev(1, EventKind::ShardAcked { worker: 0, len: 77 }),
        ];
        assert_eq!(JobControl::from_events(&log), JobControl::from_events(&log));
    }
}
