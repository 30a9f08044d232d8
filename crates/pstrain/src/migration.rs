//! Seamless migration timelines (§5.2, Figs. 12–13).
//!
//! Scaling or replacing PSes conventionally means *stop-and-restart*:
//! ① checkpoint to RDS, ② deploy/init new pods, ③ load and resume — with
//! training paused throughout. DLRover-RM's observation is that ② can
//! overlap ongoing training, and ①/③ can ride the flash-checkpoint tier, so
//! only a sub-second parameter handoff blocks the job.
//!
//! This module turns a strategy choice into an explicit [`MigrationTimeline`]
//! — a list of segments with durations and whether each one pauses, degrades,
//! or overlaps training. The instability-handling experiments integrate these
//! timelines into job completion times.

use dlrover_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::ckpt::StorageTier;

/// How to react to a hot PS / needed migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MigrationStrategy {
    /// Keep training in the unhealthy state (Fig. 12/13 baseline 1).
    NoIntervention,
    /// Classic stop-and-restart via RDS (baseline 2).
    StopAndRestart,
    /// DLRover-RM: overlap pod startup with training, hand off parameters
    /// through the flash-checkpoint tier.
    Seamless,
}

/// What a timeline segment does to the job while it lasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TimelineSegment {
    /// Training continues at full speed (overlapped work).
    Overlapped,
    /// Training continues at the degraded (pre-recovery) rate.
    Degraded,
    /// Training is fully paused: checkpoint save.
    PauseSave,
    /// Training is fully paused: new-pod initialisation on the critical path.
    PauseInit,
    /// Training is fully paused: checkpoint load / parameter handoff.
    PauseLoad,
    /// Training is fully paused: data redistribution.
    PauseData,
}

impl TimelineSegment {
    /// True if the segment stops training entirely.
    pub fn pauses(&self) -> bool {
        matches!(
            self,
            TimelineSegment::PauseSave
                | TimelineSegment::PauseInit
                | TimelineSegment::PauseLoad
                | TimelineSegment::PauseData
        )
    }
}

/// A migration plan: ordered segments with durations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationTimeline {
    /// Segments in execution order.
    pub segments: Vec<(TimelineSegment, SimDuration)>,
}

impl MigrationTimeline {
    /// Total wall-clock the recovery occupies (paused + degraded +
    /// overlapped).
    pub fn total(&self) -> SimDuration {
        self.segments.iter().fold(SimDuration::ZERO, |acc, (_, d)| acc + *d)
    }

    /// Time during which training makes no progress at all.
    pub fn pause(&self) -> SimDuration {
        self.segments
            .iter()
            .filter(|(s, _)| s.pauses())
            .fold(SimDuration::ZERO, |acc, (_, d)| acc + *d)
    }

    /// Time training continues at the degraded rate while recovery runs.
    pub fn degraded(&self) -> SimDuration {
        self.segments
            .iter()
            .filter(|(s, _)| *s == TimelineSegment::Degraded)
            .fold(SimDuration::ZERO, |acc, (_, d)| acc + *d)
    }
}

/// Plans a PS migration (hot PS, PS re-shape, PS failure recovery):
/// stop-and-restart round-trips the checkpoint through
/// [`StorageTier::RDS`], seamless hands it off through
/// [`StorageTier::FLASH`].
///
/// * `ckpt_bytes` — model checkpoint size.
/// * `pod_startup` — time to deploy + initialise the replacement PSes.
pub fn plan_ps_migration(
    strategy: MigrationStrategy,
    ckpt_bytes: u64,
    pod_startup: SimDuration,
) -> MigrationTimeline {
    let (flash, rds) = (StorageTier::FLASH, StorageTier::RDS);
    match strategy {
        MigrationStrategy::NoIntervention => MigrationTimeline { segments: Vec::new() },
        MigrationStrategy::StopAndRestart => MigrationTimeline {
            segments: vec![
                (TimelineSegment::PauseSave, rds.save_duration(ckpt_bytes)),
                (TimelineSegment::PauseInit, pod_startup),
                (TimelineSegment::PauseLoad, rds.load_duration(ckpt_bytes)),
            ],
        },
        MigrationStrategy::Seamless => MigrationTimeline {
            segments: vec![
                // New pods come up while the old job keeps training —
                // degraded, because the hot PS is still hot.
                (TimelineSegment::Degraded, pod_startup),
                // Then the short critical path through the flash tier.
                (TimelineSegment::PauseSave, flash.save_duration(ckpt_bytes)),
                (TimelineSegment::PauseLoad, flash.load_duration(ckpt_bytes)),
            ],
        },
    }
}

/// Plans a worker-straggler recovery (Fig. 13).
///
/// * `ckpt_bytes` — stop-and-restart checkpoint round trip through
///   [`StorageTier::RDS`].
/// * `detection` — heartbeat/progress-lag detection delay.
/// * `pod_startup` — replacement worker startup (traditional only).
pub fn plan_worker_recovery(
    strategy: MigrationStrategy,
    ckpt_bytes: u64,
    detection: SimDuration,
    pod_startup: SimDuration,
) -> MigrationTimeline {
    let rds = StorageTier::RDS;
    match strategy {
        MigrationStrategy::NoIntervention => MigrationTimeline { segments: Vec::new() },
        // Traditional frameworks restart the whole job to replace a worker.
        MigrationStrategy::StopAndRestart => MigrationTimeline {
            segments: vec![
                (TimelineSegment::Degraded, detection),
                (TimelineSegment::PauseSave, rds.save_duration(ckpt_bytes)),
                (TimelineSegment::PauseInit, pod_startup),
                (TimelineSegment::PauseLoad, rds.load_duration(ckpt_bytes)),
                // Static partitioning must re-split data across workers.
                (TimelineSegment::PauseData, SimDuration::from_secs(60)),
            ],
        },
        // Dynamic data sharding: detect, shrink the straggler's shards,
        // requeue — the job never stops ("within 1 minute" in §6.2).
        MigrationStrategy::Seamless => {
            MigrationTimeline { segments: vec![(TimelineSegment::Degraded, detection)] }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1_000_000_000;

    #[test]
    fn no_intervention_has_empty_timeline() {
        let t = plan_ps_migration(
            MigrationStrategy::NoIntervention,
            20 * GB,
            SimDuration::from_mins(5),
        );
        assert_eq!(t.pause(), SimDuration::ZERO);
        assert_eq!(t.total(), SimDuration::ZERO);
    }

    #[test]
    fn stop_and_restart_pauses_for_everything() {
        let startup = SimDuration::from_mins(6);
        let t = plan_ps_migration(MigrationStrategy::StopAndRestart, 20 * GB, startup);
        assert_eq!(t.pause(), t.total(), "every segment pauses");
        // Pause spans checkpoint round-trip + init: >10 minutes for 20 GB.
        assert!(t.pause().as_mins_f64() > 10.0, "pause {}", t.pause());
    }

    #[test]
    fn seamless_pause_is_subsecond_scale() {
        let startup = SimDuration::from_mins(6);
        let t = plan_ps_migration(MigrationStrategy::Seamless, 20 * GB, startup);
        assert!(t.pause().as_secs_f64() < 5.0, "pause {}", t.pause());
        // Startup rides along as degraded training, not a pause.
        assert_eq!(t.degraded(), startup);
    }

    #[test]
    fn seamless_saves_most_of_the_stop_and_restart_pause() {
        let startup = SimDuration::from_mins(6);
        let sr = plan_ps_migration(MigrationStrategy::StopAndRestart, 20 * GB, startup);
        let sm = plan_ps_migration(MigrationStrategy::Seamless, 20 * GB, startup);
        // Fig. 12's claim: ~5 min saved on init + ~3 min on checkpoints.
        let saved = sr.pause().saturating_sub(sm.pause());
        assert!(saved.as_mins_f64() > 8.0, "saved only {saved}");
    }

    #[test]
    fn worker_recovery_sharding_never_pauses() {
        let t = plan_worker_recovery(
            MigrationStrategy::Seamless,
            20 * GB,
            SimDuration::from_secs(45),
            SimDuration::from_mins(5),
        );
        assert_eq!(t.pause(), SimDuration::ZERO);
        assert!(t.total().as_mins_f64() < 1.0, "detection within a minute");
    }

    #[test]
    fn worker_recovery_traditional_pays_restart() {
        let t = plan_worker_recovery(
            MigrationStrategy::StopAndRestart,
            20 * GB,
            SimDuration::from_secs(45),
            SimDuration::from_mins(5),
        );
        assert!(t.pause().as_mins_f64() > 8.0);
        assert!(t.degraded() > SimDuration::ZERO, "detection time runs degraded");
    }

    #[test]
    fn segment_pause_classification() {
        assert!(TimelineSegment::PauseSave.pauses());
        assert!(TimelineSegment::PauseInit.pauses());
        assert!(TimelineSegment::PauseLoad.pauses());
        assert!(TimelineSegment::PauseData.pauses());
        assert!(!TimelineSegment::Degraded.pauses());
        assert!(!TimelineSegment::Overlapped.pauses());
    }

    #[test]
    fn totals_add_up() {
        let t = plan_ps_migration(MigrationStrategy::Seamless, GB, SimDuration::from_mins(3));
        let manual: SimDuration = t.segments.iter().fold(SimDuration::ZERO, |acc, (_, d)| acc + *d);
        assert_eq!(t.total(), manual);
        assert_eq!(t.total(), t.pause() + t.degraded());
    }
}
