//! Checkpoint storage tiers: remote RDS vs in-memory flash-checkpoint (§5.2).
//!
//! "Checkpointing a job to remote disk storage (RDS) typically takes 5-10
//! minutes" because the RDS bandwidth is shared and throttled; the
//! flash-checkpoint path writes to a distributed caching service instead
//! ("less than 1 second for a 20GB model") and flushes to RDS
//! *asynchronously* for durability. This module is the physics of a tier —
//! `base latency + bytes / bandwidth` — and its two parameter sets, and
//! nothing else: the migration timelines price pauses against
//! [`StorageTier::FLASH`] and [`StorageTier::RDS`], and `dlrover_master`'s
//! checkpoint plane (which owns the state: manifests, the shared transfer
//! queue, commits, restores) takes its remote tier as a [`StorageTier`].

use dlrover_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// A storage tier for checkpoints: bandwidth + fixed latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageTier {
    /// Effective write bandwidth, bytes/s.
    pub write_bandwidth: f64,
    /// Effective read bandwidth, bytes/s.
    pub read_bandwidth: f64,
    /// Fixed per-operation latency.
    pub base_latency: SimDuration,
}

impl StorageTier {
    /// The distributed caching tier (AntGroup uses Alluxio): memory-speed,
    /// shared between old and new pods on the same node, *not* durable —
    /// "less than 1 second for a 20GB model".
    pub const FLASH: StorageTier = StorageTier {
        write_bandwidth: 25.0e9,
        read_bandwidth: 30.0e9,
        base_latency: SimDuration::from_millis(50),
    };

    /// Remote disk storage: shared across tenants, throttled, durable.
    /// Tuned so a 20 GB model takes ~5-7 minutes to save, matching §2.2.
    pub const RDS: StorageTier = StorageTier {
        write_bandwidth: 60.0e6,
        read_bandwidth: 120.0e6,
        base_latency: SimDuration::from_secs(15),
    };

    /// Time to persist `bytes`.
    pub fn save_duration(&self, bytes: u64) -> SimDuration {
        self.base_latency + SimDuration::from_secs_f64(bytes as f64 / self.write_bandwidth)
    }

    /// Time to read back `bytes`.
    pub fn load_duration(&self, bytes: u64) -> SimDuration {
        self.base_latency + SimDuration::from_secs_f64(bytes as f64 / self.read_bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1_000_000_000;

    #[test]
    fn rds_is_minutes_for_20gb() {
        let rds = StorageTier::RDS;
        let d = rds.save_duration(20 * GB);
        assert!(
            (4.0..11.0).contains(&d.as_mins_f64()),
            "RDS save of 20GB took {d} — paper says 5-10 minutes"
        );
    }

    #[test]
    fn flash_is_subsecond_for_20gb() {
        let flash = StorageTier::FLASH;
        let d = flash.save_duration(20 * GB);
        assert!(d.as_secs_f64() < 1.0, "flash save of 20GB took {d} — paper says <1s");
    }

    #[test]
    fn flash_load_is_fast_too() {
        let flash = StorageTier::FLASH;
        assert!(flash.load_duration(20 * GB).as_secs_f64() < 1.0);
    }

    #[test]
    fn durations_scale_with_size() {
        let rds = StorageTier::RDS;
        assert!(rds.save_duration(40 * GB) > rds.save_duration(20 * GB));
        let flash = StorageTier::FLASH;
        assert!(flash.save_duration(40 * GB) > flash.save_duration(20 * GB));
    }
}
