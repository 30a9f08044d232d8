//! Checkpoint stores: remote RDS vs in-memory flash-checkpoint (§5.2).
//!
//! "Checkpointing a job to remote disk storage (RDS) typically takes 5-10
//! minutes" because the RDS bandwidth is shared and throttled; the
//! flash-checkpoint path writes to a distributed caching service instead
//! ("less than 1 second for a 20GB model") and flushes to RDS
//! *asynchronously* for durability. This module is the physics of the two
//! tiers — `base latency + bytes / bandwidth` — and nothing else: the
//! migration timelines price pauses with it, and `dlrover_master`'s
//! checkpoint plane (which owns the state: manifests, the shared transfer
//! queue, commits, restores) is configured by the same two structs.

use dlrover_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// A storage tier for checkpoints: bandwidth + fixed latency.
pub trait CheckpointStore {
    /// Time to persist `bytes`.
    fn save_duration(&self, bytes: u64) -> SimDuration;
    /// Time to read back `bytes`.
    fn load_duration(&self, bytes: u64) -> SimDuration;
    /// Human label for reports.
    fn label(&self) -> &'static str;
}

/// Remote disk storage: shared, throttled, durable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RdsStore {
    /// Effective write bandwidth, bytes/s (shared across tenants).
    pub write_bandwidth: f64,
    /// Effective read bandwidth, bytes/s.
    pub read_bandwidth: f64,
    /// Fixed per-operation latency.
    pub base_latency: SimDuration,
}

impl Default for RdsStore {
    fn default() -> Self {
        // Tuned so a 20 GB model takes ~5-7 minutes to save, matching §2.2.
        RdsStore {
            write_bandwidth: 60.0e6,
            read_bandwidth: 120.0e6,
            base_latency: SimDuration::from_secs(15),
        }
    }
}

impl CheckpointStore for RdsStore {
    fn save_duration(&self, bytes: u64) -> SimDuration {
        self.base_latency + SimDuration::from_secs_f64(bytes as f64 / self.write_bandwidth)
    }

    fn load_duration(&self, bytes: u64) -> SimDuration {
        self.base_latency + SimDuration::from_secs_f64(bytes as f64 / self.read_bandwidth)
    }

    fn label(&self) -> &'static str {
        "rds"
    }
}

/// The distributed caching tier (AntGroup uses Alluxio): memory-speed,
/// shared between old and new pods on the same node, *not* durable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashStore {
    /// Write bandwidth, bytes/s.
    pub write_bandwidth: f64,
    /// Read bandwidth, bytes/s.
    pub read_bandwidth: f64,
    /// Fixed per-operation latency.
    pub base_latency: SimDuration,
}

impl Default for FlashStore {
    fn default() -> Self {
        // "less than 1 second for a 20GB model".
        FlashStore {
            write_bandwidth: 25.0e9,
            read_bandwidth: 30.0e9,
            base_latency: SimDuration::from_millis(50),
        }
    }
}

impl CheckpointStore for FlashStore {
    fn save_duration(&self, bytes: u64) -> SimDuration {
        self.base_latency + SimDuration::from_secs_f64(bytes as f64 / self.write_bandwidth)
    }

    fn load_duration(&self, bytes: u64) -> SimDuration {
        self.base_latency + SimDuration::from_secs_f64(bytes as f64 / self.read_bandwidth)
    }

    fn label(&self) -> &'static str {
        "flash"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1_000_000_000;

    #[test]
    fn rds_is_minutes_for_20gb() {
        let rds = RdsStore::default();
        let d = rds.save_duration(20 * GB);
        assert!(
            (4.0..11.0).contains(&d.as_mins_f64()),
            "RDS save of 20GB took {d} — paper says 5-10 minutes"
        );
    }

    #[test]
    fn flash_is_subsecond_for_20gb() {
        let flash = FlashStore::default();
        let d = flash.save_duration(20 * GB);
        assert!(d.as_secs_f64() < 1.0, "flash save of 20GB took {d} — paper says <1s");
    }

    #[test]
    fn flash_load_is_fast_too() {
        let flash = FlashStore::default();
        assert!(flash.load_duration(20 * GB).as_secs_f64() < 1.0);
    }

    #[test]
    fn durations_scale_with_size() {
        let rds = RdsStore::default();
        assert!(rds.save_duration(40 * GB) > rds.save_duration(20 * GB));
        let flash = FlashStore::default();
        assert!(flash.save_duration(40 * GB) > flash.save_duration(20 * GB));
    }
}
