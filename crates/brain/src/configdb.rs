//! The config DB: historical job traces for warm-starting.
//!
//! "The config DB stores the information as the historical job traces";
//! when a job is submitted, "the cluster brain quickly learns the job's
//! characteristics — by leveraging relevant historical data from the config
//! DB — and then generates an initialization (warm-starting) resource plan."

use dlrover_optimizer::{warm_start, JobMetadata, JobRecord, ResourceAllocation, WarmStartConfig};
use serde::{Deserialize, Serialize};

/// The historical-trace store.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConfigDb {
    records: Vec<JobRecord>,
    /// Cap on retained records (oldest evicted first).
    capacity: usize,
}

impl ConfigDb {
    /// Creates a DB retaining up to `capacity` records.
    pub fn new(capacity: usize) -> Self {
        ConfigDb { records: Vec::new(), capacity: capacity.max(1) }
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no history exists.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records a finished job's metadata and final (converged) allocation.
    pub fn record(&mut self, metadata: JobMetadata, final_allocation: ResourceAllocation) {
        self.records.push(JobRecord { metadata, final_allocation });
        if self.records.len() > self.capacity {
            let excess = self.records.len() - self.capacity;
            self.records.drain(..excess);
        }
    }

    /// All records (read-only).
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Algorithm 1: warm-start allocation for a new job, or `None` when the
    /// DB is empty.
    pub fn warm_start(
        &self,
        job: &JobMetadata,
        config: &WarmStartConfig,
    ) -> Option<ResourceAllocation> {
        warm_start(&self.records, job, config)
    }

    /// Serialises the DB to JSON (the production system persists traces).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ConfigDb is always serialisable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrover_perfmodel::JobShape;

    fn meta(kind: &str, owner: &str) -> JobMetadata {
        JobMetadata {
            model_kind: kind.into(),
            owner: owner.into(),
            num_sparse_features: 26,
            embedding_dim: 16,
            dataset_samples: 1_000_000,
            dense_params: 500_000,
        }
    }

    fn alloc(w: u32) -> ResourceAllocation {
        ResourceAllocation::new(JobShape::new(w, w / 2 + 1, 8.0, 8.0, 512), 32.0, 64.0)
    }

    #[test]
    fn record_and_warm_start() {
        let mut db = ConfigDb::new(100);
        assert!(db.warm_start(&meta("dcn", "a"), &WarmStartConfig::default()).is_none());
        db.record(meta("dcn", "a"), alloc(8));
        let ws = db.warm_start(&meta("dcn", "a"), &WarmStartConfig::default()).unwrap();
        assert_eq!(ws.shape.workers, 8);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut db = ConfigDb::new(3);
        for w in 1..=5 {
            db.record(meta("dcn", "a"), alloc(w));
        }
        assert_eq!(db.len(), 3);
        // The oldest (w=1, 2) are gone.
        assert!(db.records().iter().all(|r| r.final_allocation.shape.workers >= 3));
    }

    #[test]
    fn json_roundtrip() {
        let mut db = ConfigDb::new(10);
        db.record(meta("wide_deep", "bob"), alloc(4));
        let json = db.to_json();
        let restored: ConfigDb = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, db);
    }

    #[test]
    fn warm_start_prefers_same_user_history() {
        let mut db = ConfigDb::new(100);
        db.record(meta("dcn", "alice"), alloc(16));
        for _ in 0..5 {
            db.record(meta("dcn", "zed"), alloc(2));
        }
        let ws =
            db.warm_start(&meta("dcn", "alice"), &WarmStartConfig { top_k: 1, mu: 0.5 }).unwrap();
        assert_eq!(ws.shape.workers, 16);
    }
}
