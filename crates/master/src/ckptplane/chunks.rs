//! Content-chunked checkpoint representation with cross-job dedup.
//!
//! DLRover-RM's flash checkpoints (§5.3) are dominated by embedding tables
//! whose *static* regions (dense parameters, optimizer state, saturated
//! vocabulary rows) barely change between saves, while a small *dynamic*
//! fraction churns every step. We model a checkpoint as a deterministic
//! set of content-addressed chunks: a chunk key is a pure function of what
//! the region would contain at a given training step, so two saves that
//! would serialize identical bytes produce identical keys — the dedup a
//! content-addressed store gets for free — without simulating actual
//! tensor payloads.
//!
//! Jobs in the same *model family* (same recommender architecture, e.g.
//! replicas of a CTR model retrained per region) share static-region keys,
//! which is where the cross-job dedup of the shared remote tier comes from.

use serde::{Deserialize, Serialize};

/// How a logical checkpoint is cut into content-addressed chunks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChunkingConfig {
    /// Target chunk size in bytes (the last chunk of a manifest is the
    /// remainder).
    pub chunk_bytes: u64,
}

impl Default for ChunkingConfig {
    fn default() -> Self {
        // 64 MB chunks.
        ChunkingConfig { chunk_bytes: 64_000_000 }
    }
}

/// Fraction (permille) of regions whose content is *static*: identical
/// across saves and shared across jobs of the same model family. ~60 % of a
/// recommender checkpoint is static (dense params + saturated embedding
/// rows).
const STATIC_PERMILLE: u64 = 600;

/// Churn rate (permille) of dynamic regions per training step: after
/// `1000 / CHURN_PERMILLE` steps (roughly every 20), a dynamic region's
/// content has changed and its chunk key rolls over.
const CHURN_PERMILLE: u64 = 50;

/// A content-addressed chunk reference: key plus size. Two references with
/// the same key denote byte-identical content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChunkRef {
    /// Content hash of the chunk.
    pub key: u64,
    /// Chunk size in bytes.
    pub bytes: u64,
}

/// splitmix64 finalizer: a cheap, high-quality deterministic mixer used to
/// derive content keys. Not security-relevant; collisions at our chunk
/// counts (~1e5 keys in 2^64 space) are negligible.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Derives the chunk set a checkpoint of `total_bytes` for `(job, family)`
/// at training `step` would serialize.
///
/// Region `r` of the checkpoint is static when `hash(family, r)` falls
/// under `STATIC_PERMILLE` — its key depends only on `(family, r, bytes)`
/// and is therefore shared by every job of the family and every step.
/// Dynamic regions version as `(step * churn + phase) / 1000`, so a region
/// keeps its key for `~1000/churn` steps and then rolls over; phases are
/// staggered per region so rollovers spread instead of thundering.
pub(crate) fn manifest_chunks(
    job: u64,
    family: u64,
    step: u64,
    total_bytes: u64,
    cfg: &ChunkingConfig,
) -> Vec<ChunkRef> {
    let chunk = cfg.chunk_bytes.max(1);
    let regions = total_bytes.div_ceil(chunk).max(1);
    let mut out = Vec::with_capacity(regions as usize);
    for r in 0..regions {
        let bytes = if r == regions - 1 && !total_bytes.is_multiple_of(chunk) && total_bytes > 0 {
            total_bytes % chunk
        } else {
            chunk.min(total_bytes.max(1))
        };
        let is_static = mix64(family ^ mix64(r ^ 0x5747_4943)) % 1000 < STATIC_PERMILLE;
        let key = if is_static {
            // Shared across jobs of the family and across steps.
            mix64(mix64(family ^ 0x5354_4154) ^ mix64(r) ^ mix64(bytes))
        } else {
            let phase = mix64(job ^ mix64(r)) % 1000;
            let version = (step * CHURN_PERMILLE + phase) / 1000;
            mix64(mix64(job ^ 0x44_594e) ^ mix64(r) ^ mix64(version) ^ mix64(bytes))
        };
        out.push(ChunkRef { key, bytes });
    }
    out
}

/// Hasher for maps keyed by chunk keys: the key *is* the hash. Chunk keys
/// are [`mix64`] outputs — already uniform over 64 bits — so a second hash
/// (SipHash by default) or a tree walk per lookup buys nothing. Private to
/// this module: only content keys minted by [`manifest_chunks`] may reach
/// it.
#[derive(Debug, Clone, Copy, Default)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("KeyHasher hashes u64 chunk keys only");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type KeyMap<V> = std::collections::HashMap<u64, V, std::hash::BuildHasherDefault<KeyHasher>>;

/// A refcounted content-addressed chunk store (one per storage tier).
///
/// `acquire` returns whether the chunk was *newly* stored — the caller
/// charges transfer bytes only for those; duplicate acquisitions are the
/// dedup hits. `release` returns the bytes freed when the last reference
/// drops.
///
/// A save touches every chunk of its manifest four times (remote acquire,
/// hot acquire, hot release of the superseded copy, remote release at
/// retirement) and a chaos-sized checkpoint has ~125 chunks, so the store
/// is a hash map keyed by the content key itself (a pass-through hasher).
/// Nothing but [`Self::digest`] iterates it, and that sorts first: map
/// order never reaches a result. Equality is set equality.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ChunkStore {
    entries: KeyMap<ChunkEntry>,
    stored_bytes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct ChunkEntry {
    bytes: u64,
    refs: u64,
}

impl ChunkStore {
    /// Adds a reference to `chunk`, storing it if absent. Returns `true`
    /// when the chunk was newly stored (bytes must be transferred).
    pub(crate) fn acquire(&mut self, chunk: ChunkRef) -> bool {
        use std::collections::hash_map::Entry;
        match self.entries.entry(chunk.key) {
            Entry::Occupied(mut e) => {
                e.get_mut().refs += 1;
                false
            }
            Entry::Vacant(v) => {
                v.insert(ChunkEntry { bytes: chunk.bytes, refs: 1 });
                self.stored_bytes += chunk.bytes;
                true
            }
        }
    }

    /// Drops a reference to `key`. Returns the bytes freed (non-zero only
    /// when the last reference dropped). Unknown keys are ignored.
    pub(crate) fn release(&mut self, key: u64) -> u64 {
        use std::collections::hash_map::Entry;
        let Entry::Occupied(mut e) = self.entries.entry(key) else { return 0 };
        e.get_mut().refs -= 1;
        if e.get().refs == 0 {
            let bytes = e.remove().bytes;
            self.stored_bytes -= bytes;
            bytes
        } else {
            0
        }
    }

    /// Physical bytes resident (each chunk counted once regardless of
    /// reference count).
    pub(crate) fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// Digest of the store's full state (keys, sizes, refcounts, total),
    /// independent of the order the state was built in. Used by
    /// determinism tests to compare stores built through different
    /// interleavings. The fold is a chain, so entries are visited in
    /// ascending key order — the order `results/ckptplane.json` and the
    /// cross-shard comparison were recorded in.
    pub(crate) fn digest(&self) -> u64 {
        let mut entries: Vec<(u64, ChunkEntry)> =
            self.entries.iter().map(|(&key, &e)| (key, e)).collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        let mut acc = mix64(self.stored_bytes ^ 0x00D1_6E57);
        for (key, e) in entries {
            acc = mix64(acc ^ mix64(key) ^ mix64(e.bytes) ^ mix64(e.refs));
        }
        acc
    }
}

/// The `BTreeMap`-backed store this module shipped with through PR 14,
/// kept verbatim as the reference [`ChunkStore`] is tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{mix64, ChunkRef};

    #[derive(Debug, Clone, Default, PartialEq)]
    pub(crate) struct ChunkStore {
        entries: std::collections::BTreeMap<u64, ChunkEntry>,
        stored_bytes: u64,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct ChunkEntry {
        bytes: u64,
        refs: u64,
    }

    impl ChunkStore {
        pub(crate) fn acquire(&mut self, chunk: ChunkRef) -> bool {
            match self.entries.get_mut(&chunk.key) {
                Some(e) => {
                    e.refs += 1;
                    false
                }
                None => {
                    self.entries.insert(chunk.key, ChunkEntry { bytes: chunk.bytes, refs: 1 });
                    self.stored_bytes += chunk.bytes;
                    true
                }
            }
        }

        pub(crate) fn release(&mut self, key: u64) -> u64 {
            let Some(e) = self.entries.get_mut(&key) else { return 0 };
            e.refs -= 1;
            if e.refs == 0 {
                let bytes = e.bytes;
                self.entries.remove(&key);
                self.stored_bytes -= bytes;
                bytes
            } else {
                0
            }
        }

        pub(crate) fn stored_bytes(&self) -> u64 {
            self.stored_bytes
        }

        pub(crate) fn digest(&self) -> u64 {
            let mut acc = mix64(self.stored_bytes ^ 0x00D1_6E57);
            for (key, e) in &self.entries {
                acc = mix64(acc ^ mix64(*key) ^ mix64(e.bytes) ^ mix64(e.refs));
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_total_bytes_exactly() {
        let cfg = ChunkingConfig::default();
        for total in [1u64, 64_000_000, 64_000_001, 4_400_000_000] {
            let chunks = manifest_chunks(7, 2, 100, total, &cfg);
            let sum: u64 = chunks.iter().map(|c| c.bytes).sum();
            assert_eq!(sum, total, "chunks must tile the checkpoint");
        }
    }

    #[test]
    fn same_family_shares_static_chunks_different_families_do_not() {
        let cfg = ChunkingConfig::default();
        let a = manifest_chunks(1, 9, 500, 2_000_000_000, &cfg);
        let b = manifest_chunks(2, 9, 500, 2_000_000_000, &cfg);
        let c = manifest_chunks(3, 4, 500, 2_000_000_000, &cfg);
        let keys =
            |v: &[ChunkRef]| v.iter().map(|c| c.key).collect::<std::collections::BTreeSet<_>>();
        let shared_ab = keys(&a).intersection(&keys(&b)).count();
        let shared_ac = keys(&a).intersection(&keys(&c)).count();
        assert!(
            shared_ab > a.len() / 3,
            "family peers share static regions: {shared_ab}/{}",
            a.len()
        );
        assert_eq!(shared_ac, 0, "different families share nothing");
    }

    #[test]
    fn consecutive_steps_overlap_heavily_distant_steps_less() {
        let cfg = ChunkingConfig::default();
        let keys = |step: u64| {
            manifest_chunks(5, 1, step, 3_000_000_000, &cfg)
                .iter()
                .map(|c| c.key)
                .collect::<std::collections::BTreeSet<_>>()
        };
        let base = keys(1000);
        let near = base.intersection(&keys(1002)).count();
        let far = base.intersection(&keys(1200)).count();
        assert!(near > far, "chunk churn must grow with step distance ({near} vs {far})");
        assert!(far * 10 >= base.len() * 5, "static floor persists even far apart");
    }

    #[test]
    fn store_refcounts_and_dedups() {
        let mut s = ChunkStore::default();
        let key = mix64(42);
        let c = ChunkRef { key, bytes: 100 };
        assert!(s.acquire(c), "first acquire stores");
        assert!(!s.acquire(c), "second acquire dedups");
        assert_eq!(s.stored_bytes(), 100);
        assert_eq!(s.release(key), 0, "one ref remains");
        assert_eq!(s.release(key), 100, "last ref frees");
        assert_eq!(s.stored_bytes(), 0);
        assert!(!s.entries.contains_key(&key));
    }

    #[test]
    fn digest_is_order_independent_but_state_sensitive() {
        let a1 = ChunkRef { key: mix64(1), bytes: 10 };
        let a2 = ChunkRef { key: mix64(2), bytes: 20 };
        let mut s1 = ChunkStore::default();
        s1.acquire(a1);
        s1.acquire(a2);
        let mut s2 = ChunkStore::default();
        s2.acquire(a2);
        s2.acquire(a1);
        assert_eq!(s1.digest(), s2.digest());
        s2.acquire(a1);
        assert_ne!(s1.digest(), s2.digest(), "refcounts are part of the digest");
    }

    /// The digest `plane::tests::churned_plane_digest_is_pinned` pins is a
    /// fold in ascending key order; a store that folded in map order would
    /// pass every self-comparison and still move `results/ckptplane.json`.
    #[test]
    fn digest_folds_in_ascending_key_order() {
        let mut s = ChunkStore::default();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        for i in 0..200u64 {
            let c = ChunkRef { key: mix64(i ^ 0xD16E), bytes: 1 + i };
            s.acquire(c);
            expect.push((c.key, c.bytes));
        }
        expect.sort_unstable();
        let mut acc = mix64(s.stored_bytes() ^ 0x00D1_6E57);
        for (key, bytes) in expect {
            acc = mix64(acc ^ mix64(key) ^ mix64(bytes) ^ mix64(1));
        }
        assert_eq!(s.digest(), acc);
    }
}

/// Differential tests: the hashed store against the B-tree store it
/// replaced, under the traffic the plane generates (every chunk acquired
/// and released many times, keys shared across manifests).
#[cfg(test)]
mod differential {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        /// Acquire chunk `i` of the key pool.
        Acquire(usize),
        /// Release chunk `i` of the key pool (possibly absent).
        Release(usize),
        /// Stage a whole manifest, as `CheckpointPlane::save` does.
        Save { job: u64, family: u64, step: u64, bytes: u64 },
        /// Release a previously staged manifest's chunks (retirement).
        Retire(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..48).prop_map(Op::Acquire),
            (0usize..48).prop_map(Op::Release),
            (0u64..4, 0u64..3, 0u64..400, 1u64..2_000_000_000)
                .prop_map(|(job, family, step, bytes)| Op::Save { job, family, step, bytes }),
            (0usize..32).prop_map(Op::Retire),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn hashed_store_matches_btree_reference(ops in proptest::collection::vec(op(), 1..300)) {
            // A small pool with planted duplicates: indices 32.. alias the
            // first sixteen keys, so acquires and releases of "different"
            // chunks land on one entry.
            let pool: Vec<ChunkRef> = (0..48u64)
                .map(|i| {
                    let k = if i >= 32 { i - 32 } else { i };
                    ChunkRef { key: mix64(k ^ 0x00C0_FFEE), bytes: 1_000 + k * 7 }
                })
                .collect();
            let cfg = ChunkingConfig::default();
            let mut live = ChunkStore::default();
            let mut reference = reference::ChunkStore::default();
            let mut manifests: Vec<Vec<ChunkRef>> = Vec::new();
            for op in ops {
                match op {
                    Op::Acquire(i) => {
                        prop_assert_eq!(live.acquire(pool[i]), reference.acquire(pool[i]));
                    }
                    Op::Release(i) => {
                        prop_assert_eq!(live.release(pool[i].key), reference.release(pool[i].key));
                    }
                    Op::Save { job, family, step, bytes } => {
                        let chunks = manifest_chunks(job, family, step, bytes, &cfg);
                        for c in &chunks {
                            prop_assert_eq!(live.acquire(*c), reference.acquire(*c));
                        }
                        manifests.push(chunks);
                    }
                    Op::Retire(i) => {
                        if !manifests.is_empty() {
                            let chunks = manifests.swap_remove(i % manifests.len());
                            for c in &chunks {
                                prop_assert_eq!(live.release(c.key), reference.release(c.key));
                            }
                        }
                    }
                }
                prop_assert_eq!(live.stored_bytes(), reference.stored_bytes());
                prop_assert_eq!(live.digest(), reference.digest());
            }        }
    }
}
