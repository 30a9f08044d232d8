//! Hashed, lazily materialised embedding tables.
//!
//! Following the paper's description (§2.1): a categorical id is mapped to
//! row `hash(id) mod M` of its feature's table. Rows are **materialised on
//! first touch** — exactly how TensorFlow/DeepRec variable embeddings behave
//! — so the table's resident memory grows with the number of distinct
//! categories encountered, reproducing the embedding-growth dynamics behind
//! Fig. 1b and the OOM-prevention mechanism (§5.3).
//!
//! Updates use Adagrad, the standard optimizer for sparse CTR features
//! (per-row accumulators mean hot rows take smaller steps).
//!
//! Storage is one flat arena: row `r` is the `2·D` floats at `r·2·D`,
//! weights first, Adagrad accumulators right behind them, so a lookup
//! reads one contiguous block and an update is one pass over it (on CPUs
//! the sparse side of a DLRM is bound by memory traffic and row layout —
//! Kalamkar et al., PAPERS.md). A slot → arena-offset map finds the row
//! with one probe. A row's initial value depends on `(slot, seed)` only,
//! so the order rows enter the arena is free; nothing observable walks
//! the arena in that order ([`EmbeddingTable::export_rows`] sorts by slot).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use dlrover_sim::splitmix64;

/// Multiplicative-fold hasher for the slot → row map: each word is xored
/// into the state, multiplied by an odd 64-bit constant to 128 bits, and
/// the two halves are xored together, so both the low bits (bucket index)
/// and the high bits (control byte) of the result depend on every input
/// bit. The keys are slots this program computes itself; a map keyed by
/// outside input should keep the default SipHash.
#[derive(Debug, Clone, Copy, Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, word: u64) {
        let wide = u128::from(self.0 ^ word) * 0x9E37_79B9_7F4A_7C15_u128;
        self.0 = wide as u64 ^ (wide >> 64) as u64;
    }
}

/// A `HashMap` hashed by [`FoldHasher`].
type FoldMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

/// The weights a row of `slot` is materialised with: a function of
/// `(slot, seed)` only, which is what lets [`EmbeddingTable::peek`] read a
/// row before it exists.
fn initial_weights(slot: u64, seed: u64, scale: f32, out: &mut [f32]) {
    let mut s = splitmix64(slot ^ seed ^ 0xE5B3);
    for w in out {
        s = splitmix64(s);
        let u = (s >> 11) as f32 / (1u64 << 53) as f32;
        *w = (u - 0.5) * 2.0 * scale;
    }
}

/// One embedding table: `virtual_rows` addressable slots, materialised
/// lazily.
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    dim: usize,
    virtual_rows: u64,
    init_scale: f32,
    seed: u64,
    /// Slot → offset of the row's first weight in `arena`.
    index: FoldMap<u64, usize>,
    /// Materialised rows back to back: `dim` weights, then `dim` Adagrad
    /// accumulators.
    arena: Vec<f32>,
}

impl EmbeddingTable {
    /// Creates a table with `virtual_rows` hash slots and `dim`-dimensional
    /// vectors. New rows initialise to small deterministic pseudo-random
    /// values derived from `seed`.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `virtual_rows == 0`.
    pub fn new(virtual_rows: u64, dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "embedding dim must be positive");
        assert!(virtual_rows > 0, "table must have at least one row");
        EmbeddingTable {
            dim,
            virtual_rows,
            init_scale: 0.05,
            seed,
            index: FoldMap::default(),
            arena: Vec::new(),
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The slot an id hashes to: `hash(id) mod M`.
    pub fn slot(&self, id: u64) -> u64 {
        splitmix64(id ^ self.seed) % self.virtual_rows
    }

    /// Number of *materialised* rows (distinct categories seen).
    pub fn materialized_rows(&self) -> usize {
        self.index.len()
    }

    /// Resident bytes: weights + accumulators, 4 bytes each.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.index.len() * self.dim * 4 * 2
    }

    /// Arena offset of the row of `id`, materialising it (initial weights,
    /// zero accumulators) on first touch. One map probe.
    pub(crate) fn row_offset(&mut self, id: u64) -> usize {
        let slot = self.slot(id);
        match self.index.entry(slot) {
            Entry::Occupied(row) => *row.get(),
            Entry::Vacant(vacant) => {
                let offset = self.arena.len();
                vacant.insert(offset);
                self.arena.resize(offset + 2 * self.dim, 0.0);
                let weights = &mut self.arena[offset..offset + self.dim];
                initial_weights(slot, self.seed, self.init_scale, weights);
                offset
            }
        }
    }

    /// Looks up (materialising if needed) and copies the row for `id` into
    /// `out`.
    ///
    /// # Panics
    /// Panics if `out.len() != dim`.
    pub fn lookup(&mut self, id: u64, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "output buffer dim mismatch");
        let offset = self.row_offset(id);
        out.copy_from_slice(&self.arena[offset..offset + self.dim]);
    }

    /// [`Self::lookup`] through `&self`: copies the row for `id` into
    /// `out`, or, when the row does not exist yet, the initial value
    /// `lookup` would materialise it with. Returns `false` in that case;
    /// the caller owes the table that row (see `DlrmModel::materialise`).
    ///
    /// # Panics
    /// Panics if `out.len() != dim`.
    pub(crate) fn peek(&self, id: u64, out: &mut [f32]) -> bool {
        assert_eq!(out.len(), self.dim, "output buffer dim mismatch");
        let slot = self.slot(id);
        match self.index.get(&slot) {
            Some(&offset) => {
                out.copy_from_slice(&self.arena[offset..offset + self.dim]);
                true
            }
            None => {
                initial_weights(slot, self.seed, self.init_scale, out);
                false
            }
        }
    }

    /// Read-only lookup: returns zeros for never-seen ids (inference on a
    /// frozen model must not allocate).
    pub(crate) fn lookup_frozen(&self, id: u64, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "output buffer dim mismatch");
        match self.index.get(&self.slot(id)) {
            Some(&offset) => out.copy_from_slice(&self.arena[offset..offset + self.dim]),
            None => out.fill(0.0),
        }
    }

    /// Applies an Adagrad update `w ← w − lr · g / (√acc + ε)` to the row of
    /// `id`, materialising it if necessary.
    ///
    /// # Panics
    /// Panics if `grad.len() != dim`.
    pub(crate) fn apply_grad(&mut self, id: u64, grad: &[f32], lr: f32) {
        assert_eq!(grad.len(), self.dim, "gradient dim mismatch");
        let offset = self.row_offset(id);
        let (weights, acc) = self.arena[offset..offset + 2 * self.dim].split_at_mut(self.dim);
        for ((w, a), &g) in weights.iter_mut().zip(acc.iter_mut()).zip(grad) {
            *a += g * g;
            *w -= lr * g / (a.sqrt() + 1e-8);
        }
    }

    /// Serialises the materialised rows (used by checkpointing). Row order
    /// is sorted by slot for determinism.
    pub(crate) fn export_rows(&self) -> Vec<(u64, Vec<f32>, Vec<f32>)> {
        let mut rows: Vec<(u64, usize)> = self.index.iter().map(|(&s, &o)| (s, o)).collect();
        rows.sort_unstable();
        rows.into_iter()
            .map(|(slot, o)| {
                let (w, a) = self.arena[o..o + 2 * self.dim].split_at(self.dim);
                (slot, w.to_vec(), a.to_vec())
            })
            .collect()
    }

    /// Replaces the table's rows with `rows`, as previously produced by
    /// [`Self::export_rows`].
    ///
    /// # Panics
    /// Panics if a row's weights or accumulators are not `dim` wide, or if
    /// a slot occurs twice: in the flat arena a short row would misalign
    /// every row behind it.
    pub(crate) fn import_rows(&mut self, rows: &[(u64, Vec<f32>, Vec<f32>)]) {
        self.index.clear();
        self.arena.clear();
        self.arena.reserve(rows.len() * 2 * self.dim);
        for (slot, w, a) in rows {
            assert_eq!(w.len(), self.dim, "row weight width mismatch");
            assert_eq!(a.len(), self.dim, "row accumulator width mismatch");
            let previous = self.index.insert(*slot, self.arena.len());
            assert!(previous.is_none(), "duplicate row slot {slot}");
            self.arena.extend_from_slice(w);
            self.arena.extend_from_slice(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_materialises_and_is_stable() {
        let mut t = EmbeddingTable::new(1000, 8, 7);
        let mut a = vec![0.0; 8];
        let mut b = vec![0.0; 8];
        t.lookup(42, &mut a);
        assert_eq!(t.materialized_rows(), 1);
        t.lookup(42, &mut b);
        assert_eq!(a, b, "same id must return same row");
        assert_eq!(t.materialized_rows(), 1);
    }

    #[test]
    fn distinct_ids_grow_memory() {
        let mut t = EmbeddingTable::new(1_000_000, 16, 7);
        let mut buf = vec![0.0; 16];
        for id in 0..500 {
            t.lookup(id, &mut buf);
        }
        assert_eq!(t.materialized_rows(), 500);
        assert_eq!(t.resident_bytes(), 500 * 16 * 8);
    }

    #[test]
    fn hash_collisions_share_rows() {
        // With 2 virtual rows, many ids collide — rows stays <= 2.
        let mut t = EmbeddingTable::new(2, 4, 7);
        let mut buf = vec![0.0; 4];
        for id in 0..100 {
            t.lookup(id, &mut buf);
        }
        assert!(t.materialized_rows() <= 2);
    }

    #[test]
    fn init_values_are_small_and_deterministic() {
        let mut t1 = EmbeddingTable::new(1000, 8, 99);
        let mut t2 = EmbeddingTable::new(1000, 8, 99);
        let mut a = vec![0.0; 8];
        let mut b = vec![0.0; 8];
        t1.lookup(5, &mut a);
        t2.lookup(5, &mut b);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| v.abs() <= 0.05));
        assert!(a.iter().any(|&v| v != 0.0), "init must not be all zero");
    }

    #[test]
    fn adagrad_moves_against_gradient_with_decaying_steps() {
        let mut t = EmbeddingTable::new(100, 2, 7);
        let mut before = vec![0.0; 2];
        t.lookup(1, &mut before);
        let grad = vec![1.0, -1.0];
        t.apply_grad(1, &grad, 0.1);
        let mut after1 = vec![0.0; 2];
        t.lookup(1, &mut after1);
        assert!(after1[0] < before[0], "positive grad must decrease weight");
        assert!(after1[1] > before[1], "negative grad must increase weight");
        let step1 = before[0] - after1[0];

        t.apply_grad(1, &grad, 0.1);
        let mut after2 = vec![0.0; 2];
        t.lookup(1, &mut after2);
        let step2 = after1[0] - after2[0];
        assert!(step2 < step1, "Adagrad steps must shrink: {step1} then {step2}");
    }

    #[test]
    fn apply_grad_on_fresh_id_materialises() {
        let mut t = EmbeddingTable::new(1000, 4, 7);
        t.apply_grad(77, &[0.1; 4], 0.05);
        assert_eq!(t.materialized_rows(), 1);
    }

    /// `peek` reads what `lookup` would return — the trained row, or the
    /// row it is about to materialise — bit for bit, and inserts nothing.
    /// Four slots: most ids share a row with an id seen before.
    #[test]
    fn peek_reads_what_lookup_materialises_and_inserts_nothing() {
        let mut t = EmbeddingTable::new(4, 3, 7);
        t.apply_grad(1, &[0.5, -0.25, 0.125], 0.1);
        let (mut peeked, mut looked_up) = ([0.0f32; 3], [0.0f32; 3]);
        let mut misses = 0;
        for id in 0..12 {
            let rows = t.materialized_rows();
            let hit = t.peek(id, &mut peeked);
            assert_eq!(t.materialized_rows(), rows, "peek inserted id {id}");
            t.lookup(id, &mut looked_up);
            assert_eq!(peeked.map(f32::to_bits), looked_up.map(f32::to_bits), "id {id}");
            assert_eq!(hit, t.materialized_rows() == rows, "id {id}: hit iff the row existed");
            misses += usize::from(!hit);
        }
        assert_eq!(t.materialized_rows(), 4);
        assert_eq!(misses, 3, "slot of id 1 was trained before the walk");
    }

    #[test]
    fn frozen_lookup_returns_zero_for_unseen() {
        let t = EmbeddingTable::new(1000, 4, 7);
        let mut buf = vec![1.0; 4];
        t.lookup_frozen(3, &mut buf);
        assert_eq!(buf, vec![0.0; 4]);
        assert_eq!(t.materialized_rows(), 0, "frozen lookup must not allocate");
    }

    #[test]
    fn export_import_roundtrip() {
        let mut t = EmbeddingTable::new(1000, 4, 7);
        let mut buf = vec![0.0; 4];
        for id in 0..20 {
            t.lookup(id, &mut buf);
            t.apply_grad(id, &[0.01, 0.02, -0.01, 0.0], 0.1);
        }
        let exported = t.export_rows();
        let mut t2 = EmbeddingTable::new(1000, 4, 7);
        t2.import_rows(&exported);
        assert_eq!(t2.materialized_rows(), t.materialized_rows());
        let mut a = vec![0.0; 4];
        let mut b = vec![0.0; 4];
        for id in 0..20 {
            t.lookup(id, &mut a);
            t2.lookup(id, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn export_is_sorted() {
        let mut t = EmbeddingTable::new(10_000, 2, 7);
        let mut buf = vec![0.0; 2];
        for id in [99, 5, 63, 12, 7] {
            t.lookup(id, &mut buf);
        }
        let rows = t.export_rows();
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// A row that survives export/import keeps its accumulators too: the
    /// next update takes the same (smaller) step on both tables.
    #[test]
    fn import_rebuilds_the_arena_in_any_row_order() {
        let mut t = EmbeddingTable::new(1000, 3, 7);
        for id in [9, 2, 40, 17] {
            t.apply_grad(id, &[0.5, -0.25, 0.125], 0.1);
        }
        let mut rows = t.export_rows();
        rows.reverse();
        let mut t2 = EmbeddingTable::new(1000, 3, 7);
        t2.lookup(555, &mut [0.0; 3]); // replaced by the import
        t2.import_rows(&rows);
        assert_eq!(t2.materialized_rows(), 4);
        assert_eq!(t2.resident_bytes(), t.resident_bytes());
        for id in [9, 2, 40, 17] {
            t.apply_grad(id, &[0.5, -0.25, 0.125], 0.1);
            t2.apply_grad(id, &[0.5, -0.25, 0.125], 0.1);
        }
        assert_eq!(t2.export_rows(), t.export_rows());
    }

    #[test]
    #[should_panic(expected = "row weight width mismatch")]
    fn import_rejects_a_short_weight_row() {
        let mut t = EmbeddingTable::new(1000, 4, 7);
        t.import_rows(&[(1, vec![0.0; 4], vec![0.0; 4]), (2, vec![0.0; 3], vec![0.0; 4])]);
    }

    #[test]
    #[should_panic(expected = "row accumulator width mismatch")]
    fn import_rejects_a_short_accumulator_row() {
        let mut t = EmbeddingTable::new(1000, 4, 7);
        t.import_rows(&[(1, vec![0.0; 4], vec![0.0; 2])]);
    }

    #[test]
    #[should_panic(expected = "duplicate row slot 5")]
    fn import_rejects_duplicate_slots() {
        let mut t = EmbeddingTable::new(1000, 2, 7);
        t.import_rows(&[(5, vec![0.0; 2], vec![0.0; 2]), (5, vec![1.0; 2], vec![0.0; 2])]);
    }

    /// The fold hasher must spread small keys over both ends of the hash:
    /// the map takes its bucket from the low bits and its control byte
    /// from the high ones.
    #[test]
    fn fold_hasher_spreads_small_keys() {
        let hash = |x: u64| {
            let mut h = FoldHasher::default();
            h.write_u64(x);
            h.finish()
        };
        let (mut low, mut high) =
            (std::collections::HashSet::new(), std::collections::HashSet::new());
        for slot in 0..4096u64 {
            low.insert(hash(slot) & 0xFFF);
            high.insert(hash(slot) >> 57);
        }
        assert!(low.len() > 2_000, "low bits collapse: {} of 4096 distinct", low.len());
        assert_eq!(high.len(), 128, "control bytes unused");
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn wrong_buffer_size_panics() {
        let mut t = EmbeddingTable::new(10, 4, 7);
        let mut buf = vec![0.0; 3];
        t.lookup(0, &mut buf);
    }
}
