//! Compact pod/job storage for the sharded fleet core.
//!
//! Two structures back the million-pod fleet (§1, Table 4: 62K+ concurrent
//! jobs, 3.24 PB of memory under management):
//!
//! * [`GenSlab`] — a generational slab. Keys pack `(slot, generation)`, so a
//!   stale key held by an in-flight timer-wheel event after its job resolved
//!   is a safe O(1) miss instead of a dangling reference. Shards store live
//!   gang/job state here; wheel events carry [`SlabKey`]s, never indices.
//! * [`PodTable`] — a paged, dense pod store indexed by the cell-local
//!   sequential [`PodId`]. Iteration yields pods in ascending id order —
//!   exactly the order the previous `BTreeMap<PodId, Pod>` produced — so the
//!   golden-trace corpus is unaffected by the swap. Pages whose pods have all
//!   reached a terminal phase can be reclaimed ([`PodTable::reap_terminal`])
//!   to bound resident memory during 1M-pod sweeps; the table counts the
//!   live pods of each page as their phases are written
//!   ([`PodTable::set_phase`]), so finding those pages reads no pod.

use serde::{Deserialize, Serialize};

use crate::pod::{Pod, PodId, PodPhase};

/// A generational key into a [`GenSlab`].
///
/// Packs a 32-bit slot index and a 32-bit generation counter. A key is only
/// valid while the slot's generation matches; removing an entry bumps the
/// generation so old keys miss safely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SlabKey(u64);

impl SlabKey {
    /// Slot index within the slab.
    pub fn slot(self) -> u32 {
        (self.0 & 0xFFFF_FFFF) as u32
    }

    /// Generation the key was minted under.
    pub(crate) fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    fn pack(slot: u32, generation: u32) -> Self {
        SlabKey(((generation as u64) << 32) | slot as u64)
    }
}

#[derive(Debug, Clone)]
struct SlabEntry<T> {
    generation: u32,
    value: Option<T>,
}

/// A generational slab: O(1) insert/remove/lookup with stale-key safety.
///
/// ```
/// use dlrover_cluster::GenSlab;
///
/// let mut slab = GenSlab::new();
/// let k = slab.insert("job-7");
/// assert_eq!(slab.get(k), Some(&"job-7"));
/// assert_eq!(slab.remove(k), Some("job-7"));
/// // The stale key now misses instead of aliasing a recycled slot.
/// let k2 = slab.insert("job-8");
/// assert_eq!(k2.slot(), k.slot());
/// assert_eq!(slab.get(k), None);
/// assert_eq!(slab.get(k2), Some(&"job-8"));
/// ```
#[derive(Debug, Clone)]
pub struct GenSlab<T> {
    entries: Vec<SlabEntry<T>>,
    free: Vec<u32>,
}

impl<T> Default for GenSlab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> GenSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        GenSlab { entries: Vec::new(), free: Vec::new() }
    }

    /// Creates an empty slab with room for `cap` entries.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        GenSlab { entries: Vec::with_capacity(cap), free: Vec::new() }
    }

    /// Inserts a value, reusing a freed slot when available.
    pub fn insert(&mut self, value: T) -> SlabKey {
        if let Some(slot) = self.free.pop() {
            let entry = &mut self.entries[slot as usize];
            debug_assert!(entry.value.is_none(), "free-list slot still occupied");
            entry.value = Some(value);
            SlabKey::pack(slot, entry.generation)
        } else {
            let slot = u32::try_from(self.entries.len()).expect("slab overflow");
            self.entries.push(SlabEntry { generation: 0, value: Some(value) });
            SlabKey::pack(slot, 0)
        }
    }

    /// Looks up a live entry; stale or foreign keys return `None`.
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        let entry = self.entries.get(key.slot() as usize)?;
        if entry.generation != key.generation() {
            return None;
        }
        entry.value.as_ref()
    }

    /// Mutable lookup; stale or foreign keys return `None`.
    pub(crate) fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        let entry = self.entries.get_mut(key.slot() as usize)?;
        if entry.generation != key.generation() {
            return None;
        }
        entry.value.as_mut()
    }

    /// Removes and returns a live entry, bumping the slot generation so the
    /// key (and any copies of it) become stale.
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let entry = self.entries.get_mut(key.slot() as usize)?;
        if entry.generation != key.generation() {
            return None;
        }
        let value = entry.value.take()?;
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(key.slot());
        Some(value)
    }

    /// Iterates live entries in ascending slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SlabKey, &T)> {
        self.entries.iter().enumerate().filter_map(|(slot, e)| {
            e.value.as_ref().map(|v| (SlabKey::pack(slot as u32, e.generation), v))
        })
    }
}

/// Pods per [`PodTable`] page. Power of two so the id → (page, offset) split
/// is a shift/mask.
const PAGE_BITS: u32 = 10;
/// Page size in pods (1024).
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// A paged, dense pod store indexed by sequential [`PodId`].
///
/// Ids are assigned by the owning cluster in strictly increasing order, so
/// the table is append-only: `pods[id]` lives at page `id >> 10`, offset
/// `id & 1023`. Iteration is in ascending id order — bit-compatible with the
/// `BTreeMap<PodId, Pod>` it replaces. Full pages whose pods are all in a
/// terminal phase can be dropped wholesale to cap resident memory at fleet
/// scale (PAPER.md Table 4).
///
/// The table is the one writer of [`Pod::phase`]: `insert` and
/// `Self::set_phase` keep `live[page]` equal to the page's non-terminal
/// pods, which is what lets `Self::reap_terminal` run in O(pages).
#[derive(Debug, Clone, Default)]
pub struct PodTable {
    pages: Vec<Option<Vec<Pod>>>,
    /// Non-terminal pods per page (parallel to `pages`; 0 once reaped).
    live: Vec<u32>,
    /// Total pods ever inserted (== next expected id).
    inserted: u64,
    /// Pods dropped by [`Self::reap_terminal`].
    reaped: u64,
}

impl PodTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pods currently stored (inserted minus reaped).
    pub fn len(&self) -> usize {
        (self.inserted - self.reaped) as usize
    }

    /// True when no pods are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total pods ever inserted, including reaped ones.
    pub(crate) fn total_inserted(&self) -> u64 {
        self.inserted
    }

    /// Inserts the next pod.
    ///
    /// # Panics
    /// Panics if `pod.id` is not the next sequential id — the table is
    /// append-only by construction.
    pub fn insert(&mut self, pod: Pod) {
        assert_eq!(pod.id.0, self.inserted, "PodTable ids must be sequential");
        let page_idx = (pod.id.0 >> PAGE_BITS) as usize;
        if page_idx == self.pages.len() {
            self.pages.push(Some(Vec::with_capacity(PAGE_SIZE)));
            self.live.push(0);
        }
        let page =
            self.pages[page_idx].as_mut().expect("append page was reaped while still filling");
        self.live[page_idx] += u32::from(!pod.phase.is_terminal());
        page.push(pod);
        self.inserted += 1;
    }

    /// Looks up a pod; returns `None` for unknown or reaped ids.
    pub fn get(&self, id: PodId) -> Option<&Pod> {
        let page = self.pages.get((id.0 >> PAGE_BITS) as usize)?.as_ref()?;
        page.get((id.0 & (PAGE_SIZE as u64 - 1)) as usize)
    }

    /// Mutable lookup; returns `None` for unknown or reaped ids. Every
    /// field but the phase may be written through it — the phase goes
    /// through `Self::set_phase`.
    pub fn get_mut(&mut self, id: PodId) -> Option<&mut Pod> {
        let page = self.pages.get_mut((id.0 >> PAGE_BITS) as usize)?.as_mut()?;
        page.get_mut((id.0 & (PAGE_SIZE as u64 - 1)) as usize)
    }

    /// Moves a pod to `phase` — the only place a stored pod's phase is
    /// written, so the per-page live counts follow every transition.
    /// Returns the pod for the caller's other field updates, `None` for
    /// unknown or reaped ids.
    ///
    /// # Panics
    /// Panics in debug builds on a terminal → live transition: a terminal
    /// pod's page may already be reaped, so nothing may revive one.
    pub(crate) fn set_phase(&mut self, id: PodId, phase: PodPhase) -> Option<&mut Pod> {
        let page_idx = (id.0 >> PAGE_BITS) as usize;
        let page = self.pages.get_mut(page_idx)?.as_mut()?;
        let pod = page.get_mut((id.0 & (PAGE_SIZE as u64 - 1)) as usize)?;
        match (pod.phase.is_terminal(), phase.is_terminal()) {
            (false, true) => self.live[page_idx] -= 1,
            (true, false) => debug_assert!(false, "pod {id:?}: {:?} -> {phase:?}", pod.phase),
            _ => {}
        }
        pod.phase = phase;
        Some(pod)
    }

    /// Iterates stored pods in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &Pod> {
        self.pages.iter().filter_map(|p| p.as_deref()).flat_map(|p| p.iter())
    }

    /// Drops full pages whose pods are all terminal; returns pods reclaimed.
    ///
    /// Only *full* pages are candidates: the filling page still takes
    /// inserts, and an id must never land on a dropped page. Which pages
    /// are all-terminal comes from the live counts, never from the pods.
    ///
    /// Looking up a reaped pod afterwards returns `None`, so callers must
    /// only reap once they no longer dereference finished pods (the sharded
    /// fleet reaps at epoch barriers; the classic [`crate::Cluster`] never
    /// reaps).
    pub(crate) fn reap_terminal(&mut self) -> usize {
        let mut reclaimed = 0usize;
        let full_pages = (self.inserted >> PAGE_BITS) as usize;
        for (page, live) in self.pages.iter_mut().zip(&self.live).take(full_pages) {
            debug_assert!(
                page.as_deref().is_none_or(|pods| *live as usize == scan_live(pods)),
                "a phase was written around PodTable::set_phase"
            );
            if *live == 0 && page.is_some() {
                *page = None;
                reclaimed += PAGE_SIZE;
            }
        }
        self.reaped += reclaimed as u64;
        reclaimed
    }
}

/// Non-terminal pods of a page by reading every pod: what the live counts
/// replace, kept as the debug-build cross-check and the tests' reference.
fn scan_live(pods: &[Pod]) -> usize {
    pods.iter().filter(|p| !p.phase.is_terminal()).count()
}

impl std::ops::Index<&PodId> for PodTable {
    type Output = Pod;
    fn index(&self, id: &PodId) -> &Pod {
        self.get(*id).expect("pod id unknown or reaped")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::{PodRole, PodSpec, Priority};
    use crate::resources::Resources;
    use dlrover_sim::SimTime;
    use proptest::prelude::*;

    fn pod(id: u64, phase: PodPhase) -> Pod {
        Pod {
            id: PodId(id),
            spec: PodSpec {
                resources: Resources::new(1.0, 2.0),
                role: PodRole::Worker,
                priority: Priority::Low,
                job_id: id / 4,
            },
            phase,
            node: None,
            requested_at: SimTime::ZERO,
            placed_at: None,
            running_at: None,
            node_speed: 1.0,
        }
    }

    #[test]
    fn slab_roundtrip_and_stale_keys() {
        let mut slab = GenSlab::new();
        let a = slab.insert(10u32);
        let b = slab.insert(20u32);
        assert_eq!(slab.iter().count(), 2);
        assert_eq!(slab.get(a), Some(&10));
        *slab.get_mut(b).unwrap() = 21;
        assert_eq!(slab.remove(a), Some(10));
        assert_eq!(slab.remove(a), None, "double-remove misses");
        assert_eq!(slab.get(a), None, "stale key misses");
        // Slot is reused under a new generation.
        let c = slab.insert(30u32);
        assert_eq!(c.slot(), a.slot());
        assert_ne!(c.generation(), a.generation());
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.get(c), Some(&30));
        let live: Vec<u32> = slab.iter().map(|(_, v)| *v).collect();
        assert_eq!(live, vec![30, 21]);
    }

    #[test]
    fn slab_len_tracks_inserts_and_removes() {
        let mut slab = GenSlab::with_capacity(4);
        assert_eq!(slab.iter().count(), 0);
        let keys: Vec<SlabKey> = (0..10).map(|i| slab.insert(i)).collect();
        assert_eq!(slab.iter().count(), 10);
        for k in &keys[..5] {
            slab.remove(*k);
        }
        assert_eq!(slab.iter().count(), 5);
    }

    #[test]
    fn pod_table_matches_btreemap_iteration_order() {
        let mut table = PodTable::new();
        let mut map = std::collections::BTreeMap::new();
        for id in 0..2_500u64 {
            let p = pod(id, PodPhase::Pending);
            table.insert(p);
            map.insert(p.id, p);
        }
        assert_eq!(table.len(), map.len());
        let table_ids: Vec<u64> = table.values().map(|p| p.id.0).collect();
        let map_ids: Vec<u64> = map.values().map(|p| p.id.0).collect();
        assert_eq!(table_ids, map_ids);
        assert_eq!(table[&PodId(1_234)], map[&PodId(1_234)]);
    }

    #[test]
    fn pod_table_updates_in_place() {
        let mut table = PodTable::new();
        table.insert(pod(0, PodPhase::Pending));
        table.set_phase(PodId(0), PodPhase::Running).unwrap().node_speed = 0.5;
        table.get_mut(PodId(0)).unwrap().running_at = Some(SimTime::from_secs(3));
        let p = table.get(PodId(0)).unwrap();
        assert_eq!((p.phase, p.node_speed), (PodPhase::Running, 0.5));
        assert_eq!(p.running_at, Some(SimTime::from_secs(3)));
        assert!(table.get(PodId(7)).is_none());
        assert!(table.set_phase(PodId(7), PodPhase::Failed).is_none());
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn pod_table_rejects_gaps() {
        let mut table = PodTable::new();
        table.insert(pod(3, PodPhase::Pending));
    }

    #[test]
    fn reap_drops_only_full_terminal_pages() {
        let mut table = PodTable::new();
        // Two full pages of terminal pods plus a partial live page.
        for id in 0..(2 * PAGE_SIZE as u64) {
            let straggler = id == PAGE_SIZE as u64;
            table.insert(pod(id, if straggler { PodPhase::Running } else { PodPhase::Succeeded }));
        }
        for id in (2 * PAGE_SIZE as u64)..(2 * PAGE_SIZE as u64 + 10) {
            table.insert(pod(id, PodPhase::Running));
        }
        // Second page has one straggler still running: not reapable.
        // (Built live: nothing may revive a terminal pod.)
        assert_eq!(table.reap_terminal(), PAGE_SIZE);
        assert!(table.get(PodId(0)).is_none(), "reaped pod is gone");
        assert!(table.get(PodId(PAGE_SIZE as u64)).is_some());
        assert_eq!(table.len(), PAGE_SIZE + 10);
        // Finish the straggler page and reap again.
        for id in PAGE_SIZE as u64..(2 * PAGE_SIZE as u64) {
            table.set_phase(PodId(id), PodPhase::Failed).unwrap();
        }
        assert_eq!(table.reap_terminal(), PAGE_SIZE);
        assert_eq!(table.len(), 10);
        // Iteration skips reaped pages but keeps id order.
        let ids: Vec<u64> = table.values().map(|p| p.id.0).collect();
        assert_eq!(ids, (2 * PAGE_SIZE as u64..2 * PAGE_SIZE as u64 + 10).collect::<Vec<_>>());
    }

    /// The scanning reap the live counts replace, over a flat model of the
    /// table (`None` = reaped): a full page goes when no pod on it is live.
    fn scan_reap(model: &mut [Option<Pod>]) -> usize {
        let mut reclaimed = 0;
        for page in model.chunks_exact_mut(PAGE_SIZE) {
            let pods: Option<Vec<Pod>> = page.iter().copied().collect();
            if pods.is_some_and(|pods| scan_live(&pods) == 0) {
                page.fill(None);
                reclaimed += PAGE_SIZE;
            }
        }
        reclaimed
    }

    const PHASES: [PodPhase; 6] = [
        PodPhase::Pending,
        PodPhase::Starting,
        PodPhase::Running,
        PodPhase::Succeeded,
        PodPhase::Failed,
        PodPhase::Preempted,
    ];

    #[derive(Debug, Clone)]
    enum Op {
        /// Insert `n` pods in phase `PHASES[phase]`.
        Insert {
            n: usize,
            phase: usize,
        },
        /// Move up to `n` pods starting at `from` (mod inserted) to a phase.
        SetPhase {
            from: usize,
            n: usize,
            phase: usize,
        },
        Reap,
        /// Continue on a clone (the legacy `Cluster` clones a trial table).
        Clone,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1usize..700, 0usize..6).prop_map(|(n, phase)| Op::Insert { n, phase }),
            (0usize..4_000, 1usize..1_500, 0usize..6).prop_map(|(from, n, phase)| Op::SetPhase {
                from,
                n,
                phase
            }),
            // Mostly terminal writes, so whole pages do drain.
            (0usize..4_000, 1usize..1_500, 3usize..6).prop_map(|(from, n, phase)| Op::SetPhase {
                from,
                n,
                phase
            }),
            Just(Op::Reap),
            Just(Op::Clone),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Counted reaping is the scanning reap: same pages at the same
        /// call, same `len`, same `get` afterwards, through clones.
        #[test]
        fn counted_reap_matches_scanning_reap(
            ops in proptest::collection::vec(op_strategy(), 1..60),
        ) {
            let mut table = PodTable::new();
            let mut model: Vec<Option<Pod>> = Vec::new();
            for op in ops {
                match op {
                    Op::Insert { n, phase } => {
                        for _ in 0..n {
                            let p = pod(model.len() as u64, PHASES[phase]);
                            table.insert(p);
                            model.push(Some(p));
                        }
                    }
                    Op::SetPhase { from, n, phase } => {
                        let (phase, len) = (PHASES[phase], model.len().max(1));
                        for i in (from..from + n).map(|i| i % len) {
                            let id = PodId(i as u64);
                            match model.get_mut(i).and_then(Option::as_mut) {
                                // Nothing revives a terminal pod.
                                Some(p) if p.phase.is_terminal() && !phase.is_terminal() => {}
                                Some(p) => {
                                    p.phase = phase;
                                    prop_assert!(table.set_phase(id, phase).is_some());
                                }
                                None => prop_assert!(table.set_phase(id, phase).is_none()),
                            }
                        }
                    }
                    Op::Reap => prop_assert_eq!(table.reap_terminal(), scan_reap(&mut model)),
                    Op::Clone => table = table.clone(),
                }
                prop_assert_eq!(table.len(), model.iter().flatten().count());
                prop_assert_eq!(table.total_inserted(), model.len() as u64);
            }
            prop_assert_eq!(table.reap_terminal(), scan_reap(&mut model));
            for (i, want) in model.iter().enumerate() {
                prop_assert_eq!(table.get(PodId(i as u64)), want.as_ref());
            }
            let stored: Vec<Pod> = table.values().copied().collect();
            prop_assert_eq!(stored, model.iter().flatten().copied().collect::<Vec<_>>());
        }
    }
}
