//! PS parameter rebalancing — the DeepRec-style fix for hot PSes (§4.3).
//!
//! "The size of tensor-based parameters assigned to PSes can differ
//! substantially, resulting in unbalanced workloads … we adopt DeepRec to
//! ensure that the embedding parameters are evenly distributed across the
//! new set of PS nodes." A DLRM's parameters are *blocks* (one per
//! embedding table plus the dense slabs) of wildly different sizes; naïve
//! round-robin assignment can land several huge tables on one PS.
//!
//! Two pieces:
//!
//! * [`balance_blocks`] — LPT (longest-processing-time) greedy assignment of
//!   blocks to `p` servers. LPT is the classic 4/3-approximation for
//!   makespan, which here bounds the hottest PS's share.
//! * [`RebalancePlan`] — diff between an old and a new assignment: which
//!   blocks move, how many bytes travel (the seamless-migration payload),
//!   and the resulting [`PsPartition`] shares for the cost model.

use serde::{Deserialize, Serialize};

use crate::cost::{PodState, PsPartition};

/// A parameter block: one embedding table or dense slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamBlock {
    /// Stable identifier (table index).
    pub id: u32,
    /// Size in bytes.
    pub bytes: u64,
}

/// Assignment of blocks to PSes: `assignment[ps]` lists block indices.
pub(crate) type Assignment = Vec<Vec<u32>>;

/// LPT greedy: sort blocks by size descending, always give the next block
/// to the least-loaded server. Returns the assignment.
///
/// # Panics
/// Panics if `servers == 0`.
pub fn balance_blocks(blocks: &[ParamBlock], servers: usize) -> Assignment {
    assert!(servers > 0, "need at least one PS");
    let mut order: Vec<&ParamBlock> = blocks.iter().collect();
    order.sort_by_key(|b| (std::cmp::Reverse(b.bytes), b.id));
    let mut loads = vec![0u64; servers];
    let mut assignment: Assignment = vec![Vec::new(); servers];
    for block in order {
        let target = loads
            .iter()
            .enumerate()
            .min_by_key(|(i, &l)| (l, *i))
            .map(|(i, _)| i)
            .expect("servers > 0");
        loads[target] += block.bytes;
        assignment[target].push(block.id);
    }
    assignment
}

/// Per-server byte loads of an assignment.
pub(crate) fn loads(blocks: &[ParamBlock], assignment: &Assignment) -> Vec<u64> {
    let size_of = |id: u32| blocks.iter().find(|b| b.id == id).map(|b| b.bytes).unwrap_or(0);
    assignment.iter().map(|ids| ids.iter().map(|&id| size_of(id)).sum()).collect()
}

/// Imbalance factor: hottest load over the perfectly even load
/// (1.0 = perfectly balanced).
pub fn imbalance(blocks: &[ParamBlock], assignment: &Assignment) -> f64 {
    let l = loads(blocks, assignment);
    let total: u64 = l.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let even = total as f64 / l.len() as f64;
    l.iter().copied().max().unwrap_or(0) as f64 / even
}

/// A rebalancing plan: the new assignment plus its migration cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RebalancePlan {
    /// New assignment of blocks to servers.
    pub assignment: Assignment,
    /// Blocks that change servers: `(block_id, from, to)`.
    pub moves: Vec<(u32, usize, usize)>,
    /// Total bytes that must travel between PSes.
    pub moved_bytes: u64,
    /// Imbalance factor before.
    pub imbalance_before: f64,
    /// Imbalance factor after.
    pub imbalance_after: f64,
}

/// Builds a rebalancing plan from `old` onto `servers` PSes (the new count
/// may differ — PS scale-out/in re-shards the tables).
///
/// Block→server matching for move accounting keeps a block in place when
/// its old server still exists and LPT would tolerate it; otherwise the
/// block travels. (We run plain LPT for the target and then count moves —
/// minimising moves subject to balance is NP-hard; LPT plus stable
/// tie-breaking keeps movement modest in practice.)
pub fn plan_rebalance(blocks: &[ParamBlock], old: &Assignment, servers: usize) -> RebalancePlan {
    let new = balance_blocks(blocks, servers);
    let locate = |assignment: &Assignment, id: u32| -> Option<usize> {
        assignment.iter().position(|ids| ids.contains(&id))
    };
    let mut moves = Vec::new();
    let mut moved_bytes = 0;
    for block in blocks {
        let from = locate(old, block.id);
        let to = locate(&new, block.id).expect("every block assigned");
        match from {
            Some(f) if f == to => {}
            Some(f) => {
                moves.push((block.id, f, to));
                moved_bytes += block.bytes;
            }
            None => {
                // Newly created block (e.g. restored from checkpoint):
                // counts as a move from nowhere; bytes still travel.
                moves.push((block.id, usize::MAX, to));
                moved_bytes += block.bytes;
            }
        }
    }
    RebalancePlan {
        imbalance_before: if old.is_empty() { f64::INFINITY } else { imbalance(blocks, old) },
        imbalance_after: imbalance(blocks, &new),
        assignment: new,
        moves,
        moved_bytes,
    }
}

/// Converts an assignment into [`PsPartition`]s for the cost model, using
/// byte shares as workload shares and the given per-PS pods.
///
/// # Panics
/// Panics if `pods.len() != assignment.len()`.
pub fn partitions_from_assignment(
    blocks: &[ParamBlock],
    assignment: &Assignment,
    pods: &[PodState],
) -> Vec<PsPartition> {
    assert_eq!(pods.len(), assignment.len(), "one pod per server");
    let l = loads(blocks, assignment);
    let total: u64 = l.iter().sum();
    l.iter()
        .zip(pods)
        .map(|(&bytes, &pod)| PsPartition {
            share: if total == 0 { 1.0 / l.len() as f64 } else { bytes as f64 / total as f64 },
            pod,
        })
        .collect()
}

/// Synthesises a DLRM-shaped block list: `tables` embedding tables with
/// Zipf-skewed sizes plus one dense slab. This mirrors real CTR models,
/// where a handful of high-cardinality tables dominate the bytes.
pub fn dlrm_blocks(tables: u32, total_embedding_bytes: u64, dense_bytes: u64) -> Vec<ParamBlock> {
    let mut blocks = Vec::with_capacity(tables as usize + 1);
    // Zipf-ish sizes: table k gets weight 1/(k+1).
    let weight_sum: f64 = (0..tables).map(|k| 1.0 / f64::from(k + 1)).sum();
    for k in 0..tables {
        let w = (1.0 / f64::from(k + 1)) / weight_sum;
        blocks.push(ParamBlock { id: k, bytes: (total_embedding_bytes as f64 * w) as u64 });
    }
    blocks.push(ParamBlock { id: tables, bytes: dense_bytes });
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(sizes: &[u64]) -> Vec<ParamBlock> {
        sizes.iter().enumerate().map(|(i, &bytes)| ParamBlock { id: i as u32, bytes }).collect()
    }

    #[test]
    fn lpt_balances_uniform_blocks_perfectly() {
        let b = blocks(&[10; 12]);
        let a = balance_blocks(&b, 4);
        let l = loads(&b, &a);
        assert!(l.iter().all(|&x| x == 30), "{l:?}");
        assert!((imbalance(&b, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lpt_respects_makespan_bound() {
        // Any list scheduling satisfies
        // makespan <= total/m + (1 - 1/m) * max_block (Graham 1966);
        // LPT is a list schedule, so this is a hard guarantee.
        let b = blocks(&[70, 60, 50, 40, 30, 20, 10, 10, 5, 5]);
        for p in 1..=5usize {
            let a = balance_blocks(&b, p);
            let l = loads(&b, &a);
            let total: u64 = l.iter().sum();
            let max = *l.iter().max().unwrap();
            let bound = total as f64 / p as f64 + (1.0 - 1.0 / p as f64) * 70.0;
            assert!(max as f64 <= bound + 1e-9, "p={p}: makespan {max} vs Graham bound {bound}");
        }
    }

    #[test]
    fn every_block_assigned_exactly_once() {
        let b = blocks(&[9, 8, 7, 3, 2, 1, 1]);
        let a = balance_blocks(&b, 3);
        let mut seen: Vec<u32> = a.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_blocks_balance_much_better_than_round_robin() {
        let b = dlrm_blocks(26, 100_000_000, 5_000_000);
        // Round robin by id (what naive TF placement does).
        let p = 4;
        let mut rr: Assignment = vec![Vec::new(); p];
        for block in &b {
            rr[(block.id as usize) % p].push(block.id);
        }
        let lpt = balance_blocks(&b, p);
        assert!(
            imbalance(&b, &lpt) < imbalance(&b, &rr),
            "LPT {} !< RR {}",
            imbalance(&b, &lpt),
            imbalance(&b, &rr)
        );
        assert!(imbalance(&b, &lpt) < 1.1, "LPT imbalance {}", imbalance(&b, &lpt));
    }

    #[test]
    fn rebalance_plan_reports_improvement_and_moves() {
        let b = dlrm_blocks(12, 10_000_000, 500_000);
        // Pathological old assignment: everything on PS 0 of 4.
        let mut old: Assignment = vec![Vec::new(); 4];
        old[0] = b.iter().map(|x| x.id).collect();
        let plan = plan_rebalance(&b, &old, 4);
        assert!(plan.imbalance_before > 3.0);
        // No assignment can beat the largest block's share; LPT must be
        // within 4/3 of that lower bound.
        let total: u64 = b.iter().map(|x| x.bytes).sum();
        let even = total as f64 / 4.0;
        let lower = (b.iter().map(|x| x.bytes).max().unwrap() as f64 / even).max(1.0);
        assert!(
            plan.imbalance_after <= lower * 4.0 / 3.0 + 1e-9,
            "imbalance {} vs bound {}",
            plan.imbalance_after,
            lower * 4.0 / 3.0
        );
        assert!(plan.imbalance_after < plan.imbalance_before);
        assert!(!plan.moves.is_empty());
        // Moved bytes is the size of everything that left PS 0.
        let kept: u64 =
            plan.assignment[0].iter().map(|&id| b.iter().find(|x| x.id == id).unwrap().bytes).sum();
        let total: u64 = b.iter().map(|x| x.bytes).sum();
        assert_eq!(plan.moved_bytes, total - kept);
    }

    #[test]
    fn rebalance_to_more_servers() {
        let b = dlrm_blocks(20, 40_000_000, 1_000_000);
        let old = balance_blocks(&b, 2);
        let plan = plan_rebalance(&b, &old, 5);
        assert_eq!(plan.assignment.len(), 5);
        let total: u64 = b.iter().map(|x| x.bytes).sum();
        let even = total as f64 / 5.0;
        let lower = (b.iter().map(|x| x.bytes).max().unwrap() as f64 / even).max(1.0);
        assert!(
            plan.imbalance_after <= lower * 4.0 / 3.0 + 1e-9,
            "imbalance {} vs bound {}",
            plan.imbalance_after,
            lower * 4.0 / 3.0
        );
        // Scale-out must move something.
        assert!(plan.moved_bytes > 0);
    }

    #[test]
    fn stable_assignment_moves_nothing() {
        let b = blocks(&[5, 5, 5, 5]);
        let old = balance_blocks(&b, 2);
        let plan = plan_rebalance(&b, &old, 2);
        assert!(plan.moves.is_empty(), "{:?}", plan.moves);
        assert_eq!(plan.moved_bytes, 0);
    }

    #[test]
    fn partitions_reflect_byte_shares() {
        let b = blocks(&[30, 10]);
        let a: Assignment = vec![vec![0], vec![1]];
        let pods = vec![PodState::new(8.0); 2];
        let parts = partitions_from_assignment(&b, &a, &pods);
        assert!((parts[0].share - 0.75).abs() < 1e-12);
        assert!((parts[1].share - 0.25).abs() < 1e-12);
        let total: f64 = parts.iter().map(|p| p.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_blocks_yield_even_partitions() {
        let pods = vec![PodState::new(4.0); 3];
        let parts = partitions_from_assignment(&[], &vec![vec![], vec![], vec![]], &pods);
        for p in parts {
            assert!((p.share - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn dlrm_blocks_are_skewed() {
        let b = dlrm_blocks(26, 100_000_000, 5_000_000);
        assert_eq!(b.len(), 27);
        assert!(b[0].bytes > 5 * b[10].bytes, "head table should dominate");
        let total: u64 = b.iter().take(26).map(|x| x.bytes).sum();
        assert!((total as i64 - 100_000_000i64).abs() < 100, "sizes sum to the budget");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every block is assigned exactly once, for arbitrary sizes and
        /// server counts.
        #[test]
        fn assignment_is_a_partition(
            sizes in proptest::collection::vec(0u64..1_000_000, 1..40),
            servers in 1usize..8,
        ) {
            let blocks: Vec<ParamBlock> = sizes
                .iter()
                .enumerate()
                .map(|(i, &bytes)| ParamBlock { id: i as u32, bytes })
                .collect();
            let a = balance_blocks(&blocks, servers);
            prop_assert_eq!(a.len(), servers);
            let mut seen: Vec<u32> = a.iter().flatten().copied().collect();
            seen.sort_unstable();
            let expect: Vec<u32> = (0..blocks.len() as u32).collect();
            prop_assert_eq!(seen, expect);
        }

        /// Graham's list-scheduling guarantee holds:
        /// makespan <= total/m + (1 - 1/m) * max_block.
        #[test]
        fn lpt_bound_holds(
            sizes in proptest::collection::vec(1u64..1_000_000, 1..40),
            servers in 1usize..8,
        ) {
            let blocks: Vec<ParamBlock> = sizes
                .iter()
                .enumerate()
                .map(|(i, &bytes)| ParamBlock { id: i as u32, bytes })
                .collect();
            let a = balance_blocks(&blocks, servers);
            let l = loads(&blocks, &a);
            let total: u64 = l.iter().sum();
            let max_block = *sizes.iter().max().unwrap();
            let bound = total as f64 / servers as f64
                + (1.0 - 1.0 / servers as f64) * max_block as f64;
            prop_assert!(
                *l.iter().max().unwrap() as f64 <= bound + 1.0,
                "makespan {} vs Graham bound {bound}",
                l.iter().max().unwrap()
            );
        }
    }
}
