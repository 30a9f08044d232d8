//! Property tests for `RngStreams::fork` — the unit-lineage API of the
//! parallel experiment engine (DESIGN §8).
//!
//! The contract under test: a forked factory's draws are a pure function of
//! `(root seed, fork key)`. Sibling forks may draw any amount, in any order,
//! on any thread, without perturbing each other — which is what makes
//! unit-sharded experiments bit-identical to their serial runs.

use dlrover_sim::RngStreams;
use proptest::prelude::*;
use rand::RngCore;

fn draws(streams: &RngStreams, key: &str, n: usize) -> Vec<u64> {
    let mut rng = streams.fork(key).stream("payload");
    (0..n).map(|_| rng.next_u64()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Forked lineages are independent of sibling draw order: draining any
    /// number of draws from any sibling fork leaves a unit's own sequence
    /// untouched.
    #[test]
    fn fork_is_independent_of_sibling_draw_order(
        seed in 0u64..1_000_000,
        sibling_draws in 0usize..512,
        sibling in 0usize..8,
        unit in 0usize..8,
    ) {
        let root = RngStreams::new(seed);
        let unit_key = format!("unit-{unit}");
        let baseline = draws(&root, &unit_key, 16);

        // A sibling fork (possibly the same key — drawing from a fresh fork
        // never mutates the factory) drains an arbitrary number of values.
        let mut noisy = root.fork(&format!("unit-{sibling}")).stream("payload");
        for _ in 0..sibling_draws {
            noisy.next_u64();
        }

        prop_assert_eq!(draws(&root, &unit_key, 16), baseline);
    }

    /// Fork keys partition the seed space: distinct keys give independent
    /// sequences, identical keys reproduce bit-identically.
    #[test]
    fn fork_keys_are_deterministic_and_distinct(
        seed in 0u64..1_000_000,
        a in 0usize..32,
        b in 0usize..32,
    ) {
        let root = RngStreams::new(seed);
        let key_a = format!("unit-{a:02}");
        let key_b = format!("unit-{b:02}");
        let da = draws(&root, &key_a, 16);
        prop_assert_eq!(&draws(&root, &key_a, 16), &da);
        if a != b {
            prop_assert!(draws(&root, &key_b, 16) != da);
        }
    }

    /// Fork composes with the rest of the lineage API without collisions:
    /// `fork(k)` never aliases `child(k, i)` for small indices.
    #[test]
    fn fork_does_not_alias_child_lineage(
        seed in 0u64..1_000_000,
        idx in 0u64..16,
    ) {
        let root = RngStreams::new(seed);
        let forked = draws(&root, "k", 16);
        let mut child = root.child("k", idx).stream("payload");
        let child_draws: Vec<u64> = (0..16).map(|_| child.next_u64()).collect();
        prop_assert!(forked != child_draws);
    }
}
