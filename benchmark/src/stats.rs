//! Order statistics, the tail-percentile rule, the block-median throughput
//! estimate and the FNV digest the output checks use.

/// Sorted copy of `values`; NaN sorts last (none are produced, but a
/// comparator must be total).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` in `[0, 1]` of an already sorted slice, linear between
/// neighbours at position `q * (n + 1) - 1` (the "exclusive" method of
/// Python's `statistics.quantiles`, which the acceptance rule is stated in).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    match n {
        0 => return 0.0,
        1 => return sorted[0],
        _ => {}
    }
    let pos = (q * (n + 1) as f64 - 1.0).clamp(0.0, (n - 1) as f64);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// `(q1, median, q3)` of `values`, as `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (quantile_sorted(&s, 0.25), quantile_sorted(&s, 0.5), quantile_sorted(&s, 0.75))
}

/// Inter-quartile range as a share of the median (0 when the median is 0).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`], no higher than `want`, that
/// still has at least ten of the `n` samples beyond it; a tail read off fewer
/// samples is a report of single outliers.
pub fn resolvable_percentile(n: usize, want: f64) -> f64 {
    TAIL_LADDER
        .into_iter()
        .filter(|&p| p <= want)
        // (The epsilon keeps 10_000 x 0.1% from rounding to 9.99.)
        .find(|&p| (n as f64) * (100.0 - p) / 100.0 + 1e-6 >= 10.0)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile `p` (0-100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// One block of the timed section: `ops` operations took `seconds`. Blocks
/// of one `group` do the same kind of work and may be compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// Blocks are only compared within a group (a dlrm-train leg; 0 for the
    /// workloads whose blocks are all alike).
    pub group: u32,
    /// Operations completed in the block.
    pub ops: u64,
    /// Host seconds the block took.
    pub seconds: f64,
}

/// Host seconds the blocks would have taken had every block of a group run
/// at its group's median rate. One noisy-neighbour burst slows one block and
/// moves the total; it does not move a median.
pub fn robust_seconds(blocks: &[Block]) -> f64 {
    let mut groups: Vec<u32> = blocks.iter().map(|b| b.group).collect();
    groups.sort_unstable();
    groups.dedup();
    groups
        .into_iter()
        .map(|g| {
            let of_group: Vec<&Block> = blocks.iter().filter(|b| b.group == g).collect();
            let rates: Vec<f64> =
                of_group.iter().map(|b| b.ops as f64 / b.seconds.max(1e-12)).collect();
            let ops: u64 = of_group.iter().map(|b| b.ops).sum();
            ops as f64 / median(&rates).max(1e-12)
        })
        .sum()
}

/// The per-op simulated outcomes as a stream of 64-bit words, digested with
/// the repository's golden-trace hash (`dlrover_bench::golden::fnv64`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digest(Vec<u8>);

impl Digest {
    /// Appends one word.
    pub fn push(&mut self, word: u64) {
        self.0.extend(word.to_le_bytes());
    }

    /// Appends a float by its bit pattern, so "equal" means bit-equal.
    pub fn push_f64(&mut self, v: f64) {
        self.push(v.to_bits());
    }

    /// FNV-1a 64 of the words so far.
    pub fn value(&self) -> u64 {
        dlrover_bench::golden::fnv64(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(resolvable_percentile(999, 99.0), 95.0);
        assert_eq!(resolvable_percentile(1_000, 99.0), 99.0);
        assert_eq!(resolvable_percentile(10_000, 99.0), 99.0, "never above what was asked");
        assert_eq!(resolvable_percentile(10_000, 99.9), 99.9);
        assert_eq!(resolvable_percentile(199, 99.0), 90.0);
        assert_eq!(resolvable_percentile(99, 99.0), 50.0);
        assert_eq!(resolvable_percentile(3, 99.0), 50.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn one_slow_block_does_not_move_the_robust_total() {
        let steady: Vec<Block> =
            (0..9).map(|_| Block { group: 0, ops: 100, seconds: 1.0 }).collect();
        let mut noisy = steady.clone();
        noisy[4].seconds = 3.0;
        assert_eq!(robust_seconds(&steady), 9.0);
        assert_eq!(robust_seconds(&noisy), 9.0);
        // Groups are never compared with each other.
        let mixed = [
            Block { group: 0, ops: 100, seconds: 1.0 },
            Block { group: 1, ops: 100, seconds: 4.0 },
        ];
        assert_eq!(robust_seconds(&mixed), 5.0);
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let mut a = Digest::default();
        a.push(1);
        a.push(2);
        let mut b = Digest::default();
        b.push(2);
        b.push(1);
        assert_ne!(a.value(), b.value());
        let mut z = Digest::default();
        z.push_f64(0.0);
        let mut nz = Digest::default();
        nz.push_f64(-0.0);
        assert_ne!(z.value(), nz.value());
    }
}
