//! NSGA-II: elitist non-dominated sorting genetic algorithm (Deb et al. 2002).
//!
//! The paper generates job-level resource-plan candidates with NSGA-II
//! ("an evolutionary algorithm known for its rapid convergence to the Pareto
//! Frontier in low-dimensional multi-objective problems", §4.3). This module
//! implements the full algorithm from scratch over real-valued genomes with
//! box bounds:
//!
//! * non-dominated sorting into fronts — an O(N log N) sweep for the
//!   two-objective case the paper uses (Eqns. 7–9), pairwise dominance over
//!   a bit-matrix otherwise,
//! * crowding-distance diversity preservation,
//! * binary tournament selection on (rank, crowding),
//! * simulated binary crossover (SBX) and polynomial mutation.
//!
//! The population is two flat arrays (`rows × dim` genomes, `rows × M`
//! objectives); offspring are written into the rows environmental selection
//! freed, and every working array of the sort lives in one `Ranking` that a
//! run reuses, so a steady-state generation does not touch the heap.
//!
//! All objectives are *minimized*; encode maximization as negation or
//! reciprocal (the paper minimizes `(RC, 1/TG)`).
//!
//! # The order contract
//!
//! Ranks are canonical, crowding distances are not: they come from stable
//! sorts — one per objective, each starting from the previous one's result —
//! that start from the order in which the textbook peel loop *discovers* a
//! front's members: front 0 in ascending population index, front k ≥ 1 by
//! `(position in front k−1 of the member's last dominator there, index)`.
//! Individuals that tie on an objective are common (twins with equal
//! objectives but different genomes: SBX nudging a gene inside one rounding
//! cell, a CPU count clamped at its bound), the order decides which of them
//! gets a boundary's infinite distance and so survives truncation, and every
//! golden digest downstream depends on the survivor. The pairwise builder
//! replays the peel loop, so it yields that order itself. The sweep needs
//! less: with two objectives, members of one front tie only when they are
//! twins, and twins share their dominators, so the peel loop always
//! discovers them in ascending index — any listing that keeps twins in that
//! order sorts to the same result. `nsga2_reference` keeps the textbook
//! sort for the differential tests that pin this.

use dlrover_telemetry::prof;
use rand::Rng;
use std::cmp::Ordering;

/// Configuration for an NSGA-II run.
#[derive(Debug, Clone, Copy)]
pub struct Nsga2Config {
    /// Population size (kept constant across generations).
    pub population: usize,
    /// Number of generations to evolve.
    pub generations: usize,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Nsga2Config { population: 64, generations: 50 }
    }
}

/// Probability of applying crossover to a mating pair.
pub(crate) const CROSSOVER_PROB: f64 = 0.9;
/// SBX distribution index (larger → offspring closer to parents).
pub(crate) const ETA_CROSSOVER: f64 = 15.0;
/// Polynomial-mutation distribution index. The per-gene mutation
/// probability is `1/dim`.
pub(crate) const ETA_MUTATION: f64 = 20.0;

/// A point on the final Pareto front: genome plus its objective values.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Decision variables.
    pub genome: Vec<f64>,
    /// Objective values (minimized).
    pub objectives: Vec<f64>,
}

/// The NSGA-II optimizer for a problem `f: genome -> objectives` with box
/// bounds on each gene. `f` may return anything that borrows as `[f64]`: a
/// `Vec<f64>`, or a fixed `[f64; M]` when the caller wants evaluation to stay
/// off the heap.
pub struct Nsga2<F> {
    evaluate: F,
    lower: Vec<f64>,
    upper: Vec<f64>,
    config: Nsga2Config,
}

impl<F, O> Nsga2<F>
where
    F: Fn(&[f64]) -> O,
    O: AsRef<[f64]>,
{
    /// Creates an optimizer.
    ///
    /// # Panics
    /// Panics if the bounds are empty, of different lengths, or inverted.
    pub fn new(evaluate: F, lower: Vec<f64>, upper: Vec<f64>, config: Nsga2Config) -> Self {
        assert!(!lower.is_empty(), "at least one decision variable required");
        assert_eq!(lower.len(), upper.len(), "bound length mismatch");
        assert!(lower.iter().zip(&upper).all(|(l, u)| l <= u), "lower bound exceeds upper bound");
        assert!(config.population >= 4, "population must be at least 4");
        Nsga2 { evaluate, lower, upper, config }
    }

    /// Runs the algorithm and returns the first (best) non-dominated front.
    ///
    /// # Panics
    /// Panics if `evaluate` returns a NaN objective, no objective, or a
    /// different number of objectives for different genomes.
    pub fn run<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<ParetoPoint> {
        let _p = prof::scope("nsga2/run");
        let dim = self.lower.len();
        let mutation_prob = 1.0 / dim as f64;
        let n = self.config.population;
        let row = |r: usize| r * dim..(r + 1) * dim;

        // Rows 0..2n hold parents and offspring; row 2n takes the second
        // child an odd population draws but has no room for.
        let spare = 2 * n;
        let mut genomes = vec![0.0; (spare + 1) * dim];
        let mut objectives = Vec::new();
        let mut m = 0;
        for i in 0..n {
            for d in 0..dim {
                genomes[i * dim + d] = rng.gen_range(self.lower[d]..=self.upper[d]);
            }
            let values = self.objectives_of(&genomes[row(i)]);
            if i == 0 {
                m = values.as_ref().len();
                assert!(m > 0, "at least one objective required");
                objectives.resize(spare * m, 0.0);
            }
            objectives[i * m..(i + 1) * m].copy_from_slice(values.as_ref());
        }

        // `rows[i]` is the storage row of the individual at population
        // position `i`: parents first, then the rows offspring are written to.
        let mut rows: Vec<usize> = (0..spare).collect();
        let mut ranking = Ranking::default();
        ranking.assign(&objectives, m, &rows[..n], n);

        for _ in 0..self.config.generations {
            let _g = prof::scope("nsga2/generation");
            prof::add_items(n as u64);
            // Variation: fill the n free rows with offspring.
            for j in (0..n).step_by(2) {
                let p1 = rows[ranking.tournament(n, rng)];
                let p2 = rows[ranking.tournament(n, rng)];
                let c1 = rows[n + j];
                let c2 = if j + 1 < n { rows[n + j + 1] } else { spare };
                genomes.copy_within(row(p1), c1 * dim);
                genomes.copy_within(row(p2), c2 * dim);
                if rng.gen::<f64>() < CROSSOVER_PROB {
                    self.sbx_crossover(&mut genomes, c1 * dim, c2 * dim, rng);
                }
                for child in [c1, c2] {
                    self.polynomial_mutation(&mut genomes[row(child)], mutation_prob, rng);
                    if child != spare {
                        let values = self.objectives_of(&genomes[row(child)]);
                        objectives[child * m..(child + 1) * m].copy_from_slice(values.as_ref());
                    }
                }
            }

            // Environmental selection over parents ∪ offspring.
            ranking.assign(&objectives, m, &rows, n);
            ranking.select(&mut rows, n);
        }

        ranking.assign(&objectives, m, &rows[..n], 0);
        (0..n)
            .filter(|&i| ranking.rank[i] == 0)
            .map(|i| ParetoPoint {
                genome: genomes[row(rows[i])].to_vec(),
                objectives: objectives[rows[i] * m..(rows[i] + 1) * m].to_vec(),
            })
            .collect()
    }

    fn objectives_of(&self, genome: &[f64]) -> O {
        let values = (self.evaluate)(genome);
        assert!(
            values.as_ref().iter().all(|v| !v.is_nan()),
            "objective produced NaN for {genome:?}"
        );
        values
    }

    /// Simulated binary crossover (SBX) with box-bound clipping, in place on
    /// two children that start as copies of their parents (`c1`/`c2` are the
    /// offsets of their genomes).
    fn sbx_crossover<R: Rng + ?Sized>(
        &self,
        genomes: &mut [f64],
        c1: usize,
        c2: usize,
        rng: &mut R,
    ) {
        let eta = ETA_CROSSOVER;
        for d in 0..self.lower.len() {
            let (p1, p2) = (genomes[c1 + d], genomes[c2 + d]);
            if rng.gen::<f64>() > 0.5 || (p1 - p2).abs() < 1e-14 {
                continue;
            }
            let u: f64 = rng.gen();
            let beta = if u <= 0.5 {
                (2.0 * u).powf(1.0 / (eta + 1.0))
            } else {
                (1.0 / (2.0 * (1.0 - u))).powf(1.0 / (eta + 1.0))
            };
            let mean = 0.5 * (p1 + p2);
            let diff = 0.5 * beta * (p2 - p1).abs();
            genomes[c1 + d] = (mean - diff).clamp(self.lower[d], self.upper[d]);
            genomes[c2 + d] = (mean + diff).clamp(self.lower[d], self.upper[d]);
        }
    }

    /// Polynomial mutation with box-bound clipping.
    fn polynomial_mutation<R: Rng + ?Sized>(&self, genome: &mut [f64], prob: f64, rng: &mut R) {
        let eta = ETA_MUTATION;
        for (d, gene) in genome.iter_mut().enumerate() {
            if rng.gen::<f64>() >= prob {
                continue;
            }
            let span = self.upper[d] - self.lower[d];
            if span <= 0.0 {
                continue;
            }
            let u: f64 = rng.gen();
            let delta = if u < 0.5 {
                (2.0 * u).powf(1.0 / (eta + 1.0)) - 1.0
            } else {
                1.0 - (2.0 * (1.0 - u)).powf(1.0 / (eta + 1.0))
            };
            *gene = (*gene + delta * span).clamp(self.lower[d], self.upper[d]);
        }
    }
}

/// True if `a` Pareto-dominates `b` (no worse in all objectives, strictly
/// better in at least one; all objectives minimized).
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly_better = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Hypervolume indicator for a *two-objective* front (both minimized):
/// the area dominated by the front within the box bounded by `reference`
/// (a point worse than every front member). Standard quality measure for
/// Pareto approximations — larger is better.
///
/// Points at or beyond the reference contribute nothing.
///
/// # Panics
/// Panics if any objective vector does not have exactly 2 entries.
pub fn hypervolume_2d(front: &[ParetoPoint], reference: [f64; 2]) -> f64 {
    let mut pts: Vec<[f64; 2]> = front
        .iter()
        .map(|p| {
            assert_eq!(p.objectives.len(), 2, "hypervolume_2d needs 2 objectives");
            [p.objectives[0], p.objectives[1]]
        })
        .filter(|p| p[0] < reference[0] && p[1] < reference[1])
        .collect();
    // Sort by first objective ascending; keep only the non-dominated
    // staircase (strictly decreasing second objective).
    pts.sort_by(|a, b| objective_order(a[0], b[0]));
    let mut area = 0.0;
    let mut best_f2 = reference[1];
    for p in pts {
        if p[1] < best_f2 {
            area += (reference[0] - p[0]) * (best_f2 - p[1]);
            best_f2 = p[1];
        }
    }
    area
}

fn objective_order(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).expect("NaN objective")
}

/// Ranks and crowding distances of one population (Deb et al., §III), with
/// every working array of the sort that produces them. One instance serves
/// all sorts of a run.
#[derive(Default)]
struct Ranking {
    /// Front number per population position (0 = non-dominated).
    rank: Vec<usize>,
    /// Crowding distance per population position.
    crowding: Vec<f64>,
    /// Objectives gathered in population order, `n × m`.
    f: Vec<f64>,
    /// Every front's members, front after front, each front in an order the
    /// crowding sorts may start from (see the module docs).
    fronts: Vec<usize>,
    /// Where each front starts in `fronts`; one trailing entry holds `n`.
    starts: Vec<usize>,
    /// A member's position within its front, in the order the next stable
    /// sort starts from.
    pos: Vec<usize>,
    /// The front whose crowding sorts are running.
    order: Vec<usize>,
    /// Sweep: `(f0, f1, position)` in ascending order (keys packed beside
    /// their position sort faster than positions that point at their keys).
    sweep: Vec<(f64, f64, usize)>,
    /// Sweep: where in `sweep` the last member of each front sits; then
    /// bucket cursors.
    tails: Vec<usize>,
    /// Pairwise: bit `j` of row `i` is set when `i` dominates `j`.
    dominated: Vec<u64>,
    /// Pairwise: dominators not yet peeled, per position.
    count: Vec<usize>,
    /// Selection: the permuted `rows`.
    permuted: Vec<usize>,
}

impl Ranking {
    /// Non-dominated sort + crowding distance of the individuals stored at
    /// `rows` (row `r` owns `objectives[r*m..(r+1)*m]`); results are indexed
    /// by position in `rows`. Only fronts that reach into the best `keep`
    /// get distances — selection and tournaments never read the others'.
    fn assign(&mut self, objectives: &[f64], m: usize, rows: &[usize], keep: usize) {
        let _p = prof::scope("nsga2/sort");
        let n = rows.len();
        self.f.clear();
        for &r in rows {
            self.f.extend_from_slice(&objectives[r * m..(r + 1) * m]);
        }
        self.rank.clear();
        self.rank.resize(n, 0);
        self.crowding.clear();
        self.crowding.resize(n, 0.0);
        self.pos.resize(n, 0);
        if m == 2 {
            self.fronts_by_sweep(n);
        } else {
            self.fronts_pairwise(n, m);
        }
        for k in 1..self.starts.len() {
            if self.starts[k - 1] < keep {
                self.crowd_front(self.starts[k - 1], self.starts[k], m);
            }
        }
    }

    /// Two objectives: visit the population in `(f0, f1, index)` order; a
    /// point belongs to the first front whose latest member does not
    /// dominate it (that member has the front's smallest `f1`, and fronts
    /// are ordered, so a binary search finds it). Members of one front tie
    /// on an objective only when they are twins, so listing each front in
    /// sweep order — twins by ascending index, as the peel loop discovers
    /// them — is enough to reproduce the textbook crowding sorts.
    fn fronts_by_sweep(&mut self, n: usize) {
        let Ranking { rank, f, fronts, starts, sweep, tails, .. } = self;
        sweep.clear();
        sweep.extend((0..n).map(|p| (f[2 * p], f[2 * p + 1], p)));
        sweep.sort_unstable_by(|a, b| {
            objective_order(a.0, b.0).then_with(|| objective_order(a.1, b.1)).then(a.2.cmp(&b.2))
        });
        tails.clear();
        for (i, &(f0, f1, p)) in sweep.iter().enumerate() {
            let k = tails.partition_point(|&t| dominates(&[sweep[t].0, sweep[t].1], &[f0, f1]));
            if k == tails.len() {
                tails.push(i);
            } else {
                tails[k] = i;
            }
            rank[p] = k;
        }

        // Bucket the sweep order by front; a counting sort keeps it.
        let n_fronts = tails.len();
        starts.clear();
        starts.resize(n_fronts + 1, 0);
        for &(_, _, p) in sweep.iter() {
            starts[rank[p] + 1] += 1;
        }
        for k in 0..n_fronts {
            starts[k + 1] += starts[k];
        }
        tails.copy_from_slice(&starts[..n_fronts]);
        fronts.clear();
        fronts.resize(n, 0);
        for &(_, _, p) in sweep.iter() {
            fronts[tails[rank[p]]] = p;
            tails[rank[p]] += 1;
        }
    }

    /// Any number of objectives: the textbook sort (pairwise dominance, then
    /// peel front after front) over a flat bit-matrix.
    fn fronts_pairwise(&mut self, n: usize, m: usize) {
        let Ranking { rank, f, fronts, starts, dominated, count, .. } = self;
        let words = n.div_ceil(64);
        dominated.clear();
        dominated.resize(n * words, 0);
        count.clear();
        count.resize(n, 0);
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (&f[i * m..(i + 1) * m], &f[j * m..(j + 1) * m]);
                if dominates(a, b) {
                    dominated[i * words + j / 64] |= 1 << (j % 64);
                    count[j] += 1;
                } else if dominates(b, a) {
                    dominated[j * words + i / 64] |= 1 << (i % 64);
                    count[i] += 1;
                }
            }
        }

        fronts.clear();
        fronts.extend((0..n).filter(|&i| count[i] == 0));
        starts.clear();
        starts.push(0);
        while starts[starts.len() - 1] < fronts.len() {
            let begin = starts[starts.len() - 1];
            let end = fronts.len();
            for at in begin..end {
                let i = fronts[at];
                rank[i] = starts.len() - 1;
                for w in 0..words {
                    let mut bits = dominated[i * words + w];
                    while bits != 0 {
                        let j = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        count[j] -= 1;
                        if count[j] == 0 {
                            fronts.push(j);
                        }
                    }
                }
            }
            starts.push(end);
        }
    }

    /// Crowding distance of the front at `fronts[start..end]`. Each
    /// objective's order is the stable sort of the previous one's (ties
    /// broken by `pos`), starting from the order the front is listed in.
    fn crowd_front(&mut self, start: usize, end: usize, m: usize) {
        let Ranking { crowding, f, fronts, pos, order, .. } = self;
        let front = &fronts[start..end];
        if front.len() <= 2 {
            for &p in front {
                crowding[p] = f64::INFINITY;
            }
            return;
        }
        order.clear();
        order.extend_from_slice(front);
        for k in 0..m {
            let value = |p: usize| f[p * m + k];
            if m != 2 {
                for (i, &p) in order.iter().enumerate() {
                    pos[p] = i;
                }
                order.sort_unstable_by(|&a, &b| {
                    objective_order(value(a), value(b)).then(pos[a].cmp(&pos[b]))
                });
            } else if k == 1 {
                // The sweep listed the front by ascending `f0`, which is
                // descending `f1` with only twins tying: the stable sort by
                // `f1` is the reverse with each run of twins put back.
                order.reverse();
                order.chunk_by_mut(|&a, &b| value(a) == value(b)).for_each(<[usize]>::reverse);
            }
            let (first, last) = (order[0], order[order.len() - 1]);
            crowding[first] = f64::INFINITY;
            crowding[last] = f64::INFINITY;
            let span = value(last) - value(first);
            if span <= 0.0 {
                continue;
            }
            for w in order.windows(3) {
                if crowding[w[1]].is_finite() {
                    crowding[w[1]] += (value(w[2]) - value(w[0])) / span;
                }
            }
        }
    }

    /// Environmental selection: reorders `rows` so the best `keep` come
    /// first, in the order the stable sort of the population by (rank asc,
    /// crowding desc) puts them, and carries their ranks and distances along
    /// for the next tournaments. The rest are rows free for offspring; their
    /// order is of no consequence.
    fn select(&mut self, rows: &mut Vec<usize>, keep: usize) {
        let Ranking { rank, crowding, fronts, starts, pos, f, permuted, .. } = self;
        for k in 1..starts.len() {
            if starts[k - 1] < keep {
                fronts[starts[k - 1]..starts[k]].sort_unstable_by(|&a, &b| {
                    crowding[b].partial_cmp(&crowding[a]).expect("NaN crowding").then(a.cmp(&b))
                });
            }
        }
        permuted.clear();
        permuted.extend(fronts.iter().map(|&i| rows[i]));
        std::mem::swap(rows, permuted);
        // `pos` and `f` are scratch until the next `assign`.
        pos.clear();
        pos.extend(fronts[..keep].iter().map(|&i| rank[i]));
        std::mem::swap(rank, pos);
        f.clear();
        f.extend(fronts[..keep].iter().map(|&i| crowding[i]));
        std::mem::swap(crowding, f);
    }

    /// Binary tournament on (rank asc, crowding desc) among the first `n`
    /// positions; returns the winner's position.
    fn tournament<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> usize {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        match self.rank[a].cmp(&self.rank[b]) {
            Ordering::Less => a,
            Ordering::Greater => b,
            Ordering::Equal => {
                if self.crowding[a] >= self.crowding[b] {
                    a
                } else {
                    b
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn dominates_is_strict_partial_order() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]), "no self-domination");
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]), "incomparable");
        assert!(!dominates(&[2.0, 2.0], &[1.0, 1.0]));
    }

    /// Schaffer's F1: f1 = x², f2 = (x-2)². Pareto set is x ∈ [0, 2] with
    /// front f2 = (sqrt(f1) - 2)².
    #[test]
    fn solves_schaffer_f1() {
        let opt = Nsga2::new(
            |g: &[f64]| vec![g[0] * g[0], (g[0] - 2.0) * (g[0] - 2.0)],
            vec![-10.0],
            vec![10.0],
            Nsga2Config { population: 60, generations: 60 },
        );
        let front = opt.run(&mut rng());
        assert!(front.len() >= 10, "front too small: {}", front.len());
        for p in &front {
            let x = p.genome[0];
            assert!((-0.1..=2.1).contains(&x), "x = {x} not on Pareto set");
            // Objective consistency.
            assert!((p.objectives[0] - x * x).abs() < 1e-9);
        }
        // The front should span both extremes reasonably well.
        let min_f1 = front.iter().map(|p| p.objectives[0]).fold(f64::INFINITY, f64::min);
        let max_f1 = front.iter().map(|p| p.objectives[0]).fold(0.0, f64::max);
        assert!(min_f1 < 0.1, "missing f1-optimal corner: {min_f1}");
        assert!(max_f1 > 3.0, "missing f2-optimal corner: {max_f1}");
    }

    /// ZDT1 (2 objectives, 10 vars): front is g = 1, f2 = 1 - sqrt(f1).
    #[test]
    fn approaches_zdt1_front() {
        let dim = 10;
        let eval = |g: &[f64]| {
            let f1 = g[0];
            let gsum: f64 = 1.0 + 9.0 * g[1..].iter().sum::<f64>() / (dim as f64 - 1.0);
            let f2 = gsum * (1.0 - (f1 / gsum).sqrt());
            vec![f1, f2]
        };
        let opt = Nsga2::new(
            eval,
            vec![0.0; dim],
            vec![1.0; dim],
            Nsga2Config { population: 100, generations: 150 },
        );
        let front = opt.run(&mut rng());
        // Measure average distance to the true front: f2* = 1 - sqrt(f1).
        let avg_gap: f64 = front
            .iter()
            .map(|p| (p.objectives[1] - (1.0 - p.objectives[0].sqrt())).abs())
            .sum::<f64>()
            / front.len() as f64;
        assert!(avg_gap < 0.15, "front too far from optimum: {avg_gap}");
    }

    #[test]
    fn front_is_mutually_nondominated() {
        let opt = Nsga2::new(
            |g: &[f64]| vec![g[0], 1.0 / (g[0] + 0.1)],
            vec![0.0],
            vec![5.0],
            Nsga2Config { population: 32, generations: 20 },
        );
        let front = opt.run(&mut rng());
        for a in &front {
            for b in &front {
                assert!(
                    !dominates(&a.objectives, &b.objectives),
                    "front member dominated: {a:?} > {b:?}"
                );
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let build = || {
            Nsga2::new(
                |g: &[f64]| vec![g[0] * g[0], (g[0] - 1.0) * (g[0] - 1.0)],
                vec![-5.0],
                vec![5.0],
                Nsga2Config { population: 16, generations: 10 },
            )
        };
        let f1 = build().run(&mut StdRng::seed_from_u64(99));
        let f2 = build().run(&mut StdRng::seed_from_u64(99));
        assert_eq!(f1.len(), f2.len());
        for (a, b) in f1.iter().zip(&f2) {
            assert_eq!(a.genome, b.genome);
        }
    }

    #[test]
    fn single_objective_degenerates_to_minimum() {
        let opt = Nsga2::new(
            |g: &[f64]| vec![(g[0] - 3.0) * (g[0] - 3.0)],
            vec![-10.0],
            vec![10.0],
            Nsga2Config { population: 40, generations: 60 },
        );
        let front = opt.run(&mut rng());
        let best = front.iter().map(|p| p.objectives[0]).fold(f64::INFINITY, f64::min);
        assert!(best < 0.01, "did not find minimum: {best}");
    }

    #[test]
    fn respects_bounds() {
        let opt = Nsga2::new(
            |g: &[f64]| vec![g[0], -g[1]],
            vec![2.0, -1.0],
            vec![3.0, 1.0],
            Nsga2Config { population: 24, generations: 15 },
        );
        for p in opt.run(&mut rng()) {
            assert!((2.0..=3.0).contains(&p.genome[0]));
            assert!((-1.0..=1.0).contains(&p.genome[1]));
        }
    }

    #[test]
    fn degenerate_point_bounds_work() {
        // lower == upper: the only genome is that point.
        let opt = Nsga2::new(
            |g: &[f64]| vec![g[0]],
            vec![1.5],
            vec![1.5],
            Nsga2Config { population: 8, generations: 5 },
        );
        for p in opt.run(&mut rng()) {
            assert_eq!(p.genome[0], 1.5);
        }
    }

    #[test]
    fn hypervolume_of_single_point() {
        let front = vec![ParetoPoint { genome: vec![0.0], objectives: vec![1.0, 1.0] }];
        // Box from (1,1) to (3,3): area 4.
        assert!((hypervolume_2d(&front, [3.0, 3.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_staircase() {
        let mk = |a: f64, b: f64| ParetoPoint { genome: vec![], objectives: vec![a, b] };
        let front = vec![mk(1.0, 2.0), mk(2.0, 1.0)];
        // (1,2): (4-1)*(4-2)=6; (2,1): (4-2)*(2-1)=2 => 8.
        assert!((hypervolume_2d(&front, [4.0, 4.0]) - 8.0).abs() < 1e-12);
        // Dominated point adds nothing.
        let with_dup = vec![mk(1.0, 2.0), mk(2.0, 1.0), mk(2.5, 2.5)];
        assert!((hypervolume_2d(&with_dup, [4.0, 4.0]) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_ignores_points_beyond_reference() {
        let front = vec![ParetoPoint { genome: vec![], objectives: vec![5.0, 5.0] }];
        assert_eq!(hypervolume_2d(&front, [4.0, 4.0]), 0.0);
    }

    #[test]
    fn nsga_improves_hypervolume_over_generations() {
        let eval = |g: &[f64]| vec![g[0] * g[0], (g[0] - 2.0) * (g[0] - 2.0)];
        let front_of = |gens: usize| {
            Nsga2::new(
                eval,
                vec![-10.0],
                vec![10.0],
                Nsga2Config { population: 24, generations: gens },
            )
            .run(&mut StdRng::seed_from_u64(3))
        };
        let hv_early = hypervolume_2d(&front_of(1), [20.0, 20.0]);
        let hv_late = hypervolume_2d(&front_of(40), [20.0, 20.0]);
        assert!(hv_late >= hv_early, "evolution regressed: {hv_early} -> {hv_late}");
    }

    #[test]
    #[should_panic(expected = "objective produced NaN")]
    fn nan_objective_is_rejected_in_every_build() {
        let opt = Nsga2::new(
            |g: &[f64]| [g[0], if g[0] > 0.5 { f64::NAN } else { 1.0 }],
            vec![0.0],
            vec![1.0],
            Nsga2Config { population: 8, generations: 2 },
        );
        let _ = opt.run(&mut rng());
    }

    #[test]
    #[should_panic(expected = "population must be at least 4")]
    fn tiny_population_rejected() {
        let _ = Nsga2::new(
            |g: &[f64]| vec![g[0]],
            vec![0.0],
            vec![1.0],
            Nsga2Config { population: 2, ..Default::default() },
        );
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds upper bound")]
    fn inverted_bounds_rejected() {
        let _ = Nsga2::new(|g: &[f64]| vec![g[0]], vec![1.0], vec![0.0], Nsga2Config::default());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::nsga2_reference as reference;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `n × m` objectives with the ties the order contract is about planted
    /// in: exact duplicates, equal `f0` with a different rest, values on a
    /// coarse grid, and `1e9 − gain`-style penalty values.
    fn planted_population(seed: u64, n: usize, m: usize) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let grid = rng.gen_range(0..3) == 0;
        let mut pop: Vec<Vec<f64>> = Vec::with_capacity(n);
        for i in 0..n {
            let fresh = |rng: &mut StdRng| -> f64 {
                if grid {
                    f64::from(rng.gen_range(0..6u32))
                } else {
                    rng.gen_range(-4.0..4.0)
                }
            };
            let kind = if i == 0 { 9 } else { rng.gen_range(0..10) };
            let objectives = match kind {
                0 | 1 => pop[rng.gen_range(0..i)].clone(),
                2 | 3 => {
                    let mut o: Vec<f64> = (0..m).map(|_| fresh(&mut rng)).collect();
                    o[0] = pop[rng.gen_range(0..i)][0];
                    o
                }
                4 => {
                    let mut o: Vec<f64> = (0..m).map(|_| fresh(&mut rng)).collect();
                    let gain = f64::from(rng.gen_range(0..3u32));
                    o[m - 1] = if rng.gen::<f64>() < 0.5 { 1e9 - gain } else { -1e9 };
                    o
                }
                _ => (0..m).map(|_| fresh(&mut rng)).collect(),
            };
            pop.push(objectives);
        }
        pop
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// The sweep (2 objectives) and the bit-matrix sort (1 and 3) give
        /// the textbook sort's rank and crowding *bits*, and environmental
        /// selection keeps the same survivors in the same order.
        #[test]
        fn ranking_matches_the_textbook_sort_bit_for_bit(
            seed in 0u64..u64::MAX,
            n in 4usize..257,
            m in 1usize..4,
        ) {
            let pop = planted_population(seed, n, m);
            let mut expected: Vec<reference::Individual> = pop
                .iter()
                .enumerate()
                .map(|(i, o)| reference::Individual::new(vec![i as f64], o.clone()))
                .collect();
            reference::assign_ranks_and_crowding(&mut expected);

            // Store the population in scattered rows to exercise the gather.
            let mut rows: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % n).collect();
            if n % 7 == 0 {
                rows = (0..n).rev().collect();
            }
            let mut objectives = vec![0.0; n * m];
            for (i, o) in pop.iter().enumerate() {
                objectives[rows[i] * m..(rows[i] + 1) * m].copy_from_slice(o);
            }
            let mut ranking = Ranking::default();
            // A dirty scratch must not leak into the next sort.
            ranking.assign(&objectives, m, &rows[..n / 2], n / 4);
            ranking.assign(&objectives, m, &rows, n);
            for (i, ind) in expected.iter().enumerate() {
                prop_assert_eq!(ranking.rank[i], ind.rank, "rank of {} (n={}, m={})", i, n, m);
                prop_assert_eq!(
                    ranking.crowding[i].to_bits(),
                    ind.crowding.to_bits(),
                    "crowding of {}: {} vs {} (n={}, m={})",
                    i, ranking.crowding[i], ind.crowding, n, m
                );
            }

            let keep = n / 2;
            reference::truncate_to(&mut expected, keep);
            let before = rows.clone();
            ranking.select(&mut rows, keep);
            for (i, ind) in expected.iter().enumerate() {
                prop_assert_eq!(rows[i], before[ind.genome[0] as usize], "survivor {}", i);
                prop_assert_eq!(ranking.rank[i], ind.rank);
                prop_assert_eq!(ranking.crowding[i].to_bits(), ind.crowding.to_bits());
            }
            let mut all = rows.clone();
            all.sort_unstable();
            prop_assert_eq!(all, (0..n).collect::<Vec<_>>(), "selection must permute the rows");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whole runs — odd populations included — return the reference
        /// engine's front and leave the RNG where it leaves it, on problems
        /// whose objectives collapse many genomes onto one point.
        #[test]
        fn run_matches_the_reference_engine(
            seed in 0u64..u64::MAX,
            population in 4usize..40,
            generations in 0usize..12,
            m in 1usize..4,
            dim in 1usize..5,
        ) {
            let evaluate = move |g: &[f64]| -> Vec<f64> {
                let x = g[0].round();
                let y = g[g.len() - 1].round();
                [x * x, (x - 2.0) * (x - 2.0) + y.abs(), 1e9 - y][..m].to_vec()
            };
            let config = Nsga2Config { population, generations };
            let (lower, upper) = (vec![-4.0; dim], vec![4.0; dim]);
            let mut rng_new = StdRng::seed_from_u64(seed);
            let mut rng_old = StdRng::seed_from_u64(seed);
            let front = Nsga2::new(evaluate, lower.clone(), upper.clone(), config).run(&mut rng_new);
            let expected = reference::run(evaluate, &lower, &upper, config, &mut rng_old);
            prop_assert_eq!(front, expected);
            prop_assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>());
        }

        /// dominates() is antisymmetric for arbitrary objective vectors.
        #[test]
        fn domination_antisymmetric(
            a in proptest::collection::vec(-100.0f64..100.0, 3),
            b in proptest::collection::vec(-100.0f64..100.0, 3),
        ) {
            prop_assert!(!(dominates(&a, &b) && dominates(&b, &a)));
        }

        /// dominates() is irreflexive.
        #[test]
        fn domination_irreflexive(a in proptest::collection::vec(-100.0f64..100.0, 4)) {
            prop_assert!(!dominates(&a, &a));
        }
    }
}
