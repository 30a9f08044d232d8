//! The NSGA-II engine as it stood before the flat-population rewrite, kept
//! verbatim as the reference the differential tests compare against:
//! the textbook O(M·N²) fast non-dominated sort over `Vec<Individual>`, the
//! stable-sort crowding distance that starts from the peel loop's discovery
//! order, and the generation loop around them. Test-only — nothing outside
//! `#[cfg(test)]` may call into this module.

use crate::nsga2::{
    dominates, Nsga2Config, ParetoPoint, CROSSOVER_PROB, ETA_CROSSOVER, ETA_MUTATION,
};
use rand::Rng;

#[derive(Clone)]
pub(crate) struct Individual {
    pub(crate) genome: Vec<f64>,
    pub(crate) objectives: Vec<f64>,
    pub(crate) rank: usize,
    pub(crate) crowding: f64,
}

impl Individual {
    pub(crate) fn new(genome: Vec<f64>, objectives: Vec<f64>) -> Self {
        Individual { genome, objectives, rank: usize::MAX, crowding: 0.0 }
    }
}

/// The old `Nsga2::run`, with the optimizer's fields passed in.
pub(crate) fn run<F, R>(
    evaluate: F,
    lower: &[f64],
    upper: &[f64],
    config: Nsga2Config,
    rng: &mut R,
) -> Vec<ParetoPoint>
where
    F: Fn(&[f64]) -> Vec<f64>,
    R: Rng + ?Sized,
{
    let make_individual = |genome: Vec<f64>| {
        let objectives = evaluate(&genome);
        Individual::new(genome, objectives)
    };
    let dim = lower.len();
    let mutation_prob = 1.0 / dim as f64;
    let pop_size = config.population;

    let mut population: Vec<Individual> = (0..pop_size)
        .map(|_| {
            let genome: Vec<f64> = (0..dim).map(|d| rng.gen_range(lower[d]..=upper[d])).collect();
            make_individual(genome)
        })
        .collect();
    assign_ranks_and_crowding(&mut population);

    for _ in 0..config.generations {
        // Variation: fill an offspring population of equal size.
        let mut offspring = Vec::with_capacity(pop_size);
        while offspring.len() < pop_size {
            let p1 = tournament(&population, rng);
            let p2 = tournament(&population, rng);
            let (mut c1, mut c2) = if rng.gen::<f64>() < CROSSOVER_PROB {
                sbx_crossover(
                    &population[p1].genome,
                    &population[p2].genome,
                    lower,
                    upper,
                    ETA_CROSSOVER,
                    rng,
                )
            } else {
                (population[p1].genome.clone(), population[p2].genome.clone())
            };
            polynomial_mutation(&mut c1, lower, upper, mutation_prob, ETA_MUTATION, rng);
            polynomial_mutation(&mut c2, lower, upper, mutation_prob, ETA_MUTATION, rng);
            offspring.push(make_individual(c1));
            if offspring.len() < pop_size {
                offspring.push(make_individual(c2));
            }
        }

        // Environmental selection over parents ∪ offspring.
        population.extend(offspring);
        truncate_to(&mut population, pop_size);
    }

    assign_ranks_and_crowding(&mut population);
    population
        .into_iter()
        .filter(|ind| ind.rank == 0)
        .map(|ind| ParetoPoint { genome: ind.genome, objectives: ind.objectives })
        .collect()
}

/// Environmental selection: rank, stable-sort by (rank asc, crowding desc),
/// keep the best `pop_size`.
pub(crate) fn truncate_to(population: &mut Vec<Individual>, pop_size: usize) {
    assign_ranks_and_crowding(population);
    population.sort_by(|a, b| {
        a.rank.cmp(&b.rank).then_with(|| b.crowding.partial_cmp(&a.crowding).expect("NaN crowding"))
    });
    population.truncate(pop_size);
}

/// Fast non-dominated sort + crowding distance (Deb et al., §III).
pub(crate) fn assign_ranks_and_crowding(pop: &mut [Individual]) {
    let n = pop.len();
    let mut domination_count = vec![0usize; n];
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n];

    for i in 0..n {
        for j in (i + 1)..n {
            if dominates(&pop[i].objectives, &pop[j].objectives) {
                dominated_by[i].push(j);
                domination_count[j] += 1;
            } else if dominates(&pop[j].objectives, &pop[i].objectives) {
                dominated_by[j].push(i);
                domination_count[i] += 1;
            }
        }
    }

    let mut current: Vec<usize> = (0..n).filter(|&i| domination_count[i] == 0).collect();
    let mut rank = 0;
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            pop[i].rank = rank;
        }
        crowding_distance(pop, &current);
        for &i in &current {
            for &j in &dominated_by[i].clone() {
                domination_count[j] -= 1;
                if domination_count[j] == 0 {
                    next.push(j);
                }
            }
        }
        current = next;
        rank += 1;
    }
}

/// Computes crowding distance for one front (indices into `pop`).
fn crowding_distance(pop: &mut [Individual], front: &[usize]) {
    for &i in front {
        pop[i].crowding = 0.0;
    }
    if front.len() <= 2 {
        for &i in front {
            pop[i].crowding = f64::INFINITY;
        }
        return;
    }
    let n_obj = pop[front[0]].objectives.len();
    let mut order: Vec<usize> = front.to_vec();
    for m in 0..n_obj {
        order.sort_by(|&a, &b| {
            pop[a].objectives[m].partial_cmp(&pop[b].objectives[m]).expect("NaN objective")
        });
        let lo = pop[order[0]].objectives[m];
        let hi = pop[*order.last().expect("front nonempty")].objectives[m];
        pop[order[0]].crowding = f64::INFINITY;
        pop[*order.last().expect("front nonempty")].crowding = f64::INFINITY;
        let span = hi - lo;
        if span <= 0.0 {
            continue;
        }
        for w in order.windows(3) {
            let (prev, mid, next) = (w[0], w[1], w[2]);
            if pop[mid].crowding.is_finite() {
                pop[mid].crowding += (pop[next].objectives[m] - pop[prev].objectives[m]) / span;
            }
        }
    }
}

/// Binary tournament on (rank asc, crowding desc); returns the winner index.
fn tournament<R: Rng + ?Sized>(pop: &[Individual], rng: &mut R) -> usize {
    let a = rng.gen_range(0..pop.len());
    let b = rng.gen_range(0..pop.len());

    match pop[a].rank.cmp(&pop[b].rank) {
        std::cmp::Ordering::Less => a,
        std::cmp::Ordering::Greater => b,
        std::cmp::Ordering::Equal => {
            if pop[a].crowding >= pop[b].crowding {
                a
            } else {
                b
            }
        }
    }
}

/// Simulated binary crossover (SBX) with box-bound clipping.
fn sbx_crossover<R: Rng + ?Sized>(
    p1: &[f64],
    p2: &[f64],
    lower: &[f64],
    upper: &[f64],
    eta: f64,
    rng: &mut R,
) -> (Vec<f64>, Vec<f64>) {
    let mut c1 = p1.to_vec();
    let mut c2 = p2.to_vec();
    for d in 0..p1.len() {
        if rng.gen::<f64>() > 0.5 || (p1[d] - p2[d]).abs() < 1e-14 {
            continue;
        }
        let u: f64 = rng.gen();
        let beta = if u <= 0.5 {
            (2.0 * u).powf(1.0 / (eta + 1.0))
        } else {
            (1.0 / (2.0 * (1.0 - u))).powf(1.0 / (eta + 1.0))
        };
        let mean = 0.5 * (p1[d] + p2[d]);
        let diff = 0.5 * beta * (p2[d] - p1[d]).abs();
        c1[d] = (mean - diff).clamp(lower[d], upper[d]);
        c2[d] = (mean + diff).clamp(lower[d], upper[d]);
    }
    (c1, c2)
}

/// Polynomial mutation with box-bound clipping.
fn polynomial_mutation<R: Rng + ?Sized>(
    genome: &mut [f64],
    lower: &[f64],
    upper: &[f64],
    prob: f64,
    eta: f64,
    rng: &mut R,
) {
    for d in 0..genome.len() {
        if rng.gen::<f64>() >= prob {
            continue;
        }
        let span = upper[d] - lower[d];
        if span <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen();
        let delta = if u < 0.5 {
            (2.0 * u).powf(1.0 / (eta + 1.0)) - 1.0
        } else {
            1.0 - (2.0 * (1.0 - u)).powf(1.0 / (eta + 1.0))
        };
        genome[d] = (genome[d] + delta * span).clamp(lower[d], upper[d]);
    }
}
