//! Latency/size distributions used throughout the simulator.
//!
//! `rand` 0.8 ships only uniform sampling in its core; the parametric
//! families needed by the cluster model (normal, log-normal, exponential,
//! Pareto, Zipf) are implemented here from first principles so we stay within
//! the offline crate set. Each type is a plain sampler: construct once, call
//! [`Sample::sample`] with any `RngCore`.

use rand::Rng;

/// A distribution that can produce `f64` samples.
pub trait Sample {
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Draws one sample clamped to `[lo, hi]` — handy for latencies that
    /// must stay positive and bounded.
    fn sample_clamped<R: Rng + ?Sized>(&self, rng: &mut R, lo: f64, hi: f64) -> f64 {
        self.sample(rng).clamp(lo, hi)
    }
}

/// Continuous uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "bad uniform bounds [{lo}, {hi})");
        Uniform { lo, hi }
    }
}

impl Sample for Uniform {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.lo == self.hi {
            return self.lo;
        }
        self.lo + rng.gen::<f64>() * (self.hi - self.lo)
    }
}

/// Normal (Gaussian) distribution, sampled via Box–Muller.
#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation.
    ///
    /// # Panics
    /// Panics if `std_dev` is negative or either parameter is non-finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
            "bad normal params mean={mean} sd={std_dev}"
        );
        Normal { mean, std_dev }
    }

    /// Draws a standard-normal variate.
    fn standard<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        // Box–Muller; reject u1 == 0 to avoid ln(0).
        loop {
            let u1: f64 = rng.gen();
            if u1 > f64::MIN_POSITIVE {
                let u2: f64 = rng.gen();
                return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            }
        }
    }
}

impl Sample for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * Self::standard(rng)
    }
}

/// Log-normal distribution: `exp(N(mu, sigma))`.
///
/// This is the workhorse for modelling user resource over-provisioning and
/// pod start-up latencies, both of which are right-skewed in real clusters.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    norm: Normal,
}

impl LogNormal {
    /// Creates a log-normal from the underlying normal's `mu` and `sigma`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal { norm: Normal::new(mu, sigma) }
    }

    /// Creates a log-normal with the given *distribution* mean and a shape
    /// parameter `sigma`, solving for `mu = ln(mean) - sigma^2 / 2`.
    ///
    /// # Panics
    /// Panics if `mean` is not strictly positive.
    pub fn from_mean(mean: f64, sigma: f64) -> Self {
        assert!(mean > 0.0, "log-normal mean must be positive: {mean}");
        LogNormal::new(mean.ln() - sigma * sigma / 2.0, sigma)
    }
}

impl Sample for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.norm.sample(rng).exp()
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential with rate `lambda`.
    ///
    /// # Panics
    /// Panics if `lambda` is not strictly positive.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda.is_finite(), "bad exponential rate {lambda}");
        Exponential { lambda }
    }

    /// Creates an exponential with the given mean.
    pub fn from_mean(mean: f64) -> Self {
        Exponential::new(1.0 / mean)
    }
}

impl Sample for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse-CDF; 1-u avoids ln(0) since gen() is in [0, 1).
        let u: f64 = rng.gen();
        -(1.0 - u).ln() / self.lambda
    }
}

/// Pareto (power-law) distribution with scale `x_min` and shape `alpha`.
///
/// Used for heavy-tailed job sizes: a few jobs in the fleet are enormous.
#[derive(Debug, Clone, Copy)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    /// Panics unless `x_min > 0` and `alpha > 0`.
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(x_min > 0.0 && alpha > 0.0, "bad pareto params x_min={x_min} alpha={alpha}");
        Pareto { x_min, alpha }
    }
}

impl Sample for Pareto {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        self.x_min / (1.0 - u).powf(1.0 / self.alpha)
    }
}

/// Zipf distribution over `{0, 1, …, n-1}` with exponent `s`.
///
/// Categorical-feature ids in click logs are famously Zipfian; this drives
/// the synthetic Criteo generator and the embedding-table access skew. Uses
/// the rejection-inversion sampler of Hörmann & Derflinger, which is O(1)
/// per draw and needs no O(n) table.
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    n: u64,
    s: f64,
    // Precomputed constants for rejection-inversion.
    h_x1: f64,
    h_n: f64,
    dividing: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `{0, …, n-1}` with exponent `s > 0`.
    ///
    /// # Panics
    /// Panics unless `n >= 1` and `s` is a positive finite value.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1, "zipf needs at least one category");
        assert!(s > 0.0 && s.is_finite(), "bad zipf exponent {s}");
        let h_x1 = Self::h_integral(1.5, s) - 1.0;
        let h_n = Self::h_integral(n as f64 + 0.5, s);
        let dividing = 2.0 - Self::h_integral_inv(Self::h_integral(2.5, s) - 2f64.powf(-s), s);
        Zipf { n, s, h_x1, h_n, dividing }
    }

    /// `(exp(t) - 1) / t`, numerically stable near zero.
    fn expm1_over(t: f64) -> f64 {
        if t.abs() > 1e-8 {
            t.exp_m1() / t
        } else {
            1.0 + t / 2.0 * (1.0 + t / 3.0)
        }
    }

    /// `ln(1 + t) / t`, numerically stable near zero.
    fn ln1p_over(t: f64) -> f64 {
        if t.abs() > 1e-8 {
            t.ln_1p() / t
        } else {
            1.0 - t / 2.0 + t * t / 3.0
        }
    }

    /// Antiderivative `H(x) = ∫ x^-s dx` (up to a constant), written in the
    /// form used by Hörmann & Derflinger so it is smooth across `s = 1`.
    fn h_integral(x: f64, s: f64) -> f64 {
        let log_x = x.ln();
        Self::expm1_over((1.0 - s) * log_x) * log_x
    }

    /// Inverse of [`Self::h_integral`].
    fn h_integral_inv(x: f64, s: f64) -> f64 {
        let mut t = x * (1.0 - s);
        if t < -1.0 {
            // Rounding can push t slightly below the domain boundary.
            t = -1.0;
        }
        (Self::ln1p_over(t) * x).exp()
    }

    /// Draws a category index in `{0, …, n-1}` (0 is the most popular).
    pub fn index<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        // Rejection-inversion sampling (Hörmann & Derflinger 1996), as used
        // by Apache Commons and rand_distr.
        loop {
            let u = self.h_n + rng.gen::<f64>() * (self.h_x1 - self.h_n);
            let x = Self::h_integral_inv(u, self.s);
            let k = x.clamp(1.0, self.n as f64).round();
            if k - x <= self.dividing || u >= Self::h_integral(k + 0.5, self.s) - k.powf(-self.s) {
                return k as u64 - 1;
            }
        }
    }
}

impl Sample for Zipf {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.index(rng) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(12345)
    }

    fn mean_of(dist: &impl Sample, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| dist.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn uniform_stays_in_range_and_centres() {
        let d = Uniform::new(2.0, 6.0);
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((2.0..6.0).contains(&x));
        }
        assert!((mean_of(&d, 100_000) - 4.0).abs() < 0.05);
    }

    #[test]
    fn degenerate_uniform_returns_point() {
        let d = Uniform::new(3.0, 3.0);
        assert_eq!(d.sample(&mut rng()), 3.0);
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 2.0);
        let mut r = rng();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_from_mean_hits_mean() {
        let d = LogNormal::from_mean(5.0, 0.8);
        let m = mean_of(&d, 400_000);
        assert!((m - 5.0).abs() < 0.1, "got {m}");
        // All samples positive.
        let mut r = rng();
        for _ in 0..1000 {
            assert!(d.sample(&mut r) > 0.0);
        }
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::from_mean(3.0);
        let m = mean_of(&d, 200_000);
        assert!((m - 3.0).abs() < 0.05, "got {m}");
    }

    #[test]
    fn pareto_respects_x_min() {
        let d = Pareto::new(2.0, 3.0);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) >= 2.0);
        }
        // Mean of Pareto(x_min=2, alpha=3) is alpha*x_min/(alpha-1) = 3.
        let m = mean_of(&d, 400_000);
        assert!((m - 3.0).abs() < 0.05, "got {m}");
    }

    #[test]
    fn zipf_is_skewed_toward_low_indices() {
        let d = Zipf::new(1000, 1.1);
        let mut r = rng();
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[d.index(&mut r) as usize] += 1;
        }
        // Head dominates tail.
        assert!(counts[0] > counts[10] && counts[10] > counts[500].max(1));
        assert!(counts[0] > 5_000, "head count {}", counts[0]);
        // All indices within range (implicitly checked by indexing).
    }

    #[test]
    fn zipf_single_category() {
        let d = Zipf::new(1, 1.0);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(d.index(&mut r), 0);
        }
    }

    #[test]
    fn zipf_near_one_exponent_is_stable() {
        let d = Zipf::new(100, 1.0);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.index(&mut r) < 100);
        }
    }

    #[test]
    fn sample_clamped_clamps() {
        let d = Normal::new(0.0, 100.0);
        let mut r = rng();
        for _ in 0..1000 {
            let x = d.sample_clamped(&mut r, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&x));
        }
    }
}
