//! Random-variate distributions used by the workload generator.
//!
//! The offline crate set contains `rand` but not `rand_distr`, so the
//! handful of distributions the generator needs — exponential, lognormal,
//! bounded Pareto, discrete mixtures, geometric — are implemented here
//! from first principles (inverse-CDF sampling and Box–Muller).

use rand::Rng;

/// A continuous or discrete sampling distribution.
pub trait Sample {
    /// Draws one variate.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;
}

/// Exponential distribution with the given mean (not rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp {
    mean: f64,
}

impl Exp {
    /// Creates an exponential distribution with mean `mean` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn new(mean: f64) -> Self {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "bad exponential mean {mean}"
        );
        Exp { mean }
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

impl Sample for Exp {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse CDF; `1 - u` keeps the argument away from ln(0).
        let u: f64 = rng.gen();
        -self.mean * (1.0 - u).ln()
    }
}

/// Lognormal distribution parameterised by the median and shape.
///
/// `ln X ~ Normal(ln median, sigma²)`; the mean is
/// `median · exp(sigma²/2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a lognormal with the given median and log-space sigma.
    ///
    /// # Panics
    ///
    /// Panics if `median <= 0` or `sigma < 0`.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0 && median.is_finite(), "bad median {median}");
        assert!(sigma >= 0.0 && sigma.is_finite(), "bad sigma {sigma}");
        LogNormal {
            mu: median.ln(),
            sigma,
        }
    }

    /// The distribution mean `exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    /// The distribution median `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }
}

impl Sample for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// Pareto distribution truncated to `[lo, hi]`, sampled by inverse CDF.
///
/// Heavy-tailed sizes and reference counts in the study (directory sizes
/// reaching 24,926 files, files referenced up to ~250 times) are drawn
/// from bounded Pareto tails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    alpha: f64,
    lo: f64,
    hi: f64,
    /// `lo^-alpha`, `hi^-alpha` and `-1/alpha`: the inverse CDF's
    /// constants, computed once here instead of per sample.
    lo_pow: f64,
    hi_pow: f64,
    neg_inv_alpha: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto on `[lo, hi]` with shape `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo < hi` and `alpha > 0`.
    pub fn new(alpha: f64, lo: f64, hi: f64) -> Self {
        assert!(alpha > 0.0, "bad alpha {alpha}");
        assert!(0.0 < lo && lo < hi, "bad bounds [{lo}, {hi}]");
        BoundedPareto {
            alpha,
            lo,
            hi,
            lo_pow: lo.powf(-alpha),
            hi_pow: hi.powf(-alpha),
            neg_inv_alpha: -1.0 / alpha,
        }
    }

    /// The analytic mean of the truncated distribution.
    pub fn mean(&self) -> f64 {
        let (a, l, h) = (self.alpha, self.lo, self.hi);
        if (a - 1.0).abs() < 1e-9 {
            // alpha = 1 limit: pdf ∝ x^-2, so E[X] = ln(h/l) / (1/l - 1/h).
            (h / l).ln() / (1.0 / l - 1.0 / h)
        } else {
            // pdf ∝ x^(-a-1) on [l,h]; normaliser C = a·l^a / (1 - (l/h)^a).
            let c = a * l.powf(a) / (1.0 - (l / h).powf(a));
            c * (h.powf(1.0 - a) - l.powf(1.0 - a)) / (1.0 - a)
        }
    }
}

impl Sample for BoundedPareto {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        let (la, ha) = (self.lo_pow, self.hi_pow);
        (la - u * (la - ha)).powf(self.neg_inv_alpha)
    }
}

/// Discrete distribution over `0..weights.len()` proportional to weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Discrete {
    cumulative: Vec<f64>,
}

impl Discrete {
    /// Builds a discrete distribution from non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative/non-finite
    /// weight, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "empty weight vector");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut sum = 0.0;
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "bad weight {w}");
            sum += w;
            cumulative.push(sum);
        }
        assert!(sum > 0.0, "weights sum to zero");
        for c in &mut cumulative {
            *c /= sum;
        }
        Discrete { cumulative }
    }

    /// Draws an index in `0..len`.
    pub fn index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("NaN in cumulative weights"))
        {
            Ok(i) | Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// Geometric distribution: number of failures before the first success.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
    /// `ln(1 - p)`, the inverse CDF's divisor.
    ln_q: f64,
}

impl Geometric {
    /// Creates a geometric distribution with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "bad geometric p {p}");
        Geometric {
            p,
            ln_q: (1.0 - p).ln(),
        }
    }

    /// Draws the number of failures before the first success (>= 0).
    pub fn sample_count<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        if self.p >= 1.0 {
            return 0;
        }
        // Inverse CDF: floor(ln U / ln(1-p)).
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        (u.ln() / self.ln_q).floor() as u32
    }

    /// Expected number of failures, `(1-p)/p`.
    pub fn mean(&self) -> f64 {
        (1.0 - self.p) / self.p
    }
}

/// One standard-normal variate via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xFACE)
    }

    fn empirical_mean(mut f: impl FnMut(&mut SmallRng) -> f64, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| f(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exp::new(18.0);
        let m = empirical_mean(|r| d.sample(r), 40_000);
        assert!((m - 18.0).abs() < 0.5, "mean {m}");
    }

    #[test]
    fn lognormal_median_and_mean() {
        let d = LogNormal::from_median(8.0, 0.5);
        assert!((d.median() - 8.0).abs() < 1e-12);
        assert!((d.mean() - 8.0 * (0.125f64).exp()).abs() < 1e-9);
        let mut r = rng();
        let mut below = 0;
        let n = 20_000;
        for _ in 0..n {
            if d.sample(&mut r) < 8.0 {
                below += 1;
            }
        }
        let frac = below as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "median fraction {frac}");
    }

    #[test]
    fn bounded_pareto_respects_bounds() {
        let d = BoundedPareto::new(1.2, 11.0, 25_000.0);
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((11.0..=25_000.0).contains(&x), "out of bounds: {x}");
        }
    }

    #[test]
    fn bounded_pareto_tail_is_heavy() {
        let d = BoundedPareto::new(1.0, 1.0, 250.0);
        let mut r = rng();
        let n = 50_000;
        let over8 = (0..n).filter(|_| d.sample(&mut r) > 8.0).count();
        let frac = over8 as f64 / n as f64;
        // P(X > 8) for alpha=1 bounded pareto on [1,250] is about 0.125.
        assert!((frac - 0.125).abs() < 0.02, "tail fraction {frac}");
    }

    #[test]
    fn bounded_pareto_analytic_mean_matches_empirical() {
        for d in [
            BoundedPareto::new(1.25, 11.0, 25_000.0),
            BoundedPareto::new(1.0, 1.0, 250.0),
            BoundedPareto::new(2.5, 0.5, 100.0),
        ] {
            let m = empirical_mean(|r| d.sample(r), 200_000);
            let rel = (m - d.mean()).abs() / d.mean();
            assert!(rel < 0.08, "analytic {} vs empirical {m}", d.mean());
        }
    }

    #[test]
    fn discrete_matches_weights() {
        let d = Discrete::new(&[1.0, 3.0, 6.0]);
        let mut r = rng();
        let mut counts = [0usize; 3];
        let n = 60_000;
        for _ in 0..n {
            counts[d.index(&mut r)] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.1).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.3).abs() < 0.015);
        assert!((counts[2] as f64 / n as f64 - 0.6).abs() < 0.015);
    }

    #[test]
    fn geometric_mean_converges() {
        let g = Geometric::new(0.25);
        assert!((g.mean() - 3.0).abs() < 1e-12);
        let m = empirical_mean(|r| g.sample_count(r) as f64, 40_000);
        assert!((m - 3.0).abs() < 0.15, "mean {m}");
        assert_eq!(Geometric::new(1.0).sample_count(&mut rng()), 0);
    }

    #[test]
    #[should_panic(expected = "bad exponential mean")]
    fn exponential_rejects_nonpositive_mean() {
        let _ = Exp::new(0.0);
    }

    #[test]
    #[should_panic(expected = "weights sum to zero")]
    fn discrete_rejects_zero_weights() {
        let _ = Discrete::new(&[0.0, 0.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Exponential samples are non-negative for any positive mean.
        #[test]
        fn exp_nonnegative(mean in 0.001f64..1e6, seed in any::<u64>()) {
            let mut r = SmallRng::seed_from_u64(seed);
            let d = Exp::new(mean);
            for _ in 0..32 {
                prop_assert!(d.sample(&mut r) >= 0.0);
            }
        }

        /// Bounded Pareto never escapes its bounds.
        #[test]
        fn pareto_in_bounds(
            alpha in 0.1f64..4.0,
            lo in 0.1f64..100.0,
            span in 1.0f64..1e5,
            seed in any::<u64>(),
        ) {
            let hi = lo + span;
            let d = BoundedPareto::new(alpha, lo, hi);
            let mut r = SmallRng::seed_from_u64(seed);
            for _ in 0..32 {
                let x = d.sample(&mut r);
                prop_assert!(x >= lo * 0.999 && x <= hi * 1.001, "x = {}", x);
            }
        }

        /// The precomputed inverse-CDF constants give the per-sample
        /// formula's value bit for bit.
        #[test]
        fn hoisted_pareto_constants_are_exact(
            alpha in 0.1f64..4.0,
            lo in 0.1f64..100.0,
            span in 1.0f64..1e5,
            seed in any::<u64>(),
        ) {
            let hi = lo + span;
            let d = BoundedPareto::new(alpha, lo, hi);
            let mut hoisted = SmallRng::seed_from_u64(seed);
            let mut per_call = hoisted.clone();
            for _ in 0..32 {
                let u: f64 = per_call.gen();
                let (la, ha) = (lo.powf(-alpha), hi.powf(-alpha));
                let x = (la - u * (la - ha)).powf(-1.0 / alpha);
                prop_assert_eq!(d.sample(&mut hoisted).to_bits(), x.to_bits());
            }
        }

        /// Likewise for the geometric's `ln(1 - p)`.
        #[test]
        fn hoisted_geometric_constant_is_exact(p in 0.001f64..1.0, seed in any::<u64>()) {
            let g = Geometric::new(p);
            let mut hoisted = SmallRng::seed_from_u64(seed);
            let mut per_call = hoisted.clone();
            for _ in 0..32 {
                let u: f64 = per_call.gen::<f64>().max(f64::MIN_POSITIVE);
                let k = (u.ln() / (1.0 - p).ln()).floor() as u32;
                prop_assert_eq!(g.sample_count(&mut hoisted), k);
            }
        }

        /// Discrete index is always a valid index.
        #[test]
        fn discrete_in_range(
            weights in proptest::collection::vec(0.0f64..10.0, 1..12),
            seed in any::<u64>(),
        ) {
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let d = Discrete::new(&weights);
            let mut r = SmallRng::seed_from_u64(seed);
            for _ in 0..32 {
                prop_assert!(d.index(&mut r) < weights.len());
            }
        }
    }
}
