use crate::{SimRng, StatsError};

/// Exponential distribution with a given rate.
///
/// The asynchronous rumor-spreading model associates every node with a
/// rate-1 exponential clock; contacts along an edge `{u, v}` occur at rate
/// `1/d_u + 1/d_v` (paper §1, Equation (1)). All of those waiting times are
/// sampled through this type.
///
/// # Example
///
/// ```
/// # use gossip_stats::{Exponential, SimRng};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let clock = Exponential::new(1.0)?;
/// let mut rng = SimRng::seed_from_u64(1);
/// assert!(clock.sample(&mut rng) >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidRate`] when `rate` is not positive and
    /// finite.
    pub fn new(rate: f64) -> Result<Self, StatsError> {
        if rate.is_finite() && rate > 0.0 {
            Ok(Exponential { rate })
        } else {
            Err(StatsError::InvalidRate(rate))
        }
    }

    /// The rate parameter.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Mean waiting time, `1/rate`.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    /// Samples a waiting time by inverse-CDF.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        sample_exp(self.rate, rng)
    }
}

/// Samples `Exp(rate)` directly; the hot path of the simulators.
///
/// # Panics
///
/// Panics (in debug builds) if `rate` is not positive.
pub(crate) fn sample_exp(rate: f64, rng: &mut SimRng) -> f64 {
    debug_assert!(rate > 0.0, "exponential rate must be positive, got {rate}");
    -rng.uniform_open().ln() / rate
}

/// Bernoulli distribution: `true` with probability `p`.
///
/// # Example
///
/// ```
/// # use gossip_stats::{Bernoulli, SimRng};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let coin = Bernoulli::new(0.5)?;
/// let mut rng = SimRng::seed_from_u64(1);
/// let _flip: bool = coin.sample(&mut rng);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates a Bernoulli distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] unless `0 <= p <= 1`.
    pub fn new(p: f64) -> Result<Self, StatsError> {
        if (0.0..=1.0).contains(&p) {
            Ok(Bernoulli { p })
        } else {
            Err(StatsError::InvalidProbability(p))
        }
    }

    /// The success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Samples one trial.
    pub fn sample(&self, rng: &mut SimRng) -> bool {
        rng.chance(self.p)
    }
}

/// Geometric distribution counting the number of trials until (and
/// including) the first success.
///
/// The paper's dichotomy analysis (Theorem 1.7(iii), Lemmas 6.1–6.2) bounds
/// phase lengths by geometric random variables with success probabilities
/// `1 − e^{−c}`; this type makes those arguments executable.
///
/// Sampling is by inverse CDF, `⌈ln U / ln(1 − p)⌉`, one uniform per
/// sample. `ln(1 − p)` is computed once, in [`Geometric::new`]: as
/// `(1 − p).ln()`, except when `1 − p` rounds to 1 (`p ≤ 2⁻⁵⁴`), where it
/// is `ln_1p(−p)` — otherwise it would be 0 and every sample would clamp
/// to 1. Samples too large for a `u64` saturate at `u64::MAX`.
///
/// # Example
///
/// ```
/// # use gossip_stats::{Geometric, SimRng};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Geometric::new(0.25)?;
/// let mut rng = SimRng::seed_from_u64(3);
/// assert!(g.sample(&mut rng) >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
    /// `ln(1 − p)`, negative for `p < 1`.
    ln_q: f64,
}

impl Geometric {
    /// Creates a geometric distribution with success probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] unless `0 < p <= 1`.
    pub fn new(p: f64) -> Result<Self, StatsError> {
        if p > 0.0 && p <= 1.0 {
            let q = 1.0 - p;
            let ln_q = if q == 1.0 { (-p).ln_1p() } else { q.ln() };
            Ok(Geometric { p, ln_q })
        } else {
            Err(StatsError::InvalidProbability(p))
        }
    }

    /// The per-trial success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Mean number of trials, `1/p`.
    pub fn mean(&self) -> f64 {
        1.0 / self.p
    }

    /// `Pr[X > k]`, the probability that more than `k` trials are needed.
    pub fn tail(&self, k: u64) -> f64 {
        (1.0 - self.p).powi(k.min(i32::MAX as u64) as i32)
    }

    /// Samples the number of trials until the first success (at least 1).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        // Inverse CDF: ceil(ln U / ln(1-p)); the cast saturates.
        let u = rng.uniform_open();
        let k = (u.ln() / self.ln_q).ceil();
        if k < 1.0 {
            1
        } else {
            k as u64
        }
    }
}

/// Poisson distribution with a given rate.
///
/// Used to validate the simulators against the non-homogeneous Poisson
/// process theory the paper's proofs rest on (Theorem 2.1, Lemma 2.2).
///
/// # Example
///
/// ```
/// # use gossip_stats::{Poisson, SimRng};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = Poisson::new(4.0)?;
/// let mut rng = SimRng::seed_from_u64(5);
/// let _count: u64 = p.sample(&mut rng);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    rate: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with the given rate.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidRate`] when `rate` is not positive and
    /// finite.
    pub fn new(rate: f64) -> Result<Self, StatsError> {
        if rate.is_finite() && rate > 0.0 {
            Ok(Poisson { rate })
        } else {
            Err(StatsError::InvalidRate(rate))
        }
    }

    /// The rate (and mean) of the distribution.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Samples a count by counting exponential arrivals in `\[0, 1\]`.
    ///
    /// Exact for every rate; expected cost is `O(rate)`, which is fine for
    /// the validation workloads this crate serves (`rate ≤ 10^5` or so).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let mut t = 0.0;
        let mut count = 0u64;
        loop {
            t += sample_exp(self.rate, rng);
            if t > 1.0 {
                return count;
            }
            count += 1;
        }
    }

    /// `Pr[X = k]` evaluated stably in log space.
    pub fn pmf(&self, k: u64) -> f64 {
        let lk = k as f64;
        let log_p = -self.rate + lk * self.rate.ln() - ln_factorial(k);
        log_p.exp()
    }

    /// `Pr[X <= k]` by direct stable summation.
    pub fn cdf(&self, k: u64) -> f64 {
        (0..=k).map(|j| self.pmf(j)).sum::<f64>().min(1.0)
    }
}

/// `ln(k!)` via Stirling's series for large `k`, exact summation for small.
pub(crate) fn ln_factorial(k: u64) -> f64 {
    if k < 2 {
        return 0.0;
    }
    if k <= 64 {
        return (2..=k).map(|j| (j as f64).ln()).sum();
    }
    let x = k as f64;
    // Stirling with the first correction terms: error < 1e-10 for k > 64.
    x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
        - 1.0 / (360.0 * x * x * x)
}

/// A non-homogeneous Poisson process with a piecewise-evaluable rate
/// function, sampled by thinning (Lewis–Shedler).
///
/// The paper analyses the growth of the informed set as an NHPP whose rate
/// `λ(τ)` is the push–pull cut rate of Equation (1); Theorem 2.1 states that
/// the number of arrivals in `[a, b]` is Poisson with rate `∫_a^b λ`. The
/// simulators are cross-validated against this type in tests.
///
/// # Example
///
/// ```
/// # use gossip_stats::{Nhpp, SimRng};
/// let process = Nhpp::new(|t| 1.0 + t.sin().abs(), 2.0);
/// let mut rng = SimRng::seed_from_u64(9);
/// let arrivals = process.sample_arrivals(0.0, 10.0, &mut rng);
/// assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub struct Nhpp<F> {
    rate_fn: F,
    rate_bound: f64,
}

impl<F: Fn(f64) -> f64> Nhpp<F> {
    /// Creates an NHPP from a rate function and an upper bound on it.
    ///
    /// `rate_bound` must dominate `rate_fn` on every interval the process is
    /// sampled over; thinning silently under-counts otherwise (checked with
    /// a debug assertion at sample time).
    pub fn new(rate_fn: F, rate_bound: f64) -> Self {
        Nhpp {
            rate_fn,
            rate_bound,
        }
    }

    /// Evaluates the instantaneous rate at `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        (self.rate_fn)(t)
    }

    /// Samples all arrival times in `[a, b)` by thinning.
    ///
    /// # Panics
    ///
    /// Panics if `a > b`, `rate_bound` is not positive, or (debug builds)
    /// the rate function exceeds the bound.
    pub fn sample_arrivals(&self, a: f64, b: f64, rng: &mut SimRng) -> Vec<f64> {
        assert!(a <= b, "empty interval [{a}, {b})");
        assert!(self.rate_bound > 0.0, "rate bound must be positive");
        let mut arrivals = Vec::new();
        let mut t = a;
        loop {
            t += sample_exp(self.rate_bound, rng);
            if t >= b {
                return arrivals;
            }
            let lambda = (self.rate_fn)(t);
            debug_assert!(
                lambda <= self.rate_bound * (1.0 + 1e-12),
                "rate {lambda} exceeds bound {}",
                self.rate_bound
            );
            if rng.uniform_f64() * self.rate_bound < lambda {
                arrivals.push(t);
            }
        }
    }

    /// Integrates the rate function over `[a, b]` with Simpson's rule.
    ///
    /// Convenience for tests comparing empirical counts against
    /// Theorem 2.1's `Λ = ∫_a^b λ(τ) dτ`.
    pub fn integrate_rate(&self, a: f64, b: f64, panels: usize) -> f64 {
        assert!(panels > 0 && a <= b);
        let n = panels * 2;
        let h = (b - a) / n as f64;
        let mut sum = (self.rate_fn)(a) + (self.rate_fn)(b);
        for i in 1..n {
            let x = a + i as f64 * h;
            sum += (self.rate_fn)(x) * if i % 2 == 1 { 4.0 } else { 2.0 };
        }
        sum * h / 3.0
    }
}

impl<F> std::fmt::Debug for Nhpp<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nhpp")
            .field("rate_bound", &self.rate_bound)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunningMoments;

    #[test]
    fn exponential_rejects_bad_rates() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-3.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        assert!(Exponential::new(f64::INFINITY).is_err());
        assert!(Exponential::new(2.5).is_ok());
    }

    #[test]
    fn exponential_mean_matches() {
        let exp = Exponential::new(2.0).unwrap();
        let mut rng = SimRng::seed_from_u64(10);
        let mut m = RunningMoments::new();
        for _ in 0..50_000 {
            m.push(exp.sample(&mut rng));
        }
        assert!((m.mean() - 0.5).abs() < 0.01, "mean {}", m.mean());
        // Var of Exp(2) is 1/4.
        assert!((m.variance() - 0.25).abs() < 0.02, "var {}", m.variance());
    }

    #[test]
    fn exponential_memoryless_shape() {
        // P[X > 1] for Exp(1) is e^{-1}.
        let exp = Exponential::new(1.0).unwrap();
        let mut rng = SimRng::seed_from_u64(11);
        let n = 50_000;
        let over = (0..n).filter(|_| exp.sample(&mut rng) > 1.0).count();
        let freq = over as f64 / n as f64;
        assert!((freq - (-1.0f64).exp()).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn bernoulli_validates() {
        assert!(Bernoulli::new(-0.1).is_err());
        assert!(Bernoulli::new(1.1).is_err());
        assert!(Bernoulli::new(0.0).is_ok());
        assert!(Bernoulli::new(1.0).is_ok());
    }

    #[test]
    fn geometric_validates() {
        assert!(Geometric::new(0.0).is_err());
        assert!(Geometric::new(1.5).is_err());
        assert!(Geometric::new(1.0).is_ok());
    }

    #[test]
    fn geometric_mean_and_tail() {
        let g = Geometric::new(0.2).unwrap();
        assert!((g.mean() - 5.0).abs() < 1e-12);
        let mut rng = SimRng::seed_from_u64(12);
        let mut m = RunningMoments::new();
        for _ in 0..50_000 {
            m.push(g.sample(&mut rng) as f64);
        }
        assert!((m.mean() - 5.0).abs() < 0.1, "mean {}", m.mean());
        // tail(k) = 0.8^k
        assert!((g.tail(3) - 0.8f64.powi(3)).abs() < 1e-12);
    }

    #[test]
    fn geometric_tiny_p_samples_far_above_one() {
        // 1 − p rounds to 1 here; the samples must still be ≈ 1/p, not 1.
        for p in [1e-20, 1e-17] {
            let g = Geometric::new(p).unwrap();
            let mut rng = SimRng::seed_from_u64(14);
            for _ in 0..5 {
                assert!(g.sample(&mut rng) > 1 << 40, "p = {p}");
            }
        }
        // Just above the cut-over the cached log is today's `(1 - p).ln()`.
        let p = 1e-15;
        let g = Geometric::new(p).unwrap();
        let (mut a, mut b) = (SimRng::seed_from_u64(15), SimRng::seed_from_u64(15));
        for _ in 0..5 {
            let k = (b.uniform_open().ln() / (1.0 - p).ln()).ceil();
            assert_eq!(g.sample(&mut a), k as u64);
        }
    }

    #[test]
    fn geometric_p_one_always_one() {
        let g = Geometric::new(1.0).unwrap();
        let mut rng = SimRng::seed_from_u64(13);
        for _ in 0..100 {
            assert_eq!(g.sample(&mut rng), 1);
        }
    }

    #[test]
    fn poisson_mean_variance() {
        let p = Poisson::new(7.5).unwrap();
        let mut rng = SimRng::seed_from_u64(14);
        let mut m = RunningMoments::new();
        for _ in 0..30_000 {
            m.push(p.sample(&mut rng) as f64);
        }
        assert!((m.mean() - 7.5).abs() < 0.1, "mean {}", m.mean());
        assert!((m.variance() - 7.5).abs() < 0.25, "var {}", m.variance());
    }

    #[test]
    fn poisson_pmf_sums_to_one() {
        let p = Poisson::new(3.0).unwrap();
        let total: f64 = (0..60).map(|k| p.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-10, "total {total}");
    }

    #[test]
    fn poisson_cdf_monotone() {
        let p = Poisson::new(5.0).unwrap();
        let mut prev = 0.0;
        for k in 0..30 {
            let c = p.cdf(k);
            assert!(c >= prev);
            prev = c;
        }
        assert!((prev - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ln_factorial_agrees_with_direct() {
        // Check the Stirling branch against exact log-sums.
        for k in [65u64, 100, 500, 1000] {
            let exact: f64 = (2..=k).map(|j| (j as f64).ln()).sum();
            assert!((ln_factorial(k) - exact).abs() < 1e-8, "k={k}");
        }
    }

    #[test]
    fn nhpp_constant_rate_matches_homogeneous() {
        // With a constant rate the NHPP is an ordinary Poisson process.
        let process = Nhpp::new(|_| 3.0, 3.0);
        let mut rng = SimRng::seed_from_u64(15);
        let mut m = RunningMoments::new();
        for _ in 0..5_000 {
            m.push(process.sample_arrivals(0.0, 2.0, &mut rng).len() as f64);
        }
        // E = Var = 6.
        assert!((m.mean() - 6.0).abs() < 0.15, "mean {}", m.mean());
        assert!((m.variance() - 6.0).abs() < 0.5, "var {}", m.variance());
    }

    #[test]
    fn nhpp_linear_rate_integral() {
        // λ(t) = t on [0, 4] integrates to 8 (Theorem 2.1: count ~ Poisson(8)).
        let process = Nhpp::new(|t| t, 4.0);
        assert!((process.integrate_rate(0.0, 4.0, 16) - 8.0).abs() < 1e-9);
        let mut rng = SimRng::seed_from_u64(16);
        let mut m = RunningMoments::new();
        for _ in 0..5_000 {
            m.push(process.sample_arrivals(0.0, 4.0, &mut rng).len() as f64);
        }
        assert!((m.mean() - 8.0).abs() < 0.2, "mean {}", m.mean());
    }

    #[test]
    fn nhpp_arrivals_sorted_within_interval() {
        let process = Nhpp::new(|t| 0.5 + 0.5 * (t * 0.7).cos().abs(), 1.0);
        let mut rng = SimRng::seed_from_u64(17);
        let arrivals = process.sample_arrivals(2.0, 9.0, &mut rng);
        for w in arrivals.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(arrivals.iter().all(|&t| (2.0..9.0).contains(&t)));
    }
}
