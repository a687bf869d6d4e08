//! Exact draw kernels for bulk sampling: 64 Bernoulli coins per word
//! ([`BernoulliWords`]) and geometric skips driven by a ziggurat `Exp(1)`
//! ([`GeometricSkip`]).
//!
//! They serve the edge-Markovian step, which draws a death coin per
//! current edge and a geometric skip per birth. Each kernel is exact up
//! to floating point: a word's lanes are independent Bernoulli(q) with
//! `P = q` for the `f64` value of `q`, and a skip has `P(G > k) = (1−p)^k`.
//! Their streams differ from [`SimRng::chance`] and [`crate::Geometric`],
//! which keep theirs.

use crate::SimRng;
use std::sync::OnceLock;

/// 64 independent Bernoulli(`q`) coins per `u64` word.
///
/// Lane `i` compares a uniform real `U_i ∈ [0, 1)` with `q`, one binary
/// digit at a time: draw `k` supplies digit `k` of every lane at once (bit
/// `i` of the `k`-th [`SimRng::next_u64`]). A lane is 1 when its first
/// digit that differs from `q`'s expansion is a 0 against a 1 (`U_i < q`)
/// and 0 in the other case; a lane that still agrees once `q`'s finite
/// expansion has ended is 0 (`U_i ≥ q`). So `P(lane = 1) = q` exactly,
/// lanes read disjoint bits and are independent, and a word ends when its
/// last lane is decided: each draw decides half the open lanes, so a word
/// costs ≈ 7.3 draws whatever `q` is. `q = 0` and `q = 1` draw nothing.
///
/// # Example
///
/// ```
/// # use gossip_stats::{BernoulliWords, SimRng};
/// let coins = BernoulliWords::new(0.5);
/// let mut rng = SimRng::seed_from_u64(1);
/// let word = coins.word(&mut rng);
/// assert!(word.count_ones() <= 64);
/// assert_eq!(BernoulliWords::new(1.0).word(&mut rng), u64::MAX);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BernoulliWords {
    /// The word when no draw is needed (`q` is 0 or 1).
    fixed: Option<u64>,
    /// How many leading binary digits of `q` are 0 before its first 1.
    zeros: u32,
    /// `q`'s digits from its first 1 on, left-aligned (bit 63 first).
    digits: u64,
}

impl BernoulliWords {
    /// Coins that land 1 with probability `q`, clamped to `\[0, 1\]` as
    /// [`SimRng::chance`] clamps it.
    pub fn new(q: f64) -> Self {
        if q.is_nan() || q <= 0.0 {
            return BernoulliWords {
                fixed: Some(0),
                zeros: 0,
                digits: 0,
            };
        }
        if q >= 1.0 {
            return BernoulliWords {
                fixed: Some(u64::MAX),
                zeros: 0,
                digits: 0,
            };
        }
        // q = mantissa · 2^exponent with an integer mantissa of at most 53
        // bits; its top bit is binary digit `-(top + exponent)` of q.
        let bits = q.to_bits();
        let biased = (bits >> 52) as i64;
        let fraction = bits & ((1 << 52) - 1);
        let (mantissa, exponent) = if biased == 0 {
            (fraction, -1074)
        } else {
            (fraction | 1 << 52, biased - 1075)
        };
        let top = 63 - i64::from(mantissa.leading_zeros());
        BernoulliWords {
            fixed: None,
            zeros: (-(top + exponent) - 1) as u32,
            digits: mantissa << (63 - top),
        }
    }

    /// One word of 64 coins.
    #[inline]
    pub fn word(&self, rng: &mut SimRng) -> u64 {
        if let Some(word) = self.fixed {
            return word;
        }
        // `open` marks the lanes whose uniform still agrees with q's
        // digits so far.
        let mut open = u64::MAX;
        for _ in 0..self.zeros {
            // Digit 0: a lane drawing 1 is above q.
            open &= !rng.next_u64();
            if open == 0 {
                return 0;
            }
        }
        let mut ones = 0;
        let mut digits = self.digits;
        while digits != 0 && open != 0 {
            let r = rng.next_u64();
            // All ones when q's digit is 1: a lane drawing 0 is below q.
            let one = 0u64.wrapping_sub(digits >> 63);
            ones |= open & !r & one;
            open &= r ^ !one;
            digits <<= 1;
        }
        ones
    }
}

/// `R`, the right edge of the ziggurat's base layer (Marsaglia and Tsang,
/// 2000, 256 layers of area [`ZIGGURAT_V`] under `e^{−x}`).
const ZIGGURAT_R: f64 = 7.697_117_470_131_05;

/// The common area of the 256 layers.
const ZIGGURAT_V: f64 = 0.003_949_659_822_581_557;

/// The uniform's resolution: 56 bits of each draw, the low 8 pick a layer.
const SCALE: f64 = (1u64 << 56) as f64;

/// The ziggurat's per-layer constants, built once per process.
#[derive(Debug)]
struct Tables {
    /// `limit[i]`: a uniform `j` below it lies under the curve at once.
    limit: [u64; 256],
    /// `width[i]`: layer `i`'s width over [`SCALE`], so `x = j · width[i]`.
    width: [f64; 256],
    /// `f[i] = e^{−x_i}`, the curve's height at layer `i`'s right edge
    /// (`f[0] = 1`, the apex).
    f: [f64; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Tables {
            limit: [0; 256],
            width: [0.0; 256],
            f: [0.0; 256],
        };
        // Layer 0 is the base: the rectangle [0, R] × [0, e^{−R}] plus
        // the tail, as wide as area v over height e^{−R}. Layers 255 down
        // to 1 stack above it, each of area v: layer i spans
        // [0, x_i] × [e^{−x_i}, e^{−x_{i−1}}], x_255 = R, x_0 = 0.
        let base = ZIGGURAT_V / (-ZIGGURAT_R).exp();
        t.width[0] = base / SCALE;
        t.limit[0] = (ZIGGURAT_R / base * SCALE) as u64;
        t.f[0] = 1.0;
        let mut x = ZIGGURAT_R;
        t.width[255] = x / SCALE;
        t.f[255] = (-x).exp();
        for i in (1..255).rev() {
            let next = -(ZIGGURAT_V / x + (-x).exp()).ln();
            t.limit[i + 1] = (next / x * SCALE) as u64;
            t.width[i] = next / SCALE;
            t.f[i] = (-next).exp();
            x = next;
        }
        // The apex layer has no inner rectangle: every draw takes the
        // wedge test.
        t.limit[1] = 0;
        t
    })
}

/// `Exp(1)` by a 256-layer ziggurat (Marsaglia and Tsang, 2000).
///
/// A draw picks a layer from the low 8 bits of one [`SimRng::next_u64`]
/// and a uniform `j` from its top 56; about 99% of draws land inside the
/// layer's inner rectangle and cost that draw, a compare and a multiply.
/// The rest take the wedge test against `e^{−x}` or, from the base layer,
/// `R + Exp(1)` for the tail beyond `R`, which is exact by memorylessness.
#[derive(Debug, Clone, Copy)]
struct ZigguratExp {
    tables: &'static Tables,
}

impl ZigguratExp {
    /// The sampler (its tables are built by the first one in a process).
    fn new() -> Self {
        ZigguratExp { tables: tables() }
    }

    /// One `Exp(1)` variate.
    #[inline]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let r = rng.next_u64();
        let (i, j) = ((r & 0xff) as usize, r >> 8);
        if j < self.tables.limit[i] {
            return j as f64 * self.tables.width[i];
        }
        self.sample_slow(rng, i, j)
    }

    #[cold]
    fn sample_slow(&self, rng: &mut SimRng, mut i: usize, mut j: u64) -> f64 {
        let t = self.tables;
        loop {
            if i == 0 {
                return ZIGGURAT_R - rng.uniform_open().ln();
            }
            let x = j as f64 * t.width[i];
            if t.f[i] + rng.uniform_f64() * (t.f[i - 1] - t.f[i]) < (-x).exp() {
                return x;
            }
            let r = rng.next_u64();
            (i, j) = ((r & 0xff) as usize, r >> 8);
            if j < t.limit[i] {
                return j as f64 * t.width[i];
            }
        }
    }
}

/// Geometric skips `G ≥ 1` with `P(G > k) = (1 − p)^k`: the gap to the
/// next success in a run of Bernoulli(`p`) trials.
///
/// A skip is `⌊E/λ⌋ + 1` for `E ~ Exp(1)`, drawn by a 256-layer ziggurat
/// (Marsaglia and Tsang, 2000; about 99% of draws cost one
/// [`SimRng::next_u64`], a compare and a multiply), and
/// `λ = −ln(1 − p)`, computed as `−ln_1p(−p)` so that a tiny `p` keeps
/// its rate; `1/λ` is taken once, and a skip too large for a `u64`
/// saturates at `u64::MAX`. No logarithm per draw, unlike
/// [`crate::Geometric::sample`], whose stream the seeded `G(n, p)` rows
/// keep.
///
/// # Example
///
/// ```
/// # use gossip_stats::{GeometricSkip, SimRng};
/// let skip = GeometricSkip::new(0.25).unwrap();
/// let mut rng = SimRng::seed_from_u64(3);
/// assert!(skip.sample(&mut rng) >= 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GeometricSkip {
    exp: ZigguratExp,
    /// `1/λ`; 0 when `p` is 1, so every skip is 1.
    scale: f64,
}

impl GeometricSkip {
    /// Skips for success probability `p`; `None` unless `0 < p ≤ 1`.
    pub fn new(p: f64) -> Option<Self> {
        (p > 0.0 && p <= 1.0).then(|| GeometricSkip {
            exp: ZigguratExp::new(),
            scale: -1.0 / (-p).ln_1p(),
        })
    }

    /// One skip, at least 1.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        // The cast saturates (and maps 0 · ∞ = NaN, impossible here, to 0).
        ((self.exp.sample(rng) * self.scale) as u64).saturating_add(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Φ⁻¹(1 − 10⁻⁶/2)`: a z-test bound that a correct kernel crosses
    /// about once in a million runs.
    const Z: f64 = 4.89;

    #[test]
    fn words_draw_nothing_at_zero_and_one() {
        for (q, word) in [(0.0, 0), (-0.5, 0), (1.0, u64::MAX), (1.5, u64::MAX)] {
            let coins = BernoulliWords::new(q);
            let mut rng = SimRng::seed_from_u64(1);
            for _ in 0..10 {
                assert_eq!(coins.word(&mut rng), word, "q = {q}");
            }
            assert_eq!(
                rng.next_u64(),
                SimRng::seed_from_u64(1).next_u64(),
                "q = {q}"
            );
        }
    }

    #[test]
    fn words_read_the_digits_of_q() {
        let half = BernoulliWords::new(0.5);
        assert_eq!((half.zeros, half.digits), (0, 1 << 63));
        let fifth = BernoulliWords::new(0.2);
        // 0.2 = 0.0011 0011 …
        assert_eq!(fifth.zeros, 2);
        assert_eq!(fifth.digits >> 60, 0b1100);
        let tiny = BernoulliWords::new(2f64.powi(-40));
        assert_eq!((tiny.zeros, tiny.digits), (39, 1 << 63));
        let subnormal = BernoulliWords::new(f64::from_bits(1));
        assert_eq!((subnormal.zeros, subnormal.digits), (1073, 1 << 63));
    }

    /// Per-lane frequency (z-test over the words) and lane-pair
    /// independence (2×2 chi-square on adjacent and distant lanes).
    #[test]
    fn word_lanes_are_independent_bernoulli() {
        let words = 40_000;
        for (at, q) in [0.2, 1.0 / 3.0, 0.5, 2f64.powi(-40)]
            .into_iter()
            .enumerate()
        {
            let coins = BernoulliWords::new(q);
            let mut rng = SimRng::seed_from_u64(100 + at as u64);
            let mut ones = [0u64; 64];
            let pairs = [(0, 1), (31, 32), (62, 63), (5, 40)];
            let mut table = [[0u64; 4]; 4];
            for _ in 0..words {
                let w = coins.word(&mut rng);
                for (lane, count) in ones.iter_mut().enumerate() {
                    *count += w >> lane & 1;
                }
                for (cells, &(a, b)) in table.iter_mut().zip(&pairs) {
                    cells[(2 * (w >> a & 1) + (w >> b & 1)) as usize] += 1;
                }
            }
            let sd = (words as f64 * q * (1.0 - q)).sqrt();
            for (lane, &count) in ones.iter().enumerate() {
                let z = (count as f64 - words as f64 * q) / sd;
                assert!(z.abs() < Z, "q = {q}, lane {lane}: z = {z}");
            }
            if q < 1e-6 {
                // Too rare for a chi-square; a word with a one at all
                // would be a 2⁻³⁴ event per lane here.
                assert!(ones.iter().all(|&c| c == 0), "q = 2⁻⁴⁰");
                continue;
            }
            for (cells, pair) in table.iter().zip(&pairs) {
                let expected = [(1.0 - q) * (1.0 - q), (1.0 - q) * q, q * (1.0 - q), q * q];
                let chi2: f64 = cells
                    .iter()
                    .zip(expected)
                    .map(|(&o, e)| {
                        let e = e * words as f64;
                        (o as f64 - e).powi(2) / e
                    })
                    .sum();
                // The four cells against q's product law: χ²(3), whose
                // 10⁻⁶ point is 30.66.
                assert!(chi2 < 30.7, "q = {q}, lanes {pair:?}: chi2 = {chi2}");
            }
        }
    }

    #[test]
    fn words_cost_a_handful_of_draws() {
        // E[max of 64 Geometric(1/2)] ≈ 7.3 draws per word.
        let coins = BernoulliWords::new(0.2);
        let words = 10_000;
        let mut rng = SimRng::seed_from_u64(7);
        let mut counter = rng.clone();
        for _ in 0..words {
            let _ = coins.word(&mut rng);
        }
        let next = rng.next_u64();
        let mut draws = 0;
        while counter.next_u64() != next {
            draws += 1;
        }
        let per_word = draws as f64 / words as f64;
        assert!((6.5..8.5).contains(&per_word), "{per_word} draws per word");
    }

    /// One-sample KS statistic of `sample` against the CDF `cdf`.
    fn ks_against(sample: &mut [f64], cdf: impl Fn(f64) -> f64) -> f64 {
        sample.sort_by(f64::total_cmp);
        let n = sample.len() as f64;
        sample
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let f = cdf(x);
                (f - i as f64 / n).max((i + 1) as f64 / n - f)
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn ziggurat_matches_the_exponential_cdf() {
        let exp = ZigguratExp::new();
        let mut rng = SimRng::seed_from_u64(11);
        let n = 200_000;
        let mut sample: Vec<f64> = (0..n).map(|_| exp.sample(&mut rng)).collect();
        assert!(sample.iter().all(|&x| x >= 0.0 && x.is_finite()));
        let mean = sample.iter().sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < Z / (n as f64).sqrt(), "mean {mean}");
        let d = ks_against(&mut sample, |x| 1.0 - (-x).exp());
        // The α = 10⁻³ critical value √(−ln(α/2)/2)/√n.
        let critical = (-(0.0005f64).ln() / 2.0).sqrt() / (n as f64).sqrt();
        assert!(d < critical, "KS {d} against {critical}");
    }

    #[test]
    fn ziggurat_tail_beyond_r_has_its_mass() {
        // P(E > R) = e^{−R} ≈ 4.5·10⁻⁴, and beyond R the excess is Exp(1).
        let exp = ZigguratExp::new();
        let mut rng = SimRng::seed_from_u64(12);
        let n = 2_000_000;
        let mut excess = Vec::new();
        for _ in 0..n {
            let x = exp.sample(&mut rng);
            if x > ZIGGURAT_R {
                excess.push(x - ZIGGURAT_R);
            }
        }
        let p = (-ZIGGURAT_R).exp();
        let z = (excess.len() as f64 - n as f64 * p) / (n as f64 * p * (1.0 - p)).sqrt();
        assert!(z.abs() < Z, "{} beyond R: z = {z}", excess.len());
        let mean = excess.iter().sum::<f64>() / excess.len() as f64;
        let sd = 1.0 / (excess.len() as f64).sqrt();
        assert!((mean - 1.0).abs() < Z * sd, "mean excess {mean}");
    }

    #[test]
    fn ziggurat_layers_tile_the_curve() {
        let t = tables();
        // The stack closes at the apex: layer 1's top is e^{−x_0} = 1 with
        // x_0 ≈ 0, so its width times (1 − f[1]) is the common area.
        let x1 = t.width[1] * SCALE;
        assert!((x1 * (1.0 - t.f[1]) - ZIGGURAT_V).abs() < 1e-9);
        assert!(t.f.windows(2).all(|w| w[0] > w[1]));
        for i in 2..256 {
            assert!(t.width[i] > t.width[i - 1], "layer {i}");
            assert!(t.limit[i] < 1 << 56, "layer {i}");
        }
    }

    #[test]
    fn skip_pmf_is_geometric() {
        for (at, p) in [0.002, 0.3].into_iter().enumerate() {
            let skip = GeometricSkip::new(p).unwrap();
            let mut rng = SimRng::seed_from_u64(20 + at as u64);
            let n = 200_000;
            // Cells of `width` skips and the tail past the last, each
            // expecting ≥ 50 samples.
            let cells = if p > 0.1 { 12 } else { 30 };
            let mut counts = vec![0u64; cells + 1];
            let width = if p > 0.1 { 1 } else { 100 };
            for _ in 0..n {
                let g = skip.sample(&mut rng);
                assert!(g >= 1);
                counts[(((g - 1) / width) as usize).min(cells)] += 1;
            }
            let tail = |k: u64| (1.0 - p).powf(k as f64);
            let chi2: f64 = counts
                .iter()
                .enumerate()
                .map(|(c, &o)| {
                    let lo = tail(c as u64 * width);
                    let hi = if c == cells {
                        0.0
                    } else {
                        tail((c as u64 + 1) * width)
                    };
                    let e = (lo - hi) * n as f64;
                    assert!(e >= 50.0, "p = {p}: cell {c} expects {e}");
                    (o as f64 - e).powi(2) / e
                })
                .sum();
            // χ² with `cells` degrees of freedom at 10⁻⁶: 50.8 (12), 82.0
            // (30).
            let bound = if cells == 12 { 50.8 } else { 82.0 };
            assert!(chi2 < bound, "p = {p}: chi2 = {chi2}");
        }
    }

    #[test]
    fn skip_extremes() {
        assert!(GeometricSkip::new(0.0).is_none());
        assert!(GeometricSkip::new(1.5).is_none());
        let mut rng = SimRng::seed_from_u64(30);
        let one = GeometricSkip::new(1.0).unwrap();
        assert!((0..100).all(|_| one.sample(&mut rng) == 1));
        // 1 − p rounds to 1 here; the skips must still be ≈ 1/p.
        let tiny = GeometricSkip::new(1e-20).unwrap();
        assert!((0..100).all(|_| tiny.sample(&mut rng) > 1 << 50));
    }
}
