//! # gossip-stats
//!
//! Probability and statistics substrate for the `dynamic-rumor` workspace,
//! the Rust reproduction of *Tight Analysis of Asynchronous Rumor Spreading
//! in Dynamic Networks* (Pourmiri & Mans, PODC 2020).
//!
//! Everything stochastic in the workspace flows through this crate so that
//! every simulation and experiment is reproducible from a single `u64` seed:
//!
//! * [`SimRng`] — the deterministic, seedable random source,
//! * [`Exponential`], [`Poisson`], [`Geometric`] — the distributions the
//!   paper's processes are built from,
//! * [`BernoulliWords`], [`GeometricSkip`] — exact bulk
//!   kernels for the edge-Markovian step's coins and birth skips,
//! * [`Nhpp`] — non-homogeneous Poisson processes by thinning (paper
//!   Theorem 2.1 is validated against it),
//! * [`FenwickSampler`] — O(log n) weighted sampling, the engine of the
//!   exact cut-rate simulator,
//! * [`RunningMoments`], [`Quantiles`], [`Histogram`] — summary statistics
//!   for the experiment harness,
//! * [`tail`] — the paper's tail bounds (Lemma 2.2, Theorem A.1) as
//!   executable predicates,
//! * [`ks`] — Kolmogorov–Smirnov distance used to check that the exact
//!   accelerated simulator agrees with the naive one.
//!
//! # Example
//!
//! ```
//! use gossip_stats::{SimRng, Exponential};
//!
//! let mut rng = SimRng::seed_from_u64(42);
//! let exp = Exponential::new(2.0).unwrap();
//! let x = exp.sample(&mut rng);
//! assert!(x >= 0.0);
//! ```

//!
//! See the workspace `README.md` (repo root) for the crate map and the
//! window / event-stream engine duality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fenwick;
mod harmonic;
mod histogram;
mod kernels;
pub mod ks;
mod moments;
mod outcomes;
mod quantiles;
mod rng;
mod sampling;
pub mod series;
mod sorted;
pub mod tail;

pub use error::StatsError;
pub use fenwick::FenwickSampler;
pub use harmonic::{harmonic, harmonic_ratio};
pub use histogram::Histogram;
pub use kernels::{BernoulliWords, GeometricSkip};
pub use moments::RunningMoments;
pub use outcomes::OutcomeCounts;
pub use quantiles::Quantiles;
pub use rng::SimRng;
pub use sampling::{Bernoulli, Exponential, Geometric, Nhpp, Poisson};
pub use sorted::SortedSample;
