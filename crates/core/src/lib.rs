//! # gossip-core
//!
//! The primary contribution of *Tight Analysis of Asynchronous Rumor
//! Spreading in Dynamic Networks* (Pourmiri & Mans, PODC 2020) as an
//! executable library:
//!
//! * [`bounds`] — the spread-time stopping rules:
//!   Theorem 1.1 (`T(G,c) = min{t : Σ Φ(G(p))·ρ(p) ≥ C log n}` with
//!   `C = (10c+20)/c₀`, `c₀ = 1/2 − 1/e`), Theorem 1.3
//!   (`T_abs = min{t : Σ ⌈Φ⌉·ρ̄ ≥ 2n}`), their combination Corollary 1.6,
//!   and the Giakkoupis–Sauerwald–Stauffer \[17\] baseline the paper improves
//!   on;
//! * [`tracking`] — runs a simulator and the bound accumulators on the
//!   *same* trajectory, so every experiment can print "measured vs
//!   predicted" per run;
//! * [`predictions`] — the paper's closed-form growth laws (Theorem 1.2
//!   `Ω(nρ/k)`, Theorem 1.5 `Ω(n/ρ)`, Remark 1.4 `O(n²)`,
//!   Theorem 1.7(iii) tails, Observation 4.1 profiles);
//! * [`experiment`] — the machine-readable experiment index mapping each
//!   theorem/figure to the bench binary that regenerates it;
//! * [`report`] — shared text rendering for experiment binaries;
//! * [`profile`] — re-export of the per-step profile types.
//!
//! # Example
//!
//! ```
//! use gossip_core::bounds;
//! use gossip_core::profile::StepProfile;
//!
//! // A dynamic star: Φ = ρ = 1 at every step, so Theorem 1.1 stops after
//! // C·log n steps.
//! let star = StepProfile { phi: 1.0, rho: 1.0, rho_abs: 1.0, connected: true };
//! let result = bounds::theorem_1_1(|_| star, 1024, 1.0, 1_000_000).unwrap();
//! let expected = gossip_stats::tail::theorem_1_1_constant(1.0) * (1024f64).ln();
//! assert_eq!(result.steps, expected.ceil() as u64);
//! ```

//!
//! See the workspace `README.md` (repo root) for the crate map and the
//! window / event-stream engine duality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod experiment;
pub mod journal;
mod lossy;
pub mod predictions;
pub mod profile;
pub mod report;
pub mod scenario;
pub mod tracking;
