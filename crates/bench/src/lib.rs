//! # gossip-bench
//!
//! Experiment and benchmark harness for the `dynamic-rumor` workspace.
//!
//! Every theorem-level result of *Tight Analysis of Asynchronous Rumor
//! Spreading in Dynamic Networks* (Pourmiri & Mans, PODC 2020) has one
//! experiment module here, listed once in [`experiments::ALL`]; the
//! `gossip` CLI runs them:
//!
//! ```text
//! gossip experiment --id E7           # full scale
//! gossip experiment --id E7 --quick   # CI scale
//! gossip experiment --id ALL --quick  # everything
//! ```
//!
//! The criterion benches under `benches/` time the building blocks and
//! the engines; `benches/engine.rs` writes `BENCH_engine.json` at the
//! repository root.
//!
//! Each experiment returns its report as a `String` (so the test suite can
//! execute quick-scale versions and assert the verdicts) and follows the
//! same layout: header (from the [`gossip_core::experiment`] catalog),
//! series table, one-line `VERDICT`.

//!
//! See the workspace `README.md` (repo root) for the crate map and the
//! window / event-stream engine duality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod scale;

pub use scale::Scale;
