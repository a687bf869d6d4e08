//! # gossip-sim
//!
//! Rumor-spreading process simulators for the `dynamic-rumor` workspace,
//! the Rust reproduction of *Tight Analysis of Asynchronous Rumor Spreading
//! in Dynamic Networks* (Pourmiri & Mans, PODC 2020).
//!
//! The paper's Definition 1 process: every node owns a rate-1 exponential
//! clock; on a tick it contacts a uniformly random neighbor in the graph
//! currently exposed by the dynamic network, and the rumor crosses the
//! contacted edge in either direction (push–pull). Two *exact* simulators
//! implement it:
//!
//! * [`AsyncPushPull`] — naive event-driven simulation of every clock tick
//!   (rate-`n` global Poisson clock, uniform node, uniform neighbor);
//! * [`CutRateAsync`] — simulates only *informative* events: by the order
//!   statistics of exponentials (the paper's Equation (1)), the next newly
//!   informed node arrives after `Exp(λ)` with
//!   `λ = Σ_{{u,v}∈E(I,U)} (1/d_u + 1/d_v)` and is node `v` with
//!   probability proportional to its in-rate. Identical distribution,
//!   `O(events · log n)` instead of `O(n·T)` work — and on implicit
//!   structured backends (complete / star [`gossip_graph::Topology`]
//!   values) the rate vector collapses to
//!   closed-form counters, `O(1)` per infection and `O(n)` per run.
//!
//! Protocols consume [`gossip_graph::Topology`] views rather than
//! materialized graphs, so dense families run without `O(n²)` adjacency in
//! memory; see the `gossip-graph` crate docs for the backend contract.
//!
//! Both are statistically cross-validated in this crate's tests.
//!
//! Also provided: [`SyncPushPull`] (round-based, Theorem 1.7 comparisons),
//! [`AsyncPush`]/[`AsyncPull`] one-directional variants, [`TwoPush`] and
//! [`ForwardTwoPush`] (the Section 4 coupling processes), [`Flooding`],
//! and the window-by-window [`Simulation`] engine.
//!
//! Faults — message drop, node liveness, and the live runtime's delivery
//! chaos — are one [`FaultModel`] with one keyed [`Liveness`] machine,
//! shared with `gossip-net` and attached with [`RunPlan::faults`].
//!
//! Multi-trial execution goes through **[`RunPlan`]** — the single trial
//! driver: wrap the protocol in [`AnyProtocol`] (`AnyProtocol::event`
//! for incrementally-capable protocols, `AnyProtocol::window`
//! otherwise), pick an [`Engine`] (default [`Engine::Auto`]), and attach
//! streaming [`TrialObserver`]s ([`SummarySink`], [`JsonlSink`],
//! [`TrajectorySink`]) for per-trial output. Each worker recycles its
//! per-trial scratch (informed set, pools, buffers) through a
//! [`SimWorkspace`] and the parallel path delivers records in batches, so
//! small-n/high-trial sweeps are simulator-bound rather than
//! allocator-bound; results are bit-identical to one
//! [`EventSimulation::run`] / [`Simulation::run`] call per trial, each
//! allocating afresh. What runs one trial is a
//! per-worker [`TrialExecutor`]: the window and event engines are the
//! built-in ones, and [`RunPlan::execute_with`] drives any other (the
//! live `gossip-net` runtime) under the same seeding and delivery
//! contract.
//!
//! # Example
//!
//! ```
//! use gossip_dynamics::StaticNetwork;
//! use gossip_graph::generators;
//! use gossip_sim::{CutRateAsync, RunConfig, Simulation};
//! use gossip_stats::SimRng;
//!
//! let mut rng = SimRng::seed_from_u64(1);
//! let g = generators::complete(32).unwrap();
//! let mut net = StaticNetwork::new(g);
//! let outcome = Simulation::new(CutRateAsync::new(), RunConfig::default())
//!     .run(&mut net, 0, &mut rng)
//!     .unwrap();
//! assert!(outcome.complete());
//! // Complete graphs finish in Θ(log n) time.
//! assert!(outcome.spread_time().unwrap() < 20.0);
//! ```

//!
//! See the workspace `README.md` (repo root) for the crate map and the
//! window / event-stream engine duality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod async_cut;
mod async_naive;
mod contacts;
mod engine;
mod error;
mod event;
mod fault;
mod flooding;
mod incremental;
mod observer;
mod plan;
mod protocol;
mod summary;
mod sync;
mod two_push;
mod workspace;

pub use async_cut::CutRateAsync;
pub use async_naive::{AsyncPull, AsyncPush, AsyncPushPull};
pub use engine::{RunConfig, Simulation, SpreadOutcome};
pub use error::SimError;
pub use event::EventSimulation;
pub use fault::{keyed_coin, splitmix, FaultModel, FaultState, Liveness, TrialError, TrialOutcome};
pub use flooding::Flooding;
pub use incremental::{IncrementalProtocol, WindowCtx, WindowStep};
pub use observer::{
    JsonlSink, SummarySink, TrajectorySink, TrialObserver, TrialRecord, TrialTrajectory,
};
pub use plan::{AnyProtocol, Engine, RunPlan, RunReport, TrialExecutor};
pub use protocol::Protocol;
pub use summary::TrialSummary;
pub use sync::{SyncPull, SyncPush, SyncPushPull};
pub use two_push::{ForwardTwoPush, TwoPush};
pub use workspace::{SimWorkspace, WorkspacePool};
