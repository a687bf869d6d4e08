//! `gossip-net` — the live asynchronous gossip runtime.
//!
//! Where the analytic engines (`gossip-sim`) *compute* the asynchronous
//! rumor-spreading process of Pourmiri–Mehrabian by drawing from its
//! exact event distribution, this crate *enacts* it: every node is an
//! actor with an independent rate-1 exponential activation clock, and
//! every contact is a real [`Envelope`] routed between node groups by a
//! pluggable [`Delivery`] transport. The point is twofold —
//!
//! 1. **Cross-validation.** An implementation of the protocol that
//!    shares no event-loop code with the analytic engines, whose
//!    spread-time distributions must still agree with them
//!    (KS-enforced in `tests/cross_validation.rs`). Agreement here
//!    validates both stacks at once.
//! 2. **Scale & distribution.** Nodes are multiplexed N-per-thread into
//!    node groups; the same runtime drives a million in-process nodes
//!    over [`LocalDelivery`] or spans processes over [`UdpDelivery`]
//!    without touching protocol code.
//!
//! # Architecture
//!
//! ```text
//!   ScenarioSpec ──► SweepPlan ───────────► NetSweep
//!   (family, proto,  (gossip-core: journal,  (LiveRunner: the live
//!    [faults], [net]) resume, serve cache)    topology of each cell,
//!                                             counters)
//!                                               │ RunPlan (seeds, observers)
//!                                               ▼
//!                                             NetExecutor (stall retry, traffic)
//!                                               │ run_trial
//!                                               ▼
//!              ┌─────────────┐             ┌─────────────┐
//!              │ node group 0│  Envelopes  │ node group 1│   … one thread
//!              │ clocks+state│◄───────────►│ clocks+state│     per group
//!              │  + Liveness │             │  + Liveness │
//!              └──────┬──────┘             └──────┬──────┘
//!                     └────────► Delivery ◄───────┘
//!                        LocalDelivery / UdpDelivery
//!                      (+ ChaosGate fault injection)
//! ```
//!
//! Virtual time advances in epochs of one `tick` (the message latency);
//! each epoch every group processes its clock firings and arrivals in
//! timestamp order, then all groups exchange envelopes and agree on the
//! next occupied epoch. Because every random draw is keyed by `(trial
//! seed, node, activation)` and every message pays the same one-tick
//! latency, results are **bit-identical across group counts and
//! transports** — parallelism and distribution are pure implementation
//! detail. Fault injection keeps that contract. It runs the shared
//! `gossip_sim::FaultModel`: node crash/recovery through the analytic
//! engine's own keyed `gossip_sim::Liveness` machine (same up/down state
//! per node and window as an analytic trial with the same seeds), and
//! drop / partition / delay / duplication through the [`ChaosGate`]'s
//! keyed per-`(src, seq)` coins — never draws from shared streams. See
//! [`runtime`] for the full determinism contract and [`fault`] for the
//! fault semantics.
//!
//! # Entry points
//!
//! * [`run_trial`] — one trial on an explicit [`Topology`].
//! * [`NetExecutor`] — [`run_trial`] as a `gossip_sim::RunPlan` trial
//!   executor: seeded batches streaming
//!   [`TrialRecord`](gossip_sim::TrialRecord)s into `gossip-sim`
//!   observers, with the traffic counters in a [`NetTraffic`].
//! * [`NetSweep`] — the live cell runner of a `ScenarioSpec`: attached
//!   to the spec's `gossip_core` `SweepPlan`, it runs every cell of a
//!   spec whose `[net]` table selects the live runtime (the path of
//!   `gossip scenario run`, `gossip net run` and `gossip serve`), with
//!   its counters in [`NetTotals`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delivery;
pub mod envelope;
pub mod error;
pub mod fault;
pub mod runtime;
pub mod scenario;
pub mod udp;

pub use delivery::{Delivery, DeliveryKind, EpochFlush, EpochUpdate, LocalDelivery, Router};
pub use envelope::{Envelope, Payload, WIRE_BYTES};
pub use error::NetError;
pub use fault::ChaosGate;
pub use runtime::{run_trial, NetConfig, NetExecutor, NetProtocol, NetTraffic, NetTrial};
pub use scenario::{build_live_topology, NetSweep, NetTotals};
pub use udp::UdpDelivery;

// Re-exported so downstream code can name the topology/observer types the
// entry points consume without an extra dependency edge.
pub use gossip_graph::Topology;
