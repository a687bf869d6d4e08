//! # gossip-graph
//!
//! Graph substrate for the `dynamic-rumor` workspace, the Rust reproduction
//! of *Tight Analysis of Asynchronous Rumor Spreading in Dynamic Networks*
//! (Pourmiri & Mans, PODC 2020).
//!
//! The crate provides:
//!
//! * [`Graph`] — an immutable CSR (compressed sparse row) simple graph with
//!   O(1) degree lookups and contiguous neighbor slices, built through
//!   [`GraphBuilder`];
//! * [`Topology`] — the graph *view* the simulators consume: implicit
//!   closed-form backends (complete, star, circulant, two bridged
//!   cliques) with O(1) degree/neighbor queries and O(n)-free memory,
//!   seeded *sampled* random-graph backends (`G(n, p)` and random regular
//!   graphs realized into a CSR [`Graph`] on first touch, `G(n, p)` by
//!   geometric skipping; the circulant lift; see [`sampled`]), plus a
//!   [`Graph`]-backed materialized fallback;
//! * [`NodeSet`] — a bitset over nodes (informed sets, cut sides);
//! * [`cut`] — cut edges, volumes, and the push–pull cut rate `λ` of the
//!   paper's Equation (1);
//! * [`conductance`] — exact conductance `Φ(G)` by subset enumeration and a
//!   spectral Cheeger estimate for large graphs ([`spectral`]);
//! * [`diligence`] — the paper's new graph measures: diligence `ρ(G)`
//!   (Section 1.1) and absolute diligence `ρ̄(G)` (Section 5);
//! * [`generators`] — every graph family the paper uses, including the
//!   adversarial `H_{k,Δ}(A,B)` construction of Section 4 and the
//!   `G(A, d₁, d₂)` near-regular construction of Section 5.1.
//!
//! # Example
//!
//! ```
//! use gossip_graph::{generators, diligence, conductance};
//!
//! // A star is 1-diligent and absolutely 1-diligent (paper §1.1).
//! let star = generators::star(8).unwrap();
//! assert_eq!(diligence::absolute_diligence(&star), 1.0);
//! let rho = diligence::exact_diligence(&star).unwrap();
//! assert!((rho - 1.0).abs() < 1e-12);
//! let phi = conductance::exact_conductance(&star).unwrap();
//! assert!(phi > 0.0);
//! ```

//!
//! See the workspace `README.md` (repo root) for the crate map and the
//! window / event-stream engine duality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conductance;
pub mod connectivity;
pub mod cut;
pub mod diligence;
mod error;
pub mod generators;
mod graph;
mod nodeset;
pub mod sampled;
pub mod spectral;
pub mod subsets;
mod topology;

pub use error::GraphError;
pub use graph::{Graph, GraphBuilder, NodeId};
pub use nodeset::NodeSet;
pub use topology::{Structure, Topology};

/// Maximum node count accepted by the exact (exponential-time) cut
/// enumerators in [`conductance`] and [`diligence`].
pub const EXACT_ENUMERATION_LIMIT: usize = 24;
