//! Graph generators: every family the paper builds on.
//!
//! * `basic` — deterministic families (complete, star, path, cycle,
//!   complete bipartite, barbell, hypercube, torus);
//! * `random` — Erdős–Rényi and random regular graphs (the paper's
//!   "arbitrary 4-regular expanders" are random 4-regular graphs, which are
//!   expanders w.h.p.);
//! * `circulant` — circulant graphs and the near-regular `G(A, d₁, d₂)`
//!   construction of Section 5.1 (all nodes degree 4, one hub of degree Δ);
//! * `paper` — the adversarial `H_{k,Δ}(A, B)` construction of Section 4
//!   (a string of complete bipartite clusters bridging two expanders), with
//!   its Observation 4.1 closed-form profile.

mod basic;
mod circulant;
mod paper;
mod random;

pub use basic::{
    barbell, complete, complete_bipartite, cycle, hypercube, path, star, star_with_center, torus,
};
pub use circulant::{circulant, near_regular_with_hub, regular_circulant};
pub use paper::{h_k_delta, string_edges, HkDelta, HkDeltaParams};
pub use random::{
    erdos_renyi, random_connected_regular, random_connected_regular_edges, random_regular,
};
