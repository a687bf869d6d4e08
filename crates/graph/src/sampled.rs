//! Seeded sampled-topology backends: random graphs as functions of a seed.
//!
//! The types in this module treat a random graph as a **deterministic
//! function of `(parameters, seed)`**: construction is `O(1)`, the graph
//! is drawn on the first query that needs it, and two values built from
//! the same seed describe bit-for-bit the same graph.
//!
//! * [`Seeded`] — Erdős–Rényi `G(n, p)` or a random connected
//!   `d`-regular graph, realized whole into a CSR [`Graph`] on first touch
//!   and cached. `G(n, p)` draws node `v`'s *forward row* (the pairs
//!   `{v, u}` with `u > v`) by geometric skipping over the candidates
//!   (`O(1 + (n − v) p)` draws) from an RNG keyed by `(seed, v)`, so each
//!   pair is an independent `Bernoulli(p)` — exactly the `G(n, p)`
//!   distribution; the rows, in ascending `v`, are the upper rows
//!   [`Graph::rebuild_from_upper`] builds the CSR from, `O(n + m)` in
//!   all. The regular graph is the seeded pairing-model draw of
//!   [`crate::generators::random_connected_regular`].
//! * [`CirculantLift`] — a seeded uniformly random relabeling of the
//!   `d`-regular circulant: node `v`'s neighbors are
//!   `σ(σ⁻¹(v) ± j mod n)` for a permutation `σ` drawn once (seeded
//!   Fisher–Yates, `O(n)` memory) on first touch. Exactly `d`-regular and
//!   simple, `O(1)` per query — a cheap stand-in for "an arbitrary
//!   `d`-regular graph with random labels" at any `n`.
//!
//! Realized state lives behind `Arc`-shared [`OnceLock`] caches, so
//! cloning a sampled topology (one clone per trial in a sweep) shares the
//! realization: a `G(10⁵, 2·10⁻⁴)` sweep samples its ≈ 10⁶ edges once,
//! not once per trial, and the caches are safe to touch from the
//! multi-threaded trial runner.

use crate::{Graph, GraphError, NodeId};
use gossip_stats::{Geometric, SimRng};
use std::sync::{Arc, OnceLock};

/// Realizes `G(n, p)` from `seed`: node `v`'s forward row holds every
/// `u` in `(v, n)` independently with probability `p`, drawn by
/// geometric skipping (`O(1 + (n − v) p)` draws instead of one per
/// candidate) from [`SimRng::derive`]'s stream `v` of `seed`. The rows,
/// drawn in ascending `v` into one flat buffer, are the upper rows of
/// the CSR. This is the one code path behind the sampled [`Seeded`]
/// `G(n, p)` and the eager [`crate::generators::erdos_renyi`].
///
/// # Panics
///
/// Panics unless `p ∈ (0, 1]`, or when the volume `2m` does not fit the
/// `u32` row offsets.
pub(crate) fn gnp_graph(n: usize, p: f64, seed: u64) -> Graph {
    let geo = Geometric::new(p).expect("p in (0, 1]");
    let root = SimRng::seed_from_u64(seed);
    let mut upper_offsets = Vec::with_capacity(n + 1);
    upper_offsets.push(0u32);
    let mut upper: Vec<NodeId> = Vec::new();
    for v in 0..n as u64 {
        let mut rng = root.derive(v);
        let span = n as u64 - v - 1;
        if span > 0 {
            let mut idx = geo.sample(&mut rng) - 1;
            while idx < span {
                upper.push((v + 1 + idx) as NodeId);
                // A saturated sample (p below 2⁻⁵⁴) ends the row.
                idx = idx.saturating_add(geo.sample(&mut rng));
            }
        }
        upper_offsets
            .push(u32::try_from(upper.len()).expect("graph volume exceeds the u32 CSR offsets"));
    }
    let mut graph = Graph::empty(n);
    graph.rebuild_from_upper(&upper_offsets, &upper, &mut Vec::new());
    graph
}

/// The random-graph model a [`Seeded`] backend draws from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Model {
    /// Erdős–Rényi `G(n, p)`.
    Gnp { p: f64 },
    /// Random connected `d`-regular graph.
    Regular { d: usize },
}

/// Seeded sampled `G(n, p)` or random connected `d`-regular graph (see
/// the [module docs](self)).
///
/// Equality and cloning are by parameters: clones share the realized
/// graph, and two values with equal parameters and seed compare equal
/// whether or not either has realized it.
#[derive(Debug, Clone)]
pub(crate) struct Seeded {
    n: usize,
    model: Model,
    seed: u64,
    graph: Arc<OnceLock<Graph>>,
}

impl PartialEq for Seeded {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.model == other.model && self.seed == other.seed
    }
}

impl Seeded {
    fn new(n: usize, model: Model, seed: u64) -> Self {
        Seeded {
            n,
            model,
            seed,
            graph: Arc::new(OnceLock::new()),
        }
    }

    pub(crate) fn gnp(n: usize, p: f64, seed: u64) -> Result<Self, GraphError> {
        if n < 2 {
            return Err(GraphError::InvalidParameter(format!(
                "sampled G(n,p) needs n >= 2, got {n}"
            )));
        }
        if !(p > 0.0 && p <= 1.0) {
            return Err(GraphError::InvalidParameter(format!(
                "sampled G(n,p) needs edge probability p in (0, 1], got {p}"
            )));
        }
        Ok(Seeded::new(n, Model::Gnp { p }, seed))
    }

    pub(crate) fn regular(n: usize, d: usize, seed: u64) -> Result<Self, GraphError> {
        if d < 2 || d >= n {
            return Err(GraphError::InvalidParameter(format!(
                "sampled random-regular degree d = {d} must satisfy 2 <= d < n = {n}"
            )));
        }
        if !(n * d).is_multiple_of(2) {
            return Err(GraphError::InvalidParameter(format!(
                "n*d must be even for a d-regular graph, got n = {n}, d = {d}"
            )));
        }
        Ok(Seeded::new(n, Model::Regular { d }, seed))
    }

    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Short backend name for reports.
    pub(crate) fn name(&self) -> &'static str {
        match self.model {
            Model::Gnp { .. } => "sampled-gnp",
            Model::Regular { .. } => "sampled-regular",
        }
    }

    /// The realized graph, drawn on first call: [`gnp_graph`], or the
    /// seeded pairing-model draw (permutation stream + 2-switch repair +
    /// connectivity rejection) of
    /// [`crate::generators::random_connected_regular`] on a fresh RNG
    /// seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics in the (never-observed for `d ≥ 3`; see the generator docs)
    /// event that regular generation exhausts its retry budgets — lazy
    /// realization has nowhere to surface a `Result`.
    pub(crate) fn graph(&self) -> &Graph {
        self.graph.get_or_init(|| match self.model {
            Model::Gnp { p } => gnp_graph(self.n, p, self.seed),
            Model::Regular { d } => {
                let mut rng = SimRng::seed_from_u64(self.seed);
                crate::generators::random_connected_regular(self.n, d, &mut rng)
                    .expect("parameters validated in regular(); connected draws succeed w.h.p.")
            }
        })
    }
}

#[derive(Debug)]
struct Perm {
    sigma: Box<[NodeId]>,
    inv: Box<[NodeId]>,
}

/// Seeded random relabeling of a `d`-regular circulant (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct CirculantLift {
    n: usize,
    jumps: Box<[u32]>,
    /// One positive residue per neighbor direction (as in the implicit
    /// circulant backend).
    deltas: Box<[u32]>,
    seed: u64,
    perm: Arc<OnceLock<Perm>>,
}

impl PartialEq for CirculantLift {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.jumps == other.jumps && self.seed == other.seed
    }
}

impl CirculantLift {
    pub(crate) fn new(
        n: usize,
        jumps: Vec<u32>,
        deltas: Vec<u32>,
        seed: u64,
    ) -> Result<Self, GraphError> {
        debug_assert!(!jumps.is_empty(), "caller validates the jump set");
        Ok(CirculantLift {
            n,
            jumps: jumps.into_boxed_slice(),
            deltas: deltas.into_boxed_slice(),
            seed,
            perm: Arc::new(OnceLock::new()),
        })
    }

    pub(crate) fn n(&self) -> usize {
        self.n
    }

    pub(crate) fn degree(&self) -> usize {
        self.deltas.len()
    }

    pub(crate) fn m(&self) -> usize {
        self.n * self.deltas.len() / 2
    }

    /// The relabeling permutation, drawn once by seeded Fisher–Yates.
    fn perm(&self) -> &Perm {
        self.perm.get_or_init(|| {
            let mut sigma: Vec<NodeId> = (0..self.n as NodeId).collect();
            SimRng::seed_from_u64(self.seed).shuffle(&mut sigma);
            let mut inv = vec![0 as NodeId; self.n];
            for (i, &s) in sigma.iter().enumerate() {
                inv[s as usize] = i as NodeId;
            }
            Perm {
                sigma: sigma.into_boxed_slice(),
                inv: inv.into_boxed_slice(),
            }
        })
    }

    /// The `i`-th neighbor in lifted jump order: `σ(σ⁻¹(v) + δᵢ mod n)`.
    pub(crate) fn neighbor(&self, v: NodeId, i: usize) -> NodeId {
        let p = self.perm();
        let base = p.inv[v as usize] as usize;
        p.sigma[(base + self.deltas[i] as usize) % self.n]
    }

    pub(crate) fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let p = self.perm();
        let (a, b) = (p.inv[u as usize] as usize, p.inv[v as usize] as usize);
        let diff = (b + self.n - a) % self.n;
        let dist = diff.min(self.n - diff) as u32;
        self.jumps.binary_search(&dist).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnp_realization_is_query_order_independent() {
        // Realize through different first queries; the graphs agree.
        let a = crate::Topology::gnp(40, 0.2, 99).unwrap();
        let b = crate::Topology::gnp(40, 0.2, 99).unwrap();
        // a: a degree first; b: scattered has_edge probes first.
        let _ = a.degree(0);
        for (u, v) in [(39u32, 3u32), (7, 8), (0, 39)] {
            let _ = b.has_edge(u, v);
        }
        assert_eq!(a.materialize(), b.materialize());
        for v in 0..40u32 {
            assert_eq!(a.neighbors_slice(v), b.neighbors_slice(v));
        }
    }

    #[test]
    fn gnp_rows_are_sorted_and_symmetric() {
        let g = Seeded::gnp(60, 0.15, 7).unwrap();
        let g = g.graph();
        for v in 0..60u32 {
            let row = g.neighbors(v);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {v} unsorted");
            for &u in row {
                assert!(g.has_edge(u, v), "asymmetric edge ({u}, {v})");
                assert!(g.neighbors(u).contains(&v));
            }
        }
    }

    #[test]
    fn gnp_clone_shares_realization() {
        let g = Seeded::gnp(30, 0.3, 1).unwrap();
        let h = g.clone();
        let _ = g.graph(); // realize via g
        assert!(h.graph.get().is_some(), "clone did not share the cache");
        assert_eq!(g, h);
    }

    #[test]
    fn gnp_validates() {
        assert!(Seeded::gnp(1, 0.5, 0).is_err());
        assert!(Seeded::gnp(10, 0.0, 0).is_err());
        assert!(Seeded::gnp(10, 1.2, 0).is_err());
        assert!(Seeded::gnp(10, 1.0, 0).is_ok());
    }

    #[test]
    fn gnp_p_one_is_complete() {
        let g = Seeded::gnp(12, 1.0, 5).unwrap();
        assert_eq!(g.graph().m(), 12 * 11 / 2);
    }

    #[test]
    fn gnp_tiny_p_is_nearly_empty() {
        // 1 − p rounds to 1 below 2⁻⁵⁴; G(50, 1e-20) once realized K₅₀.
        let t = crate::Topology::gnp(50, 1e-20, 7).unwrap();
        assert_eq!(t.m(), 0);
    }

    #[test]
    fn sampled_regular_validates_and_realizes() {
        assert!(Seeded::regular(10, 1, 0).is_err());
        assert!(Seeded::regular(4, 4, 0).is_err());
        assert!(Seeded::regular(5, 3, 0).is_err()); // odd n*d
        let r = Seeded::regular(20, 4, 3).unwrap();
        let g = r.graph();
        assert!(g.is_regular());
        assert_eq!(g.degree(0), 4);
        // Deterministic by seed, shared across clones.
        let r2 = Seeded::regular(20, 4, 3).unwrap();
        assert_eq!(r.graph(), r2.graph());
    }

    #[test]
    fn lift_permutation_is_seeded_involution_pair() {
        let lift = CirculantLift::new(17, vec![1, 2], vec![1, 16, 2, 15], 11).unwrap();
        let p = lift.perm();
        for v in 0..17u32 {
            assert_eq!(p.inv[p.sigma[v as usize] as usize], v);
        }
    }
}
