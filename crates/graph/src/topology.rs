//! Implicit topology backends.
//!
//! A [`Topology`] is what the simulators actually consume: a graph *view*
//! offering O(1) `degree`, O(1) indexed neighbor access, and O(1) (or
//! O(log deg)) adjacency tests — without promising a materialized adjacency
//! list. Structured families (complete, star, circulant, two bridged
//! cliques) answer every query in closed form from a handful of integers,
//! so a complete graph on `10^5` nodes costs a few words of memory instead
//! of the ≈ 40 GB its CSR form would need. The
//! [`Topology::materialized`] backend wraps an arbitrary [`Graph`] and
//! makes the same API answer from CSR, so engines are generic over both.
//! Its CSR is `Arc`-shared by clones and copied on write
//! ([`Topology::as_graph_mut`]), so cloning any topology is cheap.
//!
//! The implicit backends exist because the paper's asymptotic claims (e.g.
//! the `Θ(log n)` spread on complete graphs, the `Θ(n log n)` dynamic-star
//! windows) only become measurable at sizes where dense adjacency lists
//! stop fitting in memory; related exact analyses on complete and random
//! graphs (Panagiotou & Speidel; Doerr & Kostrygin) exploit exactly this
//! closed-form neighbor structure.
//!
//! A third class sits between implicit and materialized: **sampled**
//! backends ([`Topology::gnp`], [`Topology::random_regular`],
//! [`Topology::circulant_lift`]) describe a *random* graph as a
//! deterministic function of `(parameters, seed)` and realize it on first
//! touch, cached and `Arc`-shared across clones (see [`crate::sampled`]):
//! `G(n, p)` and the random regular graph into the same CSR [`Graph`] the
//! materialized backend holds (`G(n, p)` by per-row geometric skipping,
//! `O(n + m)`), the lift into its relabeling permutation. Construction is
//! `O(1)`, where the eager generators used to spend `Θ(n²)` RNG draws
//! before the first query.
//!
//! Neighbor indexing contract: for every backend except
//! [`Topology::circulant`] and [`Topology::circulant_lift`],
//! `neighbor(v, i)` enumerates the neighbors of `v` in increasing node
//! order — identical to [`Graph::neighbors`] on the materialized
//! equivalent, so uniform neighbor sampling consumes the same RNG stream
//! either way. Circulant backends enumerate `v + δ (mod n)` in jump order
//! instead, and the lift maps that order through its relabeling (still a
//! bijection onto the neighbor set, so uniform sampling is
//! distribution-identical).
//!
//! # Example
//!
//! ```
//! use gossip_graph::Topology;
//!
//! let t = Topology::complete(100_000).unwrap();
//! assert_eq!(t.degree(7), 99_999);
//! assert!(t.has_edge(3, 99_999));
//! assert!(t.is_implicit());
//! // Neighbor 3 of node 3 skips the node itself: 0, 1, 2, 4, ...
//! assert_eq!(t.neighbor(3, 3), 4);
//! ```

use crate::sampled;
use crate::{Graph, GraphBuilder, GraphError, NodeId};
use std::borrow::Cow;
use std::sync::Arc;

/// A graph view with implicit structured backends and a materialized
/// fallback. The module docs of `gossip_graph::topology` give the
/// querying contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    repr: Repr,
}

#[derive(Debug, Clone, PartialEq)]
enum Repr {
    Complete {
        n: usize,
    },
    Star {
        n: usize,
        center: NodeId,
    },
    Circulant {
        n: usize,
        /// The validated jump set (each `1..=n/2`, sorted, distinct).
        jumps: Vec<u32>,
        /// One positive residue per neighbor direction: `+o` and, unless
        /// `2o = n`, `n − o` for each jump `o`.
        deltas: Vec<u32>,
    },
    TwoCliques {
        n: usize,
        /// Left clique is `{0, …, left−1}`, right is `{left, …, n−1}`.
        left: usize,
        /// The single bridge edge; `bridge.0` is in the left clique,
        /// `bridge.1` in the right.
        bridge: (NodeId, NodeId),
    },
    Seeded(sampled::Seeded),
    CirculantLift(sampled::CirculantLift),
    Materialized(Arc<Graph>),
}

/// The implicit backends the cut-rate simulator keeps a closed-form state
/// for (see [`Topology::structure`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Structure {
    /// Complete graph `K_n`.
    Complete {
        /// Node count.
        n: usize,
    },
    /// Star with an explicit center.
    Star {
        /// Node count.
        n: usize,
        /// The hub node.
        center: NodeId,
    },
}

impl Topology {
    // -- constructors -------------------------------------------------------

    /// Implicit complete graph `K_n`.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] when `n < 2` (mirrors
    /// [`crate::generators::complete`]).
    pub fn complete(n: usize) -> Result<Self, GraphError> {
        if n < 2 {
            return Err(GraphError::InvalidParameter(format!(
                "complete graph needs n >= 2, got {n}"
            )));
        }
        Ok(Topology {
            repr: Repr::Complete { n },
        })
    }

    /// Implicit star on `n` nodes with the given center.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] when `n < 2`;
    /// [`GraphError::NodeOutOfRange`] when the center is not a node
    /// (mirrors [`crate::generators::star_with_center`]).
    pub fn star(n: usize, center: NodeId) -> Result<Self, GraphError> {
        if n < 2 {
            return Err(GraphError::InvalidParameter(format!(
                "star needs n >= 2, got {n}"
            )));
        }
        if center as usize >= n {
            return Err(GraphError::NodeOutOfRange { node: center, n });
        }
        Ok(Topology {
            repr: Repr::Star { n, center },
        })
    }

    /// Implicit circulant `C(n; jumps)`: node `i` is adjacent to
    /// `i ± o (mod n)` for each jump `o`.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] under the same rules as
    /// [`crate::generators::circulant`]: `n ≥ 3`, jumps non-empty,
    /// distinct, and each in `1..=n/2`.
    pub fn circulant(n: usize, jumps: &[usize]) -> Result<Self, GraphError> {
        let (jumps, deltas) = validate_circulant(n, jumps)?;
        Ok(Topology {
            repr: Repr::Circulant { n, jumps, deltas },
        })
    }

    /// Implicit `d`-regular circulant on `n` nodes (jumps `1..=d/2`) — the
    /// implicit twin of [`crate::generators::regular_circulant`].
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] when `d` is odd, zero, or too large
    /// (`d/2 > (n−1)/2`).
    pub fn regular_circulant(n: usize, d: usize) -> Result<Self, GraphError> {
        if d == 0 || !d.is_multiple_of(2) {
            return Err(GraphError::InvalidParameter(format!(
                "regular circulant needs even positive degree, got {d}"
            )));
        }
        if d / 2 > (n.saturating_sub(1)) / 2 {
            return Err(GraphError::InvalidParameter(format!(
                "degree {d} too large for {n} nodes (need d/2 <= (n-1)/2)"
            )));
        }
        let jumps: Vec<usize> = (1..=d / 2).collect();
        Self::circulant(n, &jumps)
    }

    /// Implicit pair of cliques `{0..left}` and `{left..n}` joined by the
    /// single `bridge` edge — the shape of the paper's Figure 1(a) network
    /// (both its `G(0)`, where the right "clique" is the lone pendant
    /// node, and its `G(t ≥ 1)`).
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] unless `1 ≤ left < n`,
    /// `bridge.0 < left`, and `left ≤ bridge.1 < n`.
    pub fn two_cliques(
        n: usize,
        left: usize,
        bridge: (NodeId, NodeId),
    ) -> Result<Self, GraphError> {
        if left == 0 || left >= n {
            return Err(GraphError::InvalidParameter(format!(
                "two-cliques split {left} leaves an empty side of {n} nodes"
            )));
        }
        if (bridge.0 as usize) >= left || (bridge.1 as usize) < left || (bridge.1 as usize) >= n {
            return Err(GraphError::InvalidParameter(format!(
                "bridge ({}, {}) does not span the {left}/{} split",
                bridge.0,
                bridge.1,
                n - left
            )));
        }
        Ok(Topology {
            repr: Repr::TwoCliques { n, left, bridge },
        })
    }

    /// Seeded sampled Erdős–Rényi `G(n, p)`: every pair is an edge
    /// independently with probability `p`, decided by per-row geometric
    /// skipping from RNG streams keyed by `(seed, row)`. Construction is
    /// O(1); the first query realizes the whole graph into a CSR [`Graph`]
    /// (`O(n + m)`, cached and `Arc`-shared across clones), a
    /// deterministic function of `(n, p, seed)`. See [`crate::sampled`].
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] when `n < 2` or `p ∉ (0, 1]` (an
    /// always-empty graph has no sampled representation; use
    /// [`Graph::empty`]).
    ///
    /// # Example
    ///
    /// ```
    /// use gossip_graph::Topology;
    ///
    /// // Sparse G(n, p) at n = 10^5: O(1) to build, O(n + m) once touched.
    /// let t = Topology::gnp(100_000, 2e-4, 42).unwrap();
    /// assert!(t.is_sampled());
    /// ```
    pub fn gnp(n: usize, p: f64, seed: u64) -> Result<Self, GraphError> {
        Ok(Topology {
            repr: Repr::Seeded(sampled::Seeded::gnp(n, p, seed)?),
        })
    }

    /// Seeded random connected `d`-regular graph — the sampled twin of
    /// [`crate::generators::random_connected_regular`], realized from the
    /// seeded permutation stream of the pairing model on first query (and
    /// cached, `Arc`-shared across clones).
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] unless `2 ≤ d < n` and `n·d` is
    /// even.
    pub fn random_regular(n: usize, d: usize, seed: u64) -> Result<Self, GraphError> {
        Ok(Topology {
            repr: Repr::Seeded(sampled::Seeded::regular(n, d, seed)?),
        })
    }

    /// Seeded random relabeling of the `d`-regular circulant (jumps
    /// `1..=d/2`): node `v` is adjacent to `σ(σ⁻¹(v) ± j mod n)` for a
    /// uniformly random permutation `σ` drawn once from `seed` on first
    /// touch. Exactly `d`-regular and simple at any valid `n`, O(1) per
    /// query, O(n) state.
    ///
    /// # Errors
    ///
    /// As [`Topology::regular_circulant`]: `d` even and positive,
    /// `d/2 ≤ (n−1)/2`.
    pub fn circulant_lift(n: usize, d: usize, seed: u64) -> Result<Self, GraphError> {
        if d == 0 || !d.is_multiple_of(2) {
            return Err(GraphError::InvalidParameter(format!(
                "circulant lift needs even positive degree, got {d}"
            )));
        }
        if d / 2 > (n.saturating_sub(1)) / 2 {
            return Err(GraphError::InvalidParameter(format!(
                "degree {d} too large for {n} nodes (need d/2 <= (n-1)/2)"
            )));
        }
        let jumps: Vec<usize> = (1..=d / 2).collect();
        let (jumps, deltas) = validate_circulant(n, &jumps)?;
        Ok(Topology {
            repr: Repr::CirculantLift(sampled::CirculantLift::new(n, jumps, deltas, seed)?),
        })
    }

    /// Wraps a materialized [`Graph`].
    pub fn materialized(graph: Graph) -> Self {
        Topology {
            repr: Repr::Materialized(Arc::new(graph)),
        }
    }

    // -- structure ----------------------------------------------------------

    /// The backend as a pattern-matchable view, for engines that
    /// special-case it (closed-form cut rates); `None` on every backend
    /// but the implicit complete graph and star.
    pub fn structure(&self) -> Option<Structure> {
        match self.repr {
            Repr::Complete { n } => Some(Structure::Complete { n }),
            Repr::Star { n, center } => Some(Structure::Star { n, center }),
            _ => None,
        }
    }

    /// Whether the backend is closed-form (a handful of integers, no
    /// adjacency in memory). Sampled backends are *not* implicit: they
    /// cache realized state (`O(n + m)` once touched).
    pub fn is_implicit(&self) -> bool {
        !matches!(
            self.repr,
            Repr::Materialized(_) | Repr::Seeded(_) | Repr::CirculantLift(_)
        )
    }

    /// Whether the backend is a seeded sampled random graph
    /// ([`Topology::gnp`], [`Topology::random_regular`],
    /// [`Topology::circulant_lift`]): adjacency is a deterministic
    /// function of the seed, realized on first touch.
    pub fn is_sampled(&self) -> bool {
        matches!(self.repr, Repr::Seeded(_) | Repr::CirculantLift(_))
    }

    /// Short backend name for reports (`"complete"`, `"materialized"`, …).
    pub fn backend_name(&self) -> &'static str {
        match &self.repr {
            Repr::Complete { .. } => "complete",
            Repr::Star { .. } => "star",
            Repr::Circulant { .. } => "circulant",
            Repr::TwoCliques { .. } => "two-cliques",
            Repr::Seeded(s) => s.name(),
            Repr::CirculantLift(_) => "circulant-lift",
            Repr::Materialized(_) => "materialized",
        }
    }

    // -- graph queries ------------------------------------------------------

    /// Number of nodes.
    pub fn n(&self) -> usize {
        match &self.repr {
            Repr::Complete { n }
            | Repr::Star { n, .. }
            | Repr::Circulant { n, .. }
            | Repr::TwoCliques { n, .. } => *n,
            Repr::Seeded(s) => s.n(),
            Repr::CirculantLift(l) => l.n(),
            Repr::Materialized(g) => g.n(),
        }
    }

    /// Number of edges. On a seeded sampled `G(n, p)` or random regular
    /// backend this realizes the graph.
    pub fn m(&self) -> usize {
        match &self.repr {
            Repr::Complete { n } => n * (n - 1) / 2,
            Repr::Star { n, .. } => n - 1,
            Repr::Circulant { n, deltas, .. } => n * deltas.len() / 2,
            Repr::TwoCliques { n, left, .. } => {
                let r = n - left;
                left * (left - 1) / 2 + r * (r - 1) / 2 + 1
            }
            Repr::Seeded(s) => s.graph().m(),
            Repr::CirculantLift(l) => l.m(),
            Repr::Materialized(g) => g.m(),
        }
    }

    /// Total volume `Σ_v d_v = 2m`.
    pub fn volume(&self) -> usize {
        2 * self.m()
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: NodeId) -> usize {
        let vu = v as usize;
        assert!(vu < self.n(), "node {v} outside 0..{}", self.n());
        match &self.repr {
            Repr::Complete { n } => n - 1,
            Repr::Star { n, center } => {
                if v == *center {
                    n - 1
                } else {
                    1
                }
            }
            Repr::Circulant { deltas, .. } => deltas.len(),
            Repr::TwoCliques { n, left, bridge } => {
                let side = if vu < *left { *left } else { n - left };
                let on_bridge = v == bridge.0 || v == bridge.1;
                side - 1 + usize::from(on_bridge)
            }
            Repr::Seeded(s) => s.graph().degree(v),
            Repr::CirculantLift(l) => l.degree(),
            Repr::Materialized(g) => g.degree(v),
        }
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        match &self.repr {
            Repr::Complete { n } => n - 1,
            Repr::Star { n, .. } => n - 1,
            Repr::Circulant { deltas, .. } => deltas.len(),
            Repr::TwoCliques { n, left, .. } => (*left).max(n - left),
            Repr::Seeded(s) => s.graph().max_degree(),
            Repr::CirculantLift(l) => l.degree(),
            Repr::Materialized(g) => g.max_degree(),
        }
    }

    /// Minimum degree.
    pub fn min_degree(&self) -> usize {
        match &self.repr {
            Repr::Complete { n } => n - 1,
            Repr::Star { n, .. } => usize::from(*n >= 2),
            Repr::Circulant { deltas, .. } => deltas.len(),
            Repr::TwoCliques { n, left, .. } => {
                // A singleton side consists of the bridge endpoint alone
                // (degree 1); a larger side contains a non-bridge node of
                // degree `side − 1`.
                let side_min = |s: usize| if s == 1 { 1 } else { s - 1 };
                side_min(*left).min(side_min(n - left))
            }
            Repr::Seeded(s) => s.graph().min_degree(),
            Repr::CirculantLift(l) => l.degree(),
            Repr::Materialized(g) => g.min_degree(),
        }
    }

    /// Whether every node has the same degree.
    pub fn is_regular(&self) -> bool {
        self.max_degree() == self.min_degree()
    }

    /// Whether the edge `{u, v}` exists. Out-of-range endpoints yield
    /// `false`, mirroring [`Graph::has_edge`].
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let n = self.n();
        let (uu, vv) = (u as usize, v as usize);
        if uu >= n || vv >= n || u == v {
            return false;
        }
        match &self.repr {
            Repr::Complete { .. } => true,
            Repr::Star { center, .. } => u == *center || v == *center,
            Repr::Circulant { n, jumps, .. } => {
                let diff = (vv + n - uu) % n;
                let dist = diff.min(n - diff) as u32;
                jumps.binary_search(&dist).is_ok()
            }
            Repr::TwoCliques { left, bridge, .. } => {
                let same_side = (uu < *left) == (vv < *left);
                same_side
                    || (u.min(v), u.max(v)) == (bridge.0.min(bridge.1), bridge.0.max(bridge.1))
            }
            Repr::Seeded(s) => s.graph().has_edge(u, v),
            Repr::CirculantLift(l) => l.has_edge(u, v),
            Repr::Materialized(g) => g.has_edge(u, v),
        }
    }

    /// The `i`-th neighbor of `v`, `0 ≤ i < degree(v)` (see the module
    /// docs for the ordering contract).
    ///
    /// Out-of-range `v` or `i` panic in debug builds (and for the
    /// materialized backend in all builds); release builds on implicit
    /// backends skip the check — this is the per-event hot path — and
    /// return an unspecified node id.
    pub fn neighbor(&self, v: NodeId, i: usize) -> NodeId {
        debug_assert!(
            i < self.degree(v),
            "neighbor index {i} out of range for node {v}"
        );
        // Enumerate {0..bound} \ {v} in increasing order.
        let skip_self = |v: NodeId, i: usize| -> NodeId {
            if (i as u32) < v {
                i as NodeId
            } else {
                i as NodeId + 1
            }
        };
        match &self.repr {
            Repr::Complete { .. } => skip_self(v, i),
            Repr::Star { center, .. } => {
                if v == *center {
                    skip_self(*center, i)
                } else {
                    *center
                }
            }
            Repr::Circulant { n, deltas, .. } => {
                (((v as usize) + deltas[i] as usize) % n) as NodeId
            }
            Repr::TwoCliques { left, bridge, .. } => {
                let l = *left;
                if (v as usize) < l {
                    // Left-clique neighbors in 0..left, then (for the
                    // bridge endpoint) the right endpoint, which has the
                    // largest id among its neighbors.
                    if i < l - 1 {
                        skip_self(v, i)
                    } else {
                        debug_assert_eq!(v, bridge.0);
                        bridge.1
                    }
                } else if v == bridge.1 {
                    // The left endpoint precedes every right-clique id.
                    if i == 0 {
                        bridge.0
                    } else {
                        let j = l + i - 1;
                        if (j as u32) < v {
                            j as NodeId
                        } else {
                            j as NodeId + 1
                        }
                    }
                } else {
                    let j = l + i;
                    if (j as u32) < v {
                        j as NodeId
                    } else {
                        j as NodeId + 1
                    }
                }
            }
            Repr::Seeded(s) => s.graph().neighbors(v)[i],
            Repr::CirculantLift(l) => l.neighbor(v, i),
            Repr::Materialized(g) => g.neighbors(v)[i],
        }
    }

    /// The neighbors of `v` as a contiguous sorted slice, when the backend
    /// stores (or has realized) one: materialized CSR and the sampled
    /// `G(n, p)` / random-regular backends. Closed-form backends and the
    /// circulant lift answer `None` — enumerate through
    /// [`Topology::for_each_neighbor`] there.
    pub fn neighbors_slice(&self, v: NodeId) -> Option<&[NodeId]> {
        self.csr().map(|g| g.neighbors(v))
    }

    /// Calls `f` for every neighbor of `v` (in the [`Topology::neighbor`]
    /// order).
    pub fn for_each_neighbor(&self, v: NodeId, mut f: impl FnMut(NodeId)) {
        if let Some(row) = self.neighbors_slice(v) {
            for &u in row {
                f(u);
            }
            return;
        }
        for i in 0..self.degree(v) {
            f(self.neighbor(v, i));
        }
    }

    /// Collects the neighbors of `v` into a vector (allocates; prefer
    /// [`Topology::for_each_neighbor`] on hot paths).
    pub fn neighbors_vec(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.degree(v));
        self.for_each_neighbor(v, |u| out.push(u));
        out
    }

    // -- materialization ----------------------------------------------------

    /// The wrapped graph, when the backend is materialized.
    pub fn as_graph(&self) -> Option<&Graph> {
        match &self.repr {
            Repr::Materialized(g) => Some(g),
            _ => None,
        }
    }

    /// The wrapped graph, mutably, when the backend is materialized (for
    /// in-place [`Graph::apply_changes`] and [`Graph::rebuild_from_upper`]).
    /// A CSR still shared with a clone is copied first, so the clone keeps
    /// the graph it was taken from.
    pub fn as_graph_mut(&mut self) -> Option<&mut Graph> {
        match &mut self.repr {
            Repr::Materialized(g) => Some(Arc::make_mut(g)),
            _ => None,
        }
    }

    /// Whether `other` is this topology, in O(1) (O(jumps) on circulant
    /// backends): equal parameters on an implicit or sampled backend, the
    /// same shared CSR on a materialized one, i.e. a clone rather than an
    /// equal graph built apart. A cache keyed by a topology can hold a
    /// clone as its key: the CSR it shares stays alive, and a write
    /// through the original copies it first.
    pub fn is_same(&self, other: &Topology) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Materialized(a), Repr::Materialized(b)) => Arc::ptr_eq(a, b),
            (a, b) => a == b,
        }
    }

    /// Builds the CSR [`Graph`] this topology describes. O(n + m) time and
    /// memory — `O(n²)` for dense backends, so reserve this for analysis
    /// paths (conductance, spectra) at sizes where CSR is affordable.
    pub fn materialize(&self) -> Graph {
        if let Some(g) = self.csr() {
            return g.clone();
        }
        let n = self.n();
        let mut b = GraphBuilder::new(n);
        for v in 0..n as NodeId {
            self.for_each_neighbor(v, |u| {
                if v < u {
                    b.add_edge(v, u)
                        .expect("implicit backends emit valid edges");
                }
            });
        }
        b.build()
    }

    /// The graph as copy-on-write: borrowed for the materialized backend
    /// and the seeded sampled `G(n, p)` and random regular backends, whose
    /// realization is itself a cached [`Graph`], built on the fly (see
    /// [`Topology::materialize`]) for everything else.
    pub fn graph_cow(&self) -> Cow<'_, Graph> {
        match self.csr() {
            Some(g) => Cow::Borrowed(g),
            None => Cow::Owned(self.materialize()),
        }
    }

    /// The CSR [`Graph`] the backend answers from, when it holds one: the
    /// wrapped graph, or a seeded backend's realization.
    fn csr(&self) -> Option<&Graph> {
        match &self.repr {
            Repr::Materialized(g) => Some(g),
            Repr::Seeded(s) => Some(s.graph()),
            _ => None,
        }
    }
}

impl From<Graph> for Topology {
    fn from(g: Graph) -> Self {
        Topology::materialized(g)
    }
}

/// Validates a circulant jump set (`n ≥ 3`, non-empty, distinct, each in
/// `1..=n/2`) and expands it into `(sorted jumps, signed neighbor
/// deltas)` — shared by [`Topology::circulant`] and
/// [`Topology::circulant_lift`].
fn validate_circulant(n: usize, jumps: &[usize]) -> Result<(Vec<u32>, Vec<u32>), GraphError> {
    if n < 3 {
        return Err(GraphError::InvalidParameter(format!(
            "circulant needs n >= 3, got {n}"
        )));
    }
    if jumps.is_empty() {
        return Err(GraphError::InvalidParameter(
            "circulant needs at least one offset".into(),
        ));
    }
    let mut sorted: Vec<usize> = jumps.to_vec();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            return Err(GraphError::InvalidParameter(format!(
                "repeated offset {}",
                w[0]
            )));
        }
    }
    for &o in &sorted {
        if o == 0 || o > n / 2 {
            return Err(GraphError::InvalidParameter(format!(
                "offset {o} outside 1..={} for n = {n}",
                n / 2
            )));
        }
    }
    let mut deltas = Vec::with_capacity(2 * sorted.len());
    for &o in &sorted {
        deltas.push(o as u32);
        if 2 * o != n {
            deltas.push((n - o) as u32);
        }
    }
    Ok((sorted.into_iter().map(|o| o as u32).collect(), deltas))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn assert_matches_graph(t: &Topology, g: &Graph) {
        assert_eq!(t.n(), g.n());
        assert_eq!(t.m(), g.m());
        assert_eq!(t.volume(), g.volume());
        assert_eq!(t.max_degree(), g.max_degree());
        assert_eq!(t.min_degree(), g.min_degree());
        assert_eq!(t.is_regular(), g.is_regular());
        for v in 0..g.n() as NodeId {
            assert_eq!(t.degree(v), g.degree(v), "degree of {v}");
            let mut nbrs = t.neighbors_vec(v);
            nbrs.sort_unstable();
            assert_eq!(nbrs, g.neighbors(v), "neighbors of {v}");
            for u in 0..g.n() as NodeId {
                assert_eq!(t.has_edge(v, u), g.has_edge(v, u), "edge ({v}, {u})");
            }
        }
        assert_eq!(&t.materialize(), g);
    }

    #[test]
    fn complete_matches_generator() {
        for n in [2, 3, 7, 20] {
            let t = Topology::complete(n).unwrap();
            assert_matches_graph(&t, &generators::complete(n).unwrap());
            assert!(t.is_implicit());
        }
        assert!(Topology::complete(1).is_err());
    }

    #[test]
    fn star_matches_generator() {
        for (n, c) in [(2, 0), (5, 0), (9, 4), (9, 8)] {
            let t = Topology::star(n, c).unwrap();
            assert_matches_graph(&t, &generators::star_with_center(n, c).unwrap());
        }
        assert!(Topology::star(1, 0).is_err());
        assert!(Topology::star(4, 4).is_err());
    }

    #[test]
    fn circulant_matches_generator() {
        for (n, jumps) in [
            (3usize, vec![1usize]),
            (8, vec![1, 2]),
            (8, vec![1, 4]), // half-n jump contributes degree 1
            (11, vec![2, 5]),
            (12, vec![1, 2, 6]),
        ] {
            let t = Topology::circulant(n, &jumps).unwrap();
            assert_matches_graph(&t, &generators::circulant(n, &jumps).unwrap());
        }
        assert!(Topology::circulant(2, &[1]).is_err());
        assert!(Topology::circulant(8, &[]).is_err());
        assert!(Topology::circulant(8, &[2, 2]).is_err());
        assert!(Topology::circulant(8, &[5]).is_err());
    }

    #[test]
    fn regular_circulant_matches_generator() {
        for (n, d) in [(10usize, 4usize), (9, 2), (101, 16)] {
            let t = Topology::regular_circulant(n, d).unwrap();
            assert_matches_graph(&t, &generators::regular_circulant(n, d).unwrap());
        }
        assert!(Topology::regular_circulant(10, 3).is_err());
        assert!(Topology::regular_circulant(4, 4).is_err());
    }

    #[test]
    fn two_cliques_matches_explicit_build() {
        // left {0..4}, right {4..9}, bridge (0, 8): the Figure 1(a) later
        // graph for N = 9.
        let reference = |n: usize, left: usize, bridge: (NodeId, NodeId)| {
            let mut b = GraphBuilder::new(n);
            for u in 0..left as NodeId {
                for v in (u + 1)..left as NodeId {
                    b.add_edge(u, v).unwrap();
                }
            }
            for u in left as NodeId..n as NodeId {
                for v in (u + 1)..n as NodeId {
                    b.add_edge(u, v).unwrap();
                }
            }
            b.add_edge(bridge.0, bridge.1).unwrap();
            b.build()
        };
        for (n, left, bridge) in [
            (9usize, 4usize, (0u32, 8u32)),
            (9, 8, (0, 8)), // G(0): clique + pendant
            (6, 3, (2, 3)),
            (2, 1, (0, 1)),
        ] {
            let t = Topology::two_cliques(n, left, bridge).unwrap();
            assert_matches_graph(&t, &reference(n, left, bridge));
        }
        assert!(Topology::two_cliques(6, 0, (0, 3)).is_err());
        assert!(Topology::two_cliques(6, 6, (0, 3)).is_err());
        assert!(Topology::two_cliques(6, 3, (3, 4)).is_err());
        assert!(Topology::two_cliques(6, 3, (0, 2)).is_err());
    }

    #[test]
    fn materialized_passthrough() {
        let g = generators::barbell(4).unwrap();
        let t = Topology::from(g.clone());
        assert!(!t.is_implicit());
        assert_eq!(t.as_graph(), Some(&g));
        assert_matches_graph(&t, &g);
        assert!(matches!(t.graph_cow(), Cow::Borrowed(_)));
    }

    #[test]
    fn identity_is_sharing_for_csr_and_parameters_otherwise() {
        let g = generators::barbell(4).unwrap();
        let t = Topology::from(g.clone());
        let mut copy = t.clone();
        assert!(t.is_same(&copy));
        // An equal graph built apart compares equal but is not the same.
        let apart = Topology::from(g.clone());
        assert_eq!(t, apart);
        assert!(!t.is_same(&apart));
        // A write through a clone copies the shared CSR first.
        copy.as_graph_mut().unwrap().apply_changes(&[(0, 7)], &[]);
        assert!(!t.is_same(&copy));
        assert_eq!(t.as_graph(), Some(&g));
        assert!(copy.has_edge(0, 7));
        // Sampled and implicit backends are the same by parameters.
        let gnp = |seed| Topology::gnp(50, 0.1, seed).unwrap();
        assert!(gnp(1).is_same(&gnp(1)));
        assert!(!gnp(1).is_same(&gnp(2)));
        assert!(Topology::complete(5)
            .unwrap()
            .is_same(&Topology::complete(5).unwrap()));
        assert!(!t.is_same(&Topology::complete(t.n()).unwrap()));
    }

    #[test]
    fn implicit_neighbor_order_is_sorted() {
        // Everything except circulant promises increasing-id enumeration
        // (so materialized and implicit backends consume identical RNG
        // streams when sampling uniform neighbors).
        for t in [
            Topology::complete(9).unwrap(),
            Topology::star(9, 4).unwrap(),
            Topology::two_cliques(9, 4, (0, 8)).unwrap(),
        ] {
            for v in 0..t.n() as NodeId {
                let nbrs = t.neighbors_vec(v);
                assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "node {v}: {nbrs:?}");
            }
        }
    }

    #[test]
    fn structure_views() {
        assert_eq!(
            Topology::complete(5).unwrap().structure(),
            Some(Structure::Complete { n: 5 })
        );
        assert_eq!(
            Topology::star(5, 2).unwrap().structure(),
            Some(Structure::Star { n: 5, center: 2 })
        );
        assert_eq!(Topology::circulant(8, &[2, 1]).unwrap().structure(), None);
        assert_eq!(Topology::complete(5).unwrap().backend_name(), "complete");
        let g = generators::path(3).unwrap();
        assert_eq!(Topology::from(g).structure(), None);
    }

    #[test]
    fn graph_cow_materializes_implicit() {
        let t = Topology::star(6, 0).unwrap();
        let cow = t.graph_cow();
        assert_eq!(cow.m(), 5);
        assert!(matches!(cow, Cow::Owned(_)));
    }

    #[test]
    fn sampled_gnp_matches_its_materialization() {
        // The sampled backend and its CSR twin answer every query
        // identically — including sorted neighbor order, so RNG-stream
        // parity holds.
        for (n, p, seed) in [(20usize, 0.3, 1u64), (40, 0.08, 2), (12, 1.0, 3)] {
            let t = Topology::gnp(n, p, seed).unwrap();
            assert!(t.is_sampled() && !t.is_implicit());
            assert_eq!(t.backend_name(), "sampled-gnp");
            let g = t.materialize();
            assert_matches_graph(&t, &g);
        }
        assert!(Topology::gnp(1, 0.5, 0).is_err());
        assert!(Topology::gnp(10, 0.0, 0).is_err());
        assert!(Topology::gnp(10, -0.2, 0).is_err());
        assert!(Topology::gnp(10, 1.01, 0).is_err());
    }

    #[test]
    fn sampled_gnp_structure_and_equality() {
        let t = Topology::gnp(30, 0.2, 9).unwrap();
        // Equality is by parameters, not realization state.
        let u = Topology::gnp(30, 0.2, 9).unwrap();
        let _ = t.degree(0);
        assert_eq!(t, u);
        assert_ne!(t, Topology::gnp(30, 0.2, 10).unwrap());
    }

    #[test]
    fn sampled_regular_matches_its_materialization() {
        let t = Topology::random_regular(24, 4, 7).unwrap();
        assert!(t.is_sampled());
        assert_eq!(t.m(), 48); // n·d/2
        assert_eq!((t.max_degree(), t.min_degree()), (4, 4));
        let g = t.materialize();
        assert_matches_graph(&t, &g);
        assert!(Topology::random_regular(10, 1, 0).is_err());
        assert!(Topology::random_regular(4, 4, 0).is_err());
        assert!(Topology::random_regular(5, 3, 0).is_err());
    }

    #[test]
    fn circulant_lift_is_a_relabeled_circulant() {
        let t = Topology::circulant_lift(17, 4, 5).unwrap();
        assert!(t.is_sampled());
        assert_eq!(t.backend_name(), "circulant-lift");
        assert_eq!((t.degree(0), t.m()), (4, 34));
        let g = t.materialize();
        // Neighbor enumeration is in lifted jump order (unsorted), so
        // compare sets per node.
        for v in 0..17u32 {
            let mut nbrs = t.neighbors_vec(v);
            nbrs.sort_unstable();
            assert_eq!(nbrs, g.neighbors(v), "node {v}");
            for u in 0..17u32 {
                assert_eq!(t.has_edge(v, u), g.has_edge(v, u));
            }
        }
        // Same degree sequence as the unlifted circulant; relabeled edges.
        let base = generators::regular_circulant(17, 4).unwrap();
        assert_eq!(g.m(), base.m());
        assert!(g.is_regular());
        assert!(Topology::circulant_lift(10, 3, 0).is_err());
        assert!(Topology::circulant_lift(4, 4, 0).is_err());
    }

    #[test]
    fn neighbors_slice_availability() {
        assert!(Topology::complete(5).unwrap().neighbors_slice(0).is_none());
        assert!(Topology::circulant_lift(9, 2, 0)
            .unwrap()
            .neighbors_slice(0)
            .is_none());
        let t = Topology::gnp(10, 0.5, 1).unwrap();
        let row = t.neighbors_slice(3).unwrap();
        assert_eq!(row, &t.neighbors_vec(3)[..]);
        let m = Topology::materialized(generators::path(4).unwrap());
        assert_eq!(m.neighbors_slice(1), Some(&[0u32, 2][..]));
    }
}
