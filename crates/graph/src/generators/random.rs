//! Randomized graph generators.

use crate::{Graph, GraphError, NodeId};
use gossip_stats::SimRng;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Erdős–Rényi graph `G(n, p)`: each of the `n(n−1)/2` pairs is an edge
/// independently with probability `p`.
///
/// Edges are drawn by per-row **geometric skipping** over the pair
/// indices — `O(n + n²p)` RNG draws instead of one `rng.chance(p)` call
/// per pair — through the same seeded sampler as the sampled
/// [`crate::Topology::gnp`] backend (this function is exactly
/// `Topology::gnp(n, p, rng.next_u64()).materialize()` for `p > 0`), so
/// eager and sampled `G(n, p)` share one code path. Per-pair marginals
/// and independence are unchanged (each pair is still `Bernoulli(p)`;
/// the generator tests check the equivalence), but a given seed consumes
/// the RNG differently than the pre-sampler scan did, so it yields a
/// different — identically distributed — graph.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] when `n < 2` or `p ∉ \[0, 1\]`.
///
/// # Example
///
/// ```
/// use gossip_stats::SimRng;
///
/// let mut rng = SimRng::seed_from_u64(1);
/// let g = gossip_graph::generators::erdos_renyi(50, 0.2, &mut rng).unwrap();
/// assert_eq!(g.n(), 50);
/// ```
pub fn erdos_renyi(n: usize, p: f64, rng: &mut SimRng) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::InvalidParameter(format!(
            "erdos-renyi needs n >= 2, got {n}"
        )));
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter(format!(
            "probability {p} outside [0, 1]"
        )));
    }
    // Always consume exactly one u64 so the caller's stream position does
    // not depend on p.
    let seed = rng.next_u64();
    if p == 0.0 {
        return Ok(Graph::empty(n));
    }
    Ok(crate::sampled::gnp_graph(n, p, seed))
}

/// Random simple `d`-regular graph by the pairing (configuration) model
/// with double-edge-swap repair.
///
/// A raw pairing contains `Θ(d²)` loops and duplicate edges in
/// expectation; instead of rejecting the whole pairing (success
/// probability `≈ e^{(1−d²)/4}`, hopeless already at `d = 8`), each bad
/// pair is repaired by a degree-preserving 2-switch against a random good
/// edge. The result is asymptotically uniform in the sparse regime and
/// an expander w.h.p. — the only properties the paper's constructions
/// rely on ("arbitrary 4-regular expander", Section 4).
///
/// The pairing is drawn as an edge list and turned into a CSR [`Graph`]
/// by one [`crate::GraphBuilder::build`]; the `H_{k,Δ}` construction draws the
/// same edge list (same RNG draws) and adds it straight to its own
/// builder, so each of its rebuilds sorts once.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] when `d == 0`, `d ≥ n`, or `n·d` is odd;
/// [`GraphError::GenerationFailed`] when 64 pairing draws all exhausted
/// their swap budgets (not observed for any `d < n/2`; dense degrees are
/// generated via complements below).
pub fn random_regular(n: usize, d: usize, rng: &mut SimRng) -> Result<Graph, GraphError> {
    let edges = random_regular_edges(n, d, rng)?;
    Ok(Graph::from_edges(n, &edges).expect("pairing edges are in range and loop-free"))
}

/// The edge list behind [`random_regular`]: same validation, same RNG
/// draws, each edge of the simple `d`-regular graph listed once.
fn random_regular_edges(
    n: usize,
    d: usize,
    rng: &mut SimRng,
) -> Result<Vec<(NodeId, NodeId)>, GraphError> {
    if d == 0 || d >= n {
        return Err(GraphError::InvalidParameter(format!(
            "regular degree {d} must satisfy 1 <= d < n = {n}"
        )));
    }
    if !(n * d).is_multiple_of(2) {
        return Err(GraphError::InvalidParameter(format!(
            "n*d must be even for a d-regular graph, got n={n}, d={d}"
        )));
    }
    // The pairing model's simplicity probability decays like e^{-d²/4}, so
    // dense graphs are generated as the complement of a sparse regular
    // graph instead ((n-1-d)-regular complements are d-regular, and
    // n(n-1-d) has the same parity as n·d).
    if d > n / 2 {
        let sparse = if n - 1 - d == 0 {
            Graph::empty(n)
        } else {
            random_regular(n, n - 1 - d, rng)?
        };
        let mut edges = Vec::with_capacity(n * d / 2);
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                if !sparse.has_edge(u, v) {
                    edges.push((u, v));
                }
            }
        }
        return Ok(edges);
    }
    const ATTEMPTS: usize = 64;
    let mut stubs: Vec<NodeId> = Vec::with_capacity(n * d);
    for _ in 0..ATTEMPTS {
        stubs.clear();
        for v in 0..n as NodeId {
            for _ in 0..d {
                stubs.push(v);
            }
        }
        rng.shuffle(&mut stubs);
        let mut edges: Vec<(NodeId, NodeId)> =
            stubs.chunks_exact(2).map(|p| (p[0], p[1])).collect();
        if repair_pairing(&mut edges, rng) {
            return Ok(edges);
        }
    }
    Err(GraphError::GenerationFailed(format!(
        "pairing model failed to produce a simple {d}-regular graph on {n} nodes after {ATTEMPTS} attempts"
    )))
}

/// The set key of the undirected edge `{u, v}`.
fn edge_key(u: NodeId, v: NodeId) -> u64 {
    let (lo, hi) = if u < v { (u, v) } else { (v, u) };
    (u64::from(lo) << 32) | u64::from(hi)
}

/// Multiply-shift hashing for [`edge_key`]s. The keys come from the
/// generator itself, so SipHash's resistance to crafted collisions buys
/// nothing here; set semantics do not depend on the hasher.
#[derive(Default)]
struct EdgeKeyHasher(u64);

impl Hasher for EdgeKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn finish(&self) -> u64 {
        // Fold the well-mixed high half onto the low bits the table
        // indexes by.
        let h = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
    }
}

/// Repairs a random pairing in place by degree-preserving double-edge
/// swaps: each loop or duplicate edge `(u,v)` is re-wired against a
/// uniformly random good edge `(x,y)` into `(u,x),(v,y)` when that
/// introduces no new loop or duplicate. The expected number of bad pairs
/// is `Θ(d²)` (independent of `n`) and each swap succeeds with
/// probability `1 − O(d/n)`, so the repair is a few dozen cheap
/// operations where whole-graph rejection would discard `Θ(e^{d²/4})`
/// complete pairings. Returns `false` if the per-edge swap budget is
/// exhausted (the caller redraws the pairing).
fn repair_pairing(edges: &mut [(NodeId, NodeId)], rng: &mut SimRng) -> bool {
    let mut present: HashSet<u64, BuildHasherDefault<EdgeKeyHasher>> =
        HashSet::with_capacity_and_hasher(edges.len(), Default::default());
    let mut bad: Vec<usize> = Vec::new();
    let mut is_bad = vec![false; edges.len()];
    for (i, &(u, v)) in edges.iter().enumerate() {
        if u == v || !present.insert(edge_key(u, v)) {
            bad.push(i);
            is_bad[i] = true;
        }
    }
    const SWAP_BUDGET_PER_EDGE: usize = 400;
    while let Some(i) = bad.pop() {
        let (u, v) = edges[i];
        let mut fixed = false;
        for _ in 0..SWAP_BUDGET_PER_EDGE {
            let j = rng.index(edges.len());
            if j == i || is_bad[j] {
                continue;
            }
            // Randomize the orientation so the swap chain mixes over both
            // rewirings of the 2-switch.
            let (x, y) = if rng.chance(0.5) {
                edges[j]
            } else {
                (edges[j].1, edges[j].0)
            };
            if u == x || v == y {
                continue;
            }
            let k1 = edge_key(u, x);
            let k2 = edge_key(v, y);
            if k1 == k2 || present.contains(&k1) || present.contains(&k2) {
                continue;
            }
            present.remove(&edge_key(x, y));
            present.insert(k1);
            present.insert(k2);
            edges[i] = (u, x);
            edges[j] = (v, y);
            is_bad[i] = false;
            fixed = true;
            break;
        }
        if !fixed {
            return false;
        }
    }
    true
}

/// Random simple `d`-regular graph that is also connected.
///
/// Random regular graphs with `d ≥ 3` are connected (indeed expanders)
/// w.h.p., so the extra rejection loop rarely fires. This is the concrete
/// realization of the paper's "arbitrary 4-regular expander graphs"
/// (Section 4, step 2 of the `H_{k,Δ}` construction).
///
/// # Errors
///
/// As [`random_regular`], plus [`GraphError::GenerationFailed`] when 200
/// connected-rejection rounds fail (practically impossible for `d ≥ 3`).
pub fn random_connected_regular(n: usize, d: usize, rng: &mut SimRng) -> Result<Graph, GraphError> {
    let edges = random_connected_regular_edges(n, d, rng)?;
    Ok(Graph::from_edges(n, &edges).expect("pairing edges are in range and loop-free"))
}

/// The edge list behind [`random_connected_regular`] (same validation,
/// same RNG draws), with connectivity checked by union-find on the list.
/// Each edge is listed once, in no particular orientation or order.
///
/// # Errors
///
/// As [`random_connected_regular`].
pub fn random_connected_regular_edges(
    n: usize,
    d: usize,
    rng: &mut SimRng,
) -> Result<Vec<(NodeId, NodeId)>, GraphError> {
    if d < 2 {
        return Err(GraphError::InvalidParameter(format!(
            "connected regular graph needs d >= 2, got {d}"
        )));
    }
    const ATTEMPTS: usize = 200;
    for _ in 0..ATTEMPTS {
        let edges = random_regular_edges(n, d, rng)?;
        if spans_connected(n, &edges) {
            return Ok(edges);
        }
    }
    Err(GraphError::GenerationFailed(format!(
        "no connected {d}-regular graph on {n} nodes after {ATTEMPTS} attempts"
    )))
}

/// Whether the edge list connects all of `0..n` (union-find with path
/// halving); agrees with [`crate::connectivity::is_connected`] on the
/// built graph.
fn spans_connected(n: usize, edges: &[(NodeId, NodeId)]) -> bool {
    fn root(parent: &mut [NodeId], mut v: NodeId) -> NodeId {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize];
            v = parent[v as usize];
        }
        v
    }
    let mut parent: Vec<NodeId> = (0..n as NodeId).collect();
    let mut components = n;
    for &(u, v) in edges {
        let (ru, rv) = (root(&mut parent, u), root(&mut parent, v));
        if ru != rv {
            // Roots are effectively random labels, so linking by index
            // keeps the trees shallow without a size array.
            parent[ru.min(rv) as usize] = ru.max(rv);
            components -= 1;
        }
    }
    components <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::is_connected;
    use crate::Topology;

    #[test]
    fn er_extreme_probabilities() {
        let mut rng = SimRng::seed_from_u64(1);
        let empty = erdos_renyi(10, 0.0, &mut rng).unwrap();
        assert_eq!(empty.m(), 0);
        let full = erdos_renyi(10, 1.0, &mut rng).unwrap();
        assert_eq!(full.m(), 45);
    }

    #[test]
    fn er_edge_count_concentrates() {
        let mut rng = SimRng::seed_from_u64(2);
        let n = 100;
        let p = 0.3;
        let g = erdos_renyi(n, p, &mut rng).unwrap();
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.m() as f64;
        assert!(
            (got - expected).abs() < 0.15 * expected,
            "m = {got}, expected ~{expected}"
        );
    }

    #[test]
    fn er_validates() {
        let mut rng = SimRng::seed_from_u64(3);
        assert!(erdos_renyi(1, 0.5, &mut rng).is_err());
        assert!(erdos_renyi(5, 1.5, &mut rng).is_err());
        assert!(erdos_renyi(5, -0.1, &mut rng).is_err());
    }

    #[test]
    fn er_is_the_sampled_backend_materialized() {
        // One code path: the eager generator is exactly the sampled
        // backend seeded with the rng's next u64.
        let mut rng = SimRng::seed_from_u64(31);
        let seed = SimRng::seed_from_u64(31).next_u64();
        let eager = erdos_renyi(64, 0.1, &mut rng).unwrap();
        let sampled = Topology::gnp(64, 0.1, seed).unwrap();
        assert_eq!(eager, sampled.materialize());
    }

    /// The documented equivalence test for the geometric-skip refactor:
    /// the generator no longer draws one `rng.chance(p)` per pair, but the
    /// *distribution* is unchanged — every pair is still an independent
    /// `Bernoulli(p)`. Over many seeds, each individual pair's empirical
    /// edge frequency must match `p`, and so must the mean total edge
    /// count; a per-pair reference scan sampled alongside stays within the
    /// same tolerance bands, so any skip-logic bias (off-by-one in the
    /// geometric jump, row-boundary leakage) shows up as a hard failure.
    #[test]
    fn er_geometric_skip_preserves_the_distribution() {
        let (n, p, rounds) = (24usize, 0.2, 3000u64);
        let pairs = n * (n - 1) / 2;
        // Empirical per-pair hit counts for the skipping generator and for
        // an in-test per-pair Bernoulli scan (the pre-refactor algorithm).
        let mut skip_hits = vec![0u32; pairs];
        let mut scan_hits = vec![0u32; pairs];
        let mut skip_edges = 0u64;
        let mut scan_edges = 0u64;
        let pair_index = |u: usize, v: usize| u * (2 * n - u - 1) / 2 + (v - u - 1);
        for round in 0..rounds {
            let mut rng = SimRng::seed_from_u64(10_000 + round);
            let g = erdos_renyi(n, p, &mut rng).unwrap();
            for u in 0..n {
                for v in (u + 1)..n {
                    if g.has_edge(u as NodeId, v as NodeId) {
                        skip_hits[pair_index(u, v)] += 1;
                        skip_edges += 1;
                    }
                }
            }
            let mut rng = SimRng::seed_from_u64(70_000 + round);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.chance(p) {
                        scan_hits[pair_index(u, v)] += 1;
                        scan_edges += 1;
                    }
                }
            }
        }
        // Mean edge count: both within 2% of p·(n choose 2).
        let expect = p * pairs as f64;
        for (label, total) in [("skip", skip_edges), ("scan", scan_edges)] {
            let mean = total as f64 / rounds as f64;
            assert!(
                (mean - expect).abs() < 0.02 * expect,
                "{label}: mean edge count {mean} vs expected {expect}"
            );
        }
        // Every individual pair's frequency within 5σ of p (σ of a
        // Bernoulli mean over `rounds` draws) — catches positional bias.
        let sigma = (p * (1.0 - p) / rounds as f64).sqrt();
        for hits in [&skip_hits, &scan_hits] {
            for (i, &h) in hits.iter().enumerate() {
                let freq = h as f64 / rounds as f64;
                assert!(
                    (freq - p).abs() < 5.0 * sigma,
                    "pair {i}: frequency {freq} strays from p = {p}"
                );
            }
        }
    }

    #[test]
    fn regular_graph_is_regular_and_simple() {
        let mut rng = SimRng::seed_from_u64(4);
        for (n, d) in [(10usize, 3usize), (20, 4), (15, 4), (8, 7)] {
            let g = random_regular(n, d, &mut rng).unwrap();
            assert_eq!(g.n(), n);
            assert!(g.is_regular(), "not regular: ({n}, {d})");
            assert_eq!(g.degree(0), d);
            assert_eq!(g.m(), n * d / 2);
        }
    }

    #[test]
    fn regular_repair_handles_moderate_degrees() {
        // Whole-graph rejection dies around d = 6 (simplicity probability
        // e^{-d²/4}); the swap repair must shrug at these. 100 draws per
        // configuration so a regression shows up as a hard failure, not a
        // flake.
        for (n, d) in [(64usize, 6usize), (64, 8), (64, 12), (100, 10), (48, 16)] {
            let mut rng = SimRng::seed_from_u64(4_000 + (n * d) as u64);
            for trial in 0..100 {
                let g = random_regular(n, d, &mut rng)
                    .unwrap_or_else(|e| panic!("({n},{d}) trial {trial}: {e}"));
                assert!(g.is_regular());
                assert_eq!(g.degree(0), d);
                assert_eq!(g.m(), n * d / 2);
            }
        }
    }

    #[test]
    fn regular_repair_preserves_simplicity() {
        // The CSR builder would happily store duplicates, so check
        // explicitly: no loops, no repeated neighbor in any adjacency
        // list.
        let mut rng = SimRng::seed_from_u64(4_100);
        let g = random_regular(80, 10, &mut rng).unwrap();
        for u in 0..80u32 {
            let nbrs = g.neighbors(u);
            let mut sorted: Vec<u32> = nbrs.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), nbrs.len(), "duplicate edge at node {u}");
            assert!(!nbrs.contains(&u), "self-loop at node {u}");
        }
    }

    #[test]
    fn regular_validates_parity_and_range() {
        let mut rng = SimRng::seed_from_u64(5);
        assert!(random_regular(5, 3, &mut rng).is_err()); // odd product
        assert!(random_regular(4, 4, &mut rng).is_err()); // d >= n
        assert!(random_regular(4, 0, &mut rng).is_err());
    }

    #[test]
    fn connected_regular_connected() {
        let mut rng = SimRng::seed_from_u64(6);
        for n in [10usize, 30, 64, 101] {
            let d = if n % 2 == 0 { 3 } else { 4 };
            let g = random_connected_regular(n, d, &mut rng).unwrap();
            assert!(is_connected(&g), "disconnected ({n}, {d})");
        }
    }

    #[test]
    fn union_find_agrees_with_bfs_connectivity() {
        let mut rng = SimRng::seed_from_u64(9);
        for trial in 0..300 {
            let n = 2 + rng.index(30);
            let edges: Vec<(NodeId, NodeId)> = (0..rng.index(2 * n))
                .map(|_| (rng.index(n) as NodeId, rng.index(n) as NodeId))
                .filter(|&(u, v)| u != v)
                .collect();
            let g = Graph::from_edges(n, &edges).unwrap();
            assert_eq!(
                spans_connected(n, &edges),
                is_connected(&g),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g1 = random_regular(20, 4, &mut SimRng::seed_from_u64(7)).unwrap();
        let g2 = random_regular(20, 4, &mut SimRng::seed_from_u64(7)).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn random_4_regular_is_an_expander() {
        // The paper's substitution: random 4-regular graphs have Φ = Θ(1).
        // Check the spectral Cheeger lower bound is bounded away from 0.
        let mut rng = SimRng::seed_from_u64(8);
        let g = random_connected_regular(200, 4, &mut rng).unwrap();
        let bounds = crate::spectral::spectral_bounds(&g, 5000).unwrap();
        assert!(
            bounds.conductance_lower > 0.02,
            "λ₂/2 = {} too small for an expander",
            bounds.conductance_lower
        );
    }
}
