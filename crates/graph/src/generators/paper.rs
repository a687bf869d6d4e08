//! The adversarial `H_{k,Δ}(A, B)` construction of Section 4.
//!
//! Given a partition `V = A ∪ B` (with `n/4 ≤ |A| ≤ 3n/4`), integers
//! `k = O(log n / log log n)` and `Δ = O(√n)`, the construction is:
//!
//! 1. disjoint clusters `S_0 ⊂ A` and `S_1, …, S_k ⊂ B`, each of size `Δ`,
//!    consecutive clusters joined completely bipartitely — a "string" with
//!    `(k+1)·Δ` nodes and `k·Δ²` edges;
//! 2. 4-regular expanders `G1` on `A \ S_0` and `G2` on `B \ ∪S_i`; each
//!    node of `S_0` is stitched to `Δ` distinct nodes of `G1` and each node
//!    of `S_k` to `Δ` distinct nodes of `G2`, spreading the extra degree
//!    evenly (round-robin) so every expander node gains only `O(1)`.
//!
//! Observation 4.1 gives `Φ(H) = Θ(Δ²/(kΔ² + n))` and `ρ(H) = Θ(1/Δ)`.
//! The rumor must traverse the string cluster by cluster, and Lemma 4.2
//! shows one unit of time moves it forward with probability at most
//! `2^k Δ / k!` — the engine of the Theorem 1.2 lower bound.

use super::random::random_connected_regular_edges;
use crate::{connectivity, Graph, GraphBuilder, GraphError, NodeId};
use gossip_stats::SimRng;

/// Parameters of the `H_{k,Δ}` construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HkDeltaParams {
    /// Number of bipartite hops in the string (clusters are `S_0..S_k`).
    pub k: usize,
    /// Cluster size `Δ` (the paper sets `Δ = ⌈1/ρ⌉`).
    pub delta: usize,
}

/// The built `H_{k,Δ}(A, B)` graph together with its structure, so the
/// dynamic network and the Lemma 4.2 experiments can address clusters
/// directly.
#[derive(Debug, Clone)]
pub struct HkDelta {
    graph: Graph,
    clusters: Vec<Vec<NodeId>>,
    a_rest: Vec<NodeId>,
    b_rest: Vec<NodeId>,
    params: HkDeltaParams,
}

impl HkDelta {
    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consumes the wrapper, returning the graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// The clusters `S_0, …, S_k` in order.
    pub fn clusters(&self) -> &[Vec<NodeId>] {
        &self.clusters
    }

    /// Nodes of the `A`-side expander `G1` (i.e. `A \ S_0`).
    pub fn a_rest(&self) -> &[NodeId] {
        &self.a_rest
    }

    /// Nodes of the `B`-side expander `G2` (i.e. `B \ ∪S_i`).
    pub fn b_rest(&self) -> &[NodeId] {
        &self.b_rest
    }

    /// The construction parameters.
    pub fn params(&self) -> HkDeltaParams {
        self.params
    }

    /// Observation 4.1 conductance estimate `Δ²/(kΔ² + n)` (a Θ-order
    /// value, not the exact minimum).
    pub fn conductance_estimate(&self) -> f64 {
        let d2 = (self.params.delta * self.params.delta) as f64;
        d2 / (self.params.k as f64 * d2 + self.graph.n() as f64)
    }

    /// Observation 4.1 diligence estimate `1/Δ` (Θ-order).
    pub fn diligence_estimate(&self) -> f64 {
        1.0 / self.params.delta as f64
    }
}

/// Builds `H_{k,Δ}(A, B)` over the node set `0..n` partitioned into `a`
/// and `b`.
///
/// `S_0` takes the first `Δ` entries of `a`; `S_1..S_k` take consecutive
/// `Δ`-chunks of `b`. The expanders are random connected 4-regular graphs
/// (expanders w.h.p. — the workspace's substitution for the paper's
/// "arbitrary 4-regular expander"), drawn `G1` first; sets smaller than 5
/// fall back to a complete graph. The non-random rest is
/// [`string_edges`].
///
/// This is a one-shot build. The dynamic `G(n, ρ)`
/// (`gossip_dynamics::DiligentNetwork`) builds it once per trial and then
/// keeps both expanders, editing them as nodes move and re-stitching only
/// the string.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] when `a`/`b` fail to partition `0..n`,
/// when `k == 0` or `Δ == 0`, or when either side is too small
/// (`|A| ≥ Δ + max(5, Δ)` and `|B| ≥ kΔ + max(5, Δ)` are required);
/// [`GraphError::GenerationFailed`] if expander generation fails.
pub fn h_k_delta(
    n: usize,
    a: &[NodeId],
    b: &[NodeId],
    params: HkDeltaParams,
    rng: &mut SimRng,
) -> Result<HkDelta, GraphError> {
    let HkDeltaParams { k, delta } = params;
    if k == 0 || delta == 0 {
        return Err(GraphError::InvalidParameter(format!(
            "h_k_delta needs k >= 1 and delta >= 1, got k={k}, delta={delta}"
        )));
    }
    validate_partition(n, a, b)?;
    let side_min = delta.max(5);
    if a.len() < delta + side_min {
        return Err(GraphError::InvalidParameter(format!(
            "|A| = {} too small for delta {delta} (need at least {})",
            a.len(),
            delta + side_min
        )));
    }
    if b.len() < k * delta + side_min {
        return Err(GraphError::InvalidParameter(format!(
            "|B| = {} too small for k={k}, delta={delta} (need at least {})",
            b.len(),
            k * delta + side_min
        )));
    }

    let mut builder = GraphBuilder::new(n);
    for (u, v) in string_edges(a, b, params) {
        builder.add_edge(u, v)?;
    }
    let clusters: Vec<Vec<NodeId>> = std::iter::once(&a[..delta])
        .chain(b[..k * delta].chunks(delta))
        .map(<[NodeId]>::to_vec)
        .collect();
    let a_rest: Vec<NodeId> = a[delta..].to_vec();
    let b_rest: Vec<NodeId> = b[k * delta..].to_vec();
    add_expander(&mut builder, &a_rest, rng)?;
    add_expander(&mut builder, &b_rest, rng)?;

    let graph = builder.build();
    debug_assert!(
        connectivity::is_connected(&graph),
        "H_k_delta must be connected"
    );
    Ok(HkDelta {
        graph,
        clusters,
        a_rest,
        b_rest,
        params,
    })
}

/// Adds a random connected 4-regular graph on `nodes` (complete graph when
/// `|nodes| < 5`). The expander is drawn as an edge list (the draws of
/// [`crate::generators::random_connected_regular`]) and goes straight into
/// the outer builder, so the whole `H_{k,Δ}` is built once.
fn add_expander(
    builder: &mut GraphBuilder,
    nodes: &[NodeId],
    rng: &mut SimRng,
) -> Result<(), GraphError> {
    let m = nodes.len();
    if m < 5 {
        for i in 0..m {
            for j in (i + 1)..m {
                builder.add_edge(nodes[i], nodes[j])?;
            }
        }
        return Ok(());
    }
    for (u, v) in random_connected_regular_edges(m, 4, rng)? {
        builder.add_edge(nodes[u as usize], nodes[v as usize])?;
    }
    Ok(())
}

/// The edges of `H_{k,Δ}(A, B)` that take no random draws: the string
/// (complete bipartite joins of consecutive clusters `S_0..S_k`) and both
/// stitchings, each as `(u, v)` with `u < v`. The `x`-th node of `S_0`
/// is joined to `a_rest[(xΔ + j) mod |a_rest|]` for `j < Δ`, and `S_k`
/// to `b_rest` alike, so each target gains at most `⌈Δ²/|targets|⌉`
/// edges. Clusters and remainders are sliced from `a` and `b` as in
/// [`h_k_delta`], which adds exactly these edges plus the two expanders.
///
/// # Panics
///
/// Panics if `|A| < 2Δ` or `|B| < (k+1)Δ` (the stitching needs `Δ`
/// distinct targets per cluster node); [`h_k_delta`] validates more.
pub fn string_edges(a: &[NodeId], b: &[NodeId], params: HkDeltaParams) -> Vec<(NodeId, NodeId)> {
    let HkDeltaParams { k, delta } = params;
    let (a_rest, b_rest) = (&a[delta..], &b[k * delta..]);
    assert!(
        a_rest.len() >= delta && b_rest.len() >= delta,
        "stitching needs at least delta targets"
    );
    let clusters: Vec<&[NodeId]> = std::iter::once(&a[..delta])
        .chain(b[..k * delta].chunks(delta))
        .collect();
    let mut edges = Vec::with_capacity((k + 2) * delta * delta);
    for w in clusters.windows(2) {
        for &u in w[0] {
            edges.extend(w[1].iter().map(|&v| (u.min(v), u.max(v))));
        }
    }
    for (cluster, targets) in [(clusters[0], a_rest), (clusters[k], b_rest)] {
        for (x, &u) in cluster.iter().enumerate() {
            for j in 0..delta {
                let t = targets[(x * delta + j) % targets.len()];
                edges.push((u.min(t), u.max(t)));
            }
        }
    }
    edges
}

fn validate_partition(n: usize, a: &[NodeId], b: &[NodeId]) -> Result<(), GraphError> {
    if a.len() + b.len() != n {
        return Err(GraphError::InvalidParameter(format!(
            "|A| + |B| = {} does not equal n = {n}",
            a.len() + b.len()
        )));
    }
    let mut seen = vec![false; n];
    for &v in a.iter().chain(b.iter()) {
        let vu = v as usize;
        if vu >= n {
            return Err(GraphError::NodeOutOfRange { node: v, n });
        }
        if seen[vu] {
            return Err(GraphError::InvalidParameter(format!(
                "node {v} appears twice in A ∪ B"
            )));
        }
        seen[vu] = true;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::is_connected;
    use crate::diligence::absolute_diligence;

    fn split(n: usize, a_size: usize) -> (Vec<NodeId>, Vec<NodeId>) {
        let a: Vec<NodeId> = (0..a_size as NodeId).collect();
        let b: Vec<NodeId> = (a_size as NodeId..n as NodeId).collect();
        (a, b)
    }

    #[test]
    fn cluster_degrees_are_2_delta() {
        let n = 200;
        let (a, b) = split(n, 50);
        let params = HkDeltaParams { k: 3, delta: 6 };
        let h = h_k_delta(n, &a, &b, params, &mut SimRng::seed_from_u64(1)).unwrap();
        for cluster in h.clusters() {
            assert_eq!(cluster.len(), 6);
            for &v in cluster {
                assert_eq!(h.graph().degree(v), 12, "cluster node {v}");
            }
        }
    }

    #[test]
    fn expander_nodes_gain_bounded_degree() {
        let n = 200;
        let (a, b) = split(n, 50);
        let params = HkDeltaParams { k: 3, delta: 6 };
        let h = h_k_delta(n, &a, &b, params, &mut SimRng::seed_from_u64(2)).unwrap();
        // Δ² = 36 extra edges spread over |a_rest| = 44 targets: max +1 each.
        for &v in h.a_rest() {
            let d = h.graph().degree(v);
            assert!((4..=6).contains(&d), "a_rest node {v} has degree {d}");
        }
        for &v in h.b_rest() {
            let d = h.graph().degree(v);
            assert!((4..=6).contains(&d), "b_rest node {v} has degree {d}");
        }
    }

    #[test]
    fn connected_and_correct_size() {
        let n = 150;
        let (a, b) = split(n, 40);
        let params = HkDeltaParams { k: 2, delta: 5 };
        let h = h_k_delta(n, &a, &b, params, &mut SimRng::seed_from_u64(3)).unwrap();
        assert_eq!(h.graph().n(), n);
        assert!(is_connected(h.graph()));
    }

    #[test]
    fn string_edge_count() {
        // The string alone contributes k·Δ² edges; stitching adds 2·Δ² and
        // the expanders 2·|rest| each (4-regular).
        let n = 300;
        let (a, b) = split(n, 100);
        let params = HkDeltaParams { k: 4, delta: 7 };
        let h = h_k_delta(n, &a, &b, params, &mut SimRng::seed_from_u64(4)).unwrap();
        let d2 = 49;
        let a_rest = 100 - 7;
        let b_rest = 200 - 28;
        let expected = 4 * d2 + 2 * d2 + 2 * a_rest + 2 * b_rest;
        assert_eq!(h.graph().m(), expected);
    }

    #[test]
    fn string_edges_are_the_non_random_part() {
        let n = 300;
        let (a, b) = split(n, 100);
        let params = HkDeltaParams { k: 4, delta: 7 };
        let h = h_k_delta(n, &a, &b, params, &mut SimRng::seed_from_u64(4)).unwrap();
        let mut string = string_edges(&a, &b, params);
        assert!(string
            .iter()
            .all(|&(u, v)| u < v && h.graph().has_edge(u, v)));
        string.sort_unstable();
        string.dedup();
        assert_eq!(
            string.len(),
            (4 + 2) * 49,
            "k·Δ² string plus 2·Δ² stitch edges"
        );
    }

    #[test]
    fn absolute_diligence_order_one_over_delta() {
        // Cut edges inside the string have both endpoints of degree 2Δ,
        // so ρ̄ ≤ 1/(2Δ); expander edges give at most 1/4.
        let n = 200;
        let (a, b) = split(n, 50);
        let params = HkDeltaParams { k: 3, delta: 6 };
        let h = h_k_delta(n, &a, &b, params, &mut SimRng::seed_from_u64(5)).unwrap();
        let rho_abs = absolute_diligence(h.graph());
        assert!((rho_abs - 1.0 / 12.0).abs() < 1e-12, "rho_abs = {rho_abs}");
    }

    #[test]
    fn estimates_match_observation_4_1() {
        let n = 400;
        let (a, b) = split(n, 100);
        let params = HkDeltaParams { k: 5, delta: 8 };
        let h = h_k_delta(n, &a, &b, params, &mut SimRng::seed_from_u64(6)).unwrap();
        let phi_est = h.conductance_estimate();
        assert!((phi_est - 64.0 / (5.0 * 64.0 + 400.0)).abs() < 1e-12);
        assert!((h.diligence_estimate() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn validates_sizes_and_partition() {
        let mut rng = SimRng::seed_from_u64(7);
        let params = HkDeltaParams { k: 2, delta: 5 };
        // Overlapping partition.
        let a: Vec<NodeId> = (0..30).collect();
        let bad_b: Vec<NodeId> = (29..60).collect();
        assert!(h_k_delta(60, &a, &bad_b, params, &mut rng).is_err());
        // Wrong total.
        let b: Vec<NodeId> = (30..59).collect();
        assert!(h_k_delta(60, &a, &b, params, &mut rng).is_err());
        // A too small.
        let (a2, b2) = {
            let a: Vec<NodeId> = (0..8).collect();
            let b: Vec<NodeId> = (8..60).collect();
            (a, b)
        };
        assert!(h_k_delta(60, &a2, &b2, params, &mut rng).is_err());
        // Zero parameters.
        let (a3, b3) = {
            let a: Vec<NodeId> = (0..30).collect();
            let b: Vec<NodeId> = (30..60).collect();
            (a, b)
        };
        assert!(h_k_delta(60, &a3, &b3, HkDeltaParams { k: 0, delta: 5 }, &mut rng).is_err());
        assert!(h_k_delta(60, &a3, &b3, HkDeltaParams { k: 2, delta: 0 }, &mut rng).is_err());
    }

    #[test]
    fn tiny_rest_falls_back_to_complete() {
        // |a_rest| = 5 exactly uses the expander; make |a| = delta + 5.
        let n = 60;
        let (a, b) = split(n, 10);
        let params = HkDeltaParams { k: 2, delta: 5 };
        let h = h_k_delta(n, &a, &b, params, &mut SimRng::seed_from_u64(8)).unwrap();
        assert!(is_connected(h.graph()));
    }

    #[test]
    fn deterministic_for_seed() {
        let n = 120;
        let (a, b) = split(n, 40);
        let params = HkDeltaParams { k: 2, delta: 6 };
        let h1 = h_k_delta(n, &a, &b, params, &mut SimRng::seed_from_u64(9)).unwrap();
        let h2 = h_k_delta(n, &a, &b, params, &mut SimRng::seed_from_u64(9)).unwrap();
        assert_eq!(h1.graph(), h2.graph());
    }
}
