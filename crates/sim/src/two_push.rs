//! The coupling processes of Section 4: asynchronous 2-push and forward
//! 2-push.
//!
//! Lemma 4.2's proof replaces push–pull inside the bipartite string
//! `S_0 → S_1 → … → S_k` with simpler processes:
//!
//! * **2-push**: every node carries a rate-2 clock; an informed node whose
//!   clock rings pushes to a uniformly random neighbor. On a `2Δ`-regular
//!   cluster string each edge fires at rate `2/(2Δ) = 1/Δ`, exactly the
//!   push–pull rate `1/(2Δ) + 1/(2Δ)` — the two processes spread
//!   identically there (and on any regular graph, the observation behind
//!   Lemma 5.2).
//! * **forward 2-push** (Claim 4.3): informed nodes of layer `S_i` push
//!   only to neighbors in layer `S_{i+1}`. The claim couples the two so the
//!   forward process reaches `S_k` no later, giving the clean
//!   `E[I(1, k)] ≤ 2^k Δ / k!` bound.

use crate::Protocol;
use gossip_graph::{NodeId, NodeSet, Topology};
use gossip_stats::{Exponential, SimRng};

/// Asynchronous 2-push: rate-2 clocks, informed nodes push.
///
/// # Example
///
/// ```
/// use gossip_dynamics::StaticNetwork;
/// use gossip_graph::generators;
/// use gossip_sim::{RunConfig, Simulation, TwoPush};
/// use gossip_stats::SimRng;
///
/// let mut net = StaticNetwork::new(generators::cycle(12).unwrap());
/// let mut rng = SimRng::seed_from_u64(3);
/// let outcome = Simulation::new(TwoPush::new(), RunConfig::default())
///     .run(&mut net, 0, &mut rng)
///     .unwrap();
/// assert!(outcome.complete());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TwoPush {
    _private: (),
}

impl TwoPush {
    /// Creates the protocol.
    pub fn new() -> Self {
        TwoPush::default()
    }
}

impl Protocol for TwoPush {
    fn name(&self) -> &'static str {
        "async 2-push"
    }

    fn begin(&mut self, _n: usize) {}

    fn advance_window(
        &mut self,
        g: &Topology,
        t: u64,
        informed: &mut NodeSet,
        rng: &mut SimRng,
    ) -> Option<f64> {
        let n = g.n();
        let clock = Exponential::new(2.0 * n as f64).expect("n >= 1");
        let mut tau = t as f64;
        let end = (t + 1) as f64;
        loop {
            tau += clock.sample(rng);
            if tau >= end {
                return None;
            }
            let caller = rng.index(n) as u32;
            if !informed.contains(caller) {
                continue;
            }
            let deg = g.degree(caller);
            if deg == 0 {
                continue;
            }
            let callee = g.neighbor(caller, rng.index(deg));
            informed.insert(callee);
            if informed.is_full() {
                return Some(tau);
            }
        }
    }
}

/// Forward 2-push over an explicit layer structure (Claim 4.3).
///
/// Nodes assigned to layer `i < k` push (at rate 2, when informed) to a
/// uniformly random neighbor *in layer `i+1`*; unlayered nodes and
/// last-layer nodes never push. Used by the Lemma 4.2 experiment to bound
/// the probability the rumor crosses the `H_{k,Δ}` string within one time
/// unit.
#[derive(Debug, Clone)]
pub struct ForwardTwoPush {
    /// `layer[v] = Some(i)` when `v ∈ S_i`.
    layer: Vec<Option<usize>>,
    /// Number of layers (`k + 1` for clusters `S_0..S_k`).
    layers: usize,
}

impl ForwardTwoPush {
    /// Builds the protocol from the cluster list `S_0, …, S_k` over an
    /// `n`-node graph.
    ///
    /// # Panics
    ///
    /// Panics if clusters overlap or contain out-of-range nodes.
    pub fn new(n: usize, clusters: &[Vec<NodeId>]) -> Self {
        let mut layer = vec![None; n];
        for (i, cluster) in clusters.iter().enumerate() {
            for &v in cluster {
                assert!((v as usize) < n, "cluster node {v} out of range");
                assert!(layer[v as usize].is_none(), "node {v} in two clusters");
                layer[v as usize] = Some(i);
            }
        }
        ForwardTwoPush {
            layer,
            layers: clusters.len(),
        }
    }

    /// The layer of node `v`, if any.
    pub fn layer_of(&self, v: NodeId) -> Option<usize> {
        self.layer[v as usize]
    }
}

impl Protocol for ForwardTwoPush {
    fn name(&self) -> &'static str {
        "forward 2-push"
    }

    fn begin(&mut self, n: usize) {
        assert_eq!(
            self.layer.len(),
            n,
            "layer structure sized for a different network"
        );
    }

    fn advance_window(
        &mut self,
        g: &Topology,
        t: u64,
        informed: &mut NodeSet,
        rng: &mut SimRng,
    ) -> Option<f64> {
        let n = g.n();
        let clock = Exponential::new(2.0 * n as f64).expect("n >= 1");
        let mut tau = t as f64;
        let end = (t + 1) as f64;
        loop {
            tau += clock.sample(rng);
            if tau >= end {
                return None;
            }
            let caller = rng.index(n) as u32;
            if !informed.contains(caller) {
                continue;
            }
            let Some(i) = self.layer[caller as usize] else {
                continue;
            };
            if i + 1 >= self.layers {
                continue;
            }
            // Push to a uniformly random *forward* neighbor.
            let mut forward: Vec<NodeId> = Vec::new();
            g.for_each_neighbor(caller, |u| {
                if self.layer[u as usize] == Some(i + 1) {
                    forward.push(u);
                }
            });
            if forward.is_empty() {
                continue;
            }
            let callee = forward[rng.index(forward.len())];
            informed.insert(callee);
            if informed.is_full() {
                return Some(tau);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsyncPushPull, RunConfig, Simulation};
    use gossip_dynamics::StaticNetwork;
    use gossip_graph::generators;
    use gossip_stats::ks;

    /// On regular graphs, 2-push and push-pull spread identically (the
    /// equivalence Lemma 4.2/5.2 exploit): each edge fires at rate 2/Δ in
    /// both.
    #[test]
    fn two_push_matches_pushpull_on_regular_graph() {
        let g = generators::cycle(10).unwrap();
        let base = SimRng::seed_from_u64(20);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..1500 {
            let mut rng = base.derive(i);
            let mut net = StaticNetwork::new(g.clone());
            a.push(
                Simulation::new(TwoPush::new(), RunConfig::default())
                    .run(&mut net, 0, &mut rng)
                    .unwrap()
                    .spread_time()
                    .unwrap(),
            );
            let mut rng = base.derive(50_000 + i);
            let mut net = StaticNetwork::new(g.clone());
            b.push(
                Simulation::new(AsyncPushPull::new(), RunConfig::default())
                    .run(&mut net, 0, &mut rng)
                    .unwrap()
                    .spread_time()
                    .unwrap(),
            );
        }
        assert!(
            ks::same_distribution(&a, &b, 0.001),
            "KS = {}",
            ks::ks_statistic(&a, &b)
        );
    }

    #[test]
    fn forward_push_respects_layers() {
        // Two-layer complete bipartite: S0 = {0,1}, S1 = {2,3}. A node of
        // S1, once informed, never pushes anywhere (last layer).
        let g = Topology::materialized(generators::complete_bipartite(2, 2).unwrap());
        let clusters = vec![vec![0u32, 1], vec![2u32, 3]];
        let mut proto = ForwardTwoPush::new(4, &clusters);
        assert_eq!(proto.layer_of(0), Some(0));
        assert_eq!(proto.layer_of(3), Some(1));
        proto.begin(4);
        // Start with only S0's node 0 informed: node 1 (same layer) can
        // never become informed by forward pushes.
        let mut informed = NodeSet::new(4);
        informed.insert(0);
        let mut rng = SimRng::seed_from_u64(21);
        for t in 0..50 {
            let done = proto.advance_window(&g, t, &mut informed, &mut rng);
            assert!(done.is_none());
        }
        assert!(
            !informed.contains(1),
            "forward push leaked to the same layer"
        );
        assert!(
            informed.contains(2) && informed.contains(3),
            "forward targets unreached"
        );
    }

    #[test]
    fn forward_push_crossing_probability_decays_in_k() {
        // Lemma 4.2: within one unit of time, P[S_k reached] <= 2^k Δ / k!.
        // Build a string of complete bipartite clusters of size Δ = 3 and
        // measure the empirical crossing probability for k = 2 and k = 4;
        // it must decay sharply.
        let delta = 3usize;
        let crossing_prob = |k: usize, seed: u64| {
            let layers = k + 1;
            let n = layers * delta;
            let mut b = gossip_graph::GraphBuilder::new(n);
            let cluster =
                |i: usize| ((i * delta) as u32..((i + 1) * delta) as u32).collect::<Vec<_>>();
            let clusters: Vec<Vec<u32>> = (0..layers).map(cluster).collect();
            for w in clusters.windows(2) {
                for &u in &w[0] {
                    for &v in &w[1] {
                        b.add_edge(u, v).unwrap();
                    }
                }
            }
            let g = Topology::materialized(b.build());
            let mut proto = ForwardTwoPush::new(n, &clusters);
            let base = SimRng::seed_from_u64(seed);
            let trials = 2000;
            let mut hits = 0usize;
            for i in 0..trials {
                let mut rng = base.derive(i);
                proto.begin(n);
                let mut informed = NodeSet::new(n);
                for &v in &clusters[0] {
                    informed.insert(v);
                }
                let _ = proto.advance_window(&g, 0, &mut informed, &mut rng);
                if clusters[layers - 1].iter().any(|&v| informed.contains(v)) {
                    hits += 1;
                }
            }
            hits as f64 / trials as f64
        };
        let p2 = crossing_prob(2, 22);
        let p7 = crossing_prob(7, 23);
        // Lemma 4.2 bound at k=7: 2^7 · 3 / 7! ≈ 0.076; the factorial decay
        // is what matters.
        assert!(p7 < p2 / 3.0, "p2 = {p2}, p7 = {p7}");
        assert!(
            p7 < 0.09,
            "p7 = {p7} exceeds the Lemma 4.2 bound 0.076 plus noise"
        );
    }

    #[test]
    #[should_panic]
    fn overlapping_clusters_panic() {
        ForwardTwoPush::new(4, &[vec![0, 1], vec![1, 2]]);
    }
}
