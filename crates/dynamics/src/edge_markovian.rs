//! Edge-Markovian evolving graphs (Clementi et al. \[7\], related work).
//!
//! Given birth probability `p` and death probability `q`, each non-edge
//! appears independently with probability `p` and each edge disappears with
//! probability `q` at every step. For `p = Ω(1/n)` and constant `q`, the
//! synchronous push algorithm spreads a rumor in `O(log n)` rounds w.h.p. —
//! reproduced as extension experiment X1.

use crate::{DynamicNetwork, EdgeDelta};
use gossip_graph::{Graph, GraphError, NodeId, NodeSet, Topology};
use gossip_stats::{Geometric, SimRng};

/// The edge-Markovian evolving network.
///
/// The graph evolves exactly once per increasing `t`; calling
/// [`DynamicNetwork::topology`] repeatedly with the same `t` returns the
/// same graph.
///
/// # Example
///
/// ```
/// use gossip_dynamics::{DynamicNetwork, EdgeMarkovian};
/// use gossip_graph::{Graph, NodeSet};
/// use gossip_stats::SimRng;
///
/// let initial = Graph::empty(30);
/// let mut net = EdgeMarkovian::new(initial, 0.1, 0.3).unwrap();
/// let mut rng = SimRng::seed_from_u64(5);
/// let informed = NodeSet::new(30);
/// let g1 = net.topology(1, &informed, &mut rng);
/// assert!(g1.m() > 0); // births happened
/// ```
#[derive(Debug, Clone)]
pub struct EdgeMarkovian {
    initial: Graph,
    current: Topology,
    p: f64,
    q: f64,
    /// The birth skip distribution; `None` when `p` is 0.
    births: Option<Geometric>,
    last_step: Option<u64>,
}

impl EdgeMarkovian {
    /// Creates the process from an initial graph and transition
    /// probabilities.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] when `p` or `q` is outside
    /// `\[0, 1\]`.
    pub fn new(initial: Graph, p: f64, q: f64) -> Result<Self, GraphError> {
        if !(0.0..=1.0).contains(&p) || !(0.0..=1.0).contains(&q) {
            return Err(GraphError::InvalidParameter(format!(
                "birth/death probabilities must lie in [0,1], got p={p}, q={q}"
            )));
        }
        let current = Topology::materialized(initial.clone());
        Ok(EdgeMarkovian {
            initial,
            current,
            p,
            q,
            births: Geometric::new(p).ok(),
            last_step: None,
        })
    }

    /// Birth probability `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Death probability `q`.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The stationary edge density `p/(p+q)` of the per-edge two-state
    /// chain (when `p + q > 0`).
    pub fn stationary_density(&self) -> f64 {
        if self.p + self.q > 0.0 {
            self.p / (self.p + self.q)
        } else {
            0.0
        }
    }

    fn evolve(&mut self, rng: &mut SimRng) {
        let _ = self.evolve_delta(rng);
    }

    /// Advances one step and returns the exact edge diff.
    ///
    /// Deaths cost one Bernoulli draw per current edge, in lexicographic
    /// order (no draw when `q` is 0 or 1). Births are sampled next, by
    /// geometric skipping over the pair universe in rank order (no draw
    /// when `p` is 0): each pair is hit independently with probability
    /// `p`, and hits on existing edges are ignored because their fate is
    /// the death draw. Per-pair behavior is identical to a full scan, but
    /// the work drops from `Θ(n²)` RNG draws to `O(m + p·n²)` — the sparse
    /// regime (`p = Θ(1/n)`) the related-work experiments sweep runs in
    /// `O(n)` per step. Both lists come out lexicographic, so
    /// [`Graph::apply_changes`] turns the current CSR into the next
    /// window's in one linear pass.
    fn evolve_delta(&mut self, rng: &mut SimRng) -> EdgeDelta {
        let current = self
            .current
            .as_graph()
            .expect("edge-Markovian graphs are materialized");
        let mut removed = Vec::new();
        if self.q > 0.0 {
            // Branch-free on the coin: every edge is written to the next
            // free slot, which advances only on a death.
            removed.resize(current.m(), (0, 0));
            let mut dead = 0;
            for u in current.nodes() {
                let row = current.neighbors(u);
                for &v in &row[row.partition_point(|&w| w <= u)..] {
                    removed[dead] = (u, v);
                    dead += usize::from(rng.chance(self.q));
                }
            }
            removed.truncate(dead);
        }
        let added = match &self.births {
            Some(geo) => births(current, geo, rng),
            None => Vec::new(),
        };
        self.current
            .as_graph_mut()
            .expect("edge-Markovian graphs are materialized")
            .apply_changes(&added, &removed);
        EdgeDelta::new(added, removed)
    }
}

/// The pairs `(u, v)`, `u < v`, absent from `current` that one step
/// births, in lexicographic order: geometric skips over the pair ranks
/// (row u's ranks start at `Σ_{i<u} (n−1−i)`), so the row and the
/// position in its old adjacency only advance.
fn births(current: &Graph, geo: &Geometric, rng: &mut SimRng) -> Vec<(NodeId, NodeId)> {
    let mut added = Vec::new();
    let n = current.n() as u64;
    if n < 2 {
        return added;
    }
    let total_pairs = n * (n - 1) / 2;
    let (mut u, mut row_rank, mut next_row_rank) = (0, 0, n - 1);
    let mut old_row = current.neighbors(0);
    let mut idx = geo.sample(rng) - 1;
    while idx < total_pairs {
        while idx >= next_row_rank {
            u += 1;
            row_rank = next_row_rank;
            next_row_rank += n - 1 - u;
            old_row = current.neighbors(u as NodeId);
        }
        let v = (u + 1 + idx - row_rank) as NodeId;
        old_row = &old_row[old_row.partition_point(|&w| w < v)..];
        if old_row.first() != Some(&v) {
            added.push((u as NodeId, v));
        }
        // A saturated sample (p below 2⁻⁵⁴) ends the row scan.
        idx = idx.saturating_add(geo.sample(rng));
    }
    added
}

impl DynamicNetwork for EdgeMarkovian {
    fn n(&self) -> usize {
        self.current.n()
    }

    fn topology(&mut self, t: u64, _informed: &NodeSet, rng: &mut SimRng) -> &Topology {
        match self.last_step {
            None => {
                // First exposure: evolve (t - 0) times from the initial graph
                // if the caller starts late; normally t == 0 and we expose
                // the initial graph unchanged.
                for _ in 0..t {
                    self.evolve(rng);
                }
            }
            Some(prev) if t > prev => {
                for _ in 0..(t - prev) {
                    self.evolve(rng);
                }
            }
            _ => {}
        }
        self.last_step = Some(t);
        &self.current
    }

    fn reset(&mut self) {
        self.current = Topology::materialized(self.initial.clone());
        self.last_step = None;
    }

    fn name(&self) -> &str {
        "edge-Markovian [7]"
    }

    /// Single-step advances report the exact flip set; multi-window jumps
    /// fall back to `None` (the engine rebuilds after `topology` catches
    /// up).
    fn edges_changed(
        &mut self,
        t: u64,
        _informed: &NodeSet,
        rng: &mut SimRng,
    ) -> Option<EdgeDelta> {
        match self.last_step {
            None if t == 0 => {
                self.last_step = Some(0);
                Some(EdgeDelta::empty())
            }
            Some(prev) if t == prev => Some(EdgeDelta::empty()),
            Some(prev) if t == prev + 1 => {
                let delta = self.evolve_delta(rng);
                self.last_step = Some(t);
                Some(delta)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;

    #[test]
    fn t0_exposes_initial() {
        let init = generators::cycle(10).unwrap();
        let mut net = EdgeMarkovian::new(init.clone(), 0.2, 0.2).unwrap();
        let mut rng = SimRng::seed_from_u64(1);
        let informed = NodeSet::new(10);
        assert_eq!(net.topology(0, &informed, &mut rng).as_graph(), Some(&init));
        // Repeated call with the same t: unchanged.
        assert_eq!(net.topology(0, &informed, &mut rng).as_graph(), Some(&init));
    }

    #[test]
    fn all_die_all_born_extremes() {
        let init = generators::complete(8).unwrap();
        let mut net = EdgeMarkovian::new(init, 0.0, 1.0).unwrap();
        let mut rng = SimRng::seed_from_u64(2);
        let informed = NodeSet::new(8);
        assert_eq!(net.topology(1, &informed, &mut rng).m(), 0);

        let mut net = EdgeMarkovian::new(Graph::empty(8), 1.0, 0.0).unwrap();
        assert_eq!(net.topology(1, &informed, &mut rng).m(), 28);
    }

    #[test]
    fn tiny_birth_probability_births_nothing() {
        // 1 − p rounds to 1 below 2⁻⁵⁴; one step once birthed all 1225
        // pairs of the empty 50-node graph.
        let mut net = EdgeMarkovian::new(Graph::empty(50), 1e-20, 0.0).unwrap();
        let mut rng = SimRng::seed_from_u64(7);
        let informed = NodeSet::new(50);
        let _ = net.topology(0, &informed, &mut rng);
        let delta = net.edges_changed(1, &informed, &mut rng).unwrap();
        assert!(delta.is_empty());
        assert_eq!(net.topology(1, &informed, &mut rng).m(), 0);
    }

    #[test]
    fn density_approaches_stationary() {
        let n = 40;
        let mut net = EdgeMarkovian::new(Graph::empty(n), 0.3, 0.3).unwrap();
        assert!((net.stationary_density() - 0.5).abs() < 1e-12);
        let mut rng = SimRng::seed_from_u64(3);
        let informed = NodeSet::new(n);
        let g = net.topology(50, &informed, &mut rng);
        let pairs = (n * (n - 1) / 2) as f64;
        let density = g.m() as f64 / pairs;
        assert!((density - 0.5).abs() < 0.1, "density {density}");
    }

    #[test]
    fn reset_restores_initial() {
        let init = generators::star(9).unwrap();
        let mut net = EdgeMarkovian::new(init.clone(), 0.5, 0.5).unwrap();
        let mut rng = SimRng::seed_from_u64(4);
        let informed = NodeSet::new(9);
        let _ = net.topology(3, &informed, &mut rng);
        net.reset();
        assert_eq!(net.topology(0, &informed, &mut rng).as_graph(), Some(&init));
    }

    #[test]
    fn validates_probabilities() {
        assert!(EdgeMarkovian::new(Graph::empty(5), 1.5, 0.2).is_err());
        assert!(EdgeMarkovian::new(Graph::empty(5), 0.2, -0.1).is_err());
    }

    use gossip_graph::Graph;
}
