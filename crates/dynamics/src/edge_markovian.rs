//! Edge-Markovian evolving graphs (Clementi et al. \[7\], related work).
//!
//! Given birth probability `p` and death probability `q`, each non-edge
//! appears independently with probability `p` and each edge disappears with
//! probability `q` at every step. For `p = Ω(1/n)` and constant `q`, the
//! synchronous push algorithm spreads a rumor in `O(log n)` rounds w.h.p. —
//! reproduced as extension experiment X1.
//!
//! A step draws its coins first and then walks the graph once: the next
//! window's upper rows are merged from the current ones and the births,
//! and the CSR is rebuilt from them in place
//! ([`Graph::rebuild_from_upper`]). Every buffer of the step is kept
//! across windows, so a step allocates only the delta it returns.

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
    step: StepBuffers,
}

/// What one step writes, kept across windows.
#[derive(Debug, Clone, Default)]
struct StepBuffers {
    /// `split[u]`: how many of the current row `u`'s neighbours lie below
    /// `u`, so that its upper row is `neighbors(u)[split[u]..]`; empty
    /// until the first step after [`EdgeMarkovian::new`] or a reset.
    split: Vec<u32>,
    /// The death coins, one bit per current edge in lexicographic order.
    deaths: Vec<u64>,
    /// The pair ranks the birth skips hit, ascending.
    birth_ranks: Vec<u64>,
    /// The next window's upper rows (see [`Graph::rebuild_from_upper`]);
    /// `upper` only grows, and its entries past the last offset are
    /// scratch.
    upper_offsets: Vec<u32>,
    upper: Vec<NodeId>,
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
        Ok(EdgeMarkovian {
            current: Topology::materialized(initial.clone()),
            initial,
            p,
            q,
            births: Geometric::new(p).ok(),
            last_step: None,
            step: StepBuffers::default(),
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
    /// The draws come first. Deaths cost one Bernoulli draw per current
    /// edge, in lexicographic order (no draw when `q` is 0 or 1), kept as
    /// one bit per edge. Births are sampled next, by geometric skipping
    /// over the pair universe in rank order (no draw when `p` is 0): each
    /// pair is hit independently with probability `p`, and the ranks hit
    /// are kept. Per-pair behavior is identical to a full scan, but the
    /// work drops from `Θ(n²)` RNG draws to `O(m + p·n²)` — the sparse
    /// regime (`p = Θ(1/n)`) the related-work experiments sweep runs in
    /// `O(n)` per step.
    ///
    /// Then one walk over the current upper rows merges each with the
    /// births that fall in it: a dead edge is dropped (and listed as
    /// removed), a birth on a missing pair is inserted (and listed as
    /// added), and a birth on an existing edge is ignored, because that
    /// edge's fate is its coin. The walk writes the next upper rows, from
    /// which the CSR is rebuilt in place; both lists come out
    /// lexicographic.
    fn evolve_delta(&mut self, rng: &mut SimRng) -> EdgeDelta {
        let graph = self
            .current
            .as_graph_mut()
            .expect("edge-Markovian graphs are materialized");
        let StepBuffers {
            split,
            deaths,
            birth_ranks,
            upper_offsets,
            upper,
        } = &mut self.step;
        let (n, m) = (graph.n(), graph.m());
        if split.len() != n {
            split.clear();
            split.extend(
                graph
                    .nodes()
                    .map(|u| graph.neighbors(u).partition_point(|&w| w <= u) as u32),
            );
        }
        deaths.clear();
        for first in (0..m).step_by(64) {
            let mut word = 0;
            for bit in 0..(m - first).min(64) {
                word |= u64::from(rng.chance(self.q)) << bit;
            }
            deaths.push(word);
        }
        birth_ranks.clear();
        if let (Some(geo), true) = (&self.births, n >= 2) {
            let total_pairs = (n * (n - 1) / 2) as u64;
            let mut rank = geo.sample(rng) - 1;
            while rank < total_pairs {
                birth_ranks.push(rank);
                // A saturated sample (p below 2⁻⁵⁴) ends the scan.
                rank = rank.saturating_add(geo.sample(rng));
            }
        }
        // The walk does not branch on a coin, which no predictor guesses:
        // every current edge is written both to the next upper rows and to
        // `removed`, and only the cursor its coin selects advances, so both
        // buffers get a spare last slot.
        let dead = deaths.iter().map(|w| w.count_ones() as usize).sum();
        let mut removed = vec![(0, 0); dead + 1];
        let mut added = Vec::with_capacity(birth_ranks.len());
        let len = m - dead + birth_ranks.len() + 1;
        if upper.len() < len {
            upper.resize(len, 0);
        }
        upper_offsets.clear();
        upper_offsets.push(0);
        // Row u's pairs have ranks `row_rank..row_rank + n − 1 − u`; `b` is
        // the next birth of the row, `n` past its last.
        let (mut edge, mut next_birth, mut row_rank) = (0, 0, 0);
        let (mut kept, mut died) = (0, 0);
        for u in 0..n {
            let row_end = row_rank + (n - 1 - u) as u64;
            let mut birth = || match birth_ranks.get(next_birth) {
                Some(&rank) if rank < row_end => {
                    next_birth += 1;
                    (u as u64 + 1 + rank - row_rank) as NodeId
                }
                _ => n as NodeId,
            };
            let mut b = birth();
            let u = u as NodeId;
            for &v in &graph.neighbors(u)[split[u as usize] as usize..] {
                while b < v {
                    added.push((u, b));
                    upper[kept] = b;
                    kept += 1;
                    b = birth();
                }
                if b == v {
                    b = birth();
                }
                let coin = (deaths[edge / 64] >> (edge % 64) & 1) as usize;
                upper[kept] = v;
                removed[died] = (u, v);
                kept += 1 - coin;
                died += coin;
                edge += 1;
            }
            while (b as usize) < n {
                added.push((u, b));
                upper[kept] = b;
                kept += 1;
                b = birth();
            }
            upper_offsets.push(kept as u32);
            row_rank = row_end;
        }
        removed.truncate(dead);
        graph.rebuild_from_upper(upper_offsets, &upper[..kept], split);
        EdgeDelta::new(added, removed)
    }
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
        self.step.split.clear();
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
