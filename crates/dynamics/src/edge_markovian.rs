//! Edge-Markovian evolving graphs (Clementi et al. \[7\], related work).
//!
//! Given birth probability `p` and death probability `q`, each non-edge
//! appears independently with probability `p` and each edge disappears with
//! probability `q` at every step. For `p = Ω(1/n)` and constant `q`, the
//! synchronous push algorithm spreads a rumor in `O(log n)` rounds w.h.p. —
//! reproduced as extension experiment X1.
//!
//! A step draws its coins first, 64 death coins per word
//! ([`BernoulliWords`]) and the births as geometric skips over the pair
//! ranks ([`GeometricSkip`]), grouped by row as they are drawn. Then it
//! walks the graph once: each upper row is merged with its births, and
//! the CSR is rebuilt from the merged rows in place
//! ([`Graph::rebuild_from_upper`]). Every buffer of the step is kept
//! across windows, so a step allocates only the delta it returns.

use crate::{DynamicNetwork, EdgeDelta};
use gossip_graph::{Graph, GraphError, NodeId, NodeSet, Topology};
use gossip_stats::{BernoulliWords, GeometricSkip, SimRng};

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
    /// The death coins.
    deaths: BernoulliWords,
    /// The birth skip distribution; `None` when `p` is 0.
    births: Option<GeometricSkip>,
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
    /// The births by row: row `u`'s are the columns from
    /// `birth_columns[birth_offsets[u]]` on, ascending, up to a sentinel
    /// `n` (the last entry before `birth_offsets[u + 1]`).
    birth_offsets: Vec<u32>,
    birth_columns: Vec<NodeId>,
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
            deaths: BernoulliWords::new(q),
            births: GeometricSkip::new(p),
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
    /// The draws come first. The death coins are drawn 64 to a word, one
    /// bit per current edge in lexicographic order (no draw when `q` is 0
    /// or 1). Births are sampled next, by geometric skipping over the pair
    /// universe in rank order (no draw when `p` is 0): each pair is hit
    /// independently with probability `p`, and each hit is filed under its
    /// row as it is drawn. Per-pair behavior is identical to a full scan,
    /// but the work drops from `Θ(n²)` RNG draws to `O(m/64 + p·n²)`, so
    /// the sparse regime (`p = Θ(1/n)`) the related-work experiments sweep
    /// runs in `O(n)` per step.
    ///
    /// Then one walk over the current upper rows merges each with its
    /// births: a dead edge is dropped (and listed as removed), a birth on
    /// a missing pair is inserted (and listed as added), and a birth on an
    /// existing edge is ignored, because that edge's fate is its coin. The
    /// walk writes the next upper rows, from which the CSR is rebuilt in
    /// place; both lists come out lexicographic.
    fn evolve_delta(&mut self, rng: &mut SimRng) -> EdgeDelta {
        let graph = self
            .current
            .as_graph_mut()
            .expect("edge-Markovian graphs are materialized");
        let StepBuffers {
            split,
            deaths,
            birth_offsets,
            birth_columns,
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
        deaths.extend((0..m.div_ceil(64)).map(|_| self.deaths.word(rng)));
        if m % 64 != 0 {
            deaths[m / 64] &= (1 << (m % 64)) - 1;
        }
        birth_offsets.clear();
        birth_offsets.push(0);
        birth_columns.clear();
        if let (Some(skip), true) = (&self.births, n >= 2) {
            let total_pairs = (n * (n - 1) / 2) as u64;
            // Row u's pairs have ranks `row_rank..row_end`.
            let (mut u, mut row_rank, mut row_end) = (0, 0, n as u64 - 1);
            let mut rank = skip.sample(rng) - 1;
            while rank < total_pairs {
                while rank >= row_end {
                    birth_columns.push(n as NodeId);
                    birth_offsets.push(birth_columns.len() as u32);
                    u += 1;
                    row_rank = row_end;
                    row_end += (n - 1 - u) as u64;
                }
                birth_columns.push((u as u64 + 1 + rank - row_rank) as NodeId);
                // A saturated skip (a tiny p) ends the scan.
                rank = rank.saturating_add(skip.sample(rng));
            }
        }
        while birth_offsets.len() <= n {
            birth_columns.push(n as NodeId);
            birth_offsets.push(birth_columns.len() as u32);
        }
        let births = birth_columns.len() - n;
        // The walk does not branch on a coin or a comparison, which no
        // predictor guesses: each step writes the smaller of the row's and
        // the births' next entries to the next upper rows, to `removed`
        // and to `added`, and only the cursors that its coin and its
        // comparison select advance, so each buffer gets a spare last slot.
        // A row's births end in the sentinel `n`, above every entry, so the
        // step never asks whether they ran out; the births past the row's
        // last entry follow it.
        let dead = deaths.iter().map(|w| w.count_ones() as usize).sum();
        let mut removed = vec![(0, 0); dead + 1];
        let mut added = vec![(0, 0); births + 1];
        let len = m - dead + births + 1;
        if upper.len() < len {
            upper.resize(len, 0);
        }
        upper_offsets.clear();
        upper_offsets.push(0);
        let end = n as NodeId;
        let (mut edge, mut kept, mut died, mut born) = (0, 0, 0, 0);
        for u in 0..n {
            let row = &graph.neighbors(u as NodeId)[split[u] as usize..];
            let births = &birth_columns[birth_offsets[u] as usize..];
            let (mut i, mut j) = (0, 0);
            while i < row.len() {
                let (a, b) = (row[i], births[j]);
                // `a` leads on a tie: a birth on an existing edge is dropped.
                let (take_a, take_b) = (usize::from(a <= b), usize::from(b <= a));
                let at = edge + i;
                let coin = take_a & (deaths[at / 64] >> (at % 64)) as usize & 1;
                let v = a.min(b);
                let pair = (u as NodeId, v);
                upper[kept] = v;
                removed[died] = pair;
                added[born] = pair;
                kept += 1 - coin;
                died += coin;
                born += 1 - take_a;
                i += take_a;
                j += take_b;
            }
            while births[j] != end {
                upper[kept] = births[j];
                added[born] = (u as NodeId, births[j]);
                kept += 1;
                born += 1;
                j += 1;
            }
            edge += row.len();
            upper_offsets.push(kept as u32);
        }
        removed.truncate(dead);
        added.truncate(born);
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

    /// `Φ⁻¹(1 − 10⁻⁶/2)`: a correct chain crosses it about once in a
    /// million runs.
    const Z: f64 = 4.89;

    /// z-score of `hits` successes in `trials` Bernoulli(`p`) trials.
    fn z(hits: usize, trials: usize, p: f64) -> f64 {
        let trials = trials as f64;
        (hits as f64 - trials * p) / (trials * p * (1.0 - p)).sqrt()
    }

    /// An absolute oracle for the step's draws: from a fixed graph with
    /// `m` edges, one step kills each edge with probability `q` and
    /// births each of the `N − m` non-edges with probability `p`, so over
    /// many seeds the deaths and births are binomial around `q·m` and
    /// `p·(N − m)`.
    #[test]
    fn one_step_follows_the_chain_law() {
        let n = 300;
        let initial = generators::erdos_renyi(n, 0.05, &mut SimRng::seed_from_u64(40)).unwrap();
        let (m, pairs) = (initial.m(), n * (n - 1) / 2);
        let informed = NodeSet::new(n);
        let seeds = 100;
        for (p, q) in [(0.002, 0.2), (0.03, 1.0 / 3.0), (1e-4, 0.5)] {
            let mut net = EdgeMarkovian::new(initial.clone(), p, q).unwrap();
            let (mut deaths, mut births) = (0, 0);
            for seed in 0..seeds {
                let mut rng = SimRng::seed_from_u64(seed);
                net.reset();
                let _ = net.topology(0, &informed, &mut rng);
                let delta = net.edges_changed(1, &informed, &mut rng).unwrap();
                deaths += delta.removed().len();
                births += delta.added().len();
            }
            let trials = seeds as usize;
            let zd = z(deaths, trials * m, q);
            let zb = z(births, trials * (pairs - m), p);
            assert!(zd.abs() < Z, "p = {p}, q = {q}: deaths z = {zd}");
            assert!(zb.abs() < Z, "p = {p}, q = {q}: births z = {zb}");
        }
    }

    /// Far past the mixing time `1/(p + q)`, every pair is an edge with
    /// the stationary probability `p/(p + q)`, independently of the
    /// others: the edge count over independent chains is binomial.
    #[test]
    fn density_is_stationary_after_mixing() {
        let (n, p, q) = (200, 0.02, 0.2);
        let pairs = n * (n - 1) / 2;
        let informed = NodeSet::new(n);
        let mut net = EdgeMarkovian::new(Graph::empty(n), p, q).unwrap();
        let density = net.stationary_density();
        let chains = 20;
        let mut edges = 0;
        for seed in 0..chains {
            let mut rng = SimRng::seed_from_u64(100 + seed);
            net.reset();
            // (1 − p − q)^60 < 10⁻⁶: the empty start is forgotten.
            edges += net.topology(60, &informed, &mut rng).m();
        }
        let zs = z(edges, chains as usize * pairs, density);
        assert!(zs.abs() < Z, "edge count {edges}: z = {zs}");
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
