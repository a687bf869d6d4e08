//! Dynamic Erdős–Rényi: a fresh sampled `G(n, p)` every window.
//!
//! The paper's bounds hold for *arbitrary* dynamic graph sequences; the
//! harshest oblivious random sequence is full independence — `G(t)` is a
//! brand-new `G(n, p)` draw each window, with no correlation to `G(t−1)`
//! (the `q = 1 − p`-free limit of the edge-Markovian model \[7\], and the
//! dynamic-graph regime Clementi et al. analyze for flooding). Every
//! window is a seeded sampled [`Topology::gnp`] backend, so a step costs
//! `O(1)` up front and `O(n + np·n)` when the window is first queried —
//! its rows drawn by geometric skipping into one CSR build, no `Θ(n²)`
//! scan — and [`ResampledGnp::edges_changed`] hands the engine the exact
//! symmetric difference between consecutive samples
//! (`O(n + m_old + m_new)` straight off the realized rows).

use crate::{DynamicNetwork, EdgeDelta};
use gossip_graph::{GraphError, NodeSet, Topology};
use gossip_stats::SimRng;

/// The independently-resampled `G(n, p)` dynamic network.
///
/// `G(0)` is drawn from the construction seed (so every trial of a sweep
/// starts from the same first window, mirroring [`crate::EdgeMarkovian`]'s
/// shared initial graph); every later window is resampled from the trial
/// RNG, exactly once per increasing `t`.
///
/// # Example
///
/// ```
/// use gossip_dynamics::{DynamicNetwork, ResampledGnp};
/// use gossip_graph::NodeSet;
/// use gossip_stats::SimRng;
///
/// let mut net = ResampledGnp::new(500, 0.02, 7).unwrap();
/// let mut rng = SimRng::seed_from_u64(5);
/// let informed = NodeSet::new(500);
/// let m0 = net.topology(0, &informed, &mut rng).m();
/// let m1 = net.topology(1, &informed, &mut rng).m();
/// assert!(m0 > 0 && m1 > 0);
/// ```
#[derive(Debug, Clone)]
pub struct ResampledGnp {
    n: usize,
    p: f64,
    initial: Topology,
    current: Topology,
    last_step: Option<u64>,
}

impl ResampledGnp {
    /// Creates the process. `seed` fixes the first window's sample.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] when `n < 2` or `p ∉ (0, 1]`
    /// (as [`Topology::gnp`]).
    pub fn new(n: usize, p: f64, seed: u64) -> Result<Self, GraphError> {
        let initial = Topology::gnp(n, p, SimRng::seed_from_u64(seed).next_u64())?;
        Ok(ResampledGnp {
            n,
            p,
            current: initial.clone(),
            initial,
            last_step: None,
        })
    }

    /// Edge probability `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The window currently exposed.
    pub fn current(&self) -> &Topology {
        &self.current
    }

    /// Replaces the window with a fresh sample seeded from the trial RNG
    /// and returns the topology it replaced.
    fn resample(&mut self, rng: &mut SimRng) -> Topology {
        let fresh =
            Topology::gnp(self.n, self.p, rng.next_u64()).expect("parameters validated in new()");
        std::mem::replace(&mut self.current, fresh)
    }
}

impl DynamicNetwork for ResampledGnp {
    fn n(&self) -> usize {
        self.n
    }

    fn topology(&mut self, t: u64, _informed: &NodeSet, rng: &mut SimRng) -> &Topology {
        match self.last_step {
            None => {
                for _ in 0..t {
                    self.resample(rng);
                }
            }
            Some(prev) if t > prev => {
                for _ in 0..(t - prev) {
                    self.resample(rng);
                }
            }
            _ => {}
        }
        self.last_step = Some(t);
        &self.current
    }

    fn reset(&mut self) {
        self.current = self.initial.clone();
        self.last_step = None;
    }

    fn name(&self) -> &str {
        "resampled-gnp"
    }

    /// Single-step advances resample and report the exact symmetric
    /// difference between the outgoing and incoming samples, computed
    /// straight off the two realized graphs' rows (no copy).
    /// Multi-window jumps fall back to `None` (the engine rebuilds after
    /// `topology` catches up).
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
                let old = self.resample(rng);
                self.last_step = Some(t);
                Some(EdgeDelta::between_topologies(&old, &self.current))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t0_exposes_the_seeded_initial_sample() {
        let mut net = ResampledGnp::new(40, 0.2, 3).unwrap();
        let mut rng = SimRng::seed_from_u64(1);
        let informed = NodeSet::new(40);
        let m0 = net.topology(0, &informed, &mut rng).m();
        // Same t: unchanged; same seed, fresh instance: same sample.
        assert_eq!(net.topology(0, &informed, &mut rng).m(), m0);
        let mut other = ResampledGnp::new(40, 0.2, 3).unwrap();
        assert_eq!(other.topology(0, &informed, &mut rng).m(), m0);
    }

    #[test]
    fn windows_are_resampled() {
        let mut net = ResampledGnp::new(60, 0.15, 9).unwrap();
        let mut rng = SimRng::seed_from_u64(2);
        let informed = NodeSet::new(60);
        let g0 = net.topology(0, &informed, &mut rng).materialize();
        let g1 = net.topology(1, &informed, &mut rng).materialize();
        assert_ne!(g0, g1, "consecutive windows should be fresh samples");
    }

    #[test]
    fn delta_is_the_exact_symmetric_difference() {
        let mut net = ResampledGnp::new(50, 0.12, 4).unwrap();
        let mut rng = SimRng::seed_from_u64(7);
        let informed = NodeSet::new(50);
        let before = net.topology(0, &informed, &mut rng).materialize();
        let delta = net.edges_changed(1, &informed, &mut rng).unwrap();
        let after = net.topology(1, &informed, &mut rng).materialize();
        assert_eq!(delta, EdgeDelta::between(&before, &after));
        assert!(!delta.is_empty());
        // Multi-window jumps decline the diff.
        assert!(net.edges_changed(5, &informed, &mut rng).is_none());
    }

    #[test]
    fn reset_restores_the_initial_sample() {
        let mut net = ResampledGnp::new(30, 0.3, 11).unwrap();
        let mut rng = SimRng::seed_from_u64(5);
        let informed = NodeSet::new(30);
        let g0 = net.topology(0, &informed, &mut rng).materialize();
        let _ = net.topology(4, &informed, &mut rng);
        net.reset();
        assert_eq!(net.topology(0, &informed, &mut rng).materialize(), g0);
    }

    #[test]
    fn validates_parameters() {
        assert!(ResampledGnp::new(1, 0.5, 0).is_err());
        assert!(ResampledGnp::new(10, 0.0, 0).is_err());
        assert!(ResampledGnp::new(10, 1.5, 0).is_err());
        assert_eq!(
            ResampledGnp::new(10, 0.5, 0).unwrap().name(),
            "resampled-gnp"
        );
    }
}
