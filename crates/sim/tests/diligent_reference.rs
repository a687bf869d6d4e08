//! The Section 4 adversary against the family it replaced.
//!
//! [`DiligentNetwork`] keeps its two 4-regular expanders across
//! re-stitches and edits them locally (see its module doc). The reference
//! here is the earlier family: it redraws the whole `H_{k,Δ}(A_t, B_t)`,
//! expanders included, after every window in which a `B` node hears the
//! rumor. Lemma 4.2's crossing bound is about the string alone, so the
//! two must be indistinguishable in spread time: a two-sample
//! Kolmogorov–Smirnov test at α = 0.01 on the event engine, the path
//! scenario sweeps take.

use gossip_dynamics::{DiligentNetwork, DynamicNetwork};
use gossip_graph::generators::{h_k_delta, HkDeltaParams};
use gossip_graph::{NodeId, NodeSet, Topology};
use gossip_sim::{CutRateAsync, EventSimulation, RunConfig};
use gossip_stats::{ks, SimRng};

const ALPHA: f64 = 0.01;

/// `G(n, ρ)` rebuilt from scratch at every re-stitch. It keeps the
/// default `edges_changed` (`None`), so the engine rebuilds every window.
struct FreshRebuild {
    n: usize,
    params: HkDeltaParams,
    a_nodes: Vec<NodeId>,
    b_nodes: Vec<NodeId>,
    current: Option<Topology>,
    frozen: bool,
}

impl FreshRebuild {
    fn new(n: usize, params: HkDeltaParams) -> Self {
        let mut net = FreshRebuild {
            n,
            params,
            a_nodes: Vec::new(),
            b_nodes: Vec::new(),
            current: None,
            frozen: false,
        };
        net.reset();
        net
    }

    fn rebuild(&mut self, rng: &mut SimRng) {
        let h = h_k_delta(self.n, &self.a_nodes, &self.b_nodes, self.params, rng).unwrap();
        self.current = Some(Topology::materialized(h.into_graph()));
    }
}

impl DynamicNetwork for FreshRebuild {
    fn n(&self) -> usize {
        self.n
    }

    fn topology(&mut self, _t: u64, informed: &NodeSet, rng: &mut SimRng) -> &Topology {
        if self.current.is_none() {
            self.rebuild(rng);
        } else if !self.frozen {
            let (moved, kept): (Vec<NodeId>, Vec<NodeId>) =
                self.b_nodes.iter().partition(|&&v| informed.contains(v));
            if !moved.is_empty() {
                if kept.len() >= self.n / 4 {
                    self.a_nodes.extend(moved);
                    self.b_nodes = kept;
                    self.rebuild(rng);
                } else {
                    self.frozen = true;
                }
            }
        }
        self.current.as_ref().unwrap()
    }

    fn reset(&mut self) {
        let a_size = self.n / 4;
        self.a_nodes = (0..a_size as NodeId).collect();
        self.b_nodes = (a_size as NodeId..self.n as NodeId).collect();
        self.current = None;
        self.frozen = false;
    }

    fn name(&self) -> &str {
        "fresh-rebuild H(k,delta)"
    }
}

/// Spread times of `trials` event-engine runs of async push–pull from
/// node 0, trial `i` seeded by `derive(offset + i)`.
fn spread_times<N: DynamicNetwork>(net: &mut N, trials: u64, offset: u64) -> Vec<f64> {
    let base = SimRng::seed_from_u64(2005);
    (0..trials)
        .map(|i| {
            EventSimulation::new(CutRateAsync::new(), RunConfig::default())
                .run(net, 0, &mut base.derive(offset + i))
                .unwrap()
                .spread_time()
                .expect("the diligent family spreads")
        })
        .collect()
}

#[test]
fn persistent_expanders_match_fresh_rebuilds() {
    // diligent.toml's smallest size and ρ = 0.25 (Δ = 4, k = 3). Larger
    // sizes cost too much in a debug build; in release, 300 trials per
    // family at n = 256, 512 and 1024 give KS distances 0.053, 0.067 and
    // 0.083 against a critical value of 0.133.
    let n = 256;
    let mut persistent = DiligentNetwork::new(n, 0.25).unwrap();
    let mut fresh = FreshRebuild::new(n, persistent.params());
    let a = spread_times(&mut persistent, 300, 0);
    let b = spread_times(&mut fresh, 300, 1_000_000);
    assert!(
        ks::same_distribution(&a, &b, ALPHA),
        "KS distance {} exceeds the α = {ALPHA} critical value {}",
        ks::ks_statistic(&a, &b),
        ks::ks_critical(a.len(), b.len(), ALPHA),
    );
}
