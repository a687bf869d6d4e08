//! Property-based tests for the dynamic networks.
//!
//! Invariants on randomized informed-set trajectories:
//! * every exposed graph has the full node set;
//! * closed-form profiles stay in their mathematical ranges;
//! * the adaptive adversaries' `B` side shrinks monotonically and respects
//!   the paper's freeze thresholds, and every Section 4 window keeps the
//!   `H_{k,Δ}` degrees, edge count and connectivity;
//! * `reset` restores a deterministic network to its initial trajectory.

use gossip_dynamics::{
    AbsoluteDiligentNetwork, DiligentNetwork, DynamicNetwork, DynamicStar, ProfiledNetwork,
};
use gossip_graph::connectivity::{components, is_connected};
use gossip_graph::{Graph, NodeId, NodeSet};
use gossip_stats::SimRng;
use proptest::prelude::*;

/// Builds a random monotone trajectory of informed sets over `n` nodes.
fn informed_trajectory(n: usize, steps: usize, seed: u64) -> Vec<NodeSet> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut current = NodeSet::new(n);
    current.insert(rng.index(n) as u32);
    let mut out = vec![current.clone()];
    for _ in 1..steps {
        let additions = rng.index(4);
        for _ in 0..additions {
            let v = rng.index(n) as u32;
            current.insert(v);
        }
        out.push(current.clone());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// The dynamic star always exposes a star centered on an uninformed
    /// node (when one exists), over the full node set.
    #[test]
    fn dynamic_star_invariants(seed in 0u64..500, leaves in 3usize..40, steps in 1usize..20) {
        let mut net = DynamicStar::new(leaves).expect("leaves >= 2");
        let n = net.n();
        let mut rng = SimRng::seed_from_u64(seed);
        for (t, informed) in informed_trajectory(n, steps, seed).into_iter().enumerate() {
            let g = net.topology(t as u64, &informed, &mut rng);
            prop_assert_eq!(g.n(), n);
            prop_assert_eq!(g.m(), n - 1);
            let center = net.current_center();
            if !informed.is_full() {
                prop_assert!(!informed.contains(center), "center must be uninformed");
            }
        }
    }

    /// The Section 4 network: `B` shrinks monotonically, never below the
    /// n/4 freeze threshold, and every window is an `H_{k,Δ}(A_t, B_t)`
    /// spanning all nodes: string nodes have degree 2Δ, each `G1`/`G2`
    /// node has four expander neighbours plus its stitches, `G1` and `G2`
    /// are each connected, the edge count is
    /// `kΔ² + 2Δ² + 2|A \ S_0| + 2|B \ ∪S_i|`, and the graph is connected.
    #[test]
    fn diligent_network_b_monotone(seed in 0u64..200, steps in 2usize..12) {
        let n = 160;
        let (k, delta) = (2, 5);
        let mut net = DiligentNetwork::with_params(
            n,
            gossip_graph::generators::HkDeltaParams { k, delta },
        ).expect("sizes fit");
        let mut rng = SimRng::seed_from_u64(seed);
        let mut prev_b = net.b_nodes().len();
        for (t, informed) in informed_trajectory(n, steps, seed ^ 0x55).into_iter().enumerate() {
            let g = net.topology(t as u64, &informed, &mut rng).materialize();
            prop_assert_eq!(g.n(), n);
            let b = net.b_nodes();
            prop_assert!(b.len() <= prev_b, "B grew: {prev_b} -> {}", b.len());
            prop_assert!(b.len() >= n / 4, "B fell below the freeze threshold");
            prev_b = b.len();

            // S_0 is the first Δ nodes of A_0; S_1..S_k lead B.
            let s0: Vec<NodeId> = (0..delta as NodeId).collect();
            let sk = &b[(k - 1) * delta..k * delta];
            let mut in_b = NodeSet::new(n);
            b.iter().for_each(|&v| { in_b.insert(v); });
            let string: Vec<NodeId> = s0.iter().chain(&b[..k * delta]).copied().collect();
            for &v in &string {
                prop_assert_eq!(g.degree(v), 2 * delta, "string node {}", v);
            }
            for v in (0..n as NodeId).filter(|v| !string.contains(v)) {
                let stitch_side: &[NodeId] = if in_b.contains(v) { sk } else { &s0 };
                let stitches = g.neighbors(v).iter().filter(|w| stitch_side.contains(w)).count();
                let expander = g.neighbors(v).iter().filter(|w| !string.contains(w)).count();
                prop_assert_eq!(g.degree(v), 4 + stitches, "expander node {}", v);
                prop_assert_eq!(expander, 4, "expander node {}", v);
            }
            // Without the string, G1 and G2 are each connected.
            let expander_edges: Vec<_> = g
                .edges()
                .filter(|(u, v)| !string.contains(u) && !string.contains(v))
                .collect();
            let expanders = Graph::from_edges(n, &expander_edges).unwrap();
            prop_assert_eq!(components(&expanders).len(), 2 + string.len());
            let a_rest = n - b.len() - delta;
            let b_rest = b.len() - k * delta;
            prop_assert_eq!(g.m(), (k + 2) * delta * delta + 2 * a_rest + 2 * b_rest);
            prop_assert!(is_connected(&g), "window {} is disconnected", t);
        }
    }

    /// The Section 5.1 network keeps its closed-form profile in range and
    /// the B side above n/6.
    #[test]
    fn absolute_network_profile_ranges(seed in 0u64..200, steps in 2usize..10) {
        let n = 120;
        let mut net = AbsoluteDiligentNetwork::with_delta(n, 6).expect("sizes fit");
        let mut rng = SimRng::seed_from_u64(seed);
        for (t, informed) in informed_trajectory(n, steps, seed ^ 0x77).into_iter().enumerate() {
            let g = net.topology(t as u64, &informed, &mut rng);
            prop_assert_eq!(g.n(), n);
            prop_assert!(net.b_nodes().len() >= n / 6);
            let p = net.current_profile();
            prop_assert!(p.phi > 0.0 && p.phi <= 1.0);
            prop_assert!(p.rho > 0.0 && p.rho <= 1.0);
            prop_assert!(p.rho_abs > 0.0 && p.rho_abs <= 1.0);
            prop_assert!(p.connected);
        }
    }

    /// Closed-form profiles cross-validated against exact enumeration at
    /// small `n`: the dynamic star's profile is *exact* and the
    /// alternating network's is a sound lower bound component-wise (a
    /// profile above the truth would make the Theorem 1.1 stopping rule
    /// fire early and void the upper-bound guarantee).
    #[test]
    fn closed_form_profiles_sound_vs_exact(seed in 0u64..100, steps in 1usize..8) {
        let n = 16usize;
        let mut rng = SimRng::seed_from_u64(seed);

        let mut star = DynamicStar::new(n - 1).expect("valid");
        for (t, informed) in informed_trajectory(n, steps, seed).into_iter().enumerate() {
            let g = star.topology(t as u64, &informed, &mut rng).materialize();
            let exact = gossip_dynamics::profile::exact_profile(&g).expect("n <= 24");
            let claimed = star.current_profile();
            prop_assert!((claimed.phi - exact.phi).abs() < 1e-12);
            prop_assert!((claimed.rho - exact.rho).abs() < 1e-12);
            prop_assert!((claimed.rho_abs - exact.rho_abs).abs() < 1e-12);
            prop_assert_eq!(claimed.connected, exact.connected);
        }

        let mut alt = gossip_dynamics::AlternatingRegular::new(n, &mut rng).expect("valid");
        for (t, informed) in informed_trajectory(n, steps, seed ^ 0x99).into_iter().enumerate() {
            let g = alt.topology(t as u64, &informed, &mut rng).materialize();
            let exact = gossip_dynamics::profile::exact_profile(&g).expect("n <= 24");
            let claimed = alt.current_profile();
            prop_assert!(claimed.phi <= exact.phi + 1e-12,
                "phi claim {} above exact {}", claimed.phi, exact.phi);
            prop_assert!(claimed.rho <= exact.rho + 1e-12,
                "rho claim {} above exact {}", claimed.rho, exact.rho);
            prop_assert!((claimed.rho_abs - exact.rho_abs).abs() < 1e-12,
                "rho_abs closed form {} != exact {}", claimed.rho_abs, exact.rho_abs);
            prop_assert_eq!(claimed.connected, exact.connected);
        }
    }

    /// Reset restores deterministic networks to their initial trajectory.
    #[test]
    fn reset_restores_trajectory(seed in 0u64..200, leaves in 3usize..20) {
        let mut net = DynamicStar::new(leaves).expect("valid");
        let n = net.n();
        let mut rng = SimRng::seed_from_u64(seed);
        let traj = informed_trajectory(n, 6, seed);
        let first: Vec<usize> = traj
            .iter()
            .enumerate()
            .map(|(t, inf)| net.topology(t as u64, inf, &mut rng).degree(0))
            .collect();
        net.reset();
        let second: Vec<usize> = traj
            .iter()
            .enumerate()
            .map(|(t, inf)| net.topology(t as u64, inf, &mut rng).degree(0))
            .collect();
        prop_assert_eq!(first, second);
    }
}
