//! Property-based tests for the graph substrate.
//!
//! The headline property is the paper's Inequality (3): for every connected
//! graph `G` and every nonempty proper subset `S`,
//! `λ(S) ≥ Φ(G) · ρ(G) · min(|S|, |S̄|)` where `λ` is the push–pull cut rate
//! of Equation (1). Theorem 1.1 is built entirely on this inequality, so it
//! is checked here on thousands of random graphs and cuts.

use gossip_graph::{
    conductance, connectivity, cut, diligence, generators, Graph, GraphBuilder, NodeSet, Topology,
};
use gossip_stats::{Geometric, SimRng};
use proptest::prelude::*;

/// Builds an Erdős–Rényi graph from a derived seed, retrying towards
/// connectivity (falls back to whatever the last attempt produced).
fn er_graph(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut g = generators::erdos_renyi(n, p, &mut rng).unwrap();
    for _ in 0..20 {
        if connectivity::is_connected(&g) {
            break;
        }
        g = generators::erdos_renyi(n, p, &mut rng).unwrap();
    }
    g
}

fn subset_from_mask(n: usize, mask: u64) -> NodeSet {
    let mut s = NodeSet::new(n);
    for v in 0..n {
        if mask >> v & 1 == 1 {
            s.insert(v as u32);
        }
    }
    s
}

/// The upper rows of `g` (row `u`'s neighbours above `u`), in the layout
/// [`Graph::rebuild_from_upper`] takes.
fn upper_rows(g: &Graph) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0];
    let mut upper = Vec::new();
    for u in g.nodes() {
        let row = g.neighbors(u);
        upper.extend_from_slice(&row[row.partition_point(|&w| w <= u)..]);
        offsets.push(upper.len() as u32);
    }
    (offsets, upper)
}

/// Rebuilds `g` from its own upper rows inside `prior`, and inside `g`
/// itself, with a stale `split` of the wrong length: both rebuilds equal
/// `g` (offsets and neighbours alike) and record every row's split.
fn assert_rebuilds_from_upper(g: &Graph, prior: Graph) {
    let (offsets, upper) = upper_rows(g);
    for mut target in [prior, g.clone()] {
        let mut split = vec![7; g.n() + 3];
        target.rebuild_from_upper(&offsets, &upper, &mut split);
        assert_eq!(&target, g);
        let expected: Vec<u32> = g
            .nodes()
            .map(|u| g.neighbors(u).partition_point(|&w| w <= u) as u32)
            .collect();
        assert_eq!(split, expected);
    }
}

/// The seeded `G(n, p)` drawn row by row as the sampler documents it —
/// node `v`'s forward row from stream `v` of `seed`, geometric skips over
/// the candidates `(v, n)` — and built through [`GraphBuilder`]: the
/// reference for the CSR the sampled backend realizes.
fn gnp_reference(n: usize, p: f64, seed: u64) -> Graph {
    let geo = Geometric::new(p).unwrap();
    let mut b = GraphBuilder::new(n);
    for v in 0..n as u64 {
        let mut rng = SimRng::seed_from_u64(seed).derive(v);
        let mut u = v.saturating_add(geo.sample(&mut rng));
        while u < n as u64 {
            b.add_edge(v as u32, u as u32).unwrap();
            u = u.saturating_add(geo.sample(&mut rng));
        }
    }
    b.build()
}

#[test]
fn rebuild_from_upper_covers_every_graph_on_at_most_three_nodes() {
    for n in 0..=3usize {
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|u| (u + 1..n as u32).map(move |v| (u, v)))
            .collect();
        for mask in 0..1u32 << pairs.len() {
            let edges: Vec<_> = (0..pairs.len())
                .filter(|&i| mask >> i & 1 == 1)
                .map(|i| pairs[i])
                .collect();
            let g = Graph::from_edges(n, &edges).unwrap();
            assert_rebuilds_from_upper(&g, Graph::empty(0));
            assert_rebuilds_from_upper(&g, generators::complete(n + 4).unwrap());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Degree sum equals twice the edge count for arbitrary edge lists
    /// (duplicates in both orientations included), and every row equals
    /// the sorted, deduplicated partner list of its node.
    #[test]
    fn handshake_lemma(n in 2usize..201, edges in prop::collection::vec((0u32..200, 0u32..200), 0..2001)) {
        let mut b = GraphBuilder::new(n);
        let mut partners = vec![Vec::new(); n];
        for (u, v) in edges {
            let (u, v) = (u % n as u32, v % n as u32);
            if u != v {
                b.add_edge(u, v).unwrap();
                partners[u as usize].push(v);
                partners[v as usize].push(u);
            }
        }
        let g = b.build();
        let degree_sum: usize = (0..n).map(|v| g.degree(v as u32)).sum();
        prop_assert_eq!(degree_sum, 2 * g.m());
        prop_assert_eq!(degree_sum, g.volume());
        for (v, mut expected) in partners.into_iter().enumerate() {
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(g.neighbors(v as u32), expected.as_slice());
        }
    }

    /// Every neighbor relation is symmetric and loop-free.
    #[test]
    fn adjacency_symmetric(seed in 0u64..1000, n in 4usize..12, p in 0.1f64..0.9) {
        let g = er_graph(n, p, seed);
        for u in 0..n as u32 {
            for &v in g.neighbors(u) {
                prop_assert_ne!(u, v);
                prop_assert!(g.neighbors(v).contains(&u));
            }
        }
    }

    /// Connected graphs have Φ ∈ (0, 1] and ρ ∈ [1/(n−1), 1];
    /// disconnected graphs have Φ = 0 and ρ = 0.
    #[test]
    fn measure_ranges(seed in 0u64..1000, n in 4usize..10, p in 0.15f64..0.95) {
        let mut rng = SimRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, p, &mut rng).unwrap();
        if g.is_empty_graph() {
            return Ok(());
        }
        let phi = conductance::exact_conductance(&g).unwrap();
        let rho = diligence::exact_diligence(&g).unwrap();
        if connectivity::is_connected(&g) {
            prop_assert!(phi > 0.0 && phi <= 1.0 + 1e-12, "phi = {phi}");
            prop_assert!(rho >= diligence::diligence_floor(n) - 1e-12, "rho = {rho}");
            prop_assert!(rho <= 1.0 + 1e-12, "rho = {rho}");
        } else {
            prop_assert_eq!(phi, 0.0);
            prop_assert_eq!(rho, 0.0);
        }
    }

    /// Absolute diligence is a lower bound regime: ρ̄ ≥ 1/max_degree and
    /// ρ̄ ≥ 1/(n−1) for nonempty graphs.
    #[test]
    fn absolute_diligence_bounds(seed in 0u64..1000, n in 3usize..16, p in 0.1f64..0.9) {
        let mut rng = SimRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, p, &mut rng).unwrap();
        let rho_abs = diligence::absolute_diligence(&g);
        if g.is_empty_graph() {
            prop_assert_eq!(rho_abs, 0.0);
        } else {
            prop_assert!(rho_abs >= 1.0 / g.max_degree() as f64 - 1e-12);
            prop_assert!(rho_abs >= 1.0 / (n - 1) as f64 - 1e-12);
            prop_assert!(rho_abs <= 1.0 + 1e-12);
        }
    }

    /// Paper Inequality (3): λ(S) ≥ Φ(G)·ρ(G)·min(|S|, |S̄|) for every cut of
    /// every connected graph — the engine of Theorem 1.1.
    #[test]
    fn inequality_3_holds(seed in 0u64..500, n in 4usize..9, p in 0.3f64..0.9, mask in 1u64..255) {
        let g = er_graph(n, p, seed);
        prop_assume!(connectivity::is_connected(&g));
        let mask = mask & ((1 << n) - 1);
        prop_assume!(mask != 0 && mask != (1 << n) - 1);
        let s = subset_from_mask(n, mask);
        let lambda = cut::pushpull_cut_rate(&g, &s);
        let phi = conductance::exact_conductance(&g).unwrap();
        let rho = diligence::exact_diligence(&g).unwrap();
        let min_side = s.len().min(n - s.len()) as f64;
        prop_assert!(
            lambda + 1e-9 >= phi * rho * min_side,
            "λ = {lambda} < Φρ·min = {}", phi * rho * min_side
        );
    }

    /// The push–pull rate dominates the max-rate (absolute) bound, which
    /// dominates the cut edge count divided by max degree.
    #[test]
    fn rate_orderings(seed in 0u64..500, n in 4usize..10, p in 0.2f64..0.9, mask in 1u64..511) {
        let mut rng = SimRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, p, &mut rng).unwrap();
        let mask = mask & ((1 << n) - 1);
        prop_assume!(mask != 0 && mask != (1 << n) - 1);
        let s = subset_from_mask(n, mask);
        let push_pull = cut::pushpull_cut_rate(&g, &s);
        let absolute = cut::absolute_cut_rate(&g, &s);
        let cut_count = cut::cut_edge_count(&g, &s) as f64;
        prop_assert!(push_pull + 1e-12 >= absolute);
        prop_assert!(absolute + 1e-12 >= cut_count * 0.5 * (1.0 / n as f64));
        if g.max_degree() > 0 {
            prop_assert!(absolute + 1e-12 >= cut_count / g.max_degree() as f64);
        }
    }

    /// Cut measures are symmetric under complementation.
    #[test]
    fn cut_complement_symmetry(seed in 0u64..500, n in 3usize..10, p in 0.2f64..0.9, mask in 1u64..511) {
        let mut rng = SimRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, p, &mut rng).unwrap();
        let mask = mask & ((1 << n) - 1);
        prop_assume!(mask != 0 && mask != (1 << n) - 1);
        let s = subset_from_mask(n, mask);
        let comp = subset_from_mask(n, !mask & ((1 << n) - 1));
        prop_assert_eq!(cut::cut_edge_count(&g, &s), cut::cut_edge_count(&g, &comp));
        let r1 = cut::pushpull_cut_rate(&g, &s);
        let r2 = cut::pushpull_cut_rate(&g, &comp);
        prop_assert!((r1 - r2).abs() < 1e-9);
    }

    /// NodeSet insert/remove/iterate behaves like a reference BTreeSet.
    #[test]
    fn nodeset_matches_reference(ops in prop::collection::vec((0u32..64, prop::bool::ANY), 0..200)) {
        let mut ns = NodeSet::new(64);
        let mut reference = std::collections::BTreeSet::new();
        for (v, insert) in ops {
            if insert {
                prop_assert_eq!(ns.insert(v), reference.insert(v));
            } else {
                prop_assert_eq!(ns.remove(v), reference.remove(&v));
            }
        }
        prop_assert_eq!(ns.len(), reference.len());
        let collected: Vec<u32> = ns.iter().collect();
        let expected: Vec<u32> = reference.into_iter().collect();
        prop_assert_eq!(collected, expected);
    }

    /// Random regular graphs from any seed are simple and regular.
    #[test]
    fn random_regular_always_valid(seed in 0u64..300, n in 6usize..24, d in 2usize..5) {
        prop_assume!((n * d) % 2 == 0 && d < n);
        let mut rng = SimRng::seed_from_u64(seed);
        let g = generators::random_regular(n, d, &mut rng).unwrap();
        prop_assert!(g.is_regular());
        prop_assert_eq!(g.degree(0), d);
        prop_assert_eq!(g.m(), n * d / 2);
    }

    /// The same, deep into the swap-repair regime (whole-pairing rejection
    /// is hopeless above d ≈ 6) and across the complement switch at
    /// d > n/2; simplicity is re-checked from the adjacency lists.
    #[test]
    fn random_regular_high_degree_simple(seed in 0u64..150, n in 16usize..48, d in 6usize..14) {
        prop_assume!((n * d) % 2 == 0 && d < n);
        let mut rng = SimRng::seed_from_u64(seed);
        let g = generators::random_regular(n, d, &mut rng).unwrap();
        prop_assert!(g.is_regular());
        prop_assert_eq!(g.m(), n * d / 2);
        for u in 0..n as u32 {
            let nbrs = g.neighbors(u);
            let mut sorted: Vec<u32> = nbrs.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), nbrs.len(), "duplicate edge at {}", u);
            prop_assert!(!nbrs.contains(&u), "self-loop at {}", u);
        }
    }

    /// Paper Section 1.1: every connected graph satisfies
    /// `1/(n-1) <= rho(G) <= 1`, and the same floor holds for the absolute
    /// diligence.
    #[test]
    fn diligence_bounds_of_connected_graphs(seed in 0u64..400, n in 3usize..12, p in 0.2f64..0.95) {
        let g = er_graph(n, p, seed);
        prop_assume!(connectivity::is_connected(&g));
        let rho = diligence::exact_diligence(&g).unwrap();
        let floor = 1.0 / (n as f64 - 1.0);
        prop_assert!(rho >= floor - 1e-12, "rho {} below 1/(n-1) = {}", rho, floor);
        prop_assert!(rho <= 1.0 + 1e-12, "rho {} above 1", rho);
        let rho_abs = diligence::absolute_diligence(&g);
        prop_assert!(rho_abs >= floor - 1e-12);
        prop_assert!(rho_abs <= 1.0 + 1e-12);
    }

    /// Sweep conductance never beats the exact minimum.
    #[test]
    fn sweep_never_below_exact(seed in 0u64..300, n in 4usize..9, p in 0.3f64..0.9) {
        let g = er_graph(n, p, seed);
        prop_assume!(!g.is_empty_graph());
        prop_assume!(connectivity::is_connected(&g));
        let exact = conductance::exact_conductance(&g).unwrap();
        let ordering: Vec<u32> = (0..n as u32).collect();
        let sweep = conductance::sweep_conductance(&g, &ordering).unwrap();
        prop_assert!(sweep + 1e-12 >= exact);
    }

    /// [`Graph::rebuild_from_upper`] turns a graph's own upper rows back
    /// into the graph, starting from a larger allocation (`K_{n+8}`), a
    /// smaller one (no nodes) and the graph's own. The graphs have empty
    /// rows and isolated nodes; node `seed % n` is always isolated.
    #[test]
    fn rebuild_from_upper_rows_is_the_identity(
        n in 0usize..60,
        edges in prop::collection::vec((0u32..60, 0u32..60), 0..400),
        seed in 0u64..1000,
    ) {
        let isolated = if n == 0 { 0 } else { (seed % n as u64) as u32 };
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            if n > 0 {
                let (u, v) = (u % n as u32, v % n as u32);
                if u != v && u != isolated && v != isolated {
                    b.add_edge(u, v).unwrap();
                }
            }
        }
        let g = b.build();
        assert_rebuilds_from_upper(&g, generators::complete(n + 8).unwrap());
        assert_rebuilds_from_upper(&g, Graph::empty(0));
    }

    /// A seeded `G(n, p)` realizes the graph a [`GraphBuilder`] makes of
    /// the same forward rows ([`gnp_reference`]), which is also what
    /// [`generators::erdos_renyi`] draws from a stream whose first draw
    /// is the seed; clones share the one realization.
    #[test]
    fn seeded_gnp_realizes_its_forward_rows(
        n in 2usize..200,
        q in 0.0f64..1.0,
        stream in 0u64..u64::MAX,
    ) {
        let p = 1.0 - q;
        let seed = SimRng::seed_from_u64(stream).next_u64();
        let topology = Topology::gnp(n, p, seed).unwrap();
        let clone = topology.clone();
        let realized = topology.graph_cow();
        prop_assert_eq!(&*realized, &gnp_reference(n, p, seed));
        let eager = generators::erdos_renyi(n, p, &mut SimRng::seed_from_u64(stream)).unwrap();
        prop_assert_eq!(&*realized, &eager);
        prop_assert!(std::ptr::eq(&*realized, &*clone.graph_cow()));
    }
}
