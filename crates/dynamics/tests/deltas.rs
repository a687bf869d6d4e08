//! Contract tests for [`DynamicNetwork::edges_changed`]: whenever a network
//! reports `Some(delta)`, the delta must be the exact symmetric difference
//! between the previous window's graph and what `topology(t, …)` returns
//! afterwards — the incremental engine's correctness rests on this. Also
//! [`Graph::apply_changes`], which turns the previous window's CSR into
//! the next one in place from such a delta, and the edge-Markovian step
//! against a reference that builds each window with a [`GraphBuilder`].

use gossip_dynamics::{
    AbsoluteDiligentNetwork, AlternatingRegular, CliquePendant, DiligentNetwork, DynamicNetwork,
    EdgeDelta, EdgeMarkovian, ResampledGnp, SequenceNetwork, StaticNetwork,
};
use gossip_graph::generators::HkDeltaParams;
use gossip_graph::{generators, Graph, GraphBuilder, NodeId, NodeSet, Topology};
use gossip_stats::{Geometric, SimRng};
use proptest::prelude::*;

/// An informed-set schedule: `inform(t, informed)` grows the set before
/// window `t` is queried, as the engine's spread does between windows.
type Schedule = fn(u64, &mut NodeSet);

/// The schedule that informs nobody.
const NOBODY: Schedule = |_, _| {};

/// Walks `windows` windows, asserting the reported delta matches the
/// observed graph change at every boundary. Returns how many boundaries
/// reported a delta (vs the `None` rebuild fallback).
fn check_delta_contract<N: DynamicNetwork>(
    net: &mut N,
    windows: u64,
    seed: u64,
    inform: Schedule,
) -> usize {
    let mut rng = SimRng::seed_from_u64(seed);
    let n = net.n();
    let mut informed = NodeSet::new(n);
    net.reset();
    let mut prev: Option<Topology> = None;
    let mut reported = 0;
    for t in 0..windows {
        inform(t, &mut informed);
        let delta = net.edges_changed(t, &informed, &mut rng);
        let current = net.topology(t, &informed, &mut rng).clone();
        if let (Some(delta), Some(prev)) = (&delta, &prev) {
            let expected = EdgeDelta::between(&prev.graph_cow(), &current.graph_cow());
            assert_eq!(
                delta,
                &expected,
                "window {t} ({}): reported delta disagrees with the graph diff",
                net.name()
            );
        }
        if delta.is_some() {
            reported += 1;
        }
        prev = Some(current);
    }
    reported
}

#[test]
fn static_network_reports_empty_deltas() {
    let mut net = StaticNetwork::new(generators::cycle(12).unwrap());
    assert_eq!(check_delta_contract(&mut net, 8, 1, NOBODY), 8);
}

#[test]
fn sequence_network_reports_schedule_diffs() {
    let graphs = vec![
        generators::path(10).unwrap(),
        generators::cycle(10).unwrap(),
        generators::star(10).unwrap(),
    ];
    let mut net = SequenceNetwork::cycling(graphs).unwrap();
    assert_eq!(check_delta_contract(&mut net, 10, 2, NOBODY), 10);

    let graphs = vec![
        generators::path(8).unwrap(),
        generators::complete(8).unwrap(),
    ];
    let mut net = SequenceNetwork::once(graphs).unwrap();
    assert_eq!(check_delta_contract(&mut net, 6, 3, NOBODY), 6);
}

#[test]
fn clique_pendant_declines_only_the_switch() {
    // The t = 1 switch rewires Θ(n²) edges between implicit backends, so
    // the network declines the diff there (rebuild); every other boundary
    // reports the empty delta.
    let mut net = CliquePendant::new(8).unwrap();
    assert_eq!(check_delta_contract(&mut net, 6, 4, NOBODY), 5);
    let mut rng = SimRng::seed_from_u64(5);
    let informed = NodeSet::new(net.n());
    net.reset();
    let _ = net.topology(0, &informed, &mut rng);
    assert!(net.edges_changed(1, &informed, &mut rng).is_none());
    let d2 = net.edges_changed(2, &informed, &mut rng).unwrap();
    assert!(d2.is_empty());
}

#[test]
fn alternating_replays_inverse_deltas() {
    let mut build_rng = SimRng::seed_from_u64(6);
    let mut net = AlternatingRegular::new(16, &mut build_rng).unwrap();
    assert_eq!(check_delta_contract(&mut net, 7, 7, NOBODY), 7);
    // Odd boundaries densify, even boundaries sparsify; they are inverses.
    let mut rng = SimRng::seed_from_u64(8);
    let informed = NodeSet::new(16);
    net.reset();
    let _ = net.topology(0, &informed, &mut rng);
    let densify = net.edges_changed(1, &informed, &mut rng).unwrap();
    let sparsify = net.edges_changed(2, &informed, &mut rng).unwrap();
    assert_eq!(densify.inverted(), sparsify);
    assert!(!densify.is_empty());
}

#[test]
fn edge_markovian_reports_flips() {
    let initial = generators::cycle(20).unwrap();
    let mut net = EdgeMarkovian::new(initial, 0.05, 0.3).unwrap();
    let reported = check_delta_contract(&mut net, 12, 9, NOBODY);
    assert_eq!(reported, 12, "single-step advances always report a delta");
}

#[test]
fn edge_markovian_none_on_window_jump() {
    let initial = generators::cycle(10).unwrap();
    let mut net = EdgeMarkovian::new(initial, 0.1, 0.1).unwrap();
    let mut rng = SimRng::seed_from_u64(10);
    let informed = NodeSet::new(10);
    assert!(net.edges_changed(0, &informed, &mut rng).is_some());
    // Jumping from t = 0 to t = 5 skips four evolutions: no diff available.
    assert!(net.edges_changed(5, &informed, &mut rng).is_none());
    // topology() still fast-forwards correctly after the refusal.
    let _ = net.topology(5, &informed, &mut rng);
}

#[test]
fn resampled_gnp_reports_exact_resampling_diffs() {
    let mut net = ResampledGnp::new(40, 0.1, 12).unwrap();
    let reported = check_delta_contract(&mut net, 10, 13, NOBODY);
    assert_eq!(reported, 10, "single-step advances always report a delta");
    // Window jumps decline, as in the edge-Markovian model.
    let mut rng = SimRng::seed_from_u64(14);
    let informed = NodeSet::new(40);
    net.reset();
    assert!(net.edges_changed(0, &informed, &mut rng).is_some());
    assert!(net.edges_changed(4, &informed, &mut rng).is_none());
    let _ = net.topology(4, &informed, &mut rng);
}

/// Informs the next `per_window` B-side nodes (ids upwards from
/// `first_b`) at every even window, plus one A-side node at every odd
/// window: the adaptive families re-stitch at even windows, must report
/// the empty delta at odd ones, and freeze once `|B|` would fall too low.
fn inform_b_side(t: u64, informed: &mut NodeSet, first_b: NodeId, per_window: NodeId) {
    let t = t as NodeId;
    if t == 0 {
        return;
    }
    if t.is_multiple_of(2) {
        let start = first_b + (t / 2 - 1) * per_window;
        for v in start..(start + per_window).min(informed.universe() as NodeId) {
            informed.insert(v);
        }
    } else {
        informed.insert(t / 2);
    }
}

#[test]
fn diligent_reports_empty_deltas_around_restitches_and_the_freeze() {
    // n = 200: A = 0..50, B = 50..200, freeze below |B| = 50. Twelve B
    // nodes per even window re-stitch at t = 2..16 (|B| = 54 after
    // t = 16); at t = 18 |B| would drop to 42, so the network freezes.
    let n = 200;
    let mut net = DiligentNetwork::with_params(n, HkDeltaParams { k: 2, delta: 5 }).unwrap();
    let reported = check_delta_contract(&mut net, 24, 15, |t, s| inform_b_side(t, s, 50, 12));
    // None only at t = 0 (the first build); every re-stitch at the even
    // windows t = 2..=16 is an exact delta, the rest are empty.
    assert_eq!(reported, 23);
    assert_eq!(net.b_nodes().len(), 54, "frozen with 54 B nodes left");
}

#[test]
fn absolute_diligent_reports_empty_deltas_around_restitches_and_the_freeze() {
    // n = 120, Δ = 10: A = 0..60, B = 60..120, freeze below |B| = 20.
    // Eight B nodes per even window re-stitch at t = 2..10 (|B| = 20
    // after t = 10); at t = 12 |B| would drop to 12, so it freezes.
    let mut net = AbsoluteDiligentNetwork::new(120, 0.1).unwrap();
    let reported = check_delta_contract(&mut net, 18, 16, |t, s| inform_b_side(t, s, 60, 8));
    // None at t = 0 and at the 6 even windows t = 2..=12; Some at 11.
    assert_eq!(reported, 11);
    assert_eq!(net.b_nodes().len(), 20, "frozen with 20 B nodes left");
}

#[test]
fn default_implementation_declines() {
    // DynamicStar keeps the default: recentering rewires Θ(n) edges, so a
    // rebuild is the honest answer.
    let mut net = gossip_dynamics::DynamicStar::new(6).unwrap();
    let mut rng = SimRng::seed_from_u64(11);
    let informed = NodeSet::new(net.n());
    assert!(net.edges_changed(1, &informed, &mut rng).is_none());
}

/// A random graph on `n` nodes with edge probability `p`.
fn random_graph(n: usize, p: f64, rng: &mut SimRng) -> Graph {
    generators::erdos_renyi(n, p, rng).unwrap()
}

/// The edge-Markovian step as it was first written, kept as the
/// reference: the same draws (a death coin per edge in lexicographic
/// order, then geometric skips over the pair ranks), a survivor list, and
/// the next window built by merging survivors and births into a
/// [`GraphBuilder`].
fn reference_step(current: &Graph, p: f64, q: f64, rng: &mut SimRng) -> (EdgeDelta, Graph) {
    let n = current.n();
    let mut removed = Vec::new();
    let mut survivors = Vec::with_capacity(current.m());
    for (u, v) in current.edges() {
        if rng.chance(q) {
            removed.push((u, v));
        } else {
            survivors.push((u, v));
        }
    }
    let mut added = Vec::new();
    if p > 0.0 && n >= 2 {
        let n = n as u64;
        let total_pairs = n * (n - 1) / 2;
        let geo = Geometric::new(p).unwrap();
        let (mut u, mut row_rank, mut next_row_rank) = (0, 0, n - 1);
        let mut idx = geo.sample(rng) - 1;
        while idx < total_pairs {
            while idx >= next_row_rank {
                u += 1;
                row_rank = next_row_rank;
                next_row_rank += n - 1 - u;
            }
            let v = (u + 1 + idx - row_rank) as NodeId;
            if !current.has_edge(u as NodeId, v) {
                added.push((u as NodeId, v));
            }
            idx = idx.saturating_add(geo.sample(rng));
        }
    }
    let mut b = GraphBuilder::new(n);
    let (mut i, mut j) = (0, 0);
    while i < survivors.len() || j < added.len() {
        let (u, v) = if j == added.len() || (i < survivors.len() && survivors[i] < added[j]) {
            i += 1;
            survivors[i - 1]
        } else {
            j += 1;
            added[j - 1]
        };
        b.add_edge(u, v).unwrap();
    }
    (EdgeDelta::new(added, removed), b.build())
}

/// Runs `steps` edge-Markovian steps from `initial` and the reference
/// beside it on equal RNG streams: the same delta and next graph at every
/// step, and the same stream position afterwards.
fn assert_steps_match_reference(initial: Graph, p: f64, q: f64, seed: u64, steps: u64) {
    let n = initial.n();
    let mut net = EdgeMarkovian::new(initial.clone(), p, q).unwrap();
    let informed = NodeSet::new(n);
    let (mut rng, mut reference_rng) = (SimRng::seed_from_u64(seed), SimRng::seed_from_u64(seed));
    let mut reference = initial;
    let _ = net.topology(0, &informed, &mut rng);
    for t in 1..=steps {
        let delta = net.edges_changed(t, &informed, &mut rng).unwrap();
        let (expected, next) = reference_step(&reference, p, q, &mut reference_rng);
        assert_eq!(
            delta, expected,
            "n = {n}, p = {p}, q = {q}: delta at step {t}"
        );
        let graph = net.topology(t, &informed, &mut rng).as_graph().cloned();
        assert_eq!(
            graph.as_ref(),
            Some(&next),
            "n = {n}, p = {p}, q = {q}: graph at step {t}"
        );
        reference = next;
    }
    assert_eq!(rng.next_u64(), reference_rng.next_u64(), "stream position");
}

/// The benchmark's shape (`perfbench` sweep-dynamic): n = 2000 and 4000,
/// p = 0.002, q = 0.2, from the family's `G(n, p)` start. Release only:
/// `cargo test --release -p gossip-dynamics --test deltas -- --ignored`.
#[test]
#[ignore = "benchmark scale; run in release"]
fn edge_markovian_steps_match_reference_at_benchmark_scale() {
    for n in [2000, 4000] {
        for seed in 0..3 {
            let mut rng = SimRng::seed_from_u64(seed);
            let initial = random_graph(n, 0.002, &mut rng);
            assert_steps_match_reference(initial, 0.002, 0.2, seed, 9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The edge-Markovian step against [`reference_step`] over degenerate
    /// and ordinary birth and death probabilities (p = 1e-20 is below
    /// 2⁻⁵⁴, where `1 − p` rounds to 1), from random starting graphs.
    #[test]
    fn edge_markovian_steps_match_reference(
        seed in 0u64..10_000,
        n in 2usize..300,
        p_at in 0usize..5,
        q_at in 0usize..3,
    ) {
        let p = [0.0, 1e-20, 0.02, 0.3, 1.0][p_at];
        let q = [0.0, 0.2, 1.0][q_at];
        let mut rng = SimRng::seed_from_u64(seed);
        let initial = random_graph(n, rng.uniform_f64() * 0.3, &mut rng);
        assert_steps_match_reference(initial, p, q, seed, 3);
    }

    /// [`Graph::apply_changes`] on dense change sets: more changed edges
    /// than nodes, every row touched (each pair with an odd endpoint sum
    /// flips, the rest flip by a coin).
    #[test]
    fn with_changes_applies_dense_deltas(seed in 0u64..10_000, n in 6usize..64) {
        let mut rng = SimRng::seed_from_u64(seed);
        let prev = random_graph(n, rng.uniform_f64() * 0.6, &mut rng);
        let flip = rng.uniform_f64();
        let mut edges = Vec::new();
        for u in 0..n as NodeId {
            for v in u + 1..n as NodeId {
                let flips = (u + v) % 2 == 1 || rng.chance(flip);
                if prev.has_edge(u, v) != flips {
                    edges.push((u, v));
                }
            }
        }
        let next = Graph::from_edges(n, &edges).unwrap();
        let delta = EdgeDelta::between(&prev, &next);
        prop_assert!(delta.len() > n);
        let mut touched = NodeSet::new(n);
        for v in delta.touched_nodes() {
            touched.insert(v);
        }
        prop_assert!(touched.is_full());
        prop_assert_eq!(&applied(&prev, &delta), &next);
        prop_assert_eq!(&applied(&next, &delta.inverted()), &prev);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// [`Graph::apply_changes`] applied to `prev` with
    /// `EdgeDelta::between(prev, next)` rebuilds `next`, and the inverted
    /// delta rebuilds `prev`. `next` keeps part of `prev`, adds fresh
    /// edges and empties some rows: on even seeds those of nodes 0 and
    /// n − 1 (the first and last CSR rows), always one more.
    #[test]
    fn with_changes_applies_between(seed in 0u64..10_000, n in 2usize..48) {
        let mut rng = SimRng::seed_from_u64(seed);
        let prev = random_graph(n, rng.uniform_f64() * 0.4, &mut rng);
        let fresh = random_graph(n, rng.uniform_f64() * 0.2, &mut rng);
        let emptied = [0, (n - 1) as NodeId, rng.index(n) as NodeId];
        let emptied = if seed % 2 == 0 { &emptied[..] } else { &emptied[2..] };
        let edges: Vec<(NodeId, NodeId)> = prev
            .edges()
            .filter(|_| rng.chance(0.7))
            .chain(fresh.edges())
            .filter(|(u, v)| !emptied.contains(u) && !emptied.contains(v))
            .collect();
        let next = Graph::from_edges(n, &edges).unwrap();
        let delta = EdgeDelta::between(&prev, &next);
        prop_assert_eq!(&applied(&prev, &delta), &next);
        prop_assert_eq!(&applied(&next, &delta.inverted()), &prev);
    }

    /// [`Graph::apply_changes`] on sparse change sets (fewer changed edges
    /// than nodes), which patch the CSR in place: a few removed and added
    /// edges, sometimes all at one node, sometimes at the first or last
    /// row, growing, shrinking or keeping the volume.
    #[test]
    fn apply_changes_patches_sparse_deltas(seed in 0u64..10_000, n in 4usize..80) {
        let mut rng = SimRng::seed_from_u64(seed);
        let prev = random_graph(n, rng.uniform_f64() * 0.3, &mut rng);
        let budget = 1 + rng.index(n - 1);
        let hub = [0, (n - 1) as NodeId, rng.index(n) as NodeId][rng.index(3)];
        let mut flips = Vec::new();
        while flips.len() < budget {
            let u = if rng.chance(0.3) { hub } else { rng.index(n) as NodeId };
            let v = rng.index(n) as NodeId;
            if u != v && !flips.contains(&(u.min(v), u.max(v))) {
                flips.push((u.min(v), u.max(v)));
            }
        }
        let edges: Vec<(NodeId, NodeId)> = prev
            .edges()
            .filter(|e| !flips.contains(e))
            .chain(flips.iter().copied().filter(|&(u, v)| !prev.has_edge(u, v)))
            .collect();
        let next = Graph::from_edges(n, &edges).unwrap();
        let delta = EdgeDelta::between(&prev, &next);
        prop_assert!(delta.len() < n);
        prop_assert_eq!(&applied(&prev, &delta), &next);
        prop_assert_eq!(&applied(&next, &delta.inverted()), &prev);
    }
}

/// `g` with `delta` applied in place.
fn applied(g: &Graph, delta: &EdgeDelta) -> Graph {
    let mut g = g.clone();
    g.apply_changes(delta.added(), delta.removed());
    g
}
