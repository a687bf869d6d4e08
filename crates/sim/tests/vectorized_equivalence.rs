//! Vectorized-lane equivalence against the scalar Fenwick sampler.
//!
//! On generic backends the event engine keeps the cut rates in the
//! vectorized lane: rejection sampling over structure-of-arrays state
//! with batched uniform draws, in place of the Fenwick sample/update
//! walks. It consumes the per-trial RNG stream in a different *order*
//! than the window engine, which rebuilds a Fenwick tree for every
//! exposed graph and samples it one event at a time — same distribution,
//! different draws. The window engine is the scalar reference here.
//! These tests enforce the contract from both sides:
//!
//! * **KS-equivalence** (α = 0.01) between scalar (window engine) and
//!   vectorized (event engine) spread-time samples, per backend family,
//!   static and dynamic (the lane repaired across sparse deltas and
//!   rebuilt on dense ones);
//! * **bit-identical determinism** of the lane: same plan, any thread
//!   count, same summary — and rerunning the same plan replays it.

use gossip_dynamics::{DiligentNetwork, DynamicNetwork, EdgeMarkovian, StaticNetwork};
use gossip_graph::{generators, Topology};
use gossip_sim::{AnyProtocol, CutRateAsync, Engine, RunPlan};
use gossip_stats::ks;

const TRIALS: usize = 600;
const ALPHA: f64 = 0.01;

/// The lane's sorted spread times (the event engine).
fn times<N: DynamicNetwork>(
    make_net: impl Fn() -> N + Sync,
    threads: usize,
    seed: u64,
) -> Vec<f64> {
    times_of(TRIALS, make_net, Engine::Event, threads, seed)
}

fn times_of<N: DynamicNetwork>(
    trials: usize,
    make_net: impl Fn() -> N + Sync,
    engine: Engine,
    threads: usize,
    seed: u64,
) -> Vec<f64> {
    let mut sink = gossip_sim::JsonlSink::new(Vec::new());
    let report = RunPlan::new(trials, seed)
        .engine(engine)
        .threads(threads)
        .observer(&mut sink)
        .execute(make_net, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    assert_eq!(report.trials(), trials);
    report.sorted_times().to_vec()
}

fn assert_modes_ks_equivalent<N: DynamicNetwork>(
    make_net: impl Fn() -> N + Sync + Copy,
    seed: u64,
) {
    assert_modes_ks_equivalent_over(TRIALS, make_net, seed);
}

fn assert_modes_ks_equivalent_over<N: DynamicNetwork>(
    trials: usize,
    make_net: impl Fn() -> N + Sync + Copy,
    seed: u64,
) {
    let scalar = times_of(trials, make_net, Engine::Window, 1, seed);
    let fast = times_of(trials, make_net, Engine::Event, 1, seed);
    assert_eq!(scalar.len(), fast.len());
    assert!(
        ks::same_distribution(&scalar, &fast, ALPHA),
        "KS distance {} exceeds critical {}",
        ks::ks_statistic(&scalar, &fast),
        ks::ks_critical(scalar.len(), fast.len(), ALPHA)
    );
}

#[test]
fn materialized_backend_scalar_vs_vectorized_ks() {
    // Irregular degrees (barbell) stress the 1/d_u + 1/d_v weights and
    // the rejection sampler's rmax bound.
    let g = generators::barbell(12).unwrap();
    let make = || StaticNetwork::new(generators::barbell(12).unwrap());
    assert_eq!(g.n(), make().n());
    assert_modes_ks_equivalent(make, 11);
    // A random 6-regular graph: every rate a multiple of 2/6, which the
    // float lane holds rounded (the degree is not a power of two), and
    // too sparse for the contact sampler, so the lane runs every trial.
    let mut rng = gossip_stats::SimRng::seed_from_u64(61);
    let regular = generators::random_connected_regular(200, 6, &mut rng).unwrap();
    let make = || StaticNetwork::new(regular.clone());
    assert_modes_ks_equivalent(make, 12);
}

#[test]
fn sampled_backend_scalar_vs_vectorized_ks() {
    // The seeded G(n, p)'s CSR rows, realized on first touch, feed the
    // word-level bitset scan via `neighbors_slice`.
    let make = || {
        let n = 150;
        let p = 12.0 / (n as f64 - 1.0);
        StaticNetwork::from_topology(Topology::gnp(n, p, 424_242).unwrap())
    };
    assert_modes_ks_equivalent(make, 13);
}

#[test]
fn implicit_backend_scalar_vs_vectorized_ks() {
    // Implicit circulant lift: no closed form and no adjacency slice, so
    // the fast loop exercises its `for_each_neighbor` fallback.
    let make = || StaticNetwork::from_topology(Topology::circulant_lift(120, 4, 99).unwrap());
    assert!(make().n() == 120);
    assert_modes_ks_equivalent(make, 17);
}

#[test]
fn edge_markovian_scalar_vs_vectorized_ks() {
    // Golden digest (a)'s shape: async push-pull on edge-Markovian churn
    // with p = 0.02, q = 0.2 at n = 128, whose windows mix sparse deltas
    // (the lane repairs them) and dense ones (at least 2n changed edges:
    // the lane is rebuilt).
    let make = || {
        let mut rng = gossip_stats::SimRng::seed_from_u64(37);
        let initial = generators::erdos_renyi(128, 0.02, &mut rng).unwrap();
        EdgeMarkovian::new(initial, 0.02, 0.2).unwrap()
    };
    assert_modes_ks_equivalent(make, 19);
}

#[test]
fn diligent_scalar_vs_vectorized_ks() {
    // The Section 4 adversary G(256, 0.25): a sparse re-stitch delta
    // after every window in which a B node hears the rumor, each repaired
    // in the lane.
    let make = || DiligentNetwork::new(256, 0.25).unwrap();
    assert_modes_ks_equivalent_over(400, make, 21);
}

#[test]
fn vectorized_summaries_bit_identical_across_threads() {
    let make = || {
        let n = 120;
        let p = 10.0 / (n as f64 - 1.0);
        StaticNetwork::from_topology(Topology::gnp(n, p, 777).unwrap())
    };
    let t1 = times(make, 1, 23);
    let tk = times(make, 4, 23);
    let again = times(make, 1, 23);
    assert_eq!(t1.len(), tk.len());
    for (a, b) in t1.iter().zip(&tk) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    for (a, b) in t1.iter().zip(&again) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn vectorized_handles_incomplete_runs() {
    // Disconnected graph: the frontier drains without completing and the
    // cutoff must fire.
    use gossip_sim::{EventSimulation, RunConfig};
    let g = gossip_graph::Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
    let mut sim = EventSimulation::new(CutRateAsync::new(), RunConfig::with_max_time(8.0));
    let mut net = StaticNetwork::new(g);
    let mut rng = gossip_stats::SimRng::seed_from_u64(5);
    let o = sim.run(&mut net, 0, &mut rng).unwrap();
    assert!(!o.complete());
    // The component of node 0 is {0, 1, 2}; cutoff 8.0 informs it whp.
    assert_eq!(o.informed_count(), 3);
    assert_eq!(o.windows(), 8);
}

#[test]
fn vectorized_events_match_scalar_distributionally() {
    // Event counts: cut-rate resolves only informative events, so every
    // complete trial resolves exactly n - 1 of them.
    let n = 90;
    let make = move || {
        let p = 10.0 / (n as f64 - 1.0);
        StaticNetwork::from_topology(Topology::gnp(n, p, 31_337).unwrap())
    };
    let report = RunPlan::new(50, 41)
        .engine(Engine::Event)
        .execute(make, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    assert_eq!(report.completed(), 50);
    assert_eq!(report.events(), 50 * (n as u64 - 1));
    assert!(report.elapsed() > std::time::Duration::ZERO);
    assert!(report.events_per_sec() > 0.0);
}
