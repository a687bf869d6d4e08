//! Contact-sampler equivalence against the window engine's Fenwick
//! sampler.
//!
//! On a dense static generic topology (mean degree at least 12 while the
//! adjacency is small), without faults, the event engine proposes
//! contacts out of the smaller side of the cut and keeps those that cross
//! it (`crates/sim/src/contacts.rs`), handing a trial over to the
//! vectorized lane when too few proposals cross. The window engine, which
//! rebuilds a Fenwick tree of in-rates
//! for every window and samples it one event at a time, is the
//! independent reference: same process, different draws. Each test
//! compares the two engines' spread times with a two-sample KS test at
//! α = 0.01:
//!
//! * a materialized `G(200, 0.1)` and a random 16-regular graph, where
//!   the sampler runs whole trials;
//! * a ring of degree 16, where trials hand over to the lane;
//! * sampled `G(2000, 0.01)`, the benchmark's shape (release only).

use gossip_dynamics::{DynamicNetwork, StaticNetwork};
use gossip_graph::{connectivity, generators, Topology};
use gossip_sim::{AnyProtocol, CutRateAsync, Engine, RunPlan};
use gossip_stats::{ks, SimRng};

const TRIALS: usize = 600;
const ALPHA: f64 = 0.01;

/// Every trial's spread time on `engine`, sorted; each trial must spread.
fn times<N: DynamicNetwork>(
    make_net: impl Fn() -> N + Sync,
    engine: Engine,
    seed: u64,
) -> Vec<f64> {
    let report = RunPlan::new(TRIALS, seed)
        .engine(engine)
        .threads(1)
        .execute(make_net, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    assert_eq!(report.completed(), TRIALS);
    report.sorted_times().to_vec()
}

fn assert_engines_agree<N: DynamicNetwork>(make_net: impl Fn() -> N + Sync + Copy, seed: u64) {
    let window = times(make_net, Engine::Window, seed);
    let event = times(make_net, Engine::Event, seed + 1);
    assert!(
        ks::same_distribution(&window, &event, ALPHA),
        "KS distance {} exceeds critical {}",
        ks::ks_statistic(&window, &event),
        ks::ks_critical(window.len(), event.len(), ALPHA)
    );
}

/// A connected materialized `G(n, p)` drawn from `seed`.
fn connected_gnp(n: usize, p: f64, seed: u64) -> gossip_graph::Graph {
    let g = generators::erdos_renyi(n, p, &mut SimRng::seed_from_u64(seed)).unwrap();
    assert!(
        connectivity::is_connected(&g),
        "G({n}, {p}) from seed {seed}"
    );
    g
}

#[test]
fn materialized_gnp_contacts_vs_fenwick_ks() {
    let g = connected_gnp(200, 0.1, 3);
    assert_engines_agree(|| StaticNetwork::new(g.clone()), 31);
}

#[test]
fn random_regular_contacts_vs_fenwick_ks() {
    // Every weight and every neighbor-draw bound is equal: both rejection
    // steps accept their first probe.
    let g = generators::random_connected_regular(200, 16, &mut SimRng::seed_from_u64(5)).unwrap();
    assert_engines_agree(|| StaticNetwork::new(g.clone()), 33);
}

#[test]
fn ring_handover_vs_fenwick_ks() {
    // Only the edges at an informed arc's two ends cross the cut: the
    // trials hand over to the lane, mid-window, from the sampler's
    // informed set.
    let ring = generators::regular_circulant(300, 16).unwrap();
    assert_engines_agree(|| StaticNetwork::new(ring.clone()), 35);
}

#[test]
#[ignore = "release only: cargo test --release -p gossip-sim --test contacts_equivalence -- --ignored"]
fn sampled_gnp_at_the_benchmark_shape_vs_fenwick_ks() {
    let make = || StaticNetwork::from_topology(Topology::gnp(2000, 0.01, 20_261_016).unwrap());
    assert_engines_agree(make, 37);
}
