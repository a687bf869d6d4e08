//! Backend equivalence: an implicit [`Topology`] backend and its
//! materialized CSR twin describe the *same* graph, so every protocol must
//! produce statistically identical spread-time distributions on both —
//! the closed-form cut-rate states and O(1) neighbor indexing are pure
//! representation changes.
//!
//! Same harness as the engine-equivalence suite: two-sample
//! Kolmogorov–Smirnov at significance α = 0.01 on fixed seeds, over the
//! three structured families the ISSUE names (complete, star, circulant),
//! on both engines for the cut-rate protocol. For backends whose neighbor
//! enumeration matches CSR sorted order (everything except circulant) the
//! naive tick-by-tick protocol even consumes the *identical* RNG stream,
//! which is asserted exactly.

use gossip_dynamics::StaticNetwork;
use gossip_graph::Topology;
use gossip_sim::{
    AsyncPushPull, CutRateAsync, EventSimulation, IncrementalProtocol, Protocol, RunConfig,
    Simulation,
};
use gossip_stats::{ks, SimRng};

const ALPHA: f64 = 0.01;

fn sample_window<P: Protocol>(
    make_net: &impl Fn() -> StaticNetwork,
    make_proto: &impl Fn() -> P,
    start: u32,
    trials: u64,
    seed: u64,
) -> Vec<f64> {
    let base = SimRng::seed_from_u64(seed);
    (0..trials)
        .map(|i| {
            let mut rng = base.derive(i);
            Simulation::new(make_proto(), RunConfig::default())
                .run(&mut make_net(), start, &mut rng)
                .expect("valid run")
                .spread_time()
                .expect("run completes")
        })
        .collect()
}

fn sample_event<P: IncrementalProtocol>(
    make_net: &impl Fn() -> StaticNetwork,
    make_proto: &impl Fn() -> P,
    start: u32,
    trials: u64,
    seed: u64,
) -> Vec<f64> {
    let base = SimRng::seed_from_u64(seed);
    (0..trials)
        .map(|i| {
            let mut rng = base.derive(i);
            EventSimulation::new(make_proto(), RunConfig::default())
                .run(&mut make_net(), start, &mut rng)
                .expect("valid run")
                .spread_time()
                .expect("run completes")
        })
        .collect()
}

/// Asserts KS indistinguishability of implicit vs materialized backends for
/// `CutRateAsync` on both engines, with disjoint derived seed streams.
fn assert_backends_agree(label: &str, implicit: Topology, start: u32, trials: u64, seed: u64) {
    assert!(
        implicit.is_implicit(),
        "{label}: expected an implicit backend"
    );
    let materialized = Topology::materialized(implicit.materialize());
    let make_imp = {
        let t = implicit.clone();
        move || StaticNetwork::from_topology(t.clone())
    };
    let make_mat = {
        let t = materialized.clone();
        move || StaticNetwork::from_topology(t.clone())
    };

    let a = sample_event(&make_imp, &CutRateAsync::new, start, trials, seed);
    let b = sample_event(
        &make_mat,
        &CutRateAsync::new,
        start,
        trials,
        seed + 1_000_000,
    );
    assert!(
        ks::same_distribution(&a, &b, ALPHA),
        "{label} (event engine): KS distance {} exceeds the α = {ALPHA} critical value {}",
        ks::ks_statistic(&a, &b),
        ks::ks_critical(a.len(), b.len(), ALPHA),
    );

    let a = sample_window(
        &make_imp,
        &CutRateAsync::new,
        start,
        trials,
        seed + 2_000_000,
    );
    let b = sample_window(
        &make_mat,
        &CutRateAsync::new,
        start,
        trials,
        seed + 3_000_000,
    );
    assert!(
        ks::same_distribution(&a, &b, ALPHA),
        "{label} (window engine): KS distance {} exceeds the α = {ALPHA} critical value {}",
        ks::ks_statistic(&a, &b),
        ks::ks_critical(a.len(), b.len(), ALPHA),
    );
}

#[test]
fn complete_backends_agree() {
    assert_backends_agree(
        "complete(24)",
        Topology::complete(24).unwrap(),
        0,
        1200,
        11001,
    );
}

#[test]
fn star_backends_agree() {
    // Start at a leaf so both the center-pull and the leaf-fanout phases
    // of the closed-form star state are exercised.
    assert_backends_agree("star(16)", Topology::star(16, 0).unwrap(), 3, 1200, 11002);
}

#[test]
fn circulant_backends_agree() {
    // Circulants run the generic Fenwick path on both backends; the
    // implicit one only changes neighbor enumeration (jump arithmetic vs
    // CSR slices).
    assert_backends_agree(
        "circulant(32, d=4)",
        Topology::regular_circulant(32, 4).unwrap(),
        0,
        1200,
        11003,
    );
}

#[test]
fn naive_stream_identical_on_sorted_backends() {
    // Complete, star, and two-cliques backends enumerate
    // neighbors in the same increasing order as CSR adjacency, so the
    // naive protocol — which draws `rng.index(degree)` and indexes — must
    // reproduce the materialized run *exactly*, not just in distribution.
    let backends = [
        ("complete", Topology::complete(18).unwrap()),
        ("star", Topology::star(18, 5).unwrap()),
        (
            "two-cliques",
            Topology::two_cliques(18, 9, (2, 13)).unwrap(),
        ),
    ];
    for (label, implicit) in backends {
        let materialized = Topology::materialized(implicit.materialize());
        let base = SimRng::seed_from_u64(12000);
        for i in 0..50u64 {
            let mut rng_a = base.derive(i);
            let mut rng_b = base.derive(i);
            let a = Simulation::new(AsyncPushPull::new(), RunConfig::default())
                .run(
                    &mut StaticNetwork::from_topology(implicit.clone()),
                    0,
                    &mut rng_a,
                )
                .unwrap();
            let b = Simulation::new(AsyncPushPull::new(), RunConfig::default())
                .run(
                    &mut StaticNetwork::from_topology(materialized.clone()),
                    0,
                    &mut rng_b,
                )
                .unwrap();
            assert_eq!(
                a.spread_time(),
                b.spread_time(),
                "{label}: trial {i} diverged between backends"
            );
        }
    }
}

#[test]
fn cut_rate_equals_naive_on_implicit_complete() {
    // Cross-protocol sanity on the closed-form path: the O(1)-per-event
    // complete-graph state must still sample the same process as the
    // ground-truth tick simulator.
    let make = || StaticNetwork::from_topology(Topology::complete(20).unwrap());
    let fast = sample_event(&make, &CutRateAsync::new, 0, 1200, 13001);
    let naive = sample_window(&make, &AsyncPushPull::new, 0, 1200, 13002);
    assert!(
        ks::same_distribution(&fast, &naive, ALPHA),
        "closed-form cut rate drifted from the naive sampler: KS {}",
        ks::ks_statistic(&fast, &naive),
    );
}
