//! Sampled-backend equivalence: a seeded sampled [`Topology`] backend
//! (`G(n, p)`, random regular, circulant lift) and its materialized CSR
//! twin describe the *same* graph, so every protocol must behave
//! identically on both — realizing the seeded graph on first touch is a
//! pure representation change.
//!
//! Two tiers of assertion, per the ISSUE checklist:
//!
//! * **KS equivalence (α = 0.01)** — sampled vs materialized spread-time
//!   distributions for the cut-rate protocol on both engines, with
//!   disjoint derived seed streams (the same harness as
//!   `backend_equivalence.rs`).
//! * **Bit-identical runs** — sampled `G(n, p)` and random-regular rows
//!   enumerate in CSR sorted order, so under a fixed seed the *identical*
//!   RNG stream is consumed on both representations: per-trial spread
//!   times, and whole [`RunPlan`] summaries (`backend = sampled` vs
//!   `materialize()`), must match to the bit.

use gossip_dynamics::{DynamicNetwork, ResampledGnp, StaticNetwork};
use gossip_graph::Topology;
use gossip_sim::{
    AnyProtocol, AsyncPushPull, CutRateAsync, Engine, EventSimulation, IncrementalProtocol,
    Protocol, RunConfig, RunPlan, Simulation,
};
use gossip_stats::{ks, SimRng};

const ALPHA: f64 = 0.01;

fn sample_window<P: Protocol, N: DynamicNetwork>(
    make_net: &impl Fn() -> N,
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

fn sample_event<P: IncrementalProtocol, N: DynamicNetwork>(
    make_net: &impl Fn() -> N,
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

/// KS indistinguishability of a sampled backend vs its materialized twin
/// for `CutRateAsync` on both engines, with disjoint derived seed streams.
fn assert_sampled_matches_materialized(label: &str, sampled: Topology, trials: u64, seed: u64) {
    assert!(sampled.is_sampled(), "{label}: expected a sampled backend");
    let materialized = Topology::materialized(sampled.materialize());
    let make_s = {
        let t = sampled.clone();
        move || StaticNetwork::from_topology(t.clone())
    };
    let make_m = {
        let t = materialized.clone();
        move || StaticNetwork::from_topology(t.clone())
    };

    let a = sample_event(&make_s, &CutRateAsync::new, 0, trials, seed);
    let b = sample_event(&make_m, &CutRateAsync::new, 0, trials, seed + 1_000_000);
    assert!(
        ks::same_distribution(&a, &b, ALPHA),
        "{label} (event engine): KS distance {} exceeds the α = {ALPHA} critical value {}",
        ks::ks_statistic(&a, &b),
        ks::ks_critical(a.len(), b.len(), ALPHA),
    );

    let a = sample_window(&make_s, &CutRateAsync::new, 0, trials, seed + 2_000_000);
    let b = sample_window(&make_m, &CutRateAsync::new, 0, trials, seed + 3_000_000);
    assert!(
        ks::same_distribution(&a, &b, ALPHA),
        "{label} (window engine): KS distance {} exceeds the α = {ALPHA} critical value {}",
        ks::ks_statistic(&a, &b),
        ks::ks_critical(a.len(), b.len(), ALPHA),
    );
}

#[test]
fn gnp_sampled_matches_materialized() {
    assert_sampled_matches_materialized(
        "gnp(48, 0.18)",
        Topology::gnp(48, 0.18, 2024).unwrap(),
        1200,
        21001,
    );
}

#[test]
fn random_regular_sampled_matches_materialized() {
    assert_sampled_matches_materialized(
        "random_regular(40, d=4)",
        Topology::random_regular(40, 4, 2025).unwrap(),
        1200,
        21002,
    );
}

#[test]
fn circulant_lift_sampled_matches_materialized() {
    assert_sampled_matches_materialized(
        "circulant_lift(36, d=4)",
        Topology::circulant_lift(36, 4, 2026).unwrap(),
        1200,
        21003,
    );
}

/// Sorted-order backends consume the identical RNG stream on either
/// representation: fixed seeds give bit-equal spread times, event and
/// window engines alike, for both the cut-rate and the tick-by-tick
/// protocol.
#[test]
fn gnp_fixed_seed_runs_are_bit_identical() {
    let sampled = Topology::gnp(64, 0.12, 99).unwrap();
    let materialized = Topology::materialized(sampled.materialize());
    for seed in 0..25u64 {
        let mut rng_s = SimRng::seed_from_u64(seed);
        let mut rng_m = SimRng::seed_from_u64(seed);
        let a = EventSimulation::new(CutRateAsync::new(), RunConfig::default())
            .run(
                &mut StaticNetwork::from_topology(sampled.clone()),
                0,
                &mut rng_s,
            )
            .unwrap();
        let b = EventSimulation::new(CutRateAsync::new(), RunConfig::default())
            .run(
                &mut StaticNetwork::from_topology(materialized.clone()),
                0,
                &mut rng_m,
            )
            .unwrap();
        assert_eq!(
            a.spread_time().unwrap().to_bits(),
            b.spread_time().unwrap().to_bits(),
            "cut-rate seed {seed}"
        );
        let mut rng_s = SimRng::seed_from_u64(1000 + seed);
        let mut rng_m = SimRng::seed_from_u64(1000 + seed);
        let a = Simulation::new(AsyncPushPull::new(), RunConfig::default())
            .run(
                &mut StaticNetwork::from_topology(sampled.clone()),
                0,
                &mut rng_s,
            )
            .unwrap();
        let b = Simulation::new(AsyncPushPull::new(), RunConfig::default())
            .run(
                &mut StaticNetwork::from_topology(materialized.clone()),
                0,
                &mut rng_m,
            )
            .unwrap();
        assert_eq!(
            a.spread_time().unwrap().to_bits(),
            b.spread_time().unwrap().to_bits(),
            "naive seed {seed}"
        );
    }
}

/// The ISSUE's bit-identical-summary check: a whole `RunPlan` batch on
/// `backend = sampled` vs the same plan on `materialize()`, fixed seed —
/// every per-trial time and every summary statistic matches to the bit,
/// on both engines and for 1 and 4 worker threads.
#[test]
fn runplan_summaries_bit_identical_across_representations() {
    for sampled in [
        Topology::gnp(56, 0.15, 7).unwrap(),
        Topology::random_regular(48, 4, 8).unwrap(),
    ] {
        let materialized = Topology::materialized(sampled.materialize());
        for engine in [Engine::Event, Engine::Window] {
            for threads in [1usize, 4] {
                let run = |topo: &Topology| {
                    let t = topo.clone();
                    RunPlan::new(48, 4242)
                        .engine(engine)
                        .threads(threads)
                        .start(0)
                        .execute(
                            move || StaticNetwork::from_topology(t.clone()),
                            || AnyProtocol::event(CutRateAsync::new()),
                        )
                        .expect("valid plan")
                };
                let a = run(&sampled);
                let b = run(&materialized);
                assert_eq!(a.trials(), b.trials());
                assert_eq!(a.completed(), b.completed());
                let (ta, tb) = (a.sorted_times(), b.sorted_times());
                assert_eq!(ta.len(), tb.len());
                for (x, y) in ta.iter().zip(tb.iter()) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{} / {engine:?} / {threads} threads: per-trial time drifted",
                        sampled.backend_name()
                    );
                }
                assert_eq!(a.mean().to_bits(), b.mean().to_bits());
                assert_eq!(a.std_dev().to_bits(), b.std_dev().to_bits());
                assert_eq!(a.median().to_bits(), b.median().to_bits());
            }
        }
    }
}

/// The resampled-G(n,p) dynamic family agrees across engines (deltas
/// applied incrementally vs full per-window rebuilds).
#[test]
fn resampled_gnp_engines_agree() {
    let make = || ResampledGnp::new(48, 0.12, 31).unwrap();
    let window = sample_window(&make, &CutRateAsync::new, 0, 900, 22001);
    let event = sample_event(&make, &CutRateAsync::new, 0, 900, 23001);
    assert!(
        ks::same_distribution(&window, &event, ALPHA),
        "KS distance {} exceeds the α = {ALPHA} critical value {}",
        ks::ks_statistic(&window, &event),
        ks::ks_critical(window.len(), event.len(), ALPHA),
    );
}
