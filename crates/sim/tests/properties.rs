//! Property-based tests for the simulators.
//!
//! Invariants checked on randomized inputs:
//! * the informed set only grows, and completion implies full;
//! * flooding time equals the start node's eccentricity exactly;
//! * every randomized protocol is dominated by flooding (round-based) on
//!   static graphs;
//! * replaying a seed replays the outcome bit-for-bit.

use gossip_dynamics::StaticNetwork;
use gossip_graph::{connectivity, generators, Graph};
use gossip_sim::{
    AnyProtocol, AsyncPushPull, CutRateAsync, EventSimulation, FaultModel, Flooding, RunConfig,
    RunPlan, Simulation, SyncPushPull,
};
use gossip_stats::SimRng;
use proptest::prelude::*;

fn connected_er(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = SimRng::seed_from_u64(seed);
    for _ in 0..50 {
        let g = generators::erdos_renyi(n, p, &mut rng).expect("params validated");
        if connectivity::is_connected(&g) {
            return g;
        }
    }
    // Fall back to a connected family.
    generators::cycle(n).expect("n >= 3")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// All four protocols complete on connected static graphs, and report
    /// completion times inside the window count.
    #[test]
    fn protocols_complete_on_connected_graphs(seed in 0u64..500, n in 4usize..24, p in 0.3f64..0.9) {
        let g = connected_er(n, p, seed);
        let mut rng = SimRng::seed_from_u64(seed ^ 0xABCD);
        for which in 0..4 {
            let mut net = StaticNetwork::new(g.clone());
            let config = RunConfig::with_max_time(1e5);
            let outcome = match which {
                0 => Simulation::new(AsyncPushPull::new(), config).run(&mut net, 0, &mut rng),
                1 => Simulation::new(CutRateAsync::new(), config).run(&mut net, 0, &mut rng),
                2 => Simulation::new(SyncPushPull::new(), config).run(&mut net, 0, &mut rng),
                _ => Simulation::new(Flooding::new(), config).run(&mut net, 0, &mut rng),
            }.expect("valid");
            prop_assert!(outcome.complete(), "protocol {which} failed to complete");
            prop_assert_eq!(outcome.informed_count(), n);
            let tau = outcome.spread_time().expect("complete");
            prop_assert!(tau <= outcome.windows() as f64);
        }
    }

    /// Flooding time equals the eccentricity of the start node.
    #[test]
    fn flooding_equals_eccentricity(seed in 0u64..500, n in 4usize..20, p in 0.2f64..0.8, start in 0usize..20) {
        let g = connected_er(n, p, seed);
        let start = (start % n) as u32;
        let dist = connectivity::bfs_distances(&g, start);
        let ecc = dist.iter().copied().max().expect("nonempty") as f64;
        let mut net = StaticNetwork::new(g);
        let mut rng = SimRng::seed_from_u64(seed);
        let outcome = Simulation::new(Flooding::new(), RunConfig::with_max_time(1e5))
            .run(&mut net, start, &mut rng)
            .expect("valid");
        prop_assert_eq!(outcome.spread_time().expect("connected"), ecc.max(1.0));
    }

    /// Synchronous push–pull can never beat flooding on the same graph
    /// (flooding informs a superset each round).
    #[test]
    fn flooding_dominates_sync(seed in 0u64..300, n in 4usize..20, p in 0.3f64..0.9) {
        let g = connected_er(n, p, seed);
        let mut rng = SimRng::seed_from_u64(seed);
        let mut net = StaticNetwork::new(g.clone());
        let flood = Simulation::new(Flooding::new(), RunConfig::with_max_time(1e5))
            .run(&mut net, 0, &mut rng)
            .expect("valid")
            .spread_time()
            .expect("connected");
        let mut net = StaticNetwork::new(g);
        let sync = Simulation::new(SyncPushPull::new(), RunConfig::with_max_time(1e5))
            .run(&mut net, 0, &mut rng)
            .expect("valid")
            .spread_time()
            .expect("connected");
        prop_assert!(sync >= flood, "sync {sync} beat flooding {flood}");
    }

    /// Identical seeds replay identical outcomes for every protocol.
    #[test]
    fn seeded_replay(seed in 0u64..300, n in 4usize..16, p in 0.3f64..0.9) {
        let g = connected_er(n, p, seed);
        for which in 0..3 {
            let run = |g: &Graph| {
                let mut net = StaticNetwork::new(g.clone());
                let mut rng = SimRng::seed_from_u64(seed);
                let config = RunConfig::with_max_time(1e5);
                match which {
                    0 => Simulation::new(AsyncPushPull::new(), config).run(&mut net, 0, &mut rng),
                    1 => Simulation::new(CutRateAsync::new(), config).run(&mut net, 0, &mut rng),
                    _ => Simulation::new(SyncPushPull::new(), config).run(&mut net, 0, &mut rng),
                }.expect("valid").spread_time()
            };
            prop_assert_eq!(run(&g), run(&g));
        }
    }

    /// Trajectories are monotone in time and in informed count for the
    /// cut-rate simulator on arbitrary (possibly disconnected) graphs.
    #[test]
    fn trajectory_monotone_even_disconnected(seed in 0u64..300, n in 3usize..16, p in 0.0f64..0.6) {
        let mut rng = SimRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, p, &mut rng).expect("params validated");
        let mut net = StaticNetwork::new(g);
        let outcome = Simulation::new(CutRateAsync::new(), RunConfig::with_max_time(50.0).recording())
            .run(&mut net, 0, &mut rng)
            .expect("valid");
        let traj = outcome.trajectory();
        for w in traj.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            prop_assert!(w[0].1 <= w[1].1);
        }
        prop_assert!(outcome.informed_count() >= 1);
    }

    /// Async push–pull under the fault layer's loss and per-window
    /// downtime (the `lossy` regime) completes on every connected graph for
    /// any loss and downtime below 1 (given enough time), and it never
    /// informs a node unreachable from the start.
    #[test]
    fn lossy_completes_and_respects_reachability(
        seed in 0u64..200,
        n in 4usize..20,
        p in 0.3f64..0.9,
        loss in 0.0f64..0.8,
        downtime in 0.0f64..0.5,
    ) {
        let g = connected_er(n, p, seed);
        let model = FaultModel { drop: loss, downtime, ..FaultModel::default() };
        let report = RunPlan::new(1, seed ^ 0x1055)
            .threads(1)
            .start(0)
            .config(RunConfig::with_max_time(50_000.0))
            .faults(model.clone())
            .execute(
                || StaticNetwork::new(g.clone()),
                || AnyProtocol::event(CutRateAsync::new()),
            )
            .expect("valid");
        prop_assert!(report.completed() == 1, "loss {loss}, downtime {downtime} never finished");

        // Disconnected case: the isolated component stays uninformed no
        // matter the fault parameters.
        let mut split = gossip_graph::GraphBuilder::new(5);
        split.add_edge(0, 1).expect("in range");
        split.add_edge(3, 4).expect("in range");
        let mut net = StaticNetwork::new(split.build());
        let mut rng = SimRng::seed_from_u64(seed ^ 0x1055);
        let out = EventSimulation::new(CutRateAsync::new(), RunConfig::with_max_time(100.0))
            .with_faults(model)
            .run(&mut net, 0, &mut rng)
            .expect("valid");
        prop_assert!(!out.informed().contains(3) && !out.informed().contains(4));
        prop_assert!(out.informed_count() <= 2);
    }
}

/// `lossy` at zero loss and downtime folds to the inactive fault model:
/// the cut-rate sampler under it samples the same spread-time
/// distribution as the ground-truth naive simulator (two-sample KS test
/// at the 0.1% level). Statistical, seeded — outside proptest.
#[test]
fn lossy_zero_matches_naive_distribution() {
    let n = 20;
    let trials = 1500u64;
    let lossy_zero = FaultModel {
        drop: 0.0,
        downtime: 0.0,
        ..FaultModel::default()
    };
    assert!(!lossy_zero.is_active());
    let make = || StaticNetwork::new(generators::complete(n).expect("valid"));
    let sample = |lossy: bool| -> Vec<f64> {
        let base = SimRng::seed_from_u64(0xFA57);
        (0..trials)
            .map(|i| {
                let mut rng = base.derive(i + if lossy { 100_000 } else { 0 });
                let mut net = make();
                let outcome = if lossy {
                    EventSimulation::new(CutRateAsync::new(), RunConfig::default())
                        .with_faults(lossy_zero.clone())
                        .run(&mut net, 0, &mut rng)
                } else {
                    Simulation::new(AsyncPushPull::new(), RunConfig::default())
                        .run(&mut net, 0, &mut rng)
                };
                outcome
                    .expect("valid")
                    .spread_time()
                    .expect("complete graph finishes")
            })
            .collect()
    };
    let a = sample(false);
    let b = sample(true);
    assert!(
        gossip_stats::ks::same_distribution(&a, &b, 0.001),
        "KS statistic {} rejects equality",
        gossip_stats::ks::ks_statistic(&a, &b)
    );
}
