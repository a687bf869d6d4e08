//! Integration tests of the facade crate's public API surface: the
//! prelude, the experiment catalog, measures and generators — everything a
//! downstream user touches first.

use rumor_spreading::bounds::{self, experiment, predictions};
use rumor_spreading::prelude::*;

#[test]
fn prelude_covers_a_full_workflow() {
    // Build → measure → simulate → bound, all from the prelude.
    let mut rng = SimRng::seed_from_u64(5);
    let g = generators::random_connected_regular(100, 4, &mut rng).expect("valid");
    assert_eq!(diligence::absolute_diligence(&g), 0.25);

    let mut net = StaticNetwork::new(g);
    let outcome = Simulation::new(CutRateAsync::new(), RunConfig::default())
        .run(&mut net, 0, &mut rng)
        .expect("valid");
    assert!(outcome.complete());

    let profile = StepProfile {
        phi: 0.1,
        rho: 0.25,
        rho_abs: 0.25,
        connected: true,
    };
    let bound = theorem_1_1(|_| profile, 100, 1.0, 10_000_000).expect("fires");
    assert!(bound.steps > 0);
    let t_abs = theorem_1_3(|_| profile, 100, 10_000_000).expect("fires");
    assert_eq!(t_abs.steps, 800);
    let min = corollary_1_6(|_| profile, 100, 1.0, 10_000_000).expect("fires");
    assert_eq!(min.steps, t_abs.steps.min(bound.steps));
    let theirs = giakkoupis_bound(|_| profile, 100, 10.0, 1.0, 10_000_000).expect("fires");
    assert!(theirs.steps > bound.steps / 300, "sanity");
}

#[test]
fn experiment_catalog_is_complete_and_consistent() {
    let catalog = experiment::catalog();
    assert_eq!(catalog.len(), 16);
    // Every catalog entry names a real paper item and bench target.
    for spec in &catalog {
        assert!(
            spec.paper_item.contains("Theorem")
                || spec.paper_item.contains("Remark")
                || spec.paper_item.contains("Lemma")
                || spec.paper_item.contains("Section")
                || spec.paper_item.contains("Related work")
                || spec.paper_item.contains("Inequality")
                || spec.paper_item.contains("Robustness"),
            "unrecognized paper item: {}",
            spec.paper_item
        );
    }
}

#[test]
fn predictions_are_exposed() {
    assert!(predictions::theorem_1_1_target(100, 1.0) > 0.0);
    assert!(predictions::remark_1_4_worst_case(100) == 19_800.0);
    assert!(predictions::dynamic_star_tail(4.0) < 0.2);
    assert!(predictions::lemma_4_2_crossing_bound(6, 4) < 0.4);
}

#[test]
fn all_protocols_run_on_all_networks() {
    // Smoke matrix: every protocol completes (or cleanly times out) on
    // every network family.
    let mut rng = SimRng::seed_from_u64(77);
    let mut nets: Vec<Box<dyn DynamicNetwork>> = vec![
        Box::new(StaticNetwork::new(generators::complete(20).expect("valid"))),
        Box::new(DynamicStar::new(19).expect("valid")),
        Box::new(CliquePendant::new(19).expect("valid")),
        Box::new(AlternatingRegular::new(20, &mut rng).expect("valid")),
        Box::new(
            EdgeMarkovian::new(generators::cycle(20).expect("valid"), 0.2, 0.2).expect("valid"),
        ),
        Box::new(MobileAgents::new(20, 6, 6, 2, &mut rng).expect("valid")),
    ];
    for net in &mut nets {
        for proto in 0..5 {
            let config = RunConfig::with_max_time(5_000.0);
            let outcome = match proto {
                0 => Simulation::new(AsyncPushPull::new(), config).run(net, 0, &mut rng),
                1 => Simulation::new(CutRateAsync::new(), config).run(net, 0, &mut rng),
                2 => Simulation::new(SyncPushPull::new(), config).run(net, 0, &mut rng),
                3 => EventSimulation::new(CutRateAsync::new(), config)
                    .with_faults(FaultModel {
                        drop: 0.2,
                        downtime: 0.1,
                        ..FaultModel::default()
                    })
                    .run(net, 0, &mut rng),
                _ => Simulation::new(Flooding::new(), config).run(net, 0, &mut rng),
            }
            .expect("valid configuration");
            assert!(outcome.informed_count() >= 1);
        }
    }
}

#[test]
fn bound_modules_accessible_via_alias() {
    // The facade re-exports gossip-core as `bounds`.
    let star = StepProfile {
        phi: 1.0,
        rho: 1.0,
        rho_abs: 1.0,
        connected: true,
    };
    let r = bounds::bounds::theorem_1_1(|_| star, 64, 1.0, 100_000).expect("fires");
    assert!(r.accumulated >= r.target);
}
