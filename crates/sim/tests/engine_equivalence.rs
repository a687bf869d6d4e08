//! Engine equivalence: the event-stream engine ([`EventSimulation`]) and
//! the window-based reference engine ([`Simulation`]) are both exact
//! samplers of the same continuous-time process, so their spread-time
//! distributions must be statistically indistinguishable.
//!
//! Checked with a two-sample Kolmogorov–Smirnov test at significance
//! α = 0.01 (i.e. p > 0.01 required) on fixed seeds, across the
//! topology regimes: complete (dense static), star (irregular degrees),
//! cycle (sparse static), and edge-Markovian (true dynamics: sparse
//! deltas exercise the delta-repair path, dense ones the rebuild). Faults
//! exist only on the event engine; `tests/fault_equivalence.rs` checks
//! them, and `lossy_protocol_on_complete` ties `lossy`'s loss back to the
//! window engine through the thinning law.

use gossip_dynamics::{DynamicNetwork, EdgeMarkovian, StaticNetwork};
use gossip_graph::generators;
use gossip_sim::{
    AnyProtocol, CutRateAsync, Engine, EventSimulation, FaultModel, IncrementalProtocol, Protocol,
    RunConfig, RunPlan, SimError, Simulation,
};
use gossip_stats::{ks, SimRng};

const ALPHA: f64 = 0.01;

/// Samples `trials` spread times through both engines with disjoint
/// derived seed streams and asserts KS indistinguishability.
fn assert_engines_agree<N, P>(
    label: &str,
    make_net: impl Fn() -> N,
    make_proto: impl Fn() -> P,
    start: u32,
    trials: u64,
    seed: u64,
) where
    N: DynamicNetwork,
    P: Protocol + IncrementalProtocol,
{
    let base = SimRng::seed_from_u64(seed);
    let mut window = Vec::with_capacity(trials as usize);
    let mut event = Vec::with_capacity(trials as usize);
    for i in 0..trials {
        let mut rng = base.derive(i);
        let outcome = Simulation::new(make_proto(), RunConfig::default())
            .run(&mut make_net(), start, &mut rng)
            .expect("window run");
        window.push(outcome.spread_time().expect("window run completes"));

        let mut rng = base.derive(1_000_000 + i);
        let outcome = EventSimulation::new(make_proto(), RunConfig::default())
            .run(&mut make_net(), start, &mut rng)
            .expect("event run");
        event.push(outcome.spread_time().expect("event run completes"));
    }
    assert!(
        ks::same_distribution(&window, &event, ALPHA),
        "{label}: KS distance {} exceeds the α = {ALPHA} critical value {}",
        ks::ks_statistic(&window, &event),
        ks::ks_critical(window.len(), event.len(), ALPHA),
    );
}

#[test]
fn complete_graph() {
    assert_engines_agree(
        "complete(24)",
        || StaticNetwork::new(generators::complete(24).unwrap()),
        CutRateAsync::new,
        0,
        1200,
        9001,
    );
}

#[test]
fn star_graph() {
    // Irregular degrees exercise the 1/d_u + 1/d_v weights; start at a
    // leaf so both the rate-1/(n-1) hub pull and the hub push matter.
    assert_engines_agree(
        "star(16)",
        || StaticNetwork::new(generators::star(16).unwrap()),
        CutRateAsync::new,
        3,
        1200,
        9002,
    );
}

#[test]
fn cycle_graph() {
    assert_engines_agree(
        "cycle(32)",
        || StaticNetwork::new(generators::cycle(32).unwrap()),
        CutRateAsync::new,
        0,
        1200,
        9003,
    );
}

#[test]
fn edge_markovian_network() {
    // True dynamics: every window boundary reports a flip delta (≈ 18
    // edges here), so this drives CutRateAsync's delta repair on every
    // window of every trial.
    let initial_seed = 77;
    assert_engines_agree(
        "edge-markovian(32, p=0.02, q=0.2)",
        || {
            let mut rng = SimRng::seed_from_u64(initial_seed);
            let initial = generators::erdos_renyi(32, 0.15, &mut rng).unwrap();
            EdgeMarkovian::new(initial, 0.02, 0.2).unwrap()
        },
        CutRateAsync::new,
        0,
        900,
        9004,
    );
}

#[test]
fn lossy_protocol_on_complete() {
    // `lossy` lives on the event engine's fault layer: the window engine
    // refuses an active model instead of running it lossless. On a static
    // graph, loss thins every clock to rate 1 − loss, so the event
    // engine's lossy spread time, scaled by 1 − loss, is the window
    // engine's lossless one in distribution.
    let make_net = || StaticNetwork::new(generators::complete(20).unwrap());
    let with_downtime = FaultModel {
        drop: 0.3,
        downtime: 0.2,
        ..FaultModel::default()
    };
    assert!(matches!(
        RunPlan::new(1, 9005)
            .engine(Engine::Window)
            .faults(with_downtime)
            .execute(make_net, || AnyProtocol::event(CutRateAsync::new())),
        Err(SimError::FaultsUnsupported { .. })
    ));

    let loss = 0.3;
    let lossy = FaultModel {
        drop: loss,
        ..FaultModel::default()
    };
    let base = SimRng::seed_from_u64(9005);
    let mut window = Vec::with_capacity(900);
    let mut event = Vec::with_capacity(900);
    for i in 0..900 {
        let mut rng = base.derive(i);
        let outcome = Simulation::new(CutRateAsync::new(), RunConfig::default())
            .run(&mut make_net(), 0, &mut rng)
            .expect("window run");
        window.push(outcome.spread_time().expect("window run completes"));

        let mut rng = base.derive(1_000_000 + i);
        let outcome = EventSimulation::new(CutRateAsync::new(), RunConfig::default())
            .with_faults(lossy.clone())
            .run(&mut make_net(), 0, &mut rng)
            .expect("lossy event run");
        let t = outcome.spread_time().expect("lossy event run completes");
        event.push((1.0 - loss) * t);
    }
    assert!(
        ks::same_distribution(&window, &event, ALPHA),
        "lossy(0.3) on complete(20): KS distance {} exceeds the α = {ALPHA} critical value {}",
        ks::ks_statistic(&window, &event),
        ks::ks_critical(window.len(), event.len(), ALPHA),
    );
}

#[test]
fn dense_edge_markovian_network() {
    // ≈ 300 changed edges per window at n = 64: every delta is dense, so
    // CutRateAsync::apply_delta rebuilds its rates on every window.
    let initial_seed = 78;
    assert_engines_agree(
        "edge-markovian(64, p=0.1, q=0.3)",
        || {
            let mut rng = SimRng::seed_from_u64(initial_seed);
            let initial = generators::erdos_renyi(64, 0.25, &mut rng).unwrap();
            EdgeMarkovian::new(initial, 0.1, 0.3).unwrap()
        },
        CutRateAsync::new,
        0,
        900,
        9006,
    );
}
