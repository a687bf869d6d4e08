//! Live runtime vs analytic engines: the two stacks simulate the same
//! asynchronous process, so their spread-time distributions must agree.
//!
//! The live runtime shares no event-loop code with `gossip-sim` — nodes
//! are actors exchanging envelopes with a one-tick latency, the engines
//! draw from the process's exact event distribution — which makes
//! agreement here a validation of both implementations at once. The
//! KS pattern (α = 0.01) follows `vectorized_equivalence.rs` /
//! `fault_equivalence.rs`.
//!
//! Also enforced: bit-identical determinism by `(spec, seed)` across
//! group counts, UDP loopback trials bit-identical to in-process ones,
//! and drop-fault sanity (total loss never spreads; loss never helps).

use gossip_dynamics::StaticNetwork;
use gossip_graph::Topology;
use gossip_net::{DeliveryKind, NetConfig, NetExecutor, NetProtocol, NetSweep, NetTraffic};
use gossip_sim::{AnyProtocol, CutRateAsync, Engine, RunPlan, RunReport};
use gossip_stats::ks;
use std::sync::Mutex;

const TRIALS: usize = 400;
const ALPHA: f64 = 0.01;

/// A live push–pull batch through `RunPlan`, trials in
/// sequence — the way `NetSweep` runs each sweep cell.
fn live_batch(
    topo: &Topology,
    start: u32,
    trials: usize,
    seed: u64,
    config: &NetConfig,
    delivery: DeliveryKind,
) -> (RunReport, NetTraffic) {
    let traffic = Mutex::new(NetTraffic::default());
    let report = RunPlan::new(trials, seed)
        .threads(1)
        .execute_with(|run| {
            let proto = NetProtocol::PushPull;
            NetExecutor::new(topo, proto, start, config, delivery, run, &traffic)
        })
        .unwrap();
    (report, traffic.into_inner().unwrap())
}

/// Spread times from the live runtime (two node groups, default tick).
fn live_times(topo: &Topology, start: u32, seed: u64, trials: usize) -> Vec<f64> {
    let cfg = NetConfig {
        groups: 2,
        ..NetConfig::default()
    };
    let (report, _) = live_batch(topo, start, trials, seed, &cfg, DeliveryKind::Local);
    assert_eq!(report.completed(), trials, "live trials must all complete");
    report.sorted_times().to_vec()
}

/// Spread times from the analytic event engine on the same topology.
fn engine_times(topo: &Topology, start: u32, seed: u64, trials: usize) -> Vec<f64> {
    let topo = topo.clone();
    let report = RunPlan::new(trials, seed)
        .engine(Engine::Event)
        .start_opt(Some(start))
        .execute(
            move || StaticNetwork::from_topology(topo.clone()),
            || AnyProtocol::event(CutRateAsync::new()),
        )
        .unwrap();
    assert_eq!(report.completed(), trials);
    report.sorted_times().to_vec()
}

fn assert_live_matches_engine(topo: &Topology, start: u32) {
    let live = live_times(topo, start, 101, TRIALS);
    let engine = engine_times(topo, start, 202, TRIALS);
    assert!(
        ks::same_distribution(&live, &engine, ALPHA),
        "KS distance {} exceeds critical {} (live median {}, engine median {})",
        ks::ks_statistic(&live, &engine),
        ks::ks_critical(live.len(), engine.len(), ALPHA),
        live[live.len() / 2],
        engine[engine.len() / 2],
    );
}

#[test]
fn live_matches_event_engine_on_complete() {
    let topo = Topology::complete(64).unwrap();
    assert_live_matches_engine(&topo, 0);
}

#[test]
fn live_matches_event_engine_on_star() {
    // Start at a leaf: the first hop must pull through the center, the
    // most latency-sensitive shape a static family offers.
    let topo = Topology::star(64, 0).unwrap();
    assert_live_matches_engine(&topo, 1);
}

#[test]
fn live_matches_event_engine_on_gnp() {
    // Sampled G(n, p) above the connectivity threshold; same realized
    // graph on both sides.
    let topo = Topology::gnp(96, 0.15, 424_242).unwrap();
    assert_live_matches_engine(&topo, 0);
}

#[test]
fn live_trials_are_bit_deterministic_across_group_counts() {
    // Grouping is pure parallelization: any group count, any repeat,
    // identical bits. This is the contract that makes the runtime's
    // parallelism (and its transports) invisible to results.
    let topo = Topology::gnp(120, 0.12, 999).unwrap();
    let run = |groups: usize| -> Vec<f64> {
        let cfg = NetConfig {
            groups,
            ..NetConfig::default()
        };
        let (report, _) = live_batch(&topo, 0, 8, 77, &cfg, DeliveryKind::Local);
        report.sorted_times().to_vec()
    };
    let reference = run(1);
    assert_eq!(reference.len(), 8);
    for groups in [2, 4, 7] {
        let other = run(groups);
        for (a, b) in reference.iter().zip(&other) {
            assert_eq!(a.to_bits(), b.to_bits(), "groups={groups}");
        }
    }
    let again = run(4);
    for (a, b) in reference.iter().zip(&again) {
        assert_eq!(a.to_bits(), b.to_bits(), "repeat");
    }
}

#[test]
fn udp_loopback_trials_match_local_bit_for_bit() {
    // The transport is part of the determinism contract: length-prefixed
    // datagrams over loopback sockets deliver the very same trials as
    // in-process channels.
    let topo = Topology::complete(40).unwrap();
    let run = |kind: DeliveryKind| {
        let cfg = NetConfig {
            groups: 3,
            ..NetConfig::default()
        };
        live_batch(&topo, 0, 3, 55, &cfg, kind)
    };
    let (local, local_traffic) = run(DeliveryKind::Local);
    let (udp, udp_traffic) = run(DeliveryKind::Udp);
    assert_eq!(local.completed(), 3);
    assert_eq!(udp.completed(), 3);
    assert_eq!(local.events(), udp.events());
    assert_eq!(local_traffic.messages, udp_traffic.messages);
    for (a, b) in local.sorted_times().iter().zip(udp.sorted_times()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn sweep_rows_are_deterministic_by_spec_and_seed() {
    use gossip_core::scenario::{
        FamilySpec, NetSpec, ProtocolSpec, ScenarioSpec, SweepPlan, SweepSpec,
    };
    let spec = |groups: usize| {
        let mut family = FamilySpec::new("er");
        family.p = Some(0.15);
        family.backend = Some("sampled".into());
        let mut sweep = SweepSpec::over(vec![48, 64]);
        sweep.trials = Some(6);
        sweep.seed = Some(12);
        ScenarioSpec {
            name: "net-determinism".into(),
            description: None,
            family,
            protocol: ProtocolSpec::new("async"),
            sweep,
            faults: None,
            net: Some(NetSpec {
                groups: Some(groups),
                ..NetSpec::new()
            }),
        }
    };
    let run = |groups: usize| {
        let spec = spec(groups);
        let live = NetSweep::new(&spec).unwrap();
        SweepPlan::new(&spec).unwrap().live(&live).run().unwrap()
    };
    let one = run(1);
    let four = run(4);
    // ScenarioReport rows carry f64 statistics; PartialEq compares them
    // exactly, which is precisely the contract.
    assert_eq!(one.rows, four.rows);
    assert_eq!(one.rows.len(), 2);
    assert!(one.rows.iter().all(|r| r.completed == 6));
}

#[test]
fn total_drop_never_spreads_and_loss_never_helps() {
    let topo = Topology::complete(32).unwrap();
    let run = |drop: f64, horizon: f64| {
        let mut cfg = NetConfig {
            groups: 2,
            horizon,
            ..NetConfig::default()
        };
        cfg.faults.drop = drop;
        cfg.faults.seed = 9;
        live_batch(&topo, 0, 60, 5, &cfg, DeliveryKind::Local)
    };
    // drop = 1: every envelope dies at the delivery layer; only the
    // start node ever knows the rumor and every trial hits the horizon.
    let (dead, dead_traffic) = run(1.0, 5.0);
    assert_eq!(dead.completed(), 0);
    assert_eq!(dead.budget_stopped(), 60);
    assert_eq!(dead_traffic.dropped, dead_traffic.messages);
    // Losing half the envelopes slows spreading; medians must order.
    let (clean, _) = run(0.0, 1e4);
    let (lossy, lossy_traffic) = run(0.5, 1e4);
    assert_eq!(clean.completed(), 60);
    assert_eq!(lossy.completed(), 60);
    assert!(lossy_traffic.dropped > 0);
    assert!(
        lossy.median() > clean.median(),
        "lossy {} vs clean {}",
        lossy.median(),
        clean.median()
    );
}
