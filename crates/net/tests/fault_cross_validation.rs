//! Live runtime vs analytic event engine **under matched fault
//! models**, plus the determinism contract for every live fault kind.
//!
//! The two stacks draw their fault coins differently — the engine from a
//! sequential per-trial fault stream, the live runtime from keyed
//! per-`(node, window)` / per-`(src, seq)` hashes — so the contract
//! between them is *distributional* (KS, α = 0.01), exactly the contract
//! the scalar and vectorized analytic paths share. Within the live
//! stack, the contract is stricter: bit-identical results across group
//! counts {1, 2, 3} and transports {local, udp} for every fault kind
//! (crash/recovery, schedule, partition, delay, duplication), which is
//! the acceptance criterion of the churn-tolerant runtime.
//!
//! Protocol note: under drop faults the live push–pull *pull* costs two
//! envelopes (request + reply), each dropped independently — a (1 − q)²
//! success rate where the engine's in-memory pull pays one (1 − q) veto.
//! The drop KS therefore runs the push-only protocol, whose single
//! envelope per contact is loss-isomorphic between the stacks;
//! crash/recovery KS (at drop = 0) runs full push–pull.

use gossip_dynamics::StaticNetwork;
use gossip_graph::Topology;
use gossip_net::{DeliveryKind, NetConfig, NetExecutor, NetFaults, NetProtocol, NetTraffic};
use gossip_sim::{
    AnyProtocol, AsyncPush, CutRateAsync, Engine, FaultModel, RunConfig, RunPlan, RunReport,
    TrialOutcome,
};
use gossip_stats::ks;
use std::sync::Mutex;

const TRIALS: usize = 300;
const ALPHA: f64 = 0.01;
const HORIZON: f64 = 1e4;

/// A live batch from node 0 through `RunPlan`, trials in sequence —
/// the way `NetSweep` runs each sweep cell.
fn live_batch(
    topo: &Topology,
    proto: NetProtocol,
    trials: usize,
    seed: u64,
    config: &NetConfig,
    delivery: DeliveryKind,
) -> (RunReport, NetTraffic) {
    let traffic = Mutex::new(NetTraffic::default());
    let report = RunPlan::new(trials, seed)
        .threads(1)
        .execute_with(|run| NetExecutor::new(topo, proto, 0, config, delivery, run, &traffic))
        .unwrap();
    (report, traffic.into_inner().unwrap())
}

fn live_report(
    topo: &Topology,
    proto: NetProtocol,
    faults: NetFaults,
    seed: u64,
    trials: usize,
) -> (RunReport, NetTraffic) {
    let mut cfg = NetConfig {
        groups: 2,
        horizon: HORIZON,
        ..NetConfig::default()
    };
    cfg.faults = faults;
    live_batch(topo, proto, trials, seed, &cfg, DeliveryKind::Local)
}

fn engine_report(
    topo: &Topology,
    proto: fn() -> AnyProtocol,
    model: FaultModel,
    seed: u64,
    trials: usize,
) -> gossip_sim::RunReport {
    let topo = topo.clone();
    RunPlan::new(trials, seed)
        .engine(Engine::Event)
        .start_opt(Some(0))
        .faults(model)
        .config(RunConfig::with_max_time(HORIZON))
        .execute(move || StaticNetwork::from_topology(topo.clone()), proto)
        .unwrap()
}

fn assert_ks(live: &[f64], engine: &[f64], label: &str) {
    assert!(
        ks::same_distribution(live, engine, ALPHA),
        "{label}: KS distance {} exceeds critical {} \
         (live n={} median {}, engine n={} median {})",
        ks::ks_statistic(live, engine),
        ks::ks_critical(live.len(), engine.len(), ALPHA),
        live.len(),
        live[live.len() / 2],
        engine.len(),
        engine[engine.len() / 2],
    );
}

#[test]
fn crash_recovery_matches_event_engine_on_complete() {
    let topo = Topology::complete(64).unwrap();
    let faults = NetFaults {
        crash_rate: 0.1,
        recovery_rate: 0.5,
        seed: 23,
        ..NetFaults::default()
    };
    let model = FaultModel {
        crash_rate: 0.1,
        recovery_rate: 0.5,
        seed: 23,
        ..FaultModel::default()
    };
    let (live, _) = live_report(&topo, NetProtocol::PushPull, faults, 101, TRIALS);
    assert_eq!(live.completed(), TRIALS, "recovery keeps every trial alive");
    let engine = engine_report(
        &topo,
        || AnyProtocol::event(CutRateAsync::new()),
        model,
        202,
        TRIALS,
    );
    assert_eq!(engine.completed(), TRIALS);
    assert_ks(
        live.sorted_times(),
        engine.sorted_times(),
        "crash/recovery on complete(64)",
    );
}

#[test]
fn crash_recovery_matches_event_engine_on_gnp() {
    let topo = Topology::gnp(96, 0.15, 424_242).unwrap();
    let faults = NetFaults {
        crash_rate: 0.08,
        recovery_rate: 0.6,
        seed: 31,
        ..NetFaults::default()
    };
    let model = FaultModel {
        crash_rate: 0.08,
        recovery_rate: 0.6,
        seed: 31,
        ..FaultModel::default()
    };
    let (live, _) = live_report(&topo, NetProtocol::PushPull, faults, 103, TRIALS);
    assert_eq!(live.completed(), TRIALS);
    let engine = engine_report(
        &topo,
        || AnyProtocol::event(CutRateAsync::new()),
        model,
        204,
        TRIALS,
    );
    assert_eq!(engine.completed(), TRIALS);
    assert_ks(
        live.sorted_times(),
        engine.sorted_times(),
        "crash/recovery on G(96, 0.15)",
    );
}

#[test]
fn drop_matches_event_engine_with_push_protocol() {
    let topo = Topology::complete(64).unwrap();
    let faults = NetFaults {
        drop: 0.3,
        seed: 17,
        ..NetFaults::default()
    };
    let model = FaultModel {
        drop: 0.3,
        seed: 17,
        ..FaultModel::default()
    };
    let (live, traffic) = live_report(&topo, NetProtocol::Push, faults, 105, TRIALS);
    assert_eq!(live.completed(), TRIALS);
    assert!(traffic.dropped > 0);
    let engine = engine_report(
        &topo,
        || AnyProtocol::event(AsyncPush::new()),
        model,
        206,
        TRIALS,
    );
    assert_eq!(engine.completed(), TRIALS);
    assert_ks(
        live.sorted_times(),
        engine.sorted_times(),
        "drop 0.3, push-only, complete(64)",
    );
}

#[test]
fn permanent_crash_death_rates_agree_with_engine() {
    // Unrecoverable crashes: both stacks race spread against the crash
    // clocks, and the Spread/Died split must agree within sampling noise
    // (the spread *times* of survivors are KS-compared too).
    let topo = Topology::complete(48).unwrap();
    let (crash, seed) = (0.004, 37);
    let faults = NetFaults {
        crash_rate: crash,
        seed,
        ..NetFaults::default()
    };
    let model = FaultModel {
        crash_rate: crash,
        seed,
        ..FaultModel::default()
    };
    let (live, _) = live_report(&topo, NetProtocol::PushPull, faults, 107, TRIALS);
    let engine = engine_report(
        &topo,
        || AnyProtocol::event(CutRateAsync::new()),
        model,
        208,
        TRIALS,
    );
    let live_rate = live.completed() as f64 / TRIALS as f64;
    let engine_rate = engine.completed() as f64 / TRIALS as f64;
    assert!(
        (live_rate - engine_rate).abs() < 0.12,
        "survival rates drifted: live {live_rate} vs engine {engine_rate}"
    );
    assert!(live.completed() > 0 && live.completed() < TRIALS);
    assert_ks(
        live.sorted_times(),
        engine.sorted_times(),
        "spread times of surviving trials, crash 0.05",
    );
}

/// Every live fault kind, bit-identical across {1, 2, 3} groups ×
/// {local, udp} — the acceptance criterion of the churn-tolerant
/// runtime.
#[test]
fn every_fault_kind_is_bit_identical_across_groups_and_transports() {
    let topo = Topology::gnp(48, 0.25, 77).unwrap();
    let kinds: [(&str, NetFaults); 6] = [
        (
            "drop",
            NetFaults {
                drop: 0.2,
                seed: 3,
                ..NetFaults::default()
            },
        ),
        (
            "crash+recovery",
            NetFaults {
                crash_rate: 0.2,
                recovery_rate: 1.0,
                seed: 3,
                ..NetFaults::default()
            },
        ),
        (
            "schedule",
            NetFaults {
                schedule: vec![(1, 5), (2, 11), (4, 0)],
                recovery_rate: 0.8,
                crash_rate: 1e-9,
                seed: 3,
                ..NetFaults::default()
            },
        ),
        (
            "partition",
            NetFaults {
                partition_rate: 0.4,
                seed: 3,
                ..NetFaults::default()
            },
        ),
        (
            "delay",
            NetFaults {
                delay: 0.3,
                delay_epochs: 3,
                seed: 3,
                ..NetFaults::default()
            },
        ),
        (
            "duplicate",
            NetFaults {
                duplicate: 0.25,
                seed: 3,
                ..NetFaults::default()
            },
        ),
    ];
    for (label, faults) in kinds {
        let run = |groups: usize, kind: DeliveryKind| {
            let mut cfg = NetConfig {
                groups,
                horizon: HORIZON,
                ..NetConfig::default()
            };
            cfg.faults = faults.clone();
            live_batch(&topo, NetProtocol::PushPull, 3, 55, &cfg, kind)
        };
        let (reference, reference_traffic) = run(1, DeliveryKind::Local);
        let mut configs: Vec<(usize, DeliveryKind)> = vec![
            (2, DeliveryKind::Local),
            (3, DeliveryKind::Local),
            (1, DeliveryKind::Udp),
            (2, DeliveryKind::Udp),
            (3, DeliveryKind::Udp),
        ];
        for (groups, kind) in configs.drain(..) {
            let (other, other_traffic) = run(groups, kind);
            assert_eq!(
                reference.trials(),
                other.trials(),
                "{label}: groups={groups} kind={kind:?}"
            );
            assert_eq!(
                reference.completed(),
                other.completed(),
                "{label}: groups={groups} kind={kind:?}"
            );
            assert_eq!(
                reference.events(),
                other.events(),
                "{label}: groups={groups} kind={kind:?}"
            );
            assert_eq!(
                reference_traffic.messages, other_traffic.messages,
                "{label}: groups={groups} kind={kind:?}"
            );
            assert_eq!(
                (
                    reference_traffic.dropped,
                    reference_traffic.blocked,
                    reference_traffic.duplicated
                ),
                (
                    other_traffic.dropped,
                    other_traffic.blocked,
                    other_traffic.duplicated
                ),
                "{label}: groups={groups} kind={kind:?}"
            );
            for (a, b) in reference.sorted_times().iter().zip(other.sorted_times()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{label}: groups={groups} kind={kind:?}"
                );
            }
        }
    }
}

#[test]
fn chaos_faults_slow_but_do_not_kill_spreading() {
    // Partition/delay/duplication perturb delivery without killing nodes:
    // every trial still spreads, and delay pushes spread times up.
    let topo = Topology::complete(32).unwrap();
    let (clean, _) = live_report(&topo, NetProtocol::PushPull, NetFaults::default(), 9, 40);
    let (chaotic, chaos_traffic) = live_report(
        &topo,
        NetProtocol::PushPull,
        NetFaults {
            partition_rate: 0.3,
            delay: 0.4,
            delay_epochs: 4,
            duplicate: 0.2,
            seed: 5,
            ..NetFaults::default()
        },
        9,
        40,
    );
    assert_eq!(clean.completed(), 40);
    assert_eq!(chaotic.completed(), 40, "chaos must not prevent spreading");
    assert!(chaos_traffic.blocked > 0, "partitions must cut something");
    assert!(chaos_traffic.duplicated > 0, "duplication must fire");
    assert!(
        chaotic.outcomes().spread == 40 && clean.outcomes().spread == 40
            || chaotic.median() >= clean.median() * 0.5,
        "sanity: chaos at these rates leaves spreading intact"
    );
}

#[test]
fn scheduled_crash_is_honored_and_dies_without_recovery() {
    // Crash the entire graph at window 2 with no recovery: no trial can
    // finish (spread on complete(16) takes ~log n ≈ 2.8 time units), and
    // every trial must end Died — on every transport.
    let topo = Topology::complete(16).unwrap();
    let faults = NetFaults {
        schedule: (0..16).map(|v| (2, v)).collect(),
        seed: 1,
        ..NetFaults::default()
    };
    for kind in [DeliveryKind::Local, DeliveryKind::Udp] {
        let mut cfg = NetConfig {
            groups: 2,
            horizon: f64::INFINITY,
            ..NetConfig::default()
        };
        cfg.faults = faults.clone();
        let (report, _) = live_batch(&topo, NetProtocol::PushPull, 10, 3, &cfg, kind);
        let outcomes = report.outcomes();
        assert_eq!(
            outcomes.spread + outcomes.died,
            10,
            "{kind:?}: infinite horizon leaves only Spread or Died"
        );
        assert!(
            outcomes.died > 0,
            "{kind:?}: killing everyone at t=2 must kill most trials"
        );
    }
    // Determinism across outcomes too: trial outcomes are part of the
    // bit-identity contract.
    let _ = TrialOutcome::Died;
}
