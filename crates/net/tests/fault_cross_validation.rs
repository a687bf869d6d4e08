//! Live runtime vs analytic event engine **under one fault model**, plus
//! the determinism contract for every live fault kind.
//!
//! Both stacks run the same `gossip_sim::FaultModel` with the same keyed
//! `Liveness` machine: for a given fault seed and trial seed every node
//! is up or down in the same windows in both, which
//! `both_stacks_see_the_same_liveness` checks node by node. What still
//! differs is the contact process (the engine's sequential event sampler
//! against per-node keyed activation chains) and the drop coin (the
//! engine's sequential fault stream against a keyed per-envelope coin), so
//! the spread-time contract between them is *distributional* (KS, α =
//! 0.01), exactly the contract the window engine and the event engine's
//! vectorized lane share. Within the live stack, the contract is stricter: bit-identical
//! results across group counts {1, 2, 3} and transports {local, udp} for
//! every fault kind (crash/recovery, schedule, partition, delay,
//! duplication), which is the acceptance criterion of the churn-tolerant
//! runtime.
//!
//! Protocol note: under drop faults the live push–pull *pull* costs two
//! envelopes (request + reply), each dropped independently — a (1 − q)²
//! success rate where the engine's in-memory pull pays one (1 − q) veto.
//! The drop KS therefore runs the push-only protocol, whose single
//! envelope per contact is loss-isomorphic between the stacks;
//! crash/recovery KS (at drop = 0) runs full push–pull.

use gossip_dynamics::StaticNetwork;
use gossip_graph::Topology;
use gossip_net::{DeliveryKind, NetConfig, NetExecutor, NetProtocol, NetTraffic, Router};
use gossip_sim::{
    AnyProtocol, AsyncPush, CutRateAsync, Engine, FaultModel, Liveness, RunConfig, RunPlan,
    RunReport, SimError, TrialObserver, TrialOutcome, TrialRecord,
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
    faults: FaultModel,
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
    let model = FaultModel {
        crash_rate: 0.1,
        recovery_rate: 0.5,
        seed: 23,
        ..FaultModel::default()
    };
    let (live, _) = live_report(&topo, NetProtocol::PushPull, model.clone(), 101, TRIALS);
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
    let model = FaultModel {
        crash_rate: 0.08,
        recovery_rate: 0.6,
        seed: 31,
        ..FaultModel::default()
    };
    let (live, _) = live_report(&topo, NetProtocol::PushPull, model.clone(), 103, TRIALS);
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
    let model = FaultModel {
        drop: 0.3,
        seed: 17,
        ..FaultModel::default()
    };
    let (live, traffic) = live_report(&topo, NetProtocol::Push, model.clone(), 105, TRIALS);
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
    let model = FaultModel {
        crash_rate: crash,
        seed,
        ..FaultModel::default()
    };
    let (live, _) = live_report(&topo, NetProtocol::PushPull, model.clone(), 107, TRIALS);
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

/// Collects each trial's seed: the value both stacks hand to the fault
/// layer.
struct Seeds(Vec<u64>);

impl TrialObserver for Seeds {
    fn on_trial(&mut self, r: &TrialRecord) -> Result<(), SimError> {
        self.0.push(r.seed);
        Ok(())
    }
}

/// One liveness machine in both stacks: for the same model and trial
/// seed, the analytic `FaultState`'s down set after `begin_window(t)` is
/// the live machines' state at window `t`, for every node and window and
/// however the live nodes are split into groups.
#[test]
fn both_stacks_see_the_same_liveness() {
    let n = 24;
    let topo = Topology::complete(n).unwrap();
    let regimes = [
        FaultModel {
            crash_rate: 0.3,
            recovery_rate: 0.4,
            schedule: vec![(2, 5)],
            seed: 9,
            ..FaultModel::default()
        },
        FaultModel {
            downtime: 0.3,
            ..FaultModel::default()
        },
    ];
    let mut seeds = Seeds(Vec::new());
    let analytic = RunPlan::new(8, 77)
        .faults(regimes[1].clone())
        .observer(&mut seeds)
        .execute(
            || StaticNetwork::from_topology(topo.clone()),
            || AnyProtocol::event(CutRateAsync::new()),
        )
        .unwrap();
    assert_eq!(seeds.0.len(), 8);
    for model in &regimes {
        for &seed in &seeds.0 {
            for groups in 1..=3 {
                let router = Router::new(n, groups);
                let mut state = model.state_for_trial(n, seed);
                let mut live: Vec<Liveness> = (0..router.groups())
                    .map(|g| Liveness::new(model, seed, router.range(g)))
                    .collect();
                let mut downs = 0;
                for t in 0..40 {
                    state.begin_window(&topo, t);
                    for v in 0..n as u32 {
                        let g = router.group_of(v);
                        let li = (v - router.range(g).start) as usize;
                        let up = live[g].advance(li, t);
                        assert_eq!(
                            state.is_down(v),
                            !up,
                            "{model:?}: seed {seed}, {groups} groups, node {v}, window {t}"
                        );
                        downs += usize::from(!up);
                    }
                }
                assert!(downs > 0, "{model:?}: some node must go down");
            }
        }
    }
    // Downtime always recovers: a downtime trial never ends Died, in
    // either stack.
    assert_eq!((analytic.completed(), analytic.died()), (8, 0));
    let (live, _) = live_report(&topo, NetProtocol::PushPull, regimes[1].clone(), 77, 8);
    assert_eq!((live.completed(), live.died()), (8, 0));
}

/// Every live fault kind, bit-identical across {1, 2, 3} groups ×
/// {local, udp} — the acceptance criterion of the churn-tolerant
/// runtime.
#[test]
fn every_fault_kind_is_bit_identical_across_groups_and_transports() {
    let topo = Topology::gnp(48, 0.25, 77).unwrap();
    let kinds: [(&str, FaultModel); 6] = [
        (
            "drop",
            FaultModel {
                drop: 0.2,
                seed: 3,
                ..FaultModel::default()
            },
        ),
        (
            "crash+recovery",
            FaultModel {
                crash_rate: 0.2,
                recovery_rate: 1.0,
                seed: 3,
                ..FaultModel::default()
            },
        ),
        (
            "schedule",
            FaultModel {
                schedule: vec![(1, 5), (2, 11), (4, 0)],
                recovery_rate: 0.8,
                crash_rate: 1e-9,
                seed: 3,
                ..FaultModel::default()
            },
        ),
        (
            "partition",
            FaultModel {
                partition_rate: 0.4,
                seed: 3,
                ..FaultModel::default()
            },
        ),
        (
            "delay",
            FaultModel {
                delay: 0.3,
                delay_epochs: 3,
                seed: 3,
                ..FaultModel::default()
            },
        ),
        (
            "duplicate",
            FaultModel {
                duplicate: 0.25,
                seed: 3,
                ..FaultModel::default()
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
    let (clean, _) = live_report(&topo, NetProtocol::PushPull, FaultModel::default(), 9, 40);
    let (chaotic, chaos_traffic) = live_report(
        &topo,
        NetProtocol::PushPull,
        FaultModel {
            partition_rate: 0.3,
            delay: 0.4,
            delay_epochs: 4,
            duplicate: 0.2,
            seed: 5,
            ..FaultModel::default()
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
    let faults = FaultModel {
        schedule: (0..16).map(|v| (2, v)).collect(),
        seed: 1,
        ..FaultModel::default()
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
