//! Workspace reuse against one trial per call.
//!
//! The [`gossip_sim::SimWorkspace`] hot path is a pure memory
//! optimization: every structure a trial checks out of the workspace is
//! reset to exactly the state a fresh allocation would have, so the RNG
//! stream is consumed identically and a `RunPlan` batch is
//! **bit-identical** to its allocation oracle: trial `i` through one
//! public `EventSimulation::run` / `Simulation::run` call on the
//! `derive(i)` stream, each with a fresh network, protocol and workspace,
//! its record handed straight to the observer.
//!
//! Enforced here per engine (event + window) × topology backend
//! (implicit, sampled, materialized) × thread count (1 inline, 4 with
//! the batched channel path), on static and dynamic (delta-repairing)
//! families, for the closed-form, vectorized-lane and stateless protocol
//! paths — plus a KS distribution check and byte-identical observer
//! streams.

use gossip_dynamics::{
    DiligentNetwork, DynamicNetwork, EdgeMarkovian, SequenceNetwork, StaticNetwork,
};
use gossip_graph::{generators, Topology};
use gossip_sim::{
    AnyProtocol, CutRateAsync, Engine, EventSimulation, FaultModel, JsonlSink, RunConfig, RunPlan,
    SimError, Simulation, SummarySink, TrajectorySink, TrialObserver, TrialRecord, TrialSummary,
    TwoPush,
};
use gossip_stats::{ks, SimRng};

fn assert_bit_identical(a: &TrialSummary, b: &TrialSummary, label: &str) {
    assert_eq!(a.trials(), b.trials(), "{label}: trial counts");
    assert_eq!(a.completed(), b.completed(), "{label}: completed counts");
    let (ta, tb) = (a.sorted_times(), b.sorted_times());
    assert_eq!(ta.len(), tb.len(), "{label}: sample counts");
    for (i, (x, y)) in ta.iter().zip(tb).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: trial time {i} drifted: {x} vs {y}"
        );
    }
    if a.completed() > 0 {
        assert_eq!(a.mean().to_bits(), b.mean().to_bits(), "{label}: mean");
        assert_eq!(
            a.std_dev().to_bits(),
            b.std_dev().to_bits(),
            "{label}: std dev"
        );
        assert_eq!(
            a.median().to_bits(),
            b.median().to_bits(),
            "{label}: median"
        );
    }
}

/// The allocation oracle: trial `i` through one `EventSimulation::run`
/// (or, on [`Engine::Window`], `Simulation::run`) call on the `derive(i)`
/// stream from the network's suggested start, each with a fresh network
/// and protocol. Records reach `observer` in trial order, with
/// trajectories recorded when it asks for them.
#[allow(clippy::too_many_arguments)]
fn per_call<N: DynamicNetwork>(
    make_net: impl Fn() -> N,
    make_proto: impl Fn() -> AnyProtocol,
    engine: Engine,
    config: RunConfig,
    faults: Option<&FaultModel>,
    trials: usize,
    seed: u64,
    observer: &mut dyn TrialObserver,
) -> Result<TrialSummary, SimError> {
    let config = if observer.wants_trajectory() {
        config.recording()
    } else {
        config
    };
    let base = SimRng::seed_from_u64(seed);
    let mut summary = SummarySink::new();
    for trial in 0..trials {
        let mut rng = base.derive(trial as u64);
        let trial_seed = rng.base_seed();
        let mut net = make_net();
        let start = net.suggested_start();
        let outcome = match engine {
            Engine::Window => Simulation::new(make_proto().into_window(), config)
                .run(&mut net, start, &mut rng)?,
            _ => {
                let protocol = make_proto().into_event().expect("an event protocol");
                let mut sim = EventSimulation::new(protocol, config);
                if let Some(m) = faults {
                    sim = sim.with_faults(m.clone());
                }
                sim.run(&mut net, start, &mut rng)?
            }
        };
        let record = TrialRecord {
            trial,
            seed: trial_seed,
            n: outcome.n(),
            spread_time: outcome.spread_time(),
            windows: outcome.windows(),
            events: outcome.events(),
            informed: outcome.informed_count(),
            outcome: outcome.outcome(),
            trajectory: config.record_trajectory.then(|| outcome.into_trajectory()),
        };
        summary.on_trial(&record)?;
        observer.on_trial(&record)?;
    }
    observer.finish()?;
    Ok(summary.into_summary())
}

fn oracle<N: DynamicNetwork>(
    make_net: impl Fn() -> N,
    make_proto: impl Fn() -> AnyProtocol,
    engine: Engine,
    trials: usize,
    seed: u64,
) -> TrialSummary {
    let config = RunConfig::with_max_time(1e4);
    per_call(
        make_net,
        make_proto,
        engine,
        config,
        None,
        trials,
        seed,
        &mut SummarySink::new(),
    )
    .expect("valid trials")
}

fn batch<N: DynamicNetwork>(
    make_net: impl Fn() -> N + Sync,
    make_proto: impl Fn() -> AnyProtocol + Sync,
    engine: Engine,
    threads: usize,
    trials: usize,
    seed: u64,
) -> TrialSummary {
    RunPlan::new(trials, seed)
        .threads(threads)
        .engine(engine)
        .config(RunConfig::with_max_time(1e4))
        .execute(make_net, make_proto)
        .expect("valid plan")
        .into_summary()
}

/// One (family, protocol) cell checked across engines and thread counts.
fn check_cell<N: DynamicNetwork>(
    label: &str,
    engines: &[Engine],
    make_net: impl Fn() -> N + Sync + Copy,
    make_proto: impl Fn() -> AnyProtocol + Sync + Copy,
) {
    for &engine in engines {
        let reference = oracle(make_net, make_proto, engine, 24, 97);
        for &threads in &[1usize, 4] {
            assert_bit_identical(
                &reference,
                &batch(make_net, make_proto, engine, threads, 24, 97),
                &format!("{label}, engine {}, {threads} thread(s)", engine.name()),
            );
        }
    }
}

const BOTH: &[Engine] = &[Engine::Event, Engine::Window];

#[test]
fn implicit_complete_closed_form_path() {
    // Implicit K_n: the ShrinkPool closed-form state.
    check_cell(
        "implicit complete",
        BOTH,
        || StaticNetwork::from_topology(Topology::complete(64).unwrap()),
        || AnyProtocol::event(CutRateAsync::new()),
    );
}

#[test]
fn implicit_star_closed_form_path() {
    check_cell(
        "implicit star",
        BOTH,
        || StaticNetwork::from_topology(Topology::star(40, 0).unwrap()),
        || AnyProtocol::event(CutRateAsync::new()),
    );
}

#[test]
fn sampled_gnp_lane_path() {
    // Sampled G(n, p): its CSR, realized on first touch, drives the event
    // engine's vectorized lane (and the window engine's Fenwick tree),
    // rebuilt per trial in the protocol's retained storage.
    check_cell(
        "sampled gnp",
        BOTH,
        || StaticNetwork::from_topology(Topology::gnp(60, 0.15, 7).unwrap()),
        || AnyProtocol::event(CutRateAsync::new()),
    );
}

#[test]
fn materialized_circulant_lane_path() {
    check_cell(
        "materialized circulant",
        BOTH,
        || StaticNetwork::new(generators::regular_circulant(48, 6).unwrap()),
        || AnyProtocol::event(CutRateAsync::new()),
    );
}

#[test]
fn dynamic_sequence_delta_repair_path() {
    // Alternating path/cycle reports a delta at every boundary: the
    // apply_delta scratch (the workspace's repair marks) runs every
    // window.
    check_cell(
        "sequence network",
        BOTH,
        || {
            SequenceNetwork::cycling(vec![
                generators::path(24).unwrap(),
                generators::cycle(24).unwrap(),
            ])
            .unwrap()
        },
        || AnyProtocol::event(CutRateAsync::new()),
    );
}

#[test]
fn vectorized_dynamic_families_bit_identical() {
    // The vectorized lane across deltas: repaired in place on sparse ones
    // and rebuilt on dense ones (edge-Markovian churn), repaired after
    // every re-stitch (G(n, rho)). The batch at 1 and 4 threads equals
    // one call per trial.
    fn check<N: DynamicNetwork>(label: &str, make_net: impl Fn() -> N + Sync + Copy) {
        let make_proto = || AnyProtocol::event(CutRateAsync::new());
        let reference = oracle(make_net, make_proto, Engine::Event, 24, 97);
        assert!(reference.completed() > 0, "{label}: nothing completed");
        for threads in [1, 4] {
            assert_bit_identical(
                &reference,
                &batch(make_net, make_proto, Engine::Event, threads, 24, 97),
                &format!("{label}, {threads} thread(s)"),
            );
        }
    }
    check("edge-Markovian", || {
        let mut rng = gossip_stats::SimRng::seed_from_u64(43);
        let initial = generators::erdos_renyi(96, 0.02, &mut rng).unwrap();
        EdgeMarkovian::new(initial, 0.02, 0.2).unwrap()
    });
    check("G(160, 0.25)", || DiligentNetwork::new(160, 0.25).unwrap());
}

#[test]
fn lossy_downtime_state_reuse() {
    // `lossy`'s regime (loss plus per-window downtime) vetoes events
    // through the fault layer while the protocol state is reused; the
    // per-window down-set draws must stay aligned. Event engine only:
    // the window engine has no fault layer.
    let model = FaultModel {
        drop: 0.1,
        downtime: 0.3,
        ..FaultModel::default()
    };
    let make_net = || StaticNetwork::new(generators::cycle(20).unwrap());
    let make_proto = || AnyProtocol::event(CutRateAsync::new());
    let reference = per_call(
        make_net,
        make_proto,
        Engine::Event,
        RunConfig::with_max_time(1e4),
        Some(&model),
        24,
        97,
        &mut SummarySink::new(),
    )
    .expect("valid faulty trials");
    assert!(
        reference.completed() > 0,
        "nothing completed under downtime"
    );
    for threads in [1usize, 4] {
        let batch = RunPlan::new(24, 97)
            .threads(threads)
            .engine(Engine::Event)
            .faults(model.clone())
            .config(RunConfig::with_max_time(1e4))
            .execute(make_net, make_proto)
            .expect("valid faulty plan")
            .into_summary();
        assert_bit_identical(
            &reference,
            &batch,
            &format!("lossy with downtime, {threads} thread(s)"),
        );
    }
}

#[test]
fn stateless_two_push_protocol() {
    check_cell(
        "two-push",
        BOTH,
        || StaticNetwork::new(generators::regular_circulant(30, 4).unwrap()),
        || AnyProtocol::event(TwoPush::new()),
    );
}

#[test]
fn window_only_protocol_on_window_engine() {
    check_cell(
        "sync push-pull (window only)",
        &[Engine::Window],
        || StaticNetwork::from_topology(Topology::complete(32).unwrap()),
        || AnyProtocol::window(gossip_sim::SyncPushPull::new()),
    );
}

#[test]
fn ks_distribution_check_on_complete_family() {
    // Beyond bit-identity under equal seeds: with *different* seeds the
    // two paths must still sample the same spread-time distribution.
    let make_net = || StaticNetwork::from_topology(Topology::complete(48).unwrap());
    let make_proto = || AnyProtocol::event(CutRateAsync::new());
    let single = oracle(make_net, make_proto, Engine::Event, 700, 1000);
    let reused = batch(make_net, make_proto, Engine::Event, 1, 700, 2000);
    assert!(
        ks::same_distribution(single.sorted_times(), reused.sorted_times(), 0.01),
        "KS = {}",
        ks::ks_statistic(single.sorted_times(), reused.sorted_times())
    );
}

#[test]
fn observer_streams_byte_identical() {
    // The full observer contract: a JSONL sink fed by the batched
    // workspace path must produce byte-for-byte the stream of one call
    // per trial, for 1 and 4 threads.
    let make_net = || StaticNetwork::from_topology(Topology::complete(32).unwrap());
    let make_proto = || AnyProtocol::event(CutRateAsync::new());
    let mut sink = JsonlSink::new(Vec::new());
    per_call(
        make_net,
        make_proto,
        Engine::Event,
        RunConfig::default(),
        None,
        40,
        11,
        &mut sink,
    )
    .expect("valid trials");
    let reference = sink.into_inner().expect("flush");
    assert!(!reference.is_empty());
    for threads in [1, 4] {
        let mut sink = JsonlSink::new(Vec::new());
        RunPlan::new(40, 11)
            .threads(threads)
            .observer(&mut sink)
            .execute(make_net, make_proto)
            .expect("valid plan");
        assert_eq!(
            sink.into_inner().expect("flush"),
            reference,
            "stream drifted ({threads} thread(s))"
        );
    }
}

#[test]
fn trajectory_recycling_keeps_curves_identical() {
    // Trajectory recording ships the recorded buffer inside the record;
    // the inline path recycles it back into the workspace afterwards.
    // Curves must match one call per trial exactly.
    let make_net = || StaticNetwork::new(generators::cycle(24).unwrap());
    let make_proto = || AnyProtocol::event(CutRateAsync::new());
    let mut sink = TrajectorySink::new(16);
    per_call(
        make_net,
        make_proto,
        Engine::Event,
        RunConfig::default(),
        None,
        12,
        5,
        &mut sink,
    )
    .expect("valid trials");
    let reference = sink.into_curves();
    assert_eq!(reference.len(), 12);
    for threads in [1, 4] {
        let mut sink = TrajectorySink::new(16);
        RunPlan::new(12, 5)
            .threads(threads)
            .observer(&mut sink)
            .execute(make_net, make_proto)
            .expect("valid plan");
        assert_eq!(
            sink.into_curves(),
            reference,
            "curves drifted ({threads} thread(s))"
        );
    }
}

#[test]
fn errors_propagate_identically_on_both_paths() {
    let make_net = || StaticNetwork::new(generators::path(3).unwrap());
    let make_proto = || AnyProtocol::event(CutRateAsync::new());
    let single = EventSimulation::new(make_proto().into_event().unwrap(), RunConfig::default())
        .run(&mut make_net(), 99, &mut SimRng::seed_from_u64(1))
        .unwrap_err();
    let batched = RunPlan::new(8, 1)
        .threads(3)
        .start(99)
        .execute(make_net, make_proto)
        .unwrap_err();
    for err in [single, batched] {
        assert!(
            matches!(err, SimError::StartOutOfRange { start: 99, n: 3 }),
            "unexpected error {err:?}"
        );
    }
}

#[test]
fn workspace_survives_heterogeneous_backends_in_one_worker() {
    // One worker's workspace and protocol must hand storage back and
    // forth between the closed-form (ShrinkPool) and lane rate states
    // without corrupting either: a schedule alternating the *implicit*
    // complete backend with a materialized circulant forces the state
    // switch at every window boundary, so pools are parked in and
    // checked out of the same workspace repeatedly within one trial.
    let make_net = || {
        SequenceNetwork::cycling_topologies(vec![
            Topology::complete(18).unwrap(),
            Topology::materialized(generators::regular_circulant(18, 4).unwrap()),
        ])
        .unwrap()
    };
    let make_proto = || AnyProtocol::event(CutRateAsync::new());
    let reference = oracle(make_net, make_proto, Engine::Event, 30, 33);
    for threads in [1usize, 4] {
        assert_bit_identical(
            &reference,
            &batch(make_net, make_proto, Engine::Event, threads, 30, 33),
            &format!("mixed backends, {threads} thr"),
        );
    }
}
