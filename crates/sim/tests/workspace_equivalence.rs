//! Workspace-reuse vs fresh-allocation equivalence.
//!
//! The [`gossip_sim::SimWorkspace`] hot path is a pure memory
//! optimization: every structure a trial checks out of the workspace is
//! reset to exactly the state a fresh allocation would have, so the RNG
//! stream is consumed identically and results are **bit-identical** to
//! the fresh-allocation reference path (`RunPlan::workspace(false)`,
//! which replays the pre-workspace driver: per-trial allocation and
//! per-trial record delivery).
//!
//! Enforced here per engine (event + window) × topology backend
//! (implicit, sampled, materialized) × thread count (1 inline, 4 with
//! the batched channel path), on static and dynamic (delta-repairing)
//! families, for the closed-form, Fenwick, and stateless protocol
//! paths — plus a KS distribution check and byte-identical observer
//! streams.

use gossip_dynamics::{
    DiligentNetwork, DynamicNetwork, EdgeMarkovian, SequenceNetwork, StaticNetwork,
};
use gossip_graph::{generators, Topology};
use gossip_sim::{
    AnyProtocol, CutRateAsync, Engine, FaultModel, JsonlSink, RunConfig, RunPlan, TrajectorySink,
    TrialSummary, TwoPush,
};
use gossip_stats::ks;

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

fn summarize<N: DynamicNetwork>(
    make_net: impl Fn() -> N + Sync,
    make_proto: impl Fn() -> AnyProtocol + Sync,
    engine: Engine,
    threads: usize,
    reuse: bool,
    trials: usize,
    seed: u64,
) -> TrialSummary {
    RunPlan::new(trials, seed)
        .threads(threads)
        .engine(engine)
        .workspace(reuse)
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
        for &threads in &[1usize, 4] {
            let fresh = summarize(make_net, make_proto, engine, threads, false, 24, 97);
            let reused = summarize(make_net, make_proto, engine, threads, true, 24, 97);
            assert_bit_identical(
                &fresh,
                &reused,
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
fn sampled_gnp_fenwick_path() {
    // Sampled G(n, p): lazy rows drive the Fenwick state; the workspace
    // recycles the tree across trials via rebuild_into.
    check_cell(
        "sampled gnp",
        BOTH,
        || StaticNetwork::from_topology(Topology::gnp(60, 0.15, 7).unwrap()),
        || AnyProtocol::event(CutRateAsync::new()),
    );
}

#[test]
fn materialized_circulant_fenwick_path() {
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
    // apply_delta scratch (workspace `stale` buffer) runs every window.
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

/// One vectorized event-engine batch of the cut-rate protocol.
fn vectorized_summary<N: DynamicNetwork>(
    make_net: impl Fn() -> N + Sync,
    threads: usize,
    reuse: bool,
) -> TrialSummary {
    RunPlan::new(24, 97)
        .threads(threads)
        .engine(Engine::Event)
        .vectorized(true)
        .workspace(reuse)
        .config(RunConfig::with_max_time(1e4))
        .execute(make_net, || AnyProtocol::event(CutRateAsync::new()))
        .expect("valid plan")
        .into_summary()
}

#[test]
fn vectorized_dynamic_families_bit_identical() {
    // The vectorized lane across deltas: repaired in place on sparse ones
    // and rebuilt on dense ones (edge-Markovian churn), repaired after
    // every re-stitch (G(n, rho)). Identical at 1 and 4 threads, with
    // workspace reuse on and off.
    fn check<N: DynamicNetwork>(label: &str, make_net: impl Fn() -> N + Sync + Copy) {
        let reference = vectorized_summary(make_net, 1, false);
        assert!(reference.completed() > 0, "{label}: nothing completed");
        for (threads, reuse) in [(1, true), (4, false), (4, true)] {
            assert_bit_identical(
                &reference,
                &vectorized_summary(make_net, threads, reuse),
                &format!("{label}, {threads} thread(s), workspace reuse {reuse}"),
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
    // through the fault layer while the Fenwick path reuses its workspace;
    // the per-window down-set draws must stay aligned. Event engine only:
    // the window engine has no fault layer.
    let model = FaultModel {
        drop: 0.1,
        downtime: 0.3,
        ..FaultModel::default()
    };
    let run = |threads: usize, reuse: bool| {
        RunPlan::new(24, 97)
            .threads(threads)
            .engine(Engine::Event)
            .workspace(reuse)
            .faults(model.clone())
            .config(RunConfig::with_max_time(1e4))
            .execute(
                || StaticNetwork::new(generators::cycle(20).unwrap()),
                || AnyProtocol::event(CutRateAsync::new()),
            )
            .expect("valid faulty plan")
            .into_summary()
    };
    for threads in [1usize, 4] {
        let fresh = run(threads, false);
        assert!(fresh.completed() > 0, "nothing completed under downtime");
        assert_bit_identical(
            &fresh,
            &run(threads, true),
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
    let fresh = summarize(make_net, make_proto, Engine::Event, 1, false, 700, 1000);
    let reused = summarize(make_net, make_proto, Engine::Event, 1, true, 700, 2000);
    assert!(
        ks::same_distribution(fresh.sorted_times(), reused.sorted_times(), 0.01),
        "KS = {}",
        ks::ks_statistic(fresh.sorted_times(), reused.sorted_times())
    );
}

#[test]
fn observer_streams_byte_identical() {
    // The full observer contract: a JSONL sink fed by the batched
    // workspace path must produce byte-for-byte the stream the per-trial
    // fresh path produced, for 1 and 4 threads.
    let stream = |reuse: bool, threads: usize| -> Vec<u8> {
        let mut sink = JsonlSink::new(Vec::new());
        RunPlan::new(40, 11)
            .threads(threads)
            .workspace(reuse)
            .observer(&mut sink)
            .execute(
                || StaticNetwork::from_topology(Topology::complete(32).unwrap()),
                || AnyProtocol::event(CutRateAsync::new()),
            )
            .expect("valid plan");
        sink.into_inner().expect("flush")
    };
    let reference = stream(false, 1);
    assert!(!reference.is_empty());
    for (reuse, threads) in [(false, 4), (true, 1), (true, 4)] {
        assert_eq!(
            stream(reuse, threads),
            reference,
            "stream drifted (reuse {reuse}, {threads} thread(s))"
        );
    }
}

#[test]
fn trajectory_recycling_keeps_curves_identical() {
    // Trajectory recording ships the recorded buffer inside the record;
    // the inline path recycles it back into the workspace afterwards.
    // Curves must match the fresh path exactly in either mode.
    let curves = |reuse: bool, threads: usize| {
        let mut sink = TrajectorySink::new(16);
        RunPlan::new(12, 5)
            .threads(threads)
            .workspace(reuse)
            .observer(&mut sink)
            .execute(
                || StaticNetwork::new(generators::cycle(24).unwrap()),
                || AnyProtocol::event(CutRateAsync::new()),
            )
            .expect("valid plan");
        sink.into_curves()
    };
    let reference = curves(false, 1);
    assert_eq!(reference.len(), 12);
    for (reuse, threads) in [(true, 1), (true, 4)] {
        assert_eq!(
            curves(reuse, threads),
            reference,
            "curves drifted (reuse {reuse}, {threads} thread(s))"
        );
    }
}

#[test]
fn errors_propagate_identically_on_both_paths() {
    for reuse in [false, true] {
        let err = RunPlan::new(8, 1)
            .threads(3)
            .workspace(reuse)
            .start(99)
            .execute(
                || StaticNetwork::new(generators::path(3).unwrap()),
                || AnyProtocol::event(CutRateAsync::new()),
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                gossip_sim::SimError::StartOutOfRange { start: 99, n: 3 }
            ),
            "reuse {reuse}: unexpected error {err:?}"
        );
    }
}

#[test]
fn workspace_survives_heterogeneous_backends_in_one_worker() {
    // One worker's workspace must hand storage back and forth between
    // the closed-form (ShrinkPool) and Fenwick rate states without
    // corrupting either: a schedule alternating the *implicit* complete
    // backend with a materialized circulant forces the state switch at
    // every window boundary, so pools and the tree are parked in and
    // checked out of the same workspace repeatedly within one trial.
    let make_net = || {
        SequenceNetwork::cycling_topologies(vec![
            Topology::complete(18).unwrap(),
            Topology::materialized(generators::regular_circulant(18, 4).unwrap()),
        ])
        .unwrap()
    };
    let make_proto = || AnyProtocol::event(CutRateAsync::new());
    for threads in [1usize, 4] {
        let fresh = summarize(make_net, make_proto, Engine::Event, threads, false, 30, 33);
        let reused = summarize(make_net, make_proto, Engine::Event, threads, true, 30, 33);
        assert_bit_identical(&fresh, &reused, &format!("mixed backends, {threads} thr"));
    }
}
