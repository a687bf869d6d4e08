//! The `RunPlan` determinism contract.
//!
//! On fixed seeds, `RunPlan::execute` must produce a `TrialSummary`
//! **bit-identical** to the legacy runner's stream — the one the
//! pre-`RunPlan` runner produced, which the window engine reproduces on
//! every backend and the event engine on closed-form ones — for 1 thread
//! and k threads, and `Engine::Auto` must sample the same spread-time
//! distribution as that stream (KS-tested on fresh seeds). On top
//! of that, the streaming sinks must reproduce the summary exactly: a
//! JSONL file parsed back line by line rebuilds the bit-identical
//! statistics.

use gossip_dynamics::{DynamicStar, StaticNetwork};
use gossip_graph::{generators, Topology};
use gossip_sim::{
    AnyProtocol, CutRateAsync, Engine, JsonlSink, RunConfig, RunPlan, SummarySink, SyncPushPull,
    TrajectorySink, TrialObserver, TrialRecord, TrialSummary,
};
use gossip_stats::ks;

fn assert_bit_identical(a: &TrialSummary, b: &TrialSummary) {
    assert_eq!(a.trials(), b.trials());
    assert_eq!(a.completed(), b.completed());
    let (ta, tb) = (a.sorted_times(), b.sorted_times());
    assert_eq!(ta.len(), tb.len());
    for (x, y) in ta.iter().zip(tb) {
        assert_eq!(x.to_bits(), y.to_bits(), "per-trial time drifted");
    }
    assert_eq!(a.mean().to_bits(), b.mean().to_bits(), "mean drifted");
    assert_eq!(a.std_dev().to_bits(), b.std_dev().to_bits(), "std drifted");
    if a.completed() > 0 {
        assert_eq!(a.median().to_bits(), b.median().to_bits());
        assert_eq!(a.max().to_bits(), b.max().to_bits());
    }
}

/// The legacy runner's stream: one trial at a time on the window engine,
/// which rebuilds its rates (a Fenwick tree, or a closed form) for every
/// exposed graph.
fn legacy_runner(trials: usize, seed: u64) -> RunPlan<'static> {
    RunPlan::new(trials, seed).threads(1).engine(Engine::Window)
}

/// `RunPlan` with `Engine::Window` replays the legacy runner's window
/// stream bit-for-bit, on 1 thread and on k threads.
#[test]
fn window_engine_bit_identical_to_legacy_runner() {
    let make = || StaticNetwork::new(generators::complete(20).unwrap());
    let legacy = legacy_runner(40, 11)
        .execute(make, || AnyProtocol::window(CutRateAsync::new()))
        .unwrap();
    for threads in [1usize, 4] {
        let plan = RunPlan::new(40, 11)
            .threads(threads)
            .engine(Engine::Window)
            .execute(make, || AnyProtocol::event(CutRateAsync::new()))
            .unwrap();
        assert_eq!(plan.engine(), Engine::Window);
        assert_bit_identical(&legacy, plan.summary());
    }
    // Window-only protocols ride the same contract.
    let legacy = legacy_runner(24, 3)
        .execute(make, || AnyProtocol::window(SyncPushPull::new()))
        .unwrap();
    for threads in [1usize, 3] {
        let plan = RunPlan::new(24, 3)
            .threads(threads)
            .execute(make, || AnyProtocol::window(SyncPushPull::new()))
            .unwrap();
        assert_eq!(plan.engine(), Engine::Window, "Auto must fall back");
        assert_bit_identical(&legacy, plan.summary());
    }
}

/// `RunPlan` with `Engine::Auto` (resolving to the event engine) replays
/// the legacy runner's stream bit-for-bit, on 1 thread and on k threads —
/// on an adaptive dynamic family and an implicit backend, where both
/// engines run the cut-rate closed form: the same gap and pool draws per
/// infection, and rates that depend only on counts.
#[test]
fn event_engine_bit_identical_to_legacy_runner() {
    let make_implicit = || StaticNetwork::from_topology(Topology::complete(64).unwrap());
    let legacy = legacy_runner(33, 99)
        .execute(make_implicit, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    for threads in [1usize, 8] {
        let plan = RunPlan::new(33, 99)
            .threads(threads)
            .execute(make_implicit, || AnyProtocol::event(CutRateAsync::new()))
            .unwrap();
        assert_eq!(plan.engine(), Engine::Event);
        assert_bit_identical(&legacy, plan.summary());
    }

    let make_star = || DynamicStar::new(31).unwrap();
    let legacy = legacy_runner(25, 7)
        .execute(make_star, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    for threads in [1usize, 5] {
        let plan = RunPlan::new(25, 7)
            .threads(threads)
            .engine(Engine::Event)
            .execute(make_star, || AnyProtocol::event(CutRateAsync::new()))
            .unwrap();
        assert_bit_identical(&legacy, plan.summary());
    }
}

/// KS equivalence: `Engine::Auto` samples the same spread-time
/// distribution as the legacy runner's stream on *independent* seeds
/// (bit-equality on shared seeds is checked above; this shows the sampled
/// law itself did not move on a materialized backend, where the event
/// engine runs the vectorized lane).
#[test]
fn auto_engine_matches_legacy_distribution() {
    let make = || StaticNetwork::new(generators::cycle(24).unwrap());
    let legacy = legacy_runner(400, 1000)
        .execute(make, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    let plan = RunPlan::new(400, 2000)
        .execute(make, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    assert!(
        ks::same_distribution(legacy.sorted_times(), plan.sorted_times(), 0.001),
        "KS = {}",
        ks::ks_statistic(legacy.sorted_times(), plan.sorted_times())
    );
}

/// JSONL round trip: serialize every record, parse each line back, refold
/// through a `SummarySink` — the rebuilt summary matches the run's own
/// summary bit-for-bit.
#[test]
fn jsonl_round_trip_rebuilds_summary_bit_for_bit() {
    let make = || StaticNetwork::new(generators::complete(16).unwrap());
    let mut sink = JsonlSink::new(Vec::new());
    let report = RunPlan::new(50, 77)
        .threads(4)
        .observer(&mut sink)
        .execute(make, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    assert_eq!(sink.records(), 50);
    let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();

    let mut rebuilt = SummarySink::new();
    for (i, line) in text.lines().enumerate() {
        let record: TrialRecord = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("line {i} failed to parse: {e}\n{line}"));
        assert_eq!(record.trial, i, "records must stream in trial order");
        rebuilt.on_trial(&record).unwrap();
    }
    assert_bit_identical(report.summary(), &rebuilt.into_summary());
}

/// The trajectory sink rides the plan: recording flips on automatically,
/// curves come back down-sampled, in trial order, ending at full
/// informedness.
#[test]
fn trajectory_sink_collects_downsampled_curves() {
    let mut sink = TrajectorySink::new(8);
    let report = RunPlan::new(6, 5)
        .threads(2)
        .observer(&mut sink)
        .execute(
            || StaticNetwork::new(generators::cycle(32).unwrap()),
            || AnyProtocol::event(CutRateAsync::new()),
        )
        .unwrap();
    assert_eq!(report.completed(), 6);
    assert_eq!(sink.curves().len(), 6);
    for (i, curve) in sink.curves().iter().enumerate() {
        assert_eq!(curve.trial, i);
        assert!(
            curve.points.len() <= 8,
            "not down-sampled: {}",
            curve.points.len()
        );
        assert!(curve.points.len() >= 2);
        assert_eq!(
            curve.points.last().unwrap().1,
            32,
            "must end fully informed"
        );
        for w in curve.points.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1, "curve not monotone");
        }
    }
}

/// Auto-enabled trajectory recording stays scoped: a JsonlSink
/// co-attached with a TrajectorySink must not receive curves (its
/// output shape cannot depend on unrelated observers), while explicit
/// plan-level recording reaches every observer.
#[test]
fn trajectory_stays_scoped_to_requesting_observers() {
    let make = || StaticNetwork::new(generators::complete(10).unwrap());
    let mut jsonl = JsonlSink::new(Vec::new());
    let mut curves = TrajectorySink::new(8);
    RunPlan::new(4, 1)
        .observer(&mut jsonl)
        .observer(&mut curves)
        .execute(make, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    assert!(curves.curves().iter().all(|c| c.points.len() >= 2));
    let text = String::from_utf8(jsonl.into_inner().unwrap()).unwrap();
    assert!(
        text.lines().all(|l| l.contains("\"trajectory\":null")),
        "{text}"
    );

    let mut jsonl = JsonlSink::new(Vec::new());
    RunPlan::new(2, 1)
        .config(RunConfig::default().recording())
        .observer(&mut jsonl)
        .execute(make, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    let text = String::from_utf8(jsonl.into_inner().unwrap()).unwrap();
    assert!(
        text.lines().all(|l| l.contains("\"trajectory\":[[")),
        "{text}"
    );
}

/// Plans are observers-last: a summary-equivalent run with zero
/// observers and one with multiple observers report identical summaries
/// (observation must never perturb the sampled process).
#[test]
fn observers_do_not_perturb_results() {
    struct Counter(usize);
    impl TrialObserver for Counter {
        fn on_trial(&mut self, _: &TrialRecord) -> Result<(), gossip_sim::SimError> {
            self.0 += 1;
            Ok(())
        }
    }
    let make = || StaticNetwork::new(generators::complete(12).unwrap());
    let bare = RunPlan::new(20, 13)
        .execute(make, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    let mut a = Counter(0);
    let mut b = JsonlSink::new(Vec::new());
    let observed = RunPlan::new(20, 13)
        .observer(&mut a)
        .observer(&mut b)
        .execute(make, || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    assert_eq!(a.0, 20);
    assert_bit_identical(bare.summary(), observed.summary());
}
