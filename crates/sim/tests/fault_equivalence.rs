//! Fault-injection equivalence and isolation guarantees.
//!
//! The fault layer ([`gossip_sim::FaultModel`]) must perturb the
//! *process*, never the machinery around it. These tests pin the
//! contract from every side:
//!
//! * **Determinism** — an active fault model (crash/recovery with drop,
//!   or per-window downtime with drop) is bit-identical by
//!   `(model, base_seed)` across thread counts and against one
//!   `EventSimulation::run` call per trial, for both the naive and the
//!   cut-rate event protocols;
//! * **KS-equivalence** (α = 0.01) — naive vs cut-rate protocols, on the
//!   closed-form `K_n` state and on the vectorized lane of a materialized
//!   `G(n, p)`, sample the same faulty spread-time distribution under
//!   both regimes;
//! * **Panic isolation** — a trial that panics is quarantined and
//!   reported as a [`gossip_sim::TrialError`] while every other trial's
//!   record stays byte-identical to an undisturbed run;
//! * **Outcome accounting** — the event-budget watchdog reports
//!   [`TrialOutcome::Budget`] and a permanently crashed frontier
//!   reports [`TrialOutcome::Died`], both with `spread_time = None`.

use gossip_dynamics::{DynamicNetwork, StaticNetwork};
use gossip_graph::{generators, NodeId, NodeSet, Topology};
use gossip_sim::{
    AnyProtocol, AsyncPushPull, CutRateAsync, Engine, EventSimulation, FaultModel, FaultState,
    IncrementalProtocol, JsonlSink, Protocol, RunConfig, RunPlan, RunReport, SimWorkspace,
    SummarySink, TrialObserver, TrialOutcome, TrialRecord, TrialSummary, WindowCtx, WindowStep,
};
use gossip_stats::{ks, SimRng};

const ALPHA: f64 = 0.01;

fn complete(n: usize) -> impl Fn() -> StaticNetwork + Sync + Copy {
    move || StaticNetwork::from_topology(Topology::complete(n).unwrap())
}

fn gnp(n: usize, p: f64, seed: u64) -> impl Fn() -> StaticNetwork + Sync + Copy {
    move || {
        let g = generators::erdos_renyi(n, p, &mut SimRng::seed_from_u64(seed)).unwrap();
        StaticNetwork::from_topology(Topology::from(g))
    }
}

fn lossy_model() -> FaultModel {
    FaultModel {
        drop: 0.2,
        crash_rate: 0.05,
        recovery_rate: 0.4,
        seed: 11,
        ..FaultModel::default()
    }
}

/// `kind = "lossy"`'s regime: i.i.d. loss plus per-window downtime.
fn downtime_model() -> FaultModel {
    FaultModel {
        drop: 0.1,
        downtime: 0.3,
        seed: 11,
        ..FaultModel::default()
    }
}

/// Runs a faulty plan and returns `(summary, observer bytes)` so callers
/// can compare both the statistics and the exact record stream.
fn run_faulty(
    make_net: impl Fn() -> StaticNetwork + Sync,
    make_proto: impl Fn() -> AnyProtocol + Sync,
    model: &FaultModel,
    threads: usize,
    trials: usize,
    seed: u64,
) -> (TrialSummary, Vec<u8>) {
    let mut sink = JsonlSink::new(Vec::new());
    let report = RunPlan::new(trials, seed)
        .engine(Engine::Event)
        .threads(threads)
        .faults(model.clone())
        .config(RunConfig::with_max_time(1e4))
        .observer(&mut sink)
        .execute(make_net, make_proto)
        .expect("valid faulty plan");
    assert!(report.trial_errors().is_empty());
    let bytes = sink.into_inner().expect("Vec sink never fails");
    (report.into_summary(), bytes)
}

/// [`run_faulty`]'s allocation oracle: trial `i` through one
/// `EventSimulation::run` call on the `derive(i)` stream, each with a
/// fresh network, protocol and workspace.
fn run_faulty_per_call(
    make_net: impl Fn() -> StaticNetwork,
    make_proto: impl Fn() -> AnyProtocol,
    model: &FaultModel,
    trials: usize,
    seed: u64,
) -> (TrialSummary, Vec<u8>) {
    let base = SimRng::seed_from_u64(seed);
    let mut summary = SummarySink::new();
    let mut sink = JsonlSink::new(Vec::new());
    for trial in 0..trials {
        let mut rng = base.derive(trial as u64);
        let trial_seed = rng.base_seed();
        let mut net = make_net();
        let start = net.suggested_start();
        let protocol = make_proto().into_event().expect("an event protocol");
        let outcome = EventSimulation::new(protocol, RunConfig::with_max_time(1e4))
            .with_faults(model.clone())
            .run(&mut net, start, &mut rng)
            .expect("valid faulty trial");
        let record = TrialRecord {
            trial,
            seed: trial_seed,
            n: outcome.n(),
            spread_time: outcome.spread_time(),
            windows: outcome.windows(),
            events: outcome.events(),
            informed: outcome.informed_count(),
            outcome: outcome.outcome(),
            trajectory: None,
        };
        summary
            .on_trial(&record)
            .expect("summary sink is infallible");
        sink.on_trial(&record).expect("Vec sink never fails");
    }
    let bytes = sink.into_inner().expect("Vec sink never fails");
    (summary.into_summary(), bytes)
}

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
}

#[test]
fn faulty_trials_bit_identical_across_threads_and_workspace() {
    // Same (model, seed) → same records, whatever the parallelism, and
    // the same as one call per trial on fresh storage. Checked on both
    // event protocol families, under crash/recovery and under downtime.
    for (label, make_proto, model) in [
        (
            "cut-rate",
            (|| AnyProtocol::event(CutRateAsync::new())) as fn() -> AnyProtocol,
            lossy_model(),
        ),
        (
            "naive",
            || AnyProtocol::event(AsyncPushPull::new()),
            lossy_model(),
        ),
        (
            "cut-rate, downtime",
            || AnyProtocol::event(CutRateAsync::new()),
            downtime_model(),
        ),
        (
            "naive, downtime",
            || AnyProtocol::event(AsyncPushPull::new()),
            downtime_model(),
        ),
    ] {
        let (ref_summary, ref_bytes) =
            run_faulty_per_call(complete(48), make_proto, &model, 24, 71);
        assert!(ref_summary.completed() > 0, "{label}: nothing completed");
        for threads in [1usize, 4] {
            let (summary, bytes) = run_faulty(complete(48), make_proto, &model, threads, 24, 71);
            assert_bit_identical(
                &ref_summary,
                &summary,
                &format!("{label}, {threads} thread(s)"),
            );
            assert_eq!(
                ref_bytes, bytes,
                "{label}, {threads} thread(s): record streams drifted"
            );
        }
    }
}

#[test]
fn inactive_fault_model_is_invisible() {
    // An attached-but-all-zero model must not consume a single draw of
    // the trial stream: results are bit-identical to no model at all.
    let (plain, plain_bytes) = run_faulty(
        complete(32),
        || AnyProtocol::event(CutRateAsync::new()),
        &FaultModel::default(),
        1,
        16,
        5,
    );
    let mut sink = JsonlSink::new(Vec::new());
    let report = RunPlan::new(16, 5)
        .engine(Engine::Event)
        .config(RunConfig::with_max_time(1e4))
        .observer(&mut sink)
        .execute(complete(32), || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    assert_bit_identical(&plain, report.summary(), "inactive model");
    assert_eq!(plain_bytes, sink.into_inner().unwrap());
}

#[test]
fn naive_vs_cut_rate_ks_equivalent_under_faults() {
    // Two independent implementations of the faulty push-pull process
    // (per-node clocks vs superposed cut-rate clock) must agree in
    // distribution under the same fault model — for downtime this is the
    // check that `lossy` on the cut-rate sampler is the naive process.
    // Implicit K_48 runs the cut-rate closed form; the materialized
    // G(64, 0.2) runs the vectorized lane, whose fault veto lives in its
    // own event loop.
    fn check(label: &str, make_net: impl Fn() -> StaticNetwork + Sync + Copy) {
        for model in [lossy_model(), downtime_model()] {
            let naive = || AnyProtocol::event(AsyncPushPull::new());
            let cut_rate = || AnyProtocol::event(CutRateAsync::new());
            let (naive, _) = run_faulty(make_net, naive, &model, 4, 400, 31);
            let (cut, _) = run_faulty(make_net, cut_rate, &model, 4, 400, 37);
            let (a, b) = (naive.sorted_times(), cut.sorted_times());
            assert!(
                ks::same_distribution(a, b, ALPHA),
                "{label}, {model:?}: KS distance {} exceeds critical {}",
                ks::ks_statistic(a, b),
                ks::ks_critical(a.len(), b.len(), ALPHA)
            );
        }
    }
    check("K_48", complete(48));
    check("G(64, 0.2)", gnp(64, 0.2, 9));
}

/// Delegates every hook to an inner [`CutRateAsync`], `drive_window`
/// included (the lane state is advanced by that loop alone), but panics on
/// entering the first window of any trial whose derived seed is in
/// `panic_seeds` — deterministic for every thread count, since trial `i`
/// always runs on the stream of `base.derive(i)`.
#[derive(Debug)]
struct PanicInjected {
    inner: CutRateAsync,
    panic_seeds: Vec<u64>,
}

impl PanicInjected {
    fn new(panic_seeds: Vec<u64>) -> Self {
        PanicInjected {
            inner: CutRateAsync::new(),
            panic_seeds,
        }
    }
}

impl Protocol for PanicInjected {
    fn name(&self) -> &'static str {
        "panic-injected async"
    }

    fn begin(&mut self, n: usize) {
        self.inner.begin(n);
    }

    fn advance_window(
        &mut self,
        g: &Topology,
        t: u64,
        informed: &mut NodeSet,
        rng: &mut SimRng,
    ) -> Option<f64> {
        self.inner.advance_window(g, t, informed, rng)
    }
}

impl IncrementalProtocol for PanicInjected {
    fn begin_in(&mut self, n: usize, ws: &mut SimWorkspace) {
        self.inner.begin_in(n, ws);
    }

    fn rebuild(&mut self, g: &Topology, informed: &NodeSet, ws: &mut SimWorkspace) {
        self.inner.rebuild(g, informed, ws);
    }

    fn event_rate(&self, g: &Topology, informed: &NodeSet) -> f64 {
        self.inner.event_rate(g, informed)
    }

    fn resolve_event(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
    ) -> Option<NodeId> {
        self.inner.resolve_event(g, informed, rng)
    }

    fn resolve_event_faulty(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
        faults: &mut FaultState,
    ) -> Option<NodeId> {
        self.inner.resolve_event_faulty(g, informed, rng, faults)
    }

    fn commit(&mut self, g: &Topology, v: NodeId, informed: &NodeSet) {
        self.inner.commit(g, v, informed);
    }

    fn drive_window(
        &mut self,
        g: &Topology,
        t: u64,
        informed: &mut NodeSet,
        rng: &mut SimRng,
        ctx: WindowCtx<'_>,
    ) -> WindowStep {
        if self.panic_seeds.contains(&rng.base_seed()) {
            panic!("injected test panic (trial seed {})", rng.base_seed());
        }
        self.inner.drive_window(g, t, informed, rng, ctx)
    }
}

fn run_with_panics(
    net: impl Fn() -> StaticNetwork + Sync,
    panic_trials: &[usize],
    threads: usize,
    trials: usize,
    seed: u64,
) -> (RunReport, Vec<String>) {
    let base = SimRng::seed_from_u64(seed);
    let seeds: Vec<u64> = panic_trials
        .iter()
        .map(|&i| base.derive(i as u64).base_seed())
        .collect();
    let mut sink = JsonlSink::new(Vec::new());
    let report = RunPlan::new(trials, seed)
        .engine(Engine::Event)
        .threads(threads)
        .config(RunConfig::with_max_time(1e4))
        .observer(&mut sink)
        .execute(net, move || {
            AnyProtocol::event(PanicInjected::new(seeds.clone()))
        })
        .expect("panicking trials are isolated, not fatal");
    let bytes = sink.into_inner().unwrap();
    let lines = String::from_utf8(bytes)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    (report, lines)
}

/// On the implicit `K_32` (the closed-form state, the generic per-event
/// loop) and on a materialized `G(64, 0.2)` (the vectorized lane).
#[test]
fn panicking_trials_are_quarantined_and_reported() {
    check_panicking_trials("K_32", complete(32));
    check_panicking_trials("G(64, 0.2)", gnp(64, 0.2, 9));
}

fn check_panicking_trials(family: &str, net: impl Fn() -> StaticNetwork + Sync + Copy) {
    const TRIALS: usize = 10;
    let panicked = [2usize, 5];
    let (clean_report, clean_lines) = run_with_panics(net, &[], 1, TRIALS, 77);
    assert_eq!(clean_report.trials(), TRIALS, "{family}");
    assert_eq!(clean_lines.len(), TRIALS, "{family}");
    // The undisturbed record stream minus the panicked trials is exactly
    // what a panicking run must deliver: quarantine may not leak state
    // into any surviving trial.
    let surviving: Vec<String> = clean_lines
        .iter()
        .enumerate()
        .filter(|(i, _)| !panicked.contains(i))
        .map(|(_, l)| l.clone())
        .collect();
    for threads in [1usize, 4] {
        let (report, lines) = run_with_panics(net, &panicked, threads, TRIALS, 77);
        let label = format!("{family}, {threads} thread(s)");
        let errors = report.trial_errors();
        assert_eq!(errors.len(), panicked.len(), "{label}: error count");
        for (err, &trial) in errors.iter().zip(&panicked) {
            assert_eq!(err.trial, trial, "{label}: errored trial index");
            assert!(
                err.message.contains("injected test panic"),
                "{label}: payload lost: {}",
                err.message
            );
        }
        assert_eq!(
            report.trials() + errors.len(),
            TRIALS,
            "{label}: accounting"
        );
        assert_eq!(lines, surviving, "{label}: surviving records drifted");
    }
}

#[test]
fn event_budget_watchdog_reports_budget_outcome() {
    // 10 events cannot inform K_64: every trial must stop on the budget
    // watchdog with no spread time.
    let mut sink = JsonlSink::new(Vec::new());
    let report = RunPlan::new(6, 13)
        .engine(Engine::Event)
        .config(RunConfig::with_max_time(1e4).with_event_budget(10))
        .observer(&mut sink)
        .execute(complete(64), || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    assert_eq!(report.trials(), 6);
    assert_eq!(report.completed(), 0);
    assert_eq!(report.summary().budget_stopped(), 6);
    let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
    for line in text.lines() {
        let record: gossip_sim::TrialRecord = serde_json::from_str(line).unwrap();
        assert_eq!(record.outcome, TrialOutcome::Budget);
        assert!(record.spread_time.is_none());
        assert!(record.events <= 10);
        assert!(record.informed < 64);
    }
}

#[test]
fn permanent_crash_of_the_frontier_reports_died() {
    // Crash the start node at window 0 with no recovery: the rumor can
    // never leave it, and the engine must detect the stuck state instead
    // of idling to max_time.
    let model = FaultModel {
        schedule: vec![(0, 0)],
        seed: 3,
        ..FaultModel::default()
    };
    let mut sink = JsonlSink::new(Vec::new());
    let report = RunPlan::new(4, 19)
        .engine(Engine::Event)
        .faults(model)
        .config(RunConfig::with_max_time(1e4))
        .observer(&mut sink)
        .execute(complete(16), || AnyProtocol::event(CutRateAsync::new()))
        .unwrap();
    assert_eq!(report.trials(), 4);
    assert_eq!(report.completed(), 0);
    assert_eq!(report.summary().died(), 4);
    let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
    for line in text.lines() {
        let record: gossip_sim::TrialRecord = serde_json::from_str(line).unwrap();
        assert_eq!(record.outcome, TrialOutcome::Died);
        assert!(record.spread_time.is_none());
        assert_eq!(record.informed, 1, "only the crashed start node knows");
    }
}
