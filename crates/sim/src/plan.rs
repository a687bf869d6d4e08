//! The unified trial driver: one entry point over every engine.
//!
//! Every experiment in this workspace is the same operation — *run many
//! independent trials of protocol P on dynamic family F and summarize the
//! spread-time distribution*. [`RunPlan`] is the single API for it:
//!
//! ```
//! use gossip_dynamics::StaticNetwork;
//! use gossip_graph::Topology;
//! use gossip_sim::{AnyProtocol, CutRateAsync, Engine, RunPlan};
//!
//! let report = RunPlan::new(64, 42)
//!     .engine(Engine::Auto) // event-stream whenever the protocol supports it
//!     .execute(
//!         || StaticNetwork::from_topology(Topology::complete(32).unwrap()),
//!         || AnyProtocol::event(CutRateAsync::new()),
//!     )
//!     .unwrap();
//! assert_eq!(report.engine(), Engine::Event);
//! assert!(report.completion_rate() > 0.99);
//! ```
//!
//! The plan owns the whole trial contract:
//!
//! * **Seeding** — trial `i` always consumes the RNG stream
//!   `SimRng::seed_from_u64(base_seed).derive(i)`, so results are
//!   identical for any thread count and any engine scheduling;
//! * **Engine selection** — [`Engine::Auto`] picks the event-stream
//!   engine whenever the protocol carries an incremental implementation
//!   ([`AnyProtocol::supports_event`]), and the window-based reference
//!   engine otherwise;
//! * **Streaming observation** — attached [`TrialObserver`]s receive one
//!   [`crate::TrialRecord`] per trial, in trial order, while later trials
//!   are still running; the built-in summary accumulates the same way,
//!   so [`RunReport::summary`] is bit-identical for any thread count;
//! * **Isolated failures** — a trial that fails on its own (a panic
//!   inside an engine) is reported as a [`TrialError`] in its trial-order
//!   slot instead of cancelling the batch;
//! * **Workspace reuse** — each worker recycles its per-trial scratch
//!   (informed set, pools, buffers) through one [`SimWorkspace`], and the
//!   parallel path ships records to the observer thread in chunks, so
//!   small-n/high-trial batches are simulator-bound instead of
//!   allocator- and channel-bound; results are bit-identical to one
//!   [`EventSimulation::run`] / [`Simulation::run`] call per trial.
//!
//! What runs one trial is a [`TrialExecutor`], built once per worker
//! thread. The window and event engines are the two built-in executors
//! behind [`RunPlan::execute`]; [`RunPlan::execute_with`] drives any
//! other implementation — the live `gossip-net` runtime is one — through
//! the same seeding, delivery, summary and failure contract.

use crate::observer::{SummarySink, TrialObserver, TrialRecord};
use crate::workspace::WorkspacePool;
use crate::{
    EventSimulation, FaultModel, IncrementalProtocol, Protocol, RunConfig, SimError, SimWorkspace,
    Simulation, TrialError, TrialSummary,
};
use gossip_dynamics::DynamicNetwork;
use gossip_graph::NodeId;
use gossip_stats::SimRng;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex};

// ---------------------------------------------------------------------------
// AnyProtocol
// ---------------------------------------------------------------------------

/// An object-safe protocol value unifying the two engine interfaces.
///
/// [`AnyProtocol::event`] wraps a protocol that implements
/// [`IncrementalProtocol`] — it can run on **either** engine (every
/// incremental protocol is also a window protocol).
/// [`AnyProtocol::window`] wraps a window-only protocol. [`RunPlan`]
/// resolves [`Engine::Auto`] against this distinction.
pub enum AnyProtocol {
    /// A window-engine-only protocol.
    Window(Box<dyn Protocol>),
    /// A protocol with an incremental implementation (both engines).
    Event(Box<dyn IncrementalProtocol>),
}

impl AnyProtocol {
    /// Wraps a window-only protocol.
    pub fn window(p: impl Protocol + 'static) -> Self {
        AnyProtocol::Window(Box::new(p))
    }

    /// Wraps an incrementally-capable protocol (runs on both engines).
    pub fn event(p: impl IncrementalProtocol + 'static) -> Self {
        AnyProtocol::Event(Box::new(p))
    }

    /// The protocol's display name.
    pub fn name(&self) -> &'static str {
        match self {
            AnyProtocol::Window(p) => p.name(),
            AnyProtocol::Event(p) => p.name(),
        }
    }

    /// Whether the protocol can run on the event-stream engine.
    pub fn supports_event(&self) -> bool {
        matches!(self, AnyProtocol::Event(_))
    }

    /// Converts into a window-engine trait object (always possible).
    pub fn into_window(self) -> Box<dyn Protocol> {
        match self {
            AnyProtocol::Window(p) => p,
            AnyProtocol::Event(p) => Box::new(p),
        }
    }

    /// Converts into an event-engine trait object, or `None` for
    /// window-only protocols.
    pub fn into_event(self) -> Option<Box<dyn IncrementalProtocol>> {
        match self {
            AnyProtocol::Window(_) => None,
            AnyProtocol::Event(p) => Some(p),
        }
    }
}

impl fmt::Debug for AnyProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (variant, name) = match self {
            AnyProtocol::Window(p) => ("Window", p.name()),
            AnyProtocol::Event(p) => ("Event", p.name()),
        };
        write!(f, "AnyProtocol::{variant}({name})")
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Which simulation engine a [`RunPlan`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Event-stream when the protocol supports it, window otherwise.
    #[default]
    Auto,
    /// Force the window-based reference engine.
    Window,
    /// Force the event-stream engine (an error for window-only
    /// protocols).
    Event,
}

impl Engine {
    /// The engine's display name (`Auto` resolves at execution time).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Auto => "auto",
            Engine::Window => "window",
            Engine::Event => "event",
        }
    }
}

// ---------------------------------------------------------------------------
// RunPlan
// ---------------------------------------------------------------------------

/// A builder-style description of a multi-trial run, executed by
/// [`RunPlan::execute`] — the workspace's one trial-execution entry
/// point.
///
/// The lifetime parameter lets observers be attached by mutable borrow
/// (`plan.observer(&mut my_sink)`), so sinks survive the run and can be
/// inspected afterwards; owned sinks work too.
pub struct RunPlan<'o> {
    trials: usize,
    base_seed: u64,
    threads: usize,
    config: RunConfig,
    engine: Engine,
    start: Option<NodeId>,
    faults: Option<FaultModel>,
    pool: Option<Arc<WorkspacePool>>,
    observers: Vec<Box<dyn TrialObserver + 'o>>,
}

impl fmt::Debug for RunPlan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunPlan")
            .field("trials", &self.trials)
            .field("base_seed", &self.base_seed)
            .field("threads", &self.threads)
            .field("config", &self.config)
            .field("engine", &self.engine)
            .field("start", &self.start)
            .field("faults", &self.faults)
            .field("pool", &self.pool.is_some())
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl<'o> RunPlan<'o> {
    /// A plan for `trials` trials seeded from `base_seed`: all available
    /// parallelism, default [`RunConfig`], [`Engine::Auto`], the
    /// network's suggested start node, no observers.
    pub fn new(trials: usize, base_seed: u64) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        RunPlan {
            trials,
            base_seed,
            threads: threads.min(trials.max(1)),
            config: RunConfig::default(),
            engine: Engine::Auto,
            start: None,
            faults: None,
            pool: None,
            observers: Vec::new(),
        }
    }

    /// Attaches a [`FaultModel`] to every trial. An active model needs
    /// the event engine (a protocol that
    /// [`AnyProtocol::supports_event`]); otherwise `execute` fails
    /// with [`SimError::FaultsUnsupported`] before running anything;
    /// active delivery chaos, which needs the live runtime, fails with
    /// [`SimError::InvalidFaultParam`]. Fault coins derive from
    /// `(model.seed, trial seed)`, so per-trial
    /// results stay deterministic by `(model, base_seed)` for any thread
    /// count.
    pub fn faults(mut self, faults: FaultModel) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Draws each worker's [`SimWorkspace`] from a shared long-lived
    /// [`WorkspacePool`] instead of allocating a fresh one per batch, and
    /// returns it to the pool when the batch ends — so repeated
    /// executions in one process (e.g. the `gossip serve` daemon) keep
    /// their grown scratch arenas warm across runs. The built-in engines
    /// use it; [`RunPlan::execute_with`] ignores it. Results are
    /// bit-identical with or without a pool, because every buffer checked
    /// out of a workspace is reset to fresh-allocation state (see the
    /// [`SimWorkspace`] reset invariants).
    pub fn workspace_pool(mut self, pool: Arc<WorkspacePool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Restricts execution to a fixed number of threads (1 = inline on
    /// the calling thread). Results are identical either way.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the per-trial [`RunConfig`] (cutoff, trajectory recording).
    pub fn config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the engine (default [`Engine::Auto`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the start node (default: each network's
    /// [`DynamicNetwork::suggested_start`]).
    pub fn start(mut self, start: NodeId) -> Self {
        self.start = Some(start);
        self
    }

    /// Optional start override in one call (`None` keeps the default).
    pub fn start_opt(mut self, start: Option<NodeId>) -> Self {
        self.start = start;
        self
    }

    /// Attaches a streaming [`TrialObserver`]; may be an owned sink or a
    /// `&mut` borrow. Observers are notified in attachment order.
    pub fn observer(mut self, observer: impl TrialObserver + 'o) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Runs all trials on the window or event engine and returns the
    /// [`RunReport`].
    ///
    /// `make_net` / `make_proto` build fresh instances per worker thread.
    /// Trial `i` always consumes the RNG stream derived from
    /// `(base_seed, i)`, and observers see records in trial order, so the
    /// entire run — summary statistics *and* observer streams — is
    /// bit-identical for any thread count.
    ///
    /// # Errors
    ///
    /// [`SimError::EngineUnsupported`] when [`Engine::Event`] is forced
    /// on a window-only protocol; otherwise the error of the first
    /// failing trial (any failure cancels the remaining batch;
    /// configuration errors surface identically on every trial), or the
    /// first observer failure.
    pub fn execute<N: DynamicNetwork>(
        mut self,
        make_net: impl Fn() -> N + Sync,
        make_proto: impl Fn() -> AnyProtocol + Sync,
    ) -> Result<RunReport, SimError> {
        // Probe once: engine resolution + report metadata, before any
        // trial work spins up.
        let probe = make_proto();
        let protocol = probe.name();
        let use_event = match self.engine {
            Engine::Auto => probe.supports_event(),
            Engine::Event => {
                if !probe.supports_event() {
                    return Err(SimError::EngineUnsupported { protocol });
                }
                true
            }
            Engine::Window => false,
        };
        if let Some(m) = &self.faults {
            m.validate_analytic()?;
            if m.is_active() && !use_event {
                // The window engine has no fault hooks and would silently
                // ignore the model — refuse instead of producing clean
                // data.
                return Err(SimError::FaultsUnsupported { protocol });
            }
        }
        drop(probe);

        let setup = EngineSetup {
            make_net: &make_net,
            make_proto: &make_proto,
            use_event,
            faults: self.faults.take(),
            pool: self.pool.take(),
            start: self.start,
        };
        let engine = if use_event {
            Engine::Event
        } else {
            Engine::Window
        };
        self.drive(engine, protocol, |config| {
            EngineExecutor::new(&setup, *config)
        })
    }

    /// Runs all trials through a caller-supplied [`TrialExecutor`] and
    /// returns the [`RunReport`] — the entry point for trial
    /// implementations outside this crate, such as the live `gossip-net`
    /// runtime.
    ///
    /// `make_executor` builds one executor per worker thread from the
    /// batch's [`RunConfig`], whose `record_trajectory` is set when the
    /// plan or an attached observer asks for trajectories. Seeding,
    /// trial-order delivery, trajectory scoping, the summary and isolated
    /// [`TrialError`]s are exactly those of [`RunPlan::execute`]. The
    /// engine, start, fault and workspace-pool settings configure the
    /// built-in executors and are ignored here; the
    /// report's [`RunReport::engine`] reads [`Engine::Auto`] and its
    /// [`RunReport::protocol`] is empty.
    ///
    /// # Errors
    ///
    /// The first batch-fatal executor error (it cancels the remaining
    /// batch), or the first observer failure.
    pub fn execute_with<X: TrialExecutor>(
        self,
        make_executor: impl Fn(&RunConfig) -> X + Sync,
    ) -> Result<RunReport, X::Error> {
        self.drive(Engine::Auto, "", make_executor)
    }

    /// The batch driver behind both entry points: resolves trajectory
    /// recording, runs the trials, feeds the summary and the observers.
    fn drive<X: TrialExecutor>(
        mut self,
        engine: Engine,
        protocol: &'static str,
        make_executor: impl Fn(&RunConfig) -> X + Sync,
    ) -> Result<RunReport, X::Error> {
        let mut config = self.config;
        // Recording requested explicitly on the plan reaches every
        // observer; recording merely auto-enabled by a trajectory-wanting
        // observer stays scoped to the observers that asked, so e.g. a
        // co-attached JsonlSink's output does not balloon (or change
        // shape) because a TrajectorySink rides the same plan.
        let explicit_recording = config.record_trajectory;
        if self.observers.iter().any(|o| o.wants_trajectory()) {
            config.record_trajectory = true;
        }

        let mut summary = SummarySink::new();
        let mut trial_errors: Vec<TrialError> = Vec::new();
        let started = std::time::Instant::now();
        {
            let observers = &mut self.observers;
            let summary = &mut summary;
            let trial_errors = &mut trial_errors;
            // Delivery hands the record's trajectory buffer back (when
            // one rode along) so the inline path can recycle it into the
            // worker's executor after the observers are done with it.
            // Isolated trial failures arrive as `Err` in their
            // trial-order slot.
            let mut deliver =
                move |item: TrialItem| -> Result<Option<Vec<(f64, usize)>>, SimError> {
                    let mut record = match item {
                        Ok(record) => record,
                        Err(error) => {
                            for o in observers.iter_mut() {
                                o.on_trial_error(&error)?;
                            }
                            trial_errors.push(error);
                            return Ok(None);
                        }
                    };
                    // The internal summary never fails; user observers may.
                    summary
                        .on_trial(&record)
                        .expect("summary sink is infallible");
                    if !observers.is_empty() {
                        let stripped = TrialRecord {
                            trial: record.trial,
                            seed: record.seed,
                            n: record.n,
                            spread_time: record.spread_time,
                            windows: record.windows,
                            events: record.events,
                            informed: record.informed,
                            outcome: record.outcome,
                            trajectory: None,
                        };
                        for o in observers.iter_mut() {
                            let view = if explicit_recording || o.wants_trajectory() {
                                &record
                            } else {
                                &stripped
                            };
                            o.on_trial(view)?;
                        }
                    }
                    Ok(record.trajectory.take())
                };
            // Recording runs deliver trial by trial; everything else in
            // chunks.
            let chunked = !config.record_trajectory;
            run_trials(
                self.trials,
                self.base_seed,
                self.threads,
                chunked,
                &|| make_executor(&config),
                &mut deliver,
            )?;
        }
        let elapsed = started.elapsed();
        for o in &mut self.observers {
            o.finish()?;
        }
        Ok(RunReport {
            events: summary.events(),
            summary: summary.into_summary(),
            engine,
            protocol,
            elapsed,
            trial_errors,
        })
    }
}

// ---------------------------------------------------------------------------
// TrialExecutor
// ---------------------------------------------------------------------------

/// Runs the trials of one worker thread: the seam between [`RunPlan`]'s
/// batch driver and whatever simulates a trial.
///
/// The driver owns the batch contract — trial `i` runs on the stream
/// `SimRng::seed_from_u64(base_seed).derive(i)`, records reach the
/// summary and the observers in trial order, isolated failures fill
/// their trial-order slot — and builds one executor per worker, handing
/// it trial indices in increasing order. The window and event engines
/// are the built-in executors of [`RunPlan::execute`]; other
/// implementations run through [`RunPlan::execute_with`].
pub trait TrialExecutor {
    /// The error that cancels the whole batch: a configuration problem
    /// that would hit every trial. Observer failures convert into it.
    type Error: From<SimError> + Send;

    /// Runs trial `trial` on its derived stream `rng`, whose
    /// [`SimRng::base_seed`] is the trial seed. `Ok(Err(_))` reports a
    /// trial that failed on its own; the batch goes on without it.
    ///
    /// # Errors
    ///
    /// A batch-fatal [`TrialExecutor::Error`].
    fn run_trial(
        &mut self,
        trial: usize,
        rng: &mut SimRng,
    ) -> Result<Result<TrialRecord, TrialError>, Self::Error>;

    /// Takes back the trajectory buffer of a delivered record for reuse
    /// by a later trial (single-threaded batches only). The default
    /// drops it.
    fn recycle(&mut self, trajectory: Vec<(f64, usize)>) {
        drop(trajectory);
    }
}

/// One delivered trial: a record, or the structured report of a trial
/// that failed on its own.
type TrialItem = Result<TrialRecord, TrialError>;

/// Renders a `catch_unwind` payload as text for a [`TrialError`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// A per-worker trial closure: runs one trial `(index, seed)` on the
/// engine chosen for the batch and assembles its [`TrialRecord`]. The
/// workspace argument is the worker's scratch arena.
type TrialFn<'p, N> = Box<
    dyn FnMut(
            &mut SimWorkspace,
            &mut N,
            NodeId,
            usize,
            u64,
            &mut SimRng,
        ) -> Result<TrialRecord, SimError>
        + 'p,
>;

/// What the built-in executors of one [`RunPlan::execute`] batch are
/// built — and, after a panic, rebuilt — from.
struct EngineSetup<'p, N> {
    make_net: &'p (dyn Fn() -> N + Sync),
    make_proto: &'p (dyn Fn() -> AnyProtocol + Sync),
    use_event: bool,
    faults: Option<FaultModel>,
    pool: Option<Arc<WorkspacePool>>,
    start: Option<NodeId>,
}

impl<'p, N: DynamicNetwork> EngineSetup<'p, N> {
    /// One worker's run closure: engine chosen once per batch, then the
    /// same trial shape for both engines — `run_in` on the worker's
    /// workspace, then the record assembled and the buffers recycled — so
    /// the two engines share the seeding contract by construction.
    fn runner(&self, config: RunConfig) -> TrialFn<'p, N> {
        let proto = (self.make_proto)();
        let recording = config.record_trajectory;
        if self.use_event {
            let protocol = proto
                .into_event()
                .expect("engine resolution probed support");
            let mut sim = EventSimulation::new(protocol, config);
            if let Some(m) = &self.faults {
                sim = sim.with_faults(m.clone());
            }
            Box::new(move |ws, net, start, trial, seed, rng| {
                let outcome = sim.run_in(ws, net, start, rng)?;
                Ok(TrialRecord::from_outcome_in(
                    trial, seed, outcome, recording, ws,
                ))
            })
        } else {
            let mut sim = Simulation::new(proto.into_window(), config);
            Box::new(move |ws, net, start, trial, seed, rng| {
                let outcome = sim.run_in(ws, net, start, rng)?;
                Ok(TrialRecord::from_outcome_in(
                    trial, seed, outcome, recording, ws,
                ))
            })
        }
    }
}

/// The built-in executor: one worker's workspace, network and engine
/// closure. Workspaces come from the shared pool when one is attached
/// (warm buffers across batches) and go back to it when the executor is
/// dropped at batch end — but not while a panic unwinds past it;
/// checkout state is indistinguishable from fresh, so results are
/// identical.
struct EngineExecutor<'p, N> {
    setup: &'p EngineSetup<'p, N>,
    config: RunConfig,
    ws: SimWorkspace,
    net: N,
    start: NodeId,
    run_one: TrialFn<'p, N>,
}

impl<'p, N: DynamicNetwork> EngineExecutor<'p, N> {
    fn new(setup: &'p EngineSetup<'p, N>, config: RunConfig) -> Self {
        let ws = setup
            .pool
            .as_deref()
            .map_or_else(SimWorkspace::new, WorkspacePool::checkout);
        let net = (setup.make_net)();
        let run_one = setup.runner(config);
        let start = setup.start.unwrap_or_else(|| net.suggested_start());
        EngineExecutor {
            setup,
            config,
            ws,
            net,
            start,
            run_one,
        }
    }
}

impl<N: DynamicNetwork> TrialExecutor for EngineExecutor<'_, N> {
    type Error = SimError;

    /// A **panicking** trial does not abort the batch: the unwind is
    /// caught, the possibly-poisoned state (workspace, network, protocol)
    /// is quarantined — discarded and rebuilt from the factories — and
    /// the trial is reported as a [`TrialError`]. Only structured
    /// [`SimError`]s (configuration problems that would hit every trial)
    /// cancel the run.
    fn run_trial(&mut self, trial: usize, rng: &mut SimRng) -> Result<TrialItem, SimError> {
        let seed = rng.base_seed();
        match catch_unwind(AssertUnwindSafe(|| {
            (self.run_one)(&mut self.ws, &mut self.net, self.start, trial, seed, rng)
        })) {
            Ok(result) => result.map(Ok),
            Err(payload) => {
                self.ws = SimWorkspace::new();
                self.net = (self.setup.make_net)();
                self.run_one = self.setup.runner(self.config);
                Ok(Err(TrialError {
                    trial,
                    seed,
                    message: panic_message(payload),
                }))
            }
        }
    }

    fn recycle(&mut self, trajectory: Vec<(f64, usize)>) {
        self.ws.put_trajectory(trajectory);
    }
}

impl<N> Drop for EngineExecutor<'_, N> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        if let Some(pool) = &self.setup.pool {
            pool.restore(std::mem::take(&mut self.ws));
        }
    }
}

/// Worker pacing: the delivery frontier plus an abort flag.
///
/// No worker starts chunk `c` until `c < frontier + window` (both in
/// chunk units; a chunk is a single trial on the per-trial paths), so
/// the reorder buffer — and any full trajectories riding in records —
/// holds `O(window)` entries even when one early trial is a heavy-tailed
/// straggler (exactly this repo's subject: spread-time distributions
/// with constant-probability `Ω(n)` modes). Without pacing, a slow
/// trial 0 would let the other workers finish the entire batch and park
/// it all in the buffer, defeating the streaming memory contract.
struct Pace {
    /// `(next undelivered chunk, abort)`.
    state: Mutex<(usize, bool)>,
    cond: Condvar,
}

impl Pace {
    fn new() -> Self {
        Pace {
            state: Mutex::new((0, false)),
            cond: Condvar::new(),
        }
    }

    /// Blocks until chunk `i` may start; `false` means the run aborted.
    /// Never blocks the worker owning the frontier chunk itself, so the
    /// frontier always advances (no deadlock).
    fn admit(&self, i: usize, window: usize) -> bool {
        let mut st = self.state.lock().expect("pace state poisoned");
        while !st.1 && i >= st.0 + window {
            st = self.cond.wait(st).expect("pace state poisoned");
        }
        !st.1
    }

    fn advance(&self, next: usize) {
        self.state.lock().expect("pace state poisoned").0 = next;
        self.cond.notify_all();
    }

    fn abort(&self) {
        self.state.lock().expect("pace state poisoned").1 = true;
        self.cond.notify_all();
    }
}

/// Executes the trial batch, delivering records to `deliver` in strict
/// trial order while trials are still running on other threads. A
/// batch-fatal executor error or a failing `deliver` aborts the batch:
/// running trials finish, queued ones never start. A trial the executor
/// isolates (`Ok(Err(_))`) is delivered in its trial-order slot and the
/// batch goes on.
///
/// With `chunked` set, the parallel path processes trials in per-worker
/// **chunks**: one channel message, one pacing handshake, and one reorder
/// step per chunk instead of per trial. Chunking is invisible to
/// observers — records still arrive one by one in strict trial order, and
/// trial `i` still consumes the `derive(i)` stream — it only amortizes
/// the driver's synchronization, which dominates sub-10µs trials.
/// Trajectory-recording batches keep chunk size 1 so the in-flight
/// memory contract (O(threads) full trajectories) is unchanged.
fn run_trials<X: TrialExecutor>(
    trials: usize,
    base_seed: u64,
    threads: usize,
    chunked: bool,
    make_executor: &(impl Fn() -> X + Sync),
    deliver: &mut impl FnMut(TrialItem) -> Result<Option<Vec<(f64, usize)>>, SimError>,
) -> Result<(), X::Error> {
    let base = SimRng::seed_from_u64(base_seed);
    let threads = threads.min(trials.max(1));

    if threads <= 1 {
        // Inline fast path: no channel, records delivered as produced
        // (already in trial order); errors abort immediately. Recycled
        // trajectory buffers flow straight back into the executor.
        let mut executor = make_executor();
        for i in 0..trials {
            let mut rng = base.derive(i as u64);
            let item = executor.run_trial(i, &mut rng)?;
            if let Some(buf) = deliver(item)? {
                executor.recycle(buf);
            }
        }
        return Ok(());
    }

    // Parallel path: workers stream record chunks over a bounded channel;
    // the calling thread re-sequences through a [`Pace`]-bounded reorder
    // buffer and feeds observers in trial order. Trial i still consumes
    // the derive(i) stream, so scheduling cannot change any result.
    let chunk = if chunked {
        (trials / (threads * 8)).clamp(1, 64)
    } else {
        1
    };
    let n_chunks = trials.div_ceil(chunk);
    // The admission window, in chunks: bounds the reorder buffer at
    // O(threads) chunks (the historical O(threads) records when chunk
    // is 1; at most window · 64 small records otherwise).
    let window = threads * 8;
    let pace = Pace::new();
    let mut trial_err: Option<(usize, X::Error)> = None;
    let mut observer_err: Option<SimError> = None;
    let (tx, rx) = mpsc::sync_channel::<ChunkMsg<X::Error>>(window);
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let base = base.clone();
            let tx = tx.clone();
            let pace = &pace;
            scope.spawn(move || {
                let mut executor = make_executor();
                let mut c = tid;
                while c < n_chunks && pace.admit(c, window) {
                    let lo = c * chunk;
                    let hi = (lo + chunk).min(trials);
                    let mut items: Vec<TrialItem> = Vec::with_capacity(hi - lo);
                    let mut failed: Option<(usize, X::Error)> = None;
                    for i in lo..hi {
                        let mut rng = base.derive(i as u64);
                        match executor.run_trial(i, &mut rng) {
                            Ok(item) => items.push(item),
                            Err(e) => {
                                failed = Some((i, e));
                                break;
                            }
                        }
                    }
                    let stop = failed.is_some();
                    if !items.is_empty() && tx.send(Ok((lo, items))).is_err() {
                        break;
                    }
                    if let Some(fail) = failed {
                        let _ = tx.send(Err(fail));
                    }
                    if stop {
                        break;
                    }
                    c += threads;
                }
            });
        }
        drop(tx);

        // The receiver always keeps draining (never leaves a worker
        // blocked on a full channel); after an abort it only discards.
        // Chunks are keyed by their first trial index; a chunk cut short
        // by a trial error delivers its prefix and then stalls the
        // frontier at the failed index, exactly like the per-trial path.
        // Isolated trial failures are ordinary items: they advance the
        // frontier.
        let mut pending: BTreeMap<usize, Vec<TrialItem>> = BTreeMap::new();
        let mut next = 0usize; // next trial index to deliver
        let mut next_chunk = 0usize; // pacing frontier, in chunks
        'drain: for msg in rx {
            match msg {
                Ok((lo, items)) if observer_err.is_none() => {
                    pending.insert(lo, items);
                    while let Some(items) = pending.remove(&next) {
                        for item in items {
                            match deliver(item) {
                                Ok(_) => next += 1,
                                Err(e) => {
                                    // Delivery is dead: cancel the
                                    // workers, drop anything buffered.
                                    observer_err = Some(e);
                                    pending.clear();
                                    pace.abort();
                                    continue 'drain;
                                }
                            }
                        }
                        next_chunk += 1;
                        pace.advance(next_chunk);
                    }
                }
                Ok(_) => {}
                Err((i, e)) => {
                    if trial_err.as_ref().is_none_or(|(j, _)| i < *j) {
                        trial_err = Some((i, e));
                    }
                    // A failed trial leaves a hole at its index: the
                    // frontier can never pass it, so cancel the batch
                    // (configuration errors hit every trial anyway).
                    pace.abort();
                }
            }
        }
    });
    match (trial_err, observer_err) {
        (Some((_, e)), _) => Err(e),
        (None, Some(e)) => Err(e.into()),
        (None, None) => Ok(()),
    }
}

/// A worker's message to the delivering thread: a chunk of trial items
/// keyed by its first trial index, or the batch-fatal error of one trial.
type ChunkMsg<E> = Result<(usize, Vec<TrialItem>), (usize, E)>;

// ---------------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------------

/// The result of a [`RunPlan::execute`]: the classic [`TrialSummary`]
/// plus the resolved engine and protocol name.
///
/// Dereferences to [`TrialSummary`], so summary accessors read directly:
/// `report.median()`, `report.completion_rate()`, …
#[derive(Debug, Clone)]
pub struct RunReport {
    summary: TrialSummary,
    engine: Engine,
    protocol: &'static str,
    events: u64,
    elapsed: std::time::Duration,
    trial_errors: Vec<TrialError>,
}

impl RunReport {
    /// The accumulated trial summary.
    pub fn summary(&self) -> &TrialSummary {
        &self.summary
    }

    /// Consumes the report into its summary.
    pub fn into_summary(self) -> TrialSummary {
        self.summary
    }

    /// The engine that actually ran: never [`Engine::Auto`] after
    /// [`RunPlan::execute`], always `Auto` after
    /// [`RunPlan::execute_with`] (no built-in engine ran).
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The protocol's display name (empty after
    /// [`RunPlan::execute_with`]).
    pub fn protocol(&self) -> &'static str {
        self.protocol
    }

    /// Total Poisson events resolved across all trials (the per-engine
    /// meaning is documented on [`crate::SpreadOutcome::events`]).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Trials that failed on their own (a panic inside an engine, an
    /// executor's isolated failure) and were skipped instead of aborting
    /// the batch, in trial order. The summary counts only the surviving
    /// trials (`summary.trials() + trial_errors.len()` = planned
    /// trials).
    pub fn trial_errors(&self) -> &[TrialError] {
        &self.trial_errors
    }

    /// Wall-clock time the trial batch took (trial execution plus
    /// in-batch observer delivery; excludes [`TrialObserver::finish`]).
    pub fn elapsed(&self) -> std::time::Duration {
        self.elapsed
    }

    /// Simulation throughput in resolved Poisson events per wall-clock
    /// second, the hardware-facing companion to the spread-time summary
    /// (0 when the batch finished faster than the clock resolution).
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }
}

impl std::ops::Deref for RunReport {
    type Target = TrialSummary;

    fn deref(&self) -> &TrialSummary {
        &self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CutRateAsync, SyncPushPull};
    use gossip_dynamics::StaticNetwork;
    use gossip_graph::{generators, Topology};

    fn make_complete() -> StaticNetwork {
        StaticNetwork::from_topology(Topology::complete(16).unwrap())
    }

    #[test]
    fn auto_resolves_per_protocol() {
        let event = RunPlan::new(6, 1)
            .execute(make_complete, || AnyProtocol::event(CutRateAsync::new()))
            .unwrap();
        assert_eq!(event.engine(), Engine::Event);
        assert_eq!(event.protocol(), "async push-pull (cut-rate)");
        let window = RunPlan::new(6, 1)
            .execute(make_complete, || AnyProtocol::window(SyncPushPull::new()))
            .unwrap();
        assert_eq!(window.engine(), Engine::Window);
        assert_eq!(window.trials(), 6);
    }

    #[test]
    fn forced_event_rejects_window_only_protocols() {
        let err = RunPlan::new(4, 1)
            .engine(Engine::Event)
            .execute(make_complete, || AnyProtocol::window(SyncPushPull::new()))
            .unwrap_err();
        assert!(matches!(err, SimError::EngineUnsupported { .. }));
    }

    #[test]
    fn event_protocol_runs_on_window_engine() {
        // AnyProtocol::event is valid on both engines; forcing Window
        // must replay the exact legacy window-engine stream.
        let report = RunPlan::new(8, 3)
            .engine(Engine::Window)
            .execute(make_complete, || AnyProtocol::event(CutRateAsync::new()))
            .unwrap();
        assert_eq!(report.engine(), Engine::Window);
        assert_eq!(report.completed(), 8);
    }

    #[test]
    fn observers_stream_in_trial_order_across_threads() {
        struct OrderProbe(Vec<usize>);
        impl TrialObserver for OrderProbe {
            fn on_trial(&mut self, r: &TrialRecord) -> Result<(), SimError> {
                self.0.push(r.trial);
                Ok(())
            }
        }
        let mut probe = OrderProbe(Vec::new());
        RunPlan::new(37, 5)
            .threads(4)
            .observer(&mut probe)
            .execute(make_complete, || AnyProtocol::event(CutRateAsync::new()))
            .unwrap();
        assert_eq!(probe.0, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn observer_errors_propagate() {
        struct Failing;
        impl TrialObserver for Failing {
            fn on_trial(&mut self, _: &TrialRecord) -> Result<(), SimError> {
                Err(SimError::Observer("sink full".into()))
            }
        }
        let err = RunPlan::new(4, 1)
            .observer(Failing)
            .execute(make_complete, || AnyProtocol::event(CutRateAsync::new()))
            .unwrap_err();
        assert!(matches!(err, SimError::Observer(_)));
    }

    #[test]
    fn trial_errors_propagate_and_cancel_the_batch() {
        let err = RunPlan::new(8, 1)
            .threads(3)
            .start(99)
            .execute(
                || StaticNetwork::new(generators::path(3).unwrap()),
                || AnyProtocol::event(CutRateAsync::new()),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::StartOutOfRange { start: 99, n: 3 }));
    }

    /// A stand-in executor: records drawn from each trial's own stream,
    /// except trial `give_up`, which fails on its own.
    struct Fake {
        give_up: Option<usize>,
    }

    impl TrialExecutor for Fake {
        type Error = SimError;

        fn run_trial(&mut self, trial: usize, rng: &mut SimRng) -> Result<TrialItem, SimError> {
            let seed = rng.base_seed();
            if self.give_up == Some(trial) {
                return Ok(Err(TrialError {
                    trial,
                    seed,
                    message: "gave up".into(),
                }));
            }
            Ok(Ok(TrialRecord {
                trial,
                seed,
                n: 8,
                spread_time: Some(rng.uniform_f64()),
                windows: 1,
                events: 7,
                informed: 8,
                outcome: crate::TrialOutcome::Spread,
                trajectory: None,
            }))
        }
    }

    #[test]
    fn executor_failure_is_isolated_in_its_trial_slot() {
        /// Logs what each observer call saw, in call order.
        struct Slots(Vec<String>);
        impl TrialObserver for Slots {
            fn on_trial(&mut self, r: &TrialRecord) -> Result<(), SimError> {
                self.0.push(format!("trial {}", r.trial));
                Ok(())
            }
            fn on_trial_error(&mut self, e: &TrialError) -> Result<(), SimError> {
                self.0.push(format!("error {}", e.trial));
                Ok(())
            }
        }
        const TRIALS: usize = 12;
        const LOST: usize = 5;
        let run = |threads: usize, give_up: Option<usize>| {
            let mut jsonl = crate::JsonlSink::new(Vec::new());
            let mut slots = Slots(Vec::new());
            let report = RunPlan::new(TRIALS, 9)
                .threads(threads)
                .observer(&mut jsonl)
                .observer(&mut slots)
                .execute_with(|_| Fake { give_up })
                .unwrap();
            let text = String::from_utf8(jsonl.into_inner().unwrap()).unwrap();
            (report, slots.0, text)
        };
        let (clean, _, clean_text) = run(1, None);
        assert_eq!(clean.trials(), TRIALS);
        let surviving: Vec<&str> = clean_text
            .lines()
            .enumerate()
            .filter(|&(i, _)| i != LOST)
            .map(|(_, line)| line)
            .collect();
        let lost_seed = SimRng::seed_from_u64(9).derive(LOST as u64).base_seed();
        let slots: Vec<String> = (0..TRIALS)
            .map(|i| match i {
                LOST => format!("error {i}"),
                _ => format!("trial {i}"),
            })
            .collect();
        for threads in [1, 3] {
            let (report, seen, text) = run(threads, Some(LOST));
            let errors: Vec<(usize, u64)> = report
                .trial_errors()
                .iter()
                .map(|e| (e.trial, e.seed))
                .collect();
            assert_eq!(errors, [(LOST, lost_seed)], "{threads} thread(s)");
            assert_eq!(seen, slots, "{threads} thread(s): trial-order slots");
            assert_eq!(
                text.lines().collect::<Vec<_>>(),
                surviving,
                "{threads} thread(s): surviving records drifted"
            );
            assert_eq!(report.trials() + report.trial_errors().len(), TRIALS);
        }
    }

    #[test]
    fn trajectory_recording_enabled_by_observer() {
        struct WantsTraj(usize);
        impl TrialObserver for WantsTraj {
            fn wants_trajectory(&self) -> bool {
                true
            }
            fn on_trial(&mut self, r: &TrialRecord) -> Result<(), SimError> {
                let traj = r.trajectory.as_ref().expect("recording enabled");
                assert_eq!(traj.last().unwrap().1, r.n);
                self.0 += 1;
                Ok(())
            }
        }
        let mut probe = WantsTraj(0);
        RunPlan::new(3, 9)
            .observer(&mut probe)
            .execute(make_complete, || AnyProtocol::event(CutRateAsync::new()))
            .unwrap();
        assert_eq!(probe.0, 3);
    }
}
