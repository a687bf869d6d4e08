//! The event-stream simulation engine.
//!
//! [`crate::Simulation`] drives a protocol window by window: at every unit
//! boundary the protocol rescans the exposed graph (`O(n + m)`), even when
//! the topology did not change. `EventSimulation` inverts the loop: the
//! protocol's state is built **once**, then advanced per *event* —
//! `O(deg(v))` per newly informed node — and per topology change, using
//! [`DynamicNetwork::edges_changed`] diffs when the network offers them
//! and falling back to a rebuild when it does not.
//!
//! On a static `n`-node graph the whole run costs
//! `O(n + m + events·log n)` instead of `O(windows · (n + m))`; the
//! `benches/engine.rs` comparison quantifies the gap.
//!
//! Correctness: both engines sample the *same* continuous-time process.
//! Within a window they draw the same `Exp(λ)` gaps; across boundaries the
//! memorylessness of exponential clocks makes redrawing equivalent to
//! carrying residuals; and the incremental cut-rate maintenance is exact
//! (see the delta-contract tests in `gossip-dynamics` and the KS
//! equivalence suite in `tests/engine_equivalence.rs`).

use crate::{
    FaultModel, IncrementalProtocol, RunConfig, SimError, SimWorkspace, SpreadOutcome,
    TrialOutcome, WindowCtx,
};
use gossip_dynamics::DynamicNetwork;
use gossip_graph::NodeId;
use gossip_stats::SimRng;

/// Drives an [`IncrementalProtocol`] over a [`DynamicNetwork`] as a stream
/// of sampled events.
///
/// # Example
///
/// ```
/// use gossip_dynamics::StaticNetwork;
/// use gossip_graph::generators;
/// use gossip_sim::{CutRateAsync, EventSimulation, RunConfig};
/// use gossip_stats::SimRng;
///
/// let mut net = StaticNetwork::new(generators::complete(32).unwrap());
/// let mut rng = SimRng::seed_from_u64(5);
/// let outcome = EventSimulation::new(CutRateAsync::new(), RunConfig::default())
///     .run(&mut net, 0, &mut rng)
///     .unwrap();
/// assert!(outcome.complete());
/// ```
#[derive(Debug, Clone)]
pub struct EventSimulation<P> {
    protocol: P,
    config: RunConfig,
    faults: Option<FaultModel>,
}

impl<P: IncrementalProtocol> EventSimulation<P> {
    /// Creates an engine from a protocol and a run configuration.
    pub fn new(protocol: P, config: RunConfig) -> Self {
        EventSimulation {
            protocol,
            config,
            faults: None,
        }
    }

    /// Attaches a fault model; the protocol applies an *active* one (see
    /// [`FaultModel::is_active`]) through
    /// [`IncrementalProtocol::resolve_event_faulty`]. Active delivery chaos
    /// fails with [`SimError::InvalidFaultParam`]: the analytic engines
    /// have no envelopes to perturb.
    /// Fault coins derive from `(model.seed, trial seed)` and are never
    /// drawn from the trial stream, so every fault-free outcome is
    /// bit-identical to a run without the model.
    pub fn with_faults(mut self, faults: FaultModel) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Access to the wrapped protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Runs the protocol from `start` until every node is informed or the
    /// cutoff hits. The network is [`DynamicNetwork::reset`] first.
    ///
    /// Prior protocol state is dropped ([`crate::Protocol::begin`]) and
    /// per-trial scratch comes from a fresh [`SimWorkspace`], so one call
    /// is one trial on fresh storage: the reference that batch drivers,
    /// which recycle storage through [`EventSimulation::run_in`], are
    /// tested against bit for bit.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptyNetwork`], [`SimError::StartOutOfRange`], or
    /// [`SimError::InvalidTimeLimit`] on invalid inputs — the same
    /// contract as [`crate::Simulation::run`].
    pub fn run<N: DynamicNetwork>(
        &mut self,
        net: &mut N,
        start: NodeId,
        rng: &mut SimRng,
    ) -> Result<SpreadOutcome, SimError> {
        let n = self.validate(net, start)?;
        net.reset();
        // Prior protocol state is dropped, and the empty throwaway
        // workspace makes every check-out allocate fresh.
        self.protocol.begin(n);
        let mut ws = SimWorkspace::new();
        self.run_core(&mut ws, net, n, start, rng)
    }

    /// [`EventSimulation::run`] drawing all per-trial scratch — informed
    /// set, trajectory buffer, protocol rate state — from a reusable
    /// [`SimWorkspace`]. After the first trial on a workspace, trial setup
    /// allocates nothing; outcomes are bit-identical to
    /// [`EventSimulation::run`] under the same seed (the workspace reset
    /// invariants guarantee the RNG stream is consumed identically).
    ///
    /// The informed set and trajectory move into the returned
    /// [`SpreadOutcome`]; return them with
    /// [`SimWorkspace`]-aware record assembly (as [`crate::RunPlan`]
    /// does) to close the recycling loop.
    ///
    /// # Errors
    ///
    /// As [`EventSimulation::run`].
    pub fn run_in<N: DynamicNetwork>(
        &mut self,
        ws: &mut SimWorkspace,
        net: &mut N,
        start: NodeId,
        rng: &mut SimRng,
    ) -> Result<SpreadOutcome, SimError> {
        let n = self.validate(net, start)?;
        net.reset();
        self.protocol.begin_in(n, ws);
        self.run_core(ws, net, n, start, rng)
    }

    fn validate<N: DynamicNetwork>(&self, net: &N, start: NodeId) -> Result<usize, SimError> {
        let n = net.n();
        if n == 0 {
            return Err(SimError::EmptyNetwork);
        }
        if start as usize >= n {
            return Err(SimError::StartOutOfRange { start, n });
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.config.max_time > 0.0) {
            return Err(SimError::InvalidTimeLimit(self.config.max_time));
        }
        if let Some(m) = &self.faults {
            m.validate_analytic()?;
        }
        Ok(n)
    }

    fn run_core<N: DynamicNetwork>(
        &mut self,
        ws: &mut SimWorkspace,
        net: &mut N,
        n: usize,
        start: NodeId,
        rng: &mut SimRng,
    ) -> Result<SpreadOutcome, SimError> {
        let mut informed = ws.take_informed(n);
        informed.insert(start);
        let mut trajectory = ws.take_trajectory();

        if informed.is_full() {
            return Ok(SpreadOutcome::finished(0.0, 0, n, informed, trajectory, 0));
        }

        // Fault coins are keyed by the trial seed, so activating a model
        // never perturbs the trial stream.
        let mut fault_state = self
            .faults
            .as_ref()
            .filter(|m| m.is_active())
            .map(|m| m.state_for_trial(n, rng.base_seed()));
        // A trial that meets neither a topology change nor a fault lets
        // the protocol pick a sampler that relies on both.
        let fixed = fault_state.is_none() && net.is_static();
        let budget = self.config.max_events.unwrap_or(u64::MAX);
        let mut events: u64 = 0;
        let mut t: u64 = 0;
        loop {
            // Acquire the window's topology: a reported diff repairs the
            // protocol state in place (once per distinct changed-edge
            // endpoint and stale node); no diff means rebuild.
            let delta = if t == 0 {
                None
            } else {
                net.edges_changed(t, &informed, rng)
            };
            let g = net.topology(t, &informed, rng);
            match (&delta, t) {
                (_, 0) if fixed => self.protocol.rebuild_static(g, &informed, ws),
                (_, 0) => self.protocol.rebuild(g, &informed, ws),
                (Some(d), _) if d.is_empty() => {}
                (Some(d), _) => self.protocol.apply_delta(g, d, &informed, ws),
                (None, _) => self.protocol.rebuild(g, &informed, ws),
            }
            if let Some(fs) = fault_state.as_mut() {
                // Crash/recovery coins for the window, then the liveness
                // check: with no recovery, an all-down informed set can
                // never spread again.
                fs.begin_window(g, t);
                if fs.stuck(&informed) {
                    return Ok(SpreadOutcome::unfinished(
                        t,
                        n,
                        informed,
                        trajectory,
                        events,
                        TrialOutcome::Died,
                    ));
                }
            }
            if self.config.record_trajectory {
                trajectory.push((t as f64, informed.len()));
            }

            // The event loop inside [t, t+1) on the fixed graph g: either
            // the protocol's own specialized loop or the scalar per-event
            // loop (see IncrementalProtocol::drive_window).
            let ctx = WindowCtx {
                faults: fault_state.as_mut(),
                events_left: budget - events,
            };
            let step = self.protocol.drive_window(g, t, &mut informed, rng, ctx);
            events += step.events;
            if let Some(tau) = step.completed_at {
                debug_assert!(informed.is_full(), "completion with uninformed nodes");
                if self.config.record_trajectory {
                    trajectory.push((tau, informed.len()));
                }
                return Ok(SpreadOutcome::finished(
                    tau,
                    t + 1,
                    n,
                    informed,
                    trajectory,
                    events,
                ));
            }

            if events >= budget {
                // Watchdog: the event budget is exhausted without
                // completion — report it rather than spin further.
                return Ok(SpreadOutcome::unfinished(
                    t + 1,
                    n,
                    informed,
                    trajectory,
                    events,
                    TrialOutcome::Budget,
                ));
            }

            t += 1;
            if t as f64 >= self.config.max_time {
                return Ok(SpreadOutcome::unfinished(
                    t,
                    n,
                    informed,
                    trajectory,
                    events,
                    TrialOutcome::Budget,
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsyncPushPull, CutRateAsync, Simulation, TwoPush};
    use gossip_dynamics::{DynamicStar, EdgeMarkovian, SequenceNetwork, StaticNetwork};
    use gossip_graph::generators;
    use gossip_stats::ks;

    #[test]
    fn completes_on_complete_graph() {
        let mut net = StaticNetwork::new(generators::complete(24).unwrap());
        let mut rng = SimRng::seed_from_u64(1);
        let outcome = EventSimulation::new(CutRateAsync::new(), RunConfig::default())
            .run(&mut net, 0, &mut rng)
            .unwrap();
        assert!(outcome.complete());
        assert_eq!(outcome.informed_count(), 24);
    }

    #[test]
    fn validation_matches_window_engine() {
        let mut net = StaticNetwork::new(generators::path(3).unwrap());
        let mut rng = SimRng::seed_from_u64(2);
        let err = EventSimulation::new(CutRateAsync::new(), RunConfig::default())
            .run(&mut net, 9, &mut rng)
            .unwrap_err();
        assert_eq!(err, SimError::StartOutOfRange { start: 9, n: 3 });
        let err = EventSimulation::new(CutRateAsync::new(), RunConfig::with_max_time(0.0))
            .run(&mut net, 0, &mut rng)
            .unwrap_err();
        assert_eq!(err, SimError::InvalidTimeLimit(0.0));
    }

    #[test]
    fn cutoff_on_disconnected() {
        let g = gossip_graph::Graph::from_edges(4, &[(0, 1)]).unwrap();
        let mut net = StaticNetwork::new(g);
        let mut rng = SimRng::seed_from_u64(3);
        let outcome = EventSimulation::new(CutRateAsync::new(), RunConfig::with_max_time(25.0))
            .run(&mut net, 0, &mut rng)
            .unwrap();
        assert!(!outcome.complete());
        assert_eq!(outcome.windows(), 25);
        assert!(outcome.informed_count() <= 2);
    }

    #[test]
    fn same_stream_as_window_engine_on_static_networks() {
        // On a static implicit backend both engines run CutRateAsync's
        // closed form and draw the same RNG stream (one gap and one pool
        // pick per infection): the spread times agree up to float
        // summation order.
        let g = gossip_graph::Topology::star(40, 7).unwrap();
        for seed in 0..20 {
            let mut rng_a = SimRng::seed_from_u64(seed);
            let mut rng_b = SimRng::seed_from_u64(seed);
            let a = Simulation::new(CutRateAsync::new(), RunConfig::default())
                .run(&mut StaticNetwork::from_topology(g.clone()), 0, &mut rng_a)
                .unwrap();
            let b = EventSimulation::new(CutRateAsync::new(), RunConfig::default())
                .run(&mut StaticNetwork::from_topology(g.clone()), 0, &mut rng_b)
                .unwrap();
            let (ta, tb) = (a.spread_time().unwrap(), b.spread_time().unwrap());
            assert!((ta - tb).abs() < 1e-9, "seed {seed}: {ta} vs {tb}");
        }
    }

    #[test]
    fn trajectory_recorded_and_monotone() {
        let mut net = StaticNetwork::new(generators::cycle(20).unwrap());
        let mut rng = SimRng::seed_from_u64(4);
        let outcome = EventSimulation::new(AsyncPushPull::new(), RunConfig::default().recording())
            .run(&mut net, 0, &mut rng)
            .unwrap();
        let traj = outcome.trajectory();
        assert!(traj.len() >= 2);
        for w in traj.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(traj.last().unwrap().1, 20);
    }

    #[test]
    fn matches_window_engine_distribution_on_dynamic_star() {
        // The dynamic star declines deltas (rebuild fallback) and is
        // adaptive — the stress case for boundary handling.
        let base = SimRng::seed_from_u64(50);
        let mut window = Vec::new();
        let mut event = Vec::new();
        for i in 0..800 {
            let mut rng = base.derive(i);
            let mut net = DynamicStar::new(9).unwrap();
            let start = {
                use gossip_dynamics::DynamicNetwork as _;
                net.suggested_start()
            };
            window.push(
                Simulation::new(CutRateAsync::new(), RunConfig::default())
                    .run(&mut net, start, &mut rng)
                    .unwrap()
                    .spread_time()
                    .unwrap(),
            );
            let mut rng = base.derive(100_000 + i);
            let mut net = DynamicStar::new(9).unwrap();
            event.push(
                EventSimulation::new(CutRateAsync::new(), RunConfig::default())
                    .run(&mut net, start, &mut rng)
                    .unwrap()
                    .spread_time()
                    .unwrap(),
            );
        }
        assert!(
            ks::same_distribution(&window, &event, 0.001),
            "KS = {}",
            ks::ks_statistic(&window, &event)
        );
    }

    #[test]
    fn sequence_network_deltas_applied_exactly() {
        // Alternating path/cycle schedule exercises apply_delta on every
        // boundary; distribution must match the rebuilding window engine.
        let make = || {
            SequenceNetwork::cycling(vec![
                generators::path(12).unwrap(),
                generators::cycle(12).unwrap(),
            ])
            .unwrap()
        };
        let base = SimRng::seed_from_u64(60);
        let mut window = Vec::new();
        let mut event = Vec::new();
        for i in 0..800 {
            let mut rng = base.derive(i);
            window.push(
                Simulation::new(CutRateAsync::new(), RunConfig::default())
                    .run(&mut make(), 0, &mut rng)
                    .unwrap()
                    .spread_time()
                    .unwrap(),
            );
            let mut rng = base.derive(100_000 + i);
            event.push(
                EventSimulation::new(CutRateAsync::new(), RunConfig::default())
                    .run(&mut make(), 0, &mut rng)
                    .unwrap()
                    .spread_time()
                    .unwrap(),
            );
        }
        assert!(
            ks::same_distribution(&window, &event, 0.001),
            "KS = {}",
            ks::ks_statistic(&window, &event)
        );
    }

    #[test]
    fn lossy_downtime_redrawn_per_window() {
        // `lossy`'s regime on the fault layer: 10% loss, every node down
        // for a whole window with probability 0.5, redrawn every window.
        let faults = FaultModel {
            drop: 0.1,
            downtime: 0.5,
            ..FaultModel::default()
        };
        let report = crate::RunPlan::new(40, 70)
            .config(RunConfig::with_max_time(500.0))
            .faults(faults)
            .execute(
                || StaticNetwork::new(generators::cycle(12).unwrap()),
                || crate::AnyProtocol::event(CutRateAsync::new()),
            )
            .unwrap();
        assert!(
            report.completed() >= 38,
            "only {}/40 completed",
            report.completed()
        );
    }

    #[test]
    fn edge_markovian_incremental_run() {
        let mut rng = SimRng::seed_from_u64(80);
        let initial = generators::erdos_renyi(40, 0.15, &mut rng).unwrap();
        let mut net = EdgeMarkovian::new(initial, 0.05, 0.2).unwrap();
        let o = EventSimulation::new(TwoPush::new(), RunConfig::with_max_time(1e4))
            .run(&mut net, 0, &mut rng)
            .unwrap();
        assert!(
            o.complete(),
            "edge-Markovian run should finish well before 1e4"
        );
    }
}
