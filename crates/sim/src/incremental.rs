//! The event-stream protocol interface.
//!
//! [`crate::Protocol::advance_window`] hands a protocol one whole window and
//! lets it rescan the graph at every boundary — `O(n + m)` work per window
//! even when nothing changed. [`IncrementalProtocol`] decomposes the same
//! process into the pieces the [`crate::EventSimulation`] engine schedules:
//!
//! * [`IncrementalProtocol::rebuild`] — full state construction (graph
//!   replaced wholesale);
//! * [`IncrementalProtocol::apply_delta`] — repair after a reported
//!   [`EdgeDelta`]: for the cut-rate protocol, one mark per changed-edge
//!   endpoint, one row walk per distinct informed endpoint, `O(deg)` per
//!   distinct stale node in the vectorized lane, one frontier scan when a
//!   rate fell to zero, and an `n/64`-word scan of the stale bitset — or,
//!   for a dense delta with at least `2n` changed edges, a rebuild;
//! * [`IncrementalProtocol::event_rate`] — the total rate `λ` of the
//!   protocol's superposed Poisson event clock;
//! * [`IncrementalProtocol::resolve_event`] — resolve one clock tick,
//!   possibly informing a node;
//! * [`IncrementalProtocol::commit`] — `O(deg(v))` frontier update after
//!   `v` joined the informed set.
//!
//! Each migrated protocol keeps its window-based `advance_window`
//! implementation as the independently-tested reference; the equivalence
//! tests cross-validate the two engines' spread-time distributions.

use crate::async_naive::{resolve_tick, resolve_tick_faulty, Direction};
use crate::{
    AsyncPull, AsyncPush, AsyncPushPull, CutRateAsync, FaultState, Protocol, SimWorkspace, TwoPush,
};
use gossip_dynamics::EdgeDelta;
use gossip_graph::{NodeId, NodeSet, Topology};
use gossip_stats::SimRng;

/// What one [`IncrementalProtocol::drive_window`] call did inside its unit
/// window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStep {
    /// `Some(tau)` when the last uninformed node was informed at time
    /// `tau` inside this window; `None` when the window closed (or the
    /// event clock idled) with the spread still incomplete.
    pub completed_at: Option<f64>,
    /// Number of Poisson events resolved in this window (informative or
    /// not) — the unit of the events/sec throughput accounting.
    pub events: u64,
}

/// Engine-supplied context for one [`IncrementalProtocol::drive_window`]
/// call: the active fault state (if any) and the remaining event budget.
#[derive(Debug)]
pub struct WindowCtx<'a> {
    /// The per-trial fault state, already advanced to this window via
    /// [`FaultState::begin_window`]; `None` when no faults are active.
    /// When `Some`, the loop must veto events through the fault state
    /// (as [`IncrementalProtocol::resolve_event_faulty`] does).
    pub faults: Option<&'a mut FaultState>,
    /// How many more Poisson events this trial may resolve
    /// ([`crate::RunConfig::max_events`] watchdog); `u64::MAX` when
    /// unbounded. The loop must return — before drawing the next clock
    /// gap — once it has resolved this many events in the window.
    pub events_left: u64,
}

impl<'a> WindowCtx<'a> {
    /// A fault-free, unbounded context (the common case).
    pub fn unbounded() -> Self {
        WindowCtx {
            faults: None,
            events_left: u64::MAX,
        }
    }
}

/// A protocol whose per-node state advances event by event instead of
/// window by window.
///
/// Implementations must keep the sampled process distribution identical to
/// their [`Protocol::advance_window`] reference: the engine draws the next
/// event after `Exp(event_rate)` and resolves it through
/// [`IncrementalProtocol::resolve_event`].
///
/// A protocol owns only its contact process. Per-window randomness that
/// is not topology — node liveness, message drops — is the engine's fault
/// layer, handed to the event loop as [`WindowCtx::faults`].
///
/// State-building hooks receive the engine's [`SimWorkspace`] so scratch
/// storage (uninformed pools, delta-repair marks) can be recycled across
/// trials instead of re-allocated; implementations may ignore it.
/// Whatever they check out must be reset to the exact state a fresh
/// allocation would have — the workspace is a memory optimization, never
/// an observable input (see the [`SimWorkspace`] invariants).
pub trait IncrementalProtocol: Protocol {
    /// Trial-boundary reset for the workspace-reuse path: like
    /// [`Protocol::begin`], but retained allocations are parked in the
    /// workspace for this trial's [`IncrementalProtocol::rebuild`] to
    /// check out again. The default ignores the workspace and delegates
    /// to `begin` (correct for stateless protocols).
    fn begin_in(&mut self, n: usize, ws: &mut SimWorkspace) {
        let _ = ws;
        self.begin(n);
    }

    /// Rebuilds all internal event state for graph `g` and the informed
    /// set (called at the start of a run and whenever the network declines
    /// to report a delta).
    fn rebuild(&mut self, g: &Topology, informed: &NodeSet, ws: &mut SimWorkspace);

    /// [`IncrementalProtocol::rebuild`] at the start of a trial that will
    /// see neither a topology change nor a fault: the network is static
    /// ([`gossip_dynamics::DynamicNetwork::is_static`]) and no fault model
    /// is active. A protocol may then pick a sampler that needs both
    /// promises (the cut-rate protocol's contact sampler). The default
    /// rebuilds.
    fn rebuild_static(&mut self, g: &Topology, informed: &NodeSet, ws: &mut SimWorkspace) {
        self.rebuild(g, informed, ws);
    }

    /// Repairs internal state after a topology delta (the graph `g` is the
    /// *post-delta* graph). The default falls back to a full rebuild; an
    /// implementation may also rebuild when that is cheaper than a repair
    /// (the cut-rate protocol does for dense deltas), as long as both
    /// paths leave an exact state.
    fn apply_delta(
        &mut self,
        g: &Topology,
        delta: &EdgeDelta,
        informed: &NodeSet,
        ws: &mut SimWorkspace,
    ) {
        let _ = delta;
        self.rebuild(g, informed, ws);
    }

    /// Total rate `λ` of the protocol's event clock in its current state;
    /// `0` means no event can change anything under this graph (the engine
    /// idles to the next window).
    fn event_rate(&self, g: &Topology, informed: &NodeSet) -> f64;

    /// Resolves one event of the superposed clock: returns the node that
    /// becomes informed, or `None` for a non-informative event (the clock
    /// tick of an uninformed node, a dropped message, …).
    ///
    /// The engine inserts the returned node into `informed` and then calls
    /// [`IncrementalProtocol::commit`]; `resolve_event` itself must not
    /// mutate the informed set.
    fn resolve_event(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
    ) -> Option<NodeId>;

    /// [`IncrementalProtocol::resolve_event`] under an active fault
    /// state: the tick must additionally be voided when a down node is
    /// involved or the fault drop coin fires (exact thinning — see the
    /// `fault` module docs). Fault coins come from `faults`' dedicated
    /// RNG, never from `rng`, so the trial stream is untouched. Every
    /// event-engine protocol honors an active [`crate::FaultModel`]
    /// through this method.
    fn resolve_event_faulty(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
        faults: &mut FaultState,
    ) -> Option<NodeId>;

    /// `O(deg(v))` state update after `v` was inserted into `informed`.
    fn commit(&mut self, g: &Topology, v: NodeId, informed: &NodeSet);

    /// Drives the whole event loop of window `[t, t + 1)` on the fixed
    /// graph `g`, informing nodes into `informed` until the window closes,
    /// the event clock idles, the event budget runs out, or the spread
    /// completes.
    ///
    /// `ctx` carries the active fault state and the remaining event
    /// budget (see [`WindowCtx`]).
    /// The default delegates to [`generic_drive_window`], the scalar
    /// per-event loop. A protocol may override it with a specialized
    /// loop that keeps its state in that loop's layout and consumes the
    /// per-trial RNG stream in its own order, as long as it samples the
    /// same process and stays deterministic per `(seed, trial)` (the
    /// cut-rate protocol's vectorized lane, KS-checked against the window
    /// engine by `tests/vectorized_equivalence.rs`). Such state may be
    /// advanced by that loop alone, so a wrapper must forward this method.
    fn drive_window(
        &mut self,
        g: &Topology,
        t: u64,
        informed: &mut NodeSet,
        rng: &mut SimRng,
        ctx: WindowCtx<'_>,
    ) -> WindowStep {
        generic_drive_window(self, g, t, informed, rng, ctx)
    }
}

/// The scalar per-event loop for one unit window `[t, t + 1)`:
/// draw `Exp(event_rate)` gaps, resolve each event through the protocol's
/// virtual interface, insert and commit informed nodes.
///
/// This is the loop every protocol runs unless it overrides
/// [`IncrementalProtocol::drive_window`]; the cut-rate protocol runs it
/// on its closed-form states.
pub(crate) fn generic_drive_window<P: IncrementalProtocol + ?Sized>(
    protocol: &mut P,
    g: &Topology,
    t: u64,
    informed: &mut NodeSet,
    rng: &mut SimRng,
    ctx: WindowCtx<'_>,
) -> WindowStep {
    let WindowCtx {
        mut faults,
        events_left,
        ..
    } = ctx;
    let mut tau = t as f64;
    let end = (t + 1) as f64;
    let mut events = 0u64;
    loop {
        if events == events_left {
            break; // event budget exhausted: stop before the next gap draw
        }
        let lambda = protocol.event_rate(g, informed);
        if lambda <= 0.0 {
            break; // idle until the next topology change
        }
        tau += -rng.uniform_open().ln() / lambda;
        if tau >= end {
            break;
        }
        events += 1;
        let resolved = match faults.as_deref_mut() {
            Some(f) => protocol.resolve_event_faulty(g, informed, rng, f),
            None => protocol.resolve_event(g, informed, rng),
        };
        if let Some(v) = resolved {
            debug_assert!(!informed.contains(v), "event informed a known node");
            informed.insert(v);
            if informed.is_full() {
                return WindowStep {
                    completed_at: Some(tau),
                    events,
                };
            }
            protocol.commit(g, v, informed);
        }
    }
    WindowStep {
        completed_at: None,
        events,
    }
}

impl<T: IncrementalProtocol + ?Sized> IncrementalProtocol for &mut T {
    fn begin_in(&mut self, n: usize, ws: &mut SimWorkspace) {
        (**self).begin_in(n, ws)
    }

    fn rebuild(&mut self, g: &Topology, informed: &NodeSet, ws: &mut SimWorkspace) {
        (**self).rebuild(g, informed, ws)
    }

    fn rebuild_static(&mut self, g: &Topology, informed: &NodeSet, ws: &mut SimWorkspace) {
        (**self).rebuild_static(g, informed, ws)
    }

    fn apply_delta(
        &mut self,
        g: &Topology,
        delta: &EdgeDelta,
        informed: &NodeSet,
        ws: &mut SimWorkspace,
    ) {
        (**self).apply_delta(g, delta, informed, ws)
    }

    fn event_rate(&self, g: &Topology, informed: &NodeSet) -> f64 {
        (**self).event_rate(g, informed)
    }

    fn resolve_event(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
    ) -> Option<NodeId> {
        (**self).resolve_event(g, informed, rng)
    }

    fn resolve_event_faulty(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
        faults: &mut FaultState,
    ) -> Option<NodeId> {
        (**self).resolve_event_faulty(g, informed, rng, faults)
    }

    fn commit(&mut self, g: &Topology, v: NodeId, informed: &NodeSet) {
        (**self).commit(g, v, informed)
    }

    fn drive_window(
        &mut self,
        g: &Topology,
        t: u64,
        informed: &mut NodeSet,
        rng: &mut SimRng,
        ctx: WindowCtx<'_>,
    ) -> WindowStep {
        (**self).drive_window(g, t, informed, rng, ctx)
    }
}

impl<T: IncrementalProtocol + ?Sized> IncrementalProtocol for Box<T> {
    fn begin_in(&mut self, n: usize, ws: &mut SimWorkspace) {
        (**self).begin_in(n, ws)
    }

    fn rebuild(&mut self, g: &Topology, informed: &NodeSet, ws: &mut SimWorkspace) {
        (**self).rebuild(g, informed, ws)
    }

    fn rebuild_static(&mut self, g: &Topology, informed: &NodeSet, ws: &mut SimWorkspace) {
        (**self).rebuild_static(g, informed, ws)
    }

    fn apply_delta(
        &mut self,
        g: &Topology,
        delta: &EdgeDelta,
        informed: &NodeSet,
        ws: &mut SimWorkspace,
    ) {
        (**self).apply_delta(g, delta, informed, ws)
    }

    fn event_rate(&self, g: &Topology, informed: &NodeSet) -> f64 {
        (**self).event_rate(g, informed)
    }

    fn resolve_event(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
    ) -> Option<NodeId> {
        (**self).resolve_event(g, informed, rng)
    }

    fn resolve_event_faulty(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
        faults: &mut FaultState,
    ) -> Option<NodeId> {
        (**self).resolve_event_faulty(g, informed, rng, faults)
    }

    fn commit(&mut self, g: &Topology, v: NodeId, informed: &NodeSet) {
        (**self).commit(g, v, informed)
    }

    fn drive_window(
        &mut self,
        g: &Topology,
        t: u64,
        informed: &mut NodeSet,
        rng: &mut SimRng,
        ctx: WindowCtx<'_>,
    ) -> WindowStep {
        (**self).drive_window(g, t, informed, rng, ctx)
    }
}

// ---------------------------------------------------------------------------
// CutRateAsync: the protocol the event stream was designed around. Only
// informative events are scheduled (λ = the paper's Equation (1) cut rate),
// so every resolve_event informs a node.
// ---------------------------------------------------------------------------

impl IncrementalProtocol for CutRateAsync {
    fn begin_in(&mut self, n: usize, ws: &mut SimWorkspace) {
        self.begin_reusing(n, ws);
    }

    fn rebuild(&mut self, g: &Topology, informed: &NodeSet, ws: &mut SimWorkspace) {
        self.rebuild_rates_in(g, informed, ws);
    }

    fn rebuild_static(&mut self, g: &Topology, informed: &NodeSet, ws: &mut SimWorkspace) {
        self.rebuild_rates_static(g, informed, ws);
    }

    /// Repairs a sparse delta in place ([`CutRateAsync::repair_delta`]),
    /// in the vectorized lane, whether or not it changes a degree. A dense
    /// delta, with at least twice as many changed edges as nodes (every
    /// node touched about four times), rebuilds instead: one pass over the
    /// rows and an `O(n)` build beat a recompute per stale node.
    /// Closed-form states (implicit complete and star backends) always
    /// rebuild — that is O(n), no slower than walking a delta. Both paths
    /// are exact; they sum the rates and `λ` in different orders, so they
    /// agree to the last bits.
    fn apply_delta(
        &mut self,
        g: &Topology,
        delta: &EdgeDelta,
        informed: &NodeSet,
        ws: &mut SimWorkspace,
    ) {
        if delta.len() < 2 * g.n() && self.repairs() {
            self.repair_delta(g, delta, informed, ws);
        } else {
            self.rebuild(g, informed, ws);
        }
    }

    fn event_rate(&self, _g: &Topology, _informed: &NodeSet) -> f64 {
        self.total_rate()
    }

    fn resolve_event(
        &mut self,
        _g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
    ) -> Option<NodeId> {
        let v = self.sample_next(rng);
        debug_assert!(
            v.is_none_or(|v| !informed.contains(v)),
            "cut-rate sampler returned an informed node"
        );
        v
    }

    /// Exact thinning of the cut-rate proposal: the sampler keeps drawing
    /// from the fault-free rates (trial RNG untouched) and the fault
    /// state vetoes the proposed node with the complementary probability
    /// of `(1 − drop) · r'_v / r_v` (see [`FaultState::accepts_cut_event`]).
    /// A vetoed proposal is a non-informative event: no commit, rates
    /// unchanged.
    fn resolve_event_faulty(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        rng: &mut SimRng,
        faults: &mut FaultState,
    ) -> Option<NodeId> {
        let v = self.resolve_event(g, informed, rng)?;
        faults.accepts_cut_event(g, informed, v).then_some(v)
    }

    fn commit(&mut self, g: &Topology, v: NodeId, informed: &NodeSet) {
        self.absorb_informed(g, v, informed);
    }

    /// Generic backends run their own loops (see `async_cut.rs`): the
    /// contact sampler of a static, fault-free trial until it hands over,
    /// and the vectorized frontier loop on every other window, static or
    /// dynamic. Closed-form pool states run `generic_drive_window`. On
    /// generic backends the state lives only in those loops:
    /// `resolve_event` and `commit` serve the closed-form states.
    fn drive_window(
        &mut self,
        g: &Topology,
        t: u64,
        informed: &mut NodeSet,
        rng: &mut SimRng,
        ctx: WindowCtx<'_>,
    ) -> WindowStep {
        if self.runs_own_loop() {
            self.drive_own_loop(g, t, informed, rng, ctx.faults, ctx.events_left)
        } else {
            generic_drive_window(self, g, t, informed, rng, ctx)
        }
    }
}

// ---------------------------------------------------------------------------
// Naive tick-by-tick protocols: the event clock is every node's rate-1
// clock superposed (λ = n), resolution replays exactly the window-based
// loop body. No per-topology state at all.
// ---------------------------------------------------------------------------

macro_rules! impl_incremental_naive {
    ($ty:ty, $rate:expr, $resolve:expr, $resolve_faulty:expr) => {
        impl IncrementalProtocol for $ty {
            fn rebuild(&mut self, _g: &Topology, _informed: &NodeSet, _ws: &mut SimWorkspace) {}

            fn apply_delta(
                &mut self,
                _g: &Topology,
                _delta: &EdgeDelta,
                _informed: &NodeSet,
                _ws: &mut SimWorkspace,
            ) {
            }

            fn event_rate(&self, g: &Topology, _informed: &NodeSet) -> f64 {
                #[allow(clippy::redundant_closure_call)]
                ($rate)(g)
            }

            fn resolve_event(
                &mut self,
                g: &Topology,
                informed: &NodeSet,
                rng: &mut SimRng,
            ) -> Option<NodeId> {
                #[allow(clippy::redundant_closure_call)]
                ($resolve)(g, informed, rng)
            }

            fn resolve_event_faulty(
                &mut self,
                g: &Topology,
                informed: &NodeSet,
                rng: &mut SimRng,
                faults: &mut FaultState,
            ) -> Option<NodeId> {
                #[allow(clippy::redundant_closure_call)]
                ($resolve_faulty)(g, informed, rng, faults)
            }

            fn commit(&mut self, _g: &Topology, _v: NodeId, _informed: &NodeSet) {}
        }
    };
}

impl_incremental_naive!(
    AsyncPushPull,
    |g: &Topology| g.n() as f64,
    |g: &Topology, informed: &NodeSet, rng: &mut SimRng| resolve_tick(
        Direction::PushPull,
        g,
        informed,
        rng
    ),
    |g: &Topology, informed: &NodeSet, rng: &mut SimRng, faults: &mut FaultState| {
        resolve_tick_faulty(Direction::PushPull, g, informed, rng, faults)
    }
);
impl_incremental_naive!(
    AsyncPush,
    |g: &Topology| g.n() as f64,
    |g: &Topology, informed: &NodeSet, rng: &mut SimRng| resolve_tick(
        Direction::Push,
        g,
        informed,
        rng
    ),
    |g: &Topology, informed: &NodeSet, rng: &mut SimRng, faults: &mut FaultState| {
        resolve_tick_faulty(Direction::Push, g, informed, rng, faults)
    }
);
impl_incremental_naive!(
    AsyncPull,
    |g: &Topology| g.n() as f64,
    |g: &Topology, informed: &NodeSet, rng: &mut SimRng| resolve_tick(
        Direction::Pull,
        g,
        informed,
        rng
    ),
    |g: &Topology, informed: &NodeSet, rng: &mut SimRng, faults: &mut FaultState| {
        resolve_tick_faulty(Direction::Pull, g, informed, rng, faults)
    }
);

// 2-push: rate-2 clocks, informed callers push to a uniform neighbor.
impl_incremental_naive!(
    TwoPush,
    |g: &Topology| 2.0 * g.n() as f64,
    |g: &Topology, informed: &NodeSet, rng: &mut SimRng| {
        let caller = rng.index(g.n()) as NodeId;
        if !informed.contains(caller) {
            return None;
        }
        let deg = g.degree(caller);
        if deg == 0 {
            return None;
        }
        let callee = g.neighbor(caller, rng.index(deg));
        (!informed.contains(callee)).then_some(callee)
    },
    |g: &Topology, informed: &NodeSet, rng: &mut SimRng, faults: &mut FaultState| {
        let caller = rng.index(g.n()) as NodeId;
        if !informed.contains(caller) || faults.is_down(caller) {
            return None;
        }
        let deg = g.degree(caller);
        if deg == 0 {
            return None;
        }
        let callee = g.neighbor(caller, rng.index(deg));
        if informed.contains(callee) || faults.is_down(callee) || faults.drops_message() {
            return None;
        }
        Some(callee)
    }
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_safe() {
        let mut ws = SimWorkspace::new();
        let mut boxed: Box<dyn IncrementalProtocol> = Box::new(AsyncPushPull::new());
        let g = Topology::materialized(gossip_graph::Graph::from_edges(2, &[(0, 1)]).unwrap());
        let mut informed = NodeSet::new(2);
        informed.insert(0);
        boxed.begin_in(2, &mut ws);
        boxed.rebuild(&g, &informed, &mut ws);
        assert_eq!(boxed.event_rate(&g, &informed), 2.0);
        let mut rng = SimRng::seed_from_u64(1);
        // On a 2-path with one informed node, every contact is informative.
        assert_eq!(boxed.resolve_event(&g, &informed, &mut rng), Some(1));
    }

    #[test]
    fn cut_rate_delta_repair_matches_rebuild() {
        // Repairing after a delta must leave identical rates to a fresh
        // rebuild on the new graph.
        let old = gossip_graph::generators::cycle(10).unwrap();
        let new = {
            let mut edges: Vec<(u32, u32)> = old.edges().collect();
            edges.retain(|&e| e != (3, 4));
            edges.push((0, 5));
            edges.push((2, 7));
            gossip_graph::Graph::from_edges(10, &edges).unwrap()
        };
        let delta = EdgeDelta::between(&old, &new);
        let old = Topology::materialized(old);
        let new = Topology::materialized(new);
        let mut informed = NodeSet::new(10);
        for v in [0, 1, 2, 3] {
            informed.insert(v);
        }

        let mut ws = SimWorkspace::new();
        let mut repaired = CutRateAsync::new();
        repaired.begin(10);
        repaired.rebuild(&old, &informed, &mut ws);
        repaired.apply_delta(&new, &delta, &informed, &mut ws);

        let mut fresh = CutRateAsync::new();
        fresh.begin(10);
        fresh.rebuild(&new, &informed, &mut ws);

        for v in 0..10u32 {
            assert!(
                (repaired.rate_of(v) - fresh.rate_of(v)).abs() < 1e-12,
                "rate mismatch at node {v}: {} vs {}",
                repaired.rate_of(v),
                fresh.rate_of(v)
            );
        }
    }

    #[test]
    fn cut_rate_delta_repair_is_operation_identical() {
        // One edge-Markovian step whose delta touches most nodes several
        // times, on a mid-spread informed set. The marked repair must make
        // the same recompute calls, in the same order, as the push / sort /
        // dedup reference below: same floats, same λ sum, same frontier
        // order, same draws.
        use gossip_dynamics::{DynamicNetwork, EdgeMarkovian};
        let n = 400;
        let mut rng = SimRng::seed_from_u64(21);
        let initial = gossip_graph::generators::erdos_renyi(n, 0.05, &mut rng).unwrap();
        let mut net = EdgeMarkovian::new(initial, 0.02, 0.3).unwrap();
        let mut informed = NodeSet::new(n);
        for v in 0..n as NodeId {
            if rng.chance(0.4) {
                informed.insert(v);
            }
        }
        let old = net.topology(0, &informed, &mut rng).clone();
        let delta = net.edges_changed(1, &informed, &mut rng).unwrap();
        let new = net.topology(1, &informed, &mut rng).clone();
        let mut touches = vec![0usize; n];
        for e in delta.touched_nodes() {
            touches[e as usize] += 1;
        }
        assert!(touches.iter().filter(|&&c| c >= 3).count() > n / 2);

        let mut ws = SimWorkspace::new();
        let mut repaired = CutRateAsync::new();
        repaired.begin(n);
        repaired.rebuild(&old, &informed, &mut ws);
        let mut reference = repaired.clone();
        repaired.repair_delta(&new, &delta, &informed, &mut ws);

        let mut touched: Vec<NodeId> = delta.touched_nodes().collect();
        let mut stale = Vec::new();
        for &e in &touched {
            if informed.contains(e) {
                new.for_each_neighbor(e, |w| {
                    if !informed.contains(w) {
                        stale.push(w);
                    }
                });
            } else {
                stale.push(e);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        stale.sort_unstable();
        stale.dedup();
        reference.repair_lane(&new, touched, stale, &informed);

        assert!(same_state(&repaired, &reference, &new, &informed));
    }

    /// One edge-Markovian step on a 40%-informed `G(n, p0)`: the two
    /// graphs, the delta and the informed set.
    fn edge_markovian_step(
        n: usize,
        p0: f64,
        p: f64,
        q: f64,
    ) -> (Topology, Topology, EdgeDelta, NodeSet) {
        use gossip_dynamics::{DynamicNetwork, EdgeMarkovian};
        let mut rng = SimRng::seed_from_u64(33);
        let initial = gossip_graph::generators::erdos_renyi(n, p0, &mut rng).unwrap();
        let mut net = EdgeMarkovian::new(initial, p, q).unwrap();
        let mut informed = NodeSet::new(n);
        for v in 0..n as NodeId {
            if rng.chance(0.4) {
                informed.insert(v);
            }
        }
        let old = net.topology(0, &informed, &mut rng).clone();
        let delta = net.edges_changed(1, &informed, &mut rng).unwrap();
        let new = net.topology(1, &informed, &mut rng).clone();
        (old, new, delta, informed)
    }

    /// The rate state after `apply_delta`, after a fresh `rebuild` on the
    /// new graph, and after `repair_delta`, all from the old graph's state.
    fn three_ways(
        (old, new, delta, informed): &(Topology, Topology, EdgeDelta, NodeSet),
    ) -> [CutRateAsync; 3] {
        let mut ws = SimWorkspace::new();
        let mut applied = CutRateAsync::new();
        applied.begin(old.n());
        applied.rebuild(old, informed, &mut ws);
        let (mut rebuilt, mut repaired) = (applied.clone(), applied.clone());
        applied.apply_delta(new, delta, informed, &mut ws);
        rebuilt.rebuild(new, informed, &mut ws);
        repaired.repair_delta(new, delta, informed, &mut ws);
        [applied, rebuilt, repaired]
    }

    /// Bit-identical rates, total, frontier order and draws: up to 200
    /// vectorized events of window 1 on `g` inform the same nodes.
    fn same_state(a: &CutRateAsync, b: &CutRateAsync, g: &Topology, informed: &NodeSet) -> bool {
        let draws = |p: &CutRateAsync| {
            let (mut p, mut informed) = (p.clone(), informed.clone());
            let mut rng = SimRng::seed_from_u64(9);
            lane_events(&mut p, g, 1, &mut informed, &mut rng, 200);
            informed
        };
        (0..g.n() as NodeId).all(|v| a.rate_of(v).to_bits() == b.rate_of(v).to_bits())
            && a.total_rate().to_bits() == b.total_rate().to_bits()
            && a.lane_frontier() == b.lane_frontier()
            && draws(a) == draws(b)
    }

    #[test]
    fn cut_rate_dense_delta_rebuilds_and_sparse_repairs() {
        // Dense: ≈ 6 changed edges per node. Sparse: ≈ 0.25 per node.
        // On both, the repair and the rebuild differ in their last bits,
        // so the bit-identical match names the path apply_delta took.
        let dense = edge_markovian_step(400, 0.05, 0.02, 0.3);
        assert!(dense.2.len() >= 2 * 400);
        let [applied, rebuilt, repaired] = three_ways(&dense);
        assert!(same_state(&applied, &rebuilt, &dense.1, &dense.3));
        assert!(!same_state(&applied, &repaired, &dense.1, &dense.3));

        let sparse = edge_markovian_step(400, 0.05, 0.0001, 0.005);
        assert!(!sparse.2.is_empty() && sparse.2.len() < 400);
        let [applied, rebuilt, repaired] = three_ways(&sparse);
        assert!(same_state(&applied, &repaired, &sparse.1, &sparse.3));
        assert!(!same_state(&applied, &rebuilt, &sparse.1, &sparse.3));
    }

    #[test]
    fn cut_rate_dense_rebuild_matches_the_repair() {
        // Both paths are exact: after a dense edge-Markovian delta every
        // in-rate and λ agree to 1e-12 relative.
        let step = edge_markovian_step(600, 0.03, 0.01, 0.2);
        assert!(step.2.len() >= 2 * 600);
        let [applied, _, repaired] = three_ways(&step);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
        for v in 0..600 {
            assert!(
                close(applied.rate_of(v), repaired.rate_of(v)),
                "node {v}: {} vs {}",
                applied.rate_of(v),
                repaired.rate_of(v)
            );
        }
        assert!(close(applied.total_rate(), repaired.total_rate()));
    }

    /// A cut-rate protocol on `g`, rebuilt for `informed` (the lane on
    /// the materialized graphs below).
    fn lane_on(g: &Topology, informed: &NodeSet, ws: &mut SimWorkspace) -> CutRateAsync {
        let mut p = CutRateAsync::new();
        p.begin(g.n());
        p.rebuild(g, informed, ws);
        p
    }

    /// Every rate and `λ` agree with a lane built from scratch on `g` to
    /// 1e-12 relative, and the frontier is the same set, listed once.
    fn assert_lane_matches_fresh(p: &CutRateAsync, g: &Topology, informed: &NodeSet) {
        let fresh = lane_on(g, informed, &mut SimWorkspace::new());
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
        for v in 0..g.n() as NodeId {
            let (a, b) = (p.rate_of(v), fresh.rate_of(v));
            assert!(close(a, b), "node {v}: repaired {a} vs fresh {b}");
        }
        let (a, b) = (p.total_rate(), fresh.total_rate());
        assert!(close(a, b), "lambda: repaired {a} vs fresh {b}");
        let mut members = p.lane_frontier().expect("repairs keep the lane");
        let mut expected = fresh.lane_frontier().expect("vectorized builds the lane");
        members.sort_unstable();
        let listed = members.len();
        members.dedup();
        assert_eq!(members.len(), listed, "a frontier member is listed twice");
        expected.sort_unstable();
        assert_eq!(members, expected, "frontier sets differ");
    }

    /// Up to `events` vectorized events of window `t`.
    fn lane_events(
        p: &mut CutRateAsync,
        g: &Topology,
        t: u64,
        informed: &mut NodeSet,
        rng: &mut SimRng,
        events: u64,
    ) {
        let ctx = WindowCtx {
            faults: None,
            events_left: events,
        };
        p.drive_window(g, t, informed, rng, ctx);
    }

    /// `g` without `remove` and with `add`.
    fn edited(
        g: &gossip_graph::Graph,
        remove: &[(NodeId, NodeId)],
        add: &[(NodeId, NodeId)],
    ) -> gossip_graph::Graph {
        let edges: Vec<(NodeId, NodeId)> = g
            .edges()
            .filter(|&(u, v)| !remove.contains(&(u, v)) && !remove.contains(&(v, u)))
            .chain(add.iter().copied())
            .collect();
        gossip_graph::Graph::from_edges(g.n(), &edges).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The lane repaired across sparse deltas, with vectorized events
        /// between them, equals a lane built on the post-delta graph. The
        /// deltas cycle through cutting a frontier node off the informed
        /// side (its rate falls to 0), isolating a node, and changing an
        /// informed node's degree, each with a few random flips.
        #[test]
        fn lane_delta_repair_matches_a_fresh_build(seed in 0u64..10_000, n in 8usize..40) {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut graph = gossip_graph::generators::erdos_renyi(n, 0.15 + 0.3 * rng.uniform_f64(), &mut rng).unwrap();
            let mut informed = NodeSet::new(n);
            informed.insert(0);
            for v in 1..n as NodeId {
                if rng.chance(0.3) {
                    informed.insert(v);
                }
            }
            let mut ws = SimWorkspace::new();
            let mut topo = Topology::materialized(graph.clone());
            let mut p = lane_on(&topo, &informed, &mut ws);
            for step in 0..6u64 {
                let events = 1 + rng.index(3) as u64;
                lane_events(&mut p, &topo, step, &mut informed, &mut rng, events);
                let (mut remove, mut add) = (Vec::new(), Vec::new());
                let mut cut_off = None;
                match step % 3 {
                    0 => {
                        // A frontier node loses every informed neighbor.
                        let frontier = p.lane_frontier().unwrap();
                        if let Some(&v) = frontier.get(rng.index(frontier.len().max(1))) {
                            for &u in graph.neighbors(v).iter().filter(|&&u| informed.contains(u)) {
                                remove.push((u.min(v), u.max(v)));
                            }
                            cut_off = Some(v);
                        }
                    }
                    1 => {
                        let v = rng.index(n) as NodeId;
                        remove.extend(graph.neighbors(v).iter().map(|&u| (u.min(v), u.max(v))));
                    }
                    _ => {
                        // An informed node gains or loses an edge.
                        let u = informed.iter().nth(rng.index(informed.len())).unwrap();
                        let w = rng.index(n) as NodeId;
                        if w != u {
                            let e = (u.min(w), u.max(w));
                            if graph.has_edge(u, w) { remove.push(e) } else { add.push(e) }
                        }
                    }
                }
                for _ in 0..rng.index(3) {
                    let (u, w) = (rng.index(n) as NodeId, rng.index(n) as NodeId);
                    let e = (u.min(w), u.max(w));
                    if u != w && Some(u) != cut_off && Some(w) != cut_off && !remove.contains(&e) && !add.contains(&e) {
                        if graph.has_edge(u, w) { remove.push(e) } else { add.push(e) }
                    }
                }
                let next = edited(&graph, &remove, &add);
                let delta = EdgeDelta::between(&graph, &next);
                proptest::prop_assert!(delta.len() < 2 * n);
                let next_topo = Topology::materialized(next.clone());
                p.apply_delta(&next_topo, &delta, &informed, &mut ws);
                if let Some(v) = cut_off {
                    proptest::prop_assert_eq!(p.rate_of(v), 0.0);
                }
                assert_lane_matches_fresh(&p, &next_topo, &informed);
                (graph, topo) = (next, next_topo);
            }
        }

        /// On a random 4-regular graph the lane repairs a degree-keeping
        /// double edge swap in place, and then a removed edge, which
        /// breaks regularity; after each, `apply_delta` leaves the state
        /// `repair_delta` leaves, and that state equals a fresh build.
        #[test]
        fn regular_lane_repairs_swaps_and_removed_edges(seed in 0u64..10_000, half in 4usize..16) {
            let n = 2 * half;
            let mut rng = SimRng::seed_from_u64(seed);
            let graph = gossip_graph::generators::random_connected_regular(n, 4, &mut rng).unwrap();
            let mut informed = NodeSet::new(n);
            informed.insert(0);
            for v in 1..n as NodeId {
                if rng.chance(0.25) {
                    informed.insert(v);
                }
            }
            let mut ws = SimWorkspace::new();
            let topo = Topology::materialized(graph.clone());
            let mut p = lane_on(&topo, &informed, &mut ws);
            lane_events(&mut p, &topo, 0, &mut informed, &mut rng, 2);
            // A double edge swap (a, b), (c, d) -> (a, c), (b, d).
            let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
            let swap = (0..200).find_map(|_| {
                let ((a, b), (c, d)) = (edges[rng.index(edges.len())], edges[rng.index(edges.len())]);
                let distinct = a != c && a != d && b != c && b != d;
                (distinct && !graph.has_edge(a, c) && !graph.has_edge(b, d)).then_some((a, b, c, d))
            });
            let (a, b, c, d) = swap.expect("a 4-regular graph on 8+ nodes has a swap");
            let swapped = edited(&graph, &[(a, b), (c, d)], &[(a.min(c), a.max(c)), (b.min(d), b.max(d))]);
            let delta = EdgeDelta::between(&graph, &swapped);
            let swapped_topo = Topology::materialized(swapped.clone());
            let mut repaired = p.clone();
            repaired.repair_delta(&swapped_topo, &delta, &informed, &mut ws);
            p.apply_delta(&swapped_topo, &delta, &informed, &mut ws);
            proptest::prop_assert!(same_state(&p, &repaired, &swapped_topo, &informed), "a degree-keeping swap repairs in place");
            assert_lane_matches_fresh(&p, &swapped_topo, &informed);
            lane_events(&mut p, &swapped_topo, 1, &mut informed, &mut rng, 2);
            let (u, v) = swapped.edges().nth(rng.index(swapped.m())).unwrap();
            let broken = edited(&swapped, &[(u, v)], &[]);
            let delta = EdgeDelta::between(&swapped, &broken);
            let broken_topo = Topology::materialized(broken);
            let mut repaired = p.clone();
            repaired.repair_delta(&broken_topo, &delta, &informed, &mut ws);
            p.apply_delta(&broken_topo, &delta, &informed, &mut ws);
            proptest::prop_assert!(same_state(&p, &repaired, &broken_topo, &informed), "a removed edge repairs in place");
            assert_lane_matches_fresh(&p, &broken_topo, &informed);
        }
    }

    #[test]
    fn two_push_rate_doubles() {
        let g = Topology::materialized(gossip_graph::generators::cycle(5).unwrap());
        let informed = NodeSet::new(5);
        let p = TwoPush::new();
        assert_eq!(p.event_rate(&g, &informed), 10.0);
    }
}
