//! The live trial: node groups advancing seeded exponential clocks in
//! lock-step epochs.
//!
//! # Model
//!
//! Exactly the paper's asynchronous process: every node holds an
//! independent rate-1 exponential clock; when node `v`'s clock fires at
//! virtual time `t`, it contacts a uniform random neighbor `u` with a
//! [`Payload::Contact`] envelope carrying `v`'s rumor state. A contact
//! from an informed sender pushes the rumor; a contact from an
//! uninformed sender is a pull request that an informed receiver answers
//! with [`Payload::Rumor`]. Unlike the analytic engines, the contact is
//! not resolved in shared memory — it is a real message that arrives one
//! *tick* (the configured latency, [`NetConfig::tick`]) after it was
//! sent, which is what makes the runtime distributable.
//!
//! # Epoch synchronization and determinism
//!
//! Virtual time is partitioned into epochs of one tick. Every message
//! sent during epoch `k` arrives during epoch `k + 1`, so a group can
//! process all its epoch-`k` events (clock activations and arrivals,
//! merged in timestamp order) knowing nothing sent in epoch `k` can
//! affect them. At the epoch boundary all groups exchange envelopes and
//! agree on the next *occupied* epoch — empty stretches of virtual time
//! are skipped in one jump — via [`Delivery::exchange`].
//!
//! Every random draw comes from a stream keyed by `(trial seed, node,
//! activation index)`, arrivals are re-sorted by the delay-adjusted
//! [`ChaosGate::order_key`], and in-group messages pay the same one-tick
//! latency as cross-group ones. Consequently a trial's result is a pure
//! function of `(topology, protocol, start, trial seed, tick, horizon,
//! fault model)` — bit-identical across group counts, thread
//! interleavings, and transports (test-enforced).
//!
//! # Faults
//!
//! The shared [`FaultModel`] is enacted here, all but
//! `target_high_degree`, which needs a global degree ranking and is
//! rejected: the [`ChaosGate`] (drop / partition / delay / duplication)
//! filters envelopes at the send and ordering layer, while the per-node
//! [`Liveness`] machine — the analytic engine's, keyed identically —
//! suspends crashed nodes. A down node's activation still burns its RNG
//! draws (keeping the activation chain identical to the fault-free one)
//! but its contact is voided, and envelopes arriving at a down node are
//! discarded, mirroring the event engine's rate-zero thinning. When
//! crashes are permanent ([`FaultModel::can_die`]) the epoch reductions
//! additionally carry the
//! informed-and-up count and the rumor-carrying in-flight count, and the
//! trial ends in [`TrialOutcome::Died`] once someone is informed, no
//! informed node is up, and no rumor-carrying envelope is in flight.
//!
//! # Batches
//!
//! [`NetExecutor`] runs [`run_trial`] as a `gossip_sim::RunPlan` trial
//! executor, so live batches share the analytic engines' seeding,
//! observer delivery and summary, and add up their traffic in a
//! [`NetTraffic`].
//!
//! [`Payload::Contact`]: crate::envelope::Payload::Contact
//! [`Payload::Rumor`]: crate::envelope::Payload::Rumor

use crate::delivery::{Delivery, DeliveryKind, EpochFlush, EpochUpdate, Router};
use crate::envelope::{Envelope, Payload};
use crate::error::NetError;
use crate::fault::{carries_rumor, ChaosGate};
use crate::udp::UdpDelivery;
use crate::LocalDelivery;
use gossip_core::scenario::{live_protocol_name, NetSpec};
use gossip_graph::{NodeId, Topology};
use gossip_sim::{FaultModel, Liveness, TrialError, TrialExecutor, TrialOutcome, TrialRecord};
use gossip_stats::{Exponential, SimRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Mutex;

/// Runtime parameters of a live run (the compiled form of the spec's
/// `[net]` table plus the full live fault regime).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Node groups (actors are multiplexed N-nodes-per-thread); clamped
    /// to `[1, n]` at trial start.
    pub groups: usize,
    /// Message latency = epoch length, in virtual time.
    pub tick: f64,
    /// Virtual-time cutoff: the trial stops with
    /// [`TrialOutcome::Budget`] when the next event would fire later.
    pub horizon: f64,
    /// The fault regime: drop, liveness and delivery chaos
    /// (`target_high_degree` is rejected). [`FaultModel::default()`] is
    /// bit-invisible.
    pub faults: FaultModel,
    /// Wall-clock seconds a UDP endpoint waits for peer datagrams before
    /// it starts NACK-driven retries; doubles on every retry. Ignored by
    /// the in-process transport.
    pub exchange_timeout: f64,
    /// UDP retry rounds after the first timeout before the exchange is
    /// declared [stalled](NetError::Stalled). `0` fails on the first
    /// timeout.
    pub exchange_retries: u32,
}

/// The defaults of an empty `[net]` table (owned by [`NetSpec`]) and
/// the sweep's default cutoff, fault-free.
impl Default for NetConfig {
    fn default() -> Self {
        let net = NetSpec::new();
        NetConfig {
            groups: net.groups_or_default(),
            tick: net.tick_or_default(),
            horizon: 1e5,
            faults: FaultModel::default(),
            exchange_timeout: net.exchange_timeout_or_default(),
            exchange_retries: net.exchange_retries_or_default(),
        }
    }
}

/// Which rumor protocol the live nodes speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetProtocol {
    /// Asynchronous push–pull (spec kinds `async` and `naive`).
    PushPull,
    /// Push-only: uninformed activations stay silent.
    Push,
    /// Pull-only: informed activations stay silent, contacts are always
    /// pull requests.
    Pull,
}

impl NetProtocol {
    /// Maps a scenario protocol kind onto the live protocol; `None` for
    /// kinds the runtime cannot speak (synchronous rounds, flooding,
    /// rate-2 push, lossy).
    pub fn from_kind(kind: &str) -> Option<NetProtocol> {
        match kind {
            "async" | "naive" => Some(NetProtocol::PushPull),
            "push" => Some(NetProtocol::Push),
            "pull" => Some(NetProtocol::Pull),
            _ => None,
        }
    }

    /// Display name, marking the live transport — read from the
    /// scenario registry's live protocol table.
    pub fn display_name(self) -> &'static str {
        let kind = match self {
            NetProtocol::PushPull => "async",
            NetProtocol::Push => "push",
            NetProtocol::Pull => "pull",
        };
        live_protocol_name(kind).expect("every live protocol is registered")
    }

    /// Whether an informed receiver answers an uninformed contact.
    fn replies(self) -> bool {
        !matches!(self, NetProtocol::Push)
    }
}

/// The outcome of one live trial.
#[derive(Debug, Clone)]
pub struct NetTrial {
    /// Virtual time the last node learned the rumor, when every node
    /// did.
    pub spread_time: Option<f64>,
    /// Nodes informed when the trial ended.
    pub informed: usize,
    /// Occupied epochs processed (== delivery exchanges after the
    /// bootstrap round).
    pub epochs: u64,
    /// Events processed: clock activations plus envelope arrivals.
    pub events: u64,
    /// Envelopes handed to the delivery layer (dropped ones included).
    pub messages: u64,
    /// Envelopes the drop coin swallowed ([`ChaosGate::drops`]).
    pub dropped: u64,
    /// Envelopes voided at a partition cut ([`ChaosGate::blocks`]).
    pub blocked: u64,
    /// Extra envelope copies injected by the duplication fault.
    pub duplicated: u64,
    /// How the trial ended: [`TrialOutcome::Spread`],
    /// [`TrialOutcome::Budget`], or — under unrecoverable crash faults —
    /// [`TrialOutcome::Died`] when every informed node is down and no
    /// rumor-carrying envelope is in flight.
    pub outcome: TrialOutcome,
    /// Sorted `(time, |informed|)` curve when requested.
    pub trajectory: Option<Vec<(f64, usize)>>,
}

/// What each group thread reports back after its loop ends.
struct GroupOutcome {
    outcome: TrialOutcome,
    informed: u64,
    max_informed: f64,
    epochs: u64,
    events: u64,
    messages: u64,
    dropped: u64,
    blocked: u64,
    duplicated: u64,
    /// Informed times of this group's own nodes (finite entries only);
    /// filled only when a trajectory was requested.
    informed_times: Vec<f64>,
}

/// One node group: a contiguous block of nodes multiplexed onto one
/// thread, with all their clock/message state.
struct Group<'a> {
    topo: &'a Topology,
    proto: NetProtocol,
    tick: f64,
    horizon: f64,
    base: SimRng,
    exp: Exponential,
    chaos: ChaosGate,
    /// Crash/recovery state of the owned nodes; `None` when the fault
    /// regime has no crash machinery (zero overhead on the happy path).
    liveness: Option<Liveness>,
    /// Whether [`TrialOutcome::Died`] is reachable (crashes on, recovery
    /// off) — gates the rumor-in-flight accounting.
    can_die: bool,
    lo: NodeId,
    /// Informed time per owned node; NaN = uninformed.
    informed_t: Vec<f64>,
    /// Processed activations per owned node (indexes the derive chain).
    acts: Vec<u32>,
    /// Envelopes sent per owned node (the per-source `seq` counter).
    seqs: Vec<u32>,
    /// Pending activations: `(time bits, node)` min-heap — times are
    /// non-negative, so bit order is value order.
    heap: BinaryHeap<Reverse<(u64, NodeId)>>,
    /// Buffered arrivals, sorted by [`Envelope::order_key`]; the prefix
    /// below the epoch end is consumed each epoch.
    pending: Vec<Envelope>,
    outbox: Vec<Envelope>,
    /// Earliest arrival among envelopes currently in `outbox`.
    out_min: f64,
    informed_count: u64,
    /// Owned informed nodes that are up at their last observed liveness
    /// state; equals `informed_count` when liveness is off.
    live_informed: u64,
    max_informed: f64,
    events: u64,
    messages: u64,
    dropped: u64,
    blocked: u64,
    duplicated: u64,
    record: bool,
}

impl<'a> Group<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        topo: &'a Topology,
        proto: NetProtocol,
        cfg: &NetConfig,
        trial_seed: u64,
        start: NodeId,
        range: std::ops::Range<NodeId>,
        record: bool,
    ) -> Group<'a> {
        let base = SimRng::seed_from_u64(trial_seed);
        let exp = Exponential::new(1.0).expect("rate 1 is valid");
        let len = range.len();
        let faults = &cfg.faults;
        let mut g = Group {
            topo,
            proto,
            tick: cfg.tick,
            horizon: cfg.horizon,
            chaos: ChaosGate::new(faults, trial_seed, cfg.tick),
            liveness: faults
                .crash_active()
                .then(|| Liveness::new(faults, trial_seed, range.clone())),
            can_die: faults.can_die(),
            base,
            exp,
            lo: range.start,
            informed_t: vec![f64::NAN; len],
            acts: vec![0; len],
            seqs: vec![0; len],
            heap: BinaryHeap::with_capacity(len),
            pending: Vec::new(),
            outbox: Vec::new(),
            out_min: f64::INFINITY,
            informed_count: 0,
            live_informed: 0,
            max_informed: f64::NEG_INFINITY,
            events: 0,
            messages: 0,
            dropped: 0,
            blocked: 0,
            duplicated: 0,
            record,
        };
        for v in range {
            // Activation stream 0 of node v seeds its first firing; each
            // processed activation k then draws from stream k + 1. The
            // chain depends only on (trial seed, v, k) — never on which
            // group runs v or in which order groups run.
            let mut rng = g.base.derive(u64::from(v)).derive(0);
            let t = g.exp.sample(&mut rng);
            g.heap.push(Reverse((t.to_bits(), v)));
        }
        if g.owns(start) {
            g.inform((start - g.lo) as usize, 0.0);
        }
        g
    }

    fn owns(&self, v: NodeId) -> bool {
        v >= self.lo && ((v - self.lo) as usize) < self.informed_t.len()
    }

    fn inform(&mut self, li: usize, t: f64) {
        self.informed_t[li] = t;
        self.informed_count += 1;
        // Callers advance liveness before informing, so the up state is
        // current at time t.
        if self.liveness.as_ref().is_none_or(|l| l.is_up(li)) {
            self.live_informed += 1;
        }
        if t > self.max_informed {
            self.max_informed = t;
        }
    }

    /// Advances node `li`'s liveness machine to `t`'s unit window and
    /// returns whether it is up, keeping the informed-and-up counter in
    /// sync with observed transitions. Always `true` without crash
    /// faults.
    fn live_up(&mut self, li: usize, t: f64) -> bool {
        let Some(liveness) = self.liveness.as_mut() else {
            return true;
        };
        let was = liveness.is_up(li);
        let now = liveness.advance(li, t as u64); // t ≥ 0: floor
        if was != now && !self.informed_t[li].is_nan() {
            if now {
                self.live_informed += 1;
            } else {
                self.live_informed -= 1;
            }
        }
        now
    }

    fn send(&mut self, src: NodeId, dst: NodeId, time: f64, payload: Payload) {
        let li = (src - self.lo) as usize;
        let seq = self.seqs[li];
        self.seqs[li] += 1;
        let env = Envelope {
            src,
            dst,
            seq,
            time,
            payload,
        };
        self.messages += 1;
        if self.chaos.drops(&env) {
            self.dropped += 1;
            return;
        }
        if self.chaos.blocks(&env) {
            self.blocked += 1;
            return;
        }
        let arrival = self.chaos.arrival(&env);
        if arrival < self.out_min {
            self.out_min = arrival;
        }
        self.outbox.push(env);
        if self.chaos.duplicates(&env) {
            self.duplicated += 1;
            self.outbox.push(env);
        }
    }

    /// The earliest future event this group knows about: next clock
    /// firing, earliest buffered arrival, earliest outbox arrival.
    fn next_candidate(&self) -> f64 {
        let heap_t = self
            .heap
            .peek()
            .map_or(f64::INFINITY, |&Reverse((bits, _))| f64::from_bits(bits));
        let pend_t = self
            .pending
            .first()
            .map_or(f64::INFINITY, |e| self.chaos.arrival(e));
        heap_t.min(pend_t).min(self.out_min)
    }

    fn process_activation(&mut self, t: f64, v: NodeId) {
        self.events += 1;
        let li = (v - self.lo) as usize;
        let k = self.acts[li];
        self.acts[li] = k + 1;
        // A down node's activation burns the same draws as an up one —
        // the chain stays a pure function of (trial seed, v, k) — but
        // its contact is voided, mirroring rate-zero thinning.
        let up = self.live_up(li, t);
        let mut rng = self.base.derive(u64::from(v)).derive(u64::from(k) + 1);
        let deg = self.topo.degree(v);
        if deg > 0 {
            let u = self.topo.neighbor(v, rng.index(deg));
            let informed = !self.informed_t[li].is_nan();
            let speak = match self.proto {
                NetProtocol::PushPull => true,
                NetProtocol::Push => informed,
                NetProtocol::Pull => !informed,
            };
            if speak && up {
                self.send(v, u, t, Payload::Contact { informed });
            }
        }
        let gap = self.exp.sample(&mut rng);
        self.heap.push(Reverse(((t + gap).to_bits(), v)));
    }

    fn process_arrival(&mut self, env: Envelope) {
        self.events += 1;
        let arrival = self.chaos.arrival(&env);
        let li = (env.dst - self.lo) as usize;
        // Envelopes addressed to a down node are voided: it neither
        // learns the rumor nor answers pulls while crashed.
        if !self.live_up(li, arrival) {
            return;
        }
        let informed = !self.informed_t[li].is_nan();
        match env.payload {
            Payload::Contact { informed: src_inf } => {
                if src_inf && !informed {
                    self.inform(li, arrival);
                } else if !src_inf && informed && self.proto.replies() {
                    self.send(env.dst, env.src, arrival, Payload::Rumor);
                }
            }
            Payload::Rumor => {
                if !informed {
                    self.inform(li, arrival);
                }
            }
        }
    }

    /// Processes every event with timestamp `< epoch_end`, interleaving
    /// buffered arrivals and clock activations in time order (arrivals
    /// first on exact ties — a fixed, grouping-independent rule).
    fn process_window(&mut self, epoch_end: f64) {
        let mut cursor = 0usize;
        loop {
            let arr_t = self
                .pending
                .get(cursor)
                .map(|e| self.chaos.arrival(e))
                .filter(|&t| t < epoch_end);
            let act = self
                .heap
                .peek()
                .map(|&Reverse((bits, v))| (f64::from_bits(bits), v))
                .filter(|&(t, _)| t < epoch_end);
            match (arr_t, act) {
                (Some(ta), Some((tv, _))) if ta <= tv => {
                    let env = self.pending[cursor];
                    cursor += 1;
                    self.process_arrival(env);
                }
                (_, Some((tv, v))) => {
                    self.heap.pop();
                    self.process_activation(tv, v);
                }
                (Some(_), None) => {
                    let env = self.pending[cursor];
                    cursor += 1;
                    self.process_arrival(env);
                }
                (None, None) => break,
            }
        }
        self.pending.drain(..cursor);
    }

    fn flush(&mut self) -> EpochFlush {
        // Rumor-carrying envelopes this group holds: about to enter
        // transit (outbox) or received but not yet processed (pending).
        // Across groups every in-flight envelope is counted exactly once
        // per reduction. Only maintained when `Died` is reachable.
        let rumor_in_flight = if self.can_die {
            self.outbox
                .iter()
                .chain(self.pending.iter())
                .filter(|e| carries_rumor(e))
                .count() as u64
        } else {
            0
        };
        let flush = EpochFlush {
            next_candidate: self.next_candidate(),
            outbound: std::mem::take(&mut self.outbox),
            informed: self.informed_count,
            live_informed: if self.liveness.is_some() {
                self.live_informed
            } else {
                self.informed_count
            },
            rumor_in_flight,
        };
        self.out_min = f64::INFINITY;
        flush
    }

    fn merge_inbound(&mut self, update: &mut EpochUpdate) {
        if !update.inbound.is_empty() {
            self.pending.append(&mut update.inbound);
            let chaos = self.chaos;
            self.pending
                .sort_unstable_by_key(move |e| chaos.order_key(e));
        }
    }

    fn run(mut self, delivery: &mut dyn Delivery) -> Result<GroupOutcome, NetError> {
        let n = self.topo.n() as u64;
        let mut epochs = 0u64;
        let mut floor_epoch = 0u64;
        let mut update = delivery.exchange(self.flush())?;
        self.merge_inbound(&mut update);
        let outcome = loop {
            if update.informed_total >= n {
                break TrialOutcome::Spread;
            }
            // Under unrecoverable crashes, "every informed node down and
            // no rumor-carrying envelope in flight" is a provably final
            // state: nothing can ever inform anyone again. Liveness is
            // observed lazily, so the break may trail the last crash by
            // a few activations — deterministically so.
            if self.can_die
                && update.informed_total > 0
                && update.live_informed_total == 0
                && update.rumor_in_flight_total == 0
            {
                break TrialOutcome::Died;
            }
            // `next_time` is +inf when no group has anything scheduled
            // (an idle system with empty groups only) — either way
            // nothing more can happen inside the budget.
            if update.next_time > self.horizon {
                break TrialOutcome::Budget;
            }
            // All events strictly before the previous epoch end are
            // consumed, so the global next event picks the next occupied
            // epoch; the floor guard makes progress immune to f64
            // division rounding at epoch boundaries.
            let epoch = ((update.next_time / self.tick) as u64).max(floor_epoch);
            floor_epoch = epoch + 1;
            let epoch_end = (epoch + 1) as f64 * self.tick;
            self.process_window(epoch_end);
            epochs += 1;
            update = delivery.exchange(self.flush())?;
            self.merge_inbound(&mut update);
        };
        Ok(GroupOutcome {
            outcome,
            informed: self.informed_count,
            max_informed: self.max_informed,
            epochs,
            events: self.events,
            messages: self.messages,
            dropped: self.dropped,
            blocked: self.blocked,
            duplicated: self.duplicated,
            informed_times: if self.record {
                self.informed_t
                    .iter()
                    .copied()
                    .filter(|t| !t.is_nan())
                    .collect()
            } else {
                Vec::new()
            },
        })
    }
}

/// Runs one live trial of `proto` on `topo` from `start`, seeded by
/// `trial_seed`, over the given transport. See the [module docs](self)
/// for the execution model and determinism contract.
///
/// # Errors
///
/// [`NetError::Invalid`] for structural problems (empty topology, start
/// out of range, non-positive tick/horizon, degree targeting);
/// [`NetError::Sim`] for an out-of-range fault parameter;
/// [`NetError::Io`] when the transport fails; [`NetError::Stalled`] when
/// a UDP exchange exhausts its retries waiting for a peer.
pub fn run_trial(
    topo: &Topology,
    proto: NetProtocol,
    start: NodeId,
    trial_seed: u64,
    cfg: &NetConfig,
    kind: DeliveryKind,
    record_trajectory: bool,
) -> Result<NetTrial, NetError> {
    let n = topo.n();
    if n == 0 {
        return Err(NetError::Invalid("the topology has no nodes".into()));
    }
    if (start as usize) >= n {
        return Err(NetError::Invalid(format!(
            "start node {start} is outside the {n}-node network"
        )));
    }
    if !(cfg.tick.is_finite() && cfg.tick > 0.0) {
        return Err(NetError::Invalid(format!(
            "tick must be a positive finite latency, got {}",
            cfg.tick
        )));
    }
    // +inf is a valid horizon (run until spread); NaN is not.
    if cfg.horizon.is_nan() || cfg.horizon <= 0.0 {
        return Err(NetError::Invalid(format!(
            "horizon must be positive, got {}",
            cfg.horizon
        )));
    }
    if !(cfg.exchange_timeout.is_finite() && cfg.exchange_timeout > 0.0) {
        return Err(NetError::Invalid(format!(
            "exchange_timeout must be a positive finite duration, got {}",
            cfg.exchange_timeout
        )));
    }
    cfg.faults.validate()?;
    if cfg.faults.target_high_degree > 0 {
        return Err(NetError::Invalid(
            "faults.target_high_degree is an analytic-engine feature (it ranks all \
             still-up nodes by degree globally)"
                .into(),
        ));
    }
    let router = Router::new(n, cfg.groups);
    let endpoints: Vec<Box<dyn Delivery>> = match kind {
        DeliveryKind::Local => LocalDelivery::fabric(router)
            .into_iter()
            .map(|e| Box::new(e) as Box<dyn Delivery>)
            .collect(),
        DeliveryKind::Udp => {
            UdpDelivery::fabric(router, cfg.exchange_timeout, cfg.exchange_retries)?
                .into_iter()
                .map(|e| Box::new(e) as Box<dyn Delivery>)
                .collect()
        }
    };
    let outcomes: Result<Vec<GroupOutcome>, NetError> = std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(g, mut ep)| {
                let range = router.range(g);
                let group = Group::new(
                    topo,
                    proto,
                    cfg,
                    trial_seed,
                    start,
                    range,
                    record_trajectory,
                );
                std::thread::Builder::new()
                    .name(format!("gossip-net-{g}"))
                    .spawn_scoped(s, move || group.run(&mut *ep))
                    .expect("spawn node-group thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node-group thread panicked"))
            .collect()
    });
    let outcomes = outcomes?;
    let outcome = outcomes[0].outcome;
    let informed: u64 = outcomes.iter().map(|o| o.informed).sum();
    let spread_time = match outcome {
        TrialOutcome::Spread => Some(
            outcomes
                .iter()
                .map(|o| o.max_informed)
                .fold(f64::NEG_INFINITY, f64::max),
        ),
        _ => None,
    };
    let trajectory = record_trajectory.then(|| {
        let mut times: Vec<f64> = outcomes
            .iter()
            .flat_map(|o| o.informed_times.iter().copied())
            .collect();
        times.sort_unstable_by(f64::total_cmp);
        times
            .into_iter()
            .enumerate()
            .map(|(i, t)| (t, i + 1))
            .collect()
    });
    Ok(NetTrial {
        spread_time,
        informed: informed as usize,
        epochs: outcomes.iter().map(|o| o.epochs).max().unwrap_or(0),
        events: outcomes.iter().map(|o| o.events).sum(),
        messages: outcomes.iter().map(|o| o.messages).sum(),
        dropped: outcomes.iter().map(|o| o.dropped).sum(),
        blocked: outcomes.iter().map(|o| o.blocked).sum(),
        duplicated: outcomes.iter().map(|o| o.duplicated).sum(),
        outcome,
        trajectory,
    })
}

/// Traffic counters summed over a batch of live trials.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetTraffic {
    /// Envelopes sent (dropped ones included).
    pub messages: u64,
    /// Envelopes swallowed by the drop gate.
    pub dropped: u64,
    /// Envelopes voided at a partition cut.
    pub blocked: u64,
    /// Extra envelope copies injected by the duplication fault.
    pub duplicated: u64,
    /// Trials re-run on a fresh fabric after a stalled exchange.
    pub retried: u64,
}

/// The live runtime as a `gossip_sim` [`TrialExecutor`]: trial `i` of a
/// `RunPlan` batch is one [`run_trial`] seeded by its derived stream's
/// base seed, so a live batch and an analytic batch with equal seeds walk
/// equal per-trial seed sequences.
///
/// A trial whose exchange [stalls](NetError::Stalled) — a UDP peer
/// stopped answering within the retry budget — is re-run once on a fresh
/// fabric with the same seed; the run is deterministic, so only the
/// transport luck changes. A second stall isolates the trial as a
/// [`TrialError`] and the batch goes on. Traffic counters, retries
/// included, add up in the shared [`NetTraffic`].
///
/// Live batches run their trials one after another
/// (`RunPlan::threads(1)`) while the node groups inside each trial run
/// in parallel. A panic inside a node-group thread is not isolated.
///
/// ```
/// use gossip_net::{DeliveryKind, NetConfig, NetExecutor, NetProtocol, NetTraffic, Topology};
/// use gossip_sim::RunPlan;
/// use std::sync::Mutex;
///
/// let topo = Topology::complete(16).unwrap();
/// let config = NetConfig { groups: 2, ..NetConfig::default() };
/// let traffic = Mutex::new(NetTraffic::default());
/// let report = RunPlan::new(3, 7)
///     .threads(1)
///     .execute_with(|run| {
///         let proto = NetProtocol::PushPull;
///         NetExecutor::new(&topo, proto, 0, &config, DeliveryKind::Local, run, &traffic)
///     })
///     .unwrap();
/// assert_eq!(report.completed(), 3);
/// assert!(traffic.into_inner().unwrap().messages > 0);
/// ```
#[derive(Debug)]
pub struct NetExecutor<'a> {
    topo: &'a Topology,
    proto: NetProtocol,
    start: NodeId,
    config: &'a NetConfig,
    delivery: DeliveryKind,
    record_trajectory: bool,
    traffic: &'a Mutex<NetTraffic>,
}

impl<'a> NetExecutor<'a> {
    /// An executor running `proto` on `topo` from `start` under `config`
    /// over `delivery`, recording trajectories when the batch's
    /// [`RunConfig`](gossip_sim::RunConfig) `run` asks for them, and
    /// adding its traffic into `traffic`.
    pub fn new(
        topo: &'a Topology,
        proto: NetProtocol,
        start: NodeId,
        config: &'a NetConfig,
        delivery: DeliveryKind,
        run: &gossip_sim::RunConfig,
        traffic: &'a Mutex<NetTraffic>,
    ) -> Self {
        NetExecutor {
            topo,
            proto,
            start,
            config,
            delivery,
            record_trajectory: run.record_trajectory,
            traffic,
        }
    }
}

impl TrialExecutor for NetExecutor<'_> {
    type Error = NetError;

    fn run_trial(
        &mut self,
        trial: usize,
        rng: &mut SimRng,
    ) -> Result<Result<TrialRecord, TrialError>, NetError> {
        let seed = rng.base_seed();
        let attempt = || {
            run_trial(
                self.topo,
                self.proto,
                self.start,
                seed,
                self.config,
                self.delivery,
                self.record_trajectory,
            )
        };
        let mut result = attempt();
        let retried = matches!(&result, Err(e) if e.is_retryable());
        if retried {
            result = attempt();
        }
        let mut traffic = self.traffic.lock().expect("traffic counters poisoned");
        traffic.retried += u64::from(retried);
        let t = match result {
            Ok(t) => t,
            Err(e) if e.is_retryable() => {
                return Ok(Err(TrialError {
                    trial,
                    seed,
                    message: e.to_string(),
                }))
            }
            Err(e) => return Err(e),
        };
        traffic.messages += t.messages;
        traffic.dropped += t.dropped;
        traffic.blocked += t.blocked;
        traffic.duplicated += t.duplicated;
        Ok(Ok(TrialRecord {
            trial,
            seed,
            n: self.topo.n(),
            spread_time: t.spread_time,
            windows: t.epochs,
            events: t.events,
            informed: t.informed,
            outcome: t.outcome,
            trajectory: t.trajectory,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_sim::{RunPlan, RunReport};

    fn cfg(groups: usize) -> NetConfig {
        NetConfig {
            groups,
            tick: 1e-3,
            horizon: 1e4,
            ..NetConfig::default()
        }
    }

    #[test]
    fn complete_graph_spreads_fully() {
        let topo = Topology::complete(48).unwrap();
        let t = run_trial(
            &topo,
            NetProtocol::PushPull,
            0,
            7,
            &cfg(3),
            DeliveryKind::Local,
            true,
        )
        .unwrap();
        assert_eq!(t.outcome, TrialOutcome::Spread);
        assert_eq!(t.informed, 48);
        let spread = t.spread_time.unwrap();
        assert!(spread > 0.0 && spread < 100.0, "{spread}");
        let traj = t.trajectory.unwrap();
        assert_eq!(traj.len(), 48);
        assert_eq!(traj[0], (0.0, 1));
        assert!((traj.last().unwrap().0 - spread).abs() < 1e-12);
        assert!(t.events > 0 && t.messages > 0 && t.dropped == 0);
    }

    #[test]
    fn group_count_is_invisible() {
        let topo = Topology::gnp(96, 0.2, 5).unwrap();
        let runs: Vec<NetTrial> = [1, 2, 5]
            .into_iter()
            .map(|g| {
                run_trial(
                    &topo,
                    NetProtocol::PushPull,
                    0,
                    11,
                    &cfg(g),
                    DeliveryKind::Local,
                    false,
                )
                .unwrap()
            })
            .collect();
        for t in &runs[1..] {
            assert_eq!(t.spread_time, runs[0].spread_time);
            assert_eq!(t.events, runs[0].events);
            assert_eq!(t.messages, runs[0].messages);
        }
    }

    #[test]
    fn full_drop_hits_the_horizon() {
        let topo = Topology::complete(16).unwrap();
        let mut c = cfg(2);
        c.faults.drop = 1.0;
        c.horizon = 3.0;
        let t = run_trial(
            &topo,
            NetProtocol::PushPull,
            0,
            3,
            &c,
            DeliveryKind::Local,
            false,
        )
        .unwrap();
        assert_eq!(t.outcome, TrialOutcome::Budget);
        assert_eq!(t.informed, 1);
        assert_eq!(t.spread_time, None);
        assert!(t.dropped > 0 && t.dropped == t.messages);
    }

    #[test]
    fn push_and_pull_both_complete_on_complete_graphs() {
        let topo = Topology::complete(32).unwrap();
        for proto in [NetProtocol::Push, NetProtocol::Pull] {
            let t = run_trial(&topo, proto, 0, 9, &cfg(2), DeliveryKind::Local, false).unwrap();
            assert_eq!(t.outcome, TrialOutcome::Spread, "{proto:?}");
            assert_eq!(t.informed, 32);
        }
    }

    #[test]
    fn scheduled_crash_of_every_node_dies() {
        // Crash all 8 nodes at window 1: the rumor holder goes down with
        // no recovery, so the trial must end in Died, well before the
        // (infinite) horizon.
        let topo = Topology::complete(8).unwrap();
        let mut c = cfg(2);
        c.horizon = f64::INFINITY;
        c.faults.schedule = (0..8).map(|v| (1, v)).collect();
        c.faults.seed = 5;
        let t = run_trial(
            &topo,
            NetProtocol::PushPull,
            0,
            21,
            &c,
            DeliveryKind::Local,
            false,
        )
        .unwrap();
        assert_eq!(t.outcome, TrialOutcome::Died);
        assert!(t.informed < 8);
    }

    #[test]
    fn recovery_keeps_died_unreachable_and_spreads() {
        let topo = Topology::complete(24).unwrap();
        let mut c = cfg(3);
        c.faults.crash_rate = 0.5;
        c.faults.recovery_rate = 2.0;
        c.faults.seed = 13;
        let t = run_trial(
            &topo,
            NetProtocol::PushPull,
            0,
            4,
            &c,
            DeliveryKind::Local,
            false,
        )
        .unwrap();
        // With brisk recovery the rumor still reaches everyone.
        assert_eq!(t.outcome, TrialOutcome::Spread, "{t:?}");
        assert_eq!(t.informed, 24);
    }

    #[test]
    fn faulty_runs_are_group_count_invariant() {
        let topo = Topology::gnp(48, 0.3, 8).unwrap();
        let mut c = cfg(1);
        c.faults = FaultModel {
            drop: 0.1,
            crash_rate: 0.2,
            recovery_rate: 1.0,
            partition_rate: 0.2,
            delay: 0.2,
            delay_epochs: 2,
            duplicate: 0.1,
            seed: 7,
            ..FaultModel::default()
        };
        let run = |groups| {
            let mut c = c.clone();
            c.groups = groups;
            run_trial(
                &topo,
                NetProtocol::PushPull,
                0,
                17,
                &c,
                DeliveryKind::Local,
                false,
            )
            .unwrap()
        };
        let base = run(1);
        assert!(base.blocked > 0 || base.duplicated > 0 || base.dropped > 0);
        for g in [2, 3] {
            let t = run(g);
            assert_eq!(t.spread_time, base.spread_time, "groups={g}");
            assert_eq!(t.events, base.events, "groups={g}");
            assert_eq!(t.messages, base.messages, "groups={g}");
            assert_eq!(t.dropped, base.dropped, "groups={g}");
            assert_eq!(t.blocked, base.blocked, "groups={g}");
            assert_eq!(t.duplicated, base.duplicated, "groups={g}");
            assert_eq!(t.outcome, base.outcome, "groups={g}");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let topo = Topology::complete(8).unwrap();
        let mut bad = cfg(1);
        bad.tick = 0.0;
        assert!(matches!(
            run_trial(
                &topo,
                NetProtocol::PushPull,
                0,
                1,
                &bad,
                DeliveryKind::Local,
                false
            ),
            Err(NetError::Invalid(_))
        ));
        assert!(matches!(
            run_trial(
                &topo,
                NetProtocol::PushPull,
                99,
                1,
                &cfg(1),
                DeliveryKind::Local,
                false
            ),
            Err(NetError::Invalid(_))
        ));
        // A hand-built model's analytic-only field is refused, not ignored.
        let mut targeted = cfg(1);
        targeted.faults.target_high_degree = 1;
        let run = |c: &NetConfig| {
            run_trial(
                &topo,
                NetProtocol::PushPull,
                0,
                1,
                c,
                DeliveryKind::Local,
                false,
            )
        };
        assert!(
            matches!(run(&targeted), Err(NetError::Invalid(m)) if m.contains("target_high_degree"))
        );
        targeted.faults.target_high_degree = 0;
        targeted.faults.delay_epochs = 0;
        assert!(matches!(run(&targeted), Err(NetError::Sim(_))));
    }

    /// Runs `plan` as a live push–pull batch from node 0, one trial at a
    /// time.
    fn batch(plan: RunPlan<'_>, topo: &Topology, config: &NetConfig) -> (RunReport, NetTraffic) {
        let traffic = Mutex::new(NetTraffic::default());
        let report = plan
            .threads(1)
            .execute_with(|run| {
                let proto = NetProtocol::PushPull;
                NetExecutor::new(topo, proto, 0, config, DeliveryKind::Local, run, &traffic)
            })
            .unwrap();
        (report, traffic.into_inner().unwrap())
    }

    #[test]
    fn batch_summarizes_and_streams() {
        let topo = Topology::complete(24).unwrap();
        let mut jsonl = gossip_sim::JsonlSink::new(Vec::new());
        let plan = RunPlan::new(5, 42).observer(&mut jsonl);
        let (report, traffic) = batch(plan, &topo, &cfg(2));
        assert_eq!(report.trials(), 5);
        assert_eq!(report.completed(), 5);
        assert_eq!(jsonl.records(), 5);
        assert!(report.mean() > 0.0);
        assert!(traffic.messages > 0 && report.events() > 0);
        assert_eq!(traffic.dropped, 0);
        let text = String::from_utf8(jsonl.into_inner().unwrap()).unwrap();
        assert!(text.lines().all(|l| l.contains(",\"n\":24,")), "{text}");
    }

    #[test]
    fn plan_is_deterministic() {
        let topo = Topology::gnp(40, 0.3, 9).unwrap();
        let run = |groups| {
            let (report, _) = batch(RunPlan::new(4, 7), &topo, &cfg(groups));
            report.sorted_times().to_vec()
        };
        assert_eq!(run(1), run(3));
    }

    #[test]
    fn budget_trials_are_not_completed() {
        let topo = Topology::complete(12).unwrap();
        let config = NetConfig {
            horizon: 1e-6,
            ..cfg(1)
        };
        let (report, _) = batch(RunPlan::new(2, 1), &topo, &config);
        assert_eq!(report.completed(), 0);
        assert_eq!(report.budget_stopped(), 2);
    }
}
