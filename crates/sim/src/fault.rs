//! Seed-deterministic fault injection: one fault model and one liveness
//! machine for every engine.
//!
//! A [`FaultModel`] is the failure regime of a run: a per-message drop
//! probability (Doerr–Kostrygin style transmission failures); node
//! liveness — seeded Poisson crash/recovery clocks or per-window
//! `downtime`, an explicit `(window, node)` crash schedule, and adversarial
//! targeting of the highest-degree up nodes; and the delivery chaos
//! (partitions, delays, duplicates) only the live `gossip-net` runtime can
//! enact. Per trial it compiles into a [`FaultState`] for the event
//! engine; the live runtime keeps one [`Liveness`] per node group.
//!
//! # The liveness state machine
//!
//! Each node is up or down, advanced over unit-time windows
//! (`P(transition in a window) = 1 − e^{−rate}`). At window `w` a down
//! node flips a recovery coin, an up node a crash coin, then every
//! schedule entry due at `w` applies. `downtime = d` is the same chain
//! with crash probability `d` and recovery probability 1, so it excludes
//! the other liveness fields. Every coin is a pure function of `(fault
//! seed, trial seed, node, window)` ([`keyed_coin`]), so the analytic
//! engine, which advances every node once per window, and the live
//! runtime, which advances each node lazily in whichever group owns it,
//! see the same up/down state for the same `(model, trial seed)`.
//!
//! # Exact thinning, not rate surgery
//!
//! Crashed nodes are *rate-zero*: a down node neither initiates contacts
//! nor responds to them. Proposal rates stay those of the fault-free
//! process and each proposed event is *vetoed* with the complementary
//! probability. For the cut-rate sampler a proposed infection of `v`
//! survives with probability `(1 − drop) · r'_v / r_v`, where `r'_v` keeps
//! only the `(1/d_u + 1/d_v)` terms of *up* informed neighbors `u` (zero
//! when `v` is down); the rate-`n` naive protocols veto at contact level.
//! Both leave the accepted events with exactly the faulty rates, so the
//! naive protocols and the cut-rate sampler's vectorized lane and
//! closed-form states stay KS-equivalent under faults.
//!
//! The analytic drop and ratio coins come from a dedicated sequential
//! stream (`SimRng::seed_from_u64(model.seed).derive(trial_seed)`); the
//! live drop coin is keyed per envelope. No fault coin touches the trial
//! RNG, so a model with nothing active leaves every trial bit-identical.

use std::fmt;
use std::ops::Range;

use gossip_graph::{NodeId, NodeSet, Topology};
use gossip_stats::SimRng;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::SimError;

/// How a trial ended.
///
/// Fault-free runs can only [`TrialOutcome::Spread`] or run out of
/// simulated time ([`TrialOutcome::Budget`]). Under faults the rumor can
/// also legitimately *die*: when recovery is impossible
/// (`recovery_rate == 0`) and every informed node is down, no future
/// event can inform anyone, and the trial reports
/// [`TrialOutcome::Died`] instead of burning the rest of its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialOutcome {
    /// The rumor reached every node; `spread_time` is `Some`.
    Spread,
    /// The rumor provably cannot spread further (all informed nodes are
    /// permanently down).
    Died,
    /// A budget stopped the trial first: the `max_time` window cutoff or
    /// the [`crate::RunConfig::max_events`] watchdog.
    Budget,
}

impl TrialOutcome {
    /// Stable lowercase name used in JSONL records.
    pub fn as_str(self) -> &'static str {
        match self {
            TrialOutcome::Spread => "spread",
            TrialOutcome::Died => "died",
            TrialOutcome::Budget => "budget",
        }
    }

    /// Parses [`TrialOutcome::as_str`] output back.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "spread" => Some(TrialOutcome::Spread),
            "died" => Some(TrialOutcome::Died),
            "budget" => Some(TrialOutcome::Budget),
            _ => None,
        }
    }

    /// Bumps the matching bucket of an [`gossip_stats::OutcomeCounts`]
    /// tally (the counts type lives in `gossip-stats`, below this crate,
    /// so the mapping lives here).
    pub fn tally(self, counts: &mut gossip_stats::OutcomeCounts) {
        match self {
            TrialOutcome::Spread => counts.spread += 1,
            TrialOutcome::Died => counts.died += 1,
            TrialOutcome::Budget => counts.budget += 1,
        }
    }
}

impl fmt::Display for TrialOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for TrialOutcome {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for TrialOutcome {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) => TrialOutcome::parse(s)
                .ok_or_else(|| DeError::message(format!("unknown trial outcome `{s}`"))),
            other => Err(DeError::expected("string", other)),
        }
    }
}

/// A trial that failed on its own — a panic inside an engine, or a
/// [`crate::TrialExecutor`]'s isolated failure such as a live trial
/// whose transport stalled twice — reported structurally instead of
/// tearing down the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialError {
    /// Trial index within the batch (`0..trials`).
    pub trial: usize,
    /// The derived per-trial seed, as in [`crate::TrialRecord::seed`].
    pub seed: u64,
    /// What went wrong: the panic payload (message when it was a string,
    /// a placeholder otherwise) or the executor's description.
    pub message: String,
}

impl fmt::Display for TrialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trial {} (seed {}) failed: {}",
            self.trial, self.seed, self.message
        )
    }
}

/// Domain-separation salt of the liveness coins. Delivery chaos salts the
/// same per-trial key with its own constants; the drop coin uses it
/// unsalted.
const LIVENESS_SALT: u64 = 0x4C49_5645_4E45_5353; // "LIVENESS"

/// The 64-bit SplitMix finalizer: the hash behind every keyed fault coin.
/// Statistically independent outputs for distinct inputs, and a pure
/// function — the property that keeps fault verdicts independent of which
/// engine, group or transport evaluates them.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One keyed fault coin: `true` with probability `p`, a pure function of
/// `(key, x, p)` (no draw at all when `p` is 0 or 1).
pub fn keyed_coin(key: u64, x: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    SimRng::seed_from_u64(splitmix(key ^ x)).chance(p)
}

/// A validated, seedable fault regime, shared by every trial of a run and
/// by both stacks.
///
/// All fields default to the fault-free regime ([`FaultModel::default`]
/// is inactive). Crash/recovery clocks are Poisson with the given rates
/// per unit time, discretized per unit window
/// (`P(crash in a window) = 1 − e^{−crash_rate}`), so they compose with
/// dynamic-topology windows without extra bookkeeping. The analytic
/// engines reject active delivery chaos; the live runtime rejects
/// `target_high_degree`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    /// Per-message drop probability in `[0, 1]` (`1.0` kills every
    /// transmission).
    pub drop: f64,
    /// Poisson rate at which each up node crashes (per unit time, `≥ 0`).
    pub crash_rate: f64,
    /// Poisson rate at which each down node recovers (per unit time,
    /// `≥ 0`; `0` makes every crash permanent).
    pub recovery_rate: f64,
    /// Probability in `[0, 1)` that a node is down for a whole window,
    /// independently per node and window. Excludes `crash_rate`,
    /// `recovery_rate`, `schedule` and `target_high_degree`.
    pub downtime: f64,
    /// Seed of the fault coins: trial `i`'s sequential stream is
    /// `SimRng::seed_from_u64(seed).derive(trial_seed_i)`, its keyed coins
    /// hash [`FaultModel::trial_key`].
    pub seed: u64,
    /// Explicit `(window, node)` crash schedule, applied when the window
    /// clock reaches each entry (out-of-range nodes are ignored at run
    /// time; spec validation rejects them up front).
    pub schedule: Vec<(u64, NodeId)>,
    /// Adversarial targeting: crash the `k` highest-degree still-up nodes
    /// at the start of every window (ties broken by ascending node id).
    /// Analytic engines only.
    pub target_high_degree: usize,
    /// Live only: Poisson rate (per unit time, `≥ 0`) at which a unit
    /// window is partitioned into two seeded halves that cannot exchange
    /// envelopes.
    pub partition_rate: f64,
    /// Live only: probability in `[0, 1]` that an envelope is delayed
    /// beyond the one-tick latency.
    pub delay: f64,
    /// Live only: maximum extra epochs a delayed envelope waits (uniform
    /// in `1..=delay_epochs`; `≥ 1`).
    pub delay_epochs: u64,
    /// Live only: probability in `[0, 1]` that an envelope is delivered
    /// twice.
    pub duplicate: f64,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel {
            drop: 0.0,
            crash_rate: 0.0,
            recovery_rate: 0.0,
            downtime: 0.0,
            seed: 0,
            schedule: Vec::new(),
            target_high_degree: 0,
            partition_rate: 0.0,
            delay: 0.0,
            delay_epochs: 1,
            duplicate: 0.0,
        }
    }
}

impl FaultModel {
    /// Whether this model can perturb a run at all. Inactive models are
    /// treated as absent everywhere (no fault state is even created).
    pub fn is_active(&self) -> bool {
        self.drop > 0.0 || self.crash_active() || self.chaos_active()
    }

    /// Whether the liveness machine has anything to do: crashes, downtime,
    /// a schedule or degree targeting.
    pub fn crash_active(&self) -> bool {
        self.crash_rate > 0.0
            || self.downtime > 0.0
            || !self.schedule.is_empty()
            || self.target_high_degree > 0
    }

    /// Whether a trial can end in [`TrialOutcome::Died`]: nodes go down
    /// and the machine never brings them back, so "every informed node
    /// down" is final.
    pub fn can_die(&self) -> bool {
        self.crash_active() && self.recover_p() <= 0.0
    }

    /// Whether any delivery-chaos field (partition, delay, duplicate) is
    /// active.
    pub fn chaos_active(&self) -> bool {
        self.partition_rate > 0.0 || self.delay > 0.0 || self.duplicate > 0.0
    }

    /// Validates every parameter: the one range check per field, and the
    /// regime clash of `downtime` with the crash chain.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFaultParam`] naming the first offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        let invalid = |name, value, constraint| {
            Err(SimError::InvalidFaultParam {
                name,
                value,
                constraint,
            })
        };
        for (name, p) in [
            ("drop", self.drop),
            ("delay", self.delay),
            ("duplicate", self.duplicate),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return invalid(name, p, "within [0, 1]");
            }
        }
        if !(0.0..1.0).contains(&self.downtime) {
            return invalid("downtime", self.downtime, "within [0, 1)");
        }
        for (name, rate) in [
            ("crash_rate", self.crash_rate),
            ("recovery_rate", self.recovery_rate),
            ("partition_rate", self.partition_rate),
        ] {
            if !rate.is_finite() || rate < 0.0 {
                return invalid(name, rate, "a finite non-negative rate");
            }
        }
        if self.delay_epochs == 0 {
            return invalid("delay_epochs", 0.0, "at least 1");
        }
        if self.downtime > 0.0 {
            // One liveness chain per trial: downtime is that chain with
            // crash probability `downtime` and recovery probability 1.
            for (clash, constraint) in [
                (self.crash_rate > 0.0, "0 when crash_rate is set"),
                (self.recovery_rate > 0.0, "0 when recovery_rate is set"),
                (!self.schedule.is_empty(), "0 when a schedule is set"),
                (
                    self.target_high_degree > 0,
                    "0 when target_high_degree is set",
                ),
            ] {
                if clash {
                    return invalid("downtime", self.downtime, constraint);
                }
            }
        }
        Ok(())
    }

    /// [`FaultModel::validate`] plus the analytic engines' limit: they have
    /// no envelopes, so active delivery chaos is rejected, not ignored.
    ///
    /// # Errors
    ///
    /// As [`FaultModel::validate`].
    pub(crate) fn validate_analytic(&self) -> Result<(), SimError> {
        self.validate()?;
        for (name, value) in [
            ("partition_rate", self.partition_rate),
            ("delay", self.delay),
            ("duplicate", self.duplicate),
        ] {
            if value > 0.0 {
                return Err(SimError::InvalidFaultParam {
                    name,
                    value,
                    constraint: "0 outside the live runtime (delivery chaos needs envelopes)",
                });
            }
        }
        Ok(())
    }

    /// The per-window crash probability of an up node.
    fn crash_p(&self) -> f64 {
        if self.downtime > 0.0 {
            self.downtime
        } else {
            1.0 - (-self.crash_rate).exp()
        }
    }

    /// The per-window recovery probability of a down node.
    fn recover_p(&self) -> f64 {
        if self.downtime > 0.0 {
            1.0
        } else {
            1.0 - (-self.recovery_rate).exp()
        }
    }

    /// The per-trial key every keyed coin derives from:
    /// `splitmix(splitmix(seed) ^ trial_seed)`, salted per feature.
    pub fn trial_key(&self, trial_seed: u64) -> u64 {
        splitmix(splitmix(self.seed) ^ trial_seed)
    }

    /// Compiles the model into the per-trial runtime state. `trial_seed`
    /// is the trial's derived RNG seed (the same value recorded in
    /// [`crate::TrialRecord::seed`]), so fault draws are reproducible
    /// from a record alone.
    pub fn state_for_trial(&self, n: usize, trial_seed: u64) -> FaultState {
        FaultState {
            drop: self.drop,
            target_high_degree: self.target_high_degree,
            rng: SimRng::seed_from_u64(self.seed).derive(trial_seed),
            liveness: self
                .crash_active()
                .then(|| Liveness::new(self, trial_seed, 0..n as NodeId)),
            down: NodeSet::new(n),
            window: None,
            scratch: Vec::new(),
        }
    }
}

/// Per-node up/down state for a contiguous node range, advanced over
/// unit-time windows: at window `w` a down node flips a recovery coin, an
/// up node a crash coin, then the schedule entries due at `w` apply. Every
/// coin is keyed by `(fault seed, trial seed, node, window)`, so the state
/// of a node at a window is the same whatever range it is tracked in and
/// however its advances are spaced.
#[derive(Debug, Clone)]
pub struct Liveness {
    key: u64,
    crash_p: f64,
    recover_p: f64,
    lo: NodeId,
    /// Current up/down state per tracked node.
    up: Vec<bool>,
    /// Next window whose transitions have not been applied, per node.
    next_win: Vec<u64>,
    /// Scheduled crash windows per tracked node, ascending.
    sched: Vec<Vec<u64>>,
    /// Next unapplied schedule entry per node (indexes `sched`).
    sched_idx: Vec<u32>,
}

impl Liveness {
    /// The machine for the nodes of `range`, keyed by the model and the
    /// trial seed. Every node starts up with window 0 still pending, so
    /// window 0's coins can crash nodes before any event fires.
    pub fn new(model: &FaultModel, trial_seed: u64, range: Range<NodeId>) -> Liveness {
        let len = range.len();
        let lo = range.start;
        let mut sched: Vec<Vec<u64>> = vec![Vec::new(); len];
        for &(w, v) in &model.schedule {
            if v >= lo && ((v - lo) as usize) < len {
                sched[(v - lo) as usize].push(w);
            }
        }
        for s in &mut sched {
            s.sort_unstable();
        }
        Liveness {
            key: splitmix(model.trial_key(trial_seed) ^ LIVENESS_SALT),
            crash_p: model.crash_p(),
            recover_p: model.recover_p(),
            lo,
            up: vec![true; len],
            next_win: vec![0; len],
            sched,
            sched_idx: vec![0; len],
        }
    }

    /// Whether the tracked node at local index `li` is up *as last
    /// advanced* (callers advance before acting).
    pub fn is_up(&self, li: usize) -> bool {
        self.up[li]
    }

    /// Whether a down node can ever come back up.
    fn can_recover(&self) -> bool {
        self.recover_p > 0.0
    }

    /// Advances node `li`'s machine through every window `≤ window` not
    /// yet applied and returns whether the node is up during `window`.
    /// Idempotent per window and monotone in `window` per node.
    pub fn advance(&mut self, li: usize, window: u64) -> bool {
        let mut win = self.next_win[li];
        if win > window {
            return self.up[li];
        }
        self.next_win[li] = window + 1;
        let v = self.lo + li as NodeId;
        let vkey = splitmix(self.key ^ u64::from(v));
        let mut up = self.up[li];
        let sched = &self.sched[li];
        let mut si = self.sched_idx[li] as usize;
        // Pure-schedule regimes (no Poisson coins) can jump windows.
        if self.crash_p <= 0.0 && self.recover_p <= 0.0 {
            while si < sched.len() && sched[si] <= window {
                up = false;
                si += 1;
            }
        } else {
            while win <= window {
                if !up {
                    // Salt bit 0 = recovery coin, 1 = crash coin.
                    up = keyed_coin(vkey, win << 1, self.recover_p);
                }
                if up && keyed_coin(vkey, (win << 1) | 1, self.crash_p) {
                    up = false;
                }
                while si < sched.len() && sched[si] == win {
                    up = false;
                    si += 1;
                }
                win += 1;
            }
        }
        self.sched_idx[li] = si as u32;
        self.up[li] = up;
        up
    }

    /// Crashes node `li` for the window it was last advanced to (degree
    /// targeting); from the next window on the chain's coins apply.
    fn crash(&mut self, li: usize) {
        self.up[li] = false;
    }
}

/// Per-trial fault runtime of the analytic engines: the [`Liveness`] of
/// every node with its down set, and the sequential stream of the drop
/// and cut-rate ratio coins.
///
/// Engines call [`FaultState::begin_window`] once per window (idempotent)
/// and then consult the veto methods per proposed event; see the module
/// docs for the thinning semantics.
#[derive(Debug, Clone)]
pub struct FaultState {
    drop: f64,
    target_high_degree: usize,
    rng: SimRng,
    /// `None` when the model has no liveness work (drop only).
    liveness: Option<Liveness>,
    down: NodeSet,
    window: Option<u64>,
    scratch: Vec<NodeId>,
}

impl FaultState {
    /// Advances every node's liveness to window `t` in ascending id, then
    /// crashes the `target_high_degree` highest-degree up nodes. Idempotent
    /// per window; the state is a pure function of `(model, trial_seed, t)`.
    pub fn begin_window(&mut self, g: &Topology, t: u64) {
        if self.window == Some(t) {
            return;
        }
        self.window = Some(t);
        let FaultState {
            liveness,
            down,
            scratch,
            target_high_degree,
            ..
        } = self;
        let Some(liveness) = liveness.as_mut() else {
            return;
        };
        for v in 0..g.n() as NodeId {
            if liveness.advance(v as usize, t) {
                down.remove(v);
            } else {
                down.insert(v);
            }
        }
        if *target_high_degree > 0 {
            scratch.clear();
            scratch.extend((0..g.n() as NodeId).filter(|&v| !down.contains(v)));
            scratch.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
            for &v in scratch.iter().take(*target_high_degree) {
                liveness.crash(v as usize);
                down.insert(v);
            }
        }
    }

    /// Whether node `v` is currently down.
    pub fn is_down(&self, v: NodeId) -> bool {
        self.down.contains(v)
    }

    /// Draws the per-message drop coin (no draw when `drop == 0`).
    pub fn drops_message(&mut self) -> bool {
        self.drop > 0.0 && self.rng.chance(self.drop)
    }

    /// The cut-rate thinning veto: whether a proposed infection of `v`
    /// (sampled from the fault-free cut rates) survives. Accepts with
    /// probability `(1 − drop) · r'_v / r_v`, where `r'_v` drops the
    /// contribution of down informed neighbors and is zero when `v` is
    /// down; coin order is fixed (`v`-down short-circuit, drop coin,
    /// neighbor-ratio coin).
    pub fn accepts_cut_event(&mut self, g: &Topology, informed: &NodeSet, v: NodeId) -> bool {
        if self.down.contains(v) {
            return false;
        }
        if self.drops_message() {
            return false;
        }
        if self.down.is_empty() {
            return true;
        }
        let dv = g.degree(v);
        if dv == 0 {
            return false;
        }
        let dv_inv = 1.0 / dv as f64;
        let down = &self.down;
        let mut full = 0.0;
        let mut live = 0.0;
        g.for_each_neighbor(v, |u| {
            if informed.contains(u) {
                let r = 1.0 / g.degree(u) as f64 + dv_inv;
                full += r;
                if !down.contains(u) {
                    live += r;
                }
            }
        });
        if live <= 0.0 {
            return false;
        }
        if live >= full {
            return true;
        }
        self.rng.uniform_f64() * full < live
    }

    /// Whether the rumor provably cannot spread further: the liveness
    /// machine never brings a node back and every informed node is down.
    /// Checked by the engine at window boundaries to report
    /// [`TrialOutcome::Died`].
    pub fn stuck(&self, informed: &NodeSet) -> bool {
        self.liveness.as_ref().is_some_and(|l| !l.can_recover())
            && !informed.is_empty()
            && informed.iter().all(|v| self.down.contains(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;

    fn topo(g: &gossip_graph::Graph) -> Topology {
        Topology::from(g.clone())
    }

    /// Async push–pull on `g` under `model` through [`crate::RunPlan`].
    fn run_faulty(
        g: &gossip_graph::Graph,
        model: FaultModel,
        trials: usize,
        seed: u64,
        max_time: f64,
    ) -> crate::RunReport {
        crate::RunPlan::new(trials, seed)
            .config(crate::RunConfig::with_max_time(max_time))
            .faults(model)
            .execute(
                || gossip_dynamics::StaticNetwork::new(g.clone()),
                || crate::AnyProtocol::event(crate::CutRateAsync::new()),
            )
            .unwrap()
    }

    fn recovering() -> FaultModel {
        FaultModel {
            crash_rate: 0.3,
            recovery_rate: 0.4,
            seed: 9,
            ..FaultModel::default()
        }
    }

    #[test]
    fn outcome_round_trips_and_parses() {
        for o in [
            TrialOutcome::Spread,
            TrialOutcome::Died,
            TrialOutcome::Budget,
        ] {
            assert_eq!(TrialOutcome::parse(o.as_str()), Some(o));
            assert_eq!(TrialOutcome::from_value(&o.to_value()).unwrap(), o);
        }
        assert_eq!(TrialOutcome::parse("nope"), None);
    }

    #[test]
    fn default_model_is_inactive_and_valid() {
        let m = FaultModel::default();
        assert!(!m.is_active());
        m.validate().unwrap();
        // Pure recovery is also inactive: nothing ever goes down.
        let m = FaultModel {
            recovery_rate: 1.0,
            ..FaultModel::default()
        };
        assert!(!m.is_active());
    }

    #[test]
    fn validate_rejects_bad_params() {
        let rejects = |m: FaultModel, field: &str| {
            assert!(
                matches!(m.validate(), Err(SimError::InvalidFaultParam { name, .. }) if name == field),
                "{field}: {:?}",
                m.validate()
            );
        };
        let d = FaultModel::default;
        rejects(FaultModel { drop: 1.5, ..d() }, "drop");
        rejects(
            FaultModel {
                crash_rate: -0.1,
                ..d()
            },
            "crash_rate",
        );
        rejects(
            FaultModel {
                recovery_rate: f64::NAN,
                ..d()
            },
            "recovery_rate",
        );
        rejects(
            FaultModel {
                downtime: 1.0,
                ..d()
            },
            "downtime",
        );
        rejects(
            FaultModel {
                downtime: -0.1,
                ..d()
            },
            "downtime",
        );
        rejects(
            FaultModel {
                partition_rate: -1.0,
                ..d()
            },
            "partition_rate",
        );
        rejects(FaultModel { delay: 1.5, ..d() }, "delay");
        rejects(
            FaultModel {
                duplicate: -0.5,
                ..d()
            },
            "duplicate",
        );
        rejects(
            FaultModel {
                delay_epochs: 0,
                ..d()
            },
            "delay_epochs",
        );
        // One liveness chain per trial: downtime names each clash.
        for (clash, what) in [
            (
                FaultModel {
                    crash_rate: 0.1,
                    ..d()
                },
                "crash_rate",
            ),
            (
                FaultModel {
                    recovery_rate: 0.1,
                    ..d()
                },
                "recovery_rate",
            ),
            (
                FaultModel {
                    schedule: vec![(1, 0)],
                    ..d()
                },
                "schedule",
            ),
            (
                FaultModel {
                    target_high_degree: 1,
                    ..d()
                },
                "target_high_degree",
            ),
        ] {
            let m = FaultModel {
                downtime: 0.2,
                ..clash
            };
            let err = m.validate().unwrap_err().to_string();
            assert!(err.contains("downtime") && err.contains(what), "{err}");
        }
        FaultModel {
            downtime: 0.2,
            drop: 0.3,
            ..d()
        }
        .validate()
        .unwrap();
        // The analytic engines refuse delivery chaos instead of ignoring it.
        let chaos = FaultModel { delay: 0.2, ..d() };
        chaos.validate().unwrap();
        assert!(matches!(
            chaos.validate_analytic(),
            Err(SimError::InvalidFaultParam { name: "delay", .. })
        ));
    }

    #[test]
    fn activity_and_death_follow_the_machine() {
        let d = FaultModel::default;
        let chaos = FaultModel {
            partition_rate: 0.2,
            ..d()
        };
        assert!(chaos.is_active() && chaos.chaos_active() && !chaos.crash_active());
        let crash = FaultModel {
            crash_rate: 0.1,
            ..d()
        };
        assert!(crash.crash_active() && crash.can_die());
        assert!(!recovering().can_die(), "recovery makes death non-final");
        // Downtime is the chain with recovery probability 1: never final.
        let downtime = FaultModel {
            downtime: 0.3,
            ..d()
        };
        assert!(downtime.crash_active() && !downtime.can_die());
        assert_eq!((downtime.crash_p(), downtime.recover_p()), (0.3, 1.0));
    }

    #[test]
    fn begin_window_is_idempotent_and_deterministic() {
        let g = generators::complete(16).unwrap();
        let model = FaultModel {
            crash_rate: 0.5,
            recovery_rate: 0.5,
            seed: 7,
            ..FaultModel::default()
        };
        let mut a = model.state_for_trial(16, 99);
        let mut b = model.state_for_trial(16, 99);
        for t in 0..20 {
            a.begin_window(&topo(&g), t);
            a.begin_window(&topo(&g), t); // second call must not re-draw
            b.begin_window(&topo(&g), t);
            for v in 0..16 {
                assert_eq!(a.is_down(v), b.is_down(v), "window {t} node {v}");
            }
        }
        // A different trial seed gives a different crash pattern somewhere.
        let mut c = model.state_for_trial(16, 100);
        let mut diff = false;
        for t in 0..20 {
            c.begin_window(&topo(&g), t);
            a.begin_window(&topo(&g), t);
            diff |= (0..16).any(|v| a.is_down(v) != c.is_down(v));
        }
        assert!(diff, "fault coins must depend on the trial seed");
    }

    #[test]
    fn liveness_is_group_range_invariant() {
        // The same node tracked in two differently-cut group ranges (and
        // with different advance patterns) lands in the same state.
        let f = recovering();
        let mut whole = Liveness::new(&f, 77, 0..32);
        let mut part = Liveness::new(&f, 77, 16..32);
        for w in [0, 1, 2, 5, 6, 40] {
            for v in 16u32..32 {
                let a = whole.advance(v as usize, w);
                let b = part.advance((v - 16) as usize, w);
                assert_eq!(a, b, "node {v} at window {w}");
            }
        }
        // And lazy staggered advances agree with eager ones.
        let mut eager = Liveness::new(&f, 77, 0..4);
        let mut lazy = Liveness::new(&f, 77, 0..4);
        for w in 0..50 {
            eager.advance(0, w);
        }
        lazy.advance(0, 49);
        assert_eq!(eager.is_up(0), lazy.is_up(0));
    }

    #[test]
    fn liveness_rates_behave() {
        // Crash-only: monotone down, and a decent fraction crashed.
        let f = FaultModel {
            crash_rate: 0.2,
            ..FaultModel::default()
        };
        let n = 256;
        let mut l = Liveness::new(&f, 5, 0..n);
        let mut prev_up = n as usize;
        for w in 0..10 {
            let up = (0..n as usize).filter(|&li| l.advance(li, w)).count();
            assert!(up <= prev_up, "no recovery ⇒ up-set shrinks");
            prev_up = up;
        }
        // E[up after 10 windows] = n·e^{-2} ≈ 34.6; allow wide slack.
        assert!(prev_up < n as usize / 2 && prev_up > 0, "{prev_up}");
        // With recovery, nodes come back somewhere.
        let mut l = Liveness::new(&recovering(), 5, 0..64);
        let mut recovered = false;
        let mut down_seen = [false; 64];
        for w in 0..60 {
            for (li, seen) in down_seen.iter_mut().enumerate() {
                let up = l.advance(li, w);
                if !up {
                    *seen = true;
                } else if *seen {
                    recovered = true;
                }
            }
        }
        assert!(recovered, "recovery coins must revive some node");
    }

    #[test]
    fn downtime_is_redrawn_every_window() {
        let f = FaultModel {
            downtime: 0.4,
            ..FaultModel::default()
        };
        let mut l = Liveness::new(&f, 3, 0..200);
        let mut down = 0usize;
        let mut flips = 0usize;
        let mut prev = [true; 200];
        for w in 0..50 {
            for (li, was) in prev.iter_mut().enumerate() {
                let up = l.advance(li, w);
                down += usize::from(!up);
                flips += usize::from(up != *was);
                *was = up;
            }
        }
        // 10 000 node-windows at 0.4: mean 4000, sd ≈ 49.
        assert!((3_700..4_300).contains(&down), "{down}");
        // Independent per window: a node changes state with probability
        // 2·0.4·0.6 = 0.48 between consecutive windows.
        assert!(flips > 4_000, "{flips}");
    }

    #[test]
    fn heavy_drop_still_completes() {
        let g = generators::complete(24).unwrap();
        let drop = FaultModel {
            drop: 0.9,
            ..FaultModel::default()
        };
        let report = run_faulty(&g, drop, 50, 46, 1e4);
        assert_eq!(report.completed(), 50);
        assert!(report.mean().is_finite() && report.mean() > 0.0);
    }

    #[test]
    fn downtime_is_redrawn_per_window_and_completes() {
        // 60% downtime stalls the cycle in most windows, but the down set
        // is redrawn every window, so over a long horizon it completes.
        let g = generators::cycle(12).unwrap();
        let downtime = FaultModel {
            downtime: 0.6,
            ..FaultModel::default()
        };
        let report = run_faulty(&g, downtime, 50, 47, 500.0);
        assert!(
            report.completed() >= 48,
            "only {}/50 completed under 60% downtime",
            report.completed()
        );
        assert_eq!(report.died(), 0, "downtime never ends Died");
    }

    #[test]
    fn downtime_costs_more_than_the_equivalent_drop() {
        // Downtime d removes a node from *both* sides of every contact for
        // a whole window: strictly worse than dropping each contact with
        // the same marginal probability 1 − (1 − d)² that an endpoint is
        // down.
        let g = generators::complete(24).unwrap();
        let d: f64 = 0.4;
        let downtime = FaultModel {
            downtime: d,
            ..FaultModel::default()
        };
        let drop = FaultModel {
            drop: 1.0 - (1.0 - d) * (1.0 - d),
            ..FaultModel::default()
        };
        let with_down = run_faulty(&g, downtime, 500, 44, 1e4).mean();
        let with_drop = run_faulty(&g, drop, 500, 45, 1e4).mean();
        assert!(
            with_down > with_drop,
            "correlated downtime ({with_down}) should cost more than i.i.d. drop ({with_drop})"
        );
    }

    #[test]
    fn schedule_applies_at_its_window_even_across_jumps() {
        let f = FaultModel {
            schedule: vec![(3, 2), (7, 2)],
            ..FaultModel::default()
        };
        let mut l = Liveness::new(&f, 1, 0..4);
        assert!(l.advance(2, 2), "before the scheduled window");
        assert!(!l.advance(2, 3), "crashes at window 3");
        // A fresh tracker jumping straight past both entries is down too.
        let mut jump = Liveness::new(&f, 1, 0..4);
        assert!(!jump.advance(2, 50));
        // Scheduled crash + recovery: the node can come back later.
        let f = FaultModel {
            schedule: vec![(0, 1)],
            recovery_rate: 5.0,
            crash_rate: 1e-9,
            ..FaultModel::default()
        };
        let mut l = Liveness::new(&f, 1, 0..4);
        assert!(!l.advance(1, 0));
        let mut back = false;
        for w in 1..30 {
            back |= l.advance(1, w);
        }
        assert!(back, "recovery must eventually revive a scheduled crash");
    }

    #[test]
    fn scheduled_and_targeted_crashes_apply() {
        // Star: node 0 is the high-degree hub.
        let g = generators::star(8).unwrap();
        let model = FaultModel {
            schedule: vec![(2, 3)],
            target_high_degree: 1,
            ..FaultModel::default()
        };
        let mut s = model.state_for_trial(8, 0);
        s.begin_window(&topo(&g), 0);
        assert!(s.is_down(0), "hub is the high-degree target");
        assert!(!s.is_down(3), "scheduled crash not due yet");
        s.begin_window(&topo(&g), 1);
        assert!(!s.is_down(3));
        s.begin_window(&topo(&g), 2);
        assert!(s.is_down(3), "scheduled crash fires at its window");
    }

    #[test]
    fn stuck_requires_no_recovery_and_all_informed_down() {
        let g = generators::path(4).unwrap();
        let model = FaultModel {
            schedule: vec![(0, 0)],
            ..FaultModel::default()
        };
        let mut s = model.state_for_trial(4, 0);
        s.begin_window(&topo(&g), 0);
        let mut informed = NodeSet::new(4);
        informed.insert(0);
        assert!(s.stuck(&informed));
        informed.insert(1);
        assert!(!s.stuck(&informed), "a live informed node can still push");
        // With recovery possible, a fully-down frontier is not final.
        let model = FaultModel {
            schedule: vec![(0, 0)],
            recovery_rate: 0.5,
            ..FaultModel::default()
        };
        let mut s = model.state_for_trial(4, 0);
        s.begin_window(&topo(&g), 0);
        let mut informed = NodeSet::new(4);
        informed.insert(0);
        assert!(!s.stuck(&informed));
    }

    #[test]
    fn cut_event_veto_thins_by_live_ratio() {
        let g = generators::path(3).unwrap();
        // Node 1 informed, nodes 0/2 uninformed; no faults → always accept.
        let mut informed = NodeSet::new(3);
        informed.insert(1);
        let mut s = FaultModel::default().state_for_trial(3, 0);
        assert!(s.accepts_cut_event(&topo(&g), &informed, 0));
        // Down proposee is always vetoed; fully-down support likewise.
        let model = FaultModel {
            schedule: vec![(0, 0), (0, 1)],
            ..FaultModel::default()
        };
        let mut s = model.state_for_trial(3, 0);
        s.begin_window(&topo(&g), 0);
        assert!(!s.accepts_cut_event(&topo(&g), &informed, 0), "v down");
        assert!(
            !s.accepts_cut_event(&topo(&g), &informed, 2),
            "only informed neighbor down"
        );
        // drop = 1 vetoes everything even with everyone up.
        let model = FaultModel {
            drop: 1.0,
            ..FaultModel::default()
        };
        let mut s = model.state_for_trial(3, 0);
        assert!(!s.accepts_cut_event(&topo(&g), &informed, 0));
    }
}
