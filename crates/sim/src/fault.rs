//! Seed-deterministic fault injection: message drops and node crashes.
//!
//! A [`FaultModel`] describes the failure regime of a run — a per-message
//! drop probability (Doerr–Kostrygin style transmission failures), seeded
//! Poisson crash/recovery clocks, an explicit `(window, node)` crash
//! schedule, and an adversarial rule that crashes the highest-degree
//! still-up nodes each window. Per trial the model compiles into a
//! [`FaultState`] that the event engine consults.
//!
//! # Exact thinning, not rate surgery
//!
//! Crashed nodes are *rate-zero*: a down node neither initiates contacts
//! nor responds to them, so no rumor crosses an edge with a down endpoint.
//! Rather than rewriting each protocol's rate structure, the fault layer
//! uses exact Poisson thinning: proposal rates stay what they were in the
//! fault-free process and each proposed event is *vetoed* with the
//! complementary probability. For the cut-rate sampler a proposed
//! infection of `v` survives with probability `(1 − drop) · r'_v / r_v`,
//! where `r'_v` keeps only the `(1/d_u + 1/d_v)` terms of *up* informed
//! neighbors `u` (and is zero when `v` itself is down); for the rate-`n`
//! naive protocols the veto happens at contact level (down caller, down
//! callee, or a dropped message each void the tick). Both reductions leave
//! the accepted-event process with exactly the faulty rates, so the two
//! engines and the scalar/vectorized paths stay KS-equivalent under
//! faults.
//!
//! Fault randomness comes from a **dedicated stream**
//! (`SimRng::seed_from_u64(model.seed).derive(trial_seed)`), never from
//! the trial RNG: enabling a fault model with `drop = 0` and no crashes
//! leaves every fault-free trial bit-identical, and fault draws are
//! deterministic by `(spec, seed)` for each engine/path (scalar and
//! vectorized consume the stream in different orders; distributional
//! equality is the contract, as for the fault-free lanes).

use std::fmt;

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

/// A validated, seedable fault regime, shared by every trial of a run.
///
/// All fields default to the fault-free regime ([`FaultModel::default`]
/// is inactive). Crash/recovery clocks are Poisson with the given rates
/// per unit time, discretized per unit window
/// (`P(crash in a window) = 1 − e^{−crash_rate}`), so they compose with
/// dynamic-topology windows without extra bookkeeping.
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
    /// Seed of the dedicated fault stream; trial `i` uses
    /// `SimRng::seed_from_u64(seed).derive(trial_seed_i)`.
    pub seed: u64,
    /// Explicit `(window, node)` crash schedule, applied when the window
    /// clock reaches each entry (out-of-range nodes are ignored at run
    /// time; spec validation rejects them up front).
    pub schedule: Vec<(u64, NodeId)>,
    /// Adversarial targeting: crash the `k` highest-degree still-up nodes
    /// at the start of every window (ties broken by ascending node id).
    pub target_high_degree: usize,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel {
            drop: 0.0,
            crash_rate: 0.0,
            recovery_rate: 0.0,
            seed: 0,
            schedule: Vec::new(),
            target_high_degree: 0,
        }
    }
}

impl FaultModel {
    /// Whether this model can perturb a run at all. Inactive models are
    /// treated as absent everywhere (no fault stream is even created).
    pub fn is_active(&self) -> bool {
        self.drop > 0.0
            || self.crash_rate > 0.0
            || !self.schedule.is_empty()
            || self.target_high_degree > 0
    }

    /// Validates the numeric parameters.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFaultParam`] when `drop` is outside `[0, 1]` or
    /// a rate is negative / non-finite.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(0.0..=1.0).contains(&self.drop) {
            return Err(SimError::InvalidFaultParam {
                name: "drop",
                value: self.drop,
                constraint: "within [0, 1]",
            });
        }
        for (name, value) in [
            ("crash_rate", self.crash_rate),
            ("recovery_rate", self.recovery_rate),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(SimError::InvalidFaultParam {
                    name,
                    value,
                    constraint: "a finite non-negative rate",
                });
            }
        }
        Ok(())
    }

    /// Compiles the model into the per-trial runtime state. `trial_seed`
    /// is the trial's derived RNG seed (the same value recorded in
    /// [`crate::TrialRecord::seed`]), so fault draws are reproducible
    /// from a record alone.
    pub fn state_for_trial(&self, n: usize, trial_seed: u64) -> FaultState {
        let mut schedule = self.schedule.clone();
        schedule.sort_unstable();
        FaultState {
            drop: self.drop,
            crash_p: 1.0 - (-self.crash_rate).exp(),
            recover_p: 1.0 - (-self.recovery_rate).exp(),
            can_recover: self.recovery_rate > 0.0,
            target_high_degree: self.target_high_degree,
            schedule,
            sched_idx: 0,
            rng: SimRng::seed_from_u64(self.seed).derive(trial_seed),
            down: NodeSet::new(n),
            window: None,
            scratch: Vec::new(),
        }
    }
}

/// Per-trial fault runtime: the down set, the dedicated fault RNG, and
/// the window clock driving crash/recovery coins.
///
/// Engines call [`FaultState::begin_window`] once per window (idempotent)
/// and then consult the veto methods per proposed event; see the module
/// docs for the thinning semantics.
#[derive(Debug, Clone)]
pub struct FaultState {
    drop: f64,
    crash_p: f64,
    recover_p: f64,
    can_recover: bool,
    target_high_degree: usize,
    schedule: Vec<(u64, NodeId)>,
    sched_idx: usize,
    rng: SimRng,
    down: NodeSet,
    window: Option<u64>,
    scratch: Vec<NodeId>,
}

impl FaultState {
    /// Advances the crash/recovery process to window `t`. Idempotent per
    /// window; draw order is fixed (recovery coins for down nodes in
    /// ascending id, crash coins for up nodes in ascending id, scheduled
    /// crashes, then high-degree targeting) so the state is a pure
    /// function of `(model, trial_seed, t)`.
    pub fn begin_window(&mut self, g: &Topology, t: u64) {
        if self.window == Some(t) {
            return;
        }
        self.window = Some(t);
        let FaultState {
            down, rng, scratch, ..
        } = self;
        if self.recover_p > 0.0 && !down.is_empty() {
            scratch.clear();
            scratch.extend(down.iter());
            for &v in scratch.iter() {
                if rng.chance(self.recover_p) {
                    down.remove(v);
                }
            }
        }
        if self.crash_p > 0.0 {
            for v in 0..g.n() as NodeId {
                if !down.contains(v) && rng.chance(self.crash_p) {
                    down.insert(v);
                }
            }
        }
        while self.sched_idx < self.schedule.len() && self.schedule[self.sched_idx].0 <= t {
            let (_, v) = self.schedule[self.sched_idx];
            self.sched_idx += 1;
            if (v as usize) < g.n() {
                down.insert(v);
            }
        }
        if self.target_high_degree > 0 {
            scratch.clear();
            scratch.extend((0..g.n() as NodeId).filter(|&v| !down.contains(v)));
            scratch.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
            for &v in scratch.iter().take(self.target_high_degree) {
                down.insert(v);
            }
        }
    }

    /// Whether node `v` is currently down.
    pub fn is_down(&self, v: NodeId) -> bool {
        self.down.contains(v)
    }

    /// Whether any node is currently down.
    pub fn any_down(&self) -> bool {
        !self.down.is_empty()
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

    /// Whether the rumor provably cannot spread further: recovery is
    /// impossible and every informed node is down. Checked by the engine
    /// at window boundaries to report [`TrialOutcome::Died`].
    pub fn stuck(&self, informed: &NodeSet) -> bool {
        !self.can_recover && !informed.is_empty() && informed.iter().all(|v| self.down.contains(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators;

    fn topo(g: &gossip_graph::Graph) -> Topology {
        Topology::from(g.clone())
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
        let bad_drop = FaultModel {
            drop: 1.5,
            ..FaultModel::default()
        };
        assert!(matches!(
            bad_drop.validate(),
            Err(SimError::InvalidFaultParam { name: "drop", .. })
        ));
        let bad_rate = FaultModel {
            crash_rate: -0.1,
            ..FaultModel::default()
        };
        assert!(matches!(
            bad_rate.validate(),
            Err(SimError::InvalidFaultParam {
                name: "crash_rate",
                ..
            })
        ));
        let bad_recovery = FaultModel {
            recovery_rate: f64::NAN,
            ..FaultModel::default()
        };
        assert!(bad_recovery.validate().is_err());
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
        assert!(diff, "fault stream must depend on the trial seed");
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
        let model = FaultModel {
            drop: 0.0,
            ..FaultModel::default()
        };
        let mut s = model.state_for_trial(3, 0);
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
