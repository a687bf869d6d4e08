//! The exact accelerated asynchronous push–pull simulator.
//!
//! Only contacts across the informed/uninformed cut change the process
//! state. For a fixed graph, the contact process along edge `{u, v}` is
//! Poisson with rate `1/d_u + 1/d_v` (u calls v at rate `1/d_u`, v calls u
//! at rate `1/d_v`), so by the order statistics of exponentials (paper
//! Equation (1)) the *next informative event* happens after `Exp(λ)` with
//!
//! `λ = Σ_{{u,v} ∈ E(I, U)} (1/d_u + 1/d_v)`
//!
//! and informs the uninformed node `v` with probability proportional to its
//! in-rate `r_v = Σ_{u ∈ I ∩ N(v)} (1/d_u + 1/d_v)`.
//!
//! Four strategies, selected per [`Topology`] backend, per engine and,
//! in the event engine, per trial:
//!
//! * **Generic Fenwick** — per-node in-rates in a Fenwick tree: `O(log n)`
//!   sampling per infection and `O(deg(v))` rate updates. Exact on any
//!   backend, but `deg(v) = n − 1` on dense graphs makes a complete-graph
//!   run `Θ(n²)`. This is the window engine's sampler: its
//!   [`Protocol::advance_window`] rebuilds the tree every window, and it
//!   is the independent reference the event engine is tested against.
//! * **Contact thinning** — on a dense static generic topology (mean
//!   degree at least 12, or 32 once the adjacency outgrows the cache;
//!   [`crate::contacts::MIN_MEAN_DEGREE`]) in a fault-free trial the
//!   event engine keeps no rates at all: it proposes contacts out of the
//!   smaller side of the cut and keeps those that cross it (`O(1)` per
//!   proposal, [`crate::contacts`]). A trial whose proposals rarely cross
//!   (a poor expander) hands over to the vectorized lane, built from its
//!   informed set, for the rest of the trial.
//! * **Vectorized lane** — the event engine keeps the same per-node
//!   in-rates in flat arrays ([`FastLane`]) that the rejection-sampling
//!   inner loop drives. A rebuild writes them directly; a sparse topology
//!   delta repairs them in place, so dynamic windows run the vectorized
//!   loop too. It runs every trial the contact sampler does not: dynamic
//!   networks, fault runs, sparser static graphs and handed-over trials.
//! * **Closed form** — on implicit complete and star backends the
//!   symmetry collapses the whole rate vector to a handful of counters:
//!   on `K_n` every uninformed node has in-rate `2|I|/(n−1)`, so
//!   `λ = 2|I||U|/(n−1)`, sampling is a uniform draw from the uninformed
//!   pool, and each infection updates the state in `O(1)`. A complete-graph
//!   spread becomes `O(n)` total — the lever that takes dense-graph
//!   experiments from `n ≈ 10⁴` to `n ≥ 10⁵`.
//!
//! Seeded *sampled* backends ([`gossip_graph::Topology::gnp`] and kin)
//! ride the generic paths. Every generic strategy asks for degrees when
//! it builds its state (the lane reads every node's), and a sampled
//! `G(n, p)` answers its first query by realizing the whole graph into a
//! CSR `Graph`, `O(n + m)`, which clones of the topology share from then
//! on. That CSR is the materialized twin's, sorted rows and all, so a run
//! consumes a bit-identical RNG stream either way
//! (`tests/sampled_equivalence.rs` asserts this exactly).
//!
//! The distribution over (infection sequence, times) is *identical* in
//! every strategy and to the naive simulator's; the test suites check
//! this with Kolmogorov–Smirnov tests.

use crate::contacts::{ContactSampler, Drive};
use crate::incremental::WindowStep;
use crate::workspace::ShrinkPool;
use crate::{Protocol, SimWorkspace};
use gossip_dynamics::EdgeDelta;
use gossip_graph::{NodeId, NodeSet, Structure, Topology};
use gossip_stats::{FenwickSampler, SimRng};

/// Batch size for pre-drawn uniforms in the vectorized loop.
const UNIFORM_BATCH: usize = 64;

/// Consecutive rejections (within one sample) that trigger an `rmax`
/// refresh over the frontier.
const RMAX_REFRESH_STREAK: u32 = 64;

/// Structure-of-arrays rate state of the vectorized inner loop
/// ([`CutRateAsync::drive_window_fast`]): the event engine's rate state
/// on generic backends wherever the contact sampler does not run.
///
/// Replaces the Fenwick tree's `O(log n)` sample / update walks with a
/// rejection sampler over flat arrays: `members[..flen]` lists the
/// frontier (uninformed nodes with positive in-rate), `rates` /
/// `deg_invs` hold the per-node state for *all* nodes, and
/// `lambda` / `rmax` are the incrementally maintained total and running
/// upper bound of the frontier rates, on regular and irregular graphs
/// alike. Rates and inverse degrees live in *separate* arrays on purpose:
/// the rejection probes touch only `rates`, so their random-access working
/// set is half of what interleaved 16-byte records would make it. There
/// is deliberately no node-to-slot index: the only slot the loop ever
/// needs is the one the rejection sampler just drew, and frontier
/// membership is exactly `rate != 0`. `rmax` only ever over-estimates
/// (rates grow in place and leave the frontier whole), so rejection
/// sampling against it stays exact; a long rejection streak triggers an
/// `O(|frontier|)` refresh.
///
/// [`FastLane::build`] writes the whole state for a new topology;
/// [`FastLane::set_rate`] and [`FastLane::drop_zero_rates`] repair it
/// after a sparse delta, whether or not it changes a degree
/// ([`CutRateAsync::repair_lane`]). A rate that falls to zero in a repair
/// leaves the frontier in one scan of `members[..flen]`, which few
/// repairs need, so the event loop keeps no node-to-slot index.
#[derive(Debug, Clone, Default)]
struct FastLane {
    /// Per-node in-rates; nonzero exactly for frontier members.
    rates: Vec<f64>,
    /// Per-node `1/degree` (infinite for isolated nodes, which are never
    /// informed and never scanned as neighbors).
    deg_invs: Vec<f64>,
    /// Frontier storage; `members[..flen]` are the live entries. Always
    /// `n` slots so the branch-free append below never reallocates.
    members: Vec<NodeId>,
    /// Live prefix length of `members`.
    flen: usize,
    /// Incrementally maintained total cut rate `λ`.
    lambda: f64,
    /// Upper bound on every frontier rate (may be stale high, never low).
    rmax: f64,
    /// Whether a repair zeroed the rate of a frontier member that is still
    /// listed in `members[..flen]`.
    stale_members: bool,
    /// Scratch row of still-uninformed neighbors (the absorb filter pass
    /// writes it, the update pass consumes it).
    scratch: Vec<NodeId>,
}

impl FastLane {
    /// Builds the lane for topology `g` and the informed set in one pass
    /// over the nodes: the same per-node sums a Fenwick rebuild stores
    /// ([`fill_rates`]), the inverse-degree cache (filled eagerly so the
    /// hot loop carries no lazy-fill branch or division), and the
    /// frontier, `λ` and the rate bound in index order.
    fn build(&mut self, g: &Topology, informed: &NodeSet) {
        let n = g.n();
        self.rates.resize(n, 0.0);
        fill_rates(g, informed, &mut self.rates);
        // Degree-0 nodes get an infinite inverse, but they are never
        // informed and never scanned as neighbors, so it is never read.
        self.deg_invs.clear();
        self.deg_invs
            .extend((0..n as NodeId).map(|v| 1.0 / g.degree(v) as f64));
        // Slots past `flen` are written before they are read, so only the
        // length matters.
        self.members.resize(n, 0);
        self.flen = 0;
        let mut lambda = 0.0;
        let mut rmax = 0.0;
        for (v, &w) in self.rates.iter().enumerate() {
            if w > 0.0 {
                self.members[self.flen] = v as NodeId;
                self.flen += 1;
                lambda += w;
                if w > rmax {
                    rmax = w;
                }
            }
        }
        self.lambda = lambda;
        self.rmax = rmax;
        self.stale_members = false;
    }

    /// Refreshes the cached inverse degree of a changed-edge endpoint.
    fn set_degree(&mut self, v: NodeId, degree: usize) {
        self.deg_invs[v as usize] = 1.0 / degree as f64;
    }

    /// Sets node `v`'s in-rate in a repair: `λ` moves by the difference,
    /// the bound only grows, a node whose rate turns positive joins the
    /// frontier, and one whose rate falls to zero is left for
    /// [`FastLane::drop_zero_rates`].
    fn set_rate(&mut self, v: NodeId, rate: f64) {
        let old = std::mem::replace(&mut self.rates[v as usize], rate);
        self.lambda += rate - old;
        if rate > self.rmax {
            self.rmax = rate;
        }
        if rate != 0.0 && old == 0.0 {
            self.members[self.flen] = v;
            self.flen += 1;
        }
        self.stale_members |= old != 0.0 && rate == 0.0;
    }

    /// Ends a repair: removes the members whose rate it zeroed, in one
    /// scan of `members[..flen]` (swap-remove, as the event loop does).
    fn drop_zero_rates(&mut self) {
        if std::mem::take(&mut self.stale_members) {
            let mut i = 0;
            while i < self.flen {
                if self.rates[self.members[i] as usize] == 0.0 {
                    self.flen -= 1;
                    self.members[i] = self.members[self.flen];
                } else {
                    i += 1;
                }
            }
        }
        if self.flen == 0 {
            // An empty frontier has no rate: drop the round-off of the
            // updates that emptied it.
            self.lambda = 0.0;
        }
    }
}

/// Pre-drawn variates of the trial stream, consumed by the vectorized
/// lane and the contact sampler ([`crate::contacts`]) alike: a trial that
/// hands over from one to the other keeps the unconsumed draws, which are
/// independent of everything already used.
#[derive(Debug, Clone, Default)]
pub(crate) struct Variates {
    /// Pre-drawn uniforms (the fused slot + acceptance draws).
    uniforms: Vec<f64>,
    /// Next unconsumed slot in `uniforms`.
    cursor: usize,
    /// Pre-drawn `Exp(1)` variates: `-ln(u)` is applied at refill time so
    /// the per-event clock is a load and a divide, not a transcendental
    /// on the critical path.
    exps: Vec<f64>,
    /// Next unconsumed slot in `exps`.
    ecursor: usize,
}

impl Variates {
    /// Drops every pre-drawn variate, so no draw of a previous trial
    /// leaks into the next.
    fn discard(&mut self) {
        self.cursor = self.uniforms.len();
        self.ecursor = self.exps.len();
    }

    /// Next batched uniform in `[0, 1)`; refills from `rng` on exhaustion.
    #[inline]
    pub(crate) fn uniform(&mut self, rng: &mut SimRng) -> f64 {
        if self.cursor >= self.uniforms.len() {
            if self.uniforms.len() < UNIFORM_BATCH {
                self.uniforms.resize(UNIFORM_BATCH, 0.0);
            }
            rng.fill_uniform(&mut self.uniforms);
            self.cursor = 0;
        }
        let u = self.uniforms[self.cursor];
        self.cursor += 1;
        u
    }

    /// Next batched `Exp(1)` variate.
    ///
    /// The `-ln` is applied once per refill over the whole batch; a zero
    /// uniform (probability `2⁻⁵³` per draw) is clamped to the smallest
    /// positive double instead of re-drawn, truncating the exponential at
    /// `≈ 708` — far beyond any horizon and invisible to any statistic.
    #[inline]
    pub(crate) fn next_exp(&mut self, rng: &mut SimRng) -> f64 {
        if self.ecursor >= self.exps.len() {
            if self.exps.len() < UNIFORM_BATCH {
                self.exps.resize(UNIFORM_BATCH, 0.0);
            }
            rng.fill_uniform(&mut self.exps);
            for x in &mut self.exps {
                *x = -x.max(f64::MIN_POSITIVE).ln();
            }
            self.ecursor = 0;
        }
        let e = self.exps[self.ecursor];
        self.ecursor += 1;
        e
    }
}

/// Writes every node's in-rate `r_v = Σ_{u ∈ I ∩ N(v)} (1/d_u + 1/d_v)`
/// into `w`, zeroing it first: pushed from each informed node when they are
/// at most half, pulled by each uninformed node otherwise. The window
/// engine's Fenwick tree and the event engine's vectorized lane both build
/// from it, so they hold the same sums.
fn fill_rates(g: &Topology, informed: &NodeSet, w: &mut [f64]) {
    w.iter_mut().for_each(|x| *x = 0.0);
    if informed.len() * 2 <= w.len() {
        for u in informed.iter() {
            let du_inv = 1.0 / g.degree(u) as f64;
            g.for_each_neighbor(u, |v| {
                if !informed.contains(v) {
                    w[v as usize] += du_inv + 1.0 / g.degree(v) as f64;
                }
            });
        }
    } else {
        for v in informed.iter_complement() {
            let dv = g.degree(v);
            if dv == 0 {
                continue;
            }
            let dv_inv = 1.0 / dv as f64;
            let mut r = 0.0;
            g.for_each_neighbor(v, |u| {
                if informed.contains(u) {
                    r += 1.0 / g.degree(u) as f64 + dv_inv;
                }
            });
            w[v as usize] = r;
        }
    }
}

/// Per-backend rate state (see the module docs).
#[derive(Debug, Clone)]
enum RateState {
    /// Generic per-node in-rates, any backend: the window engine's state.
    Fenwick(FenwickSampler),
    /// Generic per-node in-rates in the vectorized lane
    /// ([`CutRateAsync::fast`]), any backend: the event engine's state
    /// on dynamic networks, in fault runs and after a handover.
    Lane,
    /// No rates at all: the contact sampler ([`CutRateAsync::contacts`])
    /// of a static topology in a fault-free trial, until it hands the
    /// trial over to the lane.
    Contacts,
    /// Implicit `K_n`: all uninformed nodes share the in-rate
    /// `2|I|/(n−1)`.
    Complete { n: usize, uninformed: ShrinkPool },
    /// Implicit star: every cut edge carries `1 + 1/(n−1)`; the cut is
    /// either {center → uninformed leaves} or {informed leaves → center}.
    Star {
        n: usize,
        center: NodeId,
        center_informed: bool,
        uninformed_leaves: ShrinkPool,
    },
}

impl RateState {
    /// The uninformed pool of a closed-form state.
    fn into_pool(self) -> Option<ShrinkPool> {
        match self {
            RateState::Complete { uninformed, .. } => Some(uninformed),
            RateState::Star {
                uninformed_leaves, ..
            } => Some(uninformed_leaves),
            _ => None,
        }
    }
}

/// Exact cut-rate simulator of the asynchronous push–pull algorithm.
///
/// # Example
///
/// ```
/// use gossip_dynamics::StaticNetwork;
/// use gossip_graph::generators;
/// use gossip_sim::{CutRateAsync, RunConfig, Simulation};
/// use gossip_stats::SimRng;
///
/// let mut net = StaticNetwork::new(generators::cycle(100).unwrap());
/// let mut rng = SimRng::seed_from_u64(9);
/// let outcome = Simulation::new(CutRateAsync::new(), RunConfig::default())
///     .run(&mut net, 0, &mut rng)
///     .unwrap();
/// assert!(outcome.complete());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CutRateAsync {
    n: usize,
    state: Option<RateState>,
    /// The vectorized lane; it describes the current state only while
    /// `state` is [`RateState::Lane`], and keeps its storage otherwise.
    fast: FastLane,
    /// The contact sampler; its trial state is current only while `state`
    /// is [`RateState::Contacts`], and its per-topology constants persist
    /// across trials.
    contacts: ContactSampler,
    /// The batched variates both of them draw from.
    draws: Variates,
    /// The samplers the current trial ran, in order (the test probe
    /// behind [`CutRateAsync::samplers_run`]).
    #[cfg(test)]
    ran: Vec<&'static str>,
}

impl CutRateAsync {
    /// Creates the protocol.
    pub fn new() -> Self {
        CutRateAsync::default()
    }

    /// The window engine's rebuild for the current topology and informed
    /// set: the closed form when the backend admits one (O(n)), else the
    /// Fenwick tree, with weights accumulated in bulk — one O(n) tree
    /// build instead of one O(log n) update per cut edge. A tree of the
    /// right size is rebuilt in place across windows.
    pub(crate) fn rebuild_rates(&mut self, g: &Topology, informed: &NodeSet) {
        if self.rebuild_closed_form(g, informed, None) {
            return;
        }
        let n = self.n;
        let mut rates = match self.state.take() {
            Some(RateState::Fenwick(f)) if f.len() == n => f,
            _ => FenwickSampler::new(n),
        };
        rates
            .rebuild_into(n, |w| fill_rates(g, informed, w))
            .expect("rates are finite");
        self.state = Some(RateState::Fenwick(rates));
    }

    /// The event engine's rebuild: the closed form when the backend
    /// admits one, else the vectorized lane ([`FastLane::build`]). The
    /// closed form's pool is drawn from (and a displaced one returned to)
    /// the [`SimWorkspace`]; it comes back in ascending member order, so
    /// the built state is the one fresh storage would hold.
    pub(crate) fn rebuild_rates_in(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        ws: &mut SimWorkspace,
    ) {
        if self.rebuild_closed_form(g, informed, Some(&mut *ws)) {
            return;
        }
        // The lane keeps its own storage; park whatever the previous
        // state held.
        Self::stash_state(self.state.take(), ws);
        self.build_lane(g, informed);
    }

    /// The event engine's rebuild for a trial on a static network without
    /// faults ([`crate::IncrementalProtocol::rebuild_static`]): the closed
    /// form when the backend admits one, else, on a graph dense enough
    /// for it ([`ContactSampler::suits`]), the contact sampler, whose
    /// per-topology constants carry over from the previous trial on the
    /// same topology, and the lane on a sparser one.
    pub(crate) fn rebuild_rates_static(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        ws: &mut SimWorkspace,
    ) {
        if !ContactSampler::suits(g) {
            return self.rebuild_rates_in(g, informed, ws);
        }
        if self.rebuild_closed_form(g, informed, Some(&mut *ws)) {
            return;
        }
        Self::stash_state(self.state.take(), ws);
        self.contacts.start(g, informed);
        self.state = Some(RateState::Contacts);
        #[cfg(test)]
        self.note_sampler("contacts");
    }

    /// Builds the vectorized lane for `g` and the informed set and makes
    /// it the rate state.
    fn build_lane(&mut self, g: &Topology, informed: &NodeSet) {
        self.fast.build(g, informed);
        self.state = Some(RateState::Lane);
        #[cfg(test)]
        self.note_sampler("lane");
    }

    /// Records that the current trial runs `sampler` (once per switch).
    #[cfg(test)]
    fn note_sampler(&mut self, sampler: &'static str) {
        if self.ran.last() != Some(&sampler) {
            self.ran.push(sampler);
        }
    }

    /// The samplers the current trial ran, in order: `"contacts"` and
    /// `"lane"` for the generic backends' two event-engine samplers.
    #[cfg(test)]
    pub(crate) fn samplers_run(&self) -> &[&'static str] {
        &self.ran
    }

    /// Builds the closed-form state of an implicit complete or star
    /// backend and returns `true`; returns `false`, leaving the state
    /// alone, on every other backend.
    fn rebuild_closed_form(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        ws: Option<&mut SimWorkspace>,
    ) -> bool {
        debug_assert_eq!(g.n(), self.n, "begin() saw a different network size");
        match g.structure() {
            Some(Structure::Complete { n }) => {
                let mut uninformed = self.take_pool(ws);
                uninformed.reset_from(n, |v| !informed.contains(v));
                self.state = Some(RateState::Complete { n, uninformed });
            }
            Some(Structure::Star { n, center }) => {
                let mut uninformed_leaves = self.take_pool(ws);
                uninformed_leaves.reset_from(n, |v| v != center && !informed.contains(v));
                self.state = Some(RateState::Star {
                    n,
                    center,
                    center_informed: informed.contains(center),
                    uninformed_leaves,
                });
            }
            None => return false,
        }
        true
    }

    /// The uninformed pool for a closed-form state: the previous state's,
    /// else the one parked in the workspace, else a fresh (empty) one.
    /// (The lane keeps its storage in `fast`; a window engine's tree is
    /// dropped.)
    fn take_pool(&mut self, ws: Option<&mut SimWorkspace>) -> ShrinkPool {
        match self.state.take().and_then(RateState::into_pool) {
            Some(pool) => pool,
            None => ws
                .map(|ws| std::mem::take(&mut ws.pool))
                .unwrap_or_default(),
        }
    }

    /// Parks the pool of a closed-form rate state in the workspace.
    fn stash_state(state: Option<RateState>, ws: &mut SimWorkspace) {
        if let Some(pool) = state.and_then(RateState::into_pool) {
            ws.pool = pool;
        }
    }

    /// Trial-boundary reset for the workspace path: every piece of the
    /// previous trial's rate state is returned to the workspace, to be
    /// checked out again by this trial's first
    /// [`CutRateAsync::rebuild_rates_in`]. The cross-trial analogue of
    /// what [`Protocol::begin`] does by dropping.
    pub(crate) fn begin_reusing(&mut self, n: usize, ws: &mut SimWorkspace) {
        Self::stash_state(self.state.take(), ws);
        self.begin(n);
    }

    /// Whether the current state is the generic Fenwick tree.
    #[cfg(test)]
    pub(crate) fn is_fenwick(&self) -> bool {
        matches!(self.state, Some(RateState::Fenwick(_)))
    }

    /// Total cut rate `λ` (0 before the first rebuild, or when no
    /// informative edge exists); on the contact sampler, the rate of its
    /// proposal clock, an upper bound on `λ`.
    pub(crate) fn total_rate(&self) -> f64 {
        match &self.state {
            None => 0.0,
            Some(RateState::Fenwick(f)) => f.total(),
            Some(RateState::Lane) => self.fast.lambda,
            Some(RateState::Contacts) => self.contacts.proposal_rate(),
            Some(RateState::Complete { n, uninformed }) => {
                let u = uninformed.len();
                let i = n - u;
                (i * u) as f64 * 2.0 / (*n as f64 - 1.0)
            }
            Some(RateState::Star {
                n,
                center_informed,
                uninformed_leaves,
                ..
            }) => {
                // Every cut edge is a {center, leaf} pair of weight
                // 1 + 1/(n-1).
                let leaves = n - 1;
                let cut_edges = if *center_informed {
                    uninformed_leaves.len()
                } else {
                    leaves - uninformed_leaves.len()
                };
                cut_edges as f64 * (1.0 + 1.0 / (*n as f64 - 1.0))
            }
        }
    }

    /// The current in-rate of node `v` (0 before the first rebuild).
    #[cfg(test)]
    pub(crate) fn rate_of(&self, v: NodeId) -> f64 {
        match &self.state {
            None => 0.0,
            Some(RateState::Fenwick(f)) => f.weight(v as usize),
            Some(RateState::Lane) => self.fast.rates[v as usize],
            Some(RateState::Contacts) => unreachable!("the contact sampler keeps no in-rates"),
            Some(RateState::Complete { n, uninformed }) if uninformed.contains(v) => {
                (n - uninformed.len()) as f64 * 2.0 / (*n as f64 - 1.0)
            }
            Some(RateState::Complete { .. }) => 0.0,
            Some(RateState::Star {
                n,
                center,
                center_informed,
                uninformed_leaves,
            }) => {
                let w = 1.0 + 1.0 / (*n as f64 - 1.0);
                if v == *center {
                    if *center_informed {
                        0.0
                    } else {
                        ((n - 1) - uninformed_leaves.len()) as f64 * w
                    }
                } else if *center_informed && uninformed_leaves.contains(v) {
                    w
                } else {
                    0.0
                }
            }
        }
    }

    /// The vectorized lane's frontier `members[..flen]`; `None` off the
    /// lane state.
    #[cfg(test)]
    pub(crate) fn lane_frontier(&self) -> Option<Vec<NodeId>> {
        matches!(self.state, Some(RateState::Lane))
            .then(|| self.fast.members[..self.fast.flen].to_vec())
    }

    /// Draws the next node to inform, proportionally to its in-rate.
    pub(crate) fn sample_next(&mut self, rng: &mut SimRng) -> Option<NodeId> {
        match self.state.as_ref().expect("rebuilt before sampling") {
            RateState::Fenwick(f) => f.sample(rng).map(|v| v as NodeId),
            RateState::Lane | RateState::Contacts => {
                unreachable!("the lane and the contact sampler sample in their own loops")
            }
            RateState::Complete { n, uninformed } => {
                let u = uninformed.len();
                (u > 0 && u < *n).then(|| uninformed.sample(rng))
            }
            RateState::Star {
                n,
                center,
                center_informed,
                uninformed_leaves,
            } => {
                if *center_informed {
                    (uninformed_leaves.len() > 0).then(|| uninformed_leaves.sample(rng))
                } else {
                    (uninformed_leaves.len() < n - 1).then_some(*center)
                }
            }
        }
    }

    /// Frontier update after `v` became informed. O(1) on closed-form
    /// backends. On the Fenwick path: `v` stops being a target and starts
    /// pressuring its uninformed neighbors — density-adaptive between at
    /// most `min(deg(v), |U|)` point updates at `O(log n)` each and an
    /// O(n) bulk tree rebuild (only plausible for very high-degree nodes
    /// mid-spread).
    pub(crate) fn absorb_informed(&mut self, g: &Topology, v: NodeId, informed: &NodeSet) {
        match self.state.as_mut().expect("rebuilt before absorbing") {
            RateState::Lane | RateState::Contacts => {
                unreachable!("the lane and the contact sampler absorb in their own loops")
            }
            RateState::Complete { uninformed, .. } => uninformed.remove(v),
            RateState::Star {
                center,
                center_informed,
                uninformed_leaves,
                ..
            } => {
                if v == *center {
                    *center_informed = true;
                } else {
                    uninformed_leaves.remove(v);
                }
            }
            RateState::Fenwick(rates) => {
                let n = g.n();
                let dv_inv = 1.0 / g.degree(v) as f64;
                let log2n = usize::BITS.saturating_sub(n.leading_zeros()) as usize;
                let updates = g.degree(v).min(n - informed.len());
                if updates.saturating_mul(log2n) >= 4 * n {
                    rates
                        .set_bulk(|w| {
                            w[v as usize] = 0.0;
                            g.for_each_neighbor(v, |u| {
                                if !informed.contains(u) {
                                    w[u as usize] += dv_inv + 1.0 / g.degree(u) as f64;
                                }
                            });
                        })
                        .expect("rates are finite");
                } else {
                    rates.set(v as usize, 0.0).expect("zero is valid");
                    let mut failed = None;
                    g.for_each_neighbor(v, |u| {
                        if !informed.contains(u) {
                            let du_inv = 1.0 / g.degree(u) as f64;
                            if let Err(e) = rates.add(u as usize, dv_inv + du_inv) {
                                failed = Some(e);
                            }
                        }
                    });
                    assert!(failed.is_none(), "rates are finite");
                }
            }
        }
    }

    /// Repairs only the nodes whose in-rate could have moved: uninformed
    /// endpoints of changed edges, and uninformed neighbors of informed
    /// endpoints (whose `1/d_u` contribution shifted with `u`'s degree).
    /// Each distinct endpoint is examined once, so an informed one walks
    /// its row once however many changed edges it has, and each stale
    /// node is recomputed once, in ascending order
    /// ([`CutRateAsync::repair_lane`]). Lane state only
    /// ([`crate::IncrementalProtocol::apply_delta`] picks this path for
    /// sparse deltas).
    pub(crate) fn repair_delta(
        &mut self,
        g: &Topology,
        delta: &EdgeDelta,
        informed: &NodeSet,
        ws: &mut SimWorkspace,
    ) {
        let (touched, stale) = ws.repair_marks(g.n());
        for e in delta.touched_nodes() {
            if !touched.insert(e) {
                continue;
            }
            if informed.contains(e) {
                g.for_each_neighbor(e, |w| {
                    if !informed.contains(w) {
                        stale.insert(w);
                    }
                });
            } else {
                stale.insert(e);
            }
        }
        self.repair_lane(g, touched.iter(), stale.iter(), informed);
    }

    /// Refreshes the inverse degrees of the changed-edge endpoints
    /// `touched`, recomputes the in-rate of every `stale` node in the
    /// given order (`O(deg(v))` each), and drops the frontier members
    /// whose rate fell to zero; `λ` and the rate bound follow the
    /// recomputed rates.
    pub(crate) fn repair_lane(
        &mut self,
        g: &Topology,
        touched: impl IntoIterator<Item = NodeId>,
        stale: impl IntoIterator<Item = NodeId>,
        informed: &NodeSet,
    ) {
        debug_assert!(
            matches!(self.state, Some(RateState::Lane)),
            "delta repair only runs on the lane state"
        );
        for e in touched {
            self.fast.set_degree(e, g.degree(e));
        }
        for v in stale {
            debug_assert!(!informed.contains(v), "informed nodes carry no in-rate");
            let dv = g.degree(v);
            let mut r = 0.0;
            if dv > 0 {
                let dv_inv = 1.0 / dv as f64;
                g.for_each_neighbor(v, |u| {
                    if informed.contains(u) {
                        r += 1.0 / g.degree(u) as f64 + dv_inv;
                    }
                });
            }
            self.fast.set_rate(v, r);
        }
        self.fast.drop_zero_rates();
    }

    /// Whether a sparse delta can be repaired in place: on the lane state
    /// (closed forms rebuild).
    pub(crate) fn repairs(&self) -> bool {
        matches!(self.state, Some(RateState::Lane))
    }

    /// Whether the state is a generic backend's, which runs its own loop
    /// ([`CutRateAsync::drive_own_loop`]); closed-form states are driven
    /// by the scalar per-event loop (they are already `O(1)` per event).
    pub(crate) fn runs_own_loop(&self) -> bool {
        matches!(self.state, Some(RateState::Lane | RateState::Contacts))
    }

    /// Drives window `t` of a generic backend: the contact sampler until
    /// it hands the trial over, then the vectorized lane.
    ///
    /// An active fault state hands a contact-sampler trial over at once:
    /// the fault veto thins the lane's informative events, not the
    /// sampler's proposals.
    pub(crate) fn drive_own_loop(
        &mut self,
        g: &Topology,
        t: u64,
        informed: &mut NodeSet,
        rng: &mut SimRng,
        faults: Option<&mut crate::FaultState>,
        events_left: u64,
    ) -> WindowStep {
        debug_assert!(self.runs_own_loop(), "closed forms run the scalar loop");
        let (from, events) = match self.state {
            Some(RateState::Contacts) if faults.is_none() => {
                let draws = &mut self.draws;
                match self.contacts.drive(g, t, informed, rng, draws, events_left) {
                    Drive::Window(step) => return step,
                    Drive::Handover { tau, events } => (tau, events),
                }
            }
            _ => (t as f64, 0),
        };
        if matches!(self.state, Some(RateState::Contacts)) {
            // Exact: from any point of the proposal clock on, the
            // informative events to come are the same process on either
            // sampler.
            self.build_lane(g, informed);
        }
        let mut step =
            self.drive_window_fast(g, (t, from), informed, rng, faults, events_left - events);
        step.events += events;
        step
    }

    /// The vectorized inner loop: one window driven off the
    /// structure-of-arrays [`FastLane`], the lane state's own event loop.
    ///
    /// Per event: one batched uniform feeds the `Exp(λ)` clock off the
    /// incrementally maintained total; the infected node is drawn by
    /// rejection from a *single* uniform — the integer part of `u·|F|`
    /// picks the frontier slot and the fractional part (independent of
    /// the slot, itself uniform) accepts with probability `rate/rmax`,
    /// exactly proportional to in-rate. Absorption walks the adjacency
    /// row with word-level bitset probes against [`NodeSet::words`] (the
    /// bitset stays cache-resident, filtering the ~half of edge scans
    /// whose far endpoint is already informed) and updates one flat
    /// `rates` entry per surviving neighbor in `O(1)` instead of
    /// `O(log n)` Fenwick updates.
    ///
    /// Samples the *same distribution* as the window engine's Fenwick
    /// loop but consumes the RNG in a different order
    /// (`tests/vectorized_equivalence.rs` checks distributional equality;
    /// draw-for-draw equality is deliberately not promised). The lane
    /// persists across windows of one trial: a sparse delta repairs it and
    /// anything else rebuilds it. So does the uniform
    /// buffer, even across windows in which the network drew from the
    /// trial stream. That is exact: a buffered draw not yet consumed is
    /// independent of every draw already used, the network's included.
    ///
    /// The window's clock starts at `from` (`t`, or later in the window
    /// when the contact sampler hands the trial over).
    fn drive_window_fast(
        &mut self,
        g: &Topology,
        (t, from): (u64, f64),
        informed: &mut NodeSet,
        rng: &mut SimRng,
        mut faults: Option<&mut crate::FaultState>,
        events_left: u64,
    ) -> WindowStep {
        let (lane, draws) = (&mut self.fast, &mut self.draws);
        let mut tau = from;
        let end = (t + 1) as f64;
        let mut events = 0u64;
        loop {
            if events == events_left {
                return WindowStep {
                    completed_at: None,
                    events,
                };
            }
            if lane.flen == 0 || lane.lambda <= 0.0 {
                lane.lambda = 0.0;
                return WindowStep {
                    completed_at: None,
                    events,
                };
            }
            tau += draws.next_exp(rng) / lane.lambda;
            if tau >= end {
                return WindowStep {
                    completed_at: None,
                    events,
                };
            }
            events += 1;
            // Rejection-sample the newly informed node ∝ in-rate. One
            // uniform serves both draws of a probe: `floor(u·|F|)` is the
            // candidate slot and the fractional part is again Uniform(0,1),
            // independent of the slot, so it runs the acceptance test.
            // Probes go in pairs — two independent candidates per round
            // whose memory loads overlap, taking the first that accepts —
            // which is distributionally identical to two sequential
            // rejection rounds but hides half the load latency.
            let mut streak = 0u32;
            let flen_f = lane.flen as f64;
            let (v, slot) = loop {
                let sa = draws.uniform(rng) * flen_f;
                let sb = draws.uniform(rng) * flen_f;
                let slot_a = (sa as usize).min(lane.flen - 1);
                let slot_b = (sb as usize).min(lane.flen - 1);
                let ca = lane.members[slot_a];
                let cb = lane.members[slot_b];
                let accept_a = (sa - slot_a as f64) * lane.rmax < lane.rates[ca as usize];
                let accept_b = (sb - slot_b as f64) * lane.rmax < lane.rates[cb as usize];
                if accept_a {
                    break (ca, slot_a);
                }
                if accept_b {
                    break (cb, slot_b);
                }
                streak += 2;
                if streak >= RMAX_REFRESH_STREAK {
                    // rmax only goes stale high (the max-rate node left the
                    // frontier); tighten it and keep sampling.
                    streak = 0;
                    lane.rmax = lane.members[..lane.flen]
                        .iter()
                        .map(|&m| lane.rates[m as usize])
                        .fold(0.0, f64::max);
                }
            };
            // Fault veto (exact thinning): a vetoed proposal is a counted,
            // time-advancing non-event — the frontier, rates, and λ stay
            // untouched, exactly as in `resolve_event_faulty`.
            if let Some(f) = faults.as_deref_mut() {
                if !f.accepts_cut_event(g, informed, v) {
                    continue;
                }
            }
            let vi = v as usize;
            lane.lambda -= lane.rates[vi];
            lane.rates[vi] = 0.0;
            // Swap-remove by the slot the sampler just drew — no
            // node-to-slot index to maintain.
            lane.flen -= 1;
            lane.members[slot] = lane.members[lane.flen];
            informed.insert(v);
            if informed.is_full() {
                return WindowStep {
                    completed_at: Some(tau),
                    events,
                };
            }
            // Absorb: v now pressures its still-uninformed neighbors. Two
            // passes: a branch-free filter (conditional-increment append,
            // no unpredictable informed/uninformed branch) collects the
            // survivors, then the update pass walks only those. Roughly
            // half of all edge scans hit an already-informed endpoint, and
            // a 50/50 data-dependent branch is the single most expensive
            // pattern in this loop.
            let dv_inv = lane.deg_invs[vi];
            let words = informed.words();
            let mut scratch = std::mem::take(&mut lane.scratch);
            let mut k = 0usize;
            if let Some(row) = g.neighbors_slice(v) {
                // Grow-only: the buffer keeps the largest row length seen,
                // so steady-state events write no filler at all.
                if scratch.len() < row.len() {
                    scratch.resize(row.len(), 0);
                }
                // Four probes per step: the word lookups are independent,
                // so only the append cursor carries a (1-cycle) chain.
                let mut quads = row.chunks_exact(4);
                for q in &mut quads {
                    let (a, b, c, d) = (q[0] as usize, q[1] as usize, q[2] as usize, q[3] as usize);
                    let ba = words[a >> 6] >> (a & 63) & 1 == 0;
                    let bb = words[b >> 6] >> (b & 63) & 1 == 0;
                    let bc = words[c >> 6] >> (c & 63) & 1 == 0;
                    let bd = words[d >> 6] >> (d & 63) & 1 == 0;
                    scratch[k] = q[0];
                    k += ba as usize;
                    scratch[k] = q[1];
                    k += bb as usize;
                    scratch[k] = q[2];
                    k += bc as usize;
                    scratch[k] = q[3];
                    k += bd as usize;
                }
                for &u in quads.remainder() {
                    let ui = u as usize;
                    scratch[k] = u;
                    k += (words[ui >> 6] >> (ui & 63) & 1 == 0) as usize;
                }
            } else {
                scratch.clear();
                g.for_each_neighbor(v, |u| {
                    let ui = u as usize;
                    if words[ui >> 6] >> (ui & 63) & 1 == 0 {
                        scratch.push(u);
                    }
                });
                k = scratch.len();
            }
            // Update pass: branch-free throughout. A survivor with zero
            // rate is a new frontier member; the append writes the slot
            // unconditionally and bumps `flen` by the membership bit
            // (`flen < n` always holds here — at least the node just
            // informed is missing from the uninformed side). The λ and
            // bound accumulators are split two ways because FP adds do not
            // reassociate: a single accumulator would serialize the loop
            // on a 4-cycle-latency chain.
            let mut rm = [lane.rmax, 0.0f64];
            let mut flen = lane.flen;
            let survivors = &scratch[..k];
            {
                let mut dl = [0.0f64; 2];
                let mut quads = survivors.chunks_exact(4);
                for q in &mut quads {
                    // All eight loads issue before any store: survivors of
                    // one adjacency row are distinct nodes, so the four
                    // (possibly cache-missing) rate loads overlap in flight.
                    let (ua, ub, uc, ud) =
                        (q[0] as usize, q[1] as usize, q[2] as usize, q[3] as usize);
                    let (ra0, rb0, rc0, rd0) = (
                        lane.rates[ua],
                        lane.rates[ub],
                        lane.rates[uc],
                        lane.rates[ud],
                    );
                    let (da, db, dc, dd) = (
                        lane.deg_invs[ua],
                        lane.deg_invs[ub],
                        lane.deg_invs[uc],
                        lane.deg_invs[ud],
                    );
                    lane.members[flen] = q[0];
                    flen += (ra0 == 0.0) as usize;
                    lane.members[flen] = q[1];
                    flen += (rb0 == 0.0) as usize;
                    lane.members[flen] = q[2];
                    flen += (rc0 == 0.0) as usize;
                    lane.members[flen] = q[3];
                    flen += (rd0 == 0.0) as usize;
                    let ra = ra0 + dv_inv + da;
                    let rb = rb0 + dv_inv + db;
                    let rc = rc0 + dv_inv + dc;
                    let rd = rd0 + dv_inv + dd;
                    lane.rates[ua] = ra;
                    lane.rates[ub] = rb;
                    lane.rates[uc] = rc;
                    lane.rates[ud] = rd;
                    dl[0] += da + dc;
                    dl[1] += db + dd;
                    rm[0] = rm[0].max(ra.max(rc));
                    rm[1] = rm[1].max(rb.max(rd));
                }
                for &u in quads.remainder() {
                    let ui = u as usize;
                    let r0 = lane.rates[ui];
                    let di = lane.deg_invs[ui];
                    lane.members[flen] = u;
                    flen += (r0 == 0.0) as usize;
                    let rate = r0 + dv_inv + di;
                    lane.rates[ui] = rate;
                    dl[0] += di;
                    rm[0] = rm[0].max(rate);
                }
                lane.lambda += dl[0] + dl[1] + k as f64 * dv_inv;
            }
            lane.flen = flen;
            lane.rmax = rm[0].max(rm[1]);
            lane.scratch = scratch;
        }
    }
}

impl Protocol for CutRateAsync {
    fn name(&self) -> &'static str {
        "async push-pull (cut-rate)"
    }

    fn begin(&mut self, n: usize) {
        self.n = n;
        self.state = None;
        self.draws.discard();
        #[cfg(test)]
        self.ran.clear();
    }

    fn advance_window(
        &mut self,
        g: &Topology,
        t: u64,
        informed: &mut NodeSet,
        rng: &mut SimRng,
    ) -> Option<f64> {
        // The graph may have changed at the window boundary: recompute the
        // cut rates from scratch.
        self.rebuild_rates(g, informed);
        let mut tau = t as f64;
        let end = (t + 1) as f64;
        loop {
            let lambda = self.total_rate();
            if lambda <= 0.0 {
                // No informative edge exists under this graph; idle until
                // the next topology change.
                return None;
            }
            tau += -rng.uniform_open().ln() / lambda;
            if tau >= end {
                return None;
            }
            let v = self.sample_next(rng).expect("lambda > 0");
            debug_assert!(!informed.contains(v), "sampled an informed node");
            informed.insert(v);
            if informed.is_full() {
                return Some(tau);
            }
            self.absorb_informed(g, v, informed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsyncPushPull, RunConfig, Simulation};

    use gossip_dynamics::{DynamicStar, StaticNetwork};
    use gossip_graph::generators;
    use gossip_stats::ks;

    fn sample_times<P: Protocol>(
        make: impl Fn() -> P,
        net: impl Fn() -> StaticNetwork,
        start: u32,
        trials: u64,
        seed: u64,
    ) -> Vec<f64> {
        let base = gossip_stats::SimRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(trials as usize);
        for i in 0..trials {
            let mut rng = base.derive(i);
            let mut net = net();
            let o = Simulation::new(make(), RunConfig::default())
                .run(&mut net, start, &mut rng)
                .unwrap();
            out.push(o.spread_time().unwrap());
        }
        out
    }

    fn static_graph(g: gossip_graph::Graph) -> impl Fn() -> StaticNetwork {
        move || StaticNetwork::new(g.clone())
    }

    /// The headline validation: naive and cut-rate simulators produce the
    /// same spread-time distribution (they are both exact samplers of the
    /// same process).
    #[test]
    fn matches_naive_distribution_on_path() {
        let g = generators::path(8).unwrap();
        let naive = sample_times(AsyncPushPull::new, static_graph(g.clone()), 0, 1500, 100);
        let fast = sample_times(CutRateAsync::new, static_graph(g), 0, 1500, 200);
        assert!(
            ks::same_distribution(&naive, &fast, 0.001),
            "KS distance {} exceeds critical {}",
            ks::ks_statistic(&naive, &fast),
            ks::ks_critical(naive.len(), fast.len(), 0.001)
        );
    }

    #[test]
    fn matches_naive_distribution_on_star() {
        let g = generators::star(12).unwrap();
        let naive = sample_times(AsyncPushPull::new, static_graph(g.clone()), 1, 1500, 300);
        let fast = sample_times(CutRateAsync::new, static_graph(g), 1, 1500, 400);
        assert!(ks::same_distribution(&naive, &fast, 0.001));
    }

    #[test]
    fn matches_naive_distribution_on_irregular_graph() {
        // Barbell: highly irregular degrees exercise the 1/d_u + 1/d_v
        // weights.
        let g = generators::barbell(5).unwrap();
        let naive = sample_times(AsyncPushPull::new, static_graph(g.clone()), 0, 1500, 500);
        let fast = sample_times(CutRateAsync::new, static_graph(g), 0, 1500, 600);
        assert!(ks::same_distribution(&naive, &fast, 0.001));
    }

    #[test]
    fn matches_naive_on_dynamic_network() {
        // Windows interact with graph changes; compare on the dynamic star.
        let base = gossip_stats::SimRng::seed_from_u64(700);
        let mut naive = Vec::new();
        let mut fast = Vec::new();
        use gossip_dynamics::DynamicNetwork;
        for i in 0..1200 {
            let mut rng = base.derive(i);
            let mut net = DynamicStar::new(9).unwrap();
            let start = net.suggested_start();
            let o = Simulation::new(AsyncPushPull::new(), RunConfig::default())
                .run(&mut net, start, &mut rng)
                .unwrap();
            naive.push(o.spread_time().unwrap());
            let mut rng = base.derive(10_000 + i);
            let mut net = DynamicStar::new(9).unwrap();
            let start = net.suggested_start();
            let o = Simulation::new(CutRateAsync::new(), RunConfig::default())
                .run(&mut net, start, &mut rng)
                .unwrap();
            fast.push(o.spread_time().unwrap());
        }
        assert!(ks::same_distribution(&naive, &fast, 0.001));
    }

    #[test]
    fn two_node_exact_rate() {
        // Spread time on P2 is Exp(2).
        let g = generators::path(2).unwrap();
        let times = sample_times(CutRateAsync::new, static_graph(g), 0, 4000, 800);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn implicit_complete_closed_form_matches_rates() {
        // The closed-form state must report exactly the rates the Fenwick
        // path computes on the materialized twin.
        let n = 16;
        let topo = gossip_graph::Topology::complete(n).unwrap();
        let mat = gossip_graph::Topology::materialized(generators::complete(n).unwrap());
        let mut informed = NodeSet::new(n);
        for v in [0, 3, 7] {
            informed.insert(v);
        }
        let mut fast = CutRateAsync::new();
        fast.begin(n);
        fast.rebuild_rates(&topo, &informed);
        let mut slow = CutRateAsync::new();
        slow.begin(n);
        slow.rebuild_rates(&mat, &informed);
        assert!(!fast.is_fenwick());
        assert!(slow.is_fenwick());
        assert!((fast.total_rate() - slow.total_rate()).abs() < 1e-12);
        for v in 0..n as NodeId {
            assert!(
                (fast.rate_of(v) - slow.rate_of(v)).abs() < 1e-12,
                "node {v}: {} vs {}",
                fast.rate_of(v),
                slow.rate_of(v)
            );
        }
        // Absorb an infection on both and compare again.
        informed.insert(9);
        fast.absorb_informed(&topo, 9, &informed);
        slow.absorb_informed(&mat, 9, &informed);
        for v in 0..n as NodeId {
            assert!((fast.rate_of(v) - slow.rate_of(v)).abs() < 1e-12);
        }
    }

    #[test]
    fn only_the_window_engine_builds_the_fenwick_tree() {
        // On a generic backend the window engine's rebuild builds the
        // tree and the event engine's the lane; a closed-form backend
        // builds neither, in either engine.
        let n = 30;
        let mut informed = NodeSet::new(n);
        informed.insert(0);
        let mut ws = SimWorkspace::new();
        let mut p = CutRateAsync::new();
        p.begin(n);
        let sampled = gossip_graph::Topology::gnp(n, 0.2, 5).unwrap();
        p.rebuild_rates(&sampled, &informed);
        assert!(p.is_fenwick() && p.lane_frontier().is_none());
        p.rebuild_rates_in(&sampled, &informed, &mut ws);
        assert!(!p.is_fenwick() && p.lane_frontier().is_some());
        let implicit = gossip_graph::Topology::complete(n).unwrap();
        p.rebuild_rates(&implicit, &informed);
        assert!(!p.is_fenwick() && p.lane_frontier().is_none());
        p.rebuild_rates_in(&implicit, &informed, &mut ws);
        assert!(!p.is_fenwick() && p.lane_frontier().is_none());
    }

    #[test]
    fn implicit_star_closed_form_matches_rates() {
        let n = 11;
        let center = 4u32;
        let topo = gossip_graph::Topology::star(n, center).unwrap();
        let mat =
            gossip_graph::Topology::materialized(generators::star_with_center(n, center).unwrap());
        for informed_set in [vec![2u32], vec![center], vec![center, 1, 9], vec![0, 1, 2]] {
            let mut informed = NodeSet::new(n);
            for &v in &informed_set {
                informed.insert(v);
            }
            let mut fast = CutRateAsync::new();
            fast.begin(n);
            fast.rebuild_rates(&topo, &informed);
            let mut slow = CutRateAsync::new();
            slow.begin(n);
            slow.rebuild_rates(&mat, &informed);
            for v in 0..n as NodeId {
                assert!(
                    (fast.rate_of(v) - slow.rate_of(v)).abs() < 1e-12,
                    "informed {informed_set:?}, node {v}: {} vs {}",
                    fast.rate_of(v),
                    slow.rate_of(v)
                );
            }
        }
    }

    #[test]
    fn implicit_complete_large_run_is_linear_memory() {
        // A smoke test at a size whose CSR form would be ~40 GB: only
        // possible because nothing is materialized.
        let n = 100_000;
        let mut net = StaticNetwork::from_topology(gossip_graph::Topology::complete(n).unwrap());
        let mut rng = gossip_stats::SimRng::seed_from_u64(4242);
        let o = Simulation::new(CutRateAsync::new(), RunConfig::default())
            .run(&mut net, 0, &mut rng)
            .unwrap();
        assert!(o.complete());
        // K_n spreads in Θ(log n).
        assert!(o.spread_time().unwrap() < 40.0);
    }

    #[test]
    fn sampled_gnp_rates_match_materialized_twin() {
        // The sampled backend rides the Fenwick path off its realized
        // CSR; sorted-order parity with the CSR twin makes the float
        // accumulation identical operation for operation.
        let n = 40;
        let topo = gossip_graph::Topology::gnp(n, 0.15, 77).unwrap();
        let mat = gossip_graph::Topology::materialized(topo.materialize());
        let mut informed = NodeSet::new(n);
        for v in [0, 5, 9, 33] {
            informed.insert(v);
        }
        let mut sampled = CutRateAsync::new();
        sampled.begin(n);
        sampled.rebuild_rates(&topo, &informed);
        let mut csr = CutRateAsync::new();
        csr.begin(n);
        csr.rebuild_rates(&mat, &informed);
        assert!(sampled.is_fenwick() && csr.is_fenwick());
        assert!((sampled.total_rate() - csr.total_rate()).abs() == 0.0);
        for v in 0..n as NodeId {
            assert!(
                (sampled.rate_of(v) - csr.rate_of(v)).abs() == 0.0,
                "node {v}: {} vs {}",
                sampled.rate_of(v),
                csr.rate_of(v)
            );
        }
        informed.insert(12);
        sampled.absorb_informed(&topo, 12, &informed);
        csr.absorb_informed(&mat, 12, &informed);
        for v in 0..n as NodeId {
            assert!((sampled.rate_of(v) - csr.rate_of(v)).abs() == 0.0);
        }
    }

    #[test]
    fn sampled_gnp_large_run_realizes_lazily() {
        // Sparse G(n, p) with np ≈ 20 at a size where the pre-sampler
        // generator's Θ(n²) pair scan is already prohibitive; the run
        // realizes O(m) adjacency and finishes in Θ(log n) time units.
        let n = 50_000;
        let p = 20.0 / (n as f64 - 1.0);
        let topo = gossip_graph::Topology::gnp(n, p, 4242).unwrap();
        assert!(topo.is_sampled());
        let mut net = StaticNetwork::from_topology(topo);
        let mut rng = gossip_stats::SimRng::seed_from_u64(7);
        let o = Simulation::new(CutRateAsync::new(), RunConfig::default())
            .run(&mut net, 0, &mut rng)
            .unwrap();
        assert!(o.complete());
        assert!(o.spread_time().unwrap() < 40.0);
    }

    #[test]
    fn handles_isolated_nodes_gracefully() {
        let g = gossip_graph::Graph::from_edges(3, &[(0, 1)]).unwrap();
        let mut net = StaticNetwork::new(g);
        let mut rng = gossip_stats::SimRng::seed_from_u64(900);
        let o = Simulation::new(CutRateAsync::new(), RunConfig::with_max_time(5.0))
            .run(&mut net, 0, &mut rng)
            .unwrap();
        assert!(!o.complete());
        assert!(o.informed_count() <= 2);
    }

    #[test]
    fn much_faster_than_naive_on_large_graph() {
        // Smoke test that the accelerated simulator handles sizes the naive
        // one would crawl on.
        let mut rng = gossip_stats::SimRng::seed_from_u64(1000);
        let g = generators::random_connected_regular(2000, 4, &mut rng).unwrap();
        let mut net = StaticNetwork::new(g);
        let o = Simulation::new(CutRateAsync::new(), RunConfig::default())
            .run(&mut net, 0, &mut rng)
            .unwrap();
        assert!(o.complete());
        assert_eq!(o.informed_count(), 2000);
    }
}
