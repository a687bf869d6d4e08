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
//! Three maintenance strategies, selected per [`Topology`] backend and
//! per engine:
//!
//! * **Generic Fenwick** — per-node in-rates in a Fenwick tree: `O(log n)`
//!   sampling per infection and `O(deg(v))` rate updates. Exact on any
//!   backend, but `deg(v) = n − 1` on dense graphs makes a complete-graph
//!   run `Θ(n²)`. This is the window engine's sampler: its
//!   [`Protocol::advance_window`] rebuilds the tree every window, and it
//!   is the independent reference the event engine is tested against.
//! * **Vectorized lane** — the event engine keeps the same per-node
//!   in-rates in flat arrays ([`FastLane`]) that the rejection-sampling
//!   inner loop drives. A rebuild writes them directly; a sparse topology
//!   delta repairs them in place, so dynamic windows run the vectorized
//!   loop too.
//! * **Closed form** — on implicit complete, star, and complete-bipartite
//!   backends the symmetry collapses the whole rate vector to a handful of
//!   counters: on `K_n` every uninformed node has in-rate `2|I|/(n−1)`, so
//!   `λ = 2|I||U|/(n−1)`, sampling is a uniform draw from the uninformed
//!   pool, and each infection updates the state in `O(1)`. A complete-graph
//!   spread becomes `O(n)` total — the lever that takes dense-graph
//!   experiments from `n ≈ 10⁴` to `n ≥ 10⁵`.
//!
//! Seeded *sampled* backends ([`gossip_graph::Topology::gnp`] and kin)
//! ride the generic paths: every `degree` / `for_each_neighbor`
//! call works off adjacency rows the backend realizes lazily on first
//! touch, so a sparse `G(n, p)` run at `n = 10⁵` builds exactly the rows
//! the spread visits — `O(n + m)` total, no CSR `Graph` ever constructed
//! — and, because sampled rows enumerate in the same sorted order as the
//! materialized twin, the run consumes a bit-identical RNG stream either
//! way (`tests/sampled_equivalence.rs` asserts this exactly).
//!
//! The distribution over (infection sequence, times) is *identical* in
//! every strategy and to the naive simulator's; the test suites check
//! this with Kolmogorov–Smirnov tests.

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
/// ([`CutRateAsync::drive_window_fast`]): the event engine's only rate
/// state on generic backends.
///
/// Replaces the Fenwick tree's `O(log n)` sample / update walks with a
/// rejection sampler over flat arrays: `members[..flen]` lists the
/// frontier (uninformed nodes with positive in-rate), `rates` /
/// `deg_invs` hold the per-node state for *all* nodes, and
/// `lambda` / `rmax` are the incrementally maintained total and running
/// upper bound of the frontier rates. Rates and inverse degrees live in
/// *separate* arrays on purpose: the rejection probes and the
/// regular-graph update pass touch only `rates`, so the random-access
/// working set is half of what interleaved 16-byte records would make it
/// — the difference between spilling L1 and not at `n = 10⁴`. There is
/// deliberately no node-to-slot index: the only slot the loop ever needs
/// is the one the rejection sampler just drew, and frontier membership is
/// exactly `rate != 0`. `rmax` only ever over-estimates (rates grow in
/// place and leave the frontier whole), so rejection sampling against it
/// stays exact; a long rejection streak triggers an `O(|frontier|)`
/// refresh.
///
/// [`FastLane::build`] writes the whole state for a new topology;
/// [`FastLane::set_rate`] and [`FastLane::drop_zero_rates`] repair it
/// after a sparse delta ([`CutRateAsync::repair_lane`]). A rate that
/// falls to zero in a repair leaves the frontier in one scan of
/// `members[..flen]`, which few repairs need, so the event loop keeps no
/// node-to-slot index.
#[derive(Debug, Clone, Default)]
struct FastLane {
    /// Per-node in-rates; nonzero exactly for frontier members (the
    /// irregular lane; the regular lane keeps `counts` instead).
    rates: Vec<f64>,
    /// Per-node `1/degree` (infinite for isolated nodes, which are never
    /// informed and never scanned as neighbors).
    deg_invs: Vec<f64>,
    /// Frontier storage; `members[..flen]` are the live entries. Always
    /// `n` slots so the branch-free append below never reallocates.
    members: Vec<NodeId>,
    /// Live prefix length of `members`.
    flen: usize,
    /// `Some(1/d)` when every node has the same degree `d`. On a regular
    /// graph every in-rate is `m · 2/d` with `m` the informed-neighbor
    /// count, so the lane switches to the integer-count representation
    /// below: half the random-access footprint of `rates` and integer
    /// adds in the update pass.
    uniform_deg_inv: Option<f64>,
    /// Regular lane only: per-node informed-neighbor counts (the in-rate
    /// is `counts[v] · 2/d`); nonzero exactly for frontier members.
    counts: Vec<u32>,
    /// Regular lane only: `Σ counts` over the frontier (`λ · d/2`).
    ctotal: u64,
    /// Regular lane only: upper bound on every frontier count (stale
    /// high at most, like `rmax`).
    cmax: u32,
    /// Incrementally maintained total cut rate `λ` (irregular lane).
    lambda: f64,
    /// Upper bound on every frontier rate (may be stale high, never low).
    rmax: f64,
    /// Whether a repair zeroed the rate of a frontier member that is still
    /// listed in `members[..flen]`.
    stale_members: bool,
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
        let d0 = g.degree(0);
        let mut regular = true;
        self.deg_invs.clear();
        self.deg_invs.extend((0..n as NodeId).map(|v| {
            let d = g.degree(v);
            regular &= d == d0;
            1.0 / d as f64
        }));
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
        self.uniform_deg_inv = (regular && d0 > 0).then(|| 1.0 / d0 as f64);
        if let Some(dinv) = self.uniform_deg_inv {
            // Regular graph: switch to the integer-count representation.
            // Every weight is `m · 2/d` for an integer informed-neighbor
            // count `m ≤ d`, so the rounded division recovers `m` exactly.
            let delta = 2.0 * dinv;
            self.counts.clear();
            self.counts
                .extend(self.rates.iter().map(|&w| (w / delta).round() as u32));
            self.ctotal = self.counts.iter().map(|&c| c as u64).sum();
            self.cmax = self.counts.iter().copied().max().unwrap_or(0);
        }
        self.lambda = lambda;
        self.rmax = rmax;
        self.stale_members = false;
    }

    /// Drops every pre-drawn variate, so no draw of a previous trial
    /// leaks into the next.
    fn discard_draws(&mut self) {
        self.cursor = self.uniforms.len();
        self.ecursor = self.exps.len();
    }

    /// Total cut rate `λ`.
    fn total(&self) -> f64 {
        match self.uniform_deg_inv {
            Some(dinv) => self.ctotal as f64 * 2.0 * dinv,
            None => self.lambda,
        }
    }

    /// The in-rate of node `v`.
    #[cfg(test)]
    fn rate(&self, v: NodeId) -> f64 {
        match self.uniform_deg_inv {
            Some(dinv) => self.counts[v as usize] as f64 * 2.0 * dinv,
            None => self.rates[v as usize],
        }
    }

    /// Whether a sparse delta can be repaired in place: always on the
    /// irregular lane; on the regular lane only when every changed-edge
    /// endpoint keeps the common degree (anything else rebuilds, which
    /// re-derives the representation).
    fn repairs(&self, g: &Topology, delta: &EdgeDelta) -> bool {
        match self.uniform_deg_inv {
            Some(dinv) => {
                let d = (1.0 / dinv).round() as usize;
                delta.touched_nodes().all(|e| g.degree(e) == d)
            }
            None => true,
        }
    }

    /// Refreshes the cached inverse degree of a changed-edge endpoint.
    fn set_degree(&mut self, v: NodeId, degree: usize) {
        self.deg_invs[v as usize] = 1.0 / degree as f64;
    }

    /// Sets node `v`'s in-rate (`count` informed neighbors) in a repair:
    /// `λ` or the count total move by the difference, the bound only
    /// grows, a node whose rate turns positive joins the frontier, and one
    /// whose rate falls to zero is left for [`FastLane::drop_zero_rates`].
    fn set_rate(&mut self, v: NodeId, rate: f64, count: u32) {
        let vi = v as usize;
        let (was, now) = match self.uniform_deg_inv {
            Some(_) => {
                let old = self.counts[vi];
                self.counts[vi] = count;
                self.ctotal = self.ctotal - u64::from(old) + u64::from(count);
                self.cmax = self.cmax.max(count);
                (old != 0, count != 0)
            }
            None => {
                let old = self.rates[vi];
                self.rates[vi] = rate;
                self.lambda += rate - old;
                if rate > self.rmax {
                    self.rmax = rate;
                }
                (old != 0.0, rate != 0.0)
            }
        };
        if now && !was {
            self.members[self.flen] = v;
            self.flen += 1;
        }
        self.stale_members |= was && !now;
    }

    /// Ends a repair: removes the members whose rate it zeroed, in one
    /// scan of `members[..flen]` (swap-remove, as the event loop does).
    fn drop_zero_rates(&mut self) {
        if std::mem::take(&mut self.stale_members) {
            let mut i = 0;
            while i < self.flen {
                let m = self.members[i] as usize;
                let zero = match self.uniform_deg_inv {
                    Some(_) => self.counts[m] == 0,
                    None => self.rates[m] == 0.0,
                };
                if zero {
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

    /// Next batched uniform in `[0, 1)`; refills from `rng` on exhaustion.
    #[inline]
    fn uniform(&mut self, rng: &mut SimRng) -> f64 {
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
    fn next_exp(&mut self, rng: &mut SimRng) -> f64 {
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
    /// ([`CutRateAsync::fast`]), any backend: the event engine's state.
    Lane,
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
    /// Implicit `K_{a,b}`: uninformed `A`-nodes share in-rate
    /// `|I ∩ B|·(1/a + 1/b)` and symmetrically for `B`.
    Bipartite {
        a: usize,
        b: usize,
        uninformed_a: ShrinkPool,
        uninformed_b: ShrinkPool,
    },
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
    /// admits one, else the vectorized lane ([`FastLane::build`]). Pools
    /// are drawn from (and displaced ones returned to) the
    /// [`SimWorkspace`]; they come back in ascending member order, so the
    /// built state is the one fresh storage would hold.
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
        self.fast.build(g, informed);
        self.state = Some(RateState::Lane);
    }

    /// Builds the closed-form state of an implicit complete, star or
    /// complete-bipartite backend and returns `true`; returns `false`,
    /// leaving the state alone, on every other backend.
    fn rebuild_closed_form(
        &mut self,
        g: &Topology,
        informed: &NodeSet,
        ws: Option<&mut SimWorkspace>,
    ) -> bool {
        debug_assert_eq!(g.n(), self.n, "begin() saw a different network size");
        match g.structure() {
            Structure::Complete { n } => {
                let (mut uninformed, _) = self.take_picks(ws);
                uninformed.reset_from(n, |v| !informed.contains(v));
                self.state = Some(RateState::Complete { n, uninformed });
            }
            Structure::Star { n, center } => {
                let (mut uninformed_leaves, _) = self.take_picks(ws);
                uninformed_leaves.reset_from(n, |v| v != center && !informed.contains(v));
                self.state = Some(RateState::Star {
                    n,
                    center,
                    center_informed: informed.contains(center),
                    uninformed_leaves,
                });
            }
            Structure::CompleteBipartite { a, b } => {
                let (mut pick_a, mut pick_b) = self.take_picks(ws);
                let n = a + b;
                pick_a.reset_from(n, |v| (v as usize) < a && !informed.contains(v));
                pick_b.reset_from(n, |v| (v as usize) >= a && !informed.contains(v));
                self.state = Some(RateState::Bipartite {
                    a,
                    b,
                    uninformed_a: pick_a,
                    uninformed_b: pick_b,
                });
            }
            _ => return false,
        }
        true
    }

    /// Salvages the pool allocations from the previous state, then from
    /// the workspace, before falling back to fresh (empty) pools.
    ///
    /// Single-pool states leave the workspace untouched for the unused
    /// second slot, so a parked pool stays parked for whoever needs it.
    fn take_picks(&mut self, mut ws: Option<&mut SimWorkspace>) -> (ShrinkPool, ShrinkPool) {
        let pick = |ws: &mut Option<&mut SimWorkspace>| match ws.as_deref_mut() {
            Some(ws) => ws.take_pool(),
            None => ShrinkPool::default(),
        };
        match self.state.take() {
            Some(RateState::Complete { uninformed, .. }) => (uninformed, ShrinkPool::default()),
            Some(RateState::Star {
                uninformed_leaves, ..
            }) => (uninformed_leaves, ShrinkPool::default()),
            Some(RateState::Bipartite {
                uninformed_a,
                uninformed_b,
                ..
            }) => (uninformed_a, uninformed_b),
            // The lane keeps its storage in `fast`; a window engine's
            // tree is dropped.
            _ => {
                let a = pick(&mut ws);
                let b = pick(&mut ws);
                (a, b)
            }
        }
    }

    /// Parks the pools of a rate state in the workspace.
    fn stash_state(state: Option<RateState>, ws: &mut SimWorkspace) {
        match state {
            None | Some(RateState::Fenwick(_)) | Some(RateState::Lane) => {}
            Some(RateState::Complete { uninformed, .. }) => ws.put_pool(uninformed),
            Some(RateState::Star {
                uninformed_leaves, ..
            }) => ws.put_pool(uninformed_leaves),
            Some(RateState::Bipartite {
                uninformed_a,
                uninformed_b,
                ..
            }) => {
                ws.put_pool(uninformed_a);
                ws.put_pool(uninformed_b);
            }
        }
    }

    /// Trial-boundary reset for the workspace path: every piece of the
    /// previous trial's rate state is returned to the workspace, to be
    /// checked out again by this trial's first
    /// [`CutRateAsync::rebuild_rates_in`]. The cross-trial analogue of
    /// what [`Protocol::begin`] does by dropping.
    pub(crate) fn begin_reusing(&mut self, n: usize, ws: &mut SimWorkspace) {
        self.n = n;
        self.fast.discard_draws();
        Self::stash_state(self.state.take(), ws);
    }

    /// Whether the current state is the generic Fenwick tree.
    #[cfg(test)]
    pub(crate) fn is_fenwick(&self) -> bool {
        matches!(self.state, Some(RateState::Fenwick(_)))
    }

    /// Total cut rate `λ` (0 before the first rebuild, or when no
    /// informative edge exists).
    pub(crate) fn total_rate(&self) -> f64 {
        match &self.state {
            None => 0.0,
            Some(RateState::Fenwick(f)) => f.total(),
            Some(RateState::Lane) => self.fast.total(),
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
            Some(RateState::Bipartite {
                a,
                b,
                uninformed_a,
                uninformed_b,
            }) => {
                let (ua, ub) = (uninformed_a.len(), uninformed_b.len());
                let cut_edges = ua * (b - ub) + ub * (a - ua);
                cut_edges as f64 * (1.0 / *a as f64 + 1.0 / *b as f64)
            }
        }
    }

    /// The current in-rate of node `v` (0 before the first rebuild).
    #[cfg(test)]
    pub(crate) fn rate_of(&self, v: NodeId) -> f64 {
        match &self.state {
            None => 0.0,
            Some(RateState::Fenwick(f)) => f.weight(v as usize),
            Some(RateState::Lane) => self.fast.rate(v),
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
            Some(RateState::Bipartite {
                a,
                b,
                uninformed_a,
                uninformed_b,
            }) => {
                let w = 1.0 / *a as f64 + 1.0 / *b as f64;
                if uninformed_a.contains(v) {
                    (b - uninformed_b.len()) as f64 * w
                } else if uninformed_b.contains(v) {
                    (a - uninformed_a.len()) as f64 * w
                } else {
                    0.0
                }
            }
        }
    }

    /// The vectorized lane's frontier `members[..flen]` and whether it is
    /// the regular (integer-count) lane; `None` off the lane state.
    #[cfg(test)]
    pub(crate) fn lane_frontier(&self) -> Option<(Vec<NodeId>, bool)> {
        matches!(self.state, Some(RateState::Lane)).then(|| {
            (
                self.fast.members[..self.fast.flen].to_vec(),
                self.fast.uniform_deg_inv.is_some(),
            )
        })
    }

    /// Draws the next node to inform, proportionally to its in-rate.
    pub(crate) fn sample_next(&mut self, rng: &mut SimRng) -> Option<NodeId> {
        match self.state.as_ref().expect("rebuilt before sampling") {
            RateState::Fenwick(f) => f.sample(rng).map(|v| v as NodeId),
            RateState::Lane => unreachable!("the vectorized lane samples in its own loop"),
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
            RateState::Bipartite {
                a,
                b,
                uninformed_a,
                uninformed_b,
            } => {
                let (ua, ub) = (uninformed_a.len(), uninformed_b.len());
                let (wa, wb) = (ua * (b - ub), ub * (a - ua));
                if wa + wb == 0 {
                    return None;
                }
                let x = rng.uniform_f64() * (wa + wb) as f64;
                Some(if x < wa as f64 {
                    uninformed_a.sample(rng)
                } else {
                    uninformed_b.sample(rng)
                })
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
            RateState::Lane => unreachable!("the vectorized lane absorbs in its own loop"),
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
            RateState::Bipartite {
                uninformed_a,
                uninformed_b,
                ..
            } => {
                if uninformed_a.contains(v) {
                    uninformed_a.remove(v);
                } else {
                    uninformed_b.remove(v);
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
            let mut count = 0;
            if dv > 0 {
                let dv_inv = 1.0 / dv as f64;
                g.for_each_neighbor(v, |u| {
                    if informed.contains(u) {
                        r += 1.0 / g.degree(u) as f64 + dv_inv;
                        count += 1;
                    }
                });
            }
            self.fast.set_rate(v, r, count);
        }
        self.fast.drop_zero_rates();
    }

    /// Whether a sparse delta can be repaired in place: on the lane state,
    /// always on the irregular lane and on the regular lane when the delta
    /// keeps every degree (see [`FastLane::repairs`]).
    pub(crate) fn repairs(&self, g: &Topology, delta: &EdgeDelta) -> bool {
        matches!(self.state, Some(RateState::Lane)) && self.fast.repairs(g, delta)
    }

    /// Whether the next window runs [`CutRateAsync::drive_window_fast`]:
    /// the rate state is the vectorized lane (a generic backend;
    /// closed-form states are already `O(1)` per event).
    pub(crate) fn use_fast_loop(&self) -> bool {
        matches!(self.state, Some(RateState::Lane))
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
    pub(crate) fn drive_window_fast(
        &mut self,
        g: &Topology,
        t: u64,
        informed: &mut NodeSet,
        rng: &mut SimRng,
        mut faults: Option<&mut crate::FaultState>,
        events_left: u64,
    ) -> WindowStep {
        if self.fast.uniform_deg_inv.is_some() {
            return self.drive_window_fast_regular(g, t, informed, rng, faults, events_left);
        }
        let lane = &mut self.fast;
        let mut tau = t as f64;
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
            tau += lane.next_exp(rng) / lane.lambda;
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
                let sa = lane.uniform(rng) * flen_f;
                let sb = lane.uniform(rng) * flen_f;
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

    /// Regular-graph variant of [`Self::drive_window_fast`].
    ///
    /// On a `d`-regular graph every in-rate is `m · 2/d` with `m` the
    /// node's informed-neighbor count, so the lane tracks the integer
    /// counts instead of float rates: the random-access working set drops
    /// to 4 bytes per node, the update pass is an integer increment, λ is
    /// recovered as `ctotal · 2/d`, and the acceptance test
    /// `frac · cmax < count` is *exactly* `count/cmax` (both are integers,
    /// so the comparison introduces no rounding at all). Same structure,
    /// same draw order, same rejection semantics as the irregular loop.
    fn drive_window_fast_regular(
        &mut self,
        g: &Topology,
        t: u64,
        informed: &mut NodeSet,
        rng: &mut SimRng,
        mut faults: Option<&mut crate::FaultState>,
        events_left: u64,
    ) -> WindowStep {
        let lane = &mut self.fast;
        let delta = 2.0
            * lane
                .uniform_deg_inv
                .expect("regular lane requires uniform degree");
        let mut tau = t as f64;
        let end = (t + 1) as f64;
        let mut events = 0u64;
        loop {
            if events == events_left {
                return WindowStep {
                    completed_at: None,
                    events,
                };
            }
            if lane.flen == 0 {
                lane.lambda = 0.0;
                return WindowStep {
                    completed_at: None,
                    events,
                };
            }
            tau += lane.next_exp(rng) / (lane.ctotal as f64 * delta);
            if tau >= end {
                return WindowStep {
                    completed_at: None,
                    events,
                };
            }
            events += 1;
            // Same fused slot + acceptance probe pairs as the irregular
            // loop (see there for the layout of one probe).
            let mut streak = 0u32;
            let flen_f = lane.flen as f64;
            let mut cmax_f = lane.cmax as f64;
            let (v, slot) = loop {
                let sa = lane.uniform(rng) * flen_f;
                let sb = lane.uniform(rng) * flen_f;
                let slot_a = (sa as usize).min(lane.flen - 1);
                let slot_b = (sb as usize).min(lane.flen - 1);
                let ca = lane.members[slot_a];
                let cb = lane.members[slot_b];
                let accept_a = (sa - slot_a as f64) * cmax_f < lane.counts[ca as usize] as f64;
                let accept_b = (sb - slot_b as f64) * cmax_f < lane.counts[cb as usize] as f64;
                if accept_a {
                    break (ca, slot_a);
                }
                if accept_b {
                    break (cb, slot_b);
                }
                streak += 2;
                if streak >= RMAX_REFRESH_STREAK {
                    streak = 0;
                    lane.cmax = lane.members[..lane.flen]
                        .iter()
                        .map(|&m| lane.counts[m as usize])
                        .max()
                        .unwrap_or(0);
                    cmax_f = lane.cmax as f64;
                }
            };
            // Fault veto — see the irregular loop above.
            if let Some(f) = faults.as_deref_mut() {
                if !f.accepts_cut_event(g, informed, v) {
                    continue;
                }
            }
            let vi = v as usize;
            lane.ctotal -= lane.counts[vi] as u64;
            lane.counts[vi] = 0;
            lane.flen -= 1;
            lane.members[slot] = lane.members[lane.flen];
            informed.insert(v);
            if informed.is_full() {
                return WindowStep {
                    completed_at: Some(tau),
                    events,
                };
            }
            // Absorb with the same branch-free filter pass as the
            // irregular loop; the update pass is an integer increment per
            // survivor.
            let words = informed.words();
            let mut scratch = std::mem::take(&mut lane.scratch);
            let mut k = 0usize;
            if let Some(row) = g.neighbors_slice(v) {
                if scratch.len() < row.len() {
                    scratch.resize(row.len(), 0);
                }
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
            let mut cm = [lane.cmax, 0u32];
            let mut flen = lane.flen;
            let survivors = &scratch[..k];
            let mut quads = survivors.chunks_exact(4);
            for q in &mut quads {
                // All four count loads issue before any store (survivors
                // are distinct), so the cache misses overlap in flight.
                let (ua, ub, uc, ud) = (q[0] as usize, q[1] as usize, q[2] as usize, q[3] as usize);
                let (ca0, cb0, cc0, cd0) = (
                    lane.counts[ua],
                    lane.counts[ub],
                    lane.counts[uc],
                    lane.counts[ud],
                );
                lane.members[flen] = q[0];
                flen += (ca0 == 0) as usize;
                lane.members[flen] = q[1];
                flen += (cb0 == 0) as usize;
                lane.members[flen] = q[2];
                flen += (cc0 == 0) as usize;
                lane.members[flen] = q[3];
                flen += (cd0 == 0) as usize;
                let (ca, cb, cc, cd) = (ca0 + 1, cb0 + 1, cc0 + 1, cd0 + 1);
                lane.counts[ua] = ca;
                lane.counts[ub] = cb;
                lane.counts[uc] = cc;
                lane.counts[ud] = cd;
                cm[0] = cm[0].max(ca.max(cc));
                cm[1] = cm[1].max(cb.max(cd));
            }
            for &u in quads.remainder() {
                let ui = u as usize;
                let c0 = lane.counts[ui];
                lane.members[flen] = u;
                flen += (c0 == 0) as usize;
                let c = c0 + 1;
                lane.counts[ui] = c;
                cm[0] = cm[0].max(c);
            }
            lane.ctotal += k as u64;
            lane.flen = flen;
            lane.cmax = cm[0].max(cm[1]);
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
        self.fast.discard_draws();
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
    fn implicit_bipartite_closed_form_matches_rates() {
        let (a, b) = (5usize, 8usize);
        let n = a + b;
        let topo = gossip_graph::Topology::complete_bipartite(a, b).unwrap();
        let mat =
            gossip_graph::Topology::materialized(generators::complete_bipartite(a, b).unwrap());
        for informed_set in [vec![0u32], vec![6u32], vec![0, 1, 6, 7, 12]] {
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
            assert!((fast.total_rate() - slow.total_rate()).abs() < 1e-12);
            for v in 0..n as NodeId {
                assert!(
                    (fast.rate_of(v) - slow.rate_of(v)).abs() < 1e-12,
                    "informed {informed_set:?}, node {v}"
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
        // The sampled backend rides the Fenwick path off lazily realized
        // rows; sorted-order parity with the CSR twin makes the float
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
