//! The contact-thinning sampler: the event engine's sampler for the
//! cut-rate protocol on a dense static generic topology (mean degree at
//! least [`MIN_MEAN_DEGREE`], or [`MIN_MEAN_DEGREE_UNCACHED`] on a large
//! one) in a fault-free trial.
//!
//! The vectorized lane ([`crate::CutRateAsync`]'s `FastLane`) keeps every
//! uninformed node's in-rate and pays `O(deg(v))` per informative event
//! to keep them current. This sampler keeps no rates. It proposes
//! contacts out of one side `S` of the informed/uninformed cut and keeps
//! the ones that cross it, which is an exact thinning (the paper's
//! Theorem 2.1) of the superposed contact process behind Equation (1):
//!
//! * node `x` and neighbor `y` meet at rate `1/d_x + 1/d_y`, so the
//!   contacts out of `x` have total rate
//!   `W_x = Σ_{y ∈ N(x)} (1/d_x + 1/d_y) = 1 + Σ_{y ∈ N(x)} 1/d_y`;
//! * proposals run at `Λ_S = Σ_{x ∈ S} W_x`; each draws `x ∈ S ∝ W_x`,
//!   then `y ∈ N(x) ∝ 1/d_x + 1/d_y`, both by rejection, each probe one
//!   batched uniform (the integer part picks the slot, the fraction runs
//!   the acceptance test);
//! * a proposal with `y` across the cut informs the uninformed endpoint;
//!   the others leave the state alone. Every cut edge is proposed from
//!   exactly one of its endpoints, so the kept proposals are a Poisson
//!   process at exactly the cut rate `λ`, and each informs its node with
//!   the lane's probability.
//!
//! `S` is the side with the smaller proposal rate. `Σ_x W_x = 2·|L|` over
//! the set `L` of nodes with a neighbor (each of `1/d_x` and `1/d_y` sums
//! to 1 per node), so only `Λ_I` is summed and `Λ_U = 2|L| − Λ_I`. Each
//! side is a list of its nodes with a neighbor: the informed one grows by
//! appends, the uninformed one is position-indexed and shrinks by
//! swap-removes. The uninformed side is listed (`O(n)`) when the trial
//! first proposes from it, which a spread does once, as `Λ_I` passes
//! `|L|`, and a trial handed over to the lane before that never does.
//! Isolated nodes are on neither list: they can never be informed, and a
//! side without a node has no cut edge, so the trial idles.
//!
//! The per-node constants — `1/d`, `W` and the neighbor draw's rejection
//! bound `1/d_x + max_{y ∈ N(x)} 1/d_y` — and the largest `W` and `|L|`
//! depend on the topology alone. One `O(n + m)` pass computes them, and
//! they are kept for as long as the trials run on the same topology
//! ([`Topology::is_same`]: equal parameters, or one shared CSR), so a
//! worker's batch computes them once. The pass reads every row, so it
//! realizes a sampled `G(n, p)`'s whole CSR, as the lane's build does;
//! so does the engine's choice of sampler, which reads the edge count.
//!
//! On a poor expander (paths, cycles, tori, graphs of loosely joined
//! parts) most proposals fall inside `S`: on a cycle about `1/|I|` of
//! them cross. The sampler counts its probes, and when a block of
//! [`HANDOVER_PROBES`] probes yields fewer than [`HANDOVER_EVENTS`]
//! informative events it hands the trial over to the lane, built from the
//! current informed set, for the rest of the trial. The rule reads only
//! the trial's own history, so a trial is a function of its seed as
//! before.

use crate::async_cut::Variates;
use crate::incremental::WindowStep;
use gossip_graph::{NodeId, NodeSet, Topology};
use gossip_stats::SimRng;

/// The mean degree from which the event engine picks this sampler over
/// the lane while the adjacency has at most [`CACHED_VOLUME`] entries.
///
/// The lane pays `O(deg)` per informative event, this sampler about four
/// probes, each a random read of the adjacency, so the sampler wins on
/// dense graphs, and by less once its reads miss the cache. Against the
/// lane (single thread, ns per informative event, 2-vCPU Xeon with 2 MiB
/// of L2 per core) it ran, on `G(n, p)` with mean degree `np`:
///
/// | `n` | `np` 8 | 12 | 16 | 20 | 32 | 40 | 100–200 |
/// |---|---|---|---|---|---|---|---|
/// | 2000–5000 | 0.89× | 0.98× | 1.15× | 1.24–1.31× | | 1.64× | 3.3× |
/// | 10⁴–10⁵ | | | | 0.69–0.94× | 1.02× | 1.08–1.31× | 3.4× |
/// | 10⁷ | ≈ 0.77× | | | | | | |
///
/// and 0.78× on random 4-regular graphs, 0.98× on 8-regular and 1.22× on
/// 16-regular ones (`n = 2000`).
pub(crate) const MIN_MEAN_DEGREE: usize = 12;

/// The mean degree from which the event engine picks this sampler over
/// the lane on an adjacency of more than [`CACHED_VOLUME`] entries (see
/// [`MIN_MEAN_DEGREE`] for the measurements).
pub(crate) const MIN_MEAN_DEGREE_UNCACHED: usize = 32;

/// The adjacency size (`2m` entries, 512 KiB of node ids) up to which
/// [`MIN_MEAN_DEGREE`] applies.
pub(crate) const CACHED_VOLUME: usize = 1 << 17;

/// Probes (node and neighbor draws) per handover check.
const HANDOVER_PROBES: u32 = 256;

/// Informative events a block of [`HANDOVER_PROBES`] probes must yield
/// for the trial to stay on the sampler (an acceptance floor of 1/16 per
/// probe). A dense `G(n, p)` spread spends about four probes per event,
/// 64 events per block.
const HANDOVER_EVENTS: u32 = 16;

/// Consecutive rejected node probes on the uninformed side that trigger a
/// rescan of that side's weight bound.
const BOUND_REFRESH_STREAK: u32 = 64;

/// How a [`ContactSampler::drive`] call ended.
#[derive(Debug)]
pub(crate) enum Drive {
    /// The window closed, the trial idled or completed, or the event
    /// budget ran out.
    Window(WindowStep),
    /// The acceptance floor was hit at time `tau` inside the window, after
    /// `events` informative events: the lane takes the trial from there.
    Handover { tau: f64, events: u64 },
}

/// Per-topology constants and per-trial side lists of the sampler (see
/// the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct ContactSampler {
    /// The topology the constants describe.
    topology: Option<Topology>,
    /// Per-node `1/d` (infinite for an isolated node).
    dinv: Vec<f64>,
    /// Per-node proposal weight `W_x` (0 for an isolated node).
    weight: Vec<f64>,
    /// Per-node bound of the neighbor draw, `1/d_x + max_{y ∈ N(x)} 1/d_y`.
    contact_bound: Vec<f64>,
    /// The largest weight of any node.
    max_weight: f64,
    /// How many nodes have a neighbor.
    live: usize,
    /// The informed nodes with a neighbor.
    informed: Vec<NodeId>,
    /// The uninformed nodes with a neighbor, once listed.
    uninformed: Vec<NodeId>,
    /// Whether `uninformed` is listed in this trial.
    listed: bool,
    /// Each listed uninformed node's index in `uninformed`.
    pos: Vec<u32>,
    /// `Λ_I`, the informed side's proposal rate.
    informed_weight: f64,
    /// The largest weight on the informed side (exact: the side only
    /// grows).
    informed_bound: f64,
    /// An upper bound on the uninformed side's weights (stale high as the
    /// side shrinks).
    uninformed_bound: f64,
    /// Probes since the last handover check.
    check_probes: u32,
    /// Informative events since the last handover check.
    check_events: u32,
    /// How many times the per-topology constants were computed.
    #[cfg(test)]
    describes: usize,
}

impl ContactSampler {
    /// Whether the sampler beats the lane on `g`: a mean degree of at
    /// least [`MIN_MEAN_DEGREE`], or [`MIN_MEAN_DEGREE_UNCACHED`] on an
    /// adjacency of more than [`CACHED_VOLUME`] entries.
    pub(crate) fn suits(g: &Topology) -> bool {
        let volume = g.volume();
        let min = if volume <= CACHED_VOLUME {
            MIN_MEAN_DEGREE
        } else {
            MIN_MEAN_DEGREE_UNCACHED
        };
        volume >= min * g.n()
    }

    /// Starts a trial on `g` from the informed set, recomputing the
    /// per-topology constants only when `g` is not the previous trial's
    /// topology.
    pub(crate) fn start(&mut self, g: &Topology, informed: &NodeSet) {
        if !self.topology.as_ref().is_some_and(|t| t.is_same(g)) {
            self.describe(g);
        }
        self.informed.clear();
        self.uninformed.clear();
        self.listed = false;
        self.informed_weight = 0.0;
        self.informed_bound = 0.0;
        self.uninformed_bound = self.max_weight;
        self.check_probes = 0;
        self.check_events = 0;
        for v in informed.iter() {
            if self.weight[v as usize] > 0.0 {
                self.inform(v);
            }
        }
    }

    /// Computes the per-topology constants of `g` in one pass over its
    /// rows.
    fn describe(&mut self, g: &Topology) {
        let n = g.n();
        self.dinv.clear();
        self.dinv
            .extend((0..n as NodeId).map(|v| 1.0 / g.degree(v) as f64));
        self.weight.clear();
        self.contact_bound.clear();
        self.max_weight = 0.0;
        self.live = 0;
        for v in 0..n as NodeId {
            let own = self.dinv[v as usize];
            let (mut sum, mut max) = (0.0, 0.0f64);
            g.for_each_neighbor(v, |y| {
                let d = self.dinv[y as usize];
                sum += d;
                max = max.max(d);
            });
            let (weight, bound) = if own.is_finite() {
                self.live += 1;
                (1.0 + sum, own + max)
            } else {
                (0.0, 0.0)
            };
            self.max_weight = self.max_weight.max(weight);
            self.weight.push(weight);
            self.contact_bound.push(bound);
        }
        self.pos.resize(n, 0);
        self.topology = Some(g.clone());
        #[cfg(test)]
        {
            self.describes += 1;
        }
    }

    /// Lists the uninformed side, ascending.
    fn list_uninformed(&mut self, informed: &NodeSet) {
        for v in informed.iter_complement() {
            if self.weight[v as usize] > 0.0 {
                self.pos[v as usize] = self.uninformed.len() as u32;
                self.uninformed.push(v);
            }
        }
        self.listed = true;
    }

    /// Moves the uninformed node `v`, which has a neighbor, to the
    /// informed side.
    fn inform(&mut self, v: NodeId) {
        let w = self.weight[v as usize];
        self.informed.push(v);
        self.informed_weight += w;
        self.informed_bound = self.informed_bound.max(w);
        if self.listed {
            let p = self.pos[v as usize] as usize;
            let last = self.uninformed.pop().expect("v is listed uninformed");
            if last != v {
                self.uninformed[p] = last;
                self.pos[last as usize] = p as u32;
            }
        }
    }

    /// Whether the next contact is proposed from the informed side (while
    /// `Λ_I ≤ Λ_U`), and that side's proposal rate.
    fn side(&self) -> (bool, f64) {
        let uninformed_weight = 2.0 * self.live as f64 - self.informed_weight;
        if self.informed_weight <= uninformed_weight {
            (true, self.informed_weight)
        } else {
            (false, uninformed_weight)
        }
    }

    /// The number of nodes listed on the informed side, or on the
    /// uninformed one.
    fn side_len(&self, from_informed: bool) -> usize {
        if from_informed {
            self.informed.len()
        } else {
            self.live - self.informed.len()
        }
    }

    /// The rate of the proposal clock: `Λ_S`, or 0 when `S` is empty.
    pub(crate) fn proposal_rate(&self) -> f64 {
        match self.side() {
            (from_informed, rate) if self.side_len(from_informed) > 0 => rate,
            _ => 0.0,
        }
    }

    /// Drives window `t` from its start: proposals until the window
    /// closes, the trial idles or completes, `events_left` informative
    /// events have happened, or the acceptance floor hands the trial over
    /// to the lane.
    ///
    /// The clock advances once per informative event: the `K` proposals
    /// up to the first that crosses are `K` gaps of `Exp(Λ_S)`, and their
    /// sum is `−ln(u_1 ⋯ u_K)/Λ_S` for the proposals' uniforms `u_i`, so
    /// a proposal costs a multiply instead of a logarithm. An event that
    /// lands past the window's end is dropped and the next window draws
    /// afresh, which memorylessness makes exact (the lane does the same
    /// with its gaps). `K` stays below a few hundred (the handover rule
    /// bounds it), so the product never nears underflow.
    pub(crate) fn drive(
        &mut self,
        g: &Topology,
        t: u64,
        informed: &mut NodeSet,
        rng: &mut SimRng,
        draws: &mut Variates,
        events_left: u64,
    ) -> Drive {
        let window = |completed_at, events| {
            Drive::Window(WindowStep {
                completed_at,
                events,
            })
        };
        let mut tau = t as f64;
        let end = (t + 1) as f64;
        let mut events = 0u64;
        loop {
            if events == events_left {
                return window(None, events);
            }
            let (from_informed, rate) = self.side();
            let size = self.side_len(from_informed);
            if size == 0 {
                // No live node on the side: no cut edge, now or later.
                return window(None, events);
            }
            if !from_informed && !self.listed {
                self.list_uninformed(informed);
            }
            let mut product = 1.0f64;
            let (x, y) = loop {
                if self.check_probes >= HANDOVER_PROBES {
                    if self.check_events < HANDOVER_EVENTS {
                        let at = tau - product.ln() / rate;
                        return Drive::Handover {
                            tau: at.min(end),
                            events,
                        };
                    }
                    self.check_probes = 0;
                    self.check_events = 0;
                }
                product *= draws.uniform(rng).max(f64::MIN_POSITIVE);
                let x = self.draw_node(from_informed, draws, rng);
                let y = self.draw_contact(g, x, draws, rng);
                if informed.contains(y) != from_informed {
                    break (x, y);
                }
            };
            tau -= product.ln() / rate;
            if tau >= end {
                return window(None, events);
            }
            let v = if from_informed { y } else { x };
            self.inform(v);
            informed.insert(v);
            events += 1;
            self.check_events += 1;
            if informed.is_full() {
                return window(Some(tau), events);
            }
        }
    }

    /// Draws `x` from the proposing side with probability `∝ W_x`, by
    /// rejection against the side's weight bound.
    fn draw_node(&mut self, from_informed: bool, draws: &mut Variates, rng: &mut SimRng) -> NodeId {
        let (list, mut bound) = if from_informed {
            (&self.informed, self.informed_bound)
        } else {
            (&self.uninformed, self.uninformed_bound)
        };
        let len = list.len();
        let len_f = len as f64;
        let mut streak = 0u32;
        loop {
            let s = draws.uniform(rng) * len_f;
            let slot = (s as usize).min(len - 1);
            let x = list[slot];
            self.check_probes += 1;
            if (s - slot as f64) * bound < self.weight[x as usize] {
                return x;
            }
            streak += 1;
            if !from_informed && streak >= BOUND_REFRESH_STREAK {
                // The uninformed side only shrinks, so its bound goes
                // stale high: tighten it to the side's current maximum.
                streak = 0;
                bound = list
                    .iter()
                    .map(|&u| self.weight[u as usize])
                    .fold(0.0, f64::max);
                self.uninformed_bound = bound;
            }
        }
    }

    /// Draws `y ∈ N(x)` with probability `∝ 1/d_x + 1/d_y`, by rejection
    /// against `x`'s bound.
    fn draw_contact(
        &mut self,
        g: &Topology,
        x: NodeId,
        draws: &mut Variates,
        rng: &mut SimRng,
    ) -> NodeId {
        let xi = x as usize;
        let (own, bound) = (self.dinv[xi], self.contact_bound[xi]);
        let row = g.neighbors_slice(x);
        let d = row.map_or_else(|| g.degree(x), <[NodeId]>::len);
        let d_f = d as f64;
        loop {
            let s = draws.uniform(rng) * d_f;
            let i = (s as usize).min(d - 1);
            let y = match row {
                Some(row) => row[i],
                None => g.neighbor(x, i),
            };
            self.check_probes += 1;
            if (s - i as f64) * bound < own + self.dinv[y as usize] {
                return y;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{ContactSampler, Variates};
    use crate::{CutRateAsync, EventSimulation, FaultModel, RunConfig, SpreadOutcome};
    use gossip_dynamics::{DynamicNetwork, EdgeMarkovian, SequenceNetwork, StaticNetwork};
    use gossip_graph::{generators, Graph, NodeId, NodeSet, Topology};
    use gossip_stats::SimRng;
    use std::collections::BTreeMap;

    #[test]
    fn proposals_follow_the_contact_rates() {
        // Node 0 joined to every node of a G(39, 0.3): a node's neighbors
        // have degrees 39 and about 12, so the contact rates
        // `1/d_x + 1/d_y` differ by a factor of about 1.6 within a row.
        let mut rng = SimRng::seed_from_u64(3);
        let base = generators::erdos_renyi(39, 0.3, &mut rng).unwrap();
        let hub = (1..40).map(|v| (0, v));
        let edges: Vec<_> = base
            .edges()
            .map(|(u, v)| (u + 1, v + 1))
            .chain(hub)
            .collect();
        let g = Topology::materialized(Graph::from_edges(40, &edges).unwrap());
        let mut informed = NodeSet::new(40);
        for v in [0, 3, 5, 7, 11, 13, 17, 19, 23, 29] {
            informed.insert(v);
        }
        let mut sampler = ContactSampler::default();
        sampler.start(&g, &informed);
        sampler.list_uninformed(&informed);
        let rate = |x: NodeId, y: NodeId| 1.0 / g.degree(x) as f64 + 1.0 / g.degree(y) as f64;
        let mut side_rates = [0.0, 0.0];
        let mut draws = Variates::default();
        for from_informed in [true, false] {
            let mut expected = BTreeMap::new();
            for x in (0..40).filter(|&x| informed.contains(x) == from_informed) {
                g.for_each_neighbor(x, |y| {
                    expected.insert((x, y), rate(x, y));
                });
            }
            let total: f64 = expected.values().sum();
            side_rates[usize::from(from_informed)] = total;
            let proposals = 200_000;
            let mut seen = BTreeMap::new();
            for _ in 0..proposals {
                let x = sampler.draw_node(from_informed, &mut draws, &mut rng);
                let y = sampler.draw_contact(&g, x, &mut draws, &mut rng);
                *seen.entry((x, y)).or_insert(0u32) += 1;
            }
            // Pearson's chi-square over every (x, y) pair of the side,
            // held under df + 6·sqrt(2·df) (about six standard deviations).
            let chi2: f64 = expected
                .iter()
                .map(|(pair, r)| {
                    let e = proposals as f64 * r / total;
                    let o = f64::from(seen.get(pair).copied().unwrap_or(0));
                    (o - e) * (o - e) / e
                })
                .sum();
            let df = (expected.len() - 1) as f64;
            assert_eq!(
                seen.len(),
                expected.len(),
                "a proposal left the side's rows"
            );
            assert!(
                chi2 < df + 6.0 * (2.0 * df).sqrt(),
                "side {from_informed}: chi-square {chi2:.1} over {df} degrees of freedom"
            );
        }
        // Λ_I is the informed side's rate, and the two sides sum to 2n.
        let [uninformed_rate, informed_rate] = side_rates;
        assert!((sampler.informed_weight - informed_rate).abs() < 1e-9);
        assert!((informed_rate + uninformed_rate - 80.0).abs() < 1e-9);
    }

    /// One event-engine trial from node 0 on a fresh protocol: the
    /// samplers it ran, in order, and its outcome.
    fn trial<N: DynamicNetwork>(
        net: &mut N,
        faults: Option<FaultModel>,
        max_time: f64,
        seed: u64,
    ) -> (Vec<&'static str>, SpreadOutcome) {
        let mut sim = EventSimulation::new(CutRateAsync::new(), RunConfig::with_max_time(max_time));
        if let Some(model) = faults {
            sim = sim.with_faults(model);
        }
        let outcome = sim.run(net, 0, &mut SimRng::seed_from_u64(seed)).unwrap();
        (sim.protocol().samplers_run().to_vec(), outcome)
    }

    #[test]
    fn contacts_run_only_where_neither_topology_nor_faults_change() {
        let gnp = || StaticNetwork::from_topology(Topology::gnp(300, 0.05, 3).unwrap());
        // Static G(n, p), mean degree ≈ 15: the contact sampler for the
        // whole trial.
        let (ran, outcome) = trial(&mut gnp(), None, 1e4, 1);
        assert!(outcome.complete());
        assert_eq!(ran, ["contacts"]);
        // A ring of degree 16: few proposals cross a long arc's two ends,
        // so the trial hands over to the lane.
        let ring = generators::regular_circulant(300, 16).unwrap();
        for seed in 10..15 {
            let (ran, outcome) = trial(&mut StaticNetwork::new(ring.clone()), None, 1e4, seed);
            assert!(outcome.complete());
            assert_eq!(ran, ["contacts", "lane"]);
        }
        // A static graph of mean degree below the threshold: the lane.
        let mut rng = SimRng::seed_from_u64(6);
        let sparse = generators::random_connected_regular(300, 4, &mut rng).unwrap();
        let (ran, outcome) = trial(&mut StaticNetwork::new(sparse), None, 1e4, 5);
        assert!(outcome.complete());
        assert_eq!(ran, ["lane"]);
        // Edge-Markovian churn: the lane from t = 0.
        let mut rng = SimRng::seed_from_u64(4);
        let initial = generators::erdos_renyi(100, 0.05, &mut rng).unwrap();
        let mut churn = EdgeMarkovian::new(initial, 0.02, 0.2).unwrap();
        let (ran, outcome) = trial(&mut churn, None, 1e4, 3);
        assert!(outcome.complete());
        assert_eq!(ran, ["lane"]);
        // Static G(n, p) with message drops: the lane.
        let drop = FaultModel {
            drop: 0.1,
            seed: 5,
            ..FaultModel::default()
        };
        let (ran, outcome) = trial(&mut gnp(), Some(drop), 1e4, 4);
        assert!(outcome.complete());
        assert_eq!(ran, ["lane"]);
    }

    #[test]
    fn an_isolated_node_stalls_the_trial_at_the_lanes_count() {
        // G(80, 0.3) (connected) plus node 80 with no edge: every node but
        // 80 is informed, and the trial runs to its time limit.
        let mut rng = SimRng::seed_from_u64(8);
        let g = generators::erdos_renyi(80, 0.3, &mut rng).unwrap();
        assert!(gossip_graph::connectivity::is_connected(&g));
        let edges: Vec<_> = g.edges().collect();
        let isolated = Graph::from_edges(81, &edges).unwrap();
        for seed in 0..5 {
            let mut fixed = StaticNetwork::new(isolated.clone());
            let (ran, contacts) = trial(&mut fixed, None, 40.0, seed);
            // A one-graph schedule is not static: the lane's trial.
            let mut scheduled = SequenceNetwork::once(vec![isolated.clone()]).unwrap();
            let (lane_ran, lane) = trial(&mut scheduled, None, 40.0, seed);
            assert_eq!(ran, ["contacts"]);
            assert_eq!(lane_ran, ["lane"]);
            for outcome in [&contacts, &lane] {
                assert!(!outcome.complete());
                assert_eq!(outcome.windows(), 40);
            }
            assert_eq!(contacts.informed_count(), 80);
            assert_eq!(contacts.informed_count(), lane.informed_count());
        }
    }

    #[test]
    fn constants_are_computed_once_per_topology() {
        let mut rng = SimRng::seed_from_u64(21);
        let g = generators::erdos_renyi(150, 0.2, &mut rng).unwrap();
        let topo = Topology::materialized(g.clone());
        let mut informed = NodeSet::new(150);
        informed.insert(0);
        let mut sampler = ContactSampler::default();
        let mut passes = |t: &Topology| {
            sampler.start(t, &informed);
            sampler.describes
        };
        // A materialized graph is keyed by its shared CSR: the same
        // topology and its clones reuse the constants, an equal graph
        // built apart computes them afresh.
        assert_eq!(passes(&topo), 1);
        assert_eq!(passes(&topo), 1);
        assert_eq!(passes(&topo.clone()), 1);
        assert_eq!(passes(&Topology::materialized(g)), 2);
        // A sampled graph is keyed by its parameters.
        let gnp = |seed| Topology::gnp(150, 0.2, seed).unwrap();
        assert_eq!(passes(&gnp(3)), 3);
        assert_eq!(passes(&gnp(3)), 3);
        assert_eq!(passes(&gnp(4)), 4);
    }

    #[test]
    fn constants_kept_across_topologies_match_fresh_instances() {
        // Two graphs with equal n and m but different degrees: constants
        // kept from one topology would skew every draw on the other.
        let mut rng = SimRng::seed_from_u64(12);
        let a = generators::erdos_renyi(120, 0.2, &mut rng).unwrap();
        let mut edges: Vec<_> = a.edges().filter(|&(u, _)| u != 0).collect();
        let hub: Vec<_> = (1..120).filter(|&v| !a.has_edge(0, v)).take(10).collect();
        edges.truncate(edges.len() - hub.len());
        edges.extend(a.edges().filter(|&(u, _)| u == 0));
        edges.extend(hub.iter().map(|&v| (0, v)));
        let b = Graph::from_edges(120, &edges).unwrap();
        assert_eq!((a.n(), a.m()), (b.n(), b.m()));
        assert_ne!(a.degree(0), b.degree(0));

        let mut kept = EventSimulation::new(CutRateAsync::new(), RunConfig::default());
        for (i, g) in [&a, &b, &a, &b].into_iter().enumerate() {
            let seed = SimRng::seed_from_u64(40).derive(i as u64);
            let run = |sim: &mut EventSimulation<CutRateAsync>| {
                let mut net = StaticNetwork::new(g.clone());
                sim.run(&mut net, 0, &mut seed.clone()).unwrap()
            };
            let again = run(&mut kept);
            let fresh = run(&mut EventSimulation::new(
                CutRateAsync::new(),
                RunConfig::default(),
            ));
            assert_eq!(kept.protocol().samplers_run(), ["contacts"]);
            assert_eq!(
                again.spread_time().map(f64::to_bits),
                fresh.spread_time().map(f64::to_bits),
                "trial {i}"
            );
            assert_eq!(again.events(), fresh.events(), "trial {i}");
            assert_eq!(again.informed_count(), fresh.informed_count(), "trial {i}");
        }
    }
}
