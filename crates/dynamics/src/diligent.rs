//! The `ρ`-diligent dynamic network `G(n, ρ)` of Section 4 — the family on
//! which the Theorem 1.1 upper bound is almost tight (Theorem 1.2).
//!
//! `G(t) = H_{k,Δ}(A_t, B_t)` with `Δ = ⌈1/ρ⌉` and
//! `k = Θ(log n / log log n)`. The adversary watches the informed set and
//! moves every informed `B`-node over to the `A` side at each step
//! (`B_{t+1} = B_t \ I_{t+1}`), re-stitching the graph while
//! `n/4 ≤ |B_{t+1}| < |B_t|`; once `|B|` would drop below `n/4` the network
//! stops evolving.
//!
//! The effect: the rumor must re-traverse the `k`-hop bipartite string to
//! reach fresh `B` nodes essentially one "string crossing" at a time, and
//! Lemma 4.2 bounds each unit step's crossing probability by `2^k Δ / k!` —
//! yielding the `Ω(nρ/k)` spread-time lower bound while the graph stays
//! `Θ(ρ)`-diligent with `Φ = Θ(Δ²/(kΔ² + n))` throughout (Observation 4.1).
//!
//! # Modeling choice: the expanders persist
//!
//! The paper asks for "arbitrary 4-regular expander graphs" `G1` on
//! `A \ S_0` and `G2` on `B \ ∪S_i`, not for fresh ones at every step, and
//! Lemma 4.2's crossing bound is about the string alone. So `t = 0` builds
//! [`h_k_delta`] (random connected 4-regular expanders), and each later
//! re-stitch keeps both expanders and edits them locally:
//!
//! * a node that leaves `G2` (moved to `A`, or shifted into `S_k`) joins
//!   its four `G2` neighbours in two pairs, drawn uniformly from the
//!   pairings that keep `G2` simple and connected — if none does, `G2`
//!   alone is redrawn over its new node set;
//! * a node that joins `A` enters `G1` by cutting two uniformly drawn
//!   disjoint edges and joining their four ends to it;
//! * the string `S_0..S_k` and both stitchings are recomputed, which is
//!   `O(kΔ² + 2Δ²)` edges.
//!
//! Both sides stay connected and 4-regular, so every window is an
//! `H_{k,Δ}(A_t, B_t)`, and [`DynamicNetwork::edges_changed`] reports each
//! re-stitch as an exact [`EdgeDelta`] instead of forcing a rebuild.
//!
//! # Per-window cost
//!
//! A window costs what changed. Finding the informed `B` nodes is one
//! pass over the `n/64` words of the informed and `B` bitsets, so a window
//! in which no `B` node heard the rumor costs `O(n/64)`. A re-stitch costs
//! the expander edits (a few bounded component searches per node leaving
//! `G2`), the two strings, a netting of its edge log in a hash table, and
//! an in-place [`gossip_graph::Graph::apply_changes`] that sorts only the
//! delta's lower half-edges and moves the rows between touched rows.

use crate::{DynamicNetwork, EdgeDelta, ProfiledNetwork, StepProfile};
use gossip_graph::generators::{
    h_k_delta, random_connected_regular_edges, string_edges, HkDeltaParams,
};
use gossip_graph::{GraphError, NodeId, NodeSet, Topology};
use gossip_stats::SimRng;

/// The Section 4 adaptive network `G(n, ρ)`.
///
/// The graph evolves once per increasing `t`, in
/// [`DynamicNetwork::edges_changed`] or, when that was not called, in
/// [`DynamicNetwork::topology`]; repeated calls with the same `t` return
/// the same graph.
///
/// # Example
///
/// ```
/// use gossip_dynamics::{DiligentNetwork, DynamicNetwork};
/// use gossip_graph::NodeSet;
/// use gossip_stats::SimRng;
///
/// let mut net = DiligentNetwork::new(240, 0.2).unwrap();
/// let mut rng = SimRng::seed_from_u64(1);
/// let mut informed = NodeSet::new(net.n());
/// informed.insert(net.suggested_start());
/// let g = net.topology(0, &informed, &mut rng);
/// assert_eq!(g.n(), 240);
/// ```
#[derive(Debug, Clone)]
pub struct DiligentNetwork {
    n: usize,
    params: HkDeltaParams,
    a_nodes: Vec<NodeId>,
    /// `B_t`, ascending: it starts as a range and only ever loses nodes.
    b_nodes: Vec<NodeId>,
    /// `B_t` as a bitset, for the word-level search of informed `B` nodes.
    in_b: NodeSet,
    /// The exposed window (materialized backend over the `H_{k,Δ}` build).
    current: Option<Topology>,
    /// The step `current` was exposed for.
    last_step: u64,
    frozen: bool,
    /// The four expander neighbours of each node of `G1` (on `A \ S_0`)
    /// and `G2` (on `B \ ∪S_i`); rows of string nodes are stale.
    expander: Vec<[NodeId; 4]>,
    search: Search,
    /// The edge log of the current re-stitch (storage kept across them).
    log: Log,
    /// See [`DiligentNetwork::side_redraws`].
    redraws: u64,
}

impl DiligentNetwork {
    /// Builds `G(n, ρ)` with the paper's parameter choices
    /// `Δ = ⌈1/ρ⌉` and `k = max(1, round(ln n / ln ln n))`.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] when `ρ ∉ (0, 1]` or `n` is too
    /// small to host the construction (the paper's regime is
    /// `1/√n ≤ ρ ≤ 1`, but the freeze threshold `|B| = n/4` must still fit
    /// `k` clusters plus an expander, see [`DiligentNetwork::with_params`]).
    pub fn new(n: usize, rho: f64) -> Result<Self, GraphError> {
        if !(rho > 0.0 && rho <= 1.0) {
            return Err(GraphError::InvalidParameter(format!(
                "rho must be in (0, 1], got {rho}"
            )));
        }
        let delta = (1.0 / rho).ceil() as usize;
        let ln_n = (n.max(3) as f64).ln();
        let k = (ln_n / ln_n.ln().max(1.0)).round().max(1.0) as usize;
        Self::with_params(n, HkDeltaParams { k, delta })
    }

    /// Builds `G(n, ρ)` with explicit `k` and `Δ`.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] when `k` or `Δ` is zero, or when
    /// `n/4 < kΔ + max(Δ, 5)`: `|A_0| = n/4` must fit `S_0` plus `G1`, and
    /// every `B_t` down to the freeze at `n/4` must fit `S_1..S_k` plus a
    /// `G2` of at least `max(Δ, 5)` nodes.
    pub fn with_params(n: usize, params: HkDeltaParams) -> Result<Self, GraphError> {
        let HkDeltaParams { k, delta } = params;
        let need = k * delta + delta.max(5);
        if k == 0 || delta == 0 || n / 4 < need {
            return Err(GraphError::InvalidParameter(format!(
                "n = {n} too small for H(k={k}, delta={delta}): the freeze threshold \
                 |B| = n/4 = {} must host k clusters plus an expander (need at least {need})",
                n / 4
            )));
        }
        let mut net = DiligentNetwork {
            n,
            params,
            a_nodes: Vec::new(),
            b_nodes: Vec::new(),
            current: None,
            last_step: 0,
            frozen: false,
            expander: vec![[0; 4]; n],
            in_b: NodeSet::new(n),
            search: Search::default(),
            log: Log::default(),
            redraws: 0,
        };
        net.reset();
        Ok(net)
    }

    /// The construction parameters (`k`, `Δ`).
    pub fn params(&self) -> HkDeltaParams {
        self.params
    }

    /// The current `B_t` (uninformed side), in construction order.
    pub fn b_nodes(&self) -> &[NodeId] {
        &self.b_nodes
    }

    /// How many re-stitches since construction found no pairing that
    /// keeps `G2` simple and connected and redrew `G2` instead.
    pub fn side_redraws(&self) -> u64 {
        self.redraws
    }

    /// The Theorem 1.2 spread-time lower bound for these parameters:
    /// `n / (4·k·Δ)` (the proof's Inequality (11), of order `nρ/k`).
    pub fn lower_bound_time(&self) -> f64 {
        self.n as f64 / (4.0 * self.params.k as f64 * self.params.delta as f64)
    }

    /// The `t = 0` window: a fresh [`h_k_delta`], whose expander rows are
    /// each expander node's neighbours outside the string.
    fn build(&mut self, rng: &mut SimRng) {
        let h = h_k_delta(self.n, &self.a_nodes, &self.b_nodes, self.params, rng)
            .expect("sizes validated at construction");
        let mut string = NodeSet::new(self.n);
        for &v in h.clusters().iter().flatten() {
            string.insert(v);
        }
        for &v in h.a_rest().iter().chain(h.b_rest()) {
            let row = &mut self.expander[v as usize];
            let mut rest = h
                .graph()
                .neighbors(v)
                .iter()
                .filter(|&&w| !string.contains(w));
            for slot in row.iter_mut() {
                *slot = *rest
                    .next()
                    .expect("expander nodes have four expander neighbours");
            }
            debug_assert!(rest.next().is_none(), "expanders are 4-regular");
        }
        self.current = Some(Topology::materialized(h.into_graph()));
    }

    /// Moves every informed `B` node to `A` and re-stitches, returning the
    /// exact edge diff (empty when nothing moved or the network froze).
    fn evolve(&mut self, informed: &NodeSet, rng: &mut SimRng) -> EdgeDelta {
        if self.frozen {
            return EdgeDelta::empty();
        }
        // The informed B nodes, ascending, which is B order.
        let mut moved = Vec::new();
        for (w, (&i, &b)) in informed.words().iter().zip(self.in_b.words()).enumerate() {
            let mut bits = i & b;
            while bits != 0 {
                moved.push((w * 64) as NodeId + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        if moved.is_empty() {
            return EdgeDelta::empty();
        }
        if self.b_nodes.len() - moved.len() < self.n / 4 {
            // |B| would fall below n/4: per the paper, the network stops
            // evolving (G(t+1) = G(t) from here on).
            self.frozen = true;
            return EdgeDelta::empty();
        }
        for (u, v) in string_edges(&self.a_nodes, &self.b_nodes, self.params) {
            self.log.remove(u, v);
        }
        // Which G2 nodes leave it, in B order: the moved ones past the
        // string, and as many kept ones past it as moved nodes left the
        // string, which refill it.
        let string_len = self.params.k * self.params.delta;
        let pos: Vec<usize> = moved
            .iter()
            .map(|v| self.b_nodes.binary_search(v).expect("moved nodes are in B"))
            .collect();
        let inside = pos.partition_point(|&p| p < string_len);
        let mut leaving = Vec::with_capacity(moved.len());
        let (mut m, mut p, mut refill) = (inside, string_len, inside);
        while refill > 0 {
            if pos.get(m) == Some(&p) {
                leaving.push(moved[m]);
                m += 1;
            } else {
                leaving.push(self.b_nodes[p]);
                refill -= 1;
            }
            p += 1;
        }
        leaving.extend_from_slice(&moved[m..]);
        // B without the moved nodes: the runs between them shift down.
        let mut kept = pos[0];
        for (i, &p) in pos.iter().enumerate() {
            let end = pos.get(i + 1).copied().unwrap_or(self.b_nodes.len());
            self.b_nodes.copy_within(p + 1..end, kept);
            kept += end - p - 1;
        }
        self.b_nodes.truncate(kept);
        for &v in &moved {
            self.in_b.remove(v);
        }
        for (i, &v) in leaving.iter().enumerate() {
            if !self.leave_g2(v, rng) {
                let rest = &self.b_nodes[string_len..];
                redraw_g2(&mut self.expander, &leaving[i..], rest, &mut self.log, rng);
                self.redraws += 1;
                break;
            }
        }
        for &u in &moved {
            self.join_g1(u, rng);
            self.a_nodes.push(u);
        }
        for (u, v) in string_edges(&self.a_nodes, &self.b_nodes, self.params) {
            self.log.add(u, v);
        }
        let delta = self.log.net();
        self.current
            .as_mut()
            .and_then(Topology::as_graph_mut)
            .expect("re-stitches follow the t = 0 build")
            .apply_changes(delta.added(), delta.removed());
        delta
    }

    /// Takes `v` out of `G2` by joining its four neighbours in two pairs,
    /// drawn uniformly from the pairings that keep `G2` simple and
    /// connected. Returns `false`, changing nothing, when there is none.
    fn leave_g2(&mut self, v: NodeId, rng: &mut SimRng) -> bool {
        const PAIRINGS: [[(usize, usize); 2]; 3] =
            [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]];
        let nb = self.expander[v as usize];
        let mut labels = None;
        let mut valid = [0; 3];
        let mut count = 0;
        for (i, pairing) in PAIRINGS.iter().enumerate() {
            if pairing
                .iter()
                .any(|&(p, q)| self.expander[nb[p] as usize].contains(&nb[q]))
            {
                continue;
            }
            let labels =
                *labels.get_or_insert_with(|| self.search.components(&self.expander, v, nb));
            if joins(labels, pairing) {
                valid[count] = i;
                count += 1;
            }
        }
        if count == 0 {
            return false;
        }
        let pick = if count > 1 { rng.index(count) } else { 0 };
        for &(p, q) in &PAIRINGS[valid[pick]] {
            let (x, y) = (nb[p], nb[q]);
            replace(&mut self.expander[x as usize], v, y);
            replace(&mut self.expander[y as usize], v, x);
            self.log.add(x, y);
        }
        for &w in &nb {
            self.log.remove(v, w);
        }
        true
    }

    /// Puts `u` into `G1` by cutting two uniformly drawn disjoint edges and
    /// joining their four ends to `u` (`G1` stays connected: every piece
    /// the cuts leave holds one of the four ends).
    fn join_g1(&mut self, u: NodeId, rng: &mut SimRng) {
        let g1 = &self.a_nodes[self.params.delta..];
        let rows = &self.expander;
        // A uniform node and a uniform slot: a uniform edge of a 4-regular
        // graph.
        let mut draw = || {
            let r = rng.index(4 * g1.len());
            let x = g1[r / 4];
            (x, rows[x as usize][r % 4])
        };
        let (x, y) = draw();
        let (z, w) = loop {
            let (z, w) = draw();
            if z != x && z != y && w != x && w != y {
                break (z, w);
            }
        };
        for (p, q) in [(x, y), (y, x), (z, w), (w, z)] {
            replace(&mut self.expander[p as usize], q, u);
            self.log.add(u, p);
        }
        self.expander[u as usize] = [x, y, z, w];
        self.log.remove(x, y);
        self.log.remove(z, w);
    }
}

/// Replaces `old` by `new` in an expander row.
fn replace(row: &mut [NodeId; 4], old: NodeId, new: NodeId) {
    let slot = row
        .iter_mut()
        .find(|w| **w == old)
        .expect("expander rows are symmetric");
    *slot = new;
}

/// Whether adding `pairing`'s two edges between the four neighbours
/// leaves one component, given their component `labels` in `G2 − v`.
fn joins(mut labels: [u8; 4], pairing: &[(usize, usize); 2]) -> bool {
    for &(p, q) in pairing {
        let (keep, drop) = (labels[p], labels[q]);
        labels
            .iter_mut()
            .filter(|l| **l == drop)
            .for_each(|l| *l = keep);
    }
    labels.iter().all(|&l| l == labels[0])
}

/// The fallback when no pairing keeps `G2` simple and connected: drops
/// every edge of the current `G2` (the `new_rest` it is shrinking to plus
/// the `leaving` nodes still in it) and draws a fresh connected 4-regular
/// `G2` on `new_rest`.
fn redraw_g2(
    expander: &mut [[NodeId; 4]],
    leaving: &[NodeId],
    new_rest: &[NodeId],
    log: &mut Log,
    rng: &mut SimRng,
) {
    for &u in leaving.iter().chain(new_rest) {
        for &w in expander[u as usize].iter().filter(|&&w| u < w) {
            log.remove(u, w);
        }
    }
    let mut filled = vec![0; new_rest.len()];
    let edges = random_connected_regular_edges(new_rest.len(), 4, rng)
        .expect("G2 keeps at least 5 nodes above the freeze");
    for (i, j) in edges {
        let (i, j) = (i as usize, j as usize);
        let (u, v) = (new_rest[i], new_rest[j]);
        expander[u as usize][filled[i]] = v;
        expander[v as usize][filled[j]] = u;
        filled[i] += 1;
        filled[j] += 1;
        log.add(u, v);
    }
}

/// The edge insertions and deletions of one re-stitch, netted as they
/// arrive: an open-addressing table maps each edge, keyed `u << 32 | v`
/// with `u < v` (so keys sort like edges, and no key is 0), to its
/// insertions minus deletions. An edge inserted and deleted equally often
/// cancels without a sort of the whole log.
#[derive(Debug, Clone, Default)]
struct Log {
    /// `(key, count)` slots, a power of two of them; key 0 marks a free
    /// slot.
    slots: Vec<(u64, i32)>,
    /// The occupied slots.
    used: Vec<usize>,
}

fn key(u: NodeId, v: NodeId) -> u64 {
    u64::from(u.min(v)) << 32 | u64::from(u.max(v))
}

impl Log {
    fn add(&mut self, u: NodeId, v: NodeId) {
        self.bump(key(u, v), 1);
    }

    fn remove(&mut self, u: NodeId, v: NodeId) {
        self.bump(key(u, v), -1);
    }

    /// Adds `by` to the count of `key`, at most half filling the table.
    fn bump(&mut self, key: u64, by: i32) {
        if 2 * (self.used.len() + 1) > self.slots.len() {
            let held: Vec<(u64, i32)> = self.used.drain(..).map(|i| self.slots[i]).collect();
            let len = (2 * self.slots.len()).max(256);
            self.slots.clear();
            self.slots.resize(len, (0, 0));
            for (k, c) in held {
                self.bump(k, c);
            }
        }
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the top bits of the product.
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
        loop {
            match self.slots[i] {
                (0, _) => {
                    self.slots[i] = (key, by);
                    self.used.push(i);
                    return;
                }
                (k, ref mut c) if k == key => {
                    *c += by;
                    return;
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The net diff, emptying the log. Both sides come out sorted, as
    /// [`EdgeDelta::between`] lists them.
    fn net(&mut self) -> EdgeDelta {
        let mut added = Vec::with_capacity(self.used.len());
        let mut removed = Vec::with_capacity(self.used.len());
        for i in self.used.drain(..) {
            match std::mem::take(&mut self.slots[i]) {
                (k, 1) => added.push(k),
                (k, -1) => removed.push(k),
                (_, c) => debug_assert_eq!(c, 0, "an edge changed twice"),
            }
        }
        let edges = |mut keys: Vec<u64>| {
            keys.sort_unstable();
            keys.into_iter()
                .map(|k| ((k >> 32) as NodeId, k as NodeId))
                .collect()
        };
        EdgeDelta::new(edges(added), edges(removed))
    }
}

/// Scratch for [`Search::components`].
#[derive(Debug, Clone, Default)]
struct Search {
    /// `seen[x] == stamp` marks `x` as visited in the current search.
    seen: Vec<u32>,
    /// The region (source index) that visited `x`; `NONE` for the removed
    /// node.
    region: Vec<u8>,
    stamp: u32,
    queues: [Vec<NodeId>; 4],
}

impl Search {
    const NONE: u8 = 4;

    /// Labels the four `sources` (the neighbours of `v`) by their
    /// component in `G2 − v`: equal labels share a component.
    ///
    /// One breadth-first region grows from each source, a node at a time
    /// in turn, and regions that touch merge. The search stops once one
    /// group is left or at most one group can still grow (a group whose
    /// regions are exhausted is a whole component). In an expander the
    /// regions meet after `O(√|G2|)` nodes each.
    fn components(&mut self, rows: &[[NodeId; 4]], v: NodeId, sources: [NodeId; 4]) -> [u8; 4] {
        if self.seen.len() < rows.len() {
            self.seen.resize(rows.len(), 0);
            self.region.resize(rows.len(), Self::NONE);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        let stamp = self.stamp;
        self.seen[v as usize] = stamp;
        self.region[v as usize] = Self::NONE;
        let mut group = [0u8, 1, 2, 3];
        let mut head = [0usize; 4];
        for (r, &s) in sources.iter().enumerate() {
            self.seen[s as usize] = stamp;
            self.region[s as usize] = r as u8;
            self.queues[r].clear();
            self.queues[r].push(s);
        }
        loop {
            let (mut groups, mut open) = (0u8, 0u8);
            for r in 0..4 {
                groups |= 1 << group[r];
                if head[r] < self.queues[r].len() {
                    open |= 1 << group[r];
                }
            }
            if groups.count_ones() == 1 || open.count_ones() <= 1 {
                return group;
            }
            for r in 0..4 {
                let Some(&x) = self.queues[r].get(head[r]) else {
                    continue;
                };
                head[r] += 1;
                for &y in &rows[x as usize] {
                    if self.seen[y as usize] != stamp {
                        self.seen[y as usize] = stamp;
                        self.region[y as usize] = r as u8;
                        self.queues[r].push(y);
                        continue;
                    }
                    let other = self.region[y as usize];
                    if other != Self::NONE && group[other as usize] != group[r] {
                        let (keep, drop) = (
                            group[r].min(group[other as usize]),
                            group[r].max(group[other as usize]),
                        );
                        group
                            .iter_mut()
                            .filter(|g| **g == drop)
                            .for_each(|g| *g = keep);
                    }
                }
            }
        }
    }
}

impl DynamicNetwork for DiligentNetwork {
    fn n(&self) -> usize {
        self.n
    }

    fn topology(&mut self, t: u64, informed: &NodeSet, rng: &mut SimRng) -> &Topology {
        if self.current.is_none() {
            self.build(rng);
            self.last_step = t;
        } else if t > self.last_step {
            self.evolve(informed, rng);
            self.last_step = t;
        }
        self.current.as_ref().expect("built on first call")
    }

    fn reset(&mut self) {
        let a_size = self.n / 4;
        self.a_nodes = (0..a_size as NodeId).collect();
        self.b_nodes = (a_size as NodeId..self.n as NodeId).collect();
        self.in_b.clear();
        for &v in &self.b_nodes {
            self.in_b.insert(v);
        }
        self.current = None;
        self.last_step = 0;
        self.frozen = false;
    }

    fn name(&self) -> &str {
        "rho-diligent H(k,delta) (Sec. 4)"
    }

    /// A node of `A_0` (the paper injects the rumor into the `A` side);
    /// node `0` is in `A_0` but outside `S_0`'s stitched region only for
    /// `Δ > 0` — any `A` node is admissible, the construction's bound holds
    /// regardless.
    fn suggested_start(&self) -> NodeId {
        0
    }

    /// The exact diff of each step: empty whenever the adversary has no
    /// informed `B` node to move (or is frozen), the re-stitch's string,
    /// stitching and expander edits otherwise. `None` only before the
    /// `t = 0` build.
    fn edges_changed(&mut self, t: u64, informed: &NodeSet, rng: &mut SimRng) -> Option<EdgeDelta> {
        self.current.as_ref()?;
        if t <= self.last_step {
            return Some(EdgeDelta::empty());
        }
        self.last_step = t;
        Some(self.evolve(informed, rng))
    }
}

impl ProfiledNetwork for DiligentNetwork {
    /// Observation 4.1 closed forms: `Φ = Δ²/(kΔ² + n)`, `ρ = 1/Δ`; cut
    /// edges interior to the string have both endpoints of degree `2Δ`, so
    /// `ρ̄ = 1/(2Δ)`.
    fn current_profile(&self) -> StepProfile {
        let delta = self.params.delta as f64;
        let d2 = delta * delta;
        StepProfile {
            phi: d2 / (self.params.k as f64 * d2 + self.n as f64),
            rho: 1.0 / delta,
            rho_abs: 1.0 / (2.0 * delta),
            connected: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::connectivity::{components, is_connected};
    use gossip_graph::Graph;

    #[test]
    fn builds_and_stays_connected() {
        let mut net = DiligentNetwork::new(240, 0.2).unwrap();
        let mut rng = SimRng::seed_from_u64(1);
        let informed = NodeSet::new(240);
        let g = net.topology(0, &informed, &mut rng).materialize();
        assert_eq!(g.n(), 240);
        assert!(is_connected(&g));
    }

    #[test]
    fn rebuilds_when_b_nodes_informed() {
        let mut net = DiligentNetwork::with_params(200, HkDeltaParams { k: 2, delta: 5 }).unwrap();
        let mut rng = SimRng::seed_from_u64(2);
        let mut informed = NodeSet::new(200);
        informed.insert(0);
        let g0 = net.topology(0, &informed, &mut rng).clone();
        assert_eq!(net.b_nodes().len(), 150);
        // Inform a few B-side nodes (ids >= 50).
        informed.insert(60);
        informed.insert(61);
        let g1 = net.topology(1, &informed, &mut rng).clone();
        assert_eq!(net.b_nodes().len(), 148);
        assert_ne!(g0, g1);
        // 60 and 61 moved to the A side; they must not be in B.
        assert!(!net.b_nodes().contains(&60));
    }

    #[test]
    fn no_rebuild_without_b_progress() {
        let mut net = DiligentNetwork::with_params(200, HkDeltaParams { k: 2, delta: 5 }).unwrap();
        let mut rng = SimRng::seed_from_u64(3);
        let mut informed = NodeSet::new(200);
        informed.insert(0);
        let g0 = net.topology(0, &informed, &mut rng).clone();
        // Informing more A-side nodes only must keep the graph identical.
        informed.insert(1);
        informed.insert(2);
        let g1 = net.topology(1, &informed, &mut rng);
        assert_eq!(&g0, g1);
    }

    #[test]
    fn freezes_below_quarter() {
        let n = 200;
        let mut net = DiligentNetwork::with_params(n, HkDeltaParams { k: 2, delta: 5 }).unwrap();
        let mut rng = SimRng::seed_from_u64(4);
        let informed = NodeSet::new(n);
        let _ = net.topology(0, &informed, &mut rng);
        // Inform all but 40 B nodes: |B_new| = 40 < 50 = n/4 -> freeze.
        let mut informed = NodeSet::new(n);
        for v in 50..160u32 {
            informed.insert(v);
        }
        let g1 = net.topology(1, &informed, &mut rng).clone();
        // Further changes keep the same graph.
        let mut informed2 = NodeSet::full(n);
        informed2.remove(199);
        let g2 = net.topology(2, &informed2, &mut rng);
        assert_eq!(&g1, g2);
        assert_eq!(net.b_nodes().len(), 150, "frozen network must not mutate B");
    }

    #[test]
    fn reset_restores_initial_partition() {
        let mut net = DiligentNetwork::with_params(200, HkDeltaParams { k: 2, delta: 5 }).unwrap();
        let mut rng = SimRng::seed_from_u64(5);
        let mut informed = NodeSet::new(200);
        for v in 60..70u32 {
            informed.insert(v);
        }
        let _ = net.topology(0, &informed, &mut rng);
        let _ = net.topology(1, &informed, &mut rng);
        net.reset();
        assert_eq!(net.b_nodes().len(), 150);
        let informed = NodeSet::new(200);
        let g = net.topology(0, &informed, &mut rng);
        assert_eq!(g.n(), 200);
    }

    #[test]
    fn profile_matches_observation_4_1() {
        let net = DiligentNetwork::with_params(400, HkDeltaParams { k: 3, delta: 8 }).unwrap();
        let p = net.current_profile();
        assert!((p.phi - 64.0 / (3.0 * 64.0 + 400.0)).abs() < 1e-12);
        assert!((p.rho - 0.125).abs() < 1e-12);
        assert!((p.rho_abs - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn lower_bound_formula() {
        let net = DiligentNetwork::with_params(400, HkDeltaParams { k: 4, delta: 10 }).unwrap();
        assert!((net.lower_bound_time() - 400.0 / 160.0).abs() < 1e-12);
    }

    #[test]
    fn validates_parameters() {
        assert!(DiligentNetwork::new(100, 0.0).is_err());
        assert!(DiligentNetwork::new(100, 1.5).is_err());
        // delta too large for n/4.
        assert!(DiligentNetwork::with_params(100, HkDeltaParams { k: 2, delta: 20 }).is_err());
        // Inside the paper's regime ρ ≥ 1/√n, but the freeze threshold
        // |B| = n/4 cannot hold k clusters plus an expander: 25 < 3·10 + 10
        // and 16 < 3·8 + 8.
        assert!(DiligentNetwork::new(100, 0.1).is_err());
        assert!(DiligentNetwork::new(64, 0.125).is_err());
        assert!(DiligentNetwork::with_params(100, HkDeltaParams { k: 0, delta: 5 }).is_err());
        // The tightest sizes in use: 60 >= 40 and 40 >= 32.
        assert!(DiligentNetwork::new(240, 0.1).is_ok());
        assert!(DiligentNetwork::new(160, 0.125).is_ok());
    }

    #[test]
    fn expanders_survive_down_to_the_freeze() {
        // n = 40, k = 1, Δ = 5: G2 starts with 25 nodes and may shrink to
        // 5 (K5). One random B node hears the rumor per window, so every
        // window re-stitches, and near the minimum some removals have no
        // pairing that keeps G2 simple and connected.
        let (n, delta) = (40, 5);
        let mut net = DiligentNetwork::with_params(n, HkDeltaParams { k: 1, delta }).unwrap();
        for seed in 0..30 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut informed = NodeSet::new(n);
            informed.insert(0);
            net.reset();
            let mut prev = net.topology(0, &informed, &mut rng).materialize();
            for t in 1..32 {
                let b = net.b_nodes();
                informed.insert(b[rng.index(b.len())]);
                let delta_t = net.edges_changed(t, &informed, &mut rng).unwrap();
                let g = net.topology(t, &informed, &mut rng).materialize();
                assert_eq!(
                    delta_t,
                    EdgeDelta::between(&prev, &g),
                    "seed {seed}, t = {t}"
                );
                let b = net.b_nodes();
                let string: Vec<NodeId> = (0..delta as NodeId)
                    .chain(b[..delta].iter().copied())
                    .collect();
                // Without the string, G1 and G2 are two connected
                // 4-regular components and every string node is alone.
                let outside = |v: &NodeId| !string.contains(v);
                let expander_edges: Vec<_> = g
                    .edges()
                    .filter(|(u, v)| outside(u) && outside(v))
                    .collect();
                let expanders = Graph::from_edges(n, &expander_edges).unwrap();
                for v in (0..n as NodeId).filter(outside) {
                    assert_eq!(expanders.degree(v), 4, "seed {seed}, t = {t}: node {v}");
                }
                assert_eq!(
                    components(&expanders).len(),
                    2 + string.len(),
                    "seed {seed}, t = {t}: an expander came apart"
                );
                assert!(is_connected(&g), "seed {seed}, t = {t}");
                prev = g;
            }
        }
        assert!(net.side_redraws() > 0, "the G2 redraw fallback never fired");
    }

    #[test]
    fn pairings_must_reconnect_across_a_cut_vertex() {
        // Two copies of K5 minus an edge, on 0..5 without (0, 1) and on
        // 5..10 without (5, 6), hung on node 10: a 4-regular graph in
        // which node 10 is a cut vertex.
        let mut edges = vec![(10, 0), (10, 1), (10, 5), (10, 6)];
        for base in [0, 5] {
            for u in base..base + 5 {
                edges.extend(
                    (u + 1..base + 5)
                        .filter(|&v| (u, v) != (base, base + 1))
                        .map(|v| (u, v)),
                );
            }
        }
        let mut rows = vec![Vec::new(); 11];
        for &(u, v) in &edges {
            rows[u as usize].push(v);
            rows[v as usize].push(u);
        }
        let rows: Vec<[NodeId; 4]> = rows.into_iter().map(|r| r.try_into().unwrap()).collect();
        let labels = Search::default().components(&rows, 10, [0, 1, 5, 6]);
        assert_eq!(
            (labels[0] == labels[1], labels[2] == labels[3]),
            (true, true)
        );
        assert_ne!(labels[0], labels[2]);
        // Joining 0–1 and 5–6 keeps the graph simple but splits it.
        assert!(!joins(labels, &[(0, 1), (2, 3)]));
        assert!(joins(labels, &[(0, 2), (1, 3)]));
        assert!(joins(labels, &[(0, 3), (1, 2)]));
        // Without a cut vertex every source shares one component.
        let labels = Search::default().components(&rows, 2, [0, 1, 3, 4]);
        assert!(labels.iter().all(|&l| l == labels[0]));
    }

    #[test]
    fn paper_parameter_defaults() {
        let net = DiligentNetwork::new(1024, 0.1).unwrap();
        assert_eq!(net.params().delta, 10);
        assert!(net.params().k >= 2);
    }
}
