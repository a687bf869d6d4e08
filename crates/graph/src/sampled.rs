//! Seeded sampled-topology backends: random graphs as lazy views.
//!
//! The eager random generators ([`crate::generators::erdos_renyi`],
//! [`crate::generators::random_regular`]) return a CSR [`Graph`] —
//! `O(n + m)` memory *after* generation, but generation itself used to
//! cost `Θ(n²)` RNG draws for `G(n, p)` and the result had to exist in
//! full before a single query could be answered. The types in this module
//! instead treat a random graph as a **deterministic function of
//! `(parameters, seed)`**: construction is `O(1)`, every query realizes
//! exactly the state it needs, and two values built from the same seed
//! describe bit-for-bit the same graph no matter which queries ran first.
//!
//! * [`Gnp`] — Erdős–Rényi `G(n, p)`. Each node `v` owns the pairs
//!   `{v, u}` with `u > v`; its *forward row* is sampled on first touch by
//!   geometric skipping over the candidates (`O(1 + (n − v) p)` draws)
//!   from an RNG keyed by `(seed, v)`, so each pair is an independent
//!   `Bernoulli(p)` — exactly the `G(n, p)` distribution. Degree and
//!   indexed-neighbor queries realize a symmetric CSR over all rows once
//!   (`O(n + m)` total, cached); `has_edge` needs only one forward row.
//! * [`SampledRegular`] — random connected `d`-regular graph, realized on
//!   first touch from the seeded permutation stream of the pairing model
//!   (the stub shuffle of [`crate::generators::random_connected_regular`])
//!   and cached whole. `n`, `d`, and `m = nd/2` answer without realizing.
//! * [`CirculantLift`] — a seeded uniformly random relabeling of the
//!   `d`-regular circulant: node `v`'s neighbors are
//!   `σ(σ⁻¹(v) ± j mod n)` for a permutation `σ` drawn once (seeded
//!   Fisher–Yates, `O(n)` memory) on first touch. Exactly `d`-regular and
//!   simple, `O(1)` per query — a cheap stand-in for "an arbitrary
//!   `d`-regular graph with random labels" at any `n`.
//!
//! Realized state lives behind `Arc`-shared [`OnceLock`] caches, so
//! cloning a sampled topology (one clone per trial in a sweep) shares the
//! realization: a `G(10⁵, 2·10⁻⁴)` sweep samples its ≈ 10⁶ edges once,
//! not once per trial, and the caches are safe to touch from the
//! multi-threaded trial runner.

use crate::{Graph, GraphBuilder, GraphError, NodeId};
use gossip_stats::{Geometric, SimRng};
use std::sync::{Arc, OnceLock};

/// The deterministic RNG for row `v` of a backend seeded with `seed`.
///
/// Rows use [`SimRng::derive`]'s SplitMix-style mixing so adjacent rows get
/// decorrelated streams; the same derivation keyed by `(seed, v)` is what
/// makes realization order irrelevant.
fn row_rng(seed: u64, v: u64) -> SimRng {
    SimRng::seed_from_u64(seed).derive(v)
}

/// Samples the forward adjacency row of `v` in `G(n, p)`: every `u` in
/// `(v, n)` independently with probability `p`, by geometric skipping
/// (`O(1 + (n − v) p)` RNG draws instead of one per candidate). The output
/// is sorted increasing. This is the single sampling code path shared by
/// the lazy [`Gnp`] backend and the eager
/// [`crate::generators::erdos_renyi`] materialization.
fn gnp_forward_row(n: usize, v: NodeId, geo: &Geometric, seed: u64) -> Box<[NodeId]> {
    let mut rng = row_rng(seed, v as u64);
    let first = v as u64 + 1;
    let span = n as u64 - first;
    let mut out = Vec::new();
    if span > 0 {
        let mut idx = geo.sample(&mut rng) - 1;
        while idx < span {
            out.push((first + idx) as NodeId);
            // A saturated sample (p below 2⁻⁵⁴) ends the row.
            idx = idx.saturating_add(geo.sample(&mut rng));
        }
    }
    out.into_boxed_slice()
}

/// A symmetric CSR view realized from the forward rows (both directions,
/// rows sorted increasing — the same enumeration order as
/// [`Graph::neighbors`], so RNG-stream parity with the materialized twin
/// holds bit for bit).
#[derive(Debug)]
struct Csr {
    offsets: Box<[u32]>,
    nbrs: Box<[NodeId]>,
}

impl Csr {
    fn row(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.nbrs[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

#[derive(Debug)]
struct GnpCache {
    /// `fwd[v]` = sorted neighbors `u > v`, sampled on first touch.
    fwd: Box<[OnceLock<Box<[NodeId]>>]>,
    /// The symmetric CSR, realized on the first degree/neighbor query.
    full: OnceLock<Csr>,
}

/// Seeded sampled `G(n, p)` (see the [module docs](self)).
///
/// Equality and cloning are by parameters: clones share the lazy caches,
/// and two values with equal `(n, p, seed)` compare equal regardless of
/// what either has realized.
#[derive(Debug, Clone)]
pub(crate) struct Gnp {
    n: usize,
    p: f64,
    seed: u64,
    cache: Arc<GnpCache>,
}

impl PartialEq for Gnp {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.p == other.p && self.seed == other.seed
    }
}

impl Gnp {
    pub(crate) fn new(n: usize, p: f64, seed: u64) -> Result<Self, GraphError> {
        if n < 2 {
            return Err(GraphError::InvalidParameter(format!(
                "sampled G(n,p) needs n >= 2, got {n}"
            )));
        }
        if !(p > 0.0 && p <= 1.0) {
            return Err(GraphError::InvalidParameter(format!(
                "sampled G(n,p) needs edge probability p in (0, 1], got {p}"
            )));
        }
        Ok(Gnp {
            n,
            p,
            seed,
            cache: Arc::new(GnpCache {
                fwd: (0..n).map(|_| OnceLock::new()).collect(),
                full: OnceLock::new(),
            }),
        })
    }

    pub(crate) fn n(&self) -> usize {
        self.n
    }

    pub(crate) fn p(&self) -> f64 {
        self.p
    }

    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The forward row of `v` (neighbors `u > v`), realized on first touch.
    fn fwd_row(&self, v: NodeId) -> &[NodeId] {
        self.cache.fwd[v as usize].get_or_init(|| {
            let geo = Geometric::new(self.p).expect("p validated in new()");
            gnp_forward_row(self.n, v, &geo, self.seed)
        })
    }

    /// The full symmetric CSR, realized once on first need. `O(n + m)`:
    /// realize every forward row, then counting-sort into both directions
    /// (backward entries arrive in increasing `u` before the forward tail,
    /// so rows come out sorted without a comparison sort).
    fn csr(&self) -> &Csr {
        self.cache.full.get_or_init(|| {
            let n = self.n;
            let mut deg = vec![0u32; n];
            for v in 0..n as NodeId {
                for &u in self.fwd_row(v) {
                    deg[v as usize] += 1;
                    deg[u as usize] += 1;
                }
            }
            let mut offsets = vec![0u32; n + 1];
            for v in 0..n {
                offsets[v + 1] = offsets[v] + deg[v];
            }
            let mut cursor: Vec<u32> = offsets[..n].to_vec();
            let mut nbrs = vec![0 as NodeId; offsets[n] as usize];
            // Backward halves first (u < x, ascending), then each row's
            // own forward tail.
            for u in 0..n as NodeId {
                for &x in self.fwd_row(u) {
                    nbrs[cursor[x as usize] as usize] = u;
                    cursor[x as usize] += 1;
                }
            }
            for v in 0..n as NodeId {
                for &u in self.fwd_row(v) {
                    nbrs[cursor[v as usize] as usize] = u;
                    cursor[v as usize] += 1;
                }
            }
            Csr {
                offsets: offsets.into_boxed_slice(),
                nbrs: nbrs.into_boxed_slice(),
            }
        })
    }

    pub(crate) fn m(&self) -> usize {
        self.csr().nbrs.len() / 2
    }

    pub(crate) fn degree(&self, v: NodeId) -> usize {
        self.csr().row(v).len()
    }

    pub(crate) fn row(&self, v: NodeId) -> &[NodeId] {
        self.csr().row(v)
    }

    /// `O(log deg)` after one forward row (`O(1 + (n − a) p)` to realize);
    /// does not trigger the full CSR.
    pub(crate) fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        if let Some(csr) = self.cache.full.get() {
            return csr.row(a).binary_search(&b).is_ok();
        }
        self.fwd_row(a).binary_search(&b).is_ok()
    }

    /// Builds the CSR [`Graph`] twin from the forward rows — the one
    /// materialization code path behind [`crate::generators::erdos_renyi`].
    pub(crate) fn materialize(&self) -> Graph {
        let mut b = GraphBuilder::new(self.n);
        for v in 0..self.n as NodeId {
            for &u in self.fwd_row(v) {
                b.add_edge(v, u).expect("sampled rows emit valid edges");
            }
        }
        b.build()
    }
}

/// Seeded random connected `d`-regular graph, realized whole on first
/// touch (see the [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct SampledRegular {
    n: usize,
    d: usize,
    seed: u64,
    cache: Arc<OnceLock<Graph>>,
}

impl PartialEq for SampledRegular {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.d == other.d && self.seed == other.seed
    }
}

impl SampledRegular {
    pub(crate) fn new(n: usize, d: usize, seed: u64) -> Result<Self, GraphError> {
        if d < 2 || d >= n {
            return Err(GraphError::InvalidParameter(format!(
                "sampled random-regular degree d = {d} must satisfy 2 <= d < n = {n}"
            )));
        }
        if !(n * d).is_multiple_of(2) {
            return Err(GraphError::InvalidParameter(format!(
                "n*d must be even for a d-regular graph, got n = {n}, d = {d}"
            )));
        }
        Ok(SampledRegular {
            n,
            d,
            seed,
            cache: Arc::new(OnceLock::new()),
        })
    }

    pub(crate) fn n(&self) -> usize {
        self.n
    }

    pub(crate) fn d(&self) -> usize {
        self.d
    }

    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The realized graph: the same seeded pairing-model draw (permutation
    /// stream + 2-switch repair + connectivity rejection) as
    /// [`crate::generators::random_connected_regular`] on a fresh RNG
    /// seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics in the (never-observed for `d ≥ 3`; see the generator docs)
    /// event that generation exhausts its retry budgets — lazy realization
    /// has nowhere to surface a `Result`.
    pub(crate) fn graph(&self) -> &Graph {
        self.cache.get_or_init(|| {
            let mut rng = SimRng::seed_from_u64(self.seed);
            crate::generators::random_connected_regular(self.n, self.d, &mut rng)
                .expect("parameters validated in new(); connected draws succeed w.h.p.")
        })
    }
}

#[derive(Debug)]
struct Perm {
    sigma: Box<[NodeId]>,
    inv: Box<[NodeId]>,
}

/// Seeded random relabeling of a `d`-regular circulant (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct CirculantLift {
    n: usize,
    jumps: Box<[u32]>,
    /// One positive residue per neighbor direction (as in the implicit
    /// circulant backend).
    deltas: Box<[u32]>,
    seed: u64,
    perm: Arc<OnceLock<Perm>>,
}

impl PartialEq for CirculantLift {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.jumps == other.jumps && self.seed == other.seed
    }
}

impl CirculantLift {
    pub(crate) fn new(
        n: usize,
        jumps: Vec<u32>,
        deltas: Vec<u32>,
        seed: u64,
    ) -> Result<Self, GraphError> {
        debug_assert!(!jumps.is_empty(), "caller validates the jump set");
        Ok(CirculantLift {
            n,
            jumps: jumps.into_boxed_slice(),
            deltas: deltas.into_boxed_slice(),
            seed,
            perm: Arc::new(OnceLock::new()),
        })
    }

    pub(crate) fn n(&self) -> usize {
        self.n
    }

    pub(crate) fn jumps(&self) -> &[u32] {
        &self.jumps
    }

    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    pub(crate) fn degree(&self) -> usize {
        self.deltas.len()
    }

    pub(crate) fn m(&self) -> usize {
        self.n * self.deltas.len() / 2
    }

    /// The relabeling permutation, drawn once by seeded Fisher–Yates.
    fn perm(&self) -> &Perm {
        self.perm.get_or_init(|| {
            let mut sigma: Vec<NodeId> = (0..self.n as NodeId).collect();
            SimRng::seed_from_u64(self.seed).shuffle(&mut sigma);
            let mut inv = vec![0 as NodeId; self.n];
            for (i, &s) in sigma.iter().enumerate() {
                inv[s as usize] = i as NodeId;
            }
            Perm {
                sigma: sigma.into_boxed_slice(),
                inv: inv.into_boxed_slice(),
            }
        })
    }

    /// The `i`-th neighbor in lifted jump order: `σ(σ⁻¹(v) + δᵢ mod n)`.
    pub(crate) fn neighbor(&self, v: NodeId, i: usize) -> NodeId {
        let p = self.perm();
        let base = p.inv[v as usize] as usize;
        p.sigma[(base + self.deltas[i] as usize) % self.n]
    }

    pub(crate) fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let p = self.perm();
        let (a, b) = (p.inv[u as usize] as usize, p.inv[v as usize] as usize);
        let diff = (b + self.n - a) % self.n;
        let dist = diff.min(self.n - diff) as u32;
        self.jumps.binary_search(&dist).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnp_realization_is_query_order_independent() {
        // Touch rows in different orders; the realized graphs agree.
        let a = Gnp::new(40, 0.2, 99).unwrap();
        let b = Gnp::new(40, 0.2, 99).unwrap();
        // a: full CSR first; b: scattered has_edge probes first.
        let _ = a.degree(0);
        for (u, v) in [(39u32, 3u32), (7, 8), (0, 39)] {
            let _ = b.has_edge(u, v);
        }
        assert_eq!(a.materialize(), b.materialize());
        for v in 0..40u32 {
            assert_eq!(a.row(v), b.row(v));
        }
    }

    #[test]
    fn gnp_rows_are_sorted_and_symmetric() {
        let g = Gnp::new(60, 0.15, 7).unwrap();
        for v in 0..60u32 {
            let row = g.row(v);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {v} unsorted");
            for &u in row {
                assert!(g.has_edge(u, v), "asymmetric edge ({u}, {v})");
                assert!(g.row(u).contains(&v));
            }
        }
    }

    #[test]
    fn gnp_clone_shares_realization() {
        let g = Gnp::new(30, 0.3, 1).unwrap();
        let h = g.clone();
        let _ = g.degree(0); // realize via g
        assert!(
            h.cache.full.get().is_some(),
            "clone did not share the cache"
        );
        assert_eq!(g, h);
    }

    #[test]
    fn gnp_validates() {
        assert!(Gnp::new(1, 0.5, 0).is_err());
        assert!(Gnp::new(10, 0.0, 0).is_err());
        assert!(Gnp::new(10, 1.2, 0).is_err());
        assert!(Gnp::new(10, 1.0, 0).is_ok());
    }

    #[test]
    fn gnp_p_one_is_complete() {
        let g = Gnp::new(12, 1.0, 5).unwrap();
        assert_eq!(g.m(), 12 * 11 / 2);
    }

    #[test]
    fn gnp_tiny_p_is_nearly_empty() {
        // 1 − p rounds to 1 below 2⁻⁵⁴; G(50, 1e-20) once realized K₅₀.
        let t = crate::Topology::gnp(50, 1e-20, 7).unwrap();
        assert_eq!(t.m(), 0);
    }

    #[test]
    fn sampled_regular_validates_and_realizes() {
        assert!(SampledRegular::new(10, 1, 0).is_err());
        assert!(SampledRegular::new(4, 4, 0).is_err());
        assert!(SampledRegular::new(5, 3, 0).is_err()); // odd n*d
        let r = SampledRegular::new(20, 4, 3).unwrap();
        let g = r.graph();
        assert!(g.is_regular());
        assert_eq!(g.degree(0), 4);
        // Deterministic by seed, shared across clones.
        let r2 = SampledRegular::new(20, 4, 3).unwrap();
        assert_eq!(r.graph(), r2.graph());
    }

    #[test]
    fn lift_permutation_is_seeded_involution_pair() {
        let lift = CirculantLift::new(17, vec![1, 2], vec![1, 16, 2, 15], 11).unwrap();
        let p = lift.perm();
        for v in 0..17u32 {
            assert_eq!(p.inv[p.sigma[v as usize] as usize], v);
        }
    }
}
