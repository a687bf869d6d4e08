//! The reusable per-worker scratch arena for the trial hot path.
//!
//! Every trial of every experiment needs the same transient state: an
//! informed-set bitset, a trajectory buffer, the cut-rate simulator's
//! uninformed pool, and the two delta-repair mark bitsets (endpoints
//! walked, nodes to recompute). Allocating all of it per trial and
//! dropping it at trial end made small-`n` / high-trial sweeps spend a
//! large share of their wall clock in the allocator and in re-zeroing
//! fresh memory.
//!
//! [`SimWorkspace`] is the fix: one arena per worker thread, threaded by
//! `&mut` through [`crate::EventSimulation::run_in`],
//! [`crate::Simulation::run_in`], the [`crate::IncrementalProtocol`]
//! rebuild/repair hooks, and the [`crate::RunPlan`] trial loop. A trial
//! *checks out* its buffers at start and the driver *returns* them after
//! the [`crate::TrialRecord`] is assembled, so steady-state trial setup
//! performs no allocation at all. (The cut-rate protocol's vectorized
//! lane keeps its arrays in the protocol value itself, which the worker
//! also keeps across trials.)

use gossip_graph::{NodeId, NodeSet};
use std::sync::Mutex;

/// A uniform sampler over a shrinking set of nodes: O(1) removal by
/// swap-remove, O(1) uniform draws, refilled in place across trials.
///
/// This is the uninformed-pool structure of the closed-form cut-rate
/// states (implicit complete / star backends). It lives here so
/// [`SimWorkspace`] can retain the `members`/`pos` allocations between
/// trials; [`ShrinkPool::reset_from`] refills them without growing.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShrinkPool {
    pub(crate) members: Vec<NodeId>,
    /// `pos[v]` = index of `v` in `members`, or `ABSENT`.
    pos: Vec<u32>,
}

pub(crate) const ABSENT: u32 = u32::MAX;

impl ShrinkPool {
    /// Refills the pool over universe `0..n` from a membership predicate,
    /// reusing the retained allocations (allocation-free once `members`
    /// and `pos` have ever held `n` entries). Members end up in ascending
    /// node order — exactly the order a freshly built pool would have, so
    /// uniform draws consume the RNG identically either way.
    pub(crate) fn reset_from(&mut self, n: usize, mut member: impl FnMut(NodeId) -> bool) {
        self.members.clear();
        self.members.reserve(n);
        self.pos.clear();
        self.pos.resize(n, ABSENT);
        for v in 0..n as NodeId {
            if member(v) {
                self.pos[v as usize] = self.members.len() as u32;
                self.members.push(v);
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    #[cfg(test)]
    pub(crate) fn contains(&self, v: NodeId) -> bool {
        self.pos[v as usize] != ABSENT
    }

    pub(crate) fn remove(&mut self, v: NodeId) {
        let i = self.pos[v as usize];
        debug_assert_ne!(i, ABSENT, "node {v} not in the pool");
        let i = i as usize;
        let last = *self.members.last().expect("non-empty: v is a member");
        self.members.swap_remove(i);
        self.pos[v as usize] = ABSENT;
        if last != v {
            self.pos[last as usize] = i as u32;
        }
    }

    pub(crate) fn sample(&self, rng: &mut gossip_stats::SimRng) -> NodeId {
        self.members[rng.index(self.members.len())]
    }
}

/// Reusable per-worker scratch for the trial hot path.
///
/// One workspace serves one worker thread for the lifetime of a trial
/// batch (or a whole sweep). Each engine run checks buffers out
/// ([`crate::EventSimulation::run_in`] / [`crate::Simulation::run_in`]),
/// and [`crate::RunPlan`] returns them once the trial's record has been
/// assembled, so steady-state trials allocate nothing.
///
/// # Reset invariants
///
/// Checked-out state is indistinguishable from freshly allocated state:
///
/// * the informed [`NodeSet`] comes back cleared (empty, right universe);
/// * the trajectory buffer comes back empty (capacity retained);
/// * `ShrinkPool::reset_from` refills pools in ascending node order,
///   exactly as a freshly grown pool;
/// * the delta-repair mark bitsets are cleared before every use.
///
/// # Why RNG draw order is unchanged
///
/// The workspace only changes *where bytes live*, never *what the
/// simulator does*: every data structure a trial checks out is reset to
/// the exact logical state a fresh allocation would have, and no code
/// path consults the workspace to make a decision. Every random draw —
/// exponential gaps, rejection probes, pool picks, and the fault layer's
/// drop and ratio coins, which live on their own per-trial stream outside
/// the workspace — therefore happens at the same point of the same stream
/// with the same outcome, and a batch's trial summaries are bit-identical
/// to one [`crate::EventSimulation::run`] / [`crate::Simulation::run`]
/// call per trial, each on a fresh workspace (test-enforced in
/// `tests/workspace_equivalence.rs`).
#[derive(Debug, Default)]
pub struct SimWorkspace {
    informed: Option<NodeSet>,
    trajectory: Option<Vec<(f64, usize)>>,
    /// The closed-form cut-rate states' uninformed pool, parked between
    /// trials (dirty; [`ShrinkPool::reset_from`] refills it).
    pub(crate) pool: ShrinkPool,
    /// Delta-repair marks: `(touched endpoints, stale nodes)`.
    repair_marks: Option<(NodeSet, NodeSet)>,
}

impl SimWorkspace {
    /// An empty workspace; buffers are grown on first use and retained
    /// afterwards.
    pub fn new() -> Self {
        SimWorkspace::default()
    }

    /// Checks out a cleared informed set over universe `0..n`, reusing
    /// the retained bitset when its universe matches.
    pub(crate) fn take_informed(&mut self, n: usize) -> NodeSet {
        match self.informed.take() {
            Some(mut set) if set.universe() == n => {
                set.clear();
                set
            }
            _ => NodeSet::new(n),
        }
    }

    /// Returns an informed set for reuse by the next trial.
    pub(crate) fn put_informed(&mut self, set: NodeSet) {
        self.informed = Some(set);
    }

    /// Checks out an empty trajectory buffer (capacity retained).
    pub(crate) fn take_trajectory(&mut self) -> Vec<(f64, usize)> {
        let mut buf = self.trajectory.take().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a trajectory buffer for reuse by the next trial.
    pub(crate) fn put_trajectory(&mut self, buf: Vec<(f64, usize)>) {
        self.trajectory = Some(buf);
    }

    /// The delta-repair marks over universe `0..n`, both cleared: the
    /// changed-edge endpoints already examined, and the nodes whose
    /// in-rate must be recomputed. Retained across windows and trials;
    /// fresh only when the universe changes.
    pub(crate) fn repair_marks(&mut self, n: usize) -> (&mut NodeSet, &mut NodeSet) {
        if !matches!(&self.repair_marks, Some((touched, _)) if touched.universe() == n) {
            self.repair_marks = Some((NodeSet::new(n), NodeSet::new(n)));
        }
        let (touched, stale) = self.repair_marks.as_mut().expect("just ensured");
        touched.clear();
        stale.clear();
        (touched, stale)
    }
}

/// A shared pool of [`SimWorkspace`]s that outlives individual trial
/// batches, so a long-lived process (the `gossip serve` daemon, repeated
/// [`crate::RunPlan`] executions in one program) keeps its grown scratch
/// arenas warm across runs instead of re-growing them from empty every
/// time.
///
/// Workers check a workspace out at batch start
/// ([`WorkspacePool::checkout`]) and return it when the batch ends
/// ([`WorkspacePool::restore`]); an empty pool hands out fresh
/// workspaces. Because every buffer a trial checks out of a
/// [`SimWorkspace`] is reset to the exact logical state of a fresh
/// allocation (see the [`SimWorkspace`] reset invariants), pooling is
/// bit-invisible: results with a pool are identical to results without
/// one (test-enforced).
#[derive(Debug, Default)]
pub struct WorkspacePool {
    slots: Mutex<Vec<SimWorkspace>>,
}

impl WorkspacePool {
    /// An empty pool.
    pub fn new() -> Self {
        WorkspacePool::default()
    }

    /// Checks a workspace out of the pool, or creates a fresh one when
    /// the pool is empty.
    pub fn checkout(&self) -> SimWorkspace {
        self.slots
            .lock()
            .expect("workspace pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a workspace to the pool for a later batch.
    pub fn restore(&self, ws: SimWorkspace) {
        self.slots.lock().expect("workspace pool poisoned").push(ws);
    }

    /// How many idle workspaces the pool currently holds.
    pub fn idle(&self) -> usize {
        self.slots.lock().expect("workspace pool poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_stats::SimRng;

    #[test]
    fn informed_reuse_matches_fresh() {
        let mut ws = SimWorkspace::new();
        let mut set = ws.take_informed(70);
        set.insert(3);
        set.insert(69);
        ws.put_informed(set);
        // Same universe: cleared in place.
        let set = ws.take_informed(70);
        assert_eq!(set.len(), 0);
        assert_eq!(set.universe(), 70);
        ws.put_informed(set);
        // Different universe: fresh set.
        let set = ws.take_informed(10);
        assert_eq!(set.universe(), 10);
        assert!(set.is_empty());
    }

    #[test]
    fn trajectory_and_stale_come_back_empty() {
        let mut ws = SimWorkspace::new();
        let mut t = ws.take_trajectory();
        t.push((0.5, 3));
        let cap = t.capacity();
        ws.put_trajectory(t);
        let t = ws.take_trajectory();
        assert!(t.is_empty());
        assert_eq!(t.capacity(), cap, "capacity must be retained");

        let (touched, stale) = ws.repair_marks(20);
        touched.insert(3);
        stale.insert(7);
        let (touched, stale) = ws.repair_marks(20);
        assert!(touched.is_empty() && stale.is_empty());
        let (touched, stale) = ws.repair_marks(9);
        assert_eq!((touched.universe(), stale.universe()), (9, 9));
        assert!(touched.is_empty() && stale.is_empty());
    }

    #[test]
    fn shrink_pool_reset_matches_fresh_build() {
        let mut reused = ShrinkPool::default();
        reused.reset_from(50, |_| true);
        while reused.len() > 10 {
            let v = reused.members[reused.len() / 2];
            reused.remove(v);
        }
        // Refill over a different universe with a predicate; compare with
        // a never-used pool.
        let member = |v: NodeId| !v.is_multiple_of(3);
        reused.reset_from(31, member);
        let mut fresh = ShrinkPool::default();
        fresh.reset_from(31, member);
        assert_eq!(reused.members, fresh.members);
        for v in 0..31 {
            assert_eq!(reused.contains(v), fresh.contains(v), "node {v}");
        }
        // Same draws on both.
        let mut r1 = SimRng::seed_from_u64(4);
        let mut r2 = SimRng::seed_from_u64(4);
        for _ in 0..100 {
            assert_eq!(reused.sample(&mut r1), fresh.sample(&mut r2));
        }
    }

    #[test]
    fn workspace_pool_round_trips() {
        let pool = WorkspacePool::new();
        assert_eq!(pool.idle(), 0);
        let mut ws = pool.checkout(); // empty pool: fresh workspace
        let mut set = ws.take_informed(12);
        set.insert(3);
        ws.put_informed(set);
        pool.restore(ws);
        assert_eq!(pool.idle(), 1);
        // The returned workspace keeps its grown buffers, but checkout
        // state is still indistinguishable from fresh (reset invariants).
        let mut ws = pool.checkout();
        assert_eq!(pool.idle(), 0);
        let set = ws.take_informed(12);
        assert!(set.is_empty());
        assert_eq!(set.universe(), 12);
    }
}
