//! The multi-trial summary type.
//!
//! The paper defines spread time as the first time by which all nodes are
//! informed *with high probability*; empirically that is a high quantile of
//! per-trial completion times. [`TrialSummary`] holds that distribution.
//!
//! Trial execution itself lives in [`crate::RunPlan`] — the single entry
//! point over every engine, with per-trial derived seeds (reproducible
//! regardless of thread scheduling) and streaming [`crate::TrialObserver`]
//! delivery.

use gossip_stats::{OutcomeCounts, RunningMoments, SortedSample};

/// Summary of a batch of simulation trials.
///
/// Completed-trial spread times are sorted **once** at construction
/// ([`SortedSample`]), so every accessor takes `&self` and summaries can be
/// read through shared references.
#[derive(Debug, Clone)]
pub struct TrialSummary {
    times: SortedSample,
    moments: RunningMoments,
    trials: usize,
    completed: usize,
    outcomes: OutcomeCounts,
}

impl TrialSummary {
    /// Builds a summary from the per-trial stream: total trial count,
    /// completed times **in trial order** (the order determines the float
    /// summation in `moments`, which is part of the bit-identical
    /// determinism contract), the moments accumulated in that order, and
    /// the per-outcome tallies.
    pub(crate) fn from_stream(
        trials: usize,
        times: Vec<f64>,
        moments: RunningMoments,
        outcomes: OutcomeCounts,
    ) -> Self {
        let completed = times.len();
        // Sort once here; every TrialSummary accessor is &self.
        TrialSummary {
            times: SortedSample::from_values(times),
            moments,
            trials,
            completed,
            outcomes,
        }
    }

    /// Number of trials run.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Number of trials that finished before the cutoff.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Per-[`crate::TrialOutcome`] tallies over the batch. Fault-free
    /// runs only populate `spread` and `budget`; `died` counts trials the
    /// fault layer proved stuck (all informed nodes permanently down).
    pub fn outcomes(&self) -> OutcomeCounts {
        self.outcomes
    }

    /// Trials that ended with the rumor provably dead (see
    /// [`crate::TrialOutcome::Died`]).
    pub fn died(&self) -> usize {
        self.outcomes.died
    }

    /// Trials stopped by the time or event budget.
    pub fn budget_stopped(&self) -> usize {
        self.outcomes.budget
    }

    /// Fraction of trials that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.completed as f64 / self.trials as f64
        }
    }

    /// Mean spread time over completed trials.
    pub fn mean(&self) -> f64 {
        self.moments.mean()
    }

    /// Standard deviation over completed trials.
    pub fn std_dev(&self) -> f64 {
        self.moments.std_dev()
    }

    /// Median spread time over completed trials.
    ///
    /// # Panics
    ///
    /// Panics when no trial completed; [`TrialSummary::try_median`] is
    /// the non-panicking variant.
    pub fn median(&self) -> f64 {
        self.try_median().expect("no completed trials")
    }

    /// Median spread time, or `None` when no trial completed.
    pub fn try_median(&self) -> Option<f64> {
        self.times.median().ok()
    }

    /// Empirical `q`-quantile of the spread time.
    ///
    /// # Panics
    ///
    /// Panics when no trial completed or `q ∉ \[0, 1\]`;
    /// [`TrialSummary::try_quantile`] is the non-panicking variant.
    pub fn quantile(&self, q: f64) -> f64 {
        self.times
            .quantile(q)
            .expect("no completed trials, or q outside [0, 1]")
    }

    /// Empirical `q`-quantile, or `None` when no trial completed or
    /// `q ∉ \[0, 1\]`.
    pub fn try_quantile(&self, q: f64) -> Option<f64> {
        self.times.quantile(q).ok()
    }

    /// The empirical "w.h.p. spread time": the 0.95 quantile (all trials
    /// beyond it are the `n^{-c}` failure tail the paper's definition
    /// tolerates).
    ///
    /// # Panics
    ///
    /// Panics when no trial completed;
    /// [`TrialSummary::try_whp_spread_time`] is the non-panicking
    /// variant.
    pub fn whp_spread_time(&self) -> f64 {
        self.quantile(0.95)
    }

    /// The 0.95 quantile, or `None` when no trial completed.
    pub fn try_whp_spread_time(&self) -> Option<f64> {
        self.try_quantile(0.95)
    }

    /// Largest observed spread time.
    ///
    /// # Panics
    ///
    /// Panics when no trial completed; [`TrialSummary::try_max`] is the
    /// non-panicking variant.
    pub fn max(&self) -> f64 {
        self.try_max().expect("no completed trials")
    }

    /// Largest observed spread time, or `None` when no trial completed.
    pub fn try_max(&self) -> Option<f64> {
        self.times.max().ok()
    }

    /// Empirical tail `Pr[T > x]` over completed trials (incomplete trials
    /// count as exceeding any `x` below the cutoff).
    pub fn tail_fraction(&self, x: f64) -> f64 {
        let incomplete = (self.trials - self.completed) as f64;
        let over = self.times.tail_fraction(x) * self.completed as f64;
        (over + incomplete) / self.trials as f64
    }

    /// All completed-trial spread times, sorted ascending — for histogram
    /// rendering or custom statistics beyond the provided quantiles.
    pub fn sorted_times(&self) -> &[f64] {
        self.times.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnyProtocol, AsyncPushPull, CutRateAsync, Engine, RunConfig, RunPlan, SimError};
    use gossip_dynamics::StaticNetwork;
    use gossip_graph::generators;

    /// A batch on a forced engine.
    fn plan(trials: usize, seed: u64, engine: Engine) -> RunPlan<'static> {
        RunPlan::new(trials, seed).engine(engine)
    }

    fn push_pull() -> AnyProtocol {
        AnyProtocol::window(AsyncPushPull::new())
    }

    /// The parallel-driver determinism contract: k threads and 1 thread
    /// yield the *identical* `TrialSummary` for the same master seed —
    /// bit-equal per-trial times, not just matching moments — because
    /// trial `i` always consumes the `derive(i)` stream regardless of
    /// scheduling. Checked on both engines and on an implicit backend.
    #[test]
    fn deterministic_across_thread_counts() {
        fn assert_identical(a: &TrialSummary, b: &TrialSummary) {
            assert_eq!(a.trials(), b.trials());
            assert_eq!(a.completed(), b.completed());
            assert_eq!(
                a.sorted_times(),
                b.sorted_times(),
                "per-trial times drifted"
            );
            assert!(a.mean().to_bits() == b.mean().to_bits(), "mean drifted");
            assert_eq!(a.median().to_bits(), b.median().to_bits());
            assert_eq!(a.std_dev().to_bits(), b.std_dev().to_bits());
        }
        let make = || StaticNetwork::new(generators::complete(12).unwrap());
        let window = |threads| {
            plan(40, 7, Engine::Window)
                .threads(threads)
                .execute(make, || AnyProtocol::window(CutRateAsync::new()))
                .unwrap()
                .into_summary()
        };
        let seq = window(1);
        for threads in [2, 4, 7] {
            assert_identical(&seq, &window(threads));
        }

        // Event engine on the implicit complete backend: the O(1)
        // closed-form path must obey the same seeding contract.
        let make_implicit =
            || StaticNetwork::from_topology(gossip_graph::Topology::complete(64).unwrap());
        let event = |threads| {
            plan(33, 99, Engine::Event)
                .threads(threads)
                .execute(make_implicit, || AnyProtocol::event(CutRateAsync::new()))
                .unwrap()
                .into_summary()
        };
        assert_identical(&event(1), &event(8));
    }

    #[test]
    fn summary_statistics_consistent() {
        let make = || StaticNetwork::new(generators::complete(16).unwrap());
        let s = plan(50, 3, Engine::Window)
            .execute(make, push_pull)
            .unwrap();
        assert_eq!(s.trials(), 50);
        assert_eq!(s.completed(), 50);
        assert!(s.completion_rate() == 1.0);
        let med = s.median();
        let whp = s.whp_spread_time();
        let max = s.max();
        assert!(med <= whp && whp <= max);
        assert!(s.mean() > 0.0);
    }

    #[test]
    fn incomplete_trials_counted() {
        // Disconnected graph: nothing ever completes.
        let g = gossip_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let make = move || StaticNetwork::new(g.clone());
        let s = plan(10, 1, Engine::Window)
            .config(RunConfig::with_max_time(5.0))
            .execute(make, push_pull)
            .unwrap();
        assert_eq!(s.completed(), 0);
        assert_eq!(s.completion_rate(), 0.0);
        assert_eq!(s.tail_fraction(3.0), 1.0);
    }

    #[test]
    fn incremental_runner_matches_window_runner_on_static() {
        // Same trial seeding + same event sequence per trial on a static
        // implicit backend, where both engines run the closed form; times
        // agree up to float summation order.
        let make = || StaticNetwork::from_topology(gossip_graph::Topology::complete(16).unwrap());
        let window = plan(30, 5, Engine::Window)
            .execute(make, || AnyProtocol::window(CutRateAsync::new()))
            .unwrap();
        let event = plan(30, 5, Engine::Event)
            .execute(make, || AnyProtocol::event(CutRateAsync::new()))
            .unwrap();
        assert_eq!(window.completed(), event.completed());
        for (a, b) in window.sorted_times().iter().zip(event.sorted_times()) {
            assert!((a - b).abs() < 1e-9, "trial time drifted: {a} vs {b}");
        }
    }

    #[test]
    fn error_propagates() {
        let make = || StaticNetwork::new(generators::path(3).unwrap());
        let err = plan(4, 1, Engine::Window)
            .start(99)
            .execute(make, push_pull)
            .unwrap_err();
        assert!(matches!(err, SimError::StartOutOfRange { .. }));
    }

    #[test]
    fn tail_fraction_mixes_incomplete() {
        let make = || StaticNetwork::new(generators::complete(8).unwrap());
        let s = plan(20, 9, Engine::Window)
            .execute(make, push_pull)
            .unwrap();
        // All complete: tail at 0 is 1, tail beyond max is 0.
        assert_eq!(s.tail_fraction(0.0), 1.0);
        let max = s.max();
        assert_eq!(s.tail_fraction(max + 1.0), 0.0);
    }
}
