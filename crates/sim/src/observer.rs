//! Streaming per-trial observers.
//!
//! [`crate::RunPlan`] delivers one [`TrialRecord`] per trial — always in
//! trial order, whatever the thread count — to every attached
//! [`TrialObserver`]. Observers replace the old buffer-everything model:
//! a million-trial sweep can stream each record to disk ([`JsonlSink`]),
//! keep down-sampled |I(t)| curves ([`TrialTrajectory`] via
//! [`TrajectorySink`]), or fold everything into the classic
//! [`TrialSummary`] ([`SummarySink`]) without ever holding more than the
//! running state in memory.
//!
//! The delivery order contract is what makes observers reproducible:
//! records arrive strictly in trial index order (the runner re-sequences
//! worker output), so any order-dependent accumulation — float summation
//! in [`SummarySink`], line order in a JSONL file — is bit-identical for
//! 1 thread and k threads.

use crate::summary::TrialSummary;
use crate::{SimError, SpreadOutcome, TrialError, TrialOutcome};
use gossip_stats::{OutcomeCounts, RunningMoments};
use serde::{DeError, Deserialize, Serialize, Value};
use std::io::Write;

/// Everything one trial produced, as delivered to [`TrialObserver`]s.
///
/// `trajectory` is `Some` exactly when this observer's view includes
/// recording: either [`crate::RunConfig::record_trajectory`] was set
/// explicitly on the plan (every observer sees the curves), or the
/// observer itself asked via [`TrialObserver::wants_trajectory`]
/// (observers that did not ask receive `trajectory: None`, so one
/// trajectory-hungry sink cannot balloon a co-attached sink's output).
/// The samples can be empty in the degenerate single-node case (the run
/// completes at time 0 before any window starts).
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Trial index within the batch (`0..trials`).
    pub trial: usize,
    /// The derived per-trial RNG seed (`base.derive(trial)`): replaying a
    /// single trial needs only this value.
    pub seed: u64,
    /// Network size.
    pub n: usize,
    /// Completion time, or `None` when the cutoff hit first.
    pub spread_time: Option<f64>,
    /// Unit windows the trial advanced through.
    pub windows: u64,
    /// Poisson events the trial resolved (see
    /// [`crate::SpreadOutcome::events`] for the per-engine meaning).
    pub events: u64,
    /// Informed nodes at the end of the trial (`n` when complete).
    pub informed: usize,
    /// How the trial ended: full spread, fault death, or budget cutoff
    /// (see [`TrialOutcome`]).
    pub outcome: TrialOutcome,
    /// `(time, |I(t)|)` samples when trajectory recording was on.
    pub trajectory: Option<Vec<(f64, usize)>>,
}

// Hand-rolled serde: derived seeds use the full u64 range, which JSON
// integers (and the vendored serde's i64 Value) cannot hold exactly, so
// `seed` travels as a decimal string. Everything else is the derive
// shape.
impl Serialize for TrialRecord {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("trial".into(), self.trial.to_value()),
            ("seed".into(), Value::Str(self.seed.to_string())),
            ("n".into(), self.n.to_value()),
            ("spread_time".into(), self.spread_time.to_value()),
            ("windows".into(), self.windows.to_value()),
            ("events".into(), self.events.to_value()),
            ("informed".into(), self.informed.to_value()),
            ("outcome".into(), self.outcome.to_value()),
            ("trajectory".into(), self.trajectory.to_value()),
        ])
    }
}

impl Deserialize for TrialRecord {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let map = value
            .as_map()
            .ok_or_else(|| DeError::expected("map", value))?;
        let seed: String = serde::de_field(map, "seed")?;
        let seed = seed
            .parse::<u64>()
            .map_err(|_| DeError::message(format!("seed: not a u64: `{seed}`")))?;
        let spread_time: Option<f64> = serde::de_field(map, "spread_time")?;
        // Absent in pre-outcome JSONL files: those predate faults, so a
        // completed trial spread and anything else hit the time cutoff.
        let outcome: Option<TrialOutcome> = serde::de_field(map, "outcome")?;
        let outcome = outcome.unwrap_or(if spread_time.is_some() {
            TrialOutcome::Spread
        } else {
            TrialOutcome::Budget
        });
        Ok(TrialRecord {
            trial: serde::de_field(map, "trial")?,
            seed,
            n: serde::de_field(map, "n")?,
            spread_time,
            windows: serde::de_field(map, "windows")?,
            // Absent in pre-events JSONL files: default to 0 there.
            events: serde::de_field(map, "events").unwrap_or(0),
            informed: serde::de_field(map, "informed")?,
            outcome,
            trajectory: serde::de_field(map, "trajectory")?,
        })
    }
}

impl TrialRecord {
    /// Assembles a record from a finished trial; `recording` states
    /// whether trajectory recording was enabled for the batch (so a
    /// recorded-but-empty curve still arrives as `Some`).
    pub(crate) fn from_outcome(
        trial: usize,
        seed: u64,
        outcome: SpreadOutcome,
        recording: bool,
    ) -> Self {
        TrialRecord {
            trial,
            seed,
            n: outcome.n(),
            spread_time: outcome.spread_time(),
            windows: outcome.windows(),
            events: outcome.events(),
            informed: outcome.informed_count(),
            outcome: outcome.outcome(),
            trajectory: recording.then(|| outcome.into_trajectory()),
        }
    }

    /// [`TrialRecord::from_outcome`], recycling the outcome's buffers
    /// into a [`crate::SimWorkspace`]: the informed bitset always goes
    /// back (only its count survives in the record), and the trajectory
    /// buffer goes back too unless recording shipped it inside the
    /// record (in which case the inline delivery path returns it after
    /// the observers have seen it).
    pub(crate) fn from_outcome_in(
        trial: usize,
        seed: u64,
        outcome: SpreadOutcome,
        recording: bool,
        ws: &mut crate::SimWorkspace,
    ) -> Self {
        let (n, spread_time, windows, events, informed, how) = (
            outcome.n(),
            outcome.spread_time(),
            outcome.windows(),
            outcome.events(),
            outcome.informed_count(),
            outcome.outcome(),
        );
        let (informed_set, trajectory) = outcome.into_buffers();
        ws.put_informed(informed_set);
        let trajectory = if recording {
            Some(trajectory)
        } else {
            ws.put_trajectory(trajectory);
            None
        };
        TrialRecord {
            trial,
            seed,
            n,
            spread_time,
            windows,
            events,
            informed,
            outcome: how,
            trajectory,
        }
    }
}

/// A sink receiving per-trial results as they stream out of a
/// [`crate::RunPlan`] run.
///
/// Records arrive in trial index order. An `on_trial` error aborts the
/// run: delivery stops, trials already running finish and are
/// discarded, queued trials never start, and the error comes back from
/// `execute`. `finish` is called once after the last record of a
/// successful execution, so buffered sinks can flush.
pub trait TrialObserver {
    /// Whether this observer needs `(t, |I(t)|)` trajectories. When any
    /// attached observer returns `true`, the plan enables
    /// [`crate::RunConfig::record_trajectory`] for the batch — but only
    /// observers that returned `true` (or runs whose plan enabled
    /// recording explicitly) see the curves in their records.
    fn wants_trajectory(&self) -> bool {
        false
    }

    /// Receives the next trial record (in trial order).
    ///
    /// # Errors
    ///
    /// A [`SimError::Observer`] (e.g. an I/O failure while streaming to
    /// disk) aborts the run with that error.
    fn on_trial(&mut self, record: &TrialRecord) -> Result<(), SimError>;

    /// Receives a trial that panicked instead of producing a record
    /// (delivered in its trial-order slot, interleaved with `on_trial`).
    /// The run continues: panic isolation quarantines the worker state
    /// and later trials still arrive. Default: ignore. Buffered sinks
    /// should flush here so everything delivered before the fault is
    /// durable even if the process dies next.
    ///
    /// # Errors
    ///
    /// As [`TrialObserver::on_trial`].
    fn on_trial_error(&mut self, error: &TrialError) -> Result<(), SimError> {
        let _ = error;
        Ok(())
    }

    /// Called once after the last record of a batch; flush buffers here.
    ///
    /// # Errors
    ///
    /// As [`TrialObserver::on_trial`].
    fn finish(&mut self) -> Result<(), SimError> {
        Ok(())
    }
}

impl<T: TrialObserver + ?Sized> TrialObserver for &mut T {
    fn wants_trajectory(&self) -> bool {
        (**self).wants_trajectory()
    }

    fn on_trial(&mut self, record: &TrialRecord) -> Result<(), SimError> {
        (**self).on_trial(record)
    }

    fn on_trial_error(&mut self, error: &TrialError) -> Result<(), SimError> {
        (**self).on_trial_error(error)
    }

    fn finish(&mut self) -> Result<(), SimError> {
        (**self).finish()
    }
}

impl<T: TrialObserver + ?Sized> TrialObserver for Box<T> {
    fn wants_trajectory(&self) -> bool {
        (**self).wants_trajectory()
    }

    fn on_trial(&mut self, record: &TrialRecord) -> Result<(), SimError> {
        (**self).on_trial(record)
    }

    fn on_trial_error(&mut self, error: &TrialError) -> Result<(), SimError> {
        (**self).on_trial_error(error)
    }

    fn finish(&mut self) -> Result<(), SimError> {
        (**self).finish()
    }
}

// ---------------------------------------------------------------------------
// SummarySink
// ---------------------------------------------------------------------------

/// Folds the record stream into the classic [`TrialSummary`].
///
/// Accumulation happens in trial order (the delivery contract), so the
/// resulting summary is bit-identical to the pre-observer runner for any
/// thread count: same float summation order in the moments, same sample
/// vector fed to the sorted quantile store.
#[derive(Debug, Clone, Default)]
pub struct SummarySink {
    times: Vec<f64>,
    moments: RunningMoments,
    trials: usize,
    events: u64,
    outcomes: OutcomeCounts,
}

impl SummarySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records received so far.
    pub fn trials_seen(&self) -> usize {
        self.trials
    }

    /// Total Poisson events across all records received so far (the sum
    /// of [`TrialRecord::events`]; per-engine meaning as in
    /// [`crate::SpreadOutcome::events`]).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Per-[`TrialOutcome`] tallies of the records received so far.
    pub fn outcomes(&self) -> OutcomeCounts {
        self.outcomes
    }

    /// Consumes the sink into the accumulated summary.
    pub fn into_summary(self) -> TrialSummary {
        TrialSummary::from_stream(self.trials, self.times, self.moments, self.outcomes)
    }

    /// The accumulated summary, leaving the sink usable (clones the
    /// completed-time vector).
    pub fn summary(&self) -> TrialSummary {
        self.clone().into_summary()
    }
}

impl TrialObserver for SummarySink {
    fn on_trial(&mut self, record: &TrialRecord) -> Result<(), SimError> {
        self.trials += 1;
        self.events += record.events;
        record.outcome.tally(&mut self.outcomes);
        if let Some(t) = record.spread_time {
            self.times.push(t);
            self.moments.push(t);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// JsonlSink
// ---------------------------------------------------------------------------

/// Streams one JSON record per line to any [`Write`] target.
///
/// The format is the [`serde`]-derived shape of [`TrialRecord`]; each
/// line round-trips through `serde_json::from_str::<TrialRecord>` exactly
/// (floats are printed in shortest-round-trip form), so downstream
/// analysis can rebuild bit-identical statistics from the file.
///
/// Crash-safety: the sink flushes on [`TrialObserver::finish`], after
/// every [`TrialObserver::on_trial_error`] (so all records delivered
/// before a faulted trial are durable), and on drop (best effort —
/// use [`JsonlSink::into_inner`] or `finish` to observe flush errors).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    // `Option` so `into_inner` can take the writer out from under Drop;
    // `None` only transiently during that take.
    out: Option<W>,
    records: usize,
}

impl JsonlSink<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncating) a JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from creating the file.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(JsonlSink::new(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        )))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer (a file, a `Vec<u8>`, a socket…).
    pub fn new(out: W) -> Self {
        JsonlSink {
            out: Some(out),
            records: 0,
        }
    }

    /// Number of records written so far.
    pub fn records(&self) -> usize {
        self.records
    }

    fn out(&mut self) -> &mut W {
        self.out.as_mut().expect("writer taken only by into_inner")
    }

    fn flush(&mut self) -> Result<(), SimError> {
        self.out()
            .flush()
            .map_err(|e| SimError::Observer(e.to_string()))
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from the final flush.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        let mut out = self.out.take().expect("writer taken only by into_inner");
        out.flush()?;
        Ok(out)
    }
}

impl<W: Write> TrialObserver for JsonlSink<W> {
    fn on_trial(&mut self, record: &TrialRecord) -> Result<(), SimError> {
        let line = serde_json::to_string(record);
        writeln!(self.out(), "{line}").map_err(|e| SimError::Observer(e.to_string()))?;
        self.records += 1;
        Ok(())
    }

    fn on_trial_error(&mut self, _error: &TrialError) -> Result<(), SimError> {
        // A faulted trial writes no line, but everything before it
        // becomes durable right away.
        self.flush()
    }

    fn finish(&mut self) -> Result<(), SimError> {
        self.flush()
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        if let Some(out) = self.out.as_mut() {
            let _ = out.flush();
        }
    }
}

// ---------------------------------------------------------------------------
// TrajectorySink
// ---------------------------------------------------------------------------

/// One trial's informed-count curve, down-sampled.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialTrajectory {
    /// Trial index within the batch.
    pub trial: usize,
    /// The per-trial derived seed (as in [`TrialRecord::seed`]).
    pub seed: u64,
    /// `(time, |I(t)|)` samples, first and last points always kept.
    pub points: Vec<(f64, usize)>,
}

// Same string-seed convention as [`TrialRecord`].
impl Serialize for TrialTrajectory {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("trial".into(), self.trial.to_value()),
            ("seed".into(), Value::Str(self.seed.to_string())),
            ("points".into(), self.points.to_value()),
        ])
    }
}

impl Deserialize for TrialTrajectory {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let map = value
            .as_map()
            .ok_or_else(|| DeError::expected("map", value))?;
        let seed: String = serde::de_field(map, "seed")?;
        let seed = seed
            .parse::<u64>()
            .map_err(|_| DeError::message(format!("seed: not a u64: `{seed}`")))?;
        Ok(TrialTrajectory {
            trial: serde::de_field(map, "trial")?,
            seed,
            points: serde::de_field(map, "points")?,
        })
    }
}

/// Collects down-sampled `(t, |I(t)|)` curves, one per trial.
///
/// Requests trajectory recording from the plan
/// ([`TrialObserver::wants_trajectory`]), then keeps at most
/// `max_points` samples per trial: an even stride over the recorded
/// curve, always retaining the first and last point, so phase-transition
/// shape survives while a 10⁶-window run does not occupy 10⁶ samples.
///
/// Retention is one curve **per trial** (`O(trials · max_points)`
/// memory): this sink is for trial counts you intend to plot. For
/// million-trial sweeps, stream trajectories out instead — a
/// [`JsonlSink`] on a plan with
/// [`crate::RunConfig::record_trajectory`] enabled writes each curve to
/// disk and retains nothing.
#[derive(Debug, Clone)]
pub struct TrajectorySink {
    max_points: usize,
    curves: Vec<TrialTrajectory>,
}

impl TrajectorySink {
    /// A sink keeping at most `max_points` samples per trial (minimum 2:
    /// the endpoints).
    pub fn new(max_points: usize) -> Self {
        TrajectorySink {
            max_points: max_points.max(2),
            curves: Vec::new(),
        }
    }

    /// The collected curves, in trial order.
    pub fn curves(&self) -> &[TrialTrajectory] {
        &self.curves
    }

    /// Consumes the sink into its curves.
    pub fn into_curves(self) -> Vec<TrialTrajectory> {
        self.curves
    }

    fn downsample(&self, full: &[(f64, usize)]) -> Vec<(f64, usize)> {
        if full.len() <= self.max_points {
            return full.to_vec();
        }
        // Even stride over the interior, endpoints pinned.
        let keep = self.max_points;
        let mut points = Vec::with_capacity(keep);
        for k in 0..keep {
            let idx = k * (full.len() - 1) / (keep - 1);
            points.push(full[idx]);
        }
        points.dedup_by_key(|p| p.0.to_bits());
        points
    }
}

impl TrialObserver for TrajectorySink {
    fn wants_trajectory(&self) -> bool {
        true
    }

    fn on_trial(&mut self, record: &TrialRecord) -> Result<(), SimError> {
        let full = record.trajectory.as_deref().unwrap_or(&[]);
        self.curves.push(TrialTrajectory {
            trial: record.trial,
            seed: record.seed,
            points: self.downsample(full),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(trial: usize, time: Option<f64>) -> TrialRecord {
        TrialRecord {
            trial,
            seed: trial as u64 * 7,
            n: 8,
            spread_time: time,
            windows: 3,
            events: 7,
            informed: if time.is_some() { 8 } else { 5 },
            outcome: if time.is_some() {
                TrialOutcome::Spread
            } else {
                TrialOutcome::Budget
            },
            trajectory: None,
        }
    }

    #[test]
    fn summary_sink_matches_counts() {
        let mut sink = SummarySink::new();
        for (i, t) in [Some(2.0), None, Some(1.0), Some(4.0)]
            .into_iter()
            .enumerate()
        {
            sink.on_trial(&record(i, t)).unwrap();
        }
        let s = sink.into_summary();
        assert_eq!(s.trials(), 4);
        assert_eq!(s.completed(), 3);
        assert_eq!(s.try_median(), Some(2.0));
        assert_eq!(s.try_max(), Some(4.0));
    }

    #[test]
    fn jsonl_round_trips_each_line() {
        let mut sink = JsonlSink::new(Vec::new());
        let records = vec![
            record(0, Some(1.25)),
            record(1, None),
            TrialRecord {
                trajectory: Some(vec![(0.0, 1), (0.5, 4), (1.75, 8)]),
                ..record(2, Some(1.75))
            },
        ];
        for r in &records {
            sink.on_trial(r).unwrap();
        }
        sink.finish().unwrap();
        assert_eq!(sink.records(), 3);
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        let parsed: Vec<TrialRecord> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(parsed, records);
    }

    #[test]
    fn legacy_lines_without_outcome_still_parse() {
        // Pre-fault JSONL: no `outcome` key. Completed trials infer
        // `spread`, cutoff trials infer `budget`.
        let done = r#"{"trial":0,"seed":"7","n":8,"spread_time":1.5,"windows":2,"events":9,"informed":8,"trajectory":null}"#;
        let cut = r#"{"trial":1,"seed":"14","n":8,"spread_time":null,"windows":3,"events":9,"informed":5,"trajectory":null}"#;
        let r: TrialRecord = serde_json::from_str(done).unwrap();
        assert_eq!(r.outcome, TrialOutcome::Spread);
        let r: TrialRecord = serde_json::from_str(cut).unwrap();
        assert_eq!(r.outcome, TrialOutcome::Budget);
    }

    #[test]
    fn jsonl_flushes_on_trial_error_and_drop() {
        use std::io::BufWriter;
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let shared = Shared::default();
        let mut sink = JsonlSink::new(BufWriter::with_capacity(1 << 20, shared.clone()));
        sink.on_trial(&record(0, Some(1.0))).unwrap();
        assert!(shared.0.lock().unwrap().is_empty(), "still buffered");
        sink.on_trial_error(&TrialError {
            trial: 1,
            seed: 7,
            message: "boom".into(),
        })
        .unwrap();
        assert!(!shared.0.lock().unwrap().is_empty(), "error flushes buffer");
        let before = shared.0.lock().unwrap().len();
        sink.on_trial(&record(2, None)).unwrap();
        drop(sink);
        assert!(
            shared.0.lock().unwrap().len() > before,
            "drop flushes the tail"
        );
    }

    #[test]
    fn trajectory_sink_downsamples_keeping_endpoints() {
        let full: Vec<(f64, usize)> = (0..100).map(|i| (i as f64, i + 1)).collect();
        let mut sink = TrajectorySink::new(10);
        assert!(sink.wants_trajectory());
        sink.on_trial(&TrialRecord {
            trajectory: Some(full.clone()),
            ..record(0, Some(99.0))
        })
        .unwrap();
        let curve = &sink.curves()[0];
        assert!(curve.points.len() <= 10);
        assert_eq!(*curve.points.first().unwrap(), full[0]);
        assert_eq!(*curve.points.last().unwrap(), full[99]);
        for w in curve.points.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 <= w[1].1);
        }
        // Short curves pass through untouched.
        let mut sink = TrajectorySink::new(10);
        sink.on_trial(&TrialRecord {
            trajectory: Some(full[..4].to_vec()),
            ..record(1, None)
        })
        .unwrap();
        assert_eq!(sink.curves()[1 - 1].points, full[..4].to_vec());
    }
}
