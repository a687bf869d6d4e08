//! Crash-safe sweep journals.
//!
//! A journal is a JSONL file a [`crate::scenario::SweepPlan`] appends to
//! as it runs: first a [`JournalHeader`] line binding the file to one
//! exact spec (by content hash and the embedded spec itself, see
//! [`JournalHeader::check`]), then one [`JournalCell`] line per
//! cleanly completed `(n, trials)` cell — its [`ScenarioRow`] plus every
//! [`TrialRecord`] — flushed as soon as the cell finishes. If the
//! process dies mid-sweep, at most the cell in flight is lost:
//! [`Journal::load`] tolerates a torn final line, and a resumed sweep
//! ([`crate::scenario::SweepPlan::resume_from`]) replays the loaded
//! cells and re-executes only the remainder, bit-identical to an
//! uninterrupted run.
//!
//! The file has two readers, which parse and check the header alike and
//! stop at the first cell line that fails their checks:
//!
//! * [`JournalText::read`] checks each cell line's JSON syntax, its
//!   envelope (kind `cell`, `index`, `n` and the row) and that it holds
//!   `row.trials` records. It builds no record: it keeps each record's
//!   byte span, which is the line [`gossip_sim::JsonlSink`] writes for
//!   that record, so a complete entry is served as a byte copy.
//! * [`Journal::load`] checks the same and also the shape of every
//!   record, which it builds as a [`TrialRecord`]; a resumed sweep
//!   replays those.
//!
//! The spec hash is FNV-1a over the *normalized* spec's canonical JSON
//! rendering ([`ScenarioSpec::normalized`]): any semantic change —
//! sizes, seeds, fault parameters, engine, a `[net]` table or its
//! `tick` / `horizon` — invalidates old journals instead of silently
//! splicing incompatible results, while presentation-only differences
//! (description, thread and node-group counts, live transport, defaults
//! spelled out vs omitted, TOML vs JSON source) hash identically, so
//! journals and the `gossip serve` result store are shared across every
//! rendering of the same experiment.
//!
//! The header also records the [`RESULTS_VERSION`] of the binary that
//! wrote it. The hash names the experiment, the version names the code
//! that produced its results: a change that moves any random draw bumps
//! the version, and [`JournalHeader::check`] then refuses journals and
//! store entries written under another one (a header without the field
//! reads as version 0). The version stays out of [`spec_hash`], so store
//! keys do not move when it is bumped; a stale entry is re-executed and
//! overwritten in place.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::Path;

use gossip_sim::TrialRecord;
use serde::{de_field, DeError, Deserialize, Serialize, Value};

use crate::scenario::{ScenarioError, ScenarioPlan, ScenarioRow, ScenarioSpec};

/// The version of the results this binary produces for a given spec.
///
/// Bumped by every change that moves a random draw or otherwise changes
/// what some spec's sweep writes, so journals and `gossip serve` store
/// entries from older binaries stop answering.
///
/// * 0 — headers written before the field existed.
/// * 1 — the Section 4 adversary keeps its expanders across re-stitches
///   (`gossip_dynamics::DiligentNetwork`).
/// * 2 — the cut-rate protocol rebuilds its rates after a dense delta (at
///   least twice as many changed edges as nodes) instead of repairing
///   them, so async push–pull on edge-Markovian churn moves in its last
///   float bits.
/// * 3 — one fault model: the analytic engines draw node liveness from
///   the live runtime's keyed per-`(node, window)` coins instead of their
///   sequential fault stream, and `kind = "lossy"` runs the cut-rate
///   sampler under that model (its `loss` folded into `drop`, its
///   `downtime` a liveness chain) instead of its own tick-by-tick
///   protocol. Specs with active crashes, schedules, targeting or `lossy`
///   parameters move; drop-only and live results do not.
/// * 4 — in vectorized mode the cut-rate protocol keeps generic backends'
///   rates in its vectorized lane, repairs the lane across sparse deltas
///   and runs the vectorized inner loop on dynamic windows too (it ran
///   only on static ones). Vectorized async push–pull on dynamic families
///   moves; static networks, scalar (`sweep.vectorized = false`) runs
///   and live results do not. (The scalar loop and `sweep.vectorized`
///   were later deleted; that moved no result, only the analytic store
///   keys — see [`spec_hash`].)
/// * 5 — on a dense static generic topology (mean degree at least 12, or
///   32 on an adjacency of more than 2¹⁷ entries), in a fault-free
///   event-engine trial, the cut-rate protocol samples contacts out of
///   the smaller side of the cut and keeps those that cross it, handing a
///   trial over to the lane when too few cross, instead of running the
///   lane from the start. Async push–pull on such `G(n, p)`,
///   random-regular, circulant and other generic graphs moves; sparser
///   static graphs, closed forms (implicit complete and star graphs),
///   dynamic families, fault runs, the window engine and live results do
///   not.
/// * 6 — the lane keeps float in-rates on regular graphs too: the
///   integer-count lane it ran when every degree was equal is deleted,
///   and a sparse delta that changes a degree of a regular graph is
///   repaired in place instead of rebuilding the lane. On a regular graph
///   whose degree is a power of two the float lane writes the count
///   lane's bytes exactly, because every rate, `λ` and bound is an exact
///   multiple of `2/d` and scaling by a power of two commutes with
///   rounding; for other degrees the last bits move, and so do the trials
///   they reach. Lane runs on regular graphs of other degrees (static, or
///   a trial the contact sampler hands over) and on dynamic families with
///   regular windows move; irregular graphs, the contact sampler's own
///   draws, closed forms, the window engine and live results do not.
pub const RESULTS_VERSION: u32 = 6;

/// FNV-1a 64-bit hash of the spec's canonical (pretty JSON) rendering,
/// taken over its normalized form ([`ScenarioSpec::normalized`]).
///
/// Stable across processes and platforms; used to bind a journal file to
/// the experiment that produced it. Two specs hash equal exactly when
/// they describe the same experiment: presentation-only fields
/// (description, `sweep.threads`, and
/// `[net]`'s transport knobs) and defaults written out explicitly do not
/// change the hash, and a spec loaded from TOML hashes identically to
/// the same spec loaded from JSON. A live spec never hashes like its
/// analytic twin. The `gossip serve` result store keys on this hash, so
/// equivalent requests share one cache entry.
///
/// The rendering keeps three removed sweep keys as nulls where they
/// rendered: `"workspace"` and `"vectorized"` after `start`, and
/// `"cell_parallel"` last. Store keys were taken over renderings with
/// those nulls, and the results behind them are unchanged; without
/// `cell_parallel`'s null, which every normalized spec rendered, no
/// stored entry would answer.
pub fn spec_hash(spec: &ScenarioSpec) -> u64 {
    let mut canonical = spec.normalized().to_value();
    if let Value::Map(top) = &mut canonical {
        if let Some((_, Value::Map(sweep))) = top.iter_mut().find(|(k, _)| k == "sweep") {
            let at = 1 + sweep
                .iter()
                .position(|(k, _)| k == "start")
                .expect("the sweep table renders `start`");
            let retired = ["workspace", "vectorized"].map(|k| (k.to_string(), Value::Null));
            sweep.splice(at..at, retired);
            sweep.push(("cell_parallel".to_string(), Value::Null));
        }
    }
    let json = serde_json::to_string_pretty(&canonical);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in json.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The journal's first line: scenario identity plus the full embedded
/// spec, so `--resume <journal>` can reconstruct the sweep without the
/// original spec file.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// Scenario name (from the spec; convenience for humans reading the
    /// file).
    pub scenario: String,
    /// [`spec_hash`] of the embedded spec, stored as a decimal string in
    /// the file (the full 64-bit range does not fit a JSON number).
    pub spec_hash: u64,
    /// The [`RESULTS_VERSION`] of the binary that wrote the journal; 0
    /// when the file predates the field.
    pub results_version: u32,
    /// The complete spec the journal was written for.
    pub spec: ScenarioSpec,
}

impl JournalHeader {
    /// Checks that the journal was written for `plan` by this binary's
    /// results: the stored hash and the embedded spec, in
    /// [`ScenarioSpec::normalized`] form, must equal the plan's (a 64-bit
    /// hash can collide or be edited), and the results version must be
    /// [`RESULTS_VERSION`].
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Journal`] on a mismatch.
    pub fn check(&self, plan: &ScenarioPlan) -> Result<(), ScenarioError> {
        if self.results_version != RESULTS_VERSION {
            return Err(ScenarioError::Journal(format!(
                "journal `{}` holds results version {}, but this binary produces version \
                 {RESULTS_VERSION}: its results are stale",
                self.scenario, self.results_version
            )));
        }
        if self.spec_hash == plan.spec_hash() && self.spec.normalized() == plan.spec().normalized()
        {
            return Ok(());
        }
        Err(ScenarioError::Journal(format!(
            "journal `{}` was written for a different spec: its embedded spec or stored hash ({}) \
             differs from this one's ({})",
            self.scenario,
            self.spec_hash,
            plan.spec_hash()
        )))
    }
}

impl Serialize for JournalHeader {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("kind".into(), Value::Str("header".into())),
            ("scenario".into(), self.scenario.to_value()),
            ("spec_hash".into(), Value::Str(self.spec_hash.to_string())),
            ("results_version".into(), self.results_version.to_value()),
            ("spec".into(), self.spec.to_value()),
        ])
    }
}

impl Deserialize for JournalHeader {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let map = value
            .as_map()
            .ok_or_else(|| DeError::expected("map", value))?;
        let kind: String = de_field(map, "kind")?;
        if kind != "header" {
            return Err(DeError::message(format!(
                "expected a journal header line, found kind `{kind}`"
            )));
        }
        let hash: String = de_field(map, "spec_hash")?;
        let spec_hash = hash
            .parse::<u64>()
            .map_err(|_| DeError::message(format!("malformed spec_hash `{hash}`")))?;
        let results_version: Option<u32> = de_field(map, "results_version")?;
        Ok(JournalHeader {
            scenario: de_field(map, "scenario")?,
            spec_hash,
            results_version: results_version.unwrap_or(0),
            spec: de_field(map, "spec")?,
        })
    }
}

/// One cleanly completed sweep cell: its position, condensed row, and
/// every trial record (trajectories stripped, exactly as delivered to
/// non-trajectory observers).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalCell {
    /// Cell position in the sweep (index into `sweep.sizes`).
    pub index: usize,
    /// The cell's network size.
    pub n: usize,
    /// The condensed per-size report row.
    pub row: ScenarioRow,
    /// Every trial record of the cell, in trial order.
    pub records: Vec<TrialRecord>,
}

impl Serialize for JournalCell {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("kind".into(), Value::Str("cell".into())),
            ("index".into(), self.index.to_value()),
            ("n".into(), self.n.to_value()),
            ("row".into(), self.row.to_value()),
            ("records".into(), self.records.to_value()),
        ])
    }
}

impl Deserialize for JournalCell {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let map = value
            .as_map()
            .ok_or_else(|| DeError::expected("map", value))?;
        let (index, n, row) = envelope(map)?;
        let records: Vec<TrialRecord> = de_field(map, "records")?;
        counted(&row, records.len())?;
        Ok(JournalCell {
            index,
            n,
            row,
            records,
        })
    }
}

/// A cell line's envelope, `(index, n, row)`, once its kind is checked.
fn envelope(map: &[(String, Value)]) -> Result<(usize, usize, ScenarioRow), DeError> {
    let kind: String = de_field(map, "kind")?;
    if kind != "cell" {
        return Err(DeError::message(format!(
            "expected a journal cell line, found kind `{kind}`"
        )));
    }
    Ok((
        de_field(map, "index")?,
        de_field(map, "n")?,
        de_field(map, "row")?,
    ))
}

/// Checks that a cell holds one record per trial of its row: a journaled
/// cell had no failed trial, so any other count is a damaged line.
fn counted(row: &ScenarioRow, records: usize) -> Result<(), DeError> {
    if records == row.trials {
        return Ok(());
    }
    Err(DeError::message(format!(
        "cell holds {records} records for {} trials",
        row.trials
    )))
}

/// An open journal being written: header first, then one flushed line
/// per completed cell, so the on-disk prefix is valid after any crash.
#[derive(Debug)]
pub struct JournalWriter {
    out: BufWriter<File>,
}

impl JournalWriter {
    /// Creates (truncates) the journal at `path` and writes the header.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Journal`] on I/O failure.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Self, ScenarioError> {
        let file = File::create(path)
            .map_err(|e| ScenarioError::Journal(format!("{}: {e}", path.display())))?;
        let mut out = BufWriter::new(file);
        write_line(&mut out, &serde_json::to_string(header))?;
        Ok(JournalWriter { out })
    }

    /// Appends one completed cell and flushes it to disk.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Journal`] on I/O failure.
    pub fn append_cell(&mut self, cell: &JournalCell) -> Result<(), ScenarioError> {
        write_line(&mut self.out, &serde_json::to_string(cell))
    }
}

fn write_line(out: &mut BufWriter<File>, line: &str) -> Result<(), ScenarioError> {
    writeln!(out, "{line}")
        .and_then(|()| out.flush())
        .map_err(|e| ScenarioError::Journal(format!("journal write failed: {e}")))
}

/// A loaded journal: the header plus every intact cell line.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// The spec-binding header.
    pub header: JournalHeader,
    /// Every cell that was fully written, in file order.
    pub cells: Vec<JournalCell>,
}

impl Journal {
    /// Loads a journal, tolerating a torn tail: the header must parse,
    /// and cells are read until the first line that does not (a process
    /// killed mid-append leaves exactly such a partial last line, which
    /// a resume then simply re-runs).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Journal`] when the file is unreadable, empty, or
    /// its first line is not a valid header.
    pub fn load(path: &Path) -> Result<Self, ScenarioError> {
        let text = read_text(path)?;
        let (header, cells) = read_lines(path, &text, |line| serde_json::from_str(line).ok())?;
        Ok(Journal { header, cells })
    }
}

/// A journal read for serving its records as text: the header, and each
/// intact cell's envelope with the byte spans of its records (see the
/// module docs for what this reader checks).
#[derive(Debug, Clone)]
pub struct JournalText {
    /// The spec-binding header.
    pub header: JournalHeader,
    cells: Vec<CellText>,
    text: String,
}

/// One intact cell of a [`JournalText`].
#[derive(Debug, Clone)]
pub struct CellText {
    /// Cell position in the sweep (index into `sweep.sizes`).
    pub index: usize,
    /// The cell's network size.
    pub n: usize,
    /// The condensed per-size report row.
    pub row: ScenarioRow,
    records: Vec<Range<usize>>,
}

impl JournalText {
    /// Reads a journal as [`Journal::load`] does, building each cell's
    /// envelope but only validating its records.
    ///
    /// # Errors
    ///
    /// As [`Journal::load`].
    pub fn read(path: &Path) -> Result<Self, ScenarioError> {
        JournalText::from_text(path, read_text(path)?)
    }

    /// Reads a journal from `text`, the contents of the file at `path`, as
    /// [`JournalText::read`] reads that file: the result is a function of
    /// `text` alone (`path` only names the file in errors).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Journal`] when `text` is empty or its first line is
    /// not a valid header.
    pub fn from_text(path: &Path, text: String) -> Result<Self, ScenarioError> {
        let base = text.as_ptr() as usize;
        let (header, cells) = read_lines(path, &text, |line| {
            CellText::parse(line, line.as_ptr() as usize - base)
        })?;
        Ok(JournalText {
            header,
            cells,
            text,
        })
    }

    /// The journal's text, exactly as read.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The records of `cell`, a cell of this journal, in trial order: each
    /// is the line [`gossip_sim::JsonlSink`] writes for the record, without
    /// its newline.
    pub fn records<'a>(&'a self, cell: &'a CellText) -> impl Iterator<Item = &'a str> + 'a {
        cell.records.iter().map(|span| &self.text[span.clone()])
    }

    /// The cells of `plan`'s sweep in sweep order, or `None` unless the
    /// journal holds every one of them. As in a resumed sweep, the last
    /// line of an index is the one that counts.
    pub fn sweep(&self, plan: &ScenarioPlan) -> Option<Vec<&CellText>> {
        plan.sizes()
            .iter()
            .enumerate()
            .map(|(index, &n)| {
                self.cells
                    .iter()
                    .rev()
                    .find(|cell| cell.index == index)
                    .filter(|cell| cell.n == n)
            })
            .collect()
    }
}

impl CellText {
    /// Reads one cell line, whose first byte is at `offset` in the journal
    /// text; `None` when the line fails the reader's checks.
    fn parse(line: &str, offset: usize) -> Option<CellText> {
        let object = serde_json::parse_object_spans(line, "records").ok()?;
        let (index, n, row) = envelope(&object.members).ok()?;
        counted(&row, object.spans.len()).ok()?;
        let records = object
            .spans
            .into_iter()
            .map(|span| span.start + offset..span.end + offset)
            .collect();
        Some(CellText {
            index,
            n,
            row,
            records,
        })
    }
}

fn read_text(path: &Path) -> Result<String, ScenarioError> {
    std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::Journal(format!("{}: {e}", path.display())))
}

/// Splits a journal's `text` into its header and cells, tolerating a torn
/// tail: the header must parse, and cells are read until the first line
/// that `cell` rejects (a process killed mid-append leaves exactly such a
/// partial last line; everything after it is suspect).
fn read_lines<C>(
    path: &Path,
    text: &str,
    cell: impl FnMut(&str) -> Option<C>,
) -> Result<(JournalHeader, Vec<C>), ScenarioError> {
    let mut lines = text.lines();
    let first = lines
        .next()
        .filter(|l| !l.trim().is_empty())
        .ok_or_else(|| ScenarioError::Journal(format!("{}: empty journal", path.display())))?;
    let header: JournalHeader = serde_json::from_str(first)
        .map_err(|e| ScenarioError::Journal(format!("{}: bad header: {e}", path.display())))?;
    let cells = lines
        .filter(|line| !line.trim().is_empty())
        .map_while(cell)
        .collect();
    Ok((header, cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{NetSpec, ScenarioSpec, SweepPlan};
    use gossip_sim::{JsonlSink, TrialObserver};

    fn checked_in(file: &str) -> ScenarioSpec {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../scenarios")
            .join(file);
        ScenarioSpec::from_path(&path).unwrap()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gossip-journal-test-{}-{name}", std::process::id()));
        p
    }

    fn record(n: usize, trial: usize) -> TrialRecord {
        TrialRecord {
            trial,
            seed: 40 + trial as u64,
            n,
            spread_time: Some(1.5 + trial as f64),
            windows: 3,
            events: 17,
            informed: n,
            outcome: gossip_sim::TrialOutcome::Spread,
            trajectory: None,
        }
    }

    fn row(n: usize) -> ScenarioRow {
        ScenarioRow {
            n,
            trials: 2,
            completed: 2,
            mean: 2.0,
            std_dev: 0.5,
            median: Some(2.0),
            q95: Some(2.4),
            max: Some(2.5),
        }
    }

    #[test]
    fn spec_hash_is_stable_and_content_sensitive() {
        let spec = ScenarioSpec::template();
        assert_eq!(spec_hash(&spec), spec_hash(&spec.clone()));
        let mut other = spec.clone();
        other.sweep.seed = Some(43);
        assert_ne!(spec_hash(&spec), spec_hash(&other));
        let mut other = spec.clone();
        other.sweep.sizes.push(999);
        assert_ne!(spec_hash(&spec), spec_hash(&other));
    }

    #[test]
    fn spec_hash_ignores_presentation_only_fields() {
        let spec = ScenarioSpec::template();
        let base = spec_hash(&spec);

        let mut p = spec.clone();
        p.description = Some("re-described, same experiment".into());
        assert_eq!(spec_hash(&p), base, "description is presentation-only");

        let mut p = spec.clone();
        p.sweep.threads = Some(8);
        assert_eq!(spec_hash(&p), base, "thread count is bit-invisible");

        // Spelling defaults out explicitly is the same experiment.
        let mut p = spec.clone();
        p.sweep.trials = Some(p.sweep.trials_or_default());
        p.sweep.seed = Some(p.sweep.seed_or_default());
        p.sweep.max_time = Some(p.sweep.max_time_or_default());
        assert_eq!(
            spec_hash(&p),
            base,
            "explicit defaults hash like omitted ones"
        );
    }

    #[test]
    fn spec_hash_is_format_independent() {
        let spec = ScenarioSpec::template();
        let from_toml = ScenarioSpec::from_toml_str(&spec.to_toml_string()).unwrap();
        let from_json = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(
            spec_hash(&from_toml),
            spec_hash(&from_json),
            "the same spec loaded from TOML and JSON must share one content address"
        );
        assert_eq!(spec_hash(&from_toml), spec_hash(&spec));
    }

    #[test]
    fn journal_round_trips_and_tolerates_torn_tail() {
        let spec = ScenarioSpec::template();
        let header = JournalHeader {
            scenario: spec.name.clone(),
            spec_hash: spec_hash(&spec),
            results_version: RESULTS_VERSION,
            spec: spec.clone(),
        };
        let path = temp_path("round-trip");
        let mut w = JournalWriter::create(&path, &header).unwrap();
        let cells = vec![
            JournalCell {
                index: 0,
                n: 64,
                row: row(64),
                records: vec![record(64, 0), record(64, 1)],
            },
            JournalCell {
                index: 1,
                n: 128,
                row: row(128),
                records: vec![record(128, 0), record(128, 1)],
            },
        ];
        for c in &cells {
            w.append_cell(c).unwrap();
        }
        drop(w);
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.header, header);
        assert_eq!(loaded.cells, cells);
        // The embedded spec survives the trip byte-for-byte in hash terms.
        assert_eq!(spec_hash(&loaded.header.spec), header.spec_hash);

        // Tear the last line mid-record, as a dying process would.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - 25;
        std::fs::write(&path, &text[..cut]).unwrap();
        let torn = Journal::load(&path).unwrap();
        assert_eq!(torn.header, header);
        assert_eq!(torn.cells, cells[..1], "only the intact cell survives");
        std::fs::remove_file(&path).ok();
    }

    /// Two small multi-cell sweeps: one on `K_n`, one on a cycle whose
    /// cutoff leaves some trials unspread, with multi-byte text in the
    /// header so that some prefixes cut a character.
    fn multi_cell_specs() -> [ScenarioSpec; 2] {
        let spec = |body: &str| ScenarioSpec::from_toml_str(body).unwrap();
        [
            spec(
                r#"
name = "readers-complete"
description = "ρ-diligent Φ·ρ"
[family]
kind = "complete"
[protocol]
kind = "async"
[sweep]
sizes = [8, 12, 16]
trials = 3
seed = 7
"#,
            ),
            spec(
                r#"
name = "readers-cycle-ρ"
[family]
kind = "cycle"
[protocol]
kind = "async"
[sweep]
sizes = [10, 20]
trials = 4
seed = 3
max_time = 4.0
"#,
            ),
        ]
    }

    /// The journal `SweepPlan` writes for `spec`, through a file named
    /// after `test`.
    fn written_journal(test: &str, spec: &ScenarioSpec) -> String {
        let path = temp_path(&format!("{test}-{}", spec.name));
        SweepPlan::new(spec)
            .unwrap()
            .journal_to(&path)
            .run()
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        text
    }

    #[test]
    fn readers_agree_on_every_prefix_of_a_journal() {
        for spec in multi_cell_specs() {
            let plan = ScenarioPlan::new(spec.clone()).unwrap();
            let text = written_journal("prefixes", &spec);
            assert!(text.lines().count() > 2, "{}", spec.name);
            let path = temp_path(&format!("prefix-{}", spec.name));
            let mut complete = 0;
            for len in 0..=text.len() {
                std::fs::write(&path, &text.as_bytes()[..len]).unwrap();
                let (loaded, read) = match (Journal::load(&path), JournalText::read(&path)) {
                    (Ok(loaded), Ok(read)) => (loaded, read),
                    (Err(_), Err(_)) => continue,
                    (loaded, read) => panic!(
                        "{}, prefix {len}: load {:?}, read {:?}",
                        spec.name,
                        loaded.map(|j| j.cells.len()),
                        read.map(|r| r.cells.len())
                    ),
                };
                assert_eq!(read.header, loaded.header);
                assert_eq!(
                    read.cells.len(),
                    loaded.cells.len(),
                    "{}, prefix {len}",
                    spec.name
                );
                for (cell, built) in read.cells.iter().zip(&loaded.cells) {
                    assert_eq!(
                        (cell.index, cell.n, &cell.row),
                        (built.index, built.n, &built.row)
                    );
                    let mut sink = JsonlSink::new(Vec::new());
                    for record in &built.records {
                        sink.on_trial(record).unwrap();
                    }
                    let lines: String = read.records(cell).map(|l| format!("{l}\n")).collect();
                    assert_eq!(lines.into_bytes(), sink.into_inner().unwrap());
                }
                complete += usize::from(read.sweep(&plan).is_some());
            }
            // The whole file, with and without its final newline.
            assert_eq!(complete, 2, "{}", spec.name);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn readers_stop_at_a_broken_record_or_a_wrong_count() {
        let [spec, _] = multi_cell_specs();
        let plan = ScenarioPlan::new(spec.clone()).unwrap();
        let text = written_journal("damaged", &spec);
        let path = temp_path("damaged-cell");
        let lines: Vec<&str> = text.lines().collect();
        // Cell 1 (line 2) damaged three ways: one record's syntax broken,
        // one record dropped, one record duplicated.
        let cell = lines[2];
        let records = cell.find("\"records\":[").unwrap() + "\"records\":[".len();
        let second = records + cell[records..].find("},{").unwrap() + 2;
        let first = &cell[records..second - 1];
        for damaged in [
            cell.replacen("\"outcome\":", "\"outcome\" ", 1),
            format!("{}{}", &cell[..records], &cell[second..]),
            format!("{}{first},{}", &cell[..records], &cell[records..]),
        ] {
            let mut edited = lines.clone();
            edited[2] = &damaged;
            std::fs::write(&path, edited.join("\n") + "\n").unwrap();
            let read = JournalText::read(&path).unwrap();
            assert_eq!(read.cells.len(), 1, "{damaged}");
            assert!(read.sweep(&plan).is_none());
            assert_eq!(Journal::load(&path).unwrap().cells.len(), 1, "{damaged}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_missing_or_bad_headers() {
        let path = temp_path("bad-header");
        std::fs::write(&path, "").unwrap();
        assert!(matches!(
            Journal::load(&path),
            Err(ScenarioError::Journal(m)) if m.contains("empty")
        ));
        std::fs::write(&path, "{\"kind\":\"cell\"}\n").unwrap();
        assert!(matches!(
            Journal::load(&path),
            Err(ScenarioError::Journal(m)) if m.contains("bad header")
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn headers_that_embed_a_removed_sweep_key_still_resume() {
        // Older binaries embedded `sweep.cell_parallel` in the header's
        // spec (null, or the value a spec set); the header reader skips
        // it and the stored hash still matches.
        let spec = ScenarioSpec::template();
        let plan = ScenarioPlan::new(spec.clone()).unwrap();
        let header = JournalHeader {
            scenario: spec.name.clone(),
            spec_hash: spec_hash(&spec),
            results_version: RESULTS_VERSION,
            spec,
        };
        let path = temp_path("removed-key-header");
        JournalWriter::create(&path, &header).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        for value in ["null", "true"] {
            let old = format!("\"threads\":null,\"cell_parallel\":{value}");
            let older = text.replacen("\"threads\":null", &old, 1);
            assert!(older.contains(&old));
            std::fs::write(&path, older).unwrap();
            let loaded = Journal::load(&path).unwrap();
            assert_eq!(loaded.header, header);
            loaded.header.check(&plan).unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analytic_spec_hashes_are_pinned() {
        // The store keys of existing `gossip serve` stores: an analytic
        // hash that moves orphans every entry written under it.
        assert_eq!(spec_hash(&ScenarioSpec::template()), 4115039114819300315);
        for (file, hash) in [
            ("diligent.toml", 906812990495882313),
            ("edge-markovian.json", 11819440684385838336),
            ("faulty-gnp.toml", 13110140451826270951),
            ("serve-cache.toml", 3977601655998185019),
        ] {
            assert_eq!(spec_hash(&checked_in(file)), hash, "{file}");
        }
        let live = checked_in("net-smoke.toml");
        // Live keys address results that have not moved (see
        // `spec_hash`).
        assert_eq!(spec_hash(&live), 19854003741877865, "net-smoke.toml");
        let twin = ScenarioSpec {
            net: None,
            ..live.clone()
        };
        assert_eq!(
            spec_hash(&twin),
            16304697338070029184,
            "net-smoke.toml without [net]"
        );
        assert_ne!(
            spec_hash(&live),
            spec_hash(&twin),
            "a live spec is not its analytic twin"
        );
    }

    #[test]
    fn live_spec_hash_keeps_only_semantic_net_fields() {
        let spec = checked_in("net-smoke.toml");
        let base = spec_hash(&spec);
        let with = |edit: fn(&mut NetSpec)| {
            let mut p = spec.clone();
            edit(p.net.as_mut().unwrap());
            spec_hash(&p)
        };
        // Bit-invisible: results are identical across these.
        assert_eq!(with(|n| n.groups = Some(5)), base, "groups");
        assert_eq!(with(|n| n.delivery = Some("udp".into())), base, "delivery");
        assert_eq!(
            with(|n| n.exchange_timeout = Some(7.0)),
            base,
            "exchange_timeout"
        );
        assert_eq!(
            with(|n| n.exchange_retries = Some(0)),
            base,
            "exchange_retries"
        );
        assert_eq!(
            with(|n| n.tick = Some(1e-3)),
            base,
            "the default tick, spelled out"
        );
        let max_time = spec.sweep.max_time_or_default();
        let mut p = spec.clone();
        p.net.as_mut().unwrap().horizon = Some(max_time);
        assert_eq!(spec_hash(&p), base, "horizon = max_time is the default");
        // Semantic: the latency and the cutoff change results.
        assert_ne!(with(|n| n.tick = Some(2e-3)), base, "tick");
        assert_ne!(with(|n| n.horizon = Some(50.0)), base, "horizon");
    }
}
