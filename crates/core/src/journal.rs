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
///   and live results do not.
pub const RESULTS_VERSION: u32 = 4;

/// FNV-1a 64-bit hash of the spec's canonical (pretty JSON) rendering,
/// taken over its normalized form ([`ScenarioSpec::normalized`]).
///
/// Stable across processes and platforms; used to bind a journal file to
/// the experiment that produced it. Two specs hash equal exactly when
/// they describe the same experiment: presentation-only fields
/// (description, `sweep.threads` / `workspace` / `cell_parallel`, and
/// `[net]`'s transport knobs) and defaults written out explicitly do not
/// change the hash, and a spec loaded from TOML hashes identically to
/// the same spec loaded from JSON. A live spec never hashes like its
/// analytic twin. The `gossip serve` result store keys on this hash, so
/// equivalent requests share one cache entry.
pub fn spec_hash(spec: &ScenarioSpec) -> u64 {
    let json = spec.normalized().to_json_string();
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
        let kind: String = de_field(map, "kind")?;
        if kind != "cell" {
            return Err(DeError::message(format!(
                "expected a journal cell line, found kind `{kind}`"
            )));
        }
        Ok(JournalCell {
            index: de_field(map, "index")?,
            n: de_field(map, "n")?,
            row: de_field(map, "row")?,
            records: de_field(map, "records")?,
        })
    }
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
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::Journal(format!("{}: {e}", path.display())))?;
        let mut lines = text.lines();
        let first = lines
            .next()
            .filter(|l| !l.trim().is_empty())
            .ok_or_else(|| ScenarioError::Journal(format!("{}: empty journal", path.display())))?;
        let header: JournalHeader = serde_json::from_str(first)
            .map_err(|e| ScenarioError::Journal(format!("{}: bad header: {e}", path.display())))?;
        let mut cells = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<JournalCell>(line) {
                Ok(cell) => cells.push(cell),
                Err(_) => break, // torn tail: everything after is suspect
            }
        }
        Ok(Journal { header, cells })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{NetSpec, ScenarioSpec};

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
        let mut other = spec.clone();
        other.sweep.vectorized = Some(false); // changes RNG draw order
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

        let mut p = spec.clone();
        p.sweep.workspace = Some(false);
        assert_eq!(spec_hash(&p), base, "workspace reuse is bit-invisible");

        let mut p = spec.clone();
        p.sweep.cell_parallel = Some(true);
        assert_eq!(spec_hash(&p), base, "cell scheduling is bit-invisible");

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
                records: vec![record(128, 0)],
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
    fn analytic_spec_hashes_are_pinned() {
        // The store keys of existing `gossip serve` stores: an analytic
        // hash that moves orphans every entry written under it.
        assert_eq!(spec_hash(&ScenarioSpec::template()), 4332350388950356320);
        for (file, hash) in [
            ("diligent.toml", 12771513118208059142),
            ("edge-markovian.json", 3828236253256490543),
            ("faulty-gnp.toml", 4074803910281251186),
            ("serve-cache.toml", 17930432463041163200),
        ] {
            assert_eq!(spec_hash(&checked_in(file)), hash, "{file}");
        }
        let live = checked_in("net-smoke.toml");
        let twin = ScenarioSpec {
            net: None,
            ..live.clone()
        };
        assert_eq!(
            spec_hash(&twin),
            8313492906940681391,
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
