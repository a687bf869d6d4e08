//! In-memory span recorder.
//!
//! A span is one timed call across a layer boundary: its name, start and
//! end (nanoseconds since the recorder started), the span that was open on
//! the same thread when it began (its parent), the thread, the workload
//! sequence it belongs to, and a group identifier shared by every span of
//! one trial or one request. Spans stay in memory until the run ends and
//! are then written out as JSON lines.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub sequence: &'static str,
    pub group: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static SEQUENCE: Mutex<&'static str> = Mutex::new("");

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static GROUP: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Starts the recorder's clock; spans are timed relative to this call.
pub fn start() {
    now_ns();
}

/// Names the workload sequence that the following spans belong to.
pub fn set_sequence(name: &'static str) {
    *SEQUENCE.lock().expect("sequence name poisoned") = name;
}

/// Sets the trial or request identifier for spans opened on this thread.
pub fn set_group(group: u64) {
    GROUP.with(|g| g.set(group));
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    let group = GROUP.with(Cell::get);
    let start_ns = now_ns();
    let result = f();
    let end_ns = now_ns();
    OPEN.with(|open| open.borrow_mut().pop());
    let span = Span {
        id,
        parent,
        name,
        sequence: *SEQUENCE.lock().expect("sequence name poisoned"),
        group,
        thread: THREAD.with(|t| *t),
        start_ns,
        end_ns,
    };
    SPANS.lock().expect("span log poisoned").push(span);
    result
}

/// Every span recorded so far, in completion order.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span log poisoned").clone()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

impl NameStats {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }

    /// Median duration in seconds (0 when the name never occurred).
    pub fn median_s(&self) -> f64 {
        quantile_s(&self.durations_ns, 0.5)
    }

    pub fn quantile_s(&self, q: f64) -> f64 {
        quantile_s(&self.durations_ns, q)
    }
}

fn quantile_s(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    // Nearest rank: the smallest value with at least a share q at or below it.
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64 * 1e-9
}

/// Summary of one workload sequence: per-name statistics with self times
/// (a span's duration minus what its children cover on the same thread).
#[derive(Debug, Default)]
pub struct Summary {
    pub by_name: BTreeMap<&'static str, NameStats>,
}

impl Summary {
    pub fn of(spans: &[Span], sequence: &str) -> Summary {
        let spans: Vec<&Span> = spans.iter().filter(|s| s.sequence == sequence).collect();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        let thread_of: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.thread)).collect();
        for s in &spans {
            if let Some(p) = s.parent {
                if thread_of.get(&p) == Some(&s.thread) {
                    *child_ns.entry(p).or_default() += s.duration_ns();
                }
            }
        }
        let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for s in &spans {
            let st = by_name.entry(s.name).or_default();
            let d = s.duration_ns();
            st.count += 1;
            st.total_ns += d;
            st.self_ns += d.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            st.durations_ns.push(d);
        }
        Summary { by_name }
    }

    pub fn get(&self, name: &str) -> NameStats {
        self.by_name.get(name).cloned().unwrap_or_default()
    }
}

/// Writes every span as one JSON line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"sequence\":\"{}\",\"group\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.sequence, s.group, s.thread, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
