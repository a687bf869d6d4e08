//! # gossip-serve — simulation as a service
//!
//! A long-lived daemon for the dynamic-rumor workspace: clients submit
//! [`ScenarioSpec`]s as line-delimited JSON over TCP and receive the
//! sweep's trial stream back, served from a **content-addressed result
//! store** whenever possible. Every result in this workspace is a pure
//! function of `(spec, seed)` at one
//! [`gossip_core::journal::RESULTS_VERSION`] — an invariant the
//! simulation crates test-enforce bit-for-bit — which makes sweeps
//! perfectly cacheable:
//! a repeat submission replays the stored journal and executes **zero
//! trials**, byte-identical to a fresh offline `gossip scenario run`
//! (test-enforced).
//!
//! ## Wire protocol
//!
//! One request per connection:
//!
//! 1. the client sends a single line: the [`ScenarioSpec`] as JSON
//!    (compact or pretty-on-one-line — any rendering of the same
//!    experiment hits the same cache entry, because the store keys on
//!    the *normalized* [`spec_hash`]);
//! 2. the server answers with a **header line**
//!    `{"kind":"header","scenario":…,"spec_hash":"…","cache":…}` whose
//!    `cache` field is one of `"hit"`, `"resume"`, `"miss"`, or
//!    `"join"`;
//! 3. then the **body**: one line per [`gossip_sim::TrialRecord`] in
//!    trial order — byte-identical to what
//!    [`gossip_sim::JsonlSink`] writes offline — terminated by a
//!    `{"kind":"report",…}` footer carrying the full
//!    [`ScenarioReport`] (or a `{"kind":"error",…}` line on failure).
//!
//! The body is identical across every `cache` state; only the header
//! differs. The server closes the connection after the footer.
//!
//! Connections are defended by a [`ServeConfig`]: the request line is
//! read under a timeout and a byte cap, and a silent, trickling, or
//! overlong request gets an in-band `{"kind":"error",…}` line instead
//! of pinning a thread. A [`ShutdownHandle`] stops the daemon
//! gracefully — no new connections, in-flight sweeps run to completion
//! and their journals flush, then [`Server::run`] returns (the CLI
//! wires this to SIGTERM, so a redeploy mid-sweep leaves a resumable
//! journal, never a torn one).
//!
//! ## Store layout and cache semantics
//!
//! The store directory holds one crash-safe journal
//! (`<spec_hash>.journal`, see [`gossip_core::journal`]) per
//! experiment, written through the existing [`gossip_core::scenario::SweepPlan`] journaling
//! path:
//!
//! * **hit** — the journal covers every sweep cell: the journal the
//!   classification loaded is replayed straight onto the socket, zero
//!   trials executed;
//! * **resume** — a partial journal (e.g. the daemon died mid-sweep)
//!   is resumed in place via
//!   [`gossip_core::scenario::SweepPlan::resume_journal`]; only the
//!   missing cells run;
//! * **miss** — no entry, a foreign entry (its header's hash or
//!   embedded spec differs from the request's), a stale entry (written
//!   under another results version; see
//!   [`gossip_core::journal::JournalHeader::check`]), or a corrupted
//!   entry that fails to load: the sweep runs in full and the store
//!   entry is rewritten — torn garbage is never served;
//! * **join** — an identical request is already executing: the new
//!   client attaches to the in-flight execution's record stream
//!   instead of triggering a second run. Concurrent identical
//!   requests therefore perform exactly one execution (test-enforced).
//!
//! A spec whose `[net]` table selects the live runtime runs its cells
//! through a [`NetSweep`] and is cached like any other; its store key
//! keeps the table, so it never shares an entry with its analytic twin.
//!
//! ## Warm-state model
//!
//! The daemon keeps two caches alive across requests, both
//! bit-invisible to results (test-enforced in `gossip-core`):
//!
//! * a [`TopologyCache`] of realized sampled topologies keyed by
//!   `(family, n)` — the family spec embeds the build seed — so repeat
//!   G(n,p) sweeps skip CSR realization entirely;
//! * a [`WorkspacePool`] of per-worker scratch arenas
//!   ([`gossip_sim::SimWorkspace`]), so trial buffers stay grown
//!   across requests instead of re-allocating from cold.
//!
//! [`spec_hash`]: gossip_core::journal::spec_hash

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use gossip_core::journal::Journal;
use gossip_core::scenario::{
    ScenarioError, ScenarioPlan, ScenarioReport, ScenarioSpec, TopologyCache,
};
use gossip_net::NetSweep;
use gossip_sim::{JsonlSink, WorkspacePool};
use serde::{Serialize, Value};

/// Connection-handling limits protecting the daemon from misbehaving
/// clients.
///
/// Requests are one line of JSON, so a well-behaved client transmits
/// its whole request within milliseconds. A client that connects and
/// then stays silent, trickles bytes, or streams an unbounded "line"
/// would otherwise pin a connection thread (and its request buffer)
/// forever; these limits convert both failure modes into prompt,
/// in-band `{"kind":"error",…}` responses.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// How long a connection may take to deliver its request line
    /// before the daemon gives up on it (`None` waits forever).
    pub read_timeout: Option<Duration>,
    /// Maximum accepted request-line length in bytes; longer lines are
    /// rejected without buffering the excess.
    pub max_request_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            read_timeout: Some(Duration::from_secs(10)),
            max_request_bytes: 64 * 1024,
        }
    }
}

/// How a request was served, reported in the response header's `cache`
/// field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Replayed entirely from a complete store entry; zero trials ran.
    Hit,
    /// A partial store entry was resumed; only missing cells ran.
    Resume,
    /// No usable store entry; the sweep ran in full.
    Miss,
    /// Attached to an identical request already in flight.
    Join,
}

impl CacheStatus {
    /// The wire spelling used in the header line.
    pub fn name(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Resume => "resume",
            CacheStatus::Miss => "miss",
            CacheStatus::Join => "join",
        }
    }
}

/// The content-addressed result store: one journal file per experiment,
/// named by the normalized [`gossip_core::journal::spec_hash`] of its
/// spec.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
}

/// What [`ResultStore::classify`] found for a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreState {
    /// A complete, matching entry covering every sweep cell.
    Complete,
    /// A matching entry missing some cells (crash mid-sweep).
    Partial,
    /// No entry, a hash, spec or results-version mismatch, or an entry
    /// that fails to load.
    Absent,
}

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultStore { dir })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The journal path content-addressing `hash`.
    pub fn entry_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash}.journal"))
    }

    /// Classifies the store entry for `plan`: complete (replayable with
    /// zero trials), partial (resumable), or absent. A corrupted, torn,
    /// foreign or stale entry — unreadable, bad header, a stored hash or
    /// embedded normalized spec that differs from `plan`'s, or another
    /// [`gossip_core::journal::RESULTS_VERSION`]
    /// ([`gossip_core::journal::JournalHeader::check`]) — classifies as
    /// absent, so the daemon falls back to re-execution instead of
    /// serving garbage or results this binary would not produce. The daemon classifies through the same load and
    /// replays the journal it loaded, so a hit parses its entry once.
    pub fn classify(&self, plan: &ScenarioPlan) -> StoreState {
        match self.load(plan) {
            Some(journal) if covers(plan, &journal) => StoreState::Complete,
            Some(_) => StoreState::Partial,
            None => StoreState::Absent,
        }
    }

    /// Loads the entry for `plan`, or `None` where
    /// [`ResultStore::classify`] finds it absent.
    fn load(&self, plan: &ScenarioPlan) -> Option<Journal> {
        let journal = Journal::load(&self.entry_path(plan.spec_hash())).ok()?;
        journal.header.check(plan).is_ok().then_some(journal)
    }
}

/// Whether `journal` holds every sweep cell of `plan`.
fn covers(plan: &ScenarioPlan, journal: &Journal) -> bool {
    let by_index: HashMap<usize, usize> = journal.cells.iter().map(|c| (c.index, c.n)).collect();
    plan.sizes()
        .iter()
        .enumerate()
        .all(|(i, &n)| by_index.get(&i) == Some(&n))
}

/// Append-only response body shared between the executing leader and
/// every joined follower.
#[derive(Debug, Default)]
struct Progress {
    bytes: Vec<u8>,
    done: bool,
}

#[derive(Debug, Default)]
struct InFlight {
    progress: Mutex<Progress>,
    cond: Condvar,
}

impl InFlight {
    fn append(&self, chunk: &[u8]) {
        let mut p = self.progress.lock().expect("in-flight buffer poisoned");
        p.bytes.extend_from_slice(chunk);
        self.cond.notify_all();
    }

    fn finish(&self) {
        let mut p = self.progress.lock().expect("in-flight buffer poisoned");
        p.done = true;
        self.cond.notify_all();
    }

    /// Streams the body to `out` as it grows, returning once the body
    /// is complete and fully written.
    fn stream_to(&self, out: &mut impl Write) -> io::Result<()> {
        let mut sent = 0usize;
        loop {
            let (chunk, done) = {
                let mut p = self.progress.lock().expect("in-flight buffer poisoned");
                while p.bytes.len() == sent && !p.done {
                    p = self.cond.wait(p).expect("in-flight buffer poisoned");
                }
                (p.bytes[sent..].to_vec(), p.done)
            };
            sent += chunk.len();
            out.write_all(&chunk)?;
            if done {
                out.flush()?;
                return Ok(());
            }
        }
    }
}

/// Lets the leader's [`JsonlSink`] write into the in-flight buffer, so
/// every cache state serializes records with the same code.
impl Write for &InFlight {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.append(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn kind_line(kind: &str, fields: Vec<(String, Value)>) -> String {
    let mut map = vec![("kind".to_string(), Value::Str(kind.to_string()))];
    map.extend(fields);
    let mut line = serde_json::to_string(&Value::Map(map));
    line.push('\n');
    line
}

/// The response header line for a request served with `status`.
pub fn header_line(scenario: &str, hash: u64, status: CacheStatus) -> String {
    kind_line(
        "header",
        vec![
            ("scenario".to_string(), Value::Str(scenario.to_string())),
            ("spec_hash".to_string(), Value::Str(hash.to_string())),
            ("cache".to_string(), Value::Str(status.name().to_string())),
        ],
    )
}

fn footer_line(report: &ScenarioReport) -> String {
    kind_line("report", vec![("report".to_string(), report.to_value())])
}

fn error_line(message: &str) -> String {
    kind_line(
        "error",
        vec![("message".to_string(), Value::Str(message.to_string()))],
    )
}

/// The body's last line: the report footer, or the error that ended the
/// sweep.
fn last_line(result: Result<ScenarioReport, ScenarioError>) -> String {
    match result {
        Ok(report) => footer_line(&report),
        Err(e) => error_line(&e.to_string()),
    }
}

/// Shared daemon state: the result store, the warm-state caches, the
/// in-flight dedup table, and an execution counter.
#[derive(Debug)]
pub struct ServeState {
    store: ResultStore,
    topologies: Arc<TopologyCache>,
    pool: Arc<WorkspacePool>,
    inflight: Mutex<HashMap<u64, Arc<InFlight>>>,
    executions: AtomicUsize,
}

impl ServeState {
    fn new(store: ResultStore) -> Self {
        ServeState {
            store,
            topologies: Arc::new(TopologyCache::new()),
            pool: Arc::new(WorkspacePool::new()),
            inflight: Mutex::new(HashMap::new()),
            executions: AtomicUsize::new(0),
        }
    }

    /// How many sweep executions (cache misses or resumes) the daemon
    /// has performed; cache hits and joins do not count.
    pub fn executions(&self) -> usize {
        self.executions.load(Ordering::SeqCst)
    }

    /// The warm topology cache shared across requests.
    pub fn topologies(&self) -> &TopologyCache {
        &self.topologies
    }

    /// The warm workspace pool shared across requests.
    pub fn workspace_pool(&self) -> &WorkspacePool {
        &self.pool
    }

    /// The result store.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Serves one parsed request, writing the full response (header,
    /// body, footer) to `out`.
    ///
    /// # Errors
    ///
    /// Only I/O errors writing to `out`; execution failures are
    /// reported in-band as an `{"kind":"error",…}` body line.
    pub fn serve(self: &Arc<Self>, plan: ScenarioPlan, out: &mut impl Write) -> io::Result<()> {
        let hash = plan.spec_hash();
        let scenario = plan.spec().name.clone();
        let path = self.store.entry_path(hash);

        // One lock decides hit/join/lead, so identical concurrent
        // requests dedupe onto exactly one execution.
        let role = {
            let mut inflight = self.inflight.lock().expect("in-flight table poisoned");
            if let Some(entry) = inflight.get(&hash) {
                Role::Join(entry.clone())
            } else {
                match self.store.load(&plan) {
                    Some(journal) if covers(&plan, &journal) => Role::Hit(journal),
                    journal => {
                        let entry = Arc::new(InFlight::default());
                        inflight.insert(hash, entry.clone());
                        Role::Lead(entry, journal)
                    }
                }
            }
        };

        match role {
            Role::Hit(journal) => {
                out.write_all(header_line(&scenario, hash, CacheStatus::Hit).as_bytes())?;
                // Replay the journal classification loaded straight onto
                // the socket: zero trials execute, and the journal-replay
                // invariant makes the body bit-identical to a live run.
                let mut sink = JsonlSink::new(&mut *out);
                let result = plan
                    .execution()
                    .resume_journal(&journal)
                    .run_with(&mut sink);
                sink.into_inner()?;
                out.write_all(last_line(result).as_bytes())?;
                out.flush()
            }
            Role::Join(entry) => {
                out.write_all(header_line(&scenario, hash, CacheStatus::Join).as_bytes())?;
                entry.stream_to(out)
            }
            Role::Lead(entry, partial) => {
                let status = match partial {
                    Some(_) => CacheStatus::Resume,
                    None => CacheStatus::Miss,
                };
                out.write_all(header_line(&scenario, hash, status).as_bytes())?;
                self.executions.fetch_add(1, Ordering::SeqCst);
                let exec_entry = entry.clone();
                let state = self.clone();
                let worker = std::thread::spawn(move || {
                    // The plan validated the spec for the live runtime.
                    let live = plan
                        .is_live()
                        .then(|| NetSweep::new(plan.spec()).expect("validated by the plan"));
                    let mut sweep = plan
                        .execution()
                        .journal_to(&path)
                        .topologies(state.topologies.clone())
                        .workspace_pool(state.pool.clone());
                    if let Some(journal) = &partial {
                        // In-place resume: replay the intact cells,
                        // execute the rest, re-journal the union.
                        sweep = sweep.resume_journal(journal);
                    }
                    if let Some(runner) = &live {
                        sweep = sweep.live(runner);
                    }
                    // Buffered, so followers wake once per 8 KiB chunk
                    // rather than on every record write.
                    let mut sink = JsonlSink::new(BufWriter::new(&*exec_entry));
                    let result = sweep.run_with(&mut sink);
                    // Dropping flushes the last chunk; writes into the
                    // in-flight buffer cannot fail, so no error is lost.
                    drop(sink);
                    exec_entry.append(last_line(result).as_bytes());
                    // Unregister before marking done so late arrivals
                    // re-classify against the now-complete store entry.
                    state
                        .inflight
                        .lock()
                        .expect("in-flight table poisoned")
                        .remove(&hash);
                    exec_entry.finish();
                });
                let streamed = entry.stream_to(out);
                let _ = worker.join();
                streamed
            }
        }
    }
}

enum Role {
    /// Replay this complete entry.
    Hit(Journal),
    Join(Arc<InFlight>),
    /// Execute, resuming this partial entry if there is one.
    Lead(Arc<InFlight>, Option<Journal>),
}

/// Shutdown coordination between the accept loop, the connection
/// threads, and whoever holds a [`ShutdownHandle`].
#[derive(Debug, Default)]
struct Lifecycle {
    stop: AtomicBool,
    active: Mutex<usize>,
    idle: Condvar,
}

impl Lifecycle {
    fn connection_started(&self) {
        *self.active.lock().expect("lifecycle poisoned") += 1;
    }

    fn connection_finished(&self) {
        let mut active = self.active.lock().expect("lifecycle poisoned");
        *active -= 1;
        self.idle.notify_all();
    }

    /// Blocks until every in-flight connection thread has finished —
    /// which, because sweeps journal as they run, also means every
    /// result journal is flushed.
    fn drain(&self) {
        let mut active = self.active.lock().expect("lifecycle poisoned");
        while *active > 0 {
            active = self.idle.wait(active).expect("lifecycle poisoned");
        }
    }
}

/// Asks a running [`Server`] to shut down gracefully: the accept loop
/// stops taking new connections, in-flight requests run to completion
/// (journals flushed, responses finished), then [`Server::run`]
/// returns.
///
/// Cloneable and sendable — the CLI hands one to its signal watcher.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    lifecycle: Arc<Lifecycle>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Triggers the shutdown. Idempotent; returns immediately (the
    /// accept loop observes the flag on its next wakeup — a self-
    /// connection guarantees that wakeup even on an idle listener).
    pub fn shutdown(&self) {
        self.lifecycle.stop.store(true, Ordering::SeqCst);
        // Unblock a listener parked in accept(); the resulting
        // connection is discarded by the stop check.
        drop(TcpStream::connect(self.addr));
    }

    /// Whether a shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.lifecycle.stop.load(Ordering::SeqCst)
    }
}

/// The TCP daemon: accepts connections and serves one request per
/// connection on its own thread, under the read limits of a
/// [`ServeConfig`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    config: ServeConfig,
    lifecycle: Arc<Lifecycle>,
}

impl Server {
    /// Binds `addr` and opens (creating if needed) the result store at
    /// `store_dir`, with the default [`ServeConfig`].
    ///
    /// # Errors
    ///
    /// Bind or store-creation failures.
    pub fn bind(addr: impl ToSocketAddrs, store_dir: impl Into<PathBuf>) -> io::Result<Self> {
        Server::bind_with(addr, store_dir, ServeConfig::default())
    }

    /// As [`Server::bind`], with explicit connection limits.
    ///
    /// # Errors
    ///
    /// Bind or store-creation failures.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        store_dir: impl Into<PathBuf>,
        config: ServeConfig,
    ) -> io::Result<Self> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            state: Arc::new(ServeState::new(ResultStore::open(store_dir)?)),
            config,
            lifecycle: Arc::new(Lifecycle::default()),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared daemon state (store, caches, counters).
    pub fn state(&self) -> Arc<ServeState> {
        self.state.clone()
    }

    /// A handle that can later stop this server gracefully — take it
    /// before calling [`Server::run`] (the CLI wires it to SIGTERM).
    ///
    /// # Errors
    ///
    /// Propagates the socket address query failure.
    pub fn shutdown_handle(&self) -> io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            lifecycle: self.lifecycle.clone(),
            addr: self.local_addr()?,
        })
    }

    /// Accepts and serves connections until a [`ShutdownHandle`] fires
    /// (or forever without one). Per-connection failures are contained;
    /// the accept loop keeps running.
    ///
    /// On shutdown the loop stops accepting, then blocks until every
    /// in-flight request has finished — sweeps run to completion and
    /// their journals are flushed before this returns, so a restart
    /// replays or resumes them instead of re-running from scratch.
    ///
    /// # Errors
    ///
    /// Only fatal accept-loop failures.
    pub fn run(self) -> io::Result<()> {
        for conn in self.listener.incoming() {
            if self.lifecycle.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            let state = self.state.clone();
            let config = self.config.clone();
            let lifecycle = self.lifecycle.clone();
            lifecycle.connection_started();
            std::thread::spawn(move || {
                let _ = handle_connection(&state, stream, &config);
                lifecycle.connection_finished();
            });
        }
        self.lifecycle.drain();
        Ok(())
    }

    /// Spawns the accept loop on a background thread and returns a
    /// handle exposing the bound address, shared state, and graceful
    /// shutdown — the embedded-daemon form used by tests and benches.
    ///
    /// # Errors
    ///
    /// Propagates the socket address query failure.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let state = self.state.clone();
        let shutdown = self.shutdown_handle()?;
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            state,
            shutdown,
            thread,
        })
    }
}

/// A handle to a daemon spawned in-process via [`Server::spawn`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    shutdown: ShutdownHandle,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared daemon state (store, caches, counters).
    pub fn state(&self) -> &ServeState {
        &self.state
    }

    /// The graceful-shutdown handle for this daemon.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Requests a graceful shutdown and blocks until the accept loop
    /// has drained every in-flight request and returned.
    ///
    /// # Errors
    ///
    /// The accept loop's exit status.
    pub fn shutdown(self) -> io::Result<()> {
        self.shutdown.shutdown();
        self.thread
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("serve accept loop panicked")))
    }
}

/// Reads the request line under `config`'s limits. The inner `Err` is a
/// client-facing message (timeout, oversize, empty, non-UTF-8) to be
/// reported in band; the outer `Err` is a transport failure.
fn read_request_line(
    stream: &TcpStream,
    config: &ServeConfig,
) -> io::Result<Result<String, String>> {
    stream.set_read_timeout(config.read_timeout)?;
    let limit = config.max_request_bytes as u64;
    let mut reader = BufReader::new(stream.try_clone()?).take(limit + 1);
    let mut buf = Vec::new();
    match reader.read_until(b'\n', &mut buf) {
        Ok(_) if buf.len() as u64 > limit => {
            // Discard the rest of the overlong line (bounded) before
            // answering: closing a socket with unread bytes queued
            // resets the connection and can destroy the error response
            // before the client reads it.
            drain_line(&mut reader.into_inner());
            Ok(Err(format!(
                "request line exceeds {} bytes",
                config.max_request_bytes
            )))
        }
        Ok(0) => Ok(Err("empty request".to_string())),
        Ok(_) => match String::from_utf8(buf) {
            Ok(line) => Ok(Ok(line)),
            Err(_) => Ok(Err("request line is not UTF-8".to_string())),
        },
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Ok(Err(match config.read_timeout {
                Some(t) => format!("request timed out after {:.1}s", t.as_secs_f64()),
                None => "request timed out".to_string(),
            }))
        }
        Err(e) => Err(e),
    }
}

/// Consumes buffered input up to the end of the current line, a hard
/// 1 MiB cap, EOF, or a read error (the armed read timeout bounds each
/// read) — enough to keep an in-band rejection deliverable without
/// buffering an adversarial request.
fn drain_line(reader: &mut BufReader<TcpStream>) {
    const DRAIN_CAP: usize = 1 << 20;
    let mut drained = 0usize;
    loop {
        let available = match reader.fill_buf() {
            Ok([]) | Err(_) => return,
            Ok(b) => b,
        };
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            reader.consume(pos + 1);
            return;
        }
        let n = available.len();
        reader.consume(n);
        drained += n;
        if drained > DRAIN_CAP {
            return;
        }
    }
}

fn handle_connection(
    state: &Arc<ServeState>,
    stream: TcpStream,
    config: &ServeConfig,
) -> io::Result<()> {
    let line = read_request_line(&stream, config)?;
    let mut out = BufWriter::new(stream);
    let line = match line {
        Ok(line) => line,
        Err(message) => {
            out.write_all(error_line(&message).as_bytes())?;
            return out.flush();
        }
    };
    let spec = match ScenarioSpec::from_json_str(&line) {
        Ok(spec) => spec,
        Err(e) => {
            out.write_all(error_line(&format!("bad request: {e}")).as_bytes())?;
            return out.flush();
        }
    };
    let plan = match ScenarioPlan::new(spec) {
        Ok(plan) => plan,
        Err(e) => {
            out.write_all(error_line(&format!("invalid spec: {e}")).as_bytes())?;
            return out.flush();
        }
    };
    state.serve(plan, &mut out)
}

/// Submits `spec` to a daemon at `addr` and returns the raw response
/// bytes (header line, record lines, footer line).
///
/// # Errors
///
/// Connection or I/O failures; in-band daemon errors are returned as
/// part of the response body.
pub fn submit(addr: impl ToSocketAddrs, spec: &ScenarioSpec) -> io::Result<Vec<u8>> {
    let mut line = serde_json::to_string(spec);
    line.push('\n');
    submit_raw(addr, &line)
}

/// Submits a pre-rendered single-line JSON spec (must end with `\n`)
/// and returns the raw response bytes.
///
/// # Errors
///
/// Connection or I/O failures.
pub fn submit_raw(addr: impl ToSocketAddrs, request_line: &str) -> io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(request_line.as_bytes())?;
    stream.flush()?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    Ok(response)
}

/// Splits a response into its header line (with trailing newline) and
/// the body (record lines + footer) — the body is byte-identical across
/// cache states and across clients of one in-flight execution.
pub fn split_response(response: &[u8]) -> (&[u8], &[u8]) {
    match response.iter().position(|&b| b == b'\n') {
        Some(i) => response.split_at(i + 1),
        None => (response, &[]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::journal::RESULTS_VERSION;
    use gossip_core::scenario::{FaultSpec, SweepPlan};

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gossip-serve-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn small_spec(name: &str) -> ScenarioSpec {
        let toml = format!(
            r#"
name = "{name}"

[family]
kind = "er"
p = 0.3
backend = "sampled"

[protocol]
kind = "async"

[sweep]
sizes = [24, 48]
trials = 6
seed = 11
max_time = 1e4
"#
        );
        ScenarioSpec::from_toml_str(&toml).unwrap()
    }

    /// A small spec whose `[net]` table selects the live runtime.
    fn live_spec(name: &str) -> ScenarioSpec {
        let toml = format!(
            r#"
name = "{name}"

[family]
kind = "complete"

[protocol]
kind = "async"

[sweep]
sizes = [12, 16]
trials = 3
seed = 5
max_time = 1e4

[net]
groups = 2
"#
        );
        ScenarioSpec::from_toml_str(&toml).unwrap()
    }

    /// The last line of a response body.
    fn footer(body: &[u8]) -> String {
        String::from_utf8_lossy(body)
            .lines()
            .last()
            .unwrap()
            .to_string()
    }

    /// The offline reference body: JsonlSink bytes + footer, exactly
    /// what the daemon must produce in every cache state.
    fn offline_body(spec: &ScenarioSpec) -> Vec<u8> {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "gossip-serve-offline-{}-{}.jsonl",
            std::process::id(),
            spec.name
        ));
        let mut sink = JsonlSink::create(&path).unwrap();
        let live = spec.net.as_ref().map(|_| NetSweep::new(spec).unwrap());
        let mut plan = SweepPlan::new(spec).unwrap();
        if let Some(live) = &live {
            plan = plan.live(live);
        }
        let report = plan.run_with(&mut sink).unwrap();
        drop(sink);
        let mut body = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        body.extend_from_slice(footer_line(&report).as_bytes());
        body
    }

    #[test]
    fn repeat_submission_hits_the_store_with_zero_executions() {
        let spec = small_spec("serve-repeat");
        let handle = Server::bind("127.0.0.1:0", temp_dir("repeat"))
            .unwrap()
            .spawn()
            .unwrap();

        let first = submit(handle.addr(), &spec).unwrap();
        assert_eq!(handle.state().executions(), 1);
        let (h1, b1) = split_response(&first);
        assert!(
            std::str::from_utf8(h1)
                .unwrap()
                .contains("\"cache\":\"miss\""),
            "first response should be a miss: {}",
            String::from_utf8_lossy(h1)
        );

        let second = submit(handle.addr(), &spec).unwrap();
        assert_eq!(
            handle.state().executions(),
            1,
            "a repeat submission must execute zero trials"
        );
        let (h2, b2) = split_response(&second);
        assert!(
            std::str::from_utf8(h2)
                .unwrap()
                .contains("\"cache\":\"hit\""),
            "second response should be a store hit: {}",
            String::from_utf8_lossy(h2)
        );
        assert_eq!(b1, b2, "hit body must be byte-identical to the live body");
        assert_eq!(
            b1,
            offline_body(&spec),
            "served body must match offline run"
        );
    }

    #[test]
    fn equivalent_specs_share_one_store_entry() {
        let spec = small_spec("serve-equivalent");
        let handle = Server::bind("127.0.0.1:0", temp_dir("equivalent"))
            .unwrap()
            .spawn()
            .unwrap();
        let first = submit(handle.addr(), &spec).unwrap();

        // Same experiment, different presentation: must hit.
        let mut respelled = spec.clone();
        respelled.description = Some("same experiment, new description".into());
        respelled.sweep.threads = Some(2);
        let second = submit(handle.addr(), &respelled).unwrap();
        assert_eq!(handle.state().executions(), 1);
        let (h2, b2) = split_response(&second);
        assert!(std::str::from_utf8(h2)
            .unwrap()
            .contains("\"cache\":\"hit\""));
        assert_eq!(split_response(&first).1, b2);
    }

    #[test]
    fn concurrent_identical_requests_execute_once() {
        let spec = small_spec("serve-dedup");
        let handle = Server::bind("127.0.0.1:0", temp_dir("dedup"))
            .unwrap()
            .spawn()
            .unwrap();
        let addr = handle.addr();
        let clients = 6;
        let responses: Vec<Vec<u8>> = std::thread::scope(|scope| {
            let spec = &spec;
            let handles: Vec<_> = (0..clients)
                .map(|_| scope.spawn(move || submit(addr, spec).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            handle.state().executions(),
            1,
            "identical concurrent requests must dedupe onto one execution"
        );
        let reference = split_response(&responses[0]).1.to_vec();
        assert_eq!(reference, offline_body(&spec));
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(
                split_response(r).1,
                &reference[..],
                "client {i} received a divergent stream"
            );
        }
    }

    #[test]
    fn corrupted_store_entry_falls_back_to_reexecution() {
        let spec = small_spec("serve-corrupt");
        let store = temp_dir("corrupt");
        let handle = Server::bind("127.0.0.1:0", store.clone())
            .unwrap()
            .spawn()
            .unwrap();
        let first = submit(handle.addr(), &spec).unwrap();
        assert_eq!(handle.state().executions(), 1);

        // Corrupt the entry's header in place: the stored hash no
        // longer matches, so the daemon must re-execute, not replay.
        let plan = ScenarioPlan::new(spec.clone()).unwrap();
        let entry = handle.state().store().entry_path(plan.spec_hash());
        let text = std::fs::read_to_string(&entry).unwrap();
        std::fs::write(&entry, text.replacen("\"spec_hash\"", "\"spec_hsah\"", 1)).unwrap();
        assert_eq!(handle.state().store().classify(&plan), StoreState::Absent);

        let second = submit(handle.addr(), &spec).unwrap();
        assert_eq!(
            handle.state().executions(),
            2,
            "a corrupted entry must trigger re-execution"
        );
        assert_eq!(split_response(&first).1, split_response(&second).1);

        // The rewrite repaired the store: next submission is a hit.
        let third = submit(handle.addr(), &spec).unwrap();
        assert_eq!(handle.state().executions(), 2);
        assert!(std::str::from_utf8(split_response(&third).0)
            .unwrap()
            .contains("\"cache\":\"hit\""));
    }

    #[test]
    fn entry_embedding_a_different_spec_is_a_miss() {
        let spec = small_spec("serve-foreign");
        let handle = Server::bind("127.0.0.1:0", temp_dir("foreign"))
            .unwrap()
            .spawn()
            .unwrap();
        submit(handle.addr(), &spec).unwrap();
        assert_eq!(handle.state().executions(), 1);

        // Rewrite only the header's embedded spec: the stored hash still
        // names this request, but the entry holds another experiment.
        let plan = ScenarioPlan::new(spec.clone()).unwrap();
        let entry = handle.state().store().entry_path(plan.spec_hash());
        let text = std::fs::read_to_string(&entry).unwrap();
        let (header, cells) = text.split_once('\n').unwrap();
        let forged = header.replacen("\"trials\":6", "\"trials\":7", 1);
        assert_ne!(forged, header);
        std::fs::write(&entry, format!("{forged}\n{cells}")).unwrap();
        assert_eq!(handle.state().store().classify(&plan), StoreState::Absent);

        let second = submit(handle.addr(), &spec).unwrap();
        assert_eq!(
            handle.state().executions(),
            2,
            "an entry embedding a different spec must trigger re-execution"
        );
        let (h2, b2) = split_response(&second);
        assert!(std::str::from_utf8(h2)
            .unwrap()
            .contains("\"cache\":\"miss\""));
        assert_eq!(b2, offline_body(&spec));
        assert_eq!(handle.state().store().classify(&plan), StoreState::Complete);
    }

    #[test]
    fn entry_from_an_older_results_version_is_a_miss() {
        let spec = small_spec("serve-stale");
        let handle = Server::bind("127.0.0.1:0", temp_dir("stale"))
            .unwrap()
            .spawn()
            .unwrap();
        submit(handle.addr(), &spec).unwrap();
        assert_eq!(handle.state().executions(), 1);

        // Plant the entry as a binary from before the results version
        // would have written it: same spec, same hash, no version field.
        let plan = ScenarioPlan::new(spec.clone()).unwrap();
        let entry = handle.state().store().entry_path(plan.spec_hash());
        let text = std::fs::read_to_string(&entry).unwrap();
        let field = format!("\"results_version\":{RESULTS_VERSION},");
        assert!(text.contains(&field));
        std::fs::write(&entry, text.replacen(&field, "", 1)).unwrap();
        assert_eq!(handle.state().store().classify(&plan), StoreState::Absent);

        let second = submit(handle.addr(), &spec).unwrap();
        assert_eq!(
            handle.state().executions(),
            2,
            "a stale entry must be re-executed, not replayed"
        );
        let (h2, b2) = split_response(&second);
        assert!(std::str::from_utf8(h2)
            .unwrap()
            .contains("\"cache\":\"miss\""));
        assert_eq!(b2, offline_body(&spec));
        // The re-run overwrote the entry in place under the same key.
        assert_eq!(handle.state().store().classify(&plan), StoreState::Complete);
    }

    #[test]
    fn torn_store_entry_resumes_instead_of_restarting() {
        let spec = small_spec("serve-torn");
        let store = temp_dir("torn");
        let handle = Server::bind("127.0.0.1:0", store).unwrap().spawn().unwrap();
        let first = submit(handle.addr(), &spec).unwrap();

        // Tear the last cell off, as a crash mid-append would.
        let plan = ScenarioPlan::new(spec.clone()).unwrap();
        let entry = handle.state().store().entry_path(plan.spec_hash());
        let text = std::fs::read_to_string(&entry).unwrap();
        let kept: Vec<&str> = text.lines().collect();
        std::fs::write(&entry, format!("{}\n", kept[..kept.len() - 1].join("\n"))).unwrap();
        assert_eq!(handle.state().store().classify(&plan), StoreState::Partial);

        let second = submit(handle.addr(), &spec).unwrap();
        let (h2, b2) = split_response(&second);
        assert!(std::str::from_utf8(h2)
            .unwrap()
            .contains("\"cache\":\"resume\""));
        assert_eq!(handle.state().executions(), 2);
        assert_eq!(
            split_response(&first).1,
            b2,
            "resumed body must be bit-identical to the original"
        );
    }

    #[test]
    fn oversized_request_lines_are_rejected_in_band() {
        let server = Server::bind_with(
            "127.0.0.1:0",
            temp_dir("oversize"),
            ServeConfig {
                max_request_bytes: 2048,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let handle = server.spawn().unwrap();
        let huge = format!("{}\n", "x".repeat(16 * 1024));
        let response = submit_raw(handle.addr(), &huge).unwrap();
        let text = String::from_utf8(response).unwrap();
        assert!(
            text.contains("\"error\"") && text.contains("exceeds 2048 bytes"),
            "{text}"
        );
        // The daemon survives the abuse: a well-formed request still
        // works on the next connection.
        let ok = submit(handle.addr(), &small_spec("serve-after-oversize")).unwrap();
        assert!(String::from_utf8_lossy(&ok).contains("\"kind\":\"report\""));
    }

    #[test]
    fn silent_clients_time_out_in_band() {
        let server = Server::bind_with(
            "127.0.0.1:0",
            temp_dir("silent"),
            ServeConfig {
                read_timeout: Some(Duration::from_millis(100)),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let handle = server.spawn().unwrap();
        // Connect and send nothing: the server must answer (with an
        // in-band error) rather than hold the thread forever.
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        let text = String::from_utf8(response).unwrap();
        assert!(
            text.contains("\"error\"") && text.contains("timed out"),
            "{text}"
        );
    }

    #[test]
    fn graceful_shutdown_finishes_in_flight_requests() {
        let spec = small_spec("serve-graceful");
        let store = temp_dir("graceful");
        let handle = Server::bind("127.0.0.1:0", store.clone())
            .unwrap()
            .spawn()
            .unwrap();
        let addr = handle.addr();
        let shutdown = handle.shutdown_handle();

        // Launch a request, then immediately request shutdown while it
        // is (plausibly) still executing. The response must still be
        // complete and the journal fully flushed.
        let client = std::thread::spawn(move || submit(addr, &spec).unwrap());
        // Wait until the request has been accepted and its execution
        // started, so the shutdown provably races a live sweep.
        while handle.state().executions() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        shutdown.shutdown();
        let response = client.join().unwrap();
        handle.shutdown().unwrap();

        let text = String::from_utf8_lossy(&response);
        assert!(
            text.contains("\"kind\":\"report\""),
            "in-flight request must finish through shutdown: {text}"
        );
        // Post-shutdown the daemon is gone: new connections are refused
        // or reset, never silently accepted.
        assert!(
            TcpStream::connect(addr).is_err()
                || submit(addr, &small_spec("serve-graceful")).is_err(),
            "daemon accepted work after graceful shutdown"
        );
        // The flushed journal makes the next daemon generation replay
        // the sweep as a pure cache hit.
        let spec = small_spec("serve-graceful");
        let restarted = Server::bind("127.0.0.1:0", store).unwrap().spawn().unwrap();
        let replay = submit(restarted.addr(), &spec).unwrap();
        assert!(
            String::from_utf8_lossy(split_response(&replay).0).contains("\"cache\":\"hit\""),
            "restart must serve the drained journal from cache"
        );
        assert_eq!(restarted.state().executions(), 0);
    }

    #[test]
    fn malformed_requests_get_in_band_errors() {
        let handle = Server::bind("127.0.0.1:0", temp_dir("bad"))
            .unwrap()
            .spawn()
            .unwrap();
        let response = submit_raw(handle.addr(), "{not json}\n").unwrap();
        let text = String::from_utf8(response).unwrap();
        assert!(
            text.contains("\"error\"") && text.contains("bad request"),
            "{text}"
        );
        // A parseable spec that fails validation also errors in band.
        let mut spec = small_spec("serve-invalid");
        spec.sweep.sizes.clear();
        let response = submit(handle.addr(), &spec).unwrap();
        let text = String::from_utf8(response).unwrap();
        assert!(
            text.contains("\"error\"") && text.contains("invalid spec"),
            "{text}"
        );
    }

    #[test]
    fn live_spec_hits_its_own_entry_apart_from_its_analytic_twin() {
        let spec = live_spec("serve-live");
        let handle = Server::bind("127.0.0.1:0", temp_dir("live"))
            .unwrap()
            .spawn()
            .unwrap();
        let header =
            |response: &[u8]| String::from_utf8_lossy(split_response(response).0).into_owned();

        let first = submit(handle.addr(), &spec).unwrap();
        assert!(
            header(&first).contains("\"cache\":\"miss\""),
            "{}",
            header(&first)
        );
        assert_eq!(handle.state().executions(), 1);
        let second = submit(handle.addr(), &spec).unwrap();
        assert!(
            header(&second).contains("\"cache\":\"hit\""),
            "{}",
            header(&second)
        );
        assert_eq!(handle.state().executions(), 1, "a hit executes nothing");
        let body = split_response(&second).1;
        assert_eq!(body, split_response(&first).1);
        assert_eq!(
            body,
            offline_body(&spec),
            "served body must match the offline live run"
        );
        assert!(
            footer(body).contains("\"engine\":\"net/local\""),
            "{}",
            footer(body)
        );

        // Without its [net] table the spec is another experiment, with
        // its own store entry.
        let twin = ScenarioSpec {
            net: None,
            ..spec.clone()
        };
        let hash = |s: &ScenarioSpec| ScenarioPlan::new(s.clone()).unwrap().spec_hash();
        assert_ne!(hash(&twin), hash(&spec));
        let third = submit(handle.addr(), &twin).unwrap();
        assert!(
            header(&third).contains("\"cache\":\"miss\""),
            "{}",
            header(&third)
        );
        assert!(header(&third).contains(&hash(&twin).to_string()));
        assert_eq!(handle.state().executions(), 2);
        assert!(footer(split_response(&third).1).contains("\"engine\":\"event\""));
    }

    #[test]
    fn live_chaos_spec_runs() {
        let mut spec = live_spec("serve-chaos");
        spec.faults = Some(FaultSpec {
            drop: Some(0.1),
            partition_rate: Some(0.2),
            delay: Some(0.2),
            delay_epochs: Some(2),
            duplicate: Some(0.1),
            seed: Some(3),
            ..FaultSpec::new()
        });
        let handle = Server::bind("127.0.0.1:0", temp_dir("chaos"))
            .unwrap()
            .spawn()
            .unwrap();
        let response = submit(handle.addr(), &spec).unwrap();
        let (head, body) = split_response(&response);
        assert!(String::from_utf8_lossy(head).contains("\"cache\":\"miss\""));
        assert!(
            footer(body).contains("\"kind\":\"report\""),
            "{}",
            footer(body)
        );
        assert_eq!(body, offline_body(&spec));
    }
}
