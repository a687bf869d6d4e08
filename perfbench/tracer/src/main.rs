//! The traced pass of the repository benchmark.
//!
//! Usage: `perfbench-trace <workload> <inputs-dir> <work-dir>`
//!
//! Repeats each workload's call sequence in-process, on the inputs that
//! `perfbench/run.py` generated, with a span around every call into a
//! workspace layer (`core`, `graph`, `dynamics`, `sim`, `net`, `serve`).
//! The named workload runs first. The workloads that exercise the layers it
//! bypasses run after it, so every per-layer metric is measured in every
//! traced run: a metric comes from the named workload when that workload
//! calls the layer, and otherwise from the layer's home workload.
//!
//! Prints one JSON object on stdout: the per-layer metrics, each
//! sequence's traced wall time and span coverage, and the output checks.
//! Writes every span to `<work-dir>/spans-<workload>.jsonl`.

mod trace;

use gossip_core::journal::Journal;
use gossip_core::scenario::{
    build_any_protocol, build_family_cached, ScenarioPlan, ScenarioSpec, TopologyCache,
};
use gossip_dynamics::{DynamicNetwork, EdgeDelta};
use gossip_graph::{NodeId, NodeSet, Topology};
use gossip_net::{
    build_live_topology, run_trial, DeliveryKind, Envelope, NetSweep, Payload, WIRE_BYTES,
};
use gossip_serve::{split_response, submit_raw, Server, StoreState};
use gossip_sim::{JsonlSink, SimError, TrialError, TrialObserver, TrialOutcome, TrialRecord};
use gossip_stats::SimRng;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use trace::span;

const SWEEP: &str = "sweep-dynamic";
const SERVE: &str = "serve-gnp";
const LIVE_SMALL: &str = "live-small";
const LIVE_LARGE: &str = "live-large";

/// Submissions of each serve sweep: one miss, then hits.
const SERVE_ROUNDS: usize = 10;

type Metrics = BTreeMap<&'static str, f64>;

/// Output checks of the traced pass: operations attempted and failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn record(&mut self, ops: u64, ok: bool) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
        }
    }
}

/// Counts taken at the layer boundaries of one workload sequence.
#[derive(Default)]
struct Counts {
    sim_trials: u64,
    sim_events: u64,
    sim_trial_errors: u64,
    jsonl_bytes: u64,
    realized_edges: u64,
    journal_records: Vec<u64>,
    journal_bytes: Vec<u64>,
    cache_hits: u64,
    cache_misses: u64,
    executions: u64,
    response_bytes: Vec<u64>,
    net_trials: u64,
    net_epochs: u64,
    net_events: u64,
    net_messages: u64,
    net_stalled: u64,
    envelopes: u64,
}

/// Diff counters of the delegating network wrapper.
static DIFF_CALLS: AtomicU64 = AtomicU64::new(0);
static DIFF_NONE: AtomicU64 = AtomicU64::new(0);
static DELTA_EDGES: AtomicU64 = AtomicU64::new(0);
static TRIAL_GROUP: AtomicU64 = AtomicU64::new(0);

/// A delegating [`DynamicNetwork`] that times `edges_changed`, `topology`
/// and `reset`, and counts diffs and rebuild answers.
struct TracedNet<N>(N);

impl<N: DynamicNetwork> DynamicNetwork for TracedNet<N> {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn topology(&mut self, t: u64, informed: &NodeSet, rng: &mut SimRng) -> &Topology {
        span("dynamics.topology", || self.0.topology(t, informed, rng))
    }

    fn reset(&mut self) {
        // The engine resets the network at the start of every trial, so
        // the reset opens the trial's span group.
        trace::set_group(TRIAL_GROUP.fetch_add(1, Ordering::Relaxed));
        span("dynamics.reset", || self.0.reset())
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn suggested_start(&self) -> NodeId {
        self.0.suggested_start()
    }

    fn is_static(&self) -> bool {
        self.0.is_static()
    }

    fn edges_changed(&mut self, t: u64, informed: &NodeSet, rng: &mut SimRng) -> Option<EdgeDelta> {
        let delta = span("dynamics.evolve", || self.0.edges_changed(t, informed, rng));
        DIFF_CALLS.fetch_add(1, Ordering::Relaxed);
        match &delta {
            Some(d) => DELTA_EDGES.fetch_add(d.len() as u64, Ordering::Relaxed),
            None => DIFF_NONE.fetch_add(1, Ordering::Relaxed),
        };
        delta
    }
}

/// A delegating [`TrialObserver`] that times every call into the sink.
struct TracedSink<O>(O);

impl<O: TrialObserver> TrialObserver for TracedSink<O> {
    fn wants_trajectory(&self) -> bool {
        self.0.wants_trajectory()
    }

    fn on_trial(&mut self, record: &TrialRecord) -> Result<(), SimError> {
        span("sim.observer", || self.0.on_trial(record))
    }

    fn on_trial_error(&mut self, error: &TrialError) -> Result<(), SimError> {
        span("sim.observer", || self.0.on_trial_error(error))
    }

    fn finish(&mut self) -> Result<(), SimError> {
        span("sim.observer", || self.0.finish())
    }
}

/// A writer that counts the bytes passing through it.
struct Counting<W> {
    inner: W,
    bytes: u64,
}

impl<W: Write> Write for Counting<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

type Sink<W> = TracedSink<JsonlSink<Counting<W>>>;

fn sink<W: Write>(inner: W) -> Sink<W> {
    TracedSink(JsonlSink::new(Counting { inner, bytes: 0 }))
}

fn file_sink(path: &Path) -> Result<Sink<std::io::BufWriter<std::fs::File>>, String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(sink(std::io::BufWriter::new(file)))
}

fn sink_bytes<W: Write>(sink: Sink<W>) -> Result<u64, String> {
    Ok(sink.0.into_inner().map_err(|e| e.to_string())?.bytes)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Realizes the sampled G(n, p) of `spec` at every sweep size and sweeps
/// its degrees.
fn realize(spec: &ScenarioSpec, counts: &mut Counts) -> Result<(), String> {
    let p = spec.family.p.unwrap_or(0.1);
    // The family builders seed their sampler with the build seed's first draw.
    let seed = SimRng::seed_from_u64(spec.family.build_seed.unwrap_or(1)).next_u64();
    for &n in &spec.sweep.sizes {
        let degrees = span("graph.realize", || {
            Topology::gnp(n, p, seed).map(|t| (0..n as NodeId).map(|v| t.degree(v)).sum::<usize>())
        })
        .map_err(err)?;
        counts.realized_edges += degrees as u64 / 2;
    }
    Ok(())
}

/// Executes one sweep cell of `plan` in-process through `RunPlan::execute`,
/// with the network and observer wrapped.
fn execute_cell<W: Write>(
    plan: &ScenarioPlan,
    n: usize,
    cache: Option<&TopologyCache>,
    sink: &mut Sink<W>,
    counts: &mut Counts,
    checks: &mut Checks,
) -> Result<(), String> {
    let spec = plan.spec();
    span("core.family_build", || {
        build_family_cached(&spec.family, n, cache)
    })
    .map_err(err)?;
    let report = span("sim.execute", || {
        plan.run_plan().observer(&mut *sink).execute(
            || {
                TracedNet(span("core.family_build", || {
                    build_family_cached(&spec.family, n, cache).expect("probed above")
                }))
            },
            || {
                span("core.protocol_build", || {
                    build_any_protocol(&spec.protocol).expect("validated by the plan")
                })
            },
        )
    })
    .map_err(err)?;
    counts.sim_trials += report.trials() as u64;
    counts.sim_events += report.events();
    counts.sim_trial_errors += report.trial_errors().len() as u64;
    checks.record(
        plan.trials() as u64,
        report.completed() == plan.trials() && report.trial_errors().is_empty(),
    );
    Ok(())
}

fn sweep_dynamic(inputs: &Path, work: &Path, c: &mut Counts, k: &mut Checks) -> Result<(), String> {
    for file in ["edge-markovian.json", "diligent.json"] {
        let path = inputs.join(SWEEP).join(file);
        let spec = span("core.spec_load", || ScenarioSpec::from_path(&path)).map_err(err)?;
        let plan = span("core.plan", || ScenarioPlan::new(spec.clone())).map_err(err)?;
        if spec.family.kind == "edge-markovian" {
            // The chain starts from G(n, p): realize its sampled twin.
            realize(&spec, c)?;
        }
        let mut out = file_sink(&work.join(format!("trace-{file}l")))?;
        for &n in plan.sizes() {
            execute_cell(&plan, n, None, &mut out, c, k)?;
        }
        c.jsonl_bytes += sink_bytes(out)?;
    }
    Ok(())
}

/// Counts a response body's trial lines and checks that each ended
/// `spread` and that the body ends with the report footer.
fn body_ok(body: &[u8], expected: usize) -> bool {
    let text = String::from_utf8_lossy(body);
    let lines: Vec<&str> = text.lines().collect();
    let Some((footer, records)) = lines.split_last() else {
        return false;
    };
    footer.contains("\"kind\":\"report\"")
        && records.len() == expected
        && records.iter().all(|l| l.contains("\"outcome\":\"spread\""))
}

fn serve_gnp(inputs: &Path, work: &Path, c: &mut Counts, k: &mut Checks) -> Result<(), String> {
    let path = inputs.join(SERVE).join("requests.jsonl");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let lines: Vec<String> = text.lines().map(|l| format!("{l}\n")).collect();
    let shared = ScenarioSpec::from_json_str(lines.first().ok_or("no serve requests")?.trim_end())
        .map_err(err)?;
    realize(&shared, c)?;

    let store = work.join("trace-serve-store");
    let _ = std::fs::remove_dir_all(&store);
    let handle = span("serve.bind", || {
        Server::bind("127.0.0.1:0", &store).and_then(Server::spawn)
    })
    .map_err(err)?;
    let addr = handle.addr();
    // The miss probes keep their own warm topology cache, as the daemon does.
    let cache = TopologyCache::new();
    let mut replay_sink = sink(std::io::sink());
    let mut miss_bodies: Vec<Vec<u8>> = Vec::new();
    for round in 0..SERVE_ROUNDS {
        for (i, line) in lines.iter().enumerate() {
            trace::set_group((round * lines.len() + i) as u64);
            let miss = round == 0;
            let name = if miss {
                "serve.miss_request"
            } else {
                "serve.hit_request"
            };
            let response = span(name, || submit_raw(addr, line)).map_err(err)?;
            c.response_bytes.push(response.len() as u64);
            let (head, body) = split_response(&response);
            let head = String::from_utf8_lossy(head);
            let spec = span("core.spec_load", || {
                ScenarioSpec::from_json_str(line.trim_end())
            })
            .map_err(err)?;
            let plan = span("core.plan", || ScenarioPlan::new(spec)).map_err(err)?;
            let records = plan.sizes().len() * plan.trials();
            if miss {
                k.record(
                    1,
                    head.contains("\"cache\":\"miss\"") && body_ok(body, records),
                );
                miss_bodies.push(body.to_vec());
                for &n in plan.sizes() {
                    execute_cell(
                        &plan,
                        n,
                        Some(&cache),
                        &mut replay_sink,
                        c,
                        &mut Checks::default(),
                    )?;
                }
            } else {
                let store = handle.state().store();
                let state = span("serve.classify", || store.classify(&plan));
                k.record(
                    1,
                    head.contains("\"cache\":\"hit\"")
                        && body == &miss_bodies[i][..]
                        && state == StoreState::Complete,
                );
                let entry = store.entry_path(plan.spec_hash());
                let journal = span("core.journal_load", || Journal::load(&entry)).map_err(err)?;
                c.journal_records.push(
                    journal
                        .cells
                        .iter()
                        .map(|cell| cell.records.len() as u64)
                        .sum(),
                );
                c.journal_bytes
                    .push(std::fs::metadata(&entry).map_err(err)?.len());
                span("serve.replay", || {
                    plan.execution()
                        .resume_from(&entry)
                        .run_with(&mut replay_sink)
                })
                .map_err(err)?;
            }
        }
    }
    c.executions = handle.state().executions() as u64;
    c.cache_hits = handle.state().topologies().hits() as u64;
    c.cache_misses = handle.state().topologies().misses() as u64;
    c.jsonl_bytes += sink_bytes(replay_sink)?;
    span("serve.shutdown", || handle.shutdown()).map_err(err)?;
    let _ = std::fs::remove_dir_all(&store);
    Ok(())
}

fn live(
    name: &'static str,
    inputs: &Path,
    work: &Path,
    c: &mut Counts,
    k: &mut Checks,
) -> Result<(), String> {
    let path = inputs.join(name).join("spec.json");
    let spec = span("core.spec_load", || ScenarioSpec::from_path(&path)).map_err(err)?;
    let sweep = span("core.plan", || NetSweep::new(&spec)).map_err(err)?;
    let cfg = sweep.config();
    let proto = sweep.protocol();
    let delivery = spec
        .net
        .as_ref()
        .and_then(|net| net.delivery.as_deref())
        .unwrap_or("local");
    let delivery = DeliveryKind::parse(delivery).ok_or("unknown delivery")?;
    // A horizon before any clock can fire: the trial builds its fabric,
    // group threads and node state, finds nothing to do, and tears down.
    let mut fixed = cfg.clone();
    fixed.horizon = 1e-12;
    let trials = spec.sweep.trials_or_default();
    let base = SimRng::seed_from_u64(spec.sweep.seed_or_default());
    let mut out = file_sink(&work.join(format!("trace-{name}.jsonl")))?;
    let mut group = 0u64;
    let mut largest = 1usize;
    for &n in &spec.sweep.sizes {
        let (topo, suggested) =
            span("net.topology", || build_live_topology(&spec.family, n)).map_err(err)?;
        let start = spec.sweep.start.unwrap_or(suggested);
        largest = largest.max(topo.n());
        for i in 0..trials {
            trace::set_group(group);
            group += 1;
            let seed = base.derive(i as u64).base_seed();
            let t = match span("net.trial", || {
                run_trial(&topo, proto, start, seed, &cfg, delivery, false)
            }) {
                Ok(t) => t,
                Err(e) if e.is_retryable() => {
                    c.net_stalled += 1;
                    k.record(1, false);
                    continue;
                }
                Err(e) => return Err(e.to_string()),
            };
            span("net.trial_fixed", || {
                run_trial(&topo, proto, start, seed, &fixed, delivery, false)
            })
            .map_err(err)?;
            c.net_trials += 1;
            c.net_epochs += t.epochs;
            c.net_events += t.events;
            c.net_messages += t.messages;
            k.record(1, t.outcome == TrialOutcome::Spread);
            let record = TrialRecord {
                trial: i,
                seed,
                n: topo.n(),
                spread_time: t.spread_time,
                windows: t.epochs,
                events: t.events,
                informed: t.informed,
                outcome: t.outcome,
                trajectory: None,
            };
            out.on_trial(&record).map_err(err)?;
        }
        out.finish().map_err(err)?;
    }
    c.jsonl_bytes += sink_bytes(out)?;
    c.envelopes = c.net_messages.clamp(100_000, 2_000_000);
    envelope_round_trip(c.envelopes as usize, largest, spec.sweep.seed_or_default());
    Ok(())
}

/// Encodes `count` seeded envelopes into one buffer and decodes them back.
fn envelope_round_trip(count: usize, n: usize, seed: u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    let envelopes: Vec<Envelope> = (0..count)
        .map(|i| Envelope {
            src: rng.index(n) as NodeId,
            dst: rng.index(n) as NodeId,
            seq: i as u32,
            time: rng.uniform_f64() * 16.0,
            payload: match i % 3 {
                0 => Payload::Contact { informed: false },
                1 => Payload::Contact { informed: true },
                _ => Payload::Rumor,
            },
        })
        .collect();
    let checksum = span("net.envelope", || {
        let mut buf = Vec::with_capacity(count * WIRE_BYTES);
        for e in &envelopes {
            e.encode_into(&mut buf);
        }
        buf.chunks_exact(WIRE_BYTES)
            .map(|chunk| Envelope::decode(chunk).expect("round trip of a valid envelope"))
            .fold(0u64, |acc, e| acc.wrapping_add(u64::from(e.seq ^ e.dst)))
    });
    std::hint::black_box(checksum);
}

/// Spans that the untraced run does not make: probes beside the workload's
/// own calls. They are left out of `trace.wall_s`.
fn probes(sequence: &str) -> &'static [&'static str] {
    match sequence {
        SWEEP => &["graph.realize"],
        SERVE => &[
            "graph.realize",
            "core.spec_load",
            "core.plan",
            "core.family_build",
            "sim.execute",
            "serve.classify",
            "core.journal_load",
            "serve.replay",
        ],
        _ => &["net.trial_fixed", "net.envelope"],
    }
}

fn median(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    v[(v.len() - 1) / 2] as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics one sequence measures.
fn sequence_metrics(sequence: &str, s: &trace::Summary, c: &Counts) -> Metrics {
    let mut m = Metrics::new();
    let family = s.get("core.family_build");
    let live_topology = s.get("net.topology");
    m.insert("core.spec_load_s", s.get("core.spec_load").median_s());
    m.insert("core.plan_s", s.get("core.plan").median_s());
    m.insert(
        "core.family_build_s",
        family.total_s() + live_topology.total_s(),
    );
    m.insert(
        "core.family_builds",
        (family.count + live_topology.count) as f64,
    );
    let observer = s.get("sim.observer");
    m.insert("sim.observer_s", observer.total_s());
    m.insert("sim.jsonl_bytes", c.jsonl_bytes as f64);

    if sequence == SWEEP || sequence == SERVE {
        let realize = s.get("graph.realize");
        m.insert("graph.realize_s", realize.total_s());
        m.insert("graph.realized_edges", c.realized_edges as f64);

        let evolve = s.get("dynamics.evolve");
        let topology = s.get("dynamics.topology");
        m.insert("dynamics.windows", topology.count as f64);
        m.insert("dynamics.evolve_s", evolve.total_s());
        m.insert("dynamics.rebuild_s", topology.total_s());
        m.insert("dynamics.reset_s", s.get("dynamics.reset").total_s());
        m.insert(
            "dynamics.delta_edges",
            DELTA_EDGES.load(Ordering::Relaxed) as f64,
        );
        m.insert(
            "dynamics.rebuild_ratio",
            ratio(
                DIFF_NONE.load(Ordering::Relaxed) as f64,
                DIFF_CALLS.load(Ordering::Relaxed) as f64,
            ),
        );

        let execute = s.get("sim.execute");
        m.insert("sim.execute_s", execute.total_s());
        m.insert("sim.engine_s", execute.self_s());
        m.insert("sim.events", c.sim_events as f64);
        m.insert("sim.trials", c.sim_trials as f64);
        m.insert("sim.trial_errors", c.sim_trial_errors as f64);
        m.insert(
            "sim.ns_per_event",
            ratio(execute.self_s() * 1e9, c.sim_events as f64),
        );
    }

    if sequence == SERVE {
        let load = s.get("core.journal_load");
        let records = median(&c.journal_records);
        m.insert("core.journal_load_s", load.median_s());
        m.insert("core.journal_records", records);
        m.insert("core.journal_bytes", median(&c.journal_bytes));
        m.insert(
            "core.journal_us_per_record",
            ratio(load.median_s() * 1e6, records),
        );
        m.insert("core.topology_cache_hits", c.cache_hits as f64);
        m.insert("core.topology_cache_misses", c.cache_misses as f64);

        let hit = s.get("serve.hit_request");
        let classify = s.get("serve.classify").median_s();
        let replay = s.get("serve.replay").median_s();
        let transport = hit.median_s() - classify - replay;
        m.insert("serve.bind_s", s.get("serve.bind").total_s());
        m.insert("serve.hit_request_s", hit.median_s());
        m.insert("serve.hit_p90_s", hit.quantile_s(0.9));
        m.insert(
            "serve.miss_request_s",
            s.get("serve.miss_request").median_s(),
        );
        m.insert("serve.classify_s", classify);
        m.insert("serve.replay_s", replay);
        m.insert("serve.transport_s", transport);
        // A hit loads its journal twice: once to classify, once to replay.
        m.insert(
            "serve.hit_journal_share",
            ratio(2.0 * load.median_s(), hit.median_s()),
        );
        m.insert(
            "serve.hit_transport_share",
            ratio(transport, hit.median_s()),
        );
        m.insert("serve.executions", c.executions as f64);
        m.insert("serve.response_bytes", median(&c.response_bytes));
    }

    if sequence == LIVE_SMALL || sequence == LIVE_LARGE {
        let trial = s.get("net.trial");
        let fixed = s.get("net.trial_fixed");
        let trials = c.net_trials as f64;
        let epoch_s = trial.total_s() - fixed.total_s();
        m.insert("net.topology_s", live_topology.total_s());
        m.insert("net.trial_s", ratio(trial.total_s(), trials));
        m.insert("net.trial_fixed_s", ratio(fixed.total_s(), trials));
        m.insert(
            "net.trial_fixed_share",
            ratio(fixed.total_s(), trial.total_s()),
        );
        m.insert("net.epochs", ratio(c.net_epochs as f64, trials));
        m.insert("net.events", c.net_events as f64);
        m.insert("net.messages", c.net_messages as f64);
        m.insert(
            "net.events_per_epoch",
            ratio(c.net_events as f64, c.net_epochs as f64),
        );
        m.insert(
            "net.us_per_epoch",
            ratio(epoch_s * 1e6, c.net_epochs as f64),
        );
        m.insert(
            "net.ns_per_event",
            ratio(epoch_s * 1e9, c.net_events as f64),
        );
        m.insert("net.stalled", c.net_stalled as f64);
        m.insert(
            "net.envelope_ns",
            ratio(s.get("net.envelope").total_s() * 1e9, c.envelopes as f64),
        );
    }
    m
}

/// The workload whose call sequence measures a metric when the named
/// workload does not call that metric's layer.
fn home(metric: &str) -> &'static str {
    if metric.starts_with("net.") {
        LIVE_SMALL
    } else if metric.starts_with("serve.")
        || metric.starts_with("graph.")
        || metric.starts_with("core.journal")
        || metric.starts_with("core.topology_cache")
    {
        SERVE
    } else {
        SWEEP
    }
}

fn run_sequence(
    name: &str,
    inputs: &Path,
    work: &Path,
    c: &mut Counts,
    k: &mut Checks,
) -> Result<(), String> {
    match name {
        SWEEP => sweep_dynamic(inputs, work, c, k),
        SERVE => serve_gnp(inputs, work, c, k),
        LIVE_SMALL => live(LIVE_SMALL, inputs, work, c, k),
        LIVE_LARGE => live(LIVE_LARGE, inputs, work, c, k),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [workload, inputs, work] = &args[..] else {
        eprintln!("usage: perfbench-trace <workload> <inputs-dir> <work-dir>");
        std::process::exit(2);
    };
    let workload: &'static str = match workload.as_str() {
        SWEEP => SWEEP,
        SERVE => SERVE,
        LIVE_SMALL => LIVE_SMALL,
        LIVE_LARGE => LIVE_LARGE,
        other => {
            eprintln!("unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let (inputs, work) = (Path::new(inputs), Path::new(work));
    let mut order = vec![workload];
    for other in [SWEEP, SERVE, LIVE_SMALL] {
        if other != workload {
            order.push(other);
        }
    }

    trace::start();
    let mut checks = Checks::default();
    let mut per_sequence: BTreeMap<&'static str, Metrics> = BTreeMap::new();
    let mut report = String::new();
    for &sequence in &order {
        for counter in [&DIFF_CALLS, &DIFF_NONE, &DELTA_EDGES] {
            counter.store(0, Ordering::Relaxed);
        }
        trace::set_sequence(sequence);
        trace::set_group(0);
        let mut counts = Counts::default();
        let result = span("workload", || {
            run_sequence(sequence, inputs, work, &mut counts, &mut checks)
        });
        if let Err(e) = result {
            eprintln!("perfbench-trace: {sequence}: {e}");
            std::process::exit(1);
        }
        let spans = trace::spans();
        let summary = trace::Summary::of(&spans, sequence);
        let root = summary.get("workload");
        let coverage = 1.0 - ratio(root.self_s(), root.total_s());
        // Only top-level probes count: a nested one is inside another span.
        let roots: Vec<u64> = spans
            .iter()
            .filter(|s| s.sequence == sequence && s.name == "workload")
            .map(|s| s.id)
            .collect();
        let probe_s: f64 = spans
            .iter()
            .filter(|s| s.sequence == sequence && probes(sequence).contains(&s.name))
            .filter(|s| s.parent.is_some_and(|p| roots.contains(&p)))
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum();
        let mut metrics = sequence_metrics(sequence, &summary, &counts);
        metrics.insert("trace.wall_s", root.total_s() - probe_s);
        metrics.insert("trace.coverage", coverage);
        report.push_str(&format!(
            "{{\"name\":\"{sequence}\",\"wall_s\":{},\"traced_s\":{},\"coverage\":{}}},",
            json_number(root.total_s() - probe_s),
            json_number(root.total_s()),
            json_number(coverage)
        ));
        per_sequence.insert(sequence, metrics);
    }

    let spans = trace::spans();
    let spans_path = work.join(format!("spans-{workload}.jsonl"));
    if let Err(e) = trace::write_jsonl(&spans_path, &spans) {
        eprintln!("perfbench-trace: {}: {e}", spans_path.display());
        std::process::exit(1);
    }

    let own = &per_sequence[workload];
    let mut names: Vec<&'static str> = per_sequence
        .values()
        .flat_map(|m| m.keys().copied())
        .collect();
    names.sort_unstable();
    names.dedup();
    let metrics: Vec<String> = names
        .iter()
        .map(|name| {
            let (value, source) = match own.get(name) {
                Some(v) => (*v, workload),
                None => (per_sequence[home(name)][name], home(name)),
            };
            format!(
                "\"{name}\":{{\"value\":{},\"from\":\"{source}\"}}",
                json_number(value)
            )
        })
        .collect();
    println!(
        "{{\"workload\":\"{workload}\",\"attempted\":{},\"failed\":{},\"spans\":{},\"sequences\":[{}],\"metrics\":{{{}}}}}",
        checks.attempted,
        checks.failed,
        spans.len(),
        report.trim_end_matches(','),
        metrics.join(",")
    );
}
