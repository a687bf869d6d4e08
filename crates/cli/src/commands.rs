//! Subcommand implementations. Each returns the full report as a `String`
//! so the logic is unit-testable without capturing stdout.

use crate::args::Args;
use crate::error::CliError;
use crate::{family, proto};
use gossip_core::journal::Journal;
use gossip_core::scenario::{fold_lossy, protocol_label, NetSpec, ScenarioSpec, SweepPlan};
use gossip_core::tracking::{run_tracked_generic, ProfileMode};
use gossip_dynamics::profile::{conservative_profile, exact_profile};
use gossip_dynamics::DynamicNetwork;
use gossip_graph::{NodeSet, EXACT_ENUMERATION_LIMIT};
use gossip_net::{DeliveryKind, NetSweep, NetTotals};
use gossip_sim::{FaultModel, JsonlSink, Protocol, RunConfig, RunPlan};
use gossip_stats::SimRng;
use std::fmt::Write as _;

/// Parses the two-valued `--output <format> <path>` flag; only the
/// `jsonl` format exists today.
fn jsonl_output(args: &Args) -> Result<Option<&str>, CliError> {
    match args.opt_pair("output")? {
        None => Ok(None),
        Some(("jsonl", path)) => Ok(Some(path)),
        Some((other, _)) => Err(CliError::Usage(format!(
            "unknown output format `{other}` (supported: jsonl)"
        ))),
    }
}

/// Opens the JSONL sink for `--output jsonl <path>`.
fn open_jsonl(path: &str) -> Result<JsonlSink<std::io::BufWriter<std::fs::File>>, CliError> {
    JsonlSink::create(path).map_err(|e| CliError::Scenario(format!("cannot create {path}: {e}")))
}

/// The one run path of `scenario run` and `net run`: the spec's sweep
/// through [`SweepPlan`], journaled, resumed and streamed as asked. A
/// `[net]` table runs the cells on the live runtime, whose counters
/// follow the text report.
fn run_sweep(
    spec: &ScenarioSpec,
    journal: Option<&str>,
    resume: Option<&Journal>,
    output: Option<&str>,
    json: bool,
) -> Result<String, CliError> {
    let mut plan = SweepPlan::new(spec)?;
    let live = spec
        .net
        .is_some()
        .then(|| NetSweep::new(spec))
        .transpose()?;
    if let Some(runner) = &live {
        plan = plan.live(runner);
    }
    if let Some(path) = journal {
        plan = plan.journal_to(path);
    }
    if let Some(journal) = resume {
        plan = plan.resume_journal(journal);
    }
    let (report, streamed) = match output {
        Some(out_path) => {
            // One sink across the whole sweep: every trial of every size
            // streams to the file as it completes.
            let mut sink = open_jsonl(out_path)?;
            let report = plan.run_with(&mut sink)?;
            (report, Some((sink.records(), out_path)))
        }
        None => (plan.run()?, None),
    };
    if json {
        return Ok(serde_json::to_string_pretty(&report) + "\n");
    }
    let mut out = report.to_string();
    if let (Some(live), Some(net)) = (&live, &spec.net) {
        write_live_totals(&mut out, net, live.totals());
    }
    if let Some((records, out_path)) = streamed {
        let _ = writeln!(out, "wrote {records} trial records to {out_path}");
    }
    Ok(out)
}

/// Appends what the executed live cells did: groups, events and
/// envelope traffic. Nothing when every cell was replayed.
fn write_live_totals(out: &mut String, net: &NetSpec, t: NetTotals) {
    if t.node_trials == 0 {
        return;
    }
    let (secs, traffic) = (t.elapsed.as_secs_f64(), t.traffic);
    let (delivery, tick) = (net.delivery_or_default(), net.tick_or_default());
    let _ = writeln!(
        out,
        "groups    : {} ({delivery} delivery, tick {tick})",
        t.groups
    );
    let _ = writeln!(
        out,
        "events    : {} total ({:.1}/trial, {:.0}/sec)",
        t.events,
        t.events as f64 / t.trials.max(1) as f64,
        t.events as f64 / secs
    );
    let _ = writeln!(
        out,
        "messages  : {} total ({:.1}/node, {:.0}/sec)",
        traffic.messages,
        traffic.messages as f64 / t.node_trials as f64,
        traffic.messages as f64 / secs
    );
    let share = |count: u64| 100.0 * count as f64 / traffic.messages.max(1) as f64;
    let dropped = format!("({:.2}% of messages)", share(traffic.dropped));
    let blocked = format!(
        "({:.2}% of messages, partition cuts)",
        share(traffic.blocked)
    );
    for (name, count, what) in [
        ("dropped   ", traffic.dropped, dropped.as_str()),
        ("blocked   ", traffic.blocked, blocked.as_str()),
        ("duplicated", traffic.duplicated, "extra envelope copies"),
        (
            "retried   ",
            traffic.retried,
            "trial(s) re-run after a udp exchange stall",
        ),
        (
            "stalled   ",
            t.stalled,
            "trial(s) skipped after repeated udp exchange stalls",
        ),
    ] {
        if count > 0 {
            let _ = writeln!(out, "{name}: {count} {what}");
        }
    }
}

/// `gossip help` / no arguments.
pub fn help() -> String {
    "\
gossip — asynchronous rumor spreading in dynamic networks (Pourmiri & Mans, PODC 2020)

USAGE:
    gossip <COMMAND> [--flag value]...

COMMANDS:
    run          simulate a protocol on a network family, report spread-time statistics
    scenario     run declarative experiment files: scenario run|check|init|list
                 (a spec's [net] table selects the live runtime, here and in serve)
    net          run a scenario on the live message-passing runtime: net run|check
                 (scenario run's path; adds a default [net] table if the spec has none)
    serve        start the simulation-as-a-service daemon (content-addressed result cache)
    submit       send a scenario file to a running daemon and stream the response
    profile      walk a trajectory and print per-window conductance / diligence profiles
    bounds       compare measured spread time against the Theorem 1.1 / 1.3 stopping rules
    trace        dump informed-count trajectories as CSV (for plotting)
    experiment   regenerate a paper experiment by id (E1..E11, X1..X5)
    list         show families, protocols, and the experiment catalog
    help         show this message

COMMON FLAGS:
    --family <name>      network family (default: complete; see `gossip list`)
    --n <int>            number of nodes (default: 64)
    --protocol <name>    protocol (default: async; see `gossip list`)
    --trials <int>       independent trials (default: 20)
    --seed <int>         trial RNG seed (default: 42)
    --build-seed <int>   family construction seed (default: 1)
    --start <int>        start node (default: family's suggested start)
    --max-time <float>   cutoff in time units / rounds (default: 100000)
    --engine <name>      auto | event | window (run + scenario run; default auto)
    --output jsonl <path>  stream one JSON record per trial to <path>
    --journal <path>     scenario run: journal each completed sweep cell to <path>
                         (crash-safe JSONL; flushed per cell)
    --resume <path>      scenario run: replay the completed cells of a journal and
                         execute only the rest — bit-identical to an uninterrupted
                         run; with no spec file, the journal's embedded spec is used
    --addr <host:port>   serve/submit: daemon address (default: 127.0.0.1:7373)
    --store <dir>        serve: result-store directory (default: gossip-store)
    --groups <int>       net run: node-group threads per trial (default: cores, max 8),
                         written into the spec's [net] table
    --delivery <name>    net run: local | udp transport between node groups, written
                         into the spec's [net] table
    --histogram          render the spread-time distribution (run command)

EXAMPLES:
    gossip run --family regular --d 4 --n 256 --trials 50
    gossip run --family dynamic-star --n 200 --protocol sync
    gossip run --family complete --n 128 --protocol lossy --loss 0.5
    gossip run --family complete --n 100000 --engine event --output jsonl trials.jsonl
    gossip scenario init sweep.toml && gossip scenario run sweep.toml
    gossip scenario run sweep.toml --engine window --json
    gossip scenario run sweep.toml --output jsonl sweep.jsonl
    gossip scenario run sweep.toml --journal sweep.journal
    gossip scenario run --resume sweep.journal --output jsonl sweep.jsonl
    gossip net run scenarios/net-smoke.toml --groups 4 --output jsonl live.jsonl
    gossip scenario run scenarios/net-smoke.toml --journal live.journal
    gossip net check scenarios/net-million.toml
    gossip serve --addr 127.0.0.1:7373 --store /tmp/gossip-store
    gossip submit scenarios/gnp-sparse.toml --addr 127.0.0.1:7373
    gossip profile --family clique-pendant --n 16 --windows 12
    gossip bounds --family absolute-diligent --n 120 --rho 0.125
    gossip experiment --id E7 --quick
"
    .to_string()
}

/// `gossip scenario <action> [file] [--flags]`: the declarative-experiment
/// front end over [`gossip_core::scenario`].
pub fn scenario(action: Option<&str>, file: Option<&str>, args: &Args) -> Result<String, CliError> {
    match action {
        Some("run") => {
            let engine = args.opt("engine")?.map(str::to_string);
            let json = args.flag("json");
            let output = jsonl_output(args)?;
            let journal = args.opt("journal")?.map(str::to_string);
            let resume = args.opt("resume")?.map(str::to_string);
            args.reject_unknown()?;
            // Parsed once: the sweep replays this very journal.
            let resume = resume
                .map(|path| gossip_core::journal::Journal::load(std::path::Path::new(&path)))
                .transpose()
                .map_err(CliError::from)?;
            let mut spec = match (file, &resume) {
                (Some(path), _) => {
                    ScenarioSpec::from_path(std::path::Path::new(path)).map_err(CliError::from)?
                }
                // `--resume` without a spec file: the journal header
                // embeds the full spec (checked against it by the sweep).
                (None, Some(journal)) => journal.header.spec.clone(),
                (None, None) => {
                    return Err(CliError::Usage(
                        "scenario run needs a file or --resume <journal>: \
                         `gossip scenario run <file>`"
                            .into(),
                    ))
                }
            };
            if let Some(engine) = engine {
                spec.sweep.engine = Some(engine);
            }
            run_sweep(&spec, journal.as_deref(), resume.as_ref(), output, json)
        }
        Some("check") => {
            let path = file.ok_or_else(|| {
                CliError::Usage(
                    "scenario check needs a file: `gossip scenario check <file>`".into(),
                )
            })?;
            args.reject_unknown()?;
            let spec =
                ScenarioSpec::from_path(std::path::Path::new(path)).map_err(CliError::from)?;
            spec.validate().map_err(CliError::from)?;
            Ok(format!(
                "ok: scenario `{}` — family {}, protocol {}, {} size(s), {} trial(s) each\n",
                spec.name,
                spec.family.kind,
                spec.protocol.kind,
                spec.sweep.sizes.len(),
                spec.sweep.trials_or_default(),
            ))
        }
        Some("init") => {
            args.reject_unknown()?;
            let template = ScenarioSpec::template().to_toml_string();
            match file {
                Some(path) => {
                    std::fs::write(path, &template)
                        .map_err(|e| CliError::Scenario(format!("cannot write {path}: {e}")))?;
                    Ok(format!("wrote scenario template to {path}\n"))
                }
                None => Ok(template),
            }
        }
        Some("list") => {
            args.reject_unknown()?;
            let mut out = String::new();
            out.push_str("SCENARIO FAMILIES (family.kind)\n");
            for f in gossip_core::scenario::families() {
                let _ = writeln!(
                    out,
                    "  {:<18} {:<28} {}",
                    f.name,
                    f.params.join(" "),
                    f.synopsis
                );
            }
            out.push_str("\nSCENARIO PROTOCOLS (protocol.kind)\n");
            for p in gossip_core::scenario::protocols() {
                let incr = if gossip_core::scenario::protocol_is_incremental(p.name) {
                    "event+window"
                } else {
                    "window only"
                };
                let _ = writeln!(out, "  {:<18} {:<12} {}", p.name, incr, p.synopsis);
            }
            Ok(out)
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown scenario action `{other}` (run, check, init, list)"
        ))),
        None => Err(CliError::Usage(
            "scenario needs an action: `gossip scenario run|check|init|list [file]`".into(),
        )),
    }
}

/// `gossip net <action> [file] [--flags]`: the live message-passing
/// runtime front end over [`gossip_net`].
pub fn net(action: Option<&str>, file: Option<&str>, args: &Args) -> Result<String, CliError> {
    match action {
        Some("run") => {
            let groups = args
                .opt("groups")?
                .map(|s| {
                    s.parse::<usize>().ok().filter(|&g| g > 0).ok_or_else(|| {
                        CliError::Usage(format!("--groups expects a positive integer, got `{s}`"))
                    })
                })
                .transpose()?;
            let delivery = args
                .opt("delivery")?
                .map(|s| {
                    DeliveryKind::parse(s).ok_or_else(|| {
                        CliError::Usage(format!("unknown delivery `{s}` (local, udp)"))
                    })
                })
                .transpose()?;
            let json = args.flag("json");
            let output = jsonl_output(args)?;
            args.reject_unknown()?;
            let path = file.ok_or_else(|| {
                CliError::Usage("net run needs a file: `gossip net run <file>`".into())
            })?;
            let mut spec =
                ScenarioSpec::from_path(std::path::Path::new(path)).map_err(CliError::from)?;
            let net = spec.net.get_or_insert_with(NetSpec::new);
            if let Some(g) = groups {
                net.groups = Some(g);
            }
            if let Some(d) = delivery {
                net.delivery = Some(d.name().to_string());
            }
            run_sweep(&spec, None, None, output, json)
        }
        Some("check") => {
            let path = file.ok_or_else(|| {
                CliError::Usage("net check needs a file: `gossip net check <file>`".into())
            })?;
            args.reject_unknown()?;
            let spec =
                ScenarioSpec::from_path(std::path::Path::new(path)).map_err(CliError::from)?;
            let sweep = NetSweep::new(&spec).map_err(CliError::from)?;
            let cfg = sweep.config();
            Ok(format!(
                "ok: scenario `{}` runs live — family {}, protocol {}, {} size(s), \
                 {} trial(s) each, {} groups, horizon {}\n",
                spec.name,
                spec.family.kind,
                spec.protocol.kind,
                spec.sweep.sizes.len(),
                spec.sweep.trials_or_default(),
                cfg.groups,
                cfg.horizon,
            ))
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown net action `{other}` (run, check)"
        ))),
        None => Err(CliError::Usage(
            "net needs an action: `gossip net run|check <file>`".into(),
        )),
    }
}

/// `gossip serve [--addr host:port] [--store dir]`: the
/// simulation-as-a-service daemon ([`gossip_serve`]). Blocks until
/// SIGTERM or SIGINT, then shuts down gracefully — no new connections,
/// in-flight sweeps finish and their journals flush before exit.
/// Prints a readiness line to stderr once the socket is bound, and on
/// shutdown how many sweeps it executed and how many hits it served from
/// an entry held in memory.
pub fn serve(args: &Args) -> Result<String, CliError> {
    let addr = args.opt("addr")?.unwrap_or("127.0.0.1:7373").to_string();
    let store = args.opt("store")?.unwrap_or("gossip-store").to_string();
    args.reject_unknown()?;
    let server = gossip_serve::Server::bind(addr.as_str(), &store)
        .map_err(|e| CliError::Scenario(format!("cannot bind {addr}: {e}")))?;
    let local = server
        .local_addr()
        .map_err(|e| CliError::Scenario(format!("cannot query bound address: {e}")))?;
    let shutdown = server
        .shutdown_handle()
        .map_err(|e| CliError::Scenario(format!("cannot create shutdown handle: {e}")))?;
    crate::signal::install_termination_handler();
    std::thread::spawn(move || loop {
        if crate::signal::termination_requested() {
            eprintln!("gossip serve: termination signal received, draining in-flight requests");
            shutdown.shutdown();
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    });
    eprintln!("gossip serve: listening on {local}, result store at {store}");
    let state = server.state();
    server
        .run()
        .map_err(|e| CliError::Scenario(format!("serve failed: {e}")))?;
    eprintln!(
        "gossip serve: shut down cleanly (journals flushed; {} sweep executions, {} hits \
         served from memory)",
        state.executions(),
        state.memory_hits()
    );
    Ok(String::new())
}

/// `gossip submit <file> [--addr host:port]`: sends a scenario spec to a
/// running `gossip serve` daemon and prints the raw response — header
/// line, one JSONL line per trial (byte-identical to
/// `scenario run --output jsonl`), and the report footer.
pub fn submit(file: Option<&str>, args: &Args) -> Result<String, CliError> {
    let addr = args.opt("addr")?.unwrap_or("127.0.0.1:7373").to_string();
    args.reject_unknown()?;
    let path = file.ok_or_else(|| {
        CliError::Usage(
            "submit needs a spec file: `gossip submit <file> [--addr host:port]`".into(),
        )
    })?;
    let spec = ScenarioSpec::from_path(std::path::Path::new(path)).map_err(CliError::from)?;
    let response = gossip_serve::submit(addr.as_str(), &spec)
        .map_err(|e| CliError::Scenario(format!("submit to {addr} failed: {e}")))?;
    String::from_utf8(response)
        .map_err(|_| CliError::Scenario("daemon response was not valid UTF-8".into()))
}

/// `gossip list`.
pub fn list(args: &Args) -> Result<String, CliError> {
    args.reject_unknown()?;
    let mut out = String::new();
    out.push_str("FAMILIES (--family)\n");
    for f in family::list() {
        let _ = writeln!(out, "  {:<18} {:<28} {}", f.name, f.flags, f.synopsis);
    }
    out.push_str("\nPROTOCOLS (--protocol)\n");
    for p in proto::list() {
        let _ = writeln!(out, "  {:<18} {:<28} {}", p.name, p.flags, p.synopsis);
    }
    out.push_str("\nEXPERIMENTS (gossip experiment --id <ID> [--quick])\n");
    for e in gossip_core::experiment::catalog() {
        let _ = writeln!(out, "  {:<5} {:<42} {}", e.id, e.paper_item, e.claim);
    }
    Ok(out)
}

/// `gossip run`.
pub fn run(args: &Args) -> Result<String, CliError> {
    let family_name = args.opt("family")?.unwrap_or("complete").to_string();
    let proto_name = args.opt("protocol")?.unwrap_or("async").to_string();
    let trials = args.opt_usize("trials", 20)?;
    let seed = args.opt_u64("seed", 42)?;
    let start = args.opt("start")?.map(|s| {
        s.parse::<u32>()
            .map_err(|_| CliError::Usage(format!("--start expects a node id, got `{s}`")))
    });
    let start = match start {
        None => None,
        Some(r) => Some(r?),
    };
    let max_time = args.opt_f64("max-time", 1e5)?;
    let histogram = args.flag("histogram");
    let engine = gossip_core::scenario::parse_engine(args.opt("engine")?)?;
    let output = jsonl_output(args)?;
    if trials == 0 {
        return Err(CliError::Usage("--trials must be at least 1".into()));
    }

    // Validate the configuration once, eagerly, so a typo fails before
    // the trial loop spins up threads.
    let probe_net = family::build(&family_name, args)?;
    let proto_spec = proto::spec_from_args(&proto_name, args)?;
    let label = protocol_label(&proto_spec, &proto::build_any(&proto_name, args)?);
    // `lossy` is a spelling of async plus faults: its parameters run on
    // the fault layer.
    let faults = fold_lossy(&proto_spec, FaultModel::default());
    let n = probe_net.n();
    args.reject_unknown()?;

    let mut jsonl = match output {
        Some(path) => Some((open_jsonl(path)?, path)),
        None => None,
    };
    let mut plan = RunPlan::new(trials, seed)
        .config(RunConfig::with_max_time(max_time))
        .engine(engine)
        .start_opt(start);
    if faults.is_active() {
        plan = plan.faults(faults);
    }
    if let Some((sink, _)) = jsonl.as_mut() {
        plan = plan.observer(sink);
    }
    let report = plan
        .execute(
            || family::build(&family_name, args).expect("validated above"),
            || proto::build_any(&proto_name, args).expect("validated above"),
        )
        .map_err(CliError::Sim)?;
    let summary = report.summary();

    let mut out = String::new();
    let _ = writeln!(out, "family    : {family_name} (n = {n})");
    let _ = writeln!(out, "protocol  : {label} ");
    let _ = writeln!(out, "engine    : {}", report.engine().name());
    let _ = writeln!(out, "trials    : {trials} (seed {seed})");
    let _ = writeln!(
        out,
        "completed : {}/{} ({:.1}%)",
        summary.completed(),
        summary.trials(),
        100.0 * summary.completion_rate()
    );
    let _ = writeln!(
        out,
        "events    : {} total ({:.1}/trial, {:.0}/sec)",
        report.events(),
        report.events() as f64 / trials as f64,
        report.events_per_sec()
    );
    if summary.completed() > 0 {
        let _ = writeln!(
            out,
            "mean      : {:>10.4}  (std {:.4})",
            summary.mean(),
            summary.std_dev()
        );
        let _ = writeln!(out, "median    : {:>10.4}", summary.median());
        let _ = writeln!(out, "q90       : {:>10.4}", summary.quantile(0.90));
        let _ = writeln!(out, "q95 (whp) : {:>10.4}", summary.whp_spread_time());
        let _ = writeln!(out, "max       : {:>10.4}", summary.max());
        if histogram {
            let lo = summary.quantile(0.0);
            let hi = summary.max();
            // Widen degenerate ranges so single-valued distributions
            // (e.g. sync on the dynamic star) still render.
            let hi = if hi > lo { hi * (1.0 + 1e-9) } else { lo + 1.0 };
            let buckets = summary.completed().clamp(5, 20);
            let mut h =
                gossip_stats::Histogram::new(lo, hi, buckets).expect("range validated above");
            for &t in summary.sorted_times() {
                h.record(t);
            }
            let _ = writeln!(out, "\nspread-time distribution:\n{}", h.render(44));
        }
    } else {
        let _ = writeln!(out, "no trial completed before the cutoff ({max_time})");
    }
    if let Some((sink, path)) = jsonl {
        let _ = writeln!(out, "wrote {} trial records to {path}", sink.records());
    }
    Ok(out)
}

/// `gossip profile`.
pub fn profile(args: &Args) -> Result<String, CliError> {
    let family_name = args.opt("family")?.unwrap_or("complete").to_string();
    let proto_name = args.opt("protocol")?.unwrap_or("async").to_string();
    let windows = args.opt_u64("windows", 10)?;
    let seed = args.opt_u64("seed", 42)?;
    let iters = args.opt_usize("spectral-iters", 1000)?;
    let mut net = family::build(&family_name, args)?;
    let mut protocol = proto::build(&proto_name, args)?;
    args.reject_unknown()?;

    let n = net.n();
    let exact = n <= EXACT_ENUMERATION_LIMIT;
    let mut rng = SimRng::seed_from_u64(seed);
    net.reset();
    protocol.begin(n);
    let start = net.suggested_start();
    let mut informed = NodeSet::new(n);
    informed.insert(start);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "family {family_name} (n = {n}), profile source: {}",
        if exact {
            "exact enumeration"
        } else {
            "spectral/absolute conservative bounds"
        }
    );
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>10} {:>10} {:>10} {:>6} {:>12} {:>12}",
        "t", "|I|", "phi", "rho", "rho_abs", "conn", "sum phi*rho", "sum c13"
    );
    let mut sum11 = 0.0;
    let mut sum13 = 0.0;
    for t in 0..windows {
        let g = net.topology(t, &informed, &mut rng).clone();
        let p = {
            let graph = g.graph_cow();
            if exact {
                exact_profile(&graph).map_err(CliError::Graph)?
            } else {
                conservative_profile(&graph, iters)
            }
        };
        sum11 += p.theorem_1_1_increment();
        sum13 += p.theorem_1_3_increment();
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>10.5} {:>10.5} {:>10.5} {:>6} {:>12.5} {:>12.5}",
            t,
            informed.len(),
            p.phi,
            p.rho,
            p.rho_abs,
            if p.connected { "yes" } else { "no" },
            sum11,
            sum13
        );
        if informed.is_full() {
            break;
        }
        let _ = protocol.advance_window(&g, t, &mut informed, &mut rng);
    }
    let _ = writeln!(
        out,
        "informed {}/{} after {} windows",
        informed.len(),
        n,
        windows
    );
    Ok(out)
}

/// `gossip bounds`.
pub fn bounds(args: &Args) -> Result<String, CliError> {
    let family_name = args.opt("family")?.unwrap_or("complete").to_string();
    let trials = args.opt_u64("trials", 5)?;
    let seed = args.opt_u64("seed", 42)?;
    let c = args.opt_f64("c", 1.0)?;
    let max_time = args.opt_f64("max-time", 1e5)?;
    let iters = args.opt_usize("spectral-iters", 1000)?;
    let mut net = family::build(&family_name, args)?;
    args.reject_unknown()?;

    let n = net.n();
    // Static topologies are profiled once and replayed (the accumulators
    // routinely need hundreds of windows to fire; re-enumerating an
    // unchanged graph each window would dominate the command's runtime).
    let mode = if net.is_static() {
        let mut rng = SimRng::seed_from_u64(seed);
        let g = net
            .topology(0, &NodeSet::new(n), &mut rng)
            .graph_cow()
            .into_owned();
        net.reset();
        if n <= EXACT_ENUMERATION_LIMIT {
            ProfileMode::Fixed(exact_profile(&g).map_err(CliError::Graph)?)
        } else {
            ProfileMode::Fixed(conservative_profile(&g, iters))
        }
    } else if n <= EXACT_ENUMERATION_LIMIT {
        ProfileMode::Exact
    } else {
        ProfileMode::Conservative(iters)
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "family {family_name} (n = {n}), c = {c}, profiles: {}",
        match mode {
            ProfileMode::Exact => "exact, per window".to_string(),
            ProfileMode::Conservative(k) =>
                format!("conservative ({k} spectral iters), per window"),
            ProfileMode::Fixed(_) => "static topology, profiled once".to_string(),
            _ => unreachable!(),
        }
    );
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>10} {:>10} {:>8}",
        "trial", "spread", "T11", "T13", "ratio"
    );
    let base = SimRng::seed_from_u64(seed);
    let mut worst: f64 = 0.0;
    for i in 0..trials {
        let mut rng = base.derive(i);
        let mut protocol = gossip_sim::CutRateAsync::new();
        let start = net.suggested_start();
        let outcome =
            run_tracked_generic(&mut net, &mut protocol, start, c, max_time, mode, &mut rng)
                .map_err(CliError::Sim)?;
        let spread = outcome.spread_time;
        let ratio = outcome.theorem_1_1_ratio();
        if let Some(r) = ratio {
            worst = worst.max(r);
        }
        let _ = writeln!(
            out,
            "{:>6} {:>12} {:>10} {:>10} {:>8}",
            i,
            spread.map_or("cutoff".into(), |s| format!("{s:.3}")),
            outcome
                .theorem_1_1_steps
                .map_or("n/a".into(), |s| s.to_string()),
            outcome
                .theorem_1_3_steps
                .map_or("n/a".into(), |s| s.to_string()),
            ratio.map_or("n/a".into(), |r| format!("{r:.4}")),
        );
    }
    let _ = writeln!(
        out,
        "worst measured/T11 ratio: {worst:.4} ({})",
        if worst <= 1.0 {
            "bound held"
        } else {
            "BOUND VIOLATED"
        }
    );
    Ok(out)
}

/// `gossip trace`: informed-count trajectories as CSV, one row per window
/// start plus the completion point — ready for gnuplot/matplotlib.
pub fn trace(args: &Args) -> Result<String, CliError> {
    let family_name = args.opt("family")?.unwrap_or("complete").to_string();
    let proto_name = args.opt("protocol")?.unwrap_or("async").to_string();
    let trials = args.opt_u64("trials", 3)?;
    let seed = args.opt_u64("seed", 42)?;
    let max_time = args.opt_f64("max-time", 1e5)?;
    let mut net = family::build(&family_name, args)?;
    let mut protocol = proto::build(&proto_name, args)?;
    args.reject_unknown()?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# family={family_name} protocol={} seed={seed}",
        protocol.name()
    );
    let _ = writeln!(out, "trial,time,informed");
    let base = SimRng::seed_from_u64(seed);
    for i in 0..trials {
        let mut rng = base.derive(i);
        let start = net.suggested_start();
        let outcome = gossip_sim::Simulation::new(
            &mut protocol,
            RunConfig::with_max_time(max_time).recording(),
        )
        .run(&mut net, start, &mut rng)
        .map_err(CliError::Sim)?;
        for &(time, informed) in outcome.trajectory() {
            let _ = writeln!(out, "{i},{time},{informed}");
        }
    }
    Ok(out)
}

/// `gossip experiment`.
pub fn experiment(args: &Args) -> Result<String, CliError> {
    let id = args
        .opt("id")?
        .ok_or_else(|| CliError::Usage("experiment needs --id (e.g. --id E7)".into()))?
        .to_uppercase();
    let scale = if args.flag("quick") {
        gossip_bench::Scale::Quick
    } else {
        gossip_bench::Scale::Full
    };
    args.reject_unknown()?;
    use gossip_bench::experiments as ex;
    if id == "ALL" {
        return Ok(ex::run_all(scale));
    }
    let run = ex::find(&id).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown experiment id `{id}` (E1..E11, X1..X5, or ALL)"
        ))
    })?;
    Ok(run(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn run_reports_statistics() {
        let a = args("run --family complete --n 24 --trials 10 --seed 3");
        let out = run(&a).unwrap();
        assert!(out.contains("completed : 10/10"), "{out}");
        assert!(out.contains("median"), "{out}");
        // Event accounting: cut-rate resolves exactly n - 1 informative
        // events per complete trial, and the throughput figure rides along.
        assert!(out.contains("events    : 230 total (23.0/trial"), "{out}");
        assert!(out.contains("/sec)"), "{out}");
    }

    #[test]
    fn run_rejects_the_removed_ab_switches() {
        for flag in ["scalar", "fresh-alloc"] {
            let a = args(&format!("run --family complete --n 16 --{flag}"));
            assert!(
                matches!(run(&a), Err(CliError::Usage(m)) if m.contains(flag)),
                "--{flag}"
            );
        }
    }

    #[test]
    fn run_rejects_zero_trials() {
        let a = args("run --trials 0");
        assert!(matches!(run(&a), Err(CliError::Usage(_))));
    }

    #[test]
    fn run_rejects_unknown_flag() {
        let a = args("run --family complete --n 16 --trails 9");
        assert!(matches!(run(&a), Err(CliError::Usage(m)) if m.contains("trails")));
    }

    #[test]
    fn run_histogram_renders() {
        let a = args("run --family complete --n 24 --trials 30 --seed 3 --histogram");
        let out = run(&a).unwrap();
        assert!(out.contains("spread-time distribution"), "{out}");
        // Degenerate (single-valued) distributions must render too.
        let a = args("run --family dynamic-star --n 20 --protocol sync --trials 5 --histogram");
        let out = run(&a).unwrap();
        assert!(out.contains("spread-time distribution"), "{out}");
    }

    #[test]
    fn run_engine_flag_selects_engine() {
        let a = args("run --family complete --n 24 --trials 5 --seed 3 --engine window");
        let out = run(&a).unwrap();
        assert!(out.contains("engine    : window"), "{out}");
        let a = args("run --family complete --n 24 --trials 5 --seed 3 --engine event");
        let out = run(&a).unwrap();
        assert!(out.contains("engine    : event"), "{out}");
        // Default auto resolves per protocol: sync is window-only.
        let a = args("run --family complete --n 24 --trials 5 --protocol sync");
        let out = run(&a).unwrap();
        assert!(out.contains("engine    : window"), "{out}");
        // Forcing the event engine on sync is a clean error.
        let a = args("run --family complete --n 24 --trials 5 --protocol sync --engine event");
        assert!(matches!(run(&a), Err(CliError::Sim(_))));
    }

    #[test]
    fn run_streams_jsonl_records() {
        let path = std::env::temp_dir().join("gossip_cli_run_test.jsonl");
        let path_str = path.to_str().unwrap();
        let a = args(&format!(
            "run --family complete --n 16 --trials 7 --seed 3 --output jsonl {path_str}"
        ));
        let out = run(&a).unwrap();
        assert!(out.contains("wrote 7 trial records"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 7);
        for line in text.lines() {
            let r: gossip_sim::TrialRecord = serde_json::from_str(line).unwrap();
            assert_eq!(r.n, 16);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_with_lossy_protocol() {
        let a = args("run --family complete --n 16 --protocol lossy --loss 0.3 --trials 5");
        let out = run(&a).unwrap();
        assert!(out.contains("lossy"), "{out}");
    }

    #[test]
    fn scenario_check_refuses_delivery_chaos_on_analytic_specs() {
        // `scenario check` must refuse what `scenario run` refuses, also
        // when the spec forces the window engine.
        let path = std::env::temp_dir().join("gossip_cli_chaos_check.toml");
        let spec = "name = \"chaos\"\n[family]\nkind = \"complete\"\n[protocol]\n\
                    kind = \"async\"\n[sweep]\nsizes = [32]\n[faults]\npartition_rate = 0.2\n";
        for engine in ["", "engine = \"window\"\n"] {
            let text = spec.replace("sizes = [32]\n", &format!("sizes = [32]\n{engine}"));
            std::fs::write(&path, text).unwrap();
            let out = scenario(Some("check"), path.to_str(), &args("scenario"));
            assert!(
                matches!(&out, Err(CliError::Scenario(m)) if m.contains("perturb the delivery layer")),
                "{out:?}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_incomplete_when_cutoff_tiny() {
        let a = args("run --family path --n 64 --trials 3 --max-time 0.001");
        let out = run(&a).unwrap();
        assert!(out.contains("no trial completed"), "{out}");
    }

    #[test]
    fn profile_prints_windows() {
        let a = args("profile --family dynamic-star --n 12 --windows 6");
        let out = profile(&a).unwrap();
        assert!(out.contains("exact enumeration"), "{out}");
        assert!(out.contains("sum phi*rho"), "{out}");
    }

    #[test]
    fn profile_large_uses_conservative() {
        let a = args("profile --family regular --d 4 --n 64 --windows 2");
        let out = profile(&a).unwrap();
        assert!(out.contains("conservative"), "{out}");
    }

    #[test]
    fn bounds_holds_on_star() {
        let a = args("bounds --family star --n 16 --trials 3");
        let out = bounds(&a).unwrap();
        assert!(out.contains("bound held"), "{out}");
        assert!(out.contains("profiled once"), "{out}");
    }

    #[test]
    fn bounds_dynamic_family_profiles_per_window() {
        let a = args("bounds --family dynamic-star --n 10 --trials 2");
        let out = bounds(&a).unwrap();
        assert!(out.contains("exact, per window"), "{out}");
        assert!(out.contains("bound held"), "{out}");
    }

    #[test]
    fn trace_and_profile_refuse_active_lossy() {
        // They drive the window engine, which has no fault layer: refuse
        // instead of running the spread lossless.
        let commands = [("trace", trace as fn(&Args) -> _), ("profile", profile)];
        for (cmd, run) in commands {
            let out = run(&args(&format!(
                "{cmd} --family complete --n 16 --protocol lossy --loss 0.3"
            )));
            assert!(
                matches!(&out, Err(CliError::Scenario(m)) if m.contains("gossip run")),
                "{cmd}: {out:?}"
            );
        }
        // lossy at loss 0 is plain async push-pull and still traces.
        assert!(trace(&args("trace --family complete --n 16 --protocol lossy")).is_ok());
    }

    #[test]
    fn trace_emits_csv() {
        let a = args("trace --family dynamic-star --n 16 --trials 2 --seed 5");
        let out = trace(&a).unwrap();
        assert!(out.starts_with("# family=dynamic-star"), "{out}");
        assert!(out.contains("trial,time,informed"), "{out}");
        // Both trials appear and each reaches full informed count.
        assert!(out.lines().any(|l| l.starts_with("0,")), "{out}");
        assert!(out.lines().any(|l| l.starts_with("1,")), "{out}");
        assert!(out.lines().any(|l| l.ends_with(",16")), "{out}");
        // Monotone informed counts within a trial.
        let counts: Vec<usize> = out
            .lines()
            .filter(|l| l.starts_with("0,"))
            .map(|l| l.rsplit(',').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    #[test]
    fn help_covers_trace() {
        assert!(help().contains("trace"));
    }

    #[test]
    fn experiment_requires_id() {
        let a = args("experiment");
        assert!(matches!(experiment(&a), Err(CliError::Usage(_))));
        let a = args("experiment --id E99");
        assert!(matches!(experiment(&a), Err(CliError::Usage(_))));
    }

    #[test]
    fn list_covers_everything() {
        let a = args("list");
        let out = list(&a).unwrap();
        for f in family::list() {
            assert!(out.contains(f.name), "missing family {}", f.name);
        }
        for p in proto::list() {
            assert!(out.contains(p.name), "missing protocol {}", p.name);
        }
        assert!(out.contains("E11") && out.contains("X4"));
    }

    #[test]
    fn help_mentions_all_commands() {
        let h = help();
        for cmd in ["run", "profile", "bounds", "experiment", "list"] {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
    }
}
