//! Incremental (event-stream) vs window-based engine comparison, and
//! implicit vs materialized topology-backend comparison.
//!
//! Benchmarks full spread-to-completion runs of `CutRateAsync`:
//!
//! * `engine_complete` — the **implicit** complete-graph backend (the
//!   default since the topology-backend PR) across n ∈ {1e3, 1e4, 1e5}.
//!   The closed-form cut rate makes a run O(n) total, so n = 1e5 — whose
//!   CSR adjacency alone would be ≈ 40 GB — runs in milliseconds with
//!   O(n) peak memory.
//! * `engine_complete_mat` — the materialized CSR baseline (what every
//!   run paid before this PR) at n ∈ {1e3, 1e4}; the
//!   `backend_speedup/complete/n` metrics quantify implicit ÷ materialized
//!   on the event engine.
//! * `engine_circulant` — sparse d = 16 circulant (materialized), where
//!   the window-vs-event gap is the original event-stream story.
//! * `engine_gnp` — sparse `G(n, p)` with `np ≈ 20` across
//!   n ∈ {1e3, 1e4, 1e5}, **sampled** (seeded lazy rows, adjacency
//!   realized during the spread) vs **materialized** (eager
//!   geometric-skip generation + CSR build). Each iteration draws a fresh
//!   seed and pays full generation + spread, so the
//!   `backend_speedup/gnp/<n>` metric is the end-to-end per-trial cost
//!   ratio of the two representations.
//!
//! * `inner_loop` — the event engine's vectorized loop on the cells it
//!   targets: simulator-bound sparse `G(n, p)` (mean degree 100–200) and
//!   a spread-offset d = 128 circulant, single thread, ns/event (the
//!   median of five batches after one warm-up batch).
//! * `trial_throughput` — the driver's trials/sec on many small trials
//!   (per-worker workspace reuse plus chunked record delivery) at
//!   n ∈ {100, 1e3, 1e4} per family.
//! * `sweep_parallel` — a whole 8-cell sweep through
//!   [`gossip_core::scenario::SweepPlan`], sequential cells vs
//!   `cell_parallel` work stealing over the same thread budget.
//!   `sweep_parallel/available_parallelism` records the hardware
//!   context; on a single-core host the speedup ratio is *skipped* with
//!   a printed note (a ≈ 1.0 "speedup" there is scheduler noise, not a
//!   measurement) and `sweep_parallel_speedup/complete/<cells>` is only
//!   recorded when ≥ 2 hardware threads exist.
//! * `serve_cache` — the `gossip-serve` daemon end to end over TCP on
//!   `scenarios/gnp-sparse.toml`: `cache_speedup/gnp-sparse` = cold
//!   first submission ÷ content-addressed cache-hit replay (zero trials
//!   execute on the hit path), `serve_throughput/gnp-sparse` = cache-hit
//!   requests/second, and `warm_topology_speedup/gnp-sparse` = a cold
//!   daemon ÷ a warm daemon executing a fresh seed of the same sampled
//!   `G(n, p)` family (`scenarios/serve-cache.toml`), i.e. the realized
//!   topology cache alone.
//! * `huge_trial` — one n = 10⁷ sparse sampled `G(n, p)` trial
//!   (mean degree ≈ 8), horizon-bounded at t = 7.0: full spread on a
//!   graph this size is DRAM-bound for tens of seconds, so the bench
//!   times the horizon-bounded trial (≈ 10⁵ informative events) after
//!   one unmeasured warm-up trial pays the page-fault cost of first
//!   touch. Adjacency realization is warmed outside the timed region.
//!   Acceptance bar: < 1 s (asserted in-process).
//!
//! Metrics written to `BENCH_engine.json` (workspace root):
//! `speedup/<family>/<n>` = window ÷ event per backend,
//! `backend_speedup/complete/<n>` = materialized-event ÷ implicit-event,
//! `backend_speedup/gnp/<n>` = materialized-event ÷ sampled-event
//! (end-to-end per-trial; ≈ 1 because both representations now share the
//! geometric-skip sampler and the spread itself dominates — the sampled
//! backend's win is O(1) construction, no CSR build, and `Arc`-shared
//! realization across a sweep's trials),
//! `generation_speedup/gnp/<n>` = pre-refactor per-pair scan ÷
//! geometric-skip generation (the `Θ(n²)` → `O(n + n²p)` drop itself),
//! `runplan_overhead/complete/<n>` = `RunPlan::execute` ÷ raw trial
//! loop on the identical workload (the unified driver must stay under
//! 1.02, i.e. < 2% added),
//! `inner_loop/<family>/<n>` = the vectorized loop's ns/event,
//! `trial_throughput/<family>/<n>` = trials/sec of a batch,
//! `sweep_parallel/available_parallelism` = hardware threads seen by the
//! sweep scheduler (always recorded), with
//! `sweep_parallel_speedup/complete/<cells>` = sequential ÷
//! cell-parallel sweep wall clock recorded only when that parallelism
//! is ≥ 2,
//! `cache_speedup/gnp-sparse` / `serve_throughput/gnp-sparse` /
//! `warm_topology_speedup/gnp-sparse` = the simulation-as-a-service
//! figures described above,
//! `huge_trial/gnp/10000000` = seconds for the horizon-bounded n = 10⁷
//! trial (with `huge_trial_events/gnp/10000000` informative events
//! resolved inside the horizon),
//! `net_throughput/complete/100000` = events/second of the live
//! `gossip-net` runtime (node-group actors, local delivery) on one
//! horizon-bounded n = 1e5 trial, and
//! `net_million/complete/1000000` = the same figure at the
//! million-actor scale demo (8 groups, t ≤ 8; full mode only).
//!
//! Env knobs:
//! * `BENCH_ENGINE_SMOKE=1` — one fast iteration per group, no JSON
//!   rewrite: the CI regression tripwire (a backend perf regression shows
//!   up as a wall-clock blowout or an assertion failure, loudly).
//! * `BENCH_ENGINE_FULL=1` — adds the materialized complete graph at
//!   n = 1e5 (≈ 40 GB CSR; generation dominates) — normally pointless,
//!   kept for one-off comparisons on big-memory hosts.
//!
//! Run with: `cargo bench -p gossip-bench --bench engine`

use criterion::{BenchmarkId, Criterion};
use gossip_core::scenario::{FamilySpec, ProtocolSpec, ScenarioSpec, SweepPlan, SweepSpec};
use gossip_dynamics::{DynamicNetwork, StaticNetwork};
use gossip_graph::{generators, Topology};
use gossip_net::{DeliveryKind, NetConfig, NetExecutor, NetProtocol, NetTraffic};
use gossip_sim::{
    AnyProtocol, CutRateAsync, Engine, EventSimulation, RunConfig, RunPlan, RunReport, Simulation,
};
use gossip_stats::SimRng;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const CIRCULANT_DEGREE: usize = 16;

/// Worker count for the `trial_throughput` driver benchmarks.
///
/// `RunPlan::new` defaults to `available_parallelism()`, so on a modern
/// 16-hardware-thread host this *is* the out-of-the-box driver shape; the
/// benchmark pins it so the measurement is the same workload everywhere.
/// Channel sends and pacing handshakes are the overhead that grows with
/// worker count, and what chunked record delivery amortizes.
const THROUGHPUT_THREADS: usize = 16;

struct Knobs {
    smoke: bool,
    full: bool,
}

fn bench_pair(c: &mut Criterion, group: &str, n: usize, topology: &Topology, knobs: &Knobs) {
    let mut g = c.benchmark_group(group);
    if knobs.smoke {
        g.sample_size(2);
    } else {
        g.sample_size(if n >= 100_000 { 3 } else { 5 });
    }

    g.bench_with_input(BenchmarkId::new("window", n), &n, |b, _| {
        let mut net = StaticNetwork::from_topology(topology.clone());
        let mut sim = Simulation::new(CutRateAsync::new(), RunConfig::default());
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = SimRng::seed_from_u64(seed);
            let o = sim.run(&mut net, 0, &mut rng).expect("valid");
            assert!(o.complete());
            o
        });
    });
    g.bench_with_input(BenchmarkId::new("event", n), &n, |b, _| {
        let mut net = StaticNetwork::from_topology(topology.clone());
        let mut sim = EventSimulation::new(CutRateAsync::new(), RunConfig::default());
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = SimRng::seed_from_u64(seed);
            let o = sim.run(&mut net, 0, &mut rng).expect("valid");
            assert!(o.complete());
            o
        });
    });
    g.finish();

    let window = c
        .measurement_ns(&format!("{group}/window/{n}"))
        .expect("window measurement recorded");
    let event = c
        .measurement_ns(&format!("{group}/event/{n}"))
        .expect("event measurement recorded");
    let family = group.strip_prefix("engine_").unwrap_or(group);
    c.record_metric(format!("speedup/{family}/{n}"), window / event);
}

/// Sampled vs materialized `G(n, p)` on the event engine, generation
/// included: every iteration uses a fresh seed, so the sampled side pays
/// lazy row realization during the spread and the materialized side pays
/// eager generation plus the CSR build up front. Spread-to-completion is
/// asserted (sparse `G(n, p)` with `np ≈ 20` is connected w.h.p.; seeds
/// are deterministic, so a pass is a pass forever).
fn bench_gnp(c: &mut Criterion, n: usize, knobs: &Knobs) {
    let p = 20.0 / (n as f64 - 1.0);
    let mut g = c.benchmark_group("engine_gnp");
    if knobs.smoke {
        g.sample_size(2);
    } else {
        g.sample_size(if n >= 100_000 { 3 } else { 5 });
    }
    // Seed streams disjoint from every other group in this bench.
    g.bench_with_input(BenchmarkId::new("sampled", n), &n, |b, _| {
        let mut sim = EventSimulation::new(CutRateAsync::new(), RunConfig::with_max_time(100.0));
        let mut seed = 31_000u64;
        b.iter(|| {
            seed += 1;
            let topology = Topology::gnp(n, p, seed).expect("valid parameters");
            let mut net = StaticNetwork::from_topology(topology);
            let mut rng = SimRng::seed_from_u64(seed);
            let o = sim.run(&mut net, 0, &mut rng).expect("valid");
            assert!(o.complete());
            o
        });
    });
    g.bench_with_input(BenchmarkId::new("materialized", n), &n, |b, _| {
        let mut sim = EventSimulation::new(CutRateAsync::new(), RunConfig::with_max_time(100.0));
        let mut seed = 31_000u64;
        b.iter(|| {
            seed += 1;
            let mut build_rng = SimRng::seed_from_u64(seed);
            let graph = generators::erdos_renyi(n, p, &mut build_rng).expect("valid parameters");
            let mut net = StaticNetwork::new(graph);
            let mut rng = SimRng::seed_from_u64(seed);
            let o = sim.run(&mut net, 0, &mut rng).expect("valid");
            assert!(o.complete());
            o
        });
    });
    g.finish();

    let sampled = c
        .measurement_ns(&format!("engine_gnp/sampled/{n}"))
        .expect("sampled measurement recorded");
    let materialized = c
        .measurement_ns(&format!("engine_gnp/materialized/{n}"))
        .expect("materialized measurement recorded");
    c.record_metric(format!("backend_speedup/gnp/{n}"), materialized / sampled);
}

/// `G(n, p)` *generation* cost: the geometric-skip sampler (what
/// `generators::erdos_renyi` routes through since the sampled-topology
/// refactor) against the pre-refactor per-pair Bernoulli scan, rebuilt
/// here as the baseline. The `generation_speedup/gnp/<n>` metric is
/// pairscan ÷ skip — the `Θ(n²) → O(n + n²p)` drop that makes sparse
/// random graphs at n ≥ 1e5 usable at all (the scan at n = 1e5 costs
/// ≈ 5·10⁹ RNG draws ≈ tens of seconds *per graph*, which is why this
/// group stops at n = 1e4).
fn bench_gnp_generation(c: &mut Criterion, n: usize, knobs: &Knobs) {
    let p = 20.0 / (n as f64 - 1.0);
    let mut g = c.benchmark_group("gnp_generation");
    g.sample_size(if knobs.smoke { 2 } else { 5 });

    g.bench_with_input(BenchmarkId::new("skip", n), &n, |b, _| {
        let mut seed = 41_000u64;
        b.iter(|| {
            seed += 1;
            let mut rng = SimRng::seed_from_u64(seed);
            let g = generators::erdos_renyi(n, p, &mut rng).expect("valid parameters");
            assert!(g.m() > 0);
            g
        });
    });
    g.bench_with_input(BenchmarkId::new("pairscan", n), &n, |b, _| {
        let mut seed = 41_000u64;
        b.iter(|| {
            // The pre-refactor generator: one Bernoulli draw per pair.
            seed += 1;
            let mut rng = SimRng::seed_from_u64(seed);
            let mut builder = gossip_graph::GraphBuilder::new(n);
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.chance(p) {
                        builder.add_edge(u, v).expect("valid edge");
                    }
                }
            }
            let g = builder.build();
            assert!(g.m() > 0);
            g
        });
    });
    g.finish();

    let skip = c
        .measurement_ns(&format!("gnp_generation/skip/{n}"))
        .expect("skip measurement recorded");
    let pairscan = c
        .measurement_ns(&format!("gnp_generation/pairscan/{n}"))
        .expect("pairscan measurement recorded");
    c.record_metric(format!("generation_speedup/gnp/{n}"), pairscan / skip);
}

/// Batched trial throughput: the driver's trials/sec on many small
/// trials — `trials` spreads of the boxed cut-rate protocol at
/// `THROUGHPUT_THREADS` workers with per-trial `derive(i)` seeding,
/// per-worker [`gossip_sim::SimWorkspace`] reuse and chunked record
/// delivery (one message per up-to-64-trial chunk).
///
/// Metric: `trial_throughput/<family>/<n>` = trials/sec. Sub-5µs trials
/// (n = 100, structured backends) are driver-bound; at n = 10⁴ the
/// spread itself dominates.
fn bench_trial_throughput<N, F>(
    c: &mut Criterion,
    family: &str,
    n: usize,
    trials: usize,
    knobs: &Knobs,
    make_net: F,
) where
    N: DynamicNetwork,
    F: Fn() -> N + Sync + Copy,
{
    let trials = if knobs.smoke { trials.min(256) } else { trials };
    let mut g = c.benchmark_group("trial_throughput");
    g.sample_size(if knobs.smoke { 2 } else { 5 });

    let run = move || {
        let report = RunPlan::new(trials, 7_700 + n as u64)
            .threads(THROUGHPUT_THREADS)
            .start(0)
            .config(RunConfig::default())
            .execute(make_net, || AnyProtocol::event(CutRateAsync::new()))
            .expect("valid plan");
        assert_eq!(report.trials(), trials);
        assert!(
            report.completion_rate() > 0.99,
            "{family}/{n}: only {} of {trials} trials completed",
            report.completed()
        );
        report
    };
    g.bench_with_input(BenchmarkId::new(family, n), &n, |b, _| {
        b.iter(run);
    });
    g.finish();

    let batch = c
        .measurement_ns(&format!("trial_throughput/{family}/{n}"))
        .expect("batch measurement recorded");
    // measurement_ns is per full batch; report per-trial throughput.
    c.record_metric(
        format!("trial_throughput/{family}/{n}"),
        trials as f64 * 1e9 / batch,
    );
}

/// RunPlan driver overhead vs the raw trial loop it replaced.
///
/// Both sides run the identical workload — `RUNPLAN_TRIALS` event-engine
/// spreads of the boxed `AnyProtocol` cut-rate protocol on the implicit
/// complete graph, per-trial `derive(i)` seeding — so the measured gap
/// is purely the driver's own machinery (engine resolution, record
/// assembly, observer delivery into the built-in summary sink). The
/// `runplan_overhead/complete/<n>` metric is plan ÷ raw and the
/// acceptance bar is < 1.02 (under 2% added).
const RUNPLAN_TRIALS: usize = 32;

fn bench_runplan_overhead(c: &mut Criterion, n: usize, knobs: &Knobs) {
    let topology = Topology::complete(n).expect("valid n");
    let mut g = c.benchmark_group("runplan");
    g.sample_size(if knobs.smoke { 2 } else { 10 });

    g.bench_with_input(BenchmarkId::new("raw", n), &n, |b, _| {
        let topology = topology.clone();
        b.iter(|| {
            // The pre-RunPlan shape: hand-rolled loop over trials.
            let mut net = StaticNetwork::from_topology(topology.clone());
            let mut sim = EventSimulation::new(
                AnyProtocol::event(CutRateAsync::new())
                    .into_event()
                    .expect("event protocol"),
                RunConfig::default(),
            );
            let base = SimRng::seed_from_u64(9);
            let mut times = Vec::with_capacity(RUNPLAN_TRIALS);
            for i in 0..RUNPLAN_TRIALS {
                let mut rng = base.derive(i as u64);
                let o = sim.run(&mut net, 0, &mut rng).expect("valid");
                times.push(o.spread_time().expect("complete graphs finish"));
            }
            times
        });
    });
    g.bench_with_input(BenchmarkId::new("plan", n), &n, |b, _| {
        let topology = topology.clone();
        b.iter(|| {
            let report = RunPlan::new(RUNPLAN_TRIALS, 9)
                .threads(1)
                .start(0)
                .execute(
                    || StaticNetwork::from_topology(topology.clone()),
                    || AnyProtocol::event(CutRateAsync::new()),
                )
                .expect("valid");
            assert_eq!(report.completed(), RUNPLAN_TRIALS);
            report
        });
    });
    g.finish();

    let raw = c
        .measurement_ns(&format!("runplan/raw/{n}"))
        .expect("raw measurement recorded");
    let plan = c
        .measurement_ns(&format!("runplan/plan/{n}"))
        .expect("plan measurement recorded");
    c.record_metric(format!("runplan_overhead/complete/{n}"), plan / raw);
    println!("runplan overhead at n = {n}: {:.4}x", plan / raw);
}

/// Sparse circulant whose offsets *spread* across the index range
/// instead of clustering near the diagonal.
///
/// A plain `regular_circulant` keeps every neighbor within ±d/2 of the
/// node, so rate updates enjoy near-perfect cache locality and the cell
/// measures little beyond the sampling algorithm. Spreading the offsets (first offset 1 keeps the ring
/// connected; the rest land on odd strides across [1, n/2)) restores
/// the scattered-access pattern a real sparse graph has.
fn spread_circulant(n: usize, half_deg: usize) -> Topology {
    let offsets: Vec<usize> = (1..=half_deg)
        .map(|i| {
            if i == 1 {
                1
            } else {
                ((i * (n / 2 - 3)) / (half_deg + 1)) | 1
            }
        })
        .collect();
    Topology::materialized(generators::circulant(n, &offsets).unwrap())
}

/// The event engine's vectorized inner loop, in ns per informative
/// event: single thread, single process, the median of five batches
/// after one unmeasured warm-up batch that realizes lazy adjacency and
/// faults in the working set.
fn bench_inner_loop<F>(
    c: &mut Criterion,
    family: &str,
    n: usize,
    trials: usize,
    knobs: &Knobs,
    make_net: F,
) where
    F: Fn() -> StaticNetwork + Sync + Copy,
{
    let trials = if knobs.smoke { trials.min(16) } else { trials };
    let reps = if knobs.smoke { 1 } else { 5 };

    let measure = || -> f64 {
        let report = RunPlan::new(trials, 99)
            .engine(Engine::Event)
            .threads(1)
            .execute(make_net, || AnyProtocol::event(CutRateAsync::new()))
            .expect("valid plan");
        assert_eq!(
            report.completed(),
            trials,
            "inner_loop/{family}/{n}: {} of {trials} trials completed",
            report.completed()
        );
        report.elapsed().as_nanos() as f64 / report.events() as f64
    };

    let _ = measure();
    let mut runs: Vec<f64> = (0..reps).map(|_| measure()).collect();
    runs.sort_by(f64::total_cmp);
    let median = runs[reps / 2];
    println!(
        "inner_loop/{family}/{n}: {median:.1} ns/event (range {:.1}-{:.1})",
        runs[0],
        runs[reps - 1]
    );
    c.record_metric(format!("inner_loop/{family}/{n}"), median);
}

/// Whole-sweep wall clock: sequential cells vs `cell_parallel` work
/// stealing, through the same [`SweepPlan`] entry point the CLI uses.
///
/// Both modes produce bit-identical reports (test-enforced in
/// `gossip-core`); the measured gap is purely the scheduler. The cells
/// are deliberately small complete graphs so per-cell runtime is
/// driver-scale and scheduling overhead is visible. On a host with
/// fewer cores than cells the ratio sits near 1 — cell-level stealing
/// only wins when idle cores exist that per-cell trial parallelism
/// cannot fill (few trials, many cells) — so on a single-core host the
/// ratio is skipped outright (see the in-function note) and
/// `sweep_parallel/available_parallelism` records why; where it is
/// recorded, `sweep_parallel_speedup/complete/<cells>` is a measured
/// shape, not an acceptance bar.
fn bench_sweep_parallel(c: &mut Criterion, knobs: &Knobs) {
    const CELLS: usize = 8;
    let trials = if knobs.smoke { 16 } else { 512 };
    let reps = if knobs.smoke { 1 } else { 5 };

    let spec = |cell_parallel: bool| ScenarioSpec {
        name: "bench-sweep-parallel".into(),
        description: None,
        family: FamilySpec::new("complete"),
        protocol: ProtocolSpec::new("async"),
        sweep: SweepSpec {
            trials: Some(trials),
            seed: Some(7),
            cell_parallel: Some(cell_parallel),
            ..SweepSpec::over((100..100 + CELLS).collect())
        },
        faults: None,
        net: None,
    };
    let sequential = spec(false);
    let parallel = spec(true);
    let measure = |spec: &ScenarioSpec| -> f64 {
        let plan = SweepPlan::new(spec).expect("valid spec");
        let t0 = Instant::now();
        let report = plan.run().expect("sweep runs");
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(report.rows.len(), CELLS);
        assert!(report.rows.iter().all(|r| r.completed == trials));
        elapsed
    };

    // Record the hardware context first: a ≈ 1.0 "speedup" is the
    // *expected* shape on a single-core box, not a regression, and the
    // recorded parallelism is what lets a reader tell the two apart.
    let avail = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    c.record_metric("sweep_parallel/available_parallelism", avail as f64);
    if avail < 2 {
        // Documented skip-note: with one hardware thread the scheduler
        // can only rearrange work, so a ratio would be noise around 1.0
        // masquerading as a measurement. The speedup key is omitted on
        // purpose; consumers must key off available_parallelism.
        println!(
            "sweep_parallel/complete/{CELLS}: skipped — only {avail} hardware thread(s) \
             available; cell-level work stealing cannot beat sequential cells without idle \
             cores, so no sweep_parallel_speedup/complete/{CELLS} ratio is recorded"
        );
        return;
    }

    let _ = measure(&sequential);
    let _ = measure(&parallel);
    let mut ratios = Vec::with_capacity(reps);
    for _ in 0..reps {
        let seq = measure(&sequential);
        let par = measure(&parallel);
        ratios.push(seq / par);
    }
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[reps / 2];
    println!("sweep_parallel/complete/{CELLS}: sequential / cell_parallel = {ratio:.2}x");
    c.record_metric(format!("sweep_parallel_speedup/complete/{CELLS}"), ratio);
}

/// The simulation-as-a-service figures, measured end to end over TCP
/// against in-process `gossip-serve` daemons.
///
/// * `cache_speedup/gnp-sparse` — first submission of
///   `scenarios/gnp-sparse.toml` (cold: realizes the topology and runs
///   every trial) ÷ median repeat submission (content-addressed store
///   hit: the journal replays, **zero trials execute**). The ≥ 100×
///   acceptance bar is asserted in-process in full mode.
/// * `serve_throughput/gnp-sparse` — sustained cache-hit requests per
///   second against the warm daemon.
/// * `warm_topology_speedup/gnp-sparse` — a *fresh* daemon ÷ a warm
///   daemon each executing a never-cached seed of the same sampled
///   `G(n, p)` family (`scenarios/serve-cache.toml`, horizon-bounded so
///   CSR realization dominates the sweep): isolates the realized
///   topology cache, since both sides execute identical trial work.
///
/// Smoke mode swaps in a small inline spec (same keys, same code path)
/// so CI exercises the daemon without the 1e5-node workload.
fn bench_serve_cache(c: &mut Criterion, knobs: &Knobs) {
    use gossip_core::scenario::ScenarioSpec;
    use gossip_serve::{split_response, submit, Server};

    let store_root =
        std::env::temp_dir().join(format!("gossip-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);
    let spawn = |tag: &str| {
        Server::bind("127.0.0.1:0", store_root.join(tag))
            .expect("bind serve daemon")
            .spawn()
            .expect("spawn serve daemon")
    };
    let timed_submit = |addr, spec: &ScenarioSpec| -> (f64, Vec<u8>) {
        let t0 = Instant::now();
        let response = submit(addr, spec).expect("submission succeeds");
        (t0.elapsed().as_secs_f64(), response)
    };

    let sparse: ScenarioSpec = if knobs.smoke {
        let mut spec = ScenarioSpec::from_toml_str(
            "name = \"gnp-smoke\"\n[family]\nkind = \"er\"\np = 0.02\nbackend = \"sampled\"\n\
             [protocol]\nkind = \"async\"\n[sweep]\nsizes = [1000]\ntrials = 4\nseed = 42\n",
        )
        .expect("valid smoke spec");
        spec.sweep.max_time = Some(1e4);
        spec
    } else {
        ScenarioSpec::from_path(std::path::Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/gnp-sparse.toml"
        )))
        .expect("scenarios/gnp-sparse.toml loads")
    };

    // Cold (miss) vs cache-hit replay on one daemon.
    let daemon = spawn("hit");
    let (cold, cold_response) = timed_submit(daemon.addr(), &sparse);
    assert_eq!(daemon.state().executions(), 1);
    let hit_reps = if knobs.smoke { 3 } else { 9 };
    let mut hits = Vec::with_capacity(hit_reps);
    let t0 = Instant::now();
    for _ in 0..hit_reps {
        let (secs, response) = timed_submit(daemon.addr(), &sparse);
        assert_eq!(
            split_response(&response).1,
            split_response(&cold_response).1,
            "cache-hit body must be byte-identical to the live body"
        );
        hits.push(secs);
    }
    let throughput = hit_reps as f64 / t0.elapsed().as_secs_f64();
    assert_eq!(
        daemon.state().executions(),
        1,
        "repeat submissions must execute zero trials"
    );
    hits.sort_by(f64::total_cmp);
    let hit = hits[hit_reps / 2];
    let cache_speedup = cold / hit;
    println!(
        "serve_cache/gnp-sparse: cold {cold:.3}s, hit {hit:.5}s → {cache_speedup:.0}x; \
         {throughput:.0} cache-hit requests/sec"
    );
    c.record_metric("cache_speedup/gnp-sparse", cache_speedup);
    c.record_metric("serve_throughput/gnp-sparse", throughput);
    if !knobs.smoke {
        assert!(
            cache_speedup >= 100.0,
            "cache-hit replay must be ≥ 100x a cold run, measured {cache_speedup:.1}x"
        );
    }

    // Warm-topology reuse: a fresh daemon vs the already-warm daemon,
    // both executing a never-cached seed of the same sampled family.
    // Horizon-bounded trials keep CSR realization the dominant cost.
    let mut warm_spec: ScenarioSpec = if knobs.smoke {
        let mut spec = sparse.clone();
        spec.sweep.max_time = Some(1.0);
        spec
    } else {
        ScenarioSpec::from_path(std::path::Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/serve-cache.toml"
        )))
        .expect("scenarios/serve-cache.toml loads")
    };
    // Pre-warm the topology cache on the warm daemon (store misses on a
    // distinct seed), then time cold-vs-warm on another fresh seed.
    let warm_daemon = if knobs.smoke { daemon } else { spawn("warm") };
    warm_spec.sweep.seed = Some(9_001);
    let _ = timed_submit(warm_daemon.addr(), &warm_spec);
    warm_spec.sweep.seed = Some(9_002);
    let (warm, _) = timed_submit(warm_daemon.addr(), &warm_spec);
    let cold_daemon = spawn("cold");
    let (cold_exec, _) = timed_submit(cold_daemon.addr(), &warm_spec);
    let warm_speedup = cold_exec / warm;
    println!(
        "warm_topology/gnp-sparse: cold daemon {cold_exec:.3}s, warm daemon {warm:.3}s \
         → {warm_speedup:.2}x (shared sampled-topology realization)"
    );
    c.record_metric("warm_topology_speedup/gnp-sparse", warm_speedup);
    if !knobs.smoke {
        assert!(
            warm_speedup > 1.0,
            "warm-topology reuse must beat a cold daemon, measured {warm_speedup:.2}x"
        );
    }
    let _ = std::fs::remove_dir_all(&store_root);
}

/// One n = 10⁷ sparse sampled `G(n, p)` trial, horizon-bounded.
///
/// Mean degree ≈ 8, horizon t = 7.0 (full spread at this size is
/// DRAM-bound for tens of seconds; the horizon-bounded trial resolves
/// ≈ 10⁵ informative events and is what `scenarios/gnp-huge.toml`
/// runs). The adjacency is realized by a degree sweep *outside* the
/// timed region, and one unmeasured warm-up trial pays the first-touch
/// page-fault cost; the recorded figure is the median of three timed
/// trials on the warm graph. The < 1 s acceptance bar is asserted
/// in-process so a regression fails the bench run loudly.
/// One live push–pull trial from node 0, run as a one-trial `RunPlan`
/// batch exactly as `gossip net run` runs each trial.
fn live_trial(topology: &Topology, seed: u64, config: &NetConfig) -> (RunReport, NetTraffic) {
    let traffic = Mutex::new(NetTraffic::default());
    let report = RunPlan::new(1, seed)
        .threads(1)
        .execute_with(|run| {
            let (proto, delivery) = (NetProtocol::PushPull, DeliveryKind::Local);
            NetExecutor::new(topology, proto, 0, config, delivery, run, &traffic)
        })
        .expect("live trial runs");
    (report, traffic.into_inner().expect("traffic counters"))
}

/// Live-runtime throughput: one `gossip-net` trial on the implicit
/// complete graph, node groups exchanging envelopes over in-process
/// channels (`LocalDelivery`), horizon-bounded so the recorded figure
/// is sustained events/second rather than spread shape.
///
/// `horizon` bounds virtual time, so the event count scales with
/// `n × horizon` regardless of spread progress — smoke mode shrinks the
/// horizon, not the key: the same `net_throughput/complete/100000`
/// metric is recorded (and asserted present) in both modes, and the
/// committed BENCH_engine.json key is grep-pinned by CI.
fn bench_net_throughput(c: &mut Criterion, knobs: &Knobs) {
    const N: usize = 100_000;
    let horizon = if knobs.smoke { 0.25 } else { 5.0 };
    let topology = Topology::complete(N).expect("valid n");
    let cfg = NetConfig {
        horizon,
        ..NetConfig::default()
    };
    let (report, traffic) = live_trial(&topology, 4_242, &cfg);
    println!(
        "net_throughput/complete/{N}: {} events in {:.2}s ({:.0} events/sec, {} groups, {} messages)",
        report.events(),
        report.elapsed().as_secs_f64(),
        report.events_per_sec(),
        cfg.groups,
        traffic.messages,
    );
    c.record_metric("net_throughput/complete/100000", report.events_per_sec());
    assert!(
        report.events() > 0 && report.events_per_sec() > 0.0,
        "live runtime processed no events inside horizon {horizon}"
    );
}

/// The 1e6-node scale demo (`scenarios/net-million.toml` shape): eight
/// node groups, local delivery, horizon-bounded at t = 8. Full mode
/// only — it processes ~1.6 × 10⁷ events and the point is the recorded
/// `net_million/complete/1000000` events/second at the one-machine
/// million-actor scale the live runtime targets.
fn bench_net_million(c: &mut Criterion) {
    const N: usize = 1_000_000;
    let topology = Topology::complete(N).expect("valid n");
    let cfg = NetConfig {
        groups: 8,
        horizon: 8.0,
        ..NetConfig::default()
    };
    let (report, _) = live_trial(&topology, 42, &cfg);
    println!(
        "net_million/complete/{N}: {} events in {:.2}s ({:.0} events/sec, 8 groups)",
        report.events(),
        report.elapsed().as_secs_f64(),
        report.events_per_sec(),
    );
    c.record_metric("net_million/complete/1000000", report.events_per_sec());
}

fn bench_huge_trial(c: &mut Criterion) {
    const N: usize = 10_000_000;
    const HORIZON: f64 = 7.0;
    let p = 8.0 / (N as f64 - 1.0);
    let topology = Topology::gnp(N, p, 777).expect("valid parameters");
    let t0 = Instant::now();
    let mut degsum = 0u64;
    for v in 0..N as u32 {
        degsum += topology.degree(v) as u64;
    }
    println!(
        "huge_trial: realized adjacency in {:.2}s (mean degree {:.2})",
        t0.elapsed().as_secs_f64(),
        degsum as f64 / N as f64
    );

    let run = || {
        let mut sim = EventSimulation::new(CutRateAsync::new(), RunConfig::with_max_time(HORIZON));
        let mut net = StaticNetwork::from_topology(topology.clone());
        let mut rng = SimRng::seed_from_u64(1).derive(7);
        let t0 = Instant::now();
        let o = sim.run(&mut net, 0, &mut rng).expect("valid");
        (t0.elapsed().as_secs_f64(), o.events())
    };
    let _ = run(); // warm-up: first touch of informed bitset + frontier
    let mut timed: Vec<(f64, u64)> = (0..3).map(|_| run()).collect();
    timed.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (secs, events) = timed[1];
    println!("huge_trial/gnp/{N}: {secs:.3}s for {events} events inside t = {HORIZON}");
    c.record_metric("huge_trial/gnp/10000000", secs);
    c.record_metric("huge_trial_events/gnp/10000000", events as f64);
    assert!(
        secs < 1.0,
        "n = 1e7 horizon-bounded trial took {secs:.3}s (bar: < 1s)"
    );
}

fn main() {
    let knobs = Knobs {
        smoke: std::env::var("BENCH_ENGINE_SMOKE").is_ok_and(|v| v == "1"),
        full: std::env::var("BENCH_ENGINE_FULL").is_ok_and(|v| v == "1"),
    };
    let mut c = Criterion::default()
        .sample_size(5)
        .warm_up_time(Duration::from_millis(if knobs.smoke { 10 } else { 200 }))
        .measurement_time(Duration::from_millis(if knobs.smoke { 50 } else { 2000 }));

    // Implicit complete backend: O(n) per run, so 1e5 is routine.
    let implicit_sizes: &[usize] = if knobs.smoke {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    for &n in implicit_sizes {
        let topology = Topology::complete(n).expect("valid n");
        bench_pair(&mut c, "engine_complete", n, &topology, &knobs);
    }

    // Materialized CSR baseline for the implicit-vs-materialized metric.
    let mat_sizes: &[usize] = if knobs.smoke {
        &[1_000]
    } else if knobs.full {
        &[1_000, 10_000, 100_000]
    } else {
        &[1_000, 10_000]
    };
    for &n in mat_sizes {
        let topology = Topology::materialized(generators::complete(n).expect("valid n"));
        bench_pair(&mut c, "engine_complete_mat", n, &topology, &knobs);
        let implicit_event = c.measurement_ns(&format!("engine_complete/event/{n}"));
        let mat_event = c.measurement_ns(&format!("engine_complete_mat/event/{n}"));
        if let (Some(imp), Some(mat)) = (implicit_event, mat_event) {
            c.record_metric(format!("backend_speedup/complete/{n}"), mat / imp);
        }
    }
    if !knobs.full && !knobs.smoke {
        println!(
            "skipped engine_complete_mat/100000 (≈ 40 GB CSR); set BENCH_ENGINE_FULL=1 to include"
        );
    }

    // Driver overhead: RunPlan vs the raw trial loop, always at n = 1e4
    // — the <2% acceptance point. (Shorter runs would mostly measure
    // per-batch fixed costs relative to a sub-20µs trial.)
    bench_runplan_overhead(&mut c, 10_000, &knobs);

    let circulant_sizes: &[usize] = if knobs.smoke {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    for &n in circulant_sizes {
        let topology = Topology::materialized(
            generators::regular_circulant(n, CIRCULANT_DEGREE).expect("valid circulant"),
        );
        bench_pair(&mut c, "engine_circulant", n, &topology, &knobs);
    }

    // Sampled vs materialized G(n, p), np ≈ 20, generation included.
    let gnp_sizes: &[usize] = if knobs.smoke {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    for &n in gnp_sizes {
        bench_gnp(&mut c, n, &knobs);
    }

    // The vectorized event inner loop, single thread. Topologies are
    // hoisted and `Arc`-shared so realization is paid once, outside every
    // timed batch; mean degrees (100, 200, d = 128) put the cells
    // squarely in simulator-bound territory.
    {
        let gnp_1k = Topology::gnp(1_000, 100.0 / 999.0, 123).expect("valid parameters");
        bench_inner_loop(&mut c, "gnp", 1_000, 256, &knobs, || {
            StaticNetwork::from_topology(gnp_1k.clone())
        });
        let gnp_10k = Topology::gnp(10_000, 200.0 / 9_999.0, 123).expect("valid parameters");
        bench_inner_loop(&mut c, "gnp", 10_000, 32, &knobs, || {
            StaticNetwork::from_topology(gnp_10k.clone())
        });
        let circ_1k = spread_circulant(1_000, 64);
        bench_inner_loop(&mut c, "circulant", 1_000, 256, &knobs, || {
            StaticNetwork::from_topology(circ_1k.clone())
        });
        let circ_10k = spread_circulant(10_000, 64);
        bench_inner_loop(&mut c, "circulant", 10_000, 32, &knobs, || {
            StaticNetwork::from_topology(circ_10k.clone())
        });
    }

    // Sweep-level work stealing vs sequential cells through SweepPlan.
    bench_sweep_parallel(&mut c, &knobs);

    // Simulation-as-a-service: result-cache replay, hit throughput, and
    // warm-topology reuse, end to end over TCP.
    bench_serve_cache(&mut c, &knobs);

    for key in [
        "cache_speedup/gnp-sparse",
        "serve_throughput/gnp-sparse",
        "warm_topology_speedup/gnp-sparse",
        "inner_loop/gnp/1000",
        "inner_loop/gnp/10000",
        "inner_loop/circulant/1000",
        "inner_loop/circulant/10000",
        "sweep_parallel/available_parallelism",
    ] {
        assert!(
            c.metric(key).is_some(),
            "{key} must be recorded (feeds BENCH_engine.json)"
        );
    }

    // Batched trial throughput at n ∈ {100, 1k, 10k} per family. Trial
    // counts sized so one batch runs tens of milliseconds; smoke mode
    // caps them and only runs the driver-bound n = 100 cells.
    let throughput_sizes: &[(usize, usize, usize)] = if knobs.smoke {
        // (n, structured trials, sparse trials)
        &[(100, 256, 128)]
    } else {
        &[(100, 16_384, 4_096), (1_000, 4_096, 512), (10_000, 512, 48)]
    };
    for &(n, structured_trials, sparse_trials) in throughput_sizes {
        let complete = Topology::complete(n).expect("valid n");
        bench_trial_throughput(&mut c, "complete", n, structured_trials, &knobs, || {
            StaticNetwork::from_topology(complete.clone())
        });

        // One seeded sampled G(n, p) per size: lazy rows are realized on
        // first touch and Arc-shared by every worker's clone, so the
        // measured cost is the spread, not repeated generation.
        let p = 20.0 / (n as f64 - 1.0);
        let gnp = Topology::gnp(n, p, 6_400 + n as u64).expect("valid parameters");
        bench_trial_throughput(&mut c, "gnp", n, sparse_trials, &knobs, || {
            StaticNetwork::from_topology(gnp.clone())
        });

        let circulant = Topology::materialized(
            generators::regular_circulant(n, CIRCULANT_DEGREE).expect("valid circulant"),
        );
        bench_trial_throughput(&mut c, "circulant", n, sparse_trials, &knobs, || {
            StaticNetwork::from_topology(circulant.clone())
        });
    }
    for family in ["complete", "gnp", "circulant"] {
        let key = format!("trial_throughput/{family}/100");
        assert!(
            c.metric(&key).is_some(),
            "{key} must be recorded (feeds BENCH_engine.json)"
        );
    }

    // Generation-only: geometric skip vs the pre-refactor pair scan
    // (capped at 1e4 — the scan alone would take tens of seconds per
    // graph at 1e5).
    let gen_sizes: &[usize] = if knobs.smoke {
        &[1_000]
    } else {
        &[1_000, 10_000]
    };
    for &n in gen_sizes {
        bench_gnp_generation(&mut c, n, &knobs);
    }

    // Live runtime (gossip-net): node groups + envelope exchange, local
    // delivery. Runs in smoke mode too (short horizon, same metric key)
    // so a live-runtime regression aborts CI loudly.
    bench_net_throughput(&mut c, &knobs);
    assert!(
        c.metric("net_throughput/complete/100000").is_some(),
        "net_throughput/complete/100000 must be recorded (feeds BENCH_engine.json)"
    );

    if knobs.smoke {
        println!("smoke mode: measurements not persisted");
        return;
    }

    // The million-actor live run before the huge trial: ~16 MB of live
    // state and ~1.6e7 events, the scale figure for the live runtime.
    bench_net_million(&mut c);

    // The n = 1e7 horizon-bounded trial last: it faults in ~1 GB of
    // adjacency, and nothing should time-share the machine with it.
    bench_huge_trial(&mut c);
    // Cargo runs benches with the package directory as cwd; anchor the
    // summary at the workspace root instead.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    c.write_json(path).expect("write BENCH_engine.json");
    println!("wrote {path}");
}
