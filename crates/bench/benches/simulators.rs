//! Criterion benchmarks: naive event-driven vs exact cut-rate simulator.
//!
//! The cut-rate simulator only pays for informative events; the naive one
//! pays for every clock tick. Both are exact samplers of the same process,
//! so the speedup is free fidelity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gossip_dynamics::StaticNetwork;
use gossip_graph::generators;
use gossip_sim::{
    AnyProtocol, AsyncPushPull, CutRateAsync, FaultModel, RunConfig, RunPlan, Simulation,
    SyncPushPull,
};
use gossip_stats::SimRng;

fn bench_simulators(c: &mut Criterion) {
    let mut group = c.benchmark_group("spread_to_completion");
    for n in [128usize, 512] {
        let mut rng = SimRng::seed_from_u64(1);
        let regular = generators::random_connected_regular(n, 4, &mut rng).expect("regular");

        group.bench_with_input(BenchmarkId::new("naive_async", n), &n, |b, _| {
            let mut net = StaticNetwork::new(regular.clone());
            let mut sim = Simulation::new(AsyncPushPull::new(), RunConfig::default());
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = SimRng::seed_from_u64(seed);
                sim.run(&mut net, 0, &mut rng).expect("valid")
            });
        });
        group.bench_with_input(BenchmarkId::new("cut_rate_async", n), &n, |b, _| {
            let mut net = StaticNetwork::new(regular.clone());
            let mut sim = Simulation::new(CutRateAsync::new(), RunConfig::default());
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = SimRng::seed_from_u64(seed);
                sim.run(&mut net, 0, &mut rng).expect("valid")
            });
        });
        group.bench_with_input(BenchmarkId::new("sync_pushpull", n), &n, |b, _| {
            let mut net = StaticNetwork::new(regular.clone());
            let mut sim = Simulation::new(SyncPushPull::new(), RunConfig::default());
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = SimRng::seed_from_u64(seed);
                sim.run(&mut net, 0, &mut rng).expect("valid")
            });
        });
    }
    group.finish();
}

/// Fault-injection overhead: under message loss the cut-rate loop pays
/// for every vetoed proposal, so its cost grows like `1/(1-loss)` — this
/// bench makes the ablation measurable (loss 0 is the fault-free run).
fn bench_lossy(c: &mut Criterion) {
    let mut group = c.benchmark_group("lossy_overhead");
    let n = 256usize;
    let mut rng = SimRng::seed_from_u64(2);
    let regular = generators::random_connected_regular(n, 6, &mut rng).expect("regular");
    for loss in [0.0f64, 0.5] {
        group.bench_with_input(
            BenchmarkId::new("lossy_async", format!("loss_{loss}")),
            &loss,
            |b, &loss| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    RunPlan::new(1, seed)
                        .threads(1)
                        .start(0)
                        .faults(FaultModel {
                            drop: loss,
                            ..FaultModel::default()
                        })
                        .execute(
                            || StaticNetwork::new(regular.clone()),
                            || AnyProtocol::event(CutRateAsync::new()),
                        )
                        .expect("valid")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simulators, bench_lossy);
criterion_main!(benches);
