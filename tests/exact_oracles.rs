//! Exact-value oracles: async push–pull on `K_n`, fault-free and under
//! message drop.
//!
//! On `K_n` the informed count goes from `k` to `k + 1` at rate
//! `2k(n − k)/(n − 1)`, so the spread time is a sum of independent
//! exponentials: `E[T] = ((n − 1)/n)·H_{n−1}` and
//! `Var[T] = Σ_{k=1}^{n−1} ((n − 1)/(2k(n − k)))²`. Dropping each message
//! with probability `q` thins every step by `1 − q` (Doerr–Kostrygin): the
//! mean scales by `1/(1 − q)` and the variance by `1/(1 − q)²`.
//!
//! Every case is a z-test of a sample mean against the exact value at
//! `n = 32` with 2000 trials on a fixed seed, `|z| < 4`. Engine-vs-engine
//! KS tests cannot catch a bug every engine shares; an exact value can.
//! Each case runs on the implicit `complete` backend and on its
//! materialized CSR twin, which take different paths through the samplers.

use rumor_spreading::graph::Topology;
use rumor_spreading::prelude::*;
use rumor_spreading::stats::harmonic;

const N: usize = 32;
const TRIALS: usize = 2000;
const SEED: u64 = 91;

/// The exact mean and variance of the spread time on `K_N` under drop `q`.
fn exact(q: f64) -> (f64, f64) {
    let n = N as f64;
    let mean = (n - 1.0) / n * harmonic(N as u64 - 1);
    let var: f64 = (1..N)
        .map(|k| {
            let k = k as f64;
            ((n - 1.0) / (2.0 * k * (n - k))).powi(2)
        })
        .sum();
    (mean / (1.0 - q), var / (1.0 - q).powi(2))
}

fn assert_z(label: &str, mean: f64, q: f64) {
    let (mu, var) = exact(q);
    let z = (mean - mu) / (var / TRIALS as f64).sqrt();
    assert!(
        z.abs() < 4.0,
        "{label}: mean {mean} against exact {mu} (z = {z:.2})"
    );
}

/// `K_N` in its two representations.
fn backends() -> [(&'static str, Topology); 2] {
    [
        ("implicit", Topology::complete(N).unwrap()),
        (
            "materialized",
            Topology::from(generators::complete(N).unwrap()),
        ),
    ]
}

/// The mean spread time of a `RunPlan` batch from node 0.
fn plan_mean(topo: &Topology, engine: Engine, proto: fn() -> AnyProtocol, drop: f64) -> f64 {
    let mut plan = RunPlan::new(TRIALS, SEED).start(0).engine(engine);
    if drop > 0.0 {
        plan = plan.faults(FaultModel {
            drop,
            ..FaultModel::default()
        });
    }
    let report = plan
        .execute(|| StaticNetwork::from_topology(topo.clone()), proto)
        .unwrap();
    assert_eq!(report.completed(), TRIALS);
    report.mean()
}

#[test]
fn fault_free_engines_match_the_exact_mean() {
    for (backend, topo) in backends() {
        for (lane, engine) in [
            ("window engine", Engine::Window),
            ("event engine", Engine::Event),
        ] {
            let mean = plan_mean(&topo, engine, cut_rate, 0.0);
            assert_z(&format!("{backend}, {lane}"), mean, 0.0);
        }
    }
}

#[test]
fn drop_slows_time_by_exactly_one_over_one_minus_q() {
    for (backend, topo) in backends() {
        for (lane, proto) in [
            ("cut-rate", cut_rate as fn() -> AnyProtocol),
            ("naive", || AnyProtocol::event(AsyncPushPull::new())),
        ] {
            let mean = plan_mean(&topo, Engine::Event, proto, 0.5);
            assert_z(&format!("{backend}, {lane}, drop 0.5"), mean, 0.5);
        }
    }
}

#[test]
fn lossy_spelling_obeys_the_thinning_law() {
    for backend in [None, Some("materialized")] {
        let mut family = FamilySpec::new("complete");
        family.backend = backend.map(String::from);
        let mut protocol = ProtocolSpec::new("lossy");
        protocol.loss = Some(0.5);
        let mut sweep = SweepSpec::over(vec![N]);
        sweep.trials = Some(TRIALS);
        sweep.seed = Some(SEED);
        sweep.start = Some(0);
        let spec = ScenarioSpec {
            name: "oracle-lossy".into(),
            description: None,
            family,
            protocol,
            sweep,
            faults: None,
            net: None,
        };
        let row = &run_scenario(&spec).unwrap().rows[0];
        assert_eq!(row.completed, TRIALS);
        assert_z(
            &format!("lossy, loss 0.5, backend {backend:?}"),
            row.mean,
            0.5,
        );
    }
}

fn cut_rate() -> AnyProtocol {
    AnyProtocol::event(CutRateAsync::new())
}
