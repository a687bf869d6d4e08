//! Exact-value oracles: async push–pull on `K_n`, fault-free and under
//! message drop, push-only and pull-only, and all three on the star.
//!
//! On `K_n` the informed count goes from `k` to `k + 1` at rate
//! `2k(n − k)/(n − 1)`, so the spread time is a sum of independent
//! exponentials: `E[T] = ((n − 1)/n)·H_{n−1}` and
//! `Var[T] = Σ_{k=1}^{n−1} ((n − 1)/(2k(n − k)))²`. Dropping each message
//! with probability `q` thins every step by `1 − q` (Doerr–Kostrygin): the
//! mean scales by `1/(1 − q)` and the variance by `1/(1 − q)²`. Push-only
//! and pull-only each move at rate `k(n − k)/(n − 1)`, half push–pull's:
//! twice the mean and four times the variance.
//!
//! On the star `K_{1,n−1}` with the center informed, an uninformed leaf
//! is pulled in at rate 1 (its only contact is the center) and pushed to
//! at rate `1/(n − 1)`, so with `m` leaves left push–pull moves at rate
//! `m·n/(n − 1)`, push-only at `m/(n − 1)` and pull-only at `m`. From a
//! leaf, push–pull first informs the center at rate `n/(n − 1)`. With
//! `s = (n − 1)/n`: push–pull from the center takes `s·H_{n−1}` on
//! average, from a leaf `s·(1 + H_{n−2})`, push-only from the center
//! `(n − 1)·H_{n−1}` and pull-only `H_{n−1}`; the variances are the sums
//! of the squared step means. On `K_n` push and pull are symmetric, so
//! only the star catches a swapped direction.
//!
//! Every case is a z-test of a sample mean against the exact value at
//! `n = 32` with 2000 trials on a fixed seed, `|z| < 4`. Engine-vs-engine
//! KS tests cannot catch a bug every engine shares; an exact value can.
//! Each case runs on the implicit `complete` or `star` backend and on its
//! materialized CSR twin, which take different paths through the samplers.

use rumor_spreading::graph::{NodeId, Topology};
use rumor_spreading::prelude::*;
use rumor_spreading::sim::{AsyncPull, AsyncPush};
use rumor_spreading::stats::harmonic;

const N: usize = 32;
const TRIALS: usize = 2000;
const SEED: u64 = 91;

/// The exact mean and variance of the spread time on `K_N` of a process
/// whose every step takes `slowdown` times as long as push–pull's
/// (`1/(1 − q)` under drop `q`, 2 for push-only and pull-only).
fn exact(slowdown: f64) -> (f64, f64) {
    let n = N as f64;
    let mean = (n - 1.0) / n * harmonic(N as u64 - 1);
    let var: f64 = (1..N)
        .map(|k| {
            let k = k as f64;
            ((n - 1.0) / (2.0 * k * (n - k))).powi(2)
        })
        .sum();
    (mean * slowdown, var * slowdown.powi(2))
}

fn assert_z(label: &str, mean: f64, slowdown: f64) {
    assert_exact(label, mean, exact(slowdown));
}

/// The z-test of a sample mean of `TRIALS` spread times against the
/// exact mean and variance.
fn assert_exact(label: &str, mean: f64, (mu, var): (f64, f64)) {
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

/// The star with center 0 and `N − 1` leaves in its two representations.
fn stars() -> [(&'static str, Topology); 2] {
    [
        ("implicit", Topology::star(N, 0).unwrap()),
        ("materialized", Topology::from(generators::star(N).unwrap())),
    ]
}

/// `(Σ_{k ≤ m} 1/k, Σ_{k ≤ m} 1/k²)`.
fn harmonic_sums(m: usize) -> (f64, f64) {
    (1..=m).fold((0.0, 0.0), |(h, h2), k| {
        let k = k as f64;
        (h + 1.0 / k, h2 + 1.0 / (k * k))
    })
}

/// The mean spread time of a `RunPlan` batch from node `start`.
fn plan_mean(
    topo: &Topology,
    engine: Engine,
    proto: fn() -> AnyProtocol,
    drop: f64,
    start: NodeId,
) -> f64 {
    let mut plan = RunPlan::new(TRIALS, SEED).start(start).engine(engine);
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
            let mean = plan_mean(&topo, engine, cut_rate, 0.0, 0);
            assert_z(&format!("{backend}, {lane}"), mean, 1.0);
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
            let mean = plan_mean(&topo, Engine::Event, proto, 0.5, 0);
            assert_z(
                &format!("{backend}, {lane}, drop 0.5"),
                mean,
                1.0 / (1.0 - 0.5),
            );
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
            1.0 / (1.0 - 0.5),
        );
    }
}

#[test]
fn push_only_and_pull_only_take_exactly_twice_as_long() {
    for (kind, proto) in [("push", push as fn() -> AnyProtocol), ("pull", pull)] {
        let registered = build_any_protocol(&ProtocolSpec::new(kind)).unwrap();
        assert_eq!(registered.name(), proto().name(), "kind {kind}");
        for (backend, topo) in backends() {
            for (lane, engine) in [
                ("window engine", Engine::Window),
                ("event engine", Engine::Event),
            ] {
                let mean = plan_mean(&topo, engine, proto, 0.0, 0);
                assert_z(&format!("{kind}, {backend}, {lane}"), mean, 2.0);
            }
        }
    }
}

#[test]
fn star_spread_times_match_their_exact_values() {
    let n = N as f64;
    let s = (n - 1.0) / n;
    let (h, h2) = harmonic_sums(N - 1);
    let (g, g2) = harmonic_sums(N - 2);
    assert!((h - harmonic(N as u64 - 1)).abs() < 1e-12);
    for (case, proto, start, exact) in [
        (
            "push–pull from the center",
            cut_rate as fn() -> AnyProtocol,
            0,
            (s * h, s * s * h2),
        ),
        (
            "push–pull from a leaf",
            cut_rate,
            1,
            (s * (1.0 + g), s * s * (1.0 + g2)),
        ),
        (
            "push from the center",
            push,
            0,
            ((n - 1.0) * h, (n - 1.0).powi(2) * h2),
        ),
        ("pull from the center", pull, 0, (h, h2)),
    ] {
        for (backend, topo) in stars() {
            for (lane, engine) in [
                ("window engine", Engine::Window),
                ("event engine", Engine::Event),
            ] {
                let mean = plan_mean(&topo, engine, proto, 0.0, start);
                assert_exact(&format!("star, {case}, {backend}, {lane}"), mean, exact);
            }
        }
    }
}

fn cut_rate() -> AnyProtocol {
    AnyProtocol::event(CutRateAsync::new())
}

fn push() -> AnyProtocol {
    AnyProtocol::event(AsyncPush::new())
}

fn pull() -> AnyProtocol {
    AnyProtocol::event(AsyncPull::new())
}
