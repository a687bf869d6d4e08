//! The live runtime against the exact spread time of async push–pull on
//! the complete graph.
//!
//! On `K_n` every uninformed node has the same in-rate, so the informed
//! count goes from `k` to `k + 1` at rate `λ_k = 2k(n−k)/(n−1)`: the
//! spread time has mean `Σ 1/λ_k = ((n−1)/n)·H_{n−1}` and variance
//! `Σ (1/λ_k)²`. The live runtime delivers a message one tick after it
//! is sent, and a rumor crosses about `log₂ n` hops, so its mean may sit
//! above the exact one by a latency offset. The tolerance is
//! `perfbench/run.py`'s: four standard errors plus `2·tick·⌈log₂ n⌉`.
//! The analytic engines' oracles are in the workspace's
//! `tests/exact_oracles.rs`.

use gossip_graph::Topology;
use gossip_net::{DeliveryKind, NetConfig, NetExecutor, NetProtocol, NetTraffic};
use gossip_sim::RunPlan;
use std::sync::Mutex;

const TRIALS: usize = 1000;

/// `((n−1)/n)·H_{n−1}` and `Σ (1/λ_k)²` for async push–pull on `K_n`.
fn exact(n: usize) -> (f64, f64) {
    let nf = n as f64;
    (1..n).fold((0.0, 0.0), |(mean, var), k| {
        let k = k as f64;
        let gap = (nf - 1.0) / (2.0 * k * (nf - k));
        (mean + gap, var + gap * gap)
    })
}

#[test]
fn live_complete_graph_mean_matches_the_exact_spread_time() {
    // One node group, in-process delivery, the default tick.
    let config = NetConfig {
        groups: 1,
        ..NetConfig::default()
    };
    for (n, seed) in [(32, 71), (64, 73)] {
        let topo = Topology::complete(n).unwrap();
        let traffic = Mutex::new(NetTraffic::default());
        let report = RunPlan::new(TRIALS, seed)
            .threads(1)
            .execute_with(|run| {
                let proto = NetProtocol::PushPull;
                NetExecutor::new(&topo, proto, 0, &config, DeliveryKind::Local, run, &traffic)
            })
            .unwrap();
        assert_eq!(report.completed(), TRIALS, "K_{n}: every trial spreads");
        let (mean, var) = exact(n);
        let sample = report.summary().mean();
        let allowance = 2.0 * config.tick * (n as f64).log2().ceil();
        let limit = 4.0 * (var / TRIALS as f64).sqrt() + allowance;
        assert!(
            (sample - mean).abs() <= limit,
            "K_{n}: live mean {sample:.4} is {:.4} from the exact {mean:.4} (limit {limit:.4})",
            (sample - mean).abs()
        );
        // ((n−1)/n)·H_{n−1}, summed the other way.
        let harmonic: f64 = (1..n).map(|k| 1.0 / k as f64).sum();
        assert!((mean - (n as f64 - 1.0) / n as f64 * harmonic).abs() < 1e-12);
    }
}
