//! Integration tests: the paper's headline bounds hold end-to-end across
//! crates (networks from `gossip-dynamics`, simulators from `gossip-sim`,
//! stopping rules from `gossip-core`), driven through the facade crate.

use rumor_spreading::bounds::tracking::{run_tracked, ProfileMode};
use rumor_spreading::prelude::*;

/// Theorem 1.1 upper bound holds on the dynamic star (closed-form profile).
#[test]
fn theorem_1_1_holds_on_dynamic_star() {
    for (seed, leaves) in [(1u64, 60usize), (2, 120), (3, 240)] {
        let mut net = DynamicStar::new(leaves).expect("leaves >= 2");
        let start = net.suggested_start();
        let mut proto = CutRateAsync::new();
        let mut rng = SimRng::seed_from_u64(seed);
        let out = run_tracked(
            &mut net,
            &mut proto,
            start,
            1.0,
            1e6,
            ProfileMode::FromNetwork,
            &mut rng,
        )
        .expect("valid");
        let spread = out.spread_time.expect("star finishes");
        let bound = out.theorem_1_1_steps.expect("Φρ = 1 per step fires") as f64;
        assert!(
            spread <= bound,
            "leaves={leaves}: spread {spread} > bound {bound}"
        );
    }
}

/// Theorem 1.1 holds on the Section 4 adversarial network with the
/// Observation 4.1 closed-form profile.
#[test]
fn theorem_1_1_holds_on_diligent_network() {
    let mut net = DiligentNetwork::new(240, 0.25).expect("valid");
    let start = net.suggested_start();
    let mut proto = CutRateAsync::new();
    let mut rng = SimRng::seed_from_u64(7);
    let out = run_tracked(
        &mut net,
        &mut proto,
        start,
        1.0,
        1e6,
        ProfileMode::FromNetwork,
        &mut rng,
    )
    .expect("valid");
    let spread = out.spread_time.expect("connected adversary finishes");
    let bound = out.theorem_1_1_steps.expect("fires") as f64;
    assert!(spread <= bound, "spread {spread} > bound {bound}");
}

/// Theorem 1.3 upper bound holds on the Section 5.1 network, where it is
/// tight up to constants.
#[test]
fn theorem_1_3_holds_and_is_tightish_on_absolute_network() {
    let mut net = AbsoluteDiligentNetwork::with_delta(120, 8).expect("valid");
    let start = net.suggested_start();
    let mut proto = CutRateAsync::new();
    let mut rng = SimRng::seed_from_u64(11);
    let out = run_tracked(
        &mut net,
        &mut proto,
        start,
        1.0,
        1e7,
        ProfileMode::FromNetwork,
        &mut rng,
    )
    .expect("valid");
    let spread = out.spread_time.expect("finishes");
    let t_abs = out.theorem_1_3_steps.expect("fires") as f64;
    assert!(spread <= t_abs, "spread {spread} > T_abs {t_abs}");
    // Tightness (Theorem 1.5): T_abs overshoots by at most a constant
    // factor — the measured spread is within ~50x of the bound here (the
    // paper's constants are loose; what matters is that both scale as
    // n·Δ, tested by the slope checks of experiment E4).
    assert!(
        spread * 50.0 >= t_abs,
        "T_abs {t_abs} not within constant factor of measured {spread}"
    );
}

/// Remark 1.4: the worst-case family stays below the explicit 2n(n−1)
/// ceiling.
#[test]
fn remark_1_4_ceiling_holds() {
    let n = 80;
    let delta = 8;
    let summary = RunPlan::new(5, 13)
        .config(RunConfig::with_max_time(1e7))
        .execute(
            move || AbsoluteDiligentNetwork::with_delta(n, delta).expect("valid"),
            || AnyProtocol::event(CutRateAsync::new()),
        )
        .expect("valid");
    assert_eq!(summary.completed(), 5);
    let ceiling = 2.0 * n as f64 * (n as f64 - 1.0);
    assert!(
        summary.max() <= ceiling,
        "max {} above 2n(n-1) = {ceiling}",
        summary.max()
    );
}

/// Corollary 1.6 via the facade: min of the two bounds is a valid bound on
/// the alternating-regular network.
#[test]
fn corollary_1_6_on_alternating_regular() {
    let n = 128;
    let mut rng = SimRng::seed_from_u64(17);
    let mut net = AlternatingRegular::new(n, &mut rng).expect("valid");
    let start = 0;
    let mut proto = CutRateAsync::new();
    let out = run_tracked(
        &mut net,
        &mut proto,
        start,
        1.0,
        1e6,
        ProfileMode::FromNetwork,
        &mut rng,
    )
    .expect("valid");
    let spread = out.spread_time.expect("expander sequence finishes");
    let min_bound = out.corollary_1_6_steps().expect("at least one rule fires") as f64;
    assert!(
        spread <= min_bound,
        "spread {spread} > min bound {min_bound}"
    );
}
