//! X4 (extension) — fault tolerance: the robustness that motivated
//! epidemic protocols (Demers et al. \[11\], Feige et al. \[14\]), measured.
//!
//! Two fault models on a static random-regular expander:
//!
//! * **i.i.d. message loss** `f` — exact prediction: thinning every
//!   contact Poisson process by `1−f` replays the lossless process on a
//!   slowed clock, so `E[T_f]·(1−f) = E[T_0]` *exactly*;
//! * **per-window downtime** `d` — each node is down for whole windows
//!   with probability `d`; failures now correlate across a window and the
//!   slowdown exceeds the i.i.d.-equivalent `1−(1−d)²` contact loss.
//!
//! Both run as `kind = "lossy"`, a spelling of async push–pull under the
//! fault layer: the cut-rate sampler with `loss` as the fault model's
//! drop coin and `downtime` as its liveness chain (crash probability `d`,
//! recovery probability 1), keyed per node and window.
//!
//! The verdict checks the thinning identity within Monte-Carlo noise and
//! the strict ordering `downtime penalty > equivalent-loss penalty`.

use crate::Scale;
use gossip_core::scenario::{run_scenario, FamilySpec, ProtocolSpec, ScenarioSpec, SweepSpec};
use gossip_core::{experiment, report};
use gossip_stats::series::Series;

/// One registry sweep at a single size: `lossy` async push-pull on a
/// 6-regular expander (the event engine's fault layer).
fn mean_spread(n: usize, loss: f64, downtime: f64, trials: usize, seed: u64) -> f64 {
    let mut family = FamilySpec::new("regular");
    family.d = Some(6);
    family.build_seed = Some(4400 + n as u64);
    let mut protocol = ProtocolSpec::new("lossy");
    protocol.loss = Some(loss);
    protocol.downtime = Some(downtime);
    let mut sweep = SweepSpec::over(vec![n]);
    sweep.trials = Some(trials);
    sweep.seed = Some(seed);
    sweep.max_time = Some(1e5);
    sweep.start = Some(0);
    let spec = ScenarioSpec {
        name: format!("x4-lossy-{loss}-{downtime}"),
        description: None,
        family,
        protocol,
        sweep,
        faults: None,
        net: None,
    };
    run_scenario(&spec).expect("valid scenario").rows[0].mean
}

/// Runs X4 and returns the report.
pub fn run(scale: Scale) -> String {
    let spec = experiment::find("X4").expect("catalog has X4");
    let mut out = report::header(&spec);
    out.push('\n');

    let n = scale.pick(64, 256);
    let trials = scale.pick(200, 800);
    let losses = [0.0, 0.25, 0.5, 0.75];

    let t0 = mean_spread(n, 0.0, 0.0, trials, 4000);
    let mut ok = true;
    let mut series = Series::new(
        "loss",
        vec![
            "mean spread".into(),
            "x (1-loss)".into(),
            "predicted (t0)".into(),
        ],
    );
    for (i, &f) in losses.iter().enumerate() {
        let tf = mean_spread(n, f, 0.0, trials, 4000 + i as u64);
        let rescaled = tf * (1.0 - f);
        series.push(f, vec![tf, rescaled, t0]);
        // Thinning identity: rescaled time equals the lossless time within
        // Monte-Carlo noise (generous 12% band; means over `trials` runs).
        if (rescaled - t0).abs() / t0 > 0.12 {
            ok = false;
        }
    }
    out.push_str(&report::table(
        &format!("i.i.d. message loss on a 6-regular expander, n = {n}, {trials} trials"),
        &series,
    ));

    // Downtime d vs the marginally-equivalent i.i.d. loss 1-(1-d)^2.
    let d = 0.4;
    let equivalent = 1.0 - (1.0 - d) * (1.0 - d);
    let t_down = mean_spread(n, 0.0, d, trials, 4800);
    let t_equiv = mean_spread(n, equivalent, 0.0, trials, 4801);
    let mut down_series = Series::new(
        "model",
        vec!["mean spread".into(), "penalty vs lossless".into()],
    );
    down_series.push(0.0, vec![t_down, t_down / t0]);
    down_series.push(1.0, vec![t_equiv, t_equiv / t0]);
    out.push_str(&report::table(
        &format!(
            "correlated downtime d = {d} (row 0) vs equivalent i.i.d. loss {equivalent:.2} (row 1)"
        ),
        &down_series,
    ));
    if t_down <= t_equiv {
        ok = false;
    }

    out.push_str(&report::verdict(
        ok,
        &format!(
            "thinning identity E[T_f]*(1-f) = E[T_0] held within 12% at every loss level \
             (T_0 = {t0:.2}); correlated downtime ({t_down:.2}) costs more than equivalent \
             i.i.d. loss ({t_equiv:.2})"
        ),
    ));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_reproduces() {
        let report = run(Scale::Quick);
        assert!(report.contains("VERDICT: REPRODUCED"), "{report}");
    }
}
