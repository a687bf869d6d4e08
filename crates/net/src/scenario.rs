//! Scenario-driven live sweeps: the `[net]` table meets `RunPlan`.
//!
//! [`NetSweep`] is the live counterpart of `gossip_core`'s `SweepPlan`:
//! it consumes the same `ScenarioSpec` (family, protocol, sweep sizes,
//! trials, seeds, `[faults]` table) and produces the same
//! `ScenarioReport` row shape, so everything downstream — report
//! rendering, JSONL streams, series extraction — works unchanged on live
//! results. Each size runs as one `gossip_sim::RunPlan` batch of
//! [`NetExecutor`] trials. The `engine` column reads `net/local` or
//! `net/udp` to mark which stack produced the numbers.

use crate::delivery::DeliveryKind;
use crate::error::NetError;
use crate::fault::NetFaults;
use crate::runtime::{
    default_groups, NetConfig, NetExecutor, NetProtocol, NetTraffic, DEFAULT_EXCHANGE_RETRIES,
    DEFAULT_EXCHANGE_TIMEOUT, DEFAULT_TICK,
};
use gossip_core::scenario::{build_family, FamilySpec, ScenarioReport, ScenarioRow, ScenarioSpec};
use gossip_dynamics::DynamicNetwork;
use gossip_graph::{NodeId, NodeSet, Topology};
use gossip_sim::{RunPlan, TrialObserver};
use gossip_stats::SimRng;
use std::sync::Mutex;
use std::time::Duration;

/// Builds the one static topology a live run uses for family `spec` at
/// size `n`, plus the family's suggested start node.
///
/// The family is built through the scenario registry and snapshotted at
/// window 0 with an empty informed set — for static families (the only
/// ones live validation admits) that snapshot *is* the network, and it
/// is bit-identical to what the analytic engines simulate under the same
/// `build_seed`.
///
/// # Errors
///
/// Family construction errors, or [`NetError::Invalid`] when the family
/// turns out dynamic (a backstop behind
/// [`ScenarioSpec::validate_net`]).
pub fn build_live_topology(spec: &FamilySpec, n: usize) -> Result<(Topology, NodeId), NetError> {
    let mut net = build_family(spec, n)?;
    if !net.is_static() {
        return Err(NetError::Invalid(format!(
            "family `{}` is dynamic; the live runtime runs static topologies only",
            spec.kind
        )));
    }
    let start = net.suggested_start();
    let n = net.n();
    let informed = NodeSet::new(n);
    let mut rng = SimRng::seed_from_u64(0);
    let topo = net.topology(0, &informed, &mut rng).clone();
    Ok((topo, start))
}

/// A validated, ready-to-execute live sweep over a scenario spec.
#[derive(Debug, Clone)]
pub struct NetSweep<'s> {
    spec: &'s ScenarioSpec,
    proto: NetProtocol,
    delivery: DeliveryKind,
    config: NetConfig,
    trials: usize,
    seed: u64,
}

impl<'s> NetSweep<'s> {
    /// Validates `spec` for live execution (structural checks plus
    /// [`ScenarioSpec::validate_net`] — a spec without a `[net]` table
    /// runs on all defaults) and compiles its `[net]` and `[faults]`
    /// tables into a [`NetConfig`].
    ///
    /// # Errors
    ///
    /// Any validation error, as [`NetError::Scenario`].
    pub fn new(spec: &'s ScenarioSpec) -> Result<Self, NetError> {
        spec.validate()?;
        spec.validate_net()?;
        let proto = NetProtocol::from_kind(&spec.protocol.kind)
            .expect("validate_net admits live protocols only");
        let net = spec.net.clone().unwrap_or_default();
        let delivery = DeliveryKind::parse(net.delivery.as_deref().unwrap_or("local"))
            .expect("validate_net admits known deliveries only");
        let config = NetConfig {
            groups: net.groups.unwrap_or_else(default_groups),
            tick: net.tick.unwrap_or(DEFAULT_TICK),
            horizon: net
                .horizon
                .unwrap_or_else(|| spec.sweep.max_time_or_default()),
            faults: spec
                .faults
                .as_ref()
                .map(NetFaults::from_spec)
                .unwrap_or_default(),
            exchange_timeout: net.exchange_timeout.unwrap_or(DEFAULT_EXCHANGE_TIMEOUT),
            exchange_retries: net.exchange_retries.unwrap_or(DEFAULT_EXCHANGE_RETRIES),
        };
        Ok(NetSweep {
            spec,
            proto,
            delivery,
            config,
            trials: spec.sweep.trials_or_default(),
            seed: spec.sweep.seed_or_default(),
        })
    }

    /// Overrides the node-group count (CLI `--groups`).
    pub fn groups(mut self, groups: usize) -> Self {
        self.config.groups = groups.max(1);
        self
    }

    /// Overrides the transport (CLI `--delivery`).
    pub fn delivery(mut self, delivery: DeliveryKind) -> Self {
        self.delivery = delivery;
        self
    }

    /// The compiled runtime configuration the sweep will use.
    pub fn config(&self) -> NetConfig {
        self.config.clone()
    }

    /// The live protocol the sweep will run.
    pub fn protocol(&self) -> NetProtocol {
        self.proto
    }

    /// Runs the whole sweep.
    ///
    /// # Errors
    ///
    /// As [`NetSweep::run_observed`].
    pub fn run(&self) -> Result<NetSweepReport, NetError> {
        self.run_observed(&mut [])
    }

    /// Runs the whole sweep with one streaming observer attached.
    ///
    /// # Errors
    ///
    /// As [`NetSweep::run_observed`].
    pub fn run_with(
        &self,
        mut observer: &mut dyn TrialObserver,
    ) -> Result<NetSweepReport, NetError> {
        self.run_observed(std::slice::from_mut(&mut observer))
    }

    /// Runs every sweep size as one `RunPlan` batch of [`NetExecutor`]
    /// trials, streaming all trial records into `observers` (each
    /// observer's `finish` fires once per size, exactly like the analytic
    /// `SweepPlan`). Trials run one after another; the node groups inside
    /// each trial run in parallel.
    ///
    /// # Errors
    ///
    /// Family construction errors, transport failures, or observer
    /// rejections.
    pub fn run_observed(
        &self,
        observers: &mut [&mut dyn TrialObserver],
    ) -> Result<NetSweepReport, NetError> {
        let spec = self.spec;
        let traffic = Mutex::new(NetTraffic::default());
        let mut rows = Vec::with_capacity(spec.sweep.sizes.len());
        let mut events = 0u64;
        let mut stalled = 0u64;
        let mut node_trials = 0u64;
        let mut elapsed = Duration::ZERO;
        let mut groups = self.config.groups;
        for &n in &spec.sweep.sizes {
            let (topo, suggested) = build_live_topology(&spec.family, n)?;
            let start = spec.sweep.start.unwrap_or(suggested);
            let mut plan = RunPlan::new(self.trials, self.seed).threads(1);
            for o in observers.iter_mut() {
                plan = plan.observer(&mut **o);
            }
            let report = plan.execute_with(|run| {
                NetExecutor::new(
                    &topo,
                    self.proto,
                    start,
                    &self.config,
                    self.delivery,
                    run,
                    &traffic,
                )
            })?;
            events += report.events();
            stalled += report.trial_errors().len() as u64;
            node_trials += (topo.n() as u64) * (self.trials as u64);
            elapsed += report.elapsed();
            groups = self.config.groups.clamp(1, topo.n().max(1));
            rows.push(ScenarioRow::from_summary(n, &report));
        }
        Ok(NetSweepReport {
            report: ScenarioReport {
                scenario: spec.name.clone(),
                family: spec.family.kind.clone(),
                protocol: self.proto.display_name().to_string(),
                engine: format!("net/{}", self.delivery.name()),
                rows,
            },
            groups,
            delivery: self.delivery,
            events,
            traffic: traffic.into_inner().expect("traffic counters poisoned"),
            stalled,
            elapsed,
            node_trials,
        })
    }
}

/// The result of a live sweep: a standard [`ScenarioReport`] plus the
/// runtime's traffic counters, aggregated over every size.
#[derive(Debug, Clone)]
pub struct NetSweepReport {
    /// Per-size rows in the analytic report shape; `engine` reads
    /// `net/local` or `net/udp`.
    pub report: ScenarioReport,
    /// Node groups (threads) each trial ran on.
    pub groups: usize,
    /// Transport the sweep used.
    pub delivery: DeliveryKind,
    /// Events processed across the sweep (activations + arrivals).
    pub events: u64,
    /// Envelope and retry counters summed over the sweep.
    pub traffic: NetTraffic,
    /// Trials skipped after stalling twice on the UDP transport.
    pub stalled: u64,
    /// Wall-clock time spent in trials.
    pub elapsed: Duration,
    /// `Σ (n × trials)` over the sweep — the denominator of
    /// [`NetSweepReport::messages_per_node`].
    pub node_trials: u64,
}

impl NetSweepReport {
    /// Events per wall-clock second over the sweep.
    pub fn events_per_sec(&self) -> f64 {
        rate(self.events, self.elapsed)
    }

    /// Envelopes per wall-clock second over the sweep.
    pub fn messages_per_sec(&self) -> f64 {
        rate(self.traffic.messages, self.elapsed)
    }

    /// Mean envelopes per node per trial over the sweep.
    pub fn messages_per_node(&self) -> f64 {
        if self.node_trials > 0 {
            self.traffic.messages as f64 / self.node_trials as f64
        } else {
            0.0
        }
    }
}

fn rate(count: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        count as f64 / secs
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::scenario::{NetSpec, ProtocolSpec, SweepSpec};

    fn live_spec() -> ScenarioSpec {
        let mut sweep = SweepSpec::over(vec![16, 24]);
        sweep.trials = Some(4);
        sweep.seed = Some(3);
        ScenarioSpec {
            name: "net-sweep-test".into(),
            description: None,
            family: FamilySpec::new("complete"),
            protocol: ProtocolSpec::new("async"),
            sweep,
            faults: None,
            net: Some(NetSpec {
                groups: Some(2),
                ..NetSpec::new()
            }),
        }
    }

    #[test]
    fn sweep_produces_report_rows() {
        let spec = live_spec();
        let mut sink = gossip_sim::JsonlSink::new(Vec::new());
        let out = NetSweep::new(&spec).unwrap().run_with(&mut sink).unwrap();
        assert_eq!(out.report.engine, "net/local");
        assert_eq!(out.report.rows.len(), 2);
        assert!(out.report.rows.iter().all(|r| r.completed == 4));
        assert_eq!(sink.records(), 8);
        assert!(out.traffic.messages > 0 && out.events > 0);
        assert!(out.messages_per_node() > 0.0);
        assert_eq!(out.groups, 2);
    }

    #[test]
    fn trajectory_sink_leaves_jsonl_unchanged() {
        // Recording switched on for a TrajectorySink stays scoped to it: a
        // co-attached JSONL stream is byte-identical to a JSONL-only run.
        let spec = live_spec();
        let sweep = NetSweep::new(&spec).unwrap();
        let mut alone = gossip_sim::JsonlSink::new(Vec::new());
        sweep.run_with(&mut alone).unwrap();
        let mut jsonl = gossip_sim::JsonlSink::new(Vec::new());
        let mut curves = gossip_sim::TrajectorySink::new(8);
        sweep.run_observed(&mut [&mut jsonl, &mut curves]).unwrap();
        assert_eq!(curves.curves().len(), 8);
        assert!(curves.curves().iter().all(|c| c.points.len() >= 2));
        let alone = alone.into_inner().unwrap();
        assert!(!alone.is_empty());
        assert_eq!(jsonl.into_inner().unwrap(), alone);
    }

    #[test]
    fn dynamic_families_are_rejected() {
        let mut spec = live_spec();
        spec.family = FamilySpec::new("dynamic-star");
        let err = NetSweep::new(&spec).unwrap_err();
        assert!(err.to_string().contains("dynamic"), "{err}");
    }

    #[test]
    fn live_topology_matches_family_snapshot() {
        let (topo, start) = build_live_topology(&FamilySpec::new("star"), 10).unwrap();
        assert_eq!(topo.n(), 10);
        // Star center (node 0) sees everyone; leaves see the center.
        assert_eq!(topo.degree(0), 9);
        assert_eq!(topo.degree(3), 1);
        assert!((start as usize) < 10);
    }
}
