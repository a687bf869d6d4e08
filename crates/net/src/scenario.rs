//! The live runtime as `gossip_core`'s sweep cell runner: a spec's
//! `SweepPlan` hands each cell's `RunPlan` to a [`NetSweep`], which
//! realizes the family's static topology and runs the trials as
//! [`NetExecutor`]s, so live sweeps journal, resume and cache exactly like
//! analytic ones.

use crate::delivery::DeliveryKind;
use crate::error::NetError;
use crate::runtime::{NetConfig, NetExecutor, NetProtocol, NetTraffic};
use gossip_core::scenario::{
    build_family, FamilySpec, FaultSpec, LiveRunner, ScenarioError, ScenarioSpec,
};
use gossip_graph::{NodeId, NodeSet, Topology};
use gossip_sim::{RunPlan, RunReport};
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

/// The live cell runner of one scenario spec: attach it to the spec's
/// `SweepPlan` with `SweepPlan::live`.
///
/// Every cell it executes adds to its [`NetTotals`]; replayed cells add
/// nothing.
#[derive(Debug)]
pub struct NetSweep<'s> {
    spec: &'s ScenarioSpec,
    proto: NetProtocol,
    delivery: DeliveryKind,
    config: NetConfig,
    /// Shared by every cell's executors; [`NetSweep::totals`] reads it
    /// into [`NetTotals::traffic`].
    traffic: Mutex<NetTraffic>,
    totals: Mutex<NetTotals>,
}

/// What the cells a [`NetSweep`] executed did, summed over those cells.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetTotals {
    /// Node groups (threads) the last executed cell's trials ran on.
    pub groups: usize,
    /// Trials that ran to an outcome.
    pub trials: u64,
    /// `Σ n × trials` over the executed cells, stalled trials included.
    pub node_trials: u64,
    /// Events processed (activations + arrivals).
    pub events: u64,
    /// Trials skipped after stalling twice on the UDP transport.
    pub stalled: u64,
    /// Wall-clock time spent in trials.
    pub elapsed: Duration,
    /// Envelope and retry counters.
    pub traffic: NetTraffic,
}

impl<'s> NetSweep<'s> {
    /// Validates `spec` for live execution ([`ScenarioSpec::validate`]
    /// with its `[net]` table, all defaults when it has none) and compiles
    /// its `[net]` and `[faults]` tables into a [`NetConfig`].
    ///
    /// # Errors
    ///
    /// Any validation error, as [`NetError::Scenario`].
    pub fn new(spec: &'s ScenarioSpec) -> Result<Self, NetError> {
        // Validate as the live spec it runs as: with a `[net]` table.
        ScenarioSpec {
            net: Some(spec.net.clone().unwrap_or_default()),
            ..spec.clone()
        }
        .validate()?;
        let proto = NetProtocol::from_kind(&spec.protocol.kind)
            .expect("validate_net admits live protocols only");
        let net = spec.net.clone().unwrap_or_default();
        let delivery = DeliveryKind::parse(net.delivery_or_default())
            .expect("validate_net admits known deliveries only");
        let config = NetConfig {
            groups: net.groups_or_default(),
            tick: net.tick_or_default(),
            horizon: net.horizon_or_default(&spec.sweep),
            faults: spec
                .faults
                .as_ref()
                .map(FaultSpec::to_model)
                .unwrap_or_default(),
            exchange_timeout: net.exchange_timeout_or_default(),
            exchange_retries: net.exchange_retries_or_default(),
        };
        Ok(NetSweep {
            spec,
            proto,
            delivery,
            config,
            traffic: Mutex::new(NetTraffic::default()),
            totals: Mutex::new(NetTotals::default()),
        })
    }

    /// The compiled runtime configuration the sweep will use.
    pub fn config(&self) -> NetConfig {
        self.config.clone()
    }

    /// The live protocol the sweep will run.
    pub fn protocol(&self) -> NetProtocol {
        self.proto
    }

    /// The counters of the cells executed so far.
    pub fn totals(&self) -> NetTotals {
        NetTotals {
            traffic: *self.traffic.lock().expect("traffic counters poisoned"),
            ..*self.totals.lock().expect("live totals poisoned")
        }
    }
}

impl LiveRunner for NetSweep<'_> {
    /// Runs the cell's trials one after another on the live topology of
    /// size `n`; the node groups inside each trial run in parallel.
    fn run_cell(&self, n: usize, plan: RunPlan<'_>) -> Result<RunReport, ScenarioError> {
        let (topo, suggested) = build_live_topology(&self.spec.family, n)?;
        let start = self.spec.sweep.start.unwrap_or(suggested);
        let report = plan.threads(1).execute_with(|run| {
            NetExecutor::new(
                &topo,
                self.proto,
                start,
                &self.config,
                self.delivery,
                run,
                &self.traffic,
            )
        })?;
        let stalled = report.trial_errors().len() as u64;
        let mut totals = self.totals.lock().expect("live totals poisoned");
        totals.groups = self.config.groups.clamp(1, topo.n().max(1));
        totals.trials += report.trials() as u64;
        totals.node_trials += topo.n() as u64 * (report.trials() as u64 + stalled);
        totals.events += report.events();
        totals.stalled += stalled;
        totals.elapsed += report.elapsed();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::journal::Journal;
    use gossip_core::scenario::{NetSpec, ProtocolSpec, SweepPlan, SweepSpec};
    use gossip_sim::JsonlSink;

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

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gossip-net-sweep-{}-{name}", std::process::id()))
    }

    /// Runs `plan` into an in-memory JSONL stream.
    fn jsonl(plan: &SweepPlan<'_>) -> (gossip_core::scenario::ScenarioReport, Vec<u8>) {
        let mut sink = JsonlSink::new(Vec::new());
        let report = plan.run_with(&mut sink).unwrap();
        (report, sink.into_inner().unwrap())
    }

    #[test]
    fn sweep_produces_report_rows() {
        let spec = live_spec();
        let live = NetSweep::new(&spec).unwrap();
        let mut sink = JsonlSink::new(Vec::new());
        let report = SweepPlan::new(&spec)
            .unwrap()
            .live(&live)
            .run_with(&mut sink)
            .unwrap();
        assert_eq!(report.engine, "net/local");
        assert_eq!(report.rows.len(), 2);
        assert!(report.rows.iter().all(|r| r.completed == 4));
        assert_eq!(sink.records(), 8);
        let out = live.totals();
        assert!(out.traffic.messages > 0 && out.events > 0);
        assert!(out.traffic.messages as f64 / out.node_trials as f64 > 0.0);
        assert_eq!(out.groups, 2);
    }

    #[test]
    fn trajectory_sink_leaves_jsonl_unchanged() {
        // Recording switched on for a TrajectorySink stays scoped to it: a
        // co-attached JSONL stream is byte-identical to a JSONL-only run.
        let spec = live_spec();
        let live = NetSweep::new(&spec).unwrap();
        let sweep = SweepPlan::new(&spec).unwrap().live(&live);
        let mut alone = JsonlSink::new(Vec::new());
        sweep.run_with(&mut alone).unwrap();
        let mut jsonl = JsonlSink::new(Vec::new());
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

    #[test]
    fn journaled_live_sweep_resumes_bit_identically() {
        let spec = live_spec();
        let live = NetSweep::new(&spec).unwrap();
        let plan = SweepPlan::new(&spec).unwrap().live(&live);
        let reference = jsonl(&plan);
        let journal = temp_path("resume.journal");
        assert_eq!(jsonl(&plan.clone().journal_to(&journal)), reference);

        // Cut the journal after cell 0, as a crash would, then resume on
        // a fresh runner: cell 0 replays, only cell 1 executes.
        let text = std::fs::read_to_string(&journal).unwrap();
        let cut: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(cut.len() < text.len(), "journal should hold 2 cells");
        std::fs::write(&journal, cut).unwrap();
        let resumed_live = NetSweep::new(&spec).unwrap();
        let resumed = SweepPlan::new(&spec)
            .unwrap()
            .live(&resumed_live)
            .resume_from(&journal);
        assert_eq!(jsonl(&resumed), reference);
        assert_eq!(
            resumed_live.totals().trials,
            4,
            "the replayed cell counts nothing"
        );
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn live_cells_need_a_runner_but_replay_does_not() {
        let spec = live_spec();
        let err = SweepPlan::new(&spec).unwrap().run().unwrap_err();
        assert!(
            matches!(err, ScenarioError::Live(ref m) if m.contains("no live runner")),
            "{err}"
        );

        // A complete journal replays every cell, so no runner is needed.
        let journal = temp_path("replay.journal");
        let live = NetSweep::new(&spec).unwrap();
        let reference = jsonl(
            &SweepPlan::new(&spec)
                .unwrap()
                .live(&live)
                .journal_to(&journal),
        );
        let loaded = Journal::load(&journal).unwrap();
        let replayed = jsonl(&SweepPlan::new(&spec).unwrap().resume_journal(&loaded));
        assert_eq!(replayed, reference);
        assert_eq!(replayed.0.engine, "net/local");
        std::fs::remove_file(&journal).ok();
    }
}
