//! Facade-level integration: the scenario registry and the event-stream
//! engine are reachable and consistent through `rumor_spreading::prelude`.

use rumor_spreading::prelude::*;

#[test]
fn scenario_runs_through_the_facade() {
    let spec = ScenarioSpec {
        name: "facade-smoke".into(),
        description: None,
        family: FamilySpec::new("cycle"),
        protocol: ProtocolSpec::new("async"),
        sweep: {
            let mut s = SweepSpec::over(vec![24, 48]);
            s.trials = Some(6);
            s.seed = Some(11);
            s
        },
        faults: None,
        net: None,
    };
    let report: ScenarioReport = run_scenario(&spec).unwrap();
    assert_eq!(report.engine, "event");
    assert_eq!(report.rows.len(), 2);
    assert!(report.rows.iter().all(|r| r.completed == 6));
    // Cycles spread in Θ(n): doubling n should not shrink the median.
    assert!(report.rows[1].median.unwrap() > report.rows[0].median.unwrap());
}

#[test]
fn event_engine_and_scenario_agree() {
    // Running the same protocol/network directly through RunPlan matches
    // what the registry reports (same seeds, same driver).
    let mut spec = ScenarioSpec {
        name: "facade-direct".into(),
        description: None,
        family: FamilySpec::new("complete"),
        protocol: ProtocolSpec::new("async"),
        sweep: SweepSpec::over(vec![16]),
        faults: None,
        net: None,
    };
    spec.sweep.trials = Some(10);
    spec.sweep.seed = Some(5);
    let report = run_scenario(&spec).unwrap();

    // The registry builds `complete` on its implicit backend, which runs
    // the closed-form cut-rate state; the direct run uses the same
    // backend, so both sides consume the per-trial RNG stream in the same
    // order.
    let direct = RunPlan::new(10, 5)
        .config(RunConfig::with_max_time(1e5))
        .execute(
            || {
                StaticNetwork::from_topology(
                    rumor_spreading::graph::Topology::complete(16).unwrap(),
                )
            },
            || AnyProtocol::event(CutRateAsync::new()),
        )
        .unwrap();
    assert_eq!(direct.engine(), Engine::Event);
    assert_eq!(report.rows[0].completed, direct.completed());
    assert!((report.rows[0].median.unwrap() - direct.median()).abs() < 1e-12);
}

#[test]
fn sweep_plan_streams_jsonl_through_facade() {
    // A SweepPlan with a JsonlSink: every trial of every size lands in
    // the stream, and the rebuilt per-size summaries match the report
    // rows bit-for-bit.
    let mut spec = ScenarioSpec {
        name: "facade-jsonl".into(),
        description: None,
        family: FamilySpec::new("complete"),
        protocol: ProtocolSpec::new("async"),
        sweep: SweepSpec::over(vec![16, 24]),
        faults: None,
        net: None,
    };
    spec.sweep.trials = Some(6);
    spec.sweep.seed = Some(9);
    let plan = SweepPlan::new(&spec).unwrap();
    let mut sink = JsonlSink::new(Vec::new());
    let report = plan.run_with(&mut sink).unwrap();
    assert_eq!(sink.records(), 12);
    let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
    for (row, chunk) in report
        .rows
        .iter()
        .zip(text.lines().collect::<Vec<_>>().chunks(6))
    {
        let mut rebuilt = SummarySink::new();
        for line in chunk {
            let record: TrialRecord = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("bad JSONL line `{line}`: {e}"));
            assert_eq!(record.n, row.n);
            rebuilt.on_trial(&record).unwrap();
        }
        let summary = rebuilt.into_summary();
        assert_eq!(summary.completed(), row.completed);
        assert_eq!(
            summary.try_median().unwrap().to_bits(),
            row.median.unwrap().to_bits()
        );
    }
}

#[test]
fn toml_spec_round_trips_through_facade() {
    let spec = ScenarioSpec::template();
    let text = spec.to_toml_string();
    let back = ScenarioSpec::from_toml_str(&text).unwrap();
    assert_eq!(spec, back);
}
