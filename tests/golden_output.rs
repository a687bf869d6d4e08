//! Golden output for every checked-in scenario (but `gnp-huge` and
//! `net-million`), an async edge-Markovian sweep and the live runtime:
//! the JSONL byte stream of each sweep is pinned by its 64-bit FNV-1a
//! digest, so any change to what a sweep produces — RNG draw order, graph
//! builds, delta repair or rebuild, float summation order, envelope
//! scheduling — fails here.
//!
//! The digests belong to one [`RESULTS_VERSION`], recorded below. A
//! deliberate change of draw order re-pins the digests it moves and bumps
//! the version in the same change, so journals and `gossip serve` store
//! entries written by an older binary stop answering. Version 2 moved
//! only digest (a). Version 3 (one fault model: keyed liveness coins in
//! the analytic engines, `lossy` as async plus faults) moved only
//! faulty-gnp and lossy-expander; net-faulty, whose live liveness and drop
//! coins kept their keys, did not move. Version 4 (the vectorized lane
//! repaired across deltas, so dynamic windows run the vectorized loop)
//! moved only the vectorized dynamic digests (a) and (b); their scalar
//! twins (`sweep.vectorized = false`), pinned beside them, did not move,
//! and neither did any static digest or (c). The event engine's scalar
//! loop and `sweep.vectorized` were deleted later, at version 4 still:
//! no digest moved, and the scalar twins gave way to window-engine twins
//! (`sweep.engine = "window"`), the independent Fenwick sampler, pinned
//! at the values they already had before the deletion. Version 5 (the
//! event engine samples contacts on dense static generic topologies in
//! fault-free trials) moved no digest pinned before it: every pinned
//! static graph is too sparse for the sampler. Its own pin is (d), a
//! sweep of the benchmark's G(n, p) shape. Pin (e), taken at version 5
//! too, is a sampled G(n, p) sweep the vectorized lane runs to complete
//! spread, equal to its materialized twin byte for byte. Version 6 (the
//! lane keeps float rates on regular graphs too; the integer-count lane is
//! deleted) moved only lossy-expander, a random 6-regular graph. Pins (f),
//! taken at version 5 and unchanged at 6, are regular graphs whose degree
//! is a power of two, on which the float lane writes the count lane's
//! bytes exactly.
//!
//! The `#[ignore]`d test at the end pins the benchmark's two dynamic
//! sweeps at full size; it runs in release (`cargo test --release --test
//! golden_output -- --ignored`).

use rumor_spreading::bounds::journal::RESULTS_VERSION;
use rumor_spreading::prelude::*;
use std::path::Path;

/// The [`RESULTS_VERSION`] the digests below were taken at.
const DIGESTS_VERSION: u32 = 6;

/// Fails with the message a moved digest needs: the digests and the
/// results version move together.
fn assert_version() {
    assert_eq!(
        RESULTS_VERSION, DIGESTS_VERSION,
        "RESULTS_VERSION changed: re-pin the digests this change moves and set DIGESTS_VERSION"
    );
}

/// Asserts one pinned digest, naming the version it belongs to.
fn assert_pinned(actual: (usize, u64), pinned: (usize, u64), what: &str) {
    assert_eq!(
        actual, pinned,
        "{what}: JSONL moved at results version {RESULTS_VERSION}; a deliberate change of \
         results bumps RESULTS_VERSION and re-pins the digest"
    );
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs the sweep into memory: `(records, FNV-1a of the JSONL bytes)`.
/// A spec with a `[net]` table runs on the live runtime.
fn jsonl_digest(spec: &ScenarioSpec) -> (usize, u64) {
    let live = spec.net.as_ref().map(|_| NetSweep::new(spec).unwrap());
    let mut plan = SweepPlan::new(spec).unwrap();
    if let Some(live) = &live {
        plan = plan.live(live);
    }
    let mut sink = JsonlSink::new(Vec::new());
    plan.run_with(&mut sink).unwrap();
    let records = sink.records();
    (records, fnv1a(&sink.into_inner().unwrap()))
}

/// `spec` on the window engine, which rebuilds a Fenwick tree for every
/// exposed graph (`sweep.engine = "window"`).
fn window(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec.sweep.engine = Some("window".into());
    spec
}

fn checked_in(file: &str) -> ScenarioSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(file);
    ScenarioSpec::from_path(&path).unwrap()
}

#[test]
fn dynamic_family_jsonl_is_pinned() {
    assert_version();
    // (a) Async push-pull on edge-Markovian churn: every window's flip
    // delta reaches the cut rates, which repair the sparse ones and, from
    // 2n changed edges up (a quarter of the n = 128 windows), rebuild
    // (version 2); vectorized, in the lane (version 4).
    let churn = ScenarioSpec::from_json_str(
        r#"{
            "name": "golden-edge-markovian-async",
            "family": {"kind": "edge-markovian", "p": 0.02, "q": 0.2},
            "protocol": {"kind": "async"},
            "sweep": {"sizes": [64, 128], "trials": 10, "seed": 31}
        }"#,
    )
    .unwrap();
    assert_pinned(
        jsonl_digest(&churn),
        (20, 0xe2a2_a652_9616_dd1d),
        "edge-Markovian, async",
    );
    assert_pinned(
        jsonl_digest(&window(churn)),
        (20, 0x132f_9eda_e6ff_8ce8),
        "edge-Markovian, async, window engine",
    );

    // (b) The Section 4 adversary: a re-stitch delta after every window
    // in which a B-node hears the rumor.
    let mut diligent = checked_in("diligent.toml");
    diligent.sweep.sizes.truncate(2);
    assert_pinned(
        jsonl_digest(&diligent),
        (40, 0x59c3_b763_b91f_d940),
        "diligent.toml, n <= 512",
    );
    assert_pinned(
        jsonl_digest(&window(diligent)),
        (40, 0xc3a3_83f9_b54d_84e8),
        "diligent.toml, n <= 512, window engine",
    );

    // (c) The checked-in edge-Markovian scenario (2-push).
    let two_push = checked_in("edge-markovian.json");
    assert_pinned(
        jsonl_digest(&two_push),
        (60, 0x21a9_568a_9cf1_403e),
        "edge-markovian.json",
    );
}

#[test]
fn contact_sampler_jsonl_is_pinned() {
    assert_version();
    // (d) Async push-pull on static sampled G(n, 0.01), mean degree 20 and
    // 40: the contact sampler's draws (version 5).
    let gnp = ScenarioSpec::from_json_str(
        r#"{
            "name": "golden-gnp-contacts",
            "family": {"kind": "er", "p": 0.01, "backend": "sampled"},
            "protocol": {"kind": "async"},
            "sweep": {"sizes": [2000, 4000], "trials": 8, "seed": 41, "engine": "event"}
        }"#,
    )
    .unwrap();
    assert_pinned(
        jsonl_digest(&gnp),
        (16, 0x9f54_713b_01ac_ab4d),
        "sampled G(n, 0.01), async, event engine",
    );
}

#[test]
fn lane_gnp_jsonl_is_pinned() {
    assert_version();
    // (e) Async push-pull on static G(n, 0.01) at mean degree 9 and 11,
    // below the contact sampler's threshold, so the vectorized lane runs
    // every trial; build seed 1 draws connected graphs, so every trial
    // spreads. The sampled and the materialized graph are the same.
    let sampled = ScenarioSpec::from_json_str(
        r#"{
            "name": "golden-gnp-lane",
            "family": {"kind": "er", "p": 0.01, "backend": "sampled"},
            "protocol": {"kind": "async"},
            "sweep": {"sizes": [900, 1100], "trials": 40, "seed": 43, "engine": "event"}
        }"#,
    )
    .unwrap();
    let mut materialized = sampled.clone();
    materialized.family.backend = Some("materialized".into());
    let digest = jsonl_digest(&sampled);
    assert_eq!(
        digest,
        jsonl_digest(&materialized),
        "sampled vs materialized G(n, 0.01)"
    );
    assert_pinned(
        digest,
        (80, 0x2e3d_5d95_4395_3d3e),
        "sampled G(n, 0.01), async, lane",
    );
}

#[test]
fn regular_lane_jsonl_is_pinned() {
    assert_version();
    // (f) Async push-pull on regular graphs whose degree is a power of
    // two, where the lane's float rates, `λ` and bound are exact multiples
    // of 2/d, so they wrote the same bytes as the integer-count lane that
    // version 6 deleted. A random 8-regular graph runs the lane from t = 0.
    let regular = ScenarioSpec::from_json_str(
        r#"{
            "name": "golden-regular-lane",
            "family": {"kind": "regular", "d": 8},
            "protocol": {"kind": "async"},
            "sweep": {"sizes": [256, 512], "trials": 20, "seed": 47, "engine": "event"}
        }"#,
    )
    .unwrap();
    assert_pinned(
        jsonl_digest(&regular),
        (40, 0x7808_301f_1a78_dd20),
        "random 8-regular, async, lane",
    );
    // A 16-regular circulant is dense enough for the contact sampler,
    // which hands its trials over to the lane (few proposals cross the
    // cut of a ring).
    let circulant = ScenarioSpec::from_json_str(
        r#"{
            "name": "golden-circulant-handover",
            "family": {"kind": "circulant", "d": 16},
            "protocol": {"kind": "async"},
            "sweep": {"sizes": [512, 1024], "trials": 20, "seed": 53, "engine": "event"}
        }"#,
    )
    .unwrap();
    assert_pinned(
        jsonl_digest(&circulant),
        (40, 0x1675_3104_c5a5_ba24),
        "16-regular circulant, async, contact sampler then lane",
    );
}

/// A checked-in scenario, the sizes it runs at if cut, and its digest.
type Pin = (&'static str, Option<&'static [usize]>, (usize, u64));

#[test]
fn checked_in_scenarios_are_pinned() {
    assert_version();
    // Every other checked-in scenario but gnp-huge and net-million, whose
    // single cells take seconds even in release. Sizes are cut where
    // the debug test build needs it; the rest of each spec runs as it is.
    let pins: [Pin; 6] = [
        (
            "dense-complete.toml",
            Some(&[1000, 10000]),
            (40, 0xb15e_ed3a_fba2_ae7e),
        ),
        ("dichotomy-star.toml", None, (80, 0x6817_786b_2751_1516)),
        ("faulty-gnp.toml", None, (50, 0x6872_d9a0_9886_c9da)),
        (
            "gnp-sparse.toml",
            Some(&[3000]),
            (20, 0x1112_8a7d_0f78_f6d3),
        ),
        ("lossy-expander.toml", None, (150, 0x970e_6ffe_51f5_4301)),
        (
            "serve-cache.toml",
            Some(&[20000]),
            (4, 0x9846_9699_af37_1fc6),
        ),
    ];
    for (file, sizes, pinned) in pins {
        let mut spec = checked_in(file);
        if let Some(sizes) = sizes {
            spec.sweep.sizes = sizes.to_vec();
        }
        assert_pinned(jsonl_digest(&spec), pinned, file);
    }
}

#[test]
fn live_jsonl_is_pinned() {
    assert_version();
    // The digests of `gossip net run … --output jsonl` for these files;
    // `scenario run` and `serve` stream the same bytes.
    let smoke = checked_in("net-smoke.toml");
    assert_pinned(
        jsonl_digest(&smoke),
        (24, 0x5c57_1f5b_e556_64db),
        "net-smoke.toml",
    );
    // Bit-identical at any node-group count.
    for groups in [1, 3] {
        let mut spec = smoke.clone();
        spec.net.as_mut().unwrap().groups = Some(groups);
        assert_pinned(
            jsonl_digest(&spec),
            (24, 0x5c57_1f5b_e556_64db),
            &format!("net-smoke.toml at {groups} group(s)"),
        );
    }
    // Every live fault kind at once.
    assert_pinned(
        jsonl_digest(&checked_in("net-faulty.toml")),
        (20, 0x4c37_adb0_79c7_c654),
        "net-faulty.toml",
    );
}

/// The benchmark's two dynamic sweeps at their full shape, on the event
/// engine and on the window engine. Seconds in release, minutes in the
/// debug build, so ignored there.
#[test]
#[ignore = "release only: cargo test --release --test golden_output -- --ignored"]
fn benchmark_shapes_are_pinned() {
    assert_version();
    let churn = ScenarioSpec::from_json_str(
        r#"{
            "name": "golden-bench-edge-markovian",
            "family": {"kind": "edge-markovian", "p": 0.002, "q": 0.2, "build_seed": 11},
            "protocol": {"kind": "async"},
            "sweep": {"sizes": [2000, 4000], "trials": 20, "seed": 12}
        }"#,
    )
    .unwrap();
    let diligent = ScenarioSpec::from_json_str(
        r#"{
            "name": "golden-bench-diligent",
            "family": {"kind": "diligent", "rho": 0.25},
            "protocol": {"kind": "async"},
            "sweep": {"sizes": [1024, 2048], "trials": 20, "seed": 13}
        }"#,
    )
    .unwrap();
    let pins = [
        (churn.clone(), (40, 0x52f6_c74b_96c2_6744), "edge-Markovian"),
        (
            window(churn),
            (40, 0xf0fe_f94f_4e15_39db),
            "edge-Markovian, window engine",
        ),
        (diligent.clone(), (40, 0xa8a3_7b7f_caea_5688), "G(n, 0.25)"),
        (
            window(diligent),
            (40, 0x23e7_4d18_71e0_4eb6),
            "G(n, 0.25), window engine",
        ),
    ];
    for (spec, pinned, what) in pins {
        assert_pinned(jsonl_digest(&spec), pinned, what);
    }
}
