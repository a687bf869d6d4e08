//! The unified scenario registry.
//!
//! A **scenario** is a declarative experiment: a network family, a
//! protocol, a size sweep, and trial parameters, expressed as a
//! serde-backed [`ScenarioSpec`] that round-trips through TOML and JSON.
//! The registry replaces per-experiment hard-coding: the CLI's `scenario`
//! subcommand runs a spec straight from a file, the `gossip-bench`
//! experiments build their sweeps on [`run_scenario`], and the family /
//! protocol name tables below are the single source of truth the CLI's
//! `--family` / `--protocol` flags resolve against.
//!
//! ```toml
//! name = "dichotomy-async"
//!
//! [family]
//! kind = "dynamic-star"
//! # backend = "auto" | "implicit" | "materialized" | "sampled"
//! # (structured static families default to the implicit closed-form
//! # representation; random families — `er`, `regular`, `circulant-lift`
//! # — accept "sampled" for the seeded backend, realized on first touch)
//!
//! [protocol]
//! kind = "async"
//!
//! [sweep]
//! sizes = [64, 128, 256]
//! trials = 20
//! seed = 42
//! ```
//!
//! Engines: by default a scenario runs on the event-stream engine
//! ([`gossip_sim::EventSimulation`]) whenever the protocol implements
//! `IncrementalProtocol`, and falls back to the window-based reference
//! engine otherwise; `engine = "window"` or `engine = "event"` in
//! `[sweep]` forces a choice. A `[net]` table instead selects the live
//! message-passing runtime of `gossip-net`, which [`SweepPlan`] drives
//! through a [`LiveRunner`].

use gossip_dynamics::{
    AbsoluteDiligentNetwork, AlternatingRegular, CliquePendant, DiligentNetwork, DynamicNetwork,
    DynamicStar, EdgeMarkovian, MobileAgents, ResampledGnp, StaticNetwork,
};
use gossip_graph::{generators, GraphError, Topology};
use gossip_sim::{
    AnyProtocol, AsyncPull, AsyncPush, AsyncPushPull, CutRateAsync, Engine, FaultModel, Flooding,
    Protocol, RunConfig, RunPlan, RunReport, SimError, SyncPull, SyncPush, SyncPushPull,
    TrialObserver, TrialRecord, TrialSummary, TwoPush, WorkspacePool,
};
use gossip_stats::SimRng;
use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use crate::journal::{self, Journal, JournalCell, JournalHeader, JournalWriter, RESULTS_VERSION};
pub use crate::lossy::fold_lossy;

// ---------------------------------------------------------------------------
// Spec types
// ---------------------------------------------------------------------------

/// A complete declarative experiment: family + protocol + sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (used in reports and file names).
    pub name: String,
    /// Optional free-text description.
    pub description: Option<String>,
    /// The network family to build at each sweep size.
    pub family: FamilySpec,
    /// The protocol to run.
    pub protocol: ProtocolSpec,
    /// Sizes, trials, seeds, cutoff, engine.
    pub sweep: SweepSpec,
    /// Optional fault injection (`[faults]`); absent or inactive specs
    /// run the fault-free process bit-identically.
    pub faults: Option<FaultSpec>,
    /// Optional live-runtime configuration (`[net]`). A `[net]` table
    /// selects the message-passing runtime of the `gossip-net` crate in
    /// every front end (`scenario run`, `net run`, `serve`); removing it
    /// gives the spec's analytic twin. Of its fields only `tick` and
    /// `horizon` change results (see [`ScenarioSpec::normalized`]).
    pub net: Option<NetSpec>,
}

/// Network-family selection plus the per-family parameters.
///
/// Unset parameters take the same defaults as the CLI flags; parameters a
/// family does not read are ignored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilySpec {
    /// Family name (see [`families`]).
    pub kind: String,
    /// Degree (`regular`, `circulant`).
    pub d: Option<usize>,
    /// Edge probability (`er`) / birth probability (`edge-markovian`).
    pub p: Option<f64>,
    /// Death probability (`edge-markovian`).
    pub q: Option<f64>,
    /// Diligence parameter (`diligent`, `absolute-diligent`).
    pub rho: Option<f64>,
    /// Grid rows (`torus`, `mobile`).
    pub rows: Option<usize>,
    /// Grid columns (`torus`, `mobile`).
    pub cols: Option<usize>,
    /// Agent count (`mobile`).
    pub agents: Option<usize>,
    /// Contact radius (`mobile`).
    pub radius: Option<usize>,
    /// Hypercube dimension (`hypercube`).
    pub dim: Option<usize>,
    /// Topology backend: `"auto"` (default — closed-form implicit
    /// representation where one exists), `"implicit"` (require it),
    /// `"materialized"` (force CSR adjacency; for equivalence checks and
    /// baselines), or `"sampled"` (seeded random-graph backend — `er`
    /// becomes [`gossip_graph::Topology::gnp`], `regular` becomes
    /// [`gossip_graph::Topology::random_regular`]; built in O(1), realized
    /// once into a CSR graph on first touch and shared by every trial, no
    /// `Θ(n²)` generation). Families without the requested representation
    /// reject non-`auto` values at build time.
    pub backend: Option<String>,
    /// Seed for randomized family construction (default 1).
    pub build_seed: Option<u64>,
}

impl FamilySpec {
    /// A spec selecting `kind` with every parameter at its default.
    pub fn new(kind: impl Into<String>) -> Self {
        FamilySpec {
            kind: kind.into(),
            d: None,
            p: None,
            q: None,
            rho: None,
            rows: None,
            cols: None,
            agents: None,
            radius: None,
            dim: None,
            backend: None,
            build_seed: None,
        }
    }

    /// The semantic normal form of the family section: every unset
    /// parameter is written out as the default [`build_family`] would
    /// fill in, so `p = 0.1` and an absent `p` render identically.
    /// `rho`'s default depends on the family (`diligent` 0.25,
    /// `absolute-diligent` 0.125); for other kinds an unset `rho` is left
    /// unset (the field is never read, so the form is still canonical
    /// per kind). Part of [`ScenarioSpec::normalized`].
    pub fn normalized(&self) -> FamilySpec {
        let rho = self.rho.or(match self.kind.as_str() {
            "diligent" => Some(0.25),
            "absolute-diligent" => Some(0.125),
            _ => None,
        });
        FamilySpec {
            kind: self.kind.clone(),
            d: Some(self.d.unwrap_or(4)),
            p: Some(self.p.unwrap_or(0.1)),
            q: Some(self.q.unwrap_or(0.3)),
            rho,
            rows: Some(self.rows.unwrap_or(16)),
            cols: Some(self.cols.unwrap_or(16)),
            agents: Some(self.agents.unwrap_or(40)),
            radius: Some(self.radius.unwrap_or(1)),
            dim: Some(self.dim.unwrap_or(8)),
            backend: Some(self.backend.clone().unwrap_or_else(|| "auto".into())),
            build_seed: Some(self.build_seed.unwrap_or(1)),
        }
    }
}

/// Protocol selection plus protocol parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolSpec {
    /// Protocol name (see [`protocols`]).
    pub kind: String,
    /// Per-contact message-loss probability (`lossy`, default 0).
    pub loss: Option<f64>,
    /// Per-window node downtime probability (`lossy`, default 0).
    pub downtime: Option<f64>,
}

impl ProtocolSpec {
    /// A spec selecting `kind` with default parameters.
    pub fn new(kind: impl Into<String>) -> Self {
        ProtocolSpec {
            kind: kind.into(),
            loss: None,
            downtime: None,
        }
    }
}

/// Sweep and trial parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Network sizes to sweep (the `--n` of each run).
    pub sizes: Vec<usize>,
    /// Independent trials per size (default 20).
    pub trials: Option<usize>,
    /// Trial RNG seed (default 42).
    pub seed: Option<u64>,
    /// Time cutoff per run (default 1e5).
    pub max_time: Option<f64>,
    /// `"auto"` (default), `"event"`, or `"window"`.
    pub engine: Option<String>,
    /// Start node override (default: the family's suggested start).
    pub start: Option<u32>,
    /// Worker threads for the sweep (default: every available core).
    /// Cells run one after another, and each size's [`RunPlan`] spreads
    /// its trials over this many workers.
    pub threads: Option<usize>,
}

impl SweepSpec {
    /// A sweep over `sizes` with every other parameter at its default.
    pub fn over(sizes: Vec<usize>) -> Self {
        SweepSpec {
            sizes,
            trials: None,
            seed: None,
            max_time: None,
            engine: None,
            start: None,
            threads: None,
        }
    }

    /// Trials per size (default 20).
    pub fn trials_or_default(&self) -> usize {
        self.trials.unwrap_or(20)
    }

    /// Trial seed (default 42).
    pub fn seed_or_default(&self) -> u64 {
        self.seed.unwrap_or(42)
    }

    /// Cutoff (default 1e5).
    pub fn max_time_or_default(&self) -> f64 {
        self.max_time.unwrap_or(1e5)
    }
}

/// Fault-injection parameters — the `[faults]` section of a scenario.
///
/// Compiles into the one [`gossip_sim::FaultModel`] both stacks run via
/// [`FaultSpec::to_model`]; every unset field takes the fault-free
/// default, so an empty `[faults]` table changes nothing. Active fault
/// models need the event engine (or the live runtime) and a fault-aware
/// protocol (validation rejects other combinations up front).
///
/// ```toml
/// [faults]
/// drop = 0.1            # per-message drop probability (Doerr–Kostrygin)
/// crash_rate = 0.02     # Poisson node-crash rate per unit time
/// recovery_rate = 0.05  # Poisson recovery rate (0 = crashes permanent)
/// seed = 1              # dedicated fault stream seed
/// schedule = [[3, 0]]   # crash node 0 when the window clock reaches 3
/// target_high_degree = 1  # crash the top-degree up node every window
/// partition_rate = 0.05 # live only: rate of partitioned unit windows
/// delay = 0.1           # live only: per-envelope extra-latency probability
/// delay_epochs = 3      # live only: max extra epochs a delayed envelope waits
/// duplicate = 0.05      # live only: per-envelope duplication probability
/// ```
///
/// The last four fields model *delivery-layer chaos* — network
/// partitions, late messages, duplicated messages — which only exists
/// where messages physically travel: the live runtime (a spec with a
/// `[net]` table). Analytic specs reject them ([`ScenarioSpec::validate`]);
/// the live runtime rejects `target_high_degree` in turn (it needs a
/// global degree ordering over still-up nodes, an analytic-engine
/// view). `kind = "lossy"`'s `loss` and `downtime` fold into the same
/// model ([`fold_lossy`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Per-message drop probability in `[0, 1]` (default 0).
    pub drop: Option<f64>,
    /// Poisson rate at which each up node crashes, per unit time
    /// (default 0).
    pub crash_rate: Option<f64>,
    /// Poisson rate at which each down node recovers, per unit time
    /// (default 0 — every crash is permanent).
    pub recovery_rate: Option<f64>,
    /// Seed of the dedicated fault stream (default 0). Fault draws never
    /// touch the trial RNG, so adding an inactive `[faults]` table leaves
    /// results bit-identical.
    pub seed: Option<u64>,
    /// Explicit crash schedule as `[window, node]` pairs; each node
    /// crashes when the window clock reaches its entry.
    pub schedule: Option<Vec<(u64, u32)>>,
    /// Adversarial targeting: crash the `k` highest-degree still-up nodes
    /// at the start of every window (default 0). Analytic engines only.
    pub target_high_degree: Option<usize>,
    /// Live only: Poisson rate (per unit time) at which a unit window is
    /// partitioned into two seeded halves that cannot exchange envelopes
    /// (default 0).
    pub partition_rate: Option<f64>,
    /// Live only: probability in `[0, 1]` that an envelope is delayed by
    /// extra epochs beyond the one-tick latency (default 0).
    pub delay: Option<f64>,
    /// Live only: maximum extra epochs a delayed envelope waits, drawn
    /// uniformly from `1..=delay_epochs` (default 1; must be ≥ 1).
    pub delay_epochs: Option<u64>,
    /// Live only: probability in `[0, 1]` that an envelope is delivered
    /// twice (default 0).
    pub duplicate: Option<f64>,
}

impl FaultSpec {
    /// A spec with every field unset (the fault-free regime).
    pub fn new() -> Self {
        FaultSpec {
            drop: None,
            crash_rate: None,
            recovery_rate: None,
            seed: None,
            schedule: None,
            target_high_degree: None,
            partition_rate: None,
            delay: None,
            delay_epochs: None,
            duplicate: None,
        }
    }

    /// Compiles the table into the [`FaultModel`] every engine runs —
    /// the analytic engines and the live runtime alike — filling
    /// defaults. The one compile step: `downtime` is not a table field
    /// (it comes from `kind = "lossy"`, see [`fold_lossy`]), and range
    /// checks are [`FaultModel::validate`]'s.
    pub fn to_model(&self) -> FaultModel {
        FaultModel {
            drop: self.drop.unwrap_or(0.0),
            crash_rate: self.crash_rate.unwrap_or(0.0),
            recovery_rate: self.recovery_rate.unwrap_or(0.0),
            downtime: 0.0,
            seed: self.seed.unwrap_or(0),
            schedule: self.schedule.iter().flatten().copied().collect(),
            target_high_degree: self.target_high_degree.unwrap_or(0),
            partition_rate: self.partition_rate.unwrap_or(0.0),
            delay: self.delay.unwrap_or(0.0),
            delay_epochs: self.delay_epochs.unwrap_or(1),
            duplicate: self.duplicate.unwrap_or(0.0),
        }
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::new()
    }
}

/// Live-runtime parameters — the `[net]` section of a scenario.
///
/// Its presence selects the message-passing runtime, where nodes are
/// actors multiplexed onto node-group threads and every interaction
/// travels as a routed message. Every field is optional; the
/// `*_or_default` accessors own the defaults.
///
/// ```toml
/// [net]
/// groups = 4          # node-group threads per trial (default: cores, max 8)
/// delivery = "local"  # "local" in-process channels | "udp" loopback datagrams
/// horizon = 50.0      # virtual-time cutoff (default: sweep.max_time)
/// tick = 0.001        # message latency = epoch length (default 1e-3)
/// exchange_timeout = 1.0  # udp: seconds before a stalled exchange retries
/// exchange_retries = 3    # udp: retransmission attempts before giving up
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetSpec {
    /// Node-group threads per trial (default: one per available core,
    /// capped at 8).
    pub groups: Option<usize>,
    /// Transport between node groups: `"local"` (lock-free in-process
    /// channels, default) or `"udp"` (length-prefixed loopback
    /// datagrams).
    pub delivery: Option<String>,
    /// Virtual-time cutoff of a live trial (default: `sweep.max_time`).
    pub horizon: Option<f64>,
    /// Message latency, which is also the epoch length of the
    /// synchronized runtime (default 1e-3). Smaller ticks track the
    /// analytic zero-latency distributions more closely at the cost of
    /// more exchange rounds.
    pub tick: Option<f64>,
    /// UDP delivery: how many wall-clock seconds one epoch exchange
    /// waits for missing peer datagrams before retransmitting (default
    /// 1.0; the wait doubles per retry).
    pub exchange_timeout: Option<f64>,
    /// UDP delivery: retransmission attempts before the exchange fails
    /// with a structured stall error (default 3; `0` fails on the first
    /// timeout, restoring pre-retry behavior).
    pub exchange_retries: Option<u32>,
}

impl NetSpec {
    /// A spec with every field unset (all defaults).
    pub fn new() -> Self {
        NetSpec {
            groups: None,
            delivery: None,
            horizon: None,
            tick: None,
            exchange_timeout: None,
            exchange_retries: None,
        }
    }

    /// Node groups per trial (default: one per available core, at most 8;
    /// epoch barriers outgrow their benefit beyond that on one machine).
    pub fn groups_or_default(&self) -> usize {
        let cores = || std::thread::available_parallelism().map_or(1, |p| p.get());
        self.groups.unwrap_or_else(|| cores().min(8))
    }

    /// Transport name (default `"local"`).
    pub fn delivery_or_default(&self) -> &str {
        self.delivery.as_deref().unwrap_or("local")
    }

    /// Message latency = epoch length (default 1e-3: small against every
    /// per-hop spread-time scale the repo sweeps, so live spread times
    /// match the analytic zero-latency distributions within KS noise;
    /// large enough that million-node runs keep thousands of events per
    /// epoch between barriers).
    pub fn tick_or_default(&self) -> f64 {
        self.tick.unwrap_or(1e-3)
    }

    /// Virtual-time cutoff (default: the sweep's `max_time`).
    pub fn horizon_or_default(&self, sweep: &SweepSpec) -> f64 {
        self.horizon.unwrap_or_else(|| sweep.max_time_or_default())
    }

    /// UDP exchange timeout in seconds (default 1.0).
    pub fn exchange_timeout_or_default(&self) -> f64 {
        self.exchange_timeout.unwrap_or(1.0)
    }

    /// UDP retransmission attempts (default 3).
    pub fn exchange_retries_or_default(&self) -> u32 {
        self.exchange_retries.unwrap_or(3)
    }
}

impl Default for NetSpec {
    fn default() -> Self {
        Self::new()
    }
}

/// Families the live runtime can run: those whose topology is static, so
/// one `Topology` snapshot is the whole network. Kept in sync with
/// [`families`] (test-enforced against each entry's synopsis).
const LIVE_STATIC_FAMILIES: &[&str] = &[
    "complete",
    "star",
    "path",
    "cycle",
    "torus",
    "hypercube",
    "er",
    "regular",
    "circulant",
    "circulant-lift",
];

/// Protocol kinds with a live (message-passing) implementation, and the
/// display name live reports carry for each.
const LIVE_PROTOCOLS: &[(&str, &str)] = &[
    ("async", "async push-pull (live)"),
    ("naive", "async push-pull (live)"),
    ("push", "async push (live)"),
    ("pull", "async pull (live)"),
];

/// The live runtime's display name for protocol `kind`, or `None` when
/// the runtime has no implementation of it.
pub fn live_protocol_name(kind: &str) -> Option<&'static str> {
    LIVE_PROTOCOLS.iter().find(|p| p.0 == kind).map(|p| p.1)
}

/// Largest sweep size allowed with `net.delivery = "udp"` on sampled
/// topology backends: above this, realizing the sampled graph in every
/// peer process is the dominant cost and `local` delivery is the right
/// tool.
const UDP_SAMPLED_SIZE_LIMIT: usize = 65_536;

/// Parses a spec's engine string into the driver's [`Engine`] selector
/// (`None` ⇒ [`Engine::Auto`]).
///
/// # Errors
///
/// [`ScenarioError::Invalid`] on unrecognized names.
pub fn parse_engine(s: Option<&str>) -> Result<Engine, ScenarioError> {
    match s.unwrap_or("auto") {
        "auto" => Ok(Engine::Auto),
        "event" => Ok(Engine::Event),
        "window" => Ok(Engine::Window),
        other => Err(ScenarioError::Invalid(format!(
            "unknown engine `{other}` (auto, event, window)"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Scenario construction / execution errors.
#[derive(Debug)]
pub enum ScenarioError {
    /// The spec file could not be parsed.
    Parse(String),
    /// `family.kind` is not a registered family.
    UnknownFamily(String),
    /// `protocol.kind` is not a registered protocol.
    UnknownProtocol(String),
    /// A structurally invalid spec (empty sweep, bad engine, …).
    Invalid(String),
    /// A family constructor rejected its parameters.
    Graph(GraphError),
    /// A simulation run failed.
    Sim(SimError),
    /// A sweep journal could not be written, read, or reconciled with
    /// the spec (see [`crate::journal`]).
    Journal(String),
    /// A live cell could not run: no [`LiveRunner`] is attached, or the
    /// live runtime failed (its message).
    Live(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(m) => write!(f, "scenario parse error: {m}"),
            ScenarioError::UnknownFamily(k) => {
                write!(f, "unknown family `{k}` (see the scenario registry)")
            }
            ScenarioError::UnknownProtocol(k) => {
                write!(f, "unknown protocol `{k}` (see the scenario registry)")
            }
            ScenarioError::Invalid(m) => write!(f, "invalid scenario: {m}"),
            ScenarioError::Graph(e) => write!(f, "{e}"),
            ScenarioError::Sim(e) => write!(f, "{e}"),
            ScenarioError::Journal(m) => write!(f, "sweep journal error: {m}"),
            ScenarioError::Live(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Graph(e) => Some(e),
            ScenarioError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ScenarioError {
    fn from(e: GraphError) -> Self {
        ScenarioError::Graph(e)
    }
}

impl From<SimError> for ScenarioError {
    fn from(e: SimError) -> Self {
        ScenarioError::Sim(e)
    }
}

// ---------------------------------------------------------------------------
// Registry tables
// ---------------------------------------------------------------------------

/// One registry row: a name, the spec parameters it reads, a synopsis.
#[derive(Debug, Clone, Copy)]
pub struct RegistryEntry {
    /// The `kind` string.
    pub name: &'static str,
    /// Parameter names the entry reads (spec fields / CLI flags).
    pub params: &'static [&'static str],
    /// One-line description.
    pub synopsis: &'static str,
}

/// Every registered network family.
pub fn families() -> Vec<RegistryEntry> {
    vec![
        RegistryEntry {
            name: "complete",
            params: &["backend"],
            synopsis: "static complete graph K_n (implicit by default)",
        },
        RegistryEntry {
            name: "star",
            params: &["backend"],
            synopsis: "static star K_{1,n-1} (node 0 center, implicit by default)",
        },
        RegistryEntry {
            name: "path",
            params: &[],
            synopsis: "static path P_n",
        },
        RegistryEntry {
            name: "cycle",
            params: &[],
            synopsis: "static cycle C_n",
        },
        RegistryEntry {
            name: "torus",
            params: &["rows", "cols"],
            synopsis: "static 2-D torus grid (n ignored)",
        },
        RegistryEntry {
            name: "hypercube",
            params: &["dim"],
            synopsis: "static 2^dim hypercube (n ignored)",
        },
        RegistryEntry {
            name: "er",
            params: &["p", "backend"],
            synopsis: "static Erdős–Rényi G(n,p) (backend=sampled: seeded, one shared CSR)",
        },
        RegistryEntry {
            name: "regular",
            params: &["d", "backend"],
            synopsis: "static random connected d-regular graph (expander w.h.p.)",
        },
        RegistryEntry {
            name: "circulant",
            params: &["d", "backend"],
            synopsis: "static d-regular circulant (consecutive offsets, implicit by default)",
        },
        RegistryEntry {
            name: "circulant-lift",
            params: &["d", "backend"],
            synopsis: "seeded random relabeling of the d-regular circulant (sampled, O(1) queries)",
        },
        RegistryEntry {
            name: "resampled-gnp",
            params: &["p"],
            synopsis: "dynamic Erdős–Rényi: a fresh sampled G(n,p) every window",
        },
        RegistryEntry {
            name: "dynamic-star",
            params: &[],
            synopsis: "G2 of Fig. 1(b): star re-centered on an uninformed node each step",
        },
        RegistryEntry {
            name: "clique-pendant",
            params: &[],
            synopsis: "G1 of Fig. 1(a): clique+pendant, then two bridged cliques",
        },
        RegistryEntry {
            name: "diligent",
            params: &["rho"],
            synopsis: "Section 4 rho-diligent H_{k,Delta} adversary (Theorem 1.2)",
        },
        RegistryEntry {
            name: "absolute-diligent",
            params: &["rho"],
            synopsis: "Section 5.1 absolutely rho-diligent adversary (Theorem 1.5)",
        },
        RegistryEntry {
            name: "alternating",
            params: &[],
            synopsis: "Section 1.2 alternating {3-regular, K_n} network (E9)",
        },
        RegistryEntry {
            name: "edge-markovian",
            params: &["p", "q"],
            synopsis: "edge-Markovian evolving graph of related work [7]",
        },
        RegistryEntry {
            name: "mobile",
            params: &["agents", "rows", "cols", "radius"],
            synopsis: "random-walking agents on a torus, proximity contacts [20, 22]",
        },
    ]
}

/// Every registered protocol. `params` lists spec fields; protocols marked
/// incremental run on the event-stream engine by default.
pub fn protocols() -> Vec<RegistryEntry> {
    vec![
        RegistryEntry {
            name: "async",
            params: &[],
            synopsis: "asynchronous push-pull, exact cut-rate simulator (default)",
        },
        RegistryEntry {
            name: "naive",
            params: &[],
            synopsis: "asynchronous push-pull, tick-by-tick ground-truth simulator",
        },
        RegistryEntry {
            name: "push",
            params: &[],
            synopsis: "asynchronous push-only",
        },
        RegistryEntry {
            name: "pull",
            params: &[],
            synopsis: "asynchronous pull-only",
        },
        RegistryEntry {
            name: "sync",
            params: &[],
            synopsis: "synchronous push-pull rounds (Theorem 1.7 comparisons)",
        },
        RegistryEntry {
            name: "sync-push",
            params: &[],
            synopsis: "synchronous push-only rounds",
        },
        RegistryEntry {
            name: "sync-pull",
            params: &[],
            synopsis: "synchronous pull-only rounds",
        },
        RegistryEntry {
            name: "flooding",
            params: &[],
            synopsis: "informed nodes flood all neighbors each round",
        },
        RegistryEntry {
            name: "two-push",
            params: &[],
            synopsis: "rate-2 push (the Section 4 / Lemma 5.2 coupling process)",
        },
        RegistryEntry {
            name: "lossy",
            params: &["loss", "downtime"],
            synopsis:
                "async plus faults: i.i.d. message loss and per-window downtime (event engine)",
        },
    ]
}

/// Whether `kind` names a protocol with an incremental implementation
/// (eligible for the event-stream engine). Answered by probing
/// [`build_any_protocol`] with default parameters, so this can never
/// drift from what the builder actually produces.
pub fn protocol_is_incremental(kind: &str) -> bool {
    build_any_protocol(&ProtocolSpec::new(kind)).is_ok_and(|p| p.supports_event())
}

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

/// Which topology representation a family spec requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackendChoice {
    /// Closed-form implicit representation where one exists.
    Auto,
    /// Require the implicit representation (error where none exists).
    Implicit,
    /// Force CSR adjacency lists.
    Materialized,
    /// Require the seeded sampled representation (random-graph backend
    /// realized on first touch; error where none exists).
    Sampled,
}

impl BackendChoice {
    fn parse(s: Option<&str>) -> Result<Self, ScenarioError> {
        match s.unwrap_or("auto") {
            "auto" => Ok(BackendChoice::Auto),
            "implicit" => Ok(BackendChoice::Implicit),
            "materialized" => Ok(BackendChoice::Materialized),
            "sampled" => Ok(BackendChoice::Sampled),
            other => Err(ScenarioError::Invalid(format!(
                "unknown backend `{other}` (auto, implicit, materialized, sampled)"
            ))),
        }
    }
}

/// Builds the family selected by `spec` at size `n`.
///
/// # Errors
///
/// [`ScenarioError::UnknownFamily`] for unregistered kinds;
/// [`ScenarioError::Graph`] when the constructor rejects the parameters;
/// [`ScenarioError::Invalid`] when `backend` requests a representation the
/// family does not have.
pub fn build_family(spec: &FamilySpec, n: usize) -> Result<Box<dyn DynamicNetwork>, ScenarioError> {
    let mut rng = SimRng::seed_from_u64(spec.build_seed.unwrap_or(1));
    let backend = BackendChoice::parse(spec.backend.as_deref())?;
    let no_backend = |repr: &str| -> ScenarioError {
        ScenarioError::Invalid(format!("family `{}` has no {repr} backend", spec.kind))
    };
    // Static structured families: implicit unless materialization is
    // forced; they have no sampled representation.
    let choose = |topo: Topology| -> Result<Box<dyn DynamicNetwork>, ScenarioError> {
        match backend {
            BackendChoice::Materialized => Ok(Box::new(StaticNetwork::new(topo.materialize()))),
            BackendChoice::Sampled => Err(no_backend("sampled")),
            _ => Ok(Box::new(StaticNetwork::from_topology(topo))),
        }
    };
    // Seeded sampled families: sampled unless materialization is forced;
    // they have no closed-form implicit representation.
    let choose_sampled = |topo: Topology| -> Result<Box<dyn DynamicNetwork>, ScenarioError> {
        match backend {
            BackendChoice::Materialized => Ok(Box::new(StaticNetwork::new(topo.materialize()))),
            BackendChoice::Implicit => Err(no_backend("implicit (use `sampled`)")),
            _ => Ok(Box::new(StaticNetwork::from_topology(topo))),
        }
    };
    // Families with only one representation reject explicit requests for
    // the other ones.
    let implicit_only = || -> Result<(), ScenarioError> {
        match backend {
            BackendChoice::Materialized => Err(no_backend("materialized")),
            BackendChoice::Sampled => Err(no_backend("sampled")),
            _ => Ok(()),
        }
    };
    let materialized_only = || -> Result<(), ScenarioError> {
        match backend {
            BackendChoice::Implicit => Err(no_backend("implicit")),
            BackendChoice::Sampled => Err(no_backend("sampled")),
            _ => Ok(()),
        }
    };
    let net: Box<dyn DynamicNetwork> = match spec.kind.as_str() {
        "complete" => choose(Topology::complete(n)?)?,
        "star" => choose(Topology::star(n, 0)?)?,
        "path" => {
            materialized_only()?;
            Box::new(StaticNetwork::new(generators::path(n)?))
        }
        "cycle" => {
            materialized_only()?;
            Box::new(StaticNetwork::new(generators::cycle(n)?))
        }
        "torus" => {
            materialized_only()?;
            let rows = spec.rows.unwrap_or(16);
            let cols = spec.cols.unwrap_or(16);
            Box::new(StaticNetwork::new(generators::torus(rows, cols)?))
        }
        "hypercube" => {
            materialized_only()?;
            let dim = spec.dim.unwrap_or(8);
            Box::new(StaticNetwork::new(generators::hypercube(dim)?))
        }
        "regular" => {
            let d = spec.d.unwrap_or(4);
            match backend {
                BackendChoice::Sampled => choose_sampled(
                    sampled_topology(spec, n)?.expect("regular + sampled is a sampled family"),
                )?,
                BackendChoice::Implicit => return Err(no_backend("implicit (use `sampled`)")),
                _ => Box::new(StaticNetwork::new(generators::random_connected_regular(
                    n, d, &mut rng,
                )?)),
            }
        }
        "er" => {
            let p = spec.p.unwrap_or(0.1);
            match backend {
                // The eager generator *is* the sampled backend seeded with
                // the rng's next u64, so the two representations below
                // are the identical CSR graph for a given build seed —
                // `backend = "sampled"` realizes it once, on first touch,
                // for every trial to share.
                BackendChoice::Sampled => choose_sampled(
                    sampled_topology(spec, n)?.expect("er + sampled is a sampled family"),
                )?,
                BackendChoice::Implicit => return Err(no_backend("implicit (use `sampled`)")),
                _ => Box::new(StaticNetwork::new(generators::erdos_renyi(n, p, &mut rng)?)),
            }
        }
        "circulant" => {
            let d = spec.d.unwrap_or(4);
            choose(Topology::regular_circulant(n, d)?)?
        }
        "circulant-lift" => {
            let topo = match sampled_topology(spec, n)? {
                Some(topo) => topo,
                // Materialized / implicit requests: build the same lift
                // and let `choose_sampled` materialize it or reject.
                None => {
                    Topology::circulant_lift(n, spec.d.unwrap_or(4), family_topology_seed(spec))?
                }
            };
            choose_sampled(topo)?
        }
        "resampled-gnp" => {
            // Every window is a sampled topology; `auto` and `sampled`
            // are the same (and only) representation.
            match backend {
                BackendChoice::Implicit => return Err(no_backend("implicit")),
                BackendChoice::Materialized => return Err(no_backend("materialized")),
                _ => {}
            }
            let p = spec.p.unwrap_or(0.1);
            Box::new(ResampledGnp::new(n, p, rng.next_u64())?)
        }
        "dynamic-star" => {
            implicit_only()?;
            Box::new(DynamicStar::new(n.saturating_sub(1))?)
        }
        "clique-pendant" => {
            implicit_only()?;
            Box::new(CliquePendant::new(n)?)
        }
        "diligent" => {
            materialized_only()?;
            let rho = spec.rho.unwrap_or(0.25);
            Box::new(DiligentNetwork::new(n, rho)?)
        }
        "absolute-diligent" => {
            materialized_only()?;
            let rho = spec.rho.unwrap_or(0.125);
            Box::new(AbsoluteDiligentNetwork::new(n, rho)?)
        }
        "alternating" => {
            materialized_only()?;
            Box::new(AlternatingRegular::new(n, &mut rng)?)
        }
        "edge-markovian" => {
            materialized_only()?;
            let p = spec.p.unwrap_or(0.1);
            let q = spec.q.unwrap_or(0.3);
            let initial = generators::erdos_renyi(n, p, &mut rng)?;
            Box::new(EdgeMarkovian::new(initial, p, q)?)
        }
        "mobile" => {
            materialized_only()?;
            let agents = spec.agents.unwrap_or(40);
            let rows = spec.rows.unwrap_or(16);
            let cols = spec.cols.unwrap_or(16);
            let radius = spec.radius.unwrap_or(1);
            Box::new(MobileAgents::new(agents, rows, cols, radius, &mut rng)?)
        }
        other => return Err(ScenarioError::UnknownFamily(other.to_string())),
    };
    Ok(net)
}

/// The seed a family hands its seeded sampled topology: the first draw
/// of the build-seed stream, exactly as [`build_family`] consumes it.
/// Kept as the single source of truth so a [`TopologyCache`] entry and a
/// cold [`build_family`] call always describe the identical graph.
fn family_topology_seed(spec: &FamilySpec) -> u64 {
    SimRng::seed_from_u64(spec.build_seed.unwrap_or(1)).next_u64()
}

/// Whether `(kind, backend)` is served as a *shared* sampled
/// [`Topology`], realized on first touch — the combinations where cloning one cached
/// topology shares its realized adjacency (`Arc`-backed) across trials
/// and runs, making [`TopologyCache`] reuse sound and worthwhile.
fn has_shared_sampled_topology(spec: &FamilySpec) -> Result<bool, ScenarioError> {
    let backend = BackendChoice::parse(spec.backend.as_deref())?;
    Ok(matches!(
        (spec.kind.as_str(), backend),
        ("er" | "regular", BackendChoice::Sampled)
            | (
                "circulant-lift",
                BackendChoice::Auto | BackendChoice::Sampled
            )
    ))
}

/// The seeded sampled topology for `(spec, n)` when — and only when —
/// [`build_family`] would serve this spec as a shared sampled
/// [`Topology`] (see [`has_shared_sampled_topology`]); `None` for every
/// other family/backend combination.
///
/// # Errors
///
/// [`ScenarioError::Invalid`] for an unknown backend name;
/// [`ScenarioError::Graph`] when the constructor rejects the parameters.
fn sampled_topology(spec: &FamilySpec, n: usize) -> Result<Option<Topology>, ScenarioError> {
    if !has_shared_sampled_topology(spec)? {
        return Ok(None);
    }
    let seed = family_topology_seed(spec);
    let topo = match spec.kind.as_str() {
        "er" => Topology::gnp(n, spec.p.unwrap_or(0.1), seed)?,
        "regular" => Topology::random_regular(n, spec.d.unwrap_or(4), seed)?,
        "circulant-lift" => Topology::circulant_lift(n, spec.d.unwrap_or(4), seed)?,
        _ => return Ok(None),
    };
    Ok(Some(topo))
}

/// A cross-run cache of seeded sampled topologies, keyed by the family's
/// semantic normal form ([`FamilySpec::normalized`]) and the sweep size.
///
/// Sampled topologies (`er` / `regular` with `backend = "sampled"`,
/// `circulant-lift`) realize on first touch behind `Arc`-shared caches,
/// so **cloning** a cached [`Topology`] hands the next run the already
/// realized graph: a repeat G(n, p) sweep skips CSR realization entirely.
/// The graph is a pure function of `(family, n, build_seed)`, and the
/// cache key captures exactly those inputs, so a hit is bit-identical to
/// a cold build (test-enforced). Share one cache across runs via
/// [`SweepPlan::topologies`]; the `gossip serve` daemon holds one for
/// its whole lifetime.
#[derive(Debug, Default)]
pub struct TopologyCache {
    entries: Mutex<HashMap<(String, usize), Topology>>,
    hits: std::sync::atomic::AtomicUsize,
    misses: std::sync::atomic::AtomicUsize,
}

impl TopologyCache {
    /// An empty cache.
    pub fn new() -> Self {
        TopologyCache::default()
    }

    /// The shared sampled topology for `(spec, n)`, cloned from the
    /// cache (hit) or built and inserted (miss); `None` when the family
    /// is not served as a shared sampled topology.
    ///
    /// # Errors
    ///
    /// As `sampled_topology`.
    pub fn get_or_build(
        &self,
        spec: &FamilySpec,
        n: usize,
    ) -> Result<Option<Topology>, ScenarioError> {
        use std::sync::atomic::Ordering;
        if !has_shared_sampled_topology(spec)? {
            return Ok(None);
        }
        // Key by the normal form so presentation-equivalent family
        // sections (`p` unset vs `p = 0.1`) share one entry.
        let key = (serde_json::to_string(&spec.normalized()), n);
        let mut entries = self.entries.lock().expect("topology cache poisoned");
        if let Some(topo) = entries.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(topo.clone()));
        }
        let topo = sampled_topology(spec, n)?.expect("pre-checked as shared sampled");
        entries.insert(key, topo.clone());
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(Some(topo))
    }

    /// Cache hits served so far (a hit shares realized adjacency).
    pub fn hits(&self) -> usize {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Topologies built and inserted so far.
    pub fn misses(&self) -> usize {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Number of distinct `(family, n)` entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("topology cache poisoned").len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// As [`build_family`], but consults (and fills) a [`TopologyCache`]
/// first: families served as shared sampled topologies come back as
/// clones of the cached [`Topology`] — already realized adjacency and
/// all — and every other family falls through to a cold build.
///
/// # Errors
///
/// As [`build_family`].
pub fn build_family_cached(
    spec: &FamilySpec,
    n: usize,
    cache: Option<&TopologyCache>,
) -> Result<Box<dyn DynamicNetwork>, ScenarioError> {
    if let Some(cache) = cache {
        if let Some(topo) = cache.get_or_build(spec, n)? {
            return Ok(Box::new(StaticNetwork::from_topology(topo)));
        }
    }
    build_family(spec, n)
}

/// Builds the protocol selected by `spec` as an engine-agnostic
/// [`AnyProtocol`] — the single protocol builder behind every execution
/// path. Incrementally-capable protocols come back as
/// `AnyProtocol::Event` (they run on either engine; [`Engine::Auto`]
/// picks the event stream), window-only protocols as
/// `AnyProtocol::Window`.
///
/// # Errors
///
/// [`ScenarioError::UnknownProtocol`] for unregistered kinds;
/// [`ScenarioError::Sim`] when parameters are rejected.
pub fn build_any_protocol(spec: &ProtocolSpec) -> Result<AnyProtocol, ScenarioError> {
    let proto = match spec.kind.as_str() {
        "async" => AnyProtocol::event(CutRateAsync::new()),
        "naive" => AnyProtocol::event(AsyncPushPull::new()),
        "push" => AnyProtocol::event(AsyncPush::new()),
        "pull" => AnyProtocol::event(AsyncPull::new()),
        "sync" => AnyProtocol::window(SyncPushPull::new()),
        "sync-push" => AnyProtocol::window(SyncPush::new()),
        "sync-pull" => AnyProtocol::window(SyncPull::new()),
        "flooding" => AnyProtocol::window(Flooding::new()),
        "two-push" => AnyProtocol::event(TwoPush::new()),
        // A spelling of `async` plus faults: the parameters move into the
        // plan's fault model (fold_lossy), the cut-rate sampler runs.
        "lossy" => {
            crate::lossy::check_probabilities(spec.loss, spec.downtime)?;
            AnyProtocol::event(CutRateAsync::new())
        }
        other => return Err(ScenarioError::UnknownProtocol(other.to_string())),
    };
    Ok(proto)
}

/// The display name of a run of `protocol`: the built protocol's own
/// name, except that `lossy` keeps its label although it builds the
/// cut-rate sampler.
pub fn protocol_label(protocol: &ProtocolSpec, built: &AnyProtocol) -> &'static str {
    if protocol.kind == "lossy" {
        "async push-pull (lossy)"
    } else {
        built.name()
    }
}

/// Builds the protocol as a window-engine trait object — for callers that
/// drive a raw [`gossip_sim::Simulation`] directly, e.g. trajectory
/// tracing. The window engine has no fault layer, so `lossy` with `loss`
/// or `downtime` above 0 is refused rather than run lossless.
///
/// # Errors
///
/// As [`build_any_protocol`], and [`ScenarioError::Invalid`] for an
/// active `lossy` spec.
pub fn build_protocol(spec: &ProtocolSpec) -> Result<Box<dyn Protocol>, ScenarioError> {
    let proto = build_any_protocol(spec)?;
    if fold_lossy(spec, FaultModel::default()).is_active() {
        return Err(ScenarioError::Invalid(
            "protocol `lossy` with loss or downtime above 0 runs on the event engine's fault \
             layer, which a window-engine protocol cannot carry (use `gossip run` or \
             `gossip scenario run`)"
                .into(),
        ));
    }
    Ok(proto.into_window())
}

/// Keys that older specs set and this binary refuses by name, with what
/// replaced them.
const REMOVED_KEYS: [(&str, &str); 3] = [
    (
        "sweep.vectorized",
        "the event engine always runs the vectorized lane",
    ),
    (
        "sweep.workspace",
        "the event engine always reuses per-worker workspaces",
    ),
    (
        "sweep.cell_parallel",
        "cells run in order, each spreading its trials over `sweep.threads` workers",
    ),
];

/// Checks every key of the table `input` against the spec's rendering of
/// the same table, `known`, which lists every field whether set or not,
/// and recurses into subtables. `path` is the table's dotted name (empty
/// at the top level).
fn reject_unknown_keys(input: &Value, known: &Value, path: &str) -> Result<(), ScenarioError> {
    let (Some(input), Some(known)) = (input.as_map(), known.as_map()) else {
        return Ok(());
    };
    for (key, value) in input {
        let field = match path {
            "" => key.clone(),
            _ => format!("{path}.{key}"),
        };
        match known.iter().find(|(k, _)| k == key) {
            Some((_, known)) => reject_unknown_keys(value, known, &field)?,
            None => {
                let message = match REMOVED_KEYS.iter().find(|(k, _)| *k == field) {
                    Some((_, why)) => format!("`{field}` was removed ({why}); delete it"),
                    None if path.is_empty() => format!("unknown top-level key `{key}`"),
                    None => format!("unknown key `{key}` in [{path}]"),
                };
                return Err(ScenarioError::Parse(message));
            }
        }
    }
    Ok(())
}

/// A [`FaultModel::validate`] error named by its spec field:
/// `faults.<name>`, or `protocol.downtime`, which `lossy` supplies.
fn fault_error(e: SimError) -> ScenarioError {
    match e {
        SimError::InvalidFaultParam {
            name,
            value,
            constraint,
        } => {
            let field = match name {
                "downtime" => "protocol.downtime".to_string(),
                _ => format!("faults.{name}"),
            };
            ScenarioError::Invalid(format!("{field} must be {constraint}, got {value}"))
        }
        other => ScenarioError::Sim(other),
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

impl ScenarioSpec {
    /// Parses a spec from TOML text.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on malformed input or on a key the spec
    /// does not read.
    pub fn from_toml_str(text: &str) -> Result<Self, ScenarioError> {
        let input = toml::parse_value(text).map_err(|e| ScenarioError::Parse(e.to_string()))?;
        Self::from_input(&input)
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on malformed input or on a key the spec
    /// does not read.
    pub fn from_json_str(text: &str) -> Result<Self, ScenarioError> {
        let input =
            serde_json::parse_value(text).map_err(|e| ScenarioError::Parse(e.to_string()))?;
        Self::from_input(&input)
    }

    /// Deserializes a user-supplied spec and refuses any key it does not
    /// read back: the derive skips unknown keys, so a typo such as
    /// `trails = 500` would otherwise run the default trial count.
    /// Journal headers, which this binary writes itself, keep the lenient
    /// derive.
    fn from_input(input: &Value) -> Result<Self, ScenarioError> {
        let spec = Self::from_value(input).map_err(|e| ScenarioError::Parse(e.to_string()))?;
        reject_unknown_keys(input, &spec.to_value(), "")?;
        Ok(spec)
    }

    /// Loads a spec from a file: `.json` parses as JSON, everything else
    /// as TOML.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on I/O or syntax errors.
    pub fn from_path(path: &std::path::Path) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::Parse(format!("{}: {e}", path.display())))?;
        if path
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("json"))
        {
            Self::from_json_str(&text)
        } else {
            Self::from_toml_str(&text)
        }
    }

    /// Renders the spec as TOML.
    pub fn to_toml_string(&self) -> String {
        toml::to_string(self).expect("scenario specs always render")
    }

    /// Renders the spec as pretty JSON.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self)
    }

    /// The spec's **semantic normal form**: the spec that runs the exact
    /// same trials, with every presentation-only choice erased and every
    /// semantic default written out. Two specs describing the same
    /// experiment — whether they came from TOML or JSON, spelled defaults
    /// explicitly or left them implicit, or differ only in description /
    /// thread budgets / live transport — normalize to identical structs,
    /// which is what makes [`crate::journal::spec_hash`] a usable
    /// content address for results.
    ///
    /// Erased (presentation-only; bit-identical results regardless):
    /// `description`, `sweep.threads` (test-enforced bit-invisible), and
    /// an *inactive* `[faults]` table (fault-free by construction).
    ///
    /// Resolved (semantic, but with redundant spellings): unset
    /// `trials` / `seed` / `max_time` and family / protocol / fault
    /// parameters become their documented defaults, and
    /// `engine = "auto"` becomes the engine the sweep actually resolves
    /// to for this protocol.
    ///
    /// A `[net]` table selects the live runtime, so it is kept with its
    /// `tick` and `horizon` written out; its bit-invisible `groups`,
    /// `delivery`, `exchange_timeout` and `exchange_retries` are erased,
    /// as is the analytic-only `sweep.engine`.
    pub fn normalized(&self) -> ScenarioSpec {
        let sweep = &self.sweep;
        let net = self.net.as_ref().map(|net| NetSpec {
            horizon: Some(net.horizon_or_default(sweep)),
            tick: Some(net.tick_or_default()),
            ..NetSpec::new()
        });
        // `auto` resolves to the engine the plan would pick; when the
        // protocol (or the engine string) is unknown the spelling is kept
        // as written — normalization must stay infallible, and such specs
        // fail validation before any result exists to address. Live specs
        // run on no analytic engine.
        let engine = match parse_engine(sweep.engine.as_deref()) {
            _ if net.is_some() => None,
            Ok(Engine::Auto) => match build_any_protocol(&self.protocol) {
                Ok(probe) if probe.supports_event() => Some(Engine::Event.name().into()),
                Ok(_) => Some(Engine::Window.name().into()),
                Err(_) => sweep.engine.clone(),
            },
            Ok(forced) => Some(forced.name().into()),
            Err(_) => sweep.engine.clone(),
        };
        let faults = self.faults.as_ref().and_then(|f| {
            // An inactive fault model runs the fault-free process
            // bit-identically (test-enforced), so it normalizes away —
            // including its seed, which is never drawn from. Delivery
            // chaos counts as active: a chaos-only spec is a different
            // (live) experiment from the fault-free one.
            if !f.to_model().is_active() {
                return None;
            }
            Some(FaultSpec {
                drop: Some(f.drop.unwrap_or(0.0)),
                crash_rate: Some(f.crash_rate.unwrap_or(0.0)),
                recovery_rate: Some(f.recovery_rate.unwrap_or(0.0)),
                seed: Some(f.seed.unwrap_or(0)),
                schedule: Some(f.schedule.clone().unwrap_or_default()),
                target_high_degree: Some(f.target_high_degree.unwrap_or(0)),
                partition_rate: Some(f.partition_rate.unwrap_or(0.0)),
                delay: Some(f.delay.unwrap_or(0.0)),
                delay_epochs: Some(f.delay_epochs.unwrap_or(1)),
                duplicate: Some(f.duplicate.unwrap_or(0.0)),
            })
        });
        ScenarioSpec {
            name: self.name.clone(),
            description: None,
            family: self.family.normalized(),
            protocol: ProtocolSpec {
                kind: self.protocol.kind.clone(),
                loss: Some(self.protocol.loss.unwrap_or(0.0)),
                downtime: Some(self.protocol.downtime.unwrap_or(0.0)),
            },
            sweep: SweepSpec {
                sizes: sweep.sizes.clone(),
                trials: Some(sweep.trials_or_default()),
                seed: Some(sweep.seed_or_default()),
                max_time: Some(sweep.max_time_or_default()),
                engine,
                start: sweep.start,
                threads: None,
            },
            faults,
            net,
        }
    }

    /// Structural validation: known names, non-empty sweep, valid engine.
    /// Does not construct networks (sizes may be expensive).
    ///
    /// # Errors
    ///
    /// A [`ScenarioError`] naming the first problem found.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.trim().is_empty() {
            return Err(ScenarioError::Invalid("scenario name is empty".into()));
        }
        if !families().iter().any(|f| f.name == self.family.kind) {
            return Err(ScenarioError::UnknownFamily(self.family.kind.clone()));
        }
        if !protocols().iter().any(|p| p.name == self.protocol.kind) {
            return Err(ScenarioError::UnknownProtocol(self.protocol.kind.clone()));
        }
        if self.sweep.sizes.is_empty() {
            return Err(ScenarioError::Invalid("sweep.sizes is empty".into()));
        }
        if self.sweep.sizes.contains(&0) {
            return Err(ScenarioError::Invalid(
                "sweep.sizes contains 0 (network sizes must be at least 1)".into(),
            ));
        }
        let mut seen = self.sweep.sizes.clone();
        seen.sort_unstable();
        if let Some(dup) = seen.windows(2).find(|w| w[0] == w[1]) {
            return Err(ScenarioError::Invalid(format!(
                "sweep.sizes contains duplicate size {} (each size runs once)",
                dup[0]
            )));
        }
        if self.sweep.trials_or_default() == 0 {
            return Err(ScenarioError::Invalid(
                "sweep.trials must be at least 1".into(),
            ));
        }
        if self.sweep.threads == Some(0) {
            return Err(ScenarioError::Invalid(
                "sweep.threads must be at least 1 (omit it to use every available core)".into(),
            ));
        }
        let backend = BackendChoice::parse(self.family.backend.as_deref())?;
        // Sampled-family parameter validation: catch bad p / d here, with
        // targeted messages, instead of at build time deep inside a sweep
        // (mirrors the sizes/trials checks above). A family is sampled
        // when it has no other representation (`resampled-gnp`,
        // `circulant-lift`) or when the spec asks for one.
        let sampled = backend == BackendChoice::Sampled;
        if self.family.kind == "resampled-gnp" || (self.family.kind == "er" && sampled) {
            let p = self.family.p.unwrap_or(0.1);
            if !(p > 0.0 && p <= 1.0) {
                return Err(ScenarioError::Invalid(format!(
                    "family `{}` needs edge probability p in (0, 1], got {p}",
                    self.family.kind
                )));
            }
        }
        if self.family.kind == "regular" && sampled {
            let d = self.family.d.unwrap_or(4);
            if d < 2 {
                return Err(ScenarioError::Invalid(format!(
                    "sampled random-regular needs degree d >= 2, got {d}"
                )));
            }
            for &n in &self.sweep.sizes {
                if d >= n {
                    return Err(ScenarioError::Invalid(format!(
                        "sampled random-regular degree d = {d} must be < n = {n}"
                    )));
                }
                if !(n * d).is_multiple_of(2) {
                    return Err(ScenarioError::Invalid(format!(
                        "n·d must be even for a d-regular graph (n = {n}, d = {d})"
                    )));
                }
            }
        }
        if self.family.kind == "circulant-lift" {
            let d = self.family.d.unwrap_or(4);
            for &n in &self.sweep.sizes {
                if d >= n {
                    return Err(ScenarioError::Invalid(format!(
                        "circulant-lift degree d = {d} must be < n = {n}"
                    )));
                }
            }
            if d == 0 || !d.is_multiple_of(2) {
                return Err(ScenarioError::Invalid(format!(
                    "circulant-lift needs an even positive degree, got d = {d}"
                )));
            }
        }
        let engine = parse_engine(self.sweep.engine.as_deref())?;
        let probe = build_any_protocol(&self.protocol)?;
        if engine == Engine::Event && !probe.supports_event() {
            return Err(ScenarioError::Invalid(format!(
                "protocol `{}` cannot run on the event engine",
                self.protocol.kind
            )));
        }
        // Fault validation up front, before any sweep work.
        // `FaultModel::validate` owns the range checks; what needs the spec
        // is checked here.
        let faults = self
            .faults
            .as_ref()
            .map(FaultSpec::to_model)
            .unwrap_or_default();
        faults.validate().map_err(fault_error)?;
        // Every scheduled node must exist at every sweep size, i.e. at the
        // smallest one (sizes are validated non-empty above).
        let min_n = *self.sweep.sizes.iter().min().expect("sizes non-empty");
        for &(window, node) in &faults.schedule {
            if node as usize >= min_n {
                return Err(ScenarioError::Invalid(format!(
                    "faults.schedule entry [{window}, {node}] references node {node}, \
                     but the smallest sweep size is {min_n} (nodes are 0-based)"
                )));
            }
        }
        // Delivery-layer chaos (partitions, delays, duplication) only
        // exists where envelopes physically travel; the analytic engines
        // have no message objects to perturb.
        if self.net.is_none() && faults.chaos_active() {
            return Err(ScenarioError::Invalid(
                "faults.partition_rate / delay / duplicate perturb the delivery layer, \
                 which only the live runtime has — add a `[net]` table to run this spec live"
                    .into(),
            ));
        }
        let model = fold_lossy(&self.protocol, faults);
        model.validate().map_err(fault_error)?;
        // Live specs run no analytic engine; validate_net checks them.
        if self.net.is_none() && model.is_active() {
            if engine == Engine::Window {
                return Err(ScenarioError::Invalid(
                    "active faults — a [faults] table, or `lossy` with loss or downtime \
                     above 0 — need the event engine (remove `engine = \"window\"`)"
                        .into(),
                ));
            }
            if !probe.supports_event() {
                return Err(ScenarioError::Invalid(format!(
                    "protocol `{}` does not support fault injection \
                     (fault-aware protocols: async, naive, push, pull, two-push, lossy)",
                    self.protocol.kind
                )));
            }
        }
        // A [net] table selects the live runtime, so live-runtime
        // compatibility is validated up front (mirrors the [faults]
        // checks above).
        if self.net.is_some() {
            self.validate_net()?;
        }
        Ok(())
    }

    /// Live-runtime validation: can this spec run on the live runtime?
    ///
    /// Called from [`ScenarioSpec::validate`] whenever a `[net]` table is
    /// present, and by `gossip_net::NetSweep::new` on every spec (a spec
    /// without a `[net]` table runs live on all defaults). Assumes the
    /// structural checks of `validate` have passed.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] naming the first live-incompatibility:
    /// bad `[net]` parameters, a dynamic family, a protocol without a
    /// live implementation, a forced analytic engine, sampled topologies
    /// too large to realize under UDP delivery, or adversarial degree
    /// targeting.
    pub fn validate_net(&self) -> Result<(), ScenarioError> {
        let net = self.net.clone().unwrap_or_default();
        if net.groups == Some(0) {
            return Err(ScenarioError::Invalid(
                "net.groups must be at least 1 (omit it to use one group per core)".into(),
            ));
        }
        let delivery = net.delivery_or_default();
        if !matches!(delivery, "local" | "udp") {
            return Err(ScenarioError::Invalid(format!(
                "unknown net.delivery `{delivery}` (local, udp)"
            )));
        }
        for (name, value) in [
            ("tick", net.tick),
            ("horizon", net.horizon),
            ("exchange_timeout", net.exchange_timeout),
        ] {
            if let Some(v) = value {
                if !(v.is_finite() && v > 0.0) {
                    return Err(ScenarioError::Invalid(format!(
                        "net.{name} must be a positive finite time, got {v}"
                    )));
                }
            }
        }
        if !LIVE_STATIC_FAMILIES.contains(&self.family.kind.as_str()) {
            return Err(ScenarioError::Invalid(format!(
                "family `{}` is dynamic; the live runtime runs static topologies only \
                 (static families: {})",
                self.family.kind,
                LIVE_STATIC_FAMILIES.join(", ")
            )));
        }
        if live_protocol_name(&self.protocol.kind).is_none() {
            let kinds: Vec<&str> = LIVE_PROTOCOLS.iter().map(|&(k, _)| k).collect();
            return Err(ScenarioError::Invalid(format!(
                "protocol `{}` has no live implementation \
                 (live protocols: {})",
                self.protocol.kind,
                kinds.join(", ")
            )));
        }
        if parse_engine(self.sweep.engine.as_deref())? != Engine::Auto {
            return Err(ScenarioError::Invalid(
                "sweep.engine selects an analytic engine, but a [net] table selects the \
                 live runtime (remove one of them)"
                    .into(),
            ));
        }
        if delivery == "udp" {
            let sampled = self.family.kind == "circulant-lift"
                || BackendChoice::parse(self.family.backend.as_deref())? == BackendChoice::Sampled;
            let max_n = self.sweep.sizes.iter().copied().max().unwrap_or(0);
            if sampled && max_n > UDP_SAMPLED_SIZE_LIMIT {
                return Err(ScenarioError::Invalid(format!(
                    "net.delivery = \"udp\" with the sampled `{}` backend at n = {max_n}: \
                     every UDP peer realizes the sampled topology locally, so sizes above \
                     {UDP_SAMPLED_SIZE_LIMIT} are rejected (use delivery = \"local\")",
                    self.family.kind
                )));
            }
        }
        if let Some(faults) = &self.faults {
            // The live runtime carries the full crash/recovery/schedule
            // model as per-node liveness state plus the delivery-chaos
            // fields; the one analytic-only feature left is adversarial
            // degree targeting, which needs a global still-up degree
            // ordering no node group can compute locally.
            if faults.to_model().target_high_degree > 0 {
                return Err(ScenarioError::Invalid(
                    "faults.target_high_degree is an analytic-engine feature (it ranks \
                     all still-up nodes by degree globally); the live runtime supports \
                     drop, crash_rate, recovery_rate, schedule, partition_rate, delay, \
                     and duplicate"
                        .into(),
                ));
            }
        }
        Ok(())
    }

    /// A documented template spec (what `gossip scenario init` prints).
    pub fn template() -> Self {
        ScenarioSpec {
            name: "example-sweep".into(),
            description: Some(
                "async push-pull on the dynamic star; edit family/protocol/sizes".into(),
            ),
            family: FamilySpec::new("dynamic-star"),
            protocol: ProtocolSpec::new("async"),
            sweep: SweepSpec {
                sizes: vec![64, 128, 256],
                trials: Some(20),
                seed: Some(42),
                max_time: Some(1e5),
                engine: Some("auto".into()),
                start: None,
                threads: None,
            },
            faults: None,
            net: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Per-size result row of a scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioRow {
    /// Sweep size (`n`).
    pub n: usize,
    /// Trials run.
    pub trials: usize,
    /// Trials completed before the cutoff.
    pub completed: usize,
    /// Mean spread time over completed trials (0 when none completed).
    pub mean: f64,
    /// Standard deviation over completed trials.
    pub std_dev: f64,
    /// Median spread time (`None` when no trial completed).
    pub median: Option<f64>,
    /// 0.95 quantile — the empirical w.h.p. spread time.
    pub q95: Option<f64>,
    /// Largest completed spread time.
    pub max: Option<f64>,
}

impl ScenarioRow {
    /// Condenses the trial summary of sweep size `n` into its row.
    pub fn from_summary(n: usize, summary: &TrialSummary) -> Self {
        ScenarioRow {
            n,
            trials: summary.trials(),
            completed: summary.completed(),
            mean: summary.mean(),
            std_dev: summary.std_dev(),
            median: summary.try_median(),
            q95: summary.try_whp_spread_time(),
            max: summary.try_max(),
        }
    }
}

/// The result of running a scenario: one row per sweep size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario name (from the spec).
    pub scenario: String,
    /// Family kind.
    pub family: String,
    /// Protocol display name.
    pub protocol: String,
    /// `"event"` or `"window"`.
    pub engine: String,
    /// Per-size results, in sweep order.
    pub rows: Vec<ScenarioRow>,
}

impl ScenarioReport {
    /// Extracts `(n, median)` pairs into a [`gossip_stats::series::Series`]
    /// with the given extra columns appended per row by `extra`.
    pub fn to_series(
        &self,
        columns: Vec<String>,
        mut extra: impl FnMut(&ScenarioRow) -> Vec<f64>,
    ) -> gossip_stats::series::Series {
        let mut series = gossip_stats::series::Series::new("n", columns);
        for row in &self.rows {
            series.push(row.n as f64, extra(row));
        }
        series
    }
}

impl fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario  : {}\nfamily    : {}\nprotocol  : {}\nengine    : {}",
            self.scenario, self.family, self.protocol, self.engine
        )?;
        writeln!(
            f,
            "{:>8} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "n", "done", "mean", "std", "median", "q95", "max"
        )?;
        for r in &self.rows {
            let opt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.4}"),
                None => "-".to_string(),
            };
            writeln!(
                f,
                "{:>8} {:>7} {:>10.4} {:>10.4} {:>10} {:>10} {:>10}",
                r.n,
                format!("{}/{}", r.completed, r.trials),
                r.mean,
                r.std_dev,
                opt(r.median),
                opt(r.q95),
                opt(r.max),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
thread_local! {
    /// Test-only crash injection: when set to `Some(i)`, the sequential
    /// execution path panics immediately before *executing* (never
    /// before replaying) cell `i`, emulating a process dying mid-sweep.
    static TEST_PANIC_BEFORE_CELL: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// The **planning half** of the scenario pipeline: a validated,
/// hashable, owned description of exactly what a sweep will execute.
///
/// Construction validates the spec, probes the protocol, resolves the
/// engine (including `auto`), compiles the fault model, and computes the
/// normalized content hash ([`crate::journal::spec_hash`]) — everything
/// that can fail or be precomputed, separated from execution so the plan
/// can be built once, inspected, content-addressed (the `gossip serve`
/// result store keys on [`ScenarioPlan::spec_hash`]), and executed many
/// times. [`ScenarioPlan::execution`] borrows the plan into a
/// [`SweepPlan`]; [`ScenarioPlan::into_execution`] consumes it.
/// A spec with a `[net]` table plans a live sweep, whose cells run
/// through a [`LiveRunner`].
#[derive(Debug, Clone)]
pub struct ScenarioPlan {
    spec: ScenarioSpec,
    engine: Engine,
    engine_name: String,
    protocol_name: &'static str,
    trials: usize,
    seed: u64,
    config: RunConfig,
    faults: FaultModel,
    hash: u64,
}

impl ScenarioPlan {
    /// Validates `spec` and compiles the plan.
    ///
    /// # Errors
    ///
    /// Any [`ScenarioSpec::validate`] error, or a protocol construction
    /// error.
    pub fn new(spec: ScenarioSpec) -> Result<Self, ScenarioError> {
        spec.validate()?;
        let probe = build_any_protocol(&spec.protocol)?;
        let label = protocol_label(&spec.protocol, &probe);
        let engine = parse_engine(spec.sweep.engine.as_deref())?;
        // The engine every cell resolves to and the report labels are
        // pure functions of the spec, so even fully-replayed sweeps can
        // report them without running anything.
        let (engine_name, protocol_name) = match (&spec.net, engine) {
            (Some(net), _) => (
                format!("net/{}", net.delivery_or_default()),
                live_protocol_name(&spec.protocol.kind)
                    .expect("validate_net admits live protocols only"),
            ),
            (None, Engine::Auto) if probe.supports_event() => (Engine::Event.name().into(), label),
            (None, Engine::Auto) => (Engine::Window.name().into(), label),
            (None, forced) => (forced.name().into(), label),
        };
        Ok(ScenarioPlan {
            engine,
            engine_name,
            protocol_name,
            trials: spec.sweep.trials_or_default(),
            seed: spec.sweep.seed_or_default(),
            config: RunConfig::with_max_time(spec.sweep.max_time_or_default()),
            faults: fold_lossy(
                &spec.protocol,
                spec.faults
                    .as_ref()
                    .map(FaultSpec::to_model)
                    .unwrap_or_default(),
            ),
            hash: journal::spec_hash(&spec),
            spec,
        })
    }

    /// The validated spec the plan was compiled from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The normalized content hash of the spec
    /// ([`crate::journal::spec_hash`]): the plan's identity as a content
    /// address — equal for every presentation of the same experiment.
    pub fn spec_hash(&self) -> u64 {
        self.hash
    }

    /// The engine selector as written in the spec (possibly `auto`).
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Whether the spec's `[net]` table selects the live runtime.
    pub fn is_live(&self) -> bool {
        self.spec.net.is_some()
    }

    /// The engine every cell resolves to, as the report labels it:
    /// `"event"` or `"window"` ([`Engine::Auto`] resolved against the
    /// protocol's capabilities), or `"net/local"` / `"net/udp"`.
    pub fn engine_name(&self) -> &str {
        &self.engine_name
    }

    /// The protocol's display name (its live name on live plans).
    pub fn protocol_name(&self) -> &'static str {
        self.protocol_name
    }

    /// The sweep sizes, in execution order.
    pub fn sizes(&self) -> &[usize] {
        &self.spec.sweep.sizes
    }

    /// Trials per sweep size.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// The trial RNG base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The [`RunPlan`] template for one sweep size — sizes share every
    /// parameter except `n`, which enters through the network builder at
    /// execution time.
    pub fn run_plan(&self) -> RunPlan<'static> {
        let mut plan = RunPlan::new(self.trials, self.seed)
            .config(self.config)
            .engine(self.engine)
            .start_opt(self.spec.sweep.start);
        if let Some(threads) = self.spec.sweep.threads {
            plan = plan.threads(threads);
        }
        if self.faults.is_active() {
            plan = plan.faults(self.faults.clone());
        }
        plan
    }

    /// The sweep report over `rows`, labeled by the plan: the footer of a
    /// sweep whose rows come from a journal.
    pub fn report(&self, rows: Vec<ScenarioRow>) -> ScenarioReport {
        ScenarioReport {
            scenario: self.spec.name.clone(),
            family: self.spec.family.kind.clone(),
            protocol: self.protocol_name.to_string(),
            engine: self.engine_name.clone(),
            rows,
        }
    }

    /// Borrows the plan into its execution half.
    pub fn execution(&self) -> SweepPlan<'_> {
        SweepPlan::over(Cow::Borrowed(self))
    }

    /// Consumes the plan into a self-contained execution.
    pub fn into_execution(self) -> SweepPlan<'static> {
        SweepPlan::over(Cow::Owned(self))
    }
}

/// The **execution half** of a scenario: a [`ScenarioPlan`] plus the
/// per-run choices — journaling, resumption, and warm-state attachments
/// (a shared [`TopologyCache`] / [`WorkspacePool`]).
///
/// Construction ([`SweepPlan::new`], or [`ScenarioPlan::execution`] to
/// reuse an existing plan) validates the spec and probes the protocol
/// once, so bad parameters fail before any sweep work; execution then
/// reuses one [`RunPlan`] shape across all sizes — same trials, seed,
/// config, and engine per size, only `n` varies. A streaming
/// [`TrialObserver`] can ride along across the whole sweep
/// ([`SweepPlan::run_with`]), e.g. one [`gossip_sim::JsonlSink`]
/// receiving every trial of every size (records carry `n`, so the stream
/// stays self-describing).
/// Live plans run their cells through the attached [`LiveRunner`], with
/// the same journaling and resume.
#[derive(Debug, Clone)]
pub struct SweepPlan<'s> {
    plan: Cow<'s, ScenarioPlan>,
    journal: Option<PathBuf>,
    resume: Option<Resume<'s>>,
    topologies: Option<Arc<TopologyCache>>,
    pool: Option<Arc<WorkspacePool>>,
    live: Option<&'s dyn LiveRunner>,
}

/// Runs the cells of a live sweep: the seam through which
/// `gossip_net::NetSweep` (its crate depends on this one) plugs into
/// [`SweepPlan`]. It is `Sync` because an analytic cell's `make_net`
/// closure, which [`RunPlan`] shares across its workers, borrows the
/// whole [`SweepPlan`], runner included.
pub trait LiveRunner: fmt::Debug + Sync {
    /// Runs `plan` — the cell's [`RunPlan`], observers attached — at
    /// sweep size `n`.
    ///
    /// # Errors
    ///
    /// As [`SweepPlan::run`].
    fn run_cell(&self, n: usize, plan: RunPlan<'_>) -> Result<RunReport, ScenarioError>;
}

/// Buffers a cell's trial records for the journal, which stores them
/// without trajectories.
#[derive(Default)]
struct RecordBuffer {
    records: Vec<TrialRecord>,
}

impl TrialObserver for RecordBuffer {
    fn on_trial(&mut self, r: &TrialRecord) -> Result<(), SimError> {
        self.records.push(r.clone());
        Ok(())
    }
}

/// The journal a resuming [`SweepPlan`] replays: a file loaded when the
/// sweep runs, or a journal the caller already loaded.
#[derive(Debug, Clone)]
enum Resume<'s> {
    Path(PathBuf),
    Loaded(&'s Journal),
}

impl<'s> SweepPlan<'s> {
    /// Validates `spec` and prepares the sweep (compiling a fresh
    /// [`ScenarioPlan`] internally; use [`ScenarioPlan::execution`] to
    /// reuse one).
    ///
    /// # Errors
    ///
    /// Any [`ScenarioSpec::validate`] error, or a protocol construction
    /// error.
    pub fn new(spec: &ScenarioSpec) -> Result<Self, ScenarioError> {
        Ok(SweepPlan::over(Cow::Owned(ScenarioPlan::new(
            spec.clone(),
        )?)))
    }

    fn over(plan: Cow<'s, ScenarioPlan>) -> Self {
        SweepPlan {
            plan,
            journal: None,
            resume: None,
            topologies: None,
            pool: None,
            live: None,
        }
    }

    /// The compiled planning half.
    pub fn scenario_plan(&self) -> &ScenarioPlan {
        &self.plan
    }

    /// The engine selector the sweep will hand every [`RunPlan`].
    pub fn engine(&self) -> Engine {
        self.plan.engine
    }

    /// The sweep sizes, in execution order.
    pub fn sizes(&self) -> &[usize] {
        self.plan.sizes()
    }

    /// Journals every completed `(n, trials)` cell to a JSONL file at
    /// `path` (crash-safe: header first, one flushed line per cell), so
    /// an interrupted sweep can be resumed with
    /// [`SweepPlan::resume_from`]. Journaled sweeps cannot feed
    /// trajectory-recording observers.
    pub fn journal_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Replays the completed cells of a previous journal at `path`
    /// (observers receive the recorded trials exactly as a live run
    /// would deliver them) and executes only the remaining cells; the
    /// merged result is bit-identical to an uninterrupted run
    /// (test-enforced). The file is loaded when the sweep runs, then
    /// replayed as [`SweepPlan::resume_journal`] replays a loaded one.
    /// The journal must have been written for this very experiment
    /// ([`JournalHeader::check`]) — journals written under any
    /// presentation of the same spec resume cleanly.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume = Some(Resume::Path(path.into()));
        self
    }

    /// As [`SweepPlan::resume_from`], for a journal the caller already
    /// loaded (to read its embedded spec, or to classify a store entry),
    /// so it is parsed once. Replay borrows its cells without cloning.
    pub fn resume_journal(mut self, journal: &'s Journal) -> Self {
        self.resume = Some(Resume::Loaded(journal));
        self
    }

    /// Attaches a shared [`TopologyCache`]: families served as shared
    /// sampled topologies are built through the cache, so repeat sweeps
    /// over the same `(family, n)` reuse already realized adjacency.
    /// Results are bit-identical with or without the cache
    /// (test-enforced).
    pub fn topologies(mut self, cache: Arc<TopologyCache>) -> Self {
        self.topologies = Some(cache);
        self
    }

    /// Attaches a shared [`WorkspacePool`]: every [`RunPlan`] the sweep
    /// executes checks its per-worker scratch arenas out of `pool`
    /// instead of allocating fresh ones, keeping buffers warm across
    /// runs in one process. Bit-identical either way.
    pub fn workspace_pool(mut self, pool: Arc<WorkspacePool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attaches the runner of live cells. A live plan executes its cells
    /// through `runner` and fails with [`ScenarioError::Live`] without
    /// one; replayed cells need none, and analytic plans ignore it.
    pub fn live(mut self, runner: &'s dyn LiveRunner) -> Self {
        self.live = Some(runner);
        self
    }

    /// Builds the family at size `n` through the attached
    /// [`TopologyCache`], falling back to a cold [`build_family`].
    fn build_net(&self, n: usize) -> Result<Box<dyn DynamicNetwork>, ScenarioError> {
        build_family_cached(&self.plan.spec.family, n, self.topologies.as_deref())
    }

    /// The [`RunPlan`] for one sweep size: the planning half's template
    /// plus this execution's warm-state attachments.
    pub fn plan(&self) -> RunPlan<'static> {
        let mut plan = self.plan.run_plan();
        if let Some(pool) = &self.pool {
            plan = plan.workspace_pool(pool.clone());
        }
        plan
    }

    /// Runs the whole sweep.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Graph`] when a family constructor rejects a size;
    /// [`ScenarioError::Sim`] or [`ScenarioError::Live`] when a run fails.
    pub fn run(&self) -> Result<ScenarioReport, ScenarioError> {
        self.run_observed(&mut [])
    }

    /// Runs the whole sweep with streaming observers attached to every
    /// size's [`RunPlan`]; observers outlive the sweep, so sinks can be
    /// inspected (or files flushed) afterwards.
    ///
    /// # Errors
    ///
    /// As [`SweepPlan::run`], plus any observer failure
    /// ([`SimError::Observer`]).
    pub fn run_with(
        &self,
        mut observer: &mut dyn TrialObserver,
    ) -> Result<ScenarioReport, ScenarioError> {
        self.run_observed(std::slice::from_mut(&mut observer))
    }

    /// As [`SweepPlan::run_with`], with several observers, each served
    /// as if attached alone.
    ///
    /// Cells run in sweep order, one at a time, each through its own
    /// [`RunPlan`], which spreads the cell's trials over `sweep.threads`
    /// workers. A journal gets one flushed line per
    /// cleanly completed cell, and cells of a resume journal are
    /// replayed into the observers exactly as a [`RunPlan`] would
    /// deliver them, so the merged stream and report are bit-identical
    /// to an uninterrupted run (test-enforced, including resume after an
    /// injected crash).
    ///
    /// # Errors
    ///
    /// As [`SweepPlan::run_with`]; journaled sweeps also reject
    /// trajectory-recording observers.
    pub fn run_observed(
        &self,
        observers: &mut [&mut dyn TrialObserver],
    ) -> Result<ScenarioReport, ScenarioError> {
        let spec = self.plan.spec();
        let journaled = self.journal.is_some() || self.resume.is_some();
        if journaled && observers.iter().any(|o| o.wants_trajectory()) {
            return Err(ScenarioError::Journal(
                "journaled sweeps cannot feed trajectory-recording observers \
                 (journal cells store per-trial summaries, not curves)"
                    .into(),
            ));
        }
        // Load the whole resume journal *before* opening the new one:
        // resuming in place (the same path as both source and target)
        // is supported.
        let loaded;
        let resume = match &self.resume {
            Some(Resume::Path(path)) => {
                loaded = Journal::load(path)?;
                Some(&loaded)
            }
            Some(Resume::Loaded(journal)) => Some(*journal),
            None => None,
        };
        let mut replayed: std::collections::BTreeMap<usize, &JournalCell> = Default::default();
        if let Some(journal) = resume {
            journal.header.check(&self.plan)?;
            replayed.extend(journal.cells.iter().map(|cell| (cell.index, cell)));
        }
        let mut writer = match &self.journal {
            Some(path) => Some(JournalWriter::create(
                path,
                &JournalHeader {
                    scenario: spec.name.clone(),
                    spec_hash: self.plan.hash,
                    results_version: RESULTS_VERSION,
                    spec: spec.clone(),
                },
            )?),
            None => None,
        };
        let mut rows = Vec::with_capacity(spec.sweep.sizes.len());
        for (index, &n) in spec.sweep.sizes.iter().enumerate() {
            if let Some(cell) = replayed.get(&index) {
                if cell.n != n {
                    return Err(ScenarioError::Journal(format!(
                        "journal cell {index} recorded n = {}, the spec expects n = {n}",
                        cell.n
                    )));
                }
                for record in &cell.records {
                    for o in observers.iter_mut() {
                        o.on_trial(record).map_err(ScenarioError::Sim)?;
                    }
                }
                for o in observers.iter_mut() {
                    o.finish().map_err(ScenarioError::Sim)?;
                }
                // When re-journaling (resume + journal), replayed cells
                // carry over verbatim, keeping the new journal complete.
                if let Some(w) = writer.as_mut() {
                    w.append_cell(cell)?;
                }
                rows.push(cell.row.clone());
                continue;
            }
            #[cfg(test)]
            TEST_PANIC_BEFORE_CELL.with(|hook| {
                if hook.get() == Some(index) {
                    hook.set(None);
                    panic!("injected crash before cell {index}");
                }
            });
            // Buffer the stripped records for the journal; attached
            // first, the buffer sees exactly what the real observers see.
            let mut buffer = writer.as_ref().map(|_| RecordBuffer::default());
            let mut plan = self.plan();
            if let Some(buffer) = buffer.as_mut() {
                plan = plan.observer(buffer);
            }
            for o in observers.iter_mut() {
                plan = plan.observer(&mut **o);
            }
            let report = self.execute_cell(n, plan)?;
            let row = ScenarioRow::from_summary(n, &report);
            // A cell with isolated trial failures is *not* journaled: a
            // resume re-runs it in full instead of replaying a partial
            // cell.
            if let (Some(w), Some(buffer)) = (writer.as_mut(), buffer) {
                if report.trial_errors().is_empty() {
                    w.append_cell(&JournalCell {
                        index,
                        n,
                        row: row.clone(),
                        records: buffer.records,
                    })?;
                }
            }
            rows.push(row);
        }
        Ok(self.plan.report(rows))
    }

    /// Executes one cell, the one place a sweep runs trials: `plan`
    /// (observers attached) at sweep size `n`, on the analytic engines,
    /// or through the attached [`LiveRunner`] when the plan is live.
    fn execute_cell(&self, n: usize, plan: RunPlan<'_>) -> Result<RunReport, ScenarioError> {
        if self.plan.is_live() {
            let runner = self.live.ok_or_else(|| {
                ScenarioError::Live(format!(
                    "scenario `{}` has a [net] table, so its cells run on the live runtime, \
                     but no live runner is attached (see SweepPlan::live)",
                    self.plan.spec.name
                ))
            })?;
            return runner.run_cell(n, plan);
        }
        // Probe the family so constructor errors surface as errors, not
        // panics inside the plan's make_net closure.
        self.build_net(n)?;
        let protocol = &self.plan.spec.protocol;
        Ok(plan.execute(
            || self.build_net(n).expect("probed above"),
            || build_any_protocol(protocol).expect("probed at construction"),
        )?)
    }
}

/// Runs a scenario end to end: for each sweep size, builds the family and
/// protocol and executes the trial batch through [`SweepPlan`] /
/// [`RunPlan`].
///
/// # Errors
///
/// Validation errors up front; [`ScenarioError::Sim`] when a run fails.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioReport, ScenarioError> {
    SweepPlan::new(spec)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOML_SPEC: &str = r#"
name = "toml-demo"
description = "complete-graph async sweep"

[family]
kind = "complete"

[protocol]
kind = "async"

[sweep]
sizes = [16, 32]
trials = 8
seed = 7
max_time = 1e4
"#;

    #[test]
    fn toml_round_trip_and_run() {
        let spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        assert_eq!(spec.name, "toml-demo");
        assert_eq!(spec.sweep.sizes, vec![16, 32]);
        let rendered = spec.to_toml_string();
        let back = ScenarioSpec::from_toml_str(&rendered).unwrap();
        assert_eq!(spec, back);

        let report = run_scenario(&spec).unwrap();
        assert_eq!(report.engine, "event");
        assert_eq!(report.rows.len(), 2);
        assert!(report.rows.iter().all(|r| r.completed == 8));
        assert!(report.rows[0].median.unwrap() > 0.0);
        let text = report.to_string();
        assert!(
            text.contains("toml-demo") && text.contains("median"),
            "{text}"
        );
    }

    #[test]
    fn json_round_trip() {
        let spec = ScenarioSpec::template();
        let json = spec.to_json_string();
        let back = ScenarioSpec::from_json_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn window_engine_forced() {
        let mut spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        spec.sweep.engine = Some("window".into());
        let report = run_scenario(&spec).unwrap();
        assert_eq!(report.engine, "window");
    }

    #[test]
    fn sync_protocol_auto_selects_window() {
        let mut spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        spec.protocol = ProtocolSpec::new("sync");
        let report = run_scenario(&spec).unwrap();
        assert_eq!(report.engine, "window");
    }

    #[test]
    fn event_engine_rejected_for_window_only_protocols() {
        let mut spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        spec.protocol = ProtocolSpec::new("sync");
        spec.sweep.engine = Some("event".into());
        assert!(matches!(spec.validate(), Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn validation_catches_unknown_names() {
        let mut spec = ScenarioSpec::template();
        spec.family.kind = "klein-bottle".into();
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::UnknownFamily(_))
        ));
        let mut spec = ScenarioSpec::template();
        spec.protocol.kind = "telepathy".into();
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::UnknownProtocol(_))
        ));
        let mut spec = ScenarioSpec::template();
        spec.sweep.sizes.clear();
        assert!(matches!(spec.validate(), Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn every_family_registry_entry_builds() {
        for entry in families() {
            let n = match entry.name {
                "diligent" | "absolute-diligent" => 160,
                _ => 24,
            };
            let mut spec = FamilySpec::new(entry.name);
            spec.rho = Some(0.125);
            spec.d = Some(4);
            spec.p = Some(0.3);
            spec.q = Some(0.4);
            spec.dim = Some(4);
            spec.rows = Some(5);
            spec.cols = Some(5);
            spec.agents = Some(10);
            spec.radius = Some(1);
            let net = build_family(&spec, n)
                .unwrap_or_else(|e| panic!("family {} failed: {e}", entry.name));
            assert!(net.n() > 0);
        }
    }

    #[test]
    fn every_protocol_registry_entry_builds() {
        for entry in protocols() {
            let mut spec = ProtocolSpec::new(entry.name);
            spec.loss = Some(0.1);
            spec.downtime = Some(0.05);
            let p = build_any_protocol(&spec)
                .unwrap_or_else(|e| panic!("protocol {} failed: {e}", entry.name));
            assert!(!p.name().is_empty());
            // The registry's incremental flag and the builder's variant
            // agree by construction.
            assert_eq!(p.supports_event(), protocol_is_incremental(entry.name));
            // Every protocol has a window form, but active `lossy` lives on
            // the event engine's fault layer and is refused there.
            match build_protocol(&spec) {
                Ok(w) => assert!(!w.name().is_empty()),
                Err(ScenarioError::Invalid(m)) if entry.name == "lossy" => {
                    assert!(m.contains("gossip run"), "{m}")
                }
                Err(e) => panic!("protocol {} has no window form: {e}", entry.name),
            }
        }
    }

    #[test]
    fn sweep_validation_rejects_bad_sizes() {
        let mut spec = ScenarioSpec::template();
        spec.sweep.sizes = vec![64, 0, 128];
        assert!(
            matches!(spec.validate(), Err(ScenarioError::Invalid(m)) if m.contains("contains 0"))
        );
        let mut spec = ScenarioSpec::template();
        spec.sweep.sizes = vec![64, 128, 64];
        assert!(
            matches!(spec.validate(), Err(ScenarioError::Invalid(m)) if m.contains("duplicate"))
        );
        let mut spec = ScenarioSpec::template();
        spec.sweep.trials = Some(0);
        assert!(matches!(spec.validate(), Err(ScenarioError::Invalid(m)) if m.contains("trials")));
        let mut spec = ScenarioSpec::template();
        spec.sweep.threads = Some(0);
        assert!(
            matches!(spec.validate(), Err(ScenarioError::Invalid(m)) if m.contains("sweep.threads"))
        );
    }

    #[test]
    fn sweep_stops_at_a_failing_middle_cell() {
        // Cell 1 (n = 3) rejects the start override; the sweep must
        // surface that error even though cells 0 and 2 would succeed.
        let mut spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        spec.sweep.sizes = vec![16, 3, 32];
        spec.sweep.start = Some(8);
        let err = run_scenario(&spec).unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Sim(SimError::StartOutOfRange { start: 8, n: 3 })
        ));
    }

    /// The parse error of `text` as TOML (`json = false`) or JSON.
    fn parse_error(text: &str, json: bool) -> String {
        let parsed = if json {
            ScenarioSpec::from_json_str(text)
        } else {
            ScenarioSpec::from_toml_str(text)
        };
        match parsed {
            Err(ScenarioError::Parse(m)) => m,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_keys_are_refused_in_every_table() {
        // A typo must not run the default trial count.
        let typo = format!("{TOML_SPEC}trails = 500\n");
        assert_eq!(parse_error(&typo, false), "unknown key `trails` in [sweep]");
        let base = r#"{"name": "keys", "family": {"kind": "complete"},
            "protocol": {"kind": "async"}, "sweep": {"sizes": [16]},
            "faults": {"drop": 0.1}, "net": {"tick": 0.01}}"#;
        ScenarioSpec::from_json_str(base).unwrap();
        for (table, expected) in [
            ("", "unknown top-level key `bogus`"),
            ("family", "unknown key `bogus` in [family]"),
            ("protocol", "unknown key `bogus` in [protocol]"),
            ("sweep", "unknown key `bogus` in [sweep]"),
            ("faults", "unknown key `bogus` in [faults]"),
            ("net", "unknown key `bogus` in [net]"),
        ] {
            let Value::Map(mut top) = serde_json::parse_value(base).unwrap() else {
                unreachable!("a JSON object")
            };
            let bogus = (String::from("bogus"), Value::Int(1));
            match top.iter_mut().find(|(k, _)| k == table) {
                Some((_, Value::Map(entries))) => entries.push(bogus),
                _ => top.push(bogus),
            }
            let text = serde_json::to_string(&Value::Map(top));
            assert_eq!(parse_error(&text, true), expected, "table `{table}`");
        }
    }

    #[test]
    fn removed_sweep_keys_name_what_replaced_them() {
        for (key, why) in [
            (
                "vectorized",
                "the event engine always runs the vectorized lane",
            ),
            (
                "workspace",
                "the event engine always reuses per-worker workspaces",
            ),
            (
                "cell_parallel",
                "cells run in order, each spreading its trials over `sweep.threads` workers",
            ),
        ] {
            let expected = format!("`sweep.{key}` was removed ({why}); delete it");
            let toml = format!("{TOML_SPEC}{key} = false\n");
            assert_eq!(parse_error(&toml, false), expected);
            let json = format!(
                r#"{{"name": "old", "family": {{"kind": "complete"}},
                "protocol": {{"kind": "async"}}, "sweep": {{"sizes": [16], "{key}": true}}}}"#
            );
            assert_eq!(parse_error(&json, true), expected);
        }
    }

    #[test]
    fn sweep_plan_streams_one_observer_across_sizes() {
        use gossip_sim::{TrialObserver as _, TrialRecord};
        struct CountPerN(std::collections::BTreeMap<usize, usize>);
        impl gossip_sim::TrialObserver for CountPerN {
            fn on_trial(&mut self, r: &TrialRecord) -> Result<(), SimError> {
                *self.0.entry(r.n).or_insert(0) += 1;
                Ok(())
            }
        }
        let _ = CountPerN(Default::default()).wants_trajectory();
        let spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        let plan = SweepPlan::new(&spec).unwrap();
        assert_eq!(plan.sizes(), &[16, 32]);
        assert_eq!(plan.engine(), Engine::Auto);
        let mut sink = CountPerN(Default::default());
        let report = plan.run_with(&mut sink).unwrap();
        assert_eq!(report.engine, "event");
        assert_eq!(sink.0.get(&16), Some(&8));
        assert_eq!(sink.0.get(&32), Some(&8));
        // The observed run reports identical rows to the plain run.
        let plain = plan.run().unwrap();
        assert_eq!(report, plain);
    }

    #[test]
    fn backend_knob_selects_representation() {
        // Implicit (default) and materialized complete backends both
        // build; the networks agree on every queryable property.
        let auto = build_family(&FamilySpec::new("complete"), 32).unwrap();
        assert_eq!(auto.n(), 32);
        let mut spec = FamilySpec::new("complete");
        spec.backend = Some("materialized".into());
        let mat = build_family(&spec, 32).unwrap();
        assert_eq!(mat.n(), 32);
        spec.backend = Some("implicit".into());
        assert!(build_family(&spec, 32).is_ok());
        // Families without the requested representation reject it.
        let mut spec = FamilySpec::new("dynamic-star");
        spec.backend = Some("materialized".into());
        assert!(matches!(
            build_family(&spec, 32),
            Err(ScenarioError::Invalid(_))
        ));
        let mut spec = FamilySpec::new("er");
        spec.backend = Some("implicit".into());
        assert!(matches!(
            build_family(&spec, 32),
            Err(ScenarioError::Invalid(_))
        ));
        // Unknown backend strings fail validation up front.
        let mut spec = ScenarioSpec::template();
        spec.family = FamilySpec::new("complete");
        spec.family.backend = Some("holographic".into());
        assert!(matches!(spec.validate(), Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn backend_representations_agree_on_medians() {
        let mut spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        spec.sweep.trials = Some(40);
        let implicit = run_scenario(&spec).unwrap();
        spec.family.backend = Some("materialized".into());
        let materialized = run_scenario(&spec).unwrap();
        for (a, b) in implicit.rows.iter().zip(&materialized.rows) {
            let (ma, mb) = (a.median.unwrap(), b.median.unwrap());
            assert!(
                (ma - mb).abs() / mb < 0.5,
                "medians diverged at n = {}: {ma} vs {mb}",
                a.n
            );
        }
    }

    #[test]
    fn sampled_backend_selects_representation() {
        // er / regular gain a sampled arm; circulant-lift defaults to it.
        for (kind, backend) in [
            ("er", Some("sampled")),
            ("regular", Some("sampled")),
            ("circulant-lift", None),
            ("circulant-lift", Some("sampled")),
            ("circulant-lift", Some("materialized")),
            ("resampled-gnp", None),
            ("resampled-gnp", Some("sampled")),
        ] {
            let mut spec = FamilySpec::new(kind);
            spec.backend = backend.map(str::to_string);
            let net = build_family(&spec, 24)
                .unwrap_or_else(|e| panic!("{kind} backend {backend:?} failed: {e}"));
            assert_eq!(net.n(), 24);
        }
        // Representations a family does not have are rejected.
        for (kind, backend) in [
            ("er", "implicit"),
            ("regular", "implicit"),
            ("circulant-lift", "implicit"),
            ("complete", "sampled"),
            ("dynamic-star", "sampled"),
            ("resampled-gnp", "materialized"),
        ] {
            let mut spec = FamilySpec::new(kind);
            spec.backend = Some(backend.into());
            assert!(
                matches!(build_family(&spec, 24), Err(ScenarioError::Invalid(_))),
                "{kind} should reject backend `{backend}`"
            );
        }
    }

    #[test]
    fn er_sampled_and_materialized_share_the_graph() {
        // The eager er generator routes through the sampled backend with
        // the same seed derivation, so the two representations of one
        // build seed describe the identical graph — summaries match to
        // the bit.
        let mut spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        spec.family = FamilySpec::new("er");
        spec.family.p = Some(0.2);
        spec.family.backend = Some("sampled".into());
        let sampled = run_scenario(&spec).unwrap();
        spec.family.backend = Some("materialized".into());
        let materialized = run_scenario(&spec).unwrap();
        assert_eq!(sampled.rows, materialized.rows);
    }

    #[test]
    fn sampled_spec_validation_targets_bad_parameters() {
        // p outside (0, 1] for sampled er / resampled-gnp.
        for (kind, backend) in [("er", Some("sampled")), ("resampled-gnp", None)] {
            for p in [0.0, -0.1, 1.5] {
                let mut spec = ScenarioSpec::template();
                spec.family = FamilySpec::new(kind);
                spec.family.p = Some(p);
                spec.family.backend = backend.map(str::to_string);
                assert!(
                    matches!(spec.validate(), Err(ScenarioError::Invalid(m)) if m.contains("(0, 1]")),
                    "{kind} should reject p = {p}"
                );
            }
        }
        // Eager er keeps accepting p = 0 (an empty graph is representable).
        let mut spec = ScenarioSpec::template();
        spec.family = FamilySpec::new("er");
        spec.family.p = Some(0.0);
        assert!(spec.validate().is_ok());
        // d >= n and odd n·d for the sampled regular family.
        let mut spec = ScenarioSpec::template();
        spec.family = FamilySpec::new("regular");
        spec.family.d = Some(300);
        spec.family.backend = Some("sampled".into());
        spec.sweep.sizes = vec![64, 128];
        assert!(
            matches!(spec.validate(), Err(ScenarioError::Invalid(m)) if m.contains("must be < n"))
        );
        spec.family.d = Some(3);
        spec.sweep.sizes = vec![64, 127];
        assert!(
            matches!(spec.validate(), Err(ScenarioError::Invalid(m)) if m.contains("must be even"))
        );
        // d < 2 fails at validation, not mid-sweep (mirrors
        // SampledRegular::new's 2 <= d < n constraint).
        spec.family.d = Some(1);
        spec.sweep.sizes = vec![64];
        assert!(matches!(spec.validate(), Err(ScenarioError::Invalid(m)) if m.contains("d >= 2")));
        spec.family.d = Some(3);
        spec.sweep.sizes = vec![64, 128];
        assert!(spec.validate().is_ok());
        // circulant-lift degree checks run regardless of backend.
        let mut spec = ScenarioSpec::template();
        spec.family = FamilySpec::new("circulant-lift");
        spec.family.d = Some(3);
        assert!(
            matches!(spec.validate(), Err(ScenarioError::Invalid(m)) if m.contains("even positive"))
        );
    }

    #[test]
    fn resampled_gnp_scenario_runs_end_to_end() {
        let mut spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        spec.family = FamilySpec::new("resampled-gnp");
        spec.family.p = Some(0.15);
        let report = run_scenario(&spec).unwrap();
        assert_eq!(report.engine, "event");
        assert!(report.rows.iter().all(|r| r.completed == r.trials));
    }

    #[test]
    fn scenario_plan_splits_planning_from_execution() {
        let spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        let plan = ScenarioPlan::new(spec.clone()).unwrap();
        assert_eq!(plan.spec_hash(), journal::spec_hash(&spec));
        assert_eq!(plan.engine_name(), "event");
        assert_eq!(plan.protocol_name(), "async push-pull (cut-rate)");
        assert_eq!(plan.sizes(), &[16, 32]);
        assert_eq!((plan.trials(), plan.seed()), (8, 7));
        // One plan, many executions — identical to the one-shot path.
        let one_shot = SweepPlan::new(&spec).unwrap().run().unwrap();
        let a = plan.execution().run().unwrap();
        let b = plan.into_execution().run().unwrap();
        let render = |r: &ScenarioReport| serde_json::to_string_pretty(r);
        assert_eq!(render(&a), render(&one_shot));
        assert_eq!(render(&b), render(&one_shot));
    }

    #[test]
    fn warm_state_attachments_are_bit_invisible() {
        let mut spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        spec.family = FamilySpec::new("er");
        spec.family.p = Some(0.3);
        spec.family.backend = Some("sampled".into());
        let mut cold = ByteSink(Vec::new());
        let cold_report = SweepPlan::new(&spec).unwrap().run_with(&mut cold).unwrap();

        let cache = Arc::new(TopologyCache::new());
        let pool = Arc::new(WorkspacePool::new());
        let plan = ScenarioPlan::new(spec.clone()).unwrap();
        for round in 0..2 {
            let mut warm = ByteSink(Vec::new());
            let report = plan
                .execution()
                .topologies(cache.clone())
                .workspace_pool(pool.clone())
                .run_with(&mut warm)
                .unwrap();
            assert_eq!(warm.0, cold.0, "warm round {round} diverged from cold run");
            assert_eq!(
                serde_json::to_string_pretty(&report),
                serde_json::to_string_pretty(&cold_report),
            );
        }
        // Every (family, n) realizes once; the second sweep is all hits.
        assert_eq!(cache.misses(), spec.sweep.sizes.len());
        assert!(cache.hits() >= spec.sweep.sizes.len());
        assert!(pool.idle() >= 1, "workspaces should return to the pool");
    }

    #[test]
    fn lossy_probability_errors_surface() {
        let mut spec = ProtocolSpec::new("lossy");
        spec.loss = Some(1.0);
        assert!(matches!(build_protocol(&spec), Err(ScenarioError::Sim(_))));
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "gossip-scenario-test-{}-{name}",
            std::process::id()
        ));
        p
    }

    /// A JSONL-like byte stream of every record, for bit-identity checks.
    struct ByteSink(Vec<u8>);
    impl gossip_sim::TrialObserver for ByteSink {
        fn on_trial(&mut self, r: &TrialRecord) -> Result<(), SimError> {
            self.0
                .extend_from_slice(serde_json::to_string(r).as_bytes());
            self.0.push(b'\n');
            Ok(())
        }
    }

    fn faulty_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        spec.faults = Some(FaultSpec {
            drop: Some(0.2),
            crash_rate: Some(0.05),
            recovery_rate: Some(0.3),
            seed: Some(11),
            ..FaultSpec::new()
        });
        spec
    }

    #[test]
    fn fault_spec_round_trips_and_compiles() {
        let mut spec = faulty_spec();
        spec.faults.as_mut().unwrap().schedule = Some(vec![(3, 0), (5, 2)]);
        let toml = spec.to_toml_string();
        assert!(toml.contains("[faults]"), "{toml}");
        assert!(toml.contains("schedule = [[3, 0], [5, 2]]"), "{toml}");
        assert_eq!(ScenarioSpec::from_toml_str(&toml).unwrap(), spec);
        let json = spec.to_json_string();
        assert_eq!(ScenarioSpec::from_json_str(&json).unwrap(), spec);
        let model = spec.faults.as_ref().unwrap().to_model();
        assert!(model.is_active());
        assert_eq!(model.schedule, vec![(3, 0), (5, 2)]);
        // Old specs without [faults] keep parsing (field is optional).
        let plain = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        assert_eq!(plain.faults, None);
    }

    #[test]
    fn fault_validation_targets_bad_parameters() {
        let mut spec = faulty_spec();
        spec.faults.as_mut().unwrap().drop = Some(1.5);
        assert!(
            matches!(spec.validate(), Err(ScenarioError::Invalid(m)) if m.contains("faults.drop"))
        );
        let mut spec = faulty_spec();
        spec.faults.as_mut().unwrap().crash_rate = Some(-0.1);
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::Invalid(m)) if m.contains("faults.crash_rate")
        ));
        let mut spec = faulty_spec();
        spec.faults.as_mut().unwrap().recovery_rate = Some(f64::NAN);
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::Invalid(m)) if m.contains("faults.recovery_rate")
        ));
        // A scheduled node must exist at the smallest sweep size (16).
        let mut spec = faulty_spec();
        spec.faults.as_mut().unwrap().schedule = Some(vec![(0, 16)]);
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::Invalid(m)) if m.contains("smallest sweep size")
        ));
        // Active faults reject the window engine...
        let mut spec = faulty_spec();
        spec.sweep.engine = Some("window".into());
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::Invalid(m)) if m.contains("event engine")
        ));
        // ...and window-only protocols.
        let mut spec = faulty_spec();
        spec.protocol = ProtocolSpec::new("sync");
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::Invalid(m)) if m.contains("fault injection")
        ));
        // An inactive [faults] table is fine anywhere.
        let mut spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        spec.faults = Some(FaultSpec::new());
        spec.sweep.engine = Some("window".into());
        spec.validate().unwrap();
    }

    #[test]
    fn analytic_specs_reject_delivery_chaos_in_validation() {
        // `scenario check` runs validate, so it must refuse what
        // `scenario run` refuses: chaos needs the live runtime, also when
        // the spec forces the window engine.
        let mut spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        spec.faults = Some(FaultSpec {
            partition_rate: Some(0.2),
            ..FaultSpec::new()
        });
        for engine in [None, Some("window")] {
            spec.sweep.engine = engine.map(String::from);
            assert!(matches!(
                spec.validate(),
                Err(ScenarioError::Invalid(m)) if m.contains("perturb the delivery layer")
            ));
        }
    }

    #[test]
    fn lossy_folds_into_the_fault_model() {
        let mut lossy = ProtocolSpec::new("lossy");
        lossy.loss = Some(0.5);
        lossy.downtime = Some(0.2);
        let table = FaultModel {
            drop: 0.5,
            seed: 4,
            ..FaultModel::default()
        };
        let folded = fold_lossy(&lossy, table.clone());
        assert_eq!((folded.drop, folded.downtime, folded.seed), (0.75, 0.2, 4));
        // Other kinds, and lossy at loss 0, leave the table's drop alone.
        assert_eq!(
            fold_lossy(&ProtocolSpec::new("async"), table.clone()),
            table
        );
        assert_eq!(
            fold_lossy(&ProtocolSpec::new("lossy"), table.clone()),
            table
        );
        // The spelling runs the cut-rate sampler under its old label, and
        // its fault layer needs the event engine.
        let mut spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        spec.protocol = lossy;
        let plan = ScenarioPlan::new(spec.clone()).unwrap();
        assert_eq!(plan.protocol_name(), "async push-pull (lossy)");
        spec.sweep.engine = Some("window".into());
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::Invalid(m)) if m.contains("event engine")
        ));
        // One liveness chain per trial: downtime clashes with crashes.
        spec.sweep.engine = None;
        spec.faults = Some(FaultSpec {
            crash_rate: Some(0.1),
            ..FaultSpec::new()
        });
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::Invalid(m))
                if m.contains("protocol.downtime") && m.contains("crash_rate")
        ));
    }

    #[test]
    fn faulty_scenario_runs_end_to_end() {
        // Recoverable crashes + drops: slower, but every trial still ends.
        let report = run_scenario(&faulty_spec()).unwrap();
        assert_eq!(report.engine, "event");
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert_eq!(row.trials, 8);
            assert!(row.completed > 0, "some trials should still spread");
        }
        // And an inactive fault table is bit-identical to no table.
        let plain = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        let mut inactive = plain.clone();
        inactive.faults = Some(FaultSpec {
            seed: Some(99),
            ..FaultSpec::new()
        });
        assert_eq!(
            run_scenario(&plain).unwrap().rows,
            run_scenario(&inactive).unwrap().rows
        );
    }

    #[test]
    fn net_table_selects_the_live_runtime() {
        let mut spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        spec.faults = Some(FaultSpec {
            partition_rate: Some(0.1),
            ..FaultSpec::new()
        });
        // Delivery chaos needs the live runtime...
        assert!(matches!(
            ScenarioPlan::new(spec.clone()),
            Err(ScenarioError::Invalid(m)) if m.contains("add a `[net]` table")
        ));
        // ...which a [net] table selects, labels included.
        spec.net = Some(NetSpec {
            delivery: Some("udp".into()),
            ..NetSpec::new()
        });
        let plan = ScenarioPlan::new(spec.clone()).unwrap();
        assert!(plan.is_live());
        assert_eq!(plan.engine_name(), "net/udp");
        assert_eq!(plan.protocol_name(), "async push-pull (live)");
        // A forced analytic engine next to [net] contradicts it.
        for engine in ["event", "window"] {
            spec.sweep.engine = Some(engine.into());
            assert!(matches!(
                spec.validate(),
                Err(ScenarioError::Invalid(m)) if m.contains("[net] table")
            ));
        }
        spec.sweep.engine = Some("auto".into());
        spec.validate().unwrap();
    }

    #[test]
    fn journaled_sweep_is_invisible_and_resume_is_bit_identical() {
        let spec = faulty_spec();
        let plan = SweepPlan::new(&spec).unwrap();

        // Reference: plain uninterrupted run.
        let mut ref_sink = ByteSink(Vec::new());
        let reference = plan.clone().run_with(&mut ref_sink).unwrap();

        // Journaling changes nothing observable.
        let journal = temp_path("journal-full");
        let mut jour_sink = ByteSink(Vec::new());
        let journaled = plan
            .clone()
            .journal_to(&journal)
            .run_with(&mut jour_sink)
            .unwrap();
        assert_eq!(journaled, reference);
        assert_eq!(jour_sink.0, ref_sink.0);

        // Truncate to the header + first cell, as a mid-sweep crash
        // would, then resume: merged stream and report bit-identical.
        let text = std::fs::read_to_string(&journal).unwrap();
        let cut: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(cut.len() < text.len(), "journal should hold 2 cells");
        std::fs::write(&journal, cut).unwrap();
        let mut res_sink = ByteSink(Vec::new());
        let resumed = plan
            .clone()
            .resume_from(&journal)
            .run_with(&mut res_sink)
            .unwrap();
        assert_eq!(resumed, reference);
        assert_eq!(res_sink.0, ref_sink.0);

        // Resuming while re-journaling in place rebuilds a complete
        // journal: a second resume replays every cell (no execution).
        let text = std::fs::read_to_string(&journal).unwrap();
        let cut: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        std::fs::write(&journal, cut).unwrap();
        let rebuilt = plan
            .clone()
            .resume_from(&journal)
            .journal_to(&journal)
            .run()
            .unwrap();
        assert_eq!(rebuilt, reference);
        let full = Journal::load(&journal).unwrap();
        assert_eq!(full.cells.len(), 2);
        let mut replay_sink = ByteSink(Vec::new());
        let replayed = plan
            .clone()
            .resume_from(&journal)
            .run_with(&mut replay_sink)
            .unwrap();
        assert_eq!(replayed, reference);
        assert_eq!(replay_sink.0, ref_sink.0);
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn resume_after_injected_crash_is_bit_identical() {
        let spec = faulty_spec();
        let plan = SweepPlan::new(&spec).unwrap();
        let mut ref_sink = ByteSink(Vec::new());
        let reference = plan.clone().run_with(&mut ref_sink).unwrap();

        // Crash the process (panic) right before cell 1 executes: the
        // journal on disk must hold the header and cell 0 only.
        let journal = temp_path("journal-crash");
        super::TEST_PANIC_BEFORE_CELL.with(|h| h.set(Some(1)));
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.clone().journal_to(&journal).run()
        }));
        assert!(died.is_err(), "the injected crash must fire");
        super::TEST_PANIC_BEFORE_CELL.with(|h| assert_eq!(h.get(), None));
        let partial = Journal::load(&journal).unwrap();
        assert_eq!(partial.cells.len(), 1);
        assert_eq!(partial.cells[0].n, 16);

        // Resume: cell 0 replays from disk, cell 1 runs live.
        let mut res_sink = ByteSink(Vec::new());
        let resumed = plan
            .clone()
            .resume_from(&journal)
            .run_with(&mut res_sink)
            .unwrap();
        assert_eq!(resumed, reference);
        assert_eq!(res_sink.0, ref_sink.0);
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn resume_rejects_a_different_spec() {
        let spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        let journal = temp_path("journal-mismatch");
        SweepPlan::new(&spec)
            .unwrap()
            .journal_to(&journal)
            .run()
            .unwrap();
        let mut other = spec.clone();
        other.sweep.seed = Some(8);
        let err = SweepPlan::new(&other)
            .unwrap()
            .resume_from(&journal)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::Journal(ref m) if m.contains("different spec")),
            "{err}"
        );

        // A header that keeps this spec's hash but embeds another spec
        // is just as foreign, read from the path or already loaded.
        let text = std::fs::read_to_string(&journal).unwrap();
        let (header, cells) = text.split_once('\n').unwrap();
        let forged = header.replacen("\"trials\":8", "\"trials\":9", 1);
        assert_ne!(forged, header);
        std::fs::write(&journal, format!("{forged}\n{cells}")).unwrap();
        let loaded = Journal::load(&journal).unwrap();
        let plan = SweepPlan::new(&spec).unwrap();
        assert_eq!(loaded.header.spec_hash, plan.scenario_plan().spec_hash());
        for err in [
            plan.clone().resume_from(&journal).run().unwrap_err(),
            plan.clone().resume_journal(&loaded).run().unwrap_err(),
        ] {
            assert!(
                matches!(err, ScenarioError::Journal(ref m) if m.contains("different spec")),
                "{err}"
            );
        }
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn resume_rejects_a_stale_results_version() {
        let spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        let journal = temp_path("journal-version");
        let plan = SweepPlan::new(&spec).unwrap();
        plan.clone().journal_to(&journal).run().unwrap();
        let text = std::fs::read_to_string(&journal).unwrap();
        let field = format!("\"results_version\":{RESULTS_VERSION},");
        assert!(text.contains(&field), "the header records the version");

        // A header written before the field existed reads as version 0.
        std::fs::write(&journal, text.replacen(&field, "", 1)).unwrap();
        assert_eq!(Journal::load(&journal).unwrap().header.results_version, 0);
        let err = plan.clone().resume_from(&journal).run().unwrap_err();
        let expected =
            format!("results version 0, but this binary produces version {RESULTS_VERSION}");
        assert!(
            matches!(err, ScenarioError::Journal(ref m) if m.contains(&expected)),
            "{err}"
        );
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn journaled_sweeps_reject_trajectory_observers() {
        struct Wants;
        impl gossip_sim::TrialObserver for Wants {
            fn wants_trajectory(&self) -> bool {
                true
            }
            fn on_trial(&mut self, _: &TrialRecord) -> Result<(), SimError> {
                Ok(())
            }
        }
        let spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        let journal = temp_path("journal-trajectory");
        let err = SweepPlan::new(&spec)
            .unwrap()
            .journal_to(&journal)
            .run_with(&mut Wants)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Journal(m) if m.contains("trajectory")));
    }

    #[test]
    fn engines_agree_on_medians() {
        // The same scenario through both engines: medians within noise.
        let mut spec = ScenarioSpec::from_toml_str(TOML_SPEC).unwrap();
        spec.sweep.trials = Some(40);
        spec.sweep.engine = Some("event".into());
        let event = run_scenario(&spec).unwrap();
        spec.sweep.engine = Some("window".into());
        let window = run_scenario(&spec).unwrap();
        for (e, w) in event.rows.iter().zip(&window.rows) {
            let (me, mw) = (e.median.unwrap(), w.median.unwrap());
            assert!(
                (me - mw).abs() / mw < 0.5,
                "medians diverged at n = {}: {me} vs {mw}",
                e.n
            );
        }
    }
}
