use std::error::Error;
use std::fmt;

/// Error type for simulation runs.
///
/// # Example
///
/// ```
/// use gossip_dynamics::StaticNetwork;
/// use gossip_graph::generators;
/// use gossip_sim::{AsyncPushPull, RunConfig, SimError, Simulation};
/// use gossip_stats::SimRng;
///
/// let mut net = StaticNetwork::new(generators::path(3).unwrap());
/// let mut rng = SimRng::seed_from_u64(0);
/// let err = Simulation::new(AsyncPushPull::new(), RunConfig::default())
///     .run(&mut net, 99, &mut rng)
///     .unwrap_err();
/// assert!(matches!(err, SimError::StartOutOfRange { .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The start node is not a node of the network.
    StartOutOfRange {
        /// The requested start node.
        start: u32,
        /// The network size.
        n: usize,
    },
    /// The network has no nodes.
    EmptyNetwork,
    /// The configured time limit is not positive.
    InvalidTimeLimit(f64),
    /// A protocol parameter that must be a probability is outside `[0, 1)`.
    InvalidProbability {
        /// Which parameter was rejected.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// [`crate::Engine::Event`] was forced on a protocol without an
    /// incremental implementation.
    EngineUnsupported {
        /// The window-only protocol's name.
        protocol: &'static str,
    },
    /// A fault model was attached to an engine or protocol that cannot
    /// honor it (faults require the event engine, which window-only
    /// protocols cannot run on).
    FaultsUnsupported {
        /// The protocol that cannot run under faults.
        protocol: &'static str,
    },
    /// A [`crate::FaultModel`] parameter is out of range.
    InvalidFaultParam {
        /// Which parameter was rejected.
        name: &'static str,
        /// The offending value.
        value: f64,
        /// What the parameter must be.
        constraint: &'static str,
    },
    /// A [`crate::TrialObserver`] sink failed (e.g. an I/O error while
    /// streaming records to disk).
    Observer(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::StartOutOfRange { start, n } => {
                write!(f, "start node {start} out of range for {n}-node network")
            }
            SimError::EmptyNetwork => write!(f, "network has no nodes"),
            SimError::InvalidTimeLimit(t) => write!(f, "time limit must be positive, got {t}"),
            SimError::InvalidProbability { name, value } => {
                write!(f, "{name} must be a probability in [0, 1), got {value}")
            }
            SimError::EngineUnsupported { protocol } => {
                write!(
                    f,
                    "protocol `{protocol}` has no incremental implementation; \
                     use Engine::Window (or Engine::Auto)"
                )
            }
            SimError::FaultsUnsupported { protocol } => {
                write!(
                    f,
                    "protocol `{protocol}` does not support fault injection; \
                     faults need the event engine and a fault-aware protocol"
                )
            }
            SimError::InvalidFaultParam {
                name,
                value,
                constraint,
            } => {
                write!(
                    f,
                    "fault parameter {name} must be {constraint}, got {value}"
                )
            }
            SimError::Observer(m) => write!(f, "trial observer failed: {m}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        for e in [
            SimError::StartOutOfRange { start: 5, n: 3 },
            SimError::EmptyNetwork,
            SimError::InvalidTimeLimit(-1.0),
            SimError::EngineUnsupported { protocol: "sync" },
            SimError::FaultsUnsupported { protocol: "sync" },
            SimError::InvalidFaultParam {
                name: "drop",
                value: 1.5,
                constraint: "within [0, 1]",
            },
            SimError::Observer("disk full".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
