//! Error type of the live runtime.

use gossip_core::scenario::ScenarioError;
use gossip_sim::SimError;
use std::fmt;

/// Errors raised by the live gossip runtime.
#[derive(Debug)]
pub enum NetError {
    /// A structurally invalid configuration (zero-size network, bad tick,
    /// a family or protocol the live runtime cannot run, …).
    Invalid(String),
    /// A transport failure (socket setup, send/receive) on the
    /// [`crate::UdpDelivery`] path, or a torn-down in-process channel.
    Io(String),
    /// A UDP epoch exchange exhausted its retry/backoff budget waiting
    /// for peer datagrams. Unlike [`NetError::Io`] this is a *retryable*
    /// condition — the fabric is structurally sound but a peer stopped
    /// answering (overload, datagram loss burst, a killed process) — so
    /// batch drivers re-run the trial on a fresh fabric before giving
    /// up. Carries which group observed the stall and at which exchange
    /// round, plus the peers still missing.
    Stalled {
        /// The group whose `exchange` call timed out.
        group: usize,
        /// The epoch-exchange round that never completed.
        round: u64,
        /// Groups whose datagrams were still missing after the retries.
        missing: Vec<usize>,
    },
    /// A scenario-layer failure while building the family/protocol or
    /// validating the spec.
    Scenario(ScenarioError),
    /// An observer or summary sink rejected a trial record.
    Sim(SimError),
}

impl NetError {
    /// Whether retrying the operation (on a rebuilt fabric) can
    /// plausibly succeed. Only exchange stalls qualify: invalid configs
    /// and structural I/O failures repeat deterministically.
    pub fn is_retryable(&self) -> bool {
        matches!(self, NetError::Stalled { .. })
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Invalid(m) => write!(f, "invalid live-runtime configuration: {m}"),
            NetError::Io(m) => write!(f, "delivery transport error: {m}"),
            NetError::Stalled {
                group,
                round,
                missing,
            } => write!(
                f,
                "udp exchange stalled: group {group} exhausted its retries at \
                 round {round} still waiting for group(s) {missing:?}"
            ),
            NetError::Scenario(e) => write!(f, "{e}"),
            NetError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Scenario(e) => Some(e),
            NetError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScenarioError> for NetError {
    fn from(e: ScenarioError) -> Self {
        NetError::Scenario(e)
    }
}

/// A live cell's failure, as `gossip_core`'s sweep driver reports it.
impl From<NetError> for ScenarioError {
    fn from(e: NetError) -> Self {
        match e {
            NetError::Scenario(e) => e,
            NetError::Sim(e) => ScenarioError::Sim(e),
            other => ScenarioError::Live(other.to_string()),
        }
    }
}

impl From<SimError> for NetError {
    fn from(e: SimError) -> Self {
        NetError::Sim(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}
