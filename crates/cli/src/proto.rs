//! Protocol registry adapter: maps `--protocol` names and flags onto the
//! unified scenario registry in [`gossip_core::scenario`].

use crate::args::Args;
use crate::error::CliError;
use gossip_core::scenario::{self, ProtocolSpec};
use gossip_sim::Protocol;

/// One row of `gossip list` output.
#[derive(Debug, Clone)]
pub struct ProtocolInfo {
    /// The `--protocol` value.
    pub name: &'static str,
    /// Flags the protocol reads.
    pub flags: String,
    /// One-line description.
    pub synopsis: &'static str,
}

/// Every registered protocol (from the scenario registry).
pub fn list() -> Vec<ProtocolInfo> {
    scenario::protocols()
        .into_iter()
        .map(|e| ProtocolInfo {
            name: e.name,
            flags: e
                .params
                .iter()
                .map(|p| format!("--{p}"))
                .collect::<Vec<_>>()
                .join(" "),
            synopsis: e.synopsis,
        })
        .collect()
}

/// Builds a [`ProtocolSpec`] from the flags the named protocol declares.
///
/// # Errors
///
/// [`CliError::Usage`] for an unknown name or malformed flag values.
pub fn spec_from_args(name: &str, args: &Args) -> Result<ProtocolSpec, CliError> {
    let entry = scenario::protocols()
        .into_iter()
        .find(|e| e.name == name)
        .ok_or_else(|| CliError::Usage(format!("unknown protocol `{name}` (see `gossip list`)")))?;
    let mut spec = ProtocolSpec::new(name);
    for &param in entry.params {
        let value = args
            .opt(param)?
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| CliError::Usage(format!("--{param} expects a number, got `{v}`")))
            })
            .transpose()?;
        match param {
            "loss" => spec.loss = value,
            "downtime" => spec.downtime = value,
            other => unreachable!("unmapped registry param `{other}`"),
        }
    }
    Ok(spec)
}

/// Builds the named protocol as a window-engine trait object (for
/// commands that drive a raw [`gossip_sim::Simulation`], e.g. `trace`).
///
/// # Errors
///
/// [`CliError::Usage`] for an unknown name; [`CliError::Sim`] when the
/// protocol constructor rejects the parameters; [`CliError::Scenario`]
/// for `lossy` with `--loss` or `--downtime` above 0, which needs the
/// event engine's fault layer (`gossip run`).
pub fn build(name: &str, args: &Args) -> Result<Box<dyn Protocol>, CliError> {
    let spec = spec_from_args(name, args)?;
    scenario::build_protocol(&spec).map_err(CliError::from)
}

/// Builds the named protocol as an engine-agnostic
/// [`gossip_sim::AnyProtocol`] for [`gossip_sim::RunPlan`] execution.
///
/// # Errors
///
/// As [`build`].
pub fn build_any(name: &str, args: &Args) -> Result<gossip_sim::AnyProtocol, CliError> {
    let spec = spec_from_args(name, args)?;
    scenario::build_any_protocol(&spec).map_err(CliError::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn every_listed_protocol_builds() {
        let a = args("run --loss 0.1 --downtime 0.05");
        for info in list() {
            let p = build_any(info.name, &a)
                .unwrap_or_else(|e| panic!("protocol {} failed to build: {e}", info.name));
            assert!(!p.name().is_empty());
            // The window form has no fault layer: active lossy is refused.
            match build(info.name, &a) {
                Ok(p) => assert!(!p.name().is_empty()),
                Err(CliError::Scenario(m)) if info.name == "lossy" => {
                    assert!(m.contains("gossip run"), "{m}")
                }
                Err(e) => panic!("protocol {} failed to build: {e}", info.name),
            }
        }
    }

    #[test]
    fn unknown_protocol_is_usage_error() {
        let a = args("run");
        assert!(matches!(build("telepathy", &a), Err(CliError::Usage(_))));
    }

    #[test]
    fn invalid_loss_is_sim_error() {
        let a = args("run --loss 1.0");
        assert!(matches!(build("lossy", &a), Err(CliError::Sim(_))));
    }
}
