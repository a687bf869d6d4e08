//! `kind = "lossy"` — asynchronous push–pull under i.i.d. message loss
//! and per-window node downtime — as a spelling of `async` plus faults.
//!
//! `lossy` has no sampler of its own:
//! [`crate::scenario::build_any_protocol`] builds the cut-rate sampler
//! once [`check_probabilities`] accepts its parameters, and
//! [`fold_lossy`] moves them into the run's [`FaultModel`].

use gossip_sim::{FaultModel, SimError};

use crate::scenario::ProtocolSpec;

/// Checks `lossy`'s `loss` and `downtime` (absent reads as 0): each must
/// lie in `[0, 1)`.
///
/// # Errors
///
/// [`SimError::InvalidProbability`] naming the first offending parameter.
pub(crate) fn check_probabilities(
    loss: Option<f64>,
    downtime: Option<f64>,
) -> Result<(), SimError> {
    for (name, value) in [("loss", loss), ("downtime", downtime)] {
        let value = value.unwrap_or(0.0);
        if !(0.0..1.0).contains(&value) {
            return Err(SimError::InvalidProbability { name, value });
        }
    }
    Ok(())
}

/// The fault model a run of `protocol` executes under: `faults` with
/// `kind = "lossy"`'s parameters folded in — `drop = 1 − (1 − loss)(1 −
/// faults.drop)` (two independent drop coins are one coin at the composed
/// probability) and its `downtime`. Other kinds get `faults` unchanged.
pub fn fold_lossy(protocol: &ProtocolSpec, mut faults: FaultModel) -> FaultModel {
    if protocol.kind == "lossy" {
        let loss = protocol.loss.unwrap_or(0.0);
        if loss > 0.0 {
            faults.drop = 1.0 - (1.0 - loss) * (1.0 - faults.drop);
        }
        faults.downtime = protocol.downtime.unwrap_or(0.0);
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_probabilities() {
        assert!(check_probabilities(Some(0.0), None).is_ok());
        assert!(check_probabilities(Some(0.999), None).is_ok());
        assert!(matches!(
            check_probabilities(Some(1.0), None),
            Err(SimError::InvalidProbability { name: "loss", .. })
        ));
        assert!(check_probabilities(Some(-0.1), None).is_err());
        assert!(matches!(
            check_probabilities(Some(0.1), Some(1.5)),
            Err(SimError::InvalidProbability {
                name: "downtime",
                ..
            })
        ));
    }
}
