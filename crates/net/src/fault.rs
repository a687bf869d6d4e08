//! Live-runtime fault injection: the delivery layer's per-envelope
//! verdicts — drop, partition, delay and duplication — in one
//! [`ChaosGate`].
//!
//! Node liveness is not here: the live runtime runs the one
//! [`gossip_sim::Liveness`] machine of the shared [`FaultModel`], each
//! group advancing its own nodes lazily, before a node acts on an event at
//! time `t`, to window `⌊t⌋`. A down node's activation still burns its RNG
//! draws — keeping the activation chain bit-identical to the fault-free
//! one — but the contact is voided, and an envelope arriving at a down
//! node is voided entirely (no infection, no pull reply): exactly the event
//! engine's rate-zero thinning, enacted at the message layer. Its coins are
//! keyed by `(fault seed, trial seed, node, window)`, so a live trial and
//! an analytic trial with the same seeds see the same up/down state.
//!
//! # Determinism
//!
//! Every verdict is a pure function of the fault key and the envelope's
//! `(src, seq)` identity (partitions also key on the send-time window) —
//! a [`splitmix`] hash seeding a one-shot coin ([`keyed_coin`]), never a
//! draw from a shared sequential stream. Sender and receiver, whatever
//! group or transport they live on, therefore agree bit-for-bit without
//! coordination, which keeps faulty live runs **bit-identical across group
//! counts and transports** (test-enforced).

use crate::envelope::{Envelope, Payload};
use gossip_graph::NodeId;
use gossip_sim::{keyed_coin, splitmix, FaultModel};
use gossip_stats::SimRng;

/// Domain-separation salts: each chaos feature hashes the per-trial key
/// under its own salt so coins never collide across features (or with
/// the drop coin's unsalted key, or the liveness salt).
const PARTITION_SALT: u64 = 0x5041_5254_4954_4E00; // "PARTITN"
const DELAY_SALT: u64 = 0x4445_4C41_5900_0000; // "DELAY"
const DUPLICATE_SALT: u64 = 0x4455_504C_4943_4154; // "DUPLICAT"

/// Deterministic delivery-layer faults: envelope drop, seeded partitions,
/// envelope delay, and envelope duplication. All verdicts are pure
/// functions of the fault key and the envelope's `(src, seq)` identity
/// (partitions also key on the send-time unit window), so sender and
/// receiver — whatever group or transport they live on — always agree.
#[derive(Debug, Clone, Copy)]
pub struct ChaosGate {
    drop_key: u64,
    part_key: u64,
    delay_key: u64,
    dup_key: u64,
    drop: f64,
    partition_p: f64,
    delay: f64,
    delay_epochs: u64,
    duplicate: f64,
    tick: f64,
}

impl ChaosGate {
    /// A gate for one trial of a run with epoch length `tick`.
    pub fn new(faults: &FaultModel, trial_seed: u64, tick: f64) -> ChaosGate {
        let key = faults.trial_key(trial_seed);
        ChaosGate {
            drop_key: key,
            part_key: splitmix(key ^ PARTITION_SALT),
            delay_key: splitmix(key ^ DELAY_SALT),
            dup_key: splitmix(key ^ DUPLICATE_SALT),
            drop: faults.drop,
            partition_p: 1.0 - (-faults.partition_rate).exp(),
            delay: faults.delay.clamp(0.0, 1.0),
            delay_epochs: faults.delay_epochs.max(1),
            duplicate: faults.duplicate.clamp(0.0, 1.0),
            tick,
        }
    }

    /// Whether `env` is dropped: one coin per envelope, keyed on the
    /// unsalted per-trial key and `(src, seq)`.
    pub fn drops(&self, env: &Envelope) -> bool {
        keyed_coin(
            self.drop_key,
            (u64::from(env.src) << 32) | u64::from(env.seq),
            self.drop,
        )
    }

    /// Whether the send-time unit window of `env` is partitioned and
    /// `src`/`dst` fall on opposite halves — in which case the envelope
    /// is voided at the sender (it would cross the cut).
    ///
    /// Halves are re-drawn per partitioned window, so long partitions
    /// shuffle their membership every unit of virtual time.
    pub fn blocks(&self, env: &Envelope) -> bool {
        if self.partition_p <= 0.0 {
            return false;
        }
        let win = env.time as u64;
        if !keyed_coin(self.part_key, win, self.partition_p) {
            return false;
        }
        let wkey = splitmix(self.part_key ^ splitmix(win));
        let side = |v: NodeId| splitmix(wkey ^ u64::from(v)) & 1;
        side(env.src) != side(env.dst)
    }

    /// The arrival time of `env`: one tick after the send, plus the
    /// seeded extra epochs when the delay coin fires. Sender (for the
    /// next-event reduction) and receiver (for event ordering) compute
    /// this independently and agree by construction.
    pub fn arrival(&self, env: &Envelope) -> f64 {
        if self.delay <= 0.0 {
            return env.time + self.tick;
        }
        let h = splitmix(self.delay_key ^ ((u64::from(env.src) << 32) | u64::from(env.seq)));
        let mut rng = SimRng::seed_from_u64(h);
        let extra = if rng.chance(self.delay) {
            1 + rng.index(self.delay_epochs as usize) as u64
        } else {
            0
        };
        env.time + self.tick * (1 + extra) as f64
    }

    /// Whether the duplication coin fires for `env` (the sender enqueues
    /// a second identical copy).
    pub fn duplicates(&self, env: &Envelope) -> bool {
        if self.duplicate <= 0.0 {
            return false;
        }
        keyed_coin(
            self.dup_key,
            (u64::from(env.src) << 32) | u64::from(env.seq),
            self.duplicate,
        )
    }

    /// The sort key the runtime orders buffered arrivals by: arrival
    /// time (delay-adjusted), then source, then sequence number — a
    /// total order every group computes identically.
    pub fn order_key(&self, env: &Envelope) -> (u64, NodeId, u32) {
        (self.arrival(env).to_bits(), env.src, env.seq)
    }
}

/// Whether an envelope carries the rumor toward its destination — a
/// push contact or a pull reply. Pull *requests* don't count: an
/// in-flight request from an uninformed node cannot inform anyone by
/// itself, and uninformed nodes emit them forever.
pub fn carries_rumor(env: &Envelope) -> bool {
    matches!(
        env.payload,
        Payload::Contact { informed: true } | Payload::Rumor
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::scenario::FaultSpec;

    fn env(src: NodeId, dst: NodeId, seq: u32, time: f64) -> Envelope {
        Envelope {
            src,
            dst,
            seq,
            time,
            payload: Payload::Rumor,
        }
    }

    #[test]
    fn drop_verdicts_are_deterministic_and_respect_extremes() {
        let faults = |drop| FaultModel {
            drop,
            seed: 3,
            ..FaultModel::default()
        };
        let g = ChaosGate::new(&faults(0.5), 11, 1e-3);
        let h = ChaosGate::new(&faults(0.5), 11, 1e-3);
        let mut dropped = 0;
        for i in 0..2_000 {
            let e = env(i % 64, 0, i, 1.0);
            assert_eq!(g.drops(&e), h.drops(&e));
            dropped += u32::from(g.drops(&e));
        }
        // A fair-ish half: the verdicts are i.i.d. coins across (src, seq).
        assert!((600..1_400).contains(&dropped), "{dropped}");
        assert!(!ChaosGate::new(&faults(0.0), 11, 1e-3).drops(&env(1, 0, 1, 1.0)));
        assert!(ChaosGate::new(&faults(1.0), 11, 1e-3).drops(&env(1, 0, 1, 1.0)));
    }

    #[test]
    fn chaos_gate_is_deterministic_and_sender_receiver_agree() {
        let f = FaultModel {
            partition_rate: 0.5,
            delay: 0.4,
            delay_epochs: 3,
            duplicate: 0.3,
            seed: 11,
            ..FaultModel::default()
        };
        let a = ChaosGate::new(&f, 42, 1e-3);
        let b = ChaosGate::new(&f, 42, 1e-3);
        let mut blocked = 0;
        let mut delayed = 0;
        let mut duplicated = 0;
        for i in 0..2_000u32 {
            let e = env(i % 64, (i + 1) % 64, i, (i as f64) * 0.37);
            assert_eq!(a.blocks(&e), b.blocks(&e));
            assert_eq!(a.arrival(&e).to_bits(), b.arrival(&e).to_bits());
            assert_eq!(a.duplicates(&e), b.duplicates(&e));
            blocked += u32::from(a.blocks(&e));
            duplicated += u32::from(a.duplicates(&e));
            let arr = a.arrival(&e);
            assert!(arr >= e.time + 1e-3 - 1e-15);
            assert!(arr <= e.time + 4.0 * 1e-3 + 1e-15, "≤ 1 + delay_epochs");
            delayed += u32::from(arr > e.time + 1e-3 + 1e-15);
        }
        assert!(blocked > 0, "partitions must block something");
        assert!((500..1_200).contains(&delayed), "{delayed}");
        assert!((350..900).contains(&duplicated), "{duplicated}");
        // Different trial seeds decorrelate the verdicts.
        let c = ChaosGate::new(&f, 43, 1e-3);
        let divergent = (0..500u32)
            .map(|i| env(i % 64, (i + 1) % 64, i, i as f64 * 0.37))
            .any(|e| a.duplicates(&e) != c.duplicates(&e) || a.blocks(&e) != c.blocks(&e));
        assert!(divergent);
    }

    #[test]
    fn inactive_chaos_is_invisible() {
        let gate = ChaosGate::new(&FaultModel::default(), 7, 1e-3);
        for i in 0..100u32 {
            let e = env(i, i + 1, i, i as f64);
            assert!(!gate.drops(&e));
            assert!(!gate.blocks(&e));
            assert!(!gate.duplicates(&e));
            assert_eq!(gate.arrival(&e).to_bits(), (e.time + 1e-3).to_bits());
        }
    }

    #[test]
    fn spec_compilation_and_validation() {
        // The one compile step feeds the live runtime too: chaos fields
        // included, defaults filled.
        let mut spec = FaultSpec::new();
        spec.crash_rate = Some(0.1);
        spec.partition_rate = Some(0.2);
        spec.delay = Some(0.3);
        spec.seed = Some(4);
        let f = spec.to_model();
        assert_eq!(f.crash_rate, 0.1);
        assert_eq!(f.partition_rate, 0.2);
        assert_eq!(f.delay_epochs, 1, "default max delay is one epoch");
        assert!(f.crash_active() && f.can_die() && f.chaos_active());
        f.validate().unwrap();
        spec.delay = Some(1.5);
        assert!(spec.to_model().validate().is_err());
        spec.delay = None;
        spec.partition_rate = Some(-1.0);
        assert!(spec.to_model().validate().is_err());
        spec.partition_rate = None;
        spec.recovery_rate = Some(0.1);
        assert!(!spec.to_model().can_die(), "recovery makes death non-final");
    }

    #[test]
    fn rumor_carriers_are_classified() {
        let mk = |payload| Envelope {
            src: 0,
            dst: 1,
            seq: 0,
            time: 0.0,
            payload,
        };
        assert!(carries_rumor(&mk(Payload::Contact { informed: true })));
        assert!(carries_rumor(&mk(Payload::Rumor)));
        assert!(!carries_rumor(&mk(Payload::Contact { informed: false })));
    }
}
