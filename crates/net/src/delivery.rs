//! The pluggable transport between node groups.
//!
//! The runtime advances in synchronized epochs of one tick each (see
//! [`crate::runtime`]); at every epoch boundary each group hands its
//! outbound [`Envelope`]s plus a handful of scalars — its earliest
//! future event, its informed-node count, and the liveness reductions
//! behind `Died` detection — to its [`Delivery`] endpoint and gets
//! back everything addressed to it along with the global reductions. How
//! the envelopes and scalars move is the only thing that differs between
//! transports:
//!
//! * [`LocalDelivery`] — in-process [`std::sync::mpsc`] channels between
//!   groups plus a pair of atomics for the reductions; the path the
//!   million-node single-machine runs use.
//! * [`crate::UdpDelivery`] — length-prefixed datagrams, one socket per
//!   group, reductions piggybacked on the datagram headers.
//!
//! Fault injection happens before an envelope reaches the transport: the
//! sender's [`crate::ChaosGate`] flips its deterministic,
//! group-count-invariant drop, partition, delay and duplication coins.

use crate::envelope::Envelope;
use crate::error::NetError;
use gossip_graph::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};

/// Which [`Delivery`] transport a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryKind {
    /// In-process channels between node groups ([`LocalDelivery`]).
    Local,
    /// Loopback/LAN datagrams between per-group sockets
    /// ([`crate::UdpDelivery`]).
    Udp,
}

impl DeliveryKind {
    /// The spec string of the transport (`"local"` / `"udp"`).
    pub fn name(self) -> &'static str {
        match self {
            DeliveryKind::Local => "local",
            DeliveryKind::Udp => "udp",
        }
    }

    /// Parses a spec string (`"local"` / `"udp"`).
    pub fn parse(s: &str) -> Option<DeliveryKind> {
        match s {
            "local" => Some(DeliveryKind::Local),
            "udp" => Some(DeliveryKind::Udp),
            _ => None,
        }
    }
}

/// Static node → group assignment: `groups` contiguous blocks of
/// `ceil(n / groups)` nodes. Trailing groups may own an empty range when
/// `n` is small; they still participate in every epoch exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Router {
    n: u32,
    groups: u32,
    block: u32,
}

impl Router {
    /// A router over `n` nodes in `groups` blocks; `groups` is clamped
    /// to `[1, n]`.
    pub fn new(n: usize, groups: usize) -> Router {
        let n = u32::try_from(n).expect("live runtime supports up to u32::MAX nodes");
        let groups = (groups.max(1) as u32).min(n.max(1));
        Router {
            n,
            groups,
            block: n.div_ceil(groups).max(1),
        }
    }

    /// Number of node groups.
    pub fn groups(&self) -> usize {
        self.groups as usize
    }

    /// Total node count.
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// The group owning node `v`.
    pub fn group_of(&self, v: NodeId) -> usize {
        ((v / self.block) as usize).min(self.groups as usize - 1)
    }

    /// The node range owned by group `g`.
    pub fn range(&self, g: usize) -> std::ops::Range<NodeId> {
        let lo = (g as u32).saturating_mul(self.block).min(self.n);
        let hi = lo.saturating_add(self.block).min(self.n);
        lo..hi
    }
}

/// What one group posts at an epoch boundary.
#[derive(Debug)]
pub struct EpochFlush {
    /// Envelopes sent during the finished epoch (any destination; the
    /// endpoint routes them).
    pub outbound: Vec<Envelope>,
    /// The earliest virtual time at which this group has a future event:
    /// its next clock activation, its earliest buffered arrival, or the
    /// arrival time of anything in `outbound`. The global minimum drives
    /// epoch skipping.
    pub next_candidate: f64,
    /// Cumulative count of this group's own informed nodes.
    pub informed: u64,
    /// Count of this group's informed nodes that are also up at their
    /// last observed liveness state (equals `informed` when crash faults
    /// are off). Drives the global `Died` detection.
    pub live_informed: u64,
    /// Count of rumor-carrying envelopes (push contacts and pull
    /// replies) this group has in flight — in `outbound` or buffered for
    /// a future epoch. Only maintained when a trial can die; otherwise 0.
    pub rumor_in_flight: u64,
}

/// What the exchange returns to the group for the next epoch.
#[derive(Debug)]
pub struct EpochUpdate {
    /// Envelopes addressed to this group's nodes, in transport order
    /// (the runtime re-sorts by [`Envelope::order_key`]).
    pub inbound: Vec<Envelope>,
    /// Global minimum of every group's `next_candidate`.
    pub next_time: f64,
    /// Global informed-node count.
    pub informed_total: u64,
    /// Global sum of every group's `live_informed`.
    pub live_informed_total: u64,
    /// Global sum of every group's `rumor_in_flight`.
    pub rumor_in_flight_total: u64,
}

/// One group's endpoint of the inter-group transport.
///
/// `exchange` is a collective: every group calls it exactly once per
/// epoch, and no call returns until every group's envelopes and scalars
/// for that epoch are in. The runtime's loop decisions depend only on
/// the returned reductions, so all groups always agree on the number of
/// exchanges.
pub trait Delivery: Send {
    /// Posts this group's epoch output and blocks until every group's
    /// epoch data is in.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the transport dies (peer gone, socket
    /// failure, exchange timeout).
    fn exchange(&mut self, flush: EpochFlush) -> Result<EpochUpdate, NetError>;
}

// ---------------------------------------------------------------------------
// Local (in-process) delivery
// ---------------------------------------------------------------------------

struct LocalShared {
    barrier: Barrier,
    /// Global next-event reduction, double-buffered by exchange-round
    /// parity: while round `r` min-reduces into slot `r % 2`, everyone
    /// resets slot `(r + 1) % 2` to `+inf` for the next round.
    next_bits: [AtomicU64; 2],
    /// Per-group cumulative informed counts (each slot written by one
    /// group, read by all).
    informed: Vec<AtomicU64>,
    /// Per-group informed-and-up counts (same ownership discipline).
    live_informed: Vec<AtomicU64>,
    /// Per-group rumor-carrying in-flight envelope counts.
    in_flight: Vec<AtomicU64>,
}

/// In-process transport: one mpsc channel per ordered group pair plus a
/// shared barrier/atomics block for the epoch reductions.
pub struct LocalDelivery {
    shared: Arc<LocalShared>,
    router: Router,
    me: usize,
    round: u64,
    /// Senders to every group (`to[d]` feeds group `d`), including self.
    to: Vec<Sender<Vec<Envelope>>>,
    /// Receivers from every group (`from[s]` drains group `s`).
    from: Vec<Receiver<Vec<Envelope>>>,
    /// Per-destination routing buffers, reused across epochs.
    scratch: Vec<Vec<Envelope>>,
}

impl LocalDelivery {
    /// Builds the connected endpoint set for every group of `router`.
    pub fn fabric(router: Router) -> Vec<LocalDelivery> {
        let g = router.groups();
        let shared = Arc::new(LocalShared {
            barrier: Barrier::new(g),
            next_bits: [
                AtomicU64::new(f64::INFINITY.to_bits()),
                AtomicU64::new(f64::INFINITY.to_bits()),
            ],
            informed: (0..g).map(|_| AtomicU64::new(0)).collect(),
            live_informed: (0..g).map(|_| AtomicU64::new(0)).collect(),
            in_flight: (0..g).map(|_| AtomicU64::new(0)).collect(),
        });
        // channels[s][d] carries batches from group s to group d.
        let mut senders: Vec<Vec<Sender<Vec<Envelope>>>> = Vec::with_capacity(g);
        let mut receivers: Vec<Vec<Option<Receiver<Vec<Envelope>>>>> =
            (0..g).map(|_| (0..g).map(|_| None).collect()).collect();
        for s in 0..g {
            let mut row = Vec::with_capacity(g);
            for slot in receivers.iter_mut().take(g) {
                let (tx, rx) = channel();
                row.push(tx);
                slot[s] = Some(rx);
            }
            senders.push(row);
        }
        senders
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(me, (to, from))| LocalDelivery {
                shared: Arc::clone(&shared),
                router,
                me,
                round: 0,
                to,
                from: from.into_iter().map(|r| r.expect("wired above")).collect(),
                scratch: (0..g).map(|_| Vec::new()).collect(),
            })
            .collect()
    }
}

impl Delivery for LocalDelivery {
    fn exchange(&mut self, flush: EpochFlush) -> Result<EpochUpdate, NetError> {
        let g = self.router.groups();
        let par = (self.round % 2) as usize;
        for env in flush.outbound {
            self.scratch[self.router.group_of(env.dst)].push(env);
        }
        for d in 0..g {
            if !self.scratch[d].is_empty() {
                let batch = std::mem::take(&mut self.scratch[d]);
                self.to[d].send(batch).map_err(|_| {
                    NetError::Io(format!(
                        "group {d} hung up mid-trial (local channel closed)"
                    ))
                })?;
            }
        }
        self.shared.next_bits[par].fetch_min(flush.next_candidate.to_bits(), Ordering::SeqCst);
        self.shared.informed[self.me].store(flush.informed, Ordering::SeqCst);
        self.shared.live_informed[self.me].store(flush.live_informed, Ordering::SeqCst);
        self.shared.in_flight[self.me].store(flush.rumor_in_flight, Ordering::SeqCst);
        self.shared.barrier.wait();
        let mut inbound = Vec::new();
        for rx in &self.from {
            while let Ok(mut batch) = rx.try_recv() {
                inbound.append(&mut batch);
            }
        }
        let next_time = f64::from_bits(self.shared.next_bits[par].load(Ordering::SeqCst));
        self.shared.next_bits[1 - par].store(f64::INFINITY.to_bits(), Ordering::SeqCst);
        let sum = |slots: &[AtomicU64]| slots.iter().map(|a| a.load(Ordering::SeqCst)).sum();
        let informed_total = sum(&self.shared.informed);
        let live_informed_total = sum(&self.shared.live_informed);
        let rumor_in_flight_total = sum(&self.shared.in_flight);
        self.shared.barrier.wait();
        self.round += 1;
        Ok(EpochUpdate {
            inbound,
            next_time,
            informed_total,
            live_informed_total,
            rumor_in_flight_total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Payload;

    #[test]
    fn router_blocks_cover_all_nodes() {
        for (n, groups) in [(10, 3), (10, 4), (5, 8), (1, 1), (1_000, 7)] {
            let r = Router::new(n, groups);
            let mut covered = 0usize;
            for g in 0..r.groups() {
                let range = r.range(g);
                for v in range.clone() {
                    assert_eq!(r.group_of(v), g, "n={n} groups={groups} v={v}");
                }
                covered += range.len();
            }
            assert_eq!(covered, n);
            assert!(r.groups() <= n.max(1));
        }
    }

    #[test]
    fn local_exchange_routes_and_reduces() {
        let router = Router::new(8, 2);
        let mut eps = LocalDelivery::fabric(router);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let mk = |src, dst| Envelope {
            src,
            dst,
            seq: 0,
            time: 0.5,
            payload: Payload::Rumor,
        };
        let ha = std::thread::spawn(move || {
            let mut a = a;
            a.exchange(EpochFlush {
                outbound: vec![mk(0, 5), mk(1, 2)],
                next_candidate: 0.7,
                informed: 3,
                live_informed: 2,
                rumor_in_flight: 2,
            })
            .unwrap()
        });
        let hb = std::thread::spawn(move || {
            let mut b = b;
            b.exchange(EpochFlush {
                outbound: vec![mk(6, 1)],
                next_candidate: 0.9,
                informed: 1,
                live_informed: 1,
                rumor_in_flight: 1,
            })
            .unwrap()
        });
        let ua = ha.join().unwrap();
        let ub = hb.join().unwrap();
        // Group 0 owns nodes 0..4, group 1 owns 4..8.
        assert_eq!(ua.inbound.len(), 2); // its own 1→2 plus b's 6→1
        assert_eq!(ub.inbound.len(), 1); // a's 0→5
        for u in [&ua, &ub] {
            assert!((u.next_time - 0.7).abs() < 1e-12);
            assert_eq!(u.informed_total, 4);
            assert_eq!(u.live_informed_total, 3);
            assert_eq!(u.rumor_in_flight_total, 3);
        }
    }
}
