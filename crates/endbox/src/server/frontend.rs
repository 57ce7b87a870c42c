//! The event-driven socket front-end of the sharded server
//! ([`AsyncFrontEnd`]): sockets, the poll group and the drain loop with
//! its one drain rule. The resize law, which decides how many shards
//! there are, lives in `control`; where a peer homes is the dispatch
//! law's, in `dispatch`.

use super::control::Control;
#[cfg(doc)]
use super::ShardStats;
use super::{Delivery, ShardedEndBoxServer};
use crate::error::EndBoxError;
use endbox_netsim::net::{Datagram, Event};

/// Observability counters for the event-driven socket front-end (the
/// socket-layer analogue of [`ShardStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AsyncIngressStats {
    /// Event-loop wakeups: [`endbox_netsim::net::PollGroup::poll`] calls
    /// on the one poll group, one per [`AsyncFrontEnd::pump`] call at any
    /// shard count. `datagrams / wakeups` is the amortisation the event
    /// loop achieved — the measured input to the timing-layer
    /// [`endbox_netsim::pipeline::AsyncFrontEndModel`].
    pub wakeups: u64,
    /// Pump rounds that drained something (one poll + one receive call).
    pub rounds: u64,
    /// Wire datagrams drained from sockets into the datapath.
    pub datagrams: u64,
    /// Rounds in which the round's budget ran out while a ready socket
    /// still held data — the backpressure deferrals that keep one
    /// flooding peer from monopolising a dispatch. Never exceeds
    /// [`AsyncIngressStats::rounds`].
    pub deferred_rounds: u64,
    /// `recv_many` calls issued against registered sockets: at most one
    /// per ready socket per drain pass, so `datagrams / io_calls` is how
    /// much each visit to a socket drained.
    pub io_calls: u64,
}

/// Datagram budget per shard per pump round: a round may drain
/// `DEFAULT_SHARD_BUDGET × C`, split evenly over the ready sockets that
/// still hold data. Generous enough that ordinary traffic drains in one
/// round (so the event-driven results are byte-identical to a single
/// `receive_datagrams` call, in wire order); small enough to bound the
/// memory one dispatch can pin under flood.
pub const DEFAULT_SHARD_BUDGET: usize = 1024;

/// The event-driven socket front-end: **one poll group** holding every
/// peer's server-side socket, registered once and never moved. Which
/// shard a datagram feeds is the server's business
/// ([`ShardedEndBoxServer::shard_of`]); the front-end only decides how
/// much of each socket to drain per round.
///
/// Each [`AsyncFrontEnd::pump`] round polls the group once, drains the
/// readable sockets into an owned-datagram batch and hands the batch to
/// [`ShardedEndBoxServer::receive_datagrams`] — the zero-copy ingress
/// path: datagram ownership moves from the socket queue into the shards
/// without a wire-level copy.
///
/// # Ordering
///
/// Drained datagrams are re-merged by their wire arrival stamp
/// ([`endbox_netsim::net::Datagram::seq`]) before dispatch, so a round
/// that drains everything processes datagrams in exact wire order and the
/// results are **byte-identical to the synchronous front-end** (and
/// therefore to the single-threaded reference server) — pinned across the
/// `tests/support/` schedule grid by `tests/async_ingress.rs`. When
/// backpressure splits a flood across rounds, *per-peer* order is still
/// exact (sockets are FIFO and the stamp sort is total), which is the
/// order the session layer depends on; only the interleaving *between*
/// peers moves, exactly as it would under real socket scheduling.
///
/// # Backpressure
///
/// One drain rule with nothing to set: each round may drain
/// [`DEFAULT_SHARD_BUDGET`]` × C` datagrams, taken round-robin over the
/// readable sockets (in slot order, resuming after the previous round's
/// last service) in passes that give every socket still holding data
/// an even split of what is left of the budget, at least one datagram.
/// The split is work-conserving: a socket that runs dry hands its
/// unused share to the next pass. A peer flooding its socket therefore
/// yields to the other peers every pass: their traffic rides in every
/// round while the flood's tail stays queued in *its own* socket
/// ([`AsyncIngressStats::deferred_rounds`] counts these deferrals).
/// Spreading peers over shards is not the front-end's job: the dispatch
/// law moves a peer's shard state on the bytes the server routed, and
/// the peer's socket stays where it is. The control round, which reads
/// every socket's depth, runs only when the resize law is armed
/// ([`crate::scenario::ScenarioBuilder::elastic`]). Every decision lands
/// at a round boundary, so drained datagrams still re-merge into exact
/// wire order for any drain split.
///
/// # Example
///
/// The scenario layer owns the wiring
/// ([`crate::scenario::ScenarioBuilder::async_ingress`] binds one server
/// socket per peer and registers it here); driving the loop is three
/// calls (long-form version: `examples/async_ingress.rs`):
///
/// ```
/// use endbox::scenario::Scenario;
/// use endbox::use_cases::UseCase;
///
/// let mut s = Scenario::enterprise(2, UseCase::Nop)
///     .async_ingress(true)
///     .build_sharded(2)
///     .unwrap();
/// // Seal a packet on client 0, put the datagrams on the wire…
/// let pkt = endbox_netsim::Packet::tcp(
///     Scenario::client_addr(0),
///     Scenario::network_addr(),
///     40_000, 5_001, 0,
///     b"through the event loop",
/// );
/// let sealed = s.clients[0].send_packet(pkt).unwrap();
/// s.send_wire_datagrams(0, sealed);
/// // …and run the event loop: poll, drain, dispatch.
/// let results = s.pump_async();
/// assert_eq!(results.len(), 1);
/// assert_eq!(results[0].0, 0, "tagged with the sending peer");
/// assert!(s.async_stats().wakeups > 0);
/// ```
#[derive(Debug)]
pub struct AsyncFrontEnd {
    poll: endbox_netsim::net::PollGroup,
    /// Slot-indexed `(peer, socket)` registry; `Token(slot)` keys events.
    pub(super) sockets: Vec<(u64, endbox_netsim::net::UdpEndpoint)>,
    /// Round-robin cursor over slot order (fairness across rounds: the
    /// next round starts scanning after the last drained socket).
    rr: usize,
    rounds: u64,
    datagrams: u64,
    deferred_rounds: u64,
    io_calls: u64,
    /// The resize law's state.
    pub(super) control: Control,
    /// Per-round buffers, reused: the poll's events, their slots, which
    /// of those ran dry, one `recv_many`'s datagrams, and the round's
    /// drained datagrams.
    events: Vec<Event>,
    ready: Vec<usize>,
    dry: Vec<bool>,
    scratch: Vec<Datagram>,
    drained: Vec<(u64, u64, Vec<u8>)>,
}

impl Default for AsyncFrontEnd {
    fn default() -> AsyncFrontEnd {
        AsyncFrontEnd::new()
    }
}

impl AsyncFrontEnd {
    /// A front-end with no sockets yet.
    pub fn new() -> AsyncFrontEnd {
        AsyncFrontEnd {
            poll: endbox_netsim::net::PollGroup::new(),
            sockets: Vec::new(),
            rr: 0,
            rounds: 0,
            datagrams: 0,
            deferred_rounds: 0,
            io_calls: 0,
            control: Control::default(),
            events: Vec::new(),
            ready: Vec::new(),
            dry: Vec::new(),
            scratch: Vec::new(),
            drained: Vec::new(),
        }
    }

    /// Registers `peer`'s server-side socket with the poll group.
    pub fn register_peer(&mut self, peer: u64, endpoint: endbox_netsim::net::UdpEndpoint) {
        let slot = self.sockets.len();
        self.poll
            .register(&endpoint, endbox_netsim::net::Token(slot));
        self.sockets.push((peer, endpoint));
    }

    /// Front-end counters.
    pub fn stats(&self) -> AsyncIngressStats {
        AsyncIngressStats {
            wakeups: self.poll.wakeups(),
            rounds: self.rounds,
            datagrams: self.datagrams,
            deferred_rounds: self.deferred_rounds,
            io_calls: self.io_calls,
        }
    }

    /// Datagrams still queued in registered sockets (not yet drained).
    pub fn backlog(&self) -> usize {
        self.sockets.iter().map(|(_, ep)| ep.pending()).sum()
    }

    /// One event-loop round: runs the control round (resize law armed
    /// only), polls the group, drains readable sockets under the round's
    /// budget, re-merges the drained datagrams into wire order and runs
    /// them through one
    /// [`ShardedEndBoxServer::receive_datagrams`] call. Returns one
    /// `(peer, result)` per drained datagram, in dispatch order; an empty
    /// vector means no socket was readable.
    pub fn pump(
        &mut self,
        server: &mut ShardedEndBoxServer,
    ) -> Vec<(u64, Result<Delivery, EndBoxError>)> {
        // The resize law, evaluated strictly at the round boundary
        // (before any socket is polled); unarmed, no socket is probed.
        if self.control.elastic {
            self.control_round(server);
        }
        self.events.clear();
        if self.poll.poll(&mut self.events) == 0 {
            return Vec::new();
        }
        // Drain only the sockets the poll just reported ready (the event
        // list is in slot order), rotated so scanning resumes after the
        // previous round's last service — each wakeup costs O(ready
        // sockets), not O(registered sockets).
        self.ready.clear();
        self.ready.extend(self.events.iter().map(|e| e.token.0));
        let start = (self.ready.iter())
            .position(|&slot| slot >= self.rr)
            .unwrap_or(0);
        let mut budget = DEFAULT_SHARD_BUDGET * server.shard_count();
        let mut last_drained = None;
        // Scheduling passes: round-robin over the ready sockets, each
        // socket still holding data taking at most an even split of the
        // remaining budget per pass, until the budget is spent or every
        // ready socket is dry. A visit is one `recv_many` for the
        // socket's whole share: it either fills the share or finds the
        // socket dry (`got < quota`), and a dry socket is skipped for the
        // rest of this round instead of paying a zero-yield call. A share
        // never exceeds the budget: the visited socket is one of `wet`.
        let ready = self.ready.len();
        let mut wet = ready;
        self.dry.clear();
        self.dry.resize(ready, false);
        loop {
            let mut drained_this_pass = 0usize;
            for i in 0..ready {
                let idx = (start + i) % ready;
                if self.dry[idx] {
                    continue;
                }
                let slot = self.ready[idx];
                let quota = (budget / wet).max(1);
                let (peer, ep) = &self.sockets[slot];
                self.scratch.clear();
                let got = ep.recv_many(quota, &mut self.scratch);
                self.io_calls += 1;
                for d in self.scratch.drain(..) {
                    self.drained.push((d.seq, *peer, d.payload));
                }
                budget -= got;
                if got < quota {
                    self.dry[idx] = true; // socket dry until the next round
                    wet -= 1;
                }
                if got > 0 {
                    drained_this_pass += got;
                    last_drained = Some(slot);
                }
                if budget == 0 {
                    break;
                }
            }
            if budget == 0 || drained_this_pass == 0 {
                break;
            }
        }
        if let Some(slot) = last_drained {
            self.rr = (slot + 1) % self.sockets.len();
        }
        if self.drained.is_empty() {
            return Vec::new();
        }
        self.rounds += 1;
        self.datagrams += self.drained.len() as u64;
        let readable = |&slot: &usize| self.sockets[slot].1.readable();
        if budget == 0 && self.ready.iter().any(readable) {
            self.deferred_rounds += 1;
        }
        // Re-merge into wire order (the stamp sort is total, so per-peer
        // FIFO order is preserved exactly).
        self.drained.sort_unstable_by_key(|&(seq, _, _)| seq);
        let mut peers = Vec::with_capacity(self.drained.len());
        let batch = (self.drained.drain(..))
            .map(|(_, peer, payload)| {
                peers.push(peer);
                (peer, payload)
            })
            .collect();
        peers
            .into_iter()
            .zip(server.receive_datagrams(batch))
            .collect()
    }

    /// Pumps until no registered socket is readable, concatenating the
    /// per-round results.
    pub fn run_until_idle(
        &mut self,
        server: &mut ShardedEndBoxServer,
    ) -> Vec<(u64, Result<Delivery, EndBoxError>)> {
        let mut out = Vec::new();
        loop {
            let round = self.pump(server);
            if round.is_empty() {
                return out;
            }
            out.extend(round);
        }
    }
}
