//! The event-driven socket front-end of the sharded server
//! ([`AsyncFrontEnd`]): sockets, poll groups and the drain loop. The laws
//! that decide how much each group may drain, where a peer homes and how
//! many groups there are live in `control`.

use super::control::Control;
use super::{Delivery, ShardedEndBoxServer};
#[cfg(doc)]
use super::{ShardStats, DEFAULT_SHARD_BUDGET};
use crate::error::EndBoxError;
use endbox_netsim::net::{Datagram, Event};

/// Observability counters for the event-driven socket front-end (the
/// socket-layer analogue of [`ShardStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AsyncIngressStats {
    /// Event-loop wakeups: [`endbox_netsim::net::PollGroup::poll`] calls
    /// summed over all poll groups. `datagrams / wakeups` is the
    /// amortisation the event loop achieved — the measured input to the
    /// timing-layer [`endbox_netsim::pipeline::AsyncFrontEndModel`].
    pub wakeups: u64,
    /// Pump rounds (one poll of every group + one receive call).
    pub rounds: u64,
    /// Wire datagrams drained from sockets into the datapath.
    pub datagrams: u64,
    /// Rounds in which at least one shard's budget ran out while its
    /// sockets still held data — the backpressure deferrals that keep one
    /// flooding peer from monopolising a dispatch. Never exceeds
    /// [`AsyncIngressStats::rounds`].
    pub deferred_rounds: u64,
    /// Bulk `recv_many` calls issued against registered sockets (each
    /// one "syscall"). `datagrams / io_calls` is the syscall
    /// amortisation the bulk transport achieved — the measured input to
    /// the timing-layer
    /// [`endbox_netsim::pipeline::SyscallBatchModel`]. A per-datagram
    /// front-end (`recv_bulk == 1`) pays roughly one call per datagram;
    /// a bulk one pays one per batch.
    pub io_calls: u64,
}

/// Default `recv_many` vector length: 32 datagrams per bulk call.
pub const DEFAULT_RECV_BULK: usize = 32;

/// The event-driven socket front-end: **one poll group per shard**, with
/// each peer's server-side socket registered in the group of the shard
/// that owns the peer ([`ShardedEndBoxServer::shard_of`]), so a poll
/// group only ever feeds its own shard. When a law moves a peer, its
/// socket follows (`AsyncFrontEnd::follow`).
///
/// Each [`AsyncFrontEnd::pump`] round polls every group, drains readable
/// sockets into an owned-datagram batch and hands the batch to
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
/// Shard queue depth propagates to socket read scheduling, by one law
/// with nothing to set: each round the aggregate
/// [`DEFAULT_SHARD_BUDGET`]` × C` is split over the poll groups in
/// proportion to their queued backlog, and a group's budget is taken
/// round-robin over its readable sockets in passes of at most each
/// socket's banked tokens (its fair share of the budget, carried over up
/// to a few rounds). A peer flooding its socket therefore yields to its
/// shard-mates every pass: the mates' traffic rides in every round while
/// the flood's tail stays queued in *its own* socket
/// ([`AsyncIngressStats::deferred_rounds`] counts these deferrals) — it
/// cannot starve the shard, and other shards' poll groups are untouched
/// by construction. A persistently hot group has its hottest movable
/// peer re-homed to the coldest group (socket registration **and** the
/// peer's shard state, quiesced and drained — see
/// [`ShardedEndBoxServer::remap_peer`]). Every decision lands at a
/// round boundary, so drained datagrams still re-merge into exact wire
/// order for any drain split.
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
    pub(super) groups: Vec<endbox_netsim::net::PollGroup>,
    /// Slot-indexed `(peer, socket)` registry; `Token(slot)` keys events.
    pub(super) sockets: Vec<(u64, endbox_netsim::net::UdpEndpoint)>,
    /// Slots registered per group, in registration order.
    pub(super) group_slots: Vec<Vec<usize>>,
    /// Each slot's position within its group's registration order
    /// (parallel to `sockets`; used to rotate the ready list fairly).
    slot_pos: Vec<usize>,
    /// Per-group round-robin cursor into `group_slots` (fairness across
    /// rounds: the next round starts scanning after the last drained
    /// socket).
    rr: Vec<usize>,
    /// Max datagrams moved per bulk `recv_many` call (the `recvmmsg`
    /// vector length).
    recv_bulk: usize,
    pub(super) rounds: u64,
    datagrams: u64,
    deferred_rounds: u64,
    io_calls: u64,
    /// The budget, token, remap and resize laws' state.
    pub(super) control: Control,
    /// Wakeups accumulated by poll groups retired across resizes, so
    /// [`AsyncIngressStats::wakeups`] stays monotonic through a resize.
    retired_wakeups: u64,
    /// The server's placement epoch the poll groups were last sorted by.
    epoch: u64,
    /// Per-round buffers, reused: one group's poll events, their slots,
    /// which of those ran dry, one bulk receive, and the round's drained
    /// datagrams.
    events: Vec<Event>,
    ready: Vec<usize>,
    dry: Vec<bool>,
    scratch: Vec<Datagram>,
    drained: Vec<(u64, u64, Vec<u8>)>,
}

impl AsyncFrontEnd {
    /// A front-end with one poll group per shard.
    pub fn new(shards: usize) -> AsyncFrontEnd {
        let shards = shards.max(1);
        AsyncFrontEnd {
            groups: (0..shards)
                .map(|_| endbox_netsim::net::PollGroup::new())
                .collect(),
            sockets: Vec::new(),
            group_slots: vec![Vec::new(); shards],
            slot_pos: Vec::new(),
            rr: vec![0; shards],
            recv_bulk: DEFAULT_RECV_BULK,
            rounds: 0,
            datagrams: 0,
            deferred_rounds: 0,
            io_calls: 0,
            control: Control::new(shards),
            retired_wakeups: 0,
            epoch: 0,
            events: Vec::new(),
            ready: Vec::new(),
            dry: Vec::new(),
            scratch: Vec::new(),
            drained: Vec::new(),
        }
    }

    /// Number of poll groups (== shards).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Registers `peer`'s server-side socket with the poll group of the
    /// shard owning a peer never moved (`peer mod C`).
    pub fn register_peer(&mut self, peer: u64, endpoint: endbox_netsim::net::UdpEndpoint) {
        let group = (peer % self.groups.len() as u64) as usize;
        let slot = self.sockets.len();
        self.groups[group].register(&endpoint, endbox_netsim::net::Token(slot));
        self.slot_pos.push(self.group_slots[group].len());
        self.group_slots[group].push(slot);
        self.sockets.push((peer, endpoint));
        self.control.add_slot();
    }

    /// Max datagrams moved per bulk `recv_many` call — the `recvmmsg`
    /// vector length. `1` degenerates to the per-datagram transport
    /// shape (one call per datagram); larger values amortise the
    /// syscall boundary over the batch. Drained datagrams and their
    /// dispatch order are **identical** at every setting (the bulk op
    /// is contractually equivalent to N singles); only
    /// [`AsyncIngressStats::io_calls`] moves.
    pub fn set_recv_bulk(&mut self, bulk: usize) {
        self.recv_bulk = bulk.max(1);
    }

    /// Sorts the poll groups by `server`'s placement: after a resize, one
    /// fresh group per shard (`resize_groups`); after a peer moved, its
    /// socket re-homed ([`AsyncFrontEnd::rehome_peer`]).
    /// [`AsyncFrontEnd::pump`] calls it first thing, so a relocation by
    /// any law — or by hand — is followed before the next poll.
    pub(crate) fn follow(&mut self, server: &ShardedEndBoxServer) {
        if self.groups.len() != server.shard_count() {
            self.resize_groups(server);
        } else if self.epoch != server.placement_epoch() {
            for slot in 0..self.sockets.len() {
                let peer = self.sockets[slot].0;
                self.rehome_peer(peer, server.shard_of(peer));
            }
        }
        self.epoch = server.placement_epoch();
    }

    /// Rebuilds the poll-group set to match `server`'s shard count after
    /// a resize: one fresh group per shard, every registered socket
    /// re-registered in the group of the shard that now owns its peer.
    ///
    /// Retired groups' wakeup counts are folded into
    /// [`AsyncFrontEnd::stats`] so the counter stays monotonic.
    fn resize_groups(&mut self, server: &ShardedEndBoxServer) {
        let new = server.shard_count();
        self.retired_wakeups += self.groups.iter().map(|g| g.wakeups()).sum::<u64>();
        self.groups = (0..new)
            .map(|_| endbox_netsim::net::PollGroup::new())
            .collect();
        self.group_slots = vec![Vec::new(); new];
        self.rr = vec![0; new];
        self.control.regroup(new);
        for (slot, (peer, endpoint)) in self.sockets.iter().enumerate() {
            let group = server.shard_of(*peer);
            self.groups[group].register(endpoint, endbox_netsim::net::Token(slot));
            self.slot_pos[slot] = self.group_slots[group].len();
            self.group_slots[group].push(slot);
        }
    }

    /// Moves `peer`'s socket registration from its current poll group to
    /// `new_group`, keeping registration order and the round-robin
    /// cursors consistent. The shard side of a re-home is
    /// [`ShardedEndBoxServer::remap_peer`]; `AsyncFrontEnd::follow`
    /// calls this for every peer a relocation moved, so a poll group
    /// keeps feeding exactly its own shard.
    ///
    /// # Panics
    ///
    /// If `new_group` is not a live poll group. Structural resizes make
    /// stale group indices reachable (a caller may hold an index from
    /// before a shrink); silently wrapping such an index modulo the live
    /// count would re-home the peer's socket to a group that does *not*
    /// feed the shard owning its reassembly state, so the front-end fails
    /// loudly instead.
    pub fn rehome_peer(&mut self, peer: u64, new_group: usize) {
        assert!(
            new_group < self.groups.len(),
            "rehome target group {new_group} is not live ({} poll groups)",
            self.groups.len()
        );
        let slot = self
            .sockets
            .iter()
            .position(|(p, _)| *p == peer)
            .expect("rehome of a registered peer");
        let old_group = (0..self.groups.len())
            .find(|&g| self.group_slots[g].contains(&slot))
            .expect("slot registered in a group");
        if old_group == new_group {
            return;
        }
        self.groups[old_group].deregister(endbox_netsim::net::Token(slot));
        self.groups[new_group].register(&self.sockets[slot].1, endbox_netsim::net::Token(slot));
        self.group_slots[old_group].retain(|&s| s != slot);
        self.group_slots[new_group].push(slot);
        for g in [old_group, new_group] {
            for (pos, &s) in self.group_slots[g].iter().enumerate() {
                self.slot_pos[s] = pos;
            }
            self.rr[g] %= self.group_slots[g].len().max(1);
        }
    }

    /// Front-end counters.
    pub fn stats(&self) -> AsyncIngressStats {
        AsyncIngressStats {
            wakeups: self.retired_wakeups + self.groups.iter().map(|g| g.wakeups()).sum::<u64>(),
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

    /// One event-loop round: follows any relocation, runs the control
    /// round, polls every group, drains readable sockets under the
    /// round's budgets, re-merges the drained datagrams into wire order
    /// and runs them through one
    /// [`ShardedEndBoxServer::receive_datagrams`] call. Returns one
    /// `(peer, result)` per drained datagram, in dispatch order; an empty
    /// vector means no socket was readable.
    pub fn pump(
        &mut self,
        server: &mut ShardedEndBoxServer,
    ) -> Vec<(u64, Result<Delivery, EndBoxError>)> {
        self.follow(server);
        // Closed-loop control, evaluated strictly at the round boundary
        // (before any socket is polled): resize, remap persistent hot
        // spots, then derive this round's per-group budgets from the
        // sampled queue depths.
        self.control_round(server);
        let mut deferred = false;
        for group in 0..self.groups.len() {
            self.events.clear();
            if self.groups[group].poll(&mut self.events) == 0 {
                continue;
            }
            // Drain only the sockets the poll just reported ready (the
            // event list is in registration order), rotated so scanning
            // resumes after the previous round's last service — each
            // wakeup costs O(ready sockets), not O(registered sockets).
            self.ready.clear();
            self.ready.extend(self.events.iter().map(|e| e.token.0));
            let group_len = self.group_slots[group].len().max(1);
            let cursor = self.rr[group] % group_len;
            let start = self
                .ready
                .iter()
                .position(|&slot| self.slot_pos[slot] >= cursor)
                .unwrap_or(0);
            let mut budget = self.control.grant(group);
            let fair = self.control.bank(&self.ready, budget);
            let mut last_drained = None;
            // Scheduling passes: round-robin over the ready sockets, at
            // most each socket's token allowance per pass, until the
            // budget is spent or every ready socket is dry. Each socket
            // is drained with bulk `recv_many` calls of up to `recv_bulk`
            // datagrams — the datagrams and their order are identical to
            // the per-datagram shape; only the call count changes. A
            // socket that returns short (`got < want`) is dry for the
            // rest of this round: later passes skip it instead of paying
            // a zero-yield `recv_many`, so `io_calls` counts only calls
            // that could have moved data.
            let ready = self.ready.len();
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
                    let quota = self.control.allowance(slot);
                    let (peer, ep) = &self.sockets[slot];
                    let mut taken = 0;
                    while taken < quota && budget > 0 {
                        let want = self.recv_bulk.min(quota - taken).min(budget);
                        self.scratch.clear();
                        let got = ep.recv_many(want, &mut self.scratch);
                        self.io_calls += 1;
                        for d in self.scratch.drain(..) {
                            self.drained.push((d.seq, *peer, d.payload));
                        }
                        taken += got;
                        budget -= got;
                        if got < want {
                            self.dry[idx] = true;
                            break; // socket dry until the next round
                        }
                    }
                    if taken > 0 {
                        drained_this_pass += taken;
                        last_drained = Some(self.slot_pos[slot]);
                        self.control.spend(slot, taken, fair);
                    }
                    if budget == 0 {
                        break;
                    }
                }
                if budget == 0 || drained_this_pass == 0 {
                    break;
                }
            }
            if let Some(pos) = last_drained {
                self.rr[group] = (pos + 1) % group_len;
            }
            let readable = |&slot: &usize| self.sockets[slot].1.readable();
            if budget == 0 && self.ready.iter().any(readable) {
                deferred = true;
            }
        }
        if self.drained.is_empty() {
            return Vec::new();
        }
        self.rounds += 1;
        self.datagrams += self.drained.len() as u64;
        if deferred {
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
