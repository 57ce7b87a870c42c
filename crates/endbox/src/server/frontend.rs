//! The event-driven socket front-end of the sharded server
//! ([`AsyncFrontEnd`]) with its closed-loop controller: budgets, the
//! peer→shard remap law and the resize law, all evaluated at round
//! boundaries.

use super::{Delivery, ShardedEndBoxServer, RX_DISPATCH_CHUNK};
#[cfg(doc)]
use super::{RxShardPool, RxShardStats};
use crate::error::EndBoxError;
#[cfg(doc)]
use endbox_vpn::shard::DispatchPolicy;

/// Observability counters for the event-driven socket front-end (the
/// socket-layer analogue of [`RxShardStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AsyncIngressStats {
    /// Event-loop wakeups: [`endbox_netsim::net::PollGroup::poll`] calls
    /// summed over all poll groups. `datagrams / wakeups` is the
    /// amortisation the event loop achieved — the measured input to the
    /// timing-layer [`endbox_netsim::pipeline::AsyncFrontEndModel`].
    pub wakeups: u64,
    /// Pump rounds (one poll of every group + one pipelined dispatch).
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

/// Default per-socket drain quota per scheduling pass (matches
/// [`RX_DISPATCH_CHUNK`]: one pass contributes at most one dispatch chunk
/// per peer).
pub const DEFAULT_DRAIN_QUOTA: usize = RX_DISPATCH_CHUNK;

/// Default per-shard datagram budget per pump round. Generous enough that
/// ordinary traffic drains in one round (so the event-driven results are
/// byte-identical to a single `receive_datagrams` call, in wire order);
/// small enough to bound the memory one dispatch can pin under flood.
pub const DEFAULT_SHARD_BUDGET: usize = 1024;

/// EWMA smoothing factor for the controller's per-group demand signal
/// (same weighting as the dispatcher's `LOAD_EWMA_ALPHA`: recent rounds
/// dominate, one quiet round does not erase a hot spot).
const DEMAND_EWMA_ALPHA: f64 = 0.5;

/// A poll group is *hot* when its smoothed demand exceeds this multiple
/// of the **other** groups' mean. Part of the control law, not a tuning
/// knob: carrying twice what everyone else averages is the smallest
/// imbalance a single-peer remap can meaningfully halve.
const REMAP_HOT_FACTOR: f64 = 2.0;

/// Consecutive hot rounds before the controller re-homes a peer — the
/// debounce that keeps one bursty round from triggering a remap whose
/// drain cost outweighs its benefit.
const REMAP_HOT_ROUNDS: u32 = 3;

/// Token-bucket cap in fair shares: a socket may bank at most this many
/// rounds' worth of unused fair share, bounding the burst a hot peer can
/// borrow from idle shard-mates in a single round.
const TOKEN_BURST_SHARES: f64 = 4.0;

/// Smoothed backlog per RX shard the resize law sizes the pool for: one
/// dispatch chunk of queued work per shard per round is "full" — less
/// means capacity is idle, more means the pool is behind demand.
pub const RESIZE_TARGET_DEMAND: f64 = RX_DISPATCH_CHUNK as f64;

/// Consecutive rounds the demanded shard count must exceed the live one
/// before the law grows the pool (growth debounce).
pub const RESIZE_GROW_ROUNDS: u32 = 3;

/// Consecutive rounds of excess capacity before the law shrinks —
/// deliberately longer than the growth debounce (hysteresis: giving
/// capacity back is cheap to defer, falling behind is not).
pub const RESIZE_SHRINK_ROUNDS: u32 = 6;

/// Rounds after any resize during which the law stays quiet, so the
/// trace's noise cannot thrash the pool through repeated rehashes.
pub const RESIZE_COOLDOWN_ROUNDS: u32 = 8;

/// Hard ceiling on the RX shard count the law will grow to.
pub const RESIZE_MAX_RX: usize = 8;

/// Worker threads the law provisions per RX shard when it resizes.
pub const RESIZE_WORKERS_PER_SHARD: usize = 2;

/// Snapshot of the self-tuning control plane's actions, assembled by
/// [`AsyncFrontEnd::controller_stats`] from the front-end's budget
/// controller, the RX remap counters and the adaptive dispatcher. Each
/// field reconciles against an independent datapath counter (pinned in
/// `tests/adaptive_control.rs`): drained datagrams never exceed
/// `budget_grants`, `drained_partials` rides along `remaps`, and
/// `steals <= migrations`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControllerStats {
    /// Pump rounds the adaptive budget controller planned (subset of
    /// [`AsyncIngressStats::rounds`] — only rounds that drained count).
    pub budget_rounds: u64,
    /// Total datagram budget granted across those rounds (sum of the
    /// per-group demand-proportional budgets of every polled-ready
    /// group). Always >= [`AsyncIngressStats::datagrams`] drained while
    /// the controller was active.
    pub budget_grants: u64,
    /// Datagrams a socket drained beyond its fair share of the group
    /// budget — capacity borrowed from idle shard-mates via the token
    /// buckets.
    pub tokens_borrowed: u64,
    /// Peers re-homed to a different RX shard (and poll group).
    pub remaps: u64,
    /// In-flight partial records drained along with those remaps.
    pub drained_partials: u64,
    /// Idle-worker session steals by [`DispatchPolicy::Adaptive`].
    pub steals: u64,
    /// Total dispatcher migrations (rate-based rebalance + steals), so
    /// `steals <= migrations` by construction.
    pub migrations: u64,
}

/// The event-driven socket front-end: **one poll group per RX shard**,
/// with each peer's server-side socket registered in the group of the
/// shard that owns the peer's reassembly state (`peer_id mod K` — the
/// same map as [`RxShardPool`], so a poll group only ever feeds its own
/// shard).
///
/// Each [`AsyncFrontEnd::pump`] round polls every group, drains readable
/// sockets into an owned-datagram batch and hands the batch to
/// [`ShardedEndBoxServer::receive_datagrams`] — the zero-copy ingress
/// path: datagram ownership moves from the socket queue into the RX
/// shards without a wire-level copy.
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
/// Shard queue depth propagates to socket read scheduling: each round a
/// shard drains at most [`AsyncFrontEnd::set_shard_budget`] datagrams,
/// taken round-robin over its readable sockets in passes of at most
/// [`AsyncFrontEnd::set_drain_quota`] datagrams per socket. A peer
/// flooding its socket therefore yields to its shard-mates every pass:
/// the mates' traffic rides in every round while the flood's tail stays
/// queued in *its own* socket ([`AsyncIngressStats::deferred_rounds`]
/// counts these deferrals) — it cannot starve the shard, and other
/// shards' poll groups are untouched by construction.
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
///     .rx_shards(2)
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
    groups: Vec<endbox_netsim::net::PollGroup>,
    /// Slot-indexed `(peer, socket)` registry; `Token(slot)` keys events.
    sockets: Vec<(u64, endbox_netsim::net::UdpEndpoint)>,
    /// Slots registered per group, in registration order.
    group_slots: Vec<Vec<usize>>,
    /// Each slot's position within its group's registration order
    /// (parallel to `sockets`; used to rotate the ready list fairly).
    slot_pos: Vec<usize>,
    /// Per-group round-robin cursor into `group_slots` (fairness across
    /// rounds: the next round starts scanning after the last drained
    /// socket).
    rr: Vec<usize>,
    drain_quota: usize,
    shard_budget: usize,
    /// Max datagrams moved per bulk `recv_many` call (the `recvmmsg`
    /// vector length).
    recv_bulk: usize,
    rounds: u64,
    datagrams: u64,
    deferred_rounds: u64,
    io_calls: u64,
    /// Closed-loop controller switch ([`AsyncFrontEnd::set_adaptive`]).
    /// When off, the static knobs above govern and the drain path is
    /// byte-identical to earlier revisions.
    adaptive: bool,
    /// Per-slot token buckets (fractional datagrams of drain allowance;
    /// only consulted when `adaptive`).
    tokens: Vec<f64>,
    /// Per-group smoothed socket-backlog demand (the controller's load
    /// signal).
    demand_ewma: Vec<f64>,
    /// Per-group consecutive rounds above the hot threshold (remap
    /// debounce).
    hot_rounds: Vec<u32>,
    budget_rounds: u64,
    budget_grants: u64,
    tokens_borrowed: u64,
    /// Structural-elasticity switch ([`AsyncFrontEnd::set_elastic`]):
    /// when on (implies `adaptive`), the control round may resize the RX
    /// pool and worker pool themselves.
    elastic: bool,
    /// Consecutive control rounds demanding more shards than are live.
    grow_rounds: u32,
    /// Consecutive control rounds demanding fewer shards than are live.
    shrink_rounds: u32,
    /// Control rounds remaining before the resize law may fire again.
    resize_cooldown: u32,
    /// Wakeups accumulated by poll groups retired across resizes, so
    /// [`AsyncIngressStats::wakeups`] stays monotonic through a resize.
    retired_wakeups: u64,
}

impl AsyncFrontEnd {
    /// A front-end with one poll group per RX shard and the default
    /// drain quota / shard budget.
    pub fn new(rx_shards: usize) -> AsyncFrontEnd {
        let rx_shards = rx_shards.max(1);
        AsyncFrontEnd {
            groups: (0..rx_shards)
                .map(|_| endbox_netsim::net::PollGroup::new())
                .collect(),
            sockets: Vec::new(),
            group_slots: vec![Vec::new(); rx_shards],
            slot_pos: Vec::new(),
            rr: vec![0; rx_shards],
            drain_quota: DEFAULT_DRAIN_QUOTA,
            shard_budget: DEFAULT_SHARD_BUDGET,
            recv_bulk: DEFAULT_DRAIN_QUOTA,
            rounds: 0,
            datagrams: 0,
            deferred_rounds: 0,
            io_calls: 0,
            adaptive: false,
            tokens: Vec::new(),
            demand_ewma: vec![0.0; rx_shards],
            hot_rounds: vec![0; rx_shards],
            budget_rounds: 0,
            budget_grants: 0,
            tokens_borrowed: 0,
            elastic: false,
            grow_rounds: 0,
            shrink_rounds: 0,
            resize_cooldown: 0,
            retired_wakeups: 0,
        }
    }

    /// Number of poll groups (== RX shards).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Registers `peer`'s server-side socket with the poll group of the
    /// RX shard owning the peer (`peer mod K`).
    pub fn register_peer(&mut self, peer: u64, endpoint: endbox_netsim::net::UdpEndpoint) {
        let group = (peer % self.groups.len() as u64) as usize;
        let slot = self.sockets.len();
        self.groups[group].register(&endpoint, endbox_netsim::net::Token(slot));
        self.slot_pos.push(self.group_slots[group].len());
        self.group_slots[group].push(slot);
        self.sockets.push((peer, endpoint));
        self.tokens.push(0.0);
    }

    /// Per-socket datagrams drained per scheduling pass (fairness grain).
    pub fn set_drain_quota(&mut self, quota: usize) {
        self.drain_quota = quota.max(1);
    }

    /// Per-shard datagram budget per pump round (backpressure bound).
    pub fn set_shard_budget(&mut self, budget: usize) {
        self.shard_budget = budget.max(1);
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

    /// Switches the closed-loop controller on or off. When on, the
    /// static [`AsyncFrontEnd::set_drain_quota`] /
    /// [`AsyncFrontEnd::set_shard_budget`] knobs are superseded each
    /// round by demand-proportional shard budgets with per-socket token
    /// buckets, and a persistently hot poll group has its hottest peer
    /// re-homed to the coldest group (socket registration **and** RX
    /// reassembly state, quiesced and drained — see
    /// [`ShardedEndBoxServer::remap_rx_peer`]). Every decision lands at
    /// a round boundary, so drained datagrams still re-merge into exact
    /// wire order and results stay byte-identical to the static
    /// front-end for any drain split. Off by default.
    pub fn set_adaptive(&mut self, on: bool) {
        self.adaptive = on;
    }

    /// Whether the closed-loop controller is active.
    pub fn adaptive(&self) -> bool {
        self.adaptive
    }

    /// Switches structural elasticity on or off (implies
    /// [`AsyncFrontEnd::set_adaptive`] when enabled). When on, the
    /// control round also evaluates the resize law: it sizes the RX pool
    /// for [`RESIZE_TARGET_DEMAND`] smoothed backlog per shard, growing
    /// after [`RESIZE_GROW_ROUNDS`] consecutive rounds of excess demand
    /// and shrinking only after [`RESIZE_SHRINK_ROUNDS`] rounds of excess
    /// capacity, with a [`RESIZE_COOLDOWN_ROUNDS`]-round quiet period
    /// after every resize (hysteresis + cooldown so trace noise cannot
    /// thrash the pool). Workers track the shard count at
    /// [`RESIZE_WORKERS_PER_SHARD`] per shard. Every resize lands at a
    /// round boundary — quiesced by construction — so results stay
    /// byte-identical to any fixed geometry. Off by default.
    pub fn set_elastic(&mut self, on: bool) {
        self.elastic = on;
        if on {
            self.adaptive = true;
        }
    }

    /// Whether the resize law is armed.
    pub fn elastic(&self) -> bool {
        self.elastic
    }

    /// Rebuilds the poll-group set to match `server`'s RX shard count
    /// after a resize: one fresh group per shard, every registered socket
    /// re-registered in the group of the shard that now owns its peer.
    /// Callers that resize the server by hand while the event-driven
    /// front-end is attached must call this (the resize law does), or
    /// the one-group-per-shard invariant breaks at the next pump.
    ///
    /// Retired groups' wakeup counts are folded into
    /// [`AsyncFrontEnd::stats`] so the counter stays monotonic; the
    /// demand signal is spread evenly over the new groups (signal
    /// continuity for the law — the cooldown covers re-learning).
    pub fn resize_groups(&mut self, server: &ShardedEndBoxServer) {
        let new = server.rx_shard_count();
        let total_demand: f64 = self.demand_ewma.iter().sum();
        self.retired_wakeups += self.groups.iter().map(|g| g.wakeups()).sum::<u64>();
        self.groups = (0..new)
            .map(|_| endbox_netsim::net::PollGroup::new())
            .collect();
        self.group_slots = vec![Vec::new(); new];
        self.rr = vec![0; new];
        self.demand_ewma = vec![total_demand / new as f64; new];
        self.hot_rounds = vec![0; new];
        for (slot, (peer, endpoint)) in self.sockets.iter().enumerate() {
            let group = server.rx_shard_of(*peer);
            self.groups[group].register(endpoint, endbox_netsim::net::Token(slot));
            self.slot_pos[slot] = self.group_slots[group].len();
            self.group_slots[group].push(slot);
        }
    }

    /// One resize-law evaluation (armed by [`AsyncFrontEnd::set_elastic`]).
    /// Returns whether a resize fired this round; the remap law skips the
    /// rest of its round when one did, since the group geometry it was
    /// reasoning about no longer exists.
    fn resize_round(&mut self, server: &mut ShardedEndBoxServer) -> bool {
        if self.resize_cooldown > 0 {
            self.resize_cooldown -= 1;
            return false;
        }
        let k = self.groups.len();
        let total: f64 = self.demand_ewma.iter().sum();
        let desired = ((total / RESIZE_TARGET_DEMAND).ceil() as usize).clamp(1, RESIZE_MAX_RX);
        if desired > k {
            self.grow_rounds += 1;
            self.shrink_rounds = 0;
        } else if desired < k {
            self.shrink_rounds += 1;
            self.grow_rounds = 0;
        } else {
            self.grow_rounds = 0;
            self.shrink_rounds = 0;
            return false;
        }
        let fire = (desired > k && self.grow_rounds >= RESIZE_GROW_ROUNDS)
            || (desired < k && self.shrink_rounds >= RESIZE_SHRINK_ROUNDS);
        if !fire {
            return false;
        }
        self.grow_rounds = 0;
        self.shrink_rounds = 0;
        self.resize_cooldown = RESIZE_COOLDOWN_ROUNDS;
        server.resize_rx_shards(desired);
        server.resize_workers(desired * RESIZE_WORKERS_PER_SHARD);
        self.resize_groups(server);
        true
    }

    /// Assembles the full control-plane snapshot: this front-end's
    /// budget counters plus `server`'s remap and dispatcher counters.
    pub fn controller_stats(&self, server: &ShardedEndBoxServer) -> ControllerStats {
        let (remaps, drained_partials) = server.rx_remap_counters();
        ControllerStats {
            budget_rounds: self.budget_rounds,
            budget_grants: self.budget_grants,
            tokens_borrowed: self.tokens_borrowed,
            remaps,
            drained_partials,
            steals: server.steals(),
            migrations: server.migrations(),
        }
    }

    /// Moves `peer`'s socket registration from its current poll group to
    /// `new_group`, keeping registration order and the round-robin
    /// cursors consistent. The RX-shard side of a re-home is
    /// [`ShardedEndBoxServer::remap_rx_peer`]; callers do both (the
    /// controller does, and so must tests driving remaps by hand) so a
    /// poll group keeps feeding exactly its own shard.
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

    /// One control-law evaluation at the round boundary: fold each
    /// group's queued socket backlog into its demand EWMA; when one
    /// group has stayed [`REMAP_HOT_FACTOR`]x above the cross-group mean
    /// for [`REMAP_HOT_ROUNDS`] consecutive rounds, re-home its hottest
    /// peer to the coldest group. Runs before any socket is polled, so
    /// no receive batch is in flight — the remap's quiescence
    /// requirement holds by construction.
    fn control_round(&mut self, server: &mut ShardedEndBoxServer) {
        let k = self.groups.len();
        for g in 0..k {
            let demand: usize = self.group_slots[g]
                .iter()
                .map(|&s| self.sockets[s].1.pending())
                .sum();
            self.demand_ewma[g] =
                DEMAND_EWMA_ALPHA * demand as f64 + (1.0 - DEMAND_EWMA_ALPHA) * self.demand_ewma[g];
        }
        // The resize law sees the fresh demand signal first; when it
        // fires, the group geometry the remap law would reason about no
        // longer exists, so the remap law resumes next round.
        if self.elastic && self.resize_round(server) {
            return;
        }
        let k = self.groups.len();
        if k < 2 {
            return;
        }
        let sum = self.demand_ewma.iter().sum::<f64>();
        if sum <= 0.0 {
            return;
        }
        for g in 0..k {
            // Hot = carrying more than REMAP_HOT_FACTOR times what the
            // *other* groups average (against the overall mean a group
            // could never qualify at small K: with two groups the
            // hottest possible share is exactly 2x the mean). A one-peer
            // group has nothing left to shed — moving its only peer
            // would just relocate the hot spot.
            let others = (sum - self.demand_ewma[g]) / (k - 1) as f64;
            let hot = self.demand_ewma[g] > REMAP_HOT_FACTOR * others.max(1.0)
                && self.group_slots[g].len() >= 2;
            self.hot_rounds[g] = if hot { self.hot_rounds[g] + 1 } else { 0 };
        }
        let Some(hot) = (0..k)
            .filter(|&g| self.hot_rounds[g] >= REMAP_HOT_ROUNDS)
            .max_by(|&a, &b| self.demand_ewma[a].total_cmp(&self.demand_ewma[b]))
        else {
            return;
        };
        let cold = (0..k)
            .min_by(|&a, &b| self.demand_ewma[a].total_cmp(&self.demand_ewma[b]))
            .expect("at least two groups");
        if cold == hot {
            return;
        }
        // Shed the *largest* peer that still fits in half the live gap:
        // moving more than that would overshoot and invert the imbalance
        // (the re-homed elephant makes the cold group the new hot spot,
        // and the law would ping-pong it straight back). If no peer fits
        // — one monster session IS the backlog — skip; relocating it
        // would only relocate the hot spot.
        let live = |g: usize| -> usize {
            self.group_slots[g]
                .iter()
                .map(|&s| self.sockets[s].1.pending())
                .sum()
        };
        let half_gap = live(hot).saturating_sub(live(cold)) / 2;
        let Some(&slot) = self.group_slots[hot]
            .iter()
            .filter(|&&s| self.sockets[s].1.pending() <= half_gap)
            .max_by_key(|&&s| self.sockets[s].1.pending())
        else {
            return;
        };
        let moved = self.sockets[slot].1.pending();
        if moved == 0 {
            return;
        }
        let peer = self.sockets[slot].0;
        server.remap_rx_peer(peer, cold);
        self.rehome_peer(peer, cold);
        self.hot_rounds[hot] = 0;
        // Shift the moved backlog between the demand estimates so the
        // law sees the remap's effect now instead of re-firing while the
        // EWMA catches up.
        self.demand_ewma[hot] = (self.demand_ewma[hot] - moved as f64).max(0.0);
        self.demand_ewma[cold] += moved as f64;
    }

    /// Demand-proportional per-group budgets for this round. Every group
    /// keeps a floor of one dispatch chunk (liveness); the rest of the
    /// aggregate capacity — `DEFAULT_SHARD_BUDGET * K`, the same total
    /// the static knobs grant — is split proportionally to queued
    /// backlog, so a hot shard inherits exactly the headroom its idle
    /// shard-mates are not using.
    fn plan_budgets(&self) -> Vec<usize> {
        let k = self.groups.len();
        let spread = (DEFAULT_SHARD_BUDGET * k).saturating_sub(RX_DISPATCH_CHUNK * k);
        let demand: Vec<usize> = (0..k)
            .map(|g| {
                self.group_slots[g]
                    .iter()
                    .map(|&s| self.sockets[s].1.pending())
                    .sum()
            })
            .collect();
        let total: usize = demand.iter().sum();
        (0..k)
            .map(|g| {
                if total == 0 {
                    DEFAULT_SHARD_BUDGET
                } else {
                    RX_DISPATCH_CHUNK
                        + (spread as f64 * demand[g] as f64 / total as f64).round() as usize
                }
            })
            .collect()
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

    /// One event-loop round: polls every group, drains readable sockets
    /// under the fairness quota and shard budget, re-merges the drained
    /// datagrams into wire order and runs them through one pipelined
    /// [`ShardedEndBoxServer::receive_datagrams`] dispatch. Returns one
    /// `(peer, result)` per drained datagram, in dispatch order; an empty
    /// vector means no socket was readable.
    pub fn pump(
        &mut self,
        server: &mut ShardedEndBoxServer,
    ) -> Vec<(u64, Result<Delivery, EndBoxError>)> {
        debug_assert_eq!(
            self.groups.len(),
            server.rx_shard_count(),
            "one poll group per RX shard"
        );
        // Closed-loop control, evaluated strictly at the round boundary
        // (before any socket is polled): remap persistent hot spots,
        // then derive this round's per-group budgets from live queue
        // depth. `None` = static knobs in force, drain path unchanged.
        let budgets = if self.adaptive {
            self.control_round(server);
            Some(self.plan_budgets())
        } else {
            None
        };
        let mut drained: Vec<(u64, u64, Vec<u8>)> = Vec::new(); // (seq, peer, payload)
        let mut deferred = false;
        let mut events = Vec::new();
        for group in 0..self.groups.len() {
            events.clear();
            if self.groups[group].poll(&mut events) == 0 {
                continue;
            }
            // Drain only the sockets the poll just reported ready (the
            // event list is in registration order), rotated so scanning
            // resumes after the previous round's last service — each
            // wakeup costs O(ready sockets), not O(registered sockets).
            let ready: Vec<usize> = events.iter().map(|e| e.token.0).collect();
            let group_len = self.group_slots[group].len().max(1);
            let cursor = self.rr[group] % group_len;
            let start = ready
                .iter()
                .position(|&slot| self.slot_pos[slot] >= cursor)
                .unwrap_or(0);
            let mut budget = match &budgets {
                Some(b) => {
                    self.budget_grants += b[group] as u64;
                    b[group]
                }
                None => self.shard_budget,
            };
            // Token buckets (adaptive only): every ready socket banks its
            // fair share of the group budget each round, capped at a few
            // shares — a hot peer's per-pass allowance is its banked
            // tokens, so it spends exactly what idle shard-mates left
            // unclaimed instead of a fixed per-socket quota.
            let fair = if budgets.is_some() {
                let fair = (budget as f64 / ready.len() as f64).max(1.0);
                for &slot in &ready {
                    self.tokens[slot] = (self.tokens[slot] + fair).min(TOKEN_BURST_SHARES * fair);
                }
                fair
            } else {
                0.0
            };
            let mut last_drained = None;
            // Scheduling passes: round-robin over the ready sockets, at
            // most `drain_quota` per socket per pass, until the budget is
            // spent or every ready socket is dry. Each socket is drained
            // with bulk `recv_many` calls of up to `recv_bulk` datagrams
            // — the datagrams and their order are identical to the
            // per-datagram shape; only the call count changes. A socket
            // that returns short (`got < want`) is dry for the rest of
            // this round: later passes skip it instead of paying a
            // zero-yield `recv_many`, so `io_calls` counts only calls
            // that could have moved data.
            let mut scratch: Vec<endbox_netsim::net::Datagram> = Vec::new();
            let mut dry = vec![false; ready.len()];
            loop {
                let mut drained_this_pass = 0usize;
                for i in 0..ready.len() {
                    let idx = (start + i) % ready.len();
                    if dry[idx] {
                        continue;
                    }
                    let slot = ready[idx];
                    let quota = if budgets.is_some() {
                        // Allowance = banked tokens, floored at one so a
                        // starved socket still makes progress every pass.
                        self.tokens[slot].floor().max(1.0) as usize
                    } else {
                        self.drain_quota
                    };
                    let (peer, ep) = &self.sockets[slot];
                    let mut taken = 0;
                    while taken < quota && budget > 0 {
                        let want = self.recv_bulk.min(quota - taken).min(budget);
                        scratch.clear();
                        let got = ep.recv_many(want, &mut scratch);
                        self.io_calls += 1;
                        for d in scratch.drain(..) {
                            drained.push((d.seq, *peer, d.payload));
                        }
                        taken += got;
                        budget -= got;
                        if got < want {
                            dry[idx] = true;
                            break; // socket dry until the next round
                        }
                    }
                    if taken > 0 {
                        drained_this_pass += taken;
                        last_drained = Some(self.slot_pos[slot]);
                        if budgets.is_some() {
                            self.tokens[slot] = (self.tokens[slot] - taken as f64).max(0.0);
                            if taken as f64 > fair {
                                self.tokens_borrowed += (taken as f64 - fair).ceil() as u64;
                            }
                        }
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
            if budget == 0 && ready.iter().any(|&slot| self.sockets[slot].1.readable()) {
                deferred = true;
            }
        }
        if drained.is_empty() {
            return Vec::new();
        }
        self.rounds += 1;
        if budgets.is_some() {
            self.budget_rounds += 1;
        }
        self.datagrams += drained.len() as u64;
        if deferred {
            self.deferred_rounds += 1;
        }
        // Re-merge into wire order (the stamp sort is total, so per-peer
        // FIFO order is preserved exactly).
        drained.sort_unstable_by_key(|&(seq, _, _)| seq);
        let peers: Vec<u64> = drained.iter().map(|&(_, peer, _)| peer).collect();
        let batch: Vec<(u64, Vec<u8>)> = drained
            .into_iter()
            .map(|(_, peer, payload)| (peer, payload))
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
