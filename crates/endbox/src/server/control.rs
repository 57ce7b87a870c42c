//! The control plane of the event-driven front-end: the per-socket
//! token buckets, the peer→shard remap law and the resize law, all
//! evaluated at round boundaries — before any socket is polled, so no
//! receive batch is in flight and every relocation's quiescence
//! requirement holds by construction. [`AsyncFrontEnd`] (sockets, the
//! poll group, the drain loop) calls in here once per round. (The
//! dispatch law, which both doorways run, sits with the sharded server.)
//!
//! Every law reads one signal: the per-socket queue depth, sampled once
//! per round into one per-slot vector (`Control::depth`). Placement is
//! read from the server ([`ShardedEndBoxServer::shard_of`]), never kept
//! here: shard demand and the remap candidate are that vector summed and
//! scanned by the peer's current shard, in slot order.

use super::frontend::{AsyncFrontEnd, DEFAULT_RECV_BULK};
use super::ShardedEndBoxServer;

/// Datagram budget per shard per pump round: a round may drain
/// `DEFAULT_SHARD_BUDGET × C`, which the token buckets split over the
/// ready sockets. Generous enough that ordinary traffic drains in one
/// round (so the event-driven results are byte-identical to a single
/// `receive_datagrams` call, in wire order); small enough to bound the
/// memory one dispatch can pin under flood.
pub const DEFAULT_SHARD_BUDGET: usize = 1024;

/// EWMA smoothing factor for the controller's per-shard demand signal
/// (same weighting as the dispatcher's `LOAD_EWMA_ALPHA`: recent rounds
/// dominate, one quiet round does not erase a hot spot).
const DEMAND_EWMA_ALPHA: f64 = 0.5;

/// A shard is *hot* when its smoothed demand exceeds this multiple of
/// the **other** shards' mean. Part of the control law, not a tuning
/// knob: carrying twice what everyone else averages is the smallest
/// imbalance a single-peer remap can meaningfully halve.
const REMAP_HOT_FACTOR: f64 = 2.0;

/// Consecutive hot rounds before the controller re-homes a peer — the
/// debounce that keeps one bursty round from triggering a remap whose
/// drain cost outweighs its benefit.
const REMAP_HOT_ROUNDS: u32 = 3;

/// Token-bucket cap in fair shares: a socket may bank at most this many
/// rounds' worth of unused fair share, bounding the burst a hot peer can
/// borrow from idle peers in a single round.
const TOKEN_BURST_SHARES: f64 = 4.0;

/// Smoothed backlog per shard the resize law sizes the server for: one
/// bulk receive's worth of queued work per shard per round is "full" —
/// less means capacity is idle, more means the server is behind demand.
pub const RESIZE_TARGET_DEMAND: f64 = DEFAULT_RECV_BULK as f64;

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

/// Hard ceiling on the shard count the law will grow to.
pub const RESIZE_MAX_SHARDS: usize = 8;

/// Snapshot of the control plane's actions, assembled by
/// [`AsyncFrontEnd::controller_stats`] from the front-end's budget and
/// token counters, the remap counters and the dispatch law. Each field
/// reconciles against an independent datapath counter (pinned in
/// `tests/adaptive_control.rs`): drained datagrams never exceed
/// `budget_grants`, `drained_partials` rides along `remaps`, and
/// `steals <= migrations`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControllerStats {
    /// Pump rounds that drained under a planned budget — every one of
    /// [`super::AsyncIngressStats::rounds`].
    pub budget_rounds: u64,
    /// Total datagram budget granted across those rounds:
    /// [`DEFAULT_SHARD_BUDGET`]` × C` per round that polled a ready
    /// socket. Always >= [`super::AsyncIngressStats::datagrams`].
    pub budget_grants: u64,
    /// Datagrams a socket drained in one pass beyond its fair share of
    /// the round budget — capacity the other sockets left unclaimed,
    /// banked in its token bucket or left over once they ran dry.
    pub tokens_borrowed: u64,
    /// Peers re-homed to a different shard by the remap law or by hand
    /// ([`ShardedEndBoxServer::remap_peer`]); their sockets stay put.
    pub remaps: u64,
    /// In-flight partial records drained along with those remaps.
    pub drained_partials: u64,
    /// Idle-shard peer steals by the dispatch law.
    pub steals: u64,
    /// Total dispatch-law migrations (rate-based rebalance + steals), so
    /// `steals <= migrations` by construction.
    pub migrations: u64,
}

/// The controller's state: what the laws remember between rounds, and
/// the per-round vectors they reuse instead of allocating.
#[derive(Debug, Default)]
pub(super) struct Control {
    /// Per-slot token buckets (fractional datagrams of drain allowance).
    tokens: Vec<f64>,
    /// Per-slot socket queue depth, read **once** per control round —
    /// the one signal every law below derives from.
    depth: Vec<usize>,
    /// `depth` summed by the shard owning each socket's peer.
    shard_depth: Vec<usize>,
    /// Registered sockets whose peer each shard owns.
    shard_sockets: Vec<usize>,
    /// Per-shard smoothed socket-backlog demand; its length is the shard
    /// count the per-shard vectors were last sized for.
    demand_ewma: Vec<f64>,
    /// Per-shard consecutive rounds above the hot threshold (remap
    /// debounce).
    hot_rounds: Vec<u32>,
    budget_grants: u64,
    tokens_borrowed: u64,
    /// Whether the resize law is armed
    /// ([`crate::scenario::ScenarioBuilder::elastic`]).
    elastic: bool,
    /// Consecutive control rounds demanding more shards than are live.
    grow_rounds: u32,
    /// Consecutive control rounds demanding fewer shards than are live.
    shrink_rounds: u32,
    /// Control rounds remaining before the resize law may fire again.
    resize_cooldown: u32,
}

impl Control {
    /// A socket was registered: it starts with an empty bucket.
    pub(super) fn add_slot(&mut self) {
        self.tokens.push(0.0);
        self.depth.push(0);
    }

    /// The shard count became `shards`: the demand signal is spread
    /// evenly over the new shards (signal continuity for the resize law
    /// — the cooldown covers re-learning) and the debounce restarts.
    fn regroup(&mut self, shards: usize) {
        let total_demand: f64 = self.demand_ewma.iter().sum();
        self.demand_ewma = vec![total_demand / shards as f64; shards];
        self.hot_rounds = vec![0; shards];
    }

    /// This round's budget at `shards` shards, accounted as granted.
    pub(super) fn grant(&mut self, shards: usize) -> usize {
        let budget = DEFAULT_SHARD_BUDGET * shards;
        self.budget_grants += budget as u64;
        budget
    }

    /// Token buckets: every ready socket banks its fair share of the
    /// round budget each round, capped at a few shares — a hot peer's
    /// per-pass allowance is its banked tokens, so it spends exactly
    /// what idle peers left unclaimed instead of a fixed per-socket
    /// quota. Returns the fair share.
    pub(super) fn bank(&mut self, ready: &[usize], budget: usize) -> f64 {
        let fair = (budget as f64 / ready.len() as f64).max(1.0);
        for &slot in ready {
            self.tokens[slot] = (self.tokens[slot] + fair).min(TOKEN_BURST_SHARES * fair);
        }
        fair
    }

    /// `slot`'s banked drain allowance for one scheduling pass, floored
    /// at one so a starved socket still makes progress every pass. The
    /// drain loop floors it again at the round's remaining budget split
    /// over the sockets still holding data, so once the banked tokens
    /// are spent the tail drains in full bulk calls, not one datagram
    /// per call.
    pub(super) fn allowance(&self, slot: usize) -> usize {
        self.tokens[slot].floor().max(1.0) as usize
    }

    /// `slot` drained `taken` datagrams in one pass; anything beyond the
    /// round's `fair` share was borrowed.
    pub(super) fn spend(&mut self, slot: usize, taken: usize, fair: f64) {
        self.tokens[slot] = (self.tokens[slot] - taken as f64).max(0.0);
        if taken as f64 > fair {
            self.tokens_borrowed += (taken as f64 - fair).ceil() as u64;
        }
    }
}

impl AsyncFrontEnd {
    /// Arms or disarms the resize law (`resize_round`);
    /// [`crate::scenario::ScenarioBuilder::elastic`] is the switch. Off
    /// by default.
    pub(crate) fn set_elastic(&mut self, on: bool) {
        self.control.elastic = on;
    }

    /// Assembles the full control-plane snapshot: this front-end's
    /// budget counters plus `server`'s remap and dispatch-law counters.
    pub fn controller_stats(&self, server: &ShardedEndBoxServer) -> ControllerStats {
        let (remaps, drained_partials) = server.remap_counters();
        ControllerStats {
            budget_rounds: self.rounds,
            budget_grants: self.control.budget_grants,
            tokens_borrowed: self.control.tokens_borrowed,
            remaps,
            drained_partials,
            steals: server.steals(),
            migrations: server.migrations(),
        }
    }

    /// One control round, run by [`AsyncFrontEnd::pump`] before it polls:
    /// sample every socket's depth, fold the per-shard sums into the
    /// demand EWMAs, and let the resize law (if armed) and then the remap
    /// law act on them.
    ///
    /// With one shard and the resize law unarmed there is nowhere to
    /// remap and nothing to resize, so the round returns before touching
    /// a socket — over the OS transport a depth probe is a `peek_from`
    /// syscall per socket.
    pub(super) fn control_round(&mut self, server: &mut ShardedEndBoxServer) {
        let shards = server.shard_count();
        if self.control.demand_ewma.len() != shards {
            self.control.regroup(shards);
        }
        if shards < 2 && !self.control.elastic {
            return;
        }
        for (depth, (_, endpoint)) in self.control.depth.iter_mut().zip(&self.sockets) {
            *depth = endpoint.pending();
        }
        self.sum_shard_depth(server);
        let control = &mut self.control;
        for (ewma, &demand) in control.demand_ewma.iter_mut().zip(&control.shard_depth) {
            *ewma = DEMAND_EWMA_ALPHA * demand as f64 + (1.0 - DEMAND_EWMA_ALPHA) * *ewma;
        }
        // The resize law sees the fresh demand signal first; when it
        // fires, the shard geometry the remap law would reason about no
        // longer exists, so the remap law resumes next round.
        if !(self.control.elastic && self.resize_round(server)) {
            self.remap_round(server);
        }
    }

    /// Sums the sampled per-slot depths, and counts the sockets, by the
    /// shard currently owning each socket's peer.
    fn sum_shard_depth(&mut self, server: &ShardedEndBoxServer) {
        let control = &mut self.control;
        let shards = control.demand_ewma.len();
        control.shard_depth.clear();
        control.shard_depth.resize(shards, 0);
        control.shard_sockets.clear();
        control.shard_sockets.resize(shards, 0);
        for (&depth, (peer, _)) in control.depth.iter().zip(&self.sockets) {
            let shard = server.shard_of(*peer);
            control.shard_depth[shard] += depth;
            control.shard_sockets[shard] += 1;
        }
    }

    /// One resize-law evaluation: size the server for
    /// [`RESIZE_TARGET_DEMAND`] smoothed backlog per shard, growing after
    /// [`RESIZE_GROW_ROUNDS`] consecutive rounds of excess demand and
    /// shrinking only after [`RESIZE_SHRINK_ROUNDS`] rounds of excess
    /// capacity, with a [`RESIZE_COOLDOWN_ROUNDS`]-round quiet period
    /// after every resize. A resize lands at a round boundary — quiesced
    /// by construction — so results stay byte-identical to any fixed
    /// geometry. Returns whether one fired.
    fn resize_round(&mut self, server: &mut ShardedEndBoxServer) -> bool {
        let k = server.shard_count();
        let control = &mut self.control;
        if control.resize_cooldown > 0 {
            control.resize_cooldown -= 1;
            return false;
        }
        let total: f64 = control.demand_ewma.iter().sum();
        let desired = ((total / RESIZE_TARGET_DEMAND).ceil() as usize).clamp(1, RESIZE_MAX_SHARDS);
        if desired > k {
            control.grow_rounds += 1;
            control.shrink_rounds = 0;
        } else if desired < k {
            control.shrink_rounds += 1;
            control.grow_rounds = 0;
        } else {
            control.grow_rounds = 0;
            control.shrink_rounds = 0;
            return false;
        }
        let fire = (desired > k && control.grow_rounds >= RESIZE_GROW_ROUNDS)
            || (desired < k && control.shrink_rounds >= RESIZE_SHRINK_ROUNDS);
        if !fire {
            return false;
        }
        control.grow_rounds = 0;
        control.shrink_rounds = 0;
        control.resize_cooldown = RESIZE_COOLDOWN_ROUNDS;
        server.resize(desired);
        control.regroup(desired);
        true
    }

    /// One remap-law evaluation: when one shard has stayed
    /// [`REMAP_HOT_FACTOR`]x above the other shards' mean for
    /// [`REMAP_HOT_ROUNDS`] consecutive rounds, re-home its hottest
    /// movable peer to the coldest shard.
    fn remap_round(&mut self, server: &mut ShardedEndBoxServer) {
        let control = &mut self.control;
        let k = control.demand_ewma.len();
        let sum = control.demand_ewma.iter().sum::<f64>();
        if k < 2 || sum <= 0.0 {
            return;
        }
        for g in 0..k {
            // Hot = carrying more than REMAP_HOT_FACTOR times what the
            // *other* shards average (against the overall mean a shard
            // could never qualify at small C: with two shards the
            // hottest possible share is exactly 2x the mean). A one-peer
            // shard has nothing left to shed — moving its only peer
            // would just relocate the hot spot.
            let others = (sum - control.demand_ewma[g]) / (k - 1) as f64;
            let hot = control.demand_ewma[g] > REMAP_HOT_FACTOR * others.max(1.0)
                && control.shard_sockets[g] >= 2;
            control.hot_rounds[g] = if hot { control.hot_rounds[g] + 1 } else { 0 };
        }
        let by_demand =
            |&a: &usize, &b: &usize| control.demand_ewma[a].total_cmp(&control.demand_ewma[b]);
        let Some(hot) = (0..k)
            .filter(|&g| control.hot_rounds[g] >= REMAP_HOT_ROUNDS)
            .max_by(by_demand)
        else {
            return;
        };
        let cold = (0..k).min_by(by_demand).expect("at least two shards");
        if cold == hot {
            return;
        }
        // Shed the *largest* peer that still fits in half the live gap:
        // moving more than that would overshoot and invert the imbalance
        // (the re-homed elephant makes the cold shard the new hot spot,
        // and the law would ping-pong it straight back). If no peer fits
        // — one monster session IS the backlog — skip; relocating it
        // would only relocate the hot spot.
        let half_gap = control.shard_depth[hot].saturating_sub(control.shard_depth[cold]) / 2;
        let Some((&moved, (peer, _))) = (control.depth.iter().zip(&self.sockets))
            .filter(|&(&depth, (peer, _))| server.shard_of(*peer) == hot && depth <= half_gap)
            .max_by_key(|&(&depth, _)| depth)
        else {
            return;
        };
        if moved == 0 {
            return;
        }
        control.hot_rounds[hot] = 0;
        // Shift the moved backlog between the demand estimates so the
        // law sees the remap's effect now instead of re-firing while the
        // EWMA catches up.
        control.demand_ewma[hot] = (control.demand_ewma[hot] - moved as f64).max(0.0);
        control.demand_ewma[cold] += moved as f64;
        server.remap_peer(*peer, cold);
    }
}
