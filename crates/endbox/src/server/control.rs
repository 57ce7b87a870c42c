//! The control plane of the event-driven front-end: the budget law, the
//! per-socket token buckets, the peer→shard remap law and the resize
//! law, all evaluated at round boundaries — before any socket is polled,
//! so no receive batch is in flight and every relocation's quiescence
//! requirement holds by construction. [`AsyncFrontEnd`] (sockets, poll
//! groups, the drain loop) calls in here once per round.
//!
//! Every law reads one signal: the per-socket queue depth, sampled once
//! per round into one per-slot vector (`Control::depth`). Group demand,
//! the remap candidate and the budgets are all derived from that vector.

use super::frontend::AsyncFrontEnd;
use super::{ShardedEndBoxServer, RX_DISPATCH_CHUNK};

/// Per-shard datagram budget per pump round when nothing is queued
/// unevenly: `DEFAULT_SHARD_BUDGET × K` is the aggregate the budget law
/// splits. Generous enough that ordinary traffic drains in one round (so
/// the event-driven results are byte-identical to a single
/// `receive_datagrams` call, in wire order); small enough to bound the
/// memory one dispatch can pin under flood.
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

/// Snapshot of the control plane's actions, assembled by
/// [`AsyncFrontEnd::controller_stats`] from the front-end's budget law,
/// the RX remap counters and the dispatcher. Each field reconciles
/// against an independent datapath counter (pinned in
/// `tests/adaptive_control.rs`): drained datagrams never exceed
/// `budget_grants`, `drained_partials` rides along `remaps`, and
/// `steals <= migrations`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControllerStats {
    /// Pump rounds that drained under a planned budget — every one of
    /// [`super::AsyncIngressStats::rounds`].
    pub budget_rounds: u64,
    /// Total datagram budget granted across those rounds (sum of the
    /// per-group demand-proportional budgets of every polled-ready
    /// group). Always >= [`super::AsyncIngressStats::datagrams`].
    pub budget_grants: u64,
    /// Datagrams a socket drained beyond its fair share of the group
    /// budget — capacity borrowed from idle shard-mates via the token
    /// buckets.
    pub tokens_borrowed: u64,
    /// Peers re-homed to a different RX shard (and poll group).
    pub remaps: u64,
    /// In-flight partial records drained along with those remaps.
    pub drained_partials: u64,
    /// Idle-worker session steals by the dispatcher.
    pub steals: u64,
    /// Total dispatcher migrations (rate-based rebalance + steals), so
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
    /// `depth` summed by poll group (re-summed after a relocation).
    group_depth: Vec<usize>,
    /// Per-group smoothed socket-backlog demand.
    demand_ewma: Vec<f64>,
    /// Per-group consecutive rounds above the hot threshold (remap
    /// debounce).
    hot_rounds: Vec<u32>,
    /// This round's per-group datagram budgets.
    budgets: Vec<usize>,
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
    pub(super) fn new(groups: usize) -> Control {
        Control {
            group_depth: vec![0; groups],
            demand_ewma: vec![0.0; groups],
            hot_rounds: vec![0; groups],
            budgets: vec![DEFAULT_SHARD_BUDGET; groups],
            ..Control::default()
        }
    }

    /// A socket was registered: it starts with an empty bucket.
    pub(super) fn add_slot(&mut self) {
        self.tokens.push(0.0);
        self.depth.push(0);
    }

    /// The poll-group set was rebuilt with `groups` groups: the demand
    /// signal is spread evenly over them (signal continuity for the
    /// resize law — the cooldown covers re-learning) and the debounce
    /// restarts.
    pub(super) fn regroup(&mut self, groups: usize) {
        let total_demand: f64 = self.demand_ewma.iter().sum();
        self.demand_ewma = vec![total_demand / groups as f64; groups];
        self.hot_rounds = vec![0; groups];
        self.budgets = vec![DEFAULT_SHARD_BUDGET; groups];
    }

    /// This round's budget for `group`, accounted as granted.
    pub(super) fn grant(&mut self, group: usize) -> usize {
        let budget = self.budgets[group];
        self.budget_grants += budget as u64;
        budget
    }

    /// Token buckets: every ready socket banks its fair share of the
    /// group budget each round, capped at a few shares — a hot peer's
    /// per-pass allowance is its banked tokens, so it spends exactly
    /// what idle shard-mates left unclaimed instead of a fixed
    /// per-socket quota. Returns the fair share.
    pub(super) fn bank(&mut self, ready: &[usize], budget: usize) -> f64 {
        let fair = (budget as f64 / ready.len() as f64).max(1.0);
        for &slot in ready {
            self.tokens[slot] = (self.tokens[slot] + fair).min(TOKEN_BURST_SHARES * fair);
        }
        fair
    }

    /// `slot`'s drain allowance for one scheduling pass: its banked
    /// tokens, floored at one so a starved socket still makes progress
    /// every pass.
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
    /// budget counters plus `server`'s remap and dispatcher counters.
    pub fn controller_stats(&self, server: &ShardedEndBoxServer) -> ControllerStats {
        let (remaps, drained_partials) = server.rx_remap_counters();
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
    /// sample every socket's depth, fold the group sums into the demand
    /// EWMAs, let the resize law (if armed) and then the remap law act
    /// on them, and plan this round's per-group budgets.
    ///
    /// With one poll group and the resize law unarmed there is nothing
    /// to split, nowhere to remap and nothing to resize, so the round
    /// returns before touching a socket — over the OS transport a depth
    /// probe is a `peek_from` syscall per socket — and the group's
    /// budget stays [`DEFAULT_SHARD_BUDGET`].
    pub(super) fn control_round(&mut self, server: &mut ShardedEndBoxServer) {
        if self.groups.len() < 2 && !self.control.elastic {
            return;
        }
        for (depth, (_, endpoint)) in self.control.depth.iter_mut().zip(&self.sockets) {
            *depth = endpoint.pending();
        }
        self.sum_group_depth();
        let control = &mut self.control;
        for (ewma, &demand) in control.demand_ewma.iter_mut().zip(&control.group_depth) {
            *ewma = DEMAND_EWMA_ALPHA * demand as f64 + (1.0 - DEMAND_EWMA_ALPHA) * *ewma;
        }
        // The resize law sees the fresh demand signal first; when it
        // fires, the group geometry the remap law would reason about no
        // longer exists, so the remap law resumes next round.
        let resized = self.control.elastic && self.resize_round(server);
        if resized || self.remap_round(server) {
            self.sum_group_depth();
        }
        self.plan_budgets();
    }

    /// Sums the sampled per-slot depths by (current) poll group.
    fn sum_group_depth(&mut self) {
        let sums = &mut self.control.group_depth;
        sums.clear();
        sums.extend(
            self.group_slots
                .iter()
                .map(|slots| slots.iter().map(|&s| self.control.depth[s]).sum::<usize>()),
        );
    }

    /// One resize-law evaluation: size the RX pool for
    /// [`RESIZE_TARGET_DEMAND`] smoothed backlog per shard, growing after
    /// [`RESIZE_GROW_ROUNDS`] consecutive rounds of excess demand and
    /// shrinking only after [`RESIZE_SHRINK_ROUNDS`] rounds of excess
    /// capacity, with a [`RESIZE_COOLDOWN_ROUNDS`]-round quiet period
    /// after every resize; workers track the shard count at
    /// [`RESIZE_WORKERS_PER_SHARD`] per shard. A resize lands at a round
    /// boundary — quiesced by construction — so results stay
    /// byte-identical to any fixed geometry. Returns whether one fired.
    fn resize_round(&mut self, server: &mut ShardedEndBoxServer) -> bool {
        let k = self.groups.len();
        let control = &mut self.control;
        if control.resize_cooldown > 0 {
            control.resize_cooldown -= 1;
            return false;
        }
        let total: f64 = control.demand_ewma.iter().sum();
        let desired = ((total / RESIZE_TARGET_DEMAND).ceil() as usize).clamp(1, RESIZE_MAX_RX);
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
        server.resize_rx_shards(desired);
        server.resize_workers(desired * RESIZE_WORKERS_PER_SHARD);
        self.resize_groups(server);
        true
    }

    /// One remap-law evaluation: when one group has stayed
    /// [`REMAP_HOT_FACTOR`]x above the other groups' mean for
    /// [`REMAP_HOT_ROUNDS`] consecutive rounds, re-home its hottest
    /// movable peer to the coldest group. Returns whether a peer moved.
    fn remap_round(&mut self, server: &mut ShardedEndBoxServer) -> bool {
        let k = self.groups.len();
        let control = &mut self.control;
        let sum = control.demand_ewma.iter().sum::<f64>();
        if k < 2 || sum <= 0.0 {
            return false;
        }
        for g in 0..k {
            // Hot = carrying more than REMAP_HOT_FACTOR times what the
            // *other* groups average (against the overall mean a group
            // could never qualify at small K: with two groups the
            // hottest possible share is exactly 2x the mean). A one-peer
            // group has nothing left to shed — moving its only peer
            // would just relocate the hot spot.
            let others = (sum - control.demand_ewma[g]) / (k - 1) as f64;
            let hot = control.demand_ewma[g] > REMAP_HOT_FACTOR * others.max(1.0)
                && self.group_slots[g].len() >= 2;
            control.hot_rounds[g] = if hot { control.hot_rounds[g] + 1 } else { 0 };
        }
        let by_demand =
            |&a: &usize, &b: &usize| control.demand_ewma[a].total_cmp(&control.demand_ewma[b]);
        let Some(hot) = (0..k)
            .filter(|&g| control.hot_rounds[g] >= REMAP_HOT_ROUNDS)
            .max_by(by_demand)
        else {
            return false;
        };
        let cold = (0..k).min_by(by_demand).expect("at least two groups");
        if cold == hot {
            return false;
        }
        // Shed the *largest* peer that still fits in half the live gap:
        // moving more than that would overshoot and invert the imbalance
        // (the re-homed elephant makes the cold group the new hot spot,
        // and the law would ping-pong it straight back). If no peer fits
        // — one monster session IS the backlog — skip; relocating it
        // would only relocate the hot spot.
        let half_gap = control.group_depth[hot].saturating_sub(control.group_depth[cold]) / 2;
        let Some(&slot) = self.group_slots[hot]
            .iter()
            .filter(|&&s| control.depth[s] <= half_gap)
            .max_by_key(|&&s| control.depth[s])
        else {
            return false;
        };
        let moved = control.depth[slot];
        if moved == 0 {
            return false;
        }
        control.hot_rounds[hot] = 0;
        // Shift the moved backlog between the demand estimates so the
        // law sees the remap's effect now instead of re-firing while the
        // EWMA catches up.
        control.demand_ewma[hot] = (control.demand_ewma[hot] - moved as f64).max(0.0);
        control.demand_ewma[cold] += moved as f64;
        let peer = self.sockets[slot].0;
        server.remap_rx_peer(peer, cold);
        self.rehome_peer(peer, cold);
        true
    }

    /// Demand-proportional per-group budgets for this round. Every group
    /// keeps a floor of one dispatch chunk (liveness); the rest of the
    /// aggregate capacity — `DEFAULT_SHARD_BUDGET * K` — is split
    /// proportionally to queued backlog, so a hot shard inherits exactly
    /// the headroom its idle shard-mates are not using.
    fn plan_budgets(&mut self) {
        let control = &mut self.control;
        let spread = (DEFAULT_SHARD_BUDGET - RX_DISPATCH_CHUNK) * control.group_depth.len();
        let total: usize = control.group_depth.iter().sum();
        control.budgets.clear();
        control
            .budgets
            .extend(control.group_depth.iter().map(|&demand| {
                if total == 0 {
                    DEFAULT_SHARD_BUDGET
                } else {
                    RX_DISPATCH_CHUNK
                        + (spread as f64 * demand as f64 / total as f64).round() as usize
                }
            }));
    }
}
