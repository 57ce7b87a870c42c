//! The control plane of the event-driven front-end: the resize law,
//! which sizes the shard pool. It acts at round boundaries — before any
//! socket is polled, so no receive batch is in flight and a resize's
//! quiescence requirement holds by construction. [`AsyncFrontEnd`]
//! (sockets, the poll group and the drain loop) calls in here once per
//! round. How much each socket drains is the drain loop's one rule, not
//! a law with state. Placement is not decided here: the dispatch law,
//! which both doorways run, sits with the sharded server and reads the
//! bytes it routed.
//!
//! The resize law reads one signal: the total socket backlog, sampled
//! once per round — and only while the law is armed, since over the OS
//! transport each socket's depth probe is a `peek_from` syscall.

use super::frontend::AsyncFrontEnd;
use super::ShardedEndBoxServer;

/// EWMA smoothing factor for the resize law's demand signal (same
/// weighting as the dispatcher's `LOAD_EWMA_ALPHA`: recent rounds
/// dominate, one quiet round does not erase a burst).
const DEMAND_EWMA_ALPHA: f64 = 0.5;

/// Smoothed backlog per shard the resize law sizes the server for: 32
/// queued datagrams per shard per round is "full" — less means capacity
/// is idle, more means the server is behind demand. Small against a
/// round's [`super::DEFAULT_SHARD_BUDGET`] of 1024 per shard, so the law
/// adds shards while each round still drains the whole backlog, before
/// backpressure has to defer anything.
pub const RESIZE_TARGET_DEMAND: f64 = 32.0;

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

/// The resize law's state: what it remembers between rounds.
#[derive(Debug, Default)]
pub(super) struct Control {
    /// Whether the resize law is armed
    /// ([`crate::scenario::ScenarioBuilder::elastic`]).
    pub(super) elastic: bool,
    /// Smoothed total socket backlog: the resize law's demand.
    demand_ewma: f64,
    /// Consecutive control rounds demanding more shards than are live.
    grow_rounds: u32,
    /// Consecutive control rounds demanding fewer shards than are live.
    shrink_rounds: u32,
    /// Control rounds remaining before the resize law may fire again.
    resize_cooldown: u32,
}

impl AsyncFrontEnd {
    /// Arms or disarms the resize law (`control_round`);
    /// [`crate::scenario::ScenarioBuilder::elastic`] is the switch. Off
    /// by default.
    pub(crate) fn set_elastic(&mut self, on: bool) {
        self.control.elastic = on;
    }

    /// One control round, run by [`AsyncFrontEnd::pump`] before it polls
    /// and only while the resize law is armed: fold the total socket
    /// backlog into the demand EWMA, then size the server for
    /// [`RESIZE_TARGET_DEMAND`] smoothed backlog per shard — growing
    /// after [`RESIZE_GROW_ROUNDS`] consecutive rounds of excess demand,
    /// shrinking only after [`RESIZE_SHRINK_ROUNDS`] rounds of excess
    /// capacity, with a [`RESIZE_COOLDOWN_ROUNDS`]-round quiet period
    /// after every resize. A resize lands at a round boundary — quiesced
    /// by construction — so results stay byte-identical to any fixed
    /// geometry.
    pub(super) fn control_round(&mut self, server: &mut ShardedEndBoxServer) {
        let backlog = self.backlog() as f64;
        let k = server.shard_count();
        let control = &mut self.control;
        control.demand_ewma =
            DEMAND_EWMA_ALPHA * backlog + (1.0 - DEMAND_EWMA_ALPHA) * control.demand_ewma;
        if control.resize_cooldown > 0 {
            control.resize_cooldown -= 1;
            return;
        }
        let desired = ((control.demand_ewma / RESIZE_TARGET_DEMAND).ceil() as usize)
            .clamp(1, RESIZE_MAX_SHARDS);
        if desired > k {
            control.grow_rounds += 1;
            control.shrink_rounds = 0;
        } else if desired < k {
            control.shrink_rounds += 1;
            control.grow_rounds = 0;
        } else {
            control.grow_rounds = 0;
            control.shrink_rounds = 0;
            return;
        }
        let fire = (desired > k && control.grow_rounds >= RESIZE_GROW_ROUNDS)
            || (desired < k && control.shrink_rounds >= RESIZE_SHRINK_ROUNDS);
        if !fire {
            return;
        }
        control.grow_rounds = 0;
        control.shrink_rounds = 0;
        control.resize_cooldown = RESIZE_COOLDOWN_ROUNDS;
        server.resize(desired);
    }
}
