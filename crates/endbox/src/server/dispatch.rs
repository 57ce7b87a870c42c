//! The sharded server ([`ShardedEndBoxServer`]): `C` run-to-completion
//! shards on one `OwnerPool`, the front-end that feeds them and re-merges
//! what they did, and the dispatch law that places peers on them.

use super::rx::{
    shard_loop, Escalate, Escalated, Outcome, Reply, Request, Resolution, Shard, ShardStats,
};
#[cfg(doc)]
use super::EndBoxServer;
use super::{Delivery, EndBoxServerConfig, Server, ServerIo, ShardSessions};
use crate::error::EndBoxError;
use endbox_vpn::pool::OwnerPool;
use endbox_vpn::server::VpnServer;
use endbox_vpn::shard::{ConfigPolicy, ShardEvent};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Decay factor of the per-shard / per-peer load EWMAs (the weight of the
/// newest call).
const LOAD_EWMA_ALPHA: f64 = 0.5;

/// Floor of the migration threshold: one MTU-sized packet. Below this a
/// "gap" is a single packet of jitter, not an imbalance — it is a
/// physical unit, not a tuning knob (the threshold itself is the measured
/// mean shard rate).
const MIN_IMBALANCE_BYTES: f64 = 1_500.0;

/// A shard is *hot* when its byte EWMA exceeds this multiple of the
/// **other** shards' mean (floored at one MTU). Part of the law, not a
/// tuning knob: carrying twice what everyone else averages is the
/// smallest imbalance a single-peer move can meaningfully halve.
const HOT_FACTOR: f64 = 2.0;

/// Consecutive receive calls a shard must stay hot before the law sheds
/// a peer from it on that ground alone — the debounce that keeps peers
/// taking turns from ping-ponging between shards.
const HOT_CALLS: u32 = 3;

/// A shard whose byte EWMA has decayed below one byte is idle for the
/// purposes of work stealing (the EWMA halves every call, so any real
/// traffic keeps it far above this).
const IDLE_EWMA: f64 = 1.0;

/// Observability counters for structural elasticity: every online grow
/// or shrink of the shard count, and the state that moved across them.
/// Reconciles with the datapath — a resize never loses or duplicates a
/// record (pinned by `tests/elastic_resize.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResizeStats {
    /// Grow operations (`C` increased).
    pub grows: u64,
    /// Shrink operations (`C` decreased; the retiring shards handed
    /// their peers over before their threads exited).
    pub shrinks: u64,
    /// Peers that moved to another shard across all resizes.
    pub peers_moved: u64,
    /// In-flight partial records that rode along inside moved
    /// reassemblers.
    pub partials_drained: u64,
    /// Sessions that moved with their peers.
    pub sessions_moved: u64,
}

/// One peer as the front-end places it.
struct Slot {
    shard: usize,
    /// EWMA of the bytes the peer sent per call while it had a bound
    /// session.
    load: f64,
    /// Bytes routed in the current call, folded in by `settle`.
    pending: u64,
    /// Sessions bound to the peer.
    sessions: u32,
}

/// The sharded server's stage: the shard threads, where every peer lives,
/// which peer every bound session lives with, and what the front-end
/// counts. (Public only because the server's type names it.)
pub struct Shards {
    pool: OwnerPool<Request, Reply>,
    /// Per-shard stall hooks ([`ShardedEndBoxServer::set_stall_micros`]).
    /// A thread picks its own up when it starts, so an entry exists
    /// before its thread does.
    stalls: Arc<Mutex<Vec<Arc<AtomicU64>>>>,
    /// Every peer ever routed: shard `peer mod C` when first seen, until
    /// a law moves it.
    peers: HashMap<u64, Slot>,
    /// EWMA of routed bytes per shard.
    shard_load: Vec<f64>,
    /// Per shard, consecutive calls it has been hot (see [`HOT_FACTOR`]).
    hot_calls: Vec<u32>,
    /// Bound sessions and their peers. Unbound ones wait in the
    /// front-end's `VpnServer`.
    bound: HashMap<u64, u64>,
    records_merged: u64,
    escalations: u64,
    migrations: u64,
    steals: u64,
    resize: ResizeStats,
}

/// The sharded EndBox server: **`C` run-to-completion shards**. Shard
/// `peer mod C` — or the shard a law moved the peer to — owns the peer's
/// reassembly state and every session bound to the peer, and runs the
/// frame and open steps over the peer's datagrams in input order. The
/// front-end keeps the input-index re-merge, the deliver step, the
/// handshake responder, every session's send half (egress is sealed on
/// the calling thread) and the laws.
///
/// # Parity with [`EndBoxServer`]
///
/// [`ShardedEndBoxServer::receive_datagrams`] returns exactly one
/// [`Delivery`] result per input datagram, **in input order**, for any
/// `C` and any thread schedule, byte-identical to the single-threaded
/// reference. Three rules carry that:
///
/// 1. *Sessions bind to a peer.* A new session waits unbound on the
///    front-end until its first authenticated record binds it to that
///    record's peer, and then lives on the peer's shard. A record naming
///    a session that is neither on its shard nor possibly unbound is
///    rejected there.
/// 2. *Escalation in input order.* A shard that frames a handshake, or a
///    record for a session that may be unbound, hands it to the
///    front-end and waits. The front-end answers the lowest-index waiting
///    record once every shard with work is waiting or done, so session
///    ids and bindings are assigned in input order.
/// 3. *One relocation.* `migrate` moves a peer's reassembler together
///    with its bound sessions, between receive batches only. The
///    dispatch law, the resize law and the manual
///    [`ShardedEndBoxServer::remap_peer`] hook all call it.
///
/// A call with no escalated record costs one request to, and one reply
/// from, each shard that has datagrams.
///
/// The sharded server has no server-side Click instance: that attachment
/// exists only for the centralised OpenVPN+Click baseline, which the
/// sharded EndBox deployment replaces.
pub type ShardedEndBoxServer = Server<Shards>;

impl std::fmt::Debug for ShardedEndBoxServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEndBoxServer")
            .field("shards", &self.rx.pool.len())
            .field("sessions", &self.session_count())
            .field("delivered", &self.delivered)
            .finish()
    }
}

impl Shards {
    fn new(shards: usize, cfg: &EndBoxServerConfig) -> Shards {
        let stalls: Arc<Mutex<Vec<Arc<AtomicU64>>>> = Arc::default();
        let (meter, cost, table) = (cfg.meter.clone(), cfg.cost.clone(), stalls.clone());
        let pool = OwnerPool::new("endbox-shard", 0, move |index, requests, replies| {
            let stall = table.lock().expect("no holder panics")[index].clone();
            shard_loop(index, Shard::new(&meter, &cost), requests, replies, &stall)
        });
        let mut stage = Shards {
            pool,
            stalls,
            peers: HashMap::new(),
            shard_load: Vec::new(),
            hot_calls: Vec::new(),
            bound: HashMap::new(),
            records_merged: 0,
            escalations: 0,
            migrations: 0,
            steals: 0,
            resize: ResizeStats::default(),
        };
        stage.set_threads(shards.max(1), ConfigPolicy::default());
        stage
    }

    /// Retires or spawns tail threads until `shards` run; a new thread
    /// starts with a cleared stall hook and `policy`. Retiring threads
    /// must have handed their peers over first.
    fn set_threads(&mut self, shards: usize, policy: ConfigPolicy) {
        let old = self.pool.len();
        self.pool.shrink(old.saturating_sub(shards));
        self.stalls
            .lock()
            .expect("no holder panics")
            .resize_with(shards, Arc::default);
        self.pool.grow(shards.saturating_sub(old));
        for shard in old..shards {
            self.pool.send(shard, Request::Policy(policy));
        }
        self.shard_load.resize(shards, 0.0);
        // The other shards' mean just changed: the debounce restarts.
        self.hot_calls.clear();
        self.hot_calls.resize(shards, 0);
    }

    fn shard_of(&self, peer: u64) -> usize {
        self.peers
            .get(&peer)
            .map_or((peer % self.pool.len() as u64) as usize, |slot| slot.shard)
    }

    /// `peer`'s slot, placed at `peer mod C` when first seen.
    fn slot(&mut self, peer: u64) -> &mut Slot {
        let shards = self.pool.len() as u64;
        self.peers.entry(peer).or_insert_with(|| Slot {
            shard: (peer % shards) as usize,
            load: 0.0,
            pending: 0,
            sessions: 0,
        })
    }

    /// The shard `bytes` from `peer` go to, noted as this call's bytes.
    fn route(&mut self, peer: u64, bytes: usize) -> usize {
        let slot = self.slot(peer);
        slot.pending += bytes as u64;
        slot.shard
    }

    /// Folds one call's routed bytes into the load EWMAs (all entries
    /// decay, the routed ones gain). Only a peer with a bound session
    /// gains: bytes from one without — a handshake, a stranger's garbage
    /// — place nothing.
    fn settle(&mut self) {
        for load in &mut self.shard_load {
            *load *= 1.0 - LOAD_EWMA_ALPHA;
        }
        for slot in self.peers.values_mut() {
            let bound = if slot.sessions > 0 { slot.pending } else { 0 };
            let gained = bound as f64 * LOAD_EWMA_ALPHA;
            slot.load = slot.load * (1.0 - LOAD_EWMA_ALPHA) + gained;
            self.shard_load[slot.shard] += gained;
            slot.pending = 0;
        }
    }

    /// Binds `session_id` to `peer`.
    fn bind(&mut self, session_id: u64, peer: u64) {
        self.bound.insert(session_id, peer);
        self.slot(peer).sessions += 1;
    }

    /// Forgets a bound session that ended; `false` if it was not bound.
    fn unbind(&mut self, session_id: u64) -> bool {
        let Some(peer) = self.bound.remove(&session_id) else {
            return false;
        };
        self.slot(peer).sessions -= 1;
        true
    }

    /// Moves `peer` to shard `to` — its reassembler together with every
    /// session bound to it — and returns `(partial records, sessions)`
    /// that rode along. The only function that moves a peer. Only called
    /// between receive batches: the extract round trip is the quiesce
    /// point (when it returns, the old shard has processed every datagram
    /// it was ever given for the peer), and the install is queued ahead
    /// of any later one, so the peer's record stream is byte-identical to
    /// the peer having lived on `to` all along.
    fn migrate(&mut self, peer: u64, to: usize) -> (usize, usize) {
        let from = self.slot(peer).shard;
        let Reply::Peer(state) = self.pool.round_trip(from, Request::Extract(peer)) else {
            unreachable!("no receive batch or query is in flight during a relocation")
        };
        let moved = state.contents();
        self.pool.send(to, Request::Install(peer, state));
        let slot = self.slot(peer);
        slot.shard = to;
        let load = slot.load;
        self.shard_load[from] -= load;
        self.shard_load[to] += load;
        moved
    }

    /// The dispatch law, run at every receive call's boundary — the only
    /// law that moves a peer for balance. The hottest shard sheds a peer
    /// to the coldest on either of two triggers over the byte EWMAs:
    ///
    /// * *gap*: the hot–cold gap exceeds the measured mean per-shard
    ///   rate (floored at one MTU packet) — a fast, bursty imbalance;
    /// * *persistence*: the shard has stayed [`HOT_FACTOR`]x above the
    ///   other shards' mean for [`HOT_CALLS`] consecutive calls — a
    ///   steady imbalance too small for the gap to see (at two shards a
    ///   2.7x hot spot leaves the gap under the mean).
    ///
    /// Each time, the heaviest peer that fits in half the gap moves hot →
    /// cold — at most one move per shard, a structural bound — then idle
    /// shards steal. A candidate must satisfy `2 * load <= gap`, so the
    /// gap strictly shrinks and a single dominant peer never moves: the
    /// law cannot ping-pong it between shards.
    fn rebalance(&mut self) {
        let shards = self.pool.len();
        if shards < 2 {
            return;
        }
        let sum = self.shard_load.iter().sum::<f64>();
        for (s, &load) in self.shard_load.iter().enumerate() {
            // Against the *other* shards' mean: against the overall mean
            // no shard could qualify at C = 2, where the hottest possible
            // share is exactly twice the mean.
            let others = (sum - load) / (shards - 1) as f64;
            let runs_hot = load > HOT_FACTOR * others.max(MIN_IMBALANCE_BYTES);
            self.hot_calls[s] = if runs_hot { self.hot_calls[s] + 1 } else { 0 };
        }
        let threshold = (sum / shards as f64).max(MIN_IMBALANCE_BYTES);
        for _ in 0..shards {
            let (mut hot, mut cold) = (0usize, 0usize);
            for s in 1..shards {
                if self.shard_load[s] > self.shard_load[hot] {
                    hot = s;
                }
                if self.shard_load[s] < self.shard_load[cold] {
                    cold = s;
                }
            }
            let gap = self.shard_load[hot] - self.shard_load[cold];
            let persistent = self.hot_calls[hot] >= HOT_CALLS;
            if gap <= threshold && !persistent {
                break;
            }
            // Heaviest movable peer on the hot shard; deterministic
            // tie-break on the lowest peer id.
            let candidate = self
                .peers
                .iter()
                .filter(|(_, slot)| slot.shard == hot && slot.load > 0.0 && 2.0 * slot.load <= gap)
                .map(|(&peer, slot)| (peer, slot.load))
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
            let Some((peer, _)) = candidate else {
                break;
            };
            self.migrate(peer, cold);
            self.migrations += 1;
            if persistent {
                self.hot_calls[hot] = 0;
            }
        }
        self.steal_idle();
    }

    /// The stealing pass, at the same boundary: while some shard is idle
    /// (its byte EWMA has decayed to nothing) and the busiest shard holds
    /// at least two more peers, the idle shard pulls the busiest shard's
    /// lowest fresh peer — one that has carried no bound traffic, so
    /// nothing hot moves with it. At most one steal per shard per call.
    fn steal_idle(&mut self) {
        // Every shard busy is the steady state of a loaded server: leave
        // before allocating anything.
        if !self.shard_load.iter().any(|&load| load < IDLE_EWMA) {
            return;
        }
        let shards = self.pool.len();
        let mut counts = vec![0usize; shards];
        for slot in self.peers.values() {
            counts[slot.shard] += 1;
        }
        let mut stole = vec![false; shards];
        for _ in 0..shards {
            let max_count = counts.iter().copied().max().unwrap_or(0);
            let Some(thief) = (0..shards)
                .find(|&s| !stole[s] && self.shard_load[s] < IDLE_EWMA && counts[s] < max_count)
            else {
                return;
            };
            let victim = (0..shards)
                .max_by(|&a, &b| {
                    counts[a]
                        .cmp(&counts[b])
                        .then(self.shard_load[a].total_cmp(&self.shard_load[b]))
                })
                .expect("at least two shards");
            if victim == thief
                || counts[victim] <= counts[thief] + 1
                || self.shard_load[victim] < IDLE_EWMA
            {
                return;
            }
            let candidate = self
                .peers
                .iter()
                .filter(|(_, slot)| slot.shard == victim && slot.load == 0.0)
                .map(|(&peer, _)| peer)
                .min();
            let Some(peer) = candidate else {
                return;
            };
            self.migrate(peer, thief);
            counts[victim] -= 1;
            counts[thief] += 1;
            stole[thief] = true;
            self.migrations += 1;
            self.steals += 1;
        }
    }
}

impl ShardSessions for Shards {
    fn replicate(&mut self, policy: ConfigPolicy) {
        for shard in 0..self.pool.len() {
            self.pool.send(shard, Request::Policy(policy));
        }
    }

    fn ids(&self, out: &mut Vec<u64>) {
        out.extend(self.bound.keys());
    }

    fn count(&self) -> usize {
        self.bound.len()
    }

    fn config_version(&mut self, session_id: u64) -> Option<u64> {
        let shard = self.shard_of(*self.bound.get(&session_id)?);
        match self
            .pool
            .round_trip(shard, Request::ConfigVersion(session_id))
        {
            Reply::ConfigVersion(version) => version,
            _ => unreachable!("a config-version query gets its answer"),
        }
    }
}

impl ShardedEndBoxServer {
    /// Builds the server with `shards` run-to-completion shard threads
    /// (minimum 1).
    ///
    /// # Errors
    ///
    /// [`EndBoxError::NotReady`] if a server-side Click configuration is
    /// supplied (only the centralised baseline carries one).
    pub fn with_shards(
        cfg: EndBoxServerConfig,
        shards: usize,
    ) -> Result<ShardedEndBoxServer, EndBoxError> {
        if cfg.server_click.is_some() {
            return Err(EndBoxError::NotReady(
                "sharded server has no server-side Click",
            ));
        }
        let rx = Shards::new(shards, &cfg);
        let vpn = VpnServer::new(
            cfg.handshake,
            cfg.suite,
            cfg.meter.clone(),
            cfg.cost.clone(),
            cfg.rng_seed,
        );
        let io = ServerIo::new(cfg.cost, cfg.meter, cfg.clock);
        Ok(Server::assemble(vpn, rx, None, io))
    }

    /// Number of shards, `C`.
    pub fn shard_count(&self) -> usize {
        self.rx.pool.len()
    }

    /// The shard currently owning `peer`.
    pub fn shard_of(&self, peer: u64) -> usize {
        self.rx.shard_of(peer)
    }

    /// Per-shard observability counters, indexed by shard. A
    /// cross-thread query, hence `&mut` — like
    /// [`Server::client_config_version`].
    pub fn shard_stats(&mut self) -> Vec<ShardStats> {
        let shards = self.rx.pool.len();
        for shard in 0..shards {
            self.rx.pool.send(shard, Request::Stats);
        }
        let mut out = vec![ShardStats::default(); shards];
        for _ in 0..shards {
            let Reply::Stats { shard, stats } = self.rx.pool.recv() else {
                unreachable!("no receive batch or relocation is in flight during a stats query")
            };
            out[shard] = stats;
        }
        out
    }

    /// Front-end re-merge totals `(records merged, escalations
    /// resolved)`, for reconciling against the per-shard
    /// `records_framed` and `escalations` of
    /// [`ShardedEndBoxServer::shard_stats`].
    pub fn rx_merge_counters(&self) -> (u64, u64) {
        (self.rx.records_merged, self.rx.escalations)
    }

    /// Test hook: make shard `shard` sleep `micros` before each datagram
    /// it handles. The deterministic-schedule harness uses this to force
    /// specific reply and escalation orders at the front-end; the
    /// datapath itself never sets it.
    pub fn set_stall_micros(&self, shard: usize, micros: u64) {
        self.rx.stalls.lock().expect("no holder panics")[shard].store(micros, Ordering::Relaxed);
    }

    /// Peers the dispatch law moved so far (steals included).
    pub fn migrations(&self) -> u64 {
        self.rx.migrations
    }

    /// Idle-shard steals performed by the dispatch law (a subset of
    /// [`ShardedEndBoxServer::migrations`]).
    pub fn steals(&self) -> u64 {
        self.rx.steals
    }

    /// Moves `peer` to shard `to` by hand (see `migrate` for the
    /// quiescence contract), returning the number of in-flight partial
    /// records that moved along. Only legal between `receive_datagrams`
    /// calls. No law calls it: balance is the dispatch law's, which
    /// counts its own moves in [`ShardedEndBoxServer::migrations`]. It
    /// exists for the adversarial `Step::Remap` schedules in `tests/`,
    /// which take their target modulo the live shard count themselves.
    ///
    /// # Panics
    ///
    /// If `to` is not a live shard. A resize makes stale indices
    /// reachable; wrapping one modulo the live count would silently put
    /// the peer on a shard the caller never named.
    pub fn remap_peer(&mut self, peer: u64, to: usize) -> usize {
        let shards = self.rx.pool.len();
        assert!(
            to < shards,
            "remap target shard {to} is not live ({shards} shards)"
        );
        if self.rx.shard_of(peer) == to {
            return 0;
        }
        self.rx.migrate(peer, to).0
    }

    /// Grows or shrinks to `shards` shard threads online (minimum 1),
    /// returning `(peers moved, in-flight partials drained along)`. A
    /// grow spawns empty shards that already carry the live config
    /// policy and respreads nothing: they fill through the dispatch law
    /// (an idle shard steals, a hot one sheds). A shrink moves every peer
    /// of a retiring shard — reassembler and sessions — to its home
    /// `peer mod C` under the new count, in ascending peer order, before
    /// the thread exits. Peers on surviving
    /// shards stay put. Only legal between `receive_datagrams` calls — a
    /// no-op if `shards` already matches. A resize is invisible in the
    /// record stream (pinned by `tests/elastic_resize.rs`).
    pub fn resize(&mut self, shards: usize) -> (usize, usize) {
        let new = shards.max(1);
        let old = self.rx.pool.len();
        if new == old {
            return (0, 0);
        }
        let (mut peers, mut partials, mut sessions) = (0, 0, 0);
        if new > old {
            self.rx.resize.grows += 1;
        } else {
            self.rx.resize.shrinks += 1;
            let mut evicted: Vec<u64> = self
                .rx
                .peers
                .iter()
                .filter(|(_, slot)| slot.shard >= new)
                .map(|(&peer, _)| peer)
                .collect();
            evicted.sort_unstable();
            for peer in evicted {
                let (p, s) = self.rx.migrate(peer, (peer % new as u64) as usize);
                peers += 1;
                partials += p;
                sessions += s;
            }
        }
        self.rx.set_threads(new, self.vpn.policy());
        let resize = &mut self.rx.resize;
        resize.peers_moved += peers as u64;
        resize.partials_drained += partials as u64;
        resize.sessions_moved += sessions as u64;
        (peers, partials)
    }

    /// Structural-elasticity counters accumulated so far.
    pub fn resize_stats(&self) -> ResizeStats {
        self.rx.resize
    }

    /// Receives one wire datagram. This is *not* a special-cased path:
    /// the datagram routes to its peer's shard exactly like a batch of
    /// one, so singular and batch calls may be mixed freely (the copy it
    /// makes is what handing the datagram to a shard costs on this path).
    ///
    /// # Errors
    ///
    /// Every authentication/policy failure; callers drop the traffic.
    pub fn receive_datagram(
        &mut self,
        peer_id: u64,
        datagram: &[u8],
    ) -> Result<Delivery, EndBoxError> {
        self.receive_datagrams(vec![(peer_id, datagram.to_vec())])
            .pop()
            .expect("one result for one datagram")
    }

    /// Receives a whole batch of wire datagrams — from any mix of clients
    /// — returning one result per datagram in input order. Takes the
    /// datagrams by value: ownership moves into the shards, so the
    /// ingress path performs no wire-level copy.
    pub fn receive_datagrams(
        &mut self,
        datagrams: Vec<(u64, Vec<u8>)>,
    ) -> Vec<Result<Delivery, EndBoxError>> {
        let n = datagrams.len();
        if n == 0 {
            return Vec::new();
        }
        self.rx.rebalance();
        let mut batches: Vec<Vec<(u32, u64, Vec<u8>)>> =
            (0..self.rx.pool.len()).map(|_| Vec::new()).collect();
        for (idx, (peer, datagram)) in datagrams.into_iter().enumerate() {
            let batch = &mut batches[self.rx.route(peer, datagram.len())];
            if batch.capacity() == 0 {
                batch.reserve_exact(n - idx);
            }
            batch.push((idx as u32, peer, datagram));
        }
        let now_secs = self.io.now_secs();
        let next_session_id = self.vpn.next_session_id();
        let escalate = Escalate {
            unbound: self.vpn.session_ids(),
            issuable: next_session_id..next_session_id + n as u64,
        };
        let mut busy = 0;
        for (shard, entries) in batches.into_iter().enumerate() {
            if !entries.is_empty() {
                let escalate = escalate.clone();
                let batch = Request::Batch {
                    now_secs,
                    entries,
                    escalate,
                };
                self.rx.pool.send(shard, batch);
                busy += 1;
            }
        }
        let mut outcomes: Vec<Option<Outcome>> = (0..n).map(|_| None).collect();
        let mut waiting: Vec<(usize, Escalated)> = Vec::new();
        while busy > 0 {
            let Reply::Progress {
                shard,
                done,
                escalated,
            } = self.rx.pool.recv()
            else {
                unreachable!("no query or relocation is in flight during a receive")
            };
            for (idx, outcome) in done {
                if let Outcome::Opened(Ok(ShardEvent::Disconnected { session_id })) = &outcome {
                    if self.rx.unbind(*session_id) {
                        self.vpn.forget(*session_id);
                    }
                }
                outcomes[idx as usize] = Some(outcome);
            }
            match escalated {
                Some(escalated) => waiting.push((shard, escalated)),
                None => busy -= 1,
            }
            if busy > 0 && waiting.len() == busy {
                // Every shard with work waits: answer the lowest index.
                let lowest = (0..waiting.len())
                    .min_by_key(|&i| waiting[i].1.idx)
                    .expect("a shard waits");
                let (shard, escalated) = waiting.swap_remove(lowest);
                let idx = escalated.idx as usize;
                let (outcome, resolution) = self.resolve(escalated, now_secs);
                outcomes[idx] = Some(outcome);
                self.rx.pool.send(shard, Request::Resolved(resolution));
            }
        }
        self.rx.settle();
        outcomes
            .into_iter()
            .map(|outcome| {
                let outcome = outcome.expect("every datagram has an outcome");
                if matches!(outcome, Outcome::Opened(..)) {
                    self.rx.records_merged += 1;
                }
                self.finish(outcome)
            })
            .collect()
    }

    /// Answers one escalated record on the front-end's `VpnServer` — the
    /// handshake responder, and the sessions not bound yet — and tells
    /// the waiting shard what changed for it.
    fn resolve(&mut self, escalated: Escalated, now_secs: u64) -> (Outcome, Resolution) {
        let Escalated { peer, record, .. } = escalated;
        self.rx.escalations += 1;
        let event = self.vpn.handle_record(&record, peer, now_secs);
        let install = self.vpn.take_bound(record.session_id).map(|session| {
            self.rx.bind(record.session_id, peer);
            (record.session_id, Box::new(session))
        });
        let teardown = matches!(event, Ok(ShardEvent::Disconnected { .. }));
        let resolution = Resolution { install, teardown };
        (Outcome::Opened(event), resolution)
    }
}
