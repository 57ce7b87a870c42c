//! The RX stage: per-peer datagram reassembly and record framing.
//!
//! [`RxShard`] is the stage's body — one peer map, `frame` one datagram,
//! tear a peer down, surrender or adopt peers. The single-threaded
//! reference owns one inline; [`RxShardPool`] runs `K` of them on
//! threads, `peer_id mod K`, behind the relocation primitive.

use endbox_netsim::cost::{CostModel, CycleMeter};
use endbox_vpn::frag::Reassembler;
use endbox_vpn::pool::{OwnerPool, Replies};
use endbox_vpn::proto::{Opcode, Record};
use endbox_vpn::VpnError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What the RX stage concluded about one wire datagram.
pub(super) enum RxOutcome {
    /// More fragments pending.
    Pending,
    /// Reassembly failed (counted against `rejected`, like the
    /// single-threaded server).
    Reassembly(VpnError),
    /// The reassembled bytes are not a valid record.
    Malformed(VpnError),
    /// A complete parsed record, ready for the sharded dispatch.
    Record(Record),
}

/// One framed datagram of a receive batch, tagged with its input index.
pub(super) struct RxEvent {
    pub(super) idx: u32,
    pub(super) peer: u64,
    pub(super) outcome: RxOutcome,
}

enum RxRequest {
    /// Reassemble and parse these `(input index, peer, datagram)`
    /// entries, in order. Indices are global over the receive batch; the
    /// sub-batch a shard sees contains only its own peers' entries.
    Batch(Vec<(u32, u64, Vec<u8>)>),
    /// Verdict for the Disconnect record the RX shard paused on:
    /// `confirmed` tears the peer's reassembler down before any later
    /// datagram of that peer is pushed into it.
    Teardown { peer: u64, confirmed: bool },
    /// Surrender reassembly state — `Some(peer)`'s (a remap) or every
    /// peer's (a resize) — whole, in-flight partial records included.
    /// Only sent between receive batches; the round-trip is the
    /// relocation's quiesce point: when the reply arrives, this shard has
    /// framed every datagram it was ever given for what it surrendered.
    Extract(Option<u64>),
    /// Adopt relocated peers' reassembly state.
    Install(Vec<(u64, Reassembler)>),
    /// Report this shard's [`RxShardStats`].
    Stats,
}

enum RxReply {
    Event(RxEvent),
    /// What an [`RxRequest::Extract`] detached from `shard`, in ascending
    /// peer order (empty if the one peer asked for never sent this shard
    /// a datagram). The shard holds none of it afterwards.
    Peers {
        shard: usize,
        peers: Vec<(u64, Reassembler)>,
    },
    Stats {
        shard: usize,
        stats: RxShardStats,
    },
}

/// Observability counters for one RX shard (the RX-side analogue of the
/// buffer pools' `PoolStats` and the dispatcher's `migrations`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RxShardStats {
    /// Wire datagrams this shard pushed into its reassemblers.
    pub datagrams: u64,
    /// Complete records this shard framed (including records the session
    /// layer later rejected — framing happened either way).
    pub records_framed: u64,
    /// Bytes currently buffered in this shard's incomplete reassemblies.
    pub reassembly_bytes_held: usize,
    /// Records currently awaiting more fragments on this shard.
    pub pending_records: usize,
    /// Live per-peer reassemblers this shard owns.
    pub peers: usize,
    /// Times this shard paused on a Disconnect awaiting its verdict.
    pub disconnect_pauses: u64,
}

/// The body of the RX stage: the reassembly state of the peers routed
/// here and the framing step over it. Per-peer, not per-session: the
/// state does not follow a session between workers, and leaves a shard
/// only through `extract`. (Public only because the reference server's
/// type names it; the module is not, so no caller can.)
pub struct RxShard {
    reassemblers: HashMap<u64, Reassembler>,
    meter: CycleMeter,
    per_fragment: u64,
    datagrams: u64,
    framed: u64,
    verdicts: u64,
}

impl RxShard {
    pub(super) fn new(meter: &CycleMeter, cost: &CostModel) -> RxShard {
        RxShard {
            reassemblers: HashMap::new(),
            meter: meter.clone(),
            per_fragment: cost.vpn_server_per_fragment,
            datagrams: 0,
            framed: 0,
            verdicts: 0,
        }
    }

    /// Frames one wire datagram of `peer`, charging its receipt. The
    /// datagram is adopted as the reassembly piece, and a completed
    /// record's bytes become its payload — no copy on either step.
    pub(super) fn frame(&mut self, peer: u64, datagram: Vec<u8>) -> RxOutcome {
        self.meter.add(self.per_fragment);
        self.datagrams += 1;
        let reassembler = self.reassemblers.entry(peer).or_default();
        match reassembler.push_owned(datagram) {
            Err(e) => RxOutcome::Reassembly(e),
            Ok(None) => RxOutcome::Pending,
            Ok(Some(bytes)) => match Record::from_vec(bytes) {
                Err(e) => RxOutcome::Malformed(e),
                Ok(record) => {
                    self.framed += 1;
                    RxOutcome::Record(record)
                }
            },
        }
    }

    /// The session layer's verdict on a Disconnect record this shard
    /// framed for `peer`: a *successful* disconnect tears the peer's
    /// reassembler down, and that must happen before any later datagram
    /// of the same peer is framed.
    pub(super) fn teardown(&mut self, peer: u64, confirmed: bool) {
        self.verdicts += 1;
        if confirmed {
            self.reassemblers.remove(&peer);
        }
    }

    /// Detaches `Some(peer)`'s reassembly state, or every peer's, whole —
    /// in-flight partial records included — in ascending peer order.
    fn extract(&mut self, which: Option<u64>) -> Vec<(u64, Reassembler)> {
        let mut peers: Vec<(u64, Reassembler)> = match which {
            Some(peer) => self.reassemblers.remove_entry(&peer).into_iter().collect(),
            None => self.reassemblers.drain().collect(),
        };
        peers.sort_unstable_by_key(|&(peer, _)| peer);
        peers
    }

    fn install(&mut self, peers: Vec<(u64, Reassembler)>) {
        for (peer, reassembler) in peers {
            let prior = self.reassemblers.insert(peer, reassembler);
            debug_assert!(
                prior.is_none(),
                "relocation extracts before it installs; peer {peer} already lives here"
            );
        }
    }

    fn stats(&self) -> RxShardStats {
        let partials = self.reassemblers.values();
        RxShardStats {
            datagrams: self.datagrams,
            records_framed: self.framed,
            reassembly_bytes_held: partials.clone().map(Reassembler::pending_bytes).sum(),
            pending_records: partials.map(Reassembler::pending).sum(),
            peers: self.reassemblers.len(),
            disconnect_pauses: self.verdicts,
        }
    }
}

/// One RX thread: an [`RxShard`] fed by requests, streaming framed
/// records to the front-end so framing overlaps with shard crypto.
fn rx_shard_loop(
    shard: usize,
    mut state: RxShard,
    rx: crossbeam::channel::Receiver<RxRequest>,
    tx: Replies<RxReply>,
    stall_micros: &AtomicU64,
) {
    while let Ok(request) = rx.recv() {
        match request {
            RxRequest::Batch(entries) => {
                for (idx, peer, datagram) in entries {
                    // Deterministic-schedule hook: a stalled shard frames
                    // slowly, forcing adversarial cross-shard arrival
                    // orders at the front-end re-merge (tests/support).
                    let stall = stall_micros.load(Ordering::Relaxed);
                    if stall > 0 {
                        std::thread::sleep(std::time::Duration::from_micros(stall));
                    }
                    let outcome = state.frame(peer, datagram);
                    let disconnect = matches!(&outcome, RxOutcome::Record(r)
                        if r.opcode == Opcode::Disconnect);
                    tx.send(RxReply::Event(RxEvent { idx, peer, outcome }));
                    if disconnect {
                        // Pause **this shard only** until the front-end
                        // reports the verdict — exactly the
                        // single-threaded sequencing; sibling shards
                        // keep framing their own peers.
                        match rx.recv() {
                            Ok(RxRequest::Teardown { peer, confirmed }) => {
                                state.teardown(peer, confirmed)
                            }
                            _ => return,
                        }
                    }
                }
            }
            // A stray teardown outside a pause cannot occur in the
            // request protocol; ignore it defensively.
            RxRequest::Teardown { .. } => {}
            RxRequest::Extract(which) => {
                let peers = state.extract(which);
                tx.send(RxReply::Peers { shard, peers });
            }
            RxRequest::Install(peers) => state.install(peers),
            RxRequest::Stats => {
                let stats = state.stats();
                tx.send(RxReply::Stats { shard, stats });
            }
        }
    }
}

/// The sharded RX front-end: `K` RX threads, each owning the reassembly
/// state of the peers [`RxShardPool::shard_of`] routes to it
/// (`peer_id mod K` unless remapped).
///
/// # Per-peer order contract
///
/// * A peer's datagrams are framed **in input order**: the front-end
///   appends each datagram to its owning shard's sub-batch in input
///   order, and the shard processes its sub-batch sequentially. Records
///   of one peer therefore frame exactly as on the single RX thread.
/// * **Cross-peer** interleaving is unconstrained: shards run
///   concurrently and their events reach the front-end in any order. The
///   front-end re-merges events by input index before dispatching, so the
///   observable results are byte-identical to the single-threaded server
///   for every thread schedule (pinned by `tests/rx_interleaving.rs` and
///   `tests/shard_parity.rs`).
/// * A Disconnect pauses **only the owning shard** until the front-end
///   reports the session-layer verdict, so reassembler teardown sequences
///   exactly like the single-threaded server while sibling shards keep
///   framing.
/// * A peer has one owner at a time, but not the same one forever:
///   [`RxShardPool::remap_peer`] moves one peer and
///   [`RxShardPool::resize`] rehashes all of them, both between receive
///   batches and both through the one extract→install body
///   (`docs/architecture.md` §4.3).
pub struct RxShardPool {
    pool: OwnerPool<RxRequest, RxReply>,
    /// Per-shard stall hooks ([`RxShardPool::set_stall_micros`]). A
    /// thread picks its own up when it starts, so an entry exists before
    /// its thread does.
    stalls: Arc<Mutex<Vec<Arc<AtomicU64>>>>,
    /// Live remap overrides: peers whose reassembly state has been
    /// re-homed away from their static `peer_id mod K` shard.
    overrides: HashMap<u64, usize>,
}

impl std::fmt::Debug for RxShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RxShardPool")
            .field("shards", &self.pool.len())
            .finish()
    }
}

/// A peer's static home among `shards` RX shards.
fn rx_home(peer: u64, shards: usize) -> usize {
    (peer % shards as u64) as usize
}

impl RxShardPool {
    pub(super) fn new(shards: usize, meter: &CycleMeter, cost: &CostModel) -> RxShardPool {
        let stalls: Arc<Mutex<Vec<Arc<AtomicU64>>>> = Arc::default();
        let (meter, cost, table) = (meter.clone(), cost.clone(), stalls.clone());
        let mut rx = RxShardPool {
            pool: OwnerPool::new("endbox-rx", 0, move |shard, requests, replies| {
                let stall = table.lock().expect("no holder panics")[shard].clone();
                rx_shard_loop(
                    shard,
                    RxShard::new(&meter, &cost),
                    requests,
                    replies,
                    &stall,
                )
            }),
            stalls,
            overrides: HashMap::new(),
        };
        rx.set_threads(shards.max(1));
        rx
    }

    /// Retires or spawns tail threads until `shards` run. A new thread
    /// starts with a cleared stall hook.
    fn set_threads(&mut self, shards: usize) {
        let old = self.pool.len();
        self.pool.shrink(old.saturating_sub(shards));
        self.stalls
            .lock()
            .expect("no holder panics")
            .resize_with(shards, Arc::default);
        self.pool.grow(shards.saturating_sub(old));
    }

    /// Number of RX shards.
    pub fn shard_count(&self) -> usize {
        self.pool.len()
    }

    /// The shard owning `peer`'s reassembly state: a live remap override
    /// if one exists, else the static `peer_id mod K` home.
    pub fn shard_of(&self, peer: u64) -> usize {
        let home = rx_home(peer, self.pool.len());
        self.overrides.get(&peer).copied().unwrap_or(home)
    }

    /// The one relocation body, behind both [`RxShardPool::remap_peer`]
    /// and [`RxShardPool::resize`]: extract `which` from every shard in
    /// `sources`, let `reshape` change the pool's geometry and routing
    /// table while no shard owns the state, then install each peer on the
    /// shard `home` names. Returns `(peers that changed shard, in-flight
    /// partial records that rode along inside them)`.
    ///
    /// Must only be called between receive batches (the same quiescence
    /// discipline as a stats query). The extract round-trip is the
    /// quiesce point: when a shard replies it has framed every datagram
    /// ever routed to it for the peers it hands over, so moving an owned
    /// [`Reassembler`] wholesale — partials included — is invisible in
    /// the record stream: byte-identical to the peer having lived on its
    /// new shard all along.
    fn relocate(
        &mut self,
        sources: std::ops::Range<usize>,
        which: Option<u64>,
        reshape: impl FnOnce(&mut Self),
        home: impl Fn(u64) -> usize,
    ) -> (usize, usize) {
        for shard in sources.clone() {
            self.pool.send(shard, RxRequest::Extract(which));
        }
        let mut extracted: Vec<(usize, u64, Reassembler)> = Vec::new();
        for _ in sources {
            let RxReply::Peers { shard, peers } = self.pool.recv() else {
                unreachable!("no receive batch or stats query is in flight during a relocation")
            };
            extracted.extend(peers.into_iter().map(|(peer, reasm)| (shard, peer, reasm)));
        }
        reshape(self);
        // Ascending peer order, so each shard's install list is too.
        extracted.sort_unstable_by_key(|&(_, peer, _)| peer);
        let mut installs: Vec<Vec<(u64, Reassembler)>> =
            (0..self.pool.len()).map(|_| Vec::new()).collect();
        let (mut moved, mut drained) = (0, 0);
        for (from, peer, reassembler) in extracted {
            let to = home(peer);
            if to != from {
                moved += 1;
                drained += reassembler.pending();
            }
            installs[to].push((peer, reassembler));
        }
        for (shard, peers) in installs.into_iter().enumerate() {
            if !peers.is_empty() {
                self.pool.send(shard, RxRequest::Install(peers));
            }
        }
        (moved, drained)
    }

    /// Re-homes `peer`'s reassembly state to RX shard `to`, returning the
    /// number of in-flight partial records drained along with it. Only
    /// legal between receive batches (see `relocate`).
    ///
    /// # Panics
    ///
    /// If `to` is not a live RX shard. A resize makes stale indices
    /// reachable; wrapping one modulo the live count would leave the
    /// peer's socket ([`super::AsyncFrontEnd::rehome_peer`] rejects the same
    /// index) and its reassembly state on different shards.
    pub fn remap_peer(&mut self, peer: u64, to: usize) -> usize {
        let shards = self.pool.len();
        assert!(
            to < shards,
            "remap target RX shard {to} is not live ({shards} RX shards)"
        );
        let from = self.shard_of(peer);
        if from == to {
            return 0;
        }
        let reroute = |rx: &mut Self| {
            if to == rx_home(peer, shards) {
                rx.overrides.remove(&peer);
            } else {
                rx.overrides.insert(peer, to);
            }
        };
        self.relocate(from..from + 1, Some(peer), reroute, |_| to).1
    }

    /// Grows or shrinks the pool to `shards` RX threads online, returning
    /// `(peers rehashed, in-flight partial records drained along)`.
    ///
    /// Every shard surrenders its whole peer map; while none owns any,
    /// the doomed tail threads retire (already empty) or the new ones
    /// spawn; then each peer is installed at its static home under the
    /// **new** modulus. Remap overrides do not survive a resize — the
    /// demand pattern that motivated them predates the capacity change.
    ///
    /// Only legal between receive batches (see `relocate`). A resize is
    /// invisible in the record stream: byte-identical to the new geometry
    /// having been configured from the start (pinned by
    /// `tests/elastic_resize.rs`).
    pub fn resize(&mut self, shards: usize) -> (usize, usize) {
        let new = shards.max(1);
        let old = self.pool.len();
        if new == old {
            return (0, 0);
        }
        let reshape = |rx: &mut Self| {
            rx.set_threads(new);
            rx.overrides.clear();
        };
        self.relocate(0..old, None, reshape, |peer| rx_home(peer, new))
    }

    /// Test hook: make RX shard `shard` sleep `micros` before each
    /// datagram it frames. The deterministic-schedule harness uses this to
    /// force specific cross-shard arrival orders at the re-merge; the
    /// datapath itself never sets it.
    pub fn set_stall_micros(&self, shard: usize, micros: u64) {
        self.stalls.lock().expect("no holder panics")[shard].store(micros, Ordering::Relaxed);
    }

    /// Ships one receive batch to the owning shards, each datagram tagged
    /// with its input index — per-peer order is preserved: a peer's
    /// datagrams all land on one shard, in input order. One
    /// [`RxShardPool::next_event`] is owed per datagram.
    pub(super) fn submit(&self, datagrams: Vec<(u64, Vec<u8>)>) {
        let mut per_shard: Vec<Vec<(u32, u64, Vec<u8>)>> =
            (0..self.pool.len()).map(|_| Vec::new()).collect();
        for (i, (peer, d)) in datagrams.into_iter().enumerate() {
            per_shard[self.shard_of(peer)].push((i as u32, peer, d));
        }
        for (shard, batch) in per_shard.into_iter().enumerate() {
            if !batch.is_empty() {
                self.pool.send(shard, RxRequest::Batch(batch));
            }
        }
    }

    /// The next framed datagram of the submitted batch, from whichever
    /// shard produced one first.
    pub(super) fn next_event(&self) -> RxEvent {
        let RxReply::Event(event) = self.pool.recv() else {
            unreachable!("no stats query or relocation is in flight during a receive")
        };
        event
    }

    /// Releases the shard paused on `peer`'s Disconnect record with the
    /// session layer's verdict.
    pub(super) fn verdict(&self, peer: u64, confirmed: bool) {
        let request = RxRequest::Teardown { peer, confirmed };
        self.pool.send(self.shard_of(peer), request);
    }

    /// Snapshot of every shard's counters, indexed by shard.
    pub(super) fn stats(&self) -> Vec<RxShardStats> {
        for shard in 0..self.pool.len() {
            self.pool.send(shard, RxRequest::Stats);
        }
        let mut out = vec![RxShardStats::default(); self.pool.len()];
        for _ in 0..self.pool.len() {
            let RxReply::Stats { shard, stats } = self.pool.recv() else {
                unreachable!("no receive batch or relocation is in flight during a stats query")
            };
            out[shard] = stats;
        }
        out
    }
}
