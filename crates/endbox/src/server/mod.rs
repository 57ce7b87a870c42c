//! The EndBox server: the sole entry point into the managed network.
//!
//! Only traffic sealed by a correctly attested client decrypts here, so
//! bypassing the client-side middlebox yields traffic the firewall drops
//! (§III-A, R2). The server also sanitises the client-to-client QoS flag
//! on packets entering from outside ("the ENDBOX server removes the QoS
//! byte if it is set to 0xeb", §IV-A) and optionally runs a *server-side*
//! Click instance (the OpenVPN+Click baseline of §V).
//!
//! # Two flavours, one behaviour
//!
//! * [`EndBoxServer`] — the single-threaded reference: one reassembler
//!   map, one inline VPN shard, strict input-order processing. It is the
//!   *oracle* every concurrent deployment is compared against.
//! * [`ShardedEndBoxServer`] — the scaled deployment: a staged pipeline
//!   of `K` RX framing threads ([`RxShardPool`], `peer_id mod K`), a
//!   re-merging dispatch stage, and `N` session-crypto worker shards
//!   (`endbox_vpn::shard`), optionally fed by an event-driven socket
//!   front-end ([`AsyncFrontEnd`], one poll group per RX shard).
//!
//! # Ordering / parity invariants
//!
//! The sharded server is **byte-identical** to [`EndBoxServer`] for any
//! `(rx_shards, workers, dispatch policy)` and any thread schedule.
//! The invariants that carry the proof, each pinned by tests:
//!
//! 1. *Input-order re-merge* — `receive_datagrams` returns exactly one
//!    result per datagram in input order; RX shard events are re-merged
//!    by input index before dispatch (`tests/shard_parity.rs`,
//!    `tests/rx_interleaving.rs`).
//! 2. *Single-owner peers* — a peer's reassembly state lives on exactly
//!    one RX shard at every instant, so per-peer framing order equals
//!    the single-thread order. A remap or a resize relocates it whole,
//!    between receive batches only (`docs/architecture.md` §4.3).
//! 3. *Disconnect sequencing* — a Disconnect pauses only the owning RX
//!    shard until its session-layer verdict, so reassembler teardown
//!    sequences exactly like the single server.
//! 4. *Single-owner sessions* — each session is owned by one worker
//!    shard at every instant; migration drains earlier records first
//!    (`endbox_vpn::shard`).
//! 5. *Wire-order drain* — the event-driven front-end re-merges drained
//!    datagrams by wire arrival stamp; per-peer order is exact under any
//!    backpressure setting (`tests/async_ingress.rs`).
//!
//! The full walk-through lives in `docs/architecture.md` at the
//! repository root.
//!
//! # Layout
//!
//! This file holds both server flavours and the RX stage. The socket
//! front-end with its controller is in `frontend`, the TX-batching
//! egress stage in `tx`; both are re-exported here.

use crate::error::EndBoxError;
use endbox_click::element::ElementEnv;
use endbox_click::Router;
use endbox_netsim::cost::{CostModel, CycleMeter};
use endbox_netsim::packet::QOS_ENDBOX_PROCESSED;
use endbox_netsim::time::SharedClock;
use endbox_netsim::{Packet, PacketBatch};
use endbox_vpn::channel::CipherSuite;
use endbox_vpn::frag::{Fragmenter, Reassembler};
use endbox_vpn::handshake::HandshakeConfig;
use endbox_vpn::ping::PingMessage;
use endbox_vpn::pool::{OwnerPool, Replies};
use endbox_vpn::proto::{Opcode, Record};
use endbox_vpn::server::{ServerEvent, VpnServer};
use endbox_vpn::shard::{materialize_frames, DispatchPolicy, ShardEvent, ShardedVpnServer};
use endbox_vpn::VpnError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

mod frontend;
mod tx;

pub use frontend::{
    AsyncFrontEnd, AsyncIngressStats, ControllerStats, DEFAULT_DRAIN_QUOTA, DEFAULT_SHARD_BUDGET,
    RESIZE_COOLDOWN_ROUNDS, RESIZE_GROW_ROUNDS, RESIZE_MAX_RX, RESIZE_SHRINK_ROUNDS,
    RESIZE_TARGET_DEMAND, RESIZE_WORKERS_PER_SHARD,
};
pub use tx::{TxBatchStats, TxBatcher};

/// Server configuration.
#[derive(Debug)]
pub struct EndBoxServerConfig {
    /// Handshake identity/policy (certificate issued by the CA).
    pub handshake: HandshakeConfig,
    /// Data-channel suite.
    pub suite: CipherSuite,
    /// Optional server-side Click configuration (OpenVPN+Click baseline).
    pub server_click: Option<String>,
    /// Cost model.
    pub cost: CostModel,
    /// Server machine cycle meter.
    pub meter: CycleMeter,
    /// Simulation clock.
    pub clock: SharedClock,
    /// Deterministic seed.
    pub rng_seed: u64,
}

/// What the server did with a received datagram.
#[derive(Debug)]
pub enum Delivery {
    /// Incomplete record (more fragments pending).
    Pending,
    /// Handshake finished; send these datagrams back to the client.
    Established {
        /// New session id.
        session_id: u64,
        /// Response datagrams for the client.
        response: Vec<Vec<u8>>,
    },
    /// A tunnel packet was delivered into the managed network.
    Packet {
        /// Originating session.
        session_id: u64,
        /// The decapsulated IP packet.
        packet: Packet,
    },
    /// A batched record delivered several tunnel packets at once (§IV
    /// batching). Packets the server-side Click dropped are already
    /// filtered out (see `counters`).
    PacketBatch {
        /// Originating session.
        session_id: u64,
        /// The decapsulated IP packets, in batch order.
        packets: Vec<Packet>,
    },
    /// A client ping arrived (config-version proof).
    Ping {
        /// Originating session.
        session_id: u64,
        /// Contents.
        message: PingMessage,
    },
    /// The session disconnected.
    Disconnected {
        /// Session that ended.
        session_id: u64,
    },
}

/// Front-end plumbing shared by both server flavours: record
/// fragmentation and the metered cycle-cost formulas for receiving,
/// delivering and sealing traffic. Keeping the formulas in one place
/// guarantees the single-threaded and sharded deployments charge
/// identically — the Fig. 10 single-vs-sharded comparison relies on it.
struct ServerIo {
    fragmenter: Fragmenter,
    cost: CostModel,
    meter: CycleMeter,
    clock: SharedClock,
}

impl ServerIo {
    fn new(cost: CostModel, meter: CycleMeter, clock: SharedClock) -> Self {
        ServerIo {
            fragmenter: Fragmenter::new(),
            cost,
            meter,
            clock,
        }
    }

    fn now_secs(&self) -> u64 {
        self.clock.now().as_secs_f64() as u64
    }

    /// Charges the receipt of one wire datagram.
    fn charge_rx_fragment(&self) {
        self.meter.add(self.cost.vpn_server_per_fragment);
    }

    /// Charges delivery into the managed network: one tun write per
    /// packet.
    fn charge_delivery(&self, n_packets: usize) {
        self.meter.add(self.cost.vpn_per_write * n_packets as u64);
    }

    /// Charges sealing `n_packets` totalling `total_bytes` towards a
    /// client (write + copy into the record).
    fn charge_egress(&self, n_packets: usize, total_bytes: usize) {
        self.meter.add(
            self.cost.vpn_per_write * n_packets as u64
                + (self.cost.memcpy_per_byte * total_bytes as f64) as u64,
        );
    }

    fn fragment(&mut self, record: &Record) -> Vec<Vec<u8>> {
        let frags = self
            .fragmenter
            .fragment_record(record, self.cost.mtu_payload);
        self.meter
            .add(self.cost.vpn_server_per_fragment * frags.len() as u64);
        frags
    }
}

/// Clears a spoofed `0xeb` QoS flag on a packet arriving from outside
/// the managed network, so external traffic cannot skip client-side
/// Click processing (§IV-A). Shared by both server flavours.
fn sanitize_external_packet(packet: &mut Packet) {
    if packet.tos() == QOS_ENDBOX_PROCESSED {
        packet.set_tos(0);
    }
}

/// The EndBox VPN server.
pub struct EndBoxServer {
    vpn: VpnServer,
    reassemblers: HashMap<u64, Reassembler>,
    server_click: Option<Router>,
    io: ServerIo,
    delivered: u64,
    click_dropped: u64,
    rejected: u64,
}

impl std::fmt::Debug for EndBoxServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EndBoxServer")
            .field("sessions", &self.vpn.session_count())
            .field("delivered", &self.delivered)
            .finish()
    }
}

impl EndBoxServer {
    /// Builds the server.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Click`] if the server-side Click config is invalid.
    pub fn new(cfg: EndBoxServerConfig) -> Result<EndBoxServer, EndBoxError> {
        let server_click = match &cfg.server_click {
            None => None,
            Some(text) => {
                let env = ElementEnv {
                    cost: cfg.cost.clone(),
                    meter: cfg.meter.clone(),
                    clock: cfg.clock.clone(),
                    in_enclave: false,
                    hardware_mode: false,
                    // The attached Click receives packets over a socket
                    // from OpenVPN; it does not own devices (fetch/IPC
                    // costs are charged on delivery instead).
                    device_io: false,
                    tls_keys: Default::default(),
                };
                Some(Router::from_config(text, env)?)
            }
        };
        let vpn = VpnServer::new(
            cfg.handshake,
            cfg.suite,
            cfg.meter.clone(),
            cfg.cost.clone(),
            cfg.rng_seed,
        );
        Ok(EndBoxServer {
            vpn,
            reassemblers: HashMap::new(),
            server_click,
            io: ServerIo::new(cfg.cost, cfg.meter, cfg.clock),
            delivered: 0,
            click_dropped: 0,
            rejected: 0,
        })
    }

    /// Receives one wire datagram from peer `peer_id` (a socket-address
    /// analogue used to separate fragment streams).
    ///
    /// # Errors
    ///
    /// Every authentication/policy failure; callers drop the traffic.
    pub fn receive_datagram(
        &mut self,
        peer_id: u64,
        datagram: &[u8],
    ) -> Result<Delivery, EndBoxError> {
        self.io.charge_rx_fragment();
        let reasm = self.reassemblers.entry(peer_id).or_default();
        let Some(bytes) = reasm.push(datagram).map_err(|e| {
            self.rejected += 1;
            EndBoxError::Vpn(e)
        })?
        else {
            return Ok(Delivery::Pending);
        };
        let record = Record::from_vec(bytes)?;
        let now_secs = self.io.now_secs();
        let event = self.vpn.handle_record(&record, now_secs).map_err(|e| {
            self.rejected += 1;
            EndBoxError::Vpn(e)
        })?;
        match event {
            ServerEvent::Established {
                session_id,
                response,
                ..
            } => {
                let datagrams = self.io.fragment(&response);
                Ok(Delivery::Established {
                    session_id,
                    response: datagrams,
                })
            }
            ServerEvent::Data {
                session_id,
                payload,
            } => {
                // The payload was decrypted into one of the shard pool's
                // buffers; it backs the delivered packet as it is.
                let pool = self.vpn.shard().pool().clone();
                let mut packet = Packet::from_vec_in(&pool, payload).map_err(|_| {
                    EndBoxError::Vpn(endbox_vpn::VpnError::Malformed("bad tunnelled packet"))
                })?;
                // Server-side Click (OpenVPN+Click baseline): fetch cost +
                // element processing.
                if let Some(click) = self.server_click.as_mut() {
                    // Handing the packet to the Click process and back:
                    // fetch copies plus inter-process crossings.
                    self.io.meter.add(
                        self.io.cost.click_fetch_per_packet
                            + self.io.cost.click_ipc_per_packet
                            + (self.io.cost.click_fetch_per_byte * packet.len() as f64) as u64,
                    );
                    let out = click.process(packet);
                    if !out.accepted {
                        self.click_dropped += 1;
                        return Err(EndBoxError::PacketDropped);
                    }
                    packet = out.emitted.into_iter().next().expect("accepted");
                }
                // Deliver into the managed network.
                self.io.charge_delivery(1);
                self.delivered += 1;
                Ok(Delivery::Packet { session_id, packet })
            }
            ServerEvent::DataBatch { session_id, frames } => {
                // One pass, one copy: frames go straight from the
                // decrypted blob into pool-recycled packet buffers.
                let pool = self.vpn.shard().pool().clone();
                let mut packets = materialize_frames(&pool, frames)
                    .map_err(EndBoxError::Vpn)?
                    .into_vec();
                if let Some(click) = self.server_click.as_mut() {
                    // Handing the whole batch to the Click process at
                    // once: the IPC crossing is paid once per batch, the
                    // fetch copies per packet/byte as before.
                    let total: usize = packets.iter().map(Packet::len).sum();
                    self.io.meter.add(
                        self.io.cost.click_fetch_per_packet * packets.len() as u64
                            + self.io.cost.click_ipc_per_packet
                            + (self.io.cost.click_fetch_per_byte * total as f64) as u64,
                    );
                    let n = packets.len();
                    let out = click.process_batch(PacketBatch::from(packets));
                    self.click_dropped += (n - out.accepted) as u64;
                    packets = out.into_first_emissions();
                }
                // Deliver into the managed network: one write per packet.
                self.io.charge_delivery(packets.len());
                self.delivered += packets.len() as u64;
                Ok(Delivery::PacketBatch {
                    session_id,
                    packets,
                })
            }
            ServerEvent::Ping {
                session_id,
                message,
            } => Ok(Delivery::Ping {
                session_id,
                message,
            }),
            ServerEvent::Disconnected { session_id } => {
                self.reassemblers.remove(&peer_id);
                Ok(Delivery::Disconnected { session_id })
            }
        }
    }

    /// Seals and fragments a packet towards a client (ingress direction).
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Vpn`] for unknown sessions.
    pub fn send_to_client(
        &mut self,
        session_id: u64,
        packet: &Packet,
    ) -> Result<Vec<Vec<u8>>, EndBoxError> {
        self.io.charge_egress(1, packet.len());
        let record = self
            .vpn
            .seal_to_client(session_id, Opcode::Data, packet.bytes())?;
        Ok(self.io.fragment(&record))
    }

    /// Seals several packets towards a client as **one** `DataBatch`
    /// record (ingress direction, §IV batching), then fragments it.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Vpn`] for unknown sessions.
    pub fn send_batch_to_client(
        &mut self,
        session_id: u64,
        packets: &[Packet],
    ) -> Result<Vec<Vec<u8>>, EndBoxError> {
        let total: usize = packets.iter().map(Packet::len).sum();
        self.io.charge_egress(packets.len(), total);
        let payloads: Vec<&[u8]> = packets.iter().map(Packet::bytes).collect();
        let record = self.vpn.seal_batch_to_client(session_id, &payloads)?;
        Ok(self.io.fragment(&record))
    }

    /// Sanitises a packet arriving from *outside* the managed network:
    /// clears a spoofed `0xeb` QoS flag so external traffic cannot skip
    /// client-side Click processing (§IV-A).
    pub fn sanitize_external(&self, packet: &mut Packet) {
        sanitize_external_packet(packet);
    }

    /// Announces a configuration update (Fig. 5 steps 2–3).
    pub fn announce_config(&mut self, version: u64, grace_period_secs: u32) {
        let now_secs = self.io.now_secs();
        self.vpn
            .announce_config(version, grace_period_secs, now_secs);
    }

    /// Builds the periodic server ping for a session (Fig. 5 step 4).
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Vpn`] for unknown sessions.
    pub fn make_ping(&mut self, session_id: u64) -> Result<Vec<Vec<u8>>, EndBoxError> {
        let record = self
            .vpn
            .make_ping(session_id, self.io.clock.now().as_nanos())?;
        Ok(self.io.fragment(&record))
    }

    /// Connected session ids.
    pub fn session_ids(&self) -> Vec<u64> {
        self.vpn.session_ids()
    }

    /// Connected client count.
    pub fn session_count(&self) -> usize {
        self.vpn.session_count()
    }

    /// The config version a session has proved via ping.
    pub fn client_config_version(&self, session_id: u64) -> Option<u64> {
        self.vpn
            .session(session_id)
            .map(|s| s.reported_config_version)
    }

    /// (delivered, click-dropped, rejected) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.delivered, self.click_dropped, self.rejected)
    }

    /// Reads a handler on the server-side Click instance, if any.
    pub fn server_click_handler(&self, element: &str, handler: &str) -> Option<String> {
        self.server_click.as_ref()?.read_handler(element, handler)
    }

    /// Hot-swaps the server-side Click configuration (used by the vanilla
    /// Click reconfiguration baseline of Table II).
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Click`] on invalid configs or if no server-side
    /// Click exists.
    pub fn hot_swap_server_click(&mut self, config: &str) -> Result<(), EndBoxError> {
        match self.server_click.as_mut() {
            Some(router) => {
                router.hot_swap(config)?;
                Ok(())
            }
            None => Err(EndBoxError::NotReady("no server-side Click instance")),
        }
    }
}

/// What the RX stage concluded about one wire datagram.
enum RxOutcome {
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

struct RxEvent {
    idx: u32,
    peer: u64,
    outcome: RxOutcome,
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

/// One RX shard: per-peer datagram reassembly and record framing on a
/// dedicated thread, streaming parsed records to the front-end so framing
/// overlaps with shard crypto. The reassembly state here is per-peer, not
/// per-session: it does not follow a session between workers, and leaves
/// this shard only through an [`RxRequest::Extract`].
fn rx_shard_loop(
    shard: usize,
    rx: crossbeam::channel::Receiver<RxRequest>,
    tx: Replies<RxReply>,
    meter: &CycleMeter,
    cost: &CostModel,
    stall_micros: &AtomicU64,
) {
    let mut reassemblers: HashMap<u64, Reassembler> = HashMap::new();
    let mut datagrams = 0u64;
    let mut framed = 0u64;
    let mut pauses = 0u64;
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
                    meter.add(cost.vpn_server_per_fragment);
                    datagrams += 1;
                    let reasm = reassemblers.entry(peer).or_default();
                    // The datagram is ours: it is adopted as the
                    // reassembly piece, and a completed record's bytes
                    // become its payload — no copy on either step.
                    let outcome = match reasm.push_owned(datagram) {
                        Err(e) => RxOutcome::Reassembly(e),
                        Ok(None) => RxOutcome::Pending,
                        Ok(Some(bytes)) => match Record::from_vec(bytes) {
                            Err(e) => RxOutcome::Malformed(e),
                            Ok(record) => RxOutcome::Record(record),
                        },
                    };
                    if matches!(&outcome, RxOutcome::Record(_)) {
                        framed += 1;
                    }
                    let disconnect = matches!(&outcome, RxOutcome::Record(r)
                        if r.opcode == Opcode::Disconnect);
                    tx.send(RxReply::Event(RxEvent { idx, peer, outcome }));
                    if disconnect {
                        // A *successful* disconnect tears down the peer's
                        // reassembler, and that must happen before any
                        // later datagram of the same peer is pushed into
                        // it — exactly the single-threaded sequencing.
                        // Pause **this shard only** until the front-end
                        // reports the verdict; sibling shards keep
                        // framing their own peers.
                        pauses += 1;
                        match rx.recv() {
                            Ok(RxRequest::Teardown { peer, confirmed }) => {
                                if confirmed {
                                    reassemblers.remove(&peer);
                                }
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
                let mut peers: Vec<(u64, Reassembler)> = match which {
                    Some(peer) => reassemblers.remove_entry(&peer).into_iter().collect(),
                    None => reassemblers.drain().collect(),
                };
                peers.sort_unstable_by_key(|&(peer, _)| peer);
                tx.send(RxReply::Peers { shard, peers });
            }
            RxRequest::Install(peers) => {
                for (peer, reassembler) in peers {
                    let prior = reassemblers.insert(peer, reassembler);
                    debug_assert!(
                        prior.is_none(),
                        "relocation extracts before it installs; peer {peer} already lives here"
                    );
                }
            }
            RxRequest::Stats => {
                let stats = RxShardStats {
                    datagrams,
                    records_framed: framed,
                    reassembly_bytes_held: reassemblers
                        .values()
                        .map(Reassembler::pending_bytes)
                        .sum(),
                    pending_records: reassemblers.values().map(Reassembler::pending).sum(),
                    peers: reassemblers.len(),
                    disconnect_pauses: pauses,
                };
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
    fn new(shards: usize, meter: &CycleMeter, cost: &CostModel) -> RxShardPool {
        let stalls: Arc<Mutex<Vec<Arc<AtomicU64>>>> = Arc::default();
        let (meter, cost, table) = (meter.clone(), cost.clone(), stalls.clone());
        let mut rx = RxShardPool {
            pool: OwnerPool::new("endbox-rx", 0, move |shard, requests, replies| {
                let stall = table.lock().expect("no holder panics")[shard].clone();
                rx_shard_loop(shard, requests, replies, &meter, &cost, &stall)
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
    /// peer's socket ([`AsyncFrontEnd::rehome_peer`] rejects the same
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

    /// Snapshot of every shard's counters, indexed by shard.
    fn stats(&self) -> Vec<RxShardStats> {
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

/// Records accumulated from the RX stage before a sharded dispatch is cut.
/// Small enough that shard crypto starts while the RX stage still parses
/// the tail of a large receive batch; large enough to amortise the
/// channel round-trip.
pub const RX_DISPATCH_CHUNK: usize = 32;

/// Observability counters for structural elasticity: every online
/// grow/shrink of the RX shard pool or worker pool, and the state that
/// migrated across those rehashes. Reconciles with the datapath — a
/// resize never loses or duplicates a record (pinned by
/// `tests/elastic_resize.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResizeStats {
    /// RX pool grow operations (`K` increased).
    pub rx_grows: u64,
    /// RX pool shrink operations (`K` decreased; retiring shards drained
    /// to their successors before their threads exited).
    pub rx_shrinks: u64,
    /// Worker pool grow operations (`N` increased).
    pub worker_grows: u64,
    /// Worker pool shrink operations (`N` decreased).
    pub worker_shrinks: u64,
    /// Peers whose reassembly state moved to a different RX shard across
    /// all resizes (peers whose home is unchanged under the new modulus
    /// do not count).
    pub peers_rehashed: u64,
    /// In-flight partial records that rode along inside rehashed
    /// reassemblers (distinct from the remap law's
    /// [`ShardedEndBoxServer::rx_remap_counters`] drain count).
    pub partials_drained: u64,
    /// Sessions migrated off retiring workers (replay windows and crypto
    /// state move with them, via the same extract→install round-trip as
    /// a load-aware migration).
    pub sessions_moved: u64,
}

/// The sharded multi-worker EndBox server front-end, now a **staged
/// pipeline**:
///
/// 1. **RX stage** ([`RxShardPool`], `K` threads): per-peer datagram
///    reassembly and record framing, sharded by `peer_id mod K`. A
///    peer's reassembly state has one owning shard at a time.
/// 2. **Dispatch** (front-end thread): shard events are re-merged into
///    input-index order and handed to the [`ShardedVpnServer`] in chunks
///    of [`RX_DISPATCH_CHUNK`], so shard crypto for early records
///    overlaps with RX framing of later ones on every RX shard.
/// 3. **Workers**: everything per-session (crypto, replay windows,
///    policy, packet materialisation from per-shard buffer pools) runs on
///    the shard threads, placed by the configured [`DispatchPolicy`].
///
/// # Re-merge ordering guarantee
///
/// [`ShardedEndBoxServer::receive_datagrams`] returns exactly one
/// [`Delivery`] result per input datagram, **in input order**, for any
/// RX shard count, worker count, chunking and thread schedule;
/// per-session record order is preserved by per-peer RX order (see
/// [`RxShardPool`]) plus single-owner routing and per-shard FIFO (see
/// `endbox_vpn::shard`), and a Disconnect pauses its owning RX shard
/// until its verdict is known so reassembler teardown sequences exactly
/// like the single-threaded server. With any `(rx_shards, workers)` the
/// observable behaviour is identical to [`EndBoxServer`] —
/// property-tested in `tests/shard_parity.rs` and replayed under named
/// deterministic schedules in `tests/rx_interleaving.rs`.
///
/// The sharded server intentionally has no server-side Click instance:
/// that attachment exists only for the centralised OpenVPN+Click
/// baseline, which the sharded EndBox deployment replaces.
pub struct ShardedEndBoxServer {
    vpn: ShardedVpnServer,
    rx: RxShardPool,
    io: ServerIo,
    delivered: u64,
    rejected: u64,
    /// Records the front-end re-merged from the RX shards (reconciles
    /// with the sum of per-shard `records_framed`).
    rx_records_merged: u64,
    /// Disconnect verdicts the front-end sent back to paused RX shards
    /// (reconciles with the sum of per-shard `disconnect_pauses`).
    rx_disconnect_verdicts: u64,
    /// Peers the control plane re-homed to a different RX shard.
    rx_remaps: u64,
    /// Partial records drained along with those remaps (in flight inside
    /// the moved reassemblers at their quiesce points).
    rx_drained_partials: u64,
    /// Structural elasticity counters (grow/shrink of `K` and `N`).
    resize: ResizeStats,
}

impl std::fmt::Debug for ShardedEndBoxServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEndBoxServer")
            .field("workers", &self.vpn.worker_count())
            .field("rx_shards", &self.rx.shard_count())
            .field("sessions", &self.vpn.session_count())
            .field("delivered", &self.delivered)
            .finish()
    }
}

impl ShardedEndBoxServer {
    /// Builds the pipeline: `workers` crypto shard threads, `rx_shards` RX
    /// framing threads (minimum 1 each) and a [`DispatchPolicy`].
    ///
    /// # Errors
    ///
    /// [`EndBoxError::NotReady`] if a server-side Click configuration is
    /// supplied (only the centralised baseline carries one).
    pub fn with_pipeline(
        cfg: EndBoxServerConfig,
        workers: usize,
        dispatch: DispatchPolicy,
        rx_shards: usize,
    ) -> Result<ShardedEndBoxServer, EndBoxError> {
        if cfg.server_click.is_some() {
            return Err(EndBoxError::NotReady(
                "sharded server has no server-side Click",
            ));
        }
        let vpn = ShardedVpnServer::with_dispatch(
            cfg.handshake,
            cfg.suite,
            cfg.meter.clone(),
            cfg.cost.clone(),
            cfg.rng_seed,
            workers,
            dispatch,
        );
        let rx = RxShardPool::new(rx_shards, &cfg.meter, &cfg.cost);
        Ok(ShardedEndBoxServer {
            vpn,
            rx,
            io: ServerIo::new(cfg.cost, cfg.meter, cfg.clock),
            delivered: 0,
            rejected: 0,
            rx_records_merged: 0,
            rx_disconnect_verdicts: 0,
            rx_remaps: 0,
            rx_drained_partials: 0,
            resize: ResizeStats::default(),
        })
    }

    /// Number of worker shards.
    pub fn worker_count(&self) -> usize {
        self.vpn.worker_count()
    }

    /// Number of RX shards.
    pub fn rx_shard_count(&self) -> usize {
        self.rx.shard_count()
    }

    /// Per-RX-shard observability counters (records framed, reassembly
    /// bytes held, disconnect pauses, …), indexed by shard. A cross-thread
    /// query, hence `&mut` — like [`ShardedEndBoxServer::client_config_version`].
    pub fn rx_shard_stats(&mut self) -> Vec<RxShardStats> {
        self.rx.stats()
    }

    /// Front-end re-merge totals `(records merged, disconnect verdicts)`,
    /// for reconciling against [`ShardedEndBoxServer::rx_shard_stats`].
    pub fn rx_merge_counters(&self) -> (u64, u64) {
        (self.rx_records_merged, self.rx_disconnect_verdicts)
    }

    /// Test hook: stall RX shard `shard` by `micros` per datagram (see
    /// [`RxShardPool::set_stall_micros`]).
    pub fn set_rx_stall_micros(&self, shard: usize, micros: u64) {
        self.rx.set_stall_micros(shard, micros);
    }

    /// The dispatch policy in force.
    pub fn dispatch_policy(&self) -> DispatchPolicy {
        self.vpn.dispatch_policy()
    }

    /// Sessions the load-aware dispatcher migrated so far.
    pub fn migrations(&self) -> u64 {
        self.vpn.migrations()
    }

    /// Idle-worker steals performed by the adaptive dispatcher (a subset
    /// of [`ShardedEndBoxServer::migrations`]).
    pub fn steals(&self) -> u64 {
        self.vpn.steals()
    }

    /// Re-homes `peer`'s reassembly state to RX shard `to` (see
    /// [`RxShardPool::remap_peer`] for the quiescence contract), returning
    /// the number of in-flight partial records drained along. Only legal
    /// between `receive_datagrams` calls.
    ///
    /// # Panics
    ///
    /// If `to` is not a live RX shard.
    pub fn remap_rx_peer(&mut self, peer: u64, to: usize) -> usize {
        let before = self.rx.shard_of(peer);
        let drained = self.rx.remap_peer(peer, to);
        if self.rx.shard_of(peer) != before {
            self.rx_remaps += 1;
            self.rx_drained_partials += drained as u64;
        }
        drained
    }

    /// `(remaps, drained partial records)` performed so far via
    /// [`ShardedEndBoxServer::remap_rx_peer`].
    pub fn rx_remap_counters(&self) -> (u64, u64) {
        (self.rx_remaps, self.rx_drained_partials)
    }

    /// The RX shard currently owning `peer`'s reassembly state.
    pub fn rx_shard_of(&self, peer: u64) -> usize {
        self.rx.shard_of(peer)
    }

    /// Resizes the RX framing pool to `shards` threads online (minimum
    /// 1), rehashing every peer's reassembly state to its home under the
    /// new modulus with the quiesce/drain/install discipline of
    /// [`RxShardPool::resize`]. Returns `(peers rehashed, in-flight
    /// partials drained along)`. Only legal between `receive_datagrams`
    /// calls — a no-op if `shards` already matches.
    pub fn resize_rx_shards(&mut self, shards: usize) -> (usize, usize) {
        let before = self.rx.shard_count();
        let (moved, drained) = self.rx.resize(shards);
        let after = self.rx.shard_count();
        if after > before {
            self.resize.rx_grows += 1;
        } else if after < before {
            self.resize.rx_shrinks += 1;
        }
        self.resize.peers_rehashed += moved as u64;
        self.resize.partials_drained += drained as u64;
        (moved, drained)
    }

    /// Resizes the worker pool to `workers` shard threads online (minimum
    /// 1); retiring workers drain every session they own (replay windows
    /// included) to their successors before exit. Returns how many
    /// sessions moved. Only legal at a dispatch boundary — a no-op if
    /// `workers` already matches.
    pub fn resize_workers(&mut self, workers: usize) -> usize {
        let before = self.vpn.worker_count();
        let moved = self.vpn.resize_workers(workers);
        let after = self.vpn.worker_count();
        if after > before {
            self.resize.worker_grows += 1;
        } else if after < before {
            self.resize.worker_shrinks += 1;
        }
        self.resize.sessions_moved += moved as u64;
        moved
    }

    /// Structural-elasticity counters accumulated so far.
    pub fn resize_stats(&self) -> ResizeStats {
        self.resize
    }

    /// Receives one wire datagram. This is *not* a special-cased path: the
    /// datagram routes through the [`RxShardPool`] exactly like a batch of
    /// one, so singular and batch calls may be mixed freely without
    /// perturbing per-peer reassembly order (the copy it makes is what
    /// handing the datagram to the RX stage costs on this path).
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
    /// — through the staged pipeline, returning one result per datagram
    /// in input order (the re-merge guarantee above). Takes the datagrams
    /// by value: ownership moves into the RX shards, so the ingress path
    /// performs no wire-level copy.
    pub fn receive_datagrams(
        &mut self,
        datagrams: Vec<(u64, Vec<u8>)>,
    ) -> Vec<Result<Delivery, EndBoxError>> {
        let n = datagrams.len();
        if n == 0 {
            return Vec::new();
        }
        // Stage 1: split the receive batch into per-RX-shard sub-batches
        // by `peer_id mod K` (per-peer order is preserved — a peer's
        // datagrams all land on one shard, in input order) and ship them;
        // the shards stream outcomes back while we dispatch records.
        let shards = self.rx.shard_count();
        let mut per_shard: Vec<Vec<(u32, u64, Vec<u8>)>> =
            (0..shards).map(|_| Vec::new()).collect();
        for (i, (peer, d)) in datagrams.into_iter().enumerate() {
            per_shard[self.rx.shard_of(peer)].push((i as u32, peer, d));
        }
        for (shard, batch) in per_shard.into_iter().enumerate() {
            if !batch.is_empty() {
                self.rx.pool.send(shard, RxRequest::Batch(batch));
            }
        }
        // Stages 2+3: re-merge shard events into **input-index order**
        // (cross-peer interleaving across shards is arbitrary; `stash`
        // holds early arrivals until the cursor reaches them), cutting a
        // sharded dispatch whenever a chunk of records accumulated (shard
        // crypto overlaps RX framing of the tail) or a Disconnect needs
        // its verdict before its shard's reassembly may continue.
        let mut results: Vec<Option<Result<Delivery, EndBoxError>>> =
            (0..n).map(|_| None).collect();
        let mut stash: Vec<Option<(u64, RxOutcome)>> = (0..n).map(|_| None).collect();
        let mut pending: Vec<(u32, Record)> = Vec::new();
        let mut cursor = 0usize;
        let mut received = 0usize;
        while received < n {
            let RxReply::Event(RxEvent { idx, peer, outcome }) = self.rx.pool.recv() else {
                unreachable!("no stats query or relocation is in flight during a receive")
            };
            received += 1;
            stash[idx as usize] = Some((peer, outcome));
            while cursor < n {
                let Some((peer, outcome)) = stash[cursor].take() else {
                    break;
                };
                match outcome {
                    RxOutcome::Pending => results[cursor] = Some(Ok(Delivery::Pending)),
                    RxOutcome::Reassembly(e) => {
                        self.rejected += 1;
                        results[cursor] = Some(Err(EndBoxError::Vpn(e)));
                    }
                    RxOutcome::Malformed(e) => results[cursor] = Some(Err(EndBoxError::Vpn(e))),
                    RxOutcome::Record(record) => {
                        self.rx_records_merged += 1;
                        let disconnect = record.opcode == Opcode::Disconnect;
                        pending.push((cursor as u32, record));
                        if disconnect {
                            // Drain the pipeline up to and including the
                            // Disconnect, then release the paused owning
                            // shard with the verdict.
                            self.dispatch_pending(&mut pending, &mut results);
                            let confirmed =
                                matches!(results[cursor], Some(Ok(Delivery::Disconnected { .. })));
                            self.rx_disconnect_verdicts += 1;
                            self.rx.pool.send(
                                self.rx.shard_of(peer),
                                RxRequest::Teardown { peer, confirmed },
                            );
                        } else if pending.len() >= RX_DISPATCH_CHUNK {
                            self.dispatch_pending(&mut pending, &mut results);
                        }
                    }
                }
                cursor += 1;
            }
        }
        self.dispatch_pending(&mut pending, &mut results);
        results
            .into_iter()
            .map(|r| r.expect("every datagram produces a result"))
            .collect()
    }

    /// One sharded dispatch for the queued records, then the
    /// deterministic re-merge back into input order.
    fn dispatch_pending(
        &mut self,
        pending: &mut Vec<(u32, Record)>,
        results: &mut [Option<Result<Delivery, EndBoxError>>],
    ) {
        if pending.is_empty() {
            return;
        }
        let now_secs = self.io.now_secs();
        let mut origins = Vec::with_capacity(pending.len());
        let mut records = Vec::with_capacity(pending.len());
        for (idx, record) in pending.drain(..) {
            origins.push(idx);
            records.push(record);
        }
        let events = self.vpn.handle_records(records, now_secs);
        for (idx, event) in origins.into_iter().zip(events) {
            results[idx as usize] = Some(self.finish_event(event));
        }
    }

    fn finish_event(
        &mut self,
        event: Result<ShardEvent, VpnError>,
    ) -> Result<Delivery, EndBoxError> {
        let event = event.map_err(|e| {
            self.rejected += 1;
            EndBoxError::Vpn(e)
        })?;
        match event {
            ShardEvent::Established {
                session_id,
                response,
                ..
            } => {
                let datagrams = self.io.fragment(&response);
                Ok(Delivery::Established {
                    session_id,
                    response: datagrams,
                })
            }
            ShardEvent::Packet { session_id, packet } => {
                self.io.charge_delivery(1);
                self.delivered += 1;
                Ok(Delivery::Packet { session_id, packet })
            }
            ShardEvent::Batch { session_id, batch } => {
                self.io.charge_delivery(batch.len());
                self.delivered += batch.len() as u64;
                Ok(Delivery::PacketBatch {
                    session_id,
                    packets: batch.into_vec(),
                })
            }
            ShardEvent::Ping {
                session_id,
                message,
            } => Ok(Delivery::Ping {
                session_id,
                message,
            }),
            // Reassembler teardown is the RX stage's job (it owns the
            // per-peer state and is paused awaiting the verdict).
            ShardEvent::Disconnected { session_id } => Ok(Delivery::Disconnected { session_id }),
        }
    }

    /// Seals and fragments a packet towards a client (ingress direction).
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Vpn`] for unknown sessions.
    pub fn send_to_client(
        &mut self,
        session_id: u64,
        packet: &Packet,
    ) -> Result<Vec<Vec<u8>>, EndBoxError> {
        self.io.charge_egress(1, packet.len());
        let record = self
            .vpn
            .seal_to_client(session_id, Opcode::Data, packet.bytes().to_vec())?;
        Ok(self.io.fragment(&record))
    }

    /// Seals several packets towards a client as **one** `DataBatch`
    /// record, then fragments it.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Vpn`] for unknown sessions.
    pub fn send_batch_to_client(
        &mut self,
        session_id: u64,
        packets: &[Packet],
    ) -> Result<Vec<Vec<u8>>, EndBoxError> {
        let total: usize = packets.iter().map(Packet::len).sum();
        self.io.charge_egress(packets.len(), total);
        let payloads: Vec<&[u8]> = packets.iter().map(Packet::bytes).collect();
        let record = self.vpn.seal_batch_to_client(session_id, &payloads)?;
        Ok(self.io.fragment(&record))
    }

    /// Sanitises a packet arriving from *outside* the managed network
    /// (see [`EndBoxServer::sanitize_external`]).
    pub fn sanitize_external(&self, packet: &mut Packet) {
        sanitize_external_packet(packet);
    }

    /// Announces a configuration update (Fig. 5 steps 2–3), replicated to
    /// every shard.
    pub fn announce_config(&mut self, version: u64, grace_period_secs: u32) {
        let now_secs = self.io.now_secs();
        self.vpn
            .announce_config(version, grace_period_secs, now_secs);
    }

    /// Builds the periodic server ping for a session (Fig. 5 step 4).
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Vpn`] for unknown sessions.
    pub fn make_ping(&mut self, session_id: u64) -> Result<Vec<Vec<u8>>, EndBoxError> {
        let record = self
            .vpn
            .make_ping(session_id, self.io.clock.now().as_nanos())?;
        Ok(self.io.fragment(&record))
    }

    /// Connected session ids.
    pub fn session_ids(&self) -> Vec<u64> {
        self.vpn.session_ids()
    }

    /// Connected client count.
    pub fn session_count(&self) -> usize {
        self.vpn.session_count()
    }

    /// The config version a session has proved via ping (a cross-shard
    /// query, hence `&mut`).
    pub fn client_config_version(&mut self, session_id: u64) -> Option<u64> {
        self.vpn
            .session_snapshot(session_id)
            .map(|s| s.reported_config_version)
    }

    /// (delivered, rejected) counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.delivered, self.rejected)
    }
}
