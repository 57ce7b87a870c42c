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
//! 2. *Per-peer pinning* — a peer's reassembly state lives on exactly
//!    one RX shard and never migrates; per-peer framing order equals the
//!    single-thread order.
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
use endbox_vpn::proto::{Opcode, Record};
use endbox_vpn::server::{ServerEvent, VpnServer};
use endbox_vpn::shard::{materialize_frames, DispatchPolicy, ShardEvent, ShardedVpnServer};
use endbox_vpn::VpnError;
use std::collections::HashMap;
use std::thread::JoinHandle;

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
    /// Detach `peer`'s reassembler (with any in-flight partial records)
    /// so the peer can be re-homed to another RX shard. Only sent
    /// between receive batches — the extract round-trip is the remap's
    /// quiesce point: when the reply arrives, this shard has processed
    /// every datagram of the peer it was ever given.
    ExtractPeer { peer: u64 },
    /// Adopt a re-homed peer's reassembly state.
    InstallPeer {
        peer: u64,
        reassembler: Box<Reassembler>,
    },
    /// Surrender **every** peer's reassembly state (with any in-flight
    /// partial records) for a structural resize. Like
    /// [`RxRequest::ExtractPeer`] this is only sent between receive
    /// batches; the round-trip is the resize's quiesce point — when the
    /// reply arrives this shard has framed every datagram it was ever
    /// given and holds no peer state at all.
    ExtractAllPeers,
    /// Report this shard's [`RxShardStats`].
    Stats,
    /// Exit the RX loop.
    Shutdown,
}

enum RxReply {
    Event(RxEvent),
    /// A peer's detached reassembly state (`None` if the peer never sent
    /// this shard a datagram); `pending` counts the partial records that
    /// were drained along (in flight at the quiesce point).
    PeerState {
        pending: usize,
        reassembler: Option<Box<Reassembler>>,
    },
    /// Every peer this shard owned, in ascending peer order:
    /// `(peer, in-flight partial records, reassembler)`. The shard that
    /// sent this holds no peer state afterwards.
    AllPeers {
        shard: usize,
        peers: Vec<(u64, usize, Box<Reassembler>)>,
    },
    Stats {
        shard: usize,
        stats: RxShardStats,
    },
    /// The shard's thread panicked. Sibling shards keep the shared reply
    /// channel open, so without this marker a dead shard would make the
    /// front-end block forever instead of failing loudly.
    ShardDead {
        shard: usize,
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
    /// Live per-peer reassemblers pinned to this shard.
    pub peers: usize,
    /// Times this shard paused on a Disconnect awaiting its verdict.
    pub disconnect_pauses: u64,
}

/// One RX shard: per-peer datagram reassembly and record framing on a
/// dedicated thread, streaming parsed records to the front-end so framing
/// overlaps with shard crypto. Reassembly state is **pinned** here — it
/// is per-peer, not per-session, and never migrates with a session.
fn rx_shard_loop(
    shard: usize,
    rx: crossbeam::channel::Receiver<RxRequest>,
    tx: &crossbeam::channel::UnboundedSender<RxReply>,
    meter: CycleMeter,
    cost: CostModel,
    stall_micros: std::sync::Arc<std::sync::atomic::AtomicU64>,
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
                    let stall = stall_micros.load(std::sync::atomic::Ordering::Relaxed);
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
                    if tx
                        .send(RxReply::Event(RxEvent { idx, peer, outcome }))
                        .is_err()
                    {
                        return;
                    }
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
            RxRequest::ExtractPeer { peer } => {
                let reassembler = reassemblers.remove(&peer);
                let pending = reassembler.as_ref().map_or(0, Reassembler::pending);
                if tx
                    .send(RxReply::PeerState {
                        pending,
                        reassembler: reassembler.map(Box::new),
                    })
                    .is_err()
                {
                    return;
                }
            }
            RxRequest::InstallPeer { peer, reassembler } => {
                let prior = reassemblers.insert(peer, *reassembler);
                debug_assert!(
                    prior.is_none(),
                    "remap must extract before it installs; peer {peer} already lives here"
                );
            }
            RxRequest::ExtractAllPeers => {
                let mut peers: Vec<(u64, usize, Box<Reassembler>)> = reassemblers
                    .drain()
                    .map(|(peer, reasm)| {
                        let pending = reasm.pending();
                        (peer, pending, Box::new(reasm))
                    })
                    .collect();
                peers.sort_unstable_by_key(|&(peer, _, _)| peer);
                if tx.send(RxReply::AllPeers { shard, peers }).is_err() {
                    return;
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
                if tx.send(RxReply::Stats { shard, stats }).is_err() {
                    return;
                }
            }
            RxRequest::Shutdown => return,
        }
    }
}

/// The sharded RX front-end: `K` RX threads, each owning the per-peer
/// reassembly state of the peers with `peer_id mod K == shard`.
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
/// * Reassembly state is pinned to its RX shard and never migrates; a
///   Disconnect pauses **only the owning shard** until the front-end
///   reports the session-layer verdict, so reassembler teardown sequences
///   exactly like the single-threaded server while sibling shards keep
///   framing.
pub struct RxShardPool {
    requests: Vec<crossbeam::channel::UnboundedSender<RxRequest>>,
    replies: crossbeam::channel::Receiver<RxReply>,
    /// Sending half of the shared reply channel plus the meter/cost
    /// handles, kept so [`RxShardPool::resize`] can spawn fresh shard
    /// threads at runtime (each thread holds its own clones).
    replies_tx: crossbeam::channel::UnboundedSender<RxReply>,
    meter: CycleMeter,
    cost: CostModel,
    joins: Vec<JoinHandle<()>>,
    stalls: Vec<std::sync::Arc<std::sync::atomic::AtomicU64>>,
    /// Live remap overrides: peers whose reassembly state has been
    /// re-homed away from their static `peer_id mod K` shard.
    overrides: HashMap<u64, usize>,
}

impl std::fmt::Debug for RxShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RxShardPool")
            .field("shards", &self.requests.len())
            .finish()
    }
}

impl RxShardPool {
    fn new(shards: usize, meter: &CycleMeter, cost: &CostModel) -> RxShardPool {
        let shards = shards.max(1);
        let (replies_tx, replies) = crossbeam::channel::unbounded();
        let mut pool = RxShardPool {
            requests: Vec::with_capacity(shards),
            replies,
            replies_tx,
            meter: meter.clone(),
            cost: cost.clone(),
            joins: Vec::with_capacity(shards),
            stalls: Vec::with_capacity(shards),
            overrides: HashMap::new(),
        };
        for shard in 0..shards {
            pool.spawn_shard(shard);
        }
        pool
    }

    /// Spawns one RX shard thread feeding the shared reply channel.
    fn spawn_shard(&mut self, shard: usize) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let stall = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (reply_tx, m, c, s) = (
            self.replies_tx.clone(),
            self.meter.clone(),
            self.cost.clone(),
            stall.clone(),
        );
        let join = std::thread::Builder::new()
            .name(format!("endbox-rx-{shard}"))
            .spawn(move || {
                // A panicking shard must announce its death: its
                // sibling shards keep the shared reply channel open,
                // so the front-end would otherwise wait forever for
                // the dead shard's remaining events.
                let loop_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    rx_shard_loop(shard, rx, &reply_tx, m, c, s)
                }));
                if loop_result.is_err() {
                    let _ = reply_tx.send(RxReply::ShardDead { shard });
                }
            })
            .expect("spawn RX shard");
        self.requests.push(tx);
        self.joins.push(join);
        self.stalls.push(stall);
    }

    /// Number of RX shards.
    pub fn shard_count(&self) -> usize {
        self.requests.len()
    }

    /// The shard owning `peer`'s reassembly state: a live remap override
    /// if one exists, else the static `peer_id mod K` home.
    pub fn shard_of(&self, peer: u64) -> usize {
        let home = (peer % self.requests.len() as u64) as usize;
        self.overrides.get(&peer).copied().unwrap_or(home)
    }

    /// Re-homes `peer`'s reassembly state to RX shard `to`, returning the
    /// number of in-flight partial records drained along with it.
    ///
    /// Must only be called between receive batches (the same quiescence
    /// discipline as a stats query). The extract round-trip is the
    /// remap's drain point: when the old shard replies it has framed
    /// every datagram the peer was ever routed to it, so moving the
    /// owned [`Reassembler`] wholesale is invisible in the record stream
    /// — byte-identical to the peer having been homed on `to` all along.
    pub fn remap_peer(&mut self, peer: u64, to: usize) -> usize {
        let to = to % self.requests.len();
        let from = self.shard_of(peer);
        if from == to {
            return 0;
        }
        self.requests[from]
            .send(RxRequest::ExtractPeer { peer })
            .expect("RX shard alive");
        let (pending, reassembler) = match self.replies.recv().expect("RX shard alive") {
            RxReply::PeerState {
                pending,
                reassembler,
            } => (pending, reassembler),
            RxReply::ShardDead { shard } => panic!("RX shard {shard} died"),
            _ => unreachable!("no receive batch is in flight during a remap"),
        };
        if let Some(reassembler) = reassembler {
            self.requests[to]
                .send(RxRequest::InstallPeer { peer, reassembler })
                .expect("RX shard alive");
        }
        if to == (peer % self.requests.len() as u64) as usize {
            self.overrides.remove(&peer);
        } else {
            self.overrides.insert(peer, to);
        }
        pending
    }

    /// Grows or shrinks the pool to `shards` RX threads online, returning
    /// `(peers rehashed, in-flight partial records drained along)`.
    ///
    /// The rehash uses the same quiesce/drain/install discipline as
    /// [`RxShardPool::remap_peer`], generalised to every peer at once:
    ///
    /// 1. **Quiesce + drain**: every existing shard surrenders its whole
    ///    peer map via a blocking `RxRequest::ExtractAllPeers`
    ///    round-trip — when the replies are in, each shard has framed
    ///    every datagram it was ever given and owns no peer state.
    /// 2. **Retire/spawn**: shrinking shuts down and joins the doomed
    ///    tail threads (they are already empty — retiring shards drain to
    ///    their successors before their thread exits); growing spawns the
    ///    new ones.
    /// 3. **Install**: each peer's reassembler (with any in-flight
    ///    partial records and replay-relevant framing state) is installed
    ///    at its static home under the **new** modulus, in ascending peer
    ///    order. Remap overrides do not survive a resize — the demand
    ///    pattern that motivated them predates the capacity change.
    ///
    /// Must only be called between receive batches. A resize is invisible
    /// in the record stream: byte-identical to the new geometry having
    /// been configured from the start (pinned by `tests/elastic_resize.rs`).
    pub fn resize(&mut self, shards: usize) -> (usize, usize) {
        let new = shards.max(1);
        let old = self.requests.len();
        if new == old {
            return (0, 0);
        }
        let mut extracted: Vec<(usize, u64, usize, Box<Reassembler>)> = Vec::new();
        for tx in &self.requests {
            tx.send(RxRequest::ExtractAllPeers).expect("RX shard alive");
        }
        for _ in 0..old {
            match self.replies.recv().expect("RX shard alive") {
                RxReply::AllPeers { shard, peers } => extracted.extend(
                    peers
                        .into_iter()
                        .map(|(peer, pending, reasm)| (shard, peer, pending, reasm)),
                ),
                RxReply::ShardDead { shard } => panic!("RX shard {shard} died"),
                _ => unreachable!("no receive batch is in flight during a resize"),
            }
        }
        if new > old {
            for shard in old..new {
                self.spawn_shard(shard);
            }
        } else {
            for tx in self.requests.drain(new..) {
                let _ = tx.send(RxRequest::Shutdown);
            }
            for join in self.joins.drain(new..) {
                let _ = join.join();
            }
            self.stalls.truncate(new);
        }
        self.overrides.clear();
        extracted.sort_unstable_by_key(|&(_, peer, _, _)| peer);
        let (mut moved, mut drained) = (0, 0);
        for (from, peer, pending, reassembler) in extracted {
            let to = (peer % new as u64) as usize;
            self.requests[to]
                .send(RxRequest::InstallPeer { peer, reassembler })
                .expect("RX shard alive");
            if to != from {
                moved += 1;
                drained += pending;
            }
        }
        (moved, drained)
    }

    /// Test hook: make RX shard `shard` sleep `micros` before each
    /// datagram it frames. The deterministic-schedule harness uses this to
    /// force specific cross-shard arrival orders at the re-merge; the
    /// datapath itself never sets it.
    pub fn set_stall_micros(&self, shard: usize, micros: u64) {
        self.stalls[shard].store(micros, std::sync::atomic::Ordering::Relaxed);
    }

    /// Snapshot of every shard's counters, indexed by shard.
    fn stats(&self) -> Vec<RxShardStats> {
        for tx in &self.requests {
            tx.send(RxRequest::Stats).expect("RX shard alive");
        }
        let mut out = vec![RxShardStats::default(); self.requests.len()];
        for _ in 0..self.requests.len() {
            match self.replies.recv().expect("RX shard alive") {
                RxReply::Stats { shard, stats } => out[shard] = stats,
                RxReply::ShardDead { shard } => panic!("RX shard {shard} died"),
                RxReply::Event(_) | RxReply::PeerState { .. } | RxReply::AllPeers { .. } => {
                    unreachable!(
                        "no receive batch, remap, or resize is in flight during a stats query"
                    )
                }
            }
        }
        out
    }
}

impl Drop for RxShardPool {
    fn drop(&mut self) {
        for tx in &self.requests {
            let _ = tx.send(RxRequest::Shutdown);
        }
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
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
///    reassembly and record framing, sharded by `peer_id mod K`.
///    Reassembly state is pinned to its RX shard and never migrates.
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
    /// Builds the server with `workers` shard threads (minimum 1), one RX
    /// shard and the default load-aware dispatch policy.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::NotReady`] if a server-side Click configuration is
    /// supplied (only the centralised baseline carries one).
    pub fn new(
        cfg: EndBoxServerConfig,
        workers: usize,
    ) -> Result<ShardedEndBoxServer, EndBoxError> {
        Self::with_dispatch(cfg, workers, DispatchPolicy::default())
    }

    /// Builds the server with an explicit [`DispatchPolicy`] and one RX
    /// shard.
    ///
    /// # Errors
    ///
    /// See [`ShardedEndBoxServer::new`].
    pub fn with_dispatch(
        cfg: EndBoxServerConfig,
        workers: usize,
        dispatch: DispatchPolicy,
    ) -> Result<ShardedEndBoxServer, EndBoxError> {
        Self::with_pipeline(cfg, workers, dispatch, 1)
    }

    /// Builds the fully-knobbed pipeline: `workers` crypto shard threads,
    /// `rx_shards` RX framing threads (minimum 1 each) and an explicit
    /// [`DispatchPolicy`].
    ///
    /// # Errors
    ///
    /// See [`ShardedEndBoxServer::new`].
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
                self.rx.requests[shard]
                    .send(RxRequest::Batch(batch))
                    .expect("RX shard alive");
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
            let RxEvent { idx, peer, outcome } = match self
                .rx
                .replies
                .recv()
                .expect("an RX shard is alive")
            {
                RxReply::Event(event) => event,
                RxReply::ShardDead { shard } => {
                    panic!("RX shard {shard} died mid-receive")
                }
                RxReply::Stats { .. } | RxReply::PeerState { .. } | RxReply::AllPeers { .. } => {
                    unreachable!("no stats query, remap, or resize is in flight during a receive")
                }
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
                            self.rx.requests[self.rx.shard_of(peer)]
                                .send(RxRequest::Teardown { peer, confirmed })
                                .expect("RX shard alive");
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

/// Counters of the TX-batching egress stage ([`TxBatcher`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TxBatchStats {
    /// Datagrams accepted by [`TxBatcher::enqueue`].
    pub enqueued: u64,
    /// Datagrams shipped onto the wire.
    pub sent: u64,
    /// [`TxBatcher::flush`] calls.
    pub flushes: u64,
    /// Bulk `send_many` calls issued (each one "syscall").
    /// `sent / io_calls` is the egress syscall amortisation — the TX
    /// mirror of [`AsyncIngressStats::io_calls`].
    pub io_calls: u64,
    /// `send_many` calls that shipped only part of their batch (OS
    /// socket backpressure; the tail stayed queued for the next flush).
    pub partial_sends: u64,
}

/// The TX-batching egress stage: collects the fragments the server
/// produces towards clients ([`ShardedEndBoxServer::send_to_client`] /
/// [`ShardedEndBoxServer::send_batch_to_client`]) into per-destination
/// queues and ships each queue with **one** bulk
/// [`UdpEndpoint::send_many`](endbox_netsim::net::UdpEndpoint::send_many)
/// call per flush — the `sendmmsg` shape on the egress side, replacing
/// per-datagram `send_to` writes.
///
/// # Ordering and partial sends
///
/// Per-destination FIFO order is preserved unconditionally: a queue is
/// only ever appended to, and `send_many` ships a prefix. A partial send
/// (OS-socket backpressure) leaves the unshipped tail **at the head of
/// its queue** for the next flush; nothing is reordered or dropped, and
/// [`TxBatchStats::partial_sends`] counts the occurrences. Destinations
/// flush in first-enqueue order, mirroring the wire-order discipline of
/// the ingress side.
#[derive(Debug)]
pub struct TxBatcher {
    endpoint: endbox_netsim::net::UdpEndpoint,
    /// Per-destination queues in first-enqueue order (a `Vec`, not a
    /// `HashMap`, to keep flush order deterministic; destination counts
    /// are small — one per connected peer at most).
    queues: Vec<(u64, Vec<Vec<u8>>)>,
    stats: TxBatchStats,
}

impl TxBatcher {
    /// A batcher sending through `endpoint` (typically the server's
    /// dedicated TX socket).
    pub fn new(endpoint: endbox_netsim::net::UdpEndpoint) -> TxBatcher {
        TxBatcher {
            endpoint,
            queues: Vec::new(),
            stats: TxBatchStats::default(),
        }
    }

    /// The endpoint this batcher sends through.
    pub fn endpoint(&self) -> &endbox_netsim::net::UdpEndpoint {
        &self.endpoint
    }

    /// Queues `datagrams` for `dst`, preserving order behind anything
    /// already queued there.
    pub fn enqueue(&mut self, dst: u64, datagrams: impl IntoIterator<Item = Vec<u8>>) {
        let queue = match self.queues.iter_mut().find(|(d, _)| *d == dst) {
            Some((_, q)) => q,
            None => {
                self.queues.push((dst, Vec::new()));
                &mut self.queues.last_mut().expect("just pushed").1
            }
        };
        let before = queue.len();
        queue.extend(datagrams);
        self.stats.enqueued += (queue.len() - before) as u64;
    }

    /// Datagrams queued and not yet shipped.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(|(_, q)| q.len()).sum()
    }

    /// Ships every queue with one bulk call each, in first-enqueue
    /// order. Returns the number of datagrams shipped; tails that hit
    /// backpressure stay queued (see the type docs).
    ///
    /// # Errors
    ///
    /// [`endbox_netsim::net::NetError::Unreachable`] if a destination
    /// has no bound endpoint (its queue is left intact; earlier
    /// destinations' sends stand).
    pub fn flush(&mut self) -> Result<usize, endbox_netsim::net::NetError> {
        self.stats.flushes += 1;
        let mut shipped = 0;
        for (dst, queue) in &mut self.queues {
            if queue.is_empty() {
                continue;
            }
            self.stats.io_calls += 1;
            let sent = self.endpoint.send_many(*dst, queue)?;
            shipped += sent;
            self.stats.sent += sent as u64;
            if !queue.is_empty() {
                self.stats.partial_sends += 1;
            }
        }
        self.queues.retain(|(_, q)| !q.is_empty());
        Ok(shipped)
    }

    /// Egress counters.
    pub fn stats(&self) -> TxBatchStats {
        self.stats
    }
}
