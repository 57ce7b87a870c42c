//! The EndBox server: the sole entry point into the managed network.
//!
//! Only traffic sealed by a correctly attested client decrypts here, so
//! bypassing the client-side middlebox yields traffic the firewall drops
//! (§III-A, R2). The server also sanitises the client-to-client QoS flag
//! on packets entering from outside ("the ENDBOX server removes the QoS
//! byte if it is set to 0xeb", §IV-A) and optionally runs a *server-side*
//! Click instance (the OpenVPN+Click baseline of §V).
//!
//! # Two flavours, one body
//!
//! Both servers are one type, [`Server`], over a session layer and an RX
//! stage. They run the same three steps per datagram — **frame** (the
//! RX stage's `RxShard::frame`), **open** (the one record handler,
//! `VpnShard::handle_record_delivery`), **deliver** (`Server::deliver`,
//! the one place an event becomes a [`Delivery`] and
//! `delivered`/`rejected` move) — and share one control surface. They
//! differ only in where the steps run:
//!
//! * [`EndBoxServer`] — the single-threaded reference: one inline
//!   `VpnServer` under one inline `RxShard`, the three steps run to
//!   completion per datagram in strict input order; no thread, no
//!   channel. It is the *oracle* every concurrent deployment is compared
//!   against, and it alone may carry a server-side Click (the
//!   OpenVPN+Click baseline), applied as a filter inside the deliver
//!   step.
//! * [`ShardedEndBoxServer`] — the scaled deployment: the frame step on
//!   `K` RX threads ([`RxShardPool`], `peer_id mod K`), a re-merging
//!   dispatch stage, the open step on `N` worker shards
//!   (`endbox_vpn::shard`), optionally fed by an event-driven socket
//!   front-end ([`AsyncFrontEnd`], one poll group per RX shard).
//!
//! # Ordering / parity invariants
//!
//! The sharded server is **byte-identical** to [`EndBoxServer`] for any
//! `(rx_shards, workers)` and any thread schedule.
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
//!    datagrams by wire arrival stamp; per-peer order is exact however
//!    backpressure splits a flood across rounds
//!    (`tests/async_ingress.rs`).
//!
//! The full walk-through lives in `docs/architecture.md` at the
//! repository root.
//!
//! # Layout
//!
//! This file holds what both flavours share: the configuration,
//! [`Delivery`], the metered I/O formulas and [`Server`]. The RX
//! stage is in `rx`, the reference server in `reference`, the sharded
//! one in `dispatch`, the socket front-end in `frontend`, the laws that
//! steer it (budgets, token buckets, remap, resize) in `control`, the
//! TX-batching egress stage in `tx`; all are re-exported here.

use crate::error::EndBoxError;
use endbox_click::Router;
use endbox_netsim::cost::{CostModel, CycleMeter};
use endbox_netsim::packet::QOS_ENDBOX_PROCESSED;
use endbox_netsim::time::SharedClock;
use endbox_netsim::Packet;
use endbox_vpn::channel::CipherSuite;
use endbox_vpn::frag::Fragmenter;
use endbox_vpn::handshake::HandshakeConfig;
use endbox_vpn::ping::PingMessage;
use endbox_vpn::proto::{Opcode, Record};
use endbox_vpn::server::VpnServer;
use endbox_vpn::shard::{ShardEvent, ShardedVpnServer};
use endbox_vpn::VpnError;
use rx::RxOutcome;

mod control;
mod dispatch;
mod frontend;
mod reference;
mod rx;
mod tx;

pub use control::{
    ControllerStats, DEFAULT_SHARD_BUDGET, RESIZE_COOLDOWN_ROUNDS, RESIZE_GROW_ROUNDS,
    RESIZE_MAX_RX, RESIZE_SHRINK_ROUNDS, RESIZE_TARGET_DEMAND, RESIZE_WORKERS_PER_SHARD,
};
pub use dispatch::{ResizeStats, ShardedEndBoxServer, RX_DISPATCH_CHUNK};
pub use frontend::{AsyncFrontEnd, AsyncIngressStats, DEFAULT_RECV_BULK};
pub use reference::EndBoxServer;
pub use rx::{RxShardPool, RxShardStats};
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
/// fragmentation and the metered cycle-cost formulas for delivering and
/// sealing traffic (receipt is charged by the frame step, in
/// `RxShard::frame`). Keeping the formulas in one place
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

    /// Charges delivery into the managed network: one tun write per
    /// packet.
    fn charge_delivery(&self, n_packets: usize) {
        self.meter.add(self.cost.vpn_per_write * n_packets as u64);
    }

    /// Charges handing `n_packets` totalling `total_bytes` to the
    /// server-side Click process and back: the fetch copies per packet
    /// and byte, the inter-process crossing once per hand-off.
    fn charge_click_handoff(&self, n_packets: usize, total_bytes: usize) {
        self.meter.add(
            self.cost.click_fetch_per_packet * n_packets as u64
                + self.cost.click_ipc_per_packet
                + (self.cost.click_fetch_per_byte * total_bytes as f64) as u64,
        );
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

/// What a server needs from the session layer under it. The inline
/// [`VpnServer`] and the threaded [`ShardedVpnServer`] both provide it,
/// so everything above them is written once, on [`Server`].
trait SessionLayer {
    fn seal(&mut self, session_id: u64, opcode: Opcode, payload: &[u8])
        -> Result<Record, VpnError>;
    fn seal_batch(&mut self, session_id: u64, payloads: &[&[u8]]) -> Result<Record, VpnError>;
    fn announce(&mut self, version: u64, grace_period_secs: u32, now_secs: u64);
    fn ping(&mut self, session_id: u64, now_ns: u64) -> Result<Record, VpnError>;
    fn ids(&self) -> Vec<u64>;
    fn count(&self) -> usize;
    /// The config version a session has proved via ping (a cross-thread
    /// query on the sharded layer, hence `&mut`).
    fn config_version(&mut self, session_id: u64) -> Option<u64>;
}

impl SessionLayer for VpnServer {
    fn seal(&mut self, sid: u64, opcode: Opcode, payload: &[u8]) -> Result<Record, VpnError> {
        self.seal_to_client(sid, opcode, payload)
    }
    fn seal_batch(&mut self, sid: u64, payloads: &[&[u8]]) -> Result<Record, VpnError> {
        self.seal_batch_to_client(sid, payloads)
    }
    fn announce(&mut self, version: u64, grace_period_secs: u32, now_secs: u64) {
        self.announce_config(version, grace_period_secs, now_secs);
    }
    fn ping(&mut self, sid: u64, now_ns: u64) -> Result<Record, VpnError> {
        self.make_ping(sid, now_ns)
    }
    fn ids(&self) -> Vec<u64> {
        self.session_ids()
    }
    fn count(&self) -> usize {
        self.session_count()
    }
    fn config_version(&mut self, sid: u64) -> Option<u64> {
        self.session(sid).map(|s| s.reported_config_version)
    }
}

impl SessionLayer for ShardedVpnServer {
    fn seal(&mut self, sid: u64, opcode: Opcode, payload: &[u8]) -> Result<Record, VpnError> {
        self.seal_to_client(sid, opcode, payload.to_vec())
    }
    fn seal_batch(&mut self, sid: u64, payloads: &[&[u8]]) -> Result<Record, VpnError> {
        self.seal_batch_to_client(sid, payloads)
    }
    fn announce(&mut self, version: u64, grace_period_secs: u32, now_secs: u64) {
        self.announce_config(version, grace_period_secs, now_secs);
    }
    fn ping(&mut self, sid: u64, now_ns: u64) -> Result<Record, VpnError> {
        self.make_ping(sid, now_ns)
    }
    fn ids(&self) -> Vec<u64> {
        self.session_ids()
    }
    fn count(&self) -> usize {
        self.session_count()
    }
    fn config_version(&mut self, sid: u64) -> Option<u64> {
        self.session_snapshot(sid)
            .map(|s| s.reported_config_version)
    }
}

/// The EndBox server over a session layer `S` and an RX stage `Rx`:
/// [`EndBoxServer`] is the inline instantiation, [`ShardedEndBoxServer`]
/// the threaded one. What is written here — the deliver step and the
/// whole control surface — exists once, so the parity reference and the
/// system under test cannot drift apart in it.
pub struct Server<S, Rx> {
    vpn: S,
    rx: Rx,
    io: ServerIo,
    /// Server-side Click (the OpenVPN+Click baseline of §V); only the
    /// reference is ever built with one.
    click: Option<Router>,
    delivered: u64,
    click_dropped: u64,
    rejected: u64,
}

impl<S, Rx> Server<S, Rx> {
    fn assemble(vpn: S, rx: Rx, click: Option<Router>, io: ServerIo) -> Self {
        Server {
            vpn,
            rx,
            io,
            click,
            delivered: 0,
            click_dropped: 0,
            rejected: 0,
        }
    }

    /// The frame step's verdict, unwrapped: the record to open, or — as
    /// `Err` — the finished result of a datagram that completed none.
    fn framed(&mut self, outcome: RxOutcome) -> Result<Record, Result<Delivery, EndBoxError>> {
        match outcome {
            RxOutcome::Record(record) => Ok(record),
            RxOutcome::Pending => Err(Ok(Delivery::Pending)),
            RxOutcome::Reassembly(e) => {
                self.rejected += 1;
                Err(Err(EndBoxError::Vpn(e)))
            }
            RxOutcome::Malformed(e) => Err(Err(EndBoxError::Vpn(e))),
        }
    }

    /// The deliver step: turns the session layer's verdict on one record
    /// into what the caller sees, running tunnelled packets through the
    /// server-side Click if there is one. Every `delivered`/`rejected`
    /// movement past the frame step happens here.
    fn deliver(&mut self, event: Result<ShardEvent, VpnError>) -> Result<Delivery, EndBoxError> {
        let event = event.map_err(|e| {
            self.rejected += 1;
            EndBoxError::Vpn(e)
        })?;
        match event {
            ShardEvent::Established {
                session_id,
                response,
                ..
            } => Ok(Delivery::Established {
                session_id,
                response: self.io.fragment(&response),
            }),
            ShardEvent::Packet {
                session_id,
                mut packet,
            } => {
                if let Some(click) = self.click.as_mut() {
                    self.io.charge_click_handoff(1, packet.len());
                    let out = click.process(packet);
                    if !out.accepted {
                        self.click_dropped += 1;
                        return Err(EndBoxError::PacketDropped);
                    }
                    packet = out.emitted.into_iter().next().expect("accepted");
                }
                self.io.charge_delivery(1);
                self.delivered += 1;
                Ok(Delivery::Packet { session_id, packet })
            }
            ShardEvent::Batch { session_id, batch } => {
                let packets = match self.click.as_mut() {
                    None => batch.into_vec(),
                    // The whole batch crosses to the Click process at
                    // once; packets it drops are filtered out.
                    Some(click) => {
                        let total: usize = batch.iter().map(Packet::len).sum();
                        self.io.charge_click_handoff(batch.len(), total);
                        let n = batch.len();
                        let out = click.process_batch(batch);
                        self.click_dropped += (n - out.accepted) as u64;
                        out.into_first_emissions()
                    }
                };
                self.io.charge_delivery(packets.len());
                self.delivered += packets.len() as u64;
                Ok(Delivery::PacketBatch {
                    session_id,
                    packets,
                })
            }
            ShardEvent::Ping {
                session_id,
                message,
            } => Ok(Delivery::Ping {
                session_id,
                message,
            }),
            // Reassembler teardown is the RX stage's job: it owns the
            // per-peer state and awaits this verdict.
            ShardEvent::Disconnected { session_id } => Ok(Delivery::Disconnected { session_id }),
        }
    }

    /// Sanitises a packet arriving from *outside* the managed network:
    /// clears a spoofed `0xeb` QoS flag so external traffic cannot skip
    /// client-side Click processing (§IV-A).
    pub fn sanitize_external(&self, packet: &mut Packet) {
        if packet.tos() == QOS_ENDBOX_PROCESSED {
            packet.set_tos(0);
        }
    }

    /// (delivered, dropped by the server-side Click, rejected) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.delivered, self.click_dropped, self.rejected)
    }
}

// `SessionLayer` is private on purpose: the two session layers are fixed
// here, and callers see plain inherent methods on either server.
#[allow(private_bounds)]
impl<S: SessionLayer, Rx> Server<S, Rx> {
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
        let record = self.vpn.seal(session_id, Opcode::Data, packet.bytes())?;
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
        let record = self.vpn.seal_batch(session_id, &payloads)?;
        Ok(self.io.fragment(&record))
    }

    /// Announces a configuration update (Fig. 5 steps 2–3) to every
    /// shard of the session layer.
    pub fn announce_config(&mut self, version: u64, grace_period_secs: u32) {
        let now_secs = self.io.now_secs();
        self.vpn.announce(version, grace_period_secs, now_secs);
    }

    /// Builds the periodic server ping for a session (Fig. 5 step 4).
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Vpn`] for unknown sessions.
    pub fn make_ping(&mut self, session_id: u64) -> Result<Vec<Vec<u8>>, EndBoxError> {
        let record = self.vpn.ping(session_id, self.io.clock.now().as_nanos())?;
        Ok(self.io.fragment(&record))
    }

    /// Connected session ids.
    pub fn session_ids(&self) -> Vec<u64> {
        self.vpn.ids()
    }

    /// Connected client count.
    pub fn session_count(&self) -> usize {
        self.vpn.count()
    }

    /// The config version a session has proved via ping.
    pub fn client_config_version(&mut self, session_id: u64) -> Option<u64> {
        self.vpn.config_version(session_id)
    }
}
