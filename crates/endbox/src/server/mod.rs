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
//! Both servers are one type, [`Server`], over one front-end
//! [`VpnServer`] (the handshake responder and every session's send half)
//! and a stage. They run the same three steps per datagram — **frame**
//! (`RxShard::frame`), **open** (the one record handler,
//! `VpnShard::handle_record_delivery`), **deliver** (`Server::deliver`,
//! the one place an event becomes a [`Delivery`] and
//! `delivered`/`rejected` move) — and share one control surface. They
//! differ only in where the first two steps run:
//!
//! * [`EndBoxServer`] — the single-threaded reference: one inline
//!   `RxShard` under the `VpnServer`, the three steps run to completion
//!   per datagram in strict input order; no thread, no channel. It is
//!   the *oracle* every concurrent deployment is compared against, and
//!   it alone may carry a server-side Click (the OpenVPN+Click
//!   baseline), applied as a filter inside the deliver step.
//! * [`ShardedEndBoxServer`] — the scaled deployment: `C`
//!   run-to-completion shards, each framing and opening for the peers
//!   placed on it (`peer_id mod C` unless a law moved one), optionally
//!   fed by an event-driven socket front-end ([`AsyncFrontEnd`], one poll
//!   group over every peer's socket).
//!
//! # Parity rules
//!
//! The sharded server is **byte-identical** to [`EndBoxServer`] for any
//! `C` and any thread schedule. Three rules carry the proof, each pinned
//! by tests:
//!
//! 1. *Sessions bind to a peer.* A session is bound to the peer of its
//!    first authenticated record, on both servers; until then it waits
//!    unbound in the front-end's `VpnServer`, afterwards it lives on its
//!    peer's shard, and a record from any other peer is `UnknownSession`
//!    (`endbox_vpn::shard`, `tests/session_binding.rs`).
//! 2. *Escalation in input order.* A shard hands handshakes and records
//!    for possibly-unbound sessions to the front-end and waits; the
//!    front-end answers the lowest waiting input index once every shard
//!    with work is waiting or done, and re-merges every outcome by input
//!    index (`tests/shard_parity.rs`, `tests/rx_interleaving.rs`).
//! 3. *One relocation.* A peer's reassembler and its bound sessions move
//!    together, between receive batches only, through one `migrate` that
//!    the dispatch law, the resize law and the manual re-home all call
//!    (`tests/elastic_resize.rs`, `tests/adaptive_control.rs`).
//!
//! The event-driven front-end adds that drained datagrams are re-merged
//! by wire arrival stamp (`tests/async_ingress.rs`). The full walk-through
//! lives in `docs/architecture.md` at the repository root.
//!
//! # Layout
//!
//! This file holds what both flavours share: the configuration,
//! [`Delivery`], the metered I/O formulas and [`Server`]. The frame step
//! and the shard thread are in `rx`, the reference server in
//! `reference`, the sharded one and its placement law (the dispatch law)
//! in `dispatch`, the socket front-end and its drain rule in `frontend`,
//! the resize law in `control`; all are re-exported here. Egress has no
//! stage of its own: the scenario ships the fragments a seal returns
//! with [`endbox_netsim::net::UdpEndpoint::send_all`].

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
use endbox_vpn::proto::Record;
use endbox_vpn::server::VpnServer;
use endbox_vpn::shard::{ConfigPolicy, ShardEvent};
use endbox_vpn::VpnError;
use rx::{Outcome, RxShard};

mod control;
mod dispatch;
mod frontend;
mod reference;
mod rx;

pub use control::{
    RESIZE_COOLDOWN_ROUNDS, RESIZE_GROW_ROUNDS, RESIZE_MAX_SHARDS, RESIZE_SHRINK_ROUNDS,
    RESIZE_TARGET_DEMAND,
};
pub use dispatch::{ResizeStats, ShardedEndBoxServer};
pub use frontend::{AsyncFrontEnd, AsyncIngressStats, DEFAULT_SHARD_BUDGET};
pub use reference::EndBoxServer;
pub use rx::ShardStats;

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

/// The sessions a server keeps off its front-end [`VpnServer`]: none on
/// the reference, the bound ones on the sharded server's shard threads.
/// Everything above it is written once, on [`Server`].
trait ShardSessions {
    /// Hands a new config policy to wherever those sessions live.
    fn replicate(&mut self, policy: ConfigPolicy);
    /// Appends their ids to `out`.
    fn ids(&self, out: &mut Vec<u64>);
    fn count(&self) -> usize;
    /// The config version one of them has proved (a cross-thread query
    /// on the sharded server, hence `&mut`).
    fn config_version(&mut self, session_id: u64) -> Option<u64>;
}

impl ShardSessions for RxShard {
    fn replicate(&mut self, _: ConfigPolicy) {}
    fn ids(&self, _: &mut Vec<u64>) {}
    fn count(&self) -> usize {
        0
    }
    fn config_version(&mut self, _: u64) -> Option<u64> {
        None
    }
}

/// The EndBox server over a stage `Rx`: [`EndBoxServer`] is the inline
/// instantiation, [`ShardedEndBoxServer`] the sharded one. What is
/// written here — the front-end `VpnServer`, the deliver step and the
/// whole control surface — exists once, so the parity reference and the
/// system under test cannot drift apart in it.
pub struct Server<Rx> {
    vpn: VpnServer,
    rx: Rx,
    io: ServerIo,
    /// Server-side Click (the OpenVPN+Click baseline of §V); only the
    /// reference is ever built with one.
    click: Option<Router>,
    delivered: u64,
    click_dropped: u64,
    rejected: u64,
}

impl<Rx> Server<Rx> {
    fn assemble(vpn: VpnServer, rx: Rx, click: Option<Router>, io: ServerIo) -> Self {
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

    /// What one datagram's outcome comes to for the caller: the deliver
    /// step for a record it completed, else the frame step's verdict.
    fn finish(&mut self, outcome: Outcome) -> Result<Delivery, EndBoxError> {
        match outcome {
            Outcome::Opened(event) => self.deliver(event),
            Outcome::Pending => Ok(Delivery::Pending),
            Outcome::Reassembly(e) => {
                self.rejected += 1;
                Err(EndBoxError::Vpn(e))
            }
            Outcome::Malformed(e) => Err(EndBoxError::Vpn(e)),
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
                if self.click.is_some() {
                    packet = self
                        .click_step(vec![packet])
                        .pop()
                        .ok_or(EndBoxError::PacketDropped)?;
                }
                self.io.charge_delivery(1);
                self.delivered += 1;
                Ok(Delivery::Packet { session_id, packet })
            }
            ShardEvent::Batch { session_id, batch } => {
                let packets = self.click_step(batch);
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
            // Reassembler teardown is the frame step's job, on whichever
            // thread owns the peer.
            ShardEvent::Disconnected { session_id } => Ok(Delivery::Disconnected { session_id }),
        }
    }

    /// The server-side Click step: the packets cross to the Click process
    /// at once, and those it drops are filtered out (and counted). With no
    /// server-side Click they pass through untouched.
    fn click_step(&mut self, packets: Vec<Packet>) -> Vec<Packet> {
        let Some(click) = self.click.as_mut() else {
            return packets;
        };
        let total: usize = packets.iter().map(Packet::len).sum();
        self.io.charge_click_handoff(packets.len(), total);
        let n = packets.len();
        let out = click.process_batch(packets);
        self.click_dropped += (n - out.accepted) as u64;
        out.into_first_emissions()
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

// `ShardSessions` is private on purpose: the two stages are fixed here,
// and callers see plain inherent methods on either server.
#[allow(private_bounds)]
impl<Rx: ShardSessions> Server<Rx> {
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
        let record = self
            .vpn
            .seal_batch_to_client(session_id, packets.iter().map(Packet::bytes))?;
        Ok(self.io.fragment(&record))
    }

    /// Announces a configuration update (Fig. 5 steps 2–3) to every
    /// session, wherever it lives.
    pub fn announce_config(&mut self, version: u64, grace_period_secs: u32) {
        let now_secs = self.io.now_secs();
        self.vpn
            .announce_config(version, grace_period_secs, now_secs);
        self.rx.replicate(self.vpn.policy());
    }

    /// Builds the periodic server ping for a session (Fig. 5 step 4).
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Vpn`] for unknown sessions.
    pub fn make_ping(&mut self, session_id: u64) -> Result<Vec<Vec<u8>>, EndBoxError> {
        let now_ns = self.io.clock.now().as_nanos();
        let record = self.vpn.make_ping(session_id, now_ns)?;
        Ok(self.io.fragment(&record))
    }

    /// Connected session ids, ascending.
    pub fn session_ids(&self) -> Vec<u64> {
        let mut ids = self.vpn.session_ids();
        self.rx.ids(&mut ids);
        ids.sort_unstable();
        ids
    }

    /// Connected client count.
    pub fn session_count(&self) -> usize {
        self.vpn.session_count() + self.rx.count()
    }

    /// The config version a session has proved via ping.
    pub fn client_config_version(&mut self, session_id: u64) -> Option<u64> {
        match self.vpn.session(session_id) {
            Some(session) => Some(session.reported_config_version),
            None => self.rx.config_version(session_id),
        }
    }
}
