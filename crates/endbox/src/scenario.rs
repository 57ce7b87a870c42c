//! Scenario builders wiring up a complete EndBox deployment: IAS, CA,
//! config server, VPN server and N clients (§II-A's enterprise and ISP
//! scenarios).
//!
//! One driver struct, [`Network`], runs over either instantiation of
//! [`crate::server::Server`]:
//!
//! * [`Scenario`] — over the single-threaded reference [`EndBoxServer`]
//!   ([`ScenarioBuilder::build`]);
//! * [`ShardedScenario`] — over the [`ShardedEndBoxServer`]'s
//!   run-to-completion shards ([`ScenarioBuilder::build_sharded`]).
//!
//! Both builds share one setup-and-connect path. The client drivers
//! (`send_from_client`, `send_batch_from_client` and their siblings) are
//! written once, on the generic impl, over one private ingress step:
//! `(peer, datagram)`s in, one `(peer, result)` per datagram out,
//! regrouped per peer. What only the sharded deployment has — manual
//! re-homes, resize, the event-driven socket front-end and the server's TX
//! socket — lives in one impl on [`ShardedScenario`]; what only the reference
//! drives (client-to-client, the Fig. 5 config cycle) in one on
//! [`Scenario`].

use crate::ca::CertificateAuthority;
use crate::client::{EndBoxClient, EndBoxClientConfig, TrustLevel};
use crate::config_update::{ConfigServer, SignedConfig};
use crate::error::EndBoxError;
use crate::server::{
    AsyncFrontEnd, AsyncIngressStats, Delivery, EndBoxServer, EndBoxServerConfig,
    ShardedEndBoxServer,
};
use crate::use_cases::UseCase;
use endbox_crypto::schnorr::SigningKey;
use endbox_netsim::cost::{CostModel, CycleMeter};
use endbox_netsim::net::{OsWire, Transport, TransportKind, UdpEndpoint, VirtualWire};
use endbox_netsim::time::SharedClock;
use endbox_netsim::{Packet, PoolStats};
use endbox_sgx::attestation::{CpuIdentity, IasSimulator};
use endbox_vpn::channel::CipherSuite;
use endbox_vpn::handshake::HandshakeConfig;
use endbox_vpn::{PROTOCOL_V1, PROTOCOL_V2};
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Which §II-A scenario a deployment models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Enterprise network: encrypted configs (IDPS rules hidden from
    /// employees), full packet encryption.
    Enterprise,
    /// ISP network: plaintext configs (customers may inspect rules),
    /// integrity-only traffic protection (§IV-A).
    Isp,
}

/// Builder for a [`Network`] (entry points:
/// [`Scenario::enterprise`] / [`Scenario::isp`]).
///
/// Knobs chain; [`ScenarioBuilder::build`] produces the single-threaded
/// reference [`Scenario`], [`ScenarioBuilder::build_sharded`] the
/// multi-shard [`ShardedScenario`]. The reference has no event
/// loop: `build` rejects [`ScenarioBuilder::async_ingress`],
/// [`ScenarioBuilder::elastic`] and [`ScenarioBuilder::transport`]
/// instead of dropping them, and `build_sharded` rejects a transport
/// without async ingress. See
/// `examples/quickstart.rs` and `examples/enterprise_network.rs` for the
/// long-form versions of these snippets.
///
/// # Example
///
/// ```
/// use endbox::scenario::Scenario;
/// use endbox::use_cases::UseCase;
///
/// // Single-threaded reference deployment: one client, one firewall.
/// let mut s = Scenario::enterprise(1, UseCase::Firewall).build().unwrap();
/// let delivered = s.send_from_client(0, b"hello").unwrap();
/// assert_eq!(delivered.app_payload(), b"hello");
///
/// // Two run-to-completion shards, event-driven socket ingress.
/// let s = Scenario::enterprise(2, UseCase::Nop)
///     .seed(42)
///     .async_ingress(true)
///     .build_sharded(2)
///     .unwrap();
/// assert_eq!(s.server.shard_count(), 2);
/// assert!(s.async_ingress_enabled());
/// ```
#[derive(Debug)]
pub struct ScenarioBuilder {
    kind: ScenarioKind,
    n_clients: usize,
    use_case: UseCase,
    trust: TrustLevel,
    c2c_flagging: bool,
    batched_ecalls: bool,
    seed: u64,
    suite_override: Option<CipherSuite>,
    server_click: Option<String>,
    custom_client_click: Option<String>,
    async_ingress: bool,
    elastic: bool,
    transport: TransportKind,
}

impl ScenarioBuilder {
    /// Protection level for the clients (default hardware).
    pub fn trust(mut self, trust: TrustLevel) -> Self {
        self.trust = trust;
        self
    }

    /// Enables the client-to-client QoS flagging optimisation.
    pub fn c2c_flagging(mut self, on: bool) -> Self {
        self.c2c_flagging = on;
        self
    }

    /// Toggles the one-ecall-per-packet optimisation (§IV-A).
    pub fn batched_ecalls(mut self, on: bool) -> Self {
        self.batched_ecalls = on;
        self
    }

    /// Deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the data-channel suite (the default follows the
    /// scenario kind).
    pub fn suite(mut self, suite: CipherSuite) -> Self {
        self.suite_override = Some(suite);
        self
    }

    /// Attaches a server-side Click instance (the OpenVPN+Click baseline).
    pub fn server_click(mut self, config: &str) -> Self {
        self.server_click = Some(config.to_string());
        self
    }

    /// Replaces the use case's client Click configuration with a custom
    /// one (e.g. a TLSDecrypt + IDS chain for the encrypted-DPI tests).
    pub fn custom_client_click(mut self, config: &str) -> Self {
        self.custom_client_click = Some(config.to_string());
        self
    }

    /// Accepted and ignored. The sharded server's geometry is the one
    /// shard count [`ScenarioBuilder::build_sharded`] takes. The last
    /// caller is the wall-clock benchmark's `exp_wallclock/workload.rs`,
    /// which still spells geometry as two numbers; this setter goes with
    /// that call.
    pub fn rx_shards(self, _: usize) -> Self {
        self
    }

    /// Event-driven socket ingress for a sharded build (default off):
    /// every peer gets a virtual server-side UDP socket registered with
    /// the [`AsyncFrontEnd`]'s one poll group, and the
    /// data-path drivers route wire datagrams through the event loop
    /// instead of calling `receive_datagrams` directly. The
    /// handshake/control path stays call-driven — it is off the fast
    /// path. The event loop adds a per-round budget split evenly over
    /// the sockets holding data; placement stays the dispatch law's,
    /// over the bytes the server routed, exactly as through the
    /// call-driven doorway. See
    /// [`ShardedScenario::pump_async`].
    /// [`ScenarioBuilder::build`] rejects it.
    pub fn async_ingress(mut self, on: bool) -> Self {
        self.async_ingress = on;
        self
    }

    /// Structural elasticity (default off — a fixed geometry). Implies
    /// [`ScenarioBuilder::async_ingress`]: on top of the budget law every
    /// event loop runs, a control round before each poll may grow or
    /// shrink the shard count from the smoothed total socket backlog
    /// (hysteresis and cooldown: [`crate::server::RESIZE_GROW_ROUNDS`]
    /// and its siblings). Only then does the event loop read socket
    /// depths; without it no socket is probed.
    /// The count given to [`ScenarioBuilder::build_sharded`] becomes the
    /// *starting* geometry rather than a fixed one.
    /// [`ScenarioBuilder::build`] rejects it.
    pub fn elastic(mut self, on: bool) -> Self {
        self.elastic = on;
        if on {
            self.async_ingress = true;
        }
        self
    }

    /// Selects the async wire backend (default
    /// [`TransportKind::Virtual`]; any other needs
    /// [`ScenarioBuilder::async_ingress`], and both builds reject it
    /// without). Application-level results are byte-identical across
    /// both backends: over [`OsWire`] (real
    /// loopback UDP; check [`OsWire::available`] where socket creation
    /// may be forbidden) the stamp-carrying wire header preserves the
    /// re-merge ordering contract.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// The one setup-and-connect path of both builds: RNG, clock, IAS,
    /// CA, suite selection, the server `new_server` makes from its
    /// configuration and the published initial Click configuration, then
    /// every client enrolled and connected through `receive` — that
    /// server's call-driven doorway. Also returns the cost model, which
    /// the socket wiring of a sharded build is metered at.
    ///
    /// Rejects a wire backend other than the default without
    /// [`ScenarioBuilder::async_ingress`]: only the event loop has
    /// sockets, so the choice would be dropped silently.
    fn connect<S>(
        &self,
        new_server: impl FnOnce(EndBoxServerConfig) -> Result<S, EndBoxError>,
        mut receive: impl FnMut(&mut S, u64, &[u8]) -> Result<Delivery, EndBoxError>,
    ) -> Result<(Network<S>, CostModel), EndBoxError> {
        if self.transport != TransportKind::Virtual && !self.async_ingress {
            return Err(EndBoxError::NotReady(
                "a wire backend is the event loop's: transport needs async_ingress",
            ));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let clock = SharedClock::new();
        let cost = CostModel::calibrated();
        let ias = IasSimulator::new(&mut rng);
        let mut ca = CertificateAuthority::new(ias.public_key(), &mut rng);

        let suite = self.suite_override.unwrap_or(match self.kind {
            ScenarioKind::Enterprise => CipherSuite::Aes128Gcm,
            ScenarioKind::Isp => CipherSuite::IntegrityOnly,
        });
        let client_click = self
            .custom_client_click
            .clone()
            .unwrap_or_else(|| self.use_case.click_config());

        // VPN server (trusted machine; certificate issued directly).
        let server_meter = CycleMeter::new();
        let server_key = SigningKey::generate(&mut rng);
        let now_secs = clock.now().as_secs_f64() as u64;
        let server_cert = ca.issue_server_certificate(
            "endbox-server",
            server_key.verifying_key(),
            now_secs,
            &mut rng,
        );
        let server_config = EndBoxServerConfig {
            handshake: HandshakeConfig {
                identity: server_key,
                certificate: server_cert,
                ca_public: ca.public_key(),
                min_version: PROTOCOL_V1,
            },
            suite,
            server_click: self.server_click.clone(),
            cost: cost.clone(),
            meter: server_meter.clone(),
            clock: clock.clone(),
            rng_seed: self.seed ^ 0x5e44eu64,
        };

        // Publish the initial configuration (version 1).
        let mut config_server = ConfigServer::new();
        let encrypt = match self.kind {
            ScenarioKind::Enterprise => Some(ca.config_key()),
            ScenarioKind::Isp => None,
        };
        let initial = SignedConfig::publish(
            &client_click,
            1,
            ca.signing_key(),
            encrypt.as_ref(),
            &mut rng,
        );
        config_server.upload(initial);

        let mut network = Network {
            kind: self.kind,
            use_case: self.use_case,
            ias,
            ca,
            server: new_server(server_config)?,
            server_meter,
            config_server,
            clients: Vec::with_capacity(self.n_clients),
            session_ids: Vec::with_capacity(self.n_clients),
            clock,
            rng,
            next_version: 1,
            sockets: None,
        };
        for i in 0..self.n_clients {
            self.connect_client(i, &mut network, suite, &client_click, &cost, &mut receive)?;
        }
        Ok((network, cost))
    }

    /// Enrolls client `i` (Fig. 4), drives its handshake through
    /// `receive` and adds it, with its session id, to `network`.
    fn connect_client<S>(
        &self,
        i: usize,
        network: &mut Network<S>,
        suite: CipherSuite,
        click_config: &str,
        cost: &CostModel,
        receive: &mut impl FnMut(&mut S, u64, &[u8]) -> Result<Delivery, EndBoxError>,
    ) -> Result<(), EndBoxError> {
        let mut cpu_seed = [0u8; 32];
        cpu_seed[..8].copy_from_slice(&(self.seed ^ i as u64).to_be_bytes());
        cpu_seed[8] = 0xcc;
        let cpu = CpuIdentity::from_seed(cpu_seed);
        network.ias.register_platform(cpu.attestation_public());

        let subject = format!("endbox-client-{i}");
        let mut cfg = EndBoxClientConfig::new(&subject, network.ca.public_key(), cpu);
        cfg.trust = self.trust;
        cfg.suite = suite;
        cfg.click_config = Some(click_config.to_string());
        cfg.config_version = 1;
        cfg.offered_version = PROTOCOL_V2;
        cfg.min_version = PROTOCOL_V1;
        cfg.c2c_flagging = self.c2c_flagging;
        cfg.batched_ecalls = self.batched_ecalls;
        cfg.cost = cost.clone();
        cfg.clock = network.clock.clone();
        cfg.rng_seed = self.seed ^ (i as u64) << 8;
        let mut client = EndBoxClient::new(cfg)?;

        // Whitelist this build's measurement once.
        if i == 0 {
            network
                .ca
                .allow_measurement(client.enclave_app().measurement());
        }
        client.enroll(&subject, &mut network.ca, &network.ias, &mut network.rng)?;

        // Connect through the server.
        let hello_frags = client.connect_start()?;
        let mut established = None;
        for frag in &hello_frags {
            match receive(&mut network.server, i as u64, frag)? {
                Delivery::Pending => {}
                Delivery::Established {
                    session_id,
                    response,
                } => {
                    established = Some((session_id, response));
                }
                other => {
                    let _ = other;
                    return Err(EndBoxError::NotReady("unexpected handshake reply"));
                }
            }
        }
        let (session_id, response) =
            established.ok_or(EndBoxError::NotReady("handshake did not complete"))?;
        for frag in &response {
            client.connect_complete(frag)?;
        }
        network.session_ids.push(session_id);
        network.clients.push(client);
        Ok(())
    }

    /// Builds the single-threaded reference scenario: creates the IAS/CA,
    /// enrolls and connects every client.
    ///
    /// # Errors
    ///
    /// Propagates enrollment/handshake failures, plus
    /// [`EndBoxError::NotReady`] if [`ScenarioBuilder::async_ingress`],
    /// [`ScenarioBuilder::elastic`] or a [`ScenarioBuilder::transport`]
    /// was requested (the reference server has no event loop).
    pub fn build(self) -> Result<Scenario, EndBoxError> {
        if self.async_ingress || self.elastic {
            return Err(EndBoxError::NotReady(
                "the reference server has no event loop: async_ingress and elastic need build_sharded",
            ));
        }
        Ok(self
            .connect(EndBoxServer::new, EndBoxServer::receive_datagram)?
            .0)
    }

    /// Builds the scenario around a [`ShardedEndBoxServer`] with `shards`
    /// run-to-completion shard threads — the multi-client sharded
    /// deployment driven by the Fig. 10 scalability harness.
    ///
    /// # Errors
    ///
    /// Propagates enrollment/handshake failures, plus
    /// [`EndBoxError::NotReady`] if a server-side Click was requested
    /// (the sharded server replaces that baseline), or a
    /// [`ScenarioBuilder::transport`] without
    /// [`ScenarioBuilder::async_ingress`].
    ///
    /// # Example
    ///
    /// Four clients through two shards, all batches in one multi-client
    /// receive call (see also `examples/enterprise_network.rs`):
    ///
    /// ```
    /// use endbox::scenario::Scenario;
    /// use endbox::use_cases::UseCase;
    ///
    /// let mut s = Scenario::enterprise(4, UseCase::Firewall)
    ///     .build_sharded(2)
    ///     .unwrap();
    /// let payloads: Vec<Vec<Vec<u8>>> = (0..4)
    ///     .map(|c| (0..3).map(|i| format!("client {c} pkt {i}").into_bytes()).collect())
    ///     .collect();
    /// let delivered = s.send_batches_from_all(&payloads).unwrap();
    /// assert_eq!(delivered.len(), 4);
    /// assert!(delivered.iter().all(|per_client| per_client.len() == 3));
    /// ```
    pub fn build_sharded(self, shards: usize) -> Result<ShardedScenario, EndBoxError> {
        let (mut network, cost) = self.connect(
            |cfg| ShardedEndBoxServer::with_shards(cfg, shards),
            ShardedEndBoxServer::receive_datagram,
        )?;
        if self.async_ingress {
            network.sockets = Some(Sockets::new(
                &network.server_meter,
                cost,
                self.transport,
                self.elastic,
            ));
        }
        Ok(network)
    }
}

/// A running deployment: server + clients + management plane, over
/// either server flavour — see [`Scenario`] and [`ShardedScenario`].
pub struct Network<S> {
    /// Scenario flavour.
    pub kind: ScenarioKind,
    /// Middlebox function deployed.
    pub use_case: UseCase,
    /// Attestation service.
    pub ias: IasSimulator,
    /// Certificate authority.
    pub ca: CertificateAuthority,
    /// The VPN server: [`EndBoxServer`] or [`ShardedEndBoxServer`].
    pub server: S,
    /// Server machine meter (shared with every shard thread of a sharded
    /// server).
    pub server_meter: CycleMeter,
    /// Configuration file server.
    pub config_server: ConfigServer,
    /// Connected clients.
    pub clients: Vec<EndBoxClient>,
    session_ids: Vec<u64>,
    /// Shared simulation clock.
    pub clock: SharedClock,
    rng: rand::rngs::StdRng,
    next_version: u64,
    /// The socket-only wiring (`Some` iff built by
    /// [`ScenarioBuilder::build_sharded`] with
    /// [`ScenarioBuilder::async_ingress`]).
    sockets: Option<Sockets>,
}

/// The single-threaded reference deployment around [`EndBoxServer`].
pub type Scenario = Network<EndBoxServer>;

/// The sharded deployment around [`ShardedEndBoxServer`], with
/// multi-client batched drivers for the Fig. 10 scalability experiments.
pub type ShardedScenario = Network<ShardedEndBoxServer>;

impl<S: std::fmt::Debug> std::fmt::Debug for Network<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("kind", &self.kind)
            .field("use_case", &self.use_case)
            .field("clients", &self.clients.len())
            .field("server", &self.server)
            .finish()
    }
}

/// Port bit distinguishing client-side sockets from server-side ones on
/// the scenario's virtual wire (server port for peer `p` is `p` itself).
const CLIENT_PORT_BIT: u64 = 1 << 63;

/// The server's dedicated TX socket (all egress towards clients leaves
/// through it, shipped with [`UdpEndpoint::send_all`]). Disjoint from
/// both the server-side per-peer ports (small integers) and the
/// client-side ones ([`CLIENT_PORT_BIT`]).
const SERVER_TX_PORT: u64 = 1 << 62;

/// Counters of the server's TX socket
/// ([`ShardedScenario::egress_batch_to_client`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TxBatchStats {
    /// Datagrams shipped onto the wire.
    pub sent: u64,
    /// Bulk `send_many` calls issued — the TX mirror of
    /// [`AsyncIngressStats::io_calls`]. Not a syscall count: the OS
    /// backend makes one `send_to` per datagram in each call.
    pub io_calls: u64,
    /// `send_many` calls that shipped only part of their batch (OS
    /// socket backpressure); [`UdpEndpoint::send_all`] retried the tail
    /// in place.
    pub partial_sends: u64,
}

/// The socket-only wiring of an event-driven sharded deployment
/// ([`ScenarioBuilder::async_ingress`]).
struct Sockets {
    /// The pluggable wire behind the sockets: [`VirtualWire`] by
    /// default, or what [`ScenarioBuilder::transport`] selected.
    wire: Arc<dyn Transport>,
    /// The event-driven socket front-end.
    front_end: AsyncFrontEnd,
    /// The server's dedicated TX socket.
    tx: UdpEndpoint,
    tx_stats: TxBatchStats,
    /// Per-peer client-side sockets, bound lazily on first send.
    links: HashMap<u64, UdpEndpoint>,
    /// What the server-side sockets are metered at, and on.
    cost: CostModel,
    meter: CycleMeter,
}

impl Sockets {
    fn new(
        meter: &CycleMeter,
        cost: CostModel,
        transport: TransportKind,
        elastic: bool,
    ) -> Sockets {
        let mut front_end = AsyncFrontEnd::new();
        front_end.set_elastic(elastic);
        let wire: Arc<dyn Transport> = match transport {
            TransportKind::Virtual => Arc::new(VirtualWire::new()),
            TransportKind::OsSocket => Arc::new(OsWire::new()),
        };
        // Metered like every other server-side socket.
        let tx = wire
            .bind_metered(SERVER_TX_PORT, meter.clone(), &cost)
            .expect("TX port unique");
        Sockets {
            wire,
            front_end,
            tx,
            tx_stats: TxBatchStats::default(),
            links: HashMap::new(),
            cost,
            meter: meter.clone(),
        }
    }

    /// `peer`'s client-side socket, bound on first use together with the
    /// server-side socket the front-end polls for that peer. The server
    /// socket is metered: socket receives charge the server meter like
    /// every other server-side cost.
    fn link(&mut self, peer: u64) -> &UdpEndpoint {
        let Sockets {
            wire,
            front_end,
            links,
            cost,
            meter,
            ..
        } = self;
        links.entry(peer).or_insert_with(|| {
            let server_ep = wire
                .bind_metered(peer, meter.clone(), cost)
                .expect("unique server port per peer");
            front_end.register_peer(peer, server_ep);
            wire.bind(CLIENT_PORT_BIT | peer)
                .expect("unique client port per peer")
        })
    }
}

/// The one step the shared drivers (and `eval::deploy`'s measurement
/// rounds) are written over: `(peer, datagram)`s in, one
/// `(peer, result)` per datagram out, each peer's results in the order of
/// its datagrams.
pub(crate) trait Ingress {
    fn ingress(
        &mut self,
        datagrams: Vec<(u64, Vec<u8>)>,
    ) -> Vec<(u64, Result<Delivery, EndBoxError>)>;
}

/// Pairs a call-driven server's input-ordered results with the peers
/// their datagrams came from.
fn tag_peers(
    datagrams: Vec<(u64, Vec<u8>)>,
    receive: impl FnOnce(Vec<(u64, Vec<u8>)>) -> Vec<Result<Delivery, EndBoxError>>,
) -> Vec<(u64, Result<Delivery, EndBoxError>)> {
    let peers: Vec<u64> = datagrams.iter().map(|&(peer, _)| peer).collect();
    peers.into_iter().zip(receive(datagrams)).collect()
}

impl Ingress for Scenario {
    fn ingress(
        &mut self,
        datagrams: Vec<(u64, Vec<u8>)>,
    ) -> Vec<(u64, Result<Delivery, EndBoxError>)> {
        tag_peers(datagrams, |d| self.server.receive_datagrams(d))
    }
}

impl Ingress for ShardedScenario {
    /// One `receive_datagrams` call, or — with async ingress — the
    /// datagrams ride the wire into the per-peer server sockets and the
    /// event loop drains them through the same call
    /// (results then come in dispatch order; per-peer order is exact for
    /// any backpressure setting, see [`AsyncFrontEnd`]).
    fn ingress(
        &mut self,
        datagrams: Vec<(u64, Vec<u8>)>,
    ) -> Vec<(u64, Result<Delivery, EndBoxError>)> {
        if !self.async_ingress_enabled() {
            return tag_peers(datagrams, |d| self.server.receive_datagrams(d));
        }
        // A backlog from an earlier budget-bounded pump would be drained
        // first and mis-attributed to these datagrams; callers mixing
        // manual pump rounds with the batch drivers must drain
        // (`pump_async`) before sealing new traffic.
        assert_eq!(
            self.backlog(),
            0,
            "drain the socket backlog with pump_async() before sending a new batch"
        );
        for (peer, datagram) in datagrams {
            self.send_wire_datagrams(peer, vec![datagram]);
        }
        self.pump_async()
    }
}

/// Folds one batch entry's datagram results into the packets they
/// delivered (`Pending` contributes nothing; middlebox-dropped packets
/// are already absent from batch deliveries).
fn collect_delivered(
    results: impl Iterator<Item = Result<Delivery, EndBoxError>>,
) -> Result<Vec<Packet>, EndBoxError> {
    let mut delivered = Vec::new();
    for result in results {
        match result? {
            Delivery::Pending => {}
            Delivery::PacketBatch { packets, .. } => delivered.extend(packets),
            Delivery::Packet { packet, .. } => delivered.push(packet),
            _ => return Err(EndBoxError::NotReady("unexpected delivery type")),
        }
    }
    Ok(delivered)
}

/// Client `idx`'s payloads as the TCP packets the batch drivers send
/// into the managed network, numbered by position.
fn client_packets(idx: usize, payloads: &[Vec<u8>]) -> Vec<Packet> {
    payloads
        .iter()
        .enumerate()
        .map(|(i, p)| {
            Packet::tcp(
                Scenario::client_addr(idx),
                Scenario::network_addr(),
                40_000 + idx as u16,
                5_001,
                i as u32,
                p,
            )
        })
        .collect()
}

impl<S> Network<S> {
    /// The session id of client `idx`.
    pub fn session_id(&self, idx: usize) -> u64 {
        self.session_ids[idx]
    }
}

// `Ingress` is private on purpose: the two flavours are fixed here, and
// callers see plain inherent methods on either scenario.
#[allow(private_bounds)]
impl<S> Network<S>
where
    Self: Ingress,
{
    /// Sends an application payload from a client into the managed
    /// network; returns the packet as delivered by the server.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::PacketDropped`] when the middlebox rejects it.
    pub fn send_from_client(&mut self, idx: usize, payload: &[u8]) -> Result<Packet, EndBoxError> {
        let packet = Packet::tcp(
            Scenario::client_addr(idx),
            Scenario::network_addr(),
            40_000 + idx as u16,
            5001,
            0,
            payload,
        );
        self.send_packet_from_client(idx, packet)
    }

    /// Sends a pre-built IP packet from a client through the tunnel as a
    /// single-packet record.
    ///
    /// # Errors
    ///
    /// See [`Network::send_from_client`].
    pub fn send_packet_from_client(
        &mut self,
        idx: usize,
        packet: Packet,
    ) -> Result<Packet, EndBoxError> {
        let sealed = self.clients[idx].send_packet(packet)?;
        let mut per_entry = self.deliver(vec![(idx, sealed)])?;
        let delivered = per_entry.pop().expect("one record in, one record out");
        delivered
            .into_iter()
            .next()
            .ok_or(EndBoxError::PacketDropped)
    }

    /// Sends several application payloads from a client as **one** batch:
    /// one enclave transition, one Click traversal and one sealed record
    /// on the client; one batched delivery at the server. Returns the
    /// packets the server delivered (middlebox-dropped packets are
    /// omitted).
    ///
    /// # Errors
    ///
    /// VPN failures; unlike [`Network::send_from_client`], a middlebox
    /// drop of *some* packets is not an error — the survivors are
    /// returned.
    pub fn send_batch_from_client(
        &mut self,
        idx: usize,
        payloads: &[Vec<u8>],
    ) -> Result<Vec<Packet>, EndBoxError> {
        self.send_packet_batch_from_client(idx, client_packets(idx, payloads))
    }

    /// Sends pre-built IP packets from a client through the tunnel as one
    /// batch.
    ///
    /// # Errors
    ///
    /// See [`Network::send_batch_from_client`].
    pub fn send_packet_batch_from_client(
        &mut self,
        idx: usize,
        packets: Vec<Packet>,
    ) -> Result<Vec<Packet>, EndBoxError> {
        let mut per_client = self.send_packet_batches_from_all(vec![(idx, packets)])?;
        Ok(per_client.pop().expect("one batch in, one batch out"))
    }

    /// Convenience over [`Network::send_packet_batches_from_all`]: client
    /// `i` sends `payloads_per_client[i]` as one batch each, all in one
    /// server dispatch.
    ///
    /// # Errors
    ///
    /// See [`Network::send_packet_batches_from_all`].
    pub fn send_batches_from_all(
        &mut self,
        payloads_per_client: &[Vec<Vec<u8>>],
    ) -> Result<Vec<Vec<Packet>>, EndBoxError> {
        let batches = payloads_per_client
            .iter()
            .enumerate()
            .map(|(idx, payloads)| (idx, client_packets(idx, payloads)))
            .collect();
        self.send_packet_batches_from_all(batches)
    }

    /// The multi-client driver: every `(client idx, packets)` entry is
    /// sealed by its client, then **all** resulting wire datagrams go
    /// through the server in one ingress step (one receive call on the
    /// sharded server). Returns the delivered packets per input
    /// entry, in input order (middlebox drops are omitted); a client may
    /// appear in several entries.
    ///
    /// # Errors
    ///
    /// The first client-side or server-side failure.
    pub fn send_packet_batches_from_all(
        &mut self,
        batches: Vec<(usize, Vec<Packet>)>,
    ) -> Result<Vec<Vec<Packet>>, EndBoxError> {
        // Client side: each client seals its own batch.
        let mut sealed = Vec::with_capacity(batches.len());
        for (idx, packets) in batches {
            sealed.push((idx, self.clients[idx].send_batch(packets)?));
        }
        self.deliver(sealed)
    }

    /// The server side of every driver: the wire datagrams of every
    /// `(client idx, sealed record)` entry go through the server in one
    /// ingress step (ownership of the wire bytes moves into the server),
    /// regrouped per peer: each entry takes its peer's next results, in
    /// the order the entries sealed in. Returns the delivered packets per
    /// entry.
    pub(crate) fn deliver(
        &mut self,
        sealed: Vec<(usize, Vec<Vec<u8>>)>,
    ) -> Result<Vec<Vec<Packet>>, EndBoxError> {
        let mut datagrams: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut expected: Vec<(u64, usize)> = Vec::with_capacity(sealed.len());
        for (idx, record) in sealed {
            let peer = idx as u64;
            expected.push((peer, record.len()));
            datagrams.extend(record.into_iter().map(|d| (peer, d)));
        }
        let mut by_peer: HashMap<u64, VecDeque<Result<Delivery, EndBoxError>>> = HashMap::new();
        for (peer, result) in self.ingress(datagrams) {
            by_peer.entry(peer).or_default().push_back(result);
        }
        expected
            .into_iter()
            .map(|(peer, n)| {
                let queue = by_peer.entry(peer).or_default();
                assert!(queue.len() >= n, "one result per datagram");
                collect_delivered(queue.drain(..n))
            })
            .collect()
    }
}

impl Scenario {
    /// Starts building an enterprise scenario (Fig. 2a).
    pub fn enterprise(n_clients: usize, use_case: UseCase) -> ScenarioBuilder {
        ScenarioBuilder {
            kind: ScenarioKind::Enterprise,
            n_clients,
            use_case,
            trust: TrustLevel::Hardware,
            c2c_flagging: false,
            batched_ecalls: true,
            seed: 0xe17e4,
            suite_override: None,
            server_click: None,
            custom_client_click: None,
            async_ingress: false,
            elastic: false,
            transport: TransportKind::Virtual,
        }
    }

    /// Starts building an ISP scenario (Fig. 2b): the enterprise defaults
    /// under the ISP kind and its own seed.
    pub fn isp(n_clients: usize, use_case: UseCase) -> ScenarioBuilder {
        ScenarioBuilder {
            kind: ScenarioKind::Isp,
            seed: 0x15b,
            ..Self::enterprise(n_clients, use_case)
        }
    }

    /// IP address of client `idx`.
    pub fn client_addr(idx: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, (idx / 250) as u8, (idx % 250 + 1) as u8)
    }

    /// A server-side address inside the managed network.
    pub fn network_addr() -> Ipv4Addr {
        Ipv4Addr::new(10, 1, 0, 1)
    }

    /// Sends a payload from one client to another through the server
    /// (client-to-client path, §IV-A).
    ///
    /// # Errors
    ///
    /// Middlebox drops and VPN failures.
    pub fn client_to_client(
        &mut self,
        from: usize,
        to: usize,
        payload: &[u8],
    ) -> Result<Option<Packet>, EndBoxError> {
        let packet = Packet::tcp(
            Self::client_addr(from),
            Self::client_addr(to),
            40_000 + from as u16,
            40_000 + to as u16,
            0,
            payload,
        );
        let forwarded = self.send_packet_from_client(from, packet)?;
        let datagrams = self
            .server
            .send_batch_to_client(self.session_ids[to], &[forwarded])?;
        let mut delivered = None;
        for d in &datagrams {
            if let Some(p) = self.clients[to].receive_datagram_batch(d)?.pop() {
                delivered = Some(p);
            }
        }
        Ok(delivered)
    }

    /// Publishes a configuration update and runs the full Fig. 5 cycle:
    /// upload, announce, ping, fetch, hot-swap, proof ping. Returns the
    /// new version number.
    ///
    /// # Errors
    ///
    /// Any verification failure along the way.
    pub fn update_config(
        &mut self,
        click_text: &str,
        grace_period_secs: u32,
    ) -> Result<u64, EndBoxError> {
        self.next_version += 1;
        let version = self.next_version;
        let encrypt = match self.kind {
            ScenarioKind::Enterprise => Some(self.ca.config_key()),
            ScenarioKind::Isp => None,
        };
        // Step 1: admin uploads to the config server.
        let signed = SignedConfig::publish(
            click_text,
            version,
            self.ca.signing_key(),
            encrypt.as_ref(),
            &mut self.rng,
        );
        self.config_server.upload(signed);
        // Steps 2–3: announce at the VPN server, grace timer starts.
        self.server.announce_config(version, grace_period_secs);
        // Steps 4–9 per client: ping, fetch, apply, proof.
        for idx in 0..self.clients.len() {
            self.ping_and_update_client(idx)?;
        }
        Ok(version)
    }

    /// Runs the ping/fetch/apply/proof cycle for one client.
    ///
    /// # Errors
    ///
    /// Verification failures.
    pub fn ping_and_update_client(&mut self, idx: usize) -> Result<(), EndBoxError> {
        // Step 4: server ping announces the version.
        let ping = self.server.make_ping(self.session_ids[idx])?;
        for frag in &ping {
            self.clients[idx].receive_datagram_batch(frag)?;
        }
        // Steps 5–8: client fetches and applies.
        self.clients[idx].fetch_and_apply_update(&self.config_server)?;
        // Step 9: client proves the new version.
        let proof = self.clients[idx].build_ping()?;
        for frag in &proof {
            self.server.receive_datagram(idx as u64, frag)?;
        }
        Ok(())
    }

    /// Current config version of client `idx`.
    pub fn client_version(&mut self, idx: usize) -> u64 {
        self.clients[idx].config_version()
    }
}

/// The sharded-only drivers: the event-driven socket front-end, online
/// remap and resize, and egress through the server's TX socket.
impl ShardedScenario {
    /// Whether this scenario routes data-path ingress through the
    /// event-driven socket front-end
    /// ([`ScenarioBuilder::async_ingress`]).
    pub fn async_ingress_enabled(&self) -> bool {
        self.sockets.is_some()
    }

    /// The socket wiring.
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    fn sockets(&self) -> &Sockets {
        self.sockets.as_ref().expect("async ingress enabled")
    }

    /// The socket wiring and the server it feeds, borrowed together.
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    fn wired(&mut self) -> (&mut Sockets, &mut ShardedEndBoxServer) {
        (
            self.sockets.as_mut().expect("async ingress enabled"),
            &mut self.server,
        )
    }

    /// Ships already-sealed wire datagrams from `peer`'s client-side
    /// socket to the server-side socket the front-end polls for that
    /// peer ([`UdpEndpoint::send_all`]), binding both on first use.
    /// Nothing is processed until [`ShardedScenario::pump_async`] runs
    /// the event loop.
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off, or if the send fails (a hard
    /// socket error or a stall beyond the retry bound).
    pub fn send_wire_datagrams(&mut self, peer: u64, mut datagrams: Vec<Vec<u8>>) {
        self.wired()
            .0
            .link(peer)
            .send_all(peer, &mut datagrams)
            .expect("client link sends");
    }

    /// Runs the event loop until every registered socket is drained,
    /// returning one `(peer, result)` per datagram in dispatch order
    /// (see [`AsyncFrontEnd::run_until_idle`]).
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    pub fn pump_async(&mut self) -> Vec<(u64, Result<Delivery, EndBoxError>)> {
        let (sockets, server) = self.wired();
        sockets.front_end.run_until_idle(server)
    }

    /// One event-loop round only (budget-bounded) — what the
    /// backpressure tests step. See [`AsyncFrontEnd::pump`].
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    pub fn pump_async_round(&mut self) -> Vec<(u64, Result<Delivery, EndBoxError>)> {
        let (sockets, server) = self.wired();
        sockets.front_end.pump(server)
    }

    /// Front-end counters (wakeups, rounds, datagrams, deferrals).
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    pub fn async_stats(&self) -> AsyncIngressStats {
        self.sockets().front_end.stats()
    }

    /// Datagrams queued in server-side sockets, not yet drained by the
    /// event loop (see [`AsyncFrontEnd::backlog`]).
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    pub fn backlog(&self) -> usize {
        self.sockets().front_end.backlog()
    }

    /// The wire backend name (`"virtual"` or `"os-socket"` — see
    /// [`TransportKind::name`]).
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    pub fn wire_backend(&self) -> &'static str {
        self.sockets().wire.backend()
    }

    /// Recycling counters of the egress buffer pool. Egress has no pool
    /// yet: the client links ship the caller's datagrams as they are, so
    /// this is all zero.
    pub fn egress_pool_stats(&self) -> PoolStats {
        PoolStats::default()
    }

    /// Counters of the server's TX socket.
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    pub fn tx_stats(&self) -> TxBatchStats {
        self.sockets().tx_stats
    }

    /// Seals `packets` towards client `idx` as one `DataBatch` record
    /// and ships the fragments from the server's TX socket with one
    /// [`UdpEndpoint::send_all`] (one bulk send, retried in place on a
    /// partial send), then drains the client-side socket and returns the
    /// wire datagrams it received, in wire order — the egress mirror of
    /// the bulk ingress path.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Vpn`] for unknown sessions.
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off, or if the send fails (a hard
    /// socket error or a stall beyond the retry bound).
    pub fn egress_batch_to_client(
        &mut self,
        idx: usize,
        packets: &[Packet],
    ) -> Result<Vec<Vec<u8>>, EndBoxError> {
        let peer = idx as u64;
        let session_id = self.session_ids[idx];
        let (sockets, server) = self.wired();
        sockets.link(peer);
        let mut fragments = server.send_batch_to_client(session_id, packets)?;
        let expected = fragments.len();
        let calls = (sockets.tx)
            .send_all(CLIENT_PORT_BIT | peer, &mut fragments)
            .expect("client socket bound");
        let stats = &mut sockets.tx_stats;
        stats.sent += expected as u64;
        stats.io_calls += calls as u64;
        stats.partial_sends += calls.saturating_sub(1) as u64;
        // Drain the client side. The OS backend crosses the kernel, so
        // give delivery a bounded moment; the virtual wire is immediate.
        let client_ep = &sockets.links[&peer];
        let mut got = Vec::with_capacity(expected);
        for _ in 0..100_000 {
            client_ep.recv_many(expected - got.len(), &mut got);
            if got.len() >= expected {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(got.len(), expected, "egress datagrams all delivered");
        // Wire order (one TX socket → stamps are its send order).
        got.sort_by_key(|d| d.seq);
        Ok(got.into_iter().map(|d| d.payload).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enterprise_scenario_end_to_end() {
        let mut s = Scenario::enterprise(2, UseCase::Firewall).build().unwrap();
        assert_eq!(s.server.session_count(), 2);
        let delivered = s.send_from_client(0, b"hello from client zero").unwrap();
        assert_eq!(delivered.app_payload(), b"hello from client zero");
        let delivered = s.send_from_client(1, b"hello from client one").unwrap();
        assert_eq!(delivered.app_payload(), b"hello from client one");
    }

    #[test]
    fn isp_scenario_uses_integrity_only() {
        let mut s = Scenario::isp(1, UseCase::Nop).build().unwrap();
        let delivered = s.send_from_client(0, b"isp traffic").unwrap();
        assert_eq!(delivered.app_payload(), b"isp traffic");
    }

    #[test]
    fn idps_scenario_blocks_malicious_payloads() {
        let mut s = Scenario::enterprise(1, UseCase::Idps).build().unwrap();
        // Benign passes.
        s.send_from_client(0, b"innocuous lowercase payload")
            .unwrap();
        // Rule 0 (sid 1000000) is a drop rule matching EB-MAL-0000 on
        // tcp dst port 80.
        let evil = Packet::tcp(
            Scenario::client_addr(0),
            Scenario::network_addr(),
            40_000,
            80,
            0,
            b"xx EB-MAL-0000 xx",
        );
        let err = s.send_packet_from_client(0, evil).unwrap_err();
        assert_eq!(err, EndBoxError::PacketDropped);
        assert_eq!(s.clients[0].stats.dropped_egress, 1);
    }

    #[test]
    fn egress_seals_exactly_one_packet_per_data_record() {
        // The one egress body seals a `Data` record around one packet;
        // asking it to carry more is refused before any ecall.
        use endbox_vpn::proto::Opcode;
        let mut s = Scenario::enterprise(1, UseCase::Nop).build().unwrap();
        let packets = client_packets(0, &[b"one".to_vec(), b"two".to_vec()]);
        let app = s.clients[0].enclave_app();
        let ecalls = app.transition_counters().ecalls;
        assert!(matches!(
            app.process_egress(packets.clone(), Opcode::Data),
            Err(EndBoxError::Vpn(endbox_vpn::VpnError::Malformed(_)))
        ));
        assert_eq!(app.transition_counters().ecalls, ecalls);
        let sealed = app
            .process_egress(packets[..1].to_vec(), Opcode::Data)
            .unwrap();
        assert_eq!(sealed.record.map(|r| r.opcode), Some(Opcode::Data));
        assert_eq!(app.transition_counters().ecalls, ecalls + 1);
    }

    #[test]
    fn batched_send_delivers_everything_in_order() {
        let mut s = Scenario::enterprise(1, UseCase::Firewall).build().unwrap();
        let payloads: Vec<Vec<u8>> = (0..10)
            .map(|i| format!("batched payload {i}").into_bytes())
            .collect();
        let datagrams_before = s.clients[0].stats.datagrams_out;
        let delivered = s.send_batch_from_client(0, &payloads).unwrap();
        assert_eq!(delivered.len(), 10);
        for (i, pkt) in delivered.iter().enumerate() {
            assert_eq!(pkt.app_payload(), payloads[i].as_slice());
        }
        assert_eq!(s.clients[0].stats.sent, 10);
        assert_eq!(
            s.clients[0].stats.datagrams_out - datagrams_before,
            1,
            "one record for the whole batch"
        );
    }

    #[test]
    fn batched_send_filters_malicious_packets_only() {
        // The client-side Click drops the attack, whichever server the
        // batch then goes through.
        let payloads: [&[u8]; 3] = [b"benign one", b"xx EB-MAL-0000 xx", b"benign two"];
        let packets = || -> Vec<Packet> {
            payloads
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    // Rule 0 drops EB-MAL-0000 on tcp dst port 80.
                    Packet::tcp(
                        Scenario::client_addr(0),
                        Scenario::network_addr(),
                        40_000,
                        80,
                        i as u32,
                        p,
                    )
                })
                .collect()
        };
        let mut reference = Scenario::enterprise(1, UseCase::Idps).build().unwrap();
        let mut sharded = Scenario::enterprise(2, UseCase::Idps)
            .build_sharded(4)
            .unwrap();
        for (delivered, client) in [
            (
                reference.send_packet_batch_from_client(0, packets()),
                &reference.clients[0],
            ),
            (
                sharded.send_packet_batch_from_client(0, packets()),
                &sharded.clients[0],
            ),
        ] {
            let delivered = delivered.unwrap();
            assert_eq!(delivered.len(), 2, "malicious middle packet dropped");
            assert_eq!(delivered[0].app_payload(), b"benign one");
            assert_eq!(delivered[1].app_payload(), b"benign two");
            assert_eq!(client.stats.dropped_egress, 1);
        }
    }

    #[test]
    fn batched_path_is_cheaper_per_packet_than_single() {
        let payloads: Vec<Vec<u8>> = (0..16).map(|_| vec![0xa5u8; 1000]).collect();
        // Client cycles for the 16 payloads, one record each or one batch.
        let client_cycles = |batched: bool| {
            let mut s = Scenario::enterprise(1, UseCase::Nop).build().unwrap();
            let meter = s.clients[0].meter().clone();
            s.send_from_client(0, &payloads[0]).unwrap(); // warm-up
            meter.take();
            if batched {
                let delivered = s.send_batch_from_client(0, &payloads).unwrap();
                assert_eq!(delivered.len(), 16);
            } else {
                for p in &payloads {
                    s.send_from_client(0, p).unwrap();
                }
            }
            meter.take()
        };
        let (single_cycles, batch_cycles) = (client_cycles(false), client_cycles(true));
        assert!(
            batch_cycles < single_cycles,
            "batched client path must be cheaper: {batch_cycles} vs {single_cycles}"
        );
    }

    #[test]
    fn batched_ingress_to_client_roundtrips() {
        // Client 0 sends a batch addressed to client 1 through either
        // server; the server announces a config, pings client 1 and relays
        // the batch to it as one batched record.
        let packets = || -> Vec<Packet> {
            (0..5)
                .map(|i| {
                    Packet::tcp(
                        Scenario::client_addr(0),
                        Scenario::client_addr(1),
                        40_000,
                        40_001,
                        i as u32,
                        format!("c2c batch {i}").as_bytes(),
                    )
                })
                .collect()
        };
        let mut reference = Scenario::enterprise(2, UseCase::Nop).build().unwrap();
        let mut sharded = Scenario::enterprise(2, UseCase::Nop)
            .build_sharded(2)
            .unwrap();
        let forwarded = reference.send_packet_batch_from_client(0, packets());
        assert_eq!(
            sharded.send_packet_batch_from_client(0, packets()),
            forwarded
        );
        let forwarded = forwarded.unwrap();
        let sid = reference.session_id(1);
        reference.server.announce_config(3, 30);
        sharded.server.announce_config(3, 30);
        let relayed = [
            (
                reference.server.make_ping(sid).unwrap(),
                reference
                    .server
                    .send_batch_to_client(sid, &forwarded)
                    .unwrap(),
                &mut reference.clients[1],
            ),
            (
                sharded.server.make_ping(sid).unwrap(),
                sharded
                    .server
                    .send_batch_to_client(sid, &forwarded)
                    .unwrap(),
                &mut sharded.clients[1],
            ),
        ];
        for (ping, datagrams, client) in relayed {
            for frag in &ping {
                client.receive_datagram_batch(frag).unwrap();
            }
            let mut delivered = Vec::new();
            for d in &datagrams {
                delivered.extend(client.receive_datagram_batch(d).unwrap());
            }
            assert_eq!(delivered.len(), 5);
            for (i, pkt) in delivered.iter().enumerate() {
                assert_eq!(pkt.app_payload(), format!("c2c batch {i}").as_bytes());
            }
            assert_eq!(client.stats.received, 5);
        }
    }

    #[test]
    fn client_ingress_reuses_pooled_buffers_like_the_server() {
        // Ingress is now symmetric: both ends open batch records as frame
        // handles and materialise pool-backed packets, so the client's
        // in-enclave pool must show steady-state reuse just like the
        // server shards' pools.
        let mut s = Scenario::enterprise(2, UseCase::Nop).build().unwrap();
        let sid = s.session_id(1);
        let rounds = 6u32;
        let per_round = 8u32;
        for round in 0..rounds {
            let pkts: Vec<Packet> = (0..per_round)
                .map(|i| {
                    Packet::tcp(
                        Scenario::network_addr(),
                        Scenario::client_addr(1),
                        5_001,
                        40_001,
                        round * per_round + i,
                        &[0x5a; 300],
                    )
                })
                .collect();
            let datagrams = s.server.send_batch_to_client(sid, &pkts).unwrap();
            let mut delivered = Vec::new();
            for d in &datagrams {
                delivered.extend(s.clients[1].receive_datagram_batch(d).unwrap());
            }
            assert_eq!(delivered.len(), per_round as usize);
            // `delivered` drops here, returning the pooled buffers.
        }
        let stats = s.clients[1].ingress_pool_stats();
        assert!(
            stats.batched_ops >= rounds as u64,
            "one take_many per ingress batch: {stats:?}"
        );
        assert_eq!(
            stats.fresh_allocs, per_round as u64,
            "only the first round may allocate: {stats:?}"
        );
        assert!(
            stats.reuse_fraction() > 0.7,
            "steady-state ingress must recycle: {stats:?}"
        );
    }

    #[test]
    fn build_rejects_async_ingress() {
        let built = Scenario::enterprise(1, UseCase::Nop)
            .async_ingress(true)
            .build();
        assert!(matches!(built, Err(EndBoxError::NotReady(_))), "{built:?}");
    }

    #[test]
    fn build_rejects_elastic() {
        let built = Scenario::enterprise(1, UseCase::Nop).elastic(true).build();
        assert!(matches!(built, Err(EndBoxError::NotReady(_))), "{built:?}");
    }

    #[test]
    fn both_builds_reject_a_transport_without_async_ingress() {
        let builder = || Scenario::enterprise(1, UseCase::Nop).transport(TransportKind::OsSocket);
        let built = builder().build();
        assert!(matches!(built, Err(EndBoxError::NotReady(_))), "{built:?}");
        let built = builder().build_sharded(2);
        assert!(matches!(built, Err(EndBoxError::NotReady(_))), "{built:?}");
    }

    #[test]
    fn heavy_tailed_batches_skew_and_trigger_migration() {
        use crate::eval::scalability::{heavy_tail_batch_sizes, heavy_tail_weights};
        let mut s = Scenario::enterprise(8, UseCase::Nop)
            .build_sharded(4)
            .unwrap();
        let sizes = heavy_tail_batch_sizes(&heavy_tail_weights(8), 16);
        assert_eq!(sizes[0], 16, "the heaviest client seals a full batch");
        assert!(sizes.iter().all(|&n| n >= 1), "mice stay active: {sizes:?}");
        assert!(sizes[0] > sizes[1], "the mix must actually skew: {sizes:?}");
        for round in 0..4 {
            // Client `c` seals `sizes[c]` 600 B payloads; the whole skewed
            // interleaving goes through the server in one dispatch.
            let payloads: Vec<Vec<Vec<u8>>> = sizes
                .iter()
                .enumerate()
                .map(|(c, &n)| {
                    (0..n)
                        .map(|i| {
                            let mut p =
                                format!("ht round {round} client {c} pkt {i} ").into_bytes();
                            p.resize(600, b'x');
                            p
                        })
                        .collect()
                })
                .collect();
            let delivered = s.send_batches_from_all(&payloads).unwrap();
            for (c, per_client) in delivered.iter().enumerate() {
                assert_eq!(per_client.len(), sizes[c], "round {round} client {c}");
            }
        }
        assert!(
            s.server.migrations() > 0,
            "colliding elephants (sessions 1 and 5 on shard 0) must migrate"
        );
    }

    #[test]
    fn every_doorway_delivers_and_regroups_identically() {
        // The reference, the sharded call-driven doorway and the sharded
        // event loop deliver what every client sent, byte-identically,
        // round after round; a client appearing in several entries of one
        // driver call (client 0 here) gets its results split back per
        // entry by every doorway.
        let builder = || Scenario::enterprise(4, UseCase::Firewall);
        let mut reference = builder().build().unwrap();
        let mut call = builder().build_sharded(2).unwrap();
        let mut event_loop = builder().async_ingress(true).build_sharded(2).unwrap();
        assert!(!call.async_ingress_enabled());
        assert!(event_loop.async_ingress_enabled());
        let payloads = |round: usize| -> Vec<(usize, Vec<Vec<u8>>)> {
            [(0, 2), (1, 5), (0, 3), (2, 5), (3, 5)]
                .into_iter()
                .enumerate()
                .map(|(entry, (c, n))| {
                    let entry_payloads = (0..n)
                        .map(|i| format!("round {round} entry {entry} payload {i}").into_bytes())
                        .collect();
                    (c, entry_payloads)
                })
                .collect()
        };
        let batches = |round: usize| -> Vec<(usize, Vec<Packet>)> {
            payloads(round)
                .into_iter()
                .map(|(c, entry_payloads)| (c, client_packets(c, &entry_payloads)))
                .collect()
        };
        let view = |v: &[Vec<Packet>], part: fn(&Packet) -> &[u8]| -> Vec<Vec<Vec<u8>>> {
            v.iter()
                .map(|ps| ps.iter().map(|p| part(p).to_vec()).collect())
                .collect()
        };
        for round in 0..3 {
            let sent: Vec<Vec<Vec<u8>>> = payloads(round).into_iter().map(|(_, p)| p).collect();
            let want = reference
                .send_packet_batches_from_all(batches(round))
                .unwrap();
            assert_eq!(view(&want, Packet::app_payload), sent, "round {round}");
            for s in [&mut call, &mut event_loop] {
                let got = s.send_packet_batches_from_all(batches(round)).unwrap();
                assert_eq!(view(&got, Packet::bytes), view(&want, Packet::bytes));
            }
        }
        let stats = event_loop.async_stats();
        assert_eq!(stats.datagrams, 5 * 3, "one record datagram per batch");
        assert!(stats.wakeups >= stats.rounds, "every round polls");
        assert_eq!(stats.deferred_rounds, 0, "no backpressure at this load");
        assert_eq!(reference.server.counters(), (60, 0, 0));
        assert_eq!(reference.server.counters(), call.server.counters());
        assert_eq!(reference.server.counters(), event_loop.server.counters());
    }

    #[test]
    fn config_update_cycle() {
        let mut s = Scenario::enterprise(2, UseCase::Nop).build().unwrap();
        assert_eq!(s.client_version(0), 1);
        let v = s
            .update_config(&UseCase::Firewall.click_config(), 30)
            .unwrap();
        assert_eq!(v, 2);
        assert_eq!(s.client_version(0), 2);
        assert_eq!(s.client_version(1), 2);
        assert_eq!(s.server.client_config_version(s.session_id(0)), Some(2));
        // Traffic still flows after the swap.
        s.send_from_client(0, b"post-update traffic").unwrap();
    }

    #[test]
    fn client_to_client_delivery() {
        let mut s = Scenario::enterprise(2, UseCase::Nop).build().unwrap();
        let delivered = s.client_to_client(0, 1, b"hi neighbour").unwrap().unwrap();
        assert_eq!(delivered.app_payload(), b"hi neighbour");
    }

    #[test]
    fn c2c_flagging_bypasses_second_click() {
        let mut s = Scenario::enterprise(2, UseCase::Idps)
            .c2c_flagging(true)
            .build()
            .unwrap();
        s.client_to_client(0, 1, b"flagged once-processed packet")
            .unwrap()
            .unwrap();
        let (_, _, bypassed) = s.clients[1].enclave_app().packet_counters();
        assert_eq!(bypassed, 1, "receiver must skip Click for flagged packets");
    }
}
