//! Scenario builders wiring up a complete EndBox deployment: IAS, CA,
//! config server, VPN server and N clients (§II-A's enterprise and ISP
//! scenarios).

use crate::ca::CertificateAuthority;
use crate::client::{EndBoxClient, EndBoxClientConfig, TrustLevel};
use crate::config_update::{ConfigServer, SignedConfig};
use crate::error::EndBoxError;
use crate::server::{
    AsyncFrontEnd, AsyncIngressStats, Delivery, EndBoxServer, EndBoxServerConfig,
    ShardedEndBoxServer, TxBatchStats, TxBatcher,
};
use crate::use_cases::UseCase;
use endbox_crypto::schnorr::SigningKey;
use endbox_netsim::cost::{CostModel, CycleMeter};
use endbox_netsim::net::{OsWire, Transport, TransportKind, VirtualWire};
use endbox_netsim::time::SharedClock;
use endbox_netsim::{BufferPool, Packet};
use endbox_sgx::attestation::{CpuIdentity, IasSimulator};
use endbox_vpn::channel::CipherSuite;
use endbox_vpn::endpoint::FramedSender;
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

/// Builder for [`Scenario`] (entry points:
/// [`Scenario::enterprise`] / [`Scenario::isp`]).
///
/// Knobs chain; [`ScenarioBuilder::build`] produces a single-threaded
/// deployment, [`ScenarioBuilder::build_sharded`] the pipelined
/// multi-worker one. See `examples/quickstart.rs` and
/// `examples/enterprise_network.rs` for the long-form versions of these
/// snippets.
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
/// // The sharded pipeline: 2 RX framing shards, 2 crypto workers,
/// // event-driven socket ingress.
/// let s = Scenario::enterprise(2, UseCase::Nop)
///     .seed(42)
///     .rx_shards(2)
///     .async_ingress(true)
///     .build_sharded(2)
///     .unwrap();
/// assert_eq!(s.server.worker_count(), 2);
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
    rx_shards: usize,
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

    /// RX framing shards of a sharded build (default 1): datagram
    /// reassembly and record framing run on `k` threads sharded by
    /// `peer_id mod k` in front of the worker shards.
    pub fn rx_shards(mut self, k: usize) -> Self {
        self.rx_shards = k.max(1);
        self
    }

    /// Event-driven socket ingress for a sharded build (default off):
    /// every peer gets a virtual server-side UDP socket registered with
    /// an [`AsyncFrontEnd`] poll group (one group per RX shard), and the
    /// data-path drivers route wire datagrams through the event loop
    /// instead of calling `receive_datagrams` directly. The
    /// handshake/control path stays call-driven — it is off the fast
    /// path. See [`ShardedScenario::pump_async`].
    pub fn async_ingress(mut self, on: bool) -> Self {
        self.async_ingress = on;
        self
    }

    /// Structural elasticity (default off — a fixed geometry). Implies
    /// [`ScenarioBuilder::async_ingress`]: on top of the budget/remap
    /// laws every event loop runs, the control round may grow or shrink
    /// the RX shard pool and worker pool themselves from the demand
    /// EWMAs (hysteresis and cooldown:
    /// [`crate::server::RESIZE_GROW_ROUNDS`] and its siblings). The
    /// builder's `rx_shards`/`workers` become the *starting* geometry
    /// rather than a fixed one.
    pub fn elastic(mut self, on: bool) -> Self {
        self.elastic = on;
        if on {
            self.async_ingress = true;
        }
        self
    }

    /// Selects the async wire backend (default
    /// [`TransportKind::Virtual`]; only meaningful together with
    /// [`ScenarioBuilder::async_ingress`]). Application-level results
    /// are byte-identical across both backends: over [`OsWire`] (real
    /// loopback UDP; check [`OsWire::available`] where socket creation
    /// may be forbidden) the stamp-carrying wire header preserves the
    /// re-merge ordering contract.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Builds everything both server flavours share: RNG, clock, IAS, CA,
    /// suite selection, the server configuration and the published
    /// initial Click configuration.
    fn setup(&self) -> Result<(ScenarioSetup, EndBoxServerConfig), EndBoxError> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let clock = SharedClock::new();
        let cost = CostModel::calibrated();
        let ias = IasSimulator::new(&mut rng);
        let mut ca = CertificateAuthority::new(ias.public_key(), &mut rng);

        let suite = self.suite_override.unwrap_or(match self.kind {
            ScenarioKind::Enterprise => CipherSuite::Aes128CbcHmac,
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

        Ok((
            ScenarioSetup {
                rng,
                clock,
                cost,
                ias,
                ca,
                suite,
                client_click,
                server_meter,
                config_server,
            },
            server_config,
        ))
    }

    /// Enrolls client `i` (Fig. 4) and drives its handshake through
    /// `receive` (whichever server flavour is behind it). Returns the
    /// connected client and its session id.
    fn connect_client(
        &self,
        i: usize,
        setup: &mut ScenarioSetup,
        mut receive: impl FnMut(u64, &[u8]) -> Result<Delivery, EndBoxError>,
    ) -> Result<(EndBoxClient, u64), EndBoxError> {
        let mut cpu_seed = [0u8; 32];
        cpu_seed[..8].copy_from_slice(&(self.seed ^ i as u64).to_be_bytes());
        cpu_seed[8] = 0xcc;
        let cpu = CpuIdentity::from_seed(cpu_seed);
        setup.ias.register_platform(cpu.attestation_public());

        let subject = format!("endbox-client-{i}");
        let mut cfg = EndBoxClientConfig::new(&subject, setup.ca.public_key(), cpu);
        cfg.trust = self.trust;
        cfg.suite = setup.suite;
        cfg.click_config = Some(setup.client_click.clone());
        cfg.config_version = 1;
        cfg.offered_version = PROTOCOL_V2;
        cfg.min_version = PROTOCOL_V1;
        cfg.c2c_flagging = self.c2c_flagging;
        cfg.batched_ecalls = self.batched_ecalls;
        cfg.cost = setup.cost.clone();
        cfg.clock = setup.clock.clone();
        cfg.rng_seed = self.seed ^ (i as u64) << 8;
        let mut client = EndBoxClient::new(cfg)?;

        // Whitelist this build's measurement once.
        if i == 0 {
            setup
                .ca
                .allow_measurement(client.enclave_app().measurement());
        }
        client.enroll(&subject, &mut setup.ca, &setup.ias, &mut setup.rng)?;

        // Connect through the server.
        let hello_frags = client.connect_start()?;
        let mut established = None;
        for frag in &hello_frags {
            match receive(i as u64, frag)? {
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
        Ok((client, session_id))
    }

    /// Builds the scenario: creates the IAS/CA, enrolls and connects every
    /// client.
    ///
    /// # Errors
    ///
    /// Propagates enrollment/handshake failures.
    pub fn build(self) -> Result<Scenario, EndBoxError> {
        let (mut setup, server_config) = self.setup()?;
        let mut server = EndBoxServer::new(server_config)?;

        let mut clients = Vec::with_capacity(self.n_clients);
        let mut session_ids = Vec::with_capacity(self.n_clients);
        for i in 0..self.n_clients {
            let (client, session_id) = self.connect_client(i, &mut setup, |peer, frag| {
                server.receive_datagram(peer, frag)
            })?;
            session_ids.push(session_id);
            clients.push(client);
        }

        Ok(Scenario {
            kind: self.kind,
            use_case: self.use_case,
            ias: setup.ias,
            ca: setup.ca,
            server,
            server_meter: setup.server_meter,
            config_server: setup.config_server,
            clients,
            session_ids,
            clock: setup.clock,
            rng: setup.rng,
            next_version: 1,
        })
    }

    /// Builds the scenario around a [`ShardedEndBoxServer`] with `workers`
    /// shard threads — the multi-client sharded deployment driven by the
    /// Fig. 10 scalability harness.
    ///
    /// # Errors
    ///
    /// Propagates enrollment/handshake failures, plus
    /// [`EndBoxError::NotReady`] if a server-side Click was requested
    /// (the sharded server replaces that baseline).
    ///
    /// # Example
    ///
    /// Four clients through a 2-worker / 2-RX-shard pipeline, all batches
    /// in one multi-client dispatch (see also `examples/enterprise_network.rs`):
    ///
    /// ```
    /// use endbox::scenario::Scenario;
    /// use endbox::use_cases::UseCase;
    ///
    /// let mut s = Scenario::enterprise(4, UseCase::Firewall)
    ///     .rx_shards(2)
    ///     .build_sharded(2)
    ///     .unwrap();
    /// let payloads: Vec<Vec<Vec<u8>>> = (0..4)
    ///     .map(|c| (0..3).map(|i| format!("client {c} pkt {i}").into_bytes()).collect())
    ///     .collect();
    /// let delivered = s.send_batches_from_all(&payloads).unwrap();
    /// assert_eq!(delivered.len(), 4);
    /// assert!(delivered.iter().all(|per_client| per_client.len() == 3));
    /// ```
    pub fn build_sharded(self, workers: usize) -> Result<ShardedScenario, EndBoxError> {
        let (mut setup, server_config) = self.setup()?;
        let mut server =
            ShardedEndBoxServer::with_pipeline(server_config, workers, self.rx_shards)?;

        let mut clients = Vec::with_capacity(self.n_clients);
        let mut session_ids = Vec::with_capacity(self.n_clients);
        for i in 0..self.n_clients {
            let (client, session_id) = self.connect_client(i, &mut setup, |peer, frag| {
                server.receive_datagram(peer, frag)
            })?;
            session_ids.push(session_id);
            clients.push(client);
        }

        let front_end = self.async_ingress.then(|| {
            let mut fe = AsyncFrontEnd::new(server.rx_shard_count());
            fe.set_elastic(self.elastic);
            fe
        });
        let wire: Option<Arc<dyn Transport>> = self.async_ingress.then(|| match self.transport {
            TransportKind::Virtual => Arc::new(VirtualWire::new()) as Arc<dyn Transport>,
            TransportKind::OsSocket => Arc::new(OsWire::new()) as Arc<dyn Transport>,
        });
        // The server's dedicated TX socket: all egress towards clients
        // goes through the TX-batching stage (one bulk send per flush)
        // rather than per-datagram writes. Metered like every other
        // server-side socket.
        let tx = wire.as_ref().map(|w| {
            TxBatcher::new(
                w.bind_metered(SERVER_TX_PORT, setup.server_meter.clone(), &setup.cost)
                    .expect("TX port unique"),
            )
        });
        Ok(ShardedScenario {
            kind: self.kind,
            use_case: self.use_case,
            ias: setup.ias,
            ca: setup.ca,
            server,
            server_meter: setup.server_meter,
            config_server: setup.config_server,
            clients,
            session_ids,
            clock: setup.clock,
            cost: setup.cost,
            wire,
            front_end,
            tx,
            links: HashMap::new(),
            egress_pool: BufferPool::new(),
        })
    }
}

/// Shared pieces produced by [`ScenarioBuilder::setup`].
struct ScenarioSetup {
    rng: rand::rngs::StdRng,
    clock: SharedClock,
    cost: CostModel,
    ias: IasSimulator,
    ca: CertificateAuthority,
    suite: CipherSuite,
    client_click: String,
    server_meter: CycleMeter,
    config_server: ConfigServer,
}

/// A running deployment: server + clients + management plane.
pub struct Scenario {
    /// Scenario flavour.
    pub kind: ScenarioKind,
    /// Middlebox function deployed.
    pub use_case: UseCase,
    /// Attestation service.
    pub ias: IasSimulator,
    /// Certificate authority.
    pub ca: CertificateAuthority,
    /// The VPN server.
    pub server: EndBoxServer,
    /// Server machine meter.
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
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("kind", &self.kind)
            .field("use_case", &self.use_case)
            .field("clients", &self.clients.len())
            .finish()
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
            rx_shards: 1,
            async_ingress: false,
            elastic: false,
            transport: TransportKind::Virtual,
        }
    }

    /// Starts building an ISP scenario (Fig. 2b).
    pub fn isp(n_clients: usize, use_case: UseCase) -> ScenarioBuilder {
        ScenarioBuilder {
            kind: ScenarioKind::Isp,
            n_clients,
            use_case,
            trust: TrustLevel::Hardware,
            c2c_flagging: false,
            batched_ecalls: true,
            seed: 0x15b,
            suite_override: None,
            server_click: None,
            custom_client_click: None,
            rx_shards: 1,
            async_ingress: false,
            elastic: false,
            transport: TransportKind::Virtual,
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

    /// The session id of client `idx`.
    pub fn session_id(&self, idx: usize) -> u64 {
        self.session_ids[idx]
    }

    /// Sends an application payload from a client into the managed
    /// network; returns the packet as delivered by the server.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::PacketDropped`] when the middlebox rejects it.
    pub fn send_from_client(&mut self, idx: usize, payload: &[u8]) -> Result<Packet, EndBoxError> {
        let packet = Packet::tcp(
            Self::client_addr(idx),
            Self::network_addr(),
            40_000 + idx as u16,
            5001,
            0,
            payload,
        );
        self.send_packet_from_client(idx, packet)
    }

    /// Sends a pre-built IP packet from a client through the tunnel.
    ///
    /// # Errors
    ///
    /// See [`Scenario::send_from_client`].
    pub fn send_packet_from_client(
        &mut self,
        idx: usize,
        packet: Packet,
    ) -> Result<Packet, EndBoxError> {
        let datagrams = self.clients[idx].send_packet(packet)?;
        if datagrams.is_empty() {
            return Err(EndBoxError::PacketDropped);
        }
        let mut delivered = None;
        for d in &datagrams {
            match self.server.receive_datagram(idx as u64, d)? {
                Delivery::Pending => {}
                Delivery::Packet { packet, .. } => delivered = Some(packet),
                other => {
                    let _ = other;
                    return Err(EndBoxError::NotReady("unexpected delivery type"));
                }
            }
        }
        delivered.ok_or(EndBoxError::PacketDropped)
    }

    /// Sends several application payloads from a client as **one** batch:
    /// one enclave transition, one Click traversal and one sealed record
    /// on the client; one batched delivery at the server. Returns the
    /// packets the server delivered (middlebox-dropped packets are
    /// omitted).
    ///
    /// # Errors
    ///
    /// VPN failures; unlike [`Scenario::send_from_client`], a middlebox
    /// drop of *some* packets is not an error — the survivors are
    /// returned.
    pub fn send_batch_from_client(
        &mut self,
        idx: usize,
        payloads: &[Vec<u8>],
    ) -> Result<Vec<Packet>, EndBoxError> {
        let packets: Vec<Packet> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Packet::tcp(
                    Self::client_addr(idx),
                    Self::network_addr(),
                    40_000 + idx as u16,
                    5_001,
                    i as u32,
                    p,
                )
            })
            .collect();
        self.send_packet_batch_from_client(idx, packets)
    }

    /// Sends pre-built IP packets from a client through the tunnel as one
    /// batch.
    ///
    /// # Errors
    ///
    /// See [`Scenario::send_batch_from_client`].
    pub fn send_packet_batch_from_client(
        &mut self,
        idx: usize,
        packets: Vec<Packet>,
    ) -> Result<Vec<Packet>, EndBoxError> {
        let datagrams = self.clients[idx].send_batch(packets)?;
        let mut delivered = Vec::new();
        for d in &datagrams {
            match self.server.receive_datagram(idx as u64, d)? {
                Delivery::Pending => {}
                Delivery::PacketBatch { packets, .. } => delivered.extend(packets),
                Delivery::Packet { packet, .. } => delivered.push(packet),
                other => {
                    let _ = other;
                    return Err(EndBoxError::NotReady("unexpected delivery type"));
                }
            }
        }
        Ok(delivered)
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
            .send_to_client(self.session_ids[to], &forwarded)?;
        let mut delivered = None;
        for d in &datagrams {
            if let Some(p) = self.clients[to].receive_datagram(d)? {
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
            self.clients[idx].receive_datagram(frag)?;
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

/// A running sharded deployment: [`ShardedEndBoxServer`] + clients +
/// management plane, with multi-client batched drivers for the Fig. 10
/// scalability experiments.
pub struct ShardedScenario {
    /// Scenario flavour.
    pub kind: ScenarioKind,
    /// Middlebox function deployed.
    pub use_case: UseCase,
    /// Attestation service.
    pub ias: IasSimulator,
    /// Certificate authority.
    pub ca: CertificateAuthority,
    /// The sharded VPN server.
    pub server: ShardedEndBoxServer,
    /// Server machine meter (shared with every shard worker).
    pub server_meter: CycleMeter,
    /// Configuration file server.
    pub config_server: ConfigServer,
    /// Connected clients.
    pub clients: Vec<EndBoxClient>,
    session_ids: Vec<u64>,
    /// Shared simulation clock.
    pub clock: SharedClock,
    cost: CostModel,
    /// The pluggable wire behind the sockets: [`VirtualWire`] by
    /// default, or what [`ScenarioBuilder::transport`] selected
    /// (`Some` iff built with [`ScenarioBuilder::async_ingress`]).
    wire: Option<Arc<dyn Transport>>,
    /// The event-driven socket front-end
    /// (`Some` iff built with [`ScenarioBuilder::async_ingress`]).
    front_end: Option<AsyncFrontEnd>,
    /// The TX-batching egress stage over the server's dedicated TX
    /// socket (`Some` iff built with
    /// [`ScenarioBuilder::async_ingress`]).
    tx: Option<TxBatcher>,
    /// Per-peer client-side sending halves, bound lazily on first send.
    links: HashMap<u64, FramedSender>,
    /// Egress fragment buffers of the client links (pool-backed — no
    /// fresh allocation per datagram once warm).
    egress_pool: BufferPool,
}

impl std::fmt::Debug for ShardedScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedScenario")
            .field("kind", &self.kind)
            .field("use_case", &self.use_case)
            .field("clients", &self.clients.len())
            .field("workers", &self.server.worker_count())
            .finish()
    }
}

/// Folds the next `n` datagram results of `results` into the packets
/// they delivered (`Pending` contributes nothing; middlebox-dropped
/// packets are already absent from batch deliveries). Shared by the
/// call-driven and event-driven batch drivers so the two regroupings
/// cannot drift apart.
fn collect_delivered(
    results: &mut impl Iterator<Item = Result<Delivery, EndBoxError>>,
    n: usize,
) -> Result<Vec<Packet>, EndBoxError> {
    let mut delivered = Vec::new();
    for _ in 0..n {
        match results.next().expect("one result per datagram")? {
            Delivery::Pending => {}
            Delivery::PacketBatch { packets, .. } => delivered.extend(packets),
            Delivery::Packet { packet, .. } => delivered.push(packet),
            _ => return Err(EndBoxError::NotReady("unexpected delivery type")),
        }
    }
    Ok(delivered)
}

/// Port bit distinguishing client-side sockets from server-side ones on
/// the scenario's virtual wire (server port for peer `p` is `p` itself).
const CLIENT_PORT_BIT: u64 = 1 << 63;

/// The server's dedicated TX socket (all egress towards clients leaves
/// through the [`TxBatcher`] bound here). Disjoint from both the
/// server-side per-peer ports (small integers) and the client-side ones
/// ([`CLIENT_PORT_BIT`]).
const SERVER_TX_PORT: u64 = 1 << 62;

impl ShardedScenario {
    /// The session id of client `idx`.
    pub fn session_id(&self, idx: usize) -> u64 {
        self.session_ids[idx]
    }

    /// Whether this scenario routes data-path ingress through the
    /// event-driven socket front-end
    /// ([`ScenarioBuilder::async_ingress`]).
    pub fn async_ingress_enabled(&self) -> bool {
        self.front_end.is_some()
    }

    /// Ensures `peer` has a server-side socket registered with the
    /// front-end and a client-side sending half, binding both lazily.
    /// The server socket is metered: socket receives charge the server
    /// meter like every other server-side cost.
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    fn ensure_async_peer(&mut self, peer: u64) {
        let wire = self.wire.as_ref().expect("async ingress enabled");
        let front_end = self.front_end.as_mut().expect("async ingress enabled");
        if self.links.contains_key(&peer) {
            return;
        }
        let server_ep = wire
            .bind_metered(peer, self.server_meter.clone(), &self.cost)
            .expect("unique server port per peer");
        front_end.register_peer(peer, server_ep);
        let client_ep = wire
            .bind(CLIENT_PORT_BIT | peer)
            .expect("unique client port per peer");
        self.links.insert(
            peer,
            FramedSender::with_pool(client_ep, self.cost.mtu_payload, self.egress_pool.clone()),
        );
    }

    /// Ships already-sealed wire datagrams from `peer`'s client-side
    /// socket to the server-side socket the front-end polls for that
    /// peer. Nothing is processed until [`ShardedScenario::pump_async`]
    /// runs the event loop.
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    pub fn send_wire_datagrams(&mut self, peer: u64, datagrams: Vec<Vec<u8>>) {
        self.ensure_async_peer(peer);
        self.links
            .get(&peer)
            .expect("just ensured")
            .forward(peer, datagrams)
            .expect("server socket bound");
    }

    /// Runs the event loop until every registered socket is drained,
    /// returning one `(peer, result)` per datagram in dispatch order
    /// (see [`AsyncFrontEnd::run_until_idle`]).
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    pub fn pump_async(&mut self) -> Vec<(u64, Result<Delivery, EndBoxError>)> {
        self.front_end
            .as_mut()
            .expect("async ingress enabled")
            .run_until_idle(&mut self.server)
    }

    /// One event-loop round only (budget-bounded) — what the
    /// backpressure tests step. See [`AsyncFrontEnd::pump`].
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    pub fn pump_async_round(&mut self) -> Vec<(u64, Result<Delivery, EndBoxError>)> {
        self.front_end
            .as_mut()
            .expect("async ingress enabled")
            .pump(&mut self.server)
    }

    /// Front-end counters (wakeups, rounds, datagrams, deferrals).
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    pub fn async_stats(&self) -> AsyncIngressStats {
        self.front_end
            .as_ref()
            .expect("async ingress enabled")
            .stats()
    }

    /// Datagrams queued in server-side sockets, not yet drained by the
    /// event loop (see [`AsyncFrontEnd::backlog`]).
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    pub fn backlog(&self) -> usize {
        self.front_end
            .as_ref()
            .expect("async ingress enabled")
            .backlog()
    }

    /// Snapshot of the control plane's actions so far (budget grants,
    /// remaps with their drained partial records, steals, migrations) —
    /// see [`crate::server::ControllerStats`] for the reconciliation
    /// contract.
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    pub fn controller_stats(&self) -> crate::server::ControllerStats {
        self.front_end
            .as_ref()
            .expect("async ingress enabled")
            .controller_stats(&self.server)
    }

    /// Re-homes `peer` onto RX shard / poll group `to` by hand: the RX
    /// reassembly state moves first (quiesced and drained, see
    /// [`ShardedEndBoxServer::remap_rx_peer`]), then the socket
    /// registration follows ([`AsyncFrontEnd::rehome_peer`]). Returns
    /// the drained partial-record count. The controller performs exactly
    /// this pair on its own; the manual hook exists for the adversarial
    /// remap schedules in `tests/`.
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    pub fn remap_peer(&mut self, peer: u64, to: usize) -> usize {
        // Clamp against the *live* shard count: a resize may have shrunk
        // the pool since the caller captured its target index, and
        // `rehome_peer` (deliberately) panics on stale group indices.
        let to = to % self.server.rx_shard_count();
        let drained = self.server.remap_rx_peer(peer, to);
        self.front_end
            .as_mut()
            .expect("async ingress enabled")
            .rehome_peer(peer, to);
        drained
    }

    /// Resizes the RX framing pool to `shards` threads online (see
    /// [`ShardedEndBoxServer::resize_rx_shards`] for the
    /// quiesce/drain/install discipline), then — when the event-driven
    /// front-end is attached — rebuilds the poll groups so every socket
    /// is registered with its peer's new owning shard
    /// ([`AsyncFrontEnd::resize_groups`]). Returns `(peers rehashed,
    /// in-flight partials drained)`. Works in both the call-driven and
    /// event-driven modes; the resize law performs exactly this pair on
    /// its own — the manual hook exists for the `Step::Resize` schedules
    /// in `tests/`.
    pub fn resize_rx_shards(&mut self, shards: usize) -> (usize, usize) {
        let moved = self.server.resize_rx_shards(shards);
        if let Some(fe) = self.front_end.as_mut() {
            fe.resize_groups(&self.server);
        }
        moved
    }

    /// Resizes the worker pool to `workers` shard threads online (see
    /// [`ShardedEndBoxServer::resize_workers`]); retiring workers drain
    /// their sessions to survivors before exit. Returns the sessions
    /// moved.
    pub fn resize_workers(&mut self, workers: usize) -> usize {
        self.server.resize_workers(workers)
    }

    /// Structural-elasticity counters accumulated so far (see
    /// [`crate::server::ResizeStats`]).
    pub fn resize_stats(&self) -> crate::server::ResizeStats {
        self.server.resize_stats()
    }

    /// Sets the bulk size of ingress `recv_many` calls (see
    /// [`AsyncFrontEnd::set_recv_bulk`]; `1` = per-datagram transport
    /// shape). Results are identical at every setting; only
    /// [`AsyncIngressStats::io_calls`] moves.
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    pub fn set_recv_bulk(&mut self, bulk: usize) {
        self.front_end
            .as_mut()
            .expect("async ingress enabled")
            .set_recv_bulk(bulk);
    }

    /// The wire backend name (`"virtual"` or `"os-socket"` — see
    /// [`TransportKind::name`]).
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    pub fn wire_backend(&self) -> &'static str {
        self.wire.as_ref().expect("async ingress enabled").backend()
    }

    /// Recycling counters of the client links' egress buffer pool.
    pub fn egress_pool_stats(&self) -> endbox_netsim::PoolStats {
        self.egress_pool.stats()
    }

    /// Counters of the TX-batching egress stage.
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    pub fn tx_stats(&self) -> TxBatchStats {
        self.tx.as_ref().expect("async ingress enabled").stats()
    }

    /// Seals `packets` towards client `idx` as one `DataBatch` record
    /// and ships the fragments through the TX-batching egress stage
    /// (enqueue → one bulk `send_many` per flush), then drains the
    /// client-side socket and returns the wire datagrams it received,
    /// in wire order — the egress mirror of the bulk ingress path.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Vpn`] for unknown sessions.
    ///
    /// # Panics
    ///
    /// Panics if async ingress is off.
    pub fn egress_batch_to_client(
        &mut self,
        idx: usize,
        packets: &[Packet],
    ) -> Result<Vec<Vec<u8>>, EndBoxError> {
        let peer = idx as u64;
        self.ensure_async_peer(peer);
        let session_id = self.session_ids[idx];
        let fragments = self.server.send_batch_to_client(session_id, packets)?;
        let expected = fragments.len();
        let tx = self.tx.as_mut().expect("async ingress enabled");
        tx.enqueue(CLIENT_PORT_BIT | peer, fragments);
        tx.flush().expect("client socket bound");
        // Drain the client side. The OS backend crosses the kernel, so
        // give delivery a bounded moment; the virtual wire is immediate.
        let client_ep = self.links.get(&peer).expect("just ensured").endpoint();
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

    /// Sends several application payloads from one client as a batch
    /// through the sharded server (the counterpart of
    /// [`Scenario::send_batch_from_client`]).
    ///
    /// # Errors
    ///
    /// VPN failures; middlebox drops of *some* packets are not an error.
    pub fn send_batch_from_client(
        &mut self,
        idx: usize,
        payloads: &[Vec<u8>],
    ) -> Result<Vec<Packet>, EndBoxError> {
        let packets: Vec<Packet> = payloads
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
            .collect();
        self.send_packet_batch_from_client(idx, packets)
    }

    /// Sends pre-built IP packets from one client through the tunnel as a
    /// batch.
    ///
    /// # Errors
    ///
    /// See [`ShardedScenario::send_batch_from_client`].
    pub fn send_packet_batch_from_client(
        &mut self,
        idx: usize,
        packets: Vec<Packet>,
    ) -> Result<Vec<Packet>, EndBoxError> {
        let mut per_client = self.send_packet_batches_from_all(vec![(idx, packets)])?;
        Ok(per_client.pop().expect("one batch in, one batch out"))
    }

    /// The multi-client driver: every `(client idx, packets)` entry is
    /// sealed by its client, then **all** resulting wire datagrams go
    /// through the server in one
    /// [`ShardedEndBoxServer::receive_datagrams`] dispatch. Returns the
    /// delivered packets per input entry, in input order (middlebox drops
    /// are omitted).
    ///
    /// # Errors
    ///
    /// The first client-side or server-side failure.
    pub fn send_packet_batches_from_all(
        &mut self,
        batches: Vec<(usize, Vec<Packet>)>,
    ) -> Result<Vec<Vec<Packet>>, EndBoxError> {
        if self.async_ingress_enabled() {
            return self.send_packet_batches_async(batches);
        }
        // Client side: each client seals its own batch.
        let mut datagrams: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut slices: Vec<usize> = Vec::with_capacity(batches.len());
        for (idx, packets) in batches {
            let sealed = self.clients[idx].send_batch(packets)?;
            slices.push(sealed.len());
            datagrams.extend(sealed.into_iter().map(|d| (idx as u64, d)));
        }
        // Server side: one pipelined dispatch for the whole interleaving
        // (ownership of the wire bytes moves into the RX stage).
        let results = self.server.receive_datagrams(datagrams);
        // Re-split the input-ordered results back per entry.
        let mut out = Vec::with_capacity(slices.len());
        let mut cursor = results.into_iter();
        for n in slices {
            out.push(collect_delivered(&mut cursor, n)?);
        }
        Ok(out)
    }

    /// The event-driven flavour of
    /// [`ShardedScenario::send_packet_batches_from_all`]: sealed
    /// datagrams ride the virtual wire into per-peer server sockets and
    /// the [`AsyncFrontEnd`] drains them through the same pipelined
    /// dispatch. Results are regrouped **per peer** (per-peer order is
    /// exact for any backpressure setting; see [`AsyncFrontEnd`]).
    fn send_packet_batches_async(
        &mut self,
        batches: Vec<(usize, Vec<Packet>)>,
    ) -> Result<Vec<Vec<Packet>>, EndBoxError> {
        // A backlog from an earlier budget-bounded pump would be drained
        // first and mis-attributed to this batch's datagrams; callers
        // mixing manual pump rounds with the batch drivers must drain
        // (`pump_async`) before sealing new traffic.
        assert_eq!(
            self.backlog(),
            0,
            "drain the socket backlog with pump_async() before sending a new batch"
        );
        let mut expected: Vec<(u64, usize)> = Vec::with_capacity(batches.len());
        for (idx, packets) in batches {
            let peer = idx as u64;
            let sealed = self.clients[idx].send_batch(packets)?;
            expected.push((peer, sealed.len()));
            self.send_wire_datagrams(peer, sealed);
        }
        let mut by_peer: HashMap<u64, VecDeque<Result<Delivery, EndBoxError>>> = HashMap::new();
        for (peer, result) in self.pump_async() {
            by_peer.entry(peer).or_default().push_back(result);
        }
        let mut out = Vec::with_capacity(expected.len());
        for (peer, n) in expected {
            // Take exactly this entry's results, leaving the remainder for
            // a later entry of the same client (per-peer order is the
            // order the entries sealed in).
            let queue = by_peer.entry(peer).or_default();
            assert!(queue.len() >= n, "one result per datagram");
            out.push(collect_delivered(&mut queue.drain(..n), n)?);
        }
        Ok(out)
    }

    /// Per-client packet counts for one round of a heavy-tailed load mix:
    /// client `i` contributes `ceil(weights[i] * base_batch)` packets
    /// (minimum 1, so every session stays active). With the Zipf weights
    /// of `eval::scalability::heavy_tail_weights`, a few elephant clients
    /// seal deep batches while the mice send single packets — the skew
    /// the load-aware dispatcher is measured against.
    pub fn heavy_tail_batch_sizes(weights: &[f64], base_batch: usize) -> Vec<usize> {
        let max = weights.iter().copied().fold(0.0f64, f64::max).max(1e-12);
        weights
            .iter()
            .map(|w| ((w / max) * base_batch as f64).ceil().max(1.0) as usize)
            .collect()
    }

    /// Drives one round of a heavy-tailed multi-client load mix: every
    /// client seals a batch sized by its weight, and the whole skewed
    /// interleaving goes through the server in one pipelined dispatch.
    /// Returns the delivered packets per client.
    ///
    /// # Errors
    ///
    /// See [`ShardedScenario::send_packet_batches_from_all`].
    pub fn send_heavy_tailed_round(
        &mut self,
        weights: &[f64],
        base_batch: usize,
        payload_len: usize,
        round: usize,
    ) -> Result<Vec<Vec<Packet>>, EndBoxError> {
        assert_eq!(weights.len(), self.clients.len(), "one weight per client");
        let sizes = Self::heavy_tail_batch_sizes(weights, base_batch);
        let payloads: Vec<Vec<Vec<u8>>> = sizes
            .iter()
            .enumerate()
            .map(|(c, &n)| {
                (0..n)
                    .map(|i| {
                        let mut p = format!("ht round {round} client {c} pkt {i} ").into_bytes();
                        p.resize(payload_len.max(p.len()), b'x');
                        p.truncate(payload_len.max(1));
                        p
                    })
                    .collect()
            })
            .collect();
        self.send_batches_from_all(&payloads)
    }

    /// Convenience over [`ShardedScenario::send_packet_batches_from_all`]:
    /// client `i` sends `payloads_per_client[i]` as one batch each, all in
    /// one server dispatch.
    ///
    /// # Errors
    ///
    /// See [`ShardedScenario::send_packet_batches_from_all`].
    pub fn send_batches_from_all(
        &mut self,
        payloads_per_client: &[Vec<Vec<u8>>],
    ) -> Result<Vec<Vec<Packet>>, EndBoxError> {
        let batches = payloads_per_client
            .iter()
            .enumerate()
            .map(|(idx, payloads)| {
                (
                    idx,
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
                        .collect(),
                )
            })
            .collect();
        self.send_packet_batches_from_all(batches)
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
        let mut s = Scenario::enterprise(1, UseCase::Idps).build().unwrap();
        let packets = vec![
            Packet::tcp(
                Scenario::client_addr(0),
                Scenario::network_addr(),
                40_000,
                80,
                0,
                b"benign one",
            ),
            Packet::tcp(
                Scenario::client_addr(0),
                Scenario::network_addr(),
                40_000,
                80,
                1,
                b"xx EB-MAL-0000 xx",
            ),
            Packet::tcp(
                Scenario::client_addr(0),
                Scenario::network_addr(),
                40_000,
                80,
                2,
                b"benign two",
            ),
        ];
        let delivered = s.send_packet_batch_from_client(0, packets).unwrap();
        assert_eq!(delivered.len(), 2, "malicious middle packet dropped");
        assert_eq!(delivered[0].app_payload(), b"benign one");
        assert_eq!(delivered[1].app_payload(), b"benign two");
        assert_eq!(s.clients[0].stats.dropped_egress, 1);
    }

    #[test]
    fn batched_path_is_cheaper_per_packet_than_single() {
        let payloads: Vec<Vec<u8>> = (0..16).map(|_| vec![0xa5u8; 1000]).collect();

        let mut single = Scenario::enterprise(1, UseCase::Nop).build().unwrap();
        let meter = single.clients[0].meter().clone();
        single.send_from_client(0, &payloads[0]).unwrap(); // warm-up
        meter.take();
        for p in &payloads {
            single.send_from_client(0, p).unwrap();
        }
        let single_cycles = meter.take();

        let mut batched = Scenario::enterprise(1, UseCase::Nop).build().unwrap();
        let meter = batched.clients[0].meter().clone();
        batched.send_from_client(0, &payloads[0]).unwrap(); // warm-up
        meter.take();
        let delivered = batched.send_batch_from_client(0, &payloads).unwrap();
        assert_eq!(delivered.len(), 16);
        let batch_cycles = meter.take();

        assert!(
            batch_cycles < single_cycles,
            "batched client path must be cheaper: {batch_cycles} vs {single_cycles}"
        );
    }

    #[test]
    fn batched_ingress_to_client_roundtrips() {
        let mut s = Scenario::enterprise(2, UseCase::Nop).build().unwrap();
        // Client 0 sends a batch addressed to client 1; the server relays
        // it as one batched record.
        let packets: Vec<Packet> = (0..5)
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
            .collect();
        let forwarded = s.send_packet_batch_from_client(0, packets).unwrap();
        assert_eq!(forwarded.len(), 5);
        let sid = s.session_id(1);
        let datagrams = s.server.send_batch_to_client(sid, &forwarded).unwrap();
        let mut delivered = Vec::new();
        for d in &datagrams {
            delivered.extend(s.clients[1].receive_datagram_batch(d).unwrap());
        }
        assert_eq!(delivered.len(), 5);
        for (i, pkt) in delivered.iter().enumerate() {
            assert_eq!(pkt.app_payload(), format!("c2c batch {i}").as_bytes());
        }
        assert_eq!(s.clients[1].stats.received, 5);
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
    fn heavy_tailed_round_skews_batches_and_triggers_migration() {
        let mut s = Scenario::enterprise(8, UseCase::Nop)
            .build_sharded(4)
            .unwrap();
        let weights = crate::eval::scalability::heavy_tail_weights(8);
        let sizes = ShardedScenario::heavy_tail_batch_sizes(&weights, 16);
        assert_eq!(sizes[0], 16, "the heaviest client seals a full batch");
        assert!(sizes.iter().all(|&n| n >= 1), "mice stay active: {sizes:?}");
        assert!(sizes[0] > sizes[1], "the mix must actually skew: {sizes:?}");
        for round in 0..4 {
            let delivered = s.send_heavy_tailed_round(&weights, 16, 600, round).unwrap();
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
    fn sharded_scenario_end_to_end() {
        let mut s = Scenario::enterprise(4, UseCase::Firewall)
            .build_sharded(2)
            .unwrap();
        assert_eq!(s.server.session_count(), 4);
        assert_eq!(s.server.worker_count(), 2);
        // Every client sends one batch; all batches go through the server
        // in one multi-client dispatch.
        let payloads: Vec<Vec<Vec<u8>>> = (0..4)
            .map(|c| {
                (0..5)
                    .map(|i| format!("client {c} payload {i}").into_bytes())
                    .collect()
            })
            .collect();
        let delivered = s.send_batches_from_all(&payloads).unwrap();
        assert_eq!(delivered.len(), 4);
        for (c, per_client) in delivered.iter().enumerate() {
            assert_eq!(per_client.len(), 5, "client {c}");
            for (i, pkt) in per_client.iter().enumerate() {
                assert_eq!(pkt.app_payload(), payloads[c][i].as_slice());
            }
        }
        assert_eq!(s.server.counters(), (20, 0, 0));
    }

    #[test]
    fn duplicate_client_entries_regroup_identically_in_both_modes() {
        // One client may appear in several batch entries of one driver
        // call; both ingress modes must split its results back per entry.
        let build = |async_ingress: bool| {
            Scenario::enterprise(2, UseCase::Nop)
                .seed(0xd0b1)
                .rx_shards(2)
                .async_ingress(async_ingress)
                .build_sharded(2)
                .unwrap()
        };
        let mk = |idx: usize, tag: &str, n: usize| -> Vec<Packet> {
            (0..n)
                .map(|i| {
                    Packet::tcp(
                        Scenario::client_addr(idx),
                        Scenario::network_addr(),
                        40_000 + idx as u16,
                        5_001,
                        i as u32,
                        format!("{tag} {i}").as_bytes(),
                    )
                })
                .collect()
        };
        let batches = || {
            vec![
                (0, mk(0, "first", 2)),
                (1, mk(1, "other", 1)),
                (0, mk(0, "second", 3)),
            ]
        };
        let mut sync = build(false);
        let mut async_ = build(true);
        let a = sync.send_packet_batches_from_all(batches()).unwrap();
        let b = async_.send_packet_batches_from_all(batches()).unwrap();
        let bytes = |v: &Vec<Vec<Packet>>| -> Vec<Vec<Vec<u8>>> {
            v.iter()
                .map(|ps| ps.iter().map(|p| p.bytes().to_vec()).collect())
                .collect()
        };
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].len(), 2);
        assert_eq!(a[1].len(), 1);
        assert_eq!(a[2].len(), 3);
        assert_eq!(bytes(&a), bytes(&b));
    }

    #[test]
    fn async_ingress_delivers_identically_to_call_driven_ingress() {
        let payloads: Vec<Vec<Vec<u8>>> = (0..4)
            .map(|c| {
                (0..5)
                    .map(|i| format!("async client {c} payload {i}").into_bytes())
                    .collect()
            })
            .collect();
        let mut sync = Scenario::enterprise(4, UseCase::Firewall)
            .rx_shards(2)
            .build_sharded(2)
            .unwrap();
        let mut async_ = Scenario::enterprise(4, UseCase::Firewall)
            .rx_shards(2)
            .async_ingress(true)
            .build_sharded(2)
            .unwrap();
        assert!(!sync.async_ingress_enabled());
        assert!(async_.async_ingress_enabled());
        for round in 0..3 {
            let a = sync.send_batches_from_all(&payloads).unwrap();
            let b = async_.send_batches_from_all(&payloads).unwrap();
            let bytes = |v: &Vec<Vec<Packet>>| -> Vec<Vec<Vec<u8>>> {
                v.iter()
                    .map(|ps| ps.iter().map(|p| p.bytes().to_vec()).collect())
                    .collect()
            };
            assert_eq!(bytes(&a), bytes(&b), "round {round}");
        }
        let stats = async_.async_stats();
        assert_eq!(stats.datagrams, 4 * 3, "one record datagram per batch");
        assert!(stats.wakeups >= stats.rounds, "every round polls");
        assert_eq!(stats.deferred_rounds, 0, "no backpressure at this load");
        assert_eq!(sync.server.counters(), async_.server.counters());
    }

    #[test]
    fn sharded_scenario_filters_malicious_per_packet() {
        let mut s = Scenario::enterprise(2, UseCase::Idps)
            .build_sharded(4)
            .unwrap();
        let packets = vec![
            Packet::tcp(
                Scenario::client_addr(0),
                Scenario::network_addr(),
                40_000,
                80,
                0,
                b"benign one",
            ),
            Packet::tcp(
                Scenario::client_addr(0),
                Scenario::network_addr(),
                40_000,
                80,
                1,
                b"xx EB-MAL-0000 xx",
            ),
        ];
        let delivered = s.send_packet_batch_from_client(0, packets).unwrap();
        assert_eq!(delivered.len(), 1, "client-side Click drops the attack");
        assert_eq!(delivered[0].app_payload(), b"benign one");
    }

    #[test]
    fn sharded_server_ingress_and_ping_roundtrip() {
        let mut s = Scenario::enterprise(2, UseCase::Nop)
            .build_sharded(2)
            .unwrap();
        // Server ping (config announcement) reaches the client.
        s.server.announce_config(3, 30);
        let sid = s.session_id(1);
        let ping = s.server.make_ping(sid).unwrap();
        for frag in &ping {
            s.clients[1].receive_datagram(frag).unwrap();
        }
        // Ingress: server seals a batch towards client 1.
        let pkts: Vec<Packet> = (0..3)
            .map(|i| {
                Packet::tcp(
                    Scenario::network_addr(),
                    Scenario::client_addr(1),
                    5_001,
                    40_001,
                    i as u32,
                    format!("ingress {i}").as_bytes(),
                )
            })
            .collect();
        let datagrams = s.server.send_batch_to_client(sid, &pkts).unwrap();
        let mut delivered = Vec::new();
        for d in &datagrams {
            delivered.extend(s.clients[1].receive_datagram_batch(d).unwrap());
        }
        assert_eq!(delivered.len(), 3);
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
