//! The EndBox client: the untrusted half (tun I/O, fragmentation,
//! sockets, config fetching) wrapped around the trusted
//! [`crate::enclave_app::EnclaveApp`].
//!
//! The same type also models a *vanilla OpenVPN client*
//! ([`TrustLevel::Untrusted`]): identical protocol logic with no enclave
//! charges and no Click — the baseline of Fig. 8.

use crate::ca::CertificateAuthority;
use crate::config_update::ConfigServer;
use crate::enclave_app::{EgressResult, EnclaveApp, EnclaveAppConfig};
use crate::error::EndBoxError;
use endbox_click::element::FlowId;
use endbox_crypto::schnorr::VerifyingKey;
use endbox_netsim::cost::{CostModel, CycleMeter};
use endbox_netsim::time::SharedClock;
use endbox_netsim::Packet;
use endbox_netsim::PacketBatch;
use endbox_sgx::attestation::{CpuIdentity, IasSimulator, QuotingEnclave};
use endbox_sgx::SgxMode;
use endbox_vpn::channel::CipherSuite;
use endbox_vpn::frag::{Fragmenter, Reassembler};
use endbox_vpn::ping::PingMessage;
use endbox_vpn::proto::{Opcode, Record};
use endbox_vpn::{PROTOCOL_V1, PROTOCOL_V2};

/// How much hardware protection the client's middlebox gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrustLevel {
    /// No enclave at all: a vanilla OpenVPN client (baseline).
    Untrusted,
    /// EndBox with the SDK simulation mode (EndBox-SIM).
    Simulation,
    /// EndBox with hardware SGX (EndBox-SGX).
    Hardware,
}

impl TrustLevel {
    fn sgx_mode(self) -> SgxMode {
        match self {
            // Untrusted reuses the simulation container with zeroed costs.
            TrustLevel::Untrusted | TrustLevel::Simulation => SgxMode::Simulation,
            TrustLevel::Hardware => SgxMode::Hardware,
        }
    }
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct EndBoxClientConfig {
    /// Certificate subject for this client.
    pub subject: String,
    /// Protection level.
    pub trust: TrustLevel,
    /// Data-channel suite.
    pub suite: CipherSuite,
    /// Click configuration (`None` = vanilla client without middlebox).
    pub click_config: Option<String>,
    /// Initial configuration version.
    pub config_version: u64,
    /// Offered protocol version.
    pub offered_version: u8,
    /// Minimum accepted protocol version (enforced inside the enclave).
    pub min_version: u8,
    /// Client-to-client QoS flagging optimisation (§IV-A).
    pub c2c_flagging: bool,
    /// One ecall per packet (the §IV-A optimisation) vs one per crypto op.
    pub batched_ecalls: bool,
    /// CA public key baked into the binary.
    pub ca_public: VerifyingKey,
    /// Cost model.
    pub cost: CostModel,
    /// Client machine cycle meter.
    pub meter: CycleMeter,
    /// Simulation clock.
    pub clock: SharedClock,
    /// Platform identity (CPU fuse keys).
    pub cpu: CpuIdentity,
    /// Deterministic seed.
    pub rng_seed: u64,
}

impl EndBoxClientConfig {
    /// A reasonable default configuration for `subject` on `cpu`,
    /// protected by `ca_public`.
    pub fn new(subject: &str, ca_public: VerifyingKey, cpu: CpuIdentity) -> Self {
        EndBoxClientConfig {
            subject: subject.to_string(),
            trust: TrustLevel::Hardware,
            suite: CipherSuite::Aes128CbcHmac,
            click_config: Some("FromDevice(tun0) -> ToDevice(tun0);".to_string()),
            config_version: 1,
            offered_version: PROTOCOL_V2,
            min_version: PROTOCOL_V1,
            c2c_flagging: false,
            batched_ecalls: true,
            ca_public,
            cost: CostModel::calibrated(),
            meter: CycleMeter::new(),
            clock: SharedClock::new(),
            cpu,
            rng_seed: 0xc11e47,
        }
    }
}

/// Client-side traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Packets handed to the tunnel by applications.
    pub sent: u64,
    /// Packets delivered to applications.
    pub received: u64,
    /// Egress packets dropped by the middlebox.
    pub dropped_egress: u64,
    /// Ingress packets dropped by the middlebox.
    pub dropped_ingress: u64,
    /// Datagrams emitted on the wire.
    pub datagrams_out: u64,
}

/// The EndBox client.
#[derive(Debug)]
pub struct EndBoxClient {
    app: EnclaveApp,
    trust: TrustLevel,
    fragmenter: Fragmenter,
    reassembler: Reassembler,
    qe: QuotingEnclave,
    cost: CostModel,
    meter: CycleMeter,
    clock: SharedClock,
    session_id: Option<u64>,
    pending_update: Option<u64>,
    /// Traffic counters.
    pub stats: ClientStats,
}

impl EndBoxClient {
    /// Builds the client (creates the enclave, loads the initial Click
    /// configuration).
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Click`] for invalid initial configurations.
    pub fn new(cfg: EndBoxClientConfig) -> Result<EndBoxClient, EndBoxError> {
        // Vanilla clients pay no enclave costs: zero out transition and
        // partition charges, and run without a middlebox.
        let mut cost = cfg.cost.clone();
        let click_config = match cfg.trust {
            TrustLevel::Untrusted => {
                cost.ecall_sim = 0;
                cost.partition_per_packet = 0;
                cost.partition_per_byte = 0.0;
                None
            }
            _ => cfg.click_config.clone(),
        };
        let app = EnclaveApp::new(EnclaveAppConfig {
            subject: cfg.subject.clone(),
            mode: cfg.trust.sgx_mode(),
            suite: cfg.suite,
            click_config: click_config
                .unwrap_or_else(|| "FromDevice(tun0) -> ToDevice(tun0);".to_string()),
            click_config_version: cfg.config_version,
            ca_public: cfg.ca_public,
            offered_version: cfg.offered_version,
            min_version: cfg.min_version,
            c2c_flagging: cfg.c2c_flagging,
            batched_ecalls: cfg.batched_ecalls,
            cost: cost.clone(),
            meter: cfg.meter.clone(),
            clock: cfg.clock.clone(),
            cpu: cfg.cpu.clone(),
            rng_seed: cfg.rng_seed,
        })?;
        Ok(EndBoxClient {
            app,
            trust: cfg.trust,
            fragmenter: Fragmenter::new(),
            reassembler: Reassembler::new(),
            qe: QuotingEnclave::new(cfg.cpu),
            cost,
            meter: cfg.meter,
            clock: cfg.clock,
            session_id: None,
            pending_update: None,
            stats: ClientStats::default(),
        })
    }

    /// Runs the full Fig. 4 enrollment against the CA and IAS. Returns the
    /// sealed enrollment blob the host should persist: a later restart can
    /// skip attestation via [`EndBoxClient::restore_enrollment`].
    ///
    /// # Errors
    ///
    /// Attestation failures (unknown measurement, revoked platform, …).
    pub fn enroll(
        &mut self,
        subject: &str,
        ca: &mut CertificateAuthority,
        ias: &IasSimulator,
        rng: &mut impl rand::RngCore,
    ) -> Result<Vec<u8>, EndBoxError> {
        let report = self.app.begin_enrollment()?;
        let quote = self.qe.quote(&report, rng)?;
        let now_secs = self.clock.now().as_secs_f64() as u64;
        let response = ca.enroll(subject, &quote, ias, now_secs, rng)?;
        self.app.finish_enrollment(&response, now_secs)
    }

    /// Restores a previous enrollment from its sealed blob — no CA or IAS
    /// interaction needed ("an enclave only has to be attested once",
    /// §III-C).
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Enrollment`] when the blob was sealed on a different
    /// CPU or by different enclave code.
    pub fn restore_enrollment(&mut self, sealed: &[u8]) -> Result<(), EndBoxError> {
        self.app.restore_enrollment(sealed)
    }

    /// Starts the VPN handshake; send the returned datagrams to the
    /// server.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::NotReady`] before enrollment.
    pub fn connect_start(&mut self) -> Result<Vec<Vec<u8>>, EndBoxError> {
        let record = self.app.handshake_start()?;
        Ok(self.fragment_record(&record))
    }

    /// Completes the handshake from the server's response datagram.
    ///
    /// # Errors
    ///
    /// Handshake validation failures.
    pub fn connect_complete(&mut self, datagram: &[u8]) -> Result<(), EndBoxError> {
        let Some(bytes) = self.reassembler.push(datagram)? else {
            return Err(EndBoxError::NotReady("handshake response incomplete"));
        };
        let record = Record::from_vec(bytes)?;
        if record.opcode != Opcode::HandshakeResp {
            return Err(EndBoxError::Vpn(endbox_vpn::VpnError::Malformed(
                "expected HandshakeResp",
            )));
        }
        let session = self.app.handshake_complete(&record)?;
        self.session_id = Some(session);
        Ok(())
    }

    /// True once the tunnel is established.
    pub fn is_connected(&self) -> bool {
        self.session_id.is_some()
    }

    /// The negotiated session id.
    pub fn session_id(&self) -> Option<u64> {
        self.session_id
    }

    /// Sends one IP packet through the middlebox and tunnel. Returns the
    /// wire datagrams (possibly several fragments), or an empty vector if
    /// the middlebox dropped the packet.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::NotReady`] before connecting.
    pub fn send_packet(&mut self, packet: Packet) -> Result<Vec<Vec<u8>>, EndBoxError> {
        self.stats.sent += 1;
        // Untrusted side: tun read + user-space bookkeeping.
        self.meter.add(
            self.cost.vpn_per_write + (self.cost.memcpy_per_byte * packet.len() as f64) as u64,
        );
        match self.app.process_egress(packet)? {
            EgressResult::Dropped => {
                self.stats.dropped_egress += 1;
                Ok(Vec::new())
            }
            EgressResult::Sealed(record) => Ok(self.fragment_record(&record)),
        }
    }

    /// Sends a whole batch of IP packets through the middlebox and tunnel
    /// as **one** unit: one enclave transition, one Click traversal, one
    /// sealed `DataBatch` record (then fragmented as usual). Returns the
    /// wire datagrams, empty when the middlebox dropped every packet.
    ///
    /// Per-packet tun reads still cost what they cost on the untrusted
    /// side; the batching win is on the enclave boundary, the record
    /// framing and the crypto fixed costs.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::NotReady`] before connecting.
    pub fn send_batch(&mut self, packets: Vec<Packet>) -> Result<Vec<Vec<u8>>, EndBoxError> {
        if packets.is_empty() {
            return Ok(Vec::new());
        }
        self.stats.sent += packets.len() as u64;
        let total_bytes: usize = packets.iter().map(Packet::len).sum();
        // Untrusted side: one tun read + bookkeeping per packet.
        self.meter.add(
            self.cost.vpn_per_write * packets.len() as u64
                + (self.cost.memcpy_per_byte * total_bytes as f64) as u64,
        );
        let result = self.app.process_egress_batch(PacketBatch::from(packets))?;
        self.stats.dropped_egress += result.dropped as u64;
        match result.record {
            None => Ok(Vec::new()),
            Some(record) => Ok(self.fragment_record(&record)),
        }
    }

    /// Receives one wire datagram on the batched path; returns every
    /// packet delivered once a full record reassembles. Handles plain
    /// `Data`, batched `DataBatch` and `Ping` records, so a receive loop
    /// can be pointed at a mixed stream.
    ///
    /// # Errors
    ///
    /// Authentication/replay/fragmentation failures.
    pub fn receive_datagram_batch(&mut self, datagram: &[u8]) -> Result<Vec<Packet>, EndBoxError> {
        self.meter.add(self.cost.vpn_per_fragment);
        let Some(bytes) = self.reassembler.push(datagram)? else {
            return Ok(Vec::new());
        };
        let record = Record::from_vec(bytes)?;
        self.dispatch_record(&record)
    }

    /// Shared data-path dispatch for reassembled records (both receive
    /// entry points), including stats/meter accounting.
    fn dispatch_record(&mut self, record: &Record) -> Result<Vec<Packet>, EndBoxError> {
        match record.opcode {
            Opcode::DataBatch => {
                let result = self.app.process_ingress_batch(record)?;
                let delivered = result.packets;
                self.stats.received += delivered.len() as u64;
                self.stats.dropped_ingress += (result.frames - delivered.len()) as u64;
                // Untrusted side: one tun write per delivered packet.
                self.meter
                    .add(self.cost.vpn_per_write * delivered.len() as u64);
                Ok(delivered)
            }
            Opcode::Data => {
                let delivered = self.app.process_ingress(record)?;
                match delivered {
                    Some(pkt) => {
                        self.stats.received += 1;
                        // Untrusted side: write to the application/tun.
                        self.meter.add(self.cost.vpn_per_write);
                        Ok(vec![pkt])
                    }
                    None => {
                        self.stats.dropped_ingress += 1;
                        Ok(Vec::new())
                    }
                }
            }
            Opcode::Ping => {
                let msg = self.app.process_ping(record)?;
                self.note_announcement(&msg);
                Ok(Vec::new())
            }
            _ => Err(EndBoxError::Vpn(endbox_vpn::VpnError::Malformed(
                "unexpected record on data path",
            ))),
        }
    }

    /// Receives one wire datagram; returns a packet when a full record
    /// reassembles, decrypts, and passes the middlebox. (Batched
    /// `DataBatch` records go through
    /// [`EndBoxClient::receive_datagram_batch`].)
    ///
    /// # Errors
    ///
    /// Authentication/replay/fragmentation failures.
    pub fn receive_datagram(&mut self, datagram: &[u8]) -> Result<Option<Packet>, EndBoxError> {
        self.meter.add(self.cost.vpn_per_fragment);
        let Some(bytes) = self.reassembler.push(datagram)? else {
            return Ok(None);
        };
        let record = Record::from_vec(bytes)?;
        if record.opcode == Opcode::DataBatch {
            // A batched record can deliver several packets; this
            // single-packet entry point cannot represent that without
            // silently dropping the rest.
            return Err(EndBoxError::Vpn(endbox_vpn::VpnError::Malformed(
                "batched record on single-packet receive path",
            )));
        }
        Ok(self.dispatch_record(&record)?.pop())
    }

    fn note_announcement(&mut self, msg: &PingMessage) {
        let current = self.app.config_version();
        if msg.config_version > current {
            self.pending_update = Some(msg.config_version);
        }
    }

    /// A configuration version announced by the server that we have not
    /// applied yet (Fig. 5 step 5).
    pub fn pending_update(&self) -> Option<u64> {
        self.pending_update
    }

    /// Fetches and applies a pending update from the config server
    /// (Fig. 5 steps 6–8). Returns `true` if an update was applied.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::ConfigUpdate`] on verification failures.
    pub fn fetch_and_apply_update(
        &mut self,
        config_server: &ConfigServer,
    ) -> Result<bool, EndBoxError> {
        let Some(version) = self.pending_update else {
            return Ok(false);
        };
        let signed = config_server
            .fetch(version)
            .ok_or(EndBoxError::ConfigUpdate(
                "announced version not on config server",
            ))?;
        self.app.apply_config(signed)?;
        self.pending_update = None;
        Ok(true)
    }

    /// Builds the client's periodic ping (proves the config version,
    /// Fig. 5 step 9).
    ///
    /// # Errors
    ///
    /// [`EndBoxError::NotReady`] before connecting.
    pub fn build_ping(&mut self) -> Result<Vec<Vec<u8>>, EndBoxError> {
        let record = self.app.build_ping()?;
        Ok(self.fragment_record(&record))
    }

    /// Registers a TLS session key forwarded by the patched TLS library
    /// (§III-D management-interface path).
    ///
    /// # Errors
    ///
    /// Enclave interface errors.
    pub fn register_tls_key(&mut self, flow: FlowId, key: [u8; 16]) -> Result<(), EndBoxError> {
        self.app.register_tls_key(flow, key)
    }

    /// Reads a Click handler inside the enclave (management interface).
    pub fn click_handler(&mut self, element: &str, handler: &str) -> Option<String> {
        self.app.click_read_handler(element, handler)
    }

    /// The configuration version currently applied.
    pub fn config_version(&mut self) -> u64 {
        self.app.config_version()
    }

    /// Direct access to the enclave application (tests, attack battery).
    pub fn enclave_app(&mut self) -> &mut EnclaveApp {
        &mut self.app
    }

    /// Recycling counters of the in-enclave ingress buffer pool — the
    /// client-side counterpart of the server shards' `PoolStats`, so
    /// ingress reuse is observable on both ends of the tunnel.
    pub fn ingress_pool_stats(&mut self) -> endbox_netsim::PoolStats {
        self.app.ingress_pool_stats()
    }

    /// This client's trust level.
    pub fn trust(&self) -> TrustLevel {
        self.trust
    }

    /// The client's cycle meter.
    pub fn meter(&self) -> &CycleMeter {
        &self.meter
    }

    fn fragment_record(&mut self, record: &Record) -> Vec<Vec<u8>> {
        // Fragmentation/encapsulation happens outside the enclave on the
        // sealed bytes (Fig. 3).
        let frags = self
            .fragmenter
            .fragment_record(record, self.cost.mtu_payload);
        self.meter
            .add(self.cost.vpn_per_fragment * frags.len() as u64);
        self.stats.datagrams_out += frags.len() as u64;
        frags
    }
}
