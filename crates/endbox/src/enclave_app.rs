//! The trusted half of the EndBox client: everything inside the SGX
//! enclave.
//!
//! Per Fig. 3, the enclave contains the Click router, the VPN data-channel
//! cryptography and all key material; packet encapsulation, fragmentation
//! and socket I/O stay outside. The hot path performs **one ecall per
//! packet** ("ENDBOX performs only one ecall per sent or received packet",
//! §IV-A); the `batched_ecalls(false)` configuration reproduces the
//! unoptimised TaLoS-style variant (one boundary crossing per crypto
//! operation) for the §V-G ablation.
//!
//! Each direction has one ecall body. Egress,
//! [`EnclaveApp::process_egress`], runs Click over the packets and seals
//! the record its caller names: a per-packet `Data` record (the paper's
//! baseline) or a batched `DataBatch` record. Ingress,
//! [`EnclaveApp::process_ingress_batch`], opens a `DataBatch`: everything
//! the server seals for a client is one.

use crate::ca::EnrollmentResponse;
use crate::config_update::SignedConfig;
use crate::error::EndBoxError;
use crate::interface::Ecall;
use endbox_click::element::{ElementEnv, FlowId, SessionKeyStore};
use endbox_click::Router;
use endbox_crypto::schnorr::{SigningKey, VerifyingKey};
use endbox_crypto::x25519;
use endbox_netsim::cost::{CostModel, CycleMeter};
use endbox_netsim::packet::QOS_ENDBOX_PROCESSED;
use endbox_netsim::time::SharedClock;
use endbox_netsim::{BufferPool, Packet, PacketBatch, PoolStats};
use endbox_sgx::attestation::{CpuIdentity, Report};
use endbox_sgx::{Enclave, EnclaveBuilder, EnclaveError, EnclaveServices, SgxMode};
use endbox_vpn::channel::{CipherSuite, DataChannel};
use endbox_vpn::handshake::{
    client_complete, client_start, ClientState, HandshakeConfig, ServerHello,
};
use endbox_vpn::ping::PingMessage;
use endbox_vpn::proto::{Opcode, Record};
use endbox_vpn::Certificate;

/// Configuration for the enclave application.
#[derive(Debug, Clone)]
pub struct EnclaveAppConfig {
    /// Subject name used on the client certificate.
    pub subject: String,
    /// Execution mode (hardware vs SDK simulation).
    pub mode: SgxMode,
    /// Data-channel suite (enterprise: AES-128-GCM; ISP: integrity-only).
    pub suite: CipherSuite,
    /// Initial Click configuration.
    pub click_config: String,
    /// Version number of the initial configuration.
    pub click_config_version: u64,
    /// CA public key baked into the enclave binary (covered by the
    /// measurement, §III-C).
    pub ca_public: VerifyingKey,
    /// Protocol version offered in the handshake.
    pub offered_version: u8,
    /// Minimum protocol version accepted (checked *inside* the enclave).
    pub min_version: u8,
    /// Enable the client-to-client QoS flagging optimisation (§IV-A).
    pub c2c_flagging: bool,
    /// One ecall per packet (true, the EndBox optimisation) or one call
    /// per crypto operation (false, the naive baseline).
    pub batched_ecalls: bool,
    /// Cost model.
    pub cost: CostModel,
    /// Cycle meter of the client machine.
    pub meter: CycleMeter,
    /// Simulation clock.
    pub clock: SharedClock,
    /// Platform identity.
    pub cpu: CpuIdentity,
    /// Deterministic RNG seed for in-enclave randomness.
    pub rng_seed: u64,
}

/// Result of processing an egress batch in one enclave transition.
#[derive(Debug)]
pub struct EgressBatchResult {
    /// The sealed record (`Data` or `DataBatch`, as asked) covering every
    /// accepted packet, or `None` when the middlebox dropped the whole
    /// batch.
    pub record: Option<Record>,
    /// Input packets accepted by the middlebox.
    pub accepted: usize,
    /// Input packets rejected by the middlebox.
    pub dropped: usize,
}

/// Result of processing an ingress batch record.
#[derive(Debug)]
pub struct IngressBatchResult {
    /// Packets delivered to the application, in batch order.
    pub packets: Vec<Packet>,
    /// Packets the record carried (delivered + middlebox-dropped).
    pub frames: usize,
}

/// Trusted state living inside the enclave.
struct TrustedState {
    subject: String,
    identity: Option<SigningKey>,
    enc_secret: Option<[u8; 32]>,
    /// `x25519::public_key(enc_secret)`, kept so the report does not
    /// re-derive it.
    enc_public: Option<[u8; 32]>,
    certificate: Option<Certificate>,
    config_key: Option<[u8; 32]>,
    click: Router,
    config_version: u64,
    channel: Option<DataChannel>,
    session_id: u64,
    pending_handshake: Option<ClientState>,
    suite: CipherSuite,
    offered_version: u8,
    min_version: u8,
    ca_public: VerifyingKey,
    c2c_flagging: bool,
    tls_keys: SessionKeyStore,
    accepted: u64,
    dropped: u64,
    c2c_bypassed: u64,
    /// In-enclave buffer pool backing ingress packet materialisation —
    /// the client-side mirror of the server shards' per-shard pools.
    pool: BufferPool,
}

impl std::fmt::Debug for TrustedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrustedState")
            .field("subject", &self.subject)
            .field("enrolled", &self.certificate.is_some())
            .field("config_version", &self.config_version)
            .finish()
    }
}

/// The enclave application: a typed wrapper around the raw enclave whose
/// methods correspond to the declared ecalls.
#[derive(Debug)]
pub struct EnclaveApp {
    enclave: Enclave<TrustedState>,
    batched: bool,
}

impl EnclaveApp {
    /// Creates and initialises the enclave (Click instance included).
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Click`] if the initial configuration is invalid.
    pub fn new(cfg: EnclaveAppConfig) -> Result<EnclaveApp, EndBoxError> {
        let tls_keys = SessionKeyStore::new();
        let click_env = ElementEnv {
            cost: cfg.cost.clone(),
            meter: cfg.meter.clone(),
            clock: cfg.clock.clone(),
            in_enclave: true,
            hardware_mode: cfg.mode == SgxMode::Hardware,
            device_io: false,
            tls_keys: tls_keys.clone(),
        };
        let click = Router::from_config(&cfg.click_config, click_env)?;
        let state = TrustedState {
            subject: cfg.subject,
            identity: None,
            enc_secret: None,
            enc_public: None,
            certificate: None,
            config_key: None,
            click,
            config_version: cfg.click_config_version,
            channel: None,
            session_id: 0,
            pending_handshake: None,
            suite: cfg.suite,
            offered_version: cfg.offered_version,
            min_version: cfg.min_version,
            ca_public: cfg.ca_public,
            c2c_flagging: cfg.c2c_flagging,
            tls_keys,
            accepted: 0,
            dropped: 0,
            c2c_bypassed: 0,
            pool: BufferPool::new(),
        };
        let enclave = EnclaveBuilder::new(b"endbox-client-enclave-v1")
            .embedded_config(&cfg.ca_public.to_bytes())
            .mode(cfg.mode)
            .declare_ecalls(Ecall::ALL.iter().map(|e| e.name()))
            .cost_model(cfg.cost.clone())
            .meter(cfg.meter.clone())
            .cpu(cfg.cpu)
            .clock(cfg.clock)
            .rng_seed(cfg.rng_seed)
            .build(|services| {
                // The trusted part of EndBox comprises ~320 kLOC of code
                // plus the IDS automaton and Click graph: account the
                // enclave's resident set against the EPC.
                services.epc_alloc(48 * 1024 * 1024);
                state
            });
        Ok(EnclaveApp {
            enclave,
            batched: cfg.batched_ecalls,
        })
    }

    // --- enrollment (Fig. 4) ----------------------------------------------

    /// Step 1–2: generate the key pair inside the enclave and produce a
    /// report binding the public keys.
    ///
    /// # Errors
    ///
    /// Enclave interface errors.
    pub fn begin_enrollment(&mut self) -> Result<Report, EndBoxError> {
        self.ecall(Ecall::KeypairGenerate, |state, services| {
            let identity = SigningKey::generate(services.rng());
            let (enc_secret, enc_public) = x25519::keypair(services.rng());
            state.identity = Some(identity);
            state.enc_secret = Some(enc_secret);
            state.enc_public = Some(enc_public);
        })?;
        let report = self.ecall(Ecall::ReportCreate, |state, services| {
            let identity = state.identity.as_ref().expect("generated above");
            let enc_public = state.enc_public.expect("generated above");
            let mut user_data = [0u8; 64];
            user_data[..32].copy_from_slice(&identity.verifying_key().to_bytes());
            user_data[32..].copy_from_slice(&enc_public);
            services.create_report(user_data)
        })?;
        Ok(report)
    }

    /// Step 6–7: install the CA-issued certificate and the wrapped config
    /// key; seal the enrollment state for persistence.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Enrollment`] if the certificate does not match the
    /// in-enclave keys or fails CA validation.
    pub fn finish_enrollment(
        &mut self,
        response: &EnrollmentResponse,
        now_secs: u64,
    ) -> Result<Vec<u8>, EndBoxError> {
        self.ecall(Ecall::EnrollmentFinish, |state, services| {
            let identity = state
                .identity
                .as_ref()
                .ok_or(EndBoxError::Enrollment("no key pair"))?;
            if response.certificate.public_key != identity.verifying_key() {
                return Err(EndBoxError::Enrollment("certificate key mismatch"));
            }
            if response.certificate.subject != state.subject {
                return Err(EndBoxError::Enrollment("certificate subject mismatch"));
            }
            response
                .certificate
                .verify(&state.ca_public, now_secs)
                .map_err(|_| EndBoxError::Enrollment("CA signature invalid"))?;
            // Unwrap the symmetric config key (X25519 KEM).
            let enc_secret = *state
                .enc_secret
                .as_ref()
                .ok_or(EndBoxError::Enrollment("no enc key"))?;
            let config_key = response
                .unwrap_config_key(&enc_secret)
                .ok_or(EndBoxError::Enrollment("config key unwrap failed"))?;
            state.certificate = Some(response.certificate.clone());
            state.config_key = Some(config_key);

            // Seal (identity secret, certificate, config key) — §III-C
            // step 7: "the enclave persistently stores the generated key
            // pair as well as the certificate using the SGX sealing
            // feature". The blob only unseals on the same CPU inside the
            // same enclave code.
            let mut blob = Vec::new();
            blob.extend_from_slice(&identity.to_bytes());
            blob.extend_from_slice(&enc_secret);
            blob.extend_from_slice(&config_key);
            let cert_bytes = response.certificate.to_bytes();
            blob.extend_from_slice(&(cert_bytes.len() as u32).to_be_bytes());
            blob.extend_from_slice(&cert_bytes);
            Ok(services.seal(&blob))
        })?
    }

    /// Restores enrollment state from a sealed blob produced by
    /// [`EnclaveApp::finish_enrollment`] — so "an enclave only has to be
    /// attested once" (§III-C): after a restart the client reconnects
    /// without talking to the CA or IAS again.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Enrollment`] if the blob fails to unseal (wrong CPU
    /// or different enclave code) or is malformed.
    pub fn restore_enrollment(&mut self, sealed: &[u8]) -> Result<(), EndBoxError> {
        self.ecall(Ecall::SealedStateRestore, |state, services| {
            let blob = services
                .unseal(sealed)
                .map_err(|_| EndBoxError::Enrollment("sealed state failed to unseal"))?;
            if blob.len() < 32 + 32 + 32 + 4 {
                return Err(EndBoxError::Enrollment("sealed state truncated"));
            }
            let identity = SigningKey::from_bytes(&blob[..32].try_into().unwrap())
                .map_err(|_| EndBoxError::Enrollment("sealed identity invalid"))?;
            let enc_secret: [u8; 32] = blob[32..64].try_into().unwrap();
            let config_key: [u8; 32] = blob[64..96].try_into().unwrap();
            let cert_len = u32::from_be_bytes(blob[96..100].try_into().unwrap()) as usize;
            if blob.len() < 100 + cert_len {
                return Err(EndBoxError::Enrollment("sealed state truncated"));
            }
            let certificate = Certificate::from_bytes(&blob[100..100 + cert_len])
                .map_err(|_| EndBoxError::Enrollment("sealed certificate invalid"))?;
            if certificate.public_key != identity.verifying_key() {
                return Err(EndBoxError::Enrollment("sealed state inconsistent"));
            }
            state.identity = Some(identity);
            state.enc_secret = Some(enc_secret);
            state.enc_public = Some(x25519::public_key(&enc_secret));
            state.config_key = Some(config_key);
            state.certificate = Some(certificate);
            Ok(())
        })?
    }

    // --- handshake ----------------------------------------------------------

    /// Starts the VPN handshake, returning the ClientHello record.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::NotReady`] before enrollment.
    pub fn handshake_start(&mut self) -> Result<Record, EndBoxError> {
        self.ecall(Ecall::HandshakeStart, |state, services| {
            let identity = state
                .identity
                .clone()
                .ok_or(EndBoxError::NotReady("not enrolled: no identity"))?;
            let certificate = state
                .certificate
                .clone()
                .ok_or(EndBoxError::NotReady("not enrolled: no certificate"))?;
            let cfg = HandshakeConfig {
                identity,
                certificate,
                ca_public: state.ca_public,
                min_version: state.min_version,
            };
            let (hello, pending) = client_start(
                &cfg,
                state.offered_version,
                state.config_version,
                services.rng(),
            );
            state.pending_handshake = Some(pending);
            Ok(Record {
                opcode: Opcode::HandshakeInit,
                session_id: 0,
                packet_id: 0,
                payload: hello.to_bytes(),
            })
        })?
    }

    /// Completes the handshake from the server's response. The minimum
    /// protocol version check happens here, inside the enclave, so the
    /// untrusted host cannot downgrade the connection (§V-A).
    ///
    /// # Errors
    ///
    /// Handshake validation failures.
    pub fn handshake_complete(&mut self, response: &Record) -> Result<u64, EndBoxError> {
        self.ecall(Ecall::HandshakeComplete, |state, services| {
            let hello = ServerHello::from_bytes(&response.payload)?;
            let pending = state
                .pending_handshake
                .take()
                .ok_or(EndBoxError::NotReady("no handshake in progress"))?;
            let cfg = HandshakeConfig {
                identity: state
                    .identity
                    .clone()
                    .ok_or(EndBoxError::NotReady("no identity"))?,
                certificate: state
                    .certificate
                    .clone()
                    .ok_or(EndBoxError::NotReady("no certificate"))?,
                ca_public: state.ca_public,
                min_version: state.min_version,
            };
            let now_secs = services.trusted_now().as_secs_f64() as u64;
            let keys = client_complete(&cfg, &pending, &hello, now_secs)?;
            state.channel = Some(DataChannel::client(
                &keys,
                state.suite,
                services.meter_handle(),
                services.cost_model().clone(),
            ));
            state.session_id = hello.session_id;
            Ok(hello.session_id)
        })?
    }

    // --- data path ----------------------------------------------------------

    /// Processes egress packets in **one** enclave transition, the
    /// enclave's one egress ecall: the packets cross the boundary once
    /// (the fixed partition cost paid once), traverse Click as one
    /// [`PacketBatch`], and the accepted ones are sealed into one record
    /// of kind `opcode`. `Data` carries a single packet — the paper's
    /// baseline, "one ecall per packet". `DataBatch` carries the whole
    /// batch under one IV/MAC and one fixed crypto charge — the §IV
    /// batching optimisation taken to "one ecall per batch".
    ///
    /// # Errors
    ///
    /// [`EndBoxError::NotReady`] before the handshake completes;
    /// [`endbox_vpn::VpnError::Malformed`], before any ecall, for an
    /// opcode other than `Data` or `DataBatch`, or a `Data` record asked
    /// to carry other than one packet.
    pub fn process_egress(
        &mut self,
        batch: PacketBatch,
        opcode: Opcode,
    ) -> Result<EgressBatchResult, EndBoxError> {
        match (opcode, batch.len()) {
            (Opcode::Data, 1) | (Opcode::DataBatch, _) => {}
            _ => {
                return Err(EndBoxError::Vpn(endbox_vpn::VpnError::Malformed(
                    "egress seals one packet per Data record, or a DataBatch",
                )))
            }
        }
        let result = self.ecall(Ecall::PacketEncrypt, |state, services| {
            if state.channel.is_none() {
                return Err(EndBoxError::NotReady("no established channel"));
            }
            let n = batch.len();
            let total_bytes: usize = batch.iter().map(Packet::len).sum();
            // Copying the packets across the boundary costs partition
            // overhead plus EPC traffic in hardware mode.
            services.charge(
                services.cost_model().partition_per_packet
                    + (services.cost_model().partition_per_byte * total_bytes as f64) as u64,
            );
            services.charge_epc_traffic(total_bytes);

            let out = state.click.process_batch(batch);
            let accepted = out.accepted;
            let dropped = n - accepted;
            state.accepted += accepted as u64;
            state.dropped += dropped as u64;
            if accepted == 0 {
                return Ok(EgressBatchResult {
                    record: None,
                    accepted,
                    dropped,
                });
            }
            let mut emitted = out.into_first_emissions();
            if state.c2c_flagging {
                // Mark as already-processed so a receiving EndBox client
                // can skip Click (§IV-A).
                for pkt in &mut emitted {
                    pkt.set_tos(QOS_ENDBOX_PROCESSED);
                }
            }
            let channel = state.channel.as_mut().unwrap();
            let record = if opcode == Opcode::Data {
                channel.seal(Opcode::Data, state.session_id, emitted[0].bytes())
            } else {
                channel.seal_batch(state.session_id, emitted.iter().map(Packet::bytes))
            };
            Ok(EgressBatchResult {
                record: Some(record),
                accepted,
                dropped,
            })
        })?;
        if !self.batched {
            self.charge_unbatched_crypto_calls()?;
        }
        result
    }

    /// Processes an ingress `DataBatch` record — the enclave's one
    /// ingress ecall — in **one** enclave transition: open once into frame
    /// handles (no per-frame copy), materialise pool-backed packets in one
    /// pass — the same `open_batch_frames` + pooled-materialisation
    /// ingress the server shards use — then run every non-bypassed packet
    /// through Click as a single batch. Delivered packets keep the batch's
    /// original order.
    ///
    /// # Errors
    ///
    /// Authentication/replay/framing failures from the channel.
    pub fn process_ingress_batch(
        &mut self,
        record: &Record,
    ) -> Result<IngressBatchResult, EndBoxError> {
        let result = self.ecall(Ecall::PacketDecrypt, |state, services| {
            let channel = state
                .channel
                .as_mut()
                .ok_or(EndBoxError::NotReady("no established channel"))?;
            let batch_frames = channel.open_batch_frames(record)?;
            let frames = batch_frames.len();
            let total_bytes = batch_frames.total_bytes();
            services.charge(
                services.cost_model().partition_per_packet
                    + (services.cost_model().partition_per_byte * total_bytes as f64) as u64,
            );
            services.charge_epc_traffic(total_bytes);

            // One pass, one copy: frames go straight from the decrypted
            // blob into pool-recycled buffers, and a malformed frame
            // aborts the whole batch before any counters move.
            let packets = endbox_vpn::shard::materialize_frames(&state.pool, batch_frames)
                .map_err(EndBoxError::Vpn)?;

            // Split the batch into flagged (client-to-client bypass) and
            // Click-bound packets, remembering each Click packet's
            // original position so delivery order is preserved.
            let mut delivered: Vec<Option<Packet>> = (0..frames).map(|_| None).collect();
            let mut to_click = PacketBatch::with_capacity(frames);
            let mut click_origin = Vec::with_capacity(frames);
            for (i, packet) in packets.into_iter().enumerate() {
                if state.c2c_flagging && packet.tos() == QOS_ENDBOX_PROCESSED {
                    state.c2c_bypassed += 1;
                    delivered[i] = Some(packet);
                } else {
                    click_origin.push(i);
                    to_click.push(packet);
                }
            }
            let n_click = to_click.len();
            let out = state.click.process_batch(to_click);
            state.accepted += out.accepted as u64;
            state.dropped += (n_click - out.accepted) as u64;
            for (slot, pkt) in out.first_emissions_by_slot().into_iter().enumerate() {
                if let Some(pkt) = pkt {
                    delivered[click_origin[slot]] = Some(pkt);
                }
            }
            Ok(IngressBatchResult {
                packets: delivered.into_iter().flatten().collect(),
                frames,
            })
        })?;
        if !self.batched {
            self.charge_unbatched_crypto_calls()?;
        }
        result
    }

    /// The naive (pre-optimisation) boundary layout, i.e. linking OpenVPN
    /// against an in-enclave TLS library without restructuring: every
    /// libcrypto call crosses the boundary — cipher context set-up, IV
    /// generation, per-buffer encrypt update/final, HMAC init/update/
    /// final, packet-id bookkeeping and RNG reads. Twelve extra
    /// transitions per packet on top of the combined call (§IV-A / §V-G
    /// ablation; the paper reports the batched layout is 4.4x faster).
    /// The work itself runs in the combined call, so the twelve have no
    /// body.
    fn charge_unbatched_crypto_calls(&mut self) -> Result<(), EndBoxError> {
        self.enclave.empty_transitions(12)?;
        Ok(())
    }

    // --- pings & configuration (Fig. 5) -------------------------------------

    /// Builds the client's periodic ping, proving its config version.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::NotReady`] before the handshake completes.
    pub fn build_ping(&mut self) -> Result<Record, EndBoxError> {
        self.ecall(Ecall::PingBuild, |state, services| {
            let now = services.trusted_now().as_nanos();
            let msg = PingMessage {
                config_version: state.config_version,
                grace_period_secs: 0,
                timestamp_ns: now,
            };
            let session_id = state.session_id;
            let channel = state
                .channel
                .as_mut()
                .ok_or(EndBoxError::NotReady("no channel"))?;
            Ok(channel.seal(Opcode::Ping, session_id, &msg.to_bytes()))
        })?
    }

    /// Processes a server ping; authenticity is validated inside the
    /// enclave before the announcement is believed (§III-E).
    ///
    /// # Errors
    ///
    /// Authentication failures for crafted pings.
    pub fn process_ping(&mut self, record: &Record) -> Result<PingMessage, EndBoxError> {
        self.ecall(Ecall::PingProcess, |state, _| {
            let channel = state
                .channel
                .as_mut()
                .ok_or(EndBoxError::NotReady("no channel"))?;
            let payload = channel.open(record)?;
            Ok(PingMessage::from_bytes(&payload)?)
        })?
    }

    /// Verifies, decrypts and applies a configuration update, hot-swapping
    /// the in-enclave Click instance.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::ConfigUpdate`] on bad signatures, version replay, or
    /// undecryptable payloads.
    pub fn apply_config(&mut self, signed: &SignedConfig) -> Result<(), EndBoxError> {
        self.ecall(Ecall::ConfigApply, |state, services| {
            services.charge(services.cost_model().sig_verify);
            signed
                .verify(&state.ca_public)
                .map_err(|_| EndBoxError::ConfigUpdate("signature invalid"))?;
            // Monotonic version check: rejecting old versions prevents
            // replaying stale configurations (§III-E).
            if signed.version <= state.config_version {
                return Err(EndBoxError::ConfigUpdate("version not newer (replay?)"));
            }
            let inner = if signed.encrypted {
                let key = state
                    .config_key
                    .as_ref()
                    .ok_or(EndBoxError::ConfigUpdate("no config key installed"))?;
                services.charge(services.cost_model().crypto_cycles(signed.payload.len()));
                signed
                    .decrypt(key)
                    .ok_or(EndBoxError::ConfigUpdate("decryption failed"))?
            } else {
                signed.payload.clone()
            };
            // The version is also embedded *inside* the (possibly
            // encrypted) payload; both must agree.
            let (inner_version, click_text) = SignedConfig::split_inner(&inner)
                .ok_or(EndBoxError::ConfigUpdate("malformed config body"))?;
            if inner_version != signed.version {
                return Err(EndBoxError::ConfigUpdate("inner/outer version mismatch"));
            }
            state
                .click
                .hot_swap(click_text)
                .map_err(|_| EndBoxError::ConfigUpdate("config rejected by Click"))?;
            state.config_version = signed.version;
            Ok(())
        })?
    }

    /// The config version currently applied.
    pub fn config_version(&mut self) -> u64 {
        self.ecall(Ecall::ConfigVersionRead, |state, _| state.config_version)
            .unwrap_or(0)
    }

    // --- TLS key forwarding (§III-D) -----------------------------------------

    /// Registers a TLS session key forwarded by the client's patched TLS
    /// library over the management interface.
    ///
    /// # Errors
    ///
    /// Enclave interface errors.
    pub fn register_tls_key(&mut self, flow: FlowId, key: [u8; 16]) -> Result<(), EndBoxError> {
        self.ecall(Ecall::TlsKeyRegister, |state, _| {
            state.tls_keys.register(flow, key);
        })?;
        Ok(())
    }

    // --- introspection --------------------------------------------------------

    /// Reads a Click handler inside the enclave.
    pub fn click_read_handler(&mut self, element: &str, handler: &str) -> Option<String> {
        self.ecall(Ecall::ClickReadHandler, |state, _| {
            state.click.read_handler(element, handler)
        })
        .ok()
        .flatten()
    }

    /// Recycling counters of the in-enclave ingress buffer pool (the
    /// client-side counterpart of the server shards' pool stats, so both
    /// ends of the tunnel report ingress reuse).
    ///
    /// Rides the counters ecall [`EnclaveApp::packet_counters`] uses,
    /// [`Ecall::ClickElementCount`]: one introspection row serves both
    /// reads. Like the other counter reads, a destroyed enclave yields
    /// default (all-zero) stats.
    pub fn ingress_pool_stats(&mut self) -> PoolStats {
        self.ecall(Ecall::ClickElementCount, |state, _| state.pool.stats())
            .unwrap_or_default()
    }

    /// (accepted, dropped, c2c-bypassed) packet counters.
    pub fn packet_counters(&mut self) -> (u64, u64, u64) {
        self.ecall(Ecall::ClickElementCount, |state, _| {
            (state.accepted, state.dropped, state.c2c_bypassed)
        })
        .unwrap_or((0, 0, 0))
    }

    /// The enclave measurement (for attestation tests).
    pub fn measurement(&self) -> endbox_sgx::Measurement {
        self.enclave.measurement()
    }

    /// Total transitions executed so far.
    pub fn transition_counters(&self) -> endbox_sgx::enclave::CallCounters {
        self.enclave.counters()
    }

    /// Destroys the enclave (the untrusted host can always do this — a
    /// self-inflicted DoS, §V-A).
    pub fn destroy(&mut self) {
        self.enclave.destroy();
    }

    /// Runs `body` inside the enclave as the ecall `row`: the only way
    /// the host reaches trusted state, so every body runs under a row.
    fn ecall<R>(
        &mut self,
        row: Ecall,
        body: impl FnOnce(&mut TrustedState, &mut EnclaveServices) -> R,
    ) -> Result<R, EnclaveError> {
        self.enclave.ecall(row.name(), body)
    }

    /// Number of ecall names the enclave declares: one per [`Ecall`] row.
    pub fn raw_enclave_ecall_names(&self) -> usize {
        self.enclave.declared_ecall_count()
    }

    /// Attempts an arbitrary named ecall — used by the interface-attack
    /// battery; undeclared names must fail.
    ///
    /// # Errors
    ///
    /// [`EndBoxError::Enclave`] for undeclared calls.
    pub fn try_raw_ecall(&mut self, name: &str) -> Result<(), EndBoxError> {
        self.enclave.ecall(name, |_, _| ())?;
        Ok(())
    }
}
