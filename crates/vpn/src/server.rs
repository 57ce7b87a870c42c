//! The VPN server: terminates sessions for many clients, enforces
//! attestation-derived certificates, protocol versions, replay windows,
//! and configuration-version policy (grace periods, §III-E).
//!
//! The paper's scalability experiments run "one OpenVPN server instance
//! per client, as OpenVPN does not support multithreading" (§V-E); this
//! implementation multiplexes sessions in one structure — concretely,
//! [`VpnServer`] is the handshake `Responder` in front of exactly
//! **one** inline [`VpnShard`]. `endbox::server`'s sharded server keeps
//! one `VpnServer` on its front-end, where sessions wait until a record
//! binds them to a peer, and one more `VpnShard` per shard thread, so the
//! two servers share one handshake, one record handler
//! ([`VpnShard::handle_record_delivery`]) and one event type
//! ([`ShardEvent`]).
//!
//! A session's channel is split at the handshake
//! ([`DataChannel::split`]): the receive half rides in the
//! [`ServerSession`] a shard owns, the send half stays in the front-end's
//! `SendTable`, where both servers seal egress on the calling thread.

use crate::channel::{CipherSuite, DataChannel, SendHalf};
use crate::error::VpnError;
use crate::handshake::{server_respond, ClientHello, HandshakeConfig};
use crate::proto::{Opcode, Record};
use crate::shard::{ConfigPolicy, ShardEvent, VpnShard};
use endbox_netsim::cost::{CostModel, CycleMeter};
use std::collections::HashMap;

pub use crate::shard::ServerSession;

/// The handshake responder both servers answer `HandshakeInit` with: the
/// server identity, the session-id allocator and the RNG. Ids are
/// allocated densely from 1 and the RNG is seeded, so two servers built
/// from the same configuration assign byte-identical ids and key
/// material to the same sequence of hellos.
struct Responder {
    handshake: HandshakeConfig,
    suite: CipherSuite,
    meter: CycleMeter,
    cost: CostModel,
    next_session_id: u64,
    rng: rand::rngs::StdRng,
}

impl Responder {
    fn new(
        handshake: HandshakeConfig,
        suite: CipherSuite,
        meter: CycleMeter,
        cost: CostModel,
        rng_seed: u64,
    ) -> Self {
        use rand::SeedableRng;
        Responder {
            handshake,
            suite,
            meter,
            cost,
            next_session_id: 1,
            rng: rand::rngs::StdRng::seed_from_u64(rng_seed),
        }
    }

    /// Answers the `HandshakeInit` in `record`: the new session's id, the
    /// session (with its channel's receive half) for the caller to
    /// install on the shard that will own it, the send half for the
    /// caller's `SendTable`, and the `Established` event carrying the
    /// ServerHello. A refused hello consumes no session id.
    fn respond(
        &mut self,
        record: &Record,
        required_version: u64,
        now_secs: u64,
    ) -> Result<(u64, ServerSession, SendHalf, ShardEvent), VpnError> {
        let hello = ClientHello::from_bytes(&record.payload)?;
        let session_id = self.next_session_id;
        let (server_hello, keys, info) = server_respond(
            &self.handshake,
            &hello,
            session_id,
            required_version,
            now_secs,
            &mut self.rng,
        )?;
        self.next_session_id += 1;
        let (send, recv) =
            DataChannel::server(&keys, self.suite, self.meter.clone(), self.cost.clone()).split();
        let session = ServerSession::new(info.clone(), recv);
        let response = Record {
            opcode: Opcode::HandshakeResp,
            session_id,
            packet_id: 0,
            payload: server_hello.to_bytes(),
        };
        let event = ShardEvent::Established {
            session_id,
            response,
            info,
        };
        Ok((session_id, session, send, event))
    }
}

/// The front-end's send halves, one per live session: the only place a
/// server seals, and it seals two record kinds — `DataBatch` (all data
/// towards a client) and `Ping`. A half is inserted when its session is
/// established and dropped where the session is forgotten (a
/// `Disconnected` verdict), so sealing to an unknown or departed session is
/// [`VpnError::UnknownSession`] — the same verdict on both servers.
/// Seals are issued one at a time by the single front-end caller, so the
/// packet-id sequence, the derived IVs and every byte are the same
/// whichever worker owns the session's receive half, and whether it has
/// moved.
#[derive(Debug, Default)]
struct SendTable {
    halves: HashMap<u64, SendHalf>,
}

impl SendTable {
    fn insert(&mut self, session_id: u64, half: SendHalf) {
        self.halves.insert(session_id, half);
    }

    fn forget(&mut self, session_id: u64) {
        self.halves.remove(&session_id);
    }

    fn half(&mut self, session_id: u64) -> Result<&mut SendHalf, VpnError> {
        self.halves
            .get_mut(&session_id)
            .ok_or(VpnError::UnknownSession(session_id))
    }

    /// Seals several payloads to a client as one `DataBatch` record,
    /// framed straight into the record body.
    fn seal_batch<I>(&mut self, session_id: u64, payloads: I) -> Result<Record, VpnError>
    where
        I: IntoIterator,
        I::IntoIter: Clone,
        I::Item: AsRef<[u8]>,
    {
        Ok(self.half(session_id)?.seal_batch(session_id, payloads))
    }

    /// The periodic server ping carrying `policy`'s announcement (Fig. 5
    /// step 4).
    fn ping(
        &mut self,
        session_id: u64,
        policy: ConfigPolicy,
        now_ns: u64,
    ) -> Result<Record, VpnError> {
        let ping = policy.ping(now_ns).to_bytes();
        Ok(self.half(session_id)?.seal(Opcode::Ping, session_id, &ping))
    }
}

/// The VPN server: the handshake `Responder` plus one inline
/// [`VpnShard`], with the sessions' send halves in a `SendTable`.
pub struct VpnServer {
    responder: Responder,
    sends: SendTable,
    shard: VpnShard,
}

impl std::fmt::Debug for VpnServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VpnServer")
            .field("sessions", &self.shard.session_count())
            .field("required_version", &self.shard.policy().required_version)
            .finish()
    }
}

impl VpnServer {
    /// Creates a server.
    pub fn new(
        handshake: HandshakeConfig,
        suite: CipherSuite,
        meter: CycleMeter,
        cost: CostModel,
        rng_seed: u64,
    ) -> Self {
        VpnServer {
            responder: Responder::new(handshake, suite, meter, cost, rng_seed),
            sends: SendTable::default(),
            shard: VpnShard::new(),
        }
    }

    /// Announces a new required configuration version with a grace period
    /// (§III-E).
    pub fn announce_config(&mut self, version: u64, grace_period_secs: u32, now_secs: u64) {
        let policy = self.shard.policy();
        self.shard
            .set_policy(policy.announce(version, grace_period_secs, now_secs));
    }

    /// The currently required configuration version.
    pub fn required_config_version(&self) -> u64 {
        self.shard.policy().required_version
    }

    /// The config policy in force (what a sharded deployment replicates
    /// to every shard).
    pub fn policy(&self) -> ConfigPolicy {
        self.shard.policy()
    }

    /// The id the next successful handshake will be assigned: every id at
    /// or above it may still come into existence.
    pub fn next_session_id(&self) -> u64 {
        self.responder.next_session_id
    }

    /// Hands over `session_id` once a record has bound it to a peer (see
    /// [`VpnShard::take_bound`]); its send half stays here.
    pub fn take_bound(&mut self, session_id: u64) -> Option<ServerSession> {
        self.shard.take_bound(session_id)
    }

    /// Drops the send half of a session that ended on another shard.
    pub fn forget(&mut self, session_id: u64) {
        self.sends.forget(session_id);
    }

    /// Handles one wire record from transport peer `peer`.
    ///
    /// # Errors
    ///
    /// All authentication/policy failures; the caller drops the traffic.
    pub fn handle_record(
        &mut self,
        record: &Record,
        peer: u64,
        now_secs: u64,
    ) -> Result<ShardEvent, VpnError> {
        match record.opcode {
            Opcode::HandshakeInit => {
                let required = self.shard.policy().required_version;
                let (session_id, session, send, event) =
                    self.responder.respond(record, required, now_secs)?;
                self.shard.install(session_id, session);
                self.sends.insert(session_id, send);
                Ok(event)
            }
            Opcode::HandshakeResp => Err(VpnError::Malformed("server received HandshakeResp")),
            _ => {
                let event = self.shard.handle_record_delivery(record, peer, now_secs)?;
                if let ShardEvent::Disconnected { session_id } = &event {
                    self.sends.forget(*session_id);
                }
                Ok(event)
            }
        }
    }

    /// Seals several payloads to a client as one `DataBatch` record (§IV
    /// batching, server-to-client direction).
    ///
    /// # Errors
    ///
    /// [`VpnError::UnknownSession`] for bad ids.
    pub fn seal_batch_to_client<I>(
        &mut self,
        session_id: u64,
        payloads: I,
    ) -> Result<Record, VpnError>
    where
        I: IntoIterator,
        I::IntoIter: Clone,
        I::Item: AsRef<[u8]>,
    {
        self.sends.seal_batch(session_id, payloads)
    }

    /// Builds the periodic server ping for a session, carrying the current
    /// config announcement (Fig. 5 step 4).
    ///
    /// # Errors
    ///
    /// [`VpnError::UnknownSession`] for bad ids.
    pub fn make_ping(&mut self, session_id: u64, now_ns: u64) -> Result<Record, VpnError> {
        self.sends.ping(session_id, self.shard.policy(), now_ns)
    }

    /// Active session ids.
    pub fn session_ids(&self) -> Vec<u64> {
        self.shard.session_ids()
    }

    /// Looks up a session.
    pub fn session(&self, id: u64) -> Option<&ServerSession> {
        self.shard.session(id)
    }

    /// Number of connected clients.
    pub fn session_count(&self) -> usize {
        self.shard.session_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::Certificate;
    use crate::channel::SessionKeys;
    use crate::handshake::{client_complete, client_start};
    use crate::ping::PingMessage;
    use crate::PROTOCOL_V1;
    use endbox_crypto::schnorr::SigningKey;
    use endbox_netsim::Packet;
    use rand::SeedableRng;

    /// The transport peer the tests' client speaks from.
    const PEER: u64 = 7;

    struct Harness {
        server: VpnServer,
        client_cfg: HandshakeConfig,
        rng: rand::rngs::StdRng,
    }

    /// `(server config, client config, rng)` of one CA.
    fn configs() -> (HandshakeConfig, HandshakeConfig, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        let ca = SigningKey::generate(&mut rng);
        let server_key = SigningKey::generate(&mut rng);
        let client_key = SigningKey::generate(&mut rng);
        let server_cert =
            Certificate::issue("server", server_key.verifying_key(), 1 << 40, &ca, &mut rng);
        let client_cert = Certificate::issue(
            "client-1",
            client_key.verifying_key(),
            1 << 40,
            &ca,
            &mut rng,
        );
        let server_cfg = HandshakeConfig {
            identity: server_key,
            certificate: server_cert,
            ca_public: ca.verifying_key(),
            min_version: PROTOCOL_V1,
        };
        let client_cfg = HandshakeConfig {
            identity: client_key,
            certificate: client_cert,
            ca_public: ca.verifying_key(),
            min_version: PROTOCOL_V1,
        };
        (server_cfg, client_cfg, rng)
    }

    fn harness() -> Harness {
        let (server_cfg, client_cfg, rng) = configs();
        let server = VpnServer::new(
            server_cfg,
            CipherSuite::Aes128Gcm,
            CycleMeter::new(),
            CostModel::calibrated(),
            1,
        );
        Harness {
            server,
            client_cfg,
            rng,
        }
    }

    /// A well-formed tunnelled IP packet carrying `payload`.
    fn ip(payload: &[u8]) -> Packet {
        Packet::udp(
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            std::net::Ipv4Addr::new(10, 0, 1, 1),
            1,
            2,
            payload,
        )
    }

    /// Connects a client, returning (session id, client channel).
    fn connect(h: &mut Harness, config_version: u64) -> (u64, DataChannel) {
        let Harness {
            server,
            client_cfg,
            rng,
        } = h;
        connect_through(client_cfg, rng, config_version, |record| {
            server.handle_record(record, PEER, 0)
        })
    }

    /// Runs the client side of a handshake against `handle`, either
    /// server's record handler.
    fn connect_through(
        client_cfg: &HandshakeConfig,
        rng: &mut rand::rngs::StdRng,
        config_version: u64,
        handle: impl FnOnce(&Record) -> Result<ShardEvent, VpnError>,
    ) -> (u64, DataChannel) {
        let (hello, state) = client_start(client_cfg, PROTOCOL_V1, config_version, rng);
        let record = Record {
            opcode: Opcode::HandshakeInit,
            session_id: 0,
            packet_id: 0,
            payload: hello.to_bytes(),
        };
        let ShardEvent::Established {
            session_id,
            response,
            ..
        } = handle(&record).unwrap()
        else {
            panic!("expected Established");
        };
        let shello = crate::handshake::ServerHello::from_bytes(&response.payload).unwrap();
        let keys: SessionKeys = client_complete(client_cfg, &state, &shello, 0).unwrap();
        let channel = DataChannel::client(
            &keys,
            CipherSuite::Aes128Gcm,
            CycleMeter::new(),
            CostModel::calibrated(),
        );
        (session_id, channel)
    }

    #[test]
    fn connect_and_send_data() {
        let mut h = harness();
        let (sid, mut chan) = connect(&mut h, 1);
        assert_eq!(h.server.session_count(), 1);
        let pkt = ip(b"an ip packet");
        let rec = chan.seal(Opcode::Data, sid, pkt.bytes());
        match h.server.handle_record(&rec, PEER, 1).unwrap() {
            ShardEvent::Packet { session_id, packet } => {
                assert_eq!(session_id, sid);
                assert_eq!(packet.bytes(), pkt.bytes());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multiple_clients_get_distinct_sessions() {
        let mut h = harness();
        let (sid1, _) = connect(&mut h, 1);
        let (sid2, _) = connect(&mut h, 1);
        assert_ne!(sid1, sid2);
        assert_eq!(h.server.session_ids().len(), 2);
    }

    #[test]
    fn batch_records_deliver_all_payloads() {
        let mut h = harness();
        let (sid, mut chan) = connect(&mut h, 1);
        let pkts = [ip(b"pkt one"), ip(b"pkt two"), ip(b"pkt three")];
        let payloads: Vec<&[u8]> = pkts.iter().map(Packet::bytes).collect();
        let rec = chan.seal_batch(sid, &payloads);
        match h.server.handle_record(&rec, PEER, 1).unwrap() {
            ShardEvent::Batch { session_id, batch } => {
                assert_eq!(session_id, sid);
                let got: Vec<&[u8]> = batch.iter().map(Packet::bytes).collect();
                assert_eq!(got, payloads);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Batch records share the replay window with single records.
        assert_eq!(
            h.server.handle_record(&rec, PEER, 1).unwrap_err(),
            VpnError::Replay
        );
    }

    #[test]
    fn batch_records_respect_config_policy() {
        let mut h = harness();
        let (sid, mut chan) = connect(&mut h, 1);
        h.server.announce_config(2, 0, 100);
        let rec = chan.seal_batch(sid, &[b"stale batch"]);
        assert!(matches!(
            h.server.handle_record(&rec, PEER, 101),
            Err(VpnError::StaleConfiguration { .. })
        ));
    }

    #[test]
    fn replayed_data_rejected() {
        let mut h = harness();
        let (sid, mut chan) = connect(&mut h, 1);
        let rec = chan.seal(Opcode::Data, sid, ip(b"pkt").bytes());
        h.server.handle_record(&rec, PEER, 1).unwrap();
        assert_eq!(
            h.server.handle_record(&rec, PEER, 1).unwrap_err(),
            VpnError::Replay
        );
    }

    #[test]
    fn unknown_session_rejected() {
        let mut h = harness();
        let (_, mut chan) = connect(&mut h, 1);
        let rec = chan.seal(Opcode::Data, 999, b"pkt");
        assert_eq!(
            h.server.handle_record(&rec, PEER, 1).unwrap_err(),
            VpnError::UnknownSession(999)
        );
    }

    #[test]
    fn grace_period_enforcement() {
        let mut h = harness();
        let (sid, mut chan) = connect(&mut h, 1);
        // Server announces version 2 at t=100 with 30s grace.
        h.server.announce_config(2, 30, 100);

        // During grace (t=110): old version 1 still accepted.
        let rec = chan.seal(Opcode::Data, sid, ip(b"during grace").bytes());
        assert!(matches!(
            h.server.handle_record(&rec, PEER, 110),
            Ok(ShardEvent::Packet { .. })
        ));

        // After grace (t=131): stale config blocked.
        let rec = chan.seal(Opcode::Data, sid, b"after grace");
        assert_eq!(
            h.server.handle_record(&rec, PEER, 131).unwrap_err(),
            VpnError::StaleConfiguration {
                client: 1,
                required: 2
            }
        );

        // Client proves the update via ping (Fig. 5 step 9) and traffic
        // flows again.
        let ping = PingMessage {
            config_version: 2,
            grace_period_secs: 0,
            timestamp_ns: 0,
        };
        let rec = chan.seal(Opcode::Ping, sid, &ping.to_bytes());
        h.server.handle_record(&rec, PEER, 132).unwrap();
        let rec = chan.seal(Opcode::Data, sid, ip(b"updated").bytes());
        assert!(matches!(
            h.server.handle_record(&rec, PEER, 133),
            Ok(ShardEvent::Packet { .. })
        ));
    }

    #[test]
    fn rollback_to_older_version_blocked() {
        let mut h = harness();
        let (sid, mut chan) = connect(&mut h, 5);
        h.server.announce_config(6, 0, 100);
        // A malicious client replays an old config and reports version 3 —
        // monotonicity check at the server refuses it after the deadline.
        let ping = PingMessage {
            config_version: 3,
            grace_period_secs: 0,
            timestamp_ns: 0,
        };
        let rec = chan.seal(Opcode::Ping, sid, &ping.to_bytes());
        h.server.handle_record(&rec, PEER, 101).unwrap();
        let rec = chan.seal(Opcode::Data, sid, b"rollback traffic");
        assert!(matches!(
            h.server.handle_record(&rec, PEER, 102),
            Err(VpnError::StaleConfiguration { .. })
        ));
    }

    #[test]
    fn server_ping_carries_announcement() {
        let mut h = harness();
        let (sid, mut chan) = connect(&mut h, 1);
        h.server.announce_config(7, 60, 0);
        let ping_rec = h.server.make_ping(sid, 42).unwrap();
        let payload = chan.open(&ping_rec).unwrap();
        let msg = PingMessage::from_bytes(&payload).unwrap();
        assert_eq!(msg.config_version, 7);
        assert_eq!(msg.grace_period_secs, 60);
    }

    #[test]
    fn disconnect_removes_session() {
        let mut h = harness();
        let (sid, _) = connect(&mut h, 1);
        let rec = Record {
            opcode: Opcode::Disconnect,
            session_id: sid,
            packet_id: 0,
            payload: vec![],
        };
        h.server.handle_record(&rec, PEER, 1).unwrap();
        assert_eq!(h.server.session_count(), 0);
    }

    #[test]
    fn crafted_ping_rejected_by_mac() {
        let mut h = harness();
        let (sid, _) = connect(&mut h, 1);
        // Attacker forges a ping claiming version 999 without keys.
        let forged = Record {
            opcode: Opcode::Ping,
            session_id: sid,
            packet_id: 50,
            payload: {
                let mut p = PingMessage {
                    config_version: 999,
                    grace_period_secs: 0,
                    timestamp_ns: 0,
                }
                .to_bytes();
                p.extend_from_slice(&[0u8; 32]); // fake tag
                p
            },
        };
        assert_eq!(
            h.server.handle_record(&forged, PEER, 1).unwrap_err(),
            VpnError::AuthenticationFailed
        );
    }

    /// An authenticated record whose plaintext is not an IPv4 packet is
    /// `Malformed`, `Data` and `DataBatch` alike, and it has taken its
    /// replay-window slot: replaying it is a `Replay`.
    #[test]
    fn authenticated_non_ip_payload_is_malformed_and_replay_protected() {
        let mut h = harness();
        let (sid, mut chan) = connect(&mut h, 1);
        let malformed = Err(VpnError::Malformed("bad tunnelled packet"));
        let data = chan.seal(Opcode::Data, sid, b"not an ip packet");
        let batch = chan.seal_batch(sid, &[ip(b"ok").bytes(), b"not an ip packet"]);
        for rec in [data, batch] {
            let mut handle = || h.server.handle_record(&rec, PEER, 1).map(|_| ());
            assert_eq!(handle(), malformed, "{:?}", rec.opcode);
            assert_eq!(handle(), Err(VpnError::Replay), "{:?} replayed", rec.opcode);
        }
    }

    /// A session binds to the peer of its first authenticated record: a
    /// copy of a valid record re-sent from another peer first is
    /// `UnknownSession` without consuming the window slot, a forgery
    /// binds nothing, and once bound the session answers no other peer.
    #[test]
    fn sessions_bind_to_the_peer_of_their_first_authenticated_record() {
        let mut h = harness();
        let (sid, mut chan) = connect(&mut h, 1);
        let rec = chan.seal(Opcode::Data, sid, ip(b"genuine").bytes());
        let mut forged = chan.seal(Opcode::Data, sid, ip(b"forged").bytes());
        forged.payload[0] ^= 1;
        let bound = |h: &Harness| h.server.session(sid).unwrap().bound_peer();
        assert_eq!(
            h.server.handle_record(&forged, PEER + 1, 1).unwrap_err(),
            VpnError::AuthenticationFailed
        );
        assert_eq!(bound(&h), None, "a forgery binds nothing");
        assert_eq!(
            h.server.handle_record(&rec, PEER, 1).map(|_| ()),
            Ok(()),
            "the first authenticated record is accepted"
        );
        assert_eq!(bound(&h), Some(PEER));
        let next = chan.seal(Opcode::Data, sid, ip(b"next").bytes());
        assert_eq!(
            h.server.handle_record(&next, PEER + 1, 1).unwrap_err(),
            VpnError::UnknownSession(sid),
            "a bound session answers no other peer"
        );
        assert!(
            h.server.handle_record(&next, PEER, 1).is_ok(),
            "slot untouched"
        );
    }
}
